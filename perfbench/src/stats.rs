//! Metric arithmetic: medians, the tail-percentile rule, failure-aware
//! latency samples, per-workload throughput and histogram quantiles.

/// Sorted copy of finite-or-infinite samples (NaN-free by construction).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank order statistic: the smallest sample with at least
/// `q · n` samples at or below it.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Median (nearest rank, so always an observed sample). `None` when
/// there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| nearest_rank(&sorted(samples), 0.5))
}

/// Arithmetic mean: for pass times, the timed phase's wall time per
/// pass. `None` when there are no samples.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Median of `f` over `items`; 0 when there are none (a metric of a
/// layer the run did not exercise).
pub fn median_by<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// A tail percentile as reported: which percentile it is, its value, and
/// how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub beyond: usize,
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail rule: p90 when there are at least 100 samples (so at least
/// ten lie beyond it); otherwise the highest percentile that still has
/// ten samples beyond it, but never below the median. Below 20 samples
/// no percentile above the median has ten beyond it, so the tail reads
/// as the median and `percentile` says so.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let s = sorted(samples);
    let rank = if n >= 100 {
        (0.9 * n as f64).ceil() as usize
    } else {
        n.saturating_sub(TAIL_BEYOND).max(n.div_ceil(2))
    };
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: s[rank - 1],
        beyond: n - rank,
        samples: n,
    })
}

/// Latency samples of one kind of operation. A failed or refused
/// operation is recorded as a miss: it counts as slower than any limit,
/// so it sorts after every successful sample.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    ms: Vec<f64>,
    failed: usize,
}

impl Latencies {
    pub fn ok(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    pub fn miss(&mut self) {
        self.ms.push(f64::INFINITY);
        self.failed += 1;
    }

    pub fn extend(&mut self, other: &Latencies) {
        self.ms.extend_from_slice(&other.ms);
        self.failed += other.failed;
    }

    pub fn attempted(&self) -> usize {
        self.ms.len()
    }

    pub fn failed(&self) -> usize {
        self.failed
    }

    pub fn samples(&self) -> &[f64] {
        &self.ms
    }

    pub fn p50(&self) -> Option<f64> {
        median(&self.ms)
    }

    pub fn tail(&self) -> Option<Tail> {
        tail(&self.ms)
    }
}

/// Input rows processed per second of `run_s`, as each workload defines
/// its unit of work.
#[derive(Debug, Clone, Copy)]
pub enum RowsPerPass {
    /// clean_full: every row passes through the pipeline once.
    Pipeline { rows: usize },
    /// profile_edit: one cold profile plus one re-profile per edit.
    Profiles { rows: usize, edits: usize },
    /// iterative_search: every trial cleans and scores the whole table.
    Trials { rows: usize, trials: usize },
    /// serve_jobs: every completed job cleans the session's table.
    Jobs { rows: usize, jobs: usize },
}

impl RowsPerPass {
    pub fn rows(self) -> f64 {
        match self {
            RowsPerPass::Pipeline { rows } => rows as f64,
            RowsPerPass::Profiles { rows, edits } => (rows * (1 + edits)) as f64,
            RowsPerPass::Trials { rows, trials } => (rows * trials) as f64,
            RowsPerPass::Jobs { rows, jobs } => (rows * jobs) as f64,
        }
    }

    pub fn per_second(self, run_s: f64) -> f64 {
        self.rows() / run_s
    }
}

/// Quantile of a cumulative-bucket histogram (`le` upper bounds with the
/// overflow bucket last), interpolated linearly inside the bucket the
/// rank falls in; the overflow bucket reports its lower bound.
pub fn bucket_quantile(bounds: &[f64], counts: &[u64], q: f64) -> Option<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut below = 0u64;
    for (i, &n) in counts.iter().enumerate() {
        if n > 0 && (below + n) as f64 >= rank {
            let lower = if i == 0 { 0.0 } else { bounds[i - 1] };
            let Some(&upper) = bounds.get(i) else {
                return Some(lower);
            };
            return Some(lower + (upper - lower) * (rank - below as f64) / n as f64);
        }
        below += n;
    }
    bounds.last().copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_an_observed_sample() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    }

    #[test]
    fn mean_is_time_per_pass() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        let samples: Vec<f64> = (1..=250).map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!((t.value, t.beyond, t.samples), (225.0, 25, 250));
    }

    #[test]
    fn fewer_samples_report_the_highest_percentile_with_ten_beyond() {
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (75.0, 30.0, 10));
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&samples).unwrap().value, 89.0);
    }

    #[test]
    fn the_tail_never_reads_below_the_median() {
        // 11 samples: rank n-10 would be the fastest sample.
        let samples: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!((t.value, t.beyond), (6.0, 5));
        let t = tail(&[2.0, 7.0, 5.0]).unwrap();
        assert_eq!((t.value, t.beyond), (5.0, 1));
        assert_eq!(tail(&[4.0]).unwrap().value, 4.0);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn failures_count_as_latency_misses() {
        let mut l = Latencies::default();
        for ms in 1..=95 {
            l.ok(f64::from(ms));
        }
        for _ in 0..5 {
            l.miss();
        }
        assert_eq!((l.attempted(), l.failed()), (100, 5));
        // p90 still lands on a success, but the misses pushed it up.
        assert_eq!(l.tail().unwrap().value, 90.0);
        let mut bad = Latencies::default();
        bad.ok(1.0);
        for _ in 0..99 {
            bad.miss();
        }
        assert_eq!(bad.p50(), Some(f64::INFINITY));
        assert_eq!(bad.tail().unwrap().value, f64::INFINITY);
    }

    #[test]
    fn rows_per_second_follows_each_workload_definition() {
        assert_eq!(RowsPerPass::Pipeline { rows: 6000 }.per_second(2.0), 3000.0);
        let edits = RowsPerPass::Profiles {
            rows: 1000,
            edits: 99,
        };
        assert_eq!(edits.per_second(4.0), 25_000.0);
        let trials = RowsPerPass::Trials {
            rows: 2000,
            trials: 100,
        };
        assert_eq!(trials.per_second(10.0), 20_000.0);
        let jobs = RowsPerPass::Jobs {
            rows: 2000,
            jobs: 300,
        };
        assert_eq!(jobs.per_second(3.0), 200_000.0);
    }

    #[test]
    fn bucket_quantile_interpolates_inside_the_bucket() {
        let bounds = [1.0, 5.0, 10.0];
        // 10 samples in (1,5], 10 in (5,10], none overflowing.
        let counts = [0, 10, 10, 0];
        assert_eq!(bucket_quantile(&bounds, &counts, 0.5), Some(5.0));
        assert_eq!(bucket_quantile(&bounds, &counts, 0.25), Some(3.0));
        assert_eq!(bucket_quantile(&bounds, &[0, 0, 0, 4], 0.5), Some(10.0));
        assert_eq!(bucket_quantile(&bounds, &[0, 0, 0, 0], 0.5), None);
    }
}
