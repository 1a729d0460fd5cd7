//! iterative_search: the paper's iterative cleaning module — a search
//! over (detector, repairer) pairs scored by a downstream classifier,
//! via `run_iterative_cleaning`, on a fresh table every pass.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use datalens::iterative::{
    clean_and_score, default_search_detectors, run_iterative_cleaning, train_and_score,
    IterativeCleaningConfig, IterativeCleaningReport, SamplerKind,
};
use datalens_datasets::beers;
use datalens_detect::{detector_by_name, DetectionContext};
use datalens_fd::RuleSet;
use datalens_optimize::{Direction, RandomSampler, SearchSpace, Study};
use datalens_repair::{repairer_by_name, RepairContext, REPAIRER_NAMES};
use datalens_table::csv::{read_csv_path, CsvOptions};
use datalens_table::Table;

use crate::metrics::Outcome;
use crate::stats::{mean, median, median_by, Latencies, RowsPerPass};
use crate::trace::Tracer;
use crate::{err, gen, ms_since, peak_rss_mb, repeated_setup, Args, Schedule};

const ROWS: usize = 2_000;
const ITERATIONS: usize = 100;
const SETUP_REPS: usize = 9;
/// Each pass searches a fresh table drawn from the same distribution.
const MIN_PASSES: usize = 2;

/// The product's search over its default candidate tools, driven by the
/// seeded random sampler. TPE's path follows the scores, so one table's
/// search cost swings several-fold with whichever pair TPE exploits;
/// the random sampler asks the same pair sequence on every table, so a
/// pass measures the layers rather than the path.
fn config() -> IterativeCleaningConfig {
    IterativeCleaningConfig {
        iterations: ITERATIONS,
        sampler: SamplerKind::Random,
        ..IterativeCleaningConfig::new(beers::TARGET, gen::BEERS_TASK)
    }
}

/// Replayed cost of each layer a trial passes through, per distinct
/// tool or pair, on the workload table.
#[derive(Default)]
struct Replays {
    detect_ms: BTreeMap<String, f64>,
    repair_ms: BTreeMap<(String, String), f64>,
    train_ms: BTreeMap<(String, String), f64>,
    baseline_train_ms: f64,
    /// One `ask` + `tell` per recorded trial, on a fresh study.
    sampler_ms: Vec<f64>,
    sampler_reproduced: bool,
}

fn replay(
    table: &Table,
    report: &IterativeCleaningReport,
    cfg: &IterativeCleaningConfig,
) -> Result<Replays, String> {
    let rules = RuleSet::new();
    let mut r = Replays::default();
    let t0 = Instant::now();
    train_and_score(table, &cfg.target, cfg.task, cfg.test_fraction, cfg.seed).map_err(err)?;
    r.baseline_train_ms = ms_since(t0);
    let target = table.column_index(&cfg.target);
    for t in &report.trials {
        let pair = (t.detector.clone(), t.repairer.clone());
        if r.train_ms.contains_key(&pair) {
            continue;
        }
        let det = detector_by_name(&t.detector).ok_or("unknown detector")?;
        let ctx = DetectionContext {
            rules: rules.clone(),
            tagged_values: Vec::new(),
            seed: cfg.seed,
        };
        let t0 = Instant::now();
        let mut detection = det.detect(table, &ctx);
        r.detect_ms
            .entry(t.detector.clone())
            .or_insert(ms_since(t0));
        detection.cells.retain(|c| Some(c.col) != target);
        let rep = repairer_by_name(&t.repairer).ok_or("unknown repairer")?;
        let t0 = Instant::now();
        let repaired = rep
            .repair(
                table,
                &detection.cells,
                &RepairContext {
                    rules: rules.clone(),
                    seed: cfg.seed,
                },
            )
            .table;
        r.repair_ms.insert(pair.clone(), ms_since(t0));
        let t0 = Instant::now();
        // A trial whose table cannot be scored keeps its failure score;
        // the replay only needs the time.
        let _ = train_and_score(
            &repaired,
            &cfg.target,
            cfg.task,
            cfg.test_fraction,
            cfg.seed,
        );
        r.train_ms.insert(pair, ms_since(t0));
    }
    let detectors = default_search_detectors();
    let repairers: Vec<String> = REPAIRER_NAMES.iter().map(|s| s.to_string()).collect();
    let space = SearchSpace::new()
        .categorical("detector", detectors)
        .categorical("repairer", repairers);
    let mut study = Study::new(
        Direction::Maximize,
        space,
        Box::new(RandomSampler::new(cfg.seed)),
    );
    r.sampler_reproduced = true;
    for t in &report.trials {
        let t0 = Instant::now();
        let trial = study.ask();
        study.tell(trial.id, t.score);
        r.sampler_ms.push(ms_since(t0));
        let asked = |k: &str| {
            trial
                .params
                .get(k)
                .and_then(|v| v.as_str())
                .map(str::to_string)
        };
        r.sampler_reproduced &= asked("detector").as_deref() == Some(t.detector.as_str())
            && asked("repairer").as_deref() == Some(t.repairer.as_str());
    }
    Ok(r)
}

/// Attach replayed layer costs, trial by trial in search order, as
/// children of the traced `run_iterative_cleaning` span.
fn attach(tr: &mut Tracer, call: usize, report: &IterativeCleaningReport, r: &Replays) {
    let mut at = 0.0;
    let mut push = |tr: &mut Tracer, name: &str, ms: f64| {
        tr.child(call, name, at, ms);
        at += ms;
    };
    push(tr, "ml.train_score", r.baseline_train_ms);
    for (i, t) in report.trials.iter().enumerate() {
        let pair = (t.detector.clone(), t.repairer.clone());
        push(tr, "optimize.sampler", r.sampler_ms[i]);
        push(
            tr,
            &format!("detect.{}", t.detector),
            r.detect_ms[&t.detector],
        );
        push(tr, &format!("repair.{}", t.repairer), r.repair_ms[&pair]);
        push(tr, "ml.train_score", r.train_ms[&pair]);
    }
}

/// The `k`-th search table of a run, written as CSV and read back: the
/// program only ever sees the CSV.
fn load_table(seed: u64, k: usize, dir: &Path) -> Result<Table, String> {
    let generated = gen::beers(gen::sub_seed(seed, k), ROWS);
    let csv = dir.join("beers.csv");
    std::fs::create_dir_all(dir).map_err(err)?;
    std::fs::write(&csv, &generated.csv).map_err(err)?;
    read_csv_path(&csv, &CsvOptions::default()).map_err(err)
}

pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let (setup_s, first_table) = repeated_setup(SETUP_REPS, |rep| {
        load_table(args.seed, 0, &dir.join(format!("setup{rep}")))
    })?;
    let cfg = config();
    let rules = RuleSet::new();

    let mut tracer = Tracer::default();
    let mut schedule = Schedule::new(args, MIN_PASSES);
    let mut untraced = Latencies::default();
    let mut traced_ms = Vec::new();
    let mut reports = Vec::new();
    let mut rss = None;
    let mut table = first_table.clone();
    while let Some(traced) = schedule.next_pass() {
        let k = reports.len();
        if k > 0 {
            table = load_table(args.seed, k, &dir.join(format!("table{k}")))?;
        }
        let (root, call) = if traced {
            tracer.next_run();
            let root = tracer.open("pass", None);
            (Some(root), Some(tracer.open("core.iterative", Some(root))))
        } else {
            (None, None)
        };
        let t0 = Instant::now();
        let result = run_iterative_cleaning(&table, &rules, &cfg, None);
        let ms = ms_since(t0);
        if let (Some(root), Some(call)) = (root, call) {
            tracer.close(call);
            tracer.close(root);
        }
        rss = rss.or_else(|| peak_rss_mb("self"));
        match result {
            Ok(report) => {
                if traced {
                    traced_ms.push(ms);
                } else {
                    untraced.ok(ms);
                }
                if let Some(call) = call {
                    let replays = replay(&table, &report, &cfg)?;
                    attach(&mut tracer, call, &report, &replays);
                    set_replay_metrics(&mut o, &replays);
                }
                reports.push(report);
            }
            Err(e) => {
                o.note(format!("search failed: {e}"));
                untraced.miss();
                break;
            }
        }
    }
    o.attempted += untraced.attempted() + traced_ms.len();
    o.failed += untraced.failed();

    let first = reports.first().ok_or("no search completed")?;
    let best = &first.best;
    let rescored =
        clean_and_score(&first_table, &rules, &best.detector, &best.repairer, &cfg).map_err(err)?;
    o.check(
        "best score == clean_and_score of the best pair",
        rescored == best.score,
    );
    let distinct = |r: &IterativeCleaningReport| {
        let pairs: std::collections::BTreeSet<_> = r
            .trials
            .iter()
            .map(|t| (&t.detector, &t.repairer))
            .collect();
        pairs.len() as f64 / r.iterations_run.max(1) as f64
    };
    for (k, r) in reports.iter().enumerate() {
        o.note(format!(
            "table {k}: {} trials, {:.0}% distinct pairs, best {}+{} macro-F1 {:.4} (dirty {:.4})",
            r.iterations_run,
            100.0 * distinct(r),
            r.best.detector,
            r.best.repairer,
            r.best.score,
            r.dirty_baseline
        ));
    }

    o.note(format!("untraced passes (ms): {:.1?}", untraced.samples()));
    let run_ms = mean(untraced.samples()).ok_or("no untraced pass")?;
    let tail = untraced.tail().ok_or("no untraced pass")?;
    o.set("setup_s", setup_s);
    o.set("run_s", run_ms / 1e3);
    o.set(
        "rows_per_s",
        RowsPerPass::Trials {
            rows: ROWS,
            trials: ITERATIONS,
        }
        .per_second(run_ms / 1e3),
    );
    o.set("op_p50_ms", untraced.p50().ok_or("no untraced pass")?);
    o.set("op_p90_ms", tail.value);
    o.set("peak_rss_mb", rss.unwrap_or(0.0));
    o.set("op_samples", tail.samples as f64);
    o.set("op_tail_pct", tail.percentile);
    o.set("model_score", median_by(&reports, |r| r.best.score));
    o.set(
        "optimize.trials",
        median_by(&reports, |r| r.iterations_run as f64),
    );
    o.set("optimize.distinct_ratio", median_by(&reports, distinct));
    o.note(format!(
        "op = one {ITERATIONS}-trial search on a fresh {ROWS}-row table: {} samples, p{:.0} has {} beyond",
        tail.samples, tail.percentile, tail.beyond
    ));
    if args.trace {
        crate::report_layers(&mut o, args, &tracer, run_ms, &traced_ms);
    }
    Ok(o)
}

fn set_replay_metrics(o: &mut Outcome, r: &Replays) {
    for (tool, ms) in &r.detect_ms {
        o.set(&format!("detect.{tool}_ms"), *ms);
    }
    let mut by_repairer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for ((_, repairer), ms) in &r.repair_ms {
        by_repairer.entry(repairer).or_default().push(*ms);
    }
    for (repairer, ms) in by_repairer {
        o.set(&format!("repair.{repairer}_ms"), median(&ms).unwrap_or(0.0));
    }
    let train: Vec<f64> = r.train_ms.values().copied().collect();
    o.set("ml.train_score_ms", median(&train).unwrap_or(0.0));
    o.set("optimize.sampler_ms", median(&r.sampler_ms).unwrap_or(0.0));
    o.note(format!(
        "replay: {} distinct pairs; a fresh random-sampler study fed the recorded scores {} the search's asks",
        r.train_ms.len(),
        if r.sampler_reproduced { "reproduces" } else { "does NOT reproduce" }
    ));
}
