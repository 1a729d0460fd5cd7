//! profile_edit: the interactive refresh loop. A wide table streamed
//! from CSV gets one cold `Engine::profile`, then single-cell edits
//! (`Table::set`), each followed by `Engine::profile` on the engine's
//! shared `ProfileCache`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use datalens::engine::{Engine, EngineConfig};
use datalens_profile::alerts::scan;
use datalens_profile::correlation::correlation_matrix;
use datalens_profile::stats::{categorical_stats, numeric_stats_chunked};
use datalens_profile::{CacheStats, CorrelationKind, Histogram, ProfileConfig, ProfileReport};
use datalens_table::csv::{read_csv_path, CsvOptions};
use datalens_table::{CellRef, Table, Value};

use crate::gen::{self, Rng, WIDE_NUMERIC, WIDE_STRING};
use crate::metrics::Outcome;
use crate::stats::{mean, median, Latencies, RowsPerPass};
use crate::trace::Tracer;
use crate::{err, ms_since, peak_rss_mb, repeated_setup, Args, Schedule};

const ROWS: usize = 6_000;
const EDITS: usize = 100;
const SETUP_REPS: usize = 9;

struct Input {
    csv: PathBuf,
    csv_bytes: usize,
    edits: Vec<(CellRef, Value)>,
    /// The edit after which the warm report is checked against a cold
    /// build.
    check_after: usize,
}

struct PassOutput {
    wall_ms: f64,
    ops: Latencies,
    cache: CacheStats,
    /// Whether the warm report after the sampled edit serialized
    /// byte-identical to a cold build (`None`: not checked this pass).
    identical: Option<bool>,
    table: Table,
}

fn setup(seed: u64, dir: &Path) -> Result<Input, String> {
    let text = gen::wide_csv(seed, ROWS);
    let csv = dir.join("wide.csv");
    std::fs::create_dir_all(dir).map_err(err)?;
    std::fs::write(&csv, &text).map_err(err)?;
    let mut rng = Rng::new(seed.rotate_left(17) ^ 0xED17);
    let edits = (0..EDITS)
        .map(|_| {
            let col = rng.below(WIDE_NUMERIC + WIDE_STRING);
            let cell = CellRef::new(rng.below(ROWS), col);
            (cell, gen::wide_edit_value(&mut rng, col))
        })
        .collect();
    Ok(Input {
        csv,
        csv_bytes: text.len(),
        edits,
        check_after: rng.below(EDITS),
    })
}

/// Time `f` into `*total`, and into a span when tracing.
fn timed<R>(
    tr: &mut Option<&mut Tracer>,
    total: &mut f64,
    name: &str,
    parent: Option<usize>,
    f: impl FnOnce() -> R,
) -> R {
    let span = tr.as_mut().map(|t| t.open(name, parent));
    let t0 = Instant::now();
    let out = f();
    let ms = ms_since(t0);
    if let (Some(t), Some(s)) = (tr.as_mut(), span) {
        t.close(s);
    }
    *total += ms;
    out
}

fn pass(input: &Input, check: bool, mut tr: Option<&mut Tracer>) -> Result<PassOutput, String> {
    let root = tr.as_mut().map(|t| t.open("pass", None));
    let mut wall_ms = 0.0;
    let table = timed(&mut tr, &mut wall_ms, "table.ingest", root, || {
        read_csv_path(&input.csv, &CsvOptions::default())
    });
    let mut table = table.map_err(err)?;
    let engine = Engine::new(EngineConfig::default());
    timed(&mut tr, &mut wall_ms, "profile.cold", root, || {
        engine.profile(&table)
    });
    let mut ops = Latencies::default();
    let mut identical = None;
    for (i, (cell, value)) in input.edits.iter().enumerate() {
        let mut op_ms = 0.0;
        let set = timed(&mut tr, &mut op_ms, "table.set", root, || {
            table.set(*cell, value.clone())
        });
        set.map_err(err)?;
        let (warm, _) = timed(&mut tr, &mut op_ms, "profile.edit", root, || {
            engine.profile(&table)
        });
        ops.ok(op_ms);
        wall_ms += op_ms;
        if check && i == input.check_after {
            let cold = ProfileReport::build(&table, &ProfileConfig::default());
            identical = Some(
                serde_json::to_string(&warm).map_err(err)?
                    == serde_json::to_string(&cold).map_err(err)?,
            );
        }
    }
    // Only the first pass, which is never traced, runs the check, so a
    // traced root span holds timed work only.
    if let (Some(t), Some(root)) = (tr.as_mut(), root) {
        t.close(root);
    }
    Ok(PassOutput {
        wall_ms,
        ops,
        cache: engine.profile_cache().stats(),
        identical,
        table,
    })
}

/// The profile sub-phases, each one public function replayed over the
/// whole table, and the sequential build they are shares of.
const PHASES: [&str; 8] = [
    "profile.numeric_stats",
    "profile.categorical_stats",
    "profile.histogram",
    "profile.pearson",
    "profile.spearman",
    "profile.cramers_v",
    "profile.alerts",
    "profile.sequential_build",
];

/// Replay each public profiling function once over `table`,
/// sequentially, as spans under a `replay` root in a traced run of its
/// own.
fn replay_phases(tr: &mut Tracer, table: &Table) {
    tr.next_run();
    let root = tr.open("replay", None);
    let config = ProfileConfig::default();
    let numeric: Vec<_> = table
        .columns()
        .iter()
        .filter(|c| c.dtype().is_numeric())
        .collect();
    for phase in PHASES {
        let span = tr.open(phase, Some(root));
        match phase {
            "profile.numeric_stats" => {
                for c in &numeric {
                    std::hint::black_box(numeric_stats_chunked(c, None));
                }
            }
            "profile.categorical_stats" => {
                for c in table.columns() {
                    std::hint::black_box(categorical_stats(c, config.top_k));
                }
            }
            "profile.histogram" => {
                for c in &numeric {
                    std::hint::black_box(Histogram::build(
                        &c.numeric_values(),
                        config.histogram_bins,
                    ));
                }
            }
            "profile.pearson" => {
                std::hint::black_box(correlation_matrix(table, CorrelationKind::Pearson));
            }
            "profile.spearman" => {
                std::hint::black_box(correlation_matrix(table, CorrelationKind::Spearman));
            }
            "profile.cramers_v" => {
                std::hint::black_box(correlation_matrix(table, CorrelationKind::CramersV));
            }
            "profile.alerts" => {
                std::hint::black_box(scan(table, &config.alerts));
            }
            _ => {
                std::hint::black_box(ProfileReport::build(table, &config));
            }
        }
        tr.close(span);
    }
    tr.close(root);
}

pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let (setup_s, input) = repeated_setup(SETUP_REPS, |rep| {
        setup(args.seed, &dir.join(format!("setup{rep}")))
    })?;

    let mut tracer = Tracer::default();
    let mut schedule = Schedule::new(args, 1);
    let mut ops = Latencies::default();
    let mut pass_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut last = None;
    let mut rss = None;
    while let Some(traced) = schedule.next_pass() {
        let check = last.is_none();
        let out = if traced {
            tracer.next_run();
            pass(&input, check, Some(&mut tracer))?
        } else {
            pass(&input, check, None)?
        };
        rss = rss.or_else(|| peak_rss_mb("self"));
        if traced {
            traced_ms.push(out.wall_ms);
        } else {
            pass_ms.push(out.wall_ms);
            ops.extend(&out.ops);
        }
        if let Some(identical) = out.identical {
            o.check(
                &format!(
                    "warm report after edit {} == cold ProfileReport::build",
                    input.check_after + 1
                ),
                identical,
            );
        }
        last = Some(out);
    }
    let last = last.ok_or("no pass completed")?;
    o.attempted += ops.attempted();
    o.failed += ops.failed();
    o.check(
        "edited table keeps its shape",
        last.table.shape() == (ROWS, WIDE_NUMERIC + WIDE_STRING),
    );

    let run_ms = mean(&pass_ms).ok_or("no untraced pass")?;
    let tail = ops.tail().ok_or("no edits")?;
    o.set("setup_s", setup_s);
    o.set("run_s", run_ms / 1e3);
    o.set(
        "rows_per_s",
        RowsPerPass::Profiles {
            rows: ROWS,
            edits: EDITS,
        }
        .per_second(run_ms / 1e3),
    );
    o.set("op_p50_ms", ops.p50().ok_or("no edits")?);
    o.set("op_p90_ms", tail.value);
    o.set("peak_rss_mb", rss.unwrap_or(0.0));
    o.set("op_samples", tail.samples as f64);
    o.set("op_tail_pct", tail.percentile);
    o.note(format!(
        "op = one edit + refreshed profile: {} samples, p{:.0} has {} beyond",
        tail.samples, tail.percentile, tail.beyond
    ));

    if args.trace {
        let median_of = |name: &str| median(&tracer.durations(name)).unwrap_or(0.0);
        let ingest_ms = median_of("table.ingest");
        o.set("table.ingest_ms", ingest_ms);
        o.set(
            "table.ingest_mb_per_s",
            input.csv_bytes as f64 / 1e6 / (ingest_ms / 1e3),
        );
        o.set("profile.cold_ms", median_of("profile.cold"));
        o.set("profile.edit_ms", median_of("profile.edit"));
        let c = last.cache;
        o.set(
            "profile.cache_hit_ratio",
            c.hits() as f64 / (c.hits() + c.misses()).max(1) as f64,
        );
        o.set("profile.cache_misses", c.misses() as f64);
        o.set("profile.chunk_misses", c.chunk_misses as f64);
        o.note(format!(
            "profile cache after one pass: {} hits, {} misses ({} column, {} pair, {} chunk)",
            c.hits(),
            c.misses(),
            c.column_misses,
            c.pair_misses,
            c.chunk_misses
        ));
        let table = read_csv_path(&input.csv, &CsvOptions::default()).map_err(err)?;
        replay_phases(&mut tracer, &table);
        let phase_ms = |name: &str| median(&tracer.durations(name)).unwrap_or(f64::NAN);
        let build_ms = phase_ms("profile.sequential_build");
        o.note(format!(
            "profile sub-phases, sequential replay spans on the {ROWS}-row workload table:"
        ));
        for name in PHASES {
            let ms = phase_ms(name);
            o.note(format!(
                "  {:<28} {:>10.2} ms {:>6.1}% of the sequential build",
                name,
                ms,
                100.0 * ms / build_ms
            ));
            if name != "profile.sequential_build" {
                o.set(&format!("{name}_ms"), ms);
            }
        }
        o.note("  (profile.alerts times the public alerts::scan, which makes its own column pass and Pearson matrix)");
        crate::report_layers(&mut o, args, &tracer, run_ms, &traced_ms);
    }
    Ok(o)
}
