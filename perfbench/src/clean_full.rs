//! clean_full: the dashboard's one-click pipeline (the shape of
//! `JobSpec::full`) through `DashboardController` with a workspace, so
//! Delta commits, dataset folders and tracking runs are written.

use std::path::{Path, PathBuf};
use std::time::Instant;

use datalens::engine::StageReport;
use datalens::{DashboardConfig, DashboardController};
use datalens_datasets::DirtyDataset;
use datalens_table::csv::{read_csv_path, CsvOptions};

use crate::metrics::Outcome;
use crate::stats::{mean, median, median_by, Latencies, RowsPerPass};
use crate::trace::Tracer;
use crate::{err, gen, ms_since, peak_rss_mb, repeated_setup, Args, Schedule};

const ROWS: usize = 3_000;
const SETUP_REPS: usize = 9;
const MIN_PASSES: usize = 3;
const MAX_G3_ERROR: f64 = 0.1;
const TOOLS: [&str; 7] = [
    "sd",
    "iqr",
    "mv_detector",
    "fahes",
    "nadeef",
    "katara",
    "isolation_forest",
];
const REPAIRER: &str = "ml_imputer";

struct Input {
    csv: PathBuf,
    csv_bytes: usize,
    truth: DirtyDataset,
}

/// What one pass produced; equal across passes of one seed.
#[derive(Debug, Clone, PartialEq)]
struct PassOutput {
    flagged: usize,
    repaired_cells: usize,
    rules: usize,
    f1: f64,
    repair_accuracy: f64,
    shape_kept: bool,
}

/// The span a controller call's engine stage belongs to.
fn stage_span_name(r: &StageReport) -> String {
    match (r.stage.as_str(), r.detail.as_str()) {
        ("profile", _) => "profile.build".into(),
        ("mine_rules", miner) => format!("fd.{miner}"),
        ("consolidate", _) => "detect.consolidate".into(),
        (stage, "") => format!("core.{stage}"),
        (stage, detail) => format!("{stage}.{detail}"),
    }
}

/// Attach the engine stages a controller call ran as children of its
/// span. Detect stages run on the engine's detect fan-out: the tools
/// are split into contiguous chunks, one per worker thread, each chunk
/// sequential; they are laid out that way so their union is the
/// fan-out's wall time. Stages after the fan-out follow it.
fn attach_stages(tr: &mut Tracer, parent: usize, reports: &[StageReport], threads: usize) {
    let detects: Vec<&StageReport> = reports.iter().filter(|r| r.stage == "detect").collect();
    let mut after = 0.0f64;
    if !detects.is_empty() {
        let per_chunk = detects.len().div_ceil(threads.clamp(1, detects.len()));
        for chunk in detects.chunks(per_chunk) {
            let mut offset = 0.0;
            for r in chunk {
                tr.child(parent, &stage_span_name(r), offset, r.wall_ms);
                offset += r.wall_ms;
            }
            after = after.max(offset);
        }
    }
    for r in reports.iter().filter(|r| r.stage != "detect") {
        tr.child(parent, &stage_span_name(r), after, r.wall_ms);
        after += r.wall_ms;
    }
}

/// One pipeline pass. With a tracer, every controller call is a
/// `core.*` span with its engine stages as children.
fn pass(
    input: &Input,
    ws: &Path,
    mut tr: Option<&mut Tracer>,
) -> Result<(f64, PassOutput), String> {
    let t0 = Instant::now();
    let root = tr.as_mut().map(|t| t.open("pass", None));
    let config = DashboardConfig {
        workspace_dir: Some(ws.to_path_buf()),
        ..DashboardConfig::default()
    };
    // Each step: run it, and on a traced pass wrap it in a span and
    // attach the stage reports it appended.
    macro_rules! step {
        ($ctrl:expr, $name:literal, $call:expr) => {{
            let before = $ctrl.stage_reports().map(|r| r.len()).unwrap_or(0);
            let span = tr.as_mut().map(|t| t.open($name, root));
            let out = $call.map_err(err)?;
            if let (Some(t), Some(span)) = (tr.as_mut(), span) {
                t.close(span);
                let reports = $ctrl.stage_reports().map_err(err)?[before..].to_vec();
                attach_stages(t, span, &reports, $ctrl.engine().effective_threads());
            }
            (out, span)
        }};
    }
    let new_span = tr.as_mut().map(|t| t.open("core.new", root));
    let mut ctrl = DashboardController::new(config).map_err(err)?;
    if let (Some(t), Some(s)) = (tr.as_mut(), new_span) {
        t.close(s);
    }
    let ingest_span = tr.as_mut().map(|t| t.open("core.ingest", root));
    ctrl.ingest_csv_path(&input.csv).map_err(err)?;
    if let (Some(t), Some(s)) = (tr.as_mut(), ingest_span) {
        t.close(s);
    }
    step!(ctrl, "core.profile", ctrl.profile().map(|_| ()));
    let (rules, _) = step!(ctrl, "core.rules", ctrl.discover_rules_approx(MAX_G3_ERROR));
    let (flagged, _) = step!(ctrl, "core.detect", ctrl.run_detection(&TOOLS));
    let (repaired_cells, _) = step!(ctrl, "core.repair", ctrl.repair(REPAIRER));
    step!(ctrl, "core.quality", ctrl.quality());
    step!(ctrl, "core.datasheet", ctrl.generate_datasheet());
    let wall_ms = ms_since(t0);
    if let (Some(t), Some(root)) = (tr.as_mut(), root) {
        t.close(root);
        // The controller's ingest both parses the CSV and writes the
        // dataset folder and first Delta commit; replay the parse alone
        // to split the two.
        let r0 = Instant::now();
        read_csv_path(&input.csv, &CsvOptions::default()).map_err(err)?;
        let parse_ms = ms_since(r0);
        if let Some(s) = ingest_span {
            t.child(s, "table.ingest", 0.0, parse_ms);
        }
    }

    let detections = ctrl.detections().map_err(err)?;
    let repaired = ctrl.repaired_table().map_err(err)?;
    let out = PassOutput {
        flagged,
        repaired_cells,
        rules,
        f1: input.truth.score_detections(&detections.union).f1,
        repair_accuracy: input.truth.repair_accuracy(repaired),
        shape_kept: repaired.shape() == input.truth.dirty.shape(),
    };
    Ok((wall_ms, out))
}

/// The `k`-th table of a run, written where the pipeline ingests it.
fn load_input(seed: u64, k: usize, dir: &Path) -> Result<Input, String> {
    let generated = gen::hospital(gen::sub_seed(seed, k), ROWS);
    let csv = dir.join("hospital.csv");
    std::fs::create_dir_all(dir).map_err(err)?;
    std::fs::write(&csv, &generated.csv).map_err(err)?;
    Ok(Input {
        csv,
        csv_bytes: generated.csv.len(),
        truth: generated.truth,
    })
}

pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let (setup_s, first_input) = repeated_setup(SETUP_REPS, |rep| {
        load_input(args.seed, 0, &dir.join(format!("setup{rep}")))
    })?;

    let mut tracer = Tracer::default();
    let mut schedule = Schedule::new(args, MIN_PASSES);
    let mut untraced = Latencies::default();
    let mut traced_ms = Vec::new();
    let mut outputs = Vec::new();
    let mut rss = None;
    let ws = dir.join("workspace");
    while let Some(traced) = schedule.next_pass() {
        // Passes 0 and 1 both run table 0, so the determinism check rides
        // on timed work; every later pass draws a fresh table.
        let k = outputs.len().saturating_sub(1);
        let input = match k {
            0 => None,
            _ => Some(load_input(args.seed, k, &dir.join(format!("table{k}")))?),
        };
        let input = input.as_ref().unwrap_or(&first_input);
        let result = if traced {
            tracer.next_run();
            pass(input, &ws, Some(&mut tracer))
        } else {
            pass(input, &ws, None)
        };
        std::fs::remove_dir_all(&ws).ok();
        rss = rss.or_else(|| peak_rss_mb("self"));
        match result {
            Ok((ms, out)) => {
                if traced {
                    traced_ms.push(ms);
                } else {
                    untraced.ok(ms);
                }
                o.note(format!(
                    "pass {} (table {k}): {} rules, {} flagged, {} repaired, detect_f1 {:.4}, repair_accuracy {:.4}",
                    outputs.len() + 1,
                    out.rules,
                    out.flagged,
                    out.repaired_cells,
                    out.f1,
                    out.repair_accuracy
                ));
                outputs.push(out);
            }
            Err(e) => {
                o.note(format!("pass {} failed: {e}", k + 1));
                untraced.miss();
                break;
            }
        }
    }
    o.attempted += untraced.attempted() + traced_ms.len();
    o.failed += untraced.failed();

    o.check(
        "detect_f1, repair_accuracy, flagged cells equal on a rerun",
        outputs.len() >= 2 && outputs[0] == outputs[1],
    );
    o.check(
        "repaired tables keep the input shape",
        outputs.iter().all(|p| p.shape_kept),
    );

    o.note(format!("untraced passes (ms): {:.1?}", untraced.samples()));
    let run_ms = mean(untraced.samples()).ok_or("no untraced pass")?;
    let tail = untraced.tail().ok_or("no untraced pass")?;
    o.set("setup_s", setup_s);
    o.set("run_s", run_ms / 1e3);
    o.set(
        "rows_per_s",
        RowsPerPass::Pipeline { rows: ROWS }.per_second(run_ms / 1e3),
    );
    o.set("op_p50_ms", untraced.p50().ok_or("no untraced pass")?);
    o.set("op_p90_ms", tail.value);
    o.set("peak_rss_mb", rss.unwrap_or(0.0));
    o.set("op_samples", tail.samples as f64);
    o.set("op_tail_pct", tail.percentile);
    o.set("detect_f1", median_by(&outputs, |p| p.f1));
    o.set(
        "repair_accuracy",
        median_by(&outputs, |p| p.repair_accuracy),
    );
    o.set(
        "detect.flagged_cells",
        median_by(&outputs, |p| p.flagged as f64),
    );
    o.set(
        "repair.cells",
        median_by(&outputs, |p| p.repaired_cells as f64),
    );
    o.set("fd.rules", median_by(&outputs, |p| p.rules as f64));
    o.note(format!(
        "op = one pipeline pass on a fresh {ROWS}-row table: {} samples, p{:.0} has {} beyond",
        tail.samples, tail.percentile, tail.beyond
    ));

    if args.trace {
        let median_of = |name: &str| median(&tracer.durations(name)).unwrap_or(0.0);
        let ingest_ms = median_of("table.ingest");
        o.set("table.ingest_ms", ingest_ms);
        o.set(
            "table.ingest_mb_per_s",
            first_input.csv_bytes as f64 / 1e6 / (ingest_ms / 1e3),
        );
        o.set("profile.build_ms", median_of("profile.build"));
        o.set("fd.tane_ms", median_of("fd.tane"));
        for tool in TOOLS {
            o.set(
                &format!("detect.{tool}_ms"),
                median_of(&format!("detect.{tool}")),
            );
        }
        o.set("detect.consolidate_ms", median_of("detect.consolidate"));
        o.set("repair.ml_imputer_ms", median_of("repair.ml_imputer"));
        o.set("core.quality_ms", median_of("core.quality"));
        o.set("core.datasheet_ms", median_of("core.datasheet"));
        // Persist: the controller calls' self time, i.e. everything but
        // their engine stages — Delta, tracking and dataset-dir writes.
        let self_times = tracer.self_times();
        let mut persist_per_run = vec![0.0; schedule.traced + 1];
        for (s, st) in tracer.spans().iter().zip(&self_times) {
            if matches!(
                s.name.as_str(),
                "core.new"
                    | "core.ingest"
                    | "core.profile"
                    | "core.rules"
                    | "core.detect"
                    | "core.repair"
            ) {
                persist_per_run[s.run] += st;
            }
        }
        o.set(
            "core.persist_ms",
            median(&persist_per_run[1..]).unwrap_or(0.0),
        );
        crate::report_layers(&mut o, args, &tracer, run_ms, &traced_ms);
    }
    Ok(o)
}
