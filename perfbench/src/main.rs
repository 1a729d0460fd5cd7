//! DataLens benchmark: four workloads, end-to-end metrics on untraced
//! runs and per-layer attribution on traced runs.
//!
//! ```text
//! perfbench --workload <clean_full|profile_edit|iterative_search|serve_jobs>
//!           --seed N --seconds S --trace 0|1
//!           [--datalens PATH] [--work-dir DIR]
//! ```
//!
//! Prints a human-readable report, then one JSON result line. Exits 1
//! when an operation or a correctness check failed.

mod clean_full;
mod gen;
mod iterative_search;
mod metrics;
mod profile_edit;
mod serve_jobs;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{Outcome, END_TO_END, PER_LAYER, WORKLOAD_RESULTS};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `datalens` binary serve_jobs starts as a child process.
    pub datalens: PathBuf,
    /// Scratch directory for generated inputs, workspaces and traces.
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |key: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let parse = |key: &str, default: &str| -> Result<f64, String> {
        flag(key)
            .unwrap_or(default)
            .parse::<f64>()
            .map_err(|_| format!("{key} expects a number"))
    };
    let workload = flag("--workload")
        .ok_or("--workload is required")?
        .to_string();
    let seed = flag("--seed")
        .map(|s| s.parse::<u64>().map_err(|_| "--seed expects an integer"))
        .transpose()?
        .unwrap_or(gen::DEFAULT_SEED);
    Ok(Args {
        workload,
        seed,
        seconds: parse("--seconds", "25")?,
        trace: parse("--trace", "0")? != 0.0,
        datalens: PathBuf::from(flag("--datalens").unwrap_or("target/release/datalens")),
        work_dir: PathBuf::from(flag("--work-dir").unwrap_or("target/perfbench-work")),
    })
}

/// Decides, pass by pass, whether to run another pass and whether it is
/// traced. Untraced passes run until `seconds` have elapsed and at least
/// `min_passes` are done; on a traced run, traced and untraced passes
/// alternate (starting untraced) so the tracing overhead compares like
/// with like.
pub struct Schedule {
    start: Instant,
    budget: Duration,
    min_passes: usize,
    traced_run: bool,
    untraced: usize,
    pub traced: usize,
}

impl Schedule {
    pub fn new(args: &Args, min_passes: usize) -> Schedule {
        Schedule {
            start: Instant::now(),
            budget: Duration::from_secs_f64(args.seconds.max(0.0)),
            min_passes: min_passes.max(1),
            traced_run: args.trace,
            untraced: 0,
            traced: 0,
        }
    }

    /// `Some(traced?)` for the next pass, `None` when done.
    pub fn next_pass(&mut self) -> Option<bool> {
        let time_left = self.start.elapsed() < self.budget;
        let enough = self.untraced >= self.min_passes && (!self.traced_run || self.traced >= 1);
        if enough && !time_left {
            return None;
        }
        let traced = self.traced_run && self.traced < self.untraced;
        if traced {
            self.traced += 1;
        } else {
            self.untraced += 1;
        }
        Some(traced)
    }
}

/// Run `f` `reps` times and return the median wall time in seconds with
/// the last repetition's output (set-up is repeated so its time is a
/// median, not one sample).
pub fn repeated_setup<T>(
    reps: usize,
    mut f: impl FnMut(usize) -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps.max(1) {
        let t0 = Instant::now();
        let out = f(rep)?;
        times.push(t0.elapsed().as_secs_f64());
        // Replacing drops the previous repetition's state (a server, a
        // directory handle) outside the timed region.
        last = Some(out);
    }
    let median = stats::median(&times).unwrap_or(0.0);
    Ok((median, last.expect("at least one repetition")))
}

/// Peak resident set size (VmHWM) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Error-to-message conversion for `map_err`.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Layers with a `share.<layer>_pct` metric. Spans of the serving
/// layers seen from the client (`sse`, `health`, `jobs`) count as `rest`;
/// the benchmark's own `pass` spans are the unattributed remainder.
const SHARE_LAYERS: [&str; 9] = [
    "table", "profile", "fd", "detect", "repair", "ml", "optimize", "core", "rest",
];

/// Per-layer self time and share of the traced passes, coverage and
/// tracing overhead; writes the spans out.
pub fn report_layers(
    o: &mut Outcome,
    args: &Args,
    tracer: &trace::Tracer,
    untraced_ms: f64,
    traced_ms: &[f64],
) {
    // Traced passes are the runs rooted at a `pass` span; replays have
    // roots of their own and are not part of any pass.
    let runs: std::collections::BTreeSet<usize> = tracer
        .spans()
        .iter()
        .filter(|s| s.parent.is_none() && s.name == "pass")
        .map(|s| s.run)
        .collect();
    let mut per_layer: std::collections::BTreeMap<String, (Vec<f64>, Vec<f64>)> =
        Default::default();
    for &run in &runs {
        let pass_ms: f64 = tracer
            .spans()
            .iter()
            .filter(|s| s.run == run && s.parent.is_none() && s.name == "pass")
            .map(trace::Span::dur_ms)
            .sum();
        let mut folded: std::collections::BTreeMap<String, f64> = Default::default();
        for (layer, ms) in tracer.layer_self_ms(&[run]) {
            let layer = match layer.as_str() {
                "sse" | "health" | "jobs" => "rest".to_string(),
                _ => layer,
            };
            *folded.entry(layer).or_insert(0.0) += ms;
        }
        for (layer, ms) in folded {
            let entry = per_layer.entry(layer).or_default();
            entry.0.push(ms);
            entry.1.push(100.0 * ms / pass_ms);
        }
    }
    o.note(format!(
        "{:<10} {:>12} {:>8}   (median over {} traced passes)",
        "layer",
        "self ms",
        "share",
        runs.len()
    ));
    for (layer, (ms, share)) in &per_layer {
        let share = stats::median(share).unwrap_or(0.0);
        o.note(format!(
            "{:<10} {:>12.2} {:>7.2}%",
            layer,
            stats::median(ms).unwrap_or(0.0),
            share
        ));
        if SHARE_LAYERS.contains(&layer.as_str()) {
            o.set(&format!("share.{layer}_pct"), share);
        }
    }
    let unattributed = per_layer
        .get("pass")
        .and_then(|(_, share)| stats::median(share))
        .unwrap_or(0.0);
    o.set("trace.coverage_pct", 100.0 - unattributed);
    let overhead = 100.0 * (stats::mean(traced_ms).unwrap_or(untraced_ms) / untraced_ms - 1.0);
    o.set("trace.overhead_pct", overhead);
    o.note(format!(
        "named layers cover {:.2}% of the traced pass; tracing overhead {:+.2}%",
        100.0 - unattributed,
        overhead
    ));
    let path = args
        .work_dir
        .join("traces")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => o.note(format!("spans written to {}", path.display())),
        Err(e) => o.note(format!("could not write spans to {}: {e}", path.display())),
    }
}

/// Removes the per-process scratch directory on every exit path.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "clean_full" => clean_full::run(args, dir),
        "profile_edit" => profile_edit::run(args, dir),
        "iterative_search" => iterative_search::run(args, dir),
        "serve_jobs" => serve_jobs::run(args, dir),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = ScratchDir(args.work_dir.join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.0.display());
        return ExitCode::from(2);
    }
    let mut outcome = match run(&args, &scratch.0) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let fail_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.set("fail_ratio", fail_ratio);
    println!(
        "== {} seed {} ({} run, {} s budget) ==",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        args.seconds
    );
    for line in &outcome.notes {
        println!("{line}");
    }
    let results = WORKLOAD_RESULTS
        .iter()
        .filter_map(|n| PER_LAYER.iter().find(|d| d.name == *n));
    for d in END_TO_END.iter().filter(|_| !args.trace).chain(results) {
        if let Some(v) = outcome.values.get(d.name) {
            println!(
                "{:<16} {:>14.4} {:<5} ({} is better)",
                d.name, v, d.unit, d.better
            );
        }
    }
    match outcome.result_json(args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
