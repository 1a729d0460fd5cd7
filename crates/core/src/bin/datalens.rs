//! The DataLens command-line interface: the dashboard's pipeline as
//! terminal subcommands over CSV files.
//!
//! ```text
//! datalens datasets                               list preloaded datasets
//! datalens profile  <file.csv>                    Data Profile tab
//! datalens rules    <file.csv> [--approx G3]      FD discovery (TANE)
//! datalens detect   <file.csv> --tools sd,iqr     run detectors (+ --tag V, --rule "a -> b")
//! datalens repair   <file.csv> --tools sd,iqr --repairer ml_imputer [-o out.csv]
//! datalens dashboard <file.csv> [--tools ...]     render all four tabs
//! datalens serve    [--seed N] [--workers N] [--queue-depth N] [--workspace DIR]
//!                   [--port N] [--http-workers N]
//!                                                 REST tool + job service (Ctrl-C to stop)
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use datalens::controller::{DashboardConfig, DashboardController, RuleMiner};
use datalens::dashboard::{render_dashboard, render_tab, Tab};
use datalens::jobs::rest::job_service_router;
use datalens::jobs::{JobService, JobServiceConfig};
use datalens::service::tool_service_router;
use datalens_health::HealthThresholds;
use datalens_obs::Registry;
use datalens_rest::{metrics_router, Server, ServerConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd {
        "datasets" => cmd_datasets(),
        "profile" => cmd_profile(&args[1..]),
        "rules" => cmd_rules(&args[1..]),
        "detect" => cmd_detect(&args[1..], false),
        "repair" => cmd_detect(&args[1..], true),
        "dashboard" => cmd_dashboard(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: datalens <datasets|profile|rules|detect|repair|dashboard|serve> [args]
  datalens profile data.csv
  datalens rules data.csv --approx 0.1
  datalens detect data.csv --tools sd,iqr,mv_detector --tag -1 --rule 'zip -> city'
  datalens repair data.csv --tools sd,mv_detector --repairer ml_imputer -o repaired.csv
  datalens dashboard data.csv --tools sd,mv_detector
  datalens serve --seed 0 --workers 4 --queue-depth 32
serve flags:  --workers N      job-service worker pool size (default 4)
              --queue-depth N  bounded job queue capacity (default 32)
              --workspace DIR  persist sessions + tracking runs under DIR
              --port N         listen port (default 0 = ephemeral)
              --http-workers N connection worker-pool size (default 8)
              --max-streams N  concurrent SSE streams cap (default 32;
                            GET /jobs/{id}/events and GET /alerts/events)
health gate:  --degraded-queue-ratio R  queue fill ratio reported degraded (0.5)
              --hold-queue-ratio R      queue fill ratio that holds admissions (1.0)
              --hold-failure-streak N   consecutive failures that hold (5)
              --hold-stream-ratio R     SSE lane fill ratio that holds (1.0)
                            verdict + evidence at GET /health; while the
                            gate holds, submits shed with 429 + Retry-After
common flags: --seed N   seed for stochastic tools
              --threads N   detect/profile fan-out threads (0 = one per core;
                            serve default 1 to keep per-job work single-threaded)";

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn flag_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn flag_values(args: &[String], key: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == key {
            if let Some(v) = args.get(i + 1) {
                out.push(v.clone());
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

/// The value of `key` parsed as `T`: `None` when the flag is absent, an
/// error naming the flag when its value does not parse.
fn parsed_flag<T: std::str::FromStr>(
    args: &[String],
    key: &str,
) -> Result<Option<T>, Box<dyn std::error::Error>> {
    flag_value(args, key)
        .map(|v| v.parse().map_err(|_| format!("invalid {key} {v:?}").into()))
        .transpose()
}

fn positional(args: &[String]) -> Option<&String> {
    // First argument that is not a flag or a flag's value.
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a.starts_with("--") || a.starts_with('-') && a.len() > 1 && !a.ends_with(".csv") {
            skip_next = true;
            continue;
        }
        return Some(a);
    }
    None
}

/// Build a controller with the file (or preloaded dataset name) loaded.
fn load(args: &[String]) -> Result<DashboardController, Box<dyn std::error::Error>> {
    let input = positional(args).ok_or("missing input file or dataset name")?;
    let seed = parsed_flag(args, "--seed")?.unwrap_or(0);
    let threads = parsed_flag(args, "--threads")?.unwrap_or(0);
    let mut dash = DashboardController::new(DashboardConfig {
        workspace_dir: None,
        seed,
        threads,
        ..Default::default()
    })?;
    if input.ends_with(".csv") {
        // Streams the file in row-group batches — never holds the
        // whole CSV in memory, so larger-than-RAM inputs work.
        dash.ingest_csv_path(input)?;
    } else {
        dash.ingest_preloaded(input)?;
    }
    Ok(dash)
}

fn cmd_datasets() -> CliResult {
    println!("preloaded datasets:");
    for d in datalens_datasets::catalog() {
        println!(
            "  {:<6} target={:<16} {:?}  — {}",
            d.name, d.target, d.task, d.description
        );
    }
    Ok(())
}

fn cmd_profile(args: &[String]) -> CliResult {
    let mut dash = load(args)?;
    print!("{}", render_tab(&mut dash, Tab::DataProfile)?);
    Ok(())
}

fn cmd_rules(args: &[String]) -> CliResult {
    let mut dash = load(args)?;
    let added = match parsed_flag(args, "--approx")? {
        Some(g3) => dash.discover_rules_approx(g3)?,
        None => dash.discover_rules(RuleMiner::Tane)?,
    };
    println!("discovered {added} rules:");
    for r in dash.rules()?.rules() {
        println!("  {}  (g3 {:.4}, {:?})", r.fd, r.g3_error, r.provenance);
    }
    Ok(())
}

fn setup_detection(
    dash: &mut DashboardController,
    args: &[String],
) -> Result<Vec<String>, Box<dyn std::error::Error>> {
    for tag in flag_values(args, "--tag") {
        dash.tag_value(tag)?;
    }
    for rule in flag_values(args, "--rule") {
        dash.add_rule_from_text(&rule)?;
    }
    let tools: Vec<String> = flag_value(args, "--tools")
        .unwrap_or_else(|| "sd,iqr,mv_detector,fahes".to_string())
        .split(',')
        .map(str::to_string)
        .collect();
    let tool_refs: Vec<&str> = tools.iter().map(String::as_str).collect();
    dash.run_detection(&tool_refs)?;
    Ok(tools)
}

fn cmd_detect(args: &[String], and_repair: bool) -> CliResult {
    let mut dash = load(args)?;
    setup_detection(&mut dash, args)?;
    print!("{}", render_tab(&mut dash, Tab::DetectionResults)?);
    if and_repair {
        let repairer = flag_value(args, "--repairer").unwrap_or_else(|| "ml_imputer".into());
        let n = dash.repair(&repairer)?;
        println!("\nrepaired {n} cells with {repairer}");
        if let Some(out) = flag_value(args, "-o").or_else(|| flag_value(args, "--output")) {
            datalens_table::csv::write_csv_path(dash.repaired_table()?, &out)?;
            println!("wrote {out}");
        } else {
            print!("{}", dash.repaired_table()?.head(10));
        }
    }
    print!(
        "\n{}",
        datalens::engine::render_stage_reports(dash.stage_reports()?)
    );
    Ok(())
}

fn cmd_dashboard(args: &[String]) -> CliResult {
    let mut dash = load(args)?;
    if flag_value(args, "--tools").is_some() {
        setup_detection(&mut dash, args)?;
    }
    print!("{}", render_dashboard(&mut dash)?);
    Ok(())
}

fn cmd_serve(args: &[String]) -> CliResult {
    let seed = parsed_flag(args, "--seed")?.unwrap_or(0);
    let workers = parsed_flag(args, "--workers")?.unwrap_or(4);
    let queue_depth = parsed_flag(args, "--queue-depth")?.unwrap_or(32);
    let port: u16 = parsed_flag(args, "--port")?.unwrap_or(0);
    let http_workers = parsed_flag(args, "--http-workers")?.unwrap_or(8);
    let threads = parsed_flag(args, "--threads")?.unwrap_or(1);
    let max_streams = parsed_flag(args, "--max-streams")?.unwrap_or(32);
    let workspace_dir = flag_value(args, "--workspace").map(std::path::PathBuf::from);
    let defaults = HealthThresholds::default();
    let health = HealthThresholds {
        queue_degraded_ratio: parsed_flag(args, "--degraded-queue-ratio")?
            .unwrap_or(defaults.queue_degraded_ratio),
        queue_hold_ratio: parsed_flag(args, "--hold-queue-ratio")?
            .unwrap_or(defaults.queue_hold_ratio),
        failure_streak_hold: parsed_flag(args, "--hold-failure-streak")?
            .unwrap_or(defaults.failure_streak_hold),
        stream_hold_ratio: parsed_flag(args, "--hold-stream-ratio")?
            .unwrap_or(defaults.stream_hold_ratio),
        ..defaults
    };
    let metrics = Arc::new(Registry::new());
    let service = Arc::new(JobService::new(JobServiceConfig {
        workers,
        queue_depth,
        seed,
        threads,
        workspace_dir,
        metrics: Some(Arc::clone(&metrics)),
        health,
        ..JobServiceConfig::default()
    })?);
    let router = tool_service_router(seed)
        .merge(job_service_router(Arc::clone(&service)))
        .merge(metrics_router(Arc::clone(&metrics)));
    let server = Server::start_on(
        &format!("127.0.0.1:{port}"),
        router,
        ServerConfig {
            workers: http_workers,
            max_streams,
            metrics: Some(metrics),
            health_gate: Some(service.health_gate()),
            ..ServerConfig::default()
        },
    )?;
    println!(
        "DataLens service on http://{} ({} job workers, queue depth {}, {} connection workers)",
        server.addr(),
        service.config().workers,
        service.config().queue_depth,
        http_workers,
    );
    println!("tool bus:    GET /tools  POST /detect  POST /repair  POST /profile  PUT /context");
    println!("job service: POST /sessions  POST /sessions/{{id}}/jobs  GET /jobs/{{id}}[/result]  DELETE /jobs/{{id}}");
    println!("streaming:   GET /jobs/{{id}}/events  GET /alerts/events (SSE; try `curl -N`)");
    println!("metrics:     GET /metrics (JSON; ?format=prometheus for text exposition)");
    println!("health:      GET /health (pass/degraded/hold + reason codes; 503 while holding)");
    println!("press Ctrl-C to stop");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
