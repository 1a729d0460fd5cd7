//! Integration tests: the multi-session job service behind the REST bus.
//!
//! Covers the service's four contracts end to end, over a live
//! in-process HTTP server:
//! - concurrent sessions fan out across the worker pool and produce
//!   results bit-identical to sequential controller runs;
//! - same-session jobs execute in strict FIFO submission order;
//! - cancelling mid-pipeline yields `Cancelled` and leaves the session's
//!   Delta log without a partial commit (and logs a `Killed` run);
//! - a full bounded queue rejects submissions with HTTP 429.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use datalens::controller::{DashboardConfig, DashboardController};
use datalens::jobs::rest::{
    job_service_router, CreateSessionRequest, CreateSessionResponse, JobResultResponse,
    SubmitJobResponse,
};
use datalens::jobs::{JobService, JobServiceConfig, JobSpec, JobState, JobStatus, JobStep};
use datalens_profile::ProfileConfig;
use datalens_rest::{Client, Server};
use datalens_table::csv::write_csv_str;
use datalens_tracking::{RunStatus, TrackingStore, EXPERIMENT_JOBS};

fn start(
    workers: usize,
    queue_depth: usize,
    workspace: Option<PathBuf>,
) -> (Arc<JobService>, Server) {
    let service = Arc::new(
        JobService::new(JobServiceConfig {
            workers,
            queue_depth,
            workspace_dir: workspace,
            ..JobServiceConfig::default()
        })
        .unwrap(),
    );
    let server = Server::start(job_service_router(Arc::clone(&service))).unwrap();
    (service, server)
}

fn open_session(client: &Client, file_name: &str, csv: &str) -> u64 {
    let resp: CreateSessionResponse = client
        .post_json(
            "/sessions",
            &CreateSessionRequest {
                file_name: Some(file_name.to_string()),
                csv: Some(csv.to_string()),
                ..CreateSessionRequest::default()
            },
        )
        .unwrap();
    resp.session.session_id
}

fn submit(client: &Client, session_id: u64, spec: &JobSpec) -> u64 {
    let resp: SubmitJobResponse = client
        .post_json(&format!("/sessions/{session_id}/jobs"), spec)
        .unwrap();
    resp.job_id
}

/// `GET /jobs/{id}`, tolerating transient transport errors: under
/// parallel test load the server may close an idle keep-alive
/// connection mid-poll, and the client reconnects on the next attempt.
fn try_status(client: &Client, job_id: u64) -> Option<JobStatus> {
    client.get_json(&format!("/jobs/{job_id}")).ok()
}

/// Poll `GET /jobs/{id}` until the job is terminal.
fn wait_over_http(client: &Client, job_id: u64) -> JobStatus {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(status) = try_status(client, job_id) {
            if status.state.is_terminal() {
                return status;
            }
        }
        assert!(Instant::now() < deadline, "job {job_id} did not finish");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A small dirty dataset, distinct per client: missing cells plus one
/// gross outlier so detect + repair both do real work.
fn dataset_csv(i: usize) -> String {
    let mut csv = String::from("id,score,grade\n");
    for r in 0..40 {
        let score = (r * 7 + i * 13) % 50 + 10;
        if r % 9 == 3 {
            csv.push_str(&format!("{r},,{}\n", score % 5));
        } else if r == 17 {
            csv.push_str(&format!("{r},{},{}\n", 99_000 + i, score % 5));
        } else {
            csv.push_str(&format!("{r},{score},{}\n", score % 5));
        }
    }
    csv
}

const DETECT_TOOLS: [&str; 2] = ["sd", "mv_detector"];
const REPAIR_TOOL: &str = "standard_imputer";

/// What a sequential, in-process controller produces on the same CSV
/// with the same seed and thread count as the service's sessions.
fn sequential_repair(csv: &str) -> (usize, usize, String) {
    let mut ctrl = DashboardController::new(DashboardConfig {
        workspace_dir: None,
        seed: 0,
        threads: 1,
        ..Default::default()
    })
    .unwrap();
    ctrl.ingest_csv_text("client.csv", csv).unwrap();
    let n_detections = ctrl.run_detection(&DETECT_TOOLS).unwrap();
    let n_repaired = ctrl.repair(REPAIR_TOOL).unwrap();
    (
        n_detections,
        n_repaired,
        write_csv_str(ctrl.repaired_table().unwrap()),
    )
}

#[test]
fn concurrent_sessions_match_sequential_runs_bit_for_bit() {
    const CLIENTS: usize = 8;
    let (_service, server) = start(4, 32, None);
    let addr = server.addr();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                let client = Client::new(addr);
                let csv = dataset_csv(i);
                let sid = open_session(&client, &format!("client{i}.csv"), &csv);
                let jid = submit(&client, sid, &JobSpec::clean(&DETECT_TOOLS, REPAIR_TOOL));
                let status = wait_over_http(&client, jid);
                assert_eq!(status.state, JobState::Done, "err: {:?}", status.error);
                let result: JobResultResponse =
                    client.get_json(&format!("/jobs/{jid}/result")).unwrap();
                (i, result)
            })
        })
        .collect();

    for h in handles {
        let (i, result) = h.join().unwrap();
        let (n_detections, n_repaired, repaired_csv) = sequential_repair(&dataset_csv(i));
        assert!(n_detections > 0 && n_repaired > 0);
        assert_eq!(
            result.outcome.n_detections,
            Some(n_detections),
            "client {i}"
        );
        assert_eq!(result.outcome.n_repaired, Some(n_repaired), "client {i}");
        assert_eq!(
            result.outcome.repaired_csv.as_deref(),
            Some(repaired_csv.as_str()),
            "client {i}: service repair must be bit-identical to the sequential run"
        );
    }
}

#[test]
fn same_session_jobs_run_in_fifo_submission_order() {
    let (service, server) = start(4, 32, None);
    let client = Client::new(server.addr());
    let sid = open_session(&client, "fifo.csv", &dataset_csv(0));

    // The first job sleeps before detecting, so jobs 2 and 3 are queued
    // while it runs: if same-session serialisation broke, a free worker
    // would run their detectors first and the report order would flip.
    let specs = [
        JobSpec::new(vec![
            JobStep::Sleep { ms: 150 },
            JobStep::Detect {
                tools: vec!["sd".into()],
            },
        ]),
        JobSpec::detect(&["iqr"]),
        JobSpec::detect(&["mv_detector"]),
    ];
    let ids: Vec<u64> = specs.iter().map(|s| submit(&client, sid, s)).collect();
    for &jid in &ids {
        let status = service.wait(jid, Some(Duration::from_secs(60))).unwrap();
        assert_eq!(status.state, JobState::Done, "err: {:?}", status.error);
    }

    let detect_order: Vec<String> = service
        .with_session(sid, |ctrl| {
            ctrl.stage_reports()
                .unwrap()
                .iter()
                .filter(|r| r.stage == "detect")
                .map(|r| r.detail.clone())
                .collect()
        })
        .unwrap();
    assert_eq!(detect_order, ["sd", "iqr", "mv_detector"]);
}

#[test]
fn cancel_mid_pipeline_leaves_delta_log_unchanged() {
    let ws = std::env::temp_dir().join(format!("datalens_jobs_cancel_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ws);
    let (service, server) = start(1, 8, Some(ws.clone()));
    let client = Client::new(server.addr());
    let sid = open_session(&client, "cancel.csv", &dataset_csv(1));

    let spec = JobSpec::new(vec![
        JobStep::Detect {
            tools: DETECT_TOOLS.iter().map(|s| s.to_string()).collect(),
        },
        JobStep::Sleep { ms: 30_000 },
        JobStep::Repair {
            tool: REPAIR_TOOL.into(),
        },
    ]);
    let jid = submit(&client, sid, &spec);

    // Let detection complete, then cancel while the job sleeps — before
    // the repair step can commit to the Delta log.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if try_status(&client, jid).is_some_and(|s| s.steps_done >= 1) {
            break;
        }
        assert!(Instant::now() < deadline, "detect step never finished");
        std::thread::sleep(Duration::from_millis(5));
    }
    let resp = client.delete(&format!("/jobs/{jid}")).unwrap();
    assert_eq!(resp.status, 200);

    let status = service.wait(jid, Some(Duration::from_secs(60))).unwrap();
    assert_eq!(status.state, JobState::Cancelled);
    assert!(status.error.is_none());

    // The result carries the completed detect step but no repair output…
    let result: JobResultResponse = client.get_json(&format!("/jobs/{jid}/result")).unwrap();
    assert!(result.outcome.n_detections.unwrap() > 0);
    assert!(result.outcome.n_repaired.is_none());
    assert!(result.outcome.repaired_csv.is_none());

    // …and the session's Delta log holds only the INGEST commit: no
    // partial repair made it to storage.
    service
        .with_session(sid, |ctrl| {
            let state = ctrl.state().unwrap();
            assert_eq!(state.repaired_version, None);
            let delta = state
                .delta
                .as_ref()
                .expect("workspace session has a delta table");
            assert_eq!(delta.latest_version().unwrap(), 0, "only the INGEST commit");
        })
        .unwrap();

    // The job's lifecycle run is logged as Killed (MLflow parity). The
    // tracking write is best-effort bookkeeping that lands just after
    // the terminal state is published, so poll briefly for it.
    let store = TrackingStore::new(ws.join("mlruns")).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let runs = loop {
        if let Some(exp) = store.find_experiment(EXPERIMENT_JOBS).unwrap() {
            let runs = store.list_runs(&exp).unwrap();
            if runs.iter().any(|r| r.status != RunStatus::Running) {
                break runs;
            }
        }
        assert!(Instant::now() < deadline, "tracking run never appeared");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(runs.len(), 1);
    assert_eq!(runs[0].status, RunStatus::Killed);

    drop(service);
    let _ = std::fs::remove_dir_all(&ws);
}

#[test]
fn full_queue_rejects_submissions_with_429() {
    let (service, server) = start(1, 1, None);
    let client = Client::new(server.addr());
    let sid = open_session(&client, "busy.csv", &dataset_csv(2));

    // Occupy the single worker…
    let running = submit(
        &client,
        sid,
        &JobSpec::new(vec![JobStep::Sleep { ms: 30_000 }]),
    );
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if try_status(&client, running).is_some_and(|s| s.state == JobState::Running) {
            break;
        }
        assert!(Instant::now() < deadline, "job never started");
        std::thread::sleep(Duration::from_millis(2));
    }

    // …its result is not available yet (409)…
    let resp = client.get(&format!("/jobs/{running}/result")).unwrap();
    assert_eq!(resp.status, 409);

    // …fill the queue's single slot, then overflow it.
    let queued = submit(&client, sid, &JobSpec::profile());
    let body = serde_json::to_vec(&JobSpec::profile()).unwrap();
    let resp = client.post(&format!("/sessions/{sid}/jobs"), body).unwrap();
    assert_eq!(
        resp.status,
        429,
        "backpressure: {}",
        String::from_utf8_lossy(resp.body_bytes())
    );

    // Cancelling the running job frees the worker and the queued job
    // completes normally.
    let resp = client.delete(&format!("/jobs/{running}")).unwrap();
    assert_eq!(resp.status, 200);
    let status = service
        .wait(running, Some(Duration::from_secs(60)))
        .unwrap();
    assert_eq!(status.state, JobState::Cancelled);
    let status = wait_over_http(&client, queued);
    assert_eq!(status.state, JobState::Done, "err: {:?}", status.error);

    // Unknown ids are 404s.
    assert_eq!(client.get("/jobs/999").unwrap().status, 404);
    assert_eq!(client.delete("/jobs/999").unwrap().status, 404);
    let resp = client
        .post(
            "/sessions/999/jobs",
            serde_json::to_vec(&JobSpec::profile()).unwrap(),
        )
        .unwrap();
    assert_eq!(resp.status, 404);
}

/// Payloads written while an approximate profiling mode existed still
/// parse: a job spec that asks for approx mode runs as a plain (exact)
/// profile job, and a stored `ProfileConfig` carrying `mode` / `sketch`
/// keys reads back as the default config.
#[test]
fn legacy_approx_mode_payloads_parse_and_run_exact() {
    let (_service, server) = start(1, 2, None);
    let client = Client::new(server.addr());
    let csv = dataset_csv(4);
    let sid = open_session(&client, "legacy.csv", &csv);
    let body = br#"{"steps":["Profile"],"profile_mode":"approx"}"#.to_vec();
    let resp = client.post(&format!("/sessions/{sid}/jobs"), body).unwrap();
    assert_eq!(
        resp.status,
        202,
        "legacy spec refused: {}",
        String::from_utf8_lossy(resp.body_bytes())
    );
    let job: SubmitJobResponse = serde_json::from_slice(resp.body_bytes()).unwrap();
    let status = wait_over_http(&client, job.job_id);
    assert_eq!(status.state, JobState::Done, "err: {:?}", status.error);
    let result: JobResultResponse = client
        .get_json(&format!("/jobs/{}/result", job.job_id))
        .unwrap();
    let summary = result.outcome.profile.expect("profile summary");

    let mut ctrl = DashboardController::new(DashboardConfig {
        threads: 1,
        ..Default::default()
    })
    .unwrap();
    ctrl.ingest_csv_text("legacy.csv", &csv).unwrap();
    let exact = ctrl.profile().unwrap();
    assert_eq!(
        (summary.rows, summary.cols, summary.missing_cells),
        (
            exact.table.n_rows,
            exact.columns.len(),
            exact.table.missing_cells
        )
    );

    let default_json = serde_json::to_string(&ProfileConfig::default()).unwrap();
    let legacy_json = default_json.replacen(
        '{',
        r#"{"mode":"approx","sketch":{"hll_precision":12,"kll_k":200,"top_capacity":64,"reservoir_k":32},"#,
        1,
    );
    let legacy: ProfileConfig = serde_json::from_str(&legacy_json).unwrap();
    assert_eq!(serde_json::to_string(&legacy).unwrap(), default_json);
}
