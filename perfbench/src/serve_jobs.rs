//! serve_jobs: the REST job path over real sockets. The production
//! `datalens serve` binary runs as a child process with two job
//! workers; two closed-loop clients (one per core), each on its own
//! session, submit cleaning jobs, follow their SSE event stream to the
//! terminal event, read the status and `/health`, and fetch the result.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Instant;

use datalens::{DashboardConfig, DashboardController};
use datalens_rest::{Client, Connection, Method, Response};
use serde_json::Value;

use crate::metrics::Outcome;
use crate::stats::{bucket_quantile, mean, median, median_by, Latencies, RowsPerPass};
use crate::trace::Tracer;
use crate::{err, gen, ms_since, peak_rss_mb, repeated_setup, Args, Schedule};

const ROWS: usize = 2_000;
const CLIENTS: usize = 2;
const JOBS_PER_PASS: usize = 300;
const JOB_WORKERS: &str = "2";
const SETUP_REPS: usize = 5;
const TOOLS: [&str; 4] = ["sd", "iqr", "mv_detector", "fahes"];
const REPAIRER: &str = "standard_imputer";
const FILE_NAME: &str = "hospital.csv";

/// A running `datalens serve` child; killed and reaped on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    fn start(bin: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--workers", JOB_WORKERS])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stdout.take().ok_or("no stdout")?).lines();
        let addr = loop {
            let Some(Ok(line)) = lines.next() else {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server exited before printing its address".into());
            };
            if let Some(rest) = line.split("http://").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                break addr.parse::<SocketAddr>().map_err(err)?;
            }
        };
        // Keep reading so the child never blocks on a full pipe.
        let drain = std::thread::spawn(move || for _ in lines {});
        Ok(Server {
            child,
            addr,
            drain: Some(drain),
        })
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// A keep-alive connection that reconnects when the server closes it
/// (idle timeout or per-connection request cap).
struct KeepAlive {
    client: Client,
    conn: Option<Connection>,
}

impl KeepAlive {
    fn new(addr: SocketAddr) -> KeepAlive {
        KeepAlive {
            client: Client::new(addr),
            conn: None,
        }
    }

    fn send(&mut self, method: Method, path: &str, body: &[u8]) -> Result<Response, String> {
        // A kept connection the server has since closed fails on first
        // use: retry once on a fresh one.
        let mut retried = false;
        loop {
            if self.conn.is_none() {
                self.conn = Some(self.client.connect().map_err(err)?);
            }
            let conn = self.conn.as_mut().expect("connected above");
            let sent = match method {
                Method::Post => conn.post(path, body.to_vec()),
                _ => conn.get(path),
            };
            match sent {
                Ok(resp) => {
                    if resp
                        .headers
                        .get("connection")
                        .is_some_and(|v| v.eq_ignore_ascii_case("close"))
                    {
                        self.conn = None;
                    }
                    return Ok(resp);
                }
                Err(_) if !retried => {
                    retried = true;
                    self.conn = None;
                }
                Err(e) => return Err(err(e)),
            }
        }
    }
}

/// Everything one job's client-side loop observed.
#[derive(Default, Clone)]
struct Job {
    op_ms: f64,
    submit_ms: f64,
    events_ms: f64,
    status_ms: f64,
    health_ms: f64,
    result_ms: f64,
    events: usize,
    result_bytes: usize,
    /// Sum of the engine stage wall times in the final status.
    run_ms: f64,
    n_detections: Option<u64>,
    n_repaired: Option<u64>,
}

enum JobEnd {
    Done(Job),
    /// 429 or 5xx on submit.
    Refused,
    Failed(String),
}

fn json(resp: &Response) -> Result<Value, String> {
    resp.json_body::<Value>().map_err(err)
}

/// One job, submit to fetched result; spans under `root` when traced.
fn one_job(
    ka: &mut KeepAlive,
    sid: u64,
    spec: &[u8],
    mut tr: Option<(&mut Tracer, usize)>,
) -> JobEnd {
    let t0 = Instant::now();
    let mut job = Job::default();
    macro_rules! step {
        ($name:literal, $field:ident, $call:expr) => {{
            let span = tr.as_mut().map(|(t, root)| t.open($name, Some(*root)));
            let s0 = Instant::now();
            let out = $call;
            job.$field = ms_since(s0);
            if let (Some((t, _)), Some(span)) = (tr.as_mut(), span) {
                t.close(span);
            }
            out
        }};
    }
    let submitted = step!(
        "rest.submit",
        submit_ms,
        ka.send(Method::Post, &format!("/sessions/{sid}/jobs"), spec)
    );
    let id = match submitted {
        Ok(r) if r.status == 202 => match json(&r).map(|v| v["jobId"].as_u64()) {
            Ok(Some(id)) => id,
            _ => return JobEnd::Failed("submit answered without a job id".into()),
        },
        Ok(r) if r.status == 429 || r.status >= 500 => return JobEnd::Refused,
        Ok(r) => return JobEnd::Failed(format!("submit answered {}", r.status)),
        Err(e) => return JobEnd::Failed(e),
    };
    let terminal = step!("sse.events", events_ms, {
        let mut last = String::new();
        match ka.client.sse(&format!("/jobs/{id}/events")) {
            Ok(mut stream) => {
                while let Ok(Some(ev)) = stream.next_event() {
                    job.events += 1;
                    last = ev.event;
                    if matches!(last.as_str(), "result" | "failed" | "cancelled") {
                        break;
                    }
                }
            }
            Err(e) => return JobEnd::Failed(format!("events: {e}")),
        }
        last
    });
    if terminal != "result" {
        return JobEnd::Failed(format!("job {id} ended with event {terminal:?}"));
    }
    let status = step!(
        "rest.status",
        status_ms,
        ka.send(Method::Get, &format!("/jobs/{id}"), &[])
    );
    match status.and_then(|r| json(&r)) {
        Ok(v) if v["state"] == "Done" => {
            job.run_ms = v["reports"]
                .as_array()
                .map(|rs| rs.iter().filter_map(|r| r["wall_ms"].as_f64()).sum())
                .unwrap_or(0.0);
        }
        Ok(v) => return JobEnd::Failed(format!("job {id} status {}", v["state"])),
        Err(e) => return JobEnd::Failed(e),
    }
    let health = step!(
        "health.probe",
        health_ms,
        ka.send(Method::Get, "/health", &[])
    );
    match health {
        Ok(r) if r.status == 200 => {}
        Ok(r) => return JobEnd::Failed(format!("/health answered {}", r.status)),
        Err(e) => return JobEnd::Failed(e),
    }
    let result = step!(
        "rest.result",
        result_ms,
        ka.send(Method::Get, &format!("/jobs/{id}/result"), &[])
    );
    match result {
        Ok(r) if r.status == 200 => {
            job.result_bytes = r.body_bytes().len();
            let Ok(v) = json(&r) else {
                return JobEnd::Failed("result is not JSON".into());
            };
            if v["state"] != "Done" {
                return JobEnd::Failed(format!("job {id} result state {}", v["state"]));
            }
            job.n_detections = v["outcome"]["n_detections"].as_u64();
            job.n_repaired = v["outcome"]["n_repaired"].as_u64();
        }
        Ok(r) => return JobEnd::Failed(format!("result answered {}", r.status)),
        Err(e) => return JobEnd::Failed(e),
    }
    job.op_ms = ms_since(t0);
    JobEnd::Done(job)
}

/// What a pass observed across both clients.
#[derive(Default)]
struct PassOutput {
    wall_ms: f64,
    ops: Latencies,
    jobs: Vec<Job>,
    refused: usize,
    failures: Vec<String>,
}

fn pass(server: &Server, sessions: &[u64], spec: &[u8], tracer: Option<&mut Tracer>) -> PassOutput {
    let origin_run = tracer.as_ref().map(|t| (t.origin(), t.run()));
    let t0 = Instant::now();
    let per_client: Vec<(PassOutput, Option<Tracer>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter()
            .map(|&sid| {
                scope.spawn(move || {
                    let mut ka = KeepAlive::new(server.addr);
                    let mut tr = origin_run.map(|(origin, run)| Tracer::with_origin(origin, run));
                    let root = tr.as_mut().map(|t| t.open("pass", None));
                    let mut out = PassOutput::default();
                    for _ in 0..JOBS_PER_PASS / CLIENTS {
                        let end = one_job(&mut ka, sid, spec, tr.as_mut().zip(root));
                        match end {
                            JobEnd::Done(job) => {
                                out.ops.ok(job.op_ms);
                                out.jobs.push(job);
                            }
                            JobEnd::Refused => {
                                out.ops.miss();
                                out.refused += 1;
                            }
                            JobEnd::Failed(e) => {
                                out.ops.miss();
                                out.failures.push(e);
                            }
                        }
                    }
                    if let (Some(t), Some(root)) = (tr.as_mut(), root) {
                        t.close(root);
                    }
                    (out, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| (PassOutput::default(), None)))
            .collect()
    });
    let mut total = PassOutput {
        wall_ms: ms_since(t0),
        ..PassOutput::default()
    };
    let mut merged = Vec::new();
    for (out, tr) in per_client {
        total.ops.extend(&out.ops);
        total.jobs.extend(out.jobs);
        total.refused += out.refused;
        total.failures.extend(out.failures);
        merged.extend(tr);
    }
    if let Some(tracer) = tracer {
        for t in merged {
            tracer.absorb(t);
        }
    }
    total
}

/// `jobs_queue_wait_ms` p50 from a `/metrics` scrape.
fn queue_wait_p50(addr: SocketAddr) -> Option<f64> {
    let v = Client::new(addr)
        .get("/metrics")
        .ok()?
        .json_body::<Value>()
        .ok()?;
    let buckets = v["histograms"]["jobs_queue_wait_ms"]["buckets"]
        .as_array()?
        .clone();
    let bounds: Vec<f64> = buckets.iter().filter_map(|b| b["le"].as_f64()).collect();
    let counts: Vec<u64> = buckets
        .iter()
        .map(|b| b["count"].as_u64().unwrap_or(0))
        .collect();
    bucket_quantile(&bounds, &counts, 0.5)
}

/// The same spec run in-process on the same CSV, as the job service's
/// sessions run it.
fn in_process(csv: &str) -> Result<(usize, usize), String> {
    let mut ctrl = DashboardController::new(DashboardConfig {
        threads: 1,
        ..DashboardConfig::default()
    })
    .map_err(err)?;
    ctrl.ingest_csv_text(FILE_NAME, csv).map_err(err)?;
    let detections = ctrl.run_detection(&TOOLS).map_err(err)?;
    let repaired = ctrl.repair(REPAIRER).map_err(err)?;
    Ok((detections, repaired))
}

pub fn run(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let spec =
        serde_json::to_vec(&datalens::jobs::JobSpec::clean(&TOOLS, REPAIRER)).map_err(err)?;
    let (setup_s, (server, sessions, csv)) = repeated_setup(SETUP_REPS, |rep| {
        let csv = gen::hospital(args.seed, ROWS).csv;
        let path = dir.join(format!("setup{rep}")).join(FILE_NAME);
        std::fs::create_dir_all(path.parent().expect("has parent")).map_err(err)?;
        std::fs::write(&path, &csv).map_err(err)?;
        let server = Server::start(&args.datalens)?;
        let body =
            serde_json::to_vec(&serde_json::json!({"fileName": FILE_NAME, "csv": csv.as_str()}))
                .map_err(err)?;
        let mut sessions = Vec::new();
        for _ in 0..CLIENTS {
            let resp = Client::new(server.addr)
                .post("/sessions", body.clone())
                .map_err(err)?;
            let v = json(&resp)?;
            let sid = v["session"]["session_id"]
                .as_u64()
                .ok_or(format!("session create answered {}", resp.status))?;
            sessions.push(sid);
        }
        Ok((server, sessions, csv))
    })?;

    let mut tracer = Tracer::default();
    let mut schedule = Schedule::new(args, 1);
    let mut ops = Latencies::default();
    let mut pass_ms = Vec::new();
    let mut untraced_done = 0;
    let mut traced_ms = Vec::new();
    let mut traced_jobs: Vec<Job> = Vec::new();
    let mut all_jobs = 0;
    let mut refused = 0;
    let mut failures = Vec::new();
    let mut sample_job = None;
    let mut rss = None;
    while let Some(traced) = schedule.next_pass() {
        let out = if traced {
            tracer.next_run();
            pass(&server, &sessions, &spec, Some(&mut tracer))
        } else {
            pass(&server, &sessions, &spec, None)
        };
        // Retention grows with every job, so memory is read after the
        // first pass: a fixed number of jobs on every run.
        rss = rss.or_else(|| peak_rss_mb(&server.pid()));
        all_jobs += out.ops.attempted();
        refused += out.refused;
        failures.extend(out.failures.iter().cloned());
        sample_job = sample_job.or_else(|| out.jobs.first().cloned());
        if traced {
            traced_ms.push(out.wall_ms);
            traced_jobs.extend(out.jobs);
        } else {
            untraced_done += out.jobs.len();
            pass_ms.push(out.wall_ms);
            ops.extend(&out.ops);
        }
    }
    let queue_wait = queue_wait_p50(server.addr);
    drop(server);

    o.attempted += all_jobs;
    o.failed += refused + failures.len();
    for f in failures.iter().take(5) {
        o.note(format!("job failed: {f}"));
    }
    o.check(
        &format!("all {all_jobs} jobs ended Done"),
        refused == 0 && failures.is_empty(),
    );
    let job = sample_job.ok_or("no job completed")?;
    let expected = in_process(&csv)?;
    let got = (
        job.n_detections.unwrap_or(0) as usize,
        job.n_repaired.unwrap_or(0) as usize,
    );
    o.check(
        &format!("job n_detections/n_repaired {got:?} == in-process {expected:?}"),
        got == expected,
    );

    let run_ms = mean(&pass_ms).ok_or("no untraced pass")?;
    let timed_s = pass_ms.iter().sum::<f64>() / 1e3;
    let jobs_per_s = untraced_done as f64 / timed_s;
    let tail = ops.tail().ok_or("no jobs")?;
    o.set("setup_s", setup_s);
    o.set("run_s", run_ms / 1e3);
    o.set(
        "rows_per_s",
        RowsPerPass::Jobs {
            rows: ROWS,
            jobs: untraced_done,
        }
        .per_second(timed_s),
    );
    o.set("op_p50_ms", ops.p50().ok_or("no jobs")?);
    o.set("op_p90_ms", tail.value);
    o.set("peak_rss_mb", rss.unwrap_or(0.0));
    o.set("op_samples", tail.samples as f64);
    o.set("op_tail_pct", tail.percentile);
    o.set("jobs_per_s", jobs_per_s);
    o.note(format!(
        "op = one job, submit to fetched result: {} samples, p{:.0} has {} beyond; {:.1} jobs/s",
        tail.samples, tail.percentile, tail.beyond, jobs_per_s
    ));

    if args.trace {
        let submit: Vec<f64> = traced_jobs.iter().map(|j| j.submit_ms).collect();
        o.set("rest.submit_p50_ms", median(&submit).unwrap_or(0.0));
        o.set(
            "rest.submit_p90_ms",
            crate::stats::tail(&submit).map_or(0.0, |t| t.value),
        );
        o.set(
            "rest.status_p50_ms",
            median_by(&traced_jobs, |j| j.status_ms),
        );
        o.set(
            "rest.result_p50_ms",
            median_by(&traced_jobs, |j| j.result_ms),
        );
        o.set(
            "rest.result_bytes",
            median_by(&traced_jobs, |j| j.result_bytes as f64),
        );
        o.set("rest.refused", refused as f64);
        o.set(
            "health.probe_p50_ms",
            median_by(&traced_jobs, |j| j.health_ms),
        );
        o.set(
            "sse.events_per_job",
            median_by(&traced_jobs, |j| j.events as f64),
        );
        o.set("jobs.run_p50_ms", median_by(&traced_jobs, |j| j.run_ms));
        o.set(
            "jobs.overhead_p50_ms",
            median_by(&traced_jobs, |j| j.op_ms - j.run_ms),
        );
        o.set("jobs.queue_wait_p50_ms", queue_wait.unwrap_or(0.0));
        o.note(format!(
            "client-side p50 ms: submit {:.3}, events {:.3}, status {:.3}, health {:.3}, result {:.3}; engine run {:.3}",
            median_by(&traced_jobs, |j| j.submit_ms),
            median_by(&traced_jobs, |j| j.events_ms),
            median_by(&traced_jobs, |j| j.status_ms),
            median_by(&traced_jobs, |j| j.health_ms),
            median_by(&traced_jobs, |j| j.result_ms),
            median_by(&traced_jobs, |j| j.run_ms),
        ));
        crate::report_layers(&mut o, args, &tracer, run_ms, &traced_ms);
    }
    Ok(o)
}
