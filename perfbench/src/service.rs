//! The sweep and service layers: a list of cases as a sweep spec, run
//! in-process (`run_sweep`), through the job runner on a fresh job store,
//! and as a job of an in-process `Server` that one closed-loop client
//! submits and polls, the way `triosim-cli submit --wait` uses it.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::Value;
use triosim::{run_sweep, SweepJobRunner, SweepSpec};
use triosim_server::{
    job_id, request, JobPaths, JobRunner, JobStore, RetryPolicy, RunError, Server, ServerConfig,
};

use crate::sim::{digest, Case};

const POLL: Duration = Duration::from_millis(1);
const HTTP_TIMEOUT: Duration = Duration::from_secs(10);
const JOB_DEADLINE: Duration = Duration::from_secs(60);
const READY_DEADLINE: Duration = Duration::from_secs(10);

/// A sweep spec whose scenarios are `cases`, in order.
pub fn spec_text(name: &str, cases: &[Case]) -> String {
    let spec = Value::Object(vec![
        ("name".into(), Value::Str(name.to_string())),
        (
            "scenarios".into(),
            Value::Array(cases.iter().map(Case::scenario).collect()),
        ),
    ]);
    serde_json::to_string(&spec).expect("a spec built from cases serializes")
}

/// The spec through `run_sweep` on one thread: the canonical outcome.
pub fn sweep(spec_text: &str) -> Result<String, String> {
    let spec = SweepSpec::from_json(spec_text).map_err(|e| e.to_string())?;
    let outcome = run_sweep(&spec, 1, false).map_err(|e| e.to_string())?;
    Ok(outcome.to_canonical_string())
}

/// The job runner every job store and server here uses: one sweep thread
/// and a scenario checkpoint at every iteration boundary.
fn runner() -> SweepJobRunner {
    SweepJobRunner {
        threads: 1,
        checkpoint_every: 1,
        max_events: None,
        max_sim_time_us: None,
        wall_timeout_ms: None,
    }
}

/// The spec through the job runner on a fresh job store in `dir`, as a
/// served job runs minus HTTP and queueing. Returns its result, its
/// seconds and the size of the journal it leaves.
pub fn job_run(dir: &Path, spec: &str) -> Result<(String, f64, u64), String> {
    let store = JobStore::open(dir).map_err(|e| format!("job store: {e}"))?;
    let paths = store
        .persist_spec(&job_id(spec), spec)
        .map_err(|e| format!("job store: {e}"))?;
    let cancel = Arc::new(AtomicBool::new(false));
    let t = Instant::now();
    let result = runner().run(spec, &paths, 1, &cancel);
    let job_s = t.elapsed().as_secs_f64();
    let journal_bytes = std::fs::metadata(paths.journal()).map_or(0, |m| m.len());
    std::fs::remove_dir_all(dir).ok();
    let result = result.map_err(|e| format!("job runner: {e:?}"))?;
    Ok((result, job_s, journal_bytes))
}

/// The canonical sweep outcome's per-scenario reports: their digests (or
/// the scenario's error) in scenario order, and the DES events they
/// delivered.
pub fn scenario_digests(outcome: &str) -> Result<(Vec<String>, u64), String> {
    let v: Value = serde_json::from_str(outcome).map_err(|e| format!("sweep outcome: {e}"))?;
    let results = v
        .get("results")
        .and_then(Value::as_array)
        .ok_or("sweep outcome has no results")?;
    let mut digests = Vec::with_capacity(results.len());
    let mut events = 0;
    for r in results {
        let report = r.get("report").ok_or_else(|| {
            let error = r
                .get("error")
                .map_or_else(String::new, |e| format!("{e:?}"));
            format!("scenario failed: {error}")
        })?;
        if let Some(Value::UInt(n)) = report.get("queue").and_then(|q| q.get("delivered")) {
            events += n;
        }
        digests.push(digest(
            &serde_json::to_string(report).map_err(|e| e.to_string())?,
        ));
    }
    Ok((digests, events))
}

/// When each job's run started and ended, keyed by job id.
type RunLog = Arc<Mutex<HashMap<String, (Instant, Instant)>>>;

/// The sweep job runner, recording when each job's run started and ended.
struct TimedRunner {
    inner: SweepJobRunner,
    log: RunLog,
}

impl JobRunner for TimedRunner {
    fn validate(&self, spec_text: &str) -> Result<(), String> {
        self.inner.validate(spec_text)
    }

    fn run(
        &self,
        spec_text: &str,
        paths: &JobPaths,
        attempt: u32,
        cancel: &Arc<AtomicBool>,
    ) -> Result<String, RunError> {
        let t0 = Instant::now();
        let out = self.inner.run(spec_text, paths, attempt, cancel);
        let t1 = Instant::now();
        if let Ok(mut log) = self.log.lock() {
            log.insert(job_id(spec_text), (t0, t1));
        }
        out
    }
}

/// Client-side timestamps of one served job.
#[derive(Debug)]
pub struct Served {
    pub sent: Instant,
    pub accepted: Instant,
    pub done: Instant,
    pub polls: u64,
    pub body: String,
}

impl Served {
    pub fn wall_s(&self) -> f64 {
        self.done.duration_since(self.sent).as_secs_f64()
    }
}

/// An in-process server (one job worker) on its own data directory,
/// ready to take jobs; drained and joined when dropped.
pub struct Service {
    server: Option<Server>,
    addr: String,
    log: Option<RunLog>,
}

impl Service {
    /// Starts a server on `dir` and waits until it reports ready (its
    /// recovery scan is done). A `timed` service records each job's run
    /// span. Follow with [`Service::check_ready`].
    pub fn start(dir: &Path, timed: bool) -> Result<Self, String> {
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_cap: 64,
            max_conns: 8,
            read_timeout_ms: 5_000,
            write_timeout_ms: 5_000,
            retry: RetryPolicy::default(),
            data_dir: dir.to_path_buf(),
        };
        let log = timed.then(RunLog::default);
        let runner: Box<dyn JobRunner> = match &log {
            Some(log) => Box::new(TimedRunner {
                inner: runner(),
                log: Arc::clone(log),
            }),
            None => Box::new(runner()),
        };
        let server = Server::start(config, runner).map_err(|e| format!("server start: {e}"))?;
        let start = Instant::now();
        while !server.is_ready() {
            if start.elapsed() > READY_DEADLINE {
                return Err("server never became ready".to_string());
            }
            std::thread::yield_now();
        }
        Ok(Service {
            addr: server.local_addr().to_string(),
            server: Some(server),
            log,
        })
    }

    /// Whether `/readyz` answers 200. Kept out of the timed set-up: the
    /// server accepts connections on a 10 ms poll, so a request's wait
    /// for its accept is a matter of phase, not of set-up work.
    pub fn check_ready(&self) -> Result<(), String> {
        match request(&self.addr, "GET", "/readyz", None, HTTP_TIMEOUT) {
            Ok(r) if r.status == 200 => Ok(()),
            Ok(r) => Err(format!("/readyz answered {}", r.status)),
            Err(e) => Err(e),
        }
    }

    /// Submits `spec` and polls its result every millisecond. Any answer
    /// other than 202 to the submit, 200 to the result, or 409 for a job
    /// still queued, running or backing off is a failure.
    pub fn serve(&self, spec: &str) -> Result<Served, String> {
        let addr = &self.addr;
        let sent = Instant::now();
        let r = request(addr, "POST", "/jobs", Some(spec.as_bytes()), HTTP_TIMEOUT)?;
        let accepted = Instant::now();
        let id = job_id(spec);
        if r.status != 202 || !r.body_text().contains(&id) {
            return Err(format!("submit answered {}: {}", r.status, r.body_text()));
        }
        let path = format!("/jobs/{id}/result");
        let mut polls = 0;
        loop {
            let r = request(addr, "GET", &path, None, HTTP_TIMEOUT)?;
            polls += 1;
            if r.status == 200 {
                return Ok(Served {
                    sent,
                    accepted,
                    done: Instant::now(),
                    polls,
                    body: r.body_text(),
                });
            }
            let pending = r.status == 409
                && serde_json::from_str::<Value>(&r.body_text())
                    .ok()
                    .and_then(|v| v.get("state").cloned())
                    .is_some_and(|s| s != Value::Str("dead".into()));
            if !pending {
                return Err(format!(
                    "result poll answered {}: {}",
                    r.status,
                    r.body_text()
                ));
            }
            if sent.elapsed() > JOB_DEADLINE {
                return Err(format!("job {id} did not finish in {JOB_DEADLINE:?}"));
            }
            std::thread::sleep(POLL);
        }
    }

    /// When a timed service's runner started and ended the job `spec`.
    pub fn run_span(&self, spec: &str) -> Option<(Instant, Instant)> {
        let log = self.log.as_ref()?.lock().ok()?;
        log.get(&job_id(spec)).copied()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.drain();
            server.join();
        }
    }
}
