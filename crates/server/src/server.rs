//! The daemon: accept loop, request router, and job workers.
//!
//! One `std::net::TcpListener`, a small pool of job-worker threads, and
//! a thread per in-flight connection — no async runtime, because the
//! workspace is vendored-only and the request rate a simulation service
//! sees is dominated by job *runtimes*, not connection counts. The
//! robustness properties live here:
//!
//! * **Admission control** — the bounded [`JobQueue`] sheds beyond
//!   capacity with `429 Retry-After`; a connection cap sheds excess
//!   sockets with `503` before they cost a thread.
//! * **Slow-client defense** — every accepted socket gets read/write
//!   deadlines; a client that trickles bytes gets `408` and the socket
//!   back.
//! * **Crash recovery** — startup scans the job store for in-flight
//!   jobs from a previous life and requeues them (cap-exempt) before
//!   `/readyz` reports ready.
//! * **Retries** — transiently-failed jobs back off on the
//!   deterministic [`RetryPolicy`] schedule and dead-letter with a
//!   structured record when the budget is exhausted.
//! * **Graceful drain** — [`Server::drain`] stops accepting, flips the
//!   cancel flag so runners checkpoint and return, and leaves every
//!   incomplete job durable for the next start.

use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use serde::Value;
use triosim_des::VirtualTime;
use triosim_obs::{PrometheusSink, Recorder};

use crate::http::{read_request, HttpError, Request, Response};
use crate::job::{job_id, JobRunner, JobState, JobStore, RunError};
use crate::queue::{Admission, JobQueue};
use crate::retry::RetryPolicy;

/// How long `GET /jobs/<id>/result` holds a request for a pending job
/// open, so the client hears of the job's end when it happens instead
/// of at its next poll. Below every in-tree client's request timeout.
const RESULT_HOLD: Duration = Duration::from_secs(1);

/// Everything tunable about a server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Job-worker threads.
    pub workers: usize,
    /// Pending-job queue capacity; submissions beyond it are shed.
    pub queue_cap: usize,
    /// Concurrent-connection cap; sockets beyond it get an immediate 503.
    pub max_conns: usize,
    /// Per-connection read deadline, milliseconds (slow-loris defense).
    pub read_timeout_ms: u64,
    /// Per-connection write deadline, milliseconds.
    pub write_timeout_ms: u64,
    /// Retry policy for transiently-failed jobs.
    pub retry: RetryPolicy,
    /// Root of the durable job store.
    pub data_dir: PathBuf,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 64,
            max_conns: 64,
            read_timeout_ms: 5_000,
            write_timeout_ms: 5_000,
            retry: RetryPolicy::default(),
            data_dir: PathBuf::from("triosim-data"),
        }
    }
}

impl ServerConfig {
    /// The first count that is zero, by field name: [`Server::start`]
    /// refuses a configuration with one.
    fn zero_count(&self) -> Option<&'static str> {
        [
            ("workers", self.workers as u64),
            ("queue_cap", self.queue_cap as u64),
            ("max_conns", self.max_conns as u64),
            ("read_timeout_ms", self.read_timeout_ms),
            ("write_timeout_ms", self.write_timeout_ms),
            ("retry.max_attempts", u64::from(self.retry.max_attempts)),
        ]
        .into_iter()
        .find_map(|(field, n)| (n == 0).then_some(field))
    }
}

/// Monotonic service counters, exposed at `/metrics`.
#[derive(Debug, Default)]
pub struct Counters {
    /// Jobs admitted to the queue.
    pub accepted: AtomicU64,
    /// Jobs refused by admission control.
    pub shed: AtomicU64,
    /// Retry attempts scheduled after transient failures.
    pub retried: AtomicU64,
    /// In-flight jobs requeued by startup recovery.
    pub recovered: AtomicU64,
    /// Jobs dead-lettered after exhausting their retry budget (or a
    /// permanent failure).
    pub dead_lettered: AtomicU64,
    /// Jobs that reached a durable successful result.
    pub completed: AtomicU64,
    /// HTTP requests answered (any status).
    pub requests: AtomicU64,
    /// Connections refused by the connection cap.
    pub conns_refused: AtomicU64,
    /// Requests dropped for blowing a read deadline.
    pub timeouts: AtomicU64,
}

impl Counters {
    fn bump(field: &AtomicU64) {
        field.fetch_add(1, Ordering::Relaxed);
    }
    fn get(field: &AtomicU64) -> u64 {
        field.load(Ordering::Relaxed)
    }
}

/// State shared by the accept loop, connection threads, and job workers.
struct Inner {
    config: ServerConfig,
    store: JobStore,
    runner: Box<dyn JobRunner>,
    queue: JobQueue,
    states: Mutex<HashMap<String, JobState>>,
    /// Notified on every state change and when a drain begins; held
    /// result requests wait on it.
    state_changed: Condvar,
    counters: Counters,
    /// Recovery scan finished; submissions are accepted.
    ready: AtomicBool,
    /// Drain in progress: stop accepting, stop dequeueing.
    shutting_down: AtomicBool,
    /// Cooperative cancel handed to runners during a drain.
    cancel: Arc<AtomicBool>,
    active_conns: AtomicUsize,
}

impl Inner {
    /// Publishes `state` and wakes held result requests, which answer
    /// at once: bump a job's counters before publishing its terminal
    /// state.
    fn set_state(&self, id: &str, state: JobState) {
        if let Ok(mut states) = self.states.lock() {
            states.insert(id.to_string(), state);
        }
        self.state_changed.notify_all();
    }

    fn state_of(&self, id: &str) -> Option<JobState> {
        if let Ok(states) = self.states.lock() {
            if let Some(s) = states.get(id) {
                return Some(s.clone());
            }
        }
        // Jobs finished in a previous server life live only on disk.
        self.store.state_on_disk(id)
    }

    /// Flags the drain and wakes what waits on it: idle workers and held
    /// result requests.
    fn begin_drain(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        self.cancel.store(true, Ordering::SeqCst);
        self.queue.wake_all();
        // Taking the lock orders this notify after any waiter's check of
        // the flag, so no held request sleeps through the drain.
        drop(self.states.lock());
        self.state_changed.notify_all();
    }

    /// [`Inner::state_of`] once the job is done or dead, a drain begins,
    /// or [`RESULT_HOLD`] elapses, whichever comes first.
    fn settled_state_of(&self, id: &str) -> Option<JobState> {
        let pending = |states: &mut HashMap<String, JobState>| {
            !self.shutting_down.load(Ordering::SeqCst)
                && states
                    .get(id)
                    .is_some_and(|s| !matches!(s, JobState::Done | JobState::Dead))
        };
        if let Ok(states) = self.states.lock() {
            let _held = self
                .state_changed
                .wait_timeout_while(states, RESULT_HOLD, pending);
        }
        self.state_of(id)
    }
}

/// A running daemon. Dropping the handle does *not* stop the server;
/// call [`Server::drain`] then [`Server::join`].
pub struct Server {
    inner: Arc<Inner>,
    local_addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.local_addr)
            .finish()
    }
}

impl Server {
    /// Binds, starts the recovery scan, and spawns the accept loop and
    /// job workers. Returns as soon as the socket is listening —
    /// `/readyz` reports 503 until recovery completes.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`], naming the field, when a count in
    /// `config` (the workers, the queue and connection caps, either
    /// deadline, the retry attempts) is zero; nothing is bound then.
    /// Otherwise propagates bind and job-store failures.
    pub fn start(config: ServerConfig, runner: Box<dyn JobRunner>) -> io::Result<Server> {
        if let Some(field) = config.zero_count() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("ServerConfig::{field} must be at least 1"),
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let store = JobStore::open(&config.data_dir)?;
        let inner = Arc::new(Inner {
            queue: JobQueue::new(config.queue_cap),
            store,
            runner,
            states: Mutex::new(HashMap::new()),
            state_changed: Condvar::new(),
            counters: Counters::default(),
            ready: AtomicBool::new(false),
            shutting_down: AtomicBool::new(false),
            cancel: Arc::new(AtomicBool::new(false)),
            active_conns: AtomicUsize::new(0),
            config,
        });
        let mut threads = Vec::new();
        // Recovery first — /readyz gates on it, and it must finish before
        // workers could race fresh submissions against requeues.
        {
            let inner = inner.clone();
            threads.push(std::thread::spawn(move || recover(&inner)));
        }
        {
            let inner = inner.clone();
            threads.push(std::thread::spawn(move || accept_loop(&inner, &listener)));
        }
        for _ in 0..inner.config.workers {
            let inner = inner.clone();
            threads.push(std::thread::spawn(move || worker_loop(&inner)));
        }
        Ok(Server {
            inner,
            local_addr,
            threads,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Has startup recovery finished?
    pub fn is_ready(&self) -> bool {
        self.inner.ready.load(Ordering::SeqCst)
    }

    /// Begins a graceful drain: stop accepting connections and jobs,
    /// flip the runners' cancel flag so in-flight jobs checkpoint and
    /// return promptly, and answer held result requests. Incomplete jobs
    /// stay durable on disk for the next start. Non-blocking; follow
    /// with [`Server::join`].
    pub fn drain(&self) {
        self.inner.begin_drain();
        // Wake the blocked accept with a connection of our own.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(if wake.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            });
        }
        TcpStream::connect_timeout(&wake, Duration::from_secs(1)).ok();
    }

    /// Waits for the accept loop and workers to exit (call after
    /// [`Server::drain`]).
    pub fn join(self) {
        for t in self.threads {
            t.join().ok();
        }
    }

    /// A snapshot of the service counters as
    /// `(accepted, shed, retried, recovered, dead_lettered, completed)`.
    pub fn counter_snapshot(&self) -> (u64, u64, u64, u64, u64, u64) {
        let c = &self.inner.counters;
        (
            Counters::get(&c.accepted),
            Counters::get(&c.shed),
            Counters::get(&c.retried),
            Counters::get(&c.recovered),
            Counters::get(&c.dead_lettered),
            Counters::get(&c.completed),
        )
    }
}

/// Startup recovery: requeue every job the previous life left in flight,
/// then report ready.
fn recover(inner: &Inner) {
    match inner.store.scan_incomplete() {
        Ok(found) => {
            for (id, _spec) in found {
                inner.set_state(&id, JobState::Queued);
                inner.queue.enqueue_unbounded(id);
                Counters::bump(&inner.counters.recovered);
            }
        }
        Err(e) => eprintln!("warning: recovery scan failed: {e}"),
    }
    inner.ready.store(true, Ordering::SeqCst);
}

/// Blocking accept loop. [`Server::drain`] wakes it with a connection of
/// its own, so the shutdown flag is checked after every accept.
fn accept_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    loop {
        let accepted = listener.accept();
        if inner.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                if inner.active_conns.load(Ordering::SeqCst) >= inner.config.max_conns {
                    Counters::bump(&inner.counters.conns_refused);
                    refuse_overloaded(stream, inner);
                    continue;
                }
                inner.active_conns.fetch_add(1, Ordering::SeqCst);
                let inner = inner.clone();
                std::thread::spawn(move || {
                    handle_connection(&inner, stream);
                    inner.active_conns.fetch_sub(1, Ordering::SeqCst);
                });
            }
            // A real error (e.g. out of file descriptors): back off so it
            // cannot become a busy loop.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Over the connection cap: one terse 503 and the socket is gone. Write
/// errors are moot — the peer we could not serve is a peer we also
/// cannot apologize to.
fn refuse_overloaded(mut stream: TcpStream, inner: &Inner) {
    stream
        .set_write_timeout(Some(Duration::from_millis(inner.config.write_timeout_ms)))
        .ok();
    Response::text(503, "connection limit reached\n")
        .with_header("Retry-After", "1")
        .write_to(&mut stream)
        .ok();
}

/// Serves exactly one request on `stream` (Connection: close semantics).
fn handle_connection(inner: &Inner, mut stream: TcpStream) {
    let read_to = Duration::from_millis(inner.config.read_timeout_ms);
    let write_to = Duration::from_millis(inner.config.write_timeout_ms);
    stream.set_read_timeout(Some(read_to)).ok();
    stream.set_write_timeout(Some(write_to)).ok();
    let response = match read_request(&mut stream) {
        Ok(request) => route(inner, &request),
        // Nobody on the other end to answer.
        Err(HttpError::Closed) => return,
        Err(e) => {
            if e == HttpError::Timeout {
                Counters::bump(&inner.counters.timeouts);
            }
            Response::text(e.status(), format!("{e}\n"))
        }
    };
    Counters::bump(&inner.counters.requests);
    response.write_to(&mut stream).ok();
}

/// JSON body for job-status responses.
fn status_json(id: &str, state: &JobState, inner: &Inner) -> Value {
    let mut fields = vec![
        ("id".to_string(), Value::Str(id.to_string())),
        ("state".to_string(), Value::Str(state.name().to_string())),
    ];
    match state {
        JobState::Running { attempt } => {
            fields.push(("attempt".to_string(), Value::UInt(u64::from(*attempt))));
        }
        JobState::Backoff { attempt, delay_ms } => {
            fields.push(("attempt".to_string(), Value::UInt(u64::from(*attempt))));
            fields.push(("retry_in_ms".to_string(), Value::UInt(*delay_ms)));
        }
        JobState::Dead => {
            // Surface the structured dead-letter record inline.
            if let Ok(text) = std::fs::read_to_string(inner.store.paths(id).dead()) {
                if let Ok(record) = serde_json::from_str::<Value>(&text) {
                    if let Some(e) = record.get("error") {
                        fields.push(("error".to_string(), e.clone()));
                    }
                    if let Some(a) = record.get("attempts") {
                        fields.push(("attempts".to_string(), a.clone()));
                    }
                }
            }
        }
        JobState::Queued | JobState::Done => {}
    }
    Value::Object(fields)
}

/// The request router. Pure with respect to the socket — unit tests
/// drive it with synthetic [`Request`]s.
fn route(inner: &Inner, request: &Request) -> Response {
    let path = request.path.split('?').next().unwrap_or("");
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/readyz") => {
            if inner.shutting_down.load(Ordering::SeqCst) {
                Response::text(503, "draining\n").with_header("Retry-After", "1")
            } else if inner.ready.load(Ordering::SeqCst) {
                Response::text(200, "ready\n")
            } else {
                Response::text(503, "recovering\n").with_header("Retry-After", "1")
            }
        }
        ("GET", "/metrics") => Response::text(200, render_metrics(inner)),
        ("POST", "/jobs") => submit(inner, &request.body),
        ("GET", p) if p.starts_with("/jobs/") => {
            let rest = &p["/jobs/".len()..];
            if let Some(id) = rest.strip_suffix("/result") {
                job_result(inner, id)
            } else if rest.contains('/') {
                Response::text(404, "no such resource\n")
            } else {
                job_status(inner, rest)
            }
        }
        (_, "/healthz" | "/readyz" | "/metrics" | "/jobs") => {
            Response::text(405, "method not allowed\n")
        }
        (_, p) if p.starts_with("/jobs/") => Response::text(405, "method not allowed\n"),
        _ => Response::text(404, "no such resource\n"),
    }
}

/// `POST /jobs`: validate, admit (or shed), persist, enqueue.
fn submit(inner: &Inner, body: &[u8]) -> Response {
    if inner.shutting_down.load(Ordering::SeqCst) {
        return Response::text(503, "draining\n").with_header("Retry-After", "1");
    }
    if !inner.ready.load(Ordering::SeqCst) {
        return Response::text(503, "recovering\n").with_header("Retry-After", "1");
    }
    let Ok(spec_text) = std::str::from_utf8(body) else {
        return Response::text(400, "spec must be UTF-8 JSON\n");
    };
    if let Err(e) = inner.runner.validate(spec_text) {
        return Response::json(
            400,
            &Value::Object(vec![("error".to_string(), Value::Str(e))]),
        );
    }
    let id = job_id(spec_text);
    // Idempotence: the same bytes address the same job. Answer from the
    // existing state instead of re-admitting. The states lock doubles as
    // the admission token so two racing submissions of the same spec
    // cannot both enqueue.
    {
        let Ok(mut states) = inner.states.lock() else {
            return Response::text(500, "state lock poisoned\n");
        };
        let known = states
            .get(&id)
            .cloned()
            .or_else(|| inner.store.state_on_disk(&id));
        if let Some(state) = known {
            drop(states);
            let status = if matches!(state, JobState::Done) {
                200
            } else {
                202
            };
            return Response::json(status, &status_json(&id, &state, inner));
        }
        states.insert(id.clone(), JobState::Queued);
    }
    // Persist before enqueue: a worker that pops the id must find the
    // spec on disk. (A crash in this window leaves an orphan spec.json,
    // which recovery simply requeues — admission is at-least-once.)
    if let Err(e) = inner.store.persist_spec(&id, spec_text) {
        if let Ok(mut states) = inner.states.lock() {
            states.remove(&id);
        }
        return Response::text(500, format!("cannot persist job: {e}\n"));
    }
    match inner.queue.try_submit(id.clone()) {
        Admission::Enqueued => {
            Counters::bump(&inner.counters.accepted);
            Response::json(
                202,
                &Value::Object(vec![
                    ("id".to_string(), Value::Str(id)),
                    ("state".to_string(), Value::Str("queued".to_string())),
                ]),
            )
        }
        Admission::Shed => {
            // Undo the admission completely or the recovery scan would
            // resurrect a job we told the client we refused.
            inner.store.remove(&id);
            if let Ok(mut states) = inner.states.lock() {
                states.remove(&id);
            }
            Counters::bump(&inner.counters.shed);
            Response::json(
                429,
                &Value::Object(vec![
                    ("error".to_string(), Value::Str("queue full".to_string())),
                    (
                        "queue_cap".to_string(),
                        Value::UInt(inner.config.queue_cap as u64),
                    ),
                ]),
            )
            .with_header("Retry-After", "1")
        }
    }
}

/// `GET /jobs/<id>`.
fn job_status(inner: &Inner, id: &str) -> Response {
    match inner.state_of(id) {
        Some(state) => Response::json(200, &status_json(id, &state, inner)),
        None => Response::text(404, "no such job\n"),
    }
}

/// `GET /jobs/<id>/result`: the stored canonical bytes, verbatim. A
/// pending job's request is held up to [`RESULT_HOLD`] for it to finish.
fn job_result(inner: &Inner, id: &str) -> Response {
    match inner.settled_state_of(id) {
        Some(JobState::Done) => match std::fs::read(inner.store.paths(id).result()) {
            Ok(bytes) => Response::json_bytes(200, bytes),
            Err(e) => Response::text(500, format!("result unreadable: {e}\n")),
        },
        Some(state) => Response::json(409, &status_json(id, &state, inner)),
        None => Response::text(404, "no such job\n"),
    }
}

/// Renders the counters in Prometheus text format via the workspace's
/// standard sink.
fn render_metrics(inner: &Inner) -> String {
    let c = &inner.counters;
    let mut sink = PrometheusSink::new(Vec::new());
    for (event, field) in [
        ("accepted", &c.accepted),
        ("shed", &c.shed),
        ("retried", &c.retried),
        ("recovered", &c.recovered),
        ("dead_lettered", &c.dead_lettered),
        ("completed", &c.completed),
    ] {
        sink.counter_add(
            "triosim_server_jobs_total",
            &[("event", event)],
            Counters::get(field) as f64,
        );
    }
    sink.counter_add(
        "triosim_server_requests_total",
        &[],
        Counters::get(&c.requests) as f64,
    );
    sink.counter_add(
        "triosim_server_connections_refused_total",
        &[],
        Counters::get(&c.conns_refused) as f64,
    );
    sink.counter_add(
        "triosim_server_request_timeouts_total",
        &[],
        Counters::get(&c.timeouts) as f64,
    );
    sink.gauge_set(
        VirtualTime::ZERO,
        "triosim_server_queue_depth",
        &[],
        inner.queue.len() as f64,
    );
    sink.gauge_set(
        VirtualTime::ZERO,
        "triosim_server_active_connections",
        &[],
        inner.active_conns.load(Ordering::SeqCst) as f64,
    );
    if sink.finish().is_err() {
        return String::new();
    }
    String::from_utf8(sink.into_inner()).unwrap_or_default()
}

/// Sleeps `ms` in small slices, returning early (false) if a drain
/// begins.
fn cancellable_sleep(inner: &Inner, ms: u64) -> bool {
    let mut remaining = ms;
    while remaining > 0 {
        if inner.shutting_down.load(Ordering::SeqCst) {
            return false;
        }
        let slice = remaining.min(20);
        std::thread::sleep(Duration::from_millis(slice));
        remaining -= slice;
    }
    !inner.shutting_down.load(Ordering::SeqCst)
}

/// One worker: pop, run with retries, record the terminal state.
fn worker_loop(inner: &Inner) {
    while let Some(id) = inner.queue.pop(&inner.shutting_down) {
        run_job(inner, &id);
    }
}

/// Executes one job to a terminal state (or leaves it durable-incomplete
/// on a drain).
fn run_job(inner: &Inner, id: &str) {
    let paths = inner.store.paths(id);
    let spec_text = match std::fs::read_to_string(paths.spec()) {
        Ok(text) => text,
        Err(e) => {
            // The spec vanished (disk trouble, manual interference):
            // dead-letter so the client gets a structured answer.
            inner
                .store
                .write_dead(id, 0, &format!("spec unreadable: {e}"))
                .ok();
            Counters::bump(&inner.counters.dead_lettered);
            inner.set_state(id, JobState::Dead);
            return;
        }
    };
    let max_attempts = inner.config.retry.max_attempts;
    let job_key = crate::job::fnv1a(id.as_bytes());
    for attempt in 1..=max_attempts {
        inner.set_state(id, JobState::Running { attempt });
        match inner.runner.run(&spec_text, &paths, attempt, &inner.cancel) {
            Ok(result_text) => {
                match inner.store.write_result(id, &result_text) {
                    Ok(()) => {
                        Counters::bump(&inner.counters.completed);
                        inner.set_state(id, JobState::Done);
                    }
                    Err(e) => {
                        inner
                            .store
                            .write_dead(id, attempt, &format!("result unwritable: {e}"))
                            .ok();
                        Counters::bump(&inner.counters.dead_lettered);
                        inner.set_state(id, JobState::Dead);
                    }
                }
                return;
            }
            Err(RunError::Interrupted) => {
                // Drain: the job is durable-incomplete; the next start
                // recovers it. Reflect that in the visible state.
                inner.set_state(id, JobState::Queued);
                return;
            }
            Err(RunError::Permanent(e)) => {
                inner.store.write_dead(id, attempt, &e).ok();
                Counters::bump(&inner.counters.dead_lettered);
                inner.set_state(id, JobState::Dead);
                return;
            }
            Err(RunError::Transient(e)) => {
                if attempt == max_attempts {
                    inner
                        .store
                        .write_dead(id, attempt, &format!("retries exhausted: {e}"))
                        .ok();
                    Counters::bump(&inner.counters.dead_lettered);
                    inner.set_state(id, JobState::Dead);
                    return;
                }
                Counters::bump(&inner.counters.retried);
                let delay_ms = inner.config.retry.backoff_ms(job_key, attempt);
                inner.set_state(id, JobState::Backoff { attempt, delay_ms });
                if !cancellable_sleep(inner, delay_ms) {
                    inner.set_state(id, JobState::Queued);
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::AtomicUsize;
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "triosim-server-unit-{tag}-{}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A runner that echoes the spec back as its result.
    struct Echo;
    impl JobRunner for Echo {
        fn validate(&self, spec_text: &str) -> Result<(), String> {
            if spec_text.contains("invalid") {
                Err("spec rejected".into())
            } else {
                Ok(())
            }
        }
        fn run(
            &self,
            spec_text: &str,
            _paths: &crate::job::JobPaths,
            _attempt: u32,
            _cancel: &Arc<AtomicBool>,
        ) -> Result<String, RunError> {
            Ok(format!("echo:{spec_text}"))
        }
    }

    fn test_inner(tag: &str, runner: Box<dyn JobRunner>) -> (PathBuf, Inner) {
        let dir = temp_dir(tag);
        let config = ServerConfig {
            data_dir: dir.clone(),
            queue_cap: 2,
            ..ServerConfig::default()
        };
        let store = JobStore::open(&config.data_dir).unwrap();
        let inner = Inner {
            queue: JobQueue::new(config.queue_cap),
            store,
            runner,
            states: Mutex::new(HashMap::new()),
            state_changed: Condvar::new(),
            counters: Counters::default(),
            ready: AtomicBool::new(true),
            shutting_down: AtomicBool::new(false),
            cancel: Arc::new(AtomicBool::new(false)),
            active_conns: AtomicUsize::new(0),
            config,
        };
        (dir, inner)
    }

    fn get(inner: &Inner, path: &str) -> Response {
        route(
            inner,
            &Request {
                method: "GET".into(),
                path: path.into(),
                headers: vec![],
                body: vec![],
            },
        )
    }

    fn post(inner: &Inner, path: &str, body: &str) -> Response {
        route(
            inner,
            &Request {
                method: "POST".into(),
                path: path.into(),
                headers: vec![],
                body: body.as_bytes().to_vec(),
            },
        )
    }

    #[test]
    fn health_and_readiness_reflect_lifecycle() {
        let (dir, inner) = test_inner("health", Box::new(Echo));
        assert_eq!(get(&inner, "/healthz").status, 200);
        assert_eq!(get(&inner, "/readyz").status, 200);
        inner.ready.store(false, Ordering::SeqCst);
        let r = get(&inner, "/readyz");
        assert_eq!(r.status, 503);
        assert_eq!(r.body, b"recovering\n");
        inner.ready.store(true, Ordering::SeqCst);
        inner.shutting_down.store(true, Ordering::SeqCst);
        let r = get(&inner, "/readyz");
        assert_eq!(r.status, 503);
        assert_eq!(r.body, b"draining\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn submit_accepts_then_sheds_at_capacity() {
        let (dir, inner) = test_inner("shed", Box::new(Echo));
        assert_eq!(post(&inner, "/jobs", "{\"a\":1}").status, 202);
        assert_eq!(post(&inner, "/jobs", "{\"a\":2}").status, 202);
        let shed = post(&inner, "/jobs", "{\"a\":3}");
        assert_eq!(shed.status, 429);
        assert!(shed
            .headers
            .iter()
            .any(|(k, v)| k == "Retry-After" && v == "1"));
        // The shed job left no trace for recovery to resurrect.
        let shed_id = job_id("{\"a\":3}");
        assert_eq!(inner.store.state_on_disk(&shed_id), None);
        assert_eq!(Counters::get(&inner.counters.shed), 1);
        assert_eq!(Counters::get(&inner.counters.accepted), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resubmitting_the_same_spec_is_idempotent() {
        let (dir, inner) = test_inner("idem", Box::new(Echo));
        let first = post(&inner, "/jobs", "{\"same\":1}");
        assert_eq!(first.status, 202);
        let again = post(&inner, "/jobs", "{\"same\":1}");
        assert_eq!(again.status, 202, "duplicate reports state, not shed");
        assert_eq!(inner.queue.len(), 1, "no second queue slot consumed");
        assert_eq!(Counters::get(&inner.counters.accepted), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_specs_are_rejected_before_admission() {
        let (dir, inner) = test_inner("invalid", Box::new(Echo));
        let r = post(&inner, "/jobs", "invalid spec");
        assert_eq!(r.status, 400);
        assert!(String::from_utf8_lossy(&r.body).contains("spec rejected"));
        assert!(inner.queue.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn job_endpoints_cover_the_lifecycle() {
        let (dir, inner) = test_inner("lifecycle", Box::new(Echo));
        assert_eq!(get(&inner, "/jobs/feedbeef00000000").status, 404);
        assert_eq!(get(&inner, "/jobs/feedbeef00000000/result").status, 404);
        post(&inner, "/jobs", "{\"job\":1}");
        let id = job_id("{\"job\":1}");
        let status = get(&inner, &format!("/jobs/{id}"));
        assert_eq!(status.status, 200);
        assert!(String::from_utf8_lossy(&status.body).contains("queued"));
        // Not finished yet → 409 on the result endpoint.
        assert_eq!(get(&inner, &format!("/jobs/{id}/result")).status, 409);
        // Let a worker pass over the queue once.
        let popped = inner.queue.pop(&inner.shutting_down).unwrap();
        run_job(&inner, &popped);
        let done = get(&inner, &format!("/jobs/{id}/result"));
        assert_eq!(done.status, 200);
        assert_eq!(done.body, "echo:{\"job\":1}".to_string().into_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_drain_answers_held_result_requests() {
        let (dir, inner) = test_inner("hold", Box::new(Echo));
        post(&inner, "/jobs", "{\"held\":1}");
        let path = format!("/jobs/{}/result", job_id("{\"held\":1}"));
        std::thread::scope(|s| {
            // No worker runs the job, so only the drain can end the hold.
            // The sleep lets the request start waiting; a drain that
            // lands first is answered at once, so it cannot flake.
            let held = s.spawn(|| get(&inner, &path));
            std::thread::sleep(Duration::from_millis(100));
            let t = std::time::Instant::now();
            inner.begin_drain();
            let r = held.join().unwrap();
            assert_eq!(r.status, 409);
            assert!(String::from_utf8_lossy(&r.body).contains("queued"));
            assert!(
                t.elapsed() < RESULT_HOLD / 2,
                "held through the drain: {:?}",
                t.elapsed()
            );
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_routes_and_methods_are_typed() {
        let (dir, inner) = test_inner("routes", Box::new(Echo));
        assert_eq!(get(&inner, "/nope").status, 404);
        assert_eq!(post(&inner, "/healthz", "").status, 405);
        assert_eq!(get(&inner, "/jobs").status, 405);
        assert_eq!(get(&inner, "/jobs/a/b/c").status, 404);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A runner that fails transiently a configurable number of times.
    struct Flaky {
        failures: AtomicU64,
    }
    impl JobRunner for Flaky {
        fn validate(&self, _spec: &str) -> Result<(), String> {
            Ok(())
        }
        fn run(
            &self,
            spec_text: &str,
            _paths: &crate::job::JobPaths,
            _attempt: u32,
            _cancel: &Arc<AtomicBool>,
        ) -> Result<String, RunError> {
            if self.failures.load(Ordering::SeqCst) > 0 {
                self.failures.fetch_sub(1, Ordering::SeqCst);
                Err(RunError::Transient("flaky io".into()))
            } else {
                Ok(format!("ok:{spec_text}"))
            }
        }
    }

    #[test]
    fn transient_failures_retry_to_success() {
        let (dir, mut inner) = test_inner(
            "retry",
            Box::new(Flaky {
                failures: AtomicU64::new(2),
            }),
        );
        inner.config.retry = RetryPolicy {
            max_attempts: 3,
            base_ms: 1,
            cap_ms: 2,
            seed: 7,
        };
        post(&inner, "/jobs", "{\"flaky\":1}");
        let id = inner.queue.pop(&inner.shutting_down).unwrap();
        run_job(&inner, &id);
        assert_eq!(inner.state_of(&id), Some(JobState::Done));
        assert_eq!(Counters::get(&inner.counters.retried), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exhausted_retries_dead_letter_with_structure() {
        let (dir, mut inner) = test_inner(
            "dead",
            Box::new(Flaky {
                failures: AtomicU64::new(100),
            }),
        );
        inner.config.retry = RetryPolicy {
            max_attempts: 2,
            base_ms: 1,
            cap_ms: 2,
            seed: 7,
        };
        post(&inner, "/jobs", "{\"doomed\":1}");
        let id = inner.queue.pop(&inner.shutting_down).unwrap();
        run_job(&inner, &id);
        assert_eq!(inner.state_of(&id), Some(JobState::Dead));
        assert_eq!(Counters::get(&inner.counters.dead_lettered), 1);
        let status = get(&inner, &format!("/jobs/{id}"));
        let text = String::from_utf8_lossy(&status.body).to_string();
        assert!(text.contains("dead"), "{text}");
        assert!(text.contains("retries exhausted"), "{text}");
        assert!(text.contains("\"attempts\":2"), "{text}");
        // The result endpoint reports the conflict, not a 500.
        assert_eq!(get(&inner, &format!("/jobs/{id}/result")).status, 409);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn permanent_failures_skip_the_retry_budget() {
        struct Doomed;
        impl JobRunner for Doomed {
            fn validate(&self, _spec: &str) -> Result<(), String> {
                Ok(())
            }
            fn run(
                &self,
                _spec: &str,
                _paths: &crate::job::JobPaths,
                _attempt: u32,
                _cancel: &Arc<AtomicBool>,
            ) -> Result<String, RunError> {
                Err(RunError::Permanent("bad scenario config".into()))
            }
        }
        let (dir, inner) = test_inner("permanent", Box::new(Doomed));
        post(&inner, "/jobs", "{\"p\":1}");
        let id = inner.queue.pop(&inner.shutting_down).unwrap();
        run_job(&inner, &id);
        assert_eq!(inner.state_of(&id), Some(JobState::Dead));
        assert_eq!(Counters::get(&inner.counters.retried), 0, "no retries");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_render_all_series() {
        let (dir, inner) = test_inner("metrics", Box::new(Echo));
        Counters::bump(&inner.counters.accepted);
        Counters::bump(&inner.counters.shed);
        let text = render_metrics(&inner);
        for series in [
            "triosim_server_jobs_total{event=\"accepted\"} 1",
            "triosim_server_jobs_total{event=\"shed\"} 1",
            "triosim_server_jobs_total{event=\"recovered\"} 0",
            "triosim_server_jobs_total{event=\"dead_lettered\"} 0",
            "triosim_server_requests_total 0",
            "triosim_server_queue_depth 0",
        ] {
            assert!(text.contains(series), "missing {series} in:\n{text}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drain_leaves_interrupted_jobs_recoverable() {
        struct Interruptible;
        impl JobRunner for Interruptible {
            fn validate(&self, _spec: &str) -> Result<(), String> {
                Ok(())
            }
            fn run(
                &self,
                _spec: &str,
                _paths: &crate::job::JobPaths,
                _attempt: u32,
                cancel: &Arc<AtomicBool>,
            ) -> Result<String, RunError> {
                if cancel.load(Ordering::SeqCst) {
                    Err(RunError::Interrupted)
                } else {
                    Ok("done".into())
                }
            }
        }
        let (dir, inner) = test_inner("drain", Box::new(Interruptible));
        post(&inner, "/jobs", "{\"d\":1}");
        inner.cancel.store(true, Ordering::SeqCst);
        let id = inner.queue.pop(&inner.shutting_down).unwrap();
        run_job(&inner, &id);
        assert_eq!(inner.state_of(&id), Some(JobState::Queued));
        // Exactly this job shows up in a fresh store's recovery scan.
        let store2 = JobStore::open(&inner.config.data_dir).unwrap();
        let found = store2.scan_incomplete().unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].0, id);
        std::fs::remove_dir_all(&dir).ok();
    }
}
