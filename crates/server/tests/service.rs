//! End-to-end service tests over real sockets: submit → poll → result,
//! held result requests, load shedding on the wire, slow-loris
//! ejection, and the drain-restart-recover loop — all with a stub
//! runner, so these tests exercise the service machinery, not the
//! simulator.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use triosim_server::{request, JobPaths, JobRunner, RetryPolicy, RunError, Server, ServerConfig};

fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::AtomicUsize;
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "triosim-server-e2e-{tag}-{}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A scriptable runner: the spec text selects the behavior.
///
/// * `{"work":"ok", ...}` — succeed immediately, result is `done:<spec>`.
/// * `{"work":"slow", ...}` — loop in cancel-aware 10 ms slices for
///   ~500 ms, then succeed; returns `Interrupted` if cancelled.
/// * `{"work":"flaky", ...}` — fail transiently twice, then succeed.
/// * anything containing `invalid` — rejected at validation.
struct Stub {
    flaky_failures: AtomicU64,
}

impl Stub {
    fn new() -> Self {
        Stub {
            flaky_failures: AtomicU64::new(2),
        }
    }
}

impl JobRunner for Stub {
    fn validate(&self, spec_text: &str) -> Result<(), String> {
        if spec_text.contains("invalid") {
            Err("unparseable spec".into())
        } else {
            Ok(())
        }
    }

    fn run(
        &self,
        spec_text: &str,
        _paths: &JobPaths,
        _attempt: u32,
        cancel: &Arc<AtomicBool>,
    ) -> Result<String, RunError> {
        if spec_text.contains("\"slow\"") {
            for _ in 0..50 {
                if cancel.load(Ordering::SeqCst) {
                    return Err(RunError::Interrupted);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        if spec_text.contains("\"flaky\"") && self.flaky_failures.load(Ordering::SeqCst) > 0 {
            self.flaky_failures.fetch_sub(1, Ordering::SeqCst);
            return Err(RunError::Transient("synthetic io error".into()));
        }
        Ok(format!("done:{spec_text}"))
    }
}

fn config(dir: &std::path::Path) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_cap: 1,
        max_conns: 8,
        read_timeout_ms: 300,
        write_timeout_ms: 1_000,
        retry: RetryPolicy {
            max_attempts: 3,
            base_ms: 1,
            cap_ms: 5,
            seed: 11,
        },
        data_dir: dir.to_path_buf(),
    }
}

const T: Duration = Duration::from_secs(2);

fn wait_ready(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Ok(r) = request(addr, "GET", "/readyz", None, T) {
            if r.status == 200 {
                return;
            }
        }
        assert!(Instant::now() < deadline, "server never became ready");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn poll_done(addr: &str, id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let r = request(addr, "GET", &format!("/jobs/{id}/result"), None, T).unwrap();
        if r.status == 200 {
            return r.body_text();
        }
        assert!(
            Instant::now() < deadline,
            "job {id} never finished (last: {} {})",
            r.status,
            r.body_text()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn extract_id(body: &str) -> String {
    let marker = "\"id\":\"";
    let start = body.find(marker).expect("id in response") + marker.len();
    body[start..start + 16].to_string()
}

#[test]
fn submit_runs_to_a_served_result() {
    let dir = temp_dir("happy");
    let server = Server::start(config(&dir), Box::new(Stub::new())).unwrap();
    let addr = server.local_addr().to_string();
    wait_ready(&addr);

    assert_eq!(
        request(&addr, "GET", "/healthz", None, T).unwrap().status,
        200
    );
    let spec = "{\"work\":\"ok\",\"n\":1}";
    let accepted = request(&addr, "POST", "/jobs", Some(spec.as_bytes()), T).unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.body_text());
    let id = extract_id(&accepted.body_text());
    let result = poll_done(&addr, &id);
    assert_eq!(result, format!("done:{spec}"));

    // Resubmitting the same bytes is answered from the stored result.
    let again = request(&addr, "POST", "/jobs", Some(spec.as_bytes()), T).unwrap();
    assert_eq!(again.status, 200, "{}", again.body_text());
    assert!(again.body_text().contains("\"state\":\"done\""));

    // Metrics reflect the life so far.
    let metrics = request(&addr, "GET", "/metrics", None, T)
        .unwrap()
        .body_text();
    assert!(
        metrics.contains("triosim_server_jobs_total{event=\"accepted\"} 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("triosim_server_jobs_total{event=\"completed\"} 1"),
        "{metrics}"
    );

    server.drain();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn one_result_request_waits_for_a_running_job() {
    let dir = temp_dir("held");
    let server = Server::start(config(&dir), Box::new(Stub::new())).unwrap();
    let addr = server.local_addr().to_string();
    wait_ready(&addr);

    // The slow job takes ~500 ms, inside the server's hold.
    let spec = "{\"work\":\"slow\",\"n\":5}";
    let accepted = request(&addr, "POST", "/jobs", Some(spec.as_bytes()), T).unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.body_text());
    let id = extract_id(&accepted.body_text());
    let r = request(&addr, "GET", &format!("/jobs/{id}/result"), None, T).unwrap();
    assert_eq!(r.status, 200, "{}", r.body_text());
    assert_eq!(r.body_text(), format!("done:{spec}"));

    server.drain();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_drain_answers_a_held_result_request_promptly() {
    let dir = temp_dir("held-drain");
    let server = Server::start(config(&dir), Box::new(Stub::new())).unwrap();
    let addr = server.local_addr().to_string();
    wait_ready(&addr);

    let spec = "{\"work\":\"slow\",\"n\":6}";
    let accepted = request(&addr, "POST", "/jobs", Some(spec.as_bytes()), T).unwrap();
    let id = extract_id(&accepted.body_text());
    let held = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let r = request(&addr, "GET", &format!("/jobs/{id}/result"), None, T).unwrap();
            (r, Instant::now())
        })
    };
    // Drain once the server holds the request: the held one plus this
    // metrics request are both active. A drain that lands before the
    // handler waits is answered at once, like one that wakes it.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !request(&addr, "GET", "/metrics", None, T)
        .unwrap()
        .body_text()
        .contains("triosim_server_active_connections 2")
    {
        assert!(
            Instant::now() < deadline,
            "the result request never arrived"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let drained = Instant::now();
    server.drain();
    let (r, answered) = held.join().unwrap();
    assert_eq!(r.status, 409, "{}", r.body_text());
    let waited = answered.saturating_duration_since(drained);
    assert!(
        waited < Duration::from_millis(200),
        "held {waited:?} past the drain"
    );
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_server_on_the_unspecified_address_drains_and_joins() {
    let dir = temp_dir("unspecified");
    let server = Server::start(
        ServerConfig {
            addr: "0.0.0.0:0".into(),
            ..config(&dir)
        },
        Box::new(Stub::new()),
    )
    .unwrap();
    let addr = format!("127.0.0.1:{}", server.local_addr().port());
    wait_ready(&addr);

    // Joined on another thread, so a drain that never wakes the accept
    // fails here instead of hanging the suite.
    let (tx, rx) = std::sync::mpsc::channel();
    let drained = std::thread::spawn(move || {
        server.drain();
        server.join();
        tx.send(()).ok();
    });
    rx.recv_timeout(Duration::from_secs(2))
        .expect("drain woke the accept loop and the server joined");
    drained.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overload_sheds_with_429_retry_after_on_the_wire() {
    let dir = temp_dir("shed");
    // queue_cap 1, workers 1: a slow job occupies the worker while a
    // second fills the queue; the third must shed.
    let server = Server::start(config(&dir), Box::new(Stub::new())).unwrap();
    let addr = server.local_addr().to_string();
    wait_ready(&addr);

    let slow = "{\"work\":\"slow\",\"n\":1}";
    assert_eq!(
        request(&addr, "POST", "/jobs", Some(slow.as_bytes()), T)
            .unwrap()
            .status,
        202
    );
    // Distinct specs → distinct job ids → real queue pressure.
    let mut shed = None;
    for n in 2..20 {
        let spec = format!("{{\"work\":\"ok\",\"n\":{n}}}");
        let sent = Instant::now();
        let r = request(&addr, "POST", "/jobs", Some(spec.as_bytes()), T).unwrap();
        if r.status == 429 {
            shed = Some((r, sent.elapsed()));
            break;
        }
        assert_eq!(r.status, 202);
    }
    let (shed, latency) = shed.expect("a submission was shed under queue pressure");
    // Shedding is graceful only if a rejection is far cheaper than service.
    assert!(
        latency < Duration::from_millis(500),
        "a 429 took {latency:?}"
    );
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert!(
        shed.body_text().contains("queue full"),
        "{}",
        shed.body_text()
    );

    server.drain();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flaky_jobs_retry_to_success_and_count_it() {
    let dir = temp_dir("flaky");
    let server = Server::start(config(&dir), Box::new(Stub::new())).unwrap();
    let addr = server.local_addr().to_string();
    wait_ready(&addr);

    let spec = "{\"work\":\"flaky\",\"n\":1}";
    let accepted = request(&addr, "POST", "/jobs", Some(spec.as_bytes()), T).unwrap();
    let id = extract_id(&accepted.body_text());
    let result = poll_done(&addr, &id);
    assert_eq!(result, format!("done:{spec}"));
    let (_, _, retried, _, dead, completed) = server.counter_snapshot();
    assert_eq!(retried, 2, "two transient failures were retried");
    assert_eq!(dead, 0);
    assert_eq!(completed, 1);

    server.drain();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_specs_get_a_structured_400() {
    let dir = temp_dir("invalid");
    let server = Server::start(config(&dir), Box::new(Stub::new())).unwrap();
    let addr = server.local_addr().to_string();
    wait_ready(&addr);
    let r = request(&addr, "POST", "/jobs", Some(b"totally invalid"), T).unwrap();
    assert_eq!(r.status, 400);
    assert!(r.body_text().contains("unparseable spec"));
    server.drain();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn slow_loris_clients_are_dropped_with_408() {
    let dir = temp_dir("loris");
    let server = Server::start(config(&dir), Box::new(Stub::new())).unwrap();
    let addr = server.local_addr().to_string();
    wait_ready(&addr);

    // Send half a request line and stall past the 300 ms read deadline.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(b"GET /healthz HT").unwrap();
    std::thread::sleep(Duration::from_millis(600));
    let mut buf = Vec::new();
    std::io::Read::read_to_end(&mut stream, &mut buf).ok();
    let text = String::from_utf8_lossy(&buf);
    assert!(
        text.starts_with("HTTP/1.1 408"),
        "slow client got: {text:?}"
    );

    // The server is still fully alive afterwards.
    assert_eq!(
        request(&addr, "GET", "/healthz", None, T).unwrap().status,
        200
    );
    server.drain();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drain_then_restart_recovers_the_interrupted_job() {
    let dir = temp_dir("recover");

    // Life 1: admit a slow job, drain while it runs.
    let server = Server::start(config(&dir), Box::new(Stub::new())).unwrap();
    let addr = server.local_addr().to_string();
    wait_ready(&addr);
    let spec = "{\"work\":\"slow\",\"n\":42}";
    let accepted = request(&addr, "POST", "/jobs", Some(spec.as_bytes()), T).unwrap();
    assert_eq!(accepted.status, 202);
    let id = extract_id(&accepted.body_text());
    // Give the worker a moment to start, then drain mid-run.
    std::thread::sleep(Duration::from_millis(50));
    server.drain();
    server.join();

    // Life 2: same data dir. Recovery requeues the job; the stub's slow
    // path completes this time (no drain).
    let server = Server::start(config(&dir), Box::new(Stub::new())).unwrap();
    let addr = server.local_addr().to_string();
    wait_ready(&addr);
    let result = poll_done(&addr, &id);
    assert_eq!(result, format!("done:{spec}"));
    let (_, _, _, recovered, _, _) = server.counter_snapshot();
    assert_eq!(recovered, 1, "exactly the interrupted job was recovered");

    server.drain();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn job_state_survives_across_lives_on_disk_alone() {
    let dir = temp_dir("disk-state");
    let server = Server::start(config(&dir), Box::new(Stub::new())).unwrap();
    let addr = server.local_addr().to_string();
    wait_ready(&addr);
    let spec = "{\"work\":\"ok\",\"n\":7}";
    let id = extract_id(
        &request(&addr, "POST", "/jobs", Some(spec.as_bytes()), T)
            .unwrap()
            .body_text(),
    );
    poll_done(&addr, &id);
    server.drain();
    server.join();

    // A fresh life with an empty in-memory map still serves the result.
    let server = Server::start(config(&dir), Box::new(Stub::new())).unwrap();
    let addr = server.local_addr().to_string();
    wait_ready(&addr);
    let r = request(&addr, "GET", &format!("/jobs/{id}/result"), None, T).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.body_text(), format!("done:{spec}"));
    let (_, _, _, recovered, _, _) = server.counter_snapshot();
    assert_eq!(recovered, 0, "terminal jobs are not requeued");
    server.drain();
    server.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A zero count is refused with `InvalidInput`, naming its field, before
/// the server binds or opens its store: the address is taken, so a bind
/// would fail differently, and the data dir is never created.
#[test]
fn zero_counts_are_refused_before_binding() {
    let dir = std::env::temp_dir().join(format!("triosim-server-zero-{}", std::process::id()));
    let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let base = ServerConfig {
        addr: taken.local_addr().unwrap().to_string(),
        ..config(&dir)
    };
    let zeroes = [
        (
            "workers",
            ServerConfig {
                workers: 0,
                ..base.clone()
            },
        ),
        (
            "queue_cap",
            ServerConfig {
                queue_cap: 0,
                ..base.clone()
            },
        ),
        (
            "max_conns",
            ServerConfig {
                max_conns: 0,
                ..base.clone()
            },
        ),
        (
            "read_timeout_ms",
            ServerConfig {
                read_timeout_ms: 0,
                ..base.clone()
            },
        ),
        (
            "write_timeout_ms",
            ServerConfig {
                write_timeout_ms: 0,
                ..base.clone()
            },
        ),
        (
            "retry.max_attempts",
            ServerConfig {
                retry: RetryPolicy {
                    max_attempts: 0,
                    ..base.retry.clone()
                },
                ..base.clone()
            },
        ),
    ];
    for (field, config) in zeroes {
        let err = Server::start(config, Box::new(Stub::new())).unwrap_err();
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidInput,
            "{field}: {err}"
        );
        assert_eq!(
            err.to_string(),
            format!("ServerConfig::{field} must be at least 1")
        );
    }
    assert!(!dir.exists(), "{} was created", dir.display());
}
