//! Service-layer benchmark: what does wrapping a sweep in
//! `triosim-cli serve` cost, and how fast does the service degrade and
//! recover? Three measurements, each asserted against a loose gate so a
//! regression fails loudly long before it is a production incident:
//!
//! * **Service overhead** — submit→result wall time for a small sweep
//!   versus running the identical sweep in-process. The service adds
//!   HTTP framing, journaling, checkpointing, and queue hops; the gate
//!   only requires the *result bytes* to be identical and the overhead
//!   to stay within an order of magnitude of the raw run.
//! * **Shed latency** — how quickly an overloaded server says 429. Load
//!   shedding is only graceful if rejection is much cheaper than
//!   service, so the median 429 must return in well under a second.
//! * **Recovery time** — drain a server mid-job (the graceful twin of
//!   SIGKILL; both leave the same durable state), restart on the same
//!   data directory, and measure start→result. The journal means
//!   recovery re-simulates only unfinished scenarios.
//!
//! Results land in `results/BENCH_server.json`, which CI uploads as an
//! artifact.

use std::time::{Duration, Instant};

use triosim::{run_sweep, SweepJobRunner, SweepSpec};
use triosim_bench::Summary;
use triosim_server::{request, HttpResponse, JobStore, RetryPolicy, Server, ServerConfig};

const T: Duration = Duration::from_secs(5);

/// A small but non-trivial sweep: 4 scenarios, single iteration each.
const SMALL_SPEC: &str = r#"{
    "name": "bench-server-small",
    "defaults": { "model": "vgg11", "trace_batch": 8, "gpu": "A40",
                   "platform": "p2:2", "parallelism": "ddp" },
    "grid": { "trace_batch": [8, 16, 24, 32] }
}"#;

/// A job of several scenarios, so a drain after its first journal entry
/// interrupts it mid-flight.
const SLOW_SPEC: &str = r#"{
    "name": "bench-server-slow",
    "defaults": { "model": "vgg11", "trace_batch": 8, "gpu": "A40",
                   "platform": "p2:2", "parallelism": "ddp", "iterations": 200 },
    "grid": { "trace_batch": [8, 16, 24, 32, 40, 48] }
}"#;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("triosim-bench-server-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn config(dir: &std::path::Path, queue_cap: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_cap,
        max_conns: 32,
        read_timeout_ms: 2_000,
        write_timeout_ms: 2_000,
        retry: RetryPolicy::default(),
        data_dir: dir.to_path_buf(),
    }
}

fn runner() -> SweepJobRunner {
    SweepJobRunner {
        threads: 1,
        checkpoint_every: 1,
        max_events: None,
        max_sim_time_us: None,
        wall_timeout_ms: None,
    }
}

fn wait_ready(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(r) = request(addr, "GET", "/readyz", None, T) {
            if r.status == 200 {
                return;
            }
        }
        assert!(Instant::now() < deadline, "server never became ready");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn submit(addr: &str, spec: &str) -> HttpResponse {
    request(addr, "POST", "/jobs", Some(spec.as_bytes()), T).expect("submit reaches the server")
}

fn job_id(response: &HttpResponse) -> String {
    let body = response.body_text();
    let marker = "\"id\":\"";
    let start = body.find(marker).expect("submit response carries an id") + marker.len();
    body[start..start + 16].to_string()
}

fn poll_result(addr: &str, id: &str, deadline: Duration) -> Vec<u8> {
    let end = Instant::now() + deadline;
    loop {
        let r = request(addr, "GET", &format!("/jobs/{id}/result"), None, T)
            .expect("poll reaches the server");
        if r.status == 200 {
            return r.body;
        }
        assert!(
            Instant::now() < end,
            "job {id} did not finish in {deadline:?} (last: {} {})",
            r.status,
            r.body_text()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let mut summary = Summary::new("BENCH_server");

    // ---- 1. service overhead vs an in-process sweep ----
    let spec = SweepSpec::from_json(SMALL_SPEC).expect("small spec parses");
    let raw_start = Instant::now();
    let raw = run_sweep(&spec, 1, false)
        .expect("in-process sweep runs")
        .to_canonical_string();
    let raw_s = raw_start.elapsed().as_secs_f64();

    let dir = temp_dir("overhead");
    let server = Server::start(config(&dir, 64), Box::new(runner())).expect("server starts");
    let addr = server.local_addr().to_string();
    wait_ready(&addr);

    const ROUNDS: usize = 5;
    let mut served_s = Vec::with_capacity(ROUNDS);
    let mut served_bytes = Vec::new();
    for round in 0..ROUNDS {
        // Distinct name per round → distinct job id → no cached result.
        let spec_text = SMALL_SPEC.replace("bench-server-small", &format!("bench-sv-{round}"));
        let t = Instant::now();
        let id = job_id(&submit(&addr, &spec_text));
        served_bytes = poll_result(&addr, &id, Duration::from_secs(60));
        served_s.push(t.elapsed().as_secs_f64());
    }
    // The canonical bytes differ only in the sweep's name field.
    let served_text = String::from_utf8_lossy(&served_bytes)
        .replace(&format!("bench-sv-{}", ROUNDS - 1), "bench-server-small");
    assert_eq!(
        served_text, raw,
        "service must return byte-identical sweep output (modulo the renamed sweep)"
    );
    let served_median_s = median(&mut served_s);
    println!("service submit→result  : {served_median_s:.3}s (raw in-process {raw_s:.3}s)");
    summary.num("raw_sweep_s", raw_s);
    summary.num("served_submit_to_result_s", served_median_s);
    summary.num("service_overhead_s", served_median_s - raw_s);
    server.drain();
    server.join();
    std::fs::remove_dir_all(&dir).ok();

    // ---- 2. shed latency under burst ----
    let dir = temp_dir("shed");
    let server = Server::start(config(&dir, 1), Box::new(runner())).expect("server starts");
    let addr = server.local_addr().to_string();
    wait_ready(&addr);
    // Occupy the single worker, then fill the 1-slot queue.
    submit(&addr, SLOW_SPEC);
    let mut accepted = 1u64;
    let mut shed_latencies = Vec::new();
    for n in 0..24 {
        let spec_text = SMALL_SPEC.replace("bench-server-small", &format!("bench-burst-{n}"));
        let t = Instant::now();
        let r = submit(&addr, &spec_text);
        let dt = t.elapsed().as_secs_f64();
        match r.status {
            202 => accepted += 1,
            429 => shed_latencies.push(dt),
            other => panic!("burst submission got unexpected status {other}"),
        }
    }
    assert!(
        !shed_latencies.is_empty(),
        "a 24-job burst against queue_cap=1 must shed"
    );
    let shed_median_s = median(&mut shed_latencies.clone());
    println!(
        "shed latency           : {:.1}ms median over {} sheds ({} accepted)",
        shed_median_s * 1e3,
        shed_latencies.len(),
        accepted
    );
    assert!(
        shed_median_s < 0.5,
        "shedding must be fast (got {shed_median_s:.3}s median)"
    );
    summary.num("shed_median_s", shed_median_s);
    summary.int("burst_shed", shed_latencies.len() as u64);
    summary.int("burst_accepted", accepted);
    server.drain();
    server.join();
    std::fs::remove_dir_all(&dir).ok();

    // ---- 3. recovery time after an interrupted job ----
    let dir = temp_dir("recover");
    let server = Server::start(config(&dir, 8), Box::new(runner())).expect("server starts");
    let addr = server.local_addr().to_string();
    wait_ready(&addr);
    let id = job_id(&submit(&addr, SLOW_SPEC));
    // Interrupt the job once its journal holds a header and an entry.
    let journal = JobStore::open(&dir)
        .expect("job store opens")
        .paths(&id)
        .journal();
    let end = Instant::now() + Duration::from_secs(60);
    while std::fs::read_to_string(&journal).map_or(0, |t| t.matches('\n').count()) < 2 {
        assert!(Instant::now() < end, "job {id} journaled no scenario");
        std::thread::sleep(Duration::from_millis(2));
    }
    server.drain();
    server.join();

    let t = Instant::now();
    let server = Server::start(config(&dir, 8), Box::new(runner())).expect("server restarts");
    let addr = server.local_addr().to_string();
    wait_ready(&addr);
    let recovered_bytes = poll_result(&addr, &id, Duration::from_secs(120));
    let recovery_s = t.elapsed().as_secs_f64();
    let (_, _, _, recovered, _, _) = server.counter_snapshot();
    println!("recovery start→result  : {recovery_s:.3}s ({recovered} job recovered)");
    assert_eq!(recovered, 1, "the interrupted job must be recovered");

    // The recovered result matches a clean offline run of the same spec.
    let slow = SweepSpec::from_json(SLOW_SPEC).expect("slow spec parses");
    let offline = run_sweep(&slow, 1, false)
        .expect("offline slow sweep runs")
        .to_canonical_string();
    assert_eq!(
        String::from_utf8_lossy(&recovered_bytes),
        offline,
        "recovered result must be byte-identical to an uninterrupted run"
    );
    println!("recovered result       : byte-identical to offline sweep");
    summary.num("recovery_start_to_result_s", recovery_s);
    summary.int("recovered_jobs", recovered);
    server.drain();
    server.join();
    std::fs::remove_dir_all(&dir).ok();

    summary.finish();
}
