//! Warm runs allocate little: a thread keeps the large buffers of its
//! last run for its next one (DESIGN.md §5, "Warm runs"). This binary's
//! global allocator counts, per thread, the bytes of every allocation of
//! 64 KiB or more while counting is on, and the thread's live bytes
//! always. Each test runs on a thread of its own, whose spare starts
//! empty.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use triosim::{execute, LabelText, Parallelism, Platform, RunOptions, SimBuilder, TaskGraph};
use triosim_des::VirtualTime;
use triosim_modelzoo::ModelId;
use triosim_network::{FlowId, FlowNetwork, NetCommand, NetworkModel, NodeId};
use triosim_trace::{GpuModel, Trace, Tracer};

/// The smallest allocation the gate counts.
const LARGE: usize = 64 << 10;

thread_local! {
    // `const`-initialized and without a destructor, so the allocator can
    // read them without allocating, also while the thread exits.
    /// Bytes of large allocations; `None` while counting is off.
    static LARGE_BYTES: Cell<Option<u64>> = const { Cell::new(None) };
    /// Live heap bytes. Signed: a thread may free what another allocated.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn allocated(old: usize, new: usize) {
    let _ = LIVE.try_with(|c| c.set(c.get() + new as i64 - old as i64));
    if new >= LARGE {
        let _ = LARGE_BYTES.try_with(|c| c.set(c.get().map(|n| n + new as u64)));
    }
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only thread-local `Cell`s and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        allocated(0, layout.size());
        // SAFETY: forwarded verbatim.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        allocated(0, layout.size());
        // SAFETY: forwarded verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        allocated(layout.size(), new_size);
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|c| c.set(c.get() - layout.size() as i64));
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the bytes of the large
/// allocations this thread made inside it (reallocations included).
fn large_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    LARGE_BYTES.with(|c| c.set(Some(0)));
    let out = f();
    let n = LARGE_BYTES.with(|c| c.replace(None)).unwrap_or(0);
    (out, n)
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// Runs `f` on a new thread, whose spare starts empty.
fn on_a_new_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::spawn(f)
        .join()
        .expect("the test thread panicked")
}

const DDP: Parallelism = Parallelism::DataParallel { overlap: true };

/// The second run of `ring64`'s scenario (ResNet-50 b128 DDP on `p2:64`,
/// one iteration) on a thread makes at most a third of the first run's
/// large-allocation bytes: the task graph, the executor's per-task
/// tables and the timeline come from the first run's buffers. What the
/// thread keeps afterwards stays within the 64 MiB cap.
#[test]
fn a_warm_ring64_run_makes_a_third_of_the_cold_runs_large_allocations() {
    on_a_new_thread(|| {
        let trace = Tracer::new(GpuModel::A100).trace(&ModelId::ResNet50.build(128));
        let platform = Platform::p2(64);
        let op = || {
            SimBuilder::new(&trace, &platform)
                .parallelism(DDP)
                .global_batch(128 * 64)
                .try_run()
                .expect("the run completes")
                .to_canonical_string()
        };
        let start = live();
        let (cold_report, cold) = large_bytes(op);
        let (warm_report, warm) = large_bytes(op);
        let same = cold_report == warm_report;
        drop((cold_report, warm_report));
        let kept = live() - start;
        println!("large-allocation bytes: cold run {cold}, warm run {warm}; {kept} bytes kept");
        assert!(same, "the warm run's report differs");
        assert!(
            warm * 3 <= cold,
            "the warm run made {warm} bytes of large allocations, over a third of the cold run's {cold}"
        );
        assert!(kept <= 64 << 20, "{kept} bytes kept, over the cap");
    });
}

/// A label that reserves its `.0` bytes in the arena and writes one, so
/// the arena's capacity is never resident.
struct Reserve(usize);

impl LabelText for Reserve {
    fn write_to(&self, out: &mut String) {
        out.reserve(self.0);
        out.push('x');
    }
}

/// A label arena larger than the thread's cap is freed when its graph
/// drops, and one below it is kept.
#[test]
fn a_buffer_over_the_cap_is_freed() {
    on_a_new_thread(|| {
        let build = |reserve: usize| {
            let mut g = TaskGraph::new(1);
            g.barrier(Reserve(reserve), []);
        };
        let start = live();
        build(65 << 20);
        let after_over = live() - start;
        build(8 << 20);
        let after_under = live() - start;
        assert!(
            after_over < 1 << 20,
            "{after_over} bytes kept after a 65 MiB arena dropped"
        );
        assert!(
            after_under >= 8 << 20,
            "only {after_under} bytes kept after an 8 MiB arena dropped"
        );
    });
}

/// A flow network that runs a whole simulation inside its first
/// delivery, as a model that calls back into the simulator could.
#[derive(Debug)]
struct Nesting<'a> {
    inner: FlowNetwork,
    trace: &'a Trace,
    nested: Option<String>,
}

fn small_run(trace: &Trace) -> String {
    let platform = Platform::p2(2);
    SimBuilder::new(trace, &platform)
        .parallelism(DDP)
        .global_batch(16)
        .try_run()
        .expect("the nested run completes")
        .to_canonical_string()
}

impl NetworkModel for Nesting<'_> {
    fn send(
        &mut self,
        now: VirtualTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> (FlowId, Vec<NetCommand>) {
        self.inner.send(now, src, dst, bytes)
    }

    fn deliver(&mut self, flow: FlowId, now: VirtualTime) -> Vec<NetCommand> {
        if self.nested.is_none() {
            self.nested = Some(small_run(self.trace));
        }
        self.inner.deliver(flow, now)
    }

    fn in_flight(&self) -> usize {
        self.inner.in_flight()
    }
}

/// A run started inside another run's `NetworkModel::deliver`, while
/// the outer run holds its buffers, completes, and neither run's report
/// changes: the outer one equals the same model's run with no nested
/// run, and the nested one equals the same run on its own.
#[test]
fn a_run_nested_in_a_delivery_completes() {
    on_a_new_thread(|| {
        let trace = Tracer::new(GpuModel::A100).trace(&ModelId::ResNet18.build(8));
        let platform = Platform::p2(4);
        let graph = SimBuilder::new(&trace, &platform)
            .parallelism(DDP)
            .global_batch(32)
            .build_graph();
        let run = |nested: Option<String>| {
            let mut net = Nesting {
                inner: FlowNetwork::new(platform.topology().clone()),
                trace: &trace,
                nested,
            };
            let report = execute(&graph, &mut net, RunOptions::default())
                .expect("the outer run completes")
                .to_canonical_string();
            (report, net.nested)
        };
        let (outer, nested) = run(None);
        let (plain, _) = run(Some(String::new()));
        let nested = nested.expect("a delivery ran the nested simulation");
        assert!(
            nested == small_run(&trace),
            "the nested run's report differs"
        );
        assert!(outer == plain, "the outer run's report differs");
    });
}
