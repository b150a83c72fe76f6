//! What a simulation holds per task: the peak live heap of one flow-tier
//! run, divided by its graph's task count, against a budget.
//!
//! This binary installs a counting global allocator. Each thread counts
//! its own live bytes and their peak in a `const`-initialised
//! thread-local, so tests running in parallel on other threads do not
//! leak into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use triosim::{Parallelism, Platform, SimBuilder, Task};
use triosim_modelzoo::ModelId;
use triosim_trace::{GpuModel, Tracer};

/// Live heap bytes of this thread and their peak since the last reset.
/// Signed: a thread may free memory another thread allocated.
#[derive(Clone, Copy)]
struct Live {
    now: i64,
    peak: i64,
}

thread_local! {
    // `const`-initialised and without a destructor, so the allocator can
    // read it without allocating, also while the thread exits.
    static LIVE: Cell<Live> = const { Cell::new(Live { now: 0, peak: 0 }) };
}

fn add(bytes: i64) {
    let _ = LIVE.try_with(|c| {
        let mut l = c.get();
        l.now += bytes;
        l.peak = l.peak.max(l.now);
        c.set(l);
    });
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the most live heap bytes this
/// thread held above its starting level while `f` ran.
fn peak_above_start<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let start = LIVE.with(|c| {
        let l = c.get();
        c.set(Live {
            now: l.now,
            peak: l.now,
        });
        l.now
    });
    let out = f();
    (out, LIVE.with(Cell::get).peak - start)
}

/// Peak live heap bytes per graph task that one flow-tier run may hold:
/// the measured 251 B/task plus 10%. The run is ResNet-50 at batch 8,
/// DDP on P2 with 16 A100s, one iteration: 8,459 tasks, 2,127,394 B
/// from graph build to report. Live bytes are the bytes requested, so a
/// vector's unused capacity counts. The run peaked at 399 B/task
/// (3,379,794 B) before the per-task tables were narrowed to 4-byte ids
/// and sentinel times and the per-run copies were dropped.
const PEAK_BYTES_PER_TASK: i64 = 276;

#[test]
fn a_flow_run_holds_a_bounded_heap_per_task() {
    let trace = Tracer::new(GpuModel::A100).trace(&ModelId::ResNet50.build(8));
    let platform = Platform::p2(16);
    let builder = || {
        SimBuilder::new(&trace, &platform)
            .parallelism(Parallelism::DataParallel { overlap: true })
            .global_batch(8 * 16)
    };
    let tasks = builder().build_graph().len() as i64;
    let (report, peak) = peak_above_start(|| builder().run());
    assert_eq!(report.tasks_executed() as i64, tasks);
    let per_task = peak / tasks;
    eprintln!("{tasks} tasks, peak {peak} B, {per_task} B/task");
    assert!(
        per_task <= PEAK_BYTES_PER_TASK,
        "{per_task} B/task at the peak ({peak} B over {tasks} tasks), budget {PEAK_BYTES_PER_TASK}"
    );
}

#[test]
fn a_task_is_40_bytes() {
    assert_eq!(std::mem::size_of::<Task>(), 40);
}
