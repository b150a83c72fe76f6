//! Set-up allocations: tracing the 18 Fig 14 models is the set-up of
//! every Fig 14 run, and its cost follows its heap allocations. This
//! binary's global allocator counts the allocations of the thread that
//! switched counting on, so the test harness's other threads never leak
//! into the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use triosim_modelzoo::ModelId;
use triosim_trace::{GpuModel, Tracer};

thread_local! {
    // `const`-initialized and without a destructor, so the allocator can
    // read it without allocating. `None` while counting is off.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations this thread made
/// inside it (reallocations included).
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|c| c.set(Some(0)));
    let out = f();
    let n = ALLOCS.with(|c| c.replace(None)).unwrap_or(0);
    (out, n)
}

#[test]
fn tracing_the_fig14_models_stays_under_its_allocation_budget() {
    let tracer = Tracer::new(GpuModel::A100);
    let mut allocs = 0;
    let mut ops = 0;
    for model in ModelId::ALL {
        let batch = if model == ModelId::Llama32_1B {
            16
        } else {
            128
        };
        let graph = model.build(batch);
        let (trace, n) = counted(|| tracer.trace(&graph));
        allocs += n;
        ops += trace.entries().len();
    }
    assert_eq!(ops, 10_268, "the Fig 14 traces changed");
    println!("{allocs} allocations over {ops} ops");
    assert!(allocs <= 45_000, "{allocs} allocations tracing Fig 14");
}
