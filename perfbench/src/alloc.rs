//! A counting global allocator: heap allocations and requested bytes,
//! counted per thread and only while that thread has counting switched
//! on, so untraced runs pay one thread-local read per allocation and the
//! server's threads never leak into a traced op's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Whether counting is on, and the allocations and bytes counted.
#[derive(Debug, Clone, Copy)]
struct Counts {
    on: bool,
    allocs: u64,
    bytes: u64,
}

thread_local! {
    // `const`-initialized and without a destructor, so reading it from
    // inside the allocator never allocates and works during thread exit.
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts { on: false, allocs: 0, bytes: 0 })
    };
}

/// The system allocator plus the per-thread counters above.
#[derive(Debug)]
pub struct Counting;

fn count(bytes: usize) {
    let _ = COUNTS.try_with(|c| {
        let mut n = c.get();
        if n.on {
            n.allocs += 1;
            n.bytes += bytes as u64;
            c.set(n);
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches counting on or off for this thread.
pub fn counting(on: bool) {
    COUNTS.with(|c| c.set(Counts { on, ..c.get() }));
}

/// Runs `f` and returns its result with the allocations and bytes this
/// thread made in it (with counting on).
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = COUNTS.with(Cell::get);
    let out = f();
    let after = COUNTS.with(Cell::get);
    (
        out,
        after.allocs - before.allocs,
        after.bytes - before.bytes,
    )
}
