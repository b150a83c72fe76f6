//! A work-stealing scoped thread pool with index-ordered collection.
//!
//! Scenarios in a sweep are mutually independent but wildly uneven in
//! cost (a 2-GPU VGG scenario finishes long before a 16-GPU GPT one), so
//! static chunking would idle most workers behind the slowest shard.
//! Instead every worker claims the next unclaimed scenario index from a
//! shared atomic counter — the claim *is* the steal — and records its
//! result tagged with that index. After the scope joins, results are
//! merged and sorted by index, so the output vector's order (and
//! therefore any serialization of it) is a pure function of the input,
//! never of completion order or thread count.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `worker(i)` for every `i in 0..count` on `threads` OS threads and
/// returns the results in index order.
///
/// The pool spawns at most `count` threads, since a thread with no index
/// to claim would only exit; with one thread (or one item) it degenerates
/// to a plain serial loop on the calling thread — no threads are spawned,
/// so `--threads 1` is a true serial baseline.
///
/// # Panics
///
/// Propagates a panic from `worker` after the scope joins (all other
/// in-flight workers run to completion first).
///
/// # Panic-safety of the claim counter
///
/// The claim discipline is **claim-then-run**: a worker first
/// `fetch_add`s the counter (irrevocably claiming index `i`) and only
/// then calls `worker(i)`. A panic inside `worker(i)` therefore consumes
/// exactly the one index the panicking thread had already claimed — it
/// can never advance the counter past indices nobody claimed, and the
/// surviving threads keep draining the counter until it passes `count`.
/// Because `std::thread::scope` joins every spawned thread even while
/// unwinding, all non-panicking scenarios still run to completion before
/// the panic is propagated to the caller; only their results are
/// discarded with the unwind. Callers that must not lose results on a
/// panic (the sweep engine's default mode) wrap `worker` in
/// `catch_unwind` so the closure itself never panics.
pub fn run_ordered<R, F>(count: usize, threads: NonZeroUsize, worker: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.get().min(count);
    if threads <= 1 {
        return (0..count).map(&worker).collect();
    }
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(count);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                let worker = &worker;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        // Claim before running: see "Panic-safety of the
                        // claim counter" above before reordering this.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            return local;
                        }
                        local.push((i, worker(i)));
                    }
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(local) => tagged.extend(local),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    tagged.sort_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn n(threads: usize) -> NonZeroUsize {
        NonZeroUsize::new(threads).expect("a test pool has threads")
    }

    #[test]
    fn results_are_index_ordered_regardless_of_threads() {
        for threads in [1, 2, 3, 8, 64] {
            let out = run_ordered(37, n(threads), |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let runs = AtomicUsize::new(0);
        let out = run_ordered(100, n(8), |i| {
            runs.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 100);
        assert_eq!(runs.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn zero_items_is_fine() {
        let out: Vec<usize> = run_ordered(0, n(4), |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn a_panicking_task_cannot_starve_unclaimed_indices() {
        use std::sync::atomic::AtomicBool;
        // One scenario panics; every other scenario must still execute
        // (claim-then-run means the panic consumes only its own claimed
        // index, and the scope joins survivors while unwinding).
        const COUNT: usize = 64;
        const POISONED: usize = 5;
        let ran: Vec<AtomicBool> = (0..COUNT).map(|_| AtomicBool::new(false)).collect();
        // Silence the intentional panic's default stderr backtrace.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_ordered(COUNT, n(4), |i| {
                if i == POISONED {
                    panic!("poisoned scenario");
                }
                ran[i].store(true, Ordering::Relaxed);
                i
            })
        }));
        std::panic::set_hook(prev_hook);
        assert!(result.is_err(), "the panic propagates to the caller");
        for (i, flag) in ran.iter().enumerate() {
            assert_eq!(
                flag.load(Ordering::Relaxed),
                i != POISONED,
                "index {i} execution state"
            );
        }
    }

    #[test]
    fn uneven_work_still_collects_in_order() {
        let out = run_ordered(16, n(4), |i| {
            // Early indices sleep longest, so completion order inverts
            // index order under any parallel schedule.
            std::thread::sleep(std::time::Duration::from_millis((16 - i) as u64));
            i
        });
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }
}
