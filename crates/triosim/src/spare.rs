//! Warm runs: each thread keeps the large buffers of its last run for
//! its next one (DESIGN.md §5, "Warm runs").
//!
//! A run's task graph, label arena, executor and report hold a few
//! buffers that grow with the task count. When one of them drops, it
//! gives its buffers back here, emptied; the next [`TaskGraph::new`] and
//! executor on the same thread take them and refill them instead of
//! allocating, and faulting in, fresh heap. Each slot keeps the larger
//! of what it holds and what it is given, and a thread keeps at most
//! [`CAP_BYTES`] in all.
//!
//! The spare is borrowed only inside [`take`] and [`give`], through
//! `try_with` and `try_borrow_mut`, and neither runs code of a caller
//! while it holds the borrow. A run nested in another run's network
//! call, and a drop during thread teardown, get a new buffer or free
//! their own instead of panicking.
//!
//! [`TaskGraph::new`]: crate::TaskGraph::new

use std::cell::RefCell;
use std::mem;

use triosim_des::VirtualTime;

use crate::report::TimelineEntry;
use crate::taskgraph::Task;

/// The most bytes of capacity one thread keeps between runs. `ring64`'s
/// scenario (ResNet-50 DDP on `p2:64`, 64,571 tasks) keeps 10.8 MB; a
/// DDP ring on `p2:256` needs about 125 MB, keeps what fits and frees
/// the rest, as every run did before runs were warm.
pub(crate) const CAP_BYTES: usize = 64 << 20;

/// A buffer the spare keeps: its capacity in bytes, and how to empty it.
pub(crate) trait Buffer: Default {
    /// Bytes of capacity.
    fn bytes(&self) -> usize;
    /// Empties the buffer, keeping its capacity.
    fn clear(&mut self);
}

impl<T> Buffer for Vec<T> {
    fn bytes(&self) -> usize {
        self.capacity() * mem::size_of::<T>()
    }

    fn clear(&mut self) {
        Vec::clear(self);
    }
}

impl Buffer for String {
    fn bytes(&self) -> usize {
        self.capacity()
    }

    fn clear(&mut self) {
        String::clear(self);
    }
}

/// One empty buffer per slot, and their total capacity.
#[derive(Default)]
pub(crate) struct Spare {
    pub(crate) tasks: Vec<Task>,
    pub(crate) dep_ends: Vec<u32>,
    pub(crate) dep_edges: Vec<u32>,
    pub(crate) label_text: String,
    pub(crate) label_ends: Vec<u32>,
    pub(crate) indegree: Vec<u32>,
    pub(crate) dependent_offsets: Vec<u32>,
    pub(crate) dependents: Vec<u32>,
    pub(crate) attr_start: Vec<VirtualTime>,
    pub(crate) attr_end: Vec<VirtualTime>,
    pub(crate) attr_gpu_pred: Vec<u32>,
    pub(crate) timeline: Vec<TimelineEntry>,
    /// Bytes of capacity the slots hold; never above [`CAP_BYTES`].
    held: usize,
}

/// Names one slot of a [`Spare`].
pub(crate) type Slot<B> = fn(&mut Spare) -> &mut B;

impl Spare {
    /// Empties `slot`, returning what it held.
    fn take<B: Buffer>(&mut self, slot: Slot<B>) -> B {
        let buf = mem::take(slot(self));
        self.held -= buf.bytes();
        buf
    }

    /// Keeps `buf`, emptied, in `slot` when it is larger than what the
    /// slot holds and the total stays within [`CAP_BYTES`]. Returns the
    /// buffer not kept, for the caller to free once the borrow ends.
    fn keep<B: Buffer>(&mut self, slot: Slot<B>, mut buf: B) -> B {
        let (new, old) = (buf.bytes(), slot(self).bytes());
        if new <= old || self.held - old + new > CAP_BYTES {
            return buf;
        }
        buf.clear();
        self.held = self.held - old + new;
        mem::replace(slot(self), buf)
    }
}

thread_local! {
    static SPARE: RefCell<Spare> = RefCell::new(Spare::default());
}

/// This thread's buffer in `slot`, empty, or a new empty one when the
/// slot is empty or the spare is out of reach.
pub(crate) fn take<B: Buffer>(slot: Slot<B>) -> B {
    SPARE
        .try_with(|s| s.try_borrow_mut().ok().map(|mut s| s.take(slot)))
        .ok()
        .flatten()
        .unwrap_or_default()
}

/// [`take`]'s buffer holding `len` copies of `value`. A buffer smaller
/// than `len` grows to exactly `len`, as `vec![value; len]` would be.
pub(crate) fn filled<T: Clone>(slot: Slot<Vec<T>>, len: usize, value: T) -> Vec<T> {
    let mut buf = take(slot);
    buf.reserve_exact(len);
    buf.resize(len, value);
    buf
}

/// Gives `buf` back for this thread's next [`take`] from `slot`. It is
/// freed instead when the slot holds one at least as large, when keeping
/// it would hold more than [`CAP_BYTES`], or when the spare is out of
/// reach.
pub(crate) fn give<B: Buffer>(slot: Slot<B>, buf: B) {
    if buf.bytes() == 0 {
        return;
    }
    // The buffer not kept drops here, after the borrow has ended.
    let _freed = SPARE.try_with(|s| match s.try_borrow_mut() {
        Ok(mut s) => s.keep(slot, buf),
        Err(_) => buf,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `u32` buffer of `bytes` capacity. Nothing is written to it, so
    /// even one over the cap is never resident.
    fn words(bytes: usize) -> Vec<u32> {
        Vec::with_capacity(bytes / 4)
    }

    #[test]
    fn a_buffer_over_the_cap_is_freed() {
        let mut spare = Spare::default();
        let over = spare.keep(|s| &mut s.dependents, words(CAP_BYTES + 4));
        assert_eq!(over.capacity(), CAP_BYTES / 4 + 1);
        assert_eq!(spare.dependents.capacity(), 0);
        assert_eq!(spare.held, 0);
        assert_eq!(
            spare
                .keep(|s| &mut s.dependents, words(CAP_BYTES))
                .capacity(),
            0,
            "a buffer of exactly the cap is kept"
        );
        assert_eq!(spare.held, CAP_BYTES);
    }

    #[test]
    fn retained_capacity_never_exceeds_the_cap() {
        let mut spare = Spare::default();
        let quarter = CAP_BYTES / 4;
        spare.keep(|s| &mut s.indegree, words(2 * quarter));
        spare.keep(|s| &mut s.dependents, words(quarter));
        spare.keep(|s| &mut s.attr_gpu_pred, words(quarter));
        assert_eq!(spare.held, CAP_BYTES);
        // Full: a new buffer, or a slot's growth, is refused.
        let refused = spare.keep(|s| &mut s.dep_edges, words(4));
        assert_eq!(refused.capacity(), 1);
        let refused = spare.keep(|s| &mut s.dependents, words(quarter + 4));
        assert_eq!(refused.capacity(), quarter / 4 + 1);
        assert_eq!(spare.held, CAP_BYTES);
        // Taking gives its bytes back to the budget.
        assert!(spare.take(|s| &mut s.indegree).is_empty());
        assert_eq!(spare.held, 2 * quarter);
        // Growing a slot counts the growth only, and frees the smaller.
        let smaller = spare.keep(|s| &mut s.dependents, words(quarter + 4096));
        assert_eq!(smaller.capacity(), quarter / 4);
        assert_eq!(spare.held, 2 * quarter + 4096);
        // A smaller buffer never replaces a larger one.
        let smaller = spare.keep(|s| &mut s.dependents, words(64));
        assert_eq!(smaller.capacity(), 16);
        // Half the cap no longer fits beside what is held.
        let refused = spare.keep(|s| &mut s.indegree, words(2 * quarter));
        assert_eq!(refused.capacity(), quarter / 2);
        assert_eq!(spare.held, 2 * quarter + 4096);
    }

    #[test]
    fn kept_buffers_come_back_empty() {
        let mut spare = Spare::default();
        spare.keep(|s| &mut s.label_text, String::from("stale label"));
        spare.keep(|s| &mut s.dep_ends, vec![7u32; 1000]);
        let text = spare.take(|s| &mut s.label_text);
        let ends = spare.take(|s| &mut s.dep_ends);
        assert!(text.is_empty() && text.capacity() >= 11);
        assert!(ends.is_empty() && ends.capacity() >= 1000);
        assert_eq!(spare.held, 0);
    }

    #[test]
    fn a_take_while_the_spare_is_borrowed_gets_a_new_buffer() {
        // A thread of its own, so its spare starts empty.
        std::thread::spawn(|| {
            give(|s| &mut s.dependents, vec![1u32; 256]);
            let nested = SPARE.with(|s| {
                let _held = s.borrow_mut();
                // Neither call panics: the give frees its buffer, and the
                // take gets a new one.
                give(|s| &mut s.dependents, vec![2u32; 512]);
                take(|s| &mut s.dependents)
            });
            assert_eq!(nested.capacity(), 0);
            let kept = take(|s| &mut s.dependents);
            assert_eq!((kept.len(), kept.capacity()), (0, 256));
        })
        .join()
        .expect("the test thread panicked");
    }
}
