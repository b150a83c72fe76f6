//! The host-speed probe. The host this benchmark runs on is shared, and
//! its speed drifts by up to 2x over minutes, far more than any bound a
//! change could be held to. The probe is a fixed kernel of the
//! simulator's kinds of work (an event heap, hashed lookups, a sort),
//! owned by the benchmark so that no change to the program can speed it
//! up. Its time, taken between ops, measures how fast the host is at the
//! moment; the end-to-end timings are scaled by it to a host where the
//! probe takes [`REFERENCE_S`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

use crate::stats::Rng;

/// The probe's typical time on the host the bounds were measured on
/// (2-vCPU "Intel(R) Xeon(R) Processor", 2100 MHz), where it read 15 to
/// 17 ms outside slow phases.
pub const REFERENCE_S: f64 = 0.016;

const HEAP: usize = 60_000;
const KEYS: u64 = 30_000;
const SORTED: usize = 100_000;

/// The probe's buffers, allocated once at full capacity so that a timed
/// run makes no allocator call and cannot pay for an op's freed memory.
#[derive(Debug)]
pub struct Probe {
    heap: BinaryHeap<Reverse<u64>>,
    map: HashMap<u64, u64>,
    source: Vec<(u64, u64)>,
    sorted: Vec<(u64, u64)>,
}

impl Probe {
    pub fn new() -> Self {
        let mut rng = Rng::new(7);
        Probe {
            heap: BinaryHeap::with_capacity(HEAP + 1),
            map: HashMap::with_capacity(KEYS as usize),
            source: (0..SORTED)
                .map(|_| (rng.next_u64(), rng.next_u64()))
                .collect(),
            sorted: Vec::with_capacity(SORTED),
        }
    }

    /// Runs the kernel once; returns its host seconds.
    pub fn time(&mut self) -> f64 {
        let t = Instant::now();
        let mut rng = Rng::new(11);
        let mut acc = 0u64;
        self.heap.clear();
        for _ in 0..HEAP {
            self.heap.push(Reverse(rng.next_u64() >> 20));
        }
        for _ in 0..2 * HEAP {
            let Reverse(at) = self.heap.pop().expect("the heap stays full");
            acc ^= at;
            self.heap.push(Reverse(at + (rng.next_u64() >> 40)));
        }
        self.map.clear();
        for i in 0..HEAP as u64 {
            *self.map.entry(rng.next_u64() % KEYS).or_insert(0) += i;
        }
        for _ in 0..HEAP {
            acc ^= self.map.get(&(rng.next_u64() % KEYS)).copied().unwrap_or(1);
        }
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.source);
        self.sorted.sort_unstable();
        acc ^= self.sorted[SORTED / 2].0;
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kernel reuses its buffers: a second run allocates nothing.
    #[test]
    fn timed_runs_do_not_allocate() {
        let mut p = Probe::new();
        p.time();
        crate::alloc::counting(true);
        let (_, allocs, _) = crate::alloc::measure(|| p.time());
        crate::alloc::counting(false);
        assert_eq!(allocs, 0);
    }
}
