//! Collective schedules: who sends what to whom, in which step.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A logical rank within a collective group (0-based).
///
/// Ranks are *logical*: the simulator maps them onto physical GPU nodes,
/// so the same schedule serves any topology.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct Rank(pub usize);

impl fmt::Display for Rank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rank{}", self.0)
    }
}

/// One point-to-point transfer within a collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommTask {
    /// Sending rank.
    pub src: Rank,
    /// Receiving rank.
    pub dst: Rank,
    /// Payload size in bytes.
    pub bytes: u64,
}

/// The collective operation a schedule implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollectiveKind {
    /// Reduce + broadcast of the reduction: every rank ends with the sum.
    AllReduce,
    /// Each rank ends with every rank's shard.
    AllGather,
}

impl CollectiveKind {
    /// Stable lower-case name, used as a metric label and span tag by
    /// the observability layer.
    pub fn name(&self) -> &'static str {
        match self {
            CollectiveKind::AllReduce => "allreduce",
            CollectiveKind::AllGather => "allgather",
        }
    }
}

impl fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A stepped schedule of point-to-point transfers implementing one
/// collective.
///
/// Transfers within a step run concurrently; a step starts only after the
/// previous step fully completes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectiveSchedule {
    kind: CollectiveKind,
    ranks: usize,
    payload_bytes: u64,
    steps: Vec<Vec<CommTask>>,
}

impl CollectiveSchedule {
    fn new(
        kind: CollectiveKind,
        ranks: usize,
        payload_bytes: u64,
        steps: Vec<Vec<CommTask>>,
    ) -> Self {
        CollectiveSchedule {
            kind,
            ranks,
            payload_bytes,
            steps,
        }
    }

    /// The collective this schedule implements.
    pub fn kind(&self) -> CollectiveKind {
        self.kind
    }

    /// Number of participating ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// The logical payload size (the buffer being reduced/gathered).
    pub fn payload_bytes(&self) -> u64 {
        self.payload_bytes
    }

    /// The synchronous steps.
    pub fn steps(&self) -> &[Vec<CommTask>] {
        &self.steps
    }

    /// Number of steps.
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Total bytes sent by one rank across all steps.
    pub fn bytes_sent_by(&self, rank: Rank) -> u64 {
        self.steps
            .iter()
            .flatten()
            .filter(|t| t.src == rank)
            .map(|t| t.bytes)
            .sum()
    }

    /// Total bytes crossing the network.
    pub fn total_bytes(&self) -> u64 {
        self.steps.iter().flatten().map(|t| t.bytes).sum()
    }
}

fn shard(bytes: u64, n: usize) -> u64 {
    // Ceil so no payload is lost to rounding; NCCL pads the same way.
    bytes.div_ceil(n as u64).max(1)
}

fn check_group(n: usize) {
    assert!(n >= 2, "collectives need at least two ranks, got {n}");
}

/// Ring AllReduce: `n-1` reduce-scatter steps followed by `n-1`
/// all-gather steps; every step, every rank sends one `B/n` shard to its
/// right neighbour.
///
/// # Panics
///
/// Panics if `ranks < 2` or `bytes == 0`.
pub fn ring_all_reduce(ranks: usize, bytes: u64) -> CollectiveSchedule {
    check_group(ranks);
    assert!(bytes > 0, "empty AllReduce payload");
    let chunk = shard(bytes, ranks);
    let mut steps = Vec::with_capacity(2 * (ranks - 1));
    for _phase_step in 0..2 * (ranks - 1) {
        let tasks = (0..ranks)
            .map(|i| CommTask {
                src: Rank(i),
                dst: Rank((i + 1) % ranks),
                bytes: chunk,
            })
            .collect();
        steps.push(tasks);
    }
    CollectiveSchedule::new(CollectiveKind::AllReduce, ranks, bytes, steps)
}

/// Unsegmented ring AllReduce, as described in §2 of the paper: "each
/// node passes on its data to the next node and simultaneously receives
/// data from the previous node" until everyone holds the aggregate —
/// i.e. `2(n-1)` steps in which every rank forwards the *full* buffer
/// (no 1/n segmentation). This is the collective the wafer-scale case
/// study uses; NCCL's segmented ring is [`ring_all_reduce`].
///
/// # Panics
///
/// Panics if `ranks < 2` or `bytes == 0`.
pub fn ring_all_reduce_unsegmented(ranks: usize, bytes: u64) -> CollectiveSchedule {
    check_group(ranks);
    assert!(bytes > 0, "empty AllReduce payload");
    let steps = (0..2 * (ranks - 1))
        .map(|_| {
            (0..ranks)
                .map(|i| CommTask {
                    src: Rank(i),
                    dst: Rank((i + 1) % ranks),
                    bytes,
                })
                .collect()
        })
        .collect();
    CollectiveSchedule::new(CollectiveKind::AllReduce, ranks, bytes, steps)
}

/// Binomial-tree AllReduce: `ceil(log2 n)` reduce steps to rank 0, then
/// `ceil(log2 n)` broadcast steps back out, each transfer carrying the
/// full buffer. Fewer steps than the ring (latency-optimal) at the cost
/// of `O(B log n)` volume per run (bandwidth-suboptimal) — the classic
/// small-message/large-message trade-off the ablation bench explores.
///
/// # Panics
///
/// Panics if `ranks < 2` or `bytes == 0`.
pub fn tree_all_reduce(ranks: usize, bytes: u64) -> CollectiveSchedule {
    check_group(ranks);
    assert!(bytes > 0, "empty AllReduce payload");
    let levels = usize::BITS - (ranks - 1).leading_zeros(); // ceil(log2 n)
    let mut steps: Vec<Vec<CommTask>> = Vec::new();
    // Reduce: at level l, ranks with bit l set (and lower bits clear)
    // send to their partner with that bit cleared.
    for l in 0..levels {
        let stride = 1usize << l;
        let tasks: Vec<CommTask> = (0..ranks)
            .filter(|r| r % (2 * stride) == stride)
            .map(|r| CommTask {
                src: Rank(r),
                dst: Rank(r - stride),
                bytes,
            })
            .collect();
        if !tasks.is_empty() {
            steps.push(tasks);
        }
    }
    // Broadcast: mirror image.
    for l in (0..levels).rev() {
        let stride = 1usize << l;
        let tasks: Vec<CommTask> = (0..ranks)
            .filter(|r| r % (2 * stride) == stride)
            .map(|r| CommTask {
                src: Rank(r - stride),
                dst: Rank(r),
                bytes,
            })
            .collect();
        if !tasks.is_empty() {
            steps.push(tasks);
        }
    }
    CollectiveSchedule::new(CollectiveKind::AllReduce, ranks, bytes, steps)
}

/// Halving–doubling (recursive vector halving/distance doubling)
/// AllReduce: `log2 n` reduce-scatter steps of shrinking payloads
/// followed by `log2 n` all-gather steps — latency `O(log n)` *and*
/// bandwidth-optimal `2 (n-1)/n B` per rank, but each step pairs ranks at
/// power-of-two distances, so it only pays off on topologies with cheap
/// long-range links (switches, hypercubes).
///
/// # Panics
///
/// Panics if `ranks` is not a power of two >= 2 or `bytes == 0`.
pub fn halving_doubling_all_reduce(ranks: usize, bytes: u64) -> CollectiveSchedule {
    check_group(ranks);
    assert!(
        ranks.is_power_of_two(),
        "halving-doubling needs a power-of-two group"
    );
    assert!(bytes > 0, "empty AllReduce payload");
    let levels = ranks.trailing_zeros() as usize;
    let mut steps: Vec<Vec<CommTask>> = Vec::new();
    // Reduce-scatter: at level l every rank exchanges B/2^(l+1) with its
    // partner at distance 2^l.
    for l in 0..levels {
        let stride = 1usize << l;
        let payload = (bytes >> (l + 1)).max(1);
        let tasks: Vec<CommTask> = (0..ranks)
            .map(|r| CommTask {
                src: Rank(r),
                dst: Rank(r ^ stride),
                bytes: payload,
            })
            .collect();
        steps.push(tasks);
    }
    // All-gather: distances shrink back, payloads grow.
    for l in (0..levels).rev() {
        let stride = 1usize << l;
        let payload = (bytes >> (l + 1)).max(1);
        let tasks: Vec<CommTask> = (0..ranks)
            .map(|r| CommTask {
                src: Rank(r),
                dst: Rank(r ^ stride),
                bytes: payload,
            })
            .collect();
        steps.push(tasks);
    }
    CollectiveSchedule::new(CollectiveKind::AllReduce, ranks, bytes, steps)
}

/// Ring all-gather: the second half of ring AllReduce (`n-1` steps).
///
/// # Panics
///
/// Panics if `ranks < 2` or `bytes == 0`.
pub fn ring_all_gather(ranks: usize, bytes: u64) -> CollectiveSchedule {
    check_group(ranks);
    assert!(bytes > 0, "empty AllGather payload");
    let chunk = shard(bytes, ranks);
    let steps = (0..ranks - 1)
        .map(|_| {
            (0..ranks)
                .map(|i| CommTask {
                    src: Rank(i),
                    dst: Rank((i + 1) % ranks),
                    bytes: chunk,
                })
                .collect()
        })
        .collect();
    CollectiveSchedule::new(CollectiveKind::AllGather, ranks, bytes, steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allreduce_volume_formula() {
        // Each rank sends 2 (n-1)/n B bytes.
        for n in [2usize, 4, 8] {
            let b = 1_000_000 * n as u64; // divisible, no rounding noise
            let s = ring_all_reduce(n, b);
            assert_eq!(s.step_count(), 2 * (n - 1));
            let expected = 2 * (n as u64 - 1) * (b / n as u64);
            for r in 0..n {
                assert_eq!(s.bytes_sent_by(Rank(r)), expected, "n={n} rank={r}");
            }
        }
    }

    #[test]
    fn all_gather_is_half_an_allreduce() {
        let n = 4;
        let b = 4_000_000;
        let ag = ring_all_gather(n, b);
        let ar = ring_all_reduce(n, b);
        assert_eq!(ag.step_count(), n - 1);
        assert_eq!(2 * ag.total_bytes(), ar.total_bytes());
        assert_eq!(ag.kind(), CollectiveKind::AllGather);
    }

    #[test]
    fn every_step_is_a_full_ring_rotation() {
        let s = ring_all_reduce(4, 4000);
        for step in s.steps() {
            assert_eq!(step.len(), 4);
            let mut dsts: Vec<usize> = step.iter().map(|t| t.dst.0).collect();
            dsts.sort();
            assert_eq!(dsts, vec![0, 1, 2, 3], "every rank receives each step");
        }
    }

    #[test]
    fn shard_rounds_up() {
        // 10 bytes over 4 ranks: 3-byte shards (ceil), nothing lost.
        let s = ring_all_reduce(4, 10);
        assert_eq!(s.steps()[0][0].bytes, 3);
    }

    #[test]
    #[should_panic(expected = "at least two ranks")]
    fn single_rank_rejected() {
        let _ = ring_all_reduce(1, 100);
    }

    #[test]
    fn tree_step_count_is_logarithmic() {
        for n in [2usize, 4, 8, 16, 32] {
            let s = tree_all_reduce(n, 1000);
            let levels = (usize::BITS - (n - 1).leading_zeros()) as usize;
            assert_eq!(s.step_count(), 2 * levels, "n={n}");
        }
        // Non-power-of-two group still reduces completely.
        let s = tree_all_reduce(6, 1000);
        assert!(s.step_count() >= 4);
    }

    #[test]
    fn tree_reduces_everything_to_root() {
        // Every non-root rank must send at least once in the reduce half.
        let n = 8;
        let s = tree_all_reduce(n, 100);
        for r in 1..n {
            assert!(s.bytes_sent_by(Rank(r)) >= 100, "rank {r} never sent");
        }
    }

    #[test]
    fn halving_doubling_is_bandwidth_optimal() {
        for n in [2usize, 4, 8, 16] {
            let b = 1 << 20;
            let s = halving_doubling_all_reduce(n, b);
            assert_eq!(s.step_count(), 2 * n.trailing_zeros() as usize);
            // Per-rank volume: 2 sum_{l} B/2^(l+1) = 2 (n-1)/n B.
            let expected = 2 * (n as u64 - 1) * (b / n as u64);
            assert_eq!(s.bytes_sent_by(Rank(0)), expected, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn halving_doubling_rejects_odd_groups() {
        let _ = halving_doubling_all_reduce(6, 100);
    }

    #[test]
    fn unsegmented_moves_n_times_more() {
        let n = 4;
        let b = 4_000_000;
        let seg = ring_all_reduce(n, b);
        let unseg = ring_all_reduce_unsegmented(n, b);
        assert_eq!(unseg.step_count(), seg.step_count());
        assert_eq!(unseg.total_bytes(), seg.total_bytes() * n as u64);
    }

    #[test]
    fn accessors() {
        let s = ring_all_reduce(2, 100);
        assert_eq!(s.kind(), CollectiveKind::AllReduce);
        assert_eq!(s.ranks(), 2);
        assert_eq!(s.payload_bytes(), 100);
        assert_eq!(format!("{}", Rank(2)), "rank2");
    }

    #[test]
    fn kind_names_are_stable_labels() {
        assert_eq!(CollectiveKind::AllReduce.name(), "allreduce");
        assert_eq!(format!("{}", CollectiveKind::AllGather), "allgather");
    }
}
