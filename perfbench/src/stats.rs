//! Order statistics, interval arithmetic and the seeded generator the
//! benchmark is built on.

/// The median of `xs` (mean of the middle pair for even lengths), or 0
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points of `xs`, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (its default "exclusive" method), so
/// spreads printed here match the ones an outside checker computes.
/// Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    if xs.len() < 2 {
        return None;
    }
    let mut data = xs.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len() as i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1i64..).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative or past-4 deltas extrapolate, as Python does for very
        // short inputs.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Run-to-run spread: the distance between the first and third quartile
/// as a share of the median. Zero for fewer than two values.
pub fn spread(xs: &[f64]) -> f64 {
    let med = median(xs);
    match quartiles(xs) {
        Some([q1, _, q3]) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// The highest percentile of `xs` that has at least ten samples beyond
/// it: the value with exactly ten larger samples. Runs too short for
/// that (ten samples or fewer) report their maximum. Returns the value
/// and the percentile rank it sits at.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let k = if v.len() > 10 {
        v.len() - 11
    } else {
        v.len() - 1
    };
    (v[k], 100.0 * (k + 1) as f64 / v.len() as f64)
}

/// Total length covered by a set of `[start, end)` intervals, counting
/// overlaps once. Empty or inverted intervals cover nothing.
pub fn union_len(intervals: &[(f64, f64)]) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals.iter().copied().filter(|(a, b)| b > a).collect();
    v.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// A span's self time: its duration minus the part of it that its
/// children cover (children are clipped to the span).
pub fn self_time(span: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(a, b)| (a.max(span.0), b.min(span.1)))
        .collect();
    (span.1 - span.0) - union_len(&clipped)
}

/// SplitMix64: the workload generator. Every input the benchmark makes
/// derives from `--seed` through this, so one seed is one input set.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples 1..=100: ten lie beyond 90, so the tail is p90.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0));
        // 2700 samples: the value with ten larger ones sits at rank 2690.
        let xs: Vec<f64> = (1..=2700).map(f64::from).collect();
        let (v, p) = tail(&xs);
        assert_eq!(v, 2690.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert!((p - 99.63).abs() < 0.01);
        // Exactly eleven samples: the smallest has ten beyond it.
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&xs).0, 1.0);
        // Ten or fewer: no percentile has ten beyond, report the maximum.
        assert_eq!(tail(&[2.0, 7.0, 5.0]), (7.0, 100.0));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Children overlap on [2, 3) and one sticks out past the span:
        // covered = [1, 4) clipped to [0, 5) -> 3, self = 5 - 3.
        let children = [(1.0, 3.0), (2.0, 4.0)];
        assert_eq!(self_time((0.0, 5.0), &children), 2.0);
        assert_eq!(self_time((0.0, 5.0), &[(4.0, 9.0)]), 4.0);
        assert_eq!(self_time((0.0, 5.0), &[]), 5.0);
        // Disjoint children add; nested children count once.
        assert_eq!(union_len(&[(0.0, 1.0), (2.0, 3.0)]), 2.0);
        assert_eq!(union_len(&[(0.0, 4.0), (1.0, 2.0)]), 4.0);
        assert_eq!(union_len(&[(3.0, 1.0)]), 0.0);
    }

    #[test]
    fn generator_is_a_function_of_the_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut v: Vec<u32> = (0..18).collect();
        Rng::new(3).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..18).collect::<Vec<_>>());
    }
}
