//! Bounded exponential backoff with *seeded* jitter.
//!
//! Retrying transiently-failed jobs wants jitter (so a thundering herd of
//! retries decorrelates) but this repository's prime directive is
//! determinism: the same server seed and the same job must always produce
//! the same retry schedule, or a recovered run stops being reproducible
//! and the retry tests stop being assertable. So the jitter is not
//! `rand::random()` — it is a SplitMix64 hash of `(policy seed, job key,
//! attempt)`, which is white enough to decorrelate jobs while being a
//! pure function of its inputs.

/// Retry policy for transiently-failed jobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per job, the first execution included. `1` means
    /// no retries; [`Server::start`](crate::Server::start) refuses `0`.
    pub max_attempts: u32,
    /// Backoff before the first retry, milliseconds (doubles per retry).
    pub base_ms: u64,
    /// Ceiling on any single backoff, milliseconds.
    pub cap_ms: u64,
    /// Jitter seed. Two servers with the same seed schedule identically.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_ms: 100,
            cap_ms: 5_000,
            seed: 0,
        }
    }
}

/// SplitMix64 finalizer: a cheap, well-distributed 64-bit mix.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// Milliseconds to wait before retry number `attempt` (1-based: the
    /// delay after the first failed execution is `attempt == 1`) of the
    /// job identified by `job_key`.
    ///
    /// The delay is `base * 2^(attempt-1)` capped at `cap_ms`, then
    /// jittered into `[delay/2, delay]` deterministically from
    /// `(seed, job_key, attempt)` — full determinism, half-width jitter.
    pub fn backoff_ms(&self, job_key: u64, attempt: u32) -> u64 {
        let exp = self
            .base_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(32))
            .min(self.cap_ms)
            .max(1);
        let h = splitmix64(
            self.seed
                .wrapping_mul(0x1000_0000_01B3)
                .wrapping_add(job_key)
                .wrapping_add(u64::from(attempt) << 48),
        );
        let half = exp / 2;
        half + h % (exp - half + 1)
    }

    /// The whole retry schedule for one job: the delays before retries
    /// `1..max_attempts` (empty when retries are disabled).
    pub fn schedule_ms(&self, job_key: u64) -> Vec<u64> {
        (1..self.max_attempts)
            .map(|attempt| self.backoff_ms(job_key, attempt))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_under_a_fixed_seed() {
        let policy = RetryPolicy {
            seed: 42,
            ..RetryPolicy::default()
        };
        assert_eq!(policy.schedule_ms(7), policy.schedule_ms(7));
        let twin = RetryPolicy {
            seed: 42,
            ..RetryPolicy::default()
        };
        assert_eq!(policy.schedule_ms(7), twin.schedule_ms(7));
    }

    #[test]
    fn different_jobs_and_seeds_decorrelate() {
        let policy = RetryPolicy {
            max_attempts: 6,
            ..RetryPolicy::default()
        };
        assert_ne!(policy.schedule_ms(1), policy.schedule_ms(2));
        let reseeded = RetryPolicy {
            seed: 1,
            ..policy.clone()
        };
        assert_ne!(policy.schedule_ms(1), reseeded.schedule_ms(1));
    }

    #[test]
    fn backoff_grows_exponentially_within_jitter_bounds_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 20,
            base_ms: 100,
            cap_ms: 5_000,
            seed: 3,
        };
        for attempt in 1..20 {
            let exp = (100u64 << (attempt - 1)).min(5_000);
            let d = policy.backoff_ms(9, attempt);
            assert!(
                d >= exp / 2 && d <= exp,
                "attempt {attempt}: {d} outside [{}, {exp}]",
                exp / 2
            );
        }
        // Far past the cap, the shift must not overflow.
        assert!(policy.backoff_ms(9, u32::MAX) <= 5_000);
    }

    #[test]
    fn degenerate_policies_are_safe() {
        let none = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        assert!(none.schedule_ms(1).is_empty());
        let tiny = RetryPolicy {
            base_ms: 0,
            cap_ms: 0,
            max_attempts: 3,
            seed: 0,
        };
        // Zero-width config still yields a sane (>= 0, finite) delay.
        for attempt in 1..3 {
            assert!(tiny.backoff_ms(0, attempt) <= 1);
        }
    }
}
