//! Structured simulation failures.
//!
//! Fault injection turns conditions that a fault-free simulation treats
//! as configuration bugs (and panics on) into runtime outcomes: a link
//! failure can partition the topology mid-run, and a GPU drop-out leaves
//! tasks that can never execute. [`SimError`] is the typed, non-panicking
//! surface for those outcomes. Run budgets (the sweep engine's runaway
//! guards) terminate through the same surface: a scenario that blows its
//! event, sim-time, or wall-clock budget degrades to
//! [`SimError::BudgetExceeded`] instead of pinning its worker.

use std::fmt;

use triosim_des::BudgetKind;

/// A simulation ended early because an injected fault made the remaining
/// work impossible, or because it exceeded its run budget.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A link failure left two transfer endpoints with no connecting
    /// path, so an in-flight or newly started flow could never drain.
    Partitioned {
        /// Source node of the path that no longer exists.
        src: usize,
        /// Destination node of the path that no longer exists.
        dst: usize,
        /// Simulated time (seconds) at which the partition was detected.
        at_s: f64,
    },
    /// A GPU dropped out permanently; compute tasks pinned to it can
    /// never run, so the static task graph cannot complete.
    GpuLost {
        /// The lost GPU rank.
        gpu: usize,
        /// Simulated time (seconds) of the drop-out.
        at_s: f64,
    },
    /// The fault plan references entities the platform does not have, or
    /// carries out-of-domain values. The message names the offending
    /// plan entry.
    InvalidPlan(String),
    /// The run exceeded its [`RunBudget`](triosim_des::RunBudget) on the
    /// named axis. The rendering carries only the configured limit —
    /// never a measured value — so event-count and sim-time terminations
    /// serialize deterministically.
    BudgetExceeded {
        /// The budget axis that tripped.
        kind: BudgetKind,
        /// The configured limit on that axis (events, µs, or ms).
        limit: u64,
    },
    /// A checkpoint snapshot could not be written, read, or applied.
    /// Carries the typed cause; see
    /// [`CheckpointError`](crate::CheckpointError) for the taxonomy (I/O,
    /// corruption, spec mismatch, future format version).
    Checkpoint(crate::checkpoint::CheckpointError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Partitioned { src, dst, at_s } => write!(
                f,
                "network partitioned at t={at_s:.6}s: no path from n{src} to n{dst}"
            ),
            SimError::GpuLost { gpu, at_s } => write!(
                f,
                "gpu {gpu} dropped out at t={at_s:.6}s: its remaining tasks cannot run"
            ),
            SimError::InvalidPlan(msg) => write!(f, "{msg}"),
            SimError::BudgetExceeded { kind, limit } => match kind {
                BudgetKind::Events => {
                    write!(f, "budget exceeded: more than {limit} events delivered")
                }
                BudgetKind::SimTime => {
                    write!(f, "budget exceeded: simulated time passed {limit}us")
                }
                BudgetKind::WallClock => {
                    write!(f, "budget exceeded: wall clock passed {limit}ms")
                }
            },
            SimError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_failure() {
        let e = SimError::Partitioned {
            src: 0,
            dst: 3,
            at_s: 0.5,
        };
        assert_eq!(
            e.to_string(),
            "network partitioned at t=0.500000s: no path from n0 to n3"
        );
        let e = SimError::GpuLost { gpu: 2, at_s: 1.0 };
        assert!(e.to_string().contains("gpu 2 dropped out"));
        let e = SimError::InvalidPlan("invalid fault plan: gpu 9 out of range".into());
        assert!(e.to_string().contains("gpu 9"));
    }

    #[test]
    fn budget_displays_carry_only_the_limit() {
        let cases = [
            (
                BudgetKind::Events,
                "budget exceeded: more than 7 events delivered",
            ),
            (
                BudgetKind::SimTime,
                "budget exceeded: simulated time passed 7us",
            ),
            (
                BudgetKind::WallClock,
                "budget exceeded: wall clock passed 7ms",
            ),
        ];
        for (kind, expected) in cases {
            let e = SimError::BudgetExceeded { kind, limit: 7 };
            assert_eq!(e.to_string(), expected);
        }
    }
}
