//! Deterministic mid-run checkpoint/restore.
//!
//! A snapshot captures the complete engine state at a *quiescent
//! iteration boundary* — the instant between two training iterations
//! when the event queue is drained, no flow is in flight, and any
//! pending monitor-tick or fault-arming event has been cancelled (the
//! same boundaries at which steady-state replay synthesizes iterations).
//! At such a boundary the entire simulation reduces to accumulated
//! counters and records: virtual clock, queue statistics, per-GPU busy
//! time, communication intervals, attribution buckets, network link
//! state, and the fault runtime's cursor and counters. Nothing
//! event-shaped needs to be serialized, which is what makes
//! byte-identical resumption possible: a restored run re-arms its
//! monitor tick and next fault exactly the way an uninterrupted run
//! re-arms them after the boundary cancellation in `run_once`.
//!
//! Snapshot size stays proportional to the iteration count, not the
//! event count: communication intervals are stored as their *merged
//! union* (interval union is associative and idempotent, so the final
//! `comm_time_s` is bit-identical), and the per-event timeline is
//! carried as a fixed-size running digest — record count plus the
//! FNV-1a state of the canonical sorted fold — rather than as records.
//! Iterations occupy disjoint, ordered spans of virtual time, so the
//! canonical `(start, end)` sort of the whole run is the concatenation
//! of each iteration's sorted segment, and the sequential fold resumes
//! from the stored state to reproduce `timeline_hash` exactly. The one
//! observable consequence: a *restored* run's timeline *export* (e.g.
//! the Chrome trace) covers only post-restore iterations.
//!
//! # File format
//!
//! One line of JSON, self-describing and versioned:
//!
//! ```json
//! {"checkpoint":"triosim-sim","version":1,"spec_hash":"<hex016>",
//!  "completed":K,"state":{...}}
//! ```
//!
//! `spec_hash` is an FNV-1a fingerprint of everything that determines
//! the engine's trajectory — task graph content, network model
//! configuration, fault plan (post-seed), and deterministic budget axes
//! — but deliberately **excludes** the iteration count and the
//! wall-clock timeout: the state at boundary `K` is independent of
//! how many further iterations the run intends, so a snapshot taken by
//! a short run restores into a longer one (and vice versa).
//!
//! # Crash safety
//!
//! Snapshots are written to a `.tmp` sibling, flushed, fsynced, and
//! atomically renamed over the target — a reader never observes a torn
//! snapshot, only the previous complete one or the new complete one.
//! Restoring against a mismatched spec hash, a future format version,
//! or malformed bytes is a typed [`CheckpointError`], never undefined
//! behavior.

use std::fmt;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize, Value};
use triosim_des::{BudgetProgress, QueueStats, RunBudget, TimeSpan, VirtualTime};
use triosim_faults::FaultPlan;
use triosim_network::{NetCheckpoint, NetworkModel};
use triosim_obs::AttributionState;

use crate::taskgraph::{TaskGraph, TaskId, TaskKind};

/// Magic string identifying a TrioSim simulation snapshot.
pub(crate) const SNAPSHOT_MAGIC: &str = "triosim-sim";
/// Current snapshot format version. Readers reject anything else with
/// [`CheckpointError::UnsupportedVersion`].
pub(crate) const SNAPSHOT_VERSION: u64 = 1;

/// Why a checkpoint could not be written, read, or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The snapshot file could not be read or written.
    Io(String),
    /// The snapshot file exists but its bytes are not a valid snapshot
    /// (bad JSON, wrong magic, missing fields, or state that fails
    /// structural validation against the scenario).
    Corrupt(String),
    /// The snapshot was taken under a different scenario specification
    /// (different graph, network, fault plan, or deterministic budget).
    SpecMismatch {
        /// The hash of the scenario being restored into.
        expected: u64,
        /// The hash recorded in the snapshot.
        found: u64,
    },
    /// The snapshot uses a format version this build does not know.
    UnsupportedVersion {
        /// Version recorded in the file.
        found: u64,
        /// The single version this build supports.
        supported: u64,
    },
    /// The scenario cannot be checkpointed (e.g. its network model does
    /// not expose snapshot state).
    Unsupported(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "snapshot i/o failed: {msg}"),
            CheckpointError::Corrupt(msg) => write!(f, "snapshot corrupt: {msg}"),
            CheckpointError::SpecMismatch { expected, found } => write!(
                f,
                "snapshot was taken under a different scenario (spec hash {found:016x}, \
                 this run is {expected:016x})"
            ),
            CheckpointError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads \
                 version {supported})"
            ),
            CheckpointError::Unsupported(msg) => write!(f, "cannot checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One ongoing link outage, keyed by the directed link's endpoints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub(crate) struct OutageState {
    /// Source node of the failed link.
    pub src: u64,
    /// Destination node of the failed link.
    pub dst: u64,
    /// When the outage began.
    pub since: VirtualTime,
}

/// Fault-runtime position at a quiescent boundary.
///
/// At every boundary the pending fault-arming event has been cancelled
/// (exactly as in an uninterrupted run), so the runtime reduces to the
/// plan cursor plus fired-fault accounting. The restored run re-arms
/// fault `cursor` at `max(at_s, boundary)` — the same instant the
/// uninterrupted run re-arms it after its own boundary cancellation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub(crate) struct FaultState {
    /// Index of the first not-yet-fired timed fault in the sorted plan.
    pub cursor: u64,
    /// Timed faults fired so far.
    pub injected: u64,
    /// Fired faults by kind (degrade, fail, repair, gpu-drop).
    pub injected_by_kind: Vec<u64>,
    /// Per-GPU seconds of compute added by slowdown/jitter dilation,
    /// stored as `f64::to_bits` for bit-exact round-trips.
    pub lost_compute_bits: Vec<u64>,
    /// Link outages open at the boundary, sorted by `(src, dst)`.
    pub outages: Vec<OutageState>,
}

/// Accumulated engine state at a quiescent iteration boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ExecutorState {
    /// Virtual clock at the boundary.
    pub now: VirtualTime,
    /// Event-queue statistics (scheduled/delivered/cancelled/...).
    pub queue: QueueStats,
    /// Event-dispatch counters by kind (compute, flow, tick, fault).
    pub dispatches: Vec<u64>,
    /// Per-GPU accumulated busy time.
    pub gpu_busy: Vec<TimeSpan>,
    /// Communication intervals, stored as their merged union (sorted,
    /// disjoint) — the union is associative, so the final report's
    /// `comm_time_s` is unchanged while the snapshot stays small.
    pub comm_intervals: Vec<(VirtualTime, VirtualTime)>,
    /// Timeline records completed so far (they are not serialized —
    /// only this count and the digest below survive a restore).
    pub timeline_count: u64,
    /// Running FNV-1a state of the canonical sorted timeline fold over
    /// those records; seeds the restored run's `timeline_hash`.
    pub timeline_fnv: u64,
    /// Total bytes moved across the network.
    pub bytes_transferred: u64,
    /// Iteration-end timestamps for iterations `0..completed`.
    pub iter_ends: Vec<VirtualTime>,
    /// Deterministic budget progress (delivered-event count).
    pub budget: BudgetProgress,
    /// Critical-path attribution accumulators.
    pub attr: AttributionState,
    /// Network model state (counters plus per-link bandwidth/up/stats).
    pub net: NetCheckpoint,
    /// Fault runtime, present iff the run has a non-empty fault plan.
    pub faults: Option<FaultState>,
}

/// A complete, versioned snapshot file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct SimSnapshot {
    /// Magic: always [`SNAPSHOT_MAGIC`].
    pub checkpoint: String,
    /// Format version: always [`SNAPSHOT_VERSION`] when written by this
    /// build.
    pub version: u64,
    /// Scenario fingerprint as a zero-padded 16-digit hex string.
    pub spec_hash: String,
    /// Number of iterations fully completed at the boundary.
    pub completed: u64,
    /// The engine state itself.
    pub state: ExecutorState,
}

impl SimSnapshot {
    /// Parses the header's hex spec hash back into the `u64` it encodes.
    pub(crate) fn parsed_spec_hash(&self) -> Result<u64, CheckpointError> {
        u64::from_str_radix(&self.spec_hash, 16).map_err(|_| {
            CheckpointError::Corrupt(format!(
                "spec_hash `{}` is not 16 hex digits",
                self.spec_hash
            ))
        })
    }
}

/// Live checkpointing configuration threaded into the executor.
#[derive(Debug, Clone)]
pub(crate) struct CheckpointConfig {
    /// Snapshot target path (atomically replaced at each boundary write).
    pub path: PathBuf,
    /// Write a snapshot after every `every` completed iterations.
    pub every: usize,
    /// Scenario fingerprint stamped into each snapshot header.
    pub spec_hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

fn fnv_u64(hash: u64, value: u64) -> u64 {
    fnv(hash, &value.to_le_bytes())
}

/// Fingerprints everything that determines the engine's trajectory:
/// task-graph content, network configuration, fault plan (after seed
/// resolution), and the budget's deterministic axes. Excludes iteration
/// count and wall-clock timeout — engine state at a boundary is
/// independent of both.
pub(crate) fn spec_hash(
    graph: &TaskGraph,
    network: &dyn NetworkModel,
    plan: &FaultPlan,
    budget: &RunBudget,
) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv_u64(h, graph.gpus() as u64);
    h = fnv_u64(h, graph.len() as u64);
    for (i, task) in graph.tasks().iter().enumerate() {
        h = fnv(h, graph.label(TaskId(i)).as_bytes());
        match &task.kind {
            TaskKind::Compute { gpu, duration } => {
                h = fnv_u64(h, 1);
                h = fnv_u64(h, *gpu as u64);
                h = fnv_u64(h, duration.as_femtos());
            }
            TaskKind::Transfer { src, dst, bytes } => {
                h = fnv_u64(h, 2);
                h = fnv_u64(h, src.0 as u64);
                h = fnv_u64(h, dst.0 as u64);
                h = fnv_u64(h, *bytes);
            }
            TaskKind::Barrier => h = fnv_u64(h, 3),
        }
        for dep in &task.deps {
            h = fnv_u64(h, dep.0 as u64);
        }
        h = fnv_u64(h, task.layer.map_or(0, |l| 1 + l as u64));
    }
    h = fnv_u64(h, network.spec_fingerprint());
    h = fnv(h, plan.to_json().as_bytes());
    h = fnv_u64(h, budget.deterministic_fingerprint());
    h
}

/// Sibling path the atomic writer stages into before renaming.
fn staging_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Writes `snap` crash-safely: serialize to one JSON line, write to a
/// `.tmp` sibling, flush, fsync, then atomically rename over `path`.
pub(crate) fn write_snapshot(path: &Path, snap: &SimSnapshot) -> Result<(), CheckpointError> {
    let line = serde_json::to_string(snap)
        .map_err(|e| CheckpointError::Corrupt(format!("snapshot failed to serialize: {e}")))?;
    let tmp = staging_path(path);
    let io = |e: std::io::Error| CheckpointError::Io(format!("{}: {e}", tmp.display()));
    let mut file = File::create(&tmp).map_err(io)?;
    file.write_all(line.as_bytes()).map_err(io)?;
    file.write_all(b"\n").map_err(io)?;
    file.flush().map_err(io)?;
    file.sync_all().map_err(io)?;
    drop(file);
    fs::rename(&tmp, path).map_err(|e| {
        CheckpointError::Io(format!(
            "renaming {} over {}: {e}",
            tmp.display(),
            path.display()
        ))
    })
}

/// Reads and structurally validates a snapshot file. Magic and version
/// are checked before the typed parse so a future-format file fails
/// with [`CheckpointError::UnsupportedVersion`] rather than a confusing
/// field error. The caller still owns spec-hash and scenario-shape
/// validation.
pub(crate) fn read_snapshot(path: &Path) -> Result<SimSnapshot, CheckpointError> {
    let text = fs::read_to_string(path)
        .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
    let v: Value = serde_json::from_str(text.trim_end())
        .map_err(|e| CheckpointError::Corrupt(format!("not valid JSON: {e}")))?;
    match v.get("checkpoint") {
        Some(Value::Str(magic)) if magic == SNAPSHOT_MAGIC => {}
        Some(other) => {
            return Err(CheckpointError::Corrupt(format!(
                "magic is {other:?}, expected \"{SNAPSHOT_MAGIC}\""
            )))
        }
        None => {
            return Err(CheckpointError::Corrupt(
                "missing `checkpoint` magic field".to_string(),
            ))
        }
    }
    let version: u64 = match v.get("version").map(u64::from_value) {
        Some(Ok(n)) => n,
        _ => {
            return Err(CheckpointError::Corrupt(
                "missing or non-integer `version` field".to_string(),
            ))
        }
    };
    if version != SNAPSHOT_VERSION {
        return Err(CheckpointError::UnsupportedVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    SimSnapshot::from_value(&v).map_err(|e| CheckpointError::Corrupt(e.to_string()))
}

/// Reads and structurally validates a snapshot file, discarding the
/// parsed state. This is the full untrusted-input path of
/// [`SimBuilder::restore`](crate::SimBuilder::restore) minus the
/// scenario-shape checks — exposed so hardening tests can drive the
/// snapshot deserializer with arbitrary bytes and assert it degrades
/// through typed errors.
///
/// # Errors
///
/// Exactly what restore reports for the same file: [`CheckpointError::Io`]
/// when the file cannot be read, [`CheckpointError::Corrupt`] for
/// malformed bytes, and [`CheckpointError::UnsupportedVersion`] for a
/// future format.
pub fn validate_snapshot_file(path: &Path) -> Result<(), CheckpointError> {
    read_snapshot(path).map(|_| ())
}

/// Startup hygiene: removes stale `.tmp` staging files from a
/// checkpoint directory.
///
/// A crash between `write_snapshot`'s `File::create(tmp)` and its
/// atomic rename leaves the `.tmp` sibling behind. The rename protocol
/// means such a file can never be *read* as a snapshot (restore only
/// opens the final path), but without cleanup it leaks forever — one
/// orphan per crashed scenario. Callers that own a checkpoint
/// directory (the sweep layer's `--checkpoint-dir`, the server's
/// per-job checkpoint dir) call this once before running.
///
/// Only files whose name ends in `.tmp` are touched; completed
/// snapshots are never at risk. Returns the paths removed.
///
/// # Errors
///
/// [`CheckpointError::Io`] when the directory cannot be listed; a file
/// that vanishes mid-scan (a concurrent rename finishing) is skipped,
/// not an error.
pub fn remove_stale_staging(dir: &Path) -> Result<Vec<PathBuf>, CheckpointError> {
    let entries =
        fs::read_dir(dir).map_err(|e| CheckpointError::Io(format!("{}: {e}", dir.display())))?;
    let mut removed = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        let is_tmp = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(".tmp"));
        if is_tmp && path.is_file() && fs::remove_file(&path).is_ok() {
            removed.push(path);
        }
    }
    removed.sort();
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "triosim-ckpt-{tag}-{}-{n}.json",
            std::process::id()
        ))
    }

    fn snapshot() -> SimSnapshot {
        SimSnapshot {
            checkpoint: SNAPSHOT_MAGIC.to_string(),
            version: SNAPSHOT_VERSION,
            spec_hash: format!("{:016x}", 0xdead_beef_u64),
            completed: 3,
            state: ExecutorState {
                now: VirtualTime::from_femtos(42),
                queue: QueueStats::default(),
                dispatches: vec![1, 2, 3, 4],
                gpu_busy: vec![TimeSpan::from_femtos(7); 2],
                comm_intervals: vec![(VirtualTime::from_femtos(1), VirtualTime::from_femtos(2))],
                timeline_count: 6,
                timeline_fnv: 0x1234_5678_9abc_def0,
                bytes_transferred: 99,
                iter_ends: vec![VirtualTime::from_femtos(42)],
                budget: BudgetProgress { events: 10 },
                attr: AttributionState::default(),
                net: NetCheckpoint::default(),
                faults: Some(FaultState {
                    cursor: 1,
                    injected: 1,
                    injected_by_kind: vec![1, 0, 0, 0],
                    lost_compute_bits: vec![0.5_f64.to_bits(), 0],
                    outages: vec![OutageState {
                        src: 0,
                        dst: 1,
                        since: VirtualTime::from_femtos(5),
                    }],
                }),
            },
        }
    }

    #[test]
    fn snapshot_round_trips_through_disk() {
        let path = temp_path("roundtrip");
        let snap = snapshot();
        write_snapshot(&path, &snap).unwrap();
        let back = read_snapshot(&path).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.parsed_spec_hash().unwrap(), 0xdead_beef);
        assert!(
            !staging_path(&path).exists(),
            "staging file is renamed away"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn future_version_is_a_typed_error() {
        let path = temp_path("future");
        let mut snap = snapshot();
        snap.version = SNAPSHOT_VERSION + 41;
        write_snapshot(&path, &snap).unwrap();
        assert_eq!(
            read_snapshot(&path),
            Err(CheckpointError::UnsupportedVersion {
                found: SNAPSHOT_VERSION + 41,
                supported: SNAPSHOT_VERSION,
            })
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_and_garbage_are_corrupt() {
        let path = temp_path("garbage");
        std::fs::write(&path, "{\"checkpoint\":\"not-triosim\",\"version\":1}\n").unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(CheckpointError::Corrupt(_))
        ));
        std::fs::write(&path, "{\"version\"").unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(CheckpointError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io() {
        let path = temp_path("missing");
        assert!(matches!(read_snapshot(&path), Err(CheckpointError::Io(_))));
    }

    #[test]
    fn displays_name_the_cause() {
        let e = CheckpointError::SpecMismatch {
            expected: 1,
            found: 2,
        };
        assert!(e.to_string().contains("different scenario"));
        let e = CheckpointError::UnsupportedVersion {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("version 9"));
    }
}
