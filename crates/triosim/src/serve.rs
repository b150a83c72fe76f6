//! The simulator side of `triosim-cli serve`: a [`JobRunner`] that
//! executes submitted sweep specs through [`run_sweep_with`] with the
//! full crash-safety surface wired to the job directory.
//!
//! The `triosim-server` crate owns the daemon (HTTP, queueing, retries,
//! recovery); this module owns only *how a job runs*:
//!
//! * **Journal-or-resume**: the first attempt creates the job's journal;
//!   every later attempt — a retry after a transient failure, or a
//!   restart after a crash — resumes from it, so completed scenarios are
//!   never re-simulated and the final bytes match an uninterrupted run.
//! * **Per-scenario checkpoints** land in the job's `ckpt/` directory,
//!   so even a scenario killed mid-flight restarts from its last
//!   iteration boundary.
//! * **Quota injection**: server-configured `max_events` /
//!   `max_sim_time_us` / `wall_timeout_ms` defaults are merged into the
//!   spec's `defaults` object *before* parsing. Scenario-level values in
//!   the submitted spec always win; injection is deterministic, so the
//!   journal's spec hash is stable across attempts.
//! * **Error classification**: cancellation (graceful drain) maps to
//!   [`RunError::Interrupted`]; malformed specs are [`RunError::Permanent`];
//!   journal/IO trouble and worker panics are [`RunError::Transient`] and
//!   eligible for retry — with a one-shot self-heal that discards a
//!   corrupt journal and reruns from scratch.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use serde::Value;
use triosim_server::{JobPaths, JobRunner, RunError};

use crate::sweep::{run_sweep_with, SweepError, SweepRunConfig, SweepSpec};

/// Runs submitted sweep specs via [`run_sweep_with`], journaled and
/// checkpointed inside each job's directory.
#[derive(Debug, Clone)]
pub struct SweepJobRunner {
    /// Worker threads per sweep (clamped to at least 1 downstream).
    pub threads: usize,
    /// Iteration boundaries between scenario checkpoints (`0` = every
    /// boundary). A scenario whose only checkpoint would land at its
    /// final boundary writes none.
    pub checkpoint_every: usize,
    /// Default per-scenario event budget injected into specs that do not
    /// set one (canonical: changes simulation output deterministically).
    pub max_events: Option<u64>,
    /// Default per-scenario virtual-time budget in microseconds,
    /// injected like `max_events`.
    pub max_sim_time_us: Option<u64>,
    /// Default per-scenario wall-clock deadline in milliseconds
    /// (host-tuning: never part of canonical output or the spec hash).
    pub wall_timeout_ms: Option<u64>,
}

impl Default for SweepJobRunner {
    fn default() -> Self {
        SweepJobRunner {
            threads: std::thread::available_parallelism()
                .map(std::num::NonZero::get)
                .unwrap_or(1),
            checkpoint_every: 1,
            max_events: None,
            max_sim_time_us: None,
            wall_timeout_ms: None,
        }
    }
}

impl SweepJobRunner {
    /// Merges the server's quota defaults into the spec's `defaults`
    /// object. Keys already present (the submitter's choice) are left
    /// alone; specs that do not parse as a JSON object pass through
    /// unchanged so `SweepSpec::from_json` reports the real error.
    fn inject_quotas(&self, spec_text: &str) -> String {
        let quotas: [(&str, Option<u64>); 3] = [
            ("max_events", self.max_events),
            ("max_sim_time_us", self.max_sim_time_us),
            ("wall_timeout_ms", self.wall_timeout_ms),
        ];
        if quotas.iter().all(|(_, v)| v.is_none()) {
            return spec_text.to_string();
        }
        let Ok(Value::Object(mut top)) = serde_json::from_str::<Value>(spec_text) else {
            return spec_text.to_string();
        };
        if !top.iter().any(|(k, _)| k == "defaults") {
            top.push(("defaults".to_string(), Value::Object(Vec::new())));
        }
        let Some(Value::Object(defaults)) = top
            .iter_mut()
            .find(|(k, _)| k == "defaults")
            .map(|(_, v)| v)
        else {
            // `defaults` exists but is not an object; let the spec
            // parser produce its own typed error on the original text.
            return spec_text.to_string();
        };
        for (key, value) in quotas {
            if let Some(v) = value {
                if !defaults.iter().any(|(k, _)| k == key) {
                    defaults.push((key.to_string(), Value::UInt(v)));
                }
            }
        }
        serde_json::to_string(&Value::Object(top)).unwrap_or_else(|_| spec_text.to_string())
    }

    /// One full sweep execution for this job, resuming from the job's
    /// journal when one exists (`fresh` forces journal-from-scratch).
    fn run_once(
        &self,
        spec: &SweepSpec,
        spec_text: &str,
        paths: &JobPaths,
        attempt: u32,
        cancel: &Arc<AtomicBool>,
        fresh: bool,
    ) -> Result<String, SweepError> {
        let journal_path = paths.journal();
        let resume = !fresh && journal_path.exists();
        let config = SweepRunConfig {
            threads: self.threads.max(1),
            progress: false,
            journal: (!resume).then(|| journal_path.clone()),
            resume: resume.then(|| journal_path.clone()),
            fail_fast: false,
            spec_text: Some(spec_text.to_string()),
            profile: false,
            checkpoint_dir: Some(paths.ckpt_dir()),
            checkpoint_every: self.checkpoint_every,
            cancel: Some(Arc::clone(cancel)),
            // A journaled panic is the one failure class worth retrying:
            // replaying it verbatim would make every retry a no-op.
            rerun_panicked: attempt > 1,
        };
        catch_unwind(AssertUnwindSafe(|| run_sweep_with(spec, &config)))
            .unwrap_or_else(|payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Err(SweepError::Journal(format!("sweep runner panicked: {msg}")))
            })
            .map(|outcome| outcome.to_canonical_string())
    }

    /// Discards the job's journal (and its lockfile) and checkpoint
    /// directory so the next attempt starts from scratch.
    fn discard_progress(paths: &JobPaths) {
        let journal = paths.journal();
        std::fs::remove_file(&journal).ok();
        let mut lock = journal.into_os_string();
        lock.push(".lock");
        std::fs::remove_file(std::path::PathBuf::from(lock)).ok();
        std::fs::remove_dir_all(paths.ckpt_dir()).ok();
    }
}

impl JobRunner for SweepJobRunner {
    fn validate(&self, spec_text: &str) -> Result<(), String> {
        let injected = self.inject_quotas(spec_text);
        let spec = SweepSpec::from_json(&injected).map_err(|e| e.to_string())?;
        spec.expand().map_err(|e| e.to_string())?;
        Ok(())
    }

    fn run(
        &self,
        spec_text: &str,
        paths: &JobPaths,
        attempt: u32,
        cancel: &Arc<AtomicBool>,
    ) -> Result<String, RunError> {
        let injected = self.inject_quotas(spec_text);
        let spec =
            SweepSpec::from_json(&injected).map_err(|e| RunError::Permanent(e.to_string()))?;
        let had_journal = paths.journal().exists();
        match self.run_once(&spec, &injected, paths, attempt, cancel, false) {
            Ok(result) => Ok(result),
            Err(SweepError::Cancelled { .. }) => Err(RunError::Interrupted),
            Err(e @ (SweepError::Spec(_) | SweepError::Scenario { .. })) => {
                Err(RunError::Permanent(e.to_string()))
            }
            Err(SweepError::Journal(first)) if had_journal => {
                // The journal we tried to resume is corrupt, locked by a
                // dead writer, or hash-incompatible. Completed-scenario
                // progress is lost but the job is not: discard it and
                // rerun from scratch, once.
                Self::discard_progress(paths);
                match self.run_once(&spec, &injected, paths, attempt, cancel, true) {
                    Ok(result) => Ok(result),
                    Err(SweepError::Cancelled { .. }) => Err(RunError::Interrupted),
                    Err(e @ (SweepError::Spec(_) | SweepError::Scenario { .. })) => {
                        Err(RunError::Permanent(e.to_string()))
                    }
                    Err(SweepError::Journal(second)) => Err(RunError::Transient(format!(
                        "resume failed ({first}); fresh rerun also failed: {second}"
                    ))),
                }
            }
            Err(SweepError::Journal(e)) => Err(RunError::Transient(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::Ordering;
    use triosim_server::JobStore;

    fn temp_store(tag: &str) -> (JobStore, PathBuf) {
        use std::sync::atomic::AtomicUsize;
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("triosim-serve-{tag}-{}-{n}", std::process::id()));
        (JobStore::open(&dir).unwrap(), dir)
    }

    fn tiny_spec() -> String {
        r#"{
            "name": "serve-test",
            "defaults": {"model": "vgg11", "trace_batch": 8, "gpu": "A40",
                          "platform": "p2:2", "parallelism": "ddp"},
            "grid": {"trace_batch": [8, 16]}
        }"#
        .to_string()
    }

    fn runner() -> SweepJobRunner {
        SweepJobRunner {
            threads: 1,
            checkpoint_every: 1,
            max_events: None,
            max_sim_time_us: None,
            wall_timeout_ms: None,
        }
    }

    #[test]
    fn validate_accepts_good_and_rejects_bad_specs() {
        let r = runner();
        assert!(r.validate(&tiny_spec()).is_ok());
        assert!(r.validate("not json").is_err());
        assert!(r.validate("{\"name\":\"x\"}").is_err());
    }

    #[test]
    fn run_produces_the_same_bytes_as_a_direct_sweep() {
        let (store, dir) = temp_store("bytes");
        let paths = store.paths("job1");
        std::fs::create_dir_all(paths.ckpt_dir().parent().unwrap()).unwrap();
        let r = runner();
        let cancel = Arc::new(AtomicBool::new(false));
        let served = r.run(&tiny_spec(), &paths, 1, &cancel).unwrap();

        let spec = SweepSpec::from_json(&tiny_spec()).unwrap();
        let direct = crate::sweep::run_sweep(&spec, 1, false)
            .unwrap()
            .to_canonical_string();
        assert_eq!(served, direct, "service wrapping must not change bytes");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn second_attempt_resumes_from_the_journal() {
        let (store, dir) = temp_store("resume");
        let paths = store.paths("job2");
        std::fs::create_dir_all(paths.ckpt_dir().parent().unwrap()).unwrap();
        let r = runner();

        // Attempt 1: cancelled before anything runs — journal exists,
        // zero completed entries.
        let cancelled = Arc::new(AtomicBool::new(true));
        assert!(matches!(
            r.run(&tiny_spec(), &paths, 1, &cancelled),
            Err(RunError::Interrupted)
        ));
        assert!(paths.journal().exists(), "attempt 1 left a journal");

        // Attempt 2: resumes and completes; bytes match a clean run.
        let cancel = Arc::new(AtomicBool::new(false));
        let resumed = r.run(&tiny_spec(), &paths, 2, &cancel).unwrap();
        let spec = SweepSpec::from_json(&tiny_spec()).unwrap();
        let direct = crate::sweep::run_sweep(&spec, 1, false)
            .unwrap()
            .to_canonical_string();
        assert_eq!(resumed, direct);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_journal_self_heals_with_a_fresh_rerun() {
        let (store, dir) = temp_store("heal");
        let paths = store.paths("job3");
        std::fs::create_dir_all(paths.ckpt_dir().parent().unwrap()).unwrap();
        std::fs::write(paths.journal(), b"this is not a journal\n").unwrap();
        let r = runner();
        let cancel = Arc::new(AtomicBool::new(false));
        let healed = r.run(&tiny_spec(), &paths, 2, &cancel).unwrap();
        let spec = SweepSpec::from_json(&tiny_spec()).unwrap();
        let direct = crate::sweep::run_sweep(&spec, 1, false)
            .unwrap()
            .to_canonical_string();
        assert_eq!(healed, direct, "self-heal rerun still yields clean bytes");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quota_injection_respects_submitter_values() {
        let r = SweepJobRunner {
            max_events: Some(10),
            max_sim_time_us: Some(20),
            wall_timeout_ms: Some(30),
            ..runner()
        };
        let injected = r.inject_quotas(&tiny_spec());
        let spec = SweepSpec::from_json(&injected).unwrap();
        let scenarios = spec.expand().unwrap();
        assert!(scenarios
            .iter()
            .all(|s| s.max_events == Some(10) && s.max_sim_time_us == Some(20)));

        // A submitter-set value is never overridden.
        let custom = tiny_spec().replace("\"defaults\": {", "\"defaults\": {\"max_events\": 999, ");
        let injected = r.inject_quotas(&custom);
        let scenarios = SweepSpec::from_json(&injected).unwrap().expand().unwrap();
        assert!(scenarios.iter().all(|s| s.max_events == Some(999)));
    }

    #[test]
    fn no_quotas_means_spec_text_passes_through_verbatim() {
        let r = runner();
        let text = tiny_spec();
        assert_eq!(r.inject_quotas(&text), text);
        // Non-JSON input also passes through for the parser to reject.
        let r = SweepJobRunner {
            max_events: Some(1),
            ..runner()
        };
        assert_eq!(r.inject_quotas("garbage"), "garbage");
    }
}
