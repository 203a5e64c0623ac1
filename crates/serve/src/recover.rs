//! Crash recovery: merge a snapshot + live-log pair back into the
//! replayable op sequence and boot a [`ServeCore`] from it.
//!
//! The merge is where the crash-window cases collapse into one code
//! path: a crash *before* a compaction rename leaves the old snapshot
//! plus a long live log; a crash *after* it leaves the new snapshot
//! plus an over-complete live log whose ops duplicate the snapshot
//! tail. Deduplicating by `seq` (snapshot ops, then live-log ops with a
//! strictly greater seq) replays both identically. Headers are
//! validated first — wrong format version or a config signature that
//! does not match the booting cluster refuses recovery instead of
//! silently replaying a foreign journal.
//!
//! [`ServeCore::recover`] then replays the merged ops through the same
//! apply paths the live daemon uses; see `core.rs` for the exactness
//! argument and `tests/recovery.rs` for the byte-compare proof.

use crate::core::{ServeCore, ServeLimits};
use crate::journal::{self, OpRecord};
use muri_core::PlanMode;
use muri_sim::SimConfig;
use muri_telemetry::TelemetrySink;
use muri_workload::SimTime;
use serde::Serialize;
use std::path::Path;

/// Everything a recovery boot needs besides the journal itself —
/// bundled so [`ServeCore::recover`] takes one coherent argument
/// instead of eight loose ones.
pub struct RecoverBoot<'a> {
    /// Immutable boot config (must match the journal's signature).
    pub cfg: &'a SimConfig,
    /// Engine/trace name for telemetry.
    pub name: String,
    /// Boot-time tenant configs (journaled config ops re-apply on top).
    pub tenants: Vec<crate::tenant::TenantConfig>,
    /// Accepted and ignored: every pass re-plans in full. The slot stays
    /// only because the benchmark harness still fills it.
    pub plan_mode: PlanMode,
    /// Backpressure bounds for the recovered daemon.
    pub limits: ServeLimits,
    /// `Some(scale)` boots a live core whose wall clock resumes at the
    /// journal's last op time; `None` boots a deterministic core
    /// (tests and audits).
    pub live_time_scale: Option<f64>,
    /// Telemetry sink for the recovered core.
    pub sink: TelemetrySink,
}

/// What a recovery replayed, for the boot log and the audit.
#[derive(Debug, Clone, Serialize)]
pub struct RecoverySummary {
    /// Ops replayed (after snapshot/log merge + dedup).
    pub ops: u64,
    /// Submits among them.
    pub submits: u64,
    /// Cancels among them (client-requested).
    pub cancels: u64,
    /// Overload sheds among them.
    pub sheds: u64,
    /// Rolling config changes among them.
    pub configs: u64,
    /// Completion cross-checks among them.
    pub completions: u64,
    /// Scheduler time the recovered clock resumes at (µs).
    pub resume_time_us: u64,
    /// First job id the recovered daemon will issue.
    pub next_id: u32,
}

/// A validated, deduplicated op sequence ready to replay.
#[derive(Debug)]
pub struct MergedOps {
    /// The ops to replay, in seq order (no headers).
    pub ops: Vec<OpRecord>,
    /// Scheduler time of the last op (clock resume point).
    pub resume_time: SimTime,
    /// Floor for the recovered core's next op seq.
    pub next_seq_floor: u64,
    /// Floor for the recovered core's next job id.
    pub next_id_floor: u32,
}

impl MergedOps {
    /// Summarize for the boot log; `next_id` is the recovered core's
    /// final watermark (floors included).
    #[must_use]
    pub fn summarize(&self, next_id: u32) -> RecoverySummary {
        let count = |k: &str| self.ops.iter().filter(|op| op.kind() == k).count() as u64;
        let sheds = self
            .ops
            .iter()
            .filter(|op| matches!(op, OpRecord::Cancel { shed: true, .. }))
            .count() as u64;
        RecoverySummary {
            ops: self.ops.len() as u64,
            submits: count("submit"),
            cancels: count("cancel") - sheds,
            sheds,
            configs: count("config"),
            completions: count("complete"),
            resume_time_us: self.resume_time.as_micros(),
            next_id,
        }
    }
}

/// Validate one file's header and split off its ops.
fn split_header<'a>(
    records: &'a [OpRecord],
    which: &str,
    version: u32,
    sim_sig: &str,
) -> Result<((u64, u32), &'a [OpRecord]), String> {
    let Some((first, rest)) = records.split_first() else {
        return Err(format!("{which}: empty (not even a header)"));
    };
    let OpRecord::Header {
        version: v,
        sim,
        next_seq,
        next_id,
    } = first
    else {
        return Err(format!(
            "{which}: first record is {:?}, expected a header",
            first.kind()
        ));
    };
    if *v != version {
        return Err(format!(
            "{which}: format version {v} (this build reads {version})"
        ));
    }
    if sim != sim_sig {
        return Err(format!(
            "{which}: config signature mismatch — journal was written against a \
             different cluster/scheduler config; refusing to replay it"
        ));
    }
    Ok(((*next_seq, *next_id), rest))
}

/// Merge a snapshot + live-log pair into one replayable sequence.
/// Snapshot ops win; live-log ops are kept only past the snapshot's
/// last seq (the post-compaction-crash overlap dedups here). Seqs must
/// come out strictly increasing, and no interior record may be a
/// header.
pub fn merge_ops(
    snapshot: &[OpRecord],
    log: &[OpRecord],
    version: u32,
    sim_sig: &str,
) -> Result<MergedOps, String> {
    let ((snap_seq, snap_id), snap_ops) = split_header(snapshot, "snapshot", version, sim_sig)?;
    let ((log_seq, log_id), log_ops) = split_header(log, "op log", version, sim_sig)?;
    let last_snap_seq = snap_ops.iter().filter_map(OpRecord::seq).max().unwrap_or(0);
    let mut ops: Vec<OpRecord> = snap_ops.to_vec();
    ops.extend(
        log_ops
            .iter()
            .filter(|op| op.seq().is_some_and(|s| s > last_snap_seq))
            .cloned(),
    );
    let mut prev = 0u64;
    let mut resume_time = SimTime::ZERO;
    let mut max_spec_id = None::<u32>;
    for op in &ops {
        let Some(seq) = op.seq() else {
            return Err(format!("interior {:?} record in merged ops", op.kind()));
        };
        if seq <= prev {
            return Err(format!(
                "op seqs not strictly increasing: {seq} after {prev}"
            ));
        }
        prev = seq;
        if let Some(t) = op.time() {
            resume_time = resume_time.max(t);
        }
        if let OpRecord::Submit { spec, .. } = op {
            max_spec_id = Some(max_spec_id.map_or(spec.id.0, |m| m.max(spec.id.0)));
        }
    }
    let next_seq_floor = snap_seq.max(log_seq).max(prev.saturating_add(1));
    let next_id_floor = snap_id
        .max(log_id)
        .max(max_spec_id.map_or(0, |m| m.saturating_add(1)));
    Ok(MergedOps {
        ops,
        resume_time,
        next_seq_floor,
        next_id_floor,
    })
}

/// Recover from a state directory on disk: load + merge + replay, then
/// reattach the durable log (compacting immediately, so repeated
/// crash/recover cycles replay a bounded log).
pub fn recover_from_dir(
    boot: RecoverBoot<'_>,
    dir: &Path,
    snapshot_every: usize,
) -> Result<(ServeCore, RecoverySummary), String> {
    let (snapshot, log) = journal::load_state(dir)?;
    let suffix_len = log.len().saturating_sub(1);
    let (mut core, summary) = ServeCore::recover(boot, &snapshot, &log)?;
    core.reattach_durable(dir, suffix_len, snapshot_every)
        .map_err(|e| format!("reattaching durable log in {}: {e}", dir.display()))?;
    Ok((core, summary))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::journal::OPLOG_VERSION;
    use muri_workload::{JobId, JobSpec, ModelKind};

    fn header(next_seq: u64, next_id: u32) -> OpRecord {
        OpRecord::Header {
            version: OPLOG_VERSION,
            sim: "sig".into(),
            next_seq,
            next_id,
        }
    }

    fn submit(seq: u64, id: u32) -> OpRecord {
        OpRecord::Submit {
            seq,
            time: SimTime::from_secs(seq),
            tenant: "default".into(),
            spec: JobSpec::new(
                JobId(id),
                ModelKind::ResNet18,
                2,
                50,
                SimTime::from_secs(seq),
            ),
        }
    }

    #[test]
    fn merge_dedups_the_post_compaction_overlap() {
        // Crash after compaction: the live log still holds ops 1-2 that
        // the snapshot already absorbed, plus fresh op 3.
        let snapshot = vec![header(3, 2), submit(1, 0), submit(2, 1)];
        let log = vec![header(1, 0), submit(1, 0), submit(2, 1), submit(3, 2)];
        let merged = merge_ops(&snapshot, &log, OPLOG_VERSION, "sig").expect("merge");
        let seqs: Vec<u64> = merged.ops.iter().filter_map(OpRecord::seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(merged.next_seq_floor, 4);
        assert_eq!(merged.next_id_floor, 3);
        assert_eq!(merged.resume_time, SimTime::from_secs(3));
    }

    #[test]
    fn merge_refuses_foreign_and_corrupt_journals() {
        let snapshot = vec![header(1, 0)];
        let log = vec![header(1, 0)];
        assert!(merge_ops(&snapshot, &log, OPLOG_VERSION, "other-sig")
            .unwrap_err()
            .contains("signature mismatch"));
        assert!(merge_ops(&snapshot, &log, OPLOG_VERSION + 1, "sig")
            .unwrap_err()
            .contains("version"));
        assert!(merge_ops(&[], &log, OPLOG_VERSION, "sig").is_err());
        // Non-increasing seqs are corruption, not a crash artifact.
        let bad = vec![header(1, 0), submit(2, 0), submit(2, 1)];
        assert!(merge_ops(&bad, &log, OPLOG_VERSION, "sig")
            .unwrap_err()
            .contains("strictly increasing"));
    }

    #[test]
    fn recover_from_dir_fails_loudly_on_an_unknown_version_journal() {
        use crate::core::sim_signature;
        use muri_core::{PolicyKind, SchedulerConfig};

        let cfg = SimConfig::testbed(SchedulerConfig::preset(PolicyKind::MuriL));
        let dir =
            std::env::temp_dir().join(format!("muri-recover-version-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A journal written by an older build: correct signature, stale
        // format version. A version-2 log may switch the daemon to the
        // incremental planner this build no longer has, so replaying it
        // could recover a different plan — recovery must refuse, loudly
        // naming both versions.
        let stale = OpRecord::Header {
            version: OPLOG_VERSION - 1,
            sim: sim_signature(&cfg),
            next_seq: 1,
            next_id: 0,
        };
        let log = journal::DurableLog::create(&dir, &stale, 16).expect("create");
        drop(log);
        let boot = RecoverBoot {
            cfg: &cfg,
            name: "version-test".into(),
            tenants: Vec::new(),
            plan_mode: PlanMode::Full,
            limits: ServeLimits::default(),
            live_time_scale: None,
            sink: TelemetrySink::disabled(),
        };
        let Err(err) = recover_from_dir(boot, &dir, 16) else {
            panic!("stale version must refuse")
        };
        assert!(err.contains("format version"), "{err}");
        assert!(
            err.contains(&format!("this build reads {OPLOG_VERSION}")),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn next_id_floor_never_rewinds_past_the_header_watermark() {
        // The suffix log was lost (torn tail): only the snapshot header
        // knows ids 0-4 were ever issued. The floor must hold anyway so
        // a recovered daemon cannot reissue a dead job's id.
        let snapshot = vec![header(6, 5), submit(1, 0)];
        let log = vec![header(6, 5)];
        let merged = merge_ops(&snapshot, &log, OPLOG_VERSION, "sig").expect("merge");
        assert_eq!(merged.next_id_floor, 5);
        assert_eq!(merged.next_seq_floor, 6);
    }
}
