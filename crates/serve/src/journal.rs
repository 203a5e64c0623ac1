//! The durable operation log: every input that shaped scheduler state,
//! as versioned JSONL, plus periodic snapshot compaction.
//!
//! Durability follows the classic write-ahead discipline: an operation
//! is acknowledged to the client only after its record has been
//! appended to `oplog.jsonl` and fsync'd — the scheduler thread batches
//! a burst of commands into one `sync_data` (group commit), so the
//! fsync cost amortizes across concurrent submitters. Every
//! `snapshot_every` ops the full compacted history is rewritten into
//! `snapshot.jsonl` (temp file + rename + directory sync, so a crash
//! mid-compaction leaves the old snapshot intact) and the live log is
//! truncated back to its header.
//!
//! The log records *inputs*, never derived state: accepted submissions
//! (with the exact `JobSpec` the engine saw), cancels (client-requested
//! or shed by overload control), rolling config changes, and the
//! graceful-shutdown checkpoint. Completions are also journaled, but as
//! informational audit cross-checks — recovery replays the inputs
//! through the deterministic engine and *re-derives* every completion,
//! which is what makes the recovered state provably identical to an
//! uninterrupted run (see `recover.rs` and the kill-and-restart test).
//!
//! Records reuse the telemetry event schema's conventions: flat JSON
//! objects tagged by an `"op"` field with `seq`/`time_us` bookkeeping,
//! serialized by hand against the serde value model (the vendored
//! derive only handles unit-variant enums) so the wire format stays
//! explicit and stable.
//!
//! This module is the daemon's *only* home for filesystem writes and
//! fsyncs (muri-lint D005 sanctions exactly this file; muri-serve is
//! otherwise a Deterministic-class crate).

use crate::tenant::TenantConfig;
use muri_workload::{JobSpec, SimTime};
use serde::{Deserialize, Error, Serialize, Value};
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Wire-format version of the operation log.
///
/// Version history:
/// * 1 — initial format.
/// * 2 — the boot-config signature covers the hostile-scenario knobs
///   (spot eviction, GPU generations, elastic jobs, SLO deadlines), so
///   a recovery replays their seeded schedules identically. Logs
///   written by version-1 builds are refused loudly rather than
///   replayed against a drifted fault model.
/// * 3 — config ops carry tenant quotas only; the planning-mode field
///   is gone with the incremental planner. A version-2 log may record a
///   switch to incremental planning that this build cannot replay, so
///   it is refused rather than recovered to a different plan.
pub const OPLOG_VERSION: u32 = 3;

/// Compacted-history file inside the state directory.
pub const SNAPSHOT_FILE: &str = "snapshot.jsonl";

/// Append-only suffix log inside the state directory.
pub const OPLOG_FILE: &str = "oplog.jsonl";

/// Default ops between snapshot compactions.
pub const DEFAULT_SNAPSHOT_EVERY: usize = 256;

/// One record of the operation log.
#[derive(Debug, Clone, PartialEq)]
pub enum OpRecord {
    /// First line of every log file: format version, a signature of
    /// the immutable boot config (a recovery refuses to replay a log
    /// written against a different cluster), and the id/seq watermarks
    /// at write time. The watermarks make id allocation safe even if
    /// the suffix log is lost: `next_id` is a floor, never rewound.
    Header {
        /// [`OPLOG_VERSION`] at write time.
        version: u32,
        /// Signature of the immutable boot config.
        sim: String,
        /// Next op sequence number at write time.
        next_seq: u64,
        /// Next job id at write time.
        next_id: u32,
    },
    /// An accepted submission, with the exact spec the engine saw.
    Submit {
        /// Op sequence number (strictly increasing).
        seq: u64,
        /// Scheduler time the op was applied.
        time: SimTime,
        /// Tenant the job bills against.
        tenant: String,
        /// The spec as submitted to the engine.
        spec: JobSpec,
    },
    /// A cancel — client-requested, or shed by overload control.
    Cancel {
        /// Op sequence number.
        seq: u64,
        /// Scheduler time the op was applied.
        time: SimTime,
        /// The cancelled job.
        job: u32,
        /// True when overload shedding (not a client) cancelled it.
        shed: bool,
    },
    /// A rolling config change applied through `POST /v1/config`.
    Config {
        /// Op sequence number.
        seq: u64,
        /// Scheduler time the op was applied.
        time: SimTime,
        /// Tenant-quota upserts.
        tenants: Vec<TenantConfig>,
    },
    /// The graceful-shutdown checkpoint barrier.
    Checkpoint {
        /// Op sequence number.
        seq: u64,
        /// Scheduler time the op was applied.
        time: SimTime,
    },
    /// A job reached a terminal phase. Informational: recovery
    /// re-derives completions by replay; the audit cross-checks them.
    Complete {
        /// Op sequence number.
        seq: u64,
        /// Scheduler time the op was observed.
        time: SimTime,
        /// The terminal job.
        job: u32,
        /// Terminal phase (`"finished"` / `"cancelled"` / `"rejected"`).
        phase: String,
    },
}

impl OpRecord {
    /// Stable wire tag (the JSONL `"op"` field).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            OpRecord::Header { .. } => "header",
            OpRecord::Submit { .. } => "submit",
            OpRecord::Cancel { .. } => "cancel",
            OpRecord::Config { .. } => "config",
            OpRecord::Checkpoint { .. } => "checkpoint",
            OpRecord::Complete { .. } => "complete",
        }
    }

    /// Op sequence number (headers have none).
    #[must_use]
    pub fn seq(&self) -> Option<u64> {
        match self {
            OpRecord::Header { .. } => None,
            OpRecord::Submit { seq, .. }
            | OpRecord::Cancel { seq, .. }
            | OpRecord::Config { seq, .. }
            | OpRecord::Checkpoint { seq, .. }
            | OpRecord::Complete { seq, .. } => Some(*seq),
        }
    }

    /// Scheduler time the op was applied (headers have none).
    #[must_use]
    pub fn time(&self) -> Option<SimTime> {
        match self {
            OpRecord::Header { .. } => None,
            OpRecord::Submit { time, .. }
            | OpRecord::Cancel { time, .. }
            | OpRecord::Config { time, .. }
            | OpRecord::Checkpoint { time, .. }
            | OpRecord::Complete { time, .. } => Some(*time),
        }
    }
}

fn tagged(op: &str) -> Vec<(String, Value)> {
    vec![("op".to_string(), Value::Str(op.to_string()))]
}

fn stamp(m: &mut Vec<(String, Value)>, seq: u64, time: SimTime) {
    m.push(("seq".to_string(), Value::UInt(seq)));
    m.push(("time_us".to_string(), Value::UInt(time.as_micros())));
}

impl Serialize for OpRecord {
    fn to_value(&self) -> Value {
        let mut m = tagged(self.kind());
        match self {
            OpRecord::Header {
                version,
                sim,
                next_seq,
                next_id,
            } => {
                m.push(("version".into(), Value::UInt(u64::from(*version))));
                m.push(("sim".into(), Value::Str(sim.clone())));
                m.push(("next_seq".into(), Value::UInt(*next_seq)));
                m.push(("next_id".into(), Value::UInt(u64::from(*next_id))));
            }
            OpRecord::Submit {
                seq,
                time,
                tenant,
                spec,
            } => {
                stamp(&mut m, *seq, *time);
                m.push(("tenant".into(), Value::Str(tenant.clone())));
                m.push(("spec".into(), spec.to_value()));
            }
            OpRecord::Cancel {
                seq,
                time,
                job,
                shed,
            } => {
                stamp(&mut m, *seq, *time);
                m.push(("job".into(), Value::UInt(u64::from(*job))));
                m.push(("shed".into(), Value::Bool(*shed)));
            }
            OpRecord::Config { seq, time, tenants } => {
                stamp(&mut m, *seq, *time);
                m.push(("tenants".into(), tenants.to_value()));
            }
            OpRecord::Checkpoint { seq, time } => stamp(&mut m, *seq, *time),
            OpRecord::Complete {
                seq,
                time,
                job,
                phase,
            } => {
                stamp(&mut m, *seq, *time);
                m.push(("job".into(), Value::UInt(u64::from(*job))));
                m.push(("phase".into(), Value::Str(phase.clone())));
            }
        }
        Value::Map(m)
    }
}

fn field<T: Deserialize>(v: &Value, key: &str) -> Result<T, Error> {
    let val = v
        .get(key)
        .ok_or_else(|| Error::msg(format!("op record missing field `{key}`")))?;
    T::from_value(val).map_err(|e| Error::msg(format!("field `{key}`: {e}")))
}

impl Deserialize for OpRecord {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let kind: String = field(v, "op")?;
        let stamped = || -> Result<(u64, SimTime), Error> {
            Ok((
                field::<u64>(v, "seq")?,
                SimTime(field::<u64>(v, "time_us")?),
            ))
        };
        Ok(match kind.as_str() {
            "header" => OpRecord::Header {
                version: field(v, "version")?,
                sim: field(v, "sim")?,
                next_seq: field(v, "next_seq")?,
                next_id: field(v, "next_id")?,
            },
            "submit" => {
                let (seq, time) = stamped()?;
                OpRecord::Submit {
                    seq,
                    time,
                    tenant: field(v, "tenant")?,
                    spec: field(v, "spec")?,
                }
            }
            "cancel" => {
                let (seq, time) = stamped()?;
                OpRecord::Cancel {
                    seq,
                    time,
                    job: field(v, "job")?,
                    shed: field(v, "shed")?,
                }
            }
            "config" => {
                let (seq, time) = stamped()?;
                OpRecord::Config {
                    seq,
                    time,
                    tenants: field(v, "tenants")?,
                }
            }
            "checkpoint" => {
                let (seq, time) = stamped()?;
                OpRecord::Checkpoint { seq, time }
            }
            "complete" => {
                let (seq, time) = stamped()?;
                OpRecord::Complete {
                    seq,
                    time,
                    job: field(v, "job")?,
                    phase: field(v, "phase")?,
                }
            }
            other => return Err(Error::msg(format!("unknown op record kind {other:?}"))),
        })
    }
}

/// Render records as JSONL (one object per line, trailing newline).
#[must_use]
pub fn to_jsonl(records: &[OpRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&serde_json::to_string(r).unwrap_or_default());
        out.push('\n');
    }
    out
}

/// Parse JSONL back into records. A torn *final* line (the fsync'd
/// prefix of a crash mid-append) is dropped; a malformed line anywhere
/// else is an error.
pub fn from_jsonl(text: &str) -> Result<Vec<OpRecord>, String> {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut out = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        match serde_json::from_str::<OpRecord>(line) {
            Ok(r) => out.push(r),
            Err(_) if i + 1 == lines.len() => break,
            Err(e) => return Err(format!("op log line {}: {e}", i + 1)),
        }
    }
    Ok(out)
}

/// The file-backed half of durability: an append handle on the live
/// log plus the snapshot-compaction machinery. All filesystem writes
/// and fsyncs in the daemon happen here.
#[derive(Debug)]
pub struct DurableLog {
    dir: PathBuf,
    log: File,
    since_snapshot: usize,
    snapshot_every: usize,
}

fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(contents.as_bytes())?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        // Persist the rename itself.
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

fn create_log(path: &Path, header: &OpRecord) -> io::Result<File> {
    let mut f = File::create(path)?;
    f.write_all(to_jsonl(std::slice::from_ref(header)).as_bytes())?;
    f.sync_all()?;
    Ok(f)
}

impl DurableLog {
    /// Initialize a fresh state directory: snapshot and live log both
    /// hold only `header`.
    pub fn create(dir: &Path, header: &OpRecord, snapshot_every: usize) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        write_atomic(
            &dir.join(SNAPSHOT_FILE),
            &to_jsonl(std::slice::from_ref(header)),
        )?;
        let log = create_log(&dir.join(OPLOG_FILE), header)?;
        Ok(DurableLog {
            dir: dir.to_path_buf(),
            log,
            since_snapshot: 0,
            snapshot_every: snapshot_every.max(1),
        })
    }

    /// Reattach to an existing state directory after recovery: the
    /// live log reopens for append; `suffix_len` seeds the compaction
    /// counter with the ops already in it.
    pub fn reattach(dir: &Path, suffix_len: usize, snapshot_every: usize) -> io::Result<Self> {
        let log = File::options().append(true).open(dir.join(OPLOG_FILE))?;
        Ok(DurableLog {
            dir: dir.to_path_buf(),
            log,
            since_snapshot: suffix_len,
            snapshot_every: snapshot_every.max(1),
        })
    }

    /// Group commit: append a burst of records and fsync **once**.
    /// Callers must not acknowledge any of the ops before this returns.
    pub fn append(&mut self, records: &[OpRecord]) -> io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        self.log.write_all(to_jsonl(records).as_bytes())?;
        self.log.sync_data()?;
        self.since_snapshot += records.len();
        Ok(())
    }

    /// Whether enough ops accumulated to warrant a compaction.
    #[must_use]
    pub fn should_compact(&self) -> bool {
        self.since_snapshot >= self.snapshot_every
    }

    /// Snapshot compaction: atomically rewrite the snapshot as
    /// `header` + the full op history, then truncate the live log back
    /// to its header. A crash before the rename keeps the old
    /// snapshot + full live log; a crash after it finds the new
    /// snapshot and an over-complete live log — recovery dedupes by
    /// `seq`, so both crash windows replay identically.
    pub fn compact(&mut self, header: &OpRecord, history: &[OpRecord]) -> io::Result<()> {
        let mut contents = to_jsonl(std::slice::from_ref(header));
        contents.push_str(&to_jsonl(history));
        write_atomic(&self.dir.join(SNAPSHOT_FILE), &contents)?;
        self.log = create_log(&self.dir.join(OPLOG_FILE), header)?;
        self.since_snapshot = 0;
        Ok(())
    }
}

/// Load both halves of a state directory for recovery:
/// `(snapshot records, live-log records)`, each torn-tail tolerant.
pub fn load_state(dir: &Path) -> Result<(Vec<OpRecord>, Vec<OpRecord>), String> {
    let read = |name: &str| -> Result<Vec<OpRecord>, String> {
        let path = dir.join(name);
        let text =
            fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        from_jsonl(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    Ok((read(SNAPSHOT_FILE)?, read(OPLOG_FILE)?))
}

/// Whether `dir` holds a recoverable state (a snapshot file exists).
#[must_use]
pub fn state_exists(dir: &Path) -> bool {
    dir.join(SNAPSHOT_FILE).is_file()
}

/// Write a plain text file (the telemetry-journal flush on shutdown).
/// Lives here so every daemon filesystem write stays in the one
/// D005-sanctioned module.
pub fn write_text(path: &str, contents: &str) -> io::Result<()> {
    fs::write(path, contents)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use muri_workload::{JobId, ModelKind};

    fn ops() -> Vec<OpRecord> {
        vec![
            OpRecord::Submit {
                seq: 1,
                time: SimTime::from_secs(1),
                tenant: "alice".into(),
                spec: JobSpec::new(JobId(0), ModelKind::ResNet18, 2, 50, SimTime::from_secs(1)),
            },
            OpRecord::Cancel {
                seq: 2,
                time: SimTime::from_secs(2),
                job: 0,
                shed: true,
            },
            OpRecord::Config {
                seq: 3,
                time: SimTime::from_secs(3),
                tenants: vec![TenantConfig {
                    name: "alice".into(),
                    quota_gpus: Some(8),
                }],
            },
            OpRecord::Checkpoint {
                seq: 4,
                time: SimTime::from_secs(4),
            },
            OpRecord::Complete {
                seq: 5,
                time: SimTime::from_secs(5),
                job: 0,
                phase: "cancelled".into(),
            },
        ]
    }

    fn header() -> OpRecord {
        OpRecord::Header {
            version: OPLOG_VERSION,
            sim: "test".into(),
            next_seq: 1,
            next_id: 0,
        }
    }

    #[test]
    fn records_round_trip_through_jsonl() {
        let all = {
            let mut v = vec![header()];
            v.extend(ops());
            v
        };
        let text = to_jsonl(&all);
        let back = from_jsonl(&text).expect("parse");
        assert_eq!(back, all);
        // Every line is flat JSON tagged by `op`.
        for line in text.lines() {
            assert!(line.starts_with("{\"op\":\""), "{line}");
        }
    }

    #[test]
    fn torn_final_line_is_dropped_but_interior_corruption_errors() {
        let text = to_jsonl(&ops());
        let torn = &text[..text.len() - 10];
        let back = from_jsonl(torn).expect("torn tail tolerated");
        assert_eq!(back.len(), ops().len() - 1);
        let corrupt = text.replacen("\"op\":\"cancel\"", "\"op\":\"gibberish\"", 1);
        assert!(from_jsonl(&corrupt).is_err());
    }

    #[test]
    fn durable_log_appends_and_compacts() {
        let dir = std::env::temp_dir().join(format!("muri-journal-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut log = DurableLog::create(&dir, &header(), 2).expect("create");
        let history = ops();
        log.append(&history[..2]).expect("append");
        let (snap, live) = load_state(&dir).expect("load");
        assert_eq!(snap, vec![header()]);
        assert_eq!(live.len(), 3, "header + 2 ops");
        assert!(log.should_compact());
        log.compact(&header(), &history[..2]).expect("compact");
        log.append(&history[2..]).expect("append rest");
        let (snap, live) = load_state(&dir).expect("load");
        assert_eq!(snap.len(), 3, "header + compacted history");
        assert_eq!(live.len(), 4, "header + suffix ops");
        assert!(state_exists(&dir));
        let _ = fs::remove_dir_all(&dir);
    }
}
