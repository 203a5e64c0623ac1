//! # muri-verify
//!
//! A typed, independent auditor for Muri schedules. Every structure the
//! scheduler produces — formed [`InterleaveGroup`]s, Blossom matchings,
//! planning rounds, timeline runs, and full simulator ticks — can be
//! checked against the paper's invariants:
//!
//! * **Eq. 3/4** — a group's stored iteration time and efficiency must
//!   match an independent recomputation, and γ ∈ \[0, 1\]
//!   ([`audit_group`]);
//! * **§4.1** — phase offsets are distinct (one job per resource per
//!   phase) and the grouping matching is a real matching
//!   ([`audit_matching`]);
//! * **sparsification contract** — every matched γ edge survived the
//!   top-m pruning pass, or the dense fallback fired
//!   ([`audit_pruning`]);
//! * **§4.2** — groups never cross GPU-count buckets, never exceed the
//!   pack factor, and the SRSF/2D-LAS priority order is respected per
//!   GPU class ([`audit_plan`]);
//! * **§5 / physicality** — plans fit in the free capacity, no GPU is
//!   double-booked, no resource is busy for longer than wall-clock, and
//!   every job is always in exactly one scheduler state
//!   ([`audit_plan`], [`audit_tick`], [`audit_timeline`]);
//! * **lifecycle conservation** — a recorded telemetry journal replays
//!   to a consistent per-job ledger: one arrival first, starts consume
//!   queue entries, nothing after completion ([`audit_journal`]);
//! * **fault recovery** — across scheduling passes no job is lost,
//!   duplicated, or left assigned to a dead/blacklisted machine, and
//!   attained service plus durable checkpointed progress stay monotone
//!   ([`audit_recovery`]);
//! * **crash-recovery replay** — a recovered daemon's op log and
//!   post-replay state are mutually consistent: monotone sequencing,
//!   no duplicated/orphaned job references, zero jobs lost, and an id
//!   allocator that cannot reissue a dead job's identity
//!   ([`audit_recovery_replay`]);
//! * **hostile scenarios** — spot evictions respect their advance
//!   warning window ([`audit_spot`]), groups never straddle GPU
//!   generations a single generation could hold ([`audit_hetero`]),
//!   elastic resizes conserve attained service and durable progress
//!   ([`audit_elastic`]), and SLO deadline escalation is monotone
//!   ([`audit_slo_escalation`]).
//!
//! Violations come back as a typed [`Violation`] inside an
//! [`AuditReport`] rather than a panic, so the auditor can run over
//! deliberately corrupted inputs (the negative tests) and over full
//! simulations (`muri verify`). The checks recompute invariants locally
//! instead of calling back into the code under audit.
//!
//! [`InterleaveGroup`]: muri_interleave::InterleaveGroup

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod group;
pub mod journal;
pub mod matching;
pub mod plan;
pub mod recovery;
pub mod replay;
pub mod scenario;
pub mod tick;
pub mod timeline;
pub mod violation;

pub use group::audit_group;
pub use journal::audit_journal;
pub use matching::{audit_matching, audit_pruning, audit_sharding};
pub use plan::{audit_plan, PlanContext, PlannedGroupRef};
pub use recovery::{audit_recovery, RecoverySnapshot};
pub use replay::{audit_recovery_replay, ReplayOp, ReplayOpKind, ReplayedState};
pub use scenario::{
    audit_elastic, audit_hetero, audit_slo_escalation, audit_spot, ElasticResizeRecord,
    HeteroSnapshot, SloKeyRecord, SpotEvictionRecord,
};
pub use tick::{audit_tick, GroupSnapshot, TickSnapshot};
pub use timeline::audit_timeline;
pub use violation::{AuditReport, Violation};
