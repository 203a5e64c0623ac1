//! # muri-sim
//!
//! Discrete-event GPU-cluster simulator for DL training schedulers:
//!
//! * [`config`] — simulation configuration (cluster, scheduler, profiler
//!   noise, fault/checkpoint plans, contention overheads);
//! * [`engine`] — the scheduler core ([`EngineCore`], built on the
//!   `muri-engine` event core) plus the batch harness: arrivals,
//!   six-minute scheduling ticks with keep-identical-groups preemption,
//!   completion backfill, group execution per Eq. 3, machine-level fault
//!   domains with checkpoint/restore and group-aware recovery — and the
//!   live API (`submit`/`cancel`/`advance_to`) the `muri-serve` daemon
//!   drives;
//! * [`metrics`] — job records, the paper's aggregate metrics (average /
//!   tail JCT, makespan) and time series (queue length, blocking index,
//!   per-resource utilization — Fig. 8).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod metrics;
pub mod replicate;

pub use config::{CheckpointConfig, FaultPlan, SimConfig};
#[cfg(feature = "audit")]
pub use engine::simulate_audited;
pub use engine::{
    simulate, simulate_with_telemetry, ClusterState, EngineCore, GroupState, JobPhase, JobStatus,
};
pub use metrics::{JobRecord, SeriesSample, SimReport};
pub use replicate::{replicate, replicate_with_workers, MetricSummary, ReplicatedMetrics};
