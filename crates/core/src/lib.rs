//! # muri-core
//!
//! The Muri scheduler — the paper's primary contribution:
//!
//! * [`policy`] — the queue-ordering policies of the evaluation (FIFO,
//!   SJF, SRTF, SRSF, LAS, 2D-LAS, Tiresias, Themis, AntMan, Muri-S,
//!   Muri-L) with their preemption / interleaving / sharing descriptors;
//! * [`grouping`] — the multi-round Blossom grouping algorithm
//!   (Algorithm 1) plus the paper's ablation variants (priority packing,
//!   greedy matching, group-size caps);
//! * [`scheduler`] — per-tick planning: admission, GPU-count buckets,
//!   grouping, and descending-GPU placement order;
//! * [`gamma_cache`] / [`round_cache`] — the bounded thread-local
//!   memoization layers behind grouping (γ values; round-1 graphs,
//!   matchings, and final groups), with hit/miss counters and reset
//!   hooks for tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gamma_cache;
pub mod gittins;
pub mod grouping;
pub mod policy;
pub mod round_cache;
pub mod scheduler;
pub mod shard;

pub use gamma_cache::CacheStats;
pub use gittins::gittins_index;
pub use grouping::{
    merged_efficiency, multi_round_grouping, GroupingConfig, GroupingMode, GroupingTimings,
};
pub use policy::{PendingJob, PolicyKind, PriorityKey};
pub use scheduler::{plan_schedule, plan_schedule_with, PlanMode, PlannedGroup, SchedulerConfig};
pub use shard::{ShardBy, ShardCounters};
