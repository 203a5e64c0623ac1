//! # muri-cluster
//!
//! GPU-cluster substrate for the Muri reproduction:
//!
//! * [`machine`] — machine hardware specs (defaults match the paper's
//!   8×V100 testbed nodes);
//! * [`topology`] — cluster specs and global GPU numbering;
//! * [`placement`] — allocation tracking with the paper's node-minimizing
//!   best-fit placement (§5);
//! * [`monitor`] — the worker monitor's per-machine health tracking:
//!   fault streaks and straggler strikes that blacklist a machine for a
//!   bounded time, which placement then avoids (§3, §5).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod machine;
pub mod monitor;
pub mod placement;
pub mod topology;

pub use machine::MachineSpec;
pub use monitor::{HealthPolicy, WorkerMonitor};
pub use muri_telemetry::{BlacklistReason, FaultKind};
pub use placement::{Cluster, GpuSet};
pub use topology::{ClusterSpec, GpuId};
