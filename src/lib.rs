//! # muri
//!
//! A production-quality Rust reproduction of **"Multi-Resource
//! Interleaving for Deep Learning Training"** (Muri), SIGCOMM 2022.
//!
//! DL training jobs have a staged, iterative structure — storage IO for
//! data loading, CPU for preprocessing, GPU for propagation, network IO
//! for gradient synchronization — and jobs bottlenecked on *different*
//! resources can be phase-shifted onto the same GPUs so that each job
//! occupies a different resource at any instant. Muri turns that into a
//! cluster scheduler: pairwise interleaving efficiencies become edge
//! weights, maximum-weight (Blossom) matching picks who shares with whom,
//! and a multi-round algorithm generalizes to groups of up to four jobs.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`workload`] — time, resources, the Table 3 model zoo, jobs, traces,
//!   the Philly-like synthesizer, the (noisy) profiler;
//! * [`matching`] — maximum-weight matching (Blossom `O(n³)`, greedy, and
//!   an exact oracle for testing);
//! * [`cluster`] — machines, GPU allocation and node-minimizing placement,
//!   the worker monitor's per-machine health;
//! * [`interleave`] — Eq. 1–4 interleaving efficiency, stage-ordering
//!   enumeration, interleave groups, and a fine-grained per-GPU timeline
//!   executor;
//! * [`core`] — the scheduler: policies (FIFO … Tiresias, Themis, AntMan,
//!   Muri-S, Muri-L), the multi-round grouping algorithm, per-tick
//!   planning;
//! * [`sim`] — the discrete-event cluster simulator and the paper's
//!   metrics;
//! * [`experiments`] — one harness per paper table/figure.
//!
//! ## Quickstart
//!
//! ```
//! use muri::interleave::{GroupMember, InterleaveGroup, OrderingPolicy};
//! use muri::workload::{JobId, ModelKind};
//!
//! // Interleave the paper's four Table 2 jobs on one set of GPUs.
//! let members: Vec<GroupMember> = ModelKind::table2_models()
//!     .iter()
//!     .enumerate()
//!     .map(|(i, &m)| GroupMember { job: JobId(i as u32), profile: m.profile(16) })
//!     .collect();
//! let group = InterleaveGroup::form(members, OrderingPolicy::Best);
//! // Together the four jobs deliver ~2x the throughput of running them
//! // back to back (the paper's Table 2 measures 2.00x).
//! assert!(group.total_normalized_throughput() > 1.9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use muri_cluster as cluster;
pub use muri_core as core;
pub use muri_experiments as experiments;
pub use muri_interleave as interleave;
pub use muri_matching as matching;
pub use muri_sim as sim;
pub use muri_workload as workload;
