//! # muri-interleave
//!
//! The multi-resource interleaving engine of the Muri reproduction:
//!
//! * [`efficiency`] — the paper's Eq. 1–4 (group iteration time and
//!   interleaving efficiency);
//! * [`ordering`] — stage-ordering enumeration (Fig. 6) with best / worst /
//!   canonical policies (worst is the Fig. 11 ablation);
//! * [`group`] — formed interleave groups with per-member slowdowns and
//!   normalized throughputs;
//! * [`contention`] — the interference model for baselines that co-locate
//!   jobs on one resource;
//! * [`timeline`] — a fine-grained per-GPU stage-timeline executor with
//!   intra-job synchronization barriers and inter-job resource queues,
//!   validating Eq. 3 and reproducing the Fig. 7 cascade.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod contention;
pub mod efficiency;
pub mod group;
pub mod ordering;
pub mod timeline;
pub mod viz;

pub use contention::InterferenceModel;
pub use efficiency::{
    group_efficiency, group_efficiency_on_cycle, group_iteration_time,
    pair_efficiency_two_resources, pair_iteration_time_two_resources,
};
pub use group::{pair_efficiency, GroupMember, InterleaveGroup};
pub use ordering::{
    choose_ordering, enumerate_assignments, policy_efficiency, ChosenOrdering, OrderingPolicy,
};
pub use timeline::{run_timeline, stagger_delays, TimelineJob, TimelineReport};
pub use viz::render_schedule;
