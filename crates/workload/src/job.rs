//! Job specifications.
//!
//! A [`JobSpec`] is what a user submits to the scheduler: which model to
//! train, on how many GPUs, for how many iterations, submitted at what
//! time. Everything the scheduler *learns* about a job (its stage profile)
//! comes from the resource profiler, never from the spec directly — that is
//! how the paper's Fig. 14 profiling-noise experiment is possible.

use crate::model::ModelKind;
use crate::stage::StageProfile;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// How a job's ground-truth stage profile is derived from its model.
///
/// The paper's resource profiler measures each *model* once — on the
/// 16-GPU testbed (Table 1) — and reuses that profile for every job of
/// the model (§3: "for the jobs training the same models … the resource
/// profile collected in the past can be reused"). `Reference` reproduces
/// that: every job carries its model's 16-GPU reference profile, keeping
/// the four bottleneck classes of Table 3 intact at every job size.
/// `GpuScaled` instead derives a physically-scaled profile (no gradient
/// synchronization for single-GPU jobs, network cost growing with worker
/// count) — useful for executor-level studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ProfileMode {
    /// The model's 16-GPU reference profile, independent of job size
    /// (the paper's profiling semantics; default).
    #[default]
    Reference,
    /// Physically scaled per-worker profile (`ModelKind::profile`).
    GpuScaled,
}

/// The GPU count at which reference profiles are measured (the paper's
/// Table 1 setup: two machines, 16 V100 GPUs).
pub const REFERENCE_PROFILE_GPUS: u32 = 16;

/// Unique identifier of a submitted job.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct JobId(pub u32);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// A DL training job as submitted by a user.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct JobSpec {
    /// Unique job id.
    pub id: JobId,
    /// The model this job trains.
    pub model: ModelKind,
    /// Number of GPUs (a power of two, per the paper's common practice).
    pub num_gpus: u32,
    /// Number of training iterations to run.
    pub iterations: u64,
    /// Submission time.
    pub submit_time: SimTime,
    /// How the job's ground-truth profile derives from its model.
    #[serde(default)]
    pub profile_mode: ProfileMode,
}

impl JobSpec {
    /// Create a job spec with the default (paper-semantics) profile mode.
    /// Panics (debug) if `num_gpus` is zero or not a power of two — the
    /// paper follows the common practice of power-of-two GPU counts and
    /// the placement logic relies on it.
    pub fn new(
        id: JobId,
        model: ModelKind,
        num_gpus: u32,
        iterations: u64,
        submit_time: SimTime,
    ) -> Self {
        debug_assert!(
            num_gpus.is_power_of_two(),
            "num_gpus must be a nonzero power of two, got {num_gpus}"
        );
        JobSpec {
            id,
            model,
            num_gpus,
            iterations,
            submit_time,
            profile_mode: ProfileMode::default(),
        }
    }

    /// The job's *true* per-iteration stage profile (ground truth the
    /// simulator executes with; the scheduler sees the profiler's possibly
    /// noisy measurement instead).
    pub fn true_profile(&self) -> StageProfile {
        match self.profile_mode {
            ProfileMode::Reference => self.model.profile(REFERENCE_PROFILE_GPUS),
            ProfileMode::GpuScaled => self.model.profile(self.num_gpus),
        }
    }

    /// Solo running time: iterations × serial iteration time, when the job
    /// runs alone without interleaving.
    pub fn solo_duration(&self) -> SimDuration {
        self.true_profile().iteration_time() * self.iterations
    }

    /// GPU service demand: solo duration × number of GPUs. This is the
    /// quantity SRSF ("shortest remaining *service* first") and 2D-LAS rank
    /// jobs by.
    pub fn solo_service(&self) -> SimDuration {
        self.solo_duration() * u64::from(self.num_gpus)
    }

    /// Construct a spec from a target solo duration instead of an iteration
    /// count (how trace replay works: the Philly trace gives durations, and
    /// "the number of training iterations is calculated according to the
    /// duration of the jobs and the average time of one iteration", §6.1).
    /// The iteration count is at least 1.
    pub fn from_duration(
        id: JobId,
        model: ModelKind,
        num_gpus: u32,
        duration: SimDuration,
        submit_time: SimTime,
    ) -> Self {
        let mut spec = JobSpec::new(id, model, num_gpus, 1, submit_time);
        let iter_time = spec.true_profile().iteration_time();
        spec.iterations = duration.div_ceil(iter_time).max(1);
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solo_duration_is_iterations_times_iter_time() {
        let j = JobSpec::new(JobId(1), ModelKind::Gpt2, 4, 100, SimTime::ZERO);
        let iter = j.true_profile().iteration_time();
        assert_eq!(j.solo_duration(), iter * 100);
        assert_eq!(j.solo_service(), j.solo_duration() * 4);
    }

    #[test]
    fn from_duration_recovers_iteration_count() {
        // Default profile mode is Reference: iteration time comes from the
        // model's 16-GPU reference profile regardless of the job's size.
        let iter = ModelKind::Vgg16
            .profile(REFERENCE_PROFILE_GPUS)
            .iteration_time();
        let j = JobSpec::from_duration(
            JobId(2),
            ModelKind::Vgg16,
            2,
            iter * 50,
            SimTime::from_secs(5),
        );
        assert_eq!(j.iterations, 50);
        // Partial iterations round up.
        let j2 = JobSpec::from_duration(
            JobId(3),
            ModelKind::Vgg16,
            2,
            iter * 50 + SimDuration::from_micros(1),
            SimTime::ZERO,
        );
        assert_eq!(j2.iterations, 51);
    }

    #[test]
    fn from_duration_never_zero_iterations() {
        let j = JobSpec::from_duration(
            JobId(4),
            ModelKind::A2c,
            1,
            SimDuration::ZERO,
            SimTime::ZERO,
        );
        assert_eq!(j.iterations, 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    #[cfg(debug_assertions)]
    fn non_power_of_two_gpus_rejected() {
        let _ = JobSpec::new(JobId(5), ModelKind::Bert, 3, 10, SimTime::ZERO);
    }
}
