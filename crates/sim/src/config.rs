//! Simulation configuration.

use muri_cluster::{ClusterSpec, HealthPolicy};
use muri_core::SchedulerConfig;
use muri_workload::{JobSpec, ProfilerConfig, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Fault-domain plan (§5: a faulted job is terminated, reported, and
/// pushed back to the queue). Beyond the original per-job MTBF model
/// this injects machine-level fail-stop and transient faults — a
/// machine fault cascades to every job and group the machine hosts —
/// and degraded machines that run every stage of jobs placed on them
/// slower.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Mean time between faults per running job (exponential). `None`
    /// disables per-job fault injection (the paper's evaluation runs
    /// fault-free).
    pub mtbf: Option<SimDuration>,
    /// RNG seed for all fault streams (per-job, machine, degradation).
    pub seed: u64,
    /// Mean time between machine-level faults, per machine
    /// (exponential). `None` disables machine faults.
    #[serde(default)]
    pub machine_mtbf: Option<SimDuration>,
    /// Mean time to repair a fail-stopped machine (exponential).
    #[serde(default)]
    pub machine_mttr: SimDuration,
    /// Fraction of machine faults that are transient (the machine stays
    /// up; only its jobs die). The rest are fail-stop.
    #[serde(default)]
    pub transient_fraction: f64,
    /// Number of machines that run degraded (chosen by seeded draw).
    #[serde(default)]
    pub degraded_machines: u32,
    /// Slowdown factor applied to every stage of jobs placed on a
    /// degraded machine.
    #[serde(default)]
    pub degraded_slowdown: f64,
    /// Worker-monitor health thresholds (blacklisting policy).
    #[serde(default)]
    pub health: HealthPolicy,
    /// Number of spot/preemptible machines (chosen by seeded draw).
    /// Spot machines are periodically evicted and later restored.
    #[serde(default)]
    pub spot_machines: u32,
    /// Mean time between evictions per spot machine (exponential).
    /// `None` disables spot evictions even if `spot_machines > 0`.
    #[serde(default)]
    pub spot_mtbe: Option<SimDuration>,
    /// Advance warning a spot machine gets before eviction. During the
    /// warning window the engine drains hosted groups to a checkpoint so
    /// the eviction destroys no work past the drain point. Zero means
    /// no-warning eviction (work since the last durable mark is lost).
    #[serde(default)]
    pub spot_warning: SimDuration,
    /// How long an evicted spot machine stays away before capacity
    /// returns.
    #[serde(default = "default_spot_downtime")]
    pub spot_downtime: SimDuration,
    /// Number of distinct GPU generations in the cluster. Machine `m`
    /// belongs to generation `m % gpu_generations`; generation 0 is the
    /// newest. `0` or `1` means a homogeneous cluster.
    #[serde(default)]
    pub gpu_generations: u32,
    /// Relative slowdown per generation step: generation `g` runs every
    /// stage `1 + generation_gap * g` slower than generation 0.
    #[serde(default = "default_generation_gap")]
    pub generation_gap: f64,
    /// Fraction of jobs that are elastic (grow/shrink GPU count at
    /// iteration boundaries). Chosen per job by a pure seeded draw.
    #[serde(default)]
    pub elastic_fraction: f64,
    /// Mean time between resize events per elastic job (exponential).
    /// `None` disables elastic resizing even if `elastic_fraction > 0`.
    #[serde(default)]
    pub elastic_interval: Option<SimDuration>,
    /// Fraction of jobs carrying an SLO deadline. Chosen per job by a
    /// pure seeded draw.
    #[serde(default)]
    pub slo_fraction: f64,
    /// Deadline slack multiplier: an SLO job's deadline is
    /// `submit + slo_slack * solo_duration`.
    #[serde(default = "default_slo_slack")]
    pub slo_slack: f64,
}

fn default_spot_downtime() -> SimDuration {
    SimDuration::from_secs(600)
}

fn default_generation_gap() -> f64 {
    0.5
}

fn default_slo_slack() -> f64 {
    2.0
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            mtbf: None,
            seed: 0,
            machine_mtbf: None,
            machine_mttr: SimDuration::from_secs(600),
            transient_fraction: 0.5,
            degraded_machines: 0,
            degraded_slowdown: 1.5,
            health: HealthPolicy::default(),
            spot_machines: 0,
            spot_mtbe: None,
            spot_warning: SimDuration::ZERO,
            spot_downtime: default_spot_downtime(),
            gpu_generations: 0,
            generation_gap: default_generation_gap(),
            elastic_fraction: 0.0,
            elastic_interval: None,
            slo_fraction: 0.0,
            slo_slack: default_slo_slack(),
        }
    }
}

impl FaultPlan {
    /// True when machine-health tracking matters: machine faults or
    /// degraded machines are in play, so the engine feeds the monitor
    /// and syncs blacklists into placement.
    pub fn health_active(&self) -> bool {
        self.machine_mtbf.is_some() || self.degraded_machines > 0
    }

    /// True when spot/preemptible evictions are in play.
    pub fn spot_active(&self) -> bool {
        self.spot_machines > 0 && self.spot_mtbe.is_some()
    }

    /// True when the cluster mixes GPU generations.
    pub fn hetero_active(&self) -> bool {
        self.gpu_generations > 1 && self.generation_gap > 0.0
    }

    /// True when elastic resizing is in play.
    pub fn elastic_active(&self) -> bool {
        self.elastic_fraction > 0.0 && self.elastic_interval.is_some()
    }

    /// True when SLO deadline jobs are in play.
    pub fn slo_active(&self) -> bool {
        self.slo_fraction > 0.0
    }

    /// Generation of machine `m` under this plan (0 = newest). A
    /// homogeneous cluster puts every machine in generation 0.
    pub fn generation_of(&self, machine: u32) -> u32 {
        if self.gpu_generations > 1 {
            machine % self.gpu_generations
        } else {
            0
        }
    }

    /// Stage-duration speed factor of generation `g` ( ≥ 1 ).
    pub fn generation_factor(&self, generation: u32) -> f64 {
        1.0 + self.generation_gap.max(0.0) * f64::from(generation)
    }

    /// Whether `job` is elastic under this plan. A pure seeded draw —
    /// order-independent and recomputable outside the engine.
    pub fn job_is_elastic(&self, job: u32) -> bool {
        self.elastic_active() && unit_draw(self.seed, 0xE1A5, job) < self.elastic_fraction
    }

    /// Whether `job` carries an SLO deadline under this plan. A pure
    /// seeded draw — order-independent and recomputable outside the
    /// engine.
    pub fn job_is_slo(&self, job: u32) -> bool {
        self.slo_active() && unit_draw(self.seed, 0x0510, job) < self.slo_fraction
    }

    /// Deadline of `spec` under this plan, or `None` when the job drew
    /// no SLO: `submit + slo_slack * solo_duration`.
    pub fn deadline_for(&self, spec: &JobSpec) -> Option<SimTime> {
        if !self.job_is_slo(spec.id.0) {
            return None;
        }
        let slack = SimDuration::from_secs_f64(self.slo_slack * spec.solo_duration().as_secs_f64());
        Some(spec.submit_time + slack)
    }
}

/// SplitMix64 finalizer — the pure hash behind per-job scenario draws.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` keyed by `(seed, stream, id)`.
fn unit_draw(seed: u64, stream: u64, id: u32) -> f64 {
    let z = splitmix64(seed ^ stream.rotate_left(32) ^ u64::from(id));
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Checkpoint/restore model: jobs periodically pay a checkpoint cost
/// and, on a *machine* fault, resume from the last durable point
/// (checkpoint or graceful stop) instead of keeping all progress.
/// Per-job injected faults keep progress — the process restarts on a
/// healthy machine and pays only the flat restart penalty.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointConfig {
    /// Wall-clock between checkpoints of a running group. `None`
    /// disables checkpointing: machine faults destroy all work since
    /// the job's last graceful stop.
    pub interval: Option<SimDuration>,
    /// Pause the whole group pays per checkpoint.
    pub cost: SimDuration,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig {
            interval: None,
            cost: SimDuration::from_secs(30),
        }
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Cluster hardware.
    pub cluster: ClusterSpec,
    /// Scheduler under test.
    pub scheduler: SchedulerConfig,
    /// Profiler (noise) configuration — what the scheduler *sees*.
    pub profiler: ProfilerConfig,
    /// Fault injection (per-job and machine-level).
    pub faults: FaultPlan,
    /// Checkpoint/restore model.
    #[serde(default)]
    pub checkpoint: CheckpointConfig,
    /// Execution overhead per extra interleaved group member: a group of
    /// `m` jobs runs `1 + o·(m−1)` slower than Eq. 3 predicts. Models the
    /// residual contention the paper cites for why 4-job groups don't
    /// reach 4× ("other resource types may still be used in this stage…
    /// resource contention between different stages decreases the
    /// processing speed", §6.2). Calibrated against Table 2: the measured
    /// aggregate normalized throughput of the ideal 4-way group is 2.00
    /// versus 2.18 predicted by Eq. 3 with our profiles — a 9% overhead
    /// for a 4-way group, i.e. 0.03 per extra member.
    pub interleave_overhead_per_job: f64,
    /// Execution overhead per extra co-located job for GPU-sharing
    /// without interleaving barriers (AntMan): larger, because stages
    /// collide instead of dovetailing.
    pub sharing_overhead_per_job: f64,
    /// Per-extra-machine penalty on the network (synchronization) stage
    /// of a group that spans machines: the stage scales by
    /// `1 + p·(machines − 1)`. Off by default (0.0) so the closed-form
    /// Eq. 3 calibration against Table 2 stays exact; enable to study
    /// placement sensitivity (the §5 node-minimizing placement exists to
    /// keep this penalty at zero).
    pub cross_machine_net_penalty: f64,
    /// Safety horizon: the run aborts (jobs left unfinished) past this.
    pub max_sim_time: SimDuration,
}

impl SimConfig {
    /// Paper-testbed defaults for a given scheduler.
    pub fn testbed(scheduler: SchedulerConfig) -> Self {
        SimConfig {
            cluster: ClusterSpec::paper_testbed(),
            scheduler,
            profiler: ProfilerConfig::exact(),
            faults: FaultPlan::default(),
            checkpoint: CheckpointConfig::default(),
            interleave_overhead_per_job: 0.03,
            sharing_overhead_per_job: 0.25,
            cross_machine_net_penalty: 0.0,
            max_sim_time: SimDuration::from_hours(24 * 365),
        }
    }

    /// Effective execution slowdown factor for a group of `m` jobs under
    /// this config ( ≥ 1 ).
    pub fn group_overhead(&self, m: usize, gpu_sharing: bool) -> f64 {
        if m <= 1 {
            return 1.0;
        }
        let per = if gpu_sharing {
            self.sharing_overhead_per_job
        } else {
            self.interleave_overhead_per_job
        };
        1.0 + per * (m as f64 - 1.0)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use muri_core::PolicyKind;

    #[test]
    fn scenario_draws_are_pure_and_fraction_bounded() {
        let mut plan = FaultPlan {
            seed: 42,
            elastic_fraction: 1.0,
            elastic_interval: Some(SimDuration::from_secs(60)),
            slo_fraction: 0.5,
            ..FaultPlan::default()
        };
        // fraction = 1 accepts every job; draws are repeatable.
        for id in 0..32 {
            assert!(plan.job_is_elastic(id));
            assert_eq!(plan.job_is_slo(id), plan.job_is_slo(id));
        }
        // Roughly half the jobs draw an SLO at fraction 0.5.
        let hits = (0..1000).filter(|&id| plan.job_is_slo(id)).count();
        assert!((300..=700).contains(&hits), "{hits}");
        plan.elastic_fraction = 0.0;
        plan.slo_fraction = 0.0;
        assert!(!plan.job_is_elastic(7));
        assert!(!plan.job_is_slo(7));
    }

    #[test]
    fn generations_partition_machines() {
        let plan = FaultPlan {
            gpu_generations: 3,
            generation_gap: 0.5,
            ..FaultPlan::default()
        };
        assert!(plan.hetero_active());
        assert_eq!(plan.generation_of(0), 0);
        assert_eq!(plan.generation_of(4), 1);
        assert_eq!(plan.generation_of(5), 2);
        assert!((plan.generation_factor(2) - 2.0).abs() < 1e-12);
        let flat = FaultPlan::default();
        assert_eq!(flat.generation_of(5), 0);
        assert!((flat.generation_factor(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deadlines_come_only_from_slo_draws() {
        use muri_workload::{JobId, ModelKind};
        let plan = FaultPlan {
            slo_fraction: 1.0,
            slo_slack: 2.0,
            ..FaultPlan::default()
        };
        let spec = JobSpec::new(JobId(3), ModelKind::ResNet18, 2, 50, SimTime::from_secs(10));
        let deadline = plan.deadline_for(&spec).expect("slo job has a deadline");
        assert!(deadline > spec.submit_time + spec.solo_duration());
        assert!(FaultPlan::default().deadline_for(&spec).is_none());
    }

    #[test]
    fn overhead_scales_with_group_size() {
        let cfg = SimConfig::testbed(SchedulerConfig::preset(PolicyKind::MuriS));
        assert_eq!(cfg.group_overhead(1, false), 1.0);
        assert!((cfg.group_overhead(4, false) - 1.09).abs() < 1e-12);
        assert!(cfg.group_overhead(2, true) > cfg.group_overhead(2, false));
    }
}
