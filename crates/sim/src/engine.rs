//! The scheduler core and the discrete-event cluster simulator built on it.
//!
//! Faithful to the paper's setup (§5, §6.1):
//!
//! * the scheduler runs at a fixed interval (six simulated minutes) and is
//!   additionally marked dirty by job arrivals, completions, and faults —
//!   clean ticks are skipped;
//! * preemptive policies terminate and restart jobs at ticks (charging a
//!   restart penalty), but groups whose membership a new plan keeps intact
//!   continue running untouched;
//! * freed GPUs are backfilled immediately on group completion with a
//!   non-preemptive planning pass;
//! * the *scheduler* sees only the profiler's (possibly noisy) stage
//!   profiles; *execution* speed comes from the ground-truth profiles —
//!   exactly how profiling noise degrades Muri in Fig. 14;
//! * group execution follows Eq. 3 under the configured ordering policy,
//!   scaled by the contention overhead model;
//! * fault domains (§5): beyond per-job MTBF faults (process crashes
//!   that keep progress behind a flat restart penalty), machines fail
//!   (fail-stop with exponential repair, or transient) and cascade to
//!   every group they host; machine faults destroy device state, so
//!   jobs roll back to their last checkpoint (`CheckpointConfig`), the
//!   worker monitor blacklists machines with consecutive faults or
//!   straggler behavior, and placement avoids down/blacklisted machines
//!   until they recover.
//!
//! Since the event-core extraction, the scheduler state machine lives in
//! [`EngineCore`], which implements `muri_engine::EventHandler` and is
//! agnostic to where events come from. The batch entry points
//! ([`simulate`] and friends) are thin harnesses that pump a
//! `VirtualClockQueue` through it; the `muri-serve` daemon drives the
//! same core from a wire listener, using the live API
//! ([`EngineCore::submit`], [`EngineCore::cancel`],
//! [`EngineCore::advance_to`], [`EngineCore::checkpoint_all`]).

use crate::config::SimConfig;
use crate::metrics::{JobRecord, SeriesSample, SimReport};
use muri_cluster::{Cluster, FaultKind, GpuId, GpuSet, WorkerMonitor};
use muri_core::{plan_schedule_with, PendingJob, PlannedGroup};
use muri_engine::{EventHandler, EventQueue, SchedulerEvent, VirtualClockQueue};
use muri_interleave::{choose_ordering, GroupMember, InterleaveGroup};
use muri_telemetry::{Event, TelemetrySink};
use muri_workload::{
    JobId, JobSpec, Profiler, ResourceKind, ResourceVec, SimDuration, SimTime, StageProfile, Trace,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// Simulate `trace` under `cfg` and return the full report.
///
/// ```
/// use muri_core::{PolicyKind, SchedulerConfig};
/// use muri_sim::{simulate, SimConfig};
/// use muri_workload::{philly_like_trace};
///
/// let trace = philly_like_trace(1, 0.02); // 20-job slice of trace 1
/// let cfg = SimConfig::testbed(SchedulerConfig::preset(PolicyKind::MuriL));
/// let report = simulate(&trace, &cfg);
/// assert!(report.all_finished());
/// assert!(report.avg_jct_secs() > 0.0);
/// ```
pub fn simulate(trace: &Trace, cfg: &SimConfig) -> SimReport {
    let mut q = VirtualClockQueue::new();
    let core = EngineCore::from_trace(trace, cfg, &mut q);
    core.run(&mut q)
}

/// Simulate `trace` like [`simulate`], streaming scheduler, lifecycle,
/// and worker-monitor telemetry into `sink`.
///
/// With a disabled sink this is byte-for-byte [`simulate`]: every
/// instrumentation site is a single branch, no event payloads are built,
/// and no host clocks are read. With an enabled sink the run additionally
/// produces the event journal, the metrics registry, and the Chrome
/// trace lanes — without perturbing the simulated schedule (telemetry
/// never feeds back into planning).
pub fn simulate_with_telemetry(trace: &Trace, cfg: &SimConfig, sink: &TelemetrySink) -> SimReport {
    let mut q = VirtualClockQueue::new();
    let mut core = EngineCore::from_trace(trace, cfg, &mut q);
    core.set_telemetry(sink.clone());
    core.run(&mut q)
}

/// Simulate `trace` like [`simulate`], auditing the engine state against
/// the `muri-verify` invariants after every scheduling pass, and return
/// the combined audit report next to the simulation report. Violations
/// are collected, not panicked on — this is what `muri verify` runs.
#[cfg(feature = "audit")]
pub fn simulate_audited(trace: &Trace, cfg: &SimConfig) -> (SimReport, muri_verify::AuditReport) {
    let mut q = VirtualClockQueue::new();
    let mut core = EngineCore::from_trace(trace, cfg, &mut q);
    core.audit = Some(muri_verify::AuditReport::new());
    core.drive(&mut q);
    let audit = core.audit.take().unwrap_or_default();
    (core.finalize(), audit)
}

#[derive(Debug, Clone)]
struct JobState {
    spec: JobSpec,
    measured: StageProfile,
    truth: StageProfile,
    done_iters: u64,
    /// Durable progress: iterations persisted by the last checkpoint (or
    /// a graceful stop). A fault rolls `done_iters` back to this.
    saved_iters: u64,
    attained: SimDuration,
    first_start: Option<SimTime>,
    finish: Option<SimTime>,
    restarts: u32,
    faults: u32,
    /// SLO deadline, if the job drew one (`FaultPlan::deadline_for`).
    deadline: Option<SimTime>,
    /// Current elastic-resize epoch; a queued `ElasticResize` event with
    /// a stale epoch is dropped.
    resize_epoch: u64,
}

impl JobState {
    fn remaining_iters(&self) -> u64 {
        self.spec.iterations.saturating_sub(self.done_iters)
    }

    /// Remaining solo running time — what duration-aware policies rank by.
    fn remaining_solo(&self) -> SimDuration {
        self.truth.iteration_time() * self.remaining_iters()
    }

    fn as_pending(&self) -> PendingJob {
        PendingJob {
            id: self.spec.id,
            num_gpus: self.spec.num_gpus,
            profile: self.measured,
            submit_time: self.spec.submit_time,
            attained: self.attained,
            remaining: self.remaining_solo(),
            deadline: self.deadline,
        }
    }
}

#[derive(Debug, Clone)]
struct RunningGroup {
    version: u64,
    gpus: GpuSet,
    members: Vec<JobId>,
    /// Execution per-iteration time (truth + overhead).
    iter_time: SimDuration,
    /// Iteration counting anchor (start of the not-yet-counted iteration).
    anchor: SimTime,
    /// Last time attained-service was accumulated up to.
    last_touch: SimTime,
}

/// Where a job is in its lifecycle, as reported by
/// [`EngineCore::job_status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Submitted and waiting for GPUs.
    Queued,
    /// Running inside an interleave group.
    Running,
    /// Completed all iterations.
    Finished,
    /// Demands more GPUs than the cluster has — never placeable.
    Rejected,
    /// Cancelled via [`EngineCore::cancel`].
    Cancelled,
}

impl JobPhase {
    /// The snake_case wire name (the daemon's status endpoint).
    #[must_use]
    pub fn wire_name(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Finished => "finished",
            JobPhase::Rejected => "rejected",
            JobPhase::Cancelled => "cancelled",
        }
    }
}

impl Serialize for JobPhase {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.wire_name().to_string())
    }
}

/// Point-in-time status of one job (the daemon's status endpoint).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct JobStatus {
    /// Lifecycle phase.
    pub phase: JobPhase,
    /// GPUs the job demands.
    pub num_gpus: u32,
    /// Iterations completed.
    pub iterations_done: u64,
    /// Total iterations requested.
    pub iterations_total: u64,
    /// Submission time.
    pub submit: SimTime,
    /// First placement time, if any.
    pub first_start: Option<SimTime>,
    /// Completion time, if finished.
    pub finish: Option<SimTime>,
    /// Times the job was restarted (preemption or faults).
    pub restarts: u32,
    /// Faults the job suffered.
    pub faults: u32,
}

/// One running interleave group, as exposed by
/// [`EngineCore::cluster_state`].
#[derive(Debug, Clone, Serialize)]
pub struct GroupState {
    /// Member jobs, in group order.
    pub members: Vec<JobId>,
    /// GPUs the group's lease holds.
    pub num_gpus: u32,
}

/// Aggregate scheduler/cluster state (the daemon's cluster endpoint).
#[derive(Debug, Clone, Serialize)]
pub struct ClusterState {
    /// Current scheduler time.
    pub now: SimTime,
    /// Total GPUs in the cluster.
    pub total_gpus: u32,
    /// GPUs currently leased to groups.
    pub used_gpus: u32,
    /// GPUs free for placement.
    pub free_gpus: u32,
    /// Jobs waiting in the queue.
    pub queued_jobs: usize,
    /// Running interleave groups.
    pub groups: Vec<GroupState>,
    /// Scheduling passes executed so far.
    pub scheduling_passes: u64,
    /// Events processed so far.
    pub events: u64,
}

/// The scheduler core: cluster, queue, running groups, fault machinery,
/// and every event handler — independent of the event source.
///
/// Both harnesses drive it through `muri_engine`: the batch simulator
/// constructs it with [`EngineCore::from_trace`] and pumps a
/// `VirtualClockQueue` to completion ([`EngineCore::drive`]); the
/// `muri-serve` daemon constructs it with [`EngineCore::new_live`] and
/// interleaves [`EngineCore::submit`] / [`EngineCore::cancel`] with
/// bounded [`EngineCore::advance_to`] steps.
pub struct EngineCore {
    cfg: SimConfig,
    /// Job specs by submission index (trace order for batch runs). The
    /// payload of `SchedulerEvent::JobSubmitted` indexes into this.
    specs: Vec<JobSpec>,
    trace_name: String,
    cluster: Cluster,
    profiler: Profiler,
    jobs: BTreeMap<JobId, JobState>,
    queue: Vec<JobId>,
    groups: Vec<Option<RunningGroup>>,
    /// Monotone group-version counter, shared across group slots so a
    /// reused slot can never alias a stale event's `(gid, version)` key
    /// onto its new occupant.
    next_version: u64,
    now: SimTime,
    dirty: bool,
    next_tick: Option<SimTime>,
    arrivals_left: usize,
    fault_rng: SmallRng,
    /// Machine fail/repair draws — a stream separate from `fault_rng` so
    /// enabling one fault feature doesn't shift the other's schedule.
    machine_rng: SmallRng,
    /// `slowdown[m]` — machine `m` runs every stage of hosted jobs this
    /// much slower: `faults.degraded_slowdown` on degraded machines
    /// (seeded draw), 1 elsewhere.
    slowdown: Vec<f64>,
    /// When the pending spot warning fired, per machine (`None` when no
    /// eviction is in flight or the eviction came without warning).
    spot_warned: Vec<Option<SimTime>>,
    /// Jobs drained to a checkpoint at the pending warning, per machine.
    spot_drained: Vec<u64>,
    /// Spot eviction draws — a stream of its own so enabling spot
    /// machines doesn't shift per-job or machine fault schedules.
    spot_rng: SmallRng,
    /// Elastic resize-gap draws — likewise an independent stream.
    elastic_rng: SmallRng,
    series: Vec<SeriesSample>,
    passes: u64,
    nevents: u64,
    /// Jobs cancelled through the live API. Kept out of `JobRecord` (the
    /// golden report fixtures pin that shape); a cancelled job simply
    /// never finishes.
    cancelled: BTreeSet<JobId>,
    /// Telemetry sink — disabled (a single `None` branch per site) unless
    /// installed via [`EngineCore::set_telemetry`].
    sink: TelemetrySink,
    /// The worker monitor (§3): per-machine fault streaks, straggler
    /// strikes and timed blacklists that placement avoids.
    monitor: WorkerMonitor,
    /// `Some` when collecting an audit trail (`simulate_audited`); `None`
    /// means debug builds assert on violations instead.
    #[cfg(feature = "audit")]
    audit: Option<muri_verify::AuditReport>,
    /// Previous recovery snapshot — `audit_recovery` checks pass-to-pass
    /// deltas (no job lost/duplicated, progress monotone).
    #[cfg(feature = "audit")]
    prev_recovery: Option<muri_verify::RecoverySnapshot>,
    /// Spot evictions since the last audit pass (`audit_spot`).
    #[cfg(feature = "audit")]
    spot_records: Vec<muri_verify::SpotEvictionRecord>,
    /// Elastic resizes since the last audit pass (`audit_elastic`).
    #[cfg(feature = "audit")]
    elastic_records: Vec<muri_verify::ElasticResizeRecord>,
    /// Queued SLO jobs' priority keys at the previous audit pass —
    /// `audit_slo_escalation` checks keys only escalate as slack burns.
    #[cfg(feature = "audit")]
    prev_slo: Vec<muri_verify::SloKeyRecord>,
}

/// How [`EngineCore::stop_group`] treats the members it stops.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// Every member requeues with its progress persisted.
    Graceful,
    /// A machine hosting the group failed under this kind: every member
    /// faults.
    Machine(FaultKind),
    /// This member crashed and faults; the rest stop gracefully.
    Crash(JobId),
}

/// Exponential gap with the given mean: `-mean · ln(u)`, `u ∈ [ε, 1)`.
fn exp_gap(rng: &mut SmallRng, mean: SimDuration) -> SimDuration {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    SimDuration::from_secs_f64(-mean.as_secs_f64() * u.ln())
}

/// Seeded draw of `count` distinct machines out of `machines` (`true` =
/// drawn). Each caller passes a stream of its own, so machine
/// membership never perturbs fault times or other draws.
fn draw_machines(stream: u64, count: u32, machines: usize) -> Vec<bool> {
    let mut drawn = vec![false; machines];
    let mut rng = SmallRng::seed_from_u64(stream);
    let want = (count as usize).min(machines);
    let mut chosen = 0usize;
    while chosen < want {
        let m = rng.gen_range(0..machines);
        if !drawn[m] {
            drawn[m] = true;
            chosen += 1;
        }
    }
    drawn
}

/// Largest power of two ≤ `n` (0 for 0) — elastic resizes stay on
/// power-of-two GPU counts within the cluster.
fn prev_power_of_two(n: u32) -> u32 {
    if n == 0 {
        0
    } else {
        1 << (31 - n.leading_zeros())
    }
}

impl EventHandler for EngineCore {
    fn handle(&mut self, at: SimTime, ev: SchedulerEvent, q: &mut dyn EventQueue) {
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.nevents += 1;
        match ev {
            SchedulerEvent::JobSubmitted(idx) => self.on_arrival(idx as usize, q),
            SchedulerEvent::JobCompleted { gid, version } => {
                self.on_completion(gid as usize, version, q);
            }
            SchedulerEvent::JobFault { gid, version, job } => {
                self.on_fault(gid as usize, version, job, q);
            }
            SchedulerEvent::CheckpointDue { gid, version } => {
                self.on_checkpoint(gid as usize, version, q);
            }
            SchedulerEvent::MachineFailed(m) => self.on_machine_fail(m, q),
            SchedulerEvent::MachineRecovered(m) => self.on_machine_recover(m, q),
            SchedulerEvent::PlanRequested => self.on_tick(q),
            SchedulerEvent::SpotWarning(m) => self.on_spot_warning(m, q),
            SchedulerEvent::SpotEvicted(m) => self.on_spot_evict(m, q),
            SchedulerEvent::SpotRestored(m) => self.on_spot_restore(m, q),
            SchedulerEvent::ElasticResize { job, epoch } => {
                self.on_elastic_resize(job, epoch, q);
            }
        }
    }
}

impl EngineCore {
    fn empty(cfg: &SimConfig, trace_name: String, arrivals_left: usize) -> Self {
        let machines = cfg.cluster.machines as usize;
        let slowdown = draw_machines(
            cfg.faults.seed ^ 0xDE6A,
            cfg.faults.degraded_machines,
            machines,
        )
        .into_iter()
        .map(|d| if d { cfg.faults.degraded_slowdown } else { 1.0 })
        .collect();
        let mut cluster = Cluster::new(cfg.cluster);
        if cfg.faults.hetero_active() {
            cluster.set_generations(
                (0..cfg.cluster.machines)
                    .map(|m| cfg.faults.generation_of(m))
                    .collect(),
            );
        }
        EngineCore {
            cfg: *cfg,
            specs: Vec::new(),
            trace_name,
            cluster,
            profiler: Profiler::new(cfg.profiler),
            jobs: BTreeMap::new(),
            queue: Vec::new(),
            groups: Vec::new(),
            next_version: 0,
            now: SimTime::ZERO,
            dirty: false,
            next_tick: None,
            arrivals_left,
            fault_rng: SmallRng::seed_from_u64(cfg.faults.seed ^ 0xFA17),
            machine_rng: SmallRng::seed_from_u64(cfg.faults.seed ^ 0x3AC1),
            slowdown,
            spot_warned: vec![None; machines],
            spot_drained: vec![0; machines],
            spot_rng: SmallRng::seed_from_u64(cfg.faults.seed ^ 0x5B07),
            elastic_rng: SmallRng::seed_from_u64(cfg.faults.seed ^ 0xE7A5),
            series: Vec::new(),
            passes: 0,
            nevents: 0,
            cancelled: BTreeSet::new(),
            sink: TelemetrySink::disabled(),
            monitor: WorkerMonitor::with_policy(cfg.faults.health),
            #[cfg(feature = "audit")]
            audit: None,
            #[cfg(feature = "audit")]
            prev_recovery: None,
            #[cfg(feature = "audit")]
            spot_records: Vec::new(),
            #[cfg(feature = "audit")]
            elastic_records: Vec::new(),
            #[cfg(feature = "audit")]
            prev_slo: Vec::new(),
        }
    }

    /// Build a core pre-loaded with a whole trace: every submission and
    /// (if configured) every machine-fault arming event is scheduled
    /// into `q` up front, in the order the batch simulator always used.
    pub fn from_trace(trace: &Trace, cfg: &SimConfig, q: &mut dyn EventQueue) -> Self {
        let mut core = EngineCore::empty(cfg, trace.name.clone(), trace.len());
        core.specs.extend(trace.jobs.iter().copied());
        for (i, job) in trace.jobs.iter().enumerate() {
            q.schedule(job.submit_time, SchedulerEvent::JobSubmitted(i as u32));
        }
        core.arm_machine_faults(q);
        core.arm_spot(q);
        core
    }

    /// Build an empty live core (no pre-loaded submissions — jobs come
    /// in through [`EngineCore::submit`]). Machine faults and spot
    /// eviction cycles, if the config enables them, are armed
    /// immediately.
    pub fn new_live(cfg: &SimConfig, name: impl Into<String>, q: &mut dyn EventQueue) -> Self {
        let mut core = EngineCore::empty(cfg, name.into(), 0);
        core.arm_machine_faults(q);
        core.arm_spot(q);
        core
    }

    fn arm_machine_faults(&mut self, q: &mut dyn EventQueue) {
        if let Some(mtbf) = self.cfg.faults.machine_mtbf {
            for m in 0..self.cfg.cluster.machines {
                let gap = exp_gap(&mut self.machine_rng, mtbf);
                q.schedule(SimTime::ZERO + gap, SchedulerEvent::MachineFailed(m));
            }
        }
    }

    /// Arm the first eviction cycle of every spot machine.
    fn arm_spot(&mut self, q: &mut dyn EventQueue) {
        if !self.cfg.faults.spot_active() {
            return;
        }
        let machines = self.cfg.cluster.machines;
        let spot = draw_machines(
            self.cfg.faults.seed ^ 0x5907,
            self.cfg.faults.spot_machines,
            machines as usize,
        );
        for m in 0..machines {
            if spot[m as usize] {
                self.arm_spot_cycle(m, q);
            }
        }
    }

    /// Schedule one eviction cycle of spot machine `m`: exactly one RNG
    /// draw per cycle, so the eviction schedule is identical whether the
    /// warning window is zero or not (what the drained-vs-lost
    /// comparison relies on). With a warning, the warning fires at the
    /// drawn instant and the eviction exactly one window later.
    fn arm_spot_cycle(&mut self, m: u32, q: &mut dyn EventQueue) {
        let Some(mtbe) = self.cfg.faults.spot_mtbe else {
            return;
        };
        let gap = exp_gap(&mut self.spot_rng, mtbe);
        let at = self.now + gap;
        let warning = self.cfg.faults.spot_warning;
        if warning.is_zero() {
            q.schedule(at, SchedulerEvent::SpotEvicted(m));
        } else {
            q.schedule(at, SchedulerEvent::SpotWarning(m));
            q.schedule(at + warning, SchedulerEvent::SpotEvicted(m));
        }
    }

    fn run(mut self, q: &mut dyn EventQueue) -> SimReport {
        self.drive(q);
        self.finalize()
    }

    /// Pump the event loop to completion (or the simulation deadline).
    pub fn drive(&mut self, q: &mut dyn EventQueue) {
        let deadline = SimTime::ZERO + self.cfg.max_sim_time;
        muri_engine::drive(q, deadline, self);
    }

    /// Process every event due at or before `deadline`, then advance
    /// the clock to `deadline`. Unlike [`EngineCore::drive`], future
    /// events stay queued — this is the live harness's stepping
    /// primitive, called as wall time (mapped to scheduler time)
    /// passes.
    pub fn advance_to(&mut self, deadline: SimTime, q: &mut dyn EventQueue) {
        muri_engine::drive_due(q, deadline, self);
        if deadline > self.now {
            self.now = deadline;
        }
    }

    // --------------------------------------------------------- live API

    /// Submit one job. The submission surfaces as a `JobSubmitted`
    /// event no earlier than the core's current time.
    pub fn submit(&mut self, spec: JobSpec, q: &mut dyn EventQueue) {
        let idx = self.specs.len() as u32;
        self.specs.push(spec);
        self.arrivals_left += 1;
        let at = spec.submit_time.max(self.now);
        q.schedule(at, SchedulerEvent::JobSubmitted(idx));
    }

    /// Cancel a job. Queued jobs leave the queue; a running job's group
    /// continues with the surviving members (or releases its GPUs when
    /// it empties). Returns `false` for unknown, finished, or
    /// already-cancelled jobs.
    pub fn cancel(&mut self, id: JobId, q: &mut dyn EventQueue) -> bool {
        if self.cancelled.contains(&id) {
            return false;
        }
        if let Some(pos) = self.queue.iter().position(|&j| j == id) {
            self.queue.remove(pos);
            self.cancelled.insert(id);
            return true;
        }
        if let Some(gid) = self.group_of(id) {
            // Settle progress first: the job may complete exactly at
            // the cancellation boundary, in which case the completion
            // stands and there is nothing left to cancel.
            if !self.settle_member(gid, id, q) {
                if self.dirty {
                    self.fill_pass(q);
                }
                return false;
            }
            let survivors: Vec<JobId> = self.groups[gid]
                .as_ref()
                .map(|g| g.members.iter().copied().filter(|&m| m != id).collect())
                .unwrap_or_default();
            self.cancelled.insert(id);
            self.reform_group(gid, survivors, q);
            self.replan(q);
            return true;
        }
        // Submitted but not yet arrived: swallow the pending arrival.
        if self.specs.iter().any(|s| s.id == id) && !self.jobs.contains_key(&id) {
            self.cancelled.insert(id);
            return true;
        }
        false
    }

    /// Checkpoint every running group *now*: progress is settled up to
    /// the current instant and every member's durable progress is
    /// advanced to it. The graceful-shutdown path — a daemon restart
    /// resumes from here instead of the last periodic checkpoint.
    pub fn checkpoint_all(&mut self) {
        for gid in 0..self.groups.len() {
            self.advance_only(gid);
            self.checkpoint_group(gid, false);
        }
    }

    /// Install a telemetry sink (journal/metrics/Chrome-trace) on the
    /// core and its worker monitor.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.sink = sink.clone();
        self.monitor.set_sink(sink);
    }

    /// The core's current time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Whether all submitted work has run to completion.
    pub fn is_done(&self) -> bool {
        self.done()
    }

    /// Point-in-time status of one job, if the core has ever seen it.
    pub fn job_status(&self, id: JobId) -> Option<JobStatus> {
        let spec_of = |id: JobId| self.specs.iter().find(|s| s.id == id).copied();
        if let Some(j) = self.jobs.get(&id) {
            let phase = if self.cancelled.contains(&id) {
                JobPhase::Cancelled
            } else if j.finish.is_some() {
                JobPhase::Finished
            } else if j.spec.num_gpus > self.cluster.spec().total_gpus() {
                JobPhase::Rejected
            } else if self.group_of(id).is_some() {
                JobPhase::Running
            } else {
                JobPhase::Queued
            };
            return Some(JobStatus {
                phase,
                num_gpus: j.spec.num_gpus,
                iterations_done: j.done_iters,
                iterations_total: j.spec.iterations,
                submit: j.spec.submit_time,
                first_start: j.first_start,
                finish: j.finish,
                restarts: j.restarts,
                faults: j.faults,
            });
        }
        // Submitted, arrival not yet processed (or cancelled pre-arrival).
        let spec = spec_of(id)?;
        let phase = if self.cancelled.contains(&id) {
            JobPhase::Cancelled
        } else {
            JobPhase::Queued
        };
        Some(JobStatus {
            phase,
            num_gpus: spec.num_gpus,
            iterations_done: 0,
            iterations_total: spec.iterations,
            submit: spec.submit_time,
            first_start: None,
            finish: None,
            restarts: 0,
            faults: 0,
        })
    }

    /// Aggregate scheduler/cluster state.
    pub fn cluster_state(&self) -> ClusterState {
        ClusterState {
            now: self.now,
            total_gpus: self.cluster.spec().total_gpus(),
            used_gpus: self.cluster.used_gpus(),
            free_gpus: self.cluster.free_gpus(),
            queued_jobs: self.queue.len(),
            groups: self
                .groups
                .iter()
                .flatten()
                .map(|g| GroupState {
                    members: g.members.clone(),
                    num_gpus: g.gpus.len() as u32,
                })
                .collect(),
            scheduling_passes: self.passes,
            events: self.nevents,
        }
    }

    // ------------------------------------------------------------- events

    fn on_arrival(&mut self, idx: usize, q: &mut dyn EventQueue) {
        let spec = self.specs[idx];
        self.arrivals_left -= 1;
        if self.cancelled.contains(&spec.id) {
            // Cancelled between submission and arrival — never surfaces.
            return;
        }
        let now = self.now;
        self.sink.emit(|| Event::JobArrived {
            time: now,
            job: spec.id,
            num_gpus: spec.num_gpus,
        });
        // A job demanding more GPUs than the cluster has can never be
        // placed: it is recorded as rejected (never finishes), unprofiled.
        let rejected = spec.num_gpus > self.cluster.spec().total_gpus();
        let (measured, deadline) = if rejected {
            (StageProfile::default(), None)
        } else {
            (
                self.profiler.measure(&spec),
                self.cfg.faults.deadline_for(&spec),
            )
        };
        self.jobs.insert(
            spec.id,
            JobState {
                spec,
                measured,
                truth: spec.true_profile(),
                done_iters: 0,
                saved_iters: 0,
                attained: SimDuration::ZERO,
                first_start: None,
                finish: None,
                restarts: 0,
                faults: 0,
                deadline,
                resize_epoch: 0,
            },
        );
        if rejected {
            return;
        }
        self.queue.push(spec.id);
        self.dirty = true;
        if self.cfg.faults.job_is_elastic(spec.id.0) {
            self.arm_resize(spec.id, 0, q);
        }
        // The scheduler "is periodically invoked on events like job
        // arrival" (§3): backfill free GPUs right away; preemption still
        // waits for the tick.
        self.fill_pass(q);
        self.ensure_tick(q);
    }

    fn on_completion(&mut self, gid: usize, version: u64, q: &mut dyn EventQueue) {
        if !self.group_version_matches(gid, version) {
            return;
        }
        self.advance_and_reap(gid, q);
        if self.group_version_matches(gid, version) {
            // Premature wakeup: a checkpoint pushed the anchor past the
            // time this completion was scheduled for. Re-aim at the (now
            // later) completion instant; the version is unchanged, so no
            // duplicate chain starts.
            if !self.groups[gid]
                .as_ref()
                .is_some_and(|g| g.iter_time.is_zero())
            {
                self.schedule_completion(gid, q);
            }
        }
        if self.dirty {
            // Capacity was freed (or membership changed): backfill
            // immediately without preempting anyone.
            self.fill_pass(q);
        }
    }

    fn on_fault(&mut self, gid: usize, version: u64, job: JobId, q: &mut dyn EventQueue) {
        if !self.group_version_matches(gid, version) {
            return;
        }
        // The job may have completed exactly at the fault boundary (in
        // which case the reap re-formed or released the group and
        // bumped the version).
        if !self.settle_member(gid, job, q) {
            if self.dirty {
                self.fill_pass(q);
            }
            return;
        }
        // Group-aware recovery (§5): the faulted member is terminated
        // and restarted; the survivors cannot keep the interleave cycle
        // going around the hole, so they are gracefully stopped —
        // progress and attained service intact — and requeued for the
        // next pass to regroup.
        self.stop_group(gid, Stop::Crash(job));
        self.replan(q);
    }

    /// Terminate a running job under a fault, report it (§5), and
    /// requeue the job. Returns the work the rollback wasted.
    ///
    /// Machine-level faults destroy device state: progress rolls back to
    /// the last durable point (checkpoint or graceful stop) and the lost
    /// work is accounted. Per-job injected faults model a process crash
    /// whose state survives on the still-healthy machine, so the job
    /// resumes where it stopped and pays only the flat restart penalty.
    fn fault_job(&mut self, job: JobId, kind: FaultKind) -> SimDuration {
        let now = self.now;
        let mut lost = 0u64;
        let mut wasted = SimDuration::ZERO;
        if let Some(j) = self.jobs.get_mut(&job) {
            if kind.is_machine() {
                lost = j.done_iters.saturating_sub(j.saved_iters);
                wasted = j.truth.iteration_time() * lost;
                j.done_iters = j.saved_iters;
            } else {
                j.saved_iters = j.done_iters;
            }
            j.faults += 1;
        }
        if lost > 0 {
            self.sink.emit(|| Event::WorkLost {
                time: now,
                job,
                iterations: lost,
                wasted,
            });
        }
        self.sink.emit(|| Event::JobFaulted {
            time: now,
            job,
            kind,
        });
        self.queue.push(job);
        wasted
    }

    fn on_checkpoint(&mut self, gid: usize, version: u64, q: &mut dyn EventQueue) {
        if !self.group_version_matches(gid, version) {
            return;
        }
        self.advance_and_reap(gid, q);
        // A reap that changed membership bumped the version and started
        // a fresh checkpoint chain — this stale chain ends here.
        if self.group_version_matches(gid, version) {
            self.checkpoint_group(gid, true);
            self.schedule_checkpoint(gid, q);
        }
        if self.dirty {
            self.fill_pass(q);
        }
    }

    fn on_machine_fail(&mut self, m: u32, q: &mut dyn EventQueue) {
        let Some(mtbf) = self.cfg.faults.machine_mtbf else {
            return;
        };
        if self.done() {
            // Drain stale machine events without re-arming, so the run
            // terminates once the workload does.
            return;
        }
        let transient = self.machine_rng.gen_range(0.0..1.0) < self.cfg.faults.transient_fraction;
        let kind = if transient {
            FaultKind::MachineTransient
        } else {
            FaultKind::MachineFailStop
        };
        // Cascade: every group with a GPU on machine `m` loses all its
        // members — the interleave cycle cannot survive a hole.
        let (jobs_hit, _) = self.cascade_machine(m, kind);
        let now = self.now;
        self.sink.emit(|| Event::MachineFailed {
            time: now,
            machine: m,
            transient,
            jobs_hit,
        });
        // One health strike per machine failure (not one per victim).
        self.monitor.record_machine_fault(m, now);
        if transient {
            let gap = exp_gap(&mut self.machine_rng, mtbf);
            q.schedule(self.now + gap, SchedulerEvent::MachineFailed(m));
        } else {
            self.cluster.set_down(m, true);
            let repair = exp_gap(&mut self.machine_rng, self.cfg.faults.machine_mttr);
            q.schedule(self.now + repair, SchedulerEvent::MachineRecovered(m));
        }
        self.sync_banned();
        self.replan(q);
    }

    fn on_machine_recover(&mut self, m: u32, q: &mut dyn EventQueue) {
        let Some(mtbf) = self.cfg.faults.machine_mtbf else {
            return;
        };
        self.cluster.set_down(m, false);
        let now = self.now;
        self.sink.emit(|| Event::MachineRecovered {
            time: now,
            machine: m,
        });
        if self.done() {
            return;
        }
        let gap = exp_gap(&mut self.machine_rng, mtbf);
        q.schedule(self.now + gap, SchedulerEvent::MachineFailed(m));
        self.replan(q);
    }

    // ------------------------------------------------- hostile scenarios

    /// Advance eviction warning on spot machine `m`: drain every hosted
    /// group to a checkpoint so the eviction destroys nothing past the
    /// drain point — but only when the checkpoint cost fits inside the
    /// warning window (a drain that cannot persist in time saves nothing
    /// and must not claim to).
    fn on_spot_warning(&mut self, m: u32, q: &mut dyn EventQueue) {
        if !self.cfg.faults.spot_active() || self.done() {
            return;
        }
        self.spot_warned[m as usize] = Some(self.now);
        self.spot_drained[m as usize] = 0;
        if self.cfg.checkpoint.cost > self.cfg.faults.spot_warning {
            return;
        }
        let mut drained = 0u64;
        for gid in 0..self.groups.len() {
            if self.group_on_machine(gid, m) {
                // Settle progress, then persist it — the group pauses for
                // the checkpoint cost, exactly like a periodic checkpoint.
                self.advance_and_reap(gid, q);
                drained += self.checkpoint_group(gid, true);
            }
        }
        self.spot_drained[m as usize] = drained;
        if self.dirty {
            self.fill_pass(q);
        }
    }

    /// Spot machine `m` is evicted: every hosted group cascades (device
    /// state is destroyed, so jobs roll back to their last durable mark
    /// — the drain point, if a warning fired), the machine leaves the
    /// placement mask, and capacity returns after the configured
    /// downtime.
    fn on_spot_evict(&mut self, m: u32, q: &mut dyn EventQueue) {
        if !self.cfg.faults.spot_active() {
            return;
        }
        if self.done() {
            // Drain stale spot events without re-arming, so the run
            // terminates once the workload does.
            return;
        }
        let drained = std::mem::take(&mut self.spot_drained[m as usize]);
        let (_, wasted) = self.cascade_machine(m, FaultKind::MachineFailStop);
        let now = self.now;
        self.sink.emit(|| Event::SpotEvicted {
            time: now,
            machine: m,
            drained,
            wasted,
        });
        #[cfg(feature = "audit")]
        {
            let warned_at = self.spot_warned[m as usize];
            self.spot_records.push(muri_verify::SpotEvictionRecord {
                machine: m,
                warned_at,
                evicted_at: now,
                warning_us: self.cfg.faults.spot_warning.as_micros(),
                checkpoint_cost_us: self.cfg.checkpoint.cost.as_micros(),
                drained,
                wasted_us: wasted.as_micros(),
            });
        }
        self.spot_warned[m as usize] = None;
        self.cluster.set_down(m, true);
        q.schedule(
            self.now + self.cfg.faults.spot_downtime,
            SchedulerEvent::SpotRestored(m),
        );
        self.replan(q);
    }

    /// Evicted spot machine `m` returns: capacity rejoins the placement
    /// mask and the next eviction cycle is armed.
    fn on_spot_restore(&mut self, m: u32, q: &mut dyn EventQueue) {
        if !self.cfg.faults.spot_active() {
            return;
        }
        self.cluster.set_down(m, false);
        if self.done() {
            return;
        }
        self.arm_spot_cycle(m, q);
        self.replan(q);
    }

    /// Arm the next resize event of elastic job `job` at `epoch`.
    fn arm_resize(&mut self, job: JobId, epoch: u64, q: &mut dyn EventQueue) {
        let Some(interval) = self.cfg.faults.elastic_interval else {
            return;
        };
        let gap = exp_gap(&mut self.elastic_rng, interval);
        q.schedule(self.now + gap, SchedulerEvent::ElasticResize { job, epoch });
    }

    /// Elastic job `job` reaches a resize point: double or halve its GPU
    /// demand (seeded coin, power-of-two within the cluster) and
    /// re-bucket it live. A queued job simply changes class; a running
    /// job's group is gracefully stopped — every member keeps attained
    /// service and durable progress — and requeued for the next pass to
    /// regroup under the new demand.
    fn on_elastic_resize(&mut self, job: JobId, epoch: u64, q: &mut dyn EventQueue) {
        if !self.cfg.faults.elastic_active() {
            return;
        }
        // One coin per resize event, drawn before any early return so
        // the stream position never depends on scheduler state.
        let grow = self.elastic_rng.gen_range(0.0..1.0) < 0.5;
        let Some(state) = self.jobs.get(&job) else {
            return;
        };
        if state.resize_epoch != epoch
            || state.finish.is_some()
            || state.remaining_iters() == 0
            || self.cancelled.contains(&job)
        {
            // Stale chain, finished, or cancelled: the chain ends here.
            return;
        }
        let from = state.spec.num_gpus;
        let total = self.cluster.spec().total_gpus();
        let cap = prev_power_of_two(total);
        let base = if from.is_power_of_two() {
            from
        } else {
            prev_power_of_two(from.max(1))
        };
        let to = if grow {
            base.saturating_mul(2).min(cap)
        } else {
            (base / 2).max(1)
        };
        if to == from {
            // Pinned at the boundary this time — try again next cycle.
            if let Some(j) = self.jobs.get_mut(&job) {
                j.resize_epoch = epoch + 1;
            }
            self.arm_resize(job, epoch + 1, q);
            return;
        }
        // The audit's "before" snapshot is taken after progress is
        // settled (advance_and_reap credits the in-flight slice) but
        // before the graceful stop — conservation means the stop and
        // requeue themselves must not move attained service.
        #[cfg(feature = "audit")]
        let mut before: Option<(u64, u64)> = None;
        if let Some(gid) = self.group_of(job) {
            // Settle progress first; the job may complete exactly at the
            // resize boundary, in which case the completion stands and
            // the chain ends.
            if !self.settle_member(gid, job, q) {
                if self.jobs[&job].remaining_iters() > 0 {
                    self.finish_resize(job, epoch, from, to, q);
                } else if self.dirty {
                    self.fill_pass(q);
                }
                return;
            }
            #[cfg(feature = "audit")]
            {
                let j = &self.jobs[&job];
                before = Some((j.attained.as_micros(), j.saved_iters));
            }
            // Graceful stop of the whole group: the survivors cannot
            // keep the interleave cycle going around the re-bucketed
            // member, so everyone requeues with progress intact.
            self.stop_group(gid, Stop::Graceful);
        }
        #[cfg(feature = "audit")]
        {
            let j = &self.jobs[&job];
            let (attained_before, saved_before) =
                before.unwrap_or((j.attained.as_micros(), j.saved_iters));
            self.elastic_records.push(muri_verify::ElasticResizeRecord {
                job,
                from_gpus: from,
                to_gpus: to,
                attained_before_us: attained_before,
                attained_after_us: j.attained.as_micros(),
                saved_before,
                saved_after: j.saved_iters,
                total_gpus: total,
            });
        }
        self.finish_resize(job, epoch, from, to, q);
    }

    /// Apply the new GPU demand, re-arm the chain, and replan.
    fn finish_resize(
        &mut self,
        job: JobId,
        epoch: u64,
        from: u32,
        to: u32,
        q: &mut dyn EventQueue,
    ) {
        if let Some(j) = self.jobs.get_mut(&job) {
            j.spec.num_gpus = to;
            j.resize_epoch = epoch + 1;
        }
        let now = self.now;
        self.sink.emit(|| Event::ElasticResized {
            time: now,
            job,
            from_gpus: from,
            to_gpus: to,
        });
        self.dirty = true;
        self.arm_resize(job, epoch + 1, q);
        self.fill_pass(q);
    }

    fn on_tick(&mut self, q: &mut dyn EventQueue) {
        self.next_tick = None;
        // Settle every group's progress before planning.
        for gid in 0..self.groups.len() {
            self.advance_and_reap(gid, q);
        }
        // Blacklist expiry is purely time-based (no event fires), so the
        // tick refreshes the placement mask; a changed mask is freed (or
        // newly lost) capacity and must replan.
        if self.sync_banned() {
            self.dirty = true;
        }
        // Replan when anything changed — or when packed groups coexist
        // with idle GPUs (capacity freed since the groups formed, so
        // spreading the members back out would speed them up).
        let could_spread = self.cfg.scheduler.policy.preemptive()
            && self.cluster.free_gpus() > 0
            && self.groups.iter().flatten().any(|g| g.members.len() > 1);
        if self.dirty || could_spread {
            self.planning_pass(q);
            self.dirty = false;
        }
        self.sample();
        self.ensure_tick(q);
    }

    fn ensure_tick(&mut self, q: &mut dyn EventQueue) {
        if self.next_tick.is_some() || self.done() {
            return;
        }
        let at = self.now + self.cfg.scheduler.interval;
        self.next_tick = Some(at);
        q.schedule(at, SchedulerEvent::PlanRequested);
    }

    fn done(&self) -> bool {
        self.arrivals_left == 0 && self.queue.is_empty() && self.groups.iter().all(Option::is_none)
    }

    // ------------------------------------------------------- group motion

    fn group_version_matches(&self, gid: usize, version: u64) -> bool {
        self.groups
            .get(gid)
            .and_then(Option::as_ref)
            .is_some_and(|g| g.version == version)
    }

    /// The running group `job` belongs to, if any.
    fn group_of(&self, job: JobId) -> Option<usize> {
        self.groups
            .iter()
            .position(|g| g.as_ref().is_some_and(|g| g.members.contains(&job)))
    }

    /// Whether group `gid` holds a GPU on machine `m`.
    fn group_on_machine(&self, gid: usize, m: u32) -> bool {
        self.groups[gid].as_ref().is_some_and(|g| {
            g.gpus
                .gpus
                .iter()
                .any(|&gpu| self.cluster.spec().machine_of(gpu) == m)
        })
    }

    /// Settle group `gid` up to now (reaping members that finished) and
    /// report whether `job` is still running in it.
    fn settle_member(&mut self, gid: usize, job: JobId, q: &mut dyn EventQueue) -> bool {
        self.advance_and_reap(gid, q);
        self.groups[gid]
            .as_ref()
            .is_some_and(|g| g.members.contains(&job))
    }

    /// Capacity or membership changed: mark the plan dirty and backfill
    /// now.
    fn replan(&mut self, q: &mut dyn EventQueue) {
        self.dirty = true;
        self.fill_pass(q);
    }

    /// Account elapsed time to a group: attained service and whole
    /// iterations completed. Idempotent within one instant.
    fn advance_only(&mut self, gid: usize) {
        let Some(group) = self.groups[gid].as_mut() else {
            return;
        };
        let now = self.now;
        // Attained wall time (includes the restart-penalty window: the
        // job occupies its GPUs during restore too).
        if now > group.last_touch {
            let dt = now.since(group.last_touch);
            group.last_touch = now;
            for &m in &group.members {
                if let Some(j) = self.jobs.get_mut(&m) {
                    j.attained += dt;
                }
            }
        }
        // Whole iterations since the anchor.
        if now > group.anchor && !group.iter_time.is_zero() {
            let whole = now.since(group.anchor).as_micros() / group.iter_time.as_micros();
            if whole > 0 {
                group.anchor += group.iter_time * whole;
                for &m in &group.members {
                    let Some(j) = self.jobs.get_mut(&m) else {
                        continue;
                    };
                    j.done_iters = (j.done_iters + whole).min(j.spec.iterations);
                }
            }
        }
    }

    /// [`Self::advance_only`], then reap finished members: re-forms or
    /// releases the group as members finish.
    fn advance_and_reap(&mut self, gid: usize, q: &mut dyn EventQueue) {
        self.advance_only(gid);
        let Some(group) = self.groups[gid].as_ref() else {
            return;
        };
        let now = self.now;
        let members = group.members.clone();
        let finished: Vec<JobId> = members
            .iter()
            .copied()
            .filter(|m| self.jobs[m].remaining_iters() == 0)
            .collect();
        if finished.is_empty() {
            return;
        }
        for m in &finished {
            if let Some(j) = self.jobs.get_mut(m) {
                j.finish = Some(now);
            }
            self.sink
                .emit(|| Event::JobCompleted { time: now, job: *m });
        }
        if self.cfg.faults.health_active() {
            // Completions are healthy progress: clear the hosting
            // machines' consecutive-fault streaks.
            for m in self.machines_of_group(gid) {
                self.monitor.record_machine_ok(m);
            }
        }
        let survivors: Vec<JobId> = members
            .into_iter()
            .filter(|m| !finished.contains(m))
            .collect();
        self.dirty = true;
        self.reform_group(gid, survivors, q);
    }

    /// Stop group `gid` now and free its GPUs (group-aware recovery,
    /// §5). Progress is settled first; a member that finished at this
    /// instant completes, and every other member is treated per `how`.
    /// Returns the number of members faulted and the work their
    /// rollback wasted.
    fn stop_group(&mut self, gid: usize, how: Stop) -> (u32, SimDuration) {
        self.advance_only(gid);
        let mut faulted = 0u32;
        let mut wasted = SimDuration::ZERO;
        let Some(group) = self.groups[gid].take() else {
            return (faulted, wasted);
        };
        self.cluster.release(&group.gpus);
        let now = self.now;
        for job in group.members {
            if self.jobs[&job].remaining_iters() == 0 {
                // Finished exactly at the stop instant — the completion
                // stands.
                if let Some(j) = self.jobs.get_mut(&job) {
                    j.finish = Some(now);
                }
                self.sink.emit(|| Event::JobCompleted { time: now, job });
                continue;
            }
            let fault = match how {
                Stop::Machine(kind) => Some(kind),
                Stop::Crash(crashed) if crashed == job => Some(FaultKind::Injected),
                Stop::Graceful | Stop::Crash(_) => None,
            };
            if let Some(kind) = fault {
                wasted += self.fault_job(job, kind);
                faulted += 1;
            } else {
                // Graceful stop: progress persists (the restart penalty
                // models the save/restore cost; partial iterations are
                // lost).
                if let Some(j) = self.jobs.get_mut(&job) {
                    j.saved_iters = j.done_iters;
                }
                self.queue.push(job);
                self.sink.emit(|| Event::JobPreempted { time: now, job });
            }
        }
        (faulted, wasted)
    }

    /// Machine `m` lost its device state under `kind`: stop every group
    /// it hosts, faulting the members. Returns the members faulted and
    /// the work their rollback wasted.
    fn cascade_machine(&mut self, m: u32, kind: FaultKind) -> (u32, SimDuration) {
        let mut hit = 0u32;
        let mut wasted = SimDuration::ZERO;
        for gid in 0..self.groups.len() {
            if self.group_on_machine(gid, m) {
                let (h, w) = self.stop_group(gid, Stop::Machine(kind));
                hit += h;
                wasted += w;
            }
        }
        (hit, wasted)
    }

    /// Persist every member's progress of group `gid` as a checkpoint.
    /// With `pause`, the whole group first stalls for the checkpoint
    /// cost: iteration progress is pushed out (attained service keeps
    /// accruing — the GPUs stay held), which is the overhead the
    /// lost-work trade-off pays for. Returns how many jobs it drained.
    fn checkpoint_group(&mut self, gid: usize, pause: bool) -> u64 {
        let cost = self.cfg.checkpoint.cost;
        let Some(group) = self.groups[gid].as_mut() else {
            return 0;
        };
        if pause {
            group.anchor += cost;
        }
        let members = group.members.clone();
        let now = self.now;
        let mut drained = 0u64;
        for job in members {
            let Some(j) = self.jobs.get_mut(&job) else {
                continue;
            };
            j.saved_iters = j.done_iters;
            let iters_saved = j.saved_iters;
            self.sink.emit(|| Event::CheckpointTaken {
                time: now,
                job,
                iters_saved,
            });
            drained += 1;
        }
        drained
    }

    /// Distinct machines spanned by a group's lease, ascending.
    fn machines_of_group(&self, gid: usize) -> Vec<u32> {
        let mut ms: Vec<u32> = self.groups[gid]
            .as_ref()
            .map(|g| {
                g.gpus
                    .gpus
                    .iter()
                    .map(|&gpu| self.cluster.spec().machine_of(gpu))
                    .collect()
            })
            .unwrap_or_default();
        ms.sort_unstable();
        ms.dedup();
        ms
    }

    /// Mirror the monitor's current blacklist into the cluster's
    /// placement mask (no-op when machine-health tracking is off).
    /// Returns `true` when the mask changed — a blacklist expiry frees
    /// capacity without raising an event, so the caller must replan.
    fn sync_banned(&mut self) -> bool {
        if !self.cfg.faults.health_active() {
            return false;
        }
        let banned = self.monitor.blacklisted_machines(self.now);
        let mut changed = false;
        for m in 0..self.cfg.cluster.machines {
            let ban = banned.binary_search(&m).is_ok();
            if self.cluster.is_banned(m) != ban {
                self.cluster.set_banned(m, ban);
                changed = true;
            }
        }
        changed
    }

    /// Replace a group's membership (possibly empty → release GPUs),
    /// recompute execution speed, and schedule the next completion.
    fn reform_group(&mut self, gid: usize, members: Vec<JobId>, q: &mut dyn EventQueue) {
        self.next_version += 1;
        let version = self.next_version;
        let Some(group) = self.groups[gid].as_mut() else {
            return;
        };
        if members.is_empty() {
            let gpus = group.gpus.clone();
            self.groups[gid] = None;
            self.cluster.release(&gpus);
            return;
        }
        group.members = members;
        group.version = version;
        group.anchor = self.now;
        group.last_touch = self.now;
        let member_ids = group.members.clone();
        let gpu_list = group.gpus.gpus.clone();
        let iter_time = self.execution_iteration_time(&member_ids, &gpu_list);
        if let Some(group) = self.groups[gid].as_mut() {
            group.iter_time = iter_time;
        }
        self.schedule_completion(gid, q);
        self.schedule_checkpoint(gid, q);
    }

    /// Realized group iteration time. The scheduler *plans* (chooses the
    /// stage ordering) from the profiler's measured profiles, but the plan
    /// *executes* against the true profiles — this is exactly how noisy
    /// profiling hurts Muri in Fig. 14: a bad measurement picks a bad
    /// ordering, and reality pays for it. Stages the plan did not
    /// schedule at all (measured as zero but truly nonzero) cannot
    /// overlap anything and serialize on top.
    fn execution_iteration_time(&self, members: &[JobId], gpus: &[GpuId]) -> SimDuration {
        let machines_spanned = self.cluster.spec().machines_spanned(gpus);
        let measured: Vec<StageProfile> = members.iter().map(|m| self.jobs[m].measured).collect();
        let net_factor =
            1.0 + self.cfg.cross_machine_net_penalty * machines_spanned.saturating_sub(1) as f64;
        let truths: Vec<StageProfile> = members
            .iter()
            .map(|m| {
                let t = self.jobs[m].truth;
                if net_factor > 1.0 {
                    t.scale_stage(ResourceKind::Network, net_factor)
                } else {
                    t
                }
            })
            .collect();
        let ordering = choose_ordering(&measured, self.cfg.scheduler.grouping.ordering);
        let mut t = muri_interleave::efficiency::group_iteration_time_on_cycle(
            &truths,
            &ordering.offsets,
            &ordering.cycle,
        );
        for truth in &truths {
            for r in ResourceKind::ALL {
                if !ordering.cycle.contains(&r) {
                    t += truth.duration(r);
                }
            }
        }
        let mut factor = self
            .cfg
            .group_overhead(truths.len(), self.cfg.scheduler.policy.gpu_shares());
        // The interleave cycle stalls with its slowest participant: the
        // worst per-machine speed factor spanned by the lease governs
        // the whole group: the machine's GPU-generation factor times its
        // degradation slowdown (all ones on a homogeneous, healthy
        // cluster).
        let worst = gpus
            .iter()
            .map(|&g| {
                let m = self.cluster.spec().machine_of(g);
                self.cfg
                    .faults
                    .generation_factor(self.cfg.faults.generation_of(m))
                    * self.slowdown[m as usize]
            })
            .fold(1.0_f64, f64::max);
        if worst > 1.0 {
            factor *= worst;
        }
        t.scale(factor)
    }

    fn schedule_completion(&mut self, gid: usize, q: &mut dyn EventQueue) {
        let Some(group) = self.groups[gid].as_ref() else {
            return;
        };
        let Some(min_rem) = group
            .members
            .iter()
            .map(|m| self.jobs[m].remaining_iters())
            .min()
        else {
            return;
        };
        let at = if group.iter_time.is_zero() {
            group.anchor
        } else {
            group.anchor + group.iter_time * min_rem
        };
        let ev = SchedulerEvent::JobCompleted {
            gid: gid as u32,
            version: group.version,
        };
        q.schedule(at.max(self.now), ev);
    }

    /// Arm the group's checkpoint chain. One chain runs per group
    /// version; a stale chain dies at the handler's version guard.
    fn schedule_checkpoint(&mut self, gid: usize, q: &mut dyn EventQueue) {
        let Some(interval) = self.cfg.checkpoint.interval else {
            return;
        };
        let Some(version) = self.groups[gid].as_ref().map(|g| g.version) else {
            return;
        };
        q.schedule(
            self.now + interval,
            SchedulerEvent::CheckpointDue {
                gid: gid as u32,
                version,
            },
        );
    }

    // ---------------------------------------------------------- planning

    /// Full (possibly preemptive) planning pass at a tick.
    fn planning_pass(&mut self, q: &mut dyn EventQueue) {
        self.passes += 1;
        self.sync_banned();
        let preemptive = self.cfg.scheduler.policy.preemptive();
        let mut candidates: Vec<PendingJob> = self
            .queue
            .iter()
            .map(|id| self.jobs[id].as_pending())
            .collect();
        let capacity = if preemptive {
            for g in self.groups.iter().flatten() {
                for m in &g.members {
                    candidates.push(self.jobs[m].as_pending());
                }
            }
            // Plan only against machines that can host placements —
            // conservative when kept groups still sit on newly-banned
            // machines (their capacity is simply not re-offered).
            self.cluster.available_gpus()
        } else {
            self.cluster.free_gpus()
        };
        let plan = plan_schedule_with(
            &self.cfg.scheduler,
            &candidates,
            capacity,
            self.now,
            &self.sink,
        );

        // Index planned groups by member set.
        let mut planned: Vec<(Vec<JobId>, PlannedGroup)> = plan
            .into_iter()
            .map(|p| {
                let mut ids = p.group.job_ids();
                ids.sort_unstable();
                (ids, p)
            })
            .collect();

        if preemptive {
            // Keep running groups whose membership is unchanged.
            for gid in 0..self.groups.len() {
                let Some(g) = self.groups[gid].as_ref() else {
                    continue;
                };
                let mut ids = g.members.clone();
                ids.sort_unstable();
                if let Some(pos) = planned.iter().position(|(p_ids, _)| *p_ids == ids) {
                    planned.swap_remove(pos);
                } else {
                    self.stop_group(gid, Stop::Graceful);
                }
            }
        }
        // Start remaining planned groups (placement in plan order —
        // descending GPU count).
        planned.sort_by(|a, b| {
            b.1.num_gpus
                .cmp(&a.1.num_gpus)
                .then_with(|| a.1.group.members[0].job.0.cmp(&b.1.group.members[0].job.0))
        });
        for (ids, p) in planned {
            self.start_group(ids, p.num_gpus, q);
        }
        self.audit_pass();
    }

    /// Non-preemptive backfill of free GPUs (on completions/faults).
    fn fill_pass(&mut self, q: &mut dyn EventQueue) {
        if self.queue.is_empty() {
            return;
        }
        self.passes += 1;
        self.sync_banned();
        let candidates: Vec<PendingJob> = self
            .queue
            .iter()
            .map(|id| self.jobs[id].as_pending())
            .collect();
        let free = self.cluster.free_gpus();
        if free > 0 {
            let plan =
                plan_schedule_with(&self.cfg.scheduler, &candidates, free, self.now, &self.sink);
            for p in plan {
                let mut ids = p.group.job_ids();
                ids.sort_unstable();
                self.start_group(ids, p.num_gpus, q);
            }
        }
        if self.cfg.scheduler.policy.gpu_shares() {
            self.antman_join_pass(q);
        }
        self.audit_pass();
    }

    /// AntMan's opportunistic sharing: when no GPUs are free, queued jobs
    /// may join a running group of the same GPU count that still has a
    /// resident slot (`antman_max_per_gpu`), in FIFO order. The joiners
    /// run degraded (the sharing-overhead model) but start immediately —
    /// AntMan's makespan advantage in Fig. 10 comes from exactly this.
    fn antman_join_pass(&mut self, q: &mut dyn EventQueue) {
        let cap = self.cfg.scheduler.antman_max_per_gpu.max(1);
        // FIFO order over the queue.
        let mut queued: Vec<JobId> = self.queue.clone();
        queued.sort_by_key(|id| (self.jobs[id].spec.submit_time, *id));
        for job in queued {
            let num_gpus = self.jobs[&job].spec.num_gpus;
            let host = self.groups.iter().position(|g| {
                g.as_ref().is_some_and(|g| {
                    g.gpus.len() == num_gpus as usize
                        && g.members.len() < cap
                        && g.gpus.gpus.iter().all(|&gpu| {
                            self.cluster
                                .machine_available(self.cluster.spec().machine_of(gpu))
                        })
                })
            });
            let Some(gid) = host else {
                continue;
            };
            self.advance_and_reap(gid, q);
            let Some(group) = self.groups[gid].as_ref() else {
                continue;
            };
            if group.members.len() >= cap {
                continue;
            }
            let mut members = group.members.clone();
            members.push(job);
            self.start_members(&[job]);
            self.reform_group(gid, members, q);
        }
    }

    /// Take `ids` off the queue and start them now: a job that ran
    /// before counts a restart, a new one stamps its first start.
    fn start_members(&mut self, ids: &[JobId]) {
        self.queue.retain(|id| !ids.contains(id));
        let now = self.now;
        for &job in ids {
            let Some(j) = self.jobs.get_mut(&job) else {
                continue;
            };
            let restart = j.first_start.is_some();
            if restart {
                j.restarts += 1;
            } else {
                j.first_start = Some(now);
            }
            self.sink.emit(|| Event::JobStarted {
                time: now,
                job,
                restart,
            });
        }
    }

    fn start_group(&mut self, ids: Vec<JobId>, num_gpus: u32, q: &mut dyn EventQueue) {
        debug_assert!(!ids.is_empty());
        let Some(gpus) = self.cluster.allocate(num_gpus) else {
            // Capacity raced away (shouldn't happen — plans respect
            // capacity); leave the jobs queued.
            return;
        };
        self.start_members(&ids);
        let penalty = self.cfg.scheduler.restart_penalty;
        let now = self.now;
        let iter_time = self.execution_iteration_time(&ids, &gpus.gpus);
        let gid = self
            .groups
            .iter()
            .position(Option::is_none)
            .unwrap_or_else(|| {
                self.groups.push(None);
                self.groups.len() - 1
            });
        self.next_version += 1;
        self.groups[gid] = Some(RunningGroup {
            version: self.next_version,
            gpus,
            members: ids.clone(),
            iter_time,
            anchor: self.now + penalty,
            last_touch: self.now,
        });
        self.schedule_completion(gid, q);
        self.schedule_checkpoint(gid, q);
        self.maybe_schedule_fault(gid, &ids, q);
        if self.cfg.faults.health_active() {
            // The monitor compares each hosting machine's realized stage
            // rate against the plan; degraded machines read as
            // stragglers, on-pace machines clear their strikes.
            for m in self.machines_of_group(gid) {
                let ratio = self.slowdown[m as usize];
                self.monitor.observe_machine_rate(m, self.now, ratio);
            }
            self.sync_banned();
        }
        if self.sink.is_enabled() {
            // Trace the group's interleaving lanes over its first two
            // iterations (the renderer clips the window to that anyway).
            // Lanes show the *planned* schedule — the measured profiles
            // under the chosen ordering — which is what the scheduler
            // believed it was building (Fig. 4-style timelines).
            let members: Vec<GroupMember> = ids
                .iter()
                .map(|&job| GroupMember {
                    job,
                    profile: self.jobs[&job].measured,
                })
                .collect();
            let group = InterleaveGroup::form(members, self.cfg.scheduler.grouping.ordering);
            let start = now + penalty;
            let end = start + iter_time * 2;
            self.sink
                .with(|t| t.record_group_timeline(&group, num_gpus, start, end));
        }
    }

    fn maybe_schedule_fault(&mut self, gid: usize, ids: &[JobId], q: &mut dyn EventQueue) {
        let Some(mtbf) = self.cfg.faults.mtbf else {
            return;
        };
        let Some(version) = self.groups[gid].as_ref().map(|g| g.version) else {
            return;
        };
        for &job in ids {
            let dt = exp_gap(&mut self.fault_rng, mtbf);
            let ev = SchedulerEvent::JobFault {
                gid: gid as u32,
                version,
                job,
            };
            q.schedule(self.now + dt, ev);
        }
    }

    // ---------------------------------------------------------- auditing

    /// Snapshot the engine state for the invariant auditor.
    #[cfg(feature = "audit")]
    fn tick_snapshot(&self) -> muri_verify::TickSnapshot {
        let total_gpus = self.cluster.spec().total_gpus();
        let mut finished = Vec::new();
        let mut rejected = Vec::new();
        for j in self.jobs.values() {
            if j.spec.num_gpus > total_gpus {
                rejected.push(j.spec.id);
            } else if j.finish.is_some() {
                finished.push(j.spec.id);
            }
        }
        muri_verify::TickSnapshot {
            time: self.now,
            total_gpus,
            running: self
                .groups
                .iter()
                .flatten()
                .map(|g| muri_verify::GroupSnapshot {
                    members: g.members.clone(),
                    gpus: g.gpus.gpus.clone(),
                })
                .collect(),
            queued: self.queue.clone(),
            finished,
            rejected,
            // Only arrived cancellations: a pre-arrival cancel swallows
            // the arrival, so the job never enters the tracked universe.
            cancelled: self
                .cancelled
                .iter()
                .filter(|id| self.jobs.contains_key(id))
                .copied()
                .collect(),
            arrived: self.jobs.keys().copied().collect(),
        }
    }

    /// Snapshot the fault/recovery-relevant state for `audit_recovery`,
    /// sharing the job sets of this instant's `tick` snapshot.
    #[cfg(feature = "audit")]
    fn recovery_snapshot(&self, tick: &muri_verify::TickSnapshot) -> muri_verify::RecoverySnapshot {
        let spec = self.cluster.spec();
        let total_gpus = spec.total_gpus();
        let down = (0..spec.machines)
            .filter(|&m| self.cluster.is_down(m))
            .collect();
        // The monitor's view (with expiry instants), not the cluster
        // mask: the mask is only refreshed at planning passes and ticks,
        // and the expiry is what lets the auditor distinguish a ban that
        // spanned the window from one that lapsed and was re-issued.
        let blacklisted = self
            .monitor
            .blacklisted_with_expiry(self.now)
            .into_iter()
            .map(|(m, until)| (m, until.as_micros()))
            .collect();
        // `jobs` iterates in id order, so the ledgers come out sorted.
        let mut attained_us = Vec::new();
        let mut saved_iters = Vec::new();
        let mut done_iters = Vec::new();
        for j in self.jobs.values() {
            if j.spec.num_gpus > total_gpus {
                continue; // rejected at submission; never tracked
            }
            attained_us.push((j.spec.id, j.attained.as_micros()));
            saved_iters.push((j.spec.id, j.saved_iters));
            done_iters.push((j.spec.id, j.done_iters));
        }
        muri_verify::RecoverySnapshot {
            time: self.now,
            gpus_per_machine: spec.machine.gpus,
            down,
            blacklisted,
            running: tick.running.clone(),
            queued: tick.queued.clone(),
            finished: tick.finished.clone(),
            cancelled: tick.cancelled.clone(),
            attained_us,
            saved_iters,
            done_iters,
        }
    }

    /// Audit hook, run after every scheduling pass. When collecting
    /// (`simulate_audited`) violations accumulate in the report;
    /// otherwise debug builds abort on the first violation.
    #[cfg(feature = "audit")]
    fn audit_pass(&mut self) {
        if self.audit.is_none() && !cfg!(debug_assertions) {
            // Not auditing: drop the scenario records instead of
            // accumulating them for nobody.
            self.spot_records.clear();
            self.elastic_records.clear();
            return;
        }
        let snap = self.tick_snapshot();
        let mut report = muri_verify::audit_tick(&snap);
        let rec = self.recovery_snapshot(&snap);
        report.merge(muri_verify::audit_recovery(
            self.prev_recovery.as_ref(),
            &rec,
        ));
        self.prev_recovery = Some(rec);
        report.merge(muri_verify::audit_spot(&self.spot_records));
        self.spot_records.clear();
        report.merge(muri_verify::audit_elastic(&self.elastic_records));
        self.elastic_records.clear();
        if self.cluster.is_hetero() {
            report.merge(muri_verify::audit_hetero(&muri_verify::HeteroSnapshot {
                gpus_per_machine: self.cluster.spec().machine.gpus,
                generations: (0..self.cfg.cluster.machines)
                    .map(|m| self.cluster.generation_of_machine(m))
                    .collect(),
                running: snap.running.clone(),
            }));
        }
        let cur_slo: Vec<muri_verify::SloKeyRecord> = self
            .queue
            .iter()
            .filter_map(|id| {
                let j = &self.jobs[id];
                j.deadline?;
                let p = self
                    .cfg
                    .scheduler
                    .policy
                    .priority(&j.as_pending(), self.now);
                Some(muri_verify::SloKeyRecord {
                    job: *id,
                    key: p.primary,
                    state: (
                        j.attained.as_micros(),
                        j.remaining_solo().as_micros(),
                        j.spec.num_gpus,
                    ),
                })
            })
            .collect();
        report.merge(muri_verify::audit_slo_escalation(&self.prev_slo, &cur_slo));
        self.prev_slo = cur_slo;
        match self.audit.as_mut() {
            Some(acc) => acc.merge(report),
            None => debug_assert!(
                report.is_clean(),
                "engine state violates invariants at t={}:\n{report}",
                snap.time
            ),
        }
    }

    /// No-op without the `audit` feature.
    #[cfg(not(feature = "audit"))]
    #[allow(clippy::unused_self)]
    fn audit_pass(&mut self) {}

    // ---------------------------------------------------------- sampling

    fn sample(&mut self) {
        let total_gpus = f64::from(self.cluster.spec().total_gpus());
        let mut util = ResourceVec::splat(0.0);
        let mut running_jobs = 0usize;
        for g in self.groups.iter().flatten() {
            running_jobs += g.members.len();
            let t = g.iter_time.as_secs_f64();
            if t == 0.0 {
                continue;
            }
            for r in ResourceKind::ALL {
                let busy: f64 = g
                    .members
                    .iter()
                    .map(|m| self.jobs[m].truth.duration(r).as_secs_f64())
                    .sum();
                util[r] += (busy / t).min(1.0) * g.gpus.len() as f64 / total_gpus;
            }
        }
        let blocking: Vec<f64> = self
            .queue
            .iter()
            .filter_map(|id| {
                let j = &self.jobs[id];
                let pending = self
                    .now
                    .since(j.spec.submit_time)
                    .saturating_sub(j.attained);
                let rem = j.remaining_solo().as_secs_f64();
                (rem > 0.0).then(|| pending.as_secs_f64() / rem)
            })
            .collect();
        self.sink.with(|t| t.record_utilization(self.now, &util));
        self.series.push(SeriesSample {
            time: self.now,
            queue_length: self.queue.len(),
            blocking_index: muri_workload::stats::mean(&blocking),
            utilization: util,
            running_jobs,
            used_gpus: self.cluster.used_gpus(),
        });
    }

    /// Consume the core and produce the final report: one record per
    /// submitted job (submission order), the tick time series, and the
    /// aggregate counters.
    pub fn finalize(self) -> SimReport {
        let mut records: Vec<JobRecord> = self
            .specs
            .iter()
            .filter_map(|spec| self.jobs.get(&spec.id))
            .map(|j| JobRecord {
                id: j.spec.id,
                model: j.spec.model,
                num_gpus: j.spec.num_gpus,
                submit: j.spec.submit_time,
                first_start: j.first_start,
                finish: j.finish,
                attained: j.attained,
                iterations_done: j.done_iters,
                iterations_total: j.spec.iterations,
                restarts: j.restarts,
                faults: j.faults,
            })
            .collect();
        records.sort_by_key(|r| (r.submit, r.id));
        let makespan = records
            .iter()
            .filter_map(|r| r.finish)
            .max()
            .map_or(SimDuration::ZERO, |t| t.since(SimTime::ZERO));
        SimReport {
            policy: self.cfg.scheduler.policy.name().to_string(),
            trace: self.trace_name,
            records,
            series: self.series,
            makespan,
            scheduling_passes: self.passes,
            events: self.nevents,
        }
    }
}
