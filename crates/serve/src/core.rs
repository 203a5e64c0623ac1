//! [`ServeCore`]: the daemon's scheduler state, one layer above
//! `muri_sim::EngineCore`.
//!
//! Owns the engine, its event queue, the tenant ledger, the operation
//! log, and the telemetry sink; exposes exactly the operations the HTTP
//! surface needs. The same type runs in two modes:
//!
//! * **live** — a [`WallClock`]-gated [`RealTimeQueue`]; [`pump`]
//!   (called by the scheduler thread between requests) releases due
//!   events and reconciles job lifecycles;
//! * **deterministic** — a plain `VirtualClockQueue` driven to
//!   completion, used by tests to prove the daemon's request path is
//!   byte-equivalent to the batch simulator ([`deterministic_run`])
//!   and that crash recovery replays to the exact pre-crash state.
//!
//! **Durability.** Every state-changing input (accepted submit, cancel,
//! config change, checkpoint) is recorded as an [`OpRecord`] *before*
//! the caller is acknowledged; when a [`DurableLog`] is attached the
//! scheduler thread group-commits a burst of records with one fsync
//! ([`sync_journal`]). The invariant that makes replay exact: an op is
//! applied only after the engine has been pumped to the op's timestamp
//! ([`pump_to`]), so recovery — `advance_to(op.time)` then re-apply —
//! reproduces the identical event-queue insertion order.
//!
//! **Overload.** Admission is bounded two ways: a per-tenant open-job
//! depth cap (refused retryable → HTTP 429) and a global open-job bound
//! under which the cheapest outcome wins — if the heaviest *queued* job
//! outweighs the incoming one it is shed (a journaled cancel) to make
//! room, otherwise the incoming request is refused retryable (→ 503).
//! Both refusals carry `retry_after_ms`; neither reaches the engine.
//!
//! [`pump`]: ServeCore::pump
//! [`pump_to`]: ServeCore::pump_to
//! [`sync_journal`]: ServeCore::sync_journal

use crate::journal::{DurableLog, OpRecord, OPLOG_VERSION};
use crate::proto::{
    ClusterView, ConfigRequest, ConfigResponse, JobView, ShutdownResponse, SubmitRequest,
    SubmitResponse,
};
use crate::realtime::{RealTimeQueue, WallClock};
use crate::recover::{merge_ops, RecoverBoot, RecoverySummary};
use crate::tenant::{TenantConfig, TenantRegistry};
use muri_core::PlanMode;
use muri_engine::{EventQueue, VirtualClockQueue};
use muri_sim::{EngineCore, JobPhase, SimConfig, SimReport};
use muri_telemetry::{Telemetry, TelemetrySink};
use muri_workload::{JobId, JobSpec, SimTime, Trace};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::Path;

/// Per-job admission state for one not-yet-terminal job (the tenant
/// side of the ledger lives in [`TenantRegistry`], keyed by job id).
#[derive(Debug)]
struct OpenJob {
    num_gpus: u32,
    iterations: u64,
    submitted: SimTime,
    placed: bool,
}

/// Backpressure bounds for the admission path.
#[derive(Debug, Clone, Copy)]
pub struct ServeLimits {
    /// Global open-job bound: at or above it, a submit must either
    /// shed a heavier queued job or be refused retryable.
    pub max_open_jobs: usize,
    /// Per-tenant open-job depth cap (refused retryable when full).
    pub tenant_depth: usize,
    /// Backoff hint attached to retryable refusals, in milliseconds.
    pub retry_after_ms: u64,
}

impl Default for ServeLimits {
    fn default() -> Self {
        ServeLimits {
            max_open_jobs: 1024,
            tenant_depth: 256,
            retry_after_ms: 1000,
        }
    }
}

/// Signature of the immutable boot configuration, stored in every op-log
/// header: recovery refuses to replay a journal written against a
/// different cluster/scheduler shape.
#[must_use]
pub fn sim_signature(cfg: &SimConfig) -> String {
    serde_json::to_string(cfg).unwrap_or_default()
}

/// Shedding priority: the work a job still represents. The heaviest
/// queued job is the first shed under overload ("lowest priority"
/// is most-expensive-to-keep); ties break toward the youngest job id.
fn job_weight(num_gpus: u32, iterations: u64) -> u64 {
    u64::from(num_gpus).saturating_mul(iterations.max(1))
}

/// The daemon's scheduler state. See the module docs.
pub struct ServeCore {
    engine: EngineCore,
    q: Box<dyn EventQueue>,
    clock: Option<WallClock>,
    tenants: TenantRegistry,
    limits: ServeLimits,
    next_id: u32,
    open: BTreeMap<JobId, OpenJob>,
    sink: TelemetrySink,
    // -------- operation log --------
    sim_sig: String,
    seq: u64,
    history: Vec<OpRecord>,
    pending: Vec<OpRecord>,
    durable: Option<DurableLog>,
    complete_logged: BTreeSet<u32>,
    replaying: bool,
    shed_total: u64,
}

impl ServeCore {
    /// A live core: wall-clock-gated events, telemetry on. The
    /// `PlanMode` slot is accepted and ignored (every pass re-plans in
    /// full); it stays only because the benchmark harness passes it.
    #[must_use]
    pub fn live(
        cfg: &SimConfig,
        tenants: Vec<TenantConfig>,
        _plan_mode: PlanMode,
        time_scale: f64,
        limits: ServeLimits,
    ) -> Self {
        let clock = WallClock::new(time_scale);
        let q = Box::new(RealTimeQueue::new(clock));
        let mut core = ServeCore::new_inner(
            cfg,
            "live",
            tenants,
            q,
            Some(clock),
            TelemetrySink::enabled(Telemetry::new()),
        );
        core.limits = limits;
        core
    }

    /// A deterministic core: virtual-clock events, driven explicitly —
    /// the daemon's test mode.
    #[must_use]
    pub fn deterministic(
        cfg: &SimConfig,
        name: &str,
        tenants: Vec<TenantConfig>,
        sink: TelemetrySink,
    ) -> Self {
        let q = Box::new(VirtualClockQueue::new());
        ServeCore::new_inner(cfg, name, tenants, q, None, sink)
    }

    fn new_inner(
        cfg: &SimConfig,
        name: &str,
        tenants: Vec<TenantConfig>,
        mut q: Box<dyn EventQueue>,
        clock: Option<WallClock>,
        sink: TelemetrySink,
    ) -> Self {
        let mut engine = EngineCore::new_live(cfg, name, q.as_mut());
        engine.set_telemetry(sink.clone());
        ServeCore {
            engine,
            q,
            clock,
            tenants: TenantRegistry::new(tenants),
            limits: ServeLimits::default(),
            next_id: 0,
            open: BTreeMap::new(),
            sink,
            sim_sig: sim_signature(cfg),
            seq: 1,
            history: Vec::new(),
            pending: Vec::new(),
            durable: None,
            complete_logged: BTreeSet::new(),
            replaying: false,
            shed_total: 0,
        }
    }

    /// Rebuild a core from a compacted snapshot prefix plus live-log
    /// suffix: merge the two (seq-deduped, header-validated against the
    /// boot config), then replay every op through the same apply paths
    /// the live daemon uses — `advance_to(op.time)` before each apply
    /// reproduces the exact pre-crash event ordering, so the recovered
    /// scheduler state is identical to one that never crashed.
    pub fn recover(
        boot: RecoverBoot<'_>,
        snapshot: &[OpRecord],
        log: &[OpRecord],
    ) -> Result<(Self, RecoverySummary), String> {
        let sig = sim_signature(boot.cfg);
        let merged = merge_ops(snapshot, log, OPLOG_VERSION, &sig)?;
        let mut core = match boot.live_time_scale {
            Some(scale) => {
                // Resume scheduler time where the journal left off:
                // every replayed event is due, and new wall time
                // extends the old timeline.
                let clock = WallClock::resume_at(merged.resume_time, scale);
                let q = Box::new(RealTimeQueue::new(clock));
                ServeCore::new_inner(
                    boot.cfg,
                    &boot.name,
                    boot.tenants,
                    q,
                    Some(clock),
                    boot.sink,
                )
            }
            None => ServeCore::deterministic(boot.cfg, &boot.name, boot.tenants, boot.sink),
        };
        core.limits = boot.limits;
        core.replaying = true;
        for op in &merged.ops {
            core.apply_op(op);
        }
        core.replaying = false;
        // Id/seq watermarks: the header floors guard against a lost
        // suffix log ever rewinding allocation (a reissued job id
        // would alias a dead job's identity).
        core.seq = core.seq.max(merged.next_seq_floor);
        core.next_id = core.next_id.max(merged.next_id_floor);
        let summary = merged.summarize(core.next_id);
        core.history = merged.ops;
        Ok((core, summary))
    }

    /// Attach a fresh durable log in `dir`: subsequent recorded ops are
    /// group-committed by [`sync_journal`](Self::sync_journal).
    pub fn attach_durable(&mut self, dir: &Path, snapshot_every: usize) -> io::Result<()> {
        let header = self.header();
        self.durable = Some(DurableLog::create(dir, &header, snapshot_every)?);
        if !self.history.is_empty() {
            self.pending = self.history.clone();
            self.sync_journal()?;
        }
        Ok(())
    }

    /// Reattach the durable log of a recovered state directory and
    /// compact immediately, so repeated crash/recover cycles replay a
    /// bounded log instead of an ever-growing one.
    pub fn reattach_durable(
        &mut self,
        dir: &Path,
        suffix_len: usize,
        snapshot_every: usize,
    ) -> io::Result<()> {
        let mut log = DurableLog::reattach(dir, suffix_len, snapshot_every)?;
        log.compact(&self.header(), &self.history)?;
        self.durable = Some(log);
        Ok(())
    }

    fn header(&self) -> OpRecord {
        OpRecord::Header {
            version: OPLOG_VERSION,
            sim: self.sim_sig.clone(),
            next_seq: self.seq,
            next_id: self.next_id,
        }
    }

    fn take_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    fn record(&mut self, op: OpRecord) {
        if self.durable.is_some() {
            self.pending.push(op.clone());
        }
        self.history.push(op);
    }

    /// Group commit: flush every op recorded since the last call with a
    /// single fsync, compacting the snapshot when the live log has
    /// grown past its threshold. **Mutating commands must not be
    /// acknowledged before this returns** — the scheduler thread
    /// batches a burst of commands, syncs once, then replies.
    pub fn sync_journal(&mut self) -> io::Result<()> {
        let Some(d) = self.durable.as_mut() else {
            self.pending.clear();
            return Ok(());
        };
        let batch = std::mem::take(&mut self.pending);
        d.append(&batch)?;
        if d.should_compact() {
            let header = OpRecord::Header {
                version: OPLOG_VERSION,
                sim: self.sim_sig.clone(),
                next_seq: self.seq,
                next_id: self.next_id,
            };
            d.compact(&header, &self.history)?;
        }
        Ok(())
    }

    /// The op log as applied so far (inputs plus completion
    /// cross-checks) — what recovery replays and the audit inspects.
    #[must_use]
    pub fn history(&self) -> &[OpRecord] {
        &self.history
    }

    /// Next job id to be issued.
    #[must_use]
    pub fn next_id(&self) -> u32 {
        self.next_id
    }

    /// Jobs shed by overload control since boot.
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.shed_total
    }

    /// Override the backpressure bounds (tests and recovery boots).
    pub fn set_limits(&mut self, limits: ServeLimits) {
        self.limits = limits;
    }

    /// Current scheduler time (wall-derived in live mode).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.clock.map_or(self.engine.now(), |c| c.now_sim())
    }

    /// Admit and submit one job. The admission check (model, shape,
    /// tenant quota, backpressure bounds) runs *before* the scheduler
    /// sees the job — a refusal never reaches grouping, and an accepted
    /// submission is journaled before it is applied.
    pub fn submit(&mut self, req: &SubmitRequest) -> SubmitResponse {
        let refuse = |reason: String| SubmitResponse {
            accepted: false,
            job: None,
            reason: Some(reason),
            retry_after_ms: None,
        };
        let Some(model) = crate::proto::parse_model(&req.model) else {
            return self.count_submit(refuse(format!("unknown model {:?}", req.model)));
        };
        if req.num_gpus == 0 || !req.num_gpus.is_power_of_two() {
            return self.count_submit(refuse(format!(
                "num_gpus must be a nonzero power of two, got {}",
                req.num_gpus
            )));
        }
        let total = self.engine.cluster_state().total_gpus;
        if req.num_gpus > total {
            return self.count_submit(refuse(format!(
                "job demands {} GPUs but the cluster has {total}",
                req.num_gpus
            )));
        }
        if req.iterations == 0 {
            return self.count_submit(refuse("iterations must be positive".to_string()));
        }
        let tenant = req.tenant.as_deref().unwrap_or("default").to_string();
        // Pump to now before judging saturation: completions that
        // already happened free depth and quota, and the op (if
        // accepted) must apply at a pumped clock for replay exactness.
        let now = self.now();
        self.pump_to(now);
        if self.tenants.held_jobs(&tenant) >= self.limits.tenant_depth {
            return self.count_submit(self.retryable(format!(
                "tenant {tenant:?} is at its open-job depth cap ({})",
                self.limits.tenant_depth
            )));
        }
        if self.open.len() >= self.limits.max_open_jobs {
            // Sustained overload: shed the lowest-priority (heaviest)
            // queued job if the incoming one is lighter, else refuse.
            let incoming = job_weight(req.num_gpus, req.iterations);
            let victim = self
                .open
                .iter()
                .filter(|(_, o)| !o.placed)
                .map(|(&id, o)| (job_weight(o.num_gpus, o.iterations), id))
                .max();
            match victim {
                Some((w, id)) if w > incoming => self.shed(id, now),
                _ => {
                    return self.count_submit(self.retryable(format!(
                        "daemon is at its open-job bound ({})",
                        self.limits.max_open_jobs
                    )));
                }
            }
        }
        let id = self.next_id;
        if let Err(reason) = self.tenants.hold(&tenant, id, req.num_gpus) {
            return self.count_submit(refuse(reason));
        }
        self.next_id += 1;
        let spec = JobSpec::new(JobId(id), model, req.num_gpus, req.iterations, now);
        self.record(OpRecord::Submit {
            seq: self.seq,
            time: now,
            tenant: tenant.clone(),
            spec,
        });
        self.take_seq();
        self.apply_submit(spec);
        self.count_submit(SubmitResponse {
            accepted: true,
            job: Some(id),
            reason: None,
            retry_after_ms: None,
        })
    }

    fn retryable(&self, reason: String) -> SubmitResponse {
        SubmitResponse {
            accepted: false,
            job: None,
            reason: Some(reason),
            retry_after_ms: Some(self.limits.retry_after_ms),
        }
    }

    /// Shed one queued job to make room under overload: a journaled
    /// cancel, indistinguishable from a client cancel on replay.
    fn shed(&mut self, id: JobId, now: SimTime) {
        self.record(OpRecord::Cancel {
            seq: self.seq,
            time: now,
            job: id.0,
            shed: true,
        });
        self.take_seq();
        let ok = self.engine.cancel(id, self.q.as_mut());
        debug_assert!(ok, "shedding a queued job must succeed");
        self.shed_total += 1;
        self.sink.with(|t| {
            t.metrics.inc_counter(
                "muri_serve_shed_total",
                "Jobs shed by overload control",
                &[],
                1,
            );
        });
        self.reconcile();
    }

    /// Trace-replay submission path (deterministic mode): the spec keeps
    /// its trace identity but still passes through tenant admission.
    pub fn submit_spec(&mut self, tenant: &str, spec: JobSpec) -> Result<(), String> {
        self.tenants.hold(tenant, spec.id.0, spec.num_gpus)?;
        let time = self.now();
        self.record(OpRecord::Submit {
            seq: self.seq,
            time,
            tenant: tenant.to_string(),
            spec,
        });
        self.take_seq();
        self.apply_submit(spec);
        Ok(())
    }

    /// Shared apply path of live submission and recovery replay: track
    /// the job, floor the id allocator past it, hand it to the engine.
    fn apply_submit(&mut self, spec: JobSpec) {
        self.next_id = self.next_id.max(spec.id.0.saturating_add(1));
        self.open.insert(
            spec.id,
            OpenJob {
                num_gpus: spec.num_gpus,
                iterations: spec.iterations,
                submitted: spec.submit_time,
                placed: false,
            },
        );
        self.engine.submit(spec, self.q.as_mut());
    }

    /// Replay one journaled op (recovery path). Applies through the
    /// same internals as the live paths, after advancing the engine to
    /// the op's recorded time.
    fn apply_op(&mut self, op: &OpRecord) {
        match op {
            OpRecord::Header { .. } => {}
            OpRecord::Submit {
                time, tenant, spec, ..
            } => {
                self.pump_to(*time);
                let held = self.tenants.hold(tenant, spec.id.0, spec.num_gpus);
                debug_assert!(held.is_ok(), "replaying an admitted submit: {held:?}");
                self.apply_submit(*spec);
            }
            OpRecord::Cancel { time, job, .. } => {
                self.pump_to(*time);
                let _ = self.engine.cancel(JobId(*job), self.q.as_mut());
                self.reconcile();
            }
            OpRecord::Config { time, tenants, .. } => {
                self.pump_to(*time);
                self.tenants.apply_config(tenants);
            }
            OpRecord::Checkpoint { time, .. } => {
                self.pump_to(*time);
                self.engine.checkpoint_all();
            }
            OpRecord::Complete { time, job, .. } => {
                // Completions are re-derived by replay — pumping to the
                // recorded time drives the engine through the same
                // terminal events; the marker only prevents
                // re-journaling them.
                self.pump_to(*time);
                self.complete_logged.insert(*job);
            }
        }
        if let Some(s) = op.seq() {
            self.seq = self.seq.max(s.saturating_add(1));
        }
    }

    fn count_submit(&mut self, resp: SubmitResponse) -> SubmitResponse {
        let accepted = if resp.accepted { "true" } else { "false" };
        self.sink.with(|t| {
            t.metrics.inc_counter(
                "muri_serve_submissions_total",
                "Submissions by admission outcome",
                &[("accepted", accepted)],
                1,
            );
        });
        resp
    }

    /// Advance the engine to `t` (never backward) and reconcile job
    /// lifecycles. The shared clock-stepping primitive of the live
    /// pump, every op application, and recovery replay.
    fn pump_to(&mut self, t: SimTime) {
        let t = t.max(self.engine.now());
        self.engine.advance_to(t, self.q.as_mut());
        self.reconcile();
    }

    /// Release due events into the engine and reconcile job lifecycles
    /// (placement latency, tenant demand release). The scheduler
    /// thread's heartbeat.
    pub fn pump(&mut self) {
        if let Some(clock) = self.clock {
            self.pump_to(clock.now_sim());
        } else {
            self.reconcile();
        }
    }

    /// Manually advance scheduler time (deterministic mode): tests and
    /// replay histories use this to spread ops over virtual time.
    pub fn advance_to(&mut self, t: SimTime) {
        self.pump_to(t);
    }

    /// Wall time until the next queued event comes due — what the
    /// scheduler thread sleeps instead of busy-polling. `None` (no
    /// clock, or no pending events) means block until the next command:
    /// with an empty queue there is nothing to pump.
    #[must_use]
    pub fn next_wakeup(&self) -> Option<std::time::Duration> {
        let clock = self.clock?;
        let at = self.q.peek_time()?;
        Some(clock.wall_until(at))
    }

    /// Drive the virtual-clock queue until all submitted work completes
    /// (deterministic mode only; in live mode events gate on the wall
    /// clock, so this behaves like one [`pump`](ServeCore::pump)).
    pub fn run_to_completion(&mut self) {
        self.engine.drive(self.q.as_mut());
        self.reconcile();
    }

    fn reconcile(&mut self) {
        let mut done: Vec<(JobId, JobPhase)> = Vec::new();
        for (&id, o) in &mut self.open {
            let Some(st) = self.engine.job_status(id) else {
                continue;
            };
            if !o.placed {
                if let Some(first) = st.first_start {
                    o.placed = true;
                    let latency_us = first.since(o.submitted).as_micros();
                    self.sink.with(|t| {
                        t.metrics.observe(
                            "muri_serve_placement_latency_us",
                            "Scheduler-time latency from submission to first placement (us)",
                            &[],
                            latency_us as f64,
                        );
                    });
                }
            }
            if matches!(
                st.phase,
                JobPhase::Finished | JobPhase::Cancelled | JobPhase::Rejected
            ) {
                done.push((id, st.phase));
            }
        }
        for (id, phase) in done {
            if self.open.remove(&id).is_some() {
                // Idempotent per-job release: a cancel racing a
                // completion gives the demand back exactly once.
                self.tenants.release_job(id.0);
            }
            if self.complete_logged.insert(id.0) && !self.replaying {
                let time = self.engine.now();
                self.record(OpRecord::Complete {
                    seq: self.seq,
                    time,
                    job: id.0,
                    phase: phase_str(phase).to_string(),
                });
                self.take_seq();
            }
        }
    }

    /// Status of one job, if known.
    #[must_use]
    pub fn status(&self, job: u32) -> Option<JobView> {
        self.engine
            .job_status(JobId(job))
            .map(|status| JobView { job, status })
    }

    /// Cancel one job (journaled). Tenant demand is released on the
    /// next reconcile.
    pub fn cancel(&mut self, job: u32) -> bool {
        let now = self.now();
        self.pump_to(now);
        let ok = self.engine.cancel(JobId(job), self.q.as_mut());
        if ok {
            self.record(OpRecord::Cancel {
                seq: self.seq,
                time: now,
                job,
                shed: false,
            });
            self.take_seq();
            self.sink.with(|t| {
                t.metrics.inc_counter(
                    "muri_serve_cancellations_total",
                    "Jobs cancelled through the API",
                    &[],
                    1,
                );
            });
            self.reconcile();
        }
        ok
    }

    /// Apply a rolling config change (journaled): tenant-quota upserts,
    /// without restart.
    pub fn apply_config(&mut self, req: &ConfigRequest) -> ConfigResponse {
        let now = self.now();
        self.pump_to(now);
        self.record(OpRecord::Config {
            seq: self.seq,
            time: now,
            tenants: req.tenants.clone(),
        });
        self.take_seq();
        self.tenants.apply_config(&req.tenants);
        ConfigResponse {
            applied: true,
            tenants_updated: req.tenants.len(),
        }
    }

    /// Aggregate cluster + tenant state.
    #[must_use]
    pub fn cluster(&self) -> ClusterView {
        ClusterView {
            cluster: self.engine.cluster_state(),
            tenants: self.tenants.snapshot(),
        }
    }

    /// Render the metrics registry in the Prometheus text format, after
    /// refreshing the daemon gauges.
    #[must_use]
    pub fn metrics_text(&self) -> String {
        let state = self.engine.cluster_state();
        let open = self.open.len();
        let oplog_ops = self.history.len();
        let tenants = self.tenants.snapshot();
        self.sink
            .with(|t| {
                let m = &mut t.metrics;
                let g = "Daemon gauge";
                m.set_gauge("muri_serve_free_gpus", g, &[], f64::from(state.free_gpus));
                m.set_gauge("muri_serve_used_gpus", g, &[], f64::from(state.used_gpus));
                m.set_gauge("muri_serve_queued_jobs", g, &[], state.queued_jobs as f64);
                m.set_gauge(
                    "muri_serve_running_groups",
                    g,
                    &[],
                    state.groups.len() as f64,
                );
                m.set_gauge("muri_serve_open_jobs", g, &[], open as f64);
                m.set_gauge(
                    "muri_serve_oplog_ops",
                    "Operation-log records since boot",
                    &[],
                    oplog_ops as f64,
                );
                for (name, outstanding, _) in &tenants {
                    m.set_gauge(
                        "muri_serve_tenant_outstanding_gpus",
                        "Outstanding admitted GPU demand per tenant",
                        &[("tenant", name)],
                        f64::from(*outstanding),
                    );
                }
                m.render()
            })
            .unwrap_or_default()
    }

    /// The telemetry journal as JSONL.
    #[must_use]
    pub fn journal_jsonl(&self) -> String {
        self.sink.with(|t| t.journal.to_jsonl()).unwrap_or_default()
    }

    /// Graceful-shutdown checkpoint: settle progress, persist every
    /// running member's iterations, journal the checkpoint barrier, and
    /// report what was protected.
    pub fn shutdown(&mut self) -> ShutdownResponse {
        let now = self.now();
        self.pump_to(now);
        self.record(OpRecord::Checkpoint {
            seq: self.seq,
            time: now,
        });
        self.take_seq();
        self.engine.checkpoint_all();
        if let Err(e) = self.sync_journal() {
            eprintln!("muri-serve: journal sync on shutdown failed: {e}");
        }
        let checkpointed_jobs = self
            .engine
            .cluster_state()
            .groups
            .iter()
            .map(|g| g.members.len())
            .sum();
        let journal_events = self.sink.with(|t| t.journal.len()).unwrap_or(0);
        ShutdownResponse {
            checkpointed_jobs,
            journal_events,
        }
    }

    /// Whether every submitted job has reached a terminal state.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.engine.is_done()
    }

    /// Consume the core and produce the batch-style report
    /// (deterministic mode's output).
    #[must_use]
    pub fn finalize(self) -> SimReport {
        self.engine.finalize()
    }
}

fn phase_str(phase: JobPhase) -> &'static str {
    match phase {
        JobPhase::Queued => "queued",
        JobPhase::Running => "running",
        JobPhase::Finished => "finished",
        JobPhase::Cancelled => "cancelled",
        JobPhase::Rejected => "rejected",
    }
}

/// Replay `trace` through the daemon's deterministic test mode: every
/// job passes the admission path ([`ServeCore::submit_spec`]) and the
/// run is driven to completion on the virtual clock. With the same
/// config, the report is byte-equivalent to `muri_sim::simulate` —
/// the equivalence test pins exactly that.
pub fn deterministic_run(trace: &Trace, cfg: &SimConfig, sink: &TelemetrySink) -> SimReport {
    let mut core = ServeCore::deterministic(cfg, &trace.name, vec![], sink.clone());
    for spec in &trace.jobs {
        // Open-mode tenancy: admission always passes, so the engine sees
        // every trace job exactly as the batch simulator does.
        let admitted = core.submit_spec("default", *spec);
        debug_assert!(admitted.is_ok());
    }
    core.run_to_completion();
    core.finalize()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use muri_core::{PolicyKind, SchedulerConfig};

    fn testbed() -> SimConfig {
        SimConfig::testbed(SchedulerConfig::preset(PolicyKind::MuriL))
    }

    fn submit(model: &str, gpus: u32, iters: u64, tenant: Option<&str>) -> SubmitRequest {
        SubmitRequest {
            tenant: tenant.map(str::to_string),
            model: model.to_string(),
            num_gpus: gpus,
            iterations: iters,
        }
    }

    #[test]
    fn deterministic_submit_runs_to_completion() {
        let cfg = testbed();
        let mut core = ServeCore::deterministic(&cfg, "t", vec![], TelemetrySink::disabled());
        let resp = core.submit(&submit("ResNet18", 2, 50, None));
        assert!(resp.accepted, "{resp:?}");
        let id = resp.job.expect("job id");
        core.run_to_completion();
        let view = core.status(id).expect("status");
        assert_eq!(view.status.phase, JobPhase::Finished);
        assert!(core.is_done());
        // Tenant demand was released on completion.
        assert_eq!(core.tenants.outstanding("default"), 0);
        // Submit and completion are both in the op log.
        let kinds: Vec<&str> = core.history().iter().map(OpRecord::kind).collect();
        assert_eq!(kinds, vec!["submit", "complete"]);
    }

    #[test]
    fn admission_refuses_bad_shapes_and_quota() {
        let cfg = testbed();
        let tenants = vec![TenantConfig {
            name: "alice".to_string(),
            quota_gpus: Some(4),
        }];
        let mut core = ServeCore::deterministic(&cfg, "t", tenants, TelemetrySink::disabled());
        assert!(!core.submit(&submit("NoSuchModel", 2, 10, None)).accepted);
        assert!(!core.submit(&submit("ResNet18", 3, 10, None)).accepted);
        assert!(!core.submit(&submit("ResNet18", 128, 10, None)).accepted);
        assert!(!core.submit(&submit("ResNet18", 2, 0, None)).accepted);
        // Closed mode: unknown tenant refused; quota enforced.
        assert!(!core.submit(&submit("ResNet18", 2, 10, None)).accepted);
        assert!(
            core.submit(&submit("ResNet18", 4, 10, Some("alice")))
                .accepted
        );
        let over = core.submit(&submit("ResNet18", 2, 10, Some("alice")));
        assert!(!over.accepted);
        assert!(over.reason.unwrap_or_default().contains("quota"));
        // Hard refusals are permanent, not retryable.
        assert!(over.retry_after_ms.is_none());
        // Refusals never enter the op log.
        assert_eq!(core.history().len(), 1);
    }

    #[test]
    fn cancel_releases_tenant_demand() {
        let cfg = testbed();
        let tenants = vec![TenantConfig {
            name: "alice".to_string(),
            quota_gpus: Some(4),
        }];
        let mut core = ServeCore::deterministic(&cfg, "t", tenants, TelemetrySink::disabled());
        let resp = core.submit(&submit("ResNet18", 4, 1_000_000, Some("alice")));
        let id = resp.job.expect("job id");
        assert!(
            !core
                .submit(&submit("ResNet18", 2, 10, Some("alice")))
                .accepted
        );
        assert!(core.cancel(id));
        assert!(
            core.submit(&submit("ResNet18", 2, 10, Some("alice")))
                .accepted
        );
    }

    #[test]
    fn tenant_depth_cap_refuses_retryable() {
        let cfg = testbed();
        let mut core = ServeCore::deterministic(&cfg, "t", vec![], TelemetrySink::disabled());
        core.set_limits(ServeLimits {
            max_open_jobs: 1024,
            tenant_depth: 2,
            retry_after_ms: 250,
        });
        assert!(core.submit(&submit("ResNet18", 1, 10_000, None)).accepted);
        assert!(core.submit(&submit("ResNet18", 1, 10_000, None)).accepted);
        let over = core.submit(&submit("ResNet18", 1, 10_000, None));
        assert!(!over.accepted);
        assert_eq!(over.retry_after_ms, Some(250));
        assert!(over.reason.unwrap_or_default().starts_with("tenant"));
        // Another tenant still has room.
        assert!(
            core.submit(&submit("ResNet18", 1, 10_000, Some("bob")))
                .accepted
        );
    }

    #[test]
    fn overload_sheds_heaviest_queued_job_first() {
        let cfg = testbed();
        let mut core = ServeCore::deterministic(&cfg, "t", vec![], TelemetrySink::disabled());
        core.set_limits(ServeLimits {
            max_open_jobs: 2,
            tenant_depth: 1024,
            retry_after_ms: 100,
        });
        // A long-running light job takes one GPU; the heavy job demands
        // the whole cluster, so it cannot place and stays queued (only
        // queued jobs are sheddable).
        let light = core.submit(&submit("ResNet18", 1, 1_000_000, None));
        let total = core.cluster().cluster.total_gpus;
        let heavy = core.submit(&submit("ResNet18", total, 1_000_000, None));
        assert!(light.accepted && heavy.accepted);
        core.advance_to(SimTime::from_secs(60));
        core.pump();
        // A third submission lighter than the queued heavy job sheds it…
        let incoming = core.submit(&submit("ResNet18", 1, 200, None));
        assert!(incoming.accepted, "{incoming:?}");
        assert_eq!(core.shed_total(), 1);
        let heavy_id = heavy.job.expect("job id");
        assert_eq!(
            core.status(heavy_id).expect("status").status.phase,
            JobPhase::Cancelled
        );
        // …and the shed is journaled as such.
        assert!(core.history().iter().any(|op| matches!(
            op,
            OpRecord::Cancel { job, shed: true, .. } if *job == heavy_id
        )));
        // A heavier-than-everything incoming job is refused retryable.
        let refused = core.submit(&submit("ResNet18", 16, 1_000_000_000, None));
        assert!(!refused.accepted);
        assert_eq!(refused.retry_after_ms, Some(100));
    }

    #[test]
    fn rolling_config_changes_quotas_without_restart() {
        let cfg = testbed();
        let tenants = vec![TenantConfig {
            name: "alice".to_string(),
            quota_gpus: Some(2),
        }];
        let mut core = ServeCore::deterministic(&cfg, "t", tenants, TelemetrySink::disabled());
        assert!(
            !core
                .submit(&submit("ResNet18", 4, 10, Some("alice")))
                .accepted
        );
        let resp = core.apply_config(&ConfigRequest {
            tenants: vec![TenantConfig {
                name: "alice".to_string(),
                quota_gpus: Some(8),
            }],
        });
        assert!(resp.applied);
        assert!(
            core.submit(&submit("ResNet18", 4, 10, Some("alice")))
                .accepted
        );
        assert!(core
            .history()
            .iter()
            .any(|op| matches!(op, OpRecord::Config { .. })));
    }

    #[test]
    fn metrics_render_includes_daemon_gauges() {
        let cfg = testbed();
        let mut core =
            ServeCore::deterministic(&cfg, "t", vec![], TelemetrySink::enabled(Telemetry::new()));
        let _ = core.submit(&submit("ResNet18", 2, 50, None));
        core.run_to_completion();
        let text = core.metrics_text();
        assert!(text.contains("muri_serve_free_gpus"), "{text}");
        assert!(text.contains("muri_serve_submissions_total"), "{text}");
        assert!(text.contains("muri_serve_placement_latency_us"), "{text}");
        assert!(text.contains("muri_serve_oplog_ops"), "{text}");
        muri_telemetry::parse_prometheus(&text).expect("valid Prometheus exposition");
    }
}
