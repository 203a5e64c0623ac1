//! The [`TelemetrySink`] handle threaded through scheduler, simulator,
//! and monitor — and the [`Telemetry`] state behind it.
//!
//! The sink is a `Option<Rc<RefCell<Telemetry>>>`: cloning is a pointer
//! copy, and the disabled sink is `None`, so every instrumentation site
//! reduces to one branch when telemetry is off. That is the overhead
//! contract that keeps `BENCH_grouping.json` honest. The handle is
//! deliberately `!Send`: telemetry is per-simulation state, and parallel
//! replication threads each run with their own (usually disabled) sink.

use std::cell::RefCell;
use std::rc::Rc;

use crate::chrome_trace::{ChromeTrace, SCHEDULER_PID};
use crate::event::Event;
use crate::journal::Journal;
use crate::metrics::MetricsRegistry;
use muri_interleave::InterleaveGroup;
use muri_workload::{ResourceVec, SimTime};
use serde::Value;

/// The mutable telemetry state: journal, metrics, and Chrome trace, all
/// fed by one [`Telemetry::emit`] call per event so the three exporters
/// stay consistent with each other.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// The bounded event journal (JSONL export).
    pub journal: Journal,
    /// The metrics registry (Prometheus export).
    pub metrics: MetricsRegistry,
    /// The Chrome `trace_event` builder (Perfetto export).
    pub trace: ChromeTrace,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// Fresh telemetry state with default journal capacity.
    pub fn new() -> Self {
        Telemetry {
            journal: Journal::default(),
            metrics: MetricsRegistry::new(),
            trace: ChromeTrace::new(),
        }
    }

    /// Fresh telemetry state with a custom journal capacity.
    pub fn with_journal_capacity(capacity: usize) -> Self {
        Telemetry {
            journal: Journal::with_capacity(capacity),
            ..Telemetry::new()
        }
    }

    /// Record one event in the journal and fold it into the metrics
    /// registry (and, for planning passes, the scheduler trace lane).
    pub fn emit(&mut self, event: Event) {
        match &event {
            Event::JobArrived { .. } => {
                self.metrics
                    .inc_counter("muri_jobs_arrived_total", "Jobs submitted", &[], 1);
            }
            Event::JobStarted { restart, .. } => {
                let restart = if *restart { "true" } else { "false" };
                self.metrics.inc_counter(
                    "muri_job_starts_total",
                    "Job (re)starts by restart flag",
                    &[("restart", restart)],
                    1,
                );
            }
            Event::JobPreempted { .. } => {
                self.metrics.inc_counter(
                    "muri_jobs_preempted_total",
                    "Jobs preempted by a scheduling pass",
                    &[],
                    1,
                );
            }
            Event::JobFaulted { kind, .. } => {
                self.metrics.inc_counter(
                    "muri_jobs_faulted_total",
                    "Executor faults reported to the monitor, by kind",
                    &[("kind", kind.as_str())],
                    1,
                );
            }
            Event::JobCompleted { .. } => {
                self.metrics
                    .inc_counter("muri_jobs_completed_total", "Jobs finished", &[], 1);
            }
            Event::GroupFormed {
                members,
                gamma,
                iteration_time,
                ..
            } => {
                self.metrics.inc_counter(
                    "muri_groups_formed_total",
                    "Interleave groups formed by the scheduler",
                    &[],
                    1,
                );
                #[allow(clippy::cast_precision_loss)]
                self.metrics.observe(
                    "muri_group_size",
                    "Members per formed group",
                    &[],
                    members.len() as f64,
                );
                self.metrics.observe(
                    "muri_group_gamma",
                    "Interleaving efficiency (Eq. 4) of formed groups",
                    &[],
                    *gamma,
                );
                self.metrics.observe(
                    "muri_group_iteration_seconds",
                    "Group iteration time (Eq. 3)",
                    &[],
                    iteration_time.as_secs_f64(),
                );
            }
            Event::PlanningPass {
                time,
                candidates,
                planned_groups,
                planned_jobs,
                phases,
                gamma_cache,
                ..
            } => {
                self.metrics.inc_counter(
                    "muri_planning_passes_total",
                    "plan_schedule invocations",
                    &[],
                    1,
                );
                self.metrics.inc_counter(
                    "muri_cache_hits_total",
                    "Memoization cache hits by cache",
                    &[("cache", "gamma")],
                    gamma_cache.hits,
                );
                self.metrics.inc_counter(
                    "muri_cache_misses_total",
                    "Memoization cache misses by cache",
                    &[("cache", "gamma")],
                    gamma_cache.misses,
                );
                self.metrics.inc_counter(
                    "muri_pruned_edges_total",
                    "Edges dropped by Blossom sparsification",
                    &[],
                    phases.pruned_edges,
                );
                self.metrics.inc_counter(
                    "muri_prune_fallbacks_total",
                    "Dense fallbacks after a failed prune certificate",
                    &[],
                    phases.prune_fallbacks,
                );
                let total_us = phases.sort_us
                    + phases.admission_us
                    + phases.bucketing_us
                    + phases.grouping_us
                    + phases.selection_us;
                #[allow(clippy::cast_precision_loss)]
                self.metrics.observe(
                    "muri_plan_wall_seconds",
                    "Host wall-clock time per planning pass",
                    &[],
                    total_us as f64 / 1e6,
                );
                for (phase, us) in [
                    ("sort", phases.sort_us),
                    ("admission", phases.admission_us),
                    ("bucketing", phases.bucketing_us),
                    ("grouping", phases.grouping_us),
                    ("graph_build", phases.graph_build_us),
                    ("matching", phases.matching_us),
                    ("selection", phases.selection_us),
                ] {
                    #[allow(clippy::cast_precision_loss)]
                    self.metrics.observe(
                        "muri_plan_phase_seconds",
                        "Host wall-clock time per planning phase",
                        &[("phase", phase)],
                        us as f64 / 1e6,
                    );
                }
                self.trace.complete(
                    "plan_schedule",
                    "scheduler",
                    *time,
                    total_us.max(1),
                    (SCHEDULER_PID, 0),
                    vec![
                        (
                            "candidates".to_string(),
                            Value::UInt(u64::from(*candidates)),
                        ),
                        (
                            "planned_groups".to_string(),
                            Value::UInt(u64::from(*planned_groups)),
                        ),
                        (
                            "planned_jobs".to_string(),
                            Value::UInt(u64::from(*planned_jobs)),
                        ),
                        (
                            "matching_rounds".to_string(),
                            Value::UInt(u64::from(phases.matching_rounds)),
                        ),
                    ],
                );
            }
            Event::MachineFailed {
                time,
                machine,
                transient,
                ..
            } => {
                let transient = if *transient { "true" } else { "false" };
                self.metrics.inc_counter(
                    "muri_machine_failures_total",
                    "Machine-level faults by transience",
                    &[("transient", transient)],
                    1,
                );
                self.trace.instant(
                    &format!("machine{machine}_failed"),
                    "fault",
                    *time,
                    SCHEDULER_PID,
                    1,
                );
            }
            Event::MachineRecovered { time, machine } => {
                self.metrics.inc_counter(
                    "muri_machine_recoveries_total",
                    "Fail-stopped machines repaired and rejoined",
                    &[],
                    1,
                );
                self.trace.instant(
                    &format!("machine{machine}_recovered"),
                    "fault",
                    *time,
                    SCHEDULER_PID,
                    1,
                );
            }
            Event::MachineBlacklisted {
                time,
                machine,
                reason,
            } => {
                self.metrics.inc_counter(
                    "muri_machine_blacklists_total",
                    "Machines blacklisted by the worker monitor, by reason",
                    &[("reason", reason.as_str())],
                    1,
                );
                self.trace.instant(
                    &format!("machine{machine}_blacklisted"),
                    "fault",
                    *time,
                    SCHEDULER_PID,
                    1,
                );
            }
            Event::CheckpointTaken { .. } => {
                self.metrics.inc_counter(
                    "muri_checkpoints_total",
                    "Checkpoints taken by running jobs",
                    &[],
                    1,
                );
            }
            Event::WorkLost {
                iterations, wasted, ..
            } => {
                self.metrics.inc_counter(
                    "muri_work_lost_iterations_total",
                    "Iterations discarded by fault rollbacks",
                    &[],
                    *iterations,
                );
                self.metrics.observe(
                    "muri_work_lost_seconds",
                    "Wall-clock worth of work lost per fault rollback",
                    &[],
                    wasted.as_secs_f64(),
                );
            }
            Event::SpotEvicted {
                time,
                machine,
                drained,
                wasted,
            } => {
                self.metrics.inc_counter(
                    "muri_spot_evictions_total",
                    "Spot machine evictions",
                    &[],
                    1,
                );
                self.metrics.inc_counter(
                    "muri_spot_drained_jobs_total",
                    "Jobs drained to a checkpoint inside eviction warnings",
                    &[],
                    *drained,
                );
                self.metrics.observe(
                    "muri_spot_wasted_seconds",
                    "Wall-clock worth of work destroyed per spot eviction",
                    &[],
                    wasted.as_secs_f64(),
                );
                self.trace.instant(
                    &format!("machine{machine}_spot_evicted"),
                    "fault",
                    *time,
                    SCHEDULER_PID,
                    1,
                );
            }
            Event::ElasticResized {
                from_gpus, to_gpus, ..
            } => {
                let dir = if to_gpus > from_gpus {
                    "grow"
                } else {
                    "shrink"
                };
                self.metrics.inc_counter(
                    "muri_elastic_resizes_total",
                    "Elastic job resizes by direction",
                    &[("direction", dir)],
                    1,
                );
            }
        }
        self.journal.record(event);
    }

    /// Fold a cluster utilization snapshot into per-resource gauges and
    /// histograms (the paper's worker monitor feed, §3/§5).
    pub fn record_utilization(&mut self, _time: SimTime, util: &ResourceVec<f64>) {
        for (kind, &u) in util.iter() {
            let label = [("resource", kind.stage_label())];
            self.metrics.set_gauge(
                "muri_utilization",
                "Latest per-resource cluster utilization",
                &label,
                u,
            );
            self.metrics.observe(
                "muri_utilization_hist",
                "Distribution of per-resource utilization samples",
                &label,
                u,
            );
        }
    }

    /// Render a traced group's interleaving lanes for `[start, end)`.
    /// Called by the engine when a running group's lifetime is known.
    pub fn record_group_timeline(
        &mut self,
        group: &InterleaveGroup,
        num_gpus: u32,
        start: SimTime,
        end: SimTime,
    ) {
        self.trace.add_group_lanes(group, num_gpus, start, end);
    }
}

/// Helper: stable label string for a resource kind.
trait StageLabel {
    fn stage_label(self) -> &'static str;
}

impl StageLabel for muri_workload::ResourceKind {
    fn stage_label(self) -> &'static str {
        match self {
            muri_workload::ResourceKind::Storage => "storage",
            muri_workload::ResourceKind::Cpu => "cpu",
            muri_workload::ResourceKind::Gpu => "gpu",
            muri_workload::ResourceKind::Network => "network",
        }
    }
}

/// Cheap, clonable handle to optional telemetry state.
///
/// `TelemetrySink::disabled()` is a `None` — every call site reduces to
/// a branch, which is the ~zero-overhead contract the benchmarks rely
/// on. Enabled sinks share one [`Telemetry`] via `Rc<RefCell<..>>`.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySink(Option<Rc<RefCell<Telemetry>>>);

impl TelemetrySink {
    /// The no-op sink.
    pub fn disabled() -> Self {
        TelemetrySink(None)
    }

    /// A sink feeding the given telemetry state.
    pub fn enabled(telemetry: Telemetry) -> Self {
        TelemetrySink(Some(Rc::new(RefCell::new(telemetry))))
    }

    /// True when events will actually be recorded. Call sites use this
    /// to skip building event payloads (and `Instant::now()` reads).
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Run `f` against the telemetry state when enabled.
    pub fn with<R>(&self, f: impl FnOnce(&mut Telemetry) -> R) -> Option<R> {
        self.0.as_ref().map(|t| f(&mut t.borrow_mut()))
    }

    /// Emit an event, building it lazily only when the sink is enabled.
    pub fn emit(&self, build: impl FnOnce() -> Event) {
        if let Some(t) = &self.0 {
            t.borrow_mut().emit(build());
        }
    }

    /// Recover the telemetry state. Returns `None` for a disabled sink
    /// or while other clones of the handle are still alive.
    pub fn into_inner(self) -> Option<Telemetry> {
        self.0
            .and_then(|rc| Rc::try_unwrap(rc).ok())
            .map(RefCell::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muri_workload::JobId;

    #[test]
    fn disabled_sink_never_builds_events() {
        let sink = TelemetrySink::disabled();
        assert!(!sink.is_enabled());
        sink.emit(|| unreachable!("disabled sink must not build events"));
        assert!(sink.with(|_| 1).is_none());
        assert!(sink.into_inner().is_none());
    }

    #[test]
    fn enabled_sink_shares_state_across_clones() {
        let sink = TelemetrySink::enabled(Telemetry::new());
        let clone = sink.clone();
        clone.emit(|| Event::JobArrived {
            time: SimTime::ZERO,
            job: JobId(1),
            num_gpus: 2,
        });
        // into_inner fails while the clone is alive, then succeeds.
        let sink = match sink.into_inner() {
            None => clone,
            Some(_) => panic!("clone still alive"),
        };
        let t = sink.into_inner().expect("last handle");
        assert_eq!(t.journal.len(), 1);
        assert_eq!(
            t.metrics.counter_value("muri_jobs_arrived_total", &[]),
            Some(1)
        );
    }

    #[test]
    fn emit_feeds_metrics_and_trace_consistently() {
        let mut t = Telemetry::new();
        t.emit(Event::PlanningPass {
            time: SimTime::from_secs(1),
            candidates: 4,
            free_gpus: 8,
            planned_groups: 1,
            planned_jobs: 2,
            phases: crate::event::PlanPhases {
                grouping_us: 120,
                ..Default::default()
            },
            gamma_cache: crate::event::CacheDelta { hits: 5, misses: 1 },
            round_cache: crate::event::CacheDelta::default(),
        });
        assert_eq!(
            t.metrics.counter_value("muri_planning_passes_total", &[]),
            Some(1)
        );
        assert_eq!(
            t.metrics
                .counter_value("muri_cache_hits_total", &[("cache", "gamma")]),
            Some(5)
        );
        assert_eq!(t.trace.len(), 1);
        assert_eq!(t.journal.len(), 1);
    }

    #[test]
    fn utilization_snapshot_sets_gauges() {
        let mut t = Telemetry::new();
        let util = ResourceVec([0.1, 0.2, 0.9, 0.4]);
        t.record_utilization(SimTime::from_secs(5), &util);
        assert_eq!(
            t.metrics
                .gauge_value("muri_utilization", &[("resource", "gpu")]),
            Some(0.9)
        );
        assert_eq!(
            t.metrics
                .histogram("muri_utilization_hist", &[("resource", "gpu")])
                .map(crate::metrics::Histogram::count),
            Some(1)
        );
    }
}
