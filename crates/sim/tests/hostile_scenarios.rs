#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures

//! Hostile-cluster scenarios end to end: spot/preemptible machines with
//! advance-warning drains, heterogeneous GPU generations, elastic jobs,
//! and SLO deadlines. Every scenario must stay deterministic (same seed
//! → byte-identical reports, bit-identical across replication worker
//! counts), drained evictions must strictly beat no-warning evictions,
//! and the cluster must keep finishing work through all of it.

use muri_cluster::ClusterSpec;
use muri_core::{PolicyKind, SchedulerConfig};
use muri_sim::{
    replicate_with_workers, simulate, simulate_with_telemetry, CheckpointConfig, FaultPlan,
    SimConfig,
};
use muri_telemetry::{Event, Telemetry, TelemetrySink};
use muri_workload::{JobId, JobSpec, ModelKind, SimDuration, SimTime, SynthConfig, Trace};

/// `n` single-GPU jobs across the four bottleneck classes, each with
/// ~`solo_secs` of solo work, all submitted at t = 0 — enough backlog
/// that evictions, resizes, and deadline escalation all have something
/// to act on.
fn hostile_trace(n: usize, solo_secs: u64) -> Trace {
    let models = [
        ModelKind::ShuffleNet,
        ModelKind::A2c,
        ModelKind::Gpt2,
        ModelKind::Vgg16,
    ];
    let jobs = (0..n)
        .map(|i| {
            JobSpec::from_duration(
                JobId(i as u32),
                models[i % models.len()],
                1,
                SimDuration::from_secs(solo_secs),
                SimTime::ZERO,
            )
        })
        .collect();
    Trace::new("hostile-trace", jobs)
}

/// Two machines (16 GPUs), fast scheduling, no fault features: each
/// scenario test switches on exactly the knobs it exercises.
fn base_config() -> SimConfig {
    let mut scheduler = SchedulerConfig::preset(PolicyKind::MuriL);
    scheduler.interval = SimDuration::from_mins(2);
    scheduler.restart_penalty = SimDuration::from_secs(5);
    let mut cfg = SimConfig {
        cluster: ClusterSpec::with_machines(2),
        ..SimConfig::testbed(scheduler)
    };
    cfg.faults = FaultPlan {
        seed: 11,
        ..FaultPlan::default()
    };
    cfg
}

/// Spot scenario: one preemptible machine, evictions every ~400 s, the
/// machine away for 120 s. `warning_secs` is the advance notice; the
/// 2 s checkpoint cost fits any non-zero window here. No periodic
/// checkpoints — the drain is the only durable mark, so a no-warning
/// eviction destroys everything since the job's last graceful stop.
fn spot_config(warning_secs: u64) -> SimConfig {
    let mut cfg = base_config();
    cfg.faults.spot_machines = 1;
    cfg.faults.spot_mtbe = Some(SimDuration::from_secs(400));
    cfg.faults.spot_warning = SimDuration::from_secs(warning_secs);
    cfg.faults.spot_downtime = SimDuration::from_secs(120);
    cfg.checkpoint = CheckpointConfig {
        interval: None,
        cost: SimDuration::from_secs(2),
    };
    cfg
}

/// Run a trace and return (report, telemetry journal).
fn run_journaled(trace: &Trace, cfg: &SimConfig) -> (muri_sim::SimReport, muri_telemetry::Journal) {
    let sink = TelemetrySink::enabled(Telemetry::new());
    let report = simulate_with_telemetry(trace, cfg, &sink);
    let t = sink.into_inner().expect("last telemetry handle");
    (report, t.journal)
}

/// Same seed ⇒ byte-identical reports.
fn assert_deterministic(trace: &Trace, cfg: &SimConfig, what: &str) {
    let a = simulate(trace, cfg);
    let b = simulate(trace, cfg);
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "{what}: same seed must replay byte-identically"
    );
}

#[test]
fn spot_eviction_runs_are_deterministic() {
    let trace = hostile_trace(12, 1200);
    assert_deterministic(&trace, &spot_config(60), "spot with warning");
    assert_deterministic(&trace, &spot_config(0), "spot without warning");
}

#[test]
fn drained_evictions_strictly_reduce_lost_work() {
    let trace = hostile_trace(12, 1200);
    let tally = |cfg: &SimConfig| {
        let (report, journal) = run_journaled(&trace, cfg);
        assert!(report.all_finished(), "jobs must ride out evictions");
        let mut evictions = 0u64;
        let mut drained = 0u64;
        let mut wasted = SimDuration::ZERO;
        for e in journal.events() {
            match e {
                Event::SpotEvicted {
                    drained: d,
                    wasted: w,
                    ..
                } => {
                    evictions += 1;
                    drained += d;
                    wasted += *w;
                }
                Event::WorkLost { wasted: w, .. } => wasted += *w,
                _ => {}
            }
        }
        (evictions, drained, wasted)
    };
    // One RNG draw per eviction cycle regardless of the warning setting,
    // so both runs draw the same eviction gaps — the warned run just
    // drains before each hit (and, losing less work, finishes sooner,
    // which can fit fewer eviction cycles before the trace drains).
    let (ev_warned, drained_warned, wasted_warned) = tally(&spot_config(60));
    let (ev_flat, drained_flat, wasted_flat) = tally(&spot_config(0));
    assert!(ev_warned > 0, "warned scenario must actually evict");
    assert!(ev_flat > 0, "no-warning scenario must actually evict");
    assert!(
        ev_warned <= ev_flat,
        "draining must not prolong the run into extra evictions: \
         {ev_warned} vs {ev_flat}"
    );
    assert!(
        drained_warned > 0,
        "warned evictions must drain hosted jobs to a checkpoint"
    );
    assert_eq!(drained_flat, 0, "no warning, no drain");
    assert!(
        wasted_flat > SimDuration::ZERO,
        "no-warning evictions must lose work"
    );
    assert!(
        wasted_warned < wasted_flat,
        "drained evictions must strictly reduce lost work: \
         {wasted_warned} vs {wasted_flat}"
    );
}

#[test]
fn spot_capacity_returns_after_downtime() {
    let trace = hostile_trace(12, 1200);
    let (report, journal) = run_journaled(&trace, &spot_config(30));
    assert!(report.all_finished());
    assert!(journal.counts().spot_evictions > 0);
    for r in &report.records {
        assert_eq!(r.iterations_done, r.iterations_total, "{}", r.id);
    }
}

#[test]
fn hetero_generation_runs_are_deterministic() {
    let trace = hostile_trace(12, 1200);
    let mut cfg = base_config();
    cfg.faults.gpu_generations = 2;
    cfg.faults.generation_gap = 1.0;
    assert_deterministic(&trace, &cfg, "two GPU generations");
}

#[test]
fn old_generations_slow_the_cluster_down() {
    let trace = hostile_trace(12, 1200);
    let homogeneous = base_config();
    let mut hetero = base_config();
    hetero.faults.gpu_generations = 2;
    hetero.faults.generation_gap = 1.0; // generation 1 runs 2x slower
    let fast = simulate(&trace, &homogeneous);
    let slow = simulate(&trace, &hetero);
    assert!(fast.all_finished() && slow.all_finished());
    assert!(
        slow.avg_jct_secs() > fast.avg_jct_secs(),
        "stages on the old generation must lengthen JCTs: {} vs {}",
        slow.avg_jct_secs(),
        fast.avg_jct_secs()
    );
}

#[test]
fn elastic_jobs_resize_and_still_finish_their_work() {
    let trace = hostile_trace(12, 1200);
    let mut cfg = base_config();
    cfg.faults.elastic_fraction = 0.5;
    cfg.faults.elastic_interval = Some(SimDuration::from_secs(300));
    assert_deterministic(&trace, &cfg, "elastic resizing");
    let (report, journal) = run_journaled(&trace, &cfg);
    assert!(report.all_finished(), "resizes must not strand jobs");
    assert!(
        journal.counts().elastic_resizes > 0,
        "the 50% elastic draw must actually resize someone"
    );
    for r in &report.records {
        assert_eq!(
            r.iterations_done, r.iterations_total,
            "{}: a resize must conserve requested work",
            r.id
        );
    }
}

#[test]
fn slo_runs_are_deterministic_and_deadline_jobs_exist() {
    let trace = hostile_trace(24, 900);
    let mut cfg = base_config();
    cfg.faults.slo_fraction = 0.5;
    cfg.faults.slo_slack = 1.5;
    assert_deterministic(&trace, &cfg, "SLO deadlines");
    let tagged = trace
        .jobs
        .iter()
        .filter(|j| cfg.faults.deadline_for(j).is_some())
        .count();
    assert!(
        tagged > 0 && tagged < trace.len(),
        "the seeded draw must tag some but not all jobs ({tagged}/{})",
        trace.len()
    );
}

#[test]
fn slo_escalation_pulls_deadline_jobs_forward() {
    // Identical jobs, heavy backlog: without deadlines the two halves
    // of the draw finish symmetrically; with escalation the deadline
    // jobs' priority rises as slack burns, so they must finish no later
    // on average.
    let trace = hostile_trace(24, 900);
    let mut with_slo = base_config();
    with_slo.faults.slo_fraction = 0.5;
    with_slo.faults.slo_slack = 1.5;
    let plain = base_config();
    let slo_jobs: Vec<JobId> = trace
        .jobs
        .iter()
        .filter(|j| with_slo.faults.deadline_for(j).is_some())
        .map(|j| j.id)
        .collect();
    let mean_jct = |report: &muri_sim::SimReport| {
        let jcts: Vec<f64> = report
            .records
            .iter()
            .filter(|r| slo_jobs.contains(&r.id))
            .filter_map(muri_sim::JobRecord::jct)
            .map(muri_workload::SimDuration::as_secs_f64)
            .collect();
        assert!(!jcts.is_empty());
        jcts.iter().sum::<f64>() / jcts.len() as f64
    };
    let escalated = simulate(&trace, &with_slo);
    let baseline = simulate(&trace, &plain);
    assert!(escalated.all_finished() && baseline.all_finished());
    assert!(
        mean_jct(&escalated) <= mean_jct(&baseline),
        "escalation must not push deadline jobs later: {} vs {}",
        mean_jct(&escalated),
        mean_jct(&baseline)
    );
}

/// All four scenarios at once.
fn combined_config() -> SimConfig {
    let mut cfg = spot_config(45);
    cfg.faults.gpu_generations = 2;
    cfg.faults.generation_gap = 0.5;
    cfg.faults.elastic_fraction = 0.3;
    cfg.faults.elastic_interval = Some(SimDuration::from_secs(400));
    cfg.faults.slo_fraction = 0.3;
    cfg.faults.slo_slack = 2.0;
    cfg
}

#[test]
fn combined_hostile_runs_are_deterministic_and_finish() {
    let trace = hostile_trace(12, 1200);
    let cfg = combined_config();
    assert_deterministic(&trace, &cfg, "all four scenarios combined");
    let report = simulate(&trace, &cfg);
    assert!(report.all_finished(), "hostile cluster must still finish");
}

#[test]
fn hostile_replication_is_worker_count_invariant() {
    let synth = SynthConfig {
        num_jobs: 16,
        duration_median_secs: 240.0,
        duration_sigma: 0.8,
        load_reference_gpus: 8,
        target_load: 1.0,
        gpu_dist: muri_workload::GpuDistribution::default().capped(4),
        max_duration: SimDuration::from_mins(30),
        ..SynthConfig::default()
    };
    let cfg = combined_config();
    let sequential = replicate_with_workers(&synth, &cfg, 4, 1);
    let parallel = replicate_with_workers(&synth, &cfg, 4, 4);
    assert_eq!(
        sequential, parallel,
        "hostile replication must not depend on worker striping"
    );
}

/// The audited engine path over the full hostile suite: every scenario
/// audit (spot drain bounds, hetero placement legality, elastic
/// conservation, SLO escalation monotonicity) plus the standing
/// invariants must hold with zero violations.
#[cfg(feature = "audit")]
#[test]
fn audited_hostile_simulation_is_violation_free() {
    let trace = hostile_trace(12, 1200);
    let (report, audit) = muri_sim::simulate_audited(&trace, &combined_config());
    assert!(report.all_finished());
    assert!(audit.checks > 0, "audits must actually run");
    assert!(audit.is_clean(), "{}", audit.render());
}
