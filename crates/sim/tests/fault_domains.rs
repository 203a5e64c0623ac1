#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures

//! Machine-level fault domains end to end: checkpoint/restore must pay
//! for itself, fault injection must stay deterministic (same seeds →
//! byte-identical reports, sequential and parallel replication agree),
//! and the cluster must keep finishing work through machine failures
//! and degraded machines.

use muri_cluster::ClusterSpec;
use muri_core::{PolicyKind, SchedulerConfig};
use muri_sim::{
    replicate_with_workers, simulate, simulate_with_telemetry, CheckpointConfig, FaultPlan,
    SimConfig,
};
use muri_telemetry::{Event, Telemetry, TelemetrySink};
use muri_workload::{JobId, JobSpec, ModelKind, SimDuration, SimTime, SynthConfig, Trace};

/// `n` single-GPU jobs across the four bottleneck classes, each with
/// ~`solo_secs` of solo work, all submitted at t = 0. Long enough that a
/// machine fault mid-run has real progress to destroy.
fn fault_trace(n: usize, solo_secs: u64) -> Trace {
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
    Trace::new("fault-trace", jobs)
}

/// Two machines, machine faults on, no per-job faults: the only
/// progress losses come from machine-level fault domains.
fn machine_fault_config(checkpoint_secs: Option<u64>) -> SimConfig {
    let mut scheduler = SchedulerConfig::preset(PolicyKind::MuriL);
    scheduler.interval = SimDuration::from_mins(2);
    scheduler.restart_penalty = SimDuration::from_secs(5);
    let mut cfg = SimConfig {
        cluster: ClusterSpec::with_machines(2), // 16 GPUs
        ..SimConfig::testbed(scheduler)
    };
    cfg.faults = FaultPlan {
        machine_mtbf: Some(SimDuration::from_secs(450)),
        machine_mttr: SimDuration::from_secs(120),
        transient_fraction: 0.5,
        seed: 7,
        ..FaultPlan::default()
    };
    cfg.checkpoint = CheckpointConfig {
        interval: checkpoint_secs.map(SimDuration::from_secs),
        cost: SimDuration::from_secs(2),
    };
    cfg
}

/// Sum of wall-clock destroyed by rollbacks, and machine-failure count.
fn run_lost_work(cfg: &SimConfig) -> (SimDuration, u64) {
    let trace = fault_trace(12, 1200);
    let sink = TelemetrySink::enabled(Telemetry::new());
    let report = simulate_with_telemetry(&trace, cfg, &sink);
    assert!(report.all_finished(), "jobs must finish: {report:?}");
    let t = sink.into_inner().expect("last telemetry handle");
    let wasted = t
        .journal
        .events()
        .iter()
        .map(|e| match e {
            Event::WorkLost { wasted, .. } => *wasted,
            _ => SimDuration::ZERO,
        })
        .sum();
    (wasted, t.journal.counts().machine_failures)
}

#[test]
fn checkpointing_strictly_reduces_lost_work() {
    // Flat-restart baseline: no checkpoints, so a machine fault destroys
    // everything since the job's last graceful stop.
    let (lost_flat, failures_flat) = run_lost_work(&machine_fault_config(None));
    // Checkpointing every 60 s bounds the exposure per fault.
    let (lost_ckpt, failures_ckpt) = run_lost_work(&machine_fault_config(Some(60)));
    assert!(failures_flat > 0, "scenario must actually fail machines");
    assert!(failures_ckpt > 0, "scenario must actually fail machines");
    assert!(
        lost_flat > SimDuration::ZERO,
        "flat restarts must lose work"
    );
    assert!(
        lost_ckpt < lost_flat,
        "checkpointing must strictly reduce lost work: {lost_ckpt} vs {lost_flat}"
    );
}

#[test]
fn machine_fault_runs_are_byte_identical_across_replays() {
    let trace = fault_trace(12, 1200);
    let mut cfg = machine_fault_config(Some(90));
    cfg.faults.degraded_machines = 1;
    cfg.faults.degraded_slowdown = 1.5;
    let a = simulate(&trace, &cfg);
    let b = simulate(&trace, &cfg);
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "same fault seeds must replay byte-identically"
    );
}

#[test]
fn jobs_finish_through_machine_failures_and_degradation() {
    let trace = fault_trace(12, 1200);
    let mut cfg = machine_fault_config(Some(120));
    cfg.faults.degraded_machines = 1;
    let report = simulate(&trace, &cfg);
    assert!(
        report.all_finished(),
        "cluster must ride out machine faults"
    );
    let faults: u64 = report.records.iter().map(|r| u64::from(r.faults)).sum();
    assert!(faults > 0, "machine faults must have cascaded to jobs");
    for r in &report.records {
        assert_eq!(r.iterations_done, r.iterations_total, "{}", r.id);
    }
}

#[test]
fn degraded_machines_slow_the_cluster_down() {
    let trace = fault_trace(12, 1200);
    let mut healthy = machine_fault_config(None);
    healthy.faults.machine_mtbf = None; // isolate the degradation effect
    let mut degraded = healthy;
    degraded.faults.degraded_machines = 2; // both machines limp
    degraded.faults.degraded_slowdown = 2.0;
    let fast = simulate(&trace, &healthy);
    let slow = simulate(&trace, &degraded);
    assert!(fast.all_finished() && slow.all_finished());
    assert!(
        slow.avg_jct_secs() > fast.avg_jct_secs(),
        "degraded stages must lengthen JCTs: {} vs {}",
        slow.avg_jct_secs(),
        fast.avg_jct_secs()
    );
}

#[test]
fn replication_is_worker_count_invariant_under_faults() {
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
    let sim = machine_fault_config(Some(120));
    let sequential = replicate_with_workers(&synth, &sim, 4, 1);
    let parallel = replicate_with_workers(&synth, &sim, 4, 4);
    assert_eq!(
        sequential, parallel,
        "faulty replication must not depend on worker striping"
    );
}
