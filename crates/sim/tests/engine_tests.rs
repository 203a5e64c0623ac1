#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures

//! End-to-end tests of the discrete-event engine: conservation laws,
//! policy sanity, the headline Muri-vs-baseline effect, determinism,
//! noise, and fault injection.

use muri_cluster::ClusterSpec;
use muri_core::{PolicyKind, SchedulerConfig};
use muri_sim::{simulate, FaultPlan, SimConfig, SimReport};
use muri_workload::{JobId, JobSpec, ModelKind, ProfilerConfig, SimDuration, SimTime, Trace};

/// A small mixed trace: `n` single-GPU jobs cycling through the four
/// bottleneck classes, all submitted at t = 0. Every job has the same
/// solo *duration* (`base_iterations` × ShuffleNet's iteration time), so
/// priority order mixes the classes the way duration/model independence
/// does in real traces.
fn mixed_trace(n: usize, base_iterations: u64) -> Trace {
    let models = [
        ModelKind::ShuffleNet, // storage
        ModelKind::A2c,        // cpu
        ModelKind::Gpt2,       // gpu
        ModelKind::Vgg16,      // network
    ];
    let target = ModelKind::ShuffleNet.profile(16).iteration_time() * base_iterations;
    let jobs = (0..n)
        .map(|i| {
            JobSpec::from_duration(
                JobId(i as u32),
                models[i % models.len()],
                1,
                target,
                SimTime::ZERO,
            )
        })
        .collect();
    Trace::new("mixed", jobs)
}

fn small_config(policy: PolicyKind) -> SimConfig {
    let mut scheduler = SchedulerConfig::preset(policy);
    scheduler.interval = SimDuration::from_mins(2);
    scheduler.restart_penalty = SimDuration::from_secs(5);
    SimConfig {
        cluster: ClusterSpec::with_machines(1), // 8 GPUs
        ..SimConfig::testbed(scheduler)
    }
}

fn check_conservation(report: &SimReport, trace: &Trace) {
    assert_eq!(report.records.len(), trace.len(), "every job recorded");
    assert!(report.all_finished(), "all jobs must finish: {report:?}");
    for r in &report.records {
        assert_eq!(
            r.iterations_done, r.iterations_total,
            "{}: iterations incomplete",
            r.id
        );
        let finish = r.finish.expect("finished");
        let start = r.first_start.expect("started");
        assert!(start >= r.submit, "{}: started before submission", r.id);
        assert!(finish >= start, "{}: finished before starting", r.id);
        // A job cannot finish faster than its solo duration.
        let spec = trace.jobs.iter().find(|j| j.id == r.id).unwrap();
        let solo = spec.solo_duration();
        assert!(
            finish.since(start) + SimDuration::from_secs(1) >= solo,
            "{}: ran faster than physics allows ({} < {})",
            r.id,
            finish.since(start),
            solo
        );
    }
}

#[test]
fn single_job_completes_in_solo_time_plus_penalty() {
    let trace = mixed_trace(1, 50);
    let cfg = small_config(PolicyKind::Fifo);
    let report = simulate(&trace, &cfg);
    check_conservation(&report, &trace);
    let r = &report.records[0];
    let solo = trace.jobs[0].solo_duration();
    let jct = r.jct().unwrap();
    // Starts immediately (fill on arrival); pays one restart penalty.
    let expected = solo + cfg.scheduler.restart_penalty;
    assert_eq!(jct, expected, "JCT {jct} vs expected {expected}");
    assert_eq!(r.restarts, 0);
}

#[test]
fn all_policies_conserve_work() {
    let trace = mixed_trace(24, 60);
    for policy in [
        PolicyKind::Fifo,
        PolicyKind::Sjf,
        PolicyKind::Srtf,
        PolicyKind::Srsf,
        PolicyKind::Las,
        PolicyKind::TwoDLas,
        PolicyKind::Tiresias,
        PolicyKind::Gittins,
        PolicyKind::Themis,
        PolicyKind::AntMan,
        PolicyKind::MuriS,
        PolicyKind::MuriL,
    ] {
        let report = simulate(&trace, &small_config(policy));
        check_conservation(&report, &trace);
    }
}

#[test]
fn simulation_is_deterministic() {
    let trace = mixed_trace(20, 40);
    let cfg = small_config(PolicyKind::MuriL);
    let a = simulate(&trace, &cfg);
    let b = simulate(&trace, &cfg);
    assert_eq!(a, b);
}

#[test]
fn muri_beats_srsf_on_complementary_workload() {
    // The headline effect: with jobs bottlenecked on different resources
    // and a deep backlog (many scheduling waves), interleaving packs up
    // to 4 jobs per GPU; the extra throughput wins on average JCT,
    // makespan, and tail JCT. (With a shallow backlog SRSF's optimal
    // ordering can still tie — the paper's gains likewise come from
    // loaded traces.)
    let trace = mixed_trace(128, 120);
    let srsf = simulate(&trace, &small_config(PolicyKind::Srsf));
    let muri = simulate(&trace, &small_config(PolicyKind::MuriS));
    check_conservation(&srsf, &trace);
    check_conservation(&muri, &trace);
    let jct_speedup = srsf.avg_jct_secs() / muri.avg_jct_secs();
    let makespan_speedup = srsf.makespan_secs() / muri.makespan_secs();
    // This hand-built trace is a stress case (4.3× spread in iteration
    // times); the JCT win lands at the low end of the paper's 1.13–2.26×
    // range, with decisive makespan and tail-JCT wins.
    assert!(
        jct_speedup > 1.05,
        "expected a JCT win, got {jct_speedup:.2}x (srsf {}, muri {})",
        srsf.avg_jct_secs(),
        muri.avg_jct_secs()
    );
    assert!(
        makespan_speedup > 1.15,
        "expected clear makespan win, got {makespan_speedup:.2}x"
    );
    assert!(
        muri.p99_jct_secs() < srsf.p99_jct_secs(),
        "tail JCT should improve: muri {} vs srsf {}",
        muri.p99_jct_secs(),
        srsf.p99_jct_secs()
    );
}

#[test]
fn srtf_beats_fifo_on_skewed_durations() {
    // One long job ahead of many short ones: FIFO head-of-line blocking
    // vs SRTF.
    let mut jobs = vec![JobSpec::new(
        JobId(0),
        ModelKind::Gpt2,
        8,
        3000,
        SimTime::ZERO,
    )];
    for i in 1..16 {
        jobs.push(JobSpec::new(
            JobId(i),
            ModelKind::Gpt2,
            8,
            30,
            SimTime::from_secs(1),
        ));
    }
    let trace = Trace::new("skewed", jobs);
    let fifo = simulate(&trace, &small_config(PolicyKind::Fifo));
    let srtf = simulate(&trace, &small_config(PolicyKind::Srtf));
    check_conservation(&fifo, &trace);
    check_conservation(&srtf, &trace);
    assert!(
        srtf.avg_jct_secs() < fifo.avg_jct_secs() * 0.7,
        "srtf {} vs fifo {}",
        srtf.avg_jct_secs(),
        fifo.avg_jct_secs()
    );
}

#[test]
fn profiling_noise_degrades_but_does_not_break_muri() {
    let trace = mixed_trace(24, 80);
    let clean = simulate(&trace, &small_config(PolicyKind::MuriL));
    let mut noisy_cfg = small_config(PolicyKind::MuriL);
    noisy_cfg.profiler = ProfilerConfig {
        noise: 1.0,
        reuse_cache: false,
        ..ProfilerConfig::default()
    };
    let noisy = simulate(&trace, &noisy_cfg);
    check_conservation(&noisy, &trace);
    // Noise can only mislead grouping decisions, not speed up physics:
    // allow a sliver of scheduling luck, but no real improvement.
    assert!(
        noisy.avg_jct_secs() >= clean.avg_jct_secs() * 0.9,
        "noisy {} vs clean {}",
        noisy.avg_jct_secs(),
        clean.avg_jct_secs()
    );
}

#[test]
fn faults_requeue_and_jobs_still_finish() {
    let trace = mixed_trace(12, 60);
    let mut cfg = small_config(PolicyKind::MuriL);
    cfg.faults = FaultPlan {
        mtbf: Some(SimDuration::from_secs(40)),
        seed: 7,
        ..FaultPlan::default()
    };
    let faulty = simulate(&trace, &cfg);
    check_conservation(&faulty, &trace);
    let total_faults: u32 = faulty.records.iter().map(|r| r.faults).sum();
    assert!(total_faults > 0, "fault injection should have fired");
    let clean = simulate(&trace, &small_config(PolicyKind::MuriL));
    // Faults waste work; modulo regrouping luck, JCT must not get
    // meaningfully better.
    assert!(
        faulty.avg_jct_secs() >= clean.avg_jct_secs() * 0.85,
        "faults should not clearly improve JCT: {} vs {}",
        faulty.avg_jct_secs(),
        clean.avg_jct_secs()
    );
}

#[test]
fn antman_shares_gpus_opportunistically() {
    // 16 single-GPU jobs on 8 GPUs, all at t0: AntMan co-locates the
    // overflow onto resident jobs (up to 2 per GPU) instead of queueing
    // it, so everyone starts immediately — at degraded speed.
    let trace = mixed_trace(16, 60);
    let antman = simulate(&trace, &small_config(PolicyKind::AntMan));
    check_conservation(&antman, &trace);
    let peak_running = antman
        .series
        .iter()
        .map(|s| s.running_jobs)
        .max()
        .unwrap_or(0);
    assert!(
        peak_running > 8,
        "AntMan should run more jobs than GPUs via sharing, got {peak_running}"
    );
    // FIFO without sharing would strand half the jobs in the queue.
    let fifo = simulate(&trace, &small_config(PolicyKind::Fifo));
    let fifo_peak = fifo
        .series
        .iter()
        .map(|s| s.running_jobs)
        .max()
        .unwrap_or(0);
    assert!(
        fifo_peak <= 8,
        "FIFO cannot exceed one job per GPU, got {fifo_peak}"
    );
}

#[test]
fn oversized_job_is_rejected_not_hung() {
    let jobs = vec![
        JobSpec::new(JobId(0), ModelKind::Bert, 16, 10, SimTime::ZERO), // > 8 GPUs
        JobSpec::new(JobId(1), ModelKind::Bert, 1, 10, SimTime::ZERO),
    ];
    let trace = Trace::new("oversize", jobs);
    let report = simulate(&trace, &small_config(PolicyKind::Fifo));
    assert_eq!(report.finished_jobs(), 1);
    let rejected = report.records.iter().find(|r| r.id == JobId(0)).unwrap();
    assert!(rejected.finish.is_none());
    assert!(rejected.first_start.is_none());
}

#[test]
fn utilization_series_is_sane() {
    let trace = mixed_trace(16, 80);
    let report = simulate(&trace, &small_config(PolicyKind::MuriS));
    assert!(!report.series.is_empty());
    for s in &report.series {
        for r in muri_workload::ResourceKind::ALL {
            assert!(
                (0.0..=1.0 + 1e-9).contains(&s.utilization[r]),
                "utilization out of range at {}: {}",
                s.time,
                s.utilization[r]
            );
        }
        assert!(s.used_gpus <= 8);
        assert!(s.blocking_index >= 0.0);
    }
}

#[test]
fn staggered_arrivals_respect_submit_times() {
    let jobs: Vec<JobSpec> = (0..10)
        .map(|i| {
            JobSpec::new(
                JobId(i),
                ModelKind::ResNet18,
                1,
                40,
                SimTime::from_secs(u64::from(i) * 100),
            )
        })
        .collect();
    let trace = Trace::new("staggered", jobs);
    let report = simulate(&trace, &small_config(PolicyKind::MuriL));
    check_conservation(&report, &trace);
    for r in &report.records {
        assert!(r.first_start.unwrap() >= r.submit);
    }
}

#[test]
fn group_size_cap_changes_behavior() {
    let trace = mixed_trace(32, 100);
    let mut cap2 = small_config(PolicyKind::MuriL);
    cap2.scheduler.grouping.max_group_size = 2;
    let r2 = simulate(&trace, &cap2);
    let r4 = simulate(&trace, &small_config(PolicyKind::MuriL));
    check_conservation(&r2, &trace);
    check_conservation(&r4, &trace);
    // With four complementary classes, 4-way groups should pack the
    // cluster tighter than pairs.
    assert!(
        r4.makespan_secs() <= r2.makespan_secs() * 1.05,
        "cap4 {} vs cap2 {}",
        r4.makespan_secs(),
        r2.makespan_secs()
    );
}
