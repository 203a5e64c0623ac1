#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures

//! Telemetry wiring and determinism regression tests.
//!
//! * An enabled sink must observe the run without changing it: the
//!   `SimReport` from `simulate_with_telemetry` is byte-identical to the
//!   one from `simulate`.
//! * The journal's lifecycle counts must balance against the report
//!   (arrivals = trace size, completions = finished records, restarts
//!   and faults match the per-job counters).
//! * Two runs under the same `SimConfig` seeds serialize to
//!   byte-identical JSON — the determinism contract replication and the
//!   golden benches rely on.

use muri_cluster::ClusterSpec;
use muri_core::{PolicyKind, SchedulerConfig};
use muri_sim::{simulate, simulate_with_telemetry, FaultPlan, SimConfig};
use muri_telemetry::{Telemetry, TelemetrySink};
use muri_workload::{philly_like_trace, ProfilerConfig, SimDuration};

fn config(policy: PolicyKind) -> SimConfig {
    let mut scheduler = SchedulerConfig::preset(policy);
    scheduler.interval = SimDuration::from_mins(2);
    scheduler.restart_penalty = SimDuration::from_secs(5);
    SimConfig {
        cluster: ClusterSpec::with_machines(1), // 8 GPUs
        ..SimConfig::testbed(scheduler)
    }
}

/// Noise + faults on, so both RNG streams (profiler, fault injection)
/// are exercised.
fn noisy_faulty_config(policy: PolicyKind) -> SimConfig {
    let mut cfg = config(policy);
    cfg.profiler = ProfilerConfig {
        noise: 0.3,
        reuse_cache: false,
        ..ProfilerConfig::default()
    };
    cfg.faults = FaultPlan {
        mtbf: Some(SimDuration::from_secs(120)),
        seed: 11,
        ..FaultPlan::default()
    };
    cfg
}

#[test]
fn telemetry_sink_does_not_perturb_the_simulation() {
    let trace = philly_like_trace(1, 0.02); // 20-job slice
    let cfg = noisy_faulty_config(PolicyKind::MuriL);
    let plain = simulate(&trace, &cfg);
    let sink = TelemetrySink::enabled(Telemetry::new());
    let instrumented = simulate_with_telemetry(&trace, &cfg, &sink);
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&instrumented).unwrap(),
        "telemetry must be a pure observer"
    );
}

#[test]
fn journal_counts_balance_against_the_report() {
    let trace = philly_like_trace(1, 0.02);
    let cfg = noisy_faulty_config(PolicyKind::MuriL);
    let sink = TelemetrySink::enabled(Telemetry::new());
    let report = simulate_with_telemetry(&trace, &cfg, &sink);
    let t = sink.into_inner().expect("engine dropped its sink clones");
    assert_eq!(t.journal.dropped(), 0, "journal must not have overflowed");
    let counts = t.journal.counts();

    assert_eq!(counts.arrived as usize, trace.len());
    assert_eq!(
        counts.completed as usize,
        report.records.iter().filter(|r| r.finish.is_some()).count()
    );
    assert_eq!(
        counts.first_starts as usize,
        report
            .records
            .iter()
            .filter(|r| r.first_start.is_some())
            .count()
    );
    assert_eq!(
        counts.restarts,
        report.records.iter().map(|r| u64::from(r.restarts)).sum()
    );
    assert_eq!(
        counts.faulted,
        report.records.iter().map(|r| u64::from(r.faults)).sum()
    );
    assert!(counts.planning_passes > 0, "at least one pass must plan");
    assert!(counts.groups_formed > 0, "at least one group must form");

    // The metrics registry counted the same lifecycle events.
    assert_eq!(
        t.metrics.counter_value("muri_jobs_arrived_total", &[]),
        Some(counts.arrived)
    );
    assert_eq!(
        t.metrics.counter_value("muri_jobs_completed_total", &[]),
        Some(counts.completed)
    );

    // The engine's tick samples fed per-resource utilization gauges.
    assert!(t
        .metrics
        .gauge_value("muri_utilization", &[("resource", "gpu")])
        .is_some());

    // The Chrome trace holds scheduler spans plus group lanes, and
    // validates (monotonic timestamps, complete events carry durations).
    assert!(!t.trace.is_empty());
    let json = t.trace.to_json();
    let stats = muri_telemetry::validate_chrome_trace(&json).expect("well-formed trace");
    assert!(stats.complete > 0);
}

#[test]
fn identical_seeds_give_byte_identical_reports() {
    let trace = philly_like_trace(1, 0.02);
    for policy in [PolicyKind::Srsf, PolicyKind::MuriL] {
        let cfg = noisy_faulty_config(policy);
        let a = simulate(&trace, &cfg);
        let b = simulate(&trace, &cfg);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "{policy:?}: same seeds must replay byte-identically"
        );
    }
}

#[test]
fn telemetry_exporters_are_deterministic_too() {
    let trace = philly_like_trace(1, 0.02);
    let cfg = noisy_faulty_config(PolicyKind::MuriL);
    let render = || {
        let sink = TelemetrySink::enabled(Telemetry::new());
        simulate_with_telemetry(&trace, &cfg, &sink);
        let t = sink.into_inner().expect("last handle");
        // Planning-pass events and the Prometheus muri_plan_*_seconds
        // histograms carry host wall-clock timings, which legitimately
        // differ run to run — compare everything that is sim-time only:
        // the lifecycle journal lines, the trace size, and a counter.
        let lifecycle: String = t
            .journal
            .to_jsonl()
            .lines()
            .filter(|l| !l.contains("\"planning_pass\""))
            .collect::<Vec<_>>()
            .join("\n");
        (
            lifecycle,
            t.trace.len(),
            t.metrics.counter_value("muri_groups_formed_total", &[]),
        )
    };
    let (j1, n1, g1) = render();
    let (j2, n2, g2) = render();
    assert_eq!(j1, j2, "lifecycle journal must be deterministic");
    assert_eq!(n1, n2, "chrome trace event count must be deterministic");
    assert_eq!(g1, g2);
}
