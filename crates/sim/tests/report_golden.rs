#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures

//! Regression pins for the engine's report and journal output.
//!
//! * The disabled-fault path: with every fault feature off (no job MTBF,
//!   no machine faults, no degraded machines, no checkpointing) the
//!   simulator must produce a byte-identical [`muri_sim::SimReport`]
//!   across refactors. These fixtures were generated before the
//!   fault-domain subsystem landed.
//! * The hostile path: every fault and scenario feature on at once
//!   (machine fail-stop and transient faults, job MTBF, a degraded
//!   machine, periodic checkpoints, spot eviction with drains, GPU
//!   generations, elastic resizes, SLO deadlines), under Muri-L and
//!   under AntMan (whose join pass reforms running groups). Both the
//!   report and the telemetry journal are pinned, and the journal must
//!   contain every recovery path so the pin cannot hold vacuously.
//!
//! Run with `MURI_BLESS=1` to regenerate a fixture after a *deliberate*
//! behavior change.

use muri_cluster::ClusterSpec;
use muri_core::{PolicyKind, SchedulerConfig};
use muri_sim::{simulate, simulate_with_telemetry, CheckpointConfig, FaultPlan, SimConfig};
use muri_telemetry::{Event, Telemetry, TelemetrySink};
use muri_workload::{philly_like_trace, JobId, JobSpec, ModelKind, SimDuration, SimTime, Trace};
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Compare `actual` with the fixture `name` (or write it under
/// `MURI_BLESS`).
fn pin(name: &str, actual: &str, what: &str) {
    let path = fixture_path(name);
    if std::env::var_os("MURI_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let pinned = std::fs::read_to_string(&path)
        .expect("fixture missing — regenerate with MURI_BLESS=1 cargo test");
    assert!(
        actual.trim_end() == pinned.trim_end(),
        "{name}: {what} diverged from the pinned output"
    );
}

fn check(name: &str, policy: PolicyKind) {
    let trace = philly_like_trace(1, 0.02); // deterministic 20-job slice
    let cfg = SimConfig::testbed(SchedulerConfig::preset(policy));
    let report = simulate(&trace, &cfg);
    let json = serde_json::to_string(&report).unwrap();
    pin(name, &json, "disabled-fault SimReport");
}

#[test]
fn disabled_path_muril_report_is_pinned() {
    check("report_disabled_muril.json", PolicyKind::MuriL);
}

#[test]
fn disabled_path_srsf_report_is_pinned() {
    check("report_disabled_srsf.json", PolicyKind::Srsf);
}

/// `n` single-GPU jobs across the four bottleneck classes, each with
/// ~`solo_secs` of solo work, all submitted at t = 0.
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

/// Two machines (16 GPUs) with every fault and scenario feature on.
fn hostile_config(policy: PolicyKind) -> SimConfig {
    let mut scheduler = SchedulerConfig::preset(policy);
    scheduler.interval = SimDuration::from_mins(2);
    scheduler.restart_penalty = SimDuration::from_secs(5);
    SimConfig {
        cluster: ClusterSpec::with_machines(2),
        faults: FaultPlan {
            seed: 11,
            mtbf: Some(SimDuration::from_secs(3000)),
            machine_mtbf: Some(SimDuration::from_secs(1500)),
            machine_mttr: SimDuration::from_secs(200),
            transient_fraction: 0.5,
            degraded_machines: 1,
            spot_machines: 1,
            spot_mtbe: Some(SimDuration::from_secs(400)),
            spot_warning: SimDuration::from_secs(45),
            spot_downtime: SimDuration::from_secs(120),
            gpu_generations: 2,
            generation_gap: 0.5,
            elastic_fraction: 0.3,
            elastic_interval: Some(SimDuration::from_secs(400)),
            slo_fraction: 0.3,
            slo_slack: 2.0,
            ..FaultPlan::default()
        },
        checkpoint: CheckpointConfig {
            interval: Some(SimDuration::from_secs(300)),
            cost: SimDuration::from_secs(2),
        },
        ..SimConfig::testbed(scheduler)
    }
}

/// Fail unless the journal exercised every recovery path the hostile
/// fixtures exist to pin.
fn assert_covers_recovery_paths(name: &str, events: &[Event]) {
    let expect = |path: &str, seen: fn(&Event) -> bool| {
        assert!(
            events.iter().any(seen),
            "{name}: journal holds no {path} event"
        );
    };
    expect(
        "drained SpotEvicted",
        |e| matches!(e, Event::SpotEvicted { drained, .. } if *drained > 0),
    );
    expect(
        "transient MachineFailed",
        |e| matches!(e, Event::MachineFailed { transient, .. } if *transient),
    );
    expect(
        "fail-stop MachineFailed",
        |e| matches!(e, Event::MachineFailed { transient, .. } if !*transient),
    );
    expect("WorkLost", |e| matches!(e, Event::WorkLost { .. }));
    expect("CheckpointTaken", |e| {
        matches!(e, Event::CheckpointTaken { .. })
    });
    expect("ElasticResized", |e| {
        matches!(e, Event::ElasticResized { .. })
    });
    expect("JobFaulted", |e| matches!(e, Event::JobFaulted { .. }));
}

/// Run the hostile scenario under `policy`, check it against its pinned
/// report and journal, and return the journal.
fn check_hostile(name: &str, policy: PolicyKind) -> Vec<Event> {
    let trace = hostile_trace(12, 1200);
    let sink = TelemetrySink::enabled(Telemetry::with_journal_capacity(usize::MAX));
    let report = simulate_with_telemetry(&trace, &hostile_config(policy), &sink);
    let t = sink.into_inner().expect("last telemetry handle");
    let events = t.journal.events().to_vec();
    assert!(report.all_finished(), "{name}: hostile run must finish");
    assert_covers_recovery_paths(name, &events);
    pin(
        &format!("report_{name}.json"),
        &serde_json::to_string(&report).unwrap(),
        "hostile SimReport",
    );
    // `PlanningPass` carries host wall-clock phases and process-global
    // cache deltas, so it is left out of the pinned journal.
    let journal: String = events
        .iter()
        .filter(|e| !matches!(e, Event::PlanningPass { .. }))
        .map(|e| serde_json::to_string(e).unwrap() + "\n")
        .collect();
    pin(
        &format!("journal_{name}.jsonl"),
        &journal,
        "hostile telemetry journal",
    );
    events
}

#[test]
fn hostile_path_muril_report_and_journal_are_pinned() {
    check_hostile("hostile_muril", PolicyKind::MuriL);
}

#[test]
fn hostile_path_antman_report_and_journal_are_pinned() {
    let events = check_hostile("hostile_antman", PolicyKind::AntMan);
    // A join starts a job without forming a planned group, so more
    // starts than planned members proves the join pass ran.
    let started = events
        .iter()
        .filter(|e| matches!(e, Event::JobStarted { .. }))
        .count();
    let planned: usize = events
        .iter()
        .map(|e| match e {
            Event::GroupFormed { members, .. } => members.len(),
            _ => 0,
        })
        .sum();
    assert!(
        started > planned,
        "AntMan run must join queued jobs onto running groups ({started} starts, {planned} planned)"
    );
}
