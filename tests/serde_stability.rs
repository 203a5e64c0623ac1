#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures

//! Serialization stability: every public configuration and report type
//! must round-trip through JSON (configs are part of the public API —
//! users persist them alongside results for reproducibility).

use muri::cluster::ClusterSpec;
use muri::core::{GroupingConfig, PolicyKind, SchedulerConfig};
use muri::interleave::OrderingPolicy;
use muri::sim::{FaultPlan, SimConfig};
use muri::workload::{philly_like_trace, ProfilerConfig, SimDuration, SynthConfig};

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn scheduler_config_roundtrips() {
    for policy in [PolicyKind::MuriS, PolicyKind::AntMan, PolicyKind::Gittins] {
        let cfg = SchedulerConfig::preset(policy);
        assert_eq!(roundtrip(&cfg), cfg);
    }
    let mut custom = SchedulerConfig::preset(PolicyKind::MuriL);
    custom.grouping = GroupingConfig {
        max_group_size: 3,
        ordering: OrderingPolicy::Worst,
        min_efficiency: 0.25,
        capacity_aware: false,
        ..GroupingConfig::default()
    };
    custom.interval = SimDuration::from_mins(10);
    assert_eq!(roundtrip(&custom), custom);
}

#[test]
fn sim_config_roundtrips() {
    let mut cfg = SimConfig::testbed(SchedulerConfig::preset(PolicyKind::MuriS));
    cfg.cluster = ClusterSpec::with_machines(3);
    cfg.profiler = ProfilerConfig::with_noise(0.4);
    cfg.faults = FaultPlan {
        mtbf: Some(SimDuration::from_hours(2)),
        seed: 99,
        machine_mtbf: Some(SimDuration::from_hours(6)),
        machine_mttr: SimDuration::from_mins(10),
        transient_fraction: 0.25,
        degraded_machines: 1,
        degraded_slowdown: 1.75,
        ..FaultPlan::default()
    };
    cfg.checkpoint = muri::sim::CheckpointConfig {
        interval: Some(SimDuration::from_mins(5)),
        cost: SimDuration::from_secs(10),
    };
    cfg.cross_machine_net_penalty = 0.2;
    assert_eq!(roundtrip(&cfg), cfg);
}

#[test]
fn json_fault_plan_defaults_for_old_payloads() {
    // A FaultPlan serialized before the machine-level fault domains
    // existed must still parse (serde defaults keep every new feature
    // off).
    let legacy = r#"{"mtbf":7200000000,"seed":99}"#;
    let plan: FaultPlan = serde_json::from_str(legacy).expect("legacy parses");
    assert_eq!(plan.mtbf, Some(SimDuration::from_hours(2)));
    assert_eq!(plan.machine_mtbf, None);
    assert_eq!(plan.degraded_machines, 0);
}

#[test]
fn synth_config_roundtrips() {
    let cfg = SynthConfig {
        name: "rt".into(),
        num_jobs: 77,
        burst_fraction: 0.4,
        diurnal_amplitude: 0.3,
        ..SynthConfig::default()
    };
    assert_eq!(roundtrip(&cfg), cfg);
}

#[test]
fn traces_roundtrip_via_json_and_csv() {
    let trace = philly_like_trace(2, 0.02);
    assert_eq!(roundtrip(&trace), trace);
    let csv = trace.to_csv();
    let back = muri::workload::Trace::from_csv(trace.name.clone(), &csv).expect("csv");
    assert_eq!(back, trace);
}

#[test]
fn experiment_reports_roundtrip() {
    let report = muri::experiments::run_experiment("table2", muri::experiments::Scale(1.0))
        .expect("known experiment");
    assert_eq!(roundtrip(&report), report);
}

#[test]
fn json_profile_mode_defaults_for_old_payloads() {
    // A JobSpec serialized before `profile_mode` existed must still parse
    // (serde default).
    let legacy = r#"{"id":3,"model":"Gpt2","num_gpus":2,"iterations":50,"submit_time":0}"#;
    let spec: muri::workload::JobSpec = serde_json::from_str(legacy).expect("legacy parses");
    assert_eq!(spec.profile_mode, muri::workload::ProfileMode::Reference);
}
