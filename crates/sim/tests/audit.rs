//! End-to-end audit: full simulations must produce zero violations.
//! Compiled only with `--features audit`.

#![cfg(feature = "audit")]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use muri_core::{PolicyKind, SchedulerConfig};
use muri_sim::{simulate_audited, CheckpointConfig, FaultPlan, SimConfig};
use muri_workload::{philly_like_trace, SimDuration};

#[test]
fn audited_simulations_are_violation_free() {
    let trace = philly_like_trace(3, 0.02);
    for policy in [
        PolicyKind::MuriL,
        PolicyKind::MuriS,
        PolicyKind::Srtf,
        PolicyKind::Srsf,
        PolicyKind::AntMan,
    ] {
        let cfg = SimConfig::testbed(SchedulerConfig::preset(policy));
        let (report, audit) = simulate_audited(&trace, &cfg);
        assert!(report.all_finished(), "{policy:?}: unfinished jobs");
        assert!(audit.checks > 0, "{policy:?}: auditor never ran");
        assert!(audit.is_clean(), "{policy:?}:\n{audit}");
    }
}

/// The recovery ledger must stay clean under the full fault battery:
/// machine fail-stop/transient faults, per-job faults, degraded-machine
/// blacklisting, and checkpoint/restore — no job lost or duplicated, no
/// placement on a dead or blacklisted machine, attained service and
/// durable progress monotone.
#[test]
fn faulty_audited_simulations_are_violation_free() {
    let trace = philly_like_trace(2, 0.02);
    for policy in [PolicyKind::MuriL, PolicyKind::Srsf] {
        let mut cfg = SimConfig::testbed(SchedulerConfig::preset(policy));
        cfg.faults = FaultPlan {
            mtbf: Some(SimDuration::from_secs(1800)),
            machine_mtbf: Some(SimDuration::from_secs(3600)),
            machine_mttr: SimDuration::from_secs(300),
            transient_fraction: 0.5,
            degraded_machines: 1,
            degraded_slowdown: 1.5,
            seed: 23,
            ..FaultPlan::default()
        };
        cfg.checkpoint = CheckpointConfig {
            interval: Some(SimDuration::from_secs(300)),
            cost: SimDuration::from_secs(5),
        };
        let (report, audit) = simulate_audited(&trace, &cfg);
        assert!(audit.checks > 0, "{policy:?}: auditor never ran");
        assert!(audit.is_clean(), "{policy:?}:\n{audit}");
        let faults: u64 = report.records.iter().map(|r| u64::from(r.faults)).sum();
        assert!(faults > 0, "{policy:?}: fault battery never fired");
    }
}
