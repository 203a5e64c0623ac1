//! Replay determinism of the `muri-engine` event core: the daemon's
//! deterministic replay mode must produce the batch simulator's report
//! byte for byte, and re-running the same config must reproduce it.

use muri_core::{PolicyKind, SchedulerConfig};
use muri_serve::deterministic_run;
use muri_sim::{simulate, SimConfig};
use muri_telemetry::TelemetrySink;
use muri_workload::philly_like_trace;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn event_core_replay_matches_batch_and_reruns(
        trace_idx in 1usize..=2,
        policy_idx in 0usize..3,
        scale_milli in 10u32..=25,
    ) {
        let policy = [PolicyKind::MuriL, PolicyKind::MuriS, PolicyKind::Srsf][policy_idx];
        let scale = f64::from(scale_milli) / 1000.0;
        let trace = philly_like_trace(trace_idx, scale);
        let cfg = SimConfig::testbed(SchedulerConfig::preset(policy));

        let batch = serde_json::to_string(&simulate(&trace, &cfg))
            .expect("serialize batch report");
        let daemon = serde_json::to_string(&deterministic_run(
            &trace,
            &cfg,
            &TelemetrySink::disabled(),
        ))
        .expect("serialize daemon report");
        prop_assert_eq!(&batch, &daemon, "daemon replay diverged from the simulator");
        let rerun = serde_json::to_string(&simulate(&trace, &cfg))
            .expect("serialize rerun report");
        prop_assert_eq!(&batch, &rerun, "batch report changed between identical runs");
    }
}
