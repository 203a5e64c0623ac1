//! Crash-recovery proof for the durable daemon core: a core killed
//! mid-load (dropped without checkpoint or shutdown, exactly like a
//! SIGKILL after the last fsync) and recovered from its state directory
//! must be byte-identical — as a serialized `SimReport` — to a core
//! that ran the same operation sequence uninterrupted. Plus a property
//! sweep over random submit/cancel/crash histories pinning the two
//! recovery invariants the bug sweep fixed: a replayed journal never
//! reissues a dead job's id, and never loses a submitted job.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code

use muri_core::{PlanMode, PolicyKind, SchedulerConfig};
use muri_serve::journal::DEFAULT_SNAPSHOT_EVERY;
use muri_serve::{
    recover_from_dir, ConfigRequest, OpRecord, RecoverBoot, ServeCore, ServeLimits, SubmitRequest,
    TenantConfig,
};
use muri_sim::SimConfig;
use muri_telemetry::TelemetrySink;
use muri_workload::SimTime;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One scripted daemon input, applied at an explicit scheduler time.
#[derive(Debug, Clone)]
enum Op {
    Submit {
        gpus: u32,
        iters: u64,
    },
    Cancel {
        job: u32,
    },
    /// Cap the default tenant (whose demand every scripted submit
    /// bills) at `DEFAULT_QUOTA` GPUs.
    ConfigQuota,
}

/// The quota `Op::ConfigQuota` sets: loose enough that every scripted
/// submit is still admitted.
const DEFAULT_QUOTA: u32 = 16;

fn submit_req(gpus: u32, iters: u64) -> SubmitRequest {
    SubmitRequest {
        tenant: None,
        model: "ResNet18".to_string(),
        num_gpus: gpus,
        iterations: iters,
    }
}

fn fresh_core(cfg: &SimConfig, name: &str) -> ServeCore {
    ServeCore::deterministic(cfg, name, vec![], TelemetrySink::disabled())
}

fn apply_ops(core: &mut ServeCore, ops: &[(u64, Op)]) {
    for (secs, op) in ops {
        core.advance_to(SimTime::from_secs(*secs));
        match op {
            Op::Submit { gpus, iters } => {
                let resp = core.submit(&submit_req(*gpus, *iters));
                assert!(resp.accepted, "scripted submit refused: {resp:?}");
            }
            Op::Cancel { job } => {
                core.cancel(*job);
            }
            Op::ConfigQuota => {
                core.apply_config(&ConfigRequest {
                    tenants: vec![TenantConfig {
                        name: "default".to_string(),
                        quota_gpus: Some(DEFAULT_QUOTA),
                    }],
                });
            }
        }
    }
}

/// A unique scratch state directory per invocation.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("muri-recovery-{tag}-{}-{n}", std::process::id()))
}

fn boot<'a>(cfg: &'a SimConfig, name: &str) -> RecoverBoot<'a> {
    RecoverBoot {
        cfg,
        name: name.to_string(),
        tenants: vec![],
        plan_mode: PlanMode::Full,
        limits: ServeLimits::default(),
        live_time_scale: None,
        sink: TelemetrySink::disabled(),
    }
}

#[test]
fn killed_and_recovered_run_matches_uninterrupted_run_byte_for_byte() {
    let cfg = SimConfig::testbed(SchedulerConfig::preset(PolicyKind::MuriL));
    let script: Vec<(u64, Op)> = vec![
        (0, Op::Submit { gpus: 2, iters: 40 }),
        (1, Op::Submit { gpus: 1, iters: 60 }),
        (2, Op::Submit { gpus: 4, iters: 30 }),
        (3, Op::Cancel { job: 1 }),
        (4, Op::ConfigQuota),
        (5, Op::Submit { gpus: 2, iters: 20 }),
        (6, Op::Submit { gpus: 1, iters: 10 }),
    ];

    // Every crash point, including "crashed before any op" and "crashed
    // after the last op", must recover to the uninterrupted state.
    for crash_at in 0..=script.len() {
        // Run A: never crashes, never journals.
        let mut a = fresh_core(&cfg, "serve");
        apply_ops(&mut a, &script);
        a.run_to_completion();
        let report_a = serde_json::to_string(&a.finalize()).expect("report A");

        // Run B: journals, is killed after `crash_at` ops (drop without
        // shutdown — only fsync'd state survives), recovers, finishes.
        let dir = scratch_dir("bytecmp");
        let mut b = fresh_core(&cfg, "serve");
        // A small compaction threshold so later crash points also cover
        // the snapshot+suffix merge path, not just the plain log.
        b.attach_durable(&dir, 4).expect("attach durable");
        apply_ops(&mut b, &script[..crash_at]);
        b.sync_journal().expect("sync before crash");
        drop(b); // SIGKILL

        let (mut recovered, summary) =
            recover_from_dir(boot(&cfg, "serve"), &dir, 4).expect("recover");
        assert_eq!(
            summary.ops,
            recovered.history().len() as u64,
            "summary counts the replayed history"
        );
        apply_ops(&mut recovered, &script[crash_at..]);
        recovered.run_to_completion();
        let report_b = serde_json::to_string(&recovered.finalize()).expect("report B");

        assert_eq!(
            report_a, report_b,
            "crash at op {crash_at}: recovered run diverged from the uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn recovery_replays_rolling_config_and_completions() {
    let cfg = SimConfig::testbed(SchedulerConfig::preset(PolicyKind::MuriL));
    let dir = scratch_dir("config");
    let mut core = fresh_core(&cfg, "serve");
    core.attach_durable(&dir, DEFAULT_SNAPSHOT_EVERY)
        .expect("attach");
    apply_ops(
        &mut core,
        &[(0, Op::Submit { gpus: 1, iters: 5 }), (1, Op::ConfigQuota)],
    );
    // Drive the first job to completion so a Complete cross-check is
    // journaled, then crash.
    core.run_to_completion();
    core.sync_journal().expect("sync");
    let kinds: Vec<&str> = core.history().iter().map(OpRecord::kind).collect();
    assert!(kinds.contains(&"config"), "{kinds:?}");
    assert!(kinds.contains(&"complete"), "{kinds:?}");
    drop(core);

    let (recovered, summary) =
        recover_from_dir(boot(&cfg, "serve"), &dir, DEFAULT_SNAPSHOT_EVERY).expect("recover");
    assert_eq!(summary.configs, 1);
    assert_eq!(summary.completions, 1);
    assert_eq!(summary.submits, 1);
    // The replayed config op re-applied the quota.
    let quota = recovered
        .cluster()
        .tenants
        .into_iter()
        .find(|(name, _, _)| name == "default")
        .and_then(|(_, _, quota)| quota);
    assert_eq!(quota, Some(DEFAULT_QUOTA));
    // The replayed completion cross-check matches the engine's state.
    let view = recovered.status(0).expect("job 0 known after recovery");
    assert_eq!(view.status.iterations_done, view.status.iterations_total);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random submit/cancel histories crashed at a random point: the
    /// recovered daemon must never reissue an already-used job id (the
    /// aliasing bug this PR fixes), must still know every journaled
    /// submission, and must keep its op seqs strictly increasing.
    #[test]
    fn recovered_ids_never_alias_and_no_job_is_lost(
        moves in prop::collection::vec((0u8..3, 0usize..8, 1u64..40), 1..16),
        crash_frac in 0u32..=100,
    ) {
        let cfg = SimConfig::testbed(SchedulerConfig::preset(PolicyKind::MuriS));
        let dir = scratch_dir("prop");
        let mut core = fresh_core(&cfg, "serve");
        // Tiny compaction threshold: most cases cross at least one
        // snapshot boundary, so the merge path is exercised for real.
        core.attach_durable(&dir, 3).expect("attach");

        let crash_at = (moves.len() * crash_frac as usize) / 100;
        let mut submitted: Vec<u32> = Vec::new();
        for (i, (kind, pick, iters)) in moves.iter().enumerate().take(crash_at.max(1)) {
            core.advance_to(SimTime::from_secs(i as u64));
            if *kind == 2 && !submitted.is_empty() {
                core.cancel(submitted[pick % submitted.len()]);
            } else {
                let gpus = 1u32 << (pick % 3);
                let resp = core.submit(&submit_req(gpus, *iters));
                if let Some(id) = resp.job {
                    submitted.push(id);
                }
            }
        }
        core.sync_journal().expect("sync");
        drop(core); // SIGKILL

        let (mut recovered, _) = recover_from_dir(boot(&cfg, "serve"), &dir, 3)
            .expect("recover");

        // Strictly increasing seqs in the replayed history.
        let mut prev = 0u64;
        for op in recovered.history() {
            if let Some(seq) = op.seq() {
                prop_assert!(seq > prev, "seq {seq} after {prev}");
                prev = seq;
            }
        }
        // Zero jobs lost: every journaled submission is still known.
        for &id in &submitted {
            prop_assert!(
                recovered.status(id).is_some(),
                "job {id} lost after recovery"
            );
        }
        // No aliasing: the next issued id is fresh, even if every prior
        // job (including cancelled ones) is dead.
        let watermark = recovered.next_id();
        for &id in &submitted {
            prop_assert!(watermark > id, "next_id {watermark} would reissue {id}");
        }
        recovered.advance_to(SimTime::from_secs(1000));
        let resp = recovered.submit(&submit_req(1, 5));
        if let Some(new_id) = resp.job {
            prop_assert!(
                !submitted.contains(&new_id),
                "recovered daemon reissued id {new_id}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
