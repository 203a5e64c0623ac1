//! The Muri scheduler: admission, bucketing, grouping, and capacity
//! planning.
//!
//! At each scheduling tick the engine hands the scheduler the pending jobs
//! (including preempted running jobs, for preemptive policies) and the
//! free GPU capacity; the scheduler returns the groups to run, in
//! placement order. Following the paper:
//!
//! 1. jobs are sorted by the policy's priority (§4.2 "Optimizing for
//!    average JCT");
//! 2. the first `n` jobs that could fully utilize the cluster even when
//!    every group reaches the maximum size are admitted (Algorithm 1,
//!    lines 3–7);
//! 3. admitted jobs are split into buckets by GPU count — grouping never
//!    crosses buckets, avoiding the Fig. 7 cascade (§4.2 "Handling
//!    multi-GPU jobs");
//! 4. each bucket runs the multi-round grouping algorithm;
//! 5. groups are placed in descending order of GPU count, which "avoids
//!    fragmentation and minimizes the number of nodes used by a job" (§5).

use crate::grouping::{
    capacity_aware_grouping_timed, BucketInput, GroupingConfig, GroupingMode, GroupingTimings,
};
use crate::policy::{PendingJob, PolicyKind};
use crate::{gamma_cache, round_cache};
use muri_interleave::{GroupMember, InterleaveGroup};
use muri_telemetry::{CacheDelta, Event, PhaseTimer, PlanPhases, TelemetrySink};
use muri_workload::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Full scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Queue-ordering policy.
    pub policy: PolicyKind,
    /// Grouping configuration (enabled for the Muri policies).
    pub grouping: GroupingConfig,
    /// Scheduling interval — the paper uses six minutes "to reduce the
    /// overhead of preemption and restart" (§5).
    pub interval: SimDuration,
    /// Wall-clock penalty a job pays each time it starts or restarts
    /// (checkpoint restore, process launch, CUDA context init).
    pub restart_penalty: SimDuration,
    /// AntMan: maximum resident jobs per GPU under opportunistic sharing.
    pub antman_max_per_gpu: usize,
}

impl SchedulerConfig {
    /// The paper's configuration for a given policy: grouping on for the
    /// Muri variants, six-minute interval, 30 s restart penalty.
    pub fn preset(policy: PolicyKind) -> Self {
        let grouping = if policy.interleaves() {
            GroupingConfig::default()
        } else {
            GroupingConfig::disabled()
        };
        SchedulerConfig {
            policy,
            grouping,
            interval: SimDuration::from_mins(6),
            restart_penalty: SimDuration::from_secs(30),
            antman_max_per_gpu: 2,
        }
    }

    /// Maximum jobs that may share one GPU set under this config.
    pub fn pack_factor(&self) -> usize {
        if self.policy.interleaves() && self.grouping.mode != GroupingMode::None {
            self.grouping.max_group_size.max(1)
        } else {
            1
        }
    }
}

/// How a scheduling pass derives its plan. Every pass re-plans the
/// whole queue, so `Full` is the only mode; the type survives only
/// because the benchmark harness still names it when it boots a daemon
/// (`RecoverBoot::plan_mode`, `ServeCore::live`), where it is accepted
/// and ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanMode {
    /// Re-plan the whole queue every pass.
    #[default]
    Full,
}

/// A planned group: which jobs run together and on how many GPUs.
/// The engine allocates a concrete GPU set for each planned group in
/// order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedGroup {
    /// The interleave group (singleton for non-interleaving policies).
    pub group: InterleaveGroup,
    /// GPUs this group occupies (every member's requirement — members of
    /// a bucket share the same count).
    pub num_gpus: u32,
}

/// Plan one scheduling round. `pending` is the queue (plus preempted
/// running jobs for preemptive policies); `free_gpus` is the capacity
/// available for (re)placement. Returns groups in placement order;
/// their GPU demands sum to at most `free_gpus`.
pub fn plan_schedule(
    cfg: &SchedulerConfig,
    pending: &[PendingJob],
    free_gpus: u32,
    now: SimTime,
) -> Vec<PlannedGroup> {
    plan_schedule_with(cfg, pending, free_gpus, now, &TelemetrySink::disabled())
}

/// [`plan_schedule`] with a telemetry sink: when the sink is enabled the
/// pass emits one [`Event::PlanningPass`] (per-phase wall-clock
/// durations, γ-/round-cache hit deltas) and one [`Event::GroupFormed`]
/// per planned group. A disabled sink takes the exact untimed path.
pub fn plan_schedule_with(
    cfg: &SchedulerConfig,
    pending: &[PendingJob],
    free_gpus: u32,
    now: SimTime,
    sink: &TelemetrySink,
) -> Vec<PlannedGroup> {
    let enabled = sink.is_enabled();
    let mut timer = PhaseTimer::start(enabled);
    let (gamma_before, round_before) = if enabled {
        (gamma_cache::stats(), round_cache::stats())
    } else {
        (Default::default(), Default::default())
    };

    // 1. Priority order.
    let mut jobs: Vec<PendingJob> = pending.to_vec();
    cfg.policy.sort(&mut jobs, now);
    let sort_us = timer.lap();

    // 2. Admission: first n jobs that can fully utilize the cluster when
    //    groups reach the pack factor.
    let budget = u64::from(free_gpus) * cfg.pack_factor() as u64;
    let mut admitted: Vec<PendingJob> = Vec::new();
    let mut admitted_gpus = 0u64;
    for job in &jobs {
        if job.num_gpus > free_gpus {
            continue; // cannot be placed this round at all
        }
        if admitted_gpus + u64::from(job.num_gpus) > budget {
            continue; // keep scanning: smaller jobs may still fit (backfill)
        }
        admitted_gpus += u64::from(job.num_gpus);
        admitted.push(*job);
    }
    let admission_us = timer.lap();

    // 3. Buckets by GPU count (grouping never crosses buckets). Each
    //    entry keeps its *global* priority rank for capacity selection.
    let mut buckets: BTreeMap<u32, Vec<(PendingJob, usize)>> = BTreeMap::new();
    for (global_rank, job) in admitted.into_iter().enumerate() {
        buckets
            .entry(job.num_gpus)
            .or_default()
            .push((job, global_rank));
    }

    // 4. Group each bucket, merging only as far as the free capacity
    //    requires (capacity-aware Algorithm 1). Bucket vectors are already
    //    in priority order. When a bucket's contents are unchanged since
    //    the previous tick — the common case between job events — its
    //    round-1 edge weights and matching come straight from the
    //    thread-local round cache instead of being recomputed (see
    //    crate::round_cache).
    let bucket_list: Vec<(&u32, &Vec<(PendingJob, usize)>)> = buckets.iter().rev().collect();
    let inputs: Vec<BucketInput> = bucket_list
        .iter()
        .map(|(&gpus, jobs)| BucketInput {
            gpus,
            profiles: jobs.iter().map(|(j, _)| j.profile).collect(),
        })
        .collect();
    let bucketing_us = timer.lap();
    let mut grouping_timings = GroupingTimings::default();
    let grouped = capacity_aware_grouping_timed(
        &inputs,
        free_gpus,
        &cfg.grouping,
        enabled.then_some(&mut grouping_timings),
    );
    let mut planned: Vec<(PlannedGroup, usize)> = Vec::new(); // (group, best rank)
    for ((&num_gpus, bucket), groups) in bucket_list.into_iter().zip(grouped) {
        for idxs in groups {
            let members: Vec<GroupMember> = idxs
                .iter()
                .map(|&i| GroupMember {
                    job: bucket[i].0.id,
                    profile: bucket[i].0.profile,
                })
                .collect();
            // Grouping never emits empty groups; skip one if it ever did.
            let Some(best_rank) = idxs.iter().map(|&i| bucket[i].1).min() else {
                continue;
            };
            planned.push((
                PlannedGroup {
                    group: InterleaveGroup::form(members, cfg.grouping.ordering),
                    num_gpus,
                },
                best_rank,
            ));
        }
    }

    let grouping_us = timer.lap();

    // 5. Capacity selection by *priority* (a group's rank is its best
    //    member's queue position): high-priority groups claim capacity
    //    first, lower-priority ones backfill what remains.
    planned.sort_by_key(|a| a.1);
    let mut accepted = Vec::new();
    let mut left = free_gpus;
    for (group, rank) in planned {
        if group.num_gpus <= left {
            left -= group.num_gpus;
            accepted.push((group, rank));
        }
    }
    // 5b. Relaxation: if chunky multi-GPU groups left capacity idle,
    //     spend it by splitting members out of packed groups — spreading
    //     always beats sharing next to an idle GPU. (Gated with
    //     `capacity_aware` so the DESIGN.md 5b.3 ablation measures the
    //     literal always-group-maximally behavior.)
    if cfg.grouping.capacity_aware {
        loop {
            let candidate = accepted
                .iter()
                .enumerate()
                .filter(|(_, (g, _))| g.group.len() > 1 && g.num_gpus <= left)
                .max_by_key(|(_, (g, _))| g.group.len());
            let Some((idx, _)) = candidate else {
                break;
            };
            let (group, rank) = &mut accepted[idx];
            // The filter above guarantees `len() > 1`, so a member exists.
            let Some(split) = group.group.members.pop() else {
                break;
            };
            let remaining = std::mem::take(&mut group.group.members);
            group.group = InterleaveGroup::form(remaining, cfg.grouping.ordering);
            left -= group.num_gpus;
            let num_gpus = group.num_gpus;
            let rank = *rank;
            accepted.push((
                PlannedGroup {
                    group: InterleaveGroup::form(vec![split], cfg.grouping.ordering),
                    num_gpus,
                },
                rank + 1,
            ));
        }
    }

    // 6. Physical placement order among the accepted groups: descending
    //    GPU count, which "avoids fragmentation and minimizes the number
    //    of nodes used by a job" (§5).
    accepted.sort_by(|a, b| b.0.num_gpus.cmp(&a.0.num_gpus).then(a.1.cmp(&b.1)));
    let plan: Vec<PlannedGroup> = accepted.into_iter().map(|(g, _)| g).collect();
    let selection_us = timer.lap();

    if enabled {
        sink.with(|t| {
            for p in &plan {
                t.emit(Event::GroupFormed {
                    time: now,
                    members: p.group.job_ids(),
                    num_gpus: p.num_gpus,
                    gamma: p.group.efficiency,
                    iteration_time: p.group.iteration_time(),
                    cycle: p.group.ordering.cycle.clone(),
                    offsets: p.group.ordering.offsets.clone(),
                });
            }
            let gamma_after = gamma_cache::stats();
            let round_after = round_cache::stats();
            #[allow(clippy::cast_possible_truncation)]
            t.emit(Event::PlanningPass {
                time: now,
                candidates: pending.len().min(u32::MAX as usize) as u32,
                free_gpus,
                planned_groups: plan.len().min(u32::MAX as usize) as u32,
                planned_jobs: plan
                    .iter()
                    .map(|p| p.group.len())
                    .sum::<usize>()
                    .min(u32::MAX as usize) as u32,
                phases: PlanPhases {
                    sort_us,
                    admission_us,
                    bucketing_us,
                    grouping_us,
                    graph_build_us: grouping_timings.graph_build_us,
                    matching_us: grouping_timings.matching_us,
                    matching_rounds: grouping_timings.rounds,
                    pruned_edges: grouping_timings.pruned_edges,
                    prune_fallbacks: grouping_timings.prune_fallbacks,
                    shards: grouping_timings.shards,
                    shard_templates: grouping_timings.shard_templates,
                    shard_fallbacks: grouping_timings.shard_fallbacks,
                    selection_us,
                },
                gamma_cache: CacheDelta {
                    hits: gamma_after.hits.saturating_sub(gamma_before.hits),
                    misses: gamma_after.misses.saturating_sub(gamma_before.misses),
                },
                round_cache: CacheDelta {
                    hits: round_after.hits.saturating_sub(round_before.hits),
                    misses: round_after.misses.saturating_sub(round_before.misses),
                },
            });
        });
    }

    #[cfg(feature = "audit")]
    debug_audit_plan(cfg, &jobs, free_gpus, &plan);
    plan
}

/// Debug-build audit hook: check the finished plan against the
/// `muri-verify` invariants and abort with the full report on any
/// violation. `sorted` is the priority-ordered candidate list the plan
/// was drawn from. Compiled only with the `audit` feature; the check
/// itself runs only in debug builds (`debug_assert!`).
#[cfg(feature = "audit")]
fn debug_audit_plan(
    cfg: &SchedulerConfig,
    sorted: &[PendingJob],
    free_gpus: u32,
    plan: &[PlannedGroup],
) {
    if cfg!(debug_assertions) {
        let ctx = muri_verify::PlanContext {
            free_gpus,
            max_group_size: cfg.pack_factor(),
            candidates: sorted.iter().map(|j| (j.id, j.num_gpus)).collect(),
        };
        let refs: Vec<muri_verify::PlannedGroupRef<'_>> = plan
            .iter()
            .map(|p| muri_verify::PlannedGroupRef {
                group: &p.group,
                num_gpus: p.num_gpus,
            })
            .collect();
        let report = muri_verify::audit_plan(&refs, &ctx);
        debug_assert!(
            report.is_clean(),
            "plan_schedule produced an invalid plan:\n{report}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muri_workload::{JobId, StageProfile};

    fn job(id: u32, gpus: u32, remaining_secs: u64, profile: StageProfile) -> PendingJob {
        PendingJob {
            id: JobId(id),
            num_gpus: gpus,
            profile,
            submit_time: SimTime::ZERO,
            attained: SimDuration::ZERO,
            remaining: SimDuration::from_secs(remaining_secs),
            deadline: None,
        }
    }

    fn cpu_heavy() -> StageProfile {
        StageProfile::from_secs_f64(0.0, 2.0, 1.0, 0.0)
    }

    fn gpu_heavy() -> StageProfile {
        StageProfile::from_secs_f64(0.0, 1.0, 2.0, 0.0)
    }

    #[test]
    fn srtf_plans_singletons_in_remaining_order() {
        let cfg = SchedulerConfig::preset(PolicyKind::Srtf);
        let pending = vec![
            job(1, 1, 100, cpu_heavy()),
            job(2, 1, 5, cpu_heavy()),
            job(3, 1, 50, cpu_heavy()),
        ];
        let plan = plan_schedule(&cfg, &pending, 2, SimTime::ZERO);
        // Only 2 GPUs free → the two shortest jobs run, alone.
        assert_eq!(plan.len(), 2);
        assert!(plan.iter().all(|p| p.group.len() == 1));
        let ids: Vec<u32> = plan.iter().map(|p| p.group.members[0].job.0).collect();
        assert!(ids.contains(&2) && ids.contains(&3));
    }

    #[test]
    fn muri_groups_complementary_jobs() {
        let cfg = SchedulerConfig::preset(PolicyKind::MuriS);
        let pending = vec![
            job(1, 1, 10, cpu_heavy()),
            job(2, 1, 10, cpu_heavy()),
            job(3, 1, 10, gpu_heavy()),
            job(4, 1, 10, gpu_heavy()),
        ];
        // One free GPU: all four jobs share it (pack factor 4).
        let plan = plan_schedule(&cfg, &pending, 1, SimTime::ZERO);
        let total_jobs: usize = plan.iter().map(|p| p.group.len()).sum();
        assert_eq!(total_jobs, 4, "{plan:?}");
        assert_eq!(plan.iter().map(|p| p.num_gpus).sum::<u32>(), 1);
    }

    #[test]
    fn buckets_never_mix_gpu_counts() {
        let cfg = SchedulerConfig::preset(PolicyKind::MuriL);
        let pending = vec![
            job(1, 1, 10, cpu_heavy()),
            job(2, 2, 10, gpu_heavy()),
            job(3, 1, 10, gpu_heavy()),
            job(4, 2, 10, cpu_heavy()),
        ];
        let plan = plan_schedule(&cfg, &pending, 8, SimTime::ZERO);
        for p in &plan {
            let first = p.num_gpus;
            for m in &p.group.members {
                let orig = pending.iter().find(|j| j.id == m.job).unwrap();
                assert_eq!(orig.num_gpus, first, "mixed bucket in {p:?}");
            }
        }
        // All four jobs scheduled (capacity is ample).
        let total: usize = plan.iter().map(|p| p.group.len()).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let cfg = SchedulerConfig::preset(PolicyKind::MuriL);
        let pending: Vec<PendingJob> = (0..20)
            .map(|i| {
                job(
                    i,
                    if i % 3 == 0 { 4 } else { 1 },
                    10 + u64::from(i),
                    if i % 2 == 0 { cpu_heavy() } else { gpu_heavy() },
                )
            })
            .collect();
        for free in [0u32, 1, 3, 7, 16] {
            let plan = plan_schedule(&cfg, &pending, free, SimTime::ZERO);
            let used: u32 = plan.iter().map(|p| p.num_gpus).sum();
            assert!(used <= free, "used {used} > free {free}");
        }
    }

    #[test]
    fn oversized_jobs_are_skipped_and_backfilled() {
        let cfg = SchedulerConfig::preset(PolicyKind::Srtf);
        let pending = vec![
            job(1, 8, 1, cpu_heavy()), // shortest but too big
            job(2, 2, 50, cpu_heavy()),
        ];
        let plan = plan_schedule(&cfg, &pending, 4, SimTime::ZERO);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].group.members[0].job, JobId(2));
    }

    #[test]
    fn placement_order_is_descending_gpu_count() {
        let cfg = SchedulerConfig::preset(PolicyKind::MuriS);
        let pending = vec![
            job(1, 1, 10, cpu_heavy()),
            job(2, 8, 10, gpu_heavy()),
            job(3, 2, 10, cpu_heavy()),
        ];
        let plan = plan_schedule(&cfg, &pending, 16, SimTime::ZERO);
        let counts: Vec<u32> = plan.iter().map(|p| p.num_gpus).collect();
        let mut sorted = counts.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(counts, sorted, "not descending: {counts:?}");
    }

    #[test]
    fn empty_inputs_produce_empty_plans() {
        let cfg = SchedulerConfig::preset(PolicyKind::MuriS);
        assert!(plan_schedule(&cfg, &[], 64, SimTime::ZERO).is_empty());
        let pending = vec![job(1, 1, 10, cpu_heavy())];
        assert!(plan_schedule(&cfg, &pending, 0, SimTime::ZERO).is_empty());
    }

    #[test]
    fn relaxation_spreads_packed_groups_into_leftover_capacity() {
        // 3 × 8-GPU jobs and 8 × 1-GPU jobs on 28 GPUs: demand 32 > 28,
        // so some merging happens — but the capacity pass must then use
        // essentially all 28 GPUs rather than strand the chunky leftovers.
        let cfg = SchedulerConfig::preset(PolicyKind::MuriL);
        let mut pending = Vec::new();
        for i in 0..3 {
            pending.push(job(
                i,
                8,
                100,
                if i % 2 == 0 { cpu_heavy() } else { gpu_heavy() },
            ));
        }
        for i in 3..11 {
            pending.push(job(
                i,
                1,
                100,
                if i % 2 == 0 { cpu_heavy() } else { gpu_heavy() },
            ));
        }
        let plan = plan_schedule(&cfg, &pending, 28, SimTime::ZERO);
        let used: u32 = plan.iter().map(|p| p.num_gpus).sum();
        let jobs_planned: usize = plan.iter().map(|p| p.group.len()).sum();
        assert_eq!(jobs_planned, 11, "everything should run: {plan:?}");
        assert!(
            used >= 26,
            "relaxation should use nearly all GPUs, used {used}"
        );
    }

    #[test]
    fn relaxation_is_disabled_without_capacity_awareness() {
        let mut cfg = SchedulerConfig::preset(PolicyKind::MuriL);
        cfg.grouping.capacity_aware = false;
        // Ample capacity, complementary jobs: the literal variant still
        // groups them and leaves GPUs idle.
        let pending: Vec<PendingJob> = (0..8)
            .map(|i| {
                job(
                    i,
                    1,
                    100,
                    if i % 2 == 0 { cpu_heavy() } else { gpu_heavy() },
                )
            })
            .collect();
        let plan = plan_schedule(&cfg, &pending, 64, SimTime::ZERO);
        let used: u32 = plan.iter().map(|p| p.num_gpus).sum();
        assert!(used < 8, "literal grouping should pack, used {used}");
    }

    #[test]
    fn telemetry_sink_observes_without_changing_the_plan() {
        use muri_telemetry::{Telemetry, TelemetrySink};
        let cfg = SchedulerConfig::preset(PolicyKind::MuriS);
        let pending = vec![
            job(1, 1, 10, cpu_heavy()),
            job(2, 1, 10, gpu_heavy()),
            job(3, 1, 10, cpu_heavy()),
            job(4, 1, 10, gpu_heavy()),
        ];
        let sink = TelemetrySink::enabled(Telemetry::new());
        let observed = plan_schedule_with(&cfg, &pending, 1, SimTime::ZERO, &sink);
        let plain = plan_schedule(&cfg, &pending, 1, SimTime::ZERO);
        assert_eq!(observed, plain, "telemetry must not affect planning");
        let t = sink.into_inner().unwrap();
        let counts = t.journal.counts();
        assert_eq!(counts.planning_passes, 1);
        assert_eq!(counts.groups_formed as usize, observed.len());
        assert_eq!(
            t.metrics.counter_value("muri_planning_passes_total", &[]),
            Some(1)
        );
    }

    #[test]
    fn pack_factor_reflects_policy() {
        assert_eq!(SchedulerConfig::preset(PolicyKind::MuriS).pack_factor(), 4);
        assert_eq!(SchedulerConfig::preset(PolicyKind::Srsf).pack_factor(), 1);
        let mut cfg = SchedulerConfig::preset(PolicyKind::MuriL);
        cfg.grouping.max_group_size = 2;
        assert_eq!(cfg.pack_factor(), 2);
    }
}
