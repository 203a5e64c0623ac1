//! Per-layer numbers read from the program's own telemetry journal:
//! the `PlanningPass` phase timings and cache deltas of `muri-core` and
//! `muri-matching`, and the lifecycle events of `muri-sim`.

use crate::report::Metrics;
use crate::stats;
use muri_telemetry::Event;

/// Planner and engine totals over one journal.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct JournalTotals {
    /// Wall time of each planning pass (sort + admission + bucketing +
    /// grouping + selection), µs.
    pub pass_us: Vec<f64>,
    /// Σ sort phase, µs.
    pub sort_us: u64,
    /// Σ round-graph construction, µs.
    pub graph_build_us: u64,
    /// Σ capacity selection and placement ordering, µs.
    pub selection_us: u64,
    /// Σ matching, µs.
    pub matching_us: u64,
    /// Σ matching rounds.
    pub matching_rounds: u64,
    /// Σ edges dropped by sparsification.
    pub pruned_edges: u64,
    /// Σ dense fallbacks after a failed prune certificate.
    pub prune_fallbacks: u64,
    /// Σ shard subproblems.
    pub shards: u64,
    /// Σ distinct shard templates solved.
    pub shard_templates: u64,
    /// Σ sharded plans whose certificate failed.
    pub shard_fallbacks: u64,
    /// Largest candidate pool handed to one pass.
    pub candidates_max: u64,
    /// γ-cache hits and misses.
    pub gamma: (u64, u64),
    /// Round-cache hits and misses.
    pub round: (u64, u64),
    /// Job restarts (preemption or fault).
    pub restarts: u64,
    /// Preemptions by a scheduling pass.
    pub preemptions: u64,
    /// Scenario events: machine faults and repairs, spot evictions,
    /// elastic resizes, checkpoints.
    pub scenario_events: u64,
}

impl JournalTotals {
    /// Fold a journal.
    pub fn of(events: &[Event]) -> Self {
        let mut t = JournalTotals::default();
        for ev in events {
            match ev {
                Event::PlanningPass {
                    candidates,
                    phases: p,
                    gamma_cache,
                    round_cache,
                    ..
                } => {
                    let total = p.sort_us
                        + p.admission_us
                        + p.bucketing_us
                        + p.grouping_us
                        + p.selection_us;
                    t.pass_us.push(total as f64);
                    t.sort_us += p.sort_us;
                    t.graph_build_us += p.graph_build_us;
                    t.selection_us += p.selection_us;
                    t.matching_us += p.matching_us;
                    t.matching_rounds += u64::from(p.matching_rounds);
                    t.pruned_edges += p.pruned_edges;
                    t.prune_fallbacks += p.prune_fallbacks;
                    t.shards += p.shards;
                    t.shard_templates += p.shard_templates;
                    t.shard_fallbacks += p.shard_fallbacks;
                    t.candidates_max = t.candidates_max.max(u64::from(*candidates));
                    t.gamma.0 += gamma_cache.hits;
                    t.gamma.1 += gamma_cache.misses;
                    t.round.0 += round_cache.hits;
                    t.round.1 += round_cache.misses;
                }
                Event::JobStarted { restart: true, .. } => t.restarts += 1,
                Event::JobPreempted { .. } => t.preemptions += 1,
                Event::MachineFailed { .. }
                | Event::MachineRecovered { .. }
                | Event::SpotEvicted { .. }
                | Event::ElasticResized { .. }
                | Event::CheckpointTaken { .. } => t.scenario_events += 1,
                _ => {}
            }
        }
        t
    }

    /// Σ pass time in seconds.
    pub fn plan_s(&self) -> f64 {
        self.pass_us.iter().sum::<f64>() / 1e6
    }
}

fn ratio(hits_misses: (u64, u64)) -> f64 {
    let (h, m) = hits_misses;
    if h + m == 0 {
        0.0
    } else {
        h as f64 / (h + m) as f64
    }
}

/// Set the `core.*`, `matching.*` and journal-derived `engine.*` metrics
/// as means over `runs` (one journal each, e.g. one per simulated
/// trace); the pass distribution is pooled over all runs.
pub fn set_planner_metrics(m: &mut Metrics, runs: &[JournalTotals]) {
    let n = runs.len().max(1) as f64;
    let mean = |f: &dyn Fn(&JournalTotals) -> f64| runs.iter().map(f).sum::<f64>() / n;
    let pooled: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.pass_us.iter().copied())
        .collect();
    let sorted = stats::sorted(&pooled);
    let sum2 = |f: &dyn Fn(&JournalTotals) -> (u64, u64)| {
        runs.iter()
            .map(f)
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    };
    m.set("core.passes", mean(&|r| r.pass_us.len() as f64));
    m.set("core.plan_s", mean(&JournalTotals::plan_s));
    m.set("core.pass_p50_us", stats::quantile(&sorted, 0.50));
    m.set("core.pass_p99_us", stats::quantile(&sorted, 0.99));
    m.set(
        "core.pass_max_ms",
        sorted.last().copied().unwrap_or(0.0) / 1e3,
    );
    m.set("core.sort_s", mean(&|r| r.sort_us as f64 / 1e6));
    m.set(
        "core.graph_build_s",
        mean(&|r| r.graph_build_us as f64 / 1e6),
    );
    m.set("core.selection_s", mean(&|r| r.selection_us as f64 / 1e6));
    m.set("core.gamma_hit_ratio", ratio(sum2(&|r| r.gamma)));
    m.set("core.gamma_misses", mean(&|r| r.gamma.1 as f64));
    m.set("core.round_hit_ratio", ratio(sum2(&|r| r.round)));
    m.set("core.shards", mean(&|r| r.shards as f64));
    m.set("core.shard_templates", mean(&|r| r.shard_templates as f64));
    m.set("core.shard_fallbacks", mean(&|r| r.shard_fallbacks as f64));
    m.set(
        "core.candidates_max",
        runs.iter().map(|r| r.candidates_max).max().unwrap_or(0) as f64,
    );
    m.set("matching.solve_s", mean(&|r| r.matching_us as f64 / 1e6));
    m.set("matching.rounds", mean(&|r| r.matching_rounds as f64));
    m.set("matching.pruned_edges", mean(&|r| r.pruned_edges as f64));
    m.set(
        "matching.prune_fallbacks",
        mean(&|r| r.prune_fallbacks as f64),
    );
    m.set("engine.restarts", mean(&|r| r.restarts as f64));
    m.set("engine.preemptions", mean(&|r| r.preemptions as f64));
    m.set(
        "engine.scenario_events",
        mean(&|r| r.scenario_events as f64),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use muri_telemetry::{CacheDelta, PlanPhases};
    use muri_workload::{JobId, SimTime};

    fn pass(sort_us: u64, grouping_us: u64, gamma: (u64, u64)) -> Event {
        Event::PlanningPass {
            time: SimTime::ZERO,
            candidates: 5,
            free_gpus: 8,
            planned_groups: 1,
            planned_jobs: 2,
            phases: PlanPhases {
                sort_us,
                grouping_us,
                matching_us: 3,
                shards: 2,
                ..PlanPhases::default()
            },
            gamma_cache: CacheDelta {
                hits: gamma.0,
                misses: gamma.1,
            },
            round_cache: CacheDelta::default(),
        }
    }

    #[test]
    fn totals_fold_passes_and_lifecycle() {
        let events = vec![
            pass(10, 90, (3, 1)),
            pass(20, 180, (1, 3)),
            Event::JobStarted {
                time: SimTime::ZERO,
                job: JobId(1),
                restart: true,
            },
            Event::MachineRecovered {
                time: SimTime::ZERO,
                machine: 0,
            },
        ];
        let t = JournalTotals::of(&events);
        assert_eq!(t.pass_us, vec![100.0, 200.0]);
        assert_eq!((t.sort_us, t.matching_us, t.shards), (30, 6, 4));
        assert_eq!((t.restarts, t.scenario_events), (1, 1));
        let mut m = Metrics::default();
        set_planner_metrics(&mut m, &[t.clone(), t]);
        assert_eq!(m.get("core.passes"), Some(2.0));
        assert_eq!(m.get("core.gamma_hit_ratio"), Some(0.5));
        assert_eq!(m.get("core.pass_max_ms"), Some(0.2));
        assert_eq!(m.get("core.round_hit_ratio"), Some(0.0));
    }
}
