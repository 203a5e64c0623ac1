//! Multi-seed replication: run the same (policy, workload-shape)
//! configuration over several independently seeded traces and summarize
//! the metric spread. Single-trace comparisons can hinge on one lucky
//! burst; replication is how the repo distinguishes a real scheduling
//! effect from trace noise.

use crate::config::SimConfig;
use crate::engine::simulate;
use muri_workload::stats;
use muri_workload::SynthConfig;
use serde::{Deserialize, Serialize};

/// Mean and spread of one metric across replicas.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricSummary {
    /// Arithmetic mean across replicas.
    pub mean: f64,
    /// Sample standard deviation (0 for a single replica).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl MetricSummary {
    /// Summarize a set of observations. Panics on an empty slice.
    pub fn from_observations(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "need at least one observation");
        let mean = stats::mean(xs);
        let var = if xs.len() < 2 {
            0.0
        } else {
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64
        };
        MetricSummary {
            mean,
            std_dev: var.sqrt(),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Coefficient of variation (std/mean); 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }
}

/// Replicated metrics of one policy over re-seeded traces.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplicatedMetrics {
    /// Replicas run.
    pub replicas: usize,
    /// Average JCT (seconds).
    pub avg_jct: MetricSummary,
    /// 99th-percentile JCT (seconds).
    pub p99_jct: MetricSummary,
    /// Makespan (seconds).
    pub makespan: MetricSummary,
}

/// Per-replica observations, in replica order.
type Observation = [f64; 3]; // avg JCT, p99 JCT, makespan (seconds)

/// Run replica `i` of the re-seeded workload shape.
fn run_replica(synth: &SynthConfig, sim: &SimConfig, i: usize) -> Observation {
    let mut cfg = synth.clone();
    cfg.seed = synth.seed.wrapping_add(i as u64 * 0x9E37_79B9);
    cfg.name = format!("{}-r{i}", synth.name);
    let trace = cfg.generate();
    let report = simulate(&trace, sim);
    [
        report.avg_jct_secs(),
        report.p99_jct_secs(),
        report.makespan_secs(),
    ]
}

/// Run `replicas` simulations of the same workload *shape* (the synth
/// config re-seeded per replica) under one scheduler configuration.
///
/// Replicas are independent (each gets its own deterministically derived
/// seed), so they run on striped scoped worker threads: each worker owns a disjoint
/// slice of the result vector, writes are contention-free, and the
/// summary is computed from the replica-ordered observations, so the
/// output is bit-identical to the sequential run.
pub fn replicate(synth: &SynthConfig, sim: &SimConfig, replicas: usize) -> ReplicatedMetrics {
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    replicate_with_workers(synth, sim, replicas, workers)
}

/// [`replicate`] with an explicit worker-thread count (clamped to
/// `[1, replicas]`). `workers = 1` forces the sequential path; the
/// determinism tests compare it byte-for-byte against parallel runs.
pub fn replicate_with_workers(
    synth: &SynthConfig,
    sim: &SimConfig,
    replicas: usize,
    workers: usize,
) -> ReplicatedMetrics {
    assert!(replicas >= 1, "need at least one replica");
    let workers = workers.clamp(1, replicas);
    let mut results: Vec<Observation> = vec![[0.0; 3]; replicas];
    if workers == 1 {
        for (i, slot) in results.iter_mut().enumerate() {
            *slot = run_replica(synth, sim, i);
        }
    } else {
        // Stripe replica indices across workers; each worker holds `&mut`
        // slots for its own indices only.
        let mut stripes: Vec<Vec<(usize, &mut Observation)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (i, slot) in results.iter_mut().enumerate() {
            stripes[i % workers].push((i, slot));
        }
        std::thread::scope(|s| {
            for stripe in stripes {
                s.spawn(move || {
                    for (i, slot) in stripe {
                        *slot = run_replica(synth, sim, i);
                    }
                });
            }
        });
    }
    let collect = |k: usize| -> Vec<f64> { results.iter().map(|obs| obs[k]).collect() };
    ReplicatedMetrics {
        replicas,
        avg_jct: MetricSummary::from_observations(&collect(0)),
        p99_jct: MetricSummary::from_observations(&collect(1)),
        makespan: MetricSummary::from_observations(&collect(2)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muri_cluster::ClusterSpec;
    use muri_core::{PolicyKind, SchedulerConfig};
    use muri_workload::SimDuration;

    fn small_synth() -> SynthConfig {
        SynthConfig {
            num_jobs: 24,
            duration_median_secs: 120.0,
            duration_sigma: 0.8,
            load_reference_gpus: 8,
            target_load: 1.2,
            gpu_dist: muri_workload::GpuDistribution::default().capped(4),
            max_duration: SimDuration::from_mins(30),
            ..SynthConfig::default()
        }
    }

    fn small_sim(policy: PolicyKind) -> SimConfig {
        SimConfig {
            cluster: ClusterSpec::with_machines(1),
            ..SimConfig::testbed(SchedulerConfig::preset(policy))
        }
    }

    #[test]
    fn summary_math() {
        let s = MetricSummary::from_observations(&[1.0, 2.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert!((s.std_dev - 1.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.cv() - 0.5).abs() < 1e-12);
        let single = MetricSummary::from_observations(&[4.0]);
        assert_eq!(single.std_dev, 0.0);
    }

    #[test]
    fn replication_covers_distinct_traces() {
        let r = replicate(&small_synth(), &small_sim(PolicyKind::MuriL), 3);
        assert_eq!(r.replicas, 3);
        // Re-seeded traces differ, so the spread is almost surely nonzero.
        assert!(r.avg_jct.std_dev > 0.0, "{r:?}");
        assert!(r.avg_jct.min <= r.avg_jct.mean && r.avg_jct.mean <= r.avg_jct.max);
    }

    #[test]
    fn replicated_comparison_is_more_stable_than_single_run() {
        // The point of replication: compare policies on means.
        let muri = replicate(&small_synth(), &small_sim(PolicyKind::MuriL), 3);
        let tiresias = replicate(&small_synth(), &small_sim(PolicyKind::Tiresias), 3);
        assert!(
            muri.avg_jct.mean <= tiresias.avg_jct.mean * 1.15,
            "Muri-L mean {} vs Tiresias mean {}",
            muri.avg_jct.mean,
            tiresias.avg_jct.mean
        );
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_replicas_rejected() {
        let _ = replicate(&small_synth(), &small_sim(PolicyKind::Fifo), 0);
    }

    #[test]
    fn parallel_replication_is_deterministic() {
        // Replica seeds derive from the index, and the summary is built
        // from the replica-ordered observations — so two runs (whatever
        // the worker striping) must agree bit for bit.
        let a = replicate(&small_synth(), &small_sim(PolicyKind::MuriL), 5);
        let b = replicate(&small_synth(), &small_sim(PolicyKind::MuriL), 5);
        assert_eq!(a, b);
    }
}
