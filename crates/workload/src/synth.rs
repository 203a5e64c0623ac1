//! Philly-like trace synthesizer.
//!
//! The paper's simulations replay four Microsoft Philly traces (992–5755
//! jobs) that are split by virtual-cluster id and are not redistributable.
//! This module synthesizes traces with the same *shape*: power-of-two GPU
//! counts following the Philly empirical skew toward small jobs,
//! heavy-tailed (log-normal) durations, Poisson arrivals tuned to a target
//! offered load, and models drawn uniformly from the Table 3 zoo (the paper
//! itself assigns models to trace jobs randomly, §6.1).
//!
//! Everything is deterministic given the seed.

use crate::job::{JobId, JobSpec};
use crate::model::ModelKind;
use crate::resource::ResourceKind;
use crate::time::{SimDuration, SimTime};
use crate::trace::Trace;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Distribution over power-of-two GPU counts.
///
/// Defaults follow the Philly analysis (Jeon et al., ATC '19): the large
/// majority of jobs are single-GPU, with a long tail of distributed jobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuDistribution {
    /// `(gpu_count, weight)` pairs; counts must be powers of two.
    pub weights: Vec<(u32, f64)>,
}

impl Default for GpuDistribution {
    fn default() -> Self {
        GpuDistribution {
            weights: vec![
                (1, 0.58),
                (2, 0.14),
                (4, 0.12),
                (8, 0.09),
                (16, 0.05),
                (32, 0.02),
            ],
        }
    }
}

impl GpuDistribution {
    /// Restrict to GPU counts `<= cap` (renormalizing implicitly).
    pub fn capped(mut self, cap: u32) -> Self {
        self.weights.retain(|&(g, _)| g <= cap);
        assert!(!self.weights.is_empty(), "cap {cap} removed every bucket");
        self
    }

    /// Expected GPU count.
    pub fn mean(&self) -> f64 {
        let total: f64 = self.weights.iter().map(|&(_, w)| w).sum();
        self.weights
            .iter()
            .map(|&(g, w)| f64::from(g) * w)
            .sum::<f64>()
            / total
    }

    fn sample(&self, rng: &mut SmallRng) -> u32 {
        let total: f64 = self.weights.iter().map(|&(_, w)| w).sum();
        let mut x = rng.gen_range(0.0..total);
        for &(g, w) in &self.weights {
            if x < w {
                return g;
            }
            x -= w;
        }
        self.weights.last().map_or(1, |&(g, _)| g)
    }
}

/// Configuration for the synthesizer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Trace name.
    pub name: String,
    /// Number of jobs to generate.
    pub num_jobs: usize,
    /// RNG seed; same config + seed ⇒ identical trace.
    pub seed: u64,
    /// Median solo job duration in seconds (log-normal median).
    pub duration_median_secs: f64,
    /// Log-normal sigma of the duration distribution (heavier tail for
    /// larger values; Philly durations are very heavy-tailed).
    pub duration_sigma: f64,
    /// Clamp on the duration tail.
    pub max_duration: SimDuration,
    /// Minimum duration (a job must run at least one iteration anyway).
    pub min_duration: SimDuration,
    /// GPU-count distribution.
    pub gpu_dist: GpuDistribution,
    /// Models to draw from (uniformly).
    pub models: Vec<ModelKind>,
    /// Cluster size used to convert `target_load` into an arrival rate.
    pub load_reference_gpus: u32,
    /// Target offered load (total GPU service ÷ cluster capacity over the
    /// submission span). Values near 1 saturate the cluster.
    pub target_load: f64,
    /// Fraction of jobs submitted in a burst together with the previous
    /// job (batch submissions — hyperparameter sweeps, retries). Philly
    /// arrivals are strongly bursty; bursts are what make a "busiest
    /// window" (§6.1) meaningfully denser than the average.
    pub burst_fraction: f64,
    /// Diurnal arrival-rate modulation amplitude in `[0, 1)`: interarrival
    /// gaps scale by `1 − A·sin(2πt/24h)` (day/night cycle).
    pub diurnal_amplitude: f64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            name: "synth".into(),
            num_jobs: 1000,
            seed: 1,
            duration_median_secs: 600.0,
            duration_sigma: 1.6,
            max_duration: SimDuration::from_hours(48),
            min_duration: SimDuration::from_secs(30),
            gpu_dist: GpuDistribution::default(),
            models: ModelKind::ALL.to_vec(),
            load_reference_gpus: 64,
            target_load: 0.9,
            burst_fraction: 0.65,
            diurnal_amplitude: 0.6,
        }
    }
}

impl SynthConfig {
    /// Restrict the model mix to the first `classes` bottleneck classes in
    /// the order storage → CPU → GPU → network (the paper's Fig. 13 sweep
    /// over "number of job types bottlenecked by different resources").
    pub fn with_bottleneck_classes(mut self, classes: usize) -> Self {
        assert!((1..=4).contains(&classes), "classes must be 1..=4");
        let order = [
            ResourceKind::Storage,
            ResourceKind::Cpu,
            ResourceKind::Gpu,
            ResourceKind::Network,
        ];
        self.models = order[..classes]
            .iter()
            .flat_map(|&r| ModelKind::by_bottleneck(r))
            .collect();
        self
    }

    /// Mean solo duration implied by the log-normal parameters (ignoring
    /// the clamp): `median × exp(σ²/2)`.
    pub fn mean_duration_secs(&self) -> f64 {
        self.duration_median_secs * (self.duration_sigma * self.duration_sigma / 2.0).exp()
    }

    /// Mean interarrival implied by the target load.
    pub fn mean_interarrival(&self) -> SimDuration {
        let mean_service = self.mean_duration_secs() * self.gpu_dist.mean();
        let rate_capacity = f64::from(self.load_reference_gpus) * self.target_load;
        SimDuration::from_secs_f64(mean_service / rate_capacity.max(1e-9))
    }

    /// Generate the trace.
    ///
    /// ```
    /// use muri_workload::SynthConfig;
    ///
    /// let cfg = SynthConfig { num_jobs: 50, ..SynthConfig::default() };
    /// let trace = cfg.generate();
    /// assert_eq!(trace.len(), 50);
    /// assert_eq!(trace, cfg.generate()); // deterministic by seed
    /// ```
    pub fn generate(&self) -> Trace {
        assert!(!self.models.is_empty(), "model mix must be non-empty");
        assert!(self.num_jobs > 0, "num_jobs must be positive");
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mean_gap = self.mean_interarrival().as_secs_f64();
        let mu = self.duration_median_secs.ln();

        // Non-burst jobs carry the whole arrival budget so the average
        // rate still matches the target load.
        let solo_gap = mean_gap / (1.0 - self.burst_fraction).max(0.05);
        let mut t = 0.0_f64;
        let mut jobs = Vec::with_capacity(self.num_jobs);
        for i in 0..self.num_jobs {
            // Bursty, diurnally-modulated Poisson arrivals.
            if i == 0 || rng.gen_range(0.0..1.0) >= self.burst_fraction {
                let day_phase = (t / 86_400.0) * std::f64::consts::TAU;
                let modulation = (1.0 - self.diurnal_amplitude * day_phase.sin()).max(0.05);
                t += sample_exponential(&mut rng, solo_gap) * modulation;
            }
            let gpus = self.gpu_dist.sample(&mut rng);
            let model = self.models[rng.gen_range(0..self.models.len())];
            let dur_secs = (mu + self.duration_sigma * sample_standard_normal(&mut rng)).exp();
            let duration = SimDuration::from_secs_f64(dur_secs)
                .min(self.max_duration)
                .max(self.min_duration);
            jobs.push(JobSpec::from_duration(
                JobId(i as u32),
                model,
                gpus,
                duration,
                SimTime::from_secs(t as u64),
            ));
        }
        Trace::new(self.name.clone(), jobs)
    }
}

/// Exponential sample with the given mean (inverse-CDF method).
fn sample_exponential(rng: &mut SmallRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean * u.ln()
}

/// Standard normal sample via Box–Muller (keeps us off extra
/// distribution crates).
fn sample_standard_normal(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// The four Philly-like simulation traces of §6.3. `index` is 1–4;
/// `scale` scales the job count (1.0 reproduces the paper's sizes,
/// 992–5755 jobs). Trace 3 is deliberately lightly loaded with a few very
/// long jobs submitted near the beginning — the paper calls out exactly
/// that structure when explaining why trace 3 shows no makespan speedup.
pub fn philly_like_trace(index: usize, scale: f64) -> Trace {
    assert!((1..=4).contains(&index), "trace index must be 1..=4");
    let (jobs, load, median, seed) = match index {
        1 => (992, 1.60, 2400.0, 101),
        2 => (2472, 1.80, 2000.0, 202),
        3 => (3558, 0.45, 1200.0, 303),
        4 => (5755, 2.00, 1800.0, 404),
        _ => unreachable!(),
    };
    let num_jobs = ((f64::from(jobs) * scale).round() as usize).max(8);
    let cfg = SynthConfig {
        name: format!("trace-{index}"),
        num_jobs,
        seed,
        duration_median_secs: median,
        duration_sigma: 1.2,
        target_load: load,
        // Philly is dominated by small jobs; the GPU-hour mass sits in
        // the multi-GPU tail.
        gpu_dist: GpuDistribution {
            weights: vec![
                (1, 0.70),
                (2, 0.13),
                (4, 0.09),
                (8, 0.05),
                (16, 0.02),
                (32, 0.01),
            ],
        },
        ..SynthConfig::default()
    };
    let mut trace = cfg.generate();
    if index == 3 {
        // A few long jobs at the head of the lightly loaded trace (§6.3).
        let span = trace.submission_span();
        let mut jobs = trace.jobs.clone();
        let n_long = (num_jobs / 250).max(2);
        for (k, j) in jobs.iter_mut().take(n_long).enumerate() {
            let long = SimDuration::from_hours(20 + 4 * k as u64);
            *j = JobSpec::from_duration(j.id, j.model, j.num_gpus, long, j.submit_time);
        }
        // Keep the span (and thus load accounting) unchanged.
        let _ = span;
        trace = Trace::new(cfg.name, jobs);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SynthConfig::default();
        assert_eq!(cfg.generate(), cfg.generate());
        let other = SynthConfig {
            seed: 2,
            ..SynthConfig::default()
        };
        assert_ne!(cfg.generate(), other.generate());
    }

    #[test]
    fn job_counts_and_ids() {
        let t = SynthConfig {
            num_jobs: 137,
            ..SynthConfig::default()
        }
        .generate();
        assert_eq!(t.len(), 137);
        // Ids unique.
        let mut ids: Vec<u32> = t.jobs.iter().map(|j| j.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 137);
    }

    #[test]
    fn durations_respect_bounds() {
        let cfg = SynthConfig {
            num_jobs: 500,
            max_duration: SimDuration::from_hours(10),
            min_duration: SimDuration::from_secs(60),
            ..SynthConfig::default()
        };
        for j in &cfg.generate().jobs {
            let d = j.solo_duration();
            // from_duration rounds iterations up, so allow one iteration of
            // slack above the max.
            let iter = j.true_profile().iteration_time();
            assert!(d >= SimDuration::from_secs(60).saturating_sub(iter), "{d}");
            assert!(d <= SimDuration::from_hours(10) + iter, "{d}");
        }
    }

    #[test]
    fn achieved_load_near_target() {
        let cfg = SynthConfig {
            num_jobs: 4000,
            target_load: 0.9,
            ..SynthConfig::default()
        };
        let t = cfg.generate();
        let load = t.offered_load(cfg.load_reference_gpus);
        // Heavy-tailed durations make this noisy; a factor-2 band still
        // catches unit errors (e.g. ms vs s) decisively.
        assert!(load > 0.45 && load < 1.8, "achieved load {load}");
    }

    #[test]
    fn bottleneck_class_restriction() {
        for classes in 1..=4 {
            let cfg = SynthConfig::default().with_bottleneck_classes(classes);
            assert_eq!(cfg.models.len(), classes * 2);
            let t = SynthConfig {
                num_jobs: 100,
                ..cfg.clone()
            }
            .generate();
            for j in &t.jobs {
                assert!(cfg.models.contains(&j.model));
            }
        }
    }

    #[test]
    fn philly_like_sizes_match_paper_range() {
        assert_eq!(philly_like_trace(1, 1.0).len(), 992);
        assert_eq!(philly_like_trace(4, 1.0).len(), 5755);
        assert_eq!(philly_like_trace(2, 0.1).len(), 247);
    }

    #[test]
    fn trace3_is_light_with_long_head_jobs() {
        let t3 = philly_like_trace(3, 0.25);
        let t4 = philly_like_trace(4, 0.25);
        assert!(t3.offered_load(64) < t4.offered_load(64));
        // The head of trace 3 carries very long jobs.
        let head_max = t3.jobs[..4]
            .iter()
            .map(super::super::job::JobSpec::solo_duration)
            .max()
            .unwrap();
        assert!(head_max >= SimDuration::from_hours(20));
    }

    #[test]
    fn gpu_distribution_mean() {
        let d = GpuDistribution::default();
        assert!((d.mean() - 3.2).abs() < 1.0, "mean {}", d.mean());
        let capped = GpuDistribution::default().capped(4);
        assert!(capped.weights.iter().all(|&(g, _)| g <= 4));
    }
}
