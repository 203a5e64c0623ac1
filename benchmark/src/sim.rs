//! The three simulator workloads: `philly-t4`, `burst-512`, `hostile-t2`.
//!
//! A run simulates several traces drawn from the seed (the first with
//! the seed itself, so the reference seed reproduces `muri sim`), each
//! after resetting the γ and round caches, so every trace is planned
//! cold, and times each `simulate` call from outside the program.

use crate::layers::{set_planner_metrics, JournalTotals};
use crate::report::Outcome;
use crate::spans::Spans;
use crate::{peak_rss_mb, stats, RunOpts};
use muri_cluster::{Cluster, ClusterSpec, GpuSet};
use muri_core::{PolicyKind, SchedulerConfig};
use muri_sim::{simulate, simulate_with_telemetry, SimConfig, SimReport};
use muri_telemetry::{Telemetry, TelemetrySink};
use muri_workload::{GpuDistribution, SimDuration, SynthConfig, Trace};
use std::collections::VecDeque;
use std::time::Instant;

/// One simulator workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// Trace-4 parameters under Muri-L on the 64-GPU testbed.
    PhillyT4,
    /// 3,000 default-synth jobs all submitted at t=0 on 512 GPUs.
    Burst512,
    /// Trace-2 parameters with spot, hetero, elastic, SLO, machine
    /// faults and checkpoints.
    HostileT2,
}

/// Reference results of `muri sim` at the reference seeds, as the CLI
/// prints them: avg JCT (s, 1 decimal), p99 JCT (s, 1 decimal) and
/// makespan (h, 2 decimals).
struct Reference {
    avg_jct: &'static str,
    p99_jct: Option<&'static str>,
    makespan_h: &'static str,
}

impl SimWorkload {
    /// The seed whose first simulation is the CLI's.
    pub const fn reference_seed(self) -> u64 {
        match self {
            SimWorkload::PhillyT4 => 404,
            SimWorkload::Burst512 | SimWorkload::HostileT2 => 7,
        }
    }

    /// Rough wall time of one full-size simulation on a 2-core x86 host,
    /// in seconds; sets how many simulations fill a run's `--seconds`.
    /// `hostile-t2` takes one more than its time would give: its
    /// scenario draws vary the most.
    fn unit_s(self) -> f64 {
        match self {
            SimWorkload::PhillyT4 => 5.0,
            SimWorkload::HostileT2 => 4.5,
            SimWorkload::Burst512 => 6.5,
        }
    }

    fn reference(self) -> Option<Reference> {
        match self {
            SimWorkload::PhillyT4 => Some(Reference {
                avg_jct: "29111.1",
                p99_jct: None,
                makespan_h: "146.13",
            }),
            SimWorkload::HostileT2 => Some(Reference {
                avg_jct: "120987.9",
                p99_jct: Some("399250.9"),
                makespan_h: "152.32",
            }),
            SimWorkload::Burst512 => None,
        }
    }

    /// Trace generator for `seed`; `jobs` overrides the size (smoke).
    /// `hostile-t2` always runs trace 2 itself (seed 202): its seed draws
    /// the hostile scenario instead, see [`SimWorkload::config`].
    pub fn synth(self, seed: u64, jobs: Option<usize>) -> SynthConfig {
        // The Philly-like GPU mix of `muri_workload::philly_like_trace`.
        let philly = GpuDistribution {
            weights: vec![
                (1, 0.70),
                (2, 0.13),
                (4, 0.09),
                (8, 0.05),
                (16, 0.02),
                (32, 0.01),
            ],
        };
        let trace = |index: u32, num_jobs: usize, load: f64, median: f64| SynthConfig {
            name: format!("trace-{index}"),
            num_jobs: jobs.unwrap_or(num_jobs),
            seed,
            duration_median_secs: median,
            duration_sigma: 1.2,
            target_load: load,
            gpu_dist: philly.clone(),
            ..SynthConfig::default()
        };
        match self {
            SimWorkload::PhillyT4 => trace(4, 5755, 2.0, 1800.0),
            SimWorkload::HostileT2 => SynthConfig {
                seed: 202,
                ..trace(2, 2472, 1.8, 2000.0)
            },
            SimWorkload::Burst512 => SynthConfig {
                num_jobs: jobs.unwrap_or(3000),
                seed,
                load_reference_gpus: 512,
                ..SynthConfig::default()
            },
        }
    }

    /// Generate the trace for `seed`.
    pub fn trace(self, seed: u64, jobs: Option<usize>) -> Trace {
        let trace = self.synth(seed, jobs).generate();
        match self {
            SimWorkload::Burst512 => trace.at_time_zero(),
            _ => trace,
        }
    }

    /// Cluster, scheduler and scenario configuration for `seed`: on
    /// `hostile-t2` the seed of every scenario draw (spot evictions,
    /// machine faults, elastic resizes, SLO jobs).
    pub fn config(self, seed: u64) -> SimConfig {
        let machines = match self {
            SimWorkload::Burst512 => 64,
            _ => 8,
        };
        let mut cfg = SimConfig {
            cluster: ClusterSpec::with_machines(machines),
            ..SimConfig::testbed(SchedulerConfig::preset(PolicyKind::MuriL))
        };
        if self == SimWorkload::HostileT2 {
            let secs = SimDuration::from_secs;
            let f = &mut cfg.faults;
            f.seed = seed;
            f.spot_machines = 2;
            f.spot_mtbe = Some(secs(3600));
            f.spot_warning = secs(60);
            f.gpu_generations = 2;
            f.elastic_fraction = 0.25;
            f.elastic_interval = Some(secs(1800));
            f.slo_fraction = 0.3;
            f.slo_slack = 2.0;
            f.machine_mtbf = Some(secs(86_400));
            cfg.checkpoint.interval = Some(secs(1800));
            cfg.checkpoint.cost = secs(5);
        }
        cfg
    }
}

/// Seed of the `i`-th trace of a run: the run's seed itself first, then
/// well-mixed derivatives, so runs with nearby seeds share no trace.
pub fn trace_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        return seed;
    }
    let mut z = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Reset the thread's γ and round caches, so a run plans cold.
pub fn reset_caches() {
    muri_core::gamma_cache::reset();
    muri_core::round_cache::reset();
}

/// One cold simulation with telemetry off: report and wall seconds.
pub fn simulate_cold(trace: &Trace, cfg: &SimConfig) -> (SimReport, f64) {
    reset_caches();
    let start = Instant::now();
    let report = simulate(trace, cfg);
    (report, start.elapsed().as_secs_f64())
}

/// Journal capacity for a traced run of a trace whose untraced run
/// processed `engine_events` events: every engine event journals a
/// handful of entries at most, so 16 per event never drops.
pub fn journal_capacity(engine_events: u64) -> usize {
    usize::try_from(engine_events)
        .unwrap_or(usize::MAX / 32)
        .saturating_mul(16)
        .max(1 << 16)
}

/// What one traced simulation produced.
pub struct Traced {
    /// The run's report (must equal the untraced one).
    pub report: SimReport,
    /// Wall seconds, telemetry on.
    pub wall: f64,
    /// Planner and engine totals of the journal.
    pub totals: JournalTotals,
    /// Journal events dropped (must be 0).
    pub dropped: u64,
    /// The program's own Chrome trace (planning passes on the scheduler
    /// lane, in simulated time).
    pub chrome: String,
}

/// One cold simulation with a telemetry journal of `capacity` events.
pub fn simulate_traced(trace: &Trace, cfg: &SimConfig, capacity: usize) -> Traced {
    reset_caches();
    let sink = TelemetrySink::enabled(Telemetry::with_journal_capacity(capacity));
    let start = Instant::now();
    let report = simulate_with_telemetry(trace, cfg, &sink);
    let wall = start.elapsed().as_secs_f64();
    let (totals, dropped, chrome) = sink
        .with(|t| {
            let totals = JournalTotals::of(t.journal.events());
            (totals, t.journal.dropped(), t.trace.to_json())
        })
        .unwrap_or_default();
    Traced {
        report,
        wall,
        totals,
        dropped,
        chrome,
    }
}

/// Share of SLO jobs that finished after their deadline (0 when the
/// plan draws no SLO jobs).
pub fn slo_miss_ratio(trace: &Trace, cfg: &SimConfig, report: &SimReport) -> f64 {
    let mut slo = 0u64;
    let mut missed = 0u64;
    for (spec, rec) in trace.jobs.iter().zip(&report.records) {
        if let Some(deadline) = cfg.faults.deadline_for(spec) {
            slo += 1;
            if rec.finish.is_none_or(|f| f > deadline) {
                missed += 1;
            }
        }
    }
    if slo == 0 {
        0.0
    } else {
        missed as f64 / slo as f64
    }
}

/// Replay the trace's GPU-count sequence on its cluster: allocate each
/// job in submission order, releasing the oldest leases first when the
/// cluster is full. Returns the wall time of every allocate and
/// release call, µs.
pub fn cluster_replay(trace: &Trace, cfg: &SimConfig) -> Vec<f64> {
    let mut cluster = Cluster::new(cfg.cluster);
    if cfg.faults.hetero_active() {
        let gens = (0..cfg.cluster.machines)
            .map(|m| cfg.faults.generation_of(m))
            .collect();
        cluster.set_generations(gens);
    }
    let mut held: VecDeque<GpuSet> = VecDeque::new();
    let mut us = Vec::with_capacity(trace.len() * 2);
    for job in &trace.jobs {
        loop {
            let start = Instant::now();
            let got = cluster.allocate(job.num_gpus);
            us.push(start.elapsed().as_secs_f64() * 1e6);
            if let Some(set) = got {
                held.push_back(set);
                break;
            }
            let Some(oldest) = held.pop_front() else {
                break;
            };
            let start = Instant::now();
            cluster.release(&oldest);
            us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    us
}

/// Traces per run: enough to fill `seconds`, at least two.
fn traces_for(kind: SimWorkload, opts: &RunOpts) -> usize {
    if opts.smoke {
        return 2;
    }
    ((opts.seconds / kind.unit_s()).round() as usize).max(2)
}

fn smoke_jobs(opts: &RunOpts) -> Option<usize> {
    opts.smoke.then_some(40)
}

/// Every simulated trace must finish all its jobs.
fn check_report(out: &mut Outcome, trace_name: &str, report: &SimReport) {
    let unfinished = report.records.len() - report.finished_jobs();
    out.failed += unfinished as u64;
    out.check(unfinished == 0, || {
        format!("{trace_name}: {unfinished} job(s) did not finish")
    });
}

/// Three cold runs of a 300-job prefix of the first trace must give
/// identical reports (the full traces are too long to triple).
fn check_determinism(out: &mut Outcome, kind: SimWorkload, seed: u64) {
    let mut prefix = kind.trace(seed, None);
    prefix.jobs.truncate(300);
    let cfg = kind.config(seed);
    let (a, _) = simulate_cold(&prefix, &cfg);
    let (b, _) = simulate_cold(&prefix, &cfg);
    let (c, _) = simulate_cold(&prefix, &cfg);
    out.check(a == b && b == c, || {
        "the 300-job prefix did not reproduce the same SimReport three times".to_string()
    });
}

fn check_reference(out: &mut Outcome, kind: SimWorkload, seed: u64, report: &SimReport) {
    let Some(r) = kind.reference() else { return };
    if seed != kind.reference_seed() {
        return;
    }
    let got = (
        format!("{:.1}", report.avg_jct_secs()),
        format!("{:.1}", report.p99_jct_secs()),
        format!("{:.2}", report.makespan_secs() / 3600.0),
    );
    let ok = got.0 == r.avg_jct && r.p99_jct.is_none_or(|p| p == got.1) && got.2 == r.makespan_h;
    out.check(ok, || {
        format!(
            "reference seed {seed}: avg JCT {} s, p99 {} s, makespan {} h; `muri sim` gives {} s, {} s, {} h",
            got.0,
            got.1,
            got.2,
            r.avg_jct,
            r.p99_jct.unwrap_or("-"),
            r.makespan_h
        )
    });
}

/// Run one simulator workload.
pub fn run(kind: SimWorkload, opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    let n = traces_for(kind, opts);
    if opts.trace {
        run_traced(kind, opts, n, &mut out);
    } else {
        run_e2e(kind, opts, n, &mut out);
    }
    out
}

fn run_e2e(kind: SimWorkload, opts: &RunOpts, n: usize, out: &mut Outcome) {
    if !opts.smoke {
        check_determinism(out, kind, opts.seed);
    }
    // Set-up: generating a trace is what a user pays before simulating.
    // It takes under a millisecond, so time it for every trace and again
    // for the first until there are 21 samples; report the median.
    let mut setup = Vec::new();
    let mut inputs = Vec::with_capacity(n);
    for i in 0..n.max(21) {
        let seed = trace_seed(opts.seed, if i < n { i } else { 0 });
        let start = Instant::now();
        let trace = kind.trace(seed, smoke_jobs(opts));
        setup.push(start.elapsed().as_secs_f64());
        if i < n {
            inputs.push((trace, kind.config(seed)));
        }
    }
    let mut jobs = 0usize;
    let mut walls = Vec::with_capacity(n);
    for (i, (trace, cfg)) in inputs.iter().enumerate() {
        let (report, secs) = simulate_cold(trace, cfg);
        check_report(out, &trace.name, &report);
        if i == 0 {
            check_reference(out, kind, opts.seed, &report);
        }
        jobs += trace.len();
        walls.push(secs);
    }
    out.attempted = jobs as u64;
    let m = &mut out.metrics;
    m.set("setup_s", stats::quantile(&stats::sorted(&setup), 0.5));
    m.set("jobs_per_s", jobs as f64 / walls.iter().sum::<f64>());
    m.set(
        "latency_p50_ms",
        stats::quantile(&stats::sorted(&walls), 0.5) * 1e3,
    );
    m.set("peak_rss_mb", peak_rss_mb());
}

fn run_traced(kind: SimWorkload, opts: &RunOpts, n: usize, out: &mut Outcome) {
    let mut spans = Spans::new(Instant::now());
    let root = spans.open("run", None);
    // The untraced twin of the first trace: tracing overhead baseline,
    // and the report the traced run must reproduce exactly.
    let first = kind.trace(opts.seed, smoke_jobs(opts));
    let first_cfg = kind.config(opts.seed);
    let ((plain, plain_wall), _) = spans.time("simulate_untraced", Some(root), || {
        simulate_cold(&first, &first_cfg)
    });
    let capacity = journal_capacity(plain.events);
    // Traced runs cost about 1.25 untraced ones; the twin took one slot.
    let traced_n = if opts.smoke {
        n
    } else {
        ((n as f64 - 1.0) / 1.25).floor().max(1.0) as usize
    };
    let mut gen_ms = Vec::new();
    let mut totals = Vec::new();
    let mut reports = Vec::new();
    let mut engine_self = Vec::new();
    let mut first_traced_wall = 0.0;
    let mut slo = Vec::new();
    for i in 0..traced_n {
        let seed = trace_seed(opts.seed, i);
        let (trace, gen_s) = spans.time("workload.generate", Some(root), || {
            kind.trace(seed, smoke_jobs(opts))
        });
        gen_ms.push(gen_s * 1e3);
        let cfg = kind.config(seed);
        let (traced, _) = spans.time("simulate_traced", Some(root), || {
            simulate_traced(&trace, &cfg, capacity)
        });
        let dropped = traced.dropped;
        out.check(dropped == 0, || {
            format!(
                "{}: the telemetry journal dropped {dropped} event(s)",
                trace.name
            )
        });
        check_report(out, &trace.name, &traced.report);
        if i == 0 {
            first_traced_wall = traced.wall;
            out.check(traced.report == plain, || {
                format!(
                    "{}: the traced report differs from the untraced one",
                    trace.name
                )
            });
            check_reference(out, kind, opts.seed, &traced.report);
            crate::write_output(opts, "telemetry", &traced.chrome, out);
        }
        engine_self.push(traced.wall - traced.totals.plan_s());
        slo.push(slo_miss_ratio(&trace, &cfg, &traced.report));
        out.attempted += trace.len() as u64;
        totals.push(traced.totals);
        reports.push(traced.report);
    }
    let (alloc_us, _) = spans.time("cluster.replay", Some(root), || {
        cluster_replay(&first, &first_cfg)
    });
    spans.close(root);

    let m = &mut out.metrics;
    m.not_exercised(&["serve.", "loadgen."]);
    set_planner_metrics(m, &totals);
    let mean =
        |f: &dyn Fn(&SimReport) -> f64| stats::mean(&reports.iter().map(f).collect::<Vec<_>>());
    m.set("workload.generate_ms", stats::mean(&gen_ms));
    m.set("sched.avg_jct_s", mean(&SimReport::avg_jct_secs));
    m.set("sched.p99_jct_s", mean(&SimReport::p99_jct_secs));
    m.set("sched.makespan_s", mean(&SimReport::makespan_secs));
    m.set("sched.slo_miss_ratio", stats::mean(&slo));
    let alloc = stats::sorted(&alloc_us);
    m.set("cluster.alloc_us_p50", stats::quantile(&alloc, 0.50));
    m.set("cluster.alloc_us_p99", stats::quantile(&alloc, 0.99));
    m.set("engine.events", mean(&|r| r.events as f64));
    m.set("engine.self_s", stats::mean(&engine_self));
    m.set(
        "telemetry.overhead_ratio",
        first_traced_wall / plain_wall - 1.0,
    );
    crate::write_output(opts, "spans", &spans.to_chrome_json(), out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_seeds_generate_the_cli_traces() {
        assert_eq!(
            SimWorkload::PhillyT4.trace(404, None),
            muri_workload::philly_like_trace(4, 1.0)
        );
        // hostile-t2 runs trace 2 itself; its seed draws the scenario.
        assert_eq!(
            SimWorkload::HostileT2.trace(99, None),
            muri_workload::philly_like_trace(2, 1.0)
        );
        assert_eq!(SimWorkload::HostileT2.config(7).faults.seed, 7);
        assert_eq!(SimWorkload::Burst512.trace(7, Some(50)).len(), 50);
        assert_eq!(trace_seed(404, 0), 404);
        assert_ne!(trace_seed(404, 1), trace_seed(405, 1));
    }

    #[test]
    fn every_run_plans_cold() {
        // Without the reset, a second run in the same process answers
        // from the γ cache and reads as a fake speed-up.
        let trace = SimWorkload::PhillyT4.trace(11, Some(150));
        let cfg = SimWorkload::PhillyT4.config(11);
        let misses = || {
            let _ = simulate_cold(&trace, &cfg);
            muri_core::gamma_cache::stats().misses
        };
        let first = misses();
        assert!(first > 0);
        assert_eq!(misses(), first);
    }

    #[test]
    fn sized_journal_drops_nothing_and_a_small_one_is_caught() {
        let kind = SimWorkload::HostileT2;
        let trace = kind.trace(5, Some(80));
        let cfg = kind.config(5);
        let (plain, _) = simulate_cold(&trace, &cfg);
        let traced = simulate_traced(&trace, &cfg, journal_capacity(plain.events));
        assert_eq!(traced.dropped, 0);
        assert_eq!(traced.report, plain);
        assert!(!traced.totals.pass_us.is_empty());
        assert!(traced.chrome.contains("plan_schedule"));
        let small = simulate_traced(&trace, &cfg, 16);
        assert!(small.dropped > 0, "a 16-event journal must overflow");
    }

    #[test]
    fn cluster_replay_times_every_call() {
        let kind = SimWorkload::HostileT2;
        let trace = kind.trace(1, Some(100));
        let us = cluster_replay(&trace, &kind.config(1));
        assert!(us.len() >= trace.len());
        assert!(us.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn slo_misses_are_counted_only_on_hostile() {
        let kind = SimWorkload::HostileT2;
        let trace = kind.trace(2, Some(60));
        let cfg = kind.config(2);
        let (report, _) = simulate_cold(&trace, &cfg);
        let r = slo_miss_ratio(&trace, &cfg, &report);
        assert!((0.0..=1.0).contains(&r));
        let plain = SimWorkload::PhillyT4.config(2);
        assert_eq!(slo_miss_ratio(&trace, &plain, &report), 0.0);
    }
}
