//! The metric catalog and the run's printed result.
//!
//! Every workload reports every metric of the catalog, so each
//! `(workload, metric)` pair is one comparable series. A per-layer
//! metric of a layer the workload does not exercise reads 0; the
//! workload says so explicitly with [`Metrics::not_exercised`].

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One catalog entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Metric name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed and as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s"),
    def("jobs_per_s", "1/s"),
    def("latency_p50_ms", "ms"),
    def("peak_rss_mb", "MB"),
];

/// Per-layer metrics, from the separate traced run.
pub const PER_LAYER: &[Def] = &[
    def("workload.generate_ms", "ms"),
    def("sched.avg_jct_s", "s"),
    def("sched.p99_jct_s", "s"),
    def("sched.makespan_s", "s"),
    def("sched.slo_miss_ratio", "ratio"),
    def("core.passes", "count"),
    def("core.plan_s", "s"),
    def("core.pass_p50_us", "us"),
    def("core.pass_p99_us", "us"),
    def("core.pass_max_ms", "ms"),
    def("core.sort_s", "s"),
    def("core.graph_build_s", "s"),
    def("core.selection_s", "s"),
    def("core.gamma_hit_ratio", "ratio"),
    def("core.gamma_misses", "count"),
    def("core.round_hit_ratio", "ratio"),
    def("core.shards", "count"),
    def("core.shard_templates", "count"),
    def("core.shard_fallbacks", "count"),
    def("core.candidates_max", "count"),
    def("matching.solve_s", "s"),
    def("matching.rounds", "count"),
    def("matching.pruned_edges", "count"),
    def("matching.prune_fallbacks", "count"),
    def("cluster.alloc_us_p50", "us"),
    def("cluster.alloc_us_p99", "us"),
    def("engine.events", "count"),
    def("engine.self_s", "s"),
    def("engine.restarts", "count"),
    def("engine.preemptions", "count"),
    def("engine.scenario_events", "count"),
    def("telemetry.overhead_ratio", "ratio"),
    def("serve.http_rtt_us", "us"),
    def("serve.cmd_rtt_us", "us"),
    def("serve.core_submit_us_p50", "us"),
    def("serve.core_submit_us_p99", "us"),
    def("serve.commit_us_p50", "us"),
    def("serve.commit_ms_max", "ms"),
    def("serve.compact_ms_end", "ms"),
    def("serve.oplog_ops", "count"),
    def("serve.refused", "count"),
    def("serve.submit_p99_ms", "ms"),
    def("serve.status_p99_ms", "ms"),
    def("serve.place_p50_ms", "ms"),
    def("serve.place_p99_ms", "ms"),
    def("serve.max_rps", "1/s"),
    def("serve.submit_p99_ms.r500", "ms"),
    def("serve.submit_p99_ms.r1000", "ms"),
    def("serve.submit_p99_ms.r2000", "ms"),
    def("serve.submit_p99_ms.r3000", "ms"),
    def("serve.submit_p99_ms.r4000", "ms"),
    def("serve.submit_p99_ms.r6000", "ms"),
    def("loadgen.lag_p99_ms", "ms"),
];

/// The catalog a run prints: end-to-end without tracing, per-layer with.
pub fn catalog(trace: bool) -> &'static [Def] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Metric values collected by a workload, by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Set `name` (must be a catalog name).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Set every per-layer metric whose name starts with one of
    /// `prefixes` to 0: the workload does not run that layer.
    pub fn not_exercised(&mut self, prefixes: &[&str]) {
        for d in PER_LAYER {
            if prefixes.iter().any(|p| d.name.starts_with(p)) {
                self.0.insert(d.name, 0.0);
            }
        }
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the run attempted (jobs simulated, requests sent).
    pub attempted: u64,
    /// Operations that failed (unfinished jobs, refused or errored
    /// requests).
    pub failed: u64,
    /// Correctness-gate failures, one line each.
    pub errors: Vec<String>,
    /// Measured values.
    pub metrics: Metrics,
}

impl Outcome {
    /// Check that a sample of `n` timings is large enough for its p99
    /// to have ten samples beyond it (skipped on smoke-sized runs).
    pub fn check_tail(&mut self, what: &str, n: usize, smoke: bool) {
        let p = stats::tail_percentile(n);
        self.check(smoke || p.is_some_and(|p| p >= 99.0), || {
            format!("{what}: {n} samples are too few for a p99 (tail rule gives {p:?})")
        });
    }

    /// Record a correctness-gate check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Whether every check passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The result lines: one `name value unit` line per catalog metric,
    /// then the one-line JSON object. A catalog metric the workload did
    /// not set, or a value that is not finite, is a benchmark error.
    pub fn render(&mut self, trace: bool) -> String {
        let mut lines = String::new();
        let mut json = String::new();
        for d in catalog(trace) {
            let value = match self.metrics.get(d.name) {
                Some(v) if v.is_finite() => v,
                Some(v) => {
                    self.errors
                        .push(format!("metric {} is not finite: {v}", d.name));
                    0.0
                }
                None => {
                    self.errors
                        .push(format!("metric {} was not measured", d.name));
                    0.0
                }
            };
            let _ = writeln!(lines, "{:<28} {value:>16} {}", d.name, d.unit);
            if !json.is_empty() {
                json.push(',');
            }
            let _ = write!(
                json,
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                d.name, d.unit
            );
        }
        for e in &self.errors {
            let _ = writeln!(lines, "CHECK FAILED: {e}");
        }
        let _ = writeln!(
            lines,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_prints_every_catalog_metric_then_json() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for d in END_TO_END {
            o.metrics.set(d.name, 1.5);
        }
        let text = o.render(false);
        let last = text.lines().last().expect("a JSON line");
        let v: serde_json::Value = serde_json::from_str(last).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&serde_json::Value::Bool(true)));
        let metrics = v.get("metrics").expect("metrics");
        for d in END_TO_END {
            let m = metrics.get(d.name).expect("every metric");
            assert_eq!(m.get("unit"), Some(&serde_json::Value::Str(d.unit.into())));
        }
    }

    #[test]
    fn a_missing_metric_fails_the_run() {
        let mut o = Outcome::default();
        let text = o.render(false);
        assert!(!o.correct());
        assert!(text.contains("\"correct\":false"));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
