//! The append-only run history and `compare`.
//!
//! `--append FILE` adds one JSON line per run and never rewrites the
//! file: `{commit, nproc, workload, seed, seconds, trace, correct,
//! metrics: {name: {value, unit}}}`. `compare A B` summarizes the
//! end-to-end runs of two commits per workload and applies the bounds of
//! `BENCHMARK.json`.

use crate::report::Outcome;
use crate::stats::Summary;
use crate::RunOpts;
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

/// The commit being measured: `MURI_BENCH_COMMIT`, else `git rev-parse
/// HEAD` in the current directory, else `unknown`.
fn commit() -> String {
    if let Ok(c) = std::env::var("MURI_BENCH_COMMIT") {
        return c;
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).unwrap_or_else(|_| "\"\"".to_string())
}

/// One history line for this run.
pub fn entry(opts: &RunOpts, outcome: &Outcome, commit: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut metrics = String::new();
    for d in crate::report::catalog(opts.trace) {
        let Some(v) = outcome.metrics.get(d.name).filter(|v| v.is_finite()) else {
            continue;
        };
        if !metrics.is_empty() {
            metrics.push(',');
        }
        let _ = write!(
            metrics,
            "\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}",
            d.name, d.unit
        );
    }
    format!(
        "{{\"commit\":{},\"nproc\":{nproc},\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"correct\":{},\"metrics\":{{{metrics}}}}}",
        json_str(commit),
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        opts.trace,
        outcome.correct(),
    )
}

/// Append this run to the history file at `path`.
pub fn append(path: &Path, opts: &RunOpts, outcome: &Outcome) -> std::io::Result<()> {
    let line = entry(opts, outcome, &commit());
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")?;
    f.sync_all()
}

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `true` when lower is better.
    pub lower_better: bool,
    /// Share of the base median the metric may worsen by.
    pub bound: f64,
}

/// The end-to-end bounds listed in a `BENCHMARK.json` text.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let Some(Value::Array(items)) = v.get("end_to_end") else {
        return Err("no end_to_end list".into());
    };
    items
        .iter()
        .map(|m| {
            let name = match m.get("name") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err("an end_to_end metric has no name".to_string()),
            };
            let lower_better = matches!(m.get("better"), Some(Value::Str(s)) if s == "lower");
            let bound = number(m.get("bound")).ok_or_else(|| format!("{name}: no bound"))?;
            Ok(Bound {
                name,
                lower_better,
                bound,
            })
        })
        .collect()
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Float(f) => Some(*f),
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// End-to-end values of the correct runs of commits starting with
/// `commit`: workload → metric → values.
pub fn select(text: &str, commit: &str) -> BTreeMap<String, BTreeMap<String, Vec<f64>>> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let Ok(v) = serde_json::from_str::<Value>(line) else {
            continue;
        };
        let is = |key: &str, want: &Value| v.get(key) == Some(want);
        let matches_commit =
            matches!(v.get("commit"), Some(Value::Str(c)) if c.starts_with(commit));
        if !matches_commit
            || !is("trace", &Value::Bool(false))
            || !is("correct", &Value::Bool(true))
        {
            continue;
        }
        let (Some(Value::Str(w)), Some(Value::Map(metrics))) =
            (v.get("workload"), v.get("metrics"))
        else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(x) = number(m.get("value")) {
                out.entry(w.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(x);
            }
        }
    }
    out
}

/// Verdict on one metric of one workload, change `b` against base `a`.
pub fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> (&'static str, f64) {
    let (Some(sa), Some(sb)) = (Summary::of(a), Summary::of(b)) else {
        return ("missing", 0.0);
    };
    // Positive `worse` means the change is worse than the base.
    let sign = if bound.lower_better { 1.0 } else { -1.0 };
    let worse = if sa.median == 0.0 {
        0.0
    } else {
        sign * (sb.median - sa.median) / sa.median.abs()
    };
    let better_all = if bound.lower_better {
        sb.max < sa.min
    } else {
        sb.min > sa.max
    };
    let verdict = if better_all {
        "better"
    } else if sa.spread() > bound.bound || sb.spread() > bound.bound {
        "unresolved"
    } else if worse > bound.bound {
        "REGRESSION"
    } else if -worse > sa.spread() {
        "better"
    } else {
        "same"
    };
    (verdict, worse)
}

/// `compare A B [--history FILE]`, run from the repository root (the
/// bounds come from `BENCHMARK.json` there).
pub fn compare_main(args: &[String]) -> ExitCode {
    let (history, commits) = match args {
        [a, b] => ("benchmark/history.jsonl", [a, b]),
        [a, b, flag, file] if flag == "--history" => (file.as_str(), [a, b]),
        _ => {
            eprintln!("usage: muri-benchmark compare A B [--history FILE]");
            return ExitCode::from(2);
        }
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
    let loaded = read(history).and_then(|t| Ok((t, parse_bounds(&read("BENCHMARK.json")?)?)));
    let (text, bounds) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let (a, b) = (select(&text, commits[0]), select(&text, commits[1]));
    let mut regressions = 0;
    println!(
        "{:<12} {:<16} {:>12} {:>12} {:>8} {:>7} {:>7} {:>7} {:>7}  verdict",
        "workload", "metric", "base", "change", "worse", "spreadA", "spreadB", "madA", "madB"
    );
    for (workload, metrics_a) in &a {
        let Some(metrics_b) = b.get(workload) else {
            continue;
        };
        for bound in &bounds {
            let (Some(va), Some(vb)) = (metrics_a.get(&bound.name), metrics_b.get(&bound.name))
            else {
                continue;
            };
            let (Some(sa), Some(sb)) = (Summary::of(va), Summary::of(vb)) else {
                continue;
            };
            let (v, worse) = verdict(va, vb, bound);
            regressions += usize::from(v == "REGRESSION");
            println!(
                "{workload:<12} {:<16} {:>12.5} {:>12.5} {:>+7.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%  {v} (n={}/{}, bound {:.0}%)",
                bound.name,
                sa.median,
                sb.median,
                worse * 100.0,
                sa.spread() * 100.0,
                sb.spread() * 100.0,
                sa.mad / sa.median * 100.0,
                sb.mad / sb.median * 100.0,
                sa.n,
                sb.n,
                bound.bound * 100.0
            );
        }
    }
    if regressions > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUNDS: &str = r#"{"end_to_end": [
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "jobs_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}]}"#;

    #[test]
    fn bounds_parse_from_benchmark_json() {
        let b = parse_bounds(BOUNDS).expect("valid");
        assert_eq!(b.len(), 2);
        assert!(b[0].lower_better && !b[1].lower_better);
        assert_eq!(b[1].bound, 0.2);
    }

    #[test]
    fn verdicts_apply_bounds_and_spread() {
        let b = parse_bounds(BOUNDS).expect("valid");
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(
            verdict(&base, &[10.0, 10.1, 9.95, 10.02, 10.0], &b[0]).0,
            "same"
        );
        assert_eq!(
            verdict(&base, &[12.0, 12.1, 11.9, 12.0, 12.2], &b[0]).0,
            "REGRESSION"
        );
        assert_eq!(
            verdict(&base, &[8.0, 8.1, 7.9, 8.0, 8.2], &b[0]).0,
            "better"
        );
        let noisy = [5.0, 15.0, 10.0, 7.0, 13.0];
        assert_eq!(
            verdict(&noisy, &[10.0, 11.0, 9.0, 10.0, 10.0], &b[0]).0,
            "unresolved"
        );
        // Higher is better for throughput.
        assert_eq!(
            verdict(&base, &[7.0, 7.1, 6.9, 7.0, 7.0], &b[1]).0,
            "REGRESSION"
        );
    }

    #[test]
    fn select_keeps_correct_end_to_end_runs_of_one_commit() {
        let text = [
            r#"{"commit":"abc123","workload":"philly-t4","trace":false,"correct":true,"metrics":{"jobs_per_s":{"value":1000.5,"unit":"1/s"}}}"#,
            r#"{"commit":"abc123","workload":"philly-t4","trace":true,"correct":true,"metrics":{"core.passes":{"value":3,"unit":"count"}}}"#,
            r#"{"commit":"abc123","workload":"philly-t4","trace":false,"correct":false,"metrics":{"jobs_per_s":{"value":1.0,"unit":"1/s"}}}"#,
            r#"{"commit":"def456","workload":"philly-t4","trace":false,"correct":true,"metrics":{"jobs_per_s":{"value":900,"unit":"1/s"}}}"#,
        ]
        .join("\n");
        let a = select(&text, "abc");
        assert_eq!(a["philly-t4"]["jobs_per_s"], vec![1000.5]);
        assert!(!a["philly-t4"].contains_key("core.passes"));
        assert_eq!(select(&text, "def")["philly-t4"]["jobs_per_s"], vec![900.0]);
    }

    #[test]
    fn entries_are_one_json_line() {
        let opts = crate::RunOpts {
            workload: crate::Workload::ServeOpen,
            seed: 3,
            seconds: 5.0,
            trace: false,
            smoke: true,
            out_dir: "x".into(),
            append: None,
        };
        let mut o = Outcome::default();
        o.metrics.set("setup_s", 0.25);
        let line = entry(&opts, &o, "c0ffee");
        assert!(!line.contains('\n'));
        let v: Value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(v.get("commit"), Some(&Value::Str("c0ffee".into())));
        assert_eq!(select(&line, "c0f")["serve-open"]["setup_s"], vec![0.25]);
    }
}
