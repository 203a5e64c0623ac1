//! `--smoke`: all four workloads at tiny sizes through the same code as
//! a measured run. Every run must pass its correctness gate and print
//! exactly the metrics `BENCHMARK.json` lists, with their units.

use serde_json::Value;
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["philly-t4", "burst-512", "hostile-t2", "serve-open"];

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to benchmark/");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(json: &Value, section: &str) -> Vec<(String, String)> {
    let Some(Value::Array(items)) = json.get(section) else {
        panic!("BENCHMARK.json has no {section}");
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
            other => panic!("malformed metric {other:?}"),
        })
        .collect()
}

fn run_smoke(workload: &str, trace: &str) -> Value {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let out = Command::new(env!("CARGO_BIN_EXE_muri-benchmark"))
        .args([
            "--workload",
            workload,
            "--smoke",
            "--trace",
            trace,
            "--seed",
            "3",
        ])
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

fn check(result: &Value, expected: &[(String, String)], what: &str) {
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{what}");
    assert!(
        matches!(result.get("attempted"), Some(Value::UInt(n)) if *n >= 1),
        "{what}"
    );
    assert_eq!(result.get("failed"), Some(&Value::UInt(0)), "{what}");
    let Some(Value::Map(metrics)) = result.get("metrics") else {
        panic!("{what}: no metrics object");
    };
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| match m.get("unit") {
            Some(Value::Str(u)) => (name.clone(), u.clone()),
            other => panic!("{what}: {name} has unit {other:?}"),
        })
        .collect();
    assert_eq!(got, expected, "{what}: metric names and units");
    for (name, m) in metrics {
        assert!(
            matches!(
                m.get("value"),
                Some(Value::Float(_) | Value::UInt(_) | Value::Int(_))
            ),
            "{what}: {name} has no numeric value"
        );
    }
}

#[test]
fn every_workload_prints_every_listed_metric() {
    let json = benchmark_json();
    let end_to_end = listed(&json, "end_to_end");
    let per_layer = listed(&json, "per_layer");
    let Some(Value::Array(workloads)) = json.get("workloads") else {
        panic!("BENCHMARK.json has no workloads");
    };
    let names: Vec<&Value> = workloads.iter().filter_map(|w| w.get("name")).collect();
    assert_eq!(names.len(), WORKLOADS.len());
    for w in WORKLOADS {
        assert!(names.contains(&&Value::Str(w.into())), "{w} is not listed");
        check(&run_smoke(w, "0"), &end_to_end, &format!("{w} end to end"));
        check(&run_smoke(w, "1"), &per_layer, &format!("{w} traced"));
    }
}
