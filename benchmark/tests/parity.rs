//! Build parity: the benchmark measures the code users build. Its
//! release build keeps the repository's overflow checks, and no
//! repository crate is built with a feature (such as `audit`) that a
//! user's build would not have.

use serde_json::Value;
use std::path::Path;
use std::process::Command;

fn cargo() -> Command {
    let mut cmd = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()));
    cmd.arg("--offline").current_dir(env!("CARGO_MANIFEST_DIR"));
    cmd
}

#[test]
fn release_build_keeps_overflow_checks() {
    // A separate target directory: the one running this test is locked.
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("parity");
    let out = cargo()
        .args(["build", "--release", "--quiet", "--message-format=json"])
        .arg("--target-dir")
        .arg(&target)
        .output()
        .expect("cargo build --release");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let exe = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| serde_json::from_str::<Value>(l).ok())
        .find_map(|v| match v.get("executable") {
            Some(Value::Str(path)) => Some(path.clone()),
            _ => None,
        })
        .expect("cargo reports the benchmark executable");
    let info = Command::new(exe)
        .arg("build-info")
        .output()
        .expect("run build-info");
    let text = String::from_utf8_lossy(&info.stdout);
    assert!(
        text.contains("overflow_checks true"),
        "`black_box(255u8) + 1` must panic in the release build: {text}"
    );
}

#[test]
fn no_repository_crate_has_extra_features() {
    let out = cargo()
        .args(["metadata", "--format-version", "1"])
        .output()
        .expect("cargo metadata");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let meta: Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("metadata JSON");
    let Some(Value::Array(nodes)) = meta.get("resolve").and_then(|r| r.get("nodes")) else {
        panic!("no resolve graph");
    };
    let mut checked = 0;
    for node in nodes {
        let Some(Value::Str(id)) = node.get("id") else {
            continue;
        };
        if !id.contains("muri-") || id.contains("muri-benchmark") {
            continue;
        }
        checked += 1;
        assert_eq!(
            node.get("features"),
            Some(&Value::Array(Vec::new())),
            "{id} is built with features"
        );
    }
    assert!(checked >= 7, "only {checked} repository crates resolved");
}
