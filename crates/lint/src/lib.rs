//! # muri-lint
//!
//! A workspace-specific static analysis pass enforcing the determinism
//! and audit-coverage contracts everything in this reproduction rests
//! on: bit-identical plans on every rerun, byte-identical SimReports
//! under seeded faults, replayable journals. Those contracts are
//! otherwise enforced only dynamically — by tests that happen to
//! exercise the right paths — and a single stray `HashMap` iteration or
//! wall-clock read in a planning path breaks replay silently. `muri-lint`
//! catches that class of bug at CI time, before any seed runs.
//!
//! The analyzer is deliberately dependency-free: a hand-rolled lexer
//! ([`lexer`]) and token-sequence matching ([`rules`]) over
//! `crates/*/src/**.rs`, consistent with the vendored-only policy (no
//! `syn`). Each rule documents its lexical heuristic; escape hatches are
//! inline suppressions —
//!
//! ```text
//! // muri-lint: allow(D001, reason = "read-modify-write, order unobserved")
//! ```
//!
//! — and a suppression without a reason is itself a violation (S001).
//!
//! Run it as `muri lint [--json]` (exit 0 clean, 3 on violations — the
//! CLI-wide convention) or programmatically via [`scan_workspace`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;

pub use report::LintReport;
pub use rules::{CrateClass, FileContext, FileResult, RuleId, Violation};
pub use source::{ScannedFile, Suppression};

use std::fs;
use std::path::{Path, PathBuf};

/// Crates whose output must be bit-identical across runs, worker counts,
/// and replays. D001/D002/A001 apply here; this is the set named in the
/// determinism contract (DESIGN.md) — the planning pipeline end to end.
pub const DETERMINISTIC_CRATES: [&str; 8] = [
    "muri-core",
    "muri-matching",
    "muri-interleave",
    "muri-sim",
    "muri-cluster",
    "muri-workload",
    "muri-engine",
    "muri-serve",
];

/// Crates that own the wall clock and measurement: exempt from D002.
pub const OBSERVABILITY_CRATES: [&str; 2] = ["muri-telemetry", "muri-bench"];

/// Individually sanctioned wall-clock sites inside deterministic crates,
/// with the reason each is allowed. D002 skips exactly these files;
/// everything else in the crate keeps the full discipline. Today this
/// is the daemon's single wall→scheduler time boundary: `WallClock`
/// maps host time onto `SimTime` to decide *when* queued events are
/// released, never *what* the scheduler decides — which is what keeps
/// the daemon's deterministic replay mode byte-equivalent to the
/// simulator.
pub const D002_SANCTIONED_CLOCK_FILES: [(&str, &str); 1] = [(
    "crates/serve/src/realtime.rs",
    "the daemon's one-way wall-clock -> SimTime boundary (event release \
     timing only; planning inputs stay deterministic)",
)];

/// Individually sanctioned filesystem-persistence sites inside
/// deterministic crates, with the reason each is allowed. D005 skips
/// exactly these files. Today this is the daemon's write-ahead journal:
/// every durable write and fsync in `muri-serve` lives in this one
/// module so the durability discipline — group-committed `sync_data`
/// per command burst, atomic temp+rename+dir-fsync compaction,
/// fail-stop on sync error — is reviewable in one place. A write or
/// fsync appearing anywhere else in a deterministic crate is a
/// durability hole the crash-recovery proof cannot see.
pub const D005_SANCTIONED_PERSISTENCE_FILES: [(&str, &str); 1] = [(
    "crates/serve/src/journal.rs",
    "the daemon's single write-ahead journal module: all durable writes \
     and fsyncs are group-committed and compacted here by design",
)];

/// Files on the scheduler decision path, where the scaled-integer
/// fixed-point convention is mandatory (D004). Floats are confined to
/// the conversion boundary (`weight_from_f64` in `muri-matching::graph`)
/// and to γ modeling — never to the code that compares and ranks.
pub const DECISION_PATH_FILES: [&str; 6] = [
    "crates/core/src/scheduler.rs",
    "crates/core/src/policy.rs",
    "crates/core/src/shard.rs",
    "crates/matching/src/blossom.rs",
    "crates/matching/src/greedy.rs",
    "crates/matching/src/sparse_graph.rs",
];

/// Which rules to run. Defaults to all of them; tests narrow this to
/// prove each fixture is attributable to exactly one rule.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Enabled rules, in check order.
    pub enabled: Vec<RuleId>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            enabled: RuleId::ALL.to_vec(),
        }
    }
}

impl LintConfig {
    /// A config with every rule except `disabled` — for rule-attribution
    /// tests.
    pub fn without(disabled: RuleId) -> Self {
        LintConfig {
            enabled: RuleId::ALL.into_iter().filter(|&r| r != disabled).collect(),
        }
    }

    /// A config with only `rule` enabled.
    pub fn only(rule: RuleId) -> Self {
        LintConfig {
            enabled: vec![rule],
        }
    }
}

/// Classify a crate by its Cargo package name.
pub fn classify_crate(name: &str) -> CrateClass {
    if DETERMINISTIC_CRATES.contains(&name) {
        CrateClass::Deterministic
    } else if OBSERVABILITY_CRATES.contains(&name) {
        CrateClass::Observability
    } else {
        CrateClass::Harness
    }
}

/// Scan a single source text under an explicit context — the unit the
/// fixture corpus drives.
pub fn scan_source(rel_path: &str, src: &str, ctx: &FileContext, cfg: &LintConfig) -> FileResult {
    let file = ScannedFile::new(rel_path, src);
    rules::check_file(&file, ctx, &cfg.enabled)
}

/// A scan failure (I/O or workspace-shape problems).
#[derive(Debug)]
pub struct LintError {
    /// What went wrong, with the path involved.
    pub message: String,
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for LintError {}

fn err(message: String) -> LintError {
    LintError { message }
}

/// Scan the whole workspace rooted at `root` (the directory holding the
/// workspace `Cargo.toml`): every `crates/*/src/**.rs` plus the facade
/// crate's `src/`. Files are visited in sorted path order so the report
/// is deterministic — the linter holds itself to the rules it enforces.
pub fn scan_workspace(root: &Path, cfg: &LintConfig) -> Result<LintReport, LintError> {
    let crates_dir = root.join("crates");
    let mut members: Vec<(String, PathBuf)> = Vec::new(); // (crate name, src dir)
    let entries = fs::read_dir(&crates_dir)
        .map_err(|e| err(format!("cannot read {}: {e}", crates_dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| err(format!("readdir {}: {e}", crates_dir.display())))?;
        let dir = entry.path();
        if !dir.is_dir() {
            continue;
        }
        let manifest = dir.join("Cargo.toml");
        if !manifest.is_file() {
            continue;
        }
        let name = package_name(&manifest)?;
        members.push((name, dir.join("src")));
    }
    // The facade crate at the workspace root.
    if root.join("src").is_dir() && root.join("Cargo.toml").is_file() {
        members.push(("muri".to_string(), root.join("src")));
    }
    members.sort();

    let mut report = LintReport::default();
    for (crate_name, src_dir) in members {
        if !src_dir.is_dir() {
            continue;
        }
        report.crates_scanned += 1;
        let class = classify_crate(&crate_name);
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files)?;
        files.sort();
        for path in files {
            let rel = rel_path(root, &path);
            let ctx = FileContext {
                crate_name: crate_name.clone(),
                class,
                decision_path: DECISION_PATH_FILES.contains(&rel.as_str()),
            };
            let src = fs::read_to_string(&path)
                .map_err(|e| err(format!("cannot read {}: {e}", path.display())))?;
            let result = scan_source(&rel, &src, &ctx, cfg);
            report.files_scanned += 1;
            report.suppressed += result.suppressed;
            report.violations.extend(result.violations);
        }
    }
    Ok(report)
}

/// Locate the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` contains a `[workspace]` section.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.lines().any(|l| l.trim() == "[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Recursively collect `.rs` files under `dir`.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let entries =
        fs::read_dir(dir).map_err(|e| err(format!("cannot read {}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| err(format!("readdir {}: {e}", dir.display())))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` relative to `root`, `/`-separated regardless of platform.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Extract `name = "…"` from the `[package]` section of a manifest.
fn package_name(manifest: &Path) -> Result<String, LintError> {
    let text = fs::read_to_string(manifest)
        .map_err(|e| err(format!("cannot read {}: {e}", manifest.display())))?;
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    let rest = rest.trim();
                    let name = rest.trim_matches('"');
                    if !name.is_empty() {
                        return Ok(name.to_string());
                    }
                }
            }
        }
    }
    Err(err(format!("no package name in {}", manifest.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_tables() {
        assert_eq!(classify_crate("muri-core"), CrateClass::Deterministic);
        assert_eq!(classify_crate("muri-engine"), CrateClass::Deterministic);
        assert_eq!(classify_crate("muri-serve"), CrateClass::Deterministic);
        assert_eq!(classify_crate("muri-telemetry"), CrateClass::Observability);
        assert_eq!(classify_crate("muri-cli"), CrateClass::Harness);
        assert_eq!(classify_crate("muri-lint"), CrateClass::Harness);
    }

    #[test]
    fn sanctioned_clock_files_carry_reasons() {
        for (path, reason) in D002_SANCTIONED_CLOCK_FILES {
            assert!(path.starts_with("crates/"), "sanction path {path:?}");
            assert!(
                !reason.trim().is_empty(),
                "sanction for {path} needs a reason"
            );
        }
    }

    #[test]
    fn sanctioned_persistence_files_carry_reasons() {
        for (path, reason) in D005_SANCTIONED_PERSISTENCE_FILES {
            assert!(path.starts_with("crates/"), "sanction path {path:?}");
            assert!(
                !reason.trim().is_empty(),
                "sanction for {path} needs a reason"
            );
        }
        // The journal module is the only persistence hole, and it stays
        // inside the daemon crate.
        assert_eq!(
            D005_SANCTIONED_PERSISTENCE_FILES[0].0,
            "crates/serve/src/journal.rs"
        );
    }

    #[test]
    fn config_without_and_only() {
        assert!(!LintConfig::without(RuleId::D001)
            .enabled
            .contains(&RuleId::D001));
        assert_eq!(LintConfig::only(RuleId::C001).enabled, vec![RuleId::C001]);
        assert_eq!(LintConfig::default().enabled.len(), RuleId::ALL.len());
    }
}
