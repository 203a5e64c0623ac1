//! `muri` — command-line interface for the Muri reproduction.
//!
//! ```text
//! muri list                       # list experiment ids
//! muri exp <id> [--scale S] [--out DIR]
//! muri all [--scale S] [--out DIR]
//! muri trace <1-4> [--scale S]    # dump a synthetic trace as CSV
//! muri sim <policy> [--trace 1-4 | --csv FILE] [--scale S] [--machines N]
//!                   [--journal FILE] [--metrics FILE] [--chrome-trace FILE]
//!                   [--prune-top-m M] [--prune-loss-bound F]
//!                   [--shard-by auto|off|force] [--shard-size N] [--candidate-m M]
//!                   [fault flags: --mtbf S --fault-seed N --machine-mtbf S
//!                    --machine-mttr S --transient-fraction F --degraded N
//!                    --degraded-slowdown F --checkpoint-interval S
//!                    --checkpoint-cost S]
//! muri verify [<policy>] [--trace 1-4 | --csv FILE] [--scale S] [--machines N]
//!                        [--prune-top-m M] [--prune-loss-bound F]
//!                        [--shard-by auto|off|force] [--shard-size N] [--candidate-m M]
//!                        [fault flags as for `muri sim`]
//! muri telemetry-check [--journal FILE] [--metrics FILE] [--chrome-trace FILE]
//! muri validate                   # Eq. 3 vs timeline-executor fidelity
//! ```
//!
//! Experiments print the paper's tables to stdout; `--out` additionally
//! writes each table as CSV and the full report as JSON. `muri sim` (or
//! its alias `muri simulate`) runs one scheduler over a trace (synthetic
//! or CSV) and prints the metrics; the telemetry flags additionally
//! export the run's event journal (JSONL), metrics registry (Prometheus
//! text), and interleaving timeline (Chrome `trace_event` JSON — open in
//! Perfetto or `chrome://tracing`). `muri verify` replays a workload
//! with the `muri-verify` invariant auditor attached to every scheduling
//! pass and reports violations. `muri telemetry-check` validates
//! previously exported telemetry artifacts (parse, schema, monotonic
//! trace timestamps, journal lifecycle conservation).
//!
//! Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 invariant
//! violations found by `muri verify` / `muri telemetry-check`.

use muri_core::{PolicyKind, SchedulerConfig};
use muri_experiments::{run_experiment, Scale, ALL_EXPERIMENTS};
use muri_sim::{simulate, simulate_audited, simulate_with_telemetry, JobPhase, SimConfig};
use muri_telemetry::{Telemetry, TelemetrySink};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// A CLI failure with its exit code.
enum CliError {
    /// The invocation itself was malformed (exit 2, prints usage).
    Usage(String),
    /// The invocation was fine but the work failed (exit 1).
    Runtime(String),
    /// `muri verify` found invariant violations (exit 3).
    Violations(usize),
    /// `muri lint` found lint violations (exit 3). The report has
    /// already been printed; this only carries the exit code.
    LintViolations(usize),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> Self {
        CliError::Usage(msg.into())
    }

    fn runtime(msg: impl Into<String>) -> Self {
        CliError::Runtime(msg.into())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
        Err(CliError::Violations(count)) => {
            eprintln!("verification failed: {count} invariant violation(s)");
            ExitCode::from(3)
        }
        Err(CliError::LintViolations(count)) => {
            eprintln!("lint failed: {count} violation(s)");
            ExitCode::from(3)
        }
    }
}

const USAGE: &str = "usage:
  muri list
  muri exp <id> [--scale S] [--out DIR]
  muri all [--scale S] [--out DIR]
  muri trace <1-4> [--scale S]
  muri trace-stats <1-4> [--scale S]
  muri models
  muri show-group <model> [<model> ...]
  muri sim <policy> [--trace 1-4 | --csv FILE] [--scale S] [--machines N]
                    [--journal FILE] [--metrics FILE] [--chrome-trace FILE]
                    [--prune-top-m M] [--prune-loss-bound F]
                    [--shard-by auto|off|force] [--shard-size N] [--candidate-m M]
                    [--mtbf S] [--fault-seed N]
                    [--machine-mtbf S] [--machine-mttr S]
                    [--transient-fraction F] [--degraded N]
                    [--degraded-slowdown F]
                    [--checkpoint-interval S] [--checkpoint-cost S]
                    [--spot-machines N] [--spot-mtbe S]
                    [--spot-warning S] [--spot-downtime S]
                    [--gpu-generations N] [--generation-gap F]
                    [--elastic-fraction F] [--elastic-interval S]
                    [--slo-fraction F] [--slo-slack F]
  muri verify [<policy>] [--trace 1-4 | --csv FILE] [--scale S] [--machines N]
                         [--prune-top-m M] [--prune-loss-bound F]
                         [--shard-by auto|off|force] [--shard-size N] [--candidate-m M]
                         [fault flags as for `muri sim`]
  muri telemetry-check [--journal FILE] [--metrics FILE] [--chrome-trace FILE]
  muri lint [--json] [--root DIR]
  muri serve [--port P] [--machines N] [--policy NAME] [--workers N]
             [--tenants \"a=8,b\"] [--time-scale F]
             [--journal FILE] [--state DIR] [--recover]
             [--max-open N] [--tenant-depth N] [--retry-after-ms MS]
             [--cmd-queue N] [--read-timeout-ms MS] [--snapshot-every N]
  muri serve-load --addr HOST:PORT [--jobs N] [--gpus G] [--iters I]
                  [--model NAME] [--tenant NAME] [--journal FILE]
                  [--shutdown] [--no-wait] [--retries N]
  muri validate

policies: fifo sjf srtf srsf las 2dlas tiresias gittins themis antman muri-s muri-l

`muri lint` runs the muri-lint determinism & audit-coverage scanner over
the workspace sources (rules D001-D005, C001, A001, S001; suppress a
finding with `// muri-lint: allow(RULE, reason = \"...\")`). --json emits a
machine-readable report; a finding exits 3.

`muri serve` boots the always-on scheduler daemon (JSON over HTTP/1.1;
endpoints POST /v1/jobs, GET /v1/jobs/ID, POST /v1/jobs/ID/cancel,
POST /v1/config, GET /v1/cluster, GET /v1/healthz, GET /metrics,
GET /v1/journal, POST /v1/shutdown). --port 0 picks an ephemeral port
(the bound address is printed on startup); --tenants enables
closed-mode multi-tenancy with optional per-tenant GPU quotas
(\"alice=8,bob\" caps alice at 8 GPUs and leaves bob unlimited);
--time-scale F runs F scheduler-seconds per wall-second; --journal
flushes the telemetry journal to FILE on graceful shutdown. --state DIR
makes the daemon durable: every submit/cancel/config is fsync'd to an
op log in DIR (compacted into snapshots every --snapshot-every ops)
before it is acknowledged, and --recover replays that journal back to
the exact pre-crash state on boot (the replay is audited with
muri-verify first; a divergent journal refuses to boot, exit 3).
--max-open and --tenant-depth bound the open-job queue globally and per
tenant; saturated submits are refused with 503/429 + a Retry-After of
--retry-after-ms. --cmd-queue bounds the worker->scheduler channel and
--read-timeout-ms bounds slow clients (413 for oversized bodies, 408
for stalled reads).
`muri serve-load` drives a running daemon: submits --jobs identical
jobs, polls them to completion (--no-wait skips the polling, for
crash-recovery smokes), prints a one-line JSON summary, and optionally
fetches the journal (--journal) and stops the daemon (--shutdown).
Backpressured submits (429/503) are retried up to --retries times with
capped exponential backoff, honoring the daemon's retry_after_ms hint;
a submit counts as refused only once its retries are exhausted.

`muri simulate` is an alias for `muri sim`. The telemetry flags export
the run's event journal (JSONL), Prometheus metrics, and a Chrome
trace_event timeline (open in Perfetto / chrome://tracing). The prune
flags tune the Blossom sparsifier: keep each node's top-M heaviest γ
edges (0 disables pruning) with a certified matching-weight loss of at
most fraction F before the dense fallback fires. The shard flags tune
the sharded cold-start planner: --shard-by auto (default) engages it on
large job pools, off always runs the dense round, force shards every
pool; --shard-size sets nodes per shard and --candidate-m the
locality-sensitive candidate partners per profile class (0 = defaults).
The fault flags inject
per-job faults (--mtbf, mean seconds between faults per running job) and
machine-level fault domains (--machine-mtbf/--machine-mttr, with
--transient-fraction of faults leaving the machine up), mark --degraded N
machines slower by --degraded-slowdown, and enable periodic
checkpointing (--checkpoint-interval/--checkpoint-cost) so machine
faults roll jobs back to the last checkpoint instead of losing all
uncheckpointed work. The hostile-cluster scenarios layer on top:
--spot-machines N marks N machines preemptible with mean --spot-mtbe
seconds between evictions, an advance warning of --spot-warning seconds
(0 = no warning; hosted jobs drain to a checkpoint when the warning
window covers the checkpoint cost) and --spot-downtime seconds before
the capacity returns; --gpu-generations splits the cluster into GPU
generations, each --generation-gap slower than the last (placement
keeps groups inside one generation); --elastic-fraction of jobs resize
their GPU count at iteration boundaries every ~--elastic-interval
seconds; --slo-fraction of jobs carry a deadline of submit +
--slo-slack x solo duration whose priority escalates as slack burns.

exit codes: 0 ok, 1 runtime failure, 2 usage error, 3 violations found";

struct Options {
    scale: Scale,
    out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, CliError> {
    let mut scale = Scale::default();
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::usage("--scale needs a value"))?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| CliError::usage(format!("bad scale {v:?}")))?;
                if !(s > 0.0 && s <= 10.0) {
                    return Err(CliError::usage(format!("scale {s} out of range (0, 10]")));
                }
                scale = Scale(s);
            }
            "--out" => {
                out = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| CliError::usage("--out needs a directory"))?,
                ));
            }
            other => return Err(CliError::usage(format!("unknown option {other:?}"))),
        }
    }
    Ok(Options { scale, out })
}

fn run(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("list") => {
            for id in ALL_EXPERIMENTS {
                println!("{id}");
            }
            Ok(())
        }
        Some("exp") => {
            let id = args
                .get(1)
                .ok_or_else(|| CliError::usage("exp needs an experiment id"))?;
            let opts = parse_options(&args[2..])?;
            run_one(id, &opts)
        }
        Some("all") => {
            let opts = parse_options(&args[1..])?;
            for id in ALL_EXPERIMENTS {
                run_one(id, &opts)?;
            }
            Ok(())
        }
        Some("trace") => {
            let idx = parse_trace_index(args.get(1), "trace")?;
            let opts = parse_options(&args[2..])?;
            let trace = muri_workload::philly_like_trace(idx, opts.scale.0);
            print!("{}", trace.to_csv());
            Ok(())
        }
        Some("models") => {
            println!(
                "{:<12} {:<5} {:<10} {:>6} {:>10} {:>12} {:>14}",
                "model", "type", "dataset", "batch", "bottleneck", "iter@16gpu", "tput@16 (s/s)"
            );
            for m in muri_workload::ModelKind::ALL {
                let p = m.profile(16);
                println!(
                    "{:<12} {:<5} {:<10} {:>6} {:>10} {:>12} {:>14.0}",
                    m.name(),
                    format!("{:?}", m.task()),
                    m.dataset(),
                    m.batch_size(),
                    m.declared_bottleneck().to_string(),
                    p.iteration_time().to_string(),
                    m.solo_throughput(16)
                );
            }
            Ok(())
        }
        Some("show-group") => {
            // muri show-group <model> <model> [...]: form a group of the
            // named models (16-GPU profiles) and render its schedule.
            let names = &args[1..];
            if names.is_empty() || names.len() > 4 {
                return Err(CliError::usage(
                    "show-group needs 1-4 model names (see `muri models`)",
                ));
            }
            let mut members = Vec::new();
            for (i, name) in names.iter().enumerate() {
                let model = muri_workload::ModelKind::ALL
                    .into_iter()
                    .find(|m| m.name().eq_ignore_ascii_case(name))
                    .ok_or_else(|| {
                        CliError::usage(format!("unknown model {name:?} (see `muri models`)"))
                    })?;
                members.push(muri_interleave::GroupMember {
                    job: muri_workload::JobId(i as u32),
                    profile: model.profile(16),
                });
            }
            let group = muri_interleave::InterleaveGroup::form(
                members,
                muri_interleave::OrderingPolicy::Best,
            );
            for (i, name) in names.iter().enumerate() {
                println!(
                    "{} = {:<12} norm tput {:.2}",
                    (b'A' + i as u8) as char,
                    name,
                    group.normalized_throughput(i)
                );
            }
            println!(
                "aggregate {:.2}x, efficiency {:.2}\n",
                group.total_normalized_throughput(),
                group.efficiency
            );
            print!("{}", muri_interleave::render_schedule(&group, 2, 36));
            Ok(())
        }
        Some("trace-stats") => {
            let idx = parse_trace_index(args.get(1), "trace-stats")?;
            let opts = parse_options(&args[2..])?;
            let trace = muri_workload::philly_like_trace(idx, opts.scale.0);
            let stats = muri_workload::analyze(&trace)
                .ok_or_else(|| CliError::runtime("trace is empty"))?;
            println!("trace-{idx} (scale {}):", opts.scale.0);
            print!("{}", stats.render());
            Ok(())
        }
        Some("sim" | "simulate") => {
            let policy_name = args
                .get(1)
                .ok_or_else(|| CliError::usage("sim needs a policy name"))?;
            let policy = parse_policy(policy_name)?;
            run_sim(policy, &args[2..])
        }
        Some("lint") => run_lint(&args[1..]),
        Some("serve") => run_serve(&args[1..]),
        Some("serve-load") => run_serve_load(&args[1..]),
        Some("telemetry-check") => run_telemetry_check(&args[1..]),
        Some("verify") => run_verify(&args[1..]),
        Some("validate") => run_validate(),
        Some(other) => Err(CliError::usage(format!("unknown command {other:?}"))),
        None => Err(CliError::usage("no command given")),
    }
}

/// `muri lint [--json] [--root DIR]` — run the workspace determinism &
/// audit-coverage scanner. Human output goes to stdout; `--json` emits
/// the machine-readable report instead. Any surviving violation exits 3.
fn run_lint(args: &[String]) -> Result<(), CliError> {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => {
                root =
                    Some(PathBuf::from(it.next().ok_or_else(|| {
                        CliError::usage("--root needs a directory")
                    })?));
            }
            other => return Err(CliError::usage(format!("unknown option {other:?}"))),
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir()
                .map_err(|e| CliError::runtime(format!("cannot read the current dir: {e}")))?;
            muri_lint::find_workspace_root(&cwd).ok_or_else(|| {
                CliError::runtime(
                    "no [workspace] Cargo.toml above the current directory (pass --root DIR)",
                )
            })?
        }
    };
    let report = muri_lint::scan_workspace(&root, &muri_lint::LintConfig::default())
        .map_err(|e| CliError::runtime(format!("lint scan failed: {e}")))?;
    if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(CliError::LintViolations(report.violations.len()))
    }
}

/// Parse a `--tenants "alice=8,bob"` spec: comma-separated tenant names,
/// each optionally `=N` for a GPU quota (no `=` means unlimited).
fn parse_tenants(spec: &str) -> Result<Vec<muri_serve::TenantConfig>, CliError> {
    let mut tenants = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, quota) = match part.split_once('=') {
            Some((name, q)) => {
                let quota: u32 = q
                    .parse()
                    .map_err(|_| CliError::usage(format!("bad tenant quota {q:?} in {part:?}")))?;
                (name, Some(quota))
            }
            None => (part, None),
        };
        tenants.push(muri_serve::TenantConfig {
            name: name.to_string(),
            quota_gpus: quota,
        });
    }
    if tenants.is_empty() {
        return Err(CliError::usage("--tenants needs at least one tenant name"));
    }
    Ok(tenants)
}

/// `muri serve [--port P] [--machines N] [--policy NAME] [--workers N]
///             [--tenants "a=8,b"] [--time-scale F]
///             [--journal FILE] [--state DIR] [--recover]
///             [--max-open N] [--tenant-depth N] [--retry-after-ms MS]
///             [--cmd-queue N] [--read-timeout-ms MS]
///             [--snapshot-every N]`
///
/// Boot the always-on scheduler daemon. Blocks until a client POSTs
/// `/v1/shutdown`, then drains, checkpoints running groups, flushes the
/// journal, and exits 0. With `--state` every mutating op is journaled
/// before it is acknowledged; with `--recover` the journal is replayed
/// (and audited) on boot.
fn run_serve(args: &[String]) -> Result<(), CliError> {
    let mut port = 0u16;
    let mut machines = 8u32;
    let mut policy = PolicyKind::MuriL;
    let mut workers = 4usize;
    let mut tenants = Vec::new();
    let mut time_scale = 1.0f64;
    let mut journal: Option<String> = None;
    let mut state_dir: Option<String> = None;
    let mut recover = false;
    let mut limits = muri_serve::ServeLimits::default();
    let mut cmd_queue = 256usize;
    let mut read_timeout_ms = 5000u64;
    let mut snapshot_every = muri_serve::journal::DEFAULT_SNAPSHOT_EVERY;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| CliError::usage(format!("{arg} needs {what}")))
        };
        match arg.as_str() {
            "--port" => {
                port = value("a port")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --port value"))?;
            }
            "--machines" => {
                machines = value("a count")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --machines count"))?;
            }
            "--policy" => {
                policy = parse_policy(value("a policy name")?)?;
            }
            "--workers" => {
                workers = value("a count")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --workers count"))?;
                if workers == 0 {
                    return Err(CliError::usage("--workers must be >= 1"));
                }
            }
            "--tenants" => {
                tenants = parse_tenants(value("a tenant spec")?)?;
            }
            "--time-scale" => {
                let f: f64 = value("a factor")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --time-scale value"))?;
                if !(f.is_finite() && f > 0.0) {
                    return Err(CliError::usage("--time-scale must be > 0"));
                }
                time_scale = f;
            }
            "--journal" => {
                journal = Some(value("a file path")?.clone());
            }
            "--state" => {
                state_dir = Some(value("a directory")?.clone());
            }
            "--recover" => recover = true,
            "--max-open" => {
                limits.max_open_jobs = value("a count")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --max-open count"))?;
            }
            "--tenant-depth" => {
                limits.tenant_depth = value("a count")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --tenant-depth count"))?;
            }
            "--retry-after-ms" => {
                limits.retry_after_ms = value("milliseconds")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --retry-after-ms value"))?;
            }
            "--cmd-queue" => {
                cmd_queue = value("a depth")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --cmd-queue depth"))?;
                if cmd_queue == 0 {
                    return Err(CliError::usage("--cmd-queue must be >= 1"));
                }
            }
            "--read-timeout-ms" => {
                read_timeout_ms = value("milliseconds")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --read-timeout-ms value"))?;
            }
            "--snapshot-every" => {
                snapshot_every = value("an op count")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --snapshot-every count"))?;
                if snapshot_every == 0 {
                    return Err(CliError::usage("--snapshot-every must be >= 1"));
                }
            }
            other => return Err(CliError::usage(format!("unknown option {other:?}"))),
        }
    }
    if recover && state_dir.is_none() {
        return Err(CliError::usage("--recover needs --state DIR"));
    }
    let sim = SimConfig {
        cluster: muri_cluster::ClusterSpec::with_machines(machines),
        ..SimConfig::testbed(SchedulerConfig::preset(policy))
    };
    if recover {
        let dir = PathBuf::from(state_dir.as_deref().unwrap_or_default());
        audit_recovered_journal(&sim, &tenants, limits, &dir)?;
    }
    let mut cfg = muri_serve::ServerConfig::new(sim);
    cfg.addr = format!("127.0.0.1:{port}");
    cfg.workers = workers;
    cfg.tenants = tenants;
    cfg.time_scale = time_scale;
    cfg.journal_path = journal;
    cfg.limits = limits;
    cfg.cmd_queue_depth = cmd_queue;
    cfg.read_timeout_ms = read_timeout_ms;
    cfg.state_dir = state_dir;
    cfg.recover = recover;
    cfg.snapshot_every = snapshot_every;
    muri_serve::serve(cfg).map_err(|e| CliError::runtime(format!("serve: {e}")))
}

/// Dry-run a recovery from `dir` under the deterministic clock and
/// audit the replayed op log with `muri_verify::audit_recovery_replay`:
/// monotone sequencing, zero jobs lost, no id reissuable. A divergent
/// journal refuses the boot (exit 3) before the daemon ever binds.
fn audit_recovered_journal(
    sim: &SimConfig,
    tenants: &[muri_serve::TenantConfig],
    limits: muri_serve::ServeLimits,
    dir: &Path,
) -> Result<(), CliError> {
    use muri_serve::OpRecord;
    use muri_verify::{ReplayOp, ReplayOpKind, ReplayedState};
    let (snapshot, log) = muri_serve::journal::load_state(dir)
        .map_err(|e| CliError::runtime(format!("recovery state in {}: {e}", dir.display())))?;
    let boot = muri_serve::RecoverBoot {
        cfg: sim,
        name: "serve-recovery-audit".to_string(),
        tenants: tenants.to_vec(),
        plan_mode: muri_core::PlanMode::Full,
        limits,
        live_time_scale: None,
        sink: muri_telemetry::TelemetrySink::disabled(),
    };
    let (core, summary) = muri_serve::ServeCore::recover(boot, &snapshot, &log)
        .map_err(|e| CliError::runtime(format!("recovery replay: {e}")))?;
    let ops: Vec<ReplayOp> = core
        .history()
        .iter()
        .filter_map(|op| {
            let kind = match op {
                OpRecord::Submit { spec, .. } => ReplayOpKind::Submit { job: spec.id.0 },
                OpRecord::Cancel { job, shed, .. } => ReplayOpKind::Cancel {
                    job: *job,
                    shed: *shed,
                },
                OpRecord::Config { .. } => ReplayOpKind::Config,
                OpRecord::Checkpoint { .. } => ReplayOpKind::Checkpoint,
                OpRecord::Complete { job, .. } => ReplayOpKind::Complete { job: *job },
                OpRecord::Header { .. } => return None,
            };
            Some(ReplayOp {
                seq: op.seq().unwrap_or(0),
                time_us: op.time().map_or(0, muri_workload::SimTime::as_micros),
                kind,
            })
        })
        .collect();
    let mut state = ReplayedState {
        next_id: core.next_id(),
        ..ReplayedState::default()
    };
    for id in 0..core.next_id() {
        if let Some(view) = core.status(id) {
            match view.status.phase {
                JobPhase::Finished | JobPhase::Cancelled | JobPhase::Rejected => {
                    state.terminal.push(id);
                }
                JobPhase::Queued | JobPhase::Running => state.open.push(id),
            }
        }
    }
    let report = muri_verify::audit_recovery_replay(&ops, &state);
    if report.is_clean() {
        eprintln!(
            "recovery audit OK: {} ops ({} submits, {} cancels, {} sheds, \
             {} configs, {} completions) replay clean under {} checks",
            summary.ops,
            summary.submits,
            summary.cancels,
            summary.sheds,
            summary.configs,
            summary.completions,
            report.checks
        );
        Ok(())
    } else {
        eprint!("{}", report.render());
        Err(CliError::Violations(report.violations.len()))
    }
}

/// `muri serve-load --addr HOST:PORT [--jobs N] [--gpus G] [--iters I]
///                  [--model NAME] [--tenant NAME] [--journal FILE]
///                  [--shutdown] [--no-wait] [--retries N]`
///
/// Drive a running daemon over HTTP: submit a batch of identical jobs,
/// poll them to completion (unless `--no-wait` — the crash-recovery
/// smoke kills the daemon mid-load instead), and print a one-line JSON
/// summary. Backpressured submits (429/503) are retried up to
/// `--retries` times with capped exponential backoff, honoring the
/// daemon's `retry_after_ms` hint; only exhausted retries count as
/// refused.
fn run_serve_load(args: &[String]) -> Result<(), CliError> {
    let mut addr: Option<String> = None;
    let mut jobs = 8usize;
    let mut gpus = 1u32;
    let mut iters = 50u64;
    let mut model = "ResNet18".to_string();
    let mut tenant: Option<String> = None;
    let mut journal: Option<PathBuf> = None;
    let mut shutdown = false;
    let mut no_wait = false;
    let mut retries = 5usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| CliError::usage(format!("{arg} needs {what}")))
        };
        match arg.as_str() {
            "--addr" => addr = Some(value("host:port")?.clone()),
            "--jobs" => {
                jobs = value("a count")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --jobs count"))?;
            }
            "--gpus" => {
                gpus = value("a count")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --gpus count"))?;
            }
            "--iters" => {
                iters = value("a count")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --iters count"))?;
            }
            "--model" => model = value("a model name")?.clone(),
            "--tenant" => tenant = Some(value("a tenant name")?.clone()),
            "--journal" => journal = Some(PathBuf::from(value("a file path")?)),
            "--shutdown" => shutdown = true,
            "--no-wait" => no_wait = true,
            "--retries" => {
                retries = value("a count")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --retries count"))?;
            }
            other => return Err(CliError::usage(format!("unknown option {other:?}"))),
        }
    }
    let addr = addr.ok_or_else(|| CliError::usage("serve-load needs --addr HOST:PORT"))?;
    let mut client = muri_serve::HttpClient::connect(&addr)
        .map_err(|e| CliError::runtime(format!("connecting to {addr}: {e}")))?;
    let http_err = |what: &str, e: std::io::Error| CliError::runtime(format!("{what}: {e}"));

    let req = muri_serve::SubmitRequest {
        tenant,
        model,
        num_gpus: gpus,
        iterations: iters,
    };
    let body = serde_json::to_string(&req)
        .map_err(|e| CliError::runtime(format!("encoding request: {e}")))?;
    let mut accepted: Vec<u64> = Vec::new();
    let mut refused = 0usize;
    let mut retried = 0usize;
    for _ in 0..jobs {
        let mut attempt = 0usize;
        loop {
            let (st, resp) = client
                .post("/v1/jobs", &body)
                .map_err(|e| http_err("submit", e))?;
            let v: serde_json::Value = serde_json::from_str(&resp)
                .map_err(|e| CliError::runtime(format!("submit response: {e}")))?;
            if st == 200 {
                match v.get("job") {
                    Some(&serde_json::Value::UInt(id)) => accepted.push(id),
                    other => {
                        return Err(CliError::runtime(format!(
                            "submit accepted without a job id ({other:?}): {resp}"
                        )))
                    }
                }
                break;
            }
            // Backpressure (429 tenant depth / 503 daemon bound) is
            // transient by contract: honor the daemon's retry_after_ms
            // hint, falling back to capped exponential backoff. Only an
            // exhausted retry budget — or a permanent refusal (409) —
            // counts as refused.
            if (st == 429 || st == 503) && attempt < retries {
                let hint = match v.get("retry_after_ms") {
                    Some(&serde_json::Value::UInt(ms)) => Some(ms),
                    _ => None,
                };
                let backoff = 50u64 << attempt.min(6);
                let wait = hint.unwrap_or(backoff).min(2_000);
                std::thread::sleep(std::time::Duration::from_millis(wait));
                attempt += 1;
                retried += 1;
                continue;
            }
            refused += 1;
            break;
        }
    }

    // Poll every accepted job to a terminal phase (bounded: ~5 minutes).
    let terminal = ["finished", "cancelled", "rejected"];
    let mut finished = 0usize;
    let poll_ids: &[u64] = if no_wait { &[] } else { &accepted };
    for id in poll_ids {
        let mut done = false;
        for _ in 0..60_000 {
            let (st, resp) = client
                .get(&format!("/v1/jobs/{id}"))
                .map_err(|e| http_err("status", e))?;
            if st != 200 {
                return Err(CliError::runtime(format!("status for job {id}: {resp}")));
            }
            let v: serde_json::Value = serde_json::from_str(&resp)
                .map_err(|e| CliError::runtime(format!("status response: {e}")))?;
            let phase = match v.get("status").and_then(|s| s.get("phase")) {
                Some(serde_json::Value::Str(p)) => p.clone(),
                _ => String::new(),
            };
            if terminal.contains(&phase.as_str()) {
                if phase == "finished" {
                    finished += 1;
                }
                done = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        if !done {
            return Err(CliError::runtime(format!(
                "timed out waiting for job {id} to reach a terminal phase"
            )));
        }
    }

    if let Some(path) = &journal {
        let (st, jsonl) = client
            .get("/v1/journal")
            .map_err(|e| http_err("journal", e))?;
        if st != 200 {
            return Err(CliError::runtime(format!("journal fetch failed: {st}")));
        }
        write_file(path, &jsonl)?;
        eprintln!("journal -> {}", path.display());
    }
    if shutdown {
        let (st, resp) = client
            .post("/v1/shutdown", "")
            .map_err(|e| http_err("shutdown", e))?;
        if st != 200 {
            return Err(CliError::runtime(format!("shutdown failed: {resp}")));
        }
        eprintln!("daemon shutdown acknowledged: {resp}");
    }
    println!(
        "{{\"submitted\":{jobs},\"accepted\":{},\"refused\":{refused},\
         \"retried\":{retried},\"finished\":{finished}}}",
        accepted.len()
    );
    Ok(())
}

fn parse_trace_index(arg: Option<&String>, cmd: &str) -> Result<usize, CliError> {
    let idx: usize = arg
        .ok_or_else(|| CliError::usage(format!("{cmd} needs an index 1-4")))?
        .parse()
        .map_err(|_| CliError::usage("trace index must be 1-4"))?;
    if !(1..=4).contains(&idx) {
        return Err(CliError::usage("trace index must be 1-4"));
    }
    Ok(idx)
}

fn parse_policy(name: &str) -> Result<PolicyKind, CliError> {
    Ok(match name.to_ascii_lowercase().as_str() {
        "fifo" => PolicyKind::Fifo,
        "sjf" => PolicyKind::Sjf,
        "srtf" => PolicyKind::Srtf,
        "srsf" => PolicyKind::Srsf,
        "las" => PolicyKind::Las,
        "2dlas" | "2d-las" => PolicyKind::TwoDLas,
        "tiresias" => PolicyKind::Tiresias,
        "gittins" | "2d-gittins" => PolicyKind::Gittins,
        "themis" => PolicyKind::Themis,
        "antman" => PolicyKind::AntMan,
        "muri-s" | "muris" => PolicyKind::MuriS,
        "muri-l" | "muril" => PolicyKind::MuriL,
        other => return Err(CliError::usage(format!("unknown policy {other:?}"))),
    })
}

/// Workload selection shared by `muri sim` and `muri verify`.
fn parse_workload(args: &[String]) -> Result<(muri_workload::Trace, Scale, u32), CliError> {
    let mut trace_idx = 1usize;
    let mut csv: Option<PathBuf> = None;
    let mut scale = Scale::default();
    let mut machines = 8u32;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => {
                trace_idx = it
                    .next()
                    .ok_or_else(|| CliError::usage("--trace needs an index"))?
                    .parse()
                    .map_err(|_| CliError::usage("bad trace index"))?;
                if !(1..=4).contains(&trace_idx) {
                    return Err(CliError::usage("trace index must be 1-4"));
                }
            }
            "--csv" => {
                csv = Some(PathBuf::from(
                    it.next()
                        .ok_or_else(|| CliError::usage("--csv needs a path"))?,
                ));
            }
            "--scale" => {
                scale = Scale(
                    it.next()
                        .ok_or_else(|| CliError::usage("--scale needs a value"))?
                        .parse()
                        .map_err(|_| CliError::usage("bad scale"))?,
                );
            }
            "--machines" => {
                machines = it
                    .next()
                    .ok_or_else(|| CliError::usage("--machines needs a count"))?
                    .parse()
                    .map_err(|_| CliError::usage("bad machine count"))?;
            }
            other => return Err(CliError::usage(format!("unknown option {other:?}"))),
        }
    }
    let trace = match csv {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| CliError::runtime(format!("reading {path:?}: {e}")))?;
            muri_workload::Trace::from_csv(
                path.file_stem()
                    .map_or_else(|| "csv".into(), |s| s.to_string_lossy().into_owned()),
                &text,
            )
            .map_err(|e| CliError::runtime(e.to_string()))?
        }
        None => muri_workload::philly_like_trace(trace_idx, scale.0),
    };
    Ok((trace, scale, machines))
}

/// Blossom sparsification overrides parsed off the `sim`/`verify`
/// command line. `None` keeps the [`GroupingConfig`] default.
///
/// [`GroupingConfig`]: muri_core::GroupingConfig
#[derive(Default)]
struct PruneOpts {
    top_m: Option<usize>,
    loss_bound: Option<f64>,
}

impl PruneOpts {
    /// Overwrite the grouping config's prune knobs with any explicit
    /// command-line values (`--prune-top-m 0` disables pruning).
    fn apply(&self, cfg: &mut SchedulerConfig) {
        if let Some(m) = self.top_m {
            cfg.grouping.prune_top_m = m;
        }
        if let Some(b) = self.loss_bound {
            cfg.grouping.prune_loss_bound = b;
        }
    }
}

/// Pull `--prune-top-m M` / `--prune-loss-bound F` out of `args`,
/// leaving the rest untouched.
fn split_prune_opts(args: &[String]) -> Result<(PruneOpts, Vec<String>), CliError> {
    let mut opts = PruneOpts::default();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--prune-top-m" => {
                opts.top_m = Some(
                    it.next()
                        .ok_or_else(|| CliError::usage("--prune-top-m needs a count"))?
                        .parse()
                        .map_err(|_| CliError::usage("bad --prune-top-m count"))?,
                );
            }
            "--prune-loss-bound" => {
                let b: f64 = it
                    .next()
                    .ok_or_else(|| CliError::usage("--prune-loss-bound needs a fraction"))?
                    .parse()
                    .map_err(|_| CliError::usage("bad --prune-loss-bound fraction"))?;
                if !(0.0..=1.0).contains(&b) {
                    return Err(CliError::usage(format!(
                        "prune loss bound {b} out of range [0, 1]"
                    )));
                }
                opts.loss_bound = Some(b);
            }
            _ => rest.push(arg.clone()),
        }
    }
    Ok((opts, rest))
}

/// Sharded cold-start planner overrides parsed off the `sim`/`verify`
/// command line. `None` keeps the [`GroupingConfig`] default
/// (auto-sharding at large pool sizes).
///
/// [`GroupingConfig`]: muri_core::GroupingConfig
#[derive(Default)]
struct ShardOpts {
    shard_by: Option<muri_core::ShardBy>,
    shard_size: Option<usize>,
    candidate_m: Option<usize>,
}

impl ShardOpts {
    /// Overwrite the grouping config's shard knobs with any explicit
    /// command-line values (`--shard-by off` disables sharding).
    fn apply(&self, cfg: &mut SchedulerConfig) {
        if let Some(s) = self.shard_by {
            cfg.grouping.shard_by = s;
        }
        if let Some(s) = self.shard_size {
            cfg.grouping.shard_size = s;
        }
        if let Some(m) = self.candidate_m {
            cfg.grouping.candidate_m = m;
        }
    }
}

/// Pull `--shard-by auto|off|force` / `--shard-size N` /
/// `--candidate-m M` out of `args`, leaving the rest untouched.
fn split_shard_opts(args: &[String]) -> Result<(ShardOpts, Vec<String>), CliError> {
    let mut opts = ShardOpts::default();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--shard-by" => {
                opts.shard_by = Some(
                    it.next()
                        .ok_or_else(|| CliError::usage("--shard-by needs auto|off|force"))?
                        .parse()
                        .map_err(CliError::usage)?,
                );
            }
            "--shard-size" => {
                opts.shard_size = Some(
                    it.next()
                        .ok_or_else(|| CliError::usage("--shard-size needs a count"))?
                        .parse()
                        .map_err(|_| CliError::usage("bad --shard-size count"))?,
                );
            }
            "--candidate-m" => {
                opts.candidate_m = Some(
                    it.next()
                        .ok_or_else(|| CliError::usage("--candidate-m needs a count"))?
                        .parse()
                        .map_err(|_| CliError::usage("bad --candidate-m count"))?,
                );
            }
            _ => rest.push(arg.clone()),
        }
    }
    Ok((opts, rest))
}

/// Fault-injection overrides parsed off the `sim`/`verify` command
/// line. `None` keeps the [`FaultPlan`]/[`CheckpointConfig`] defaults
/// (all fault features off), so a plain invocation is byte-identical to
/// the pre-fault-domain CLI.
///
/// [`FaultPlan`]: muri_sim::FaultPlan
/// [`CheckpointConfig`]: muri_sim::CheckpointConfig
#[derive(Default)]
struct FaultOpts {
    mtbf: Option<f64>,
    seed: Option<u64>,
    machine_mtbf: Option<f64>,
    machine_mttr: Option<f64>,
    transient_fraction: Option<f64>,
    degraded: Option<u32>,
    degraded_slowdown: Option<f64>,
    checkpoint_interval: Option<f64>,
    checkpoint_cost: Option<f64>,
    spot_machines: Option<u32>,
    spot_mtbe: Option<f64>,
    spot_warning: Option<f64>,
    spot_downtime: Option<f64>,
    gpu_generations: Option<u32>,
    generation_gap: Option<f64>,
    elastic_fraction: Option<f64>,
    elastic_interval: Option<f64>,
    slo_fraction: Option<f64>,
    slo_slack: Option<f64>,
}

impl FaultOpts {
    fn any(&self) -> bool {
        self.mtbf.is_some()
            || self.machine_mtbf.is_some()
            || self.degraded.is_some()
            || self.checkpoint_interval.is_some()
            || self.spot_machines.is_some()
            || self.gpu_generations.is_some()
            || self.elastic_fraction.is_some()
            || self.slo_fraction.is_some()
    }

    /// Overwrite the fault plan and checkpoint model with any explicit
    /// command-line values.
    fn apply(&self, cfg: &mut SimConfig) {
        let secs = |v: f64| muri_workload::SimDuration::from_secs_f64(v);
        if let Some(v) = self.mtbf {
            cfg.faults.mtbf = Some(secs(v));
        }
        if let Some(v) = self.seed {
            cfg.faults.seed = v;
        }
        if let Some(v) = self.machine_mtbf {
            cfg.faults.machine_mtbf = Some(secs(v));
        }
        if let Some(v) = self.machine_mttr {
            cfg.faults.machine_mttr = secs(v);
        }
        if let Some(v) = self.transient_fraction {
            cfg.faults.transient_fraction = v;
        }
        if let Some(v) = self.degraded {
            cfg.faults.degraded_machines = v;
        }
        if let Some(v) = self.degraded_slowdown {
            cfg.faults.degraded_slowdown = v;
        }
        if let Some(v) = self.checkpoint_interval {
            cfg.checkpoint.interval = Some(secs(v));
        }
        if let Some(v) = self.checkpoint_cost {
            cfg.checkpoint.cost = secs(v);
        }
        if let Some(v) = self.spot_machines {
            cfg.faults.spot_machines = v;
        }
        if let Some(v) = self.spot_mtbe {
            cfg.faults.spot_mtbe = Some(secs(v));
        }
        if let Some(v) = self.spot_warning {
            cfg.faults.spot_warning = secs(v);
        }
        if let Some(v) = self.spot_downtime {
            cfg.faults.spot_downtime = secs(v);
        }
        if let Some(v) = self.gpu_generations {
            cfg.faults.gpu_generations = v;
        }
        if let Some(v) = self.generation_gap {
            cfg.faults.generation_gap = v;
        }
        if let Some(v) = self.elastic_fraction {
            cfg.faults.elastic_fraction = v;
        }
        if let Some(v) = self.elastic_interval {
            cfg.faults.elastic_interval = Some(secs(v));
        }
        if let Some(v) = self.slo_fraction {
            cfg.faults.slo_fraction = v;
        }
        if let Some(v) = self.slo_slack {
            cfg.faults.slo_slack = v;
        }
    }
}

/// Pull the fault-injection flags out of `args`, leaving the rest
/// untouched.
fn split_fault_opts(args: &[String]) -> Result<(FaultOpts, Vec<String>), CliError> {
    let mut opts = FaultOpts::default();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| CliError::usage(format!("{arg} needs {what}")))
        };
        match arg.as_str() {
            "--mtbf" => {
                opts.mtbf = Some(parse_positive_secs(arg, value("seconds")?)?);
            }
            "--fault-seed" => {
                opts.seed = Some(
                    value("a seed")?
                        .parse()
                        .map_err(|_| CliError::usage("bad --fault-seed value"))?,
                );
            }
            "--machine-mtbf" => {
                opts.machine_mtbf = Some(parse_positive_secs(arg, value("seconds")?)?);
            }
            "--machine-mttr" => {
                opts.machine_mttr = Some(parse_positive_secs(arg, value("seconds")?)?);
            }
            "--transient-fraction" => {
                let f: f64 = value("a fraction")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --transient-fraction value"))?;
                if !(0.0..=1.0).contains(&f) {
                    return Err(CliError::usage(format!(
                        "transient fraction {f} out of range [0, 1]"
                    )));
                }
                opts.transient_fraction = Some(f);
            }
            "--degraded" => {
                opts.degraded = Some(
                    value("a machine count")?
                        .parse()
                        .map_err(|_| CliError::usage("bad --degraded count"))?,
                );
            }
            "--degraded-slowdown" => {
                let f: f64 = value("a factor")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --degraded-slowdown value"))?;
                if f < 1.0 {
                    return Err(CliError::usage(format!(
                        "degraded slowdown {f} must be >= 1"
                    )));
                }
                opts.degraded_slowdown = Some(f);
            }
            "--checkpoint-interval" => {
                opts.checkpoint_interval = Some(parse_positive_secs(arg, value("seconds")?)?);
            }
            "--checkpoint-cost" => {
                let v: f64 = value("seconds")?
                    .parse()
                    .map_err(|_| CliError::usage(format!("bad {arg} value")))?;
                if !(v.is_finite() && v >= 0.0) {
                    return Err(CliError::usage(format!("{arg} must be >= 0 seconds")));
                }
                opts.checkpoint_cost = Some(v);
            }
            "--spot-machines" => {
                opts.spot_machines = Some(
                    value("a machine count")?
                        .parse()
                        .map_err(|_| CliError::usage("bad --spot-machines count"))?,
                );
            }
            "--spot-mtbe" => {
                opts.spot_mtbe = Some(parse_positive_secs(arg, value("seconds")?)?);
            }
            "--spot-warning" => {
                // Zero is meaningful: no-warning eviction for drain
                // comparisons.
                let v: f64 = value("seconds")?
                    .parse()
                    .map_err(|_| CliError::usage(format!("bad {arg} value")))?;
                if !(v.is_finite() && v >= 0.0) {
                    return Err(CliError::usage(format!("{arg} must be >= 0 seconds")));
                }
                opts.spot_warning = Some(v);
            }
            "--spot-downtime" => {
                opts.spot_downtime = Some(parse_positive_secs(arg, value("seconds")?)?);
            }
            "--gpu-generations" => {
                opts.gpu_generations = Some(
                    value("a generation count")?
                        .parse()
                        .map_err(|_| CliError::usage("bad --gpu-generations count"))?,
                );
            }
            "--generation-gap" => {
                let f: f64 = value("a factor")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --generation-gap value"))?;
                if !(f.is_finite() && f >= 0.0) {
                    return Err(CliError::usage(format!("generation gap {f} must be >= 0")));
                }
                opts.generation_gap = Some(f);
            }
            "--elastic-fraction" => {
                let f: f64 = value("a fraction")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --elastic-fraction value"))?;
                if !(0.0..=1.0).contains(&f) {
                    return Err(CliError::usage(format!(
                        "elastic fraction {f} out of range [0, 1]"
                    )));
                }
                opts.elastic_fraction = Some(f);
            }
            "--elastic-interval" => {
                opts.elastic_interval = Some(parse_positive_secs(arg, value("seconds")?)?);
            }
            "--slo-fraction" => {
                let f: f64 = value("a fraction")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --slo-fraction value"))?;
                if !(0.0..=1.0).contains(&f) {
                    return Err(CliError::usage(format!(
                        "SLO fraction {f} out of range [0, 1]"
                    )));
                }
                opts.slo_fraction = Some(f);
            }
            "--slo-slack" => {
                let f: f64 = value("a factor")?
                    .parse()
                    .map_err(|_| CliError::usage("bad --slo-slack value"))?;
                if !(f.is_finite() && f > 0.0) {
                    return Err(CliError::usage(format!("SLO slack {f} must be > 0")));
                }
                opts.slo_slack = Some(f);
            }
            _ => rest.push(arg.clone()),
        }
    }
    Ok((opts, rest))
}

/// Parse a strictly positive seconds value for `flag`.
fn parse_positive_secs(flag: &str, raw: &str) -> Result<f64, CliError> {
    let v: f64 = raw
        .parse()
        .map_err(|_| CliError::usage(format!("bad {flag} value")))?;
    if !(v.is_finite() && v > 0.0) {
        return Err(CliError::usage(format!("{flag} must be > 0 seconds")));
    }
    Ok(v)
}

/// Telemetry export destinations parsed off the `sim` command line.
#[derive(Default)]
struct TelemetryOpts {
    journal: Option<PathBuf>,
    metrics: Option<PathBuf>,
    chrome_trace: Option<PathBuf>,
}

impl TelemetryOpts {
    fn any(&self) -> bool {
        self.journal.is_some() || self.metrics.is_some() || self.chrome_trace.is_some()
    }
}

/// Pull `--journal/--metrics/--chrome-trace FILE` out of `args`, leaving
/// the rest (workload options) untouched.
fn split_telemetry_opts(args: &[String]) -> Result<(TelemetryOpts, Vec<String>), CliError> {
    let mut opts = TelemetryOpts::default();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let slot = match arg.as_str() {
            "--journal" => &mut opts.journal,
            "--metrics" => &mut opts.metrics,
            "--chrome-trace" => &mut opts.chrome_trace,
            _ => {
                rest.push(arg.clone());
                continue;
            }
        };
        *slot = Some(PathBuf::from(it.next().ok_or_else(|| {
            CliError::usage(format!("{arg} needs a file path"))
        })?));
    }
    Ok((opts, rest))
}

fn write_file(path: &PathBuf, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(|e| CliError::runtime(format!("writing {path:?}: {e}")))
}

/// Export the collected telemetry to the requested files.
fn export_telemetry(t: &muri_telemetry::Telemetry, opts: &TelemetryOpts) -> Result<(), CliError> {
    if let Some(path) = &opts.journal {
        write_file(path, &t.journal.to_jsonl())?;
        eprintln!(
            "journal:      {} events -> {}",
            t.journal.len(),
            path.display()
        );
    }
    if let Some(path) = &opts.metrics {
        write_file(path, &t.metrics.render())?;
        eprintln!("metrics:      -> {}", path.display());
    }
    if let Some(path) = &opts.chrome_trace {
        if t.trace.dropped_groups() > 0 {
            eprintln!(
                "warning: chrome trace capped, {} group timeline(s) not rendered",
                t.trace.dropped_groups()
            );
        }
        write_file(path, &t.trace.to_json())?;
        eprintln!(
            "chrome trace: {} events -> {} (open in Perfetto / chrome://tracing)",
            t.trace.len(),
            path.display()
        );
    }
    Ok(())
}

/// The workload and `SimConfig` shared by `sim` and `verify`: the
/// testbed preset of `policy` with the prune, shard and fault options and
/// the machine count applied. Also says whether any fault option was
/// given.
fn sim_setup(
    policy: PolicyKind,
    args: &[String],
) -> Result<(muri_workload::Trace, SimConfig, bool), CliError> {
    let (popts, rest) = split_prune_opts(args)?;
    let (sopts, rest) = split_shard_opts(&rest)?;
    let (fopts, rest) = split_fault_opts(&rest)?;
    let (trace, _scale, machines) = parse_workload(&rest)?;
    let mut cfg = SimConfig {
        cluster: muri_cluster::ClusterSpec::with_machines(machines),
        ..SimConfig::testbed(SchedulerConfig::preset(policy))
    };
    popts.apply(&mut cfg.scheduler);
    sopts.apply(&mut cfg.scheduler);
    fopts.apply(&mut cfg);
    Ok((trace, cfg, fopts.any()))
}

/// `muri sim <policy> [--trace 1-4 | --csv FILE] [--scale S] [--machines N]
///                    [--journal FILE] [--metrics FILE] [--chrome-trace FILE]
///                    [--prune-top-m M] [--prune-loss-bound F]
///                    [--shard-by auto|off|force] [--shard-size N] [--candidate-m M]`
fn run_sim(policy: PolicyKind, args: &[String]) -> Result<(), CliError> {
    let (topts, rest) = split_telemetry_opts(args)?;
    let (trace, cfg, faults_on) = sim_setup(policy, &rest)?;
    eprintln!(
        "simulating {} jobs under {} on {} GPUs...",
        trace.len(),
        policy.name(),
        cfg.cluster.total_gpus()
    );
    let started = std::time::Instant::now();
    let r = if topts.any() {
        // Unbounded: the whole journal is written out, so a capacity
        // bound would only truncate the file.
        let sink = TelemetrySink::enabled(Telemetry::with_journal_capacity(usize::MAX));
        let r = simulate_with_telemetry(&trace, &cfg, &sink);
        let t = sink
            .into_inner()
            .ok_or_else(|| CliError::runtime("telemetry sink still shared after the run"))?;
        export_telemetry(&t, &topts)?;
        r
    } else {
        simulate(&trace, &cfg)
    };
    println!("policy:        {}", r.policy);
    println!("trace:         {} ({} jobs)", r.trace, r.records.len());
    println!("finished:      {}/{}", r.finished_jobs(), r.records.len());
    println!("avg JCT:       {:.1} s", r.avg_jct_secs());
    println!("p99 JCT:       {:.1} s", r.p99_jct_secs());
    println!("makespan:      {:.2} h", r.makespan_secs() / 3600.0);
    println!("avg queue len: {:.1}", r.avg_queue_length());
    println!("blocking idx:  {:.2}", r.avg_blocking_index());
    println!(
        "avg util io/cpu/gpu/net: {:.2}/{:.2}/{:.2}/{:.2}",
        r.avg_utilization(muri_workload::ResourceKind::Storage),
        r.avg_utilization(muri_workload::ResourceKind::Cpu),
        r.avg_utilization(muri_workload::ResourceKind::Gpu),
        r.avg_utilization(muri_workload::ResourceKind::Network),
    );
    // Only when fault injection is on — a fault-free invocation's stdout
    // must stay byte-identical to the pre-fault-domain CLI.
    if faults_on {
        let faults: u64 = r.records.iter().map(|j| u64::from(j.faults)).sum();
        let restarts: u64 = r.records.iter().map(|j| u64::from(j.restarts)).sum();
        println!("faults:        {faults} ({restarts} restarts)");
    }
    eprintln!("[simulated in {:.2?}]", started.elapsed());
    Ok(())
}

/// `muri telemetry-check [--journal FILE] [--metrics FILE] [--chrome-trace FILE]`
///
/// Validate previously exported telemetry artifacts:
///
/// * the journal parses as event JSONL and its per-job lifecycle ledger
///   conserves jobs (`muri_verify::audit_journal`) — exit 3 on violations;
/// * the Prometheus text round-trips through the golden parser;
/// * the Chrome trace is well-formed with monotonic timestamps.
fn run_telemetry_check(args: &[String]) -> Result<(), CliError> {
    let (opts, rest) = split_telemetry_opts(args)?;
    if let Some(stray) = rest.first() {
        return Err(CliError::usage(format!("unknown option {stray:?}")));
    }
    if !opts.any() {
        return Err(CliError::usage(
            "telemetry-check needs at least one of --journal / --metrics / --chrome-trace",
        ));
    }
    let read = |path: &PathBuf| {
        std::fs::read_to_string(path)
            .map_err(|e| CliError::runtime(format!("reading {path:?}: {e}")))
    };
    let mut violations = 0usize;
    if let Some(path) = &opts.journal {
        let events = muri_telemetry::Journal::from_jsonl(&read(path)?)
            .map_err(|e| CliError::runtime(format!("{}: {e}", path.display())))?;
        let audit = muri_verify::audit_journal(&events);
        print!("{}", audit.render());
        if audit.is_clean() {
            println!(
                "journal OK: {} events, {} job ledgers conserve jobs",
                events.len(),
                audit.checks
            );
        } else {
            violations += audit.violations.len();
        }
    }
    if let Some(path) = &opts.metrics {
        let samples = muri_telemetry::parse_prometheus(&read(path)?)
            .map_err(|e| CliError::runtime(format!("{}: {e}", path.display())))?;
        if samples.is_empty() {
            return Err(CliError::runtime(format!(
                "{}: no metric samples",
                path.display()
            )));
        }
        println!("metrics OK: {} samples parse", samples.len());
    }
    if let Some(path) = &opts.chrome_trace {
        let stats = muri_telemetry::validate_chrome_trace(&read(path)?)
            .map_err(|e| CliError::runtime(format!("{}: {e}", path.display())))?;
        println!(
            "chrome trace OK: {} events ({} spans, {} metadata), timestamps monotonic to {} us",
            stats.events, stats.complete, stats.metadata, stats.max_ts_us
        );
    }
    if violations > 0 {
        return Err(CliError::Violations(violations));
    }
    Ok(())
}

/// `muri verify [<policy>] [--trace 1-4 | --csv FILE] [--scale S] [--machines N]
///                         [--prune-top-m M] [--prune-loss-bound F]
///                         [--shard-by auto|off|force] [--shard-size N] [--candidate-m M]`
///
/// Replays the workload with the invariant auditor attached to every
/// scheduling pass and prints a human-readable violation report. Exit
/// code 3 if any invariant was violated.
fn run_verify(args: &[String]) -> Result<(), CliError> {
    // An optional leading policy name (default: muri-l).
    let (policy, rest) = match args.first() {
        Some(first) if !first.starts_with("--") => (parse_policy(first)?, &args[1..]),
        _ => (PolicyKind::MuriL, args),
    };
    let (trace, cfg, _) = sim_setup(policy, rest)?;
    eprintln!(
        "auditing {} under {} on {} GPUs ({} jobs)...",
        trace.name,
        policy.name(),
        cfg.cluster.total_gpus(),
        trace.len()
    );
    let started = std::time::Instant::now();
    let (report, audit) = simulate_audited(&trace, &cfg);
    println!(
        "replayed {} events / {} scheduling passes; {}/{} jobs finished",
        report.events,
        report.scheduling_passes,
        report.finished_jobs(),
        report.records.len()
    );
    print!("{}", audit.render());
    eprintln!("[audited in {:.2?}]", started.elapsed());
    if audit.is_clean() {
        println!("OK: all invariants held (Eq. 3/4, bucketing, capacity, conservation)");
        Ok(())
    } else {
        Err(CliError::Violations(audit.violations.len()))
    }
}

/// `muri validate`: check that Eq. 3 upper-bounds the timeline executor
/// for every model pair (the scheduler's estimates are safe).
fn run_validate() -> Result<(), CliError> {
    use muri_interleave::{
        choose_ordering, run_timeline, stagger_delays, OrderingPolicy, TimelineJob,
    };
    use muri_workload::{JobId, ModelKind, SimDuration};
    let mut worst_slack = 0.0_f64;
    let mut pairs = 0;
    for (i, a) in ModelKind::ALL.iter().enumerate() {
        for b in ModelKind::ALL.iter().skip(i + 1) {
            let profiles = [a.profile(16), b.profile(16)];
            let ordering = choose_ordering(&profiles, OrderingPolicy::Best);
            let delays = stagger_delays(&profiles, &ordering.offsets);
            let jobs: Vec<TimelineJob> = profiles
                .iter()
                .zip(delays)
                .enumerate()
                .map(|(j, (&profile, initial_delay))| TimelineJob {
                    id: JobId(j as u32),
                    profile,
                    slots: vec![0],
                    initial_delay,
                    iterations: 100,
                })
                .collect();
            let report = run_timeline(&jobs, 1, SimDuration::from_hours(12));
            let realized = (0..2)
                .filter_map(|j| report.avg_iteration_time(&jobs, j))
                .max()
                .ok_or_else(|| {
                    CliError::runtime(format!("{} + {}: pair did not finish", a.name(), b.name()))
                })?
                .as_secs_f64();
            let predicted = ordering.iteration_time.as_secs_f64();
            if realized > predicted * 1.02 {
                return Err(CliError::runtime(format!(
                    "{} + {}: executor ({realized:.3}s) exceeded the Eq. 3 bound ({predicted:.3}s)",
                    a.name(),
                    b.name()
                )));
            }
            worst_slack = worst_slack.max((predicted - realized) / predicted);
            pairs += 1;
        }
    }
    println!(
        "OK: Eq. 3 upper-bounded the timeline executor for all {pairs} model pairs \
         (largest slack {:.1}%)",
        worst_slack * 100.0
    );
    Ok(())
}

fn run_one(id: &str, opts: &Options) -> Result<(), CliError> {
    let started = std::time::Instant::now();
    let report = run_experiment(id, opts.scale)
        .ok_or_else(|| CliError::usage(format!("unknown experiment {id:?}")))?;
    print!("{}", report.render());
    eprintln!("[{id} finished in {:.2?}]", started.elapsed());
    if let Some(dir) = &opts.out {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::runtime(format!("creating {dir:?}: {e}")))?;
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| CliError::runtime(format!("serializing {id}: {e}")))?;
        std::fs::write(dir.join(format!("{id}.json")), json)
            .map_err(|e| CliError::runtime(format!("writing {id}.json: {e}")))?;
        for (i, table) in report.tables.iter().enumerate() {
            let path = dir.join(format!("{id}-{i}.csv"));
            std::fs::write(&path, table.to_csv())
                .map_err(|e| CliError::runtime(format!("writing {path:?}: {e}")))?;
        }
    }
    Ok(())
}
