//! The `serve-open` workload: an open-loop HTTP load against durable
//! `muri-serve` daemons, each in a child process (this binary re-run as
//! `serve-child`).
//!
//! The load is a ladder of offered rates. Each step gets a fresh daemon
//! (so every step sees the same op-log length, whatever ran before),
//! a short warm-up, then seeded exponential gaps over [`CONNS`]
//! keep-alive connections, one generator thread each. The mix is 80%
//! `POST /v1/jobs` and 20% `GET /v1/jobs/{id}`. Latency is timed from
//! each request's *due* time, so a stall also counts against the
//! requests queued behind it. At the reference step every
//! [`PROBE_EVERY`]th submit is polled until it leaves `queued`.

use crate::layers::{set_planner_metrics, JournalTotals};
use crate::report::{Metrics, Outcome};
use crate::spans::Spans;
use crate::{stats, vm_hwm_kb, RunOpts};
use muri_cluster::ClusterSpec;
use muri_core::{PlanMode, PolicyKind, SchedulerConfig};
use muri_serve::journal::{load_state, DEFAULT_SNAPSHOT_EVERY, OPLOG_VERSION};
use muri_serve::recover::merge_ops;
use muri_serve::{
    bind, recover_from_dir, sim_signature, DurableLog, HttpClient, RecoverBoot, ServeCore,
    ServeLimits, ServerConfig, SubmitRequest,
};
use muri_sim::SimConfig;
use muri_telemetry::{parse_prometheus, PromSample, Telemetry, TelemetrySink};
use muri_workload::{GpuDistribution, SynthConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Seed used when `--seed` is not given.
pub const REFERENCE_SEED: u64 = 1;
/// Latency limit on a step's submit p99, ms.
const LIMIT_MS: f64 = 10.0;
/// Offered rates of the ladder, ops/s.
const RATES: [f64; 6] = [500.0, 1000.0, 2000.0, 3000.0, 4000.0, 6000.0];
/// Offered rate of the reference step, ops/s.
const REF_RATE: f64 = 1000.0;
/// Per-layer names of the ladder's submit p99s, in [`RATES`] order.
const CURVE: [&str; 6] = [
    "serve.submit_p99_ms.r500",
    "serve.submit_p99_ms.r1000",
    "serve.submit_p99_ms.r2000",
    "serve.submit_p99_ms.r3000",
    "serve.submit_p99_ms.r4000",
    "serve.submit_p99_ms.r6000",
];
const WARMUP_RATE: f64 = 500.0;
/// Scheduler seconds per wall second: jobs of 10–200 iterations finish
/// within milliseconds, so the 64-GPU cluster never saturates.
const TIME_SCALE: f64 = 36_000.0;
const WORKERS: usize = 2;
/// Load-generator connections, one thread each (the host has 2 cores).
const CONNS: usize = 2;
const PROBE_EVERY: u64 = 6;
/// Share of the offered rate a step must achieve to count as sustained.
const MIN_ACHIEVED: f64 = 0.97;

/// The cluster and scheduler every daemon of the workload runs.
fn sim_config() -> SimConfig {
    SimConfig {
        cluster: ClusterSpec::with_machines(8),
        ..SimConfig::testbed(SchedulerConfig::preset(PolicyKind::MuriL))
    }
}

// ------------------------------------------------------------- child ----

/// `serve-child --state DIR`: run one durable daemon on an ephemeral
/// loopback port. Prints `addr HOST:PORT` once bound and, after a
/// graceful shutdown, `vmhwm_kb N`.
pub fn child_main(args: &[String]) -> ExitCode {
    let state = match args {
        [flag, dir] if flag == "--state" => dir.clone(),
        _ => {
            eprintln!("usage: muri-benchmark serve-child --state DIR");
            return ExitCode::from(2);
        }
    };
    let cfg = ServerConfig {
        workers: WORKERS,
        time_scale: TIME_SCALE,
        state_dir: Some(state),
        ..ServerConfig::new(sim_config())
    };
    let bound = match bind(cfg) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("serve-child: bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("addr {}", bound.addr());
    let _ = std::io::stdout().flush();
    if let Err(e) = bound.run() {
        eprintln!("serve-child: {e}");
        return ExitCode::FAILURE;
    }
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    println!("vmhwm_kb {}", vm_hwm_kb(&status).unwrap_or(0));
    ExitCode::SUCCESS
}

/// A daemon child process; killed and reaped on drop if still running.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
    /// Spawn until the first healthy `GET /v1/healthz`, seconds.
    boot_s: f64,
}

impl Daemon {
    fn boot(dir: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let exe = std::env::current_exe().map_err(|e| format!("locating self: {e}"))?;
        let start = Instant::now();
        let mut child = Command::new(exe)
            .arg("serve-child")
            .arg("--state")
            .arg(&dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let Some(out) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout not captured".into());
        };
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(out),
            addr: String::new(),
            boot_s: 0.0,
        };
        daemon.addr = daemon
            .read_line_with("addr ")
            .ok_or("the daemon exited before binding")?;
        let mut client = HttpClient::connect(&daemon.addr)
            .map_err(|e| format!("connecting to {}: {e}", daemon.addr))?;
        match client.get("/v1/healthz") {
            Ok((200, _)) => {}
            other => return Err(format!("healthz: {other:?}")),
        }
        daemon.boot_s = start.elapsed().as_secs_f64();
        Ok(daemon)
    }

    /// Next stdout line starting with `prefix`, without it.
    fn read_line_with(&mut self, prefix: &str) -> Option<String> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.stdout.read_line(&mut line).ok()? == 0 {
                return None;
            }
            if let Some(rest) = line.trim_end().strip_prefix(prefix) {
                return Some(rest.to_string());
            }
        }
    }

    /// Graceful shutdown: returns the daemon's `VmHWM` in kB once it
    /// exited 0.
    fn shutdown(mut self) -> Result<u64, String> {
        let mut client = HttpClient::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        match client.post("/v1/shutdown", "") {
            Ok((200, _)) => {}
            other => return Err(format!("shutdown: {other:?}")),
        }
        let hwm = self.read_line_with("vmhwm_kb ");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("the daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("the daemon did not exit after shutdown".into()),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
        hwm.and_then(|s| s.parse().ok())
            .ok_or_else(|| "the daemon did not report its peak RSS".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

// -------------------------------------------------------------- load ----

/// One scheduled request.
#[derive(Debug, Clone)]
enum OpKind {
    Submit {
        body: String,
        probe: bool,
    },
    /// Status of the connection's `n`-th accepted job (mod count).
    Status(u64),
}

#[derive(Debug, Clone)]
struct Op {
    due_s: f64,
    kind: OpKind,
}

/// A phase's `ops` requests at `rate`, split by connection, and the
/// time spent generating its job mix (ms).
fn schedule(seed: u64, phase: u64, rate: f64, ops: usize, probes: bool) -> (Vec<Vec<Op>>, f64) {
    let mut rng = SmallRng::seed_from_u64(crate::sim::trace_seed(seed, phase as usize + 1));
    let mut t = 0.0;
    let dues: Vec<f64> = (0..ops)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / rate;
            t
        })
        .collect();
    // The job mix comes from the repository's workload generator:
    // models uniform over the zoo, GPUs {1: .7, 2: .2, 4: .1}.
    let gen_start = Instant::now();
    let mix = SynthConfig {
        name: "serve-open".into(),
        num_jobs: dues.len().max(1),
        seed: rng.gen(),
        gpu_dist: GpuDistribution {
            weights: vec![(1, 0.7), (2, 0.2), (4, 0.1)],
        },
        ..SynthConfig::default()
    }
    .generate();
    let gen_ms = gen_start.elapsed().as_secs_f64() * 1e3;
    let mut conns: Vec<Vec<Op>> = vec![Vec::new(); CONNS];
    let mut submits = [0u64; CONNS];
    for (i, &due_s) in dues.iter().enumerate() {
        let c = i % CONNS;
        let kind = if submits[c] > 0 && rng.gen_range(0.0..1.0) < 0.2 {
            OpKind::Status(rng.gen_range(0..u64::MAX))
        } else {
            submits[c] += 1;
            let job = &mix.jobs[i];
            let iterations: u64 = rng.gen_range(10..201);
            OpKind::Submit {
                body: format!(
                    "{{\"model\":\"{}\",\"num_gpus\":{},\"iterations\":{iterations}}}",
                    job.model.name(),
                    job.num_gpus
                ),
                probe: probes && submits[c] % PROBE_EVERY == 0,
            }
        };
        conns[c].push(Op { due_s, kind });
    }
    (conns, gen_ms)
}

/// What one connection observed.
#[derive(Debug, Default)]
struct ConnResult {
    submit_ms: Vec<f64>,
    status_ms: Vec<f64>,
    place_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    accepted: u64,
    refused: u64,
    errors: Vec<String>,
    ops: u64,
    last_end_s: f64,
    spans: Option<Spans>,
}

fn job_id(body: &str) -> Option<u64> {
    let at = body.find("\"job\":")? + "\"job\":".len();
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn drive_conn(
    addr: &str,
    ops: &[Op],
    start: Instant,
    lane: u32,
    spans: Option<Spans>,
) -> ConnResult {
    let mut r = ConnResult {
        spans,
        ..ConnResult::default()
    };
    let mut client = match HttpClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            r.errors.push(format!("connect: {e}"));
            return r;
        }
    };
    let mut accepted: Vec<u64> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let due = start + Duration::from_secs_f64(op.due_s);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        r.lag_ms
            .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        r.ops += 1;
        let request = u64::from(lane) << 32 | i as u64;
        match &op.kind {
            OpKind::Submit { body, probe } => match client.post("/v1/jobs", body) {
                Ok((200, resp)) => {
                    let done = Instant::now();
                    r.submit_ms.push((done - due).as_secs_f64() * 1e3);
                    if let Some(s) = r.spans.as_mut() {
                        s.record("submit", sent, done, lane, request);
                    }
                    let Some(id) = job_id(&resp) else {
                        r.errors
                            .push(format!("submit reply without a job id: {resp}"));
                        continue;
                    };
                    r.accepted += 1;
                    accepted.push(id);
                    if *probe {
                        poll_placement(&mut client, id, due, lane, request, &mut r);
                    }
                }
                Ok((_, _)) => r.refused += 1,
                Err(e) => r.errors.push(format!("submit: {e}")),
            },
            OpKind::Status(n) => {
                let pick = usize::try_from(*n % accepted.len().max(1) as u64).unwrap_or(0);
                let Some(&id) = accepted.get(pick) else {
                    r.errors
                        .push("status before any accepted submit".to_string());
                    continue;
                };
                match client.get(&format!("/v1/jobs/{id}")) {
                    Ok((200, _)) => {
                        let done = Instant::now();
                        r.status_ms.push((done - due).as_secs_f64() * 1e3);
                        if let Some(s) = r.spans.as_mut() {
                            s.record("status", sent, done, lane, request);
                        }
                    }
                    Ok((code, body)) => r.errors.push(format!("status {id}: {code} {body}")),
                    Err(e) => r.errors.push(format!("status: {e}")),
                }
            }
        }
        r.last_end_s = start.elapsed().as_secs_f64();
    }
    r
}

/// Poll a probe until it leaves `queued`; its placement latency runs
/// from the submit's due time.
fn poll_placement(
    client: &mut HttpClient,
    id: u64,
    due: Instant,
    lane: u32,
    request: u64,
    r: &mut ConnResult,
) {
    let polled = Instant::now();
    let deadline = polled + Duration::from_secs(5);
    loop {
        match client.get(&format!("/v1/jobs/{id}")) {
            Ok((200, body)) if !body.contains("\"phase\":\"queued\"") => {
                let done = Instant::now();
                r.place_ms.push((done - due).as_secs_f64() * 1e3);
                if let Some(s) = r.spans.as_mut() {
                    s.record("placement_poll", polled, done, lane, request);
                }
                return;
            }
            Ok((200, _)) if Instant::now() < deadline => {}
            other => {
                r.errors.push(format!("probe {id}: {other:?}"));
                return;
            }
        }
    }
}

/// One phase's merged observations.
#[derive(Debug, Default)]
struct PhaseResult {
    rate: f64,
    secs: f64,
    conns: Vec<ConnResult>,
}

impl PhaseResult {
    fn pooled(&self, f: impl Fn(&ConnResult) -> &Vec<f64>) -> Vec<f64> {
        stats::sorted(
            &self
                .conns
                .iter()
                .flat_map(|c| f(c).iter().copied())
                .collect::<Vec<_>>(),
        )
    }
    fn sum(&self, f: impl Fn(&ConnResult) -> u64) -> u64 {
        self.conns.iter().map(f).sum()
    }
    fn submit_p99(&self) -> f64 {
        stats::quantile(&self.pooled(|c| &c.submit_ms), 0.99)
    }
    fn lag_p99(&self) -> f64 {
        stats::quantile(&self.pooled(|c| &c.lag_ms), 0.99)
    }
    /// The schedule's own rate: its ops over its span (a Poisson draw
    /// of a few thousand gaps lands within a few percent of `rate`).
    fn offered(&self) -> f64 {
        self.sum(|c| c.ops) as f64 / self.secs.max(1e-9)
    }
    /// Ops completed per second of the step (or of however long the
    /// generator needed to send them).
    fn achieved(&self) -> f64 {
        let ops = self.sum(|c| c.ops) as f64;
        let span = self
            .conns
            .iter()
            .map(|c| c.last_end_s)
            .fold(self.secs, f64::max);
        ops / span
    }
    fn sustained(&self) -> bool {
        self.submit_p99() <= LIMIT_MS
            && self.lag_p99() <= LIMIT_MS
            && self.achieved() >= MIN_ACHIEVED * self.offered()
            && self.sum(|c| c.refused) == 0
            && self.conns.iter().all(|c| c.errors.is_empty())
    }
}

/// Drive one phase; with `origin`, each connection records its
/// requests as spans measured from it.
fn run_phase(addr: &str, conns: Vec<Vec<Op>>, rate: f64, origin: Option<Instant>) -> PhaseResult {
    let secs = conns
        .iter()
        .flatten()
        .map(|op| op.due_s)
        .fold(0.0, f64::max);
    let start = Instant::now();
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter()
            .enumerate()
            .map(|(i, ops)| {
                let lane_spans = origin.map(Spans::new);
                s.spawn(move || drive_conn(addr, ops, start, i as u32 + 1, lane_spans))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ConnResult {
                    errors: vec!["a generator thread panicked".into()],
                    ..ConnResult::default()
                })
            })
            .collect()
    });
    PhaseResult {
        rate,
        secs,
        conns: results,
    }
}

/// Sum of the samples named `name` over all their labels.
fn prom(samples: &[PromSample], name: &str) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .sum()
}

fn scrape(addr: &str) -> Result<Vec<PromSample>, String> {
    let mut client = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    match client.get("/metrics") {
        Ok((200, text)) => parse_prometheus(&text),
        other => Err(format!("/metrics: {other:?}")),
    }
}

/// Wait until the daemon completed every accepted job.
fn drain(addr: &str, accepted: u64) -> Result<Vec<PromSample>, String> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let samples = scrape(addr)?;
        let done = prom(&samples, "muri_jobs_completed_total");
        if done >= accepted as f64 {
            if done > accepted as f64 {
                return Err(format!(
                    "{done} jobs completed but only {accepted} were accepted"
                ));
            }
            return Ok(samples);
        }
        if Instant::now() > deadline {
            return Err(format!("only {done} of {accepted} accepted jobs completed"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Median round trip of `n` idle requests to `path`, µs.
fn idle_rtt_us(addr: &str, path: &str, n: usize) -> Result<f64, String> {
    let mut client = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut us = Vec::with_capacity(n);
    for _ in 0..n {
        let start = Instant::now();
        match client.get(path) {
            Ok((200, _)) => us.push(start.elapsed().as_secs_f64() * 1e6),
            other => return Err(format!("{path}: {other:?}")),
        }
    }
    Ok(stats::quantile(&stats::sorted(&us), 0.5))
}

/// What a run does. Every step runs a fixed number of ops, so each
/// daemon ends with an op log of the same length whatever its rate or
/// the run's length (the op-log compaction cost grows with it); longer
/// runs repeat the reference step instead.
struct Plan {
    /// Reference daemons (pooled), and their ops at [`REF_RATE`].
    ref_runs: usize,
    ref_ops: usize,
    /// Warm-up at [`WARMUP_RATE`] before each reference step.
    ref_warmup: usize,
    /// Ops of each ladder step (traced runs only).
    ladder_ops: usize,
    /// Warm-up before each ladder or capacity step.
    short_warmup: usize,
    /// Closed-loop capacity daemons (end-to-end runs only), and ops in
    /// each.
    capacity_runs: usize,
    capacity_ops: usize,
}

impl Plan {
    fn new(opts: &RunOpts) -> Plan {
        if opts.smoke {
            return Plan {
                ref_runs: 1,
                ref_ops: 600,
                ref_warmup: 100,
                ladder_ops: 300,
                short_warmup: 50,
                capacity_runs: 1,
                capacity_ops: 300,
            };
        }
        // The reference step is 8 s at 1,000 ops/s (over 1,000 probes).
        // End to end at 25 s: two of them and five 4,000-op capacity
        // runs. Traced: one, then the ladder at 2,000 ops per rate.
        Plan {
            ref_runs: if opts.trace {
                1
            } else {
                ((opts.seconds / 12.5).round() as usize).max(1)
            },
            ref_ops: 8000,
            ref_warmup: 500,
            ladder_ops: 2000,
            short_warmup: 150,
            capacity_runs: 5,
            capacity_ops: 4000,
        }
    }
}

/// Everything measured on one daemon.
struct StepRun {
    phase: PhaseResult,
    /// Submits the daemon accepted, warm-up included.
    accepted: u64,
    boot_s: f64,
    hwm_kb: u64,
    gen_ms: f64,
    /// Op-log records at the end, from the daemon's `/metrics`.
    oplog_ops: f64,
    http_rtt_us: f64,
    cmd_rtt_us: f64,
    /// Submit bodies of the step, in schedule order.
    bodies: Vec<String>,
}

/// One daemon: boot, warm up, run `ops` requests at `rate` (infinite:
/// back to back, a closed loop), drain, shut down. A reference step
/// (`probe`) polls placement probes, measures idle round trips first
/// when traced, and keeps its state directory for the replay.
#[allow(clippy::too_many_arguments)]
fn run_step(
    opts: &RunOpts,
    index: usize,
    rate: f64,
    (warmup, ops): (usize, usize),
    probe: bool,
    spans: &mut Spans,
    parent: usize,
    out: &mut Outcome,
) -> Result<StepRun, String> {
    let dir = state_dir(opts, index);
    let (daemon, _) = spans.time("daemon.boot", Some(parent), || Daemon::boot(dir.clone()));
    let daemon = daemon?;
    let (mut http_rtt_us, mut cmd_rtt_us) = (0.0, 0.0);
    if probe && opts.trace {
        http_rtt_us = idle_rtt_us(&daemon.addr, "/v1/healthz", 200)?;
        cmd_rtt_us = idle_rtt_us(&daemon.addr, "/v1/cluster", 200)?;
    }
    let phase_seed = 2 * index as u64;
    let (warm, _) = schedule(opts.seed, phase_seed, WARMUP_RATE, warmup, false);
    let warm = run_phase(&daemon.addr, warm, WARMUP_RATE, None);
    // A closed loop is an open loop whose requests are all due at once.
    let offered = if rate.is_finite() { rate } else { 1e12 };
    let (conns, gen_ms) = schedule(opts.seed, phase_seed + 1, offered, ops, probe);
    let bodies = conns
        .iter()
        .flatten()
        .filter_map(|op| match &op.kind {
            OpKind::Submit { body, .. } => Some(body.clone()),
            OpKind::Status(_) => None,
        })
        .collect();
    let origin = opts.trace.then(|| spans.origin());
    let (mut phase, _) = spans.time("step", Some(parent), || {
        run_phase(&daemon.addr, conns, rate, origin)
    });
    let accepted = warm.sum(|c| c.accepted) + phase.sum(|c| c.accepted);
    let ops = phase.sum(|c| c.ops);
    if rate.is_finite() {
        let submit = phase.pooled(|c| &c.submit_ms);
        eprintln!(
            "  r{rate}: {ops} ops in {:.2} s, achieved {:.0}/s, submit p50 {:.3} p99 {:.3} ms, lag p99 {:.3} ms{}",
            phase.secs,
            phase.achieved(),
            stats::quantile(&submit, 0.5),
            stats::quantile(&submit, 0.99),
            phase.lag_p99(),
            if phase.sustained() { ", sustained" } else { "" }
        );
    } else {
        eprintln!("  closed loop: {ops} ops, {:.0} ops/s", phase.achieved());
    }
    for c in warm.conns.iter().chain(&phase.conns) {
        for e in &c.errors {
            out.errors.push(format!("r{rate}: {e}"));
        }
    }
    for c in &mut phase.conns {
        if let Some(lane) = c.spans.take() {
            spans.absorb(lane);
        }
    }
    let (samples, _) = spans.time("daemon.drain", Some(parent), || {
        drain(&daemon.addr, accepted)
    });
    let oplog_ops = prom(&samples?, "muri_serve_oplog_ops");
    let boot_s = daemon.boot_s;
    let (hwm, _) = spans.time("daemon.shutdown", Some(parent), || daemon.shutdown());
    let hwm_kb = hwm?;
    if !probe {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(StepRun {
        phase,
        accepted,
        boot_s,
        hwm_kb,
        gen_ms,
        oplog_ops,
        http_rtt_us,
        cmd_rtt_us,
        bodies,
    })
}

impl StepRun {
    /// Submits accepted per second of the measured phase.
    fn jobs_per_s(&self) -> f64 {
        let secs = self
            .phase
            .conns
            .iter()
            .map(|c| c.last_end_s)
            .fold(0.0, f64::max);
        self.phase.sum(|c| c.accepted) as f64 / secs.max(1e-9)
    }
}

/// The highest offered rate whose submit p99 stays within the limit:
/// the step where the ladder first fails, interpolated log-log against
/// the last step that held, so the estimate is not stuck to the rungs.
/// `steps` is `(rate, submit p99 ms, sustained)` in ascending rate.
fn max_sustained(steps: &[(f64, f64, bool)]) -> f64 {
    let Some(i) = steps.iter().position(|s| !s.2) else {
        return steps.last().map_or(0.0, |s| s.0);
    };
    let (r1, p1, _) = steps[i];
    if i == 0 {
        // Even the lowest rate fails: scale it down by the overshoot.
        return r1 * (LIMIT_MS / p1.max(LIMIT_MS));
    }
    let (r0, p0, _) = steps[i - 1];
    if p1 <= LIMIT_MS || p1 <= p0 {
        // Failed on throughput or lag, not latency: the last step held.
        return r0;
    }
    let x = (LIMIT_MS.ln() - p0.max(1e-6).ln()) / (p1.ln() - p0.max(1e-6).ln());
    (r0.ln() + x.clamp(0.0, 1.0) * (r1.ln() - r0.ln())).exp()
}

/// Replay the reference daemon's state directory in-process through the
/// recovery path (which reproduces the live event order exactly), with
/// a journal sized to the history. Checks the replay saw every accepted
/// submit; returns the replay's journal totals, report and wall time.
fn replay(
    dir: &Path,
    accepted: u64,
    out: &mut Outcome,
) -> Result<(JournalTotals, muri_sim::SimReport, f64), String> {
    let cfg = sim_config();
    let capacity = (accepted as usize).saturating_mul(64).max(1 << 16);
    let sink = TelemetrySink::enabled(Telemetry::with_journal_capacity(capacity));
    let boot = RecoverBoot {
        cfg: &cfg,
        name: "live".to_string(),
        tenants: Vec::new(),
        plan_mode: PlanMode::Full,
        limits: ServeLimits::default(),
        live_time_scale: None,
        sink: sink.clone(),
    };
    crate::sim::reset_caches();
    let start = Instant::now();
    let (mut core, summary) = recover_from_dir(boot, dir, DEFAULT_SNAPSHOT_EVERY)?;
    core.run_to_completion();
    let report = core.finalize();
    let wall = start.elapsed().as_secs_f64();
    out.check(summary.submits == accepted, || {
        format!(
            "recovery replayed {} submits, the daemon accepted {accepted}",
            summary.submits
        )
    });
    let (totals, dropped) = sink
        .with(|t| (JournalTotals::of(t.journal.events()), t.journal.dropped()))
        .unwrap_or_default();
    out.check(dropped == 0, || {
        format!("the replay journal dropped {dropped} event(s)")
    });
    Ok((totals, report, wall))
}

/// Time `DurableLog::compact` over the daemon's final history.
fn compact_ms(dir: &Path, scratch: &Path) -> Result<f64, String> {
    let (snapshot, log) = load_state(dir)?;
    let merged = merge_ops(
        &snapshot,
        &log,
        OPLOG_VERSION,
        &sim_signature(&sim_config()),
    )?;
    let header = snapshot
        .first()
        .cloned()
        .ok_or("the snapshot has no header")?;
    let _ = std::fs::remove_dir_all(scratch);
    let mut durable = DurableLog::create(scratch, &header, usize::MAX)
        .map_err(|e| format!("creating {}: {e}", scratch.display()))?;
    let start = Instant::now();
    durable
        .compact(&header, &merged.ops)
        .map_err(|e| format!("compacting: {e}"))?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_dir_all(scratch);
    Ok(ms)
}

fn submit_request(body: &str) -> Result<SubmitRequest, String> {
    serde_json::from_str(body).map_err(|e| format!("submit body {body}: {e}"))
}

/// `ServeCore::submit` on an in-process live core fed the reference
/// step's submits: per-call µs. With `durable`, the core journals into
/// `scratch` and the per-submit `sync_journal` is timed instead.
fn core_probe(bodies: &[String], durable: Option<&Path>) -> Result<Vec<f64>, String> {
    let mut core = ServeCore::live(
        &sim_config(),
        Vec::new(),
        PlanMode::Full,
        TIME_SCALE,
        ServeLimits::default(),
    );
    if let Some(dir) = durable {
        let _ = std::fs::remove_dir_all(dir);
        core.attach_durable(dir, DEFAULT_SNAPSHOT_EVERY)
            .map_err(|e| format!("attaching {}: {e}", dir.display()))?;
    }
    let mut us = Vec::with_capacity(bodies.len());
    for body in bodies {
        let req = submit_request(body)?;
        let start = Instant::now();
        let resp = core.submit(&req);
        if durable.is_none() {
            us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        if !resp.accepted {
            return Err(format!("in-process submit refused: {:?}", resp.reason));
        }
        core.pump();
        if durable.is_some() {
            let start = Instant::now();
            core.sync_journal()
                .map_err(|e| format!("sync_journal: {e}"))?;
            us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }
    if let Some(dir) = durable {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(us)
}

/// Run the `serve-open` workload.
pub fn run(opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_ladder(opts, &mut out) {
        out.errors.push(e);
    }
    let _ = std::fs::remove_dir_all(work_dir(opts));
    out
}

/// Everything the run writes besides its trace files; removed at the end.
fn work_dir(opts: &RunOpts) -> PathBuf {
    opts.out_dir.join(format!("serve-{}", std::process::id()))
}

/// State directory of the run's `index`-th daemon.
fn state_dir(opts: &RunOpts, index: usize) -> PathBuf {
    work_dir(opts).join(format!("state-{index}"))
}

fn scratch_dir(opts: &RunOpts) -> PathBuf {
    work_dir(opts).join("scratch")
}

/// State-directory indices: reference daemons first, then the ladder,
/// then the capacity runs.
const LADDER_BASE: usize = 100;
const CAPACITY_BASE: usize = 200;

fn run_ladder(opts: &RunOpts, out: &mut Outcome) -> Result<(), String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("creating {}: {e}", opts.out_dir.display()))?;
    let plan = Plan::new(opts);
    let mut spans = Spans::new(Instant::now());
    let root = spans.open("run", None);
    let mut refs = Vec::with_capacity(plan.ref_runs);
    for i in 0..plan.ref_runs {
        let ops = (plan.ref_warmup, plan.ref_ops);
        refs.push(run_step(
            opts, i, REF_RATE, ops, true, &mut spans, root, out,
        )?);
    }
    let pooled = |f: fn(&ConnResult) -> &Vec<f64>| {
        stats::sorted(
            &refs
                .iter()
                .flat_map(|r| r.phase.pooled(f))
                .collect::<Vec<_>>(),
        )
    };
    let submit = pooled(|c| &c.submit_ms);
    let place = pooled(|c| &c.place_ms);
    out.check_tail("reference-step submits", submit.len(), opts.smoke);
    out.check_tail("placement probes", place.len(), opts.smoke);
    let mut steps = Vec::new();
    if opts.trace {
        for (i, &rate) in RATES.iter().enumerate() {
            let ops = (plan.short_warmup, plan.ladder_ops);
            steps.push(run_step(
                opts,
                LADDER_BASE + i,
                rate,
                ops,
                false,
                &mut spans,
                root,
                out,
            )?);
        }
    } else {
        for i in 0..plan.capacity_runs {
            let ops = (plan.short_warmup, plan.capacity_ops);
            let index = CAPACITY_BASE + i;
            steps.push(run_step(
                opts,
                index,
                f64::INFINITY,
                ops,
                false,
                &mut spans,
                root,
                out,
            )?);
        }
    }
    for s in refs.iter().chain(&steps) {
        out.attempted += s.phase.sum(|c| c.ops);
        out.failed += s.phase.sum(|c| c.refused)
            + s.phase
                .conns
                .iter()
                .map(|c| c.errors.len() as u64)
                .sum::<u64>();
    }
    if opts.trace {
        set_layer_metrics(opts, &refs[0], &steps, &mut spans, root, out)?;
        spans.close(root);
        crate::write_output(opts, "spans", &spans.to_chrome_json(), out);
        return Ok(());
    }
    let jobs_per_s: Vec<f64> = steps.iter().map(StepRun::jobs_per_s).collect();
    let boots: Vec<f64> = refs.iter().chain(&steps).map(|s| s.boot_s).collect();
    let hwm_kb = refs.iter().map(|r| r.hwm_kb).max().unwrap_or(0);
    let m = &mut out.metrics;
    m.set("setup_s", stats::quantile(&stats::sorted(&boots), 0.5));
    m.set(
        "jobs_per_s",
        stats::quantile(&stats::sorted(&jobs_per_s), 0.5),
    );
    m.set("latency_p50_ms", stats::quantile(&submit, 0.50));
    m.set("peak_rss_mb", hwm_kb as f64 / 1024.0);
    Ok(())
}

fn set_layer_metrics(
    opts: &RunOpts,
    refr: &StepRun,
    ladder: &[StepRun],
    spans: &mut Spans,
    root: usize,
    out: &mut Outcome,
) -> Result<(), String> {
    let dir = state_dir(opts, 0);
    let scratch = scratch_dir(opts);
    let (replayed, _) = spans.time("recover.replay", Some(root), || {
        replay(&dir, refr.accepted, out)
    });
    let (totals, report, replay_s) = replayed?;
    let (compact, _) = spans.time("journal.compact", Some(root), || compact_ms(&dir, &scratch));
    let compact = compact?;
    let (submit_us, _) = spans.time("core.submit", Some(root), || core_probe(&refr.bodies, None));
    let submit_us = stats::sorted(&submit_us?);
    let (commit_us, _) = spans.time("core.commit", Some(root), || {
        core_probe(&refr.bodies, Some(&scratch))
    });
    let commit_us = stats::sorted(&commit_us?);
    let m: &mut Metrics = &mut out.metrics;
    m.not_exercised(&["cluster.", "telemetry."]);
    set_planner_metrics(m, std::slice::from_ref(&totals));
    m.set("workload.generate_ms", refr.gen_ms);
    m.set("sched.avg_jct_s", report.avg_jct_secs());
    m.set("sched.p99_jct_s", report.p99_jct_secs());
    m.set("sched.makespan_s", report.makespan_secs());
    m.set("sched.slo_miss_ratio", 0.0);
    m.set("engine.events", report.events as f64);
    m.set("engine.self_s", replay_s - totals.plan_s());
    m.set("serve.http_rtt_us", refr.http_rtt_us);
    m.set("serve.cmd_rtt_us", refr.cmd_rtt_us);
    m.set(
        "serve.core_submit_us_p50",
        stats::quantile(&submit_us, 0.50),
    );
    m.set(
        "serve.core_submit_us_p99",
        stats::quantile(&submit_us, 0.99),
    );
    m.set("serve.commit_us_p50", stats::quantile(&commit_us, 0.50));
    m.set(
        "serve.commit_ms_max",
        commit_us.last().copied().unwrap_or(0.0) / 1e3,
    );
    m.set("serve.compact_ms_end", compact);
    m.set("serve.oplog_ops", refr.oplog_ops);
    m.set(
        "serve.refused",
        std::iter::once(refr)
            .chain(ladder)
            .map(|s| s.phase.sum(|c| c.refused))
            .sum::<u64>() as f64,
    );
    let submit = refr.phase.pooled(|c| &c.submit_ms);
    m.set("serve.submit_p99_ms", stats::quantile(&submit, 0.99));
    m.set(
        "serve.status_p99_ms",
        stats::quantile(&refr.phase.pooled(|c| &c.status_ms), 0.99),
    );
    let place = refr.phase.pooled(|c| &c.place_ms);
    m.set("serve.place_p50_ms", stats::quantile(&place, 0.50));
    m.set("serve.place_p99_ms", stats::quantile(&place, 0.99));
    let points: Vec<(f64, f64, bool)> = ladder
        .iter()
        .map(|s| (s.phase.rate, s.phase.submit_p99(), s.phase.sustained()))
        .collect();
    m.set("serve.max_rps", max_sustained(&points));
    for (name, s) in CURVE.iter().zip(ladder) {
        m.set(name, s.phase.submit_p99());
    }
    m.set("loadgen.lag_p99_ms", refr.phase.lag_p99());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_seeded_and_split_across_connections() {
        let (a, _) = schedule(3, 1, 1000.0, 2000, true);
        let (b, _) = schedule(3, 1, 1000.0, 2000, true);
        let (c, _) = schedule(4, 1, 1000.0, 2000, true);
        let key = |s: &Vec<Vec<Op>>| -> Vec<String> {
            s.iter()
                .flatten()
                .map(|o| format!("{:.9}{:?}", o.due_s, o.kind))
                .collect()
        };
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
        assert_eq!(a.len(), CONNS);
        let ops: usize = a.iter().map(Vec::len).sum();
        assert_eq!(ops, 2000);
        let last = a.iter().flatten().map(|o| o.due_s).fold(0.0, f64::max);
        assert!(
            (1.7..2.3).contains(&last),
            "2000 ops at 1000/s took {last} s"
        );
        for conn in &a {
            assert!(
                matches!(conn[0].kind, OpKind::Submit { .. }),
                "first op submits"
            );
            assert!(conn.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        }
        let submits = a
            .iter()
            .flatten()
            .filter(|o| matches!(o.kind, OpKind::Submit { .. }))
            .count();
        let share = submits as f64 / ops as f64;
        assert!((0.75..0.85).contains(&share), "submit share {share}");
        let probes = a
            .iter()
            .flatten()
            .filter(|o| matches!(o.kind, OpKind::Submit { probe: true, .. }))
            .count();
        // Every sixth submit of each connection.
        let per_conn: usize = a
            .iter()
            .map(|c| {
                c.iter()
                    .filter(|o| matches!(o.kind, OpKind::Submit { .. }))
                    .count()
                    / PROBE_EVERY as usize
            })
            .sum();
        assert_eq!(probes, per_conn);
    }

    #[test]
    fn submit_bodies_parse_and_job_ids_extract() {
        let (s, _) = schedule(9, 0, 500.0, 500, false);
        for op in s.iter().flatten() {
            if let OpKind::Submit { body, .. } = &op.kind {
                let req = submit_request(body).expect("valid submit");
                assert!((10..=200).contains(&req.iterations));
                assert!([1, 2, 4].contains(&req.num_gpus));
            }
        }
        assert_eq!(job_id(r#"{"accepted":true,"job":42}"#), Some(42));
        assert_eq!(job_id(r#"{"accepted":false}"#), None);
    }

    #[test]
    fn max_sustained_interpolates_between_rungs() {
        let held = |r: f64, p: f64| (r, p, p <= LIMIT_MS);
        // Crossing halfway (log-log) between 1000 and 4000.
        let steps = [held(500.0, 2.0), held(1000.0, 5.0), held(4000.0, 20.0)];
        assert!((max_sustained(&steps) - 2000.0).abs() < 1e-6);
        assert_eq!(
            max_sustained(&[held(500.0, 1.0), held(1000.0, 2.0)]),
            1000.0
        );
        assert_eq!(max_sustained(&[held(500.0, 20.0)]), 250.0);
        // A step that fails on throughput alone keeps the last rung.
        assert_eq!(
            max_sustained(&[held(500.0, 1.0), (1000.0, 3.0, false)]),
            500.0
        );
    }

    #[test]
    fn prometheus_counters_sum_over_labels() {
        let text = "# TYPE c_total counter\nc_total{x=\"a\"} 3\nc_total{x=\"b\"} 4\n";
        let samples = parse_prometheus(text).expect("valid text");
        assert_eq!(prom(&samples, "c_total"), 7.0);
    }

    #[test]
    fn in_process_probes_time_every_submit() {
        let (s, _) = schedule(5, 0, 400.0, 200, false);
        let bodies: Vec<String> = s
            .iter()
            .flatten()
            .filter_map(|o| match &o.kind {
                OpKind::Submit { body, .. } => Some(body.clone()),
                OpKind::Status(_) => None,
            })
            .collect();
        let us = core_probe(&bodies, None).expect("live core");
        assert_eq!(us.len(), bodies.len());
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("probe-test-{}", std::process::id()));
        let us = core_probe(&bodies, Some(&dir)).expect("durable core");
        assert_eq!(us.len(), bodies.len());
        assert!(!dir.exists());
    }
}
