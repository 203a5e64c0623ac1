//! The daemon: a `TcpListener`, a scoped worker-thread pool, and one
//! scheduler thread owning the [`ServeCore`].
//!
//! The core holds `Rc`-based telemetry and is deliberately not `Send`,
//! so exactly one scheduler thread owns it; HTTP workers do pure I/O
//! and talk to the scheduler over a **bounded** command channel with
//! per-request reply channels. A full channel refuses the request with
//! `503` + `Retry-After` at the worker, before any scheduler work. All
//! threads are scoped (`std::thread::scope`), so nothing outlives the
//! listener.
//!
//! **Acknowledgement discipline.** When a state directory is
//! configured, the scheduler drains a burst of commands, group-commits
//! the resulting op records with one fsync, and only then sends the
//! deferred replies for mutating commands — a client never sees an ack
//! for an op a crash could lose. Read-only commands reply immediately.
//!
//! **Idle behavior.** The scheduler sleeps exactly until the next
//! queued event comes due on the wall clock ([`ServeCore::next_wakeup`])
//! and blocks indefinitely when the queue is empty — an idle daemon
//! burns no CPU. (It previously woke every 2 ms to poll, which showed
//! up as constant busy-poll load on an idle box.)
//!
//! Graceful shutdown (`POST /v1/shutdown`): the scheduler drains every
//! queued command, checkpoints all running groups, journals the
//! checkpoint barrier, flushes the telemetry journal to the configured
//! path, and replies; the handling worker then flips the shutdown flag
//! and pokes the accept loop awake with a loopback connection (to the
//! loopback address even when bound to a wildcard — connecting to
//! `0.0.0.0` itself is not routable everywhere and used to hang the
//! shutdown). [`serve`] returns `Ok(())` — exit code 0.

use crate::core::{ServeCore, ServeLimits};
use crate::http::{read_request, write_response_with, Request, RequestError};
use crate::journal;
use crate::proto::{ConfigRequest, ErrorBody, ShutdownResponse, SubmitRequest, SubmitResponse};
use crate::recover::{recover_from_dir, RecoverBoot};
use crate::tenant::TenantConfig;
use muri_core::PlanMode;
use muri_sim::SimConfig;
use muri_telemetry::{Telemetry, TelemetrySink};
use std::io::{self, BufReader};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Mutex;
use std::time::Duration;

/// How the daemon is wired up.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (printed on boot).
    pub addr: String,
    /// HTTP worker threads.
    pub workers: usize,
    /// Cluster/scheduler configuration shared with the simulator.
    pub sim: SimConfig,
    /// Tenant quotas (empty → open mode).
    pub tenants: Vec<TenantConfig>,
    /// Scheduler seconds per wall second.
    pub time_scale: f64,
    /// Flush the telemetry journal here on shutdown.
    pub journal_path: Option<String>,
    /// Backpressure bounds for the admission path.
    pub limits: ServeLimits,
    /// Bound of the worker→scheduler command channel; a full channel
    /// refuses requests with `503` + `Retry-After`.
    pub cmd_queue_depth: usize,
    /// Per-connection socket read timeout (ms); `0` disables it.
    pub read_timeout_ms: u64,
    /// Durable state directory (op log + snapshots); `None` runs
    /// without crash durability.
    pub state_dir: Option<String>,
    /// Recover from `state_dir`'s journal instead of starting fresh.
    pub recover: bool,
    /// Ops between snapshot compactions.
    pub snapshot_every: usize,
}

impl ServerConfig {
    /// Defaults: ephemeral loopback port, 4 workers, open tenancy, full
    /// planning, real time, no durable state.
    #[must_use]
    pub fn new(sim: SimConfig) -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            sim,
            tenants: Vec::new(),
            time_scale: 1.0,
            journal_path: None,
            limits: ServeLimits::default(),
            cmd_queue_depth: 256,
            read_timeout_ms: 5000,
            state_dir: None,
            recover: false,
            snapshot_every: journal::DEFAULT_SNAPSHOT_EVERY,
        }
    }
}

/// One scheduler-thread operation, with its reply channel.
enum Command {
    Submit(SubmitRequest, Sender<String>),
    Status(u32, Sender<Option<String>>),
    Cancel(u32, Sender<bool>),
    Config(ConfigRequest, Sender<String>),
    Cluster(Sender<String>),
    Metrics(Sender<String>),
    Journal(Sender<String>),
    Shutdown(Sender<ShutdownResponse>),
}

/// A reply held back until the burst's op records are fsync'd — the
/// write-ahead half of the acknowledgement discipline.
enum Deferred {
    Str(Sender<String>, String),
    Bool(Sender<bool>, bool),
}

impl Deferred {
    fn send(self) {
        match self {
            Deferred::Str(tx, v) => drop(tx.send(v)),
            Deferred::Bool(tx, v) => drop(tx.send(v)),
        }
    }
}

/// Slack added to event-deadline sleeps, so the wakeup lands just past
/// the deadline instead of just short of it.
const WAKE_GUARD: Duration = Duration::from_millis(1);

/// A daemon bound to its socket but not yet serving — lets callers
/// (tests, benches) learn the ephemeral port before starting the loop.
#[derive(Debug)]
pub struct BoundServer {
    listener: TcpListener,
    addr: std::net::SocketAddr,
    cfg: ServerConfig,
}

/// Bind the daemon's listener without serving yet.
pub fn bind(cfg: ServerConfig) -> io::Result<BoundServer> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    Ok(BoundServer {
        listener,
        addr,
        cfg,
    })
}

impl BoundServer {
    /// The bound socket address.
    #[must_use]
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Serve until a shutdown request completes. Prints
    /// `muri-serve listening on http://ADDR` on entry. Refuses to boot
    /// (with the reason) when `--recover` is set and the journal is
    /// unreadable, corrupt, or from a different config.
    pub fn run(self) -> io::Result<()> {
        if self.cfg.recover {
            // Fallible recovery work is validated up front on the
            // calling thread so a bad journal is a boot error, not a
            // daemon that serves 503s forever.
            validate_recovery(&self.cfg)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        }
        run_server(self.listener, self.addr, &self.cfg);
        Ok(())
    }
}

/// Bind and run the daemon until a shutdown request completes.
pub fn serve(cfg: ServerConfig) -> io::Result<()> {
    bind(cfg)?.run()
}

fn validate_recovery(cfg: &ServerConfig) -> Result<(), String> {
    let Some(dir) = &cfg.state_dir else {
        return Err("--recover requires a state directory".to_string());
    };
    let (snapshot, log) = journal::load_state(Path::new(dir))?;
    let sig = crate::core::sim_signature(&cfg.sim);
    crate::recover::merge_ops(&snapshot, &log, journal::OPLOG_VERSION, &sig)?;
    Ok(())
}

fn run_server(listener: TcpListener, addr: std::net::SocketAddr, cfg: &ServerConfig) {
    println!("muri-serve listening on http://{addr}");

    let (cmd_tx, cmd_rx) = mpsc::sync_channel::<Command>(cfg.cmd_queue_depth.max(1));
    let (work_tx, work_rx) = mpsc::channel::<TcpStream>();
    let work_rx = Mutex::new(work_rx);
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|s| {
        {
            let shutdown = &shutdown;
            s.spawn(move || scheduler_loop(cfg, &cmd_rx, shutdown, addr));
        }
        for _ in 0..cfg.workers.max(1) {
            let cmd_tx = cmd_tx.clone();
            let work_rx = &work_rx;
            let shutdown = &shutdown;
            s.spawn(move || loop {
                let stream = {
                    let Ok(guard) = work_rx.lock() else { break };
                    guard.recv()
                };
                let Ok(stream) = stream else { break };
                handle_connection(stream, &cmd_tx, shutdown, addr, cfg);
            });
        }
        drop(cmd_tx);

        for conn in listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            if let Ok(stream) = conn {
                if work_tx.send(stream).is_err() {
                    break;
                }
            }
        }
        drop(work_tx);
    });
}

/// Boot the core: fresh, fresh-with-journal, or recovered-from-journal.
fn boot_core(cfg: &ServerConfig) -> Result<ServeCore, String> {
    if cfg.recover {
        let Some(dir) = &cfg.state_dir else {
            return Err("--recover requires a state directory".to_string());
        };
        let boot = RecoverBoot {
            cfg: &cfg.sim,
            name: "live".to_string(),
            tenants: cfg.tenants.clone(),
            plan_mode: PlanMode::Full,
            limits: cfg.limits,
            live_time_scale: Some(cfg.time_scale),
            sink: TelemetrySink::enabled(Telemetry::new()),
        };
        let (core, summary) = recover_from_dir(boot, Path::new(dir), cfg.snapshot_every)?;
        println!(
            "muri-serve recovered {} ops ({} submits, {} cancels, {} shed) from {dir}; \
             resuming at t={}us, next job id {}",
            summary.ops,
            summary.submits,
            summary.cancels,
            summary.sheds,
            summary.resume_time_us,
            summary.next_id
        );
        return Ok(core);
    }
    let mut core = ServeCore::live(
        &cfg.sim,
        cfg.tenants.clone(),
        PlanMode::Full,
        cfg.time_scale,
        cfg.limits,
    );
    if let Some(dir) = &cfg.state_dir {
        core.attach_durable(Path::new(dir), cfg.snapshot_every)
            .map_err(|e| format!("initializing state dir {dir}: {e}"))?;
    }
    Ok(core)
}

/// The single thread that owns the (non-`Send`) core: answer commands,
/// pump the engine, group-commit the journal, and perform the shutdown
/// sequence.
fn scheduler_loop(
    cfg: &ServerConfig,
    cmd_rx: &Receiver<Command>,
    shutdown: &AtomicBool,
    addr: SocketAddr,
) {
    let mut core = match boot_core(cfg) {
        Ok(core) => core,
        Err(e) => {
            // Pre-validation on the boot thread makes this unreachable
            // in practice; fail stop rather than serve 503s forever.
            eprintln!("muri-serve: boot failed: {e}");
            shutdown.store(true, Ordering::SeqCst);
            poke_accept_loop(addr);
            return;
        }
    };
    let mut shutdown_replies: Vec<Sender<ShutdownResponse>> = Vec::new();
    let mut deferred: Vec<Deferred> = Vec::new();
    loop {
        // Sleep until the next queued event comes due; block outright
        // when the queue is empty (nothing to pump until a command
        // arrives) — no busy-polling either way.
        let first = match core.next_wakeup() {
            Some(wait) => match cmd_rx.recv_timeout(wait + WAKE_GUARD) {
                Ok(cmd) => Some(cmd),
                Err(mpsc::RecvTimeoutError::Timeout) => None,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            },
            None => match cmd_rx.recv() {
                Ok(cmd) => Some(cmd),
                Err(_) => break,
            },
        };
        if let Some(cmd) = first {
            handle_command(&mut core, cmd, &mut deferred, &mut shutdown_replies);
        }
        // Drain the queue so a burst is answered in one wakeup — and
        // one fsync.
        while let Ok(cmd) = cmd_rx.try_recv() {
            handle_command(&mut core, cmd, &mut deferred, &mut shutdown_replies);
        }
        core.pump();
        if let Err(e) = core.sync_journal() {
            // Fail stop: an op that cannot be made durable must never
            // be acknowledged.
            eprintln!("muri-serve: journal sync failed, stopping: {e}");
            shutdown.store(true, Ordering::SeqCst);
            poke_accept_loop(addr);
            break;
        }
        for d in deferred.drain(..) {
            d.send();
        }
        if !shutdown_replies.is_empty() {
            let resp = core.shutdown();
            if let Some(path) = &cfg.journal_path {
                let _ = journal::write_text(path, &core.journal_jsonl());
            }
            for reply in shutdown_replies.drain(..) {
                let _ = reply.send(resp.clone());
            }
            break;
        }
    }
}

fn handle_command(
    core: &mut ServeCore,
    cmd: Command,
    deferred: &mut Vec<Deferred>,
    shutdown_replies: &mut Vec<Sender<ShutdownResponse>>,
) {
    match cmd {
        Command::Submit(req, reply) => {
            let resp = core.submit(&req);
            let body = serde_json::to_string(&resp).unwrap_or_default();
            deferred.push(Deferred::Str(reply, body));
        }
        Command::Status(id, reply) => {
            let body = core.status(id).and_then(|v| serde_json::to_string(&v).ok());
            let _ = reply.send(body);
        }
        Command::Cancel(id, reply) => {
            deferred.push(Deferred::Bool(reply, core.cancel(id)));
        }
        Command::Config(req, reply) => {
            let body = serde_json::to_string(&core.apply_config(&req)).unwrap_or_default();
            deferred.push(Deferred::Str(reply, body));
        }
        Command::Cluster(reply) => {
            let _ = reply.send(serde_json::to_string(&core.cluster()).unwrap_or_default());
        }
        Command::Metrics(reply) => {
            let _ = reply.send(core.metrics_text());
        }
        Command::Journal(reply) => {
            let _ = reply.send(core.journal_jsonl());
        }
        Command::Shutdown(reply) => shutdown_replies.push(reply),
    }
}

/// Wake the accept loop with a loopback connection so it observes the
/// shutdown flag. A wildcard bind (`0.0.0.0`/`::`) is not itself a
/// connectable destination on every platform, so substitute loopback.
fn poke_accept_loop(addr: SocketAddr) {
    let mut poke = addr;
    if poke.ip().is_unspecified() {
        match poke.ip() {
            IpAddr::V4(_) => poke.set_ip(IpAddr::V4(Ipv4Addr::LOCALHOST)),
            IpAddr::V6(_) => poke.set_ip(IpAddr::V6(Ipv6Addr::LOCALHOST)),
        }
    }
    let _ = TcpStream::connect_timeout(&poke, Duration::from_secs(1));
}

/// Serve keep-alive requests on one connection until it closes (or a
/// shutdown request asks us to stop).
fn handle_connection(
    stream: TcpStream,
    cmd_tx: &SyncSender<Command>,
    shutdown: &AtomicBool,
    addr: std::net::SocketAddr,
    cfg: &ServerConfig,
) {
    let _ = stream.set_nodelay(true);
    if cfg.read_timeout_ms > 0 {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(cfg.read_timeout_ms)));
    }
    let mut reader = BufReader::new(stream);
    loop {
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => break,
            Err(e) => {
                // The connection's framing is unknown after any read
                // error: answer once and close.
                let (status, reason) = match &e {
                    RequestError::TooLarge => (413, "Payload Too Large"),
                    RequestError::Timeout => (408, "Request Timeout"),
                    RequestError::Malformed(_) => (400, "Bad Request"),
                };
                let body = error_body(&format!("bad request: {e}"));
                let _ = write_response_with(reader.get_mut(), status, reason, JSON, &[], &body);
                break;
            }
        };
        let keep_alive = req.keep_alive;
        let routed = route(&req, cmd_tx, cfg);
        if write_response_with(
            reader.get_mut(),
            routed.status,
            routed.reason,
            routed.ctype,
            &routed.headers,
            &routed.body,
        )
        .is_err()
        {
            break;
        }
        if routed.stop {
            // Shutdown has been checkpointed and acknowledged: flip the
            // flag, then poke the accept loop awake so it observes it.
            shutdown.store(true, Ordering::SeqCst);
            poke_accept_loop(addr);
            break;
        }
        if !keep_alive {
            break;
        }
    }
}

const JSON: &str = "application/json";

fn error_body(msg: &str) -> String {
    serde_json::to_string(&ErrorBody {
        error: msg.to_string(),
    })
    .unwrap_or_default()
}

/// One shaped response.
struct Routed {
    status: u16,
    reason: &'static str,
    ctype: &'static str,
    body: String,
    stop: bool,
    headers: Vec<(&'static str, String)>,
}

impl Routed {
    fn new(status: u16, reason: &'static str, ctype: &'static str, body: String) -> Self {
        Routed {
            status,
            reason,
            ctype,
            body,
            stop: false,
            headers: Vec::new(),
        }
    }

    fn ok(body: String) -> Self {
        Routed::new(200, "OK", JSON, body)
    }

    fn not_found() -> Self {
        Routed::new(404, "Not Found", JSON, error_body("no such resource"))
    }

    fn bad_request(msg: &str) -> Self {
        Routed::new(400, "Bad Request", JSON, error_body(msg))
    }
}

fn unavailable() -> Routed {
    let mut r = Routed::new(
        503,
        "Service Unavailable",
        JSON,
        error_body("scheduler is shutting down"),
    );
    r.stop = true;
    r
}

/// `Retry-After` seconds from a millisecond backoff hint (rounded up,
/// at least 1 — zero would invite an immediate retry storm).
fn retry_after_secs(ms: u64) -> u64 {
    ms.div_ceil(1000).max(1)
}

/// The worker-side overload refusal: the command channel is full.
fn overloaded(cfg: &ServerConfig) -> Routed {
    let mut r = Routed::new(
        503,
        "Service Unavailable",
        JSON,
        error_body("scheduler command queue is full"),
    );
    r.headers.push((
        "Retry-After",
        retry_after_secs(cfg.limits.retry_after_ms).to_string(),
    ));
    r
}

/// Enqueue a command on the bounded channel without blocking the
/// worker: a full queue is backpressure, not a wait.
fn enqueue(cmd_tx: &SyncSender<Command>, cmd: Command, cfg: &ServerConfig) -> Result<(), Routed> {
    match cmd_tx.try_send(cmd) {
        Ok(()) => Ok(()),
        Err(TrySendError::Full(_)) => Err(overloaded(cfg)),
        Err(TrySendError::Disconnected(_)) => Err(unavailable()),
    }
}

/// Dispatch one request to the scheduler thread and shape the response.
fn route(req: &Request, cmd_tx: &SyncSender<Command>, cfg: &ServerConfig) -> Routed {
    match (req.method.as_str(), req.target.as_str()) {
        ("GET", "/v1/healthz") => Routed::ok("{\"ok\":true}".to_string()),
        ("POST", "/v1/jobs") => {
            let parsed: Result<SubmitRequest, _> = serde_json::from_str(&req.body);
            match parsed {
                Ok(sub) => {
                    let (tx, rx) = mpsc::channel();
                    if let Err(r) = enqueue(cmd_tx, Command::Submit(sub, tx), cfg) {
                        return r;
                    }
                    match rx.recv() {
                        Ok(body) => submit_routed(body),
                        Err(_) => unavailable(),
                    }
                }
                Err(e) => Routed::bad_request(&format!("bad submit body: {e}")),
            }
        }
        ("POST", "/v1/config") => {
            let parsed: Result<ConfigRequest, _> = serde_json::from_str(&req.body);
            match parsed {
                Ok(change) => {
                    let (tx, rx) = mpsc::channel();
                    if let Err(r) = enqueue(cmd_tx, Command::Config(change, tx), cfg) {
                        return r;
                    }
                    match rx.recv() {
                        Ok(body) => Routed::ok(body),
                        Err(_) => unavailable(),
                    }
                }
                Err(e) => Routed::bad_request(&format!("bad config body: {e}")),
            }
        }
        ("GET", "/v1/cluster") => match ask(cmd_tx, Command::Cluster, cfg) {
            Ok(body) => Routed::ok(body),
            Err(r) => r,
        },
        ("GET", "/metrics") => match ask(cmd_tx, Command::Metrics, cfg) {
            Ok(body) => Routed::new(200, "OK", "text/plain; version=0.0.4", body),
            Err(r) => r,
        },
        ("GET", "/v1/journal") => match ask(cmd_tx, Command::Journal, cfg) {
            Ok(body) => Routed::new(200, "OK", "application/x-ndjson", body),
            Err(r) => r,
        },
        ("POST", "/v1/shutdown") => {
            let (tx, rx) = mpsc::channel();
            if let Err(r) = enqueue(cmd_tx, Command::Shutdown(tx), cfg) {
                return r;
            }
            match rx.recv() {
                Ok(resp) => {
                    let mut r = Routed::ok(serde_json::to_string(&resp).unwrap_or_default());
                    r.stop = true;
                    r
                }
                Err(_) => unavailable(),
            }
        }
        ("GET", target) => match parse_job_path(target) {
            Some(id) => {
                let (tx, rx) = mpsc::channel();
                if let Err(r) = enqueue(cmd_tx, Command::Status(id, tx), cfg) {
                    return r;
                }
                match rx.recv() {
                    Ok(Some(body)) => Routed::ok(body),
                    Ok(None) => Routed::not_found(),
                    Err(_) => unavailable(),
                }
            }
            None => Routed::not_found(),
        },
        ("POST", target) => match parse_cancel_path(target) {
            Some(id) => {
                let (tx, rx) = mpsc::channel();
                if let Err(r) = enqueue(cmd_tx, Command::Cancel(id, tx), cfg) {
                    return r;
                }
                match rx.recv() {
                    Ok(true) => Routed::ok("{\"cancelled\":true}".to_string()),
                    Ok(false) => Routed::not_found(),
                    Err(_) => unavailable(),
                }
            }
            None => Routed::not_found(),
        },
        _ => Routed::not_found(),
    }
}

/// Shape a submit reply: accepted → 200; retryable refusal → 429 (the
/// tenant's own depth cap) or 503 (daemon-wide saturation), both with
/// `Retry-After`; permanent refusal (bad shape, unknown tenant, over
/// quota) → 409.
fn submit_routed(body: String) -> Routed {
    let Ok(resp) = serde_json::from_str::<SubmitResponse>(&body) else {
        return Routed::ok(body);
    };
    if resp.accepted {
        return Routed::ok(body);
    }
    let Some(ms) = resp.retry_after_ms else {
        return Routed::new(409, "Conflict", JSON, body);
    };
    let tenant_cap = resp
        .reason
        .as_deref()
        .is_some_and(|r| r.starts_with("tenant"));
    let (status, reason) = if tenant_cap {
        (429, "Too Many Requests")
    } else {
        (503, "Service Unavailable")
    };
    let mut r = Routed::new(status, reason, JSON, body);
    r.headers
        .push(("Retry-After", retry_after_secs(ms).to_string()));
    r
}

fn ask(
    cmd_tx: &SyncSender<Command>,
    make: impl FnOnce(Sender<String>) -> Command,
    cfg: &ServerConfig,
) -> Result<String, Routed> {
    let (tx, rx) = mpsc::channel();
    enqueue(cmd_tx, make(tx), cfg)?;
    rx.recv().map_err(|_| unavailable())
}

/// `/v1/jobs/{id}` → id.
fn parse_job_path(target: &str) -> Option<u32> {
    target.strip_prefix("/v1/jobs/")?.parse().ok()
}

/// `/v1/jobs/{id}/cancel` → id.
fn parse_cancel_path(target: &str) -> Option<u32> {
    target
        .strip_prefix("/v1/jobs/")?
        .strip_suffix("/cancel")?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_paths_parse() {
        assert_eq!(parse_job_path("/v1/jobs/17"), Some(17));
        assert_eq!(parse_job_path("/v1/jobs/x"), None);
        assert_eq!(parse_cancel_path("/v1/jobs/17/cancel"), Some(17));
        assert_eq!(parse_cancel_path("/v1/jobs/17"), None);
    }

    #[test]
    fn retry_after_rounds_up_and_never_says_zero() {
        assert_eq!(retry_after_secs(0), 1);
        assert_eq!(retry_after_secs(1), 1);
        assert_eq!(retry_after_secs(1000), 1);
        assert_eq!(retry_after_secs(1001), 2);
        assert_eq!(retry_after_secs(2500), 3);
    }

    #[test]
    fn submit_refusals_map_to_the_right_statuses() {
        let accepted = r#"{"accepted":true,"job":1}"#.to_string();
        assert_eq!(submit_routed(accepted).status, 200);
        let permanent = r#"{"accepted":false,"reason":"unknown model"}"#.to_string();
        assert_eq!(submit_routed(permanent).status, 409);
        let tenant =
            r#"{"accepted":false,"reason":"tenant \"a\" is at its open-job depth cap (2)","retry_after_ms":500}"#
                .to_string();
        let routed = submit_routed(tenant);
        assert_eq!(routed.status, 429);
        assert!(routed.headers.iter().any(|(k, _)| *k == "Retry-After"));
        let global =
            r#"{"accepted":false,"reason":"daemon is at its open-job bound (4)","retry_after_ms":500}"#
                .to_string();
        assert_eq!(submit_routed(global).status, 503);
    }

    #[test]
    fn wildcard_poke_targets_loopback() {
        // Regression: poking `0.0.0.0:port` hangs on hosts where the
        // wildcard is not connectable; the poke must rewrite to
        // loopback. Exercised end to end in tests/http_daemon.rs by
        // shutting down a daemon bound to 0.0.0.0.
        let addr: SocketAddr = "0.0.0.0:7070".parse().expect("addr");
        let mut poke = addr;
        if poke.ip().is_unspecified() {
            poke.set_ip(IpAddr::V4(Ipv4Addr::LOCALHOST));
        }
        assert_eq!(poke.to_string(), "127.0.0.1:7070");
    }
}
