//! `muri-benchmark`: end-to-end and per-layer numbers for the Muri
//! scheduler on four workloads. See `benchmark/README.md`.
//!
//! ```text
//! muri-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
//!                [--smoke] [--out-dir DIR] [--append FILE]
//! muri-benchmark compare A B [--history FILE]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (every end-to-end metric, or with
//! `--trace 1` every per-layer metric). The exit code is 0 only when the
//! run's correctness gate passed.

mod history;
mod layers;
mod report;
mod serve;
mod sim;
mod spans;
mod stats;

use report::Outcome;
use sim::SimWorkload;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  muri-benchmark --workload philly-t4|burst-512|hostile-t2|serve-open
                 [--seed N] [--seconds S] [--trace 0|1] [--smoke]
                 [--out-dir DIR] [--append FILE]
  muri-benchmark compare A B [--history FILE]";

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A simulator workload.
    Sim(SimWorkload),
    /// The open-loop daemon workload.
    ServeOpen,
}

impl Workload {
    /// Every workload, in the order `run.sh` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::Sim(SimWorkload::PhillyT4),
        Workload::Sim(SimWorkload::Burst512),
        Workload::Sim(SimWorkload::HostileT2),
        Workload::ServeOpen,
    ];

    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sim(SimWorkload::PhillyT4) => "philly-t4",
            Workload::Sim(SimWorkload::Burst512) => "burst-512",
            Workload::Sim(SimWorkload::HostileT2) => "hostile-t2",
            Workload::ServeOpen => "serve-open",
        }
    }

    /// Seed used when `--seed` is not given.
    pub fn reference_seed(self) -> u64 {
        match self {
            Workload::Sim(kind) => kind.reference_seed(),
            Workload::ServeOpen => serve::REFERENCE_SEED,
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Options of one measured run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// The traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Tiny inputs through the same code, for tests.
    pub smoke: bool,
    /// Where run state and the span file go.
    pub out_dir: PathBuf,
    /// History file to append this run's metrics to.
    pub append: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut smoke = false;
    let mut out_dir = PathBuf::from("benchmark/target/bench-out");
    let mut append = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            "--out-dir" => out_dir = PathBuf::from(value()?),
            "--append" => append = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunOpts {
        workload,
        seed: seed.unwrap_or_else(|| workload.reference_seed()),
        seconds,
        trace,
        smoke,
        out_dir,
        append,
    })
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    vm_hwm_kb(&std::fs::read_to_string("/proc/self/status").unwrap_or_default())
        .map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// `VmHWM` in kB from the text of a `/proc/<pid>/status` file.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// Write one of the run's Chrome trace files,
/// `<out-dir>/<kind>-<workload>-<seed>.json`.
pub fn write_output(opts: &RunOpts, kind: &str, json: &str, out: &mut Outcome) {
    let path = opts.out_dir.join(format!(
        "{kind}-{}-{}.json",
        opts.workload.name(),
        opts.seed
    ));
    let written = std::fs::create_dir_all(&opts.out_dir).and_then(|()| std::fs::write(&path, json));
    match written {
        Ok(()) => eprintln!("{kind}: {}", path.display()),
        Err(e) => out.errors.push(format!("writing {}: {e}", path.display())),
    }
}

/// Whether this build panics on integer overflow (`overflow-checks`).
fn overflow_checks() -> bool {
    std::panic::set_hook(Box::new(|_| {}));
    let overflowed = std::panic::catch_unwind(|| std::hint::black_box(255u8) + 1).is_err();
    let _ = std::panic::take_hook();
    overflowed
}

fn run(args: &[String]) -> ExitCode {
    let opts = match parse_run(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("muri-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "{} seed {} ({}, {} s{})",
        opts.workload.name(),
        opts.seed,
        if opts.trace { "traced" } else { "end to end" },
        opts.seconds,
        if opts.smoke { ", smoke" } else { "" }
    );
    let mut outcome = match opts.workload {
        Workload::Sim(kind) => sim::run(kind, &opts),
        Workload::ServeOpen => serve::run(&opts),
    };
    let text = outcome.render(opts.trace);
    if let Some(path) = &opts.append {
        if let Err(e) = history::append(path, &opts, &outcome) {
            eprintln!("muri-benchmark: appending to {}: {e}", path.display());
            print!("{text}");
            return ExitCode::FAILURE;
        }
    }
    print!("{text}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve-child") => serve::child_main(&args[1..]),
        Some("compare") => history::compare_main(&args[1..]),
        Some("build-info") => {
            println!("overflow_checks {}", overflow_checks());
            ExitCode::SUCCESS
        }
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            ExitCode::from(u8::from(args.is_empty()) * 2)
        }
        _ => run(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn run_arguments_parse() {
        let o = parse_run(&args(
            "--workload hostile-t2 --seed 9 --seconds 12 --trace 1",
        ))
        .expect("valid");
        assert_eq!(o.workload.name(), "hostile-t2");
        assert_eq!((o.seed, o.seconds, o.trace), (9, 12.0, true));
        let o = parse_run(&args("--workload philly-t4")).expect("valid");
        assert_eq!((o.seed, o.trace), (404, false));
        assert!(parse_run(&args("--workload nope")).is_err());
        assert!(parse_run(&args("--seed 3")).is_err());
        assert!(parse_run(&args("--workload serve-open --trace 2")).is_err());
    }

    #[test]
    fn vm_hwm_parses_proc_status() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(2048));
        assert_eq!(vm_hwm_kb("Name: x\n"), None);
        assert!(peak_rss_mb() > 0.0);
    }
}
