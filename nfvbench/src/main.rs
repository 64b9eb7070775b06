//! `nfvbench`: the repository's benchmark.
//!
//! ```text
//! nfvbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one named workload against the public APIs of `nfv-detect`,
//! `nfv-syslog` and `nfv-simnet`, checks that its outputs are correct,
//! and prints one JSON result line last on stdout: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics of a traced run with
//! `--trace 1`. A failed correctness gate exits 1 without a result.
//! Spans and a full record of each run (seed, `nproc`, thread counts,
//! commit) are written under `.bench_out/`. See `README.md` beside this
//! crate for the workloads and the metric-to-layer map.

mod fleet;
mod layers;
mod pipeline;
mod probe;
mod report;
mod serve;
mod stats;
mod trace;

use report::Report;
use std::process::ExitCode;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] =
    &["serve-heartbeat", "serve-fleet", "pipeline-update", "fleet-month"];

/// Parsed command line.
pub struct Opts {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured time per run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Tiny inputs, for the self-test only.
    pub tiny: bool,
    /// Cores available to this process; no thread count exceeds it.
    pub nproc: usize,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tiny = false;
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}; expected one of {WORKLOADS:?}"));
                }
                workload = Some(w);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<u32>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1..=600".into());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn vm_hwm_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM")?;
    let kb: f64 = line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).ok_or("bad VmHWM")?;
    Ok(kb / 1024.0)
}

/// The commit under test: `.git` when the checkout has one, else
/// "unknown", plus an FNV digest of every source file under `crates/`
/// so results from a checkout without git history stay attributable.
pub fn commit() -> String {
    let git = || -> Option<String> {
        let head = std::fs::read_to_string(".git/HEAD").ok()?;
        let head = head.trim();
        let Some(r) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        if let Ok(id) = std::fs::read_to_string(format!(".git/{r}")) {
            return Some(id.trim().to_string());
        }
        let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
        packed.lines().find(|l| l.ends_with(r)).map(|l| l[..l.len() - r.len()].trim().to_string())
    };
    let mut files = Vec::new();
    let mut dirs = vec![std::path::PathBuf::from("crates")];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut digest = stats::Digest::default();
    for f in &files {
        digest.bytes(f.to_string_lossy().as_bytes());
        digest.bytes(&std::fs::read(f).unwrap_or_default());
    }
    format!("{} src:{:016x}", git().unwrap_or_else(|| "unknown".into()), digest.value())
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: nfvbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new(&opts);
    let outcome = match opts.workload.as_str() {
        "serve-heartbeat" => serve::heartbeat(&opts, &mut report),
        "serve-fleet" => serve::fleet(&opts, &mut report),
        "pipeline-update" => pipeline::run(&opts, &mut report),
        "fleet-month" => fleet::run(&opts, &mut report),
        other => unreachable!("workload {other} was validated"),
    };
    let rss = vm_hwm_mib();
    match (outcome, rss) {
        (Ok(()), Ok(rss)) => {
            report.set("peak_rss_mib", rss);
            println!("{}", report.finish(opts.nproc));
            ExitCode::SUCCESS
        }
        (Err(e), _) => {
            eprintln!("nfvbench: correctness gate failed: {e}");
            ExitCode::from(1)
        }
        (_, Err(e)) => {
            eprintln!("nfvbench: cannot read peak RSS: {e}");
            ExitCode::from(1)
        }
    }
}
