//! The Seldon benchmark: end-to-end metrics of the `seldon` binary
//! (untraced runs) and per-layer metrics from an in-process replay of the
//! same seeded operations (traced runs).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <learn-cold|learn-warm|serve-edits|check-js> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. It builds the release `seldon` binary
//! (into `$CARGO_TARGET_DIR`, default `target`), works in
//! `.perfbench-work/`, prints human-readable lines, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the workloads and metrics.

mod child;
mod corpus;
mod eval;
mod report;
mod stats;
mod sys;
mod trace;
mod traced;
mod workloads;

use child::Seldon;
use report::{Outcome, END_TO_END, PER_LAYER};
use seldon_corpus::Universe;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Everything a workload run needs.
pub struct Ctx {
    pub seldon: Seldon,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub universe: Universe,
}

const WORKLOADS: [&str; 4] = ["learn-cold", "learn-warm", "serve-edits", "check-js"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(*WORKLOADS.iter().find(|w| **w == value).ok_or_else(|| {
                        format!("unknown workload `{value}` (one of {WORKLOADS:?})")
                    })?);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed expects an integer, got `{value}`"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("--seconds expects a positive number, got `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Builds the release `seldon` binary from the workspace in the current
/// directory and returns its path.
fn build_seldon() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "seldon-serve",
            "--bin",
            "seldon",
        ])
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building seldon failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("seldon");
    bin.is_file()
        .then_some(bin.clone())
        .ok_or_else(|| format!("{} was not built", bin.display()))
}

fn run(args: &Args, work: PathBuf) -> Result<Outcome, String> {
    let seldon = Seldon {
        bin: build_seldon()?,
        stderr_log: work.join("seldon.stderr"),
    };
    let ctx = Ctx {
        seldon,
        work,
        seed: args.seed,
        seconds: args.seconds,
        universe: Universe::new(),
    };
    match (args.workload, args.trace) {
        ("learn-cold", false) => workloads::learn_cold(&ctx),
        ("learn-warm", false) => workloads::learn_warm(&ctx),
        ("serve-edits", false) => workloads::serve_edits(&ctx),
        ("check-js", false) => workloads::check_js(&ctx),
        ("learn-cold", true) => traced::learn(&ctx, false),
        ("learn-warm", true) => traced::learn(&ctx, true),
        ("serve-edits", true) => traced::serve(&ctx),
        ("check-js", true) => traced::check(&ctx),
        _ => unreachable!("parse_args only accepts known workloads"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".perfbench-work").join(args.workload);
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args, work.clone());
    let _ = std::fs::remove_dir_all(&work);
    // Only succeeds once no other workload's directory is left.
    let _ = std::fs::remove_dir(".perfbench-work");
    match result {
        Ok(outcome) => {
            println!(
                "workload {} seed {} ({}, {} s per run)",
                args.workload,
                args.seed,
                if args.trace { "traced" } else { "untraced" },
                args.seconds
            );
            for line in &outcome.lines {
                println!("  {line}");
            }
            println!(
                "{}",
                outcome.to_json(if args.trace { PER_LAYER } else { END_TO_END })
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
