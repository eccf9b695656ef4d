//! `perfbench` — the repository benchmark: trace replay and durable
//! serving, measured end to end (untraced) and layer by layer (traced).
//!
//! ```text
//! perfbench --workload NAME|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a table of every figure (with unit and sample count) and every
//! correctness check, one `record` line (provenance + figures), and, as
//! the last line, the JSON result `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics with `--trace 0`, the per-layer
//! ones with `--trace 1`. Exits 1 when a check fails, 2 on bad usage.
//! See README.md for the workloads and what each metric means.

mod calib;
mod loadgen;
mod replay;
mod report;
mod serve;
mod stats;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Every workload, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = [
    "replay-azure",
    "replay-dense",
    "serve-durable",
    "serve-portfolio",
];

/// Where a run keeps its scratch files, under the checkout root (the
/// build directory, which version control ignores).
const WORK_ROOT: &str = ".bench_build/perfbench-work";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn flag<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let required = |key: &str| flag(args, key).ok_or_else(|| format!("missing {key}"));
    let workload = required("--workload")?.to_string();
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?} or all)"
        ));
    }
    let seed = required("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = required("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let traced = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        traced,
    })
}

/// Runs one workload in its own scratch directory, removed afterwards.
fn run_workload(name: &str, args: &Args) -> Outcome {
    let work = PathBuf::from(WORK_ROOT).join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&work).expect("create the work directory");
    let mut out = Outcome::default();
    #[allow(clippy::cast_precision_loss)]
    let seconds = args.seconds as f64;
    match name {
        "replay-azure" => replay::run(
            name,
            &replay::AZURE,
            args.seed,
            seconds,
            args.traced,
            &work,
            &mut out,
        ),
        "replay-dense" => replay::run(
            name,
            &replay::DENSE,
            args.seed,
            seconds,
            args.traced,
            &work,
            &mut out,
        ),
        "serve-durable" => serve::run(
            &serve::DURABLE,
            args.seed,
            seconds,
            args.traced,
            &work,
            &mut out,
        ),
        "serve-portfolio" => serve::run(
            &serve::PORTFOLIO,
            args.seed,
            seconds,
            args.traced,
            &work,
            &mut out,
        ),
        _ => unreachable!("workload names are validated"),
    }
    let _ = std::fs::remove_dir_all(&work);
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("replay-child") {
        return match replay::child_entry(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench replay-child: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload NAME|all --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    if !Path::new("Cargo.toml").exists() || !Path::new("perfbench").is_dir() {
        eprintln!("perfbench: run from the checkout root (bash perfbench/run.sh ...)");
        return ExitCode::from(2);
    }
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (catalogue, zero_fill) = if args.traced {
        (PER_LAYER, true)
    } else {
        (END_TO_END, false)
    };
    let mut all_ok = true;
    let mut lines = Vec::new();
    for name in &names {
        let out = run_workload(name, &args);
        print!("{}", out.table(name));
        let provenance = report::provenance(name, args.seed, args.seconds, args.traced);
        println!("record {}", out.record(&provenance));
        match out.result_line(catalogue, zero_fill) {
            Ok(line) => lines.push(line),
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                all_ok = false;
            }
        }
        all_ok &= out.correct();
    }
    if lines.len() == names.len() {
        // With several workloads, each result line is printed in turn;
        // the last line is the last workload's.
        for line in &lines {
            println!("{line}");
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: a correctness check failed");
        ExitCode::from(1)
    }
}
