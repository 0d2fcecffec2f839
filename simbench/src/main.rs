//! Runs one benchmark workload and prints its metrics; the last line of
//! standard output is the result object.
//!
//! ```text
//! cargo run --release --offline --manifest-path simbench/Cargo.toml -- \
//!     --workload eval-sweep --seed 42 --seconds 10 --trace 0
//! cargo run --release --offline --manifest-path simbench/Cargo.toml -- --workload all
//! cargo run --release --offline --manifest-path simbench/Cargo.toml -- --write-reference
//! ```
//!
//! `--workload all` runs every workload, each in its own process.

use std::process::{Command, ExitCode};

use burst_simbench::digest::{self, Digests};
use burst_simbench::host;
use burst_simbench::metrics::{END_TO_END, PER_LAYER};
use burst_simbench::runs::{self, Plan, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: burst-simbench [--workload eval-sweep|swim-dense|all] \
                     [--seed N] [--seconds N] [--trace 0|1] | --write-reference";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => out.workload = None,
            "--workload" => {
                out.workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => out.seed = number()?,
            "--seconds" => out.seconds = number()?,
            "--trace" => {
                out.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(out)
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let plan = Plan::new(workload, args.seed);
    println!(
        "{}",
        host::stamp(
            workload.name(),
            plan.jobs(),
            plan.instructions,
            plan.seed,
            args.trace
        )
    );
    let reference = match runs::reference(&plan) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (outcome, list) = if args.trace {
        (runs::run_traced(&plan, &reference), PER_LAYER)
    } else {
        (
            runs::run_untraced(&plan, args.seconds as f64, &reference),
            END_TO_END,
        )
    };
    for p in &outcome.problems {
        eprintln!("failure: {p}");
    }
    match outcome.render(list) {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut args: Vec<String> = raw
            .chunks(2)
            .filter(|pair| pair[0] != "--workload")
            .flatten()
            .cloned()
            .collect();
        args.extend(["--workload".to_string(), w.name().to_string()]);
        match Command::new(&exe).args(&args).status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{}: exited with {s}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("{}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Records the default-seed reference of every workload with the
/// per-cycle reference engine.
fn write_reference() -> ExitCode {
    let mut text = String::from(
        "# Reference digests at the default seed and budgets, from Engine::CycleNoSkip.\n\
         # Regenerate with --write-reference only when the simulated model changes.\n",
    );
    for w in Workload::ALL {
        let plan = Plan::new(w, DEFAULT_SEED);
        let digests: Digests = match runs::compute_reference(&plan) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        text.push_str(&digest::render(w.name(), &digests));
    }
    match std::fs::write(digest::RECORDED_PATH, text) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}: {e}", digest::RECORDED_PATH);
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.iter().any(|a| a == "--write-reference") {
        return write_reference();
    }
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&raw),
    }
}
