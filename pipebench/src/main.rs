//! `pipebench`: the layered end-to-end benchmark of the memdos pipeline.
//!
//! ```text
//! pipebench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Workloads (see `README.md` for why each exists):
//!
//! * `fleet-steady-bin` — long-lived fleet on the binary wire; the
//!   detectors do the work.
//! * `fleet-churn-jsonl` — the 50k-tenant churn fleet on JSONL; the
//!   session store does the work.
//! * `respond-loop` — the closed detect → mitigate loop, generator
//!   inside the timed loop.
//! * `paper-grid` — the paper's experiment grid on the cycle-level
//!   simulator; the engine does nothing.
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) turns on the engine's stage profiler, records spans
//! around every call into each layer, and prints the per-layer metrics.
//! Report lines come first; the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Any output
//! check that fails makes the run exit non-zero.

mod catalog;
mod churn;
mod cpu;
mod grid;
mod loadgen;
mod logscan;
mod pipeline;
mod respond;
mod run;
mod stats;
mod steady;
mod trace;

use run::{Args, Run};

/// A workload's entry point.
type Entry = fn(&mut Run) -> Result<(), String>;

/// Workload names with their default seeds and entry points.
const WORKLOADS: [(&str, u64, Entry); 4] = [
    ("fleet-steady-bin", steady::DEFAULT_SEED, steady::run),
    ("fleet-churn-jsonl", churn::DEFAULT_SEED, churn::run),
    ("respond-loop", respond::DEFAULT_SEED, respond::run),
    ("paper-grid", grid::DEFAULT_SEED, grid::run),
];

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    format!(
        "usage: pipebench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

/// Parses the command line into the run's arguments.
fn parse(args: &[String]) -> Result<(Args, Entry), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed {value}"))?,
                )
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad seconds {value}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let &(name, default_seed, entry) = WORKLOADS
        .iter()
        .find(|w| w.0 == workload)
        .ok_or_else(|| format!("unknown workload {workload}"))?;
    let args = Args {
        workload: name.to_string(),
        seed: seed.unwrap_or(default_seed),
        seconds,
        traced,
    };
    Ok((args, entry))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (args, entry) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("pipebench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let mut run = Run::new(args);
    if let Err(e) = entry(&mut run) {
        eprintln!("pipebench: {}: {e}", run.args.workload);
        std::process::exit(1);
    }
    std::process::exit(run.finish());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let (a, _) = parse(&argv(
            "--workload paper-grid --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.traced),
            ("paper-grid", 7, 10.0, true)
        );
        let (a, _) = parse(&argv("--workload respond-loop")).unwrap();
        assert_eq!(a.seed, respond::DEFAULT_SEED);
        assert!(!a.traced);
        for bad in [
            "",
            "--workload nope",
            "--workload paper-grid --trace 2",
            "--workload paper-grid --seconds 0",
            "--workload paper-grid --seed",
            "--workload paper-grid --bogus 1",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
