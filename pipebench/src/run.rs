//! One benchmark run: its arguments, the metrics it measured, the output
//! checks it made, its trace, and the result line it prints.

use crate::catalog::{self, Kind};
use crate::trace::Trace;
use std::collections::BTreeMap;
use std::time::Instant;

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring budget, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
}

/// State of one run.
#[derive(Debug)]
pub struct Run {
    /// The run's arguments.
    pub args: Args,
    /// Spans around calls into each layer (coarse ones in every run;
    /// per-call ones only in the traced run).
    pub trace: Trace,
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
    checks: Vec<(String, Result<(), String>)>,
    /// Operations attempted (records offered, or grid cells).
    pub attempted: u64,
    /// Operations that failed (malformed input and backpressure drops).
    pub failed: u64,
    start: Instant,
}

impl Run {
    /// A fresh run.
    pub fn new(args: Args) -> Self {
        let trace = Trace::new(format!("{}/seed={}", args.workload, args.seed));
        Run {
            args,
            trace,
            values: BTreeMap::new(),
            notes: Vec::new(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
            start: Instant::now(),
        }
    }

    /// Seconds since the run started.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Whether another repetition lasting `last` seconds still fits in
    /// the budget measured from `since` (run-relative seconds).
    pub fn fits(&self, since: f64, budget: f64, last: f64) -> bool {
        self.elapsed() - since + last <= budget
    }

    /// Records metric `name` (must be catalogued).
    pub fn set(&mut self, name: &str, value: f64) {
        let def = catalog::def(name).unwrap_or_else(|| panic!("uncatalogued metric {name}"));
        self.values.insert(def.name, value);
    }

    /// Records a measured value that is not a catalogued metric, as a
    /// report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records the outcome of one output check.
    pub fn check(&mut self, name: &str, outcome: Result<(), String>) {
        self.checks.push((name.to_string(), outcome));
    }

    /// Records an equality check.
    pub fn check_eq<T: PartialEq + std::fmt::Debug>(&mut self, name: &str, a: T, b: T) {
        let outcome = if a == b {
            Ok(())
        } else {
            Err(format!("{a:?} != {b:?}"))
        };
        self.check(name, outcome);
    }

    /// Records a check that every value in `digests` is the same.
    pub fn check_same(&mut self, name: &str, digests: &[u64]) {
        let outcome = if digests.windows(2).all(|w| w[0] == w[1]) {
            Ok(())
        } else {
            Err(format!("{digests:x?}"))
        };
        self.check(name, outcome);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, o)| o.is_ok())
    }

    /// Prints the report lines and then the result line; returns the
    /// process exit code.
    pub fn finish(self) -> i32 {
        for note in &self.notes {
            println!("{note}");
        }
        for d in catalog::DEFS {
            if let Some(v) = self.values.get(d.name) {
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                println!("metric {} {v} {} better={better}", d.name, d.unit);
            }
        }
        if self.args.traced {
            for line in self.trace.render() {
                println!("{line}");
            }
        }
        for (name, outcome) in &self.checks {
            match outcome {
                Ok(()) => println!("check {name} ok"),
                Err(e) => println!("check {name} FAILED: {e}"),
            }
        }
        let kind = if self.args.traced {
            Kind::Layer
        } else {
            Kind::EndToEnd
        };
        let mut metrics = Vec::new();
        let mut missing = Vec::new();
        for d in catalog::DEFS.iter().filter(|d| d.kind == kind) {
            // A layer metric this workload never exercises reads 0; an
            // end-to-end metric must be measured on every workload.
            let value = match (self.values.get(d.name), kind) {
                (Some(&v), _) => v,
                (None, Kind::Layer) => 0.0,
                (None, Kind::EndToEnd) => {
                    missing.push(d.name);
                    continue;
                }
            };
            if !value.is_finite() {
                missing.push(d.name);
                continue;
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        if !missing.is_empty() {
            eprintln!("pipebench: metrics not measured or not finite: {missing:?}");
            return 1;
        }
        let correct = self.correct();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        if correct {
            0
        } else {
            1
        }
    }
}

/// The process's peak resident set (VmHWM), MB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())?;
    Ok(kb / 1024.0)
}
