//! CLI entry point:
//!
//! * `cargo run -p xtask -- lint [--root <path>] [--format plain|json]
//!   [--cache <path>] [--no-cache]` — two-phase workspace lint, fanned
//!   across `MEMDOS_THREADS` workers (one file per task). The
//!   content-hash cache defaults to `target/xtask-lint-cache.json`
//!   under the workspace root; `--no-cache` forces a cold run. With
//!   `--format json` the findings-plus-stats payload goes to stdout
//!   (one object, one line — the CI artifact) and the human
//!   `lint_stats:` line to stderr.
//! * `cargo run -p xtask -- bench-check <current> <baseline> [<current>
//!   <baseline> ...]` — validate one or more flat micro-benchmark
//!   reports (in CI, `BENCH_2.json`) against their checked-in baselines
//!   and fail on regressions beyond the tolerance factor (default 2.0,
//!   override `MEMDOS_BENCH_TOLERANCE`).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo run -p xtask -- lint [--root <workspace-dir>] \
         [--format plain|json] [--cache <path>] [--no-cache]\n       \
         cargo run -p xtask -- bench-check <current.json> <baseline.json> \
         [<current.json> <baseline.json> ...]"
    );
    ExitCode::from(2)
}

fn bench_check(args: impl Iterator<Item = String>) -> ExitCode {
    let rest: Vec<String> = args.collect();
    if rest.is_empty() || rest.len() % 2 != 0 {
        return usage();
    }
    let tolerance = match std::env::var("MEMDOS_BENCH_TOLERANCE") {
        Ok(v) => match v.trim().parse::<f64>() {
            Ok(t) => t,
            Err(e) => {
                eprintln!("xtask: MEMDOS_BENCH_TOLERANCE {v:?} is not a number: {e}");
                return ExitCode::from(2);
            }
        },
        Err(_) => 2.0,
    };
    let mut regressions = 0usize;
    for pair in rest.chunks(2) {
        let (Some(current), Some(baseline)) = (pair.first(), pair.get(1)) else {
            return usage();
        };
        match xtask::benchcheck::run(
            &PathBuf::from(current),
            &PathBuf::from(baseline),
            tolerance,
        ) {
            Ok(problems) if problems.is_empty() => {
                println!("xtask bench-check: {current} within {tolerance}x of {baseline}");
            }
            Ok(problems) => {
                for p in &problems {
                    println!("bench-check: {p}");
                }
                regressions += problems.len();
            }
            Err(e) => {
                eprintln!("xtask: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        println!("xtask bench-check: {regressions} regression(s)");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        return usage();
    };
    if cmd == "bench-check" {
        return bench_check(args);
    }
    if cmd != "lint" {
        return usage();
    }
    let mut root: Option<PathBuf> = None;
    let mut format_json = false;
    let mut no_cache = false;
    let mut cache_override: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--format" => match args.next().as_deref() {
                Some("json") => format_json = true,
                Some("plain") => format_json = false,
                _ => return usage(),
            },
            "--cache" => match args.next() {
                Some(p) => cache_override = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--no-cache" => no_cache = true,
            _ => return usage(),
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("xtask: cannot determine current dir: {e}");
                    return ExitCode::from(2);
                }
            };
            match xtask::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("xtask: no workspace root found above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };
    let threads = xtask::threads_hint();
    if let Some(diag) = &threads.diagnostic {
        eprintln!("xtask: {diag}");
    }
    let cache_path = if no_cache {
        None
    } else {
        Some(cache_override.unwrap_or_else(|| root.join("target/xtask-lint-cache.json")))
    };
    match xtask::lint_workspace_report(&root, threads.workers, cache_path.as_deref()) {
        Ok(report) => {
            let stats_line = report.stats.render();
            if format_json {
                println!("{}", report.to_json());
                eprintln!("{stats_line}");
            } else {
                for f in &report.findings {
                    println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
                }
                if report.findings.is_empty() {
                    println!("xtask lint: clean");
                } else {
                    println!("xtask lint: {} finding(s)", report.findings.len());
                }
                println!("{stats_line}");
            }
            if report.findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("xtask: {e}");
            ExitCode::from(2)
        }
    }
}
