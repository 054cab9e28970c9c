//! # xtask — workspace static analysis
//!
//! A dependency-free, two-phase lint pass for the memdos workspace, run
//! as `cargo run -p xtask -- lint`. Phase 1 walks every `crates/*/src`
//! tree (and the root package's `src/`), strips comments and string
//! literals with a hand-rolled lexer ([`lexer`]), tokenizes each file
//! and extracts per-file symbols — fn definitions with body spans,
//! impl context, imports, call sites ([`symbols`]) — while running the
//! local rule families. Phase 2 assembles the symbol tables into a
//! conservative workspace call graph ([`callgraph`]) and runs the
//! dataflow rules over it. Eleven rule families:
//!
//! * **L1 panic-freedom** — no `unwrap()`/`expect()`/`panic!`/
//!   `unreachable!`/`todo!`/`unimplemented!` and no unchecked slice
//!   indexing in non-test library code. SDS is a real-time detector; a
//!   panic on a degenerate window is a missed detection.
//! * **L2 determinism** — no `std::time::{Instant, SystemTime}`, no
//!   `HashMap`/`HashSet` in the deterministic crates (`sim`, `stats`,
//!   `core`, `engine`), no ambient randomness: every stochastic choice
//!   flows from the seeded `memdos_stats::rng`.
//! * **L3 float-safety** — no `==`/`!=` on float expressions (use
//!   `memdos_stats::float::approx_eq`) and no NaN-unsafe `partial_cmp`
//!   (use `f64::total_cmp`).
//! * **L4 crate hygiene** — every `lib.rs` carries
//!   `#![forbid(unsafe_code)]`; every `Cargo.toml` dependency is
//!   workspace-inherited with no wildcard versions.
//! * **L5 concurrency & seed discipline** — thread spawning is allowed
//!   only in the harness crates (`runner`, `bench`, `xtask`), which are
//!   also the only crates exempt from the wall-clock ban; the
//!   golden-ratio seed constant may appear only in `stats`.
//! * **L6 detector authority** — outside `core`, detectors are stepped
//!   only through the `Detector` trait (`on_observation`), and no code
//!   builds a Stage-1 `Profiler` (`L6/profile`): profiling goes through
//!   `memdos_core::monitor`, which owns the profiler and its length.
//!   The root `examples/` and `tests/` keep showing the raw `Profiler`
//!   workflow; they are outside the lint's scope.
//! * **L7 hot-path allocation** — in the ingest crates (`engine`,
//!   `metrics`), functions marked with a `// hot-path` comment must not
//!   build `String`s; render through `jsonl::LineBuf` instead.
//! * **L8 shared-state** — interior-mutability and locking primitives
//!   (`Mutex`, `RwLock`, `Atomic*`, `RefCell`, `cell::Cell`,
//!   `static mut`) are confined to the sanctioned concurrency layer
//!   (the `runner` crate, whose `parallel_map` and grid fan hand jobs to
//!   worker threads). Everyone else stays
//!   single-owner so replay never depends on lock acquisition order.
//! * **L9 hot-propagate** — the L7 allocation contract follows the call
//!   graph: a `// hot-path` fn calling (transitively) into an allocating
//!   helper is flagged at the call site, with the offending path in the
//!   message. L7 alone only sees allocations written inside the hot fn.
//! * **L10 determinism-taint** — `HashMap`/`HashSet` iteration, wall
//!   clocks and `std::env` reads are flagged anywhere *reachable from*
//!   `Detector::on_observation` or the engine merge/flush path, with the
//!   full reachability chain in the diagnostic — the harness exemption
//!   does not launder nondeterminism back into verdict order.
//! * **L11 exhaustive-verdicts** — no `_` wildcard arms in matches over
//!   `Verdict`/`RecordError`/fault-class enums; adding a variant must
//!   break the build, not silently fall through.
//!
//! A finding is suppressed only by an inline justification on the same
//! line or the line above: `// lint:allow(<category>) -- <reason>`.
//! Placed above an `fn` signature the marker covers the whole item.
//! Markers without a reason are reported (`allow`); markers naming no
//! known category are reported (`allow-unknown`); justified markers
//! that suppressed nothing are reported (`allow-unused`).
//!
//! Between runs the pass keeps a content-hash cache (by default
//! `target/xtask-lint-cache.json`, see [`cache`]): unchanged files are
//! served from their cached findings without any scanning, and the
//! graph findings are reused wholesale when no file changed at all.
//!
//! A second subcommand, `cargo run -p xtask -- bench-check <current>
//! <baseline> [...]`, validates the `BENCH_2.json` micro-benchmark report
//! against its baseline (see [`benchcheck`]).

#![forbid(unsafe_code)]

pub mod benchcheck;
pub mod cache;
pub mod callgraph;
pub mod lexer;
pub mod manifest;
pub mod rules;
pub mod symbols;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::mpsc;

use cache::{Cache, FileEntry, GraphEntry};
use callgraph::FileAnalysis;
use rules::{AllowRange, FileScope, Finding};
use symbols::FileSymbols;

/// The worker count for the parallel lint walk plus any `MEMDOS_THREADS`
/// diagnostic. Mirrors `memdos_runner::threads_config()`: xtask cannot
/// depend on the runner crate — the lint must stay runnable even when the
/// workspace it checks does not compile — so the strict-parse semantics
/// are duplicated here and pinned by the [`parse_threads`] tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadsHint {
    /// Worker count to use (always >= 1).
    pub workers: usize,
    /// Human-readable description of an ignored `MEMDOS_THREADS` value,
    /// when the variable was set but not a positive integer. Printed
    /// once by `main`.
    pub diagnostic: Option<String>,
}

/// Resolves a raw `MEMDOS_THREADS` value (`None` when unset) against a
/// fallback worker count, reporting invalid values instead of silently
/// swallowing them.
pub fn parse_threads(value: Option<&str>, fallback: usize) -> ThreadsHint {
    let fallback = fallback.max(1);
    match value {
        None => ThreadsHint { workers: fallback, diagnostic: None },
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => ThreadsHint { workers: n, diagnostic: None },
            _ => ThreadsHint {
                workers: fallback,
                diagnostic: Some(format!(
                    "MEMDOS_THREADS={v:?} is not a positive integer; \
                     falling back to available parallelism"
                )),
            },
        },
    }
}

/// Reads `MEMDOS_THREADS` from the environment and resolves it against
/// the machine's available parallelism.
pub fn threads_hint() -> ThreadsHint {
    let fallback = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    parse_threads(std::env::var("MEMDOS_THREADS").ok().as_deref(), fallback)
}

/// Crates whose outputs must be reproducible bit-for-bit across runs.
/// `engine` joins the original three: its verdict log is the replayable
/// artifact the whole serving layer is built around.
const DETERMINISTIC_CRATES: [&str; 4] = ["sim", "stats", "core", "engine"];

/// Harness crates: the only places allowed to spawn threads or measure
/// wall-clock time. Everything else must stay single-threaded and
/// tick-counted so results are schedule-independent.
const HARNESS_CRATES: [&str; 3] = ["runner", "bench", "xtask"];

/// The one crate allowed to spell the golden-ratio seed constant; all
/// other crates must route seed derivation through `memdos_stats::rng`.
const SEED_AUTHORITY_CRATES: [&str; 1] = ["stats"];

/// The one crate allowed to call the scheme-private `on_sample` stepping
/// methods or build a Stage-1 `Profiler`; everyone else steps detectors
/// through the `Detector` trait and profiles through `core::monitor`.
const DETECTOR_AUTHORITY_CRATES: [&str; 1] = ["core"];

/// The crates carrying the allocation-free ingest contract: functions
/// marked `// hot-path` there are held to the L7/L9 no-String rule.
const HOT_PATH_CRATES: [&str; 2] = ["engine", "metrics"];

/// The sanctioned concurrency layer: `runner` owns `parallel_map` and
/// the grid fan, so it is the one crate where L8's shared-state primitives
/// are part of the design rather than a leak.
const SHARED_STATE_SANCTIONED_CRATES: [&str; 1] = ["runner"];

/// The [`FileScope`] for a crate directory name.
fn scope_for(name: &str) -> FileScope {
    FileScope {
        deterministic: DETERMINISTIC_CRATES.contains(&name),
        harness: HARNESS_CRATES.contains(&name),
        seed_authority: SEED_AUTHORITY_CRATES.contains(&name),
        detector_authority: DETECTOR_AUTHORITY_CRATES.contains(&name),
        hot_path_checked: HOT_PATH_CRATES.contains(&name),
        shared_state_sanctioned: SHARED_STATE_SANCTIONED_CRATES.contains(&name),
    }
}

/// Recursively collects `.rs` files under `dir`, sorted for stable output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        paths.push(entry.path());
    }
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn display_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).display().to_string()
}

/// One unit of phase-1 work: a manifest or a source file.
#[derive(Debug, Clone)]
struct FileTask {
    crate_name: String,
    path: PathBuf,
    scope: FileScope,
    is_source: bool,
}

/// What phase 1 produced for one file — either a fresh scan or a cache
/// replay. `symbols`/`allows` are populated only on fresh scans; the
/// graph phase re-derives them from `source` for cache hits when it has
/// to rebuild.
struct FileOutcome {
    shown: String,
    crate_name: String,
    scope: FileScope,
    is_source: bool,
    hash: u64,
    cached: bool,
    findings: Vec<Finding>,
    markers: Vec<(usize, String)>,
    used: BTreeSet<usize>,
    source: String,
    symbols: Option<FileSymbols>,
    allows: Option<Vec<AllowRange>>,
}

/// Phase-1 work for one file: hash, cache lookup, scan on miss.
fn process_task(root: &Path, task: &FileTask, cache: &Cache) -> Result<FileOutcome, String> {
    let source = fs::read_to_string(&task.path)
        .map_err(|e| format!("read {}: {e}", task.path.display()))?;
    let shown = display_path(root, &task.path);
    let hash = cache::fnv64(source.as_bytes());

    if let Some(entry) = cache.files.get(&shown) {
        if entry.hash == hash {
            return Ok(FileOutcome {
                shown,
                crate_name: task.crate_name.clone(),
                scope: task.scope,
                is_source: task.is_source,
                hash,
                cached: true,
                findings: entry.findings.clone(),
                markers: entry.markers.clone(),
                used: entry.used.clone(),
                source,
                symbols: None,
                allows: None,
            });
        }
    }

    if !task.is_source {
        let is_root = source.contains("[workspace]");
        let findings = manifest::check_manifest(&shown, &source, is_root);
        return Ok(FileOutcome {
            shown,
            crate_name: task.crate_name.clone(),
            scope: task.scope,
            is_source: false,
            hash,
            cached: false,
            findings,
            markers: Vec::new(),
            used: BTreeSet::new(),
            source,
            symbols: None,
            allows: None,
        });
    }

    let stream = lexer::tokenize(&source);
    let symbols = symbols::extract(&source, &stream);
    let mut report = rules::check_file(&shown, &source, task.scope, &symbols);
    if task.path.file_name().is_some_and(|f| f == "lib.rs") {
        report.findings.extend(rules::check_forbid_unsafe(&shown, &source));
    }
    Ok(FileOutcome {
        shown,
        crate_name: task.crate_name.clone(),
        scope: task.scope,
        is_source: true,
        hash,
        cached: false,
        findings: report.findings,
        markers: report.markers,
        used: report.used,
        source,
        symbols: Some(symbols),
        allows: Some(report.allows),
    })
}

/// Counters for one lint run, printed as the `lint_stats:` line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintStats {
    /// Files considered (sources plus manifests).
    pub files: usize,
    /// Files actually rule-scanned this run.
    pub scanned: usize,
    /// Files served from the content-hash cache.
    pub cached: usize,
    /// Whether the phase-2 graph findings were replayed from the cache.
    pub graph_cached: bool,
    /// Call-graph nodes (non-test fns).
    pub fns: usize,
    /// Resolved call edges.
    pub edges: usize,
    /// Wall time of the whole run, in milliseconds.
    pub wall_ms: u128,
}

impl LintStats {
    /// The `engine_stats`-style one-liner for the CLI.
    pub fn render(&self) -> String {
        format!(
            "lint_stats: files={} scanned={} cached={} graph={} fns={} edges={} wall_ms={}",
            self.files,
            self.scanned,
            self.cached,
            if self.graph_cached { "cached" } else { "built" },
            self.fns,
            self.edges,
            self.wall_ms,
        )
    }
}

/// Findings plus run counters.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    pub findings: Vec<Finding>,
    pub stats: LintStats,
}

impl LintReport {
    /// The `--format json` payload: findings array plus run counters,
    /// one object on one line, suitable as a CI artifact.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"findings\":{},\"stats\":{{\"files\":{},\"scanned\":{},\"cached\":{},\
             \"graph_cached\":{},\"fns\":{},\"edges\":{},\"wall_ms\":{}}}}}",
            cache::findings_json(&self.findings),
            self.stats.files,
            self.stats.scanned,
            self.stats.cached,
            self.stats.graph_cached,
            self.stats.fns,
            self.stats.edges,
            self.stats.wall_ms,
        )
    }
}

/// Collects the workspace's file tasks: the root package plus every
/// directory under `crates/`, manifests and `.rs` sources, sorted so
/// output is identical at any worker count.
fn collect_tasks(root: &Path) -> Result<Vec<FileTask>, String> {
    let mut crate_dirs: Vec<(String, PathBuf)> = vec![(".".to_string(), root.to_path_buf())];
    let crates_dir = root.join("crates");
    let entries = fs::read_dir(&crates_dir)
        .map_err(|e| format!("read_dir {}: {e}", crates_dir.display()))?;
    let mut dirs: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", crates_dir.display()))?;
        if entry.path().is_dir() {
            dirs.push(entry.path());
        }
    }
    dirs.sort();
    for dir in dirs {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        crate_dirs.push((name, dir));
    }

    let mut tasks = Vec::new();
    for (name, dir) in crate_dirs {
        let scope = scope_for(&name);
        let manifest_path = dir.join("Cargo.toml");
        if manifest_path.is_file() {
            tasks.push(FileTask {
                crate_name: name.clone(),
                path: manifest_path,
                scope,
                is_source: false,
            });
        }
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_files(&src, &mut files)?;
        for path in files {
            tasks.push(FileTask { crate_name: name.clone(), path, scope, is_source: true });
        }
    }
    Ok(tasks)
}

/// Lints the whole workspace rooted at `root`, fanned across `workers`
/// threads (one file per task, results reassembled in task order so the
/// output is identical at any worker count). With `cache_path` set, the
/// content-hash cache at that path is consulted and rewritten: unchanged
/// files skip all rule scanning, and an unchanged tree also skips the
/// graph rebuild. Findings come back sorted by (file, line, rule).
pub fn lint_workspace_report(
    root: &Path,
    workers: usize,
    cache_path: Option<&Path>,
) -> Result<LintReport, String> {
    let started = std::time::Instant::now();
    let cache = cache_path.and_then(Cache::load).unwrap_or_default();
    let tasks = collect_tasks(root)?;

    // ---- phase 1: per-file scan / cache replay, fanned over workers ----
    let workers = workers.clamp(1, tasks.len().max(1));
    let (tx, rx) = mpsc::channel::<(usize, Result<FileOutcome, String>)>();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            let tasks = &tasks;
            let cache = &cache;
            scope.spawn(move || {
                for (i, task) in tasks.iter().enumerate() {
                    if i % workers != w {
                        continue;
                    }
                    let result = process_task(root, task, cache);
                    if tx.send((i, result)).is_err() {
                        return;
                    }
                }
            });
        }
    });
    drop(tx);
    let mut slots: Vec<Option<FileOutcome>> = tasks.iter().map(|_| None).collect();
    for (i, result) in rx {
        if let Some(slot) = slots.get_mut(i) {
            *slot = Some(result?);
        }
    }
    let mut outcomes: Vec<FileOutcome> = Vec::with_capacity(slots.len());
    for (slot, task) in slots.into_iter().zip(&tasks) {
        match slot {
            Some(outcome) => outcomes.push(outcome),
            None => return Err(format!("lint worker dropped {}", task.path.display())),
        }
    }

    let mut stats = LintStats {
        files: outcomes.len(),
        scanned: outcomes.iter().filter(|o| !o.cached).count(),
        cached: outcomes.iter().filter(|o| o.cached).count(),
        ..LintStats::default()
    };

    // ---- phase 2: call graph, gated on the tree digest ----
    let mut hashes: BTreeMap<String, u64> = BTreeMap::new();
    for o in outcomes.iter().filter(|o| o.is_source) {
        hashes.insert(o.shown.clone(), o.hash);
    }
    let digest = cache::tree_digest(&hashes);

    let graph_entry = match cache.graph {
        Some(ref g) if g.digest == digest => {
            stats.graph_cached = true;
            stats.fns = g.fns;
            stats.edges = g.edges;
            g.clone()
        }
        _ => {
            let mut analyses: Vec<FileAnalysis> = Vec::new();
            for o in &mut outcomes {
                if !o.is_source {
                    continue;
                }
                let (symbols, allows) = match (o.symbols.take(), o.allows.take()) {
                    (Some(s), Some(a)) => (s, a),
                    _ => {
                        // Cache hit: findings were replayed, but the graph
                        // needs fresh symbols. Re-deriving them is pure
                        // tokenization — no rule scanning happens here.
                        let stream = lexer::tokenize(&o.source);
                        let symbols = symbols::extract(&o.source, &stream);
                        let (allows, _) = rules::resolve_allows(&o.source, &symbols);
                        (symbols, allows)
                    }
                };
                analyses.push(FileAnalysis {
                    path: o.shown.clone(),
                    crate_name: o.crate_name.clone(),
                    scope: o.scope,
                    symbols,
                    allows,
                });
            }
            let graph = callgraph::Graph::build(&analyses);
            let mut used_idx: BTreeSet<(usize, usize)> = BTreeSet::new();
            let findings = callgraph::graph_findings(&graph, &mut used_idx);
            let mut used: BTreeSet<(String, usize)> = BTreeSet::new();
            for (fi, marker) in used_idx {
                if let Some(a) = analyses.get(fi) {
                    used.insert((a.path.clone(), marker));
                }
            }
            stats.fns = graph.fn_count();
            stats.edges = graph.edge_count();
            GraphEntry {
                digest,
                findings,
                used,
                fns: stats.fns,
                edges: stats.edges,
            }
        }
    };

    // ---- unused-allow report (always fresh: depends on both phases) ----
    let mut findings: Vec<Finding> = Vec::new();
    for o in &outcomes {
        findings.extend(o.findings.iter().cloned());
        for (idx, (line, category)) in o.markers.iter().enumerate() {
            let locally_used = o.used.contains(&idx);
            let graph_used = graph_entry.used.contains(&(o.shown.clone(), idx));
            if !locally_used && !graph_used {
                findings.push(Finding {
                    file: o.shown.clone(),
                    line: *line,
                    rule: "allow-unused",
                    message: format!(
                        "lint:allow({category}) suppresses nothing — remove the stale marker"
                    ),
                });
            }
        }
    }
    findings.extend(graph_entry.findings.iter().cloned());
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings.dedup();

    // ---- persist the cache for the next run ----
    if let Some(path) = cache_path {
        let mut files: BTreeMap<String, FileEntry> = BTreeMap::new();
        for o in &outcomes {
            files.insert(
                o.shown.clone(),
                FileEntry {
                    hash: o.hash,
                    findings: o.findings.clone(),
                    markers: o.markers.clone(),
                    used: o.used.clone(),
                },
            );
        }
        let next = Cache { files, graph: Some(graph_entry) };
        next.store(path)?;
    }

    stats.wall_ms = started.elapsed().as_millis();
    Ok(LintReport { findings, stats })
}

/// Cache-less convenience wrapper: lints the workspace and returns just
/// the findings.
pub fn lint_workspace(root: &Path, workers: usize) -> Result<Vec<Finding>, String> {
    lint_workspace_report(root, workers, None).map(|r| r.findings)
}

#[cfg(test)]
mod threads_tests {
    use super::parse_threads;

    #[test]
    fn valid_values_win_and_invalid_values_carry_a_diagnostic() {
        assert_eq!(parse_threads(Some("8"), 4).workers, 8);
        assert_eq!(parse_threads(Some(" 2 "), 4).workers, 2);
        assert!(parse_threads(Some("8"), 4).diagnostic.is_none());
        // Unset: silent fallback, floored at one worker.
        assert_eq!(parse_threads(None, 4).workers, 4);
        assert_eq!(parse_threads(None, 0).workers, 1);
        assert!(parse_threads(None, 4).diagnostic.is_none());
        // Set-but-invalid: fallback plus a printable diagnostic, the same
        // contract as memdos_runner::threads_config().
        for bad in ["0", "-3", "many", "2.5", ""] {
            let hint = parse_threads(Some(bad), 4);
            assert_eq!(hint.workers, 4, "fallback for {bad:?}");
            let diag = hint.diagnostic.unwrap_or_default();
            assert!(diag.contains("MEMDOS_THREADS"), "diagnostic for {bad:?}: {diag}");
        }
    }
}

/// Walks upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.lines().any(|l| l.trim() == "[workspace]") {
                    return Some(d.to_path_buf());
                }
            }
        }
        dir = d.parent();
    }
    None
}
