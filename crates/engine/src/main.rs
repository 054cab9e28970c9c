//! The `memdos-engine` CLI.
//!
//! ```text
//! memdos-engine demo [seed]       # simulate 4 tenants and replay them
//! memdos-engine gen-demo [seed]   # print the demo JSONL stream
//! memdos-engine replay [path]     # replay a JSONL file (or stdin)
//! memdos-engine serve <addr>      # ingest JSONL over TCP
//! memdos-engine soak [--seeds N] [--base-seed S]   # chaos soak
//! memdos-engine fleet [tenants] [seed]             # fleet-scale replay
//! memdos-engine respond [scenario] [tenants] [seed] [--chaos S]  # closed loop
//! ```
//!
//! Configuration comes from the environment: `MEMDOS_THREADS` (threads
//! for the demo generator; the engine itself runs on one thread) and
//! the `MEMDOS_ENGINE_*` knobs (see the README and
//! [`Config::from_env`]), resolved **once** here in `main` — the
//! library layer only ever sees the explicit [`Config`] value. The
//! verdict event log goes to stdout; diagnostics go to stderr.
//!
//! `serve` accepts one connection at a time and ingests it to EOF into
//! the one single-threaded engine. Accept failures retry on the deterministic
//! capped [`Backoff`] schedule instead of dying or spinning.
//!
//! `soak` replays N seeded chaos scenarios (fault injection over the
//! demo stream) and exits non-zero unless every scenario's verdict log
//! is byte-identical across two replays, memory stays bounded,
//! and every fault class fired. The JSONL report goes to stdout.
//!
//! `respond` runs one closed-loop mitigation scenario: a seeded fleet
//! with a ground-truth attacker feeds the engine, and the engine's
//! mitigation actions throttle the generator back. The verdict log
//! (`mitigation_*` events included) goes to stdout; the applied-action
//! trace and the mitigation counters go to stderr. `--chaos S` routes
//! the wire through a seeded fault plan first.

use memdos_engine::chaos::Backoff;
use memdos_engine::demo::{demo_engine_config, demo_jsonl, LAYOUT, TENANTS};
use memdos_engine::engine::Engine;
use memdos_engine::fleet::{fleet_engine_config, fleet_jsonl, fleet_scenario};
use memdos_engine::respond::{respond_engine_config, respond_scenario, run_respond, RespondScenario};
use memdos_engine::soak::{run_soak, SoakConfig, REPLAYS};
use memdos_engine::Config;
use memdos_metrics::wire::{convert, Converted, Format};
use std::io::{BufReader, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args));
}

/// A command's failure: the exit code and the diagnostic printed after
/// `memdos-engine: `.
struct Fail(i32, String);

/// A usage or configuration error: exit code 2.
fn bad(e: impl std::fmt::Display) -> Fail {
    Fail(2, e.to_string())
}

/// An I/O failure: exit code 1.
fn io_fail(e: impl std::fmt::Display) -> Fail {
    Fail(1, e.to_string())
}

fn run(args: &[String]) -> i32 {
    let threads = memdos_runner::threads_config();
    if let Some(diag) = &threads.diagnostic {
        eprintln!("memdos-engine: {diag}");
    }
    let result = match args.first().map(String::as_str) {
        Some("demo") => cmd_demo(args.get(1)),
        Some("gen-demo") => cmd_gen_demo(args.get(1)),
        Some("replay") => cmd_replay(args.get(1)),
        Some("serve") => cmd_serve(args.get(1)),
        Some("soak") => cmd_soak(args.get(1..).unwrap_or(&[])),
        Some("fleet") => cmd_fleet(args.get(1), args.get(2)),
        Some("respond") => cmd_respond(args.get(1..).unwrap_or(&[])),
        Some("convert") => cmd_convert(args.get(1..).unwrap_or(&[])),
        Some(other) => {
            eprintln!("memdos-engine: unknown command {other:?}");
            usage();
            Ok(2)
        }
        None => {
            usage();
            Ok(2)
        }
    };
    result.unwrap_or_else(|Fail(code, diag)| {
        eprintln!("memdos-engine: {diag}");
        code
    })
}

fn usage() {
    eprintln!(
        "usage: memdos-engine <demo [seed] | gen-demo [seed] | replay [path] | serve <addr> \
         | soak [--seeds N] [--base-seed S] | fleet [tenants] [seed] \
         | respond [true-attacker|benign-shift|quiet-resume] [tenants] [seed] [--chaos S] \
         | convert <jsonl2bin|bin2jsonl> [in|-] [out|-]>"
    );
}

fn parse_seed(arg: Option<&String>) -> Result<u64, String> {
    match arg {
        None => Ok(0xD05),
        Some(s) => s
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("seed {s:?} is not a non-negative integer")),
    }
}

/// Builds the engine from the environment, preferring the demo's
/// profile/SDS settings for the demo commands.
fn engine_from_env(demo_defaults: bool) -> Result<Engine, String> {
    let mut config = Config::from_env()?;
    if demo_defaults {
        let demo = demo_engine_config(config.workers);
        config.session.profile_ticks = demo.session.profile_ticks;
        config.session.sds = demo.session.sds;
    }
    Engine::new(config).map_err(|e| e.to_string())
}

/// Prints log lines the engine produced since `printed`, returning the
/// new high-water mark.
fn print_new_log(engine: &Engine, printed: usize) -> usize {
    let out = std::io::stdout();
    let mut out = out.lock();
    for line in engine.log_lines().iter().skip(printed) {
        if writeln!(out, "{line}").is_err() {
            break;
        }
    }
    engine.log_lines().len()
}

fn cmd_demo(seed: Option<&String>) -> Result<i32, Fail> {
    let seed = parse_seed(seed).map_err(bad)?;
    let mut engine = engine_from_env(true).map_err(bad)?;
    let workers = engine.config().workers;
    eprintln!(
        "memdos-engine: simulating {} tenants (seed {seed}, {workers} generator threads)",
        TENANTS.len()
    );
    let lines = demo_jsonl(seed, &LAYOUT, workers);
    for line in &lines {
        engine.ingest_line(line);
    }
    // finish() rather than flush(): the run is over, so drain and emit
    // the `engine_stats` trailer (which carries the `MEMDOS_ENGINE_PROF`
    // stage counters when enabled).
    engine.finish();
    print_new_log(&engine, 0);
    eprintln!(
        "memdos-engine: {} input lines, {} log events, {} sessions",
        lines.len(),
        engine.log_lines().len(),
        engine.session_count()
    );
    for snap in engine.snapshots() {
        eprintln!(
            "memdos-engine:   {}: {} ({} alarms, {} ingested, {} dropped)",
            snap.tenant,
            snap.state.label(),
            snap.alarms,
            snap.ingested,
            snap.dropped
        );
    }
    Ok(0)
}

fn cmd_fleet(tenants: Option<&String>, seed: Option<&String>) -> Result<i32, Fail> {
    let tenants = match tenants {
        None => 10_000u32,
        Some(s) => match s.trim().parse::<u32>() {
            Ok(n) if n > 0 => n,
            _ => return Err(bad(format!("tenants {s:?} is not a positive integer"))),
        },
    };
    let seed = parse_seed(seed).map_err(bad)?;
    // Environment knobs still apply (ceiling override, the stage
    // profiler); the fleet profile/SDS settings replace the Table 1
    // defaults.
    let env = Config::from_env().map_err(bad)?;
    let ceiling = if env.max_sessions > 0 { env.max_sessions } else { 16_384 };
    let config = Config { prof: env.prof, ..fleet_engine_config(env.workers, ceiling) };
    let scenario = fleet_scenario(tenants, seed);
    eprintln!(
        "memdos-engine: fleet: {tenants} tenants over {} ticks (seed {seed}, ceiling {ceiling})",
        scenario.span_ticks
    );
    let lines = fleet_jsonl(&scenario).map_err(|e| bad(format!("fleet: {e}")))?;
    let mut engine = Engine::new(config).map_err(bad)?;
    for line in &lines {
        engine.ingest_line(line);
    }
    engine.finish();
    print_new_log(&engine, 0);
    let stats = engine.stats();
    eprintln!(
        "memdos-engine: fleet: {} input lines, {} log events, {} sessions opened, \
         {} open at end, {} evicted, {} reopened, ~{} KiB resident",
        lines.len(),
        engine.log_lines().len(),
        engine.session_count(),
        engine.open_sessions(),
        stats.evicted,
        stats.reopened,
        engine.resident_bytes() / 1024
    );
    Ok(0)
}

fn cmd_respond(args: &[String]) -> Result<i32, Fail> {
    let mut scenario = RespondScenario::TrueAttacker;
    let mut tenants = 6u32;
    let mut seed = 42u64;
    let mut chaos: Option<u64> = None;
    let mut positional = 0usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--chaos" {
            let seed = it.next().and_then(|v| v.trim().parse::<u64>().ok());
            chaos = Some(seed.ok_or_else(|| bad("--chaos requires a non-negative integer seed"))?);
            continue;
        }
        match positional {
            0 => {
                scenario = RespondScenario::parse(arg).ok_or_else(|| {
                    bad(format!(
                        "unknown respond scenario {arg:?} \
                         (true-attacker | benign-shift | quiet-resume)"
                    ))
                })?;
            }
            1 => match arg.trim().parse::<u32>() {
                Ok(n) if n >= 2 => tenants = n,
                _ => return Err(bad(format!("tenants {arg:?} must be an integer >= 2"))),
            },
            2 => {
                seed = arg.trim().parse::<u64>().map_err(|_| {
                    bad(format!("seed {arg:?} is not a non-negative integer"))
                })?;
            }
            _ => return Err(bad(format!("unexpected respond argument {arg:?}"))),
        }
        positional += 1;
    }
    // Environment knobs still apply (the stage profiler); the scenario
    // profile/SDS settings replace the Table 1 defaults.
    let env = Config::from_env().map_err(bad)?;
    eprintln!(
        "memdos-engine: respond: scenario {} ({tenants} tenants, seed {seed}{})",
        scenario.label(),
        match chaos {
            Some(s) => format!(", chaos seed {s}"),
            None => String::new(),
        }
    );
    let fleet = respond_scenario(scenario, tenants, seed);
    let config = Config { prof: env.prof, ..respond_engine_config(env.workers) };
    let report = run_respond(&fleet, config, chaos).map_err(|e| bad(format!("respond: {e}")))?;
    {
        let out = std::io::stdout();
        let mut out = out.lock();
        for line in &report.log {
            if writeln!(out, "{line}").is_err() {
                return Ok(1);
            }
        }
    }
    if let Some(attacker) = &report.attacker {
        eprintln!("memdos-engine: respond: ground-truth attacker {attacker}");
    }
    for action in &report.actions {
        eprintln!(
            "memdos-engine: respond:   tick {:>5}: {} {}{}",
            action.tick,
            action.kind.label(),
            action.tenant,
            if action.applied { "" } else { " (not applied)" }
        );
    }
    let stats = report.stats;
    eprintln!(
        "memdos-engine: respond: {} lines fed, {} log events; engaged {}, released {}, \
         escalated {}, aborted {}, skipped {}; recovery latency {} ticks, false-quarantine \
         cost {} ticks",
        report.lines_fed,
        report.log.len(),
        stats.mitigations_engaged,
        stats.mitigations_released,
        stats.mitigations_escalated,
        stats.mitigations_aborted,
        stats.mitigation_skipped,
        stats.recovery_latency_ticks,
        stats.false_quarantine_ticks
    );
    Ok(0)
}

/// Re-encodes a record stream into the JSONL or binary wire format
/// (`jsonl2bin` / `bin2jsonl` name the output; the input format is
/// negotiated as `replay` negotiates it) through
/// [`memdos_metrics::wire::convert`]. Input and output default to
/// stdin/stdout; `-` selects them explicitly. Every malformed span is
/// skipped with a count on stderr, so a converted stream carries exactly
/// the records the engine would route from the source, and replaying
/// either produces the same verdict log (pinned by the binary
/// equivalence suite).
fn cmd_convert(args: &[String]) -> Result<i32, Fail> {
    let (direction, to) = match args.first().map(String::as_str) {
        Some(d @ "jsonl2bin") => (d, Format::Binary),
        Some(d @ "bin2jsonl") => (d, Format::Jsonl),
        _ => return Err(bad("convert requires a direction: jsonl2bin | bin2jsonl")),
    };
    let failed = |p: &str, e: std::io::Error| io_fail(format!("convert: {p}: {e}"));
    let reader: Box<dyn std::io::BufRead> = match args.get(1).map(String::as_str) {
        None | Some("-") => Box::new(std::io::stdin().lock()),
        Some(p) => Box::new(BufReader::new(std::fs::File::open(p).map_err(|e| failed(p, e))?)),
    };
    let writer: Box<dyn Write> = match args.get(2).map(String::as_str) {
        None | Some("-") => Box::new(std::io::stdout().lock()),
        Some(p) => Box::new(std::fs::File::create(p).map_err(|e| failed(p, e))?),
    };
    let Converted { records, skipped } =
        convert(reader, writer, to).map_err(|e| io_fail(format!("convert: {e}")))?;
    eprintln!("memdos-engine: convert: {direction}: {records} records, {skipped} spans skipped");
    Ok(0)
}

fn cmd_gen_demo(seed: Option<&String>) -> Result<i32, Fail> {
    let seed = parse_seed(seed).map_err(bad)?;
    let workers = memdos_runner::threads();
    let out = std::io::stdout();
    let mut out = out.lock();
    for line in demo_jsonl(seed, &LAYOUT, workers) {
        if writeln!(out, "{line}").is_err() {
            return Ok(1);
        }
    }
    Ok(0)
}

fn cmd_replay(path: Option<&String>) -> Result<i32, Fail> {
    let mut engine = engine_from_env(false).map_err(bad)?;
    let consumed = match path {
        Some(p) => std::fs::File::open(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|f| {
                engine.ingest_reader(BufReader::new(f)).map_err(|e| format!("{p}: {e}"))
            }),
        None => {
            let stdin = std::io::stdin();
            let locked = stdin.lock();
            engine.ingest_reader(locked).map_err(|e| format!("stdin: {e}"))
        }
    };
    let consumed = consumed.map_err(io_fail)?;
    // The replay is complete: emit the `engine_stats` trailer too (and
    // the `MEMDOS_ENGINE_PROF` stage counters when enabled).
    engine.finish();
    print_new_log(&engine, 0);
    eprintln!(
        "memdos-engine: replayed {consumed} lines into {} sessions ({} malformed)",
        engine.session_count(),
        engine.malformed()
    );
    Ok(0)
}

fn cmd_soak(args: &[String]) -> Result<i32, Fail> {
    let mut config = SoakConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = |v: Option<&String>, flag: &str| -> Result<u64, String> {
            v.ok_or_else(|| format!("{flag} requires a value"))?
                .trim()
                .parse::<u64>()
                .map_err(|_| format!("{flag} value is not a non-negative integer"))
        };
        match arg.as_str() {
            "--seeds" => config.seeds = value(it.next(), "--seeds").map_err(bad)?,
            "--base-seed" => config.base_seed = value(it.next(), "--base-seed").map_err(bad)?,
            other => return Err(bad(format!("unknown soak option {other:?}"))),
        }
    }
    eprintln!(
        "memdos-engine: soak: {} seeded chaos scenarios (base seed {}), {} replays each",
        config.seeds, config.base_seed, REPLAYS
    );
    let report = run_soak(&config, |scenario| {
        eprintln!(
            "memdos-engine: soak: scenario {} seed {}: {} faults, {} log lines, \
             identical={} bounded={}",
            scenario.index,
            scenario.seed,
            scenario.trace.total(),
            scenario.log_lines,
            scenario.identical,
            scenario.bounded
        );
        println!("{}", scenario.to_line());
    });
    let report = report.map_err(|e| bad(format!("soak: {e}")))?;
    println!("{}", report.summary_line());
    if report.passed() {
        eprintln!("memdos-engine: soak: PASS");
        return Ok(0);
    }
    eprintln!(
        "memdos-engine: soak: FAIL (identical={} bounded={} missing={:?})",
        report.all_identical(),
        report.all_bounded(),
        report.missing_classes()
    );
    Ok(1)
}

fn cmd_serve(addr: Option<&String>) -> Result<i32, Fail> {
    let addr = addr.ok_or_else(|| bad("serve requires an address (e.g. 127.0.0.1:7700)"))?;
    let mut engine = engine_from_env(false).map_err(bad)?;
    // Bind retries on the deterministic capped schedule (the address is
    // often still in TIME_WAIT after a restart), as do accept failures;
    // a successful operation resets the budget.
    let mut backoff = Backoff::transport();
    let listener = loop {
        match std::net::TcpListener::bind(addr) {
            Ok(l) => break l,
            Err(e) => match backoff.next_delay_ms() {
                Some(delay_ms) => {
                    eprintln!("memdos-engine: bind {addr}: {e} (retrying in {delay_ms} ms)");
                    // The binary owns real sleeps; the schedule itself is
                    // pure and tested in chaos::Backoff.
                    // lint:allow(thread) -- transport retry sleep in the CLI
                    std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                }
                None => return Err(io_fail(format!("bind {addr}: {e} (retry budget spent)"))),
            },
        }
    };
    backoff.reset();
    eprintln!("memdos-engine: listening on {addr} (one connection at a time)");
    let mut printed = 0;
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                backoff.reset();
                // The resynchronising reader path: corrupted bytes and
                // invalid UTF-8 are logged and skipped, never fatal; an
                // I/O error mid-connection keeps everything ingested
                // before it.
                let consumed = match engine.ingest_reader(BufReader::new(stream)) {
                    Ok(n) => n,
                    Err(e) => {
                        eprintln!("memdos-engine: {peer}: {e}");
                        engine.flush();
                        0
                    }
                };
                printed = print_new_log(&engine, printed);
                eprintln!("memdos-engine: {peer}: {consumed} lines");
            }
            Err(e) => match backoff.next_delay_ms() {
                Some(delay_ms) => {
                    eprintln!("memdos-engine: accept: {e} (retrying in {delay_ms} ms)");
                    // lint:allow(thread) -- transport retry sleep in the CLI
                    std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                }
                None => return Err(io_fail(format!("accept: {e} (retry budget spent)"))),
            },
        }
    }
}
