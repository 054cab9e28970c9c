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

/// Re-encodes a record stream between the JSONL and binary wire
/// formats (`jsonl2bin` / `bin2jsonl`). Input and output default to
/// stdin/stdout; `-` selects them explicitly. Spans neither decoder
/// accepts are skipped with a count on stderr — a converted stream
/// carries exactly the records of the source, so replaying either
/// through the engine produces the same verdict log (pinned by the
/// binary equivalence suite).
fn cmd_convert(args: &[String]) -> Result<i32, Fail> {
    let direction = match args.first().map(String::as_str) {
        Some(d @ ("jsonl2bin" | "bin2jsonl")) => d,
        _ => return Err(bad("convert requires a direction: jsonl2bin | bin2jsonl")),
    };
    let failed = |p: &str, e: std::io::Error| io_fail(format!("convert: {p}: {e}"));
    let reader: Box<dyn std::io::BufRead> = match args.get(1).map(String::as_str) {
        None | Some("-") => Box::new(std::io::stdin().lock()),
        Some(p) => Box::new(BufReader::new(std::fs::File::open(p).map_err(|e| failed(p, e))?)),
    };
    // Stdout is line-buffered: unwrapped, `bin2jsonl` would make one
    // write call per record.
    let writer: Box<dyn Write> = match args.get(2).map(String::as_str) {
        None | Some("-") => Box::new(std::io::BufWriter::new(std::io::stdout().lock())),
        Some(p) => {
            let file = std::fs::File::create(p).map_err(|e| failed(p, e))?;
            Box::new(std::io::BufWriter::new(file))
        }
    };
    let (records, skipped) = match direction {
        "jsonl2bin" => convert_jsonl2bin(reader, writer),
        _ => convert_bin2jsonl(reader, writer),
    }
    .map_err(|e| io_fail(format!("convert: {e}")))?;
    eprintln!("memdos-engine: convert: {direction}: {records} records, {skipped} spans skipped");
    Ok(0)
}

/// The `jsonl2bin` arm: decode lines, re-encode frames. The encoder
/// interns tenant names to dense wire ids and emits each tenant's
/// define frame before its first record. Lines decode as the engine
/// ingests them: through the borrowed record parser, falling back on a
/// reject to resynchronisation, which recovers every embedded record;
/// every span neither accepts counts as skipped.
fn convert_jsonl2bin(
    mut reader: Box<dyn std::io::BufRead>,
    mut writer: Box<dyn Write>,
) -> Result<(u64, u64), String> {
    use memdos_engine::protocol::{Record, RecordError};
    use memdos_metrics::binary::Encoder;
    use memdos_metrics::jsonl::{self, LineFramer, Piece, RawKind, Segment};
    let mut framer = LineFramer::new(jsonl::DEFAULT_MAX_LINE);
    let mut enc = Encoder::new();
    let mut out: Vec<u8> = Vec::new();
    let mut scratch = String::new();
    let (mut records, mut skipped) = (0u64, 0u64);
    let mut failed: Result<(), String> = Ok(());
    let mut encode = |tenant: &str, kind: RawKind, out: &mut Vec<u8>| {
        let encoded = match kind {
            RawKind::Sample { access, miss } => enc.sample(tenant, access, miss, out),
            RawKind::Close => enc.close(tenant, out),
        };
        encoded.map(|()| records += 1).map_err(|e| e.to_string())
    };
    let mut piece = |piece: Piece<'_>, out: &mut Vec<u8>| -> Result<(), String> {
        let line = match piece {
            Piece::Text(line) => line,
            Piece::Skipped { .. } => {
                skipped += 1;
                return Ok(());
            }
        };
        if let Ok(raw) = jsonl::parse_record_borrowed(line, &mut scratch) {
            return encode(raw.tenant, raw.kind, out);
        }
        for segment in jsonl::resync_line(line) {
            let record = match segment {
                Segment::Object(obj) => Record::from_object(&obj),
                Segment::Skipped { .. } => Err(RecordError::Syntax),
            };
            match record {
                Ok(Record::Sample { tenant, obs }) => {
                    let kind = RawKind::Sample { access: obs.access_num, miss: obs.miss_num };
                    encode(&tenant, kind, out)?;
                }
                Ok(Record::Close { tenant }) => encode(&tenant, RawKind::Close, out)?,
                Err(_) => skipped += 1,
            }
        }
        Ok(())
    };
    loop {
        let len = {
            let chunk = reader.fill_buf().map_err(|e| e.to_string())?;
            if chunk.is_empty() {
                break;
            }
            framer.push(chunk, |p| {
                if failed.is_ok() {
                    failed = piece(p, &mut out);
                }
            });
            chunk.len()
        };
        reader.consume(len);
        failed.clone()?;
        if out.len() >= 64 * 1024 {
            writer.write_all(&out).map_err(|e| e.to_string())?;
            out.clear();
        }
    }
    framer.finish(|p| {
        if failed.is_ok() {
            failed = piece(p, &mut out);
        }
    });
    failed?;
    writer.write_all(&out).map_err(|e| e.to_string())?;
    writer.flush().map_err(|e| e.to_string())?;
    Ok((records, skipped))
}

/// The `bin2jsonl` arm: decode frames, render protocol lines. Define
/// frames populate the local wire directory and emit nothing — they
/// have no JSONL twin.
fn convert_bin2jsonl(
    mut reader: Box<dyn std::io::BufRead>,
    mut writer: Box<dyn Write>,
) -> Result<(u64, u64), String> {
    use memdos_metrics::binary::{BinDecoder, BinFrame, MAGIC};
    use memdos_metrics::jsonl::{write_record, RawKind};
    let mut dec = BinDecoder::new();
    let mut names: Vec<Option<String>> = Vec::new();
    let mut line = String::new();
    let mut records = 0u64;
    let mut skipped = 0u64;
    // The decoder leaves the preamble to the caller (the engine's
    // reader sniffs it the same way); anything else at the front goes
    // through frame resync like any other corruption.
    let mut preamble = 0usize;
    let mut render = |frame: BinFrame, writer: &mut Box<dyn Write>| -> Result<(), String> {
        let (tenant, kind) = match frame {
            BinFrame::Define { tenant, name } => {
                let slot = tenant as usize;
                if names.len() <= slot {
                    names.resize_with(slot + 1, || None);
                }
                if let Some(e) = names.get_mut(slot) {
                    *e = Some(name);
                }
                return Ok(());
            }
            BinFrame::Sample { tenant, access, miss } => (tenant, RawKind::Sample { access, miss }),
            BinFrame::Close { tenant } => (tenant, RawKind::Close),
            BinFrame::Skipped { .. } => {
                skipped += 1;
                return Ok(());
            }
        };
        let Some(name) = names.get(tenant as usize).and_then(Option::as_ref) else {
            skipped += 1;
            return Ok(());
        };
        line.clear();
        write_record(&mut line, name, kind);
        line.push('\n');
        writer.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
        records += 1;
        Ok(())
    };
    loop {
        let len = {
            let chunk = reader.fill_buf().map_err(|e| e.to_string())?;
            if chunk.is_empty() {
                break;
            }
            let mut body = chunk;
            while preamble < MAGIC.len() {
                match (body.first(), MAGIC.get(preamble)) {
                    (Some(b), Some(m)) if b == m => {
                        preamble += 1;
                        body = body.get(1..).unwrap_or(&[]);
                    }
                    _ => {
                        preamble = MAGIC.len();
                    }
                }
            }
            dec.push_bytes(body);
            chunk.len()
        };
        reader.consume(len);
        for frame in dec.drain() {
            render(frame, &mut writer)?;
        }
    }
    for frame in dec.finish() {
        render(frame, &mut writer)?;
    }
    writer.flush().map_err(|e| e.to_string())?;
    Ok((records, skipped))
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
