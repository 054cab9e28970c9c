//! `fleet-churn-jsonl`: exactly `fleet_scenario(50_000, seed)` through
//! `fleet_engine_config(1, 16_384)` on the JSONL wire via `ingest_line`.
//! The session ceiling thrashes — most sessions are evicted before they
//! finish profiling — so the session store (slab, LRU heap, intern
//! table, event rendering) carries the load, not the detectors.
//!
//! A saturating pass measures throughput; an open-loop pass at the fixed
//! [`PACED_RATE`] measures event latency.

use crate::loadgen::Pacer;
use crate::logscan::{self, Emissions};
use crate::pipeline::{self, CallTimes};
use crate::run::Run;
use crate::trace::Acc;
use memdos_core::detector::Observation;
use memdos_engine::engine::Engine;
use memdos_engine::fleet::{
    fleet_engine_config, fleet_jsonl, fleet_scenario, fleet_templates, tenant_name,
};
use memdos_engine::protocol::Record;
use memdos_sim::fleet::{FleetConfig, FleetEventKind, FleetGenerator};

/// Default seed: the fleet bench's historical seed.
pub const DEFAULT_SEED: u64 = 0xF1EE7;
/// Fleet size.
pub const TENANTS: u32 = 50_000;
/// Open-session ceiling.
pub const CEILING: usize = 16_384;
/// Offered rate of the open-loop pass, records/s: about half the
/// saturating rate at the default seed (~95,000 records/s on a 2-vCPU
/// Xeon VM).
pub const PACED_RATE: f64 = 48_000.0;
/// Set-up repetitions; the median is reported.
const SETUP_REPS: usize = 3;
/// Fewest saturating passes an untraced run makes.
const MIN_PASSES: usize = 2;

/// The generated input: JSONL lines, the tenant of each, tenant names.
struct Input {
    lines: Vec<String>,
    tenant_of: Vec<u32>,
    names: Vec<String>,
}

/// Generates and encodes the scenario, timing the generator and the
/// encoder separately (in chunks, so the clock stays out of the loop).
fn generate(
    scenario: &FleetConfig,
    gen_acc: &mut Acc,
    enc_acc: &mut Acc,
    run: &Run,
) -> Result<Input, String> {
    let templates = fleet_templates();
    let mut gen = FleetGenerator::new(*scenario, &templates)?;
    let mut names: Vec<Option<String>> = vec![None; scenario.tenants as usize];
    let (mut lines, mut tenant_of) = (Vec::new(), Vec::new());
    pipeline::generate_chunked(run, &mut gen, &templates, (gen_acc, enc_acc), |item| {
        let slot = names
            .get_mut(item.tenant as usize)
            .ok_or("tenant out of range")?;
        let tenant = slot
            .get_or_insert_with(|| tenant_name(&item, &templates))
            .clone();
        let record = match item.kind {
            FleetEventKind::Sample { access, miss } => Record::Sample {
                tenant,
                obs: Observation {
                    access_num: access,
                    miss_num: miss,
                },
            },
            FleetEventKind::Close => Record::Close { tenant },
        };
        lines.push(record.to_line());
        tenant_of.push(item.tenant);
        Ok(())
    })?;
    let names = names.into_iter().map(Option::unwrap_or_default).collect();
    Ok(Input {
        lines,
        tenant_of,
        names,
    })
}

/// Feeds every line through `ingest_line`.
fn ingest_lines(engine: &mut Engine, lines: &[String]) -> Result<(), String> {
    for line in lines {
        engine.ingest_line(line);
    }
    Ok(())
}

/// Runs the workload.
pub fn run(run: &mut Run) -> Result<(), String> {
    let scenario = fleet_scenario(TENANTS, run.args.seed);
    let config = fleet_engine_config(1, CEILING);
    run.note(format!(
        "config churn tenants={TENANTS} ceiling={CEILING} paced_rate={PACED_RATE} seed={}",
        run.args.seed
    ));

    let input = pipeline::setup(
        run,
        (SETUP_REPS, config),
        "engine.protocol.to_line",
        |i: &Input| i.lines.len(),
        |run, g, e| generate(&scenario, g, e, run),
    )?;
    let records = input.lines.len() as u64;
    let bytes: usize = input.lines.iter().map(|l| l.len() + 1).sum();
    run.set(
        "metrics.wire_bytes_per_record",
        bytes as f64 / records.max(1) as f64,
    );

    let mut body_digest = 0;
    let (rate, digest) = pipeline::saturating_passes(
        run,
        records,
        (run.args.seconds * 0.4, MIN_PASSES),
        || pipeline::saturate(config, |e| ingest_lines(e, &input.lines)),
        |run, engine| {
            body_digest = logscan::digest(logscan::body(engine.log_lines()));
            pipeline::record_counts(run, &[engine], records, config.workers);
            let suspicious = engine
                .log_lines()
                .iter()
                .filter(|l| {
                    logscan::field(l, "event") == Some("verdict")
                        && logscan::field(l, "to") == Some("suspicious")
                })
                .count();
            run.set("false_alarms", suspicious as f64);
        },
    )?;
    if run.args.traced {
        let engine =
            pipeline::traced_pass(run, config, (records, rate), "engine.ingest_line", |e| {
                ingest_lines(e, &input.lines)
            })?;
        run.check_eq(
            "churn.traced_log_matches_untraced",
            logscan::digest(logscan::body(engine.log_lines())),
            body_digest,
        );
    }

    // Open-loop pass at the fixed rate.
    let pass = run.trace.open("pass.paced", None);
    let mut engine = Engine::new(config).map_err(|e| e.to_string())?;
    let mut pacer = Pacer::new(PACED_RATE);
    let mut emissions = Emissions::default();
    let mut calls = CallTimes {
        ingest_us: Vec::with_capacity(input.lines.len()),
        flush_ms: Vec::new(),
    };
    for (i, line) in input.lines.iter().enumerate() {
        pacer.wait(i as u64);
        let t0 = pacer.now_ns();
        engine.ingest_line(line);
        let t1 = pacer.now_ns();
        calls.ingest_us.push((t1 - t0) as f64 / 1e3);
        if emissions.mark(engine.log_lines().len(), t1) {
            calls.flush_ms.push((t1 - t0) as f64 / 1e6);
        }
    }
    engine.finish();
    emissions.mark(engine.log_lines().len(), pacer.now_ns());
    run.trace.close(pass);
    pipeline::record_call_times(run, &calls);
    let (names, tenant_of) = (&input.names, &input.tenant_of);
    let lat = pipeline::latencies(
        engine.log_lines(),
        &emissions,
        |r| pacer.due_ns(r as u64),
        |r| {
            tenant_of
                .get(r)
                .and_then(|&t| names.get(t as usize))
                .map(String::as_str)
        },
    );
    match lat {
        Ok(lat) => pipeline::record_latency(run, &lat, &pacer),
        Err(e) => run.check("churn.seq_map_matches_input", Err(e)),
    }
    run.check_eq(
        "churn.paced_log_matches_saturating",
        logscan::digest(engine.log_lines()),
        digest,
    );
    drop(engine);

    // The harness renders the scenario exactly as the library does.
    let library = fleet_jsonl(&scenario)?;
    run.check(
        "churn.input_matches_fleet_jsonl",
        if library == input.lines {
            Ok(())
        } else {
            Err("lines differ".into())
        },
    );
    Ok(())
}
