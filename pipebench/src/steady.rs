//! `fleet-steady-bin`: a long-lived fleet stamped from every catalogue
//! template — fixed sampling interval, no churn, no session ceiling —
//! with one labelled attacker over the last 40 % of the span, encoded on
//! the binary wire and fed through `ingest_reader`. Every session
//! profiles once and then monitors, so binary decode, dispatch and
//! columnar detector stepping do the work. Saturating passes only.
//!
//! The timed passes run one engine worker (the inline path). The pooled
//! path (`ShardPool` workers and the K-way merge) runs once per run as an
//! output check — its log must equal the inline log — and its rate is a
//! report line: on a 2-vCPU host its wall time swung by ±40 % between
//! runs of one seed, too much for any bound.

use crate::logscan;
use crate::pipeline;
use crate::run::Run;
use crate::trace::Acc;
use memdos_engine::engine::Engine;
use memdos_engine::fleet::{fleet_engine_config, fleet_templates, tenant_name};
use memdos_engine::Config;
use memdos_metrics::binary::Encoder;
use memdos_metrics::jsonl::LineBuf;
use memdos_sim::fleet::{AttackWindow, FleetAttack, FleetConfig, FleetEventKind, FleetGenerator};
use std::collections::BTreeSet;
use std::io::BufReader;

/// Default seed.
pub const DEFAULT_SEED: u64 = 0x57EAD;
/// Fleet size.
pub const TENANTS: u32 = 512;
/// Timeline length, ticks (every tenant samples every tick).
pub const SPAN: u64 = 1_024;
/// First tick of the attack.
pub const ONSET: u64 = SPAN * 3 / 5;
/// Tenant index of the labelled attacker.
pub const ATTACKER: u32 = 1;
/// Engine workers of the timed passes: the inline path.
pub const WORKERS: usize = 1;
/// Engine workers of the pooled check pass.
pub const POOLED_WORKERS: usize = 2;
/// Set-up repetitions; the median is reported.
const SETUP_REPS: usize = 3;
/// Fewest saturating passes an untraced run makes.
const MIN_PASSES: usize = 9;
/// Seconds of one PCM sample (`T_PCM`), for delays in sample ticks.
const T_PCM_S: f64 = 0.01;

/// The scenario: long-lived tenants, one attacker collapsing its own
/// accesses and pressing mildly on every other tenant.
pub fn scenario(seed: u64) -> FleetConfig {
    FleetConfig {
        tenants: TENANTS,
        span_ticks: SPAN,
        zipf_s: 1.1,
        min_interval: 1,
        max_interval: 1,
        churn: 0.0,
        seed,
        attack: Some(FleetAttack {
            attacker: ATTACKER,
            collapse: 0.9,
            first: AttackWindow {
                from: ONSET,
                until: SPAN,
                severity: 0.05,
            },
            second: None,
        }),
    }
}

/// The engine configuration: the fleet preset without a ceiling.
pub fn engine_config(workers: usize) -> Config {
    fleet_engine_config(workers, 0)
}

/// The generated input.
struct Input {
    /// The binary stream (preamble, defines, frames).
    wire: Vec<u8>,
    /// Tenant and timeline tick of every record, in stream order.
    tenant_of: Vec<u32>,
    tick_of: Vec<u32>,
    /// Templates the tenants were stamped from.
    templates_used: usize,
}

/// Generates the scenario and encodes it on the binary wire, timing the
/// generator and the encoder separately (in chunks).
fn generate(seed: u64, gen_acc: &mut Acc, enc_acc: &mut Acc, run: &Run) -> Result<Input, String> {
    let templates = fleet_templates();
    let mut gen = FleetGenerator::new(scenario(seed), &templates)?;
    let names: Vec<String> = (0..TENANTS)
        .map(|t| {
            let template = gen.template_of(t).unwrap_or(0);
            let item = memdos_sim::fleet::FleetItem {
                tick: 0,
                tenant: t,
                template,
                kind: FleetEventKind::Close,
            };
            tenant_name(&item, &templates)
        })
        .collect();
    let templates_used = (0..TENANTS)
        .filter_map(|t| gen.template_of(t))
        .collect::<BTreeSet<_>>()
        .len();
    let mut enc = Encoder::new();
    let mut wire = Vec::new();
    let (mut tenant_of, mut tick_of) = (Vec::new(), Vec::new());
    pipeline::generate_chunked(run, &mut gen, &templates, (gen_acc, enc_acc), |item| {
        let name = names
            .get(item.tenant as usize)
            .ok_or("tenant out of range")?;
        match item.kind {
            FleetEventKind::Sample { access, miss } => enc.sample(name, access, miss, &mut wire),
            FleetEventKind::Close => enc.close(name, &mut wire),
        }
        .map_err(|e| e.to_string())?;
        tenant_of.push(item.tenant);
        tick_of.push(item.tick as u32);
        Ok(())
    })?;
    Ok(Input {
        wire,
        tenant_of,
        tick_of,
        templates_used,
    })
}

/// Feeds the binary stream through `ingest_reader`, as a socket would.
fn ingest_wire(engine: &mut Engine, wire: &[u8]) -> Result<(), String> {
    engine
        .ingest_reader(BufReader::new(wire))
        .map(drop)
        .map_err(|e| e.to_string())
}

/// Detection outcome read from the log: suspicious verdicts before the
/// attack, and the attacker's delay to its first alarm in sample ticks.
fn detection(run: &mut Run, log: &[String], input: &Input) {
    let map = logscan::SeqMap::new(log);
    let tick_of = |line: &str| {
        logscan::seq(line)
            .and_then(|s| map.record_of(s))
            .and_then(|r| input.tick_of.get(r).copied())
    };
    let mut false_alarms = 0u64;
    let mut alarm_tick = None;
    let attacker = format!("-{ATTACKER:05}");
    for line in log {
        if logscan::field(line, "event") != Some("verdict") {
            continue;
        }
        let Some(tick) = tick_of(line) else { continue };
        let to = logscan::field(line, "to");
        if to == Some("suspicious") && u64::from(tick) < ONSET {
            false_alarms += 1;
        }
        let is_attacker = logscan::field(line, "tenant").is_some_and(|t| t.ends_with(&attacker));
        if to == Some("alarm") && is_attacker && u64::from(tick) >= ONSET && alarm_tick.is_none() {
            alarm_tick = Some(u64::from(tick));
        }
    }
    run.set("false_alarms", false_alarms as f64);
    match alarm_tick {
        Some(at) => {
            let samples = input
                .tenant_of
                .iter()
                .zip(&input.tick_of)
                .filter(|&(&t, &k)| t == ATTACKER && (ONSET..=at).contains(&u64::from(k)))
                .count();
            run.set("detect_delay_s", samples as f64 * T_PCM_S);
            run.check("steady.attacker_alarmed", Ok(()));
        }
        None => run.check(
            "steady.attacker_alarmed",
            Err("the attacker never alarmed".into()),
        ),
    }
}

/// Runs the workload.
pub fn run(run: &mut Run) -> Result<(), String> {
    let seed = run.args.seed;
    let config = engine_config(WORKERS);
    run.note(format!(
        "config steady tenants={TENANTS} span={SPAN} onset={ONSET} workers={WORKERS} \
         pooled_workers={POOLED_WORKERS} seed={seed}"
    ));

    let input = pipeline::setup(
        run,
        (SETUP_REPS, config),
        "metrics.binary.encode",
        |i: &Input| i.tenant_of.len(),
        |run, g, e| generate(seed, g, e, run),
    )?;
    let records = input.tenant_of.len() as u64;
    let r = records.max(1) as f64;
    run.set("metrics.wire_bytes_per_record", input.wire.len() as f64 / r);
    run.check_eq(
        "steady.all_templates_used",
        input.templates_used,
        fleet_templates().len(),
    );

    let (rate, digest) = pipeline::saturating_passes(
        run,
        records,
        (run.args.seconds * 0.8, MIN_PASSES),
        || pipeline::saturate(config, |e| ingest_wire(e, &input.wire)),
        |run, engine| {
            pipeline::record_counts(run, &[engine], records, WORKERS);
            detection(run, engine.log_lines(), &input);
        },
    )?;
    if run.args.traced {
        pipeline::traced_pass(run, config, (records, rate), "engine.ingest_reader", |e| {
            ingest_wire(e, &input.wire)
        })?;
    }

    // The pooled path writes the inline path's log.
    let (engine, wall, _) = pipeline::saturate(engine_config(POOLED_WORKERS), |e| {
        ingest_wire(e, &input.wire)
    })?;
    run.note(format!(
        "pooled workers_effective={} rate={} rec/s",
        pipeline::workers_effective(POOLED_WORKERS),
        r / (wall as f64 / 1e9)
    ));
    run.check_eq(
        "steady.pooled_log_matches_inline",
        logscan::digest(engine.log_lines()),
        digest,
    );
    drop(engine);

    // The binary log equals the JSONL log of the same stream.
    let templates = fleet_templates();
    let mut gen = FleetGenerator::new(scenario(seed), &templates)?;
    let mut engine = Engine::new(config).map_err(|e| e.to_string())?;
    // `LineBuf` writes exactly the bytes `Record::to_line` writes, without
    // the per-record allocations.
    let mut line = LineBuf::new();
    while let Some(item) = gen.next_item(&templates) {
        let tenant = tenant_name(&item, &templates);
        line.begin().field_str("tenant", &tenant);
        match item.kind {
            FleetEventKind::Sample { access, miss } => {
                line.field_num("access", access).field_num("miss", miss)
            }
            FleetEventKind::Close => line.field_str("ctl", "close"),
        };
        engine.ingest_line(line.end());
    }
    engine.finish();
    run.check_eq(
        "steady.binary_log_matches_jsonl",
        digest,
        logscan::digest(engine.log_lines()),
    );
    Ok(())
}
