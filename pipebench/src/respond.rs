//! `respond-loop`: the three ground-truth respond scenarios in fixed
//! order, re-driven by the harness from public calls — generate →
//! `to_line` → `ingest_line`, and every 16-tick round `flush` →
//! `take_mitigation_actions` → `set_throttle` — so the generator, the
//! alarm → quarantine → mitigation state machine and the per-round
//! flushes all sit inside the timed loop. Verdicts feed back into the
//! traffic: a change that alters a decision changes the input too.
//!
//! Saturating passes, rotating over the allowed CPUs, measure
//! throughput; an open-loop pass at the fixed [`PACED_RATE`] measures
//! event latency.

use crate::cpu::Cpus;
use crate::loadgen::Pacer;
use crate::logscan::{self, Emissions};
use crate::pipeline::{self, CallTimes};
use crate::run::{peak_rss_mb, Run};
use crate::stats::tail;
use crate::trace::{Acc, Trace};
use memdos_core::detector::Observation;
use memdos_engine::engine::Engine;
use memdos_engine::fleet::tenant_name;
use memdos_engine::mitigation::{ActionKind, MitigationAction};
use memdos_engine::protocol::Record;
use memdos_engine::respond::{
    respond_engine_config, respond_scenario, respond_templates, run_respond, AppliedAction,
    RespondScenario, RESPOND_ROUND_TICKS,
};
use memdos_engine::Config;
use memdos_sim::fleet::{FleetConfig, FleetEventKind, FleetGenerator, FleetItem, ThrottleLevel};
use std::collections::BTreeMap;
use std::time::Instant;

/// Default seed: the respond suite's seed.
pub const DEFAULT_SEED: u64 = 42;
/// Tenants per scenario.
pub const TENANTS: u32 = 512;
/// Offered rate of the open-loop pass, records/s: about half the
/// saturating rate at the default seed (~400,000 records/s on a 2-vCPU
/// Xeon VM).
pub const PACED_RATE: f64 = 200_000.0;
/// Set-up repetitions; the median is reported.
const SETUP_REPS: usize = 1_001;
/// Fewest saturating passes an untraced run makes.
const MIN_PASSES: usize = 5;

/// The phase of the loop that just ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Gen,
    Flush,
    Take,
    Apply,
    Encode,
    Ingest,
    Finish,
}

/// Observes the loop. The untraced saturating pass uses `()`, whose
/// no-op hooks compile away.
trait Tap {
    /// Record `i` (of tenant `tenant`) is about to be offered.
    fn offer(&mut self, _i: u64, _tenant: u32) {}
    /// A phase of the loop just ended.
    fn done(&mut self, _phase: Phase, _engine: &Engine) {}
}

impl Tap for () {}

/// Traced pass: bills the time since the previous hook to the phase
/// that just ended.
struct SpanTap<'t> {
    trace: &'t Trace,
    last: u64,
    accs: [Acc; 7],
}

impl Tap for SpanTap<'_> {
    fn done(&mut self, phase: Phase, _engine: &Engine) {
        let now = self.trace.now_ns();
        if let Some(acc) = self.accs.get_mut(phase as usize) {
            acc.add(self.last, now);
        }
        self.last = now;
    }
}

/// Open-loop pass: waits for each record's due time, times every
/// engine call, and notes when log lines appear.
struct PacedTap<'p> {
    pacer: &'p mut Pacer,
    /// Index of this scenario's first record in the pass.
    offset: u64,
    last: u64,
    emissions: Emissions,
    calls: CallTimes,
    tenant_of: Vec<u32>,
}

impl Tap for PacedTap<'_> {
    fn offer(&mut self, i: u64, tenant: u32) {
        self.pacer.wait(self.offset + i);
        self.tenant_of.push(tenant);
        self.last = self.pacer.now_ns();
    }

    fn done(&mut self, phase: Phase, engine: &Engine) {
        let now = self.pacer.now_ns();
        let took = now.saturating_sub(self.last);
        self.last = now;
        let appended = matches!(phase, Phase::Ingest | Phase::Flush | Phase::Finish)
            && self.emissions.mark(engine.log_lines().len(), now);
        if phase == Phase::Ingest {
            self.calls.ingest_us.push(took as f64 / 1e3);
        }
        if appended && phase == Phase::Ingest {
            self.calls.flush_ms.push(took as f64 / 1e6);
        }
    }
}

/// What one scenario produced.
struct Outcome {
    engine: Engine,
    actions: Vec<AppliedAction>,
    records: u64,
    /// Wire bytes of the records, newlines included.
    bytes: u64,
    attacker: String,
    /// Wall time of each round (flush → take → apply), ns.
    rounds_ns: Vec<u64>,
    /// Wall time of each explicit `flush`, ns.
    flushes_ns: Vec<u64>,
    /// Wall time of `finish`, ns.
    finish_ns: u64,
    /// Wall time of each segment of the loop, ns: a segment runs from
    /// one round boundary to the next (the round's flush → take → apply,
    /// then the records up to the next round); the last one ends with
    /// `finish`. The segments cover the whole loop.
    segments_ns: Vec<u64>,
}

/// Maps a wire name back to its fleet index, as the respond driver does.
fn tenant_index(name: &str) -> Option<u32> {
    name.rsplit('-').next()?.parse().ok()
}

/// The throttle level an action asks for, as the respond driver maps it.
fn level_for(kind: ActionKind) -> ThrottleLevel {
    match kind {
        ActionKind::Throttle => ThrottleLevel::Throttled,
        ActionKind::Pause | ActionKind::Evict => ThrottleLevel::Paused,
        ActionKind::Release => ThrottleLevel::Run,
    }
}

fn apply(
    actions: Vec<MitigationAction>,
    gen: &mut FleetGenerator,
    tick: u64,
    out: &mut Vec<AppliedAction>,
) {
    for action in actions {
        let applied = tenant_index(&action.tenant)
            .is_some_and(|i| gen.set_throttle(i, level_for(action.kind)));
        out.push(AppliedAction {
            tick,
            tenant: action.tenant,
            kind: action.kind,
            applied,
        });
    }
}

/// Drives one scenario to completion through public calls.
fn drive<T: Tap>(mut gen: FleetGenerator, mut engine: Engine, tap: &mut T) -> Outcome {
    let templates = respond_templates();
    let mut names: Vec<Option<String>> = vec![None; gen.config().tenants as usize];
    let mut actions = Vec::new();
    let (mut rounds_ns, mut flushes_ns) = (Vec::new(), Vec::new());
    let mut next_round = RESPOND_ROUND_TICKS;
    let (mut i, mut bytes) = (0u64, 0u64);
    let mut segments_ns = Vec::new();
    let mut segment = Instant::now();
    while let Some(item) = gen.next_item(&templates) {
        tap.done(Phase::Gen, &engine);
        if item.tick >= next_round {
            let t0 = Instant::now();
            segments_ns.push(t0.duration_since(segment).as_nanos() as u64);
            segment = t0;
            engine.flush();
            flushes_ns.push(t0.elapsed().as_nanos() as u64);
            tap.done(Phase::Flush, &engine);
            let taken = engine.take_mitigation_actions();
            tap.done(Phase::Take, &engine);
            apply(taken, &mut gen, item.tick, &mut actions);
            tap.done(Phase::Apply, &engine);
            rounds_ns.push(t0.elapsed().as_nanos() as u64);
            next_round = (item.tick / RESPOND_ROUND_TICKS + 1) * RESPOND_ROUND_TICKS;
        }
        tap.offer(i, item.tenant);
        let slot = names.get_mut(item.tenant as usize);
        let tenant = match slot {
            Some(slot) => slot
                .get_or_insert_with(|| tenant_name(&item, &templates))
                .clone(),
            None => tenant_name(&item, &templates),
        };
        let line = match item.kind {
            FleetEventKind::Sample { access, miss } => Record::Sample {
                tenant,
                obs: Observation {
                    access_num: access,
                    miss_num: miss,
                },
            }
            .to_line(),
            FleetEventKind::Close => Record::Close { tenant }.to_line(),
        };
        tap.done(Phase::Encode, &engine);
        bytes += line.len() as u64 + 1;
        engine.ingest_line(&line);
        tap.done(Phase::Ingest, &engine);
        i += 1;
    }
    let t0 = Instant::now();
    engine.finish();
    let finish_ns = t0.elapsed().as_nanos() as u64;
    segments_ns.push(segment.elapsed().as_nanos() as u64);
    tap.done(Phase::Finish, &engine);
    let span = gen.config().span_ticks;
    apply(
        engine.take_mitigation_actions(),
        &mut gen,
        span,
        &mut actions,
    );
    let attacker = gen.attacker().map_or_else(String::new, |idx| {
        let template = gen.template_of(idx).unwrap_or(0);
        tenant_name(
            &FleetItem {
                tick: 0,
                tenant: idx,
                template,
                kind: FleetEventKind::Close,
            },
            &templates,
        )
    });
    Outcome {
        engine,
        actions,
        records: i,
        bytes,
        attacker,
        rounds_ns,
        flushes_ns,
        finish_ns,
        segments_ns,
    }
}

/// Builds a scenario's generator and engine — the set-up of one
/// scenario.
fn build(scenario: &FleetConfig, config: Config) -> Result<(FleetGenerator, Engine), String> {
    let gen = FleetGenerator::new(*scenario, &respond_templates())?;
    let engine = Engine::new(config).map_err(|e| e.to_string())?;
    Ok((gen, engine))
}

/// Whether the attacker's case followed the scenario's designed arc.
fn arc_met(kind: RespondScenario, log: &[String], attacker: &str) -> bool {
    let mut engaged = false;
    let mut released = false;
    let mut escalated_after_release = false;
    let mut escalated = false;
    for line in log
        .iter()
        .filter(|l| logscan::field(l, "tenant") == Some(attacker))
    {
        match logscan::field(line, "event") {
            Some("mitigation_engaged") => engaged = true,
            Some("mitigation_released") => released = true,
            Some("mitigation_escalated") => {
                escalated = true;
                escalated_after_release |= released;
            }
            _ => {}
        }
    }
    match kind {
        RespondScenario::TrueAttacker => engaged && escalated && !released,
        RespondScenario::BenignShift => engaged && released && !escalated,
        RespondScenario::QuietResume => released && escalated_after_release,
    }
}

/// Runs the workload.
pub fn run(run: &mut Run) -> Result<(), String> {
    let seed = run.args.seed;
    let config = respond_engine_config(1);
    let scenarios: Vec<(RespondScenario, FleetConfig)> = RespondScenario::ALL
        .iter()
        .map(|&k| (k, respond_scenario(k, TENANTS, seed)))
        .collect();
    run.note(format!(
        "config respond tenants={TENANTS} paced_rate={PACED_RATE} seed={seed}"
    ));

    // Set-up: every scenario's generator and engine.
    let root = run.trace.open("setup", None);
    let (mut setups, mut news) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let mut new_s = 0.0;
        for (_, scenario) in &scenarios {
            let g = FleetGenerator::new(*scenario, &respond_templates())?;
            let t1 = Instant::now();
            let e = Engine::new(config).map_err(|e| e.to_string())?;
            new_s += t1.elapsed().as_secs_f64();
            drop((g, e));
        }
        setups.push(t0.elapsed().as_secs_f64());
        news.push(new_s * 1e3);
    }
    run.trace.close(root);
    run.set("setup_s", pipeline::median0(&setups));
    run.set("engine.new_ms", pipeline::median0(&news));

    // Saturating passes.
    let since = run.elapsed();
    let budget = run.args.seconds * 0.6;
    let (mut rates, mut finishes) = (Vec::new(), Vec::new());
    let (mut rounds_ms, mut flushes_ms) = (Vec::new(), Vec::new());
    let mut reference: Vec<(u64, Vec<AppliedAction>)> = Vec::new();
    let mut totals = Totals::default();
    let mut first_pass = Vec::new();
    let mut agree = true;
    // Each scenario's fastest time for each segment over the passes.
    let mut best: Vec<Vec<u64>> = Vec::new();
    let cpus = Cpus::new();
    loop {
        cpus.pin(rates.len());
        let mut wall = 0u64;
        let mut records = 0u64;
        for (k, (kind, scenario)) in scenarios.iter().enumerate() {
            let (gen, engine) = build(scenario, config)?;
            let t0 = Instant::now();
            let out = drive(gen, engine, &mut ());
            wall += t0.elapsed().as_nanos() as u64;
            records += out.records;
            match best.get_mut(k) {
                None => best.push(out.segments_ns.clone()),
                Some(b) if b.len() == out.segments_ns.len() => {
                    for (b, &s) in b.iter_mut().zip(&out.segments_ns) {
                        *b = (*b).min(s);
                    }
                }
                Some(_) => agree = false,
            }
            rounds_ms.extend(out.rounds_ns.iter().map(|&n| n as f64 / 1e6));
            flushes_ms.extend(out.flushes_ns.iter().map(|&n| n as f64 / 1e6));
            finishes.push(out.finish_ns as f64 / 1e6);
            let digest = logscan::digest(out.engine.log_lines());
            if reference.len() == k {
                totals.score(run, *kind, &out);
                reference.push((digest, out.actions.clone()));
                first_pass.push(out.engine);
            } else if reference
                .get(k)
                .is_none_or(|r| r.0 != digest || r.1 != out.actions)
            {
                agree = false;
            }
        }
        rates.push(records as f64 / (wall as f64 / 1e9));
        if rates.len() == 1 {
            // After a fixed amount of work: later passes only repeat it,
            // and how many fit depends on the clock.
            run.set("peak_rss_mb", peak_rss_mb()?);
            let engines: Vec<&Engine> = first_pass.iter().collect();
            pipeline::record_counts(run, &engines, totals.records, 1);
            // Later passes must not run beside these engines' memory.
            first_pass.clear();
        }
        if run.args.traced
            || (rates.len() >= MIN_PASSES && !run.fits(since, budget, wall as f64 / 1e9))
        {
            break;
        }
    }
    cpus.release();
    // The passes repeat identical work (their logs and actions are
    // checked equal below), and the host's noise only ever adds time,
    // so each segment's fastest pass is its cost; the rate is a pass's
    // records over the sum of those costs.
    let best_ns: u64 = best.iter().flatten().sum();
    let rate = totals.records as f64 / (best_ns.max(1) as f64 / 1e9);
    run.set("throughput_rps", rate);
    run.set("engine.finish_ms", pipeline::median0(&finishes));
    run.note(format!(
        "passes saturating={} segments={} rates={rates:?} median_pass_rate={}",
        rates.len(),
        best.iter().map(Vec::len).sum::<usize>(),
        pipeline::median0(&rates)
    ));
    run.check(
        "respond.saturating_passes_agree",
        if agree {
            Ok(())
        } else {
            Err("logs differ".into())
        },
    );
    totals.record(run);

    if run.args.traced {
        let pass = run.trace.open("pass.traced", None);
        let mut accs = [Acc::default(); 7];
        let mut records = 0u64;
        let mut engine_ns = 0u64;
        let mut prof_runs = Vec::new();
        for (gen, engine) in scenarios
            .iter()
            .map(|(_, s)| build(s, config.prof(true)))
            .collect::<Result<Vec<_>, _>>()?
        {
            let mut tap = SpanTap {
                trace: &run.trace,
                last: run.trace.now_ns(),
                accs: [Acc::default(); 7],
            };
            let out = drive(gen, engine, &mut tap);
            for (total, acc) in accs.iter_mut().zip(&tap.accs) {
                total.merge(acc);
            }
            records += out.records;
            engine_ns += [Phase::Flush, Phase::Take, Phase::Ingest, Phase::Finish]
                .iter()
                .map(|&p| tap.accs[p as usize].busy_ns)
                .sum::<u64>();
            prof_runs.push(out.engine);
        }
        let names = [
            "sim.fleet.next_item",
            "engine.flush",
            "engine.take_mitigation_actions",
            "sim.fleet.set_throttle",
            "engine.protocol.to_line",
            "engine.ingest_line",
            "engine.finish",
        ];
        for (acc, name) in accs.iter().zip(names) {
            acc.emit(&mut run.trace, name, Some(pass));
        }
        let traced_wall = run.trace.close(pass) as f64;
        let r = records.max(1) as f64;
        run.set(
            "sim.fleet.gen_ns_per_record",
            accs[Phase::Gen as usize].busy_ns as f64 / r,
        );
        run.set(
            "metrics.encode_ns_per_record",
            accs[Phase::Encode as usize].busy_ns as f64 / r,
        );
        // The three engines' stage counters, summed.
        let logs: Vec<&[String]> = prof_runs.iter().map(Engine::log_lines).collect();
        pipeline::record_stage_prof(run, &logs, records, engine_ns as f64);
        run.set("trace.overhead_ratio", traced_wall / (r / rate * 1e9));
    }

    // Open-loop pass at the fixed rate.
    let templates = respond_templates();
    let names: Vec<String> = (0..TENANTS)
        .map(|t| {
            tenant_name(
                &FleetItem {
                    tick: 0,
                    tenant: t,
                    template: 0,
                    kind: FleetEventKind::Close,
                },
                &templates,
            )
        })
        .collect();
    let pass = run.trace.open("pass.paced", None);
    let mut pacer = Pacer::new(PACED_RATE);
    let mut offset = 0u64;
    let mut lat_ms = Vec::new();
    let mut calls = CallTimes::default();
    let mut paced_agree = true;
    for (k, (_, scenario)) in scenarios.iter().enumerate() {
        let (gen, engine) = build(scenario, config)?;
        let mut tap = PacedTap {
            pacer: &mut pacer,
            offset,
            last: 0,
            emissions: Emissions::default(),
            calls: CallTimes::default(),
            tenant_of: Vec::new(),
        };
        let out = drive(gen, engine, &mut tap);
        rounds_ms.extend(out.rounds_ns.iter().map(|&n| n as f64 / 1e6));
        flushes_ms.extend(out.flushes_ns.iter().map(|&n| n as f64 / 1e6));
        let PacedTap {
            emissions,
            calls: c,
            tenant_of,
            ..
        } = tap;
        calls.ingest_us.extend(c.ingest_us);
        calls.flush_ms.extend(c.flush_ms);
        let base = offset;
        match pipeline::latencies(
            out.engine.log_lines(),
            &emissions,
            |r| pacer.due_ns(base + r as u64),
            |r| {
                tenant_of
                    .get(r)
                    .and_then(|&t| names.get(t as usize))
                    .map(String::as_str)
            },
        ) {
            Ok(l) => lat_ms.extend(l),
            Err(e) => run.check("respond.seq_map_matches_input", Err(e)),
        }
        let digest = logscan::digest(out.engine.log_lines());
        if reference
            .get(k)
            .is_none_or(|r| r.0 != digest || r.1 != out.actions)
        {
            paced_agree = false;
        }
        offset += out.records;
    }
    run.trace.close(pass);
    pipeline::record_latency(run, &lat_ms, &pacer);
    calls.flush_ms.extend(flushes_ms);
    pipeline::record_call_times(run, &calls);
    let rounds = tail(&rounds_ms, 99.0);
    run.note(format!(
        "percentile engine.mitigation.round_ms p99 {}",
        rounds.note()
    ));
    run.set("engine.mitigation.round_ms_p99", rounds.or_zero());
    run.check(
        "respond.paced_log_matches_saturating",
        if paced_agree {
            Ok(())
        } else {
            Err("logs differ".into())
        },
    );

    // The harness-driven loop reproduces the library's respond driver.
    for (k, (kind, scenario)) in scenarios.iter().enumerate() {
        let report = run_respond(scenario, config, None)?;
        let same = reference
            .get(k)
            .is_some_and(|r| r.0 == logscan::digest(&report.log) && r.1 == report.actions);
        run.check(
            &format!("respond.{}_matches_run_respond", kind.label()),
            if same {
                Ok(())
            } else {
                Err("log or action trace differs".into())
            },
        );
    }
    Ok(())
}

/// Respond-only scores of the first saturating pass, summed over the
/// three scenarios.
#[derive(Debug, Default)]
struct Totals {
    sums: BTreeMap<&'static str, f64>,
    records: u64,
    bytes: u64,
}

impl Totals {
    /// Adds one scenario's outcome, with a report line.
    fn score(&mut self, run: &mut Run, kind: RespondScenario, out: &Outcome) {
        let log = out.engine.log_lines();
        let stats = out.engine.stats();
        let mut innocents: Vec<&str> = log
            .iter()
            .filter(|l| logscan::field(l, "event") == Some("mitigation_escalated"))
            .filter_map(|l| logscan::field(l, "tenant"))
            .filter(|&t| t != out.attacker)
            .collect();
        let cases = innocents.len();
        innocents.sort_unstable();
        innocents.dedup();
        let met = arc_met(kind, log, &out.attacker);
        run.note(format!(
            "scenario {} records={} engaged={} released={} escalated={} innocent_escalations={cases} \
             distinct_innocents={} arc_met={met}",
            kind.label(),
            out.records,
            stats.mitigations_engaged,
            stats.mitigations_released,
            stats.mitigations_escalated,
            innocents.len(),
        ));
        self.records += out.records;
        self.bytes += out.bytes;
        let applied = out.actions.iter().filter(|a| a.applied).count();
        for (name, v) in [
            ("false_escalations", cases as u64),
            ("arc_misses", u64::from(!met)),
            ("engine.mitigation.engaged", stats.mitigations_engaged),
            ("engine.mitigation.released", stats.mitigations_released),
            ("engine.mitigation.escalated", stats.mitigations_escalated),
            ("engine.mitigation.actions_applied", applied as u64),
            (
                "engine.mitigation.recovery_latency_ticks",
                stats.recovery_latency_ticks,
            ),
            (
                "engine.mitigation.false_quarantine_ticks",
                stats.false_quarantine_ticks,
            ),
        ] {
            *self.sums.entry(name).or_default() += v as f64;
        }
    }

    /// Writes the totals into the run.
    fn record(&self, run: &mut Run) {
        for (name, v) in &self.sums {
            run.set(name, *v);
        }
        let per_record = self.bytes as f64 / self.records.max(1) as f64;
        run.set("metrics.wire_bytes_per_record", per_record);
    }
}
