//! What the three engine workloads share: timed set-up, saturating and
//! traced passes, counts read from finished engines, the `StageProf`
//! attribution of a traced pass, and open-loop latency from a paced pass.

use crate::catalog::EVENT_KINDS;
use crate::cpu::Cpus;
use crate::loadgen::Pacer;
use crate::logscan::{self, Emissions, SeqMap, StageProf};
use crate::run::{peak_rss_mb, Run};
use crate::stats::{median, percentile, tail};
use crate::trace::Acc;
use memdos_engine::engine::Engine;
use memdos_engine::Config;
use memdos_sim::fleet::{FleetGenerator, FleetItem, VmTemplate};
use std::time::Instant;

/// Workers the engine actually runs: it clamps the requested count to
/// the machine's available parallelism.
pub fn workers_effective(requested: usize) -> usize {
    requested.min(memdos_runner::cores())
}

/// Drains `gen` in chunks, timing the generator into `gen_acc` and the
/// per-item `encode` into `enc_acc`; chunking keeps the clock out of the
/// per-item loop.
pub fn generate_chunked(
    run: &Run,
    gen: &mut FleetGenerator,
    templates: &[VmTemplate],
    (gen_acc, enc_acc): (&mut Acc, &mut Acc),
    mut encode: impl FnMut(FleetItem) -> Result<(), String>,
) -> Result<(), String> {
    let mut chunk = Vec::with_capacity(4_096);
    loop {
        let t0 = run.trace.now_ns();
        while chunk.len() < chunk.capacity() {
            match gen.next_item(templates) {
                Some(item) => chunk.push(item),
                None => break,
            }
        }
        let t1 = run.trace.now_ns();
        gen_acc.add(t0, t1);
        if chunk.is_empty() {
            return Ok(());
        }
        for item in chunk.drain(..) {
            encode(item)?;
        }
        enc_acc.add(t1, run.trace.now_ns());
    }
}

/// Set-up of a fleet workload, `reps` times over: `make` generates and
/// encodes the input (timing the generator and the encoder into the two
/// accumulators), then `Engine::new(config)` is timed. Records `setup_s`
/// and `engine.new_ms` (medians) and the last repetition's generator and
/// encoder cost per record (`records` reads the count off the input), with
/// their spans under a `setup` span; returns that repetition's input.
pub fn setup<I>(
    run: &mut Run,
    (reps, config): (usize, Config),
    encoder_span: &'static str,
    records: impl Fn(&I) -> usize,
    mut make: impl FnMut(&Run, &mut Acc, &mut Acc) -> Result<I, String>,
) -> Result<I, String> {
    let root = run.trace.open("setup", None);
    let (mut setups, mut news) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let (mut gen_acc, mut enc_acc) = (Acc::default(), Acc::default());
        let t0 = Instant::now();
        let input = make(run, &mut gen_acc, &mut enc_acc)?;
        let t1 = Instant::now();
        drop(Engine::new(config).map_err(|e| e.to_string())?);
        news.push(t1.elapsed().as_secs_f64() * 1e3);
        setups.push(t0.elapsed().as_secs_f64());
        last = Some((input, gen_acc, enc_acc));
    }
    let (input, gen_acc, enc_acc) = last.ok_or("no set-up ran")?;
    gen_acc.emit(&mut run.trace, "sim.fleet.next_item", Some(root));
    enc_acc.emit(&mut run.trace, encoder_span, Some(root));
    run.trace.close(root);
    let n = records(&input).max(1) as f64;
    run.set("setup_s", median0(&setups));
    run.set("engine.new_ms", median0(&news));
    run.set("sim.fleet.gen_ns_per_record", gen_acc.busy_ns as f64 / n);
    run.set("metrics.encode_ns_per_record", enc_acc.busy_ns as f64 / n);
    Ok(input)
}

/// Feeds one fresh engine with `ingest` and finishes it; returns the
/// engine, the wall time from the first record through `finish`, and
/// `finish` alone, ns.
pub fn saturate(
    config: Config,
    ingest: impl FnOnce(&mut Engine) -> Result<(), String>,
) -> Result<(Engine, u64, u64), String> {
    let mut engine = Engine::new(config).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    ingest(&mut engine)?;
    let t1 = Instant::now();
    engine.finish();
    Ok((
        engine,
        t0.elapsed().as_nanos() as u64,
        t1.elapsed().as_nanos() as u64,
    ))
}

/// Saturating passes over `records` input records: at least
/// `min_passes`, then more while they fit `budget_s` seconds (one pass in
/// a traced run, which only needs the untraced reference), rotating over
/// the allowed CPUs. Records the fastest pass's throughput — the passes
/// repeat identical work (their logs are checked equal) and the host's
/// noise only ever adds time —
/// and the median `finish` time, checks that every pass wrote the same
/// log, reads the peak RSS after the first pass — a fixed amount of
/// work, whereas how many passes fit depends on the clock — and hands
/// the first pass's engine to `first`. Returns the fastest rate and the
/// first pass's log digest.
pub fn saturating_passes(
    run: &mut Run,
    records: u64,
    (budget_s, min_passes): (f64, usize),
    mut pass: impl FnMut() -> Result<(Engine, u64, u64), String>,
    first: impl FnOnce(&mut Run, &Engine),
) -> Result<(f64, u64), String> {
    let since = run.elapsed();
    let (mut rates, mut finishes, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = Some(first);
    let cpus = Cpus::new();
    loop {
        cpus.pin(rates.len());
        let (engine, wall, finish) = pass()?;
        rates.push(records as f64 / (wall as f64 / 1e9));
        finishes.push(finish as f64 / 1e6);
        digests.push(logscan::digest(engine.log_lines()));
        if let Some(first) = first.take() {
            run.set("peak_rss_mb", peak_rss_mb()?);
            first(run, &engine);
        }
        drop(engine);
        let last = wall as f64 / 1e9;
        if run.args.traced || (rates.len() >= min_passes && !run.fits(since, budget_s, last)) {
            break;
        }
    }
    cpus.release();
    let rate = rates.iter().copied().fold(0.0, f64::max);
    run.set("throughput_rps", rate);
    run.set("engine.finish_ms", median0(&finishes));
    run.note(format!(
        "passes saturating={} rates={rates:?} median_pass_rate={}",
        rates.len(),
        median0(&rates)
    ));
    run.check_same("saturating_passes_agree", &digests);
    Ok((rate, digests.first().copied().unwrap_or_default()))
}

/// The traced pass: `ingest` into a fresh engine with `Config::prof` on,
/// spans `ingest_span` and `engine.finish` around the calls, then the
/// `StageProf` attribution and the overhead against the untraced `rate`.
/// Returns the engine for further checks.
pub fn traced_pass(
    run: &mut Run,
    config: Config,
    (records, rate): (u64, f64),
    ingest_span: &'static str,
    ingest: impl FnOnce(&mut Engine) -> Result<(), String>,
) -> Result<Engine, String> {
    let pass = run.trace.open("pass.traced", None);
    let mut engine = Engine::new(config.prof(true)).map_err(|e| e.to_string())?;
    let t0 = run.trace.now_ns();
    ingest(&mut engine)?;
    let t1 = run.trace.now_ns();
    engine.finish();
    let t2 = run.trace.now_ns();
    run.trace
        .aggregate(ingest_span, Some(pass), (t0, t1), records, t1 - t0);
    run.trace
        .aggregate("engine.finish", Some(pass), (t1, t2), 1, t2 - t1);
    run.trace.close(pass);
    let wall = (t2 - t0) as f64;
    record_stage_prof(run, &[engine.log_lines()], records, wall);
    run.set("trace.overhead_ratio", wall / (records as f64 / rate * 1e9));
    Ok(engine)
}

/// Records the counters of finished engines (summed; high-water marks
/// maxed) that together ingested `records` input records, and the run's
/// attempted/failed totals.
pub fn record_counts(run: &mut Run, engines: &[&Engine], records: u64, workers: usize) {
    let mut kinds = std::collections::BTreeMap::new();
    let (mut events, mut opened, mut failed) = (0, 0, 0);
    let (mut evicted, mut reopened, mut drops, mut terminal) = (0, 0, 0, 0);
    let (mut peak_queued, mut resident) = (0, 0);
    for engine in engines {
        let log = engine.log_lines();
        let stats = engine.stats();
        for (kind, n) in logscan::kind_counts(log) {
            *kinds.entry(kind).or_insert(0u64) += n;
        }
        events += log.len();
        opened += engine.session_count();
        failed += stats.malformed + stats.drops_backpressure;
        evicted += stats.evicted;
        reopened += stats.reopened;
        drops += stats.drops_backpressure;
        terminal += stats.drops_terminal;
        peak_queued = peak_queued.max(stats.peak_queued);
        resident = resident.max(engine.resident_bytes());
        run.note(format!(
            "digest log {:016x} lines={}",
            logscan::digest(log),
            log.len()
        ));
    }
    run.set("engine.records", records as f64);
    run.set("engine.events", events as f64);
    for kind in EVENT_KINDS.iter().copied().chain(["other"]) {
        let n = kinds.get(kind).copied().unwrap_or(0);
        run.set(&format!("engine.events.{kind}"), n as f64);
    }
    run.set("engine.sessions_opened", opened as f64);
    run.set("engine.evicted", evicted as f64);
    run.set("engine.reopened", reopened as f64);
    run.set("engine.peak_queued", peak_queued as f64);
    run.set("engine.drops_backpressure", drops as f64);
    run.set("engine.drops_terminal", terminal as f64);
    run.set("engine.resident_mb", resident as f64 / (1024.0 * 1024.0));
    run.set(
        "engine.workers_effective",
        workers_effective(workers) as f64,
    );
    let ready = kinds.get("profile_ready").copied().unwrap_or(0);
    run.set("engine.profiled_share", ready as f64 / opened.max(1) as f64);
    run.set("failed_share", failed as f64 / records.max(1) as f64);
    run.attempted = records;
    run.failed = failed;
}

/// Attributes a traced pass's harness-timed engine wall (`wall_ns`,
/// summed over every call into the engine) to the `StageProf` stages of
/// the pass's engine logs (summed when the pass ran several engines);
/// what the stages do not cover is reported as unattributed. Checks that
/// the stages fit inside the wall.
pub fn record_stage_prof(run: &mut Run, logs: &[&[String]], records: u64, wall_ns: f64) {
    let mut prof = StageProf::default();
    for log in logs {
        let Some(p) = log.last().and_then(|l| StageProf::parse(l)) else {
            run.check(
                "engine.stage_prof_present",
                Err("no prof fields in the trailer".into()),
            );
            return;
        };
        prof.add(&p);
    }
    let r = records.max(1) as f64;
    let events = logs.iter().map(|l| l.len()).sum::<usize>().max(1) as f64;
    let unattributed = wall_ns - prof.total_ns();
    run.set(
        "engine.decode_ns_per_record",
        (prof.decode_ns + prof.decode_bin_ns) / r,
    );
    run.set("engine.dispatch_ns_per_record", prof.dispatch_ns / r);
    run.set("engine.step_ns_per_record", prof.step_ns / r);
    run.set("engine.merge_ns_per_event", prof.merge_ns / events);
    run.set("engine.write_ns_per_event", prof.write_ns / events);
    run.set("engine.unattributed_ns_per_record", unattributed / r);
    run.set("engine.wall_ns_per_record", wall_ns / r);
    run.note(format!(
        "attribution wall_ns={wall_ns} = decode_ns={} + decode_bin_ns={} + dispatch_ns={} + \
         step_ns={} + merge_ns={} + write_ns={} + unattributed_ns={unattributed} \
         (unattributed share {:.3})",
        prof.decode_ns,
        prof.decode_bin_ns,
        prof.dispatch_ns,
        prof.step_ns,
        prof.merge_ns,
        prof.write_ns,
        unattributed / wall_ns.max(1.0),
    ));
    let within = if unattributed >= 0.0 {
        Ok(())
    } else {
        Err(format!(
            "stages sum to {} ns, over the {wall_ns} ns wall",
            prof.total_ns()
        ))
    };
    run.check("engine.stages_within_wall", within);
}

/// Per-call engine timings.
#[derive(Debug, Default)]
pub struct CallTimes {
    /// Every `ingest_line` call of the paced pass, µs.
    pub ingest_us: Vec<f64>,
    /// Every flush, ms: explicit `flush` calls, and `ingest_line` calls
    /// of the paced pass that appended log lines (so flushed inside).
    pub flush_ms: Vec<f64>,
}

/// Records the engine's per-call timings.
pub fn record_call_times(run: &mut Run, calls: &CallTimes) {
    let ingest = tail(&calls.ingest_us, 99.0);
    run.note(format!(
        "percentile engine.ingest_call_us p99 {}",
        ingest.note()
    ));
    run.set("engine.ingest_call_us_p99", ingest.or_zero());
    let p50 = percentile(&calls.flush_ms, 50.0);
    let p99 = tail(&calls.flush_ms, 99.0);
    run.note(format!("percentile engine.flush_ms p50 {}", p50.note()));
    run.note(format!("percentile engine.flush_ms p99 {}", p99.note()));
    run.set("engine.flush_ms_p50", p50.or_zero());
    run.set("engine.flush_ms_p99", p99.or_zero());
}

/// Open-loop latency of every event of one paced engine, ms: from the
/// due time of the record its `seq` names to the end of the engine call
/// that appended it. Fails when the seq → record map disagrees with the
/// input.
pub fn latencies<'a>(
    log: &'a [String],
    emissions: &Emissions,
    due_ns: impl Fn(usize) -> u64,
    tenant_of_record: impl Fn(usize) -> Option<&'a str>,
) -> Result<Vec<f64>, String> {
    let map = SeqMap::new(log);
    map.verify(log, tenant_of_record)?;
    let mut lat_ms = Vec::with_capacity(log.len());
    for (j, line) in log.iter().enumerate() {
        let (Some(s), Some(at)) = (logscan::seq(line), emissions.time_of(j)) else {
            continue;
        };
        if let Some(r) = map.record_of(s) {
            lat_ms.push(at.saturating_sub(due_ns(r)) as f64 / 1e6);
        }
    }
    Ok(lat_ms)
}

/// Records event latency (median, tail and sample count) and the load
/// generator's lateness.
pub fn record_latency(run: &mut Run, lat_ms: &[f64], pacer: &Pacer) {
    let p50 = percentile(lat_ms, 50.0);
    let p99 = tail(lat_ms, 99.0);
    run.note(format!("percentile latency_ms p50 {}", p50.note()));
    run.note(format!("percentile latency_ms p99 {}", p99.note()));
    run.set("latency_p50_ms", p50.or_zero());
    run.set("latency_p99_ms", p99.or_zero());
    run.set("latency_samples", lat_ms.len() as f64);
    let late = pacer.late_p99();
    run.note(format!("percentile loadgen.late_ms p99 {}", late.note()));
    run.set("loadgen.late_p99_ms", late.or_zero());
    run.set("loadgen.backlog_end_ms", pacer.backlog_end_ms());
}

/// Median of `values`, 0 when empty.
pub fn median0(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}
