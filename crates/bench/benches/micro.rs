//! Micro-benchmarks of the hot kernels (std-only timing harness).
//!
//! The paper claims SDS is *lightweight*: "we use lightweight PCM tools
//! and low-complexity statistical methods". These benchmarks quantify
//! that on this implementation: a per-tick SDS update is a handful of
//! arithmetic operations, the DFT-ACF recomputation is `O(N log N)` on a
//! ~2-period window, and the KS test — the baseline's per-round cost —
//! is `O(n log n)` in the window size. The simulator's own kernels (one
//! cache access, one discrete-event queue wakeup, one full 9-VM server
//! tick) are measured too, since every experiment's wall time is
//! dominated by them.
//!
//! The JSONL number writer is measured too: every sample the engine's
//! wire carries holds two fractional counters, and `jsonl::write_f64`
//! renders each one with an exact integer kernel instead of `Display`.
//! `jsonl_write_f64_ns` is that writer on respond-like jittered counter
//! values, `jsonl_write_f64_display_ns` the same values through `f64`'s
//! `Display` (`write!` into the same reused buffer, which is what
//! `write_f64` did before the kernel), and `speedup_write_f64` their
//! ratio.
//!
//! Besides printing human-readable results, the run writes one
//! machine-readable report, `BENCH_2.json` at the workspace root
//! (override the path with `MEMDOS_BENCH_OUT`): a flat JSON object with
//! `*_ns` keys per kernel and `speedup_*` keys comparing the optimized
//! kernels against re-implementations of their pre-optimization
//! versions (kept inline in this file). CI compares it against
//! `crates/bench/baseline/BENCH_2.json` via
//! `cargo run -p xtask -- bench-check`. The pipeline as a whole (sim
//! capture, wire, engine, mitigation, the paper grid) is measured by
//! the `pipebench/` benchmark, not here.
//!
//! The harness is deliberately dependency-free (the build environment is
//! offline): each benchmark runs a calibration pass to pick an iteration
//! count targeting ~100 ms, then reports the median of 9 timed passes.

use std::hint::black_box;
use std::time::Instant;

use memdos_core::config::{SdsBParams, SdsPParams};
use memdos_core::detector::{Detector, Observation};
use memdos_core::sdsb::SdsB;
use memdos_core::sdsp::SdsP;
use memdos_sim::cache::{CacheGeometry, Llc};
use memdos_sim::server::{Server, ServerConfig};
use memdos_stats::acf::{acf_direct, acf_fft};
use memdos_stats::fft::{fft_real, rfft};
use memdos_stats::ks::ks_two_sample;
use memdos_stats::period::detect_period;
use memdos_stats::smoothing::Ewma;
use memdos_workloads::catalog::Application;

const PASSES: usize = 9;
const TARGET_NANOS: u128 = 100_000_000;

/// Flat key → value report, serialized as one JSON object.
#[derive(Default)]
struct Report {
    entries: Vec<(String, f64)>,
}

impl Report {
    fn push(&mut self, key: &str, value: f64) {
        self.entries.push((key.to_string(), value));
    }

    fn to_json(&self) -> String {
        let mut body: Vec<String> = self
            .entries
            .iter()
            .map(|(k, v)| {
                // JSON has no NaN/∞; clamp degenerate measurements to 0.
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("  \"{k}\": {v}")
            })
            .collect();
        body.sort();
        format!("{{\n{}\n}}\n", body.join(",\n"))
    }

    /// Writes the report to `<workspace root>/BENCH_2.json`, or to the
    /// path in `MEMDOS_BENCH_OUT` when that is set.
    fn write(&self) {
        let path = std::env::var("MEMDOS_BENCH_OUT").unwrap_or_else(|_| {
            format!("{}/../../BENCH_2.json", env!("CARGO_MANIFEST_DIR"))
        });
        match std::fs::write(&path, self.to_json()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}

/// Times `f` (which runs the workload once) and prints + returns the
/// median ns/iter, following the calibrate-then-measure shape of the
/// classic `libtest` bench runner.
fn bench(name: &str, mut f: impl FnMut()) -> f64 {
    // Calibrate: grow the batch until it takes >= ~10 ms.
    let mut batch: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        let elapsed = t.elapsed().as_nanos();
        if elapsed >= TARGET_NANOS / 10 || batch >= 1 << 30 {
            let iters = if elapsed == 0 {
                batch
            } else {
                (batch as u128 * TARGET_NANOS / elapsed).clamp(1, 1 << 32) as u64
            };
            let mut samples: Vec<u128> = (0..PASSES)
                .map(|_| {
                    let t = Instant::now();
                    for _ in 0..iters {
                        f();
                    }
                    t.elapsed().as_nanos() / iters as u128
                })
                .collect();
            samples.sort_unstable();
            let median = samples[PASSES / 2];
            println!("{name:<28} {median:>12} ns/iter");
            return median as f64;
        }
        batch = batch.saturating_mul(2);
    }
}

fn bench_sdsb_update(report: &mut Report) {
    let mut det = SdsB::new(SdsBParams::default(), 1000.0, 50.0)
        .expect("default SDS/B parameters are valid");
    let mut x = 0u64;
    let ns = bench("sdsb_on_sample", move || {
        x = x.wrapping_add(1);
        black_box(det.on_observation(Observation {
            access_num: 1000.0 + (x % 13) as f64,
            miss_num: 0.0,
        }));
    });
    report.push("sdsb_on_sample_ns", ns);
}

fn bench_sdsp_recompute(report: &mut Report) {
    // Feeding ΔW_P·ΔW raw samples triggers exactly one DFT-ACF
    // recomputation once the window is warm.
    let params = SdsPParams::default();
    let mut det =
        SdsP::new(params, 17.0).expect("default SDS/P parameters are valid");
    let square = |i: u64| Observation {
        access_num: if (i / 425) % 2 == 0 { 1000.0 } else { 300.0 },
        miss_num: 0.0,
    };
    // Warm up the W_P window.
    for i in 0..60_000u64 {
        det.on_observation(square(i));
    }
    let mut i = 0u64;
    let ns = bench("sdsp_full_window_cycle", move || {
        for _ in 0..params.step_ma * params.step {
            i += 1;
            black_box(det.on_observation(square(i)));
        }
    });
    report.push("sdsp_full_window_cycle_ns", ns);
}

fn bench_ks_test(report: &mut Report) {
    let x: Vec<f64> = (0..100).map(|i| ((i * 37) % 101) as f64).collect();
    let y: Vec<f64> = (0..100).map(|i| ((i * 53) % 97) as f64).collect();
    let ns = bench("ks_two_sample_100", move || {
        black_box(ks_two_sample(&x, &y).expect("non-empty samples are valid"));
    });
    report.push("ks_two_sample_100_ns", ns);
}

fn bench_fft(report: &mut Report) {
    let signal: Vec<f64> = (0..1024).map(|i| (i as f64 * 0.37).sin()).collect();
    // Pre-PR path: full complex transform of the real signal.
    let s = signal.clone();
    let full_ns = bench("fft_real_1024", move || {
        black_box(fft_real(&s, 1024).expect("power-of-two length is valid"));
    });
    // Optimized path: cached-twiddle half-size transform + O(N) unpack.
    let s = signal.clone();
    let rfft_ns = bench("rfft_1024", move || {
        black_box(rfft(&s, 1024).expect("power-of-two length is valid"));
    });
    report.push("fft_real_1024_ns", full_ns);
    report.push("rfft_1024_ns", rfft_ns);
    report.push("speedup_fft", full_ns / rfft_ns);
}

fn bench_dft_acf(report: &mut Report) {
    // A W_P = 2p window at the FaceNet scale (p ≈ 17).
    let signal: Vec<f64> = (0..34)
        .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 17.0).sin())
        .collect();
    let ns = bench("dft_acf_detect_34", move || {
        black_box(detect_period(&signal).expect("non-empty window is valid"));
    });
    report.push("dft_acf_detect_34_ns", ns);

    let signal: Vec<f64> = (0..200).map(|i| ((i * 29) % 31) as f64).collect();
    let ns = bench("acf_direct_200x50", move || {
        black_box(acf_direct(&signal, 50).expect("max_lag within input is valid"));
    });
    report.push("acf_direct_200x50_ns", ns);

    // Profiling-scale series, where the `acf` dispatcher picks the FFT
    // path: direct O(N·L) vs Wiener–Khinchin.
    let signal: Vec<f64> = (0..600).map(|i| ((i * 13) % 23) as f64).collect();
    let s = signal.clone();
    let direct_ns = bench("acf_direct_600x150", move || {
        black_box(acf_direct(&s, 150).expect("max_lag within input is valid"));
    });
    let s = signal.clone();
    let fft_ns = bench("acf_fft_600x150", move || {
        black_box(acf_fft(&s, 150).expect("max_lag within input is valid"));
    });
    report.push("acf_direct_600x150_ns", direct_ns);
    report.push("acf_fft_600x150_ns", fft_ns);
    report.push("speedup_acf", direct_ns / fft_ns);
}

/// The pre-PR `MovingAverage` emission strategy: ring buffer plus a full
/// `O(W)` re-sum of the window on every emission. Kept here (not in the
/// stats crate) purely as the speedup baseline for `speedup_ma_ewma`.
struct ResummingMa {
    window: usize,
    step: usize,
    buf: Vec<f64>,
    head: usize,
    seen: u64,
    since_emit: usize,
}

impl ResummingMa {
    fn new(window: usize, step: usize) -> Self {
        ResummingMa { window, step, buf: Vec::with_capacity(window), head: 0, seen: 0, since_emit: 0 }
    }

    fn push(&mut self, sample: f64) -> Option<f64> {
        if self.buf.len() < self.window {
            self.buf.push(sample);
        } else {
            self.buf[self.head] = sample;
            self.head = (self.head + 1) % self.window;
        }
        self.seen += 1;
        if self.seen < self.window as u64 {
            return None;
        }
        if self.seen == self.window as u64 {
            self.since_emit = 0;
            return Some(self.buf.iter().sum::<f64>() / self.window as f64);
        }
        self.since_emit += 1;
        if self.since_emit == self.step {
            self.since_emit = 0;
            Some(self.buf.iter().sum::<f64>() / self.window as f64)
        } else {
            None
        }
    }
}

fn bench_ma_ewma(report: &mut Report) {
    // Full §4.1 preprocessing per raw sample at the paper's W=200, ΔW=50:
    // re-summing (pre-PR) vs incremental (current) MA, both feeding EWMA.
    let mut naive = ResummingMa::new(200, 50);
    let mut naive_ewma = Ewma::new(0.2).expect("alpha in (0,1] is valid");
    let mut x = 0u64;
    let naive_ns = bench("ma_ewma_resumming", move || {
        x = x.wrapping_add(1);
        if let Some(m) = naive.push(1000.0 + (x % 17) as f64) {
            black_box(naive_ewma.push(m));
        }
    });

    let mut pipeline = memdos_stats::smoothing::Pipeline::new(200, 50, 0.2)
        .expect("paper-default pipeline parameters are valid");
    let mut x = 0u64;
    let incr_ns = bench("ma_ewma_incremental", move || {
        x = x.wrapping_add(1);
        black_box(pipeline.push(1000.0 + (x % 17) as f64));
    });
    report.push("ma_ewma_resumming_ns", naive_ns);
    report.push("ma_ewma_incremental_ns", incr_ns);
    report.push("speedup_ma_ewma", naive_ns / incr_ns);
}

/// The pre-PR LLC hit path: every access scans the whole set (tracking
/// the LRU victim as it goes) with no MRU hint. Baseline for
/// `speedup_cache`; semantics identical to `memdos_sim::cache::Llc`.
struct ScanLlc {
    sets: usize,
    ways: usize,
    // (addr, valid, last_used) — single-domain, which is all the
    // benchmark needs.
    lines: Vec<(u64, bool, u64)>,
    clock: u64,
}

impl ScanLlc {
    fn new(geometry: CacheGeometry) -> Self {
        ScanLlc {
            sets: geometry.sets,
            ways: geometry.ways,
            lines: vec![(0, false, 0); geometry.lines()],
            clock: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let set = (addr as usize) & (self.sets - 1);
        let base = set * self.ways;
        let ways = &mut self.lines[base..base + self.ways];
        let mut victim = 0usize;
        let mut victim_ts = u64::MAX;
        for (i, line) in ways.iter_mut().enumerate() {
            if line.1 && line.0 == addr {
                line.2 = self.clock;
                return true;
            }
            let ts = if line.1 { line.2 } else { 0 };
            if ts < victim_ts {
                victim_ts = ts;
                victim = i;
            }
        }
        ways[victim] = (addr, true, self.clock);
        false
    }
}

fn bench_cache_access(report: &mut Report) {
    let mut llc = Llc::new(CacheGeometry::default());
    let d = llc.register_domain();
    for line in 0..1000u64 {
        llc.access(d, line);
    }
    let mut line = 0u64;
    let ns = bench("llc_access_hit", move || {
        line = (line + 1) % 1000;
        black_box(llc.access(d, line));
    });
    report.push("llc_access_hit_ns", ns);

    // Hot-line hits in *full* sets: fill 128 sets to all 20 ways, then
    // re-touch each set's most recently filled line. The MRU hint
    // resolves these in O(1); the pre-PR scan walks the set every time.
    let geometry = CacheGeometry::default();
    let hot_sets = 128u64;
    let hot_addr = |set: u64| set + 19 * geometry.sets as u64;

    let mut llc = Llc::new(geometry);
    let d = llc.register_domain();
    for way in 0..20u64 {
        for set in 0..hot_sets {
            llc.access(d, set + way * geometry.sets as u64);
        }
    }
    // Re-touch the hot lines once so the MRU hints point at them.
    for set in 0..hot_sets {
        llc.access(d, hot_addr(set));
    }
    let mut set = 0u64;
    let hinted_ns = bench("llc_hot_hit_hinted", move || {
        set = (set + 1) % hot_sets;
        black_box(llc.access(d, hot_addr(set)));
    });

    let mut scan = ScanLlc::new(geometry);
    for way in 0..20u64 {
        for set in 0..hot_sets {
            scan.access(set + way * geometry.sets as u64);
        }
    }
    let mut set = 0u64;
    let scan_ns = bench("llc_hot_hit_scan", move || {
        set = (set + 1) % hot_sets;
        black_box(scan.access(hot_addr(set)));
    });
    report.push("llc_hot_hit_hinted_ns", hinted_ns);
    report.push("llc_hot_hit_scan_ns", scan_ns);
    report.push("speedup_cache", scan_ns / hinted_ns);
}

/// Discrete-event queue wakeup cost: one pop → reschedule → peek round
/// trip on a warm 9-component queue — the per-wakeup overhead the event
/// engine pays instead of re-scanning every VM per operation.
fn bench_sim_event_step(report: &mut Report) {
    use memdos_sim::event::{ComponentId, EventQueue};
    let mut queue = EventQueue::new();
    for i in 0..9usize {
        queue.schedule(i as u64, ComponentId::vm(i));
    }
    let mut now = 9u64;
    let ns = bench("sim_event_step", move || {
        let (t, comp) = queue.pop().expect("queue is refilled every step");
        now = now.max(t) + 3;
        queue.schedule(now, comp);
        black_box(queue.peek());
    });
    report.push("sim_event_step_ns", ns);
}

fn bench_sim_server_tick(report: &mut Report) {
    // Unlike the detector benchmarks, a server tick mutates state that
    // never returns to its start condition, so measure a long warmed run
    // instead of per-iteration fresh setups.
    let mut server = Server::new(ServerConfig::default());
    let llc = server.config().geometry.lines() as u64;
    server.add_vm("victim", Application::KMeans.build(llc));
    for i in 0..7u64 {
        server.add_vm(
            format!("util-{i}"),
            Box::new(memdos_workloads::apps::utility::program(i)),
        );
    }
    server.run_collect(5); // warm the cache
    let ns = bench("sim_server_tick_9vms", move || {
        black_box(server.tick());
    });
    report.push("sim_server_tick_9vms_ns", ns);
}

/// `jsonl::write_f64` against `Display` on respond-like counters: a
/// flat 1000 ± 4 % access trace and its 100 ± 4 % miss twin.
fn bench_jsonl_write_f64(report: &mut Report) {
    use memdos_metrics::jsonl::write_f64;
    use memdos_stats::rng::{derive_seed, Rng};
    use std::fmt::Write as _;
    let mut rng = Rng::new(derive_seed(0xF64, 0));
    let values: Vec<f64> = (0..1024)
        .map(|i| {
            let base = if i % 2 == 0 { 1_000.0 } else { 100.0 };
            base * (1.0 + 0.04 * rng.next_gaussian())
        })
        .collect();
    let mut out = String::with_capacity(64);
    let mut i = 0usize;
    let kernel_ns = bench("jsonl_write_f64", || {
        out.clear();
        write_f64(&mut out, black_box(values[i % values.len()]));
        black_box(&out);
        i += 1;
    });
    let display_ns = bench("jsonl_write_f64_display", || {
        out.clear();
        let _ = write!(out, "{}", black_box(values[i % values.len()]));
        black_box(&out);
        i += 1;
    });
    report.push("jsonl_write_f64_ns", kernel_ns);
    report.push("jsonl_write_f64_display_ns", display_ns);
    report.push("speedup_write_f64", display_ns / kernel_ns);
}

fn main() {
    println!("memdos micro-benchmarks (median of {PASSES} passes)");
    let mut report = Report::default();
    bench_sdsb_update(&mut report);
    bench_sdsp_recompute(&mut report);
    bench_ks_test(&mut report);
    bench_fft(&mut report);
    bench_dft_acf(&mut report);
    bench_ma_ewma(&mut report);
    bench_cache_access(&mut report);
    bench_sim_event_step(&mut report);
    bench_sim_server_tick(&mut report);
    bench_jsonl_write_f64(&mut report);
    report.write();
}
