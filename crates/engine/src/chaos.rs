//! Deterministic chaos: seeded fault injection for JSONL ingestion.
//!
//! A [`FaultPlan`] sits between any line source and the engine and
//! injects the failure modes a real telemetry transport exhibits —
//! corrupted bytes, truncated lines fused with their successor,
//! duplicated and reordered deliveries, mid-batch stalls, connection
//! drops that replay an unacknowledged tail, and tenant churn (sessions
//! closing or vanishing mid-stream). Every decision is drawn from a
//! seeded [`memdos_stats::rng::Rng`], never from wall-clock time or OS
//! entropy, so a fault scenario is a pure function of its seed: the
//! soak harness (`memdos-engine soak`) replays the same scenario twice
//! and asserts byte-identical verdict logs.
//!
//! The plan is push-based so it wraps streaming sources: feed input
//! lines with [`FaultPlan::push_line`] (each returns the lines to
//! deliver now — possibly none, possibly several) and flush buffered
//! state with [`FaultPlan::finish`] at end of stream. [`FaultPlan::apply`]
//! is the one-shot convenience over a full stream.
//!
//! [`Backoff`] is the transport-side counterpart: a deterministic
//! capped-exponential retry schedule the CLI uses to recover TCP
//! sources, kept here (pure, clock-free) so the policy is testable
//! while only the binary touches real sleeps.

use crate::protocol::Record;
use memdos_stats::rng::{derive_seed, Rng};
use std::collections::{BTreeMap, VecDeque};

/// One class of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Overwrite 1–3 characters of the line with junk.
    Corrupt,
    /// Cut the line short; the kept prefix fuses onto the next delivery.
    Truncate,
    /// Deliver the line twice.
    Duplicate,
    /// Swap the line with its successor (adjacent reorder).
    Reorder,
    /// Hold deliveries for a stretch, then release them as one burst.
    Stall,
    /// Drop the connection: re-deliver the recent unacknowledged tail.
    Disconnect,
    /// Tenant churn: inject a `ctl:close`, or mute the tenant so it
    /// vanishes mid-stream (and trips the engine's idle timeout).
    Churn,
}

/// Every fault class, in the stable order used by traces and reports.
pub const FAULT_CLASSES: [FaultClass; 7] = [
    FaultClass::Corrupt,
    FaultClass::Truncate,
    FaultClass::Duplicate,
    FaultClass::Reorder,
    FaultClass::Stall,
    FaultClass::Disconnect,
    FaultClass::Churn,
];

impl FaultClass {
    /// Stable lowercase label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultClass::Corrupt => "corrupt",
            FaultClass::Truncate => "truncate",
            FaultClass::Duplicate => "duplicate",
            FaultClass::Reorder => "reorder",
            FaultClass::Stall => "stall",
            FaultClass::Disconnect => "disconnect",
            FaultClass::Churn => "churn",
        }
    }

    /// Position in [`FAULT_CLASSES`].
    fn index(&self) -> usize {
        match self {
            FaultClass::Corrupt => 0,
            FaultClass::Truncate => 1,
            FaultClass::Duplicate => 2,
            FaultClass::Reorder => 3,
            FaultClass::Stall => 4,
            FaultClass::Disconnect => 5,
            FaultClass::Churn => 6,
        }
    }
}

/// Per-class injection rates and shape knobs for a [`FaultPlan`].
///
/// At most one fault is drawn per input line: a single uniform draw is
/// matched against the cumulative class probabilities, so the rates must
/// sum to at most 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlanConfig {
    /// Per-line probability of [`FaultClass::Corrupt`].
    pub corrupt: f64,
    /// Per-line probability of [`FaultClass::Truncate`].
    pub truncate: f64,
    /// Per-line probability of [`FaultClass::Duplicate`].
    pub duplicate: f64,
    /// Per-line probability of [`FaultClass::Reorder`].
    pub reorder: f64,
    /// Per-line probability of [`FaultClass::Stall`].
    pub stall: f64,
    /// Per-line probability of [`FaultClass::Disconnect`].
    pub disconnect: f64,
    /// Per-line probability of [`FaultClass::Churn`].
    pub churn: f64,
    /// Inclusive stall length range, in delivered lines.
    pub stall_len: (u64, u64),
    /// Inclusive mute length range for the churn "vanish" flavour, in
    /// that tenant's suppressed lines.
    pub mute_len: (u64, u64),
    /// Lines of recent output a disconnect re-delivers.
    pub replay_window: usize,
}

impl FaultPlanConfig {
    /// No faults: the plan is an identity transform.
    pub fn none() -> Self {
        FaultPlanConfig {
            corrupt: 0.0,
            truncate: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            stall: 0.0,
            disconnect: 0.0,
            churn: 0.0,
            stall_len: (8, 64),
            mute_len: (250, 450),
            replay_window: 4,
        }
    }

    /// The soak default: every class active at rates that exercise each
    /// one many times over a few thousand lines while leaving most of
    /// the stream intact.
    pub fn chaos() -> Self {
        FaultPlanConfig {
            corrupt: 0.010,
            truncate: 0.005,
            duplicate: 0.010,
            reorder: 0.010,
            stall: 0.002,
            disconnect: 0.002,
            churn: 0.000_5,
            ..FaultPlanConfig::none()
        }
    }

    /// Validates the configuration — the shared `validate()` contract.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid knob.
    pub fn validate(&self) -> Result<(), String> {
        let rates = [
            ("corrupt", self.corrupt),
            ("truncate", self.truncate),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
            ("stall", self.stall),
            ("disconnect", self.disconnect),
            ("churn", self.churn),
        ];
        let mut sum = 0.0;
        for (name, p) in rates {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} rate {p} is not in [0, 1]"));
            }
            sum += p;
        }
        if sum > 1.0 {
            return Err(format!("fault rates sum to {sum} > 1"));
        }
        if self.stall_len.0 > self.stall_len.1 {
            return Err("stall_len range is inverted".to_string());
        }
        if self.mute_len.0 > self.mute_len.1 {
            return Err("mute_len range is inverted".to_string());
        }
        if self.replay_window == 0 {
            return Err("replay_window must be positive".to_string());
        }
        Ok(())
    }
}

/// The injected-fault record of one plan run: which class fired at which
/// input line, in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultTrace {
    events: Vec<(u64, FaultClass)>,
    counts: [u64; FAULT_CLASSES.len()],
}

impl FaultTrace {
    fn record(&mut self, line: u64, class: FaultClass) {
        self.events.push((line, class));
        if let Some(c) = self.counts.get_mut(class.index()) {
            *c += 1;
        }
    }

    /// Times `class` fired.
    pub fn count(&self, class: FaultClass) -> u64 {
        self.counts.get(class.index()).copied().unwrap_or(0)
    }

    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `(input line, class)` event sequence, in injection order.
    pub fn events(&self) -> &[(u64, FaultClass)] {
        &self.events
    }

    /// Classes that never fired.
    pub fn missing_classes(&self) -> Vec<FaultClass> {
        FAULT_CLASSES
            .iter()
            .copied()
            .filter(|c| self.count(*c) == 0)
            .collect()
    }

    /// True when every class fired at least once.
    pub fn all_classes_exercised(&self) -> bool {
        self.missing_classes().is_empty()
    }

    /// FNV-1a hash of the event sequence — two runs injected the same
    /// faults at the same lines iff their fingerprints match.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (line, class) in &self.events {
            for byte in line
                .to_le_bytes()
                .iter()
                .chain(&[class.index() as u8])
            {
                h ^= u64::from(*byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// A seeded fault injector over a line stream. See the module docs.
#[derive(Debug)]
pub struct FaultPlan {
    config: FaultPlanConfig,
    rng: Rng,
    line_no: u64,
    /// Line held back by a pending adjacent reorder.
    held: Option<String>,
    /// Truncated prefix awaiting fusion onto the next delivery.
    fuse: Option<String>,
    /// Deliveries buffered by an active stall.
    stalled: Vec<String>,
    stall_left: u64,
    /// Recent deliveries a disconnect re-delivers.
    recent: VecDeque<String>,
    /// Tenants seen so far, in first-appearance order.
    tenants: Vec<String>,
    /// Muted tenants → suppressed lines remaining.
    muted: BTreeMap<String, u64>,
    trace: FaultTrace,
}

impl FaultPlan {
    /// Creates a plan; all randomness derives from `seed`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid `config` knob.
    pub fn new(seed: u64, config: FaultPlanConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(FaultPlan {
            config,
            rng: Rng::new(derive_seed(seed, 0xFA17)),
            line_no: 0,
            held: None,
            fuse: None,
            stalled: Vec::new(),
            stall_left: 0,
            recent: VecDeque::new(),
            tenants: Vec::new(),
            muted: BTreeMap::new(),
            trace: FaultTrace::default(),
        })
    }

    /// The injected-fault record so far.
    pub fn trace(&self) -> &FaultTrace {
        &self.trace
    }

    /// Input lines consumed so far.
    pub fn lines_in(&self) -> u64 {
        self.line_no
    }

    /// Feeds one input line; returns the lines to deliver now, in order
    /// (possibly none — buffered or suppressed — or several).
    pub fn push_line(&mut self, line: &str) -> Vec<String> {
        let idx = self.line_no;
        self.line_no += 1;
        let mut out = Vec::new();
        // Track tenants and apply mutes on the clean line, before any
        // corruption, so churn targets real sessions.
        let tenant = Record::parse(line).ok().map(|r| r.tenant().to_string());
        if let Some(t) = &tenant {
            if !self.tenants.iter().any(|k| k == t) {
                self.tenants.push(t.clone());
            }
            if let Some(left) = self.muted.get_mut(t) {
                *left -= 1;
                if *left == 0 {
                    self.muted.remove(t);
                }
                self.release_held(&mut out);
                return out; // the tenant has vanished: line lost
            }
        }
        match self.draw_fault() {
            None => self.emit(line.to_string(), &mut out),
            Some(FaultClass::Corrupt) => {
                self.trace.record(idx, FaultClass::Corrupt);
                let dirty = self.corrupt(line);
                self.emit(dirty, &mut out);
            }
            Some(FaultClass::Truncate) => {
                // Fuse any pending prefix first so prefixes chain rather
                // than overwrite each other.
                let full = match self.fuse.take() {
                    Some(p) => p + line,
                    None => line.to_string(),
                };
                let chars = full.chars().count();
                if chars < 2 {
                    self.emit(full, &mut out);
                } else {
                    self.trace.record(idx, FaultClass::Truncate);
                    let cut = 1 + self.rng.next_below(chars as u64 - 1) as usize;
                    self.fuse = Some(full.chars().take(cut).collect());
                }
            }
            Some(FaultClass::Duplicate) => {
                self.trace.record(idx, FaultClass::Duplicate);
                self.emit(line.to_string(), &mut out);
                self.emit(line.to_string(), &mut out);
            }
            Some(FaultClass::Reorder) => {
                if self.held.is_none() {
                    self.trace.record(idx, FaultClass::Reorder);
                    self.held = Some(line.to_string());
                    return out; // delivered after the next line
                }
                self.emit(line.to_string(), &mut out);
            }
            Some(FaultClass::Stall) => {
                self.trace.record(idx, FaultClass::Stall);
                let (lo, hi) = self.config.stall_len;
                self.stall_left = self.rng.range_inclusive(lo, hi);
                self.emit(line.to_string(), &mut out);
            }
            Some(FaultClass::Disconnect) => {
                self.trace.record(idx, FaultClass::Disconnect);
                self.emit(line.to_string(), &mut out);
                // Reconnect replays the unacknowledged tail.
                for l in self.recent.clone() {
                    out.push(l);
                }
            }
            Some(FaultClass::Churn) => {
                if let Some(victim) = self.pick_tenant() {
                    self.trace.record(idx, FaultClass::Churn);
                    if self.rng.chance(0.5) {
                        // Close flavour: the tenant reopens on its next
                        // sample (generation bump).
                        let close =
                            Record::Close { tenant: victim }.to_line();
                        self.emit(close, &mut out);
                    } else {
                        // Vanish flavour: the tenant goes silent long
                        // enough to trip the engine's idle timeout.
                        let (lo, hi) = self.config.mute_len;
                        let len = self.rng.range_inclusive(lo, hi);
                        self.muted.insert(victim, len.max(1));
                    }
                }
                self.emit(line.to_string(), &mut out);
            }
        }
        self.release_held(&mut out);
        out
    }

    /// Flushes everything still buffered (end of stream): a held
    /// reordered line, a stalled burst, a dangling truncated prefix.
    pub fn finish(&mut self) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(h) = self.held.take() {
            self.emit(h, &mut out);
        }
        self.stall_left = 0;
        for l in std::mem::take(&mut self.stalled) {
            self.deliver(l, &mut out);
        }
        if let Some(p) = self.fuse.take() {
            self.deliver(p, &mut out);
        }
        out
    }

    /// One-shot convenience: runs `lines` through a fresh plan and
    /// returns the chaotic stream plus its fault trace.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid `config` knob.
    pub fn apply(
        seed: u64,
        config: FaultPlanConfig,
        lines: &[String],
    ) -> Result<(Vec<String>, FaultTrace), String> {
        let mut plan = FaultPlan::new(seed, config)?;
        let mut out = Vec::with_capacity(lines.len());
        for line in lines {
            out.extend(plan.push_line(line));
        }
        out.extend(plan.finish());
        Ok((out, plan.trace.clone()))
    }

    /// Draws at most one fault class for the current line.
    fn draw_fault(&mut self) -> Option<FaultClass> {
        let u = self.rng.next_f64();
        let c = self.config;
        let rates = [
            (FaultClass::Corrupt, c.corrupt),
            (FaultClass::Truncate, c.truncate),
            (FaultClass::Duplicate, c.duplicate),
            (FaultClass::Reorder, c.reorder),
            (FaultClass::Stall, c.stall),
            (FaultClass::Disconnect, c.disconnect),
            (FaultClass::Churn, c.churn),
        ];
        let mut acc = 0.0;
        for (class, p) in rates {
            acc += p;
            if u < acc {
                return Some(class);
            }
        }
        None
    }

    /// Routes one line toward the output through the fuse and stall
    /// stages.
    fn emit(&mut self, line: String, out: &mut Vec<String>) {
        let line = match self.fuse.take() {
            Some(prefix) => prefix + &line,
            None => line,
        };
        if self.stall_left > 0 {
            self.stall_left -= 1;
            self.stalled.push(line);
            if self.stall_left == 0 {
                // Burst release, order preserved.
                for l in std::mem::take(&mut self.stalled) {
                    self.deliver(l, out);
                }
            }
            return;
        }
        self.deliver(line, out);
    }

    /// Hands one line to the caller and remembers it for disconnect
    /// replays.
    fn deliver(&mut self, line: String, out: &mut Vec<String>) {
        self.recent.push_back(line.clone());
        while self.recent.len() > self.config.replay_window {
            self.recent.pop_front();
        }
        out.push(line);
    }

    /// Emits the line held by a pending reorder, after the line that
    /// overtook it.
    fn release_held(&mut self, out: &mut Vec<String>) {
        if !out.is_empty() {
            if let Some(h) = self.held.take() {
                self.emit(h, out);
            }
        }
    }

    /// Picks a churn victim among the tenants seen so far.
    fn pick_tenant(&mut self) -> Option<String> {
        if self.tenants.is_empty() {
            return None;
        }
        let i = self.rng.next_below(self.tenants.len() as u64) as usize;
        self.tenants.get(i).cloned()
    }

    /// Overwrites 1–3 characters with JSON-hostile junk.
    fn corrupt(&mut self, line: &str) -> String {
        const JUNK: [char; 8] = ['#', '{', '}', '"', ':', ',', 'Z', '\u{fffd}'];
        let mut chars: Vec<char> = line.chars().collect();
        if chars.is_empty() {
            return line.to_string();
        }
        let hits = 1 + self.rng.next_below(3);
        for _ in 0..hits {
            let pos = self.rng.next_below(chars.len() as u64) as usize;
            let junk = JUNK
                .get(self.rng.next_below(JUNK.len() as u64) as usize)
                .copied()
                .unwrap_or('#');
            if let Some(c) = chars.get_mut(pos) {
                *c = junk;
            }
        }
        chars.into_iter().collect()
    }
}

/// A deterministic capped-exponential retry schedule for flaky
/// transports (TCP bind/accept/read). Pure arithmetic — the caller owns
/// the actual sleeping — so the policy replays identically and is
/// testable without a clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    base_ms: u64,
    cap_ms: u64,
    max_retries: u32,
    attempt: u32,
}

impl Backoff {
    /// A schedule starting at `base_ms`, doubling per attempt, clamped
    /// to `cap_ms`, giving up after `max_retries` attempts.
    pub fn new(base_ms: u64, cap_ms: u64, max_retries: u32) -> Self {
        Backoff { base_ms: base_ms.max(1), cap_ms: cap_ms.max(1), max_retries, attempt: 0 }
    }

    /// The CLI default: 100 ms doubling to a 5 s cap, 8 attempts.
    pub fn transport() -> Self {
        Backoff::new(100, 5_000, 8)
    }

    /// Delay before the next retry, or `None` when the budget is spent.
    pub fn next_delay_ms(&mut self) -> Option<u64> {
        if self.attempt >= self.max_retries {
            return None;
        }
        let exp = self.attempt.min(32);
        self.attempt += 1;
        let delay = self
            .base_ms
            .saturating_mul(1u64.checked_shl(exp).unwrap_or(u64::MAX));
        Some(delay.min(self.cap_ms))
    }

    /// Resets the schedule after a success.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// Attempts consumed so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_lines(n: u64) -> Vec<String> {
        let mut lines = Vec::new();
        for i in 0..n {
            for t in ["vm-a", "vm-b"] {
                lines.push(format!(r#"{{"tenant":"{t}","access":{i},"miss":1}}"#));
            }
        }
        lines
    }

    #[test]
    fn no_faults_is_identity() {
        let lines = sample_lines(200);
        let (out, trace) = FaultPlan::apply(7, FaultPlanConfig::none(), &lines).unwrap();
        assert_eq!(out, lines);
        assert_eq!(trace.total(), 0);
        assert!(trace.events().is_empty());
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_trace() {
        let lines = sample_lines(2_000);
        let cfg = FaultPlanConfig::chaos();
        let (a1, t1) = FaultPlan::apply(42, cfg, &lines).unwrap();
        let (a2, t2) = FaultPlan::apply(42, cfg, &lines).unwrap();
        assert_eq!(a1, a2);
        assert_eq!(t1.fingerprint(), t2.fingerprint());
        let (_, t3) = FaultPlan::apply(43, cfg, &lines).unwrap();
        assert_ne!(t1.fingerprint(), t3.fingerprint());
    }

    #[test]
    fn chaos_rates_exercise_every_class_on_a_long_stream() {
        let lines = sample_lines(8_000);
        let (_, trace) = FaultPlan::apply(1, FaultPlanConfig::chaos(), &lines).unwrap();
        assert!(
            trace.all_classes_exercised(),
            "missing: {:?}",
            trace.missing_classes()
        );
    }

    #[test]
    fn single_class_plans_have_the_advertised_shape() {
        let lines = sample_lines(500);
        // Duplicate-only: output is longer, every line is valid.
        let cfg = FaultPlanConfig { duplicate: 0.2, ..FaultPlanConfig::none() };
        let (out, trace) = FaultPlan::apply(5, cfg, &lines).unwrap();
        assert!(out.len() > lines.len());
        assert_eq!(
            out.len() as u64,
            lines.len() as u64 + trace.count(FaultClass::Duplicate)
        );
        // Reorder-only: same multiset of lines, same length.
        let cfg = FaultPlanConfig { reorder: 0.2, ..FaultPlanConfig::none() };
        let (out, trace) = FaultPlan::apply(5, cfg, &lines).unwrap();
        assert!(trace.count(FaultClass::Reorder) > 0);
        assert_eq!(out.len(), lines.len());
        let mut sorted_in = lines.clone();
        let mut sorted_out = out.clone();
        sorted_in.sort();
        sorted_out.sort();
        assert_eq!(sorted_in, sorted_out);
        // Stall-only: order fully preserved (a stall is pure timing).
        let cfg = FaultPlanConfig { stall: 0.05, ..FaultPlanConfig::none() };
        let (out, trace) = FaultPlan::apply(5, cfg, &lines).unwrap();
        assert!(trace.count(FaultClass::Stall) > 0);
        assert_eq!(out, lines);
    }

    #[test]
    fn truncate_fuses_prefix_onto_next_delivery() {
        let lines = sample_lines(1);
        let cfg = FaultPlanConfig { truncate: 1.0, ..FaultPlanConfig::none() };
        let mut plan = FaultPlan::new(9, cfg).unwrap();
        let first = lines.first().unwrap();
        assert!(plan.push_line(first).is_empty(), "truncated line is withheld");
        let out = plan.finish();
        assert_eq!(out.len(), 1);
        let fused = out.first().unwrap();
        assert!(first.starts_with(fused.as_str()), "prefix of the original survives");
        assert!(fused.len() < first.len());
    }

    #[test]
    fn churn_injects_closes_for_seen_tenants() {
        let lines = sample_lines(4_000);
        let cfg = FaultPlanConfig { churn: 0.05, ..FaultPlanConfig::none() };
        let (out, trace) = FaultPlan::apply(11, cfg, &lines).unwrap();
        assert!(trace.count(FaultClass::Churn) > 0);
        let closes = out.iter().filter(|l| l.contains(r#""ctl":"close""#)).count();
        assert!(closes > 0, "close flavour fired at least once");
        // Vanish flavour suppresses lines: output shorter than input
        // plus injected closes.
        assert!(out.len() < lines.len() + closes + 1);
    }

    #[test]
    fn rejects_invalid_config() {
        let cfg = FaultPlanConfig { corrupt: 1.5, ..FaultPlanConfig::none() };
        assert!(FaultPlan::new(0, cfg).is_err());
        let cfg = FaultPlanConfig { corrupt: 0.6, duplicate: 0.6, ..FaultPlanConfig::none() };
        assert!(FaultPlan::new(0, cfg).is_err());
        let cfg = FaultPlanConfig { stall_len: (9, 3), ..FaultPlanConfig::none() };
        assert!(FaultPlan::new(0, cfg).is_err());
        let cfg = FaultPlanConfig { replay_window: 0, ..FaultPlanConfig::none() };
        assert!(FaultPlan::new(0, cfg).is_err());
    }

    #[test]
    fn backoff_doubles_caps_and_gives_up() {
        let mut b = Backoff::new(100, 1_000, 5);
        let delays: Vec<Option<u64>> = (0..6).map(|_| b.next_delay_ms()).collect();
        assert_eq!(
            delays,
            [Some(100), Some(200), Some(400), Some(800), Some(1_000), None]
        );
        b.reset();
        assert_eq!(b.next_delay_ms(), Some(100));
        assert_eq!(b.attempts(), 1);
    }
}
