//! The open-loop load generator: record `i` is due at
//! `start + i / rate`, whatever the system under test is doing. The
//! harness offers each record no earlier than its due time and measures
//! every latency from the due time, so a stall is charged to every
//! record it delayed, not just the one that hit it.
//!
//! How late the generator ran tells whether the offered rate was
//! sustained: `late_p99` is the tail of per-record lateness and
//! `backlog_end` the lateness of the final record. A backlog that grows
//! through the pass means the rate is above what the pipeline sustains,
//! and the latency figures then measure queueing, not service.

use crate::stats::{tail, Percentile};
use std::time::{Duration, Instant};

/// Paces records at a fixed offered rate.
#[derive(Debug)]
pub struct Pacer {
    start: Instant,
    interval_ns: f64,
    late_ms: Vec<f64>,
}

impl Pacer {
    /// A pacer whose record 0 is due now, offering `rate` records/s.
    pub fn new(rate: f64) -> Self {
        Pacer {
            start: Instant::now(),
            interval_ns: 1e9 / rate,
            late_ms: Vec::new(),
        }
    }

    /// When record `i` is due, in ns since the pacer started.
    pub fn due_ns(&self, i: u64) -> u64 {
        (i as f64 * self.interval_ns) as u64
    }

    /// Nanoseconds since the pacer started.
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Blocks until record `i` is due (sleeping when far ahead, spinning
    /// for the last stretch) and records how late it is offered.
    pub fn wait(&mut self, i: u64) {
        let due = self.due_ns(i);
        loop {
            let now = self.now_ns();
            if now >= due {
                self.late_ms.push((now - due) as f64 / 1e6);
                return;
            }
            let ahead = due - now;
            if ahead > 2_000_000 {
                std::thread::sleep(Duration::from_nanos(ahead - 1_000_000));
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Tail of per-record lateness, ms.
    pub fn late_p99(&self) -> Percentile {
        tail(&self.late_ms, 99.0)
    }

    /// Lateness of the last record offered, ms: the backlog the
    /// generator ended the pass with.
    pub fn backlog_end_ms(&self) -> f64 {
        self.late_ms.last().copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spins for `d` — a consumer slower than the offered interval.
    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn slow_consumer_grows_the_backlog() {
        // Offered every 100 µs, consumed in 400 µs: each record adds
        // ~300 µs of backlog, whatever the machine's load.
        let mut pacer = Pacer::new(10_000.0);
        let mut checkpoints = Vec::new();
        for i in 0..60u64 {
            pacer.wait(i);
            busy(Duration::from_micros(400));
            if i % 20 == 19 {
                checkpoints.push(pacer.backlog_end_ms());
            }
        }
        assert_eq!(pacer.late_p99().n, 60);
        assert!(
            checkpoints.windows(2).all(|w| w[1] > w[0] + 3.0),
            "backlog must grow by ~6 ms per 20 records: {checkpoints:?}"
        );
        assert!(checkpoints[2] > 10.0, "{checkpoints:?}");
    }

    #[test]
    fn records_are_not_offered_early() {
        let mut pacer = Pacer::new(2_000.0);
        let t0 = Instant::now();
        for i in 0..20u64 {
            pacer.wait(i);
        }
        // Record 19 is due 9.5 ms after record 0.
        assert!(t0.elapsed() >= Duration::from_micros(9_400));
        assert_eq!(pacer.late_p99().n, 20);
    }
}
