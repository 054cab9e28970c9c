//! In-memory spans around the harness's calls into each layer.
//!
//! A span has a name, a start, an end and the span that caused it
//! (its parent); every span of one run shares the run id. Calls made
//! once per record (one `ingest_line`, one `next_item`) would cost more
//! memory as single spans than the work they time, so they are kept as
//! *aggregate* spans: one entry per (name, parent) holding the call
//! count and the summed busy time. Self time is a span's busy time minus
//! the busy time of its children. Spans are printed when the run ends.

use std::time::Instant;

/// Index of a span within its [`Trace`].
pub type SpanId = usize;

/// One span, or one aggregate of many same-named calls.
#[derive(Debug, Clone)]
pub struct Span {
    /// Name of the call or phase.
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, in ns since the trace origin (first call for aggregates).
    pub start_ns: u64,
    /// End, in ns since the trace origin (last call for aggregates).
    pub end_ns: u64,
    /// Calls covered (1 for a plain span).
    pub count: u64,
    /// Summed duration of the calls covered.
    pub busy_ns: u64,
}

/// The spans of one run.
#[derive(Debug)]
pub struct Trace {
    run: String,
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace for run `run` (`<workload>/seed=<n>`).
    pub fn new(run: String) -> Self {
        Trace {
            run,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the trace origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
            count: 1,
            busy_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now and returns its duration in ns.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        match self.spans.get_mut(id) {
            Some(s) => {
                s.end_ns = now;
                s.busy_ns = now.saturating_sub(s.start_ns);
                s.busy_ns
            }
            None => 0,
        }
    }

    /// Records an aggregate of `count` calls named `name` under `parent`
    /// that together were busy `busy_ns` between `start_ns` and `end_ns`.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        (start_ns, end_ns): (u64, u64),
        count: u64,
        busy_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
            count,
            busy_ns,
        });
        self.spans.len() - 1
    }

    /// Busy time of span `id` minus the busy time of its children.
    pub fn self_ns(&self, id: SpanId) -> i64 {
        let busy = self.spans.get(id).map_or(0, |s| s.busy_ns) as i64;
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.busy_ns)
            .sum();
        busy - children as i64
    }

    /// One line per span: id, parent, name, run, start/end, calls, busy
    /// and self time (all times in µs).
    pub fn render(&self) -> Vec<String> {
        self.spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
                format!(
                    "span id={id} parent={parent} name={} run={} start_us={:.1} end_us={:.1} \
                     calls={} busy_us={:.1} self_us={:.1}",
                    s.name,
                    self.run,
                    s.start_ns as f64 / 1e3,
                    s.end_ns as f64 / 1e3,
                    s.count,
                    s.busy_ns as f64 / 1e3,
                    self.self_ns(id) as f64 / 1e3,
                )
            })
            .collect()
    }
}

/// Accumulates per-call busy time for one aggregate span.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acc {
    /// Calls timed.
    pub count: u64,
    /// Summed duration, ns.
    pub busy_ns: u64,
    /// First call's start, ns since the trace origin.
    pub first_ns: u64,
    /// Last call's end, ns since the trace origin.
    pub last_ns: u64,
}

impl Acc {
    /// Adds one call that ran from `start_ns` to `end_ns`.
    pub fn add(&mut self, start_ns: u64, end_ns: u64) {
        if self.count == 0 {
            self.first_ns = start_ns;
        }
        self.count += 1;
        self.busy_ns += end_ns.saturating_sub(start_ns);
        self.last_ns = end_ns;
    }

    /// Folds in the calls of `other`, which started after these.
    pub fn merge(&mut self, other: &Acc) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.first_ns = other.first_ns;
        }
        self.count += other.count;
        self.busy_ns += other.busy_ns;
        self.last_ns = other.last_ns;
    }

    /// Writes the accumulated calls into `trace` as one aggregate span.
    pub fn emit(&self, trace: &mut Trace, name: &'static str, parent: Option<SpanId>) -> SpanId {
        trace.aggregate(
            name,
            parent,
            (self.first_ns, self.last_ns),
            self.count,
            self.busy_ns,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_aggregates() {
        let mut t = Trace::new("test/seed=1".to_string());
        let root = t.aggregate("pass", None, (0, 1_000), 1, 1_000);
        let mut acc = Acc::default();
        acc.add(10, 110);
        acc.add(200, 500);
        acc.emit(&mut t, "ingest", Some(root));
        t.aggregate("flush", Some(root), (500, 600), 1, 100);
        assert_eq!(t.self_ns(root), 1_000 - 400 - 100);
        let lines = t.render();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains("parent=0 name=ingest run=test/seed=1"));
        assert!(
            lines[1].contains("calls=2 busy_us=0.4 self_us=0.4"),
            "{}",
            lines[1]
        );
        assert!(lines[0].contains("self_us=0.5"), "{}", lines[0]);
    }

    #[test]
    fn open_close_measures_a_real_interval() {
        let mut t = Trace::new("test".to_string());
        let id = t.open("sleep", None);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let ns = t.close(id);
        assert!(ns >= 2_000_000, "{ns}");
        assert_eq!(t.self_ns(id), ns as i64);
    }
}
