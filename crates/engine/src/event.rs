//! Typed log events and the one renderer that turns them into log lines.
//!
//! Every line the engine logs starts life as an [`Event`]: one variant
//! per event kind, holding exactly the values the line carries. The
//! tenant name is the engine's interned `Arc<str>`, shared with the
//! tenant slot and the session, so building an event allocates
//! nothing. [`render_event`] is one `match` that writes each variant's
//! fields straight into the recycled [`LineBuf`], in a fixed key order;
//! the log line it returns is the only allocation per event.

use crate::engine::{EngineStats, StageProf};
use crate::mitigation::Rung;
use crate::session::{CloseReason, DropPolicy};
use memdos_core::detector::Verdict;
use memdos_core::sds::Sds;
use memdos_metrics::jsonl::LineBuf;
use std::borrow::Cow;
use std::sync::Arc;

/// One event ordered globally by `(seq, sub)`: the arrival index of the
/// input item that produced it, then emission order within that item.
#[derive(Debug, Clone)]
pub(crate) struct SessionEvent {
    /// Global arrival index of the triggering input line.
    pub(crate) seq: u64,
    /// Emission order among events of the same input line.
    pub(crate) sub: u32,
    /// What happened (rendered with `seq` first by [`render_event`]).
    pub(crate) payload: Event,
}

/// Every kind of event the engine logs, with the values its line
/// carries.
#[derive(Debug, Clone)]
pub(crate) enum Event {
    /// A session incarnation saw its first item.
    Opened { tenant: Arc<str>, generation: u32 },
    /// Stage-1 profiling finished and the detector armed.
    ProfileReady {
        tenant: Arc<str>,
        periodic: bool,
        period_ma: Option<f64>,
    },
    /// Stage-1 profiling failed; the session closed.
    ProfileFailed { tenant: Arc<str>, reason: String },
    /// The detector's verdict changed class at monitoring tick `tick`.
    Verdict {
        tenant: Arc<str>,
        from: Verdict,
        to: Verdict,
        tick: u64,
    },
    /// The alarm budget ran out.
    Quarantined { tenant: Arc<str>, alarms: u64 },
    /// The session closed, with its final accounting.
    Closed {
        tenant: Arc<str>,
        reason: CloseReason,
        ingested: u64,
        dropped: u64,
        alarms: u64,
    },
    /// A sample was lost (bursts are coalesced by the engine).
    Dropped {
        tenant: Arc<str>,
        policy: DropPolicy,
        terminal: bool,
        burst: u64,
        total: u64,
    },
    /// The queue admitted a sample again after a drop burst.
    Recovered { tenant: Arc<str>, burst: u64 },
    /// An input span failed to decode. Reasons from the record parser
    /// and the binary decoder are static; framer and resync reasons are
    /// rendered per fault.
    Malformed {
        reason: Cow<'static, str>,
        bytes: Option<usize>,
    },
    /// A session could not open.
    OpenFailed { tenant: Arc<str>, reason: String },
    /// A mitigation control engaged on a quarantined tenant.
    MitigationEngaged {
        tenant: Arc<str>,
        rung: Rung,
        degraded: bool,
    },
    /// A case took its first recovery sample.
    MitigationConfirming { tenant: Arc<str>, rung: Rung },
    /// Victim recovery was first observed.
    MitigationRecovered {
        tenant: Arc<str>,
        rung: Rung,
        latency: u64,
    },
    /// Victims degraded again before recovery stuck.
    MitigationRelapsed { tenant: Arc<str>, rung: Rung },
    /// The case re-engaged one rung up.
    MitigationClimbed { tenant: Arc<str>, rung: Rung },
    /// The case ended escalated.
    MitigationEscalated {
        tenant: Arc<str>,
        rung: Rung,
        why: Escalation,
    },
    /// The case ended released.
    MitigationReleased { tenant: Arc<str>, why: Release },
    /// A quarantine notice arrived for a session already closing.
    MitigationSkipped { tenant: Arc<str> },
    /// The end-of-stream counters (boxed: logged once per stream).
    EngineStats(Box<StatsLine>),
}

/// Why a mitigation case escalated (the `reason` of its event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Escalation {
    /// Rung memory already sat at evict when the control engaged.
    Engage,
    /// The ladder climbed to eviction.
    Budget,
    /// Victim recovery stuck after `latency` seq-ticks.
    Confirmed { latency: u64 },
}

/// Why a mitigation case was released (the `reason` of its event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Release {
    /// The session closed underneath an active case.
    Closed,
    /// A false quarantine, after `cost` seq-ticks under control.
    Verdict { cost: u64 },
}

/// The values of the `engine_stats` trailer line.
#[derive(Debug, Clone)]
pub(crate) struct StatsLine {
    /// Incarnations ever opened.
    pub(crate) sessions: u64,
    /// Open sessions at end of stream.
    pub(crate) open_sessions: u64,
    /// Recovery and degradation counters.
    pub(crate) stats: EngineStats,
    /// Whether the mitigation counters ride along (only when the loop
    /// is live, so detection-only logs keep their shape).
    pub(crate) mitigation: bool,
    /// Wall-clock stage counters, when profiling is on.
    pub(crate) prof: Option<StageProf>,
}

/// Serializes one event as a log line through the recycled [`LineBuf`]
/// writer, with the global arrival index first as `seq`. Counters go
/// through the integer formatter, which matches the codec's number
/// format exactly up to 2^53. Only the returned log line is allocated.
// hot-path
pub(crate) fn render_event(buf: &mut LineBuf, ev: &SessionEvent) -> String {
    let b = buf.begin();
    b.field_u64("seq", ev.seq);
    match &ev.payload {
        Event::Opened { tenant, generation } => {
            b.field_str("event", "opened")
                .field_str("tenant", tenant)
                .field_u64("gen", u64::from(*generation));
        }
        Event::ProfileReady {
            tenant,
            periodic,
            period_ma,
        } => {
            b.field_str("event", "profile_ready")
                .field_str("tenant", tenant)
                .field_bool("periodic", *periodic);
            if let Some(p) = period_ma {
                b.field_num("period_ma", *p);
            }
        }
        Event::ProfileFailed { tenant, reason } => {
            b.field_str("event", "profile_failed")
                .field_str("tenant", tenant)
                .field_str("reason", reason);
        }
        Event::Verdict {
            tenant,
            from,
            to,
            tick,
        } => {
            b.field_str("event", "verdict")
                .field_str("tenant", tenant)
                .field_str("detector", Sds::NAME)
                .field_str("from", from.label())
                .field_str("to", to.label())
                .field_u64("tick", *tick);
        }
        Event::Quarantined { tenant, alarms } => {
            b.field_str("event", "quarantined")
                .field_str("tenant", tenant)
                .field_u64("alarms", *alarms);
        }
        Event::Closed {
            tenant,
            reason,
            ingested,
            dropped,
            alarms,
        } => {
            b.field_str("event", "closed")
                .field_str("tenant", tenant)
                .field_str("reason", reason.label())
                .field_u64("ingested", *ingested)
                .field_u64("dropped", *dropped)
                .field_u64("alarms", *alarms);
        }
        Event::Dropped {
            tenant,
            policy,
            terminal,
            burst,
            total,
        } => {
            b.field_str("event", "dropped")
                .field_str("tenant", tenant)
                .field_str("policy", policy.label())
                .field_bool("terminal", *terminal)
                .field_u64("burst", *burst)
                .field_u64("total", *total);
        }
        Event::Recovered { tenant, burst } => {
            b.field_str("event", "recovered")
                .field_str("tenant", tenant)
                .field_u64("burst", *burst);
        }
        Event::Malformed { reason, bytes } => {
            b.field_str("event", "malformed")
                .field_str("reason", reason);
            if let Some(n) = bytes {
                b.field_u64("bytes", *n as u64);
            }
        }
        Event::OpenFailed { tenant, reason } => {
            b.field_str("event", "open_failed")
                .field_str("tenant", tenant)
                .field_str("reason", reason);
        }
        Event::MitigationEngaged {
            tenant,
            rung,
            degraded,
        } => {
            b.field_str("event", "mitigation_engaged")
                .field_str("tenant", tenant)
                .field_str("rung", rung.label())
                .field_bool("degraded", *degraded);
        }
        Event::MitigationConfirming { tenant, rung } => {
            b.field_str("event", "mitigation_confirming")
                .field_str("tenant", tenant)
                .field_str("rung", rung.label());
        }
        Event::MitigationRecovered {
            tenant,
            rung,
            latency,
        } => {
            b.field_str("event", "mitigation_recovered")
                .field_str("tenant", tenant)
                .field_str("rung", rung.label())
                .field_u64("latency", *latency);
        }
        Event::MitigationRelapsed { tenant, rung } => {
            b.field_str("event", "mitigation_relapsed")
                .field_str("tenant", tenant)
                .field_str("rung", rung.label());
        }
        Event::MitigationClimbed { tenant, rung } => {
            b.field_str("event", "mitigation_climbed")
                .field_str("tenant", tenant)
                .field_str("rung", rung.label());
        }
        Event::MitigationEscalated { tenant, rung, why } => {
            b.field_str("event", "mitigation_escalated")
                .field_str("tenant", tenant)
                .field_str("rung", rung.label());
            match why {
                Escalation::Engage => b.field_str("reason", "engage"),
                Escalation::Budget => b.field_str("reason", "budget"),
                Escalation::Confirmed { latency } => b
                    .field_str("reason", "confirmed")
                    .field_u64("latency", *latency),
            };
        }
        Event::MitigationReleased { tenant, why } => {
            b.field_str("event", "mitigation_released")
                .field_str("tenant", tenant);
            match why {
                Release::Closed => b.field_str("reason", "closed"),
                Release::Verdict { cost } => {
                    b.field_str("reason", "verdict").field_u64("cost", *cost)
                }
            };
        }
        Event::MitigationSkipped { tenant } => {
            b.field_str("event", "mitigation_skipped")
                .field_str("tenant", tenant)
                .field_str("reason", "closed");
        }
        Event::EngineStats(line) => {
            let s = &line.stats;
            b.field_str("event", "engine_stats")
                .field_u64("sessions", line.sessions)
                .field_u64("open_sessions", line.open_sessions)
                .field_u64("malformed", s.malformed)
                .field_u64("resynced", s.resynced)
                .field_u64("drops_backpressure", s.drops_backpressure)
                .field_u64("drops_terminal", s.drops_terminal)
                .field_u64("recoveries", s.recoveries)
                .field_u64("idle_closed", s.idle_closed)
                .field_u64("evicted", s.evicted)
                .field_u64("reopened", s.reopened)
                .field_u64("peak_queued", s.peak_queued);
            if line.mitigation {
                b.field_u64("mitigations_engaged", s.mitigations_engaged)
                    .field_u64("mitigations_released", s.mitigations_released)
                    .field_u64("mitigations_escalated", s.mitigations_escalated)
                    .field_u64("mitigations_aborted", s.mitigations_aborted)
                    .field_u64("mitigation_skipped", s.mitigation_skipped)
                    .field_u64("recovery_latency_ticks", s.recovery_latency_ticks)
                    .field_u64("false_quarantine_ticks", s.false_quarantine_ticks);
            }
            if let Some(p) = &line.prof {
                b.field_u64("prof_decode_ns", p.decode_ns)
                    .field_u64("prof_decode_bin_ns", p.decode_bin_ns)
                    .field_u64("prof_dispatch_ns", p.dispatch_ns)
                    .field_u64("prof_step_ns", p.step_ns)
                    .field_u64("prof_merge_ns", p.merge_ns)
                    .field_u64("prof_write_ns", p.write_ns)
                    .field_u64("prof_reclaim_ns", p.reclaim_ns);
            }
        }
    }
    // lint:allow(hot-alloc) -- the emitted log line is the one permitted allocation per event; everything upstream renders into the recycled buffer
    // lint:allow(hot-propagate) -- the same line, reached from the ingest hot paths through the flush
    b.end().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use memdos_metrics::jsonl::JsonObject;

    /// The top of the codec's exact-integer range.
    const TWO_53: u64 = 1 << 53;
    /// A tenant name that needs every kind of escaping, plus non-ASCII.
    const ODD: &str = "vm \"q\" \\ \n\t\u{1}\u{1f} é 漢 🙂";

    /// Asserts that `payload` renders exactly as the `JsonObject` the
    /// engine used to build for it: `seq` first, then `fields`.
    fn check(seq: u64, payload: Event, fields: impl FnOnce(&mut JsonObject)) {
        let mut old = JsonObject::new();
        old.push_num("seq", seq as f64);
        fields(&mut old);
        let line = render_event(
            &mut LineBuf::new(),
            &SessionEvent {
                seq,
                sub: 0,
                payload,
            },
        );
        assert_eq!(line, old.to_line());
    }

    #[test]
    fn session_events_render_like_the_objects_they_replace() {
        for name in ["vm-0", ODD] {
            for n in [0, 41, TWO_53] {
                let t = || Arc::<str>::from(name);
                for generation in [0u32, 3, u32::MAX] {
                    check(
                        n,
                        Event::Opened {
                            tenant: t(),
                            generation,
                        },
                        |o| {
                            o.push_str("event", "opened")
                                .push_str("tenant", name)
                                .push_num("gen", generation as f64);
                        },
                    );
                }
                for period_ma in [None, Some(17.333333333333332), Some(0.1), Some(24.0)] {
                    for periodic in [false, true] {
                        check(
                            n,
                            Event::ProfileReady {
                                tenant: t(),
                                periodic,
                                period_ma,
                            },
                            |o| {
                                o.push_str("event", "profile_ready")
                                    .push_str("tenant", name)
                                    .push_bool("periodic", periodic);
                                if let Some(p) = period_ma {
                                    o.push_num("period_ma", p);
                                }
                            },
                        );
                    }
                }
                let reason = "profile too short: need 20 smoothed values, got 3";
                check(
                    n,
                    Event::ProfileFailed {
                        tenant: t(),
                        reason: reason.into(),
                    },
                    |o| {
                        o.push_str("event", "profile_failed")
                            .push_str("tenant", name)
                            .push_str("reason", reason);
                    },
                );
                let (from, to) = (Verdict::Suspicious { consecutive: 2 }, Verdict::Alarm);
                check(
                    n,
                    Event::Verdict {
                        tenant: t(),
                        from,
                        to,
                        tick: n,
                    },
                    |o| {
                        o.push_str("event", "verdict")
                            .push_str("tenant", name)
                            .push_str("detector", "SDS")
                            .push_str("from", "suspicious")
                            .push_str("to", "alarm")
                            .push_num("tick", n as f64);
                    },
                );
                check(
                    n,
                    Event::Quarantined {
                        tenant: t(),
                        alarms: n,
                    },
                    |o| {
                        o.push_str("event", "quarantined")
                            .push_str("tenant", name)
                            .push_num("alarms", n as f64);
                    },
                );
                for reason in [
                    CloseReason::Ctl,
                    CloseReason::Idle,
                    CloseReason::Evicted,
                    CloseReason::Released,
                    CloseReason::Escalated,
                ] {
                    let payload = Event::Closed {
                        tenant: t(),
                        reason,
                        ingested: n,
                        dropped: 5,
                        alarms: n,
                    };
                    check(n, payload, |o| {
                        o.push_str("event", "closed")
                            .push_str("tenant", name)
                            .push_str("reason", reason.label())
                            .push_num("ingested", n as f64)
                            .push_num("dropped", 5.0)
                            .push_num("alarms", n as f64);
                    });
                }
                for (policy, terminal) in [(DropPolicy::Oldest, false), (DropPolicy::Newest, true)]
                {
                    let payload = Event::Dropped {
                        tenant: t(),
                        policy,
                        terminal,
                        burst: 64,
                        total: n,
                    };
                    check(n, payload, |o| {
                        o.push_str("event", "dropped")
                            .push_str("tenant", name)
                            .push_str("policy", policy.label())
                            .push_bool("terminal", terminal)
                            .push_num("burst", 64.0)
                            .push_num("total", n as f64);
                    });
                }
                check(
                    n,
                    Event::Recovered {
                        tenant: t(),
                        burst: n,
                    },
                    |o| {
                        o.push_str("event", "recovered")
                            .push_str("tenant", name)
                            .push_num("burst", n as f64);
                    },
                );
                let reason = "invalid parameter `window`: must be positive";
                check(
                    n,
                    Event::OpenFailed {
                        tenant: t(),
                        reason: reason.into(),
                    },
                    |o| {
                        o.push_str("event", "open_failed")
                            .push_str("tenant", name)
                            .push_str("reason", reason);
                    },
                );
            }
        }
    }

    #[test]
    fn malformed_events_render_like_the_objects_they_replace() {
        let reasons: [Cow<'static, str>; 3] = [
            Cow::Borrowed("undefined wire id"),
            Cow::Owned("line exceeds 1048576 bytes".to_string()),
            Cow::Owned(format!("unterminated string {ODD:?}")),
        ];
        for reason in reasons {
            for bytes in [None, Some(0), Some(4_096), Some(TWO_53 as usize)] {
                let text = reason.to_string();
                check(
                    9,
                    Event::Malformed {
                        reason: reason.clone(),
                        bytes,
                    },
                    |o| {
                        o.push_str("event", "malformed").push_str("reason", text);
                        if let Some(b) = bytes {
                            o.push_num("bytes", b as f64);
                        }
                    },
                );
            }
        }
    }

    #[test]
    fn mitigation_events_render_like_the_objects_they_replace() {
        for name in ["vm-7", ODD] {
            let t = || Arc::<str>::from(name);
            for rung in [Rung::Throttle, Rung::Pause, Rung::Evict] {
                let label = rung.label();
                for degraded in [false, true] {
                    check(
                        3,
                        Event::MitigationEngaged {
                            tenant: t(),
                            rung,
                            degraded,
                        },
                        |o| {
                            o.push_str("event", "mitigation_engaged")
                                .push_str("tenant", name)
                                .push_str("rung", label)
                                .push_bool("degraded", degraded);
                        },
                    );
                }
                check(3, Event::MitigationConfirming { tenant: t(), rung }, |o| {
                    o.push_str("event", "mitigation_confirming")
                        .push_str("tenant", name)
                        .push_str("rung", label);
                });
                check(
                    3,
                    Event::MitigationRecovered {
                        tenant: t(),
                        rung,
                        latency: TWO_53,
                    },
                    |o| {
                        o.push_str("event", "mitigation_recovered")
                            .push_str("tenant", name)
                            .push_str("rung", label)
                            .push_num("latency", TWO_53 as f64);
                    },
                );
                check(3, Event::MitigationRelapsed { tenant: t(), rung }, |o| {
                    o.push_str("event", "mitigation_relapsed")
                        .push_str("tenant", name)
                        .push_str("rung", label);
                });
                check(3, Event::MitigationClimbed { tenant: t(), rung }, |o| {
                    o.push_str("event", "mitigation_climbed")
                        .push_str("tenant", name)
                        .push_str("rung", label);
                });
                for (why, reason) in [
                    (Escalation::Engage, "engage"),
                    (Escalation::Budget, "budget"),
                ] {
                    check(
                        3,
                        Event::MitigationEscalated {
                            tenant: t(),
                            rung,
                            why,
                        },
                        |o| {
                            o.push_str("event", "mitigation_escalated")
                                .push_str("tenant", name)
                                .push_str("rung", label)
                                .push_str("reason", reason);
                        },
                    );
                }
                let why = Escalation::Confirmed { latency: 120 };
                check(
                    3,
                    Event::MitigationEscalated {
                        tenant: t(),
                        rung,
                        why,
                    },
                    |o| {
                        o.push_str("event", "mitigation_escalated")
                            .push_str("tenant", name)
                            .push_str("rung", label)
                            .push_str("reason", "confirmed")
                            .push_num("latency", 120.0);
                    },
                );
            }
            check(
                3,
                Event::MitigationReleased {
                    tenant: t(),
                    why: Release::Closed,
                },
                |o| {
                    o.push_str("event", "mitigation_released")
                        .push_str("tenant", name)
                        .push_str("reason", "closed");
                },
            );
            let why = Release::Verdict { cost: TWO_53 };
            check(3, Event::MitigationReleased { tenant: t(), why }, |o| {
                o.push_str("event", "mitigation_released")
                    .push_str("tenant", name)
                    .push_str("reason", "verdict")
                    .push_num("cost", TWO_53 as f64);
            });
            check(3, Event::MitigationSkipped { tenant: t() }, |o| {
                o.push_str("event", "mitigation_skipped")
                    .push_str("tenant", name)
                    .push_str("reason", "closed");
            });
        }
    }

    #[test]
    fn engine_stats_renders_like_the_object_it_replaces() {
        let stats = EngineStats {
            malformed: 1,
            resynced: 2,
            drops_backpressure: TWO_53,
            drops_terminal: 4,
            recoveries: 5,
            idle_closed: 6,
            evicted: 232_225,
            reopened: 8,
            peak_queued: 9,
            mitigations_engaged: 10,
            mitigations_released: 11,
            mitigations_escalated: 12,
            mitigations_aborted: 13,
            mitigation_skipped: 14,
            recovery_latency_ticks: 15,
            false_quarantine_ticks: TWO_53,
        };
        let mut prof = StageProf::default();
        prof.decode_ns = 21;
        prof.decode_bin_ns = 22;
        prof.dispatch_ns = 23;
        prof.step_ns = 24;
        prof.merge_ns = 25;
        prof.write_ns = 26;
        prof.reclaim_ns = 27;
        for mitigation in [false, true] {
            for prof in [None, Some(prof)] {
                let line = StatsLine {
                    sessions: 251_807,
                    open_sessions: 16_384,
                    stats,
                    mitigation,
                    prof,
                };
                let s = stats;
                check(487_230, Event::EngineStats(Box::new(line)), |o| {
                    o.push_str("event", "engine_stats")
                        .push_num("sessions", 251_807.0)
                        .push_num("open_sessions", 16_384.0)
                        .push_num("malformed", s.malformed as f64)
                        .push_num("resynced", s.resynced as f64)
                        .push_num("drops_backpressure", s.drops_backpressure as f64)
                        .push_num("drops_terminal", s.drops_terminal as f64)
                        .push_num("recoveries", s.recoveries as f64)
                        .push_num("idle_closed", s.idle_closed as f64)
                        .push_num("evicted", s.evicted as f64)
                        .push_num("reopened", s.reopened as f64)
                        .push_num("peak_queued", s.peak_queued as f64);
                    if mitigation {
                        o.push_num("mitigations_engaged", s.mitigations_engaged as f64)
                            .push_num("mitigations_released", s.mitigations_released as f64)
                            .push_num("mitigations_escalated", s.mitigations_escalated as f64)
                            .push_num("mitigations_aborted", s.mitigations_aborted as f64)
                            .push_num("mitigation_skipped", s.mitigation_skipped as f64)
                            .push_num("recovery_latency_ticks", s.recovery_latency_ticks as f64)
                            .push_num("false_quarantine_ticks", s.false_quarantine_ticks as f64);
                    }
                    if let Some(p) = prof {
                        o.push_num("prof_decode_ns", p.decode_ns as f64)
                            .push_num("prof_decode_bin_ns", p.decode_bin_ns as f64)
                            .push_num("prof_dispatch_ns", p.dispatch_ns as f64)
                            .push_num("prof_step_ns", p.step_ns as f64)
                            .push_num("prof_merge_ns", p.merge_ns as f64)
                            .push_num("prof_write_ns", p.write_ns as f64)
                            .push_num("prof_reclaim_ns", p.reclaim_ns as f64);
                    }
                });
            }
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn events_stay_small() {
        // Flush buffers move events by value and sort them; the typed
        // payload must not outgrow a cache line.
        assert!(
            std::mem::size_of::<SessionEvent>() <= 64,
            "{}",
            std::mem::size_of::<SessionEvent>()
        );
    }
}
