//! Per-tenant detection sessions.
//!
//! One [`Session`] monitors one VM through an explicit lifecycle:
//!
//! ```text
//! Profiling ──profile ok──▶ Monitoring ──alarm budget──▶ Quarantined
//!     │                          │
//!     └─profile failed──▶ Closed ◀──────── close ────────────┘
//! ```
//!
//! A session is a sample queue, a [`Monitor`] running the combined
//! [`Sds`] detector, and the session's own accounting. During
//! `Profiling` the samples feed the monitor's Stage-1 profile; once
//! `profile_ticks` samples arrive the monitor arms SDS from it. During
//! `Monitoring` each run of queued samples steps the monitor through its
//! columnar [`Monitor::step_batch`] path, and the verdict-class changes
//! it reports are emitted as events. Their `tick` is the monitor's
//! 1-based monitored-tick count ([`MonitorStep::tick`], where the
//! offline harness's 0-based index is derived too). The KStest baseline
//! has no place here: its protocol throttles the co-resident VMs while
//! it collects a reference, and a stream has no hypervisor behind it to
//! throttle (the offline harness in `memdos_metrics::experiment` runs it
//! against the simulated server instead).
//!
//! Samples are queued in a bounded ring buffer between engine flushes;
//! when the queue is full the [`DropPolicy`] decides which side loses,
//! and every drop is logged so backpressure is visible, never silent.
//! A new session reserves the queue to its bound (`queue_capacity`) up
//! front.
//!
//! A closed session's storage is recycled: `Session::reopen` turns it
//! into a fresh incarnation of any tenant in place, keeping the queue's
//! and the monitor's profiler buffers, so tenant churn does not allocate.

use crate::event::{Event, SessionEvent};
use memdos_core::config::SdsParams;
use memdos_core::detector::{DetectorStep, Observation, ObservationBatch};
use memdos_core::monitor::{Monitor, MonitorStep};
use memdos_core::sds::Sds;
use memdos_core::CoreError;
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Lifecycle state of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Collecting the Stage-1 benign profile.
    Profiling,
    /// Detector armed; verdict transitions are logged.
    Monitoring,
    /// Alarm budget exhausted; samples are discarded.
    Quarantined,
    /// Closed by the tenant or by a failed profile; samples are
    /// discarded.
    Closed,
}

impl SessionState {
    /// Stable lowercase label used in the event log.
    pub fn label(&self) -> &'static str {
        match self {
            SessionState::Profiling => "profiling",
            SessionState::Monitoring => "monitoring",
            SessionState::Quarantined => "quarantined",
            SessionState::Closed => "closed",
        }
    }
}

/// What to discard when a session's sample queue is full.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DropPolicy {
    /// Evict the oldest queued sample to admit the new one (the stream
    /// stays fresh; detector state skips a tick).
    #[default]
    Oldest,
    /// Reject the incoming sample (queued history wins).
    Newest,
}

impl DropPolicy {
    /// Stable lowercase label used in the event log.
    pub fn label(&self) -> &'static str {
        match self {
            DropPolicy::Oldest => "oldest",
            DropPolicy::Newest => "newest",
        }
    }

    /// Parses the `MEMDOS_ENGINE_DROP` spelling.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic for anything but `oldest`/`newest`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim() {
            "oldest" => Ok(DropPolicy::Oldest),
            "newest" => Ok(DropPolicy::Newest),
            other => Err(format!(
                "unknown drop policy {other:?} (expected \"oldest\" or \"newest\")"
            )),
        }
    }
}

/// Why a session transitioned to `Closed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The tenant sent a `ctl:close` record.
    Ctl,
    /// The engine closed the session after an idle gap (no records for
    /// more than `idle_timeout` arrival indices).
    Idle,
    /// The engine evicted the least-recently-seen session to stay under
    /// its memory ceiling (`Config::max_sessions`). The tenant may
    /// reopen as a new generation the next time it speaks.
    Evicted,
    /// The mitigation loop released a false quarantine: the control was
    /// lifted and the session closes so the tenant deterministically
    /// re-profiles as a new generation on its next sample.
    Released,
    /// The mitigation ladder escalated to eviction: the confirmed
    /// attacker's session is closed and its control sticks.
    Escalated,
}

impl CloseReason {
    /// Stable lowercase label used in the event log.
    pub fn label(&self) -> &'static str {
        match self {
            CloseReason::Ctl => "ctl",
            CloseReason::Idle => "idle",
            CloseReason::Evicted => "evicted",
            CloseReason::Released => "released",
            CloseReason::Escalated => "escalated",
        }
    }
}

/// Configuration shared by every session an engine opens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Samples consumed by Stage-1 profiling before monitoring starts.
    pub profile_ticks: u64,
    /// SDS parameters for the profiler and the detector.
    pub sds: SdsParams,
    /// Detector alarm activations before the session is
    /// quarantined; `0` disables quarantine.
    pub quarantine_after: u64,
    /// Bounded sample-queue capacity between engine flushes.
    pub queue_capacity: usize,
    /// Which sample loses when the queue is full.
    pub drop_policy: DropPolicy,
    /// Arrival-index gap after which the engine closes an inactive
    /// session (`Closed` with reason `idle`); `0` disables the timeout.
    /// Measured in global `seq` ticks, not wall-clock time, so the
    /// transition replays deterministically.
    pub idle_timeout: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            profile_ticks: 6_000,
            sds: SdsParams::default(),
            quarantine_after: 0,
            queue_capacity: 1_024,
            drop_policy: DropPolicy::Oldest,
            idle_timeout: 0,
        }
    }
}

impl SessionConfig {
    /// Validates the configuration — the shared `validate()` contract.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] naming the offending
    /// field.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.sds.validate()?;
        if self.profile_ticks == 0 {
            return Err(CoreError::InvalidParameter {
                name: "profile_ticks",
                reason: "must be positive",
            });
        }
        if self.queue_capacity == 0 {
            return Err(CoreError::InvalidParameter {
                name: "queue_capacity",
                reason: "must be positive",
            });
        }
        Ok(())
    }
}

/// One queued unit of work: a sample or a close request, tagged with the
/// engine-assigned global arrival index.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Item {
    /// A PCM sample.
    Obs(u64, Observation),
    /// A close request (from the tenant or the idle timeout).
    Close(u64, CloseReason),
}

impl Item {
    fn seq(&self) -> u64 {
        match self {
            Item::Obs(seq, _) | Item::Close(seq, _) => *seq,
        }
    }
}

/// What happened to an offered sample, so the engine can log drops
/// (coalesced) and recoveries without peeking into the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Offered {
    /// Queued normally.
    Admitted,
    /// Queued normally after a drop burst — the queue recovered; `burst`
    /// is the number of samples lost in the burst that just ended.
    Recovered {
        /// Samples lost in the burst that just ended.
        burst: u64,
    },
    /// Lost. `terminal` distinguishes a quarantined/closed session from
    /// backpressure; `burst` counts consecutive losses so far and
    /// `total` the session's lifetime losses.
    Dropped {
        /// Dropped because the session is quarantined or closed.
        terminal: bool,
        /// Consecutive losses in the current burst.
        burst: u64,
        /// Lifetime losses.
        total: u64,
    },
}

/// A read-only introspection snapshot of one tenant session — the
/// stable public surface for fleet observers (the `engine_fleet` bench,
/// the `demo` summary, external monitoring), so nothing outside this
/// module reaches into `Session` internals. Obtained from
/// `Engine::snapshots()` / `Engine::snapshot()`; `live: false` marks a
/// retired incarnation whose memory was reclaimed and whose counters
/// are served from the engine's retained final accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionSnapshot<'a> {
    /// The tenant this session monitors.
    pub tenant: &'a str,
    /// Incarnation of the tenant (0 = first session, +1 per reopen).
    pub generation: u32,
    /// Current lifecycle state (always `Closed` when not live).
    pub state: SessionState,
    /// `true` while the session is resident in the engine; `false` once
    /// its slot was reclaimed (closed and drained).
    pub live: bool,
    /// Items queued for the next engine flush.
    pub queued: usize,
    /// Estimated resident heap bytes (see [`Session::resident_bytes`];
    /// 0 when not live).
    pub resident_bytes: usize,
    /// Samples accepted over the incarnation's lifetime.
    pub ingested: u64,
    /// Samples lost to backpressure or a terminal state.
    pub dropped: u64,
    /// Detector alarm activations.
    pub alarms: u64,
    /// Monitored access level over the profile baseline (see
    /// [`Session::recovery_ratio`]); `None` outside `Monitoring`.
    pub recovery_ratio: Option<f64>,
    /// Mitigation case attached to this tenant, if any (filled in by
    /// the engine — a session does not know it is being mitigated).
    pub mitigation: Option<crate::mitigation::MitigationStatus>,
}

/// Smoothing factor of the per-session recovery EWMA: heavy enough to
/// damp sample jitter, light enough that a mitigated attack shows up
/// within a handful of victim samples.
const RECOVERY_ALPHA: f64 = 0.2;

/// Reusable columnar buffers for the monitoring batch path: a run of
/// consecutive queued samples is transposed into structure-of-arrays
/// columns so the detector steps the whole run through its
/// branch-light `step_batch` loop, and the step column is then
/// replayed tick by tick to emit events. The engine owns one and lends
/// it to every session it drains, so steady-state batching allocates
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    seqs: Vec<u64>,
    access: Vec<f64>,
    miss: Vec<f64>,
    steps: Vec<DetectorStep>,
}

/// A per-tenant detection session.
pub struct Session {
    /// The engine's interned tenant name, shared with its tenant slot
    /// and every event this session logs.
    tenant: Arc<str>,
    config: SessionConfig,
    state: SessionState,
    /// Profile, detector and their counts. The detector is boxed so a
    /// profiling session (the common case in a churning fleet) does not
    /// carry its inline state in the slab slot beside the profiler's.
    monitor: Monitor<Box<Sds>>,
    queue: VecDeque<Item>,
    ingested: u64,
    dropped: u64,
    /// Consecutive drops in the current burst (0 = queue healthy).
    drop_burst: u64,
    /// Drop bursts that ended with the queue admitting again.
    recoveries: u64,
    /// Incarnation of this tenant: 0 for the first session, +1 for every
    /// reopen after a close (tenant churn).
    generation: u32,
    opened_logged: bool,
    /// Profile-time mean `AccessNum` (`Profile.access.mu`), captured
    /// when the detector arms; 0 until then. The denominator of
    /// [`Session::recovery_ratio`].
    baseline_access: f64,
    /// EWMA of the monitored `AccessNum`, seeded at the baseline — the
    /// smoothed live level the mitigation loop compares against the
    /// baseline to decide whether this (victim) tenant is degraded.
    ewma_access: f64,
    /// Arrival index of the sample that quarantined this session, kept
    /// until the engine's mitigation step consumes it.
    quarantine_notice: Option<u64>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("tenant", &self.tenant)
            .field("state", &self.state)
            .field("ingested", &self.ingested)
            .field("dropped", &self.dropped)
            .field("alarms", &self.alarms())
            .finish()
    }
}

impl Session {
    /// Opens a session in the `Profiling` state.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for invalid `config`.
    pub fn open(tenant: impl Into<Arc<str>>, config: SessionConfig) -> Result<Self, CoreError> {
        Session::open_generation(tenant, config, 0)
    }

    /// Opens a later incarnation of a churned tenant: same contract as
    /// [`Session::open`], but the `opened` event carries the generation
    /// so reopen-after-close is visible in the log.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for invalid `config`.
    pub fn open_generation(
        tenant: impl Into<Arc<str>>,
        config: SessionConfig,
        generation: u32,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        let monitor = Monitor::new(&config.sds, config.profile_ticks)?;
        let queue = VecDeque::with_capacity(config.queue_capacity);
        Ok(Session::fresh(tenant.into(), config, monitor, queue, generation))
    }

    /// Turns this (closed, drained) session into incarnation
    /// `generation` of `tenant`, in place: the result is
    /// indistinguishable from [`Session::open_generation`] with this
    /// session's config, but the sample queue and the profiler keep
    /// their buffers. Only a session whose profiler is gone (it armed a
    /// detector, or was shrunk to a husk) builds a new profiler
    /// ([`Monitor::reset`]); a husk's queue, released by
    /// `shrink_terminal`, regrows as samples arrive.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if a new profiler cannot
    /// be built (unreachable for a config that opened a session).
    // hot-path
    pub(crate) fn reopen(&mut self, tenant: Arc<str>, generation: u32) -> Result<(), CoreError> {
        let mut monitor = std::mem::take(&mut self.monitor);
        monitor.reset(&self.config.sds)?;
        let queue = std::mem::take(&mut self.queue);
        *self = Session::fresh(tenant, self.config, monitor, queue, generation);
        Ok(())
    }

    /// A `Profiling` session around the given storage, with every
    /// counter at zero — the one place a session's initial state is
    /// spelled out, for opening and reopening alike.
    fn fresh(
        tenant: Arc<str>,
        config: SessionConfig,
        monitor: Monitor<Box<Sds>>,
        mut queue: VecDeque<Item>,
        generation: u32,
    ) -> Session {
        queue.clear();
        Session {
            tenant,
            config,
            state: SessionState::Profiling,
            monitor,
            queue,
            ingested: 0,
            dropped: 0,
            drop_burst: 0,
            recoveries: 0,
            generation,
            opened_logged: false,
            baseline_access: 0.0,
            ewma_access: 0.0,
            quarantine_notice: None,
        }
    }

    /// The tenant id this session monitors.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The shared handle of the tenant name, for callers that keep it
    /// past this session.
    pub(crate) fn shared_tenant(&self) -> &Arc<str> {
        &self.tenant
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// Samples accepted so far (queued or processed).
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Samples lost to backpressure or to a terminal state.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drop bursts that ended with the queue admitting samples again.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Detector alarm activations so far.
    pub fn alarms(&self) -> u64 {
        self.monitor.alarms()
    }

    /// Incarnation of this tenant (0 = first session, +1 per reopen).
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Queued items awaiting the next engine flush.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The monitored access level relative to the profile baseline:
    /// `EWMA(AccessNum) / Profile.access.mu`. `None` until the detector
    /// is armed (no baseline yet) or once the session leaves
    /// `Monitoring` — only actively monitored sessions count as victims
    /// for the mitigation loop's recovery confirmation.
    pub fn recovery_ratio(&self) -> Option<f64> {
        if self.state != SessionState::Monitoring || !(self.baseline_access > 0.0) {
            return None;
        }
        Some(self.ewma_access / self.baseline_access)
    }

    /// Consumes the pending quarantine notice: the arrival index of the
    /// sample whose alarm quarantined this session. Set exactly once per
    /// incarnation; the engine's mitigation step drains it at the flush
    /// boundary (even if an ingest-side close has since landed — that is
    /// how a quarantine-while-closing is detected and skipped).
    pub(crate) fn take_quarantine_notice(&mut self) -> Option<u64> {
        self.quarantine_notice.take()
    }

    /// Read-only introspection snapshot of this (live) session.
    pub fn snapshot(&self) -> SessionSnapshot<'_> {
        SessionSnapshot {
            tenant: &self.tenant,
            generation: self.generation,
            state: self.state,
            live: true,
            queued: self.queue.len(),
            resident_bytes: self.resident_bytes(),
            ingested: self.ingested,
            dropped: self.dropped,
            alarms: self.alarms(),
            recovery_ratio: self.recovery_ratio(),
            mitigation: None,
        }
    }

    /// Estimated heap bytes this session keeps resident: the sample
    /// queue, the profiler's smoothing buffers and the boxed detector
    /// with its working set (via [`Monitor::resident_bytes_hint`]).
    /// Nothing stored inline or shared is counted — the `Session`
    /// struct, profiler included, lives in the engine's slab slot (or
    /// spare list), and the tenant name in its tenant slot, both of
    /// which the engine accounts for once. This is a deterministic
    /// capacity-based accounting estimate, not an allocator measurement
    /// — it exists so a ceiling/eviction decision and the fleet bench
    /// read the same number on every run.
    pub fn resident_bytes(&self) -> usize {
        self.queue.capacity() * std::mem::size_of::<Item>() + self.monitor.resident_bytes_hint()
    }

    /// Releases the working set of a terminal session that must stay
    /// resident (quarantined, or closed by its own drain with no ingest-side
    /// close): detector, profiler and queue capacity are dropped, the
    /// identity and counters remain so later samples still drop against
    /// the right policy and the final accounting stays intact. Terminal
    /// states never process another observation, so nothing behavioural
    /// is lost. No-op for live sessions or non-empty queues.
    pub(crate) fn shrink_terminal(&mut self) {
        let terminal =
            matches!(self.state, SessionState::Quarantined | SessionState::Closed);
        if !terminal || !self.queue.is_empty() {
            return;
        }
        self.monitor.release();
        self.queue.shrink_to_fit();
    }

    /// Enqueues one sample under the backpressure policy, reporting what
    /// happened so the engine can log drops and recoveries.
    pub(crate) fn offer(&mut self, seq: u64, obs: Observation) -> Offered {
        if matches!(self.state, SessionState::Quarantined | SessionState::Closed) {
            self.dropped += 1;
            self.drop_burst += 1;
            return Offered::Dropped {
                terminal: true,
                burst: self.drop_burst,
                total: self.dropped,
            };
        }
        if self.queue.len() >= self.config.queue_capacity {
            self.dropped += 1;
            self.drop_burst += 1;
            match self.config.drop_policy {
                DropPolicy::Oldest => {
                    self.queue.pop_front();
                    self.ingested += 1;
                    self.queue.push_back(Item::Obs(seq, obs));
                }
                DropPolicy::Newest => {}
            }
            return Offered::Dropped {
                terminal: false,
                burst: self.drop_burst,
                total: self.dropped,
            };
        }
        self.ingested += 1;
        self.queue.push_back(Item::Obs(seq, obs));
        if self.drop_burst > 0 {
            let burst = self.drop_burst;
            self.drop_burst = 0;
            self.recoveries += 1;
            return Offered::Recovered { burst };
        }
        Offered::Admitted
    }

    /// Enqueues a close request (always admitted — control traffic is
    /// not subject to the sample drop policy).
    pub(crate) fn offer_close(&mut self, seq: u64, reason: CloseReason) {
        self.queue.push_back(Item::Close(seq, reason));
    }

    /// Drains the queue through the lifecycle, appending the session's
    /// events for this flush to `events` — the engine passes recycled
    /// buffers so the steady-state flush allocates nothing here.
    // hot-path
    pub(crate) fn process_queued_into(
        &mut self,
        events: &mut Vec<SessionEvent>,
        scratch: &mut BatchScratch,
    ) {
        while let Some(item) = self.queue.pop_front() {
            let seq = item.seq();
            let mut sub = 0u32;
            if !self.opened_logged {
                self.opened_logged = true;
                let payload =
                    Event::Opened { tenant: self.tenant.clone(), generation: self.generation };
                events.push(SessionEvent { seq, sub, payload });
                sub += 1;
            }
            match item {
                Item::Close(_, reason) => {
                    // Idempotent: duplicated close records (redelivery,
                    // chaos) log a single transition.
                    if self.state == SessionState::Closed {
                        continue;
                    }
                    self.state = SessionState::Closed;
                    let payload = Event::Closed {
                        tenant: self.tenant.clone(),
                        reason,
                        ingested: self.ingested,
                        dropped: self.dropped,
                        alarms: self.alarms(),
                    };
                    events.push(SessionEvent { seq, sub, payload });
                }
                Item::Obs(_, obs) => match self.state {
                    SessionState::Profiling => {
                        if let Some(payload) = self.step_profiling(obs) {
                            events.push(SessionEvent { seq, sub, payload });
                        }
                    }
                    // The steady state: this sample and the run of
                    // samples queued behind it step as one column. A
                    // monitoring session has always logged `opened`, so
                    // the run's events start at `sub` 0.
                    SessionState::Monitoring => {
                        self.step_monitoring_run(seq, obs, events, scratch)
                    }
                    SessionState::Quarantined | SessionState::Closed => {
                        // Items queued before the state flipped; counted
                        // when offered, nothing to process.
                        self.dropped += 1;
                    }
                },
            }
        }
    }

    /// Feeds one profiling sample; once `profile_ticks` have arrived
    /// the monitor arms the detector, and this returns the
    /// `profile_ready` (or `profile_failed`) event payload.
    fn step_profiling(&mut self, obs: Observation) -> Option<Event> {
        let finished = self.monitor.profile(obs)?;
        let tenant = self.tenant.clone();
        match finished {
            Ok(profile) => {
                self.state = SessionState::Monitoring;
                self.baseline_access = profile.access.mu;
                self.ewma_access = profile.access.mu;
                Some(Event::ProfileReady {
                    tenant,
                    periodic: profile.is_periodic(),
                    period_ma: profile.periodicity.as_ref().map(|p| p.period_ma),
                })
            }
            Err(e) => {
                self.state = SessionState::Closed;
                // lint:allow(hot-propagate) -- rendering the failure reason happens once, on the transition that closes the session
                Some(Event::ProfileFailed { tenant, reason: e.to_string() })
            }
        }
    }

    /// Gathers the run of consecutive queued samples starting at
    /// `(seq0, obs0)` into the columnar `scratch`, steps the
    /// monitor over it and walks the steps tick by tick. Only called
    /// with `state == Monitoring` and the `opened` event already
    /// emitted. Verdict-class transitions and the alarm budget are
    /// judged per sample, so a quarantine mid-run ends the walk at the
    /// sample that tripped it and the samples behind it count as
    /// dropped, exactly as if they had been queued behind a terminal
    /// session. Stepping the detector past that sample is unobservable:
    /// the session is terminal afterwards and its detector is released.
    // hot-path
    fn step_monitoring_run(
        &mut self,
        seq0: u64,
        obs0: Observation,
        events: &mut Vec<SessionEvent>,
        scratch: &mut BatchScratch,
    ) {
        let BatchScratch { seqs, access, miss, steps } = scratch;
        seqs.clear();
        access.clear();
        miss.clear();
        seqs.push(seq0);
        access.push(obs0.access_num);
        miss.push(obs0.miss_num);
        while let Some(&Item::Obs(seq, obs)) = self.queue.front() {
            seqs.push(seq);
            access.push(obs.access_num);
            miss.push(obs.miss_num);
            self.queue.pop_front();
        }
        let mut columns = seqs.iter().zip(access.iter());
        let batch = ObservationBatch::new(access, miss);
        let consumed = self.monitor.step_batch(batch, steps, |step: MonitorStep| {
            let Some((&seq, &access_num)) = columns.next() else {
                return ControlFlow::Break(());
            };
            let mut sub = 0u32;
            self.ewma_access += RECOVERY_ALPHA * (access_num - self.ewma_access);
            if let Some(from) = step.changed_from {
                let (tenant, to, tick) = (self.tenant.clone(), step.verdict, step.tick);
                let payload = Event::Verdict { tenant, from, to, tick };
                events.push(SessionEvent { seq, sub, payload });
                sub += 1;
            }
            let budget = self.config.quarantine_after;
            if step.became_active && budget > 0 && step.alarms >= budget {
                self.state = SessionState::Quarantined;
                let payload =
                    Event::Quarantined { tenant: self.tenant.clone(), alarms: step.alarms };
                events.push(SessionEvent { seq, sub, payload });
                self.quarantine_notice = Some(seq);
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        });
        self.dropped += (seqs.len() - consumed) as u64;
    }

    /// One `dropped` event payload (the engine logs it at the arrival
    /// index of the sample that overflowed the queue, coalescing bursts).
    pub(crate) fn drop_event(&self, terminal: bool, burst: u64) -> Event {
        Event::Dropped {
            tenant: self.tenant.clone(),
            policy: self.config.drop_policy,
            terminal,
            burst,
            total: self.dropped,
        }
    }

    /// One `recovered` event payload: the queue admitted a sample again
    /// after a drop burst of `burst` samples.
    pub(crate) fn recovered_event(&self, burst: u64) -> Event {
        Event::Recovered { tenant: self.tenant.clone(), burst }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::render_event;
    use memdos_metrics::jsonl::{JsonObject, LineBuf};

    impl Session {
        /// Drains the queue through the lifecycle, collecting the
        /// session's events for this flush.
        fn process_queued(&mut self) -> Vec<SessionEvent> {
            let mut events = Vec::new();
            self.process_queued_into(&mut events, &mut BatchScratch::default());
            events
        }
    }

    fn fast_config() -> SessionConfig {
        SessionConfig {
            profile_ticks: 2_000,
            queue_capacity: 8_192,
            ..SessionConfig::default()
        }
    }

    fn flat_obs(i: u64) -> Observation {
        Observation {
            access_num: 1000.0 + (i % 10) as f64,
            miss_num: 100.0 + (i % 5) as f64,
        }
    }

    fn feed(s: &mut Session, seq0: u64, n: u64, f: impl Fn(u64) -> Observation) -> Vec<SessionEvent> {
        for i in 0..n {
            s.offer(seq0 + i, f(i));
        }
        s.process_queued()
    }

    /// The events as the log renders them, parsed back into objects.
    fn lines(events: &[SessionEvent]) -> Vec<JsonObject> {
        let mut buf = LineBuf::new();
        events
            .iter()
            .map(|e| JsonObject::parse(&render_event(&mut buf, e)).expect("rendered line parses"))
            .collect()
    }

    #[test]
    fn lifecycle_profiling_to_monitoring() {
        let mut s = Session::open("vm-0", fast_config()).unwrap();
        assert_eq!(s.state(), SessionState::Profiling);
        let events = lines(&feed(&mut s, 0, 2_000, flat_obs));
        assert_eq!(s.state(), SessionState::Monitoring);
        let kinds: Vec<&str> = events.iter().filter_map(|e| e.get_str("event")).collect();
        assert_eq!(kinds, ["opened", "profile_ready"]);
        assert_eq!(events[1].get("periodic").is_some(), true);
    }

    #[test]
    fn attack_produces_verdict_transitions_and_alarm() {
        let cfg = fast_config();
        let mut s = Session::open("vm-0", cfg).unwrap();
        feed(&mut s, 0, 2_000, flat_obs);
        // Benign monitoring: no transitions expected beyond brief
        // suspicion jitter; then a bus-lock-style collapse.
        feed(&mut s, 2_000, 500, flat_obs);
        let events = feed(&mut s, 2_500, 2_500, |_| Observation {
            access_num: 100.0,
            miss_num: 100.0,
        });
        let alarms: Vec<JsonObject> = lines(&events)
            .into_iter()
            .filter(|e| e.get_str("event") == Some("verdict") && e.get_str("to") == Some("alarm"))
            .collect();
        assert!(!alarms.is_empty(), "collapse must raise an SDS alarm");
        assert!(s.alarms() >= 1);
        // Events are (seq, sub)-ordered as produced.
        let mut sorted = events.clone();
        sorted.sort_by_key(|e| (e.seq, e.sub));
        assert_eq!(
            events.iter().map(|e| (e.seq, e.sub)).collect::<Vec<_>>(),
            sorted.iter().map(|e| (e.seq, e.sub)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn quarantine_after_alarm_budget() {
        let cfg = SessionConfig { quarantine_after: 1, ..fast_config() };
        let mut s = Session::open("vm-0", cfg).unwrap();
        feed(&mut s, 0, 2_000, flat_obs);
        let events = feed(&mut s, 2_000, 3_000, |_| Observation {
            access_num: 100.0,
            miss_num: 100.0,
        });
        assert_eq!(s.state(), SessionState::Quarantined);
        assert!(lines(&events).iter().any(|e| e.get_str("event") == Some("quarantined")));
        // Further samples are discarded, not processed.
        let before = s.dropped();
        s.offer(9_999, flat_obs(0));
        assert_eq!(s.dropped(), before + 1);
    }

    #[test]
    fn close_emits_final_accounting() {
        let mut s = Session::open("vm-0", fast_config()).unwrap();
        feed(&mut s, 0, 100, flat_obs);
        s.offer_close(100, CloseReason::Ctl);
        let events = lines(&s.process_queued());
        let closed = events
            .iter()
            .find(|e| e.get_str("event") == Some("closed"))
            .expect("close event");
        assert_eq!(closed.get_f64("ingested"), Some(100.0));
        assert_eq!(s.state(), SessionState::Closed);
    }

    #[test]
    fn drop_policy_oldest_keeps_stream_fresh() {
        let cfg = SessionConfig { queue_capacity: 4, ..fast_config() };
        let mut s = Session::open("vm-0", cfg).unwrap();
        for i in 0..6u64 {
            s.offer(i, flat_obs(i));
        }
        assert_eq!(s.queued(), 4);
        assert_eq!(s.dropped(), 2);
        // The queue holds the 4 newest items (seqs 2..=5).
        let first_seq = match s.queue.front() {
            Some(Item::Obs(seq, _)) => *seq,
            _ => u64::MAX,
        };
        assert_eq!(first_seq, 2);
    }

    #[test]
    fn drop_policy_newest_rejects_incoming() {
        let cfg = SessionConfig {
            queue_capacity: 4,
            drop_policy: DropPolicy::Newest,
            ..fast_config()
        };
        let mut s = Session::open("vm-0", cfg).unwrap();
        for i in 0..6u64 {
            s.offer(i, flat_obs(i));
        }
        assert_eq!(s.queued(), 4);
        assert_eq!(s.dropped(), 2);
        let first_seq = match s.queue.front() {
            Some(Item::Obs(seq, _)) => *seq,
            _ => u64::MAX,
        };
        assert_eq!(first_seq, 0);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn session_struct_stays_within_its_slab_budget() {
        // Sessions sit inline in the engine's slab, so every byte here
        // is paid once per slot across a whole fleet.
        assert!(std::mem::size_of::<Session>() <= 776, "{}", std::mem::size_of::<Session>());
    }

    /// A benign profile-and-monitor run, then a collapse: profile_ready,
    /// verdict transitions, alarms.
    fn story(s: &mut Session) -> Vec<JsonObject> {
        let mut events = feed(s, 10_000, 2_500, flat_obs);
        events.extend(feed(s, 12_500, 1_500, |_| Observation { access_num: 100.0, miss_num: 100.0 }));
        s.offer_close(14_000, CloseReason::Ctl);
        events.extend(s.process_queued());
        lines(&events)
    }

    #[test]
    fn reopened_sessions_log_what_fresh_sessions_log() {
        let cfg = SessionConfig { quarantine_after: 1, ..fast_config() };
        let fresh = story(&mut Session::open_generation("vm-b", cfg, 4).unwrap());
        assert!(fresh.iter().any(|e| e.get_str("event") == Some("quarantined")));

        // Source 1: a session that armed its detector and monitored
        // (profiler released, queue grown) before it closed.
        let mut monitored = Session::open("vm-a", cfg).unwrap();
        feed(&mut monitored, 0, 3_000, flat_obs);
        assert_eq!(monitored.state(), SessionState::Monitoring);
        monitored.offer_close(3_000, CloseReason::Evicted);
        monitored.process_queued();

        // Source 2: a quarantined husk whose profiler and detector
        // `shrink_terminal` dropped.
        let mut husk = Session::open("vm-a", cfg).unwrap();
        feed(&mut husk, 0, 2_000, flat_obs);
        feed(&mut husk, 2_000, 2_000, |_| Observation { access_num: 100.0, miss_num: 100.0 });
        assert_eq!(husk.state(), SessionState::Quarantined);
        husk.shrink_terminal();
        assert!(husk.monitor.resident_bytes_hint() == 0 && husk.alarms() == 1);

        // Source 3: a session still profiling, whose profiler is reset.
        let mut profiling = Session::open("vm-a", cfg).unwrap();
        feed(&mut profiling, 0, 700, flat_obs);

        for (label, mut s) in [("monitored", monitored), ("husk", husk), ("profiling", profiling)] {
            s.reopen(Arc::from("vm-b"), 4).unwrap();
            assert_eq!((s.state(), s.generation(), s.ingested(), s.queued()), (SessionState::Profiling, 4, 0, 0));
            assert_eq!(story(&mut s), fresh, "recycled from a {label} session");
        }
    }

    #[test]
    fn rejects_invalid_config() {
        let cfg = SessionConfig { profile_ticks: 0, ..SessionConfig::default() };
        assert!(Session::open("vm-0", cfg).is_err());
        let cfg = SessionConfig { queue_capacity: 0, ..SessionConfig::default() };
        assert!(Session::open("vm-0", cfg).is_err());
    }

    #[test]
    fn drop_policy_parse() {
        assert_eq!(DropPolicy::parse("oldest"), Ok(DropPolicy::Oldest));
        assert_eq!(DropPolicy::parse(" newest "), Ok(DropPolicy::Newest));
        assert!(DropPolicy::parse("latest").is_err());
    }

    #[test]
    fn offer_reports_bursts_and_recovery() {
        let cfg = SessionConfig { queue_capacity: 2, ..fast_config() };
        let mut s = Session::open("vm-0", cfg).unwrap();
        assert_eq!(s.offer(0, flat_obs(0)), Offered::Admitted);
        assert_eq!(s.offer(1, flat_obs(1)), Offered::Admitted);
        assert_eq!(
            s.offer(2, flat_obs(2)),
            Offered::Dropped { terminal: false, burst: 1, total: 1 }
        );
        assert_eq!(
            s.offer(3, flat_obs(3)),
            Offered::Dropped { terminal: false, burst: 2, total: 2 }
        );
        // Drain the queue; the next offer is a recovery carrying the
        // burst size.
        s.process_queued();
        assert_eq!(s.offer(4, flat_obs(4)), Offered::Recovered { burst: 2 });
        assert_eq!(s.recoveries(), 1);
        assert_eq!(s.dropped(), 2);
    }

    #[test]
    fn duplicate_close_is_idempotent() {
        let mut s = Session::open("vm-0", fast_config()).unwrap();
        feed(&mut s, 0, 10, flat_obs);
        s.offer_close(10, CloseReason::Ctl);
        s.offer_close(11, CloseReason::Ctl);
        let events = lines(&s.process_queued());
        let closes = events.iter().filter(|e| e.get_str("event") == Some("closed")).count();
        assert_eq!(closes, 1);
        assert_eq!(s.state(), SessionState::Closed);
    }

    #[test]
    fn close_reason_and_generation_are_logged() {
        let mut s = Session::open_generation("vm-0", fast_config(), 2).unwrap();
        assert_eq!(s.generation(), 2);
        s.offer(0, flat_obs(0));
        s.offer_close(1, CloseReason::Idle);
        let events = lines(&s.process_queued());
        let opened = events
            .iter()
            .find(|e| e.get_str("event") == Some("opened"))
            .expect("opened event");
        assert_eq!(opened.get_f64("gen"), Some(2.0));
        let closed = events
            .iter()
            .find(|e| e.get_str("event") == Some("closed"))
            .expect("closed event");
        assert_eq!(closed.get_str("reason"), Some("idle"));
    }
}
