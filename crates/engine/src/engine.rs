//! The multi-tenant engine: slab-backed session registry, batched
//! dispatch, and the deterministic event log.
//!
//! The engine is single-threaded: each input line receives a global
//! arrival index (`seq`) and is routed to its tenant's [`Session`]
//! queue. Every `batch` lines the engine **flushes**: the sessions that
//! queued work (tracked in a duplicate-free dirty list — a fleet host
//! holds tens of thousands of sessions and must never scan them all per
//! flush) drain their queues where they sit in their slab slots, in
//! first-queue order, and the produced events go to the log in
//! `(seq, sub)` order. One settle pass then walks the dirty list over
//! the slab slots (quarantine notices, retirement, husk shrink, the
//! terminal FIFO).
//!
//! ## Session storage at fleet scale
//!
//! Sessions live in an owner-checked slab (`engine::slab`) addressed by
//! dense `u32` slots; the tenant table maps the interned [`TenantId`] to
//! the slab slot, so the hot routing path performs one probe of the
//! hashed intern index and two vector index hops — no per-session
//! boxing, no name search. The intern index is an open-addressing table
//! of `u32` ids (FNV-1a 64 over the name, fixed and seedless, linear
//! probing, load at most ½) whose probes compare against the tenant
//! slot's name, so the name exists once. Tenant names come from the
//! host-side collector, not from guests, so the hash needs no flood
//! resistance.
//! A tenant name is allocated once, on first contact, as an `Arc<str>`
//! shared by the tenant slot, every incarnation's session and every
//! event that names the tenant.
//! Closed incarnations are reclaimed at the flush that drains their
//! final events (their slot returns to a LIFO free list; final counters
//! are retained for [`Engine::snapshots`]) and their storage goes to a
//! bounded spare list: the next open resets a spare in place
//! (`Session::reopen`) instead of allocating, so steady-state churn
//! reuses memory instead of allocating and freeing it per incarnation.
//! A recycled session keeps its sample queue, which a new session
//! reserves to its bound once.
//! Events are typed (`event::Event`) and rendered straight into the
//! recycled line writer, so logging them allocates only the log line.
//!
//! `Config::max_sessions` sets an explicit ceiling on concurrently open
//! sessions. At the ceiling, opening a new session **evicts** the
//! least-recently-seen open session first: the victim is closed with
//! reason `evicted` (an ordinary close — the verdict history already in
//! the log and the final accounting are preserved) and its memory is
//! reclaimed at the next flush; if the evicted tenant speaks again it
//! reopens as a new generation, reusing the close/reopen machinery.
//! Recency is tracked in a lazy min-heap keyed by `(last_seen, tenant)`:
//! entries are refreshed on pop rather than on every sample, so the hot
//! path pays nothing and eviction costs `O(log n)` amortised. The same
//! heap drives the idle scan, which therefore no longer walks every
//! tenant per flush; with neither the ceiling nor the idle timeout on,
//! the heap is not kept at all. Quarantined sessions are exempt from
//! the idle timeout (their verdict must stay visible) but remain
//! evictable under ceiling pressure, and terminal sessions that stay
//! resident are shrunk to a husk (detectors and buffers dropped,
//! identity and counters kept).
//!
//! ## Ingest path
//!
//! A JSONL stream is framed by [`jsonl::LineFramer`], so line
//! splitting, the line cap and UTF-8 recovery never depend on how the
//! reader chunks its input.
//! Each line decodes through the one record parser,
//! [`parse_record_borrowed`](jsonl::parse_record_borrowed): tenant
//! names stay `&str` slices of the input line (escaped ones decode into
//! a reused scratch buffer) and route through the intern index
//! ([`TenantId`]) without touching the heap. Lines it rejects go
//! through [`jsonl::resync_line`] recovery.
//!
//! ## Determinism guarantee
//!
//! Replaying the same input produces a **byte-identical** event log. The
//! engine runs on one thread, so this holds by construction rather than
//! by a merge kept equal to a reference path:
//!
//! * `seq` is assigned at ingest in arrival order;
//! * a session's events depend only on the sample sequence it received
//!   (queues drain fully at each flush, so flush boundaries do not change
//!   what any session observes, only when it observes it);
//! * backpressure drops, idle closes and evictions are decided at
//!   ingest/flush boundaries;
//! * `(seq, sub)` keys are unique across all events, so sorting a
//!   flush's events by them has exactly one result, with an ingest-side
//!   event after the session events of its `seq`.
//!
//! The log is also identical across **batch sizes** as long as no
//! session queue overflows (i.e. `batch <= queue_capacity`, or the input
//! spreads across tenants): flushing is the only thing that drains
//! queues, so a larger batch holds samples longer and can trip the drop
//! policy earlier — backpressure is timing, and timing is what `batch`
//! configures. `tests/engine_replay_determinism.rs` (tier-1) pins the
//! rerun guarantee on the demo stream and
//! `tests/engine_fleet_determinism.rs` pins it, with a digest, across
//! evictions at fleet scale.

pub use crate::config::Config;
use crate::event::{render_event, Escalation, Event, Release, SessionEvent, StatsLine};
use crate::mitigation::{CaseStep, Coordinator, MitigationAction};
use crate::protocol::Record;
use crate::session::{
    BatchScratch, CloseReason, Offered, Session, SessionSnapshot, SessionState,
};
use crate::slab::Slab;
use memdos_core::detector::Observation;
use memdos_core::CoreError;
use memdos_metrics::binary::{self, BinDecoder, BinFrame};
use memdos_metrics::jsonl::{self, LineBuf, LineFramer, Piece, RawKind, Segment};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::BufRead;
use std::sync::Arc;

/// Sub-index that sorts an ingest-side event (malformed line, dropped
/// sample) after any session-side events of the same arrival index.
const SUB_INGEST: u32 = u32::MAX;

/// Engine-level recovery and degradation counters, surfaced in the
/// `engine_stats` log line written by [`Engine::finish`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Input spans that failed to decode into a record.
    pub malformed: u64,
    /// Records recovered by resynchronisation from dirty lines.
    pub resynced: u64,
    /// Samples lost to queue backpressure.
    pub drops_backpressure: u64,
    /// Samples lost to a quarantined or closed session.
    pub drops_terminal: u64,
    /// Drop bursts that ended with the queue admitting samples again.
    pub recoveries: u64,
    /// Sessions closed by the idle timeout.
    pub idle_closed: u64,
    /// Sessions evicted by the memory ceiling (`Config::max_sessions`).
    pub evicted: u64,
    /// Sessions reopened after a close (tenant churn).
    pub reopened: u64,
    /// High-water mark of total queued items observed at a flush.
    pub peak_queued: u64,
    /// Mitigation cases opened (one per engaged control).
    pub mitigations_engaged: u64,
    /// Cases that ended in a false-quarantine release.
    pub mitigations_released: u64,
    /// Cases that ended escalated (confirmed attack, or the ladder
    /// topped out at eviction).
    pub mitigations_escalated: u64,
    /// Active cases aborted because the session closed underneath them.
    pub mitigations_aborted: u64,
    /// Quarantine notices that arrived for an already-closing session.
    pub mitigation_skipped: u64,
    /// Total seq-ticks from an engaged control to the victim recovery
    /// that confirmed it, summed over escalated cases.
    pub recovery_latency_ticks: u64,
    /// Total seq-ticks innocents spent under a control they did not
    /// deserve, summed over released cases.
    pub false_quarantine_ticks: u64,
}

/// Per-stage wall-clock counters for the ingest path, collected only
/// when `MEMDOS_ENGINE_PROF=1` (`Config::prof`). Disabled, the probes
/// cost two predictable branches per line and never read a clock, so
/// the counters cannot perturb what they measure. The clock is
/// [`memdos_runner::monotonic_ns`] — wall time is harness territory,
/// and these numbers only ever surface as diagnostics in the final
/// `engine_stats` line, never in an event the determinism contract
/// covers.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct StageProf {
    enabled: bool,
    /// Line → record decoding (the record parse; resync recovery is
    /// not billed here).
    pub(crate) decode_ns: u64,
    /// Binary-stream decoding (frame scan, checksum, resync) when the
    /// reader negotiated the binary wire format.
    pub(crate) decode_bin_ns: u64,
    /// Record → session routing (intern probe, offer, drop policy).
    pub(crate) dispatch_ns: u64,
    /// Session queue draining (detector stepping), in place in the slab.
    pub(crate) step_ns: u64,
    /// Imposing the `(seq, sub)` order on the flush's events (the sort).
    pub(crate) merge_ns: u64,
    /// Event rendering and log append.
    pub(crate) write_ns: u64,
    /// The flush's session bookkeeping around the other stages: settling
    /// the drained sessions in their slab slots (quarantine notices,
    /// retiring and recycling, husk shrink, the terminal FIFO), the idle
    /// scan and the mitigation step.
    pub(crate) reclaim_ns: u64,
}

impl StageProf {
    fn new(enabled: bool) -> Self {
        StageProf { enabled, ..StageProf::default() }
    }

    /// Stamp the start of a stage (0 when disabled).
    fn start(&self) -> u64 {
        if self.enabled {
            memdos_runner::monotonic_ns()
        } else {
            0
        }
    }

    /// Elapsed ns since a [`StageProf::start`] stamp (0 when disabled).
    fn lap(&self, t0: u64) -> u64 {
        if self.enabled {
            memdos_runner::monotonic_ns().saturating_sub(t0)
        } else {
            0
        }
    }
}

/// Interned tenant identity: a dense index into the engine's tenant
/// slot table. Routing a record costs one name lookup to obtain the id;
/// everything after (slot access, session lookup, reopen and idle
/// bookkeeping) keys on this `Copy` value, never on the `String`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TenantId(u32);

impl TenantId {
    /// The dense table index this id names.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The tenant-name intern index: an open-addressing hash table of
/// [`TenantId`]s with linear probing. The names stay in the engine's
/// tenant slots; a probe compares against `slots[id].name`. Ids are
/// dense and never freed, so there is no deletion, and a resize
/// re-places the ids in id order, so the layout is a pure function of
/// the order names were first seen. `HashMap` is banned in the
/// deterministic crates (xtask lint L2), and a fixed, seedless hash
/// keeps even the unobservable layout reproducible.
#[derive(Debug, Default)]
struct InternIndex {
    /// Power-of-two bucket array (empty until the first tenant);
    /// [`InternIndex::EMPTY`] marks a free bucket. Load stays at or
    /// below ½, so every probe sequence reaches a free bucket.
    buckets: Vec<u32>,
}

impl InternIndex {
    /// Free-bucket marker (no tenant id reaches it: ids are `u32`
    /// indices into the tenant slot table).
    const EMPTY: u32 = u32::MAX;
    /// Bucket count of the first table.
    const MIN_BUCKETS: usize = 16;

    /// The home bucket of `name` in a table of `mask + 1` buckets:
    /// FNV-1a 64 over the UTF-8 bytes, with the high half folded into
    /// the low bits the mask keeps.
    fn home(name: &str, mask: usize) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in name.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h ^ (h >> 32)) as usize & mask
    }

    /// The id interned under `name`, if any.
    // hot-path
    fn find(&self, name: &str, slots: &[TenantSlot]) -> Option<TenantId> {
        let mask = self.buckets.len().checked_sub(1)?;
        let mut at = Self::home(name, mask);
        for _ in 0..self.buckets.len() {
            let id = *self.buckets.get(at)?;
            if id == Self::EMPTY {
                return None;
            }
            if slots.get(id as usize).is_some_and(|slot| &*slot.name == name) {
                return Some(TenantId(id));
            }
            at = (at + 1) & mask;
        }
        None
    }

    /// Indexes the newest tenant, `slots.last()`. Ids are dense, so the
    /// index always holds exactly the ids `0..slots.len()`; growing
    /// re-places the older ones in id order first.
    fn push(&mut self, slots: &[TenantSlot]) {
        let Some(newest) = slots.len().checked_sub(1) else {
            return;
        };
        if slots.len() * 2 > self.buckets.len() {
            let len = (slots.len() * 2).next_power_of_two().max(Self::MIN_BUCKETS);
            self.buckets.clear();
            self.buckets.resize(len, Self::EMPTY);
            for id in 0..newest {
                self.place(id as u32, slots);
            }
        }
        self.place(newest as u32, slots);
    }

    /// Puts `id` into the first free bucket of its probe sequence.
    fn place(&mut self, id: u32, slots: &[TenantSlot]) {
        let (Some(slot), Some(mask)) = (slots.get(id as usize), self.buckets.len().checked_sub(1))
        else {
            return;
        };
        let mut at = Self::home(&slot.name, mask);
        for _ in 0..self.buckets.len() {
            match self.buckets.get_mut(at) {
                Some(bucket) if *bucket == Self::EMPTY => {
                    *bucket = id;
                    return;
                }
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Heap bytes of the bucket array.
    fn resident_bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<u32>()
    }
}

/// Binary-protocol tenant directory for one ingest stream: wire id →
/// tenant name, as bound by [`BinFrame::Define`] frames. `cached`
/// memoises the engine's interned [`TenantId`] — ids are stable for the
/// engine's lifetime, so once warm a sample routes with two vector hops
/// and no intern-index probe at all.
#[derive(Debug, Default)]
struct WireTable {
    slots: Vec<Option<WireEntry>>,
}

#[derive(Debug)]
struct WireEntry {
    name: String,
    cached: Option<TenantId>,
}

/// Final accounting of a reclaimed incarnation, retained per tenant so
/// [`Engine::snapshots`] can serve closed tenants after their session
/// memory was returned to the slab.
#[derive(Debug, Clone, Copy)]
struct RetiredSession {
    generation: u32,
    ingested: u64,
    dropped: u64,
    alarms: u64,
}

/// Per-tenant routing state kept at the ingest side, so reopen, idle
/// and eviction decisions never depend on flush timing (which would
/// break the batch-size determinism guarantee).
#[derive(Debug)]
struct TenantSlot {
    /// The interned name, shared with every incarnation's session and
    /// events; the intern index probes compare against it.
    name: Arc<str>,
    /// Slab slot of the current incarnation; `None` once it was closed,
    /// drained and reclaimed.
    session: Option<u32>,
    /// Arrival index of the tenant's most recent record.
    last_seen: u64,
    /// The engine has routed a close (ctl, idle or evicted) to this
    /// incarnation.
    closed_at_ingest: bool,
    /// Incarnation counter (0 = first session).
    generation: u32,
    /// Final counters of the last reclaimed incarnation.
    retired: Option<RetiredSession>,
    /// The current incarnation sits in the terminal-eviction FIFO
    /// (dedup flag; see [`Engine::evict_lru`]).
    terminal_queued: bool,
}

impl TenantSlot {
    /// A first-contact slot: no session yet, generation 0.
    fn new(name: Arc<str>, seq: u64) -> Self {
        TenantSlot {
            name,
            session: None,
            last_seen: seq,
            closed_at_ingest: false,
            generation: 0,
            retired: None,
            terminal_queued: false,
        }
    }
}

/// The multi-tenant streaming detection engine.
pub struct Engine {
    config: Config,
    /// Owner-checked session storage; slots are recycled across tenant
    /// churn. See the module docs on fleet-scale storage.
    slab: Slab<Session>,
    /// Tenant-name intern index: name → dense [`TenantId`]. Probed once
    /// per record; every later step keys on the `Copy` id. It holds
    /// only ids: the name lives in the tenant slot.
    ids: InternIndex,
    /// Routing state per interned tenant, indexed by [`TenantId`].
    slots: Vec<TenantSlot>,
    /// Slab slots that queued work since the last flush, in first-queue
    /// order (duplicate-free via the slab's dirty flag). The flush
    /// working set — never the whole slab.
    dirty: Vec<u32>,
    /// Lazy recency heap over open sessions, keyed by
    /// `(last_seen, TenantId)`: stale entries are dropped or re-pushed
    /// at pop time. Shared by the idle scan and the ceiling eviction,
    /// and kept only when one of them is on (see
    /// [`Engine::tracks_recency`]).
    lru: BinaryHeap<Reverse<(u64, u32)>>,
    /// Open (not closed-at-ingest) resident sessions — what the memory
    /// ceiling bounds.
    open_count: usize,
    /// Incarnations ever opened (reopens count once per incarnation).
    sessions_opened: u64,
    /// Events produced at ingest time (malformed lines, drops), merged
    /// with session events at the next flush. Sorted by construction:
    /// `seq` increases monotonically at ingest and `sub` is constant.
    ingest_events: Vec<SessionEvent>,
    /// Released sessions kept for [`Session::reopen`], so churn reuses
    /// their storage instead of allocating. At most `config.batch`: a
    /// flush interval opens at most about one session per arrival
    /// index, so that many spares cover the next interval's opens.
    spares: Vec<Session>,
    /// Recycled flush-event buffer.
    events_buf: Vec<SessionEvent>,
    /// Recycled columnar buffers every monitoring session steps through.
    batch_scratch: BatchScratch,
    /// Recycled log-line writer.
    render: LineBuf,
    /// Recycled decode buffer for escaped protocol strings (see
    /// [`jsonl::parse_record_borrowed`]).
    unescaped: String,
    prof: StageProf,
    /// The mitigation response loop: per-tenant cases, rung memory and
    /// the pending control actions for the enclosing driver.
    mitigation: Coordinator,
    /// Quarantine notices collected at settle time, consumed by the
    /// mitigation step at the end of the same flush:
    /// `(tenant id, notice seq, tenant name)`.
    notices: Vec<(u32, u64, Arc<str>)>,
    /// Tenants whose active case was aborted this flush because their
    /// session closed, for the `mitigation_released` event.
    aborted_cases: Vec<Arc<str>>,
    /// Terminal-but-resident sessions (quarantined verdicts,
    /// drain-closed husks), in the order they turned terminal. The
    /// ceiling eviction drains this before touching the recency heap:
    /// their detection work is done, so they go first instead of
    /// pinning slots while live tenants get evicted around them.
    terminal_fifo: VecDeque<(u32, u32)>,
    next_seq: u64,
    pending: usize,
    log: Vec<String>,
    stats: EngineStats,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("sessions_opened", &self.sessions_opened)
            .field("open_sessions", &self.open_count)
            .field("resident_sessions", &self.slab.len())
            .field("next_seq", &self.next_seq)
            .field("log_lines", &self.log.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Engine {
    /// Creates an engine with no sessions. This is the only constructor:
    /// every knob arrives through [`Config`] (resolve the environment
    /// once with [`Config::from_env`] if that is where the knobs live).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for an invalid `config`.
    pub fn new(config: Config) -> Result<Self, CoreError> {
        config.validate()?;
        Ok(Engine {
            config,
            slab: Slab::new(),
            ids: InternIndex::default(),
            slots: Vec::new(),
            dirty: Vec::new(),
            lru: BinaryHeap::new(),
            open_count: 0,
            sessions_opened: 0,
            ingest_events: Vec::new(),
            spares: Vec::new(),
            events_buf: Vec::new(),
            batch_scratch: BatchScratch::default(),
            render: LineBuf::new(),
            unescaped: String::new(),
            prof: StageProf::new(config.prof),
            mitigation: Coordinator::new(config.mitigation),
            notices: Vec::new(),
            aborted_cases: Vec::new(),
            terminal_fifo: VecDeque::new(),
            next_seq: 0,
            pending: 0,
            log: Vec::new(),
            stats: EngineStats::default(),
        })
    }

    /// The configuration the engine runs with.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Number of sessions ever opened (reopened tenants count once per
    /// incarnation).
    pub fn session_count(&self) -> usize {
        self.sessions_opened as usize
    }

    /// Open (not closing) resident sessions right now — the number the
    /// `Config::max_sessions` ceiling bounds.
    pub fn open_sessions(&self) -> usize {
        self.open_count
    }

    /// Input spans that failed to decode so far.
    pub fn malformed(&self) -> u64 {
        self.stats.malformed
    }

    /// Recovery/degradation counters accumulated so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Read-only snapshots of every tenant ever seen, in tenant-name
    /// order: live sessions report their current lifecycle state and
    /// working set; reclaimed tenants report the retained final
    /// accounting with `live: false`. This is the stable introspection
    /// surface (see DESIGN.md) — the fleet bench and the CLI summary
    /// consume it instead of session internals. The name order is
    /// sorted at call time (a cold path; the ingest path keeps no
    /// ordered index).
    pub fn snapshots(&self) -> impl Iterator<Item = SessionSnapshot<'_>> {
        let mut order: Vec<u32> = (0..self.slots.len() as u32).collect();
        order.sort_unstable_by_key(|&id| self.slots.get(id as usize).map(|slot| &slot.name));
        order.into_iter().filter_map(move |id| self.snapshot_of(TenantId(id)))
    }

    /// The snapshot for one tenant, if it was ever seen.
    pub fn snapshot(&self, tenant: &str) -> Option<SessionSnapshot<'_>> {
        self.snapshot_of(self.tenant_id(tenant)?)
    }

    /// One interned tenant's snapshot: its live session's, with the
    /// mitigation case attached, or else the retained final accounting
    /// of its last reclaimed incarnation.
    fn snapshot_of(&self, id: TenantId) -> Option<SessionSnapshot<'_>> {
        let slot = self.slots.get(id.index())?;
        if let Some(s) = slot.session.and_then(|idx| self.slab.get(idx, id.0)) {
            let mut snap = s.snapshot();
            snap.mitigation = self.mitigation.case_status(id.0);
            return Some(snap);
        }
        let r = slot.retired?;
        Some(SessionSnapshot {
            tenant: &slot.name,
            generation: r.generation,
            state: SessionState::Closed,
            live: false,
            queued: 0,
            resident_bytes: 0,
            ingested: r.ingested,
            dropped: r.dropped,
            alarms: r.alarms,
            recovery_ratio: None,
            mitigation: None,
        })
    }

    /// Estimated resident heap bytes of the session fleet: every live
    /// and spare session's heap working set
    /// ([`Session::resident_bytes`]), the slab slots and spare list that
    /// hold the session structs inline, the interned names, the intern
    /// index's buckets and the engine's per-tenant tables. Deterministic
    /// capacity accounting — the number the fleet bench reports and the
    /// ceiling is judged against — not an allocator measurement.
    pub fn resident_bytes(&self) -> usize {
        let live = self.slab.iter().map(|(_, s)| s);
        let sessions: usize = live.chain(&self.spares).map(Session::resident_bytes).sum();
        let names: usize = self.slots.iter().map(|slot| slot.name.len()).sum();
        sessions
            + names
            + self.ids.resident_bytes()
            + self.slab.capacity() * std::mem::size_of::<Option<(u32, bool, Session)>>()
            + self.spares.capacity() * std::mem::size_of::<Session>()
            + self.slots.len() * std::mem::size_of::<TenantSlot>()
            + self.lru.len() * std::mem::size_of::<Reverse<(u64, u32)>>()
    }

    /// The event log emitted so far, one JSONL line per entry. Call
    /// [`Engine::flush`] first to include everything ingested.
    pub fn log_lines(&self) -> &[String] {
        &self.log
    }

    /// Allocates the next arrival index for an input span (counts toward
    /// the flush batch).
    fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending += 1;
        seq
    }

    /// Allocates an arrival index for an engine-originated event (idle
    /// close, eviction, stats line) without counting it toward the
    /// batch.
    fn alloc_seq_quiet(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Ingests one input line, flushing when the batch fills.
    ///
    /// The line decodes through [`jsonl::parse_record_borrowed`]. A line
    /// it rejects is resynchronised: every embedded valid record is
    /// recovered (each under its own arrival index, in line order) and
    /// the corrupted spans are logged as `malformed` events — one bad
    /// byte never costs more than its own span.
    // hot-path
    pub fn ingest_line(&mut self, line: &str) {
        let mut scratch = std::mem::take(&mut self.unescaped);
        let t0 = self.prof.start();
        let parsed = jsonl::parse_record_borrowed(line, &mut scratch);
        let d = self.prof.lap(t0);
        self.prof.decode_ns += d;
        match parsed {
            Ok(raw) => {
                let seq = self.alloc_seq();
                let t1 = self.prof.start();
                match raw.kind {
                    RawKind::Sample { access, miss } => self.route_sample(
                        seq,
                        raw.tenant,
                        Observation { access_num: access, miss_num: miss },
                    ),
                    RawKind::Close => self.route_close(seq, raw.tenant),
                }
                let d = self.prof.lap(t1);
                self.prof.dispatch_ns += d;
            }
            // lint:allow(hot-propagate) -- resync recovers from corrupt input; the fault path may allocate
            Err(_) => self.ingest_resync(line),
        }
        self.unescaped = scratch;
        if self.pending >= self.config.batch {
            self.flush();
        }
    }

    /// Recovers what it can from a line the record parser rejected: each
    /// embedded valid record re-enters the normal path under its own
    /// arrival index and each corrupted span becomes a `malformed`
    /// event.
    fn ingest_resync(&mut self, line: &str) {
        for segment in jsonl::resync_line(line) {
            let seq = self.alloc_seq();
            match segment {
                Segment::Object(obj) => match Record::from_object(&obj) {
                    Ok(record) => {
                        self.stats.resynced += 1;
                        self.ingest_record(seq, record);
                    }
                    Err(e) => self.push_malformed(seq, Cow::Borrowed(e.reason()), None),
                },
                Segment::Skipped { bytes, reason } => {
                    self.push_malformed(seq, Cow::Owned(reason), Some(bytes));
                }
            }
        }
    }

    /// Ingests every byte of `reader`, negotiating the wire format from
    /// the first bytes of the stream: a stream opening with the binary
    /// preamble ([`binary::MAGIC`]) decodes through the [`BinDecoder`];
    /// anything else is JSONL, framed by [`jsonl::LineFramer`] into lines
    /// that each go through [`Engine::ingest_line`]. Returns the number of
    /// input spans consumed (physical lines for JSONL, frames for
    /// binary).
    /// Invalid UTF-8, oversized lines and corrupted frames are logged
    /// and skipped, never fatal.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the reader; input ingested before the
    /// error remains processed.
    pub fn ingest_reader<R: BufRead>(&mut self, mut reader: R) -> std::io::Result<u64> {
        // Sniff up to one preamble, accumulating across short reads.
        // Divergence from the magic at any byte settles on JSONL with
        // the sniffed bytes replayed into the line decoder.
        let mut sniffed: Vec<u8> = Vec::new();
        let is_binary = loop {
            let chunk = reader.fill_buf()?;
            if chunk.is_empty() {
                break false;
            }
            let need = binary::MAGIC.len().saturating_sub(sniffed.len());
            let take = need.min(chunk.len());
            sniffed.extend_from_slice(chunk.get(..take).unwrap_or(chunk));
            reader.consume(take);
            let prefix = binary::MAGIC.get(..sniffed.len()).unwrap_or(&[]);
            if sniffed != prefix {
                break false;
            }
            if sniffed.len() == binary::MAGIC.len() {
                break true;
            }
        };
        if is_binary {
            self.ingest_reader_binary(reader)
        } else {
            self.ingest_reader_jsonl(&sniffed, reader)
        }
    }

    /// The JSONL arm of [`Engine::ingest_reader`]; `prefix` holds bytes
    /// the format sniff already consumed from the reader.
    fn ingest_reader_jsonl<R: BufRead>(
        &mut self,
        prefix: &[u8],
        mut reader: R,
    ) -> std::io::Result<u64> {
        let mut framer = LineFramer::new(jsonl::DEFAULT_MAX_LINE);
        framer.push(prefix, |piece| self.ingest_piece(piece));
        loop {
            let len = {
                let chunk = reader.fill_buf()?;
                if chunk.is_empty() {
                    break;
                }
                framer.push(chunk, |piece| self.ingest_piece(piece));
                chunk.len()
            };
            reader.consume(len);
        }
        framer.finish(|piece| self.ingest_piece(piece));
        self.flush();
        Ok(framer.lines())
    }

    /// Ingests one framed piece of a JSONL stream: text takes
    /// [`Engine::ingest_line`], a span the framer skipped (oversized
    /// line, invalid UTF-8) becomes a `malformed` event.
    fn ingest_piece(&mut self, piece: Piece<'_>) {
        match piece {
            Piece::Text(line) => self.ingest_line(line),
            Piece::Skipped { bytes, reason } => {
                let seq = self.alloc_seq();
                self.push_malformed(seq, Cow::Owned(reason.to_string()), Some(bytes));
                if self.pending >= self.config.batch {
                    self.flush();
                }
            }
        }
    }

    /// The binary arm of [`Engine::ingest_reader`]: the preamble is
    /// already consumed; everything after is fixed-width frames.
    fn ingest_reader_binary<R: BufRead>(&mut self, mut reader: R) -> std::io::Result<u64> {
        let mut dec = BinDecoder::new();
        let mut frames: Vec<BinFrame> = Vec::new();
        let mut wire = WireTable::default();
        loop {
            let len = {
                let chunk = reader.fill_buf()?;
                if chunk.is_empty() {
                    break;
                }
                let t0 = self.prof.start();
                dec.push_bytes(chunk);
                let d = self.prof.lap(t0);
                self.prof.decode_bin_ns += d;
                chunk.len()
            };
            reader.consume(len);
            dec.drain_into(&mut frames);
            for frame in frames.drain(..) {
                self.ingest_bin_frame(frame, &mut wire);
            }
        }
        let t0 = self.prof.start();
        let tail = dec.finish();
        let d = self.prof.lap(t0);
        self.prof.decode_bin_ns += d;
        for frame in tail {
            self.ingest_bin_frame(frame, &mut wire);
        }
        self.stats.resynced += dec.resynced();
        self.flush();
        Ok(dec.frames())
    }

    /// Routes one decoded binary frame. Sample and close frames consume
    /// an arrival index exactly like their JSONL twins (so a converted
    /// stream replays under identical `seq` values); a define frame is
    /// zero-width metadata — it binds a wire id without consuming a
    /// `seq` — unless it is invalid, in which case it surfaces as an
    /// ordinary `malformed` span.
    // hot-path
    fn ingest_bin_frame(&mut self, frame: BinFrame, wire: &mut WireTable) {
        match frame {
            BinFrame::Sample { tenant, access, miss } => {
                let seq = self.alloc_seq();
                let t0 = self.prof.start();
                let obs = Observation { access_num: access, miss_num: miss };
                match wire.slots.get_mut(tenant as usize).and_then(Option::as_mut) {
                    Some(entry) => self.route_sample_wire(seq, entry, obs),
                    None => self.push_malformed(seq, Cow::Borrowed("undefined wire id"), None),
                }
                let d = self.prof.lap(t0);
                self.prof.dispatch_ns += d;
            }
            BinFrame::Close { tenant } => {
                let seq = self.alloc_seq();
                let t0 = self.prof.start();
                match wire.slots.get(tenant as usize).and_then(Option::as_ref) {
                    Some(entry) => {
                        let name = &entry.name;
                        self.route_close(seq, name);
                    }
                    None => self.push_malformed(seq, Cow::Borrowed("undefined wire id"), None),
                }
                let d = self.prof.lap(t0);
                self.prof.dispatch_ns += d;
            }
            BinFrame::Define { tenant, name } => {
                if tenant >= binary::MAX_WIRE_ID {
                    let seq = self.alloc_seq();
                    self.push_malformed(seq, Cow::Borrowed("wire id out of range"), None);
                } else {
                    let slot = tenant as usize;
                    if wire.slots.len() <= slot {
                        wire.slots.resize_with(slot + 1, || None);
                    }
                    if let Some(e) = wire.slots.get_mut(slot) {
                        *e = Some(WireEntry { name, cached: None });
                    }
                    // No seq consumed: defines are invisible to the
                    // event log, so binary and JSONL replays of the
                    // same stream stay byte-identical.
                    return;
                }
            }
            BinFrame::Skipped { bytes, reason } => {
                let seq = self.alloc_seq();
                self.push_malformed(seq, Cow::Borrowed(reason), Some(bytes));
            }
        }
        if self.pending >= self.config.batch {
            self.flush();
        }
    }

    /// Routes one record recovered by resynchronisation. Clean lines
    /// route their borrowed fields through the same
    /// [`Engine::route_sample`]/[`Engine::route_close`], so both share
    /// one behaviour.
    fn ingest_record(&mut self, seq: u64, record: Record) {
        match record {
            Record::Sample { tenant, obs } => self.route_sample(seq, &tenant, obs),
            Record::Close { tenant } => self.route_close(seq, &tenant),
        }
    }

    /// Routes one sample to its tenant's session, handling drops,
    /// recoveries and reopen-after-close. `tenant` may borrow from the
    /// input line — nothing is cloned unless a session opens.
    // hot-path
    fn route_sample(&mut self, seq: u64, tenant: &str, obs: Observation) {
        let Some((idx, owner)) = self.sample_session(seq, tenant) else {
            return;
        };
        self.offer_sample(idx, owner, seq, obs);
    }

    /// Routes one binary sample through the wire directory. A warm
    /// `cached` id skips the name lookup; a cold one resolves by name
    /// (opening the session if the tenant is new) and warms the cache —
    /// interned ids never go stale, so the hint is set at most once per
    /// wire binding.
    // hot-path
    fn route_sample_wire(&mut self, seq: u64, entry: &mut WireEntry, obs: Observation) {
        let id = match entry.cached {
            Some(id) => id,
            None => match self.tenant_id(&entry.name) {
                Some(id) => {
                    entry.cached = Some(id);
                    id
                }
                None => {
                    let addr = self.sample_session(seq, &entry.name);
                    entry.cached = self.tenant_id(&entry.name);
                    let Some((idx, owner)) = addr else {
                        return;
                    };
                    self.offer_sample(idx, owner, seq, obs);
                    return;
                }
            },
        };
        let Some((idx, owner)) = self.sample_session_known(seq, id, &entry.name) else {
            return;
        };
        self.offer_sample(idx, owner, seq, obs);
    }

    /// Offers one sample to the session at `(idx, owner)` and logs what
    /// happened — the shared back half of every sample route.
    // hot-path
    fn offer_sample(&mut self, idx: u32, owner: u32, seq: u64, obs: Observation) {
        let Some(session) = self.slab.get_mut(idx, owner) else {
            return;
        };
        let offered = session.offer(seq, obs);
        let queued = session.queued();
        if queued > 0 && self.slab.mark_dirty(idx) {
            self.dirty.push(idx);
        }
        match offered {
            Offered::Admitted => {}
            Offered::Recovered { burst } => {
                self.stats.recoveries += 1;
                let payload = match self.slab.get(idx, owner) {
                    Some(s) => s.recovered_event(burst),
                    None => return,
                };
                self.ingest_events.push(SessionEvent { seq, sub: SUB_INGEST, payload });
            }
            Offered::Dropped { terminal, burst, total: _ } => {
                if terminal {
                    self.stats.drops_terminal += 1;
                } else {
                    self.stats.drops_backpressure += 1;
                }
                // Coalesce bursts: log the first loss, then every
                // `drop_log_every`-th, so overload cannot flood
                // the log (graceful degradation). Exact totals
                // ride along in each event and in the stats.
                if burst == 1 || burst % self.config.drop_log_every == 0 {
                    let payload = match self.slab.get(idx, owner) {
                        Some(s) => s.drop_event(terminal, burst),
                        None => return,
                    };
                    self.ingest_events.push(SessionEvent { seq, sub: SUB_INGEST, payload });
                }
            }
        }
    }

    /// Routes one close request to its tenant's session. A close for an
    /// unknown tenant opens a session first so the lifecycle stays
    /// visible in the log; a close for an already-reclaimed tenant is a
    /// no-op, and one for a session already closing queues an
    /// idempotent repeat that logs nothing.
    // hot-path
    fn route_close(&mut self, seq: u64, tenant: &str) {
        let addr = match self.tenant_id(tenant) {
            Some(id) => self.slots.get_mut(id.index()).and_then(|slot| {
                slot.last_seen = seq;
                slot.session.map(|idx| (idx, id.0))
            }),
            None => self.open_session(seq, tenant, None, 0),
        };
        if let Some((idx, owner)) = addr {
            self.close_at_ingest(idx, owner, seq, CloseReason::Ctl);
        }
    }

    /// Resolves `tenant` to its interned id without allocating.
    // hot-path
    fn tenant_id(&self, tenant: &str) -> Option<TenantId> {
        self.ids.find(tenant, &self.slots)
    }

    /// Looks up (or opens, or reopens after churn/eviction) the session
    /// a sample for `tenant` should land in, returning its
    /// `(slab slot, owner)` address.
    // hot-path
    fn sample_session(&mut self, seq: u64, tenant: &str) -> Option<(u32, u32)> {
        match self.tenant_id(tenant) {
            Some(id) => self.sample_session_known(seq, id, tenant),
            None => self.open_session(seq, tenant, None, 0),
        }
    }

    /// [`Engine::sample_session`] for a caller that already interned the
    /// tenant (the binary wire directory caches the id), skipping the
    /// name lookup.
    // hot-path
    fn sample_session_known(&mut self, seq: u64, id: TenantId, tenant: &str) -> Option<(u32, u32)> {
        enum Plan {
            Use(u32, u32),
            Open,
            Reopen(u32),
        }
        let plan = match self.slots.get_mut(id.index()) {
            Some(slot) => {
                slot.last_seen = seq;
                match slot.session {
                    Some(idx) if !slot.closed_at_ingest => Plan::Use(idx, id.0),
                    // Closed (and possibly reclaimed): the tenant is
                    // speaking again — churn.
                    Some(_) | None => Plan::Reopen(slot.generation.saturating_add(1)),
                }
            }
            None => Plan::Open,
        };
        match plan {
            Plan::Use(idx, owner) => Some((idx, owner)),
            Plan::Open => self.open_session(seq, tenant, Some(id), 0),
            Plan::Reopen(generation) => {
                // Tenant churn: a closed tenant is speaking again. A
                // still-draining old incarnation keeps its slab slot
                // until its final events drain; samples route to a
                // fresh session.
                let addr = self.open_session(seq, tenant, Some(id), generation)?;
                self.stats.reopened += 1;
                Some(addr)
            }
        }
    }

    /// Opens incarnation `generation` of `tenant` and points the tenant
    /// slot at it, interning the name on first contact and evicting the
    /// least-recently-seen open session first when the memory ceiling is
    /// reached. `interned` is the id the caller already resolved, so a
    /// reopen costs no second name lookup. The session reuses a spare's
    /// storage when one is left ([`Session::reopen`]); the only
    /// per-tenant allocations in the whole routing path are the
    /// interned name on first contact and, with no spare, a new
    /// session's buffers.
    // lint:allow(hot-propagate) -- the failure event renders its reason; opening is unreachable-to-fail once the config validated
    fn open_session(
        &mut self,
        seq: u64,
        tenant: &str,
        interned: Option<TenantId>,
        generation: u32,
    ) -> Option<(u32, u32)> {
        if self.config.max_sessions > 0 {
            while self.open_count >= self.config.max_sessions {
                if !self.evict_lru() {
                    break;
                }
            }
        }
        let name = match interned.and_then(|id| self.slots.get(id.index())) {
            Some(slot) => slot.name.clone(),
            None => Arc::<str>::from(tenant),
        };
        let opened = match self.spares.pop() {
            Some(mut spare) => spare.reopen(name.clone(), generation).map(|()| spare),
            None => Session::open_generation(name.clone(), self.config.session, generation),
        };
        match opened {
            Ok(session) => {
                self.sessions_opened += 1;
                let owner = match interned {
                    Some(id) => id.0,
                    None => {
                        let id = TenantId(self.slots.len() as u32);
                        self.slots.push(TenantSlot::new(name, seq));
                        self.ids.push(&self.slots);
                        id.0
                    }
                };
                let idx = self.slab.insert(owner, session);
                if let Some(slot) = self.slots.get_mut(owner as usize) {
                    slot.session = Some(idx);
                    slot.last_seen = seq;
                    slot.closed_at_ingest = false;
                    slot.generation = generation;
                    // Any FIFO entry for the previous incarnation is
                    // stale now; the pop-side re-validation drops it.
                    slot.terminal_queued = false;
                }
                self.open_count += 1;
                if self.tracks_recency() {
                    self.lru.push(Reverse((seq, owner)));
                }
                Some((idx, owner))
            }
            Err(e) => {
                // Unreachable when `config` validated, but a session that
                // cannot open must be visible, not a panic.
                let payload = Event::OpenFailed { tenant: name, reason: e.to_string() };
                self.ingest_events.push(SessionEvent { seq, sub: SUB_INGEST, payload });
                None
            }
        }
    }

    /// Whether the recency heap is kept: only the ceiling eviction and
    /// the idle scan read it, so with both off nothing is pushed (a
    /// heap nothing pops would grow by one entry per incarnation).
    fn tracks_recency(&self) -> bool {
        self.config.max_sessions > 0 || self.config.session.idle_timeout > 0
    }

    /// Evicts one open session to make room under the memory ceiling:
    /// an ordinary close with reason `evicted`, decided at ingest time
    /// so it replays identically on every rerun. Terminal-but-
    /// resident sessions (quarantined verdicts whose idle exemption
    /// would otherwise pin their slots forever, drain-closed husks) go
    /// first, in the order they turned terminal; only when none remain
    /// does the least-recently-seen live session go. Stale entries in
    /// either structure (tenant closed, reopened, or spoke since the
    /// entry was pushed) are dropped or refreshed lazily. Returns
    /// `false` when no open session remains to evict.
    fn evict_lru(&mut self) -> bool {
        while let Some((idx, owner)) = self.terminal_fifo.pop_front() {
            let Some(slot) = self.slots.get_mut(owner as usize) else {
                continue;
            };
            slot.terminal_queued = false;
            if slot.closed_at_ingest || slot.session != Some(idx) {
                continue;
            }
            let terminal = self
                .slab
                .get(idx, owner)
                .map(|s| matches!(s.state(), SessionState::Quarantined | SessionState::Closed))
                .unwrap_or(false);
            if !terminal {
                continue;
            }
            self.evict_at(idx, owner);
            return true;
        }
        let (owner, idx) = loop {
            let Some(Reverse((seen, owner))) = self.lru.pop() else {
                return false;
            };
            let Some(slot) = self.slots.get(owner as usize) else {
                continue;
            };
            if slot.closed_at_ingest {
                continue;
            }
            let Some(idx) = slot.session else {
                continue;
            };
            if slot.last_seen != seen {
                // The tenant spoke after this entry was pushed; re-arm
                // at its true recency and keep looking.
                self.lru.push(Reverse((slot.last_seen, owner)));
                continue;
            }
            break (owner, idx);
        };
        self.evict_at(idx, owner);
        true
    }

    /// The close bookkeeping of one ceiling eviction, shared by the
    /// terminal-FIFO and recency-heap paths of [`Engine::evict_lru`].
    fn evict_at(&mut self, idx: u32, owner: u32) {
        let seq = self.alloc_seq_quiet();
        self.stats.evicted += 1;
        self.close_at_ingest(idx, owner, seq, CloseReason::Evicted);
    }

    /// The ingest side of every close (ctl, idle, eviction, mitigation):
    /// marks the tenant's slot closed — taking it out of the open count
    /// the ceiling bounds, once — and queues the close on the session
    /// under `seq`, so it drains at the next flush. Deciding closes here
    /// rather than in the drain keeps reopen and eviction independent
    /// of flush timing.
    // hot-path
    fn close_at_ingest(&mut self, idx: u32, owner: u32, seq: u64, reason: CloseReason) {
        if let Some(slot) = self.slots.get_mut(owner as usize) {
            if !slot.closed_at_ingest {
                slot.closed_at_ingest = true;
                self.open_count = self.open_count.saturating_sub(1);
            }
        }
        if let Some(session) = self.slab.get_mut(idx, owner) {
            session.offer_close(seq, reason);
        }
        if self.slab.mark_dirty(idx) {
            self.dirty.push(idx);
        }
    }

    /// Records one malformed span in the log and the stats. The (hot)
    /// reject paths pass static reasons, so they never render one.
    fn push_malformed(&mut self, seq: u64, reason: Cow<'static, str>, bytes: Option<usize>) {
        self.stats.malformed += 1;
        let payload = Event::Malformed { reason, bytes };
        self.ingest_events.push(SessionEvent { seq, sub: SUB_INGEST, payload });
    }

    /// Drains the dirty sessions' queued items in place and appends the
    /// produced events to the log in `(seq, sub)` order, then
    /// settles every drained session ([`Engine::settle`]) and applies
    /// the idle timeout and the mitigation step. Only sessions that
    /// queued work are touched — a 50k-tenant fleet with a handful of
    /// active tenants pays for the handful. All working buffers are
    /// recycled, so a steady-state flush performs no per-flush
    /// allocations beyond the log lines themselves.
    pub fn flush(&mut self) {
        if self.pending == 0 && self.ingest_events.is_empty() && self.dirty.is_empty() {
            return;
        }
        self.pending = 0;
        self.drain_inline();
        // Settle each drained session where it sits, in the
        // (deterministic) order sessions first queued work.
        let t_reclaim = self.prof.start();
        let mut dirty = std::mem::take(&mut self.dirty);
        for &idx in &dirty {
            self.settle(idx);
        }
        dirty.clear();
        self.dirty = dirty;
        self.check_idle();
        self.step_mitigation();
        let d = self.prof.lap(t_reclaim);
        self.prof.reclaim_ns += d;
    }

    /// The drain half of a flush: each dirty session drains where it
    /// sits in its slab slot, in first-queue order — no session struct
    /// moves — then the flush's events are sorted and rendered.
    fn drain_inline(&mut self) {
        let t0 = self.prof.start();
        let mut events = std::mem::take(&mut self.events_buf);
        let mut queued: u64 = 0;
        for &idx in &self.dirty {
            if let Some((_, session)) = self.slab.flush_mut(idx) {
                queued += session.queued() as u64;
                session.process_queued_into(&mut events, &mut self.batch_scratch);
            }
        }
        self.stats.peak_queued = self.stats.peak_queued.max(queued);
        let d = self.prof.lap(t0);
        self.prof.step_ns += d;
        events.append(&mut self.ingest_events);
        // `(seq, sub)` keys are unique, so this imposes the one total
        // order.
        let t1 = self.prof.start();
        events.sort_by_key(|e| (e.seq, e.sub));
        let d = self.prof.lap(t1);
        self.prof.merge_ns += d;
        let t2 = self.prof.start();
        for ev in &events {
            let line = render_event(&mut self.render, ev);
            self.log.push(line);
        }
        let d = self.prof.lap(t2);
        self.prof.write_ns += d;
        events.clear();
        self.events_buf = events;
    }

    /// Settles one drained session in its slab slot. A pending quarantine
    /// notice goes to the mitigation step. A closed incarnation whose
    /// close the ingest side decided is fully drained now, so it
    /// retires: its final counters are retained for snapshots and its
    /// storage moves to the spare list ([`Engine::retire`]). A closed
    /// incarnation the tenant already superseded (it reopened before
    /// this one drained) just retires. Anything else stays resident,
    /// shrunk to a husk if terminal; a session closed by its own drain
    /// (failed profile) must still drop later samples against its
    /// policy, and a terminal session joins the terminal FIFO the
    /// ceiling eviction drains first.
    fn settle(&mut self, idx: u32) {
        let Some((owner, session)) = self.slab.flush_mut(idx) else {
            return;
        };
        if let Some(seq) = session.take_quarantine_notice() {
            if self.mitigation.enabled() {
                self.notices.push((owner, seq, session.shared_tenant().clone()));
            }
        }
        let state = session.state();
        let closed = state == SessionState::Closed;
        let (is_current, closing) = match self.slots.get(owner as usize) {
            Some(slot) => (slot.session == Some(idx), slot.closed_at_ingest),
            None => (false, false),
        };
        if closed && is_current && closing {
            if let Some(slot) = self.slots.get_mut(owner as usize) {
                slot.retired = Some(RetiredSession {
                    generation: session.generation(),
                    ingested: session.ingested(),
                    dropped: session.dropped(),
                    alarms: session.alarms(),
                });
                slot.session = None;
            }
            if let Some(case) = self.mitigation.on_session_closed(owner) {
                if !case.state().terminal() {
                    self.aborted_cases.push(session.shared_tenant().clone());
                }
            }
            self.retire(idx);
        } else if closed && !is_current {
            // A superseded incarnation: the live incarnation owns the
            // tenant's state; just free the slot.
            self.retire(idx);
        } else {
            session.shrink_terminal();
            let terminal = matches!(state, SessionState::Quarantined | SessionState::Closed);
            if terminal && is_current && !closing {
                if let Some(slot) = self.slots.get_mut(owner as usize) {
                    if !slot.terminal_queued {
                        slot.terminal_queued = true;
                        self.terminal_fifo.push_back((idx, owner));
                    }
                }
            }
        }
    }

    /// Frees a retired session's slab slot and moves its storage — the
    /// one move a session makes after it opened — to the spare list for
    /// the next open, up to the spare bound (`config.batch`); past it
    /// the session is dropped.
    fn retire(&mut self, idx: u32) {
        let Some(session) = self.slab.remove(idx) else {
            return;
        };
        if self.spares.len() < self.config.batch {
            self.spares.push(session);
        }
    }

    /// Closes sessions whose tenants have been silent for more than
    /// `idle_timeout` arrival indices, walking the shared recency heap
    /// instead of every tenant: pop while the oldest entry is past the
    /// timeout, dropping or refreshing stale entries lazily (same
    /// protocol as eviction). Quarantined and drain-closed sessions are
    /// exempt — they re-arm at the current index so they stay evictable
    /// under ceiling pressure. Runs at flush boundaries, which are a
    /// pure function of the input, so the transition replays
    /// deterministically on every rerun. The synthetic close
    /// consumes a fresh arrival index and drains at the next flush.
    fn check_idle(&mut self) {
        let timeout = self.config.session.idle_timeout;
        if timeout == 0 {
            return;
        }
        loop {
            let Some(&Reverse((seen, owner))) = self.lru.peek() else {
                break;
            };
            if self.next_seq.saturating_sub(seen) <= timeout {
                break;
            }
            self.lru.pop();
            let Some(slot) = self.slots.get(owner as usize) else {
                continue;
            };
            if slot.closed_at_ingest {
                continue;
            }
            let Some(idx) = slot.session else {
                continue;
            };
            if slot.last_seen != seen {
                self.lru.push(Reverse((slot.last_seen, owner)));
                continue;
            }
            let state = self.slab.get(idx, owner).map(Session::state);
            match state {
                Some(SessionState::Profiling) | Some(SessionState::Monitoring) => {
                    let seq = self.alloc_seq_quiet();
                    self.stats.idle_closed += 1;
                    self.close_at_ingest(idx, owner, seq, CloseReason::Idle);
                }
                Some(SessionState::Quarantined) | Some(SessionState::Closed) | None => {
                    // Exempt from the idle timeout; re-arm as if seen
                    // now so the entry stops looking stale but the
                    // session stays reachable for eviction.
                    self.lru.push(Reverse((self.next_seq, owner)));
                    if let Some(slot) = self.slots.get_mut(owner as usize) {
                        slot.last_seen = self.next_seq;
                    }
                }
            }
        }
    }

    /// The mitigation response step, run at the end of every flush.
    /// Flush boundaries are a pure function of the input stream, so
    /// every decision here — engage, confirm, climb, release — and its
    /// `mitigation_*` event replays identically on every rerun.
    /// Consumes the quarantine notices the flush drained (engaging a
    /// control on each freshly quarantined tenant, or skipping a
    /// notice whose session already closed underneath it), feeds one
    /// victim-recovery sample to every active case, renders the event
    /// lines under fresh quiet arrival indices and queues the control
    /// actions for the driver ([`Engine::take_mitigation_actions`]).
    fn step_mitigation(&mut self) {
        if !self.mitigation.enabled() {
            return;
        }
        // Active cases aborted by a close that drained this flush: the
        // coordinator already queued the release action; log and count.
        if !self.aborted_cases.is_empty() {
            let aborted = std::mem::take(&mut self.aborted_cases);
            for tenant in aborted {
                self.stats.mitigations_aborted += 1;
                self.push_mitigation_event(Event::MitigationReleased {
                    tenant,
                    why: Release::Closed,
                });
            }
        }
        if self.notices.is_empty() && !self.mitigation.has_active() {
            return;
        }
        let degraded = self.victims_degraded();
        let notices = std::mem::take(&mut self.notices);
        for (owner, seq, tenant) in notices {
            let quarantined = self
                .slots
                .get(owner as usize)
                .filter(|slot| !slot.closed_at_ingest)
                .and_then(|slot| slot.session)
                .and_then(|idx| self.slab.get(idx, owner))
                .map(|s| s.state() == SessionState::Quarantined)
                .unwrap_or(false);
            if !quarantined {
                // The session closed (or is closing) underneath its own
                // quarantine: nothing is left to control.
                self.stats.mitigation_skipped += 1;
                self.push_mitigation_event(Event::MitigationSkipped { tenant });
                continue;
            }
            let Some(engaged) = self.mitigation.engage(owner, &tenant, seq, degraded) else {
                continue;
            };
            self.stats.mitigations_engaged += 1;
            self.push_mitigation_event(Event::MitigationEngaged {
                tenant: tenant.clone(),
                rung: engaged.rung,
                degraded: engaged.degraded,
            });
            if engaged.terminal {
                // Rung memory already sat at evict: terminal on engage,
                // the one legal shortcut past `Confirming`.
                self.stats.mitigations_escalated += 1;
                self.push_mitigation_event(Event::MitigationEscalated {
                    tenant,
                    rung: engaged.rung,
                    why: Escalation::Engage,
                });
                self.close_for_mitigation(owner, CloseReason::Escalated);
            }
        }
        if !self.mitigation.has_active() {
            return;
        }
        let now = self.next_seq;
        let updates = self.mitigation.sample_active(now, degraded);
        for u in updates {
            let tenant = Arc::<str>::from(u.tenant);
            let (event, close) = match u.step {
                CaseStep::Hold => continue,
                CaseStep::Confirming => {
                    (Event::MitigationConfirming { tenant, rung: u.rung }, None)
                }
                CaseStep::Recovered { latency } => {
                    (Event::MitigationRecovered { tenant, rung: u.rung, latency }, None)
                }
                CaseStep::Relapsed => (Event::MitigationRelapsed { tenant, rung: u.rung }, None),
                CaseStep::Climbed { rung } => (Event::MitigationClimbed { tenant, rung }, None),
                CaseStep::Evicted => {
                    self.stats.mitigations_escalated += 1;
                    let event =
                        Event::MitigationEscalated { tenant, rung: u.rung, why: Escalation::Budget };
                    (event, Some(CloseReason::Escalated))
                }
                CaseStep::Confirmed { rung, latency } => {
                    self.stats.mitigations_escalated += 1;
                    self.stats.recovery_latency_ticks += latency;
                    let why = Escalation::Confirmed { latency };
                    (Event::MitigationEscalated { tenant, rung, why }, None)
                }
                CaseStep::Released { cost } => {
                    self.stats.mitigations_released += 1;
                    self.stats.false_quarantine_ticks += cost;
                    let why = Release::Verdict { cost };
                    (Event::MitigationReleased { tenant, why }, Some(CloseReason::Released))
                }
            };
            self.push_mitigation_event(event);
            if let Some(reason) = close {
                self.close_for_mitigation(u.id, reason);
            }
        }
    }

    /// Whether any victim — a `Monitoring` session of a tenant other
    /// than the mitigated ones — currently reports an access level
    /// below the recovery threshold (see `Session::recovery_ratio`).
    fn victims_degraded(&self) -> bool {
        let threshold = self.config.mitigation.degraded_below;
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.closed_at_ingest {
                continue;
            }
            let Some(idx) = slot.session else {
                continue;
            };
            if self.mitigation.has_case(i as u32) {
                continue;
            }
            let Some(session) = self.slab.get(idx, i as u32) else {
                continue;
            };
            if let Some(ratio) = session.recovery_ratio() {
                if ratio < threshold {
                    return true;
                }
            }
        }
        false
    }

    /// Closes one session on the mitigation loop's decision (release of
    /// a false quarantine, or eviction of a confirmed attacker): same
    /// ingest-side bookkeeping as a ceiling eviction, under a quiet
    /// arrival index, draining at the next flush.
    fn close_for_mitigation(&mut self, owner: u32, reason: CloseReason) {
        let Some(slot) = self.slots.get(owner as usize) else {
            return;
        };
        if slot.closed_at_ingest {
            return;
        }
        let Some(idx) = slot.session else {
            return;
        };
        let seq = self.alloc_seq_quiet();
        self.close_at_ingest(idx, owner, seq, reason);
    }

    /// Appends one engine-originated `mitigation_*` event under a fresh
    /// quiet arrival index; it merges into the log at the next flush.
    fn push_mitigation_event(&mut self, payload: Event) {
        let seq = self.alloc_seq_quiet();
        self.ingest_events.push(SessionEvent { seq, sub: SUB_INGEST, payload });
    }

    /// Drains the control actions the mitigation loop decided since
    /// the last call, in decision order. The closed-loop driver
    /// (`memdos-engine respond`) applies these to the workload; a
    /// caller that never drains them runs detection-only.
    pub fn take_mitigation_actions(&mut self) -> Vec<MitigationAction> {
        self.mitigation.take_actions()
    }

    /// Drains everything still queued (including closes the idle check
    /// enqueued at the final flush) and appends one `engine_stats` log
    /// line with the recovery counters. Call once at end of stream.
    pub fn finish(&mut self) {
        // Two flushes suffice (queued input, then idle closes); the
        // bound guards the invariant rather than trusting it.
        for _ in 0..4 {
            self.flush();
            if self.ingest_events.is_empty() && self.dirty.is_empty() {
                break;
            }
        }
        let seq = self.alloc_seq_quiet();
        let payload = Event::EngineStats(Box::new(StatsLine {
            sessions: self.sessions_opened,
            open_sessions: self.open_count as u64,
            stats: self.stats,
            // Mitigation counters appear only when the loop is live, so
            // detection-only logs are byte-identical to older runs.
            mitigation: self.mitigation.enabled(),
            // Wall-clock diagnostics (MEMDOS_ENGINE_PROF=1): these make
            // the stats line — and only the stats line — vary run to run.
            prof: self.prof.enabled.then_some(self.prof),
        }));
        let line = render_event(&mut self.render, &SessionEvent { seq, sub: SUB_INGEST, payload });
        self.log.push(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionConfig;
    use memdos_metrics::jsonl::JsonObject;

    fn fast_config(batch: usize) -> Config {
        Config {
            batch,
            session: SessionConfig { profile_ticks: 2_000, ..SessionConfig::default() },
            ..Config::default()
        }
    }

    /// Three tenants: two flat, one that collapses mid-stream.
    fn synthetic_lines() -> Vec<String> {
        let mut lines = Vec::new();
        for i in 0..4_000u64 {
            for tenant in ["vm-a", "vm-b", "vm-c"] {
                let attacked = tenant == "vm-b" && i >= 2_500;
                let access = if attacked { 100.0 } else { 1000.0 + (i % 10) as f64 };
                lines.push(format!(
                    r#"{{"tenant":"{tenant}","access":{access},"miss":{}}}"#,
                    100.0 + (i % 5) as f64
                ));
            }
        }
        for tenant in ["vm-a", "vm-b", "vm-c"] {
            lines.push(format!(r#"{{"tenant":"{tenant}","ctl":"close"}}"#));
        }
        lines
    }

    fn run(config: Config, lines: &[String]) -> Vec<String> {
        let mut engine = Engine::new(config).unwrap();
        for line in lines {
            engine.ingest_line(line);
        }
        engine.flush();
        engine.log_lines().to_vec()
    }

    #[test]
    fn log_is_identical_across_batch_sizes() {
        let lines = synthetic_lines();
        let reference = run(fast_config(256), &lines);
        assert!(!reference.is_empty());
        // Any batch size up to the queue capacity (1024 default,
        // 3 tenants → up to 3072 lines per flush).
        for batch in [256, 7, 1_024] {
            assert_eq!(run(fast_config(batch), &lines), reference, "batch={batch}");
        }
    }

    #[test]
    fn oversized_batch_drops_visibly() {
        // A batch far beyond the queue capacity forces the drop policy,
        // and the drops are logged.
        let log = run(fast_config(1_000_000), &synthetic_lines());
        assert!(log.iter().any(|l| l.contains(r#""event":"dropped""#)));
    }

    #[test]
    fn flush_logs_in_seq_then_sub_order() {
        // vm-a queues first but ends up holding the later arrival index:
        // its second sample evicts the first from a one-slot queue, so it
        // drains `opened` at seq 2 before vm-b drains `opened` at seq 1.
        // The `dropped` event shares seq 2 with vm-a's `opened`.
        let mut config = fast_config(1_000_000);
        config.session.queue_capacity = 1;
        let mut engine = Engine::new(config).unwrap();
        engine.ingest_line(r#"{"tenant":"vm-a","access":1,"miss":2}"#);
        engine.ingest_line(r#"{"tenant":"vm-b","access":1,"miss":2}"#);
        engine.ingest_line(r#"{"tenant":"vm-a","access":3,"miss":4}"#);
        engine.flush();
        let got: Vec<(u64, String, String)> = engine
            .log_lines()
            .iter()
            .map(|l| {
                let o = JsonObject::parse(l).expect("line parses");
                let field = |k: &str| o.get_str(k).expect(k).to_string();
                (o.get_f64("seq").expect("seq") as u64, field("event"), field("tenant"))
            })
            .collect();
        let want = [(1, "opened", "vm-b"), (2, "opened", "vm-a"), (2, "dropped", "vm-a")];
        let want: Vec<(u64, String, String)> =
            want.iter().map(|&(q, e, t)| (q, e.to_string(), t.to_string())).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn log_contains_lifecycle_and_alarm() {
        let lines = synthetic_lines();
        let log = run(fast_config(256), &lines);
        let count = |needle: &str| log.iter().filter(|l| l.contains(needle)).count();
        assert_eq!(count(r#""event":"opened""#), 3);
        assert_eq!(count(r#""event":"profile_ready""#), 3);
        assert_eq!(count(r#""event":"closed""#), 3);
        assert!(log
            .iter()
            .any(|l| l.contains(r#""to":"alarm""#) && l.contains(r#""tenant":"vm-b""#)));
        // The non-attacked tenants never reach an alarm.
        assert!(!log
            .iter()
            .any(|l| l.contains(r#""to":"alarm""#) && l.contains(r#""tenant":"vm-a""#)));
    }

    #[test]
    fn malformed_lines_are_logged_not_fatal() {
        let mut engine = Engine::new(fast_config(4)).unwrap();
        engine.ingest_line("not json at all");
        engine.ingest_line(r#"{"tenant":"vm-0","access":1,"miss":2}"#);
        engine.flush();
        assert_eq!(engine.malformed(), 1);
        assert!(engine
            .log_lines()
            .iter()
            .any(|l| l.contains(r#""event":"malformed""#)));
        assert_eq!(engine.session_count(), 1);
    }

    #[test]
    fn ingest_reader_consumes_jsonl() {
        let input = "{\"tenant\":\"vm-0\",\"access\":1,\"miss\":2}\n\n{\"tenant\":\"vm-0\",\"ctl\":\"close\"}\n";
        let mut engine = Engine::new(fast_config(256)).unwrap();
        let n = engine.ingest_reader(input.as_bytes()).unwrap();
        // Physical lines, blank included.
        assert_eq!(n, 3);
        assert!(engine
            .log_lines()
            .iter()
            .any(|l| l.contains(r#""event":"closed""#)));
    }

    #[test]
    fn ingest_reader_negotiates_binary_from_preamble() {
        let mut bytes = Vec::new();
        let mut enc = memdos_metrics::binary::Encoder::new();
        enc.sample("vm-0", 1.0, 2.0, &mut bytes).unwrap();
        enc.sample("vm-1", 3.0, 4.0, &mut bytes).unwrap();
        enc.close("vm-0", &mut bytes).unwrap();
        let mut engine = Engine::new(fast_config(256)).unwrap();
        // 2 defines + 2 samples + 1 close.
        let n = engine.ingest_reader(&bytes[..]).unwrap();
        assert_eq!(n, 5);
        assert_eq!(engine.malformed(), 0);
        assert_eq!(engine.session_count(), 2);
        assert!(engine
            .log_lines()
            .iter()
            .any(|l| l.contains(r#""event":"closed""#) && l.contains(r#""tenant":"vm-0""#)));
        // Defines are zero-width: the close (3rd record) sits at seq 2,
        // exactly where the JSONL twin of this stream would put it.
        assert!(engine
            .log_lines()
            .iter()
            .any(|l| l.contains(r#""seq":2"#) && l.contains(r#""event":"closed""#)));
    }

    #[test]
    fn binary_undefined_wire_id_is_malformed_not_fatal() {
        let mut bytes = Vec::new();
        binary::write_preamble(&mut bytes);
        binary::write_sample(&mut bytes, 7, 1.0, 2.0);
        let mut engine = Engine::new(fast_config(256)).unwrap();
        engine.ingest_reader(&bytes[..]).unwrap();
        assert_eq!(engine.malformed(), 1);
        assert!(engine
            .log_lines()
            .iter()
            .any(|l| l.contains("undefined wire id")));
        assert_eq!(engine.session_count(), 0);
    }

    #[test]
    fn ingest_reader_survives_corruption_and_resyncs() {
        // A healthy record fused behind a truncated one, a line of
        // invalid UTF-8, and a clean close.
        let mut input = Vec::new();
        input.extend_from_slice(b"{\"tenant\":\"vm-0\",\"acc{\"tenant\":\"vm-0\",\"access\":1,\"miss\":2}\n");
        input.extend_from_slice(&[0xff, 0xfe, b'\n']);
        input.extend_from_slice(b"{\"tenant\":\"vm-0\",\"ctl\":\"close\"}\n");
        let mut engine = Engine::new(fast_config(256)).unwrap();
        let n = engine.ingest_reader(&input[..]).unwrap();
        assert_eq!(n, 3);
        let stats = engine.stats();
        assert_eq!(stats.resynced, 1, "fused record recovered");
        assert!(stats.malformed >= 2, "corrupted spans logged");
        assert_eq!(engine.session_count(), 1);
        assert!(engine
            .log_lines()
            .iter()
            .any(|l| l.contains(r#""event":"closed""#)));
        assert!(engine
            .log_lines()
            .iter()
            .any(|l| l.contains(r#""event":"malformed""#) && l.contains("UTF-8")));
    }

    #[test]
    fn ingest_line_resyncs_fused_records() {
        let mut engine = Engine::new(fast_config(256)).unwrap();
        // Two valid records fused onto one line around a corrupted span.
        engine.ingest_line(
            "{\"tenant\":\"vm-0\",\"access\":1,\"miss\":2}garbage{\"tenant\":\"vm-1\",\"access\":3,\"miss\":4}",
        );
        engine.flush();
        assert_eq!(engine.session_count(), 2);
        assert_eq!(engine.stats().resynced, 2);
        assert_eq!(engine.malformed(), 1);
    }

    #[test]
    fn idle_timeout_closes_silent_tenants() {
        let mut config = fast_config(8);
        config.session.idle_timeout = 16;
        let mut engine = Engine::new(config).unwrap();
        // vm-idle speaks once, then vm-busy floods past the timeout.
        engine.ingest_line(r#"{"tenant":"vm-idle","access":1,"miss":2}"#);
        for _ in 0..64 {
            engine.ingest_line(r#"{"tenant":"vm-busy","access":1,"miss":2}"#);
        }
        engine.finish();
        let idle_closed = engine
            .log_lines()
            .iter()
            .any(|l| {
                l.contains(r#""event":"closed""#)
                    && l.contains(r#""tenant":"vm-idle""#)
                    && l.contains(r#""reason":"idle""#)
            });
        assert!(idle_closed, "idle tenant must close with reason idle");
        assert_eq!(engine.stats().idle_closed, 1);
        // The busy tenant is still open.
        assert!(!engine.log_lines().iter().any(|l| {
            l.contains(r#""event":"closed""#) && l.contains(r#""tenant":"vm-busy""#)
        }));
    }

    #[test]
    fn closed_tenant_reopens_as_new_generation() {
        let mut engine = Engine::new(fast_config(4)).unwrap();
        engine.ingest_line(r#"{"tenant":"vm-0","access":1,"miss":2}"#);
        engine.ingest_line(r#"{"tenant":"vm-0","ctl":"close"}"#);
        engine.ingest_line(r#"{"tenant":"vm-0","access":3,"miss":4}"#);
        engine.finish();
        assert_eq!(engine.session_count(), 2, "churned tenant gets a fresh session");
        assert_eq!(engine.stats().reopened, 1);
        let opened_gens: Vec<&String> = engine
            .log_lines()
            .iter()
            .filter(|l| l.contains(r#""event":"opened""#))
            .collect();
        assert_eq!(opened_gens.len(), 2);
        assert!(opened_gens[0].contains(r#""gen":0"#));
        assert!(opened_gens[1].contains(r#""gen":1"#));
    }

    #[test]
    fn ceiling_evicts_lru_and_tenant_reopens() {
        let mut config = fast_config(4);
        config.max_sessions = 2;
        let mut engine = Engine::new(config).unwrap();
        // vm-a is the least recently seen when vm-c arrives.
        engine.ingest_line(r#"{"tenant":"vm-a","access":1,"miss":2}"#);
        engine.ingest_line(r#"{"tenant":"vm-b","access":1,"miss":2}"#);
        engine.ingest_line(r#"{"tenant":"vm-c","access":1,"miss":2}"#);
        assert_eq!(engine.open_sessions(), 2, "ceiling enforced");
        assert_eq!(engine.stats().evicted, 1);
        // The evicted tenant speaks again: new generation.
        engine.ingest_line(r#"{"tenant":"vm-a","access":3,"miss":4}"#);
        engine.finish();
        assert_eq!(engine.stats().reopened, 1);
        assert!(engine.log_lines().iter().any(|l| {
            l.contains(r#""event":"closed""#)
                && l.contains(r#""tenant":"vm-a""#)
                && l.contains(r#""reason":"evicted""#)
        }));
        let gen1 = engine.log_lines().iter().any(|l| {
            l.contains(r#""event":"opened""#)
                && l.contains(r#""tenant":"vm-a""#)
                && l.contains(r#""gen":1"#)
        });
        assert!(gen1, "evicted tenant reopens as a new generation");
        assert!(engine.open_sessions() <= 2);
    }

    #[test]
    fn eviction_log_replays_identically() {
        // Rolling churn across 8 tenants under a ceiling of 3; drops,
        // evictions and reopens must replay byte-identically.
        let mut lines = Vec::new();
        for i in 0..2_000u64 {
            let tenant = format!("vm-{}", i % 8);
            lines.push(format!(
                r#"{{"tenant":"{tenant}","access":{},"miss":2}}"#,
                1000 + i % 10
            ));
            if i % 97 == 0 {
                lines.push(format!(r#"{{"tenant":"vm-{}","ctl":"close"}}"#, (i / 97) % 8));
            }
        }
        let mut config = fast_config(64);
        config.max_sessions = 3;
        let reference = run(config, &lines);
        assert!(
            reference.iter().any(|l| l.contains(r#""reason":"evicted""#)),
            "scenario must actually evict"
        );
        assert_eq!(run(config, &lines), reference);
    }

    #[test]
    fn snapshots_serve_live_and_retired_tenants() {
        let mut engine = Engine::new(fast_config(4)).unwrap();
        engine.ingest_line(r#"{"tenant":"vm-live","access":1,"miss":2}"#);
        engine.ingest_line(r#"{"tenant":"vm-gone","access":1,"miss":2}"#);
        engine.ingest_line(r#"{"tenant":"vm-gone","ctl":"close"}"#);
        engine.ingest_line(r#"{"tenant":"vm-alpha","access":1,"miss":2}"#);
        engine.finish();
        // Interned out of name order; snapshots come back in name order.
        let names: Vec<&str> = engine.snapshots().map(|snap| snap.tenant).collect();
        assert_eq!(names, ["vm-alpha", "vm-gone", "vm-live"]);
        let gone = engine.snapshot("vm-gone").expect("retired snapshot");
        assert!(!gone.live);
        assert_eq!(gone.state, SessionState::Closed);
        assert_eq!(gone.ingested, 1);
        assert_eq!(gone.resident_bytes, 0);
        let live = engine.snapshot("vm-live").expect("live snapshot");
        assert!(live.live);
        assert_eq!(live.state, SessionState::Profiling);
        assert!(live.resident_bytes > 0);
        assert!(engine.resident_bytes() >= live.resident_bytes);
        assert!(engine.snapshot("vm-unknown").is_none());
    }

    #[test]
    fn resident_bytes_counts_each_session_struct_once() {
        // A profile too short to finish leaves a drain-closed husk:
        // detector, profiler and queue released, only the name on the
        // heap. The struct itself sits in the slab slot, which the
        // engine counts, so the session's own figure must not add it
        // a second time.
        let session = SessionConfig { profile_ticks: 5, ..SessionConfig::default() };
        let mut engine = Engine::new(Config::default().session(session)).unwrap();
        for _ in 0..5 {
            engine.ingest_line(r#"{"tenant":"vm-husk","access":1,"miss":2}"#);
        }
        engine.flush();
        let husk = engine.snapshot("vm-husk").expect("resident husk");
        assert!(husk.live);
        assert_eq!(husk.state, SessionState::Closed);
        assert!(
            husk.resident_bytes < std::mem::size_of::<Session>(),
            "husk reports {} B, more than its {} B inline struct",
            husk.resident_bytes,
            std::mem::size_of::<Session>()
        );
        let slot = std::mem::size_of::<Option<(u32, bool, Session)>>();
        assert!(engine.resident_bytes() >= slot + husk.resident_bytes);
        assert!(engine.resident_bytes() < 2 * slot, "the struct is counted twice");
    }

    #[test]
    fn default_engine_stays_flat_under_one_tenants_churn() {
        // Neither the ceiling nor the idle timeout is on, so nothing
        // reads the recency heap and nothing may accumulate in it; the
        // spare list recycles the one session's storage.
        let mut engine = Engine::new(Config::default()).unwrap();
        let cycles = |engine: &mut Engine, n: usize| {
            for _ in 0..n {
                engine.ingest_line(r#"{"tenant":"vm-0","access":1,"miss":2}"#);
                engine.ingest_line(r#"{"tenant":"vm-0","ctl":"close"}"#);
                engine.flush();
            }
        };
        cycles(&mut engine, 10);
        let after_10 = engine.resident_bytes();
        cycles(&mut engine, 990);
        assert_eq!(engine.stats().reopened, 999);
        assert_eq!(engine.resident_bytes(), after_10, "resident bytes grew with churn");
    }

    /// The finished engine after a prefix in which vm-a profiles,
    /// monitors through an attack (quarantining when
    /// `config.session.quarantine_after` is set, which shrinks it to a
    /// husk), then either closes — so vm-b's session reuses vm-a's
    /// storage — or stays while an unrelated record takes the close's
    /// arrival index, so vm-b opens fresh; vm-b then runs the same
    /// script.
    fn vm_b_run(config: Config, recycle: bool) -> Engine {
        let quarantine_after = config.session.quarantine_after;
        let mut engine = Engine::new(config).unwrap();
        let sample = |tenant: &str, i: u64, attacked: bool| {
            let access = if attacked { 100 } else { 1000 + i % 10 };
            format!(r#"{{"tenant":"{tenant}","access":{access},"miss":{}}}"#, 100 + i % 5)
        };
        for i in 0..4_000u64 {
            engine.ingest_line(&sample("vm-a", i, i >= 2_500));
        }
        engine.flush();
        let a = engine.snapshot("vm-a").expect("vm-a is resident");
        let expected = if quarantine_after > 0 {
            SessionState::Quarantined
        } else {
            SessionState::Monitoring
        };
        assert_eq!(a.state, expected);
        if recycle {
            engine.ingest_line(r#"{"tenant":"vm-a","ctl":"close"}"#);
        } else {
            engine.ingest_line(r#"{"tenant":"vm-c","access":1,"miss":2}"#);
        }
        engine.flush();
        assert_eq!(engine.spares.len(), usize::from(recycle));
        for i in 0..4_000u64 {
            engine.ingest_line(&sample("vm-b", i, i >= 2_500));
        }
        engine.ingest_line(r#"{"tenant":"vm-b","ctl":"close"}"#);
        engine.finish();
        assert!(engine.spares.len() <= 1 + usize::from(recycle));
        engine
    }

    /// vm-b's log lines from [`vm_b_run`].
    fn vm_b_lines(quarantine_after: u64, recycle: bool) -> Vec<String> {
        let mut config = fast_config(64);
        config.session.quarantine_after = quarantine_after;
        vm_b_run(config, recycle)
            .log_lines()
            .iter()
            .filter(|l| l.contains(r#""tenant":"vm-b""#))
            .cloned()
            .collect()
    }

    #[test]
    fn recycled_sessions_log_what_fresh_sessions_log() {
        for quarantine_after in [0, 1] {
            let fresh = vm_b_lines(quarantine_after, false);
            assert!(fresh.iter().any(|l| l.contains(r#""event":"profile_ready""#)));
            assert!(fresh.iter().any(|l| l.contains(r#""to":"alarm""#)));
            assert_eq!(
                vm_b_lines(quarantine_after, true),
                fresh,
                "quarantine_after={quarantine_after}"
            );
        }
    }

    #[test]
    fn intern_index_resolves_every_name_across_resizes() {
        // Plain, JSON-escaped and non-ASCII names, shuffled.
        let mut names: Vec<String> = (0..10_000u32)
            .map(|i| match i % 4 {
                0 => format!("vm-{i:05}"),
                1 => format!("tenant \"{i}\"\\\n\t"),
                2 => format!("vm-é-{i}-雲"),
                _ => format!("{i}"),
            })
            .collect();
        let mut state: u64 = 0x5EED_1234;
        for i in (1..names.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            names.swap(i, (state % (i as u64 + 1)) as usize);
        }
        // Put two names that share a home bucket in the first table at
        // the front, so they probe against each other from the start.
        let mask = InternIndex::MIN_BUCKETS - 1;
        let first = InternIndex::home(&names[0], mask);
        let partner = (1..names.len())
            .find(|&i| InternIndex::home(&names[i], mask) == first)
            .expect("some name shares the first name's bucket");
        names.swap(1, partner);

        let mut slots = Vec::new();
        let mut index = InternIndex::default();
        assert_eq!(index.find("vm-00000", &slots), None, "an empty index misses");
        let mut sizes = vec![];
        for (n, name) in names.iter().enumerate() {
            slots.push(TenantSlot::new(Arc::from(name.as_str()), 0));
            index.push(&slots);
            assert!(slots.len() * 2 <= index.buckets.len(), "load above 1/2");
            if sizes.last() != Some(&index.buckets.len()) {
                sizes.push(index.buckets.len());
                // Right after a resize, every name so far still resolves.
                for (id, earlier) in names.iter().enumerate().take(n + 1) {
                    assert_eq!(index.find(earlier, &slots), Some(TenantId(id as u32)));
                }
            }
            if n == 1 {
                assert_eq!(index.buckets.len(), InternIndex::MIN_BUCKETS);
                assert_eq!(index.find(&names[0], &slots), Some(TenantId(0)));
                assert_eq!(index.find(&names[1], &slots), Some(TenantId(1)));
            }
        }
        assert_eq!(sizes.first(), Some(&InternIndex::MIN_BUCKETS));
        assert!(sizes.len() >= 5, "only {} table sizes", sizes.len());
        for (id, name) in names.iter().enumerate() {
            assert_eq!(index.find(name, &slots), Some(TenantId(id as u32)), "{name:?}");
        }
        for unknown in ["", "vm-10000", "vm-é-10001-雲", "tenant", "vm-0000", "10000"] {
            assert_eq!(index.find(unknown, &slots), None, "{unknown:?}");
        }
        // The layout is a pure function of the interning order.
        let mut again = InternIndex::default();
        for n in 1..=slots.len() {
            again.push(&slots[..n]);
        }
        assert_eq!(again.buckets, index.buckets);
    }

    #[test]
    fn drop_bursts_are_coalesced_and_recovery_logged() {
        let mut config = fast_config(1_000_000);
        config.session.queue_capacity = 4;
        config.session.drop_policy = crate::session::DropPolicy::Newest;
        config.drop_log_every = 8;
        let mut engine = Engine::new(config).unwrap();
        // 4 admitted + 20 dropped in one burst.
        for i in 0..24 {
            engine.ingest_line(&format!(r#"{{"tenant":"vm-0","access":{i},"miss":2}}"#));
        }
        engine.flush();
        // Queue drained: the next sample is a recovery.
        engine.ingest_line(r#"{"tenant":"vm-0","access":1,"miss":2}"#);
        engine.finish();
        let drops = engine
            .log_lines()
            .iter()
            .filter(|l| l.contains(r#""event":"dropped""#))
            .count();
        // burst 1, 8, 16 logged; 2..=7, 9..=15, 17..=20 coalesced.
        assert_eq!(drops, 3);
        assert_eq!(engine.stats().drops_backpressure, 20);
        assert!(engine
            .log_lines()
            .iter()
            .any(|l| l.contains(r#""event":"recovered""#) && l.contains(r#""burst":20"#)));
        assert_eq!(engine.stats().recoveries, 1);
    }

    #[test]
    fn finish_appends_engine_stats_line() {
        let mut engine = Engine::new(fast_config(8)).unwrap();
        engine.ingest_line(r#"{"tenant":"vm-0","access":1,"miss":2}"#);
        engine.ingest_line("garbage");
        engine.finish();
        let stats_line = engine
            .log_lines()
            .last()
            .expect("log non-empty");
        assert!(stats_line.contains(r#""event":"engine_stats""#));
        assert!(stats_line.contains(r#""malformed":1"#));
        assert!(stats_line.contains(r#""sessions":1"#));
        assert!(stats_line.contains(r#""evicted":0"#));
        let obj = JsonObject::parse(stats_line).expect("stats line parses");
        assert!(obj.get_f64("peak_queued").is_some());
        assert_eq!(obj.get_f64("open_sessions"), Some(1.0));
    }

    #[test]
    fn log_lines_are_valid_jsonl_with_seq() {
        let lines = synthetic_lines();
        let log = run(fast_config(128), &lines);
        let mut last = None;
        for line in &log {
            let obj = JsonObject::parse(line).expect("log line parses");
            let seq = obj.get_f64("seq").expect("seq present");
            assert!(obj.get_str("event").is_some());
            if let Some(prev) = last {
                assert!(seq >= prev, "log sorted by seq");
            }
            last = Some(seq);
        }
    }

    /// `line` with its tenant name written entirely as `\u` escapes.
    fn escape_tenant(line: &str) -> String {
        let Some((head, rest)) = line.split_once(r#""tenant":""#) else {
            return line.to_string();
        };
        let Some((name, tail)) = rest.split_once('"') else {
            return line.to_string();
        };
        let name: String = name.chars().map(|c| format!("\\u{:04x}", c as u32)).collect();
        format!(r#"{head}"tenant":"{name}"{tail}"#)
    }

    #[test]
    fn escaped_tenant_names_produce_identical_log() {
        // Escape decoding must be unobservable in the output: the same
        // records with every tenant name written as `\u` escapes log the
        // same bytes, around dirty lines, fused records, closes and
        // reopens (the dirty lines stay as they are).
        let mut lines = synthetic_lines();
        lines.insert(100, "not json at all".to_string());
        lines.insert(
            200,
            "{\"tenant\":\"vm-a\",\"acc{\"tenant\":\"vm-a\",\"access\":1,\"miss\":2}".to_string(),
        );
        lines.insert(400, r#"{"tenant":"vm-c","ctl":"close"}"#.to_string());
        let escaped: Vec<String> = lines
            .iter()
            .map(|l| if Record::parse(l).is_ok() { escape_tenant(l) } else { l.clone() })
            .collect();
        assert_eq!(escape_tenant(&lines[0]), r#"{"tenant":"\u0076\u006d\u002d\u0061","access":1000,"miss":100}"#);
        assert_eq!(run(fast_config(256), &escaped), run(fast_config(256), &lines));
    }

    #[test]
    fn profiler_fields_appear_only_when_enabled() {
        let run_stats_line = |prof: bool| {
            let mut engine =
                Engine::new(Config { prof, ..fast_config(8) }).unwrap();
            engine.ingest_line(r#"{"tenant":"vm-0","access":1,"miss":2}"#);
            engine.finish();
            engine.log_lines().last().cloned().expect("stats line")
        };
        let plain = run_stats_line(false);
        assert!(!plain.contains("prof_decode_ns"));
        let profiled = run_stats_line(true);
        for key in [
            "prof_decode_ns",
            "prof_decode_bin_ns",
            "prof_dispatch_ns",
            "prof_step_ns",
            "prof_merge_ns",
            "prof_write_ns",
            "prof_reclaim_ns",
        ] {
            assert!(profiled.contains(key), "missing {key} in {profiled}");
        }
        let obj = JsonObject::parse(&profiled).expect("stats line parses");
        assert!(obj.get_f64("prof_decode_ns").is_some());
    }

    #[test]
    fn rejects_invalid_config() {
        assert!(Engine::new(Config { workers: 0, ..Config::default() }).is_err());
        assert!(Engine::new(Config { batch: 0, ..Config::default() }).is_err());
        assert!(
            Engine::new(Config { drop_log_every: 0, ..Config::default() }).is_err()
        );
    }
}
