//! Set-associative last-level cache shared between tenant domains.
//!
//! Models the structure the LLC cleansing attack manipulates (§2.2 of the
//! paper): cache lines live in sets; a tenant that touches enough distinct
//! lines mapping to a set evicts other tenants' lines from it, raising
//! their miss counts. Each line is tagged with the *domain* (VM) that
//! loaded it, so per-VM `AccessNum`/`MissNum` counters — the statistics
//! PCM exports — can be maintained exactly.
//!
//! Replacement is true LRU within a set (the E5-2660's LLC is
//! pseudo-LRU; true LRU preserves the eviction behaviour the attack
//! relies on while keeping the model simple and deterministic).
//!
//! ## Layout
//!
//! Line metadata is stored structure-of-arrays: per-way LRU timestamps
//! (`ts`, where 0 means *invalid* — the access clock pre-increments, so
//! every valid line carries a timestamp ≥ 1) separate from the per-way
//! tags (`addr >> log2(sets)`, `u32` unless an address needs more) and
//! owning domains, which the hot path never reads. Hits resolve through
//! a per-domain *presence directory* (`dirs[domain][addr]` = way + 1,
//! 0 = absent), each domain's array sized to that domain's own address
//! range and maintained exactly on fill/evict/flush, so the common case
//! is O(1) with no tag compare at all; the tag arrays are only consulted
//! to identify eviction victims. Behaviour is identical to the
//! straightforward scan — the directory is an index, not a cache — and
//! a clone leaves it behind: the copy rebuilds it from the line metadata
//! on its first access, so a waiting snapshot costs only the metadata.

/// Identifier of a cache-ownership domain (one per VM, plus domain 0 for
/// the hypervisor's own monitoring activity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainId(pub u16);

impl std::fmt::Display for DomainId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dom{}", self.0)
    }
}

/// Outcome of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled (possibly evicting a
    /// victim line, reported in the payload).
    Miss {
        /// Domain whose line was evicted to make room, if the chosen way
        /// held a valid line.
        evicted: Option<DomainId>,
    },
}

impl CacheOutcome {
    /// Whether this outcome is a miss.
    pub fn is_miss(&self) -> bool {
        matches!(self, CacheOutcome::Miss { .. })
    }
}

/// Per-domain access counters for one sampling interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DomainCounters {
    /// LLC accesses in the current interval (the paper's `AccessNum`).
    pub accesses: u64,
    /// LLC misses in the current interval (the paper's `MissNum`).
    pub misses: u64,
}

/// Interval and cumulative counters of one domain, kept together so one
/// access touches a single stats slot. The hot path bumps only
/// `interval`; `drained` accumulates past intervals when PCM drains, so
/// the all-time totals are `drained + interval` — two counter updates
/// per access become one without losing exactness.
#[derive(Debug, Clone, Copy, Default)]
struct DomainStat {
    interval: DomainCounters,
    drained: DomainCounters,
}

/// Geometry of the simulated LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Number of sets. Must be a power of two.
    pub sets: usize,
    /// Associativity (lines per set).
    pub ways: usize,
}

impl CacheGeometry {
    /// Total number of lines.
    pub fn lines(&self) -> usize {
        self.sets * self.ways
    }
}

impl Default for CacheGeometry {
    /// Scaled-down default: 4096 sets × 20 ways (the paper's LLC is
    /// 20-way; the set count is reduced from 28 672 so experiments run at
    /// interactive speed — working-set sizes in `memdos-workloads` are
    /// scaled to match).
    fn default() -> Self {
        CacheGeometry { sets: 4096, ways: 20 }
    }
}

/// Largest line address tracked by the presence directory. Addresses at
/// or above this fall back to the tag scan (identical behaviour, slower)
/// so a stray huge address cannot balloon the directory allocation.
const DIRECTORY_LIMIT: u64 = 1 << 21;

/// Per-way line tags: `addr >> log2(sets)`, the address bits the set
/// index does not already carry. Narrow (`u32`) until the first fill
/// whose tag does not fit, which widens the whole array once — a cold
/// path no simulated workload reaches, kept so every `u64` line address
/// stays exact.
#[derive(Debug, Clone)]
enum Tags {
    Narrow(Vec<u32>),
    Wide(Vec<u64>),
}

impl Tags {
    /// The tag of way `i`.
    #[inline]
    fn get(&self, i: usize) -> u64 {
        match self {
            Tags::Narrow(v) => v.get(i).map_or(0, |&t| u64::from(t)),
            Tags::Wide(v) => v.get(i).copied().unwrap_or(0),
        }
    }

    /// Stores `tag` at way `i`, widening the array if it does not fit.
    #[inline]
    fn set(&mut self, i: usize, tag: u64) {
        match self {
            Tags::Narrow(v) => match u32::try_from(tag) {
                Ok(t) => {
                    if let Some(slot) = v.get_mut(i) {
                        *slot = t;
                    }
                }
                Err(_) => self.widen(i, tag),
            },
            Tags::Wide(v) => {
                if let Some(slot) = v.get_mut(i) {
                    *slot = tag;
                }
            }
        }
    }

    /// Converts a narrow array to the wide one and stores `tag` at `i`.
    #[cold]
    fn widen(&mut self, i: usize, tag: u64) {
        if let Tags::Narrow(v) = self {
            let mut wide: Vec<u64> = v.iter().map(|&t| u64::from(t)).collect();
            if let Some(slot) = wide.get_mut(i) {
                *slot = tag;
            }
            *self = Tags::Wide(wide);
        }
    }
}

/// The shared last-level cache.
#[derive(Debug)]
pub struct Llc {
    geometry: CacheGeometry,
    /// `log2(sets)`: the shift between a line address and its tag.
    set_bits: u32,
    /// Per-way LRU timestamp; 0 = invalid way. Valid lines always carry
    /// ts ≥ 1 because the clock pre-increments before every access.
    ///
    /// `u32` on purpose: LRU only needs the *relative order* of the
    /// stamps, and halving their width halves the victim scan's memory
    /// traffic. Before the clock would overflow a `u32`, the stamps are
    /// compacted to their ranks ([`Llc::rebase_timestamps`]) — an
    /// order-preserving renumbering, so replacement decisions are
    /// identical to an unbounded clock.
    ts: Vec<u32>,
    /// Per-way line tag; meaningful only where `ts` is non-zero. A way's
    /// address is `tag << set_bits | set`.
    tags: Tags,
    /// Per-way owning domain; meaningful only where `ts` is non-zero.
    doms: Vec<u16>,
    clock: u64,
    stats: Vec<DomainStat>,
    /// Presence directory, one array per domain sized to that domain's
    /// own address range: `dirs[domain][addr] = way + 1` (0 = absent).
    /// A domain's array grows on demand (power-of-two lengths, capped at
    /// [`DIRECTORY_LIMIT`]) the first time a fill needs a larger
    /// address. Maintained exactly on fill/evict/flush, so a non-zero
    /// entry *is* a hit — no tag verification needed — and every
    /// resident line below its domain's length has an entry, so a zero
    /// entry *is* a miss.
    dirs: Vec<Vec<u8>>,
    /// False on an index-free copy ([`Llc::clone`]) until its first
    /// access rebuilds `dirs` from the line metadata.
    dirs_ready: bool,
    /// Directory disabled when a way index cannot fit in the `u8` slots
    /// (associativity > 255); every access then uses the tag scan.
    use_directory: bool,
}

impl Clone for Llc {
    /// Copies the cache *without* its presence directory: the directory
    /// is an index over `ts`/`tags`/`doms`, not state, so the copy
    /// rebuilds it before its first access. A snapshot that waits while
    /// the original runs on therefore costs only the line metadata.
    fn clone(&self) -> Self {
        Llc {
            geometry: self.geometry,
            set_bits: self.set_bits,
            ts: self.ts.clone(),
            tags: self.tags.clone(),
            doms: self.doms.clone(),
            clock: self.clock,
            stats: self.stats.clone(),
            dirs: vec![Vec::new(); self.dirs.len()],
            dirs_ready: false,
            use_directory: self.use_directory,
        }
    }
}

impl Llc {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways == 0`.
    pub fn new(geometry: CacheGeometry) -> Self {
        assert!(
            geometry.sets.is_power_of_two() && geometry.sets > 0,
            "set count must be a power of two"
        );
        assert!(geometry.ways > 0, "associativity must be positive");
        Llc {
            geometry,
            set_bits: geometry.sets.trailing_zeros(),
            ts: vec![0; geometry.lines()],
            tags: Tags::Narrow(vec![0; geometry.lines()]),
            doms: vec![u16::MAX; geometry.lines()],
            clock: 0,
            stats: Vec::new(),
            dirs: Vec::new(),
            dirs_ready: true,
            use_directory: geometry.ways <= u8::MAX as usize,
        }
    }

    /// Cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Registers a new counter domain and returns its id.
    pub fn register_domain(&mut self) -> DomainId {
        let id = DomainId(self.stats.len() as u16);
        self.stats.push(DomainStat::default());
        self.dirs.push(Vec::new());
        id
    }

    /// Records way `way` (of its set) as holding `addr` for domain `d`,
    /// growing that domain's directory if `addr` lies past its end.
    /// Addresses outside the directory's range are left to the tag scan.
    #[inline]
    fn index_line(&mut self, d: usize, addr: u64, way: usize) {
        if !self.use_directory || addr >= DIRECTORY_LIMIT {
            return;
        }
        let Some(dir) = self.dirs.get_mut(d) else { return };
        if addr as usize >= dir.len() {
            Self::grow_directory(dir, addr as usize);
        }
        if let Some(slot) = dir.get_mut(addr as usize) {
            *slot = (way + 1) as u8;
        }
    }

    /// Grows one domain's directory so `addr` fits. Cold: runs only the
    /// first time a fill outgrows the domain's current length.
    #[cold]
    fn grow_directory(dir: &mut Vec<u8>, addr: usize) {
        let len = (addr + 1).next_power_of_two().min(DIRECTORY_LIMIT as usize);
        dir.reserve_exact(len - dir.len());
        dir.resize(len, 0);
    }

    /// Rebuilds the presence directory from the line metadata — the
    /// first access of an index-free copy. Cold: once per copy.
    #[cold]
    fn rebuild_directory(&mut self) {
        self.dirs_ready = true;
        let ways = self.geometry.ways;
        for i in 0..self.ts.len() {
            if self.ts.get(i).copied().unwrap_or(0) == 0 {
                continue;
            }
            let addr = (self.tags.get(i) << self.set_bits) | (i / ways) as u64;
            let d = self.doms.get(i).copied().unwrap_or(u16::MAX) as usize;
            self.index_line(d, addr, i % ways);
        }
    }

    /// Compacts every valid LRU timestamp to its rank (1-based, in
    /// timestamp order) and resets the clock to the number of valid
    /// lines. Strictly order-preserving — valid stamps are unique, so
    /// ranking them changes no replacement decision, ever — which makes
    /// the `u32` stamp width an implementation detail rather than a
    /// behavioural limit. Cold: fires once every ~4 × 10⁹ accesses.
    #[cold]
    fn rebase_timestamps(&mut self) {
        let mut order: Vec<(u32, u32)> = self
            .ts
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t != 0)
            .map(|(i, &t)| (t, i as u32))
            .collect();
        order.sort_unstable();
        for (rank, &(_, i)) in order.iter().enumerate() {
            if let Some(t) = self.ts.get_mut(i as usize) {
                *t = rank as u32 + 1;
            }
        }
        self.clock = order.len() as u64;
    }

    /// Test hook: fast-forwards the access clock so the timestamp rebase
    /// path can be exercised without simulating 4 × 10⁹ accesses.
    #[cfg(test)]
    fn set_clock_for_test(&mut self, clock: u64) {
        self.clock = clock;
    }

    /// Set index a line address maps to.
    pub fn set_of(&self, addr: u64) -> usize {
        (addr as usize) & (self.geometry.sets - 1)
    }

    /// Performs one access by `domain` to line `addr`, updating LRU state
    /// and counters, filling on miss.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `domain` was not registered.
    pub fn access(&mut self, domain: DomainId, addr: u64) -> CacheOutcome {
        debug_assert!((domain.0 as usize) < self.stats.len(), "unregistered domain");
        if !self.dirs_ready {
            self.rebuild_directory();
        }
        self.clock += 1;
        if self.clock >= u32::MAX as u64 {
            self.rebase_timestamps();
            self.clock += 1;
        }
        let stamp = self.clock as u32;
        let d = domain.0 as usize;
        let set = self.set_of(addr);
        let base = set * self.geometry.ways;
        let tag = addr >> self.set_bits;

        if let Some(s) = self.stats.get_mut(d) {
            s.interval.accesses += 1;
        }

        // Fast path: the presence directory resolves hits with a single
        // indexed load. A domain's directory is empty both before its
        // first fill and when the directory is disabled, so one bounds
        // check covers all three gates.
        let dir = self.dirs.get(d).map_or(&[][..], Vec::as_slice);
        if let Some(&way) = dir.get(addr as usize) {
            if way != 0 {
                if let Some(t) = self.ts.get_mut(base + way as usize - 1) {
                    *t = stamp;
                }
                return CacheOutcome::Hit;
            }
            // Directory says absent: this is a miss by construction.
        } else if self.use_directory && addr < DIRECTORY_LIMIT {
            // Tracked address range, directory not grown this far yet:
            // not resident, so a miss by construction.
        } else {
            // Tag-scan hit path for addresses outside the directory.
            for i in base..base + self.geometry.ways {
                let valid = self.ts.get(i).copied().unwrap_or(0) != 0;
                if valid
                    && self.tags.get(i) == tag
                    && self.doms.get(i).copied() == Some(domain.0)
                {
                    if let Some(t) = self.ts.get_mut(i) {
                        *t = stamp;
                    }
                    return CacheOutcome::Hit;
                }
            }
        }

        // Miss: evict LRU (invalid ways have timestamp 0 and win; ties
        // break to the lowest way index, matching the reference scan).
        if let Some(s) = self.stats.get_mut(d) {
            s.interval.misses += 1;
        }
        let mut victim = base;
        let mut victim_ts = u32::MAX;
        for (i, &t) in self.ts[base..base + self.geometry.ways].iter().enumerate() {
            if t < victim_ts {
                victim_ts = t;
                victim = base + i;
            }
        }
        let evicted = if victim_ts != 0 {
            let old_addr = (self.tags.get(victim) << self.set_bits) | set as u64;
            let old_dom = self.doms.get(victim).copied().unwrap_or(u16::MAX);
            if let Some(slot) = self
                .dirs
                .get_mut(old_dom as usize)
                .and_then(|dir| dir.get_mut(old_addr as usize))
            {
                *slot = 0;
            }
            Some(DomainId(old_dom))
        } else {
            None
        };
        if let Some(t) = self.ts.get_mut(victim) {
            *t = stamp;
        }
        self.tags.set(victim, tag);
        if let Some(o) = self.doms.get_mut(victim) {
            *o = domain.0;
        }
        self.index_line(d, addr, victim - base);
        CacheOutcome::Miss { evicted }
    }

    /// Reads and clears the per-interval counters of `domain` (what PCM
    /// does every `T_PCM`).
    pub fn drain_counters(&mut self, domain: DomainId) -> DomainCounters {
        match self.stats.get_mut(domain.0 as usize) {
            Some(s) => {
                let c = std::mem::take(&mut s.interval);
                s.drained.accesses += c.accesses;
                s.drained.misses += c.misses;
                c
            }
            None => DomainCounters::default(),
        }
    }

    /// Cumulative counters of `domain` since creation (never reset).
    pub fn totals(&self, domain: DomainId) -> DomainCounters {
        self.stats
            .get(domain.0 as usize)
            .map(|s| DomainCounters {
                accesses: s.drained.accesses + s.interval.accesses,
                misses: s.drained.misses + s.interval.misses,
            })
            .unwrap_or_default()
    }

    /// Number of valid lines currently owned by `domain` — used by tests
    /// and by the cleansing attacker's probe validation.
    pub fn occupancy(&self, domain: DomainId) -> usize {
        self.ts
            .iter()
            .zip(&self.doms)
            .filter(|&(&t, &o)| t != 0 && o == domain.0)
            .count()
    }

    /// Number of valid lines owned by `domain` in one set.
    pub fn set_occupancy(&self, domain: DomainId, set: usize) -> usize {
        let base = set * self.geometry.ways;
        let end = base + self.geometry.ways;
        self.ts[base..end]
            .iter()
            .zip(&self.doms[base..end])
            .filter(|&(&t, &o)| t != 0 && o == domain.0)
            .count()
    }

    /// Invalidates every line (used between experiment stages in tests).
    pub fn flush(&mut self) {
        self.ts.fill(0);
        for dir in &mut self.dirs {
            dir.fill(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Llc {
        Llc::new(CacheGeometry { sets: 4, ways: 2 })
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = small();
        let d = c.register_domain();
        assert!(c.access(d, 0).is_miss());
        assert_eq!(c.access(d, 0), CacheOutcome::Hit);
        let counters = c.drain_counters(d);
        assert_eq!(counters.accesses, 2);
        assert_eq!(counters.misses, 1);
    }

    #[test]
    fn drain_resets_interval_counters_but_not_totals() {
        let mut c = small();
        let d = c.register_domain();
        c.access(d, 0);
        c.drain_counters(d);
        assert_eq!(c.drain_counters(d), DomainCounters::default());
        assert_eq!(c.totals(d).accesses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small();
        let d = c.register_domain();
        // Set 0 holds lines {0, 4, 8, ...} (addr % 4 == 0). Ways = 2.
        c.access(d, 0);
        c.access(d, 4);
        c.access(d, 0); // refresh line 0; line 4 is now LRU
        let out = c.access(d, 8); // evicts line 4
        assert!(out.is_miss());
        assert_eq!(c.access(d, 0), CacheOutcome::Hit); // 0 survived
        assert!(c.access(d, 4).is_miss()); // 4 was evicted
    }

    #[test]
    fn domains_conflict_in_sets_but_never_share_lines() {
        let mut c = small();
        let a = c.register_domain();
        let b = c.register_domain();
        c.access(a, 0);
        // Same line address from another domain is a *different* line.
        assert!(c.access(b, 0).is_miss());
        assert_eq!(c.access(a, 0), CacheOutcome::Hit);
        assert_eq!(c.access(b, 0), CacheOutcome::Hit);
    }

    #[test]
    fn cross_domain_eviction_is_reported() {
        let mut c = small();
        let victim = c.register_domain();
        let attacker = c.register_domain();
        c.access(victim, 0); // set 0
        // Attacker fills set 0 with two of its own lines, evicting victim.
        let o1 = c.access(attacker, 0);
        let o2 = c.access(attacker, 4);
        assert!(o1.is_miss() && o2.is_miss());
        let evictions = [o1, o2]
            .iter()
            .filter_map(|o| match o {
                CacheOutcome::Miss { evicted } => *evicted,
                _ => None,
            })
            .collect::<Vec<_>>();
        assert!(evictions.contains(&victim));
        // Victim now misses again: the cleansing-attack effect.
        assert!(c.access(victim, 0).is_miss());
    }

    #[test]
    fn occupancy_tracks_ownership() {
        let mut c = small();
        let a = c.register_domain();
        let b = c.register_domain();
        for addr in 0..4u64 {
            c.access(a, addr);
        }
        assert_eq!(c.occupancy(a), 4);
        assert_eq!(c.occupancy(b), 0);
        assert_eq!(c.set_occupancy(a, 0), 1);
        c.flush();
        assert_eq!(c.occupancy(a), 0);
    }

    #[test]
    fn working_set_within_capacity_stays_resident() {
        let mut c = Llc::new(CacheGeometry { sets: 64, ways: 8 });
        let d = c.register_domain();
        let ws: Vec<u64> = (0..256).collect(); // 256 lines « 512 capacity
        for &a in &ws {
            c.access(d, a);
        }
        c.drain_counters(d);
        for &a in &ws {
            assert_eq!(c.access(d, a), CacheOutcome::Hit);
        }
        assert_eq!(c.drain_counters(d).misses, 0);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut c = Llc::new(CacheGeometry { sets: 64, ways: 8 });
        let d = c.register_domain();
        // Streaming over 2× capacity with LRU: every access misses.
        for round in 0..2 {
            for a in 0..1024u64 {
                let out = c.access(d, a);
                if round == 1 {
                    assert!(out.is_miss());
                }
            }
        }
    }

    #[test]
    fn presence_directory_never_changes_outcomes() {
        // Alternate domains and addresses within one set; directory
        // entries must track fills, evictions and flushes exactly, so
        // results match plain LRU semantics.
        let mut c = small();
        let a = c.register_domain();
        let b = c.register_domain();
        assert!(c.access(a, 0).is_miss());
        assert_eq!(c.access(a, 0), CacheOutcome::Hit); // fast path
        assert!(c.access(b, 0).is_miss()); // same set, different domain
        assert_eq!(c.access(b, 0), CacheOutcome::Hit);
        assert_eq!(c.access(a, 0), CacheOutcome::Hit); // both resident
        c.flush();
        assert!(c.access(a, 0).is_miss()); // directory cleared by flush
    }

    #[test]
    fn directory_entry_cleared_on_eviction() {
        // Ways = 2: two foreign fills evict a's line; a stale directory
        // entry would turn the subsequent access into a phantom hit.
        let mut c = small();
        let a = c.register_domain();
        let b = c.register_domain();
        c.access(a, 0);
        c.access(b, 0);
        c.access(b, 4); // set 0 now holds only b's lines
        assert!(c.access(a, 0).is_miss(), "evicted line must miss");
        assert_eq!(c.occupancy(b), 1, "a's fill evicted one of b's lines");
    }

    #[test]
    fn addresses_beyond_directory_limit_use_scan_path() {
        let mut c = small();
        let d = c.register_domain();
        let jumbo = DIRECTORY_LIMIT + 4; // same set as line 0 (mod 4)
        assert!(c.access(d, jumbo).is_miss());
        assert_eq!(c.access(d, jumbo), CacheOutcome::Hit);
        // Jumbo and small addresses share sets and evict each other.
        assert!(c.access(d, jumbo + 4).is_miss());
        assert!(c.access(d, jumbo + 8).is_miss()); // evicts `jumbo`
        assert!(c.access(d, jumbo).is_miss());
        assert_eq!(c.occupancy(d), 2);
        // Past `sets << 32` a tag (`addr >> 2` here) no longer fits a
        // u32. Each pair below agrees in the low 32 tag bits and must
        // still be two lines: set 1 holds tags 0 and 2^32, set 3 the
        // largest tag there is and its low half.
        let e = c.register_domain();
        let wrap = 4u64 << 32;
        let wide = [(e, 1), (e, 1 + wrap), (d, u64::MAX), (d, u64::MAX & 0xFFFF_FFFF)];
        for (dom, addr) in wide {
            assert!(c.access(dom, addr).is_miss(), "{addr:#x} aliased a resident line");
        }
        for (dom, addr) in wide {
            assert_eq!(c.access(dom, addr), CacheOutcome::Hit, "{addr:#x} after widening");
        }
        // A clone rebuilds its directory from the wide tags: the small
        // addresses are indexed again, the others resolve by scan.
        let mut copy = c.clone();
        for (dom, addr) in wide.into_iter().chain([(d, jumbo), (d, jumbo + 8)]) {
            assert_eq!(copy.access(dom, addr), CacheOutcome::Hit, "{addr:#x} in the clone");
        }
        assert_eq!(copy.occupancy(d), 4);
        assert_eq!(copy.occupancy(e), 2);
    }

    /// The plain tag-scan LRU the directory-indexed cache must agree
    /// with: full `u64` addresses, no index, first invalid way else the
    /// least recent.
    struct ScanLlc {
        sets: usize,
        ways: usize,
        /// `(addr, domain, stamp)` per way.
        lines: Vec<Option<(u64, u16, u64)>>,
        clock: u64,
    }

    impl ScanLlc {
        fn new(g: CacheGeometry) -> Self {
            ScanLlc { sets: g.sets, ways: g.ways, lines: vec![None; g.lines()], clock: 0 }
        }

        fn access(&mut self, dom: DomainId, addr: u64) -> CacheOutcome {
            self.clock += 1;
            let base = (addr as usize & (self.sets - 1)) * self.ways;
            let set = &mut self.lines[base..base + self.ways];
            if let Some(line) = set.iter_mut().flatten().find(|l| l.0 == addr && l.1 == dom.0) {
                line.2 = self.clock;
                return CacheOutcome::Hit;
            }
            let victim = set.iter().position(Option::is_none).unwrap_or_else(|| {
                (0..set.len()).min_by_key(|&i| set[i].map_or(0, |l| l.2)).unwrap()
            });
            let evicted = set[victim].map(|l| DomainId(l.1));
            set[victim] = Some((addr, dom.0, self.clock));
            CacheOutcome::Miss { evicted }
        }
    }

    #[test]
    fn interleaved_directory_growth_matches_tag_scan() {
        // Three domains take turns; each one's address range widens at
        // its own pace, so their directories grow in interleaved order
        // (and the widest one runs past the directory limit into the
        // scan path). A mid-run clone and a flush must not change a
        // single outcome either.
        let mut hits = 0;
        let g = CacheGeometry { sets: 16, ways: 4 };
        let mut c = Llc::new(g);
        let mut scan = ScanLlc::new(g);
        let doms: Vec<DomainId> = (0..3).map(|_| c.register_domain()).collect();
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        for step in 0..60_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = (step % 3) as usize;
            let bits = 4 + (step / 2_000) as u32 * (k as u32 + 1);
            let range = 1u64 << bits.min(23);
            // Three in four accesses go to a hot set at the top of the
            // domain's current range (hits, and the fills that grow its
            // directory); the rest anywhere in the range.
            let addr = if x % 4 == 0 { x % range } else { range - 1 - (x >> 8) % range.min(24) };
            let want = scan.access(doms[k], addr);
            assert_eq!(c.access(doms[k], addr), want, "step {step}: dom {k} addr {addr}");
            hits += usize::from(!want.is_miss());
            if step == 31_000 {
                c = c.clone();
            }
            if step == 45_000 {
                c.flush();
                scan.lines.fill(None);
            }
        }
        assert!(hits > 10_000, "the stream must exercise the hit path, got {hits} hits");
        for (k, &d) in doms.iter().enumerate() {
            let held = scan.lines.iter().flatten().filter(|l| l.1 == d.0).count();
            assert_eq!(c.occupancy(d), held, "dom {k} occupancy");
        }
    }

    #[test]
    fn timestamp_rebase_preserves_lru_order() {
        let mut c = small(); // 4 sets × 2 ways
        let d = c.register_domain();
        c.access(d, 0);
        c.access(d, 4); // set 0 full; line 0 is LRU
        // Park the clock just below the u32 boundary, then refresh line
        // 0 so line 4 becomes LRU with a *tiny* stamp while line 0 holds
        // a near-max one — the worst case for an order-preserving rebase.
        c.set_clock_for_test(u32::MAX as u64 - 2);
        assert_eq!(c.access(d, 0), CacheOutcome::Hit);
        // This access crosses the boundary and triggers the rebase.
        assert!(c.access(d, 8).is_miss()); // must evict LRU line 4
        assert_eq!(c.access(d, 0), CacheOutcome::Hit, "MRU line survived");
        assert!(c.access(d, 4).is_miss(), "LRU line was the victim");
        // Clock restarted from the compacted rank count, far below the
        // boundary again.
        assert!(c.clock < 100);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_sets() {
        Llc::new(CacheGeometry { sets: 3, ways: 2 });
    }

    #[test]
    fn default_geometry_matches_paper_ways() {
        // The paper's E5-2660 LLC is 20-way set-associative.
        assert_eq!(CacheGeometry::default().ways, 20);
        assert!(CacheGeometry::default().sets.is_power_of_two());
    }
}
