//! The LLC cleansing attack, with its probe prelude.
//!
//! §2.2 of the paper, step by step:
//!
//! 1. "the attack VM first allocates a memory buffer covering the entire
//!    LLC" — the attacker owns one line per (set, way) pair;
//! 2. "the attack VM accesses some cache lines belonging to each cache
//!    set and figures out the maximum number of cache lines which can be
//!    accessed without causing cache conflicts. If this number is smaller
//!    than the set associativity, it means that other VMs have frequently
//!    occupied some cache lines in this set" — implemented as a
//!    prime-then-probe pass: fill every set with the attacker's `ways`
//!    lines, then re-access them and count self-misses per set;
//! 3. "the attack VM launches the LLC cleansing attack by repeatedly
//!    cleansing these cache lines" — a tight loop that bursts all `ways`
//!    lines of each *target* set back to back (a burst is what defeats
//!    LRU: a sequential stream would only evict the attacker's own stale
//!    lines).
//!
//! The attacker re-probes periodically so the target list tracks a
//! victim whose hot sets move between phases.

use memdos_sim::cache::CacheGeometry;
use memdos_sim::program::{AccessOutcome, MemOp, ProgramCtx, VmProgram};

/// Parameters of the cleansing attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcCleanseConfig {
    /// Number of cache sets.
    pub sets: u64,
    /// Set associativity.
    pub ways: u64,
    /// A set becomes a cleansing target when at least this many of the
    /// attacker's primed lines were evicted between prime and probe.
    pub conflict_threshold: u64,
    /// Cleansing passes between re-probes (0 = probe once, never again).
    pub passes_per_probe: u64,
}

impl LlcCleanseConfig {
    /// Default intensity for a cache of the given geometry.
    pub fn for_geometry(geometry: CacheGeometry) -> Self {
        LlcCleanseConfig {
            sets: geometry.sets as u64,
            ways: geometry.ways as u64,
            conflict_threshold: 1,
            passes_per_probe: 16,
        }
    }
}

/// Internal phase of the attack state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Filling every set with the attacker's own lines.
    Prime { set: u64, way: u64 },
    /// Re-accessing the primed lines, counting self-misses per set.
    Probe { set: u64, way: u64 },
    /// Bursting the lines of target sets.
    Cleanse { target_idx: usize, way: u64, passes: u64 },
}

/// The LLC cleansing attack program.
#[derive(Debug, Clone)]
pub struct LlcCleanseAttack {
    cfg: LlcCleanseConfig,
    phase: Phase,
    /// Self-miss count per set during the current probe pass.
    conflicts: Vec<u64>,
    /// Sets identified as occupied by other VMs.
    targets: Vec<u64>,
    /// The (set, way) whose outcome the next `last_outcome` reports.
    in_flight: Option<(u64, u64)>,
    probes_completed: u64,
}

impl LlcCleanseAttack {
    /// Creates the attack.
    ///
    /// # Panics
    ///
    /// Panics if `sets == 0`, `ways == 0`, or
    /// `conflict_threshold > ways`.
    pub fn new(cfg: LlcCleanseConfig) -> Self {
        assert!(cfg.sets > 0 && cfg.ways > 0, "geometry must be non-empty");
        assert!(
            cfg.conflict_threshold >= 1 && cfg.conflict_threshold <= cfg.ways,
            "conflict threshold must be in [1, ways]"
        );
        LlcCleanseAttack {
            cfg,
            phase: Phase::Prime { set: 0, way: 0 },
            conflicts: vec![0; cfg.sets as usize],
            targets: Vec::new(),
            in_flight: None,
            probes_completed: 0,
        }
    }

    /// Line address of the attacker's buffer entry for `(set, way)`: the
    /// buffer covers the entire LLC, one line per slot.
    fn line_for(&self, set: u64, way: u64) -> u64 {
        set + way * self.cfg.sets
    }

    /// Sets currently targeted for cleansing (empty until the first probe
    /// completes).
    pub fn targets(&self) -> &[u64] {
        &self.targets
    }

    /// Completed probe passes.
    pub fn probes_completed(&self) -> u64 {
        self.probes_completed
    }

    /// Records the outcome of the previous probe access, if one was in
    /// flight.
    fn absorb_outcome(&mut self, outcome: Option<AccessOutcome>) {
        if let Some((set, _way)) = self.in_flight.take() {
            if outcome == Some(AccessOutcome::Miss) {
                if let Some(c) = self.conflicts.get_mut(set as usize) {
                    *c += 1;
                }
            }
        }
    }

    /// Finalises a probe pass into a target list.
    fn finish_probe(&mut self) {
        self.targets = self
            .conflicts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c >= self.cfg.conflict_threshold)
            .map(|(s, _)| s as u64)
            .collect();
        self.probes_completed += 1;
        self.conflicts.fill(0);
    }
}

impl VmProgram for LlcCleanseAttack {
    fn next_op(&mut self, ctx: &mut ProgramCtx<'_>) -> MemOp {
        match self.phase {
            Phase::Prime { set, way } => {
                let line = self.line_for(set, way);
                let (mut nset, mut nway) = (set, way + 1);
                if nway == self.cfg.ways {
                    nway = 0;
                    nset += 1;
                }
                self.phase = if nset == self.cfg.sets {
                    Phase::Probe { set: 0, way: 0 }
                } else {
                    Phase::Prime { set: nset, way: nway }
                };
                MemOp::read(line)
            }
            Phase::Probe { set, way } => {
                // First consume the outcome of the previous probe op.
                self.absorb_outcome(ctx.last_outcome);
                let line = self.line_for(set, way);
                self.in_flight = Some((set, way));
                let (mut nset, mut nway) = (set, way + 1);
                if nway == self.cfg.ways {
                    nway = 0;
                    nset += 1;
                }
                if nset == self.cfg.sets {
                    // The final in-flight outcome is absorbed on the
                    // first cleansing op; close enough for a 1-op tail.
                    self.phase = Phase::Cleanse { target_idx: 0, way: 0, passes: 0 };
                } else {
                    self.phase = Phase::Probe { set: nset, way: nway };
                }
                MemOp::read(line)
            }
            Phase::Cleanse { target_idx, way, passes } => {
                if target_idx == 0 && way == 0 {
                    self.absorb_outcome(ctx.last_outcome);
                    if passes == 0 {
                        self.finish_probe();
                    }
                }
                if self.targets.is_empty() {
                    // Nothing occupied: idle briefly, then re-probe.
                    self.phase = Phase::Prime { set: 0, way: 0 };
                    return MemOp::Compute { cycles: 10_000 };
                }
                let set = match self.targets.get(target_idx) {
                    Some(&s) => s,
                    // Out-of-range cursor (target list shrank after a
                    // re-probe): restart the probe cycle.
                    None => {
                        self.phase = Phase::Prime { set: 0, way: 0 };
                        return MemOp::Compute { cycles: 10_000 };
                    }
                };
                let line = self.line_for(set, way);
                let (mut nidx, mut nway) = (target_idx, way + 1);
                if nway == self.cfg.ways {
                    nway = 0;
                    nidx += 1;
                }
                if nidx == self.targets.len() {
                    let next_passes = passes + 1;
                    if self.cfg.passes_per_probe > 0
                        && next_passes >= self.cfg.passes_per_probe
                    {
                        self.phase = Phase::Prime { set: 0, way: 0 };
                    } else {
                        self.phase =
                            Phase::Cleanse { target_idx: 0, way: 0, passes: next_passes };
                    }
                } else {
                    self.phase =
                        Phase::Cleanse { target_idx: nidx, way: nway, passes };
                }
                MemOp::read(line)
            }
        }
    }

    fn name(&self) -> &str {
        "llc-cleanse-attack"
    }
    fn clone_box(&self) -> Option<Box<dyn VmProgram>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memdos_sim::cache::CacheGeometry;
    use memdos_sim::server::{Server, ServerConfig};

    fn tiny_geometry() -> CacheGeometry {
        CacheGeometry { sets: 64, ways: 4 }
    }

    fn tiny_cfg() -> ServerConfig {
        ServerConfig { geometry: tiny_geometry(), ..ServerConfig::default() }
    }

    /// A victim that keeps a small hot working set resident.
    struct HotVictim;

    impl VmProgram for HotVictim {
        fn next_op(&mut self, ctx: &mut ProgramCtx<'_>) -> MemOp {
            // 32 hot lines in sets 0..32.
            MemOp::read(ctx.rng.next_below(32))
        }
        fn name(&self) -> &str {
            "hot-victim"
        }
    }

    #[test]
    fn probe_identifies_victim_sets() {
        let mut server = Server::new(tiny_cfg());
        server.add_vm("victim", Box::new(HotVictim));
        // Drive the attack manually so its state can be inspected: run it
        // inside the server for enough ticks to complete prime + probe +
        // first cleanse entry.
        let attack = LlcCleanseAttack::new(LlcCleanseConfig::for_geometry(tiny_geometry()));
        server.add_vm("attacker", Box::new(attack.clone()));
        // 64 sets × 4 ways × 2 passes ≈ 512 ops ≈ well under a tick.
        server.run_collect(3);
        // The attack instance inside the server is not observable; rerun
        // the state machine standalone against the same expectations via
        // the victim-misses test below instead. Here, check the pristine
        // instance state.
        assert_eq!(attack.probes_completed(), 0);
        assert!(attack.targets().is_empty());
    }

    #[test]
    fn cleansing_raises_victim_misses() {
        let run = |with_attack: bool| -> u64 {
            let mut server = Server::new(tiny_cfg());
            let victim = server.add_vm("victim", Box::new(HotVictim));
            if with_attack {
                let attack =
                    LlcCleanseAttack::new(LlcCleanseConfig::for_geometry(tiny_geometry()));
                server.add_vm("attacker", Box::new(attack));
            }
            server.run_collect(10);
            (0..10)
                .map(|_| server.tick().sample(victim).unwrap().misses)
                .sum()
        };
        let clean = run(false);
        let attacked = run(true);
        assert!(
            attacked > clean * 5 + 50,
            "cleansing ineffective: {clean} -> {attacked}"
        );
    }

    #[test]
    fn probe_marks_only_contended_sets() {
        // Standalone state-machine walk with a synthetic outcome feed:
        // report misses for sets < 8 during the probe pass, hits
        // elsewhere.
        let cfg = LlcCleanseConfig {
            sets: 16,
            ways: 2,
            conflict_threshold: 1,
            passes_per_probe: 4,
        };
        let mut attack = LlcCleanseAttack::new(cfg);
        let mut rng = memdos_sim::rng::Rng::new(1);
        let mut last: Option<AccessOutcome> = None;
        let mut issued: Vec<(u64, MemOp)> = Vec::new();
        for step in 0..(16 * 2/*prime*/ + 16 * 2/*probe*/ + 1) {
            let mut ctx = ProgramCtx { rng: &mut rng, last_outcome: last, tick: 0 };
            let op = attack.next_op(&mut ctx);
            // Synthesize the outcome: during the probe pass the lines of
            // sets 0..8 were "evicted by the victim".
            last = match op {
                MemOp::Access { line, .. } => {
                    let set = line % 16;
                    let probing = step >= 32; // after the prime pass
                    Some(if probing && set < 8 {
                        AccessOutcome::Miss
                    } else {
                        AccessOutcome::Hit
                    })
                }
                _ => last,
            };
            issued.push((step, op));
        }
        assert_eq!(attack.probes_completed(), 1);
        let targets = attack.targets().to_vec();
        assert_eq!(targets, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn idle_when_nothing_contended() {
        let cfg = LlcCleanseConfig {
            sets: 4,
            ways: 2,
            conflict_threshold: 1,
            passes_per_probe: 2,
        };
        let mut attack = LlcCleanseAttack::new(cfg);
        let mut rng = memdos_sim::rng::Rng::new(1);
        let mut saw_idle = false;
        let mut last = None;
        for _ in 0..40 {
            let mut ctx = ProgramCtx { rng: &mut rng, last_outcome: last, tick: 0 };
            let op = attack.next_op(&mut ctx);
            if let MemOp::Access { .. } = op {
                last = Some(AccessOutcome::Hit); // never any conflict
            }
            if matches!(op, MemOp::Compute { .. }) {
                saw_idle = true;
            }
        }
        assert!(saw_idle, "attacker should idle when no set is contended");
        assert!(attack.targets().is_empty());
    }

    #[test]
    #[should_panic(expected = "conflict threshold")]
    fn rejects_bad_threshold() {
        LlcCleanseAttack::new(LlcCleanseConfig {
            sets: 4,
            ways: 2,
            conflict_threshold: 3,
            passes_per_probe: 1,
        });
    }
}
