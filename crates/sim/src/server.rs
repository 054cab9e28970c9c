//! The discrete-event server engine.
//!
//! One engine tick is one `T_PCM` sampling interval (10 ms of simulated
//! time by default). Within a tick every *running* VM executes on its own
//! core until its cycle budget for the tick is exhausted. VMs are
//! interleaved in **global-cycle order** (the VM with the smallest
//! next-free cycle executes its next operation first), which makes
//! contention on the shared bus causally consistent: any bus lock visible
//! to an operation at cycle `t` was placed by an operation that logically
//! preceded `t`.
//!
//! ## Scheduling
//!
//! The engine is driven by the min-heap event queue in [`crate::event`]:
//! every component schedules its own next wake-up keyed by
//! `(cycle, ComponentId)`. The per-tick clock dividers — the monitoring
//! process at the tick start, the PCM sampler at the tick end — and every
//! VM's next operation are all events in the same queue, so a VM sleeping
//! through a long compute stall (an idle utility, a parked attacker
//! waiting for its [`attack window`](ComponentId)) costs one heap entry
//! instead of being polled every cycle. A *run-ahead* fast path keeps
//! executing the VM that just ran while it remains the earliest event,
//! avoiding heap traffic for back-to-back operations.
//!
//! The original cycle-budgeted scan loop is retained, byte-for-byte
//! equivalent, as [`Server::tick_reference`] behind the `reference-tick`
//! feature (always available to tests); the seeded equivalence suite at
//! the bottom of this file pins the two engines to **byte-identical**
//! PCM sample streams and counters across randomized configurations.
//!
//! ## Cost model
//!
//! | operation | cost (cycles) |
//! |---|---|
//! | LLC hit | `hit_cycles` (default 30) |
//! | LLC miss | `miss_cycles` (default 300) — includes the DRAM round-trip |
//! | atomic (bus-locking) op | `atomic_lock_cycles` (default 800), bus held exclusively |
//! | compute | as requested by the program |
//!
//! An ordinary access additionally stalls until the bus is free. An
//! operation that crosses the tick boundary simply completes during the
//! next tick (the VM's `next_free` cycle carries over).
//!
//! ## Monitoring overhead
//!
//! A detection system is not free: reading uncore counters and running
//! the analysis steals cycles from the cores ("performance overhead",
//! Fig. 12). [`ServerConfig::monitor_tax_cycles`] models this as a
//! per-tick, per-VM cycle tax, and [`Server::set_monitor_load`] lets the
//! monitoring process issue its own cache traffic (domain 0), which
//! pollutes the LLC exactly like any tenant. The KStest baseline's much
//! larger *throttling* overhead emerges naturally from
//! [`Server::pause_all_except`].

use crate::bus::{Bus, Dram};
use crate::cache::{CacheGeometry, DomainId, Llc};
use crate::event::{ComponentId, EventQueue};
use crate::hypervisor::{Hypervisor, Vm, VmId, VmState};
use crate::pcm::PcmSample;
use crate::program::{AccessOutcome, MemOp, ProgramCtx, VmProgram};
use crate::rng::Rng;

/// Configuration of a simulated server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerConfig {
    /// LLC geometry.
    pub geometry: CacheGeometry,
    /// CPU cycles available to each core per tick.
    pub tick_cycles: u64,
    /// Cost of an LLC hit.
    pub hit_cycles: u64,
    /// Cost of an LLC miss (includes the DRAM access).
    pub miss_cycles: u64,
    /// Bus-lock duration of one atomic operation.
    pub atomic_lock_cycles: u64,
    /// Simulated seconds per tick (the paper's `T_PCM`, default 0.01 s).
    pub t_pcm_secs: f64,
    /// Root seed; every VM derives its private RNG stream from it.
    pub seed: u64,
    /// Per-tick, per-VM cycle tax imposed by an active monitoring system
    /// (0 = no monitoring).
    pub monitor_tax_cycles: u64,
    /// DRAM channel service time per LLC miss (0 = infinite bandwidth).
    /// Misses queue behind each other on the shared channel, so a tenant
    /// that saturates DRAM slows every other tenant's misses.
    pub dram_service_cycles: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            geometry: CacheGeometry::default(),
            tick_cycles: 200_000,
            hit_cycles: 30,
            miss_cycles: 300,
            atomic_lock_cycles: 800,
            t_pcm_secs: 0.01,
            seed: 0x5EED,
            monitor_tax_cycles: 0,
            dram_service_cycles: 40,
        }
    }
}

impl ServerConfig {
    /// Returns a copy with a different seed — the common way experiment
    /// runners derive per-run configurations.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The PCM output of one tick: one sample per VM, in `VmId` order.
#[derive(Debug, Clone)]
pub struct TickReport {
    /// Index of the tick that just completed.
    pub tick: u64,
    /// Simulated time at the *end* of this tick, in seconds.
    pub time_secs: f64,
    /// One sample per VM.
    pub samples: Vec<PcmSample>,
}

impl TickReport {
    /// The sample of one VM, if it exists.
    pub fn sample(&self, vm: VmId) -> Option<&PcmSample> {
        self.samples.get(vm.0 as usize)
    }
}

/// A simulated multi-tenant cloud server.
pub struct Server {
    cfg: ServerConfig,
    cache: Llc,
    bus: Bus,
    dram: Dram,
    hv: Hypervisor,
    root_rng: Rng,
    tick: u64,
    monitor_domain: DomainId,
    monitor_rng: Rng,
    /// Cache lines the monitoring process touches per tick (pollution).
    monitor_load_lines: u64,
    /// The discrete-event wake-up queue, rebuilt each tick from the
    /// running set (pause/resume only happens at tick boundaries).
    queue: EventQueue,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("tick", &self.tick)
            .field("vms", &self.hv.len())
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Creates a server with no VMs.
    pub fn new(cfg: ServerConfig) -> Self {
        let mut cache = Llc::new(cfg.geometry);
        let monitor_domain = cache.register_domain();
        debug_assert_eq!(monitor_domain, DomainId(0));
        let mut root_rng = Rng::new(cfg.seed);
        let monitor_rng = root_rng.fork(u64::MAX);
        Server {
            cache,
            bus: Bus::new(),
            dram: Dram::new(cfg.dram_service_cycles),
            hv: Hypervisor::new(),
            cfg,
            root_rng,
            tick: 0,
            monitor_domain,
            monitor_rng,
            monitor_load_lines: 0,
            queue: EventQueue::with_capacity(16),
        }
    }

    /// Configuration the server was built with.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Adds a VM running `program`; returns its id.
    pub fn add_vm(&mut self, name: impl Into<String>, program: Box<dyn VmProgram>) -> VmId {
        self.add_vm_parallel(name, program, 1)
    }

    /// Adds a VM with memory-level parallelism: its ordinary accesses and
    /// compute advance its core clock at `1/parallelism` of their cost,
    /// modelling a guest with several vCPUs issuing memory requests in
    /// parallel (the paper's attack VM runs a multi-threaded cleanser).
    /// Atomic bus-locking operations are serial and never accelerated.
    pub fn add_vm_parallel(
        &mut self,
        name: impl Into<String>,
        program: Box<dyn VmProgram>,
        parallelism: u8,
    ) -> VmId {
        self.add_vm_parallel_from(name, program, parallelism, 0)
    }

    /// Like [`Server::add_vm_parallel`], but the parallelism only takes
    /// effect from tick `from_tick`; before that the VM runs serially.
    /// Models a guest whose worker threads spin up on a launch command —
    /// a scheduled attack VM idles single-threaded until its activation
    /// window, so its pre-launch trace does not depend on the payload's
    /// thread count.
    pub fn add_vm_parallel_from(
        &mut self,
        name: impl Into<String>,
        program: Box<dyn VmProgram>,
        parallelism: u8,
        from_tick: u64,
    ) -> VmId {
        let domain = self.cache.register_domain();
        let stream = domain.0 as u64;
        let rng = self.root_rng.fork(stream);
        self.hv.add_vm(name, program, domain, rng, parallelism, from_tick)
    }

    /// Read-only access to the hypervisor (VM table).
    pub fn hypervisor(&self) -> &Hypervisor {
        &self.hv
    }

    /// Pauses every VM except `protected` (execution throttling).
    pub fn pause_all_except(&mut self, protected: VmId) {
        self.hv.pause_all_except(protected);
    }

    /// Pauses one VM.
    pub fn pause(&mut self, vm: VmId) {
        self.hv.pause(vm);
    }

    /// Resumes one VM.
    pub fn resume(&mut self, vm: VmId) {
        self.hv.resume(vm);
    }

    /// Resumes all VMs.
    pub fn resume_all(&mut self) {
        self.hv.resume_all();
    }

    /// Execution-throttles one VM (parallelism clamped to 1) — the
    /// first rung of the respond mitigation ladder. Returns `false` if
    /// already throttled.
    pub fn throttle_vm(&mut self, vm: VmId) -> bool {
        self.hv.throttle(vm)
    }

    /// Lifts an execution throttle, restoring registered parallelism.
    pub fn unthrottle_vm(&mut self, vm: VmId) -> bool {
        self.hv.unthrottle(vm)
    }

    /// Sets the number of cache lines the monitoring process touches per
    /// tick (LLC pollution caused by the detection system itself).
    pub fn set_monitor_load(&mut self, lines_per_tick: u64) {
        self.monitor_load_lines = lines_per_tick;
    }

    /// Sets the per-tick, per-VM monitoring cycle tax.
    pub fn set_monitor_tax(&mut self, cycles: u64) {
        self.cfg.monitor_tax_cycles = cycles;
    }

    /// Index of the next tick to execute.
    pub fn current_tick(&self) -> u64 {
        self.tick
    }

    /// Simulated time at the start of the next tick, in seconds.
    pub fn time_secs(&self) -> f64 {
        self.tick as f64 * self.cfg.t_pcm_secs
    }

    /// Work units completed by a VM's guest program.
    pub fn vm_work(&self, vm: VmId) -> u64 {
        self.hv.vm(vm).work_completed()
    }

    /// Cumulative bus-lock statistics `(locks, locked_cycles)`.
    pub fn bus_stats(&self) -> (u64, u64) {
        (self.bus.total_locks(), self.bus.total_locked_cycles())
    }

    /// Mean DRAM queueing wait per miss so far, in cycles — a direct
    /// measure of memory-bandwidth contention.
    pub fn dram_mean_wait(&self) -> f64 {
        self.dram.mean_wait_cycles()
    }

    /// Cycle window and monitoring tax of the tick about to execute.
    fn tick_bounds(&self) -> (u64, u64, u64) {
        let start = self.tick * self.cfg.tick_cycles;
        let end = start + self.cfg.tick_cycles;
        (start, end, self.cfg.monitor_tax_cycles.min(self.cfg.tick_cycles))
    }

    /// Monitoring pollution: the analysis process touches its own working
    /// set through the shared LLC, then drains its private counters.
    fn run_monitor(&mut self) {
        for _ in 0..self.monitor_load_lines {
            let line = self.monitor_rng.next_below(1 << 20);
            self.cache.access(self.monitor_domain, line);
        }
        self.cache.drain_counters(self.monitor_domain);
    }

    /// Tick prologue: align each VM's next-free cycle with the tick,
    /// apply the monitoring tax, account paused time.
    fn tick_prologue(&mut self, start: u64, end: u64, tax: u64) {
        for vm in self.hv.vms_mut() {
            match vm.state {
                VmState::Running => {
                    vm.next_free = vm.next_free.max(start + tax);
                }
                VmState::Paused => {
                    vm.paused_ticks += 1;
                    // A paused VM makes no progress; it resumes from the
                    // current simulated time, not from where it stopped.
                    vm.next_free = vm.next_free.max(end);
                }
            }
        }
    }

    /// Tick epilogue: advance the tick counter and drain every domain's
    /// interval counters into PCM samples (what the sampler component
    /// does at its per-tick clock-divider event).
    fn collect_report(&mut self) -> TickReport {
        self.tick += 1;
        let mut samples = Vec::with_capacity(self.hv.len());
        for (id, vm) in self.hv.iter() {
            let domain = vm.domain();
            let c = self.cache.drain_counters(domain);
            samples.push(PcmSample { vm: id, domain, accesses: c.accesses, misses: c.misses });
        }
        TickReport {
            tick: self.tick - 1,
            time_secs: self.tick as f64 * self.cfg.t_pcm_secs,
            samples,
        }
    }

    /// Executes one tick (one `T_PCM` interval) and returns the PCM
    /// samples of every VM.
    ///
    /// Event-driven: the monitor, the PCM sampler and every runnable VM
    /// are wake-up events in a min-heap keyed by `(cycle, ComponentId)`;
    /// the loop pops the earliest event and lets the component run. A VM
    /// keeps executing without heap traffic while it remains the earliest
    /// event (run-ahead), and drops out of the queue entirely once its
    /// budget is spent.
    pub fn tick(&mut self) -> TickReport {
        let (start, end, tax) = self.tick_bounds();
        self.queue.clear();
        self.queue.schedule(start, ComponentId::MONITOR);
        self.queue.schedule(end, ComponentId::SAMPLER);
        self.tick_prologue(start, end, tax);
        for (i, vm) in self.hv.vms_mut().iter().enumerate() {
            if vm.state == VmState::Running && vm.next_free < end {
                self.queue.schedule(vm.next_free, ComponentId::vm(i));
            }
        }
        while let Some((_, comp)) = self.queue.pop() {
            match comp {
                ComponentId::MONITOR => self.run_monitor(),
                ComponentId::SAMPLER => break,
                _ => {
                    let Some(mut idx) = comp.vm_index() else { continue };
                    let mut comp = comp;
                    // Split the server into disjoint field borrows once
                    // per pop so the run-ahead loop below re-steps the
                    // same VM without re-fetching it (or re-borrowing
                    // `self`) on every operation.
                    let tick = self.tick;
                    let Server { cfg, cache, bus, dram, hv, queue, .. } = self;
                    let vms = hv.vms_mut();
                    'vm: loop {
                        let Some(vm) = vms.get_mut(idx) else { break 'vm };
                        // The queue is untouched while this VM runs
                        // ahead, so the head is segment-invariant: fold
                        // the hand-off condition `head < (next, comp)`
                        // and the budget bound into ONE cycle limit, so
                        // the per-op loop test is a single compare. A VM
                        // may run through a head at the same cycle iff
                        // its component id is smaller (the deterministic
                        // tie-break), hence the `+ 1`.
                        let limit = match queue.peek() {
                            Some((t, c)) if t < end => {
                                t.saturating_add((comp < c) as u64).min(end)
                            }
                            _ => end,
                        };
                        let par = vm.parallelism_at(tick);
                        let mut next =
                            Self::step_vm_inner(cfg, cache, bus, dram, vm, tick, end, par);
                        while next < limit {
                            next = Self::step_vm_inner(cfg, cache, bus, dram, vm, tick, end, par);
                        }
                        if next >= end {
                            // Budget spent: the VM drops out of the tick.
                            break 'vm;
                        }
                        // Another component wakes first: swap places with
                        // it in a single heap sift and keep running as
                        // that component (hand-off).
                        let Some((t2, c2)) = queue.replace_min(next, comp) else { break 'vm };
                        match c2.vm_index() {
                            Some(i2) => {
                                comp = c2;
                                idx = i2;
                            }
                            None => {
                                // Non-VM wake-up (cannot happen mid-tick
                                // under the monitor-first / sampler-at-
                                // `end` schedule, but stay defensive):
                                // put it back and return to the outer
                                // pop.
                                queue.schedule(t2, c2);
                                break 'vm;
                            }
                        }
                    }
                }
            }
        }
        self.collect_report()
    }

    /// Snapshots the entire server — cache, bus, DRAM, RNG streams, and
    /// every VM's program state — so a shared simulation prefix can be
    /// forked into independent continuations (e.g. one benign warm-up
    /// continued under several attack variants, byte-identical to
    /// running each variant from scratch). The LLC is copied without its
    /// presence directory, an index the copy rebuilds on its first
    /// access, so a snapshot that waits costs only the line metadata.
    /// Returns `None` when any guest program does not support
    /// [`VmProgram::clone_box`].
    pub fn try_clone(&self) -> Option<Server> {
        Some(Server {
            cfg: self.cfg,
            cache: self.cache.clone(),
            bus: self.bus.clone(),
            dram: self.dram.clone(),
            hv: self.hv.try_clone()?,
            root_rng: self.root_rng.clone(),
            tick: self.tick,
            monitor_domain: self.monitor_domain,
            monitor_rng: self.monitor_rng.clone(),
            monitor_load_lines: self.monitor_load_lines,
            queue: self.queue.clone(),
        })
    }

    /// Mutable access to a VM's guest program — the surgical hook fork
    /// flows use to swap a wrapper program's payload in place.
    pub fn program_mut(&mut self, vm: VmId) -> Option<&mut Box<dyn VmProgram>> {
        self.hv.program_mut(vm)
    }

    /// Re-targets a VM's memory-level parallelism. Fork flows that swap
    /// in a different payload use this so the continuation matches the
    /// thread count that payload would have been registered with; the
    /// `from_tick` window set at registration is unchanged, so a call
    /// made while the VM is still in its serial window cannot perturb
    /// already-simulated ticks.
    pub fn set_vm_parallelism(&mut self, vm: VmId, parallelism: u8) {
        if let Some(vm) = self.hv.vms_mut().get_mut(vm.0 as usize) {
            vm.parallelism = parallelism.max(1);
        }
    }

    /// Reference implementation of [`Server::tick`]: the original
    /// cycle-budgeted scan loop that re-selects the minimum `next_free`
    /// VM by linear scan on every operation. Kept (tests always, other
    /// crates via the `reference-tick` feature) as the oracle the event
    /// engine is pinned against — both must produce byte-identical
    /// [`TickReport`] streams and counters from the same initial state.
    #[cfg(any(test, feature = "reference-tick"))]
    pub fn tick_reference(&mut self) -> TickReport {
        let (start, end, tax) = self.tick_bounds();
        self.run_monitor();
        self.tick_prologue(start, end, tax);

        // Main loop: always advance the VM with the smallest next-free
        // cycle that still fits in this tick.
        loop {
            let mut best: Option<(usize, u64)> = None;
            for (i, vm) in self.hv.vms_mut().iter().enumerate() {
                if vm.state == VmState::Running && vm.next_free < end {
                    match best {
                        Some((_, t)) if t <= vm.next_free => {}
                        _ => best = Some((i, vm.next_free)),
                    }
                }
            }
            let Some((idx, _)) = best else { break };
            self.step_vm(idx, end);
        }
        self.collect_report()
    }

    /// Executes `n` ticks, collecting every report.
    pub fn run_collect(&mut self, n: u64) -> Vec<TickReport> {
        (0..n).map(|_| self.tick()).collect()
    }

    /// Executes one operation of the VM at table index `idx`; returns the
    /// VM's new next-free cycle. `end` is the current tick's cycle bound,
    /// used to decide whether a fused op's access half still falls inside
    /// this tick.
    #[inline]
    #[cfg(any(test, feature = "reference-tick"))]
    fn step_vm(&mut self, idx: usize, end: u64) -> u64 {
        let tick = self.tick;
        let Server { cfg, cache, bus, dram, hv, .. } = self;
        let Some(vm) = hv.vms_mut().get_mut(idx) else {
            return u64::MAX;
        };
        let par = vm.parallelism_at(tick);
        Self::step_vm_inner(cfg, cache, bus, dram, vm, tick, end, par)
    }

    /// [`Server::step_vm`] over pre-split borrows, so the event loop's
    /// run-ahead path can step the same VM repeatedly without paying a
    /// table lookup per operation. `par` is the VM's effective
    /// parallelism for this tick ([`Vm::parallelism_at`]) — constant
    /// across a tick, so callers hoist it out of their step loops.
    #[inline]
    fn step_vm_inner(
        cfg: &ServerConfig,
        cache: &mut Llc,
        bus: &mut Bus,
        dram: &mut Dram,
        vm: &mut Vm,
        tick: u64,
        end: u64,
        par: u8,
    ) -> u64 {
        let now = vm.next_free;
        // Second half of a fused `Work` op: the compute part already ran,
        // the access executes now.
        if let Some(line) = vm.pending_line.take() {
            return Self::finish_access(cfg, cache, bus, dram, vm, line, now, par);
        }
        let mut ctx = ProgramCtx {
            rng: &mut vm.rng,
            last_outcome: vm.last_outcome,
            tick,
        };
        let op = vm.program.next_op(&mut ctx);
        match op {
            MemOp::Compute { cycles } => {
                vm.next_free = now + Self::scaled(cycles.max(1) as u64, par);
                vm.next_free
            }
            MemOp::Access { line, .. } => {
                Self::finish_access(cfg, cache, bus, dram, vm, line, now, par)
            }
            MemOp::Work { compute, line, .. } => {
                // Fused compute-then-access. The access's scheduling slot
                // is the cycle the compute finishes at; when that slot is
                // still inside this tick, issue the access in the same
                // engine step (one heap transit instead of two). A slot
                // past the tick bound parks the access instead, so tick
                // attribution of the counters is preserved exactly.
                let slot = now + Self::scaled(compute.max(1) as u64, par);
                if slot < end {
                    Self::finish_access(cfg, cache, bus, dram, vm, line, slot, par)
                } else {
                    vm.pending_line = Some(line);
                    vm.next_free = slot;
                    slot
                }
            }
            MemOp::Atomic { line } => {
                let begin = bus.acquire_lock(now, cfg.atomic_lock_cycles);
                let outcome = cache.access(vm.domain, line);
                vm.next_free = begin + cfg.atomic_lock_cycles;
                vm.last_outcome = Some(if outcome.is_miss() {
                    AccessOutcome::Miss
                } else {
                    AccessOutcome::Hit
                });
                vm.next_free
            }
        }
    }

    /// Cost scaled by memory-level parallelism. `parallelism == 1` (the
    /// overwhelmingly common case) skips the 64-bit division.
    #[inline]
    fn scaled(cost: u64, parallelism: u8) -> u64 {
        if parallelism <= 1 {
            cost
        } else {
            cost.div_ceil(parallelism as u64)
        }
    }

    /// Executes one ordinary memory access for `vm` starting at `now`.
    #[inline]
    fn finish_access(
        cfg: &ServerConfig,
        cache: &mut Llc,
        bus: &Bus,
        dram: &mut Dram,
        vm: &mut Vm,
        line: u64,
        now: u64,
        par: u8,
    ) -> u64 {
        let begin = bus.earliest_access(now);
        let outcome = cache.access(vm.domain, line);
        if outcome.is_miss() {
            // The miss queues on the shared DRAM channel.
            let start = dram.serve(begin);
            let cost = (start - begin) + cfg.miss_cycles;
            vm.next_free = begin + Self::scaled(cost, par).max(1);
            vm.last_outcome = Some(AccessOutcome::Miss);
        } else {
            vm.next_free = begin + Self::scaled(cfg.hit_cycles, par).max(1);
            vm.last_outcome = Some(AccessOutcome::Hit);
        }
        vm.next_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::IdleProgram;

    /// Streams sequentially over `lines` distinct cache lines.
    struct Streamer {
        lines: u64,
        next: u64,
        work: u64,
    }

    impl Streamer {
        fn new(lines: u64) -> Self {
            Streamer { lines, next: 0, work: 0 }
        }
    }

    impl VmProgram for Streamer {
        fn next_op(&mut self, _ctx: &mut ProgramCtx<'_>) -> MemOp {
            self.next = (self.next + 1) % self.lines;
            self.work += 1;
            MemOp::read(self.next)
        }
        fn name(&self) -> &str {
            "streamer"
        }
        fn work_completed(&self) -> u64 {
            self.work
        }
    }

    /// Cleanses set after set: accesses `ways` distinct lines of one set
    /// back to back before moving on, the pattern the LLC cleansing
    /// attack uses to defeat LRU (a plain sequential stream would only
    /// evict its own stale lines).
    struct SetCleanser {
        sets: u64,
        ways: u64,
        set: u64,
        way: u64,
    }

    impl SetCleanser {
        fn new(geometry: CacheGeometry) -> Self {
            SetCleanser {
                sets: geometry.sets as u64,
                ways: geometry.ways as u64,
                set: 0,
                way: 0,
            }
        }
    }

    impl VmProgram for SetCleanser {
        fn next_op(&mut self, _ctx: &mut ProgramCtx<'_>) -> MemOp {
            let line = self.set + self.way * self.sets;
            self.way += 1;
            if self.way == self.ways {
                self.way = 0;
                self.set = (self.set + 1) % self.sets;
            }
            MemOp::read(line)
        }
        fn name(&self) -> &str {
            "set-cleanser"
        }
    }

    /// Issues bus-locking atomics back to back.
    struct Locker;

    impl VmProgram for Locker {
        fn next_op(&mut self, _ctx: &mut ProgramCtx<'_>) -> MemOp {
            MemOp::Atomic { line: 0 }
        }
        fn name(&self) -> &str {
            "locker"
        }
    }

    fn small_cfg() -> ServerConfig {
        ServerConfig {
            geometry: CacheGeometry { sets: 256, ways: 4 },
            ..ServerConfig::default()
        }
    }

    #[test]
    fn single_vm_throughput_matches_cost_model() {
        let mut server = Server::new(small_cfg());
        // 64 lines fit in cache: after warm-up everything hits.
        let vm = server.add_vm("victim", Box::new(Streamer::new(64)));
        server.tick(); // warm-up
        let report = server.tick();
        let s = report.sample(vm).unwrap();
        let expected = server.config().tick_cycles / server.config().hit_cycles;
        let ratio = s.accesses as f64 / expected as f64;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "accesses {} vs expected {expected}",
            s.accesses
        );
        assert_eq!(s.misses, 0, "warm working set should not miss");
    }

    #[test]
    fn miss_heavy_stream_is_slower() {
        let mut server = Server::new(small_cfg());
        // 100k lines >> cache capacity (1024 lines): every access misses.
        let vm = server.add_vm("victim", Box::new(Streamer::new(100_000)));
        server.tick();
        let report = server.tick();
        let s = report.sample(vm).unwrap();
        let expected = server.config().tick_cycles / server.config().miss_cycles;
        let ratio = s.accesses as f64 / expected as f64;
        assert!((0.9..=1.1).contains(&ratio), "accesses {}", s.accesses);
        assert_eq!(s.misses, s.accesses);
    }

    #[test]
    fn bus_locking_attack_starves_victim() {
        let mut server = Server::new(small_cfg());
        let victim = server.add_vm("victim", Box::new(Streamer::new(64)));
        server.tick();
        let before = server.tick().sample(victim).unwrap().accesses;

        let mut attacked = Server::new(small_cfg());
        let victim2 = attacked.add_vm("victim", Box::new(Streamer::new(64)));
        attacked.add_vm("attacker", Box::new(Locker));
        attacked.tick();
        let after = attacked.tick().sample(victim2).unwrap().accesses;

        // Observation 1 (bus lock): significant AccessNum decrease.
        assert!(
            (after as f64) < 0.5 * before as f64,
            "no starvation: {before} -> {after}"
        );
        assert!(attacked.bus_stats().0 > 0);
    }

    #[test]
    fn cache_cleansing_inflates_victim_misses() {
        // Victim fits in cache alone; a co-located streamer over the whole
        // cache evicts it continuously.
        let mut alone = Server::new(small_cfg());
        let v1 = alone.add_vm("victim", Box::new(Streamer::new(512)));
        alone.run_collect(5);
        let clean_report = alone.tick();
        let clean = clean_report.sample(v1).unwrap();

        let mut attacked = Server::new(small_cfg());
        let v2 = attacked.add_vm("victim", Box::new(Streamer::new(512)));
        attacked.add_vm(
            "cleanser",
            Box::new(SetCleanser::new(small_cfg().geometry)),
        );
        attacked.run_collect(5);
        let dirty_report = attacked.tick();
        let dirty = dirty_report.sample(v2).unwrap();

        // Observation 1 (cleansing): significant MissNum increase.
        assert!(
            dirty.misses > clean.misses + 100,
            "misses {} -> {}",
            clean.misses,
            dirty.misses
        );
    }

    #[test]
    fn paused_vm_makes_no_progress() {
        let mut server = Server::new(small_cfg());
        let vm = server.add_vm("victim", Box::new(Streamer::new(64)));
        server.tick();
        let w0 = server.vm_work(vm);
        server.pause(vm);
        let report = server.tick();
        assert_eq!(server.vm_work(vm), w0);
        assert_eq!(report.sample(vm).unwrap().accesses, 0);
        assert_eq!(server.hypervisor().vm(vm).paused_ticks(), 1);
        server.resume(vm);
        server.tick();
        assert!(server.vm_work(vm) > w0);
    }

    #[test]
    fn pause_all_except_protects_target() {
        let mut server = Server::new(small_cfg());
        let a = server.add_vm("a", Box::new(Streamer::new(64)));
        let b = server.add_vm("b", Box::new(Streamer::new(64)));
        server.pause_all_except(a);
        let report = server.tick();
        assert!(report.sample(a).unwrap().accesses > 0);
        assert_eq!(report.sample(b).unwrap().accesses, 0);
        server.resume_all();
        let report = server.tick();
        assert!(report.sample(b).unwrap().accesses > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = |seed: u64| {
            let mut server = Server::new(small_cfg().with_seed(seed));
            let vm = server.add_vm("v", Box::new(Streamer::new(2000)));
            server.add_vm("idle", Box::new(IdleProgram));
            server
                .run_collect(20)
                .iter()
                .map(|r| r.sample(vm).unwrap().accesses)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        // Note: a pure streamer is RNG-independent, so also sanity-check
        // the reports are non-trivial.
        assert!(run(1).iter().sum::<u64>() > 0);
    }

    #[test]
    fn monitor_tax_slows_vms() {
        let throughput = |tax: u64| {
            let mut cfg = small_cfg();
            cfg.monitor_tax_cycles = tax;
            let mut server = Server::new(cfg);
            let vm = server.add_vm("v", Box::new(Streamer::new(64)));
            server.run_collect(4);
            server.tick().sample(vm).unwrap().accesses
        };
        let free = throughput(0);
        let taxed = throughput(4000); // 2 % of the tick
        let ratio = taxed as f64 / free as f64;
        assert!((0.96..=0.995).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn monitor_load_pollutes_cache() {
        let misses = |load: u64| {
            let mut server = Server::new(small_cfg());
            server.set_monitor_load(load);
            let vm = server.add_vm("v", Box::new(Streamer::new(900)));
            server.run_collect(5);
            server.tick().sample(vm).unwrap().misses
        };
        // The victim's 900-line set nearly fills the 1024-line cache;
        // monitor pollution causes evictions.
        assert!(misses(500) > misses(0));
    }

    #[test]
    fn time_advances_by_t_pcm() {
        let mut server = Server::new(small_cfg());
        assert_eq!(server.time_secs(), 0.0);
        let r = server.tick();
        assert!((r.time_secs - 0.01).abs() < 1e-12);
        assert_eq!(server.current_tick(), 1);
    }

    #[test]
    fn tick_report_sample_lookup() {
        let mut server = Server::new(small_cfg());
        let vm = server.add_vm("v", Box::new(IdleProgram));
        let r = server.tick();
        assert!(r.sample(vm).is_some());
        assert!(r.sample(VmId(9)).is_none());
    }

    #[test]
    fn fused_work_op_counts_compute_then_access() {
        // One fused Work op must behave exactly like Compute followed by
        // Access: the access executes at the VM's next slot and is
        // counted in whichever tick that slot lands in.
        struct Fused;
        impl VmProgram for Fused {
            fn next_op(&mut self, _ctx: &mut ProgramCtx<'_>) -> MemOp {
                MemOp::Work { compute: 70, line: 3, write: false }
            }
            fn name(&self) -> &str {
                "fused"
            }
        }
        struct Split {
            pending: bool,
        }
        impl VmProgram for Split {
            fn next_op(&mut self, _ctx: &mut ProgramCtx<'_>) -> MemOp {
                self.pending = !self.pending;
                if self.pending {
                    MemOp::Compute { cycles: 70 }
                } else {
                    MemOp::read(3)
                }
            }
            fn name(&self) -> &str {
                "split"
            }
        }
        let run = |program: Box<dyn VmProgram>| {
            let mut server = Server::new(small_cfg());
            let vm = server.add_vm("v", program);
            (0..5)
                .map(|_| {
                    let r = server.tick();
                    let s = r.sample(vm).unwrap();
                    (s.accesses, s.misses)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(Box::new(Fused)), run(Box::new(Split { pending: false })));
    }
}

/// Seeded equivalence suite: the event-driven [`Server::tick`] and the
/// cycle-budgeted [`Server::tick_reference`] must produce byte-identical
/// PCM sample streams and counters from identical initial state, across
/// randomized configurations, program mixes and throttling schedules.
#[cfg(test)]
mod equivalence {
    use super::*;

    /// A program that draws a random mix of every op kind from its VM
    /// RNG stream — exercises compute stalls, fused work ops, plain and
    /// write accesses, and bus-locking atomics.
    struct RandomOps;

    impl VmProgram for RandomOps {
        fn next_op(&mut self, ctx: &mut ProgramCtx<'_>) -> MemOp {
            match ctx.rng.next_below(6) {
                0 => MemOp::read(ctx.rng.next_below(4096)),
                1 => MemOp::write(ctx.rng.next_below(1 << 16)),
                2 => MemOp::Compute {
                    cycles: ctx.rng.range_inclusive(0, 20_000) as u32,
                },
                3 => MemOp::Atomic { line: ctx.rng.next_below(256) },
                _ => MemOp::Work {
                    compute: ctx.rng.range_inclusive(1, 5_000) as u32,
                    line: ctx.rng.next_below(8192),
                    write: ctx.rng.chance(0.5),
                },
            }
        }
        fn name(&self) -> &str {
            "random-ops"
        }
        fn clone_box(&self) -> Option<Box<dyn VmProgram>> {
            Some(Box::new(RandomOps))
        }
    }

    /// A reactive program: streams while hitting, jumps on a miss — makes
    /// the `last_outcome` feedback path part of the pinned behaviour.
    #[derive(Clone)]
    struct Reactive {
        pos: u64,
    }

    impl VmProgram for Reactive {
        fn next_op(&mut self, ctx: &mut ProgramCtx<'_>) -> MemOp {
            if ctx.last_outcome == Some(AccessOutcome::Miss) {
                self.pos = ctx.rng.next_below(1 << 14);
            } else {
                self.pos += 1;
            }
            MemOp::read(self.pos)
        }
        fn name(&self) -> &str {
            "reactive"
        }
        fn clone_box(&self) -> Option<Box<dyn VmProgram>> {
            Some(Box::new(self.clone()))
        }
    }

    fn random_config(rng: &mut Rng) -> ServerConfig {
        ServerConfig {
            geometry: CacheGeometry {
                sets: 1 << rng.range_inclusive(4, 9),
                ways: rng.range_inclusive(1, 8) as usize,
            },
            tick_cycles: rng.range_inclusive(10_000, 60_000),
            hit_cycles: rng.range_inclusive(1, 60),
            miss_cycles: rng.range_inclusive(100, 500),
            atomic_lock_cycles: rng.range_inclusive(200, 1_500),
            t_pcm_secs: 0.01,
            seed: rng.next_u64(),
            monitor_tax_cycles: rng.range_inclusive(0, 2_000),
            dram_service_cycles: rng.range_inclusive(0, 80),
        }
    }

    fn populate(server: &mut Server, kinds: &[u64], parallelisms: &[u8]) {
        for (i, (&kind, &par)) in kinds.iter().zip(parallelisms).enumerate() {
            let program: Box<dyn VmProgram> = match kind {
                0 => Box::new(RandomOps),
                1 => Box::new(Reactive { pos: 0 }),
                _ => Box::new(crate::program::IdleProgram),
            };
            server.add_vm_parallel(format!("vm-{i}"), program, par);
        }
    }

    fn assert_reports_equal(a: &TickReport, b: &TickReport, round: usize, t: u64) {
        assert_eq!(a.tick, b.tick, "round {round} tick {t}");
        assert_eq!(
            a.time_secs.to_bits(),
            b.time_secs.to_bits(),
            "round {round} tick {t}: time differs"
        );
        assert_eq!(a.samples, b.samples, "round {round} tick {t}: samples differ");
    }

    #[test]
    fn event_engine_matches_reference_on_randomized_configs() {
        let mut rng = Rng::new(0xE0E27_15EED);
        for round in 0..30 {
            let cfg = random_config(&mut rng);
            let n_vms = rng.range_inclusive(1, 5) as usize;
            let kinds: Vec<u64> = (0..n_vms).map(|_| rng.next_below(3)).collect();
            let parallelisms: Vec<u8> =
                (0..n_vms).map(|_| rng.range_inclusive(1, 4) as u8).collect();
            let monitor_load = if rng.chance(0.3) { rng.range_inclusive(1, 200) } else { 0 };
            let ticks = rng.range_inclusive(20, 40);

            // A throttling script, applied identically to both engines:
            // (tick, Some(vm to protect) | None = resume all).
            let mut script: Vec<(u64, Option<u16>)> = Vec::new();
            if rng.chance(0.6) {
                let pause_at = rng.range_inclusive(2, ticks / 2);
                let resume_at = rng.range_inclusive(pause_at + 1, ticks - 1);
                let protected = rng.next_below(n_vms as u64) as u16;
                script.push((pause_at, Some(protected)));
                script.push((resume_at, None));
            }

            let build = |cfg: ServerConfig| {
                let mut server = Server::new(cfg);
                populate(&mut server, &kinds, &parallelisms);
                server.set_monitor_load(monitor_load);
                server
            };
            let mut event = build(cfg);
            let mut reference = build(cfg);

            for t in 0..ticks {
                for &(at, action) in &script {
                    if at == t {
                        match action {
                            Some(vm) => {
                                event.pause_all_except(VmId(vm));
                                reference.pause_all_except(VmId(vm));
                            }
                            None => {
                                event.resume_all();
                                reference.resume_all();
                            }
                        }
                    }
                }
                let a = event.tick();
                let b = reference.tick_reference();
                assert_reports_equal(&a, &b, round, t);
            }

            // Verdict-relevant cumulative counters must agree too.
            assert_eq!(event.bus_stats(), reference.bus_stats(), "round {round}: bus");
            assert_eq!(
                event.dram_mean_wait().to_bits(),
                reference.dram_mean_wait().to_bits(),
                "round {round}: dram"
            );
            for (id, _) in reference.hypervisor().iter() {
                assert_eq!(
                    event.vm_work(id),
                    reference.vm_work(id),
                    "round {round}: work of {id}"
                );
                assert_eq!(
                    event.hypervisor().vm(id).paused_ticks(),
                    reference.hypervisor().vm(id).paused_ticks(),
                    "round {round}: paused ticks of {id}"
                );
            }
        }
    }

    #[test]
    fn snapshot_continues_byte_identically() {
        // A `try_clone` snapshot — its LLC copied without the presence
        // directory, paused VMs included — stepped alongside the
        // original through pauses, resumes and throttles must report
        // byte-identical ticks. The snapshot alternates with the
        // reference loop, so its rebuilt directory is pinned against
        // both engines.
        let mut rng = Rng::new(0x5AA9_5407);
        for round in 0..12 {
            let cfg = random_config(&mut rng);
            let n_vms = rng.range_inclusive(2, 5) as usize;
            let kinds: Vec<u64> = (0..n_vms).map(|_| rng.next_below(3)).collect();
            let parallelisms: Vec<u8> =
                (0..n_vms).map(|_| rng.range_inclusive(1, 4) as u8).collect();
            let mut original = Server::new(cfg);
            populate(&mut original, &kinds, &parallelisms);
            let warm = rng.range_inclusive(4, 20);
            let protected = VmId(rng.next_below(n_vms as u64) as u16);
            for t in 0..warm {
                if t == warm / 2 {
                    original.pause_all_except(protected);
                }
                original.tick();
            }
            // lint:allow(panic) -- every program `populate` installs is cloneable.
            let mut snapshot = original.try_clone().expect("cloneable programs");
            let throttled = VmId(((protected.0 as usize + 1) % n_vms) as u16);
            for t in 0..30u64 {
                for server in [&mut original, &mut snapshot] {
                    match t {
                        3 => server.resume_all(),
                        8 => {
                            server.throttle_vm(throttled);
                        }
                        16 => server.pause_all_except(protected),
                        20 => {
                            server.resume_all();
                            server.unthrottle_vm(throttled);
                        }
                        _ => {}
                    }
                }
                let a = original.tick();
                let b = if t % 2 == 0 { snapshot.tick() } else { snapshot.tick_reference() };
                assert_reports_equal(&a, &b, round, t);
            }
            assert_eq!(original.bus_stats(), snapshot.bus_stats(), "round {round}: bus");
            for (id, _) in original.hypervisor().iter() {
                assert_eq!(original.vm_work(id), snapshot.vm_work(id), "round {round}: {id}");
            }
        }
    }

    #[test]
    fn engines_agree_after_interleaved_stepping() {
        // Alternating which engine variant drives the same server must be
        // legal too: both step functions leave identical state behind.
        let cfg = ServerConfig {
            geometry: CacheGeometry { sets: 64, ways: 4 },
            tick_cycles: 30_000,
            ..ServerConfig::default()
        };
        let build = || {
            let mut s = Server::new(cfg);
            populate(&mut s, &[0, 1, 0], &[1, 2, 1]);
            s
        };
        let mut a = build();
        let mut b = build();
        for t in 0..20u64 {
            let ra = if t % 2 == 0 { a.tick() } else { a.tick_reference() };
            let rb = b.tick_reference();
            assert_reports_equal(&ra, &rb, 0, t);
        }
    }
}
