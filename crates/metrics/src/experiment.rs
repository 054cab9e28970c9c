//! The three-stage experiment protocol (§5.1).
//!
//! "We deployed a victim VM and 8 other VMs to share the resources on the
//! server. Among these 8 VMs, one of them was the attack VM ... and the
//! other 7 VMs were all benign VMs that ran normal Linux utilities ...
//! We first generated the profile of an application without attack ...
//! (Stage 1). Later we ran each application ... During the first [stage]
//! we did not launch any attacks (Stage 2). During the last [stage], we
//! performed the bus locking attack or LLC cleansing attack from the
//! attack VM (Stage 3)."

use memdos_attacks::schedule::Scheduled;
use memdos_attacks::AttackKind;
use memdos_core::config::{KsTestParams, SdsParams};
use memdos_core::detector::{Detector, DetectorStep, Observation, ThrottleRequest};
use memdos_core::kstest::KsTestDetector;
use memdos_core::monitor::{self, Monitor};
use memdos_core::profile::Profile;
use memdos_core::sds::Sds;
use memdos_core::sdsp::SdsP;
use memdos_core::CoreError;
use memdos_sim::program::VmProgram;
use memdos_sim::server::{Server, ServerConfig};
use memdos_sim::VmId;
use memdos_workloads::catalog::Application;

use crate::accuracy;
use crate::delay;

/// A detection scheme under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// The combined SDS (SDS/B, plus SDS/P agreement for periodic apps).
    Sds,
    /// The boundary scheme alone.
    SdsB,
    /// The period scheme alone (periodic applications only).
    SdsP,
    /// The KStest baseline.
    KsTest,
}

impl Scheme {
    /// All schemes, in the paper's figure order.
    pub const ALL: [Scheme; 4] = [Scheme::Sds, Scheme::SdsB, Scheme::SdsP, Scheme::KsTest];

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Sds => "SDS",
            Scheme::SdsB => "SDS/B",
            Scheme::SdsP => "SDS/P",
            Scheme::KsTest => "KStest",
        }
    }

    /// Whether the scheme only observes (no throttling).
    pub fn is_passive(&self) -> bool {
        !matches!(self, Scheme::KsTest)
    }

    /// Arms a passive scheme from a Stage-1 profile — the one
    /// constructor behind every live run and [`run_all_schemes`]. SDS/B
    /// is [`monitor::arm_boundary`]: the combined detector armed from a
    /// boundary-only copy of the profile, so it never consults SDS/P.
    ///
    /// [`run_all_schemes`]: ExperimentConfig::run_all_schemes
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotPeriodic`] for SDS/P on a non-periodic
    /// profile, [`CoreError::InvalidParameter`] for KStest (it is not
    /// passive: it builds its own reference under throttling), and
    /// propagates construction errors.
    pub fn arm(
        &self,
        profile: &Profile,
        params: &SdsParams,
    ) -> Result<Box<dyn Detector>, CoreError> {
        Ok(match self {
            Scheme::Sds => Box::new(Sds::from_profile(profile, params)?),
            Scheme::SdsB => Box::new(monitor::arm_boundary(profile, params)?),
            Scheme::SdsP => Box::new(SdsP::from_profile(profile, &params.sdsp)?),
            Scheme::KsTest => {
                return Err(CoreError::InvalidParameter {
                    name: "scheme",
                    reason: "KStest is not passive; run it through run_scheme",
                })
            }
        })
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Stage lengths and evaluation granularity, in ticks (1 tick = `T_PCM`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageConfig {
    /// Stage 1: profiling window.
    pub profile_ticks: u64,
    /// Stage 2: benign monitoring window.
    pub benign_ticks: u64,
    /// Stage 3: attack window.
    pub attack_ticks: u64,
    /// Decision-interval length for recall/specificity.
    pub interval_ticks: u64,
    /// Recall grace period after attack launch (§ accuracy docs).
    pub grace_ticks: u64,
}

impl StageConfig {
    /// Compact stages for tests: 40 s profile, 60 s benign, 60 s attack.
    pub fn quick() -> Self {
        StageConfig {
            profile_ticks: 4_000,
            benign_ticks: 6_000,
            attack_ticks: 6_000,
            interval_ticks: 1_000,
            grace_ticks: 3_500,
        }
    }

    /// Default bench scale: 120 s profile, 120 s + 120 s stages. The
    /// profile must span at least one full cycle of the longest-phased
    /// application (TeraSort's map→shuffle→sort→reduce job ≈ 70 s).
    pub fn standard() -> Self {
        StageConfig {
            profile_ticks: 12_000,
            benign_ticks: 12_000,
            attack_ticks: 12_000,
            interval_ticks: 1_000,
            grace_ticks: 6_000,
        }
    }

    /// The paper's scale: 300 s + 300 s stages (§5.1).
    pub fn paper() -> Self {
        StageConfig {
            profile_ticks: 15_000,
            benign_ticks: 30_000,
            attack_ticks: 30_000,
            interval_ticks: 1_000,
            grace_ticks: 6_000,
        }
    }

    /// Tick at which the attack launches (absolute).
    pub fn attack_start(&self) -> u64 {
        self.profile_ticks + self.benign_ticks
    }

    /// Total run length in ticks.
    pub fn total_ticks(&self) -> u64 {
        self.profile_ticks + self.benign_ticks + self.attack_ticks
    }
}

impl Default for StageConfig {
    fn default() -> Self {
        StageConfig::standard()
    }
}

/// Full configuration of one accuracy/delay experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The protected application.
    pub app: Application,
    /// The attack launched in Stage 3.
    pub attack: AttackKind,
    /// Stage lengths.
    pub stages: StageConfig,
    /// Simulated server parameters.
    pub server: ServerConfig,
    /// Number of benign utility VMs (the paper uses 7).
    pub utility_vms: usize,
    /// SDS parameters (Table 1 defaults).
    pub sds_params: SdsParams,
    /// KStest parameters (§3.2 defaults).
    pub ks_params: KsTestParams,
    /// Base seed; run `r` uses a seed derived from it.
    pub seed: u64,
    /// Per-tick monitoring cycle tax while SDS-family schemes run.
    pub sds_tax_cycles: u64,
    /// Per-tick monitoring cycle tax while KStest runs (KS computation +
    /// PCM; its throttling cost is on top, emerging from the protocol).
    pub ks_tax_cycles: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            app: Application::KMeans,
            attack: AttackKind::BusLocking,
            stages: StageConfig::standard(),
            server: ServerConfig::default(),
            utility_vms: 7,
            sds_params: SdsParams::default(),
            ks_params: KsTestParams::default(),
            seed: 0xD05,
            sds_tax_cycles: 2_500,
            ks_tax_cycles: 2_000,
        }
    }
}

/// The alarm timeline and events of one scheme on one run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Scheme evaluated.
    pub scheme: Scheme,
    /// Per-tick alarm state over stages 2+3 (index 0 = first benign
    /// tick).
    pub alarm: Vec<bool>,
    /// Alarm activation events, as tick offsets into `alarm`.
    pub activations: Vec<u64>,
    /// Whether Stage 1 classified the application as periodic.
    pub profile_periodic: bool,
}

/// Scalar metrics derived from one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMetrics {
    /// Recall over attack-stage decision intervals.
    pub recall: f64,
    /// Specificity over benign-stage decision intervals.
    pub specificity: f64,
    /// Detection delay in seconds; `None` when never detected.
    pub delay_secs: Option<f64>,
}

impl RunOutcome {
    /// Evaluates the run against the stage layout it was produced with.
    pub fn metrics(&self, stages: &StageConfig) -> RunMetrics {
        self.metrics_with_t_pcm(stages, 0.01)
    }

    /// Evaluates with an explicit `T_PCM` (seconds per tick).
    pub fn metrics_with_t_pcm(&self, stages: &StageConfig, t_pcm: f64) -> RunMetrics {
        let benign = stages.benign_ticks as usize;
        let (stage2, stage3) = self.alarm.split_at(benign.min(self.alarm.len()));
        RunMetrics {
            recall: accuracy::recall(stage3, stages.interval_ticks, stages.grace_ticks),
            specificity: accuracy::specificity(stage2, stages.interval_ticks),
            delay_secs: delay::detection_delay_ticks(&self.alarm, benign)
                .map(|t| delay::ticks_to_secs(t, t_pcm)),
        }
    }
}

impl ExperimentConfig {
    /// Seed for run index `r` (split so that every run is independent
    /// but reproducible). Depends only on `(self.seed, run)` — never on
    /// execution order — so the parallel runner reproduces sequential
    /// results bit-for-bit.
    pub fn run_seed(&self, run: u64) -> u64 {
        memdos_stats::rng::derive_seed(self.seed, run)
    }

    /// Builds the populated server for one run: victim + scheduled
    /// attacker + utilities. Returns the server and the victim's id.
    pub fn build_server(&self, run: u64) -> (Server, VmId) {
        let (server, victim, _) = self.build_server_with_attacker(run);
        (server, victim)
    }

    /// [`ExperimentConfig::build_server`], additionally returning the
    /// attacker's id — fork flows need the handle to re-target the
    /// parked attack VM's payload.
    pub fn build_server_with_attacker(&self, run: u64) -> (Server, VmId, VmId) {
        let server_cfg = ServerConfig { seed: self.run_seed(run), ..self.server };
        let mut server = Server::new(server_cfg);
        let llc = server.config().geometry.lines() as u64;
        let geometry = server.config().geometry;
        let victim = server.add_vm(self.app.name(), self.app.build(llc));
        // The attacker's thread pool spins up with the attack window:
        // before `attack_start` the parked VM runs serially, so the
        // pre-launch trace is independent of which payload (and thread
        // count) Stage 3 will launch — the invariant behind
        // [`ExperimentConfig::capture_attack_sweep`]'s shared prefix.
        let attacker = server.add_vm_parallel_from(
            "attacker",
            Box::new(Scheduled::starting_at(
                self.stages.attack_start(),
                self.attack.build(geometry),
            )),
            self.attack.default_parallelism(),
            self.stages.attack_start(),
        );
        for i in 0..self.utility_vms {
            server.add_vm(
                format!("util-{i}"),
                Box::new(memdos_workloads::apps::utility::program(i as u64)),
            );
        }
        (server, victim, attacker)
    }

    /// Runs Stage 1 on `server`, returning the victim's profile.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::InsufficientProfile`] for stage configs too
    /// short to profile.
    pub fn run_profile_stage(
        &self,
        server: &mut Server,
        victim: VmId,
    ) -> Result<Profile, CoreError> {
        let ticks = self.stages.profile_ticks;
        monitor::profile_stage(&self.sds_params, ticks, live(server, victim, ticks))
    }

    /// Runs the complete three-stage protocol for one scheme.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotPeriodic`] when `scheme` is
    /// [`Scheme::SdsP`] but the profile is not periodic, and propagates
    /// profiling/construction errors.
    pub fn run_scheme(&self, scheme: Scheme, run: u64) -> Result<RunOutcome, CoreError> {
        let mut outcomes = if scheme.is_passive() {
            self.passive_sweep(&[self.attack], run, |p| {
                Ok(vec![(scheme, scheme.arm(p, &self.sds_params)?)])
            })?
            .concat()
        } else {
            self.kstest_attack_sweep(&[self.attack], run)?
        };
        // lint:allow(panic) -- one attack with one armed scheme records exactly one outcome.
        Ok(outcomes.pop().expect("one armed scheme"))
    }

    /// Runs all passive schemes plus KStest for run `run`, reusing one
    /// server execution for the passive schemes. Schemes inapplicable to
    /// the workload (SDS/P on a non-periodic profile) are omitted.
    ///
    /// # Errors
    ///
    /// Propagates profiling errors.
    pub fn run_all_schemes(&self, run: u64) -> Result<Vec<RunOutcome>, CoreError> {
        let mut outcomes = self.passive_attack_sweep(&[self.attack], run)?.concat();
        // KStest drives its own server (it throttles).
        outcomes.extend(self.kstest_attack_sweep(&[self.attack], run)?);
        Ok(outcomes)
    }

    /// [`ExperimentConfig::run_all_schemes`]'s passive outcomes for run
    /// `run` — SDS, SDS/B, and SDS/P when the profile is periodic —
    /// under every attack in `attacks`, in `attacks` order, from
    /// one simulation of the attack-free stages 1–2 (see
    /// [`ExperimentConfig::fork_at_launch`]). Each attack's outcomes
    /// equal a from-scratch run of that attack. `self.attack` only picks
    /// the payload the prefix is built with.
    ///
    /// # Errors
    ///
    /// Propagates profiling errors.
    pub fn passive_attack_sweep(
        &self,
        attacks: &[AttackKind],
        run: u64,
    ) -> Result<Vec<Vec<RunOutcome>>, CoreError> {
        self.passive_sweep(attacks, run, |p| {
            let periodic = if p.is_periodic() { &[Scheme::SdsP][..] } else { &[] };
            let schemes = [Scheme::Sds, Scheme::SdsB].iter().chain(periodic);
            schemes.map(|&s| Ok((s, s.arm(p, &self.sds_params)?))).collect()
        })
    }

    /// KStest's outcome for run `run` under every attack in `attacks`,
    /// in `attacks` order. KStest throttles the server, so its prefix
    /// cannot be replayed from a capture: the forks carry the detector
    /// (reference windows, rejection streak, alarm so far) and the
    /// server's pause state across the attack launch, and the monitored
    /// tick index runs on. Each attack's outcome equals a from-scratch
    /// run of that attack.
    ///
    /// # Errors
    ///
    /// Propagates profiling and parameter errors.
    pub fn kstest_attack_sweep(
        &self,
        attacks: &[AttackKind],
        run: u64,
    ) -> Result<Vec<RunOutcome>, CoreError> {
        let benign = self.stages.benign_ticks;
        let attack = self.stages.attack_ticks;
        self.fork_at_launch(
            attacks,
            run,
            self.ks_tax_cycles,
            |server, victim| {
                let profile = self.run_profile_stage(server, victim)?;
                let mut det = KsTestDetector::new(self.ks_params)?;
                let mut head = RunOutcome {
                    scheme: Scheme::KsTest,
                    alarm: Vec::with_capacity(benign as usize),
                    activations: Vec::new(),
                    profile_periodic: profile.is_periodic(),
                };
                throttled_run(&mut det, server, victim, 0..benign, record_ks(&mut head))?;
                Ok((det, head))
            },
            |(det, head), server, victim| {
                let mut det = det.clone();
                let mut out = head.clone();
                out.alarm.reserve_exact(attack as usize);
                let ticks = benign..benign + attack;
                throttled_run(&mut det, server, victim, ticks, record_ks(&mut out))?;
                Ok(out)
            },
        )
    }

    /// The passive schemes `arm` picks, for every attack in `attacks`:
    /// the victim's stage-1/2 observations are simulated once (SDS
    /// monitoring tax applied) and kept; each attack streams them,
    /// followed by its forked server's live attack stage, through
    /// [`passive_run`].
    fn passive_sweep(
        &self,
        attacks: &[AttackKind],
        run: u64,
        arm: impl Fn(&Profile) -> Result<Vec<(Scheme, Box<dyn Detector>)>, CoreError>,
    ) -> Result<Vec<Vec<RunOutcome>>, CoreError> {
        let prefix_ticks = self.stages.attack_start();
        let attack_ticks = self.stages.attack_ticks;
        self.fork_at_launch(
            attacks,
            run,
            self.sds_tax_cycles,
            |server, victim| live(server, victim, prefix_ticks).collect::<Result<Vec<_>, _>>(),
            |prefix, server, victim| {
                let feed = prefix.iter().copied().map(Ok).chain(live(server, victim, attack_ticks));
                passive_run(&self.sds_params, self.stages.profile_ticks, feed, &arm)
            },
        )
    }

    /// The one fork: builds run `run`'s server (monitoring tax `tax`),
    /// lets `prefix` simulate the attack-free stages 1–2 — exactly
    /// `stages.attack_start()` ticks — and then continues that state
    /// once per attack in `attacks`, handing `suffix` the prefix's
    /// result and a server whose parked attacker now carries the
    /// attack's payload. Results follow `attacks` order.
    ///
    /// The attacker VM is parked (and serial — see
    /// [`ExperimentConfig::build_server_with_attacker`]) until the
    /// launch, so no tick of the prefix depends on the payload: each
    /// continuation is byte-identical to a from-scratch run of its
    /// attack. Every continuation but the last runs on the live server
    /// while a snapshot ([`Server::try_clone`], its LLC copied without
    /// the presence directory) waits to become the next one; a single
    /// attack never clones.
    fn fork_at_launch<P, R, E>(
        &self,
        attacks: &[AttackKind],
        run: u64,
        tax: u64,
        prefix: impl FnOnce(&mut Server, VmId) -> Result<P, E>,
        mut suffix: impl FnMut(&P, &mut Server, VmId) -> Result<R, E>,
    ) -> Result<Vec<R>, E> {
        let mut out = Vec::with_capacity(attacks.len());
        let Some((&last, rest)) = attacks.split_last() else {
            return Ok(out);
        };
        let (mut server, victim, attacker) = self.build_server_with_attacker(run);
        server.set_monitor_tax(tax);
        let state = prefix(&mut server, victim)?;
        debug_assert_eq!(server.current_tick(), self.stages.attack_start());
        for &attack in rest {
            // lint:allow(panic) -- every program build_server installs
            // (PhaseMachine, Scheduled, the attack payloads) supports
            // clone_box; a None here is a regression in one of them.
            let snapshot = server.try_clone().expect("experiment programs are cloneable");
            self.retarget(&mut server, attacker, attack);
            out.push(suffix(&state, &mut server, victim)?);
            server = snapshot;
        }
        self.retarget(&mut server, attacker, last);
        out.push(suffix(&state, &mut server, victim)?);
        Ok(out)
    }

    /// Re-targets the parked attacker of a server built for
    /// `self.attack` to `attack`: swaps the payload and its thread
    /// count. The parked path never touched the old payload, and the
    /// serial window covers the whole prefix, so the continuation
    /// matches a from-scratch run of `attack`.
    fn retarget(&self, server: &mut Server, attacker: VmId, attack: AttackKind) {
        if attack == self.attack {
            return;
        }
        let geometry = server.config().geometry;
        let scheduled = server
            .program_mut(attacker)
            .and_then(|p| p.as_any_mut())
            .and_then(|a| a.downcast_mut::<Scheduled<Box<dyn VmProgram>>>());
        // lint:allow(panic) -- build_server installs exactly this
        // wrapper type around the attacker.
        scheduled.expect("attacker is Scheduled").swap_inner(attack.build(geometry));
        server.set_vm_parallelism(attacker, attack.default_parallelism());
    }
}

/// Records one monitored KStest tick into `out`.
fn record_ks(out: &mut RunOutcome) -> impl FnMut(u64, DetectorStep, &KsTestDetector) + '_ {
    move |t, step, det| {
        if step.became_active {
            out.activations.push(t);
        }
        out.alarm.push(det.alarm_active());
    }
}

/// One tick of `server`, read as the victim's observation.
fn sample(server: &mut Server, victim: VmId) -> Result<Observation, CoreError> {
    server
        .tick()
        .sample(victim)
        .map(Observation::from)
        .ok_or(CoreError::MissingSample { vm: victim })
}

/// The victim's observations over the next `ticks` ticks of `server`.
fn live(
    server: &mut Server,
    victim: VmId,
    ticks: u64,
) -> impl Iterator<Item = Result<Observation, CoreError>> + '_ {
    (0..ticks).map(move |_| sample(server, victim))
}

/// [`live`] for the captures, whose servers were built with `victim`
/// registered by [`ExperimentConfig::build_server_with_attacker`].
fn capture(
    server: &mut Server,
    victim: VmId,
    ticks: u64,
) -> impl Iterator<Item = Observation> + '_ {
    // lint:allow(panic) -- a registered victim always samples; a missing one is a simulator bug.
    live(server, victim, ticks).map(|obs| obs.expect("victim sample"))
}

/// The one passive detection loop, shared by live runs and replays:
/// profiles the first `profile_ticks` observations of `feed` once, arms
/// a [`Monitor`] for every scheme `arm` builds from that profile, then
/// steps every monitor over the rest of the feed and records its alarm
/// timeline. Outcomes follow the order `arm` returned the schemes in.
fn passive_run<D: Detector>(
    params: &SdsParams,
    profile_ticks: u64,
    mut feed: impl Iterator<Item = Result<Observation, CoreError>>,
    arm: impl FnOnce(&Profile) -> Result<Vec<(Scheme, D)>, CoreError>,
) -> Result<Vec<RunOutcome>, CoreError> {
    let profile = monitor::profile_stage(params, profile_ticks, feed.by_ref())?;
    let monitored = feed.size_hint().0;
    let mut armed: Vec<(Monitor<D>, RunOutcome)> = arm(&profile)?
        .into_iter()
        .map(|(scheme, det)| {
            let out = RunOutcome {
                scheme,
                alarm: Vec::with_capacity(monitored),
                activations: Vec::new(),
                profile_periodic: profile.is_periodic(),
            };
            (Monitor::armed(det), out)
        })
        .collect();
    for obs in feed {
        let obs = obs?;
        for (monitor, out) in &mut armed {
            if let Some(step) = monitor.step(obs).filter(|s| s.became_active) {
                out.activations.push(step.index());
            }
            out.alarm.push(monitor.alarm_active());
        }
    }
    Ok(armed.into_iter().map(|(_, out)| out).collect())
}

/// The one live KStest loop: steps `det` over the next `ticks.len()`
/// ticks of `server`, applying the throttle requests its protocol makes
/// (pausing the other VMs while it collects its reference), and hands
/// each tick's index — counted on from `ticks.start`, so a forked run
/// continues its timeline — and step to `record`. KStest needs no
/// profile, so it runs here rather than under a [`Monitor`].
pub(crate) fn throttled_run(
    det: &mut KsTestDetector,
    server: &mut Server,
    victim: VmId,
    ticks: std::ops::Range<u64>,
    mut record: impl FnMut(u64, DetectorStep, &KsTestDetector),
) -> Result<(), CoreError> {
    for t in ticks {
        let step = det.on_observation(sample(server, victim)?);
        match step.throttle {
            Some(ThrottleRequest::PauseOthers) => server.pause_all_except(victim),
            Some(ThrottleRequest::ResumeAll) => server.resume_all(),
            None => {}
        }
        record(t, step, det);
    }
    Ok(())
}

/// A fully captured victim observation stream for one run, covering all
/// three stages. Passive schemes (SDS, SDS/B, SDS/P) can be *replayed*
/// over it with arbitrary parameters without re-simulating the server —
/// the sensitivity studies (Figs. 13–18) sweep six parameters over the
/// same captured runs this way.
#[derive(Debug, Clone)]
pub struct CapturedRun {
    /// Stage layout the capture was produced with.
    pub stages: StageConfig,
    /// One observation per tick, stages 1–3 back to back.
    pub observations: Vec<Observation>,
}

impl CapturedRun {
    /// Recomputes the Stage-1 profile with explicit SDS parameters (the
    /// profile's `μ_E`/`σ_E` depend on the smoothing parameters, so every
    /// sensitivity point needs its own profile pass).
    ///
    /// # Errors
    ///
    /// Propagates profiling errors.
    pub fn profile_with(&self, params: &SdsParams) -> Result<Profile, CoreError> {
        monitor::profile_stage(params, self.stages.profile_ticks, self.feed())
    }

    /// Replays stages 2+3 through a passive detector built by `make`
    /// from the (re-profiled) Stage-1 profile.
    ///
    /// # Errors
    ///
    /// Propagates profiling and detector-construction errors.
    pub fn replay_passive<D: Detector>(
        &self,
        scheme: Scheme,
        params: &SdsParams,
        make: impl FnOnce(&Profile) -> Result<D, CoreError>,
    ) -> Result<RunOutcome, CoreError> {
        let mut outcomes = passive_run(params, self.stages.profile_ticks, self.feed(), |p| {
            Ok(vec![(scheme, make(p)?)])
        })?;
        // lint:allow(panic) -- one scheme armed records exactly one outcome.
        Ok(outcomes.pop().expect("one armed scheme"))
    }

    /// The captured observations as a passive-loop feed.
    fn feed(&self) -> impl Iterator<Item = Result<Observation, CoreError>> + '_ {
        self.observations.iter().copied().map(Ok)
    }

    /// Replays the combined SDS with the given parameters.
    ///
    /// # Errors
    ///
    /// Propagates profiling and construction errors.
    pub fn replay_sds(&self, params: &SdsParams) -> Result<RunOutcome, CoreError> {
        self.replay_passive(Scheme::Sds, params, |p| Sds::from_profile(p, params))
    }

    /// Replays SDS/P alone with the given parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotPeriodic`] on a non-periodic profile.
    pub fn replay_sdsp(&self, params: &SdsParams) -> Result<RunOutcome, CoreError> {
        self.replay_passive(Scheme::SdsP, params, |p| SdsP::from_profile(p, &params.sdsp))
    }
}

impl ExperimentConfig {
    /// Runs the full three-stage simulation once with no detector in the
    /// loop (SDS monitoring tax applied) and captures the victim's
    /// observation stream for later replay.
    pub fn capture_run(&self, run: u64) -> CapturedRun {
        let (mut server, victim) = self.build_server(run);
        server.set_monitor_tax(self.sds_tax_cycles);
        let observations = capture(&mut server, victim, self.stages.total_ticks()).collect();
        CapturedRun { stages: self.stages, observations }
    }

    /// Captures one run per attack in `attacks`, sharing the stage-1/2
    /// simulation prefix across all of them through
    /// [`ExperimentConfig::fork_at_launch`]: the prefix is simulated
    /// **once**, and only the attack stage per attack. Output is
    /// byte-identical to calling [`ExperimentConfig::capture_run`] once
    /// per attack (pinned by `capture_sweep_matches_per_attack_runs`),
    /// at roughly `prefix/total` less simulation per extra attack.
    ///
    /// `self.attack` only picks the payload the prefix is built with;
    /// results follow `attacks` order.
    pub fn capture_attack_sweep(&self, attacks: &[AttackKind], run: u64) -> Vec<CapturedRun> {
        let prefix_ticks = self.stages.attack_start();
        let total = self.stages.total_ticks();
        let swept = self.fork_at_launch::<_, _, std::convert::Infallible>(
            attacks,
            run,
            self.sds_tax_cycles,
            |server, victim| Ok(capture(server, victim, prefix_ticks).collect::<Vec<_>>()),
            |prefix, server, victim| {
                let mut observations = Vec::with_capacity(total as usize);
                observations.extend_from_slice(prefix);
                observations.extend(capture(server, victim, total - prefix_ticks));
                Ok(CapturedRun { stages: self.stages, observations })
            },
        );
        match swept {
            Ok(runs) => runs,
            Err(never) => match never {},
        }
    }
}

/// Captures the raw `(AccessNum, MissNum)` trace of the victim for the
/// measurement-study figures (Figs. 2–6): `pre_ticks` benign, then the
/// attack runs for `post_ticks`.
pub fn capture_trace(
    app: Application,
    attack: AttackKind,
    pre_ticks: u64,
    post_ticks: u64,
    seed: u64,
) -> Vec<(f64, f64)> {
    let cfg = ExperimentConfig {
        app,
        attack,
        stages: StageConfig {
            profile_ticks: 0,
            benign_ticks: pre_ticks,
            attack_ticks: post_ticks,
            interval_ticks: 1_000,
            grace_ticks: 0,
        },
        seed,
        ..ExperimentConfig::default()
    };
    let (mut server, victim) = cfg.build_server(0);
    capture(&mut server, victim, pre_ticks + post_ticks)
        .map(|obs| (obs.access_num, obs.miss_num))
        .collect()
}

/// One KS round outcome in a benign-only KStest run (Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KsRound {
    /// Tick at which the round's test completed.
    pub tick: u64,
    /// 1 = "distinct probability distributions" in the paper's plots.
    pub rejected: bool,
}

/// Runs KStest on a benign (attack-free) workload and reports every KS
/// round outcome plus the fraction of `L_R` intervals in which KStest
/// declared an attack — the §3.2 false-positive measurement.
pub fn kstest_benign_run(
    app: Application,
    ticks: u64,
    ks_params: KsTestParams,
    seed: u64,
) -> (Vec<KsRound>, f64) {
    let cfg = ExperimentConfig {
        app,
        seed,
        ks_params,
        ..ExperimentConfig::default()
    };
    // Build a server with no attacker: victim + utilities only.
    let server_cfg = ServerConfig { seed: cfg.run_seed(0), ..cfg.server };
    let mut server = Server::new(server_cfg);
    let llc = server.config().geometry.lines() as u64;
    let victim = server.add_vm(app.name(), app.build(llc));
    for i in 0..cfg.utility_vms {
        server.add_vm(
            format!("util-{i}"),
            Box::new(memdos_workloads::apps::utility::program(i as u64)),
        );
    }
    server.set_monitor_tax(cfg.ks_tax_cycles);

    // lint:allow(panic) -- callers pass parameter sets from the validated
    // experiment configuration; invalid ones are a programming error.
    let mut det = KsTestDetector::new(ks_params).expect("valid params");
    let mut rounds = Vec::new();
    let mut tests_seen = 0;
    let mut interval_alarmed = vec![false; ticks.div_ceil(ks_params.l_r_ticks) as usize];
    throttled_run(&mut det, &mut server, victim, 0..ticks, |t, _, det| {
        if det.tests_run() > tests_seen {
            tests_seen = det.tests_run();
            rounds.push(KsRound { tick: t, rejected: det.last_rejected().unwrap_or(false) });
        }
        if det.alarm_active() {
            if let Some(slot) = interval_alarmed.get_mut((t / ks_params.l_r_ticks) as usize) {
                *slot = true;
            }
        }
    })
    // lint:allow(panic) -- `victim` was registered a few lines up; a
    // missing sample is a simulator bug.
    .expect("victim sample");
    let fp = interval_alarmed.iter().filter(|&&a| a).count() as f64
        / interval_alarmed.len().max(1) as f64;
    (rounds, fp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_layout_arithmetic() {
        let s = StageConfig::quick();
        assert_eq!(s.attack_start(), 10_000);
        assert_eq!(s.total_ticks(), 16_000);
        assert_eq!(StageConfig::paper().benign_ticks, 30_000);
    }

    #[test]
    fn scheme_names() {
        assert_eq!(Scheme::Sds.to_string(), "SDS");
        assert_eq!(Scheme::KsTest.name(), "KStest");
        assert!(Scheme::Sds.is_passive());
        assert!(!Scheme::KsTest.is_passive());
    }

    #[test]
    fn run_seeds_differ_by_run() {
        let cfg = ExperimentConfig::default();
        assert_ne!(cfg.run_seed(0), cfg.run_seed(1));
        assert_eq!(cfg.run_seed(3), cfg.run_seed(3));
    }

    /// The fork-based attack sweep must be byte-identical to running
    /// each attack from scratch — the contract that makes shared-prefix
    /// capture legitimate for the sensitivity studies. Both prefix
    /// payloads, so each attack is re-targeted once on the live server
    /// and once on the snapshot.
    #[test]
    fn capture_sweep_matches_per_attack_runs() {
        let stages = StageConfig {
            profile_ticks: 400,
            benign_ticks: 400,
            attack_ticks: 400,
            interval_ticks: 100,
            grace_ticks: 100,
        };
        let attacks = AttackKind::ALL;
        for prefix_attack in attacks {
            let base = ExperimentConfig {
                attack: prefix_attack,
                stages,
                seed: 0x5EED_CAFE,
                ..ExperimentConfig::default()
            };
            let swept = base.capture_attack_sweep(&attacks, 3);
            assert_eq!(swept.len(), attacks.len());
            for (attack, sweep_run) in attacks.iter().zip(&swept) {
                let scratch =
                    ExperimentConfig { attack: *attack, ..base.clone() }.capture_run(3);
                assert_eq!(sweep_run.observations.len(), scratch.observations.len());
                for (t, (a, b)) in
                    sweep_run.observations.iter().zip(&scratch.observations).enumerate()
                {
                    assert!(
                        a.access_num.to_bits() == b.access_num.to_bits()
                            && a.miss_num.to_bits() == b.miss_num.to_bits(),
                        "prefix {prefix_attack}, {attack}: tick {t} diverged: \
                         sweep {a:?} vs scratch {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn metrics_split_stages_correctly() {
        let stages = StageConfig {
            profile_ticks: 0,
            benign_ticks: 10,
            attack_ticks: 10,
            interval_ticks: 5,
            grace_ticks: 0,
        };
        // Alarm only in the attack stage, from its 3rd tick on.
        let mut alarm = vec![false; 20];
        for a in alarm.iter_mut().skip(13) {
            *a = true;
        }
        let out = RunOutcome {
            scheme: Scheme::Sds,
            alarm,
            activations: vec![13],
            profile_periodic: false,
        };
        let m = out.metrics(&stages);
        assert_eq!(m.specificity, 1.0);
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.delay_secs, Some(0.03));
    }
}
