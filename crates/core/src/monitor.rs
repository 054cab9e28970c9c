//! The tenant monitor: the paper's detection workflow for one VM, written
//! once (§4.2, §5.1). Stage 1 feeds the first `profile_ticks`
//! observations to a [`Profiler`], the finished [`Profile`] arms the
//! detector, and every later observation steps it. A [`Monitor`] owns
//! that sequence — the profiler and its length, the arm step, the
//! monitored-tick count and the verdict and alarm bookkeeping — for the
//! streaming engine's sessions and the offline paper harness alike.
//! KStest does not run under a monitor: its protocol builds its own
//! reference by throttling the co-resident VMs, in the harness's
//! `throttled_run`.

use std::ops::ControlFlow;

use crate::config::SdsParams;
use crate::detector::{Detector, DetectorStep, FromProfile, Observation, ObservationBatch, Verdict};
use crate::profile::{Profile, Profiler, ProfilerConfig};
use crate::sds::Sds;
use crate::CoreError;

/// SDS/B as the paper evaluates it alone: the combined detector armed
/// from a boundary-only copy of the profile, so it never consults SDS/P.
///
/// # Errors
///
/// Propagates [`Sds::from_profile`]'s errors.
pub fn arm_boundary(profile: &Profile, params: &SdsParams) -> Result<Sds, CoreError> {
    Sds::from_profile(&Profile { periodicity: None, ..*profile }, params)
}

/// Stage 1 alone: the profile of the first `profile_ticks` observations
/// of `feed` (all of them, if it is shorter), consuming no more.
///
/// # Errors
///
/// Returns the first error in `feed`, or a parameter or profiling error.
pub fn profile_stage(
    params: &SdsParams,
    profile_ticks: u64,
    feed: impl Iterator<Item = Result<Observation, CoreError>>,
) -> Result<Profile, CoreError> {
    let mut monitor = Monitor::<Sds>::new(params, profile_ticks)?;
    for obs in feed {
        if let Some(profile) = monitor.feed(obs?) {
            return profile;
        }
    }
    monitor.finish()
}

/// One monitored tick, as the monitor judged it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorStep {
    /// Monitored ticks so far, this one included: the first tick after
    /// the profile is 1. The engine logs it as a verdict's `tick`.
    pub tick: u64,
    /// The previous verdict, when this tick changed the verdict's class.
    pub changed_from: Option<Verdict>,
    /// The detector's verdict after this tick.
    pub verdict: Verdict,
    /// The alarm became active on this tick.
    pub became_active: bool,
    /// Alarm activations so far, this tick's included.
    pub alarms: u64,
}

impl MonitorStep {
    /// The tick's offset in an offline alarm timeline. `RunOutcome`
    /// indexes the first monitored tick as 0 where the engine counts it
    /// as 1; this is the one place the two origins meet.
    pub fn index(&self) -> u64 {
        self.tick - 1
    }
}

/// The monitored ticks, alarms and last verdict.
#[derive(Debug, Default)]
struct Tally {
    ticks: u64,
    alarms: u64,
    verdict: Verdict,
}

impl Tally {
    fn settle(&mut self, step: DetectorStep) -> MonitorStep {
        self.ticks += 1;
        self.alarms += u64::from(step.became_active);
        let changed_from = (!step.verdict.same_class(&self.verdict)).then_some(self.verdict);
        self.verdict = step.verdict;
        let (tick, alarms, verdict, became_active) =
            (self.ticks, self.alarms, step.verdict, step.became_active);
        MonitorStep { tick, changed_from, verdict, became_active, alarms }
    }
}

#[derive(Debug)]
enum Stage<D> {
    Profiling(Profiler),
    Armed(D),
    /// Failed to profile or arm, or released.
    Inert,
}

/// One VM's detection workflow: profile, arm, step.
#[derive(Debug)]
pub struct Monitor<D> {
    stage: Stage<D>,
    profile_ticks: u64,
    tally: Tally,
}

/// An inert monitor, like one whose profile failed.
impl<D> Default for Monitor<D> {
    fn default() -> Self {
        Monitor { stage: Stage::Inert, profile_ticks: 0, tally: Tally::default() }
    }
}

impl<D: FromProfile<Params = SdsParams>> Monitor<D> {
    /// A monitor that profiles its first `profile_ticks` observations
    /// under `params`, then arms `D` under the same parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for invalid `params` or a
    /// zero `profile_ticks`.
    pub fn new(params: &SdsParams, profile_ticks: u64) -> Result<Self, CoreError> {
        if profile_ticks == 0 {
            let reason = "must be positive";
            return Err(CoreError::InvalidParameter { name: "profile_ticks", reason });
        }
        let profiler = Profiler::new(ProfilerConfig { sds: *params, ..ProfilerConfig::default() })?;
        Ok(Monitor { stage: Stage::Profiling(profiler), profile_ticks, tally: Tally::default() })
    }

    /// Feeds one Stage-1 observation: `None` until the `profile_ticks`-th,
    /// which arms the detector and returns the profile, or the error.
    /// The error is reported once; the monitor then stays inert.
    pub fn profile(&mut self, obs: Observation) -> Option<Result<Profile, CoreError>> {
        let finished = self.feed(obs)?;
        Some(finished.and_then(|profile| {
            self.stage = Stage::Armed(D::from_profile(&profile, &profile.params)?);
            Ok(profile)
        }))
    }

    /// Returns to the state [`Monitor::new`] leaves, keeping a profiling
    /// monitor's buffers; any other builds a new profiler from `params`,
    /// which must be the ones the monitor was made with.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for invalid `params`.
    pub fn reset(&mut self, params: &SdsParams) -> Result<(), CoreError> {
        match &mut self.stage {
            Stage::Profiling(profiler) => profiler.reset(),
            _ => *self = Monitor::new(params, self.profile_ticks)?,
        }
        self.tally = Tally::default();
        Ok(())
    }
}

impl<D: Detector> Monitor<D> {
    /// A monitor armed from the start, with a detector armed from the
    /// profile another monitor took: a run profiles once however many
    /// schemes it arms.
    pub fn armed(detector: D) -> Self {
        Monitor { stage: Stage::Armed(detector), ..Monitor::default() }
    }

    /// Profiles one observation; the profile on the `profile_ticks`-th.
    fn feed(&mut self, obs: Observation) -> Option<Result<Profile, CoreError>> {
        let Stage::Profiling(profiler) = &mut self.stage else {
            return None;
        };
        profiler.observe(obs);
        (profiler.observations() >= self.profile_ticks).then(|| self.finish())
    }

    /// Finishes a profiling monitor's profile on what it has seen.
    fn finish(&mut self) -> Result<Profile, CoreError> {
        match std::mem::replace(&mut self.stage, Stage::Inert) {
            Stage::Profiling(profiler) => profiler.finish(),
            _ => Err(CoreError::InvalidParameter { name: "monitor", reason: "not profiling" }),
        }
    }

    /// Steps the armed detector; `None` unless armed.
    pub fn step(&mut self, obs: Observation) -> Option<MonitorStep> {
        let Stage::Armed(detector) = &mut self.stage else {
            return None;
        };
        Some(self.tally.settle(detector.on_observation(obs)))
    }

    /// Steps a columnar batch through [`Detector::step_batch`] (into
    /// `steps`, cleared first), then counts the steps in order, handing
    /// each to `visit`. A `Break` ends the count there: the ticks behind
    /// it are stepped but not counted, so the caller must stop
    /// monitoring. Returns the steps visited (0 unless armed).
    // hot-path
    pub fn step_batch(
        &mut self,
        batch: ObservationBatch<'_>,
        steps: &mut Vec<DetectorStep>,
        mut visit: impl FnMut(MonitorStep) -> ControlFlow<()>,
    ) -> usize {
        steps.clear();
        let Stage::Armed(detector) = &mut self.stage else {
            return 0;
        };
        detector.step_batch(batch, steps);
        let tally = &mut self.tally;
        let stop = steps.iter().position(|&step| visit(tally.settle(step)).is_break());
        stop.map_or(steps.len(), |i| i + 1)
    }

    /// Whether the armed detector's alarm is active.
    pub fn alarm_active(&self) -> bool {
        matches!(&self.stage, Stage::Armed(d) if d.alarm_active())
    }

    /// Alarm activations so far, kept when the monitor is released.
    pub fn alarms(&self) -> u64 {
        self.tally.alarms
    }

    /// Drops the profiler or the detector; the counts stay.
    pub fn release(&mut self) {
        self.stage = Stage::Inert;
    }

    /// Estimated heap bytes held beyond the monitor struct: the
    /// profiler's buffers, or the detector's working set.
    pub fn resident_bytes_hint(&self) -> usize {
        match &self.stage {
            Stage::Profiling(p) => {
                p.resident_bytes_hint().saturating_sub(std::mem::size_of::<Profiler>())
            }
            Stage::Armed(d) => d.resident_bytes_hint(),
            Stage::Inert => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SdsBParams;

    const PROFILE_TICKS: u64 = 2_000;

    /// Benign traffic with a ripple, then a bus-lock-style collapse, then
    /// back, then a second collapse: alarms that raise and clear.
    fn obs(i: u64) -> Observation {
        let collapsed = (2_600..3_200).contains(&i) || i >= 4_800;
        let access_num = if collapsed { 100.0 } else { 1000.0 + (i * 7_919 % 101) as f64 };
        Observation { access_num, miss_num: 100.0 + (i % 5) as f64 }
    }

    fn params() -> SdsParams {
        SdsParams { sdsb: SdsBParams { h_c: 4, ..SdsBParams::default() }, ..SdsParams::default() }
    }

    /// The workflow written out by hand: profiler, `from_profile`,
    /// scalar steps; the 1-based tick of every activation.
    fn hand_loop(n: u64) -> Vec<u64> {
        let mut profiler =
            Profiler::new(ProfilerConfig { sds: params(), ..ProfilerConfig::default() }).unwrap();
        for i in 0..PROFILE_TICKS {
            profiler.observe(obs(i));
        }
        let mut sds = Sds::from_profile(&profiler.finish().unwrap(), &params()).unwrap();
        (PROFILE_TICKS..n)
            .filter(|&i| sds.on_observation(obs(i)).became_active)
            .map(|i| i - PROFILE_TICKS + 1)
            .collect()
    }

    fn profiled(monitor: &mut Monitor<Sds>) {
        for i in 0..PROFILE_TICKS {
            let done = monitor.profile(obs(i));
            assert_eq!(done.is_some(), i + 1 == PROFILE_TICKS, "tick {i}");
        }
    }

    /// Steps `monitor` to tick `n`, scalar or in batches of 333.
    fn monitored(monitor: &mut Monitor<Sds>, n: u64, batch: bool) -> Vec<u64> {
        let mut ticks = Vec::new();
        if !batch {
            for i in PROFILE_TICKS..n {
                let step = monitor.step(obs(i)).unwrap();
                if step.became_active {
                    ticks.push(step.tick);
                }
            }
            return ticks;
        }
        let mut steps = Vec::new();
        let all: Vec<Observation> = (PROFILE_TICKS..n).map(obs).collect();
        for chunk in all.chunks(333) {
            let access: Vec<f64> = chunk.iter().map(|o| o.access_num).collect();
            let miss: Vec<f64> = chunk.iter().map(|o| o.miss_num).collect();
            let n = monitor.step_batch(ObservationBatch::new(&access, &miss), &mut steps, |s| {
                if s.became_active {
                    ticks.push(s.tick);
                }
                ControlFlow::Continue(())
            });
            assert_eq!(n, chunk.len());
        }
        ticks
    }

    #[test]
    fn activations_match_the_hand_written_workflow_scalar_and_batch() {
        let expected = hand_loop(6_000);
        assert!(expected.len() >= 2, "the signal must alarm twice: {expected:?}");
        for batch in [false, true] {
            let mut monitor = Monitor::<Sds>::new(&params(), PROFILE_TICKS).unwrap();
            profiled(&mut monitor);
            assert_eq!(monitored(&mut monitor, 6_000, batch), expected, "batch {batch}");
            assert_eq!(monitor.alarms(), expected.len() as u64);
        }
    }

    #[test]
    fn verdict_changes_are_reported_once_per_class_change() {
        let feed = (0..PROFILE_TICKS).map(|i| Ok(obs(i)));
        let profile = profile_stage(&params(), PROFILE_TICKS, feed).unwrap();
        let mut monitor = Monitor::armed(Sds::from_profile(&profile, &params()).unwrap());
        let mut verdict = Verdict::Normal;
        for i in PROFILE_TICKS..6_000 {
            let step = monitor.step(obs(i)).unwrap();
            assert_eq!(step.index(), i - PROFILE_TICKS);
            match step.changed_from {
                Some(from) => assert!(from == verdict && !from.same_class(&step.verdict)),
                None => assert!(step.verdict.same_class(&verdict)),
            }
            verdict = step.verdict;
        }
    }

    #[test]
    fn a_reset_monitor_equals_a_fresh_one() {
        let expected = hand_loop(6_000);
        // Reset while profiling, after arming, and after a release.
        for cut in [700, 4_500, 0] {
            let mut monitor = Monitor::<Sds>::new(&params(), PROFILE_TICKS).unwrap();
            if cut == 0 {
                profiled(&mut monitor);
                monitor.release();
            } else if cut < PROFILE_TICKS {
                (0..cut).for_each(|i| assert!(monitor.profile(obs(i)).is_none()));
            } else {
                profiled(&mut monitor);
                monitored(&mut monitor, cut, false);
            }
            monitor.reset(&params()).unwrap();
            assert_eq!(monitor.alarms(), 0);
            profiled(&mut monitor);
            assert_eq!(monitored(&mut monitor, 6_000, true), expected, "cut {cut}");
        }
    }

    #[test]
    fn a_failed_profile_is_reported_once_and_leaves_the_monitor_inert() {
        // A window longer than the profile yields no smoothed value.
        let mut monitor = Monitor::<Sds>::new(&params(), 10).unwrap();
        let reports: Vec<_> = (0..50).filter_map(|i| monitor.profile(obs(i))).collect();
        assert!(matches!(reports[..], [Err(CoreError::InsufficientProfile { .. })]), "{reports:?}");
        assert_eq!(monitor.step(obs(0)), None);
        let mut steps = Vec::new();
        assert_eq!(monitor.step_batch(ObservationBatch::new(&[1.0], &[1.0]), &mut steps, |_| {
            ControlFlow::Continue(())
        }), 0);
        assert!(!monitor.alarm_active() && monitor.resident_bytes_hint() == 0);
        assert!(Monitor::<Sds>::new(&params(), 0).is_err());
    }

    #[test]
    fn profile_stage_consumes_exactly_the_profile() {
        let mut feed = (0..6_000).map(|i| Ok(obs(i)));
        let profile = profile_stage(&params(), PROFILE_TICKS, feed.by_ref()).unwrap();
        assert_eq!(feed.next(), Some(Ok(obs(PROFILE_TICKS))));
        let boundary = arm_boundary(&profile, &params()).unwrap();
        assert!(!boundary.is_periodic_mode());
        assert_eq!(<Sds as FromProfile>::from_profile(&profile, &params()).unwrap().name(), "SDS");
    }
}
