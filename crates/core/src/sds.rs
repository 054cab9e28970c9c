//! SDS — the combined Statistical-based Detection System (§5.1).
//!
//! "In SDS, for non-periodic applications, only SDS/B is used to infer an
//! attack. For periodic applications, SDS requires both SDS/B and SDS/P
//! to detect an attack before triggering an attack alarm." Requiring
//! agreement eliminates false positives either scheme generates alone
//! (the 3–6 pp specificity improvements of Fig. 10).
//!
//! SDS/B is instantiated twice: on `AccessNum` (a bus-locking attack
//! drives it below range) and on `MissNum` (a cleansing attack drives it
//! above range); either channel satisfying its condition counts as a
//! SDS/B detection. SDS/P runs on the `AccessNum` MA series, where the
//! periodic structure lives (Figs. 2(g), 6(a)).

use crate::config::{SdsBParams, SdsParams, SdsPParams};
use crate::detector::{
    Detector, DetectorStep, FromProfile, Observation, ObservationBatch, Verdict,
};
use crate::profile::Profile;
use crate::sdsb::SdsB;
use crate::sdsp::SdsP;
use crate::CoreError;
use memdos_sim::pcm::Stat;

/// The combined SDS detector.
#[derive(Debug)]
pub struct Sds {
    b_access: SdsB,
    b_miss: SdsB,
    p: Option<SdsP>,
    active: bool,
    activations: u64,
}

impl Sds {
    /// The detector's name ([`Detector::name`]), as a constant for
    /// callers that label output without holding a detector.
    pub const NAME: &'static str = "SDS";

    /// Builds SDS from a Stage-1 [`Profile`]. SDS/P is included exactly
    /// when the profile classified the application as periodic.
    ///
    /// The preprocessing parameters in `params` override the ones stored
    /// in the profile (sensitivity studies sweep them); pass
    /// `&profile.params` semantics by using [`SdsParams::default`] when
    /// the Table 1 values are wanted.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from [`SdsB::new`] / [`SdsP::new`].
    pub fn from_profile(profile: &Profile, params: &SdsParams) -> Result<Self, CoreError> {
        let b_access = SdsB::from_profile(
            profile,
            &SdsBParams { stat: Stat::AccessNum, ..params.sdsb },
        )?;
        let b_miss =
            SdsB::from_profile(profile, &SdsBParams { stat: Stat::MissNum, ..params.sdsb })?;
        let p = if profile.is_periodic() {
            Some(SdsP::from_profile(
                profile,
                &SdsPParams { stat: Stat::AccessNum, ..params.sdsp },
            )?)
        } else {
            None
        };
        Ok(Sds { b_access, b_miss, p, active: false, activations: 0 })
    }

    /// The `AccessNum` boundary channel.
    pub fn boundary_access(&self) -> &SdsB {
        &self.b_access
    }

    /// The `MissNum` boundary channel.
    pub fn boundary_miss(&self) -> &SdsB {
        &self.b_miss
    }

    /// The period channel, present for periodic applications.
    pub fn period_channel(&self) -> Option<&SdsP> {
        self.p.as_ref()
    }

    /// Whether this instance treats the application as periodic.
    pub fn is_periodic_mode(&self) -> bool {
        self.p.is_some()
    }

    /// Verdict reflecting the combined state: `Alarm` when the
    /// scheme-level condition holds, `Suspicious` with the longest
    /// channel streak while any channel counts violations, else
    /// `Normal`.
    fn verdict(&self) -> Verdict {
        if self.active {
            return Verdict::Alarm;
        }
        let mut streak = self.b_access.consecutive_violations();
        streak = streak.max(self.b_miss.consecutive_violations());
        if let Some(p) = &self.p {
            streak = streak.max(p.consecutive_changes());
        }
        if streak > 0 {
            Verdict::Suspicious { consecutive: streak }
        } else {
            Verdict::Normal
        }
    }

    /// Feeds one tick — each channel its own statistic — and combines
    /// the channel states. The scheme's only stepping logic: scalar and
    /// batch stepping both go through it. `period` is ignored when the
    /// application is non-periodic.
    fn step(&mut self, access: f64, miss: f64, period: f64) -> DetectorStep {
        self.b_access.step_raw(access);
        self.b_miss.step_raw(miss);
        let b_active = self.b_access.alarm_active() || self.b_miss.alarm_active();
        let now_active = match &mut self.p {
            Some(p) => {
                p.step_raw(period);
                b_active && p.alarm_active()
            }
            None => b_active,
        };
        let became = now_active && !self.active;
        if became {
            self.activations += 1;
        }
        self.active = now_active;
        DetectorStep { verdict: self.verdict(), became_active: became, throttle: None }
    }

    /// The statistic the period channel monitors (any column will do
    /// for a non-periodic application, whose `period` input is unused).
    fn period_stat(&self) -> Stat {
        self.p.as_ref().map_or(Stat::AccessNum, |p| p.params().stat)
    }
}

impl Detector for Sds {
    fn name(&self) -> &str {
        Sds::NAME
    }

    fn on_observation(&mut self, obs: Observation) -> DetectorStep {
        self.step(
            obs.stat(self.b_access.stat()),
            obs.stat(self.b_miss.stat()),
            obs.stat(self.period_stat()),
        )
    }

    /// Columnar stepping: each channel's column is selected once per
    /// batch and every tick goes through `Sds::step`, so batch and
    /// scalar stepping share one body.
    // hot-path
    fn step_batch(&mut self, batch: ObservationBatch<'_>, out: &mut Vec<DetectorStep>) {
        let col_a = batch.column(self.b_access.stat());
        let col_m = batch.column(self.b_miss.stat());
        let col_p = batch.column(self.period_stat());
        out.reserve(col_a.len());
        for ((&a, &m), &p) in col_a.iter().zip(col_m).zip(col_p) {
            out.push(self.step(a, m, p));
        }
    }

    fn alarm_active(&self) -> bool {
        self.active
    }

    fn activations(&self) -> u64 {
        self.activations
    }

    fn resident_bytes_hint(&self) -> usize {
        std::mem::size_of::<Sds>()
            + self.b_access.resident_bytes_hint()
            + self.b_miss.resident_bytes_hint()
            + self.p.as_ref().map_or(0, SdsP::resident_bytes_hint)
    }
}

impl FromProfile for Sds {
    type Params = SdsParams;

    fn from_profile(profile: &Profile, params: &SdsParams) -> Result<Self, CoreError> {
        Sds::from_profile(profile, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SdsBParams, SdsPParams};
    use crate::profile::Profiler;

    fn fast_params() -> SdsParams {
        SdsParams {
            sdsb: SdsBParams {
                window: 10,
                step: 5,
                alpha: 0.5,
                k: 2.0,
                h_c: 3,
                ..SdsBParams::default()
            },
            sdsp: SdsPParams {
                window: 10,
                step: 5,
                window_periods: 2.0,
                step_ma: 2,
                h_p: 3,
                deviation: 0.2,
                ..SdsPParams::default()
            },
        }
    }

    /// Profiles a flat (non-periodic) signal.
    fn flat_profile() -> Profile {
        let mut p = Profiler::default();
        for i in 0..4000 {
            p.observe(Observation {
                access_num: 1000.0 + (i % 10) as f64,
                miss_num: 100.0 + (i % 5) as f64,
            });
        }
        p.finish().unwrap()
    }

    /// Profiles a square-wave (periodic) signal with period 20 MA
    /// windows at the default ΔW=50 (1000 raw samples per cycle).
    fn periodic_profile() -> Profile {
        let mut p = Profiler::default();
        for i in 0..12_000 {
            let phase = (i / 500) % 2;
            let a = if phase == 0 { 1200.0 } else { 400.0 };
            p.observe(Observation { access_num: a + (i % 7) as f64, miss_num: 50.0 });
        }
        p.finish().unwrap()
    }

    use crate::profile::Profile;

    #[test]
    fn non_periodic_mode_is_boundary_only() {
        let sds = Sds::from_profile(&flat_profile(), &fast_params()).unwrap();
        assert!(!sds.is_periodic_mode());
        assert!(sds.period_channel().is_none());
    }

    #[test]
    fn periodic_mode_includes_sdsp() {
        let sds = Sds::from_profile(&periodic_profile(), &SdsParams::default()).unwrap();
        assert!(sds.is_periodic_mode());
        let p = sds.period_channel().unwrap();
        assert!((15.0..=25.0).contains(&p.normal_period()));
    }

    /// The same generator the flat profile was built from.
    fn flat_obs(i: u64) -> Observation {
        Observation {
            access_num: 1000.0 + (i % 10) as f64,
            miss_num: 100.0 + (i % 5) as f64,
        }
    }

    #[test]
    fn non_periodic_alarm_on_access_drop() {
        let mut sds = Sds::from_profile(&flat_profile(), &fast_params()).unwrap();
        for i in 0..200u64 {
            sds.on_observation(flat_obs(i));
        }
        assert!(!sds.alarm_active());
        for i in 0..200u64 {
            sds.on_observation(Observation { access_num: 100.0, ..flat_obs(i) });
        }
        assert!(sds.alarm_active());
        assert_eq!(sds.activations(), 1);
    }

    #[test]
    fn non_periodic_alarm_on_miss_rise() {
        let mut sds = Sds::from_profile(&flat_profile(), &fast_params()).unwrap();
        for i in 0..200u64 {
            sds.on_observation(Observation { miss_num: 800.0, ..flat_obs(i) });
        }
        assert!(sds.alarm_active());
        assert!(sds.boundary_miss().alarm_active());
        assert!(!sds.boundary_access().alarm_active());
    }

    #[test]
    fn periodic_mode_requires_agreement() {
        // Craft a profile with period 20 MA windows, then feed a signal
        // whose *level* breaks the boundary but whose *period* stays
        // normal: combined SDS must stay quiet even though SDS/B alarms.
        let profile = periodic_profile();
        let mut sds = Sds::from_profile(&profile, &profile.params).unwrap();
        // Same square wave, but shifted up so the EWMA leaves the range
        // while periodicity is unchanged.
        for i in 0..30_000u64 {
            let phase = (i / 500) % 2;
            let a = if phase == 0 { 2400.0 } else { 1600.0 };
            sds.on_observation(Observation { access_num: a, miss_num: 50.0 });
        }
        assert!(sds.boundary_access().alarm_active(), "SDS/B should fire");
        assert!(
            !sds.period_channel().unwrap().alarm_active(),
            "SDS/P should stay quiet (period unchanged: {:?})",
            sds.period_channel().unwrap().last_period()
        );
        assert!(!sds.alarm_active(), "combined SDS must require agreement");
    }

    #[test]
    fn periodic_mode_alarms_when_both_agree() {
        let profile = periodic_profile();
        let mut sds = Sds::from_profile(&profile, &profile.params).unwrap();
        // Attack: level drops AND period dilates 60 %.
        for i in 0..40_000u64 {
            let phase = (i / 800) % 2;
            let a = if phase == 0 { 500.0 } else { 150.0 };
            sds.on_observation(Observation { access_num: a, miss_num: 50.0 });
        }
        assert!(sds.boundary_access().alarm_active());
        assert!(sds.period_channel().unwrap().alarm_active());
        assert!(sds.alarm_active());
    }

    #[test]
    fn detector_name() {
        let sds = Sds::from_profile(&flat_profile(), &fast_params()).unwrap();
        assert_eq!(sds.name(), "SDS");
    }
}
