//! SDS/B — the Boundary-based Statistical Detection Scheme (§4.2.1).
//!
//! Pipeline per monitored statistic: raw PCM samples → sliding-window MA
//! (Eq. 1) → EWMA (Eq. 2) → boundary condition `C_n` (Eq. 3) against the
//! profiled normal range `[μ_E − kσ_E, μ_E + kσ_E]` → alarm after `H_C`
//! consecutive violations. Chebyshev's inequality (Eq. 4) bounds the
//! false-alarm probability at `(1/k²)^{H_C}` for *any* underlying
//! distribution, which is what makes the scheme robust across
//! applications.
//!
//! A single [`SdsB`] instance monitors one statistic (chosen by
//! [`SdsBParams::stat`]); the combined [`crate::sds::Sds`] runs one
//! instance on `AccessNum` (bus-locking attacks drive it *below* range)
//! and one on `MissNum` (cleansing attacks drive it *above* range).
//!
//! Stepping goes exclusively through the [`Detector`] trait; the
//! raw-sample step behind it is crate-private so every caller sees the
//! same [`DetectorStep`]/[`Verdict`] surface.

use crate::config::SdsBParams;
use crate::detector::{
    Detector, DetectorStep, FromProfile, Observation, ObservationBatch, Verdict,
};
use crate::profile::{Profile, StatProfile};
use crate::CoreError;
use memdos_sim::pcm::Stat;
use memdos_stats::bounds::NormalRange;
use memdos_stats::smoothing::Pipeline;

/// The SDS/B online detector for one cache statistic.
#[derive(Debug)]
pub struct SdsB {
    params: SdsBParams,
    range: NormalRange,
    pipeline: Pipeline,
    consecutive: u32,
    active: bool,
    activations: u64,
    last_ewma: Option<f64>,
    name: String,
}

impl SdsB {
    /// Creates a detector from a profiled mean and standard deviation of
    /// the statistic selected by `params.stat`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for invalid `params` or a
    /// degenerate profile (negative or NaN `sigma`).
    pub fn new(params: SdsBParams, mu: f64, sigma: f64) -> Result<Self, CoreError> {
        params.validate()?;
        let range = NormalRange::new(mu, sigma, params.k).map_err(|_| {
            CoreError::InvalidParameter {
                name: "profile",
                reason: "profiled mean/deviation must be finite with sigma >= 0",
            }
        })?;
        Ok(SdsB {
            pipeline: Pipeline::new(params.window, params.step, params.alpha)?,
            range,
            consecutive: 0,
            active: false,
            activations: 0,
            last_ewma: None,
            // lint:allow(hot-propagate) -- the detector name is built once, when Stage 1 completes and the monitor arms, never while sampling
            name: format!("SDS/B[{}]", params.stat),
            params,
        })
    }

    /// Creates a detector from a Stage-1 [`Profile`], monitoring the
    /// statistic selected by `params.stat`.
    ///
    /// # Errors
    ///
    /// See [`SdsB::new`].
    pub fn from_profile(profile: &Profile, params: &SdsBParams) -> Result<Self, CoreError> {
        let sp: &StatProfile = match params.stat {
            Stat::AccessNum => &profile.access,
            Stat::MissNum => &profile.miss,
        };
        SdsB::new(*params, sp.mu, sp.sigma)
    }

    /// The normal range in use.
    pub fn range(&self) -> NormalRange {
        self.range
    }

    /// The statistic this instance monitors.
    pub fn stat(&self) -> Stat {
        self.params.stat
    }

    /// Parameters in use.
    pub fn params(&self) -> &SdsBParams {
        &self.params
    }

    /// Current consecutive-violation count.
    pub fn consecutive_violations(&self) -> u32 {
        self.consecutive
    }

    /// The most recent EWMA value `S_n`, if a window has completed.
    pub fn last_ewma(&self) -> Option<f64> {
        self.last_ewma
    }

    /// Estimated heap bytes held by this channel (the smoothing
    /// pipeline's ring buffer plus the rendered name). Deterministic
    /// capacity accounting, used for fleet resident-memory estimates.
    pub fn resident_bytes_hint(&self) -> usize {
        self.pipeline.resident_bytes_hint() + self.name.capacity()
    }

    /// Verdict reflecting the current counter/alarm state.
    fn verdict(&self) -> Verdict {
        if self.active {
            Verdict::Alarm
        } else if self.consecutive > 0 {
            Verdict::Suspicious { consecutive: self.consecutive }
        } else {
            Verdict::Normal
        }
    }

    /// Feeds one raw sample of the monitored statistic — the scheme's
    /// only stepping logic. [`Detector::on_observation`] and
    /// [`Detector::step_batch`] call it per sample, and the combined
    /// [`crate::sds::Sds`] steps its boundary channels through it.
    pub(crate) fn step_raw(&mut self, raw: f64) -> DetectorStep {
        let mut became = false;
        if let Some(s) = self.pipeline.push(raw) {
            self.last_ewma = Some(s.ewma);
            if self.range.is_violation(s.ewma) {
                self.consecutive = self.consecutive.saturating_add(1);
            } else {
                self.consecutive = 0;
            }
            let now_active = self.consecutive >= self.params.h_c;
            became = now_active && !self.active;
            if became {
                self.activations += 1;
            }
            self.active = now_active;
        }
        DetectorStep { verdict: self.verdict(), became_active: became, throttle: None }
    }
}

impl Detector for SdsB {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_observation(&mut self, obs: Observation) -> DetectorStep {
        self.step_raw(obs.stat(self.params.stat))
    }

    /// Columnar stepping: the statistic's column is selected once per
    /// batch and each sample goes through `SdsB::step_raw`, so batch
    /// and scalar stepping share one body.
    // hot-path
    fn step_batch(&mut self, batch: ObservationBatch<'_>, out: &mut Vec<DetectorStep>) {
        let col = batch.column(self.params.stat);
        out.reserve(col.len());
        for &raw in col {
            out.push(self.step_raw(raw));
        }
    }

    fn alarm_active(&self) -> bool {
        self.active
    }

    fn activations(&self) -> u64 {
        self.activations
    }

    fn resident_bytes_hint(&self) -> usize {
        SdsB::resident_bytes_hint(self)
    }
}

impl FromProfile for SdsB {
    type Params = SdsBParams;

    fn from_profile(profile: &Profile, params: &SdsBParams) -> Result<Self, CoreError> {
        SdsB::from_profile(profile, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parameters that react quickly, for compact tests.
    fn fast_params() -> SdsBParams {
        SdsBParams { window: 10, step: 5, alpha: 0.5, k: 2.0, h_c: 3, ..SdsBParams::default() }
    }

    fn miss_params() -> SdsBParams {
        SdsBParams { stat: Stat::MissNum, ..fast_params() }
    }

    fn feed(d: &mut SdsB, value: f64, n: usize) -> bool {
        let mut any = false;
        for _ in 0..n {
            any |= d.step_raw(value).became_active;
        }
        any
    }

    #[test]
    fn stays_quiet_within_range() {
        let mut d = SdsB::new(fast_params(), 100.0, 10.0).unwrap();
        assert!(!feed(&mut d, 105.0, 500));
        assert!(!d.alarm_active());
        assert_eq!(d.activations(), 0);
    }

    #[test]
    fn detects_drop_below_range() {
        // Bus-locking signature: AccessNum collapses.
        let mut d = SdsB::new(fast_params(), 100.0, 10.0).unwrap();
        feed(&mut d, 100.0, 100);
        assert!(!d.alarm_active());
        let became = feed(&mut d, 20.0, 200);
        assert!(became);
        assert!(d.alarm_active());
        assert_eq!(d.activations(), 1);
    }

    #[test]
    fn detects_rise_above_range() {
        // Cleansing signature: MissNum inflates.
        let mut d = SdsB::new(miss_params(), 50.0, 5.0).unwrap();
        feed(&mut d, 50.0, 100);
        feed(&mut d, 300.0, 200);
        assert!(d.alarm_active());
    }

    #[test]
    fn needs_h_c_consecutive_violations() {
        // α = 1 (no EWMA memory) and non-overlapping windows isolate the
        // consecutive-counter logic: 3 violating windows < H_C = 4.
        let params = SdsBParams {
            window: 10,
            step: 10,
            alpha: 1.0,
            k: 2.0,
            h_c: 4,
            ..SdsBParams::default()
        };
        let mut d = SdsB::new(params, 100.0, 10.0).unwrap();
        feed(&mut d, 100.0, 50);
        feed(&mut d, 0.0, 30); // exactly 3 violating windows
        assert_eq!(d.consecutive_violations(), 3);
        assert!(!d.alarm_active());
        feed(&mut d, 100.0, 10); // a clean window resets the streak
        assert_eq!(d.consecutive_violations(), 0);
        feed(&mut d, 0.0, 40); // 4 violating windows reach H_C
        assert!(d.alarm_active());
        assert_eq!(d.activations(), 1);
    }

    #[test]
    fn alarm_clears_when_condition_clears() {
        let mut d = SdsB::new(fast_params(), 100.0, 1.0).unwrap();
        feed(&mut d, 100.0, 50);
        feed(&mut d, 0.0, 100);
        assert!(d.alarm_active());
        // EWMA needs a while to recover into range; keep feeding normal.
        feed(&mut d, 100.0, 200);
        assert!(!d.alarm_active());
        // Re-attack: a second activation.
        feed(&mut d, 0.0, 100);
        assert!(d.alarm_active());
        assert_eq!(d.activations(), 2);
    }

    #[test]
    fn verdict_tracks_streak_and_alarm() {
        let params = SdsBParams {
            window: 10,
            step: 10,
            alpha: 1.0,
            k: 2.0,
            h_c: 4,
            ..SdsBParams::default()
        };
        let mut d = SdsB::new(params, 100.0, 10.0).unwrap();
        let mut last = DetectorStep::quiet();
        for _ in 0..50 {
            last = d.on_observation(Observation { access_num: 100.0, miss_num: 0.0 });
        }
        assert_eq!(last.verdict, Verdict::Normal);
        for _ in 0..20 {
            last = d.on_observation(Observation { access_num: 0.0, miss_num: 0.0 });
        }
        assert_eq!(d.consecutive_violations(), 2);
        assert_eq!(last.verdict, Verdict::Suspicious { consecutive: 2 });
        for _ in 0..20 {
            last = d.on_observation(Observation { access_num: 0.0, miss_num: 0.0 });
        }
        assert_eq!(last.verdict, Verdict::Alarm);
        assert!(d.alarm_active());
    }

    #[test]
    fn detector_trait_selects_stat() {
        let mut d = SdsB::new(miss_params(), 50.0, 5.0).unwrap();
        // Access wildly anomalous, miss normal: a MissNum detector must
        // not react.
        for _ in 0..300 {
            d.on_observation(Observation { access_num: 100_000.0, miss_num: 51.0 });
        }
        assert!(!d.alarm_active());
        assert!(d.name().contains("MissNum"));
    }

    #[test]
    fn from_profile_uses_right_channel() {
        use crate::profile::Profiler;
        let mut p = Profiler::default();
        for i in 0..4000 {
            p.observe(Observation {
                access_num: 1000.0 + (i % 10) as f64,
                miss_num: 100.0 + (i % 5) as f64,
            });
        }
        let profile = p.finish().unwrap();
        let a = SdsB::from_profile(&profile, &SdsBParams::default()).unwrap();
        let m = SdsB::from_profile(
            &profile,
            &SdsBParams { stat: Stat::MissNum, ..SdsBParams::default() },
        )
        .unwrap();
        assert!(a.range().lower > 900.0 && a.range().upper < 1100.0);
        assert!(m.range().lower > 80.0 && m.range().upper < 120.0);
    }

    #[test]
    fn rejects_bad_profile() {
        assert!(SdsB::new(fast_params(), f64::NAN, 1.0).is_err());
        assert!(SdsB::new(fast_params(), 1.0, -1.0).is_err());
    }

    #[test]
    fn min_delay_bound_holds() {
        // The alarm cannot fire before H_C · ΔW raw samples after the
        // anomaly starts (§4.2.1).
        let params = fast_params(); // H_C=3, ΔW=5 → ≥15 samples
        let mut d = SdsB::new(params, 100.0, 1.0).unwrap();
        feed(&mut d, 100.0, 100);
        let mut samples_to_alarm = 0;
        for i in 1..=1000 {
            if d.step_raw(0.0).became_active {
                samples_to_alarm = i;
                break;
            }
        }
        assert!(samples_to_alarm >= params.min_detection_delay_ticks(),
            "alarm after {samples_to_alarm} samples, bound {}",
            params.min_detection_delay_ticks());
    }
}
