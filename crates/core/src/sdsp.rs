//! SDS/P — the Period-based Statistical Detection Scheme (§4.2.2).
//!
//! For periodic applications, both attacks *prolong the period* of the
//! repeating cache-access pattern (Observation 2): the application needs
//! longer to process each batch. SDS/P monitors the MA time series with a
//! window of `W_P = 2p` values (two normal periods — the minimum that
//! determines the period, and small enough that abnormal values dominate
//! quickly); every `ΔW_P` new MA values it re-runs DFT-ACF on the latest
//! window and compares the estimate with the profiled normal period. When
//! `H_P` consecutive estimates deviate by more than 20 % — or the
//! periodic pattern disappears entirely, which a destroyed pattern under
//! harsh attack does — the alarm raises.
//!
//! Stepping goes exclusively through the [`Detector`] trait (the
//! statistic is chosen by [`SdsPParams::stat`]); the raw-sample step
//! behind it is crate-private so every caller sees the same
//! [`DetectorStep`]/[`Verdict`] surface.

use crate::config::SdsPParams;
use crate::detector::{
    Detector, DetectorStep, FromProfile, Observation, ObservationBatch, Verdict,
};
use crate::profile::Profile;
use crate::CoreError;
use memdos_stats::period::PeriodDetector;
use memdos_stats::smoothing::MovingAverage;
use std::collections::VecDeque;

/// The SDS/P online detector.
#[derive(Debug)]
pub struct SdsP {
    params: SdsPParams,
    normal_period: f64,
    w_p: usize,
    ma: MovingAverage,
    window: VecDeque<f64>,
    since_recompute: usize,
    period_detector: PeriodDetector,
    consecutive: u32,
    active: bool,
    activations: u64,
    last_period: Option<f64>,
    computations: u64,
    name: String,
}

impl SdsP {
    /// Creates a detector from the profiled normal period (in MA
    /// windows) for the statistic selected by `params.stat`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for invalid `params` or a
    /// non-positive/NaN `normal_period`.
    pub fn new(params: SdsPParams, normal_period: f64) -> Result<Self, CoreError> {
        params.validate()?;
        if !(normal_period >= 4.0) {
            return Err(CoreError::InvalidParameter {
                name: "normal_period",
                reason: "profiled period must be at least 4 MA windows",
            });
        }
        let w_p = ((params.window_periods * normal_period).round() as usize).max(8);
        Ok(SdsP {
            ma: MovingAverage::new(params.window, params.step)?,
            normal_period,
            w_p,
            window: VecDeque::with_capacity(w_p),
            since_recompute: 0,
            period_detector: PeriodDetector::default(),
            consecutive: 0,
            active: false,
            activations: 0,
            last_period: None,
            computations: 0,
            name: format!("SDS/P[{}]", params.stat),
            params,
        })
    }

    /// Creates a detector from a Stage-1 [`Profile`], monitoring the
    /// statistic selected by `params.stat`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotPeriodic`] when the profile has no
    /// periodicity entry, or parameter errors as in [`SdsP::new`].
    pub fn from_profile(profile: &Profile, params: &SdsPParams) -> Result<Self, CoreError> {
        let p = profile.periodicity.as_ref().ok_or(CoreError::NotPeriodic)?;
        SdsP::new(*params, p.period_ma)
    }

    /// The profiled normal period in MA windows.
    pub fn normal_period(&self) -> f64 {
        self.normal_period
    }

    /// Parameters in use.
    pub fn params(&self) -> &SdsPParams {
        &self.params
    }

    /// The monitoring window size `W_P` in MA values.
    pub fn window_size(&self) -> usize {
        self.w_p
    }

    /// The most recent period estimate (`None` before the first
    /// computation or when the last window had no detectable period).
    pub fn last_period(&self) -> Option<f64> {
        self.last_period
    }

    /// Number of DFT-ACF computations performed so far.
    pub fn computations(&self) -> u64 {
        self.computations
    }

    /// Current consecutive period-change count.
    pub fn consecutive_changes(&self) -> u32 {
        self.consecutive
    }

    /// Estimated heap bytes held by this channel (MA ring buffer, the
    /// `W_P` MA-value window and the rendered name). Deterministic
    /// capacity accounting, used for fleet resident-memory estimates.
    pub fn resident_bytes_hint(&self) -> usize {
        self.ma.resident_bytes_hint()
            + self.window.capacity() * std::mem::size_of::<f64>()
            + self.name.capacity()
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
    /// [`crate::sds::Sds`] steps its period channel through it.
    pub(crate) fn step_raw(&mut self, raw: f64) -> DetectorStep {
        let became = self.advance(raw);
        DetectorStep { verdict: self.verdict(), became_active: became, throttle: None }
    }

    /// The state update behind [`SdsP::step_raw`]; returns `true` on an
    /// inactive→active transition.
    fn advance(&mut self, raw: f64) -> bool {
        let Some(m) = self.ma.push(raw) else {
            return false;
        };
        if self.window.len() == self.w_p {
            self.window.pop_front();
        }
        self.window.push_back(m);
        if self.window.len() < self.w_p {
            return false;
        }
        self.since_recompute += 1;
        if self.since_recompute < self.params.step_ma {
            return false;
        }
        self.since_recompute = 0;

        let series: Vec<f64> = self.window.iter().copied().collect();
        self.computations += 1;
        let estimate = self
            .period_detector
            .detect(&series)
            .ok()
            .flatten()
            .map(|e| e.period);
        self.last_period = estimate;
        let deviates = match estimate {
            Some(p) => {
                (p - self.normal_period).abs() / self.normal_period > self.params.deviation
            }
            // The periodic pattern vanished altogether: maximal deviation.
            None => true,
        };
        if deviates {
            self.consecutive = self.consecutive.saturating_add(1);
        } else {
            self.consecutive = 0;
        }
        let now_active = self.consecutive >= self.params.h_p;
        let became = now_active && !self.active;
        if became {
            self.activations += 1;
        }
        self.active = now_active;
        became
    }
}

impl Detector for SdsP {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_observation(&mut self, obs: Observation) -> DetectorStep {
        self.step_raw(obs.stat(self.params.stat))
    }

    /// Columnar stepping: the statistic's column is selected once per
    /// batch and each sample goes through `SdsP::step_raw`, so batch
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
        SdsP::resident_bytes_hint(self)
    }
}

impl FromProfile for SdsP {
    type Params = SdsPParams;

    fn from_profile(profile: &Profile, params: &SdsPParams) -> Result<Self, CoreError> {
        SdsP::from_profile(profile, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small parameters so tests run on short signals: MA over 10 raw
    /// samples stepping 5, recompute every 2 MA values, H_P = 3.
    fn fast_params() -> SdsPParams {
        SdsPParams {
            window: 10,
            step: 5,
            window_periods: 2.0,
            step_ma: 2,
            h_p: 3,
            deviation: 0.2,
            ..SdsPParams::default()
        }
    }

    /// Feeds a square wave whose period is `period_ma` MA windows
    /// (period_ma * step raw samples per cycle).
    fn feed_square(d: &mut SdsP, period_ma: f64, ma_values: usize) -> bool {
        let raw_per_cycle = (period_ma * 5.0) as usize;
        let total_raw = ma_values * 5 + 10;
        let mut any = false;
        for i in 0..total_raw {
            let phase = (i % raw_per_cycle) < raw_per_cycle / 2;
            let v = if phase { 1000.0 } else { 200.0 };
            any |= d.step_raw(v).became_active;
        }
        any
    }

    #[test]
    fn quiet_on_normal_period() {
        let mut d = SdsP::new(fast_params(), 16.0).unwrap();
        feed_square(&mut d, 16.0, 300);
        assert!(!d.alarm_active(), "last period {:?}", d.last_period());
        assert!(d.computations() > 50);
    }

    #[test]
    fn detects_dilated_period() {
        let mut d = SdsP::new(fast_params(), 16.0).unwrap();
        feed_square(&mut d, 16.0, 100);
        assert!(!d.alarm_active());
        // Attack: period grows 50 %.
        let became = feed_square(&mut d, 24.0, 200);
        assert!(became || d.alarm_active(), "no alarm on dilation");
        // The dilated period (24) exceeds W_P / 2 (= 16), so DFT-ACF may
        // legitimately report nothing — both a dilated estimate and a
        // vanished estimate count as deviations.
        if let Some(p) = d.last_period() {
            assert!(
                (p - 16.0).abs() / 16.0 > 0.2,
                "estimate {p} should deviate from the normal period"
            );
        }
    }

    #[test]
    fn detects_destroyed_pattern() {
        let mut d = SdsP::new(fast_params(), 16.0).unwrap();
        feed_square(&mut d, 16.0, 100);
        // Pattern collapses to a constant: DFT-ACF finds nothing.
        for _ in 0..2000 {
            d.step_raw(500.0);
        }
        assert!(d.alarm_active());
    }

    #[test]
    fn small_fluctuation_within_tolerance_stays_quiet() {
        let mut d = SdsP::new(fast_params(), 16.0).unwrap();
        // 10 % longer period: below the 20 % threshold. The estimate may
        // jitter between windows, so require merely that a sustained
        // alarm does not form.
        feed_square(&mut d, 16.0, 100);
        feed_square(&mut d, 17.5, 200);
        assert!(!d.alarm_active(), "alarmed at ~9 % deviation");
    }

    #[test]
    fn window_size_is_two_periods() {
        let d = SdsP::new(fast_params(), 16.0).unwrap();
        assert_eq!(d.window_size(), 32);
        assert_eq!(d.normal_period(), 16.0);
    }

    #[test]
    fn rejects_tiny_period() {
        assert!(matches!(
            SdsP::new(fast_params(), 2.0),
            Err(CoreError::InvalidParameter { .. })
        ));
        assert!(SdsP::new(fast_params(), f64::NAN).is_err());
    }

    #[test]
    fn from_profile_requires_periodicity() {
        use crate::profile::Profiler;
        let mut p = Profiler::default();
        for i in 0..3000 {
            p.observe(Observation {
                access_num: 100.0 + (i % 3) as f64,
                miss_num: 10.0,
            });
        }
        let profile = p.finish().unwrap();
        assert!(matches!(
            SdsP::from_profile(&profile, &SdsPParams::default()),
            Err(CoreError::NotPeriodic)
        ));
    }

    #[test]
    fn verdict_reflects_streak_then_alarm() {
        let mut d = SdsP::new(fast_params(), 16.0).unwrap();
        feed_square(&mut d, 16.0, 100);
        let mut last = DetectorStep::quiet();
        for _ in 0..5000 {
            last = d.on_observation(Observation { access_num: 500.0, miss_num: 0.0 });
            if d.alarm_active() {
                break;
            }
        }
        assert_eq!(last.verdict, Verdict::Alarm);
        assert!(last.became_active);
        assert_eq!(d.activations(), 1);
    }

    #[test]
    fn computation_cadence_follows_step_ma() {
        let mut d = SdsP::new(fast_params(), 16.0).unwrap();
        feed_square(&mut d, 16.0, 100);
        let c1 = d.computations();
        feed_square(&mut d, 16.0, 20); // 20 new MA values, step_ma = 2
        let c2 = d.computations();
        assert!((c2 - c1) >= 9 && (c2 - c1) <= 11, "delta {}", c2 - c1);
    }
}
