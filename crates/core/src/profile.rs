//! Stage-1 profiling: learning a VM's benign behaviour.
//!
//! §4.2.1: "It is reasonable to assume that a benign VM is in a safe
//! state (i.e., not under any attack) immediately after it is newly
//! started or migrated, since the malicious tenant needs to conduct VM
//! co-location again. The providers can collect the cache-related
//! statistics of a benign VM at that time."
//!
//! The [`Profiler`] consumes the VM's PCM statistics during that safe
//! window and produces a [`Profile`]:
//!
//! * per-statistic EWMA mean `μ_E` and standard deviation `σ_E` (the
//!   SDS/B normal range), and
//! * the periodicity classification (§4.2.2): DFT-ACF is run over the MA
//!   series "to check if there exists a relatively constant period where
//!   MA patterns repeat" — the period must be detected consistently in
//!   both halves of the profile and be strong enough.

use crate::config::SdsParams;
use crate::detector::Observation;
use crate::CoreError;
use memdos_stats::period::PeriodDetector;
use memdos_stats::series;
use memdos_stats::smoothing::Pipeline;

/// Profiled EWMA statistics of one cache statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatProfile {
    /// Mean `μ_E` of the EWMA series without attack.
    pub mu: f64,
    /// Standard deviation `σ_E` of the EWMA series without attack.
    pub sigma: f64,
    /// Number of EWMA values the estimate is based on.
    pub n: usize,
}

/// Profiled periodicity of a periodic application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodProfile {
    /// The normal period `p`, in MA windows.
    pub period_ma: f64,
    /// ACF strength of the period in `[0, 1]`.
    pub strength: f64,
}

/// The complete Stage-1 profile of one VM.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Preprocessing parameters the profile was computed with (detectors
    /// built from this profile must use the same ones).
    pub params: SdsParams,
    /// `AccessNum` EWMA statistics.
    pub access: StatProfile,
    /// `MissNum` EWMA statistics.
    pub miss: StatProfile,
    /// Periodicity of the `AccessNum` MA series, when the application is
    /// classified as periodic.
    pub periodicity: Option<PeriodProfile>,
}

impl Profile {
    /// Whether the application was classified as periodic.
    pub fn is_periodic(&self) -> bool {
        self.periodicity.is_some()
    }

    /// Merges this profile with a newer one, weighting each statistic by
    /// its sample count — the §6 *re-profiling* hook: "the cloud
    /// providers could allow tenants to profile the statistics under
    /// different situations, or allow tenants to request re-profiling
    /// when they notice their applications change."
    ///
    /// The merged standard deviation accounts for both within-profile
    /// variance and the shift between the two profile means, so a
    /// bimodal application (e.g. day/night behaviour) gets a band wide
    /// enough to cover both modes. Periodicity is taken from the newer
    /// profile (the application may have changed batch size).
    pub fn merged_with(&self, newer: &Profile) -> Profile {
        fn merge(a: &StatProfile, b: &StatProfile) -> StatProfile {
            let n = (a.n + b.n).max(1);
            let wa = a.n as f64 / n as f64;
            let wb = b.n as f64 / n as f64;
            let mu = wa * a.mu + wb * b.mu;
            let var = wa * (a.sigma * a.sigma + (a.mu - mu) * (a.mu - mu))
                + wb * (b.sigma * b.sigma + (b.mu - mu) * (b.mu - mu));
            StatProfile { mu, sigma: var.sqrt(), n }
        }
        Profile {
            params: newer.params,
            access: merge(&self.access, &newer.access),
            miss: merge(&self.miss, &newer.miss),
            periodicity: newer.periodicity,
        }
    }
}

/// Configuration of the profiling pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilerConfig {
    /// Preprocessing/detector parameters (Table 1 defaults).
    pub sds: SdsParams,
    /// Minimum ACF strength for the periodic classification.
    pub min_period_strength: f64,
    /// Maximum relative disagreement between the periods detected in the
    /// two halves of the profile.
    pub consistency_tolerance: f64,
    /// Minimum number of EWMA values the profile must contain.
    pub min_smoothed: usize,
}

impl ProfilerConfig {
    /// Validates the configuration — the same contract every detector
    /// params struct exposes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] naming the offending
    /// field.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.sds.validate()?;
        if !(self.min_period_strength > 0.0 && self.min_period_strength <= 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "min_period_strength",
                reason: "must be in (0, 1]",
            });
        }
        if !(self.consistency_tolerance > 0.0 && self.consistency_tolerance < 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "consistency_tolerance",
                reason: "must be in (0, 1)",
            });
        }
        if self.min_smoothed == 0 {
            return Err(CoreError::InvalidParameter {
                name: "min_smoothed",
                reason: "must be positive",
            });
        }
        Ok(())
    }
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            sds: SdsParams::default(),
            min_period_strength: 0.5,
            consistency_tolerance: 0.25,
            min_smoothed: 20,
        }
    }
}

/// Streaming Stage-1 profiler.
#[derive(Debug)]
pub struct Profiler {
    cfg: ProfilerConfig,
    access_pipe: Pipeline,
    miss_pipe: Pipeline,
    access_ma: Vec<f64>,
    access_ewma: Vec<f64>,
    miss_ewma: Vec<f64>,
    observations: u64,
}

impl Profiler {
    /// Creates a profiler.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the preprocessing
    /// parameters are invalid.
    pub fn new(cfg: ProfilerConfig) -> Result<Self, CoreError> {
        cfg.validate()?;
        let b = &cfg.sds.sdsb;
        Ok(Profiler {
            access_pipe: Pipeline::new(b.window, b.step, b.alpha)?,
            miss_pipe: Pipeline::new(b.window, b.step, b.alpha)?,
            access_ma: Vec::new(),
            access_ewma: Vec::new(),
            miss_ewma: Vec::new(),
            observations: 0,
            cfg,
        })
    }

    /// Feeds one tick of PCM statistics.
    pub fn observe(&mut self, obs: Observation) {
        self.observations += 1;
        if let Some(s) = self.access_pipe.push(obs.access_num) {
            self.access_ma.push(s.ma);
            self.access_ewma.push(s.ewma);
        }
        if let Some(s) = self.miss_pipe.push(obs.miss_num) {
            self.miss_ewma.push(s.ewma);
        }
    }

    /// Returns the profiler to its freshly constructed state, keeping
    /// every buffer's allocation, so a recycled profiler produces
    /// exactly the profile a new one fed the same input would.
    pub fn reset(&mut self) {
        self.access_pipe.reset();
        self.miss_pipe.reset();
        self.access_ma.clear();
        self.access_ewma.clear();
        self.miss_ewma.clear();
        self.observations = 0;
    }

    /// Number of raw observations consumed.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Estimated heap bytes held by the profiler: both smoothing
    /// pipelines plus the recorded MA/EWMA series (which grow with the
    /// profiling window). Deterministic capacity accounting, used for
    /// fleet resident-memory estimates.
    pub fn resident_bytes_hint(&self) -> usize {
        std::mem::size_of::<Profiler>()
            + self.access_pipe.resident_bytes_hint()
            + self.miss_pipe.resident_bytes_hint()
            + (self.access_ma.capacity()
                + self.access_ewma.capacity()
                + self.miss_ewma.capacity())
                * std::mem::size_of::<f64>()
    }

    /// Finalises the profile.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InsufficientProfile`] when fewer than
    /// `min_smoothed` EWMA values were produced.
    pub fn finish(self) -> Result<Profile, CoreError> {
        if self.access_ewma.len() < self.cfg.min_smoothed {
            return Err(CoreError::InsufficientProfile {
                required: self.cfg.min_smoothed,
                actual: self.access_ewma.len(),
            });
        }
        let access = StatProfile {
            mu: series::mean(&self.access_ewma)?,
            sigma: series::std_dev(&self.access_ewma)?,
            n: self.access_ewma.len(),
        };
        let miss = StatProfile {
            mu: series::mean(&self.miss_ewma)?,
            sigma: series::std_dev(&self.miss_ewma)?,
            n: self.miss_ewma.len(),
        };
        let periodicity = classify_periodicity(
            &self.access_ma,
            self.cfg.min_period_strength,
            self.cfg.consistency_tolerance,
        );
        Ok(Profile { params: self.cfg.sds, access, miss, periodicity })
    }
}

impl Default for Profiler {
    /// A profiler with the Table 1 defaults.
    fn default() -> Self {
        // lint:allow(panic) -- ProfilerConfig::default() is a compile-time
        // constant whose validity is pinned by unit tests.
        Profiler::new(ProfilerConfig::default()).expect("default parameters are valid")
    }
}

/// Runs the §4.2.2 periodicity check on an MA series: DFT-ACF must find a
/// strong period, and the periods detected in the two halves of the
/// series must agree within `tolerance` (a "relatively constant period").
///
/// Returns `None` for non-periodic series.
pub fn classify_periodicity(
    ma: &[f64],
    min_strength: f64,
    tolerance: f64,
) -> Option<PeriodProfile> {
    if ma.len() < 16 {
        return None;
    }
    // Amplitude floor: a micro-ripple on an otherwise flat series (e.g.
    // deterministic aliasing between the MA window and a fast loop in the
    // application) can autocorrelate perfectly yet carries no usable
    // periodic structure for SDS/P — the attack signal is a change in the
    // *macroscopic* batch pattern. Require the peak-to-peak swing to be
    // at least 5 % of the mean level.
    let mean = ma.iter().sum::<f64>() / ma.len() as f64;
    let max = ma.iter().cloned().fold(f64::MIN, f64::max);
    let min = ma.iter().cloned().fold(f64::MAX, f64::min);
    if (max - min) < 0.05 * mean.abs() {
        return None;
    }
    let det = PeriodDetector::default();
    let full = det.detect(ma).ok()??;
    if full.strength < min_strength {
        return None;
    }
    let half = ma.len() / 2;
    let first = det.detect(&ma[..half]).ok().flatten()?;
    let second = det.detect(&ma[half..]).ok().flatten()?;
    let spread = (first.period - second.period).abs() / full.period;
    if spread > tolerance {
        return None;
    }
    // The period must actually fit the monitoring window construction:
    // W_P = 2p needs p ≥ a few MA values.
    if full.period < 4.0 {
        return None;
    }
    Some(PeriodProfile { period_ma: full.period, strength: full.strength })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observe_signal(
        profiler: &mut Profiler,
        n: usize,
        f: impl Fn(usize) -> (f64, f64),
    ) {
        for i in 0..n {
            let (a, m) = f(i);
            profiler.observe(Observation { access_num: a, miss_num: m });
        }
    }

    #[test]
    fn profiles_stationary_signal() {
        let mut p = Profiler::default();
        observe_signal(&mut p, 5000, |i| {
            (1000.0 + (i % 11) as f64, 50.0 + (i % 7) as f64)
        });
        let profile = p.finish().unwrap();
        assert!((profile.access.mu - 1005.0).abs() < 3.0);
        assert!(profile.access.sigma < 5.0);
        assert!((profile.miss.mu - 53.0).abs() < 3.0);
        assert!(!profile.is_periodic());
    }

    #[test]
    fn detects_periodic_signal() {
        // Square wave with period 1000 raw ticks = 20 MA windows (ΔW=50).
        let mut p = Profiler::default();
        observe_signal(&mut p, 10_000, |i| {
            let phase = (i / 500) % 2;
            let a = if phase == 0 { 1200.0 } else { 400.0 };
            (a + (i % 13) as f64, 30.0)
        });
        let profile = p.finish().unwrap();
        let period = profile.periodicity.expect("square wave is periodic");
        assert!(
            (15.0..=25.0).contains(&period.period_ma),
            "period {} MA windows",
            period.period_ma
        );
        assert!(period.strength > 0.5);
    }

    #[test]
    fn insufficient_data_errors() {
        let mut p = Profiler::default();
        observe_signal(&mut p, 300, |_| (100.0, 10.0));
        assert!(matches!(
            p.finish(),
            Err(CoreError::InsufficientProfile { .. })
        ));
    }

    #[test]
    fn reset_then_feed_matches_a_fresh_profiler_bit_for_bit() {
        let square = |i: usize| {
            let a = if (i / 500) % 2 == 0 { 1200.0 } else { 400.0 };
            (a + (i % 13) as f64 / 3.0, 30.0 + (i % 7) as f64 * 0.1)
        };
        let mut recycled = Profiler::default();
        observe_signal(&mut recycled, 7_321, |i| (900.0 + (i % 17) as f64, 40.0));
        let held = recycled.resident_bytes_hint();
        recycled.reset();
        assert_eq!(recycled.observations(), 0);
        assert_eq!(recycled.resident_bytes_hint(), held, "reset keeps every buffer");
        let mut fresh = Profiler::default();
        observe_signal(&mut recycled, 10_000, square);
        observe_signal(&mut fresh, 10_000, square);
        let (a, b) = (recycled.finish().unwrap(), fresh.finish().unwrap());
        assert_eq!(a, b);
        assert_eq!(a.access.mu.to_bits(), b.access.mu.to_bits());
        assert_eq!(a.access.sigma.to_bits(), b.access.sigma.to_bits());
        assert_eq!(a.miss.sigma.to_bits(), b.miss.sigma.to_bits());
        let (pa, pb) = (a.periodicity.expect("periodic"), b.periodicity.expect("periodic"));
        assert_eq!(pa.period_ma.to_bits(), pb.period_ma.to_bits());
    }

    #[test]
    fn observation_counter() {
        let mut p = Profiler::default();
        observe_signal(&mut p, 42, |_| (1.0, 1.0));
        assert_eq!(p.observations(), 42);
    }

    #[test]
    fn classify_rejects_short_and_weak() {
        assert!(classify_periodicity(&[1.0; 10], 0.5, 0.25).is_none());
        // Aperiodic noise from a xorshift generator.
        let mut s = 0x1234_5678_9abc_def0u64;
        let noise: Vec<f64> = (0..200)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 40) as f64
            })
            .collect();
        assert!(classify_periodicity(&noise, 0.5, 0.25).is_none());
    }

    #[test]
    fn classify_rejects_micro_ripple_on_flat_level() {
        // A deterministic 0.1 % ripple autocorrelates perfectly but must
        // not count as periodicity (amplitude floor).
        let ripple: Vec<f64> = (0..300)
            .map(|i| 1000.0 + (2.0 * std::f64::consts::PI * i as f64 / 20.0).sin())
            .collect();
        assert!(classify_periodicity(&ripple, 0.5, 0.25).is_none());
    }

    #[test]
    fn classify_rejects_inconsistent_halves() {
        // First half period 10, second half period 23: not "relatively
        // constant".
        let mut signal = Vec::new();
        for i in 0..150 {
            signal.push((2.0 * std::f64::consts::PI * i as f64 / 10.0).sin());
        }
        for i in 0..150 {
            signal.push((2.0 * std::f64::consts::PI * i as f64 / 23.0).sin());
        }
        assert!(classify_periodicity(&signal, 0.5, 0.25).is_none());
    }

    #[test]
    fn merged_profile_covers_both_modes() {
        let mk = |mu: f64, sigma: f64, n: usize| StatProfile { mu, sigma, n };
        let day = Profile {
            params: Default::default(),
            access: mk(1000.0, 10.0, 100),
            miss: mk(50.0, 5.0, 100),
            periodicity: None,
        };
        let night = Profile {
            params: Default::default(),
            access: mk(400.0, 10.0, 100),
            miss: mk(20.0, 5.0, 100),
            periodicity: None,
        };
        let merged = day.merged_with(&night);
        // Equal weights: mean in the middle, sigma spans the mode gap.
        assert_eq!(merged.access.mu, 700.0);
        assert!(merged.access.sigma > 290.0, "sigma {}", merged.access.sigma);
        assert_eq!(merged.access.n, 200);
        // Each mode lies within ~1.05 sigma of the merged mean.
        assert!((1000.0 - merged.access.mu) / merged.access.sigma < 1.125);
    }

    #[test]
    fn merged_profile_respects_sample_weights() {
        let mk = |mu: f64, n: usize| StatProfile { mu, sigma: 1.0, n };
        let big = Profile {
            params: Default::default(),
            access: mk(100.0, 900),
            miss: mk(10.0, 900),
            periodicity: None,
        };
        let small = Profile {
            params: Default::default(),
            access: mk(200.0, 100),
            miss: mk(20.0, 100),
            periodicity: None,
        };
        let merged = big.merged_with(&small);
        assert!((merged.access.mu - 110.0).abs() < 1e-9);
    }

    #[test]
    fn classify_accepts_clean_sine() {
        let signal: Vec<f64> = (0..200)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 18.0).sin())
            .collect();
        let p = classify_periodicity(&signal, 0.5, 0.25).expect("sine is periodic");
        assert!((p.period_ma - 18.0).abs() < 1.0);
    }
}
