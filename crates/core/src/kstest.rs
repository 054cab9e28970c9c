//! The KStest baseline detector (Zhang et al., AsiaCCS '17 — [49]).
//!
//! Protocol (§3.2), per `L_R` cycle:
//!
//! 1. Throttle every VM except the protected one and collect `W_R`
//!    seconds of its statistics as *reference samples* (statistics under
//!    guaranteed no-contention), then resume the other VMs.
//! 2. Every `L_M` seconds, collect `W_M` seconds of *monitored samples*
//!    and run a two-sample Kolmogorov–Smirnov test against the reference.
//!    Four consecutive rejections declare an attack.
//!
//! The two weaknesses the paper demonstrates both fall out of this
//! structure: (a) applications whose statistics are non-stationary reject
//! the reference even when benign (false positives, Fig. 1 / §3.2);
//! (b) the throttling required for step 1 pauses every co-located VM for
//! `W_R / L_R` of its lifetime (≈3.3 % at the default parameters), the
//! dominant share of the baseline's 3–8 % overhead (Fig. 12).
//!
//! Both `AccessNum` and `MissNum` streams are tested; a round rejects
//! when either statistic's distributions differ.

use crate::config::KsTestParams;
use crate::detector::{
    Detector, DetectorStep, FromProfile, Observation, ThrottleRequest, Verdict,
};
use crate::profile::Profile;
use crate::CoreError;
use memdos_stats::ks::ks_two_sample;

/// Where the detector is within its `L_R` cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KsPhase {
    /// Requesting/performing reference collection (others throttled).
    Reference,
    /// Waiting between monitored windows.
    Idle,
    /// Collecting a monitored window.
    Monitor,
}

/// The KStest baseline detector.
#[derive(Debug, Clone)]
pub struct KsTestDetector {
    params: KsTestParams,
    /// Ticks since the detector started.
    tick: u64,
    ref_access: Vec<f64>,
    ref_miss: Vec<f64>,
    mon_access: Vec<f64>,
    mon_miss: Vec<f64>,
    consecutive: u32,
    active: bool,
    activations: u64,
    tests_run: u64,
    rejections: u64,
    last_rejected: Option<bool>,
}

impl KsTestDetector {
    /// Creates the detector.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `params` fail
    /// validation.
    pub fn new(params: KsTestParams) -> Result<Self, CoreError> {
        params.validate()?;
        Ok(KsTestDetector {
            params,
            tick: 0,
            ref_access: Vec::with_capacity(params.w_r_ticks as usize),
            ref_miss: Vec::with_capacity(params.w_r_ticks as usize),
            mon_access: Vec::with_capacity(params.w_m_ticks as usize),
            mon_miss: Vec::with_capacity(params.w_m_ticks as usize),
            consecutive: 0,
            active: false,
            activations: 0,
            tests_run: 0,
            rejections: 0,
            last_rejected: None,
        })
    }

    /// Creates the detector from a Stage-1 [`Profile`], for construction
    /// parity with the SDS family ([`FromProfile`]). The KStest protocol
    /// derives nothing from the profile content — it builds its own
    /// reference under throttling — so the profile is accepted and
    /// ignored.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `params` fail
    /// validation.
    pub fn from_profile(_profile: &Profile, params: &KsTestParams) -> Result<Self, CoreError> {
        KsTestDetector::new(*params)
    }

    /// KS tests run so far.
    pub fn tests_run(&self) -> u64 {
        self.tests_run
    }

    /// KS tests that rejected `H_0` so far.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Outcome of the most recent KS round (`None` before the first).
    pub fn last_rejected(&self) -> Option<bool> {
        self.last_rejected
    }

    /// Current consecutive-rejection count.
    pub fn consecutive_rejections(&self) -> u32 {
        self.consecutive
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

    /// Phase of the cycle position `c` (ticks within the `L_R` cycle).
    ///
    /// * `c == 0` — issue `PauseOthers`; the sample of this tick is
    ///   discarded (the throttle takes effect on the next tick).
    /// * `c ∈ [1, W_R]` — collect reference; at `c == W_R` also issue
    ///   `ResumeAll`.
    /// * monitored windows occupy the last `W_M` ticks of each `L_M`
    ///   sub-interval after the reference, so the first KS test completes
    ///   at `c = W_R + L_M`.
    fn phase(&self, c: u64) -> KsPhase {
        let p = &self.params;
        if c <= p.w_r_ticks {
            return KsPhase::Reference;
        }
        let rel = c - p.w_r_ticks - 1; // 0-based position after resume
        let in_round = rel % p.l_m_ticks;
        if in_round >= p.l_m_ticks - p.w_m_ticks {
            KsPhase::Monitor
        } else {
            KsPhase::Idle
        }
    }

    fn run_test(&mut self) -> bool {
        self.tests_run += 1;
        let rejected = [
            (&self.ref_access, &self.mon_access),
            (&self.ref_miss, &self.mon_miss),
        ]
        .iter()
        .any(|(r, m)| match ks_two_sample(r, m) {
            Ok(res) => res.rejects_at(self.params.alpha),
            Err(_) => false,
        });
        if rejected {
            self.rejections += 1;
        }
        self.last_rejected = Some(rejected);
        rejected
    }
}

impl Detector for KsTestDetector {
    fn name(&self) -> &str {
        "KStest"
    }

    fn on_observation(&mut self, obs: Observation) -> DetectorStep {
        let p = self.params;
        let c = self.tick % p.l_r_ticks;
        self.tick += 1;
        let mut step = DetectorStep::quiet();

        if c == 0 {
            // New cycle: refresh the reference under throttling.
            step.throttle = Some(ThrottleRequest::PauseOthers);
            self.ref_access.clear();
            self.ref_miss.clear();
            self.mon_access.clear();
            self.mon_miss.clear();
            self.consecutive = 0;
            // The detection state persists across the refresh only if it
            // was already active; an active alarm stays active until a
            // passing round clears it below.
            step.verdict = self.verdict();
            return step;
        }

        match self.phase(c) {
            KsPhase::Reference => {
                self.ref_access.push(obs.access_num);
                self.ref_miss.push(obs.miss_num);
                if c == p.w_r_ticks {
                    step.throttle = Some(ThrottleRequest::ResumeAll);
                }
            }
            KsPhase::Idle => {}
            KsPhase::Monitor => {
                self.mon_access.push(obs.access_num);
                self.mon_miss.push(obs.miss_num);
                if self.mon_access.len() == p.w_m_ticks as usize {
                    let rejected = self.run_test();
                    self.mon_access.clear();
                    self.mon_miss.clear();
                    if rejected {
                        self.consecutive = self.consecutive.saturating_add(1);
                    } else {
                        self.consecutive = 0;
                    }
                    let now_active = self.consecutive >= p.consecutive;
                    let became = now_active && !self.active;
                    if became {
                        self.activations += 1;
                    }
                    // A passing round clears the alarm; an alarmed state
                    // otherwise persists across reference refreshes.
                    if now_active {
                        self.active = true;
                    } else if !rejected {
                        self.active = false;
                    }
                    step.became_active = became;
                }
            }
        }
        step.verdict = self.verdict();
        step
    }

    fn alarm_active(&self) -> bool {
        self.active
    }

    fn activations(&self) -> u64 {
        self.activations
    }

    fn resident_bytes_hint(&self) -> usize {
        std::mem::size_of::<KsTestDetector>()
            + (self.ref_access.capacity()
                + self.ref_miss.capacity()
                + self.mon_access.capacity()
                + self.mon_miss.capacity())
                * std::mem::size_of::<f64>()
    }
}

impl Default for KsTestDetector {
    /// The detector at the paper's default parameters.
    fn default() -> Self {
        // lint:allow(panic) -- KsTestParams::default() is a compile-time
        // constant whose validity is pinned by the params_roundtrip tests.
        KsTestDetector::new(KsTestParams::default()).expect("defaults are valid")
    }
}

impl FromProfile for KsTestDetector {
    type Params = KsTestParams;

    fn from_profile(profile: &Profile, params: &KsTestParams) -> Result<Self, CoreError> {
        KsTestDetector::from_profile(profile, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compact parameters: W_R = W_M = 20 ticks, L_M = 40, L_R = 200.
    fn fast_params() -> KsTestParams {
        KsTestParams {
            w_r_ticks: 20,
            w_m_ticks: 20,
            l_m_ticks: 40,
            l_r_ticks: 200,
            consecutive: 4,
            alpha: 0.05,
        }
    }

    fn obs(a: f64, m: f64) -> Observation {
        Observation { access_num: a, miss_num: m }
    }

    /// Deterministic noise around a level.
    fn level(i: u64, base: f64) -> f64 {
        base + ((i * 2654435761) % 17) as f64
    }

    #[test]
    fn throttle_protocol_sequence() {
        let mut d = KsTestDetector::new(fast_params()).unwrap();
        let mut requests = Vec::new();
        for i in 0..200u64 {
            let step = d.on_observation(obs(level(i, 100.0), level(i, 10.0)));
            if let Some(t) = step.throttle {
                requests.push((i, t));
            }
        }
        assert_eq!(
            requests,
            vec![
                (0, ThrottleRequest::PauseOthers),
                (20, ThrottleRequest::ResumeAll),
            ]
        );
    }

    #[test]
    fn stationary_signal_rarely_alarms() {
        let mut d = KsTestDetector::new(fast_params()).unwrap();
        for i in 0..4000u64 {
            d.on_observation(obs(level(i, 100.0), level(i, 10.0)));
        }
        assert!(d.tests_run() > 50);
        assert!(!d.alarm_active());
        assert_eq!(d.activations(), 0);
    }

    /// Drives the detector like the real experiment loop does: while the
    /// detector has requested throttling, the protected VM runs alone and
    /// its statistics are *clean* regardless of any attack.
    fn drive(
        d: &mut KsTestDetector,
        ticks: std::ops::Range<u64>,
        throttled: &mut bool,
        attacked: impl Fn(u64) -> bool,
    ) -> bool {
        let mut became = false;
        for i in ticks {
            let (a, m) = if *throttled || !attacked(i) {
                (level(i, 100.0), level(i, 10.0))
            } else {
                (level(i, 10.0), level(i, 10.0))
            };
            let step = d.on_observation(obs(a, m));
            match step.throttle {
                Some(ThrottleRequest::PauseOthers) => *throttled = true,
                Some(ThrottleRequest::ResumeAll) => *throttled = false,
                None => {}
            }
            became |= step.became_active;
        }
        became
    }

    #[test]
    fn level_shift_alarms() {
        let mut d = KsTestDetector::new(fast_params()).unwrap();
        let mut throttled = false;
        // One full cycle benign, then the attack collapses AccessNum.
        let became = drive(&mut d, 0..200, &mut throttled, |_| false)
            | drive(&mut d, 200..400, &mut throttled, |_| true);
        assert!(became, "no alarm after 4 consecutive rejecting rounds");
        assert!(d.alarm_active());
    }

    #[test]
    fn four_consecutive_rejections_required() {
        let mut d = KsTestDetector::new(fast_params()).unwrap();
        for i in 0..200u64 {
            d.on_observation(obs(level(i, 100.0), level(i, 10.0)));
        }
        // Exactly 3 rejecting rounds (3 × L_M = 120 ticks), then normal.
        for i in 200..320u64 {
            d.on_observation(obs(level(i, 10.0), level(i, 10.0)));
        }
        assert!(d.consecutive_rejections() <= 3);
        assert!(!d.alarm_active());
        for i in 320..400u64 {
            d.on_observation(obs(level(i, 100.0), level(i, 10.0)));
        }
        assert!(!d.alarm_active());
        assert_eq!(d.activations(), 0);
    }

    #[test]
    fn reference_refresh_resets_consecutive_counter() {
        let mut d = KsTestDetector::new(fast_params()).unwrap();
        // Rounds 180..200 of the first cycle reject (3 rounds max in the
        // tail), the refresh at tick 200 must reset the streak.
        for i in 0..160u64 {
            d.on_observation(obs(level(i, 100.0), level(i, 10.0)));
        }
        for i in 160..200u64 {
            d.on_observation(obs(level(i, 10.0), level(i, 10.0)));
        }
        let streak_before = d.consecutive_rejections();
        assert!(streak_before >= 1);
        // Tick 200 = new cycle.
        d.on_observation(obs(level(200, 10.0), level(200, 10.0)));
        assert_eq!(d.consecutive_rejections(), 0);
    }

    #[test]
    fn alarm_clears_on_passing_round() {
        let mut d = KsTestDetector::new(fast_params()).unwrap();
        let mut throttled = false;
        drive(&mut d, 0..200, &mut throttled, |_| false);
        drive(&mut d, 200..400, &mut throttled, |_| true);
        assert!(d.alarm_active());
        // Back to normal: the next passing round clears the alarm.
        drive(&mut d, 400..800, &mut throttled, |_| false);
        assert!(!d.alarm_active());
    }

    #[test]
    fn miss_channel_also_detects() {
        let mut d = KsTestDetector::new(fast_params()).unwrap();
        let mut throttled = false;
        drive(&mut d, 0..200, &mut throttled, |_| false);
        // Cleansing signature: MissNum inflates while AccessNum stays.
        let mut became = false;
        for i in 200..400u64 {
            let (a, m) = if throttled {
                (level(i, 100.0), level(i, 10.0))
            } else {
                (level(i, 100.0), level(i, 500.0))
            };
            let step = d.on_observation(obs(a, m));
            match step.throttle {
                Some(ThrottleRequest::PauseOthers) => throttled = true,
                Some(ThrottleRequest::ResumeAll) => throttled = false,
                None => {}
            }
            became |= step.became_active;
        }
        assert!(became && d.alarm_active());
    }

    #[test]
    fn rejects_invalid_params() {
        let mut p = fast_params();
        p.w_m_ticks = 0;
        assert!(KsTestDetector::new(p).is_err());
    }
}
