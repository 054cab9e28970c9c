//! The common detector interface.
//!
//! All schemes — SDS/B, SDS/P, the combined SDS, and the KStest baseline —
//! consume one [`Observation`] per `T_PCM` tick for the protected VM and
//! expose an *alarm state*: whether the scheme's detection condition is
//! currently satisfied (e.g. "the latest `H_C` EWMA values were all out
//! of range"). The state clears when the condition clears; the experiment
//! harness derives recall/specificity from the state over time and
//! detection delay from state-activation events.
//!
//! The KStest baseline is the only scheme that needs to manipulate the
//! hypervisor (execution throttling during reference collection); it
//! communicates this through [`ThrottleRequest`]s in its
//! [`DetectorStep`], which the experiment loop applies to the simulated
//! server — mirroring how the real system drives the KVM scheduler.

use crate::profile::Profile;
use crate::CoreError;
use memdos_sim::pcm::{PcmSample, Stat};

/// The per-tick PCM statistics of the protected VM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// LLC accesses in the tick (`AccessNum`).
    pub access_num: f64,
    /// LLC misses in the tick (`MissNum`).
    pub miss_num: f64,
}

impl Observation {
    /// Selects one statistic.
    pub fn stat(&self, which: Stat) -> f64 {
        match which {
            Stat::AccessNum => self.access_num,
            Stat::MissNum => self.miss_num,
        }
    }
}

impl From<&PcmSample> for Observation {
    fn from(s: &PcmSample) -> Self {
        Observation { access_num: s.accesses as f64, miss_num: s.misses as f64 }
    }
}

/// A columnar batch of observations: the structure-of-arrays twin of
/// [`Observation`], borrowed from the caller's column buffers so batch
/// stepping never copies or re-packs samples.
///
/// Both columns must be the same length; [`ObservationBatch::new`]
/// truncates to the shorter one so a malformed caller cannot cause an
/// out-of-bounds read.
#[derive(Debug, Clone, Copy)]
pub struct ObservationBatch<'a> {
    access: &'a [f64],
    miss: &'a [f64],
}

impl<'a> ObservationBatch<'a> {
    /// Wraps two equal-length columns (truncating to the shorter).
    pub fn new(access: &'a [f64], miss: &'a [f64]) -> Self {
        let n = access.len().min(miss.len());
        let access = access.get(..n).unwrap_or(access);
        let miss = miss.get(..n).unwrap_or(miss);
        ObservationBatch { access, miss }
    }

    /// Number of observations in the batch.
    pub fn len(&self) -> usize {
        self.access.len()
    }

    /// Whether the batch holds no observations.
    pub fn is_empty(&self) -> bool {
        self.access.is_empty()
    }

    /// The access-counter column.
    pub fn access(&self) -> &'a [f64] {
        self.access
    }

    /// The miss-counter column.
    pub fn miss(&self) -> &'a [f64] {
        self.miss
    }

    /// The column for one statistic.
    pub fn column(&self, which: Stat) -> &'a [f64] {
        match which {
            Stat::AccessNum => self.access,
            Stat::MissNum => self.miss,
        }
    }

    /// Iterates the batch as scalar [`Observation`]s, in order.
    pub fn iter(&self) -> impl Iterator<Item = Observation> + 'a {
        self.access
            .iter()
            .zip(self.miss)
            .map(|(&access_num, &miss_num)| Observation { access_num, miss_num })
    }
}

/// A hypervisor action requested by a detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThrottleRequest {
    /// Pause every VM except the protected one (reference collection).
    PauseOthers,
    /// Resume all VMs.
    ResumeAll,
}

/// The detector's judgement after a step — the full state callers need,
/// so they never reassemble it from `alarm_active()` plus the per-scheme
/// consecutive counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Verdict {
    /// The detection condition shows no sign of an attack.
    #[default]
    Normal,
    /// The condition is partially satisfied: `consecutive` violations
    /// (or period changes / KS rejections) in a row, below the scheme's
    /// threshold.
    Suspicious {
        /// Length of the current violation streak.
        consecutive: u32,
    },
    /// The detection condition is fully satisfied.
    Alarm,
}

impl Verdict {
    /// Stable lowercase label (used by the engine's JSONL event log).
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Normal => "normal",
            Verdict::Suspicious { .. } => "suspicious",
            Verdict::Alarm => "alarm",
        }
    }

    /// Whether two verdicts fall in the same class, ignoring the
    /// suspicious streak length (transition logs key on this).
    pub fn same_class(&self, other: &Verdict) -> bool {
        self.label() == other.label()
    }
}

/// What happened during one detector step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectorStep {
    /// The detector's judgement after consuming this observation.
    pub verdict: Verdict,
    /// The alarm state transitioned from inactive to active on this tick.
    pub became_active: bool,
    /// Hypervisor action the detector requires (KStest baseline only).
    pub throttle: Option<ThrottleRequest>,
}

impl DetectorStep {
    /// A step with a `Normal` verdict, no alarm transition and no
    /// throttle request.
    pub fn quiet() -> Self {
        DetectorStep::default()
    }
}

/// A real-time memory-DoS detector.
pub trait Detector {
    /// Scheme name for reports (e.g. `"SDS/B"`).
    fn name(&self) -> &str;

    /// Feeds the PCM statistics of one tick.
    fn on_observation(&mut self, obs: Observation) -> DetectorStep;

    /// Feeds a columnar batch of consecutive ticks, appending exactly
    /// one [`DetectorStep`] per observation to `out` (existing contents
    /// are preserved).
    ///
    /// The contract is *bit-identical equivalence* with scalar stepping:
    /// for any batch, the appended steps and the detector's final state
    /// must match calling [`Detector::on_observation`] once per
    /// observation in order — batching is a throughput optimisation,
    /// never a semantic fork (`detector_conformance` pins this for every
    /// scheme). The default implementation is that scalar loop; schemes
    /// whose per-tick work is a smoothing push (SDS/B, SDS/P, SDS)
    /// override it with branch-light columnar loops.
    // hot-path
    fn step_batch(&mut self, batch: ObservationBatch<'_>, out: &mut Vec<DetectorStep>) {
        for obs in batch.iter() {
            out.push(self.on_observation(obs));
        }
    }

    /// Whether the scheme's detection condition is currently satisfied.
    fn alarm_active(&self) -> bool;

    /// Number of inactive→active transitions so far.
    fn activations(&self) -> u64;

    /// Estimated heap bytes of the detector's working set (smoothing
    /// windows, reference samples). A deterministic capacity-based
    /// accounting figure — fleet hosts budget tens of thousands of
    /// detectors against a memory ceiling, so the estimate must
    /// replay identically run to run; it is not an allocator
    /// measurement. Defaults to `0` for schemes whose state is a few
    /// scalars.
    fn resident_bytes_hint(&self) -> usize {
        0
    }
}

/// Uniform construction from a Stage-1 profile: every scheme builds the
/// same way — a profile plus its own parameter struct — so generic code
/// (the conformance suite) can instantiate any detector without
/// per-scheme special cases. The KStest baseline
/// participates for parity even though it derives nothing from the
/// profile content (it builds its own reference under throttling).
pub trait FromProfile: Detector + Sized {
    /// The scheme's parameter struct (all of them expose `validate()`).
    type Params;

    /// Builds the detector from a Stage-1 profile and parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for invalid parameters or
    /// a degenerate profile, and [`CoreError::NotPeriodic`] when the
    /// scheme needs a periodicity entry the profile lacks.
    fn from_profile(profile: &Profile, params: &Self::Params) -> Result<Self, CoreError>;
}

impl<D: Detector + ?Sized> Detector for Box<D> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn on_observation(&mut self, obs: Observation) -> DetectorStep {
        (**self).on_observation(obs)
    }
    // hot-path
    fn step_batch(&mut self, batch: ObservationBatch<'_>, out: &mut Vec<DetectorStep>) {
        (**self).step_batch(batch, out)
    }
    fn alarm_active(&self) -> bool {
        (**self).alarm_active()
    }
    fn activations(&self) -> u64 {
        (**self).activations()
    }
    fn resident_bytes_hint(&self) -> usize {
        (**self).resident_bytes_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memdos_sim::cache::DomainId;
    use memdos_sim::hypervisor::VmId;

    #[test]
    fn observation_from_sample() {
        let s = PcmSample { vm: VmId(0), domain: DomainId(1), accesses: 10, misses: 3 };
        let o = Observation::from(&s);
        assert_eq!(o.access_num, 10.0);
        assert_eq!(o.miss_num, 3.0);
        assert_eq!(o.stat(Stat::AccessNum), 10.0);
        assert_eq!(o.stat(Stat::MissNum), 3.0);
    }

    #[test]
    fn quiet_step_is_default() {
        assert_eq!(DetectorStep::quiet(), DetectorStep::default());
        assert!(DetectorStep::quiet().throttle.is_none());
        assert_eq!(DetectorStep::quiet().verdict, Verdict::Normal);
    }

    #[test]
    fn verdict_labels_and_classes() {
        assert_eq!(Verdict::Normal.label(), "normal");
        assert_eq!(Verdict::Suspicious { consecutive: 3 }.label(), "suspicious");
        assert_eq!(Verdict::Alarm.label(), "alarm");
        assert!(Verdict::Suspicious { consecutive: 1 }
            .same_class(&Verdict::Suspicious { consecutive: 7 }));
        assert!(!Verdict::Normal.same_class(&Verdict::Alarm));
        assert_eq!(Verdict::default(), Verdict::Normal);
    }
}
