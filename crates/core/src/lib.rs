//! # memdos-core
//!
//! The primary contribution of *"Impact of Memory DoS Attacks on Cloud
//! Applications and Real-Time Detection Schemes"* (ICPP '20): real-time,
//! lightweight, statistical detection of memory denial-of-service attacks
//! between co-located VMs — plus the prior-work baseline it is evaluated
//! against.
//!
//! ## The detection schemes
//!
//! * [`sdsb::SdsB`] — the **Boundary-based Statistical Detection Scheme**
//!   (§4.2.1). Raw PCM statistics are smoothed through a sliding-window
//!   moving average (Eq. 1) and an EWMA (Eq. 2); an attack is inferred
//!   when `H_C` consecutive EWMA values leave the Chebyshev normal range
//!   `[μ_E − kσ_E, μ_E + kσ_E]` (Eq. 3–4). Works for every application.
//! * [`sdsp::SdsP`] — the **Period-based Statistical Detection Scheme**
//!   (§4.2.2), for *periodic* applications only. The period of the MA
//!   series is re-estimated with DFT-ACF every `ΔW_P` windows; `H_P`
//!   consecutive estimates deviating >20 % from the profiled period raise
//!   the alarm (attacks *dilate* the period — Observation 2).
//! * [`sds::Sds`] — the combined system (§5.1): SDS/B alone for
//!   non-periodic applications; for periodic applications both SDS/B
//!   *and* SDS/P must agree, eliminating false positives.
//! * [`kstest::KsTestDetector`] — the baseline of Zhang et al.
//!   (AsiaCCS '17): throttle all other VMs to collect reference samples,
//!   then declare an attack after four consecutive two-sample
//!   Kolmogorov–Smirnov rejections. Implemented with its full protocol
//!   (`L_R`/`W_R`/`L_M`/`W_M` scheduling and throttling requests) so its
//!   false positives, detection delay and throttling overhead can be
//!   reproduced.
//!
//! ## Workflow
//!
//! 1. **Profile** (Stage 1): immediately after a VM starts or migrates —
//!    when it is known not to be co-located with an attacker — its PCM
//!    statistics are profiled for `profile_ticks` ticks to obtain the
//!    per-stat mean/deviation and the periodicity classification.
//! 2. **Monitor**: a detector armed from that profile consumes one
//!    [`detector::Observation`] per `T_PCM` tick.
//!
//! A [`monitor::Monitor`] runs both stages for one VM: it owns the
//! [`profile::Profiler`], arms the detector when the profile is done,
//! and counts monitored ticks, verdict changes and alarms. The streaming
//! engine and the offline paper harness both drive it. The KStest
//! baseline is the exception: it needs no profile, and instead emits
//! [`detector::ThrottleRequest`]s that the hypervisor must honour.
//!
//! ```rust
//! use memdos_core::config::SdsParams;
//! use memdos_core::detector::Observation;
//! use memdos_core::monitor::Monitor;
//! use memdos_core::sds::Sds;
//!
//! let benign = |i: u64| {
//!     let wiggle = (i % 7) as f64;
//!     Observation { access_num: 1000.0 + wiggle, miss_num: 50.0 + wiggle }
//! };
//! let mut monitor = Monitor::<Sds>::new(&SdsParams::default(), 3000)?;
//!
//! // Stage 1: the first 3000 ticks of a (synthetic) benign signal; the
//! // last one finishes the profile and arms SDS.
//! for i in 0..2999u64 {
//!     assert!(monitor.profile(benign(i)).is_none());
//! }
//! let profile = monitor.profile(benign(2999)).expect("profile done")?;
//! assert!(!profile.is_periodic());
//!
//! // Stage 2: monitor in real time — same distribution, no alarm.
//! for i in 0..2000u64 {
//!     let step = monitor.step(benign(i)).expect("armed");
//!     assert_eq!(step.tick, i + 1);
//! }
//! assert!(!monitor.alarm_active() && monitor.alarms() == 0);
//! # Ok::<(), memdos_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod detector;
pub mod kstest;
pub mod monitor;
pub mod profile;
pub mod sds;
pub mod sdsb;
pub mod sdsp;

mod error;

pub use error::CoreError;
