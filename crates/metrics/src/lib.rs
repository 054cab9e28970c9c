//! # memdos-metrics
//!
//! The experiment protocol and evaluation metrics of the paper's §5:
//!
//! * [`experiment`] — the three-stage protocol (§5.1): Stage 1 profiles
//!   the application without attack; Stage 2 runs it benign; Stage 3
//!   launches the memory-DoS attack. One protected victim VM, one attack
//!   VM and seven benign utility VMs share the simulated server, exactly
//!   like the paper's testbed. Passive schemes (SDS, SDS/B, SDS/P) are
//!   evaluated on a single server execution; the KStest baseline gets its
//!   own execution because it actively throttles the server.
//! * [`accuracy`] — recall and specificity over fixed decision intervals
//!   (Figs. 9–10).
//! * [`delay`] — detection delay: attack launch → first alarm activation
//!   (Fig. 11).
//! * [`overhead`] — normalized execution time of an application
//!   co-located with a protected VM, with and without a detection scheme
//!   (Fig. 12): SDS costs only its counter-sampling tax, KStest
//!   additionally pauses co-located VMs during every reference
//!   collection.
//! * [`report`] — median/p10/p90 summaries over runs in the paper's
//!   reporting format.
//! * [`jsonl`] — the hand-rolled line-delimited JSON codec behind the
//!   engine's streaming wire protocol (std-only, flat objects).
//! * [`binary`] — the fixed-width little-endian binary wire format
//!   negotiated on the same protocol (magic preamble, frame checksums,
//!   tenant-id dictionary, resynchronising streaming decoder).
//! * [`wire`] — the one reader both formats decode through (format
//!   negotiation, resync, the wire-id table), and [`wire::convert`].
//! * [`robustness`] — failure injection on the measurement channel
//!   (dropout / noise / freezes), an extension beyond the paper.
//!
//! ## Example
//!
//! ```rust,no_run
//! use memdos_attacks::AttackKind;
//! use memdos_metrics::experiment::{ExperimentConfig, Scheme, StageConfig};
//! use memdos_workloads::catalog::Application;
//!
//! let cfg = ExperimentConfig {
//!     app: Application::KMeans,
//!     attack: AttackKind::BusLocking,
//!     stages: StageConfig::quick(),
//!     ..ExperimentConfig::default()
//! };
//! let outcome = cfg.run_scheme(Scheme::Sds, 1).unwrap();
//! let m = outcome.metrics(&cfg.stages);
//! println!("recall={} specificity={}", m.recall, m.specificity);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod binary;
mod decimal;
pub mod delay;
pub mod experiment;
pub mod jsonl;
pub mod overhead;
pub mod report;
pub mod robustness;
pub mod wire;
