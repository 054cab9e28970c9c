//! The four-tenant demo replay.
//!
//! Generates a JSONL input stream from four independent simulated
//! servers — each one victim VM under a scheduled memory-DoS attack,
//! plus benign utility VMs — and interleaves their PCM samples
//! round-robin per tick, the shape a per-host monitoring agent would
//! produce. Two victims are periodic (FaceNet), two are not (KMeans,
//! Bayes); two face the bus-locking attack, two the LLC-cleansing
//! attack, covering both detection channels of the combined SDS:
//!
//! | tenant        | application | attack        | periodic |
//! |---------------|-------------|---------------|----------|
//! | `facenet-bus` | FaceNet     | bus locking   | yes      |
//! | `facenet-llc` | FaceNet     | LLC cleansing | yes      |
//! | `kmeans-bus`  | KMeans      | bus locking   | no       |
//! | `bayes-llc`   | Bayes       | LLC cleansing | no       |
//!
//! The attack runs in a bounded window
//! ([`DemoLayout::attack_start`]..[`DemoLayout::attack_stop`]) via
//! [`Scheduled::window`], after a profiling stretch sized for the
//! engine's Stage-1 profiler and a benign monitoring stretch, with a
//! post-attack tail that lets alarms clear. Generation is fully
//! deterministic in the seed, so the demo stream doubles as the fixture
//! for the replay-determinism tier-1 test.

use crate::config::Config;
use crate::protocol::Record;
use crate::session::SessionConfig;
use memdos_attacks::schedule::Scheduled;
use memdos_attacks::AttackKind;
use memdos_core::config::{SdsBParams, SdsPParams, SdsParams};
use memdos_core::detector::Observation;
use memdos_sim::server::{Server, ServerConfig};
use memdos_workloads::catalog::Application;

/// One demo tenant: an application under a scheduled attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemoTenant {
    /// Tenant id in the stream.
    pub name: &'static str,
    /// The protected application.
    pub app: Application,
    /// The attack launched inside the window.
    pub attack: AttackKind,
}

/// The four demo tenants, in stream interleaving order.
pub const TENANTS: [DemoTenant; 4] = [
    DemoTenant { name: "facenet-bus", app: Application::FaceNet, attack: AttackKind::BusLocking },
    DemoTenant { name: "facenet-llc", app: Application::FaceNet, attack: AttackKind::LlcCleansing },
    DemoTenant { name: "kmeans-bus", app: Application::KMeans, attack: AttackKind::BusLocking },
    DemoTenant { name: "bayes-llc", app: Application::Bayes, attack: AttackKind::LlcCleansing },
];

/// Benign utility VMs co-located with each victim.
const UTILITY_VMS: u64 = 3;

/// Tick layout of the demo stream (1 tick = `T_PCM` = 10 ms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemoLayout {
    /// Stage-1 profiling stretch (must match the engine's
    /// `profile_ticks`).
    pub profile_ticks: u64,
    /// Benign monitoring stretch before the attack.
    pub benign_ticks: u64,
    /// Attack window length.
    pub attack_ticks: u64,
    /// Post-attack tail (alarms clear here).
    pub tail_ticks: u64,
}

/// The default demo layout: 60 s profile (several FaceNet periods per
/// profile half), 12 s benign, 20 s attack, 3 s tail.
pub const LAYOUT: DemoLayout = DemoLayout {
    profile_ticks: 6_000,
    benign_ticks: 1_200,
    attack_ticks: 2_000,
    tail_ticks: 300,
};

impl DemoLayout {
    /// Absolute tick at which the attack activates.
    pub fn attack_start(&self) -> u64 {
        self.profile_ticks + self.benign_ticks
    }

    /// Absolute tick at which the attack deactivates.
    pub fn attack_stop(&self) -> u64 {
        self.attack_start() + self.attack_ticks
    }

    /// Total stream length per tenant, in ticks.
    pub fn total_ticks(&self) -> u64 {
        self.profile_ticks + self.benign_ticks + self.attack_ticks + self.tail_ticks
    }
}

/// SDS parameters for the demo: Table 1 values with the consecutive
/// thresholds relaxed (`H_C` 30→15, `H_P` 5→3, `ΔW_P` 10→5) so both
/// channels' minimum detection delay (750 ticks) fits well inside the
/// 2000-tick attack window.
pub fn demo_sds_params() -> SdsParams {
    SdsParams {
        sdsb: SdsBParams { h_c: 15, ..SdsBParams::default() },
        sdsp: SdsPParams { step_ma: 5, h_p: 3, ..SdsPParams::default() },
    }
}

/// Engine configuration matched to the demo stream.
pub fn demo_engine_config(workers: usize) -> Config {
    Config {
        workers,
        batch: 256,
        session: SessionConfig {
            profile_ticks: LAYOUT.profile_ticks,
            sds: demo_sds_params(),
            ..SessionConfig::default()
        },
        ..Config::default()
    }
}

/// The compact layout the chaos soak replays: the same four-phase shape
/// as [`LAYOUT`] shrunk to ~3.1 k ticks per tenant so a multi-seed,
/// replayed-twice soak stays fast. The profile stretch still spans
/// several FaceNet periods (Stage-1 periodicity detection works) and
/// the attack window still clears the demo SDS minimum detection delay
/// (750 ticks) with margin for chaos-induced sample loss, so attacked
/// tenants reach the quarantine → terminal-drop path.
pub const SOAK_LAYOUT: DemoLayout = DemoLayout {
    profile_ticks: 1_500,
    benign_ticks: 300,
    attack_ticks: 1_200,
    tail_ticks: 150,
};

/// Engine configuration matched to [`SOAK_LAYOUT`].
pub fn soak_engine_config(workers: usize) -> Config {
    Config {
        session: SessionConfig {
            profile_ticks: SOAK_LAYOUT.profile_ticks,
            ..demo_engine_config(workers).session
        },
        ..demo_engine_config(workers)
    }
}

/// Simulates one tenant's server and returns the victim's per-tick
/// `(access, miss)` trace.
fn tenant_trace(spec: &DemoTenant, seed: u64, layout: &DemoLayout) -> Vec<(f64, f64)> {
    let mut server = Server::new(ServerConfig { seed, ..ServerConfig::default() });
    let llc = server.config().geometry.lines() as u64;
    let geometry = server.config().geometry;
    let victim = server.add_vm(spec.app.name(), spec.app.build(llc));
    server.add_vm_parallel(
        "attacker",
        Box::new(Scheduled::window(
            layout.attack_start(),
            layout.attack_stop(),
            spec.attack.build(geometry),
        )),
        spec.attack.default_parallelism(),
    );
    for i in 0..UTILITY_VMS {
        server.add_vm(
            format!("util-{i}"),
            Box::new(memdos_workloads::apps::utility::program(i)),
        );
    }
    let total = layout.total_ticks();
    let mut trace = Vec::with_capacity(total as usize);
    for _ in 0..total {
        let report = server.tick();
        let sample = report
            .sample(victim)
            .map(|s| (s.accesses as f64, s.misses as f64))
            .unwrap_or((0.0, 0.0));
        trace.push(sample);
    }
    trace
}

/// Generates the demo JSONL stream: per-tenant traces (simulated on
/// `workers` threads — the output is identical at any count), then one
/// sample line per tenant per tick in [`TENANTS`] order, then one close
/// line per tenant.
pub fn demo_jsonl(seed: u64, layout: &DemoLayout, workers: usize) -> Vec<String> {
    let specs: Vec<(u64, DemoTenant)> = TENANTS
        .iter()
        .enumerate()
        .map(|(i, spec)| (memdos_stats::rng::derive_seed(seed, i as u64), *spec))
        .collect();
    let traces = memdos_runner::parallel_map(&specs, workers, |(tenant_seed, spec)| {
        tenant_trace(spec, *tenant_seed, layout)
    });
    let total = layout.total_ticks() as usize;
    let mut lines = Vec::with_capacity(total * TENANTS.len() + TENANTS.len());
    for t in 0..total {
        for (spec, trace) in TENANTS.iter().zip(&traces) {
            if let Some(&(access, miss)) = trace.get(t) {
                lines.push(
                    Record::Sample {
                        tenant: spec.name.to_string(),
                        obs: Observation { access_num: access, miss_num: miss },
                    }
                    .to_line(),
                );
            }
        }
    }
    for spec in &TENANTS {
        lines.push(Record::Close { tenant: spec.name.to_string() }.to_line());
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_across_workers() {
        let layout = DemoLayout {
            profile_ticks: 100,
            benign_ticks: 50,
            attack_ticks: 60,
            tail_ticks: 10,
        };
        let a = demo_jsonl(7, &layout, 1);
        let b = demo_jsonl(7, &layout, 4);
        assert_eq!(a, b);
        assert_eq!(a.len(), 220 * TENANTS.len() + TENANTS.len());
        // A different seed produces a different stream.
        assert_ne!(demo_jsonl(8, &layout, 1), a);
    }

    #[test]
    fn stream_lines_parse_and_interleave_round_robin() {
        let layout =
            DemoLayout { profile_ticks: 10, benign_ticks: 5, attack_ticks: 5, tail_ticks: 1 };
        let lines = demo_jsonl(1, &layout, 1);
        for (i, line) in lines.iter().enumerate() {
            let record = Record::parse(line).expect("demo line parses");
            let expected = TENANTS
                .get(i % TENANTS.len())
                .map(|s| s.name)
                .unwrap_or("");
            assert_eq!(record.tenant(), expected, "line {i}");
        }
        let closes = lines.iter().filter(|l| l.contains(r#""ctl":"close""#)).count();
        assert_eq!(closes, TENANTS.len());
    }

    #[test]
    fn layout_arithmetic() {
        assert_eq!(LAYOUT.attack_start(), 7_200);
        assert_eq!(LAYOUT.attack_stop(), 9_200);
        assert_eq!(LAYOUT.total_ticks(), 9_500);
        // The engine config profiles exactly the profile stretch.
        let cfg = demo_engine_config(2);
        assert_eq!(cfg.session.profile_ticks, LAYOUT.profile_ticks);
        assert!(cfg.validate().is_ok());
        // Both channels' minimum delay fits the attack window.
        let params = demo_sds_params();
        assert!(params.sdsb.min_detection_delay_ticks() <= LAYOUT.attack_ticks);
        assert!(params.sdsp.min_detection_delay_ticks() <= LAYOUT.attack_ticks);
    }
}
