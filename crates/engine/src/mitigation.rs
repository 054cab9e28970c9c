//! Quarantine-driven mitigation: the response state machine that closes
//! the detect→respond loop (after Zhang et al.'s execution-throttling
//! mitigation; see DESIGN.md §11).
//!
//! When a session reaches `Quarantined` the engine engages a control on
//! that tenant — the suspected attacker — and then *confirms the
//! diagnosis from victim counters*: if co-located tenants were degraded
//! at engage time and their access counters recover while the control
//! holds, the attack is confirmed and the control sticks
//! ([`CaseState::Escalated`]); if the victims were never degraded, or
//! the control runs out of budget without helping, the tenant is
//! released as a false quarantine and deterministically re-profiled
//! through the generation-bumping close/reopen machinery.
//!
//! The per-case FSM:
//!
//! ```text
//!   engage ──► Throttled ──first sample──► Confirming
//!                                             │
//!               victims recover + hold        ├──► Escalated  (confirmed; control sticks)
//!               budget out, ladder climbs     ├──► Throttled  (re-engaged one rung up)
//!               climb reaches Evict           ├──► Escalated  (session evicted)
//!               innocent hold / budget out    └──► Released   (false quarantine, re-profile)
//! ```
//!
//! The ladder is capped ([`MitigationPolicy::max_rung`]):
//! throttle → pause → evict. Rung memory persists per tenant across a
//! release, so a tenant that is quarantined again after a release
//! re-engages one rung up — repeat offenders escalate.
//!
//! Everything here is engine-side bookkeeping over per-flush state that
//! is itself a pure function of the input, so mitigation decisions and
//! their `mitigation_*` log events stay byte-identical too. No clocks,
//! no maps with nondeterministic iteration order.

use crate::config::MitigationPolicy;
use std::collections::BTreeMap;

/// Rung of the capped escalation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// Execution-throttle the tenant (reduced duty, keeps running).
    Throttle,
    /// Deschedule the tenant entirely.
    Pause,
    /// Evict the tenant's session from the engine (and the VM from the
    /// host, driver permitting).
    Evict,
}

impl Rung {
    /// Stable label used in `mitigation_*` log events.
    pub fn label(self) -> &'static str {
        match self {
            Rung::Throttle => "throttle",
            Rung::Pause => "pause",
            Rung::Evict => "evict",
        }
    }

    /// The next rung up, if any.
    pub fn next(self) -> Option<Rung> {
        match self {
            Rung::Throttle => Some(Rung::Pause),
            Rung::Pause => Some(Rung::Evict),
            Rung::Evict => None,
        }
    }

    /// Ladder index (0 throttle, 1 pause, 2 evict).
    pub fn index(self) -> u8 {
        match self {
            Rung::Throttle => 0,
            Rung::Pause => 1,
            Rung::Evict => 2,
        }
    }

    /// Rung for a ladder index, saturating at [`Rung::Evict`].
    pub fn from_index(i: u8) -> Rung {
        match i {
            0 => Rung::Throttle,
            1 => Rung::Pause,
            _ => Rung::Evict,
        }
    }
}

/// Lifecycle state of one mitigation case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseState {
    /// Control engaged; waiting for the first recovery sample.
    Throttled,
    /// Watching victim counters against the confirm budget.
    Confirming,
    /// Terminal: false quarantine — the tenant was released and
    /// re-profiles from scratch.
    Released,
    /// Terminal: the attack was confirmed (or the ladder topped out at
    /// eviction); the control sticks.
    Escalated,
}

impl CaseState {
    /// Stable label used in `mitigation_*` log events.
    pub fn label(self) -> &'static str {
        match self {
            CaseState::Throttled => "throttled",
            CaseState::Confirming => "confirming",
            CaseState::Released => "released",
            CaseState::Escalated => "escalated",
        }
    }

    /// Whether the case can change no further.
    pub fn terminal(self) -> bool {
        matches!(self, CaseState::Released | CaseState::Escalated)
    }
}

/// What the driver should do to a tenant's VM — the feedback edge
/// toward `sim::fleet::FleetGenerator::set_throttle` /
/// `sim::hypervisor::Hypervisor::throttle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionKind {
    /// Execution-throttle the tenant.
    Throttle,
    /// Deschedule the tenant.
    Pause,
    /// Remove the tenant from the host.
    Evict,
    /// Lift whatever control is in place.
    Release,
}

impl ActionKind {
    /// Stable label (log events and the `respond` action trace).
    pub fn label(self) -> &'static str {
        match self {
            ActionKind::Throttle => "throttle",
            ActionKind::Pause => "pause",
            ActionKind::Evict => "evict",
            ActionKind::Release => "release",
        }
    }

    fn for_rung(rung: Rung) -> ActionKind {
        match rung {
            Rung::Throttle => ActionKind::Throttle,
            Rung::Pause => ActionKind::Pause,
            Rung::Evict => ActionKind::Evict,
        }
    }
}

/// One control action for the enclosing driver, in decision order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MitigationAction {
    /// Tenant name the action applies to.
    pub tenant: String,
    /// What to do.
    pub kind: ActionKind,
}

/// What one recovery sample did to a case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaseStep {
    /// No state change.
    Hold,
    /// First sample after engage: the case starts confirming.
    Confirming,
    /// Victim recovery first observed; `latency` is seq-ticks since the
    /// current rung engaged.
    Recovered {
        /// Seq-ticks from engage to the first recovered sample.
        latency: u64,
    },
    /// Victims degraded again before recovery stuck.
    Relapsed,
    /// The confirm budget ran out with victims still degraded; the case
    /// re-engaged one rung up (never [`Rung::Evict`] — that terminal
    /// climb reports [`CaseStep::Evicted`]).
    Climbed {
        /// The rung now engaged.
        rung: Rung,
    },
    /// Terminal: the ladder climbed to eviction.
    Evicted,
    /// Terminal: victim recovery stuck — attack confirmed, the control
    /// at `rung` sticks.
    Confirmed {
        /// The rung left engaged.
        rung: Rung,
        /// Seq-ticks from the final rung's engage to recovery.
        latency: u64,
    },
    /// Terminal: false quarantine; `cost` is seq-ticks the tenant spent
    /// under a control it did not deserve.
    Released {
        /// Seq-ticks from first engage to release.
        cost: u64,
    },
}

/// One mitigation case: a tenant under an engaged control.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    tenant: String,
    state: CaseState,
    rung: Rung,
    /// Seq at which the *current* rung engaged.
    engaged_at: u64,
    /// Seq at which the first rung engaged (false-quarantine cost base).
    first_engaged_at: u64,
    /// Were victims degraded when the control engaged? Decides the
    /// innocent (release) vs guilty (confirm) path.
    degraded_at_engage: bool,
    /// First seq at which victims were observed recovered, if recovery
    /// is currently sticking.
    recovered_at: Option<u64>,
}

impl Case {
    /// Opens a case at `rung`. Returns the case and the control action
    /// to apply. A case opened at [`Rung::Evict`] is terminal
    /// immediately (the one legal shortcut past `Confirming`).
    pub fn engage(tenant: String, rung: Rung, now: u64, degraded: bool) -> (Case, ActionKind) {
        let state = if rung == Rung::Evict {
            CaseState::Escalated
        } else {
            CaseState::Throttled
        };
        (
            Case {
                tenant,
                state,
                rung,
                engaged_at: now,
                first_engaged_at: now,
                degraded_at_engage: degraded,
                recovered_at: None,
            },
            ActionKind::for_rung(rung),
        )
    }

    /// Tenant under this case.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Current FSM state.
    pub fn state(&self) -> CaseState {
        self.state
    }

    /// Currently engaged rung.
    pub fn rung(&self) -> Rung {
        self.rung
    }

    /// Advances the case by one recovery sample: `now` is the current
    /// seq (strictly increasing across calls), `degraded` whether any
    /// victim counter sits below the recovery threshold. Terminal cases
    /// hold forever.
    pub fn sample(&mut self, now: u64, degraded: bool, policy: &MitigationPolicy) -> CaseStep {
        match self.state {
            CaseState::Released | CaseState::Escalated => CaseStep::Hold,
            CaseState::Throttled => {
                // The engage sample itself never decides anything: the
                // FSM always passes through Confirming.
                self.state = CaseState::Confirming;
                CaseStep::Confirming
            }
            CaseState::Confirming => {
                if !self.degraded_at_engage {
                    // Innocent path: nobody was hurting when we engaged,
                    // so the quarantine mistrusted a benign trace change.
                    // Hold briefly (the verdict could still develop),
                    // then release.
                    if now.saturating_sub(self.engaged_at) >= policy.hold_ticks {
                        self.state = CaseState::Released;
                        CaseStep::Released { cost: now - self.first_engaged_at }
                    } else {
                        CaseStep::Hold
                    }
                } else if !degraded {
                    match self.recovered_at {
                        None => {
                            self.recovered_at = Some(now);
                            CaseStep::Recovered { latency: now - self.engaged_at }
                        }
                        Some(at) if now.saturating_sub(at) >= policy.hold_ticks => {
                            self.state = CaseState::Escalated;
                            CaseStep::Confirmed {
                                rung: self.rung,
                                latency: at - self.engaged_at,
                            }
                        }
                        Some(_) => CaseStep::Hold,
                    }
                } else if self.recovered_at.take().is_some() {
                    CaseStep::Relapsed
                } else if now.saturating_sub(self.engaged_at) >= policy.confirm_budget {
                    // The engaged control is not helping. Climb the
                    // ladder if it has a rung left under the cap,
                    // otherwise concede the degradation has another
                    // cause and release.
                    match self.rung.next().filter(|r| r.index() <= policy.max_rung) {
                        Some(Rung::Evict) => {
                            self.rung = Rung::Evict;
                            self.state = CaseState::Escalated;
                            CaseStep::Evicted
                        }
                        Some(next) => {
                            self.rung = next;
                            self.engaged_at = now;
                            self.state = CaseState::Throttled;
                            CaseStep::Climbed { rung: next }
                        }
                        None => {
                            self.state = CaseState::Released;
                            CaseStep::Released { cost: now - self.first_engaged_at }
                        }
                    }
                } else {
                    CaseStep::Hold
                }
            }
        }
    }
}

/// Mitigation status surfaced on a
/// [`crate::session::SessionSnapshot`]: the labels of the resident
/// case's state and rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MitigationStatus {
    /// Case state label (`"throttled"`, `"confirming"`, `"released"`,
    /// `"escalated"`).
    pub state: &'static str,
    /// Engaged rung label (`"throttle"`, `"pause"`, `"evict"`).
    pub rung: &'static str,
}

/// Outcome of [`Coordinator::engage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Engaged {
    /// Rung the case opened at.
    pub rung: Rung,
    /// Whether victims were degraded at engage time.
    pub degraded: bool,
    /// Whether the case opened terminally (rung was already
    /// [`Rung::Evict`]).
    pub terminal: bool,
}

/// One case transition surfaced to the engine for logging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseUpdate {
    /// Tenant slot id of the case.
    pub id: u32,
    /// Tenant name.
    pub tenant: String,
    /// What happened.
    pub step: CaseStep,
    /// State after the step.
    pub state: CaseState,
    /// Rung after the step.
    pub rung: Rung,
}

/// Per-engine mitigation coordinator: active cases, per-tenant rung
/// memory, and the pending action queue for the enclosing driver.
#[derive(Debug, Default)]
pub struct Coordinator {
    policy: MitigationPolicy,
    /// Cases by tenant slot id (slot ids are stable per tenant name, so
    /// this doubles as per-tenant identity). Terminal `Escalated` cases
    /// stay resident — their control sticks; `Released` cases are
    /// removed, leaving only rung memory.
    cases: BTreeMap<u32, Case>,
    /// Ladder index the *next* engagement of each tenant starts at;
    /// bumped on every release so repeat offenders escalate.
    rungs: BTreeMap<u32, u8>,
    /// Actions for the driver, in decision order.
    actions: Vec<MitigationAction>,
}

impl Coordinator {
    /// A coordinator enforcing `policy`.
    pub fn new(policy: MitigationPolicy) -> Coordinator {
        Coordinator { policy, ..Coordinator::default() }
    }

    /// Whether the policy is live at all.
    pub fn enabled(&self) -> bool {
        self.policy.enabled
    }

    /// Whether any case still needs recovery samples.
    pub fn has_active(&self) -> bool {
        self.cases.values().any(|c| !c.state.terminal())
    }

    /// Whether `id` has a resident case (active or escalated).
    pub fn has_case(&self, id: u32) -> bool {
        self.cases.contains_key(&id)
    }

    /// Status of `id`'s resident case, for snapshots.
    pub fn case_status(&self, id: u32) -> Option<MitigationStatus> {
        self.cases
            .get(&id)
            .map(|c| MitigationStatus { state: c.state.label(), rung: c.rung.label() })
    }

    /// Opens a case for `id` at its remembered rung (capped by policy).
    /// Returns `None` — and queues nothing — if a case is already
    /// resident: an engaged control is never doubled up.
    // lint:allow(hot-propagate) -- a case opens once per quarantine transition, never per sample; the tenant name is its one allocation
    pub fn engage(&mut self, id: u32, tenant: &str, now: u64, degraded: bool) -> Option<Engaged> {
        if self.cases.contains_key(&id) {
            return None;
        }
        let rung_index = self.rungs.get(&id).copied().unwrap_or(0).min(self.policy.max_rung);
        let rung = Rung::from_index(rung_index);
        let (case, action) = Case::engage(tenant.to_string(), rung, now, degraded);
        let terminal = case.state.terminal();
        self.cases.insert(id, case);
        self.actions.push(MitigationAction { tenant: tenant.to_string(), kind: action });
        Some(Engaged { rung, degraded, terminal })
    }

    /// Feeds one recovery sample to every active case, in tenant-slot
    /// order. Queues the control actions each transition implies and
    /// returns the non-`Hold` transitions for logging.
    pub fn sample_active(&mut self, now: u64, degraded: bool) -> Vec<CaseUpdate> {
        let mut updates = Vec::new();
        let mut released = Vec::new();
        for (&id, case) in self.cases.iter_mut() {
            if case.state.terminal() {
                continue;
            }
            let step = case.sample(now, degraded, &self.policy);
            match step {
                CaseStep::Hold => continue,
                CaseStep::Climbed { rung } => {
                    self.actions.push(MitigationAction {
                        tenant: case.tenant.clone(),
                        kind: ActionKind::for_rung(rung),
                    });
                }
                CaseStep::Evicted => {
                    self.actions.push(MitigationAction {
                        tenant: case.tenant.clone(),
                        kind: ActionKind::Evict,
                    });
                }
                CaseStep::Released { .. } => {
                    self.actions.push(MitigationAction {
                        tenant: case.tenant.clone(),
                        kind: ActionKind::Release,
                    });
                    released.push(id);
                }
                CaseStep::Confirming
                | CaseStep::Recovered { .. }
                | CaseStep::Relapsed
                | CaseStep::Confirmed { .. } => {}
            }
            updates.push(CaseUpdate {
                id,
                tenant: case.tenant.clone(),
                step,
                state: case.state,
                rung: case.rung,
            });
        }
        for id in released {
            self.close_released(id);
        }
        updates
    }

    /// A released case leaves only rung memory behind, bumped one rung
    /// (capped) so the tenant's next engagement escalates.
    fn close_released(&mut self, id: u32) {
        self.cases.remove(&id);
        let entry = self.rungs.entry(id).or_insert(0);
        *entry = entry.saturating_add(1).min(self.policy.max_rung);
    }

    /// The engine saw `id`'s session close underneath a case (explicit
    /// close, idle, or ceiling eviction). An *active* case aborts with a
    /// release action so the driver lifts the control — the diagnosis
    /// never completed, so rung memory is not bumped. An `Escalated`
    /// case keeps its control (the attacker does not get a free pass
    /// for departing) and only drops the bookkeeping.
    /// Returns whether an active case was aborted.
    pub fn on_session_closed(&mut self, id: u32) -> Option<Case> {
        let case = self.cases.get(&id)?;
        if case.state.terminal() {
            return self.cases.remove(&id);
        }
        let case = self.cases.remove(&id)?;
        self.actions.push(MitigationAction {
            tenant: case.tenant.clone(),
            kind: ActionKind::Release,
        });
        Some(case)
    }

    /// Drains the queued control actions, in decision order.
    pub fn take_actions(&mut self) -> Vec<MitigationAction> {
        std::mem::take(&mut self.actions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> MitigationPolicy {
        MitigationPolicy {
            enabled: true,
            confirm_budget: 100,
            hold_ticks: 20,
            degraded_below: 0.95,
            max_rung: 2,
        }
    }

    #[test]
    fn rung_ladder_is_total_and_capped() {
        assert_eq!(Rung::Throttle.next(), Some(Rung::Pause));
        assert_eq!(Rung::Pause.next(), Some(Rung::Evict));
        assert_eq!(Rung::Evict.next(), None);
        for i in 0..=4u8 {
            assert_eq!(Rung::from_index(i).index(), i.min(2));
        }
    }

    #[test]
    fn confirmed_attack_escalates_and_control_sticks() {
        let (mut case, action) = Case::engage("vm-a".into(), Rung::Throttle, 10, true);
        assert_eq!(action, ActionKind::Throttle);
        assert_eq!(case.state(), CaseState::Throttled);
        assert_eq!(case.sample(12, true, &policy()), CaseStep::Confirming);
        assert_eq!(case.sample(14, true, &policy()), CaseStep::Hold);
        assert_eq!(case.sample(30, false, &policy()), CaseStep::Recovered { latency: 20 });
        assert_eq!(case.sample(40, false, &policy()), CaseStep::Hold);
        assert_eq!(
            case.sample(51, false, &policy()),
            CaseStep::Confirmed { rung: Rung::Throttle, latency: 20 }
        );
        assert_eq!(case.state(), CaseState::Escalated);
        assert_eq!(case.sample(60, true, &policy()), CaseStep::Hold, "terminal absorbs");
    }

    #[test]
    fn innocent_engage_releases_after_hold() {
        let (mut case, _) = Case::engage("vm-b".into(), Rung::Throttle, 0, false);
        assert_eq!(case.sample(1, false, &policy()), CaseStep::Confirming);
        assert_eq!(case.sample(10, true, &policy()), CaseStep::Hold, "innocent path ignores later degradation");
        assert_eq!(case.sample(21, false, &policy()), CaseStep::Released { cost: 21 });
        assert_eq!(case.state(), CaseState::Released);
    }

    #[test]
    fn relapse_resets_the_recovery_clock() {
        let (mut case, _) = Case::engage("vm-c".into(), Rung::Throttle, 0, true);
        case.sample(1, true, &policy());
        assert_eq!(case.sample(5, false, &policy()), CaseStep::Recovered { latency: 5 });
        assert_eq!(case.sample(10, true, &policy()), CaseStep::Relapsed);
        assert_eq!(case.sample(15, false, &policy()), CaseStep::Recovered { latency: 15 });
        assert_eq!(
            case.sample(36, false, &policy()),
            CaseStep::Confirmed { rung: Rung::Throttle, latency: 15 }
        );
    }

    #[test]
    fn budget_exhaustion_climbs_then_evicts() {
        let (mut case, _) = Case::engage("vm-d".into(), Rung::Throttle, 0, true);
        case.sample(1, true, &policy());
        assert_eq!(case.sample(100, true, &policy()), CaseStep::Climbed { rung: Rung::Pause });
        assert_eq!(case.state(), CaseState::Throttled, "climb re-engages");
        assert_eq!(case.sample(101, true, &policy()), CaseStep::Confirming);
        assert_eq!(case.sample(200, true, &policy()), CaseStep::Evicted);
        assert_eq!(case.state(), CaseState::Escalated);
    }

    #[test]
    fn max_rung_caps_the_climb_into_a_release() {
        let capped = MitigationPolicy { max_rung: 0, ..policy() };
        let (mut case, _) = Case::engage("vm-e".into(), Rung::Throttle, 0, true);
        case.sample(1, true, &capped);
        assert_eq!(case.sample(100, true, &capped), CaseStep::Released { cost: 100 });
    }

    #[test]
    fn coordinator_never_doubles_up_and_remembers_rungs() {
        let mut coord = Coordinator::new(policy());
        assert!(coord.engage(7, "vm-a", 0, false).is_some());
        assert!(coord.engage(7, "vm-a", 5, false).is_none(), "no double engage");
        assert_eq!(coord.take_actions().len(), 1);
        // Release via the innocent path, then re-engage: one rung up.
        let mut updates = Vec::new();
        for now in [1u64, 25] {
            updates.extend(coord.sample_active(now, false));
        }
        assert!(matches!(updates.last().unwrap().step, CaseStep::Released { .. }));
        assert!(!coord.has_case(7));
        let second = coord.engage(7, "vm-a", 40, false).unwrap();
        assert_eq!(second.rung, Rung::Pause, "repeat offender escalates");
        let actions = coord.take_actions();
        assert_eq!(actions.last().unwrap().kind, ActionKind::Pause);
    }

    #[test]
    fn closing_a_session_aborts_an_active_case_with_a_release() {
        let mut coord = Coordinator::new(policy());
        coord.engage(3, "vm-x", 0, true);
        coord.take_actions();
        let aborted = coord.on_session_closed(3).expect("case aborts");
        assert!(!aborted.state().terminal());
        let actions = coord.take_actions();
        assert_eq!(actions, vec![MitigationAction { tenant: "vm-x".into(), kind: ActionKind::Release }]);
        // Rung memory was NOT bumped: next engage starts at throttle.
        assert_eq!(coord.engage(3, "vm-x", 10, true).unwrap().rung, Rung::Throttle);
    }

    #[test]
    fn escalated_case_keeps_its_control_when_the_session_closes() {
        // Rung memory at the top of the ladder: the engage itself is
        // terminal (evict), and a later session close releases nothing.
        let mut coord = Coordinator::new(policy());
        coord.rungs.insert(1, 2);
        let engaged = coord.engage(1, "vm-z", 0, true).unwrap();
        assert!(engaged.terminal);
        assert_eq!(coord.take_actions()[0].kind, ActionKind::Evict);
        coord.on_session_closed(1);
        assert!(coord.take_actions().is_empty(), "no release for an escalated case");
    }
}
