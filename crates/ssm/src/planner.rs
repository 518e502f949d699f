//! Response planning: incident → plan of countermeasures.
//!
//! The planner is where the paper's active/passive contrast lives as
//! policy:
//!
//! * [`PlannerMode::Active`] — the CRES posture: targeted countermeasures
//!   per incident kind, escalating to recovery actions, preferring
//!   isolation + degradation over whole-system resets;
//! * [`PlannerMode::PassiveRebootOnly`] — the state of the art the paper
//!   critiques: the only response to anything is a reboot (and most
//!   incidents are never even seen, because the baseline's only detector
//!   is the watchdog);
//! * [`PlannerMode::None`] — detection without response (for ablations).

use crate::correlate::{Incident, IncidentKind};
use cres_monitor::Subject;
use cres_soc::addr::MasterId;
use cres_soc::task::TaskId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Graded service-degradation tiers, from full service to fail-safe halt.
///
/// The tiers form a total order (`Full < ShedNonCritical < CriticalOnly <
/// SafeHalt`): a *higher* tier is a *tighter* posture. The response policy
/// engine (in `cres-response`) moves the platform along this ladder one
/// step at a time — raising under incident pressure, lowering with
/// hysteresis as health returns — and the planner consults the current
/// tier when composing plans, so countermeasures tighten with posture.
///
/// # Example
///
/// ```
/// use cres_ssm::DegradationTier;
/// assert!(DegradationTier::Full < DegradationTier::SafeHalt);
/// assert_eq!(DegradationTier::Full.raised(), DegradationTier::ShedNonCritical);
/// assert_eq!(DegradationTier::Full.lowered(), DegradationTier::Full);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DegradationTier {
    /// All tasks run, network open, actuators live.
    Full,
    /// Best-effort tasks suspended, network ingress rate-limited.
    ShedNonCritical,
    /// Only `Critical` tasks run, network quarantined.
    CriticalOnly,
    /// Everything suspended, network quarantined, actuators locked in
    /// their safe position — the fail-safe end state.
    SafeHalt,
}

impl DegradationTier {
    /// All tiers, loosest posture first.
    pub const ALL: [DegradationTier; 4] = [
        DegradationTier::Full,
        DegradationTier::ShedNonCritical,
        DegradationTier::CriticalOnly,
        DegradationTier::SafeHalt,
    ];

    /// Dense index in [`DegradationTier::ALL`] order.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable lower-case name (used in the report JSON schema).
    pub const fn name(self) -> &'static str {
        match self {
            DegradationTier::Full => "full",
            DegradationTier::ShedNonCritical => "shed-non-critical",
            DegradationTier::CriticalOnly => "critical-only",
            DegradationTier::SafeHalt => "safe-halt",
        }
    }

    /// One step tighter (`SafeHalt` saturates).
    pub const fn raised(self) -> DegradationTier {
        match self {
            DegradationTier::Full => DegradationTier::ShedNonCritical,
            DegradationTier::ShedNonCritical => DegradationTier::CriticalOnly,
            DegradationTier::CriticalOnly | DegradationTier::SafeHalt => DegradationTier::SafeHalt,
        }
    }

    /// One step looser (`Full` saturates).
    pub const fn lowered(self) -> DegradationTier {
        match self {
            DegradationTier::Full | DegradationTier::ShedNonCritical => DegradationTier::Full,
            DegradationTier::CriticalOnly => DegradationTier::ShedNonCritical,
            DegradationTier::SafeHalt => DegradationTier::CriticalOnly,
        }
    }
}

impl fmt::Display for DegradationTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One executable countermeasure, fully parameterised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResponseAction {
    /// Gate a master off the interconnect and revoke its grants.
    IsolateMaster(MasterId),
    /// Kill a task.
    KillTask(TaskId),
    /// Restart a task from its entry point.
    RestartTask(TaskId),
    /// Quarantine the NIC (drop all traffic).
    QuarantineNetwork,
    /// Rate-limit NIC ingress to the given packets/window.
    RateLimitNetwork(u32),
    /// Zeroise TEE/keystore key material.
    ZeroizeKeys,
    /// Roll firmware back to the previous slot and reboot.
    RollbackFirmware,
    /// Reflash from the golden image and reboot.
    GoldenRecovery,
    /// Reboot all application cores (the passive countermeasure).
    RebootSystem,
    /// Enter degraded mode: suspend all non-critical tasks.
    EnterDegradedMode,
    /// Lock all actuators in their current safe position.
    LockActuators,
    /// Stop trusting a sensor: hold last-good value / fall back.
    DistrustSensor(usize),
}

impl fmt::Display for ResponseAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// An ordered plan of countermeasures for one incident.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResponsePlan {
    /// The incident id this plan answers.
    pub incident: u64,
    /// Actions in execution order.
    pub actions: Vec<ResponseAction>,
}

impl ResponsePlan {
    /// True when the plan contains no actions.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

/// Planner policy mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlannerMode {
    /// Targeted active countermeasures (the CRES posture).
    Active,
    /// Reboot is the only countermeasure (the passive baseline).
    PassiveRebootOnly,
    /// Detection only; no response (ablation).
    None,
}

/// The response planner.
#[derive(Debug, Clone)]
pub struct ResponsePlanner {
    mode: PlannerMode,
    tier: DegradationTier,
    plans_issued: u64,
}

impl ResponsePlanner {
    /// Creates a planner in the given mode.
    pub fn new(mode: PlannerMode) -> Self {
        ResponsePlanner {
            mode,
            tier: DegradationTier::Full,
            plans_issued: 0,
        }
    }

    /// The active mode.
    pub fn mode(&self) -> PlannerMode {
        self.mode
    }

    /// The degradation tier the planner is composing plans for.
    pub fn tier(&self) -> DegradationTier {
        self.tier
    }

    /// Informs the planner of the platform's current degradation tier
    /// (set by the response policy engine). At `CriticalOnly` and above
    /// the planner stops offering soft network countermeasures: a flood
    /// that would normally be rate-limited is quarantined outright.
    pub fn set_tier(&mut self, tier: DegradationTier) {
        self.tier = tier;
    }

    /// Number of non-empty plans issued.
    pub fn plans_issued(&self) -> u64 {
        self.plans_issued
    }

    /// Plans countermeasures for an incident.
    pub fn plan(&mut self, incident: &Incident) -> ResponsePlan {
        let actions = match self.mode {
            PlannerMode::None => Vec::new(),
            PlannerMode::PassiveRebootOnly => vec![ResponseAction::RebootSystem],
            PlannerMode::Active => self.active_plan(incident),
        };
        if !actions.is_empty() {
            self.plans_issued += 1;
        }
        ResponsePlan {
            incident: incident.id,
            actions,
        }
    }

    fn active_plan(&self, incident: &Incident) -> Vec<ResponseAction> {
        use ResponseAction::*;
        match incident.kind {
            IncidentKind::CodeInjection | IncidentKind::BehaviourAnomaly => {
                let mut plan = Vec::new();
                if let Subject::Task(task) = incident.subject {
                    plan.push(KillTask(task));
                    plan.push(RestartTask(task));
                } else if let Subject::Master(m) = incident.subject {
                    plan.push(IsolateMaster(m));
                }
                plan.push(EnterDegradedMode);
                plan
            }
            IncidentKind::MemoryProbe | IncidentKind::PolicyViolation => match incident.subject {
                Subject::Master(m) if !matches!(m, MasterId::SSM) => {
                    vec![IsolateMaster(m)]
                }
                _ => vec![EnterDegradedMode],
            },
            IncidentKind::FirmwareTamper => {
                vec![EnterDegradedMode, RollbackFirmware]
            }
            IncidentKind::NetworkFlood => {
                // Above CriticalOnly the soft option is gone: posture says
                // non-critical traffic is already shed, so quarantine.
                if self.tier >= DegradationTier::CriticalOnly {
                    vec![QuarantineNetwork]
                } else {
                    vec![RateLimitNetwork(16)]
                }
            }
            IncidentKind::ExploitTraffic => vec![QuarantineNetwork],
            IncidentKind::Exfiltration => {
                vec![QuarantineNetwork, ZeroizeKeys, EnterDegradedMode]
            }
            IncidentKind::SensorSpoof => match incident.subject {
                Subject::Sensor(idx) => vec![DistrustSensor(idx), LockActuators],
                _ => vec![LockActuators],
            },
            IncidentKind::FaultInjection => vec![ZeroizeKeys, LockActuators, EnterDegradedMode],
            IncidentKind::DebugIntrusion => {
                vec![IsolateMaster(MasterId::DEBUG), ZeroizeKeys]
            }
            IncidentKind::SystemHang => vec![RebootSystem],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthState;
    use cres_monitor::Severity;
    use cres_sim::SimTime;

    fn incident(kind: IncidentKind, subject: Subject) -> Incident {
        Incident {
            id: 1,
            at: SimTime::at_cycle(10),
            classified_at: SimTime::at_cycle(10),
            kind,
            severity: Severity::Critical,
            subject,
            evidence: vec![],
            health_at: HealthState::Healthy,
            escalated: false,
        }
    }

    #[test]
    fn none_mode_never_plans() {
        let mut p = ResponsePlanner::new(PlannerMode::None);
        let plan = p.plan(&incident(
            IncidentKind::CodeInjection,
            Subject::Task(TaskId(1)),
        ));
        assert!(plan.is_empty());
        assert_eq!(p.plans_issued(), 0);
    }

    #[test]
    fn passive_mode_always_reboots() {
        let mut p = ResponsePlanner::new(PlannerMode::PassiveRebootOnly);
        for kind in [
            IncidentKind::CodeInjection,
            IncidentKind::Exfiltration,
            IncidentKind::NetworkFlood,
        ] {
            let plan = p.plan(&incident(kind, Subject::Platform));
            assert_eq!(plan.actions, vec![ResponseAction::RebootSystem]);
        }
    }

    #[test]
    fn code_injection_kills_and_restarts_the_task() {
        let mut p = ResponsePlanner::new(PlannerMode::Active);
        let plan = p.plan(&incident(
            IncidentKind::CodeInjection,
            Subject::Task(TaskId(7)),
        ));
        assert_eq!(
            plan.actions,
            vec![
                ResponseAction::KillTask(TaskId(7)),
                ResponseAction::RestartTask(TaskId(7)),
                ResponseAction::EnterDegradedMode
            ]
        );
    }

    #[test]
    fn memory_probe_isolates_the_offending_master() {
        let mut p = ResponsePlanner::new(PlannerMode::Active);
        let plan = p.plan(&incident(
            IncidentKind::MemoryProbe,
            Subject::Master(MasterId::DMA),
        ));
        assert_eq!(
            plan.actions,
            vec![ResponseAction::IsolateMaster(MasterId::DMA)]
        );
    }

    #[test]
    fn planner_never_isolates_the_ssm_itself() {
        let mut p = ResponsePlanner::new(PlannerMode::Active);
        let plan = p.plan(&incident(
            IncidentKind::MemoryProbe,
            Subject::Master(MasterId::SSM),
        ));
        assert!(!plan
            .actions
            .contains(&ResponseAction::IsolateMaster(MasterId::SSM)));
    }

    #[test]
    fn exfiltration_quarantines_and_zeroizes() {
        let mut p = ResponsePlanner::new(PlannerMode::Active);
        let plan = p.plan(&incident(IncidentKind::Exfiltration, Subject::Network));
        assert!(plan.actions.contains(&ResponseAction::QuarantineNetwork));
        assert!(plan.actions.contains(&ResponseAction::ZeroizeKeys));
    }

    #[test]
    fn sensor_spoof_distrusts_and_locks() {
        let mut p = ResponsePlanner::new(PlannerMode::Active);
        let plan = p.plan(&incident(IncidentKind::SensorSpoof, Subject::Sensor(2)));
        assert_eq!(
            plan.actions,
            vec![
                ResponseAction::DistrustSensor(2),
                ResponseAction::LockActuators
            ]
        );
    }

    #[test]
    fn flood_rate_limits_rather_than_quarantines() {
        let mut p = ResponsePlanner::new(PlannerMode::Active);
        let plan = p.plan(&incident(IncidentKind::NetworkFlood, Subject::Network));
        assert_eq!(plan.actions, vec![ResponseAction::RateLimitNetwork(16)]);
    }

    #[test]
    fn hang_still_reboots_in_active_mode() {
        // a hung system has no targeted alternative — the watchdog path
        // survives as the backstop
        let mut p = ResponsePlanner::new(PlannerMode::Active);
        let plan = p.plan(&incident(IncidentKind::SystemHang, Subject::Platform));
        assert_eq!(plan.actions, vec![ResponseAction::RebootSystem]);
    }

    #[test]
    fn tier_ladder_is_total_and_single_step() {
        for (i, tier) in DegradationTier::ALL.into_iter().enumerate() {
            assert_eq!(tier.index(), i);
            for other in &DegradationTier::ALL[..i] {
                assert_ne!(other.name(), tier.name(), "names must be distinct");
            }
            assert!(tier.raised() >= tier);
            assert!(tier.lowered() <= tier);
            assert!(tier.raised().index() <= i + 1);
            assert!(tier.lowered().index() + 1 >= i);
        }
        assert_eq!(
            DegradationTier::SafeHalt.raised(),
            DegradationTier::SafeHalt
        );
        assert_eq!(DegradationTier::Full.lowered(), DegradationTier::Full);
    }

    #[test]
    fn flood_quarantined_at_critical_only_tier() {
        let mut p = ResponsePlanner::new(PlannerMode::Active);
        p.set_tier(DegradationTier::CriticalOnly);
        let plan = p.plan(&incident(IncidentKind::NetworkFlood, Subject::Network));
        assert_eq!(plan.actions, vec![ResponseAction::QuarantineNetwork]);
        p.set_tier(DegradationTier::Full);
        let plan = p.plan(&incident(IncidentKind::NetworkFlood, Subject::Network));
        assert_eq!(plan.actions, vec![ResponseAction::RateLimitNetwork(16)]);
    }

    #[test]
    fn every_kind_has_an_active_plan() {
        let mut p = ResponsePlanner::new(PlannerMode::Active);
        for kind in [
            IncidentKind::CodeInjection,
            IncidentKind::MemoryProbe,
            IncidentKind::FirmwareTamper,
            IncidentKind::NetworkFlood,
            IncidentKind::ExploitTraffic,
            IncidentKind::Exfiltration,
            IncidentKind::SensorSpoof,
            IncidentKind::FaultInjection,
            IncidentKind::DebugIntrusion,
            IncidentKind::BehaviourAnomaly,
            IncidentKind::PolicyViolation,
            IncidentKind::SystemHang,
        ] {
            let plan = p.plan(&incident(kind, Subject::Platform));
            assert!(!plan.is_empty(), "{kind} has no plan");
        }
    }
}
