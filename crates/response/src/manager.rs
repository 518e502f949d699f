//! The response manager: plan execution and graceful degradation.

use crate::backend::RecoveryBackend;
use cres_sim::{SimDuration, SimTime, Stage, StageSink};
use cres_soc::addr::MasterId;
use cres_soc::task::{Criticality, TaskId, TaskState};
use cres_soc::Soc;
use cres_ssm::{DegradationTier, ResponseAction, ResponsePlan};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// Result of executing one action.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActionOutcome {
    /// The countermeasure took effect.
    Success,
    /// Execution was attempted and failed.
    Failed(String),
    /// The action did not apply (e.g. unknown task).
    Skipped(String),
}

impl ActionOutcome {
    /// True for [`ActionOutcome::Success`].
    pub fn is_success(&self) -> bool {
        matches!(self, ActionOutcome::Success)
    }
}

impl fmt::Display for ActionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActionOutcome::Success => write!(f, "success"),
            ActionOutcome::Failed(why) => write!(f, "failed: {why}"),
            ActionOutcome::Skipped(why) => write!(f, "skipped: {why}"),
        }
    }
}

/// An executed countermeasure, for the evidence loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutedAction {
    /// When it executed.
    pub at: SimTime,
    /// The action.
    pub action: ResponseAction,
    /// What happened.
    pub outcome: ActionOutcome,
}

/// Modelled cycle cost of executing one countermeasure, reported in
/// `respond` telemetry spans. Register pokes are cheap; firmware recovery
/// involves flash traffic.
fn action_cost(action: ResponseAction) -> u64 {
    match action {
        ResponseAction::IsolateMaster(_) => 6,
        ResponseAction::KillTask(_) | ResponseAction::RestartTask(_) => 4,
        ResponseAction::QuarantineNetwork | ResponseAction::RateLimitNetwork(_) => 3,
        ResponseAction::ZeroizeKeys => 10,
        ResponseAction::RollbackFirmware | ResponseAction::GoldenRecovery => 40,
        ResponseAction::RebootSystem => 20,
        ResponseAction::EnterDegradedMode => 5,
        ResponseAction::LockActuators | ResponseAction::DistrustSensor(_) => 3,
    }
}

/// The active response manager.
#[derive(Debug, Clone)]
pub struct ResponseManager {
    reboot_duration: SimDuration,
    executed: Vec<ExecutedAction>,
    degraded: bool,
    suspended_by_degrade: Vec<TaskId>,
    /// Tier posture in force (stays `Full` unless a policy engine drives
    /// [`ResponseManager::apply_tier`]).
    tier: DegradationTier,
    /// Tasks suspended by tier posture, awaiting a looser tier.
    policy_suspended: Vec<TaskId>,
    distrusted_sensors: HashSet<usize>,
    isolated: HashSet<MasterId>,
}

impl ResponseManager {
    /// Creates a manager whose system reboots take `reboot_duration`.
    pub fn new(reboot_duration: SimDuration) -> Self {
        ResponseManager {
            reboot_duration,
            executed: Vec::new(),
            degraded: false,
            suspended_by_degrade: Vec::new(),
            tier: DegradationTier::Full,
            policy_suspended: Vec::new(),
            distrusted_sensors: HashSet::new(),
            isolated: HashSet::new(),
        }
    }

    /// The configured reboot latency.
    pub fn reboot_duration(&self) -> SimDuration {
        self.reboot_duration
    }

    /// Everything executed so far.
    pub fn executed(&self) -> &[ExecutedAction] {
        &self.executed
    }

    /// True while in degraded mode — either the legacy boolean degrade
    /// (no policy engine) or any tier posture tighter than `Full`.
    pub fn is_degraded(&self) -> bool {
        self.degraded || self.tier > DegradationTier::Full
    }

    /// The tier posture currently applied to the SoC.
    pub fn tier(&self) -> DegradationTier {
        self.tier
    }

    /// True when sensor `idx` has been marked untrustworthy.
    pub fn is_distrusted(&self, idx: usize) -> bool {
        self.distrusted_sensors.contains(&idx)
    }

    /// Masters currently isolated by countermeasures.
    pub fn isolated_masters(&self) -> impl Iterator<Item = MasterId> + '_ {
        self.isolated.iter().copied()
    }

    /// Executes a full plan in order, recording one `respond` span per
    /// action into `sink` (arg = 1 on success, cycles = the action's
    /// modelled execution cost). Execution continues past failures — a
    /// failed rollback must not prevent network quarantine.
    pub fn execute_plan(
        &mut self,
        plan: &ResponsePlan,
        now: SimTime,
        soc: &mut Soc,
        backend: &mut dyn RecoveryBackend,
        sink: &mut dyn StageSink,
    ) -> Vec<ExecutedAction> {
        plan.actions
            .iter()
            .map(|action| {
                let record = self.execute(*action, now, soc, backend);
                sink.record_span(
                    now,
                    Stage::Respond,
                    u32::from(record.outcome.is_success()),
                    action_cost(*action),
                );
                record
            })
            .collect()
    }

    /// Records a command the interconnect fault plane dropped before it
    /// reached the backend. The action is *not* executed — the record keeps
    /// the forensic log complete so a post-incident audit can distinguish
    /// "never commanded" from "commanded but lost".
    pub fn record_dropped(&mut self, action: ResponseAction, now: SimTime) -> ExecutedAction {
        let record = ExecutedAction {
            at: now,
            action,
            outcome: ActionOutcome::Failed("command dropped by interconnect fault".into()),
        };
        self.executed.push(record.clone());
        record
    }

    /// Executes one countermeasure.
    pub fn execute(
        &mut self,
        action: ResponseAction,
        now: SimTime,
        soc: &mut Soc,
        backend: &mut dyn RecoveryBackend,
    ) -> ExecutedAction {
        let outcome = match action {
            ResponseAction::IsolateMaster(m) => {
                if m == MasterId::SSM {
                    ActionOutcome::Skipped("refusing to isolate the SSM".into())
                } else {
                    soc.bus.gate(m);
                    soc.mem.revoke_all(m);
                    if m.is_app_core() {
                        if let Some(core) = soc.cores.iter_mut().find(|c| c.master() == m) {
                            core.halt();
                        }
                    }
                    self.isolated.insert(m);
                    ActionOutcome::Success
                }
            }
            ResponseAction::KillTask(t) => match soc.task_mut(t) {
                Some(task) => {
                    task.kill();
                    ActionOutcome::Success
                }
                None => ActionOutcome::Skipped(format!("no such task {t}")),
            },
            ResponseAction::RestartTask(t) => match soc.task_mut(t) {
                Some(task) => {
                    task.restart();
                    ActionOutcome::Success
                }
                None => ActionOutcome::Skipped(format!("no such task {t}")),
            },
            ResponseAction::QuarantineNetwork => {
                soc.nic.quarantine();
                ActionOutcome::Success
            }
            ResponseAction::RateLimitNetwork(limit) => {
                soc.nic.set_rate_limit(limit);
                ActionOutcome::Success
            }
            ResponseAction::ZeroizeKeys => match backend.zeroize_keys() {
                Ok(()) => ActionOutcome::Success,
                Err(e) => ActionOutcome::Failed(e),
            },
            ResponseAction::RollbackFirmware => match backend.rollback_firmware() {
                Ok(()) => {
                    soc.reboot_all_cores(now, self.reboot_duration);
                    ActionOutcome::Success
                }
                Err(e) => ActionOutcome::Failed(e),
            },
            ResponseAction::GoldenRecovery => match backend.golden_recovery() {
                Ok(()) => {
                    soc.reboot_all_cores(now, self.reboot_duration);
                    ActionOutcome::Success
                }
                Err(e) => ActionOutcome::Failed(e),
            },
            ResponseAction::RebootSystem => {
                soc.reboot_all_cores(now, self.reboot_duration);
                ActionOutcome::Success
            }
            ResponseAction::EnterDegradedMode => {
                self.enter_degraded(soc);
                ActionOutcome::Success
            }
            ResponseAction::LockActuators => {
                for a in &mut soc.actuators {
                    a.lockout();
                }
                ActionOutcome::Success
            }
            ResponseAction::DistrustSensor(idx) => {
                if idx < soc.sensors.len() {
                    self.distrusted_sensors.insert(idx);
                    ActionOutcome::Success
                } else {
                    ActionOutcome::Skipped(format!("no sensor {idx}"))
                }
            }
        };
        let record = ExecutedAction {
            at: now,
            action,
            outcome,
        };
        self.executed.push(record.clone());
        record
    }

    fn enter_degraded(&mut self, soc: &mut Soc) {
        if self.degraded {
            return;
        }
        self.degraded = true;
        for id in soc.task_ids() {
            let Some(task) = soc.task_mut(id) else {
                continue;
            };
            if task.criticality() < Criticality::Critical && task.state() == TaskState::Running {
                task.suspend();
                self.suspended_by_degrade.push(id);
            }
        }
    }

    /// Leaves degraded mode, resuming the tasks it suspended. A task that
    /// is no longer suspended — killed by a later countermeasure, restarted
    /// elsewhere, or gone entirely — is skipped, never revived: leaving
    /// degraded mode must not undo a `KillTask`.
    pub fn exit_degraded(&mut self, soc: &mut Soc) {
        if !self.degraded {
            return;
        }
        self.degraded = false;
        for id in self.suspended_by_degrade.drain(..) {
            match soc.task_mut(id) {
                Some(task) if task.state() == TaskState::Suspended => task.resume(),
                _ => {}
            }
        }
    }

    /// Applies a degradation-tier posture change to the SoC. `from` is the
    /// posture previously in force; raising only tightens (never lifts a
    /// countermeasure already in place), lowering restores service for the
    /// new tier:
    ///
    /// | tier | tasks running | network | actuators |
    /// |------|---------------|---------|-----------|
    /// | `Full` | all | open | live |
    /// | `ShedNonCritical` | `Important`+ | rate-limited | live |
    /// | `CriticalOnly` | `Critical` only | quarantined | live |
    /// | `SafeHalt` | none | quarantined | locked out |
    ///
    /// Tasks suspended by posture are resumed when a looser tier re-admits
    /// their criticality class — unless they are no longer suspended
    /// (killed, restarted, or removed), in which case they are dropped from
    /// the posture set, not revived.
    pub fn apply_tier(&mut self, from: DegradationTier, to: DegradationTier, soc: &mut Soc) {
        self.tier = to;
        let admitted = |criticality: Criticality| match to {
            DegradationTier::Full => true,
            DegradationTier::ShedNonCritical => criticality > Criticality::BestEffort,
            DegradationTier::CriticalOnly => criticality >= Criticality::Critical,
            DegradationTier::SafeHalt => false,
        };
        // Shed: suspend running tasks the new posture no longer admits.
        for id in soc.task_ids() {
            let Some(task) = soc.task_mut(id) else {
                continue;
            };
            if !admitted(task.criticality()) && task.state() == TaskState::Running {
                task.suspend();
                if !self.policy_suspended.contains(&id) {
                    self.policy_suspended.push(id);
                }
            }
        }
        // Restore: resume posture-suspended tasks the new tier re-admits.
        self.policy_suspended.retain(|&id| match soc.task_mut(id) {
            Some(task) if task.state() != TaskState::Suspended => false,
            Some(task) if admitted(task.criticality()) => {
                task.resume();
                false
            }
            Some(_) => true,
            None => false,
        });
        let raising = to > from;
        match to {
            DegradationTier::Full => {
                soc.nic.release();
                soc.nic.clear_rate_limit();
            }
            DegradationTier::ShedNonCritical => {
                soc.nic.set_rate_limit(32);
                if !raising {
                    // lowering out of quarantine restores rate-limited flow;
                    // raising must not lift a quarantine already imposed
                    soc.nic.release();
                }
            }
            DegradationTier::CriticalOnly | DegradationTier::SafeHalt => {
                soc.nic.quarantine();
            }
        }
        if to == DegradationTier::SafeHalt {
            for a in &mut soc.actuators {
                a.lockout();
            }
        } else if from == DegradationTier::SafeHalt {
            for a in &mut soc.actuators {
                a.release();
            }
        }
    }

    /// Restores an isolated master (post-recovery, after reprovisioning its
    /// grants at the platform level).
    pub fn lift_isolation(&mut self, master: MasterId, soc: &mut Soc) {
        if self.isolated.remove(&master) {
            soc.bus.ungate(master);
            if master.is_app_core() {
                if let Some(core) = soc.cores.iter_mut().find(|c| c.master() == master) {
                    core.resume(SimTime::ZERO);
                }
            }
        }
    }

    /// Restores network service (lifts quarantine and rate limits).
    pub fn restore_network(&mut self, soc: &mut Soc) {
        soc.nic.release();
        soc.nic.clear_rate_limit();
    }

    /// Restores trust in a sensor after recalibration.
    pub fn restore_sensor_trust(&mut self, idx: usize) {
        self.distrusted_sensors.remove(&idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::NullRecoveryBackend;
    use cres_sim::NullSink;
    use cres_soc::addr::Addr;
    use cres_soc::periph::{Actuator, Sensor};
    use cres_soc::soc::{layout, SocBuilder};
    use cres_soc::task::{control_loop_program, Task};

    fn soc() -> Soc {
        let mut soc = SocBuilder::with_standard_layout(5)
            .sensor(Sensor::new("s0", 10.0, 1.0, 1000, 0.01))
            .actuator(Actuator::new("valve", 0.0, 100.0))
            .build();
        let critical = Task::new(
            TaskId(1),
            "relay",
            control_loop_program(layout::FLASH_A.0, layout::SRAM.0, layout::PERIPH.0),
            Criticality::Critical,
        );
        let best_effort = Task::new(
            TaskId(2),
            "telemetry",
            control_loop_program(
                layout::FLASH_A.0.offset(0x1000),
                layout::SRAM.0.offset(0x1000),
                layout::PERIPH.0.offset(0x100),
            ),
            Criticality::BestEffort,
        );
        soc.add_task(critical, 0);
        soc.add_task(best_effort, 1);
        soc
    }

    fn mgr() -> ResponseManager {
        ResponseManager::new(SimDuration::cycles(50_000))
    }

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    #[test]
    fn isolate_master_gates_revokes_and_halts() {
        let mut soc = soc();
        let mut m = mgr();
        let mut b = NullRecoveryBackend::new();
        let rec = m.execute(
            ResponseAction::IsolateMaster(MasterId::CPU1),
            t0(),
            &mut soc,
            &mut b,
        );
        assert!(rec.outcome.is_success());
        assert!(soc.bus.is_gated(MasterId::CPU1));
        assert!(!soc.cores[1].is_running(t0()));
        // memory fully revoked
        assert!(soc.mem.read(MasterId::CPU1, Addr(0x2000_0000), 4).is_err());
        assert_eq!(
            m.isolated_masters().collect::<Vec<_>>(),
            vec![MasterId::CPU1]
        );
    }

    #[test]
    fn ssm_isolation_refused() {
        let mut soc = soc();
        let mut m = mgr();
        let mut b = NullRecoveryBackend::new();
        let rec = m.execute(
            ResponseAction::IsolateMaster(MasterId::SSM),
            t0(),
            &mut soc,
            &mut b,
        );
        assert!(matches!(rec.outcome, ActionOutcome::Skipped(_)));
        assert!(!soc.bus.is_gated(MasterId::SSM));
    }

    #[test]
    fn kill_and_restart_task() {
        let mut soc = soc();
        let mut m = mgr();
        let mut b = NullRecoveryBackend::new();
        m.execute(ResponseAction::KillTask(TaskId(1)), t0(), &mut soc, &mut b);
        assert_eq!(soc.task(TaskId(1)).unwrap().state(), TaskState::Killed);
        m.execute(
            ResponseAction::RestartTask(TaskId(1)),
            t0(),
            &mut soc,
            &mut b,
        );
        assert_eq!(soc.task(TaskId(1)).unwrap().state(), TaskState::Running);
        // unknown task is skipped, not an error
        let rec = m.execute(ResponseAction::KillTask(TaskId(99)), t0(), &mut soc, &mut b);
        assert!(matches!(rec.outcome, ActionOutcome::Skipped(_)));
    }

    #[test]
    fn network_countermeasures() {
        let mut soc = soc();
        let mut m = mgr();
        let mut b = NullRecoveryBackend::new();
        m.execute(ResponseAction::QuarantineNetwork, t0(), &mut soc, &mut b);
        assert!(soc.nic.is_quarantined());
        m.execute(ResponseAction::RateLimitNetwork(8), t0(), &mut soc, &mut b);
        assert!(soc.nic.is_rate_limited());
        m.restore_network(&mut soc);
        assert!(!soc.nic.is_quarantined());
        assert!(!soc.nic.is_rate_limited());
    }

    #[test]
    fn degraded_mode_sheds_only_noncritical_tasks() {
        let mut soc = soc();
        let mut m = mgr();
        let mut b = NullRecoveryBackend::new();
        m.execute(ResponseAction::EnterDegradedMode, t0(), &mut soc, &mut b);
        assert!(m.is_degraded());
        assert_eq!(
            soc.task(TaskId(1)).unwrap().state(),
            TaskState::Running,
            "critical survives"
        );
        assert_eq!(
            soc.task(TaskId(2)).unwrap().state(),
            TaskState::Suspended,
            "best-effort shed"
        );
        m.exit_degraded(&mut soc);
        assert!(!m.is_degraded());
        assert_eq!(soc.task(TaskId(2)).unwrap().state(), TaskState::Running);
    }

    #[test]
    fn exit_degraded_does_not_revive_killed_tasks() {
        // regression: leaving degraded mode used to resume every task it had
        // suspended, even one a later KillTask had removed from service
        let mut soc = soc();
        let mut m = mgr();
        let mut b = NullRecoveryBackend::new();
        m.execute(ResponseAction::EnterDegradedMode, t0(), &mut soc, &mut b);
        assert_eq!(soc.task(TaskId(2)).unwrap().state(), TaskState::Suspended);
        // the suspended task is then killed by a countermeasure
        m.execute(ResponseAction::KillTask(TaskId(2)), t0(), &mut soc, &mut b);
        assert_eq!(soc.task(TaskId(2)).unwrap().state(), TaskState::Killed);
        m.exit_degraded(&mut soc);
        assert_eq!(
            soc.task(TaskId(2)).unwrap().state(),
            TaskState::Killed,
            "exit_degraded revived a killed task"
        );
        // a task restarted in the meantime is likewise left alone
        m.execute(ResponseAction::EnterDegradedMode, t0(), &mut soc, &mut b);
        m.execute(
            ResponseAction::RestartTask(TaskId(2)),
            t0(),
            &mut soc,
            &mut b,
        );
        assert_eq!(soc.task(TaskId(2)).unwrap().state(), TaskState::Running);
        m.exit_degraded(&mut soc);
        assert_eq!(soc.task(TaskId(2)).unwrap().state(), TaskState::Running);
    }

    #[test]
    fn tier_posture_sheds_and_restores_by_criticality() {
        let mut soc = soc();
        let mut m = mgr();
        use DegradationTier::*;
        m.apply_tier(Full, ShedNonCritical, &mut soc);
        assert_eq!(m.tier(), ShedNonCritical);
        assert!(m.is_degraded());
        assert_eq!(soc.task(TaskId(1)).unwrap().state(), TaskState::Running);
        assert_eq!(soc.task(TaskId(2)).unwrap().state(), TaskState::Suspended);
        assert!(soc.nic.is_rate_limited());
        assert!(!soc.nic.is_quarantined());

        m.apply_tier(ShedNonCritical, CriticalOnly, &mut soc);
        assert!(soc.nic.is_quarantined());
        assert_eq!(soc.task(TaskId(1)).unwrap().state(), TaskState::Running);

        m.apply_tier(CriticalOnly, SafeHalt, &mut soc);
        assert_eq!(soc.task(TaskId(1)).unwrap().state(), TaskState::Suspended);
        assert!(soc.actuators[0].is_locked_out());

        // recovery, one step at a time
        m.apply_tier(SafeHalt, CriticalOnly, &mut soc);
        assert_eq!(soc.task(TaskId(1)).unwrap().state(), TaskState::Running);
        assert!(!soc.actuators[0].is_locked_out());
        assert!(soc.nic.is_quarantined(), "critical-only keeps quarantine");
        m.apply_tier(CriticalOnly, ShedNonCritical, &mut soc);
        assert!(!soc.nic.is_quarantined());
        assert!(soc.nic.is_rate_limited());
        assert_eq!(soc.task(TaskId(2)).unwrap().state(), TaskState::Suspended);
        m.apply_tier(ShedNonCritical, Full, &mut soc);
        assert!(!m.is_degraded());
        assert_eq!(m.tier(), Full);
        assert_eq!(soc.task(TaskId(2)).unwrap().state(), TaskState::Running);
        assert!(!soc.nic.is_rate_limited());
    }

    #[test]
    fn tier_restore_skips_killed_tasks() {
        let mut soc = soc();
        let mut m = mgr();
        use DegradationTier::*;
        m.apply_tier(Full, CriticalOnly, &mut soc);
        assert_eq!(soc.task(TaskId(2)).unwrap().state(), TaskState::Suspended);
        soc.task_mut(TaskId(2)).unwrap().kill();
        m.apply_tier(CriticalOnly, Full, &mut soc);
        assert_eq!(
            soc.task(TaskId(2)).unwrap().state(),
            TaskState::Killed,
            "tier restore revived a killed task"
        );
    }

    #[test]
    fn raising_tier_does_not_lift_existing_quarantine() {
        let mut soc = soc();
        let mut m = mgr();
        let mut b = NullRecoveryBackend::new();
        m.execute(ResponseAction::QuarantineNetwork, t0(), &mut soc, &mut b);
        use DegradationTier::*;
        m.apply_tier(Full, ShedNonCritical, &mut soc);
        assert!(
            soc.nic.is_quarantined(),
            "raising to shed-non-critical lifted an active quarantine"
        );
    }

    #[test]
    fn degraded_mode_is_idempotent() {
        let mut soc = soc();
        let mut m = mgr();
        let mut b = NullRecoveryBackend::new();
        m.execute(ResponseAction::EnterDegradedMode, t0(), &mut soc, &mut b);
        m.execute(ResponseAction::EnterDegradedMode, t0(), &mut soc, &mut b);
        m.exit_degraded(&mut soc);
        assert_eq!(soc.task(TaskId(2)).unwrap().state(), TaskState::Running);
    }

    #[test]
    fn reboot_darkens_cores_for_duration() {
        let mut soc = soc();
        let mut m = mgr();
        let mut b = NullRecoveryBackend::new();
        m.execute(ResponseAction::RebootSystem, t0(), &mut soc, &mut b);
        assert!(!soc.cores[0].is_running(SimTime::at_cycle(1_000)));
        assert!(soc.cores[0].is_running(SimTime::at_cycle(50_000)));
    }

    #[test]
    fn recovery_actions_reach_backend_and_reboot() {
        let mut soc = soc();
        let mut m = mgr();
        let mut b = NullRecoveryBackend::new();
        m.execute(ResponseAction::RollbackFirmware, t0(), &mut soc, &mut b);
        m.execute(
            ResponseAction::GoldenRecovery,
            SimTime::at_cycle(100_000),
            &mut soc,
            &mut b,
        );
        m.execute(
            ResponseAction::ZeroizeKeys,
            SimTime::at_cycle(100_000),
            &mut soc,
            &mut b,
        );
        assert_eq!((b.rollbacks, b.golden, b.zeroized), (1, 1, 1));
        assert!(!soc.cores[0].is_running(SimTime::at_cycle(100_001)));
    }

    #[test]
    fn failed_backend_is_reported_not_panicked() {
        struct FailingBackend;
        impl RecoveryBackend for FailingBackend {
            fn rollback_firmware(&mut self) -> Result<(), String> {
                Err("no fallback slot".into())
            }
            fn golden_recovery(&mut self) -> Result<(), String> {
                Ok(())
            }
            fn zeroize_keys(&mut self) -> Result<(), String> {
                Ok(())
            }
        }
        let mut soc = soc();
        let mut m = mgr();
        let rec = m.execute(
            ResponseAction::RollbackFirmware,
            t0(),
            &mut soc,
            &mut FailingBackend,
        );
        assert!(matches!(rec.outcome, ActionOutcome::Failed(_)));
        // failed rollback must not reboot
        assert!(soc.cores[0].is_running(SimTime::at_cycle(1)));
    }

    #[test]
    fn actuator_lockout_and_sensor_distrust() {
        let mut soc = soc();
        let mut m = mgr();
        let mut b = NullRecoveryBackend::new();
        m.execute(ResponseAction::LockActuators, t0(), &mut soc, &mut b);
        assert!(soc.actuators[0].is_locked_out());
        m.execute(ResponseAction::DistrustSensor(0), t0(), &mut soc, &mut b);
        assert!(m.is_distrusted(0));
        let rec = m.execute(ResponseAction::DistrustSensor(9), t0(), &mut soc, &mut b);
        assert!(matches!(rec.outcome, ActionOutcome::Skipped(_)));
        m.restore_sensor_trust(0);
        assert!(!m.is_distrusted(0));
    }

    #[test]
    fn plan_execution_continues_past_failures() {
        struct FailingBackend;
        impl RecoveryBackend for FailingBackend {
            fn rollback_firmware(&mut self) -> Result<(), String> {
                Err("flash write error".into())
            }
            fn golden_recovery(&mut self) -> Result<(), String> {
                Ok(())
            }
            fn zeroize_keys(&mut self) -> Result<(), String> {
                Ok(())
            }
        }
        let mut soc = soc();
        let mut m = mgr();
        let plan = ResponsePlan {
            incident: 1,
            actions: vec![
                ResponseAction::RollbackFirmware,
                ResponseAction::QuarantineNetwork,
            ],
        };
        let results = m.execute_plan(&plan, t0(), &mut soc, &mut FailingBackend, &mut NullSink);
        assert_eq!(results.len(), 2);
        assert!(!results[0].outcome.is_success());
        assert!(results[1].outcome.is_success());
        assert!(soc.nic.is_quarantined());
        assert_eq!(m.executed().len(), 2);
    }

    #[test]
    fn lift_isolation_restores_master() {
        let mut soc = soc();
        let mut m = mgr();
        let mut b = NullRecoveryBackend::new();
        m.execute(
            ResponseAction::IsolateMaster(MasterId::CPU1),
            t0(),
            &mut soc,
            &mut b,
        );
        m.lift_isolation(MasterId::CPU1, &mut soc);
        assert!(!soc.bus.is_gated(MasterId::CPU1));
        assert!(soc.cores[1].is_running(t0()));
        assert_eq!(m.isolated_masters().count(), 0);
    }
}
