//! The assembled System Security Manager.
//!
//! The SSM's run loop is: ingest monitor events → append each to the
//! evidence chain → correlate into incidents → update health → plan
//! responses. The platform executes the returned plans through the active
//! response manager (`cres-response`) and reports execution results back
//! via [`SystemSecurityManager::record_response`], closing the loop with
//! more evidence.
//!
//! [`SsmDeployment`] captures the paper's isolation argument: an
//! `IsolatedCore` SSM's state is unreachable from the GPP (attack injectors
//! get `None` from [`SystemSecurityManager::attack_surface`]), while a
//! `SharedWithGpp` deployment exposes its evidence store to any attacker
//! who owns the application cores — exactly the TEE weakness of §IV.

use crate::correlate::{CorrelationConfig, CorrelationEngine, Incident};
use crate::evidence::EvidenceStore;
use crate::health::{HealthState, MonitorHealth, SystemHealth};
use crate::planner::{DegradationTier, PlannerMode, ResponsePlan, ResponsePlanner};
use cres_monitor::MonitorEvent;
use cres_sim::{
    fault_code, MonitorId, MonitorRegistry, NullSink, SimDuration, SimTime, Stage, StageSink,
};

/// Modelled cycle cost of consuming one event in the correlation engine.
const CORRELATE_COST: u64 = 4;
/// Modelled cycle cost of classifying one incident.
const CLASSIFY_COST: u64 = 6;
/// Modelled cycle cost of planning a response.
const PLAN_COST: u64 = 5;
/// Modelled cycle cost of one keyed hash-chain append.
const EVIDENCE_APPEND_COST: u64 = 8;

/// Where the SSM physically runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SsmDeployment {
    /// Own core, own private memory (the paper's prescription).
    IsolatedCore,
    /// Time-shared with the general-purpose processor (the TEE-like
    /// baseline topology).
    SharedWithGpp,
}

/// SSM configuration.
#[derive(Debug, Clone, Copy)]
pub struct SsmConfig {
    /// Physical deployment.
    pub deployment: SsmDeployment,
    /// Correlation engine configuration.
    pub correlation: CorrelationConfig,
    /// Response planning mode.
    pub planner: PlannerMode,
    /// Record evidence (ablation A2 switches this off to cost it).
    pub evidence_enabled: bool,
}

impl Default for SsmConfig {
    fn default() -> Self {
        SsmConfig {
            deployment: SsmDeployment::IsolatedCore,
            correlation: CorrelationConfig::default(),
            planner: PlannerMode::Active,
            evidence_enabled: true,
        }
    }
}

/// The system security manager.
#[derive(Debug, Clone)]
pub struct SystemSecurityManager {
    config: SsmConfig,
    evidence: EvidenceStore,
    engine: CorrelationEngine,
    health: SystemHealth,
    planner: ResponsePlanner,
    incidents: Vec<Incident>,
    monitor_health: Option<MonitorHealth>,
    registry: MonitorRegistry,
}

impl SystemSecurityManager {
    /// Creates an SSM keyed with `evidence_key` (derived from the device
    /// root key, held in SSM-private memory).
    pub fn new(config: SsmConfig, evidence_key: &[u8]) -> Self {
        SystemSecurityManager {
            config,
            evidence: EvidenceStore::new(evidence_key),
            engine: CorrelationEngine::new(config.correlation),
            health: SystemHealth::new(),
            planner: ResponsePlanner::new(config.planner),
            incidents: Vec::new(),
            monitor_health: None,
            registry: MonitorRegistry::new(),
        }
    }

    /// Restores the pristine just-constructed state under a (possibly new)
    /// configuration and evidence key, reusing the evidence store's record
    /// buffers and the intern table's storage. Behaviour after a reset is
    /// bit-identical to [`SystemSecurityManager::new`] — the platform
    /// pool's determinism proptest pins this.
    pub fn reset(&mut self, config: SsmConfig, evidence_key: &[u8]) {
        self.config = config;
        self.evidence.reset(evidence_key);
        self.engine = CorrelationEngine::new(config.correlation);
        self.health = SystemHealth::new();
        self.planner = ResponsePlanner::new(config.planner);
        self.incidents.clear();
        self.monitor_health = None;
        self.registry.clear();
    }

    /// Interns a monitor name at wiring time; events stamped with the
    /// returned [`MonitorId`] resolve back to `name` in evidence records
    /// and console output. Idempotent.
    pub fn intern_monitor(&mut self, name: &'static str) -> MonitorId {
        self.registry.intern(name)
    }

    /// Resolves an interned monitor id (`"?"` for unbound/foreign ids).
    #[inline]
    pub fn monitor_name(&self, id: MonitorId) -> &'static str {
        self.registry.name(id)
    }

    /// Arms heartbeat-based liveness tracking for a fleet of `count`
    /// monitors sampled every `period`. A monitor that misses
    /// [`crate::health::MISS_THRESHOLD`] consecutive periods is quarantined
    /// by [`SystemSecurityManager::check_monitor_health`].
    pub fn init_monitor_health(&mut self, count: usize, period: SimDuration) {
        self.monitor_health = Some(MonitorHealth::new(count, period));
    }

    /// Records a heartbeat from monitor `index` at `now` (called by the
    /// platform every time the monitor produces a sample batch, empty or
    /// not). A no-op until [`SystemSecurityManager::init_monitor_health`].
    pub fn monitor_heartbeat(&mut self, index: usize, now: SimTime) {
        if let Some(tracker) = self.monitor_health.as_mut() {
            tracker.heartbeat(index, now);
        }
    }

    /// Sweeps monitor liveness at `now`. Newly dead monitors are
    /// quarantined: the loss is recorded as evidence, one `fault-plane` span
    /// per quarantine is reported to `sink`, and — on the first quarantine —
    /// the correlation engine switches into sensing-degraded mode (wider
    /// windows, lower threshold) so the surviving monitors compensate.
    /// Returns the indices quarantined by this sweep.
    pub fn check_monitor_health(&mut self, now: SimTime, sink: &mut dyn StageSink) -> Vec<usize> {
        let Some(tracker) = self.monitor_health.as_mut() else {
            return Vec::new();
        };
        let newly_dead = tracker.check(now);
        if newly_dead.is_empty() {
            return newly_dead;
        }
        let entering_degraded = !self.engine.is_degraded();
        for &index in &newly_dead {
            if self.config.evidence_enabled {
                self.evidence.append(
                    now,
                    "monitor-health",
                    &format!("monitor #{index} heartbeat lost; quarantined"),
                );
            }
            sink.record_span(now, Stage::FaultPlane, fault_code::MONITOR_QUARANTINED, 1);
        }
        if entering_degraded {
            self.engine.set_degraded(true);
            if self.config.evidence_enabled {
                self.evidence.append(
                    now,
                    "monitor-health",
                    "sensing degraded: correlation windows widened, threshold lowered",
                );
            }
            sink.record_span(now, Stage::FaultPlane, fault_code::SENSING_DEGRADED, 1);
        }
        newly_dead
    }

    /// True once monitor loss has pushed correlation into sensing-degraded
    /// compensation.
    pub fn sensing_degraded(&self) -> bool {
        self.engine.is_degraded()
    }

    /// Indices of quarantined monitors, ascending (empty until liveness
    /// tracking is armed).
    pub fn quarantined_monitors(&self) -> Vec<usize> {
        self.monitor_health
            .as_ref()
            .map_or_else(Vec::new, |t| t.quarantined())
    }

    /// The configuration in force.
    pub fn config(&self) -> &SsmConfig {
        &self.config
    }

    /// Current health state.
    pub fn health(&self) -> HealthState {
        self.health.state()
    }

    /// The health tracker (availability accounting).
    pub fn health_tracker(&self) -> &SystemHealth {
        &self.health
    }

    /// All classified incidents.
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// The evidence store (read-only forensic export path).
    pub fn evidence(&self) -> &EvidenceStore {
        &self.evidence
    }

    /// Ingests a batch of monitor events observed at `now`; returns any
    /// response plans to execute.
    pub fn ingest(&mut self, now: SimTime, events: &[MonitorEvent]) -> Vec<ResponsePlan> {
        self.ingest_traced(now, events, &mut NullSink)
    }

    /// [`SystemSecurityManager::ingest`] with telemetry: every evidence
    /// append, correlation step, incident classification and produced plan
    /// is reported to `sink` as a span (`evidence-append` arg = chain
    /// sequence, `correlate` arg = 1 when the event classified an incident,
    /// `classify` arg = incident id, `plan` arg = action count).
    pub fn ingest_traced(
        &mut self,
        now: SimTime,
        events: &[MonitorEvent],
        sink: &mut dyn StageSink,
    ) -> Vec<ResponsePlan> {
        let mut plans = Vec::new();
        for event in events {
            let seq = if self.config.evidence_enabled {
                let seq = self.evidence.append(
                    event.at,
                    self.registry.name(event.monitor),
                    &format!(
                        "[{}] {} {}: {}",
                        event.severity,
                        event.capability,
                        event.subject,
                        event.rendered()
                    ),
                );
                sink.record_span(now, Stage::EvidenceAppend, seq as u32, EVIDENCE_APPEND_COST);
                Some(seq)
            } else {
                None
            };
            let incident = self.engine.ingest(now, event, self.health.state());
            sink.record_span(
                now,
                Stage::Correlate,
                u32::from(incident.is_some()),
                CORRELATE_COST,
            );
            if let Some(mut incident) = incident {
                if let Some(seq) = seq {
                    incident.evidence.push(seq);
                }
                sink.record_span(
                    incident.classified_at,
                    Stage::Classify,
                    incident.id as u32,
                    CLASSIFY_COST,
                );
                self.health
                    .on_incident(incident.classified_at, incident.severity);
                if self.config.evidence_enabled {
                    let seq = self.evidence.append(
                        incident.classified_at,
                        "incident",
                        &format!(
                            "#{} {} severity={} subject={} health={}",
                            incident.id,
                            incident.kind,
                            incident.severity,
                            incident.subject,
                            incident.health_at
                        ),
                    );
                    sink.record_span(now, Stage::EvidenceAppend, seq as u32, EVIDENCE_APPEND_COST);
                    incident.evidence.push(seq);
                }
                let plan = self.planner.plan(&incident);
                if !plan.is_empty() {
                    sink.record_span(now, Stage::Plan, plan.actions.len() as u32, PLAN_COST);
                    plans.push(plan);
                }
                self.incidents.push(incident);
            }
        }
        plans
    }

    /// Records a free-form platform event (boot measurements, provisioning
    /// milestones) into the evidence chain.
    pub fn record_note(&mut self, at: SimTime, category: &str, payload: &str) {
        if self.config.evidence_enabled {
            self.evidence.append(at, category, payload);
        }
    }

    /// Records the execution result of a countermeasure (evidence of the
    /// RESPOND function acting).
    pub fn record_response(&mut self, at: SimTime, action: &str, success: bool) {
        if self.config.evidence_enabled {
            self.evidence.append(
                at,
                "response",
                &format!("{action}: {}", if success { "executed" } else { "FAILED" }),
            );
        }
    }

    /// Records that degradation took effect.
    pub fn record_degraded(&mut self, at: SimTime) {
        self.health.on_degraded(at);
    }

    /// Threads the platform's degradation tier into plan generation and
    /// chains the transition as evidence. Called by the response policy
    /// engine on every tier change; subsequent plans are composed for the
    /// new posture (see [`ResponsePlanner::set_tier`]).
    pub fn set_response_tier(&mut self, at: SimTime, from: DegradationTier, to: DegradationTier) {
        self.planner.set_tier(to);
        if self.config.evidence_enabled {
            self.evidence
                .append(at, "policy", &format!("tier {from} -> {to}"));
        }
        if to > from {
            self.health.on_degraded(at);
        }
    }

    /// Records the start of a recovery procedure.
    pub fn record_recovery_started(&mut self, at: SimTime, method: &str) {
        self.health.on_recovery_started(at);
        if self.config.evidence_enabled {
            self.evidence
                .append(at, "recovery", &format!("started: {method}"));
        }
    }

    /// Records a completed recovery; health returns to `Healthy`.
    pub fn record_recovered(&mut self, at: SimTime) {
        self.health.on_recovered(at);
        if self.config.evidence_enabled {
            self.evidence
                .append(at, "recovery", "completed; observation window quiet");
        }
    }

    /// Seals the evidence chain under a Merkle root at simulated time `at`
    /// (periodic audit point). No-op returning `None` when the store is
    /// empty.
    pub fn seal_evidence(&mut self, at: SimTime) -> Option<[u8; 32]> {
        if self.evidence.is_empty() {
            None
        } else {
            Some(self.evidence.seal(at))
        }
    }

    /// Correlation statistics `(events seen, incidents raised)`.
    pub fn correlation_stats(&self) -> (u64, u64) {
        self.engine.stats()
    }

    /// **The isolation experiment's lever (E7).** Returns mutable access to
    /// the evidence store *only when the SSM shares resources with the
    /// GPP*; an isolated SSM exposes nothing to an attacker on the
    /// application cores.
    pub fn attack_surface(&mut self) -> Option<&mut EvidenceStore> {
        match self.config.deployment {
            SsmDeployment::SharedWithGpp => Some(&mut self.evidence),
            SsmDeployment::IsolatedCore => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cres_monitor::{Severity, Subject};
    use cres_policy::DetectionCapability;
    use cres_soc::task::TaskId;

    fn ev(at: u64, cap: DetectionCapability, sev: Severity, detail: &'static str) -> MonitorEvent {
        MonitorEvent::new(
            SimTime::at_cycle(at),
            cap,
            sev,
            Subject::Task(TaskId(1)),
            cres_monitor::Detail::Text(detail),
        )
    }

    fn ssm() -> SystemSecurityManager {
        SystemSecurityManager::new(SsmConfig::default(), b"evidence-key")
    }

    #[test]
    fn benign_events_recorded_but_no_plans() {
        let mut s = ssm();
        let plans = s.ingest(
            SimTime::at_cycle(50),
            &[ev(
                1,
                DetectionCapability::BusPolicing,
                Severity::Info,
                "ok",
            )],
        );
        assert!(plans.is_empty());
        assert_eq!(s.evidence().len(), 1);
        assert_eq!(s.health(), HealthState::Healthy);
        assert!(s.incidents().is_empty());
    }

    #[test]
    fn critical_event_produces_incident_plan_and_evidence() {
        let mut s = ssm();
        let plans = s.ingest(
            SimTime::at_cycle(50),
            &[ev(
                10,
                DetectionCapability::ControlFlowIntegrity,
                Severity::Critical,
                "illegal edge",
            )],
        );
        assert_eq!(plans.len(), 1);
        assert!(!plans[0].actions.is_empty());
        assert_eq!(s.health(), HealthState::Compromised);
        assert_eq!(s.incidents().len(), 1);
        // event + incident records
        assert_eq!(s.evidence().len(), 2);
        assert!(s.evidence().verify().is_ok());
        // incident links to its evidence
        assert_eq!(s.incidents()[0].evidence.len(), 2);
    }

    #[test]
    fn response_and_recovery_close_the_loop() {
        let mut s = ssm();
        s.ingest(
            SimTime::at_cycle(0),
            &[ev(
                10,
                DetectionCapability::ControlFlowIntegrity,
                Severity::Critical,
                "edge",
            )],
        );
        s.record_response(SimTime::at_cycle(12), "KillTask(task#1)", true);
        s.record_degraded(SimTime::at_cycle(13));
        s.record_recovery_started(SimTime::at_cycle(20), "restart from clean image");
        s.record_recovered(SimTime::at_cycle(100));
        assert_eq!(s.health(), HealthState::Healthy);
        assert!(s.evidence().verify().is_ok());
        let categories: Vec<&str> = s
            .evidence()
            .records()
            .iter()
            .map(|r| r.category.as_str())
            .collect();
        assert!(categories.contains(&"incident"));
        assert!(categories.contains(&"response"));
        assert!(categories.contains(&"recovery"));
    }

    #[test]
    fn evidence_disabled_records_nothing() {
        let mut s = SystemSecurityManager::new(
            SsmConfig {
                evidence_enabled: false,
                ..Default::default()
            },
            b"k",
        );
        let plans = s.ingest(
            SimTime::at_cycle(50),
            &[ev(
                1,
                DetectionCapability::ControlFlowIntegrity,
                Severity::Critical,
                "edge",
            )],
        );
        assert!(!plans.is_empty(), "response still works without evidence");
        assert!(s.evidence().is_empty());
        assert_eq!(s.seal_evidence(SimTime::at_cycle(1)), None);
    }

    #[test]
    fn passive_planner_reboots() {
        let mut s = SystemSecurityManager::new(
            SsmConfig {
                planner: PlannerMode::PassiveRebootOnly,
                ..Default::default()
            },
            b"k",
        );
        let plans = s.ingest(
            SimTime::at_cycle(50),
            &[ev(
                1,
                DetectionCapability::WatchdogLiveness,
                Severity::Critical,
                "expired",
            )],
        );
        assert_eq!(plans.len(), 1);
        assert_eq!(
            plans[0].actions,
            vec![crate::planner::ResponseAction::RebootSystem]
        );
    }

    #[test]
    fn isolated_ssm_exposes_no_attack_surface() {
        let mut isolated = ssm();
        assert!(isolated.attack_surface().is_none());
        let mut shared = SystemSecurityManager::new(
            SsmConfig {
                deployment: SsmDeployment::SharedWithGpp,
                ..Default::default()
            },
            b"k",
        );
        assert!(shared.attack_surface().is_some());
    }

    #[test]
    fn shared_ssm_evidence_tamper_is_detectable_but_possible() {
        let mut s = SystemSecurityManager::new(
            SsmConfig {
                deployment: SsmDeployment::SharedWithGpp,
                ..Default::default()
            },
            b"k",
        );
        s.ingest(
            SimTime::at_cycle(0),
            &[ev(
                1,
                DetectionCapability::ControlFlowIntegrity,
                Severity::Critical,
                "edge",
            )],
        );
        // attacker wipes the store through the shared surface
        s.attack_surface().unwrap().records_mut_for_attack().clear();
        assert!(
            s.evidence().is_empty(),
            "shared deployment lost its evidence"
        );
    }

    #[test]
    fn seal_returns_root_over_evidence() {
        let mut s = ssm();
        s.ingest(
            SimTime::at_cycle(0),
            &[ev(1, DetectionCapability::BusPolicing, Severity::Info, "x")],
        );
        let root = s.seal_evidence(SimTime::at_cycle(10)).unwrap();
        assert_ne!(root, [0u8; 32]);
    }

    #[test]
    fn monitor_health_quarantines_and_degrades_correlation() {
        let mut s = ssm();
        s.init_monitor_health(2, cres_sim::SimDuration::cycles(1_000));
        assert!(!s.sensing_degraded());
        // Monitor 0 beats, monitor 1 never does.
        for round in 1..=5u64 {
            s.monitor_heartbeat(0, SimTime::at_cycle(round * 1_000));
        }
        let dead = s.check_monitor_health(SimTime::at_cycle(5_000), &mut NullSink);
        assert_eq!(dead, vec![1]);
        assert!(s.sensing_degraded());
        assert_eq!(s.quarantined_monitors(), vec![1]);
        let categories: Vec<&str> = s
            .evidence()
            .records()
            .iter()
            .map(|r| r.category.as_str())
            .collect();
        assert_eq!(
            categories
                .iter()
                .filter(|c| **c == "monitor-health")
                .count(),
            2,
            "expected quarantine + degradation evidence records"
        );
        // A second sweep neither re-quarantines nor re-records; the live
        // monitor keeps beating so only the dead one is in question.
        s.monitor_heartbeat(0, SimTime::at_cycle(9_000));
        let again = s.check_monitor_health(SimTime::at_cycle(9_000), &mut NullSink);
        assert!(again.is_empty());
    }

    #[test]
    fn monitor_health_is_inert_until_armed() {
        let mut s = ssm();
        s.monitor_heartbeat(0, SimTime::at_cycle(1_000));
        assert!(s
            .check_monitor_health(SimTime::at_cycle(1_000_000), &mut NullSink)
            .is_empty());
        assert!(!s.sensing_degraded());
        assert!(s.quarantined_monitors().is_empty());
    }

    #[test]
    fn correlation_stats_flow_through() {
        let mut s = ssm();
        for i in 0..10 {
            s.ingest(
                SimTime::at_cycle(0),
                &[ev(i, DetectionCapability::BusPolicing, Severity::Info, "x")],
            );
        }
        let (seen, raised) = s.correlation_stats();
        assert_eq!(seen, 10);
        assert_eq!(raised, 0);
    }
}
