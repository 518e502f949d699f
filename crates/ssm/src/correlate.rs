//! The correlation engine: monitor events → classified incidents.
//!
//! Raw monitor events are noisy — a single denied bus transaction may be a
//! benign bug. The engine applies three rule shapes before declaring an
//! incident:
//!
//! * **immediate** — any `Alert` or `Critical` event is an incident by
//!   itself;
//! * **threshold** — [`THRESHOLD`] `Warning` events of one capability
//!   within [`WINDOW`] cycles (e.g. repeated guarded-region probes ⇒
//!   reconnaissance);
//! * **sequence** — an incident of a different kind within
//!   [`ESCALATION_WINDOW`] cycles of the previous one is escalated to
//!   `Critical` (e.g. policy violation then exfil signature ⇒ staged
//!   intrusion).
//!
//! In sensing-degraded mode the threshold drops by one and the windows
//! widen 4× and 2× respectively.
//!
//! Ablation A1 runs the platform with the engine disabled (every Warning+
//! event becomes an incident) to quantify the false-positive cost.

use crate::health::HealthState;
use cres_monitor::{Detail, MonitorEvent, Severity, Subject};
use cres_policy::DetectionCapability;
use cres_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Classified incident kinds — the vocabulary response planning works in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IncidentKind {
    /// Control-flow hijack / code injection.
    CodeInjection,
    /// Scanning of protected memory.
    MemoryProbe,
    /// Firmware or write-guarded region tampered.
    FirmwareTamper,
    /// Network flood / DoS.
    NetworkFlood,
    /// Exploit-signature traffic.
    ExploitTraffic,
    /// Data exfiltration in progress.
    Exfiltration,
    /// Sensor spoofing / implausible physics.
    SensorSpoof,
    /// Voltage/clock/thermal fault injection.
    FaultInjection,
    /// Debug-port intrusion.
    DebugIntrusion,
    /// Syscall-behaviour anomaly.
    BehaviourAnomaly,
    /// Repeated out-of-policy access (reconnaissance).
    PolicyViolation,
    /// System hang (watchdog).
    SystemHang,
}

impl fmt::Display for IncidentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A classified incident.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Incident {
    /// Incident id (dense per engine).
    pub id: u64,
    /// When the classifying event occurred (the underlying observation).
    pub at: SimTime,
    /// When the SSM classified it (the next sampling boundary) — detection
    /// latency is measured against this.
    pub classified_at: SimTime,
    /// Incident class.
    pub kind: IncidentKind,
    /// Highest severity among contributing events.
    pub severity: Severity,
    /// The resource concerned.
    pub subject: Subject,
    /// Evidence-store sequence numbers of the contributing events (filled
    /// by the SSM).
    pub evidence: Vec<u64>,
    /// Health state at classification time.
    pub health_at: HealthState,
    /// True when the sequence rule fired: this incident follows a
    /// *different-kind* incident within the escalation window, indicating a
    /// staged, multi-vector intrusion rather than an isolated event.
    pub escalated: bool,
}

/// Classifies a single event's capability/severity into an incident kind.
fn classify(event: &MonitorEvent) -> IncidentKind {
    use DetectionCapability::*;
    match event.capability {
        ControlFlowIntegrity => IncidentKind::CodeInjection,
        MemoryGuard => {
            if event.severity >= Severity::Critical {
                IncidentKind::FirmwareTamper
            } else {
                IncidentKind::MemoryProbe
            }
        }
        BusPolicing => match event.detail {
            Detail::DebugPortActive { .. } => IncidentKind::DebugIntrusion,
            // synthetic Text events (tests, ablations) keep the old
            // substring contract
            Detail::Text(s) if s.contains("debug port") => IncidentKind::DebugIntrusion,
            _ => IncidentKind::PolicyViolation,
        },
        SyscallSequence => IncidentKind::BehaviourAnomaly,
        NetworkRate => IncidentKind::NetworkFlood,
        NetworkSignature => match event.detail {
            Detail::OutboundExfiltration { .. } => IncidentKind::Exfiltration,
            Detail::Text(s) if s.contains("exfiltration") => IncidentKind::Exfiltration,
            _ => IncidentKind::ExploitTraffic,
        },
        InformationFlow => IncidentKind::Exfiltration,
        SensorPlausibility => IncidentKind::SensorSpoof,
        Environmental => IncidentKind::FaultInjection,
        BootMeasurement => IncidentKind::FirmwareTamper,
        WatchdogLiveness => IncidentKind::SystemHang,
    }
}

/// Threshold rule: this many same-capability `Warning` events inside
/// [`WINDOW`] raise an incident.
pub const THRESHOLD: u32 = 3;
/// Threshold-rule window length.
pub const WINDOW: SimDuration = SimDuration::cycles(200_000);
/// Sequence rule: a second incident of a *different* kind within this
/// window of the previous incident is escalated to `Critical`.
pub const ESCALATION_WINDOW: SimDuration = SimDuration::cycles(500_000);

/// Correlation engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CorrelationConfig {
    /// Enable threshold/sequence correlation. When off, every event at
    /// `Warning` or above immediately becomes an incident (ablation A1).
    pub enabled: bool,
}

impl Default for CorrelationConfig {
    fn default() -> Self {
        CorrelationConfig { enabled: true }
    }
}

/// The correlation engine.
#[derive(Debug, Clone)]
pub struct CorrelationEngine {
    config: CorrelationConfig,
    recent: VecDeque<(SimTime, DetectionCapability, Severity, Subject)>,
    last_incident: Option<(SimTime, IncidentKind)>,
    next_id: u64,
    incidents_raised: u64,
    escalations: u64,
    events_seen: u64,
    degraded: bool,
}

impl CorrelationEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: CorrelationConfig) -> Self {
        CorrelationEngine {
            config,
            recent: VecDeque::new(),
            last_incident: None,
            next_id: 0,
            incidents_raised: 0,
            escalations: 0,
            events_seen: 0,
            degraded: false,
        }
    }

    /// Switches sensing-degraded mode on or off. Degraded mode compensates
    /// for a thinner event stream (quarantined monitors, lossy delivery) by
    /// widening both correlation windows and lowering the threshold-rule
    /// count, so the engine trades false-positive margin for coverage
    /// instead of going blind.
    pub fn set_degraded(&mut self, degraded: bool) {
        self.degraded = degraded;
    }

    /// True while sensing-degraded compensation is active.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Threshold-rule event count currently in force (one lower when
    /// degraded, so two Warnings suffice but a single one never raises).
    pub fn effective_threshold(&self) -> u32 {
        if self.degraded {
            THRESHOLD - 1
        } else {
            THRESHOLD
        }
    }

    /// Threshold-rule window currently in force (4× when degraded).
    pub fn effective_window(&self) -> SimDuration {
        if self.degraded {
            SimDuration::cycles(WINDOW.as_cycles() * 4)
        } else {
            WINDOW
        }
    }

    /// Sequence-rule escalation window currently in force (2× when
    /// degraded).
    pub fn effective_escalation_window(&self) -> SimDuration {
        if self.degraded {
            SimDuration::cycles(ESCALATION_WINDOW.as_cycles() * 2)
        } else {
            ESCALATION_WINDOW
        }
    }

    /// Feeds one event observed at classification time `now`; returns an
    /// incident when a rule fires.
    pub fn ingest(
        &mut self,
        now: SimTime,
        event: &MonitorEvent,
        health: HealthState,
    ) -> Option<Incident> {
        self.events_seen += 1;
        if event.severity < Severity::Warning {
            return None;
        }
        if !self.config.enabled {
            return Some(self.raise(now, event, classify(event), health));
        }
        // Immediate rule: Alert and Critical events are incidents on their
        // own.
        if event.severity >= Severity::Alert {
            return Some(self.raise(now, event, classify(event), health));
        }
        // Threshold rule over Warning-grade events.
        let horizon = SimTime::at_cycle(
            event
                .at
                .cycle()
                .saturating_sub(self.effective_window().as_cycles()),
        );
        self.recent.retain(|(at, _, _, _)| *at >= horizon);
        self.recent
            .push_back((event.at, event.capability, event.severity, event.subject));
        let same_capability = self
            .recent
            .iter()
            .filter(|(_, cap, _, _)| *cap == event.capability)
            .count() as u32;
        if same_capability >= self.effective_threshold() {
            self.recent
                .retain(|(_, cap, _, _)| *cap != event.capability);
            return Some(self.raise(now, event, classify(event), health));
        }
        None
    }

    fn raise(
        &mut self,
        now: SimTime,
        event: &MonitorEvent,
        kind: IncidentKind,
        health: HealthState,
    ) -> Incident {
        let id = self.next_id;
        self.next_id += 1;
        self.incidents_raised += 1;
        let classified_at = now.max(event.at);
        // Sequence rule: a different-kind incident inside the escalation
        // window marks a staged intrusion and escalates to Critical.
        let escalated = self.config.enabled
            && self.last_incident.is_some_and(|(at, prev_kind)| {
                prev_kind != kind
                    && classified_at.saturating_since(at) <= self.effective_escalation_window()
            });
        if escalated {
            self.escalations += 1;
        }
        self.last_incident = Some((classified_at, kind));
        Incident {
            id,
            at: event.at,
            classified_at,
            kind,
            severity: if escalated {
                Severity::Critical
            } else {
                event.severity
            },
            subject: event.subject,
            evidence: Vec::new(),
            health_at: health,
            escalated,
        }
    }

    /// Number of sequence-rule escalations so far.
    pub fn escalations(&self) -> u64 {
        self.escalations
    }

    /// `(events seen, incidents raised)` — the A1 signal-to-noise numbers.
    pub fn stats(&self) -> (u64, u64) {
        (self.events_seen, self.incidents_raised)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cres_soc::addr::MasterId;

    fn ev(at: u64, cap: DetectionCapability, sev: Severity, detail: &'static str) -> MonitorEvent {
        MonitorEvent::new(
            SimTime::at_cycle(at),
            cap,
            sev,
            Subject::Master(MasterId::CPU0),
            Detail::Text(detail),
        )
    }

    fn engine() -> CorrelationEngine {
        CorrelationEngine::new(CorrelationConfig::default())
    }

    #[test]
    fn info_events_never_raise() {
        let mut e = engine();
        for i in 0..100 {
            assert!(e
                .ingest(
                    SimTime::at_cycle(0),
                    &ev(i, DetectionCapability::BusPolicing, Severity::Info, "x"),
                    HealthState::Healthy
                )
                .is_none());
        }
    }

    #[test]
    fn critical_event_is_immediate_incident() {
        let mut e = engine();
        let inc = e
            .ingest(
                SimTime::at_cycle(0),
                &ev(
                    5,
                    DetectionCapability::ControlFlowIntegrity,
                    Severity::Critical,
                    "edge",
                ),
                HealthState::Healthy,
            )
            .unwrap();
        assert_eq!(inc.kind, IncidentKind::CodeInjection);
        assert_eq!(inc.severity, Severity::Critical);
        assert_eq!(inc.health_at, HealthState::Healthy);
    }

    #[test]
    fn single_warning_does_not_raise_but_repeats_do() {
        let mut e = engine();
        assert!(e
            .ingest(
                SimTime::at_cycle(0),
                &ev(
                    0,
                    DetectionCapability::BusPolicing,
                    Severity::Warning,
                    "denied"
                ),
                HealthState::Healthy
            )
            .is_none());
        assert!(e
            .ingest(
                SimTime::at_cycle(0),
                &ev(
                    10,
                    DetectionCapability::BusPolicing,
                    Severity::Warning,
                    "denied"
                ),
                HealthState::Healthy
            )
            .is_none());
        let inc = e
            .ingest(
                SimTime::at_cycle(0),
                &ev(
                    20,
                    DetectionCapability::BusPolicing,
                    Severity::Warning,
                    "denied",
                ),
                HealthState::Healthy,
            )
            .unwrap();
        assert_eq!(inc.kind, IncidentKind::PolicyViolation);
        // counter resets after raising
        assert!(e
            .ingest(
                SimTime::at_cycle(0),
                &ev(
                    30,
                    DetectionCapability::BusPolicing,
                    Severity::Warning,
                    "denied"
                ),
                HealthState::Healthy
            )
            .is_none());
    }

    #[test]
    fn warnings_outside_window_do_not_accumulate() {
        let mut e = engine();
        let w = WINDOW.as_cycles();
        for i in 0..5 {
            assert!(
                e.ingest(
                    SimTime::at_cycle(0),
                    &ev(
                        i * (w + 1),
                        DetectionCapability::BusPolicing,
                        Severity::Warning,
                        "denied"
                    ),
                    HealthState::Healthy
                )
                .is_none(),
                "event {i} raised despite window expiry"
            );
        }
    }

    #[test]
    fn different_capabilities_do_not_cross_count() {
        let mut e = engine();
        assert!(e
            .ingest(
                SimTime::at_cycle(0),
                &ev(0, DetectionCapability::BusPolicing, Severity::Warning, "d"),
                HealthState::Healthy
            )
            .is_none());
        assert!(e
            .ingest(
                SimTime::at_cycle(0),
                &ev(1, DetectionCapability::MemoryGuard, Severity::Warning, "d"),
                HealthState::Healthy
            )
            .is_none());
        assert!(e
            .ingest(
                SimTime::at_cycle(0),
                &ev(2, DetectionCapability::NetworkRate, Severity::Warning, "d"),
                HealthState::Healthy
            )
            .is_none());
    }

    #[test]
    fn disabled_engine_raises_everything() {
        let mut e = CorrelationEngine::new(CorrelationConfig { enabled: false });
        let inc = e.ingest(
            SimTime::at_cycle(0),
            &ev(
                0,
                DetectionCapability::BusPolicing,
                Severity::Warning,
                "denied",
            ),
            HealthState::Healthy,
        );
        assert!(inc.is_some());
        let (seen, raised) = e.stats();
        assert_eq!((seen, raised), (1, 1));
    }

    #[test]
    fn classification_table() {
        let cases = [
            (
                DetectionCapability::ControlFlowIntegrity,
                Severity::Critical,
                "x",
                IncidentKind::CodeInjection,
            ),
            (
                DetectionCapability::MemoryGuard,
                Severity::Alert,
                "probe",
                IncidentKind::MemoryProbe,
            ),
            (
                DetectionCapability::MemoryGuard,
                Severity::Critical,
                "write",
                IncidentKind::FirmwareTamper,
            ),
            (
                DetectionCapability::BusPolicing,
                Severity::Alert,
                "debug port active",
                IncidentKind::DebugIntrusion,
            ),
            (
                DetectionCapability::BusPolicing,
                Severity::Alert,
                "out-of-policy",
                IncidentKind::PolicyViolation,
            ),
            (
                DetectionCapability::NetworkRate,
                Severity::Alert,
                "flood",
                IncidentKind::NetworkFlood,
            ),
            (
                DetectionCapability::NetworkSignature,
                Severity::Critical,
                "outbound exfiltration",
                IncidentKind::Exfiltration,
            ),
            (
                DetectionCapability::NetworkSignature,
                Severity::Alert,
                "malformed",
                IncidentKind::ExploitTraffic,
            ),
            (
                DetectionCapability::SensorPlausibility,
                Severity::Alert,
                "drift",
                IncidentKind::SensorSpoof,
            ),
            (
                DetectionCapability::Environmental,
                Severity::Critical,
                "voltage",
                IncidentKind::FaultInjection,
            ),
            (
                DetectionCapability::SyscallSequence,
                Severity::Alert,
                "unseen",
                IncidentKind::BehaviourAnomaly,
            ),
            (
                DetectionCapability::WatchdogLiveness,
                Severity::Critical,
                "expired",
                IncidentKind::SystemHang,
            ),
            (
                DetectionCapability::BootMeasurement,
                Severity::Critical,
                "pcr",
                IncidentKind::FirmwareTamper,
            ),
        ];
        for (cap, sev, detail, expected) in cases {
            let mut e = engine();
            let inc = e
                .ingest(
                    SimTime::at_cycle(0),
                    &ev(0, cap, sev, detail),
                    HealthState::Healthy,
                )
                .unwrap();
            assert_eq!(inc.kind, expected, "{cap:?}/{detail}");
        }
    }

    #[test]
    fn sequence_rule_escalates_staged_intrusions() {
        let mut e = engine();
        // first incident: policy violation (Alert)
        let first = e
            .ingest(
                SimTime::at_cycle(1_000),
                &ev(
                    1_000,
                    DetectionCapability::BusPolicing,
                    Severity::Alert,
                    "out-of-policy",
                ),
                HealthState::Healthy,
            )
            .unwrap();
        assert!(!first.escalated, "first incident must not escalate");
        assert_eq!(first.severity, Severity::Alert);
        // different-kind incident inside the window: escalated to Critical
        let second = e
            .ingest(
                SimTime::at_cycle(50_000),
                &ev(
                    50_000,
                    DetectionCapability::NetworkSignature,
                    Severity::Alert,
                    "malformed",
                ),
                HealthState::Suspicious,
            )
            .unwrap();
        assert!(second.escalated);
        assert_eq!(second.severity, Severity::Critical);
        assert_eq!(e.escalations(), 1);
    }

    #[test]
    fn same_kind_repeat_does_not_escalate() {
        let mut e = engine();
        for i in 0..3u64 {
            let inc = e
                .ingest(
                    SimTime::at_cycle(i * 10_000),
                    &ev(
                        i * 10_000,
                        DetectionCapability::ControlFlowIntegrity,
                        Severity::Critical,
                        "edge",
                    ),
                    HealthState::Healthy,
                )
                .unwrap();
            assert!(!inc.escalated, "repeat of the same kind escalated at {i}");
        }
        assert_eq!(e.escalations(), 0);
    }

    #[test]
    fn escalation_window_expires() {
        let mut e = engine();
        let w = ESCALATION_WINDOW.as_cycles();
        e.ingest(
            SimTime::at_cycle(0),
            &ev(0, DetectionCapability::BusPolicing, Severity::Alert, "x"),
            HealthState::Healthy,
        )
        .unwrap();
        let late = e
            .ingest(
                SimTime::at_cycle(w + 1),
                &ev(
                    w + 1,
                    DetectionCapability::NetworkSignature,
                    Severity::Alert,
                    "y",
                ),
                HealthState::Healthy,
            )
            .unwrap();
        assert!(!late.escalated, "escalation fired outside the window");
    }

    #[test]
    fn disabled_engine_never_escalates() {
        let mut e = CorrelationEngine::new(CorrelationConfig { enabled: false });
        e.ingest(
            SimTime::at_cycle(0),
            &ev(0, DetectionCapability::BusPolicing, Severity::Warning, "x"),
            HealthState::Healthy,
        )
        .unwrap();
        let second = e
            .ingest(
                SimTime::at_cycle(100),
                &ev(
                    100,
                    DetectionCapability::NetworkRate,
                    Severity::Warning,
                    "y",
                ),
                HealthState::Healthy,
            )
            .unwrap();
        assert!(!second.escalated);
    }

    #[test]
    fn degraded_mode_widens_windows_and_lowers_threshold() {
        let mut e = engine();
        assert_eq!(e.effective_threshold(), 3);
        assert_eq!(e.effective_window(), WINDOW);
        assert_eq!(e.effective_escalation_window(), ESCALATION_WINDOW);
        e.set_degraded(true);
        assert!(e.is_degraded());
        assert_eq!(e.effective_threshold(), 2);
        assert_eq!(e.effective_window().as_cycles(), 800_000);
        assert_eq!(e.effective_escalation_window().as_cycles(), 1_000_000);
        e.set_degraded(false);
        assert_eq!(e.effective_threshold(), THRESHOLD);
    }

    #[test]
    fn degraded_mode_raises_on_fewer_warnings() {
        let mut e = engine();
        e.set_degraded(true);
        // Default threshold is 3; degraded lowers it to 2.
        assert!(e
            .ingest(
                SimTime::at_cycle(0),
                &ev(0, DetectionCapability::BusPolicing, Severity::Warning, "d"),
                HealthState::Degraded
            )
            .is_none());
        let inc = e.ingest(
            SimTime::at_cycle(0),
            &ev(10, DetectionCapability::BusPolicing, Severity::Warning, "d"),
            HealthState::Degraded,
        );
        assert!(inc.is_some(), "degraded threshold of 2 should have fired");
    }

    #[test]
    fn incident_ids_are_dense() {
        let mut e = engine();
        for i in 0..5 {
            let inc = e
                .ingest(
                    SimTime::at_cycle(0),
                    &ev(
                        i,
                        DetectionCapability::ControlFlowIntegrity,
                        Severity::Critical,
                        "x",
                    ),
                    HealthState::Healthy,
                )
                .unwrap();
            assert_eq!(inc.id, i);
        }
        assert_eq!(e.stats(), (5, 5));
    }
}
