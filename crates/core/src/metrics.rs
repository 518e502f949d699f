//! Run reports: the measurements every experiment consumes.

use crate::config::PlatformProfile;
use crate::faultplane::FaultPlaneStats;
use crate::telemetry::TelemetrySnapshot;
use cres_attacks::AttackKind;
use cres_response::AvailabilityReport;
use cres_sim::SimTime;
use cres_ssm::{HealthState, IncidentKind};
use serde::Serialize;

/// Per-attack scoring against ground truth.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AttackOutcomeReport {
    /// Attack name ([`AttackKind::name`]).
    pub name: String,
    /// Attack class.
    pub kind: AttackKind,
    /// When the first step executed.
    pub first_injection: Option<SimTime>,
    /// When the first matching incident was classified.
    pub detected_at: Option<SimTime>,
    /// Detection latency in cycles (`detected_at - first_injection`).
    pub detection_latency: Option<u64>,
    /// Matching incidents classified.
    pub matching_incidents: u32,
    /// Attack steps that achieved their goal (attacker wins).
    pub steps_achieved: u32,
    /// Total steps executed.
    pub steps_executed: u32,
}

impl AttackOutcomeReport {
    /// True when the platform classified a matching incident.
    pub fn detected(&self) -> bool {
        self.detected_at.is_some()
    }
}

/// Which incident kinds count as "detecting" an attack kind.
pub fn matching_incident_kinds(attack: AttackKind) -> &'static [IncidentKind] {
    match attack {
        AttackKind::CodeInjection => &[IncidentKind::CodeInjection],
        AttackKind::MemoryProbe => &[IncidentKind::MemoryProbe, IncidentKind::PolicyViolation],
        AttackKind::FirmwareTamper => {
            &[IncidentKind::FirmwareTamper, IncidentKind::PolicyViolation]
        }
        AttackKind::Downgrade => &[IncidentKind::FirmwareTamper],
        AttackKind::DmaExfil => &[
            IncidentKind::PolicyViolation,
            IncidentKind::MemoryProbe,
            IncidentKind::Exfiltration,
        ],
        AttackKind::DebugIntrusion => &[IncidentKind::DebugIntrusion],
        AttackKind::NetworkFlood => &[IncidentKind::NetworkFlood],
        AttackKind::ExploitTraffic => &[IncidentKind::ExploitTraffic],
        AttackKind::Exfiltration => &[IncidentKind::Exfiltration],
        AttackKind::SensorSpoof => &[IncidentKind::SensorSpoof],
        AttackKind::FaultInjection => &[IncidentKind::FaultInjection],
        AttackKind::LogWipe => &[IncidentKind::PolicyViolation, IncidentKind::MemoryProbe],
        AttackKind::SyscallAnomaly => &[IncidentKind::BehaviourAnomaly],
        AttackKind::SystemHang => &[IncidentKind::SystemHang],
    }
}

/// The full report of one scenario run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunReport {
    /// Profile the run used.
    pub profile: PlatformProfile,
    /// Seed the run used.
    pub seed: u64,
    /// Simulated duration in cycles.
    pub duration_cycles: u64,
    /// Whether initial boot verified.
    pub boot_ok: bool,
    /// Per-attack scoring.
    pub attacks: Vec<AttackOutcomeReport>,
    /// Total monitor events ingested by the SSM.
    pub total_events: u64,
    /// Total incidents classified.
    pub total_incidents: u64,
    /// Service availability (healthy+degraded time fraction).
    pub availability: f64,
    /// Final health state.
    pub final_health: HealthState,
    /// Steps completed by critical tasks (service-delivery volume).
    pub critical_steps: u64,
    /// Evidence records at end of run.
    pub evidence_len: usize,
    /// Whether the evidence chain verified at end of run.
    pub evidence_chain_ok: bool,
    /// Merkle audit seals taken during the run.
    pub evidence_seals: usize,
    /// Fraction of ground-truth injection instants evidenced (E6).
    pub evidence_coverage: f64,
    /// Console (UART) log lines surviving at end of run.
    pub console_lines: usize,
    /// Monitor sampling overhead in cycles (E8).
    pub monitor_overhead_cycles: u64,
    /// Reboots incurred.
    pub reboots: u32,
    /// Attacker win count (steps that achieved their goal).
    pub attacker_wins: u32,
    /// End-of-run telemetry (trace/metrics) snapshot; `None` when the
    /// telemetry layer was disabled for the run.
    pub telemetry: Option<TelemetrySnapshot>,
    /// Fault-plane injection/recovery counters; `None` when the fault
    /// plane was disabled for the run. Independent of `telemetry`, so
    /// fault accounting survives a telemetry-off run.
    pub faultplane: Option<FaultPlaneStats>,
    /// Per-criticality-class service availability and policy-engine
    /// accounting (tiers, breakers); `None` when the response policy
    /// engine was disabled for the run.
    pub availability_detail: Option<AvailabilityReport>,
}

impl RunReport {
    /// Fraction of attacks detected.
    pub fn detection_rate(&self) -> f64 {
        if self.attacks.is_empty() {
            return 1.0;
        }
        self.attacks.iter().filter(|a| a.detected()).count() as f64 / self.attacks.len() as f64
    }

    /// Mean detection latency over detected attacks (cycles).
    pub fn mean_detection_latency(&self) -> Option<f64> {
        let latencies: Vec<u64> = self
            .attacks
            .iter()
            .filter_map(|a| a.detection_latency)
            .collect();
        if latencies.is_empty() {
            None
        } else {
            Some(latencies.iter().sum::<u64>() as f64 / latencies.len() as f64)
        }
    }

    /// One-line summary for experiment tables.
    pub fn summary_row(&self) -> String {
        format!(
            "{:<16} det {:>4.0}% lat {:>9} avail {:>6.2}% evid {:>5} chain {} wins {:>3} reboots {}",
            self.profile.to_string(),
            self.detection_rate() * 100.0,
            self.mean_detection_latency()
                .map_or("-".to_string(), |l| format!("{l:.0}cy")),
            self.availability * 100.0,
            self.evidence_len,
            if self.evidence_chain_ok { "ok " } else { "BAD" },
            self.attacker_wins,
            self.reboots,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(detected: Option<u64>) -> AttackOutcomeReport {
        AttackOutcomeReport {
            name: "x".into(),
            kind: AttackKind::NetworkFlood,
            first_injection: Some(SimTime::at_cycle(100)),
            detected_at: detected.map(SimTime::at_cycle),
            detection_latency: detected.map(|d| d - 100),
            matching_incidents: u32::from(detected.is_some()),
            steps_achieved: 1,
            steps_executed: 1,
        }
    }

    fn report(attacks: Vec<AttackOutcomeReport>) -> RunReport {
        RunReport {
            profile: PlatformProfile::CyberResilient,
            seed: 0,
            duration_cycles: 1000,
            boot_ok: true,
            attacks,
            total_events: 0,
            total_incidents: 0,
            availability: 1.0,
            final_health: HealthState::Healthy,
            critical_steps: 0,
            evidence_len: 0,
            evidence_chain_ok: true,
            evidence_seals: 0,
            evidence_coverage: 1.0,
            console_lines: 0,
            monitor_overhead_cycles: 0,
            reboots: 0,
            attacker_wins: 0,
            telemetry: None,
            faultplane: None,
            availability_detail: None,
        }
    }

    #[test]
    fn detection_rate_and_latency() {
        let r = report(vec![outcome(Some(150)), outcome(None), outcome(Some(300))]);
        assert!((r.detection_rate() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(r.mean_detection_latency(), Some(125.0));
    }

    #[test]
    fn empty_attacks_is_full_detection() {
        let r = report(vec![]);
        assert_eq!(r.detection_rate(), 1.0);
        assert_eq!(r.mean_detection_latency(), None);
    }

    #[test]
    fn every_attack_kind_has_matching_incidents() {
        for kind in AttackKind::ALL {
            assert!(!matching_incident_kinds(kind).is_empty(), "{kind:?}");
        }
    }

    #[test]
    fn report_serializes_and_round_trips() {
        let r = report(vec![outcome(Some(150)), outcome(None)]);
        let json = r.to_json();
        assert!(json.contains("\"profile\":\"CyberResilient\""));
    }

    #[test]
    fn summary_row_is_informative() {
        let row = report(vec![outcome(Some(150))]).summary_row();
        assert!(row.contains("CyberResilient"));
        assert!(row.contains("100%"));
    }
}
