//! The attack injector trait and supporting types.

use cres_boot::SlotStore;
use cres_policy::DetectionCapability;
use cres_sim::SimTime;
use cres_soc::task::{Syscall, TaskId};
use cres_soc::Soc;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Attack taxonomy (aligned with the incident vocabulary the SSM
/// classifies into).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttackKind {
    /// Control-flow hijack.
    CodeInjection,
    /// Protected-memory scanning.
    MemoryProbe,
    /// Firmware modification.
    FirmwareTamper,
    /// Firmware downgrade (replay of old signed image).
    Downgrade,
    /// DMA-based data theft.
    DmaExfil,
    /// Debug-port intrusion.
    DebugIntrusion,
    /// Network flood DoS.
    NetworkFlood,
    /// Exploit-signature traffic.
    ExploitTraffic,
    /// Bulk exfiltration.
    Exfiltration,
    /// Sensor false-data injection.
    SensorSpoof,
    /// Physical fault injection.
    FaultInjection,
    /// Anti-forensic log destruction.
    LogWipe,
    /// Behavioural (syscall) anomaly.
    SyscallAnomaly,
    /// Firmware crash / lockup (watchdog-class).
    SystemHang,
}

impl AttackKind {
    /// Every variant, for exhaustive sweeps and coverage tests. Keep in
    /// declaration order; the compiler cannot enforce completeness here, so
    /// `tests` below pins the count.
    pub const ALL: [AttackKind; 14] = [
        AttackKind::CodeInjection,
        AttackKind::MemoryProbe,
        AttackKind::FirmwareTamper,
        AttackKind::Downgrade,
        AttackKind::DmaExfil,
        AttackKind::DebugIntrusion,
        AttackKind::NetworkFlood,
        AttackKind::ExploitTraffic,
        AttackKind::Exfiltration,
        AttackKind::SensorSpoof,
        AttackKind::FaultInjection,
        AttackKind::LogWipe,
        AttackKind::SyscallAnomaly,
        AttackKind::SystemHang,
    ];

    /// The canonical catalog base name (e.g. `"network-flood"`), which
    /// reports carry as the attack's name.
    pub const fn name(self) -> &'static str {
        match self {
            AttackKind::CodeInjection => "code-injection",
            AttackKind::MemoryProbe => "memory-probe",
            AttackKind::FirmwareTamper => "firmware-tamper",
            AttackKind::Downgrade => "firmware-downgrade",
            AttackKind::DmaExfil => "dma-exfil",
            AttackKind::DebugIntrusion => "debug-port",
            AttackKind::NetworkFlood => "network-flood",
            AttackKind::ExploitTraffic => "exploit-traffic",
            AttackKind::Exfiltration => "exfiltration",
            AttackKind::SensorSpoof => "sensor-spoof",
            AttackKind::FaultInjection => "fault-injection",
            AttackKind::LogWipe => "log-wipe",
            AttackKind::SyscallAnomaly => "syscall-anomaly",
            AttackKind::SystemHang => "system-hang",
        }
    }

    /// Detection capabilities that *should* observe this kind of attack
    /// (ground truth for scoring detection coverage).
    pub const fn detectable_by(self) -> &'static [DetectionCapability] {
        use DetectionCapability as D;
        match self {
            AttackKind::CodeInjection => &[D::ControlFlowIntegrity],
            AttackKind::MemoryProbe => &[D::MemoryGuard, D::BusPolicing],
            AttackKind::FirmwareTamper => &[D::MemoryGuard, D::BootMeasurement],
            AttackKind::Downgrade => &[D::BootMeasurement],
            AttackKind::DmaExfil => &[D::BusPolicing, D::MemoryGuard, D::NetworkSignature],
            AttackKind::DebugIntrusion => &[D::BusPolicing],
            AttackKind::NetworkFlood => &[D::NetworkRate],
            AttackKind::ExploitTraffic => &[D::NetworkSignature],
            AttackKind::Exfiltration => &[D::NetworkSignature],
            AttackKind::SensorSpoof => &[D::SensorPlausibility],
            AttackKind::FaultInjection => &[D::Environmental],
            AttackKind::LogWipe => &[D::MemoryGuard],
            AttackKind::SyscallAnomaly => &[D::SyscallSequence],
            AttackKind::SystemHang => &[D::WatchdogLiveness],
        }
    }
}

impl fmt::Display for AttackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Side effects an injector asks the platform to route (used where the
/// effect flows through a channel the injector cannot reach directly, such
/// as the syscall monitor's report path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackEffect {
    /// The compromised task "issued" these syscalls this step.
    SyscallsEmitted(TaskId, Vec<Syscall>),
}

/// The result of one injection step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackStepResult {
    /// Whether the step achieved its goal (e.g. a probe read succeeded).
    pub achieved: bool,
    /// Effects for the platform to route.
    pub effects: Vec<AttackEffect>,
}

/// Mutable handles an injector may act through. `slots` is present only on
/// platforms that expose the firmware store to the attacker's vantage
/// point.
pub struct AttackTargets<'a> {
    /// The SoC under attack.
    pub soc: &'a mut Soc,
    /// Firmware slot store, when reachable.
    pub slots: Option<&'a mut SlotStore>,
}

/// An attack injector: a multi-step adversary procedure. The platform
/// records when each step ran and whether it achieved its goal; the kind
/// carries the name and detection labels.
pub trait AttackInjector {
    /// Taxonomy class.
    fn kind(&self) -> AttackKind;

    /// Number of steps in the attack procedure.
    fn steps(&self) -> u32;

    /// Executes step `step` (0-based) at `now`.
    fn inject_step(
        &mut self,
        step: u32,
        now: SimTime,
        targets: &mut AttackTargets<'_>,
    ) -> AttackStepResult;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_display() {
        assert_eq!(AttackKind::CodeInjection.to_string(), "CodeInjection");
        assert_eq!(AttackKind::LogWipe.to_string(), "LogWipe");
    }

    #[test]
    fn all_lists_every_variant_once() {
        let mut seen = std::collections::HashSet::new();
        for kind in AttackKind::ALL {
            assert!(seen.insert(kind), "{kind:?} listed twice in ALL");
        }
        // exhaustiveness canary: extending the enum must extend ALL too
        let count = |kind: AttackKind| match kind {
            AttackKind::CodeInjection
            | AttackKind::MemoryProbe
            | AttackKind::FirmwareTamper
            | AttackKind::Downgrade
            | AttackKind::DmaExfil
            | AttackKind::DebugIntrusion
            | AttackKind::NetworkFlood
            | AttackKind::ExploitTraffic
            | AttackKind::Exfiltration
            | AttackKind::SensorSpoof
            | AttackKind::FaultInjection
            | AttackKind::LogWipe
            | AttackKind::SyscallAnomaly
            | AttackKind::SystemHang => 1,
        };
        assert_eq!(AttackKind::ALL.iter().map(|&k| count(k)).sum::<i32>(), 14);
    }
}
