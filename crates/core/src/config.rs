//! Platform profiles and configuration.

use crate::faultplane::FaultPlaneConfig;
use crate::telemetry::TelemetryConfig;
use cres_response::PolicyConfig;
use cres_sim::SimDuration;
use cres_ssm::{PlannerMode, SsmDeployment};
use cres_tee::TeeDeployment;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The three platform topologies the experiments compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlatformProfile {
    /// The paper's proposal: physically isolated SSM, full active monitor
    /// set, active response, hash-chained evidence.
    CyberResilient,
    /// The state of the art the paper critiques: secure boot + watchdog +
    /// reboot-on-fault, logs in attacker-reachable memory, no runtime
    /// monitors.
    PassiveTrust,
    /// CyberResilient's monitor set but with the security manager and TEE
    /// sharing physical resources with the GPP (§IV's vulnerable shape).
    TeeShared,
}

impl PlatformProfile {
    /// All profiles.
    pub const ALL: [PlatformProfile; 3] = [
        PlatformProfile::CyberResilient,
        PlatformProfile::PassiveTrust,
        PlatformProfile::TeeShared,
    ];
}

impl fmt::Display for PlatformProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Reboot latency.
pub const REBOOT_DURATION: SimDuration = SimDuration::cycles(50_000);
/// Quiet window after countermeasures before declaring recovery.
pub const RECOVERY_WINDOW: SimDuration = SimDuration::cycles(100_000);
/// Watchdog timeout.
pub const WATCHDOG_TIMEOUT: SimDuration = SimDuration::cycles(500_000);

/// Full platform configuration.
#[derive(Debug, Clone, Copy)]
pub struct PlatformConfig {
    /// Topology profile.
    pub profile: PlatformProfile,
    /// Master seed for all determinism (keys, noise, workloads).
    pub seed: u64,
    /// Monitor sampling period in cycles.
    pub monitor_period: SimDuration,
    /// RSA modulus size for vendor/boot keys (small for test speed).
    pub rsa_bits: usize,
    /// Enable evidence recording (ablation A2).
    pub evidence_enabled: bool,
    /// Enable the correlation engine (ablation A1).
    pub correlation_enabled: bool,
    /// Whether attack injectors can reach the firmware slot store (models
    /// an attacker with update-channel access).
    pub expose_slots_to_attacker: bool,
    /// Overrides the profile-implied planner mode (E4 isolates the
    /// response variable by running full monitors with a passive planner).
    pub planner_override: Option<PlannerMode>,
    /// Pipeline telemetry layer (trace ring + metrics registry); disable
    /// for the zero-instrumentation baseline E8 compares against.
    pub telemetry: TelemetryConfig,
    /// Fault injection into the security pipeline itself (E11); default
    /// `None`, a platform without a fault plane.
    pub faultplane: Option<FaultPlaneConfig>,
    /// The stateful response policy engine (circuit breakers, graded
    /// degradation tiers, availability accounting — E14); default off,
    /// which is bit-identical to a platform without a policy engine.
    pub policy: PolicyConfig,
}

impl PlatformConfig {
    /// Sensible defaults for a profile.
    pub fn new(profile: PlatformProfile, seed: u64) -> Self {
        PlatformConfig {
            profile,
            seed,
            monitor_period: SimDuration::cycles(5_000),
            rsa_bits: 512,
            // the passive baseline has no SSM, hence no evidence store —
            // its only audit trail is the wipeable console log
            evidence_enabled: profile != PlatformProfile::PassiveTrust,
            correlation_enabled: true,
            expose_slots_to_attacker: false,
            planner_override: None,
            telemetry: TelemetryConfig::default(),
            faultplane: None,
            policy: PolicyConfig::default(),
        }
    }

    /// The SSM deployment implied by the profile.
    pub fn ssm_deployment(&self) -> SsmDeployment {
        match self.profile {
            PlatformProfile::CyberResilient => SsmDeployment::IsolatedCore,
            PlatformProfile::PassiveTrust => SsmDeployment::SharedWithGpp,
            PlatformProfile::TeeShared => SsmDeployment::SharedWithGpp,
        }
    }

    /// The TEE deployment implied by the profile.
    pub fn tee_deployment(&self) -> TeeDeployment {
        match self.profile {
            PlatformProfile::CyberResilient => TeeDeployment::IsolatedCoprocessor,
            PlatformProfile::PassiveTrust | PlatformProfile::TeeShared => {
                TeeDeployment::SharedResources
            }
        }
    }

    /// The response planner mode implied by the profile (or overridden).
    pub fn planner_mode(&self) -> PlannerMode {
        if let Some(mode) = self.planner_override {
            return mode;
        }
        match self.profile {
            PlatformProfile::PassiveTrust => PlannerMode::PassiveRebootOnly,
            _ => PlannerMode::Active,
        }
    }

    /// Whether the profile deploys the active monitor set (the baseline has
    /// only the watchdog).
    pub fn active_monitors(&self) -> bool {
        self.profile != PlatformProfile::PassiveTrust
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_imply_topologies() {
        let cres = PlatformConfig::new(PlatformProfile::CyberResilient, 0);
        assert_eq!(cres.ssm_deployment(), SsmDeployment::IsolatedCore);
        assert_eq!(cres.tee_deployment(), TeeDeployment::IsolatedCoprocessor);
        assert_eq!(cres.planner_mode(), PlannerMode::Active);
        assert!(cres.active_monitors());

        let passive = PlatformConfig::new(PlatformProfile::PassiveTrust, 0);
        assert_eq!(passive.planner_mode(), PlannerMode::PassiveRebootOnly);
        assert!(!passive.active_monitors());

        let shared = PlatformConfig::new(PlatformProfile::TeeShared, 0);
        assert_eq!(shared.ssm_deployment(), SsmDeployment::SharedWithGpp);
        assert_eq!(shared.tee_deployment(), TeeDeployment::SharedResources);
        assert!(shared.active_monitors());
    }

    #[test]
    fn profile_display() {
        assert_eq!(
            PlatformProfile::CyberResilient.to_string(),
            "CyberResilient"
        );
        assert_eq!(PlatformProfile::ALL.len(), 3);
    }
}
