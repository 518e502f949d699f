//! The canonical name → injector catalog.
//!
//! Everything that schedules attacks by name — the campaign engine, the
//! scenario DSL and the generative fuzzer — resolves through this one
//! table, so "which attacks exist" has a single enumerable answer instead
//! of being scattered across experiment binaries.
//!
//! Names come in two shapes:
//!
//! * **base names** ([`NAMES`]) — one per [`AttackKind`] variant, equal to
//!   [`AttackKind::name`] (e.g. `"network-flood"`);
//! * **variants** ([`VARIANTS`]) — a base name plus a `:suffix` selecting a
//!   different *inject point* for the same attack class (e.g.
//!   `"memory-probe:tee"` scans only the TEE window, `"dma-exfil:periph"`
//!   stages the stolen secret into the peripheral egress window).
//!
//! Resolution is fallible: [`try_build`] returns [`UnknownAttack`] carrying
//! the offending name rather than panicking, so a bad scenario file is a
//! diagnosable error instead of a worker-thread abort.

use crate::inject::{AttackInjector, AttackKind};
use crate::library::{
    CodeInjectionAttack, DebugPortAttack, DmaExfilAttack, DowngradeAttack, ExfilAttack,
    FaultInjectionAttack, FirmwareTamperAttack, LogWipeAttack, MalformedTrafficAttack,
    MemoryProbeAttack, NetworkFloodAttack, SensorSpoofAttack, SyscallAnomalyAttack,
    SystemHangAttack,
};
use cres_soc::addr::MasterId;
use cres_soc::periph::{EnvTamper, SensorSpoof};
use cres_soc::soc::layout;
use cres_soc::task::{BlockId, Syscall, TaskId};
use std::fmt;

/// A scenario referenced an attack name the catalog does not know.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownAttack {
    /// The unresolvable name, verbatim.
    pub name: String,
}

impl fmt::Display for UnknownAttack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown attack {:?}", self.name)
    }
}

impl std::error::Error for UnknownAttack {}

/// Canonical base name for every [`AttackKind`] variant, in
/// [`AttackKind::ALL`] order.
pub const NAMES: [&str; AttackKind::ALL.len()] = {
    let mut names = [""; AttackKind::ALL.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = AttackKind::ALL[i].name();
        i += 1;
    }
    names
};

/// Inject-point variants: alternative parameterisations of a base attack.
pub const VARIANTS: [&str; 8] = [
    "code-injection:telemetry",
    "memory-probe:tee",
    "memory-probe:ssm",
    "dma-exfil:periph",
    "network-flood:burst",
    "exfiltration:trickle",
    "sensor-spoof:jitter",
    "fault-injection:clock",
];

/// The attack kind a catalog name (base or variant) resolves to, without
/// constructing the injector.
pub fn kind_of(name: &str) -> Option<AttackKind> {
    let base = name.split_once(':').map_or(name, |(base, _)| base);
    AttackKind::ALL
        .into_iter()
        .find(|kind| kind.name() == base)
        // a recognised base does not make the variant suffix valid
        .filter(|_| is_known(name))
}

/// Whether `name` resolves in the catalog.
pub fn is_known(name: &str) -> bool {
    NAMES.contains(&name) || VARIANTS.contains(&name)
}

/// Builds a fresh injector for a catalog name.
///
/// Returns [`UnknownAttack`] (carrying the name) for anything the catalog
/// does not list — callers surface this as a structured scenario error.
pub fn try_build(name: &str) -> Result<Box<dyn AttackInjector>, UnknownAttack> {
    Ok(match name {
        // hijacking to bb0 repeatedly guarantees at least one illegal
        // self-edge for the CFI monitor
        "code-injection" => Box::new(CodeInjectionAttack::new(TaskId(1), BlockId(0), 3)),
        "code-injection:telemetry" => Box::new(CodeInjectionAttack::new(TaskId(2), BlockId(0), 3)),
        "memory-probe" => Box::new(MemoryProbeAttack::new(
            MasterId::CPU1,
            vec![
                layout::SSM_PRIVATE.0,
                layout::TEE_SECURE.0,
                layout::SSM_PRIVATE.0.offset(0x100),
                layout::TEE_SECURE.0.offset(0x100),
            ],
        )),
        "memory-probe:tee" => Box::new(MemoryProbeAttack::new(
            MasterId::CPU1,
            vec![
                layout::TEE_SECURE.0,
                layout::TEE_SECURE.0.offset(0x80),
                layout::TEE_SECURE.0.offset(0x100),
            ],
        )),
        "memory-probe:ssm" => Box::new(MemoryProbeAttack::new(
            MasterId::CPU1,
            vec![
                layout::SSM_PRIVATE.0,
                layout::SSM_PRIVATE.0.offset(0x80),
                layout::SSM_PRIVATE.0.offset(0x100),
            ],
        )),
        "firmware-tamper" => Box::new(FirmwareTamperAttack::new(
            MasterId::CPU0,
            layout::FLASH_A.0.offset(0x800),
        )),
        // a stale-but-plausible image; the anti-rollback check, not the
        // payload, is what decides the outcome
        "firmware-downgrade" => Box::new(DowngradeAttack::new(vec![0x0D; 192])),
        "dma-exfil" => Box::new(DmaExfilAttack::new(
            layout::TEE_SECURE.0,
            layout::SRAM.0.offset(0x3000),
            64,
        )),
        "dma-exfil:periph" => Box::new(DmaExfilAttack::new(
            layout::TEE_SECURE.0,
            layout::PERIPH.0.offset(0x800),
            64,
        )),
        "debug-port" => Box::new(DebugPortAttack::new(vec![
            layout::SRAM.0,
            layout::TEE_SECURE.0,
            layout::SSM_PRIVATE.0,
        ])),
        "network-flood" => Box::new(NetworkFloodAttack::new(300, 8)),
        "network-flood:burst" => Box::new(NetworkFloodAttack::new(900, 3)),
        "exploit-traffic" => Box::new(MalformedTrafficAttack::new(5, 4)),
        "exfiltration" => Box::new(ExfilAttack::new(4_096, 6)),
        "exfiltration:trickle" => Box::new(ExfilAttack::new(512, 12)),
        "sensor-spoof" => Box::new(SensorSpoofAttack::new(0, SensorSpoof::Fixed(61.5))),
        "sensor-spoof:jitter" => Box::new(SensorSpoofAttack::new(0, SensorSpoof::Jitter(25.0))),
        "fault-injection" => Box::new(FaultInjectionAttack::new(EnvTamper::VoltageGlitch(1.1))),
        "fault-injection:clock" => Box::new(FaultInjectionAttack::new(EnvTamper::ClockSkew(250.0))),
        "log-wipe" => Box::new(LogWipeAttack::new(MasterId::CPU0)),
        "syscall-anomaly" => Box::new(SyscallAnomalyAttack::new(
            TaskId(1),
            vec![Syscall::PrivEscalate, Syscall::FirmwareWrite],
            3,
        )),
        "system-hang" => Box::new(SystemHangAttack::new()),
        other => {
            return Err(UnknownAttack {
                name: other.to_string(),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_has_a_constructible_base_name() {
        for kind in AttackKind::ALL {
            let name = kind.name();
            assert!(NAMES.contains(&name), "{name} missing from NAMES");
            let injector = try_build(name).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(injector.kind(), kind, "{name} builds the wrong kind");
            assert!(injector.steps() > 0);
        }
        assert_eq!(NAMES.len(), AttackKind::ALL.len());
    }

    #[test]
    fn variants_build_and_share_the_base_kind() {
        for variant in VARIANTS {
            let injector = try_build(variant).unwrap_or_else(|e| panic!("{e}"));
            let (base, _) = variant.split_once(':').expect("variants carry a suffix");
            assert_eq!(injector.kind().name(), base, "{variant}");
            assert_eq!(kind_of(variant), Some(injector.kind()), "{variant}");
        }
    }

    #[test]
    fn unknown_names_error_with_the_offending_name() {
        for bogus in ["", "meltdown", "network-flood:nope", "NETWORK-FLOOD"] {
            let err = match try_build(bogus) {
                Ok(_) => panic!("{bogus:?} must not resolve"),
                Err(e) => e,
            };
            assert_eq!(err.name, bogus);
            assert!(err.to_string().contains(bogus) || bogus.is_empty());
            assert!(!is_known(bogus));
            assert_eq!(kind_of(bogus), None);
        }
    }

    #[test]
    fn names_are_unique_across_bases_and_variants() {
        let mut seen = std::collections::HashSet::new();
        for name in NAMES.iter().chain(VARIANTS.iter()) {
            assert!(seen.insert(*name), "{name} listed twice");
        }
    }
}
