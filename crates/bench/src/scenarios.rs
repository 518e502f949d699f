//! The standard attack gauntlet shared by E3/E4/E6 and the examples.
//!
//! Construction goes through [`cres_attacks::catalog::try_build`], the
//! single name → injector table; this module only names the standard
//! runtime subset.

/// Names of the standard runtime attack gauntlet (downgrade is boot-time
/// and lives in E10).
pub const GAUNTLET: [&str; 11] = [
    "code-injection",
    "memory-probe",
    "firmware-tamper",
    "dma-exfil",
    "debug-port",
    "network-flood",
    "exploit-traffic",
    "exfiltration",
    "sensor-spoof",
    "fault-injection",
    "log-wipe",
];

#[cfg(test)]
mod tests {
    use super::*;
    use cres_attacks::catalog;

    #[test]
    fn every_gauntlet_entry_builds() {
        for name in GAUNTLET {
            let injector = catalog::try_build(name).expect("catalog attack");
            assert_eq!(injector.kind().name(), name);
            assert!(injector.steps() > 0);
        }
        assert!(GAUNTLET.iter().all(|n| catalog::is_known(n)));
    }
}
