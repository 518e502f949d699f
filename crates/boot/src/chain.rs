//! The multi-stage chain of trust.
//!
//! `ROM → bootloader → app` — each stage's image is verified by the ROM
//! policy and measured into the PCR bank *before* control would transfer to
//! it. The chain stops at the first failure: exactly the "series of nested
//! assumptions, as vulnerable as its weakest link" the paper describes.

use crate::image::FirmwareImage;
use crate::pcr::{index, PcrBank};
use crate::rom::{BootRom, VerifyError};
use crate::MemArbCounters;
use cres_crypto::rsa::RsaPublicKey;

/// Result of verifying one stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageResult {
    /// Stage name from the image header.
    pub stage: String,
    /// Image version.
    pub version: u32,
    /// Security version.
    pub security_version: u64,
    /// `Ok` or the verification error.
    pub result: Result<(), VerifyError>,
}

/// Overall boot outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BootOutcome {
    /// Every stage verified; the system is up.
    Booted,
    /// Verification failed at stage `index` of the chain.
    FailedAt(usize),
}

/// Full report of one boot attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BootReport {
    /// Per-stage results in chain order.
    pub stages: Vec<StageResult>,
    /// Overall outcome.
    pub outcome: BootOutcome,
    /// Final PCR snapshot.
    pub pcrs: [[u8; 32]; crate::pcr::PCR_COUNT],
}

impl BootReport {
    /// True when the boot completed.
    pub fn booted(&self) -> bool {
        self.outcome == BootOutcome::Booted
    }
}

/// The boot chain: a ROM plus the vendor verification key.
#[derive(Debug, Clone)]
pub struct BootChain {
    rom: BootRom,
    key: RsaPublicKey,
    rom_measurement: [u8; 32],
}

impl BootChain {
    /// Creates a chain. `rom_measurement` is the ROM's own self-measurement
    /// extended into PCR0 first.
    pub fn new(rom: BootRom, key: RsaPublicKey, rom_measurement: [u8; 32]) -> Self {
        BootChain {
            rom,
            key,
            rom_measurement,
        }
    }

    /// Immutable access to the ROM (for policy inspection).
    pub fn rom(&self) -> &BootRom {
        &self.rom
    }

    /// Attempts to boot through `images` in chain order (bootloader first).
    /// Measures each *verified* stage into the PCR bank; a failed stage is
    /// not measured and aborts the chain.
    pub fn boot(&self, images: &[&FirmwareImage], arb: &mut MemArbCounters) -> BootReport {
        let mut pcrs = PcrBank::new();
        pcrs.extend(index::ROM, &self.rom_measurement);
        let mut stages = Vec::with_capacity(images.len());
        let mut outcome = BootOutcome::Booted;
        for (i, image) in images.iter().enumerate() {
            let result = self.rom.verify_stage(image, &self.key, arb);
            let ok = result.is_ok();
            stages.push(StageResult {
                stage: image.header.stage.clone(),
                version: image.header.version,
                security_version: image.header.security_version,
                result,
            });
            if ok {
                let pcr_idx = match image.header.stage.as_str() {
                    "bootloader" => index::BOOTLOADER,
                    "app" => index::APP,
                    _ => index::CONFIG,
                };
                pcrs.extend(pcr_idx, &image.measurement());
            } else {
                outcome = BootOutcome::FailedAt(i);
                break;
            }
        }
        BootReport {
            stages,
            outcome,
            pcrs: pcrs.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageSigner;
    use crate::rom::BootPolicy;
    use cres_crypto::drbg::HmacDrbg;
    use cres_crypto::rsa::{generate_keypair, RsaKeypair};

    fn keypair() -> RsaKeypair {
        let mut drbg = HmacDrbg::new(b"chain-test", b"");
        generate_keypair(512, &mut drbg).unwrap()
    }

    fn chain(kp: &RsaKeypair, policy: BootPolicy) -> BootChain {
        BootChain::new(
            BootRom::new(kp.public.fingerprint(), policy),
            kp.public.clone(),
            [0xAA; 32],
        )
    }

    #[test]
    fn full_chain_boots_and_measures() {
        let kp = keypair();
        let signer = ImageSigner::new(&kp);
        let bl = signer.sign("bootloader", 1, 1, b"bl code");
        let app = signer.sign("app", 1, 1, b"app code");
        let mut arb = MemArbCounters::new();
        let report = chain(&kp, BootPolicy::default()).boot(&[&bl, &app], &mut arb);
        assert!(report.booted());
        assert_eq!(report.stages.len(), 2);
        assert_ne!(report.pcrs[index::ROM], [0u8; 32]);
        assert_ne!(report.pcrs[index::BOOTLOADER], [0u8; 32]);
        assert_ne!(report.pcrs[index::APP], [0u8; 32]);
    }

    #[test]
    fn failure_aborts_chain_and_skips_measurement() {
        let kp = keypair();
        let attacker = {
            let mut d = HmacDrbg::new(b"evil", b"");
            generate_keypair(512, &mut d).unwrap()
        };
        let bl = ImageSigner::new(&kp).sign("bootloader", 1, 1, b"bl");
        let evil_app = ImageSigner::new(&attacker).sign("app", 9, 9, b"evil");
        let mut arb = MemArbCounters::new();
        let report = chain(&kp, BootPolicy::default()).boot(&[&bl, &evil_app], &mut arb);
        assert_eq!(report.outcome, BootOutcome::FailedAt(1));
        assert!(report.stages[0].result.is_ok());
        assert!(report.stages[1].result.is_err());
        // app PCR untouched
        assert_eq!(report.pcrs[index::APP], [0u8; 32]);
        // bootloader PCR extended
        assert_ne!(report.pcrs[index::BOOTLOADER], [0u8; 32]);
    }

    #[test]
    fn pcrs_commit_to_exact_boot_path() {
        let kp = keypair();
        let signer = ImageSigner::new(&kp);
        let mut arb1 = MemArbCounters::new();
        let mut arb2 = MemArbCounters::new();
        let c = chain(&kp, BootPolicy::signature_only());
        let app1 = signer.sign("app", 1, 1, b"v1");
        let app2 = signer.sign("app", 2, 1, b"v2");
        let r1 = c.boot(&[&app1], &mut arb1);
        let r2 = c.boot(&[&app2], &mut arb2);
        assert_ne!(r1.pcrs[index::APP], r2.pcrs[index::APP]);
        // same image → same PCRs (reproducible measured boot)
        let mut arb3 = MemArbCounters::new();
        let r3 = c.boot(&[&app1], &mut arb3);
        assert_eq!(r1.pcrs, r3.pcrs);
    }

    #[test]
    fn downgrade_across_boots_detected() {
        let kp = keypair();
        let signer = ImageSigner::new(&kp);
        let c = chain(&kp, BootPolicy::default());
        let mut arb = MemArbCounters::new();
        let v2 = signer.sign("app", 2, 2, b"v2");
        assert!(c.boot(&[&v2], &mut arb).booted());
        let v1 = signer.sign("app", 1, 1, b"v1");
        let report = c.boot(&[&v1], &mut arb);
        assert_eq!(report.outcome, BootOutcome::FailedAt(0));
        assert!(matches!(
            report.stages[0].result,
            Err(VerifyError::Rollback { .. })
        ));
    }
}
