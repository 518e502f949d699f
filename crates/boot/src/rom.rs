//! The immutable boot ROM: first-stage verification policy.
//!
//! The ROM is the root of the chain of trust. Its verification policy is
//! deliberately configurable because experiment E10 compares three
//! hardenings of the same chain: signature-only (the vulnerable commercial
//! baseline of §IV), signature + anti-rollback, and signature +
//! anti-rollback + key revocation.

use crate::image::{FirmwareImage, ImageError};
use crate::MemArbCounters;
use cres_crypto::rsa::RsaPublicKey;
use std::fmt;

/// Verification policy flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootPolicy {
    /// Anti-rollback: enforce `security_version >=` the OTP counter, and
    /// after a successful verify advance the counter to the image's
    /// security version (locking out older images for the future).
    pub anti_rollback: bool,
}

impl Default for BootPolicy {
    fn default() -> Self {
        BootPolicy {
            anti_rollback: true,
        }
    }
}

impl BootPolicy {
    /// The vulnerable commercial baseline: signature check only.
    pub fn signature_only() -> Self {
        BootPolicy {
            anti_rollback: false,
        }
    }
}

/// Why the ROM rejected an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// Structural or signature failure.
    Image(ImageError),
    /// The trusted key's fingerprint does not match the OTP fuse.
    UntrustedKey,
    /// The key has been revoked (its fingerprint is on the revocation
    /// list).
    RevokedKey,
    /// Anti-rollback: image security version below the OTP counter.
    Rollback {
        /// Image's security version.
        image: u64,
        /// Minimum acceptable version.
        minimum: u64,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Image(e) => write!(f, "image error: {e}"),
            VerifyError::UntrustedKey => write!(f, "verification key not trusted by OTP"),
            VerifyError::RevokedKey => write!(f, "verification key revoked"),
            VerifyError::Rollback { image, minimum } => {
                write!(f, "rollback: image sv {image} below minimum {minimum}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<ImageError> for VerifyError {
    fn from(e: ImageError) -> Self {
        VerifyError::Image(e)
    }
}

/// The immutable first-stage verifier.
#[derive(Debug, Clone)]
pub struct BootRom {
    trusted_fingerprint: [u8; 8],
    revoked: Vec<[u8; 8]>,
    policy: BootPolicy,
}

impl BootRom {
    /// Creates a ROM trusting the key whose fingerprint was fused at
    /// provisioning time.
    pub fn new(trusted_fingerprint: [u8; 8], policy: BootPolicy) -> Self {
        BootRom {
            trusted_fingerprint,
            revoked: Vec::new(),
            policy,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> BootPolicy {
        self.policy
    }

    /// Adds a key fingerprint to the revocation list (field update via a
    /// signed revocation manifest, modelled as a direct call).
    pub fn revoke_key(&mut self, fingerprint: [u8; 8]) {
        if !self.revoked.contains(&fingerprint) {
            self.revoked.push(fingerprint);
        }
    }

    /// Verifies `image` against `key` under the ROM policy, advancing
    /// anti-rollback counters when configured.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] describing the first failed check.
    pub fn verify_stage(
        &self,
        image: &FirmwareImage,
        key: &RsaPublicKey,
        arb: &mut MemArbCounters,
    ) -> Result<(), VerifyError> {
        let fp = key.fingerprint();
        if fp != self.trusted_fingerprint {
            return Err(VerifyError::UntrustedKey);
        }
        if self.revoked.contains(&fp) {
            return Err(VerifyError::RevokedKey);
        }
        image.verify(key)?;
        if self.policy.anti_rollback {
            let minimum = arb.current(&image.header.stage);
            if image.header.security_version < minimum {
                return Err(VerifyError::Rollback {
                    image: image.header.security_version,
                    minimum,
                });
            }
            arb.advance(&image.header.stage, image.header.security_version);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageSigner;
    use cres_crypto::drbg::HmacDrbg;
    use cres_crypto::rsa::{generate_keypair, RsaKeypair};

    fn keypair(seed: &[u8]) -> RsaKeypair {
        let mut drbg = HmacDrbg::new(seed, b"rom-test");
        generate_keypair(512, &mut drbg).unwrap()
    }

    #[test]
    fn valid_image_passes_and_advances_counter() {
        let kp = keypair(b"vendor");
        let rom = BootRom::new(kp.public.fingerprint(), BootPolicy::default());
        let img = ImageSigner::new(&kp).sign("app", 3, 5, b"fw");
        let mut arb = MemArbCounters::new();
        rom.verify_stage(&img, &kp.public, &mut arb).unwrap();
        assert_eq!(arb.current("app"), 5);
    }

    #[test]
    fn untrusted_key_rejected() {
        let vendor = keypair(b"vendor");
        let attacker = keypair(b"attacker");
        let rom = BootRom::new(vendor.public.fingerprint(), BootPolicy::default());
        let img = ImageSigner::new(&attacker).sign("app", 1, 1, b"evil");
        let mut arb = MemArbCounters::new();
        assert_eq!(
            rom.verify_stage(&img, &attacker.public, &mut arb),
            Err(VerifyError::UntrustedKey)
        );
    }

    #[test]
    fn downgrade_blocked_with_anti_rollback() {
        let kp = keypair(b"vendor");
        let rom = BootRom::new(kp.public.fingerprint(), BootPolicy::default());
        let signer = ImageSigner::new(&kp);
        let mut arb = MemArbCounters::new();
        // boot v2 (sv=2) first
        let v2 = signer.sign("app", 2, 2, b"fw-v2");
        rom.verify_stage(&v2, &kp.public, &mut arb).unwrap();
        // replay genuinely-signed v1 (sv=1): must be rejected
        let v1 = signer.sign("app", 1, 1, b"fw-v1-vulnerable");
        assert_eq!(
            rom.verify_stage(&v1, &kp.public, &mut arb),
            Err(VerifyError::Rollback {
                image: 1,
                minimum: 2
            })
        );
    }

    #[test]
    fn downgrade_succeeds_without_anti_rollback() {
        // The §IV vulnerability: signature-only policy accepts the replay.
        let kp = keypair(b"vendor");
        let rom = BootRom::new(kp.public.fingerprint(), BootPolicy::signature_only());
        let signer = ImageSigner::new(&kp);
        let mut arb = MemArbCounters::new();
        let v2 = signer.sign("app", 2, 2, b"fw-v2");
        rom.verify_stage(&v2, &kp.public, &mut arb).unwrap();
        let v1 = signer.sign("app", 1, 1, b"fw-v1-vulnerable");
        assert!(rom.verify_stage(&v1, &kp.public, &mut arb).is_ok());
    }

    #[test]
    fn equal_security_version_is_allowed() {
        let kp = keypair(b"vendor");
        let rom = BootRom::new(kp.public.fingerprint(), BootPolicy::default());
        let signer = ImageSigner::new(&kp);
        let mut arb = MemArbCounters::new();
        let img = signer.sign("app", 2, 2, b"fw");
        rom.verify_stage(&img, &kp.public, &mut arb).unwrap();
        // A/B slot with same sv must still boot
        rom.verify_stage(&img, &kp.public, &mut arb).unwrap();
    }

    #[test]
    fn revoked_key_rejected() {
        let kp = keypair(b"vendor");
        let mut rom = BootRom::new(kp.public.fingerprint(), BootPolicy::default());
        rom.revoke_key(kp.public.fingerprint());
        let img = ImageSigner::new(&kp).sign("app", 1, 1, b"fw");
        let mut arb = MemArbCounters::new();
        assert_eq!(
            rom.verify_stage(&img, &kp.public, &mut arb),
            Err(VerifyError::RevokedKey)
        );
    }

    #[test]
    fn tampered_image_rejected() {
        let kp = keypair(b"vendor");
        let rom = BootRom::new(kp.public.fingerprint(), BootPolicy::default());
        let mut img = ImageSigner::new(&kp).sign("app", 1, 1, b"fw");
        img.payload = b"patched".to_vec();
        img.header.payload_hash = cres_crypto::sha2::Sha256::digest(&img.payload);
        let mut arb = MemArbCounters::new();
        assert!(matches!(
            rom.verify_stage(&img, &kp.public, &mut arb),
            Err(VerifyError::Image(ImageError::BadSignature))
        ));
    }
}
