//! Factory provisioning: keys, firmware, fuses and the TEE population.
//!
//! Provisioning is a pure function of the master seed, so every experiment
//! run builds bit-identical devices.

use crate::config::PlatformConfig;
use cres_boot::{BootChain, BootPolicy, BootRom, ImageSigner, SlotStore, UpdateEngine};
use cres_crypto::drbg::HmacDrbg;
use cres_crypto::hkdf;
use cres_crypto::rsa::{generate_keypair, RsaKeypair};
use cres_crypto::sha2::Sha256;
use cres_tee::{TaSigner, Tee};

/// Everything the factory hands to the platform builder.
///
/// `Clone` lets the platform pool provision once per `(seed, rsa_bits,
/// TEE deployment)` cell and hand out copies: RSA key generation dominates
/// platform construction cost (and allocation count) by orders of
/// magnitude, and [`provision`] is a pure function of those inputs.
#[derive(Clone)]
pub struct Provisioned {
    /// Vendor signing keypair (stays "at the factory"; experiments use it
    /// to mint old images for downgrade attacks).
    pub vendor: RsaKeypair,
    /// Image signing tool.
    pub signer: ImageSigner,
    /// The boot chain (ROM + trusted key + ROM self-measurement).
    pub chain: BootChain,
    /// A/B/golden firmware store, slot A = golden v1.
    pub slots: SlotStore,
    /// The update engine.
    pub update: UpdateEngine,
    /// The provisioned TEE with keystore TA and device keys.
    pub tee: Tee,
    /// HKDF-derived evidence-chain key (lives in SSM-private memory).
    pub evidence_key: Vec<u8>,
    /// The device root key (fused; used to derive everything else).
    pub device_root_key: Vec<u8>,
    /// The bootloader image bytes.
    pub bootloader: Vec<u8>,
}

/// Provisions a device from the configuration.
///
/// # Panics
///
/// Panics only on internal invariant violations (key generation from a
/// DRBG cannot practically fail).
pub fn provision(config: &PlatformConfig) -> Provisioned {
    let seed_bytes = config.seed.to_le_bytes();
    let mut key_drbg = HmacDrbg::new(&seed_bytes, b"vendor-keygen");
    let vendor = generate_keypair(config.rsa_bits, &mut key_drbg).expect("keygen");
    let signer = ImageSigner::new(&vendor);

    // Device root key and derived keys.
    let mut root_drbg = HmacDrbg::new(&seed_bytes, b"device-root");
    let device_root_key = root_drbg.generate(32);
    let evidence_key = hkdf::derive(b"cres", &device_root_key, b"evidence-chain", 32);
    let storage_key = hkdf::derive(b"cres", &device_root_key, b"tee-storage", 32);

    // Firmware: bootloader v1 and application v1 (security version 1).
    let bootloader = signer
        .sign("bootloader", 1, 1, b"CRES bootloader v1")
        .to_bytes();
    let app_v1 = signer
        .sign("app", 1, 1, b"CRES application firmware v1")
        .to_bytes();

    let rom_measurement = Sha256::digest(b"CRES boot ROM v1");
    let policy = BootPolicy::default();
    let rom = BootRom::new(vendor.public.fingerprint(), policy);
    let chain = BootChain::new(rom, vendor.public.clone(), rom_measurement);

    let slots = SlotStore::new(app_v1);
    let update = UpdateEngine::new(vendor.public.modulus_len(), 3);

    // TEE: install the keystore TA and store device keys.
    let ta_signer = TaSigner::new(&vendor);
    let mut tee = Tee::new(config.tee_deployment(), vendor.public.clone(), true);
    tee.install_ta(ta_signer.sign("keystore", 2, b"keystore TA v2"))
        .expect("keystore TA installs");
    tee.install_ta(ta_signer.sign("attestation", 1, b"attestation TA v1"))
        .expect("attestation TA installs");
    let session = tee.open_session("keystore").expect("session");
    tee.store_key(session, "device-root", &device_root_key)
        .expect("store root");
    tee.store_key(session, "storage", &storage_key)
        .expect("store storage");
    tee.close_session(session);

    Provisioned {
        vendor,
        signer,
        chain,
        slots,
        update,
        tee,
        evidence_key,
        device_root_key,
        bootloader,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformProfile;
    use cres_boot::{FirmwareImage, MemArbCounters};
    use cres_crypto::hmac::HmacSha256;

    fn cfg() -> PlatformConfig {
        PlatformConfig::new(PlatformProfile::CyberResilient, 1234)
    }

    #[test]
    fn provisioning_is_deterministic() {
        let a = provision(&cfg());
        let b = provision(&cfg());
        assert_eq!(a.vendor, b.vendor);
        assert_eq!(a.evidence_key, b.evidence_key);
        assert_eq!(a.slots.active_bytes(), b.slots.active_bytes());
    }

    #[test]
    fn different_seeds_different_devices() {
        let a = provision(&cfg());
        let b = provision(&PlatformConfig::new(PlatformProfile::CyberResilient, 99));
        assert_ne!(a.evidence_key, b.evidence_key);
        assert_ne!(a.vendor.public.fingerprint(), b.vendor.public.fingerprint());
    }

    #[test]
    fn provisioned_device_boots() {
        let p = provision(&cfg());
        let sig_len = p.vendor.public.modulus_len();
        let bl = FirmwareImage::from_bytes(&p.bootloader, sig_len).unwrap();
        let app = FirmwareImage::from_bytes(p.slots.active_bytes(), sig_len).unwrap();
        let mut arb = MemArbCounters::new();
        let report = p.chain.boot(&[&bl, &app], &mut arb);
        assert!(report.booted(), "{:?}", report.outcome);
    }

    #[test]
    fn derived_keys_are_distinct() {
        let p = provision(&cfg());
        assert_ne!(p.evidence_key, p.device_root_key);
        assert_eq!(p.evidence_key.len(), 32);
    }

    #[test]
    fn tee_holds_device_keys() {
        let mut p = provision(&cfg());
        let session = p.tee.open_session("keystore").unwrap();
        assert_eq!(
            p.tee
                .mac_with_key(session, "device-root", b"probe")
                .unwrap(),
            HmacSha256::mac(&p.device_root_key, b"probe")
        );
        assert_eq!(p.tee.installed_version("keystore"), Some(2));
        assert_eq!(p.tee.installed_version("attestation"), Some(1));
    }
}
