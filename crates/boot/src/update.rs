//! The firmware update engine: A/B slots, rollback and golden recovery.
//!
//! RECOVER in Table I maps to "roll-back and roll-forward" plus redundancy.
//! This engine implements all three recovery paths experiment E5 compares:
//!
//! * **roll-forward** — stage a fixed image into the inactive slot, verify,
//!   switch;
//! * **roll-back** — switch back to the previous slot after a bad update
//!   (bounded boot-attempt counter triggers it automatically);
//! * **golden recovery** — reflash slot A from the factory image when both
//!   slots are unbootable.

use crate::image::{FirmwareImage, ImageError};
use crate::rom::{BootRom, VerifyError};
use crate::MemArbCounters;
use cres_crypto::rsa::RsaPublicKey;
use std::fmt;

/// Firmware slot identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    /// Slot A.
    A,
    /// Slot B.
    B,
}

impl Slot {
    /// The other slot.
    pub fn other(self) -> Slot {
        match self {
            Slot::A => Slot::B,
            Slot::B => Slot::A,
        }
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Slot::A => write!(f, "A"),
            Slot::B => write!(f, "B"),
        }
    }
}

/// Raw image storage: two mutable slots plus the immutable golden image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotStore {
    a: Vec<u8>,
    b: Vec<u8>,
    golden: Vec<u8>,
    active: Slot,
}

impl SlotStore {
    /// Creates a store with the golden image flashed into slot A (factory
    /// state).
    pub fn new(golden: Vec<u8>) -> Self {
        SlotStore {
            a: golden.clone(),
            b: Vec::new(),
            golden,
            active: Slot::A,
        }
    }

    /// Raw bytes of a slot.
    pub fn slot(&self, slot: Slot) -> &[u8] {
        match slot {
            Slot::A => &self.a,
            Slot::B => &self.b,
        }
    }

    /// Overwrites a slot (flash write). Attack injectors use this for
    /// image-tamper and downgrade staging.
    pub fn write_slot(&mut self, slot: Slot, bytes: Vec<u8>) {
        match slot {
            Slot::A => self.a = bytes,
            Slot::B => self.b = bytes,
        }
    }

    /// The currently active slot.
    pub fn active(&self) -> Slot {
        self.active
    }

    /// Bytes of the active slot.
    pub fn active_bytes(&self) -> &[u8] {
        self.slot(self.active)
    }

    /// Switches the active slot marker.
    pub fn set_active(&mut self, slot: Slot) {
        self.active = slot;
    }

    /// The factory golden image.
    pub fn golden(&self) -> &[u8] {
        &self.golden
    }
}

/// Errors from update operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// The staged image failed structural parsing.
    Parse(ImageError),
    /// The staged image failed ROM verification.
    Verify(VerifyError),
    /// Roll-back requested but the other slot is empty.
    NoFallbackSlot,
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::Parse(e) => write!(f, "staged image unparsable: {e}"),
            UpdateError::Verify(e) => write!(f, "staged image rejected: {e}"),
            UpdateError::NoFallbackSlot => write!(f, "no fallback slot available"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// The update engine.
#[derive(Debug, Clone)]
pub struct UpdateEngine {
    sig_len: usize,
    max_boot_attempts: u32,
    failed_attempts: u32,
    updates_applied: u32,
    rollbacks: u32,
    golden_recoveries: u32,
}

impl UpdateEngine {
    /// Creates an engine for images signed with `sig_len`-byte signatures;
    /// `max_boot_attempts` failed boots trigger automatic rollback.
    pub fn new(sig_len: usize, max_boot_attempts: u32) -> Self {
        assert!(max_boot_attempts > 0);
        UpdateEngine {
            sig_len,
            max_boot_attempts,
            failed_attempts: 0,
            updates_applied: 0,
            rollbacks: 0,
            golden_recoveries: 0,
        }
    }

    /// Stages `image_bytes` into the inactive slot. Returns the slot used.
    pub fn stage(&self, store: &mut SlotStore, image_bytes: Vec<u8>) -> Slot {
        let target = store.active().other();
        store.write_slot(target, image_bytes);
        target
    }

    /// Verifies the staged (inactive-slot) image against the ROM and, on
    /// success, switches the active slot to it (roll-forward commit).
    ///
    /// # Errors
    ///
    /// Returns [`UpdateError`] and leaves the active slot unchanged.
    pub fn commit(
        &mut self,
        store: &mut SlotStore,
        rom: &BootRom,
        key: &RsaPublicKey,
        arb: &mut MemArbCounters,
    ) -> Result<FirmwareImage, UpdateError> {
        let target = store.active().other();
        let image = FirmwareImage::from_bytes(store.slot(target), self.sig_len)
            .map_err(UpdateError::Parse)?;
        rom.verify_stage(&image, key, arb)
            .map_err(UpdateError::Verify)?;
        store.set_active(target);
        self.failed_attempts = 0;
        self.updates_applied += 1;
        Ok(image)
    }

    /// Records a failed boot of the active slot. When the attempt budget is
    /// exhausted, rolls back to the other slot automatically and returns
    /// `true`.
    ///
    /// # Errors
    ///
    /// Returns [`UpdateError::NoFallbackSlot`] when rollback is required
    /// but the other slot is empty (golden recovery is then the only path).
    pub fn record_boot_failure(&mut self, store: &mut SlotStore) -> Result<bool, UpdateError> {
        self.failed_attempts += 1;
        if self.failed_attempts < self.max_boot_attempts {
            return Ok(false);
        }
        self.failed_attempts = 0;
        let fallback = store.active().other();
        if store.slot(fallback).is_empty() {
            return Err(UpdateError::NoFallbackSlot);
        }
        store.set_active(fallback);
        self.rollbacks += 1;
        Ok(true)
    }

    /// Records a successful boot (clears the failure counter).
    pub fn record_boot_success(&mut self) {
        self.failed_attempts = 0;
    }

    /// Reflashes slot A from the golden image and activates it — the
    /// last-resort recovery path.
    pub fn recover_golden(&mut self, store: &mut SlotStore) {
        let golden = store.golden().to_vec();
        store.write_slot(Slot::A, golden);
        store.set_active(Slot::A);
        self.failed_attempts = 0;
        self.golden_recoveries += 1;
    }

    /// Lifetime counters `(updates, rollbacks, golden recoveries)`.
    pub fn counters(&self) -> (u32, u32, u32) {
        (self.updates_applied, self.rollbacks, self.golden_recoveries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageSigner;
    use crate::rom::BootPolicy;
    use cres_crypto::drbg::HmacDrbg;
    use cres_crypto::rsa::{generate_keypair, RsaKeypair};

    struct Fixture {
        kp: RsaKeypair,
        rom: BootRom,
        store: SlotStore,
        engine: UpdateEngine,
        arb: MemArbCounters,
    }

    fn fixture() -> Fixture {
        let mut drbg = HmacDrbg::new(b"update-test", b"");
        let kp = generate_keypair(512, &mut drbg).unwrap();
        let signer = ImageSigner::new(&kp);
        let golden = signer.sign("app", 1, 1, b"golden fw").to_bytes();
        let sig_len = kp.public.modulus_len();
        Fixture {
            rom: BootRom::new(kp.public.fingerprint(), BootPolicy::default()),
            store: SlotStore::new(golden),
            engine: UpdateEngine::new(sig_len, 3),
            arb: MemArbCounters::new(),
            kp,
        }
    }

    #[test]
    fn factory_state_is_slot_a_golden() {
        let f = fixture();
        assert_eq!(f.store.active(), Slot::A);
        assert_eq!(f.store.active_bytes(), f.store.golden());
        assert!(f.store.slot(Slot::B).is_empty());
    }

    #[test]
    fn roll_forward_update() {
        let mut f = fixture();
        let v2 = ImageSigner::new(&f.kp)
            .sign("app", 2, 2, b"fw v2")
            .to_bytes();
        let staged = f.engine.stage(&mut f.store, v2);
        assert_eq!(staged, Slot::B);
        assert_eq!(f.store.active(), Slot::A, "not switched until commit");
        let img = f
            .engine
            .commit(&mut f.store, &f.rom, &f.kp.public, &mut f.arb)
            .unwrap();
        assert_eq!(img.header.version, 2);
        assert_eq!(f.store.active(), Slot::B);
        assert_eq!(f.engine.counters().0, 1);
    }

    #[test]
    fn bad_update_rejected_active_unchanged() {
        let mut f = fixture();
        f.engine.stage(&mut f.store, b"corrupted junk".to_vec());
        let err = f
            .engine
            .commit(&mut f.store, &f.rom, &f.kp.public, &mut f.arb)
            .unwrap_err();
        assert!(matches!(err, UpdateError::Parse(_)));
        assert_eq!(f.store.active(), Slot::A);
    }

    #[test]
    fn downgrade_update_rejected() {
        let mut f = fixture();
        let signer = ImageSigner::new(&f.kp);
        // go to sv=3 first
        f.engine
            .stage(&mut f.store, signer.sign("app", 3, 3, b"v3").to_bytes());
        f.engine
            .commit(&mut f.store, &f.rom, &f.kp.public, &mut f.arb)
            .unwrap();
        // stage genuinely-signed older image
        f.engine
            .stage(&mut f.store, signer.sign("app", 2, 2, b"v2").to_bytes());
        let err = f
            .engine
            .commit(&mut f.store, &f.rom, &f.kp.public, &mut f.arb)
            .unwrap_err();
        assert!(matches!(
            err,
            UpdateError::Verify(VerifyError::Rollback { .. })
        ));
    }

    #[test]
    fn auto_rollback_after_repeated_failures() {
        let mut f = fixture();
        let v2 = ImageSigner::new(&f.kp)
            .sign("app", 2, 2, b"v2-buggy")
            .to_bytes();
        f.engine.stage(&mut f.store, v2);
        f.engine
            .commit(&mut f.store, &f.rom, &f.kp.public, &mut f.arb)
            .unwrap();
        assert_eq!(f.store.active(), Slot::B);
        // two failures: still on B
        assert!(!f.engine.record_boot_failure(&mut f.store).unwrap());
        assert!(!f.engine.record_boot_failure(&mut f.store).unwrap());
        assert_eq!(f.store.active(), Slot::B);
        // third failure triggers rollback to A
        assert!(f.engine.record_boot_failure(&mut f.store).unwrap());
        assert_eq!(f.store.active(), Slot::A);
        assert_eq!(f.engine.counters().1, 1);
    }

    #[test]
    fn boot_success_resets_failure_budget() {
        let mut f = fixture();
        let v2 = ImageSigner::new(&f.kp).sign("app", 2, 2, b"v2").to_bytes();
        f.engine.stage(&mut f.store, v2);
        f.engine
            .commit(&mut f.store, &f.rom, &f.kp.public, &mut f.arb)
            .unwrap();
        f.engine.record_boot_failure(&mut f.store).unwrap();
        f.engine.record_boot_failure(&mut f.store).unwrap();
        f.engine.record_boot_success();
        // budget reset: two more failures do not roll back
        assert!(!f.engine.record_boot_failure(&mut f.store).unwrap());
        assert!(!f.engine.record_boot_failure(&mut f.store).unwrap());
        assert_eq!(f.store.active(), Slot::B);
    }

    #[test]
    fn rollback_without_fallback_errors() {
        let mut f = fixture();
        // active is A, B empty; exhaust budget
        f.engine.record_boot_failure(&mut f.store).unwrap();
        f.engine.record_boot_failure(&mut f.store).unwrap();
        let err = f.engine.record_boot_failure(&mut f.store).unwrap_err();
        assert_eq!(err, UpdateError::NoFallbackSlot);
    }

    #[test]
    fn golden_recovery_restores_factory_image() {
        let mut f = fixture();
        // corrupt both slots
        f.store.write_slot(Slot::A, b"ransomware".to_vec());
        f.store.write_slot(Slot::B, b"ransomware".to_vec());
        f.engine.recover_golden(&mut f.store);
        assert_eq!(f.store.active(), Slot::A);
        assert_eq!(f.store.active_bytes(), f.store.golden());
        assert_eq!(f.engine.counters().2, 1);
        // recovered image verifies
        let img =
            FirmwareImage::from_bytes(f.store.active_bytes(), f.kp.public.modulus_len()).unwrap();
        assert!(img.verify(&f.kp.public).is_ok());
    }

    #[test]
    fn slot_other_is_involutive() {
        assert_eq!(Slot::A.other(), Slot::B);
        assert_eq!(Slot::B.other().other(), Slot::B);
    }
}
