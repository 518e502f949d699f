//! Property tests for the boot substrate: the image parser is fed
//! adversarial bytes (it guards the first link of the chain of trust), and
//! the update engine's slot invariants are fuzzed.

use cres_boot::{
    BootPolicy, BootRom, FirmwareImage, ImageSigner, MemArbCounters, Slot, SlotStore, UpdateEngine,
};
use cres_crypto::drbg::HmacDrbg;
use cres_crypto::rsa::{generate_keypair, RsaKeypair};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One keypair for the whole suite — keygen is the expensive part.
fn keypair() -> &'static RsaKeypair {
    static KP: OnceLock<RsaKeypair> = OnceLock::new();
    KP.get_or_init(|| {
        let mut d = HmacDrbg::new(b"boot-proptest", b"");
        generate_keypair(512, &mut d).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn image_round_trips_for_any_payload(
        stage in "[a-z]{1,16}",
        version: u32,
        sv: u64,
        payload in proptest::collection::vec(any::<u8>(), 0..2048)
    ) {
        let kp = keypair();
        let img = ImageSigner::new(kp).sign(&stage, version, sv, &payload);
        let parsed = FirmwareImage::from_bytes(&img.to_bytes(), kp.public.modulus_len()).unwrap();
        prop_assert_eq!(&parsed, &img);
        prop_assert!(parsed.verify(&kp.public).is_ok());
    }

    #[test]
    fn parser_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // any result is fine; panicking is not
        let _ = FirmwareImage::from_bytes(&bytes, 64);
    }

    #[test]
    fn parser_rejects_any_truncation(
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        cut in any::<prop::sample::Index>()
    ) {
        let kp = keypair();
        let bytes = ImageSigner::new(kp).sign("app", 1, 1, &payload).to_bytes();
        let keep = cut.index(bytes.len()); // strictly shorter
        prop_assert!(FirmwareImage::from_bytes(&bytes[..keep], kp.public.modulus_len()).is_err());
    }

    #[test]
    fn any_flip_in_image_bytes_fails_parse_or_verify(
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        pos in any::<prop::sample::Index>(),
        bit in 0u8..8
    ) {
        let kp = keypair();
        let mut bytes = ImageSigner::new(kp).sign("app", 1, 1, &payload).to_bytes();
        let i = pos.index(bytes.len());
        bytes[i] ^= 1 << bit;
        let ok = FirmwareImage::from_bytes(&bytes, kp.public.modulus_len())
            .is_ok_and(|img| img.verify(&kp.public).is_ok());
        prop_assert!(!ok, "flipped bit at byte {i} went unnoticed");
    }

    #[test]
    fn rom_accepts_iff_signed_and_fresh(image_sv in 0u64..20, fused in 0u64..20) {
        let kp = keypair();
        let rom = BootRom::new(kp.public.fingerprint(), BootPolicy::default());
        let img = ImageSigner::new(kp).sign("app", 1, image_sv, b"fw");
        let mut arb = MemArbCounters::new();
        arb.advance("app", fused);
        let result = rom.verify_stage(&img, &kp.public, &mut arb);
        prop_assert_eq!(result.is_ok(), image_sv >= fused);
        if image_sv >= fused {
            // counter advanced to the image's sv
            prop_assert_eq!(arb.current("app"), image_sv.max(fused));
        } else {
            prop_assert_eq!(arb.current("app"), fused);
        }
    }

    #[test]
    fn update_commit_switches_iff_valid(
        good: bool,
        payload in proptest::collection::vec(any::<u8>(), 1..128)
    ) {
        let kp = keypair();
        let signer = ImageSigner::new(kp);
        let golden = signer.sign("app", 1, 1, b"golden").to_bytes();
        let mut store = SlotStore::new(golden);
        let mut engine = UpdateEngine::new(kp.public.modulus_len(), 3);
        let rom = BootRom::new(kp.public.fingerprint(), BootPolicy::default());
        let mut arb = MemArbCounters::new();
        let staged = if good {
            signer.sign("app", 2, 2, &payload).to_bytes()
        } else {
            payload.clone()
        };
        engine.stage(&mut store, staged);
        let before = store.active();
        let result = engine.commit(&mut store, &rom, &kp.public, &mut arb);
        prop_assert_eq!(result.is_ok(), good);
        if good {
            prop_assert_eq!(store.active(), before.other());
        } else {
            prop_assert_eq!(store.active(), before);
        }
    }

    #[test]
    fn boot_failure_budget_is_exact(budget in 1u32..8) {
        let kp = keypair();
        let golden = ImageSigner::new(kp).sign("app", 1, 1, b"g").to_bytes();
        let mut store = SlotStore::new(golden.clone());
        store.write_slot(Slot::B, golden);
        store.set_active(Slot::B);
        let mut engine = UpdateEngine::new(kp.public.modulus_len(), budget);
        for i in 1..=budget {
            let rolled = engine.record_boot_failure(&mut store).unwrap();
            prop_assert_eq!(rolled, i == budget, "attempt {}", i);
        }
        prop_assert_eq!(store.active(), Slot::A);
    }
}
