//! Property-based tests for the crypto substrate.
//!
//! The bignum division (Knuth Algorithm D) and the mode/AEAD layers carry
//! the platform's boot and evidence integrity — these invariants get fuzzed
//! harder than anything else in the workspace.

use cres_crypto::aead::Aead;
use cres_crypto::aes::Aes;
use cres_crypto::bignum::BigUint;
use cres_crypto::hex;
use cres_crypto::hmac::HmacSha256;
use cres_crypto::merkle::{MerkleAccumulator, MerkleTree};
use cres_crypto::modes;
use cres_crypto::sha2::Sha256;
use proptest::prelude::*;

fn biguint_strategy() -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u8>(), 0..48).prop_map(|b| BigUint::from_bytes_be(&b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bytes_round_trip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let n = BigUint::from_bytes_be(&bytes);
        let out = n.to_bytes_be();
        // round trip modulo leading zeros
        let mut trimmed = bytes.clone();
        while trimmed.first() == Some(&0) {
            trimmed.remove(0);
        }
        prop_assert_eq!(out, trimmed);
    }

    #[test]
    fn div_rem_reconstructs(a in biguint_strategy(), b in biguint_strategy()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(q.mul(&b).add(&r), a);
    }

    #[test]
    fn add_sub_inverse(a in biguint_strategy(), b in biguint_strategy()) {
        prop_assert_eq!(a.add(&b).sub(&b), a.clone());
        prop_assert_eq!(a.add(&b).sub(&a), b);
    }

    #[test]
    fn mul_commutes_and_distributes(
        a in biguint_strategy(),
        b in biguint_strategy(),
        c in biguint_strategy()
    ) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn shifts_invert(a in biguint_strategy(), s in 0usize..100) {
        prop_assert_eq!(a.shl(s).shr(s), a);
    }

    #[test]
    fn mod_pow_matches_naive(
        base in 0u64..1000,
        exp in 0u64..30,
        modulus in 2u64..10_000
    ) {
        let expect = {
            let mut acc: u128 = 1;
            for _ in 0..exp {
                acc = acc * u128::from(base) % u128::from(modulus);
            }
            acc as u64
        };
        let got = BigUint::from_u64(base)
            .mod_pow(&BigUint::from_u64(exp), &BigUint::from_u64(modulus));
        prop_assert_eq!(got, BigUint::from_u64(expect));
    }

    #[test]
    fn mod_inverse_verifies(a in 1u64..100_000) {
        // modulus is prime, so every nonzero residue has an inverse
        let p = BigUint::from_u64(1_000_003);
        let a_red = BigUint::from_u64(a % 1_000_003);
        prop_assume!(!a_red.is_zero());
        let inv = a_red.mod_inverse(&p).unwrap();
        prop_assert_eq!(a_red.mul(&inv).rem(&p), BigUint::one());
    }

    #[test]
    fn gcd_divides_both(a in 1u64..1_000_000, b in 1u64..1_000_000) {
        let g = BigUint::from_u64(a).gcd(&BigUint::from_u64(b));
        let gv = g.to_u64().unwrap();
        prop_assert_eq!(a % gv, 0);
        prop_assert_eq!(b % gv, 0);
    }

    #[test]
    fn hex_round_trips(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        prop_assert_eq!(hex::decode(&hex::encode(&bytes)).unwrap(), bytes);
    }

    #[test]
    fn sha256_streaming_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..500),
        split in 0usize..500
    ) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn aes_round_trips(key in proptest::collection::vec(any::<u8>(), 16..=16), block: [u8; 16]) {
        let aes = Aes::new(&key).unwrap();
        let mut b = block;
        aes.encrypt_block(&mut b);
        aes.decrypt_block(&mut b);
        prop_assert_eq!(b, block);
    }

    #[test]
    fn ctr_round_trips(
        key in proptest::collection::vec(any::<u8>(), 32..=32),
        nonce: [u8; 12],
        data in proptest::collection::vec(any::<u8>(), 0..300)
    ) {
        let aes = Aes::new(&key).unwrap();
        let mut buf = data.clone();
        modes::ctr_xor(&aes, &nonce, &mut buf);
        modes::ctr_xor(&aes, &nonce, &mut buf);
        prop_assert_eq!(buf, data);
    }

    #[test]
    fn aead_round_trips_and_rejects_tamper(
        key in proptest::collection::vec(any::<u8>(), 1..64),
        nonce: [u8; 12],
        aad in proptest::collection::vec(any::<u8>(), 0..32),
        data in proptest::collection::vec(any::<u8>(), 0..200),
        flip in any::<usize>()
    ) {
        let aead = Aead::new(&key);
        let sealed = aead.seal(&nonce, &aad, &data);
        prop_assert_eq!(aead.open(&nonce, &aad, &sealed).unwrap(), data);
        let mut bad = sealed.clone();
        let idx = flip % bad.len();
        bad[idx] ^= 1;
        prop_assert!(aead.open(&nonce, &aad, &bad).is_err());
    }

    #[test]
    fn hmac_is_deterministic_and_key_sensitive(
        key in proptest::collection::vec(any::<u8>(), 1..64),
        msg in proptest::collection::vec(any::<u8>(), 0..200)
    ) {
        let t1 = HmacSha256::mac(&key, &msg);
        let t2 = HmacSha256::mac(&key, &msg);
        prop_assert_eq!(t1, t2);
        let mut key2 = key.clone();
        key2[0] ^= 1;
        prop_assert_ne!(HmacSha256::mac(&key2, &msg), t1);
    }

    #[test]
    fn merkle_proofs_always_verify(
        leaves in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..20), 1..40),
        pick in any::<usize>()
    ) {
        let tree = MerkleTree::build(leaves.iter().map(|v| v.as_slice()));
        let idx = pick % leaves.len();
        let proof = tree.inclusion_proof(idx).unwrap();
        prop_assert!(MerkleTree::verify_proof(&tree.root(), &leaves[idx], &proof));
    }

    #[test]
    fn accumulator_root_matches_batch_tree(
        leaves in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..20), 1..80)
    ) {
        let mut accum = MerkleAccumulator::new();
        for leaf in &leaves {
            accum.append(leaf);
        }
        let tree = MerkleTree::build(leaves.iter().map(|v| v.as_slice()));
        prop_assert_eq!(accum.root(), Some(tree.root()));
        prop_assert_eq!(accum.leaf_count(), leaves.len() as u64);
    }

    #[test]
    fn accumulator_every_prefix_matches_batch_tree(
        leaves in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..20), 1..40)
    ) {
        // Sealing at arbitrary segment boundaries: the root after every
        // prefix must equal the batch tree over that prefix, so an
        // evidence store can seal mid-stream and keep appending.
        let mut accum = MerkleAccumulator::new();
        for (i, leaf) in leaves.iter().enumerate() {
            accum.append(leaf);
            let tree = MerkleTree::build(leaves[..=i].iter().map(|v| v.as_slice()));
            prop_assert_eq!(accum.root(), Some(tree.root()), "prefix len {}", i + 1);
        }
    }

    #[test]
    fn accumulator_append_after_seal_keeps_matching(
        before in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..20), 1..30),
        after in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..20), 1..30)
    ) {
        let mut accum = MerkleAccumulator::new();
        for leaf in &before {
            accum.append(leaf);
        }
        // "Seal": snapshot the root (Copy type), then keep appending.
        let sealed = accum.root();
        let seg1 = MerkleTree::build(before.iter().map(|v| v.as_slice()));
        prop_assert_eq!(sealed, Some(seg1.root()));
        for leaf in &after {
            accum.append(leaf);
        }
        let all: Vec<&[u8]> = before.iter().chain(&after).map(|v| v.as_slice()).collect();
        let full = MerkleTree::build(all.into_iter());
        prop_assert_eq!(accum.root(), Some(full.root()));
    }

    #[test]
    fn accumulator_digest_leaves_match_build_from_hashes(
        macs in proptest::collection::vec(any::<[u8; 32]>(), 1..50)
    ) {
        let mut accum = MerkleAccumulator::new();
        for mac in &macs {
            accum.append_digest(mac);
        }
        let tree = MerkleTree::build_from_hashes(macs.iter());
        prop_assert_eq!(accum.root(), Some(tree.root()));
    }

    #[test]
    fn accumulator_empty_and_single_leaf(leaf in proptest::collection::vec(any::<u8>(), 0..20)) {
        let mut accum = MerkleAccumulator::new();
        prop_assert!(accum.is_empty());
        prop_assert_eq!(accum.root(), None);
        accum.append(&leaf);
        let tree = MerkleTree::build(std::iter::once(leaf.as_slice()));
        prop_assert_eq!(accum.root(), Some(tree.root()));
        accum.clear();
        prop_assert_eq!(accum.root(), None);
    }
}
