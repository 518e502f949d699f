//! RSA key generation and PKCS#1 v1.5 signatures with SHA-256.
//!
//! Secure boot in `cres-boot` verifies firmware images against an RSA
//! public key fused into simulated OTP — exactly the commercial secure-boot
//! pattern the paper's §IV discusses (and whose downgrade weakness E10
//! reproduces). Key generation uses Miller–Rabin over candidates drawn from
//! the deterministic [`HmacDrbg`](crate::drbg) so that test keys are
//! reproducible.
//!
//! Every modular exponentiation here (signing, verification and each
//! Miller–Rabin round) goes through [`BigUint::mod_pow`], whose
//! fixed-width Montgomery arithmetic takes odd moduli of up to 1024 bits
//! with no heap inside the loop; wider moduli fall back to its schoolbook
//! loop. This is a simulation substrate, not transport security: nothing
//! here is constant-time.

use crate::bignum::BigUint;
use crate::drbg::HmacDrbg;
use crate::sha2::Sha256;
use crate::CryptoError;

/// DER prefix for a SHA-256 DigestInfo (RFC 8017 §9.2 note 1).
const SHA256_DIGEST_INFO: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

/// An RSA public key `(n, e)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
    modulus_len: usize,
}

/// An RSA private key `(n, d)` with the public exponent retained for
/// deriving the public half.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaPrivateKey {
    n: BigUint,
    e: BigUint,
    d: BigUint,
    modulus_len: usize,
}

/// A signing keypair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaKeypair {
    /// The public (verification) half.
    pub public: RsaPublicKey,
    /// The private (signing) half.
    pub private: RsaPrivateKey,
}

impl RsaPublicKey {
    /// Reconstructs a public key from big-endian `n` and `e` bytes.
    pub fn from_components(n: &[u8], e: &[u8]) -> Self {
        let n = BigUint::from_bytes_be(n);
        let len = n.bit_len().div_ceil(8);
        RsaPublicKey {
            n,
            e: BigUint::from_bytes_be(e),
            modulus_len: len,
        }
    }

    /// The modulus length in bytes (also the signature length).
    pub fn modulus_len(&self) -> usize {
        self.modulus_len
    }

    /// Serializes the modulus big-endian.
    pub fn n_bytes(&self) -> Vec<u8> {
        self.n.to_bytes_be()
    }

    /// Serializes the public exponent big-endian.
    pub fn e_bytes(&self) -> Vec<u8> {
        self.e.to_bytes_be()
    }

    /// A short fingerprint (first 8 bytes of SHA-256 of `n || e`), used by
    /// the boot ROM's key-manifest.
    pub fn fingerprint(&self) -> [u8; 8] {
        let mut h = Sha256::new();
        h.update(&self.n.to_bytes_be());
        h.update(&self.e.to_bytes_be());
        let d = h.finalize();
        d[..8].try_into().unwrap()
    }

    /// Verifies a PKCS#1 v1.5 SHA-256 signature over `message`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::VerificationFailed`] on any mismatch,
    /// including wrong signature length.
    pub fn verify(&self, message: &[u8], signature: &[u8]) -> Result<(), CryptoError> {
        if signature.len() != self.modulus_len {
            return Err(CryptoError::VerificationFailed);
        }
        let s = BigUint::from_bytes_be(signature);
        if s >= self.n {
            return Err(CryptoError::VerificationFailed);
        }
        let em = s
            .mod_pow(&self.e, &self.n)
            .to_bytes_be_padded(self.modulus_len);
        let expected = pkcs1_encode(message, self.modulus_len)?;
        if em == expected {
            Ok(())
        } else {
            Err(CryptoError::VerificationFailed)
        }
    }
}

impl RsaPrivateKey {
    /// The public key corresponding to this private key.
    pub fn public_key(&self) -> RsaPublicKey {
        RsaPublicKey {
            n: self.n.clone(),
            e: self.e.clone(),
            modulus_len: self.modulus_len,
        }
    }

    /// Produces a PKCS#1 v1.5 SHA-256 signature over `message`.
    pub fn sign(&self, message: &[u8]) -> Vec<u8> {
        let em = pkcs1_encode(message, self.modulus_len).expect("modulus large enough");
        let m = BigUint::from_bytes_be(&em);
        m.mod_pow(&self.d, &self.n)
            .to_bytes_be_padded(self.modulus_len)
    }
}

/// EMSA-PKCS1-v1_5 encoding of SHA-256(message).
fn pkcs1_encode(message: &[u8], em_len: usize) -> Result<Vec<u8>, CryptoError> {
    let digest = Sha256::digest(message);
    let t_len = SHA256_DIGEST_INFO.len() + digest.len();
    if em_len < t_len + 11 {
        return Err(CryptoError::MalformedInput("modulus too small for PKCS#1"));
    }
    let mut em = Vec::with_capacity(em_len);
    em.push(0x00);
    em.push(0x01);
    em.extend(std::iter::repeat_n(0xff, em_len - t_len - 3));
    em.push(0x00);
    em.extend_from_slice(&SHA256_DIGEST_INFO);
    em.extend_from_slice(&digest);
    Ok(em)
}

/// Miller–Rabin primality test with `rounds` random bases from `drbg`.
pub fn is_probable_prime(n: &BigUint, rounds: u32, drbg: &mut HmacDrbg) -> bool {
    let two = BigUint::from_u64(2);
    let three = BigUint::from_u64(3);
    if *n < two {
        return false;
    }
    if *n == two || *n == three {
        return true;
    }
    if n.is_even() {
        return false;
    }
    // Trial division by small primes screens out most candidates cheaply:
    // one pass over the limbs reduces n modulo their product, a u64.
    const SMALL_PRIMES: [u64; 15] = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53];
    const SMALL_PRIMES_PRODUCT: u64 = {
        let mut product = 1;
        let mut i = 0;
        while i < SMALL_PRIMES.len() {
            product *= SMALL_PRIMES[i];
            i += 1;
        }
        product
    };
    let residue = n.rem_u64(SMALL_PRIMES_PRODUCT);
    for p in SMALL_PRIMES {
        if n.to_u64() == Some(p) {
            return true;
        }
        if residue.is_multiple_of(p) {
            return false;
        }
    }
    let byte_len = n.bit_len().div_ceil(8);
    let n_minus_3 = n.sub(&three);
    n.miller_rabin(rounds, || {
        // Draw a ∈ [2, n-2].
        loop {
            let candidate = BigUint::from_bytes_be(&drbg.generate(byte_len)).rem(n);
            if candidate >= two && candidate <= n_minus_3 {
                break candidate;
            }
        }
    })
}

/// Generates a random probable prime of exactly `bits` bits.
fn gen_prime(bits: usize, drbg: &mut HmacDrbg) -> Result<BigUint, CryptoError> {
    assert!(bits >= 16, "prime size too small");
    let byte_len = bits.div_ceil(8);
    for _ in 0..100_000 {
        let mut bytes = drbg.generate(byte_len);
        // Force exact bit length and oddness.
        let top_bit = (bits - 1) % 8;
        bytes[0] |= 1 << top_bit;
        bytes[0] &= (1u16 << (top_bit + 1)).wrapping_sub(1) as u8;
        let last = bytes.len() - 1;
        bytes[last] |= 1;
        let candidate = BigUint::from_bytes_be(&bytes);
        if is_probable_prime(&candidate, 16, drbg) {
            return Ok(candidate);
        }
    }
    Err(CryptoError::PrimeGenerationFailed)
}

/// Generates an RSA keypair with a modulus of `bits` bits (e = 65537).
///
/// Key material is drawn from the supplied DRBG, so `(seed → key)` is a
/// pure function — the provisioning model the boot substrate relies on.
///
/// # Errors
///
/// Returns [`CryptoError::PrimeGenerationFailed`] if prime search exhausts
/// its budget (practically unreachable).
///
/// # Panics
///
/// Panics if `bits < 512` or `bits` is odd.
///
/// # Example
///
/// ```
/// use cres_crypto::{drbg::HmacDrbg, rsa};
/// let mut drbg = HmacDrbg::new(b"device-otp-seed", b"boot-key");
/// let kp = rsa::generate_keypair(512, &mut drbg).unwrap();
/// let sig = kp.private.sign(b"firmware image");
/// assert!(kp.public.verify(b"firmware image", &sig).is_ok());
/// ```
pub fn generate_keypair(bits: usize, drbg: &mut HmacDrbg) -> Result<RsaKeypair, CryptoError> {
    assert!(bits >= 512, "modulus below 512 bits is unsupported");
    assert!(bits.is_multiple_of(2), "modulus bits must be even");
    let e = BigUint::from_u64(65537);
    loop {
        let p = gen_prime(bits / 2, drbg)?;
        let q = gen_prime(bits / 2, drbg)?;
        if p == q {
            continue;
        }
        let n = p.mul(&q);
        if n.bit_len() != bits {
            continue;
        }
        let phi = p.sub(&BigUint::one()).mul(&q.sub(&BigUint::one()));
        let Some(d) = e.mod_inverse(&phi) else {
            continue;
        };
        let modulus_len = bits / 8;
        return Ok(RsaKeypair {
            public: RsaPublicKey {
                n: n.clone(),
                e: e.clone(),
                modulus_len,
            },
            private: RsaPrivateKey {
                n,
                e,
                d,
                modulus_len,
            },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_keypair() -> RsaKeypair {
        let mut drbg = HmacDrbg::new(b"fixed-test-seed", b"rsa-test");
        generate_keypair(512, &mut drbg).unwrap()
    }

    #[test]
    fn miller_rabin_known_primes_and_composites() {
        let mut drbg = HmacDrbg::new(b"mr", b"");
        for p in [2u64, 3, 5, 7, 61, 97, 1009, 104729, 1000003] {
            assert!(
                is_probable_prime(&BigUint::from_u64(p), 16, &mut drbg),
                "{p} should be prime"
            );
        }
        for c in [0u64, 1, 4, 9, 561, 1105, 6601, 8911, 104730, 1000001] {
            // 561, 1105, 6601, 8911 are Carmichael numbers
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), 16, &mut drbg),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn keygen_is_deterministic_from_seed() {
        let mut d1 = HmacDrbg::new(b"seed-x", b"rsa");
        let mut d2 = HmacDrbg::new(b"seed-x", b"rsa");
        let k1 = generate_keypair(512, &mut d1).unwrap();
        let k2 = generate_keypair(512, &mut d2).unwrap();
        assert_eq!(k1, k2);
    }

    #[test]
    fn provisioning_keys_are_pinned() {
        // SHA-256 of n ‖ d for `provision`'s vendor key (the DRBG it
        // seeds with the platform seed) at the seeds the benchmark
        // provisions and the goldens' 42, taken from the schoolbook
        // arithmetic: the Montgomery path must make every prime decision
        // and every key exactly as it did.
        for (seed, pin) in [
            (
                8u64,
                "ea1f1f68a5b94f690f454a975da1b5a364734eee295017d73261aec26c7027a0",
            ),
            (
                11,
                "bda518105b59aec22ebf66bb97108b0f87282c63c2e43d90f821bd832280ecc8",
            ),
            (
                1979,
                "b3c1c885c14c12a20f8e42d50f1f70adfb5b36f134bc46328e6b71bffc7938f5",
            ),
            (
                42,
                "b3727d41c18a18bec72708d0c8686bb6b4ff73ef84c67d229dfefe3f56604071",
            ),
        ] {
            let mut drbg = HmacDrbg::new(&seed.to_le_bytes(), b"vendor-keygen");
            let kp = generate_keypair(512, &mut drbg).unwrap();
            let mut h = Sha256::new();
            h.update(&kp.private.n.to_bytes_be());
            h.update(&kp.private.d.to_bytes_be());
            assert_eq!(crate::hex::encode(&h.finalize()), pin, "seed {seed}");
        }
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = test_keypair();
        let sig = kp.private.sign(b"measured firmware v1.2");
        assert_eq!(sig.len(), kp.public.modulus_len());
        assert!(kp.public.verify(b"measured firmware v1.2", &sig).is_ok());
    }

    #[test]
    fn verify_rejects_modified_message() {
        let kp = test_keypair();
        let sig = kp.private.sign(b"image-a");
        assert_eq!(
            kp.public.verify(b"image-b", &sig),
            Err(CryptoError::VerificationFailed)
        );
    }

    #[test]
    fn verify_rejects_modified_signature() {
        let kp = test_keypair();
        let mut sig = kp.private.sign(b"image");
        sig[10] ^= 1;
        assert!(kp.public.verify(b"image", &sig).is_err());
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let kp = test_keypair();
        let mut other_drbg = HmacDrbg::new(b"other-seed", b"rsa");
        let other = generate_keypair(512, &mut other_drbg).unwrap();
        let sig = kp.private.sign(b"image");
        assert!(other.public.verify(b"image", &sig).is_err());
    }

    #[test]
    fn verify_rejects_wrong_length_signature() {
        let kp = test_keypair();
        assert!(kp.public.verify(b"m", &[0u8; 63]).is_err());
        assert!(kp.public.verify(b"m", &[]).is_err());
    }

    #[test]
    fn public_key_component_round_trip() {
        let kp = test_keypair();
        let rebuilt = RsaPublicKey::from_components(&kp.public.n_bytes(), &kp.public.e_bytes());
        assert_eq!(rebuilt, kp.public);
        let sig = kp.private.sign(b"x");
        assert!(rebuilt.verify(b"x", &sig).is_ok());
    }

    #[test]
    fn fingerprints_differ_between_keys() {
        let kp = test_keypair();
        let mut other_drbg = HmacDrbg::new(b"another", b"rsa");
        let other = generate_keypair(512, &mut other_drbg).unwrap();
        assert_ne!(kp.public.fingerprint(), other.public.fingerprint());
    }

    #[test]
    fn pkcs1_encoding_shape() {
        let em = pkcs1_encode(b"msg", 64).unwrap();
        assert_eq!(em.len(), 64);
        assert_eq!(em[0], 0x00);
        assert_eq!(em[1], 0x01);
        assert!(em[2..].iter().take_while(|&&b| b == 0xff).count() >= 8);
    }

    #[test]
    fn pkcs1_rejects_tiny_modulus() {
        assert!(pkcs1_encode(b"msg", 32).is_err());
    }
}
