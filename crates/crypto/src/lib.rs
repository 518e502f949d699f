#![warn(missing_docs)]

//! From-scratch cryptographic substrate for the CRES platform.
//!
//! The paper's protection, boot-integrity and evidence-continuity mechanisms
//! all need cryptography; this crate provides it with **zero external
//! dependencies** so that the whole reproduction is self-contained:
//!
//! * [`sha2`] — SHA-256 (FIPS 180-4),
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104),
//! * [`hkdf`] — HKDF extract/expand (RFC 5869),
//! * [`aes`] — the AES-128/192/256 block cipher (FIPS 197),
//! * [`modes`] — the CTR mode of operation,
//! * [`aead`] — an encrypt-then-MAC AEAD built from AES-CTR + HMAC-SHA-256,
//! * [`drbg`] — HMAC-DRBG (SP 800-90A) for deterministic key generation,
//! * [`bignum`] — arbitrary-precision unsigned arithmetic,
//! * [`rsa`] — RSA key generation (Miller–Rabin) and PKCS#1 v1.5 signatures,
//! * [`merkle`] — Merkle trees with inclusion proofs,
//! * [`ct`] — constant-time comparison helpers.
//!
//! All primitives are validated against published test vectors in their unit
//! tests. This substrate exists to make the *system* reproduction
//! self-contained; it is **not** hardened production cryptography (no
//! side-channel countermeasures beyond constant-time tag comparison).
//!
//! # Example
//!
//! ```
//! use cres_crypto::sha2::Sha256;
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     cres_crypto::hex::encode(&digest),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! ```

pub mod aead;
pub mod aes;
pub mod bignum;
pub mod ct;
pub mod drbg;
pub mod hex;
pub mod hkdf;
pub mod hmac;
pub mod merkle;
pub mod modes;
pub mod rsa;
pub mod sha2;

/// Errors produced by this crate's fallible operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// An authentication tag or signature failed to verify.
    VerificationFailed,
    /// Ciphertext or encoded input was structurally malformed.
    MalformedInput(&'static str),
    /// A key had the wrong length for the algorithm.
    InvalidKeyLength {
        /// Human-readable description of acceptable lengths.
        expected: &'static str,
        /// The length actually supplied, in bytes.
        got: usize,
    },
    /// Prime generation exhausted its attempt budget.
    PrimeGenerationFailed,
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::VerificationFailed => write!(f, "verification failed"),
            CryptoError::MalformedInput(what) => write!(f, "malformed input: {what}"),
            CryptoError::InvalidKeyLength { expected, got } => {
                write!(
                    f,
                    "invalid key length: expected {expected}, got {got} bytes"
                )
            }
            CryptoError::PrimeGenerationFailed => write!(f, "prime generation failed"),
        }
    }
}

impl std::error::Error for CryptoError {}
