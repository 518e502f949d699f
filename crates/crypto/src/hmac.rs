//! HMAC (RFC 2104) over SHA-256.
//!
//! Validated against the RFC 4231 test vectors. HMAC-SHA-256 is the
//! workhorse of the platform: it keys the evidence hash chain in the system
//! security manager and authenticates the AEAD in [`crate::aead`].

use crate::ct::ct_eq;
use crate::sha2::Sha256;

/// Streaming HMAC-SHA-256.
///
/// A keyed instance holds both hashes with their pad blocks already
/// absorbed, so a clone of it MACs another message under the same key
/// without rehashing the key.
///
/// # Example
///
/// ```
/// use cres_crypto::hmac::HmacSha256;
/// let tag = HmacSha256::mac(b"key", b"message");
/// assert!(HmacSha256::verify(b"key", b"message", &tag));
/// assert!(!HmacSha256::verify(b"key", b"tampered", &tag));
/// ```
#[derive(Debug, Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Output length in bytes.
    pub const OUTPUT_LEN: usize = 32;

    /// Creates a keyed MAC instance. Keys longer than the block size are
    /// hashed first, per RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        let mut block_key = [0u8; 64];
        if key.len() > 64 {
            block_key[..32].copy_from_slice(&Sha256::digest(key));
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; 64];
        let mut opad = [0u8; 64];
        for i in 0..64 {
            ipad[i] = block_key[i] ^ 0x36;
            opad[i] = block_key[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacSha256 { inner, outer }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the 32-byte tag.
    pub fn finalize(self) -> [u8; 32] {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }

    /// One-shot MAC.
    pub fn mac(key: &[u8], message: &[u8]) -> [u8; 32] {
        let mut h = HmacSha256::new(key);
        h.update(message);
        h.finalize()
    }

    /// Constant-time verification of a tag (which may be truncated, minimum
    /// 16 bytes).
    #[must_use]
    pub fn verify(key: &[u8], message: &[u8], tag: &[u8]) -> bool {
        if tag.len() < 16 || tag.len() > 32 {
            return false;
        }
        let full = Self::mac(key, message);
        ct_eq(&full[..tag.len()], tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0b; 20];
        let msg = b"Hi There";
        assert_eq!(
            hex::encode(&HmacSha256::mac(&key, msg)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        let key = b"Jefe";
        let msg = b"what do ya want for nothing?";
        assert_eq!(
            hex::encode(&HmacSha256::mac(key, msg)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 3 (0xaa key, 0xdd data).
    #[test]
    fn rfc4231_case3() {
        let key = [0xaa; 20];
        let msg = [0xdd; 50];
        assert_eq!(
            hex::encode(&HmacSha256::mac(&key, &msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 test case 6 (key longer than block size).
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaa; 131];
        let msg = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            hex::encode(&HmacSha256::mac(&key, msg)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let key = b"stream-key";
        let msg: Vec<u8> = (0..500u16).map(|i| (i % 256) as u8).collect();
        let mut h = HmacSha256::new(key);
        for c in msg.chunks(13) {
            h.update(c);
        }
        assert_eq!(h.finalize(), HmacSha256::mac(key, &msg));
    }

    #[test]
    fn verify_accepts_truncated_tags() {
        let tag = HmacSha256::mac(b"k", b"m");
        assert!(HmacSha256::verify(b"k", b"m", &tag[..16]));
        assert!(!HmacSha256::verify(b"k", b"m", &tag[..8])); // too short
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let tag = HmacSha256::mac(b"k1", b"m");
        assert!(!HmacSha256::verify(b"k2", b"m", &tag));
    }
}
