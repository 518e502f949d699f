//! HMAC-DRBG (NIST SP 800-90A) over HMAC-SHA-256.
//!
//! The platform's deterministic source of key material: device provisioning
//! derives per-device keys from an OTP seed, and RSA key generation in
//! [`crate::rsa`] draws candidate primes from a DRBG so experiments are
//! reproducible.

use crate::hmac::HmacSha256;

/// An HMAC-DRBG instance.
///
/// # Example
///
/// ```
/// use cres_crypto::drbg::HmacDrbg;
/// let mut a = HmacDrbg::new(b"seed", b"personalization");
/// let mut b = HmacDrbg::new(b"seed", b"personalization");
/// assert_eq!(a.generate(32), b.generate(32));
/// ```
#[derive(Debug, Clone)]
pub struct HmacDrbg {
    key: [u8; 32],
    value: [u8; 32],
}

impl HmacDrbg {
    /// Instantiates the DRBG from entropy input and a personalization
    /// string.
    pub fn new(entropy: &[u8], personalization: &[u8]) -> Self {
        let mut drbg = HmacDrbg {
            key: [0u8; 32],
            value: [1u8; 32],
        };
        let mut seed = Vec::with_capacity(entropy.len() + personalization.len());
        seed.extend_from_slice(entropy);
        seed.extend_from_slice(personalization);
        drbg.update(Some(&seed));
        drbg
    }

    /// Generates `len` pseudorandom bytes.
    pub fn generate(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            self.value = HmacSha256::mac(&self.key, &self.value);
            let take = (len - out.len()).min(32);
            out.extend_from_slice(&self.value[..take]);
        }
        self.update(None);
        out
    }

    /// SP 800-90A HMAC_DRBG_Update.
    fn update(&mut self, provided: Option<&[u8]>) {
        let mut mac = HmacSha256::new(&self.key);
        mac.update(&self.value);
        mac.update(&[0x00]);
        if let Some(p) = provided {
            mac.update(p);
        }
        self.key = mac.finalize();
        self.value = HmacSha256::mac(&self.key, &self.value);
        if let Some(p) = provided {
            let mut mac = HmacSha256::new(&self.key);
            mac.update(&self.value);
            mac.update(&[0x01]);
            mac.update(p);
            self.key = mac.finalize();
            self.value = HmacSha256::mac(&self.key, &self.value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = HmacDrbg::new(b"entropy", b"p13n");
        let mut b = HmacDrbg::new(b"entropy", b"p13n");
        assert_eq!(a.generate(100), b.generate(100));
        assert_eq!(a.generate(7), b.generate(7));
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = HmacDrbg::new(b"e1", b"");
        let mut b = HmacDrbg::new(b"e2", b"");
        assert_ne!(a.generate(32), b.generate(32));
    }

    #[test]
    fn personalization_matters() {
        let mut a = HmacDrbg::new(b"e", b"p1");
        let mut b = HmacDrbg::new(b"e", b"p2");
        assert_ne!(a.generate(32), b.generate(32));
    }

    #[test]
    fn successive_outputs_differ() {
        let mut d = HmacDrbg::new(b"e", b"");
        let x = d.generate(32);
        let y = d.generate(32);
        assert_ne!(x, y);
    }

    #[test]
    fn output_distribution_rough_uniformity() {
        // Each bit should be set roughly half the time.
        let mut d = HmacDrbg::new(b"stat", b"");
        let bytes = d.generate(10_000);
        let ones: u32 = bytes.iter().map(|b| b.count_ones()).sum();
        let total = 10_000 * 8;
        let frac = ones as f64 / total as f64;
        assert!((frac - 0.5).abs() < 0.02, "bit fraction {frac}");
    }
}
