//! Platform configuration registers for measured boot.
//!
//! A TPM-style PCR bank: registers start at zero and can only be *extended*
//! (`pcr ← SHA-256(pcr ‖ measurement)`), never written. A boot stage's
//! measurement is folded in before control transfers to it, so the final
//! PCR values commit to the exact boot path.

use cres_crypto::sha2::Sha256;

/// Number of registers in the bank.
pub const PCR_COUNT: usize = 8;

/// Conventional register assignments.
pub mod index {
    /// Boot ROM self-measurement.
    pub const ROM: usize = 0;
    /// Bootloader stage.
    pub const BOOTLOADER: usize = 1;
    /// Application firmware stage.
    pub const APP: usize = 2;
    /// Configuration data.
    pub const CONFIG: usize = 3;
}

/// A bank of platform configuration registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcrBank {
    regs: [[u8; 32]; PCR_COUNT],
}

impl Default for PcrBank {
    fn default() -> Self {
        Self::new()
    }
}

impl PcrBank {
    /// Creates a zeroed bank.
    pub fn new() -> Self {
        PcrBank {
            regs: [[0u8; 32]; PCR_COUNT],
        }
    }

    /// Extends register `idx` with `measurement`.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range indices.
    pub fn extend(&mut self, idx: usize, measurement: &[u8; 32]) {
        assert!(idx < PCR_COUNT, "no PCR {idx}");
        let mut h = Sha256::new();
        h.update(&self.regs[idx]);
        h.update(measurement);
        self.regs[idx] = h.finalize();
    }

    /// Reads register `idx`.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range indices.
    pub fn read(&self, idx: usize) -> [u8; 32] {
        assert!(idx < PCR_COUNT, "no PCR {idx}");
        self.regs[idx]
    }

    /// Snapshot of all registers (for golden-value comparison).
    pub fn snapshot(&self) -> [[u8; 32]; PCR_COUNT] {
        self.regs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_bank_is_zero() {
        let b = PcrBank::new();
        assert_eq!(b.read(0), [0u8; 32]);
    }

    #[test]
    fn extend_changes_register_and_is_order_sensitive() {
        let mut a = PcrBank::new();
        let mut b = PcrBank::new();
        let m1 = [1u8; 32];
        let m2 = [2u8; 32];
        a.extend(0, &m1);
        a.extend(0, &m2);
        b.extend(0, &m2);
        b.extend(0, &m1);
        assert_ne!(
            a.read(0),
            b.read(0),
            "PCR extension must be order sensitive"
        );
        assert_ne!(a.read(0), [0u8; 32]);
    }

    #[test]
    fn extend_is_deterministic() {
        let mut a = PcrBank::new();
        let mut b = PcrBank::new();
        a.extend(2, &[7u8; 32]);
        b.extend(2, &[7u8; 32]);
        assert_eq!(a.read(2), b.read(2));
    }

    #[test]
    fn registers_are_independent() {
        let mut b = PcrBank::new();
        b.extend(1, &[1u8; 32]);
        assert_eq!(b.read(0), [0u8; 32]);
        assert_ne!(b.read(1), [0u8; 32]);
    }

    #[test]
    #[should_panic(expected = "no PCR")]
    fn out_of_range_panics() {
        PcrBank::new().read(PCR_COUNT);
    }
}
