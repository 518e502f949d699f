#![warn(missing_docs)]

//! Secure and measured boot for the CRES platform.
//!
//! Implements the commercial secure-boot pattern the paper's §IV analyses —
//! and whose weaknesses (no anti-rollback ⇒ downgrade, single trust chain ⇒
//! total compromise) experiment E10 reproduces:
//!
//! * [`image`] — the signed firmware image format and signing tool,
//! * [`pcr`] — a TPM-style platform configuration register bank for
//!   measured boot,
//! * [`rom`] — the immutable first-stage verifier (signature, hash,
//!   anti-rollback policy),
//! * [`chain`] — the multi-stage chain of trust over A/B/golden slots,
//! * [`update`] — the firmware update engine: staged A/B updates,
//!   roll-back, roll-forward and golden-image recovery.
//!
//! The crate is independent of the SoC model: it operates on byte buffers
//! (a [`update::SlotStore`]) and a [`MemArbCounters`] bank, so it can be
//! unit-tested standalone and wired to simulated flash by the platform
//! crate.

pub mod chain;
pub mod image;
pub mod pcr;
pub mod rom;
pub mod update;

pub use chain::{BootChain, BootOutcome, BootReport, StageResult};
pub use image::{FirmwareImage, ImageError, ImageHeader, ImageSigner};
pub use pcr::PcrBank;
pub use rom::{BootPolicy, BootRom};
pub use update::{Slot, SlotStore, UpdateEngine, UpdateError};

/// The anti-rollback counter bank: one monotonic minimum security version
/// per boot stage. The platform keeps one per device.
///
/// The boot ROM reads the minimum acceptable security version from it and
/// advances it after a successful boot of a newer image.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemArbCounters {
    counters: std::collections::HashMap<String, u64>,
}

impl MemArbCounters {
    /// Creates an all-zero counter bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current minimum acceptable security version for `stage`.
    pub fn current(&self, stage: &str) -> u64 {
        self.counters.get(stage).copied().unwrap_or(0)
    }

    /// Advances the counter for `stage` to `value`; a lower value is
    /// ignored, so the counter never regresses.
    pub fn advance(&mut self, stage: &str, value: u64) {
        let cur = self.current(stage);
        if value > cur {
            self.counters.insert(stage.to_string(), value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_counters_never_regress() {
        let mut c = MemArbCounters::new();
        assert_eq!(c.current("app"), 0);
        c.advance("app", 5);
        c.advance("app", 3); // ignored
        assert_eq!(c.current("app"), 5);
        c.advance("app", 9);
        assert_eq!(c.current("app"), 9);
        assert_eq!(c.current("other"), 0);
    }
}
