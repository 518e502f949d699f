//! One-time-programmable fuses.
//!
//! OTP is the hardware root of the chain of trust: the boot ROM's public-key
//! fingerprint lives here. Write-once is enforced by construction. The
//! anti-rollback counters are the boot crate's `MemArbCounters`.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Errors from fuse operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OtpError {
    /// The named fuse word was already programmed.
    AlreadyProgrammed(String),
}

impl fmt::Display for OtpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OtpError::AlreadyProgrammed(n) => write!(f, "fuse {n:?} already programmed"),
        }
    }
}

impl std::error::Error for OtpError {}

/// The OTP fuse bank.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OtpFuses {
    words: HashMap<String, Vec<u8>>,
}

impl OtpFuses {
    /// Creates an unprogrammed fuse bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Programs a named fuse word. Each word can be written exactly once.
    ///
    /// # Errors
    ///
    /// Returns [`OtpError::AlreadyProgrammed`] on a second write.
    pub fn program(&mut self, name: &str, data: &[u8]) -> Result<(), OtpError> {
        if self.words.contains_key(name) {
            return Err(OtpError::AlreadyProgrammed(name.to_string()));
        }
        self.words.insert(name.to_string(), data.to_vec());
        Ok(())
    }

    /// Reads a programmed fuse word.
    pub fn read(&self, name: &str) -> Option<&[u8]> {
        self.words.get(name).map(Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_once_read_many() {
        let mut otp = OtpFuses::new();
        otp.program("root_key_hash", &[1, 2, 3]).unwrap();
        assert_eq!(otp.read("root_key_hash"), Some([1, 2, 3].as_slice()));
        assert_eq!(otp.read("root_key_hash"), Some([1, 2, 3].as_slice()));
        assert_eq!(otp.read("missing"), None);
    }

    #[test]
    fn double_program_rejected() {
        let mut otp = OtpFuses::new();
        otp.program("k", &[1]).unwrap();
        assert_eq!(
            otp.program("k", &[2]),
            Err(OtpError::AlreadyProgrammed("k".into()))
        );
        // original value intact
        assert_eq!(otp.read("k"), Some([1].as_slice()));
    }
}
