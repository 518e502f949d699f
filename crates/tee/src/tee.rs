//! The TEE proper: sessions and the shared-resource weakness.
//!
//! Two deployment shapes matter to the paper:
//!
//! * [`TeeDeployment::SharedResources`] — the commercial norm: secure world
//!   time-shares the application cores and physical memory. Authentic to
//!   TrustZone, and authentically vulnerable: [`Tee::side_channel_extract`]
//!   succeeds (Spectre/Meltdown-class leakage across the shared
//!   microarchitecture) and TA downgrade is possible when rollback
//!   protection is absent.
//! * [`TeeDeployment::IsolatedCoprocessor`] — the paper's prescription: the
//!   secure world runs on its own core and memory. Side-channel extraction
//!   has no shared substrate to leak through and returns nothing.

use crate::keystore::Keystore;
use crate::ta::TaManifest;
use cres_crypto::hmac::HmacSha256;
use cres_crypto::rsa::RsaPublicKey;
use std::collections::HashMap;
use std::fmt;

/// Physical deployment of the secure world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TeeDeployment {
    /// Secure world shares cores, caches and DRAM with the normal world.
    SharedResources,
    /// Secure world runs on a physically separate coprocessor and memory.
    IsolatedCoprocessor,
}

/// An open SMC session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(pub u32);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sess#{}", self.0)
    }
}

/// TEE operation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TeeError {
    /// No such trusted application is installed.
    UnknownTa(String),
    /// Manifest signature failed.
    BadManifest,
    /// Rollback protection rejected an older TA version.
    Downgrade {
        /// Installed version.
        installed: u32,
        /// Offered (older) version.
        offered: u32,
    },
    /// The session id is not open.
    BadSession,
    /// The named key does not exist.
    UnknownKey(String),
}

impl fmt::Display for TeeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TeeError::UnknownTa(n) => write!(f, "unknown trusted application {n:?}"),
            TeeError::BadManifest => write!(f, "trusted application manifest rejected"),
            TeeError::Downgrade { installed, offered } => {
                write!(f, "ta downgrade rejected: {offered} < {installed}")
            }
            TeeError::BadSession => write!(f, "invalid session"),
            TeeError::UnknownKey(n) => write!(f, "unknown key {n:?}"),
        }
    }
}

impl std::error::Error for TeeError {}

/// The trusted execution environment.
#[derive(Debug, Clone)]
pub struct Tee {
    deployment: TeeDeployment,
    vendor_key: RsaPublicKey,
    rollback_protection: bool,
    installed: HashMap<String, TaManifest>,
    keystore: Keystore,
    sessions: HashMap<SessionId, String>,
    next_session: u32,
    attestation_key: Vec<u8>,
    side_channel_leaks: u64,
}

impl Tee {
    /// Creates a TEE trusting `vendor_key` for TA manifests.
    pub fn new(
        deployment: TeeDeployment,
        vendor_key: RsaPublicKey,
        rollback_protection: bool,
    ) -> Self {
        Tee {
            deployment,
            vendor_key,
            rollback_protection,
            installed: HashMap::new(),
            keystore: Keystore::new(),
            sessions: HashMap::new(),
            next_session: 0,
            attestation_key: b"tee-attestation-key".to_vec(),
            side_channel_leaks: 0,
        }
    }

    /// The physical deployment shape.
    pub fn deployment(&self) -> TeeDeployment {
        self.deployment
    }

    /// Installs (or updates) a trusted application.
    ///
    /// # Errors
    ///
    /// Rejects bad signatures always, and older versions only when rollback
    /// protection is on — the gap is the TrustZone downgrade attack.
    pub fn install_ta(&mut self, manifest: TaManifest) -> Result<(), TeeError> {
        manifest
            .verify(&self.vendor_key)
            .map_err(|_| TeeError::BadManifest)?;
        if let Some(existing) = self.installed.get(&manifest.name) {
            if self.rollback_protection && manifest.version < existing.version {
                return Err(TeeError::Downgrade {
                    installed: existing.version,
                    offered: manifest.version,
                });
            }
        }
        self.installed.insert(manifest.name.clone(), manifest);
        Ok(())
    }

    /// The installed version of a TA.
    pub fn installed_version(&self, name: &str) -> Option<u32> {
        self.installed.get(name).map(|m| m.version)
    }

    /// Opens a session to an installed TA.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::UnknownTa`] when the TA is not installed.
    pub fn open_session(&mut self, ta: &str) -> Result<SessionId, TeeError> {
        if !self.installed.contains_key(ta) {
            return Err(TeeError::UnknownTa(ta.to_string()));
        }
        let id = SessionId(self.next_session);
        self.next_session += 1;
        self.sessions.insert(id, ta.to_string());
        Ok(id)
    }

    /// Closes a session (idempotent).
    pub fn close_session(&mut self, id: SessionId) {
        self.sessions.remove(&id);
    }

    /// Stores a key via an open keystore session.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::BadSession`] for unknown/foreign sessions.
    pub fn store_key(
        &mut self,
        session: SessionId,
        name: &str,
        key: &[u8],
    ) -> Result<(), TeeError> {
        self.require_session(session, "keystore")?;
        self.keystore.store(name, key);
        Ok(())
    }

    /// MACs data under a stored key via a session.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::BadSession`] or [`TeeError::UnknownKey`].
    pub fn mac_with_key(
        &self,
        session: SessionId,
        name: &str,
        data: &[u8],
    ) -> Result<[u8; 32], TeeError> {
        self.require_session(session, "keystore")?;
        self.keystore
            .mac(name, data)
            .ok_or_else(|| TeeError::UnknownKey(name.to_string()))
    }

    /// Produces an attestation report: HMAC over the supplied measurement
    /// under the TEE attestation key.
    pub fn attest(&self, measurement: &[u8]) -> [u8; 32] {
        HmacSha256::mac(&self.attestation_key, measurement)
    }

    /// Verifies an attestation report.
    #[must_use]
    pub fn verify_attestation(&self, measurement: &[u8], report: &[u8; 32]) -> bool {
        cres_crypto::ct::ct_eq(&self.attest(measurement), report)
    }

    /// **The shared-resource leak.** Models a cache-timing extraction of a
    /// stored key by normal-world code. Succeeds — returns the key bytes —
    /// only in the [`TeeDeployment::SharedResources`] deployment; against an
    /// isolated coprocessor there is no shared microarchitecture to probe
    /// and the result is `None`.
    pub fn side_channel_extract(&mut self, name: &str) -> Option<Vec<u8>> {
        match self.deployment {
            TeeDeployment::SharedResources => {
                let leaked = self.keystore.export(name).map(<[u8]>::to_vec);
                if leaked.is_some() {
                    self.side_channel_leaks += 1;
                }
                leaked
            }
            TeeDeployment::IsolatedCoprocessor => None,
        }
    }

    /// How many side-channel extractions have succeeded (ground truth for
    /// experiment scoring; a real system would not know).
    pub fn side_channel_leaks(&self) -> u64 {
        self.side_channel_leaks
    }

    /// Zeroises all keys (countermeasure).
    pub fn zeroize_keys(&mut self) {
        self.keystore.zeroize_all();
    }

    fn require_session(&self, session: SessionId, ta: &str) -> Result<(), TeeError> {
        match self.sessions.get(&session) {
            Some(name) if name == ta => Ok(()),
            _ => Err(TeeError::BadSession),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ta::TaSigner;
    use cres_crypto::drbg::HmacDrbg;
    use cres_crypto::rsa::{generate_keypair, RsaKeypair};

    fn vendor() -> RsaKeypair {
        let mut d = HmacDrbg::new(b"tee-vendor", b"");
        generate_keypair(512, &mut d).unwrap()
    }

    fn tee_with_keystore(deployment: TeeDeployment, rollback: bool) -> (Tee, TaSigner) {
        let kp = vendor();
        let signer = TaSigner::new(&kp);
        let mut tee = Tee::new(deployment, kp.public.clone(), rollback);
        tee.install_ta(signer.sign("keystore", 2, b"keystore-code"))
            .unwrap();
        (tee, signer)
    }

    #[test]
    fn session_lifecycle_and_key_ops() {
        let (mut tee, _) = tee_with_keystore(TeeDeployment::SharedResources, true);
        let s = tee.open_session("keystore").unwrap();
        tee.store_key(s, "device", b"root-key").unwrap();
        let tag = tee.mac_with_key(s, "device", b"msg").unwrap();
        assert_eq!(tag, HmacSha256::mac(b"root-key", b"msg"));
        tee.close_session(s);
        assert!(tee.mac_with_key(s, "device", b"msg").is_err());
    }

    #[test]
    fn unknown_ta_session_fails() {
        let (mut tee, _) = tee_with_keystore(TeeDeployment::SharedResources, true);
        assert_eq!(
            tee.open_session("payments"),
            Err(TeeError::UnknownTa("payments".into()))
        );
    }

    #[test]
    fn downgrade_blocked_with_rollback_protection() {
        let (mut tee, signer) = tee_with_keystore(TeeDeployment::SharedResources, true);
        let old = signer.sign("keystore", 1, b"vulnerable-keystore");
        assert_eq!(
            tee.install_ta(old),
            Err(TeeError::Downgrade {
                installed: 2,
                offered: 1
            })
        );
        assert_eq!(tee.installed_version("keystore"), Some(2));
    }

    #[test]
    fn downgrade_succeeds_without_rollback_protection() {
        // The Project Zero / downgrade-attack scenario.
        let (mut tee, signer) = tee_with_keystore(TeeDeployment::SharedResources, false);
        let old = signer.sign("keystore", 1, b"vulnerable-keystore");
        assert!(tee.install_ta(old).is_ok());
        assert_eq!(tee.installed_version("keystore"), Some(1));
    }

    #[test]
    fn forged_manifest_rejected_regardless() {
        let (mut tee, _) = tee_with_keystore(TeeDeployment::SharedResources, false);
        let mut evil = HmacDrbg::new(b"evil", b"");
        let evil_kp = generate_keypair(512, &mut evil).unwrap();
        let forged = TaSigner::new(&evil_kp).sign("keystore", 99, b"backdoor");
        assert_eq!(tee.install_ta(forged), Err(TeeError::BadManifest));
    }

    #[test]
    fn side_channel_leaks_only_when_shared() {
        let (mut shared, _) = tee_with_keystore(TeeDeployment::SharedResources, true);
        let s = shared.open_session("keystore").unwrap();
        shared.store_key(s, "k", b"secret").unwrap();
        assert_eq!(shared.side_channel_extract("k").unwrap(), b"secret");
        assert_eq!(shared.side_channel_leaks(), 1);

        let (mut isolated, _) = tee_with_keystore(TeeDeployment::IsolatedCoprocessor, true);
        let s = isolated.open_session("keystore").unwrap();
        isolated.store_key(s, "k", b"secret").unwrap();
        assert_eq!(isolated.side_channel_extract("k"), None);
        assert_eq!(isolated.side_channel_leaks(), 0);
    }

    #[test]
    fn zeroize_defeats_subsequent_extraction() {
        let (mut tee, _) = tee_with_keystore(TeeDeployment::SharedResources, true);
        let s = tee.open_session("keystore").unwrap();
        tee.store_key(s, "k", b"secret").unwrap();
        tee.zeroize_keys();
        assert_eq!(tee.side_channel_extract("k"), None);
    }

    #[test]
    fn attestation_round_trip() {
        let (tee, _) = tee_with_keystore(TeeDeployment::IsolatedCoprocessor, true);
        let report = tee.attest(b"pcr-snapshot");
        assert!(tee.verify_attestation(b"pcr-snapshot", &report));
        assert!(!tee.verify_attestation(b"different", &report));
    }
}
