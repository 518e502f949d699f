//! The hash-chained evidence store.
//!
//! Every observation the SSM accepts becomes an [`EvidenceRecord`] whose
//! HMAC covers the previous record's MAC — an append-only chain keyed with
//! a key that never leaves SSM-private memory. The consequences, which
//! experiment E6 measures:
//!
//! * an attacker who owns the GPP **cannot forge or truncate history
//!   undetectably** — any modification breaks every downstream MAC;
//! * evidence recorded *before and during* the compromise survives it,
//!   unlike the baseline's UART/log-buffer records which the attacker wipes.
//!
//! Batches can additionally be sealed under a Merkle root so an external
//! auditor can verify a single record without replaying the chain.

use crate::evtext::EvText;
use cres_crypto::hmac::HmacSha256;
use cres_crypto::merkle::{InclusionProof, MerkleAccumulator, MerkleTree};
use cres_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One link in the evidence chain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvidenceRecord {
    /// Position in the chain (0-based, dense).
    pub seq: u64,
    /// Simulated time of the underlying observation.
    pub at: SimTime,
    /// Category tag (e.g. monitor name or `"incident"`); stored inline
    /// (allocation-free) for short text.
    pub category: EvText,
    /// Serialized observation payload; stored inline (allocation-free) for
    /// short text.
    pub payload: EvText,
    /// MAC of the previous record (all-zero for the genesis record).
    pub prev_mac: [u8; 32],
    /// MAC over `seq ‖ at ‖ category ‖ payload ‖ prev_mac`.
    pub mac: [u8; 32],
}

impl EvidenceRecord {
    /// The record's MAC, from a clone of the store's keyed instance.
    fn compute_mac(
        keyed: &HmacSha256,
        seq: u64,
        at: SimTime,
        category: &str,
        payload: &str,
        prev: &[u8; 32],
    ) -> [u8; 32] {
        let mut mac = keyed.clone();
        mac.update(&seq.to_le_bytes());
        mac.update(&at.cycle().to_le_bytes());
        mac.update(&(category.len() as u64).to_le_bytes());
        mac.update(category.as_bytes());
        mac.update(&(payload.len() as u64).to_le_bytes());
        mac.update(payload.as_bytes());
        mac.update(prev);
        mac.finalize()
    }
}

/// Where and why chain verification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// Record `seq` has a MAC that does not verify (content tampered).
    BadMac(u64),
    /// Record `seq`'s `prev_mac` does not match its predecessor (splice).
    BrokenLink(u64),
    /// Sequence numbers are not dense from 0 (truncation or reorder).
    BadSequence {
        /// Expected sequence number.
        expected: u64,
        /// Found sequence number.
        found: u64,
    },
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::BadMac(s) => write!(f, "record {s}: MAC verification failed"),
            ChainError::BrokenLink(s) => write!(f, "record {s}: chain link broken"),
            ChainError::BadSequence { expected, found } => {
                write!(f, "sequence gap: expected {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for ChainError {}

/// One audit seal: the Merkle root over the chain's first `covered`
/// records, stamped with the simulated time the seal was taken — the
/// anchor a forensic export cites when proving a record's inclusion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SealInfo {
    /// Simulated time the seal was taken.
    pub at: SimTime,
    /// Merkle root over records `0..covered`.
    pub root: [u8; 32],
    /// Number of records the seal covers.
    pub covered: u64,
}

/// The append-only evidence store.
#[derive(Debug, Clone)]
pub struct EvidenceStore {
    /// HMAC keyed with the store's key once; each record's MAC starts
    /// from a clone of it.
    keyed: HmacSha256,
    records: Vec<EvidenceRecord>,
    seals: Vec<SealInfo>,
    // Incremental Merkle state over every appended record's MAC, so a seal
    // is O(log n) instead of a full-tree rebuild. Tracks the *appended*
    // history; if the raw records diverge from it (the E6/E7 attack
    // surface), `seal` falls back to the batch rebuild.
    accum: MerkleAccumulator,
}

impl EvidenceStore {
    /// Creates a store keyed with `key` (held in SSM-private memory by the
    /// platform).
    pub fn new(key: &[u8]) -> Self {
        EvidenceStore {
            keyed: HmacSha256::new(key),
            records: Vec::new(),
            seals: Vec::new(),
            accum: MerkleAccumulator::new(),
        }
    }

    /// Restores the pristine just-constructed state under a (possibly new)
    /// key, keeping the record and seal buffers' capacity — the platform
    /// pool's reuse path.
    pub fn reset(&mut self, key: &[u8]) {
        self.keyed = HmacSha256::new(key);
        self.records.clear();
        self.seals.clear();
        self.accum.clear();
    }

    /// Appends an observation and returns its sequence number.
    pub fn append(&mut self, at: SimTime, category: &str, payload: &str) -> u64 {
        let seq = self.records.len() as u64;
        let prev_mac = self.records.last().map_or([0u8; 32], |r| r.mac);
        let mac = EvidenceRecord::compute_mac(&self.keyed, seq, at, category, payload, &prev_mac);
        self.accum.append_digest(&mac);
        self.records.push(EvidenceRecord {
            seq,
            at,
            category: EvText::from(category),
            payload: EvText::from(payload),
            prev_mac,
            mac,
        });
        seq
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records (forensic export).
    pub fn records(&self) -> &[EvidenceRecord] {
        &self.records
    }

    /// Verifies the whole chain.
    ///
    /// # Errors
    ///
    /// Returns the first [`ChainError`] found.
    pub fn verify(&self) -> Result<(), ChainError> {
        Self::verify_keyed(&self.keyed, &self.records)
    }

    /// Verifies an exported record list against a key — what a forensic
    /// workstation does with the SSM's dump.
    ///
    /// # Errors
    ///
    /// Returns the first [`ChainError`] found.
    pub fn verify_export(key: &[u8], records: &[EvidenceRecord]) -> Result<(), ChainError> {
        Self::verify_keyed(&HmacSha256::new(key), records)
    }

    /// [`EvidenceStore::verify_export`] with the key already absorbed.
    fn verify_keyed(keyed: &HmacSha256, records: &[EvidenceRecord]) -> Result<(), ChainError> {
        let mut prev = [0u8; 32];
        for (i, rec) in records.iter().enumerate() {
            if rec.seq != i as u64 {
                return Err(ChainError::BadSequence {
                    expected: i as u64,
                    found: rec.seq,
                });
            }
            if rec.prev_mac != prev {
                return Err(ChainError::BrokenLink(rec.seq));
            }
            let expect = EvidenceRecord::compute_mac(
                keyed,
                rec.seq,
                rec.at,
                &rec.category,
                &rec.payload,
                &rec.prev_mac,
            );
            if !cres_crypto::ct::ct_eq(&expect, &rec.mac) {
                return Err(ChainError::BadMac(rec.seq));
            }
            prev = rec.mac;
        }
        Ok(())
    }

    /// Seals all records so far under a Merkle root at simulated time
    /// `at`; returns the root.
    ///
    /// The fast path reads the incremental accumulator — O(log n) hashes
    /// per seal regardless of history length, and byte-identical to the
    /// batch tree's root. When the raw records no longer match the appended
    /// history (an attacker with store memory access truncated or replaced
    /// them), the root is rebuilt from the records as stored, preserving
    /// the pre-accumulator semantics the E6/E7 experiments pin.
    ///
    /// # Panics
    ///
    /// Panics when the store is empty.
    pub fn seal(&mut self, at: SimTime) -> [u8; 32] {
        assert!(
            !self.records.is_empty(),
            "Merkle tree needs at least one leaf"
        );
        let root = if self.accum.leaf_count() == self.records.len() as u64 {
            self.accum
                .root()
                .expect("accumulator non-empty when records are")
        } else {
            MerkleTree::build_from_hashes(self.records.iter().map(|r| &r.mac)).root()
        };
        self.seals.push(SealInfo {
            at,
            root,
            covered: self.records.len() as u64,
        });
        root
    }

    /// The seal history, oldest first.
    pub fn seals(&self) -> &[SealInfo] {
        &self.seals
    }

    /// Produces an inclusion proof for record `seq` against the latest seal
    /// covering it.
    pub fn prove_inclusion(&self, seq: u64) -> Option<(InclusionProof, [u8; 32])> {
        let seal = *self.seals.iter().rev().find(|seal| seq < seal.covered)?;
        let tree = MerkleTree::build_from_hashes(
            self.records[..seal.covered as usize].iter().map(|r| &r.mac),
        );
        debug_assert_eq!(tree.root(), seal.root);
        tree.inclusion_proof(seq as usize).map(|p| (p, seal.root))
    }

    /// Verifies an inclusion proof produced by
    /// [`EvidenceStore::prove_inclusion`].
    #[must_use]
    pub fn verify_inclusion(
        record: &EvidenceRecord,
        proof: &InclusionProof,
        root: &[u8; 32],
    ) -> bool {
        MerkleTree::verify_proof(root, &record.mac, proof)
    }

    /// **Attack surface for E6/E7**: mutable access to the raw records, as
    /// an attacker with write access to the store's memory would have. Only
    /// meaningful when the SSM is *not* physically isolated.
    pub fn records_mut_for_attack(&mut self) -> &mut Vec<EvidenceRecord> {
        &mut self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(c: u64) -> SimTime {
        SimTime::at_cycle(c)
    }

    fn store_with(n: u64) -> EvidenceStore {
        let mut s = EvidenceStore::new(b"ssm-private-key");
        for i in 0..n {
            s.append(t(i * 10), "bus-policy", &format!("event {i}"));
        }
        s
    }

    #[test]
    fn empty_chain_verifies() {
        assert!(store_with(0).verify().is_ok());
    }

    #[test]
    fn intact_chain_verifies() {
        assert!(store_with(50).verify().is_ok());
    }

    #[test]
    fn sequence_numbers_are_dense() {
        let s = store_with(5);
        let seqs: Vec<u64> = s.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn payload_tamper_detected() {
        let mut s = store_with(10);
        s.records_mut_for_attack()[4].payload = "benign-looking".into();
        assert_eq!(s.verify(), Err(ChainError::BadMac(4)));
    }

    #[test]
    fn mac_tamper_detected_at_next_link() {
        let mut s = store_with(10);
        // forge record 4's MAC: its own check fails OR the link to 5 breaks
        s.records_mut_for_attack()[4].mac[0] ^= 1;
        let err = s.verify().unwrap_err();
        assert!(matches!(
            err,
            ChainError::BadMac(4) | ChainError::BrokenLink(5)
        ));
    }

    #[test]
    fn truncation_detected() {
        let mut s = store_with(10);
        // attacker deletes the last 3 records — but an auditor knows the
        // chain length from the last seal, and deleting *interior* records
        // breaks sequence density:
        s.records_mut_for_attack().remove(5);
        assert_eq!(
            s.verify(),
            Err(ChainError::BadSequence {
                expected: 5,
                found: 6
            })
        );
    }

    #[test]
    fn splice_detected() {
        let mut s = store_with(10);
        // attacker replaces record 3 with a re-MACed forgery under the
        // wrong key (they don't have the SSM key)
        let rec = &mut s.records_mut_for_attack()[3];
        rec.payload = "forged".into();
        rec.mac = HmacSha256::mac(b"attacker-key", b"forged");
        let err = s.verify().unwrap_err();
        assert!(matches!(
            err,
            ChainError::BadMac(3) | ChainError::BrokenLink(4)
        ));
    }

    #[test]
    fn wrong_key_export_fails() {
        let s = store_with(5);
        assert!(EvidenceStore::verify_export(b"other-key", s.records()).is_err());
        assert!(EvidenceStore::verify_export(b"ssm-private-key", s.records()).is_ok());
    }

    #[test]
    fn seal_and_prove_inclusion() {
        let mut s = store_with(20);
        let root = s.seal(t(200));
        let (proof, got_root) = s.prove_inclusion(7).unwrap();
        assert_eq!(got_root, root);
        assert!(EvidenceStore::verify_inclusion(
            &s.records()[7],
            &proof,
            &root
        ));
        // wrong record fails
        assert!(!EvidenceStore::verify_inclusion(
            &s.records()[8],
            &proof,
            &root
        ));
    }

    #[test]
    fn inclusion_requires_covering_seal() {
        let mut s = store_with(5);
        s.seal(t(100));
        s.append(t(999), "late", "after seal");
        assert!(s.prove_inclusion(4).is_some());
        assert!(
            s.prove_inclusion(5).is_none(),
            "record after seal not covered"
        );
        s.seal(t(1_000));
        assert!(s.prove_inclusion(5).is_some());
        assert_eq!(s.seals().len(), 2);
        // seals carry their audit timestamps and coverage, oldest first
        assert_eq!(s.seals()[0].at, t(100));
        assert_eq!(s.seals()[0].covered, 5);
        assert_eq!(s.seals()[1].at, t(1_000));
        assert_eq!(s.seals()[1].covered, 6);
    }

    #[test]
    fn records_after_compromise_still_chain() {
        // evidence continuity: compromise at t=50, SSM keeps appending
        let mut s = store_with(5);
        s.append(t(50), "incident", "CFI violation on task#1");
        s.append(t(60), "response", "isolated CPU1");
        assert!(s.verify().is_ok());
        assert_eq!(s.len(), 7);
    }
}
