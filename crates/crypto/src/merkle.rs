//! Merkle trees with inclusion proofs.
//!
//! The forensic evidence store periodically seals a batch of evidence
//! records under a Merkle root so that an auditor can verify any single
//! record's inclusion without replaying the whole chain. Leaves and interior
//! nodes are domain-separated (`0x00` / `0x01` prefixes) to prevent
//! second-preimage splicing attacks.

use crate::sha2::Sha256;

/// A 32-byte node hash.
pub type NodeHash = [u8; 32];

/// A Merkle tree over a list of byte-string leaves.
///
/// # Example
///
/// ```
/// use cres_crypto::merkle::MerkleTree;
/// let leaves: Vec<&[u8]> = vec![b"a", b"b", b"c"];
/// let tree = MerkleTree::build(leaves.iter().copied());
/// let proof = tree.inclusion_proof(1).unwrap();
/// assert!(MerkleTree::verify_proof(&tree.root(), b"b", &proof));
/// assert!(!MerkleTree::verify_proof(&tree.root(), b"x", &proof));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleTree {
    // levels[0] = leaf hashes, levels.last() = [root]
    levels: Vec<Vec<NodeHash>>,
}

/// One step of an inclusion proof: the sibling hash and which side it is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProofStep {
    /// The sibling node's hash.
    pub sibling: NodeHash,
    /// True when the sibling is on the right of the path node.
    pub sibling_on_right: bool,
}

/// An inclusion proof from a leaf to the root.
pub type InclusionProof = Vec<ProofStep>;

fn hash_leaf(data: &[u8]) -> NodeHash {
    let mut h = Sha256::new();
    h.update(&[0x00]);
    h.update(data);
    h.finalize()
}

fn hash_node(left: &NodeHash, right: &NodeHash) -> NodeHash {
    let mut h = Sha256::new();
    h.update(&[0x01]);
    h.update(left);
    h.update(right);
    h.finalize()
}

impl MerkleTree {
    /// Builds a tree over the given leaves. An odd node at any level is
    /// promoted by pairing it with itself.
    ///
    /// # Panics
    ///
    /// Panics when `leaves` is empty — an empty tree has no meaningful root.
    pub fn build<'a>(leaves: impl IntoIterator<Item = &'a [u8]>) -> Self {
        Self::build_inner(leaves.into_iter().map(hash_leaf))
    }

    /// [`MerkleTree::build`] over borrowed 32-byte leaf digests — the
    /// evidence-store case, where leaves are MAC values that already live
    /// in records. Hashes each leaf in place with the usual `0x00` domain
    /// prefix; no intermediate owned buffers are created.
    ///
    /// # Panics
    ///
    /// Panics when `leaves` is empty.
    pub fn build_from_hashes<'a>(leaves: impl IntoIterator<Item = &'a [u8; 32]>) -> Self {
        Self::build_inner(leaves.into_iter().map(|l| hash_leaf(l.as_slice())))
    }

    fn build_inner(leaf_hashes: impl Iterator<Item = NodeHash>) -> Self {
        let leaf_hashes: Vec<NodeHash> = leaf_hashes.collect();
        assert!(
            !leaf_hashes.is_empty(),
            "Merkle tree needs at least one leaf"
        );
        let mut levels = vec![leaf_hashes];
        while levels.last().unwrap().len() > 1 {
            let prev = levels.last().unwrap();
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                let left = &pair[0];
                let right = pair.get(1).unwrap_or(left);
                next.push(hash_node(left, right));
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The root hash.
    pub fn root(&self) -> NodeHash {
        self.levels.last().unwrap()[0]
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// Produces an inclusion proof for leaf `index`, or `None` when out of
    /// range.
    pub fn inclusion_proof(&self, index: usize) -> Option<InclusionProof> {
        if index >= self.leaf_count() {
            return None;
        }
        let mut proof = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_idx = if idx.is_multiple_of(2) {
                idx + 1
            } else {
                idx - 1
            };
            let sibling = *level.get(sibling_idx).unwrap_or(&level[idx]);
            proof.push(ProofStep {
                sibling,
                sibling_on_right: idx.is_multiple_of(2),
            });
            idx /= 2;
        }
        Some(proof)
    }

    /// Verifies that `leaf_data` is included under `root` via `proof`.
    #[must_use]
    pub fn verify_proof(root: &NodeHash, leaf_data: &[u8], proof: &InclusionProof) -> bool {
        let mut acc = hash_leaf(leaf_data);
        for step in proof {
            acc = if step.sibling_on_right {
                hash_node(&acc, &step.sibling)
            } else {
                hash_node(&step.sibling, &acc)
            };
        }
        &acc == root
    }
}

/// An append-only Merkle accumulator: the "mountain range" of perfect
/// subtree peaks over everything appended so far.
///
/// [`MerkleTree`] rebuilds the whole tree from scratch on every seal —
/// O(n) hashes per seal, O(n²) over the life of a store that seals
/// periodically. The accumulator instead keeps at most one peak per power
/// of two (like binary addition: appending a leaf "carries" equal-height
/// peaks upward), so an append costs O(log n) amortised hashes and a seal
/// costs O(log n) — no re-hashing of history.
///
/// [`MerkleAccumulator::root`] is **identical to the batch tree's root**
/// for the same leaf sequence: the fold replicates the tree's
/// duplicate-odd-promotion rule (an unpaired node at any level pairs with
/// itself) rather than classic mountain-range "bagging", so existing
/// inclusion proofs and sealed roots stay compatible.
///
/// The structure is fixed-size (no heap), so it can live inside hot-path
/// state without violating the allocation budget.
///
/// # Example
///
/// ```
/// use cres_crypto::merkle::{MerkleAccumulator, MerkleTree};
/// let mut acc = MerkleAccumulator::new();
/// for leaf in [b"a".as_slice(), b"b", b"c"] {
///     acc.append(leaf);
/// }
/// let tree = MerkleTree::build([b"a".as_slice(), b"b", b"c"]);
/// assert_eq!(acc.root(), Some(tree.root()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MerkleAccumulator {
    // peaks[h] = root of a perfect subtree of 2^h leaves, or None. At most
    // one peak per height — exactly the binary representation of `leaves`.
    peaks: [Option<NodeHash>; 64],
    leaves: u64,
}

impl Default for MerkleAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl MerkleAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        MerkleAccumulator {
            peaks: [None; 64],
            leaves: 0,
        }
    }

    /// Number of leaves appended so far.
    pub fn leaf_count(&self) -> u64 {
        self.leaves
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.leaves == 0
    }

    /// Forgets everything, returning to the empty state.
    pub fn clear(&mut self) {
        self.peaks = [None; 64];
        self.leaves = 0;
    }

    /// Appends a raw leaf (domain-separated exactly like
    /// [`MerkleTree::build`]).
    pub fn append(&mut self, leaf_data: &[u8]) {
        self.push(hash_leaf(leaf_data));
    }

    /// Appends a borrowed 32-byte digest leaf — the evidence-store case,
    /// matching [`MerkleTree::build_from_hashes`].
    pub fn append_digest(&mut self, digest: &[u8; 32]) {
        self.push(hash_leaf(digest.as_slice()));
    }

    fn push(&mut self, mut node: NodeHash) {
        // Binary carry: merge equal-height peaks upward until a free slot.
        let mut height = 0usize;
        while let Some(peak) = self.peaks[height].take() {
            node = hash_node(&peak, &node);
            height += 1;
        }
        self.peaks[height] = Some(node);
        self.leaves += 1;
    }

    /// The root over all leaves appended so far, equal to
    /// `MerkleTree::build(..).root()` for the same sequence; `None` when
    /// empty.
    ///
    /// Folding ascending by height: the running remainder (everything to
    /// the right of the current peak) is first *promoted* to the peak's
    /// height by pairing it with itself at each missing level — the batch
    /// tree's odd-node rule — then combined with the peak on the left.
    pub fn root(&self) -> Option<NodeHash> {
        let mut acc: Option<(NodeHash, usize)> = None;
        for (height, peak) in self.peaks.iter().enumerate() {
            let Some(peak) = peak else { continue };
            acc = Some(match acc {
                None => (*peak, height),
                Some((mut rem, mut rem_h)) => {
                    while rem_h < height {
                        rem = hash_node(&rem, &rem);
                        rem_h += 1;
                    }
                    (hash_node(peak, &rem), height + 1)
                }
            });
        }
        acc.map(|(root, _)| root)
    }

    /// An inclusion proof for digest leaf `index` against this
    /// accumulator's root.
    ///
    /// The accumulator keeps only O(log n) peaks, not the leaf history, so
    /// the caller supplies the digest sequence it accumulated (the evidence
    /// store's record MACs). The proof is rebuilt through the batch tree —
    /// whose root is bit-identical to [`MerkleAccumulator::root`] — and the
    /// call returns `None` when `index` is out of range, when the leaf
    /// count disagrees with what was appended, or when the supplied leaves
    /// no longer reproduce the accumulated root (tampered history).
    pub fn inclusion_proof<'a>(
        &self,
        leaves: impl IntoIterator<Item = &'a [u8; 32]>,
        index: u64,
    ) -> Option<InclusionProof> {
        if self.is_empty() || index >= self.leaves {
            return None;
        }
        let tree = MerkleTree::build_from_hashes(leaves);
        if tree.leaf_count() as u64 != self.leaves || Some(tree.root()) != self.root() {
            return None;
        }
        tree.inclusion_proof(index as usize)
    }

    /// Verifies that `digest` is a leaf of this accumulator via `proof`
    /// (the counterpart of [`MerkleAccumulator::inclusion_proof`]).
    #[must_use]
    pub fn verify_proof(&self, digest: &[u8; 32], proof: &InclusionProof) -> bool {
        self.root()
            .is_some_and(|root| MerkleTree::verify_proof(&root, digest.as_slice(), proof))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn single_leaf_tree() {
        let tree = MerkleTree::build([b"only".as_slice()]);
        assert_eq!(tree.leaf_count(), 1);
        let proof = tree.inclusion_proof(0).unwrap();
        assert!(proof.is_empty());
        assert!(MerkleTree::verify_proof(&tree.root(), b"only", &proof));
    }

    #[test]
    fn all_proofs_verify_various_sizes() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 33] {
            let data = leaves(n);
            let tree = MerkleTree::build(data.iter().map(|v| v.as_slice()));
            for (i, leaf) in data.iter().enumerate() {
                let proof = tree.inclusion_proof(i).unwrap();
                assert!(
                    MerkleTree::verify_proof(&tree.root(), leaf, &proof),
                    "n={n} leaf={i}"
                );
            }
        }
    }

    #[test]
    fn proof_fails_for_wrong_leaf() {
        let data = leaves(8);
        let tree = MerkleTree::build(data.iter().map(|v| v.as_slice()));
        let proof = tree.inclusion_proof(3).unwrap();
        assert!(!MerkleTree::verify_proof(&tree.root(), b"leaf-4", &proof));
    }

    #[test]
    fn proof_fails_for_wrong_root() {
        let data = leaves(4);
        let tree = MerkleTree::build(data.iter().map(|v| v.as_slice()));
        let proof = tree.inclusion_proof(0).unwrap();
        let mut bad_root = tree.root();
        bad_root[0] ^= 1;
        assert!(!MerkleTree::verify_proof(&bad_root, b"leaf-0", &proof));
    }

    #[test]
    fn proof_fails_when_tampered() {
        let data = leaves(8);
        let tree = MerkleTree::build(data.iter().map(|v| v.as_slice()));
        let mut proof = tree.inclusion_proof(2).unwrap();
        proof[1].sibling[5] ^= 1;
        assert!(!MerkleTree::verify_proof(&tree.root(), b"leaf-2", &proof));
    }

    #[test]
    fn out_of_range_proof_is_none() {
        let data = leaves(3);
        let tree = MerkleTree::build(data.iter().map(|v| v.as_slice()));
        assert!(tree.inclusion_proof(3).is_none());
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let base = leaves(6);
        let tree = MerkleTree::build(base.iter().map(|v| v.as_slice()));
        for i in 0..6 {
            let mut changed = base.clone();
            changed[i][0] ^= 1;
            let t2 = MerkleTree::build(changed.iter().map(|v| v.as_slice()));
            assert_ne!(tree.root(), t2.root(), "leaf {i}");
        }
    }

    #[test]
    fn leaf_interior_domain_separation() {
        // A tree over [h] where h encodes an interior node must not equal
        // the parent of that interior node — the 0x00/0x01 prefixes prevent
        // the classic splice.
        let a = hash_leaf(b"a");
        let b = hash_leaf(b"b");
        let interior = hash_node(&a, &b);
        let tree_over_interior = MerkleTree::build([interior.as_slice()]);
        let two_leaf_tree = MerkleTree::build([b"a".as_slice(), b"b".as_slice()]);
        assert_ne!(tree_over_interior.root(), two_leaf_tree.root());
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn empty_tree_panics() {
        let _ = MerkleTree::build(std::iter::empty::<&[u8]>());
    }

    #[test]
    fn accumulator_empty_root_is_none() {
        assert_eq!(MerkleAccumulator::new().root(), None);
        assert!(MerkleAccumulator::new().is_empty());
    }

    #[test]
    fn accumulator_matches_batch_tree_all_sizes() {
        let data = leaves(130);
        let mut acc = MerkleAccumulator::new();
        for (n, leaf) in data.iter().enumerate() {
            acc.append(leaf);
            let tree = MerkleTree::build(data[..=n].iter().map(|v| v.as_slice()));
            assert_eq!(acc.root(), Some(tree.root()), "n={}", n + 1);
            assert_eq!(acc.leaf_count(), (n + 1) as u64);
        }
    }

    #[test]
    fn accumulator_digest_leaves_match_build_from_hashes() {
        let digests: Vec<NodeHash> = (0..37u8).map(|i| Sha256::digest(&[i])).collect();
        let mut acc = MerkleAccumulator::new();
        for (n, d) in digests.iter().enumerate() {
            acc.append_digest(d);
            let tree = MerkleTree::build_from_hashes(digests[..=n].iter());
            assert_eq!(acc.root(), Some(tree.root()), "n={}", n + 1);
        }
    }

    #[test]
    fn accumulator_proofs_verify_exhaustively() {
        // Every leaf of every size 1..=130 — the same exhaustive sweep the
        // accumulator/batch-tree root equivalence is pinned with.
        let digests: Vec<NodeHash> = (0..130u8).map(|i| Sha256::digest(&[i])).collect();
        let mut acc = MerkleAccumulator::new();
        for (n, d) in digests.iter().enumerate() {
            acc.append_digest(d);
            let covered = &digests[..=n];
            for (i, leaf) in covered.iter().enumerate() {
                let proof = acc.inclusion_proof(covered.iter(), i as u64).unwrap();
                assert!(acc.verify_proof(leaf, &proof), "n={} leaf={i}", n + 1);
            }
            assert!(acc
                .inclusion_proof(covered.iter(), (n + 1) as u64)
                .is_none());
        }
    }

    #[test]
    fn accumulator_proof_rejects_tampered_history() {
        let digests: Vec<NodeHash> = (0..13u8).map(|i| Sha256::digest(&[i])).collect();
        let mut acc = MerkleAccumulator::new();
        for d in &digests {
            acc.append_digest(d);
        }
        // swapped leaf: the supplied history no longer matches the root
        let mut forged = digests.clone();
        forged[4][0] ^= 1;
        assert!(acc.inclusion_proof(forged.iter(), 4).is_none());
        // truncated history: leaf count disagrees
        assert!(acc.inclusion_proof(digests[..12].iter(), 3).is_none());
        // wrong-leaf verification fails
        let proof = acc.inclusion_proof(digests.iter(), 4).unwrap();
        assert!(acc.verify_proof(&digests[4], &proof));
        assert!(!acc.verify_proof(&digests[5], &proof));
        // empty accumulator has nothing to prove or verify
        let empty = MerkleAccumulator::new();
        assert!(empty.inclusion_proof(std::iter::empty(), 0).is_none());
        assert!(!empty.verify_proof(&digests[0], &proof));
    }

    #[test]
    fn accumulator_clear_restarts() {
        let mut acc = MerkleAccumulator::new();
        acc.append(b"old");
        acc.clear();
        assert!(acc.is_empty());
        acc.append(b"only");
        let tree = MerkleTree::build([b"only".as_slice()]);
        assert_eq!(acc.root(), Some(tree.root()));
    }
}
