//! Proofs of neighborhood.
//!
//! A `proof_{i,j}` lets node `i` declare an edge with `j` in a way that
//! "cannot be forged as soon as either `p_i` or `p_j` is correct" (§II).
//! We realize it as the canonical edge statement signed by **both**
//! endpoints: forging it requires both secrets, so two colluding Byzantine
//! nodes *can* mint a proof for a fictitious Byzantine–Byzantine edge —
//! exactly the power the paper grants them ("Byzantine nodes may however
//! forge proofs of neighborhood between Byzantine processes").

use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

use crate::keys::{Signature, Signer, SignerId, Verifier};
use crate::sha256::Sha256;

/// A both-endpoint-signed declaration of the undirected edge `(a, b)`.
///
/// The fields never change after construction, so the proof keeps its
/// [`digest`](Self::digest) once computed: a proof shared behind an `Arc`
/// is hashed once however many nodes relay it. Equality, hashing and
/// `Debug` read the four fields only, never the cache.
#[derive(Clone)]
pub struct NeighborhoodProof {
    a: SignerId,
    b: SignerId,
    sig_a: Signature,
    sig_b: Signature,
    digest: OnceLock<[u8; 32]>,
}

impl NeighborhoodProof {
    /// Canonical byte statement for the undirected edge `(a, b)`: endpoint
    /// order is normalized so both directions sign identical bytes.
    pub fn statement(a: SignerId, b: SignerId) -> Vec<u8> {
        statement_bytes(a, b).to_vec()
    }

    /// Builds the proof for the edge between the two signers.
    ///
    /// # Panics
    ///
    /// Panics if both signers share the same identity (self-loop).
    pub fn new(first: &Signer, second: &Signer) -> Self {
        assert!(first.id() != second.id(), "neighborhood proof requires two distinct endpoints");
        let (lo, hi) = if first.id() <= second.id() { (first, second) } else { (second, first) };
        let stmt = statement_bytes(lo.id(), hi.id());
        NeighborhoodProof::from_parts(lo.id(), hi.id(), lo.sign(&stmt), hi.sign(&stmt))
    }

    /// Assembles a proof from raw parts — the entry point for forgery
    /// attempts in Byzantine behaviours. Verification decides whether the
    /// parts are consistent.
    pub fn from_parts(a: SignerId, b: SignerId, sig_a: Signature, sig_b: Signature) -> Self {
        NeighborhoodProof { a, b, sig_a, sig_b, digest: OnceLock::new() }
    }

    /// The edge endpoints `(min, max)`.
    pub fn endpoints(&self) -> (SignerId, SignerId) {
        (self.a, self.b)
    }

    /// The smaller endpoint's signature (for wire encoding).
    pub fn sig_a(&self) -> &Signature {
        &self.sig_a
    }

    /// The larger endpoint's signature (for wire encoding).
    pub fn sig_b(&self) -> &Signature {
        &self.sig_b
    }

    /// Checks both endpoint signatures over the canonical statement, plus
    /// structural sanity (normalized order, signer identities matching the
    /// claimed endpoints, no self-loop).
    pub fn verify(&self, verifier: &Verifier) -> bool {
        if self.a >= self.b {
            return false;
        }
        if self.sig_a.signer() != self.a || self.sig_b.signer() != self.b {
            return false;
        }
        let stmt = statement_bytes(self.a, self.b);
        verifier.verify_pair((&stmt, &self.sig_a), (&stmt, &self.sig_b))
    }

    /// Digest of the proof contents, used as the payload binding for
    /// signature chains relaying this proof. The first call hashes the 76
    /// bytes; later calls on the same object (or on a clone taken after it)
    /// read the kept value.
    pub fn digest(&self) -> [u8; 32] {
        *self.digest.get_or_init(|| {
            let mut h = Sha256::new();
            h.update(&statement_bytes(self.a, self.b));
            for sig in [&self.sig_a, &self.sig_b] {
                h.update(&sig.signer().to_be_bytes());
                h.update(sig.tag());
            }
            h.finalize()
        })
    }

    /// The four fields that make the proof, without the digest cache.
    fn fields(&self) -> (SignerId, SignerId, &Signature, &Signature) {
        (self.a, self.b, &self.sig_a, &self.sig_b)
    }
}

impl PartialEq for NeighborhoodProof {
    fn eq(&self, other: &Self) -> bool {
        self.fields() == other.fields()
    }
}

impl Eq for NeighborhoodProof {}

impl Hash for NeighborhoodProof {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.fields().hash(state);
    }
}

impl std::fmt::Debug for NeighborhoodProof {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NeighborhoodProof")
            .field("a", &self.a)
            .field("b", &self.b)
            .field("sig_a", &self.sig_a)
            .field("sig_b", &self.sig_b)
            .finish()
    }
}

/// [`NeighborhoodProof::statement`] on the stack, for the signing, verifying
/// and digesting paths that run once per relayed edge.
fn statement_bytes(a: SignerId, b: SignerId) -> [u8; 8] {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let mut out = *b"edge\0\0\0\0";
    out[4..6].copy_from_slice(&lo.to_be_bytes());
    out[6..].copy_from_slice(&hi.to_be_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyStore;

    fn store() -> KeyStore {
        KeyStore::generate(6, 42)
    }

    #[test]
    fn proof_round_trip() {
        let ks = store();
        let proof = NeighborhoodProof::new(&ks.signer(3), &ks.signer(1));
        assert_eq!(proof.endpoints(), (1, 3));
        assert!(proof.verify(&ks.verifier()));
    }

    #[test]
    fn endpoint_order_is_normalized() {
        let ks = store();
        let p1 = NeighborhoodProof::new(&ks.signer(3), &ks.signer(1));
        let p2 = NeighborhoodProof::new(&ks.signer(1), &ks.signer(3));
        assert_eq!(p1, p2);
        assert_eq!(p1.digest(), p2.digest());
    }

    #[test]
    fn one_correct_endpoint_makes_forgery_fail() {
        // A Byzantine node (5) tries to claim an edge with correct node 0
        // without node 0's signature: it signs both slots itself.
        let ks = store();
        let byz = ks.signer(5);
        let stmt = NeighborhoodProof::statement(0, 5);
        let forged = NeighborhoodProof::from_parts(
            0,
            5,
            crate::keys::Signature::from_parts(0, *byz.sign(&stmt).tag()),
            byz.sign(&stmt),
        );
        assert!(!forged.verify(&ks.verifier()));
    }

    #[test]
    fn colluding_byzantine_pair_can_mint_fictitious_edge() {
        // Both endpoints Byzantine: the proof is structurally valid, exactly
        // as the paper permits (§II).
        let ks = store();
        let proof = NeighborhoodProof::new(&ks.signer(4), &ks.signer(5));
        assert!(proof.verify(&ks.verifier()));
    }

    #[test]
    fn mismatched_endpoints_fail() {
        let ks = store();
        let honest = NeighborhoodProof::new(&ks.signer(0), &ks.signer(1));
        let (a, b) = honest.endpoints();
        // Re-label the proof as covering a different edge.
        let relabeled =
            NeighborhoodProof::from_parts(a, b + 1, honest.sig_a.clone(), honest.sig_b.clone());
        assert!(!relabeled.verify(&ks.verifier()));
    }

    #[test]
    fn self_loop_shape_fails_verification() {
        let ks = store();
        let s = ks.signer(2);
        let stmt = NeighborhoodProof::statement(2, 2);
        let p = NeighborhoodProof::from_parts(2, 2, s.sign(&stmt), s.sign(&stmt));
        assert!(!p.verify(&ks.verifier()));
    }

    /// The digest cache is invisible: the cached value is the hash of the
    /// fields, it is paid for once, and no comparison, hash or `Debug`
    /// print can tell whether it is filled.
    #[test]
    fn digest_cache_is_pure() {
        use crate::sha256::{compressions_in, sha256};
        use std::collections::hash_map::DefaultHasher;

        let ks = store();
        let byz = ks.signer(5);
        let stmt = NeighborhoodProof::statement(0, 5);
        let honest = NeighborhoodProof::new(&ks.signer(4), &ks.signer(1));
        let forged = NeighborhoodProof::from_parts(
            0,
            5,
            crate::keys::Signature::from_parts(0, *byz.sign(&stmt).tag()),
            byz.sign(&stmt),
        );
        let hash_of = |p: &NeighborhoodProof| {
            let mut h = DefaultHasher::new();
            p.hash(&mut h);
            h.finish()
        };
        for proof in [honest, forged] {
            let (a, b) = proof.endpoints();
            let mut bytes = NeighborhoodProof::statement(a, b);
            for sig in [proof.sig_a(), proof.sig_b()] {
                bytes.extend_from_slice(&sig.signer().to_be_bytes());
                bytes.extend_from_slice(sig.tag());
            }
            assert_eq!(bytes.len(), 76);

            let debug_cold = format!("{proof:?} {proof:#?}");
            let cold = proof.clone();
            let (first, paid) = compressions_in(|| proof.digest());
            let (again, repaid) = compressions_in(|| proof.digest());
            assert_eq!(first, sha256(&bytes), "{a}-{b}: cached digest is not the hash");
            assert_eq!(again, first);
            assert_eq!((paid, repaid), (2, 0), "{a}-{b}: hashed once, then read");

            let warm = proof.clone();
            assert_eq!(compressions_in(|| warm.digest()), (first, 0), "the clone keeps it");
            assert_eq!(cold, warm);
            assert_eq!(cold, proof);
            assert_eq!(hash_of(&cold), hash_of(&warm));
            assert_eq!(format!("{proof:?} {proof:#?}"), debug_cold);
            assert_eq!(format!("{warm:?} {warm:#?}"), debug_cold);
            assert_eq!(compressions_in(|| cold.digest()), (first, 2), "a cold clone pays once");
        }
    }

    #[test]
    fn digests_distinguish_edges() {
        let ks = store();
        let p1 = NeighborhoodProof::new(&ks.signer(0), &ks.signer(1));
        let p2 = NeighborhoodProof::new(&ks.signer(0), &ks.signer(2));
        assert_ne!(p1.digest(), p2.digest());
    }
}
