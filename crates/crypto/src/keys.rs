//! Simulated asymmetric signature scheme with a key registry.
//!
//! The paper's prototype uses ECDSA (§V-B). This reproduction keeps its
//! dependencies to the approved workspace crates, so signatures are
//! *simulated*: signing computes `HMAC-SHA256(secret_i, msg)` and
//! verification recomputes the tag through a shared [`Verifier`] registry
//! that models the PKI. The two properties the protocol relies on are
//! preserved:
//!
//! 1. **Unforgeability (within the simulation).** Adversarial protocol code
//!    only ever receives its own [`Signer`]; secrets are never exposed by
//!    the public API, so a Byzantine node cannot produce a tag that verifies
//!    under another node's identity (guessing a 256-bit MAC).
//! 2. **Wire size.** Signatures occupy
//!    [`SIGNATURE_WIRE_BYTES`](crate::wire::SIGNATURE_WIRE_BYTES) bytes in
//!    all byte accounting, matching the 64-byte ECDSA signatures of the
//!    paper's implementation.

use std::sync::Arc;

use crate::hmac::HmacKey;

/// Identity of a signer. Node ids are dense indices below the system size
/// `n` (the paper's processes `p_1 … p_n`).
pub type SignerId = u16;

/// A signature: the signer's identity plus an HMAC tag over the message.
///
/// Equality is byte-wise; a signature transported through Byzantine hands
/// either arrives intact or fails [`Verifier::verify`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    signer: SignerId,
    tag: [u8; 32],
}

impl Signature {
    /// Identity that produced (or claims to have produced) this signature.
    pub fn signer(&self) -> SignerId {
        self.signer
    }

    /// Raw tag bytes (for wire encoding).
    pub fn tag(&self) -> &[u8; 32] {
        &self.tag
    }

    /// Builds a signature from raw parts — the entry point for *forgery
    /// attempts* in Byzantine behaviours. The result will only verify if the
    /// tag actually matches the signer's secret.
    pub fn from_parts(signer: SignerId, tag: [u8; 32]) -> Self {
        Signature { signer, tag }
    }
}

/// The key registry: generates one secret per node and hands out [`Signer`]s
/// (capability to sign as one identity) and [`Verifier`]s (capability to
/// check any identity's signatures, modelling public keys).
#[derive(Debug, Clone)]
pub struct KeyStore {
    secrets: Arc<Vec<HmacKey>>,
}

impl KeyStore {
    /// Deterministically derives `n` node secrets from `seed`.
    ///
    /// Derivation: `secret_i = HMAC-SHA256(seed_bytes, i)`, so different
    /// seeds give unrelated key universes and runs are reproducible. Each
    /// secret is kept only in prepared form ([`HmacKey`]): the pad blocks
    /// are absorbed here, once, not on every signature.
    pub fn generate(n: usize, seed: u64) -> Self {
        let master = HmacKey::new(&seed.to_be_bytes());
        let secrets =
            (0..n).map(|i| HmacKey::new(&master.tag(&(i as u64).to_be_bytes()))).collect();
        KeyStore { secrets: Arc::new(secrets) }
    }

    /// Number of identities in the registry.
    pub fn len(&self) -> usize {
        self.secrets.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.secrets.is_empty()
    }

    /// Signing capability for node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the registry.
    pub fn signer(&self, id: SignerId) -> Signer {
        assert!((id as usize) < self.secrets.len(), "signer id {id} outside key registry");
        Signer { id, secret: self.secrets[id as usize].clone() }
    }

    /// Verification capability covering every identity (models knowing all
    /// public keys).
    pub fn verifier(&self) -> Verifier {
        Verifier { secrets: Arc::clone(&self.secrets) }
    }
}

/// Capability to sign messages as one identity.
#[derive(Debug, Clone)]
pub struct Signer {
    id: SignerId,
    secret: HmacKey,
}

impl Signer {
    /// The identity this signer signs as.
    pub fn id(&self) -> SignerId {
        self.id
    }

    /// Signs `msg`, producing σ_id(msg).
    pub fn sign(&self, msg: &[u8]) -> Signature {
        Signature { signer: self.id, tag: self.secret.tag(msg) }
    }
}

/// Capability to verify any node's signatures.
#[derive(Debug, Clone)]
pub struct Verifier {
    secrets: Arc<Vec<HmacKey>>,
}

impl Verifier {
    /// Checks that `sig` is a valid signature over `msg` by `sig.signer()`.
    ///
    /// Unknown signer ids verify as `false` (the paper excludes Sybil
    /// identities: "Byzantine nodes cannot spawn new nodes or generate new
    /// identities", §II).
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        match self.secrets.get(sig.signer as usize) {
            Some(secret) => secret.tag(msg) == sig.tag,
            None => false,
        }
    }

    /// [`verify`](Self::verify) on both pairs, computing the two tags as
    /// one [`HmacKey::tag_pair`]: `true` only if both signers are known and
    /// both tags match.
    pub(crate) fn verify_pair(
        &self,
        (msg_a, sig_a): (&[u8], &Signature),
        (msg_b, sig_b): (&[u8], &Signature),
    ) -> bool {
        let secret = |sig: &Signature| self.secrets.get(sig.signer as usize);
        match (secret(sig_a), secret(sig_b)) {
            (Some(a), Some(b)) => {
                HmacKey::tag_pair((a, msg_a), (b, msg_b)) == [sig_a.tag, sig_b.tag]
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip() {
        let ks = KeyStore::generate(4, 7);
        let signer = ks.signer(2);
        let verifier = ks.verifier();
        let sig = signer.sign(b"hello");
        assert_eq!(sig.signer(), 2);
        assert!(verifier.verify(b"hello", &sig));
    }

    #[test]
    fn tampered_message_fails() {
        let ks = KeyStore::generate(4, 7);
        let sig = ks.signer(1).sign(b"hello");
        assert!(!ks.verifier().verify(b"hellO", &sig));
    }

    #[test]
    fn impersonation_fails() {
        // Node 3 signs but claims to be node 0.
        let ks = KeyStore::generate(4, 7);
        let honest = ks.signer(3).sign(b"msg");
        let forged = Signature::from_parts(0, *honest.tag());
        assert!(!ks.verifier().verify(b"msg", &forged));
    }

    #[test]
    fn random_tag_fails() {
        let ks = KeyStore::generate(4, 7);
        let forged = Signature::from_parts(1, [0xab; 32]);
        assert!(!ks.verifier().verify(b"msg", &forged));
    }

    #[test]
    fn unknown_identity_fails() {
        let ks = KeyStore::generate(2, 7);
        let other = KeyStore::generate(5, 7);
        let sig = other.signer(4).sign(b"msg");
        assert!(!ks.verifier().verify(b"msg", &sig));
    }

    #[test]
    fn different_seeds_are_unrelated() {
        let a = KeyStore::generate(2, 1).signer(0).sign(b"msg");
        let b = KeyStore::generate(2, 2).signer(0).sign(b"msg");
        assert_ne!(a, b);
    }

    #[test]
    fn same_seed_is_deterministic() {
        let a = KeyStore::generate(3, 9).signer(1).sign(b"msg");
        let b = KeyStore::generate(3, 9).signer(1).sign(b"msg");
        assert_eq!(a, b);
    }

    #[test]
    fn debug_never_prints_key_material() {
        let ks = KeyStore::generate(1, 3);
        let printed = format!("{:?}{:?}", ks, ks.signer(0));
        assert!(printed.contains("redacted"));
        assert!(!printed.contains("[0x"));
    }

    #[test]
    fn a_pair_verifies_only_when_both_lanes_do() {
        let ks = KeyStore::generate(4, 7);
        let verifier = ks.verifier();
        let good = ks.signer(1).sign(b"first");
        let other = ks.signer(2).sign(b"second");
        let bad = Signature::from_parts(1, [0xab; 32]);
        let unknown = KeyStore::generate(5, 7).signer(4).sign(b"second");
        fn lane<'a>(msg: &'a [u8], sig: &'a Signature) -> (&'a [u8], &'a Signature) {
            (msg, sig)
        }
        let (first, second) = (lane(b"first", &good), lane(b"second", &other));
        assert!(verifier.verify_pair(first, second));
        assert!(verifier.verify_pair(second, first));
        for (a, b, why) in [
            (lane(b"first", &bad), second, "lane A's tag is bad"),
            (first, lane(b"second", &bad), "lane B's tag is bad"),
            (first, lane(b"first", &other), "lane B signs another message"),
            (lane(b"second", &unknown), second, "lane A's signer is unknown"),
            (first, lane(b"second", &unknown), "lane B's signer is unknown"),
        ] {
            assert!(!verifier.verify_pair(a, b), "{why}");
        }
    }

    #[test]
    #[should_panic(expected = "outside key registry")]
    fn signer_out_of_range_panics() {
        KeyStore::generate(2, 0).signer(2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sign_verify_round_trips_on_arbitrary_messages(
            msg in proptest::collection::vec(proptest::num::u8::ANY, 0..512),
            id in 0u16..8,
            seed in 0u64..1000,
        ) {
            let ks = KeyStore::generate(8, seed);
            let sig = ks.signer(id).sign(&msg);
            prop_assert!(ks.verifier().verify(&msg, &sig));
        }

        #[test]
        fn any_single_bit_flip_breaks_verification(
            msg in proptest::collection::vec(proptest::num::u8::ANY, 1..128),
            bit in 0usize..1024,
        ) {
            let ks = KeyStore::generate(4, 9);
            let sig = ks.signer(2).sign(&msg);
            let mut tampered = msg.clone();
            let bit = bit % (tampered.len() * 8);
            tampered[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(!ks.verifier().verify(&tampered, &sig));
        }

        #[test]
        fn signatures_never_collide_across_identities(
            msg in proptest::collection::vec(proptest::num::u8::ANY, 0..64),
            a in 0u16..8,
            b in 0u16..8,
        ) {
            prop_assume!(a != b);
            let ks = KeyStore::generate(8, 4);
            let sig_a = ks.signer(a).sign(&msg);
            let sig_b = ks.signer(b).sign(&msg);
            prop_assert_ne!(sig_a.tag(), sig_b.tag());
        }
    }
}
