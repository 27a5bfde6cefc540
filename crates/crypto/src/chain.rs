//! Chained signatures σ_j(σ_i(msg)).
//!
//! NECTAR relays every discovered edge inside a signature chain whose length
//! must equal the current round number (Alg. 1 l. 14): each relay appends
//! its own signature over everything it received. The chain both
//! authenticates the relay path and timestamps the message — a Byzantine
//! node cannot replay an edge "late" without producing a chain of the wrong
//! length, and cannot splice chains because every link signs the running
//! digest of all previous links (the Dolev–Strong argument of Lemma 2).

use serde::{Deserialize, Serialize};

use crate::keys::{Signature, Signer, SignerId, Verifier};
use crate::sha256::Sha256;

/// A signature chain over a fixed payload digest.
///
/// Link `1` signs the payload digest; link `i + 1` signs
/// `SHA256(digest_i ‖ signer_i ‖ tag_i)`, so links cannot be reordered,
/// dropped or transplanted onto another payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct SignatureChain {
    links: Vec<Signature>,
}

impl SignatureChain {
    /// The empty chain (no signatures yet).
    pub fn new() -> Self {
        SignatureChain { links: Vec::new() }
    }

    /// Number of links — the paper's `lengthSign(msg)`.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the chain has no links.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Identities along the chain, innermost first.
    pub fn signers(&self) -> impl Iterator<Item = SignerId> + '_ {
        self.links.iter().map(Signature::signer)
    }

    /// The innermost (first) signer, if any.
    pub fn innermost_signer(&self) -> Option<SignerId> {
        self.links.first().map(Signature::signer)
    }

    /// The outermost (most recent) signer, if any.
    pub fn outermost_signer(&self) -> Option<SignerId> {
        self.links.last().map(Signature::signer)
    }

    /// Whether all link signers are pairwise distinct. Correct relays never
    /// re-forward an edge they already signed, so duplicate signers expose a
    /// Byzantine-crafted chain.
    ///
    /// A pairwise scan, so it allocates nothing: chains are a handful of
    /// links long (one per hop), and the protocol's length-equals-round
    /// check bounds a crafted one by `n − 1` before this runs.
    pub fn signers_distinct(&self) -> bool {
        let ids = || self.links.iter().map(Signature::signer);
        ids().enumerate().all(|(i, id)| ids().take(i).all(|earlier| earlier != id))
    }

    /// Returns a new chain extended by `signer`'s signature over the running
    /// digest (σ_signer(previous chain)).
    ///
    /// Re-derives the running digest from `payload_digest`, one hash per
    /// link. A relay that has just verified this chain already holds that
    /// digest ([`verify_running`](Self::verify_running)) and signs it through
    /// [`extend_at`](Self::extend_at) instead.
    pub fn extend(&self, signer: &Signer, payload_digest: &[u8; 32]) -> SignatureChain {
        self.extend_at(signer, &self.running_digest(payload_digest))
    }

    /// Returns a new chain extended by `signer`'s signature over `running`,
    /// which must be this chain's running digest: the value
    /// [`verify_running`](Self::verify_running) returned for it (for the
    /// empty chain, the payload digest itself). One HMAC, whatever the chain
    /// length. A wrong `running` yields a chain that fails verification —
    /// the same power [`from_links`](Self::from_links) already grants.
    pub fn extend_at(&self, signer: &Signer, running: &[u8; 32]) -> SignatureChain {
        let mut links = Vec::with_capacity(self.links.len() + 1);
        links.extend_from_slice(&self.links);
        links.push(signer.sign(running));
        SignatureChain { links }
    }

    /// Verifies every link over `payload_digest`.
    pub fn verify(&self, verifier: &Verifier, payload_digest: &[u8; 32]) -> bool {
        self.verify_running(verifier, payload_digest).is_some()
    }

    /// Verifies every link over `payload_digest` and returns the running
    /// digest the *next* link signs — the walk's last fold, which a relay
    /// hands to [`extend_at`](Self::extend_at) rather than recomputing.
    /// `None` exactly when [`verify`](Self::verify) is `false`.
    pub fn verify_running(
        &self,
        verifier: &Verifier,
        payload_digest: &[u8; 32],
    ) -> Option<[u8; 32]> {
        let mut digest = *payload_digest;
        for link in &self.links {
            if !verifier.verify(&digest, link) {
                return None;
            }
            digest = fold(&digest, link);
        }
        Some(digest)
    }

    /// Raw links, innermost first (for wire encoding).
    pub fn links(&self) -> &[Signature] {
        &self.links
    }

    /// Assembles a chain from raw links — the entry point for forgery
    /// attempts in Byzantine behaviours.
    pub fn from_links(links: Vec<Signature>) -> Self {
        SignatureChain { links }
    }

    /// Digest the next link would sign.
    fn running_digest(&self, payload_digest: &[u8; 32]) -> [u8; 32] {
        let mut digest = *payload_digest;
        for link in &self.links {
            digest = fold(&digest, link);
        }
        digest
    }
}

fn fold(digest: &[u8; 32], link: &Signature) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(digest);
    h.update(&link.signer().to_be_bytes());
    h.update(link.tag());
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyStore;
    use crate::sha256::{compressions_in, sha256};

    fn setup() -> (KeyStore, [u8; 32]) {
        (KeyStore::generate(6, 99), sha256(b"payload"))
    }

    #[test]
    fn empty_chain_verifies_trivially() {
        let (ks, digest) = setup();
        let chain = SignatureChain::new();
        assert!(chain.is_empty());
        assert!(chain.verify(&ks.verifier(), &digest));
    }

    #[test]
    fn extend_and_verify_three_links() {
        let (ks, digest) = setup();
        let chain = SignatureChain::new()
            .extend(&ks.signer(0), &digest)
            .extend(&ks.signer(1), &digest)
            .extend(&ks.signer(2), &digest);
        assert_eq!(chain.len(), 3);
        assert_eq!(chain.innermost_signer(), Some(0));
        assert_eq!(chain.outermost_signer(), Some(2));
        assert!(chain.signers_distinct());
        assert!(chain.verify(&ks.verifier(), &digest));
    }

    #[test]
    fn wrong_payload_fails() {
        let (ks, digest) = setup();
        let chain = SignatureChain::new().extend(&ks.signer(0), &digest);
        let other = sha256(b"other payload");
        assert!(!chain.verify(&ks.verifier(), &other));
    }

    #[test]
    fn reordered_links_fail() {
        let (ks, digest) = setup();
        let chain =
            SignatureChain::new().extend(&ks.signer(0), &digest).extend(&ks.signer(1), &digest);
        let mut links = chain.links().to_vec();
        links.swap(0, 1);
        let reordered = SignatureChain::from_links(links);
        assert!(!reordered.verify(&ks.verifier(), &digest));
    }

    #[test]
    fn truncated_chain_still_verifies_as_prefix() {
        // Chains are prefix-verifiable by design: dropping the outer links
        // yields the inner (older) chain. NECTAR defends against truncation
        // replay with the length-equals-round check, not the chain itself.
        let (ks, digest) = setup();
        let chain =
            SignatureChain::new().extend(&ks.signer(0), &digest).extend(&ks.signer(1), &digest);
        let truncated = SignatureChain::from_links(chain.links()[..1].to_vec());
        assert!(truncated.verify(&ks.verifier(), &digest));
        assert_eq!(truncated.len(), 1);
    }

    #[test]
    fn spliced_link_from_other_chain_fails() {
        let (ks, digest) = setup();
        let a = SignatureChain::new().extend(&ks.signer(0), &digest).extend(&ks.signer(1), &digest);
        let other_digest = sha256(b"other");
        let b = SignatureChain::new()
            .extend(&ks.signer(0), &other_digest)
            .extend(&ks.signer(2), &other_digest);
        let mut links = a.links().to_vec();
        links[1] = b.links()[1].clone();
        assert!(!SignatureChain::from_links(links).verify(&ks.verifier(), &digest));
    }

    #[test]
    fn duplicate_signers_are_detected() {
        let (ks, digest) = setup();
        let chain =
            SignatureChain::new().extend(&ks.signer(0), &digest).extend(&ks.signer(0), &digest);
        assert!(!chain.signers_distinct());
        // The chain itself is cryptographically valid; the protocol layer
        // rejects it via the distinctness rule.
        assert!(chain.verify(&ks.verifier(), &digest));
    }

    #[test]
    fn the_cost_model_holds_in_compressions() {
        // Per link: one 32-byte tag (2) plus one 66-byte fold (2). Signing
        // at a known running digest: one tag, whatever the length.
        let (ks, digest) = setup();
        let verifier = ks.verifier();
        let mut chain = SignatureChain::new();
        for len in 0..=5u64 {
            let (running, n) = compressions_in(|| chain.verify_running(&verifier, &digest));
            assert_eq!(n, 4 * len, "verifying {len} links");
            let running = running.expect("an honest chain verifies");
            let (next, n) = compressions_in(|| chain.extend_at(&ks.signer(len as u16), &running));
            assert_eq!(n, 2, "extending {len} links at a known digest");
            // From scratch, the same link costs the re-fold on top.
            let (from_scratch, n) =
                compressions_in(|| chain.extend(&ks.signer(len as u16), &digest));
            assert_eq!(n, 2 * len + 2);
            assert_eq!(from_scratch, next);
            chain = next;
        }
    }

    #[test]
    fn forged_link_fails() {
        let (ks, digest) = setup();
        let forged =
            SignatureChain::from_links(vec![crate::keys::Signature::from_parts(3, [7; 32])]);
        assert!(!forged.verify(&ks.verifier(), &digest));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::keys::KeyStore;
    use crate::sha256::sha256;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn chains_of_any_shape_verify(
            payload in proptest::collection::vec(proptest::num::u8::ANY, 0..64),
            signers in proptest::collection::vec(0u16..10, 0..8),
        ) {
            let ks = KeyStore::generate(10, 6);
            let digest = sha256(&payload);
            let mut chain = SignatureChain::new();
            for &s in &signers {
                chain = chain.extend(&ks.signer(s), &digest);
            }
            prop_assert_eq!(chain.len(), signers.len());
            prop_assert!(chain.verify(&ks.verifier(), &digest));
            prop_assert_eq!(chain.signers().collect::<Vec<_>>(), signers.clone());
            // Prefixes verify too (length checks are the protocol's job).
            let prefix = SignatureChain::from_links(chain.links()[..signers.len() / 2].to_vec());
            prop_assert!(prefix.verify(&ks.verifier(), &digest));
        }

        #[test]
        fn the_verification_walk_returns_what_the_next_link_signs(
            payload in proptest::collection::vec(proptest::num::u8::ANY, 0..64),
            signers in proptest::collection::vec(0u16..10, 1..8),
        ) {
            let ks = KeyStore::generate(10, 6);
            let verifier = ks.verifier();
            let digest = sha256(&payload);
            let mut at_running = SignatureChain::new();
            let mut from_scratch = SignatureChain::new();
            for &s in &signers {
                // Link for link, signing the walk's digest is `extend`.
                let running = at_running.verify_running(&verifier, &digest);
                prop_assert_eq!(running, Some(at_running.running_digest(&digest)));
                at_running = at_running.extend_at(&ks.signer(s), &running.unwrap());
                from_scratch = from_scratch.extend(&ks.signer(s), &digest);
                prop_assert_eq!(&at_running, &from_scratch);
            }
        }

        #[test]
        fn the_walk_is_none_exactly_when_verify_is_false(
            signers in proptest::collection::vec(0u16..10, 1..7),
            swap in 0usize..7,
        ) {
            let ks = KeyStore::generate(10, 6);
            let verifier = ks.verifier();
            let digest = sha256(b"payload");
            let mut chain = SignatureChain::new();
            for &s in &signers {
                chain = chain.extend(&ks.signer(s), &digest);
            }
            let mut mutants = vec![(chain.clone(), digest), (chain.clone(), sha256(b"other"))];
            // Every link corrupted in turn, in its tag and in its signer id.
            for victim in 0..signers.len() {
                let link = &chain.links()[victim];
                let mut tag = *link.tag();
                tag[31] ^= 1;
                for bad in [
                    crate::keys::Signature::from_parts(link.signer(), tag),
                    crate::keys::Signature::from_parts(link.signer() ^ 1, *link.tag()),
                ] {
                    let mut links = chain.links().to_vec();
                    links[victim] = bad;
                    mutants.push((SignatureChain::from_links(links), digest));
                }
            }
            let mut links = chain.links().to_vec();
            links.swap(swap % signers.len(), (swap + 1) % signers.len());
            mutants.push((SignatureChain::from_links(links), digest));
            for (i, (mutant, payload)) in mutants.iter().enumerate() {
                let walked = mutant.verify_running(&verifier, payload);
                prop_assert_eq!(walked.is_some(), mutant.verify(&verifier, payload));
                // Only the untouched chain (and a swap of a link with itself
                // or with an identical neighbour) survives.
                prop_assert_eq!(walked.is_some(), i == 0 || (mutant == &chain && payload == &digest));
            }
        }

        #[test]
        fn corrupting_any_link_invalidates_the_chain(
            signers in proptest::collection::vec(0u16..10, 1..6),
            victim in 0usize..6,
        ) {
            let ks = KeyStore::generate(10, 6);
            let digest = sha256(b"payload");
            let mut chain = SignatureChain::new();
            for &s in &signers {
                chain = chain.extend(&ks.signer(s), &digest);
            }
            let victim = victim % signers.len();
            let mut links = chain.links().to_vec();
            let mut tag = *links[victim].tag();
            tag[0] ^= 0xff;
            links[victim] = crate::keys::Signature::from_parts(links[victim].signer(), tag);
            let corrupted = SignatureChain::from_links(links);
            prop_assert!(!corrupted.verify(&ks.verifier(), &digest));
        }
    }
}
