//! Chained signatures σ_j(σ_i(msg)).
//!
//! NECTAR relays every discovered edge inside a signature chain whose length
//! must equal the current round number (Alg. 1 l. 14): each relay appends
//! its own signature over what it received — the previous relay's signature.
//! The chain both authenticates the relay path and timestamps the message —
//! a Byzantine node cannot replay an edge "late" without producing a chain
//! of the wrong length, and cannot splice chains because every link's tag is
//! a MAC over the tag before it, down to the payload digest (the
//! Dolev–Strong argument of Lemma 2).

use std::ops::Range;

use crate::keys::{Signature, SignatureBatch, Signer, SignerId, Verifier};

/// A signature chain over a fixed payload digest.
///
/// Link `1` signs the payload digest; link `i + 1` signs `tag_i`, the 32
/// bytes of the signature before it. Equal tags under one key mean equal
/// signed messages, so each tag commits to every earlier one and links
/// cannot be reordered, dropped or transplanted onto another payload; a
/// link re-attributed to another signer fails its own MAC.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
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

    /// Returns a new chain extended by `signer`'s signature over what it
    /// received (σ_signer(previous chain)): the last link's tag, or
    /// `payload_digest` for the empty chain. One HMAC, whatever the chain
    /// length.
    pub fn extend(&self, signer: &Signer, payload_digest: &[u8; 32]) -> SignatureChain {
        self.extended_by(signer.sign(self.next_signed(payload_digest)))
    }

    /// Queues in `batch` the signature [`extend`](Self::extend) adds, and
    /// returns its job; [`extended_by`](Self::extended_by) that job's
    /// [`SignatureBatch::signature`] is then `extend`'s chain.
    pub fn queue_extend(
        &self,
        signer: &Signer,
        payload_digest: &[u8; 32],
        batch: &mut SignatureBatch,
    ) -> usize {
        batch.sign(signer, self.next_signed(payload_digest))
    }

    /// The chain with `link` appended as its outermost signature. A link
    /// that does not sign the last tag fails [`verify`](Self::verify), as
    /// any link [`from_links`](Self::from_links) assembles may.
    pub fn extended_by(&self, link: Signature) -> SignatureChain {
        let mut links = Vec::with_capacity(self.links.len() + 1);
        links.extend_from_slice(&self.links);
        links.push(link);
        SignatureChain { links }
    }

    /// What the next link signs: the last link's tag, or `payload_digest`.
    fn next_signed<'a>(&'a self, payload_digest: &'a [u8; 32]) -> &'a [u8; 32] {
        self.links.last().map_or(payload_digest, Signature::tag)
    }

    /// Verifies every link over `payload_digest`. What each link signs is
    /// already in the chain (link `i + 1` signs link `i`'s tag), so all the
    /// links are checked as one [`SignatureBatch`].
    pub fn verify(&self, verifier: &Verifier, payload_digest: &[u8; 32]) -> bool {
        SignatureBatch::verify_alone(|batch| {
            Some(self.queue_verify(verifier, payload_digest, batch))
        })
    }

    /// Queues the checks of [`verify`](Self::verify) in `batch`, one per
    /// link, and returns their jobs: the chain verifies iff
    /// [`SignatureBatch::verified`] holds for them once the batch has run.
    pub fn queue_verify(
        &self,
        verifier: &Verifier,
        payload_digest: &[u8; 32],
        batch: &mut SignatureBatch,
    ) -> Range<usize> {
        let first = batch.len();
        let mut signed = payload_digest;
        for link in &self.links {
            batch.check(verifier, signed, link);
            signed = link.tag();
        }
        first..batch.len()
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyStore;
    use crate::sha256::{compressions_in, sha256, Sha256};

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
        // Per link: one tag over 32 bytes (2), to check it or to make it.
        let (ks, digest) = setup();
        let verifier = ks.verifier();
        let mut chain = SignatureChain::new();
        for len in 0..=5u64 {
            let (ok, n) = compressions_in(|| chain.verify(&verifier, &digest));
            assert!(ok, "an honest chain verifies");
            assert_eq!(n, 2 * len, "verifying {len} links");
            let (next, n) = compressions_in(|| chain.extend(&ks.signer(len as u16), &digest));
            assert_eq!(n, 2, "extending {len} links");
            chain = next;
        }
    }

    fn three_links(ks: &KeyStore, digest: &[u8; 32]) -> SignatureChain {
        SignatureChain::new()
            .extend(&ks.signer(0), digest)
            .extend(&ks.signer(1), digest)
            .extend(&ks.signer(2), digest)
    }

    #[test]
    fn what_each_link_signs_is_pinned() {
        // Known answer — tag_1 = HMAC(k_0, digest), tag_{i+1} = HMAC(k_i,
        // tag_i) with k_i = HMAC(seed, i), reproducible with any HMAC-SHA256:
        // changing what a link signs changes these tags.
        let ks = KeyStore::generate(4, 1);
        let digest = sha256(b"nectar chain known answer");
        let chain = three_links(&ks, &digest);
        let hex = |tag: &[u8; 32]| tag.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let tags: Vec<String> = chain.links().iter().map(|l| hex(l.tag())).collect();
        assert_eq!(
            tags,
            [
                "1856b30b80e9452ad92eb9f5e94de18e1eb47c4b8bf9381d7b71893e2637bb78",
                "c8a15fbfa1fb8f8a62d42b02636858f22403dbada68a7b873f35f6654b24011d",
                "2ad14570f1dc93fed4fd2ff45bf19d379455d3332ef8196b0bd90bae6237bc4f",
            ]
        );
        // Link 1 signs the payload digest, link i + 1 the tag before it.
        let links = chain.links();
        assert_eq!(links[0], ks.signer(0).sign(&digest));
        assert_eq!(links[1], ks.signer(1).sign(links[0].tag()));
        assert_eq!(links[2], ks.signer(2).sign(links[1].tag()));
    }

    #[test]
    fn a_chain_over_the_folded_digest_is_refused() {
        // The construction this one replaced: link i + 1 over
        // SHA256(digest_i ‖ signer_i ‖ tag_i). There is one scheme, no
        // fallback — such a chain is a bad chain past its first link.
        let (ks, digest) = setup();
        let mut running = digest;
        let mut links: Vec<Signature> = Vec::new();
        for id in 0..3u16 {
            let link = ks.signer(id).sign(&running);
            let mut h = Sha256::new();
            h.update(&running);
            h.update(&id.to_be_bytes());
            h.update(link.tag());
            running = h.finalize();
            links.push(link);
        }
        let verifier = ks.verifier();
        assert!(SignatureChain::from_links(links[..1].to_vec()).verify(&verifier, &digest));
        assert!(!SignatureChain::from_links(links[..2].to_vec()).verify(&verifier, &digest));
        assert!(!SignatureChain::from_links(links).verify(&verifier, &digest));
    }

    #[test]
    fn dropping_the_middle_link_fails() {
        let (ks, digest) = setup();
        let mut links = three_links(&ks, &digest).links().to_vec();
        links.remove(1);
        assert!(!SignatureChain::from_links(links).verify(&ks.verifier(), &digest));
    }

    #[test]
    fn grafting_the_suffix_of_another_payloads_chain_fails() {
        let (ks, digest) = setup();
        let other_digest = sha256(b"other");
        let ours = three_links(&ks, &digest);
        let theirs = three_links(&ks, &other_digest);
        for cut in 1..3 {
            let mut links = ours.links()[..cut].to_vec();
            links.extend_from_slice(&theirs.links()[cut..]);
            assert!(!SignatureChain::from_links(links).verify(&ks.verifier(), &digest), "{cut}");
        }
    }

    #[test]
    fn swapping_one_links_signer_id_fails() {
        let (ks, digest) = setup();
        let chain = three_links(&ks, &digest);
        for victim in 0..3 {
            let mut links = chain.links().to_vec();
            links[victim] = Signature::from_parts(5, *links[victim].tag());
            assert!(!SignatureChain::from_links(links).verify(&ks.verifier(), &digest), "{victim}");
        }
    }

    #[test]
    fn corrupting_any_link_of_any_length_fails() {
        // Links are checked in pairs with an odd one last: every length up
        // to 9 puts a victim in lane A, in lane B and in the remainder.
        let ks = KeyStore::generate(10, 3);
        let verifier = ks.verifier();
        let digest = sha256(b"payload");
        let mut chain = SignatureChain::new();
        for len in 0..=9u16 {
            assert!(chain.verify(&verifier, &digest), "honest chain of {len}");
            for victim in 0..chain.len() {
                let link = &chain.links()[victim];
                let mut tag = *link.tag();
                tag[victim % 32] ^= 0x80;
                // Another registered signer, and one the registry lacks.
                let (other, unknown) = ((link.signer() + 1) % 10, 10);
                for bad in [
                    Signature::from_parts(link.signer(), tag),
                    Signature::from_parts(other, *link.tag()),
                    Signature::from_parts(unknown, *link.tag()),
                ] {
                    let mut links = chain.links().to_vec();
                    links[victim] = bad;
                    let mutant = SignatureChain::from_links(links);
                    assert!(!mutant.verify(&verifier, &digest), "link {victim} of {len}");
                }
            }
            chain = chain.extend(&ks.signer(len), &digest);
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
                // Only the untouched chain (and a swap of a link with itself)
                // survives.
                prop_assert_eq!(
                    mutant.verify(&verifier, payload),
                    i == 0 || (mutant == &chain && payload == &digest)
                );
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
