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

use std::cell::RefCell;
use std::sync::Arc;

use crate::hmac::{HmacKey, TagBatch};

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

/// Keys derived per batch run in [`KeyStore::generate`]: 64 master tags
/// (four sixteen-lane runs each way on a CPU with AVX-512), then 128 pad
/// blocks (eight runs). Small runs keep the buffers at a few KiB: larger
/// ones, freed after set-up, left the heap laid out for a peak RSS about
/// 2 MiB higher on the benchmark's flapping 10 000-node fleet.
const KEYS_PER_RUN: usize = 64;

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
    /// are absorbed here, once, not on every signature. The master tags
    /// are batched, and then the pad blocks, 64 keys at a time.
    pub fn generate(n: usize, seed: u64) -> Self {
        let master = HmacKey::new(&seed.to_be_bytes());
        let mut secrets = Vec::with_capacity(n);
        let (mut batch, mut tags) = (TagBatch::default(), Vec::new());
        for first in (0..n as u64).step_by(KEYS_PER_RUN) {
            for i in first..(n as u64).min(first + KEYS_PER_RUN as u64) {
                batch.push(&master, &i.to_be_bytes());
            }
            tags.clear();
            batch.run(&mut tags);
            HmacKey::prepare_all(&tags, &mut secrets);
        }
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
}

/// Signature checks and signatures computed as one batch of HMAC tags.
///
/// [`check`](Self::check) and [`sign`](Self::sign) queue a job and return
/// its number; [`run`](Self::run) computes every queued tag at once — on a
/// CPU with AVX-512, sixteen at a time — after which
/// [`verified`](Self::verified) and [`signature`](Self::signature) read the
/// results. Each result is what [`Verifier::verify`] or [`Signer::sign`]
/// returns for the same job, at the same 2 compressions per tag; a check
/// whose signer the registry lacks is `false` and computes nothing.
/// [`clear`](Self::clear) empties the batch and keeps its buffers, so a
/// batch reused for every message allocates only while it grows.
///
/// A message is a byte array of at most 55 bytes (one block with its
/// padding), which the compiler checks: the protocol's are 8-byte proof
/// statements and 32-byte digests and tags.
///
/// # Example
///
/// ```
/// use nectar_crypto::{KeyStore, SignatureBatch};
///
/// let keys = KeyStore::generate(3, 7);
/// let sig = keys.signer(1).sign(b"edge");
/// let mut batch = SignatureBatch::new();
/// let check = batch.check(&keys.verifier(), b"edge", &sig);
/// let signed = batch.sign(&keys.signer(2), b"edge");
/// batch.run();
/// assert!(batch.verified(check..check + 1));
/// assert_eq!(batch.signature(signed), keys.signer(2).sign(b"edge"));
/// ```
///
/// A longer message does not compile:
///
/// ```compile_fail
/// let keys = nectar_crypto::KeyStore::generate(1, 7);
/// nectar_crypto::SignatureBatch::new().sign(&keys.signer(0), &[0u8; 56]);
/// ```
#[derive(Debug, Default)]
pub struct SignatureBatch {
    /// Tags queued since the last run (redacted in `Debug`).
    queued: TagBatch,
    /// Tags computed, by lane.
    tags: Vec<[u8; 32]>,
    jobs: Vec<Job>,
}

/// A queued job: which lane its tag is computed in, and what it is for.
#[derive(Debug)]
enum Job {
    /// The tag must equal `tag`; no lane for an unknown signer.
    Check { lane: Option<usize>, tag: [u8; 32] },
    /// The tag is `signer`'s signature.
    Sign { lane: usize, signer: SignerId },
}

impl SignatureBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of jobs queued since the last [`clear`](Self::clear).
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether no job is queued.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The lane the next queued tag takes.
    fn next_lane(&self) -> usize {
        self.tags.len() + self.queued.len()
    }

    /// Queues the check of `sig` over `msg` ([`Verifier::verify`]) and
    /// returns its job number.
    pub fn check<const N: usize>(
        &mut self,
        verifier: &Verifier,
        msg: &[u8; N],
        sig: &Signature,
    ) -> usize {
        let lane = verifier.secrets.get(sig.signer as usize).map(|secret| {
            let lane = self.next_lane();
            self.queued.push(secret, msg);
            lane
        });
        self.jobs.push(Job::Check { lane, tag: sig.tag });
        self.jobs.len() - 1
    }

    /// Queues `signer`'s signature over `msg` ([`Signer::sign`]) and
    /// returns its job number.
    pub fn sign<const N: usize>(&mut self, signer: &Signer, msg: &[u8; N]) -> usize {
        let lane = self.next_lane();
        self.queued.push(&signer.secret, msg);
        self.jobs.push(Job::Sign { lane, signer: signer.id });
        self.jobs.len() - 1
    }

    /// Computes every tag queued since the last run.
    pub fn run(&mut self) {
        self.queued.run(&mut self.tags);
    }

    /// Whether every job in `jobs` is a check that holds.
    ///
    /// # Panics
    ///
    /// Panics if a job in `jobs` was not queued, or was queued after the
    /// last [`run`](Self::run).
    pub fn verified(&self, jobs: std::ops::Range<usize>) -> bool {
        self.jobs[jobs].iter().all(|job| match job {
            Job::Check { lane, tag } => lane.is_some_and(|lane| self.tags[lane] == *tag),
            Job::Sign { .. } => false,
        })
    }

    /// The signature job `job` made.
    ///
    /// # Panics
    ///
    /// Panics if `job` is not a signature queued before the last
    /// [`run`](Self::run).
    pub fn signature(&self, job: usize) -> Signature {
        match self.jobs[job] {
            Job::Sign { lane, signer } => Signature { signer, tag: self.tags[lane] },
            Job::Check { .. } => panic!("job {job} is a check, not a signature"),
        }
    }

    /// Forgets every job and result, keeping the buffers.
    pub fn clear(&mut self) {
        self.queued.clear();
        self.tags.clear();
        self.jobs.clear();
    }

    /// Runs `queue` on this thread's batch, emptied first, then runs the
    /// batch: whether every job `queue` names is a check that holds (`None`
    /// is `false`). What the one-shot `verify` methods share, so that they
    /// allocate nothing once the thread's batch has grown.
    pub(crate) fn verify_alone(
        queue: impl FnOnce(&mut SignatureBatch) -> Option<std::ops::Range<usize>>,
    ) -> bool {
        thread_local! {
            static BATCH: RefCell<SignatureBatch> = RefCell::default();
        }
        BATCH.with_borrow_mut(|batch| {
            batch.clear();
            queue(batch).is_some_and(|jobs| {
                batch.run();
                batch.verified(jobs)
            })
        })
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
    fn a_batch_judges_each_job_as_alone() {
        // Checks that hold and fail, an unknown signer, and signatures, in
        // one batch long enough for a 16-lane run: each result is what the
        // one-at-a-time call returns, and the unknown signer takes no lane.
        let ks = KeyStore::generate(4, 7);
        let verifier = ks.verifier();
        let (first, second) = ([1u8; 32], [2u8; 32]);
        let good = ks.signer(1).sign(&first);
        let other = ks.signer(2).sign(&second);
        let bad = Signature::from_parts(1, [0xab; 32]);
        let unknown = KeyStore::generate(5, 7).signer(4).sign(&second);
        let checks = [
            (&first, &good),
            (&second, &other),
            (&first, &bad),
            (&first, &other),
            (&second, &unknown),
        ];
        let mut batch = SignatureBatch::new();
        let mut expect = Vec::new();
        for round in 0..4u8 {
            for &(msg, sig) in &checks {
                expect.push((batch.check(&verifier, msg, sig), verifier.verify(msg, sig)));
            }
            let signer = ks.signer(u16::from(round));
            batch.sign(&signer, &[round; 32]);
        }
        assert_eq!(batch.len(), 24);
        assert_eq!(batch.queued.len(), 20, "no lane for the unknown signer");
        batch.run();
        for (job, alone) in expect {
            assert_eq!(batch.verified(job..job + 1), alone, "job {job}");
        }
        for round in 0..4u8 {
            let job = 6 * usize::from(round) + 5;
            assert_eq!(batch.signature(job), ks.signer(u16::from(round)).sign(&[round; 32]));
            assert!(!batch.verified(job..job + 1), "a signature is not a check");
        }
        assert!(batch.verified(0..2));
        assert!(!batch.verified(0..3));
        batch.clear();
        assert!(batch.is_empty());
        assert!(batch.verified(0..0), "no check, nothing fails");
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
