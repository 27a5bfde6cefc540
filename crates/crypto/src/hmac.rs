//! HMAC-SHA-256 (RFC 2104), validated against the RFC 4231 test vectors.
//!
//! The simulated signature scheme ([`crate::keys`]) authenticates messages
//! with HMAC tags; within the simulation's trust model this provides the
//! unforgeability property the paper assumes of its digital signatures
//! (§II: "Byzantine nodes cannot forge signatures").

use std::fmt;

use crate::sha256::{digest_bytes, sha256, Sha256, H0};

const BLOCK_LEN: usize = 64;

/// The longest message whose inner hash is one block: it, the `0x80` byte
/// and the 8-byte length fill at most 64 bytes.
const ONE_BLOCK_MSG: usize = BLOCK_LEN - 9;

/// An HMAC-SHA-256 key with its two pad blocks already absorbed.
///
/// RFC 2104 computes `H(key ^ opad ‖ H(key ^ ipad ‖ msg))`. Both pad blocks
/// are exactly one SHA-256 block and depend on the key alone, so the two
/// chaining values after them are computed once here and every
/// [`tag`](Self::tag) resumes from them: a tag over a short message costs 2
/// compressions instead of 4. The midstates are kept bare (64 bytes, not two
/// 112-byte hashers) because every [`Signer`](crate::keys::Signer) carries
/// one and a fleet holds 10 000 of them.
#[derive(Clone)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The midstates sign as well as the key does: never print them.
        write!(f, "HmacKey(<redacted>)")
    }
}

impl HmacKey {
    /// Prepares `key`: keys longer than one block are hashed first, shorter
    /// ones zero-padded (RFC 2104 §2). The two pad blocks are independent,
    /// so they are absorbed as one pair.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            key_block[..32].copy_from_slice(&sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let (mut inner, mut outer) = (H0, H0);
        Sha256::compress_pair(
            &mut inner,
            &key_block.map(|b| b ^ 0x36),
            &mut outer,
            &key_block.map(|b| b ^ 0x5c),
        );
        HmacKey { inner, outer }
    }

    /// Computes `HMAC-SHA256(key, msg)`. The outer hash, over a 32-byte
    /// digest, is always one block; so is the inner one for a message of at
    /// most 55 bytes, and then no hasher is built.
    pub fn tag(&self, msg: &[u8]) -> [u8; 32] {
        let inner = if msg.len() <= ONE_BLOCK_MSG {
            let mut inner = self.inner;
            Sha256::compress(&mut inner, &last_block(msg));
            digest_bytes(&inner)
        } else {
            let mut inner = Sha256::from_midstate(self.inner, 1);
            inner.update(msg);
            inner.finalize()
        };
        let mut outer = self.outer;
        Sha256::compress(&mut outer, &last_block(&inner));
        digest_bytes(&outer)
    }

    /// `[a.tag(msg_a), b.tag(msg_b)]`, with the two inner compressions run
    /// as one [`Sha256::compress_pair`] and the two outer ones as another.
    /// If either message is longer than 55 bytes, two plain tags.
    pub(crate) fn tag_pair(
        (a, msg_a): (&HmacKey, &[u8]),
        (b, msg_b): (&HmacKey, &[u8]),
    ) -> [[u8; 32]; 2] {
        if msg_a.len() > ONE_BLOCK_MSG || msg_b.len() > ONE_BLOCK_MSG {
            return [a.tag(msg_a), b.tag(msg_b)];
        }
        let (mut inner_a, mut inner_b) = (a.inner, b.inner);
        Sha256::compress_pair(&mut inner_a, &last_block(msg_a), &mut inner_b, &last_block(msg_b));
        let (mut outer_a, mut outer_b) = (a.outer, b.outer);
        Sha256::compress_pair(
            &mut outer_a,
            &last_block(&digest_bytes(&inner_a)),
            &mut outer_b,
            &last_block(&digest_bytes(&inner_b)),
        );
        [digest_bytes(&outer_a), digest_bytes(&outer_b)]
    }
}

/// The one block left to compress after a pad block when `msg` is at most
/// [`ONE_BLOCK_MSG`] bytes: `msg ‖ 0x80 ‖ 0… ‖ bit length`, the length
/// counting the pad block's 64 bytes too (FIPS 180-4 §5.1.1).
fn last_block(msg: &[u8]) -> [u8; BLOCK_LEN] {
    let mut block = [0u8; BLOCK_LEN];
    block[..msg.len()].copy_from_slice(msg);
    block[msg.len()] = 0x80;
    block[56..].copy_from_slice(&(8 * (BLOCK_LEN + msg.len()) as u64).to_be_bytes());
    block
}

/// Computes `HMAC-SHA256(key, msg)` for a key used once; callers that tag
/// repeatedly under one key keep the [`HmacKey`].
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; 32] {
    HmacKey::new(key).tag(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::compressions_in;

    fn hex(digest: &[u8]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0b; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(hex(&tag), "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(hex(&tag), "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaa; 20];
        let msg = [0xdd; 50];
        let tag = hmac_sha256(&key, &msg);
        assert_eq!(hex(&tag), "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
    }

    #[test]
    fn rfc4231_case_4() {
        let key: Vec<u8> = (1..=25).collect();
        let msg = [0xcd; 50];
        let tag = hmac_sha256(&key, &msg);
        assert_eq!(hex(&tag), "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
    }

    const LONG_KEY: [u8; 131] = [0xaa; 131];
    const CASE_6_MSG: &[u8] = b"Test Using Larger Than Block-Size Key - Hash Key First";
    const CASE_6_TAG: &str = "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54";
    const CASE_7_MSG: &[u8] = b"This is a test using a larger than block-size key and a larger \
than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
    const CASE_7_TAG: &str = "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2";

    #[test]
    fn rfc4231_case_6_long_key() {
        assert_eq!(hex(&hmac_sha256(&LONG_KEY, CASE_6_MSG)), CASE_6_TAG);
    }

    #[test]
    fn rfc4231_case_7_long_key_long_message() {
        assert_eq!(hex(&hmac_sha256(&LONG_KEY, CASE_7_MSG)), CASE_7_TAG);
    }

    #[test]
    fn one_prepared_key_tags_many_messages() {
        // A tag does not consume the midstates: RFC cases 6 and 7 share a
        // key, so one prepared key reproduces both vectors, repeatedly.
        let key = HmacKey::new(&LONG_KEY);
        for _ in 0..2 {
            assert_eq!(hex(&key.tag(CASE_6_MSG)), CASE_6_TAG);
            assert_eq!(hex(&key.tag(CASE_7_MSG)), CASE_7_TAG);
        }
    }

    #[test]
    fn a_short_tag_is_two_compressions() {
        // One block for the inner hash (message + padding fit behind the
        // absorbed ipad block), one for the outer. Re-absorbing the pads on
        // every call made this 4.
        let key = HmacKey::new(b"secret");
        for len in [0, 8, 32, 55] {
            let (_, n) = compressions_in(|| key.tag(&vec![7u8; len]));
            assert_eq!(n, 2, "{len}-byte message");
        }
        // 56 bytes no longer leave room for the length: the padding spills.
        assert_eq!(compressions_in(|| key.tag(&[7u8; 56])).1, 3);
        // Preparing is where the two pad blocks are paid, once.
        assert_eq!(compressions_in(|| HmacKey::new(b"secret")).1, 2);
    }

    #[test]
    fn debug_never_prints_the_midstates() {
        assert_eq!(format!("{:?}", HmacKey::new(b"k")), "HmacKey(<redacted>)");
    }

    #[test]
    fn different_keys_produce_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"msg"), hmac_sha256(b"k2", b"msg"));
        assert_ne!(hmac_sha256(b"k1", b"msg"), hmac_sha256(b"k1", b"msh"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::sha256::compressions_in;
    use proptest::prelude::*;

    /// RFC 2104 as written: pad the key, hash both pad blocks with the data
    /// from scratch. The reference the prepared key is held against.
    fn textbook_hmac(key: &[u8], msg: &[u8]) -> [u8; 32] {
        let mut block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            block[..32].copy_from_slice(&sha256(key));
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let inner: Vec<u8> = block.iter().map(|b| b ^ 0x36).chain(msg.iter().copied()).collect();
        let outer: Vec<u8> = block.iter().map(|b| b ^ 0x5c).chain(sha256(&inner)).collect();
        sha256(&outer)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn prepare_then_tag_is_textbook_hmac(
            key in proptest::collection::vec(proptest::num::u8::ANY, 0..200),
            msg in proptest::collection::vec(proptest::num::u8::ANY, 0..300),
        ) {
            prop_assert_eq!(HmacKey::new(&key).tag(&msg), textbook_hmac(&key, &msg));
        }

        #[test]
        fn a_tag_pair_is_two_tags(
            key_a in proptest::collection::vec(proptest::num::u8::ANY, 0..80),
            key_b in proptest::collection::vec(proptest::num::u8::ANY, 0..80),
            msg_a in proptest::collection::vec(proptest::num::u8::ANY, 0..=120),
            msg_b in proptest::collection::vec(proptest::num::u8::ANY, 0..=120),
        ) {
            let (a, b) = (HmacKey::new(&key_a), HmacKey::new(&key_b));
            let (pair, paired) = compressions_in(|| HmacKey::tag_pair((&a, &msg_a), (&b, &msg_b)));
            let (singles, single) = compressions_in(|| [a.tag(&msg_a), b.tag(&msg_b)]);
            prop_assert_eq!(pair, singles);
            // Pairing changes when compressions run, never how many.
            prop_assert_eq!(paired, single);
        }
    }
}
