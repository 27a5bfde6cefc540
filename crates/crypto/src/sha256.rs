//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! The NECTAR reproduction keeps its dependency footprint to the approved
//! workspace crates, so the hash function underlying message digests, HMAC
//! and the simulated signature scheme is implemented here and validated
//! against the official NIST test vectors.

/// Initial hash state (FIPS 180-4 §5.3.3): the first 32 bits of the
/// fractional parts of the square roots of the first 8 primes.
pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants (FIPS 180-4 §4.2.2): the first 32 bits of the fractional
/// parts of the cube roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Streaming SHA-256 hasher.
///
/// # Example
///
/// ```
/// use nectar_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// let digest = h.finalize();
/// assert_eq!(digest, nectar_crypto::sha256::sha256(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes absorbed since the last block boundary; `buf_len < 64` between
    /// calls.
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buf: [0; 64], buf_len: 0, total_len: 0 }
    }

    /// Resumes from the chaining value left after `blocks` whole 64-byte
    /// blocks — what [`HmacKey`](crate::hmac::HmacKey) keeps of a pad block
    /// instead of re-absorbing it on every tag.
    pub(crate) fn from_midstate(state: [u32; 8], blocks: u64) -> Self {
        Sha256 { state, buf: [0; 64], buf_len: 0, total_len: 64 * blocks }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                Self::compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            Self::compress(
                &mut self.state,
                block.try_into().expect("chunks_exact(64) yields 64 bytes"),
            );
        }
        let tail = blocks.remainder();
        if !tail.is_empty() {
            self.buf[..tail.len()].copy_from_slice(tail);
            self.buf_len = tail.len();
        }
    }

    /// Pads and produces the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // FIPS 180-4 §5.1.1: a 0x80 byte, zeros up to the last 8 bytes of a
        // block, then the message length in bits. The length does not fit
        // behind the 0x80 once 56 bytes are buffered, so the padding spills
        // into a second block.
        let used = self.buf_len;
        self.buf[used] = 0x80;
        self.buf[used + 1..].fill(0);
        if used >= 56 {
            Self::compress(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        Self::compress(&mut self.state, &self.buf);
        digest_bytes(&self.state)
    }

    /// One application of the SHA-256 compression function (FIPS 180-4 §6.2.2):
    /// the unit the cost model in `docs/ARCHITECTURE.md` counts in. Runs on
    /// the CPU's SHA extensions when it has them, on [`compress_scalar`]
    /// otherwise; both return the same eight words.
    pub(crate) fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        #[cfg(test)]
        COMPRESSIONS.with(|c| c.set(c.get() + 1));
        #[cfg(target_arch = "x86_64")]
        if sha_ni::detected() {
            // SAFETY: `sha_ni::compress` needs `sha`, `sse2`, `ssse3` and
            // `sse4.1`; `sse2` is baseline on x86_64 and `detected` has just
            // confirmed the other three at runtime.
            #[allow(unsafe_code)]
            return unsafe { sha_ni::compress(state, block) };
        }
        compress_scalar(state, block);
    }

    /// Two independent compressions, `block_a` into `a` and `block_b` into
    /// `b`: the same eight words each as two [`compress`](Self::compress)
    /// calls, and counted as two. On the SHA extensions the lanes' rounds
    /// interleave, so each lane's `sha256rnds2` runs while the other's waits
    /// on its previous result; without them it is two scalar compressions.
    pub(crate) fn compress_pair(
        a: &mut [u32; 8],
        block_a: &[u8; 64],
        b: &mut [u32; 8],
        block_b: &[u8; 64],
    ) {
        #[cfg(test)]
        COMPRESSIONS.with(|c| c.set(c.get() + 2));
        #[cfg(target_arch = "x86_64")]
        if sha_ni::detected() {
            // SAFETY: `sha_ni::compress_pair` needs the same four features as
            // `sha_ni::compress`, which `detected` has just confirmed.
            #[allow(unsafe_code)]
            return unsafe { sha_ni::compress_pair(a, block_a, b, block_b) };
        }
        compress_scalar(a, block_a);
        compress_scalar(b, block_b);
    }
}

/// The fewest jobs worth a 16-lane run. A run costs about the same however
/// many of its lanes are empty: on the 2-vCPU VM (`sha_ni`, `avx512f`)
/// about 450 ns, against 390–420 ns for 9 jobs as
/// [`Sha256::compress_pair`]s and a single, 450–520 ns for 10 and
/// 470–560 ns for 11 (best of 4 000 timings of 10 calls).
const WIDE_MIN: usize = 10;

/// `blocks[i]` compressed into `states[i]` for every `i`: the same words as
/// one [`Sha256::compress`] each, and counted as that many. On a CPU with
/// AVX-512 the jobs go sixteen to a run of `avx512::compress16` while
/// [`WIDE_MIN`] or more remain, the last run padded with empty lanes; the
/// rest go in pairs and a single.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub(crate) fn compress_all(states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
    assert_eq!(states.len(), blocks.len(), "one block per state");
    let (mut states, mut blocks) = (states, blocks);
    #[cfg(target_arch = "x86_64")]
    if states.len() >= WIDE_MIN && avx512::detected() {
        while states.len() >= WIDE_MIN {
            let lanes = states.len().min(16);
            #[cfg(test)]
            COMPRESSIONS.with(|c| c.set(c.get() + lanes as u64));
            // A full run reads and writes the jobs where they are; the last
            // run works on copies padded with empty lanes.
            let mut padded = None;
            let (wide_states, wide_blocks) =
                match (states.first_chunk_mut::<16>(), blocks.first_chunk::<16>()) {
                    (Some(wide_states), Some(wide_blocks)) => (wide_states, wide_blocks),
                    _ => {
                        let (wide_states, wide_blocks) =
                            padded.insert(([[0; 8]; 16], [[0; 64]; 16]));
                        wide_states[..lanes].copy_from_slice(states);
                        wide_blocks[..lanes].copy_from_slice(blocks);
                        (wide_states, &*wide_blocks)
                    }
                };
            // SAFETY: `avx512::compress16` needs `avx512f`, which `detected`
            // has just confirmed at runtime.
            #[allow(unsafe_code)]
            let () = unsafe { avx512::compress16(wide_states, wide_blocks) };
            if let Some((wide_states, _)) = padded {
                states.copy_from_slice(&wide_states[..lanes]);
            }
            (states, blocks) = (&mut states[lanes..], &blocks[lanes..]);
        }
    }
    for (pair, block) in states.chunks_mut(2).zip(blocks.chunks(2)) {
        match (pair, block) {
            ([a, b], [block_a, block_b]) => Sha256::compress_pair(a, block_a, b, block_b),
            ([a], [block]) => Sha256::compress(a, block),
            _ => unreachable!("chunks of at most two, one block per state"),
        }
    }
}

/// The chaining value `state` as 32 big-endian bytes: the digest, once the
/// padding block has been compressed.
pub(crate) fn digest_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The portable compression kernel: the only one on CPUs without the SHA
/// extensions, and the reference `sha_ni::compress` is pinned against.
fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let temp1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }
    let add = [a, b, c, d, e, f, g, h];
    for (s, v) in state.iter_mut().zip(add) {
        *s = s.wrapping_add(v);
    }
}

/// The compression on the x86 SHA extensions (`sha256rnds2` runs two
/// rounds, `sha256msg1`/`sha256msg2` extend the message schedule). Values
/// in, values out: no pointer is read or written, so the body needs no
/// `unsafe` — only the call, which must first have seen `detected`, does.
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::K;
    use std::arch::x86_64::*;

    /// Whether this CPU has what [`compress`] is compiled for (`sse2` is
    /// baseline on x86_64). `std` caches the probe, so this is three loads.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut lane = Lane::load(state, block);
        for i in 0..16 {
            lane.rounds(i);
            lane.schedule();
        }
        *state = lane.finish();
    }

    /// [`compress`] on two independent inputs, group by group: lane B's two
    /// `sha256rnds2` go between lane A's and the next, where A would
    /// otherwise wait on its own result.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_pair(
        a: &mut [u32; 8],
        block_a: &[u8; 64],
        b: &mut [u32; 8],
        block_b: &[u8; 64],
    ) {
        let (mut lane_a, mut lane_b) = (Lane::load(a, block_a), Lane::load(b, block_b));
        for i in 0..16 {
            lane_a.rounds(i);
            lane_b.rounds(i);
            lane_a.schedule();
            lane_b.schedule();
        }
        (*a, *b) = (lane_a.finish(), lane_b.finish());
    }

    /// One compression in flight. The round instruction keeps the state in
    /// two vectors, named by their lanes from high to low; `w` holds the
    /// next sixteen schedule words, four to a vector and lowest lane first.
    struct Lane {
        abef_in: __m128i,
        cdgh_in: __m128i,
        abef: __m128i,
        cdgh: __m128i,
        w: [__m128i; 4],
    }

    impl Lane {
        #[inline]
        #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
        fn load(state: &[u32; 8], block: &[u8; 64]) -> Self {
            let [a, b, c, d, e, f, g, h] = state.map(|x| x as i32);
            let (abef, cdgh) = (_mm_set_epi32(a, b, e, f), _mm_set_epi32(c, d, g, h));
            let mut m = [0i32; 16];
            for (word, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
                *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as i32;
            }
            let w = [0, 4, 8, 12].map(|j| _mm_set_epi32(m[j + 3], m[j + 2], m[j + 1], m[j]));
            Lane { abef_in: abef, cdgh_in: cdgh, abef, cdgh, w }
        }

        /// Group `i`: rounds `4i .. 4i + 4`, reading `w[0]`.
        #[inline]
        #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
        fn rounds(&mut self, i: usize) {
            let k = [4 * i + 3, 4 * i + 2, 4 * i + 1, 4 * i].map(|t| K[t] as i32);
            let wk = _mm_add_epi32(self.w[0], _mm_set_epi32(k[0], k[1], k[2], k[3]));
            // Two rounds on the low lanes, two on the high: the first
            // leaves the new ABEF in `cdgh`, the second puts it back.
            self.cdgh = _mm_sha256rnds2_epu32(self.cdgh, self.abef, wk);
            self.abef = _mm_sha256rnds2_epu32(self.abef, self.cdgh, _mm_shuffle_epi32::<0x0E>(wk));
        }

        /// Slides `w` on by one vector: `W[t] = σ1(W[t−2]) + W[t−7] +
        /// σ0(W[t−15]) + W[t−16]` for the four `t` sixteen words on. msg1
        /// adds σ0, alignr brings in `W[t−7]`, msg2 adds σ1 (of words it
        /// produces itself for the upper two lanes). The last four groups
        /// compute words nothing reads.
        #[inline]
        #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
        fn schedule(&mut self) {
            let w = self.w;
            let sigma0 = _mm_sha256msg1_epu32(w[0], w[1]);
            let w7 = _mm_alignr_epi8::<4>(w[3], w[2]);
            let next = _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w7), w[3]);
            self.w = [w[1], w[2], w[3], next];
        }

        #[inline]
        #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
        fn finish(self) -> [u32; 8] {
            let abef = _mm_add_epi32(self.abef, self.abef_in);
            let cdgh = _mm_add_epi32(self.cdgh, self.cdgh_in);
            [
                _mm_extract_epi32::<3>(abef),
                _mm_extract_epi32::<2>(abef),
                _mm_extract_epi32::<3>(cdgh),
                _mm_extract_epi32::<2>(cdgh),
                _mm_extract_epi32::<1>(abef),
                _mm_extract_epi32::<0>(abef),
                _mm_extract_epi32::<1>(cdgh),
                _mm_extract_epi32::<0>(cdgh),
            ]
            .map(|x| x as u32)
        }
    }
}

/// Sixteen independent compressions in the 32-bit lanes of AVX-512
/// vectors: one `__m512i` holds word `j` of every lane's state (or of its
/// message schedule). Each lane's block, and its state padded to sixteen
/// words, is one row; the rows are transposed in, the rounds are FIPS
/// 180-4's on whole vectors — `vprord` for the rotations, `vpternlogd` for
/// the three-way XORs of Σ/σ, for Ch and for Maj — and the states are
/// transposed back out. Values in, values out, as in `sha_ni`: the body
/// reads and writes through references only, so it needs no `unsafe`.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::K;
    use std::arch::x86_64::*;

    /// Whether this CPU has what [`compress16`] is compiled for.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("avx512f")
    }

    /// `blocks[i]` compressed into `states[i]`, for all sixteen `i` at once.
    #[target_feature(enable = "avx512f")]
    pub(super) fn compress16(states: &mut [[u32; 8]; 16], blocks: &[[u8; 64]; 16]) {
        let mut rows = [_mm512_setzero_si512(); 16];
        for (row, state) in rows.iter_mut().zip(states.iter()) {
            let mut words = [0u32; 16];
            words[..8].copy_from_slice(state);
            *row = vector(&words);
        }
        let start: [__m512i; 8] = transpose(rows)[..8].try_into().expect("eight state words");
        for (row, block) in rows.iter_mut().zip(blocks) {
            let mut words = [0u32; 16];
            for (word, bytes) in words.iter_mut().zip(block.chunks_exact(4)) {
                *word = u32::from_ne_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            }
            *row = vector(&words);
        }
        let mut w = transpose(rows);
        for word in &mut w {
            *word = from_big_endian(*word);
        }

        // Four blocks of sixteen rounds, round `16i + j` reading `w[j]`.
        let mut state = start;
        for (i, k) in K.chunks_exact(16).enumerate() {
            if i > 0 {
                schedule(&mut w);
            }
            state = eight_rounds(state, w.first_chunk().expect("sixteen words"), &k[..8]);
            state = eight_rounds(state, w.last_chunk().expect("sixteen words"), &k[8..]);
        }

        let mut end = [_mm512_setzero_si512(); 16];
        for ((out, word), init) in end.iter_mut().zip(state).zip(start) {
            *out = _mm512_add_epi32(word, init);
        }
        for (state, row) in states.iter_mut().zip(transpose(end)) {
            let low = _mm512_castsi512_si256(row);
            *state = [
                _mm256_extract_epi32::<0>(low),
                _mm256_extract_epi32::<1>(low),
                _mm256_extract_epi32::<2>(low),
                _mm256_extract_epi32::<3>(low),
                _mm256_extract_epi32::<4>(low),
                _mm256_extract_epi32::<5>(low),
                _mm256_extract_epi32::<6>(low),
                _mm256_extract_epi32::<7>(low),
            ]
            .map(|x| x as u32);
        }
    }

    /// The next sixteen schedule words, each replacing the word sixteen
    /// before it: `w[j]` becomes `W[t]` for the `W[t − 16]` it held.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn schedule(w: &mut [__m512i; 16]) {
        w[0] = next_word(w[14], w[9], w[1], w[0]);
        w[1] = next_word(w[15], w[10], w[2], w[1]);
        w[2] = next_word(w[0], w[11], w[3], w[2]);
        w[3] = next_word(w[1], w[12], w[4], w[3]);
        w[4] = next_word(w[2], w[13], w[5], w[4]);
        w[5] = next_word(w[3], w[14], w[6], w[5]);
        w[6] = next_word(w[4], w[15], w[7], w[6]);
        w[7] = next_word(w[5], w[0], w[8], w[7]);
        w[8] = next_word(w[6], w[1], w[9], w[8]);
        w[9] = next_word(w[7], w[2], w[10], w[9]);
        w[10] = next_word(w[8], w[3], w[11], w[10]);
        w[11] = next_word(w[9], w[4], w[12], w[11]);
        w[12] = next_word(w[10], w[5], w[13], w[12]);
        w[13] = next_word(w[11], w[6], w[14], w[13]);
        w[14] = next_word(w[12], w[7], w[15], w[14]);
        w[15] = next_word(w[13], w[8], w[0], w[15]);
    }

    /// `W[t] = σ1(W[t−2]) + W[t−7] + σ0(W[t−15]) + W[t−16]`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn next_word(w2: __m512i, w7: __m512i, w15: __m512i, w16: __m512i) -> __m512i {
        let s0 = xor3(
            _mm512_ror_epi32::<7>(w15),
            _mm512_ror_epi32::<18>(w15),
            _mm512_srli_epi32::<3>(w15),
        );
        let s1 = xor3(
            _mm512_ror_epi32::<17>(w2),
            _mm512_ror_epi32::<19>(w2),
            _mm512_srli_epi32::<10>(w2),
        );
        _mm512_add_epi32(_mm512_add_epi32(w16, s0), _mm512_add_epi32(w7, s1))
    }

    /// Eight rounds from `state`, reading `w[j] + k[j]` in round `j`. The
    /// roles of the state words rotate by one each round, so no word is
    /// copied between rounds, and after eight they are back in place.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn eight_rounds(state: [__m512i; 8], w: &[__m512i; 8], k: &[u32]) -> [__m512i; 8] {
        let kw = |j: usize| _mm512_add_epi32(w[j], _mm512_set1_epi32(k[j] as i32));
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = state;
        round(a, b, c, &mut d, e, f, g, &mut h, kw(0));
        round(h, a, b, &mut c, d, e, f, &mut g, kw(1));
        round(g, h, a, &mut b, c, d, e, &mut f, kw(2));
        round(f, g, h, &mut a, b, c, d, &mut e, kw(3));
        round(e, f, g, &mut h, a, b, c, &mut d, kw(4));
        round(d, e, f, &mut g, h, a, b, &mut c, kw(5));
        round(c, d, e, &mut f, g, h, a, &mut b, kw(6));
        round(b, c, d, &mut e, f, g, h, &mut a, kw(7));
        [a, b, c, d, e, f, g, h]
    }

    /// One round on the state `a ..= h`, given `K[t] + W[t]`: `d` becomes
    /// the next round's `e` and `h` its `a`; the other six move one name on,
    /// which the caller does by passing them in the next role.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn round(
        a: __m512i,
        b: __m512i,
        c: __m512i,
        d: &mut __m512i,
        e: __m512i,
        f: __m512i,
        g: __m512i,
        h: &mut __m512i,
        kw: __m512i,
    ) {
        // h + K + W does not wait on this round's e or a.
        let hkw = _mm512_add_epi32(*h, kw);
        let s1 =
            xor3(_mm512_ror_epi32::<6>(e), _mm512_ror_epi32::<11>(e), _mm512_ror_epi32::<25>(e));
        // Ch(e, f, g) = e ? f : g.
        let ch = _mm512_ternarylogic_epi32::<0xCA>(e, f, g);
        let temp1 = _mm512_add_epi32(hkw, _mm512_add_epi32(s1, ch));
        let s0 =
            xor3(_mm512_ror_epi32::<2>(a), _mm512_ror_epi32::<13>(a), _mm512_ror_epi32::<22>(a));
        // Maj(a, b, c): set where at least two are.
        let maj = _mm512_ternarylogic_epi32::<0xE8>(a, b, c);
        *d = _mm512_add_epi32(*d, temp1);
        *h = _mm512_add_epi32(temp1, _mm512_add_epi32(s0, maj));
    }

    /// The sixteen words as one vector, `words[0]` in the lowest lane.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn vector(words: &[u32; 16]) -> __m512i {
        let w = words.map(|x| x as i32);
        _mm512_set_epi32(
            w[15], w[14], w[13], w[12], w[11], w[10], w[9], w[8], w[7], w[6], w[5], w[4], w[3],
            w[2], w[1], w[0],
        )
    }

    /// Each lane's four bytes reversed: the bytes of `x` rotated right by 8
    /// where the mask is set (bytes 3 and 1), left by 8 elsewhere.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn from_big_endian(x: __m512i) -> __m512i {
        let mask = _mm512_set1_epi32(0xFF00_FF00_u32 as i32);
        // c ? a : b
        _mm512_ternarylogic_epi32::<0xE4>(_mm512_ror_epi32::<8>(x), _mm512_rol_epi32::<8>(x), mask)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn xor3(x: __m512i, y: __m512i, z: __m512i) -> __m512i {
        _mm512_ternarylogic_epi32::<0x96>(x, y, z)
    }

    /// The 16 × 16 matrix of 32-bit words with `rows[i]` as row `i`,
    /// transposed: 32-bit interleaves, 64-bit interleaves, then two rounds
    /// of 128-bit block shuffles.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn transpose(rows: [__m512i; 16]) -> [__m512i; 16] {
        // t[2k], t[2k + 1]: rows 2k and 2k + 1 interleaved, words 0–1 and
        // 2–3 of each 128-bit block.
        let mut t = [_mm512_setzero_si512(); 16];
        for k in 0..8 {
            t[2 * k] = _mm512_unpacklo_epi32(rows[2 * k], rows[2 * k + 1]);
            t[2 * k + 1] = _mm512_unpackhi_epi32(rows[2 * k], rows[2 * k + 1]);
        }
        // u[4k + c]: in 128-bit block L, word 4L + c of rows 4k .. 4k + 4.
        let mut u = [_mm512_setzero_si512(); 16];
        for k in 0..4 {
            u[4 * k] = _mm512_unpacklo_epi64(t[4 * k], t[4 * k + 2]);
            u[4 * k + 1] = _mm512_unpackhi_epi64(t[4 * k], t[4 * k + 2]);
            u[4 * k + 2] = _mm512_unpacklo_epi64(t[4 * k + 1], t[4 * k + 3]);
            u[4 * k + 3] = _mm512_unpackhi_epi64(t[4 * k + 1], t[4 * k + 3]);
        }
        // Column 4L + c gathers block L of u[c], u[4 + c], u[8 + c] and
        // u[12 + c], in that order.
        let mut out = [_mm512_setzero_si512(); 16];
        for c in 0..4 {
            let low = _mm512_shuffle_i32x4::<0x44>(u[c], u[4 + c]);
            let high = _mm512_shuffle_i32x4::<0xEE>(u[c], u[4 + c]);
            let low2 = _mm512_shuffle_i32x4::<0x44>(u[8 + c], u[12 + c]);
            let high2 = _mm512_shuffle_i32x4::<0xEE>(u[8 + c], u[12 + c]);
            out[c] = _mm512_shuffle_i32x4::<0x88>(low, low2);
            out[4 + c] = _mm512_shuffle_i32x4::<0xDD>(low, low2);
            out[8 + c] = _mm512_shuffle_i32x4::<0x88>(high, high2);
            out[12 + c] = _mm512_shuffle_i32x4::<0xDD>(high, high2);
        }
        out
    }
}

#[cfg(test)]
thread_local! {
    static COMPRESSIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Compressions `work` performs on this thread: the crate's tests pin the
/// cost model with it (tag = 2, chain link = 2, extend at a known digest
/// = 2). It counts in the dispatchers, so the pins hold on both kernels and
/// whether or not the compressions were paired.
#[cfg(test)]
pub(crate) fn compressions_in<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = COMPRESSIONS.with(std::cell::Cell::get);
    let out = work();
    (out, COMPRESSIONS.with(std::cell::Cell::get) - before)
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: &[u8]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn nist_vector_empty() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_vector_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_vector_two_blocks() {
        let msg = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
        assert_eq!(
            hex(&sha256(msg)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_vector_million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&msg)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn nist_vector_448_bit_boundary() {
        // Exactly 56 bytes: exercises the two-block padding path.
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn";
        assert_eq!(msg.len(), 56);
        let one_shot = sha256(msg);
        let mut streaming = Sha256::new();
        for chunk in msg.chunks(7) {
            streaming.update(chunk);
        }
        assert_eq!(streaming.finalize(), one_shot);
    }

    #[test]
    fn streaming_equals_one_shot_across_chunkings() {
        let msg: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let expect = sha256(&msg);
        for chunk_size in [1, 3, 63, 64, 65, 128, 999] {
            let mut h = Sha256::new();
            for chunk in msg.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), expect, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn distinct_inputs_have_distinct_digests() {
        assert_ne!(sha256(b"nectar"), sha256(b"nectaR"));
        assert_ne!(sha256(b""), sha256(b"\0"));
    }

    /// The FIPS 180-4 §5.1.1 padding of a short `msg`, as whole blocks.
    fn padded_blocks(msg: &[u8]) -> Vec<[u8; 64]> {
        let mut bytes = msg.to_vec();
        bytes.push(0x80);
        while bytes.len() % 64 != 56 {
            bytes.push(0);
        }
        bytes.extend_from_slice(&(8 * msg.len() as u64).to_be_bytes());
        bytes.chunks_exact(64).map(|b| b.try_into().unwrap()).collect()
    }

    #[test]
    fn the_sha_ni_kernel_matches_the_scalar_kernel() {
        #[cfg(target_arch = "x86_64")]
        let detected = sha_ni::detected();
        #[cfg(not(target_arch = "x86_64"))]
        let detected = false;
        if !detected {
            println!("SHA extensions absent: scalar kernel only");
            return;
        }
        // Calling the SHA-NI kernel directly would take an `unsafe` of its
        // own, so the test reaches it the way everything else does: through
        // the dispatcher, which runs it whenever `detected` holds.
        let dispatched: fn(&mut [u32; 8], &[u8; 64]) = Sha256::compress;
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..10_000 {
            let state: [u32; 8] = std::array::from_fn(|_| next() as u32);
            let mut block = [0u8; 64];
            for chunk in block.chunks_exact_mut(8) {
                chunk.copy_from_slice(&next().to_le_bytes());
            }
            let (mut fast, mut reference) = (state, state);
            dispatched(&mut fast, &block);
            compress_scalar(&mut reference, &block);
            assert_eq!(fast, reference, "state {state:08x?}, block {}", hex(&block));
        }

        let abc = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
        let two_blocks = "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
        let vectors = [
            (&b"abc"[..], abc),
            (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq", two_blocks),
        ];
        for kernel in [dispatched, compress_scalar] {
            for (msg, digest) in vectors {
                let mut state = H0;
                for block in padded_blocks(msg) {
                    kernel(&mut state, &block);
                }
                let bytes: Vec<u8> = state.iter().flat_map(|w| w.to_be_bytes()).collect();
                assert_eq!(hex(&bytes), digest);
            }
        }
    }

    #[test]
    fn the_sha_ni_pair_kernel_matches_the_scalar_kernel() {
        #[cfg(target_arch = "x86_64")]
        let detected = sha_ni::detected();
        #[cfg(not(target_arch = "x86_64"))]
        let detected = false;
        if !detected {
            println!("SHA extensions absent: scalar kernel only");
            return;
        }
        // Through the dispatcher, as in the single-lane test above.
        let mut seed = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut input = || {
            let state: [u32; 8] = std::array::from_fn(|_| next() as u32);
            let mut block = [0u8; 64];
            for chunk in block.chunks_exact_mut(8) {
                chunk.copy_from_slice(&next().to_le_bytes());
            }
            (state, block)
        };
        for _ in 0..10_000 {
            let ((state_a, block_a), (state_b, block_b)) = (input(), input());
            let (mut a, mut b) = (state_a, state_b);
            Sha256::compress_pair(&mut a, &block_a, &mut b, &block_b);
            for (lane, mut reference, block) in [(a, state_a, block_a), (b, state_b, block_b)] {
                compress_scalar(&mut reference, &block);
                assert_eq!(lane, reference, "state {reference:08x?}, block {}", hex(&block));
            }
        }

        // "abc" in lane A beside the two-block vector in lane B: A runs its
        // one block twice from `H0`, B runs its two in turn.
        let abc = padded_blocks(b"abc");
        let two = padded_blocks(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
        let mut b = H0;
        for block in &two {
            let mut a = H0;
            Sha256::compress_pair(&mut a, &abc[0], &mut b, block);
            assert_eq!(
                hex(&digest_bytes(&a)),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
            );
        }
        assert_eq!(
            hex(&digest_bytes(&b)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn the_avx512_kernel_matches_the_scalar_kernel_at_every_job_count() {
        #[cfg(target_arch = "x86_64")]
        let detected = avx512::detected();
        #[cfg(not(target_arch = "x86_64"))]
        let detected = false;
        if !detected {
            println!("AVX-512 absent: batches run on the pair and single kernels only");
        }
        // Through `compress_all`, which sends 16-lane runs to the kernel
        // while 9 or more jobs remain: counts 1 to 33 cover one partial
        // run, full runs, a padded last run and the pair/single tail.
        let mut seed = 0x6a09_e667_f3bc_c908_u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut pairs = 0;
        while pairs < 10_000 {
            for count in 1..=33 {
                let starts: Vec<[u32; 8]> =
                    (0..count).map(|_| std::array::from_fn(|_| next() as u32)).collect();
                let blocks: Vec<[u8; 64]> = (0..count)
                    .map(|_| {
                        let mut block = [0u8; 64];
                        for chunk in block.chunks_exact_mut(8) {
                            chunk.copy_from_slice(&next().to_le_bytes());
                        }
                        block
                    })
                    .collect();
                let mut states = starts.clone();
                let ((), n) = compressions_in(|| compress_all(&mut states, &blocks));
                assert_eq!(n, count as u64, "{count} jobs count as {count} compressions");
                for ((state, mut reference), block) in states.iter().zip(starts).zip(&blocks) {
                    compress_scalar(&mut reference, block);
                    assert_eq!(*state, reference, "{count} jobs, block {}", hex(block));
                }
                pairs += count;
            }
        }

        // Every lane runs "abc" from `H0`, then every lane the two-block
        // vector, one block per batch.
        let abc = padded_blocks(b"abc");
        let two = padded_blocks(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
        for count in 1..=33 {
            let mut states = vec![H0; count];
            compress_all(&mut states, &vec![abc[0]; count]);
            for state in &states {
                assert_eq!(
                    hex(&digest_bytes(state)),
                    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
                );
            }
            let mut states = vec![H0; count];
            for block in &two {
                compress_all(&mut states, &vec![*block; count]);
            }
            for state in &states {
                assert_eq!(
                    hex(&digest_bytes(state)),
                    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
                );
            }
        }
    }
}
