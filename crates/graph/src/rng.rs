//! The workspace's one seeded random stream: xoshiro256++ seeded through
//! SplitMix64 (Blackman & Vigna's standard constructions).
//!
//! Every seeded topology, Byzantine placement and mobility trace draws from
//! this stream, so the stream itself is part of the reproduction contract:
//! the figure CSVs and the experiment matrix are pinned byte for byte
//! against it. It is stable across platforms and releases; changing a draw
//! below moves every seeded result.

use std::ops::{Range, RangeInclusive};

/// Deterministic xoshiro256++ generator with exactly the draws the
/// workspace makes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Builds the generator from a 64-bit seed, expanded into the xoshiro
    /// state by SplitMix64 as the xoshiro authors recommend.
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng { s: [next(), next(), next(), next()] }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A fair coin: the low bit of one draw.
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform in the half-open `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range(&mut self, range: Range<usize>) -> usize {
        assert!(range.start < range.end, "cannot sample from empty range");
        self.offset(range.start, range.end as u128 - range.start as u128)
    }

    /// Uniform in the inclusive `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range_inclusive(&mut self, range: RangeInclusive<usize>) -> usize {
        let (start, end) = (*range.start(), *range.end());
        assert!(start <= end, "cannot sample from empty range");
        self.offset(start, end as u128 - start as u128 + 1)
    }

    /// `start` plus a 128-bit draw (two `next_u64`s, high word first)
    /// reduced modulo `span`.
    fn offset(&mut self, start: usize, span: u128) -> usize {
        let wide = ((self.next_u64() as u128) << 64) | self.next_u64() as u128;
        start + (wide % span) as usize
    }

    /// Shuffles `slice` in place (Fisher–Yates, drawing `0..=i` from the
    /// back).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.range_inclusive(0..=i);
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element, or `None` if `slice` is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            slice.get(self.range(0..slice.len()))
        }
    }
}
