//! Bloom filters, as used by MindTheGap to gossip reachable-node sets.
//!
//! MtG keeps its network cost low by representing the set of reachable
//! process IDs as a Bloom filter (§V-A). The flip side — and the crux of the
//! paper's Byzantine evaluation — is that a filter full of ones claims every
//! node is reachable, and nothing authenticates it (§V-D).

use nectar_graph::rng::mix64;

/// A fixed-size Bloom filter over `u64` items with double hashing
/// (Kirsch–Mitzenmacher).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    m_bits: usize,
    k_hashes: usize,
}

impl BloomFilter {
    /// Creates an empty filter with `m_bits` bits and `k_hashes` hash
    /// functions.
    ///
    /// # Panics
    ///
    /// Panics if `m_bits` or `k_hashes` is zero.
    pub fn new(m_bits: usize, k_hashes: usize) -> Self {
        assert!(m_bits > 0, "filter needs at least one bit");
        assert!(k_hashes > 0, "filter needs at least one hash");
        BloomFilter { bits: vec![0; m_bits.div_ceil(64)], m_bits, k_hashes }
    }

    fn positions(&self, item: u64) -> impl Iterator<Item = usize> + '_ {
        let splitmix64 = |x: u64| mix64(x.wrapping_add(0x9e37_79b9_7f4a_7c15));
        let h1 = splitmix64(item);
        let h2 = splitmix64(h1) | 1; // odd stride
        (0..self.k_hashes as u64)
            .map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) % self.m_bits as u64) as usize)
    }

    /// Inserts an item.
    pub fn insert(&mut self, item: u64) {
        let positions: Vec<usize> = self.positions(item).collect();
        for pos in positions {
            self.bits[pos / 64] |= 1 << (pos % 64);
        }
    }

    /// Membership query (false positives possible, false negatives not).
    pub fn contains(&self, item: u64) -> bool {
        self.positions(item).all(|pos| self.bits[pos / 64] & (1 << (pos % 64)) != 0)
    }

    /// Unions another filter of identical geometry into this one.
    ///
    /// # Panics
    ///
    /// Panics if the geometries differ.
    pub fn union(&mut self, other: &BloomFilter) {
        assert_eq!(self.m_bits, other.m_bits, "filter geometry mismatch");
        assert_eq!(self.k_hashes, other.k_hashes, "filter geometry mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Sets every bit — the Byzantine attack of §V-D ("Byzantine nodes can
    /// send filters full of 1 values to lead correct nodes to conclude that
    /// the system is connected").
    pub fn saturate(&mut self) {
        for word in &mut self.bits {
            *word = u64::MAX;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        let mut total: usize = self.bits.iter().map(|w| w.count_ones() as usize).sum();
        // Mask out bits beyond m_bits (only set by saturate()).
        let spare = self.bits.len() * 64 - self.m_bits;
        if spare > 0 {
            if let Some(last) = self.bits.last() {
                let overflow = (last >> (64 - spare)).count_ones() as usize;
                total -= overflow;
            }
        }
        total
    }

    /// Filter size on the wire (its bit array).
    pub fn wire_bytes(&self) -> usize {
        self.m_bits.div_ceil(8)
    }

    /// Filter geometry `(m_bits, k_hashes)`.
    pub fn geometry(&self) -> (usize, usize) {
        (self.m_bits, self.k_hashes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserted_items_are_found() {
        let mut f = BloomFilter::new(1024, 3);
        for id in 0..50u64 {
            f.insert(id);
        }
        assert!((0..50u64).all(|id| f.contains(id)));
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::new(1024, 3);
        assert!((0..100u64).all(|id| !f.contains(id)));
        assert_eq!(f.count_ones(), 0);
    }

    #[test]
    fn false_positive_rate_is_reasonable() {
        // 100 inserts into 1024 bits / 3 hashes: theory predicts ~2.7% FPR.
        let mut f = BloomFilter::new(1024, 3);
        for id in 0..100u64 {
            f.insert(id);
        }
        let fps = (100..10_100u64).filter(|&x| f.contains(x)).count();
        assert!(fps < 700, "false positive rate unexpectedly high: {fps}/10000");
    }

    #[test]
    fn union_merges_membership() {
        let mut a = BloomFilter::new(256, 2);
        let mut b = BloomFilter::new(256, 2);
        a.insert(1);
        b.insert(2);
        a.union(&b);
        assert!(a.contains(1) && a.contains(2));
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn union_requires_same_geometry() {
        let mut a = BloomFilter::new(256, 2);
        let b = BloomFilter::new(512, 2);
        a.union(&b);
    }

    #[test]
    fn saturated_filter_claims_everything() {
        let mut f = BloomFilter::new(300, 3);
        f.saturate();
        assert!((0..1000u64).all(|id| f.contains(id)));
        assert_eq!(f.count_ones(), 300);
    }

    #[test]
    fn wire_size_is_bit_array_bytes() {
        assert_eq!(BloomFilter::new(1024, 3).wire_bytes(), 128);
        assert_eq!(BloomFilter::new(300, 3).wire_bytes(), 38);
    }
}
