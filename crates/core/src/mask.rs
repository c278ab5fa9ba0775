//! Attribute bitmasks over the Boolean hypercube `{0,1}^d`.
//!
//! Following Section 4.1 of the paper, every marginal (subcube of the data
//! cube) is identified by a bit-vector `α ∈ {0,1}^d` whose set bits are the
//! attributes the marginal retains. This module provides the mask algebra
//! the paper uses throughout: domination (`α ≼ β ⇔ α ∧ β = α`), weight
//! `‖α‖`, subset (downset) enumeration, and the compressed cell indexing
//! that maps a full-domain index `β ≼ α` to its rank among `α`'s cells.

/// A subset of the `d` binary attributes, stored as a bitmask.
///
/// Supports domains up to `d = 63`; the experiments use `d ≤ 23`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrMask(pub u64);

impl AttrMask {
    /// The empty attribute set (the grand-total marginal).
    pub const EMPTY: AttrMask = AttrMask(0);

    /// Mask with the lowest `d` bits set (the full cube).
    pub fn full(d: usize) -> AttrMask {
        assert!(
            d <= 63,
            "domains beyond 63 binary attributes are unsupported"
        );
        AttrMask((1u64 << d) - 1)
    }

    /// Mask with a single attribute bit set.
    pub fn single(bit: usize) -> AttrMask {
        AttrMask(1u64 << bit)
    }

    /// Builds a mask from attribute bit positions.
    pub fn from_bits(bits: &[usize]) -> AttrMask {
        AttrMask(bits.iter().fold(0u64, |m, &b| m | (1u64 << b)))
    }

    /// `‖α‖`: number of attributes in the mask (the marginal's
    /// dimensionality).
    #[inline]
    pub fn weight(self) -> u32 {
        self.0.count_ones()
    }

    /// Number of cells in the marginal `Cα`: `2^{‖α‖}`.
    #[inline]
    pub fn cell_count(self) -> usize {
        1usize << self.weight()
    }

    /// Bitwise intersection `α ∧ β`.
    #[inline]
    pub fn intersect(self, other: AttrMask) -> AttrMask {
        AttrMask(self.0 & other.0)
    }

    /// Bitwise union `α ∨ β`.
    #[inline]
    pub fn union(self, other: AttrMask) -> AttrMask {
        AttrMask(self.0 | other.0)
    }

    /// Domination test `self ≼ other` (Section 4.1): true iff every
    /// attribute of `self` is also in `other`.
    #[inline]
    pub fn dominated_by(self, other: AttrMask) -> bool {
        self.0 & other.0 == self.0
    }

    /// The inner product `⟨α, β⟩ = ‖α ∧ β‖` used by the Fourier basis.
    #[inline]
    pub fn inner(self, other: AttrMask) -> u32 {
        (self.0 & other.0).count_ones()
    }

    /// The Fourier sign `(−1)^{⟨α,β⟩}`.
    #[inline]
    pub fn sign(self, other: AttrMask) -> f64 {
        if self.inner(other) & 1 == 1 {
            -1.0
        } else {
            1.0
        }
    }

    /// Iterates over **all** submasks `β ≼ self`, including `EMPTY` and
    /// `self` itself, in increasing numeric order of the compressed rank.
    ///
    /// Uses the classic `(s - 1) & mask` subset-enumeration trick, but
    /// ascending via rank expansion so the order matches
    /// [`AttrMask::expand_cell`].
    pub fn subsets(self) -> SubsetIter {
        SubsetIter {
            mask: self,
            next_rank: 0,
            total: self.cell_count(),
        }
    }

    /// Compresses a dominated full-domain index `beta ≼ self` to its rank in
    /// `[0, 2^{‖self‖})`: the bits of `beta` at `self`'s set positions are
    /// gathered contiguously (software PEXT).
    #[inline]
    pub fn compress_cell(self, beta: u64) -> usize {
        debug_assert_eq!(beta & !self.0, 0, "beta must be dominated by the mask");
        let mut out = 0usize;
        let mut m = self.0;
        let mut bit = 0usize;
        while m != 0 {
            let lowest = m & m.wrapping_neg();
            if beta & lowest != 0 {
                out |= 1 << bit;
            }
            bit += 1;
            m &= m - 1;
        }
        out
    }

    /// Inverse of [`AttrMask::compress_cell`]: scatters the low `‖self‖`
    /// bits of `rank` to `self`'s set positions (software PDEP).
    #[inline]
    pub fn expand_cell(self, rank: usize) -> u64 {
        let mut out = 0u64;
        let mut m = self.0;
        let mut bit = 0usize;
        while m != 0 {
            let lowest = m & m.wrapping_neg();
            if rank & (1 << bit) != 0 {
                out |= lowest;
            }
            bit += 1;
            m &= m - 1;
        }
        out
    }

    /// Positions of the set bits, lowest first.
    pub fn bit_positions(self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.weight() as usize);
        let mut m = self.0;
        while m != 0 {
            out.push(m.trailing_zeros() as usize);
            m &= m - 1;
        }
        out
    }
}

impl std::fmt::Display for AttrMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, b) in self.bit_positions().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{b}")?;
        }
        write!(f, "}}")
    }
}

/// Iterator over the downset of a mask; see [`AttrMask::subsets`].
#[derive(Debug, Clone)]
pub struct SubsetIter {
    mask: AttrMask,
    next_rank: usize,
    total: usize,
}

impl Iterator for SubsetIter {
    type Item = AttrMask;

    fn next(&mut self) -> Option<AttrMask> {
        if self.next_rank >= self.total {
            return None;
        }
        let beta = self.mask.expand_cell(self.next_rank);
        self.next_rank += 1;
        Some(AttrMask(beta))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.total - self.next_rank;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for SubsetIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_and_cells() {
        let m = AttrMask::from_bits(&[0, 2, 5]);
        assert_eq!(m.weight(), 3);
        assert_eq!(m.cell_count(), 8);
        assert_eq!(AttrMask::EMPTY.cell_count(), 1);
        assert_eq!(AttrMask::full(4).0, 0b1111);
    }

    #[test]
    fn domination_matches_paper_example() {
        // From Section 4.1: 000 ≼ 110 and 010 ≼ 110, but 001 ⋠ 110.
        let alpha = AttrMask(0b110);
        assert!(AttrMask(0b000).dominated_by(alpha));
        assert!(AttrMask(0b010).dominated_by(alpha));
        assert!(!AttrMask(0b001).dominated_by(alpha));
    }

    #[test]
    fn inner_product_and_sign() {
        let a = AttrMask(0b1011);
        let b = AttrMask(0b0011);
        assert_eq!(a.inner(b), 2);
        assert_eq!(a.sign(b), 1.0);
        assert_eq!(AttrMask(0b1).sign(AttrMask(0b1)), -1.0);
    }

    #[test]
    fn subsets_enumerate_full_downset() {
        let m = AttrMask(0b101);
        let subs: Vec<u64> = m.subsets().map(|s| s.0).collect();
        assert_eq!(subs, vec![0b000, 0b001, 0b100, 0b101]);
        assert_eq!(m.subsets().len(), 4);
    }

    #[test]
    fn compress_expand_roundtrip() {
        let m = AttrMask(0b10110);
        for rank in 0..m.cell_count() {
            let beta = m.expand_cell(rank);
            assert_eq!(beta & !m.0, 0);
            assert_eq!(m.compress_cell(beta), rank);
        }
    }

    #[test]
    fn compress_gathers_bits_in_order() {
        let m = AttrMask(0b0110); // bits 1 and 2
        assert_eq!(m.compress_cell(0b0010), 0b01);
        assert_eq!(m.compress_cell(0b0100), 0b10);
        assert_eq!(m.compress_cell(0b0110), 0b11);
    }

    #[test]
    fn bit_positions_sorted() {
        assert_eq!(AttrMask(0b101001).bit_positions(), vec![0, 3, 5]);
        assert!(AttrMask::EMPTY.bit_positions().is_empty());
    }

    #[test]
    fn display_formats() {
        assert_eq!(AttrMask(0b101).to_string(), "{0,2}");
        assert_eq!(AttrMask::EMPTY.to_string(), "{}");
    }

    #[test]
    fn union_intersect() {
        let a = AttrMask(0b0011);
        let b = AttrMask(0b0110);
        assert_eq!(a.union(b).0, 0b0111);
        assert_eq!(a.intersect(b).0, 0b0010);
    }

    proptest::proptest! {
        #[test]
        fn subset_count_is_power_of_weight(bits in 0u64..(1 << 12)) {
            let m = AttrMask(bits);
            proptest::prop_assert_eq!(m.subsets().count(), 1 << m.weight());
        }

        #[test]
        fn every_subset_is_dominated(bits in 0u64..(1 << 10)) {
            let m = AttrMask(bits);
            for s in m.subsets() {
                proptest::prop_assert!(s.dominated_by(m));
            }
        }

        #[test]
        fn compress_expand_inverse(bits in 0u64..(1 << 14), rank in 0usize..64) {
            let m = AttrMask(bits);
            let rank = rank % m.cell_count();
            proptest::prop_assert_eq!(m.compress_cell(m.expand_cell(rank)), rank);
        }
    }
}
