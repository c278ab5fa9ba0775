//! Contingency tables: the data vector `x ∈ R^N`.
//!
//! As in the paper's Figure 1(a), a database over `d` binary attributes is
//! represented as the vector of counts over its linearized domain: `x_β` is
//! the number of tuples whose encoded attribute values equal `β`.

use std::sync::Arc;

use crate::marginal::MarginalTable;
use crate::mask::AttrMask;
use crate::schema::{Schema, SchemaError};
use crate::CoreError;

/// A full contingency table over `{0,1}^d`.
#[derive(Debug, Clone, PartialEq)]
pub struct ContingencyTable {
    d: usize,
    /// Shared copy-on-write with every [`crate::api::Session`] bound to
    /// the table: a bind takes no copy, and a mutator copies only while a
    /// session still holds the vector.
    counts: Arc<Vec<f64>>,
}

impl ContingencyTable {
    /// An all-zero table over `d` binary attributes.
    pub fn zeros(d: usize) -> Self {
        assert!(d <= 30, "in-memory contingency tables limited to d ≤ 30");
        ContingencyTable::from_counts(vec![0.0; 1usize << d])
    }

    /// Wraps an existing count vector; `counts.len()` must be a power of
    /// two equal to `2^d`.
    pub fn from_counts(counts: Vec<f64>) -> Self {
        assert!(
            counts.len().is_power_of_two(),
            "count vector length must be a power of two"
        );
        let d = counts.len().trailing_zeros() as usize;
        ContingencyTable {
            d,
            counts: Arc::new(counts),
        }
    }

    /// Builds the table of a record multiset under a schema.
    pub fn from_records(schema: &Schema, records: &[Vec<usize>]) -> Result<Self, SchemaError> {
        let mut t = ContingencyTable::zeros(schema.domain_bits());
        let counts = Arc::make_mut(&mut t.counts);
        for r in records {
            counts[schema.encode(r)? as usize] += 1.0;
        }
        Ok(t)
    }

    /// Builds the table directly from pre-encoded indices.
    pub fn from_indices(d: usize, indices: &[u64]) -> Self {
        let mut t = ContingencyTable::zeros(d);
        let counts = Arc::make_mut(&mut t.counts);
        for &i in indices {
            counts[i as usize] += 1.0;
        }
        t
    }

    /// Number of binary attributes `d`.
    #[inline]
    pub fn dims(&self) -> usize {
        self.d
    }

    /// Domain size `N = 2^d`.
    #[inline]
    pub fn domain_size(&self) -> usize {
        self.counts.len()
    }

    /// The raw count vector `x`.
    #[inline]
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// The count vector itself, shared rather than copied — what
    /// [`crate::api::Session::bind`] holds.
    pub(crate) fn shared_counts(&self) -> Arc<Vec<f64>> {
        Arc::clone(&self.counts)
    }

    /// Total number of tuples `Σ_β x_β`.
    pub fn total(&self) -> f64 {
        self.counts.iter().sum()
    }

    /// Inserts one record: `x_{enc(r)} += 1`. The table-side twin of
    /// [`crate::api::Session::ingest`]; equivalent to rebuilding
    /// with [`ContingencyTable::from_records`] on the extended multiset.
    pub fn add_record(&mut self, schema: &Schema, record: &[usize]) -> Result<u64, SchemaError> {
        let idx = schema.encode(record)?;
        Arc::make_mut(&mut self.counts)[idx as usize] += 1.0;
        Ok(idx)
    }

    /// Deletes one record: `x_{enc(r)} -= 1`, refusing to drive the cell
    /// negative (retracting a record that was never inserted).
    pub fn remove_record(&mut self, schema: &Schema, record: &[usize]) -> Result<u64, CoreError> {
        let idx = schema
            .encode(record)
            .map_err(|_| CoreError::InvalidPlan("record does not match the table's schema"))?;
        self.add_count(idx, -1.0)?;
        Ok(idx)
    }

    /// Adds `delta` tuples at linearized cell `cell` (negative `delta`
    /// retracts). Errors if the cell is out of range, if the delta is not
    /// finite or would overflow the count, or if the resulting count would
    /// be negative — the same guards as
    /// [`crate::api::Session::ingest_count`]. On error the table is
    /// unchanged.
    pub fn add_count(&mut self, cell: u64, delta: f64) -> Result<(), CoreError> {
        let n = self.counts.len();
        if cell >= n as u64 {
            return Err(CoreError::Shape {
                context: "ContingencyTable::add_count cell",
                expected: n,
                actual: cell as usize,
            });
        }
        let next = self.counts[cell as usize] + delta;
        if !next.is_finite() {
            return Err(CoreError::NonFiniteDelta { cell, delta });
        }
        if next < 0.0 {
            return Err(CoreError::NegativeCount { cell, count: next });
        }
        Arc::make_mut(&mut self.counts)[cell as usize] = next;
        Ok(())
    }

    /// Computes the marginal `Cα x` (Section 4.1): cell `γ ≼ α` receives
    /// `Σ_{β : β∧α=γ} x_β`, indexed by [`AttrMask::compress_cell`]. Same
    /// path and cost as [`ContingencyTable::marginals`].
    pub fn marginal(&self, alpha: AttrMask) -> MarginalTable {
        let mut one = self.marginals(&[alpha]);
        one.pop().expect("one marginal per mask")
    }

    /// Computes several marginals, fanned out across cores — the exact
    /// answers of a workload. Count data takes one O(N) scan for its
    /// [`occupied_cells`] plus O(occupied cells) per marginal
    /// ([`sum_occupied`]); other vectors take the [`marginalize`] fold.
    pub fn marginals(&self, alphas: &[AttrMask]) -> Vec<MarginalTable> {
        count_marginals(&self.counts, self.d, alphas)
    }

    /// The Fourier coefficient `⟨f^α, x⟩` of the table (O(N) direct sum;
    /// use the WHT for many coefficients at once).
    pub fn fourier_coefficient(&self, alpha: AttrMask) -> f64 {
        dp_linalg::wht::fourier_coefficient(&self.counts, alpha.0 as usize)
    }
}

/// Largest total whose every partial sum of integer counts is an exact
/// `f64`.
const EXACT_TOTAL: u64 = 1 << 53;

/// The occupied cells `(cell, count)` of a count vector, in cell order —
/// or `None` unless every count is `+0.0` or a positive integer and the
/// total is at most 2^53. Those are the vectors whose partial sums are all
/// exact, so any summation order gives the same bits; noisy or fractional
/// vectors, `-0.0`, NaN and larger totals return `None`.
pub fn occupied_cells(counts: &[f64]) -> Option<Vec<(u64, f64)>> {
    let mut cells = Vec::new();
    let mut total = 0u64;
    for (cell, &c) in counts.iter().enumerate() {
        if c.to_bits() == 0 {
            continue;
        }
        if !(c > 0.0 && c <= EXACT_TOTAL as f64 && c.fract() == 0.0) {
            return None;
        }
        total += c as u64;
        if total > EXACT_TOTAL {
            return None;
        }
        cells.push((cell as u64, c));
    }
    Some(cells)
}

/// The marginal over `alpha` of [`occupied_cells`]: each count added, in
/// cell order, into cell `alpha.compress_cell(cell ∧ alpha)`.
pub fn sum_occupied(cells: &[(u64, f64)], alpha: AttrMask) -> Vec<f64> {
    let mut out = vec![0.0; alpha.cell_count()];
    for &(cell, c) in cells {
        out[alpha.compress_cell(cell & alpha.0)] += c;
    }
    out
}

/// The exact marginals of a count vector, fanned out across cores: one
/// O(N) scan for the [`occupied_cells`], then O(occupied) per marginal,
/// with no copy of the vector. The sum is exact, so the bytes equal the
/// [`marginalize`] fold's; vectors that fail the exactness test take the
/// fold. The one marginal path for data vectors — bind, rebase and exact
/// workload answers.
pub(crate) fn count_marginals(counts: &[f64], d: usize, alphas: &[AttrMask]) -> Vec<MarginalTable> {
    use rayon::prelude::*;
    match occupied_cells(counts) {
        Some(cells) => alphas
            .par_iter()
            .map(|&alpha| MarginalTable::new(alpha, sum_occupied(&cells, alpha)))
            .collect(),
        None => marginalize_all(counts, d, alphas),
    }
}

/// Marginalizes a raw count vector over `d` bits down to the cells of
/// `alpha`, by folding out each cleared bit: it copies the vector, then
/// halves the working array per folded bit, O(2N) whatever `‖α‖`. The
/// surviving bits keep their relative order, so the output indexing
/// matches [`AttrMask::compress_cell`]. The path for noisy vectors.
pub fn marginalize(counts: &[f64], d: usize, alpha: AttrMask) -> Vec<f64> {
    debug_assert_eq!(counts.len(), 1usize << d);
    let mut cur: Vec<f64> = counts.to_vec();
    let mut remaining = d;
    // Fold out cleared bits from highest to lowest so each fold is a
    // contiguous halves-add (cache friendly); relative order of surviving
    // bits is preserved either way.
    for bit in (0..d).rev() {
        if alpha.0 >> bit & 1 == 1 {
            continue;
        }
        // Remove `bit` from an array currently addressed by `remaining`
        // bits, of which the bits above `bit` are the still-unfolded high
        // bits (all folds above already happened).
        let half_stride = 1usize << bit;
        let n = 1usize << remaining;
        let mut write = 0usize;
        let mut base = 0usize;
        while base < n {
            for i in 0..half_stride {
                cur[write + i] = cur[base + i] + cur[base + half_stride + i];
            }
            write += half_stride;
            base += 2 * half_stride;
        }
        remaining -= 1;
        cur.truncate(1usize << remaining);
    }
    // Hand back a marginal-sized buffer, not the `2^d` one the copy
    // allocated: a caller holding one per target marginal would otherwise
    // keep every copy's pages alive.
    cur.shrink_to_fit();
    cur
}

/// [`marginalize`] for several marginals of one (noisy) vector, fanned
/// out across cores.
pub(crate) fn marginalize_all(counts: &[f64], d: usize, alphas: &[AttrMask]) -> Vec<MarginalTable> {
    use rayon::prelude::*;
    alphas
        .par_iter()
        .map(|&alpha| MarginalTable::new(alpha, marginalize(counts, d, alpha)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    /// The paper's Figure 1(a) table: x = (1,2,0,1,0,0,1,0) over attributes
    /// A,B,C linearized in the order 000, 001, …, 111 — note the paper
    /// linearizes with A as the *most* significant bit, so with our
    /// lowest-bit-first schema layout, A is bit 2.
    pub(crate) fn figure1_table() -> ContingencyTable {
        ContingencyTable::from_counts(vec![1.0, 2.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    }

    #[test]
    fn figure1_counts() {
        let t = figure1_table();
        assert_eq!(t.dims(), 3);
        assert_eq!(t.total(), 5.0);
        // x₂ (index for 001 in the paper's A-major order = our index 1) is 2:
        // two tuples (1 and 4) with A=0,B=0,C=1.
        assert_eq!(t.counts()[1], 2.0);
    }

    #[test]
    fn figure1_marginal_ab_matches_paper() {
        // The paper computes (C¹¹⁰x)₀₀₀ = x₀₀₀ + x₀₀₁ = 3 and
        // (C¹¹⁰x)₀₁₀ = x₀₁₀ + x₀₁₁ = 1. In A-major linearization attribute
        // C is the lowest bit, so the AB marginal aggregates over bit 0.
        let t = figure1_table();
        let ab = AttrMask(0b110);
        let m = t.marginal(ab);
        assert_eq!(m.values(), &[3.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn figure1_marginal_a() {
        let t = figure1_table();
        let a = AttrMask(0b100);
        let m = t.marginal(a);
        assert_eq!(m.values(), &[4.0, 1.0]);
    }

    #[test]
    fn empty_marginal_is_total() {
        let t = figure1_table();
        let m = t.marginal(AttrMask::EMPTY);
        assert_eq!(m.values(), &[5.0]);
    }

    #[test]
    fn full_marginal_is_identity() {
        let t = figure1_table();
        let m = t.marginal(AttrMask::full(3));
        assert_eq!(m.values(), t.counts());
    }

    #[test]
    fn batched_marginals_match_individual() {
        let t = figure1_table();
        let alphas = [AttrMask(0b100), AttrMask(0b110), AttrMask(0b011)];
        let batch = t.marginals(&alphas);
        for (mt, &a) in batch.iter().zip(&alphas) {
            assert_eq!(mt.values(), t.marginal(a).values());
        }
    }

    #[test]
    fn from_records_counts_correctly() {
        let schema = Schema::new(vec![
            Attribute::new("a", 2).unwrap(),
            Attribute::new("b", 3).unwrap(),
        ])
        .unwrap();
        let records = vec![vec![0, 0], vec![0, 0], vec![1, 2]];
        let t = ContingencyTable::from_records(&schema, &records).unwrap();
        assert_eq!(t.dims(), 3);
        assert_eq!(t.total(), 3.0);
        assert_eq!(t.counts()[0], 2.0);
        let idx = schema.encode(&[1, 2]).unwrap();
        assert_eq!(t.counts()[idx as usize], 1.0);
    }

    #[test]
    fn from_indices() {
        let t = ContingencyTable::from_indices(2, &[0, 3, 3]);
        assert_eq!(t.counts(), &[1.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn incremental_edits_match_from_records() {
        let schema = Schema::new(vec![
            Attribute::new("a", 2).unwrap(),
            Attribute::new("b", 3).unwrap(),
        ])
        .unwrap();
        let records = vec![vec![0, 0], vec![0, 0], vec![1, 2], vec![0, 1]];
        let mut t = ContingencyTable::zeros(schema.domain_bits());
        for r in &records {
            t.add_record(&schema, r).unwrap();
        }
        let expected = ContingencyTable::from_records(&schema, &records).unwrap();
        assert_eq!(t, expected);

        // Removing one record matches rebuilding without it.
        t.remove_record(&schema, &records[1]).unwrap();
        let expected = ContingencyTable::from_records(
            &schema,
            &[records[0].clone(), records[2].clone(), records[3].clone()],
        )
        .unwrap();
        assert_eq!(t, expected);
    }

    #[test]
    fn retraction_below_zero_is_rejected() {
        let schema = Schema::new(vec![Attribute::new("a", 2).unwrap()]).unwrap();
        let mut t = ContingencyTable::zeros(schema.domain_bits());
        t.add_record(&schema, &[1]).unwrap();
        assert!(matches!(
            t.remove_record(&schema, &[0]),
            Err(CoreError::NegativeCount { cell: 0, .. })
        ));
        // A failed retraction leaves the table unchanged.
        assert_eq!(t.counts(), &[0.0, 1.0]);
        t.remove_record(&schema, &[1]).unwrap();
        assert_eq!(t.total(), 0.0);
    }

    #[test]
    fn add_count_bounds_and_negative_guard() {
        let mut t = ContingencyTable::zeros(2);
        assert!(matches!(t.add_count(4, 1.0), Err(CoreError::Shape { .. })));
        t.add_count(3, 2.5).unwrap();
        assert!(matches!(
            t.add_count(3, -3.0),
            Err(CoreError::NegativeCount { cell: 3, .. })
        ));
        t.add_count(3, -2.5).unwrap();
        assert_eq!(t.total(), 0.0);
    }

    #[test]
    fn add_count_refuses_non_finite_deltas_and_overflow() {
        let mut t = ContingencyTable::zeros(2);
        t.add_count(1, 3.0).unwrap();
        for delta in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    t.add_count(1, delta),
                    Err(CoreError::NonFiniteDelta { cell: 1, .. })
                ),
                "delta {delta} must be refused"
            );
        }
        t.add_count(2, f64::MAX).unwrap();
        assert!(matches!(
            t.add_count(2, f64::MAX),
            Err(CoreError::NonFiniteDelta { cell: 2, .. })
        ));
        // Every refusal left the table unchanged.
        assert_eq!(t.counts(), &[0.0, 3.0, f64::MAX, 0.0]);
    }

    #[test]
    fn fourier_zeroth_coefficient_is_scaled_total() {
        let t = figure1_table();
        let c = t.fourier_coefficient(AttrMask::EMPTY);
        assert!((c - 5.0 / 8.0_f64.sqrt()).abs() < 1e-12);
    }

    proptest::proptest! {
        /// Marginal-sum invariant: every marginal's cells sum to the total.
        #[test]
        fn marginal_sums_preserve_total(
            counts in proptest::collection::vec(0.0f64..50.0, 16),
            mask_bits in 0u64..16,
        ) {
            let t = ContingencyTable::from_counts(counts);
            let m = t.marginal(AttrMask(mask_bits));
            let total = t.total();
            let msum: f64 = m.values().iter().sum();
            proptest::prop_assert!((total - msum).abs() < 1e-9 * total.max(1.0));
        }

        /// Aggregation consistency: the marginal over α of the marginal
        /// over β ⊇ α equals the marginal over α directly.
        #[test]
        fn marginal_of_marginal(
            counts in proptest::collection::vec(0.0f64..10.0, 32),
            sup in 0u64..32,
        ) {
            let t = ContingencyTable::from_counts(counts);
            let beta = AttrMask(sup);
            for alpha in beta.subsets() {
                let direct = t.marginal(alpha);
                let via = t.marginal(beta).aggregate_to(alpha).unwrap();
                for (a, b) in direct.values().iter().zip(via.values()) {
                    proptest::prop_assert!((a - b).abs() < 1e-9);
                }
            }
        }
    }
}
