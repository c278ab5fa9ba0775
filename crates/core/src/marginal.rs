//! Marginal tables (`Cα x`) and the marginal operator algebra of
//! Section 4.1 / Theorem 4.1 of the paper.

use crate::mask::AttrMask;
use std::sync::Arc;

/// The value vector of one marginal `Cα x`, with cells indexed by the
/// compressed rank of their dominated index `γ ≼ α` (see
/// [`AttrMask::compress_cell`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MarginalTable {
    mask: AttrMask,
    values: Vec<f64>,
}

impl MarginalTable {
    /// Wraps a value vector for the marginal over `mask`.
    ///
    /// # Panics
    /// Panics if `values.len() != 2^{‖mask‖}` (internal construction
    /// invariant).
    pub fn new(mask: AttrMask, values: Vec<f64>) -> Self {
        assert_eq!(
            values.len(),
            mask.cell_count(),
            "marginal over {mask} needs {} cells",
            mask.cell_count()
        );
        MarginalTable { mask, values }
    }

    /// The attribute mask `α` of this marginal.
    #[inline]
    pub fn mask(&self) -> AttrMask {
        self.mask
    }

    /// Cell values, compressed-rank indexed.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Looks up the cell whose *full-domain* index is `gamma` (must be
    /// dominated by the mask).
    pub fn cell(&self, gamma: u64) -> f64 {
        self.values[self.mask.compress_cell(gamma)]
    }

    /// Aggregates this marginal down to a coarser one over `target ≼ mask`,
    /// summing cells that agree on the target attributes. This is the
    /// recovery step used when a strategy materializes a *superset*
    /// marginal (e.g. the cluster strategy answering `A` from `A,B` as in
    /// the paper's Figure 1(d)).
    pub fn aggregate_to(&self, target: AttrMask) -> Result<MarginalTable, MarginalError> {
        aggregate(self.mask, &self.values, target).map(|cells| MarginalTable::new(target, cells))
    }
}

/// The cells of the marginal over `target ≼ source` from the cells of the
/// marginal over `source`, each added into the target cell it agrees with
/// ([`MarginalTable::aggregate_to`] on a borrowed view).
pub fn aggregate(
    source: AttrMask,
    cells: &[f64],
    target: AttrMask,
) -> Result<Vec<f64>, MarginalError> {
    if !target.dominated_by(source) {
        return Err(MarginalError::NotDominated { target, source });
    }
    let mut out = vec![0.0; target.cell_count()];
    for (rank, &v) in cells.iter().enumerate() {
        let gamma = source.expand_cell(rank);
        out[target.compress_cell(gamma & target.0)] += v;
    }
    Ok(out)
}

/// A set of marginals as one value: the masks, in workload order, and one
/// buffer of all their cells concatenated in that order — the layout of
/// [`ObservationOperator::apply`](crate::fourier::ObservationOperator::apply),
/// of a `Q` plan's observations and of the rows of
/// [`Workload::query_matrix`](crate::workload::Workload::query_matrix).
/// Releases, exact answers, metrics and consistency all use it. The masks
/// are shared, so a release allocates its cells and nothing per marginal.
#[derive(Debug, Clone, PartialEq)]
pub struct MarginalSet {
    masks: Arc<[AttrMask]>,
    cells: Vec<f64>,
}

impl MarginalSet {
    /// Wraps the cells of the marginals over `masks`, concatenated in mask
    /// order.
    ///
    /// # Panics
    /// Panics unless `cells` holds `Σ 2^{‖α‖}` values.
    pub fn new(masks: impl Into<Arc<[AttrMask]>>, cells: Vec<f64>) -> Self {
        let masks = masks.into();
        let expected: usize = masks.iter().map(|m| m.cell_count()).sum();
        assert_eq!(cells.len(), expected, "the marginals need {expected} cells");
        MarginalSet { masks, cells }
    }

    /// The masks, in order.
    #[inline]
    pub fn masks(&self) -> &[AttrMask] {
        &self.masks
    }

    /// Every cell, marginal after marginal.
    #[inline]
    pub fn cells(&self) -> &[f64] {
        &self.cells
    }

    /// Every cell, mutably (the layout cannot change).
    #[inline]
    pub fn cells_mut(&mut self) -> &mut [f64] {
        &mut self.cells
    }

    /// Consumes the set into its cell buffer.
    pub fn into_cells(self) -> Vec<f64> {
        self.cells
    }

    /// Number of marginals.
    #[inline]
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    /// True when the set holds no marginal.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// Each marginal as `(mask, cells)`, in order; cells are indexed by
    /// [`AttrMask::compress_cell`].
    pub fn iter(&self) -> impl Iterator<Item = (AttrMask, &[f64])> + '_ {
        let mut rest = &self.cells[..];
        self.masks.iter().map(move |&alpha| {
            let (cells, tail) = rest.split_at(alpha.cell_count());
            rest = tail;
            (alpha, cells)
        })
    }
}

/// Errors in marginal-table operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarginalError {
    /// Tried to aggregate to a mask that is not a subset of the source.
    NotDominated {
        /// Requested target mask.
        target: AttrMask,
        /// Source marginal's mask.
        source: AttrMask,
    },
}

impl std::fmt::Display for MarginalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarginalError::NotDominated { target, source } => {
                write!(f, "marginal {target} is not dominated by {source}")
            }
        }
    }
}

impl std::error::Error for MarginalError {}

/// The coefficient of Theorem 4.1(1): `(Cα f^β)_γ = (−1)^{⟨β,γ⟩} 2^{d/2−‖α‖}`
/// when `β ≼ α` (and 0 otherwise). `γ` is passed as a full-domain index
/// dominated by `α`.
pub fn marginal_fourier_entry(d: usize, alpha: AttrMask, beta: AttrMask, gamma: u64) -> f64 {
    if !beta.dominated_by(alpha) {
        return 0.0;
    }
    let exp = d as f64 / 2.0 - alpha.weight() as f64;
    beta.sign(AttrMask(gamma)) * 2f64.powf(exp)
}

/// Reconstructs the marginal `Cα x` from Fourier coefficients
/// (Theorem 4.1(2)): `Cα x = Σ_{β ≼ α} ⟨f^β, x⟩ · Cα f^β`. The
/// `coefficients` callback returns `⟨f^β, x⟩` for any `β ≼ α`.
pub fn marginal_from_fourier<F>(d: usize, alpha: AttrMask, coefficients: F) -> MarginalTable
where
    F: Fn(AttrMask) -> f64,
{
    let cells = alpha.cell_count();
    let mut values = vec![0.0; cells];
    for beta in alpha.subsets() {
        let c = coefficients(beta);
        if c == 0.0 {
            continue;
        }
        for (rank, v) in values.iter_mut().enumerate() {
            let gamma = alpha.expand_cell(rank);
            *v += c * marginal_fourier_entry(d, alpha, beta, gamma);
        }
    }
    MarginalTable::new(alpha, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ContingencyTable;

    fn figure1_table() -> ContingencyTable {
        ContingencyTable::from_counts(vec![1.0, 2.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    }

    #[test]
    fn cell_lookup_by_full_index() {
        let t = figure1_table();
        let m = t.marginal(AttrMask(0b110));
        assert_eq!(m.cell(0b000), 3.0);
        assert_eq!(m.cell(0b010), 1.0);
        assert_eq!(m.cell(0b100), 0.0);
        assert_eq!(m.cell(0b110), 1.0);
    }

    #[test]
    fn aggregate_matches_direct_marginal() {
        let t = figure1_table();
        let ab = t.marginal(AttrMask(0b110));
        let a = ab.aggregate_to(AttrMask(0b100)).unwrap();
        assert_eq!(a.values(), t.marginal(AttrMask(0b100)).values());
    }

    #[test]
    fn aggregate_rejects_non_subset() {
        let t = figure1_table();
        let ab = t.marginal(AttrMask(0b110));
        assert!(matches!(
            ab.aggregate_to(AttrMask(0b001)),
            Err(MarginalError::NotDominated { .. })
        ));
    }

    #[test]
    fn sets_view_each_marginal_in_order() {
        let set = MarginalSet::new(
            vec![AttrMask(0b1), AttrMask(0b11)],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        );
        let views: Vec<_> = set.iter().collect();
        assert_eq!(
            views,
            [
                (AttrMask(0b1), &[1.0, 2.0][..]),
                (AttrMask(0b11), &[3.0, 4.0, 5.0, 6.0][..])
            ]
        );
        assert_eq!(set.len(), 2);
    }

    #[test]
    #[should_panic(expected = "need 6 cells")]
    fn a_set_with_the_wrong_cell_count_panics() {
        MarginalSet::new(vec![AttrMask(0b1), AttrMask(0b11)], vec![1.0; 5]);
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn wrong_cell_count_panics() {
        MarginalTable::new(AttrMask(0b11), vec![1.0]);
    }

    #[test]
    fn fourier_entry_zero_when_not_dominated() {
        assert_eq!(
            marginal_fourier_entry(3, AttrMask(0b110), AttrMask(0b001), 0),
            0.0
        );
    }

    #[test]
    fn fourier_entry_magnitude() {
        // d = 3, ‖α‖ = 2 → magnitude 2^{3/2 − 2} = 2^{-1/2}.
        let v = marginal_fourier_entry(3, AttrMask(0b110), AttrMask(0b010), 0b010);
        assert!((v.abs() - 2f64.powf(-0.5)).abs() < 1e-12);
        // Sign: (−1)^{⟨β,γ⟩} with β = γ = 010 → −1.
        assert!(v < 0.0);
    }

    #[test]
    fn reconstruction_from_exact_coefficients_matches_direct() {
        // Theorem 4.1(2) end-to-end: compute exact Fourier coefficients of
        // the Figure-1 table and rebuild each marginal from them.
        let t = figure1_table();
        let d = t.dims();
        for alpha_bits in 0u64..8 {
            let alpha = AttrMask(alpha_bits);
            let rebuilt = marginal_from_fourier(d, alpha, |beta| t.fourier_coefficient(beta));
            let direct = t.marginal(alpha);
            for (a, b) in rebuilt.values().iter().zip(direct.values()) {
                assert!((a - b).abs() < 1e-9, "alpha={alpha}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn error_display() {
        let e = MarginalError::NotDominated {
            target: AttrMask(0b1),
            source: AttrMask(0b10),
        };
        assert!(!e.to_string().is_empty());
    }
}
