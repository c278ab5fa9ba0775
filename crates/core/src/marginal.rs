//! Marginal tables (`Cα x`) and the marginal operator algebra of
//! Section 4.1 / Theorem 4.1 of the paper.

use crate::mask::AttrMask;

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

    /// Sum of all cells (equals the table total for a true marginal).
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Mean cell value — the denominator of the paper's relative-error
    /// metric.
    pub fn mean(&self) -> f64 {
        self.sum() / self.values.len() as f64
    }

    /// Aggregates this marginal down to a coarser one over `target ≼ mask`,
    /// summing cells that agree on the target attributes. This is the
    /// recovery step used when a strategy materializes a *superset*
    /// marginal (e.g. the cluster strategy answering `A` from `A,B` as in
    /// the paper's Figure 1(d)).
    pub fn aggregate_to(&self, target: AttrMask) -> Result<MarginalTable, MarginalError> {
        if !target.dominated_by(self.mask) {
            return Err(MarginalError::NotDominated {
                target,
                source: self.mask,
            });
        }
        let mut out = vec![0.0; target.cell_count()];
        for (rank, &v) in self.values.iter().enumerate() {
            let gamma = self.mask.expand_cell(rank);
            out[target.compress_cell(gamma & target.0)] += v;
        }
        Ok(MarginalTable::new(target, out))
    }

    /// L1 distance to another marginal over the same mask (the error
    /// measure `‖Cα x − C̃α‖₁` of Section 4.2).
    pub fn l1_distance(&self, other: &MarginalTable) -> Result<f64, MarginalError> {
        if self.mask != other.mask {
            return Err(MarginalError::MaskMismatch {
                left: self.mask,
                right: other.mask,
            });
        }
        Ok(self
            .values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a - b).abs())
            .sum())
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
    /// Two marginals over different masks were combined.
    MaskMismatch {
        /// Left operand's mask.
        left: AttrMask,
        /// Right operand's mask.
        right: AttrMask,
    },
}

impl std::fmt::Display for MarginalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MarginalError::NotDominated { target, source } => {
                write!(f, "marginal {target} is not dominated by {source}")
            }
            MarginalError::MaskMismatch { left, right } => {
                write!(f, "marginal masks differ: {left} vs {right}")
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
    fn l1_distance() {
        let m1 = MarginalTable::new(AttrMask(0b1), vec![1.0, 2.0]);
        let m2 = MarginalTable::new(AttrMask(0b1), vec![0.0, 4.0]);
        assert_eq!(m1.l1_distance(&m2).unwrap(), 3.0);
        let m3 = MarginalTable::new(AttrMask(0b10), vec![0.0, 0.0]);
        assert!(m1.l1_distance(&m3).is_err());
    }

    #[test]
    fn mean_and_sum() {
        let m = MarginalTable::new(AttrMask(0b11), vec![1.0, 2.0, 3.0, 2.0]);
        assert_eq!(m.sum(), 8.0);
        assert_eq!(m.mean(), 2.0);
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
        let e = MarginalError::MaskMismatch {
            left: AttrMask(0b1),
            right: AttrMask(0b10),
        };
        assert!(!e.to_string().is_empty());
    }
}
