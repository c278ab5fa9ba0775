//! Fourier-coefficient machinery (Sections 4.1 and 4.3 of the paper).
//!
//! A set of marginals `{Cα}` is fully determined by the Fourier coefficients
//! in its downset support `F = ∪ {β : β ≼ α}`. Two structural facts make
//! everything here fast:
//!
//! 1. **Block structure.** Restricted to one marginal `α` with `w = ‖α‖`,
//!    the recovery matrix of Theorem 4.1 is `2^{d/2−w} · H_{2^w}` — a scaled
//!    Walsh–Hadamard matrix over the compressed cell/coefficient ranks. So
//!    applying the recovery (or its transpose) to one marginal costs
//!    `O(2^w w)` via the fast WHT instead of `O(4^w)`.
//! 2. **Coefficients from marginals.** Inverting the same relation,
//!    the exact coefficients `⟨f^β, x⟩` for all `β ≼ α` are a scaled WHT of
//!    the marginal's cells — no pass over the full `2^d` table is needed
//!    beyond computing the marginals themselves.
//!
//! [`ObservationOperator`] packages the block-WHT products plus the weighted
//! normal equations used by the generalized-least-squares recovery/
//! consistency step, solved with conjugate gradients.

use crate::marginal::MarginalTable;
use crate::mask::AttrMask;
use crate::CoreError;
use dp_linalg::{cg_solve, CgOptions};
use std::collections::HashMap;

/// An indexed set of Fourier coefficients (the variables of the fast
/// consistency LS/LP of Section 4.3).
#[derive(Debug, Clone)]
pub struct CoefficientSpace {
    d: usize,
    support: Vec<AttrMask>,
    index: HashMap<AttrMask, u32>,
}

impl CoefficientSpace {
    /// Builds the space spanned by the downsets of the given marginals.
    pub fn from_marginals(d: usize, marginals: &[AttrMask]) -> Self {
        let mut set = std::collections::HashSet::new();
        for &alpha in marginals {
            for beta in alpha.subsets() {
                set.insert(beta);
            }
        }
        let mut support: Vec<AttrMask> = set.into_iter().collect();
        support.sort_unstable();
        let index = support
            .iter()
            .enumerate()
            .map(|(i, &m)| (m, i as u32))
            .collect();
        CoefficientSpace { d, support, index }
    }

    /// Domain width in bits.
    #[inline]
    pub fn domain_bits(&self) -> usize {
        self.d
    }

    /// The sorted support masks.
    #[inline]
    pub fn support(&self) -> &[AttrMask] {
        &self.support
    }

    /// Number of coefficients `m = |F|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.support.len()
    }

    /// True iff the support is empty (never after construction from a
    /// non-empty marginal list).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.support.is_empty()
    }

    /// Position of a mask in the support.
    #[inline]
    pub fn position(&self, beta: AttrMask) -> Option<usize> {
        self.index.get(&beta).map(|&i| i as usize)
    }

    /// The positions of all `2^{‖α‖}` coefficients dominated by `alpha`,
    /// in compressed-rank order. Errors if the space does not contain the
    /// marginal's downset.
    pub fn block_positions(&self, alpha: AttrMask) -> Result<Vec<u32>, CoreError> {
        alpha
            .subsets()
            .map(|beta| {
                self.index
                    .get(&beta)
                    .copied()
                    .ok_or(CoreError::CoefficientNotInSupport(beta))
            })
            .collect()
    }

    /// Fills exact coefficient values from a marginal's *exact* cells: the
    /// inverse block relation `f̂|_{≼α} = 2^{w − d/2} · (H/2^w) · cells`.
    /// Coefficients already present are overwritten with identical values
    /// (they are exact), so call order does not matter.
    pub fn fill_from_marginal(
        &self,
        coeffs: &mut [f64],
        marginal: &MarginalTable,
    ) -> Result<(), CoreError> {
        let mut scratch = Vec::new();
        self.fill_from_marginal_with(coeffs, marginal, &mut scratch)
    }

    /// [`CoefficientSpace::fill_from_marginal`] over a caller-provided WHT
    /// buffer, so observation assembly over many marginals reuses one
    /// buffer instead of allocating (and discarding) a copy per marginal.
    pub fn fill_from_marginal_with(
        &self,
        coeffs: &mut [f64],
        marginal: &MarginalTable,
        scratch: &mut Vec<f64>,
    ) -> Result<(), CoreError> {
        let alpha = marginal.mask();
        // Validate the whole downset before touching `coeffs`, preserving
        // the all-or-nothing behaviour of the position-list path without
        // materializing the list.
        for beta in alpha.subsets() {
            if !self.index.contains_key(&beta) {
                return Err(CoreError::CoefficientNotInSupport(beta));
            }
        }
        let w = alpha.weight() as i32;
        scratch.clear();
        scratch.extend_from_slice(marginal.values());
        dp_linalg::fwht(scratch);
        // cells = 2^{d/2−w} H f̂  ⇒  f̂ = 2^{w−d/2} · (1/2^w) · H · cells.
        let scale = 2f64.powf(w as f64 - self.d as f64 / 2.0) / 2f64.powi(w);
        for (rank, beta) in alpha.subsets().enumerate() {
            coeffs[self.index[&beta] as usize] = scratch[rank] * scale;
        }
        Ok(())
    }

    /// Reconstructs the marginal `Cα x` from coefficient values
    /// (Theorem 4.1(2)) via one block WHT.
    pub fn reconstruct(&self, coeffs: &[f64], alpha: AttrMask) -> Result<MarginalTable, CoreError> {
        Ok(self.reconstruct_block(coeffs, alpha, &self.block_positions(alpha)?))
    }

    /// [`CoefficientSpace::reconstruct`] from the marginal's
    /// [`CoefficientSpace::block_positions`], looked up beforehand: a
    /// recovery of many releases looks them up once, not per release.
    pub(crate) fn reconstruct_block(
        &self,
        coeffs: &[f64],
        alpha: AttrMask,
        positions: &[u32],
    ) -> MarginalTable {
        let mut buf: Vec<f64> = positions.iter().map(|&p| coeffs[p as usize]).collect();
        dp_linalg::fwht(&mut buf);
        let scale = 2f64.powf(self.d as f64 / 2.0 - alpha.weight() as f64);
        for v in &mut buf {
            *v *= scale;
        }
        MarginalTable::new(alpha, buf)
    }
}

/// The observation operator `R : coefficients → concatenated marginal
/// cells` for a list of observed marginals, with per-marginal weights for
/// the GLS normal equations.
#[derive(Debug, Clone)]
pub struct ObservationOperator {
    blocks: Vec<Block>,
    num_coeffs: usize,
    num_cells: usize,
}

#[derive(Debug, Clone)]
struct Block {
    mask: AttrMask,
    /// Coefficient positions for this marginal's downset, rank-ordered.
    positions: Vec<u32>,
    /// The scalar `2^{d/2 − w}` multiplying the block's Hadamard matrix.
    scale: f64,
    /// Offset of this marginal's cells in the concatenated observation
    /// vector.
    cell_offset: usize,
}

impl ObservationOperator {
    /// Builds the operator for the given observed marginals over a
    /// coefficient space that must contain all their downsets.
    pub fn new(space: &CoefficientSpace, observed: &[AttrMask]) -> Result<Self, CoreError> {
        let d = space.domain_bits();
        let mut blocks = Vec::with_capacity(observed.len());
        let mut offset = 0usize;
        for &alpha in observed {
            let positions = space.block_positions(alpha)?;
            blocks.push(Block {
                mask: alpha,
                positions,
                scale: 2f64.powf(d as f64 / 2.0 - alpha.weight() as f64),
                cell_offset: offset,
            });
            offset += alpha.cell_count();
        }
        Ok(ObservationOperator {
            blocks,
            num_coeffs: space.len(),
            num_cells: offset,
        })
    }

    /// Number of observed cells (rows of `R`).
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.num_cells
    }

    /// Number of coefficients (columns of `R`).
    #[inline]
    pub fn num_coeffs(&self) -> usize {
        self.num_coeffs
    }

    /// Applies `R`: coefficients → concatenated cells.
    pub fn apply(&self, coeffs: &[f64]) -> Vec<f64> {
        debug_assert_eq!(coeffs.len(), self.num_coeffs);
        let mut out = vec![0.0; self.num_cells];
        for b in &self.blocks {
            let cells = b.mask.cell_count();
            let mut buf: Vec<f64> = b.positions.iter().map(|&p| coeffs[p as usize]).collect();
            dp_linalg::fwht(&mut buf);
            let dst = &mut out[b.cell_offset..b.cell_offset + cells];
            for (o, v) in dst.iter_mut().zip(&buf) {
                *o = v * b.scale;
            }
        }
        out
    }

    /// Applies `Rᵀ`: concatenated cells → coefficients (accumulating across
    /// blocks). `H` is symmetric, so the transpose of a block is the same
    /// WHT with the same scale.
    pub fn apply_transposed(&self, cells: &[f64]) -> Vec<f64> {
        debug_assert_eq!(cells.len(), self.num_cells);
        let mut out = vec![0.0; self.num_coeffs];
        for b in &self.blocks {
            let n = b.mask.cell_count();
            let mut buf: Vec<f64> = cells[b.cell_offset..b.cell_offset + n].to_vec();
            dp_linalg::fwht(&mut buf);
            for (&p, v) in b.positions.iter().zip(&buf) {
                out[p as usize] += v * b.scale;
            }
        }
        out
    }

    /// Solves the weighted least-squares problem
    /// `min_f ‖diag(w)^{1/2} (R f − cells)‖₂` via the normal equations.
    ///
    /// Because the per-block weight is constant, `RᵀWR` is *block-diagonal
    /// in effect*: each block contributes `w·scale²·2^w` on its own
    /// positions, so the normal matrix is diagonal! (Each coefficient's
    /// diagonal entry sums contributions of every observed marginal that
    /// dominates it; there are no off-diagonal terms because `Hᵀ H = 2^w I`
    /// within a block and blocks only share full coefficient columns.)
    /// The solve is therefore exact and direct — no CG iteration needed.
    pub fn gls_solve(&self, cells: &[f64], weights: &[f64]) -> Result<Vec<f64>, CoreError> {
        if cells.len() != self.num_cells {
            return Err(CoreError::Shape {
                context: "gls_solve cells",
                expected: self.num_cells,
                actual: cells.len(),
            });
        }
        if weights.len() != self.blocks.len() {
            return Err(CoreError::Shape {
                context: "gls_solve weights",
                expected: self.blocks.len(),
                actual: weights.len(),
            });
        }
        // Diagonal of RᵀWR.
        let mut diag = vec![0.0; self.num_coeffs];
        for (b, &w) in self.blocks.iter().zip(weights) {
            let contribution = w * b.scale * b.scale * b.mask.cell_count() as f64;
            for &p in &b.positions {
                diag[p as usize] += contribution;
            }
        }
        // RHS RᵀW cells.
        let mut weighted = vec![0.0; self.num_cells];
        for (b, &w) in self.blocks.iter().zip(weights) {
            let n = b.mask.cell_count();
            for (dst, src) in weighted[b.cell_offset..b.cell_offset + n]
                .iter_mut()
                .zip(&cells[b.cell_offset..b.cell_offset + n])
            {
                *dst = w * src;
            }
        }
        let rhs = self.apply_transposed(&weighted);
        let mut f = vec![0.0; self.num_coeffs];
        for ((fi, &r), &d) in f.iter_mut().zip(&rhs).zip(&diag) {
            if d <= 0.0 {
                return Err(CoreError::Singular(
                    "a coefficient is observed with zero total weight",
                ));
            }
            *fi = r / d;
        }
        Ok(f)
    }

    /// Iterative GLS solve via conjugate gradients over per-cell weights —
    /// the independent reference that tests check the direct diagonal
    /// [`ObservationOperator::gls_solve`] against.
    pub fn gls_solve_cg(&self, cells: &[f64], cell_weights: &[f64]) -> Result<Vec<f64>, CoreError> {
        if cells.len() != self.num_cells || cell_weights.len() != self.num_cells {
            return Err(CoreError::Shape {
                context: "gls_solve_cg",
                expected: self.num_cells,
                actual: cells.len().min(cell_weights.len()),
            });
        }
        let weighted: Vec<f64> = cells.iter().zip(cell_weights).map(|(c, w)| c * w).collect();
        let rhs = self.apply_transposed(&weighted);
        let apply = |v: &[f64]| -> Vec<f64> {
            let mut rv = self.apply(v);
            for (r, &w) in rv.iter_mut().zip(cell_weights) {
                *r *= w;
            }
            self.apply_transposed(&rv)
        };
        // Jacobi preconditioner from per-cell weights.
        let mut diag = vec![0.0; self.num_coeffs];
        for b in &self.blocks {
            let n = b.mask.cell_count();
            let wsum: f64 = cell_weights[b.cell_offset..b.cell_offset + n].iter().sum();
            let contribution = b.scale * b.scale * wsum;
            for &p in &b.positions {
                diag[p as usize] += contribution;
            }
        }
        let out = cg_solve(
            apply,
            &rhs,
            Some(&diag),
            CgOptions {
                max_iters: 4 * self.num_coeffs + 100,
                tol: 1e-11,
            },
        )
        .map_err(CoreError::Linalg)?;
        Ok(out.x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ContingencyTable;
    use crate::workload::Workload;

    fn table() -> ContingencyTable {
        ContingencyTable::from_counts(vec![1.0, 2.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    }

    fn space_and_workload() -> (CoefficientSpace, Workload) {
        let w = Workload::new(3, vec![AttrMask(0b100), AttrMask(0b110)]).unwrap();
        let s = CoefficientSpace::from_marginals(3, w.marginals());
        (s, w)
    }

    #[test]
    fn support_is_downset_union() {
        let (s, _) = space_and_workload();
        // Downsets: {∅, 100} ∪ {∅, 010, 100, 110} = 4 masks.
        assert_eq!(s.len(), 4);
        assert_eq!(s.position(AttrMask::EMPTY), Some(0));
        assert!(s.position(AttrMask(0b001)).is_none());
    }

    #[test]
    fn fill_and_reconstruct_roundtrip() {
        let (s, w) = space_and_workload();
        let t = table();
        let mut coeffs = vec![0.0; s.len()];
        for m in w.true_answers(&t) {
            s.fill_from_marginal(&mut coeffs, &m).unwrap();
        }
        // Coefficients must match the direct oracle.
        for (&beta, &c) in s.support().iter().zip(&coeffs) {
            let oracle = t.fourier_coefficient(beta);
            assert!((c - oracle).abs() < 1e-10, "beta={beta}: {c} vs {oracle}");
        }
        // Reconstruction returns the exact marginals.
        for &alpha in w.marginals() {
            let rec = s.reconstruct(&coeffs, alpha).unwrap();
            let direct = t.marginal(alpha);
            for (a, b) in rec.values().iter().zip(direct.values()) {
                assert!((a - b).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn operator_matches_dense_recovery_matrix() {
        let (s, w) = space_and_workload();
        let op = ObservationOperator::new(&s, w.marginals()).unwrap();
        assert_eq!(op.num_cells(), 6);
        assert_eq!(op.num_coeffs(), 4);
        // Build the dense R via the Theorem 4.1 entry formula and compare
        // the action on random-ish vectors.
        let mut dense = dp_linalg::Matrix::zeros(op.num_cells(), op.num_coeffs());
        let mut row = 0;
        for &alpha in w.marginals() {
            for rank in 0..alpha.cell_count() {
                let gamma = alpha.expand_cell(rank);
                for (j, &beta) in s.support().iter().enumerate() {
                    dense[(row, j)] =
                        crate::marginal::marginal_fourier_entry(3, alpha, beta, gamma);
                }
                row += 1;
            }
        }
        let v = vec![0.3, -1.2, 2.0, 0.7];
        let via_op = op.apply(&v);
        let via_dense = dense.matvec(&v).unwrap();
        for (a, b) in via_op.iter().zip(&via_dense) {
            assert!((a - b).abs() < 1e-10);
        }
        let y = vec![1.0, -1.0, 0.5, 2.0, 0.0, 1.5];
        let t_op = op.apply_transposed(&y);
        let t_dense = dense.matvec_transposed(&y).unwrap();
        for (a, b) in t_op.iter().zip(&t_dense) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn gls_recovers_exact_data_without_noise() {
        let (s, w) = space_and_workload();
        let op = ObservationOperator::new(&s, w.marginals()).unwrap();
        let t = table();
        let cells: Vec<f64> = w
            .true_answers(&t)
            .iter()
            .flat_map(|m| m.values().iter().copied())
            .collect();
        let f = op.gls_solve(&cells, &[1.0, 1.0]).unwrap();
        for (&beta, &c) in s.support().iter().zip(&f) {
            assert!((c - t.fourier_coefficient(beta)).abs() < 1e-9);
        }
    }

    #[test]
    fn direct_and_cg_gls_agree() {
        let (s, w) = space_and_workload();
        let op = ObservationOperator::new(&s, w.marginals()).unwrap();
        // Inconsistent noisy cells.
        let cells = vec![4.3, 0.8, 3.4, 0.6, 0.2, 1.1];
        let weights = [2.0, 0.5];
        let direct = op.gls_solve(&cells, &weights).unwrap();
        let cell_weights = vec![2.0, 2.0, 0.5, 0.5, 0.5, 0.5];
        let cg = op.gls_solve_cg(&cells, &cell_weights).unwrap();
        for (a, b) in direct.iter().zip(&cg) {
            assert!((a - b).abs() < 1e-7, "{direct:?} vs {cg:?}");
        }
    }

    #[test]
    fn gls_result_is_consistent() {
        // Consistency (Definition 2.3): the fitted cells R·f̂ correspond to
        // *some* dataset; equivalently the fitted A-marginal equals the
        // aggregated fitted AB-marginal.
        let (s, w) = space_and_workload();
        let op = ObservationOperator::new(&s, w.marginals()).unwrap();
        let cells = vec![10.0, 2.0, 3.0, 1.0, 4.0, 0.0]; // wildly inconsistent
        let f = op.gls_solve(&cells, &[1.0, 1.0]).unwrap();
        let a = s.reconstruct(&f, AttrMask(0b100)).unwrap();
        let ab = s.reconstruct(&f, AttrMask(0b110)).unwrap();
        let agg = ab.aggregate_to(AttrMask(0b100)).unwrap();
        for (x, y) in a.values().iter().zip(agg.values()) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn missing_coefficient_is_reported() {
        let (s, _) = space_and_workload();
        assert!(matches!(
            s.block_positions(AttrMask(0b111)),
            Err(CoreError::CoefficientNotInSupport(_))
        ));
    }

    #[test]
    fn shape_errors() {
        let (s, w) = space_and_workload();
        let op = ObservationOperator::new(&s, w.marginals()).unwrap();
        assert!(op.gls_solve(&[1.0], &[1.0, 1.0]).is_err());
        assert!(op.gls_solve(&[0.0; 6], &[1.0]).is_err());
        assert!(op.gls_solve_cg(&[1.0], &[1.0]).is_err());
    }

    #[test]
    fn weighted_gls_interpolates_between_observations() {
        // Two observations of the same marginal A via blocks {A} and {A,B};
        // heavier weight pulls the estimate toward that observation.
        let w = Workload::new(2, vec![AttrMask(0b01), AttrMask(0b11)]).unwrap();
        let s = CoefficientSpace::from_marginals(2, w.marginals());
        let op = ObservationOperator::new(&s, w.marginals()).unwrap();
        // A-marginal says [10, 0]; AB-marginal says totals [0, 0, 0, 0].
        let cells = vec![10.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let f_heavy_a = op.gls_solve(&cells, &[100.0, 0.01]).unwrap();
        let a_est = s.reconstruct(&f_heavy_a, AttrMask(0b01)).unwrap();
        assert!(a_est.values()[0] > 9.0, "{:?}", a_est.values());
        let f_heavy_ab = op.gls_solve(&cells, &[0.01, 100.0]).unwrap();
        let a_est2 = s.reconstruct(&f_heavy_ab, AttrMask(0b01)).unwrap();
        assert!(a_est2.values()[0] < 1.0, "{:?}", a_est2.values());
    }
}
