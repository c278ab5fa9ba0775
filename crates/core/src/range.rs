//! Range-query workloads and the hierarchical / wavelet strategies.
//!
//! Section 3.1 of the paper lists hierarchical structures \[14\] and the Haar
//! wavelet \[23\] among the groupable strategies its budget optimizer
//! improves: a binary tree over `x` groups rows by level (grouping number
//! `⌈log₂N⌉ + 1` counting the leaf level), and the 1-D Haar matrix groups
//! by resolution level. This module instantiates the framework for interval
//! (range-count) workloads over a 1-D domain, demonstrating that the
//! pipeline is not marginal-specific.
//!
//! Planning is matrix-free: group structure and per-query GLS variances
//! for the identity/tree/Haar strategies come from the closed-form Haar
//! diagonalization of their normal matrices (see the planning section
//! below), so plans compile for domains far beyond the dense oracle's
//! `n ≲ 4096`. The dense [`crate::framework`] path survives as the test
//! oracle and as the planner of sketches.
//! Releases are matrix-free too: noise is drawn by the shared pipeline of
//! [`crate::strategy`], observations `z = S·x` are tree sums, Haar
//! transforms or CSR products, and recovery uses the same diagonalization:
//! the identity, tree and Haar strategies compute the exact GLS estimator
//! `x̂ = (SᵀWS)⁻¹SᵀWz` in closed form with `O(n)` work (see `tree_gls`).
//! Only sketches, whose normal matrix has no such structure, solve the
//! weighted normal equations by conjugate gradients.

use crate::framework::{gls_recovery, output_variances, Decomposition};
use crate::grouping::{detect_grouping, Grouping};
use crate::strategy::Kind;
use crate::CoreError;
use dp_linalg::{
    CgOptions, CsrMatrix, HaarOperator, HierarchicalOperator, IdentityOperator, LinearOperator,
    Matrix,
};
use dp_opt::budget::GroupSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// A workload of half-open interval counts `[lo, hi)` over domain `[0, n)`.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeWorkload {
    n: usize,
    ranges: Vec<(usize, usize)>,
    /// Every `lo` and `hi`, sorted and deduplicated: the only prefixes
    /// [`RangeWorkload::true_answers`] records.
    endpoints: Vec<usize>,
    /// Per range, the positions of its `lo` and `hi` in `endpoints`.
    slots: Vec<(u32, u32)>,
}

impl RangeWorkload {
    /// Validates and builds a range workload, sorting its `2q` endpoints
    /// once (`O(q log q)`) so that [`RangeWorkload::true_answers`] runs in
    /// `O(n + q)`.
    pub fn new(n: usize, ranges: Vec<(usize, usize)>) -> Result<Self, CoreError> {
        if !n.is_power_of_two() {
            return Err(CoreError::Singular("range domain must be a power of two"));
        }
        for &(lo, hi) in &ranges {
            if lo >= hi || hi > n {
                return Err(CoreError::Shape {
                    context: "range bounds",
                    expected: n,
                    actual: hi,
                });
            }
        }
        if ranges.is_empty() {
            return Err(CoreError::Singular("range workload is empty"));
        }
        // Sort every endpoint once, tagged with its range and side, and
        // number the distinct values: the sorted, deduplicated endpoints
        // and each range's positions among them, in O(q log q) time and
        // O(q) space whatever the domain.
        let mut tagged: Vec<(usize, usize)> = ranges
            .iter()
            .enumerate()
            .flat_map(|(r, &(lo, hi))| [(lo, 2 * r), (hi, 2 * r + 1)])
            .collect();
        tagged.sort_unstable_by_key(|&(value, _)| value);
        let mut endpoints = Vec::new();
        let mut slots = vec![(0u32, 0u32); ranges.len()];
        for (value, tag) in tagged {
            if endpoints.last() != Some(&value) {
                endpoints.push(value);
            }
            let at = u32::try_from(endpoints.len() - 1).expect("fewer than 2^32 endpoints");
            let slot = &mut slots[tag / 2];
            if tag % 2 == 0 {
                slot.0 = at;
            } else {
                slot.1 = at;
            }
        }
        Ok(RangeWorkload {
            n,
            ranges,
            endpoints,
            slots,
        })
    }

    /// All `n(n+1)/2`-ish prefix ranges `[0, i)` for `i = 1..=n`.
    pub fn all_prefixes(n: usize) -> Result<Self, CoreError> {
        RangeWorkload::new(n, (1..=n).map(|i| (0, i)).collect())
    }

    /// A fixed-width sliding-window workload.
    pub fn sliding_windows(n: usize, width: usize) -> Result<Self, CoreError> {
        if width == 0 || width > n {
            return Err(CoreError::Shape {
                context: "window width",
                expected: n,
                actual: width,
            });
        }
        RangeWorkload::new(n, (0..=n - width).map(|lo| (lo, lo + width)).collect())
    }

    /// Domain size.
    pub fn domain(&self) -> usize {
        self.n
    }

    /// The interval list.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// Materializes the explicit query matrix `Q` (one indicator row per
    /// range).
    pub fn query_matrix(&self) -> Matrix {
        let mut q = Matrix::zeros(self.ranges.len(), self.n);
        for (r, &(lo, hi)) in self.ranges.iter().enumerate() {
            for j in lo..hi {
                q[(r, j)] = 1.0;
            }
        }
        q
    }

    /// Exact answers on a histogram — the matrix-free application of `Q`,
    /// `O(n + q)` for `q` ranges. One serial pass accumulates
    /// `P(i + 1) = P(i) + hist[i]` from `P(0) = 0` and records the prefix
    /// only at the workload's sorted endpoints; each answer is then
    /// `P(hi) − P(lo)`, read at the endpoint positions [`RangeWorkload::new`]
    /// found once. These are the additions of a full prefix-sum vector, in
    /// the same order, without its `n + 1` cells.
    pub fn true_answers(&self, hist: &[f64]) -> Result<Vec<f64>, CoreError> {
        if hist.len() != self.n {
            return Err(CoreError::Shape {
                context: "range answers",
                expected: self.n,
                actual: hist.len(),
            });
        }
        let mut prefix = vec![0.0; self.endpoints.len()];
        let (mut acc, mut at) = (0.0, 0);
        for (p, &end) in prefix.iter_mut().zip(&self.endpoints) {
            acc = hist[at..end].iter().fold(acc, |a, &h| a + h);
            *p = acc;
            at = end;
        }
        Ok(self
            .slots
            .iter()
            .map(|&(lo, hi)| prefix[hi as usize] - prefix[lo as usize])
            .collect())
    }
}

/// Which strategy matrix to use for a range workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeStrategy {
    /// Noisy base counts (`S = I`).
    Identity,
    /// The full binary-tree hierarchy of \[14\] (all levels, root to leaves).
    Hierarchical,
    /// The orthonormal Haar wavelet of \[23\].
    Wavelet,
    /// Sparse random projections / sketches \[5\]: the domain is hashed into
    /// buckets with random ±1 signs, repeated `repetitions` times. Each
    /// repetition's rows have disjoint supports and unit magnitude, so the
    /// grouping number is the repetition count `t` (paper, Section 3.1).
    /// The seed makes the strategy reproducible.
    Sketch {
        /// Number of independent repetitions `t` (= groups).
        repetitions: usize,
        /// Buckets per repetition.
        buckets: usize,
        /// RNG seed for the hash/sign draws.
        seed: u64,
    },
}

impl RangeStrategy {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            RangeStrategy::Identity => "I",
            RangeStrategy::Hierarchical => "H",
            RangeStrategy::Wavelet => "W",
            RangeStrategy::Sketch { .. } => "S",
        }
    }
}

/// Builds the explicit strategy matrix for a domain of size `n` — the
/// planning/oracle representation; releases stay matrix-free.
pub fn strategy_matrix(strategy: RangeStrategy, n: usize) -> Matrix {
    assert!(n.is_power_of_two());
    match strategy {
        RangeStrategy::Identity => Matrix::identity(n),
        RangeStrategy::Hierarchical => {
            // One row per tree node: levels from the root (width n) down to
            // the leaves (width 1); m = 2n − 1 rows.
            let levels = n.trailing_zeros() as usize;
            let mut rows: Vec<Vec<f64>> = Vec::with_capacity(2 * n - 1);
            for level in 0..=levels {
                let width = n >> level;
                for start in (0..n).step_by(width) {
                    let mut row = vec![0.0; n];
                    for r in row.iter_mut().skip(start).take(width) {
                        *r = 1.0;
                    }
                    rows.push(row);
                }
            }
            Matrix::from_rows(&rows.iter().map(|r| r.as_slice()).collect::<Vec<_>>())
                .expect("tree rows are rectangular")
        }
        RangeStrategy::Wavelet => {
            let mut m = Matrix::zeros(n, n);
            let mut half = Vec::new();
            for j in 0..n {
                let mut e = vec![0.0; n];
                e[j] = 1.0;
                dp_linalg::haar_forward(&mut e, &mut half);
                for (i, &v) in e.iter().enumerate() {
                    m[(i, j)] = v;
                }
            }
            m
        }
        RangeStrategy::Sketch {
            repetitions,
            buckets,
            seed,
        } => {
            assert!(repetitions > 0 && buckets > 0, "sketch needs t, b ≥ 1");
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rows = vec![vec![0.0; n]; repetitions * buckets];
            for rep in 0..repetitions {
                // The bucket (row) is drawn per column, so the column loop
                // cannot become a row iterator.
                #[allow(clippy::needless_range_loop)]
                for col in 0..n {
                    let bucket = rng.gen_range(0..buckets);
                    let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                    rows[rep * buckets + bucket][col] = sign;
                }
            }
            // Buckets that received no columns are all-zero rows: they
            // carry no information and would defeat the grouping property,
            // so drop them.
            rows.retain(|r| r.iter().any(|&v| v != 0.0));
            Matrix::from_rows(&rows.iter().map(|r| r.as_slice()).collect::<Vec<_>>())
                .expect("sketch rows are rectangular")
        }
    }
}

/// The strategy as one matrix-free [`LinearOperator`], with row order
/// identical to [`strategy_matrix`] — the same `S` a release observes
/// through, for oracles and benchmarks that need it behind one interface.
pub fn strategy_operator(
    strategy: RangeStrategy,
    n: usize,
) -> Box<dyn LinearOperator + Send + Sync> {
    assert!(n.is_power_of_two());
    match strategy {
        RangeStrategy::Identity => Box::new(IdentityOperator { n }),
        RangeStrategy::Hierarchical => Box::new(HierarchicalOperator::new(n)),
        RangeStrategy::Wavelet => Box::new(HaarOperator::new(n)),
        RangeStrategy::Sketch { .. } => Box::new(sketch_csr(strategy, n)),
    }
}

/// The sketch strategy matrix in CSR form (sketches are genuinely sparse
/// unstructured matrices; everything else stays matrix-free).
fn sketch_csr(strategy: RangeStrategy, n: usize) -> CsrMatrix {
    let dense = strategy_matrix(strategy, n);
    let mut triplets = Vec::new();
    for i in 0..dense.rows() {
        for (j, &v) in dense.row(i).iter().enumerate() {
            if v != 0.0 {
                triplets.push((i, j, v));
            }
        }
    }
    CsrMatrix::from_triplets(dense.rows(), n, &triplets)
        .expect("triplets are in range by construction")
}

/// The exact GLS estimator `x̂ = (SᵀWS)⁻¹SᵀWz` of the tree strategy over
/// `n` leaves, into `x`, in closed form through the Haar diagonalization
/// (`H` = [`dp_linalg::haar_forward`], `Hᵀ = H⁻¹` =
/// [`dp_linalg::haar_inverse`]): `SᵀWS = Hᵀ diag(λ) H` with `λ` from
/// `tree_haar_eigenvalues`, so `x̂ = Hᵀ diag(1/λ) H (SᵀWz)` — `O(n)` per
/// release. The row weighting is fused into the tree transpose, which
/// writes `x` (resized to `n`); the transforms work in `x` with `half` (of
/// `n/2`) as their buffer, so a caller that keeps both allocates only the
/// `log₂ n + 1` eigenvalues. (The identity and wavelet strategies are
/// simpler still: `x̂ = z` and, `S = H` being square and invertible,
/// `x̂ = Hᵀz` — the paper's Observation 1.)
///
/// Public, but hidden from the docs, only so that `dp_bench` can time the
/// recovery alone and check it against its allocating reference; releases
/// reach it through `Session::release`.
#[doc(hidden)]
pub fn tree_gls(
    n: usize,
    noisy: &[f64],
    row_groups: &[u32],
    group_weights: &[f64],
    x: &mut Vec<f64>,
    half: &mut Vec<f64>,
) {
    // Plans refuse zero-budget groups at compile, so the normal matrix is
    // positive definite and the closed form is exact.
    debug_assert!(group_weights.iter().all(|&w| w > 0.0));
    x.resize(n, 0.0);
    HierarchicalOperator::new(n).transpose_rows_into(
        noisy,
        |i, z| z * group_weights[row_groups[i] as usize],
        x,
    );
    dp_linalg::haar_forward(x, half);
    let lam = tree_haar_eigenvalues(n, group_weights);
    debug_assert!(lam.iter().all(|&l| l > 0.0));
    // Haar level ℓ ≥ 1 holds indices [2^{ℓ-1}, 2^ℓ).
    x[0] /= lam[0];
    for (level, &l) in lam.iter().enumerate().skip(1) {
        for v in &mut x[1 << (level - 1)..1 << level] {
            *v /= l;
        }
    }
    dp_linalg::haar_inverse(x, half);
}

/// The GLS estimator of a sketch, whose normal matrix has no closed form:
/// conjugate gradients ([`dp_linalg::gls_normal_solve`]) on the weighted
/// normal equations.
pub(crate) fn sketch_gls(
    matrix: &CsrMatrix,
    noisy: &[f64],
    row_groups: &[u32],
    group_weights: &[f64],
) -> Result<Vec<f64>, CoreError> {
    let row_weights: Vec<f64> = row_groups
        .iter()
        .map(|&g| group_weights[g as usize])
        .collect();
    Ok(dp_linalg::gls_normal_solve(
        matrix,
        &row_weights,
        noisy,
        CgOptions::default(),
    )?)
}

// ---------------------------------------------------------------------------
// Matrix-free planning: closed-form group structure and variances.
//
// The key structural fact: every matrix this module groups by *levels* is
// diagonalized by the orthonormal Haar basis. Writing `H` for the Haar
// analysis transform,
//
// * the Haar strategy itself satisfies `SᵀΣ⁻¹S = Hᵀ diag(w_level(i)) H`
//   (rows are the basis, weights constant per level), and
// * the tree strategy's level-`t` rows are the indicators of the width
//   `n/2^t` dyadic blocks, whose outer-product sum is the block-ones matrix
//   `J_{n/2^t}` — and every `J_w` has the Haar vectors as eigenvectors
//   (eigenvalue `w` for basis vectors constant on `w`-blocks, 0 otherwise),
//   so `SᵀΣ⁻¹S = Σ_t w_t J_{n/2^t} = Hᵀ diag(λ) H` with the closed form
//   `λ_i = Σ_{t : n/2^t ≤ p_i} w_t · n/2^t` (`p_i` = the constant-piece
//   width of Haar vector `i`; uniform weights give `λ_i = 2p_i − 1`).
//
// Combined with the fact that a range indicator has only `O(log n)` nonzero
// Haar coefficients (a mean-zero basis vector whose support does not
// straddle an endpoint integrates to 0 over the range), group specs and
// exact per-query GLS variances follow without materializing `Q` or `S` —
// planning is `O(q log² n)` and works for domains far beyond the dense
// oracle's reach. Tests cross-check everything against the dense path.
// ---------------------------------------------------------------------------

/// The nonzero orthonormal-Haar coefficients of the indicator of `[lo, hi)`
/// over `[0, n)`, as `(coefficient index, value)` pairs — at most
/// `2·log₂ n + 1` of them, in index order per level.
pub(crate) fn haar_range_coeffs(n: usize, lo: usize, hi: usize) -> Vec<(usize, f64)> {
    debug_assert!(lo < hi && hi <= n);
    let overlap = |a: usize, b: usize| -> f64 { hi.min(b).saturating_sub(lo.max(a)) as f64 };
    let mut out = vec![(0usize, (hi - lo) as f64 / (n as f64).sqrt())];
    let levels = n.trailing_zeros() as usize;
    for level in 1..=levels {
        let support = n >> (level - 1);
        let half = support / 2;
        let mag = 1.0 / (support as f64).sqrt();
        let base = 1usize << (level - 1);
        let k_lo = lo / support;
        let k_hi = (hi - 1) / support;
        for k in [k_lo, k_hi] {
            if k == k_hi && k_hi == k_lo && out.last().map(|&(i, _)| i) == Some(base + k) {
                continue; // both endpoints in the same support: emit once
            }
            let start = k * support;
            let v = mag * (overlap(start, start + half) - overlap(start + half, start + support));
            if v != 0.0 {
                out.push((base + k, v));
            }
        }
    }
    out
}

/// Haar level → constant-piece width `p`: the average vector is constant
/// over all `n` cells; a detail vector at level `ℓ ≥ 1` has two constant
/// pieces of width `n/2^ℓ` each.
fn haar_piece_width(n: usize, haar_level: usize) -> usize {
    if haar_level == 0 {
        n
    } else {
        n >> haar_level
    }
}

/// Eigenvalues of the tree normal matrix `Σ_t w_t J_{n/2^t}` in the Haar
/// basis, indexed by Haar *level* (see the module comment): one entry per
/// level `0 ..= log₂ n`, with `level_weights[t]` the weight of tree level
/// `t` (root first).
pub(crate) fn tree_haar_eigenvalues(n: usize, level_weights: &[f64]) -> Vec<f64> {
    let levels = n.trailing_zeros() as usize;
    debug_assert_eq!(level_weights.len(), levels + 1);
    (0..=levels)
        .map(|h| {
            let p = haar_piece_width(n, h);
            (0..=levels)
                .filter(|&t| (n >> t) <= p)
                .map(|t| level_weights[t] * (n >> t) as f64)
                .sum()
        })
        .collect()
}

/// A piecewise-constant function on `[0, n)` with its prefix integral —
/// the representation of `R₀`'s per-query input `u = (SᵀS)⁻¹ q_j` for the
/// tree strategy (a sparse Haar synthesis).
struct PiecewiseConstant {
    /// Sorted breakpoints `0 = b_0 < … < b_K = n`.
    bounds: Vec<usize>,
    /// Value on `[b_k, b_{k+1})`.
    values: Vec<f64>,
    /// `P(b_k)` — prefix integral at each breakpoint.
    prefix: Vec<f64>,
}

impl PiecewiseConstant {
    /// Synthesizes `Σ (index, coeff) · h_index` from sparse Haar
    /// coefficients.
    fn from_haar(n: usize, coeffs: &[(usize, f64)]) -> PiecewiseConstant {
        let mut bounds = vec![0, n];
        for &(i, _) in coeffs {
            if i > 0 {
                let level = dp_linalg::haar_level(i);
                let support = n >> (level - 1);
                let start = (i - (1 << (level - 1))) * support;
                bounds.extend([start, start + support / 2, start + support]);
            }
        }
        bounds.sort_unstable();
        bounds.dedup();
        // Evaluate the synthesis at each piece's left edge.
        let values: Vec<f64> = bounds[..bounds.len() - 1]
            .iter()
            .map(|&x| {
                coeffs
                    .iter()
                    .map(|&(i, c)| {
                        if i == 0 {
                            return c / (n as f64).sqrt();
                        }
                        let level = dp_linalg::haar_level(i);
                        let support = n >> (level - 1);
                        let start = (i - (1 << (level - 1))) * support;
                        let mag = 1.0 / (support as f64).sqrt();
                        if x >= start && x < start + support / 2 {
                            c * mag
                        } else if x >= start + support / 2 && x < start + support {
                            -c * mag
                        } else {
                            0.0
                        }
                    })
                    .sum()
            })
            .collect();
        let mut prefix = vec![0.0; bounds.len()];
        for k in 0..values.len() {
            prefix[k + 1] = prefix[k] + values[k] * (bounds[k + 1] - bounds[k]) as f64;
        }
        PiecewiseConstant {
            bounds,
            values,
            prefix,
        }
    }

    /// The prefix integral `P(t) = ∫₀ᵗ u`.
    fn integral_to(&self, t: usize) -> f64 {
        let k = self.bounds.partition_point(|&b| b <= t) - 1;
        self.prefix[k] + self.values.get(k).copied().unwrap_or(0.0) * (t - self.bounds[k]) as f64
    }

    /// `Σ_k (∫ over dyadic node k of width w)²` for all `n/w` nodes: nodes
    /// containing an interior breakpoint are evaluated directly; maximal
    /// runs of nodes inside one piece contribute `count · (w·v)²` at once.
    fn node_sum_of_squares(&self, w: usize) -> f64 {
        let mut total = 0.0;
        // Nodes with a breakpoint strictly inside.
        let n = *self.bounds.last().expect("bounds non-empty");
        let mut last_special = usize::MAX;
        for &b in &self.bounds {
            if b == 0 || b >= n || b % w == 0 {
                continue;
            }
            let k = b / w;
            if k != last_special {
                let v = self.integral_to((k + 1) * w) - self.integral_to(k * w);
                total += v * v;
                last_special = k;
            }
        }
        // Runs of nodes fully inside one constant piece.
        for (k, &v) in self.values.iter().enumerate() {
            let first = self.bounds[k].div_ceil(w);
            let last = self.bounds[k + 1] / w;
            if last > first {
                total += (last - first) as f64 * (w as f64 * v) * (w as f64 * v);
            }
        }
        total
    }
}

/// Closed-form group structure of a range strategy: the grouping (levels)
/// and the per-group specs `(C_r, s_r)` with `s_r` from the uniform-noise
/// initial recovery `R₀` — all without materializing `Q` or `S`. `None`
/// for [`RangeStrategy::Sketch`], whose structure is data-driven.
fn analytic_range_structure(
    workload: &RangeWorkload,
    strategy: RangeStrategy,
) -> Option<(Vec<GroupSpec>, Grouping)> {
    let n = workload.domain();
    let levels = n.trailing_zeros() as usize;
    match strategy {
        RangeStrategy::Identity => {
            // R₀ = Q: b_i counts the ranges covering cell i, so the single
            // group's weight is the total covered length.
            let s: usize = workload.ranges().iter().map(|&(lo, hi)| hi - lo).sum();
            Some((
                vec![GroupSpec {
                    c: 1.0,
                    s: s as f64,
                }],
                Grouping::from_parts(vec![0; n], vec![1.0]),
            ))
        }
        RangeStrategy::Wavelet => {
            // R₀ = Q Hᵀ (Observation 1): row j of R₀ is exactly the sparse
            // Haar analysis of range j's indicator.
            let mut s_per_level = vec![0.0; levels + 1];
            for &(lo, hi) in workload.ranges() {
                for (i, c) in haar_range_coeffs(n, lo, hi) {
                    s_per_level[dp_linalg::haar_level(i)] += c * c;
                }
            }
            let assignment: Vec<usize> = (0..n).map(dp_linalg::haar_level).collect();
            let magnitudes: Vec<f64> = (0..=levels)
                .map(|h| {
                    if h == 0 {
                        1.0 / (n as f64).sqrt()
                    } else {
                        1.0 / ((n >> (h - 1)) as f64).sqrt()
                    }
                })
                .collect();
            let specs = magnitudes
                .iter()
                .zip(&s_per_level)
                .map(|(&c, &s)| GroupSpec { c, s })
                .collect();
            Some((specs, Grouping::from_parts(assignment, magnitudes)))
        }
        RangeStrategy::Hierarchical => {
            // R₀ = Q(SᵀS)⁻¹Sᵀ: per query, u = (SᵀS)⁻¹q_j is a sparse Haar
            // synthesis (closed-form eigenvalues 2p − 1), and row j of R₀
            // restricted to tree level t is the node sums of u at width
            // n/2^t.
            let lam = tree_haar_eigenvalues(n, &vec![1.0; levels + 1]);
            let mut s_per_level = vec![0.0; levels + 1];
            let level_sums: Vec<Vec<f64>> = workload
                .ranges()
                .par_iter()
                .map(|&(lo, hi)| {
                    let scaled: Vec<(usize, f64)> = haar_range_coeffs(n, lo, hi)
                        .into_iter()
                        .map(|(i, c)| (i, c / lam[dp_linalg::haar_level(i)]))
                        .collect();
                    let u = PiecewiseConstant::from_haar(n, &scaled);
                    (0..=levels)
                        .map(|t| u.node_sum_of_squares(n >> t))
                        .collect()
                })
                .collect();
            for sums in level_sums {
                for (acc, v) in s_per_level.iter_mut().zip(sums) {
                    *acc += v;
                }
            }
            let mut assignment = Vec::with_capacity(2 * n - 1);
            for t in 0..=levels {
                assignment.extend(std::iter::repeat_n(t, 1usize << t));
            }
            let specs = s_per_level
                .iter()
                .map(|&s| GroupSpec { c: 1.0, s })
                .collect();
            Some((
                specs,
                Grouping::from_parts(assignment, vec![1.0; levels + 1]),
            ))
        }
        RangeStrategy::Sketch { .. } => None,
    }
}

/// Dense group-structure oracle: materializes `S`, detects the grouping and
/// derives `s_r` from the dense uniform-noise `R₀`. Used for the sketch
/// strategy (whose structure is data-driven) and by tests as the
/// cross-check for [`analytic_range_structure`].
pub(crate) fn dense_range_structure(
    workload: &RangeWorkload,
    strategy: RangeStrategy,
) -> Result<(Vec<GroupSpec>, Grouping), CoreError> {
    let n = workload.domain();
    let q = workload.query_matrix();
    let s = strategy_matrix(strategy, n);
    let grouping =
        detect_grouping(&s).ok_or(CoreError::Singular("strategy matrix is not groupable"))?;
    // Initial recovery R₀ for the budget weights: least squares under
    // uniform noise (this matches prior work's recovery for each strategy).
    let r0 = gls_recovery(&q, &s, &vec![1.0; s.rows()])?;
    let dec0 = Decomposition { q, s, r: r0 };
    // For non-marginal recoveries R₀ may violate exact per-group weight
    // equality (Definition 3.2); group_specs enforces it strictly, so fall
    // back to summing weights per group when it does not hold exactly.
    let specs: Vec<GroupSpec> = match dec0.group_specs(&grouping, &vec![1.0; dec0.q.rows()]) {
        Ok(s) => s,
        Err(_) => {
            let b = dec0.recovery_weights(&vec![1.0; dec0.q.rows()])?;
            let g = grouping.num_groups();
            let mut specs = vec![GroupSpec { c: 0.0, s: 0.0 }; g];
            for (i, &gid) in grouping.assignment().iter().enumerate() {
                specs[gid].c = grouping.magnitudes()[gid];
                specs[gid].s += b[i];
            }
            specs
        }
    };
    Ok((specs, grouping))
}

/// Compiles a range strategy for a workload (data-independent): the group
/// specs, the row groups and the strategy's [`Kind`]. Identity,
/// hierarchical and Haar strategies compile analytically (no dense matrix
/// at any size); sketches fall back to the dense oracle.
pub(crate) fn compile(
    workload: &RangeWorkload,
    strategy: RangeStrategy,
) -> Result<(Vec<GroupSpec>, Vec<u32>, Kind), CoreError> {
    let n = workload.domain();
    let (specs, grouping) = match analytic_range_structure(workload, strategy) {
        Some(parts) => parts,
        None => dense_range_structure(workload, strategy)?,
    };
    let row_groups = grouping.assignment().iter().map(|&g| g as u32).collect();
    let workload = workload.clone();
    let kind = match strategy {
        RangeStrategy::Identity => Kind::RangeIdentity { workload },
        RangeStrategy::Hierarchical => Kind::Hierarchical { workload },
        RangeStrategy::Wavelet => Kind::Wavelet { workload },
        RangeStrategy::Sketch { .. } => {
            let matrix = sketch_csr(strategy, n);
            let columns = matrix.transposed();
            Kind::Sketch {
                workload,
                strategy,
                matrix,
                columns,
            }
        }
    };
    Ok((specs, row_groups, kind))
}

/// Per-query variances `Σ_i term(c_i², level(i))` over the sparse Haar
/// coefficients `c_i` of each range: the exact GLS variances of the wavelet
/// strategy (`c² σ²` at the level's noise variance) and of the tree
/// strategy (`c² / λ`).
pub(crate) fn haar_variances(
    workload: &RangeWorkload,
    term: impl Fn(f64, usize) -> f64 + Sync,
) -> Vec<f64> {
    let n = workload.domain();
    workload
        .ranges()
        .par_iter()
        .map(|&(lo, hi)| {
            haar_range_coeffs(n, lo, hi)
                .into_iter()
                .map(|(i, c)| term(c * c, dp_linalg::haar_level(i)))
                .sum()
        })
        .collect()
}

/// Exact per-query GLS variances `Var(y_j) = q_jᵀ (SᵀΣ⁻¹S)⁻¹ q_j` through
/// the dense oracle — the variance map of sketches.
pub(crate) fn dense_variances(
    workload: &RangeWorkload,
    strategy: RangeStrategy,
    row_groups: &[u32],
    group_sigma2: &[f64],
) -> Result<Vec<f64>, CoreError> {
    let row_variances: Vec<f64> = row_groups
        .iter()
        .map(|&g| group_sigma2[g as usize])
        .collect();
    let q = workload.query_matrix();
    let s = strategy_matrix(strategy, workload.domain());
    let r = gls_recovery(&q, &s, &row_variances)?;
    output_variances(&r, &row_variances)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Answers, Plan, PlanBuilder, Session, WorkloadSpec};
    use crate::strategy::{solve_budgets, Budgeting, Compiled};
    use dp_mech::noise::noise_variance;
    use dp_mech::PrivacyLevel;
    use std::sync::Arc;

    /// A pure-ε plan for a range workload.
    fn compile(
        w: &RangeWorkload,
        strategy: RangeStrategy,
        optimal: bool,
        epsilon: f64,
    ) -> Result<Arc<Plan>, CoreError> {
        let budgeting = if optimal {
            Budgeting::Optimal
        } else {
            Budgeting::Uniform
        };
        PlanBuilder::ranges(w.clone(), strategy)
            .budgeting(budgeting)
            .privacy(PrivacyLevel::Pure { epsilon })
            .compile()
            .map(Arc::new)
    }

    /// The dense oracle of a compiled plan: explicit `Q`, `S` and the
    /// GLS-optimal `R` for the plan's per-row Laplace variances.
    fn dense_decomposition(plan: &Plan) -> Decomposition {
        let WorkloadSpec::Ranges { workload, strategy } = plan.spec() else {
            unreachable!("range plans have range specs")
        };
        let row_variances: Vec<f64> = row_groups(workload, *strategy)
            .iter()
            .map(|&g| noise_variance(plan.privacy(), plan.solution().group_budgets[g as usize]))
            .collect();
        let q = workload.query_matrix();
        let s = strategy_matrix(*strategy, workload.domain());
        let r = gls_recovery(&q, &s, &row_variances).unwrap();
        Decomposition { q, s, r }
    }

    /// The compiled strategy of a range spec.
    fn build(w: &RangeWorkload, strategy: RangeStrategy) -> Compiled {
        Compiled::build(&WorkloadSpec::Ranges {
            workload: w.clone(),
            strategy,
        })
        .unwrap()
    }

    /// The group id of each observation row of a range strategy.
    fn row_groups(w: &RangeWorkload, strategy: RangeStrategy) -> Vec<u32> {
        super::compile(w, strategy).unwrap().1
    }

    fn total_variance(plan: &Plan) -> f64 {
        plan.query_variances().iter().sum()
    }

    fn hist(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 13) % 7) as f64).collect()
    }

    #[test]
    fn workload_builders() {
        let w = RangeWorkload::all_prefixes(8).unwrap();
        assert_eq!(w.ranges().len(), 8);
        let w = RangeWorkload::sliding_windows(8, 3).unwrap();
        assert_eq!(w.ranges().len(), 6);
        assert!(RangeWorkload::new(6, vec![(0, 1)]).is_err()); // not a power of two
        assert!(RangeWorkload::new(8, vec![(3, 2)]).is_err());
        assert!(RangeWorkload::new(8, vec![(0, 9)]).is_err());
        assert!(RangeWorkload::new(8, vec![]).is_err());
        assert!(RangeWorkload::sliding_windows(8, 0).is_err());
    }

    #[test]
    fn true_answers_match_query_matrix() {
        let w = RangeWorkload::new(8, vec![(0, 4), (2, 7), (5, 6)]).unwrap();
        let h = hist(8);
        let direct = w.true_answers(&h).unwrap();
        let via_q = w.query_matrix().matvec(&h).unwrap();
        for (a, b) in direct.iter().zip(&via_q) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn strategy_matrices_shapes_and_groupings() {
        let n = 16;
        let s_i = strategy_matrix(RangeStrategy::Identity, n);
        assert_eq!(detect_grouping(&s_i).unwrap().num_groups(), 1);
        let s_h = strategy_matrix(RangeStrategy::Hierarchical, n);
        assert_eq!(s_h.rows(), 2 * n - 1);
        // Tree: one group per level = log2(n) + 1 (paper, Section 3.1).
        assert_eq!(detect_grouping(&s_h).unwrap().num_groups(), 5);
        let s_w = strategy_matrix(RangeStrategy::Wavelet, n);
        // Haar: log2(n) + 1 levels (paper: "g = ⌈log₂N⌉ + 1").
        assert_eq!(detect_grouping(&s_w).unwrap().num_groups(), 5);
    }

    #[test]
    fn operators_match_strategy_matrices() {
        // The matrix-free release operators must agree row-for-row with the
        // dense planning matrices for every strategy.
        let n = 16;
        let x = hist(n);
        for strategy in [
            RangeStrategy::Identity,
            RangeStrategy::Hierarchical,
            RangeStrategy::Wavelet,
            RangeStrategy::Sketch {
                repetitions: 3,
                buckets: 8,
                seed: 42,
            },
        ] {
            let dense = strategy_matrix(strategy, n);
            let op = strategy_operator(strategy, n);
            assert_eq!(op.rows(), dense.rows(), "{strategy:?}");
            assert_eq!(op.cols(), dense.cols(), "{strategy:?}");
            let via_op = op.apply(&x);
            let via_dense = dense.matvec(&x).unwrap();
            for (a, b) in via_op.iter().zip(&via_dense) {
                assert!((a - b).abs() < 1e-10, "{strategy:?}: {a} vs {b}");
            }
            let y: Vec<f64> = (0..dense.rows()).map(|i| ((i * 3) % 5) as f64).collect();
            let t_op = op.apply_transpose(&y);
            let t_dense = dense.matvec_transposed(&y).unwrap();
            for (a, b) in t_op.iter().zip(&t_dense) {
                assert!((a - b).abs() < 1e-10, "{strategy:?} transpose: {a} vs {b}");
            }
        }
    }

    #[test]
    fn plans_are_unbiased_and_noise_scales() {
        let w = RangeWorkload::all_prefixes(16).unwrap();
        let h = hist(16);
        let exact = w.true_answers(&h).unwrap();
        let plan = compile(&w, RangeStrategy::Hierarchical, true, 1.0).unwrap();
        let session = Session::bind_histogram(plan, &h).unwrap();
        let trials = 800;
        let seeds: Vec<u64> = (3..3 + trials).collect();
        let mut mean = vec![0.0; exact.len()];
        for r in session.release_batch(&seeds).unwrap() {
            for (m, v) in mean.iter_mut().zip(r.answers.ranges().unwrap()) {
                *m += v / trials as f64;
            }
        }
        for (m, e) in mean.iter().zip(&exact) {
            assert!((m - e).abs() < 2.0, "mean {m} vs exact {e}");
        }
    }

    /// A fixed noisy observation vector: the exact `S·hist` plus a
    /// deterministic pseudo-noise pattern of magnitude ≤ 5.
    fn noisy_observations(op: &dyn LinearOperator) -> Vec<f64> {
        let mut z = op.apply(&hist(op.cols()));
        for (i, v) in z.iter_mut().enumerate() {
            let h = (i as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15) >> 40;
            *v += (h % 1001) as f64 / 100.0 - 5.0;
        }
        z
    }

    /// Uneven per-group GLS weights (a spread of 15×).
    fn uneven_weights(groups: usize) -> Vec<f64> {
        (0..groups)
            .map(|g| 0.25 + 0.5 * ((g * 7) % 8) as f64)
            .collect()
    }

    fn assert_close(got: &[f64], want: &[f64], rel: f64, what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        let scale = want.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (j, (a, b)) in got.iter().zip(want).enumerate() {
            assert!(
                (a - b).abs() <= rel * scale,
                "{what} answer {j}: {a} vs {b} (scale {scale})"
            );
        }
    }

    #[test]
    fn release_matches_dense_gls_recovery() {
        // The recovery each strategy runs at release must be the exact GLS
        // estimator: equal to the dense R·z oracle (R = Q(SᵀWS)⁻¹SᵀW) and,
        // within CG's tolerance, to conjugate gradients on the same
        // operator, weights and noisy observations.
        for n in [2usize, 4, 16, 256, 1 << 16] {
            let mut ranges: Vec<(usize, usize)> = (1..=n).map(|i| (0, i)).collect();
            ranges.extend([(n / 2, n), (n / 4, n / 2 + 1), (n - 1, n)]);
            let w = RangeWorkload::new(n, ranges).unwrap();
            let dense = n <= 256;
            let mut strategies = vec![
                RangeStrategy::Identity,
                RangeStrategy::Hierarchical,
                RangeStrategy::Wavelet,
            ];
            if dense {
                // Sketches compile through the dense oracle; 8 repetitions
                // of n buckets make S full column rank.
                strategies.push(RangeStrategy::Sketch {
                    repetitions: 8,
                    buckets: n,
                    seed: 11,
                });
            }
            for strategy in strategies {
                let compiled = build(&w, strategy);
                let weights = uneven_weights(compiled.specs().len());
                let row_weights: Vec<f64> = row_groups(&w, strategy)
                    .iter()
                    .map(|&g| weights[g as usize])
                    .collect();
                let operator = strategy_operator(strategy, n);
                let z = noisy_observations(&*operator);
                let got = compiled.recover_observed(&z, &weights).unwrap();
                let Answers::Ranges(got) = got else {
                    unreachable!("range strategies answer ranges")
                };
                let what = format!("{strategy:?} n={n}");
                if dense {
                    let row_variances: Vec<f64> = row_weights.iter().map(|w| 1.0 / w).collect();
                    let s = strategy_matrix(strategy, n);
                    let r = gls_recovery(&w.query_matrix(), &s, &row_variances).unwrap();
                    let oracle = r.matvec(&z).unwrap();
                    assert_close(&got, &oracle, 1e-9, &format!("{what} vs dense"));
                }
                let x_cg =
                    dp_linalg::gls_normal_solve(&operator, &row_weights, &z, CgOptions::default())
                        .unwrap();
                let cg = w.true_answers(&x_cg).unwrap();
                assert_close(&got, &cg, 1e-8, &format!("{what} vs CG"));
            }
        }
    }

    #[test]
    fn releases_are_deterministic_per_seed() {
        let w = RangeWorkload::all_prefixes(32).unwrap();
        let h = hist(32);
        let plan = compile(&w, RangeStrategy::Wavelet, true, 1.0).unwrap();
        let session = Session::bind_histogram(plan, &h).unwrap();
        let run = |seed: u64| {
            session
                .release(seed)
                .unwrap()
                .answers
                .into_ranges()
                .unwrap()
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }

    #[test]
    fn optimal_budgets_beat_uniform_for_prefix_workloads() {
        let w = RangeWorkload::all_prefixes(32).unwrap();
        for strategy in [RangeStrategy::Hierarchical, RangeStrategy::Wavelet] {
            let uni = total_variance(&compile(&w, strategy, false, 1.0).unwrap());
            let opt = total_variance(&compile(&w, strategy, true, 1.0).unwrap());
            assert!(opt <= uni * (1.0 + 1e-9), "{strategy:?}: {opt} vs {uni}");
        }
    }

    #[test]
    fn hierarchy_scales_polylog_while_identity_scales_linearly() {
        // The classic result [14] holds asymptotically: the tree's total
        // prefix variance grows like n·log³n while identity grows like n².
        // (The crossover sits beyond dense-test sizes, so we assert the
        // growth *rates* rather than absolute dominance.)
        let totals = |n: usize| -> (f64, f64) {
            let w = RangeWorkload::all_prefixes(n).unwrap();
            let ident = compile(&w, RangeStrategy::Identity, true, 1.0).unwrap();
            let tree = compile(&w, RangeStrategy::Hierarchical, true, 1.0).unwrap();
            (total_variance(&ident), total_variance(&tree))
        };
        let (i32_, t32) = totals(32);
        let (i128, t128) = totals(128);
        let ident_growth = i128 / i32_;
        let tree_growth = t128 / t32;
        assert!(
            tree_growth < 0.8 * ident_growth,
            "tree growth {tree_growth} vs identity growth {ident_growth}"
        );
    }

    #[test]
    fn wavelet_recovery_uses_orthonormal_shortcut_semantics() {
        // For the invertible Haar strategy, Q = RS must hold exactly and
        // the noiseless release must be exact.
        let w = RangeWorkload::new(16, vec![(0, 5), (3, 11)]).unwrap();
        let plan = compile(&w, RangeStrategy::Wavelet, true, 1.0).unwrap();
        let decomposition = dense_decomposition(&plan);
        decomposition.validate(1e-8).unwrap();
        let h = hist(16);
        // Zero-noise check through the recovery path: apply R·S directly.
        let z = decomposition.s.matvec(&h).unwrap();
        let y = decomposition.r.matvec(&z).unwrap();
        let exact = w.true_answers(&h).unwrap();
        for (a, b) in y.iter().zip(&exact) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn labels() {
        assert_eq!(RangeStrategy::Identity.label(), "I");
        assert_eq!(RangeStrategy::Hierarchical.label(), "H");
        assert_eq!(RangeStrategy::Wavelet.label(), "W");
        assert_eq!(
            RangeStrategy::Sketch {
                repetitions: 2,
                buckets: 4,
                seed: 0
            }
            .label(),
            "S"
        );
    }

    #[test]
    fn sketch_strategy_is_groupable_with_t_groups() {
        // The paper's Section-3.1 claim: g = t for sketches.
        let s = strategy_matrix(
            RangeStrategy::Sketch {
                repetitions: 3,
                buckets: 8,
                seed: 42,
            },
            16,
        );
        // At most t·b rows; empty buckets are dropped.
        assert!(s.rows() <= 24 && s.rows() >= 8, "{} rows", s.rows());
        // Each repetition's rows jointly cover every column, so rows from
        // different repetitions always collide: exactly t groups.
        let g = detect_grouping(&s).unwrap();
        assert_eq!(g.num_groups(), 3);
        assert!(g.magnitudes().iter().all(|&c| c == 1.0));
    }

    #[test]
    fn sketch_release_pipeline_runs_when_full_rank() {
        // Enough repetitions × buckets make S full column rank with high
        // probability; the full Step-1..3 pipeline then applies unchanged.
        let w = RangeWorkload::new(16, vec![(0, 4), (3, 9), (10, 16)]).unwrap();
        let strategy = RangeStrategy::Sketch {
            repetitions: 8,
            buckets: 16,
            seed: 7,
        };
        let plan = compile(&w, strategy, true, 1.0).unwrap();
        dense_decomposition(&plan).validate(1e-6).unwrap();
        let h = hist(16);
        let session = Session::bind_histogram(Arc::clone(&plan), &h).unwrap();
        let y = session.release(1).unwrap().answers.into_ranges().unwrap();
        assert_eq!(y.len(), 3);
        assert!(total_variance(&plan).is_finite());
    }

    #[test]
    fn underdetermined_sketch_is_rejected_not_silently_wrong() {
        let w = RangeWorkload::new(16, vec![(0, 8)]).unwrap();
        let strategy = RangeStrategy::Sketch {
            repetitions: 1,
            buckets: 4, // 4 rows < N = 16: rank deficient by construction
            seed: 3,
        };
        assert!(compile(&w, strategy, true, 1.0).is_err());
    }

    #[test]
    fn haar_range_coeffs_match_dense_transform() {
        // The sparse closed-form Haar analysis of a range indicator must
        // equal haar_forward applied to the dense indicator, for a battery
        // of ranges including edge-touching and single-cell ones.
        for n in [8usize, 16, 32] {
            let cases = [
                (0, n),
                (0, 1),
                (n - 1, n),
                (1, n - 1),
                (3, 7),
                (n / 4, 3 * n / 4),
                (n / 2 - 1, n / 2 + 1),
            ];
            for &(lo, hi) in &cases {
                if lo >= hi || hi > n {
                    continue;
                }
                let mut dense = vec![0.0; n];
                for v in dense.iter_mut().take(hi).skip(lo) {
                    *v = 1.0;
                }
                dp_linalg::haar_forward(&mut dense, &mut Vec::new());
                let mut sparse = vec![0.0; n];
                for (i, c) in haar_range_coeffs(n, lo, hi) {
                    assert_eq!(sparse[i], 0.0, "coefficient {i} emitted twice");
                    sparse[i] = c;
                }
                for (i, (a, b)) in sparse.iter().zip(&dense).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-12,
                        "n={n} [{lo},{hi}) coeff {i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn analytic_structure_matches_dense_oracle() {
        // The matrix-free group specs must agree with the dense R₀-based
        // derivation (same grouping, same C_r, same s_r).
        for n in [16usize, 64] {
            let workloads = [
                RangeWorkload::all_prefixes(n).unwrap(),
                RangeWorkload::new(n, vec![(0, 5), (3, 11), (8, n), (n / 2, n / 2 + 1)]).unwrap(),
                RangeWorkload::sliding_windows(n, 3).unwrap(),
            ];
            for w in &workloads {
                for strategy in [
                    RangeStrategy::Identity,
                    RangeStrategy::Hierarchical,
                    RangeStrategy::Wavelet,
                ] {
                    let (fast_specs, fast_grouping) =
                        analytic_range_structure(w, strategy).expect("structured strategy");
                    let (dense_specs, dense_grouping) = dense_range_structure(w, strategy).unwrap();
                    assert_eq!(fast_grouping.assignment(), dense_grouping.assignment());
                    for (a, b) in fast_grouping
                        .magnitudes()
                        .iter()
                        .zip(dense_grouping.magnitudes())
                    {
                        assert!((a - b).abs() < 1e-12, "{strategy:?}: C {a} vs {b}");
                    }
                    assert_eq!(fast_specs.len(), dense_specs.len());
                    for (g, (a, b)) in fast_specs.iter().zip(&dense_specs).enumerate() {
                        assert!((a.c - b.c).abs() < 1e-12, "{strategy:?} group {g}");
                        assert!(
                            (a.s - b.s).abs() < 1e-8 * b.s.abs().max(1.0),
                            "{strategy:?} n={n} group {g}: s {} vs {}",
                            a.s,
                            b.s
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn analytic_query_variances_match_dense_oracle() {
        // The closed-form per-query GLS variances must match the dense
        // R/output_variances oracle for both budgeting modes.
        let n = 32;
        let w = RangeWorkload::all_prefixes(n).unwrap();
        for strategy in [
            RangeStrategy::Identity,
            RangeStrategy::Hierarchical,
            RangeStrategy::Wavelet,
        ] {
            for budgeting in [Budgeting::Uniform, Budgeting::Optimal] {
                let compiled = build(&w, strategy);
                let privacy = PrivacyLevel::Pure { epsilon: 0.7 };
                let solution = solve_budgets(compiled.specs(), privacy, budgeting).unwrap();
                let sigma2: Vec<f64> = solution
                    .group_budgets
                    .iter()
                    .map(|&e| noise_variance(privacy, e))
                    .collect();
                let fast = compiled.predict_query_variances(&sigma2).unwrap();
                let row_variances: Vec<f64> = row_groups(&w, strategy)
                    .iter()
                    .map(|&g| sigma2[g as usize])
                    .collect();
                let q = w.query_matrix();
                let s = strategy_matrix(strategy, n);
                let r = gls_recovery(&q, &s, &row_variances).unwrap();
                let oracle = output_variances(&r, &row_variances).unwrap();
                for (j, (a, b)) in fast.iter().zip(&oracle).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-6 * b.max(1e-12),
                        "{strategy:?}/{budgeting:?} query {j}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn matrix_free_planning_scales_past_the_dense_oracle() {
        // A domain of 2^14 would need a 16384×32767-entry dense S (and an
        // O(n³) GLS) under the old planner; the analytic path compiles the
        // full prefix workload in well under a second.
        let n = 1usize << 14;
        let w = RangeWorkload::all_prefixes(n).unwrap();
        for strategy in [RangeStrategy::Hierarchical, RangeStrategy::Wavelet] {
            let compiled = build(&w, strategy);
            let groups = compiled.specs().len();
            assert_eq!(groups, 15, "{strategy:?}: log2(n)+1 level groups");
            assert!(compiled.specs().iter().all(|g| g.s > 0.0 && g.c > 0.0));
            let privacy = PrivacyLevel::Pure { epsilon: 1.0 };
            let solution = solve_budgets(compiled.specs(), privacy, Budgeting::Optimal).unwrap();
            let sigma2: Vec<f64> = solution
                .group_budgets
                .iter()
                .map(|&e| noise_variance(privacy, e))
                .collect();
            let vars = compiled.predict_query_variances(&sigma2).unwrap();
            assert_eq!(vars.len(), n);
            assert!(vars.iter().all(|v| v.is_finite() && *v > 0.0));
        }
    }

    #[test]
    fn histogram_shape_is_validated() {
        let w = RangeWorkload::all_prefixes(16).unwrap();
        let plan = compile(&w, RangeStrategy::Hierarchical, true, 1.0).unwrap();
        assert!(matches!(
            Session::bind_histogram(plan, &[1.0; 8]),
            Err(CoreError::Shape { .. })
        ));
    }
}
