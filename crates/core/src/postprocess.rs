//! Post-processing of released marginals: non-negativity and integrality.
//!
//! The paper's concluding remarks (Section 6) note that applications often
//! additionally require the released answers to "correspond to a data set
//! in which all counts are integral and non-negative", and that this is
//! easy when base counts are materialized but open in general. This module
//! implements both pieces:
//!
//! * [`clamp_round_base_counts`] — the easy case the paper describes:
//!   clamp a noisy count vector at zero and round to integers *before*
//!   aggregating marginals (so the result is exactly the marginal set of a
//!   non-negative integral dataset).
//! * [`project_nonnegative`] — the general case: given consistent released
//!   marginals (from any strategy), construct a non-negative integral
//!   synthetic contingency table whose marginals approximate them, by
//!   clamped reconstruction over the coefficient support followed by
//!   largest-remainder rounding that preserves the total count. Because
//!   post-processing uses only released values, differential privacy is
//!   preserved for free.

use crate::fourier::{CoefficientSpace, ObservationOperator};
use crate::marginal::MarginalSet;
use crate::CoreError;

/// The easy case of Section 6: clamp a noisy base-count vector at 0 and
/// round to the nearest integer, in place. The marginals of the result are
/// consistent, non-negative and integral by construction.
pub fn clamp_round_base_counts(counts: &mut [f64]) {
    for v in counts.iter_mut() {
        *v = v.max(0.0).round();
    }
}

/// Options for [`project_nonnegative`].
#[derive(Debug, Clone, Copy)]
pub struct ProjectOptions {
    /// Round cell values to integers (largest-remainder, preserving the
    /// rounded total). If false, only non-negativity is enforced.
    pub integral: bool,
    /// Maximum domain bits for which the dense reconstruction is allowed
    /// (the projection materializes a `2^d` vector).
    pub max_bits: usize,
}

impl Default for ProjectOptions {
    fn default() -> Self {
        ProjectOptions {
            integral: true,
            max_bits: 26,
        }
    }
}

/// Projects consistent released marginals onto non-negative (optionally
/// integral) synthetic data, returning the synthetic count vector and the
/// marginals recomputed from it.
///
/// The construction: rebuild `x̂` from the marginals' Fourier coefficients
/// over the *full* domain (this is the minimum-norm consistent preimage),
/// clamp negatives to zero, optionally round with total preservation, then
/// recompute the workload marginals. The output marginals are therefore
/// realizable by an actual dataset — the strongest consistency notion in
/// Definition 2.3 plus the Section-6 extras.
pub fn project_nonnegative(
    d: usize,
    marginals: &MarginalSet,
    opts: ProjectOptions,
) -> Result<(Vec<f64>, MarginalSet), CoreError> {
    if marginals.is_empty() {
        return Ok((Vec::new(), marginals.clone()));
    }
    if d > opts.max_bits {
        return Err(CoreError::Shape {
            context: "project_nonnegative domain bits",
            expected: opts.max_bits,
            actual: d,
        });
    }
    let masks = marginals.masks();
    let space = CoefficientSpace::from_marginals(d, masks);
    let op = ObservationOperator::new(&space, masks)?;
    // Average the coefficient estimates over the marginals that contain
    // them (inputs are assumed consistent, so they agree; averaging makes
    // the call robust to slight numerical inconsistency).
    let mut coeffs = vec![0.0; space.len()];
    let mut hits = vec![0u32; space.len()];
    let mut scratch = Vec::new();
    for (i, (_, cells)) in marginals.iter().enumerate() {
        for (pos, c) in op.coefficients(i, cells, &mut scratch) {
            coeffs[pos] += c;
            hits[pos] += 1;
        }
    }
    for (c, &h) in coeffs.iter_mut().zip(&hits) {
        if h > 0 {
            *c /= h as f64;
        }
    }

    // Minimum-norm consistent preimage: expand the coefficients to the
    // full domain with one inverse WHT (unsupported coefficients are 0).
    let n = 1usize << d;
    let mut x = vec![0.0; n];
    for (&beta, &c) in space.support().iter().zip(&coeffs) {
        x[beta.0 as usize] = c;
    }
    dp_linalg::fwht(&mut x);
    let scale = 1.0 / (n as f64).sqrt();
    for v in &mut x {
        *v *= scale;
    }

    // Non-negativity. Clamping adds mass (the minimum-norm preimage has
    // negative cells even for exactly consistent inputs), so rescale back
    // to the released total afterwards — the total is the DC coefficient
    // times 2^{d/2}, i.e. what every input marginal sums to.
    let target_total: f64 = marginals
        .iter()
        .map(|(_, cells)| cells.iter().sum::<f64>())
        .sum::<f64>()
        / marginals.len() as f64;
    for v in &mut x {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
    let clamped_total: f64 = x.iter().sum();
    if clamped_total > 0.0 && target_total > 0.0 {
        let factor = target_total / clamped_total;
        for v in &mut x {
            *v *= factor;
        }
    }
    // Integrality with total preservation (largest remainder).
    if opts.integral {
        round_preserving_total(&mut x);
    }

    let table = crate::table::ContingencyTable::from_counts(x);
    let out = table.marginals(masks);
    Ok((table.counts().to_vec(), out))
}

/// Rounds a non-negative vector to integers while keeping the (rounded)
/// total fixed, using the largest-remainder method.
fn round_preserving_total(x: &mut [f64]) {
    let total: f64 = x.iter().sum();
    let target = total.round() as i64;
    let mut floor_sum: i64 = 0;
    let mut remainders: Vec<(usize, f64)> = Vec::with_capacity(x.len());
    for (i, v) in x.iter_mut().enumerate() {
        let f = v.floor();
        floor_sum += f as i64;
        remainders.push((i, *v - f));
        *v = f;
    }
    let mut deficit = (target - floor_sum).max(0) as usize;
    if deficit > 0 {
        remainders.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).expect("remainders are finite"));
        for &(i, _) in remainders.iter().take(deficit.min(x.len())) {
            x[i] += 1.0;
        }
        deficit = deficit.saturating_sub(x.len());
        // If the deficit exceeded the number of cells (cannot happen for
        // remainders < 1 each, but guard anyway), dump it on cell 0.
        if deficit > 0 {
            x[0] += deficit as f64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::AttrMask;
    use crate::table::ContingencyTable;
    use crate::workload::Workload;

    fn exact_setup() -> (ContingencyTable, Workload) {
        let t = ContingencyTable::from_counts(vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]);
        let w = Workload::new(3, vec![AttrMask(0b011), AttrMask(0b110)]).unwrap();
        (t, w)
    }

    #[test]
    fn clamp_round_enforces_both_properties() {
        let mut counts = vec![1.4, -0.3, 2.6, -5.0, 0.0];
        clamp_round_base_counts(&mut counts);
        assert_eq!(counts, vec![1.0, 0.0, 3.0, 0.0, 0.0]);
    }

    #[test]
    fn projection_of_exact_nonneg_integral_marginals_is_lossless() {
        let (t, w) = exact_setup();
        let exact = w.true_answers(&t);
        let (_, projected) = project_nonnegative(3, &exact, ProjectOptions::default()).unwrap();
        // The exact marginals come from non-negative integral data whose
        // min-norm preimage may differ from t, but the *marginals* must be
        // reproduced exactly (they are determined by the coefficients).
        for ((_, p), (_, e)) in projected.iter().zip(exact.iter()) {
            for (a, b) in p.iter().zip(e) {
                assert!((a - b).abs() < 1.0 + 1e-9, "{a} vs {b}");
            }
        }
        // Totals are preserved exactly.
        let first_total = |set: &MarginalSet| set.iter().next().unwrap().1.iter().sum::<f64>();
        assert!((first_total(&projected) - first_total(&exact)).abs() < 1e-6);
    }

    #[test]
    fn projection_output_is_nonnegative_and_integral() {
        let (t, w) = exact_setup();
        // Perturb to introduce negatives and fractions.
        let mut noisy = w.true_answers(&t);
        // Every marginal has an even cell count, so a cell's parity within
        // its marginal is its parity in the buffer.
        for (i, v) in noisy.cells_mut().iter_mut().enumerate() {
            *v += if i % 2 == 0 { -2.7 } else { 1.3 };
        }
        let (counts, projected) =
            project_nonnegative(3, &noisy, ProjectOptions::default()).unwrap();
        assert!(counts.iter().all(|&v| v >= 0.0 && v.fract() == 0.0));
        for (_, cells) in projected.iter() {
            assert!(cells.iter().all(|&v| v >= 0.0 && v.fract() == 0.0));
        }
        // Projected marginals are mutually consistent (they come from one
        // synthetic table).
        assert!(crate::consistency::is_consistent(&projected, 1e-9));
    }

    #[test]
    fn non_integral_mode_keeps_fractions() {
        let (t, w) = exact_setup();
        let mut noisy = w.true_answers(&t);
        for v in noisy.cells_mut() {
            *v += 0.25;
        }
        let (counts, _) = project_nonnegative(
            3,
            &noisy,
            ProjectOptions {
                integral: false,
                max_bits: 26,
            },
        )
        .unwrap();
        assert!(counts.iter().all(|&v| v >= 0.0));
        assert!(counts.iter().any(|&v| v.fract() != 0.0));
    }

    #[test]
    fn round_preserving_total_exact() {
        let mut x = vec![0.3, 0.3, 0.4, 1.5, 2.5];
        round_preserving_total(&mut x);
        assert_eq!(x.iter().sum::<f64>(), 5.0);
        assert!(x.iter().all(|&v| v.fract() == 0.0));
        // Total 5.0 → floors sum to 3, deficit 2 goes to the two largest
        // remainders (the .5s at indices 3 and 4): 1.5 → 2 and 2.5 → 3.
        assert_eq!(x[3], 2.0);
        assert_eq!(x[4], 3.0);
    }

    #[test]
    fn domain_cap_is_enforced() {
        let m = MarginalSet::new(vec![AttrMask(0b1)], vec![1.0, 2.0]);
        let res = project_nonnegative(
            30,
            &m,
            ProjectOptions {
                integral: true,
                max_bits: 20,
            },
        );
        assert!(matches!(res, Err(CoreError::Shape { .. })));
    }

    #[test]
    fn empty_input() {
        let empty = MarginalSet::new(Vec::new(), Vec::new());
        let (c, m) = project_nonnegative(3, &empty, ProjectOptions::default()).unwrap();
        assert!(c.is_empty() && m.is_empty());
    }
}
