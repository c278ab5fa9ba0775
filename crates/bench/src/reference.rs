//! The range-recovery kernels as they were before they ran in place, kept
//! as byte-identity references: `tests/recovery_oracle.rs` compares the
//! library's kernels with them bit for bit, and `hot_path` times the
//! library's W+ and H+ recovery against them. Nothing on a release path
//! calls this module.
//!
//! Each kernel allocates what the old code allocated: an `n`-cell buffer
//! per Haar transform, one vector per tree level, an `n + 1` prefix
//! vector, and fresh vectors for the W+ copy and the H+ weighting.

use dp_core::range::RangeWorkload;

/// Forward orthonormal Haar transform, one level at a time through a full
/// `n`-cell buffer.
pub fn haar_forward(data: &mut [f64]) {
    let n = data.len();
    assert!(n.is_power_of_two());
    let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
    let mut len = n;
    let mut buf = vec![0.0; n];
    while len > 1 {
        let half = len / 2;
        for i in 0..half {
            let a = data[2 * i];
            let b = data[2 * i + 1];
            buf[i] = (a + b) * inv_sqrt2;
            buf[half + i] = (a - b) * inv_sqrt2;
        }
        data[..len].copy_from_slice(&buf[..len]);
        len = half;
    }
}

/// Inverse orthonormal Haar transform, one level at a time through a full
/// `n`-cell buffer.
pub fn haar_inverse(data: &mut [f64]) {
    let n = data.len();
    assert!(n.is_power_of_two());
    let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
    let mut len = 2;
    let mut buf = vec![0.0; n];
    while len <= n {
        let half = len / 2;
        for i in 0..half {
            let s = data[i];
            let d = data[half + i];
            buf[2 * i] = (s + d) * inv_sqrt2;
            buf[2 * i + 1] = (s - d) * inv_sqrt2;
        }
        data[..len].copy_from_slice(&buf[..len]);
        len *= 2;
    }
}

/// `Sᵀy` of the binary-tree strategy over `n` leaves, one fresh vector per
/// level.
pub fn tree_transpose(n: usize, y: &[f64]) -> Vec<f64> {
    assert!(n.is_power_of_two() && y.len() == 2 * n - 1);
    let levels = n.trailing_zeros() as usize + 1;
    let mut acc = vec![y[0]];
    for level in 1..levels {
        let width = 1usize << level;
        let off = width - 1;
        let mut next = vec![0.0; width];
        for (i, v) in next.iter_mut().enumerate() {
            *v = acc[i / 2] + y[off + i];
        }
        acc = next;
    }
    acc
}

/// The range answers `P(hi) − P(lo)` read from a full `n + 1` prefix-sum
/// vector.
pub fn prefix_answers(ranges: &[(usize, usize)], hist: &[f64]) -> Vec<f64> {
    let mut prefix = vec![0.0; hist.len() + 1];
    for (i, &h) in hist.iter().enumerate() {
        prefix[i + 1] = prefix[i] + h;
    }
    ranges
        .iter()
        .map(|&(lo, hi)| prefix[hi] - prefix[lo])
        .collect()
}

/// The eigenvalues of the tree normal matrix `Σ_t w_t J_{n/2^t}` in the
/// Haar basis, one per Haar level `h = 0 ..= log₂ n`, derived here apart
/// from the library's: `J_b` sums blocks of `b` cells. The vectors of Haar
/// level `h ≥ 1` are constant on pieces of `n/2^h` cells, so tree level
/// `t ≥ h`, whose blocks fit in a piece, scales them by its block width
/// `n/2^t`, and a wider block spans both pieces of a vector and sums it
/// to zero. The average vector (`h = 0`) is constant everywhere, so every
/// level scales it. Either way `λ_h = Σ_{t ≥ h} w_t·n/2^t`, added from the
/// root down.
fn tree_eigenvalues(n: usize, level_weights: &[f64]) -> Vec<f64> {
    let levels = n.trailing_zeros() as usize;
    assert_eq!(level_weights.len(), levels + 1);
    (0..=levels)
        .map(|h| {
            let mut lam = 0.0;
            for (t, &w) in level_weights.iter().enumerate().skip(h) {
                lam += w * (n >> t) as f64;
            }
            lam
        })
        .collect()
}

/// The W+ recovery `Q Wᵀz`: copy the noisy Haar coefficients, invert, and
/// answer from the prefix vector.
pub fn wavelet_recovery(workload: &RangeWorkload, noisy: &[f64]) -> Vec<f64> {
    let mut x = noisy.to_vec();
    haar_inverse(&mut x);
    prefix_answers(workload.ranges(), &x)
}

/// The H+ recovery: weight each noisy node sum by its group's GLS weight,
/// push the weighted sums down the tree, solve in the Haar basis, and
/// answer from the prefix vector.
pub fn tree_recovery(
    workload: &RangeWorkload,
    noisy: &[f64],
    row_groups: &[u32],
    group_weights: &[f64],
) -> Vec<f64> {
    let n = workload.domain();
    let weighted: Vec<f64> = noisy
        .iter()
        .zip(row_groups)
        .map(|(z, &g)| z * group_weights[g as usize])
        .collect();
    let mut x = tree_transpose(n, &weighted);
    haar_forward(&mut x);
    let lam = tree_eigenvalues(n, group_weights);
    x[0] /= lam[0];
    for (level, &l) in lam.iter().enumerate().skip(1) {
        for v in &mut x[1 << (level - 1)..1 << level] {
            *v /= l;
        }
    }
    haar_inverse(&mut x);
    prefix_answers(workload.ranges(), &x)
}
