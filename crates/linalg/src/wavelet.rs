//! One-dimensional Haar wavelet transform.
//!
//! The wavelet strategy of Xiao et al. \[23\] (discussed in Sections 1 and 3.1
//! of the paper) answers range-query workloads by releasing noisy Haar
//! coefficients. The Haar strategy matrix is groupable (Definition 3.1): all
//! coefficients at the same resolution level form a group, giving grouping
//! number `⌈log₂ N⌉ + 1`, which is exactly what our budget optimizer
//! exploits.
//!
//! We use the orthonormal Haar convention, so the transform matrix `W`
//! satisfies `Wᵀ = W⁻¹` and the recovery shortcut `R = Q Wᵀ` of the paper's
//! Observation 1 applies. Releases use it directly: a wavelet release
//! recovers `x̂ = Wᵀz` with one [`haar_inverse`], and a tree release
//! recovers through [`haar_forward`]/[`haar_inverse`] too, because the
//! Haar basis diagonalizes the tree's normal matrix.
//!
//! Both transforms run in place with a caller-owned work buffer of `n/2`
//! cells, so a release that keeps its buffers allocates nothing here. The
//! coarse levels live in the buffer and the finest level in `data`; each
//! loop runs in the one direction that reads every cell before it is
//! overwritten. Every output cell is the same `(a ± b)·2^{-1/2}` of the
//! same operands as in the textbook level-by-level copy through a full
//! `n`-cell buffer, so the bits do not depend on the buffer layout.

const INV_SQRT2: f64 = std::f64::consts::FRAC_1_SQRT_2;

/// Forward orthonormal Haar transform (in place), with `half` as work
/// space (grown to `n/2` cells; its contents on entry do not matter).
///
/// Coefficient layout after the transform: index 0 holds the overall scaled
/// average; indices `[2^ℓ, 2^{ℓ+1})` hold the detail coefficients of level
/// `ℓ` (coarsest first).
///
/// # Panics
/// Panics if the length is not a power of two.
pub fn haar_forward(data: &mut [f64], half: &mut Vec<f64>) {
    let n = data.len();
    assert!(
        n.is_power_of_two(),
        "Haar length {n} must be a power of two"
    );
    if n == 1 {
        return;
    }
    let h = n / 2;
    let buf = work_buffer(half, h);
    // The finest level: averages into `buf`, details into `data[h..]`, in
    // descending order — pair `i` writes cell `h + i`, past every pair
    // `2j, 2j + 1` (`j < i`) still to be read.
    for i in (0..h).rev() {
        let (a, b) = (data[2 * i], data[2 * i + 1]);
        buf[i] = (a + b) * INV_SQRT2;
        data[h + i] = (a - b) * INV_SQRT2;
    }
    // Coarser levels average within `buf` in ascending order — pair `i`
    // overwrites cell `i`, before every pair `2j, 2j + 1` (`j > i`) still
    // to be read — and write their details into `data[mid..len]`.
    let mut len = h;
    while len > 1 {
        let mid = len / 2;
        for i in 0..mid {
            let (a, b) = (buf[2 * i], buf[2 * i + 1]);
            buf[i] = (a + b) * INV_SQRT2;
            data[mid + i] = (a - b) * INV_SQRT2;
        }
        len = mid;
    }
    data[0] = buf[0];
}

/// Inverse orthonormal Haar transform (in place); exact inverse of
/// [`haar_forward`], with the same `half` work space.
///
/// # Panics
/// Panics if the length is not a power of two.
pub fn haar_inverse(data: &mut [f64], half: &mut Vec<f64>) {
    let n = data.len();
    assert!(
        n.is_power_of_two(),
        "Haar length {n} must be a power of two"
    );
    if n == 1 {
        return;
    }
    let h = n / 2;
    let buf = work_buffer(half, h);
    // Every level below `n` is synthesized in `buf` in descending order —
    // approximation `i` writes cells `2i, 2i + 1`, past every
    // approximation `j < i` still to be read.
    buf[0] = data[0];
    let mut mid = 1;
    while mid < h {
        for i in (0..mid).rev() {
            let (s, d) = (buf[i], data[mid + i]);
            buf[2 * i] = (s + d) * INV_SQRT2;
            buf[2 * i + 1] = (s - d) * INV_SQRT2;
        }
        mid *= 2;
    }
    // The last level goes into `data` in ascending order — pair `i` writes
    // cells `2i, 2i + 1`, before every detail `h + j` (`j > i`) still to
    // be read.
    for i in 0..h {
        let (s, d) = (buf[i], data[h + i]);
        data[2 * i] = (s + d) * INV_SQRT2;
        data[2 * i + 1] = (s - d) * INV_SQRT2;
    }
}

/// The first `len` cells of `half`, grown to that length if needed.
fn work_buffer(half: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if half.len() < len {
        half.resize(len, 0.0);
    }
    &mut half[..len]
}

/// The resolution level of Haar coefficient `index` in a length-`n`
/// transform: level 0 is the average coefficient, level `ℓ ≥ 1` contains the
/// detail coefficients at indices `[2^{ℓ-1}, 2^ℓ)`. Rows in the same level
/// form one group of the strategy's grouping function.
pub fn haar_level(index: usize) -> usize {
    if index == 0 {
        0
    } else {
        (usize::BITS - index.leading_zeros()) as usize
    }
}

/// Magnitude of the non-zero entries of the Haar strategy row for
/// coefficient `index` in a length-`n` transform. Within a level all
/// magnitudes are equal — the "bounded column norm" half of the grouping
/// property.
pub fn haar_row_magnitude(n: usize, index: usize) -> f64 {
    assert!(n.is_power_of_two());
    let levels = n.trailing_zeros() as usize; // log2(n)
    let level = haar_level(index);
    // The average row has n entries of magnitude n^{-1/2}. A detail row at
    // level ℓ (1-based from the coarsest) has support n / 2^{ℓ-1} and
    // magnitude 2^{(ℓ-1)/2} / sqrt(n) ... derived from repeated 1/sqrt(2)
    // averaging: support s = n >> (level.saturating_sub(1)), magnitude
    // 1/sqrt(s).
    let support = if level == 0 { n } else { n >> (level - 1) };
    debug_assert!(level <= levels);
    1.0 / (support as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_then_inverse_is_identity() {
        let x0: Vec<f64> = (0..16).map(|i| ((i * 37) % 11) as f64).collect();
        let mut x = x0.clone();
        haar_forward(&mut x, &mut Vec::new());
        haar_inverse(&mut x, &mut Vec::new());
        for (a, b) in x.iter().zip(&x0) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn orthonormal_energy_preserved() {
        let x0: Vec<f64> = (0..32).map(|i| (i as f64 * 0.3).cos()).collect();
        let e0: f64 = x0.iter().map(|v| v * v).sum();
        let mut x = x0;
        haar_forward(&mut x, &mut Vec::new());
        let e1: f64 = x.iter().map(|v| v * v).sum();
        assert!((e0 - e1).abs() < 1e-10);
    }

    #[test]
    fn average_coefficient() {
        let mut x = vec![1.0, 3.0, 5.0, 7.0];
        haar_forward(&mut x, &mut Vec::new());
        // Orthonormal average coefficient = sum / sqrt(n).
        assert!((x[0] - 16.0 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn levels_partition_indices() {
        assert_eq!(haar_level(0), 0);
        assert_eq!(haar_level(1), 1);
        assert_eq!(haar_level(2), 2);
        assert_eq!(haar_level(3), 2);
        assert_eq!(haar_level(4), 3);
        assert_eq!(haar_level(7), 3);
        assert_eq!(haar_level(8), 4);
    }

    #[test]
    fn row_magnitudes_match_explicit_rows() {
        // Build the explicit Haar matrix by transforming unit vectors and
        // check that every non-zero in a row has the claimed magnitude.
        let n = 16;
        let mut rows = vec![vec![0.0; n]; n];
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            haar_forward(&mut e, &mut Vec::new());
            for (row, &v) in rows.iter_mut().zip(e.iter()) {
                row[j] = v;
            }
        }
        for (i, row) in rows.iter().enumerate() {
            let mag = haar_row_magnitude(n, i);
            for &v in row {
                if v != 0.0 {
                    assert!(
                        (v.abs() - mag).abs() < 1e-12,
                        "row {i}: |{v}| vs expected {mag}"
                    );
                }
            }
        }
    }

    #[test]
    fn rows_within_level_are_disjoint() {
        // Row-wise disjointness half of the grouping property (Def. 3.1).
        let n = 16;
        let mut rows = vec![vec![0.0; n]; n];
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            haar_forward(&mut e, &mut Vec::new());
            for (row, &v) in rows.iter_mut().zip(e.iter()) {
                row[j] = v;
            }
        }
        for i1 in 0..n {
            for i2 in (i1 + 1)..n {
                if haar_level(i1) == haar_level(i2) {
                    for (j, (a, b)) in rows[i1].iter().zip(&rows[i2]).enumerate() {
                        assert!(a * b == 0.0, "rows {i1},{i2} overlap at col {j}");
                    }
                }
            }
        }
    }
}
