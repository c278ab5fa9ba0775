//! Fast Walsh–Hadamard transform (WHT).
//!
//! The paper's Fourier strategy (Section 4.1) uses the `2^d`-dimensional
//! discrete Fourier transform over the Boolean hypercube. Its basis vectors
//! are `f^α_β = 2^{-d/2} (−1)^{⟨α,β⟩}` where `⟨α,β⟩ = ‖α ∧ β‖`. The
//! unnormalized transform `H x` with `H_{αβ} = (−1)^{⟨α,β⟩}` can be computed
//! in place in `O(N log N)` time with the classic butterfly recursion; the
//! normalized (orthonormal) variant divides by `2^{d/2}` so that the
//! transform is an involution.
//!
//! Every path — serial, cache-blocked, multi-threaded — funnels through a
//! single `butterfly_kernel`, a four-wide lane rewrite of the cross-half
//! butterfly. The kernel performs the identical per-element `u + v` /
//! `u − v` operations in the identical order, so all paths are bitwise
//! interchangeable (asserted by the tests at the bottom of this module).

use crate::simd::F64x4;

/// Vectors at least this long go through the multi-threaded blocked
/// recursion — `2^16`, i.e. the `d ≥ 16` domains of the paper's Figure 6.
const PARALLEL_LEN: usize = 1 << 16;

/// Recursion below this block size stays on one thread and fits comfortably
/// in L1d (`2^11` doubles = 16 KiB), so the `log2(SERIAL_BLOCK)` leaf stages
/// run cache-resident instead of streaming the full vector from DRAM per
/// stage. Empirically the fastest power of two on the recording machine
/// (see `BENCH_baseline.json`); neighbours 2^10 and 2^12 are within ~5%.
const SERIAL_BLOCK: usize = 1 << 11;

/// Applies the **unnormalized** Walsh–Hadamard transform in place.
///
/// `data.len()` must be a power of two. Applying it twice multiplies the
/// vector by `N = data.len()`. Vectors longer than one cache block go
/// through a blocked two-way recursion — for cache locality on a single
/// thread, and additionally split across cores for `≥ 2^16` when a thread
/// pool is available. The arithmetic (operations and their order) is
/// identical to the plain butterfly, so results are bitwise independent of
/// both the blocking and the thread count.
///
/// # Panics
/// Panics if the length is not a power of two (this is a programming error:
/// the domain size of a binary contingency table is `2^d` by construction).
pub fn fwht(data: &mut [f64]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "WHT length {n} must be a power of two");
    if n <= SERIAL_BLOCK {
        fwht_serial(data);
        return;
    }
    let threads = rayon::current_num_threads();
    let depth = if n >= PARALLEL_LEN && threads > 1 {
        // ceil(log2(threads)) levels of parallel splitting saturate the pool.
        (usize::BITS - (threads - 1).leading_zeros()) as usize
    } else {
        0
    };
    fwht_blocked(data, depth);
}

/// One stage of the butterfly: `a[i] ← a[i] + b[i]`, `b[i] ← a[i] − b[i]`
/// over two equal-length halves. This is the **only** place the cross-half
/// butterfly is written; [`fwht_serial`] and [`butterfly_combine`] both call
/// it. The main loop runs four lanes wide; the scalar tail covers the
/// remaining `len % 4` elements (and all of `len < 4`), performing the same
/// per-element operations in the same order as the scalar loop it replaced.
#[inline]
fn butterfly_kernel(a: &mut [f64], b: &mut [f64]) {
    debug_assert_eq!(a.len(), b.len());
    let mut ac = a.chunks_exact_mut(4);
    let mut bc = b.chunks_exact_mut(4);
    for (ca, cb) in (&mut ac).zip(&mut bc) {
        let u = F64x4::load(ca);
        let v = F64x4::load(cb);
        (u + v).store(ca);
        (u - v).store(cb);
    }
    for (x, y) in ac.into_remainder().iter_mut().zip(bc.into_remainder()) {
        let u = *x;
        let v = *y;
        *x = u + v;
        *y = u - v;
    }
}

/// The classic in-place butterfly iteration, one [`butterfly_kernel`] call
/// per `2h`-chunk per stage.
fn fwht_serial(data: &mut [f64]) {
    let n = data.len();
    let mut h = 1;
    while h < n {
        for chunk in data.chunks_exact_mut(h * 2) {
            let (a, b) = chunk.split_at_mut(h);
            butterfly_kernel(a, b);
        }
        h *= 2;
    }
}

/// `H_{2m} = [[H_m, H_m], [H_m, −H_m]]`: transform both halves, then combine
/// elementwise. This performs exactly the butterfly stages of
/// [`fwht_serial`], reordered only across independent blocks. The halves run
/// on separate threads while `par_depth > 0`; the recursion continues below
/// that on one thread purely for cache locality, bottoming out at
/// [`SERIAL_BLOCK`].
fn fwht_blocked(data: &mut [f64], par_depth: usize) {
    let n = data.len();
    if n <= SERIAL_BLOCK {
        fwht_serial(data);
        return;
    }
    let (a, b) = data.split_at_mut(n / 2);
    if par_depth > 0 {
        rayon::join(
            || fwht_blocked(a, par_depth - 1),
            || fwht_blocked(b, par_depth - 1),
        );
    } else {
        fwht_blocked(a, 0);
        fwht_blocked(b, 0);
    }
    butterfly_combine(a, b, par_depth);
}

/// The final cross-half butterfly, split recursively across threads while
/// `par_depth > 0`, then delegated to the shared kernel.
fn butterfly_combine(a: &mut [f64], b: &mut [f64], par_depth: usize) {
    if par_depth == 0 || a.len() <= SERIAL_BLOCK {
        butterfly_kernel(a, b);
        return;
    }
    let mid = a.len() / 2;
    let (a1, a2) = a.split_at_mut(mid);
    let (b1, b2) = b.split_at_mut(mid);
    rayon::join(
        || butterfly_combine(a1, b1, par_depth - 1),
        || butterfly_combine(a2, b2, par_depth - 1),
    );
}

/// Applies the **orthonormal** Walsh–Hadamard transform in place
/// (`x ↦ 2^{-d/2} H x`). This matches the paper's Fourier basis: entry `α`
/// of the output is the Fourier coefficient `⟨f^α, x⟩`.
pub fn fwht_normalized(data: &mut [f64]) {
    fwht(data);
    let scale = 1.0 / (data.len() as f64).sqrt();
    for v in data.iter_mut() {
        *v *= scale;
    }
}

/// Computes a single Fourier coefficient `⟨f^α, x⟩ = 2^{-d/2} Σ_β (−1)^{⟨α,β⟩} x_β`
/// directly in `O(N)`. Used by tests as an oracle and by callers that need
/// only a handful of coefficients of a huge vector.
pub fn fourier_coefficient(x: &[f64], alpha: usize) -> f64 {
    let n = x.len();
    assert!(n.is_power_of_two());
    let scale = 1.0 / (n as f64).sqrt();
    let mut acc = 0.0;
    for (beta, &v) in x.iter().enumerate() {
        let sign = if ((alpha & beta).count_ones() & 1) == 1 {
            -1.0
        } else {
            1.0
        };
        acc += sign * v;
    }
    acc * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-lane scalar butterfly, kept verbatim as the reference the
    /// lane kernel must match bit-for-bit.
    fn fwht_scalar_reference(data: &mut [f64]) {
        let n = data.len();
        let mut h = 1;
        while h < n {
            for chunk in data.chunks_exact_mut(h * 2) {
                let (a, b) = chunk.split_at_mut(h);
                for (x, y) in a.iter_mut().zip(b.iter_mut()) {
                    let u = *x;
                    let v = *y;
                    *x = u + v;
                    *y = u - v;
                }
            }
            h *= 2;
        }
    }

    #[test]
    fn wht_of_unit_vector_is_row_of_hadamard() {
        // H e_j = column j of H = (±1) pattern (−1)^{⟨i,j⟩}.
        let n = 8;
        for j in 0..n {
            let mut x = vec![0.0; n];
            x[j] = 1.0;
            fwht(&mut x);
            for (i, &v) in x.iter().enumerate() {
                let expected = if ((i & j).count_ones() & 1) == 1 {
                    -1.0
                } else {
                    1.0
                };
                assert_eq!(v, expected, "entry ({i},{j})");
            }
        }
    }

    #[test]
    fn normalized_wht_is_involution() {
        let x0 = vec![1.0, 2.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0];
        let mut x = x0.clone();
        fwht_normalized(&mut x);
        fwht_normalized(&mut x);
        for (a, b) in x.iter().zip(&x0) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let x0: Vec<f64> = (0..16).map(|i| (i as f64).sin()).collect();
        let energy: f64 = x0.iter().map(|v| v * v).sum();
        let mut x = x0;
        fwht_normalized(&mut x);
        let energy_hat: f64 = x.iter().map(|v| v * v).sum();
        assert!((energy - energy_hat).abs() < 1e-10);
    }

    #[test]
    fn coefficient_oracle_matches_full_transform() {
        let x: Vec<f64> = (0..32).map(|i| (i % 7) as f64).collect();
        let mut full = x.clone();
        fwht_normalized(&mut full);
        for (alpha, &f) in full.iter().enumerate() {
            assert!(
                (fourier_coefficient(&x, alpha) - f).abs() < 1e-10,
                "alpha={alpha}"
            );
        }
    }

    #[test]
    fn zeroth_coefficient_is_scaled_total() {
        // ⟨f^0, x⟩ = 2^{-d/2} Σ x_β: the paper uses this to relate the total
        // count to the DC Fourier coefficient.
        let x = vec![1.0, 2.0, 0.0, 1.0];
        assert!((fourier_coefficient(&x, 0) - 4.0 / 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let mut x = vec![1.0; 3];
        fwht(&mut x);
    }

    #[test]
    fn lane_butterfly_is_bitwise_identical_to_scalar_reference() {
        // Every size from 2^1 through 2^14 — covering the pure-scalar tails
        // (h = 1, 2), mixed lane/tail stages, and lengths straddling
        // SERIAL_BLOCK so the single-thread cache-blocked path is exercised
        // through the public entry point too.
        for d in 1..=14 {
            let n = 1usize << d;
            let x0: Vec<f64> = (0..n).map(|i| ((i * 37) % 113) as f64 - 56.0).collect();
            let mut reference = x0.clone();
            fwht_scalar_reference(&mut reference);
            let mut lane = x0.clone();
            fwht_serial(&mut lane);
            assert_eq!(lane, reference, "fwht_serial diverged at d={d}");
            let mut public = x0;
            fwht(&mut public);
            assert_eq!(public, reference, "fwht diverged at d={d}");
        }
    }

    #[test]
    fn blocked_transform_is_bitwise_identical_to_serial() {
        // 2^17 exceeds the parallel threshold; the blocked recursion must
        // reproduce the serial butterfly — and the scalar reference — exactly
        // (same ops, same order, lane width and blocking notwithstanding).
        let n = 1usize << 17;
        let x0: Vec<f64> = (0..n).map(|i| ((i * 31) % 101) as f64 - 50.0).collect();
        let mut parallel = x0.clone();
        fwht(&mut parallel);
        let mut serial = x0.clone();
        fwht_serial(&mut serial);
        assert_eq!(parallel, serial);
        let mut reference = x0;
        fwht_scalar_reference(&mut reference);
        assert_eq!(parallel, reference);
    }
}
