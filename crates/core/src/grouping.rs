//! The grouping property (Definition 3.1 of the paper) for explicit
//! strategy matrices.
//!
//! A strategy `S` is *groupable* if its rows partition into groups such
//! that (i) rows in the same group have disjoint supports ("row-wise
//! disjointness") and (ii) within a group, all non-zero magnitudes are a
//! single constant `C_r` ("bounded column norm"). Groupability is what
//! collapses the `N` privacy constraints of problem (1)–(3) into the single
//! constraint of problem (4)–(6) and enables the closed-form budgets.
//!
//! The marginal pipeline knows its groupings analytically; this module
//! implements the paper's greedy grouping for *arbitrary* matrices
//! ("Arbitrary strategies S" paragraph, Section 3.1) plus a verifier used
//! in tests.

use dp_linalg::Matrix;

/// A grouping of a strategy matrix's rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Grouping {
    /// Group id of each row.
    assignment: Vec<usize>,
    /// The common non-zero magnitude `C_r` of each group.
    magnitudes: Vec<f64>,
}

impl Grouping {
    /// Builds a grouping from an analytically-known structure (e.g. the
    /// tree/Haar levels, whose grouping is closed-form — Section 3.1).
    /// Callers are responsible for Definition 3.1 holding; tests verify the
    /// analytic groupings against [`verify_grouping`] on the dense oracle.
    ///
    /// # Panics
    /// Panics if a group id is out of range for `magnitudes`.
    pub fn from_parts(assignment: Vec<usize>, magnitudes: Vec<f64>) -> Grouping {
        assert!(
            assignment.iter().all(|&g| g < magnitudes.len()),
            "group id out of range"
        );
        Grouping {
            assignment,
            magnitudes,
        }
    }

    /// Group id per row.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// `C_r` per group.
    pub fn magnitudes(&self) -> &[f64] {
        &self.magnitudes
    }

    /// Number of groups `g` (the paper's grouping number is the minimum
    /// attainable; the greedy may exceed it).
    pub fn num_groups(&self) -> usize {
        self.magnitudes.len()
    }
}

/// A row's non-zero magnitude if it is constant across the row, else
/// `None` (such a row can never satisfy bounded column norm, even as a
/// singleton group).
fn row_magnitude(row: &[f64]) -> Option<f64> {
    let mut mag: Option<f64> = None;
    for &v in row {
        if v == 0.0 {
            continue;
        }
        match mag {
            None => mag = Some(v.abs()),
            Some(m) => {
                if (v.abs() - m).abs() > 1e-12 * m.max(1.0) {
                    return None;
                }
            }
        }
    }
    mag
}

/// Greedily groups the rows of `s`: each row joins the first existing
/// group with the same magnitude and disjoint support, else starts a new
/// group. Returns `None` if any row has non-constant non-zero magnitudes
/// (the matrix is not groupable at all) or an all-zero row.
pub fn detect_grouping(s: &Matrix) -> Option<Grouping> {
    let m = s.rows();
    let n = s.cols();
    let mut assignment = vec![usize::MAX; m];
    let mut magnitudes: Vec<f64> = Vec::new();
    // Occupied columns per group.
    let mut occupied: Vec<Vec<bool>> = Vec::new();

    for (i, slot) in assignment.iter_mut().enumerate() {
        let row = s.row(i);
        let mag = row_magnitude(row)?;
        let mut placed = false;
        for g in 0..magnitudes.len() {
            if (magnitudes[g] - mag).abs() > 1e-12 * mag.max(1.0) {
                continue;
            }
            let occ = &occupied[g];
            if row.iter().enumerate().all(|(j, &v)| v == 0.0 || !occ[j]) {
                for (j, &v) in row.iter().enumerate() {
                    if v != 0.0 {
                        occupied[g][j] = true;
                    }
                }
                *slot = g;
                placed = true;
                break;
            }
        }
        if !placed {
            let mut occ = vec![false; n];
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    occ[j] = true;
                }
            }
            occupied.push(occ);
            magnitudes.push(mag);
            *slot = magnitudes.len() - 1;
        }
    }
    Some(Grouping {
        assignment,
        magnitudes,
    })
}

/// Verifies both halves of Definition 3.1 for a claimed grouping.
pub fn verify_grouping(s: &Matrix, grouping: &Grouping) -> bool {
    if grouping.assignment.len() != s.rows() {
        return false;
    }
    let g = grouping.num_groups();
    // Bounded column norm within groups.
    for (i, &gid) in grouping.assignment.iter().enumerate() {
        if gid >= g {
            return false;
        }
        match row_magnitude(s.row(i)) {
            Some(m) => {
                if (m - grouping.magnitudes[gid]).abs() > 1e-12 * m.max(1.0) {
                    return false;
                }
            }
            None => return false,
        }
    }
    // Row-wise disjointness within groups.
    for j in 0..s.cols() {
        let mut seen = vec![false; g];
        for i in 0..s.rows() {
            if s[(i, j)] != 0.0 {
                let gid = grouping.assignment[i];
                if seen[gid] {
                    return false;
                }
                seen[gid] = true;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_s_has_grouping_number_one() {
        // The paper's example: S of Figure 1(c) has g = 1.
        let s = Matrix::from_rows(&[
            &[1., 1., 0., 0., 0., 0., 0., 0.],
            &[0., 0., 1., 1., 0., 0., 0., 0.],
            &[0., 0., 0., 0., 1., 1., 0., 0.],
            &[0., 0., 0., 0., 0., 0., 1., 1.],
        ])
        .unwrap();
        let g = detect_grouping(&s).unwrap();
        assert_eq!(g.num_groups(), 1);
        assert_eq!(g.magnitudes(), &[1.0]);
        assert!(verify_grouping(&s, &g));
    }

    #[test]
    fn figure1_q_has_grouping_number_two() {
        // The paper's example: Q of Figure 1(b) used as a strategy has g=2,
        // and the first and third rows cannot share a group.
        let q = Matrix::from_rows(&[
            &[1., 1., 1., 1., 0., 0., 0., 0.],
            &[0., 0., 0., 0., 1., 1., 1., 1.],
            &[1., 1., 0., 0., 0., 0., 0., 0.],
            &[0., 0., 1., 1., 0., 0., 0., 0.],
            &[0., 0., 0., 0., 1., 1., 0., 0.],
            &[0., 0., 0., 0., 0., 0., 1., 1.],
        ])
        .unwrap();
        let g = detect_grouping(&q).unwrap();
        assert_eq!(g.num_groups(), 2);
        assert_ne!(g.assignment()[0], g.assignment()[2]);
        assert!(verify_grouping(&q, &g));
    }

    #[test]
    fn identity_is_one_group() {
        let s = Matrix::identity(6);
        let g = detect_grouping(&s).unwrap();
        assert_eq!(g.num_groups(), 1);
        assert!(verify_grouping(&s, &g));
    }

    #[test]
    fn dense_hadamard_needs_singleton_groups() {
        // A 4×4 Hadamard: every pair of rows overlaps everywhere, so g = m.
        let h = 0.5;
        let s = Matrix::from_rows(&[
            &[h, h, h, h],
            &[h, -h, h, -h],
            &[h, h, -h, -h],
            &[h, -h, -h, h],
        ])
        .unwrap();
        let g = detect_grouping(&s).unwrap();
        assert_eq!(g.num_groups(), 4);
        assert!(verify_grouping(&s, &g));
    }

    #[test]
    fn mixed_magnitude_row_is_not_groupable() {
        let s = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        assert!(detect_grouping(&s).is_none());
    }

    #[test]
    fn verify_rejects_bad_groupings() {
        let s = Matrix::identity(2);
        // Claim both rows are the same group but with the wrong magnitude.
        let bad = Grouping {
            assignment: vec![0, 0],
            magnitudes: vec![2.0],
        };
        assert!(!verify_grouping(&s, &bad));
        // Overlapping rows forced into one group.
        let s2 = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0]]).unwrap();
        let bad2 = Grouping {
            assignment: vec![0, 0],
            magnitudes: vec![1.0],
        };
        assert!(!verify_grouping(&s2, &bad2));
        // Wrong assignment length.
        let bad3 = Grouping {
            assignment: vec![0],
            magnitudes: vec![1.0],
        };
        assert!(!verify_grouping(&s, &bad3));
    }

    #[test]
    fn haar_matrix_groups_by_level() {
        // Build the 8×8 orthonormal Haar matrix by transforming unit
        // vectors; the detected grouping must match the wavelet levels:
        // g = log2(8) + 1 = 4.
        let n = 8;
        let mut rows = vec![vec![0.0; n]; n];
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            dp_linalg::haar_forward(&mut e, &mut Vec::new());
            for (i, &v) in e.iter().enumerate() {
                rows[i][j] = v;
            }
        }
        let s = Matrix::from_rows(&rows.iter().map(|r| r.as_slice()).collect::<Vec<_>>()).unwrap();
        let g = detect_grouping(&s).unwrap();
        assert_eq!(g.num_groups(), 4);
        assert!(verify_grouping(&s, &g));
    }
}
