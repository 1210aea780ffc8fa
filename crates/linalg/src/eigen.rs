//! Symmetric eigensolver.
//!
//! The PFR optimization problem (Eq. 7 of the paper) reduces to finding the
//! `d` smallest eigenvectors of the symmetric matrix
//! `X ((1-γ) Lˣ + γ Lᶠ) Xᵀ`. The original implementation used
//! `scipy.linalg.lapack`; here there is one self-contained dense solver,
//! [`Eigen::decompose`]: Householder reduction to tridiagonal form followed
//! by the implicit-shift QL iteration (the classic `tred2`/`tql2` pair),
//! `O(n³)` once. It returns the full decomposition: eigenvalues ascending,
//! eigenvectors as the columns of an orthonormal matrix.
//!
//! The cyclic Jacobi method the workspace started with survives as
//! [`Eigen::decompose_jacobi_reference`], a doc-hidden oracle for the tests
//! (the role `Matrix::matmul_naive` plays for GEMM): `O(n³)` per sweep,
//! about ten times slower at `n = 96`, sharing only the input checks.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::Result;

/// Result of a symmetric eigen-decomposition: `A = V diag(λ) Vᵀ`.
#[derive(Debug, Clone)]
pub struct Eigen {
    /// Eigenvalues sorted in ascending order.
    pub eigenvalues: Vec<f64>,
    /// Orthonormal eigenvectors stored as the columns of this matrix, in the
    /// same order as [`Eigen::eigenvalues`].
    pub eigenvectors: Matrix,
}

impl Eigen {
    /// Decomposes a symmetric matrix.
    ///
    /// Non-finite entries are rejected. The matrix is symmetrized
    /// (`(A + Aᵀ)/2`) before decomposition to guard against tiny
    /// floating-point asymmetries; an error is returned if the asymmetry is
    /// large (`> 1e-8 * max|a_ij|`).
    pub fn decompose(a: &Matrix) -> Result<Eigen> {
        Ok(tridiagonal_ql(&checked_symmetric(a)?)?.sorted_ascending())
    }

    /// The same decomposition by cyclic Jacobi rotations. Kept only as the
    /// oracle the tests compare [`Eigen::decompose`] against.
    #[doc(hidden)]
    pub fn decompose_jacobi_reference(a: &Matrix) -> Result<Eigen> {
        Ok(jacobi(&checked_symmetric(a)?)?.sorted_ascending())
    }

    /// Returns the `d` eigenvectors associated with the smallest eigenvalues,
    /// as the columns of an `n x d` matrix.
    ///
    /// This is exactly the projection matrix `V` used by linear PFR.
    pub fn smallest_eigenvectors(&self, d: usize) -> Result<Matrix> {
        self.check_count(d)?;
        self.eigenvectors.select_cols(&(0..d).collect::<Vec<_>>())
    }

    /// Returns the `d` eigenvectors associated with the largest eigenvalues,
    /// as the columns of an `n x d` matrix.
    pub fn largest_eigenvectors(&self, d: usize) -> Result<Matrix> {
        let n = self.check_count(d)?;
        self.eigenvectors
            .select_cols(&((n - d)..n).rev().collect::<Vec<_>>())
    }

    /// The decomposition's size `n`, if `d` vectors can be taken from it.
    fn check_count(&self, d: usize) -> Result<usize> {
        let n = self.eigenvectors.rows();
        if d == 0 || d > n {
            return Err(LinalgError::InvalidArgument(format!(
                "requested {d} eigenvectors from a decomposition of size {n}"
            )));
        }
        Ok(n)
    }

    /// Reconstructs `V diag(λ) Vᵀ`, useful for testing.
    pub fn reconstruct(&self) -> Result<Matrix> {
        let v = &self.eigenvectors;
        let lambda = Matrix::from_diag(&self.eigenvalues);
        v.matmul(&lambda)?.matmul_transpose(v)
    }

    fn sorted_ascending(self) -> Eigen {
        let mut order: Vec<usize> = (0..self.eigenvalues.len()).collect();
        order.sort_by(|&i, &j| self.eigenvalues[i].total_cmp(&self.eigenvalues[j]));
        Eigen {
            eigenvalues: order.iter().map(|&i| self.eigenvalues[i]).collect(),
            eigenvectors: self
                .eigenvectors
                .select_cols(&order)
                .expect("column permutation of eigenvector matrix cannot fail"),
        }
    }
}

/// The input checks of both solvers: square, non-empty, finite, symmetric
/// to `1e-8 * max|a_ij|`. Returns the exactly symmetric `(A + Aᵀ)/2`.
fn checked_symmetric(a: &Matrix) -> Result<Matrix> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    let n = a.rows();
    if n == 0 {
        return Err(LinalgError::InvalidArgument(
            "cannot decompose an empty matrix".to_string(),
        ));
    }
    // NaN compares false with everything, so the asymmetry test below would
    // wave it through and the iteration would spin to `NoConvergence`.
    if let Some(at) = a.as_slice().iter().position(|v| !v.is_finite()) {
        return Err(LinalgError::InvalidArgument(format!(
            "matrix entry at row {}, column {} is not finite: {}",
            at / n,
            at % n,
            a.as_slice()[at]
        )));
    }
    let tol = 1e-8 * a.max_abs().max(1.0);
    let mut max_asym = 0.0_f64;
    for i in 0..n {
        for j in (i + 1)..n {
            max_asym = max_asym.max((a[(i, j)] - a[(j, i)]).abs());
        }
    }
    if max_asym > tol {
        return Err(LinalgError::NotSymmetric {
            max_asymmetry: max_asym,
        });
    }
    a.symmetrize()
}

/// Cyclic Jacobi eigenvalue algorithm for symmetric matrices.
fn jacobi(a: &Matrix) -> Result<Eigen> {
    let n = a.rows();
    let mut a = a.clone();
    let mut v = Matrix::identity(n);
    const MAX_SWEEPS: usize = 100;

    for _sweep in 0..MAX_SWEEPS {
        // Off-diagonal Frobenius norm.
        let mut off = 0.0;
        for p in 0..n {
            for q in (p + 1)..n {
                off += a[(p, q)] * a[(p, q)];
            }
        }
        if off.sqrt() <= 1e-14 * a.max_abs().max(1.0) * n as f64 {
            let eigenvalues = a.diag();
            return Ok(Eigen {
                eigenvalues,
                eigenvectors: v,
            });
        }

        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a[(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = a[(p, p)];
                let aqq = a[(q, q)];
                // Compute the Jacobi rotation that annihilates a_pq.
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                let tau = s / (1.0 + c);

                // Update A = Jᵀ A J, touching only rows/cols p and q.
                a[(p, p)] = app - t * apq;
                a[(q, q)] = aqq + t * apq;
                a[(p, q)] = 0.0;
                a[(q, p)] = 0.0;
                for i in 0..n {
                    if i != p && i != q {
                        let aip = a[(i, p)];
                        let aiq = a[(i, q)];
                        a[(i, p)] = aip - s * (aiq + tau * aip);
                        a[(p, i)] = a[(i, p)];
                        a[(i, q)] = aiq + s * (aip - tau * aiq);
                        a[(q, i)] = a[(i, q)];
                    }
                }
                // Accumulate the rotation into V.
                for i in 0..n {
                    let vip = v[(i, p)];
                    let viq = v[(i, q)];
                    v[(i, p)] = vip - s * (viq + tau * vip);
                    v[(i, q)] = viq + s * (vip - tau * viq);
                }
            }
        }
    }

    Err(LinalgError::NoConvergence {
        op: "jacobi eigen-decomposition",
        iterations: MAX_SWEEPS,
    })
}

/// Householder reduction of a symmetric matrix to tridiagonal form followed by
/// the implicit-shift QL iteration (classic `tred2` + `tql2`).
fn tridiagonal_ql(a: &Matrix) -> Result<Eigen> {
    let n = a.rows();
    // z starts as a copy of A and ends up holding the eigenvectors.
    let mut z = a.clone();
    let mut d = vec![0.0_f64; n]; // diagonal
    let mut e = vec![0.0_f64; n]; // off-diagonal

    // --- Householder reduction (tred2) ---
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            let scale: f64 = (0..=l).map(|k| z[(i, k)].abs()).sum();
            if scale == 0.0 {
                e[i] = z[(i, l)];
            } else {
                for k in 0..=l {
                    z[(i, k)] /= scale;
                    h += z[(i, k)] * z[(i, k)];
                }
                let mut f = z[(i, l)];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                z[(i, l)] = f - g;
                f = 0.0;
                for j in 0..=l {
                    z[(j, i)] = z[(i, j)] / h;
                    let mut g = 0.0;
                    for k in 0..=j {
                        g += z[(j, k)] * z[(i, k)];
                    }
                    for k in (j + 1)..=l {
                        g += z[(k, j)] * z[(i, k)];
                    }
                    e[j] = g / h;
                    f += e[j] * z[(i, j)];
                }
                let hh = f / (h + h);
                for j in 0..=l {
                    let f = z[(i, j)];
                    e[j] -= hh * f;
                    let g = e[j];
                    for k in 0..=j {
                        z[(j, k)] -= f * e[k] + g * z[(i, k)];
                    }
                }
            }
        } else {
            e[i] = z[(i, l)];
        }
        d[i] = h;
    }

    d[0] = 0.0;
    e[0] = 0.0;
    for i in 0..n {
        if d[i] != 0.0 {
            for j in 0..i {
                let mut g = 0.0;
                for k in 0..i {
                    g += z[(i, k)] * z[(k, j)];
                }
                for k in 0..i {
                    z[(k, j)] -= g * z[(k, i)];
                }
            }
        }
        d[i] = z[(i, i)];
        z[(i, i)] = 1.0;
        for j in 0..i {
            z[(j, i)] = 0.0;
            z[(i, j)] = 0.0;
        }
    }

    // --- Implicit QL with shifts (tql2) ---
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    const MAX_ITER: usize = 50;
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small off-diagonal element to split the problem.
            let mut m = l;
            while m < n - 1 {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_ITER {
                return Err(LinalgError::NoConvergence {
                    op: "tridiagonal QL eigen-decomposition",
                    iterations: MAX_ITER,
                });
            }
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            let sign_r = if g >= 0.0 { r.abs() } else { -r.abs() };
            g = d[m] - d[l] + e[l] / (g + sign_r);
            let mut s = 1.0;
            let mut c = 1.0;
            let mut p = 0.0;
            let mut broke_early = false;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Deflation: the problem splits, restart the outer search.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    broke_early = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate eigenvectors.
                for k in 0..n {
                    f = z[(k, i + 1)];
                    z[(k, i + 1)] = s * z[(k, i)] + c * f;
                    z[(k, i)] = c * z[(k, i)] - s * f;
                }
            }
            if broke_early {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }

    Ok(Eigen {
        eigenvalues: d,
        eigenvectors: z,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    type Solver = fn(&Matrix) -> Result<Eigen>;
    const QL: Solver = Eigen::decompose;
    const JACOBI: Solver = Eigen::decompose_jacobi_reference;

    fn check_decomposition(a: &Matrix, solver: Solver, tol: f64) {
        let eig = solver(a).unwrap();
        // Reconstruction.
        let rec = eig.reconstruct().unwrap();
        let diff = rec.sub(a).unwrap().max_abs();
        assert!(diff < tol, "reconstruction error {diff} exceeds {tol}");
        // Orthonormality.
        let vtv = eig
            .eigenvectors
            .transpose_matmul(&eig.eigenvectors)
            .unwrap();
        let ortho_err = vtv.sub(&Matrix::identity(a.rows())).unwrap().max_abs();
        assert!(
            ortho_err < tol,
            "orthonormality error {ortho_err} exceeds {tol}"
        );
        // Sorted ascending.
        for w in eig.eigenvalues.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    fn example_matrix() -> Matrix {
        Matrix::from_rows(&[
            vec![4.0, 1.0, -2.0, 2.0],
            vec![1.0, 2.0, 0.0, 1.0],
            vec![-2.0, 0.0, 3.0, -2.0],
            vec![2.0, 1.0, -2.0, -1.0],
        ])
        .unwrap()
    }

    #[test]
    fn known_eigenvalues_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        for solver in [QL, JACOBI] {
            let eig = solver(&a).unwrap();
            assert!((eig.eigenvalues[0] - 1.0).abs() < 1e-10);
            assert!((eig.eigenvalues[1] - 3.0).abs() < 1e-10);
            check_decomposition(&a, solver, 1e-12);
        }
    }

    #[test]
    fn one_by_one_is_its_own_eigenvalue() {
        let a = Matrix::from_rows(&[vec![-3.5]]).unwrap();
        for solver in [QL, JACOBI] {
            let eig = solver(&a).unwrap();
            assert_eq!(eig.eigenvalues, vec![-3.5]);
            assert_eq!(eig.eigenvectors.as_slice(), &[1.0]);
        }
    }

    #[test]
    fn two_by_two_edge_cases() {
        // Already diagonal (descending), a zero matrix, and a repeated
        // eigenvalue: the QL loop must neither rotate nor iterate.
        for rows in [
            [[5.0, 0.0], [0.0, -1.0]],
            [[0.0, 0.0], [0.0, 0.0]],
            [[2.0, 0.0], [0.0, 2.0]],
            [[1.0, 1e-200], [1e-200, 1.0]],
        ] {
            let a = Matrix::from_rows(&[rows[0].to_vec(), rows[1].to_vec()]).unwrap();
            check_decomposition(&a, QL, 1e-12);
            let want = JACOBI(&a).unwrap().eigenvalues;
            assert_eq!(QL(&a).unwrap().eigenvalues, want, "{rows:?}");
        }
    }

    #[test]
    fn non_finite_entries_are_rejected_by_position() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            // Symmetric placement: only the finiteness test can object.
            let mut a = Matrix::identity(4);
            a[(1, 2)] = bad;
            a[(2, 1)] = bad;
            for solver in [QL, JACOBI] {
                match solver(&a) {
                    Err(LinalgError::InvalidArgument(msg)) => {
                        assert!(msg.contains("row 1, column 2"), "{msg}")
                    }
                    other => panic!("{bad} was not rejected: {other:?}"),
                }
            }
        }
        let mut diagonal = Matrix::identity(3);
        diagonal[(2, 2)] = f64::NAN;
        assert!(Eigen::decompose(&diagonal).is_err());
    }

    #[test]
    fn diagonal_matrix_is_trivial() {
        let a = Matrix::from_diag(&[5.0, -2.0, 0.5]);
        let eig = Eigen::decompose(&a).unwrap();
        assert!((eig.eigenvalues[0] + 2.0).abs() < 1e-12);
        assert!((eig.eigenvalues[1] - 0.5).abs() < 1e-12);
        assert!((eig.eigenvalues[2] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn jacobi_reconstructs_4x4() {
        check_decomposition(&example_matrix(), JACOBI, 1e-9);
    }

    #[test]
    fn tridiagonal_ql_reconstructs_4x4() {
        check_decomposition(&example_matrix(), QL, 1e-9);
    }

    #[test]
    fn both_methods_agree_on_eigenvalues() {
        let a = example_matrix();
        let j = JACOBI(&a).unwrap();
        let q = QL(&a).unwrap();
        for (x, y) in j.eigenvalues.iter().zip(q.eigenvalues.iter()) {
            assert!((x - y).abs() < 1e-8, "{x} vs {y}");
        }
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Eigen::decompose(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn rejects_asymmetric() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![5.0, 1.0]]).unwrap();
        assert!(matches!(
            Eigen::decompose(&a),
            Err(LinalgError::NotSymmetric { .. })
        ));
    }

    #[test]
    fn smallest_and_largest_eigenvectors() {
        let a = Matrix::from_diag(&[3.0, 1.0, 2.0]);
        let eig = Eigen::decompose(&a).unwrap();
        let small = eig.smallest_eigenvectors(1).unwrap();
        // Eigenvalue 1.0 corresponds to basis vector e_1 (index 1).
        assert!(small[(1, 0)].abs() > 0.99);
        let large = eig.largest_eigenvectors(1).unwrap();
        assert!(large[(0, 0)].abs() > 0.99);
        assert!(eig.smallest_eigenvectors(0).is_err());
        assert!(eig.smallest_eigenvectors(4).is_err());
    }

    #[test]
    fn psd_matrix_has_nonnegative_eigenvalues() {
        // Gram matrix B Bᵀ is PSD.
        let b = Matrix::from_rows(&[
            vec![1.0, 2.0, 0.5],
            vec![-1.0, 0.3, 2.0],
            vec![0.7, -0.2, 1.1],
        ])
        .unwrap();
        let a = b.matmul_transpose(&b).unwrap();
        let eig = Eigen::decompose(&a).unwrap();
        for &l in &eig.eigenvalues {
            assert!(l > -1e-9, "eigenvalue {l} should be non-negative");
        }
    }

    #[test]
    fn moderately_large_random_matrix() {
        // Deterministic pseudo-random symmetric matrix, 30x30.
        let n = 30;
        let mut a = Matrix::zeros(n, n);
        let mut state = 42u64;
        let mut next = || {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        };
        for i in 0..n {
            for j in i..n {
                let v = next();
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        check_decomposition(&a, JACOBI, 1e-8);
        check_decomposition(&a, QL, 1e-8);
    }
}
