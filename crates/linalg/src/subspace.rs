//! Warm-started shift-invert subspace iteration for the smallest eigenpairs
//! of a symmetric matrix.
//!
//! **No fit path uses this any more.** It was the online-refit route while
//! the dense solver was cyclic Jacobi; against Householder + QL
//! ([`Eigen::decompose`]) it is the slower one at every size the workspace
//! fits (18.9 ms against 3.9 ms on a drifted 256 × 96 window), so
//! `RefitEngine` calls `Pfr::fit`. The module stays, with its tests,
//! because the repository benchmark times it
//! (`linalg.subspace_warm_128_ms`, `refit.cold_over_warm_x`) and a change
//! that claims a gain may not edit the benchmark; it goes when those
//! probes do.
//!
//! The method: the refit window's matrix `M` is a small perturbation of
//! the one the serving model was fitted on, and when a good starting
//! subspace is available (the serving model's projection `V`), shift-invert
//! subspace iteration reaches the `d` smallest eigenpairs with one Cholesky
//! factorization plus a handful of `O(m²d)` triangular solves:
//!
//! 1. Shift: factor `C = M − σI` with `σ < λ_min(M)`, so the smallest
//!    eigenvalues of `M` become the *largest* of `C⁻¹` and block power
//!    iteration on `C⁻¹` converges toward them. The shift is chosen from a
//!    ladder of candidates just below the smallest Rayleigh–Ritz value of
//!    the seed — a failed (non-positive-definite) Cholesky simply means the
//!    candidate overshot `λ_min` and the next, more conservative one is
//!    tried; the Gershgorin lower bound terminates the ladder and always
//!    factors. The closer `σ` sits to `λ_min`, the faster the contraction.
//! 2. Iterate: `V ← orth(C⁻¹C⁻¹·V)` — two triangular solves per column per
//!    sweep, with modified Gram-Schmidt re-orthonormalization.
//! 3. Rayleigh–Ritz: diagonalize the small projection `VᵀMV` (trivial at
//!    this size) to extract eigenvalue estimates and rotate `V`
//!    onto the Ritz vectors.
//! 4. Stop when every *returned* column's residual `‖Mv_k − λ_k v_k‖_∞`
//!    falls below a relative tolerance; fail with
//!    [`LinalgError::NoConvergence`] otherwise so callers can fall back to a
//!    dense solve.
//!
//! The block carries one extra *guard* column beyond the requested `d`: a
//! deterministic pseudo-random direction with components along every
//! eigendirection. Without it, a seed spanning an exactly invariant — but
//! wrong — subspace (e.g. coordinate axes of a diagonal matrix) would
//! converge silently inside its own span and miss smaller eigenvalues; the
//! guard pulls any missed direction into the block, where shift-invert
//! amplification sorts it into the returned bottom `d`.

use crate::cholesky::CholeskyDecomposition;
use crate::eigen::Eigen;
use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::Result;

/// Tuning knobs for [`smallest_eigenpairs_warm`].
#[derive(Debug, Clone)]
pub struct SubspaceOptions {
    /// Maximum block iterations (each applies `C⁻¹` twice) before giving up.
    pub max_iterations: usize,
    /// Relative residual tolerance: converged when
    /// `max_k ‖Mv_k − λ_k v_k‖_∞ ≤ tolerance · max(max|m_ij|, 1)`.
    pub tolerance: f64,
}

impl Default for SubspaceOptions {
    fn default() -> Self {
        SubspaceOptions {
            max_iterations: 200,
            tolerance: 1e-9,
        }
    }
}

/// Result of a converged subspace iteration.
#[derive(Debug, Clone)]
pub struct SubspaceEigen {
    /// The `d` smallest eigenvalues, ascending.
    pub eigenvalues: Vec<f64>,
    /// The matching eigenvectors as the columns of an `n×d` matrix with
    /// orthonormal columns.
    pub eigenvectors: Matrix,
    /// Block iterations performed before convergence.
    pub iterations: usize,
}

/// Computes the `seed.cols()` smallest eigenpairs of the symmetric matrix
/// `a`, warm-started from the subspace spanned by `seed`'s columns.
///
/// `seed` does not need orthonormal columns (it is orthonormalized first)
/// but the closer its span is to the true invariant subspace, the fewer
/// iterations are needed. Degenerate or rank-deficient seed columns are
/// replaced with deterministic fallback directions, so a bad seed degrades
/// to (slow) convergence rather than failure — until `max_iterations`, at
/// which point [`LinalgError::NoConvergence`] tells the caller to use a
/// dense decomposition instead.
pub fn smallest_eigenpairs_warm(
    a: &Matrix,
    seed: &Matrix,
    options: &SubspaceOptions,
) -> Result<SubspaceEigen> {
    let n = a.rows();
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    let d = seed.cols();
    if n == 0 || d == 0 || d > n || seed.rows() != n {
        return Err(LinalgError::InvalidArgument(format!(
            "seed of shape {:?} does not fit a {n}×{n} eigenproblem",
            seed.shape()
        )));
    }
    if a.as_slice().iter().any(|v| !v.is_finite()) || seed.as_slice().iter().any(|v| !v.is_finite())
    {
        return Err(LinalgError::InvalidArgument(
            "matrix contains non-finite entries".to_string(),
        ));
    }

    let scale = a.max_abs().max(1.0);

    // Block = orthonormalized seed plus one guard column (when room allows):
    // a dense pseudo-random direction that overlaps every eigendirection, so
    // an exactly invariant wrong seed subspace cannot trap the iteration.
    let p = if d < n { d + 1 } else { d };
    let mut v = Matrix::zeros(n, p);
    for c in 0..d {
        v.set_col(c, &seed.col(c))?;
    }
    if p > d {
        let mut state = 0x9e3779b97f4a7c15_u64;
        let guard: Vec<f64> = (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state as f64 / u64::MAX as f64) - 0.5
            })
            .collect();
        v.set_col(d, &guard)?;
    }
    orthonormalize_columns(&mut v);

    // Initial Rayleigh–Ritz: the smallest Ritz value upper-bounds λ_min and,
    // for a warm seed, sits right next to it — the ideal shift anchor.
    let av0 = a.matmul(&v)?;
    let t0 = v.transpose_matmul(&av0)?.symmetrize()?;
    let ritz0 = Eigen::decompose(&t0)?;
    let r0 = ritz0.eigenvalues[0];
    let span = (ritz0.eigenvalues[p - 1] - r0).max(scale * 1e-3);

    // Gershgorin lower bound on λ_min: always a valid (if loose) shift.
    let mut lo = f64::INFINITY;
    for i in 0..n {
        let row = a.row(i);
        let radius: f64 = row
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, v)| v.abs())
            .sum();
        lo = lo.min(row[i] - radius);
    }

    // Shift ladder, aggressive → safe. A candidate above λ_min makes
    // `a − σI` indefinite and Cholesky reports Singular; the next rung is
    // tried. The Gershgorin rung keeps every eigenvalue ≥ scale·1e-6 > 0.
    let candidates = [
        r0 - 0.01 * span,
        r0 - 0.1 * span,
        r0 - span,
        lo - scale * 1e-6,
    ];
    let mut factor = None;
    for &sigma in &candidates {
        let mut c = a.clone();
        for i in 0..n {
            c[(i, i)] -= sigma;
        }
        if let Ok(f) = CholeskyDecomposition::new(&c) {
            factor = Some(f);
            break;
        }
    }
    let factor = factor.ok_or(LinalgError::Singular {
        op: "subspace shift",
    })?;

    let keep: Vec<usize> = (0..d).collect();
    for iteration in 1..=options.max_iterations {
        // Two inverse applications per sweep: squares the contraction for
        // the price of two O(n²) triangular solves per column.
        let mut w = Matrix::zeros(n, p);
        for c in 0..p {
            let once = factor.solve(&v.col(c))?;
            let twice = factor.solve(&once)?;
            w.set_col(c, &twice)?;
        }
        orthonormalize_columns(&mut w);

        // Rayleigh–Ritz on the original matrix: T = WᵀMW, rotate W onto the
        // Ritz vectors so columns line up with individual eigenpairs.
        let aw = a.matmul(&w)?;
        let t = w.transpose_matmul(&aw)?.symmetrize()?;
        let small = Eigen::decompose(&t)?;
        v = w.matmul(&small.eigenvectors)?;
        let av = aw.matmul(&small.eigenvectors)?;

        // Only the d returned pairs need to be converged; the guard column
        // keeps sweeping the remainder of the spectrum.
        let mut residual = 0.0_f64;
        for k in 0..d {
            let lambda = small.eigenvalues[k];
            for i in 0..n {
                let r = (av[(i, k)] - lambda * v[(i, k)]).abs();
                if r > residual {
                    residual = r;
                }
            }
        }
        if residual <= options.tolerance * scale {
            return Ok(SubspaceEigen {
                eigenvalues: small.eigenvalues[..d].to_vec(),
                eigenvectors: v.select_cols(&keep)?,
                iterations: iteration,
            });
        }
    }

    Err(LinalgError::NoConvergence {
        op: "subspace iteration",
        iterations: options.max_iterations,
    })
}

/// In-place modified Gram-Schmidt over the columns of `m`. A column that
/// collapses to (numerical) zero — a rank-deficient seed — is replaced by a
/// deterministic xorshift direction re-orthogonalized against the columns
/// before it, so the result always has full column rank.
fn orthonormalize_columns(m: &mut Matrix) {
    let (n, d) = m.shape();
    let mut cols: Vec<Vec<f64>> = (0..d).map(|c| m.col(c)).collect();
    let mut rng_state = 0x2545f4914f6cdd1d_u64;
    for k in 0..d {
        let mut colk = std::mem::take(&mut cols[k]);
        let mut attempts = 0;
        loop {
            for prev in cols.iter().take(k) {
                let dot: f64 = prev.iter().zip(&colk).map(|(p, c)| p * c).sum();
                for (c, p) in colk.iter_mut().zip(prev) {
                    *c -= dot * p;
                }
            }
            let norm: f64 = colk.iter().map(|c| c * c).sum::<f64>().sqrt();
            if norm > 1e-12 {
                for c in colk.iter_mut() {
                    *c /= norm;
                }
                break;
            }
            // Degenerate column: deterministic replacement direction.
            attempts += 1;
            if attempts == 1 {
                for (i, value) in colk.iter_mut().enumerate() {
                    *value = if i == k % n { 1.0 } else { 0.0 };
                }
            } else {
                for value in colk.iter_mut() {
                    rng_state ^= rng_state << 13;
                    rng_state ^= rng_state >> 7;
                    rng_state ^= rng_state << 17;
                    *value = (rng_state as f64 / u64::MAX as f64) - 0.5;
                }
            }
        }
        cols[k] = colk;
    }
    for (c, col) in cols.iter().enumerate() {
        m.set_col(c, col).expect("column shape unchanged");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_symmetric(n: usize, seed: u64) -> Matrix {
        let mut a = Matrix::zeros(n, n);
        let mut state = seed;
        let mut next = || {
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
        a
    }

    fn assert_matches_dense(a: &Matrix, result: &SubspaceEigen, tol: f64) {
        let dense = Eigen::decompose(a).unwrap();
        let d = result.eigenvalues.len();
        for k in 0..d {
            assert!(
                (result.eigenvalues[k] - dense.eigenvalues[k]).abs() < tol,
                "eigenvalue {k}: {} vs dense {}",
                result.eigenvalues[k],
                dense.eigenvalues[k]
            );
        }
        // Orthonormal columns.
        let vtv = result
            .eigenvectors
            .transpose_matmul(&result.eigenvectors)
            .unwrap();
        let err = vtv.sub(&Matrix::identity(d)).unwrap().max_abs();
        assert!(err < 1e-8, "VᵀV deviates from identity by {err}");
    }

    #[test]
    fn warm_seed_converges_to_the_dense_answer() {
        let a = random_symmetric(24, 7);
        let dense = Eigen::decompose(&a).unwrap();
        let seed = dense.smallest_eigenvectors(4).unwrap();
        // Perturb the matrix slightly — the refit scenario.
        let mut drifted = a.clone();
        let noise = random_symmetric(24, 99).scale(0.01);
        drifted.axpy(1.0, &noise).unwrap();
        let drifted = drifted.symmetrize().unwrap();
        let result =
            smallest_eigenpairs_warm(&drifted, &seed, &SubspaceOptions::default()).unwrap();
        assert_matches_dense(&drifted, &result, 1e-7);
        assert!(
            result.iterations < 100,
            "warm start should converge quickly, took {}",
            result.iterations
        );
    }

    #[test]
    fn cold_random_seed_still_converges_on_gapped_spectrum() {
        // Clear eigengap: diag(1, 2, ..., n) plus small symmetric noise.
        let n = 16;
        let mut a = random_symmetric(n, 3).scale(0.05);
        for i in 0..n {
            a[(i, i)] += (i + 1) as f64;
        }
        let a = a.symmetrize().unwrap();
        let seed = Matrix::filled(n, 3, 1.0); // rank-1: forces degeneracy repair
        let result = smallest_eigenpairs_warm(&a, &seed, &SubspaceOptions::default()).unwrap();
        assert_matches_dense(&a, &result, 1e-7);
    }

    #[test]
    fn diagonal_matrix_is_exact() {
        // Seed spans {e₀, e₁} — an exactly invariant subspace whose
        // eigenvalues (5, −2) are NOT the two smallest. The guard column
        // must pull e₂ (λ = 0.5) into the block.
        let a = Matrix::from_diag(&[5.0, -2.0, 0.5, 3.0]);
        let seed = Matrix::identity(4).select_cols(&[0, 1]).unwrap();
        let result = smallest_eigenpairs_warm(&a, &seed, &SubspaceOptions::default()).unwrap();
        assert!((result.eigenvalues[0] + 2.0).abs() < 1e-8);
        assert!((result.eigenvalues[1] - 0.5).abs() < 1e-8);
    }

    #[test]
    fn full_width_seed_is_exact_in_one_pass() {
        // d == n leaves no room for a guard column; Rayleigh–Ritz over the
        // whole space is already exact.
        let a = random_symmetric(6, 41);
        let seed = Matrix::identity(6);
        let result = smallest_eigenpairs_warm(&a, &seed, &SubspaceOptions::default()).unwrap();
        assert_matches_dense(&a, &result, 1e-7);
    }

    #[test]
    fn rejects_bad_shapes_and_reports_non_convergence() {
        let a = random_symmetric(6, 11);
        assert!(smallest_eigenpairs_warm(&a, &Matrix::zeros(5, 2), &Default::default()).is_err());
        assert!(smallest_eigenpairs_warm(&a, &Matrix::zeros(6, 0), &Default::default()).is_err());
        assert!(smallest_eigenpairs_warm(&a, &Matrix::zeros(6, 7), &Default::default()).is_err());
        assert!(smallest_eigenpairs_warm(
            &Matrix::zeros(2, 3),
            &Matrix::zeros(2, 1),
            &Default::default()
        )
        .is_err());
        let tight = SubspaceOptions {
            max_iterations: 1,
            tolerance: 1e-16,
        };
        match smallest_eigenpairs_warm(&a, &Matrix::zeros(6, 2), &tight) {
            Err(LinalgError::NoConvergence { .. }) => {}
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_matrix_is_rejected() {
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = f64::NAN;
        assert!(smallest_eigenpairs_warm(&a, &Matrix::zeros(3, 1), &Default::default()).is_err());
    }
}
