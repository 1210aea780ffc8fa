//! # pfr-linalg
//!
//! Dense linear-algebra substrate for the Pairwise Fair Representations (PFR)
//! reproduction.
//!
//! The original paper solves its trace-optimization problem with
//! `scipy.linalg.lapack`. No LAPACK binding (nor `ndarray`/`nalgebra`) is
//! available in this offline environment, so this crate provides everything
//! the rest of the workspace needs, implemented from scratch:
//!
//! * [`Matrix`] — a dense, row-major, `f64` matrix with the usual algebraic
//!   operations (multiplication, transposition, slicing, norms, …).
//! * [`gemm`] — the blocked, packed, multi-threaded GEMM kernel every dense
//!   matrix product routes through (register-tiled micro-kernel, L1/L2
//!   cache blocking, deterministic thread-count-independent accumulation).
//! * [`eigen`] — the one dense symmetric eigensolver (Householder
//!   tridiagonalization + implicit-shift QL), returning the full
//!   decomposition sorted by eigenvalue. Every fit and refit solves with it.
//! * [`subspace`] — warm-started block subspace iteration for just the `d`
//!   smallest eigenpairs. Slower than the dense solver at the sizes the
//!   workspace fits; no fit path calls it any more (see its module docs).
//! * [`cholesky`] — Cholesky factorization and SPD linear solves (used by the
//!   Newton/IRLS steps of the downstream logistic-regression classifier).
//! * [`stats`] — column statistics, standardization, covariance/correlation
//!   and quantiles.
//!
//! The sizes involved in the paper are modest (at most a few thousand records
//! and on the order of a hundred features), so the dense `O(n^3)` algorithms
//! here are entirely adequate and keep the code dependency-free and easy to
//! audit.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod cholesky;
pub mod eigen;
pub mod error;
pub mod gemm;
pub mod matrix;
pub mod stats;
pub mod subspace;
pub mod vector;

pub use cholesky::CholeskyDecomposition;
pub use eigen::Eigen;
pub use error::LinalgError;
pub use matrix::Matrix;
pub use subspace::{smallest_eigenpairs_warm, SubspaceEigen, SubspaceOptions};

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
