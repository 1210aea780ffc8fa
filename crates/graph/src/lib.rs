//! # pfr-graph
//!
//! Graph substrate for the Pairwise Fair Representations (PFR) reproduction.
//!
//! PFR consumes two graphs over the individuals of a dataset:
//!
//! * `WX` — a k-nearest-neighbour similarity graph over the (non-protected)
//!   feature space with RBF kernel weights (Section 3.1 of the paper), built
//!   by [`knn::KnnGraphBuilder`].
//! * `WF` — the *fairness graph* encoding side-information about equally
//!   deserving individuals (Section 3.2), built by the constructors in
//!   [`fairness`]: pairwise judgments, equivalence classes (Definition 1) and
//!   between-group quantile graphs (Definitions 2 and 3).
//!
//! Both are represented by [`SparseGraph`], an undirected weighted graph held
//! as complete multipartite blocks (the fairness graphs' classes and quantile
//! buckets) beside a residual edge list, that can compute graph Laplacians
//! and — crucially — the quadratic form `Xᵀ L X` *without materializing the
//! `n x n` Laplacian or a block's edges*, which keeps the COMPAS-sized
//! problems (n ≈ 8800, 1.93 M fairness pairs) `O(n)` in memory.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod components;
pub mod error;
pub mod fairness;
pub mod knn;
pub mod sparse;

pub use error::GraphError;
pub use knn::KnnGraphBuilder;
pub use sparse::{LaplacianKind, SparseGraph};

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
