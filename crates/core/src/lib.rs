//! # pfr-core
//!
//! The paper's primary contribution: **Pairwise Fair Representations (PFR)**.
//!
//! PFR learns a low-dimensional representation `Z = Vᵀ X` of a dataset that
//! simultaneously
//!
//! * preserves local neighbourhoods of the input space, encoded by a k-NN RBF
//!   graph `WX` (Equation 3 of the paper), and
//! * maps individuals connected in a *fairness graph* `WF` — pairs judged to
//!   be equally deserving — close to each other (Equation 4),
//!
//! by minimizing `(1−γ)·LossX + γ·LossF` subject to the ortho-normality
//! constraint `VᵀV = I` (Equation 5). Section 3.3.2 shows this is equivalent
//! to the trace-minimization problem
//! `min Tr{Vᵀ X ((1−γ)Lˣ + γLᶠ) Xᵀ V}`, solved by taking the eigenvectors of
//! the `m x m` matrix `X ((1−γ)Lˣ + γLᶠ) Xᵀ` associated with the `d`
//! smallest eigenvalues (Equation 7).
//!
//! Two variants are provided:
//!
//! * [`Pfr`] — the linear model of the paper (the one evaluated in its
//!   experiments).
//! * [`KernelPfr`] — the kernelized extension of Section 3.3.4 (Equation 8),
//!   which the paper leaves to future work; it is implemented here as an
//!   extension and exercised by the ablation experiments.
//!
//! ```
//! use pfr_core::{Pfr, PfrConfig};
//! use pfr_graph::{KnnGraphBuilder, SparseGraph};
//! use pfr_linalg::Matrix;
//!
//! // Six individuals with two features; individuals {0, 3} are judged
//! // equally deserving, as are {1, 4} and {2, 5}.
//! let x = Matrix::from_rows(&[
//!     vec![0.0, 0.1], vec![0.5, 0.4], vec![1.0, 0.9],
//!     vec![5.0, 5.1], vec![5.5, 5.4], vec![6.0, 5.9],
//! ]).unwrap();
//! let wx = KnnGraphBuilder::new(2).build(&x).unwrap();
//! let mut wf = SparseGraph::new(6);
//! wf.add_edge(0, 3, 1.0).unwrap();
//! wf.add_edge(1, 4, 1.0).unwrap();
//! wf.add_edge(2, 5, 1.0).unwrap();
//!
//! let model = Pfr::new(PfrConfig { gamma: 0.5, dim: 1, ..PfrConfig::default() })
//!     .fit(&x, &wx, &wf)
//!     .unwrap();
//! let z = model.transform(&x).unwrap();
//! assert_eq!(z.shape(), (6, 1));
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod error;
pub mod kernel;
pub mod persistence;
pub mod pfr;

pub use error::PfrError;
pub use kernel::{KernelPfr, KernelPfrModel, KernelType};
pub use pfr::{FitInputs, Pfr, PfrConfig, PfrModel, PfrObjective};

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, PfrError>;
