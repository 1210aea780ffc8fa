//! # pfr-eval
//!
//! Experiment harness for the Pairwise Fair Representations (PFR)
//! reproduction. It wires the substrates together into the paper's
//! evaluation pipeline (Section 4):
//!
//! 1. generate / load a dataset ([`pipeline::DatasetSpec`]),
//! 2. split into train and test, standardize on the training statistics,
//! 3. build the similarity graph `WX` and the fairness graph `WF`,
//! 4. fit every representation method (Original, iFair, LFR, PFR — plus
//!    their `+` augmented variants on the real datasets),
//! 5. train an out-of-the-box logistic regression on each representation,
//! 6. score utility (AUC), individual fairness (consistency w.r.t. `WX` and
//!    `WF`) and group fairness (positive rates, FPR/FNR) on the test split,
//!    optionally post-processing with Hardt et al. equalized odds.
//!
//! Every table and figure of the paper has a driver in [`experiments`]; the
//! `pfr-eval` binary exposes them on the command line and the repository
//! benchmark's `fit_refit` workload (`bench/`) runs all of them against
//! recorded outputs.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod error;
pub mod experiments;
pub mod gridsearch;
pub mod methods;
pub mod pipeline;
pub mod report;

pub use error::EvalError;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, EvalError>;
