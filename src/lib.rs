//! # pfr — Pairwise Fair Representations
//!
//! A complete Rust reproduction of *"Operationalizing Individual Fairness
//! with Pairwise Fair Representations"* (Lahoti, Gummadi, Weikum — VLDB
//! 2019).
//!
//! This facade crate re-exports every sub-crate of the workspace so that an
//! application can depend on a single crate:
//!
//! * [`linalg`] — dense matrices, symmetric eigensolvers, decompositions.
//! * [`graph`] — sparse graphs, k-NN similarity graphs, fairness graphs,
//!   Laplacian algebra.
//! * [`data`] — datasets, preprocessing, splits, the paper's three
//!   (synthetic) benchmarks.
//! * [`opt`] — optimizers and the downstream logistic-regression classifier.
//! * [`core`] — the PFR and kernel-PFR models.
//! * [`baselines`] — Original, iFair, LFR and Hardt et al. post-processing.
//! * [`metrics`] — AUC, individual-fairness consistency, group fairness.
//! * [`eval`] — the experiment harness that regenerates every table and
//!   figure of the paper.
//! * [`serve`] — the concurrent model-serving subsystem (registry, worker
//!   pool, micro-batching, score cache, TCP protocol).
//! * [`journal`] — the durable write-ahead request journal (checksummed
//!   frames, segment rotation, group-commit fsync, crash recovery).
//! * [`router`] — the sharded routing tier over multiple serve backends
//!   (consistent hashing, replication, scatter-gather, circuit breakers).
//!
//! ## Quick start
//!
//! ```
//! use pfr::core::{FitInputs, Pfr, PfrConfig};
//! use pfr::data::synthetic;
//! use pfr::graph::fairness;
//!
//! // 1. Generate the paper's synthetic admissions data; the learner sees
//! //    the protected attribute (appended last).
//! let dataset = synthetic::generate_default(42).unwrap();
//! let (raw, _) = dataset.features_with_protected().unwrap();
//!
//! // 2. Standardize, build the similarity graph WX without the protected
//! //    attribute, and a fairness graph WF from the within-group
//! //    deservingness rankings.
//! let FitInputs { x, wx, .. } = FitInputs::prepare(&raw, Some(raw.cols() - 1), 10).unwrap();
//! let scores: Vec<f64> = dataset
//!     .side_information()
//!     .iter()
//!     .map(|s| s.unwrap_or(0.0))
//!     .collect();
//! let wf = fairness::between_group_quantile_graph(dataset.groups(), &scores, 10).unwrap();
//!
//! // 3. Learn a pairwise fair representation.
//! let model = Pfr::new(PfrConfig { gamma: 0.9, dim: 2, ..PfrConfig::default() })
//!     .fit(&x, &wx, &wf)
//!     .unwrap();
//! let z = model.transform(&x).unwrap();
//! assert_eq!(z.shape(), (dataset.len(), 2));
//! ```
//!
//! See the `examples/` directory for end-to-end pipelines (quickstart,
//! graduate admissions, recidivism, crime neighbourhoods) and `DESIGN.md`
//! for the reproduction methodology and its substitutions.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod pipeline;

pub use pfr_baselines as baselines;
pub use pfr_control as control;
pub use pfr_core as core;
pub use pfr_data as data;
pub use pfr_eval as eval;
pub use pfr_graph as graph;
pub use pfr_journal as journal;
pub use pfr_linalg as linalg;
pub use pfr_metrics as metrics;
pub use pfr_net as net;
pub use pfr_obs as obs;
pub use pfr_opt as opt;
pub use pfr_refit as refit;
pub use pfr_router as router;
pub use pfr_serve as serve;

/// The version of the reproduction workspace.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_exposed() {
        assert!(!super::VERSION.is_empty());
    }
}
