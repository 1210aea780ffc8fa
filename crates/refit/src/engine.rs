//! PFR re-fit over the current window.
//!
//! The engine rebuilds the full training pipeline on window data alone —
//! no access to the original labeled training set is assumed:
//!
//! 1. **Standardize** the window and refresh the bundle's standardizer
//!    section with the window's statistics.
//! 2. **Data graph**: k-nearest-neighbour graph over the standardized
//!    window (the paper's `WX`).
//! 3. **Fairness graph**: the between-group quantile graph (Definition 3)
//!    over the protected attribute column and the *serving model's* scores
//!    — the only ranking signal available online.
//! 4. **Projection**: an ordinary [`pfr_core::Pfr::fit`] — the one dense
//!    eigensolver. Seeding a subspace iteration with the serving model's
//!    projection only ever beat cyclic Jacobi; against Householder + QL it
//!    is about five times slower on a 256 × 96 window (DESIGN.md § warm
//!    start), so the serving bundle contributes scores and pseudo-labels
//!    but no starting point.
//! 5. **Classifier distillation**: a fresh logistic head trained on the
//!    serving model's *hard decisions* (pseudo-labels) in the new
//!    representation, so candidate and serving model agree wherever the
//!    serving model was confident — exactly what the shadow gate checks.
//!
//! The output is a complete [`ModelBundle`], canonically serialized, ready
//! for the wire-level `PUSH` path.

use crate::error::RefitError;
use crate::Result;
use pfr_core::persistence::{bundle_to_string, ClassifierSection, ModelBundle, StandardizerParams};
use pfr_core::{Pfr, PfrConfig};
use pfr_graph::KnnGraphBuilder;
use pfr_linalg::stats::Standardizer;
use pfr_linalg::Matrix;
use pfr_opt::{LogisticRegression, LogisticRegressionConfig};
use pfr_serve::ServableModel;

/// Model-building parameters for the online re-fit.
#[derive(Debug, Clone)]
pub struct RefitModelConfig {
    /// Trade-off between data graph and fairness graph (paper's γ).
    pub gamma: f64,
    /// Dimensionality of the fair representation.
    pub dim: usize,
    /// Neighbours in the window's kNN data graph.
    pub knn_k: usize,
    /// Quantile buckets of the between-group fairness graph.
    pub quantiles: usize,
    /// Column index of the (binary-encoded) protected attribute inside the
    /// raw feature vector.
    pub protected_column: usize,
    /// Classifier-distillation head configuration.
    pub logistic: LogisticRegressionConfig,
}

impl Default for RefitModelConfig {
    fn default() -> Self {
        RefitModelConfig {
            gamma: 0.5,
            dim: 4,
            knn_k: 8,
            quantiles: 5,
            protected_column: 0,
            logistic: LogisticRegressionConfig::default(),
        }
    }
}

/// Summary of one completed re-fit.
#[derive(Debug, Clone)]
pub struct RefitOutcome {
    /// The candidate bundle, canonically serialized (what `PUSH` ships).
    pub bundle_text: String,
    /// Window rows the candidate was trained on.
    pub rows: usize,
    /// Fraction of pseudo-labels in the positive class.
    pub positive_fraction: f64,
}

/// Stateless re-fit engine; all state lives in the window and the serving
/// bundle passed per call.
#[derive(Debug, Clone)]
pub struct RefitEngine {
    config: RefitModelConfig,
}

impl RefitEngine {
    /// Creates an engine after validating the configuration.
    pub fn new(config: RefitModelConfig) -> Result<Self> {
        if !(0.0..=1.0).contains(&config.gamma) {
            return Err(RefitError::Config(format!(
                "gamma must lie in [0, 1], got {}",
                config.gamma
            )));
        }
        if config.dim == 0 || config.knn_k == 0 || config.quantiles == 0 {
            return Err(RefitError::Config(
                "dim, knn_k and quantiles must be positive".to_string(),
            ));
        }
        Ok(RefitEngine { config })
    }

    /// The validated configuration.
    pub fn config(&self) -> &RefitModelConfig {
        &self.config
    }

    /// Re-fits a candidate bundle on `window` (raw feature rows); `serving`
    /// supplies the ranking signal and the pseudo-labels.
    pub fn refit(&self, window: &Matrix, serving: &ModelBundle) -> Result<RefitOutcome> {
        let (n, m) = window.shape();
        if self.config.protected_column >= m {
            return Err(RefitError::Config(format!(
                "protected column {} out of range for {m} features",
                self.config.protected_column
            )));
        }
        if self.config.dim > m {
            return Err(RefitError::Config(format!(
                "dim {} exceeds the {m} window features",
                self.config.dim
            )));
        }
        if n < self.config.knn_k + 1 || n < 2 * self.config.quantiles {
            return Err(RefitError::Window(format!(
                "{n} rows are too few for k={} neighbours and {} quantiles",
                self.config.knn_k, self.config.quantiles
            )));
        }

        // The serving model provides the online ranking signal (fairness
        // graph scores) and the pseudo-labels for distillation.
        let teacher = ServableModel::from_bundle("refit-teacher", serving)?;
        let teacher_scores = teacher.score_batch(window)?;

        // 1. Standardize on the window's own statistics.
        let (standardizer, x) = Standardizer::fit_transform(window)?;

        // 2. Data graph over the standardized window.
        let wx = KnnGraphBuilder::new(self.config.knn_k).build(&x)?;

        // 3. Between-group quantile fairness graph from the protected
        // column and the teacher's scores.
        let groups: Vec<usize> = (0..n)
            .map(|i| (window[(i, self.config.protected_column)] > 0.5) as usize)
            .collect();
        let wf = pfr_graph::fairness::between_group_quantile_graph(
            &groups,
            &teacher_scores,
            self.config.quantiles,
        )?;

        // 4. Projection re-fit on the dense solver.
        let pfr = Pfr::new(PfrConfig {
            gamma: self.config.gamma,
            dim: self.config.dim,
            ..PfrConfig::default()
        });
        let model = pfr.fit(&x, &wx, &wf)?;

        // 5. Distill the serving model's decisions into a fresh head on the
        // new representation.
        let threshold = serving.classifier.as_ref().map_or(0.5, |c| c.threshold);
        let labels: Vec<u8> = teacher_scores
            .iter()
            .map(|&s| (s >= threshold) as u8)
            .collect();
        let positives: usize = labels.iter().map(|&l| l as usize).sum();
        let positive_fraction = positives as f64 / n as f64;
        let z = model.transform(&x)?;
        let classifier = if positives == 0 || positives == n {
            // Degenerate pseudo-labels cannot train a head; keep the
            // serving classifier verbatim (it is still dimension-compatible
            // only if dims match — otherwise reject).
            let section = serving.classifier.clone().ok_or_else(|| {
                RefitError::Window("single-class window and no serving classifier".to_string())
            })?;
            if serving.model.dim() != self.config.dim {
                return Err(RefitError::Window(
                    "single-class window cannot retrain the classifier head".to_string(),
                ));
            }
            section
        } else {
            let mut head = LogisticRegression::new(self.config.logistic.clone());
            head.fit(&z, &labels)?;
            ClassifierSection {
                threshold,
                text: head.to_text()?,
            }
        };

        let candidate = ModelBundle {
            model,
            standardizer: Some(StandardizerParams {
                means: standardizer.means().to_vec(),
                stds: standardizer.stds().to_vec(),
            }),
            classifier: Some(classifier),
        };
        Ok(RefitOutcome {
            bundle_text: bundle_to_string(&candidate),
            rows: n,
            positive_fraction,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfr_core::persistence::bundle_from_string;

    /// A window whose scores split both protected groups: two gaussian
    /// blobs per group along the non-protected features.
    fn toy_window(n: usize, seed: u64, shift: f64) -> Matrix {
        let mut state = seed.max(1);
        let mut uniform = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as f64 / u64::MAX as f64
        };
        let mut w = Matrix::zeros(n, 4);
        for i in 0..n {
            let group = (i % 2) as f64;
            let blob = if uniform() > 0.5 { 1.0 } else { -1.0 };
            w[(i, 0)] = group;
            for j in 1..4 {
                w[(i, j)] = shift + blob + 0.3 * (uniform() - 0.5);
            }
        }
        w
    }

    fn serving_bundle(window: &Matrix) -> ModelBundle {
        let engine = RefitEngine::new(RefitModelConfig {
            dim: 2,
            knn_k: 4,
            ..RefitModelConfig::default()
        })
        .unwrap();
        // Bootstrap: fit a cold bundle by using a synthetic teacher — a
        // trivial bundle with an identity-ish head is impractical here, so
        // build the pipeline manually.
        let (standardizer, x) = Standardizer::fit_transform(window).unwrap();
        let wx = KnnGraphBuilder::new(4).build(&x).unwrap();
        let groups: Vec<usize> = (0..window.rows())
            .map(|i| (window[(i, 0)] > 0.5) as usize)
            .collect();
        let scores: Vec<f64> = (0..window.rows()).map(|i| window[(i, 1)]).collect();
        let wf = pfr_graph::fairness::between_group_quantile_graph(&groups, &scores, 5).unwrap();
        let pfr = Pfr::new(PfrConfig {
            gamma: engine.config().gamma,
            dim: 2,
            ..PfrConfig::default()
        });
        let model = pfr.fit(&x, &wx, &wf).unwrap();
        let z = model.transform(&x).unwrap();
        let labels: Vec<u8> = (0..window.rows())
            .map(|i| (window[(i, 1)] > 0.0) as u8)
            .collect();
        let mut head = LogisticRegression::new(LogisticRegressionConfig::default());
        head.fit(&z, &labels).unwrap();
        ModelBundle {
            model,
            standardizer: Some(StandardizerParams {
                means: standardizer.means().to_vec(),
                stds: standardizer.stds().to_vec(),
            }),
            classifier: Some(ClassifierSection {
                threshold: 0.5,
                text: head.to_text().unwrap(),
            }),
        }
    }

    #[test]
    fn refit_produces_a_parseable_compatible_bundle() {
        let window = toy_window(96, 11, 0.0);
        let serving = serving_bundle(&window);
        let engine = RefitEngine::new(RefitModelConfig {
            dim: 2,
            knn_k: 4,
            ..RefitModelConfig::default()
        })
        .unwrap();
        let drifted = toy_window(96, 77, 0.4);
        let outcome = engine.refit(&drifted, &serving).unwrap();
        let candidate = bundle_from_string(&outcome.bundle_text).unwrap();
        assert_eq!(candidate.model.dim(), 2);
        assert_eq!(candidate.model.num_features(), 4);
        assert!(candidate.standardizer.is_some());
        assert!(candidate.classifier.is_some());
        assert!(outcome.positive_fraction > 0.0 && outcome.positive_fraction < 1.0);
        // The candidate must be servable end to end.
        let servable = ServableModel::from_bundle("candidate", &candidate).unwrap();
        let scores = servable.score_batch(&drifted).unwrap();
        assert!(scores
            .iter()
            .all(|s| s.is_finite() && (0.0..=1.0).contains(s)));
    }

    #[test]
    fn rejects_undersized_windows_and_bad_config() {
        assert!(RefitEngine::new(RefitModelConfig {
            gamma: 1.5,
            ..RefitModelConfig::default()
        })
        .is_err());
        assert!(RefitEngine::new(RefitModelConfig {
            dim: 0,
            ..RefitModelConfig::default()
        })
        .is_err());
        let window = toy_window(96, 5, 0.0);
        let serving = serving_bundle(&window);
        let engine = RefitEngine::new(RefitModelConfig {
            dim: 2,
            knn_k: 4,
            ..RefitModelConfig::default()
        })
        .unwrap();
        let tiny = toy_window(6, 5, 0.0);
        assert!(engine.refit(&tiny, &serving).is_err());
        let engine_oob = RefitEngine::new(RefitModelConfig {
            dim: 2,
            knn_k: 4,
            protected_column: 9,
            ..RefitModelConfig::default()
        })
        .unwrap();
        assert!(engine_oob.refit(&window, &serving).is_err());
    }
}
