//! PFR re-fit over the current window.
//!
//! The engine rebuilds the full training pipeline on window data alone —
//! no access to the original labeled training set is assumed:
//!
//! 1. **Standardize** the window and refresh the bundle's standardizer
//!    section with the window's statistics.
//! 2. **Data graph**: k-NN graph over the standardized window without the
//!    protected column (the paper's `WX`). Steps 1 and 2 are
//!    [`FitInputs::prepare`], the same call every offline fit makes.
//! 3. **Fairness graph**: the between-group quantile graph (Definition 3)
//!    over the protected attribute column and the *serving model's* scores
//!    — the only ranking signal available online.
//! 4. **Projection**: an ordinary [`pfr_core::Pfr::fit`], the one dense
//!    eigensolver; the serving bundle contributes scores and pseudo-labels
//!    but no starting point (DESIGN.md § warm start measures why).
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
use pfr_core::{FitInputs, Pfr, PfrConfig};
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
        let serving_head = serving.classifier.as_ref().ok_or_else(|| {
            RefitError::Window("the serving bundle has no classifier to teach with".to_string())
        })?;
        let teacher = ServableModel::from_bundle("refit-teacher", serving)?;
        let teacher_scores = teacher.score_batch(window)?;

        // 1–2. Standardize on the window's own statistics; WX without column p.
        let p = self.config.protected_column;
        let inputs = FitInputs::prepare(window, Some(p), self.config.knn_k)?;

        // 3. Between-group quantile fairness graph from the protected
        // column and the teacher's scores.
        let groups: Vec<usize> = (0..n).map(|i| (window[(i, p)] > 0.5) as usize).collect();
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
        let model = pfr.fit(&inputs.x, &inputs.wx, &wf)?;

        // 5. Distill the serving model's decisions into a fresh head on the
        // new representation.
        let threshold = serving_head.threshold;
        let labels: Vec<u8> = teacher_scores
            .iter()
            .map(|&s| (s >= threshold) as u8)
            .collect();
        let positives: usize = labels.iter().map(|&l| l as usize).sum();
        let positive_fraction = positives as f64 / n as f64;
        let classifier = if positives == 0 || positives == n {
            // Degenerate pseudo-labels cannot train a head; keep the
            // serving classifier verbatim, which fits the new projection
            // only if the dims match.
            if serving.model.dim() != self.config.dim {
                return Err(RefitError::Window(
                    "single-class window cannot retrain the classifier head".to_string(),
                ));
            }
            serving_head.clone()
        } else {
            let mut head = LogisticRegression::new(self.config.logistic.clone());
            head.fit(&model.transform(&inputs.x)?, &labels)?;
            ClassifierSection {
                threshold,
                text: head.to_text()?,
            }
        };

        let candidate = ModelBundle {
            model,
            standardizer: Some(StandardizerParams {
                means: inputs.standardizer.means().to_vec(),
                stds: inputs.standardizer.stds().to_vec(),
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

    fn engine(dim: usize) -> RefitEngine {
        RefitEngine::new(RefitModelConfig {
            dim,
            knn_k: 4,
            ..RefitModelConfig::default()
        })
        .unwrap()
    }

    /// The bundle the engine must produce on `window`, built by hand from
    /// the shared fit inputs: masked `WX`, a quantile `WF` over `ranking`
    /// and a dense `Pfr::fit` at dim 2. The head is trained on `labels`,
    /// or is `keep_head` verbatim.
    fn fit_by_hand(
        window: &Matrix,
        ranking: &[f64],
        labels: &[u8],
        keep_head: Option<&ClassifierSection>,
    ) -> ModelBundle {
        let FitInputs {
            standardizer,
            x,
            wx,
        } = FitInputs::prepare(window, Some(0), 4).unwrap();
        let groups: Vec<usize> = (0..window.rows())
            .map(|i| (window[(i, 0)] > 0.5) as usize)
            .collect();
        let wf = pfr_graph::fairness::between_group_quantile_graph(&groups, ranking, 5).unwrap();
        let model = Pfr::new(PfrConfig {
            gamma: RefitModelConfig::default().gamma,
            dim: 2,
            ..PfrConfig::default()
        })
        .fit(&x, &wx, &wf)
        .unwrap();
        let classifier = keep_head.cloned().unwrap_or_else(|| {
            let mut head = LogisticRegression::new(LogisticRegressionConfig::default());
            head.fit(&model.transform(&x).unwrap(), labels).unwrap();
            ClassifierSection {
                threshold: 0.5,
                text: head.to_text().unwrap(),
            }
        });
        ModelBundle {
            model,
            standardizer: Some(StandardizerParams {
                means: standardizer.means().to_vec(),
                stds: standardizer.stds().to_vec(),
            }),
            classifier: Some(classifier),
        }
    }

    /// A cold serving bundle ranked and labelled by column 1.
    fn serving_bundle(window: &Matrix) -> ModelBundle {
        let ranking: Vec<f64> = (0..window.rows()).map(|i| window[(i, 1)]).collect();
        let labels: Vec<u8> = ranking.iter().map(|&r| (r > 0.0) as u8).collect();
        fit_by_hand(window, &ranking, &labels, None)
    }

    fn teacher_scores(serving: &ModelBundle, window: &Matrix) -> Vec<f64> {
        ServableModel::from_bundle("teacher", serving)
            .unwrap()
            .score_batch(window)
            .unwrap()
    }

    #[test]
    fn refit_is_the_shared_fit_with_a_masked_data_graph() {
        let serving = serving_bundle(&toy_window(96, 11, 0.0));
        let drifted = toy_window(96, 77, 0.4);
        let scores = teacher_scores(&serving, &drifted);
        let labels: Vec<u8> = scores.iter().map(|&s| (s >= 0.5) as u8).collect();
        let outcome = engine(2).refit(&drifted, &serving).unwrap();
        assert!(outcome.positive_fraction > 0.0 && outcome.positive_fraction < 1.0);
        let expected = fit_by_hand(&drifted, &scores, &labels, None);
        assert_eq!(outcome.bundle_text, bundle_to_string(&expected));
    }

    /// A window the teacher scores entirely above its threshold (every
    /// non-protected column moved far into the positive blob), with those
    /// scores.
    fn one_class_window(serving: &ModelBundle) -> (Matrix, Vec<f64>) {
        let mut window = toy_window(96, 23, 0.0);
        for i in 0..window.rows() {
            for j in 1..4 {
                window[(i, j)] += 6.0;
            }
        }
        let scores = teacher_scores(serving, &window);
        assert!(scores.iter().all(|&s| s >= 0.5), "window is not one-class");
        (window, scores)
    }

    #[test]
    fn one_class_window_keeps_the_serving_head_on_the_new_projection() {
        let serving = serving_bundle(&toy_window(96, 11, 0.0));
        let (window, scores) = one_class_window(&serving);
        let outcome = engine(2).refit(&window, &serving).unwrap();
        assert_eq!(outcome.positive_fraction, 1.0);
        let expected = fit_by_hand(&window, &scores, &[], serving.classifier.as_ref());
        assert_ne!(expected.model.projection(), serving.model.projection());
        assert_eq!(outcome.bundle_text, bundle_to_string(&expected));
    }

    #[test]
    fn one_class_window_with_another_dim_or_no_serving_head_is_rejected() {
        let mut serving = serving_bundle(&toy_window(96, 11, 0.0));
        let (window, _) = one_class_window(&serving);
        let err = engine(3).refit(&window, &serving).unwrap_err();
        assert!(
            matches!(&err, RefitError::Window(msg) if msg.contains("single-class")),
            "{err}"
        );
        serving.classifier = None;
        let err = engine(2).refit(&window, &serving).unwrap_err();
        assert!(
            matches!(&err, RefitError::Window(msg) if msg.contains("no classifier")),
            "{err}"
        );
    }

    #[test]
    fn refit_produces_a_parseable_compatible_bundle() {
        let window = toy_window(96, 11, 0.0);
        let serving = serving_bundle(&window);
        let drifted = toy_window(96, 77, 0.4);
        let outcome = engine(2).refit(&drifted, &serving).unwrap();
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
        let tiny = toy_window(6, 5, 0.0);
        assert!(engine(2).refit(&tiny, &serving).is_err());
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
