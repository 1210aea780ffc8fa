//! A batteries-included end-to-end pipeline: standardization + `WX`
//! construction + PFR + downstream logistic regression behind a single
//! `fit` / `predict` API.
//!
//! This is the interface a downstream adopter of the library would actually
//! use: hand it a [`Dataset`] and a fairness graph over
//! its individuals, get back a classifier whose decisions respect the
//! pairwise fairness judgments — and which can score unseen individuals from
//! their regular attributes alone.

use pfr_core::persistence::{ClassifierSection, ModelBundle, StandardizerParams};
use pfr_core::{FitInputs, Pfr, PfrConfig, PfrModel};
use pfr_data::Dataset;
use pfr_graph::SparseGraph;
use pfr_linalg::stats::Standardizer;
use pfr_linalg::Matrix;
use pfr_opt::{LogisticRegression, LogisticRegressionConfig};

/// Errors produced by the high-level pipeline.
#[derive(Debug, Clone)]
pub struct PipelineError(String);

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pipeline error: {}", self.0)
    }
}

impl std::error::Error for PipelineError {}

impl PipelineError {
    fn from_display(e: impl std::fmt::Display) -> Self {
        PipelineError(e.to_string())
    }
}

/// Result alias for the pipeline.
pub type Result<T> = std::result::Result<T, PipelineError>;

/// Configuration of [`FairPipeline`].
#[derive(Debug, Clone)]
pub struct FairPipelineConfig {
    /// PFR's γ trade-off between `WX` and `WF`.
    pub gamma: f64,
    /// Dimensionality of the learned representation; `None` uses
    /// `num_features − 1`.
    pub dim: Option<usize>,
    /// Number of neighbours for the `WX` graph.
    pub knn_k: usize,
    /// Whether the representation learner sees the protected attribute
    /// (recommended; the classifier itself never sees it directly).
    pub use_protected_attribute: bool,
    /// L2 regularization of the downstream logistic regression.
    pub classifier_l2: f64,
    /// Decision threshold for hard predictions.
    pub threshold: f64,
}

impl Default for FairPipelineConfig {
    fn default() -> Self {
        FairPipelineConfig {
            gamma: 0.5,
            dim: None,
            knn_k: 10,
            use_protected_attribute: true,
            classifier_l2: 1e-4,
            threshold: 0.5,
        }
    }
}

/// An unfitted end-to-end pipeline.
#[derive(Debug, Clone, Default)]
pub struct FairPipeline {
    config: FairPipelineConfig,
}

/// A fitted pipeline: standardizer, PFR projection and classifier.
#[derive(Debug, Clone)]
pub struct FittedFairPipeline {
    config: FairPipelineConfig,
    standardizer: Standardizer,
    model: PfrModel,
    classifier: LogisticRegression,
}

impl FairPipeline {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: FairPipelineConfig) -> Self {
        FairPipeline { config }
    }

    /// Fits the pipeline on a training dataset and a fairness graph whose
    /// nodes are the dataset's records (in the same order).
    pub fn fit(&self, train: &Dataset, wf: &SparseGraph) -> Result<FittedFairPipeline> {
        if wf.num_nodes() != train.len() {
            return Err(PipelineError(format!(
                "fairness graph has {} nodes but the dataset has {} records",
                wf.num_nodes(),
                train.len()
            )));
        }
        // Learner input (optionally with the protected attribute, appended
        // last); WX leaves that column out, as the paper prescribes.
        let raw = self.learner_features(train)?;
        let protected = self.config.use_protected_attribute.then(|| raw.cols() - 1);
        let inputs = FitInputs::prepare(&raw, protected, self.config.knn_k)
            .map_err(PipelineError::from_display)?;

        let m = inputs.x.cols();
        let dim = self.config.dim.unwrap_or(m.saturating_sub(1)).clamp(1, m);
        let model = Pfr::new(PfrConfig {
            gamma: self.config.gamma,
            dim,
            ..PfrConfig::default()
        })
        .fit(&inputs.x, &inputs.wx, wf)
        .map_err(PipelineError::from_display)?;

        let z = model
            .transform(&inputs.x)
            .map_err(PipelineError::from_display)?;
        let mut classifier = LogisticRegression::new(LogisticRegressionConfig {
            l2: self.config.classifier_l2,
            ..LogisticRegressionConfig::default()
        });
        classifier
            .fit(&z, train.labels())
            .map_err(PipelineError::from_display)?;

        Ok(FittedFairPipeline {
            config: self.config.clone(),
            standardizer: inputs.standardizer,
            model,
            classifier,
        })
    }

    fn learner_features(&self, dataset: &Dataset) -> Result<Matrix> {
        if self.config.use_protected_attribute {
            let (x, _) = dataset
                .features_with_protected()
                .map_err(PipelineError::from_display)?;
            Ok(x)
        } else {
            Ok(dataset.features().clone())
        }
    }
}

impl FittedFairPipeline {
    /// The fitted PFR model.
    pub fn model(&self) -> &PfrModel {
        &self.model
    }

    /// Packages the fitted pipeline into a deployable [`ModelBundle`]:
    /// standardizer statistics, PFR projection and classifier weights plus
    /// the decision threshold — everything `pfr-serve` needs to score raw
    /// attribute vectors, with no training-time machinery attached.
    pub fn into_bundle(self) -> Result<ModelBundle> {
        let text = self
            .classifier
            .to_text()
            .map_err(PipelineError::from_display)?;
        Ok(ModelBundle {
            model: self.model,
            standardizer: Some(StandardizerParams {
                means: self.standardizer.means().to_vec(),
                stds: self.standardizer.stds().to_vec(),
            }),
            classifier: Some(ClassifierSection {
                threshold: self.config.threshold,
                text,
            }),
        })
    }

    /// Reassembles a fitted pipeline from a bundle.
    ///
    /// `config` supplies the fit-time settings a bundle does not carry
    /// (`knn_k`, `use_protected_attribute`, …); the representation-relevant
    /// fields (`gamma`, `dim`, decision threshold) are taken from the bundle
    /// itself. The bundle must contain a standardizer and a classifier —
    /// a projection-only bundle cannot score anyone.
    pub fn from_bundle(bundle: &ModelBundle, config: FairPipelineConfig) -> Result<Self> {
        let std = bundle
            .standardizer
            .as_ref()
            .ok_or_else(|| PipelineError("bundle has no standardizer section".to_string()))?;
        let clf = bundle
            .classifier
            .as_ref()
            .ok_or_else(|| PipelineError("bundle has no classifier section".to_string()))?;
        let standardizer = Standardizer::from_parts(std.means.clone(), std.stds.clone())
            .map_err(PipelineError::from_display)?;
        let classifier =
            LogisticRegression::from_text(&clf.text).map_err(PipelineError::from_display)?;
        let model_config = bundle.model.config();
        Ok(FittedFairPipeline {
            config: FairPipelineConfig {
                gamma: model_config.gamma,
                dim: Some(bundle.model.dim()),
                threshold: clf.threshold,
                ..config
            },
            standardizer,
            model: bundle.model.clone(),
            classifier,
        })
    }

    /// Embeds a dataset into the learned fair representation.
    pub fn transform(&self, dataset: &Dataset) -> Result<Matrix> {
        let raw = FairPipeline::new(self.config.clone()).learner_features(dataset)?;
        let x = self
            .standardizer
            .transform(&raw)
            .map_err(PipelineError::from_display)?;
        self.model
            .transform(&x)
            .map_err(PipelineError::from_display)
    }

    /// Predicted probability of the positive class for every record.
    pub fn predict_proba(&self, dataset: &Dataset) -> Result<Vec<f64>> {
        let z = self.transform(dataset)?;
        self.classifier
            .predict_proba(&z)
            .map_err(PipelineError::from_display)
    }

    /// Hard predictions at the configured threshold.
    pub fn predict(&self, dataset: &Dataset) -> Result<Vec<u8>> {
        Ok(self
            .predict_proba(dataset)?
            .into_iter()
            .map(|p| u8::from(p >= self.config.threshold))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfr_data::{split, synthetic};
    use pfr_graph::fairness;
    use pfr_metrics::roc_auc;

    fn fairness_graph(ds: &Dataset) -> SparseGraph {
        let scores: Vec<f64> = ds
            .side_information()
            .iter()
            .map(|s| s.unwrap_or(0.0))
            .collect();
        fairness::between_group_quantile_graph(ds.groups(), &scores, 5).unwrap()
    }

    #[test]
    fn pipeline_fits_and_scores_unseen_individuals() {
        let dataset = synthetic::generate_default(21).unwrap();
        let split = split::train_test_split(&dataset, 0.3, 21).unwrap();
        let train = dataset.subset(&split.train).unwrap();
        let test = dataset.subset(&split.test).unwrap();

        let fitted = FairPipeline::new(FairPipelineConfig {
            gamma: 0.9,
            ..FairPipelineConfig::default()
        })
        .fit(&train, &fairness_graph(&train))
        .unwrap();

        let probs = fitted.predict_proba(&test).unwrap();
        assert_eq!(probs.len(), test.len());
        let auc = roc_auc(test.labels(), &probs).unwrap();
        assert!(auc > 0.85, "pipeline AUC {auc} too low");
        let preds = fitted.predict(&test).unwrap();
        assert!(preds.iter().all(|&p| p <= 1));
        let z = fitted.transform(&test).unwrap();
        assert_eq!(z.rows(), test.len());
        assert_eq!(z.cols(), fitted.model().dim());
    }

    #[test]
    fn bundle_round_trip_reproduces_predictions_bitwise() {
        let dataset = synthetic::generate_default(24).unwrap();
        let split = split::train_test_split(&dataset, 0.3, 24).unwrap();
        let train = dataset.subset(&split.train).unwrap();
        let test = dataset.subset(&split.test).unwrap();

        let config = FairPipelineConfig {
            gamma: 0.8,
            threshold: 0.55,
            ..FairPipelineConfig::default()
        };
        let fitted = FairPipeline::new(config.clone())
            .fit(&train, &fairness_graph(&train))
            .unwrap();
        let expected = fitted.predict_proba(&test).unwrap();
        let expected_hard = fitted.predict(&test).unwrap();

        let bundle = fitted.into_bundle().unwrap();
        let text = pfr_core::persistence::bundle_to_string(&bundle);
        let restored_bundle = pfr_core::persistence::bundle_from_string(&text).unwrap();
        let restored = FittedFairPipeline::from_bundle(&restored_bundle, config).unwrap();

        let probs = restored.predict_proba(&test).unwrap();
        assert_eq!(probs, expected, "decimal round-trip must be exact");
        assert_eq!(restored.predict(&test).unwrap(), expected_hard);
    }

    #[test]
    fn from_bundle_rejects_projection_only_bundles() {
        let dataset = synthetic::generate_default(25).unwrap();
        let fitted = FairPipeline::default()
            .fit(&dataset, &fairness_graph(&dataset))
            .unwrap();
        let mut bundle = fitted.into_bundle().unwrap();
        bundle.classifier = None;
        assert!(FittedFairPipeline::from_bundle(&bundle, FairPipelineConfig::default()).is_err());
        bundle.standardizer = None;
        assert!(FittedFairPipeline::from_bundle(&bundle, FairPipelineConfig::default()).is_err());
    }

    #[test]
    fn pipeline_rejects_mismatched_fairness_graph() {
        let dataset = synthetic::generate_default(22).unwrap();
        let wrong = SparseGraph::new(3);
        assert!(FairPipeline::default().fit(&dataset, &wrong).is_err());
    }

    #[test]
    fn pipeline_without_protected_attribute_still_works() {
        let dataset = synthetic::generate_default(23).unwrap();
        let fitted = FairPipeline::new(FairPipelineConfig {
            use_protected_attribute: false,
            dim: Some(1),
            ..FairPipelineConfig::default()
        })
        .fit(&dataset, &fairness_graph(&dataset))
        .unwrap();
        let probs = fitted.predict_proba(&dataset).unwrap();
        assert_eq!(probs.len(), dataset.len());
    }
}
