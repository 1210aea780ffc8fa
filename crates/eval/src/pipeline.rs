//! The end-to-end experimental pipeline shared by every experiment.

use crate::error::EvalError;
use crate::Result;
use pfr_data::{compas, crime, split, synthetic, Dataset};
use pfr_graph::{fairness, KnnGraphBuilder, SparseGraph};
use pfr_linalg::stats::Standardizer;
use pfr_linalg::Matrix;
use pfr_metrics::{consistency, roc_auc, GroupFairnessReport};
use pfr_opt::{LogisticRegression, LogisticRegressionConfig};

/// Which dataset an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetSpec {
    /// The paper's synthetic US-admissions data (Section 4.2).
    Synthetic,
    /// The Crime & Communities-like data (Section 4.3).
    Crime,
    /// The COMPAS-like data (Section 4.3).
    Compas,
}

impl DatasetSpec {
    /// Human-readable name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetSpec::Synthetic => "Synthetic",
            DatasetSpec::Crime => "Crime",
            DatasetSpec::Compas => "Compas",
        }
    }

    /// Generates the dataset. `fast` produces a smaller instance with the
    /// same group proportions and base rates (used by tests and benches).
    pub fn generate(&self, seed: u64, fast: bool) -> Result<Dataset> {
        let ds = match self {
            DatasetSpec::Synthetic => {
                if fast {
                    synthetic::generate(&synthetic::SyntheticConfig {
                        n_per_group: 100,
                        seed,
                        ..synthetic::SyntheticConfig::default()
                    })?
                } else {
                    synthetic::generate_default(seed)?
                }
            }
            DatasetSpec::Crime => {
                if fast {
                    crime::generate(&crime::small_config(seed))?
                } else {
                    crime::generate_default(seed)?
                }
            }
            DatasetSpec::Compas => {
                if fast {
                    compas::generate(&compas::small_config(seed))?
                } else {
                    compas::generate_default(seed)?
                }
            }
        };
        Ok(ds)
    }

    /// Builds the fairness graph `WF` for a (sub-)population of this dataset,
    /// using the elicitation model the paper uses for it:
    ///
    /// * Synthetic — between-group quantile graph over the ground-truth
    ///   deservingness scores (Section 4.2.1).
    /// * Crime — equivalence classes of rounded mean resident ratings
    ///   (Section 4.3.1 / Definition 1).
    /// * Compas — between-group quantile graph over the within-group decile
    ///   scores (Section 4.3.1 / Definitions 2–3).
    pub fn build_fairness_graph(&self, dataset: &Dataset, quantiles: usize) -> Result<SparseGraph> {
        let n = dataset.len();
        match self {
            DatasetSpec::Synthetic | DatasetSpec::Compas => {
                // Only individuals with a within-group score participate.
                let mut groups = Vec::with_capacity(n);
                let mut scores = Vec::with_capacity(n);
                let mut index_map = Vec::with_capacity(n);
                for i in 0..n {
                    if let Some(s) = dataset.side_information()[i] {
                        groups.push(dataset.groups()[i]);
                        scores.push(s);
                        index_map.push(i);
                    }
                }
                let sub = fairness::between_group_quantile_graph(&groups, &scores, quantiles)?;
                // Re-embed into the full index space, blocks kept.
                Ok(sub.relabel(n, &index_map)?)
            }
            DatasetSpec::Crime => {
                let ratings: Vec<Option<f64>> = dataset.side_information().to_vec();
                fairness::rating_equivalence_graph(&ratings).map_err(EvalError::from)
            }
        }
    }
}

/// Everything an experiment needs, prepared once per dataset/seed.
pub struct PreparedExperiment {
    /// Which dataset this is.
    pub spec: DatasetSpec,
    /// The full dataset (before splitting).
    pub full: Dataset,
    /// Training split (original features).
    pub train: Dataset,
    /// Test split (original features).
    pub test: Dataset,
    /// Standardized training features with the protected attribute masked
    /// (the Original baseline's input, also used to build `WX`).
    pub x_train: Matrix,
    /// Standardized masked test features (training statistics).
    pub x_test: Matrix,
    /// Standardized *augmented* masked training features (side information
    /// added as a feature, for the `Original +` baseline).
    pub x_train_aug: Matrix,
    /// Standardized augmented masked test features (side information imputed
    /// with the training mean — it is not observable at decision time).
    pub x_test_aug: Matrix,
    /// Standardized training features *including* the protected attribute —
    /// the input of the representation learners (iFair, LFR, PFR). The paper
    /// masks the protected attribute only for the Original baseline and the
    /// `WX` graph.
    pub x_train_prot: Matrix,
    /// Standardized test features including the protected attribute.
    pub x_test_prot: Matrix,
    /// Standardized training features including the protected attribute and
    /// the side-information column (the `iFair +` / `LFR +` input).
    pub x_train_prot_aug: Matrix,
    /// Standardized test features including the protected attribute, with the
    /// side-information column imputed by the training mean.
    pub x_test_prot_aug: Matrix,
    /// k-NN similarity graph over the standardized training features.
    pub wx_train: SparseGraph,
    /// k-NN similarity graph over the standardized test features
    /// (evaluation only).
    pub wx_test: SparseGraph,
    /// Fairness graph over the training individuals.
    pub wf_train: SparseGraph,
    /// Fairness graph over the test individuals (evaluation only).
    pub wf_test: SparseGraph,
}

/// Pipeline parameters.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Fraction of records held out for testing.
    pub test_fraction: f64,
    /// Number of nearest neighbours for `WX`.
    pub knn_k: usize,
    /// Number of quantiles for the between-group fairness graphs.
    pub quantiles: usize,
    /// RNG seed (dataset generation and splitting).
    pub seed: u64,
    /// Use reduced dataset sizes (tests / benches).
    pub fast: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            test_fraction: 0.3,
            knn_k: 10,
            quantiles: 10,
            seed: 42,
            fast: false,
        }
    }
}

impl PipelineConfig {
    /// A configuration suitable for unit tests and benches: small datasets,
    /// small graphs.
    pub fn fast(seed: u64) -> Self {
        PipelineConfig {
            fast: true,
            knn_k: 5,
            quantiles: 5,
            seed,
            ..PipelineConfig::default()
        }
    }
}

/// Prepares a full experiment: dataset, split, standardization and graphs.
pub fn prepare(spec: DatasetSpec, config: &PipelineConfig) -> Result<PreparedExperiment> {
    let full = spec.generate(config.seed, config.fast)?;
    let split = split::train_test_split(&full, config.test_fraction, config.seed)?;
    let train = full.subset(&split.train)?;
    let test = full.subset(&split.test)?;

    // Standardize on training statistics only.
    let (standardizer, x_train) = Standardizer::fit_transform(train.features())?;
    let x_test = standardizer.transform(test.features())?;

    // Variants including the protected attribute (the representation
    // learners' input space).
    let (train_prot_raw, _) = train.features_with_protected()?;
    let (test_prot_raw, _) = test.features_with_protected()?;
    let (prot_standardizer, x_train_prot) = Standardizer::fit_transform(&train_prot_raw)?;
    let x_test_prot = prot_standardizer.transform(&test_prot_raw)?;

    // Augmented variants: the side information becomes an extra column. At
    // training time the true values are used; at test time the column is
    // imputed with the training mean (the paper stresses the side
    // information is unavailable for unseen individuals).
    let train_aug = train.with_side_information_feature()?;
    let observed: Vec<f64> = train.side_information().iter().filter_map(|&s| s).collect();
    let train_fill = if observed.is_empty() {
        0.0
    } else {
        observed.iter().sum::<f64>() / observed.len() as f64
    };
    let fill_col = Matrix::filled(test.len(), 1, train_fill);
    let test_aug_features = test.features().hstack(&fill_col)?;
    let (aug_standardizer, x_train_aug) = Standardizer::fit_transform(train_aug.features())?;
    let x_test_aug = aug_standardizer.transform(&test_aug_features)?;

    // Augmented variants with the protected attribute as well. Column order
    // is [original features…, side information, protected attribute] on both
    // splits.
    let (train_aug_prot_raw, _) = train_aug.features_with_protected()?;
    let test_group_col = Matrix::from_vec(
        test.len(),
        1,
        test.groups().iter().map(|&g| g as f64).collect(),
    )?;
    let test_aug_prot_raw = test_aug_features.hstack(&test_group_col)?;
    let (aug_prot_standardizer, x_train_prot_aug) =
        Standardizer::fit_transform(&train_aug_prot_raw)?;
    let x_test_prot_aug = aug_prot_standardizer.transform(&test_aug_prot_raw)?;

    // Similarity graphs.
    let knn = KnnGraphBuilder::new(config.knn_k.min(x_train.rows().saturating_sub(1)).max(1));
    let wx_train = knn.build(&x_train)?;
    let knn_test = KnnGraphBuilder::new(config.knn_k.min(x_test.rows().saturating_sub(1)).max(1));
    let wx_test = knn_test.build(&x_test)?;

    // Fairness graphs.
    let wf_train = spec.build_fairness_graph(&train, config.quantiles)?;
    let wf_test = spec.build_fairness_graph(&test, config.quantiles)?;

    Ok(PreparedExperiment {
        spec,
        full,
        train,
        test,
        x_train,
        x_test,
        x_train_aug,
        x_test_aug,
        x_train_prot,
        x_test_prot,
        x_train_prot_aug,
        x_test_prot_aug,
        wx_train,
        wx_test,
        wf_train,
        wf_test,
    })
}

/// Which input feature space a method is fitted and evaluated on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputSpace {
    /// Protected attribute masked (the Original baseline and `WX`).
    Masked,
    /// Masked features plus the side-information column (`Original +`).
    MaskedAugmented,
    /// Features including the protected attribute (iFair, LFR, PFR).
    Protected,
    /// Protected features plus the side-information column
    /// (`iFair +`, `LFR +`).
    ProtectedAugmented,
}

impl PreparedExperiment {
    /// The train/test feature matrices for the requested input space.
    pub fn matrices(&self, space: InputSpace) -> (&Matrix, &Matrix) {
        match space {
            InputSpace::Masked => (&self.x_train, &self.x_test),
            InputSpace::MaskedAugmented => (&self.x_train_aug, &self.x_test_aug),
            InputSpace::Protected => (&self.x_train_prot, &self.x_test_prot),
            InputSpace::ProtectedAugmented => (&self.x_train_prot_aug, &self.x_test_prot_aug),
        }
    }
}

/// Scores of one method on the test split.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Method name (e.g. `"PFR"`, `"LFR+"`).
    pub method: String,
    /// AUC on the test split.
    pub auc: f64,
    /// Consistency of the hard predictions w.r.t. `WX` on the test split.
    pub consistency_wx: f64,
    /// Consistency of the hard predictions w.r.t. `WF` on the test split.
    pub consistency_wf: f64,
    /// Group-fairness report (positive rates, FPR/FNR, per-group AUC).
    pub group_report: GroupFairnessReport,
    /// Raw predicted probabilities (kept for post-processing experiments).
    pub probabilities: Vec<f64>,
    /// Hard predictions at the 0.5 threshold.
    pub predictions: Vec<u8>,
}

/// Trains the downstream logistic-regression classifier on a training
/// representation and evaluates it on the matching test representation.
pub fn evaluate_representation(
    method: impl Into<String>,
    z_train: &Matrix,
    z_test: &Matrix,
    exp: &PreparedExperiment,
) -> Result<Evaluation> {
    let mut clf = LogisticRegression::new(LogisticRegressionConfig::default());
    clf.fit(z_train, exp.train.labels())?;
    let probabilities = clf.predict_proba(z_test)?;
    let predictions: Vec<u8> = probabilities.iter().map(|&p| u8::from(p >= 0.5)).collect();
    evaluate_predictions(method, probabilities, predictions, exp)
}

/// Scores precomputed probabilities/predictions on the test split.
pub fn evaluate_predictions(
    method: impl Into<String>,
    probabilities: Vec<f64>,
    predictions: Vec<u8>,
    exp: &PreparedExperiment,
) -> Result<Evaluation> {
    let labels = exp.test.labels();
    let auc = roc_auc(labels, &probabilities)?;
    let pred_f64: Vec<f64> = predictions.iter().map(|&p| p as f64).collect();
    let consistency_wx = consistency(&exp.wx_test, &pred_f64)?;
    let consistency_wf = consistency(&exp.wf_test, &pred_f64)?;
    let group_report = GroupFairnessReport::compute(
        labels,
        &predictions,
        exp.test.groups(),
        Some(&probabilities),
    )?;
    Ok(Evaluation {
        method: method.into(),
        auc,
        consistency_wx,
        consistency_wf,
        group_report,
        probabilities,
        predictions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_synthetic_fast_pipeline() {
        let exp = prepare(DatasetSpec::Synthetic, &PipelineConfig::fast(1)).unwrap();
        assert_eq!(exp.full.len(), 200);
        assert_eq!(exp.train.len() + exp.test.len(), 200);
        assert_eq!(exp.x_train.rows(), exp.train.len());
        assert_eq!(exp.x_test.rows(), exp.test.len());
        // Augmented variants have one extra column.
        assert_eq!(exp.x_train_aug.cols(), exp.x_train.cols() + 1);
        assert_eq!(exp.x_test_aug.cols(), exp.x_test.cols() + 1);
        // Graphs cover the right populations.
        assert_eq!(exp.wx_train.num_nodes(), exp.train.len());
        assert_eq!(exp.wf_test.num_nodes(), exp.test.len());
        assert!(exp.wf_train.num_edges() > 0);
        assert!(exp.wx_train.num_edges() > 0);
    }

    #[test]
    fn fairness_graph_construction_matches_dataset_kind() {
        let crime_exp = prepare(DatasetSpec::Crime, &PipelineConfig::fast(3)).unwrap();
        // The rating graph only connects rated communities.
        assert!(crime_exp.wf_train.num_edges() > 0);
        let compas_exp = prepare(DatasetSpec::Compas, &PipelineConfig::fast(3)).unwrap();
        // Quantile graphs never connect same-group individuals.
        let groups = compas_exp.train.groups();
        for e in compas_exp.wf_train.edges() {
            assert_ne!(groups[e.i as usize], groups[e.j as usize]);
        }
    }

    #[test]
    fn evaluate_representation_produces_sane_metrics() {
        let exp = prepare(DatasetSpec::Synthetic, &PipelineConfig::fast(7)).unwrap();
        let eval = evaluate_representation("Original", &exp.x_train, &exp.x_test, &exp).unwrap();
        assert!(eval.auc > 0.5, "AUC {} should beat chance", eval.auc);
        assert!((0.0..=1.0).contains(&eval.consistency_wx));
        assert!((0.0..=1.0).contains(&eval.consistency_wf));
        assert_eq!(eval.predictions.len(), exp.test.len());
        assert_eq!(eval.group_report.per_group.len(), 2);
    }

    #[test]
    fn dataset_spec_names() {
        assert_eq!(DatasetSpec::Synthetic.name(), "Synthetic");
        assert_eq!(DatasetSpec::Crime.name(), "Crime");
        assert_eq!(DatasetSpec::Compas.name(), "Compas");
    }
}
