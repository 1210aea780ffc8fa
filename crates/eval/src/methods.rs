//! The method registry: every representation learner the paper compares,
//! behind the uniform [`RepresentationMethod`] trait, plus the PFR adapter
//! that supplies the fairness graph at fit time.

use crate::pipeline::{evaluate_representation, Evaluation, InputSpace, PreparedExperiment};
use crate::Result;
use pfr_baselines::{
    FitContext, IFair, IFairConfig, Lfr, LfrConfig, OriginalRepresentation, Representation,
    RepresentationMethod,
};
use pfr_core::{Pfr, PfrConfig};
use pfr_graph::SparseGraph;
use pfr_linalg::Matrix;

/// PFR wrapped as a [`RepresentationMethod`]. The fairness graph (over the
/// training individuals, aligned with the rows of the training matrix) is
/// captured at construction time because the baseline trait has no slot for
/// it — exactly mirroring how PFR consumes strictly more side information
/// than the baselines. It is borrowed, the way [`FitContext`] borrows `wx`:
/// a Compas-sized quantile graph is tens of megabytes.
pub struct PfrMethod<'a> {
    config: PfrConfig,
    wf_train: &'a SparseGraph,
}

impl<'a> PfrMethod<'a> {
    /// Creates the adapter from a PFR configuration and the training-split
    /// fairness graph.
    pub fn new(config: PfrConfig, wf_train: &'a SparseGraph) -> Self {
        PfrMethod { config, wf_train }
    }
}

struct FittedPfrAdapter {
    model: pfr_core::PfrModel,
}

impl Representation for FittedPfrAdapter {
    fn transform(&self, x: &Matrix) -> pfr_baselines::Result<Matrix> {
        self.model
            .transform(x)
            .map_err(|e| pfr_baselines::BaselineError::Optimization(e.to_string()))
    }

    fn output_dim(&self) -> usize {
        self.model.dim()
    }
}

impl RepresentationMethod for PfrMethod<'_> {
    fn name(&self) -> String {
        "PFR".to_string()
    }

    fn fit(&self, ctx: &FitContext<'_>) -> pfr_baselines::Result<Box<dyn Representation>> {
        ctx.validate()?;
        let model = Pfr::new(self.config.clone())
            .fit(ctx.x, ctx.wx, self.wf_train)
            .map_err(|e| pfr_baselines::BaselineError::Optimization(e.to_string()))?;
        Ok(Box::new(FittedPfrAdapter { model }))
    }
}

/// Default PFR configuration for a dataset with `m` (standardized) features:
/// keep most of the input dimensionality but leave room for the fairness
/// constraints to reshape the space.
pub fn default_pfr_config(num_features: usize, gamma: f64) -> PfrConfig {
    PfrConfig {
        gamma,
        dim: num_features.saturating_sub(1).max(1).min(num_features),
        ..PfrConfig::default()
    }
}

/// Default iFair configuration used by the experiments (matching the spirit
/// of the original paper's settings: K = 10 prototypes).
pub fn default_ifair_config(fast: bool) -> IFairConfig {
    IFairConfig {
        num_prototypes: 10,
        max_iterations: if fast { 100 } else { 300 },
        ..IFairConfig::default()
    }
}

/// Default LFR configuration used by the experiments (Zemel et al. defaults:
/// K = 10, A_x = 0.01, A_y = 1, A_z = 0.5).
pub fn default_lfr_config(fast: bool) -> LfrConfig {
    LfrConfig {
        num_prototypes: 10,
        max_iterations: if fast { 100 } else { 300 },
        ..LfrConfig::default()
    }
}

/// Fits a representation method on the (standardized) training features of
/// the requested input space and evaluates the downstream classifier on the
/// matching test features.
pub fn run_method(
    method: &dyn RepresentationMethod,
    label: &str,
    exp: &PreparedExperiment,
    space: InputSpace,
) -> Result<Evaluation> {
    let (x_train, x_test) = exp.matrices(space);
    let ctx = FitContext {
        x: x_train,
        labels: exp.train.labels(),
        groups: exp.train.groups(),
        wx: &exp.wx_train,
    };
    let fitted = method.fit(&ctx)?;
    let z_train = fitted.transform(x_train)?;
    let z_test = fitted.transform(x_test)?;
    evaluate_representation(label, &z_train, &z_test, exp)
}

/// One entry of the method line-up: display label, the method, and the input
/// space it is fitted on. The PFR entry borrows the experiment's fairness
/// graph, hence the lifetime.
pub type LineupEntry<'a> = (String, Box<dyn RepresentationMethod + 'a>, InputSpace);

/// Builds the standard method line-up for an experiment.
///
/// * The Original baseline always sees the masked features; the
///   representation learners (iFair, LFR, PFR) see the protected attribute
///   as well (the paper masks it only for Original and `WX`).
/// * On the synthetic dataset the paper compares the plain methods
///   (`augmented = false`); on Crime and Compas every baseline additionally
///   gets the fairness side-information as an extra feature (`+` suffix)
///   while PFR uses the fairness graph directly.
pub fn standard_lineup(
    exp: &PreparedExperiment,
    gamma: f64,
    augmented: bool,
    fast: bool,
) -> Vec<LineupEntry<'_>> {
    let suffix = if augmented { " +" } else { "" };
    let (original_space, learner_space) = if augmented {
        (InputSpace::MaskedAugmented, InputSpace::ProtectedAugmented)
    } else {
        (InputSpace::Masked, InputSpace::Protected)
    };
    let pfr_space = InputSpace::Protected;
    let pfr_features = exp.matrices(pfr_space).0.cols();
    let mut lineup: Vec<LineupEntry> = Vec::new();
    lineup.push((
        format!("Original{suffix}"),
        Box::new(OriginalRepresentation),
        original_space,
    ));
    lineup.push((
        format!("iFair{suffix}"),
        Box::new(IFair::new(default_ifair_config(fast))),
        learner_space,
    ));
    lineup.push((
        format!("LFR{suffix}"),
        Box::new(Lfr::new(default_lfr_config(fast))),
        learner_space,
    ));
    lineup.push((
        "PFR".to_string(),
        Box::new(PfrMethod::new(
            default_pfr_config(pfr_features, gamma),
            &exp.wf_train,
        )),
        pfr_space,
    ));
    lineup
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{prepare, DatasetSpec, PipelineConfig};

    #[test]
    fn pfr_method_fits_through_the_trait() {
        let exp = prepare(DatasetSpec::Synthetic, &PipelineConfig::fast(5)).unwrap();
        let dims = exp.x_train_prot.cols();
        let method = PfrMethod::new(default_pfr_config(dims, 0.5), &exp.wf_train);
        assert_eq!(method.name(), "PFR");
        let eval = run_method(&method, "PFR", &exp, InputSpace::Protected).unwrap();
        assert!(eval.auc > 0.5);
        assert_eq!(eval.method, "PFR");
    }

    #[test]
    fn standard_lineup_contains_all_methods() {
        let exp = prepare(DatasetSpec::Synthetic, &PipelineConfig::fast(6)).unwrap();
        let lineup = standard_lineup(&exp, 0.5, false, true);
        let names: Vec<&str> = lineup.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, vec!["Original", "iFair", "LFR", "PFR"]);
        // Original is masked, the learners see the protected attribute.
        assert_eq!(lineup[0].2, InputSpace::Masked);
        assert_eq!(lineup[1].2, InputSpace::Protected);
        let augmented = standard_lineup(&exp, 0.5, true, true);
        assert!(augmented.iter().any(|(n, _, _)| n == "Original +"));
        assert!(augmented.iter().any(|(n, _, _)| n == "PFR"));
        assert_eq!(augmented[1].2, InputSpace::ProtectedAugmented);
    }

    #[test]
    fn default_pfr_config_dimensions() {
        assert_eq!(default_pfr_config(2, 0.3).dim, 1);
        assert_eq!(default_pfr_config(10, 0.3).dim, 9);
        assert_eq!(default_pfr_config(1, 0.3).dim, 1);
    }

    #[test]
    fn augmented_run_uses_the_extra_column() {
        let exp = prepare(DatasetSpec::Crime, &PipelineConfig::fast(8)).unwrap();
        let eval = run_method(
            &OriginalRepresentation,
            "Original +",
            &exp,
            InputSpace::MaskedAugmented,
        )
        .unwrap();
        assert!(eval.auc > 0.4);
    }
}
