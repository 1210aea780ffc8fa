//! Hyper-parameter tuning by grid search with stratified k-fold
//! cross-validation, mirroring the paper's protocol ("5-fold cross-validation
//! ... to find the best hyper-parameters for each model via grid search",
//! Section 4.1).
//!
//! The search optimizes a scalar selection criterion computed on the
//! validation folds. The paper tunes for the best achievable trade-off
//! between utility and individual fairness; the default criterion here is
//! `AUC + Consistency(WF)` which reproduces that intent, and a pure-AUC
//! criterion is provided for the baselines.

use crate::pipeline::{evaluate_representation, PreparedExperiment};
use crate::Result;
use pfr_baselines::FitContext;
use pfr_core::{FitInputs, Pfr, PfrConfig, PfrObjective};
use pfr_data::split::k_fold;
use pfr_graph::LaplacianKind;
use pfr_metrics::{consistency, roc_auc};
use pfr_opt::{LogisticRegression, LogisticRegressionConfig};

/// What the grid search optimizes on the validation folds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionCriterion {
    /// Validation AUC only.
    Auc,
    /// Validation AUC plus consistency w.r.t. the fairness graph — the
    /// utility / individual-fairness trade-off the paper tunes for.
    AucPlusConsistencyWf,
}

/// Result of a grid search over PFR's γ.
#[derive(Debug, Clone)]
pub struct GammaSearchResult {
    /// The selected γ.
    pub best_gamma: f64,
    /// Mean validation score of the selected γ.
    pub best_score: f64,
    /// `(γ, mean validation score)` for every candidate.
    pub scores: Vec<(f64, f64)>,
}

/// Cross-validated grid search over PFR's γ on the training split of a
/// prepared experiment.
pub fn search_pfr_gamma(
    exp: &PreparedExperiment,
    candidates: &[f64],
    dim: usize,
    folds: usize,
    criterion: SelectionCriterion,
    seed: u64,
) -> Result<GammaSearchResult> {
    if candidates.is_empty() {
        return Err(crate::EvalError::InvalidParameter(
            "the γ grid must not be empty".to_string(),
        ));
    }
    let splits = k_fold(&exp.train, folds, seed)?;
    // Everything up to the two quadratic forms is γ-free, so it happens once
    // per fold; each grid point then costs one small eigensolve and one
    // classifier.
    let mut totals = vec![0.0; candidates.len()];
    for fold in &splits {
        let train = exp.train.subset(&fold.train)?;
        let valid = exp.train.subset(&fold.test)?;
        // PFR sees the protected attribute (appended last), WX does not.
        let (train_prot_raw, _) = train.features_with_protected()?;
        let (valid_prot_raw, _) = valid.features_with_protected()?;
        let inputs = FitInputs::prepare(&train_prot_raw, Some(train_prot_raw.cols() - 1), 5)?;
        let x_valid = inputs.standardizer.transform(&valid_prot_raw)?;
        let wf = exp.spec.build_fairness_graph(&train, 5)?;
        let objective =
            PfrObjective::assemble(&inputs.x, &inputs.wx, &wf, LaplacianKind::default())?;
        let wf_valid = match criterion {
            SelectionCriterion::Auc => None,
            SelectionCriterion::AucPlusConsistencyWf => {
                Some(exp.spec.build_fairness_graph(&valid, 5)?)
            }
        };
        for (total, &gamma) in totals.iter_mut().zip(candidates) {
            let config = PfrConfig {
                gamma,
                dim: dim.min(inputs.x.cols()).max(1),
                ..PfrConfig::default()
            };
            let model = Pfr::new(config).fit_objective(&objective)?;
            let z_train = model.transform(&inputs.x)?;
            let z_valid = model.transform(&x_valid)?;
            let mut clf = LogisticRegression::new(LogisticRegressionConfig::default());
            clf.fit(&z_train, train.labels())?;
            let probs = clf.predict_proba(&z_valid)?;
            let mut score = roc_auc(valid.labels(), &probs).unwrap_or(0.5);
            if let Some(wf_valid) = &wf_valid {
                let preds: Vec<f64> = probs.iter().map(|&p| f64::from(p >= 0.5)).collect();
                score += consistency(wf_valid, &preds)?;
            }
            *total += score;
        }
    }
    let scores: Vec<(f64, f64)> = candidates
        .iter()
        .zip(totals)
        .map(|(&gamma, total)| (gamma, total / splits.len() as f64))
        .collect();
    let (best_gamma, best_score) = scores
        .iter()
        .cloned()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .expect("grid is non-empty");
    Ok(GammaSearchResult {
        best_gamma,
        best_score,
        scores,
    })
}

/// Cross-validated evaluation of a fixed baseline method (helper used by the
/// hyper-parameter sweeps in the ablation experiments).
pub fn cross_validated_auc(
    exp: &PreparedExperiment,
    method: &dyn pfr_baselines::RepresentationMethod,
    folds: usize,
    seed: u64,
) -> Result<f64> {
    let splits = k_fold(&exp.train, folds, seed)?;
    let mut total = 0.0;
    for fold in &splits {
        let train = exp.train.subset(&fold.train)?;
        let valid = exp.train.subset(&fold.test)?;
        let inputs = FitInputs::prepare(train.features(), None, 5)?;
        let x_valid = inputs.standardizer.transform(valid.features())?;
        let ctx = FitContext {
            x: &inputs.x,
            labels: train.labels(),
            groups: train.groups(),
            wx: &inputs.wx,
        };
        let fitted = method.fit(&ctx)?;
        let z_train = fitted.transform(&inputs.x)?;
        let z_valid = fitted.transform(&x_valid)?;
        let mut clf = LogisticRegression::new(LogisticRegressionConfig::default());
        clf.fit(&z_train, train.labels())?;
        let probs = clf.predict_proba(&z_valid)?;
        total += roc_auc(valid.labels(), &probs).unwrap_or(0.5);
    }
    Ok(total / splits.len() as f64)
}

/// Convenience: evaluates the final, tuned PFR configuration on the held-out
/// test split of a prepared experiment.
pub fn evaluate_tuned_pfr(
    exp: &PreparedExperiment,
    gamma: f64,
    dim: usize,
) -> Result<crate::pipeline::Evaluation> {
    let config = PfrConfig {
        gamma,
        dim: dim.min(exp.x_train_prot.cols()).max(1),
        ..PfrConfig::default()
    };
    let model = Pfr::new(config).fit(&exp.x_train_prot, &exp.wx_train, &exp.wf_train)?;
    let z_train = model.transform(&exp.x_train_prot)?;
    let z_test = model.transform(&exp.x_test_prot)?;
    evaluate_representation("PFR", &z_train, &z_test, exp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{prepare, DatasetSpec, PipelineConfig};

    #[test]
    fn gamma_search_returns_a_candidate_from_the_grid() {
        let exp = prepare(DatasetSpec::Synthetic, &PipelineConfig::fast(2)).unwrap();
        let result = search_pfr_gamma(
            &exp,
            &[0.0, 0.5, 1.0],
            1,
            3,
            SelectionCriterion::AucPlusConsistencyWf,
            7,
        )
        .unwrap();
        assert!([0.0, 0.5, 1.0].contains(&result.best_gamma));
        assert_eq!(result.scores.len(), 3);
        assert!(
            result.best_score >= result.scores.iter().map(|s| s.1).fold(f64::MIN, f64::max) - 1e-12
        );
    }

    #[test]
    fn empty_grid_is_rejected() {
        let exp = prepare(DatasetSpec::Synthetic, &PipelineConfig::fast(2)).unwrap();
        assert!(search_pfr_gamma(&exp, &[], 1, 3, SelectionCriterion::Auc, 7).is_err());
    }

    #[test]
    fn cross_validated_auc_beats_chance_on_synthetic_data() {
        let exp = prepare(DatasetSpec::Synthetic, &PipelineConfig::fast(4)).unwrap();
        let auc = cross_validated_auc(&exp, &pfr_baselines::OriginalRepresentation, 3, 5).unwrap();
        assert!(auc > 0.6, "cross-validated AUC {auc} too low");
    }

    #[test]
    fn tuned_pfr_evaluates_on_test_split() {
        let exp = prepare(DatasetSpec::Synthetic, &PipelineConfig::fast(6)).unwrap();
        let eval = evaluate_tuned_pfr(&exp, 0.5, 1).unwrap();
        assert_eq!(eval.method, "PFR");
        assert!(eval.auc > 0.5);
    }
}
