//! Recidivism prediction on the COMPAS-like dataset with a between-group
//! quantile fairness graph built from within-group decile scores
//! (Section 4.3 of the paper).
//!
//! This example shows the *incomparable groups* elicitation model: human
//! judges cannot fairly compare individuals across groups, but within-group
//! risk rankings (the decile scores) are available, so individuals in the
//! same risk quantile of their own group are linked as equally deserving.
//!
//! ```bash
//! cargo run --release --example recidivism
//! ```

use pfr::core::{FitInputs, Pfr, PfrConfig};
use pfr::data::{compas, split};
use pfr::graph::components::graph_stats;
use pfr::graph::fairness;
use pfr::metrics::{consistency, roc_auc, GroupFairnessReport};
use pfr::opt::LogisticRegression;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A quarter-size COMPAS-like dataset keeps the example snappy; switch to
    // `compas::generate_default(42)` for the full 8803 offenders.
    let dataset = compas::generate(&compas::CompasConfig {
        n_non_protected: 1054,
        n_protected: 1146,
        seed: 42,
        ..compas::CompasConfig::default()
    })?;
    println!(
        "dataset: {} ({} offenders, base rates {:.2} / {:.2})",
        dataset.name,
        dataset.len(),
        dataset.base_rate(0).unwrap_or(0.0),
        dataset.base_rate(1).unwrap_or(0.0)
    );

    let split = split::train_test_split(&dataset, 0.3, 7)?;
    let train = dataset.subset(&split.train)?;
    let test = dataset.subset(&split.test)?;

    // Fairness graph: within-group decile scores → between-group quantile
    // graph (Definitions 2 and 3).
    let decile_scores: Vec<f64> = train
        .side_information()
        .iter()
        .map(|s| s.expect("every offender has a decile score"))
        .collect();
    let wf = fairness::between_group_quantile_graph(train.groups(), &decile_scores, 10)?;
    let stats = graph_stats(&wf);
    println!(
        "fairness graph: {} edges over {} offenders ({} covered, {} components)",
        stats.num_edges, stats.num_nodes, stats.covered_nodes, stats.num_components
    );

    // Representation learning input includes the protected attribute
    // (appended last); WX is built without it.
    let (train_raw, _) = train.features_with_protected()?;
    let (test_raw, _) = test.features_with_protected()?;
    let FitInputs {
        standardizer,
        x: x_train,
        wx,
    } = FitInputs::prepare(&train_raw, Some(train_raw.cols() - 1), 10)?;
    let x_test = standardizer.transform(&test_raw)?;

    for &gamma in &[0.0, 0.5, 1.0] {
        let model = Pfr::new(PfrConfig {
            gamma,
            dim: x_train.cols() - 1,
            ..PfrConfig::default()
        })
        .fit(&x_train, &wx, &wf)?;
        let mut clf = LogisticRegression::default();
        clf.fit(&model.transform(&x_train)?, train.labels())?;
        let probs = clf.predict_proba(&model.transform(&x_test)?)?;
        let preds: Vec<u8> = probs.iter().map(|&p| u8::from(p >= 0.5)).collect();
        let preds_f: Vec<f64> = preds.iter().map(|&p| p as f64).collect();

        let test_deciles: Vec<f64> = test
            .side_information()
            .iter()
            .map(|s| s.unwrap_or(0.0))
            .collect();
        let wf_test = fairness::between_group_quantile_graph(test.groups(), &test_deciles, 10)?;
        let report =
            GroupFairnessReport::compute(test.labels(), &preds, test.groups(), Some(&probs))?;
        println!(
            "gamma = {gamma:.1}: AUC = {:.3}, Consistency(WF) = {:.3}, DP gap = {:.3}, EqOdds gap = {:.3}",
            roc_auc(test.labels(), &probs)?,
            consistency(&wf_test, &preds_f)?,
            report.demographic_parity_gap(),
            report.equalized_odds_gap()
        );
    }
    println!("\nHigher gamma puts more weight on the decile-score fairness judgments,");
    println!("trading a little utility for more consistent treatment of equally risky");
    println!("offenders across the two groups.");
    Ok(())
}
