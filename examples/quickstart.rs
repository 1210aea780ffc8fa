//! Quickstart: learn a Pairwise Fair Representation on the paper's synthetic
//! admissions data and evaluate a downstream classifier.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use pfr::core::{FitInputs, Pfr, PfrConfig};
use pfr::data::{split, synthetic};
use pfr::graph::fairness;
use pfr::metrics::{consistency, roc_auc, GroupFairnessReport};
use pfr::opt::LogisticRegression;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Data: the paper's synthetic US-admissions scenario (600 candidates,
    //    two demographic groups with a shifted SAT distribution).
    let dataset = synthetic::generate_default(42)?;
    println!("dataset: {} ({} records)", dataset.name, dataset.len());

    let split = split::train_test_split(&dataset, 0.3, 42)?;
    let train = dataset.subset(&split.train)?;
    let test = dataset.subset(&split.test)?;

    // 2. Features and WX: the representation learner sees GPA, SAT and the
    //    protected attribute (appended last), standardized on the training
    //    split only; WX is a k-NN RBF graph over the same rows without it.
    let (train_x_raw, _) = train.features_with_protected()?;
    let (test_x_raw, _) = test.features_with_protected()?;
    let protected = train_x_raw.cols() - 1;
    let FitInputs {
        standardizer,
        x: x_train,
        wx,
    } = FitInputs::prepare(&train_x_raw, Some(protected), 10)?;
    let x_test = standardizer.transform(&test_x_raw)?;

    // 3. WF links equally deserving candidates across groups (between-group
    //    quantile graph over the within-group deservingness ranking).
    let scores: Vec<f64> = train
        .side_information()
        .iter()
        .map(|s| s.unwrap_or(0.0))
        .collect();
    let wf = fairness::between_group_quantile_graph(train.groups(), &scores, 10)?;
    println!(
        "graphs: WX has {} edges, WF has {} edges",
        wx.num_edges(),
        wf.num_edges()
    );

    // 4. Learn the pairwise fair representation.
    let model = Pfr::new(PfrConfig {
        gamma: 0.9,
        dim: 2,
        ..PfrConfig::default()
    })
    .fit(&x_train, &wx, &wf)?;
    println!(
        "PFR fitted: objective = {:.6}, eigenvalues = {:?}",
        model.objective(),
        model
            .eigenvalues()
            .iter()
            .map(|v| (v * 1e6).round() / 1e6)
            .collect::<Vec<_>>()
    );

    let z_train = model.transform(&x_train)?;
    let z_test = model.transform(&x_test)?;

    // 5. Train the out-of-the-box downstream classifier on the fair
    //    representation and evaluate it on unseen individuals.
    let mut clf = LogisticRegression::default();
    clf.fit(&z_train, train.labels())?;
    let probs = clf.predict_proba(&z_test)?;
    let preds: Vec<u8> = probs.iter().map(|&p| u8::from(p >= 0.5)).collect();
    let preds_f: Vec<f64> = preds.iter().map(|&p| p as f64).collect();

    let auc = roc_auc(test.labels(), &probs)?;
    let wx_test = FitInputs::prepare(&test_x_raw, Some(protected), 10)?.wx;
    let test_scores: Vec<f64> = test
        .side_information()
        .iter()
        .map(|s| s.unwrap_or(0.0))
        .collect();
    let wf_test = fairness::between_group_quantile_graph(test.groups(), &test_scores, 10)?;

    println!("\n=== downstream evaluation (test split) ===");
    println!("AUC                = {auc:.3}");
    println!(
        "Consistency (WX)   = {:.3}",
        consistency(&wx_test, &preds_f)?
    );
    println!(
        "Consistency (WF)   = {:.3}",
        consistency(&wf_test, &preds_f)?
    );
    let report = GroupFairnessReport::compute(test.labels(), &preds, test.groups(), Some(&probs))?;
    println!(
        "Demographic parity gap = {:.3}, equalized-odds gap = {:.3}",
        report.demographic_parity_gap(),
        report.equalized_odds_gap()
    );
    for g in &report.per_group {
        println!(
            "  group {}: P(Y=1) = {:.3}, FPR = {:?}, FNR = {:?}",
            g.group,
            g.positive_prediction_rate,
            g.false_positive_rate.map(|v| (v * 1000.0).round() / 1000.0),
            g.false_negative_rate.map(|v| (v * 1000.0).round() / 1000.0),
        );
    }
    Ok(())
}
