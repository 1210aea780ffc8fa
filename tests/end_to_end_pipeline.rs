//! Cross-crate integration tests: the full PFR pipeline (data → graphs →
//! representation → classifier → metrics) on each of the paper's datasets.

use pfr::core::{FitInputs, Pfr, PfrConfig};
use pfr::data::{compas, crime, split, synthetic, Dataset};
use pfr::graph::{fairness, SparseGraph};
use pfr::linalg::Matrix;
use pfr::metrics::{consistency, roc_auc, GroupFairnessReport};
use pfr::opt::LogisticRegression;

/// Runs the full pipeline and returns (AUC, Consistency(WF), DP gap).
fn run_pipeline(
    dataset: &Dataset,
    wf_builder: impl Fn(&Dataset) -> SparseGraph,
    gamma: f64,
) -> (f64, f64, f64) {
    let split = split::train_test_split(dataset, 0.3, 5).unwrap();
    let train = dataset.subset(&split.train).unwrap();
    let test = dataset.subset(&split.test).unwrap();

    let (train_raw, _) = train.features_with_protected().unwrap();
    let (test_raw, _) = test.features_with_protected().unwrap();
    let FitInputs {
        standardizer,
        x: x_train,
        wx,
    } = FitInputs::prepare(&train_raw, Some(train_raw.cols() - 1), 5).unwrap();
    let x_test = standardizer.transform(&test_raw).unwrap();
    let wf = wf_builder(&train);

    let model = Pfr::new(PfrConfig {
        gamma,
        dim: (x_train.cols() - 1).max(1),
        ..PfrConfig::default()
    })
    .fit(&x_train, &wx, &wf)
    .unwrap();
    let z_train = model.transform(&x_train).unwrap();
    let z_test = model.transform(&x_test).unwrap();

    let mut clf = LogisticRegression::default();
    clf.fit(&z_train, train.labels()).unwrap();
    let probs = clf.predict_proba(&z_test).unwrap();
    let preds: Vec<u8> = probs.iter().map(|&p| u8::from(p >= 0.5)).collect();
    let preds_f: Vec<f64> = preds.iter().map(|&p| p as f64).collect();

    let wf_test = wf_builder(&test);
    let auc = roc_auc(test.labels(), &probs).unwrap();
    let cons_wf = consistency(&wf_test, &preds_f).unwrap();
    let report =
        GroupFairnessReport::compute(test.labels(), &preds, test.groups(), Some(&probs)).unwrap();
    (auc, cons_wf, report.demographic_parity_gap())
}

fn quantile_wf(ds: &Dataset) -> SparseGraph {
    let scores: Vec<f64> = ds
        .side_information()
        .iter()
        .map(|s| s.unwrap_or(0.0))
        .collect();
    fairness::between_group_quantile_graph(ds.groups(), &scores, 5).unwrap()
}

fn rating_wf(ds: &Dataset) -> SparseGraph {
    fairness::rating_equivalence_graph(ds.side_information()).unwrap()
}

#[test]
fn synthetic_pipeline_beats_chance_and_is_fair() {
    let dataset = synthetic::generate_default(3).unwrap();
    let (auc, cons_wf, dp_gap) = run_pipeline(&dataset, quantile_wf, 0.9);
    assert!(auc > 0.85, "AUC {auc} too low on the synthetic data");
    assert!(cons_wf > 0.8, "Consistency(WF) {cons_wf} too low");
    assert!(dp_gap < 0.25, "demographic parity gap {dp_gap} too large");
}

#[test]
fn synthetic_gamma_zero_vs_one_shows_the_fairness_tradeoff() {
    let dataset = synthetic::generate_default(4).unwrap();
    let (_, cons_low, _) = run_pipeline(&dataset, quantile_wf, 0.0);
    let (_, cons_high, _) = run_pipeline(&dataset, quantile_wf, 1.0);
    assert!(
        cons_high >= cons_low - 0.02,
        "Consistency(WF) should not degrade when gamma goes from 0 ({cons_low}) to 1 ({cons_high})"
    );
}

#[test]
fn compas_like_pipeline_runs_at_reduced_scale() {
    let dataset = compas::generate(&compas::small_config(6)).unwrap();
    let (auc, cons_wf, _) = run_pipeline(&dataset, quantile_wf, 0.5);
    assert!(
        auc > 0.55,
        "AUC {auc} should beat chance on COMPAS-like data"
    );
    assert!(cons_wf > 0.5, "Consistency(WF) {cons_wf} unexpectedly low");
}

#[test]
fn crime_like_pipeline_runs_at_reduced_scale() {
    let dataset = crime::generate(&crime::small_config(7)).unwrap();
    let (auc, cons_wf, _) = run_pipeline(&dataset, rating_wf, 0.2);
    assert!(auc > 0.6, "AUC {auc} should beat chance on Crime-like data");
    assert!(cons_wf > 0.4, "Consistency(WF) {cons_wf} unexpectedly low");
}

#[test]
fn pfr_transform_generalizes_to_unseen_individuals() {
    // Fit on one synthetic sample, transform a *fresh* sample drawn with a
    // different seed — dimensions and numerical sanity must hold.
    let train = synthetic::generate_default(8).unwrap();
    let unseen = synthetic::generate_default(9).unwrap();
    let (train_raw, _) = train.features_with_protected().unwrap();
    let FitInputs {
        standardizer,
        x: x_train,
        wx,
    } = FitInputs::prepare(&train_raw, Some(train_raw.cols() - 1), 5).unwrap();
    let wf = quantile_wf(&train);
    let model = Pfr::new(PfrConfig {
        gamma: 0.5,
        dim: 2,
        ..PfrConfig::default()
    })
    .fit(&x_train, &wx, &wf)
    .unwrap();

    let (unseen_raw, _) = unseen.features_with_protected().unwrap();
    let x_unseen = standardizer.transform(&unseen_raw).unwrap();
    let z = model.transform(&x_unseen).unwrap();
    assert_eq!(z.shape(), (unseen.len(), 2));
    assert!(z.as_slice().iter().all(|v| v.is_finite()));
}

#[test]
fn projection_is_orthonormal_across_datasets() {
    for (dataset, wf) in [
        {
            let d = synthetic::generate_default(10).unwrap();
            let wf = quantile_wf(&d);
            (d, wf)
        },
        {
            let d = crime::generate(&crime::small_config(10)).unwrap();
            let wf = rating_wf(&d);
            (d, wf)
        },
    ] {
        let (raw, _) = dataset.features_with_protected().unwrap();
        let FitInputs { x, wx, .. } = FitInputs::prepare(&raw, Some(raw.cols() - 1), 5).unwrap();
        let model = Pfr::new(PfrConfig {
            gamma: 0.5,
            dim: 2,
            ..PfrConfig::default()
        })
        .fit(&x, &wx, &wf)
        .unwrap();
        let v = model.projection();
        let vtv = v.transpose_matmul(v).unwrap();
        let err = vtv.sub(&Matrix::identity(2)).unwrap().max_abs();
        assert!(
            err < 1e-8,
            "VᵀV far from identity on {}: {err}",
            dataset.name
        );
    }
}
