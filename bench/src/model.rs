//! Fitting the wide model and turning it into what the serving workloads
//! push: bundle text A, an alternate bundle B of the same size, and the
//! in-harness reference models every returned score is compared against.

use crate::data::{self, Requests};
use pfr::core::persistence::{bundle_from_string, bundle_to_string, ModelBundle};
use pfr::data::Dataset;
use pfr::graph::SparseGraph;
use pfr::opt::{LogisticRegression, LogisticRegressionConfig};
use pfr::pipeline::{FairPipeline, FairPipelineConfig};
use pfr::serve::ServableModel;
use std::time::Instant;

/// The configuration every wide fit uses. The protected flag is already
/// column 0 of the wide features, so the pipeline must not append it again.
pub fn wide_config() -> FairPipelineConfig {
    FairPipelineConfig {
        dim: Some(data::WIDE_DIM),
        use_protected_attribute: false,
        ..FairPipelineConfig::default()
    }
}

/// One cold fit of the wide set; returns the bundle and the seconds taken.
pub fn fit_wide(dataset: &Dataset, wf: &SparseGraph) -> (ModelBundle, f64) {
    let start = Instant::now();
    let fitted = FairPipeline::new(wide_config())
        .fit(dataset, wf)
        .expect("wide fit succeeds");
    let seconds = start.elapsed().as_secs_f64();
    (fitted.into_bundle().expect("bundle assembles"), seconds)
}

/// Median µs of one bundle serialization and parse: what a push pays
/// before and after the wire.
pub fn bundle_codec_us(bundle: &ModelBundle) -> f64 {
    crate::stats::median_ns(9, || {
        let text = bundle_to_string(bundle);
        std::hint::black_box(bundle_from_string(&text).expect("bundle parses"));
    }) / 1e3
}

/// Bundle A with its classifier intercept moved: same size and shape,
/// different score for every vector.
fn alternate(bundle: &ModelBundle) -> ModelBundle {
    let mut alt = bundle.clone();
    let section = alt.classifier.as_mut().expect("bundle has a classifier");
    let head = LogisticRegression::from_text(&section.text).expect("classifier text parses");
    let weights = head.weights().expect("classifier is fitted").to_vec();
    section.text = LogisticRegression::from_parts(
        LogisticRegressionConfig::default(),
        weights,
        head.intercept() + 0.25,
    )
    .and_then(|moved| moved.to_text())
    .expect("alternate classifier serializes");
    alt
}

/// Everything the serving workloads derive from one wide fit.
pub struct Served {
    pub bundle: ModelBundle,
    pub text_a: String,
    pub text_b: String,
    pub reference_a: ServableModel,
    pub reference_b: ServableModel,
    pub requests: Requests,
    /// Seconds of the cold fit alone.
    pub fit_s: f64,
    /// Seconds of everything `generate` did.
    pub generate_s: f64,
}

impl Served {
    pub fn generate(seed: u64) -> Served {
        let start = Instant::now();
        let (dataset, wf) = data::wide_dataset(seed);
        let (bundle, fit_s) = fit_wide(&dataset, &wf);
        let bundle_b = alternate(&bundle);
        Served {
            text_a: bundle_to_string(&bundle),
            text_b: bundle_to_string(&bundle_b),
            reference_a: ServableModel::from_bundle("a", &bundle).expect("bundle A serves"),
            reference_b: ServableModel::from_bundle("b", &bundle_b).expect("bundle B serves"),
            requests: Requests::new(dataset.features().clone()),
            bundle,
            fit_s,
            generate_s: start.elapsed().as_secs_f64(),
        }
    }
}
