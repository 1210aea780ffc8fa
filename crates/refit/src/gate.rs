//! Shadow-scoring gate: the only path by which a candidate bundle may
//! reach production.
//!
//! The candidate is scored side-by-side with the serving model on the
//! held-back window slice — rows the candidate never trained on — and must
//! clear every check:
//!
//! * the bundle text **round-trips**: parses, materializes, and its
//!   classifier/projection dimensions are mutually consistent (a corrupted
//!   or hand-mangled candidate fails here, before any scoring);
//! * every candidate score is **finite** and a probability;
//! * **decision agreement** with the serving model at the serving
//!   threshold is at least `min_agreement`;
//! * the **mean absolute probability difference** stays below
//!   `max_mean_abs_diff` — agreement alone would accept a candidate whose
//!   probabilities wander right up to the decision boundary.
//!
//! A rejection is a normal, reported outcome (`pfr_refit_gated_total`),
//! not an error: drift that invalidates the serving model also
//! makes "agree with the serving model" the wrong bar, and operators see
//! the reason string instead of a silent swap.

use crate::error::RefitError;
use crate::Result;
use pfr_core::persistence::{bundle_from_string, ModelBundle};
use pfr_linalg::Matrix;
use pfr_serve::ServableModel;

/// Acceptance thresholds for [`ShadowGate::evaluate`].
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Minimum fraction of holdback rows on which candidate and serving
    /// decisions (at the serving threshold) agree.
    pub min_agreement: f64,
    /// Maximum mean absolute difference between candidate and serving
    /// probabilities over the holdback slice.
    pub max_mean_abs_diff: f64,
    /// Minimum holdback rows required to judge at all.
    pub min_rows: usize,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            min_agreement: 0.85,
            max_mean_abs_diff: 0.2,
            min_rows: 8,
        }
    }
}

/// Verdict of one shadow-scoring run.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Whether the candidate may ship.
    pub passed: bool,
    /// Decision agreement over the holdback slice.
    pub agreement: f64,
    /// Mean absolute probability difference over the holdback slice.
    pub mean_abs_diff: f64,
    /// Holdback rows judged.
    pub rows: usize,
    /// Human-readable rejection reason (`None` when passed).
    pub reason: Option<String>,
}

impl GateReport {
    fn reject(rows: usize, agreement: f64, mean_abs_diff: f64, reason: String) -> GateReport {
        GateReport {
            passed: false,
            agreement,
            mean_abs_diff,
            rows,
            reason: Some(reason),
        }
    }
}

/// Shadow-scoring gate with fixed thresholds.
#[derive(Debug, Clone)]
pub struct ShadowGate {
    config: GateConfig,
}

impl ShadowGate {
    /// Creates a gate after validating thresholds.
    pub fn new(config: GateConfig) -> Result<Self> {
        if !(0.0..=1.0).contains(&config.min_agreement) {
            return Err(RefitError::Config(format!(
                "min_agreement must lie in [0, 1], got {}",
                config.min_agreement
            )));
        }
        if config.max_mean_abs_diff < 0.0 {
            return Err(RefitError::Config(
                "max_mean_abs_diff must be non-negative".to_string(),
            ));
        }
        Ok(ShadowGate { config })
    }

    /// The configured thresholds.
    pub fn config(&self) -> &GateConfig {
        &self.config
    }

    /// Judges `candidate_text` against the serving bundle on the holdback
    /// slice. Structural invalidity (unparseable text, inconsistent
    /// sections, non-finite scores) rejects; it never errors, because a
    /// corrupt candidate is precisely what the gate exists to stop.
    pub fn evaluate(
        &self,
        serving: &ModelBundle,
        candidate_text: &str,
        holdback: &Matrix,
    ) -> Result<GateReport> {
        let rows = holdback.rows();
        if rows < self.config.min_rows {
            return Ok(GateReport::reject(
                rows,
                0.0,
                0.0,
                format!(
                    "holdback has {rows} rows but the gate requires {}",
                    self.config.min_rows
                ),
            ));
        }

        // Round-trip the candidate through the persistence layer and the
        // serving materialization — the same two parsers a backend will
        // run on PUSH — so anything a backend would reject dies here.
        let candidate = match bundle_from_string(candidate_text) {
            Ok(bundle) => bundle,
            Err(e) => {
                return Ok(GateReport::reject(
                    rows,
                    0.0,
                    0.0,
                    format!("candidate bundle does not parse: {e}"),
                ))
            }
        };
        let candidate_model = match ServableModel::from_bundle("shadow-candidate", &candidate) {
            Ok(model) => model,
            Err(e) => {
                return Ok(GateReport::reject(
                    rows,
                    0.0,
                    0.0,
                    format!("candidate bundle does not materialize: {e}"),
                ))
            }
        };
        let serving_model = ServableModel::from_bundle("shadow-serving", serving)?;
        if candidate_model.num_features() != serving_model.num_features() {
            return Ok(GateReport::reject(
                rows,
                0.0,
                0.0,
                format!(
                    "candidate expects {} features but serving expects {}",
                    candidate_model.num_features(),
                    serving_model.num_features()
                ),
            ));
        }

        let serving_scores = serving_model.score_batch(holdback)?;
        let candidate_scores = match candidate_model.score_batch(holdback) {
            Ok(scores) => scores,
            Err(e) => {
                return Ok(GateReport::reject(
                    rows,
                    0.0,
                    0.0,
                    format!("candidate cannot score the holdback slice: {e}"),
                ))
            }
        };
        if candidate_scores
            .iter()
            .any(|s| !s.is_finite() || !(0.0..=1.0).contains(s))
        {
            return Ok(GateReport::reject(
                rows,
                0.0,
                0.0,
                "candidate produced non-finite or out-of-range scores".to_string(),
            ));
        }

        let threshold = serving_model.threshold();
        let mut agree = 0usize;
        let mut abs_diff = 0.0;
        for (s, c) in serving_scores.iter().zip(candidate_scores.iter()) {
            if (s >= &threshold) == (c >= &threshold) {
                agree += 1;
            }
            abs_diff += (s - c).abs();
        }
        let agreement = agree as f64 / rows as f64;
        let mean_abs_diff = abs_diff / rows as f64;

        if agreement < self.config.min_agreement {
            return Ok(GateReport::reject(
                rows,
                agreement,
                mean_abs_diff,
                format!(
                    "agreement {agreement:.3} below the {:.3} floor",
                    self.config.min_agreement
                ),
            ));
        }
        if mean_abs_diff > self.config.max_mean_abs_diff {
            return Ok(GateReport::reject(
                rows,
                agreement,
                mean_abs_diff,
                format!(
                    "mean |Δp| {mean_abs_diff:.3} above the {:.3} ceiling",
                    self.config.max_mean_abs_diff
                ),
            ));
        }
        Ok(GateReport {
            passed: true,
            agreement,
            mean_abs_diff,
            rows,
            reason: None,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pfr_core::persistence::bundle_to_string;
    use pfr_core::persistence::{ClassifierSection, StandardizerParams};
    use pfr_core::{Pfr, PfrConfig};
    use pfr_graph::{KnnGraphBuilder, SparseGraph};

    pub(crate) fn toy_bundle() -> (ModelBundle, Matrix) {
        let x = Matrix::from_rows(&[
            vec![0.0, 0.1, 1.0],
            vec![0.5, 0.4, 0.0],
            vec![1.0, 0.9, 1.0],
            vec![5.0, 5.1, 0.0],
            vec![5.5, 5.4, 1.0],
            vec![6.0, 5.9, 0.0],
            vec![0.2, 0.3, 0.0],
            vec![5.8, 5.6, 1.0],
        ])
        .unwrap();
        let wx = KnnGraphBuilder::new(2).build(&x).unwrap();
        let mut wf = SparseGraph::new(8);
        wf.add_edge(0, 3, 1.0).unwrap();
        wf.add_edge(2, 5, 1.0).unwrap();
        wf.add_edge(6, 7, 1.0).unwrap();
        let model = Pfr::new(PfrConfig {
            gamma: 0.6,
            dim: 2,
            ..PfrConfig::default()
        })
        .fit(&x, &wx, &wf)
        .unwrap();
        let bundle = ModelBundle {
            model,
            standardizer: Some(StandardizerParams {
                means: vec![3.0, 3.0, 0.5],
                stds: vec![2.5, 2.5, 0.5],
            }),
            classifier: Some(ClassifierSection {
                threshold: 0.5,
                text: "pfr-logreg-v1 intercept=0.25 features=2\nweights 1.5 -0.75\n".to_string(),
            }),
        };
        (bundle, x)
    }

    #[test]
    fn identical_candidate_passes_with_full_agreement() {
        let (bundle, x) = toy_bundle();
        let gate = ShadowGate::new(GateConfig {
            min_rows: 4,
            ..GateConfig::default()
        })
        .unwrap();
        let report = gate
            .evaluate(&bundle, &bundle_to_string(&bundle), &x)
            .unwrap();
        assert!(report.passed, "reason: {:?}", report.reason);
        assert_eq!(report.agreement, 1.0);
        assert!(report.mean_abs_diff < 1e-12);
    }

    #[test]
    fn corrupted_candidate_text_is_rejected_not_an_error() {
        let (bundle, x) = toy_bundle();
        let gate = ShadowGate::new(GateConfig {
            min_rows: 4,
            ..GateConfig::default()
        })
        .unwrap();
        let mut text = bundle_to_string(&bundle);
        // Flip bytes in the middle of the projection section.
        let at = text.len() / 2;
        text.replace_range(at..at + 4, "!!@@");
        let report = gate.evaluate(&bundle, &text, &x).unwrap();
        assert!(!report.passed);
        assert!(report.reason.unwrap().contains("parse"));
    }

    #[test]
    fn dimensionally_inconsistent_candidate_is_rejected() {
        let (bundle, x) = toy_bundle();
        let gate = ShadowGate::new(GateConfig {
            min_rows: 4,
            ..GateConfig::default()
        })
        .unwrap();
        let mut broken = bundle.clone();
        // Classifier expects 3 features, projection produces 2.
        broken.classifier = Some(ClassifierSection {
            threshold: 0.5,
            text: "pfr-logreg-v1 intercept=0 features=3\nweights 1 2 3\n".to_string(),
        });
        let report = gate
            .evaluate(&bundle, &bundle_to_string(&broken), &x)
            .unwrap();
        assert!(!report.passed);
        assert!(report.reason.unwrap().contains("materialize"));
    }

    #[test]
    fn disagreeing_candidate_is_rejected() {
        let (bundle, x) = toy_bundle();
        let gate = ShadowGate::new(GateConfig {
            min_rows: 4,
            ..GateConfig::default()
        })
        .unwrap();
        let mut inverted = bundle.clone();
        // Negate the head: decisions flip on every confident row.
        inverted.classifier = Some(ClassifierSection {
            threshold: 0.5,
            text: "pfr-logreg-v1 intercept=-0.25 features=2\nweights -1.5 0.75\n".to_string(),
        });
        let report = gate
            .evaluate(&bundle, &bundle_to_string(&inverted), &x)
            .unwrap();
        assert!(!report.passed);
    }

    #[test]
    fn undersized_holdback_is_rejected() {
        let (bundle, x) = toy_bundle();
        let gate = ShadowGate::new(GateConfig::default()).unwrap();
        let tiny = x.select_rows(&[0, 1]).unwrap();
        let report = gate
            .evaluate(&bundle, &bundle_to_string(&bundle), &tiny)
            .unwrap();
        assert!(!report.passed);
        assert!(report.reason.unwrap().contains("holdback"));
    }

    #[test]
    fn bad_thresholds_are_rejected_at_construction() {
        assert!(ShadowGate::new(GateConfig {
            min_agreement: 1.5,
            ..GateConfig::default()
        })
        .is_err());
        assert!(ShadowGate::new(GateConfig {
            max_mean_abs_diff: -0.1,
            ..GateConfig::default()
        })
        .is_err());
    }
}
