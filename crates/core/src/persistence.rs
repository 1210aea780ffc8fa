//! Saving and loading fitted PFR models.
//!
//! A fitted linear PFR model is just its projection matrix plus a handful of
//! hyper-parameters, so it serializes to a small, human-readable text format
//! (one header line, one line per projection row). This lets a model trained
//! offline on judgments-enriched data be shipped to a decision service that
//! only ever sees regular attribute vectors — the deployment story the paper
//! sketches in Section 1.2.

use crate::error::PfrError;
use crate::pfr::{PfrConfig, PfrModel};
use crate::Result;
use pfr_graph::LaplacianKind;
use pfr_linalg::Matrix;
use std::path::Path;

/// Magic tag identifying the serialization format.
const FORMAT_TAG: &str = "pfr-linear-v1";

/// Serializes a fitted model to the textual format.
pub fn to_string(model: &PfrModel) -> String {
    let v = model.projection();
    let mut out = String::new();
    out.push_str(&format!(
        "{FORMAT_TAG} gamma={} dim={} features={} laplacian={} objective={}\n",
        model.config().gamma,
        model.dim(),
        model.num_features(),
        match model.config().laplacian {
            LaplacianKind::Unnormalized => "unnormalized",
            LaplacianKind::SymmetricNormalized => "normalized",
        },
        model.objective(),
    ));
    out.push_str("eigenvalues");
    for ev in model.eigenvalues() {
        out.push_str(&format!(" {ev}"));
    }
    out.push('\n');
    for r in 0..v.rows() {
        let row: Vec<String> = v.row(r).iter().map(|x| format!("{x}")).collect();
        out.push_str(&row.join(" "));
        out.push('\n');
    }
    out
}

/// Reconstructs a fitted model from the textual format.
pub fn from_string(text: &str) -> Result<PfrModel> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines
        .next()
        .ok_or_else(|| PfrError::InvalidConfig("empty model file".to_string()))?;
    let mut parts = header.split_whitespace();
    let tag = parts.next().unwrap_or_default();
    if tag != FORMAT_TAG {
        return Err(PfrError::InvalidConfig(format!(
            "unknown model format '{tag}', expected '{FORMAT_TAG}'"
        )));
    }
    let mut gamma = None;
    let mut dim = None;
    let mut features = None;
    let mut laplacian = LaplacianKind::Unnormalized;
    for kv in parts {
        let (key, value) = kv
            .split_once('=')
            .ok_or_else(|| PfrError::InvalidConfig(format!("malformed header entry '{kv}'")))?;
        match key {
            "gamma" => gamma = value.parse::<f64>().ok(),
            "dim" => dim = value.parse::<usize>().ok(),
            "features" => features = value.parse::<usize>().ok(),
            "laplacian" => {
                laplacian = if value == "normalized" {
                    LaplacianKind::SymmetricNormalized
                } else {
                    LaplacianKind::Unnormalized
                }
            }
            "objective" => {}
            other => {
                return Err(PfrError::InvalidConfig(format!(
                    "unknown header key '{other}'"
                )))
            }
        }
    }
    let gamma = gamma.ok_or_else(|| PfrError::InvalidConfig("missing gamma".to_string()))?;
    let dim = dim.ok_or_else(|| PfrError::InvalidConfig("missing dim".to_string()))?;
    let features =
        features.ok_or_else(|| PfrError::InvalidConfig("missing feature count".to_string()))?;

    let eigen_line = lines
        .next()
        .ok_or_else(|| PfrError::InvalidConfig("missing eigenvalue line".to_string()))?;
    let mut eigen_parts = eigen_line.split_whitespace();
    if eigen_parts.next() != Some("eigenvalues") {
        return Err(PfrError::InvalidConfig(
            "second line must start with 'eigenvalues'".to_string(),
        ));
    }
    let eigenvalues: Vec<f64> = eigen_parts
        .map(|v| {
            v.parse::<f64>()
                .map_err(|_| PfrError::InvalidConfig(format!("bad eigenvalue '{v}'")))
        })
        .collect::<Result<Vec<f64>>>()?;
    if eigenvalues.len() != dim {
        return Err(PfrError::InvalidConfig(format!(
            "expected {dim} eigenvalues, found {}",
            eigenvalues.len()
        )));
    }

    let mut rows = Vec::with_capacity(features);
    for line in lines {
        let row: Vec<f64> = line
            .split_whitespace()
            .map(|v| {
                v.parse::<f64>()
                    .map_err(|_| PfrError::InvalidConfig(format!("bad projection entry '{v}'")))
            })
            .collect::<Result<Vec<f64>>>()?;
        if row.len() != dim {
            return Err(PfrError::InvalidConfig(format!(
                "projection row has {} entries, expected {dim}",
                row.len()
            )));
        }
        rows.push(row);
    }
    if rows.len() != features {
        return Err(PfrError::InvalidConfig(format!(
            "projection has {} rows, expected {features}",
            rows.len()
        )));
    }
    let projection = Matrix::from_rows(&rows)?;
    let config = PfrConfig {
        gamma,
        dim,
        laplacian,
    };
    Ok(PfrModel::from_parts(config, projection, eigenvalues))
}

/// Magic tag identifying the bundle serialization format.
const BUNDLE_TAG: &str = "pfr-bundle-v1";

/// Per-column standardization statistics shipped with a bundle, so a serving
/// process can map raw attribute vectors into the space the projection was
/// learned in.
#[derive(Debug, Clone, PartialEq)]
pub struct StandardizerParams {
    /// Per-column means subtracted before projecting.
    pub means: Vec<f64>,
    /// Per-column standard deviations divided out before projecting.
    pub stds: Vec<f64>,
}

/// The downstream classifier section of a bundle.
///
/// The classifier text is treated as an opaque payload here (it is written
/// and parsed by `pfr-opt`, which this crate deliberately does not depend
/// on); the decision threshold travels alongside it because the bundle, not
/// the classifier, owns the deployment decision rule.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifierSection {
    /// Probability threshold for hard decisions.
    pub threshold: f64,
    /// Serialized classifier (e.g. `pfr-opt`'s `pfr-logreg-v1` format).
    pub text: String,
}

/// A deployable model bundle: the PFR projection plus (optionally) the
/// standardizer statistics and the downstream classifier weights, i.e.
/// everything a decision service needs to score raw attribute vectors.
#[derive(Debug, Clone)]
pub struct ModelBundle {
    /// The fitted PFR projection.
    pub model: PfrModel,
    /// Standardization statistics fitted on the training split.
    pub standardizer: Option<StandardizerParams>,
    /// Serialized downstream classifier and its decision threshold.
    pub classifier: Option<ClassifierSection>,
}

impl ModelBundle {
    /// A bundle holding only the projection.
    pub fn from_model(model: PfrModel) -> Self {
        ModelBundle {
            model,
            standardizer: None,
            classifier: None,
        }
    }
}

/// Serializes a bundle to the textual format: the `pfr-linear-v1` model text
/// wrapped in `@`-framed sections, one per component.
pub fn bundle_to_string(bundle: &ModelBundle) -> String {
    let mut out = format!("{BUNDLE_TAG}\n@model\n");
    out.push_str(&to_string(&bundle.model));
    if let Some(std) = &bundle.standardizer {
        out.push_str("@standardizer\n");
        let join = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        out.push_str(&format!("means {}\n", join(&std.means)));
        out.push_str(&format!("stds {}\n", join(&std.stds)));
    }
    if let Some(clf) = &bundle.classifier {
        out.push_str(&format!("@classifier threshold={}\n", clf.threshold));
        out.push_str(&clf.text);
        if !clf.text.ends_with('\n') {
            out.push('\n');
        }
    }
    out.push_str("@end\n");
    out
}

/// Reconstructs a bundle from the textual format.
pub fn bundle_from_string(text: &str) -> Result<ModelBundle> {
    let bad = |msg: String| PfrError::InvalidConfig(msg);
    let mut lines = text.lines().filter(|l| !l.trim().is_empty()).peekable();
    let header = lines
        .next()
        .ok_or_else(|| bad("empty bundle".to_string()))?;
    if header.split_whitespace().next() != Some(BUNDLE_TAG) {
        return Err(bad(format!(
            "unknown bundle format '{header}', expected '{BUNDLE_TAG}'"
        )));
    }

    let mut model = None;
    let mut standardizer = None;
    let mut classifier = None;
    let mut saw_end = false;
    while let Some(marker) = lines.next() {
        let mut section_lines = Vec::new();
        while let Some(l) = lines.peek() {
            if l.trim_start().starts_with('@') {
                break;
            }
            section_lines.push(*l);
            lines.next();
        }
        let mut marker_parts = marker.split_whitespace();
        match marker_parts.next() {
            Some("@model") => {
                if model.is_some() {
                    return Err(bad("duplicate '@model' section".to_string()));
                }
                model = Some(from_string(&section_lines.join("\n"))?);
            }
            Some("@standardizer") => {
                if standardizer.is_some() {
                    return Err(bad("duplicate '@standardizer' section".to_string()));
                }
                let parse_row = |line: Option<&&str>, what: &str| -> Result<Vec<f64>> {
                    let line =
                        line.ok_or_else(|| bad(format!("standardizer misses '{what}' line")))?;
                    let mut parts = line.split_whitespace();
                    if parts.next() != Some(what) {
                        return Err(bad(format!("standardizer line must start with '{what}'")));
                    }
                    parts
                        .map(|v| {
                            v.parse::<f64>()
                                .map_err(|_| bad(format!("bad standardizer entry '{v}'")))
                        })
                        .collect()
                };
                let means = parse_row(section_lines.first(), "means")?;
                let stds = parse_row(section_lines.get(1), "stds")?;
                if means.len() != stds.len() {
                    return Err(bad(format!(
                        "{} means but {} standard deviations",
                        means.len(),
                        stds.len()
                    )));
                }
                standardizer = Some(StandardizerParams { means, stds });
            }
            Some("@classifier") => {
                if classifier.is_some() {
                    return Err(bad("duplicate '@classifier' section".to_string()));
                }
                let mut threshold = 0.5;
                for kv in marker_parts.by_ref() {
                    let (key, value) = kv
                        .split_once('=')
                        .ok_or_else(|| bad(format!("malformed classifier entry '{kv}'")))?;
                    match key {
                        "threshold" => {
                            threshold = value
                                .parse::<f64>()
                                .map_err(|_| bad(format!("bad threshold '{value}'")))?
                        }
                        other => {
                            return Err(bad(format!("unknown classifier key '{other}'")));
                        }
                    }
                }
                // Normalize to a trailing newline so serialization is
                // canonical regardless of how the payload was produced.
                classifier = Some(ClassifierSection {
                    threshold,
                    text: section_lines.join("\n") + "\n",
                });
            }
            Some("@end") => {
                saw_end = true;
                // Nothing may follow the end marker — not even another
                // '@'-framed section (e.g. two bundles concatenated by a
                // botched ops script must not half-parse).
                if !section_lines.is_empty() || lines.next().is_some() {
                    return Err(bad("content after '@end'".to_string()));
                }
                break;
            }
            _ => return Err(bad(format!("unknown bundle section '{marker}'"))),
        }
    }
    if !saw_end {
        return Err(bad("bundle is truncated (missing '@end')".to_string()));
    }
    let model = model.ok_or_else(|| bad("bundle has no '@model' section".to_string()))?;
    if let Some(std) = &standardizer {
        if std.means.len() != model.num_features() {
            return Err(bad(format!(
                "standardizer covers {} columns but the projection expects {}",
                std.means.len(),
                model.num_features()
            )));
        }
    }
    Ok(ModelBundle {
        model,
        standardizer,
        classifier,
    })
}

/// A 64-bit FNV-1a digest of a bundle's *canonical* serialized text.
///
/// Two bundles that serialize to the same `pfr-bundle-v1` text — the same
/// projection bits, standardizer statistics, classifier weights and
/// threshold — share a digest regardless of where or when they were parsed.
/// A routing tier uses this to verify that every replica of a shard is
/// serving the same model generation before trusting their scores to be
/// interchangeable; process-local generation counters cannot do that job
/// because they differ across processes by construction.
pub fn bundle_digest(bundle: &ModelBundle) -> u64 {
    fnv1a(bundle_to_string(bundle).as_bytes())
}

/// Digest of serialized bundle text: parses and re-serializes so that
/// formatting differences (blank lines, trailing whitespace) do not change
/// the digest, then hashes the canonical form.
pub fn bundle_text_digest(text: &str) -> Result<u64> {
    Ok(bundle_digest(&bundle_from_string(text)?))
}

/// Renders a digest the way the serving protocol reports it.
pub fn digest_hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// The 64-bit FNV-1a hash — tiny, dependency-free, and stable across
/// platforms and processes, which is all a replica-consistency check needs
/// (this is an integrity fingerprint, not a cryptographic commitment).
/// Public so downstream tiers (the router's consistent-hash ring) reuse
/// the same primitive instead of re-implementing the constants.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Writes a bundle to a file.
pub fn save_bundle(bundle: &ModelBundle, path: &Path) -> Result<()> {
    std::fs::write(path, bundle_to_string(bundle))
        .map_err(|e| PfrError::InvalidConfig(format!("cannot write bundle file: {e}")))
}

/// Reads a bundle from a file.
pub fn load_bundle(path: &Path) -> Result<ModelBundle> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| PfrError::InvalidConfig(format!("cannot read bundle file: {e}")))?;
    bundle_from_string(&text)
}

/// Writes a fitted model to a file.
pub fn save(model: &PfrModel, path: &Path) -> Result<()> {
    std::fs::write(path, to_string(model))
        .map_err(|e| PfrError::InvalidConfig(format!("cannot write model file: {e}")))
}

/// Reads a fitted model from a file.
pub fn load(path: &Path) -> Result<PfrModel> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| PfrError::InvalidConfig(format!("cannot read model file: {e}")))?;
    from_string(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pfr::Pfr;
    use pfr_graph::{KnnGraphBuilder, SparseGraph};

    fn fitted_model() -> (PfrModel, Matrix) {
        let x = Matrix::from_rows(&[
            vec![0.0, 0.1, 1.0],
            vec![0.5, 0.4, 0.0],
            vec![1.0, 0.9, 1.0],
            vec![5.0, 5.1, 0.0],
            vec![5.5, 5.4, 1.0],
            vec![6.0, 5.9, 0.0],
        ])
        .unwrap();
        let wx = KnnGraphBuilder::new(2).build(&x).unwrap();
        let mut wf = SparseGraph::new(6);
        wf.add_edge(0, 3, 1.0).unwrap();
        wf.add_edge(2, 5, 1.0).unwrap();
        let model = Pfr::new(PfrConfig {
            gamma: 0.7,
            dim: 2,
            ..PfrConfig::default()
        })
        .fit(&x, &wx, &wf)
        .unwrap();
        (model, x)
    }

    #[test]
    fn round_trips_through_string() {
        let (model, x) = fitted_model();
        let text = to_string(&model);
        let restored = from_string(&text).unwrap();
        assert_eq!(restored.dim(), model.dim());
        assert_eq!(restored.num_features(), model.num_features());
        assert!((restored.config().gamma - 0.7).abs() < 1e-12);
        // Transformation is identical.
        let a = model.transform(&x).unwrap();
        let b = restored.transform(&x).unwrap();
        assert!(a.sub(&b).unwrap().max_abs() < 1e-12);
    }

    #[test]
    fn round_trips_through_a_file() {
        let (model, _) = fitted_model();
        let path = std::env::temp_dir().join("pfr_model_roundtrip.txt");
        save(&model, &path).unwrap();
        let restored = load(&path).unwrap();
        assert_eq!(restored.dim(), model.dim());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_string("").is_err());
        assert!(from_string("other-format gamma=0.5 dim=1 features=2\n").is_err());
        assert!(from_string("pfr-linear-v1 gamma=0.5 dim=1\n").is_err());
        assert!(from_string(
            "pfr-linear-v1 gamma=0.5 dim=1 features=2\neigenvalues 0.1 0.2\n1.0\n0.0\n"
        )
        .is_err());
        assert!(from_string(
            "pfr-linear-v1 gamma=0.5 dim=1 features=2\neigenvalues 0.1\n1.0 2.0\n0.0\n"
        )
        .is_err());
        assert!(from_string(
            "pfr-linear-v1 gamma=0.5 dim=1 features=2 bogus=1\neigenvalues 0.1\n1.0\n0.0\n"
        )
        .is_err());
    }

    fn fitted_bundle() -> (ModelBundle, Matrix) {
        let (model, x) = fitted_model();
        let bundle = ModelBundle {
            model,
            standardizer: Some(StandardizerParams {
                means: vec![2.0, 1.5, 0.5],
                stds: vec![1.0, 2.0, 0.25],
            }),
            classifier: Some(ClassifierSection {
                threshold: 0.625,
                text: "pfr-logreg-v1 intercept=0.5 features=2\nweights -0.25 1.75\n".to_string(),
            }),
        };
        (bundle, x)
    }

    #[test]
    fn bundle_round_trips_through_string_with_identical_transforms() {
        let (bundle, x) = fitted_bundle();
        let text = bundle_to_string(&bundle);
        let restored = bundle_from_string(&text).unwrap();
        assert_eq!(restored.standardizer, bundle.standardizer);
        assert_eq!(restored.classifier, bundle.classifier);
        let a = bundle.model.transform(&x).unwrap();
        let b = restored.model.transform(&x).unwrap();
        assert!(a.sub(&b).unwrap().max_abs() == 0.0);
        // A second round trip is byte-identical (the format is canonical).
        assert_eq!(bundle_to_string(&restored), text);
    }

    #[test]
    fn bundle_with_only_a_model_round_trips() {
        let (model, x) = fitted_model();
        let bundle = ModelBundle::from_model(model);
        let restored = bundle_from_string(&bundle_to_string(&bundle)).unwrap();
        assert!(restored.standardizer.is_none());
        assert!(restored.classifier.is_none());
        let a = bundle.model.transform(&x).unwrap();
        let b = restored.model.transform(&x).unwrap();
        assert!(a.sub(&b).unwrap().max_abs() == 0.0);
    }

    #[test]
    fn bundle_round_trips_through_a_file() {
        let (bundle, _) = fitted_bundle();
        let path = std::env::temp_dir().join("pfr_bundle_roundtrip.txt");
        save_bundle(&bundle, &path).unwrap();
        let restored = load_bundle(&path).unwrap();
        assert_eq!(restored.classifier, bundle.classifier);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bundle_rejects_corrupted_input() {
        let (bundle, _) = fitted_bundle();
        let text = bundle_to_string(&bundle);
        // Corrupted top-level header.
        assert!(bundle_from_string(&text.replace(super::BUNDLE_TAG, "pfr-bundle-v9")).is_err());
        // Corrupted inner model header.
        assert!(bundle_from_string(&text.replace("pfr-linear-v1", "pfr-linear-v9")).is_err());
        // Unknown section marker.
        assert!(bundle_from_string(&text.replace("@standardizer", "@nonsense")).is_err());
        // Truncation (no @end).
        let truncated = text.replace("@end\n", "");
        assert!(bundle_from_string(&truncated).is_err());
        // Mismatched standardizer width.
        assert!(bundle_from_string(&text.replace("means 2 1.5 0.5", "means 2 1.5")).is_err());
        // Empty input.
        assert!(bundle_from_string("").is_err());
        // Two bundles concatenated (duplicate sections / content after @end).
        let doubled = format!("{text}{text}");
        assert!(bundle_from_string(&doubled).is_err());
        let dup_model = text.replace("@end\n", "") + &bundle_to_string(&bundle);
        assert!(bundle_from_string(&dup_model).is_err());
    }

    #[test]
    fn digests_are_stable_across_round_trips_and_sensitive_to_content() {
        let (bundle, _) = fitted_bundle();
        let d = bundle_digest(&bundle);
        assert_eq!(digest_hex(d).len(), 16);
        // Round-tripping through text does not change the digest.
        let text = bundle_to_string(&bundle);
        assert_eq!(bundle_text_digest(&text).unwrap(), d);
        // Formatting noise does not change the digest (canonicalized).
        let noisy = text.replace("@standardizer\n", "@standardizer\n\n");
        assert_eq!(bundle_text_digest(&noisy).unwrap(), d);
        // Content changes do.
        let mut other = bundle.clone();
        other.classifier.as_mut().unwrap().threshold = 0.75;
        assert_ne!(bundle_digest(&other), d);
        // Garbage is rejected, not hashed.
        assert!(bundle_text_digest("not a bundle").is_err());
    }

    #[test]
    fn laplacian_kind_survives_the_round_trip() {
        let (model, _) = fitted_model();
        let mut text = to_string(&model);
        text = text.replace("laplacian=unnormalized", "laplacian=normalized");
        let restored = from_string(&text).unwrap();
        assert_eq!(
            restored.config().laplacian,
            LaplacianKind::SymmetricNormalized
        );
    }
}
