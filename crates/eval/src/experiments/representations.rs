//! Figure 1 — what do the learned representations look like?
//!
//! The paper plots the original synthetic data and its 2-D representations
//! learned by iFair, LFR and PFR, and makes two qualitative observations:
//!
//! 1. in every *learned* representation the two protected groups are well
//!    mixed (unlike the original data), and
//! 2. only PFR maps the *deserving* candidates of one group close to the
//!    deserving candidates of the other group.
//!
//! A textual reproduction of a scatter plot needs summary statistics instead
//! of pixels, so this driver reports, for every method,
//!
//! * the distance between the two group centroids ("group separation" —
//!   smaller means better mixed), and
//! * the mean distance between equally deserving cross-group pairs, i.e. the
//!   pairs connected in `WF`, normalized by the mean pairwise distance
//!   ("deserving-pair distance" — smaller means the method maps equally
//!   deserving individuals together).
//!
//! It can also dump the raw 2-D coordinates as CSV for external plotting.

use crate::methods::{default_ifair_config, default_lfr_config, default_pfr_config, PfrMethod};
use crate::pipeline::{prepare, DatasetSpec, PipelineConfig, PreparedExperiment};
use crate::report::{fmt3, TextTable};
use crate::Result;
use pfr_baselines::{FitContext, IFair, Lfr, RepresentationMethod};
use pfr_data::csv::NumericTable;
use pfr_linalg::Matrix;

/// Geometry statistics of one learned representation.
#[derive(Debug, Clone)]
pub struct RepresentationGeometry {
    /// Method name.
    pub method: String,
    /// Distance between the protected and non-protected group centroids,
    /// normalized by the mean pairwise distance of the embedding.
    pub group_separation: f64,
    /// Mean distance between fairness-graph pairs, normalized by the mean
    /// pairwise distance of the embedding.
    pub deserving_pair_distance: f64,
    /// The 2-D coordinates of the training individuals in this
    /// representation (for CSV export / plotting).
    pub coordinates: Matrix,
}

/// Figure 1 results: one geometry record per method.
#[derive(Debug, Clone)]
pub struct Figure1 {
    /// Geometry per method, in the paper's order
    /// (Original, iFair, LFR, PFR).
    pub per_method: Vec<RepresentationGeometry>,
}

impl Figure1 {
    /// Renders the summary table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&[
            "Method",
            "Group separation (lower = better mixed)",
            "Deserving-pair distance (lower = fairer)",
        ]);
        for g in &self.per_method {
            t.add_row(vec![
                g.method.clone(),
                fmt3(g.group_separation),
                fmt3(g.deserving_pair_distance),
            ]);
        }
        format!(
            "Figure 1: geometry of the learned representations (synthetic data, d = 2)\n{}",
            t.render()
        )
    }

    /// Exports the 2-D coordinates of one method as a CSV table
    /// (`x, y, group, label`) for external plotting.
    pub fn to_csv(&self, method: &str, exp: &PreparedExperiment) -> Option<NumericTable> {
        let geometry = self.per_method.iter().find(|g| g.method == method)?;
        let coords = &geometry.coordinates;
        let rows: Vec<Vec<f64>> = (0..coords.rows())
            .map(|i| {
                vec![
                    coords[(i, 0)],
                    if coords.cols() > 1 {
                        coords[(i, 1)]
                    } else {
                        0.0
                    },
                    exp.train.groups()[i] as f64,
                    exp.train.labels()[i] as f64,
                ]
            })
            .collect();
        NumericTable::new(
            vec!["x".into(), "y".into(), "group".into(), "label".into()],
            rows,
        )
        .ok()
    }
}

fn geometry(method: String, z: &Matrix, exp: &PreparedExperiment) -> RepresentationGeometry {
    let groups = exp.train.groups();
    let n = z.rows();

    // Mean pairwise distance (over a deterministic subsample for large n).
    let step = (n / 200).max(1);
    let mut total = 0.0;
    let mut count = 0usize;
    for i in (0..n).step_by(step) {
        for j in ((i + 1)..n).step_by(step) {
            total += pfr_linalg::vector::distance(z.row(i), z.row(j));
            count += 1;
        }
    }
    let mean_pairwise = (total / count.max(1) as f64).max(1e-12);

    // Group centroid separation.
    let centroid = |group: usize| -> Vec<f64> {
        let members: Vec<usize> = (0..n).filter(|&i| groups[i] == group).collect();
        let mut c = vec![0.0; z.cols()];
        for &i in &members {
            for (j, v) in z.row(i).iter().enumerate() {
                c[j] += v / members.len() as f64;
            }
        }
        c
    };
    let sep = pfr_linalg::vector::distance(&centroid(0), &centroid(1)) / mean_pairwise;

    // Mean distance between fairness-graph (equally deserving) pairs.
    let mut pair_total = 0.0;
    let mut pair_count = 0usize;
    for e in exp.wf_train.edges() {
        pair_total += pfr_linalg::vector::distance(z.row(e.i as usize), z.row(e.j as usize));
        pair_count += 1;
    }
    let pair_dist = if pair_count == 0 {
        0.0
    } else {
        pair_total / pair_count as f64 / mean_pairwise
    };

    RepresentationGeometry {
        method,
        group_separation: sep,
        deserving_pair_distance: pair_dist,
        coordinates: z.clone(),
    }
}

/// Runs the Figure 1 experiment on the synthetic dataset.
pub fn run(fast: bool, seed: u64) -> Result<Figure1> {
    let exp = prepare(
        DatasetSpec::Synthetic,
        &if fast {
            PipelineConfig::fast(seed)
        } else {
            PipelineConfig {
                seed,
                ..PipelineConfig::default()
            }
        },
    )?;
    // The representation learners see the protected attribute (the paper
    // masks it only for the Original representation and the WX graph).
    let ctx = FitContext {
        x: &exp.x_train_prot,
        labels: exp.train.labels(),
        groups: exp.train.groups(),
        wx: &exp.wx_train,
    };

    let mut per_method = Vec::new();

    // Original (standardized 2-D data, protected attribute masked).
    per_method.push(geometry("Original".to_string(), &exp.x_train, &exp));

    // iFair (reconstruction has the learner-input dimensionality; the first
    // two coordinates are the GPA/SAT reconstruction).
    let ifair = IFair::new(default_ifair_config(fast)).fit(&ctx)?;
    per_method.push(geometry(
        "iFair".to_string(),
        &ifair.transform(&exp.x_train_prot)?,
        &exp,
    ));

    // LFR: the assignment vectors are K-dimensional; for the figure the paper
    // learns 2-D representations, so use 2 prototypes.
    let mut lfr_config = default_lfr_config(fast);
    lfr_config.num_prototypes = 2;
    let lfr = Lfr::new(lfr_config).fit(&ctx)?;
    per_method.push(geometry(
        "LFR".to_string(),
        &lfr.transform(&exp.x_train_prot)?,
        &exp,
    ));

    // PFR with d = 2 over [gpa, sat, protected], γ tuned high as in the
    // paper's synthetic experiment.
    let mut pfr_config = default_pfr_config(exp.x_train_prot.cols(), 0.9);
    pfr_config.dim = 2.min(exp.x_train_prot.cols());
    let pfr = PfrMethod::new(pfr_config, &exp.wf_train).fit(&ctx)?;
    per_method.push(geometry(
        "PFR".to_string(),
        &pfr.transform(&exp.x_train_prot)?,
        &exp,
    ));

    Ok(Figure1 { per_method })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learned_representations_mix_the_groups_better_than_the_original() {
        let fig = run(true, 11).unwrap();
        assert_eq!(fig.per_method.len(), 4);
        let original = &fig.per_method[0];
        let pfr = fig.per_method.iter().find(|g| g.method == "PFR").unwrap();
        // Paper observation 1: learned representations mix the groups; PFR's
        // group separation should not exceed the original's.
        assert!(
            pfr.group_separation <= original.group_separation + 1e-9,
            "PFR separation {} vs original {}",
            pfr.group_separation,
            original.group_separation
        );
        // Paper observation 2: PFR maps equally deserving individuals closer
        // than the original representation does.
        assert!(
            pfr.deserving_pair_distance < original.deserving_pair_distance,
            "PFR pair distance {} vs original {}",
            pfr.deserving_pair_distance,
            original.deserving_pair_distance
        );
        let rendered = fig.render();
        assert!(rendered.contains("PFR"));
        assert!(rendered.contains("Figure 1"));
    }

    #[test]
    fn csv_export_round_trips() {
        let fig = run(true, 13).unwrap();
        let exp = prepare(DatasetSpec::Synthetic, &PipelineConfig::fast(13)).unwrap();
        let table = fig.to_csv("PFR", &exp).unwrap();
        assert_eq!(table.columns, vec!["x", "y", "group", "label"]);
        assert_eq!(table.rows.len(), exp.train.len());
        assert!(fig.to_csv("Nonexistent", &exp).is_none());
    }
}
