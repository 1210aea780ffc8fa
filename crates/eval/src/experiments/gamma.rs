//! Figures 4/7/10 — influence of the hyper-parameter γ.
//!
//! For γ ∈ {0.0, 0.1, …, 1.0} the driver fits PFR, trains the downstream
//! classifier and reports
//!
//! * consistency w.r.t. `WF` (expected to increase with γ),
//! * consistency w.r.t. `WX` (expected to decrease with γ),
//! * AUC overall and per protected group (on the synthetic data AUC improves
//!   with γ because the fairness graph agrees with the ground truth; on the
//!   real datasets the overall AUC drops while the protected group's AUC
//!   improves and the AUC gap narrows).

use crate::methods::default_pfr_config;
use crate::pipeline::{evaluate_representation, prepare, DatasetSpec, PipelineConfig};
use crate::report::{fmt3, fmt3_opt, TextTable};
use crate::Result;
use pfr_core::{Pfr, PfrObjective};
use pfr_graph::LaplacianKind;

/// One row of the γ sweep.
#[derive(Debug, Clone)]
pub struct GammaRow {
    /// The γ value.
    pub gamma: f64,
    /// Consistency w.r.t. the fairness graph on the test split.
    pub consistency_wf: f64,
    /// Consistency w.r.t. the similarity graph on the test split.
    pub consistency_wx: f64,
    /// Overall AUC.
    pub auc_any: f64,
    /// AUC within the non-protected group.
    pub auc_s0: Option<f64>,
    /// AUC within the protected group.
    pub auc_s1: Option<f64>,
}

/// Results of a γ sweep on one dataset.
#[derive(Debug, Clone)]
pub struct GammaSweep {
    /// Which dataset was evaluated.
    pub spec: DatasetSpec,
    /// One row per γ value, ascending.
    pub rows: Vec<GammaRow>,
}

impl GammaSweep {
    /// Renders the sweep as a table.
    pub fn render(&self) -> String {
        let figure = match self.spec {
            DatasetSpec::Synthetic => "Figure 4",
            DatasetSpec::Crime => "Figure 7",
            DatasetSpec::Compas => "Figure 10",
        };
        let mut t = TextTable::new(&[
            "gamma",
            "Consistency (WF)",
            "Consistency (WX)",
            "AUC (any)",
            "AUC (s=0)",
            "AUC (s=1)",
        ]);
        for row in &self.rows {
            t.add_row(vec![
                format!("{:.1}", row.gamma),
                fmt3(row.consistency_wf),
                fmt3(row.consistency_wx),
                fmt3(row.auc_any),
                fmt3_opt(row.auc_s0),
                fmt3_opt(row.auc_s1),
            ]);
        }
        format!(
            "{figure}: influence of gamma on {} (PFR)\n{}",
            self.spec.name(),
            t.render()
        )
    }

    /// The row with the given γ (within 1e-9), if present.
    pub fn row(&self, gamma: f64) -> Option<&GammaRow> {
        self.rows.iter().find(|r| (r.gamma - gamma).abs() < 1e-9)
    }
}

/// Runs the γ sweep. In fast mode a coarser grid `{0, 0.25, 0.5, 0.75, 1}` is
/// used; the full mode sweeps `{0.0, 0.1, …, 1.0}` like the paper.
pub fn run(spec: DatasetSpec, fast: bool, seed: u64) -> Result<GammaSweep> {
    let config = if fast {
        PipelineConfig::fast(seed)
    } else {
        PipelineConfig {
            seed,
            ..PipelineConfig::default()
        }
    };
    let exp = prepare(spec, &config)?;
    let gammas: Vec<f64> = if fast {
        vec![0.0, 0.25, 0.5, 0.75, 1.0]
    } else {
        (0..=10).map(|i| i as f64 / 10.0).collect()
    };

    // The two quadratic forms do not depend on γ: one pass over the graphs
    // for the whole sweep, one small eigensolve per grid point.
    let objective = PfrObjective::assemble(
        &exp.x_train_prot,
        &exp.wx_train,
        &exp.wf_train,
        LaplacianKind::default(),
    )?;
    let mut rows = Vec::with_capacity(gammas.len());
    for &gamma in &gammas {
        let pfr_config = default_pfr_config(exp.x_train_prot.cols(), gamma);
        let model = Pfr::new(pfr_config).fit_objective(&objective)?;
        let z_train = model.transform(&exp.x_train_prot)?;
        let z_test = model.transform(&exp.x_test_prot)?;
        let eval =
            evaluate_representation(format!("PFR(gamma={gamma:.1})"), &z_train, &z_test, &exp)?;
        rows.push(GammaRow {
            gamma,
            consistency_wf: eval.consistency_wf,
            consistency_wx: eval.consistency_wx,
            auc_any: eval.auc,
            auc_s0: eval.group_report.group(0).and_then(|g| g.auc),
            auc_s1: eval.group_report.group(1).and_then(|g| g.auc),
        });
    }
    Ok(GammaSweep { spec, rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_sweep_shows_the_expected_trends_on_synthetic_data() {
        let sweep = run(DatasetSpec::Synthetic, true, 31).unwrap();
        assert_eq!(sweep.rows.len(), 5);
        let first = sweep.row(0.0).unwrap();
        let last = sweep.row(1.0).unwrap();
        // Consistency w.r.t. WF should not decrease as γ grows.
        assert!(
            last.consistency_wf >= first.consistency_wf - 0.05,
            "Consistency(WF) at γ=1 ({}) should be >= γ=0 ({})",
            last.consistency_wf,
            first.consistency_wf
        );
        let rendered = sweep.render();
        assert!(rendered.contains("Figure 4"));
        assert!(rendered.contains("gamma"));
    }

    #[test]
    fn missing_row_lookup_returns_none() {
        let sweep = run(DatasetSpec::Synthetic, true, 32).unwrap();
        assert!(sweep.row(0.33).is_none());
    }
}
