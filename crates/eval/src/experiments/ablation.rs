//! Ablation experiments (`DESIGN.md` §4, items A1–A3).
//!
//! * **A1 — fairness-graph sparsity**: the paper stresses that pairwise
//!   judgments may only be available for a sparse sample of pairs. This
//!   ablation subsamples the fairness-graph edges at decreasing rates and
//!   measures how PFR's fairness consistency degrades.
//! * **A2 — kernel vs. linear PFR**: the paper's Section 3.3.4 extension,
//!   compared against linear PFR on the synthetic data.
//! * **A3 — quantile granularity**: the number of quantile buckets `k` used
//!   by the between-group fairness graph (Definition 3) on the COMPAS-like
//!   data.

use crate::methods::default_pfr_config;
use crate::pipeline::{evaluate_representation, prepare, DatasetSpec, PipelineConfig};
use crate::report::{fmt3, TextTable};
use crate::Result;
use pfr_core::kernel::KernelPfrConfig;
use pfr_core::{KernelPfr, KernelType, Pfr};

/// A generic ablation result: parameter value → metrics.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// The swept parameter value, rendered as text.
    pub parameter: String,
    /// AUC on the test split.
    pub auc: f64,
    /// Consistency w.r.t. `WF` on the test split.
    pub consistency_wf: f64,
    /// Consistency w.r.t. `WX` on the test split.
    pub consistency_wx: f64,
}

/// A rendered ablation experiment.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// Experiment title.
    pub title: String,
    /// Name of the swept parameter (table header).
    pub parameter_name: String,
    /// One row per parameter value.
    pub rows: Vec<AblationRow>,
}

impl Ablation {
    /// Renders the ablation as a table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(&[
            self.parameter_name.as_str(),
            "AUC",
            "Consistency (WF)",
            "Consistency (WX)",
        ]);
        for row in &self.rows {
            t.add_row(vec![
                row.parameter.clone(),
                fmt3(row.auc),
                fmt3(row.consistency_wf),
                fmt3(row.consistency_wx),
            ]);
        }
        format!("{}\n{}", self.title, t.render())
    }
}

/// A1 — effect of fairness-graph sparsity (edge subsampling) on PFR.
pub fn run_sparsity(fast: bool, seed: u64) -> Result<Ablation> {
    let config = if fast {
        PipelineConfig::fast(seed)
    } else {
        PipelineConfig {
            seed,
            ..PipelineConfig::default()
        }
    };
    let exp = prepare(DatasetSpec::Synthetic, &config)?;
    let rates = [1.0, 0.5, 0.2, 0.1, 0.05, 0.01];
    let mut rows = Vec::new();
    for &rate in &rates {
        let wf = exp.wf_train.subsample_edges(rate, seed.wrapping_add(1))?;
        let pfr_config = default_pfr_config(exp.x_train_prot.cols(), 0.9);
        let model = Pfr::new(pfr_config).fit(&exp.x_train_prot, &exp.wx_train, &wf)?;
        let z_train = model.transform(&exp.x_train_prot)?;
        let z_test = model.transform(&exp.x_test_prot)?;
        let eval = evaluate_representation(format!("PFR@{rate}"), &z_train, &z_test, &exp)?;
        rows.push(AblationRow {
            parameter: format!("{rate:.2}"),
            auc: eval.auc,
            consistency_wf: eval.consistency_wf,
            consistency_wx: eval.consistency_wx,
        });
    }
    Ok(Ablation {
        title: "Ablation A1: fairness-graph edge-sampling rate (synthetic data, PFR gamma=0.9)"
            .to_string(),
        parameter_name: "edge-sampling rate".to_string(),
        rows,
    })
}

/// A2 — linear PFR vs. kernel PFR (RBF kernels of several widths).
pub fn run_kernel(fast: bool, seed: u64) -> Result<Ablation> {
    // Kernel PFR solves an n x n eigenproblem, so always use the reduced
    // synthetic dataset here; `fast` further trims it.
    let config = PipelineConfig {
        fast: true,
        knn_k: if fast { 5 } else { 10 },
        seed,
        ..PipelineConfig::default()
    };
    let exp = prepare(DatasetSpec::Synthetic, &config)?;
    let mut rows = Vec::new();

    // Linear PFR reference.
    let linear = Pfr::new(default_pfr_config(exp.x_train_prot.cols(), 0.9)).fit(
        &exp.x_train_prot,
        &exp.wx_train,
        &exp.wf_train,
    )?;
    let eval = evaluate_representation(
        "linear",
        &linear.transform(&exp.x_train_prot)?,
        &linear.transform(&exp.x_test_prot)?,
        &exp,
    )?;
    rows.push(AblationRow {
        parameter: "linear".to_string(),
        auc: eval.auc,
        consistency_wf: eval.consistency_wf,
        consistency_wx: eval.consistency_wx,
    });

    // Kernel PFR with a few RBF widths (and the linear kernel as a sanity
    // point: it spans the same space as linear PFR).
    let kernels = [
        ("rbf sigma=0.5", KernelType::Rbf { sigma: 0.5 }),
        ("rbf sigma=1.0", KernelType::Rbf { sigma: 1.0 }),
        ("rbf sigma=2.0", KernelType::Rbf { sigma: 2.0 }),
        ("linear kernel", KernelType::Linear),
    ];
    for (label, kernel) in kernels {
        let model = KernelPfr::new(KernelPfrConfig {
            gamma: 0.9,
            dim: 2,
            kernel,
            ..KernelPfrConfig::default()
        })
        .fit(&exp.x_train_prot, &exp.wx_train, &exp.wf_train)?;
        let eval = evaluate_representation(
            label,
            &model.transform(&exp.x_train_prot)?,
            &model.transform(&exp.x_test_prot)?,
            &exp,
        )?;
        rows.push(AblationRow {
            parameter: label.to_string(),
            auc: eval.auc,
            consistency_wf: eval.consistency_wf,
            consistency_wx: eval.consistency_wx,
        });
    }

    Ok(Ablation {
        title: "Ablation A2: linear PFR vs kernel PFR (synthetic data, gamma=0.9)".to_string(),
        parameter_name: "variant".to_string(),
        rows,
    })
}

/// A3 — number of quantile buckets in the between-group fairness graph.
pub fn run_quantiles(fast: bool, seed: u64) -> Result<Ablation> {
    let base_config = if fast {
        PipelineConfig::fast(seed)
    } else {
        PipelineConfig {
            seed,
            ..PipelineConfig::default()
        }
    };
    let mut rows = Vec::new();
    for &k in &[2usize, 4, 5, 10, 20] {
        let config = PipelineConfig {
            quantiles: k,
            ..base_config.clone()
        };
        let exp = prepare(DatasetSpec::Compas, &config)?;
        let pfr_config = default_pfr_config(exp.x_train_prot.cols(), 0.5);
        let model = Pfr::new(pfr_config).fit(&exp.x_train_prot, &exp.wx_train, &exp.wf_train)?;
        let z_train = model.transform(&exp.x_train_prot)?;
        let z_test = model.transform(&exp.x_test_prot)?;
        let eval = evaluate_representation(format!("PFR@k={k}"), &z_train, &z_test, &exp)?;
        rows.push(AblationRow {
            parameter: k.to_string(),
            auc: eval.auc,
            consistency_wf: eval.consistency_wf,
            consistency_wx: eval.consistency_wx,
        });
    }
    Ok(Ablation {
        title: "Ablation A3: quantile count k of the between-group fairness graph (Compas, PFR gamma=0.5)"
            .to_string(),
        parameter_name: "quantiles k".to_string(),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparsity_ablation_produces_one_row_per_rate() {
        let ablation = run_sparsity(true, 41).unwrap();
        assert_eq!(ablation.rows.len(), 6);
        assert!(ablation.render().contains("edge-sampling rate"));
        // Denser fairness graphs should not hurt Consistency(WF) relative to
        // the sparsest setting.
        let dense = &ablation.rows[0];
        let sparse = ablation.rows.last().unwrap();
        assert!(dense.consistency_wf >= sparse.consistency_wf - 0.1);
    }

    #[test]
    fn kernel_ablation_includes_linear_reference() {
        let ablation = run_kernel(true, 42).unwrap();
        assert!(ablation.rows.iter().any(|r| r.parameter == "linear"));
        assert!(ablation.rows.len() >= 4);
        for row in &ablation.rows {
            assert!(
                row.auc > 0.4,
                "{} AUC {} unreasonably low",
                row.parameter,
                row.auc
            );
        }
    }

    #[test]
    fn quantile_ablation_covers_the_grid() {
        let ablation = run_quantiles(true, 43).unwrap();
        assert_eq!(ablation.rows.len(), 5);
        assert!(ablation.render().contains("quantiles k"));
    }
}
