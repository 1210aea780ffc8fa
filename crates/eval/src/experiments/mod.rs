//! Experiment drivers — one per table / figure of the paper plus the
//! ablations listed in `DESIGN.md` §4.
//!
//! Every driver returns structured results *and* can render them as a text
//! table, so the same code backs the `pfr-eval` binary, the integration tests
//! and the repository benchmark's `fit_refit` workload.

pub mod ablation;
pub mod gamma;
pub mod representations;
pub mod table1;
pub mod tradeoff;

use crate::Result;

/// The experiments known to the harness, keyed by their command-line name.
pub const EXPERIMENT_NAMES: [&str; 14] = [
    "table1",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "ablation-sparsity",
    "ablation-kernel",
    "ablation-quantiles",
];

/// Runs an experiment by name and returns its rendered report.
///
/// `fast` selects reduced dataset sizes and iteration budgets — the same
/// qualitative behaviour at a fraction of the runtime (used by tests and
/// benches; the binary defaults to full size).
pub fn run_by_name(name: &str, fast: bool, seed: u64) -> Result<String> {
    match name {
        "table1" => table1::run(fast, seed).map(|r| r.render()),
        "figure1" => representations::run(fast, seed).map(|r| r.render()),
        "figure2" => tradeoff::run_tradeoff(crate::pipeline::DatasetSpec::Synthetic, fast, seed)
            .map(|r| r.render_tradeoff()),
        "figure3" => tradeoff::run_tradeoff(crate::pipeline::DatasetSpec::Synthetic, fast, seed)
            .map(|r| r.render_group_fairness()),
        "figure4" => {
            gamma::run(crate::pipeline::DatasetSpec::Synthetic, fast, seed).map(|r| r.render())
        }
        "figure5" => tradeoff::run_tradeoff(crate::pipeline::DatasetSpec::Crime, fast, seed)
            .map(|r| r.render_tradeoff()),
        "figure6" => tradeoff::run_tradeoff(crate::pipeline::DatasetSpec::Crime, fast, seed)
            .map(|r| r.render_group_fairness()),
        "figure7" => {
            gamma::run(crate::pipeline::DatasetSpec::Crime, fast, seed).map(|r| r.render())
        }
        "figure8" => tradeoff::run_tradeoff(crate::pipeline::DatasetSpec::Compas, fast, seed)
            .map(|r| r.render_tradeoff()),
        "figure9" => tradeoff::run_tradeoff(crate::pipeline::DatasetSpec::Compas, fast, seed)
            .map(|r| r.render_group_fairness()),
        "figure10" => {
            gamma::run(crate::pipeline::DatasetSpec::Compas, fast, seed).map(|r| r.render())
        }
        "ablation-sparsity" => ablation::run_sparsity(fast, seed).map(|r| r.render()),
        "ablation-kernel" => ablation::run_kernel(fast, seed).map(|r| r.render()),
        "ablation-quantiles" => ablation::run_quantiles(fast, seed).map(|r| r.render()),
        other => Err(crate::EvalError::InvalidParameter(format!(
            "unknown experiment '{other}'; known experiments: {}",
            EXPERIMENT_NAMES.join(", ")
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_rejected_with_a_helpful_message() {
        let err = run_by_name("figure99", true, 1).unwrap_err();
        assert!(err.to_string().contains("figure99"));
        assert!(err.to_string().contains("table1"));
    }

    #[test]
    fn experiment_names_cover_every_paper_artifact() {
        // 1 table + 10 figures + 3 ablations.
        assert_eq!(EXPERIMENT_NAMES.len(), 14);
        assert!(EXPERIMENT_NAMES.contains(&"figure10"));
    }
}
