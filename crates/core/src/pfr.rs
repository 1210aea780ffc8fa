//! Linear Pairwise Fair Representations (Sections 3.3.1–3.3.3 of the paper).

use crate::error::PfrError;
use crate::Result;
use pfr_graph::{KnnGraphBuilder, LaplacianKind, SparseGraph};
use pfr_linalg::stats::Standardizer;
use pfr_linalg::{Eigen, Matrix};

/// Hyper-parameters of the linear PFR model.
#[derive(Debug, Clone)]
pub struct PfrConfig {
    /// Trade-off between the data graph `WX` (γ = 0) and the fairness graph
    /// `WF` (γ = 1). Must lie in `[0, 1]`.
    pub gamma: f64,
    /// Dimensionality `d` of the learned representation (`d ≤ m`).
    pub dim: usize,
    /// Which Laplacian to use (the paper uses the unnormalized one).
    pub laplacian: LaplacianKind,
}

impl Default for PfrConfig {
    fn default() -> Self {
        PfrConfig {
            gamma: 0.5,
            dim: 2,
            laplacian: LaplacianKind::Unnormalized,
        }
    }
}

/// The two γ-independent halves of the PFR objective (Equation 7): the
/// `m x m` quadratic forms `Xᵀ Lˣ X / |Wˣ|` and `Xᵀ Lᶠ X / |Wᶠ|`.
///
/// Assembling them is the expensive part of a fit — a pass over both graphs'
/// residual edges and blocks — and does not depend on γ or `d`. A γ sweep or grid
/// search assembles once per data split and calls [`Pfr::fit_objective`]
/// per grid point; [`Pfr::fit`] is the same two steps back to back, so both
/// routes give the same bits.
#[derive(Debug, Clone)]
pub struct PfrObjective {
    qx: Matrix,
    qf: Matrix,
    laplacian: LaplacianKind,
}

impl PfrObjective {
    /// Validates the inputs and assembles both halves without ever
    /// materializing the `n x n` Laplacians.
    ///
    /// The number of nodes in both graphs must match the number of rows of
    /// `x`. Each half is normalized by its graph's total edge weight so that
    /// γ interpolates between two losses of comparable scale — without this,
    /// a dense fairness graph (e.g. the quantile graph on COMPAS, millions
    /// of unit edges) would dominate the k-NN graph for any γ > 0 and the
    /// trade-off would degenerate into a step function. A graph without
    /// edges contributes a zero half.
    pub fn assemble(
        x: &Matrix,
        wx: &SparseGraph,
        wf: &SparseGraph,
        laplacian: LaplacianKind,
    ) -> Result<Self> {
        let n = x.rows();
        if n == 0 {
            return Err(PfrError::InvalidConfig(
                "cannot fit PFR on an empty data matrix".to_string(),
            ));
        }
        for (what, graph) in [("similarity graph WX", wx), ("fairness graph WF", wf)] {
            if graph.num_nodes() != n {
                return Err(PfrError::DimensionMismatch {
                    what,
                    got: graph.num_nodes(),
                    expected: n,
                });
            }
        }
        let half = |g: &SparseGraph| -> Result<Matrix> {
            let weight = g.total_weight();
            let scale = if weight > 0.0 { 1.0 / weight } else { 0.0 };
            Ok(g.quadratic_form(x, laplacian)?.scale(scale))
        };
        Ok(PfrObjective {
            qx: half(wx)?,
            qf: half(wf)?,
            laplacian,
        })
    }

    /// `M = (1 − γ) Qˣ + γ Qᶠ`, symmetrized: the symmetric positive
    /// semi-definite matrix whose `d` smallest eigenvectors are the fit.
    pub fn combine(&self, gamma: f64) -> Result<Matrix> {
        if !(0.0..=1.0).contains(&gamma) {
            return Err(PfrError::InvalidConfig(format!(
                "gamma = {gamma} must lie in [0, 1]"
            )));
        }
        let mut m_mat = self.qx.scale(1.0 - gamma);
        m_mat.axpy(gamma, &self.qf)?;
        Ok(m_mat.symmetrize()?)
    }

    /// Number of features `m` of the data matrix the halves were built on.
    pub fn num_features(&self) -> usize {
        self.qx.rows()
    }
}

/// The standardized rows and the data graph `WX` every PFR fit is
/// assembled from, prepared in one place. The learner sees every column;
/// `WX` leaves the protected attribute out (Section 3.1), so neighbourhoods
/// follow the regular attributes rather than the group split.
#[derive(Debug, Clone)]
pub struct FitInputs {
    /// The statistics `x` was standardized with.
    pub standardizer: Standardizer,
    /// The standardized rows, protected column included.
    pub x: Matrix,
    /// The k-NN graph over `x` without the protected column.
    pub wx: SparseGraph,
}

impl FitInputs {
    /// Standardizes `rows` and builds `WX` over every column but
    /// `protected_column`, with `knn_k` neighbours clamped to `1..=n − 1`.
    /// Standardizing works column by column, so `WX` is bit for bit the
    /// graph over the masked rows standardized on their own.
    pub fn prepare(rows: &Matrix, protected_column: Option<usize>, knn_k: usize) -> Result<Self> {
        let (standardizer, x) = Standardizer::fit_transform(rows)?;
        let m = x.cols();
        if let Some(p) = protected_column.filter(|&p| p >= m) {
            let msg = format!("protected column {p} out of range for {m} columns");
            return Err(PfrError::InvalidConfig(msg));
        }
        let kept: Vec<usize> = (0..m).filter(|&c| Some(c) != protected_column).collect();
        let masked = protected_column.map(|_| x.select_cols(&kept)).transpose()?;
        let knn = KnnGraphBuilder::new(knn_k.min(x.rows().saturating_sub(1)).max(1));
        Ok(FitInputs {
            wx: knn.build(masked.as_ref().unwrap_or(&x))?,
            standardizer,
            x,
        })
    }
}

/// The (unfitted) linear PFR estimator.
#[derive(Debug, Clone, Default)]
pub struct Pfr {
    config: PfrConfig,
}

impl Pfr {
    /// Creates an estimator with the given configuration.
    pub fn new(config: PfrConfig) -> Self {
        Pfr { config }
    }

    /// The configuration this estimator will fit with.
    pub fn config(&self) -> &PfrConfig {
        &self.config
    }

    /// Fits PFR on a data matrix (one row per individual, protected
    /// attributes excluded and typically standardized), the similarity graph
    /// `WX` and the fairness graph `WF`: assemble, combine, solve.
    ///
    /// The fairness graph may be sparse or even empty (in which case the
    /// model degenerates to a purely neighbourhood-preserving embedding,
    /// the γ = 0 behaviour).
    pub fn fit(&self, x: &Matrix, wx: &SparseGraph, wf: &SparseGraph) -> Result<PfrModel> {
        self.fit_objective(&PfrObjective::assemble(x, wx, wf, self.config.laplacian)?)
    }

    /// Fits on already assembled halves: combines them at this estimator's
    /// γ and keeps the `d` smallest eigenvectors of the dense solve.
    pub fn fit_objective(&self, objective: &PfrObjective) -> Result<PfrModel> {
        let eigen = Eigen::decompose(&self.combined(objective)?)?;
        let projection = eigen.smallest_eigenvectors(self.config.dim)?;
        let eigenvalues = eigen.eigenvalues[..self.config.dim].to_vec();
        Ok(PfrModel::from_parts(
            self.config.clone(),
            projection,
            eigenvalues,
        ))
    }

    /// Fits PFR by shift-invert subspace iteration seeded with
    /// `warm.projection()` ([`pfr_linalg::subspace`]), falling back to the
    /// dense solve if the iteration does not converge or the warm model's
    /// shape does not match, so the result is always valid.
    ///
    /// This was the online-refit route while the dense solver was cyclic
    /// Jacobi. Against Householder + QL it is the slower one (18.9 ms
    /// against 3.9 ms on a drifted 256 × 96 window), so nothing in the
    /// workspace calls it: `RefitEngine` uses [`Pfr::fit`]. It stays, tested,
    /// only because the repository benchmark times it
    /// (`refit.cold_over_warm_x`) and a change that claims a gain may not
    /// edit the benchmark; it goes when that probe does.
    pub fn fit_warm(
        &self,
        x: &Matrix,
        wx: &SparseGraph,
        wf: &SparseGraph,
        warm: &PfrModel,
    ) -> Result<PfrModel> {
        let objective = PfrObjective::assemble(x, wx, wf, self.config.laplacian)?;
        if warm.num_features() == x.cols() && warm.dim() == self.config.dim {
            let sub = pfr_linalg::smallest_eigenpairs_warm(
                &self.combined(&objective)?,
                warm.projection(),
                &pfr_linalg::SubspaceOptions::default(),
            );
            if let Ok(sub) = sub {
                return Ok(PfrModel::from_parts(
                    self.config.clone(),
                    sub.eigenvectors,
                    sub.eigenvalues,
                ));
            }
        }
        self.fit_objective(&objective)
    }

    /// Checks this configuration against the halves and combines them.
    fn combined(&self, objective: &PfrObjective) -> Result<Matrix> {
        let m = objective.num_features();
        if self.config.dim == 0 || self.config.dim > m {
            return Err(PfrError::InvalidConfig(format!(
                "dim = {} must lie in 1..={m}",
                self.config.dim
            )));
        }
        if self.config.laplacian != objective.laplacian {
            return Err(PfrError::InvalidConfig(format!(
                "objective assembled with the {:?} Laplacian, configuration asks for {:?}",
                objective.laplacian, self.config.laplacian
            )));
        }
        objective.combine(self.config.gamma)
    }
}

/// A fitted linear PFR model: the projection `V ∈ R^{m x d}`.
#[derive(Debug, Clone)]
pub struct PfrModel {
    config: PfrConfig,
    projection: Matrix,
    eigenvalues: Vec<f64>,
    objective: f64,
    num_features: usize,
}

impl PfrModel {
    /// Reassembles a model from its parts (used by
    /// [`crate::persistence`] when loading a saved model).
    ///
    /// The caller is responsible for providing a projection whose columns are
    /// orthonormal; models produced by [`Pfr::fit`] always satisfy this.
    pub fn from_parts(config: PfrConfig, projection: Matrix, eigenvalues: Vec<f64>) -> PfrModel {
        let objective = eigenvalues.iter().sum();
        let num_features = projection.rows();
        PfrModel {
            config,
            projection,
            eigenvalues,
            objective,
            num_features,
        }
    }

    /// The configuration the model was fitted with.
    pub fn config(&self) -> &PfrConfig {
        &self.config
    }

    /// The learned projection matrix `V` (features x dim). Columns are
    /// orthonormal: `VᵀV = I`.
    pub fn projection(&self) -> &Matrix {
        &self.projection
    }

    /// The `d` smallest eigenvalues of `X ((1−γ)Lˣ + γLᶠ) Xᵀ`, i.e. the
    /// per-dimension contributions to the objective.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// The achieved objective value `Tr(Vᵀ M V)` (sum of the selected
    /// eigenvalues; lower is better).
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Number of input features the model expects.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Dimensionality of the learned representation.
    pub fn dim(&self) -> usize {
        self.projection.cols()
    }

    /// Maps a data matrix (one row per individual, same feature space as
    /// training) into the learned representation `Z = X V`.
    ///
    /// This works for *unseen* individuals too — the crucial property that
    /// lets PFR be applied at decision time when no pairwise judgments are
    /// available (Section 1.2 of the paper).
    pub fn transform(&self, x: &Matrix) -> Result<Matrix> {
        if x.cols() != self.num_features {
            return Err(PfrError::DimensionMismatch {
                what: "feature columns",
                got: x.cols(),
                expected: self.num_features,
            });
        }
        Ok(x.matmul(&self.projection)?)
    }

    /// Evaluates the two loss terms of Equation 5 on a representation `z`
    /// (usually `self.transform(x)`): `(LossX, LossF)`.
    pub fn losses(&self, z: &Matrix, wx: &SparseGraph, wf: &SparseGraph) -> Result<(f64, f64)> {
        Ok((wx.smoothness_loss(z)?, wf.smoothness_loss(z)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated clusters of three points; the fairness graph pairs
    /// up corresponding points across the clusters.
    fn toy_problem() -> (Matrix, SparseGraph, SparseGraph) {
        let x = Matrix::from_rows(&[
            vec![0.0, 0.1],
            vec![0.5, 0.4],
            vec![1.0, 0.9],
            vec![5.0, 5.1],
            vec![5.5, 5.4],
            vec![6.0, 5.9],
        ])
        .unwrap();
        let wx = KnnGraphBuilder::new(2).build(&x).unwrap();
        let mut wf = SparseGraph::new(6);
        wf.add_edge(0, 3, 1.0).unwrap();
        wf.add_edge(1, 4, 1.0).unwrap();
        wf.add_edge(2, 5, 1.0).unwrap();
        (x, wx, wf)
    }

    #[test]
    fn config_validation() {
        let (x, wx, wf) = toy_problem();
        assert!(Pfr::new(PfrConfig {
            gamma: -0.1,
            ..PfrConfig::default()
        })
        .fit(&x, &wx, &wf)
        .is_err());
        assert!(Pfr::new(PfrConfig {
            gamma: 1.1,
            ..PfrConfig::default()
        })
        .fit(&x, &wx, &wf)
        .is_err());
        assert!(Pfr::new(PfrConfig {
            dim: 0,
            ..PfrConfig::default()
        })
        .fit(&x, &wx, &wf)
        .is_err());
        assert!(Pfr::new(PfrConfig {
            dim: 3,
            ..PfrConfig::default()
        })
        .fit(&x, &wx, &wf)
        .is_err());
    }

    #[test]
    fn graph_size_validation() {
        let (x, wx, _) = toy_problem();
        let wrong = SparseGraph::new(5);
        assert!(matches!(
            Pfr::default().fit(&x, &wx, &wrong),
            Err(PfrError::DimensionMismatch { .. })
        ));
        let wrong_x = SparseGraph::new(4);
        assert!(Pfr::default()
            .fit(&x, &wrong_x, &SparseGraph::new(6))
            .is_err());
    }

    #[test]
    fn projection_is_orthonormal() {
        let (x, wx, wf) = toy_problem();
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
        assert!(err < 1e-9, "VᵀV deviates from identity by {err}");
    }

    #[test]
    fn transform_shape_and_new_data() {
        let (x, wx, wf) = toy_problem();
        let model = Pfr::new(PfrConfig {
            dim: 1,
            ..PfrConfig::default()
        })
        .fit(&x, &wx, &wf)
        .unwrap();
        let z = model.transform(&x).unwrap();
        assert_eq!(z.shape(), (6, 1));
        // Unseen individuals can be transformed as well.
        let unseen = Matrix::from_rows(&[vec![0.3, 0.2], vec![5.2, 5.3]]).unwrap();
        let zu = model.transform(&unseen).unwrap();
        assert_eq!(zu.shape(), (2, 1));
        // Wrong feature count is rejected.
        assert!(model.transform(&Matrix::zeros(2, 3)).is_err());
        assert_eq!(model.num_features(), 2);
        assert_eq!(model.dim(), 1);
    }

    #[test]
    fn higher_gamma_pulls_fairness_pairs_closer() {
        let (x, wx, wf) = toy_problem();
        let fit = |gamma: f64| {
            Pfr::new(PfrConfig {
                gamma,
                dim: 1,
                ..PfrConfig::default()
            })
            .fit(&x, &wx, &wf)
            .unwrap()
        };
        let low = fit(0.0);
        let high = fit(1.0);
        let z_low = low.transform(&x).unwrap();
        let z_high = high.transform(&x).unwrap();
        let (_, loss_f_low) = low.losses(&z_low, &wx, &wf).unwrap();
        let (_, loss_f_high) = high.losses(&z_high, &wx, &wf).unwrap();
        assert!(
            loss_f_high <= loss_f_low + 1e-9,
            "γ=1 should reduce the fairness loss ({loss_f_high} vs {loss_f_low})"
        );
    }

    #[test]
    fn gamma_one_maps_paired_individuals_to_nearby_points() {
        let (x, wx, wf) = toy_problem();
        let model = Pfr::new(PfrConfig {
            gamma: 1.0,
            dim: 1,
            ..PfrConfig::default()
        })
        .fit(&x, &wx, &wf)
        .unwrap();
        let z = model.transform(&x).unwrap();
        // Each fairness pair (i, i+3) should be closer in Z than the average
        // distance between unpaired points from different clusters.
        let dist = |a: usize, b: usize| (z[(a, 0)] - z[(b, 0)]).abs();
        let paired = (dist(0, 3) + dist(1, 4) + dist(2, 5)) / 3.0;
        let unpaired = (dist(0, 4) + dist(0, 5) + dist(1, 5) + dist(2, 3)) / 4.0;
        assert!(
            paired <= unpaired + 1e-9,
            "paired distance {paired} should not exceed unpaired distance {unpaired}"
        );
    }

    #[test]
    fn objective_equals_sum_of_selected_eigenvalues() {
        let (x, wx, wf) = toy_problem();
        let model = Pfr::default().fit(&x, &wx, &wf).unwrap();
        let sum: f64 = model.eigenvalues().iter().sum();
        assert!((model.objective() - sum).abs() < 1e-12);
        // Eigenvalues of a PSD matrix are non-negative.
        for &l in model.eigenvalues() {
            assert!(l > -1e-8);
        }
    }

    #[test]
    fn empty_fairness_graph_degenerates_gracefully() {
        let (x, wx, _) = toy_problem();
        let wf = SparseGraph::new(6);
        let model = Pfr::new(PfrConfig {
            gamma: 0.5,
            dim: 2,
            ..PfrConfig::default()
        })
        .fit(&x, &wx, &wf)
        .unwrap();
        let z = model.transform(&x).unwrap();
        assert_eq!(z.shape(), (6, 2));
    }

    #[test]
    fn fit_agrees_with_the_jacobi_oracle() {
        let (x, wx, wf) = toy_problem();
        let ql = Pfr::default().fit(&x, &wx, &wf).unwrap();
        let m_mat = PfrObjective::assemble(&x, &wx, &wf, LaplacianKind::Unnormalized)
            .unwrap()
            .combine(0.5)
            .unwrap();
        let jac = Eigen::decompose_jacobi_reference(&m_mat).unwrap();
        let objective: f64 = jac.eigenvalues[..2].iter().sum();
        assert!((objective - ql.objective()).abs() < 1e-8);
    }

    #[test]
    fn split_route_gives_the_same_bits_as_fit() {
        let (x, wx, wf) = toy_problem();
        let objective = PfrObjective::assemble(&x, &wx, &wf, LaplacianKind::Unnormalized).unwrap();
        assert_eq!(objective.num_features(), 2);
        for gamma in [0.0, 0.3, 1.0] {
            let pfr = Pfr::new(PfrConfig {
                gamma,
                ..PfrConfig::default()
            });
            let direct = pfr.fit(&x, &wx, &wf).unwrap();
            let split = pfr.fit_objective(&objective).unwrap();
            assert_eq!(direct.projection(), split.projection());
            assert_eq!(direct.eigenvalues(), split.eigenvalues());
        }
        // The halves remember their Laplacian; a configuration asking for
        // the other one is refused rather than silently mislabelled.
        let normalized = Pfr::new(PfrConfig {
            laplacian: LaplacianKind::SymmetricNormalized,
            ..PfrConfig::default()
        });
        assert!(normalized.fit_objective(&objective).is_err());
        assert!(objective.combine(1.5).is_err());
    }

    #[test]
    fn warm_fit_matches_cold_fit_on_a_drifted_window() {
        let (x, wx, wf) = toy_problem();
        let serving = Pfr::default().fit(&x, &wx, &wf).unwrap();
        // A mildly drifted window, as the refit worker would assemble it.
        let x2 = x.map(|v| v * 1.02 + 0.01);
        let wx2 = KnnGraphBuilder::new(2).build(&x2).unwrap();
        let warm = Pfr::default().fit_warm(&x2, &wx2, &wf, &serving).unwrap();
        let cold = Pfr::default().fit(&x2, &wx2, &wf).unwrap();
        assert!(
            (warm.objective() - cold.objective()).abs() < 1e-7,
            "warm {} vs cold {}",
            warm.objective(),
            cold.objective()
        );
        let v = warm.projection();
        let vtv = v.transpose_matmul(v).unwrap();
        assert!(vtv.sub(&Matrix::identity(2)).unwrap().max_abs() < 1e-8);
    }

    #[test]
    fn warm_fit_with_mismatched_model_falls_back_to_cold() {
        let (x, wx, wf) = toy_problem();
        let narrow = Pfr::new(PfrConfig {
            dim: 1,
            ..PfrConfig::default()
        })
        .fit(&x, &wx, &wf)
        .unwrap();
        // dim mismatch: fit_warm must ignore the seed and still return a
        // model of the configured dimensionality.
        let model = Pfr::default().fit_warm(&x, &wx, &wf, &narrow).unwrap();
        assert_eq!(model.dim(), 2);
        let cold = Pfr::default().fit(&x, &wx, &wf).unwrap();
        assert!((model.objective() - cold.objective()).abs() < 1e-9);
    }

    #[test]
    fn normalized_laplacian_variant_runs() {
        let (x, wx, wf) = toy_problem();
        let model = Pfr::new(PfrConfig {
            laplacian: LaplacianKind::SymmetricNormalized,
            ..PfrConfig::default()
        })
        .fit(&x, &wx, &wf)
        .unwrap();
        assert_eq!(model.transform(&x).unwrap().shape(), (6, 2));
    }
}
