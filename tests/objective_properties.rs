//! Property-based tests (proptest) for the cold-fit path: the one input
//! preparation against the masked route it replaced, bitwise; the
//! product-form Laplacian quadratic form against its two oracles; the one
//! dense eigensolver against the retained Jacobi reference; the γ-free
//! split of the PFR objective against `Pfr::fit` bitwise; and the refit
//! engine's reproducibility.

use pfr::core::persistence::{
    bundle_from_string, ClassifierSection, ModelBundle, StandardizerParams,
};
use pfr::core::{FitInputs, Pfr, PfrConfig, PfrObjective};
use pfr::graph::{fairness, KnnGraphBuilder, LaplacianKind, SparseGraph};
use pfr::linalg::stats::Standardizer;
use pfr::linalg::{Eigen, Matrix};
use pfr::opt::{LogisticRegression, LogisticRegressionConfig};
use pfr::refit::{RefitEngine, RefitModelConfig};
use pfr::serve::ServableModel;
use proptest::prelude::*;

/// `max |got − want|` over the magnitude of `want`.
fn rel_err(got: &Matrix, want: &Matrix) -> f64 {
    got.sub(want).expect("shapes agree").max_abs() / want.max_abs().max(f64::MIN_POSITIVE)
}

/// Strategy: a graph on `n ∈ 2..=200` nodes and an `n x m` data matrix,
/// `m ∈ 1..=24`. Edges land only among the first `active` nodes (the rest
/// stay isolated), their count runs from none (one case in sixteen) to
/// about twice the complete graph — so duplicates are certain at the dense
/// end and both sides of the 4096 edges where the form once switched
/// algorithms are covered — and their weights span 10⁻⁶…10⁶.
fn graph_and_data() -> impl Strategy<Value = (SparseGraph, Matrix)> {
    (2usize..=200, 1usize..=24, -0.0625..1.0_f64).prop_flat_map(|(n, m, fill)| {
        let fill = fill.max(0.0);
        let insertions = (fill * fill * (n * n) as f64) as usize;
        (
            proptest::collection::vec((0..n, 0..n, -6.0..6.0_f64), insertions),
            proptest::collection::vec(-3.0..3.0_f64, n * m),
            2..=n,
        )
            .prop_map(move |(edges, data, active)| {
                let mut graph = SparseGraph::new(n);
                for (i, j, log_weight) in edges {
                    let (i, j) = (i % active, j % active);
                    if i != j {
                        graph
                            .add_edge(i, j, 10f64.powf(log_weight))
                            .expect("edge is valid");
                    }
                }
                let x = Matrix::from_vec(n, m, data).expect("shape matches the buffer");
                (graph, x)
            })
    })
}

/// How the eigenvalues of a generated symmetric matrix are laid out.
const SPECTRA: usize = 5;

/// Strategy: a symmetric `n x n` matrix, `n ∈ 1..=64`, as `Q Λ Qᵀ` with `Q`
/// a product of three random Householder reflectors and `Λ` one of: random,
/// repeated (three distinct values), diagonal (`Q = I`), rank-deficient
/// (half the eigenvalues exactly zero), graded (10⁻¹²…10¹²).
fn symmetric() -> impl Strategy<Value = Matrix> {
    (1usize..=64, 0..SPECTRA).prop_flat_map(|(n, kind)| {
        (
            proptest::collection::vec(-1.0..1.0_f64, n),
            proptest::collection::vec(-1.0..1.0_f64, 3 * n),
        )
            .prop_map(move |(draws, reflectors)| {
                let lambda: Vec<f64> = draws
                    .iter()
                    .enumerate()
                    .map(|(k, &u)| match kind {
                        0 | 2 => 10.0 * u,
                        1 => [-2.0, 0.5, 7.0][(u.abs() * 3.0) as usize % 3],
                        3 if k % 2 == 0 => 0.0,
                        3 => 1.0 + u.abs(),
                        _ => u.signum() * 10f64.powf(12.0 * u),
                    })
                    .collect();
                let mut a = Matrix::from_diag(&lambda);
                if kind != 2 {
                    for v in reflectors.chunks(n) {
                        let norm2: f64 = v.iter().map(|c| c * c).sum();
                        if norm2 == 0.0 {
                            continue;
                        }
                        // H = I − 2 v vᵀ / vᵀv; A ← H A H.
                        let mut h = Matrix::identity(n);
                        for r in 0..n {
                            for c in 0..n {
                                h[(r, c)] -= 2.0 * v[r] * v[c] / norm2;
                            }
                        }
                        a = h.matmul(&a).unwrap().matmul(&h).unwrap();
                    }
                }
                a.symmetrize().expect("square")
            })
    })
}

/// Strategy: a PFR problem — standardized-looking data, a k-NN graph on it
/// and a between-group quantile fairness graph from a noisy ranking.
fn pfr_problem() -> impl Strategy<Value = (Matrix, SparseGraph, SparseGraph)> {
    (12usize..=80, 2usize..=12).prop_flat_map(|(n, m)| {
        (
            proptest::collection::vec(-2.0..2.0_f64, n * m),
            proptest::collection::vec(0.0..1.0_f64, n),
        )
            .prop_map(move |(data, ranking)| {
                let x = Matrix::from_vec(n, m, data).expect("shape matches the buffer");
                let wx = KnnGraphBuilder::new(4).build(&x).expect("kNN graph builds");
                let groups: Vec<usize> = (0..n).map(|i| i % 2).collect();
                let wf = fairness::between_group_quantile_graph(&groups, &ranking, 3)
                    .expect("fairness graph builds");
                (x, wx, wf)
            })
    })
}

/// Strategy: raw rows for [`FitInputs::prepare`], `n ∈ 2..=40` and
/// `m ∈ 2..=8`, a protected column `p` (first, middle or last) holding a
/// 0/1 flag, one other column constant when `m > 2` (the standardizer's
/// 1e-12 clamp), and `k ∈ 1..=48`, so `n ≤ k` (the clamp) is common.
fn fit_rows() -> impl Strategy<Value = (Matrix, usize, usize)> {
    (2usize..=40, 2usize..=8, (0usize..3, 1usize..=48)).prop_flat_map(|(n, m, (at, k))| {
        (
            proptest::collection::vec(-3.0..3.0_f64, n * m),
            proptest::collection::vec(0usize..2, n),
        )
            .prop_map(move |(data, flags)| {
                let p = [0, m / 2, m - 1][at];
                let mut rows = Matrix::from_vec(n, m, data).expect("shape matches the buffer");
                for (i, &flag) in flags.iter().enumerate() {
                    rows[(i, p)] = flag as f64;
                    if m > 2 {
                        rows[(i, (p + 1) % m)] = 2.5;
                    }
                }
                (rows, p, k)
            })
    })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The whole graph as comparable bits.
fn edge_bits(graph: &SparseGraph) -> Vec<(u32, u32, u64)> {
    graph
        .edges()
        .iter()
        .map(|e| (e.i, e.j, e.weight.to_bits()))
        .collect()
}

/// A traffic window in the refit engine's shape: column 0 the protected
/// flag, three real columns in two blobs, moved by `shift`.
fn window(rows: usize, seed: u64, shift: f64) -> Matrix {
    let mut state = seed.max(1);
    let mut uniform = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as f64 / u64::MAX as f64
    };
    let mut w = Matrix::zeros(rows, 4);
    for i in 0..rows {
        let blob = if uniform() > 0.5 { 1.0 } else { -1.0 };
        w[(i, 0)] = (i % 2) as f64;
        for j in 1..4 {
            w[(i, j)] = shift + blob + 0.3 * (uniform() - 0.5);
        }
    }
    w
}

/// The standardized window and the two graphs the engine fits on, given
/// the ranking signal (teacher scores, or a column when there is no
/// teacher yet).
fn refit_inputs(
    window: &Matrix,
    ranking: &[f64],
) -> (Standardizer, Matrix, SparseGraph, SparseGraph) {
    let FitInputs {
        standardizer,
        x,
        wx,
    } = FitInputs::prepare(window, Some(0), 4).unwrap();
    let groups: Vec<usize> = (0..window.rows())
        .map(|i| (window[(i, 0)] > 0.5) as usize)
        .collect();
    let wf = fairness::between_group_quantile_graph(&groups, ranking, 5).unwrap();
    (standardizer, x, wx, wf)
}

fn refit_pfr() -> Pfr {
    Pfr::new(PfrConfig {
        gamma: 0.5,
        dim: 2,
        ..PfrConfig::default()
    })
}

/// A serving bundle fitted offline on `window`, the engine's teacher.
fn serving_bundle(window: &Matrix) -> ModelBundle {
    let ranking: Vec<f64> = (0..window.rows()).map(|i| window[(i, 1)]).collect();
    let (standardizer, x, wx, wf) = refit_inputs(window, &ranking);
    let model = refit_pfr().fit(&x, &wx, &wf).unwrap();
    let labels: Vec<u8> = ranking.iter().map(|&r| (r > 0.0) as u8).collect();
    let mut head = LogisticRegression::new(LogisticRegressionConfig::default());
    head.fit(&model.transform(&x).unwrap(), &labels).unwrap();
    ModelBundle {
        model,
        standardizer: Some(StandardizerParams {
            means: standardizer.means().to_vec(),
            stds: standardizer.stds().to_vec(),
        }),
        classifier: Some(ClassifierSection {
            threshold: 0.5,
            text: head.to_text().unwrap(),
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The one input preparation is the masked route every fit used to
    /// spell out, bit for bit: `x` is the standardized rows, `wx` the k-NN
    /// graph (k clamped to `n − 1`) over the standardized rows without the
    /// protected column, and flipping that column's values leaves `wx`
    /// unchanged.
    #[test]
    fn one_input_preparation_is_the_masked_route_bitwise(case in fit_rows()) {
        let (rows, p, k) = case;
        let (n, m) = rows.shape();
        let label = format!("n={n} m={m} p={p} k={k}");
        let prepared = FitInputs::prepare(&rows, Some(p), k).unwrap();
        let (standardizer, x) = Standardizer::fit_transform(&rows).unwrap();
        prop_assert_eq!(bits(prepared.x.as_slice()), bits(x.as_slice()), "{}", label);
        prop_assert_eq!(bits(prepared.standardizer.means()), bits(standardizer.means()), "{}", label);
        prop_assert_eq!(bits(prepared.standardizer.stds()), bits(standardizer.stds()), "{}", label);
        let kept: Vec<usize> = (0..m).filter(|&c| c != p).collect();
        let (_, masked) = Standardizer::fit_transform(&rows.select_cols(&kept).unwrap()).unwrap();
        let wx = KnnGraphBuilder::new(k.min(n - 1)).build(&masked).unwrap();
        prop_assert_eq!(edge_bits(&prepared.wx), edge_bits(&wx), "{}", label);

        let mut flipped = rows.clone();
        for i in 0..n {
            flipped[(i, p)] = 1.0 - rows[(i, p)];
        }
        let reprepared = FitInputs::prepare(&flipped, Some(p), k).unwrap();
        prop_assert_eq!(edge_bits(&reprepared.wx), edge_bits(&wx), "flipped, {}", label);
        prop_assert!(FitInputs::prepare(&rows, Some(m), k).is_err(), "{}", label);
    }

    /// The product form, the per-edge sum and `xᵀ·L·x` on the dense
    /// Laplacian agree to 1e-10 of the form's magnitude; the product form is
    /// symmetric to 1e-12 and its diagonal — a sum of squares — is not
    /// negative beyond rounding.
    #[test]
    fn product_form_matches_both_oracles(case in graph_and_data()) {
        let (graph, x) = case;
        let product = graph.quadratic_form(&x, LaplacianKind::Unnormalized).unwrap();
        let by_edges = graph.quadratic_form_by_edges(&x).unwrap();
        let laplacian = graph.laplacian_dense(LaplacianKind::Unnormalized);
        let dense = x.transpose_matmul(&laplacian.matmul(&x).unwrap()).unwrap();
        let label = format!("n={} m={} edges={}", x.rows(), x.cols(), graph.num_edges());
        if graph.is_empty() {
            prop_assert_eq!(product.max_abs(), 0.0, "{}", label);
            prop_assert_eq!(by_edges.max_abs(), 0.0, "{}", label);
        }
        prop_assert!(rel_err(&product, &by_edges) <= 1e-10, "vs per-edge sum, {}", label);
        prop_assert!(rel_err(&product, &dense) <= 1e-10, "vs dense Laplacian, {}", label);
        prop_assert!(rel_err(&product.transpose(), &product) <= 1e-12, "symmetry, {}", label);
        let scale = by_edges.max_abs();
        for d in product.diag() {
            prop_assert!(d >= -1e-9 * scale, "diagonal {} of scale {}, {}", d, scale, label);
        }
    }

    /// Householder + QL agrees with the Jacobi oracle on every eigenvalue to
    /// 1e-9·‖A‖, returns them ascending, and its vectors are orthonormal
    /// and satisfy `A V = V Λ` to the same bound — on random, repeated,
    /// diagonal, rank-deficient and graded spectra alike.
    #[test]
    fn ql_matches_the_jacobi_oracle(a in symmetric()) {
        let n = a.rows();
        let norm = a.max_abs().max(f64::MIN_POSITIVE);
        let ql = Eigen::decompose(&a).unwrap();
        let jacobi = Eigen::decompose_jacobi_reference(&a).unwrap();
        for (k, (got, want)) in ql.eigenvalues.iter().zip(&jacobi.eigenvalues).enumerate() {
            prop_assert!((got - want).abs() <= 1e-9 * norm, "λ_{}: {} vs {} (n={})", k, got, want, n);
        }
        prop_assert!(ql.eigenvalues.windows(2).all(|w| w[0] <= w[1]), "not ascending (n={})", n);
        let v = &ql.eigenvectors;
        let gram = v.transpose_matmul(v).unwrap();
        prop_assert!(gram.sub(&Matrix::identity(n)).unwrap().max_abs() <= 1e-9, "VᵀV ≠ I (n={})", n);
        let residual = a
            .matmul(v)
            .unwrap()
            .sub(&v.matmul(&Matrix::from_diag(&ql.eigenvalues)).unwrap())
            .unwrap();
        prop_assert!(residual.max_abs() <= 1e-9 * norm, "A V ≠ V Λ (n={})", n);
    }

    /// `Pfr::fit` and the split route (assemble once, `fit_objective` per
    /// γ) give the same model bit for bit.
    #[test]
    fn fit_equals_the_split_route_bitwise(problem in pfr_problem()) {
        let (x, wx, wf) = problem;
        let objective = PfrObjective::assemble(&x, &wx, &wf, LaplacianKind::Unnormalized).unwrap();
        for gamma in [0.0, 0.3, 1.0] {
            let pfr = Pfr::new(PfrConfig { gamma, dim: 2, ..PfrConfig::default() });
            let direct = pfr.fit(&x, &wx, &wf).unwrap();
            let split = pfr.fit_objective(&objective).unwrap();
            prop_assert_eq!(direct.projection(), split.projection(), "γ={}", gamma);
            prop_assert_eq!(direct.eigenvalues(), split.eigenvalues(), "γ={}", gamma);
            prop_assert_eq!(direct.objective().to_bits(), split.objective().to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The engine's refit reproduces its own bundle bit for bit, and the
    /// dense solve it runs reaches the objective the warm-started subspace
    /// iteration reaches on the same window.
    #[test]
    fn refit_is_reproducible_and_matches_the_warm_route(seed in 1u64..1_000_000) {
        let serving = serving_bundle(&window(96, seed, 0.0));
        let drifted = window(96, seed ^ 0x5eed, 0.4);
        let engine = RefitEngine::new(RefitModelConfig {
            dim: 2,
            knn_k: 4,
            ..RefitModelConfig::default()
        })
        .unwrap();
        let first = engine.refit(&drifted, &serving).unwrap();
        let second = engine.refit(&drifted, &serving).unwrap();
        prop_assert_eq!(&first.bundle_text, &second.bundle_text);

        let teacher = ServableModel::from_bundle("teacher", &serving).unwrap();
        let scores = teacher.score_batch(&drifted).unwrap();
        let (_, x, wx, wf) = refit_inputs(&drifted, &scores);
        let warm = refit_pfr().fit_warm(&x, &wx, &wf, &serving.model).unwrap();
        let refitted = bundle_from_string(&first.bundle_text).unwrap().model;
        prop_assert!(
            (refitted.objective() - warm.objective()).abs() <= 1e-7,
            "dense {} vs warm {}",
            refitted.objective(),
            warm.objective()
        );
    }
}
