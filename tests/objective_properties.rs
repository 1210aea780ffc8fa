//! Property-based tests (proptest) for the cold-fit path: the one input
//! preparation against the masked route it replaced, bitwise; the
//! product-form Laplacian quadratic form against its two oracles; the block
//! form of a fairness graph against the same pairs as an edge list; the one
//! dense eigensolver against the retained Jacobi reference; the γ-free
//! split of the PFR objective against `Pfr::fit` bitwise; and the refit
//! engine's reproducibility.

use pfr::core::persistence::{
    bundle_from_string, ClassifierSection, ModelBundle, StandardizerParams,
};
use pfr::core::{FitInputs, Pfr, PfrConfig, PfrObjective};
use pfr::graph::components::{connected_components, graph_stats};
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

/// How a generated block's parts are laid out.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BlockKind {
    /// Every part one node: an equivalence class.
    Clique,
    /// Members spread over 1–5 parts, some of them empty: a quantile
    /// bucket with one part per group (one part links nothing).
    Partition,
}

/// The xorshift64 generator `block_graphs` draws its structure from.
struct Draws(u64);

impl Draws {
    /// Uniform in `0..bound`.
    fn below(&mut self, bound: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % bound as u64) as usize
    }

    /// A uniform permutation of `0..len` (Fisher–Yates).
    fn shuffled(&mut self, len: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..len).collect();
        for k in (1..len).rev() {
            v.swap(k, self.below(k + 1));
        }
        v
    }
}

/// One generated block: its kind, its parts as added and its weight.
type BlockSpec = (BlockKind, Vec<Vec<usize>>, f64);

/// A block-form graph, the same pairs as an `add_edge` oracle, and the
/// inputs every closed form is checked on.
#[derive(Debug)]
struct BlockCase {
    blocks: SparseGraph,
    oracle: SparseGraph,
    x: Matrix,
    /// Hard 0/1 predictions and probabilities, one per node.
    predictions: Vec<f64>,
    probabilities: Vec<f64>,
    /// An injective map into `n + 5` nodes.
    new_index: Vec<usize>,
}

/// The oracle: blocks emitted pair by pair with the loops the builders
/// used before blocks existed — `equivalence_class_graph`'s clique loop
/// over the members, `between_group_quantile_graph`'s loop over part pairs
/// `a < b`, members of `a`, members of `b` — then the residual edges.
fn materialise(n: usize, spec: &[BlockSpec], residual: &[(usize, usize, f64)]) -> SparseGraph {
    let mut g = SparseGraph::new(n);
    for (kind, parts, w) in spec {
        match kind {
            BlockKind::Clique => {
                let members: Vec<usize> = parts.iter().flatten().copied().collect();
                for (a_idx, &a) in members.iter().enumerate() {
                    for &b in members.iter().skip(a_idx + 1) {
                        g.add_edge(a, b, *w).unwrap();
                    }
                }
            }
            BlockKind::Partition => {
                for a in 0..parts.len() {
                    for b in (a + 1)..parts.len() {
                        for &i in &parts[a] {
                            for &j in &parts[b] {
                                g.add_edge(i, j, *w).unwrap();
                            }
                        }
                    }
                }
            }
        }
    }
    for &(i, j, w) in residual {
        g.add_edge(i, j, w).unwrap();
    }
    g
}

/// Strategy: `n ∈ 1..=60` nodes, `m ∈ 1..=8` features, up to three blocks
/// over random member subsets (cliques, partitions with empty parts, single
/// parts; blocks may overlap, and nodes outside every block stay isolated
/// unless a residual edge finds them), and up to `2n` residual edges, one
/// of them repeating a block's pair when a block has two parts. Weights are
/// multiples of 1/4 (blocks) and 1/8 (edges) other than 1, so every sum of
/// weights is exact and the counting closed forms can be held to bits.
fn block_graphs() -> impl Strategy<Value = BlockCase> {
    (1usize..=60, 1usize..=8, any::<u64>()).prop_map(|(n, m, seed)| {
        let mut draws = Draws(seed | 1);
        let mut spec: Vec<BlockSpec> = Vec::new();
        for _ in 0..draws.below(4) {
            let mut members = draws.shuffled(n);
            members.truncate(draws.below(n + 1));
            let (kind, parts) = if draws.below(3) == 0 {
                let parts = members.iter().map(|&i| vec![i]).collect();
                (BlockKind::Clique, parts)
            } else {
                let count = 1 + draws.below(5);
                let mut parts = vec![Vec::new(); count];
                for i in members {
                    parts[draws.below(count)].push(i);
                }
                (BlockKind::Partition, parts)
            };
            spec.push((kind, parts, [0.25, 0.5, 1.5, 2.0, 2.75][draws.below(5)]));
        }
        let mut residual = Vec::new();
        for _ in 0..draws.below(2 * n + 1) {
            let (i, j) = (draws.below(n), draws.below(n));
            if i != j {
                residual.push((i, j, (1 + draws.below(16)) as f64 / 8.0));
            }
        }
        for (_, parts, _) in &spec {
            let linked: Vec<&Vec<usize>> = parts.iter().filter(|p| !p.is_empty()).collect();
            if let [a, b, ..] = linked[..] {
                residual.push((a[0], b[0], 0.375));
                break;
            }
        }

        let mut blocks = SparseGraph::new(n);
        for (_, parts, w) in &spec {
            blocks.add_block(parts, *w).unwrap();
        }
        for &(i, j, w) in &residual {
            blocks.add_edge(i, j, w).unwrap();
        }
        let data: Vec<f64> = (0..n * m)
            .map(|_| draws.below(1 << 20) as f64 / (1 << 18) as f64 - 2.0)
            .collect();
        let predictions = (0..n).map(|_| draws.below(2) as f64).collect();
        let probabilities = (0..n)
            .map(|_| draws.below(1 << 30) as f64 / (1 << 30) as f64)
            .collect();
        let mut new_index = draws.shuffled(n + 5);
        new_index.truncate(n);
        BlockCase {
            blocks,
            oracle: materialise(n, &spec, &residual),
            x: Matrix::from_vec(n, m, data).expect("shape matches the buffer"),
            predictions,
            probabilities,
            new_index,
        }
    })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The whole graph as comparable bits.
fn edge_bits(graph: &SparseGraph) -> Vec<(u32, u32, u64)> {
    graph
        .edges()
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

    /// The block form is the edge list it replaces. Its edges come out in
    /// the builders' old emission order, bit for bit; edge count, total
    /// weight, degrees, mean degree, graph statistics, components, the
    /// normalized form (which walks the edges), subsampling at 5 % and
    /// 100 % and a relabelling are bitwise the oracle's; Consistency is
    /// bitwise on 0/1 predictions and within 1e-12 on probabilities; the
    /// closed-form `Xᵀ L X` is within 1e-12 of the oracle's product form,
    /// of the per-edge sum and of the dense Laplacian, and the smoothness
    /// loss within 1e-12 of the oracle's, relative to their magnitudes.
    #[test]
    fn block_form_equals_the_materialised_edge_list(case in block_graphs()) {
        let BlockCase { blocks, oracle, x, predictions, probabilities, new_index } = case;
        let n = x.rows();
        let label = format!("n={} m={} edges={}", n, x.cols(), oracle.num_edges());
        prop_assert_eq!(edge_bits(&blocks), edge_bits(&oracle), "edge order, {}", label);
        prop_assert_eq!(blocks.num_edges(), oracle.num_edges(), "{}", label);
        prop_assert_eq!(blocks.is_empty(), oracle.is_empty(), "{}", label);
        prop_assert_eq!(blocks.total_weight().to_bits(), oracle.total_weight().to_bits(), "{}", label);
        prop_assert_eq!(bits(&blocks.degrees()), bits(&oracle.degrees()), "{}", label);
        prop_assert_eq!(blocks.mean_degree().to_bits(), oracle.mean_degree().to_bits(), "{}", label);
        prop_assert_eq!(graph_stats(&blocks), graph_stats(&oracle), "{}", label);
        prop_assert_eq!(connected_components(&blocks), connected_components(&oracle), "{}", label);

        let normalized = |g: &SparseGraph| {
            bits(g.quadratic_form(&x, LaplacianKind::SymmetricNormalized).unwrap().as_slice())
        };
        prop_assert_eq!(normalized(&blocks), normalized(&oracle), "normalized, {}", label);
        for (rate, seed) in [(0.05, 7), (1.0, 11)] {
            let kept = blocks.subsample_edges(rate, seed).unwrap();
            let want = oracle.subsample_edges(rate, seed).unwrap();
            prop_assert_eq!(edge_bits(&kept), edge_bits(&want), "rate {}, {}", rate, label);
            prop_assert_eq!(kept.num_edges(), want.num_edges(), "rate {}, {}", rate, label);
        }
        let moved = blocks.relabel(n + 5, &new_index).unwrap();
        let want = oracle.relabel(n + 5, &new_index).unwrap();
        prop_assert_eq!(edge_bits(&moved), edge_bits(&want), "relabelled, {}", label);

        let hard = |g: &SparseGraph| g.weighted_disagreement(&predictions).unwrap().to_bits();
        prop_assert_eq!(hard(&blocks), hard(&oracle), "0/1 consistency, {}", label);
        let soft = |g: &SparseGraph| g.weighted_disagreement(&probabilities).unwrap();
        prop_assert!((soft(&blocks) - soft(&oracle)).abs() <= 1e-12, "soft consistency, {}", label);

        let form = blocks.quadratic_form(&x, LaplacianKind::Unnormalized).unwrap();
        let by_edges = blocks.quadratic_form_by_edges(&x).unwrap();
        let laplacian = oracle.laplacian_dense(LaplacianKind::Unnormalized);
        let dense = x.transpose_matmul(&laplacian.matmul(&x).unwrap()).unwrap();
        let scale = by_edges.max_abs();
        for (what, want) in [
            ("oracle", oracle.quadratic_form(&x, LaplacianKind::Unnormalized).unwrap()),
            ("per-edge sum", oracle.quadratic_form_by_edges(&x).unwrap()),
            ("dense Laplacian", dense),
        ] {
            let err = form.sub(&want).unwrap().max_abs();
            prop_assert!(err <= 1e-12 * scale, "vs {}: {:e} of {:e}, {}", what, err, scale, label);
        }
        let loss = blocks.smoothness_loss(&x).unwrap();
        let want = oracle.smoothness_loss(&x).unwrap();
        prop_assert!((loss - want).abs() <= 1e-12 * want, "loss {} vs {}, {}", loss, want, label);
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
