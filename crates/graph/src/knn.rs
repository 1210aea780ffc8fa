//! k-nearest-neighbour similarity graph `WX` (Section 3.1 of the paper).
//!
//! The paper defines
//!
//! ```text
//! WX_ij = exp(−‖x_i − x_j‖² / t)   if x_i ∈ Np(x_j) or x_j ∈ Np(x_i)
//!         0                         otherwise
//! ```
//!
//! where `Np(x)` is the set of `p` nearest neighbours in Euclidean space
//! *excluding the protected attributes*, and `t` is a scalar kernel-width
//! hyper-parameter. Excluding the protected attribute is the caller's
//! responsibility (see `pfr-data`'s feature selection); this builder operates
//! on whatever feature matrix it is given.
//!
//! # Structure
//!
//! The search is exact — all `n·(n − 1)` distances are computed — and is
//! the largest line of every cold fit, so it is blocked the way
//! `pfr_linalg::gemm` is:
//!
//! * a **feature-major candidate layout**: the data matrix is copied once
//!   into strips of `W` consecutive rows, each strip stored feature by
//!   feature (`W` doubles per feature), so the candidates of a strip sit in
//!   SIMD lanes and the whole buffer streams sequentially. `W` is 8 for
//!   the AVX2 instantiation (two `ymm` per query) and 4 for the portable
//!   one; both are the same generic body, the AVX2 one compiled with
//!   `#[target_feature]` and chosen by runtime CPU detection;
//! * **query tiling**: `Q = 4` query rows are scored against each strip
//!   at once. The `Q x W` tile of squared distances lives in registers for
//!   the whole feature loop, and every strip is loaded once per `Q`
//!   queries rather than once per query;
//! * a **streaming bounded top-k** per query: a tile is compared against
//!   each query's threshold (its k-th best distance so far) in one vector
//!   compare, and only strips with a candidate under the threshold reach
//!   the scalar code that records it. No per-row distance vector exists:
//!   a query holds at most `2k` candidates, compacted to the best `k`
//!   whenever the buffer fills;
//! * **row-band parallelism** over `std::thread::scope`: the query rows are
//!   split into bands of whole tiles, one band per thread, each thread
//!   writing its own rows' slice of the result. The thread count comes
//!   from [`pfr_linalg::gemm::auto_threads`] — the search is an
//!   `n x n x m` product as far as work goes — so a few-hundred-row refit
//!   window stays on the caller's thread and nothing needs configuring.
//!
//! # Determinism
//!
//! Every fit must reproduce its bundle bit for bit, so the graph does not
//! depend on the thread count, the instruction set or the tile geometry:
//!
//! * each pair's squared distance is its own lane's sum, accumulated from
//!   `0.0` over the features in ascending order with a separate subtract,
//!   multiply and add (never fused). That is the scalar
//!   [`squared_distance`] loop exactly, so the distances — and the kernel
//!   weights computed from them — have its bits. The tile only decides
//!   which pairs are computed *together*;
//! * neighbours are selected under the total order `(distance, index)`:
//!   of several equidistant candidates the one with the **smaller row
//!   index** wins. Candidates arrive in ascending index order, which is
//!   why the threshold test is a strict `<`;
//! * a row's neighbours depend on that row alone, and the band split only
//!   decides which thread computes it.
//!
//! The plain per-pair loop is kept as
//! [`KnnGraphBuilder::build_reference`], the oracle
//! `tests/knn_properties.rs` compares the kernel against bitwise.

use crate::error::GraphError;
use crate::sparse::SparseGraph;
use crate::Result;
use pfr_linalg::gemm::auto_threads;
use pfr_linalg::vector::squared_distance;
use pfr_linalg::Matrix;
use std::cmp::Ordering;
use std::num::NonZeroUsize;
use std::ops::Range;

/// Query rows scored against each candidate strip at once.
const Q: usize = 4;

/// One selected neighbour: squared distance and row index.
type Neighbour = (f64, u32);

/// The selection order: nearer first, the smaller row index among equals.
fn by_distance_then_index(a: &Neighbour, b: &Neighbour) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// How the RBF kernel width `t` is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelWidth {
    /// A fixed, caller-supplied width.
    Fixed(f64),
    /// The median of the squared distances to the selected neighbours
    /// (a standard, scale-free heuristic). This is the default.
    MedianHeuristic,
}

/// Builder for the k-nearest-neighbour RBF similarity graph.
#[derive(Debug, Clone)]
pub struct KnnGraphBuilder {
    k: usize,
    width: KernelWidth,
}

impl KnnGraphBuilder {
    /// Creates a builder that connects each point to its `k` nearest
    /// neighbours with the median-heuristic kernel width.
    pub fn new(k: usize) -> Self {
        KnnGraphBuilder {
            k,
            width: KernelWidth::MedianHeuristic,
        }
    }

    /// Overrides the kernel width selection strategy.
    pub fn with_kernel_width(mut self, width: KernelWidth) -> Self {
        self.width = width;
        self
    }

    /// Number of neighbours per point.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Builds the similarity graph from a data matrix with one row per
    /// individual.
    ///
    /// The graph contains an edge `{i, j}` iff `i` is among the `k` nearest
    /// neighbours of `j` or vice versa, weighted by
    /// `exp(−‖x_i − x_j‖² / t)`. The returned graph has duplicate candidate
    /// edges already merged.
    ///
    /// Neighbours are ranked by `(distance, row index)`: when several
    /// candidates are equally far from a point, the ones with the smaller
    /// row index are its neighbours. The result is the same bit for bit
    /// whatever the machine's core count or instruction set (see the
    /// module docs). Every feature value must be finite.
    pub fn build(&self, x: &Matrix) -> Result<SparseGraph> {
        self.build_forced(x, None, false)
    }

    /// [`build`](Self::build) with the worker count forced (`None` sizes
    /// it from the work, as `build` does) and, with `portable`, the
    /// runtime-detected SIMD instantiation bypassed. The determinism tests
    /// call this; the graph is the same for every combination.
    #[doc(hidden)]
    pub fn build_forced(
        &self,
        x: &Matrix,
        threads: Option<NonZeroUsize>,
        portable: bool,
    ) -> Result<SparseGraph> {
        self.validate(x)?;
        let (n, m) = x.shape();
        let mut neighbours: Vec<Neighbour> = vec![(0.0, 0); n * self.k];
        let n_threads = threads.map_or_else(|| auto_threads(n, n, m), NonZeroUsize::get);
        #[cfg(target_arch = "x86_64")]
        if !portable && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: runtime detection above confirmed AVX2, so the
            // target-feature instantiation is safe on this CPU.
            let band = |packed: &[f64], rows: Range<usize>, out: &mut [Neighbour]| unsafe {
                band_avx2(x, packed, self.k, rows, out)
            };
            search::<8>(x, self.k, n_threads, &mut neighbours, band);
            return self.assemble(n, neighbours);
        }
        let band = |packed: &[f64], rows: Range<usize>, out: &mut [Neighbour]| {
            band_portable(x, packed, self.k, rows, out)
        };
        search::<4>(x, self.k, n_threads, &mut neighbours, band);
        self.assemble(n, neighbours)
    }

    /// The brute-force search — one scalar [`squared_distance`] per pair,
    /// a full `n − 1` record vector and a selection per row — under the
    /// same `(distance, index)` order. Kept only as the oracle the
    /// property tests compare [`build`](Self::build) against bitwise, the
    /// role `Matrix::matmul_naive` plays for the GEMM kernel.
    #[doc(hidden)]
    pub fn build_reference(&self, x: &Matrix) -> Result<SparseGraph> {
        self.validate(x)?;
        let n = x.rows();
        let mut neighbours: Vec<Neighbour> = Vec::with_capacity(n * self.k);
        let mut dists: Vec<Neighbour> = Vec::with_capacity(n - 1);
        for i in 0..n {
            dists.clear();
            let xi = x.row(i);
            dists.extend(
                (0..n)
                    .filter(|&j| j != i)
                    .map(|j| (squared_distance(xi, x.row(j)), j as u32)),
            );
            dists.select_nth_unstable_by(self.k - 1, by_distance_then_index);
            neighbours.extend_from_slice(&dists[..self.k]);
        }
        self.assemble(n, neighbours)
    }

    /// Rejects parameters and data no graph can be built from.
    fn validate(&self, x: &Matrix) -> Result<()> {
        let n = x.rows();
        if n == 0 {
            return Err(GraphError::InvalidParameter(
                "cannot build a k-NN graph from an empty data matrix".to_string(),
            ));
        }
        if self.k == 0 {
            return Err(GraphError::InvalidParameter(
                "k must be at least 1".to_string(),
            ));
        }
        if self.k >= n {
            return Err(GraphError::InvalidParameter(format!(
                "k = {} must be smaller than the number of points ({n})",
                self.k
            )));
        }
        if let KernelWidth::Fixed(t) = self.width {
            if t <= 0.0 {
                return Err(GraphError::InvalidParameter(format!(
                    "kernel width must be positive, got {t}"
                )));
            }
        }
        // A distance computed from a NaN or an infinity is NaN, which is
        // below no threshold: the scan would silently drop the candidate.
        if let Some(at) = x.as_slice().iter().position(|v| !v.is_finite()) {
            return Err(GraphError::InvalidParameter(format!(
                "feature value at row {}, column {} is not finite ({})",
                at / x.cols(),
                at % x.cols(),
                x.as_slice()[at]
            )));
        }
        Ok(())
    }

    /// Turns the selected neighbours (row `i`'s at `[i·k, (i+1)·k)`) into
    /// the weighted, merged graph.
    fn assemble(&self, n: usize, neighbours: Vec<Neighbour>) -> Result<SparseGraph> {
        let t = match self.width {
            KernelWidth::Fixed(t) => t,
            KernelWidth::MedianHeuristic => {
                let mut d2s: Vec<f64> = neighbours.iter().map(|&(d2, _)| d2).collect();
                let mid = d2s.len() / 2;
                let median = *d2s.select_nth_unstable_by(mid, f64::total_cmp).1;
                if median > 1e-12 {
                    median
                } else {
                    1.0
                }
            }
        };

        let mut graph = SparseGraph::new(n);
        for (at, (d2, j)) in neighbours.into_iter().enumerate() {
            let w = (-d2 / t).exp();
            graph.add_edge(at / self.k, j as usize, w)?;
        }
        // The same pair may appear from both directions; keep the kernel
        // weight (identical in both) rather than doubling it.
        graph.coalesce_max();
        Ok(graph)
    }
}

/// The bounded running selection of one query row: the `k` best candidates
/// offered so far under [`by_distance_then_index`], plus up to `k` more
/// awaiting the next compaction.
struct TopK {
    k: usize,
    buf: Vec<Neighbour>,
    /// The k-th best distance as of the last compaction; infinite until
    /// then. Once `k` candidates are held, a later one at or above it
    /// cannot be selected.
    threshold: f64,
}

impl TopK {
    fn new(k: usize, n: usize) -> Self {
        TopK {
            k,
            buf: Vec::with_capacity((2 * k).min(n)),
            threshold: f64::INFINITY,
        }
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.threshold = f64::INFINITY;
    }

    /// Whether a strip with these distances may hold a selectable
    /// candidate. While the threshold is infinite nothing can be ruled
    /// out — squared distances of huge finite values overflow to `+∞`.
    #[inline(always)]
    fn admits(&self, dists: &[f64]) -> bool {
        self.threshold == f64::INFINITY
            || dists
                .iter()
                .fold(false, |any, &d| any | (d < self.threshold))
    }

    /// Records every candidate of one strip (`dists[c]` is row `j0 + c`)
    /// that can still be selected, is a real row and is not the query `i`
    /// itself. Rows are offered in ascending order, so a candidate that
    /// ties the k-th best has the larger index and loses: `<`.
    #[inline(never)]
    fn offer(&mut self, dists: &[f64], j0: usize, n: usize, i: usize) {
        for (c, &d) in dists.iter().enumerate() {
            let j = j0 + c;
            if (d < self.threshold || self.buf.len() < self.k) && j < n && j != i {
                self.buf.push((d, j as u32));
                if self.buf.len() == 2 * self.k {
                    self.compact();
                }
            }
        }
    }

    /// Keeps the `k` best of the buffer and tightens the threshold to the
    /// worst of them.
    fn compact(&mut self) {
        if self.buf.len() > self.k {
            self.buf
                .select_nth_unstable_by(self.k - 1, by_distance_then_index);
            self.buf.truncate(self.k);
            self.threshold = self.buf[self.k - 1].0;
        }
    }
}

/// Copies `x` into `W`-row strips, each feature-major: the value of row
/// `s·W + c`, feature `f` lives at `s·m·W + f·W + c`. The last strip is
/// padded with zeros (padded lanes are never selected, see
/// [`TopK::offer`]).
fn pack_strips<const W: usize>(x: &Matrix) -> Vec<f64> {
    let (n, m) = x.shape();
    let mut packed = vec![0.0f64; n.div_ceil(W) * m * W];
    for i in 0..n {
        let strip = &mut packed[(i / W) * m * W..];
        for (f, &v) in x.row(i).iter().enumerate() {
            strip[f * W + i % W] = v;
        }
    }
    packed
}

/// Shared body of one thread's band: selects the `k` nearest neighbours
/// of every query row in `rows` (whole [`Q`]-tiles, except at the end of
/// the matrix) and writes row `i`'s at `out[(i − rows.start)·k ..]`.
#[inline(always)]
fn band_body<const W: usize>(
    x: &Matrix,
    packed: &[f64],
    k: usize,
    rows: Range<usize>,
    out: &mut [Neighbour],
) {
    let (n, m) = x.shape();
    let mut best: [TopK; Q] = std::array::from_fn(|_| TopK::new(k, n));
    // The tile's query rows, feature-major: `queries[f·Q + q]`.
    let mut queries = vec![0.0f64; m * Q];
    for i0 in rows.clone().step_by(Q) {
        let live = Q.min(rows.end - i0);
        for q in 0..live {
            for (f, &v) in x.row(i0 + q).iter().enumerate() {
                queries[f * Q + q] = v;
            }
        }
        best.iter_mut().for_each(TopK::clear);
        // Tile rows past the end of the band select nothing.
        for dead in &mut best[live..] {
            dead.threshold = f64::NEG_INFINITY;
        }

        for s in 0..n.div_ceil(W) {
            let strip = &packed[s * m * W..(s + 1) * m * W];
            // A non-escaping local tile stays in SIMD registers for the
            // whole feature loop (cf. gemm's micro-kernel).
            let mut tile = [[0.0f64; W]; Q];
            for (col, xq) in strip.chunks_exact(W).zip(queries.chunks_exact(Q)) {
                for (acc, &xqf) in tile.iter_mut().zip(xq.iter()) {
                    for (a, &xjf) in acc.iter_mut().zip(col.iter()) {
                        let d = xqf - xjf;
                        *a += d * d;
                    }
                }
            }
            for (q, dists) in tile.iter().enumerate() {
                if best[q].admits(dists) {
                    best[q].offer(dists, s * W, n, i0 + q);
                }
            }
        }

        for (q, top) in best.iter_mut().enumerate().take(live) {
            top.compact();
            let at = (i0 + q - rows.start) * k;
            out[at..at + k].copy_from_slice(&top.buf);
        }
    }
}

/// Portable instantiation: 4-row strips, baseline code generation.
fn band_portable(x: &Matrix, packed: &[f64], k: usize, rows: Range<usize>, out: &mut [Neighbour]) {
    band_body::<4>(x, packed, k, rows, out);
}

/// AVX2 instantiation: 8-row strips (two `ymm` per query row). FMA is
/// deliberately not enabled: a fused multiply-add would change the bits.
/// Only called after runtime detection confirms AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn band_avx2(x: &Matrix, packed: &[f64], k: usize, rows: Range<usize>, out: &mut [Neighbour]) {
    band_body::<8>(x, packed, k, rows, out);
}

/// Packs the candidates, splits the query rows into per-thread bands of
/// whole tiles and runs `band` (one instantiation of [`band_body`]) on
/// each, filling `out` with row `i`'s neighbours at `[i·k, (i+1)·k)`.
fn search<const W: usize>(
    x: &Matrix,
    k: usize,
    n_threads: usize,
    out: &mut [Neighbour],
    band: impl Fn(&[f64], Range<usize>, &mut [Neighbour]) + Sync,
) {
    let n = x.rows();
    let packed = pack_strips::<W>(x);
    let tiles = n.div_ceil(Q);
    let n_threads = n_threads.clamp(1, tiles);
    if n_threads == 1 {
        band(&packed, 0..n, out);
        return;
    }
    // Bands are disjoint, so each thread gets an exclusive &mut slice of
    // the result — no locks, and no row's selection is affected by the
    // split.
    let band_rows = tiles.div_ceil(n_threads) * Q;
    std::thread::scope(|scope| {
        let (band, packed) = (&band, &packed);
        for (b, out_band) in out.chunks_mut(band_rows * k).enumerate() {
            let rows = b * band_rows..((b + 1) * band_rows).min(n);
            scope.spawn(move || band(packed, rows, out_band));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three tight points near the origin plus one far away.
    fn clustered_data() -> Matrix {
        Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![0.0, 0.1],
            vec![10.0, 10.0],
        ])
        .unwrap()
    }

    #[test]
    fn rejects_bad_parameters() {
        let x = clustered_data();
        assert!(KnnGraphBuilder::new(0).build(&x).is_err());
        assert!(KnnGraphBuilder::new(4).build(&x).is_err());
        assert!(KnnGraphBuilder::new(1)
            .with_kernel_width(KernelWidth::Fixed(0.0))
            .build(&x)
            .is_err());
        assert!(KnnGraphBuilder::new(1).build(&Matrix::zeros(0, 2)).is_err());
    }

    #[test]
    fn equidistant_candidates_are_taken_in_index_order() {
        // Rows 1..=4 are copies at distance 1 from row 0; row 5 is the one
        // strictly nearer point. With k = 3, row 0 takes row 5 and then the
        // two lowest-indexed copies.
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![1.0, 0.0],
            vec![1.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 0.5],
        ])
        .unwrap();
        let builder = KnnGraphBuilder::new(3).with_kernel_width(KernelWidth::Fixed(4.0));
        let g = builder.build(&x).unwrap();
        let from_zero: Vec<u32> = g.edges().filter(|e| e.i == 0).map(|e| e.j).collect();
        assert_eq!(from_zero, vec![1, 2, 5]);
        let reference = builder.build_reference(&x).unwrap();
        assert!(g.edges().eq(reference.edges()));
    }

    #[test]
    fn overflowing_distances_are_ranked_not_dropped() {
        // Finite features whose squared differences overflow to +∞: every
        // row still gets k neighbours, the +∞ ties going by index (their
        // weight underflows to zero, so they leave no edge).
        let rows: Vec<Vec<f64>> = (0..11)
            .map(|i| vec![if i % 2 == 0 { 1e200 } else { -1e200 }, i as f64])
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        for k in [1, 5, 7, 10] {
            let builder = KnnGraphBuilder::new(k).with_kernel_width(KernelWidth::Fixed(50.0));
            let g = builder.build(&x).unwrap();
            let reference = builder.build_reference(&x).unwrap();
            assert!(g.edges().eq(reference.edges()));
        }
    }

    #[test]
    fn each_node_has_at_least_k_neighbours() {
        // Use a wide kernel so that even the distant point keeps weights that
        // do not underflow to zero (zero-weight edges are dropped).
        let x = clustered_data();
        let g = KnnGraphBuilder::new(2)
            .with_kernel_width(KernelWidth::Fixed(1000.0))
            .build(&x)
            .unwrap();
        let mut neighbours = vec![0; x.rows()];
        for e in g.edges() {
            neighbours[e.i as usize] += 1;
            neighbours[e.j as usize] += 1;
        }
        for (i, &count) in neighbours.iter().enumerate() {
            assert!(count >= 2, "node {i} has only {count} neighbours");
        }
    }

    #[test]
    fn nearby_points_get_larger_weights_than_distant_ones() {
        let x = clustered_data();
        let g = KnnGraphBuilder::new(1)
            .with_kernel_width(KernelWidth::Fixed(1.0))
            .build(&x)
            .unwrap();
        let w = g.adjacency_dense();
        // Points 0 and 1 are close: weight close to exp(-0.01) ≈ 0.99.
        assert!(w[(0, 1)] > 0.9);
        // Point 3 is far from everything; its single edge has a tiny weight.
        let w3: f64 = (0..3).map(|j| w[(3, j)]).sum();
        assert!(w3 < 1e-10);
    }

    #[test]
    fn weights_are_symmetric_and_not_doubled() {
        let x = clustered_data();
        let g = KnnGraphBuilder::new(2)
            .with_kernel_width(KernelWidth::Fixed(0.5))
            .build(&x)
            .unwrap();
        let w = g.adjacency_dense();
        for i in 0..4 {
            for j in 0..4 {
                assert!((w[(i, j)] - w[(j, i)]).abs() < 1e-12);
                // exp(-d²/t) ≤ 1, so any doubling would exceed 1.
                assert!(w[(i, j)] <= 1.0 + 1e-12);
            }
        }
    }

    #[test]
    fn median_heuristic_produces_moderate_weights() {
        let x = clustered_data();
        let g = KnnGraphBuilder::new(1).build(&x).unwrap();
        // With the median heuristic at least one edge weight should be
        // macroscopic (the kernel width adapts to the data scale).
        let max_w = g.edges().map(|e| e.weight).fold(0.0_f64, f64::max);
        assert!(max_w > 0.3);
    }

    #[test]
    fn identical_points_are_handled() {
        let x = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let g = KnnGraphBuilder::new(1).build(&x).unwrap();
        // All distances are zero; median heuristic falls back to width 1.0
        // and weights are exp(0) = 1.
        for e in g.edges() {
            assert!((e.weight - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn larger_dataset_smoke_test() {
        // A ring of 50 points; k = 3.
        let rows: Vec<Vec<f64>> = (0..50)
            .map(|i| {
                let a = i as f64 / 50.0 * std::f64::consts::TAU;
                vec![a.cos(), a.sin()]
            })
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let g = KnnGraphBuilder::new(3).build(&x).unwrap();
        assert_eq!(g.num_nodes(), 50);
        // Between 50*3/2 (fully mutual) and 50*3 (no mutual pairs) edges.
        assert!(g.num_edges() >= 75 && g.num_edges() <= 150);
    }
}
