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
//! The search is exact and is the largest line of every cold fit. A
//! distance is symmetric in its pair, so the search computes each pair
//! **once** — `n·(n − 1)/2` distances, one sweep over the upper triangle —
//! and is blocked the way `pfr_linalg::gemm` is:
//!
//! * a **feature-major candidate layout**: the data matrix is copied once
//!   into strips of `W` consecutive rows, each strip stored feature by
//!   feature (`W` doubles per feature), so the candidates of a strip sit in
//!   SIMD lanes and the whole buffer streams sequentially. `W` is 16 for
//!   the AVX-512F instantiation (two `zmm` per query), 8 for the AVX2 one
//!   (two `ymm`) and 4 for the portable one; all three are the same generic
//!   body, the vector ones compiled with `#[target_feature]` and chosen by
//!   runtime CPU detection;
//! * **query tiling over the upper triangle**: `Q = 4` query rows starting
//!   at `i0` are scored against the strips `s ≥ i0 / W` only, all at once.
//!   The `Q x W` tile of squared distances lives in registers for the whole
//!   feature loop, and every strip is loaded once per `Q` queries;
//! * **each pair once, offered both ways**: a lane `j > i` of query `i`'s
//!   tile row offers `(d, j)` to row `i` and `(d, i)` to row `j` (lanes
//!   `j ≤ i` are that pair seen from the other side, or the query itself);
//! * a **bounded max-heap per row** under `(distance, index)`, held in that
//!   row's `k` slots of the output buffer, beside a fill count and an
//!   `n`-long array of admission bounds: NaN while the row holds fewer than
//!   `k` (anything is admitted, `+∞` included), then its root's distance;
//!   the padding lanes of the last strip hold `−∞`. A pair is worth
//!   offering if it beats the query's bound or the lane's, so one vector
//!   compare of a tile row against the larger of the two per lane (a NaN
//!   wins) decides whether the strip reaches the scalar code that offers
//!   its candidates. No per-row distance vector exists;
//! * **row-band parallelism** over `std::thread::scope`: the query tiles are
//!   split into bands of about equal *pair count* (an early tile sees more
//!   strips than a late one), one band per thread. A band offers to rows
//!   beyond it, so every thread after the first fills a private heap set,
//!   and at the end each row keeps the `k` best of the union. The thread
//!   count comes from [`pfr_linalg::gemm::auto_threads`] — the search is an
//!   `n x n x m` product as far as the rule goes — so a few-hundred-row
//!   refit window stays on the caller's thread and nothing needs
//!   configuring.
//!
//! # Determinism
//!
//! Every fit must reproduce its bundle bit for bit, so the graph does not
//! depend on the thread count, the instruction set or the tile geometry:
//!
//! * each pair's squared distance is its own lane's sum, accumulated from
//!   `0.0` over the features in ascending order with a separate subtract,
//!   multiply and add (never fused). That is the scalar
//!   [`squared_distance`] loop exactly, and `(a − b)²` and `(b − a)²` are
//!   the same bits, so both rows of a pair receive its distance — and the
//!   kernel weight computed from it — with those bits. The tile only
//!   decides which pairs are computed *together*;
//! * neighbours are selected under the total order `(distance, index)`:
//!   of several equidistant candidates the one with the **smaller row
//!   index** wins. Within one heap set every row `r` receives its
//!   candidates in ascending index order — first the rows `i < r`, as a
//!   lane of their queries (tiles in order, a tile's queries in order),
//!   then the rows `j > r` of its own pass, strips in order. A candidate
//!   that ties the root has the larger index and loses, which is why the
//!   admission test is a strict `<`;
//! * a heap set holds the exact `k` best of the candidates its band
//!   offered, and the `k` best of the union of those is the `k` best of
//!   all, so the band split only decides which thread computes a pair.
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

/// An instantiation of the search kernel, for the determinism tests: the
/// graph is the same bit for bit whichever one runs.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// 4-row strips, baseline code generation.
    Portable,
    /// 8-row strips, two `ymm` per query row.
    Avx2,
    /// 16-row strips, two `zmm` per query row.
    Avx512F,
}

impl Isa {
    /// Every instantiation, narrowest first.
    pub const ALL: [Isa; 3] = [Isa::Portable, Isa::Avx2, Isa::Avx512F];

    /// Whether this CPU runs the instantiation.
    pub fn is_available(self) -> bool {
        match self {
            Isa::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512F => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest instantiation this CPU runs: the one
    /// [`KnnGraphBuilder::build`] uses.
    pub fn detect() -> Isa {
        let widest = Isa::ALL.into_iter().rev().find(|isa| isa.is_available());
        widest.unwrap_or(Isa::Portable)
    }
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
    /// module docs). Every feature value must be finite, and the row count
    /// must fit 32-bit node indices.
    pub fn build(&self, x: &Matrix) -> Result<SparseGraph> {
        self.build_forced(x, None, Isa::detect())
    }

    /// [`build`](Self::build) with the worker count forced (`None` sizes
    /// it from the work, as `build` does) and the instantiation chosen
    /// (an error if this CPU does not run it). The determinism tests call
    /// this; the graph is the same for every combination.
    #[doc(hidden)]
    pub fn build_forced(
        &self,
        x: &Matrix,
        threads: Option<NonZeroUsize>,
        isa: Isa,
    ) -> Result<SparseGraph> {
        self.validate(x)?;
        if !isa.is_available() {
            return Err(GraphError::InvalidParameter(format!(
                "this CPU does not run the {isa:?} k-NN kernel"
            )));
        }
        let (n, m) = x.shape();
        let n_threads = threads.map_or_else(|| auto_threads(n, n, m), NonZeroUsize::get);
        let k = self.k;
        let neighbours = match isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512F => search::<16>(x, k, n_threads, |packed, rows, heaps| {
                // SAFETY: `is_available` confirmed AVX-512F above.
                unsafe { band_avx512(x, packed, rows, heaps) }
            }),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => search::<8>(x, k, n_threads, |packed, rows, heaps| {
                // SAFETY: `is_available` confirmed AVX2 above.
                unsafe { band_avx2(x, packed, rows, heaps) }
            }),
            // `Portable`; off x86-64 the vector variants never get here, as
            // `is_available` refused them above.
            _ => search::<4>(x, k, n_threads, |packed, rows, heaps| {
                band_portable(x, packed, rows, heaps)
            }),
        };
        self.assemble(n, neighbours)
    }

    /// The brute-force search — one scalar [`squared_distance`] per
    /// ordered pair, a full `n − 1` record vector and a selection per row —
    /// under the same `(distance, index)` order. Kept only as the oracle
    /// the property tests compare [`build`](Self::build) against bitwise,
    /// the role `Matrix::matmul_naive` plays for the GEMM kernel.
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
        // Neighbours and edges store row indices in 32 bits.
        if u32::try_from(n - 1).is_err() {
            return Err(GraphError::InvalidParameter(format!(
                "{n} rows do not fit 32-bit node indices"
            )));
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
        // below no bound: the scan would silently drop the candidate.
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

    /// Turns the selected neighbours (row `i`'s at `[i·k, (i+1)·k)`, in any
    /// order) into the weighted, merged graph.
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

/// Whether a row whose admission bound is `bound` takes a candidate at
/// distance `d`: `d < bound` once the row holds `k` (the strict `<` of the
/// module docs), always while its bound is NaN (fewer than `k` held — even
/// `+∞`, the square of a huge finite difference), never at `−∞` (a padding
/// lane).
#[inline(always)]
#[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must compare unordered
fn admits(bound: f64, d: f64) -> bool {
    !(bound <= d)
}

/// One heap set: a bounded max-heap per row under [`by_distance_then_index`],
/// each holding the best candidates offered to its row so far.
struct Heaps {
    k: usize,
    /// Row `r`'s heap is `slots[r·k .. r·k + fill[r]]`, its worst at the
    /// root.
    slots: Vec<Neighbour>,
    fill: Vec<u32>,
    /// Row `r`'s admission bound (see [`admits`]), padded with `−∞` to whole
    /// strips.
    bound: Vec<f64>,
}

impl Heaps {
    fn new(n: usize, k: usize, padded: usize) -> Self {
        let mut bound = vec![f64::NAN; padded];
        bound[n..].fill(f64::NEG_INFINITY);
        Heaps {
            k,
            slots: vec![(0.0, 0); n * k],
            fill: vec![0; n],
            bound,
        }
    }

    /// Whether the strip whose lanes start at row `j0` may hold a candidate
    /// either query row `i` or a lane's own row takes. A superset of what
    /// [`Heaps::offer`] records.
    #[inline(always)]
    fn strip_admits<const W: usize>(&self, dists: &[f64; W], i: usize, j0: usize) -> bool {
        let query = self.bound[i];
        if query.is_nan() {
            return true;
        }
        // `admits(query, d) | admits(lane, d)` as one compare: against the
        // larger bound, or the lane's if that is NaN.
        let lanes = &self.bound[j0..j0 + W];
        dists.iter().zip(lanes).fold(false, |any, (&d, &lane)| {
            let bound = if lane <= query { query } else { lane };
            any | admits(bound, d)
        })
    }

    /// Offers every real pair of query `i` with the strip whose lanes start
    /// at row `j0` (`dists[c]` is row `j0 + c`), both ways: lanes `j > i`
    /// only, in ascending order.
    #[inline(never)]
    fn offer(&mut self, dists: &[f64], j0: usize, i: usize, n: usize) {
        let lanes = (i + 1).saturating_sub(j0)..dists.len().min(n - j0);
        for (j, &d) in (j0 + lanes.start..).zip(&dists[lanes]) {
            if admits(self.bound[i], d) {
                self.push(i, (d, j as u32));
            }
            if admits(self.bound[j], d) {
                self.push(j, (d, i as u32));
            }
        }
    }

    /// Adds `cand` to row `r`'s heap, which must either hold fewer than `k`
    /// or have a root that `cand` precedes; the root is then dropped.
    fn push(&mut self, r: usize, cand: Neighbour) {
        let k = self.k;
        let heap = &mut self.slots[r * k..(r + 1) * k];
        let fill = self.fill[r] as usize;
        let greater = |a: &Neighbour, b: &Neighbour| by_distance_then_index(a, b).is_gt();
        let mut at;
        if fill < k {
            at = fill;
            while at > 0 && greater(&cand, &heap[(at - 1) / 2]) {
                heap[at] = heap[(at - 1) / 2];
                at = (at - 1) / 2;
            }
            self.fill[r] += 1;
        } else {
            at = 0;
            loop {
                let mut child = 2 * at + 1;
                if child >= k {
                    break;
                }
                if child + 1 < k && greater(&heap[child + 1], &heap[child]) {
                    child += 1;
                }
                if !greater(&heap[child], &cand) {
                    break;
                }
                heap[at] = heap[child];
                at = child;
            }
        }
        heap[at] = cand;
        if fill + 1 >= k {
            self.bound[r] = heap[0].0;
        }
    }

    /// Folds another heap set in: each row keeps the `k` best of both.
    fn merge(&mut self, other: &Heaps) {
        let k = self.k;
        for (r, &fill) in other.fill.iter().enumerate() {
            for &cand in &other.slots[r * k..r * k + fill as usize] {
                if (self.fill[r] as usize) < k
                    || by_distance_then_index(&cand, &self.slots[r * k]).is_lt()
                {
                    self.push(r, cand);
                }
            }
        }
    }
}

/// Copies `x` into `W`-row strips, each feature-major: the value of row
/// `s·W + c`, feature `f` lives at `s·m·W + f·W + c`. The last strip is
/// padded with zeros (padded lanes are never offered, see
/// [`Heaps::offer`]).
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

/// Shared body of one thread's band: scores the query rows in `rows`
/// (whole [`Q`]-tiles, except at the end of the matrix) against every row
/// after them and offers each pair to both of its rows in `heaps`.
#[inline(always)]
fn band_body<const W: usize>(x: &Matrix, packed: &[f64], rows: Range<usize>, heaps: &mut Heaps) {
    let (n, m) = x.shape();
    // The tile's query rows, feature-major: `queries[f·Q + q]`.
    let mut queries = vec![0.0f64; m * Q];
    for i0 in rows.clone().step_by(Q) {
        let live = Q.min(rows.end - i0);
        for q in 0..live {
            for (f, &v) in x.row(i0 + q).iter().enumerate() {
                queries[f * Q + q] = v;
            }
        }

        // `Q` divides `W`, so the tile's rows share its first strip.
        const { assert!(W.is_multiple_of(Q)) };
        for s in i0 / W..n.div_ceil(W) {
            let tile = distances::<W>(&packed[s * m * W..(s + 1) * m * W], &queries);
            // Tile rows past the end of the matrix offer nothing.
            for (i, dists) in (i0..).zip(&tile[..live]) {
                if heaps.strip_admits(dists, i, s * W) {
                    heaps.offer(dists, s * W, i, n);
                }
            }
        }
    }
}

/// The `Q x W` tile of squared distances between the query rows
/// (`queries[f·Q + q]`) and one strip. The accumulators are a local that
/// only escapes once the feature loop is done, so they stay in SIMD
/// registers for all of it (cf. gemm's micro-kernel).
#[inline(always)]
fn distances<const W: usize>(strip: &[f64], queries: &[f64]) -> [[f64; W]; Q] {
    let mut tile = [[0.0f64; W]; Q];
    for (col, xq) in strip.chunks_exact(W).zip(queries.chunks_exact(Q)) {
        for (acc, &xqf) in tile.iter_mut().zip(xq.iter()) {
            for (a, &xjf) in acc.iter_mut().zip(col.iter()) {
                let d = xqf - xjf;
                *a += d * d;
            }
        }
    }
    tile
}

/// Portable instantiation: 4-row strips, baseline code generation.
fn band_portable(x: &Matrix, packed: &[f64], rows: Range<usize>, heaps: &mut Heaps) {
    band_body::<4>(x, packed, rows, heaps);
}

/// AVX2 instantiation: 8-row strips (two `ymm` per query row). Only called
/// after runtime detection confirms AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn band_avx2(x: &Matrix, packed: &[f64], rows: Range<usize>, heaps: &mut Heaps) {
    band_body::<8>(x, packed, rows, heaps);
}

/// AVX-512F instantiation: 16-row strips (two `zmm` per query row). Only
/// called after runtime detection confirms AVX-512F.
///
/// Neither vector instantiation fuses the multiply and add of a distance:
/// the body never calls `mul_add`, and Rust never contracts the two, so the
/// bits are the portable body's.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn band_avx512(x: &Matrix, packed: &[f64], rows: Range<usize>, heaps: &mut Heaps) {
    band_body::<16>(x, packed, rows, heaps);
}

/// Splits the query rows into at most `threads` bands of whole tiles with
/// about equal pair counts. A row is scored against the rows after it, so
/// tile `t` costs about `n − t·Q` and the early bands are the short ones.
fn bands(n: usize, threads: usize) -> Vec<Range<usize>> {
    let tiles = n.div_ceil(Q);
    let cost = |t: usize| (n - t * Q) as f64;
    let total: f64 = (0..tiles).map(cost).sum();
    let mut starts = vec![0];
    let mut done = 0.0;
    for t in 0..tiles - 1 {
        done += cost(t);
        // At most one cut per tile, and none after the last target.
        if done * threads as f64 >= total * starts.len() as f64 {
            starts.push((t + 1) * Q);
        }
    }
    starts.push(n);
    starts.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Packs the candidates, runs `band` (one instantiation of [`band_body`])
/// on each band of [`bands`] — the first into the heap set that becomes
/// the result, every other into a private one — and merges, returning row
/// `i`'s `k` neighbours at `[i·k, (i+1)·k)`.
fn search<const W: usize>(
    x: &Matrix,
    k: usize,
    n_threads: usize,
    band: impl Fn(&[f64], Range<usize>, &mut Heaps) + Sync,
) -> Vec<Neighbour> {
    let n = x.rows();
    let packed = pack_strips::<W>(x);
    let padded = n.div_ceil(W) * W;
    let bands = bands(n, n_threads);
    let mut sets: Vec<Heaps> = bands.iter().map(|_| Heaps::new(n, k, padded)).collect();
    if bands.len() == 1 {
        band(&packed, 0..n, &mut sets[0]);
    } else {
        std::thread::scope(|scope| {
            let (band, packed) = (&band, &packed);
            for (rows, heaps) in bands.into_iter().zip(sets.iter_mut()) {
                scope.spawn(move || band(packed, rows, heaps));
            }
        });
    }
    let mut sets = sets.into_iter();
    let mut result = sets.next().expect("every search has a band");
    for other in sets {
        result.merge(&other);
    }
    result.slots
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
    #[cfg(target_pointer_width = "64")]
    fn row_counts_past_32_bit_indices_are_refused() {
        // 2³² + 2 rows of no columns hold no values: validation is all
        // that runs. One row fewer would still fit.
        let x = Matrix::zeros((1 << 32) + 2, 0);
        let err = KnnGraphBuilder::new(1).build(&x).unwrap_err();
        assert!(err.to_string().contains("32-bit"), "{err}");
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
