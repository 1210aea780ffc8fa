//! Blocked, packed, multi-threaded GEMM: the one kernel behind every dense
//! matrix product in the workspace.
//!
//! [`Matrix::matmul`](crate::Matrix::matmul),
//! [`Matrix::matmul_transpose`](crate::Matrix::matmul_transpose) and
//! [`Matrix::transpose_matmul`](crate::Matrix::transpose_matmul) all route
//! through [`gemm_into`], which computes `C += A · B` where `A` and `B` are
//! strided views ([`MatRef`]) — transposition is absorbed for free when the
//! operands are packed, so the three entry points share one code path.
//!
//! # Structure
//!
//! The kernel follows the classic three-level blocking scheme (Goto/BLIS):
//!
//! * a **register-tiled micro-kernel** computing an `MR x NR` tile of `C`
//!   from packed operand strips, written so the accumulator tile lives in
//!   SIMD registers. Three instantiations share one generic body:
//!   an AVX-512 one (8 x 8, one `zmm` accumulator per tile row), an
//!   AVX2+FMA one (4 x 8) and a portable 4 x 4 one the autovectorizer
//!   lowers to the baseline target features. The vector instantiations are
//!   compiled with `#[target_feature]` and chosen by runtime CPU detection;
//! * **cache blocking**: `A` is packed block by block (`MC` rows x `KC`
//!   depth) into contiguous `MR`-strips that stream from L2, `B` is packed
//!   once up front into `NR`-strips so every micro-kernel call reads both
//!   operands contiguously, and one `B` strip (`KC x NR` doubles) stays
//!   L1-resident while a whole `A` panel streams against it;
//! * **row-panel parallelism** over `std::thread::scope`: the rows of `C`
//!   are split into disjoint bands of whole `MR`-strips, one band per
//!   thread. No locks, no atomics — each thread owns its band of `C`.
//!
//! # Determinism
//!
//! The serving tier asserts *bitwise* equality between online and offline
//! scores, so the kernel is deterministic and **thread-count independent**:
//! every element `C[i][j]` is accumulated by exactly one thread, strictly in
//! ascending `k` order (`KC` blocks ascending, `k` ascending inside the
//! micro-kernel), and the band split only decides *which* thread runs that
//! unchanged per-element reduction. The tile geometry is equally irrelevant
//! to the bits: it decides which elements are computed *together*, never the
//! order of one element's own reduction. Running with 1 thread or 16
//! produces the same bits, and row `i` of a product depends only on row `i`
//! of `A` — a 1-row score and a 64-row batch agree bitwise. Results may
//! differ in the last ulp from the retained naive reference
//! ([`Matrix::matmul_naive`](crate::Matrix::matmul_naive)) because the
//! vector micro-kernels fuse multiply-adds; the property suite bounds that
//! difference at `1e-9` relative.
//!
//! Very small products (`k·n` below `SMALL_KN`) skip packing entirely and
//! run a per-row `i-k-j` loop. The dispatch deliberately ignores the row
//! count `m`, so batches of different heights take the same code path.

use std::num::NonZeroUsize;
use std::ops::Range;

/// Row-panel height of a packed `A` block (L2 blocking).
const MC: usize = 64;
/// Depth of a packed block (L1 blocking): one `B` strip is `KC x NR`
/// doubles, resident in L1 while a whole `A` panel streams against it.
const KC: usize = 256;
/// Products with `k * n` at or below this skip packing and use the per-row
/// loop. The threshold must depend only on `k` and `n` (never on the row
/// count `m`): batches of different heights must take the same path so
/// their rows stay bitwise identical.
const SMALL_KN: usize = 2048;
/// One extra thread is worth spawning per this many flops.
const FLOPS_PER_THREAD: usize = 1 << 23;

/// A read-only strided view of an `m x k` operand.
///
/// Element `(i, j)` lives at `data[i * row_stride + j * col_stride]`; a
/// transposed view of a row-major matrix is expressed by swapping the
/// strides, so the kernel never materializes a transpose.
#[derive(Debug, Clone, Copy)]
pub struct MatRef<'a> {
    data: &'a [f64],
    row_stride: usize,
    col_stride: usize,
}

impl<'a> MatRef<'a> {
    /// A view over `data` with the given strides.
    pub fn new(data: &'a [f64], row_stride: usize, col_stride: usize) -> Self {
        MatRef {
            data,
            row_stride,
            col_stride,
        }
    }

    /// Element `(i, j)` of the viewed operand.
    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.row_stride + j * self.col_stride]
    }
}

/// Shared micro-kernel body: accumulates the `MR x NR` tile
/// `acc += Ap · Bp` over `kc` packed depth steps, strictly in ascending `k`
/// order. `FMA` selects fused multiply-add (single rounding) — the vector
/// instantiations use it, the portable one keeps separate multiply and add
/// so the baseline build does not fall back to a libm soft-fma call.
#[inline(always)]
fn micro_kernel_body<const MR: usize, const NR: usize, const FMA: bool>(
    kc: usize,
    ap: &[f64],
    bp: &[f64],
    acc: &mut [[f64; NR]; MR],
) {
    // Accumulate into a local tile: a non-escaping local is provably
    // alias-free, so the register allocator keeps it in SIMD registers for
    // the whole depth loop instead of spilling per iteration.
    let mut tile = *acc;
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
        for (acc_row, &ai) in tile.iter_mut().zip(av.iter()) {
            for (c, &bj) in acc_row.iter_mut().zip(bv.iter()) {
                if FMA {
                    *c = ai.mul_add(bj, *c);
                } else {
                    *c += ai * bj;
                }
            }
        }
    }
    *acc = tile;
}

/// Portable instantiation: 4 x 4 tile, baseline code generation.
fn micro_portable(kc: usize, ap: &[f64], bp: &[f64], acc: &mut [[f64; 4]; 4]) {
    micro_kernel_body::<4, 4, false>(kc, ap, bp, acc);
}

/// AVX2+FMA instantiation: 4 x 8 tile (two `ymm` per accumulator row).
/// Only called after runtime detection confirms AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
fn micro_avx2(kc: usize, ap: &[f64], bp: &[f64], acc: &mut [[f64; 8]; 4]) {
    micro_kernel_body::<4, 8, true>(kc, ap, bp, acc);
}

/// AVX-512 instantiation: 8 x 8 tile (one `zmm` per accumulator row).
/// Only called after runtime detection confirms AVX-512F and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "fma")]
fn micro_avx512(kc: usize, ap: &[f64], bp: &[f64], acc: &mut [[f64; 8]; 8]) {
    micro_kernel_body::<8, 8, true>(kc, ap, bp, acc);
}

/// Packs the `A` block `rows x ks` into `MR`-strips: strip `s` holds rows
/// `rows.start + s*MR ..`, laid out depth-major so the micro-kernel reads
/// one `[f64; MR]` column per `k` step. Rows beyond the block are padded
/// with zeros (the padding only ever feeds padded *output* rows).
fn pack_a<const MR: usize>(dst: &mut [f64], a: MatRef<'_>, rows: Range<usize>, ks: Range<usize>) {
    let kc = ks.len();
    for (s, strip_rows) in (rows.start..rows.end).step_by(MR).enumerate() {
        let live = MR.min(rows.end - strip_rows);
        let strip = &mut dst[s * MR * kc..(s + 1) * MR * kc];
        for (l, k) in ks.clone().enumerate() {
            let col = &mut strip[l * MR..l * MR + MR];
            for (r, c) in col.iter_mut().enumerate() {
                *c = if r < live {
                    a.at(strip_rows + r, k)
                } else {
                    0.0
                };
            }
        }
    }
}

/// Packs all of `B` (`k x n`) into `NR`-strips, one contiguous region per
/// `KC` depth block: block `p` holds strips of rows `p*KC ..`, strip `t`
/// covers columns `t*NR ..` padded with zeros to a full `NR`. The packed
/// buffer is shared read-only by every worker thread.
fn pack_b<const NR: usize>(dst: &mut [f64], b: MatRef<'_>, k: usize, n: usize) {
    let n_strips = n.div_ceil(NR);
    let mut offset = 0;
    for ks in 0..k.div_ceil(KC) {
        let k0 = ks * KC;
        let kc = KC.min(k - k0);
        for t in 0..n_strips {
            let j0 = t * NR;
            let live = NR.min(n - j0);
            let strip = &mut dst[offset + t * kc * NR..offset + (t + 1) * kc * NR];
            for l in 0..kc {
                let row = &mut strip[l * NR..l * NR + NR];
                for (c, cell) in row.iter_mut().enumerate() {
                    *cell = if c < live { b.at(k0 + l, j0 + c) } else { 0.0 };
                }
            }
        }
        offset += kc * n_strips * NR;
    }
}

/// Offset (in doubles) of depth block `ks` inside the packed `B` buffer.
/// Every block before `ks` is a full `KC` deep.
fn packed_b_block_offset<const NR: usize>(ks: usize, n: usize) -> usize {
    ks * KC * n.div_ceil(NR) * NR
}

/// Length in doubles of the fully packed `B` buffer for a `k x n` operand.
fn packed_b_len<const NR: usize>(k: usize, n: usize) -> usize {
    k * n.div_ceil(NR) * NR
}

/// Computes one thread's row band `c_band += A[rows] · B` against the shared
/// packed `B`. `c_band` starts at row `rows.start` of the full `C`.
fn run_band<const MR: usize, const NR: usize>(
    c_band: &mut [f64],
    rows: Range<usize>,
    a: MatRef<'_>,
    packed_b: &[f64],
    n: usize,
    k: usize,
    micro: impl Fn(usize, &[f64], &[f64], &mut [[f64; NR]; MR]),
) {
    let n_strips = n.div_ceil(NR);
    let mut a_buf = vec![0.0f64; MC.div_ceil(MR) * MR * KC];
    for ic in (rows.start..rows.end).step_by(MC) {
        let mc = MC.min(rows.end - ic);
        for ks in 0..k.div_ceil(KC) {
            let k0 = ks * KC;
            let kc = KC.min(k - k0);
            pack_a::<MR>(&mut a_buf, a, ic..ic + mc, k0..k0 + kc);
            let b_block = &packed_b[packed_b_block_offset::<NR>(ks, n)..];
            for t in 0..n_strips {
                let bp = &b_block[t * kc * NR..(t + 1) * kc * NR];
                let j0 = t * NR;
                let live_cols = NR.min(n - j0);
                for (s, i0) in (0..mc).step_by(MR).enumerate() {
                    let ap = &a_buf[s * MR * kc..(s + 1) * MR * kc];
                    let mut acc = [[0.0f64; NR]; MR];
                    micro(kc, ap, bp, &mut acc);
                    let live_rows = MR.min(mc - i0);
                    for (r, acc_row) in acc.iter().enumerate().take(live_rows) {
                        let row0 = (ic - rows.start + i0 + r) * n + j0;
                        for (c, &v) in acc_row.iter().enumerate().take(live_cols) {
                            c_band[row0 + c] += v;
                        }
                    }
                }
            }
        }
    }
}

/// Packs `B`, splits the rows of `C` into per-thread bands and runs the
/// blocked kernel with the given micro-kernel instantiation.
#[allow(clippy::too_many_arguments)] // mirrors gemm_into plus the micro-kernel
fn gemm_packed<const MR: usize, const NR: usize>(
    m: usize,
    n: usize,
    k: usize,
    a: MatRef<'_>,
    b: MatRef<'_>,
    c: &mut [f64],
    threads: Option<NonZeroUsize>,
    micro: impl Fn(usize, &[f64], &[f64], &mut [[f64; NR]; MR]) + Copy + Send + Sync,
) {
    let mut packed_b = vec![0.0f64; packed_b_len::<NR>(k, n)];
    pack_b::<NR>(&mut packed_b, b, k, n);

    let requested = threads.map_or_else(|| auto_threads(m, n, k), NonZeroUsize::get);
    let n_threads = requested.clamp(1, m.div_ceil(MR));
    if n_threads == 1 {
        run_band::<MR, NR>(c, 0..m, a, &packed_b, n, k, micro);
        return;
    }

    // Split C into bands of whole MR-strips, one per thread. Bands are
    // disjoint, so each thread gets an exclusive &mut band — no locks, and
    // the per-element reduction order is unaffected by the split.
    let strips = m.div_ceil(MR);
    let band_rows = strips.div_ceil(n_threads) * MR;
    std::thread::scope(|scope| {
        let packed_b = &packed_b;
        for (band_idx, c_band) in c.chunks_mut(band_rows * n).enumerate() {
            let row0 = band_idx * band_rows;
            let row1 = (row0 + band_rows).min(m);
            scope.spawn(move || run_band::<MR, NR>(c_band, row0..row1, a, packed_b, n, k, micro));
        }
    });
}

/// The unpacked fallback for small products: a per-row `i-k-j` loop with the
/// same strictly ascending `k` accumulation order per output element as the
/// blocked path.
fn small_gemm(m: usize, n: usize, k: usize, a: MatRef<'_>, b: MatRef<'_>, c: &mut [f64]) {
    for i in 0..m {
        let c_row = &mut c[i * n..(i + 1) * n];
        for l in 0..k {
            let ail = a.at(i, l);
            let mut b_idx = l * b.row_stride;
            for cell in c_row.iter_mut() {
                *cell += ail * b.data[b_idx];
                b_idx += b.col_stride;
            }
        }
    }
}

/// How many worker threads an `m x n x k` product is worth: one per
/// `FLOPS_PER_THREAD` of its `2·m·n·k` flops, at least one, at most the
/// machine's parallelism less one — a kernel on every core ends when the
/// slowest core does, and on a shared host that spread fit times three to
/// four times wider between runs (`crates/linalg/DESIGN.md`, guarantee 2).
///
/// This is the workspace's one thread-sizing rule: `pfr-graph`'s k-NN
/// kernel, an `n x n x m` distance product, sizes its row bands by it, so
/// small problems stay on the caller's thread and nothing needs a knob.
pub fn auto_threads(m: usize, n: usize, k: usize) -> usize {
    let flops = 2usize.saturating_mul(m).saturating_mul(n).saturating_mul(k);
    let by_work = flops / FLOPS_PER_THREAD;
    let hw = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    by_work.min(hw - 1).max(1)
}

/// Computes `C += A · B` where `A` is an `m x k` view, `B` a `k x n` view
/// and `c` the row-major `m x n` output buffer (callers pass it zeroed for a
/// plain product).
///
/// `threads` forces the worker count (used by the determinism tests);
/// `None` sizes the pool from the problem's flop count and the machine's
/// parallelism. The result is bitwise identical for every thread count —
/// see the module docs for why.
///
/// # Panics
/// Panics if `c.len() != m * n` or an operand view is too small for its
/// shape; shape *compatibility* is the caller's contract ([`crate::Matrix`]
/// validates it and returns `ShapeMismatch` before calling in).
pub fn gemm_into(
    m: usize,
    n: usize,
    k: usize,
    a: MatRef<'_>,
    b: MatRef<'_>,
    c: &mut [f64],
    threads: Option<NonZeroUsize>,
) {
    assert_eq!(c.len(), m * n, "output buffer must be exactly m x n");
    if m == 0 || n == 0 || k == 0 {
        return; // C += A·B adds nothing when any dimension is empty.
    }
    // Touch the last element of each view so stride bugs fail loudly here
    // rather than inside a packed loop.
    let _ = a.at(m - 1, k - 1);
    let _ = b.at(k - 1, n - 1);

    // The small-product cutoff must ignore `m`: see SMALL_KN.
    if k * n <= SMALL_KN {
        small_gemm(m, n, k, a, b, c);
        return;
    }

    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: runtime detection above confirmed AVX-512F and FMA,
            // so the target-feature instantiation is safe on this CPU.
            let micro = |kc: usize, ap: &[f64], bp: &[f64], acc: &mut [[f64; 8]; 8]| unsafe {
                micro_avx512(kc, ap, bp, acc)
            };
            return gemm_packed::<8, 8>(m, n, k, a, b, c, threads, micro);
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: runtime detection above confirmed AVX2 and FMA.
            let micro = |kc: usize, ap: &[f64], bp: &[f64], acc: &mut [[f64; 8]; 4]| unsafe {
                micro_avx2(kc, ap, bp, acc)
            };
            return gemm_packed::<4, 8>(m, n, k, a, b, c, threads, micro);
        }
    }
    gemm_packed::<4, 4>(m, n, k, a, b, c, threads, micro_portable);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    fn deterministic_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let data: Vec<f64> = (0..rows * cols).map(|_| next()).collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    }

    fn max_rel_err(got: &Matrix, want: &Matrix) -> f64 {
        let scale = want.max_abs().max(1.0);
        got.sub(want).unwrap().max_abs() / scale
    }

    #[test]
    fn blocked_matches_naive_across_shapes() {
        // Shapes straddling every blocking edge: micro-tile fringes, exact
        // MR/NR multiples, more than one KC block, and the small-path
        // cutoff in both directions.
        let shapes = [
            (1, 1, 1),
            (1, 9, 300),
            (3, 5, 2),
            (4, 8, 256),
            (5, 9, 257),
            (64, 64, 64),
            (65, 33, 70),
            (7, 130, 40),
            (130, 7, 513),
        ];
        for &(m, n, k) in &shapes {
            let a = deterministic_matrix(m, k, 11 + m as u64);
            let b = deterministic_matrix(k, n, 23 + n as u64);
            let got = a.matmul(&b).unwrap();
            let want = a.matmul_naive(&b).unwrap();
            assert!(
                max_rel_err(&got, &want) < 1e-9,
                "blocked kernel diverges from naive at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_a_single_bit() {
        let (m, n, k) = (97, 75, 311);
        let a = deterministic_matrix(m, k, 5);
        let b = deterministic_matrix(k, n, 7);
        let run = |threads: usize| {
            let mut c = vec![0.0f64; m * n];
            gemm_into(
                m,
                n,
                k,
                MatRef::new(a.as_slice(), k, 1),
                MatRef::new(b.as_slice(), n, 1),
                &mut c,
                Some(NonZeroUsize::new(threads).unwrap()),
            );
            c
        };
        let reference = run(1);
        for threads in [2, 3, 4, 7, 16] {
            let c = run(threads);
            for (i, (x, y)) in reference.iter().zip(c.iter()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "threads={threads} changed element {i}"
                );
            }
        }
    }

    #[test]
    fn rows_are_independent_of_batch_height() {
        // A 1-row product and the same row inside a tall batch must agree
        // bitwise — the property pfr-serve's online-vs-offline equality
        // rests on.
        let k = 60;
        let n = 40; // k * n > SMALL_KN exercises the packed path
        let batch = deterministic_matrix(33, k, 3);
        let b = deterministic_matrix(k, n, 4);
        let full = batch.matmul(&b).unwrap();
        for i in 0..batch.rows() {
            let row = Matrix::from_vec(1, k, batch.row(i).to_vec()).unwrap();
            let single = row.matmul(&b).unwrap();
            for j in 0..n {
                assert_eq!(
                    single[(0, j)].to_bits(),
                    full[(i, j)].to_bits(),
                    "row {i} col {j} depends on batch height"
                );
            }
        }
    }

    #[test]
    fn transposed_views_share_the_kernel_bitwise() {
        let a = deterministic_matrix(30, 50, 9);
        let b = deterministic_matrix(20, 50, 10);
        let via_view = a.matmul_transpose(&b).unwrap();
        let via_copy = a.matmul(&b.transpose()).unwrap();
        assert_eq!(via_view, via_copy, "matmul_transpose diverges from matmul");
        let c = deterministic_matrix(30, 20, 12);
        let via_view = a.transpose_matmul(&c).unwrap();
        let via_copy = a.transpose().matmul(&c).unwrap();
        assert_eq!(via_view, via_copy, "transpose_matmul diverges from matmul");
    }

    #[test]
    fn degenerate_shapes() {
        // 0 x n, k = 0 and 1 x 1 all go through without panicking.
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        assert_eq!(a.matmul(&b).unwrap().shape(), (0, 3));
        let a = Matrix::zeros(4, 0);
        let b = Matrix::zeros(0, 3);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (4, 3));
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
        let a = Matrix::filled(1, 1, 3.0);
        let b = Matrix::filled(1, 1, -2.0);
        assert_eq!(a.matmul(&b).unwrap()[(0, 0)], -6.0);
    }

    #[test]
    fn accumulates_into_existing_output() {
        let a = deterministic_matrix(3, 4, 1);
        let b = deterministic_matrix(4, 2, 2);
        let product = a.matmul(&b).unwrap();
        let mut c = vec![1.0f64; 6];
        gemm_into(
            3,
            2,
            4,
            MatRef::new(a.as_slice(), 4, 1),
            MatRef::new(b.as_slice(), 2, 1),
            &mut c,
            None,
        );
        for (i, &v) in c.iter().enumerate() {
            let want = 1.0 + product.as_slice()[i];
            assert!((v - want).abs() < 1e-12, "element {i} did not accumulate");
        }
    }

    #[test]
    #[should_panic(expected = "m x n")]
    fn wrong_output_length_panics() {
        let a = [0.0; 4];
        let b = [0.0; 4];
        let mut c = [0.0; 3];
        gemm_into(
            2,
            2,
            2,
            MatRef::new(&a, 2, 1),
            MatRef::new(&b, 2, 1),
            &mut c,
            None,
        );
    }
}
