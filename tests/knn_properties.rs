//! Property-based tests (proptest) pinning the pair-once, multi-threaded
//! k-NN kernel to the retained brute-force reference — bitwise, for every
//! thread count and instruction set — and to the determinism contract every
//! reproducible fit depends on.

use pfr::graph::knn::{Isa, KernelWidth};
use pfr::graph::{KnnGraphBuilder, SparseGraph};
use pfr::linalg::gemm::auto_threads;
use pfr::linalg::Matrix;
use proptest::prelude::*;
use std::num::NonZeroUsize;
use std::ops::RangeInclusive;
use std::sync::Once;

/// The whole graph as comparable bits.
fn edge_bits(graph: &SparseGraph) -> Vec<(u32, u32, u64)> {
    graph
        .edges()
        .map(|e| (e.i, e.j, e.weight.to_bits()))
        .collect()
}

/// Strategy: a data matrix with `rows` rows (mostly not a multiple of any
/// tile size) and `m ∈ 1..=40` features, plus a `k ∈ 1..=n − 1`. With
/// `ties`, the values sit on a coarse lattice and up to `n / 2` rows are
/// overwritten with copies of other rows, so equal distances — between
/// copies and between distinct rows — are everywhere.
fn case(rows: RangeInclusive<usize>, ties: bool) -> impl Strategy<Value = (Matrix, usize)> {
    (rows, 1usize..=40).prop_flat_map(move |(n, m)| {
        let copies = if ties { 1..=n / 2 } else { 0..=0 };
        (
            proptest::collection::vec(-4.0..4.0_f64, n * m),
            1..=n - 1,
            proptest::collection::vec((0..n, 0..n), copies),
        )
            .prop_map(move |(mut data, k, copies)| {
                if ties {
                    data.iter_mut().for_each(|v| *v = v.round());
                }
                let mut x = Matrix::from_vec(n, m, data).expect("shape matches the buffer");
                for (to, from) in copies {
                    let row = x.row(from).to_vec();
                    x.row_mut(to).copy_from_slice(&row);
                }
                (x, k)
            })
    })
}

fn builders(k: usize) -> [KnnGraphBuilder; 2] {
    [
        KnnGraphBuilder::new(k),
        KnnGraphBuilder::new(k).with_kernel_width(KernelWidth::Fixed(3.5)),
    ]
}

fn threads(count: usize) -> Option<NonZeroUsize> {
    Some(NonZeroUsize::new(count).expect("thread counts are positive"))
}

/// The instruction sets this CPU runs, announced once per test binary.
fn available_isas() -> Vec<Isa> {
    static ANNOUNCE: Once = Once::new();
    let isas: Vec<Isa> = Isa::ALL
        .into_iter()
        .filter(|isa| isa.is_available())
        .collect();
    ANNOUNCE.call_once(|| println!("k-NN instruction sets compared: {isas:?}"));
    isas
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The kernel reproduces the brute-force reference bit for bit — same
    /// neighbour sets, same distance bits, hence the same edge list and
    /// weights — under both kernel widths; with ties everywhere, both break
    /// them the same way, by row index.
    #[test]
    fn kernel_matches_reference_bitwise(pair in case(2..=300, true), smooth in case(2..=300, false)) {
        for (x, k) in [pair, smooth] {
            for builder in builders(k) {
                let got = builder.build(&x).unwrap();
                let want = builder.build_reference(&x).unwrap();
                prop_assert_eq!(edge_bits(&got), edge_bits(&want), "{:?}, k={}", x.shape(), k);
            }
        }
    }

    /// Thread count never changes a bit of the graph, ties or not: the
    /// band split decides which heap set a pair is offered to, and the
    /// merge keeps the same `k` best. The lattice cases have at least 28
    /// rows (seven tiles), so every count above one splits them into two or
    /// more bands and takes the merge path.
    #[test]
    fn thread_count_is_bitwise_irrelevant(pair in case(28..=300, true), smooth in case(2..=300, false)) {
        for (x, k) in [pair, smooth] {
            let builder = KnnGraphBuilder::new(k);
            let want = edge_bits(&builder.build_reference(&x).unwrap());
            for count in [1usize, 2, 3, 7] {
                let got = builder.build_forced(&x, threads(count), Isa::detect()).unwrap();
                prop_assert_eq!(
                    &edge_bits(&got),
                    &want,
                    "threads={} changed the graph of a {:?} matrix, k={}",
                    count,
                    x.shape(),
                    k
                );
            }
        }
    }

    /// The portable, AVX2 and AVX-512F instantiations (each where the CPU
    /// has it; the list is printed) all reproduce the reference bitwise,
    /// on one thread and through the merge.
    #[test]
    fn instruction_set_is_bitwise_irrelevant(pair in case(2..=300, true), smooth in case(2..=300, false)) {
        for (x, k) in [pair, smooth] {
            let builder = KnnGraphBuilder::new(k);
            let want = edge_bits(&builder.build_reference(&x).unwrap());
            for isa in available_isas() {
                for count in [1usize, 3] {
                    let got = builder.build_forced(&x, threads(count), isa).unwrap();
                    prop_assert_eq!(
                        &edge_bits(&got),
                        &want,
                        "{:?} on {} threads, {:?}, k={}",
                        isa,
                        count,
                        x.shape(),
                        k
                    );
                }
            }
        }
    }
}

#[test]
fn thread_sizing_keeps_a_refit_window_on_the_callers_thread() {
    // The search is an n x n x m product as far as work goes.
    assert_eq!(auto_threads(256, 256, 96), 1);
    // A Compas-sized search takes every hardware thread but the one the
    // rule leaves free.
    let hw = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    assert_eq!(auto_threads(8803, 8803, 9), (hw - 1).max(1));
}

#[test]
fn non_finite_features_are_rejected_not_dropped() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let data = (0..40 * 3).map(|v| v as f64 * 0.25).collect();
        let mut x = Matrix::from_vec(40, 3, data).unwrap();
        x[(17, 2)] = bad;
        let err = KnnGraphBuilder::new(5).build(&x).unwrap_err().to_string();
        assert!(
            err.contains("row 17") && err.contains("column 2"),
            "error does not name the cell: {err}"
        );
        assert!(KnnGraphBuilder::new(5).build_reference(&x).is_err());
    }
}

#[test]
fn identical_rows_select_by_index_on_every_thread_count() {
    // All distances tie at zero: row i's k neighbours are the k
    // lowest-indexed other rows, whichever thread selects them.
    let (n, k) = (37, 5);
    let x = Matrix::filled(n, 4, 1.5);
    let builder = KnnGraphBuilder::new(k);
    let mut want: Vec<(u32, u32, u64)> = (0..n as u32)
        .flat_map(|i| {
            (0..n as u32)
                .filter(move |&j| j != i)
                .take(k)
                .map(move |j| (i.min(j), i.max(j), 1.0_f64.to_bits()))
        })
        .collect();
    want.sort_unstable();
    want.dedup();
    assert_eq!(edge_bits(&builder.build_reference(&x).unwrap()), want);
    for count in [1usize, 2, 3, 7] {
        let got = builder
            .build_forced(&x, threads(count), Isa::detect())
            .unwrap();
        assert_eq!(edge_bits(&got), want, "threads={count}");
    }
}

#[test]
fn a_tie_at_the_kth_distance_across_two_bands_goes_to_the_smaller_index() {
    // One feature. Row 199 sits at 0 with row 120 at 0.5 and, tied at
    // distance 1, row 3 (at −1, in the first band for every thread count
    // here) and row 150 (at +1, in a later band). With k = 2, row 199 takes
    // 120 and then 3: its first band's heap set holds row 3, a later one
    // row 150, and the merge must break the tie by index. Rows 151 and 152
    // keep row 150 from choosing row 199 itself; every other row is far
    // away on a spaced line.
    let n = 200;
    let mut values: Vec<f64> = (0..n).map(|i| 100.0 + 3.0 * i as f64).collect();
    for (row, at) in [
        (3, -1.0),
        (120, 0.5),
        (150, 1.0),
        (151, 1.1),
        (152, 1.2),
        (199, 0.0),
    ] {
        values[row] = at;
    }
    let x = Matrix::from_vec(n, 1, values).unwrap();
    let builder = KnnGraphBuilder::new(2).with_kernel_width(KernelWidth::Fixed(2.0));
    let want = edge_bits(&builder.build_reference(&x).unwrap());
    let pairs: Vec<(u32, u32)> = want.iter().map(|&(i, j, _)| (i, j)).collect();
    assert!(pairs.contains(&(3, 199)) && pairs.contains(&(120, 199)));
    assert!(
        !pairs.contains(&(150, 199)),
        "the tie went to the larger index"
    );
    for isa in available_isas() {
        for count in [1usize, 2, 3, 7] {
            let got = builder.build_forced(&x, threads(count), isa).unwrap();
            assert_eq!(edge_bits(&got), want, "{isa:?}, threads={count}");
        }
    }
}

#[test]
fn overflowing_distances_are_ranked_not_dropped() {
    // Finite features whose squared differences overflow to +∞: a row that
    // holds fewer than k still admits a +∞ candidate, so every row gets k
    // neighbours, the +∞ ties going by index (their weight underflows to
    // zero, so they leave no edge). 11 and 41 rows are 3 and 11 tiles, so
    // three threads take three bands.
    for n in [11, 41] {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![if i % 2 == 0 { 1e200 } else { -1e200 }, i as f64])
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        for k in [1, 5, 7, 10, n / 2, n - 1] {
            let builder = KnnGraphBuilder::new(k).with_kernel_width(KernelWidth::Fixed(50.0));
            let want = edge_bits(&builder.build_reference(&x).unwrap());
            for isa in available_isas() {
                for count in [1usize, 2, 3] {
                    let got = builder.build_forced(&x, threads(count), isa).unwrap();
                    assert_eq!(edge_bits(&got), want, "n={n}, k={k}, {isa:?} on {count}");
                }
            }
        }
    }
}

#[test]
fn an_instruction_set_the_cpu_lacks_is_refused() {
    let x = Matrix::filled(8, 2, 1.0);
    for isa in Isa::ALL.into_iter().filter(|isa| !isa.is_available()) {
        assert!(KnnGraphBuilder::new(2).build_forced(&x, None, isa).is_err());
    }
}
