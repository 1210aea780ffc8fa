//! Property-based tests (proptest) pinning the tiled, multi-threaded k-NN
//! kernel to the retained brute-force reference — bitwise — and to the
//! determinism contract every reproducible fit depends on.

use pfr::graph::knn::KernelWidth;
use pfr::graph::{KnnGraphBuilder, SparseGraph};
use pfr::linalg::gemm::auto_threads;
use pfr::linalg::Matrix;
use proptest::prelude::*;
use std::num::NonZeroUsize;

/// The whole graph as comparable bits.
fn edge_bits(graph: &SparseGraph) -> Vec<(u32, u32, u64)> {
    graph
        .edges()
        .map(|e| (e.i, e.j, e.weight.to_bits()))
        .collect()
}

/// Strategy: a data matrix with `n ∈ 2..=300` rows (mostly not a multiple
/// of any tile size) and `m ∈ 1..=40` features, plus a `k ∈ 1..=n − 1`.
/// With `ties`, the values sit on a coarse lattice and up to `n / 2` rows
/// are overwritten with copies of other rows, so equal distances — between
/// copies and between distinct rows — are everywhere.
fn case(ties: bool) -> impl Strategy<Value = (Matrix, usize)> {
    (2usize..=300, 1usize..=40).prop_flat_map(move |(n, m)| {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The kernel reproduces the brute-force reference bit for bit — same
    /// neighbour sets, same distance bits, hence the same edge list and
    /// weights — under both kernel widths; with ties everywhere, both break
    /// them the same way, by row index.
    #[test]
    fn kernel_matches_reference_bitwise(pair in case(true), smooth in case(false)) {
        for (x, k) in [pair, smooth] {
            for builder in builders(k) {
                let got = builder.build(&x).unwrap();
                let want = builder.build_reference(&x).unwrap();
                prop_assert_eq!(edge_bits(&got), edge_bits(&want), "{:?}, k={}", x.shape(), k);
            }
        }
    }

    /// Thread count never changes a bit of the graph, ties or not: the
    /// band split decides who selects a row's neighbours, not which.
    #[test]
    fn thread_count_is_bitwise_irrelevant(pair in case(true), smooth in case(false)) {
        for (x, k) in [pair, smooth] {
            let builder = KnnGraphBuilder::new(k);
            let reference = edge_bits(&builder.build_forced(&x, threads(1), false).unwrap());
            for count in [2usize, 3, 7] {
                let got = builder.build_forced(&x, threads(count), false).unwrap();
                prop_assert_eq!(
                    &edge_bits(&got),
                    &reference,
                    "threads={} changed the graph of a {:?} matrix, k={}",
                    count,
                    x.shape(),
                    k
                );
            }
        }
    }

    /// The portable instantiation and the runtime-detected one (AVX2 where
    /// the CPU has it; the portable one again elsewhere) agree bitwise.
    #[test]
    fn instruction_set_is_bitwise_irrelevant(pair in case(true), smooth in case(false)) {
        for (x, k) in [pair, smooth] {
            let builder = KnnGraphBuilder::new(k);
            let portable = builder.build_forced(&x, threads(2), true).unwrap();
            let detected = builder.build_forced(&x, threads(2), false).unwrap();
            prop_assert_eq!(edge_bits(&portable), edge_bits(&detected), "{:?}, k={}", x.shape(), k);
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
        let got = builder.build_forced(&x, threads(count), false).unwrap();
        assert_eq!(edge_bits(&got), want, "threads={count}");
    }
}
