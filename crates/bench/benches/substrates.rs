//! Micro-benchmarks of the substrates the PFR pipeline is built from.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pfr_bench::{bench_setup, random_symmetric};
use pfr_core::{Pfr, PfrConfig};
use pfr_data::{compas, synthetic};
use pfr_graph::{KnnGraphBuilder, LaplacianKind};
use pfr_linalg::stats::Standardizer;
use pfr_linalg::Eigen;
use pfr_opt::LogisticRegression;
use std::hint::black_box;

/// The dense symmetric eigensolver on matrices of growing size.
fn bench_eigensolver(c: &mut Criterion) {
    let mut group = c.benchmark_group("eigen_sym");
    group.sample_size(10);
    for &n in &[10usize, 30, 60] {
        let a = random_symmetric(n, 42);
        group.bench_with_input(BenchmarkId::from_parameter(n), &a, |b, a| {
            b.iter(|| Eigen::decompose(black_box(a)).unwrap())
        });
    }
    group.finish();
}

/// Cost of building the k-NN similarity graph WX.
fn bench_knn_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn_graph_construction");
    group.sample_size(10);
    for &n_per_group in &[100usize, 300] {
        let ds = synthetic::generate(&synthetic::SyntheticConfig {
            n_per_group,
            seed: 7,
            ..synthetic::SyntheticConfig::default()
        })
        .unwrap();
        let (x, _, _) = bench_setup(&ds, 10, 5);
        group.bench_with_input(BenchmarkId::from_parameter(2 * n_per_group), &x, |b, x| {
            b.iter(|| KnnGraphBuilder::new(10).build(black_box(x)).unwrap())
        });
    }
    // The two shapes of the repository benchmark's cold fits. The cases
    // above are too small to leave the caller's thread; these are not.
    let (_, tall) = Standardizer::fit_transform(compas::generate_default(7).unwrap().features())
        .expect("standardization succeeds");
    let wide = random_symmetric(2048, 7)
        .select_cols(&(0..96).collect::<Vec<_>>())
        .expect("96 columns exist");
    for x in [tall, wide] {
        let id = BenchmarkId::from_parameter(format!("{}x{}", x.rows(), x.cols()));
        group.bench_with_input(id, &x, |b, x| {
            b.iter(|| KnnGraphBuilder::new(10).build(black_box(x)).unwrap())
        });
    }
    group.finish();
}

/// Laplacian quadratic form Xᵀ L X without materializing L.
fn bench_quadratic_form(c: &mut Criterion) {
    let ds = synthetic::generate_default(9).unwrap();
    let (x, wx, wf) = bench_setup(&ds, 10, 10);
    let mut group = c.benchmark_group("laplacian_quadratic_form");
    group.sample_size(20);
    group.bench_function("wx_unnormalized", |b| {
        b.iter(|| {
            wx.quadratic_form(black_box(&x), LaplacianKind::Unnormalized)
                .unwrap()
        })
    });
    group.bench_function("wf_unnormalized", |b| {
        b.iter(|| {
            wf.quadratic_form(black_box(&x), LaplacianKind::Unnormalized)
                .unwrap()
        })
    });
    group.bench_function("wx_normalized", |b| {
        b.iter(|| {
            wx.quadratic_form(black_box(&x), LaplacianKind::SymmetricNormalized)
                .unwrap()
        })
    });
    group.finish();
}

/// Full PFR fit + transform on the synthetic dataset.
fn bench_pfr_fit(c: &mut Criterion) {
    let ds = synthetic::generate_default(11).unwrap();
    let (x, wx, wf) = bench_setup(&ds, 10, 10);
    let mut group = c.benchmark_group("pfr_fit");
    group.sample_size(20);
    for &gamma in &[0.0, 0.5, 1.0] {
        group.bench_with_input(BenchmarkId::from_parameter(gamma), &gamma, |b, &gamma| {
            b.iter(|| {
                let model = Pfr::new(PfrConfig {
                    gamma,
                    dim: 2,
                    ..PfrConfig::default()
                })
                .fit(black_box(&x), &wx, &wf)
                .unwrap();
                model.transform(&x).unwrap()
            })
        });
    }
    group.finish();
}

/// Downstream logistic-regression training (Newton/IRLS).
fn bench_logistic_regression(c: &mut Criterion) {
    let ds = synthetic::generate_default(13).unwrap();
    let (x, _, _) = bench_setup(&ds, 5, 5);
    let y = ds.labels().to_vec();
    let mut group = c.benchmark_group("logistic_regression_fit");
    group.sample_size(20);
    group.bench_function("synthetic_600", |b| {
        b.iter(|| {
            let mut clf = LogisticRegression::default();
            clf.fit(black_box(&x), black_box(&y)).unwrap();
            clf
        })
    });
    group.finish();
}

criterion_group!(
    substrates,
    bench_eigensolver,
    bench_knn_graph,
    bench_quadratic_form,
    bench_pfr_fit,
    bench_logistic_regression
);
criterion_main!(substrates);
