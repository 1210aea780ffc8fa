//! Online-refit loop costs: how fast the worker tails journal frames, what
//! a drift check costs per window, what the projection fit and the whole
//! engine refit (teacher scores, graphs, fit, distilled head, bundle text)
//! cost on that window, and what the shadow gate adds before a swap.
//! Results land in `BENCH_refit.json` and are gated by `perf_gate` against
//! the checked-in baseline.
//!
//! The wide feature count (`M = 96`) is deliberate: it is where the dense
//! `O(M³)` eigendecomposition inside the fit is largest relative to the
//! window's graphs.

use criterion::{criterion_group, criterion_main, Criterion};
use pfr_core::persistence::{ClassifierSection, ModelBundle, StandardizerParams};
use pfr_core::{Pfr, PfrConfig};
use pfr_graph::{fairness, KnnGraphBuilder, SparseGraph};
use pfr_journal::{FsyncPolicy, Journal, JournalConfig, JournalCursor, Record};
use pfr_linalg::stats::Standardizer;
use pfr_linalg::Matrix;
use pfr_opt::{LogisticRegression, LogisticRegressionConfig};
use pfr_refit::{DriftConfig, DriftDetector, GateConfig, ShadowGate};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Window rows / feature arity of the benchmark traffic.
const N: usize = 256;
const M: usize = 96;
const DIM: usize = 4;
const KNN_K: usize = 8;
/// Journal frames per tailing repetition.
const FRAMES: usize = 2048;

fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("pfr_refit_bench_{tag}_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Traffic with a protected flag in column 0; the remaining features load
/// onto two latent factors with fixed per-column loadings and per-column
/// noise scales. The varying loadings give the PFR objective a *structured*
/// spectrum (distinct eigenvalues, real gaps) like actual tabular data —
/// with exchangeable iid columns the bottom-`d` subspace is ill-conditioned
/// and no warm start could help. `shift` is the drift knob.
fn traffic(n: usize, seed: u64, shift: f64) -> Matrix {
    let mut state = seed.max(1);
    let mut uniform = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as f64 / u64::MAX as f64
    };
    // Column structure is fixed across seeds: stationary and drifted windows
    // share the same feature semantics.
    let mut cstate = 0x51ab_c0ffee_u64;
    let mut cuniform = move || {
        cstate ^= cstate << 13;
        cstate ^= cstate >> 7;
        cstate ^= cstate << 17;
        cstate as f64 / u64::MAX as f64
    };
    let loadings: Vec<(f64, f64, f64)> = (0..M)
        .map(|j| {
            (
                0.5 + cuniform(),                 // factor-1 loading
                cuniform() - 0.5,                 // factor-2 loading
                0.05 + 0.9 * j as f64 / M as f64, // noise scale
            )
        })
        .collect();
    let mut w = Matrix::zeros(n, M);
    for i in 0..n {
        let blob = if uniform() > 0.5 { 1.0 } else { -1.0 };
        let trend = uniform() - 0.5;
        w[(i, 0)] = (i % 2) as f64;
        for j in 1..M {
            let (a, b, c) = loadings[j];
            w[(i, j)] = shift + a * blob + b * trend + c * (uniform() - 0.5);
        }
    }
    w
}

/// Standardized features plus the two graphs the PFR objective couples.
fn training_inputs(window: &Matrix) -> (Matrix, SparseGraph, SparseGraph) {
    let (_, x) = Standardizer::fit_transform(window).unwrap();
    let wx = KnnGraphBuilder::new(KNN_K).build(&x).unwrap();
    let groups: Vec<usize> = (0..window.rows())
        .map(|i| (window[(i, 0)] > 0.5) as usize)
        .collect();
    let ranking: Vec<f64> = (0..window.rows()).map(|i| window[(i, 1)]).collect();
    let wf = fairness::between_group_quantile_graph(&groups, &ranking, 5).unwrap();
    (x, wx, wf)
}

/// Serving bundle fit on stationary traffic: the refit's teacher.
fn serving_bundle(window: &Matrix) -> ModelBundle {
    let (standardizer, x) = Standardizer::fit_transform(window).unwrap();
    let (_, wx, wf) = training_inputs(window);
    let model = pfr_config().fit(&x, &wx, &wf).unwrap();
    let z = model.transform(&x).unwrap();
    let labels: Vec<u8> = (0..window.rows())
        .map(|i| (window[(i, 1)] > 0.0) as u8)
        .collect();
    let mut head = LogisticRegression::new(LogisticRegressionConfig::default());
    head.fit(&z, &labels).unwrap();
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

fn pfr_config() -> Pfr {
    Pfr::new(PfrConfig {
        gamma: 0.5,
        dim: DIM,
        ..PfrConfig::default()
    })
}

/// Best-of-`reps` wall clock in microseconds.
fn time_min_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
    }
    best
}

fn score_record(i: usize, window: &Matrix) -> Record {
    Record::Score {
        model: "bench".to_string(),
        features: window.row(i % window.rows()).to_vec(),
    }
}

fn bench_refit(c: &mut Criterion) {
    let stationary = traffic(N, 11, 0.0);
    let drifted = traffic(N, 47, 0.4);
    let serving = serving_bundle(&stationary);
    let (x, wx, wf) = training_inputs(&drifted);
    let engine = pfr_refit::RefitEngine::new(pfr_refit::RefitModelConfig {
        dim: DIM,
        knn_k: KNN_K,
        ..pfr_refit::RefitModelConfig::default()
    })
    .unwrap();

    // Criterion timing for the whole stage the worker waits on.
    let mut group = c.benchmark_group("refit_loop");
    group.sample_size(10);
    group.bench_function(format!("refit_{N}x{M}_dim{DIM}"), |bench| {
        bench.iter(|| black_box(engine.refit(&drifted, &serving).unwrap()));
    });
    group.finish();

    println!("refit_loop: online refit stage costs ({N}x{M} window, dim {DIM})");

    // --- Frames tailed per second through the durable cursor. --------------
    let dir = scratch_dir("tail");
    {
        let mut config = JournalConfig::new(dir.clone());
        config.fsync = FsyncPolicy::Never;
        let journal = Journal::open(config).unwrap();
        for i in 0..FRAMES {
            journal.append(&score_record(i, &stationary)).unwrap();
        }
        journal.close();
    }
    let mut tail_rep = 0usize;
    let frames_per_sec = pfr_bench::measure_rate(8, FRAMES, || {
        tail_rep += 1;
        let mut cursor = JournalCursor::open(&dir, &format!("bench-{tail_rep}"), 1).unwrap();
        let mut seen = 0usize;
        while let Some(frame) = cursor.next().unwrap() {
            black_box(&frame);
            seen += 1;
        }
        assert_eq!(seen, FRAMES);
    });
    println!("  cursor tailing:  {frames_per_sec:>12.0} frames/s");
    let _ = std::fs::remove_dir_all(&dir);

    // --- Drift-check cost per window. --------------------------------------
    let mut detector = DriftDetector::from_standardizer(
        DriftConfig::default(),
        serving.standardizer.as_ref().unwrap(),
    )
    .unwrap();
    let reference: Vec<f64> = (0..N).map(|i| i as f64 / N as f64).collect();
    detector.set_reference_scores(reference.clone());
    let drift_check_us = time_min_us(16, || {
        black_box(detector.assess(&drifted, Some(&reference)).unwrap());
    });
    println!("  drift check:     {drift_check_us:>12.1} us/window");

    // --- The projection fit alone, then the engine's whole refit. ----------
    let cold_fit_us = time_min_us(5, || {
        black_box(pfr_config().fit(&x, &wx, &wf).unwrap());
    });
    let refit_us = time_min_us(5, || {
        black_box(engine.refit(&drifted, &serving).unwrap());
    });
    println!("  projection fit:  {cold_fit_us:>12.1} us");
    println!("  engine refit:    {refit_us:>12.1} us");

    // --- Shadow-gate overhead per candidate. -------------------------------
    let candidate_text = engine.refit(&drifted, &serving).unwrap().bundle_text;
    let holdback = traffic(64, 91, 0.4);
    let gate = ShadowGate::new(GateConfig::default()).unwrap();
    let gate_overhead_us = time_min_us(16, || {
        black_box(gate.evaluate(&serving, &candidate_text, &holdback).unwrap());
    });
    println!("  shadow gate:     {gate_overhead_us:>12.1} us/candidate");

    pfr_bench::write_bench_json(
        "BENCH_refit.json",
        "refit_loop",
        &[
            ("window_rows", N as f64),
            ("features", M as f64),
            ("frames_tailed_per_sec", frames_per_sec),
            // `_us` suffix = cost: perf_gate fails these for *rising*.
            ("drift_check_us", drift_check_us),
            ("cold_fit_us", cold_fit_us),
            ("refit_us", refit_us),
            ("gate_overhead_us", gate_overhead_us),
        ],
    );
}

criterion_group!(refit_loop, bench_refit);
criterion_main!(refit_loop);
