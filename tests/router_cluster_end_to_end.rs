//! The routing-tier acceptance test: boot a 3-shard local cluster behind a
//! router, fire 200 concurrent `SCORE` requests from 8 client threads,
//! kill one replica backend mid-stream, and assert that *every* request
//! still succeeds with scores bitwise identical to offline
//! `FittedFairPipeline` predictions — a backend loss degrades capacity,
//! never correctness.
//!
//! The scenario runs at two reactor-pool widths (1-thread and 4-thread
//! serve front ends behind the router): every score must equal offline
//! inference bit for bit under concurrent load *and* mid-stream failure,
//! whatever the width.

use pfr::pipeline::{FairPipeline, FairPipelineConfig};
use pfr::router::{BreakerConfig, ConnConfig, LocalCluster, RouterConfig};
use pfr::serve::{Frontend, ServerConfig};
use pfr_data::{split, synthetic, Dataset};
use pfr_graph::{fairness, SparseGraph};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn fairness_graph(ds: &Dataset) -> SparseGraph {
    let scores: Vec<f64> = ds
        .side_information()
        .iter()
        .map(|s| s.unwrap_or(0.0))
        .collect();
    fairness::between_group_quantile_graph(ds.groups(), &scores, 5).unwrap()
}

#[test]
fn cluster_survives_a_backend_kill_with_bitwise_identical_scores_reactor() {
    cluster_survives_a_backend_kill(Frontend::reactor(1));
}

#[test]
fn cluster_survives_a_backend_kill_with_bitwise_identical_scores_reactor_pool() {
    cluster_survives_a_backend_kill(Frontend::reactor(4));
}

fn cluster_survives_a_backend_kill(frontend: Frontend) {
    // --- Offline ground truth. ---------------------------------------------
    let dataset = synthetic::generate_default(91).unwrap();
    let split = split::train_test_split(&dataset, 0.3, 91).unwrap();
    let train = dataset.subset(&split.train).unwrap();
    let test = dataset.subset(&split.test).unwrap();
    let fitted = FairPipeline::new(FairPipelineConfig {
        gamma: 0.9,
        ..FairPipelineConfig::default()
    })
    .fit(&train, &fairness_graph(&train))
    .unwrap();
    let expected = fitted.predict_proba(&test).unwrap();
    let (raw, _) = test.features_with_protected().unwrap();
    let bundle = fitted.into_bundle().unwrap();

    // --- A 3-shard cluster with replication 2 and fast failure detection. --
    let mut cluster = LocalCluster::boot(
        3,
        ServerConfig {
            frontend,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let router = Arc::new(
        cluster
            .router(RouterConfig {
                replication: 2,
                breaker: BreakerConfig {
                    failure_threshold: 2,
                    probation: Duration::from_millis(250),
                },
                conn: ConnConfig {
                    connect_timeout: Duration::from_millis(250),
                    io_timeout: Duration::from_secs(5),
                    max_idle: 8,
                },
                health_interval: Some(Duration::from_millis(25)),
                ..RouterConfig::default()
            })
            .unwrap(),
    );
    assert_eq!(router.push("admissions", &bundle).unwrap(), 2);
    // Both replicas serve bit-identical content before traffic starts.
    let digest = router.verify("admissions").unwrap();
    assert_eq!(digest.len(), 16);

    // --- 200 concurrent scores; a replica dies mid-stream. -----------------
    const THREADS: usize = 8;
    const PER_THREAD: usize = 25;
    let rows: Vec<Vec<f64>> = (0..PER_THREAD)
        .map(|i| raw.row(i % raw.rows()).to_vec())
        .collect();
    let rows = Arc::new(rows);
    let completed = Arc::new(AtomicUsize::new(0));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let router = Arc::clone(&router);
            let rows = Arc::clone(&rows);
            let completed = Arc::clone(&completed);
            std::thread::spawn(move || -> Vec<(usize, f64)> {
                (0..rows.len())
                    .map(|i| {
                        let idx = (i + t * 3) % rows.len();
                        let score = router
                            .score("admissions", &rows[idx])
                            .unwrap_or_else(|e| panic!("request failed after kill: {e}"));
                        completed.fetch_add(1, Ordering::Relaxed);
                        (idx, score)
                    })
                    .collect()
            })
        })
        .collect();

    // Wait until the stream is genuinely in flight, then kill one replica
    // of the model's shard.
    while completed.load(Ordering::Relaxed) < THREADS * PER_THREAD / 4 {
        std::thread::yield_now();
    }
    let victim = router.replica_set("admissions")[0];
    assert!(cluster.kill(victim));

    let per_thread: Vec<Vec<(usize, f64)>> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(cluster.live(), 2);
    let mut total = 0;
    for scores in &per_thread {
        for (idx, score) in scores {
            total += 1;
            let want = expected[idx % raw.rows()];
            assert_eq!(
                score.to_bits(),
                want.to_bits(),
                "routed score {score} differs from offline prediction {want} for row {idx}"
            );
        }
    }
    assert_eq!(total, THREADS * PER_THREAD);

    // --- Scatter-gather still reassembles correctly on the survivors. ------
    let all_rows: Vec<Vec<f64>> = (0..raw.rows()).map(|i| raw.row(i).to_vec()).collect();
    let batch = router.score_batch("admissions", &all_rows).unwrap();
    assert_eq!(batch.len(), expected.len());
    for (i, (got, want)) in batch.iter().zip(expected.iter()).enumerate() {
        assert_eq!(got.to_bits(), want.to_bits(), "batch row {i}");
    }
    // The survivors still agree on content.
    assert_eq!(router.verify("admissions").unwrap(), digest);
    // The dead backend was discovered and ejected (by probes or traffic).
    assert!(
        router.backend(victim).unwrap().breaker().ejections() >= 1,
        "the killed replica was never ejected"
    );
}
