//! The asynchronous submission API's acceptance test: ONE caller thread
//! drives thousands of concurrently in-flight `submit_score` requests
//! against a live 3-shard cluster — far more concurrency than one thread
//! could ever reach with the blocking `score` call — and every completion
//! must be bitwise identical to offline `FittedFairPipeline` predictions
//! with zero failures.
//!
//! Three phases, all from a single thread:
//!
//! 1. **Ticket fan-out**: 5 000+ [`pfr::router::Ticket`]s held in flight
//!    simultaneously, then drained with `wait()`.
//! 2. **Completion queue**: another wave submitted through
//!    [`pfr::router::CompletionQueue`] and popped in completion order.
//! 3. **Batch tickets**: concurrent `submit_score_batch` scatters resolved
//!    out of submission order.
//!
//! The router's hot-key cache is disabled so every request genuinely
//! crosses the network — this is a transport stress test, not a cache test.

use pfr::pipeline::{FairPipeline, FairPipelineConfig};
use pfr::router::{LocalCluster, RouterConfig};
use pfr::serve::{Frontend, ServerConfig};
use pfr_data::{split, synthetic, Dataset};
use pfr_graph::{fairness, SparseGraph};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// In-flight tickets held simultaneously by the single caller thread.
/// The acceptance bar is 5 000; a little headroom guards the margin.
const IN_FLIGHT: usize = 6000;
/// Requests pushed through the completion queue in phase 2.
const QUEUED: usize = 2000;

fn fairness_graph(ds: &Dataset) -> SparseGraph {
    let scores: Vec<f64> = ds
        .side_information()
        .iter()
        .map(|s| s.unwrap_or(0.0))
        .collect();
    fairness::between_group_quantile_graph(ds.groups(), &scores, 5).unwrap()
}

#[test]
fn one_caller_thread_sustains_thousands_of_in_flight_tickets() {
    // --- Offline ground truth. ---------------------------------------------
    let dataset = synthetic::generate_default(97).unwrap();
    let split = split::train_test_split(&dataset, 0.3, 97).unwrap();
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
    let rows: Vec<Vec<f64>> = (0..raw.rows()).map(|i| raw.row(i).to_vec()).collect();

    // --- A 3-shard cluster; reactor front ends behind a reactor router. ----
    let cluster = LocalCluster::boot(
        3,
        ServerConfig {
            frontend: Frontend::reactor(2),
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let router = cluster
        .router(RouterConfig {
            replication: 2,
            // Every request must cross the wire: this is a transport
            // concurrency test, and cache hits would fake the in-flight
            // count.
            hot_cache_capacity: 0,
            ..RouterConfig::default()
        })
        .unwrap();
    assert_eq!(router.push("admissions", &bundle).unwrap(), 2);
    router.verify("admissions").unwrap();

    // --- Phase 1: thousands of tickets in flight from one thread. ----------
    let mut tickets = Vec::with_capacity(IN_FLIGHT);
    for i in 0..IN_FLIGHT {
        let idx = (i * 13) % rows.len();
        tickets.push((idx, router.submit_score("admissions", &rows[idx])));
    }
    // All submissions are live before the first result is consumed: the
    // caller thread genuinely holds IN_FLIGHT concurrent requests.
    assert_eq!(tickets.len(), IN_FLIGHT);
    let mut failures = 0usize;
    for (idx, ticket) in tickets {
        match ticket.wait() {
            Ok(score) => assert_eq!(
                score.to_bits(),
                expected[idx].to_bits(),
                "in-flight ticket for row {idx} resolved to different bits"
            ),
            Err(e) => {
                eprintln!("ticket for row {idx} failed: {e}");
                failures += 1;
            }
        }
    }
    assert_eq!(failures, 0, "in-flight tickets must never fail");

    // --- Phase 2: the completion queue drains in completion order. ---------
    let queue = router.completion_queue();
    let mut tags: HashMap<u64, usize> = HashMap::with_capacity(QUEUED);
    for i in 0..QUEUED {
        let idx = (i * 29 + 7) % rows.len();
        tags.insert(queue.submit_score("admissions", &rows[idx]), idx);
    }
    assert_eq!(queue.in_flight(), QUEUED);
    let mut drained = 0usize;
    while !queue.is_empty() {
        let (tag, outcome) = queue.pop();
        let idx = *tags.get(&tag).expect("completion tag was issued here");
        let score = outcome.unwrap_or_else(|e| panic!("queued score {idx} failed: {e}"));
        assert_eq!(
            score.to_bits(),
            expected[idx].to_bits(),
            "completion-queue score for row {idx} differs from offline"
        );
        drained += 1;
    }
    assert_eq!(drained, QUEUED);
    assert_eq!(queue.in_flight(), 0);

    // --- Phase 3: batch tickets resolve out of submission order. -----------
    let mut batches: Vec<_> = (0..8)
        .map(|_| router.submit_score_batch("admissions", &rows))
        .collect();
    // Resolve the most recently submitted first — completion order must not
    // depend on submission order.
    while let Some(ticket) = batches.pop() {
        let deadline = Instant::now() + Duration::from_secs(60);
        let scores = match ticket.wait_deadline(deadline) {
            Ok(outcome) => outcome.unwrap(),
            Err(_) => panic!("batch ticket missed a 60s deadline"),
        };
        assert_eq!(scores.len(), rows.len());
        for (i, (got, want)) in scores.iter().zip(expected.iter()).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "batch row {i}");
        }
    }

    // The tier really did the work over the wire: no hot-cache absorption.
    let stats = router.stats();
    assert_eq!(stats.hot_cache_hits(), 0);
    assert!(stats.routed() >= (IN_FLIGHT + QUEUED) as u64);
}

/// Hot-cache hits answered at submit time, submitted on one thread.
const SHARED_HOT: usize = 20_000;
/// Distinct rows warmed into the hot cache before the shared-queue run.
const HOT_ROWS: usize = 64;

/// One completion queue shared by two threads: one submits, the other
/// pops. Every completion must find the submission it belongs to — a hot
/// hit completes at submit time, and a cold miss may complete on the
/// reactor before the submitting call returns — so the run ends with zero
/// errors, every score bitwise, and nothing left in flight.
#[test]
fn a_queue_shared_by_a_submitter_and_a_popper_loses_no_completion() {
    let dataset = synthetic::generate_default(97).unwrap();
    let split = split::train_test_split(&dataset, 0.3, 97).unwrap();
    let train = dataset.subset(&split.train).unwrap();
    let test = dataset.subset(&split.test).unwrap();
    let fitted = FairPipeline::new(FairPipelineConfig::default())
        .fit(&train, &fairness_graph(&train))
        .unwrap();
    let expected = fitted.predict_proba(&test).unwrap();
    let (raw, _) = test.features_with_protected().unwrap();
    let bundle = fitted.into_bundle().unwrap();
    let rows: Vec<Vec<f64>> = (0..raw.rows()).map(|i| raw.row(i).to_vec()).collect();
    assert!(rows.len() > HOT_ROWS);

    let cluster = LocalCluster::boot(
        2,
        ServerConfig {
            frontend: Frontend::reactor(1),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let router = cluster.router(RouterConfig::default()).unwrap();
    assert_eq!(router.push("admissions", &bundle).unwrap(), 2);
    for row in &rows[..HOT_ROWS] {
        router.score("admissions", row).unwrap();
    }

    // Submission `i` carries tag `i` (one submitter, a fresh queue), so
    // the popper knows each tag's row without sharing a map.
    let row_of = |tag: u64| -> usize {
        let tag = tag as usize;
        if tag < SHARED_HOT {
            tag % HOT_ROWS
        } else {
            HOT_ROWS + (tag - SHARED_HOT)
        }
    };
    let total = (SHARED_HOT + rows.len() - HOT_ROWS) as u64;
    let queue = router.completion_queue();
    let (errors, wrong) = std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..total {
                let tag = queue.submit_score("admissions", &rows[row_of(i)]);
                assert_eq!(tag, i, "a fresh queue tags submissions in order");
            }
        });
        let popper = s.spawn(|| {
            let (mut errors, mut wrong) = (0usize, 0usize);
            for _ in 0..total {
                let (tag, outcome) = queue.pop();
                match outcome {
                    Ok(score) if score.to_bits() == expected[row_of(tag)].to_bits() => {}
                    Ok(_) => wrong += 1,
                    Err(e) => {
                        if errors == 0 {
                            eprintln!("first failed completion: tag {tag}: {e}");
                        }
                        errors += 1;
                    }
                }
            }
            (errors, wrong)
        });
        popper.join().unwrap()
    });
    assert_eq!(errors, 0, "completions were lost or failed");
    assert_eq!(wrong, 0, "completions resolved to different bits");
    assert_eq!(queue.in_flight(), 0, "entries leaked in the completion map");
    assert!(router.stats().hot_cache_hits() >= SHARED_HOT as u64);
}
