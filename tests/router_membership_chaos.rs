//! Live-elasticity chaos test: while 200 concurrent clients score through
//! a 3-shard router, a 4th backend **joins** the live ring and an original
//! replica is **removed** (then its process killed) — with zero failed
//! requests, every response bitwise equal to offline predictions, the
//! `≤ 2/N` remap bound holding on the live ring at both transitions, and
//! every replica populated over the wire via `PUSH`. A second test races
//! pushes against membership changes and checks that no push is reverted.
//! A third checks that a backend which left a model's replica set never
//! answers for it, and a fourth that a membership change moving a model's
//! only replica never fails a read (make before break).

use pfr::core::persistence::{bundle_digest, bundle_to_string, digest_hex, ModelBundle};
use pfr::pipeline::{FairPipeline, FairPipelineConfig};
use pfr::router::{
    BreakerConfig, ConnConfig, HashRing, LocalCluster, Router, RouterConfig, DEFAULT_VNODES,
};
use pfr::serve::{ServableModel, ServerConfig};
use pfr_data::{split, synthetic, Dataset};
use pfr_graph::{fairness, SparseGraph};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

fn fairness_graph(ds: &Dataset) -> SparseGraph {
    let scores: Vec<f64> = ds
        .side_information()
        .iter()
        .map(|s| s.unwrap_or(0.0))
        .collect();
    fairness::between_group_quantile_graph(ds.groups(), &scores, 5).unwrap()
}

/// Counts keys whose primary moved between two rings, asserting the
/// consistency contract: on growth keys may only move *to* `gained`, on
/// shrink only keys owned by `lost` may move at all.
fn remapped(
    before: &HashRing,
    after: &HashRing,
    keys: &[String],
    gained: Option<usize>,
    lost: Option<usize>,
) -> usize {
    let mut moved = 0;
    for key in keys {
        let was = before.primary(key).unwrap();
        let now = after.primary(key).unwrap();
        if now != was {
            moved += 1;
            if let Some(gained) = gained {
                assert_eq!(now, gained, "{key} moved between surviving backends");
            }
            if let Some(lost) = lost {
                assert_eq!(was, lost, "{key} moved although its shard survived");
            }
        }
    }
    moved
}

#[test]
fn membership_changes_under_load_keep_every_score_bitwise_identical() {
    // --- Offline ground truth. ---------------------------------------------
    let dataset = synthetic::generate_default(73).unwrap();
    let split = split::train_test_split(&dataset, 0.3, 73).unwrap();
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

    // --- A 3-shard cluster; hot-key cache off so every request exercises ---
    // --- the network path the chaos is aimed at. ---------------------------
    let mut cluster = LocalCluster::boot(3, pfr::serve::ServerConfig::default()).unwrap();
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
                hot_cache_capacity: 0,
                ..RouterConfig::default()
            })
            .unwrap(),
    );

    // --- Placement is wire-level: PUSH. -------------------------------------
    assert_eq!(router.push("admissions", &bundle).unwrap(), 2);
    let digest = router.verify("admissions").unwrap();
    // Auxiliary models spread placements over the whole ring, so the
    // backend that joins below deterministically ends up owning some of
    // them — proving reconciliation populates a newcomer via PUSH.
    for aux in 0..8 {
        assert!(router.push(&format!("aux-{aux}"), &bundle).unwrap() >= 1);
    }

    // --- ≥ 200 concurrent scores; the cluster grows and shrinks with -------
    // --- traffic *guaranteed* in flight across both transitions: the -------
    // --- clients keep scoring until a quota of requests has completed ------
    // --- after each membership change, so the changes cannot slip into -----
    // --- a quiet window however fast the scoring path is. ------------------
    const THREADS: usize = 8;
    const MIN_TOTAL: usize = 200;
    /// Requests that must complete *after* each membership change while
    /// the stream is still running.
    const OVERLAP: usize = 50;
    let rows: Vec<Vec<f64>> = (0..25).map(|i| raw.row(i % raw.rows()).to_vec()).collect();
    let rows = Arc::new(rows);
    let completed = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let original_replicas = router.replica_set("admissions");

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let router = Arc::clone(&router);
            let rows = Arc::clone(&rows);
            let completed = Arc::clone(&completed);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || -> Vec<(usize, f64)> {
                let mut scored = Vec::new();
                for i in 0.. {
                    if stop.load(Ordering::Relaxed) && i >= rows.len() {
                        break;
                    }
                    let idx = (i + t * 3) % rows.len();
                    let score = router
                        .score("admissions", &rows[idx])
                        .unwrap_or_else(|e| panic!("request failed mid-elasticity: {e}"));
                    completed.fetch_add(1, Ordering::Relaxed);
                    scored.push((idx, score));
                }
                scored
            })
        })
        .collect();
    let wait_past = |mark: usize| {
        while completed.load(Ordering::Relaxed) < mark {
            std::thread::yield_now();
        }
    };

    // Grow once the stream is genuinely in flight.
    wait_past(OVERLAP);
    let before_add = router.ring();
    let addr = cluster.add_backend().unwrap();
    let new_id = router.add_backend(addr).unwrap();
    let after_add = router.ring();

    // Shrink under traffic: retire an original replica of the model, then
    // kill its process outright (requests racing the removal on the old
    // snapshot must fail over, not fail).
    wait_past(completed.load(Ordering::Relaxed) + OVERLAP);
    let victim = original_replicas[0];
    router.remove_backend(victim).unwrap();
    let after_remove = router.ring();
    assert!(cluster.kill(victim));

    // Keep traffic flowing on the post-shrink membership, then wind down.
    wait_past(completed.load(Ordering::Relaxed) + OVERLAP);
    wait_past(MIN_TOTAL);
    stop.store(true, Ordering::Relaxed);
    let per_thread: Vec<Vec<(usize, f64)>> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();

    // --- Zero failures, every score bitwise equal to offline truth. --------
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
    assert!(total >= MIN_TOTAL, "only {total} requests completed");

    // --- The ≤ 2/N remap bound held on the live ring at both steps. --------
    let keys: Vec<String> = (0..2000).map(|i| format!("model-{i}")).collect();
    let moved_on_add = remapped(&before_add, &after_add, &keys, Some(new_id), None);
    assert!(
        moved_on_add as f64 <= 2.0 * keys.len() as f64 / after_add.len() as f64,
        "adding backend {new_id} remapped {moved_on_add} of {} keys (> 2/N)",
        keys.len()
    );
    let moved_on_remove = remapped(&after_add, &after_remove, &keys, None, Some(victim));
    assert!(
        moved_on_remove as f64 <= 2.0 * keys.len() as f64 / after_add.len() as f64,
        "removing backend {victim} remapped {moved_on_remove} of {} keys (> 2/N)",
        keys.len()
    );

    // --- Membership settled: 3 members, the victim's id retired. -----------
    let membership = router.membership();
    assert_eq!(membership.len(), 3);
    assert!(membership.ids().contains(&new_id));
    assert!(!membership.ids().contains(&victim));

    // --- Reconciliation populated the newcomer over the wire: every -------
    // --- model's current replica set serves it, digest-verified, and ------
    // --- the new backend holds its share (placed by PUSH — this test ------
    // --- never wrote a file for these models). ----------------------------
    assert_eq!(router.verify("admissions").unwrap(), digest);
    let new_server = cluster.server(3).expect("the added backend is alive");
    let mut new_backend_models = 0;
    let names: Vec<String> = std::iter::once("admissions".to_string())
        .chain((0..8).map(|aux| format!("aux-{aux}")))
        .collect();
    for name in &names {
        assert_eq!(router.verify(name).unwrap().len(), 16);
        for rid in router.replica_set(name) {
            assert!(
                cluster.server(rid).unwrap().registry().get(name).is_some(),
                "replica {rid} of '{name}' missing after reconciliation"
            );
            if rid == new_id {
                new_backend_models += 1;
            }
        }
    }
    assert!(
        new_backend_models >= 1,
        "the joined backend owns no replicas — reconciliation never pushed to it"
    );
    assert!(new_server.registry().len() >= new_backend_models);

    // --- And the tier still scores, bit-exactly, after all of it. ----------
    let all_rows: Vec<Vec<f64>> = (0..raw.rows()).map(|i| raw.row(i).to_vec()).collect();
    let batch = router.score_batch("admissions", &all_rows).unwrap();
    for (i, (got, want)) in batch.iter().zip(expected.iter()).enumerate() {
        assert_eq!(got.to_bits(), want.to_bits(), "batch row {i}");
    }
}

/// A push racing a membership change is never reverted. `push_text`
/// holds the reconcile gate from its membership snapshot to its catalog
/// upsert, so the change's reconcile reads either the old catalog before
/// the placement starts or the new one after it lands — never the old
/// catalog while the new bundle is already on a replica. Each round races
/// one `add_backend` or `remove_backend` against eight pushes that flip
/// eight models between two bundles; once both calls return, every
/// replica slot must hold what was pushed last.
#[test]
fn a_push_racing_a_membership_change_is_never_reverted() {
    const ROUNDS: usize = 150;
    const MODELS: usize = 8;
    let dataset = synthetic::generate_default(73).unwrap();
    let split = split::train_test_split(&dataset, 0.3, 73).unwrap();
    let train = dataset.subset(&split.train).unwrap();
    let bundle_a = FairPipeline::new(FairPipelineConfig::default())
        .fit(&train, &fairness_graph(&train))
        .unwrap()
        .into_bundle()
        .unwrap();
    // Same projection and head, another decision threshold: new content.
    let mut bundle_b = bundle_a.clone();
    bundle_b.classifier.as_mut().unwrap().threshold = 0.25;
    let texts = [bundle_to_string(&bundle_a), bundle_to_string(&bundle_b)];
    let digests = [&bundle_a, &bundle_b].map(|bundle| digest_hex(bundle_digest(bundle)));
    assert_ne!(digests[0], digests[1]);

    // Three members plus one spare that joins and leaves every other round.
    let cluster = LocalCluster::boot(4, pfr::serve::ServerConfig::default()).unwrap();
    let spare = cluster.addrs()[3];
    let router = Router::connect(
        &cluster.addrs()[..3],
        RouterConfig {
            replication: 2,
            health_interval: None,
            sync_interval: None,
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let models: Vec<String> = (0..MODELS).map(|i| format!("race-{i}")).collect();
    let last = |round: usize, i: usize| (round + i) % 2;

    let mut spare_id = None;
    let mut stale = Vec::new();
    let mut slots = 0;
    for round in 0..ROUNDS {
        let start = Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for (i, model) in models.iter().enumerate() {
                    router.push_text(model, &texts[last(round, i)]).unwrap();
                }
            });
            start.wait();
            spare_id = match spare_id {
                None => Some(router.add_backend(spare).unwrap()),
                Some(id) => {
                    router.remove_backend(id).unwrap();
                    None
                }
            };
        });
        for (i, model) in models.iter().enumerate() {
            let want = &digests[last(round, i)];
            for id in router.replica_set(model) {
                slots += 1;
                let epoch = router
                    .backend(id)
                    .unwrap()
                    .exchange(&format!("EPOCH {model}"))
                    .unwrap();
                if !epoch.contains(&format!("digest={want}")) {
                    stale.push(format!("round {round} {model} backend {id}: {epoch}"));
                }
            }
        }
    }
    assert!(slots >= ROUNDS * MODELS * 2);
    assert!(
        stale.is_empty(),
        "{} of {slots} replica slots were reverted, first: {}",
        stale.len(),
        stale[0]
    );
}

/// A bundle fitted on the seed-73 synthetic split at `gamma`, and the raw
/// test rows it scores.
fn fitted_bundle(gamma: f64) -> (ModelBundle, Vec<Vec<f64>>) {
    let dataset = synthetic::generate_default(73).unwrap();
    let split = split::train_test_split(&dataset, 0.3, 73).unwrap();
    let train = dataset.subset(&split.train).unwrap();
    let test = dataset.subset(&split.test).unwrap();
    let bundle = FairPipeline::new(FairPipelineConfig {
        gamma,
        ..FairPipelineConfig::default()
    })
    .fit(&train, &fairness_graph(&train))
    .unwrap()
    .into_bundle()
    .unwrap();
    let (raw, _) = test.features_with_protected().unwrap();
    let rows = (0..8).map(|i| raw.row(i).to_vec()).collect();
    (bundle, rows)
}

/// A router with no background prober, sync worker or hot cache: every
/// read reaches a backend, and nothing but the test changes a breaker or
/// the roster.
fn quiet_config(replication: usize) -> RouterConfig {
    RouterConfig {
        replication,
        health_interval: None,
        sync_interval: None,
        hot_cache_capacity: 0,
        ..RouterConfig::default()
    }
}

/// A backend that left a model's replica set keeps the bundle it held —
/// no verb unloads a model — so it must never answer for that model
/// again. Bundle A is placed on a model's two replicas, a fourth backend
/// joins and takes one replica slot, and bundle B is pushed: `verify`
/// sees B alone, not the ex-replica's A. Then both replicas die: a read
/// fails and `verify` errors, where walking on to the ex-replica would
/// return A's bits as a success.
#[test]
fn an_ex_replica_never_answers_for_the_model_it_left() {
    let (bundle_a, rows) = fitted_bundle(0.9);
    let (bundle_b, _) = fitted_bundle(0.5);
    let digest_b = digest_hex(bundle_digest(&bundle_b));
    let offline_a = ServableModel::from_bundle("a", &bundle_a).unwrap();

    let mut cluster = LocalCluster::boot(4, ServerConfig::default()).unwrap();
    let router = Router::connect(&cluster.addrs()[..3], quiet_config(2)).unwrap();
    // A model whose replica set the newcomer (ring id 3) joins.
    let ring_of = |ids: &[usize]| {
        let mut ring = HashRing::new(DEFAULT_VNODES);
        ids.iter().for_each(|&id| ring.add(id));
        ring
    };
    let grown = ring_of(&[0, 1, 2, 3]);
    let model = (0..)
        .map(|i| format!("m{i}"))
        .find(|m| grown.replicas(m, 2).contains(&3))
        .unwrap();

    assert_eq!(router.push(&model, &bundle_a).unwrap(), 2);
    let before = router.replica_set(&model);
    assert_eq!(router.add_backend(cluster.addrs()[3]).unwrap(), 3);
    let replicas = router.replica_set(&model);
    assert_eq!(replicas, grown.replicas(&model, 2));
    let ex = *before.iter().find(|id| !replicas.contains(id)).unwrap();
    assert_eq!(router.push(&model, &bundle_b).unwrap(), 2);
    assert_eq!(
        router.verify(&model).unwrap(),
        digest_b,
        "verify must read the replica set only"
    );
    // The ex-replica still holds A: only the replica walk keeps it out.
    let held = cluster.server(ex).unwrap().registry().get(&model).unwrap();
    assert_eq!(held.digest(), bundle_digest(&bundle_a));

    for &id in &replicas {
        assert!(cluster.kill(id));
    }
    for row in &rows {
        if let Ok(score) = router.score(&model, row) {
            let a = offline_a.score_one(row).unwrap();
            panic!(
                "a read answered {score} with both replicas dead{}",
                if score.to_bits() == a.to_bits() {
                    " — the superseded bundle A's bits"
                } else {
                    ""
                }
            );
        }
    }
    assert!(
        router.verify(&model).is_err(),
        "verify answered with both replicas dead"
    );
}

/// Make before break: a membership change reaches readers only once the
/// model's new replica holds it. With one replica per model and the hot
/// cache off, every read goes to the model's only replica; a reader
/// scores in a loop while each round joins a fresh, empty backend and
/// then retires whichever member holds the model — so every round moves
/// the only replica at least once. No read may fail, and every reply is
/// bitwise equal to offline `score_one`.
#[test]
fn moving_a_models_only_replica_never_fails_a_read() {
    const ROUNDS: usize = 100;
    let (bundle, rows) = fitted_bundle(0.9);
    let offline = ServableModel::from_bundle("offline", &bundle).unwrap();
    let want: Vec<f64> = rows.iter().map(|r| offline.score_one(r).unwrap()).collect();
    let lean = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };

    let mut cluster = LocalCluster::boot(1, lean.clone()).unwrap();
    let router = cluster.router(quiet_config(1)).unwrap();
    assert_eq!(router.push("solo", &bundle).unwrap(), 1);
    let reads = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let failures = Mutex::new(Vec::new());
    let mut moves = 0;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for i in 0.. {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let row = i % rows.len();
                match router.score("solo", &rows[row]) {
                    Ok(score) if score.to_bits() == want[row].to_bits() => {}
                    other => failures
                        .lock()
                        .unwrap()
                        .push(format!("row {row}: {other:?}")),
                }
                reads.fetch_add(1, Ordering::Relaxed);
            }
        });
        // A failed assertion below must stop the reader too, or the scope
        // would wait for it forever.
        let _stop = StopOnDrop(&stop);
        // Returns once a read that started after the call has completed:
        // the reader is one thread, so the read after the one in flight.
        let wait_for_reads = || {
            let mark = reads.load(Ordering::Relaxed) + 2;
            while reads.load(Ordering::Relaxed) < mark {
                std::thread::yield_now();
            }
        };
        let server_of = |cluster: &LocalCluster, id: usize| {
            let addr = router.backend(id).unwrap().addr();
            // The newest server on the address: a killed server's port
            // can be reused by a later one.
            cluster.addrs().iter().rposition(|&a| a == addr).unwrap()
        };
        for _ in 0..ROUNDS {
            let holder = router.replica_set("solo")[0];
            router
                .add_backend(cluster.add_backend_with(lean.clone()).unwrap())
                .unwrap();
            wait_for_reads();
            let holder_now = router.replica_set("solo")[0];
            moves += usize::from(holder_now != holder);
            // Retiring the holder moves the model to the other member.
            let retired = server_of(&cluster, holder_now);
            router.remove_backend(holder_now).unwrap();
            moves += 1;
            wait_for_reads();
            // No read can still hold a snapshot with the retired member.
            assert!(cluster.kill(retired));
        }
    });
    let failures = failures.into_inner().unwrap();
    assert!(
        moves >= ROUNDS,
        "only {moves} membership changes moved the replica"
    );
    assert!(reads.load(Ordering::Relaxed) >= 4 * ROUNDS);
    assert!(
        failures.is_empty(),
        "{} of {} reads failed or differed from score_one, first: {}",
        failures.len(),
        reads.load(Ordering::Relaxed),
        failures[0]
    );
}

/// Raises its flag when dropped, on success and on a panic alike.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}
