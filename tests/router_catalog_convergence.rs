//! The replicated-placement-catalog acceptance suite: multiple routers
//! over one backend cluster converge to identical `(epoch, roster,
//! placements)` views through the `CATALOG`/`SYNC` anti-entropy protocol
//! — with no shared filesystem and no config replay.
//!
//! Three scenarios, straight from the issue's acceptance list:
//!
//! 1. **Convergence + bootstrap** — a second router connected to a single
//!    seed address bootstraps the whole catalog (including a member the
//!    first router added after boot), membership churn initiated on
//!    *either* router converges on both, and a hard-killed-and-restarted
//!    router rebuilds everything from its peers. Responses from every
//!    router stay bitwise identical to offline inference.
//! 2. **Readmission repair** — a placement that skips a breaker-open
//!    backend is healed after the breaker re-admits it: the next sync
//!    round digest-checks the returning replica and `PUSH`es exactly the
//!    missing content, exactly once (a second round is a no-op because
//!    the digest now matches).
//! 3. **Stampede coalescing** — 100 concurrent identical cold-key misses
//!    cost the backend tier exactly one `SCORE` round trip; the other 99
//!    callers ride the leader's flight or the hot cache, all bitwise
//!    equal.
//! 4. **A refit behind a router** — a refit loop ships its candidate
//!    through the router, so a key the router had cached and a cold key
//!    both answer with the candidate's bits, and a later `add_backend`
//!    leaves every replica on the candidate, not on the bundle it replaced.

use pfr::core::persistence::{
    bundle_digest, bundle_from_string, bundle_to_string, digest_hex, ModelBundle,
};
use pfr::journal::{FsyncPolicy, Journal, JournalConfig, Record};
use pfr::pipeline::{FairPipeline, FairPipelineConfig};
use pfr::refit::{GateConfig, RefitConfig, RefitLoop, RefitModelConfig, RefitStep};
use pfr::router::{BreakerConfig, ConnConfig, LocalCluster, Router, RouterConfig};
use pfr::serve::{Frontend, ServableModel, ServerConfig};
use pfr_data::{split, synthetic, Dataset};
use pfr_graph::{fairness, SparseGraph};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn fairness_graph(ds: &Dataset) -> SparseGraph {
    let scores: Vec<f64> = ds
        .side_information()
        .iter()
        .map(|s| s.unwrap_or(0.0))
        .collect();
    fairness::between_group_quantile_graph(ds.groups(), &scores, 5).unwrap()
}

/// Offline ground truth shared by every scenario: a fitted pipeline's
/// bundle, the raw test rows, and the bit-exact expected probabilities.
fn trained_fixture() -> (ModelBundle, Vec<Vec<f64>>, Vec<f64>) {
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
    let rows: Vec<Vec<f64>> = (0..raw.rows()).map(|i| raw.row(i).to_vec()).collect();
    (fitted.into_bundle().unwrap(), rows, expected)
}

fn wait_for(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(
            Instant::now() < deadline,
            "timed out after {timeout:?} waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn test_config() -> RouterConfig {
    RouterConfig {
        replication: 2,
        breaker: BreakerConfig {
            failure_threshold: 3,
            probation: Duration::from_millis(250),
        },
        conn: ConnConfig {
            connect_timeout: Duration::from_millis(250),
            io_timeout: Duration::from_secs(5),
            max_idle: 8,
        },
        health_interval: Some(Duration::from_millis(25)),
        // Scenarios drive anti-entropy explicitly via `sync_now` so every
        // assertion is deterministic; the first scenario re-enables the
        // background worker on one router to prove the thread converges
        // on its own too.
        sync_interval: None,
        ..RouterConfig::default()
    }
}

/// Every router must hold the identical catalog version, membership and
/// replica set, and serve bitwise-identical scores for the same rows.
fn assert_converged(routers: &[&Router], model: &str, rows: &[Vec<f64>], expected: &[f64]) {
    let reference = routers[0];
    let version = reference.catalog_version();
    let ids = reference.membership().ids();
    let replicas = reference.replica_set(model);
    let digest = reference.verify(model).unwrap();
    for router in routers {
        assert_eq!(router.catalog_version(), version, "catalog versions differ");
        assert_eq!(router.control_epoch(), version.epoch);
        assert_eq!(router.membership().ids(), ids, "rosters differ");
        assert_eq!(router.replica_set(model), replicas, "replica sets differ");
        assert_eq!(router.verify(model).unwrap(), digest, "digests differ");
        for (i, row) in rows.iter().take(5).enumerate() {
            let got = router.score(model, row).unwrap();
            assert_eq!(
                got.to_bits(),
                expected[i].to_bits(),
                "routed score {got} differs from offline prediction for row {i}"
            );
        }
    }
}

/// Scenario 1: two routers over one cluster converge after churn from
/// either side, and a hard-killed-and-restarted router bootstraps its
/// entire catalog from cluster peers.
#[test]
fn two_routers_converge_and_a_restarted_router_bootstraps_from_peers() {
    let (bundle, rows, expected) = trained_fixture();
    let mut cluster = LocalCluster::boot(
        3,
        ServerConfig {
            frontend: Frontend::reactor(1),
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // Router A drives the cluster through its background sync worker —
    // the thread must keep A converged without any explicit sync calls.
    let router_a = cluster
        .router(RouterConfig {
            sync_interval: Some(Duration::from_millis(25)),
            ..test_config()
        })
        .unwrap();
    assert_eq!(router_a.push("admissions", &bundle).unwrap(), 2);
    let addr = cluster.add_backend().unwrap();
    let added = router_a.add_backend(addr).unwrap();
    assert_eq!(router_a.membership().len(), 4);

    // Router B connects to ONE seed address and must bootstrap the whole
    // four-member roster and the placement from the replicated catalog.
    let router_b = Router::connect(&cluster.addrs()[..1], test_config()).unwrap();
    assert_eq!(router_b.membership().len(), 4, "bootstrap missed members");
    assert_ne!(router_a.writer_id(), router_b.writer_id());
    assert_converged(&[&router_a, &router_b], "admissions", &rows, &expected);

    // Churn initiated on B: remove the member A added. A must observe the
    // higher catalog epoch through its background worker alone.
    router_b.remove_backend(added).unwrap();
    assert_eq!(router_b.membership().len(), 3);
    let target = router_b.catalog_version();
    wait_for(
        "router A to adopt the post-churn catalog",
        Duration::from_secs(5),
        || router_a.catalog_version() == target,
    );
    assert_converged(&[&router_a, &router_b], "admissions", &rows, &expected);
    assert!(
        router_a.stats().sync_rounds() >= 1,
        "background worker never ran a sync round"
    );

    // Hard-kill router B (drop = no graceful handoff, its private state
    // is gone). A fresh router over a different seed address rebuilds the
    // identical view purely from what the backends replicated.
    let version_before = router_b.catalog_version();
    drop(router_b);
    let router_b2 = Router::connect(&cluster.addrs()[1..2], test_config()).unwrap();
    assert_eq!(router_b2.catalog_version(), version_before);
    assert_converged(&[&router_a, &router_b2], "admissions", &rows, &expected);
}

/// Scenario 2: a breaker-open backend is skipped at placement time and
/// digest-check-repaired after re-admission — exactly once.
#[test]
fn readmitted_backend_is_repaired_exactly_once() {
    let (bundle, _rows, _expected) = trained_fixture();
    let cluster = LocalCluster::boot(
        3,
        ServerConfig {
            frontend: Frontend::reactor(1),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let router = cluster.router(test_config()).unwrap();
    assert_eq!(router.push("admissions", &bundle).unwrap(), 2);
    let digest = router.verify("admissions").unwrap();

    // Trip the breaker on one replica by hand (the server itself stays
    // up, so health probes will re-admit it after probation). The loop
    // guards against a concurrent probe resetting the failure streak.
    let victim = router.replica_set("admissions")[0];
    let backend = router.backend(victim).unwrap();
    while !backend.breaker().is_open() {
        backend.breaker().record_failure();
    }
    let readmissions_before = backend.breaker().readmissions();

    // Find a second model whose replica set includes the open backend and
    // place it: the open replica must be skipped, not written through.
    let name = (0..256)
        .map(|i| format!("risk-{i}"))
        .find(|n| router.replica_set(n).contains(&victim))
        .expect("no candidate model hashed onto the victim");
    assert_eq!(
        router.push(&name, &bundle).unwrap(),
        1,
        "placement wrote through a breaker-open backend"
    );

    // The prober re-admits the victim after probation; the next sync
    // round digest-checks it and pushes exactly the missing placement.
    wait_for(
        "the health prober to re-admit the victim",
        Duration::from_secs(5),
        || backend.breaker().readmissions() > readmissions_before,
    );
    assert_eq!(router.stats().repair_pushes(), 0);
    router.sync_now();
    assert_eq!(
        router.stats().repair_pushes(),
        1,
        "repair did not push exactly the one missing placement"
    );
    assert_eq!(router.verify(&name).unwrap().len(), 16);
    assert_eq!(router.verify("admissions").unwrap(), digest);

    // Idempotence: the victim's serving generation and the repair counter
    // must not move on a second round — the digest check short-circuits.
    let epoch_line = backend.exchange(&format!("EPOCH {name}")).unwrap();
    assert!(
        epoch_line.contains("generation="),
        "unexpected EPOCH payload: {epoch_line}"
    );
    router.sync_now();
    router.sync_now();
    assert_eq!(router.stats().repair_pushes(), 1, "repair re-pushed");
    assert_eq!(
        backend.exchange(&format!("EPOCH {name}")).unwrap(),
        epoch_line
    );

    // The repair PUSH is observable: the counter rides the metrics text.
    assert!(router
        .metrics()
        .contains("pfr_control_repair_pushes_total 1"));
}

/// Scenario 3: 100 concurrent identical cold-key misses cost the backend
/// tier exactly one `SCORE` round trip.
#[test]
fn cold_key_stampede_coalesces_to_one_backend_round_trip() {
    let (bundle, rows, expected) = trained_fixture();
    let cluster = LocalCluster::boot(
        3,
        ServerConfig {
            frontend: Frontend::reactor(1),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let router = Arc::new(cluster.router(test_config()).unwrap());
    assert_eq!(router.push("admissions", &bundle).unwrap(), 2);
    router.verify("admissions").unwrap();

    let backend_scores = |cluster: &LocalCluster| -> u64 {
        (0..cluster.len())
            .filter_map(|i| cluster.server(i))
            .map(|s| s.stats().score.requests())
            .sum()
    };
    let before = backend_scores(&cluster);

    const CALLERS: usize = 100;
    let row = Arc::new(rows[0].clone());
    let barrier = Arc::new(Barrier::new(CALLERS));
    let handles: Vec<_> = (0..CALLERS)
        .map(|_| {
            let router = Arc::clone(&router);
            let row = Arc::clone(&row);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                router.score("admissions", &row).unwrap()
            })
        })
        .collect();
    for handle in handles {
        let got = handle.join().unwrap();
        assert_eq!(
            got.to_bits(),
            expected[0].to_bits(),
            "stampede answer diverged from offline prediction"
        );
    }

    assert_eq!(
        backend_scores(&cluster) - before,
        1,
        "the stampede reached the backend tier more than once"
    );
    let stats = router.stats();
    assert_eq!(
        stats.coalesced() + stats.hot_cache_hits(),
        (CALLERS - 1) as u64,
        "every non-leader must ride the flight or the hot cache"
    );
    assert!(router.metrics().contains("pfr_router_coalesced_total"));
}

/// Single-flight across both submission kinds, (a): a queued submission of
/// a key whose ticketed leader is still in flight never parks on that
/// flight — it returns its tag at once (the leader cannot resolve until
/// this same thread collects its ticket) and pops bitwise.
#[test]
fn a_queued_submission_behind_a_ticketed_leader_returns_without_parking() {
    let (bundle, rows, expected) = trained_fixture();
    let cluster = LocalCluster::boot(
        2,
        ServerConfig {
            frontend: Frontend::reactor(1),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let router = cluster.router(test_config()).unwrap();
    assert_eq!(router.push("admissions", &bundle).unwrap(), 2);

    let leader = router.submit_score("admissions", &rows[1]);
    let queue = router.completion_queue();
    let tag = queue.submit_score("admissions", &rows[1]);
    assert_eq!(queue.in_flight(), 1);
    let (popped, outcome) = queue.pop();
    assert_eq!(popped, tag);
    assert_eq!(outcome.unwrap().to_bits(), expected[1].to_bits());
    assert!(queue.is_empty());
    assert_eq!(leader.wait().unwrap().to_bits(), expected[1].to_bits());
}

/// Single-flight across both submission kinds, (b): a ticketed follower
/// parked behind a queued leader is released when the leader is popped,
/// and the pair costs the backend tier exactly one `SCORE`.
#[test]
fn a_ticketed_follower_rides_a_queued_leader() {
    let (bundle, rows, expected) = trained_fixture();
    let cluster = LocalCluster::boot(
        2,
        ServerConfig {
            frontend: Frontend::reactor(1),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let router = cluster.router(test_config()).unwrap();
    assert_eq!(router.push("admissions", &bundle).unwrap(), 2);
    let backend_scores = || -> u64 {
        (0..cluster.len())
            .filter_map(|i| cluster.server(i))
            .map(|s| s.stats().score.requests())
            .sum()
    };
    let before = backend_scores();
    let coalesced_before = router.stats().coalesced();

    let queue = router.completion_queue();
    let tag = queue.submit_score("admissions", &rows[2]);
    let mut follower = router.submit_score("admissions", &rows[2]);
    assert_eq!(router.stats().coalesced(), coalesced_before + 1);
    assert!(
        follower.try_take().is_none(),
        "the follower resolved before its queued leader was popped"
    );
    let (popped, outcome) = queue.pop();
    assert_eq!(popped, tag);
    assert_eq!(outcome.unwrap().to_bits(), expected[2].to_bits());
    assert_eq!(follower.wait().unwrap().to_bits(), expected[2].to_bits());
    assert_eq!(
        backend_scores() - before,
        1,
        "leader and follower reached the backend tier more than once"
    );
}

/// Single-flight across both submission kinds, (c): `score_traced` must
/// demonstrably reach a backend, so it bypasses the hot cache even for a
/// key the cache holds.
#[test]
fn a_traced_score_reaches_a_backend_for_a_hot_key() {
    let (bundle, rows, expected) = trained_fixture();
    let cluster = LocalCluster::boot(
        2,
        ServerConfig {
            frontend: Frontend::reactor(1),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let router = cluster.router(test_config()).unwrap();
    assert_eq!(router.push("admissions", &bundle).unwrap(), 2);
    let backend_scores = || -> u64 {
        (0..cluster.len())
            .filter_map(|i| cluster.server(i))
            .map(|s| s.stats().score.requests())
            .sum()
    };

    let cold = router.score("admissions", &rows[3]).unwrap();
    assert_eq!(cold.to_bits(), expected[3].to_bits());
    let before = backend_scores();
    let hits = router.stats().hot_cache_hits();
    let hot = router.score("admissions", &rows[3]).unwrap();
    assert_eq!(hot.to_bits(), expected[3].to_bits());
    assert_eq!(router.stats().hot_cache_hits(), hits + 1);
    assert_eq!(backend_scores(), before, "a hot hit reached a backend");

    let (traced, id) = router.score_traced("admissions", &rows[3]).unwrap();
    assert_eq!(traced.to_bits(), expected[3].to_bits());
    assert_eq!(
        backend_scores() - before,
        1,
        "the traced score skipped the backend"
    );
    assert!(router
        .trace(id)
        .is_some_and(|tree| tree.contains("router/SCORE")));
}

/// Scenario 4: a refit ships only through the router. Its push retires the
/// router's hot-cache entries and catalogs the candidate, so a key served
/// from the hot cache before the swap and a cold key both return the
/// candidate's bits, and a membership change afterwards reconciles every
/// replica to the candidate instead of back to the bundle it replaced.
#[test]
fn a_refit_behind_a_router_reaches_hot_keys_cold_keys_and_new_members() {
    let (bundle, rows, expected) = trained_fixture();
    let mut cluster = LocalCluster::boot(
        2,
        ServerConfig {
            frontend: Frontend::reactor(1),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let router = Arc::new(cluster.router(test_config()).unwrap());
    assert_eq!(router.push("admissions", &bundle).unwrap(), 2);
    let (hot, cold) = (&rows[0], &rows[1]);
    for _ in 0..2 {
        let got = router.score("admissions", hot).unwrap();
        assert_eq!(got.to_bits(), expected[0].to_bits());
    }
    assert_eq!(router.stats().hot_cache_hits(), 1, "the hot key is cached");

    // Drifted traffic (+0.8σ on every unprotected feature; the protected
    // flag is the last column) lands in a journal the refit loop tails.
    let dir = std::env::temp_dir().join(format!("pfr_refit_router_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal = Journal::open(JournalConfig {
        fsync: FsyncPolicy::Never,
        ..JournalConfig::new(&dir)
    })
    .unwrap();
    let stds = bundle.standardizer.as_ref().unwrap().stds.clone();
    let protected = hot.len() - 1;
    let mut config = RefitConfig::new(&dir, "admissions");
    config.window_rows = 256;
    config.holdback_rows = 64;
    config.holdback_every = 4;
    config.min_refit_rows = 96;
    config.check_every_frames = 32;
    config.cooldown_frames = 64;
    config.model_config = RefitModelConfig {
        dim: bundle.model.dim(),
        knn_k: 8,
        protected_column: protected,
        ..RefitModelConfig::default()
    };
    config.gate = GateConfig {
        min_agreement: 0.7,
        max_mean_abs_diff: 0.35,
        min_rows: 8,
    };
    let mut refit =
        RefitLoop::new(config, &bundle_to_string(&bundle), Arc::clone(&router)).unwrap();
    let mut frames = 0;
    let candidate = loop {
        assert!(frames < 8192, "no candidate shipped after {frames} frames");
        for k in 0..64 {
            let row = &rows[(frames + k) % rows.len()];
            let features = row
                .iter()
                .enumerate()
                .map(|(j, &v)| if j == protected { v } else { v + 0.8 * stds[j] })
                .collect();
            let record = Record::Score {
                model: "admissions".into(),
                features,
            };
            journal.append(&record).unwrap();
        }
        frames += 64;
        while refit.pump(256).unwrap() > 0 {}
        if let RefitStep::Swapped {
            placed,
            bundle_text,
            ..
        } = refit.maybe_refit().unwrap()
        {
            assert_eq!(placed, 2, "both replicas take the candidate");
            break bundle_text;
        }
    };
    journal.close();
    let _ = std::fs::remove_dir_all(&dir);

    // Both keys answer with the candidate's bits.
    let candidate = bundle_from_string(&candidate).unwrap();
    let offline = ServableModel::from_bundle("candidate", &candidate).unwrap();
    for (name, row, before) in [("hot", hot, expected[0]), ("cold", cold, expected[1])] {
        let want = offline.score_one(row).unwrap();
        assert_ne!(
            want.to_bits(),
            before.to_bits(),
            "{name}: the candidate scores alike"
        );
        let got = router.score("admissions", row).unwrap();
        assert_eq!(got.to_bits(), want.to_bits(), "{name} key after the refit");
    }

    // A membership change reconciles every replica to the candidate.
    let addr = cluster.add_backend().unwrap();
    router.add_backend(addr).unwrap();
    let digest = format!("digest={}", digest_hex(bundle_digest(&candidate)));
    for id in router.replica_set("admissions") {
        let epoch = router
            .backend(id)
            .unwrap()
            .exchange("EPOCH admissions")
            .unwrap();
        assert!(epoch.contains(&digest), "backend {id}: {epoch}");
    }
}
