//! The observability acceptance test: a router fronting three *journaling*
//! serve backends must expose ONE merged metrics scrape — router-local
//! series, per-backend latency histograms, and the bucket-wise sum of
//! every backend's serve and journal series — and a single traced request
//! must come back as one span tree: the router span at indent 0 with its
//! routing events, the backend's `serve/SCORE` span nested below it with
//! per-stage events, both under the same trace id that travelled on the
//! wire as a `T=<id>` token.

use pfr::core::persistence::{bundle_to_string, ModelBundle};
use pfr::journal::JournalConfig;
use pfr::linalg::Matrix;
use pfr::obs::{unescape_multiline, Scrape};
use pfr::pipeline::{FairPipeline, FairPipelineConfig};
use pfr::refit::{RefitConfig, RefitLoop, RefitWorker};
use pfr::router::{LocalCluster, Router, RouterConfig};
use pfr::serve::protocol::format_numbers;
use pfr::serve::{Server, ServerConfig};
use pfr_data::{split, synthetic, Dataset};
use pfr_graph::{fairness, SparseGraph};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

fn fairness_graph(ds: &Dataset) -> SparseGraph {
    let scores: Vec<f64> = ds
        .side_information()
        .iter()
        .map(|s| s.unwrap_or(0.0))
        .collect();
    fairness::between_group_quantile_graph(ds.groups(), &scores, 5).unwrap()
}

/// A fresh private journal directory per backend — two servers must never
/// append to the same write-ahead journal.
fn journal_dir(i: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pfr_obs_e2e_{}_{i}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Offline ground truth: a fitted bundle, unseen raw rows and the
/// probabilities offline inference gives them.
fn fixture() -> (ModelBundle, Matrix, Vec<f64>) {
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
    (fitted.into_bundle().unwrap(), raw, expected)
}

#[test]
fn one_scrape_and_one_trace_tree_span_every_tier_reactor() {
    // --- Offline ground truth and a 3-backend journaling cluster. ----------
    let (bundle, raw, expected) = fixture();

    let mut cluster = LocalCluster::boot(0, ServerConfig::default()).unwrap();
    let mut dirs = Vec::new();
    for i in 0..3 {
        let dir = journal_dir(i);
        cluster
            .add_backend_with(ServerConfig {
                journal: Some(JournalConfig::new(dir.clone())),
                ..ServerConfig::default()
            })
            .unwrap();
        dirs.push(dir);
    }
    let router = Arc::new(
        cluster
            .router(RouterConfig {
                replication: 2,
                ..RouterConfig::default()
            })
            .unwrap(),
    );
    assert_eq!(router.push("admissions", &bundle).unwrap(), 2);

    // --- Traffic: distinct rows so every request reaches a backend. --------
    for i in 0..20 {
        let idx = i % raw.rows();
        let score = router.score("admissions", raw.row(idx)).unwrap();
        assert_eq!(score.to_bits(), expected[idx].to_bits(), "row {idx}");
    }

    // --- A refit worker tails backend 0's journal; its gauges register on
    //     that backend's registry and so ride the merged scrape too; a
    //     candidate would ship through the router. --------------------------
    let server0 = cluster.server(0).expect("backend 0 is alive");
    let worker = RefitWorker::spawn(
        RefitLoop::new(
            RefitConfig::new(dirs[0].clone(), "admissions"),
            &bundle_to_string(&bundle),
            Arc::clone(&router),
        )
        .expect("refit loop builds"),
    );
    let journal_tip = {
        let stats = server0
            .journal()
            .expect("backend 0 journals")
            .shared_stats();
        Arc::new(move || stats.last_seq()) as Arc<dyn Fn() -> u64 + Send + Sync>
    };
    worker
        .stats()
        .register_metrics(server0.metrics(), Some(journal_tip));

    // --- One merged scrape across every tier. ------------------------------
    let text = router.metrics();
    // Router-local series render first.
    assert!(text.contains("pfr_router_routed_total "), "{text}");
    assert!(
        text.contains("pfr_router_backend_latency_ns_count{backend="),
        "per-backend latency histograms missing:\n{text}"
    );
    // All three backends answered the scatter.
    assert!(text.contains("pfr_router_backends_scraped 3"), "{text}");
    // Serve-tier series merged bucket-wise: cluster-wide quantiles exist.
    assert!(
        text.contains("pfr_serve_latency_ns_p999{verb=\"score\"}"),
        "merged serve latency quantiles missing:\n{text}"
    );
    // Journal-tier series rode the same scrape.
    assert!(text.contains("pfr_journal_appends_total "), "{text}");
    assert!(text.contains("pfr_journal_fsync_ns_count "), "{text}");
    // Refit-tier gauges rode it from backend 0, cursor lag included.
    assert!(text.contains("pfr_refit_cursor_seq "), "{text}");
    assert!(text.contains("pfr_refit_cursor_lag "), "{text}");

    let merged = Scrape::parse(&text);
    // 20 scores reached the serve tier (hot rows were distinct) and the
    // count survived the scatter-merge arithmetic.
    let scored = merged
        .scalar("pfr_serve_requests_total{verb=\"score\"}")
        .expect("merged score-request counter");
    assert!(scored >= 20.0, "merged score requests = {scored}");
    // Every accepted request was journaled before it executed: two PUSH
    // placements plus the scores.
    let appends = merged
        .scalar("pfr_journal_appends_total")
        .expect("merged journal append counter");
    assert!(appends >= 22.0, "merged journal appends = {appends}");
    let verb_latency = merged
        .histogram("pfr_serve_latency_ns{verb=\"score\"}")
        .expect("merged score latency histogram");
    assert!(
        verb_latency.count >= 20,
        "histogram count = {}",
        verb_latency.count
    );
    assert!(verb_latency.p999() > 0);

    // --- One traced request = one cross-tier span tree. --------------------
    // A row no prior request scored, so the backend's cache misses and the
    // span shows the full execute path.
    let fresh = raw.row(raw.rows() - 1).to_vec();
    let (score, id) = router.score_traced("admissions", &fresh).unwrap();
    assert_eq!(score.to_bits(), expected[raw.rows() - 1].to_bits());
    let tree = router.trace(id).expect("trace recorded");
    let header = format!("span router/SCORE trace={id:016x}");
    assert!(
        tree.lines().any(|l| l.starts_with(&header)),
        "router span missing at indent 0:\n{tree}"
    );
    // The backend's span is nested one level below, under the SAME id —
    // the token demonstrably travelled on the wire.
    assert!(
        tree.contains(&format!("  span serve/SCORE trace={id:016x}")),
        "nested backend span missing:\n{tree}"
    );
    // Router-side routing events.
    assert!(tree.contains("@ submit"), "{tree}");
    assert!(tree.contains("@ backend-reply"), "{tree}");
    // Backend-side stage events: durability, then the batch execute path.
    assert!(tree.contains("@ journal-append"), "{tree}");
    assert!(tree.contains("@ batch-scored"), "{tree}");

    // --- The same id resolves against the backend's own TRACE ring. --------
    let owner = cluster
        .addrs()
        .iter()
        .enumerate()
        .find_map(|(i, _)| {
            let server = cluster.server(i)?;
            (!server.traces().find(id).is_empty()).then_some(server)
        })
        .expect("some backend recorded the span");
    let spans = owner.traces().find(id);
    assert_eq!(spans[0].name, "serve/SCORE");
    assert_eq!(spans[0].trace_id, id);

    worker.stop();
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// `STATS` and `METRICS` are two renderings of one registry: the line is
/// the exposition minus its `_bucket` series, nothing renamed, nothing
/// missing, nothing only one of them knows.
#[test]
fn stats_is_the_scalar_view_of_the_metrics_registry() {
    let (bundle, raw, _) = fixture();
    let text = bundle_to_string(&bundle);
    let dir = journal_dir(3);
    let server = Server::spawn(ServerConfig {
        journal: Some(JournalConfig::new(dir.clone())),
        ..ServerConfig::default()
    })
    .unwrap();
    // A co-located refit loop publishes once, on the server's registry. It
    // is never pumped, so its gauges cannot move during the comparison; its
    // router neither probes nor syncs, so no verb counter moves either.
    let router = Router::connect(
        &[server.addr()],
        RouterConfig {
            health_interval: None,
            sync_interval: None,
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let refit = RefitLoop::new(
        RefitConfig::new(dir.clone(), "admissions"),
        &text,
        Arc::new(router),
    )
    .expect("refit loop builds");
    refit.stats().register_metrics(server.metrics(), None);

    // --- A mixed session: install, miss, hit, transform, two errors. -------
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut roundtrip = |request: &str| -> String {
        writer.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response.trim_end().to_string()
    };
    let row = format_numbers(raw.row(0));
    for (request, prefix) in [
        (
            format!("PUSH admissions {}\n{text}", text.len()),
            "OK loaded",
        ),
        (format!("SCORE admissions {row}\n"), "OK "),
        (format!("SCORE admissions {row}\n"), "OK "),
        (format!("TRANSFORM admissions {row}\n"), "OK "),
        ("GIBBERISH\n".to_string(), "ERR"),
        ("SCORE ghost 1 2 3\n".to_string(), "ERR no model named"),
    ] {
        let response = roundtrip(&request);
        assert!(response.starts_with(prefix), "{request:?} -> {response}");
    }
    let stats = roundtrip("STATS\n");
    // Had `STATS` spilled onto a second line, this would read the spill.
    let metrics = roundtrip("METRICS\n");
    let exposition = unescape_multiline(metrics.strip_prefix("OK ").expect("METRICS answers OK"));
    let scrape = Scrape::parse(&exposition);
    let lines: HashMap<&str, &str> = exposition
        .lines()
        .filter(|line| !line.contains("_bucket{"))
        .map(|line| line.rsplit_once(' ').expect("`key value` lines"))
        .collect();

    // Answering the two requests moves the `stats` verb's own series and
    // the reactor's event-loop gauges; every other series must agree.
    let moves = |key: &str| key.contains("{verb=\"stats\"}") || key.starts_with("pfr_net_");
    let mut seen = HashSet::new();
    for token in stats
        .strip_prefix("OK ")
        .expect("STATS answers OK")
        .split(' ')
    {
        let (key, value) = token
            .rsplit_once('=')
            .unwrap_or_else(|| panic!("malformed token '{token}'"));
        let number: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("'{token}' carries no number"));
        assert!(!key.contains("_bucket"), "bucket series on the line: {key}");
        assert!(seen.insert(key), "'{key}' appears twice");
        let line = lines
            .get(key)
            .unwrap_or_else(|| panic!("'{key}' is on STATS but not in METRICS"));
        if moves(key) {
            continue;
        }
        assert_eq!(*line, value, "{key}");
        match scrape.scalar(key) {
            Some(parsed) => assert_eq!(parsed, number, "{key}"),
            // Not a scalar to a scraper: then a line derived from a
            // histogram the scraper rebuilt.
            None => {
                let (name, labels) = key.split_at(key.find('{').unwrap_or(key.len()));
                let base = ["_sum", "_count", "_p50", "_p99", "_p999"]
                    .iter()
                    .find_map(|suffix| name.strip_suffix(suffix))
                    .unwrap_or_else(|| panic!("'{key}' is neither scalar nor derived"));
                assert!(
                    scrape.histogram(&format!("{base}{labels}")).is_some(),
                    "no histogram behind '{key}'"
                );
            }
        }
    }
    assert_eq!(seen.len(), lines.len(), "METRICS has series STATS lacks");

    // What the old line knew and the scrape did not, what the scrape knew
    // and the old line did not, and both co-located subsystems.
    let field = |key: &str| -> f64 {
        assert!(seen.contains(key), "no {key} on '{stats}'");
        scrape.scalar(key).expect("checked equal above")
    };
    assert_eq!(field("pfr_serve_cache_entries"), 1.0);
    assert_eq!(field("pfr_serve_recovered_skipped"), 0.0);
    assert_eq!(field("pfr_serve_cache_hits_total"), 1.0);
    assert_eq!(field("pfr_serve_cache_misses_total"), 1.0);
    assert_eq!(field("pfr_serve_errors_total{kind=\"parse\"}"), 1.0);
    assert_eq!(field("pfr_serve_errors_total{kind=\"exec\"}"), 1.0);
    assert_eq!(field("pfr_serve_batches_total"), 1.0);
    assert_eq!(field("pfr_serve_batched_requests_total"), 1.0);
    assert_eq!(field("pfr_serve_inflight"), 1.0);
    assert!(field("pfr_journal_seq") >= 4.0);
    assert_eq!(field("pfr_refit_cursor_seq"), 0.0);
    assert!(seen.contains("pfr_serve_latency_ns_p99{verb=\"transform\"}"));
    assert!(seen.contains("pfr_journal_fsync_ns_count"));
    assert!(seen.contains("pfr_serve_batch_wait_ns_p99"));

    server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}
