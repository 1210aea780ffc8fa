//! End-to-end serving test: train offline, serialize a bundle, `PUSH` it
//! into a live TCP server, fire concurrent `SCORE` requests from several client
//! threads, and assert every response is *bitwise* identical to offline
//! `FittedFairPipeline::predict_proba` — plus that the score cache actually
//! absorbed repeated requests.
//!
//! The whole scenario runs at two reactor-pool widths
//! ([`Frontend::reactor(1)`](Frontend::reactor) and
//! [`Frontend::reactor(4)`](Frontend::reactor)): the oracle is offline
//! inference either way, so the pool width cannot change a bit.

use pfr::pipeline::{FairPipeline, FairPipelineConfig};
use pfr::serve::{BatcherConfig, Frontend, Server, ServerConfig};
use pfr_data::{split, synthetic, Dataset};
use pfr_graph::{fairness, SparseGraph};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn fairness_graph(ds: &Dataset) -> SparseGraph {
    let scores: Vec<f64> = ds
        .side_information()
        .iter()
        .map(|s| s.unwrap_or(0.0))
        .collect();
    fairness::between_group_quantile_graph(ds.groups(), &scores, 5).unwrap()
}

/// One protocol exchange on an existing connection.
fn roundtrip(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> String {
    writeln!(writer, "{line}").unwrap();
    writer.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response.trim_end().to_string()
}

#[test]
fn concurrent_tcp_scores_match_offline_predictions_bitwise_reactor() {
    concurrent_tcp_scores_match_offline_predictions_bitwise(Frontend::reactor(1));
}

#[test]
fn concurrent_tcp_scores_match_offline_predictions_bitwise_reactor_pool() {
    concurrent_tcp_scores_match_offline_predictions_bitwise(Frontend::reactor(4));
}

fn concurrent_tcp_scores_match_offline_predictions_bitwise(frontend: Frontend) {
    // --- Train offline on synthetic admissions data. -----------------------
    let dataset = synthetic::generate_default(77).unwrap();
    let split = split::train_test_split(&dataset, 0.3, 77).unwrap();
    let train = dataset.subset(&split.train).unwrap();
    let test = dataset.subset(&split.test).unwrap();

    let fitted = FairPipeline::new(FairPipelineConfig {
        gamma: 0.9,
        ..FairPipelineConfig::default()
    })
    .fit(&train, &fairness_graph(&train))
    .unwrap();

    // Offline ground truth, and the raw vectors a decision service would
    // receive (the learner features: regular attributes + protected).
    let expected = fitted.predict_proba(&test).unwrap();
    let (raw, _) = test.features_with_protected().unwrap();

    // --- Serialize the deployable bundle. ----------------------------------
    let text = pfr::core::persistence::bundle_to_string(&fitted.into_bundle().unwrap());

    // --- Serve it. ----------------------------------------------------------
    let server = Server::spawn(ServerConfig {
        frontend,
        workers: 4,
        batcher: BatcherConfig { max_batch: 16 },
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        write!(writer, "PUSH admissions {}\n{text}", text.len()).unwrap();
        writer.flush().unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert!(response.starts_with("OK loaded admissions@"), "{response}");
    }

    // --- 100 concurrent SCOREs from 4 client threads. -----------------------
    // All threads cover the same 25 rows but start at different offsets, so
    // every row is requested four times at *different* moments — later
    // requests must be absorbed by the cache rather than recomputed.
    let rows: Vec<Vec<f64>> = (0..25).map(|i| raw.row(i % raw.rows()).to_vec()).collect();
    let rows = Arc::new(rows);
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let rows = Arc::clone(&rows);
            std::thread::spawn(move || -> Vec<(usize, f64)> {
                let stream = TcpStream::connect(addr).unwrap();
                stream.set_nodelay(true).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                (0..rows.len())
                    .map(|i| {
                        let idx = (i + t * 7) % rows.len();
                        let line = format!(
                            "SCORE admissions {}",
                            pfr::serve::protocol::format_numbers(&rows[idx])
                        );
                        let response = roundtrip(&mut reader, &mut writer, &line);
                        let mut parts = response.split_whitespace();
                        assert_eq!(parts.next(), Some("OK"), "{response}");
                        (idx, parts.next().unwrap().parse::<f64>().unwrap())
                    })
                    .collect()
            })
        })
        .collect();

    let per_thread: Vec<Vec<(usize, f64)>> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();
    for scores in &per_thread {
        assert_eq!(scores.len(), 25);
        for (idx, score) in scores {
            let want = expected[idx % raw.rows()];
            assert_eq!(
                score.to_bits(),
                want.to_bits(),
                "served score {score} differs from offline prediction {want} for row {idx}"
            );
        }
    }

    // --- STATS must report the traffic and at least one cache hit. ----------
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let stats_line = roundtrip(&mut reader, &mut writer, "STATS");
    assert!(stats_line.starts_with("OK "), "{stats_line}");
    let field = |key: &str| -> u64 {
        stats_line
            .split_whitespace()
            .find_map(|pair| pair.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("no {key} in '{stats_line}'"))
            .parse()
            .unwrap()
    };
    assert_eq!(field("pfr_serve_requests_total{verb=\"score\"}"), 100);
    assert_eq!(field("pfr_serve_verb_errors_total{verb=\"score\"}"), 0);
    let hits = field("pfr_serve_cache_hits_total");
    assert!(
        hits >= 1,
        "expected repeated requests to hit the cache: {stats_line}"
    );
    assert!(field("pfr_serve_cache_misses_total") <= 25 * 4 - hits);
    assert!(field("pfr_serve_batches_total") >= 1);
    assert_eq!(roundtrip(&mut reader, &mut writer, "QUIT"), "OK bye");

    server.shutdown();
}

#[test]
fn server_survives_malformed_traffic_while_serving_reactor() {
    server_survives_malformed_traffic_while_serving(Frontend::reactor(1));
}

#[test]
fn server_survives_malformed_traffic_while_serving_reactor_pool() {
    server_survives_malformed_traffic_while_serving(Frontend::reactor(4));
}

fn server_survives_malformed_traffic_while_serving(frontend: Frontend) {
    let dataset = synthetic::generate_default(78).unwrap();
    let fitted = FairPipeline::default()
        .fit(&dataset, &fairness_graph(&dataset))
        .unwrap();
    let expected = fitted.predict_proba(&dataset).unwrap();
    let (raw, _) = dataset.features_with_protected().unwrap();
    let bundle = fitted.into_bundle().unwrap();
    let text = pfr::core::persistence::bundle_to_string(&bundle);

    let server = Server::spawn(ServerConfig {
        frontend,
        ..ServerConfig::default()
    })
    .unwrap();
    server.registry().load_from_str("m", &text).unwrap();

    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    // Interleave garbage with a valid request; the valid one still works.
    assert!(roundtrip(&mut reader, &mut writer, "SCORE m not numbers").starts_with("ERR"));
    // `LOAD` is no verb: it reads no file, so it cannot quote the first
    // line of one (a secret, here) or tell a client whether a path exists.
    let secret = std::env::temp_dir().join(format!("pfr_serve_secret_{}", server.addr().port()));
    std::fs::write(&secret, "api_key=hunter2-very-secret\n").unwrap();
    let load = roundtrip(
        &mut reader,
        &mut writer,
        &format!("LOAD m {}", secret.display()),
    );
    assert_eq!(load, "ERR protocol error: unknown verb 'LOAD'");
    assert_eq!(
        roundtrip(&mut reader, &mut writer, "LOAD m /no/such/file"),
        load
    );
    let _ = std::fs::remove_file(&secret);
    assert!(roundtrip(&mut reader, &mut writer, "SCORE nobody 1 2").starts_with("ERR"));
    let line = format!(
        "SCORE m {}",
        pfr::serve::protocol::format_numbers(raw.row(0))
    );
    let response = roundtrip(&mut reader, &mut writer, &line);
    let score: f64 = response.split_whitespace().nth(1).unwrap().parse().unwrap();
    assert_eq!(score.to_bits(), expected[0].to_bits());
    server.shutdown();
}
