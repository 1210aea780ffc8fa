//! Crash-recovery test for the journaled server: train offline, `PUSH` the
//! bundle into a journaling server over TCP, score real traffic, then kill
//! the server **without any graceful shutdown** (`mem::forget` — no `Drop`,
//! no final fsync beyond what each request already got) and start a fresh
//! server on the same journal directory. `recover_from_journal` must
//! rebuild the registry from the inlined bundle frames and re-warm the
//! score cache so the replayed vectors are served as immediate cache hits,
//! bitwise identical to both the pre-crash responses and offline
//! `predict_proba`.
//!
//! A journal written before `PUSH` was the only install verb may hold
//! kind-3 install frames; those must still replay, as `PUSH` frames.

use pfr::journal::frame::{HEADER_LEN, SEGMENT_MAGIC};
use pfr::journal::{JournalConfig, JournalCursor, Record};
use pfr::linalg::Matrix;
use pfr::pipeline::{FairPipeline, FairPipelineConfig};
use pfr::serve::{Frontend, Server, ServerConfig};
use pfr_data::{synthetic, Dataset};
use pfr_graph::{fairness, SparseGraph};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;

fn fairness_graph(ds: &Dataset) -> SparseGraph {
    let scores: Vec<f64> = ds
        .side_information()
        .iter()
        .map(|s| s.unwrap_or(0.0))
        .collect();
    fairness::between_group_quantile_graph(ds.groups(), &scores, 5).unwrap()
}

fn roundtrip(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> String {
    writeln!(writer, "{line}").unwrap();
    writer.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response.trim_end().to_string()
}

fn connect(addr: std::net::SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    (BufReader::new(stream.try_clone().unwrap()), stream)
}

/// The bundle text of a pipeline fitted on synthetic admissions data, its
/// offline predictions, and the raw vectors a client would send.
fn trained() -> (String, Vec<f64>, Matrix) {
    let dataset = synthetic::generate_default(79).unwrap();
    let fitted = FairPipeline::new(FairPipelineConfig {
        gamma: 0.9,
        ..FairPipelineConfig::default()
    })
    .fit(&dataset, &fairness_graph(&dataset))
    .unwrap();
    let expected = fitted.predict_proba(&dataset).unwrap();
    let (raw, _) = dataset.features_with_protected().unwrap();
    let bundle_text = pfr::core::persistence::bundle_to_string(&fitted.into_bundle().unwrap());
    (bundle_text, expected, raw)
}

/// `PUSH <name> <nbytes>` plus the bundle text; returns the response.
fn push(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    name: &str,
    text: &str,
) -> String {
    write!(writer, "PUSH {name} {}\n{text}", text.len()).unwrap();
    writer.flush().unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response.trim_end().to_string()
}

fn scratch_journal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pfr_crash_recovery_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn hard_crash_then_journal_replay_restores_state_reactor() {
    let frontend = Frontend::reactor(1);
    // --- Offline ground truth. ---------------------------------------------
    let (bundle_text, expected, raw) = trained();

    let journal_dir = scratch_journal_dir(&format!("{frontend:?}"));
    let journal_config = JournalConfig::new(journal_dir.clone());
    let server_config = || ServerConfig {
        frontend,
        journal: Some(journal_config.clone()),
        ..ServerConfig::default()
    };

    // --- Phase A: a journaling server takes real traffic. -------------------
    // The model arrives over the wire (`PUSH`): in-process registry loads
    // bypass the handlers and are deliberately not journaled.
    let server_a = Server::spawn(server_config()).unwrap();
    let score_lines: Vec<String> = [0, 1, 2, 3, 0, 1, 2, 3] // repeats exercise the cache
        .iter()
        .map(|&i| {
            format!(
                "SCORE admissions {}",
                pfr::serve::protocol::format_numbers(raw.row(i))
            )
        })
        .collect();
    let phase_a: Vec<String> = {
        let (mut reader, mut writer) = connect(server_a.addr());
        let pushed = push(&mut reader, &mut writer, "admissions", &bundle_text);
        assert!(pushed.starts_with("OK loaded admissions@"), "{pushed}");
        let transform = format!(
            "TRANSFORM admissions {}",
            pfr::serve::protocol::format_numbers(raw.row(0))
        );
        assert!(roundtrip(&mut reader, &mut writer, &transform).starts_with("OK "));
        score_lines
            .iter()
            .map(|line| roundtrip(&mut reader, &mut writer, line))
            .collect()
    };
    for response in &phase_a {
        assert!(response.starts_with("OK "), "{response}");
    }

    // --- Hard crash: no shutdown, no Drop, no final flush. ------------------
    // Every response above was only sent after its frame was fsynced
    // (`FsyncPolicy::PerRecord`, the default), so the journal on disk must
    // already contain everything the clients saw acknowledged.
    std::mem::forget(server_a);

    // --- Phase B: a fresh server on the same journal directory. -------------
    let server_b = Server::spawn(server_config()).unwrap();
    let report = server_b.recover_from_journal().unwrap();
    assert_eq!(report.frames, 10, "1 push + 1 transform + 8 scores");
    assert_eq!(report.installs, 1);
    assert_eq!(report.transforms, 1);
    assert_eq!(report.scores, 8);
    assert_eq!(report.warmed, 4, "4 distinct vectors were scored");
    assert_eq!(report.skipped, 0);
    assert_eq!(report.last_seq, 10);

    // The registry holds the pushed model again, scoring exactly as before.
    let model = server_b
        .registry()
        .get("admissions")
        .expect("replay reinstalls the pushed model");
    assert_eq!(model.num_features(), raw.cols());

    // Replayed vectors are served from the warmed cache — zero misses — and
    // every response is byte-identical to the pre-crash ones, which were
    // themselves bitwise equal to offline predictions.
    let phase_b: Vec<String> = {
        let (mut reader, mut writer) = connect(server_b.addr());
        score_lines
            .iter()
            .map(|line| roundtrip(&mut reader, &mut writer, line))
            .collect()
    };
    assert_eq!(phase_a, phase_b, "recovery must not change a single byte");
    for (i, response) in phase_b.iter().enumerate() {
        let score: f64 = response.split_whitespace().nth(1).unwrap().parse().unwrap();
        let want = expected[[0, 1, 2, 3, 0, 1, 2, 3][i]];
        assert_eq!(score.to_bits(), want.to_bits(), "request {i}");
    }
    assert_eq!(
        server_b.stats().cache_misses(),
        0,
        "every replayed vector must be an immediate hit"
    );
    assert_eq!(server_b.stats().cache_hits(), score_lines.len() as u64);

    // STATS exposes the journal counters, and the re-scored traffic was
    // itself journaled: the sequence advanced past the replayed history.
    // The replay accounting is on the same line, equal to the report.
    let (mut reader, mut writer) = connect(server_b.addr());
    let stats_line = roundtrip(&mut reader, &mut writer, "STATS");
    let field = |key: &str| -> u64 {
        stats_line
            .split_whitespace()
            .find_map(|pair| pair.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("no {key} in '{stats_line}'"))
            .parse()
            .unwrap()
    };
    assert_eq!(field("pfr_journal_seq"), 18, "10 replayed + 8 re-scored");
    assert_eq!(field("pfr_serve_recovered_frames"), report.frames);
    assert_eq!(field("pfr_serve_recovered_installs"), 1);
    assert_eq!(field("pfr_serve_recovered_scores"), 8);
    assert_eq!(field("pfr_serve_recovered_warmed"), 4);
    assert_eq!(field("pfr_serve_recovered_skipped"), 0);
    assert_eq!(field("pfr_serve_recovered_last_seq"), report.last_seq);
    assert_eq!(
        field("pfr_serve_recovered_truncated_bytes"),
        report.truncated_bytes
    );

    server_b.shutdown();
    let _ = std::fs::remove_dir_all(&journal_dir);
}

#[test]
fn a_kind_3_install_frame_still_replays_as_a_push() {
    let (bundle_text, expected, raw) = trained();
    let journal_dir = scratch_journal_dir("kind3");
    let server_config = || ServerConfig {
        journal: Some(JournalConfig::new(journal_dir.clone())),
        ..ServerConfig::default()
    };
    let score_line = format!(
        "SCORE admissions {}",
        pfr::serve::protocol::format_numbers(raw.row(0))
    );
    let server_a = Server::spawn(server_config()).unwrap();
    let scored = {
        let (mut reader, mut writer) = connect(server_a.addr());
        let pushed = push(&mut reader, &mut writer, "admissions", &bundle_text);
        assert!(pushed.starts_with("OK loaded admissions@"), "{pushed}");
        roundtrip(&mut reader, &mut writer, &score_line)
    };
    server_a.shutdown();

    // Turn the first frame, the PUSH, into a kind-3 frame: same body, kind
    // byte 3, checksum recomputed over the new header.
    let segment = journal_dir.join(format!("seg-{:020}.wal", 1));
    let mut bytes = std::fs::read(&segment).unwrap();
    let frame = SEGMENT_MAGIC.len();
    let body_len = u32::from_le_bytes(bytes[frame..frame + 4].try_into().unwrap()) as usize;
    assert_eq!(bytes[frame + 12], 4, "the first frame is the PUSH");
    bytes[frame + 12] = 3;
    let end = frame + HEADER_LEN + body_len;
    let checksum = pfr::core::persistence::fnv1a(&bytes[frame..end]);
    bytes[end..end + 8].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(&segment, &bytes).unwrap();

    // A tailing reader sees an install of the same text.
    let mut cursor = JournalCursor::open(&journal_dir, "kind3", 1).unwrap();
    match cursor.next().unwrap() {
        Some((
            1,
            Record::Push {
                model,
                bundle_text: text,
            },
        )) => {
            assert_eq!(model, "admissions");
            assert_eq!(text, bundle_text);
        }
        other => panic!("frame 1 reads as {other:?}"),
    }
    cursor.deregister().unwrap();

    // Recovery reinstalls it and re-warms the score it served.
    let server_b = Server::spawn(server_config()).unwrap();
    let report = server_b.recover_from_journal().unwrap();
    assert_eq!(report.frames, 2);
    assert_eq!(report.installs, 1);
    assert_eq!(report.warmed, 1);
    assert_eq!(report.skipped, 0);
    let (mut reader, mut writer) = connect(server_b.addr());
    assert_eq!(roundtrip(&mut reader, &mut writer, &score_line), scored);
    let score: f64 = scored.split_whitespace().nth(1).unwrap().parse().unwrap();
    assert_eq!(score.to_bits(), expected[0].to_bits());
    assert_eq!(server_b.stats().cache_hits(), 1);
    server_b.shutdown();
    let _ = std::fs::remove_dir_all(&journal_dir);
}

/// An install answered `OK` is journaled once; an install answered `ERR`
/// journals nothing — also when the bundle parses but the server refuses
/// to serve it — so recovery skips nothing.
#[test]
fn a_refused_push_journals_nothing() {
    let (bundle_text, _, _) = trained();
    let bundle = pfr::core::persistence::bundle_from_string(&bundle_text).unwrap();
    let journal_dir = scratch_journal_dir("refused");
    let server_config = || ServerConfig {
        journal: Some(JournalConfig::new(journal_dir.clone())),
        ..ServerConfig::default()
    };
    let mut zero_std = bundle.clone();
    let stds = &mut zero_std.standardizer.as_mut().unwrap().stds;
    stds.iter_mut().for_each(|s| *s = 0.0);
    let mut garbage = bundle.clone();
    garbage.classifier.as_mut().unwrap().text = "garbage\n".to_string();
    let mut too_wide = bundle.clone();
    let width = bundle.model.dim() + 1;
    too_wide.classifier.as_mut().unwrap().text = format!(
        "pfr-logreg-v1 intercept=0 features={width}\nweights {}\n",
        vec!["1"; width].join(" ")
    );
    let server = Server::spawn(server_config()).unwrap();
    let (mut reader, mut writer) = connect(server.addr());
    for (name, bad) in [("zero", zero_std), ("garbage", garbage), ("wide", too_wide)] {
        let text = pfr::core::persistence::bundle_to_string(&bad);
        let response = push(&mut reader, &mut writer, name, &text);
        assert!(
            response.starts_with("ERR model error"),
            "{name}: {response}"
        );
    }
    let response = push(&mut reader, &mut writer, "admissions", &bundle_text);
    assert!(response.starts_with("OK loaded admissions@"), "{response}");
    server.shutdown();

    let mut installs = Vec::new();
    pfr::journal::replay_dir(&journal_dir, |_, record| {
        installs.push(record.model().to_string())
    })
    .unwrap();
    assert_eq!(installs, ["admissions"]);
    let recovered = Server::spawn(server_config()).unwrap();
    let report = recovered.recover_from_journal().unwrap();
    assert_eq!((report.installs, report.skipped), (1, 0));
    recovered.shutdown();
    let _ = std::fs::remove_dir_all(&journal_dir);
}
