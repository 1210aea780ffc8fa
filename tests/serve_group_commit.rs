//! Deferred-ack journaling, end to end: a journaling server enqueues each
//! `SCORE`/`TRANSFORM` to the journal, executes it at once, and holds the
//! *response* — not the reactor — until the fsync covering its frame has
//! returned. These tests drive that over real sockets through the journal's
//! doc-hidden [`SyncHook`], which can hold, fail and count the writer
//! thread's `sync_data`:
//!
//! * no response byte is written before its fsync, and one fsync covers
//!   every request admitted while the previous one was in flight;
//! * a crash between the write and the fsync loses no acknowledged request;
//! * a failed fsync answers `ERR journal …` for the whole group, caches
//!   none of it, and leaves the journal failed;
//! * parked calls keep per-connection order and the in-flight gauge exact;
//! * a slow-trace diagnostic never stalls the event loop on the disk.
//!
//! Every hold is a guard (`hold_scoped`): a `wait_until` that times out
//! unwinds through `Server::drop`, which joins the journal's writer, and a
//! writer parked in a hold nobody will release would hang the test that was
//! trying to fail.

use pfr::journal::{replay_dir, JournalConfig, Record, SyncHook};
use pfr::linalg::Matrix;
use pfr::pipeline::{FairPipeline, FairPipelineConfig};
use pfr::serve::protocol::format_numbers;
use pfr::serve::{Frontend, ServableModel, Server, ServerConfig};
use pfr_data::synthetic;
use pfr_graph::fairness;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const MODEL: &str = "admissions";

/// One offline fit shared by every test: the bundle text that goes over the
/// wire and the raw rows that are scored.
fn fixture() -> &'static (String, Matrix) {
    static FIXTURE: OnceLock<(String, Matrix)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = synthetic::generate_default(79).unwrap();
        let scores: Vec<f64> = dataset
            .side_information()
            .iter()
            .map(|s| s.unwrap_or(0.0))
            .collect();
        let graph = fairness::between_group_quantile_graph(dataset.groups(), &scores, 5).unwrap();
        let fitted = FairPipeline::new(FairPipelineConfig::default())
            .fit(&dataset, &graph)
            .unwrap();
        let (raw, _) = dataset.features_with_protected().unwrap();
        let text = pfr::core::persistence::bundle_to_string(&fitted.into_bundle().unwrap());
        (text, raw)
    })
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pfr_group_commit_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A journaling server (per-record fsync, the default) whose fsyncs go
/// through `hook`, with the model installed over the wire so that its
/// install frame is in the journal.
fn journaling_server(dir: &PathBuf, hook: &SyncHook, config: ServerConfig) -> Server {
    let mut journal = JournalConfig::new(dir);
    journal.sync_hook = Some(hook.clone());
    let server = Server::spawn(ServerConfig {
        journal: Some(journal),
        ..config
    })
    .unwrap();
    let (text, _) = fixture();
    let mut client = Client::connect(server.addr());
    client.send(&format!("PUSH {MODEL} {}\n{text}", text.len()));
    let pushed = client.line();
    assert!(pushed.starts_with("OK loaded"), "{pushed}");
    server
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).unwrap();
        writer.set_nodelay(true).unwrap();
        // A server that stalls fails the test instead of hanging it.
        writer
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        Client {
            reader: BufReader::new(writer.try_clone().unwrap()),
            writer,
        }
    }

    fn send(&mut self, bytes: &str) {
        self.writer.write_all(bytes.as_bytes()).unwrap();
    }

    fn line(&mut self) -> String {
        let mut response = String::new();
        self.reader.read_line(&mut response).unwrap();
        response.trim_end().to_string()
    }

    /// Reads for 200 ms and asserts that not one byte arrives.
    fn assert_silent(&mut self) {
        let stream = self.reader.get_ref();
        stream
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut byte = [0u8; 1];
        match self.reader.read(&mut byte) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            other => panic!("a response byte left before its fsync: {other:?}"),
        }
        let stream = self.reader.get_ref();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
    }
}

fn score_line(row: usize) -> String {
    format!("SCORE {MODEL} {}\n", format_numbers(fixture().1.row(row)))
}

/// The exact response line offline inference predicts for `row`.
fn expected_score(model: &ServableModel, row: usize) -> String {
    let score = model.score_one(fixture().1.row(row)).unwrap();
    format!("OK {score} {}", u8::from(score >= model.threshold()))
}

/// Polls `ready` until it holds; a state the server must reach, not a sleep.
fn wait_until(what: &str, ready: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Rows 0..4 are warmed before the hold, rows 4..8 are not, and the burst
/// alternates them — each sent twice — so cache hits (answered at once,
/// waiting only for the acknowledgement) interleave with misses (scored by
/// the batcher while the fsync is held).
const BURST: [usize; 16] = [0, 4, 1, 5, 2, 6, 3, 7, 0, 4, 1, 5, 2, 6, 3, 7];

/// (a) and (e): with the fsync held, `connections` clients each pipeline the
/// burst. Nothing comes back until the release; then everything does, in
/// request order, bitwise equal to offline inference, behind at most two
/// fsyncs.
fn never_early_and_grouped(tag: &str, frontend: Frontend, connections: usize) {
    let dir = scratch_dir(tag);
    let hook = SyncHook::default();
    let server = journaling_server(
        &dir,
        &hook,
        ServerConfig {
            frontend,
            ..ServerConfig::default()
        },
    );
    let model = server.registry().get(MODEL).unwrap();
    let mut clients: Vec<Client> = (0..connections)
        .map(|_| Client::connect(server.addr()))
        .collect();
    for row in 0..4 {
        clients[0].send(&score_line(row));
        assert_eq!(clients[0].line(), expected_score(&model, row));
    }
    let journal = server.journal().unwrap().stats();
    let (appends, fsyncs) = (journal.appends(), journal.fsyncs());
    let (hits, misses) = (server.stats().cache_hits(), server.stats().cache_misses());
    let scored = server.stats().batched_requests();

    let held = hook.hold_scoped(0);
    let burst: String = BURST.iter().map(|&row| score_line(row)).collect();
    for client in &mut clients {
        client.send(&burst);
    }
    let parked = (BURST.len() * connections) as u64;
    wait_until("every request to be admitted", || {
        server.stats().queue_depth() == parked
    });
    hook.wait_parked();
    // Execution overlaps the held fsync: every miss of the burst is scored
    // while not one request has been acknowledged.
    wait_until("the batcher to score every miss under the hold", || {
        server.stats().batched_requests() - scored == parked / 2
    });
    assert!(server.stats().batches() >= 1);
    assert_eq!(server.stats().cache_hits() - hits, parked / 2);
    assert_eq!(server.stats().cache_misses() - misses, parked / 2);
    assert_eq!(
        journal.appends(),
        appends,
        "acknowledged under a held fsync"
    );
    for client in &mut clients {
        client.assert_silent();
    }

    drop(held);
    for client in &mut clients {
        for &row in &BURST {
            assert_eq!(client.line(), expected_score(&model, row), "row {row}");
        }
    }
    assert_eq!(journal.appends() - appends, parked);
    assert!(
        journal.fsyncs() - fsyncs <= 2,
        "{parked} appends in flight took {} fsyncs",
        journal.fsyncs() - fsyncs
    );
    wait_until("the gauge to drain", || server.stats().queue_depth() == 0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_response_leaves_before_its_fsync_and_one_fsync_covers_the_burst() {
    never_early_and_grouped("held", Frontend::reactor(1), 1);
}

#[test]
fn acknowledgements_reach_the_reactor_that_owns_the_connection() {
    never_early_and_grouped("pool", Frontend::reactor(4), 4);
}

/// (b) The process dies with a group written but not fsynced. Nothing of
/// that group was answered, and everything answered before it replays.
#[test]
fn a_crash_between_write_and_fsync_loses_no_acknowledged_request() {
    let dir = scratch_dir("crash");
    let hook = SyncHook::default();
    let server = journaling_server(&dir, &hook, ServerConfig::default());
    let mut client = Client::connect(server.addr());
    let acknowledged: Vec<String> = (0..4)
        .map(|row| {
            client.send(&score_line(row));
            client.line()
        })
        .collect();

    // Never released by the crashed server; the guard lets its writer go
    // when the test ends, passing or not.
    let _held = hook.hold_scoped(0);
    let group: String = (4..12).map(score_line).collect();
    client.send(&group);
    wait_until("the held group to be admitted", || {
        server.stats().queue_depth() == 8
    });
    hook.wait_parked();
    client.assert_silent();
    // Hard crash: no shutdown, no Drop, the writer still inside its fsync.
    std::mem::forget(server);

    let recovered = Server::spawn(ServerConfig {
        journal: Some(JournalConfig::new(&dir)),
        ..ServerConfig::default()
    })
    .unwrap();
    let report = recovered.recover_from_journal().unwrap();
    // The install and the four acknowledged scores are there; frames of the
    // held group may or may not have reached the file, and either is right.
    assert!((5..=13).contains(&report.frames), "{report:?}");
    assert_eq!(report.installs, 1);
    assert_eq!(report.skipped, 0);
    assert_eq!(report.truncated_bytes, 0);
    let mut client = Client::connect(recovered.addr());
    for (row, before) in acknowledged.iter().enumerate() {
        client.send(&score_line(row));
        assert_eq!(&client.line(), before, "row {row}");
    }
    assert_eq!(
        recovered.stats().cache_misses(),
        0,
        "every acknowledged request replays as a cache hit"
    );
    recovered.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// (c) The fsync comes back with EIO: the whole group is refused, none of
/// it is remembered, and the journal stays failed.
#[test]
fn a_failed_fsync_fails_the_group_and_caches_none_of_it() {
    let dir = scratch_dir("eio");
    let hook = SyncHook::default();
    let server = journaling_server(&dir, &hook, ServerConfig::default());
    let mut client = Client::connect(server.addr());

    let held = hook.hold_scoped(0);
    let group: String = [0, 1, 2, 0, 1, 2]
        .iter()
        .map(|&row| score_line(row))
        .collect();
    client.send(&group);
    wait_until("the group to be admitted", || {
        server.stats().queue_depth() == 6
    });
    hook.wait_parked();
    // All six were scored while the fsync was held; none may be served.
    wait_until("the batcher to score under the hold", || {
        server.stats().batches() >= 1
    });
    hook.fail_with(5);
    drop(held);
    for _ in 0..6 {
        let response = client.line();
        assert!(response.starts_with("ERR journal"), "{response}");
        assert!(response.contains("os error 5"), "{response}");
    }

    // A repeat cannot hit: nothing of the failed group was cached. It
    // cannot succeed either — the failure is sticky until a reopen.
    client.send(&score_line(0));
    let repeat = client.line();
    assert!(repeat.starts_with("ERR journal"), "{repeat}");
    assert!(repeat.contains("os error 5"), "{repeat}");
    assert_eq!(server.stats().cache_hits(), 0);
    client.send("STATS\n");
    let stats = client.line();
    assert!(stats.contains(" pfr_serve_cache_entries=0 "), "{stats}");
    assert_eq!(server.stats().score.errors(), 7);
    assert!(server.journal().unwrap().stats().failed());
    let scrape = server.metrics().render();
    assert!(scrape.contains("pfr_journal_failed 1\n"), "{scrape}");
    wait_until("the gauge to drain", || server.stats().queue_depth() == 0);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// (d) A parked call holds its place in the response order, `TRANSFORM`
/// parks like `SCORE`, and a connection that dies with calls parked gives
/// the in-flight gauge back.
#[test]
fn parked_calls_keep_their_order_and_their_accounting() {
    let dir = scratch_dir("order");
    let hook = SyncHook::default();
    let server = journaling_server(&dir, &hook, ServerConfig::default());
    let model = server.registry().get(MODEL).unwrap();
    let (_, rows) = fixture();
    let mut client = Client::connect(server.addr());

    let held = hook.hold_scoped(0);
    client.send(&score_line(0));
    client.send("HEALTH\n");
    client.send(&format!(
        "TRANSFORM {MODEL} {}\n",
        format_numbers(rows.row(1))
    ));
    // HEALTH is answered (and off the gauge) at once, but its response
    // waits behind the parked SCORE's.
    wait_until("the SCORE and the TRANSFORM to park", || {
        server.stats().queue_depth() == 2 && server.stats().health.requests() == 1
    });
    hook.wait_parked();
    client.assert_silent();

    // A second connection dies with five calls parked. Closing with its
    // HEALTH reply unread resets the socket, so the reactor drops the
    // connection — and the calls — while the fsync is still held.
    let mut doomed = TcpStream::connect(server.addr()).unwrap();
    doomed.write_all(b"HEALTH\n").unwrap();
    doomed.peek(&mut [0u8; 1]).unwrap();
    for row in 2..7 {
        doomed.write_all(score_line(row).as_bytes()).unwrap();
    }
    wait_until("the doomed connection's calls to park", || {
        server.stats().queue_depth() == 7
    });
    drop(doomed);
    wait_until("the dead connection to give the gauge back", || {
        server.stats().queue_depth() == 2
    });

    drop(held);
    assert_eq!(client.line(), expected_score(&model, 0));
    let health = client.line();
    assert!(health.starts_with("OK up"), "{health}");
    let transformed = model
        .transform_batch(&Matrix::from_vec(1, rows.cols(), rows.row(1).to_vec()).unwrap())
        .unwrap();
    assert_eq!(
        client.line(),
        format!("OK {}", format_numbers(transformed.row(0)))
    );
    // The five acknowledgements for the dead connection found nobody and
    // were dropped; the server is none the worse.
    wait_until("the gauge to drain", || server.stats().queue_depth() == 0);
    client.send("HEALTH\n");
    assert!(client.line().starts_with("OK up"));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The harness's own safety: an assertion that fails while an fsync is held
/// must fail its test, not hang it. Unwinding drops the server, which joins
/// the journal's writer — parked in the hook unless the hold is a guard
/// that the same unwinding releases first.
#[test]
fn a_test_that_fails_under_a_hold_fails_instead_of_hanging() {
    let dir = scratch_dir("unwind");
    let journal_dir = dir.clone();
    let failing = std::thread::spawn(move || {
        let hook = SyncHook::default();
        let server = journaling_server(&journal_dir, &hook, ServerConfig::default());
        let mut client = Client::connect(server.addr());
        let _held = hook.hold_scoped(0);
        client.send(&score_line(0));
        hook.wait_parked();
        panic!("a failed assertion, with the writer parked in its fsync");
    });
    wait_until("the failing test to unwind", || failing.is_finished());
    assert!(failing.join().is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A slow-trace record is a diagnostic of a request already answered: its
/// frame is enqueued, and the event loop goes on while the disk is busy.
#[test]
fn a_slow_trace_write_does_not_stall_the_event_loop() {
    let dir = scratch_dir("slow");
    let hook = SyncHook::default();
    let server = journaling_server(
        &dir,
        &hook,
        ServerConfig {
            slow_trace_threshold: Some(Duration::ZERO),
            ..ServerConfig::default()
        },
    );
    let model = server.registry().get(MODEL).unwrap();
    // The traced request's own fsync passes; the one for the slow-trace
    // frame it leaves behind is held.
    let held = hook.hold_scoped(1);
    let mut traced = Client::connect(server.addr());
    let line = score_line(0);
    traced.send(&format!("{} T=00000000000000aa\n", line.trim_end()));
    assert_eq!(
        traced.line(),
        format!("{} T=00000000000000aa", expected_score(&model, 0))
    );
    hook.wait_parked();
    let mut other = Client::connect(server.addr());
    other.send("HEALTH\n");
    assert!(other.line().starts_with("OK up"));
    assert_eq!(server.stats().slow_requests(), 1);

    drop(held);
    let journal = server.journal().unwrap().stats();
    wait_until("the slow-trace frame to be acknowledged", || {
        journal.appends() == 3
    });
    let mut slow = Vec::new();
    replay_dir(&dir, |_, record| {
        if let Record::SlowTrace { trace_id, text, .. } = record {
            slow.push((trace_id, text));
        }
    })
    .unwrap();
    assert_eq!(slow.len(), 1);
    assert_eq!(slow[0].0, 0xaa);
    assert!(slow[0].1.contains("journal-append"), "{}", slow[0].1);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
