//! The reactor front end's acceptance test: 1 000 concurrently connected
//! *idle* clients plus 100 *active* scoring connections against one
//! `pfr-serve` instance, run under a 1-thread and a 4-thread reactor
//! pool. Two assertions, held at both pool widths:
//!
//! 1. **Thread count stays O(1)**: the process thread count remains below a
//!    fixed bound (reactor pool + worker pool + the test's own client
//!    threads — not O(clients)), and the server's own threads are exactly
//!    its reactors and its workers. Thread-per-connection would need
//!    ≥ 1 100 threads to pass the traffic below.
//! 2. **Correctness under load**: every response served while the 1 000
//!    idle sockets sit connected is bitwise identical to offline
//!    `FittedFairPipeline::predict_proba` — so a 4-reactor pool and a
//!    single reactor serve identical bits.

use pfr::pipeline::{FairPipeline, FairPipelineConfig};
use pfr::serve::{Frontend, Server, ServerConfig};
use pfr_data::{split, synthetic, Dataset};
use pfr_graph::{fairness, SparseGraph};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

const IDLE_CLIENTS: usize = 1000;
const ACTIVE_CLIENTS: usize = 100;
const CLIENT_THREADS: usize = 10;
const REQUESTS_PER_CONN: usize = 20;

/// Process thread count bound. Expected population: the test main thread
/// plus libtest, 10 client threads, up to 4 reactors, 4 workers — well
/// under 32 even with runtime helpers; 64 leaves slack while
/// staying two orders of magnitude below the 1 100 threads
/// thread-per-connection would burn on this connection count.
const MAX_THREADS: usize = 64;

fn fairness_graph(ds: &Dataset) -> SparseGraph {
    let scores: Vec<f64> = ds
        .side_information()
        .iter()
        .map(|s| s.unwrap_or(0.0))
        .collect();
    fairness::between_group_quantile_graph(ds.groups(), &scores, 5).unwrap()
}

/// Current thread count of this process (Linux: `Threads:` in
/// /proc/self/status).
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is available");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: field present")
}

/// Names of this process's `pfr-serve-*` threads, sorted (Linux:
/// /proc/self/task/*/comm, which the kernel cuts to 15 bytes).
fn server_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("procfs is available")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .filter(|comm| comm.starts_with("pfr-serve-"))
        .collect();
    names.sort();
    names
}

/// Runs the full idle-plus-active scenario against a reactor pool of the
/// given width and returns every `(row, score)` pair that was served.
fn idle_load_scenario(
    threads: usize,
    text: &str,
    rows: &Arc<Vec<Vec<f64>>>,
    expected: &[f64],
) -> Vec<(usize, f64)> {
    // --- One server at the requested pool width. ---------------------------
    let server = Server::spawn(ServerConfig {
        frontend: Frontend::reactor(threads),
        workers: 4,
        ..ServerConfig::default()
    })
    .unwrap();
    server.registry().load_from_str("admissions", text).unwrap();
    let addr = server.addr();

    // --- 1 000 idle clients connect and just sit there. --------------------
    let idle: Vec<TcpStream> = (0..IDLE_CLIENTS)
        .map(|i| {
            TcpStream::connect(addr)
                .unwrap_or_else(|e| panic!("idle client {i} failed to connect: {e}"))
        })
        .collect();

    // --- 100 active connections score concurrently from 10 threads. --------
    let handles: Vec<_> = (0..CLIENT_THREADS)
        .map(|t| {
            let rows = Arc::clone(rows);
            std::thread::spawn(move || -> Vec<(usize, f64)> {
                let conns: Vec<TcpStream> = (0..ACTIVE_CLIENTS / CLIENT_THREADS)
                    .map(|_| {
                        let s = TcpStream::connect(addr).unwrap();
                        s.set_nodelay(true).unwrap();
                        s
                    })
                    .collect();
                let mut sessions: Vec<(BufReader<TcpStream>, TcpStream)> = conns
                    .into_iter()
                    .map(|s| (BufReader::new(s.try_clone().unwrap()), s))
                    .collect();
                let mut scored = Vec::new();
                for r in 0..REQUESTS_PER_CONN {
                    for (c, (reader, writer)) in sessions.iter_mut().enumerate() {
                        let idx = (t * 31 + c * 7 + r) % rows.len();
                        writeln!(
                            writer,
                            "SCORE admissions {}",
                            pfr::serve::protocol::format_numbers(&rows[idx])
                        )
                        .unwrap();
                        writer.flush().unwrap();
                        let mut response = String::new();
                        reader.read_line(&mut response).unwrap();
                        let mut parts = response.split_whitespace();
                        assert_eq!(parts.next(), Some("OK"), "{response}");
                        scored.push((idx, parts.next().unwrap().parse::<f64>().unwrap()));
                    }
                }
                scored
            })
        })
        .collect();

    // --- The thread bound, measured while everything is connected. ---------
    // (Client threads are still running; idle sockets are still open.)
    std::thread::sleep(std::time::Duration::from_millis(100));
    let count = process_threads();
    assert!(
        count < MAX_THREADS,
        "{count} process threads with {IDLE_CLIENTS} idle + {ACTIVE_CLIENTS} active \
         connections under a {threads}-reactor pool — the front end is paying \
         threads per connection"
    );
    // The server itself is its reactors and its workers and nothing else:
    // batching needs no thread of its own.
    let mut expected_threads = vec!["pfr-serve-react"; threads];
    expected_threads.extend(["pfr-serve-worke"; 4]);
    assert_eq!(server_threads(), expected_threads);

    // --- Bitwise correctness of every served score. ------------------------
    let mut served = Vec::new();
    for handle in handles {
        for (idx, score) in handle.join().unwrap() {
            assert_eq!(
                score.to_bits(),
                expected[idx].to_bits(),
                "served score differs from offline prediction for row {idx} \
                 ({threads} reactor threads)"
            );
            served.push((idx, score));
        }
    }
    assert_eq!(served.len(), ACTIVE_CLIENTS * REQUESTS_PER_CONN);
    assert!(server.stats().connections() >= (IDLE_CLIENTS + ACTIVE_CLIENTS) as u64);

    // The idle sockets were genuinely connected the whole time: dropping
    // them now and shutting down cleanly proves they were being tracked by
    // the reactor, not queued in an accept backlog.
    drop(idle);
    server.shutdown();
    served
}

#[test]
fn a_thousand_idle_clients_cost_buffers_not_threads() {
    // --- Offline ground truth. ---------------------------------------------
    let dataset = synthetic::generate_default(83).unwrap();
    let split = split::train_test_split(&dataset, 0.3, 83).unwrap();
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
    let text = pfr::core::persistence::bundle_to_string(&bundle);
    let rows: Vec<Vec<f64>> = (0..raw.rows()).map(|i| raw.row(i).to_vec()).collect();
    let rows = Arc::new(rows);

    // Same workload against a 1-reactor and a 4-reactor pool: both must
    // hold the thread bound, and both must serve bits identical to offline
    // inference — which also makes the two runs bitwise identical to each
    // other (the request schedule is deterministic, so the served
    // `(row, score)` sequences line up pair for pair).
    let single = idle_load_scenario(1, &text, &rows, &expected);
    let pooled = idle_load_scenario(4, &text, &rows, &expected);
    assert_eq!(single.len(), pooled.len());
    for ((row_a, score_a), (row_b, score_b)) in single.iter().zip(pooled.iter()) {
        assert_eq!(
            row_a, row_b,
            "request schedule diverged between pool widths"
        );
        assert_eq!(
            score_a.to_bits(),
            score_b.to_bits(),
            "row {row_a}: 1-reactor and 4-reactor pools served different bits"
        );
    }
}
