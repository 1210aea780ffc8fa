//! The serving instance: configuration, the state every request shares
//! (`ServeContext`), start-up and shutdown of the reactor pool, and
//! journal recovery.
//!
//! ```text
//!            ┌────────────┐   SCORE    ┌─────────────┐      ┌────────────┐
//! client ──► │  reactor   │ ──miss───► │ MicroBatcher│ ───► │ WorkerPool │
//!            │ (framing)  │ ◄──reply── │  (coalesce) │      │  (GEMM)    │
//!            └─────┬──────┘            └─────────────┘      └────────────┘
//!                  │ verbs                     ▲
//!                  ▼                           │
//!            ┌────────────┐              ┌───────────┐
//!            │ ScoreCache │              │ Registry  │ (PUSH hot-swap)
//!            └────────────┘              └───────────┘
//! ```
//!
//! Connections live in `reactor_front`; every wire verb executes in
//! `verbs`. The cache sits in front of the batcher: a hit answers on the
//! reactor thread without touching the pool; a miss pays one batched
//! scoring pass and populates the cache for every identical future request
//! against the same model generation.

use crate::batcher::{BatcherConfig, MicroBatcher};
use crate::cache::{ScoreCache, ScoreKey};
use crate::error::ServeError;
use crate::registry::ModelRegistry;
use crate::stats::ServerStats;
use crate::Result;
use pfr_journal::{Journal, JournalConfig, Record};
use pfr_obs::{MetricsRegistry, Sampler, TraceStore};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// The width of the front end: how many epoll reactor threads (`crates/net`)
/// multiplex the client connections. Accepted connections distribute across
/// the pool via the shared listener, and an idle client costs a few hundred
/// bytes of buffer state, not a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frontend {
    /// Number of reactor event-loop threads sharing the listener (≥ 1).
    threads: usize,
}

impl Default for Frontend {
    fn default() -> Self {
        Frontend::reactor(1)
    }
}

impl Frontend {
    /// A reactor pool of `threads` event loops (clamped to at least 1).
    pub fn reactor(threads: usize) -> Frontend {
        Frontend {
            threads: threads.max(1),
        }
    }
}

/// Configuration of a serving instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Reactor pool width (see [`Frontend`]).
    pub frontend: Frontend,
    /// Worker threads executing scoring/transform jobs.
    pub workers: usize,
    /// Micro-batching parameters.
    pub batcher: BatcherConfig,
    /// LRU score-cache capacity (0 disables caching).
    pub cache_capacity: usize,
    /// Drop connections idle longer than this (`None` = never). A
    /// connection that is still owed a reply — a request in the batcher,
    /// the pool or an fsync, or output the peer has not read yet — is not
    /// idle, however long ago its last byte arrived.
    pub idle_timeout: Option<Duration>,
    /// Write-ahead journal configuration (`None` = no journaling). When
    /// set, every accepted `SCORE`/`TRANSFORM` is enqueued to the journal
    /// *before* it executes, and every `PUSH` whose bundle the server
    /// accepts is appended — bundle text inlined — before it is installed;
    /// a `PUSH` answered `ERR` journals nothing. A request is answered only
    /// once the journal has acknowledged it — under the default per-record
    /// policy, once the fsync covering its frame has returned. Execution
    /// does not wait for that: a `SCORE` is scored while its frame is being
    /// flushed, and one fsync covers every request admitted meanwhile, so a
    /// durable server costs about the CPU of journaling rather than a disk
    /// flush per request. [`Server::recover_from_journal`] can rebuild the
    /// registry and re-warm the score cache to the exact pre-crash state. A
    /// request the journal cannot record fails with an `ERR`, whatever it
    /// computed, and its score is not cached — durability is part of
    /// accepting it. Note that models installed in-process via
    /// [`Server::registry`] bypass the wire handlers and are **not**
    /// journaled; use `PUSH` for installs that must survive a crash.
    pub journal: Option<JournalConfig>,
    /// Most simultaneously connected clients the server admits
    /// (`None` = unlimited). A connection accepted past the limit is
    /// **shed**: answered with one [`crate::protocol::BUSY`] line and
    /// closed, and counted under `pfr_serve_sheds_total`. Load-shedding
    /// protects tail latency for the connections already admitted; the
    /// routing tier treats `BUSY` as "walk on to another replica".
    pub max_connections: Option<usize>,
    /// Trace one in every `trace_sample_every` otherwise-untraced requests
    /// (0 disables server-initiated sampling). Requests arriving with a
    /// `T=<id>` wire token are always traced regardless — the upstream
    /// tier already decided they matter.
    pub trace_sample_every: u64,
    /// Traced requests slower than this get their span breakdown appended
    /// to the journal as a slow-trace record (`None` disables the slow
    /// log). Only traced requests are eligible, so the sampling rate
    /// bounds the logging cost.
    pub slow_trace_threshold: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            frontend: Frontend::default(),
            workers: 4,
            batcher: BatcherConfig::default(),
            cache_capacity: 4096,
            idle_timeout: None,
            journal: None,
            max_connections: None,
            trace_sample_every: 0,
            slow_trace_threshold: None,
        }
    }
}

/// Everything the request paths share.
pub(crate) struct ServeContext {
    pub(crate) registry: ModelRegistry,
    /// Shared with the `pfr_serve_cache_entries` gauge, which locks it at
    /// scrape time only.
    pub(crate) cache: Arc<Mutex<ScoreCache>>,
    pub(crate) batcher: MicroBatcher,
    pub(crate) pool: Arc<crate::pool::WorkerPool>,
    pub(crate) stats: Arc<ServerStats>,
    pub(crate) journal: Option<Arc<Journal>>,
    /// What the last [`Server::recover_from_journal`] rebuilt; the
    /// `pfr_serve_recovered_*` gauges read it, so replay truncation/skips
    /// are visible at runtime.
    recovery: Arc<Mutex<Option<RecoveryReport>>>,
    /// Every counter/gauge/histogram this process exposes: `METRICS`
    /// renders it in full, `STATS` as one line of scalars.
    pub(crate) metrics: Arc<MetricsRegistry>,
    /// Span rings the `TRACE` verb reads back (one per reactor).
    pub(crate) traces: Arc<TraceStore>,
    /// Decides which untraced requests get a server-minted span.
    pub(crate) sampler: Sampler,
    /// Slow-request log threshold (see
    /// [`ServerConfig::slow_trace_threshold`]).
    pub(crate) slow_threshold: Option<Duration>,
    /// The replicated placement catalog this backend stores for the
    /// router tier (`CATALOG`/`SYNC` verbs). The server never interprets
    /// it — it orders, stores and serves the value so that a restarted
    /// router can bootstrap its control-plane state from any backend.
    pub(crate) catalog: Mutex<Option<pfr_control::Catalog>>,
}

/// What [`Server::recover_from_journal`] rebuilt from the journal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Total checksum-valid frames replayed.
    pub frames: u64,
    /// Install frames whose inlined bundle was reinstalled (`PUSH` frames,
    /// and the kind-3 frames journals once held for a path-based install).
    pub installs: usize,
    /// `SCORE` frames replayed against a loaded model (cached or not).
    pub scores: usize,
    /// Distinct cache entries inserted by replay — a vector scored twice
    /// pre-crash warms once.
    pub warmed: usize,
    /// `TRANSFORM` frames acknowledged (pure reads; nothing to rebuild).
    pub transforms: usize,
    /// Frames that could not be applied — typically requests against a
    /// model whose install frame fell to segment retention.
    pub skipped: usize,
    /// Highest sequence number replayed (0 when the journal is empty).
    pub last_seq: u64,
    /// Bytes past the last valid frame ignored during replay. Normally 0:
    /// opening the journal already truncated any torn tail.
    pub truncated_bytes: u64,
}

impl RecoveryReport {
    /// Renders the report as `key=value` pairs for a log or failure
    /// message. Nothing in the workspace calls it: the wire carries these
    /// fields as the `pfr_serve_recovered_*` gauges. It stays because the
    /// repository benchmark prints it when a recovery is incomplete.
    pub fn to_line(&self) -> String {
        format!(
            "recovered_frames={} recovered_installs={} recovered_scores={} \
             recovered_warmed={} recovered_skipped={} recovered_last_seq={} \
             recovered_truncated_bytes={}",
            self.frames,
            self.installs,
            self.scores,
            self.warmed,
            self.skipped,
            self.last_seq,
            self.truncated_bytes,
        )
    }
}

/// Registers the replay accounting of the last recovery as
/// `pfr_serve_recovered_*` gauges; each reads 0 until
/// [`Server::recover_from_journal`] has run.
fn register_recovery_metrics(
    registry: &MetricsRegistry,
    recovery: &Arc<Mutex<Option<RecoveryReport>>>,
) {
    type FieldReader = fn(&RecoveryReport) -> f64;
    let fields: [(&str, FieldReader); 7] = [
        ("pfr_serve_recovered_frames", |r| r.frames as f64),
        ("pfr_serve_recovered_installs", |r| r.installs as f64),
        ("pfr_serve_recovered_scores", |r| r.scores as f64),
        ("pfr_serve_recovered_warmed", |r| r.warmed as f64),
        ("pfr_serve_recovered_skipped", |r| r.skipped as f64),
        ("pfr_serve_recovered_last_seq", |r| r.last_seq as f64),
        ("pfr_serve_recovered_truncated_bytes", |r| {
            r.truncated_bytes as f64
        }),
    ];
    for (name, read) in fields {
        let recovery = Arc::clone(recovery);
        registry.gauge(
            name,
            &[],
            Arc::new(move || {
                recovery
                    .lock()
                    .expect("recovery lock poisoned")
                    .as_ref()
                    .map_or(0.0, read)
            }),
        );
    }
}

/// A running server: address, shared state handles, and shutdown control.
pub struct Server {
    addr: SocketAddr,
    context: Arc<ServeContext>,
    shutdown: Arc<AtomicBool>,
    /// The reactor pool: one thread and one waker per event loop.
    reactors: Vec<JoinHandle<()>>,
    wakers: Vec<Arc<pfr_net::Waker>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// Binds, spawns the reactor pool and returns the running server.
    pub fn spawn(config: ServerConfig) -> Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // A reactor must never block in accept.
        listener.set_nonblocking(true)?;
        let stats = Arc::new(ServerStats::new());
        let pool = Arc::new(crate::pool::WorkerPool::new(config.workers));
        let batcher = MicroBatcher::new(
            config.batcher.clone(),
            Arc::clone(&pool),
            Arc::clone(&stats),
        );
        let journal = match &config.journal {
            Some(journal_config) => Some(Arc::new(
                Journal::open(journal_config.clone())
                    .map_err(|e| ServeError::Journal(e.to_string()))?,
            )),
            None => None,
        };
        let cache = Arc::new(Mutex::new(ScoreCache::new(config.cache_capacity)));
        let recovery = Arc::new(Mutex::new(None));
        let metrics = Arc::new(MetricsRegistry::new());
        stats.register_metrics(&metrics);
        {
            let cache = Arc::clone(&cache);
            metrics.gauge(
                "pfr_serve_cache_entries",
                &[],
                Arc::new(move || cache.lock().expect("cache lock poisoned").len() as f64),
            );
        }
        if let Some(journal) = &journal {
            journal.register_metrics(&metrics);
            register_recovery_metrics(&metrics, &recovery);
        }
        let traces = Arc::new(TraceStore::new());
        {
            let traces = Arc::clone(&traces);
            metrics.gauge(
                "pfr_trace_slowest_ns",
                &[],
                Arc::new(move || traces.slowest().map(|s| s.total_ns as f64).unwrap_or(0.0)),
            );
        }
        let context = Arc::new(ServeContext {
            registry: ModelRegistry::new(),
            cache,
            batcher,
            pool,
            stats,
            journal,
            recovery,
            metrics,
            traces,
            sampler: Sampler::new(config.trace_sample_every),
            slow_threshold: config.slow_trace_threshold,
            catalog: Mutex::new(None),
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let (reactors, wakers) = crate::reactor_front::spawn_pool(
            listener,
            Arc::clone(&context),
            Arc::clone(&shutdown),
            config.idle_timeout,
            config.frontend.threads,
            config.max_connections,
        )?;
        Ok(Server {
            addr,
            context,
            shutdown,
            reactors,
            wakers,
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's model registry — loading a model here is equivalent to a
    /// `PUSH` request, except that it is not journaled, which lets a process
    /// pre-load models before exposing the port to clients.
    pub fn registry(&self) -> &ModelRegistry {
        &self.context.registry
    }

    /// Live serving statistics.
    pub fn stats(&self) -> &ServerStats {
        &self.context.stats
    }

    /// The metrics registry backing the `METRICS` and `STATS` verbs.
    /// Co-located subsystems (an in-process refit worker, say) register
    /// their own gauges here to ride both.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.context.metrics
    }

    /// The recorded trace spans backing the `TRACE` verb.
    pub fn traces(&self) -> &TraceStore {
        &self.context.traces
    }

    /// The write-ahead journal, if one is configured.
    pub fn journal(&self) -> Option<&Journal> {
        self.context.journal.as_deref()
    }

    /// Replays the configured journal to rebuild this server's state to the
    /// exact pre-crash point: install frames reinstall their inlined
    /// bundles into the registry, and `SCORE` frames re-score and re-insert
    /// into the cache (in journal order, so even the LRU recency order
    /// matches what the crashed server held). Scoring is deterministic, so
    /// the warmed entries are bitwise identical to both the pre-crash
    /// responses and offline predictions.
    ///
    /// Call right after [`Server::spawn`], before exposing the address.
    /// Replay applies state directly — nothing is re-journaled — and a
    /// frame that cannot be applied (a `SCORE` for a model whose install
    /// was dropped by segment retention, say) is counted as skipped rather
    /// than aborting the recovery.
    pub fn recover_from_journal(&self) -> Result<RecoveryReport> {
        let journal = self
            .context
            .journal
            .as_ref()
            .ok_or_else(|| ServeError::Journal("no journal configured".to_string()))?;
        let registry = &self.context.registry;
        let mut report = RecoveryReport::default();
        let summary = journal
            .replay(|_seq, record| match record {
                Record::Push { model, bundle_text } => {
                    match registry.load_from_str(&model, &bundle_text) {
                        Ok(_) => report.installs += 1,
                        Err(_) => report.skipped += 1,
                    }
                }
                Record::Score { model, features } => {
                    let warmed = (|| {
                        let servable = registry.get(&model)?;
                        let key = ScoreKey::new(servable.generation(), &features)?;
                        let mut cache = self.context.cache.lock().expect("cache lock poisoned");
                        if cache.get(&key).is_none() {
                            let score = servable.score_one(&features).ok()?;
                            cache.insert(key, score);
                            Some(true)
                        } else {
                            Some(false)
                        }
                    })();
                    match warmed {
                        Some(true) => {
                            report.scores += 1;
                            report.warmed += 1;
                        }
                        Some(false) => report.scores += 1,
                        None => report.skipped += 1,
                    }
                }
                Record::Transform { model, .. } => {
                    // Transforms are pure reads with no cached state to
                    // rebuild; they count toward the replay total only.
                    if registry.get(&model).is_some() {
                        report.transforms += 1;
                    } else {
                        report.skipped += 1;
                    }
                }
                Record::SlowTrace { .. } => {
                    // Slow-trace records are diagnostics riding the same
                    // durable stream; there is no state to rebuild.
                }
            })
            .map_err(|e| ServeError::Journal(e.to_string()))?;
        report.frames = summary.frames;
        report.last_seq = summary.last_seq;
        report.truncated_bytes = summary.truncated_bytes;
        *self
            .context
            .recovery
            .lock()
            .expect("recovery lock poisoned") = Some(report);
        Ok(report)
    }

    /// The version of the replicated placement catalog this backend
    /// currently stores (`None` until a router has `SYNC`ed one) — the
    /// in-process view of what the `CATALOG` verb reports.
    pub fn catalog_version(&self) -> Option<pfr_control::Version> {
        self.context
            .catalog
            .lock()
            .expect("catalog lock poisoned")
            .as_ref()
            .map(|c| c.version())
    }

    /// The report of the last [`Server::recover_from_journal`], if one ran.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        *self
            .context
            .recovery
            .lock()
            .expect("recovery lock poisoned")
    }

    /// Occupies every worker until the returned senders are dropped (see
    /// [`crate::pool::tests::hold_workers`]): a cache miss or a pool job
    /// submitted meanwhile stays queued.
    #[cfg(test)]
    pub(crate) fn hold_workers(&self) -> Vec<std::sync::mpsc::Sender<()>> {
        crate::pool::tests::hold_workers(&self.context.pool)
    }

    /// Gracefully shuts the server down: stops accepting, closes every
    /// established connection (clients blocked in a read observe EOF; a
    /// request that raced the close is dropped, since its response could
    /// not reach the client anyway) and joins the reactor threads. No
    /// thread or socket outlives this call.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Every reactor notices the flag on its wake, closes the
        // connections it owns and exits.
        for waker in &self.wakers {
            let _ = waker.wake();
        }
        for reactor in self.reactors.drain(..) {
            let _ = reactor.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::toy_bundle;
    use crate::protocol;
    use pfr_core::persistence;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn start_with_model() -> (Server, String, pfr_linalg::Matrix) {
        let (bundle, x) = toy_bundle();
        let server = Server::spawn(ServerConfig::default()).unwrap();
        let text = persistence::bundle_to_string(&bundle);
        server.registry().load_from_str("risk", &text).unwrap();
        (server, text, x)
    }

    fn request(addr: SocketAddr, lines: &[String]) -> Vec<String> {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut out = Vec::new();
        for line in lines {
            writeln!(writer, "{line}").unwrap();
            writer.flush().unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            out.push(response.trim_end().to_string());
        }
        out
    }

    #[test]
    fn score_over_tcp_matches_offline_inference_bitwise_at_both_pool_widths() {
        let (bundle, x) = toy_bundle();
        let text = persistence::bundle_to_string(&bundle);
        let lines: Vec<String> = (0..x.rows())
            .map(|i| format!("SCORE risk {}", protocol::format_numbers(x.row(i))))
            .collect();
        let mut transcripts = Vec::new();
        for frontend in [Frontend::reactor(1), Frontend::reactor(4)] {
            let server = Server::spawn(ServerConfig {
                frontend,
                ..ServerConfig::default()
            })
            .unwrap();
            server.registry().load_from_str("risk", &text).unwrap();
            // The oracle is offline inference, not the other width.
            let model = server.registry().get("risk").unwrap();
            let expected = model.score_batch(&x).unwrap();
            let responses = request(server.addr(), &lines);
            for (i, response) in responses.iter().enumerate() {
                let mut parts = response.split_whitespace();
                assert_eq!(parts.next(), Some("OK"), "{frontend:?}: {response}");
                let score: f64 = parts.next().unwrap().parse().unwrap();
                assert_eq!(score.to_bits(), expected[i].to_bits(), "row {i}");
                let label: u8 = parts.next().unwrap().parse().unwrap();
                assert_eq!(label, u8::from(expected[i] >= model.threshold()));
            }
            transcripts.push(responses);
            server.shutdown();
        }
        assert_eq!(transcripts[0], transcripts[1]);
    }

    #[test]
    fn repeated_scores_hit_the_cache() {
        let (server, _, x) = start_with_model();
        let line = format!("SCORE risk {}", protocol::format_numbers(x.row(0)));
        let responses = request(server.addr(), &[line.clone(), line.clone(), line]);
        assert_eq!(responses[0], responses[1]);
        assert_eq!(responses[1], responses[2]);
        assert!(server.stats().cache_hits() >= 2);
        assert_eq!(server.stats().cache_misses(), 1);
        server.shutdown();
    }

    /// Writes a `PUSH` frame (header + counted payload) and reads the one
    /// response line.
    fn push_request(addr: SocketAddr, name: &str, text: &str) -> String {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        write!(writer, "PUSH {name} {}\n{text}", text.len()).unwrap();
        writer.flush().unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response.trim_end().to_string()
    }

    #[test]
    fn push_loads_a_bundle_over_the_wire_at_both_pool_widths() {
        let (bundle, x) = toy_bundle();
        let text = persistence::bundle_to_string(&bundle);
        for frontend in [Frontend::reactor(1), Frontend::reactor(4)] {
            let server = Server::spawn(ServerConfig {
                frontend,
                ..ServerConfig::default()
            })
            .unwrap();
            let response = push_request(server.addr(), "risk", &text);
            assert!(
                response.starts_with("OK loaded risk@"),
                "{frontend:?}: {response}"
            );
            assert!(response.contains("features=3"), "{response}");
            // The pushed model serves scores identical to in-process loading.
            let model = server.registry().get("risk").unwrap();
            let expected = model.score_batch(&x).unwrap();
            let line = format!("SCORE risk {}", protocol::format_numbers(x.row(0)));
            let responses = request(server.addr(), &[line]);
            let score: f64 = responses[0]
                .split_whitespace()
                .nth(1)
                .unwrap()
                .parse()
                .unwrap();
            assert_eq!(score.to_bits(), expected[0].to_bits(), "{frontend:?}");
            // Garbage payloads are rejected without killing the connection's
            // framing: the next request on a fresh connection still works.
            let bad = push_request(server.addr(), "junk", "not a bundle at all\n");
            assert!(bad.starts_with("ERR"), "{bad}");
            assert!(server.registry().get("junk").is_none());
            server.shutdown();
        }
    }

    #[test]
    fn push_then_more_requests_on_the_same_connection_stay_framed() {
        let (bundle, x) = toy_bundle();
        let text = persistence::bundle_to_string(&bundle);
        for frontend in [Frontend::reactor(1), Frontend::reactor(4)] {
            let server = Server::spawn(ServerConfig {
                frontend,
                ..ServerConfig::default()
            })
            .unwrap();
            // Pre-load so the pipelined PUSH below is a hot swap: PUSH
            // installs on the worker pool, so a same-burst
            // SCORE may run before the push lands — it must
            // still resolve a model. What this test pins down is the
            // *framing*: payload bytes followed immediately by more
            // request lines in one write must not desync the parser.
            server.registry().load_from_str("risk", &text).unwrap();
            let stream = TcpStream::connect(server.addr()).unwrap();
            stream.set_nodelay(true).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            // One write: PUSH frame immediately followed by pipelined
            // SCORE/HEALTH lines — payload bytes must not desync framing.
            let mut burst = format!("PUSH risk {}\n{text}", text.len());
            burst.push_str(&format!(
                "SCORE risk {}\nHEALTH\n",
                protocol::format_numbers(x.row(0))
            ));
            writer.write_all(burst.as_bytes()).unwrap();
            writer.flush().unwrap();
            let mut responses = Vec::new();
            for _ in 0..3 {
                let mut response = String::new();
                reader.read_line(&mut response).unwrap();
                responses.push(response.trim_end().to_string());
            }
            assert!(responses[0].starts_with("OK loaded"), "{responses:?}");
            assert!(responses[1].starts_with("OK "), "{responses:?}");
            assert!(responses[2].starts_with("OK up"), "{responses:?}");
            server.shutdown();
        }
    }

    #[test]
    fn stats_reports_the_live_cache_entry_gauge() {
        let (server, _, x) = start_with_model();
        let line = format!("SCORE risk {}", protocol::format_numbers(x.row(0)));
        let responses = request(server.addr(), &[line, "STATS".to_string()]);
        assert!(
            responses[1].contains(" pfr_serve_cache_entries=1"),
            "{}",
            responses[1]
        );
        server.shutdown();
    }

    #[test]
    fn transform_stats_and_errors_speak_the_protocol() {
        let (server, _, x) = start_with_model();
        let responses = request(
            server.addr(),
            &[
                format!("TRANSFORM risk {}", protocol::format_numbers(x.row(0))),
                "STATS".to_string(),
                "SCORE missing 1 2 3".to_string(),
                "SCORE risk 1".to_string(),
                "GIBBERISH".to_string(),
            ],
        );
        // TRANSFORM returns dim() numbers.
        let z: Vec<f64> = responses[0]
            .strip_prefix("OK ")
            .unwrap()
            .split_whitespace()
            .map(|v| v.parse().unwrap())
            .collect();
        assert_eq!(z.len(), 2);
        let model = server.registry().get("risk").unwrap();
        let expected = model
            .transform_batch(&pfr_linalg::Matrix::from_vec(1, 3, x.row(0).to_vec()).unwrap())
            .unwrap();
        for (a, b) in z.iter().zip(expected.row(0)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(responses[1].starts_with("OK "));
        assert!(responses[1].contains("pfr_serve_requests_total{verb=\"transform\"}=1"));
        assert!(responses[2].starts_with("ERR no model named"));
        assert!(responses[3].starts_with("ERR"), "{}", responses[3]);
        assert!(responses[4].starts_with("ERR") && responses[4].contains("unknown verb"));
        server.shutdown();
    }

    #[test]
    fn quit_closes_the_connection_politely() {
        let (server, _, _) = start_with_model();
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writeln!(writer, "QUIT").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert_eq!(response.trim_end(), "OK bye");
        // Server closed its end: the next read returns EOF.
        response.clear();
        assert_eq!(reader.read_line(&mut response).unwrap(), 0);
        server.shutdown();
    }

    #[test]
    fn shutdown_unblocks_the_accept_loop() {
        let server = Server::spawn(ServerConfig::default()).unwrap();
        let addr = server.addr();
        server.shutdown();
        // After shutdown the listener is gone; connecting either fails or
        // yields a connection nobody serves.
        if let Ok(stream) = TcpStream::connect(addr) {
            let mut reader = BufReader::new(stream);
            let mut buf = String::new();
            // Either EOF immediately or an error; never a served response.
            let _ = reader.read_line(&mut buf);
            assert!(!buf.starts_with("OK"));
        }
    }

    #[test]
    fn health_and_epoch_speak_the_protocol() {
        let (server, text, _) = start_with_model();
        let responses = request(
            server.addr(),
            &[
                "HEALTH".to_string(),
                "EPOCH risk".to_string(),
                "EPOCH missing".to_string(),
            ],
        );
        assert!(
            responses[0].starts_with("OK up models=1 swaps=0 queue="),
            "{}",
            responses[0]
        );
        let model = server.registry().get("risk").unwrap();
        assert_eq!(
            responses[1],
            format!(
                "OK risk generation={} digest={}",
                model.generation(),
                pfr_core::persistence::digest_hex(model.digest())
            )
        );
        assert!(
            responses[2].starts_with("ERR no model named"),
            "{}",
            responses[2]
        );
        // A hot swap changes the generation but not the digest (same
        // content), and HEALTH reports the swap.
        server.registry().load_from_str("risk", &text).unwrap();
        let swapped = server.registry().get("risk").unwrap();
        assert_ne!(swapped.generation(), model.generation());
        assert_eq!(swapped.digest(), model.digest());
        let responses = request(server.addr(), &["HEALTH".to_string()]);
        assert!(responses[0].contains("swaps=1"), "{}", responses[0]);
        server.shutdown();
    }

    #[test]
    fn shutdown_closes_established_connections() {
        let (server, _, _) = start_with_model();
        let idle: Vec<TcpStream> = (0..2)
            .map(|_| TcpStream::connect(server.addr()).unwrap())
            .collect();
        // Give the reactor time to accept both.
        std::thread::sleep(std::time::Duration::from_millis(50));
        server.shutdown();
        // The clients see EOF rather than a hang.
        for stream in idle {
            let mut reader = BufReader::new(stream);
            let mut buf = String::new();
            let n = reader.read_line(&mut buf).unwrap_or(0);
            assert_eq!(n, 0, "expected EOF after shutdown, got '{buf}'");
        }
    }

    /// Writes a `SYNC` frame (header + counted catalog payload) and reads
    /// the one response line.
    fn sync_request(addr: SocketAddr, text: &str) -> String {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        write!(writer, "SYNC {}\n{text}", text.len()).unwrap();
        writer.flush().unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response.trim_end().to_string()
    }

    #[test]
    fn catalog_and_sync_replicate_the_control_plane_at_both_pool_widths() {
        let (bundle, _) = toy_bundle();
        let text = persistence::bundle_to_string(&bundle);
        let mut catalog = pfr_control::Catalog::new(9);
        catalog.add_member(9, 0, "127.0.0.1:9000".to_string());
        catalog.upsert_placement(9, "risk", &text).unwrap();
        let mut transcripts = Vec::new();
        for frontend in [Frontend::reactor(1), Frontend::reactor(4)] {
            let server = Server::spawn(ServerConfig {
                frontend,
                ..ServerConfig::default()
            })
            .unwrap();
            // A fresh backend stores nothing.
            let mut responses = request(
                server.addr(),
                &["CATALOG".to_string(), "CATALOG FULL".to_string()],
            );
            assert_eq!(responses[0], "OK none", "{frontend:?}");
            assert_eq!(responses[1], "OK none", "{frontend:?}");
            assert!(server.catalog_version().is_none());
            // Offer the catalog: applied, and the response reports the
            // post-merge holder state.
            responses.push(sync_request(server.addr(), &catalog.to_text()));
            assert_eq!(
                responses[2],
                format!("OK {} applied=1", catalog.version().summary()),
                "{frontend:?}"
            );
            assert_eq!(server.catalog_version(), Some(catalog.version()));
            // The digest probe and the full pull reflect the stored value;
            // the pulled text round-trips to an identical catalog.
            responses.extend(request(
                server.addr(),
                &["CATALOG".to_string(), "CATALOG FULL".to_string()],
            ));
            assert_eq!(
                responses[3],
                format!("OK {}", catalog.version().summary()),
                "{frontend:?}"
            );
            let pulled = responses[4].strip_prefix("OK ").unwrap();
            let adopted = pfr_control::Catalog::from_text(&pfr_control::unescape(pulled)).unwrap();
            assert_eq!(adopted, catalog);
            // A stale offer is refused (applied=0) and the store keeps the
            // newer value; garbage payloads are rejected outright.
            let stale = pfr_control::Catalog::new(3);
            responses.push(sync_request(server.addr(), &stale.to_text()));
            assert_eq!(
                responses[5],
                format!("OK {} applied=0", catalog.version().summary()),
                "{frontend:?}"
            );
            responses.push(sync_request(server.addr(), "not a catalog\n"));
            assert!(responses[6].starts_with("ERR"), "{}", responses[6]);
            assert_eq!(server.catalog_version(), Some(catalog.version()));
            assert_eq!(server.stats().catalog.requests(), 7, "{frontend:?}");
            assert_eq!(server.stats().catalog.errors(), 1, "{frontend:?}");
            transcripts.push(responses);
            server.shutdown();
        }
        assert_eq!(
            transcripts[0], transcripts[1],
            "the pool width must not change a byte of the catalog exchange"
        );
    }

    #[test]
    fn hot_swap_over_the_wire_keeps_serving() {
        let (server, text, x) = start_with_model();
        let before = server.registry().get("risk").unwrap().generation();
        server.registry().load_from_str("risk", &text).unwrap();
        let after = server.registry().get("risk").unwrap().generation();
        assert_ne!(before, after);
        let line = format!("SCORE risk {}", protocol::format_numbers(x.row(0)));
        let responses = request(server.addr(), &[line]);
        assert!(responses[0].starts_with("OK "));
        server.shutdown();
    }

    #[test]
    fn every_verb_is_counted_once_and_leaves_the_gauge_at_zero() {
        every_verb_session(None);
    }

    /// The same session when every `SCORE`/`TRANSFORM` also waits for its
    /// journal acknowledgement and every install for a blocking append.
    #[test]
    fn every_verb_is_counted_once_on_a_journaling_server() {
        let dir = std::env::temp_dir().join(format!(
            "pfr_serve_accounting_journal_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        every_verb_session(Some(JournalConfig::new(&dir)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn every_verb_session(journal: Option<JournalConfig>) {
        let (bundle, x) = toy_bundle();
        let text = persistence::bundle_to_string(&bundle);
        let server = Server::spawn(ServerConfig {
            journal,
            ..ServerConfig::default()
        })
        .unwrap();
        server.registry().load_from_str("risk", &text).unwrap();
        let row = protocol::format_numbers(x.row(0));
        let catalog = pfr_control::Catalog::new(9).to_text();
        let junk = "not a bundle\n";
        // One pipelined session: (bytes sent, counter the request lands in,
        // prefix its response must have).
        let session: Vec<(String, &str, &str)> = vec![
            (
                "LOAD a /models/a.bundle\n".to_string(),
                "parse",
                "ERR protocol error: unknown verb",
            ),
            (
                format!("PUSH b {}\n{text}", text.len()),
                "load",
                "OK loaded b@",
            ),
            (format!("PUSH c {}\n{junk}", junk.len()), "load", "ERR"),
            (format!("SCORE risk {row}\n"), "score", "OK "),
            (format!("SCORE risk {row}\n"), "score", "OK "),
            (
                "SCORE ghost 1 2 3\n".to_string(),
                "score",
                "ERR no model named",
            ),
            (format!("TRANSFORM risk {row}\n"), "transform", "OK "),
            ("TRANSFORM risk 1\n".to_string(), "transform", "ERR"),
            (
                "STATS\n".to_string(),
                "stats",
                "OK pfr_serve_requests_total{",
            ),
            ("METRICS\n".to_string(), "stats", "OK pfr_"),
            (
                "TRACE 00000000000000ff\n".to_string(),
                "stats",
                "ERR protocol error: no recorded",
            ),
            ("HEALTH\n".to_string(), "health", "OK up"),
            ("EPOCH risk\n".to_string(), "epoch", "OK risk generation="),
            ("EPOCH ghost\n".to_string(), "epoch", "ERR no model named"),
            ("CATALOG\n".to_string(), "catalog", "OK none"),
            (
                format!("SYNC {}\n{catalog}", catalog.len()),
                "catalog",
                "OK epoch=",
            ),
            ("CATALOG FULL\n".to_string(), "catalog", "OK "),
            ("GIBBERISH\n".to_string(), "parse", "ERR"),
            ("SCORE risk notanumber\n".to_string(), "parse", "ERR"),
            ("QUIT\n".to_string(), "quit", "OK bye"),
        ];
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let burst: String = session.iter().map(|(bytes, _, _)| bytes.as_str()).collect();
        writer.write_all(burst.as_bytes()).unwrap();
        // Responses come back in request order, whichever thread ran them.
        for (i, (sent, _, prefix)) in session.iter().enumerate() {
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            assert!(
                response.starts_with(prefix),
                "#{i} {sent:?} -> {response:?}"
            );
        }
        // Every request is counted exactly once, under its own verb.
        let scrape = server.metrics().render();
        for verb in [
            "load",
            "score",
            "transform",
            "stats",
            "health",
            "epoch",
            "catalog",
        ] {
            let sent = session.iter().filter(|(_, counter, _)| *counter == verb);
            let errors = sent
                .clone()
                .filter(|(_, _, p)| p.starts_with("ERR"))
                .count();
            for (series, want) in [
                ("pfr_serve_requests_total", sent.count()),
                ("pfr_serve_verb_errors_total", errors),
            ] {
                let line = format!("{series}{{verb=\"{verb}\"}} {want}\n");
                assert!(scrape.contains(&line), "want {line:?} in:\n{scrape}");
            }
        }
        assert!(
            scrape.contains("pfr_serve_errors_total{kind=\"parse\"} 3\n"),
            "{scrape}"
        );
        assert!(
            scrape.contains("pfr_serve_errors_total{kind=\"exec\"} 5\n"),
            "{scrape}"
        );
        assert_eq!(server.stats().queue_depth(), 0, "one exit per enter");

        // A second connection dies with five scores still in the batcher
        // (every worker is held, so they cannot leave it): closing with the
        // HEALTH reply unread resets the socket, so the reactor drops the
        // connection and its pending requests at once. The gauge comes back
        // while the workers are still held — the dead connection returned
        // it, not five completed scores.
        let held = server.hold_workers();
        let mut doomed = TcpStream::connect(server.addr()).unwrap();
        doomed.write_all(b"HEALTH\n").unwrap();
        doomed.peek(&mut [0u8; 1]).unwrap();
        for i in 0..5 {
            writeln!(doomed, "SCORE risk {i} 0.5 1").unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.stats().queue_depth() < 5 {
            assert!(std::time::Instant::now() < deadline, "scores never parsed");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(doomed);
        while server.stats().queue_depth() > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "in-flight gauge leaked"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(held);
        server.shutdown();
    }
}
