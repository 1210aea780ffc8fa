//! The router proper: consistent-hash placement, replica failover,
//! scatter-gather batch scoring, replica-consistency verification — and
//! *live* membership: backends join and leave a running router with no
//! restart, no request failures and a `≤ 2/N` remap bound.
//!
//! ```text
//!                    ┌──────────────────────────────┐
//!   score(model, x)  │ Router                       │     ┌───────────┐
//!  ─────────────────►│  hot-key LRU (bit-exact)     │────►│ backend 2 │
//!                    │  replicas(model): live first │     └───────────┘
//!   score_batch(...) │  ejected last, nobody else   │────►┌───────────┐
//!  ─────────────────►│  scatter rows over replicas  │     │ backend 0 │
//!   add_backend(...) │  gather + per-row retry      │     └───────────┘
//!   remove_backend() │  membership: Arc snapshots   │────►┌───────────┐
//!  ─────────────────►│  placement: PUSH bundles     │     │ backend 3 │
//!                    └──────────────────────────────┘     └───────────┘
//! ```
//!
//! **Membership** is an immutable [`Membership`] snapshot (ring + backend
//! map + epoch) behind an `RwLock<Arc<..>>`: every request clones the
//! `Arc` once and uses that snapshot throughout, so a concurrent
//! `add_backend`/`remove_backend` can never tear a scatter mid-flight —
//! the swap is one pointer store, in-flight requests keep the old view and
//! finish against backends that still exist (their `Arc<Backend>`s are
//! kept alive by the snapshot). A membership change is *make before
//! break*: every cataloged model is EPOCH-checked on its replica set in
//! the *next* snapshot and `PUSH`ed wherever it is missing before that
//! snapshot is stored, so readers see the change one reconcile later and
//! never a replica that does not hold the model yet.
//!
//! **Reads stay inside the replica set.** Every read walks the model's
//! replica set ([`Membership`] knows the replication factor) — live
//! replicas first, ejected ones last — and never a backend beyond it,
//! which may still hold a superseded bundle (no verb unloads a model).
//!
//! **Placement** ships `ModelBundle` text over the wire (`PUSH`), so
//! backends need no shared filesystem, and every placement is cataloged.
//!
//! **The hot-key cache** is the same bit-exact LRU the backends use
//! ([`pfr_serve::ScoreCache`]), keyed by a router-local model id instead
//! of a backend generation. A repeated `(model, features)` pair answers
//! at the router without the network hop; because scoring is
//! deterministic and replicas are digest-verified, the cached score is
//! *identical* to what any replica would return. Membership or placement
//! changes retire the model id, orphaning every cached entry for it
//! (generation invalidation — no scan, corpses age out of the LRU).
//!
//! Failure semantics: io errors (dead socket, timeout) are *backend*
//! failures — they feed the breaker and the router fails over to the next
//! replica of the model. `ERR` responses are *request*
//! failures — deterministic across replicas (a malformed vector is
//! malformed everywhere), so the router returns them without failover. The
//! exceptions are `ERR no model named ...` (a replica not populated yet)
//! and `BUSY`, which continue the walk.

use crate::backend::{Backend, BreakerConfig, ConnConfig};
use crate::control::{ControlPlane, SyncWorker};
use crate::error::RouterError;
use crate::health::HealthChecker;
use crate::ring::{HashRing, DEFAULT_VNODES};
use crate::ticket::{
    BatchPending, CoalescedPending, CompletionQueue, Flight, FlightGuard, FlightMap, FlightRole,
    ScoreFinish, ScorePending, SubBurst, Ticket,
};
use crate::Result;
use pfr_core::persistence::{self, ModelBundle};
use pfr_net::client::BurstResult;
use pfr_obs::{
    mint_trace_id, render_histogram, unescape_multiline, ActiveSpan, MetricsRegistry, Sampler,
    Scrape, SpanRing, TraceStore,
};
use pfr_serve::cache::{ScoreCache, ScoreKey};
use pfr_serve::protocol::write_score_request;
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Configuration of a routing tier.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Replicas per model: how many backends (the first of the model's
    /// clockwise ring walk) hold and serve each model. 1 disables
    /// redundancy; 2 survives any single backend failure.
    pub replication: usize,
    /// Virtual nodes per backend on the ring.
    pub vnodes: usize,
    /// Circuit-breaker tuning shared by every backend.
    pub breaker: BreakerConfig,
    /// Connect/io timeouts and idle bound of the backend connections.
    pub conn: ConnConfig,
    /// Health-probe period (`None` disables the background prober; the
    /// request path still feeds the breakers). A config field — tests
    /// tune it down instead of sleeping out a hard-coded default.
    pub health_interval: Option<Duration>,
    /// Capacity of the router-side hot-key score cache (0 disables it).
    /// Hits are bit-exact — scoring is deterministic and replicas are
    /// digest-verified — so the cache only removes the network hop, never
    /// changes a score. Invalidated per model on membership or placement
    /// changes.
    pub hot_cache_capacity: usize,
    /// Trace one of every N single-score requests end to end (0 disables
    /// router-initiated sampling; [`Router::score_traced`] always
    /// traces). A traced request bypasses the hot cache — a cache hit
    /// would answer without touching a backend, leaving nothing to trace
    /// — so keep N large in production.
    pub trace_sample_every: u64,
    /// Anti-entropy period of the replicated placement catalog (`None`
    /// disables the background sync worker; local mutations still
    /// publish eagerly). Each round digest-probes every live backend's
    /// held catalog (`CATALOG`, one short line), pulling or pushing a
    /// full transfer only on version mismatch, and repairs backends the
    /// breaker re-admitted since the last round.
    pub sync_interval: Option<Duration>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            replication: 2,
            vnodes: DEFAULT_VNODES,
            breaker: BreakerConfig::default(),
            conn: ConnConfig::default(),
            health_interval: Some(Duration::from_millis(100)),
            hot_cache_capacity: 4096,
            trace_sample_every: 0,
            sync_interval: Some(Duration::from_millis(100)),
        }
    }
}

/// Finished router spans retained for [`Router::trace`] lookups. Spans
/// exist only for traced requests, so the memory cost is bounded and
/// small.
const SPAN_RING_CAPACITY: usize = 256;

/// Routing-tier counters (all relaxed atomics, mirroring `ServerStats`).
#[derive(Debug, Default)]
pub struct RouterStats {
    routed: AtomicU64,
    failovers: AtomicU64,
    scatters: AtomicU64,
    retried_rows: AtomicU64,
    hot_hits: AtomicU64,
    hot_misses: AtomicU64,
    probes: Arc<AtomicU64>,
    pushes: AtomicU64,
    coalesced: AtomicU64,
    sync_rounds: AtomicU64,
    repair_pushes: AtomicU64,
}

impl RouterStats {
    /// Requests (single or batch) that entered the routing path.
    pub fn routed(&self) -> u64 {
        self.routed.load(Ordering::Relaxed)
    }

    /// Times the router moved past a backend after an io failure.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// Batch requests that were scattered over more than one replica.
    pub fn scatters(&self) -> u64 {
        self.scatters.load(Ordering::Relaxed)
    }

    /// Rows re-routed individually after their scatter sub-batch failed.
    pub fn retried_rows(&self) -> u64 {
        self.retried_rows.load(Ordering::Relaxed)
    }

    /// Rows answered from the router's hot-key cache (no network hop).
    pub fn hot_cache_hits(&self) -> u64 {
        self.hot_hits.load(Ordering::Relaxed)
    }

    /// Cacheable rows that missed the hot-key cache and paid the hop.
    pub fn hot_cache_misses(&self) -> u64 {
        self.hot_misses.load(Ordering::Relaxed)
    }

    /// Health probes sent by the background prober.
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Bundle installs (`PUSH`) placed through this router —
    /// operator pushes and refit hot-swaps alike.
    pub fn pushes(&self) -> u64 {
        self.pushes.load(Ordering::Relaxed)
    }

    /// Cold misses that rode another request's in-flight backend round
    /// trip instead of paying their own (single-flight coalescing).
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Anti-entropy rounds the catalog sync worker has run.
    pub fn sync_rounds(&self) -> u64 {
        self.sync_rounds.load(Ordering::Relaxed)
    }

    /// `PUSH`es sent because a digest check found a replica missing or
    /// diverging from the cataloged content — reconciliation after
    /// membership changes and readmission repair alike.
    pub fn repair_pushes(&self) -> u64 {
        self.repair_pushes.load(Ordering::Relaxed)
    }

    pub(crate) fn record_sync_round(&self) {
        self.sync_rounds.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_repair_push(&self) {
        self.repair_pushes.fetch_add(1, Ordering::Relaxed);
    }
}

/// One immutable view of cluster membership: the ring, the backends it
/// maps to, the replication factor and a monotonically increasing epoch.
/// Requests clone the router's current `Arc<Membership>` once and route
/// against it throughout, so a concurrent add/remove can never tear a
/// scatter — and the snapshot keeps the `Arc<Backend>`s of removed
/// members alive until the last in-flight request against them finishes.
#[derive(Debug)]
pub struct Membership {
    pub(crate) ring: HashRing,
    pub(crate) backends: BTreeMap<usize, Arc<Backend>>,
    pub(crate) epoch: u64,
    /// Replicas per model (≥ 1).
    replication: usize,
}

impl Membership {
    /// A snapshot of `backends` at `epoch`, on a ring of `config.vnodes`
    /// points per member.
    pub(crate) fn new(
        backends: BTreeMap<usize, Arc<Backend>>,
        config: &RouterConfig,
        epoch: u64,
    ) -> Membership {
        let mut ring = HashRing::new(config.vnodes);
        for &id in backends.keys() {
            ring.add(id);
        }
        Membership {
            ring,
            backends,
            epoch,
            replication: config.replication.max(1),
        }
    }

    /// `model`'s replica set in read order: the replicas whose breaker
    /// admits traffic first, then the ejected ones, each group in ring
    /// order. Reads, placement and reconciliation walk this set and
    /// nothing beyond it — a backend outside it may hold a superseded
    /// bundle.
    pub(crate) fn replicas(&self, model: &str) -> Replicas<'_> {
        let mut order: Vec<&Arc<Backend>> = self
            .ring
            .replicas(model, self.replication)
            .into_iter()
            .filter_map(|id| self.backends.get(&id))
            .collect();
        let mut live = 0;
        for i in 0..order.len() {
            if order[i].breaker().available() {
                // Stable partition: move the live replica up behind the
                // live ones before it.
                order[live..=i].rotate_right(1);
                live += 1;
            }
        }
        Replicas { order, live }
    }

    /// The consistent-hash ring of this snapshot.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The snapshot's epoch: bumped by one on every membership change.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The backend with ring id `id`, if it is a member of this snapshot.
    pub fn backend(&self, id: usize) -> Option<&Arc<Backend>> {
        self.backends.get(&id)
    }

    /// Every member backend, in ring-id order.
    pub fn backends(&self) -> Vec<Arc<Backend>> {
        self.backends.values().cloned().collect()
    }

    /// Member ring ids, ascending.
    pub fn ids(&self) -> Vec<usize> {
        self.backends.keys().copied().collect()
    }

    /// Number of member backends.
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// Whether the snapshot has no members.
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }
}

/// A model's replica set in read order ([`Membership::replicas`]).
pub(crate) struct Replicas<'a> {
    order: Vec<&'a Arc<Backend>>,
    live: usize,
}

impl<'a> Replicas<'a> {
    /// Every replica: live ones first, ejected ones as the last resort.
    pub(crate) fn all(&self) -> &[&'a Arc<Backend>] {
        &self.order
    }

    /// The replicas whose breaker admitted traffic.
    pub(crate) fn live(&self) -> &[&'a Arc<Backend>] {
        &self.order[..self.live]
    }
}

/// A sharded, fault-tolerant routing tier over `pfr-serve` backends.
#[derive(Debug)]
pub struct Router {
    /// The control plane shared with the anti-entropy worker: the
    /// configuration, the membership, the catalog and the hot-cache model
    /// ids, and every membership change, adoption, reconcile and repair.
    control: Arc<ControlPlane>,
    /// The background anti-entropy worker (None when disabled by config).
    sync: Option<SyncWorker>,
    /// The hot-key score cache (None when disabled by config).
    hot: Option<Mutex<ScoreCache>>,
    /// In-flight cold-miss scores by key: the first miss becomes the
    /// leader and pays the backend round trip, concurrent identical
    /// misses park on its [`Flight`] and ride the same answer
    /// (single-flight coalescing — a cold-key stampede costs one hop).
    flights: FlightMap,
    /// Round-robin cursor for asynchronous single-score submissions:
    /// spreads `submit_score` traffic over a model's live replicas instead
    /// of hammering the first one.
    next_rr: AtomicUsize,
    /// The next router-local hot-cache id (the ids themselves live in the
    /// control plane, which retires them).
    next_model_id: AtomicU64,
    stats: Arc<RouterStats>,
    health: Option<HealthChecker>,
    /// The router-local series that live as long as the router: routing
    /// and control-plane counters as gauges. The per-backend series are
    /// rendered from the membership at scrape time
    /// ([`render_backend_metrics`]), so they leave with their backend.
    metrics: Arc<MetricsRegistry>,
    /// Recorded router spans backing [`Router::trace`].
    traces: Arc<TraceStore>,
    /// The ring router spans finish into.
    span_ring: Arc<SpanRing>,
    /// Decides which untraced single scores get a router-minted trace.
    sampler: Sampler,
}

impl Router {
    /// Builds the tier over `addrs` and starts the health prober (if
    /// configured). Backend `i` of the ring is initially `addrs[i]`.
    pub fn connect(addrs: &[SocketAddr], config: RouterConfig) -> Result<Router> {
        if addrs.is_empty() {
            return Err(RouterError::NoBackends);
        }
        // One shared event loop: a fan-out to N replicas submits N
        // operations and spawns zero threads. Every backend holds an `Arc`
        // to it, so the loop thread lives exactly as long as the last
        // backend and joins on the final drop.
        let driver = Arc::new(
            pfr_net::ClientDriver::spawn(pfr_net::ClientConfig {
                connect_timeout: config.conn.connect_timeout,
                io_timeout: config.conn.io_timeout,
                max_idle: config.conn.max_idle,
                ..pfr_net::ClientConfig::default()
            })
            .map_err(RouterError::Io)?,
        );
        let stats = Arc::new(RouterStats::default());
        let metrics = Arc::new(MetricsRegistry::new());
        let traces = Arc::new(TraceStore::new());
        let span_ring = traces.new_ring(SPAN_RING_CAPACITY);
        register_router_gauges(&metrics, &stats, &traces);
        let control = Arc::new(ControlPlane::new(
            config.clone(),
            driver,
            addrs,
            Arc::clone(&stats),
            Arc::clone(&span_ring),
        ));
        {
            let catalog = Arc::clone(&control.catalog);
            metrics.gauge(
                "pfr_control_epoch",
                &[],
                Arc::new(move || catalog.lock().expect("catalog lock poisoned").epoch() as f64),
            );
        }
        let health = config.health_interval.map(|interval| {
            // The prober reads the live membership every round, so
            // backends added later are probed without a restart.
            let roster = Arc::clone(&control);
            HealthChecker::spawn(
                Arc::new(move || roster.snapshot().backends()),
                interval,
                Arc::clone(&stats.probes),
            )
        });
        let hot = (config.hot_cache_capacity > 0)
            .then(|| Mutex::new(ScoreCache::new(config.hot_cache_capacity)));
        let sampler = Sampler::new(config.trace_sample_every);
        // Bootstrap: adopt the newest catalog any peer-fed backend holds
        // (a restarted router recovers roster and placements with no
        // shared filesystem and no config replay), or seed one from the
        // connect roster if the cluster has never seen a catalog.
        control.bootstrap();
        let sync = config
            .sync_interval
            .map(|interval| SyncWorker::spawn(Arc::clone(&control), interval));
        Ok(Router {
            control,
            sync,
            hot,
            flights: Arc::new(Mutex::new(HashMap::new())),
            next_rr: AtomicUsize::new(0),
            next_model_id: AtomicU64::new(0),
            stats,
            health,
            metrics,
            traces,
            span_ring,
            sampler,
        })
    }

    /// The tier's configuration.
    pub fn config(&self) -> &RouterConfig {
        &self.control.config
    }

    /// The control-plane epoch: the local catalog replica's version
    /// counter, bumped on every roster or placement mutation anywhere in
    /// the cluster (once adopted here). Two routers whose
    /// [`Router::catalog_version`]s are equal hold bitwise-identical
    /// catalogs.
    pub fn control_epoch(&self) -> u64 {
        self.control
            .catalog
            .lock()
            .expect("catalog lock poisoned")
            .epoch()
    }

    /// The local catalog replica's full version stamp
    /// `(epoch, writer, digest)` — equality means convergence.
    pub fn catalog_version(&self) -> pfr_control::Version {
        self.control
            .catalog
            .lock()
            .expect("catalog lock poisoned")
            .version()
    }

    /// This router's writer id on the replicated catalog.
    pub fn writer_id(&self) -> u64 {
        self.control.writer
    }

    /// Runs one anti-entropy round inline (exactly what the background
    /// sync worker runs per interval): readmission repair first, then a
    /// digest-first catalog exchange with every live backend. Exposed so
    /// tests and operators can force convergence instead of sleeping.
    pub fn sync_now(&self) {
        self.control.sync_round();
    }

    /// The current membership snapshot. Hold it to observe one consistent
    /// ring across several lookups; the router's own requests do exactly
    /// that.
    pub fn membership(&self) -> Arc<Membership> {
        self.control.snapshot()
    }

    /// Every current member backend, in ring-id order.
    pub fn backends(&self) -> Vec<Arc<Backend>> {
        self.membership().backends()
    }

    /// The current member backend with ring id `id`.
    pub fn backend(&self, id: usize) -> Option<Arc<Backend>> {
        self.membership().backend(id).cloned()
    }

    /// A clone of the current consistent-hash ring.
    pub fn ring(&self) -> HashRing {
        self.membership().ring.clone()
    }

    /// Routing counters.
    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }

    /// The router's own metrics registry (local series only;
    /// [`Router::metrics`] renders the cluster-wide view).
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Recorded router spans backing [`Router::trace`].
    pub fn traces(&self) -> &TraceStore {
        &self.traces
    }

    /// `model`'s replica set: the first `replication` backends of its
    /// clockwise ring walk (health-blind — this is *placement*; reads try
    /// the same set, live replicas first).
    pub fn replica_set(&self, model: &str) -> Vec<usize> {
        let snapshot = self.membership();
        snapshot.ring.replicas(model, snapshot.replication)
    }

    /// Adds a backend at `addr` to the **live** router, make before break:
    /// every placed model whose replica set gains the newcomer is `PUSH`ed
    /// onto it first, then the ring gains its vnodes atomically (one
    /// snapshot swap — in-flight requests keep their old view) and the
    /// health prober picks it up on its next round. Returns the new
    /// backend's ring id. Ids are never reused.
    pub fn add_backend(&self, addr: SocketAddr) -> Result<usize> {
        let id = self.control.next_backend_id.fetch_add(1, Ordering::Relaxed);
        self.control.change_membership(|held| {
            let mut next = held.clone();
            next.add_member(self.control.writer, id, addr.to_string());
            Ok(next)
        })?;
        Ok(id)
    }

    /// Removes backend `id` from the **live** router, make before break:
    /// every placed model that loses a replica is first `PUSH`ed onto its
    /// new replica set, then its vnodes leave the ring atomically
    /// (remapping only its own keys — the `≤ 2/N` bound the ring tests pin
    /// down) and its idle connections are drained. Until the swap it keeps
    /// serving; in-flight requests holding the old snapshot finish against
    /// it (its `Arc` lives until they drop it). The last member cannot be
    /// removed.
    pub fn remove_backend(&self, id: usize) -> Result<()> {
        self.control.change_membership(|held| {
            if !held.roster().any(|(member, _)| member == id) {
                return Err(RouterError::Membership(format!(
                    "backend {id} is not a member"
                )));
            }
            let mut next = held.clone();
            next.remove_member(self.control.writer, id);
            Ok(next)
        })
    }

    /// Places `bundle` under `model` by shipping its text to every replica
    /// over the wire (`PUSH`) — no shared filesystem required. Returns how
    /// many replicas accepted it; errors only if none did. The bundle is
    /// cataloged, so later membership changes re-place it automatically.
    pub fn push(&self, model: &str, bundle: &ModelBundle) -> Result<usize> {
        self.push_text(model, &persistence::bundle_to_string(bundle))
    }

    /// [`Router::push`] for already-serialized bundle text.
    pub fn push_text(&self, model: &str, text: &str) -> Result<usize> {
        // The reconcile gate spans the membership snapshot, the placement
        // and the catalog upsert: a membership reconcile in between would
        // read the old catalog and re-push the old bundle over this one.
        let gate = self.control.gate();
        let placed = self.place_on_replicas(model, text)?;
        self.stats.pushes.fetch_add(1, Ordering::Relaxed);
        // The replicas accepted the bundle, so it parses; cataloging can
        // only fail on a digest-invalid text, which cannot reach here.
        let cataloged = self
            .control
            .catalog
            .lock()
            .expect("catalog lock poisoned")
            .upsert_placement(self.control.writer, model, text)
            .is_ok();
        drop(gate);
        if cataloged {
            self.control.publish();
        }
        self.invalidate_hot_keys_for(model);
        Ok(placed)
    }

    /// The placement walk behind [`Router::push_text`]: `PUSH`es `text` to
    /// every member of `model`'s replica set under one membership
    /// snapshot, counting successes. Replicas whose breaker is
    /// open are skipped — installing into an ejected backend cannot
    /// succeed, and the catalog repairs them on readmission (the prober
    /// lets them back in, the next sync round digest-checks and pushes
    /// what they missed). Errors only if *no* replica accepted,
    /// surfacing the last failure.
    fn place_on_replicas(&self, model: &str, text: &str) -> Result<usize> {
        let snapshot = self.membership();
        let replicas = snapshot.replicas(model);
        let mut placed = 0;
        let mut last_error = (replicas.live().len() < replicas.all().len())
            .then(|| RouterError::Unavailable(model.to_string()));
        for backend in replicas.live() {
            match backend.push(model, text, None) {
                Ok(response) => match classify(&response) {
                    Reply::Payload(_) => placed += 1,
                    Reply::NotLoaded | Reply::Busy | Reply::Rejected(_) => {
                        last_error = Some(RouterError::Backend(response));
                    }
                },
                Err(e) => last_error = Some(RouterError::Io(e)),
            }
        }
        if placed == 0 {
            Err(last_error.unwrap_or(RouterError::NoBackends))
        } else {
            Ok(placed)
        }
    }

    /// Scores one vector: hot-key cache first (bit-exact, no network),
    /// then failover over `model`'s replica set. A thin blocking
    /// wrapper over [`Router::submit_score`].
    pub fn score(&self, model: &str, features: &[f64]) -> Result<f64> {
        self.submit_score(model, features).wait()
    }

    /// Scores one vector with an **explicit trace**: mints a trace id,
    /// sends it on the wire (`T=<id>`), records a router span with
    /// per-stage events, and returns the score alongside the id. Pass the
    /// id to [`Router::trace`] for the full router-plus-backend span
    /// tree. The hot cache is bypassed so the request demonstrably
    /// reaches a backend.
    pub fn score_traced(&self, model: &str, features: &[f64]) -> Result<(f64, u64)> {
        let id = mint_trace_id();
        let score = self.submit_score_traced(model, features, Some(id)).wait()?;
        Ok((score, id))
    }

    /// Starts scoring one vector without blocking: the returned
    /// [`Ticket`] resolves to exactly what [`Router::score`] would have
    /// returned — a hot-cache hit resolves immediately; otherwise the
    /// request is submitted to one live replica (round-robin over the
    /// replica set) and any walk-on answer (io failure, `BUSY`, model
    /// not here) falls back over the rest of the replica set when the
    /// ticket is collected. One caller thread can hold thousands of
    /// these in flight; see also [`Router::completion_queue`].
    pub fn submit_score(&self, model: &str, features: &[f64]) -> Ticket<'_, f64> {
        let trace = self.sampler.fire().then(mint_trace_id);
        self.submit_score_traced(model, features, trace)
    }

    /// The ticket consumer of [`Router::prepare_score`], behind
    /// [`Router::submit_score`] and [`Router::score_traced`]: a follower
    /// parks on its leader's flight, a submission lands on a one-entry
    /// completion, and a traced request's `router/SCORE` span lands in the
    /// router's ring when the ticket resolves.
    fn submit_score_traced(
        &self,
        model: &str,
        features: &[f64],
        trace: Option<u64>,
    ) -> Ticket<'_, f64> {
        match self.prepare_score(model, features, trace) {
            Prepared::Immediate(result) => Ticket::ready(result),
            Prepared::Follower {
                flight,
                mut frame,
                key,
            } => {
                self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                // A follower ships nothing: its frame, unframed, is the
                // line it falls back on if the leader fails.
                frame.pop();
                Ticket::pending(CoalescedPending {
                    router: self,
                    model: model.to_string(),
                    line: frame,
                    key,
                    flight,
                })
            }
            Prepared::Submit(frame, mut finish) => {
                let net = pfr_net::Ticket::new();
                finish.backend.submit(frame, 1, net.queue(), 0);
                if let Some(s) = finish.span.as_mut() {
                    s.event("submit");
                }
                Ticket::pending(ScorePending {
                    router: self,
                    net,
                    finish: Some(finish),
                })
            }
        }
    }

    /// The one preparation of a single score, shared by the ticket path
    /// and the completion queue: hot-cache read, frame, single-flight
    /// claim, post-claim re-check and replica pick. With `trace` set the
    /// hot cache and the flight map are bypassed — the request must
    /// demonstrably reach a backend — and the wire line carries `T=<id>`
    /// (the backend records its own span and echoes the token).
    pub(crate) fn prepare_score(
        &self,
        model: &str,
        features: &[f64],
        trace: Option<u64>,
    ) -> Prepared {
        self.stats.routed.fetch_add(1, Ordering::Relaxed);
        let span = trace.map(|id| ActiveSpan::new(id, "router/SCORE"));
        let key = self.hot_key(model, features);
        if let (Some(key), None) = (&key, trace) {
            if let Some(score) = self.hot_hit(key) {
                return Prepared::Immediate(Ok(score));
            }
            self.stats.hot_misses.fetch_add(1, Ordering::Relaxed);
        }
        let mut frame = String::new();
        write_score_request(&mut frame, model, features, trace);
        // Single-flight: the first cold miss of a key becomes the leader
        // and pays the backend round trip; every concurrent identical
        // miss follows the leader's flight and rides the same answer — a
        // 100-way cold-key stampede costs one backend hop.
        let mut flight = None;
        if let (Some(claim), None) = (&key, trace) {
            match FlightRole::claim(&self.flights, claim) {
                FlightRole::Follower(shared) => {
                    return Prepared::Follower {
                        flight: shared,
                        frame,
                        key,
                    }
                }
                FlightRole::Leader(guard) => {
                    // Double-check the cache after winning leadership: a
                    // previous leader may have published between this
                    // request's miss and its claim. The previous leader
                    // fills the cache *before* its flight un-registers,
                    // and a claim is only possible after that removal —
                    // so this read cannot miss a published answer, and a
                    // stampede can never pay a second round trip.
                    if let Some(score) = self.hot_hit(claim) {
                        guard.complete(Some(score));
                        return Prepared::Immediate(Ok(score));
                    }
                    flight = Some(guard);
                }
            }
        }
        self.dispatch(model, frame, key, flight, span)
    }

    /// The replica pick of a prepared score: `Submit` the frame to one
    /// live replica (round-robin over the replica set), or — no live
    /// replica — resolve inline over the ejected replicas as a last
    /// resort.
    pub(crate) fn dispatch(
        &self,
        model: &str,
        frame: String,
        key: Option<ScoreKey>,
        flight: Option<FlightGuard>,
        span: Option<ActiveSpan>,
    ) -> Prepared {
        let snapshot = self.membership();
        // The one copy of the formatted bytes: the walk-on fallback's line,
        // while the frame itself goes to the net thread.
        let line = frame.strip_suffix('\n').unwrap_or(&frame).to_owned();
        let Some(backend) = self.pick_replica(&snapshot, model) else {
            let result = self.resolve_score(&snapshot, model, &line, key);
            if let Some(flight) = flight {
                flight.complete(result.as_ref().ok().copied());
            }
            if let Some(span) = span {
                span.finish(&self.span_ring);
            }
            return Prepared::Immediate(result);
        };
        Prepared::Submit(
            frame.into_bytes(),
            ScoreFinish {
                snapshot,
                model: model.to_string(),
                line,
                key,
                backend,
                started: Instant::now(),
                span,
                flight,
            },
        )
    }

    /// A tagged completion queue over this router: submit any number of
    /// scores from one thread, drain results in completion order.
    pub fn completion_queue(&self) -> CompletionQueue<'_> {
        CompletionQueue::new(self)
    }

    /// Picks one live replica of `model` (round-robin), or `None` when
    /// every replica's breaker is open.
    fn pick_replica(&self, snapshot: &Membership, model: &str) -> Option<Arc<Backend>> {
        let replicas = snapshot.replicas(model);
        let live = replicas.live();
        let turn = self.next_rr.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(live[turn.checked_rem(live.len())?]))
    }

    /// A hot-cache read of `key`, counted when it hits.
    fn hot_hit(&self, key: &ScoreKey) -> Option<f64> {
        let hot = self.hot.as_ref()?;
        let score = hot.lock().expect("hot cache lock poisoned").get(key)?;
        self.stats.hot_hits.fetch_add(1, Ordering::Relaxed);
        Some(score)
    }

    /// Turns one collected burst outcome into a final score: breaker
    /// settlement, reply classification, replica-set fallback on any
    /// walk-on answer, hot-cache fill. This is the resolution path of
    /// every asynchronous score — it can error only where the blocking
    /// path would have errored (deterministic `ERR`, or the whole replica
    /// set exhausted).
    pub(crate) fn finish_score(&self, finish: ScoreFinish, outcome: BurstResult) -> Result<f64> {
        let ScoreFinish {
            snapshot,
            model,
            line,
            key,
            backend,
            started,
            mut span,
            flight,
        } = finish;
        backend
            .latency_histogram()
            .record_duration(started.elapsed());
        let result = match backend.settle(outcome) {
            Ok(responses) => match responses.first().map(|r| classify(r)) {
                Some(Reply::Payload(payload)) => {
                    if let Some(s) = span.as_mut() {
                        s.event("backend-reply");
                    }
                    self.accept(payload, key)
                }
                Some(Reply::Rejected(msg)) => Err(RouterError::Backend(msg.to_string())),
                // Walk on: not a replica, shed, or an empty burst.
                Some(Reply::NotLoaded) | Some(Reply::Busy) | None => {
                    if let Some(s) = span.as_mut() {
                        s.event("walk-on");
                    }
                    self.resolve_score(&snapshot, &model, &line, key)
                }
            },
            // An io failure — a submission that never started included —
            // is a failover on every path.
            Err(_) => {
                self.stats.failovers.fetch_add(1, Ordering::Relaxed);
                if let Some(s) = span.as_mut() {
                    s.event("failover");
                }
                self.resolve_score(&snapshot, &model, &line, key)
            }
        };
        // Release the followers parked on this flight (the guard's drop
        // then un-registers it). Failures complete as `None`: followers
        // fall back to their own resolution instead of inheriting an
        // error that may have been this leader's alone.
        if let Some(flight) = flight {
            flight.complete(result.as_ref().ok().copied());
        }
        if let Some(span) = span {
            span.finish(&self.span_ring);
        }
        result
    }

    /// Blocking resolution over `model`'s replica set, with the hot-cache
    /// fill on success. Crate-visible: a coalesced follower
    /// falls back through here when its leader failed.
    pub(crate) fn resolve_score(
        &self,
        snapshot: &Membership,
        model: &str,
        line: &str,
        key: Option<ScoreKey>,
    ) -> Result<f64> {
        let response = self.route_line(snapshot, model, line)?;
        self.accept(&response, key)
    }

    /// Parses a `SCORE` payload and fills the hot cache with the score.
    fn accept(&self, payload: &str, key: Option<ScoreKey>) -> Result<f64> {
        let score = parse_score(payload)?;
        if let (Some(hot), Some(key)) = (&self.hot, key) {
            hot.lock()
                .expect("hot cache lock poisoned")
                .insert(key, score);
        }
        Ok(score)
    }

    /// Scores a batch of vectors: rows the hot-key cache can answer never
    /// leave the router; the rest are scatter-gathered — striped over the
    /// live replicas of `model`'s shard, each sub-batch one pipelined
    /// burst, results reassembled in request order. Rows whose sub-batch
    /// fails (a replica died mid-stream) are re-routed individually, so a
    /// single backend loss degrades throughput, never correctness. The
    /// whole request routes against one membership snapshot. A thin
    /// blocking wrapper over [`Router::submit_score_batch`].
    pub fn score_batch(&self, model: &str, rows: &[Vec<f64>]) -> Result<Vec<f64>> {
        self.submit_score_batch(model, rows).wait()
    }

    /// Starts scoring a batch without blocking on the gather: every
    /// sub-burst is submitted to its replica before the [`Ticket`] is
    /// returned, and collection (gather, per-row retry, cache fill) runs
    /// when the ticket is resolved — so one caller can scatter several
    /// batches across the cluster and collect them as they complete.
    pub fn submit_score_batch(&self, model: &str, rows: &[Vec<f64>]) -> Ticket<'_, Vec<f64>> {
        if rows.is_empty() {
            return Ticket::ready(Ok(Vec::new()));
        }
        self.stats.routed.fetch_add(1, Ordering::Relaxed);
        let mut scores: Vec<Option<f64>> = vec![None; rows.len()];
        // One id lookup for the whole batch; per-row keys from it.
        let keys: Vec<Option<ScoreKey>> = match self.hot_model_id(model) {
            Some(id) => rows.iter().map(|row| ScoreKey::new(id, row)).collect(),
            None => vec![None; rows.len()],
        };
        if let Some(hot) = &self.hot {
            let mut hot = hot.lock().expect("hot cache lock poisoned");
            for (slot, key) in scores.iter_mut().zip(keys.iter()) {
                let Some(key) = key else { continue };
                if let Some(score) = hot.get(key) {
                    *slot = Some(score);
                    self.stats.hot_hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.stats.hot_misses.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        // Positions (into `miss`) of the rows the cache could not answer.
        let miss: Vec<usize> = (0..rows.len()).filter(|&i| scores[i].is_none()).collect();
        if miss.is_empty() {
            return Ticket::ready(Ok(collect_scores(scores)));
        }
        let lines = ScoreLines::encode(model, miss.iter().map(|&i| rows[i].as_slice()));
        let snapshot = self.membership();
        let replicas = snapshot.replicas(model);
        let live = replicas.live();
        if live.len() > 1 {
            self.stats.scatters.fetch_add(1, Ordering::Relaxed);
        }
        // Stripe miss positions over the live replicas and submit every
        // replica's whole sub-batch as one operation on the shared event
        // loop (no burst cap — the reactor reads responses while it writes
        // requests, so the batch cannot deadlock the socket buffers), each
        // landing on the batch's queue under its index. The gather runs
        // when the ticket is resolved; zero threads are spawned. With no
        // live replica there is nothing to submit, and every row falls to
        // the gather's per-row retry, which tries the ejected backends as
        // a last resort.
        let net = pfr_net::CompletionQueue::new();
        let subs: Vec<SubBurst> = live
            .iter()
            .enumerate()
            // With fewer rows than replicas the surplus replicas get no
            // chunk at all — an empty burst resolves without touching the
            // network, and settling it would record a phantom breaker
            // success that could re-admit a dead backend.
            .take(lines.len())
            .map(|(r, backend)| {
                let positions: Vec<usize> = (r..lines.len()).step_by(live.len()).collect();
                backend.submit(lines.frame_of(&positions), positions.len(), &net, r as u64);
                SubBurst {
                    positions,
                    backend: Arc::clone(backend),
                    responses: Vec::new(),
                }
            })
            .collect();
        Ticket::pending(BatchPending {
            router: self,
            net,
            outstanding: subs.len(),
            snapshot,
            model: model.to_string(),
            scores,
            keys,
            miss,
            lines,
            subs,
        })
    }

    /// The gather half of a batch: applies sub-burst responses, re-routes
    /// every still-unscored row individually over the replica set
    /// (against the same membership snapshot), fills the hot cache and
    /// assembles the scores in request order.
    pub(crate) fn finish_batch(&self, batch: &mut BatchPending<'_>) -> Result<Vec<f64>> {
        let (scores, miss) = (&mut batch.scores, &batch.miss);
        for sub in &batch.subs {
            // `zip` truncates to the responses actually received; ERR
            // rows and missing tails fall through to the retry below.
            for (&p, response) in sub.positions.iter().zip(sub.responses.iter()) {
                if let Reply::Payload(payload) = classify(response) {
                    if let Ok(score) = parse_score(payload) {
                        scores[miss[p]] = Some(score);
                    }
                }
            }
        }
        // Gather pass: any row still unscored is re-routed individually
        // over the replica set (and a deterministic ERR is surfaced from
        // here), against the same membership snapshot.
        for (p, &i) in miss.iter().enumerate() {
            if scores[i].is_none() {
                self.stats.retried_rows.fetch_add(1, Ordering::Relaxed);
                let response =
                    self.route_line(&batch.snapshot, &batch.model, batch.lines.line(p))?;
                scores[i] = Some(parse_score(&response)?);
            }
        }
        if let Some(hot) = &self.hot {
            let mut hot = hot.lock().expect("hot cache lock poisoned");
            for &i in miss {
                if let (Some(key), Some(score)) = (&batch.keys[i], scores[i]) {
                    hot.insert(key.clone(), score);
                }
            }
        }
        Ok(collect_scores(std::mem::take(scores)))
    }

    /// Verifies that every reachable replica of `model` serves the same
    /// bundle content, via the `EPOCH` digest. Returns the agreed digest
    /// (hex). Replicas that are ejected, dead or not holding the model are
    /// skipped; at least one must answer. Backends outside the replica set
    /// are never asked.
    pub fn verify(&self, model: &str) -> Result<String> {
        let line = format!("EPOCH {model}");
        let snapshot = self.membership();
        let mut digests: Vec<(usize, String)> = Vec::new();
        for backend in snapshot.replicas(model).live() {
            let Some(payload) = payload_of(backend, &line) else {
                continue;
            };
            let digest = payload
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix("digest="))
                .ok_or_else(|| {
                    RouterError::Protocol(format!("EPOCH payload without digest: {payload}"))
                })?;
            digests.push((backend.id(), digest.to_string()));
        }
        let Some((first_id, first)) = digests.first().cloned() else {
            return Err(RouterError::Unavailable(model.to_string()));
        };
        for (id, digest) in &digests[1..] {
            if *digest != first {
                return Err(RouterError::ReplicaDivergence(format!(
                    "model '{model}': backend {first_id} serves {first}, backend {id} serves {digest}"
                )));
            }
        }
        Ok(first)
    }

    /// The model's current hot-cache id — the "generation" of its cache
    /// keys, retired on membership and placement changes — or `None` when
    /// the cache is disabled. Batch paths resolve this once and build
    /// per-row keys from it instead of taking the lock per row.
    fn hot_model_id(&self, model: &str) -> Option<u64> {
        self.hot.as_ref()?;
        let mut ids = self
            .control
            .model_ids
            .lock()
            .expect("model id lock poisoned");
        Some(match ids.get(model) {
            Some(&id) => id,
            None => {
                let id = self.next_model_id.fetch_add(1, Ordering::Relaxed);
                ids.insert(model.to_string(), id);
                id
            }
        })
    }

    /// The hot-key cache key for `(model, features)`, or `None` when the
    /// cache is disabled or the vector is uncacheable (NaN).
    fn hot_key(&self, model: &str, features: &[f64]) -> Option<ScoreKey> {
        ScoreKey::new(self.hot_model_id(model)?, features)
    }

    /// Retires one model's cache id (its placement changed): old keys can
    /// never match again and their entries age out of the LRU.
    fn invalidate_hot_keys_for(&self, model: &str) {
        if self.hot.is_some() {
            self.control
                .model_ids
                .lock()
                .expect("model id lock poisoned")
                .remove(model);
        }
    }

    /// One merged Prometheus-style exposition for the whole cluster: the
    /// router's own series (routing counters, per-backend latency
    /// histograms, breaker state) followed by the **sum over every member
    /// backend** of the series they expose via `METRICS`. Per-verb
    /// latency histograms merge bucket-wise, so the rendered
    /// `_p50`/`_p99`/`_p999` are cluster-wide quantiles — not averages of
    /// per-backend quantiles. Unreachable backends are skipped;
    /// `pfr_router_backends_scraped` says how many answered.
    pub fn metrics(&self) -> String {
        let mut out = self.metrics.render();
        let mut merged = Scrape::default();
        let mut scraped = 0u64;
        for backend in self.membership().backends() {
            render_backend_metrics(&mut out, &backend);
            if let Some(payload) = payload_of(&backend, "METRICS") {
                merged.merge(&Scrape::parse(&unescape_multiline(&payload)));
                scraped += 1;
            }
        }
        out.push_str(&format!("pfr_router_backends_scraped {scraped}\n"));
        out.push_str(&merged.render());
        out
    }

    /// The span tree recorded under trace `id`: the router's own spans at
    /// indent 0, every member backend's spans for the same id nested one
    /// level below — one request's path through the tiers in a single
    /// text block. `None` when no tier recorded the id (never traced, or
    /// already evicted from the bounded rings).
    pub fn trace(&self, id: u64) -> Option<String> {
        let mut out = String::new();
        for span in self.traces.find(id) {
            out.push_str(&span.render(0));
        }
        let line = format!("TRACE {id:016x}");
        for backend in self.membership().backends() {
            // Backends that never saw the id answer ERR; skip them.
            let Some(payload) = payload_of(&backend, &line) else {
                continue;
            };
            for span_line in unescape_multiline(&payload).lines() {
                out.push_str("  ");
                out.push_str(span_line);
                out.push('\n');
            }
        }
        (!out.is_empty()).then_some(out)
    }

    /// Routes one request line over `model`'s replica set in the given
    /// membership snapshot, live replicas first and ejected ones as a last
    /// resort (a stale breaker must degrade latency, not turn a servable
    /// request into an error): io failures fail over, `ERR no model named`
    /// and `BUSY` continue, and any other `ERR` is returned without
    /// failover. The `routed` counter is incremented by the public entry
    /// points, not here — batch retries funnel through this path and must
    /// not double-count.
    fn route_line(&self, snapshot: &Membership, model: &str, line: &str) -> Result<String> {
        let replicas = snapshot.replicas(model);
        if replicas.all().is_empty() {
            return Err(RouterError::NoBackends);
        }
        let mut last_io: Option<std::io::Error> = None;
        for backend in replicas.all() {
            if let Some(payload) = self.attempt(backend, line, &mut last_io)? {
                return Ok(payload);
            }
        }
        match last_io {
            Some(e) => Err(RouterError::Io(e)),
            None => Err(RouterError::Unavailable(model.to_string())),
        }
    }

    /// One routing attempt. `Ok(Some(payload))` is success, `Ok(None)`
    /// means keep walking (io failure or model-not-here), `Err` is a
    /// deterministic request error that must not fail over.
    fn attempt(
        &self,
        backend: &Backend,
        line: &str,
        last_io: &mut Option<std::io::Error>,
    ) -> Result<Option<String>> {
        match backend.exchange(line) {
            Ok(response) => match classify(&response) {
                Reply::Payload(payload) => Ok(Some(payload.to_string())),
                Reply::NotLoaded | Reply::Busy => Ok(None),
                Reply::Rejected(msg) => Err(RouterError::Backend(msg.to_string())),
            },
            Err(e) => {
                self.stats.failovers.fetch_add(1, Ordering::Relaxed);
                *last_io = Some(e);
                Ok(None)
            }
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        if let Some(health) = &mut self.health {
            health.stop();
        }
        if let Some(sync) = &mut self.sync {
            sync.stop();
        }
    }
}

/// What [`Router::prepare_score`] made of one score request.
pub(crate) enum Prepared {
    /// Answered without a submission: a hot-cache hit, or no live replica
    /// and an inline walk of the ejected ones.
    Immediate(Result<f64>),
    /// Another request is flying this key: park on `flight`, or — a
    /// caller that must not park — [`Router::dispatch`] `frame`
    /// uncoalesced.
    Follower {
        flight: Arc<Flight>,
        frame: String,
        key: Option<ScoreKey>,
    },
    /// Ready to ship: the frame goes to `finish.backend`, and `finish`
    /// turns the reply into a score.
    Submit(Vec<u8>, ScoreFinish),
}

/// Registers the routing counters (as gauges over [`RouterStats`]) and
/// the slowest-trace gauge on the router's exposition.
fn register_router_gauges(
    metrics: &MetricsRegistry,
    stats: &Arc<RouterStats>,
    traces: &Arc<TraceStore>,
) {
    type StatReader = fn(&RouterStats) -> u64;
    let readers: [(&str, StatReader); 11] = [
        ("pfr_router_routed_total", RouterStats::routed),
        ("pfr_router_failovers_total", RouterStats::failovers),
        ("pfr_router_scatters_total", RouterStats::scatters),
        ("pfr_router_retried_rows_total", RouterStats::retried_rows),
        (
            "pfr_router_hot_cache_hits_total",
            RouterStats::hot_cache_hits,
        ),
        (
            "pfr_router_hot_cache_misses_total",
            RouterStats::hot_cache_misses,
        ),
        ("pfr_router_probes_total", RouterStats::probes),
        ("pfr_router_pushes_total", RouterStats::pushes),
        ("pfr_router_coalesced_total", RouterStats::coalesced),
        ("pfr_control_sync_rounds_total", RouterStats::sync_rounds),
        (
            "pfr_control_repair_pushes_total",
            RouterStats::repair_pushes,
        ),
    ];
    for (name, read) in readers {
        let stats = Arc::clone(stats);
        metrics.gauge(name, &[], Arc::new(move || read(&stats) as f64));
    }
    let traces = Arc::clone(traces);
    metrics.gauge(
        "pfr_router_trace_slowest_ns",
        &[],
        Arc::new(move || traces.slowest().map(|s| s.total_ns as f64).unwrap_or(0.0)),
    );
}

/// Renders one member backend's latency histogram and breaker gauges,
/// labeled by ring id. Rendered from the live membership rather than
/// registered, so a removed backend's series (and the `Backend` behind
/// them) go with it and a re-addressed id renders once.
fn render_backend_metrics(out: &mut String, backend: &Backend) {
    let labels = format!("{{backend=\"{}\"}}", backend.id());
    render_histogram(
        out,
        "pfr_router_backend_latency_ns",
        &labels,
        &backend.latency_histogram().snapshot(),
    );
    let breaker = backend.breaker();
    for (name, value) in [
        ("pfr_router_breaker_ejections_total", breaker.ejections()),
        (
            "pfr_router_breaker_readmissions_total",
            breaker.readmissions(),
        ),
        ("pfr_router_breaker_open", u64::from(breaker.is_open())),
    ] {
        out.push_str(&format!("{name}{labels} {value}\n"));
    }
}

/// Unwraps a fully scored batch (every row scored or the retry errored).
fn collect_scores(scores: Vec<Option<f64>>) -> Vec<f64> {
    scores
        .into_iter()
        .map(|s| s.expect("every row scored or the retry errored"))
        .collect()
}

/// A backend's one-line reply, classified for routing.
pub(crate) enum Reply<'a> {
    /// `OK <payload>` — success.
    Payload(&'a str),
    /// `ERR no model named ...` — this backend is not a replica; walk on.
    NotLoaded,
    /// `BUSY` — the backend shed the connection at its limit. Overload is
    /// per-replica and transient, so walk on like `NotLoaded`; shedding
    /// degrades capacity, never correctness.
    Busy,
    /// Any other `ERR` — deterministic request error; do not fail over.
    Rejected(&'a str),
}

/// The payload of `backend`'s `OK` answer to `line`; `None` on an io
/// failure or any other answer.
pub(crate) fn payload_of(backend: &Backend, line: &str) -> Option<String> {
    match classify(&backend.exchange(line).ok()?) {
        Reply::Payload(payload) => Some(payload.to_string()),
        _ => None,
    }
}

pub(crate) fn classify(response: &str) -> Reply<'_> {
    // Backends echo a trailing ` T=<id>` token on traced requests; strip
    // it first so every routing path (score parse, digest checks, scatter
    // gathers) is oblivious to whether the request was traced.
    let (response, _) = pfr_obs::strip_trace_echo(response);
    if let Some(payload) = response.strip_prefix("OK ") {
        Reply::Payload(payload)
    } else if response == "OK" {
        Reply::Payload("")
    } else if response == pfr_serve::protocol::BUSY {
        Reply::Busy
    } else if response
        .strip_prefix("ERR ")
        .is_some_and(|msg| msg.starts_with(pfr_serve::protocol::MODEL_NOT_FOUND_PREFIX))
    {
        Reply::NotLoaded
    } else {
        Reply::Rejected(response)
    }
}

/// The `SCORE` lines of a batch's cache misses, each formatted once, back
/// to back and newline-terminated in one buffer. A sub-burst's frame is a
/// copy of its lines' bytes; a per-row retry reads its line in place.
pub(crate) struct ScoreLines {
    text: String,
    /// `ends[p]` is the end (past the newline) of miss position `p`'s line.
    ends: Vec<usize>,
}

impl ScoreLines {
    fn encode<'a>(model: &str, rows: impl ExactSizeIterator<Item = &'a [f64]>) -> ScoreLines {
        let mut lines = ScoreLines {
            text: String::new(),
            ends: Vec::with_capacity(rows.len()),
        };
        for row in rows {
            write_score_request(&mut lines.text, model, row, None);
            lines.ends.push(lines.text.len());
        }
        lines
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    /// Position `p`'s line with its newline.
    fn framed(&self, p: usize) -> &str {
        let start = if p == 0 { 0 } else { self.ends[p - 1] };
        &self.text[start..self.ends[p]]
    }

    /// Position `p`'s line without its newline.
    fn line(&self, p: usize) -> &str {
        let framed = self.framed(p);
        &framed[..framed.len() - 1]
    }

    /// One frame carrying the lines at `positions`, in order.
    fn frame_of(&self, positions: &[usize]) -> Vec<u8> {
        let mut frame = Vec::with_capacity(positions.iter().map(|&p| self.framed(p).len()).sum());
        for &p in positions {
            frame.extend_from_slice(self.framed(p).as_bytes());
        }
        frame
    }
}

/// Parses the score out of a `SCORE` payload (`<probability> <label>`).
/// The probability must be finite and the label token must be present —
/// a truncated or corrupted backend reply surfaces as a protocol error
/// instead of being accepted for its leading float.
fn parse_score(payload: &str) -> Result<f64> {
    let mut parts = payload.split_whitespace();
    let probability = parts
        .next()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| v.is_finite())
        .ok_or_else(|| RouterError::Protocol(format!("unparseable score payload '{payload}'")))?;
    if parts.next().is_none() {
        return Err(RouterError::Protocol(format!(
            "score payload without a label token: '{payload}'"
        )));
    }
    Ok(probability)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_separates_success_absence_and_rejection() {
        assert!(matches!(classify("OK 0.5 1"), Reply::Payload("0.5 1")));
        assert!(matches!(classify("OK"), Reply::Payload("")));
        assert!(matches!(
            classify("ERR no model named 'm' is loaded"),
            Reply::NotLoaded
        ));
        // A shed connection's one-line answer walks on, like NotLoaded.
        assert!(matches!(classify("BUSY"), Reply::Busy));
        assert!(matches!(classify("ERR protocol error"), Reply::Rejected(_)));
        // A response that is neither OK nor ERR is still a rejection (the
        // router never trusts garbage).
        assert!(matches!(classify("banana"), Reply::Rejected(_)));
    }

    #[test]
    fn parse_score_round_trips_shortest_float_formatting() {
        let v: f64 = 0.1 + 0.2;
        let payload = format!("{v} 1");
        assert_eq!(parse_score(&payload).unwrap().to_bits(), v.to_bits());
        assert!(parse_score("").is_err());
        assert!(parse_score("notanumber 1").is_err());
    }

    #[test]
    fn parse_score_rejects_non_finite_and_label_less_payloads() {
        // A bare float without its label token is a truncated reply.
        assert!(parse_score("0.5").is_err());
        // Non-finite probabilities are protocol corruption, not scores.
        assert!(parse_score("inf 1").is_err());
        assert!(parse_score("-inf 0").is_err());
        assert!(parse_score("NaN 1").is_err());
        // The well-formed payload still parses bit-exactly.
        assert_eq!(parse_score("0.25 0").unwrap(), 0.25);
    }

    #[test]
    fn connect_rejects_an_empty_backend_list() {
        assert!(matches!(
            Router::connect(&[], RouterConfig::default()),
            Err(RouterError::NoBackends)
        ));
    }

    #[test]
    fn per_backend_series_leave_with_their_backend_and_render_once() {
        let mut cluster = crate::LocalCluster::boot(2, pfr_serve::ServerConfig::default()).unwrap();
        // No prober and no sync worker: nothing but the membership may hold
        // a backend, and nothing but this test changes the roster.
        let router = cluster
            .router(RouterConfig {
                health_interval: None,
                sync_interval: None,
                ..RouterConfig::default()
            })
            .unwrap();

        let id = router.add_backend(cluster.add_backend().unwrap()).unwrap();
        let departing = Arc::downgrade(&router.membership().backends[&id]);
        let open = format!("pfr_router_breaker_open{{backend=\"{id}\"}} 0\n");
        assert!(router.metrics().contains(&open));
        router.remove_backend(id).unwrap();
        let scrape = router.metrics();
        assert!(!scrape.contains(&format!("backend=\"{id}\"")), "{scrape}");
        assert!(
            departing.upgrade().is_none(),
            "a removed backend is dropped"
        );

        // A catalog that moves id 1 to another address replaces the
        // backend; its series must not render beside the old one's.
        let mut remote = router.control.catalog.lock().unwrap().clone();
        remote.add_member(
            router.writer_id(),
            1,
            cluster.add_backend().unwrap().to_string(),
        );
        assert!(router.control.adopt(remote));
        let scrape = router.metrics();
        let mut seen = std::collections::HashSet::new();
        for line in scrape.lines() {
            let (key, _) = line.rsplit_once(' ').unwrap();
            assert!(seen.insert(key), "'{key}' renders twice:\n{scrape}");
        }
        assert!(seen.contains("pfr_router_breaker_open{backend=\"1\"}"));
    }
}
