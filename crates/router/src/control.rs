//! The router's replicated control plane: an epoch-versioned
//! [`pfr_control::Catalog`] (roster + placements + content digests) kept
//! convergent across any number of routers through the backends they
//! already talk to.
//!
//! ```text
//!   router A ──SYNC──► backend 0 ◄──CATALOG── router B
//!      │                backend 1                  │
//!      └──────CATALOG──► backend 2 ◄──────SYNC─────┘
//! ```
//!
//! Backends are the replication medium, not participants: they store the
//! highest-version catalog they have been offered and serve it back
//! verbatim (`CATALOG` / `CATALOG FULL` / `SYNC`). Routers run the
//! anti-entropy loop in here:
//!
//! * **Digest-first probe** — every sync round asks each live backend
//!   `CATALOG` (one short line: `epoch= writer= digest=`). Only a version
//!   mismatch costs a full transfer: the router pulls `CATALOG FULL` when
//!   the backend holds a newer catalog, or offers its own via `SYNC` when
//!   the backend is stale.
//! * **Highest-version-wins merge** — versions order by `(epoch, writer,
//!   digest)`; adoption and the backend-side merge both replace wholesale
//!   and only in the superseding direction, so every holder converges to
//!   the one maximal version without vector clocks.
//! * **Self-healing repair** — a breaker readmission (the prober let a
//!   backend back in) reruns placement reconciliation, which
//!   digest-checks every replica and `PUSH`es whatever a replica lost
//!   while it was out. Repair pushes are traced (`router/REPAIR` span,
//!   `T=` on the wire) and counted.
//!
//! One loop writes replica content here, `reconcile_placements`: it
//! digest-checks (`EPOCH`) before every `PUSH` and runs under the
//! `reconcile_gate`, which `Router::push_text` also holds from its
//! membership snapshot to its catalog upsert. So concurrent membership
//! changes cannot double-install a bundle or revert a push in progress,
//! and repeated reconciliation never churns generations on replicas that
//! are already correct.

use crate::backend::Backend;
use crate::ring::HashRing;
use crate::router::{classify, payload_of, Membership, Reply, RouterConfig, RouterStats};
use pfr_control::{Catalog, Version};
use pfr_core::persistence;
use pfr_obs::{mint_trace_id, ActiveSpan, SpanRing};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// The shared control-plane state of one router: everything the
/// anti-entropy worker and the request path both touch. The router keeps
/// its own clones of the `Arc`'d pieces for the hot path; this struct is
/// what the background worker holds.
pub(crate) struct ControlPlane {
    pub(crate) config: RouterConfig,
    /// This router's writer id — the deterministic tie-break between
    /// equal-epoch catalogs. Minted once per router from the process id
    /// and a process-local counter, so two routers never collide.
    pub(crate) writer: u64,
    /// The router's shared event loop; backends created during roster
    /// adoption ride the same loop.
    driver: Arc<pfr_net::ClientDriver>,
    pub(crate) membership: Arc<RwLock<Arc<Membership>>>,
    pub(crate) next_backend_id: Arc<AtomicUsize>,
    /// The local catalog replica. Uninitialized (epoch 0) until bootstrap
    /// either adopts a peer's catalog or seeds one from the connect roster.
    pub(crate) catalog: Arc<Mutex<Catalog>>,
    /// The router-local hot-cache model ids — cleared on adoption, because
    /// an adopted catalog may have changed any placement.
    pub(crate) model_ids: Arc<Mutex<HashMap<String, u64>>>,
    /// Serializes the writers of replica content (see
    /// [`ControlPlane::gate`]): two reconcilers that interleaved
    /// digest-check/push pairs could both observe "missing" and
    /// double-PUSH a bundle, and a reconciler that ran between a push's
    /// placement and its catalog upsert would re-push the old bundle.
    reconcile_gate: Mutex<()>,
    /// Last-seen breaker readmission count per ring id: a delta means the
    /// prober re-admitted that backend since we last looked, so it may
    /// have missed placements while it was ejected.
    readmission_marks: Mutex<HashMap<usize, u64>>,
    stats: Arc<RouterStats>,
    span_ring: Arc<SpanRing>,
}

impl std::fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlane")
            .field("writer", &self.writer)
            .finish_non_exhaustive()
    }
}

impl ControlPlane {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        config: RouterConfig,
        writer: u64,
        driver: Arc<pfr_net::ClientDriver>,
        membership: Arc<RwLock<Arc<Membership>>>,
        next_backend_id: Arc<AtomicUsize>,
        catalog: Arc<Mutex<Catalog>>,
        model_ids: Arc<Mutex<HashMap<String, u64>>>,
        stats: Arc<RouterStats>,
        span_ring: Arc<SpanRing>,
    ) -> ControlPlane {
        ControlPlane {
            config,
            writer,
            driver,
            membership,
            next_backend_id,
            catalog,
            model_ids,
            reconcile_gate: Mutex::new(()),
            readmission_marks: Mutex::new(HashMap::new()),
            stats,
            span_ring,
        }
    }

    fn snapshot(&self) -> Arc<Membership> {
        Arc::clone(&self.membership.read().expect("membership lock poisoned"))
    }

    fn local_version(&self) -> (bool, Version) {
        let catalog = self.catalog.lock().expect("catalog lock poisoned");
        (catalog.is_initialized(), catalog.version())
    }

    /// Bootstraps the catalog when the router connects: adopt the newest
    /// catalog any reachable backend holds (a restarted router recovers
    /// its entire roster and every placement from its peers — no shared
    /// filesystem, no config replay); if nobody holds one, seed a catalog
    /// from the connect roster. Either way the result is offered back to
    /// the cluster so the next router to ask finds it.
    pub(crate) fn bootstrap(&self) {
        let snapshot = self.snapshot();
        let mut best: Option<(Version, Arc<Backend>)> = None;
        for backend in snapshot.backends.values() {
            let Some(payload) = payload_of(backend, "CATALOG") else {
                continue;
            };
            // `none` (the backend holds no catalog) parses as no version.
            let Ok(version) = Version::parse_summary(&payload) else {
                continue;
            };
            if best.as_ref().is_none_or(|(b, _)| version > *b) {
                best = Some((version, Arc::clone(backend)));
            }
        }
        let adopted = match best {
            Some((version, backend)) => {
                let (_, local) = self.local_version();
                version > local && self.pull_and_adopt(&backend)
            }
            None => false,
        };
        if !adopted {
            let roster: Vec<(usize, String)> = snapshot
                .backends
                .iter()
                .map(|(&id, backend)| (id, backend.addr().to_string()))
                .collect();
            let mut catalog = self.catalog.lock().expect("catalog lock poisoned");
            if !catalog.is_initialized() {
                catalog.set_roster(self.writer, roster);
            }
        }
        self.publish();
    }

    /// One anti-entropy round: repair readmitted backends, then
    /// digest-probe every live backend's catalog and pull or push
    /// whichever side is behind.
    pub(crate) fn sync_round(&self) {
        self.stats.record_sync_round();
        self.repair_readmitted();
        let (initialized, _) = self.local_version();
        let snapshot = self.snapshot();
        for backend in snapshot.backends.values() {
            if !backend.breaker().available() {
                continue;
            }
            let Some(payload) = payload_of(backend, "CATALOG") else {
                continue;
            };
            if payload == "none" {
                if initialized {
                    self.offer(backend);
                }
                continue;
            }
            let Ok(remote) = Version::parse_summary(&payload) else {
                continue;
            };
            // Re-read the local version each iteration: an adoption
            // earlier in this very round may have advanced it.
            let (_, local) = self.local_version();
            if remote > local {
                self.pull_and_adopt(backend);
            } else if local > remote {
                self.offer(backend);
            }
        }
    }

    /// Pulls the backend's full catalog and adopts it if it still
    /// supersedes ours. Returns whether an adoption happened.
    fn pull_and_adopt(&self, backend: &Backend) -> bool {
        let Some(payload) = payload_of(backend, "CATALOG FULL") else {
            return false;
        };
        // `none` (the backend dropped its catalog since) parses as no catalog.
        let Ok(remote) = Catalog::from_text(&pfr_control::unescape(&payload)) else {
            return false;
        };
        self.adopt(remote)
    }

    /// Adopts a remote catalog wholesale (highest version wins): swaps
    /// the local replica, rebuilds membership from the adopted roster,
    /// retires the hot-cache keys of every placement whose *content*
    /// changed, and reconciles placements against the new view.
    ///
    /// Scores are deterministic in the bundle content, so a cached score
    /// goes stale only when its model's digest changes (or the placement
    /// disappears) — a content-identical adoption, the common
    /// anti-entropy case, must not flush a warm cache.
    pub(crate) fn adopt(&self, remote: Catalog) -> bool {
        let stale: Vec<String> = {
            let mut catalog = self.catalog.lock().expect("catalog lock poisoned");
            if !remote.supersedes(&catalog) {
                return false;
            }
            let changed = remote.placements().filter(|(model, incoming)| {
                catalog
                    .placement(model)
                    .is_none_or(|held| held.digest != incoming.digest)
            });
            let removed = catalog
                .placements()
                .filter(|(model, _)| remote.placement(model).is_none());
            let stale = changed
                .map(|(model, _)| model.to_string())
                .chain(removed.map(|(model, _)| model.to_string()))
                .collect();
            *catalog = remote.clone();
            stale
        };
        self.apply_roster(&remote);
        if !stale.is_empty() {
            let mut ids = self.model_ids.lock().expect("model id lock poisoned");
            for model in &stale {
                ids.remove(model);
            }
        }
        self.reconcile_placements();
        true
    }

    /// Rebuilds membership from an adopted catalog's roster. Backends
    /// whose `(id, addr)` survive are reused (their breaker state and
    /// latency history carry over); new ids get fresh backends on the
    /// shared driver. Ring ids stay never-reused: the id allocator is
    /// bumped past the adopted maximum.
    fn apply_roster(&self, catalog: &Catalog) {
        let desired: BTreeMap<usize, SocketAddr> = catalog
            .roster()
            .filter_map(|(id, addr)| addr.parse().ok().map(|parsed| (id, parsed)))
            .collect();
        if desired.is_empty() {
            // Never adopt down to zero members: an empty roster would
            // leave the router unable to reach the very peers it needs
            // to learn a better catalog from.
            return;
        }
        let mut current = self.membership.write().expect("membership lock poisoned");
        let unchanged = current.backends.len() == desired.len()
            && desired
                .iter()
                .all(|(id, addr)| current.backends.get(id).is_some_and(|b| b.addr() == *addr));
        if unchanged {
            return;
        }
        let mut ring = HashRing::new(self.config.vnodes);
        let mut backends = BTreeMap::new();
        for (id, addr) in desired {
            let backend = match current.backends.get(&id) {
                Some(existing) if existing.addr() == addr => Arc::clone(existing),
                _ => Arc::new(Backend::new(
                    id,
                    addr,
                    Arc::clone(&self.driver),
                    self.config.breaker,
                )),
            };
            ring.add(id);
            backends.insert(id, backend);
        }
        let top = backends.keys().next_back().copied().unwrap_or(0);
        self.next_backend_id.fetch_max(top + 1, Ordering::Relaxed);
        *current = Arc::new(Membership {
            ring,
            backends,
            epoch: current.epoch + 1,
        });
    }

    /// Offers the local catalog to every live member backend (fire and
    /// forget — the sync loop retries whoever missed it).
    pub(crate) fn publish(&self) {
        let Some(text) = self.catalog_text() else {
            return;
        };
        for backend in self.snapshot().backends.values() {
            if backend.breaker().available() {
                let _ = backend.sync(&text);
            }
        }
    }

    /// Offers the local catalog to one backend.
    fn offer(&self, backend: &Backend) {
        if let Some(text) = self.catalog_text() {
            let _ = backend.sync(&text);
        }
    }

    /// The local catalog as `SYNC` text, once it has been initialized.
    fn catalog_text(&self) -> Option<String> {
        let catalog = self.catalog.lock().expect("catalog lock poisoned");
        catalog.is_initialized().then(|| catalog.to_text())
    }

    /// The catalog's placements, snapshotted as
    /// `(model, bundle text, expected digest hex)` rows.
    fn placements(&self) -> Vec<(String, String, String)> {
        let catalog = self.catalog.lock().expect("catalog lock poisoned");
        catalog
            .placements()
            .map(|(model, placement)| {
                (
                    model.to_string(),
                    placement.bundle_text.clone(),
                    persistence::digest_hex(placement.digest),
                )
            })
            .collect()
    }

    /// Whether a replica needs a (re-)push of `model`, decided by the
    /// `EPOCH` digest. Every push in this module is gated on this check —
    /// that is what makes repair idempotent.
    fn replica_needs_push(&self, backend: &Backend, model: &str, expected: &str) -> bool {
        match backend.exchange(&format!("EPOCH {model}")) {
            Ok(response) => match classify(&response) {
                Reply::Payload(payload) => {
                    payload
                        .split_whitespace()
                        .find_map(|kv| kv.strip_prefix("digest="))
                        != Some(expected)
                }
                // Shed at the connection limit: push anyway — overload is
                // transient and an install is cheaper than staying
                // under-replicated until the next readmission.
                Reply::NotLoaded | Reply::Busy => true,
                Reply::Rejected(_) => false,
            },
            // The probe itself failed: attempt the push anyway — it fed
            // the breaker, and "unreachable right now" must not leave the
            // model under-replicated until the next membership change.
            Err(_) => true,
        }
    }

    /// Holds the reconcile gate: every writer of replica content
    /// ([`crate::Router::push_text`] and [`ControlPlane::reconcile_placements`])
    /// runs under it, so no reconciler can read a catalog that a placement
    /// in progress is about to supersede.
    pub(crate) fn gate(&self) -> MutexGuard<'_, ()> {
        self.reconcile_gate.lock().expect("reconcile gate poisoned")
    }

    /// Re-establishes every cataloged placement on its current replica
    /// set: each replica is `EPOCH`-checked and `PUSH`ed only where its
    /// digest differs, under one traced `router/REPAIR` span. Replicas
    /// whose breaker is open are skipped — pushing into an ejected backend
    /// cannot succeed, and its readmission reruns this loop the moment the
    /// prober lets it back in. Membership changes, adoptions and
    /// readmissions all repair through here.
    pub(crate) fn reconcile_placements(&self) {
        let _gate = self.gate();
        let snapshot = self.snapshot();
        let mut span: Option<ActiveSpan> = None;
        for (model, text, expected) in &self.placements() {
            for id in snapshot
                .ring()
                .replicas(model, self.config.replication.max(1))
            {
                let Some(backend) = snapshot.backend(id) else {
                    continue;
                };
                if !backend.breaker().available()
                    || !self.replica_needs_push(backend, model, expected)
                {
                    continue;
                }
                let span =
                    span.get_or_insert_with(|| ActiveSpan::new(mint_trace_id(), "router/REPAIR"));
                span.event("digest-mismatch");
                if backend.push(model, text, Some(span.trace_id())).is_ok() {
                    self.stats.record_repair_push();
                    span.event("repair-push");
                }
            }
        }
        if let Some(span) = span {
            span.finish(&self.span_ring);
        }
    }

    /// Detects breaker readmissions since the last round and, if there
    /// was any, reconciles: a backend that was dead through a placement
    /// change gets what it missed without any operator action — the
    /// prober readmits it, the next sync round repairs it.
    pub(crate) fn repair_readmitted(&self) {
        let snapshot = self.snapshot();
        let mut due = false;
        {
            let mut marks = self
                .readmission_marks
                .lock()
                .expect("readmission marks poisoned");
            for (&id, backend) in &snapshot.backends {
                let readmissions = backend.breaker().readmissions();
                let mark = marks.entry(id).or_insert(0);
                due |= readmissions > *mark;
                *mark = readmissions;
            }
        }
        if due {
            self.reconcile_placements();
        }
    }
}

/// The background anti-entropy worker: one thread, one
/// [`ControlPlane::sync_round`] per interval, stopped by dropping the
/// router (same shape as the health prober).
#[derive(Debug)]
pub(crate) struct SyncWorker {
    stop: Option<Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl SyncWorker {
    pub(crate) fn spawn(control: Arc<ControlPlane>, interval: Duration) -> SyncWorker {
        let (stop, stopped): (Sender<()>, Receiver<()>) = mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("pfr-router-sync".to_string())
            .spawn(move || loop {
                match stopped.recv_timeout(interval) {
                    Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
                    Err(RecvTimeoutError::Timeout) => control.sync_round(),
                }
            })
            .expect("spawning the sync worker thread");
        SyncWorker {
            stop: Some(stop),
            thread: Some(thread),
        }
    }

    pub(crate) fn stop(&mut self) {
        if let Some(stop) = self.stop.take() {
            let _ = stop.send(());
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
