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
//! One loop writes replica content here, `reconcile`: it digest-checks
//! (`EPOCH`) before every `PUSH` and runs under the `reconcile_gate`,
//! which `Router::push_text` also holds from its membership snapshot to
//! its catalog upsert. So concurrent membership changes cannot
//! double-install a bundle or revert a push in progress, and repeated
//! reconciliation never churns generations on replicas that are already
//! correct.
//!
//! One function changes membership, `change_membership`, behind
//! `add_backend`, `remove_backend` and catalog adoption alike. It is
//! *make before break*: under the gate it reconciles the next catalog's
//! placements against the next snapshot and only then stores both, so
//! readers — who never leave a model's replica set — see a new replica
//! only once it holds the model, and a departing one until its
//! successors do.

use crate::backend::Backend;
use crate::error::RouterError;
use crate::router::{classify, payload_of, Membership, Reply, RouterConfig, RouterStats};
use crate::Result;
use pfr_control::{Catalog, Version};
use pfr_core::persistence;
use pfr_obs::{mint_trace_id, ActiveSpan, SpanRing};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// The control-plane state of one router, shared by the request path
/// and the anti-entropy worker: the configuration, the membership, the
/// catalog and the hot-cache model ids live here and nowhere else.
pub(crate) struct ControlPlane {
    pub(crate) config: RouterConfig,
    /// This router's writer id — the deterministic tie-break between
    /// equal-epoch catalogs. Minted once per router from the process id
    /// and a process-local counter, so two routers never collide.
    pub(crate) writer: u64,
    /// The router's shared event loop; every backend rides it, so a
    /// fan-out to N replicas spawns zero threads.
    driver: Arc<pfr_net::ClientDriver>,
    /// The current membership snapshot; only
    /// [`ControlPlane::change_membership`] replaces it.
    membership: RwLock<Arc<Membership>>,
    /// Ring ids are never reused: a removed backend's id stays retired so
    /// stale snapshots and logs cannot confuse two incarnations. Bumped
    /// past adopted rosters.
    pub(crate) next_backend_id: AtomicUsize,
    /// The local catalog replica: roster + placements + content digests
    /// under one epoch-stamped version — the source of truth for
    /// reconciliation and what a restarted router bootstraps from its
    /// peers. Uninitialized (epoch 0) until bootstrap either adopts a
    /// peer's catalog or seeds one from the connect roster. (`Arc` only
    /// for the epoch gauge.)
    pub(crate) catalog: Arc<Mutex<Catalog>>,
    /// Router-local hot-cache ids per model name. Retiring an id orphans
    /// every cached entry for the model — generation invalidation without
    /// a scan: one model on a push, every model on a membership change,
    /// the changed ones on adoption.
    pub(crate) model_ids: Mutex<HashMap<String, u64>>,
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
    /// The control plane of a router over `addrs` (backend `i` is ring id
    /// `i`), with an uninitialized catalog until [`ControlPlane::bootstrap`].
    pub(crate) fn new(
        config: RouterConfig,
        driver: Arc<pfr_net::ClientDriver>,
        addrs: &[SocketAddr],
        stats: Arc<RouterStats>,
        span_ring: Arc<SpanRing>,
    ) -> ControlPlane {
        let backends = addrs
            .iter()
            .enumerate()
            .map(|(id, &addr)| {
                let backend = Backend::new(id, addr, Arc::clone(&driver), config.breaker);
                (id, Arc::new(backend))
            })
            .collect();
        let membership = Membership::new(backends, &config, 0);
        let writer = mint_writer();
        ControlPlane {
            config,
            writer,
            driver,
            membership: RwLock::new(Arc::new(membership)),
            next_backend_id: AtomicUsize::new(addrs.len()),
            catalog: Arc::new(Mutex::new(Catalog::new(writer))),
            model_ids: Mutex::new(HashMap::new()),
            reconcile_gate: Mutex::new(()),
            readmission_marks: Mutex::new(HashMap::new()),
            stats,
            span_ring,
        }
    }

    /// The current membership snapshot.
    pub(crate) fn snapshot(&self) -> Arc<Membership> {
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

    /// Adopts a remote catalog wholesale (highest version wins) through
    /// [`ControlPlane::change_membership`]. Returns whether it was adopted:
    /// a catalog that does not supersede ours, or whose roster holds no
    /// backend, is not.
    pub(crate) fn adopt(&self, remote: Catalog) -> bool {
        self.change_membership(|held| match remote.supersedes(held) {
            true => Ok(remote),
            false => Err(RouterError::Membership(
                "the offered catalog does not supersede ours".to_string(),
            )),
        })
        .is_ok()
    }

    /// The one membership change, make before break. Under the reconcile
    /// gate, `next` turns the held catalog into the next one: one roster
    /// entry more or less for `add_backend` and `remove_backend`, a
    /// superseding peer catalog for adoption. Its roster is the next
    /// membership, and every one of its placements is reconciled onto the
    /// next snapshot's replica sets *before* that snapshot is stored — so
    /// a newcomer answers only once it holds its models, and a departing
    /// replica keeps answering until its successors do. A newcomer whose
    /// breaker is open is stored anyway: reads fall to the other replicas
    /// and its readmission repairs it. Then the catalog is swapped in,
    /// hot-cache ids retire (every model's when the membership changed,
    /// else those whose content changed), departed backends drain their
    /// idle connections and the catalog is published. Members whose `(id,
    /// addr)` survive keep their `Backend` (breaker state and latency
    /// history carry over). A roster with no backend is refused: it would
    /// leave the router unable to reach the very peers it needs to learn
    /// a better catalog from.
    pub(crate) fn change_membership(
        &self,
        next: impl FnOnce(&Catalog) -> Result<Catalog>,
    ) -> Result<()> {
        let gate = self.gate();
        let catalog = next(&self.catalog.lock().expect("catalog lock poisoned"))?;
        // Unparseable addresses are skipped.
        let roster: BTreeMap<usize, SocketAddr> = catalog
            .roster()
            .filter_map(|(id, addr)| addr.parse().ok().map(|parsed| (id, parsed)))
            .collect();
        if roster.is_empty() {
            return Err(RouterError::Membership(
                "refusing to remove the last backend".to_string(),
            ));
        }
        let current = self.snapshot();
        let kept = |id: usize, addr: SocketAddr| current.backend(id).filter(|b| b.addr() == addr);
        let changed = roster.len() != current.len()
            || roster.iter().any(|(&id, &addr)| kept(id, addr).is_none());
        let next = changed.then(|| {
            let backends = roster
                .iter()
                .map(|(&id, &addr)| {
                    let backend = kept(id, addr).cloned().unwrap_or_else(|| {
                        Arc::new(Backend::new(
                            id,
                            addr,
                            Arc::clone(&self.driver),
                            self.config.breaker,
                        ))
                    });
                    (id, backend)
                })
                .collect();
            Arc::new(Membership::new(backends, &self.config, current.epoch + 1))
        });
        let snapshot = next.clone().unwrap_or_else(|| Arc::clone(&current));
        self.reconcile(&gate, &snapshot, &placement_rows(&catalog));
        if let Some(next) = next {
            let top = roster.keys().next_back().copied().unwrap_or(0);
            self.next_backend_id.fetch_max(top + 1, Ordering::Relaxed);
            *self.membership.write().expect("membership lock poisoned") = next;
        }
        let mut held = self.catalog.lock().expect("catalog lock poisoned");
        // Scores are deterministic in the bundle content, so a cached score
        // goes stale only when its model's digest changes or its placement
        // goes: a content-identical adoption, the common anti-entropy case,
        // must not flush a warm cache.
        let digest = |of: &Catalog, model: &str| of.placement(model).map(|p| p.digest);
        let stale: Vec<String> = held
            .placements()
            .chain(catalog.placements())
            .map(|(model, _)| model)
            .filter(|model| digest(&held, model) != digest(&catalog, model))
            .map(str::to_string)
            .collect();
        *held = catalog;
        drop(held);
        drop(gate);
        let mut ids = self.model_ids.lock().expect("model id lock poisoned");
        if changed {
            ids.clear();
            for (id, backend) in &current.backends {
                if roster.get(id) != Some(&backend.addr()) {
                    backend.drain_idle();
                }
            }
        } else {
            for model in &stale {
                ids.remove(model);
            }
        }
        drop(ids);
        self.publish();
        Ok(())
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
    /// ([`crate::Router::push_text`] and [`ControlPlane::reconcile`]) runs
    /// under it, so no reconciler can read a catalog that a placement in
    /// progress is about to supersede, and no push lands between a
    /// membership change's reconcile and its snapshot swap.
    pub(crate) fn gate(&self) -> MutexGuard<'_, ()> {
        self.reconcile_gate.lock().expect("reconcile gate poisoned")
    }

    /// Re-establishes every placement (rows of [`placement_rows`]) on its
    /// replica set in `snapshot`: each replica is `EPOCH`-checked and
    /// `PUSH`ed only where its digest differs, under one traced
    /// `router/REPAIR` span. Replicas whose breaker is open are skipped —
    /// pushing into an ejected backend cannot succeed, and its readmission
    /// reruns this loop the moment the prober lets it back in. Membership
    /// changes, adoptions and readmissions all repair through here;
    /// `_gate` is the reconcile gate the caller holds.
    fn reconcile(
        &self,
        _gate: &MutexGuard<'_, ()>,
        snapshot: &Membership,
        placements: &[(String, String, String)],
    ) {
        let mut span: Option<ActiveSpan> = None;
        for (model, text, expected) in placements {
            for backend in snapshot.replicas(model).live() {
                if !self.replica_needs_push(backend, model, expected) {
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
            let gate = self.gate();
            let placements = placement_rows(&self.catalog.lock().expect("catalog lock poisoned"));
            self.reconcile(&gate, &self.snapshot(), &placements);
        }
    }
}

/// A catalog's placements, snapshotted as `(model, bundle text, expected
/// digest hex)` rows, so a reconcile pushes without holding the catalog.
fn placement_rows(catalog: &Catalog) -> Vec<(String, String, String)> {
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

/// Mints a cluster-unique catalog writer id: process id in the high
/// bits, a process-local counter in the low — distinct across routers in
/// one process and across processes on one cluster.
fn mint_writer() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    (u64::from(std::process::id()) << 32) | NEXT.fetch_add(1, Ordering::Relaxed)
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
