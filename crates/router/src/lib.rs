//! # pfr-router
//!
//! A sharded, fault-tolerant routing tier over multiple `pfr-serve`
//! backends — the scale-out half of the serving story. One `pfr-serve`
//! process (PR 1) owns a registry, a cache and a worker pool; this crate
//! makes *N* of them behave like one service that grows capacity by adding
//! shards, in the style of scale-out serving designs like Noria and the
//! partitioned LSST/Qserv architecture:
//!
//! * [`HashRing`] — a consistent-hash ring with virtual nodes mapping model
//!   names to an ordered backend preference list; replica sets are its
//!   first `R` entries, membership changes remap only `~1/N` of keys.
//! * [`Membership`] — one immutable (ring, backends, epoch) snapshot;
//!   requests route against a single snapshot, so live
//!   [`Router::add_backend`]/[`Router::remove_backend`] calls swap one
//!   `Arc` and can never tear an in-flight scatter.
//! * One shared `pfr-net` reactor client carries every backend's traffic
//!   through one submission core ([`Backend::submit`]) whose result lands
//!   on a completion queue — zero threads per exchange; [`ConnConfig`]
//!   holds its deployment timeouts.
//! * [`CircuitBreaker`] / [`Backend`] — consecutive-failure ejection with
//!   probation and half-open re-admission; the request path and the
//!   background [`HealthChecker`] feed the same breaker (the prober reads
//!   the live membership every round, so new members are probed at once).
//! * [`Router`] — placement ([`Router::push`] ships bundle text over the
//!   wire and catalogs it), single-vector
//!   scoring with failover behind a bit-exact hot-key LRU, scatter-gather
//!   batch scoring that stripes rows over live replicas and reassembles in
//!   order, `EPOCH`-digest verification that all replicas serve
//!   bit-identical model content, and automatic placement reconciliation
//!   after every membership change.
//! * The **replicated placement catalog** — every roster and placement
//!   mutation lands in an epoch-versioned [`pfr_control::Catalog`] that
//!   routers replicate *through the backends they already talk to*
//!   (`CATALOG`/`SYNC` verbs, digest-first anti-entropy,
//!   highest-version-wins). Any number of routers over one cluster
//!   converge to identical placement views; a hard-killed router
//!   bootstraps its entire catalog back from its peers at connect; a
//!   backend re-admitted by the breaker is digest-checked and repaired
//!   with traced `PUSH`es — no shared filesystem, no config replay.
//! * **Single-flight miss coalescing** — concurrent identical cold-key
//!   misses elect one leader that pays the backend round trip; a ticketed
//!   follower parks on its flight and rides the same answer, so a
//!   cold-key stampede costs one hop instead of N.
//! * [`Ticket`] / [`CompletionQueue`] — the asynchronous submission API.
//!   Every single score is prepared once (hot cache, frame, single-flight
//!   claim, replica pick); a ticket or a tagged queue only decides where
//!   the result lands. Resolution runs the blocking calls' failover and
//!   cache path, so results are bit-for-bit the same.
//! * [`LocalCluster`] — an in-process harness booting real servers on
//!   ephemeral ports (growable at runtime) for tests, benches and demos.
//!
//! Failure model: io errors fail over (and count toward ejection);
//! deterministic request errors (`ERR` other than "no model named") do
//! not; scores are bit-exact regardless of which replica answers, because
//! serving is deterministic and replicas are digest-verified to hold the
//! same content. Killing one backend of an `R ≥ 2` tier degrades capacity,
//! never correctness — the cluster end-to-end test kills a replica under
//! concurrent load and asserts every response stays bitwise identical to
//! offline inference.
//!
//! ## Quick start
//!
//! ```no_run
//! use pfr_router::{LocalCluster, RouterConfig};
//! use pfr_serve::ServerConfig;
//!
//! let mut cluster = LocalCluster::boot(3, ServerConfig::default()).unwrap();
//! let router = cluster.router(RouterConfig::default()).unwrap();
//! # let bundle: pfr_core::persistence::ModelBundle = unimplemented!();
//! // Wire-level placement: no shared filesystem needed.
//! router.push("admissions", &bundle).unwrap();
//! router.verify("admissions").unwrap(); // replicas agree on content
//! let score = router.score("admissions", &[0.3, 1.2, 1.0]).unwrap();
//!
//! // Elasticity: grow and shrink the live cluster; placements reconcile.
//! let addr = cluster.add_backend().unwrap();
//! let id = router.add_backend(addr).unwrap();
//! router.remove_backend(0).unwrap();
//! # let _ = (score, id);
//! ```
//!
//! See `DESIGN.md` in this crate for the ring, replication and failover
//! decisions, and `examples/router_demo.rs` at the workspace root for a
//! full train → place → route → kill-a-backend walkthrough.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod backend;
pub mod cluster;
mod control;
pub mod error;
pub mod health;
pub mod ring;
pub mod router;
pub mod ticket;

pub use backend::{Backend, BreakerConfig, CircuitBreaker, ConnConfig};
pub use cluster::LocalCluster;
pub use error::RouterError;
pub use health::{HealthChecker, Roster};
pub use ring::{HashRing, DEFAULT_VNODES};
pub use router::{Membership, Router, RouterConfig, RouterStats};
pub use ticket::{CompletionQueue, Ticket};

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, RouterError>;
