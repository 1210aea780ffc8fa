//! An in-process cluster harness: N real `pfr-serve` servers on ephemeral
//! loopback ports, plus helpers to build a router over them (which places
//! bundles with [`crate::Router::push`]), boot extra backends at runtime
//! (elasticity tests) and kill backends mid-test.
//!
//! This is the zero-infrastructure way to exercise the routing tier: every
//! component is the production code path (real sockets, real protocol,
//! real breakers) — only process boundaries are simulated by threads.

use crate::router::{Router, RouterConfig};
use crate::Result;
use pfr_serve::{Server, ServerConfig};
use std::net::SocketAddr;

/// A booted set of serve backends, killable one by one and growable at
/// runtime.
#[derive(Debug)]
pub struct LocalCluster {
    servers: Vec<Option<Server>>,
    addrs: Vec<SocketAddr>,
    config: ServerConfig,
}

impl LocalCluster {
    /// Boots `n` backends, each from its own copy of `config` (the bind
    /// address is forced to an ephemeral loopback port).
    pub fn boot(n: usize, config: ServerConfig) -> Result<LocalCluster> {
        let mut cluster = LocalCluster {
            servers: Vec::with_capacity(n),
            addrs: Vec::with_capacity(n),
            config,
        };
        for _ in 0..n {
            cluster.add_backend()?;
        }
        Ok(cluster)
    }

    /// Boots one more backend from the cluster's config and returns its
    /// address — hand it to [`crate::Router::add_backend`] to join it to a
    /// live router.
    pub fn add_backend(&mut self) -> Result<SocketAddr> {
        self.add_backend_with(self.config.clone())
    }

    /// Boots one more backend from an explicit per-backend `config` (the
    /// bind address is still forced to an ephemeral loopback port). This is
    /// how backends get configuration that must *differ* per member — most
    /// usefully a private journal directory each, since two servers must
    /// never append to the same write-ahead journal.
    pub fn add_backend_with(&mut self, config: ServerConfig) -> Result<SocketAddr> {
        let server = Server::spawn(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..config
        })
        .map_err(|e| crate::RouterError::Backend(e.to_string()))?;
        let addr = server.addr();
        self.addrs.push(addr);
        self.servers.push(Some(server));
        Ok(addr)
    }

    /// Backend addresses in ring-id order.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Number of booted backends (killed ones included).
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the cluster has no backends.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Backends still alive.
    pub fn live(&self) -> usize {
        self.servers.iter().filter(|s| s.is_some()).count()
    }

    /// The `i`-th backend's server handle, if still alive.
    pub fn server(&self, i: usize) -> Option<&Server> {
        self.servers.get(i).and_then(|s| s.as_ref())
    }

    /// A router fronting every backend of this cluster.
    pub fn router(&self, config: RouterConfig) -> Result<Router> {
        Router::connect(&self.addrs, config)
    }

    /// Kills backend `i`: its server shuts down (closing every established
    /// connection), its port goes dead. Returns whether it was alive.
    pub fn kill(&mut self, i: usize) -> bool {
        match self.servers.get_mut(i).and_then(Option::take) {
            Some(server) => {
                server.shutdown();
                true
            }
            None => false,
        }
    }
}

impl Drop for LocalCluster {
    fn drop(&mut self) {
        for server in self.servers.iter_mut().filter_map(Option::take) {
            server.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BreakerConfig, ConnConfig};
    use pfr_core::persistence::{ClassifierSection, ModelBundle, StandardizerParams};
    use pfr_core::{Pfr, PfrConfig};
    use pfr_graph::{KnnGraphBuilder, SparseGraph};
    use pfr_linalg::Matrix;
    use std::time::Duration;

    pub(crate) fn toy_bundle() -> (ModelBundle, Matrix) {
        let x = Matrix::from_rows(&[
            vec![0.0, 0.1, 1.0],
            vec![0.5, 0.4, 0.0],
            vec![1.0, 0.9, 1.0],
            vec![5.0, 5.1, 0.0],
            vec![5.5, 5.4, 1.0],
            vec![6.0, 5.9, 0.0],
        ])
        .unwrap();
        let wx = KnnGraphBuilder::new(2).build(&x).unwrap();
        let mut wf = SparseGraph::new(6);
        wf.add_edge(0, 3, 1.0).unwrap();
        wf.add_edge(2, 5, 1.0).unwrap();
        let model = Pfr::new(PfrConfig {
            gamma: 0.6,
            dim: 2,
            ..PfrConfig::default()
        })
        .fit(&x, &wx, &wf)
        .unwrap();
        let bundle = ModelBundle {
            model,
            standardizer: Some(StandardizerParams {
                means: vec![3.0, 3.0, 0.5],
                stds: vec![2.5, 2.5, 0.5],
            }),
            classifier: Some(ClassifierSection {
                threshold: 0.5,
                text: "pfr-logreg-v1 intercept=0.25 features=2\nweights 1.5 -0.75\n".to_string(),
            }),
        };
        (bundle, x)
    }

    pub(crate) fn quick_router_config() -> RouterConfig {
        RouterConfig {
            replication: 2,
            breaker: BreakerConfig {
                failure_threshold: 2,
                probation: Duration::from_millis(200),
            },
            conn: ConnConfig {
                connect_timeout: Duration::from_millis(200),
                io_timeout: Duration::from_secs(2),
                max_idle: 4,
            },
            health_interval: Some(Duration::from_millis(25)),
            ..RouterConfig::default()
        }
    }

    #[test]
    fn placement_loads_onto_exactly_the_replica_set() {
        let cluster = LocalCluster::boot(3, ServerConfig::default()).unwrap();
        let router = cluster.router(quick_router_config()).unwrap();
        let (bundle, _) = toy_bundle();
        let loaded = router.push("toy", &bundle).unwrap();
        assert_eq!(loaded, 2, "replication factor 2 places two copies");
        let replicas = router.replica_set("toy");
        for id in 0..cluster.len() {
            let has_model = cluster.server(id).unwrap().registry().get("toy").is_some();
            assert_eq!(
                has_model,
                replicas.contains(&id),
                "backend {id}: placement must follow the ring"
            );
        }
        // All replicas serve identical content.
        let digest = router.verify("toy").unwrap();
        assert_eq!(digest.len(), 16);
    }

    #[test]
    fn routed_scores_match_direct_scores_bitwise() {
        let cluster = LocalCluster::boot(3, ServerConfig::default()).unwrap();
        // The hot-key cache would answer the repeated batch without a
        // scatter; this test is about the network path, so disable it.
        let router = cluster
            .router(RouterConfig {
                hot_cache_capacity: 0,
                ..quick_router_config()
            })
            .unwrap();
        let (bundle, x) = toy_bundle();
        router.push("toy", &bundle).unwrap();
        let replica = router.replica_set("toy")[0];
        let expected = cluster
            .server(replica)
            .unwrap()
            .registry()
            .get("toy")
            .unwrap()
            .score_batch(&x)
            .unwrap();
        // Single-vector path.
        for (i, want) in expected.iter().enumerate() {
            let got = router.score("toy", x.row(i)).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "row {i}");
        }
        // Scatter-gather path.
        let rows: Vec<Vec<f64>> = (0..x.rows()).map(|i| x.row(i).to_vec()).collect();
        let got = router.score_batch("toy", &rows).unwrap();
        for (i, (a, b)) in got.iter().zip(expected.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "batch row {i}");
        }
        assert!(router.stats().scatters() >= 1);
    }

    #[test]
    fn a_batch_with_every_replica_ejected_falls_to_the_per_row_retry() {
        let cluster = LocalCluster::boot(2, ServerConfig::default()).unwrap();
        // Nothing may re-admit a backend behind the test's back.
        let router = cluster
            .router(RouterConfig {
                breaker: BreakerConfig {
                    failure_threshold: 1,
                    probation: Duration::from_secs(60),
                },
                health_interval: None,
                sync_interval: None,
                hot_cache_capacity: 0,
                ..quick_router_config()
            })
            .unwrap();
        let (bundle, x) = toy_bundle();
        router.push("toy", &bundle).unwrap();
        let model = cluster.server(0).unwrap().registry().get("toy").unwrap();
        let expected = model.score_batch(&x).unwrap();
        for backend in router.backends() {
            backend.breaker().record_failure();
            assert!(!backend.breaker().available());
        }
        // No live replica: nothing is scattered, and the gather's retry
        // walks the ejected backends as a last resort.
        let rows: Vec<Vec<f64>> = (0..x.rows()).map(|i| x.row(i).to_vec()).collect();
        let got = router.score_batch("toy", &rows).unwrap();
        for (i, (a, b)) in got.iter().zip(expected.iter()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
        }
        assert_eq!(router.stats().scatters(), 0);
        assert_eq!(router.stats().retried_rows(), rows.len() as u64);
    }

    #[test]
    fn hot_key_cache_hits_repeats_and_invalidates_on_placement_change() {
        let cluster = LocalCluster::boot(3, ServerConfig::default()).unwrap();
        let router = cluster.router(quick_router_config()).unwrap();
        let (bundle, x) = toy_bundle();
        assert_eq!(router.push("toy", &bundle).unwrap(), 2);
        let first = router.score("toy", x.row(0)).unwrap();
        assert_eq!(router.stats().hot_cache_hits(), 0);
        assert_eq!(router.stats().hot_cache_misses(), 1);
        // The repeat answers at the router, bit-identically.
        let second = router.score("toy", x.row(0)).unwrap();
        assert_eq!(second.to_bits(), first.to_bits());
        assert_eq!(router.stats().hot_cache_hits(), 1);
        // Re-placing the model retires its cache id: the same vector
        // misses again (and still scores identically — same content).
        router.push("toy", &bundle).unwrap();
        let third = router.score("toy", x.row(0)).unwrap();
        assert_eq!(third.to_bits(), first.to_bits());
        assert_eq!(router.stats().hot_cache_misses(), 2);
        // The batch path shares the cache: a batch of cached rows does
        // not scatter.
        let rows: Vec<Vec<f64>> = (0..3).map(|_| x.row(0).to_vec()).collect();
        let batch = router.score_batch("toy", &rows).unwrap();
        assert!(batch.iter().all(|s| s.to_bits() == first.to_bits()));
        assert_eq!(router.stats().scatters(), 0);
    }

    #[test]
    fn unknown_model_and_malformed_vectors_error_without_failover_storms() {
        let cluster = LocalCluster::boot(2, ServerConfig::default()).unwrap();
        let router = cluster.router(quick_router_config()).unwrap();
        assert!(matches!(
            router.score("ghost", &[1.0, 2.0, 3.0]),
            Err(crate::RouterError::Unavailable(_))
        ));
        let (bundle, _) = toy_bundle();
        router.push("toy", &bundle).unwrap();
        // Wrong arity is a deterministic request error.
        assert!(matches!(
            router.score("toy", &[1.0]),
            Err(crate::RouterError::Backend(_))
        ));
        assert!(matches!(
            router.verify("ghost"),
            Err(crate::RouterError::Unavailable(_))
        ));
    }

    #[test]
    fn add_and_remove_backends_reconcile_placements_on_the_live_router() {
        let mut cluster = LocalCluster::boot(3, ServerConfig::default()).unwrap();
        let router = cluster.router(quick_router_config()).unwrap();
        let (bundle, x) = toy_bundle();
        assert_eq!(router.push("toy", &bundle).unwrap(), 2);
        let digest = router.verify("toy").unwrap();
        let expected = router.score("toy", x.row(0)).unwrap();

        // Grow: the new backend joins the live ring (never-reused id 3)
        // and reconciliation pushes the model wherever the new replica
        // set demands it.
        let addr = cluster.add_backend().unwrap();
        let id = router.add_backend(addr).unwrap();
        assert_eq!(id, 3);
        assert_eq!(router.membership().len(), 4);
        for rid in router.replica_set("toy") {
            assert!(
                cluster.server(rid).unwrap().registry().get("toy").is_some(),
                "replica {rid} must hold the model after growth"
            );
        }
        assert_eq!(router.verify("toy").unwrap(), digest);

        // Shrink: removing a replica re-establishes the model on the new
        // replica set; content and scores stay bit-identical.
        let victim = router.replica_set("toy")[0];
        router.remove_backend(victim).unwrap();
        assert!(!router.membership().ring().contains(victim));
        for rid in router.replica_set("toy") {
            assert!(
                cluster.server(rid).unwrap().registry().get("toy").is_some(),
                "replica {rid} must hold the model after shrink"
            );
        }
        assert_eq!(router.verify("toy").unwrap(), digest);
        let got = router.score("toy", x.row(0)).unwrap();
        assert_eq!(got.to_bits(), expected.to_bits());

        // Guardrails: unknown ids are rejected, ids are never reused.
        assert!(matches!(
            router.remove_backend(victim),
            Err(crate::RouterError::Membership(_))
        ));
        assert!(!router.membership().ids().contains(&victim));
    }

    #[test]
    fn a_replacement_backend_recovers_a_dead_members_journal() {
        let dir = std::env::temp_dir().join(format!(
            "pfr_cluster_journal_recovery_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journaled = ServerConfig {
            journal: Some(pfr_journal::JournalConfig::new(dir.clone())),
            ..ServerConfig::default()
        };
        let mut cluster = LocalCluster::boot(0, ServerConfig::default()).unwrap();
        cluster.add_backend_with(journaled.clone()).unwrap();
        let router = cluster
            .router(RouterConfig {
                replication: 1,
                ..quick_router_config()
            })
            .unwrap();
        let (bundle, x) = toy_bundle();
        assert_eq!(router.push("toy", &bundle).unwrap(), 1);
        let expected = router.score("toy", x.row(0)).unwrap();
        drop(router);
        assert!(cluster.kill(0));

        // A replacement on the dead member's journal directory recovers its
        // models and warmed score cache without any re-push.
        cluster.add_backend_with(journaled).unwrap();
        let server = cluster.server(1).unwrap();
        let report = server.recover_from_journal().unwrap();
        assert_eq!(report.installs, 1, "the pushed bundle replays");
        assert!(report.warmed >= 1, "the scored vector re-warms the cache");
        let model = server.registry().get("toy").expect("model recovered");
        let got = model.score_one(x.row(0)).unwrap();
        assert_eq!(got.to_bits(), expected.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn killing_a_replica_fails_over_and_keeps_scores_identical() {
        let mut cluster = LocalCluster::boot(3, ServerConfig::default()).unwrap();
        let router = cluster.router(quick_router_config()).unwrap();
        let (bundle, x) = toy_bundle();
        router.push("toy", &bundle).unwrap();
        let expected = router.score("toy", x.row(0)).unwrap();
        let victim = router.replica_set("toy")[0];
        assert!(cluster.kill(victim));
        // Every request still answers, identically, while the dead replica
        // is discovered, ejected and routed around.
        for _ in 0..20 {
            let got = router.score("toy", x.row(0)).unwrap();
            assert_eq!(got.to_bits(), expected.to_bits());
        }
        let rows: Vec<Vec<f64>> = (0..x.rows()).map(|i| x.row(i).to_vec()).collect();
        let batch = router.score_batch("toy", &rows).unwrap();
        assert_eq!(batch.len(), rows.len());
        assert_eq!(cluster.live(), 2);
    }
}
