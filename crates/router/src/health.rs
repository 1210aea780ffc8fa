//! The background health prober: periodic `HEALTH` exchanges that feed
//! every backend's circuit breaker.
//!
//! The request path already reports its own failures, so under traffic a
//! dead backend is ejected within K failed requests. The prober covers the
//! other cases: it detects death during *quiet* periods, and it is what
//! drives re-admission — an ejected backend gets its half-open trial from
//! the prober rather than from a live client request, so probation never
//! costs a user-visible error.

use crate::backend::Backend;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The prober's view of "who is a member right now": a closure returning
/// the current backend roster, re-evaluated before every probe round so a
/// backend added to (or removed from) a live router is picked up on the
/// next round without restarting the prober.
pub type Roster = Arc<dyn Fn() -> Vec<Arc<Backend>> + Send + Sync>;

/// A background thread probing every backend each `interval` (a
/// [`crate::RouterConfig::health_interval`] field, not a constant). The
/// inter-probe sleep is a channel `recv_timeout`, so `stop()` interrupts it
/// immediately instead of waiting out a polling slice — tests and shutdown
/// never sleep a worst-case duration.
#[derive(Debug)]
pub struct HealthChecker {
    stop: Option<Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl HealthChecker {
    /// Starts probing the `roster`'s backends every `interval`; each probe
    /// outcome is recorded on the backend's breaker, `probes` counts the
    /// exchanges. The roster is re-read every round, which is what lets
    /// dynamic membership hand new backends to a running prober.
    pub fn spawn(roster: Roster, interval: Duration, probes: Arc<AtomicU64>) -> Self {
        let (stop, stop_rx) = mpsc::channel::<()>();
        let thread = std::thread::Builder::new()
            .name("pfr-router-health".to_string())
            .spawn(move || loop {
                for backend in roster() {
                    // `available` performs the open → half-open flip
                    // once probation expires; a still-ejected backend
                    // is skipped so probes do not reset its deadline.
                    if !backend.breaker().available() {
                        continue;
                    }
                    probes.fetch_add(1, Ordering::Relaxed);
                    // An io-healthy backend speaking garbage is still
                    // unhealthy; `probe` records exactly one breaker
                    // outcome per exchange.
                    backend.probe("HEALTH", "OK up");
                }
                // The sleep doubles as the stop signal: a message or a
                // dropped sender ends the prober mid-interval.
                match stop_rx.recv_timeout(interval) {
                    Err(RecvTimeoutError::Timeout) => continue,
                    Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
                }
            })
            .expect("spawning the health prober never fails on this platform");
        HealthChecker {
            stop: Some(stop),
            thread: Some(thread),
        }
    }

    /// Stops and joins the prober thread; returns as soon as any in-flight
    /// probe finishes (the inter-probe sleep is interrupted, not waited
    /// out).
    pub fn stop(&mut self) {
        if let Some(stop) = self.stop.take() {
            let _ = stop.send(());
        }
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for HealthChecker {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::tests::test_driver;
    use crate::backend::BreakerConfig;
    use pfr_net::ClientDriver;
    use pfr_serve::{Server, ServerConfig};

    fn quick_driver() -> Arc<ClientDriver> {
        test_driver(Duration::from_millis(150))
    }

    fn roster_of(backends: Vec<Arc<Backend>>) -> Roster {
        Arc::new(move || backends.clone())
    }

    #[test]
    fn probes_keep_a_live_backend_admitted_and_eject_a_dead_one() {
        let server = Server::spawn(ServerConfig::default()).unwrap();
        let live = Arc::new(Backend::new(
            0,
            server.addr(),
            quick_driver(),
            BreakerConfig::default(),
        ));
        let dead_addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let dead = Arc::new(Backend::new(
            1,
            dead_addr,
            quick_driver(),
            BreakerConfig {
                failure_threshold: 2,
                probation: Duration::from_secs(30),
            },
        ));
        let probes = Arc::new(AtomicU64::new(0));
        let mut checker = HealthChecker::spawn(
            roster_of(vec![Arc::clone(&live), Arc::clone(&dead)]),
            Duration::from_millis(20),
            Arc::clone(&probes),
        );
        // Give the prober a few rounds.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while dead.breaker().available() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        checker.stop();
        assert!(live.breaker().available(), "live backend stays admitted");
        assert!(!dead.breaker().available(), "dead backend gets ejected");
        assert!(probes.load(Ordering::Relaxed) >= 3);
        server.shutdown();
    }

    #[test]
    fn prober_ejects_an_io_healthy_backend_that_speaks_garbage() {
        // A listener whose port answers every line with something that is
        // not a HEALTH payload — e.g. the port got reused by another
        // service. io succeeds every time; content never does.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            use std::io::{BufRead, BufReader, Write};
            for stream in listener.incoming().flatten() {
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    let mut line = String::new();
                    loop {
                        line.clear();
                        if reader.read_line(&mut line).unwrap_or(0) == 0 {
                            return;
                        }
                        if writeln!(writer, "IMPOSTOR").is_err() {
                            return;
                        }
                    }
                });
            }
        });
        let backend = Arc::new(Backend::new(
            0,
            addr,
            quick_driver(),
            BreakerConfig {
                failure_threshold: 3,
                probation: Duration::from_secs(30),
            },
        ));
        let probes = Arc::new(AtomicU64::new(0));
        let mut checker = HealthChecker::spawn(
            roster_of(vec![Arc::clone(&backend)]),
            Duration::from_millis(15),
            probes,
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while backend.breaker().available() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        checker.stop();
        assert!(
            !backend.breaker().available(),
            "garbage-speaking backend must be ejected despite io success"
        );
        assert_eq!(backend.breaker().ejections(), 1);
    }

    #[test]
    fn prober_readmits_a_backend_that_comes_back() {
        let server = Server::spawn(ServerConfig::default()).unwrap();
        let backend = Arc::new(Backend::new(
            0,
            server.addr(),
            quick_driver(),
            BreakerConfig {
                failure_threshold: 1,
                probation: Duration::from_millis(40),
            },
        ));
        // Eject it by hand, as if requests had failed.
        backend.breaker().record_failure();
        assert!(backend.breaker().is_open());
        let probes = Arc::new(AtomicU64::new(0));
        let mut checker = HealthChecker::spawn(
            roster_of(vec![Arc::clone(&backend)]),
            Duration::from_millis(15),
            probes,
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while backend.breaker().readmissions() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        checker.stop();
        assert_eq!(backend.breaker().readmissions(), 1);
        assert!(backend.breaker().available());
        server.shutdown();
    }
}
