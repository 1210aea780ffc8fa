//! One routed-to backend: its address on the shared reactor client and its
//! circuit breaker.
//!
//! The breaker is the router's memory of backend failures. It closes (lets
//! traffic through) while a backend behaves, opens (ejects the backend from
//! routing) after `failure_threshold` *consecutive* failures, and after a
//! probation period lets one trial request through (half-open): success
//! re-admits the backend, failure re-opens it for another probation. Both
//! the health prober and the request path feed the same breaker, so a
//! backend dying under traffic is ejected after K failed requests even
//! before the next probe runs.

use pfr_net::{ClientDriver, CompletionQueue, Ticket};
use pfr_obs::LatencyHisto;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Deployment timeouts of the router's backend connections, handed to the
/// shared reactor client ([`pfr_net::ClientConfig`]) at connect.
#[derive(Debug, Clone, Copy)]
pub struct ConnConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Read/write timeout per protocol exchange.
    pub io_timeout: Duration,
    /// Idle connections kept per backend; excess connections are closed on
    /// release instead of kept.
    pub max_idle: usize,
}

impl Default for ConnConfig {
    fn default() -> Self {
        ConnConfig {
            connect_timeout: Duration::from_millis(250),
            io_timeout: Duration::from_secs(2),
            max_idle: 8,
        }
    }
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive failures that open the breaker (eject the backend).
    pub failure_threshold: u32,
    /// How long an open breaker blocks traffic before allowing one
    /// half-open trial request.
    pub probation: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            probation: Duration::from_millis(500),
        }
    }
}

/// Breaker state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BreakerState {
    /// Healthy; counts consecutive failures toward the threshold.
    Closed { failures: u32 },
    /// Ejected until the deadline passes.
    Open { until: Instant },
    /// Probation expired; one trial request decides re-admit vs re-eject.
    HalfOpen,
}

/// A consecutive-failure circuit breaker with probation and re-admission.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: Mutex<BreakerState>,
    ejections: AtomicU64,
    readmissions: AtomicU64,
}

impl CircuitBreaker {
    /// A closed (healthy) breaker.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: Mutex::new(BreakerState::Closed { failures: 0 }),
            ejections: AtomicU64::new(0),
            readmissions: AtomicU64::new(0),
        }
    }

    /// Whether the backend may receive traffic right now. An open breaker
    /// whose probation has expired flips to half-open and answers yes — the
    /// caller's next request is the trial.
    pub fn available(&self) -> bool {
        let mut state = self.state.lock().expect("breaker lock poisoned");
        match *state {
            BreakerState::Closed { .. } | BreakerState::HalfOpen => true,
            BreakerState::Open { until } => {
                if Instant::now() >= until {
                    *state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Whether the breaker currently blocks traffic (no half-open
    /// transition is performed, unlike [`CircuitBreaker::available`]).
    pub fn is_open(&self) -> bool {
        matches!(
            *self.state.lock().expect("breaker lock poisoned"),
            BreakerState::Open { .. }
        )
    }

    /// Records a successful exchange: resets the failure count; a half-open
    /// trial success re-admits the backend.
    pub fn record_success(&self) {
        let mut state = self.state.lock().expect("breaker lock poisoned");
        if *state == BreakerState::HalfOpen {
            self.readmissions.fetch_add(1, Ordering::Relaxed);
        }
        *state = BreakerState::Closed { failures: 0 };
    }

    /// Records a failed exchange: one more consecutive failure in closed
    /// state (opening at the threshold); a half-open trial failure re-opens
    /// immediately.
    pub fn record_failure(&self) {
        let mut state = self.state.lock().expect("breaker lock poisoned");
        let open = |this: &Self| {
            this.ejections.fetch_add(1, Ordering::Relaxed);
            BreakerState::Open {
                until: Instant::now() + this.config.probation,
            }
        };
        *state = match *state {
            BreakerState::Closed { failures } => {
                let failures = failures + 1;
                if failures >= self.config.failure_threshold.max(1) {
                    open(self)
                } else {
                    BreakerState::Closed { failures }
                }
            }
            BreakerState::HalfOpen => open(self),
            // Already open: keep the original deadline (failures while
            // ejected come from callers who raced the ejection).
            BreakerState::Open { until } => BreakerState::Open { until },
        };
    }

    /// How many times this breaker has opened.
    pub fn ejections(&self) -> u64 {
        self.ejections.load(Ordering::Relaxed)
    }

    /// How many times a half-open trial has re-admitted the backend.
    pub fn readmissions(&self) -> u64 {
        self.readmissions.load(Ordering::Relaxed)
    }
}

/// One backend of the routing tier.
#[derive(Debug)]
pub struct Backend {
    id: usize,
    addr: SocketAddr,
    /// The router's one event loop: every backend's traffic is multiplexed
    /// over it, so N concurrent exchanges (a scatter to N replicas) cost
    /// zero additional threads.
    driver: Arc<ClientDriver>,
    breaker: CircuitBreaker,
    /// Router-observed exchange latency (submit to settled response),
    /// including queueing in the driver — the client-side complement
    /// of the backend's own per-verb histograms. Lock-free; the router
    /// exposes it as `pfr_router_backend_latency_ns{backend="<id>"}`.
    latency: Arc<LatencyHisto>,
}

impl Backend {
    /// A backend carried by the shared reactor client, with a closed breaker.
    /// Deadlines (connect and io) come from the driver's `ClientConfig`.
    pub fn new(
        id: usize,
        addr: SocketAddr,
        driver: Arc<ClientDriver>,
        breaker: BreakerConfig,
    ) -> Self {
        Backend {
            id,
            addr,
            driver,
            breaker: CircuitBreaker::new(breaker),
            latency: Arc::new(LatencyHisto::new()),
        }
    }

    /// Ring id of this backend.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The backend's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The backend's circuit breaker.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// The router-observed exchange-latency histogram of this backend.
    pub fn latency_histogram(&self) -> &Arc<LatencyHisto> {
        &self.latency
    }

    /// Drops every idle connection to this backend (idle sockets to a
    /// dead backend are all equally broken). Public so a router can retire
    /// the connections of a backend it just removed from the ring.
    pub fn drain_idle(&self) {
        self.driver.drain(self.addr);
    }

    /// The one submission core every exchange on this backend goes
    /// through: `bytes` out, `expect` response lines back, landing exactly
    /// once on `queue` under `tag` — a failed submission lands its error.
    /// It never blocks, and its result **has not** touched the breaker:
    /// pass it through [`Backend::settle`].
    pub fn submit(&self, bytes: Vec<u8>, expect: usize, queue: &CompletionQueue, tag: u64) {
        self.driver
            .submit_frame(self.addr, bytes, expect, queue, tag);
    }

    /// One protocol exchange: `line` out, its response back, the latency
    /// recorded and the breaker settled.
    pub fn exchange(&self, line: &str) -> std::io::Result<String> {
        self.request(format!("{line}\n").into_bytes())
    }

    /// Ships a model bundle to this backend over the wire: one `PUSH`
    /// frame (header line + counted payload of bundle text), one response
    /// line back. This is how a router places replicas without assuming
    /// the backend can read its files. With `trace` set the header carries
    /// `T=<id>`, so the backend records its `serve/PUSH` span under the
    /// caller's trace — how catalog repair pushes show up nested inside a
    /// `router/REPAIR` span.
    pub fn push(
        &self,
        name: &str,
        bundle_text: &str,
        trace: Option<u64>,
    ) -> std::io::Result<String> {
        if name.is_empty() || name.chars().any(|c| c.is_whitespace()) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("'{name}' is not a pushable model name (must be one non-empty token)"),
            ));
        }
        self.request(counted_frame(&format!("PUSH {name}"), bundle_text, trace)?)
    }

    /// Offers a serialized placement catalog to this backend: one `SYNC`
    /// frame (header line + counted payload of catalog text), one response
    /// line back. The backend merges highest-version-wins and answers with
    /// the version it now holds — it never loses a newer catalog to a
    /// stale offer.
    pub fn sync(&self, catalog_text: &str) -> std::io::Result<String> {
        self.request(counted_frame("SYNC", catalog_text, None)?)
    }

    /// The one blocking exchange: `frame` out, one response line back, the
    /// latency recorded and the breaker settled.
    fn request(&self, frame: Vec<u8>) -> std::io::Result<String> {
        let started = Instant::now();
        let outcome = self.round_trip(frame);
        self.latency.record_duration(started.elapsed());
        Ok(self.settle(outcome)?.remove(0))
    }

    /// `frame` through [`Backend::submit`] on a ticket, waited for.
    fn round_trip(&self, frame: Vec<u8>) -> std::io::Result<Vec<String>> {
        let mut ticket = Ticket::new();
        self.submit(frame, 1, ticket.queue(), 0);
        ticket
            .wait(None)
            .expect("a wait without a deadline resolves")
    }

    /// Records a collected outcome on the breaker: io failures feed it and
    /// drain the idle connections; success feeds it too, which is what
    /// re-admits a half-open backend.
    pub fn settle(&self, outcome: std::io::Result<Vec<String>>) -> std::io::Result<Vec<String>> {
        match outcome {
            Ok(responses) => {
                self.breaker.record_success();
                Ok(responses)
            }
            Err(e) => {
                self.breaker.record_failure();
                self.drain_idle();
                Err(e)
            }
        }
    }

    /// A health-probe exchange: the breaker outcome is decided by the
    /// *response content*, not just io success. This matters for the state
    /// machine — interleaving a success for "socket worked" with a failure
    /// for "payload was garbage" would reset the consecutive-failure count
    /// every probe and a hijacked or misbehaving port could never be
    /// ejected.
    pub fn probe(&self, line: &str, expect_prefix: &str) -> bool {
        match self.round_trip(format!("{line}\n").into_bytes()) {
            Ok(responses)
                if responses
                    .first()
                    .is_some_and(|r| r.starts_with(expect_prefix)) =>
            {
                self.breaker.record_success();
                true
            }
            Ok(_) => {
                self.breaker.record_failure();
                false
            }
            Err(e) => {
                let _ = self.settle(Err(e));
                false
            }
        }
    }
}

/// A header line with the byte count of the `payload` counted after it
/// (and `T=<id>` when traced): the `PUSH` and `SYNC` frame.
///
/// The frame is validated *before* anything is written: if the server
/// rejected the header (payload outside the protocol bound), the
/// already-written payload bytes would be parsed as request lines —
/// desyncing the shared connection so every later response on it would
/// answer the wrong request.
fn counted_frame(head: &str, payload: &str, trace: Option<u64>) -> std::io::Result<Vec<u8>> {
    let bound = pfr_serve::protocol::MAX_PUSH_BYTES;
    if payload.is_empty() || payload.len() > bound {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "'{head}' payload of {} bytes is outside the bound 1..={bound}",
                payload.len()
            ),
        ));
    }
    let mut header = format!("{head} {}", payload.len());
    if let Some(id) = trace {
        header.push(' ');
        header.push_str(&pfr_obs::trace_token(id));
    }
    header.push('\n');
    let mut frame = header.into_bytes();
    frame.extend_from_slice(payload.as_bytes());
    Ok(frame)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A small reactor client for tests that build a [`Backend`] by hand.
    pub(crate) fn test_driver(connect_timeout: Duration) -> Arc<ClientDriver> {
        let config = pfr_net::ClientConfig {
            connect_timeout,
            io_timeout: Duration::from_millis(500),
            max_idle: 2,
            ..pfr_net::ClientConfig::default()
        };
        Arc::new(ClientDriver::spawn(config).unwrap())
    }

    fn breaker(threshold: u32, probation_ms: u64) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            probation: Duration::from_millis(probation_ms),
        })
    }

    #[test]
    fn opens_after_k_consecutive_failures_only() {
        let b = breaker(3, 10_000);
        b.record_failure();
        b.record_failure();
        assert!(b.available(), "two of three failures must not eject");
        // A success resets the consecutive count.
        b.record_success();
        b.record_failure();
        b.record_failure();
        assert!(b.available());
        b.record_failure();
        assert!(!b.available(), "third consecutive failure ejects");
        assert!(b.is_open());
        assert_eq!(b.ejections(), 1);
    }

    #[test]
    fn probation_leads_to_half_open_then_readmission() {
        let b = breaker(1, 30);
        b.record_failure();
        assert!(!b.available());
        std::thread::sleep(Duration::from_millis(45));
        // Probation over: one trial allowed.
        assert!(b.available());
        assert!(!b.is_open());
        b.record_success();
        assert!(b.available());
        assert_eq!(b.readmissions(), 1);
        assert_eq!(b.ejections(), 1);
    }

    #[test]
    fn half_open_failure_re_ejects_for_another_probation() {
        let b = breaker(1, 30);
        b.record_failure();
        std::thread::sleep(Duration::from_millis(45));
        assert!(b.available()); // half-open trial
        b.record_failure();
        assert!(!b.available(), "failed trial re-opens immediately");
        assert_eq!(b.ejections(), 2);
        assert_eq!(b.readmissions(), 0);
    }

    #[test]
    fn failures_while_open_keep_the_original_deadline() {
        let b = breaker(1, 40);
        b.record_failure();
        let _ = b.available();
        b.record_failure(); // racer reporting after the ejection
        assert_eq!(b.ejections(), 1, "racing failures do not re-eject");
        std::thread::sleep(Duration::from_millis(60));
        assert!(b.available(), "deadline was not pushed out by the racer");
    }

    #[test]
    fn push_rejects_unframeable_inputs_before_writing() {
        // A backend that would accept nothing: validation must fire before
        // any dial, so the address is never contacted (and the breaker
        // never hears about it — these are caller errors, not backend
        // failures).
        let addr = "127.0.0.1:1".parse().unwrap();
        let driver = test_driver(Duration::from_millis(100));
        let backend = Backend::new(0, addr, driver, BreakerConfig::default());
        for (name, text) in [
            ("two words", "bundle"),
            ("", "bundle"),
            ("tab\tname", "bundle"),
            ("ok", ""),
        ] {
            let err = backend.push(name, text, None).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{name:?}");
        }
        assert_eq!(backend.breaker().ejections(), 0);
        assert!(backend.breaker().available());
    }

    #[test]
    fn backend_exchange_feeds_the_breaker() {
        // A dead address: every exchange fails, breaker opens at K=2.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let backend = Backend::new(
            0,
            addr,
            test_driver(Duration::from_millis(100)),
            BreakerConfig {
                failure_threshold: 2,
                probation: Duration::from_secs(10),
            },
        );
        assert!(backend.exchange("HEALTH").is_err());
        assert!(backend.breaker().available());
        assert!(backend.exchange("HEALTH").is_err());
        assert!(!backend.breaker().available());
        assert_eq!(backend.breaker().ejections(), 1);
    }
}
