//! The serving front end: a pool of reactor threads, each multiplexing a
//! share of the client connections over its own epoll instance (`pfr-net`),
//! so an idle client costs a few hundred bytes of buffer state instead of
//! an OS thread and accept/parse work scales across cores.
//!
//! ```text
//!                    ┌────────────────────── reactor thread ──┐ × N
//! clients ──epoll──► │ accept / LineConn fill / parse         │
//!                    │  verbs::Call::execute                  │──► replies
//!                    │   Done:  emitted in request order      │
//!                    │   Batch: SCORE miss ► MicroBatcher ┐   │
//!                    │   Pool:  TRANSFORM/PUSH ► pool      │  │
//!                    └──────────▲──────────────────────────┼──┘
//!                               │ eventfd wake + completion│
//!                               └──────────────────────────┘
//!                                 (and the journal's acks)
//! ```
//!
//! A reactor owns connections, not verbs: accept, framing (request lines
//! and the counted payloads of `PUSH`/`SYNC`), per-connection sequencing,
//! backpressure, idle deadlines and the completion queue live here; what a
//! request *does*, and every counter and span it touches, lives in
//! [`crate::verbs`].
//!
//! **Accept hand-off.** Every reactor registers its own (level-triggered)
//! clone of the shared listener and calls `accept` when epoll reports a
//! non-empty backlog; the kernel hands each queued connection to exactly
//! one of the concurrent accepters, so connections distribute across the
//! pool without a dispatcher thread or cross-reactor queues. Once
//! accepted, a connection lives and dies on that reactor — no state is
//! ever shared between event loops except the process-wide connection
//! count and the (already thread-safe) cache/batcher/registry.
//!
//! **Shedding.** With a connection limit configured, a connection accepted
//! while the pool is full is answered with one [`protocol::BUSY`] line and
//! closed immediately — the routing tier treats `BUSY` as "walk on to the
//! next replica", so shedding degrades capacity, never correctness. The
//! live count is a process-wide atomic; concurrent reactors may briefly
//! overshoot the limit by at most the pool width, which is the accepted
//! cost of keeping the admission check lock-free.
//!
//! Work that can block (scoring, transforms, bundle installs) never runs on the
//! reactor: the verb layer hands it back as a deferred step, and the
//! reactor submits it to the micro-batcher or the worker pool with a
//! [`NetSink`] that records a completion and rings the reactor's eventfd.
//! Neither submit waits: the batcher queues the row and, if that starts a
//! batch, schedules the drain job on the pool (`batcher`'s module docs).
//! Because completions finish out of order while the protocol promises
//! in-order responses per connection, each connection carries a sequence
//! counter and a reorder buffer: responses are emitted strictly in request
//! order, which is what lets clients pipeline.
//!
//! The journal's acknowledgement is one more completion through the same
//! sink. On a journaling server the reactor never waits for an fsync: a
//! journaled call stays in `pending` — also when it was answered inline —
//! until both its outcome and its acknowledgement have arrived, and only
//! then is its response emitted. Order, backpressure and idle handling
//! need nothing new for that: a parked call is a pending one.
//!
//! Backpressure: a connection whose unsent output exceeds the high
//! watermark, or which has [`MAX_PARKED`] requests parked — pending, or
//! answered out of turn and held in the reorder buffer behind one that is
//! — stops being **read** (and therefore parsed) until the peer drains its
//! socket or the completions drain the backlog — its bytes back up into
//! the kernel buffers and TCP flow control throttles the sender, so a
//! client that pipelines requests without reading responses cannot balloon
//! server memory.

use crate::batcher::ScoreSink;
use crate::protocol::{self, Request};
use crate::server::ServeContext;
use crate::verbs::{Arrival, Call, Outcome, Step};
use crate::Result;
use pfr_net::poller::{Event, Interest, Poller, Waker};
use pfr_net::stats::LoopStats;
use pfr_net::wheel::DeadlineWheel;
use pfr_net::{Frame, LineConn};
use pfr_obs::SpanRing;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const WAKER_TOKEN: u64 = 0;
const LISTENER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// How long a reactor stops accepting after a resource-exhaustion accept
/// error (EMFILE and friends) before re-registering its listener. Long
/// enough for fds to free up, short enough that a healthy backlog is not
/// visibly stalled.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Stop parsing new requests for a connection holding this many unsent
/// response bytes; parsing resumes once the peer drains below it.
const HIGH_WATER: usize = 256 * 1024;

/// Stop reading and parsing a connection with this many requests parked:
/// in `pending` — with the batcher, the pool or the journal's fsync — or
/// answered out of turn and waiting in `ready` behind one that is. Nothing
/// has been written to the output buffer for either kind yet, so
/// `HIGH_WATER` cannot see them, and a peer that pipelines without reading
/// would otherwise queue requests (and their journal frames, and their
/// rendered responses) without bound. Far above any sane pipelining depth;
/// reading resumes as completions drain the backlog.
const MAX_PARKED: usize = 1024;

/// The most requests any one connection has had parked at once.
#[cfg(test)]
static PARKED_HIGH_WATER: AtomicUsize = AtomicUsize::new(0);

/// Longest tolerated request line (a SCORE with thousands of features fits
/// comfortably; an unbounded line is a protocol violation).
const MAX_LINE: usize = 1 << 20;

/// Finished spans each reactor's ring retains for `TRACE` lookups. Spans
/// exist only for sampled requests, so the memory cost is bounded and
/// small (a few hundred bytes per span).
const SPAN_RING_CAPACITY: usize = 256;

/// What arrived for connection `token`, request `seq`: a worker's outcome
/// or the journal's acknowledgement.
pub(crate) struct Completion {
    token: u64,
    seq: u64,
    arrival: Arrival,
}

/// The reply-side handle given to the batcher, the worker pool or the
/// journal's writer: sends one completion and rings the reactor awake. One
/// sink, one delivery.
#[derive(Debug)]
pub(crate) struct NetSink {
    completions: Sender<Completion>,
    waker: Arc<Waker>,
    token: u64,
    seq: u64,
}

impl NetSink {
    pub(crate) fn send(self, outcome: Outcome) {
        self.deliver(Arrival::Outcome(outcome));
    }

    pub(crate) fn deliver(self, arrival: Arrival) {
        let _ = self.completions.send(Completion {
            token: self.token,
            seq: self.seq,
            arrival,
        });
        let _ = self.waker.wake();
    }
}

/// Per-connection reactor state.
struct ClientConn {
    stream: TcpStream,
    line: LineConn,
    /// Next sequence number to assign to a parsed request.
    next_seq: u64,
    /// Next sequence number whose response may be emitted.
    next_write: u64,
    /// Out-of-order completions waiting for their turn.
    ready: BTreeMap<u64, String>,
    /// Requests still owed something: a deferred step with the batcher or
    /// the pool, the journal's acknowledgement, or both.
    pending: HashMap<u64, Call>,
    /// A counted-payload header (`PUSH`/`SYNC`) was parsed; the
    /// connection is in payload mode until the counted bytes arrive, and
    /// the response is owed at the recorded seq.
    awaiting_payload: Option<(u64, Request, Call)>,
    /// `QUIT` was parsed at this seq: stop parsing, close once emitted.
    quit_at: Option<u64>,
    /// The peer half-closed; finish in-flight work, flush, then close.
    read_closed: bool,
    /// A readable edge arrived but was not yet drained (reads pause while
    /// the connection is backed up; see [`ClientConn::backed_up`]).
    want_read: bool,
}

impl ClientConn {
    fn new(stream: TcpStream) -> ClientConn {
        ClientConn {
            stream,
            line: LineConn::new(MAX_LINE),
            next_seq: 0,
            next_write: 0,
            ready: BTreeMap::new(),
            pending: HashMap::new(),
            awaiting_payload: None,
            quit_at: None,
            read_closed: false,
            want_read: false,
        }
    }

    /// Requests parsed whose responses have not reached the output buffer:
    /// still owed something, or answered and waiting their turn behind one
    /// that is.
    fn parked(&self) -> usize {
        self.pending.len() + self.ready.len()
    }

    /// Whether the connection already holds as much unfinished work as it
    /// may: unsent response bytes above the high watermark, or a full
    /// complement of parked requests. It is neither read nor parsed until
    /// the peer or the completions drain it.
    fn backed_up(&self) -> bool {
        self.line.pending_out() > HIGH_WATER || self.parked() >= MAX_PARKED
    }

    /// Whether every accepted request has been answered and flushed.
    fn drained(&self) -> bool {
        self.pending.is_empty() && self.ready.is_empty() && !self.line.wants_write()
    }
}

/// Join handles and wakers of a spawned reactor pool, in thread order.
pub(crate) type ReactorPool = (Vec<JoinHandle<()>>, Vec<Arc<Waker>>);

/// Spawns `threads` reactor threads jointly servicing `listener` (each
/// gets its own clone of the listener, its own epoll instance and its own
/// deadline wheel; see the module docs for the accept hand-off).
pub(crate) fn spawn_pool(
    listener: TcpListener,
    context: Arc<ServeContext>,
    shutdown: Arc<AtomicBool>,
    idle_timeout: Option<Duration>,
    threads: usize,
    max_connections: Option<usize>,
) -> Result<ReactorPool> {
    let live = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::with_capacity(threads);
    let mut wakers = Vec::with_capacity(threads);
    for index in 0..threads {
        // Each reactor owns a dup of the listening socket (same underlying
        // accept queue); the original drops when this function returns.
        let listener = listener.try_clone()?;
        let poller = Poller::new(1024)?;
        let waker = Arc::new(Waker::new()?);
        poller.add(waker.raw_fd(), WAKER_TOKEN, Interest::READABLE.level())?;
        // Level-triggered listener: readiness re-reports while the backlog
        // is non-empty, so no reactor can strand queued connections behind
        // a lost edge, and a connection another reactor already accepted
        // simply surfaces here as a spurious `WouldBlock`.
        poller.add(
            listener.as_raw_fd(),
            LISTENER_TOKEN,
            Interest::READABLE.level(),
        )?;
        let (completions_tx, completions_rx) = mpsc::channel();
        // Each reactor records spans into its own ring (no cross-thread
        // contention on the trace path) and publishes its own event-loop
        // health gauges, distinguishable by the `reactor` label.
        let span_ring = context.traces.new_ring(SPAN_RING_CAPACITY);
        let loop_stats = Arc::new(LoopStats::new());
        register_loop_gauges(&context, index, &loop_stats);
        let reactor = Reactor {
            poller,
            waker: Arc::clone(&waker),
            listener,
            context: Arc::clone(&context),
            shutdown: Arc::clone(&shutdown),
            idle_timeout,
            max_connections,
            live: Arc::clone(&live),
            completions_tx,
            completions_rx,
            conns: HashMap::new(),
            wheel: DeadlineWheel::new(Duration::from_millis(100), 128),
            next_token: FIRST_CONN_TOKEN,
            span_ring,
            loop_stats,
        };
        let thread = std::thread::Builder::new()
            .name(format!("pfr-serve-reactor-{index}"))
            .spawn(move || reactor.run())
            .expect("spawning the reactor thread never fails on this platform");
        handles.push(thread);
        wakers.push(waker);
    }
    Ok((handles, wakers))
}

struct Reactor {
    poller: Poller,
    waker: Arc<Waker>,
    listener: TcpListener,
    context: Arc<ServeContext>,
    shutdown: Arc<AtomicBool>,
    idle_timeout: Option<Duration>,
    /// Process-wide admission limit (`None` = unlimited).
    max_connections: Option<usize>,
    /// Connections currently admitted across the whole pool.
    live: Arc<AtomicUsize>,
    completions_tx: Sender<Completion>,
    completions_rx: Receiver<Completion>,
    conns: HashMap<u64, ClientConn>,
    wheel: DeadlineWheel,
    next_token: u64,
    /// This reactor's span ring (one per thread; the shared
    /// [`pfr_obs::TraceStore`] searches across all of them).
    span_ring: Arc<SpanRing>,
    /// This reactor's event-loop health counters.
    loop_stats: Arc<LoopStats>,
}

/// Registers one reactor's event-loop gauges on the server registry under
/// a `reactor="<index>"` label so pool members stay distinguishable in a
/// single scrape.
fn register_loop_gauges(context: &ServeContext, index: usize, stats: &Arc<LoopStats>) {
    let reactor = index.to_string();
    let labels: &[(&str, &str)] = &[("reactor", &reactor)];
    let s = Arc::clone(stats);
    context.metrics.gauge(
        "pfr_net_polls_total",
        labels,
        Arc::new(move || s.polls() as f64),
    );
    let s = Arc::clone(stats);
    context.metrics.gauge(
        "pfr_net_poll_wait_ns_total",
        labels,
        Arc::new(move || s.wait_ns() as f64),
    );
    let s = Arc::clone(stats);
    context.metrics.gauge(
        "pfr_net_ready_events",
        labels,
        Arc::new(move || s.last_ready() as f64),
    );
    let s = Arc::clone(stats);
    context.metrics.gauge(
        "pfr_net_wheel_depth",
        labels,
        Arc::new(move || s.wheel_depth() as f64),
    );
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut expired: Vec<u64> = Vec::new();
        while !self.shutdown.load(Ordering::SeqCst) {
            let timeout = self.wheel.next_timeout(Instant::now());
            let waited = Instant::now();
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            self.loop_stats.record_poll(waited.elapsed(), events.len());
            // Drain in place: the buffer's capacity is reused across
            // iterations (`events` is a local, so borrowing it while
            // calling `&mut self` methods is fine).
            for event in events.drain(..) {
                match event.token {
                    WAKER_TOKEN => self.waker.drain(),
                    LISTENER_TOKEN => self.accept_ready(),
                    token => self.conn_ready(token, event),
                }
            }
            self.apply_completions();
            // The wheel always advances: besides idle deadlines it carries
            // the accept-backoff timer (LISTENER_TOKEN), which must fire
            // even when no idle timeout is configured.
            expired.clear();
            self.wheel.advance(Instant::now(), &mut expired);
            for token in expired.drain(..) {
                if token == LISTENER_TOKEN {
                    self.resume_accepting();
                } else if self.conns.get(&token).is_some_and(|c| !c.drained()) {
                    // No byte arrived for a whole timeout, but a reply is
                    // still owed: the request is in the batcher, the pool
                    // or an fsync, or the peer has output left to read.
                    // Waiting for the server is not idleness.
                    self.touch_idle(token);
                } else {
                    self.close_conn(token);
                }
            }
            self.loop_stats.set_wheel_depth(self.wheel.len());
        }
        // Shutdown: close every connection (in both directions, so blocked
        // clients observe EOF) and drop the listener. In-flight worker
        // results land in a channel nobody reads: a request that raced the
        // shutdown is dropped, its response could not be delivered anyway.
        for (_, conn) in self.conns.drain() {
            self.live.fetch_sub(1, Ordering::Relaxed);
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                // WouldBlock: the backlog is empty, or a sibling reactor
                // won the race for the connection that woke us.
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                // The peer hung up between entering the backlog and being
                // accepted (ECONNABORTED), or the call was interrupted —
                // transient per-connection noise; keep draining the backlog.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::ConnectionAborted | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
                // EMFILE and friends: the level-triggered registration
                // would re-report the non-empty backlog on every wait and
                // spin this loop at 100% CPU for as long as fds are
                // exhausted. Deregister the listener and re-arm it on the
                // deadline wheel instead — the reactor keeps serving its
                // admitted connections at full speed while accepting backs
                // off (sibling reactors still accept in the meantime).
                Err(_) => {
                    self.poller.remove(self.listener.as_raw_fd());
                    self.wheel
                        .arm(LISTENER_TOKEN, Instant::now() + ACCEPT_BACKOFF);
                    return;
                }
            };
            if let Some(max) = self.max_connections {
                if self.live.load(Ordering::Relaxed) >= max {
                    // Shed: one BUSY line (best effort — the peer may
                    // already be gone), then close. The stream is still
                    // blocking here, but a 5-byte write into a fresh
                    // socket's empty send buffer cannot block.
                    let mut stream = stream;
                    let _ = writeln!(stream, "{}", protocol::BUSY);
                    self.context.stats.record_shed();
                    continue;
                }
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let token = self.next_token;
            self.next_token += 1;
            if self
                .poller
                .add(stream.as_raw_fd(), token, Interest::DUPLEX)
                .is_err()
            {
                continue;
            }
            self.live.fetch_add(1, Ordering::Relaxed);
            self.context.stats.record_connection();
            self.conns.insert(token, ClientConn::new(stream));
            self.touch_idle(token);
        }
    }

    /// The accept backoff expired: re-register the listener and drain
    /// whatever backlog accumulated while accepting was paused. If the
    /// resource exhaustion persists, `accept_ready` simply re-arms the
    /// backoff.
    fn resume_accepting(&mut self) {
        if self
            .poller
            .add(
                self.listener.as_raw_fd(),
                LISTENER_TOKEN,
                Interest::READABLE.level(),
            )
            .is_err()
        {
            self.wheel
                .arm(LISTENER_TOKEN, Instant::now() + ACCEPT_BACKOFF);
            return;
        }
        self.accept_ready();
    }

    /// Re-arms `token`'s idle deadline (no-op without an idle timeout).
    fn touch_idle(&mut self, token: u64) {
        if let Some(idle) = self.idle_timeout {
            self.wheel.arm(token, Instant::now() + idle);
        }
    }

    fn conn_ready(&mut self, token: u64, event: Event) {
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if event.writable && conn.line.wants_write() {
                let mut stream = &conn.stream;
                if conn.line.flush_into(&mut stream).is_err() {
                    self.close_conn(token);
                    return;
                }
            }
            if event.readable {
                // Remember the edge; pump drains it only when backpressure
                // allows (a skipped edge cannot re-fire, so the flag is the
                // reactor's memory that unread bytes are waiting).
                conn.want_read = true;
            }
        }
        self.pump(token);
    }

    /// Advances a connection as far as backpressure allows: drains the
    /// socket **unless** the connection is backed up — a peer that
    /// pipelines requests without reading responses stops being read
    /// entirely, so its bytes back up into kernel buffers and TCP flow
    /// control pushes back on *it*, instead of accumulating in server
    /// memory — then parses and closes if the session is over.
    fn pump(&mut self, token: u64) {
        let filled = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.want_read && !conn.backed_up() {
                conn.want_read = false;
                let mut stream = &conn.stream;
                match conn.line.fill(&mut stream) {
                    Ok(outcome) => {
                        if outcome.eof {
                            conn.read_closed = true;
                        }
                        outcome.bytes
                    }
                    Err(_) => {
                        self.close_conn(token);
                        return;
                    }
                }
            } else {
                0
            }
        };
        if filled > 0 {
            self.touch_idle(token);
        }
        self.parse_available(token);
        self.finish_round(token);
    }

    /// Parses and dispatches every complete frame the connection has
    /// buffered — request lines, or the counted payload a `PUSH` header
    /// announced — respecting QUIT and backpressure.
    fn parse_available(&mut self, token: u64) {
        loop {
            let frame = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.quit_at.is_some() || conn.backed_up() {
                    return;
                }
                match conn.line.next_frame() {
                    Some(frame) => frame,
                    None => return,
                }
            };
            match frame {
                Frame::Line(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    self.process_line(token, &line);
                }
                Frame::Payload(payload) => self.process_payload(token, payload),
            }
        }
    }

    /// Handles one request line: parse, open its [`Call`], and either
    /// dispatch it or — for `PUSH`/`SYNC` — switch the connection into
    /// payload mode until the counted bytes arrive.
    fn process_line(&mut self, token: u64, line: &str) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let seq = conn.next_seq;
        conn.next_seq += 1;
        let request = match protocol::parse_request(line) {
            Ok(request) => request,
            Err(e) => {
                self.context.stats.record_parse_error();
                self.emit(token, seq, protocol::err_response(&e));
                return;
            }
        };
        let call = Call::begin(&self.context, &request);
        match request {
            // Nothing else can be parsed before the payload, so the
            // response owed at `seq` keeps its place by construction.
            Request::Push { nbytes, .. } | Request::Sync { nbytes } => {
                conn.line.expect_payload(nbytes);
                conn.awaiting_payload = Some((seq, request, call));
            }
            _ => {
                if matches!(request, Request::Quit) {
                    // Stop parsing; close once this response is flushed.
                    conn.quit_at = Some(seq);
                }
                self.dispatch(token, seq, call, request, Vec::new());
            }
        }
    }

    /// The counted payload a `PUSH`/`SYNC` header announced has fully
    /// arrived: the request can execute.
    fn process_payload(&mut self, token: u64, payload: Vec<u8>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        // A payload frame without a pending header cannot happen — the one
        // expect_payload call site sets awaiting_payload — but dropping it
        // beats emitting a response at a phantom seq.
        let Some((seq, request, mut call)) = conn.awaiting_payload.take() else {
            return;
        };
        call.event("payload-read");
        self.dispatch(token, seq, call, request, payload);
    }

    /// Runs one request through the verb layer. A deferred step goes to
    /// the batcher or the pool with a completion sink. The call is answered
    /// at once if it has its outcome and owes the journal nothing;
    /// otherwise it waits in `pending` for [`Reactor::apply_completions`].
    fn dispatch(
        &mut self,
        token: u64,
        seq: u64,
        mut call: Call,
        request: Request,
        payload: Vec<u8>,
    ) {
        // A step that cannot be submitted met the shutdown race — the
        // batcher or the pool is gone — and the error is its inline answer,
        // instead of a request pending forever.
        let inline = match call.execute(request, payload, || self.sink(token, seq)) {
            Step::Done(outcome) => Some(outcome),
            Step::Batch { model, features } => {
                let sink = ScoreSink::Net(self.sink(token, seq));
                self.context
                    .batcher
                    .submit_sink(model, features, sink)
                    .err()
                    .map(|e| Outcome::Text(Err(e)))
            }
            Step::Pool(job) => {
                let sink = self.sink(token, seq);
                self.context
                    .pool
                    .execute(move || sink.send(Outcome::Text(job())))
                    .err()
                    .map(|e| Outcome::Text(Err(e)))
            }
        };
        let released = inline.and_then(|outcome| call.arrive(Arrival::Outcome(outcome)));
        match released {
            Some(outcome) => self.answer(token, seq, call, outcome),
            None => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.pending.insert(seq, call);
                    #[cfg(test)]
                    PARKED_HIGH_WATER.fetch_max(conn.parked(), Ordering::Relaxed);
                }
            }
        }
    }

    fn sink(&self, token: u64, seq: u64) -> NetSink {
        NetSink {
            completions: self.completions_tx.clone(),
            waker: Arc::clone(&self.waker),
            token,
            seq,
        }
    }

    fn apply_completions(&mut self) {
        while let Ok(completion) = self.completions_rx.try_recv() {
            let Completion {
                token,
                seq,
                arrival,
            } = completion;
            // A completion whose connection died meanwhile has nobody to
            // answer; its `Call` went with the connection.
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            let Entry::Occupied(mut parked) = conn.pending.entry(seq) else {
                continue;
            };
            // A journaled call needs both its outcome and its
            // acknowledgement; the first of the two leaves it parked.
            if let Some(outcome) = parked.get_mut().arrive(arrival) {
                let call = parked.remove();
                self.answer(token, seq, call, outcome);
                // The emitted response may have drained the output below
                // the watermark, and the call no longer counts as parked;
                // resume any reads and parsing paused behind either.
                self.pump(token);
            }
        }
    }

    /// Closes `call` with `outcome` and emits its response at `seq`.
    fn answer(&mut self, token: u64, seq: u64, call: Call, outcome: Outcome) {
        let response = call.complete(outcome, &self.span_ring);
        self.emit(token, seq, response);
    }

    /// Queues `response` for `seq`, then moves every now-contiguous
    /// response into the connection's output buffer and flushes.
    fn emit(&mut self, token: u64, seq: u64, response: String) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.ready.insert(seq, response);
        while let Some(response) = conn.ready.remove(&conn.next_write) {
            conn.line.enqueue_line(&response);
            conn.next_write += 1;
        }
        #[cfg(test)]
        PARKED_HIGH_WATER.fetch_max(conn.parked(), Ordering::Relaxed);
        let mut stream = &conn.stream;
        if conn.line.flush_into(&mut stream).is_err() {
            self.close_conn(token);
        }
        // Parsing paused at the high watermark resumes from conn_ready
        // (the next writable edge — guaranteed, because a non-empty outbuf
        // proves the kernel buffer filled) or from apply_completions; emit
        // itself never re-parses, so pipelined bursts cannot recurse.
    }

    /// End-of-round bookkeeping for one connection: close it once its
    /// QUIT (or the peer's half-close) has been fully served and flushed.
    fn finish_round(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let quit_done = conn
            .quit_at
            .is_some_and(|quit| conn.next_write > quit && !conn.line.wants_write());
        let peer_done = conn.read_closed && conn.drained();
        if quit_done || peer_done {
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        self.wheel.cancel(token);
        if let Some(conn) = self.conns.remove(&token) {
            self.live.fetch_sub(1, Ordering::Relaxed);
            self.poller.remove(conn.stream.as_raw_fd());
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }
}

/// The `server` module's tests cover the protocol; the tests here cover
/// the connection machinery: idle timeouts, shedding, backpressure and
/// pipelined reordering.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::toy_bundle;
    use crate::server::{Frontend, Server, ServerConfig};
    use pfr_core::persistence;
    use std::io::{BufRead, BufReader, Read, Write};

    fn reactor_server(idle: Option<Duration>) -> (Server, pfr_linalg::Matrix) {
        let (bundle, x) = toy_bundle();
        let server = Server::spawn(ServerConfig {
            frontend: Frontend::reactor(1),
            idle_timeout: idle,
            ..ServerConfig::default()
        })
        .unwrap();
        let text = persistence::bundle_to_string(&bundle);
        server.registry().load_from_str("risk", &text).unwrap();
        (server, x)
    }

    #[test]
    fn pipelined_requests_come_back_in_order() {
        let (server, x) = reactor_server(None);
        let model = server.registry().get("risk").unwrap();
        let expected = model.score_batch(&x).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        // One burst: mixed verbs, no reads until everything is written.
        let mut burst = String::new();
        for i in 0..x.rows() {
            burst.push_str(&format!(
                "SCORE risk {}\n",
                protocol::format_numbers(x.row(i))
            ));
            burst.push_str("HEALTH\n");
        }
        writer.write_all(burst.as_bytes()).unwrap();
        writer.flush().unwrap();
        for (i, want) in expected.iter().enumerate() {
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            let score: f64 = response.split_whitespace().nth(1).unwrap().parse().unwrap();
            assert_eq!(score.to_bits(), want.to_bits(), "row {i}");
            response.clear();
            reader.read_line(&mut response).unwrap();
            assert!(response.starts_with("OK up"), "{response}");
        }
        server.shutdown();
    }

    #[test]
    fn non_finite_and_junk_features_are_answered_with_bounded_errs() {
        let (server, x) = reactor_server(None);
        let model = server.registry().get("risk").unwrap();
        let want = model.score_batch(&x).unwrap()[0];
        let mut tokens: Vec<String> = x.row(0).iter().map(|v| v.to_string()).collect();
        tokens[1] = "NaN".to_string();
        let nan = tokens.join(" ");
        tokens[1] = "9".repeat(1 << 19) + "x";
        let junk = tokens.join(" ");
        let good = protocol::format_numbers(x.row(0));
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let burst = format!(
            "SCORE risk {nan}\nTRANSFORM risk {nan}\nSCORE risk {junk}\nSCORE risk {good}\n"
        );
        writer.write_all(burst.as_bytes()).unwrap();
        let mut read = || {
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            response
        };
        for _ in 0..2 {
            let response = read();
            assert!(
                response.starts_with("ERR ") && response.contains("feature 1 is not finite"),
                "{response}"
            );
        }
        let response = read();
        assert!(response.starts_with("ERR "), "{response}");
        assert!(response.len() < 128, "a {}-byte ERR line", response.len());
        // The connection is still in step: the good request is answered.
        let response = read();
        let score: f64 = response.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert_eq!(score.to_bits(), want.to_bits(), "{response}");
        assert_eq!(server.stats().score.requests(), 1);
        server.shutdown();
    }

    /// Pipelines `n` identical requests from a writer thread that never
    /// reads (it blocks once kernel buffers fill — that is the throttle),
    /// runs `before_reading`, then reads every response: all of them must
    /// come back, in order.
    fn flood(server: &Server, x: &pfr_linalg::Matrix, n: usize, before_reading: impl FnOnce()) {
        let line = format!("SCORE risk {}\n", protocol::format_numbers(x.row(0)));
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let writer_stream = stream;
        let writer = std::thread::spawn(move || {
            let mut writer_stream = writer_stream;
            for _ in 0..n {
                writer_stream.write_all(line.as_bytes()).unwrap();
            }
            writer_stream.flush().unwrap();
        });
        before_reading();
        let mut first = String::new();
        for i in 0..n {
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            assert!(response.starts_with("OK "), "row {i}: {response}");
            if i == 0 {
                first = response;
            } else {
                assert_eq!(response, first, "row {i} diverged");
            }
        }
        writer.join().unwrap();
    }

    #[test]
    fn a_flooding_client_is_throttled_not_buffered() {
        // 20k pipelined requests written before a single response is read:
        // the responses (> HIGH_WATER bytes) back the output up, the
        // reactor pauses reading the connection, and TCP pushes back on
        // the writer — instead of the server buffering the whole flood.
        // Every request is still answered, in order, once the client
        // starts reading.
        let (server, x) = reactor_server(None);
        // Let the flood hit the watermark before draining anything.
        flood(&server, &x, 20_000, || {
            std::thread::sleep(Duration::from_millis(100))
        });
        server.shutdown();
    }

    /// A default server journaling (per-record fsync) under a fresh
    /// directory, its fsyncs going through the returned hook.
    fn journaling_server(
        tag: &str,
    ) -> (
        Server,
        pfr_linalg::Matrix,
        pfr_journal::SyncHook,
        std::path::PathBuf,
    ) {
        let (bundle, x) = toy_bundle();
        let dir =
            std::env::temp_dir().join(format!("pfr_serve_flood_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let hook = pfr_journal::SyncHook::default();
        let mut journal = pfr_journal::JournalConfig::new(&dir);
        journal.sync_hook = Some(hook.clone());
        let server = Server::spawn(ServerConfig {
            journal: Some(journal),
            ..ServerConfig::default()
        })
        .unwrap();
        let text = persistence::bundle_to_string(&bundle);
        server.registry().load_from_str("risk", &text).unwrap();
        (server, x, hook, dir)
    }

    /// Polls `ready` until it holds: a state the server must reach.
    fn wait_until(what: &str, ready: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !ready() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_flooding_client_parks_a_bounded_backlog_on_a_journaling_server() {
        // The same flood while the journal's fsync is held: nothing can be
        // answered, so nothing is rendered and the output watermark sees
        // nothing. The parked-request bound is what stops the reactor from
        // reading (and journaling) the whole flood into memory.
        let (server, x, hook, dir) = journaling_server("journal");
        // Released below; the guard is for an assertion that fails first.
        let _held = hook.hold_scoped(0);
        flood(&server, &x, 20_000, || {
            wait_until("the flood to back up", || {
                server.stats().queue_depth() >= MAX_PARKED as u64
            });
            // No reads for 100 ms: the backlog sits at the bound.
            std::thread::sleep(Duration::from_millis(100));
            assert_eq!(server.stats().queue_depth(), MAX_PARKED as u64);
            hook.release();
        });
        assert!(PARKED_HIGH_WATER.load(Ordering::Relaxed) <= MAX_PARKED);
        assert_eq!(server.stats().queue_depth(), 0, "one exit per enter");
        assert_eq!(server.journal().unwrap().stats().appends(), 20_000);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn responses_waiting_behind_a_parked_head_count_against_the_bound() {
        // One SCORE parks on a held fsync; the 20 000 HEALTH pipelined
        // behind it are answered at once, out of turn, and every response
        // waits in the reorder buffer. Nothing is pending but the head and
        // nothing is in the output buffer, so only counting the reorder
        // buffer stops the reactor from reading and answering the lot.
        let (server, x, hook, dir) = journaling_server("reorder");
        let held = hook.hold_scoped(0);
        let flood = 20_000;
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut burst = format!("SCORE risk {}\n", protocol::format_numbers(x.row(0)));
        burst.push_str(&"HEALTH\n".repeat(flood));
        burst.push_str("QUIT\n");
        let writer = std::thread::spawn(move || writer.write_all(burst.as_bytes()).unwrap());
        // The head plus MAX_PARKED − 1 answered behind it, and not one more
        // for as long as the head stays parked.
        let behind = (MAX_PARKED - 1) as u64;
        wait_until("the flood to back up", || {
            server.stats().health.requests() >= behind
        });
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(server.stats().health.requests(), behind);
        drop(held);
        // Everything comes back, in request order.
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        let score: f64 = response.split_whitespace().nth(1).unwrap().parse().unwrap();
        let model = server.registry().get("risk").unwrap();
        let expected = model.score_one(x.row(0)).unwrap();
        assert_eq!(score.to_bits(), expected.to_bits(), "{response}");
        for i in 0..flood {
            response.clear();
            reader.read_line(&mut response).unwrap();
            assert!(response.starts_with("OK up"), "health {i}: {response}");
        }
        response.clear();
        reader.read_line(&mut response).unwrap();
        assert_eq!(response.trim_end(), "OK bye");
        writer.join().unwrap();
        assert!(PARKED_HIGH_WATER.load(Ordering::Relaxed) <= MAX_PARKED);
        assert_eq!(server.stats().queue_depth(), 0, "one exit per enter");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn connections_past_the_limit_are_shed_with_a_busy_line() {
        let (bundle, x) = toy_bundle();
        let server = Server::spawn(ServerConfig {
            frontend: Frontend::reactor(1),
            max_connections: Some(1),
            ..ServerConfig::default()
        })
        .unwrap();
        let text = persistence::bundle_to_string(&bundle);
        server.registry().load_from_str("risk", &text).unwrap();
        let line = format!("SCORE risk {}", protocol::format_numbers(x.row(0)));

        // First connection is admitted and served.
        let admitted = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(admitted.try_clone().unwrap());
        let mut writer = admitted;
        writeln!(writer, "{line}").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert!(response.starts_with("OK "), "{response}");

        // While it is held open, further connections are shed: one BUSY
        // line, then EOF.
        let shed = TcpStream::connect(server.addr()).unwrap();
        shed.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut shed_reader = BufReader::new(shed);
        let mut busy = String::new();
        shed_reader.read_line(&mut busy).unwrap();
        assert_eq!(busy.trim_end(), protocol::BUSY);
        let mut rest = String::new();
        assert_eq!(shed_reader.read_line(&mut rest).unwrap(), 0, "want EOF");
        assert_eq!(server.stats().sheds(), 1);

        // Releasing the admitted connection frees the slot.
        writeln!(writer, "QUIT").unwrap();
        response.clear();
        reader.read_line(&mut response).unwrap();
        assert!(response.starts_with("OK bye"), "{response}");
        drop((reader, writer));
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let retry = TcpStream::connect(server.addr()).unwrap();
            retry
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut retry_reader = BufReader::new(retry.try_clone().unwrap());
            let mut retry_writer = retry;
            writeln!(retry_writer, "{line}").unwrap();
            let mut response = String::new();
            retry_reader.read_line(&mut response).unwrap();
            if response.starts_with("OK ") {
                break;
            }
            assert_eq!(response.trim_end(), protocol::BUSY);
            assert!(
                Instant::now() < deadline,
                "slot never freed after the admitted connection quit"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        server.shutdown();
    }

    #[test]
    fn a_reactor_pool_serves_connections_on_every_thread() {
        let (bundle, x) = toy_bundle();
        let server = Server::spawn(ServerConfig {
            frontend: Frontend::reactor(4),
            ..ServerConfig::default()
        })
        .unwrap();
        let text = persistence::bundle_to_string(&bundle);
        server.registry().load_from_str("risk", &text).unwrap();
        let model = server.registry().get("risk").unwrap();
        let expected = model.score_batch(&x).unwrap();
        // More concurrent connections than reactors, each scoring every row.
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let addr = server.addr();
                let x = x.clone();
                let expected = expected.clone();
                std::thread::spawn(move || {
                    let stream = TcpStream::connect(addr).unwrap();
                    stream.set_nodelay(true).unwrap();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    for (i, want) in expected.iter().enumerate() {
                        writeln!(writer, "SCORE risk {}", protocol::format_numbers(x.row(i)))
                            .unwrap();
                        let mut response = String::new();
                        reader.read_line(&mut response).unwrap();
                        let score: f64 =
                            response.split_whitespace().nth(1).unwrap().parse().unwrap();
                        assert_eq!(score.to_bits(), want.to_bits(), "row {i}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn idle_connections_are_dropped_after_the_timeout() {
        let (server, x) = reactor_server(Some(Duration::from_millis(150)));
        // An active connection survives: keep it busy past the timeout.
        let busy = TcpStream::connect(server.addr()).unwrap();
        busy.set_nodelay(true).unwrap();
        let mut busy_reader = BufReader::new(busy.try_clone().unwrap());
        let mut busy_writer = busy;
        // An idle one gets dropped.
        let mut idle = TcpStream::connect(server.addr()).unwrap();
        let line = format!("SCORE risk {}", protocol::format_numbers(x.row(0)));
        for _ in 0..5 {
            std::thread::sleep(Duration::from_millis(60));
            writeln!(busy_writer, "{line}").unwrap();
            let mut response = String::new();
            busy_reader.read_line(&mut response).unwrap();
            assert!(response.starts_with("OK"), "{response}");
        }
        // By now the idle connection has been closed by the server.
        idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 1];
        let n = idle.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "idle connection should see EOF");
        server.shutdown();
    }

    #[test]
    fn a_client_waiting_for_its_reply_is_not_idle() {
        // Every worker is busy for six idle timeouts, so the score sits in
        // the batcher that long: the connection reads no byte for all that
        // time, but it is owed a reply, so the deadline must re-arm rather
        // than close it.
        let (server, x) = reactor_server(Some(Duration::from_millis(100)));
        let held = server.hold_workers();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writeln!(writer, "SCORE risk {}", protocol::format_numbers(x.row(0))).unwrap();
        std::thread::sleep(Duration::from_millis(600));
        assert_eq!(server.stats().batches(), 0, "scored with no worker free");
        drop(held);
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        assert!(
            response.starts_with("OK "),
            "want a score, got '{response}'"
        );
        server.shutdown();
    }
}
