//! A reactor-backed line-protocol client: one event-loop thread multiplexes
//! every outbound connection, so a caller fanning a batch out to N replicas
//! submits N operations and blocks on N tickets — **zero threads are
//! spawned per request**, which is what lets a routing tier scatter to its
//! whole replica set without paying a thread per backend per request.
//!
//! There is one submission core, [`ClientDriver::submit_frame`]: raw
//! request bytes (newline-joined lines, or a header line plus counted
//! payload), the number of response lines that resolve them, and the
//! [`CompletionQueue`] plus tag the one result lands on. A [`Ticket`] is a
//! one-entry queue the caller polls ([`Ticket::try_take`]) or blocks on
//! ([`Ticket::wait`], with or without a deadline); a queue shared by many
//! submissions drains them in whatever order they land — the shape that
//! lets **one caller thread keep thousands of operations in flight**.
//!
//! Operations to the same address are **pipelined**: up to
//! [`ClientConfig::max_pipeline`] submissions share one connection
//! back-to-back (the serve protocol answers in order on one connection), so
//! 10k in-flight operations cost hundreds of sockets, not 10k. Because the
//! reactor interleaves reads and writes on the same connection, a burst may
//! exceed the combined socket buffers without deadlocking — the
//! write-all-then-read-all pipelining of a blocking client cannot do that,
//! which is why it must cap its bursts.
//!
//! Connections are pooled per address (up to `max_idle` kept warm), dialed
//! non-blockingly on demand, and torn down on any error or deadline —
//! a connection that failed mid-exchange is out of protocol sync and can
//! never be reused, and a failure fails every operation queued behind it on
//! that connection. Deadlines (connect and io) ride the
//! [`crate::wheel::DeadlineWheel`] and always govern the *head* operation
//! of a connection's pipeline.

use crate::line::LineConn;
use crate::poller::{Event, Interest, Poller, Waker};
use crate::stats::LoopStats;
use crate::sys::{self, ConnectStart};
use crate::wheel::DeadlineWheel;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for a [`ClientDriver`].
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// How long a non-blocking dial may take to become writable.
    pub connect_timeout: Duration,
    /// Deadline for one whole operation (burst out + responses in),
    /// armed from the moment the operation reaches the head of its
    /// connection's pipeline.
    pub io_timeout: Duration,
    /// Idle connections kept per address; excess are closed on release.
    pub max_idle: usize,
    /// Longest tolerated response line.
    pub max_line: usize,
    /// Most operations multiplexed back-to-back onto one connection before
    /// the reactor dials another to the same address. 1 disables
    /// pipelining (one operation per connection at a time).
    pub max_pipeline: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_millis(250),
            io_timeout: Duration::from_secs(2),
            max_idle: 8,
            max_line: 1 << 20,
            max_pipeline: 32,
        }
    }
}

/// The result of one submitted burst: the response lines, in order.
pub type BurstResult = io::Result<Vec<String>>;

fn reactor_gone() -> io::Error {
    io::Error::new(io::ErrorKind::NotConnected, "client reactor is gone")
}

/// A handle to one in-flight submission: a [`CompletionQueue`] that
/// receives exactly one completion. Submit against [`Ticket::queue`],
/// then poll it ([`Ticket::try_take`]) or block on it ([`Ticket::wait`],
/// with or without a deadline).
#[derive(Debug, Default)]
pub struct Ticket(CompletionQueue);

impl Ticket {
    /// A ticket nothing has been submitted against yet.
    pub fn new() -> Ticket {
        Ticket::default()
    }

    /// The queue the one completion lands on (under any tag).
    pub fn queue(&self) -> &CompletionQueue {
        &self.0
    }

    /// Non-blocking poll: `Some(result)` once the operation resolved,
    /// `None` while it is still in flight.
    pub fn try_take(&mut self) -> Option<BurstResult> {
        self.0.try_pop().map(|(_, result)| result)
    }

    /// Blocks until the operation resolves or `deadline` passes (`None`:
    /// no deadline). `None` only on timeout; the ticket stays valid, so the
    /// caller can keep waiting or polling.
    pub fn wait(&mut self, deadline: Option<Instant>) -> Option<BurstResult> {
        self.0.pop(deadline).map(|(_, result)| result)
    }
}

/// A completion queue shared by many in-flight submissions: each
/// [`ClientDriver::submit_frame`] call names a caller-chosen `tag`, and
/// results land here **in completion order**, not submission order. One
/// caller thread submits thousands of operations against one queue and
/// drains `(tag, result)` pairs as they arrive — no per-operation channel,
/// no per-operation park/unpark.
///
/// Cloning is cheap (the queue is internally `Arc`-shared); all clones
/// drain the same completions.
#[derive(Debug, Clone, Default)]
pub struct CompletionQueue {
    inner: Arc<QueueInner>,
}

#[derive(Debug, Default)]
struct QueueInner {
    ready: Mutex<VecDeque<(u64, BurstResult)>>,
    available: Condvar,
}

impl CompletionQueue {
    /// An empty queue.
    pub fn new() -> CompletionQueue {
        CompletionQueue::default()
    }

    /// Records one completion and wakes a waiting [`CompletionQueue::pop`].
    /// Public so callers can inject locally-resolved completions (cache
    /// hits, validation failures) into the same drain loop as wire results.
    pub fn push(&self, tag: u64, result: BurstResult) {
        let mut ready = self.inner.ready.lock().expect("queue lock never poisons");
        ready.push_back((tag, result));
        drop(ready);
        self.inner.available.notify_one();
    }

    /// Non-blocking drain of the oldest completion.
    pub fn try_pop(&self) -> Option<(u64, BurstResult)> {
        self.inner
            .ready
            .lock()
            .expect("queue lock never poisons")
            .pop_front()
    }

    /// Blocks for the oldest completion until `deadline` passes (`None`:
    /// no deadline); `None` only on timeout. Callers are expected to track
    /// how many submissions are outstanding and not over-pop.
    pub fn pop(&self, deadline: Option<Instant>) -> Option<(u64, BurstResult)> {
        let mut ready = self.inner.ready.lock().expect("queue lock never poisons");
        loop {
            if let Some(item) = ready.pop_front() {
                return Some(item);
            }
            let available = &self.inner.available;
            ready = match deadline {
                None => available.wait(ready).expect("queue lock never poisons"),
                Some(deadline) => {
                    let timeout = deadline.checked_duration_since(Instant::now())?;
                    let waited = available.wait_timeout(ready, timeout);
                    waited.expect("queue lock never poisons").0
                }
            };
        }
    }

    /// Completions currently buffered (not yet popped).
    pub fn len(&self) -> usize {
        self.inner
            .ready
            .lock()
            .expect("queue lock never poisons")
            .len()
    }

    /// Whether no completion is currently buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

enum Op {
    Burst {
        addr: SocketAddr,
        /// Pre-framed request bytes: newline-joined lines, or a header line
        /// plus counted payload for frame submissions.
        bytes: Vec<u8>,
        /// Response lines to collect before the operation resolves.
        expect: usize,
        /// Where the one result lands, and under which tag.
        queue: CompletionQueue,
        tag: u64,
    },
    /// Close every idle connection to `addr` (e.g. after its backend was
    /// ejected, so re-admission starts from fresh sockets).
    Drain(SocketAddr),
}

/// A handle to the reactor thread. Cloning the handle is done by `Arc`;
/// dropping the last handle stops and joins the reactor.
#[derive(Debug)]
pub struct ClientDriver {
    ops: Sender<Op>,
    waker: Arc<Waker>,
    loop_stats: Arc<LoopStats>,
    thread: Option<JoinHandle<()>>,
}

impl ClientDriver {
    /// Starts the reactor thread.
    pub fn spawn(config: ClientConfig) -> io::Result<ClientDriver> {
        let waker = Arc::new(Waker::new()?);
        let (ops, op_rx) = mpsc::channel();
        let reactor = Reactor::new(config, Arc::clone(&waker), op_rx)?;
        let loop_stats = Arc::clone(&reactor.loop_stats);
        let thread = std::thread::Builder::new()
            .name("pfr-net-client".to_string())
            .spawn(move || reactor.run())
            .expect("spawning the client reactor never fails on this platform");
        Ok(ClientDriver {
            ops,
            waker,
            loop_stats,
            thread: Some(thread),
        })
    }

    /// The reactor thread's event-loop health counters (live; updated
    /// every loop iteration).
    pub fn loop_stats(&self) -> &Arc<LoopStats> {
        &self.loop_stats
    }

    /// Submits a pre-framed request — raw bytes: newline-joined lines, or
    /// a header line plus counted payload (the `PUSH` verb) — expecting
    /// `expect` response lines. This is **the** submission core. It never
    /// blocks, and its one result lands on `queue` under `tag`: a
    /// [`Ticket`]'s queue for one operation, or a queue shared by
    /// thousands. A driver whose reactor is gone lands `NotConnected`.
    pub fn submit_frame(
        &self,
        addr: SocketAddr,
        bytes: Vec<u8>,
        expect: usize,
        queue: &CompletionQueue,
        tag: u64,
    ) {
        let op = Op::Burst {
            addr,
            bytes,
            expect,
            queue: queue.clone(),
            tag,
        };
        if self.ops.send(op).is_err() {
            queue.push(tag, Err(reactor_gone()));
            return;
        }
        // The op is queued either way: a failed wake leaves it for the
        // next one, and landing an error as well would complete the tag
        // twice.
        let _ = self.waker.wake();
    }

    /// Closes every idle pooled connection to `addr`.
    pub fn drain(&self, addr: SocketAddr) {
        if self.ops.send(Op::Drain(addr)).is_ok() {
            let _ = self.waker.wake();
        }
    }
}

impl Drop for ClientDriver {
    fn drop(&mut self) {
        // Closing the op channel is the shutdown signal; the wake makes the
        // reactor notice it even while idle.
        drop(std::mem::replace(&mut self.ops, mpsc::channel().0));
        let _ = self.waker.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

const WAKER_TOKEN: u64 = 0;

/// One in-flight operation bound to a connection.
struct Job {
    expect: usize,
    got: Vec<String>,
    queue: CompletionQueue,
    tag: u64,
}

enum Phase {
    /// Dial in flight; payloads are already queued in the `LineConn`.
    Connecting,
    /// Established, exchanging or idle (idle = no jobs).
    Established,
}

struct Conn {
    addr: SocketAddr,
    /// Owns the fd; wrapped as a `TcpStream` for read/write/nodelay.
    stream: TcpStream,
    line: LineConn,
    phase: Phase,
    /// In-flight operations in submission order. The serve protocol
    /// answers in order on one connection, so responses resolve jobs FIFO;
    /// the deadline wheel always tracks the front job.
    jobs: VecDeque<Job>,
}

struct Reactor {
    config: ClientConfig,
    poller: Poller,
    waker: Arc<Waker>,
    ops: Receiver<Op>,
    conns: HashMap<u64, Conn>,
    idle: HashMap<SocketAddr, Vec<u64>>,
    wheel: DeadlineWheel,
    next_token: u64,
    loop_stats: Arc<LoopStats>,
}

impl Reactor {
    fn new(config: ClientConfig, waker: Arc<Waker>, ops: Receiver<Op>) -> io::Result<Reactor> {
        let poller = Poller::new(256)?;
        poller.add(waker.raw_fd(), WAKER_TOKEN, Interest::READABLE.level())?;
        Ok(Reactor {
            config,
            poller,
            waker,
            ops,
            conns: HashMap::new(),
            idle: HashMap::new(),
            // 64 slots x 16ms ≈ 1s horizon per revolution; deadlines past
            // the horizon simply ride extra revolutions.
            wheel: DeadlineWheel::new(Duration::from_millis(16), 64),
            next_token: WAKER_TOKEN + 1,
            loop_stats: Arc::new(LoopStats::new()),
        })
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut expired: Vec<u64> = Vec::new();
        loop {
            let timeout = self.wheel.next_timeout(Instant::now());
            let waited = Instant::now();
            if self.poller.wait(&mut events, timeout).is_err() {
                // EBADF etc. can only mean teardown races; bail out.
                break;
            }
            self.loop_stats.record_poll(waited.elapsed(), events.len());
            let mut shutdown = false;
            // Drain in place so the buffer's capacity is reused every
            // wakeup (`events` is a local, so borrowing it across the
            // `&mut self` calls below is fine).
            for event in events.drain(..) {
                if event.token == WAKER_TOKEN {
                    self.waker.drain();
                    if self.drain_ops() {
                        shutdown = true;
                    }
                } else {
                    self.drive(event);
                }
            }
            // Ops may have arrived between the waker write and our drain of
            // the channel even without an event this round; harmless — the
            // pending wake delivers them next round.
            expired.clear();
            self.wheel.advance(Instant::now(), &mut expired);
            for token in expired.drain(..) {
                self.fail(
                    token,
                    io::Error::new(io::ErrorKind::TimedOut, "io deadline"),
                );
            }
            self.loop_stats.set_wheel_depth(self.wheel.len());
            if shutdown {
                break;
            }
        }
        // Fail whatever is still in flight so no caller blocks forever.
        for (_, mut conn) in self.conns.drain() {
            for job in conn.jobs.drain(..) {
                job.queue.push(
                    job.tag,
                    Err(io::Error::new(
                        io::ErrorKind::NotConnected,
                        "client reactor stopped",
                    )),
                );
            }
        }
    }

    /// Pulls every queued op; returns true when the channel closed (the
    /// driver handle was dropped — time to shut down).
    fn drain_ops(&mut self) -> bool {
        loop {
            match self.ops.try_recv() {
                Ok(Op::Burst {
                    addr,
                    bytes,
                    expect,
                    queue,
                    tag,
                }) => self.start_burst(
                    addr,
                    bytes,
                    Job {
                        expect,
                        got: Vec::with_capacity(expect),
                        queue,
                        tag,
                    },
                ),
                Ok(Op::Drain(addr)) => {
                    for token in self.idle.remove(&addr).unwrap_or_default() {
                        self.close(token);
                    }
                }
                Err(mpsc::TryRecvError::Empty) => return false,
                Err(mpsc::TryRecvError::Disconnected) => return true,
            }
        }
    }

    fn start_burst(&mut self, addr: SocketAddr, bytes: Vec<u8>, job: Job) {
        if job.expect == 0 {
            job.queue.push(job.tag, Ok(Vec::new()));
            return;
        }
        let token = match self.pick_conn(addr) {
            Ok(token) => token,
            Err(e) => {
                job.queue.push(job.tag, Err(e));
                return;
            }
        };
        let conn = self.conns.get_mut(&token).expect("picked conn exists");
        conn.line.enqueue_bytes(&bytes);
        let was_empty = conn.jobs.is_empty();
        conn.jobs.push_back(job);
        if was_empty {
            let deadline = match conn.phase {
                // The io deadline starts after the handshake resolves; until
                // then the (shorter) connect deadline governs.
                Phase::Connecting => self.config.connect_timeout,
                Phase::Established => self.config.io_timeout,
            };
            self.wheel.arm(token, Instant::now() + deadline);
        }
        if matches!(
            self.conns.get(&token).map(|c| &c.phase),
            Some(Phase::Established)
        ) {
            self.pump(token, true, true);
        }
    }

    /// Picks the connection a new operation rides: a pooled idle one, then
    /// the least-loaded busy (or still-connecting) one with pipeline
    /// headroom, then a fresh dial.
    fn pick_conn(&mut self, addr: SocketAddr) -> io::Result<u64> {
        if let Some(token) = self.pop_idle(addr) {
            return Ok(token);
        }
        let mut best: Option<(u64, usize)> = None;
        for (&token, conn) in &self.conns {
            if conn.addr != addr
                || conn.jobs.is_empty()
                || conn.jobs.len() >= self.config.max_pipeline.max(1)
            {
                continue;
            }
            if best.is_none_or(|(_, depth)| conn.jobs.len() < depth) {
                best = Some((token, conn.jobs.len()));
            }
        }
        if let Some((token, _)) = best {
            return Ok(token);
        }
        self.dial(addr)
    }

    fn pop_idle(&mut self, addr: SocketAddr) -> Option<u64> {
        let pool = self.idle.get_mut(&addr)?;
        while let Some(token) = pool.pop() {
            // A pooled connection may have died while idle; skip corpses.
            if self.conns.contains_key(&token) {
                return Some(token);
            }
        }
        None
    }

    fn dial(&mut self, addr: SocketAddr) -> io::Result<u64> {
        let (fd, start) = sys::connect_nonblocking(&addr)?;
        let token = self.next_token;
        self.next_token += 1;
        // OwnedFd -> TcpStream transfers fd ownership without unsafe; the
        // stream is already non-blocking from SOCK_NONBLOCK.
        let stream = TcpStream::from(fd);
        let _ = stream.set_nodelay(true);
        self.poller
            .add(stream.as_raw_fd(), token, Interest::DUPLEX)?;
        let phase = match start {
            ConnectStart::Connected => Phase::Established,
            ConnectStart::InProgress => Phase::Connecting,
        };
        self.conns.insert(
            token,
            Conn {
                addr,
                stream,
                line: LineConn::new(self.config.max_line),
                phase,
                jobs: VecDeque::new(),
            },
        );
        Ok(token)
    }

    /// Handles one readiness event for a connection token.
    fn drive(&mut self, event: Event) {
        let Some(conn) = self.conns.get_mut(&event.token) else {
            return; // already closed this round
        };
        if let Phase::Connecting = conn.phase {
            if event.writable || event.closed {
                match sys::take_socket_error(conn.stream.as_raw_fd()) {
                    Ok(()) => {
                        conn.phase = Phase::Established;
                        if !conn.jobs.is_empty() {
                            // Handshake done: the io deadline takes over.
                            self.wheel
                                .arm(event.token, Instant::now() + self.config.io_timeout);
                        }
                    }
                    Err(e) => {
                        self.fail(event.token, e);
                        return;
                    }
                }
            } else {
                return;
            }
        }
        if event.closed
            && self
                .conns
                .get(&event.token)
                .is_some_and(|c| c.jobs.is_empty())
        {
            // An idle pooled connection the backend closed: just drop it.
            self.close(event.token);
            return;
        }
        self.pump(event.token, event.readable, true);
    }

    /// Advances a connection: drain writes, drain reads, resolve jobs FIFO.
    fn pump(&mut self, token: u64, readable: bool, writable: bool) {
        let io_timeout = self.config.io_timeout;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if writable && conn.line.wants_write() {
            let mut stream = &conn.stream;
            if let Err(e) = conn.line.flush_into(&mut stream) {
                self.fail(token, e);
                return;
            }
        }
        if !readable {
            return;
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut stream = &conn.stream;
        let outcome = match conn.line.fill(&mut stream) {
            Ok(outcome) => outcome,
            Err(e) => {
                self.fail(token, e);
                return;
            }
        };
        let mut completed = false;
        while let Some(job) = conn.jobs.front_mut() {
            let mut done = false;
            while let Some(line) = conn.line.next_line() {
                job.got.push(line);
                if job.got.len() == job.expect {
                    done = true;
                    break;
                }
            }
            if !done {
                break;
            }
            let finished = conn.jobs.pop_front().expect("front job exists");
            finished.queue.push(finished.tag, Ok(finished.got));
            completed = true;
            // The deadline follows the head of the pipeline: re-arm a
            // fresh io budget for the next job, or disarm when drained.
            if conn.jobs.is_empty() {
                self.wheel.cancel(token);
            } else {
                self.wheel.arm(token, Instant::now() + io_timeout);
            }
        }
        if conn.jobs.is_empty() {
            if completed {
                // The pipeline just drained: pool the connection if it is
                // protocol-clean (leftover buffered bytes mean more
                // responses than requests — corruption; never pool).
                let clean = !conn.line.wants_write() && conn.line.pending_in() == 0 && !outcome.eof;
                let addr = conn.addr;
                if clean {
                    let pool = self.idle.entry(addr).or_default();
                    if pool.len() < self.config.max_idle {
                        pool.push(token);
                        return;
                    }
                }
                self.close(token);
            } else if outcome.eof {
                // Already-idle connection the peer closed.
                self.close(token);
            }
            return;
        }
        if outcome.eof {
            self.fail(
                token,
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "backend closed the connection",
                ),
            );
        }
    }

    /// The connection (and every job queued on it) failed: report and tear
    /// down. Pipelined jobs behind the failure share its error — the
    /// connection is out of protocol sync, so none of them can resolve.
    fn fail(&mut self, token: u64, error: io::Error) {
        self.wheel.cancel(token);
        if let Some(conn) = self.conns.get_mut(&token) {
            let kind = error.kind();
            let msg = error.to_string();
            let mut first = Some(error);
            for job in conn.jobs.drain(..) {
                let e = first
                    .take()
                    .unwrap_or_else(|| io::Error::new(kind, msg.clone()));
                job.queue.push(job.tag, Err(e));
            }
        }
        self.close(token);
    }

    fn close(&mut self, token: u64) {
        self.wheel.cancel(token);
        if let Some(conn) = self.conns.remove(&token) {
            self.poller.remove(conn.stream.as_raw_fd());
            // Dropping the stream closes the fd.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// A blocking thread-per-conn echo server: `PING` -> `PONG <n>` where n
    /// counts requests on that connection (so pooling is observable).
    fn echo_server() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    let mut line = String::new();
                    let mut count = 0u32;
                    loop {
                        line.clear();
                        if reader.read_line(&mut line).unwrap_or(0) == 0 {
                            return;
                        }
                        count += 1;
                        if writeln!(writer, "PONG {count}").is_err() {
                            return;
                        }
                    }
                });
            }
        });
        addr
    }

    /// Frames `lines` newline-terminated into one submission on a ticket.
    fn submit(driver: &ClientDriver, addr: SocketAddr, lines: &[&str]) -> Ticket {
        let ticket = Ticket::new();
        let bytes = lines.iter().flat_map(|l| [l.as_bytes(), b"\n"]).flatten();
        driver.submit_frame(
            addr,
            bytes.copied().collect(),
            lines.len(),
            ticket.queue(),
            0,
        );
        ticket
    }

    fn wait_all(driver: &ClientDriver, addr: SocketAddr, lines: &[&str]) -> BurstResult {
        submit(driver, addr, lines).wait(None).expect("no deadline")
    }

    #[test]
    fn submitted_bursts_round_trip_and_reuse_the_connection() {
        let addr = echo_server();
        let driver = ClientDriver::spawn(ClientConfig::default()).unwrap();
        assert_eq!(wait_all(&driver, addr, &["PING"]).unwrap(), vec!["PONG 1"]);
        // Same pooled connection: the counter keeps rising.
        assert_eq!(
            wait_all(&driver, addr, &["PING", "PING"]).unwrap(),
            vec!["PONG 2", "PONG 3"]
        );
        driver.drain(addr);
        // Drained: a fresh connection restarts the counter.
        assert_eq!(wait_all(&driver, addr, &["PING"]).unwrap(), vec!["PONG 1"]);
    }

    #[test]
    fn concurrent_submits_fan_out_without_spawning_threads() {
        let addr_a = echo_server();
        let addr_b = echo_server();
        let driver = ClientDriver::spawn(ClientConfig::default()).unwrap();
        // Submit first, collect second — the scatter-gather shape.
        let mut ticket_a = submit(&driver, addr_a, &["PING", "PING"]);
        let mut ticket_b = submit(&driver, addr_b, &["PING"]);
        assert_eq!(
            ticket_a.wait(None).unwrap().unwrap(),
            vec!["PONG 1", "PONG 2"]
        );
        assert_eq!(ticket_b.wait(None).unwrap().unwrap(), vec!["PONG 1"]);
    }

    #[test]
    fn submit_frame_sends_raw_bytes_and_collects_the_expected_lines() {
        let addr = echo_server();
        let driver = ClientDriver::spawn(ClientConfig::default()).unwrap();
        // A pre-framed burst: two lines as one byte blob, two responses.
        let mut ticket = Ticket::new();
        driver.submit_frame(addr, b"PING\nPING\n".to_vec(), 2, ticket.queue(), 0);
        let replies = ticket.wait(None).unwrap().unwrap();
        assert_eq!(replies, vec!["PONG 1", "PONG 2"]);
    }

    #[test]
    fn ticket_try_take_polls_and_a_deadline_wait_keeps_the_ticket_on_timeout() {
        // A server that answers only after a delay, so polling observes the
        // in-flight state.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    let mut line = String::new();
                    while reader.read_line(&mut line).unwrap_or(0) > 0 {
                        std::thread::sleep(Duration::from_millis(100));
                        if writeln!(writer, "LATE").is_err() {
                            return;
                        }
                        line.clear();
                    }
                });
            }
        });
        let driver = ClientDriver::spawn(ClientConfig::default()).unwrap();
        let mut ticket = submit(&driver, addr, &["PING"]);
        assert!(ticket.try_take().is_none(), "response cannot be ready yet");
        if let Some(result) = ticket.wait(Some(Instant::now() + Duration::from_millis(5))) {
            panic!("5ms deadline should expire first, got {result:?}");
        }
        // Timed out as expected and still in flight.
        assert_eq!(ticket.wait(None).unwrap().unwrap(), vec!["LATE"]);
    }

    #[test]
    fn one_caller_thread_drives_thousands_of_queued_submissions() {
        let addr = echo_server();
        let driver = ClientDriver::spawn(ClientConfig {
            io_timeout: Duration::from_secs(30),
            ..ClientConfig::default()
        })
        .unwrap();
        let queue = CompletionQueue::new();
        const N: u64 = 3000;
        for tag in 0..N {
            driver.submit_frame(addr, b"PING\n".to_vec(), 1, &queue, tag);
        }
        let mut seen = vec![false; N as usize];
        for _ in 0..N {
            let (tag, result) = queue.pop(None).expect("no deadline");
            assert!(!std::mem::replace(&mut seen[tag as usize], true));
            let lines = result.unwrap();
            assert_eq!(lines.len(), 1);
            assert!(lines[0].starts_with("PONG "), "{}", lines[0]);
        }
        assert!(queue.is_empty());
    }

    #[test]
    fn pipelining_multiplexes_many_jobs_onto_few_connections() {
        let addr = echo_server();
        let driver = ClientDriver::spawn(ClientConfig {
            io_timeout: Duration::from_secs(30),
            max_pipeline: 64,
            ..ClientConfig::default()
        })
        .unwrap();
        // 256 separate submissions; with max_pipeline=64 they share a
        // handful of connections, observable through the per-connection
        // PONG counters: pipelined jobs see counters far above 1.
        let tickets: Vec<Ticket> = (0..256).map(|_| submit(&driver, addr, &["PING"])).collect();
        let mut max_counter = 0u32;
        for mut ticket in tickets {
            let lines = ticket.wait(None).unwrap().unwrap();
            let counter: u32 = lines[0]
                .strip_prefix("PONG ")
                .expect("echo format")
                .parse()
                .unwrap();
            max_counter = max_counter.max(counter);
        }
        assert!(
            max_counter > 4,
            "256 jobs never shared a connection (max per-conn counter {max_counter})"
        );
    }

    #[test]
    fn a_large_burst_exceeding_socket_buffers_does_not_deadlock() {
        let addr = echo_server();
        let driver = ClientDriver::spawn(ClientConfig {
            io_timeout: Duration::from_secs(30),
            ..ClientConfig::default()
        })
        .unwrap();
        // ~2000 pipelined lines: far beyond what write-all-then-read-all
        // could push through loopback buffers without the reactor reading
        // responses concurrently.
        let lines: Vec<String> = (0..2000).map(|_| "PING".to_string()).collect();
        let line_refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let replies = wait_all(&driver, addr, &line_refs).unwrap();
        assert_eq!(replies.len(), 2000);
        assert_eq!(replies[0], "PONG 1");
        assert_eq!(replies[1999], "PONG 2000");
    }

    #[test]
    fn dead_port_fails_within_the_connect_timeout() {
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let driver = ClientDriver::spawn(ClientConfig {
            connect_timeout: Duration::from_millis(200),
            ..ClientConfig::default()
        })
        .unwrap();
        let start = Instant::now();
        assert!(wait_all(&driver, addr, &["PING"]).is_err());
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn a_server_that_stops_answering_hits_the_io_deadline() {
        // Accepts, reads, never replies.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let mut held = Vec::new();
            for stream in listener.incoming().flatten() {
                held.push(stream); // keep the socket open, say nothing
            }
        });
        let driver = ClientDriver::spawn(ClientConfig {
            io_timeout: Duration::from_millis(150),
            ..ClientConfig::default()
        })
        .unwrap();
        let start = Instant::now();
        let err = wait_all(&driver, addr, &["PING"]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn a_deadline_fails_every_job_pipelined_behind_it() {
        // Answers the first request, then goes silent: the second job times
        // out at the head, and the third (queued behind it on the same
        // connection) fails with it.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap_or(0) > 0 {
                        let _ = writeln!(writer, "PONG 1");
                    }
                    loop {
                        line.clear();
                        if reader.read_line(&mut line).unwrap_or(0) == 0 {
                            return; // read but never answer again
                        }
                    }
                });
            }
        });
        let driver = ClientDriver::spawn(ClientConfig {
            io_timeout: Duration::from_millis(150),
            ..ClientConfig::default()
        })
        .unwrap();
        let mut first = submit(&driver, addr, &["PING"]);
        let mut second = submit(&driver, addr, &["PING"]);
        let mut third = submit(&driver, addr, &["PING"]);
        assert_eq!(first.wait(None).unwrap().unwrap(), vec!["PONG 1"]);
        assert_eq!(
            second.wait(None).unwrap().unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
        assert_eq!(
            third.wait(None).unwrap().unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
    }

    #[test]
    fn dropping_the_driver_stops_the_reactor() {
        let addr = echo_server();
        let driver = ClientDriver::spawn(ClientConfig::default()).unwrap();
        assert!(wait_all(&driver, addr, &["PING"]).is_ok());
        drop(driver); // joins the reactor thread; no hang = pass
    }
}
