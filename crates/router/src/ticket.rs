//! Asynchronous completions for the routing tier: typed [`Ticket`]s and a
//! tagged [`CompletionQueue`], layered over `pfr-net`'s frame-level
//! tickets.
//!
//! [`Router::submit_score`](crate::Router::submit_score) starts a score
//! without blocking and hands back a `Ticket<f64>`; the caller polls it
//! ([`Ticket::try_take`]), blocks on it ([`Ticket::wait`], with or without
//! a deadline), or — for thousands of in-flight requests from one thread —
//! submits through a [`CompletionQueue`] and drains results in completion
//! order. The routing semantics are identical to the blocking entry
//! points: the ticket's resolution runs the same breaker bookkeeping,
//! reply classification, hot-cache fill and preference-order failover that
//! [`Router::score`](crate::Router::score) runs inline — a ticket can
//! resolve to an error only when the blocking call would have errored too.
//!
//! Tickets borrow the router (`'r`): the failover fallback and the
//! hot-cache fill need it, and the borrow guarantees no ticket outlives
//! the tier that issued it.

use crate::backend::Backend;
use crate::error::RouterError;
use crate::router::{Membership, Router, ScoreLines};
use crate::Result;
use pfr_net::client::BurstResult;
use pfr_serve::cache::ScoreKey;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Everything needed to turn one backend's burst outcome into a final
/// score: settle the breaker, classify the reply, fall back along the
/// preference order on walk-on answers, fill the hot cache.
pub(crate) struct ScoreFinish {
    pub(crate) snapshot: Arc<Membership>,
    pub(crate) model: String,
    pub(crate) line: String,
    pub(crate) key: Option<ScoreKey>,
    pub(crate) backend: Arc<Backend>,
    /// When the request was submitted — the backend's latency histogram
    /// records `started.elapsed()` at collection.
    pub(crate) started: Instant,
    /// The router-side span of a traced request (`None` otherwise);
    /// finished into the router's span ring when the score resolves.
    pub(crate) span: Option<pfr_obs::ActiveSpan>,
    /// The single-flight leadership held by this request (`None` when the
    /// request is uncoalescible: traced, uncacheable, or cache disabled).
    /// Completed with the score on resolution; the guard's drop releases
    /// parked followers even if resolution panicked or was abandoned.
    pub(crate) flight: Option<FlightGuard>,
}

/// One in-flight cold-miss score, shared between its leader (who pays the
/// backend round trip) and every concurrent identical request parked on
/// it.
#[derive(Debug)]
pub(crate) struct Flight {
    /// `None` while in flight; `Some(Some(score))` once the leader
    /// resolved; `Some(None)` when the leader failed or was abandoned —
    /// followers then fall back to their own resolution rather than
    /// propagate an error that might have been the leader's alone.
    done: Mutex<Option<Option<f64>>>,
    cv: Condvar,
}

impl Flight {
    pub(crate) fn new() -> Flight {
        Flight {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    /// First completion wins; later calls (e.g. the guard's drop after an
    /// explicit completion) are no-ops.
    fn complete(&self, score: Option<f64>) {
        let mut done = self.done.lock().expect("flight lock poisoned");
        if done.is_none() {
            *done = Some(score);
            self.cv.notify_all();
        }
    }

    fn peek(&self) -> Option<Option<f64>> {
        *self.done.lock().expect("flight lock poisoned")
    }

    fn wait(&self) -> Option<f64> {
        let mut done = self.done.lock().expect("flight lock poisoned");
        loop {
            if let Some(outcome) = *done {
                return outcome;
            }
            done = self.cv.wait(done).expect("flight lock poisoned");
        }
    }

    /// `None` on timeout, `Some(outcome)` once the leader completed.
    fn wait_deadline(&self, deadline: Instant) -> Option<Option<f64>> {
        let mut done = self.done.lock().expect("flight lock poisoned");
        loop {
            if let Some(outcome) = *done {
                return Some(outcome);
            }
            let timeout = deadline.checked_duration_since(Instant::now())?;
            let (guard, result) = self
                .cv
                .wait_timeout(done, timeout)
                .expect("flight lock poisoned");
            done = guard;
            if result.timed_out() && done.is_none() {
                return None;
            }
        }
    }
}

/// The router's in-flight cold-miss registry, shared with every leader's
/// guard so the entry is removed wherever the leader resolves.
pub(crate) type FlightMap = Arc<Mutex<HashMap<ScoreKey, Arc<Flight>>>>;

/// Held by a flight's leader. Completing it releases the followers;
/// dropping it un-registers the flight — and completes it as failed
/// first if the leader never resolved, so followers can never park
/// forever on an abandoned leader.
pub(crate) struct FlightGuard {
    map: FlightMap,
    key: ScoreKey,
    flight: Arc<Flight>,
}

impl FlightGuard {
    pub(crate) fn new(map: FlightMap, key: ScoreKey, flight: Arc<Flight>) -> FlightGuard {
        FlightGuard { map, key, flight }
    }

    pub(crate) fn complete(&self, score: Option<f64>) {
        self.flight.complete(score);
    }
}

impl Drop for FlightGuard {
    fn drop(&mut self) {
        self.flight.complete(None);
        let mut map = self.map.lock().expect("flight map poisoned");
        // Only remove our own flight: a follower that fell back and
        // became a fresh leader may have re-registered the key.
        if map
            .get(&self.key)
            .is_some_and(|current| Arc::ptr_eq(current, &self.flight))
        {
            map.remove(&self.key);
        }
    }
}

/// One sub-burst of an in-flight batch: the rows it carries (positions
/// into the batch's miss list) and where its responses stand.
pub(crate) struct SubBurst {
    pub(crate) positions: Vec<usize>,
    pub(crate) backend: Arc<Backend>,
    pub(crate) state: SubState,
}

pub(crate) enum SubState {
    /// The burst is riding the reactor; the net ticket resolves it.
    Waiting(pfr_net::Ticket),
    /// Settled (breaker fed); a failed burst holds no responses and its
    /// rows fall through to the per-row retry.
    Done(Vec<String>),
}

/// The resolution strategies a pending ticket supports. `&mut self`
/// because resolution is observed at most once — [`Ticket`] flips itself
/// to the consumed state after any of these yields a result.
trait PendingWork<T> {
    /// Non-blocking: `Some` once the result is available.
    fn poll(&mut self) -> Option<Result<T>>;
    /// Blocks until the result is available.
    fn wait(&mut self) -> Result<T>;
    /// Blocks until `deadline`; `None` on timeout (the work keeps
    /// whatever partial progress it made).
    fn wait_deadline(&mut self, deadline: Instant) -> Option<Result<T>>;
}

/// A pending single score: one net ticket plus its finish recipe.
pub(crate) struct ScorePending<'r> {
    router: &'r Router,
    net: Option<pfr_net::Ticket>,
    finish: Option<ScoreFinish>,
}

impl<'r> ScorePending<'r> {
    fn resolve(&mut self, outcome: BurstResult) -> Result<f64> {
        let finish = self
            .finish
            .take()
            .expect("a score pending resolves exactly once");
        self.router.finish_score(finish, outcome)
    }
}

impl PendingWork<f64> for ScorePending<'_> {
    fn poll(&mut self) -> Option<Result<f64>> {
        let outcome = self.net.as_mut()?.try_take()?;
        Some(self.resolve(outcome))
    }

    fn wait(&mut self) -> Result<f64> {
        let net = self.net.take().expect("a score pending waits exactly once");
        let outcome = net.wait();
        self.resolve(outcome)
    }

    fn wait_deadline(&mut self, deadline: Instant) -> Option<Result<f64>> {
        let net = self.net.take().expect("a score pending waits exactly once");
        match net.wait_deadline(deadline) {
            Ok(outcome) => Some(self.resolve(outcome)),
            Err(net) => {
                self.net = Some(net);
                None
            }
        }
    }
}

/// A follower parked on another request's in-flight score: resolves from
/// the leader's [`Flight`] without touching the network; falls back to
/// its own full resolution (fresh membership snapshot, preference-order
/// walk, cache fill) only when the leader failed — a leader's io failure
/// must not fan out into N failures.
pub(crate) struct CoalescedPending<'r> {
    router: &'r Router,
    model: String,
    line: String,
    key: Option<ScoreKey>,
    flight: Arc<Flight>,
}

impl CoalescedPending<'_> {
    fn settle(&self, outcome: Option<f64>) -> Result<f64> {
        match outcome {
            Some(score) => Ok(score),
            None => self.router.resolve_score(
                &self.router.membership(),
                &self.model,
                &self.line,
                self.key.clone(),
            ),
        }
    }
}

impl PendingWork<f64> for CoalescedPending<'_> {
    fn poll(&mut self) -> Option<Result<f64>> {
        let outcome = self.flight.peek()?;
        Some(self.settle(outcome))
    }

    fn wait(&mut self) -> Result<f64> {
        let outcome = self.flight.wait();
        self.settle(outcome)
    }

    fn wait_deadline(&mut self, deadline: Instant) -> Option<Result<f64>> {
        let outcome = self.flight.wait_deadline(deadline)?;
        Some(self.settle(outcome))
    }
}

/// A pending batch: every sub-burst's net ticket plus the gather/retry
/// recipe ([`Router::finish_batch`]).
pub(crate) struct BatchPending<'r> {
    router: &'r Router,
    snapshot: Arc<Membership>,
    model: String,
    scores: Vec<Option<f64>>,
    keys: Vec<Option<ScoreKey>>,
    miss: Vec<usize>,
    lines: ScoreLines,
    subs: Vec<SubBurst>,
}

impl<'r> BatchPending<'r> {
    fn settle(sub: &mut SubBurst, outcome: BurstResult) {
        let responses = sub.backend.settle_burst(outcome).unwrap_or_default();
        sub.state = SubState::Done(responses);
    }

    /// All sub-bursts settled: gather, retry, fill the cache, assemble.
    fn finish(&mut self) -> Result<Vec<f64>> {
        let gathered = std::mem::take(&mut self.subs)
            .into_iter()
            .map(|sub| match sub.state {
                SubState::Done(responses) => (sub.positions, responses),
                SubState::Waiting(_) => unreachable!("finish runs after every sub settled"),
            })
            .collect();
        self.router.finish_batch(
            &self.snapshot,
            &self.model,
            std::mem::take(&mut self.scores),
            std::mem::take(&mut self.keys),
            std::mem::take(&mut self.miss),
            std::mem::take(&mut self.lines),
            gathered,
        )
    }
}

impl PendingWork<Vec<f64>> for BatchPending<'_> {
    fn poll(&mut self) -> Option<Result<Vec<f64>>> {
        for sub in &mut self.subs {
            if let SubState::Waiting(net) = &mut sub.state {
                let outcome = net.try_take()?;
                Self::settle(sub, outcome);
            }
        }
        Some(self.finish())
    }

    fn wait(&mut self) -> Result<Vec<f64>> {
        for sub in &mut self.subs {
            if let SubState::Waiting(_) = sub.state {
                let SubState::Waiting(net) =
                    std::mem::replace(&mut sub.state, SubState::Done(Vec::new()))
                else {
                    unreachable!("matched Waiting above");
                };
                let outcome = net.wait();
                Self::settle(sub, outcome);
            }
        }
        self.finish()
    }

    fn wait_deadline(&mut self, deadline: Instant) -> Option<Result<Vec<f64>>> {
        for sub in &mut self.subs {
            if let SubState::Waiting(_) = sub.state {
                let SubState::Waiting(net) =
                    std::mem::replace(&mut sub.state, SubState::Done(Vec::new()))
                else {
                    unreachable!("matched Waiting above");
                };
                match net.wait_deadline(deadline) {
                    Ok(outcome) => Self::settle(sub, outcome),
                    Err(net) => {
                        sub.state = SubState::Waiting(net);
                        return None;
                    }
                }
            }
        }
        Some(self.finish())
    }
}

enum State<'r, T> {
    /// Resolved at submit time (hot-cache hit, no live replica, empty
    /// batch); `None` once the result has been taken.
    Ready(Option<Result<T>>),
    Pending(Box<dyn PendingWork<T> + 'r>),
}

/// A typed handle to one in-flight routed request.
///
/// Obtained from [`Router::submit_score`](crate::Router::submit_score)
/// (`Ticket<f64>`) and
/// [`Router::submit_score_batch`](crate::Router::submit_score_batch)
/// (`Ticket<Vec<f64>>`). Resolve it exactly once: poll with
/// [`Ticket::try_take`], block with [`Ticket::wait`], or bound the block
/// with [`Ticket::wait_deadline`] (which hands the ticket back on
/// timeout, so nothing is lost). For draining *many* in-flight scores in
/// completion order from one thread, use a [`CompletionQueue`] instead.
pub struct Ticket<'r, T> {
    state: State<'r, T>,
}

impl<'r, T> Ticket<'r, T> {
    /// A ticket that resolved at submit time.
    pub(crate) fn ready(result: Result<T>) -> Ticket<'r, T> {
        Ticket {
            state: State::Ready(Some(result)),
        }
    }

    fn pending(work: impl PendingWork<T> + 'r) -> Ticket<'r, T> {
        Ticket {
            state: State::Pending(Box::new(work)),
        }
    }

    /// Non-blocking poll: `Some(result)` once the request resolved,
    /// `None` while it is still in flight. After returning `Some`, the
    /// ticket is consumed (further calls return `None`).
    pub fn try_take(&mut self) -> Option<Result<T>> {
        match &mut self.state {
            State::Ready(slot) => slot.take(),
            State::Pending(work) => {
                let result = work.poll()?;
                self.state = State::Ready(None);
                Some(result)
            }
        }
    }

    /// Blocks until the request resolves.
    pub fn wait(self) -> Result<T> {
        match self.state {
            State::Ready(slot) => slot.unwrap_or_else(|| {
                Err(RouterError::Protocol("ticket already consumed".to_string()))
            }),
            State::Pending(mut work) => work.wait(),
        }
    }

    /// Blocks until the request resolves or `deadline` passes; on timeout
    /// the ticket is returned so the caller can keep waiting later.
    pub fn wait_deadline(self, deadline: Instant) -> std::result::Result<Result<T>, Ticket<'r, T>> {
        match self.state {
            State::Ready(slot) => Ok(slot.unwrap_or_else(|| {
                Err(RouterError::Protocol("ticket already consumed".to_string()))
            })),
            State::Pending(mut work) => match work.wait_deadline(deadline) {
                Some(result) => Ok(result),
                None => Err(Ticket {
                    state: State::Pending(work),
                }),
            },
        }
    }
}

pub(crate) fn pending_score<'r>(
    router: &'r Router,
    net: pfr_net::Ticket,
    finish: ScoreFinish,
) -> Ticket<'r, f64> {
    Ticket::pending(ScorePending {
        router,
        net: Some(net),
        finish: Some(finish),
    })
}

pub(crate) fn coalesced_score<'r>(
    router: &'r Router,
    model: String,
    line: String,
    key: Option<ScoreKey>,
    flight: Arc<Flight>,
) -> Ticket<'r, f64> {
    Ticket::pending(CoalescedPending {
        router,
        model,
        line,
        key,
        flight,
    })
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn pending_batch<'r>(
    router: &'r Router,
    snapshot: Arc<Membership>,
    model: String,
    scores: Vec<Option<f64>>,
    keys: Vec<Option<ScoreKey>>,
    miss: Vec<usize>,
    lines: ScoreLines,
    subs: Vec<SubBurst>,
) -> Ticket<'r, Vec<f64>> {
    Ticket::pending(BatchPending {
        router,
        snapshot,
        model,
        scores,
        keys,
        miss,
        lines,
        subs,
    })
}

/// What became of a queued submission at submit time.
pub(crate) enum QueuedSubmit {
    /// Resolved without a pending submission (hot-cache hit, or no live
    /// replica and an inline walk of the preference order).
    Immediate(Result<f64>),
    /// In flight: the tagged result will land on the net queue and
    /// `ScoreFinish` turns it into a score.
    Pending(ScoreFinish),
}

enum Entry {
    Immediate(Result<f64>),
    Finish(ScoreFinish),
}

/// A completion queue for routed scores: submit any number of requests
/// from one thread, drain `(tag, score)` pairs in **completion order**.
///
/// Built from [`Router::completion_queue`](crate::Router::completion_queue).
/// Each [`CompletionQueue::submit_score`] returns a caller-correlatable
/// tag; every submitted request produces exactly one popped completion,
/// including failures — nothing is silently dropped. One caller thread
/// can keep thousands of scores in flight this way, with the reactor
/// pipelining them over a handful of connections.
pub struct CompletionQueue<'r> {
    router: &'r Router,
    net: pfr_net::CompletionQueue,
    pending: Mutex<HashMap<u64, Entry>>,
    next_tag: AtomicU64,
}

impl<'r> CompletionQueue<'r> {
    pub(crate) fn new(router: &'r Router) -> CompletionQueue<'r> {
        CompletionQueue {
            router,
            net: pfr_net::CompletionQueue::new(),
            pending: Mutex::new(HashMap::new()),
            next_tag: AtomicU64::new(0),
        }
    }

    /// Starts scoring `features` with `model`; the result will surface
    /// from [`CompletionQueue::pop`] under the returned tag.
    pub fn submit_score(&self, model: &str, features: &[f64]) -> u64 {
        let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        let entry = match self
            .router
            .submit_score_queued(model, features, &self.net, tag)
        {
            QueuedSubmit::Pending(finish) => Entry::Finish(finish),
            QueuedSubmit::Immediate(result) => {
                // Locally resolved completions ride the same queue (an
                // empty placeholder burst), so pop order stays uniform.
                self.net.push(tag, Ok(Vec::new()));
                Entry::Immediate(result)
            }
        };
        self.pending
            .lock()
            .expect("completion map lock poisoned")
            .insert(tag, entry);
        tag
    }

    /// Blocks for the next completion, in completion order.
    pub fn pop(&self) -> (u64, Result<f64>) {
        let (tag, outcome) = self.net.pop();
        self.resolve(tag, outcome)
    }

    /// Non-blocking [`CompletionQueue::pop`].
    pub fn try_pop(&self) -> Option<(u64, Result<f64>)> {
        let (tag, outcome) = self.net.try_pop()?;
        Some(self.resolve(tag, outcome))
    }

    /// Submissions not yet popped.
    pub fn in_flight(&self) -> usize {
        self.pending
            .lock()
            .expect("completion map lock poisoned")
            .len()
    }

    /// Whether every submission has been popped.
    pub fn is_empty(&self) -> bool {
        self.in_flight() == 0
    }

    fn resolve(&self, tag: u64, outcome: BurstResult) -> (u64, Result<f64>) {
        let entry = self
            .pending
            .lock()
            .expect("completion map lock poisoned")
            .remove(&tag);
        let result = match entry {
            Some(Entry::Immediate(result)) => result,
            Some(Entry::Finish(finish)) => self.router.finish_score(finish, outcome),
            None => Err(RouterError::Protocol(format!(
                "completion for unknown tag {tag}"
            ))),
        };
        (tag, result)
    }
}
