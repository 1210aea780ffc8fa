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
//! reply classification, hot-cache fill and replica-set failover that
//! [`Router::score`](crate::Router::score) runs inline — a ticket can
//! resolve to an error only when the blocking call would have errored too.
//!
//! Tickets borrow the router (`'r`): the failover fallback and the
//! hot-cache fill need it, and the borrow guarantees no ticket outlives
//! the tier that issued it.

use crate::backend::Backend;
use crate::error::RouterError;
use crate::router::{Membership, Prepared, Router, ScoreLines};
use crate::Result;
use pfr_net::client::BurstResult;
use pfr_serve::cache::ScoreKey;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Everything needed to turn one backend's burst outcome into a final
/// score: settle the breaker, classify the reply, fall back over the
/// replica set on walk-on answers, fill the hot cache.
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
#[derive(Debug, Default)]
pub(crate) struct Flight {
    /// `None` while in flight; `Some(Some(score))` once the leader
    /// resolved; `Some(None)` when the leader failed or was abandoned —
    /// followers then fall back to their own resolution rather than
    /// propagate an error that might have been the leader's alone.
    done: Mutex<Option<Option<f64>>>,
    cv: Condvar,
}

impl Flight {
    /// First completion wins; later calls (e.g. the guard's drop after an
    /// explicit completion) are no-ops.
    fn complete(&self, score: Option<f64>) {
        let mut done = self.done.lock().expect("flight lock poisoned");
        if done.is_none() {
            *done = Some(score);
            self.cv.notify_all();
        }
    }

    /// Blocks until the leader completed or `deadline` passes (`None`: no
    /// deadline): `Some(outcome)` once completed, `None` on timeout.
    fn wait(&self, deadline: Option<Instant>) -> Option<Option<f64>> {
        let mut done = self.done.lock().expect("flight lock poisoned");
        loop {
            if let Some(outcome) = *done {
                return Some(outcome);
            }
            done = match deadline {
                None => self.cv.wait(done).expect("flight lock poisoned"),
                Some(deadline) => {
                    let timeout = deadline.checked_duration_since(Instant::now())?;
                    let waited = self.cv.wait_timeout(done, timeout);
                    waited.expect("flight lock poisoned").0
                }
            };
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

/// What a request became under single-flight admission.
pub(crate) enum FlightRole {
    /// First in: holds the guard, pays the backend round trip.
    Leader(FlightGuard),
    /// A leader is already flying this key; park on its flight.
    Follower(Arc<Flight>),
}

impl FlightRole {
    /// Joins the key's in-flight score as a follower, or registers a new
    /// flight in `map` and returns its leader guard.
    pub(crate) fn claim(map: &FlightMap, key: &ScoreKey) -> FlightRole {
        let mut flights = map.lock().expect("flight map poisoned");
        if let Some(flight) = flights.get(key) {
            return FlightRole::Follower(Arc::clone(flight));
        }
        let flight = Arc::new(Flight::default());
        flights.insert(key.clone(), Arc::clone(&flight));
        FlightRole::Leader(FlightGuard {
            map: Arc::clone(map),
            key: key.clone(),
            flight,
        })
    }
}

/// A pending ticket's one blocking wait. `&mut self` because resolution
/// is observed at most once — [`Ticket`] flips itself to the consumed
/// state after it yields a result.
pub(crate) trait PendingWork<T> {
    /// Blocks until the result is available or `deadline` passes (`None`:
    /// no deadline; a deadline already past polls). `None` on timeout —
    /// the work keeps whatever partial progress it made.
    fn wait(&mut self, deadline: Option<Instant>) -> Option<Result<T>>;
}

/// A pending single score: its one-entry completion plus its finish
/// recipe.
pub(crate) struct ScorePending<'r> {
    pub(crate) router: &'r Router,
    pub(crate) net: pfr_net::Ticket,
    pub(crate) finish: Option<ScoreFinish>,
}

impl PendingWork<f64> for ScorePending<'_> {
    fn wait(&mut self, deadline: Option<Instant>) -> Option<Result<f64>> {
        let outcome = self.net.wait(deadline)?;
        let finish = self.finish.take().expect("a score resolves once");
        Some(self.router.finish_score(finish, outcome))
    }
}

/// A follower parked on another request's in-flight score: resolves from
/// the leader's [`Flight`] without touching the network; falls back to
/// its own full resolution (fresh membership snapshot, replica-set
/// walk, cache fill) only when the leader failed — a leader's io failure
/// must not fan out into N failures.
pub(crate) struct CoalescedPending<'r> {
    pub(crate) router: &'r Router,
    pub(crate) model: String,
    pub(crate) line: String,
    pub(crate) key: Option<ScoreKey>,
    pub(crate) flight: Arc<Flight>,
}

impl PendingWork<f64> for CoalescedPending<'_> {
    fn wait(&mut self, deadline: Option<Instant>) -> Option<Result<f64>> {
        Some(match self.flight.wait(deadline)? {
            Some(score) => Ok(score),
            None => self.router.resolve_score(
                &self.router.membership(),
                &self.model,
                &self.line,
                self.key.clone(),
            ),
        })
    }
}

/// One sub-burst of an in-flight batch: the rows it carries (positions
/// into the batch's miss list) and, once settled, their responses — none
/// for a failed burst, whose rows fall through to the per-row retry.
pub(crate) struct SubBurst {
    pub(crate) positions: Vec<usize>,
    pub(crate) backend: Arc<Backend>,
    pub(crate) responses: Vec<String>,
}

/// A pending batch: every sub-burst lands on `net` under its index, and
/// the gather ([`Router::finish_batch`]) runs once all have settled.
pub(crate) struct BatchPending<'r> {
    pub(crate) router: &'r Router,
    pub(crate) net: pfr_net::CompletionQueue,
    pub(crate) outstanding: usize,
    pub(crate) snapshot: Arc<Membership>,
    pub(crate) model: String,
    pub(crate) scores: Vec<Option<f64>>,
    pub(crate) keys: Vec<Option<ScoreKey>>,
    pub(crate) miss: Vec<usize>,
    pub(crate) lines: ScoreLines,
    pub(crate) subs: Vec<SubBurst>,
}

impl PendingWork<Vec<f64>> for BatchPending<'_> {
    fn wait(&mut self, deadline: Option<Instant>) -> Option<Result<Vec<f64>>> {
        while self.outstanding > 0 {
            let (index, outcome) = self.net.pop(deadline)?;
            let sub = &mut self.subs[index as usize];
            sub.responses = sub.backend.settle(outcome).unwrap_or_default();
            self.outstanding -= 1;
        }
        Some(self.router.finish_batch(self))
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

    pub(crate) fn pending(work: impl PendingWork<T> + 'r) -> Ticket<'r, T> {
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
                let result = work.wait(Some(Instant::now()))?;
                self.state = State::Ready(None);
                Some(result)
            }
        }
    }

    /// Blocks until the request resolves.
    pub fn wait(self) -> Result<T> {
        self.wait_until(None)
            .unwrap_or_else(|_| unreachable!("a wait without a deadline resolves"))
    }

    /// Blocks until the request resolves or `deadline` passes; on timeout
    /// the ticket is returned so the caller can keep waiting later.
    pub fn wait_deadline(self, deadline: Instant) -> std::result::Result<Result<T>, Ticket<'r, T>> {
        self.wait_until(Some(deadline))
    }

    /// The one blocking wait behind [`Ticket::wait`] and
    /// [`Ticket::wait_deadline`] (`None`: no deadline).
    fn wait_until(
        self,
        deadline: Option<Instant>,
    ) -> std::result::Result<Result<T>, Ticket<'r, T>> {
        match self.state {
            State::Ready(slot) => Ok(slot.unwrap_or_else(|| {
                Err(RouterError::Protocol("ticket already consumed".to_string()))
            })),
            State::Pending(mut work) => work.wait(deadline).ok_or(Ticket {
                state: State::Pending(work),
            }),
        }
    }
}

enum Entry {
    Immediate(Result<f64>),
    Finish(ScoreFinish),
}

/// A completion queue for routed scores: submit any number of requests,
/// drain `(tag, score)` pairs in **completion order**.
///
/// Built from [`Router::completion_queue`](crate::Router::completion_queue).
/// Each [`CompletionQueue::submit_score`] returns a caller-correlatable
/// tag, sequential from 0; every submitted request produces exactly one
/// popped completion, including failures — nothing is silently dropped.
/// One caller thread can keep thousands of scores in flight this way,
/// with the reactor pipelining them over a handful of connections; the
/// submitting and the popping thread may differ.
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
    /// from [`CompletionQueue::pop`] under the returned tag. Queued
    /// submissions are never traced: tracing targets the ticketed
    /// single-score path.
    pub fn submit_score(&self, model: &str, features: &[f64]) -> u64 {
        let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        self.enter(tag, model, self.router.prepare_score(model, features, None));
        tag
    }

    /// Records `prepared` under `tag` *before* anything can complete it,
    /// so a popper on another thread always finds the entry, then lets it
    /// complete on the queue.
    fn enter(&self, tag: u64, model: &str, prepared: Prepared) {
        match prepared {
            Prepared::Immediate(result) => {
                self.record(tag, Entry::Immediate(result));
                // Locally resolved completions ride the same queue (an
                // empty placeholder burst), so pop order stays uniform.
                self.net.push(tag, Ok(Vec::new()));
            }
            // A queued submission never parks on a flight — its completion
            // must land on this queue — so a follower submits uncoalesced.
            Prepared::Follower { frame, key, .. } => {
                let prepared = self.router.dispatch(model, frame, key, None, None);
                self.enter(tag, model, prepared);
            }
            Prepared::Submit(frame, finish) => {
                let backend = Arc::clone(&finish.backend);
                self.record(tag, Entry::Finish(finish));
                backend.submit(frame, 1, &self.net, tag);
            }
        }
    }

    fn record(&self, tag: u64, entry: Entry) {
        self.pending
            .lock()
            .expect("completion map lock poisoned")
            .insert(tag, entry);
    }

    /// Blocks for the next completion, in completion order.
    pub fn pop(&self) -> (u64, Result<f64>) {
        let (tag, outcome) = self
            .net
            .pop(None)
            .expect("a pop without a deadline resolves");
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
