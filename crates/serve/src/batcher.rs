//! Request micro-batching: coalesce up to `B` single-vector score requests
//! into one matrix so standardize + project + classify run as a single
//! batched GEMM pass through `pfr_linalg`'s blocked kernel
//! (`pfr_linalg::gemm`), which keeps per-row results bitwise identical no
//! matter how many requests share the batch.
//!
//! The rule is **batch while busy, never on a timer**:
//!
//! ```text
//! reactors ──submit()──► FIFO ◄──drain job── WorkerPool ──► replies
//!              └─ schedules a    (takes ≤ B, one Matrix per model)
//!                 drain job
//! ```
//!
//! The push that starts a new batch schedules one drain job on the worker
//! pool, and the worker that runs it takes whatever is queued by then. With
//! a worker free that is at once and the batch is the lone request: one
//! hand-off, no timer, no thread of the batcher's own. With every worker
//! busy the job waits its turn and the queue grows behind it — the batch is
//! what arrived while the workers were occupied, as the journal's group is
//! what arrived during the previous fsync. Batches form exactly when they
//! pay, never by making a request wait for company.

use crate::error::ServeError;
use crate::model::ServableModel;
use crate::pool::WorkerPool;
use crate::stats::ServerStats;
use crate::Result;
use pfr_linalg::Matrix;
use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Where a completed score lands. The blocking entry points
/// ([`MicroBatcher::submit`], [`MicroBatcher::score`]) wait on a channel;
/// a reactor cannot block, so its sink records a completion for the event
/// loop and rings its waker.
#[derive(Debug)]
pub(crate) enum ScoreSink {
    /// Reply over an mpsc channel the caller is blocked on.
    Channel(Sender<Result<f64>>),
    /// Reply into the reactor's completion queue.
    Net(crate::reactor_front::NetSink),
}

impl ScoreSink {
    fn send(self, result: Result<f64>) {
        match self {
            ScoreSink::Channel(tx) => {
                // A dropped receiver just means the caller stopped waiting.
                let _ = tx.send(result);
            }
            ScoreSink::Net(sink) => sink.send(crate::verbs::Outcome::Score(result)),
        }
    }
}

/// One queued score request: which model, which vector, where to reply.
#[derive(Debug)]
struct ScoreRequest {
    model: Arc<ServableModel>,
    features: Vec<f64>,
    reply: ScoreSink,
    /// `pfr_serve_batch_wait_ns` runs from here to the batch being taken.
    queued: Instant,
}

/// Configuration of a [`MicroBatcher`].
#[derive(Debug, Clone)]
pub struct BatcherConfig {
    /// Maximum number of requests coalesced into one scoring pass. What
    /// queued beyond it is the next batch, for whichever worker is next.
    pub max_batch: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig { max_batch: 64 }
    }
}

/// Coalesces concurrent single-vector requests into batched scoring passes.
#[derive(Debug)]
pub struct MicroBatcher {
    queue: Arc<Mutex<VecDeque<ScoreRequest>>>,
    max_batch: usize,
    stats: Arc<ServerStats>,
    /// Never handed to a drain job: a job that owned the pool could drop
    /// the last reference on a worker, and `WorkerPool::drop` joins them.
    pool: Arc<WorkerPool>,
}

impl MicroBatcher {
    /// A batcher whose drain jobs run on `pool`.
    pub fn new(config: BatcherConfig, pool: Arc<WorkerPool>, stats: Arc<ServerStats>) -> Self {
        MicroBatcher {
            queue: Arc::default(),
            max_batch: config.max_batch.max(1),
            stats,
            pool,
        }
    }

    /// Enqueues one score request; the returned receiver yields the score
    /// (or the scoring error) once its batch has run.
    pub fn submit(
        &self,
        model: Arc<ServableModel>,
        features: Vec<f64>,
    ) -> Result<Receiver<Result<f64>>> {
        let (reply, rx) = mpsc::channel();
        self.submit_sink(model, features, ScoreSink::Channel(reply))?;
        Ok(rx)
    }

    /// Enqueues one score request with an explicit reply sink (the
    /// reactors' non-blocking entry point).
    ///
    /// Every drain takes `max_batch` requests or the whole queue, so the
    /// queue always needs `⌈len / max_batch⌉` drains, and exactly the push
    /// that finds `len` at a multiple of `max_batch` raises that number:
    /// that push schedules one. Nothing else tracks what is scheduled, and
    /// no job ever needs the pool to schedule a successor.
    pub(crate) fn submit_sink(
        &self,
        model: Arc<ServableModel>,
        features: Vec<f64>,
        reply: ScoreSink,
    ) -> Result<()> {
        let queued = Instant::now();
        let mut queue = self.queue.lock().expect("batcher queue poisoned");
        let starts_a_batch = queue.len().is_multiple_of(self.max_batch);
        queue.push_back(ScoreRequest {
            model,
            features,
            reply,
            queued,
        });
        drop(queue);
        if starts_a_batch {
            let (queue, stats) = (Arc::clone(&self.queue), Arc::clone(&self.stats));
            let max_batch = self.max_batch;
            let scheduled = self.pool.execute(move || drain(&queue, max_batch, &stats));
            // Without the pool nobody will ever drain.
            scheduled.inspect_err(|_| self.fail_queued())?;
        }
        Ok(())
    }

    /// Convenience wrapper: submit and block for the score.
    pub fn score(&self, model: Arc<ServableModel>, features: Vec<f64>) -> Result<f64> {
        self.submit(model, features)?
            .recv()
            .map_err(|_| ServeError::Shutdown)?
    }

    /// Drops every queued request, so each blocked caller sees its reply
    /// channel close (`ServeError::Shutdown`). A drain job that runs
    /// afterwards finds nothing to take.
    fn fail_queued(&self) {
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        queue.clear();
    }
}

impl Drop for MicroBatcher {
    /// Shutdown scores for nobody: what is still queued fails rather than
    /// occupying the workers the pool's own drop is about to join.
    fn drop(&mut self) {
        self.fail_queued();
    }
}

/// One drain job: takes the oldest `max_batch` requests (or all of them)
/// and scores them, one pass per model generation, in arrival order. The
/// queue is unlocked before any scoring, so another worker can take the
/// next batch while this one runs.
fn drain(queue: &Mutex<VecDeque<ScoreRequest>>, max_batch: usize, stats: &ServerStats) {
    let mut batch: Vec<ScoreRequest> = {
        let mut queue = queue.lock().expect("batcher queue poisoned");
        let take = queue.len().min(max_batch);
        queue.drain(..take).collect()
    };
    let taken = Instant::now();
    for request in &batch {
        stats.record_batch_wait(taken.duration_since(request.queued));
    }
    while let Some(first) = batch.first() {
        let generation = first.model.generation();
        let (group, rest) = batch
            .into_iter()
            .partition(|r| r.model.generation() == generation);
        run_batch(group, stats);
        batch = rest;
    }
}

/// Scores one coalesced group with a single batched pass and fans the
/// results back out to the per-request reply channels.
fn run_batch(group: Vec<ScoreRequest>, stats: &ServerStats) {
    let model = Arc::clone(&group[0].model);
    let cols = model.num_features();
    // Mis-sized vectors cannot share the matrix; fail them individually and
    // score the rest.
    let (bad, group): (Vec<_>, Vec<_>) = group.into_iter().partition(|r| r.features.len() != cols);
    for r in bad {
        let width = r.features.len();
        r.reply.send(Err(ServeError::Model(format!(
            "request vector has {width} features but the model expects {cols}"
        ))));
    }
    if group.is_empty() {
        return;
    }
    stats.record_batch(group.len());
    let rows = group.len();
    let mut data = Vec::with_capacity(rows * cols);
    for r in &group {
        data.extend_from_slice(&r.features);
    }
    let batch = match Matrix::from_vec(rows, cols, data) {
        Ok(m) => m,
        Err(e) => {
            for r in group {
                r.reply.send(Err(ServeError::model(&e)));
            }
            return;
        }
    };
    match model.score_batch(&batch) {
        Ok(scores) => {
            for (r, score) in group.into_iter().zip(scores) {
                r.reply.send(Ok(score));
            }
        }
        Err(e) => {
            let msg = e.to_string();
            for r in group {
                r.reply.send(Err(ServeError::Model(msg.clone())));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::toy_bundle;
    use crate::model::ServableModel;
    use crate::pool::tests::hold_workers;
    use std::time::Duration;

    /// A batcher over its own pool of `workers`. Every test below that
    /// wants requests to queue holds those workers, submits, and releases:
    /// what it asserts is a count, never a timing.
    fn setup(
        max_batch: usize,
        workers: usize,
    ) -> (
        MicroBatcher,
        Arc<WorkerPool>,
        Arc<ServableModel>,
        Matrix,
        Arc<ServerStats>,
    ) {
        let (bundle, x) = toy_bundle();
        let model = Arc::new(ServableModel::from_bundle("toy@1", &bundle).unwrap());
        let pool = Arc::new(WorkerPool::new(workers));
        let stats = Arc::new(ServerStats::new());
        let batcher = MicroBatcher::new(
            BatcherConfig { max_batch },
            Arc::clone(&pool),
            Arc::clone(&stats),
        );
        (batcher, pool, model, x, stats)
    }

    fn assert_scores_row(model: &ServableModel, x: &Matrix, row: usize, got: f64) {
        let expected = model.score_one(x.row(row)).unwrap();
        assert_eq!(got.to_bits(), expected.to_bits(), "row {row}");
    }

    #[test]
    fn an_idle_pool_scores_a_lone_request_at_once_as_a_batch_of_one() {
        // No second request is ever sent: nothing may wait for company.
        let (batcher, _pool, model, x, stats) = setup(64, 2);
        let got = batcher
            .score(Arc::clone(&model), x.row(0).to_vec())
            .unwrap();
        assert_scores_row(&model, &x, 0, got);
        assert_eq!(stats.batches(), 1);
        assert_eq!(stats.max_batch(), 1);
    }

    #[test]
    fn requests_queued_while_every_worker_is_busy_share_one_batch() {
        let (batcher, pool, model, x, stats) = setup(8, 2);
        let held = hold_workers(&pool);
        let receivers: Vec<_> = (0..x.rows())
            .map(|i| {
                batcher
                    .submit(Arc::clone(&model), x.row(i).to_vec())
                    .unwrap()
            })
            .collect();
        assert_eq!(stats.batches(), 0, "scored with no worker free");
        drop(held);
        for (i, rx) in receivers.into_iter().enumerate() {
            assert_scores_row(&model, &x, i, rx.recv().unwrap().unwrap());
        }
        let rows = x.rows() as u64;
        assert_eq!(stats.batches(), 1);
        assert_eq!(stats.max_batch(), rows);
        assert_eq!(stats.batched_requests(), rows);
        // Each request's queue wait is in the scrape.
        let registry = pfr_obs::MetricsRegistry::new();
        stats.register_metrics(&registry);
        let scrape = registry.render();
        assert!(
            scrape.contains(&format!("pfr_serve_batch_wait_ns_count {rows}\n")),
            "{scrape}"
        );
    }

    #[test]
    fn a_backlog_past_the_cap_splits_into_full_batches_in_submission_order() {
        // One worker, so the batches run one after another, and one reply
        // channel, so the order the scores come back in is the order the
        // rows were scored in.
        let max_batch = 2;
        let (batcher, pool, model, x, stats) = setup(max_batch, 1);
        let held = hold_workers(&pool);
        let (reply, replies) = mpsc::channel();
        let queued = 2 * max_batch + 1;
        for i in 0..queued {
            batcher
                .submit_sink(
                    Arc::clone(&model),
                    x.row(i).to_vec(),
                    ScoreSink::Channel(reply.clone()),
                )
                .unwrap();
        }
        drop(held);
        for i in 0..queued {
            assert_scores_row(&model, &x, i, replies.recv().unwrap().unwrap());
        }
        // Three batches of at most two rows holding five: two, two, one.
        assert_eq!(stats.batches(), 3);
        assert_eq!(stats.max_batch(), max_batch as u64);
        assert_eq!(stats.batched_requests(), queued as u64);
    }

    #[test]
    fn one_drain_scores_each_model_generation_in_its_own_pass() {
        let (batcher, pool, model_a, x, stats) = setup(16, 2);
        let (bundle, _) = toy_bundle();
        let model_b = Arc::new(ServableModel::from_bundle("toy@2", &bundle).unwrap());
        let held = hold_workers(&pool);
        let receivers: Vec<_> = [&model_a, &model_b, &model_a]
            .into_iter()
            .enumerate()
            .map(|(i, model)| {
                let rx = batcher
                    .submit(Arc::clone(model), x.row(i).to_vec())
                    .unwrap();
                (i, model, rx)
            })
            .collect();
        drop(held);
        for (i, model, rx) in receivers {
            assert_scores_row(model, &x, i, rx.recv().unwrap().unwrap());
        }
        assert_eq!(stats.batches(), 2, "one pass per model generation");
        assert_eq!(stats.max_batch(), 2);
        assert_eq!(stats.batched_requests(), 3);
    }

    #[test]
    fn mixed_width_requests_fail_individually_without_killing_the_batch() {
        let (batcher, pool, model, x, stats) = setup(8, 2);
        let held = hold_workers(&pool);
        let first = batcher
            .submit(Arc::clone(&model), x.row(0).to_vec())
            .unwrap();
        let bad = batcher.submit(Arc::clone(&model), vec![1.0, 2.0]).unwrap();
        let last = batcher
            .submit(Arc::clone(&model), x.row(1).to_vec())
            .unwrap();
        drop(held);
        assert!(bad.recv().unwrap().is_err());
        assert_scores_row(&model, &x, 0, first.recv().unwrap().unwrap());
        assert_scores_row(&model, &x, 1, last.recv().unwrap().unwrap());
        assert_eq!(stats.batches(), 1);
        assert_eq!(
            stats.batched_requests(),
            2,
            "the mis-sized row is not scored"
        );
    }

    #[test]
    fn dropping_the_batcher_fails_what_is_still_queued() {
        let (batcher, pool, model, x, stats) = setup(2, 2);
        let held = hold_workers(&pool);
        // Past the cap, so more than one drain job sits in the pool.
        let receivers: Vec<_> = (0..5)
            .map(|i| {
                batcher
                    .submit(Arc::clone(&model), x.row(i).to_vec())
                    .unwrap()
            })
            .collect();
        drop(batcher);
        for rx in receivers {
            // The closed channel is what `score` reports as `Shutdown`.
            assert!(rx.recv().is_err(), "scored after the batcher was gone");
        }
        // The drain jobs still run when the workers come free, find
        // nothing, and the pool joins: no hang, no panic, nothing scored.
        drop(held);
        drop(pool);
        assert_eq!(stats.batches(), 0);
    }

    #[test]
    fn concurrent_submitters_lose_no_request() {
        // Four submitters race two workers across a cap of three, so pushes
        // that schedule a drain interleave with drains taking batches.
        let (batcher, _pool, model, x, stats) = setup(3, 2);
        let per_thread = 200;
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (batcher, model, x) = (&batcher, &model, &x);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let row = (i + t) % x.rows();
                        let got = batcher
                            .submit(Arc::clone(model), x.row(row).to_vec())
                            .unwrap()
                            .recv_timeout(Duration::from_secs(20))
                            .expect("a queued request was never drained")
                            .unwrap();
                        assert_scores_row(model, x, row, got);
                    }
                });
            }
        });
        assert_eq!(stats.batched_requests(), 4 * per_thread as u64);
        assert!(stats.max_batch() <= 3);
    }
}
