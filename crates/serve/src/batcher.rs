//! Request micro-batching: coalesce up to `B` single-vector score requests
//! into one matrix so standardize + project + classify run as a single
//! batched GEMM pass through `pfr_linalg`'s blocked kernel
//! (`pfr_linalg::gemm`), which keeps per-row results bitwise identical no
//! matter how many requests share the batch.
//!
//! The design is a collector thread in front of the worker pool:
//!
//! ```text
//! reactors ─────submit()──► queue ──collector──► WorkerPool ──► replies
//!                                   (drains ≤ B,
//!                                    groups by model,
//!                                    builds one Matrix)
//! ```
//!
//! The collector blocks on the first request, then greedily drains whatever
//! else is already queued (up to `max_batch − 1` more, waiting at most
//! `linger` for stragglers), groups the drained requests by model
//! generation, and submits one scoring job per group. Under load the queue
//! is never empty, batches approach `max_batch`, and per-request overhead
//! (job dispatch, allocation, cache bookkeeping) amortizes across the
//! batch; at low traffic the linger bound keeps added latency negligible.

use crate::error::ServeError;
use crate::model::ServableModel;
use crate::pool::WorkerPool;
use crate::stats::ServerStats;
use crate::Result;
use pfr_linalg::Matrix;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Where a completed score lands. The blocking entry points
/// ([`MicroBatcher::submit`], [`MicroBatcher::score`]) wait on a channel;
/// a reactor cannot block, so its sink records a completion for the event
/// loop and rings its waker.
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
struct ScoreRequest {
    model: Arc<ServableModel>,
    features: Vec<f64>,
    reply: ScoreSink,
}

/// Configuration of a [`MicroBatcher`].
#[derive(Debug, Clone)]
pub struct BatcherConfig {
    /// Maximum number of requests coalesced into one scoring pass.
    pub max_batch: usize,
    /// How long the collector waits for stragglers once it holds at least
    /// one request. Zero disables waiting (batch = whatever is queued).
    pub linger: Duration,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig {
            max_batch: 64,
            linger: Duration::from_micros(200),
        }
    }
}

/// Coalesces concurrent single-vector requests into batched scoring passes.
#[derive(Debug)]
pub struct MicroBatcher {
    sender: Option<Sender<ScoreRequest>>,
    collector: Option<JoinHandle<()>>,
}

impl MicroBatcher {
    /// Starts the collector thread in front of `pool`.
    pub fn new(config: BatcherConfig, pool: Arc<WorkerPool>, stats: Arc<ServerStats>) -> Self {
        let (sender, receiver) = mpsc::channel::<ScoreRequest>();
        let collector = std::thread::Builder::new()
            .name("pfr-serve-batcher".to_string())
            .spawn(move || collect_loop(config, receiver, pool, stats))
            .expect("spawning the collector thread never fails on this platform");
        MicroBatcher {
            sender: Some(sender),
            collector: Some(collector),
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
    pub(crate) fn submit_sink(
        &self,
        model: Arc<ServableModel>,
        features: Vec<f64>,
        reply: ScoreSink,
    ) -> Result<()> {
        self.sender
            .as_ref()
            .ok_or(ServeError::Shutdown)?
            .send(ScoreRequest {
                model,
                features,
                reply,
            })
            .map_err(|_| ServeError::Shutdown)
    }

    /// Convenience wrapper: submit and block for the score.
    pub fn score(&self, model: Arc<ServableModel>, features: Vec<f64>) -> Result<f64> {
        self.submit(model, features)?
            .recv()
            .map_err(|_| ServeError::Shutdown)?
    }
}

impl Drop for MicroBatcher {
    fn drop(&mut self) {
        drop(self.sender.take());
        if let Some(collector) = self.collector.take() {
            let _ = collector.join();
        }
    }
}

fn collect_loop(
    config: BatcherConfig,
    receiver: Receiver<ScoreRequest>,
    pool: Arc<WorkerPool>,
    stats: Arc<ServerStats>,
) {
    let max_batch = config.max_batch.max(1);
    loop {
        // Block for the first request of the next batch.
        let first = match receiver.recv() {
            Ok(req) => req,
            Err(_) => return, // batcher dropped: shut down
        };
        let mut pending = vec![first];
        // Greedily drain stragglers, waiting at most `linger` once.
        let deadline = std::time::Instant::now() + config.linger;
        while pending.len() < max_batch {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            match receiver.recv_timeout(remaining) {
                Ok(req) => pending.push(req),
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        dispatch_batches(pending, &pool, &stats);
    }
}

/// Groups drained requests by model generation and submits one scoring job
/// per group.
fn dispatch_batches(pending: Vec<ScoreRequest>, pool: &Arc<WorkerPool>, stats: &Arc<ServerStats>) {
    let mut groups: Vec<(u64, Vec<ScoreRequest>)> = Vec::new();
    for req in pending {
        let generation = req.model.generation();
        match groups.iter_mut().find(|(g, _)| *g == generation) {
            Some((_, group)) => group.push(req),
            None => groups.push((generation, vec![req])),
        }
    }
    for (_, group) in groups {
        let stats = Arc::clone(stats);
        let submitted = pool.execute(move || run_batch(group, &stats));
        if submitted.is_err() {
            // Pool shut down while requests were in flight; nothing to do —
            // reply senders drop and every waiting client sees Shutdown.
            return;
        }
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

    fn setup(
        max_batch: usize,
        linger: Duration,
    ) -> (MicroBatcher, Arc<ServableModel>, Matrix, Arc<ServerStats>) {
        let (bundle, x) = toy_bundle();
        let model = Arc::new(ServableModel::from_bundle("toy@1", &bundle).unwrap());
        let pool = Arc::new(WorkerPool::new(2));
        let stats = Arc::new(ServerStats::new());
        let batcher = MicroBatcher::new(
            BatcherConfig { max_batch, linger },
            pool,
            Arc::clone(&stats),
        );
        (batcher, model, x, stats)
    }

    #[test]
    fn batched_scores_equal_direct_batch_scores() {
        let (batcher, model, x, _) = setup(8, Duration::from_millis(2));
        let expected = model.score_batch(&x).unwrap();
        let receivers: Vec<_> = (0..x.rows())
            .map(|i| {
                batcher
                    .submit(Arc::clone(&model), x.row(i).to_vec())
                    .unwrap()
            })
            .collect();
        for (i, rx) in receivers.into_iter().enumerate() {
            let got = rx.recv().unwrap().unwrap();
            assert_eq!(got.to_bits(), expected[i].to_bits(), "row {i}");
        }
    }

    #[test]
    fn coalesces_concurrent_requests_into_larger_batches() {
        let (batcher, model, x, stats) = setup(64, Duration::from_millis(20));
        let batcher = Arc::new(batcher);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let batcher = Arc::clone(&batcher);
                let model = Arc::clone(&model);
                let x = x.clone();
                std::thread::spawn(move || {
                    for i in 0..x.rows() {
                        let _ = batcher
                            .score(Arc::clone(&model), x.row((i + t) % x.rows()).to_vec())
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(stats.batches() >= 1);
        assert!(
            stats.max_batch() >= 2,
            "expected at least one coalesced batch, max was {}",
            stats.max_batch()
        );
    }

    #[test]
    fn mixed_width_requests_fail_individually_without_killing_the_batch() {
        let (batcher, model, x, _) = setup(8, Duration::from_millis(10));
        let good = batcher
            .submit(Arc::clone(&model), x.row(0).to_vec())
            .unwrap();
        let bad = batcher.submit(Arc::clone(&model), vec![1.0, 2.0]).unwrap();
        assert!(bad.recv().unwrap().is_err());
        let score = good.recv().unwrap().unwrap();
        let expected = model.score_one(x.row(0)).unwrap();
        assert_eq!(score.to_bits(), expected.to_bits());
    }

    #[test]
    fn groups_by_model_generation_within_one_drain() {
        let (batcher, model_a, x, stats) = setup(16, Duration::from_millis(20));
        let (bundle, _) = toy_bundle();
        let model_b = Arc::new(ServableModel::from_bundle("toy@2", &bundle).unwrap());
        let rx_a = batcher
            .submit(Arc::clone(&model_a), x.row(0).to_vec())
            .unwrap();
        let rx_b = batcher
            .submit(Arc::clone(&model_b), x.row(1).to_vec())
            .unwrap();
        let a = rx_a.recv().unwrap().unwrap();
        let b = rx_b.recv().unwrap().unwrap();
        assert_eq!(a.to_bits(), model_a.score_one(x.row(0)).unwrap().to_bits());
        assert_eq!(b.to_bits(), model_b.score_one(x.row(1)).unwrap().to_bits());
        assert!(stats.batches() >= 2, "one batch per model generation");
    }

    #[test]
    fn zero_linger_still_serves_requests() {
        let (batcher, model, x, _) = setup(4, Duration::ZERO);
        for i in 0..x.rows() {
            let got = batcher
                .score(Arc::clone(&model), x.row(i).to_vec())
                .unwrap();
            let expected = model.score_one(x.row(i)).unwrap();
            assert_eq!(got.to_bits(), expected.to_bits());
        }
    }
}
