//! A fixed-size worker thread pool over a `std::sync::mpsc` channel.
//!
//! The standard library's mpsc receiver is single-consumer, so the receiving
//! end is shared behind a `Mutex` and each worker loops on
//! `lock → recv → run`. That is the classic "channel of boxed jobs" design
//! (crossbeam's multi-consumer channel would drop the mutex, but the lock is
//! held only for the dequeue itself, which is nanoseconds next to a scoring
//! pass). Dropping the pool closes the channel and joins every worker, so
//! tests and servers shut down deterministically.

use crate::error::ServeError;
use crate::Result;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed pool of `n` worker threads executing submitted closures.
#[derive(Debug)]
pub struct WorkerPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `size` workers (at least one).
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..size)
            .map(|i| {
                let receiver: Arc<Mutex<Receiver<Job>>> = Arc::clone(&receiver);
                thread::Builder::new()
                    .name(format!("pfr-serve-worker-{i}"))
                    .spawn(move || loop {
                        let job = match receiver.lock() {
                            Ok(guard) => guard.recv(),
                            Err(_) => break,
                        };
                        match job {
                            Ok(job) => {
                                // A panicking job must not kill the worker:
                                // the pool would silently shrink and, after
                                // `size` panics, stop serving entirely.
                                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                            }
                            Err(_) => break, // channel closed: shut down
                        }
                    })
                    .expect("spawning a worker thread never fails on this platform")
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Submits a fire-and-forget job.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) -> Result<()> {
        self.sender
            .as_ref()
            .ok_or(ServeError::Shutdown)?
            .send(Box::new(job))
            .map_err(|_| ServeError::Shutdown)
    }

    /// Submits a job and returns a receiver for its result. The job runs on
    /// a worker; the caller blocks (or polls) on the returned channel.
    pub fn submit<T, F>(&self, job: F) -> Result<Receiver<T>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        self.execute(move || {
            // A dropped receiver just means the caller stopped waiting.
            let _ = tx.send(job());
        })?;
        Ok(rx)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel wakes every worker with RecvError.
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The seam the batcher's and the server's tests share: occupies every
    /// worker of `pool` with a job blocked on a channel and returns once
    /// all of them are running, so whatever is submitted next queues behind
    /// them. Dropping the returned senders releases the workers — also when
    /// the test unwinds, so a failed assertion cannot leave a pool that
    /// never joins.
    pub(crate) fn hold_workers(pool: &WorkerPool) -> Vec<Sender<()>> {
        let (running_tx, running_rx) = mpsc::channel();
        let releases = (0..pool.size())
            .map(|_| {
                let (release_tx, release_rx) = mpsc::channel::<()>();
                let running_tx = running_tx.clone();
                pool.execute(move || {
                    running_tx.send(()).unwrap();
                    let _ = release_rx.recv();
                })
                .unwrap();
                release_tx
            })
            .collect();
        for _ in 0..pool.size() {
            running_rx.recv().unwrap();
        }
        releases
    }

    #[test]
    fn executes_jobs_on_multiple_threads() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.size(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        let receivers: Vec<_> = (0..100)
            .map(|i| {
                let counter = Arc::clone(&counter);
                pool.submit(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                    i * 2
                })
                .unwrap()
            })
            .collect();
        let results: Vec<usize> = receivers.into_iter().map(|rx| rx.recv().unwrap()).collect();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r, i * 2);
        }
    }

    #[test]
    fn zero_size_is_clamped_to_one_worker() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.size(), 1);
        assert_eq!(pool.submit(|| 7).unwrap().recv().unwrap(), 7);
    }

    #[test]
    fn drop_joins_workers_after_draining_submitted_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..50 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                })
                .unwrap();
            }
            // Drop happens here: channel closes, workers drain what they
            // already received and exit.
        }
        // Every job either ran or was dropped with the queue; no hang either
        // way. (mpsc delivers all sent messages before RecvError, so all 50
        // ran.)
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn panicking_jobs_do_not_shrink_the_pool() {
        let pool = WorkerPool::new(2);
        // More panicking jobs than workers: without catch_unwind this would
        // kill every worker and the pool would stop serving.
        for _ in 0..6 {
            let _ = pool.execute(|| panic!("job panic"));
        }
        let ok = pool.submit(|| 41 + 1).unwrap();
        assert_eq!(ok.recv().unwrap(), 42);
    }
}
