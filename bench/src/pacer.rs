//! The load generator: one caller thread driving a [`Service`] either
//! closed-loop at a fixed depth (`sat`) or open-loop on a fixed arrival
//! clock (`paced`). It never sleeps; it yields while it has nothing to do.
//!
//! Open-loop latency is measured from the **intended** send time, so a
//! stall in the service (or in the generator) is charged to every request
//! that was due during it, not only to the one that happened to be sent.

use crate::spans::Recorder;
use std::time::{Duration, Instant};

/// What the generator drives. Operations are numbered by submission order
/// within one window (`ordinal` 0, 1, 2, …).
pub trait Service {
    /// Starts operation `ordinal`.
    fn submit(&mut self, ordinal: u64);
    /// One finished operation, if any: its ordinal and whether it succeeded.
    fn poll(&mut self) -> Option<(u64, bool)>;
}

/// How long a window waits for stragglers after its schedule ends.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

/// Result of one measured window.
#[derive(Debug, Default)]
pub struct Window {
    /// Length of the measured interval in seconds.
    pub elapsed_s: f64,
    /// Operations submitted.
    pub sent: u64,
    /// Operations that completed before the interval ended.
    pub completed_in_window: u64,
    /// Operations that failed or never completed.
    pub failed: u64,
    /// Per completed operation: nanoseconds from its intended send time
    /// (`paced`) or its submission (`sat`) to its observed completion.
    pub latency_ns: Vec<f64>,
    /// `paced` only: how late after its due time each send started.
    pub lateness_ns: Vec<f64>,
    /// Busy time inside [`Service::submit`].
    pub submit_busy_ns: u64,
    /// Busy time inside the [`Service::poll`] calls that returned a result.
    pub resolve_busy_ns: u64,
}

impl Window {
    /// Completions per second inside the measured interval.
    pub fn rate(&self) -> f64 {
        self.completed_in_window as f64 / self.elapsed_s
    }
}

struct Sent {
    intended_ns: u64,
    start_ns: u64,
    submitted_ns: u64,
}

struct Driver<'a, S: Service> {
    service: &'a mut S,
    spans: &'a mut Recorder,
    sent: Vec<Sent>,
    window: Window,
    completed: u64,
}

impl<'a, S: Service> Driver<'a, S> {
    fn new(service: &'a mut S, spans: &'a mut Recorder) -> Self {
        Driver {
            service,
            spans,
            sent: Vec::new(),
            window: Window::default(),
            completed: 0,
        }
    }

    fn submit(&mut self, intended_ns: u64) {
        let start_ns = self.spans.now_ns();
        self.service.submit(self.sent.len() as u64);
        let submitted_ns = self.spans.now_ns();
        self.window.submit_busy_ns += submitted_ns - start_ns;
        self.sent.push(Sent {
            intended_ns,
            start_ns,
            submitted_ns,
        });
    }

    /// Polls once; returns whether an operation completed.
    fn poll(&mut self, deadline_ns: u64) -> bool {
        let before_ns = self.spans.now_ns();
        let Some((ordinal, ok)) = self.service.poll() else {
            return false;
        };
        let done_ns = self.spans.now_ns();
        self.window.resolve_busy_ns += done_ns - before_ns;
        self.completed += 1;
        if done_ns <= deadline_ns {
            self.window.completed_in_window += 1;
        }
        if !ok {
            self.window.failed += 1;
        }
        let sent = &self.sent[ordinal as usize];
        self.window
            .latency_ns
            .push(done_ns.saturating_sub(sent.intended_ns) as f64);
        if self.spans.enabled() {
            let op = self.spans.reserve();
            self.spans
                .record(op, "router.submit", sent.start_ns, sent.submitted_ns);
            self.spans
                .record(op, "router.wait", sent.submitted_ns, done_ns);
            self.spans.finish(op, 0, "op", sent.start_ns, done_ns);
        }
        true
    }

    /// Waits out the stragglers once the schedule has ended.
    fn drain(mut self, start_ns: u64, deadline_ns: u64) -> Window {
        let give_up = Instant::now() + DRAIN_LIMIT;
        while self.completed < self.sent.len() as u64 && Instant::now() < give_up {
            if !self.poll(deadline_ns) {
                std::thread::yield_now();
            }
        }
        self.window.sent = self.sent.len() as u64;
        self.window.failed += self.window.sent - self.completed;
        self.window.elapsed_s = (deadline_ns - start_ns) as f64 / 1e9;
        self.window
    }
}

/// Closed loop: keeps `depth` operations in flight for `duration`.
pub fn run_sat<S: Service>(
    service: &mut S,
    depth: usize,
    duration: Duration,
    spans: &mut Recorder,
) -> Window {
    let mut driver = Driver::new(service, spans);
    let start_ns = driver.spans.now_ns();
    let deadline_ns = start_ns + duration.as_nanos() as u64;
    loop {
        let now_ns = driver.spans.now_ns();
        if now_ns >= deadline_ns {
            break;
        }
        if driver.sent.len() as u64 - driver.completed < depth as u64 {
            driver.submit(now_ns);
        } else if !driver.poll(deadline_ns) {
            std::thread::yield_now();
        }
    }
    driver.drain(start_ns, deadline_ns)
}

/// Open loop: one send every `1/rate` seconds for `duration`, whatever the
/// service does. A generator that falls behind sends back to back until it
/// has caught up; intended times stay on the schedule.
pub fn run_paced<S: Service>(
    service: &mut S,
    rate: f64,
    duration: Duration,
    spans: &mut Recorder,
) -> Window {
    let gap_ns = 1e9 / rate;
    let total = (duration.as_secs_f64() * rate).floor() as u64;
    let mut driver = Driver::new(service, spans);
    let start_ns = driver.spans.now_ns();
    let deadline_ns = start_ns + duration.as_nanos() as u64;
    while (driver.sent.len() as u64) < total {
        let due_ns = start_ns + (driver.sent.len() as f64 * gap_ns) as u64;
        let now_ns = driver.spans.now_ns();
        if now_ns >= due_ns {
            driver.window.lateness_ns.push((now_ns - due_ns) as f64);
            driver.submit(due_ns);
        } else if !driver.poll(deadline_ns) {
            std::thread::yield_now();
        }
    }
    // The rest of the interval belongs to the window too.
    while driver.spans.now_ns() < deadline_ns {
        if !driver.poll(deadline_ns) {
            std::thread::yield_now();
        }
    }
    driver.drain(start_ns, deadline_ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Completes every operation at once, except that submitting
    /// `stall_at` blocks the caller for `stall`.
    struct Stalling {
        stall_at: u64,
        stall: Duration,
        done: VecDeque<u64>,
    }

    impl Service for Stalling {
        fn submit(&mut self, ordinal: u64) {
            if ordinal == self.stall_at {
                std::thread::sleep(self.stall);
            }
            self.done.push_back(ordinal);
        }
        fn poll(&mut self) -> Option<(u64, bool)> {
            self.done.pop_front().map(|o| (o, true))
        }
    }

    #[test]
    fn paced_latency_counts_from_the_intended_send_time() {
        // 1000 sends/s for 200 ms; send 50 stalls the caller for 50 ms, so
        // sends 51..=90 fall due while it is stuck. A generator that timed
        // from the actual send would report them all as instantaneous.
        let mut service = Stalling {
            stall_at: 50,
            stall: Duration::from_millis(50),
            done: VecDeque::new(),
        };
        let window = run_paced(
            &mut service,
            1000.0,
            Duration::from_millis(200),
            &mut Recorder::new(false),
        );
        assert_eq!(window.sent, 200);
        assert_eq!(window.failed, 0);
        assert_eq!(window.latency_ns.len(), 200);
        // Completions arrive in submission order here.
        for k in 51..=90u64 {
            let owed_ns = (50 - (k - 50)) as f64 * 1e6;
            assert!(
                window.latency_ns[k as usize] >= owed_ns - 2e6,
                "send {k} hides the stall: {} ns",
                window.latency_ns[k as usize]
            );
            assert!(window.lateness_ns[k as usize] >= owed_ns - 2e6);
        }
        // Requests well before the stall saw none of it.
        let mut early = window.latency_ns[..40].to_vec();
        assert!(crate::stats::percentile(&mut early, 0.5) < 5e6);
    }

    #[test]
    fn sat_keeps_the_requested_depth_in_flight() {
        /// Holds completions back until `depth` operations are waiting;
        /// two polls in a row without a submit mean the window is
        /// draining, and the rest are let go.
        struct Gate {
            depth: usize,
            waiting: VecDeque<u64>,
            peak: usize,
            draining: bool,
        }
        impl Service for Gate {
            fn submit(&mut self, ordinal: u64) {
                self.waiting.push_back(ordinal);
                self.peak = self.peak.max(self.waiting.len());
                self.draining = false;
            }
            fn poll(&mut self) -> Option<(u64, bool)> {
                let open = self.waiting.len() >= self.depth || self.draining;
                self.draining = true;
                if open {
                    self.waiting.pop_front().map(|o| (o, o % 10 != 0))
                } else {
                    None
                }
            }
        }
        let mut gate = Gate {
            depth: 8,
            waiting: VecDeque::new(),
            peak: 0,
            draining: false,
        };
        let mut spans = Recorder::new(true);
        let window = run_sat(&mut gate, 8, Duration::from_millis(20), &mut spans);
        assert_eq!(gate.peak, 8);
        assert!(window.completed_in_window > 0);
        assert!(window.completed_in_window <= window.sent);
        // Every tenth operation reports failure.
        let completed = window.sent;
        assert_eq!(
            window.failed,
            (0..completed).filter(|o| o % 10 == 0).count() as u64
        );
        // Three spans per completed operation.
        assert_eq!(spans.spans().len() as u64, 3 * completed);
    }
}
