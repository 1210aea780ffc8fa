//! The three serving workloads and the fixture they share: three reactor
//! backends, one router with its defaults, one wide model pushed under
//! four names, and one caller thread driving the router's completion
//! queue.

use crate::model::Served;
use crate::pacer::{self, Service, Window};
use crate::probes;
use crate::report::Report;
use crate::rng::{Rng, Zipf};
use crate::spans::Recorder;
use crate::stats;
use crate::Args;
use pfr::journal::JournalConfig;
use pfr::router::{CompletionQueue, LocalCluster, Router, RouterConfig};
use pfr::serve::{Frontend, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub const BACKENDS: usize = 3;
/// One name would leave a backend idle; four load all three.
pub const MODELS: [&str; 4] = ["m0", "m1", "m2", "m3"];
/// Closed-loop depth of the `sat` windows.
pub const SAT_DEPTH: usize = 64;
/// Length of one `sat` or `paced` window. Short, so that a run has many:
/// a metric is a decile of its windows, and a disturbance on the box
/// lasts seconds.
const WINDOW_S: f64 = 0.5;
/// Closed-loop requests sent before the first measured window.
const WARMUP_REQUESTS: u64 = 4000;
/// Distinct keys of the Zipf workload: eight times either 4096-entry cache.
const ZIPF_KEYS: u64 = 32_768;
const ZIPF_S: f64 = 0.9;
/// `zipf_swap` pushes an alternate bundle every this many paced sends.
const SWAP_EVERY: u64 = 500;
/// Boots (boot, push, verify, warm up) of an untraced run.
const BOOTS: usize = 3;
/// Generate-and-fit repetitions of an untraced run, ahead of the boots.
const FITS: usize = 5;

/// What distinguishes the serving workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ColdVolatile,
    ColdDurable,
    ZipfSwap,
}

impl Kind {
    pub fn durable(self) -> bool {
        self == Kind::ColdDurable
    }

    /// Fixed absolute rate of the open-loop windows, never auto-scaled.
    /// The durable rate sits below what a per-record fsync sustains.
    pub fn paced_rps(self) -> f64 {
        match self {
            Kind::ColdVolatile | Kind::ZipfSwap => 4000.0,
            Kind::ColdDurable => 1000.0,
        }
    }
}

/// The booted cluster and its router.
pub struct Fixture {
    pub router: Router,
    pub cluster: LocalCluster,
    pub journal_dirs: Vec<PathBuf>,
}

pub fn backend_config(journal_dir: Option<&Path>) -> ServerConfig {
    ServerConfig {
        frontend: Frontend::reactor(1),
        workers: 2,
        journal: journal_dir.map(JournalConfig::new),
        ..ServerConfig::default()
    }
}

impl Fixture {
    /// Boots the backends (each journaled in a directory of its own under
    /// `scratch` when `durable`), connects a default router, pushes the
    /// model under every name and checks that the replicas agree on it.
    pub fn boot(served: &Served, durable: bool, scratch: &Path) -> Fixture {
        static BOOTS: AtomicU64 = AtomicU64::new(0);
        let boot = BOOTS.fetch_add(1, Ordering::Relaxed);
        let mut cluster =
            LocalCluster::boot(0, ServerConfig::default()).expect("empty cluster boots");
        let mut journal_dirs = Vec::new();
        for backend in 0..BACKENDS {
            let dir = scratch.join(format!("journal-{boot}-{backend}"));
            if durable {
                std::fs::create_dir_all(&dir).expect("journal dir is creatable");
                journal_dirs.push(dir.clone());
            }
            cluster
                .add_backend_with(backend_config(durable.then_some(dir.as_path())))
                .expect("backend boots");
        }
        let router = cluster
            .router(RouterConfig::default())
            .expect("router connects");
        for name in MODELS {
            let copies = router.push_text(name, &served.text_a).expect("push lands");
            assert_eq!(copies, 2, "replication 2 stores two copies of {name}");
            router.verify(name).expect("replicas agree on content");
        }
        Fixture {
            router,
            cluster,
            journal_dirs,
        }
    }
}

/// Routed SCOREs through one completion queue, remembering what was sent
/// and what came back so the window can be verified once it is over.
struct Routed<'a> {
    queue: CompletionQueue<'a>,
    served: &'a Served,
    traffic: &'a mut Traffic,
    sends: Option<&'a AtomicU64>,
    sent_keys: Vec<u64>,
    replies: Vec<(u64, u64)>,
    vector: Vec<f64>,
}

impl Service for Routed<'_> {
    fn submit(&mut self, ordinal: u64) {
        let key = self.traffic.next_key();
        self.served.requests.fill(key, &mut self.vector);
        let model = MODELS[(key % MODELS.len() as u64) as usize];
        let tag = self.queue.submit_score(model, &self.vector);
        debug_assert_eq!(tag, ordinal, "a fresh queue tags submissions in order");
        self.sent_keys.push(key);
        if let Some(sends) = self.sends {
            sends.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn poll(&mut self) -> Option<(u64, bool)> {
        let (tag, result) = self.queue.try_pop()?;
        Some(match result {
            Ok(score) => {
                self.replies.push((tag, score.to_bits()));
                (tag, true)
            }
            Err(_) => (tag, false),
        })
    }
}

/// Request keys and the verdict on what came back, across all the windows
/// of one run.
pub struct Traffic {
    /// Zipf-distributed repeats over `0..ZIPF_KEYS`; `None` sends every
    /// key once (hot cache, single-flight and backend cache all miss).
    zipf: Option<(Zipf, Rng)>,
    /// Last never-repeated key handed out; starts past the Zipf key space.
    last_fresh: u64,
    /// Expected score bits per Zipf key under bundle A and under bundle B.
    zipf_expected: Vec<[u64; 2]>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong_bits: u64,
}

impl Traffic {
    pub fn new(served: &Served, kind: Kind, seed: u64) -> Traffic {
        let mut traffic = Traffic {
            zipf: None,
            last_fresh: ZIPF_KEYS,
            zipf_expected: Vec::new(),
            attempted: 0,
            failed: 0,
            wrong_bits: 0,
        };
        if kind == Kind::ZipfSwap {
            let mut vector = Vec::new();
            traffic.zipf_expected = (0..ZIPF_KEYS)
                .map(|key| {
                    served.requests.fill(key, &mut vector);
                    [&served.reference_a, &served.reference_b]
                        .map(|m| m.score_one(&vector).expect("reference scores").to_bits())
                })
                .collect();
            traffic.zipf = Some((
                Zipf::new(ZIPF_KEYS as usize, ZIPF_S),
                Rng::new(seed ^ 0x21bf),
            ));
        }
        traffic
    }

    /// A key nothing has used or will use.
    pub fn fresh_key(&mut self) -> u64 {
        self.last_fresh += 1;
        self.last_fresh
    }

    fn next_key(&mut self) -> u64 {
        match &mut self.zipf {
            Some((zipf, rng)) => zipf.sample(rng) as u64,
            None => self.fresh_key(),
        }
    }

    /// Runs one window through a fresh completion queue, then compares
    /// every returned score bitwise with the in-harness reference; a wrong
    /// bit is a failed operation.
    fn window(
        &mut self,
        fixture: &Fixture,
        served: &Served,
        sends: Option<&AtomicU64>,
        run: impl FnOnce(&mut Routed<'_>) -> Window,
    ) -> Window {
        let mut routed = Routed {
            queue: fixture.router.completion_queue(),
            served,
            traffic: self,
            sends,
            sent_keys: Vec::new(),
            replies: Vec::new(),
            vector: Vec::new(),
        };
        let window = run(&mut routed);
        let Routed {
            sent_keys, replies, ..
        } = routed;
        let mut vector = Vec::new();
        let mut wrong = 0;
        for (ordinal, bits) in replies {
            let key = sent_keys[ordinal as usize];
            let right = match self.zipf_expected.get(key as usize) {
                Some(either) => either.contains(&bits),
                None => {
                    served.requests.fill(key, &mut vector);
                    let want = served.reference_a.score_one(&vector);
                    want.expect("reference scores").to_bits() == bits
                }
            };
            wrong += u64::from(!right);
        }
        self.attempted += window.sent;
        self.failed += window.failed + wrong;
        self.wrong_bits += wrong;
        window
    }

    /// Closed loop: `depth` requests in flight for `duration`.
    pub fn closed(
        &mut self,
        fixture: &Fixture,
        served: &Served,
        depth: usize,
        duration: Duration,
        spans: &mut Recorder,
    ) -> Window {
        self.window(fixture, served, None, |s| {
            pacer::run_sat(s, depth, duration, spans)
        })
    }

    /// Open loop: `rate` requests per second for `duration`.
    pub fn paced(
        &mut self,
        fixture: &Fixture,
        served: &Served,
        rate: f64,
        duration: Duration,
        sends: Option<&AtomicU64>,
        spans: &mut Recorder,
    ) -> Window {
        self.window(fixture, served, sends, |s| {
            pacer::run_paced(s, rate, duration, spans)
        })
    }

    fn warm_up(&mut self, fixture: &Fixture, served: &Served) {
        let target = self.attempted + WARMUP_REQUESTS;
        while self.attempted < target {
            self.closed(
                fixture,
                served,
                SAT_DEPTH,
                Duration::from_millis(50),
                &mut Recorder::new(false),
            );
        }
    }
}

/// An open-loop window is valid when the generator kept its schedule: it
/// achieved the offered rate and its p99 lateness stayed within one gap.
pub fn paced_is_valid(window: &Window, rate: f64) -> bool {
    let mut lateness = window.lateness_ns.clone();
    window.rate() >= 0.99 * rate && stats::percentile(&mut lateness, 0.99) <= 1e9 / rate
}

/// Pushes alternate bundles while a paced window runs: swap `s` lands on
/// model `s % 4` once `SWAP_EVERY × (s + 1)` requests of the window have
/// been sent, and carries bundle B and A in turn. A thread of its own,
/// because the deployer is not the client: a push on the caller thread
/// would stall the arrival clock. Returns each push's duration in ms.
fn swapper(
    router: &Router,
    served: &Served,
    sends: &AtomicU64,
    stop: &AtomicBool,
    swaps_done: &AtomicU64,
) -> Vec<f64> {
    let mut push_ms = Vec::new();
    let mut next_at = SWAP_EVERY;
    while !stop.load(Ordering::Acquire) {
        if sends.load(Ordering::Relaxed) < next_at {
            std::thread::sleep(Duration::from_micros(200));
            continue;
        }
        let swap = swaps_done.fetch_add(1, Ordering::Relaxed);
        let text = if (swap / MODELS.len() as u64).is_multiple_of(2) {
            &served.text_b
        } else {
            &served.text_a
        };
        let start = Instant::now();
        let copies = router.push_text(MODELS[(swap % MODELS.len() as u64) as usize], text);
        push_ms.push(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(copies.expect("swap push lands"), 2);
        next_at += SWAP_EVERY;
    }
    push_ms
}

/// Window figures of one run; the metrics are deciles of them.
#[derive(Default)]
pub struct Rounds {
    pub sat_rps: Vec<f64>,
    pub allocs_per_op: Vec<f64>,
    pub submit_ns: Vec<f64>,
    pub resolve_ns: Vec<f64>,
    pub paced_p50_us: Vec<f64>,
    pub paced_p90_us: Vec<f64>,
    pub paced_p99_us: Vec<f64>,
    pub paced_p999_us: Vec<f64>,
    pub lateness_p99_us: Vec<f64>,
    pub invalid_windows: u64,
    pub push_ms: Vec<f64>,
    pub swaps: AtomicU64,
}

/// One booted fixture and the traffic driving it.
pub struct Bench<'a> {
    pub kind: Kind,
    pub served: &'a Served,
    pub fixture: Fixture,
    pub traffic: &'a mut Traffic,
}

impl<'a> Bench<'a> {
    /// Boot, push, verify, warm up.
    fn boot(kind: Kind, served: &'a Served, traffic: &'a mut Traffic, scratch: &Path) -> Self {
        let fixture = Fixture::boot(served, kind.durable(), scratch);
        traffic.warm_up(&fixture, served);
        Bench {
            kind,
            served,
            fixture,
            traffic,
        }
    }

    /// One `[sat, paced]` round. A paced window whose generator fell
    /// behind its schedule is counted as invalid, and kept.
    pub fn round(&mut self, window: Duration, spans: &mut Recorder, out: &mut Rounds) {
        let Bench {
            kind,
            served,
            fixture,
            traffic,
        } = self;
        // A fifth of a window unmeasured first: the previous paced window
        // (and on `zipf_swap` its swaps) left the caches in a state that
        // says more about where it stopped than about steady state.
        traffic.closed(
            fixture,
            served,
            SAT_DEPTH,
            window / 5,
            &mut Recorder::new(false),
        );
        let allocations = crate::alloc::allocations();
        let sat = traffic.closed(fixture, served, SAT_DEPTH, window, spans);
        out.allocs_per_op
            .push((crate::alloc::allocations() - allocations) as f64 / sat.sent.max(1) as f64);
        out.sat_rps.push(sat.rate());
        out.submit_ns
            .push(sat.submit_busy_ns as f64 / sat.sent.max(1) as f64);
        out.resolve_ns
            .push(sat.resolve_busy_ns as f64 / sat.latency_ns.len().max(1) as f64);

        let rate = kind.paced_rps();
        let sends = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        let (paced, pushes) = std::thread::scope(|scope| {
            let pusher = (*kind == Kind::ZipfSwap).then(|| {
                scope.spawn(|| swapper(&fixture.router, served, &sends, &stop, &out.swaps))
            });
            let paced = traffic.paced(fixture, served, rate, window, Some(&sends), spans);
            stop.store(true, Ordering::Release);
            let pushes = pusher.map(|p| p.join().expect("swapper thread finishes"));
            (paced, pushes.unwrap_or_default())
        });
        out.push_ms.extend(pushes);
        out.invalid_windows += u64::from(!paced_is_valid(&paced, rate));
        let mut latency = paced.latency_ns;
        latency.sort_by(f64::total_cmp);
        let us = |q| stats::percentile_sorted(&latency, q) / 1e3;
        out.paced_p50_us.push(us(0.5));
        out.paced_p90_us.push(us(0.9));
        out.paced_p99_us.push(us(0.99));
        out.paced_p999_us.push(us(0.999));
        let mut lateness = paced.lateness_ns;
        out.lateness_p99_us
            .push(stats::percentile(&mut lateness, 0.99) / 1e3);
    }
}

/// Re-spawns every backend on its own journal and recovers it, three times
/// each. Returns the frames per second of each spawn-plus-recover.
fn recover_all(journal_dirs: &[PathBuf], report: &mut Report) -> Vec<f64> {
    let mut rates = Vec::new();
    for dir in journal_dirs {
        for _ in 0..3 {
            let start = Instant::now();
            let server = Server::spawn(backend_config(Some(dir))).expect("backend re-spawns");
            let recovery = server.recover_from_journal().expect("journal replays");
            rates.push(recovery.frames as f64 / start.elapsed().as_secs_f64());
            if recovery.skipped != 0 || recovery.truncated_bytes != 0 || recovery.frames == 0 {
                report.incorrect.push(format!(
                    "recovery of {}: {}",
                    dir.display(),
                    recovery.to_line()
                ));
            }
            server.shutdown();
        }
    }
    rates
}

/// Runs one serving workload and fills `report`.
///
/// An untraced run boots the whole fixture `BOOTS` times and gives each
/// boot a share of the rounds: how threads and connections happen to land
/// differs from boot to boot, and windows of one boot alone would inherit
/// that boot's luck.
pub fn run(kind: Kind, args: &Args, scratch: &Path, report: &mut Report) {
    // A traced run boots once and runs one boot's share of the rounds.
    let boots = if args.trace { 1 } else { BOOTS };
    let windows_per_boot = (args.seconds / WINDOW_S / 2.0 / BOOTS as f64)
        .round()
        .max(1.0) as usize;
    let window = Duration::from_secs_f64(WINDOW_S);
    // The fits come first, back to back in a clean process: a fit timed
    // between two boots inherits whatever the last teardown left behind.
    let mut served = Served::generate(args.seed);
    // The first one also pays process start.
    let mut generate_s = vec![args.started.elapsed().as_secs_f64()];
    let mut fit_s = vec![served.fit_s];
    for _ in 1..if args.trace { 1 } else { FITS } {
        served = Served::generate(args.seed);
        generate_s.push(served.generate_s);
        fit_s.push(served.fit_s);
    }
    let mut boot_s = Vec::new();
    let mut recover_rates = Vec::new();
    let mut rounds = Rounds::default();
    let mut traffic = Traffic::new(&served, kind, args.seed);
    let mut spans = Recorder::new(false);
    for _ in 0..boots {
        let start = Instant::now();
        let mut bench = Bench::boot(kind, &served, &mut traffic, scratch);
        boot_s.push(start.elapsed().as_secs_f64());

        let before_round = args.trace.then(|| {
            spans.set_enabled(true);
            probes::serving(&mut bench, args, window, scratch, report)
        });
        for _ in 0..windows_per_boot {
            bench.round(window, &mut spans, &mut rounds);
        }
        if let Some(before) = before_round {
            spans.set_enabled(false);
            probes::after_traffic(&bench, before, &rounds, &spans, report);
            spans
                .write_jsonl(&args.out.join(format!("{}.trace.jsonl", args.workload)))
                .expect("trace file is writable");
        }

        let Fixture {
            router,
            cluster,
            journal_dirs,
        } = bench.fixture;
        drop(router);
        drop(cluster);
        recover_rates.extend(recover_all(&journal_dirs, report));
    }

    report.attempted += traffic.attempted;
    report.failed += traffic.failed;
    report.note(format!(
        "sat windows {:?} rps (spread {:.3}); paced p50 {:?} us; invalid paced windows {}; wrong bits {}; swaps {}",
        rounds.sat_rps.iter().map(|v| v.round()).collect::<Vec<_>>(),
        stats::spread(&rounds.sat_rps),
        rounds.paced_p50_us.iter().map(|v| v.round()).collect::<Vec<_>>(),
        rounds.invalid_windows,
        traffic.wrong_bits,
        rounds.swaps.load(Ordering::Relaxed),
    ));

    // The latency a user of this workload feels. Under churn the median is
    // a cache hit at timer resolution, and the 90th percentile is the miss
    // path.
    let latency_us = match kind {
        Kind::ZipfSwap => stats::good_side(&rounds.paced_p90_us, 0.1),
        _ => stats::good_side(&rounds.paced_p50_us, 0.1),
    };
    // Process start to first measured operation: generate and fit, then
    // boot, push, verify and warm up.
    report.set(
        "setup_s",
        stats::median(&generate_s) + stats::median(&boot_s),
    );
    report.set("capacity_rps", stats::good_side(&rounds.sat_rps, 0.9));
    report.set("latency_us", latency_us);
    report.set("fit_wide_s", stats::fastest(&fit_s));

    report.set("e2e.p50_us", stats::good_side(&rounds.paced_p50_us, 0.1));
    report.set("e2e.p90_us", stats::good_side(&rounds.paced_p90_us, 0.1));
    report.set("alloc.per_op", stats::median(&rounds.allocs_per_op));
    if !rounds.push_ms.is_empty() {
        report.set("e2e.push_p50_ms", stats::median(&rounds.push_ms));
    }
    if !recover_rates.is_empty() {
        report.set(
            "e2e.recover_frames_per_s",
            stats::good_side(&recover_rates, 0.9),
        );
    }
    report.set("diag.p99_us", stats::median(&rounds.paced_p99_us));
    report.set("diag.p999_us", stats::median(&rounds.paced_p999_us));
    report.set(
        "diag.sched_lag_p99_us",
        stats::median(&rounds.lateness_p99_us),
    );
    report.set("diag.invalid_windows", rounds.invalid_windows as f64);
    report.set("diag.capacity_spread", stats::spread(&rounds.sat_rps));
}
