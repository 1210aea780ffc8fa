//! Per-layer probes of the serving path, run by traced runs only: public
//! calls into one layer at a time on the run's own generated inputs, and
//! reads of the counters the program already exposes. Nothing outside this
//! package is instrumented.

use crate::model::{self, Served};
use crate::report::Report;
use crate::serving::{self, Bench, Kind, Rounds, MODELS, SAT_DEPTH};
use crate::spans::{self, Recorder};
use crate::stats;
use crate::Args;
use pfr::control::Catalog;
use pfr::journal::{replay_dir, FsyncPolicy, Journal, JournalConfig, Record};
use pfr::linalg::Matrix;
use pfr::net::{Frame, LineConn};
use pfr::obs::{LatencyHisto, Snapshot, SpanRecord};
use pfr::router::{Router, RouterConfig};
use pfr::serve::protocol::{format_numbers, ok_response, parse_request};
use pfr::serve::{
    BatcherConfig, MicroBatcher, ModelRegistry, ScoreCache, ScoreKey, ServableModel, ServerStats,
    WorkerPool,
};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Cursor, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn p50_us(latency_ns: &[f64]) -> f64 {
    stats::percentile(&mut latency_ns.to_vec(), 0.5) / 1e3
}

/// Counters read before the traced round, so the layer counts cover the
/// round's traffic alone and not the probes' own requests.
#[derive(Default, Clone, Copy)]
pub struct Counters {
    hot_hits: u64,
    hot_misses: u64,
    coalesced: u64,
    failovers: u64,
    retried_rows: u64,
    cache_hits: u64,
    cache_misses: u64,
    batches: u64,
    sheds: u64,
    appends: u64,
    fsyncs: u64,
    journal_bytes: u64,
}

impl Counters {
    fn read(bench: &Bench) -> Counters {
        let router = bench.fixture.router.stats();
        let mut c = Counters {
            hot_hits: router.hot_cache_hits(),
            hot_misses: router.hot_cache_misses(),
            coalesced: router.coalesced(),
            failovers: router.failovers(),
            retried_rows: router.retried_rows(),
            ..Counters::default()
        };
        for i in 0..serving::BACKENDS {
            let server = bench.fixture.cluster.server(i).expect("backend is alive");
            c.cache_hits += server.stats().cache_hits();
            c.cache_misses += server.stats().cache_misses();
            c.batches += server.stats().batches();
            c.sheds += server.stats().sheds();
            if let Some(journal) = server.journal() {
                c.appends += journal.stats().appends();
                c.fsyncs += journal.stats().fsyncs();
                c.journal_bytes += journal.stats().bytes();
            }
        }
        c
    }
}

fn ratio(part: u64, rest: u64) -> f64 {
    if part + rest == 0 {
        0.0
    } else {
        part as f64 / (part + rest) as f64
    }
}

/// One SCORE round trip at a time over a raw socket to the backend that
/// holds `m0`: the serve tier alone, no router. Returns the p50 in µs.
fn direct_p50_us(bench: &mut Bench, duration: Duration, report: &mut Report) -> f64 {
    let replica = bench.fixture.router.replica_set(MODELS[0])[0];
    let addr = bench.fixture.cluster.addrs()[replica];
    let stream = TcpStream::connect(addr).expect("backend accepts");
    stream.set_nodelay(true).expect("nodelay sets");
    let mut reader = BufReader::new(stream.try_clone().expect("socket clones"));
    let mut writer = stream;
    let mut latency_ns = Vec::new();
    let mut vector = Vec::new();
    let mut reply = String::new();
    let until = Instant::now() + duration;
    while Instant::now() < until {
        let key = bench.traffic.fresh_key();
        bench.served.requests.fill(key, &mut vector);
        let line = format!("SCORE {} {}\n", MODELS[0], format_numbers(&vector));
        let start = Instant::now();
        writer.write_all(line.as_bytes()).expect("request writes");
        reply.clear();
        reader.read_line(&mut reply).expect("reply reads");
        latency_ns.push(start.elapsed().as_nanos() as f64);
        let score: Option<f64> = reply
            .strip_prefix("OK ")
            .and_then(|payload| payload.split_whitespace().next())
            .and_then(|token| token.parse().ok());
        let want = bench.served.reference_a.score_one(&vector);
        report.attempted += 1;
        if score.map(f64::to_bits) != Some(want.expect("reference scores").to_bits()) {
            report.failed += 1;
        }
    }
    p50_us(&latency_ns)
}

/// What the program's own spans say about one cold request, in µs.
struct TracedBudget {
    /// The router's span, submit to resolved.
    router_total: f64,
    /// The backend's span inside it.
    serve_total: f64,
    /// Submit-to-reply time not spent inside the backend's span: two wire
    /// crossings and the reactors' hand-offs.
    hop: f64,
}

/// Sends 64 cold requests through `Router::score_traced`, one at a time,
/// and reads the span trees the program recorded for them back through
/// `Router::trace`. A stage's cost is the gap since the previous event of
/// its span.
fn traced_stages(bench: &mut Bench, report: &mut Report) -> Option<TracedBudget> {
    const STAGES: [&str; 6] = [
        "resolve",
        "journal-append",
        "cache-miss",
        "batch-scored",
        "cache-insert",
        "backend-reply",
    ];
    let router = &bench.fixture.router;
    let mut gaps_us: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    let (mut router_total, mut serve_total, mut hop) = (Vec::new(), Vec::new(), Vec::new());
    let mut vector = Vec::new();
    for _ in 0..64 {
        let key = bench.traffic.fresh_key();
        bench.served.requests.fill(key, &mut vector);
        let model = MODELS[(key % MODELS.len() as u64) as usize];
        let (score, id) = router
            .score_traced(model, &vector)
            .expect("traced score succeeds");
        let want = bench.served.reference_a.score_one(&vector);
        report.attempted += 1;
        report.failed += u64::from(score.to_bits() != want.expect("reference scores").to_bits());
        let Some(tree) = router.trace(id) else {
            continue;
        };
        // The tree is text: a `span …` line, then that span's indented
        // `@ stage offset` lines, the backend's span nested under the
        // router's.
        let mut blocks: Vec<String> = Vec::new();
        for line in tree.lines().map(str::trim_start) {
            if line.starts_with("span ") {
                blocks.push(String::new());
            }
            if let Some(block) = blocks.last_mut() {
                block.push_str(line);
                block.push('\n');
            }
        }
        let spans: Vec<SpanRecord> = blocks.iter().filter_map(|b| SpanRecord::parse(b)).collect();
        for span in &spans {
            let mut previous = 0;
            for (stage, at) in &span.events {
                if let Some(slot) = STAGES.iter().position(|s| s == stage) {
                    gaps_us[slot].push(at.saturating_sub(previous) as f64 / 1e3);
                }
                previous = *at;
            }
        }
        let outer = spans.iter().find(|s| s.name.starts_with("router/"));
        let inner = spans.iter().find(|s| s.name.starts_with("serve/"));
        if let (Some(outer), Some(inner)) = (outer, inner) {
            let at = |stage: &str| outer.events.iter().find(|(s, _)| s == stage).map(|e| e.1);
            if let (Some(submitted), Some(replied)) = (at("submit"), at("backend-reply")) {
                router_total.push(outer.total_ns as f64 / 1e3);
                serve_total.push(inner.total_ns as f64 / 1e3);
                hop.push((replied - submitted).saturating_sub(inner.total_ns) as f64 / 1e3);
            }
        }
    }
    for (stage, gaps) in STAGES.iter().zip(&gaps_us) {
        if !gaps.is_empty() {
            report.set(&format!("serve.stage.{stage}_us"), stats::median(gaps));
        }
    }
    (!hop.is_empty()).then(|| TracedBudget {
        router_total: stats::median(&router_total),
        serve_total: stats::median(&serve_total),
        hop: stats::median(&hop),
    })
}

/// Probes of the journal layer alone, in a directory of its own.
fn journal_probes(bench: &Bench, scratch: &Path, report: &mut Report) {
    let record = |i: usize| Record::Score {
        model: MODELS[i % MODELS.len()].to_string(),
        features: bench.served.requests.vector(i as u64),
    };
    let open = |name: &str, fsync| {
        let mut config = JournalConfig::new(scratch.join(name));
        config.fsync = fsync;
        Journal::open(config).expect("probe journal opens")
    };
    let durable = open("probe-journal", FsyncPolicy::PerRecord);
    report.set(
        "journal.append_us",
        stats::per_call_ns(5, 40, |i| {
            durable.append(&record(i)).expect("append lands");
        }) / 1e3,
    );
    durable.close();
    let volatile = open("probe-journal-nosync", FsyncPolicy::Never);
    report.set(
        "journal.append_nosync_us",
        stats::per_call_ns(5, 2000, |i| {
            volatile.append(&record(i)).expect("append lands");
        }) / 1e3,
    );
    volatile.close();
    let dir = scratch.join("probe-journal-nosync");
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let summary = replay_dir(&dir, |_, record| {
                black_box(record);
            })
            .expect("probe journal replays");
            assert_eq!(summary.frames, 10_000, "every appended frame replays");
            summary.frames as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    report.set("journal.replay_frames_per_s", stats::median(&rates));
}

/// Serve: the pieces of one SCORE, each alone. Returns `score_one` ns and
/// the batcher's wait in µs for the budget.
fn serve_probes(served: &Served, vector: &[f64], line: &str, report: &mut Report) -> (f64, f64) {
    let model =
        Arc::new(ServableModel::from_bundle("probe", &served.bundle).expect("bundle serves"));
    report.set(
        "serve.parse_ns",
        stats::per_call_ns(9, 2000, |_| {
            black_box(parse_request(black_box(line)).expect("line parses"));
        }),
    );
    report.set(
        "serve.format_ns",
        stats::per_call_ns(9, 20_000, |_| {
            black_box(ok_response(&format_numbers(black_box(&[
                0.731_058_578_630_004_9,
            ]))));
        }),
    );
    let score_one_ns = stats::per_call_ns(9, 20_000, |_| {
        black_box(model.score_one(black_box(vector)).expect("scores"));
    });
    report.set("serve.score_one_ns", score_one_ns);
    let mut batch = Matrix::zeros(64, vector.len());
    for r in 0..64 {
        batch
            .row_mut(r)
            .copy_from_slice(&served.requests.vector(r as u64));
    }
    report.set(
        "serve.score_batch64_ns_per_row",
        stats::per_call_ns(9, 500, |_| {
            black_box(model.score_batch(black_box(&batch)).expect("scores"));
        }) / 64.0,
    );
    let batcher = MicroBatcher::new(
        BatcherConfig::default(),
        Arc::new(WorkerPool::new(2)),
        Arc::new(ServerStats::new()),
    );
    let batched_ns = stats::median_ns(200, || {
        black_box(
            batcher
                .score(Arc::clone(&model), vector.to_vec())
                .expect("batcher scores"),
        );
    });
    drop(batcher);
    let batcher_wait_us = (batched_ns - score_one_ns) / 1e3;
    report.set("serve.batcher_wait_us", batcher_wait_us);
    let mut cache = ScoreCache::new(4096);
    let keys: Vec<ScoreKey> = (0..8192u64)
        .map(|k| ScoreKey::new(1, &served.requests.vector(k)).expect("no NaN"))
        .collect();
    report.set(
        "serve.cache_insert_ns",
        stats::per_call_ns(1, keys.len(), |i| cache.insert(keys[i].clone(), 0.5)),
    );
    report.set(
        "serve.cache_get_ns",
        stats::per_call_ns(9, keys.len(), |i| {
            black_box(cache.get(&keys[i % keys.len()]));
        }),
    );
    report.set(
        "serve.push_install_ms",
        stats::median_ns(9, || {
            let registry = ModelRegistry::new();
            black_box(registry.load_from_str("probe", &served.text_a)).expect("bundle installs");
        }) / 1e6,
    );
    (score_one_ns, batcher_wait_us)
}

/// Net: framing alone, from an in-memory reader.
fn net_probes(served: &Served, line: &str, report: &mut Report) {
    let mut wire = Vec::new();
    for _ in 0..256 {
        wire.extend_from_slice(line.as_bytes());
        wire.push(b'\n');
    }
    report.set(
        "net.line_frame_ns",
        stats::per_call_ns(9, 8, |_| {
            let mut conn = LineConn::new(1 << 20);
            conn.fill(&mut Cursor::new(&wire)).expect("buffer fills");
            let mut frames = 0;
            while let Some(frame) = conn.next_frame() {
                black_box(frame);
                frames += 1;
            }
            assert_eq!(frames, 256);
        }) / 256.0,
    );
    let mut push = format!("PUSH {} {}\n", MODELS[0], served.text_a.len()).into_bytes();
    push.extend_from_slice(served.text_a.as_bytes());
    report.set(
        "net.payload_frame_us",
        stats::median_ns(99, || {
            let mut conn = LineConn::new(1 << 20);
            conn.fill(&mut Cursor::new(&push)).expect("buffer fills");
            assert!(matches!(conn.next_frame(), Some(Frame::Line(_))));
            conn.expect_payload(served.text_a.len());
            assert!(matches!(conn.next_frame(), Some(Frame::Payload(_))));
        }) / 1e3,
    );
}

/// Control plane, codecs, router look-ups and the cost of observing.
fn control_probes(bench: &mut Bench, report: &mut Report) {
    let served = bench.served;
    let router = &bench.fixture.router;
    report.set(
        "control.sync_round_ms",
        stats::median_ns(9, || router.sync_now()) / 1e6,
    );
    let mut catalog = Catalog::new(1);
    catalog.set_roster(
        1,
        bench
            .fixture
            .cluster
            .addrs()
            .iter()
            .enumerate()
            .map(|(id, addr)| (id, addr.to_string())),
    );
    for name in MODELS {
        catalog
            .upsert_placement(1, name, &served.text_a)
            .expect("catalog takes the bundle");
    }
    report.set(
        "control.catalog_codec_us",
        stats::median_ns(9, || {
            let text = catalog.to_text();
            black_box(Catalog::from_text(&text).expect("catalog parses"));
        }) / 1e3,
    );
    report.set(
        "control.bootstrap_ms",
        stats::median_ns(3, || {
            let fresh =
                Router::connect(&bench.fixture.cluster.addrs()[..1], RouterConfig::default())
                    .expect("a fresh router bootstraps from one seed");
            assert_eq!(fresh.catalog_version(), router.catalog_version());
        }) / 1e6,
    );
    report.set(
        "core.bundle_codec_us",
        model::bundle_codec_us(&served.bundle),
    );
    report.set(
        "router.ring_lookup_ns",
        stats::per_call_ns(9, 2000, |i| {
            black_box(router.replica_set(MODELS[i % MODELS.len()]));
        }),
    );
    let repeated = served.requests.vector(bench.traffic.fresh_key());
    let first = router.score(MODELS[1], &repeated).expect("scores");
    report.set(
        "router.hot_hit_ns",
        stats::per_call_ns(9, 2000, |_| {
            let again = router.score(MODELS[1], &repeated).expect("scores");
            debug_assert_eq!(again.to_bits(), first.to_bits());
            black_box(again);
        }),
    );

    // Observability and its price.
    let histo = LatencyHisto::new();
    report.set(
        "obs.histo_record_ns",
        stats::per_call_ns(9, 100_000, |i| histo.record(black_box(1000 + i as u64))),
    );
    report.set(
        "obs.scrape_ms",
        stats::median_ns(3, || {
            black_box(router.metrics());
        }) / 1e6,
    );
}

/// Layer probes that run before the traced round. Returns the counters as
/// they stood once the probes were done.
pub fn serving(
    bench: &mut Bench,
    args: &Args,
    window: Duration,
    scratch: &Path,
    report: &mut Report,
) -> Counters {
    let served = bench.served;
    let vector = served.requests.vector(bench.traffic.fresh_key());
    let line = format!("SCORE {} {}", MODELS[0], format_numbers(&vector));
    let (score_one_ns, batcher_wait_us) = serve_probes(served, &vector, &line, report);
    net_probes(served, &line, report);
    control_probes(bench, report);
    if bench.kind.durable() {
        journal_probes(bench, scratch, report);
    }

    // One request in flight: through the router, then straight at a backend.
    let mut quiet = Recorder::new(false);
    let serial = bench
        .traffic
        .closed(&bench.fixture, served, 1, 2 * window, &mut quiet);
    let serial_us = p50_us(&serial.latency_ns);
    let direct_us = direct_p50_us(bench, 2 * window, report);
    report.set("router.serial_p50_us", serial_us);
    report.set("serve.direct_p50_us", direct_us);

    // The budget of one cold request, from the program's own spans: how much
    // of the router's span is accounted for once the hop is set aside, and
    // how much of the backend's span the standalone probes add up to. The
    // residue is printed, not hidden.
    if let Some(budget) = traced_stages(bench, report) {
        report.set("router.hop_us", budget.hop);
        report.set(
            "budget.cold_explained_share",
            (budget.router_total - budget.hop) / budget.router_total,
        );
        let probes_us = (report.get("net.line_frame_ns").unwrap_or(0.0)
            + report.get("serve.parse_ns").unwrap_or(0.0)
            + report.get("serve.format_ns").unwrap_or(0.0)
            + score_one_ns)
            / 1e3
            + batcher_wait_us
            + report.get("journal.append_us").unwrap_or(0.0);
        report.set(
            "budget.direct_explained_share",
            probes_us / budget.serve_total,
        );
    }

    // What recording a span per operation costs: alternate closed-loop
    // windows with the recorder off and on.
    let (mut plain, mut recorded) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for (on, rates) in [(false, &mut plain), (true, &mut recorded)] {
            let mut recorder = Recorder::new(on);
            let sat =
                bench
                    .traffic
                    .closed(&bench.fixture, served, SAT_DEPTH, window, &mut recorder);
            rates.push(sat.rate());
        }
    }
    report.set(
        "obs.trace_overhead_pct",
        100.0 * (1.0 - stats::median(&recorded) / stats::median(&plain)),
    );

    // The knee: the highest of a few fixed rates the fixture still meets
    // with p99 under 5 ms. Stops at the first rate it misses.
    if bench.kind != Kind::ZipfSwap {
        let mut knee = 0.0;
        let step = Duration::from_secs_f64(args.seconds / 12.0);
        for rate in [1000.0, 2000.0, 4000.0, 8000.0, 16_000.0, 32_000.0] {
            let paced = bench
                .traffic
                .paced(&bench.fixture, served, rate, step, None, &mut quiet);
            let p99_us = stats::percentile(&mut paced.latency_ns.clone(), 0.99) / 1e3;
            if paced.rate() < 0.99 * rate || p99_us >= 5000.0 {
                break;
            }
            knee = rate;
        }
        report.set("diag.knee_rps", knee);
    }
    Counters::read(bench)
}

/// Layer counts of the traced round, read from the program's own counters
/// once the traffic is over, and the harness's span budget.
pub fn after_traffic(
    bench: &Bench,
    before: Counters,
    rounds: &Rounds,
    spans: &Recorder,
    report: &mut Report,
) {
    let after = Counters::read(bench);
    report.set(
        "router.hot_hit_rate",
        ratio(
            after.hot_hits - before.hot_hits,
            after.hot_misses - before.hot_misses,
        ),
    );
    report.set(
        "router.coalesced",
        (after.coalesced - before.coalesced) as f64,
    );
    report.set(
        "router.failovers",
        (after.failovers - before.failovers) as f64,
    );
    report.set(
        "router.retried_rows",
        (after.retried_rows - before.retried_rows) as f64,
    );
    report.set(
        "serve.cache_hit_rate",
        ratio(
            after.cache_hits - before.cache_hits,
            after.cache_misses - before.cache_misses,
        ),
    );
    let batches = after.batches - before.batches;
    if batches > 0 {
        report.set(
            "serve.mean_batch",
            (after.cache_misses - before.cache_misses) as f64 / batches as f64,
        );
    }
    report.set("serve.sheds", (after.sheds - before.sheds) as f64);
    report.set("router.submit_ns", stats::median(&rounds.submit_ns));
    report.set("router.resolve_ns", stats::median(&rounds.resolve_ns));

    let mut handler = Snapshot::empty();
    let mut fsync = Snapshot::empty();
    let mut max_batch = 0;
    for i in 0..serving::BACKENDS {
        let server = bench.fixture.cluster.server(i).expect("backend is alive");
        handler.merge(&server.stats().score.latency_snapshot());
        max_batch = max_batch.max(server.stats().max_batch());
        if let Some(journal) = server.journal() {
            fsync.merge(&journal.stats().fsync_histogram().snapshot());
        }
    }
    report.set("serve.handler_p50_us", handler.p50() as f64 / 1e3);
    report.set("serve.max_batch", max_batch as f64);
    let appends = after.appends - before.appends;
    if appends > 0 {
        report.set("journal.fsync_p50_us", fsync.p50() as f64 / 1e3);
        report.set("journal.fsync_p99_us", fsync.p99() as f64 / 1e3);
        report.set(
            "journal.appends_per_fsync",
            appends as f64 / (after.fsyncs - before.fsyncs).max(1) as f64,
        );
        report.set(
            "journal.bytes_per_append",
            (after.journal_bytes - before.journal_bytes) as f64 / appends as f64,
        );
    }

    // Where the caller thread's time went, from the harness's own spans.
    let totals = spans::self_times(spans.spans());
    for (span, metric) in [
        ("router.submit", "budget.submit_span_us"),
        ("router.wait", "budget.wait_span_us"),
    ] {
        if let Some(t) = totals.get(span) {
            report.set(metric, t.self_ns as f64 / t.count.max(1) as f64 / 1e3);
        }
    }
}
