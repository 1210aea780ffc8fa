//! The verb layer: the one place every wire verb executes.
//!
//! The reactor (`reactor_front`) owns connections — accept, framing,
//! per-connection response order, backpressure, the completion queue — and
//! hands each parsed [`Request`] (with its counted payload, for the verbs
//! that carry one) to a [`Call`]. Executing it yields one of three
//! [`Step`]s:
//!
//! * [`Step::Done`] — answered on the calling thread: `STATS`, `HEALTH`,
//!   `EPOCH`, `METRICS`, `TRACE`, `CATALOG`, `SYNC`, `QUIT`, a `SCORE` the
//!   cache holds, and every early error (unknown model, journal failure);
//! * [`Step::Batch`] — a `SCORE` cache miss, for the micro-batcher;
//! * [`Step::Pool`] — work that may block (`TRANSFORM`'s linear algebra,
//!   `LOAD`'s disk read, the bundle parse of `LOAD` and `PUSH`), for a pool
//!   thread.
//!
//! Whoever runs a deferred step hands its [`Outcome`] back to
//! [`Call::complete`], which is also where an inline answer goes. What
//! every request owes besides its answer happens once around that pair
//! rather than once per verb: [`Call::begin`] takes the start time, raises
//! the in-flight gauge and opens the trace span; [`Call::complete`] records
//! the verb's latency and error count, closes the span, renders `OK`/`ERR`
//! and echoes the wire trace token; dropping the `Call` — completed, or
//! abandoned with its connection — lowers the gauge.

use crate::cache::ScoreKey;
use crate::error::ServeError;
use crate::model::ServableModel;
use crate::protocol::{self, Request};
use crate::server::ServeContext;
use crate::stats::{ServerStats, VerbStats};
use crate::Result;
use pfr_journal::Record;
use pfr_obs::{ActiveSpan, SpanRing};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Deferred work for a pool thread: runs there, returns the response
/// payload.
pub(crate) type Job = Box<dyn FnOnce() -> Result<String> + Send>;

/// What executing a request came to.
pub(crate) enum Step {
    /// Answered here; the payload (or the error) is final.
    Done(Result<String>),
    /// A `SCORE` cache miss: the micro-batcher scores `features` with
    /// `model` and the score comes back as [`Outcome::Score`].
    Batch {
        /// The generation resolved when the request was admitted.
        model: Arc<ServableModel>,
        /// The raw attribute vector.
        features: Vec<f64>,
    },
    /// Work that may block: a pool thread runs the job and its payload
    /// comes back as [`Outcome::Text`].
    Pool(Job),
}

/// What comes back for a [`Call`]: its inline answer, or the result of the
/// step it deferred.
pub(crate) enum Outcome {
    /// A batched score, still to be cached, labelled and rendered.
    Score(Result<f64>),
    /// A finished response payload.
    Text(Result<String>),
}

/// One request between parse and response (see the module docs).
pub(crate) struct Call {
    context: Arc<ServeContext>,
    /// The per-verb counters this request lands in (`QUIT` has none).
    bucket: Option<fn(&ServerStats) -> &VerbStats>,
    start: Instant,
    /// Events accrue on the reactor thread only (execution and
    /// completion), so the span never crosses into the batcher or pool.
    span: Option<ActiveSpan>,
    /// Wire trace token to echo on the response. `None` for untraced and
    /// server-sampled requests — either way the response bytes carry no
    /// token, so untraced responses stay byte-identical.
    echo: Option<u64>,
    /// A `SCORE` miss fills this cache entry when its score arrives.
    key: Option<ScoreKey>,
    /// The label threshold of a `SCORE` miss, captured at resolve so a hot
    /// swap mid-request labels the score with the model that computed it.
    threshold: f64,
    /// The span event a deferred pool job's completion records.
    pool_stage: Option<&'static str>,
}

impl Call {
    /// Opens the books for `request`: start time, in-flight gauge, and a
    /// span when the request should be traced — always when it arrived
    /// with a wire token, otherwise when the sampler fires. Untraced
    /// requests pay one relaxed atomic add in the sampler and nothing else.
    pub(crate) fn begin(context: &Arc<ServeContext>, request: &Request) -> Call {
        let start = Instant::now();
        context.stats.inflight_enter();
        type Bucket = fn(&ServerStats) -> &VerbStats;
        let (bucket, traced): (Option<Bucket>, Option<(&'static str, Option<u64>)>) = match request
        {
            Request::Score { trace, .. } => (Some(|s| &s.score), Some(("serve/SCORE", *trace))),
            Request::Transform { trace, .. } => {
                (Some(|s| &s.transform), Some(("serve/TRANSFORM", *trace)))
            }
            Request::Push { trace, .. } => (Some(|s| &s.load), Some(("serve/PUSH", *trace))),
            Request::Load { .. } => (Some(|s| &s.load), None),
            Request::Stats | Request::Metrics | Request::Trace { .. } => (Some(|s| &s.stats), None),
            Request::Health => (Some(|s| &s.health), None),
            Request::Epoch { .. } => (Some(|s| &s.epoch), None),
            Request::Catalog { .. } | Request::Sync { .. } => (Some(|s| &s.catalog), None),
            Request::Quit => (None, None),
        };
        let echo = traced.and_then(|(_, wire)| wire);
        let span = traced.and_then(|(name, wire)| match wire {
            Some(id) => Some(ActiveSpan::new(id, name)),
            None if context.sampler.fire() => Some(ActiveSpan::new(pfr_obs::mint_trace_id(), name)),
            None => None,
        });
        Call {
            context: Arc::clone(context),
            bucket,
            start,
            span,
            echo,
            key: None,
            threshold: 0.0,
            pool_stage: None,
        }
    }

    /// Records a stage event on the request's span, if it is traced.
    pub(crate) fn event(&mut self, stage: &'static str) {
        if let Some(span) = self.span.as_mut() {
            span.event(stage);
        }
    }

    /// Executes `request`. `payload` is the counted payload of `PUSH` and
    /// `SYNC`, empty for every other verb.
    pub(crate) fn execute(&mut self, request: Request, payload: Vec<u8>) -> Step {
        let context = &*self.context;
        match request {
            Request::Stats => Step::Done(Ok(context.stats_line())),
            Request::Health => Step::Done(Ok(health(context))),
            Request::Epoch { name } => Step::Done(epoch(context, &name)),
            Request::Metrics => {
                Step::Done(Ok(pfr_obs::escape_multiline(&context.metrics.render())))
            }
            Request::Trace { id } => Step::Done(trace(context, id)),
            Request::Catalog { full } => Step::Done(Ok(catalog(context, full))),
            // The catalog is a control-plane-sized value; merging it here
            // costs less than a pool round trip.
            Request::Sync { .. } => Step::Done(sync(context, &payload)),
            Request::Quit => Step::Done(Ok("bye".to_string())),
            Request::Score { name, features, .. } => self
                .score(&name, features)
                .unwrap_or_else(|e| Step::Done(Err(e))),
            Request::Transform { name, features, .. } => self
                .transform(&name, features)
                .unwrap_or_else(|e| Step::Done(Err(e))),
            Request::Load { name, path } => {
                let context = Arc::clone(&self.context);
                self.defer("install", move || load(&context, &name, Path::new(&path)))
            }
            // `LOAD` without the shared-filesystem assumption: no
            // server-side path is read, so `bundle_dir` does not apply.
            Request::Push { name, .. } => {
                let context = Arc::clone(&self.context);
                self.defer("install", move || {
                    install(&context, &name, &payload, |model, bundle_text| {
                        Record::Push { model, bundle_text }
                    })
                })
            }
        }
    }

    /// Resolves `name` and journals the request **before** it executes —
    /// cache hits included — so replay reproduces the exact request order
    /// (and thus the LRU state).
    fn admit(&mut self, name: &str, record: impl FnOnce() -> Record) -> Result<Arc<ServableModel>> {
        let model = self.context.registry.resolve(name)?;
        self.event("resolve");
        journal_append(&self.context, record)?;
        if self.context.journal.is_some() {
            self.event("journal-append");
        }
        Ok(model)
    }

    /// `SCORE`: a cache hit answers here; a miss goes to the batcher.
    fn score(&mut self, name: &str, features: Vec<f64>) -> Result<Step> {
        let model = self.admit(name, || Record::Score {
            model: name.to_string(),
            features: features.clone(),
        })?;
        let key = ScoreKey::new(model.generation(), &features);
        let cached = key.as_ref().and_then(|key| {
            self.context
                .cache
                .lock()
                .expect("cache lock poisoned")
                .get(key)
        });
        if let Some(score) = cached {
            self.context.stats.record_cache_hit();
            self.event("cache-hit");
            return Ok(Step::Done(Ok(score_payload(score, model.threshold()))));
        }
        self.context.stats.record_cache_miss();
        self.event("cache-miss");
        self.key = key;
        self.threshold = model.threshold();
        Ok(Step::Batch { model, features })
    }

    /// `TRANSFORM`: not micro-batched (it is an offline/debugging verb),
    /// but still run on the pool so reactors never do linear algebra.
    fn transform(&mut self, name: &str, features: Vec<f64>) -> Result<Step> {
        let model = self.admit(name, || Record::Transform {
            model: name.to_string(),
            features: features.clone(),
        })?;
        Ok(self.defer("pool-exec", move || {
            let x = pfr_linalg::Matrix::from_vec(1, features.len(), features)
                .map_err(ServeError::model)?;
            Ok(protocol::format_numbers(model.transform_batch(&x)?.row(0)))
        }))
    }

    /// Wraps `job` for a pool thread; `stage` is the span event recorded
    /// when its result comes back. The span itself stays with the `Call`,
    /// so whatever the job does is folded into that one event.
    fn defer(
        &mut self,
        stage: &'static str,
        job: impl FnOnce() -> Result<String> + Send + 'static,
    ) -> Step {
        self.pool_stage = Some(stage);
        Step::Pool(Box::new(job))
    }

    /// Closes the books and renders the response line. Finished spans land
    /// in `ring` (the calling reactor's).
    pub(crate) fn complete(mut self, outcome: Outcome, ring: &SpanRing) -> String {
        let result = match outcome {
            Outcome::Score(Ok(score)) => {
                // Queue wait, batch assembly and the GEMM all sit between
                // "cache-miss" and this event.
                self.event("batch-scored");
                if let Some(key) = self.key.take() {
                    self.context
                        .cache
                        .lock()
                        .expect("cache lock poisoned")
                        .insert(key, score);
                    self.event("cache-insert");
                }
                Ok(score_payload(score, self.threshold))
            }
            Outcome::Score(Err(e)) => Err(e),
            Outcome::Text(result) => {
                if let Some(stage) = self.pool_stage {
                    self.event(stage);
                }
                result
            }
        };
        if let Some(bucket) = self.bucket {
            bucket(&self.context.stats).record(self.start.elapsed(), result.is_ok());
        }
        if let Some(span) = self.span.take() {
            finish_span(&self.context, span, ring);
        }
        let mut response = match result {
            Ok(payload) => protocol::ok_response(&payload),
            Err(e) => protocol::err_response(&e),
        };
        if let Some(id) = self.echo {
            response.push(' ');
            response.push_str(&pfr_obs::trace_token(id));
        }
        response
    }
}

impl Drop for Call {
    /// The one exit for [`Call::begin`]'s enter, on every path a request
    /// can take — answered, failed, or dropped with a connection that died
    /// while it was queued. A leaked enter would inflate `queue=` (the load
    /// signal the routing tier reads) forever.
    fn drop(&mut self) {
        self.context.stats.inflight_exit();
    }
}

/// Appends a journal record if journaling is configured. The record is
/// built lazily so the non-journaling hot path pays nothing. An append
/// failure fails the request: a server that promised durability must not
/// serve what it could not record. Under `FsyncPolicy::PerRecord` the
/// append blocks the calling reactor on an fsync; journaling deployments
/// should prefer `Interval`.
fn journal_append(context: &ServeContext, record: impl FnOnce() -> Record) -> Result<()> {
    if let Some(journal) = &context.journal {
        journal
            .append(&record())
            .map_err(|e| ServeError::Journal(e.to_string()))?;
    }
    Ok(())
}

/// Closes a span into `ring` and, when the request breached the slow
/// threshold, writes its breakdown through the journal as a slow-trace
/// record (best effort: a full disk must not fail a request that already
/// succeeded).
fn finish_span(context: &ServeContext, span: ActiveSpan, ring: &SpanRing) {
    let trace_id = span.trace_id();
    let total_ns = span.finish(ring);
    let Some(threshold) = context.slow_threshold else {
        return;
    };
    if total_ns < u64::try_from(threshold.as_nanos()).unwrap_or(u64::MAX) {
        return;
    }
    context.stats.record_slow_request();
    if let Some(journal) = &context.journal {
        if let Some(record) = ring.find(trace_id).into_iter().next_back() {
            let _ = journal.append(&Record::SlowTrace {
                trace_id,
                total_ns,
                text: record.render(0),
            });
        }
    }
}

fn score_payload(score: f64, threshold: f64) -> String {
    format!("{score} {}", u8::from(score >= threshold))
}

/// `HEALTH`: liveness plus the signals a routing tier keys decisions on —
/// how many models are loaded, how often they have been swapped, and the
/// instantaneous queue depth. The `queue=` figure includes this HEALTH
/// request itself, so an idle server reports `queue=1`.
fn health(context: &ServeContext) -> String {
    format!(
        "up models={} swaps={} queue={}",
        context.registry.len(),
        context.registry.hot_swaps(),
        context.stats.queue_depth(),
    )
}

/// `EPOCH <name>`: the model's process-local generation and its
/// cross-process-comparable content digest.
fn epoch(context: &ServeContext, name: &str) -> Result<String> {
    let model = context.registry.resolve(name)?;
    Ok(format!(
        "{name} generation={} digest={}",
        model.generation(),
        pfr_core::persistence::digest_hex(model.digest()),
    ))
}

/// `TRACE <id>`: every recorded span under `id`, escaped onto one line.
/// Unknown ids are an error — either the id was never sampled here or its
/// spans have been evicted.
fn trace(context: &ServeContext, id: u64) -> Result<String> {
    let spans = context.traces.find(id);
    if spans.is_empty() {
        return Err(ServeError::Protocol(format!("no recorded trace {id:016x}")));
    }
    let text: String = spans.iter().map(|span| span.render(0)).collect();
    Ok(pfr_obs::escape_multiline(&text))
}

/// `LOAD <name> <path>`: check the path against `bundle_dir`, read the
/// file, then the same [`install`] as `PUSH` — the bundle text is inlined
/// in the journal either way, so replay needs no filesystem.
fn load(context: &ServeContext, name: &str, path: &Path) -> Result<String> {
    if let Some(dir) = &context.bundle_dir {
        // Canonicalize both sides so `..` segments and symlinks cannot
        // escape the configured bundle directory.
        let canonical = path
            .canonicalize()
            .map_err(|_| ServeError::Model(format!("no bundle at '{}'", path.display())))?;
        let dir = dir
            .canonicalize()
            .map_err(|_| ServeError::Model("bundle directory is unavailable".to_string()))?;
        if !canonical.starts_with(&dir) {
            return Err(ServeError::Model(format!(
                "'{}' is outside the served bundle directory",
                path.display()
            )));
        }
    }
    install(
        context,
        name,
        &std::fs::read(path)?,
        |model, bundle_text| Record::Load { model, bundle_text },
    )
}

/// The one bundle install behind `LOAD` and `PUSH`: the text is validated
/// before it is journaled, so garbage never occupies a frame (the
/// registry re-parses, but installs are rare and bundles are small), and
/// journaled before it is registered. `record` is the verb's journal
/// record kind.
fn install(
    context: &ServeContext,
    name: &str,
    bundle: &[u8],
    record: fn(String, String) -> Record,
) -> Result<String> {
    let text = std::str::from_utf8(bundle)
        .map_err(|_| ServeError::Protocol("bundle text is not valid utf-8".to_string()))?;
    pfr_core::persistence::bundle_from_string(text).map_err(ServeError::model)?;
    journal_append(context, || record(name.to_string(), text.to_string()))?;
    let model = context.registry.load_from_str(name, text)?;
    Ok(format!(
        "loaded {} features={} dim={}",
        model.version(),
        model.num_features(),
        model.dim()
    ))
}

/// `CATALOG [FULL]`: reports the stored placement catalog's version
/// summary (digest-first anti-entropy probes this), or — with `FULL` —
/// hands over the whole catalog text escaped onto one line so a peer
/// router can bootstrap from it. A backend that has never been `SYNC`ed
/// answers `none`.
fn catalog(context: &ServeContext, full: bool) -> String {
    let guard = context.catalog.lock().expect("catalog lock poisoned");
    match guard.as_ref() {
        None => "none".to_string(),
        Some(catalog) if full => pfr_control::escape(&catalog.to_text()),
        Some(catalog) => catalog.version().summary(),
    }
}

/// `SYNC <nbytes>` + payload: offers a catalog to this backend. The
/// offered value replaces the stored one only when it supersedes it under
/// the [`pfr_control::Version`] total order — highest version wins, so
/// concurrent routers pushing stale catalogs can never roll the store
/// back. The response reports the post-merge holder state and whether the
/// offer was applied.
fn sync(context: &ServeContext, payload: &[u8]) -> Result<String> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| ServeError::Protocol("SYNC payload is not valid utf-8".to_string()))?;
    let offered =
        pfr_control::Catalog::from_text(text).map_err(|e| ServeError::Protocol(e.to_string()))?;
    let mut guard = context.catalog.lock().expect("catalog lock poisoned");
    let applied = match guard.as_ref() {
        Some(held) if !offered.supersedes(held) => false,
        _ => {
            *guard = Some(offered);
            true
        }
    };
    let version = guard
        .as_ref()
        .expect("catalog present after merge")
        .version();
    Ok(format!(
        "{} applied={}",
        version.summary(),
        u8::from(applied)
    ))
}
