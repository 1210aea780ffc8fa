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
//!   cache holds, and every early error (unknown model);
//! * [`Step::Batch`] — a `SCORE` cache miss, for the micro-batcher;
//! * [`Step::Pool`] — work that may block (`TRANSFORM`'s linear algebra,
//!   the bundle parse and journal append of `PUSH`), for a pool thread.
//!
//! Whoever runs a deferred step hands its [`Outcome`] back through
//! [`Call::arrive`], which is also where an inline answer goes; the
//! outcome it releases goes to [`Call::complete`]. What every request owes
//! besides its answer happens once around that pair rather than once per
//! verb: [`Call::begin`] takes the start time, raises the in-flight gauge
//! and opens the trace span; [`Call::complete`] records the verb's latency
//! and error count, closes the span, renders `OK`/`ERR` and echoes the wire
//! trace token; dropping the `Call` — completed, or abandoned with its
//! connection — lowers the gauge.
//!
//! **Answered and durable.** On a journaling server a `SCORE`/`TRANSFORM`
//! is *enqueued* to the journal at admission ([`Call::admit`]) and executes
//! at once — the fsync overlaps the queue wait and the GEMM instead of
//! preceding them, and because the reactor never waits, the journal's
//! writer finds every request admitted meanwhile queued behind the frame it
//! is flushing: that is what makes group commit group. Such a call is
//! complete only when **both** its outcome and the journal's
//! acknowledgement have arrived ([`Arrival`]), in whichever order, so no
//! response byte leaves before the fsync that covers its frame. A failed
//! acknowledgement answers `ERR journal …` whatever was computed and caches
//! nothing: a server that promised durability must not serve — or
//! remember — what it could not record.

use crate::cache::ScoreKey;
use crate::error::ServeError;
use crate::model::ServableModel;
use crate::protocol::{self, Request};
use crate::reactor_front::NetSink;
use crate::registry::ModelRegistry;
use crate::server::ServeContext;
use crate::stats::{ServerStats, VerbStats};
use crate::Result;
use pfr_journal::{Record, RecordRef};
use pfr_obs::{ActiveSpan, SpanRing};
use std::sync::Arc;
use std::time::Instant;

/// Deferred work for a pool thread: runs there, returns the response
/// payload.
pub(crate) type Job = Box<dyn FnOnce() -> Result<String> + Send>;

/// What executing a request came to.
pub(crate) enum Step {
    /// Answered here; the outcome is final.
    Done(Outcome),
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
    /// A score the cache answered at admission, still to be labelled and
    /// rendered.
    Cached(f64),
    /// A finished response payload.
    Text(Result<String>),
}

/// One of the two things a [`Call`] may wait for.
pub(crate) enum Arrival {
    /// Its answer: inline, or from the batcher or the pool.
    Outcome(Outcome),
    /// The journal's acknowledgement of the frame [`Call::admit`] enqueued.
    Durable(Result<()>),
}

/// What a [`Call`] still owes the journal before it may be answered.
enum Durability {
    /// Nothing: not journaled, or already acknowledged.
    Settled,
    /// The frame is enqueued; neither half has arrived.
    Awaited,
    /// The outcome arrived first and waits for the acknowledgement.
    Answered(Outcome),
    /// The journal could not record the request.
    Failed(ServeError),
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
    durability: Durability,
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
            durability: Durability::Settled,
        }
    }

    /// Records a stage event on the request's span, if it is traced.
    pub(crate) fn event(&mut self, stage: &'static str) {
        if let Some(span) = self.span.as_mut() {
            span.event(stage);
        }
    }

    /// Executes `request`. `payload` is the counted payload of `PUSH` and
    /// `SYNC`, empty for every other verb. `ack` builds the sink a journal
    /// acknowledgement comes back through; it is called only if the
    /// request is journaled, so a volatile server never clones one.
    pub(crate) fn execute(
        &mut self,
        request: Request,
        payload: Vec<u8>,
        ack: impl FnOnce() -> NetSink,
    ) -> Step {
        let context = &*self.context;
        match request {
            Request::Stats => done(Ok(context.metrics.render_line())),
            Request::Health => done(Ok(health(context))),
            Request::Epoch { name } => done(epoch(context, &name)),
            Request::Metrics => done(Ok(pfr_obs::escape_multiline(&context.metrics.render()))),
            Request::Trace { id } => done(trace(context, id)),
            Request::Catalog { full } => done(Ok(catalog(context, full))),
            // The catalog is a control-plane-sized value; merging it here
            // costs less than a pool round trip.
            Request::Sync { .. } => done(sync(context, &payload)),
            Request::Quit => done(Ok("bye".to_string())),
            Request::Score { name, features, .. } => self
                .score(&name, features, ack)
                .unwrap_or_else(|e| done(Err(e))),
            Request::Transform { name, features, .. } => self
                .transform(&name, features, ack)
                .unwrap_or_else(|e| done(Err(e))),
            Request::Push { name, .. } => {
                let context = Arc::clone(&self.context);
                self.defer("install", move || install(&context, &name, payload))
            }
        }
    }

    /// Resolves `name` and enqueues the request to the journal **before**
    /// it executes — cache hits included — so journal order is admission
    /// order and replay reproduces the exact request order (and thus the
    /// LRU state). The enqueue does not wait: the acknowledgement comes
    /// back through `ack` as an [`Arrival::Durable`], and until then the
    /// call may compute its answer but not give it.
    fn admit(
        &mut self,
        name: &str,
        record: RecordRef<'_>,
        ack: impl FnOnce() -> NetSink,
    ) -> Result<Arc<ServableModel>> {
        let model = self.context.registry.resolve(name)?;
        self.event("resolve");
        if let Some(journal) = &self.context.journal {
            let sink = ack();
            journal.submit(record, move |result| {
                sink.deliver(Arrival::Durable(
                    result
                        .map(drop)
                        .map_err(|e| ServeError::Journal(e.to_string())),
                ))
            });
            self.durability = Durability::Awaited;
        }
        Ok(model)
    }

    /// `SCORE`: a cache hit answers here; a miss goes to the batcher.
    fn score(
        &mut self,
        name: &str,
        features: Vec<f64>,
        ack: impl FnOnce() -> NetSink,
    ) -> Result<Step> {
        let record = RecordRef::Score {
            model: name,
            features: &features,
        };
        let model = self.admit(name, record, ack)?;
        let key = ScoreKey::new(model.generation(), &features);
        let cached = key.as_ref().and_then(|key| {
            self.context
                .cache
                .lock()
                .expect("cache lock poisoned")
                .get(key)
        });
        self.threshold = model.threshold();
        if let Some(score) = cached {
            self.context.stats.record_cache_hit();
            self.event("cache-hit");
            return Ok(Step::Done(Outcome::Cached(score)));
        }
        self.context.stats.record_cache_miss();
        self.event("cache-miss");
        self.key = key;
        Ok(Step::Batch { model, features })
    }

    /// `TRANSFORM`: not micro-batched (it is an offline/debugging verb),
    /// but still run on the pool so reactors never do linear algebra.
    fn transform(
        &mut self,
        name: &str,
        features: Vec<f64>,
        ack: impl FnOnce() -> NetSink,
    ) -> Result<Step> {
        let record = RecordRef::Transform {
            model: name,
            features: &features,
        };
        let model = self.admit(name, record, ack)?;
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

    /// Takes in one of the things the call waits for, recording its span
    /// event. Returns the outcome to [`Call::complete`] it with once
    /// nothing more is owed — at once for a call that is not journaled —
    /// and `None` while the other half is still out.
    pub(crate) fn arrive(&mut self, arrival: Arrival) -> Option<Outcome> {
        match arrival {
            Arrival::Outcome(outcome) => {
                match &outcome {
                    // Queue wait, batch assembly and the GEMM all sit
                    // between "cache-miss" and this event.
                    Outcome::Score(Ok(_)) => self.event("batch-scored"),
                    Outcome::Score(Err(_)) | Outcome::Cached(_) => {}
                    Outcome::Text(_) => {
                        if let Some(stage) = self.pool_stage {
                            self.event(stage);
                        }
                    }
                }
                match self.durability {
                    Durability::Awaited => {
                        self.durability = Durability::Answered(outcome);
                        None
                    }
                    _ => Some(outcome),
                }
            }
            Arrival::Durable(ack) => {
                self.event("journal-append");
                let settled = match ack {
                    Ok(()) => Durability::Settled,
                    Err(e) => Durability::Failed(e),
                };
                match std::mem::replace(&mut self.durability, settled) {
                    Durability::Answered(outcome) => Some(outcome),
                    _ => None,
                }
            }
        }
    }

    /// Closes the books on a call [`Call::arrive`] released and renders
    /// the response line. Finished spans land in `ring` (the calling
    /// reactor's).
    pub(crate) fn complete(mut self, outcome: Outcome, ring: &SpanRing) -> String {
        let durability = std::mem::replace(&mut self.durability, Durability::Settled);
        let result = match (durability, outcome) {
            // Unrecorded: no answer, and nothing of it in the cache.
            (Durability::Failed(e), _) => Err(e),
            (_, Outcome::Score(Ok(score))) => {
                if let Some(key) = self.key.take() {
                    self.context
                        .cache
                        .lock()
                        .expect("cache lock poisoned")
                        .insert(key, score);
                    self.event("cache-insert");
                }
                Ok(Answer::Score(score))
            }
            (_, Outcome::Cached(score)) => Ok(Answer::Score(score)),
            (_, Outcome::Score(Err(e))) => Err(e),
            (_, Outcome::Text(result)) => result.map(Answer::Text),
        };
        if let Some(bucket) = self.bucket {
            bucket(&self.context.stats).record(self.start.elapsed(), result.is_ok());
        }
        if let Some(span) = self.span.take() {
            finish_span(&self.context, span, ring);
        }
        // One `String` per response: a score is written straight into it,
        // and so is the trace echo.
        let mut response = match result {
            Ok(Answer::Score(score)) => protocol::score_response(score, score >= self.threshold),
            Ok(Answer::Text(payload)) => protocol::ok_response(&payload),
            Err(e) => protocol::err_response(&e),
        };
        if let Some(id) = self.echo {
            protocol::push_trace_token(&mut response, id);
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

/// Closes a span into `ring` and, when the request breached the slow
/// threshold, enqueues its breakdown to the journal as a slow-trace record.
/// Nobody waits for that frame: it is a diagnostic of a request already
/// answered, and the reactor must not stall on the disk for it.
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
            let slow = RecordRef::SlowTrace {
                trace_id,
                total_ns,
                text: &record.render(0),
            };
            journal.submit(slow, |_| {});
        }
    }
}

/// What a successful call answers, before it is rendered.
enum Answer {
    /// A `SCORE`: labelled against the call's threshold.
    Score(f64),
    /// Any other verb's payload.
    Text(String),
}

/// A step answered on the calling thread with a text payload or an error.
fn done(result: Result<String>) -> Step {
    Step::Done(Outcome::Text(result))
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

/// `PUSH <name> <nbytes>` + payload, the one bundle install. The payload
/// becomes the model it will serve *first* — every check the registry
/// makes, made once — so a bundle the server would refuse never occupies a
/// journal frame. Then it is journaled, with the blocking append on this
/// pool thread: the frame must be durable before the registry swap, and an
/// install the journal cannot record fails. Then that same model is
/// registered.
fn install(context: &ServeContext, name: &str, payload: Vec<u8>) -> Result<String> {
    let text = String::from_utf8(payload)
        .map_err(|_| ServeError::Protocol("bundle text is not valid utf-8".to_string()))?;
    let model = ModelRegistry::materialize(name, &text)?;
    if let Some(journal) = &context.journal {
        let record = Record::Push {
            model: name.to_string(),
            bundle_text: text,
        };
        journal
            .append(&record)
            .map_err(|e| ServeError::Journal(e.to_string()))?;
    }
    let model = context.registry.insert(name, model);
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
