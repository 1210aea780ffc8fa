//! # pfr-obs
//!
//! The observability substrate every tier shares: lock-free log-linear
//! latency histograms ([`LatencyHisto`]) with exact-mergeable
//! [`Snapshot`]s, sampled trace spans with wire-propagated ids
//! ([`trace`]), and one Prometheus-style exposition
//! ([`MetricsRegistry`]) that an aggregating tier can parse back and
//! merge ([`Scrape`]).
//!
//! Std-only by design — this crate sits below `pfr-net`, `pfr-serve`,
//! `pfr-journal`, `pfr-router`, and `pfr-refit`, and must never pull a
//! dependency into their builds. See `DESIGN.md` for the bucket scheme,
//! error bound, trace-id wire format, and sampling policy.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod histo;
pub mod registry;
pub mod trace;
pub mod wire;

pub use histo::{bucket_high, bucket_index, bucket_low, LatencyHisto, Snapshot, BUCKETS, SUB};
pub use registry::{render_histogram, MetricsRegistry, Scrape};
pub use trace::{mint_trace_id, ActiveSpan, Sampler, SpanRecord, SpanRing, TraceStore};
pub use wire::{
    escape_multiline, parse_trace_token, strip_trace_echo, trace_token, unescape_multiline,
    TraceToken,
};
