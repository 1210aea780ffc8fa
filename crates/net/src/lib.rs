//! # pfr-net
//!
//! Std-only event-driven networking primitives for the serving tiers — the
//! readiness reactor that decouples *connection count* from *thread count*.
//! Before this crate, every idle client cost one OS thread in `pfr-serve`'s
//! front end and every scatter sub-batch cost one thread in `pfr-router`;
//! with it, a single reactor thread multiplexes thousands of sockets.
//!
//! The crate follows the mio/Noria idiom — a readiness poller driving
//! non-blocking connection state machines — but is built from raw
//! `extern "C"` bindings (no external crates, matching the workspace's
//! offline shim policy):
//!
//! * [`sys`] — the FFI floor: `epoll_create1`/`epoll_ctl`/`epoll_wait`,
//!   `eventfd`, and non-blocking `socket`/`connect`. Every `unsafe` block
//!   of the crate lives here.
//! * [`Poller`] / [`Waker`] — safe epoll registration (edge-triggered by
//!   default) and a cross-thread eventfd wakeup.
//! * [`DeadlineWheel`] — O(1) arm/cancel hashed timer wheel for io and
//!   connect deadlines.
//! * [`LineConn`] — the non-blocking line-protocol connection state
//!   machine: read-accumulate / parse / write-drain with backpressure,
//!   yielding identical frames no matter how reads are split across
//!   readiness events (property-tested). Besides `\n`-delimited lines it
//!   frames counted payloads ([`Frame::Payload`]) for verbs like `PUSH`
//!   that ship binary-ish bodies after a header line.
//! * [`ClientDriver`] — a reactor thread multiplexing outbound
//!   line-protocol bursts through one frame-based submission core: every
//!   operation lands tagged on a [`CompletionQueue`] — a one-entry
//!   [`Ticket`] to poll or block on, or a queue shared by thousands — and
//!   operations to the same address pipeline onto shared connections —
//!   one caller thread drives thousands of in-flight requests, spawning
//!   zero threads.
//! * [`LoopStats`] — std-only per-event-loop health counters (time spent
//!   blocked in `epoll_wait`, events per wakeup, armed wheel depth) that
//!   the observability tier exposes as gauges.
//!
//! `pfr-serve` builds its event-driven front end from the first four;
//! `pfr-router` routes its backend traffic through the last.
//!
//! See `DESIGN.md` in this crate for the reactor architecture, the
//! edge-vs-level argument and the safety inventory of the FFI layer.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod client;
pub mod line;
pub mod poller;
pub mod stats;
pub mod sys;
pub mod wheel;

pub use client::{BurstResult, ClientConfig, ClientDriver, CompletionQueue, Ticket};
pub use line::{FillOutcome, FlushOutcome, Frame, LineConn};
pub use poller::{Event, Interest, Poller, Waker};
pub use stats::LoopStats;
pub use wheel::DeadlineWheel;
