//! # pfr-journal — durable write-ahead request journal
//!
//! A std-only, segmented, append-only journal for the PFR serving tier.
//! Every accepted request (`SCORE`, `TRANSFORM`, `PUSH`) becomes a
//! checksummed, length-prefixed binary frame; a group-commit writer thread
//! covers every append in flight with one write and one fsync
//! ([`Journal::submit`] enqueues without waiting, [`Journal::append`]
//! waits); recovery truncates at the first torn tail frame and replays
//! everything before it, which is enough to rebuild the model registry and
//! re-warm the score cache to the exact pre-crash state.
//!
//! See `DESIGN.md` in this crate for the frame format, the torn-write
//! argument, and the recovery invariants.
//!
//! ```
//! use pfr_journal::{Journal, JournalConfig, FsyncPolicy, Record, replay_dir};
//!
//! let dir = std::env::temp_dir().join(format!("pfr_journal_doc_{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let journal = Journal::open(JournalConfig {
//!     fsync: FsyncPolicy::Never,
//!     ..JournalConfig::new(&dir)
//! })
//! .unwrap();
//! let seq = journal
//!     .append(&Record::Score { model: "m".into(), features: vec![1.0, 2.0] })
//!     .unwrap();
//! assert_eq!(seq, 1);
//! journal.close();
//!
//! let mut frames = 0;
//! replay_dir(&dir, |_seq, _record| frames += 1).unwrap();
//! assert_eq!(frames, 1);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

mod cursor;
mod error;
pub mod frame;
mod journal;
mod record;

pub use cursor::JournalCursor;
pub use error::JournalError;
pub use journal::{
    replay_dir, FsyncPolicy, Journal, JournalConfig, JournalStats, PinGuard, ReplaySummary,
};
#[doc(hidden)]
pub use journal::{HoldGuard, SyncHook};
pub use record::{Record, RecordRef};
