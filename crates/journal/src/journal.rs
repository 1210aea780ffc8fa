//! The journal proper: segmented append-only log with a group-commit writer
//! thread, size-based rotation, retention, and torn-write-safe recovery.
//!
//! All appends funnel through one writer thread. [`Journal::submit`]
//! enqueues a frame and returns; the writer runs the caller's completion
//! once the frame is acknowledged per policy. [`Journal::append`] is
//! `submit` plus a blocking wait. Whatever queued while the previous group
//! was being flushed is written with a *single* `write` and — under
//! [`FsyncPolicy::PerRecord`] — made durable by a *single* fsync: classic
//! group commit, and it groups exactly as well as callers keep appends in
//! flight. The durability guarantee is per policy:
//!
//! * [`FsyncPolicy::PerRecord`] — an append is acknowledged only after the
//!   frame is fsynced. Survives machine crash.
//! * [`FsyncPolicy::Never`] — never fsyncs. Survives process crash only.
//!
//! A failed write or fsync is **sticky**: the kernel may already have
//! dropped the dirty pages, so no later fsync can vouch for them. The
//! group that met the failure, everything queued behind it and every later
//! append fail with that error until the journal is reopened (which
//! re-scans the segments and truncates the tail).

use crate::cursor::checkpoint_positions;
use crate::error::JournalError;
use crate::frame::{decode_frame, encode_frame, FrameOutcome, SEGMENT_MAGIC};
use crate::record::{Record, RecordRef};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// In-process pin registry: pin id → lowest sequence number the pinned
/// reader still needs. Shared between [`Journal`] handles (which register
/// pins) and the writer thread (whose retention consults it).
type PinSet = Arc<Mutex<BTreeMap<u64, u64>>>;

/// Keeps every frame at or after a sequence number safe from retention for
/// as long as the guard lives. Returned by [`Journal::pin_from`]; dropping
/// the guard releases the pin.
#[derive(Debug)]
pub struct PinGuard {
    pins: PinSet,
    id: u64,
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        if let Ok(mut pins) = self.pins.lock() {
            pins.remove(&self.id);
        }
    }
}

/// When the writer thread pushes bytes to the platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync before acknowledging every append (group-committed: one fsync
    /// covers every append in the batch).
    PerRecord,
    /// Never fsync; rely on the OS flushing its page cache.
    Never,
}

/// Configuration for opening a [`Journal`].
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Directory holding the segment files (created if absent).
    pub dir: PathBuf,
    /// Roll to a new segment once the active one exceeds this many bytes.
    pub segment_bytes: u64,
    /// Keep at most this many segments, deleting the oldest sealed ones
    /// after a roll. `0` keeps everything — the only setting under which
    /// replay is guaranteed to reconstruct the full registry (deleting a
    /// sealed segment may drop the `PUSH` frame that installed a model).
    pub retain_segments: usize,
    /// Durability policy (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Test seam on the writer's `sync_data` call (see [`SyncHook`]).
    #[doc(hidden)]
    pub sync_hook: Option<SyncHook>,
}

impl JournalConfig {
    /// Durable-by-default configuration rooted at `dir`: 8 MiB segments,
    /// unlimited retention, fsync-per-record.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        JournalConfig {
            dir: dir.into(),
            segment_bytes: 8 << 20,
            retain_segments: 0,
            fsync: FsyncPolicy::PerRecord,
            sync_hook: None,
        }
    }
}

/// A fault-injection seam on the writer thread's `sync_data` call: tests
/// *hold* it (the writer parks with frames written but not yet durable),
/// *fail* it (it reports an OS error without touching the file) and
/// *count* it. Clones share state, so a test keeps one clone and hands the
/// other to [`JournalConfig::sync_hook`].
#[doc(hidden)]
#[derive(Debug, Clone, Default)]
pub struct SyncHook(Arc<HookShared>);

#[derive(Debug, Default)]
struct HookShared {
    state: Mutex<HookState>,
    changed: Condvar,
}

#[derive(Debug, Default)]
struct HookState {
    /// `Some(n)`: the next `n` syncs pass, every later one parks.
    hold_after: Option<u64>,
    /// A sync is parked right now.
    parked: bool,
    /// Every sync fails with this OS error number.
    fail: Option<i32>,
    /// Syncs that reached the hook.
    calls: u64,
}

impl SyncHook {
    fn state(&self) -> std::sync::MutexGuard<'_, HookState> {
        // Every update is one field assignment, so the state is valid even
        // if a holder panicked — and `HoldGuard`'s drop must not.
        self.0
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Parks every sync from the next one on, until [`SyncHook::release`].
    pub fn hold(&self) {
        self.hold_after(0);
    }

    /// Lets `passes` more syncs through, then parks every later one.
    pub fn hold_after(&self, passes: u64) {
        self.state().hold_after = Some(passes);
    }

    /// [`SyncHook::hold_after`] for as long as the returned guard lives. A
    /// `Journal` dropped under a hold joins a writer parked here and never
    /// returns, so a test whose assertion fails mid-hold would hang instead
    /// of failing; the guard releases as the test unwinds.
    pub fn hold_scoped(&self, passes: u64) -> HoldGuard {
        self.hold_after(passes);
        HoldGuard(self.clone())
    }

    /// Blocks until a sync is parked — the writer has written a group and
    /// is waiting for its fsync.
    pub fn wait_parked(&self) {
        let mut state = self.state();
        while !state.parked {
            state = self.0.changed.wait(state).expect("sync hook lock poisoned");
        }
    }

    /// Ends the hold; a parked sync proceeds.
    pub fn release(&self) {
        self.state().hold_after = None;
        self.0.changed.notify_all();
    }

    /// Makes every sync from now on fail with OS error `errno`.
    pub fn fail_with(&self, errno: i32) {
        self.state().fail = Some(errno);
    }

    /// Syncs that reached the hook so far (passed, parked or failed).
    pub fn calls(&self) -> u64 {
        self.state().calls
    }

    /// The writer's side: called in place of going straight to `sync_data`.
    fn enter(&self) -> io::Result<()> {
        let mut state = self.state();
        state.calls += 1;
        while let Some(passes) = state.hold_after {
            if passes > 0 {
                state.hold_after = Some(passes - 1);
                break;
            }
            state.parked = true;
            self.0.changed.notify_all();
            state = self.0.changed.wait(state).expect("sync hook lock poisoned");
            state.parked = false;
        }
        match state.fail {
            Some(errno) => Err(io::Error::from_raw_os_error(errno)),
            None => Ok(()),
        }
    }
}

/// Releases its [`SyncHook`] when dropped (see [`SyncHook::hold_scoped`]).
#[doc(hidden)]
#[derive(Debug)]
#[must_use = "the hold ends when the guard is dropped"]
pub struct HoldGuard(SyncHook);

impl Drop for HoldGuard {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// Live journal telemetry, shared between the writer thread and the
/// metrics registry. All counters are relaxed atomics.
#[derive(Debug, Default)]
pub struct JournalStats {
    last_seq: AtomicU64,
    segments: AtomicU64,
    bytes: AtomicU64,
    appends: AtomicU64,
    fsyncs: AtomicU64,
    unsynced: AtomicU64,
    failed: AtomicBool,
    /// Wall-clock latency of each fsync — the component that dominates
    /// durable append tails, kept as a full distribution because fsync
    /// latency is bimodal on most filesystems.
    fsync_ns: Arc<pfr_obs::LatencyHisto>,
}

impl JournalStats {
    /// Highest sequence number written (0 before the first append).
    pub fn last_seq(&self) -> u64 {
        self.last_seq.load(Ordering::Relaxed)
    }

    /// Number of segment files currently on disk.
    pub fn segments(&self) -> u64 {
        self.segments.load(Ordering::Relaxed)
    }

    /// Valid journal bytes currently on disk across all segments.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Appends acknowledged since open.
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// Fsyncs issued since open.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Bytes written but not yet covered by an fsync — the fsync lag.
    /// Always 0 under [`FsyncPolicy::PerRecord`] between batches; grows
    /// without bound under [`FsyncPolicy::Never`] by design.
    pub fn unsynced(&self) -> u64 {
        self.unsynced.load(Ordering::Relaxed)
    }

    /// Whether a write or fsync has failed. The failure is sticky: every
    /// append fails from then on, until the journal is reopened.
    pub fn failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }

    /// The live fsync-latency histogram (nanoseconds per fsync call).
    pub fn fsync_histogram(&self) -> &Arc<pfr_obs::LatencyHisto> {
        &self.fsync_ns
    }
}

/// What [`replay_dir`] (and [`Journal::replay`]) found.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplaySummary {
    /// Complete, checksum-valid frames delivered to the callback.
    pub frames: u64,
    /// Sequence number of the last delivered frame (0 if none).
    pub last_seq: u64,
    /// Segment files visited.
    pub segments: u64,
    /// Bytes of valid frames (plus magic headers) replayed.
    pub bytes: u64,
    /// Bytes ignored after the last valid frame — a torn tail (or a write
    /// racing the replay). Zero on a cleanly closed journal.
    pub truncated_bytes: u64,
}

/// The completion of one submitted append, owed exactly one call.
type Done = Box<dyn FnOnce(Result<u64, JournalError>) + Send>;

/// One append in flight to the writer thread. Dropping it unacknowledged —
/// the journal was already closed, or the writer died with it queued —
/// completes it with [`JournalError::Closed`], so no caller waits forever.
struct Append {
    kind: u8,
    body: Vec<u8>,
    done: Option<Done>,
}

impl Append {
    fn complete(mut self, result: Result<u64, JournalError>) {
        if let Some(done) = self.done.take() {
            done(result);
        }
    }
}

impl Drop for Append {
    fn drop(&mut self) {
        if let Some(done) = self.done.take() {
            done(Err(JournalError::Closed));
        }
    }
}

/// A durable, append-only, segmented request journal.
///
/// Cloneable handles are not provided; share via `Arc`. Dropping the last
/// handle flushes, fsyncs (per policy) and joins the writer thread.
#[derive(Debug)]
pub struct Journal {
    config: JournalConfig,
    stats: Arc<JournalStats>,
    pins: PinSet,
    next_pin: AtomicU64,
    tx: Option<Sender<Append>>,
    writer: Option<JoinHandle<()>>,
}

impl Journal {
    /// Opens (or creates) the journal in `config.dir`, recovering from any
    /// torn tail: the last segment is truncated back to its final valid
    /// frame before the writer thread starts appending after it.
    ///
    /// Invalid bytes *before* the tail of the final segment — i.e. damage
    /// that torn writes cannot explain — fail the open with
    /// [`JournalError::Corrupt`] rather than silently dropping reachable
    /// frames.
    pub fn open(config: JournalConfig) -> Result<Journal, JournalError> {
        fs::create_dir_all(&config.dir)?;
        let segments = list_segments(&config.dir)?;
        let mut last_seq = 0u64;
        let mut valid_bytes = 0u64;
        let mut expect: Option<u64> = None;
        for (index, path) in segments.iter().enumerate() {
            let is_last = index + 1 == segments.len();
            let scan = scan_segment(path, &mut expect)?;
            if scan.valid_len < scan.file_len {
                if !is_last {
                    return Err(JournalError::Corrupt {
                        segment: path.clone(),
                        offset: scan.valid_len,
                        reason: scan
                            .damage
                            .unwrap_or_else(|| "invalid frame before the journal tail".into()),
                    });
                }
                // Torn tail: drop everything from the first invalid byte.
                let mut file = OpenOptions::new().write(true).open(path)?;
                file.set_len(scan.valid_len)?;
                if scan.valid_len == 0 {
                    // The crash tore the segment's own magic header;
                    // rewrite it so the segment stays appendable.
                    file.write_all(SEGMENT_MAGIC)?;
                    valid_bytes += SEGMENT_MAGIC.len() as u64;
                }
                file.sync_data()?;
            }
            if let Some(seq) = scan.last_seq {
                last_seq = seq;
            }
            valid_bytes += scan.valid_len;
        }

        let stats = Arc::new(JournalStats::default());
        stats.last_seq.store(last_seq, Ordering::Relaxed);
        stats.bytes.store(valid_bytes, Ordering::Relaxed);

        // Open the active segment (create the first one on a fresh dir).
        let (segment_paths, active) = match segments.last() {
            Some(last) => {
                let file = OpenOptions::new().append(true).open(last)?;
                (segments.clone(), (last.clone(), file))
            }
            None => {
                let path = segment_path(&config.dir, last_seq + 1);
                let mut file = File::create(&path)?;
                file.write_all(SEGMENT_MAGIC)?;
                stats
                    .bytes
                    .fetch_add(SEGMENT_MAGIC.len() as u64, Ordering::Relaxed);
                (vec![path.clone()], (path, file))
            }
        };
        stats
            .segments
            .store(segment_paths.len() as u64, Ordering::Relaxed);

        let pins: PinSet = Arc::new(Mutex::new(BTreeMap::new()));
        let (tx, rx) = mpsc::channel();
        let writer_state = Writer {
            dir: config.dir.clone(),
            segment_bytes: config.segment_bytes,
            retain_segments: config.retain_segments,
            fsync: config.fsync,
            sync_hook: config.sync_hook.clone(),
            segments: segment_paths,
            active_len: fs::metadata(&active.0)?.len(),
            active: active.1,
            next_seq: last_seq + 1,
            stats: Arc::clone(&stats),
            pins: Arc::clone(&pins),
            buffer: Vec::with_capacity(64 << 10),
            failed: None,
        };
        let writer = std::thread::Builder::new()
            .name("pfr-journal-writer".into())
            .spawn(move || writer_state.run(rx))
            .map_err(JournalError::Io)?;

        Ok(Journal {
            config,
            stats,
            pins,
            next_pin: AtomicU64::new(1),
            tx: Some(tx),
            writer: Some(writer),
        })
    }

    /// Pins every frame with sequence number ≥ `seq`: segment retention
    /// will not delete a segment still holding any of them while the
    /// returned guard lives. Used by in-process readers (replay, tailing)
    /// that have no durable checkpoint to protect them.
    pub fn pin_from(&self, seq: u64) -> PinGuard {
        let id = self.next_pin.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut pins) = self.pins.lock() {
            pins.insert(id, seq.max(1));
        }
        PinGuard {
            pins: Arc::clone(&self.pins),
            id,
        }
    }

    /// Enqueues one record for the writer thread and returns at once.
    /// `done` runs on the writer thread, exactly once, when the frame is
    /// acknowledged per the journal's [`FsyncPolicy`] — with its sequence
    /// number, or with why it could not be recorded — and completions run
    /// in sequence order. It must not block: every later append waits
    /// behind it.
    pub fn submit(
        &self,
        record: RecordRef<'_>,
        done: impl FnOnce(Result<u64, JournalError>) + Send + 'static,
    ) {
        let mut body = Vec::with_capacity(record.body_len());
        record.encode_body(&mut body);
        let append = Append {
            kind: record.kind(),
            body,
            done: Some(Box::new(done)),
        };
        // A closed journal hands the append back (or never took it), and
        // dropping it reports `Closed`.
        if let Some(tx) = &self.tx {
            let _ = tx.send(append);
        }
    }

    /// Appends one record and blocks until it is acknowledged per the
    /// journal's [`FsyncPolicy`]: [`Journal::submit`], then a wait for its
    /// completion. Returns the assigned sequence number.
    pub fn append(&self, record: &Record) -> Result<u64, JournalError> {
        let (ack_tx, ack_rx) = mpsc::sync_channel(1);
        self.submit(record.as_ref(), move |ack| {
            let _ = ack_tx.send(ack);
        });
        ack_rx.recv().unwrap_or(Err(JournalError::Closed))
    }

    /// Replays every valid frame currently on disk, oldest first. Tolerant
    /// of a torn tail (it stops there and reports the skipped bytes), so it
    /// is safe to run concurrently with appends — frames mid-write simply
    /// are not visited.
    pub fn replay<F>(&self, visit: F) -> Result<ReplaySummary, JournalError>
    where
        F: FnMut(u64, Record),
    {
        // Pin the whole journal for the duration: a concurrent roll must not
        // rotate away a segment this replay is about to read.
        let _pin = self.pin_from(1);
        replay_dir(&self.config.dir, visit)
    }

    /// Live telemetry counters.
    pub fn stats(&self) -> &JournalStats {
        &self.stats
    }

    /// The shared handle behind [`Journal::stats`] — for gauges that must
    /// outlive the borrow (e.g. a refit worker's cursor-lag gauge reading
    /// this journal's tip from inside a registry closure).
    pub fn shared_stats(&self) -> Arc<JournalStats> {
        Arc::clone(&self.stats)
    }

    /// Registers the journal's counters and the fsync-latency histogram on
    /// `registry` under the `pfr_journal_*` namespace.
    pub fn register_metrics(&self, registry: &pfr_obs::MetricsRegistry) {
        macro_rules! gauge {
            ($name:expr, $read:expr) => {{
                let stats = Arc::clone(&self.stats);
                registry.gauge($name, &[], Arc::new(move || ($read)(&stats) as f64));
            }};
        }
        gauge!("pfr_journal_seq", |s: &JournalStats| s.last_seq());
        gauge!("pfr_journal_segments", |s: &JournalStats| s.segments());
        gauge!("pfr_journal_bytes", |s: &JournalStats| s.bytes());
        gauge!("pfr_journal_appends_total", |s: &JournalStats| s.appends());
        gauge!("pfr_journal_fsyncs_total", |s: &JournalStats| s.fsyncs());
        gauge!("pfr_journal_unsynced_bytes", |s: &JournalStats| s
            .unsynced());
        gauge!("pfr_journal_failed", |s: &JournalStats| u8::from(
            s.failed()
        ));
        registry.histogram(
            "pfr_journal_fsync_ns",
            &[],
            Arc::clone(self.stats.fsync_histogram()),
        );
    }

    /// The directory holding the segment files.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// Flushes, fsyncs (per policy) and stops the writer thread. Equivalent
    /// to dropping the journal, but explicit.
    pub fn close(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        drop(self.tx.take());
        if let Some(handle) = self.writer.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Replays every valid frame under `dir` without opening a [`Journal`] —
/// a pure read: no truncation, no writer thread, no locks. Stops at the
/// first invalid frame (torn tail) and reports how many bytes it skipped.
pub fn replay_dir<F>(dir: &Path, mut visit: F) -> Result<ReplaySummary, JournalError>
where
    F: FnMut(u64, Record),
{
    let segments = list_segments(dir)?;
    let mut summary = ReplaySummary::default();
    let mut expect: Option<u64> = None;
    for path in &segments {
        summary.segments += 1;
        let buf = fs::read(path)?;
        if buf.len() < SEGMENT_MAGIC.len() || &buf[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
            summary.truncated_bytes += buf.len() as u64;
            break;
        }
        summary.bytes += SEGMENT_MAGIC.len() as u64;
        let mut offset = SEGMENT_MAGIC.len();
        let stop = loop {
            match decode_frame(&buf, offset) {
                FrameOutcome::Frame {
                    seq,
                    record,
                    next_offset,
                } => {
                    if let Some(want) = expect {
                        if seq != want {
                            // A sequence break cannot come from a torn
                            // write; stop delivering rather than invent
                            // an inconsistent history.
                            break true;
                        }
                    }
                    expect = Some(seq + 1);
                    visit(seq, record);
                    summary.frames += 1;
                    summary.last_seq = seq;
                    summary.bytes += (next_offset - offset) as u64;
                    offset = next_offset;
                }
                FrameOutcome::End => break false,
                FrameOutcome::Incomplete | FrameOutcome::Corrupt(_) => break true,
            }
        };
        if stop {
            summary.truncated_bytes += (buf.len() - offset) as u64;
            break;
        }
    }
    Ok(summary)
}

/// Segment file name for the segment whose first frame will carry `seq`.
pub(crate) fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("seg-{seq:020}.wal"))
}

/// Inverse of [`segment_path`]: the first sequence number a segment file
/// holds, parsed from its name. `None` for foreign file names.
pub(crate) fn segment_first_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix("seg-")?
        .strip_suffix(".wal")?
        .parse()
        .ok()
}

/// All `seg-*.wal` files under `dir`, sorted by name (zero-padded first-seq
/// naming makes lexicographic order equal journal order).
pub(crate) fn list_segments(dir: &Path) -> Result<Vec<PathBuf>, JournalError> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("seg-") && name.ends_with(".wal") {
            segments.push(path);
        }
    }
    segments.sort();
    Ok(segments)
}

/// What scanning one segment at open time found.
struct SegmentScan {
    file_len: u64,
    valid_len: u64,
    last_seq: Option<u64>,
    damage: Option<String>,
}

/// Validates one segment, advancing the cross-segment sequence expectation.
fn scan_segment(path: &Path, expect: &mut Option<u64>) -> Result<SegmentScan, JournalError> {
    let buf = fs::read(path)?;
    let file_len = buf.len() as u64;
    if buf.len() < SEGMENT_MAGIC.len() || &buf[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        // The segment never got a complete magic header (crash during
        // creation): everything in it is a torn tail.
        return Ok(SegmentScan {
            file_len,
            valid_len: 0,
            last_seq: None,
            damage: Some("missing or torn segment magic".into()),
        });
    }
    let mut offset = SEGMENT_MAGIC.len();
    let mut last_seq = None;
    let mut damage = None;
    loop {
        match decode_frame(&buf, offset) {
            FrameOutcome::Frame {
                seq,
                record: _,
                next_offset,
            } => {
                if let Some(want) = *expect {
                    if seq != want {
                        damage = Some(format!("sequence jump: expected {want}, found {seq}"));
                        break;
                    }
                }
                *expect = Some(seq + 1);
                last_seq = Some(seq);
                offset = next_offset;
            }
            FrameOutcome::End => break,
            FrameOutcome::Incomplete => {
                damage = Some("partial frame at segment tail".into());
                break;
            }
            FrameOutcome::Corrupt(reason) => {
                damage = Some(reason);
                break;
            }
        }
    }
    Ok(SegmentScan {
        file_len,
        valid_len: offset as u64,
        last_seq,
        damage,
    })
}

/// State owned by the writer thread.
struct Writer {
    dir: PathBuf,
    segment_bytes: u64,
    retain_segments: usize,
    fsync: FsyncPolicy,
    sync_hook: Option<SyncHook>,
    segments: Vec<PathBuf>,
    active: File,
    /// Length of the active segment counting frames still in `buffer`.
    active_len: u64,
    next_seq: u64,
    stats: Arc<JournalStats>,
    pins: PinSet,
    /// Encoded frames of the current group, not yet written.
    buffer: Vec<u8>,
    /// The first write or fsync error, once there has been one (sticky;
    /// see the module docs).
    failed: Option<String>,
}

/// Cap on how many queued appends one flush+fsync may cover.
const MAX_GROUP: usize = 512;

impl Writer {
    fn run(mut self, rx: Receiver<Append>) {
        let mut group: Vec<Append> = Vec::new();
        // Block for the first append; the loop ends when the last sender
        // is gone and the queue is drained.
        while let Ok(first) = rx.recv() {
            // Group commit: drain whatever queued while the previous group
            // was being flushed. No hold timer — waiting for a fuller group
            // would be a knob, and it would cost every lone append.
            group.push(first);
            while group.len() < MAX_GROUP {
                match rx.try_recv() {
                    Ok(append) => group.push(append),
                    Err(_) => break,
                }
            }
            self.commit(&mut group);
        }
        // Graceful close: everything queued was already committed (the
        // channel only disconnects after the last sender is gone and the
        // queue is drained above); push the tail to the platter.
        if self.fsync != FsyncPolicy::Never && self.failed.is_none() {
            let _ = self.sync_active();
        }
    }

    /// Writes a group of appends with one `write`, fsyncs per policy, then
    /// acknowledges every append in sequence order — or, once anything has
    /// failed, fails them all.
    fn commit(&mut self, group: &mut Vec<Append>) {
        if self.failed.is_none() {
            if let Err(e) = self.write_group(group) {
                self.fail(e);
            }
        }
        if let Some(reason) = &self.failed {
            for append in group.drain(..) {
                append.complete(Err(JournalError::Append(reason.clone())));
            }
            return;
        }
        let first_seq = self.next_seq - group.len() as u64;
        self.stats
            .last_seq
            .fetch_max(self.next_seq - 1, Ordering::Relaxed);
        for (seq, append) in (first_seq..).zip(group.drain(..)) {
            self.stats.appends.fetch_add(1, Ordering::Relaxed);
            append.complete(Ok(seq));
        }
    }

    /// Records the first write or fsync error; see the module docs for why
    /// it is never cleared.
    fn fail(&mut self, error: io::Error) {
        self.stats.failed.store(true, Ordering::Relaxed);
        self.failed = Some(error.to_string());
    }

    /// Encodes every frame of the group into the buffer, writes it once and
    /// applies the fsync policy. Frames stay whole within one segment: the
    /// buffer is written out before a roll.
    fn write_group(&mut self, group: &[Append]) -> io::Result<()> {
        for append in group {
            if self.active_len >= self.segment_bytes && self.active_len > SEGMENT_MAGIC.len() as u64
            {
                self.roll()?;
            }
            let frame_len =
                encode_frame(self.next_seq, append.kind, &append.body, &mut self.buffer);
            self.next_seq += 1;
            self.active_len += frame_len as u64;
        }
        self.write_buffer()?;
        if self.fsync == FsyncPolicy::PerRecord {
            self.sync_active()?;
        }
        Ok(())
    }

    /// Writes the buffered frames to the active segment.
    fn write_buffer(&mut self) -> io::Result<()> {
        self.active.write_all(&self.buffer)?;
        let written = self.buffer.len() as u64;
        self.buffer.clear();
        self.stats.bytes.fetch_add(written, Ordering::Relaxed);
        self.stats.unsynced.fetch_add(written, Ordering::Relaxed);
        Ok(())
    }

    /// Seals the active segment (written out, and fsynced unless policy is
    /// `Never`), starts a new one named after the next sequence number, and
    /// applies retention.
    fn roll(&mut self) -> io::Result<()> {
        self.write_buffer()?;
        if self.fsync != FsyncPolicy::Never {
            self.sync_active()?;
        }
        let path = segment_path(&self.dir, self.next_seq);
        let mut file = File::create(&path)?;
        file.write_all(SEGMENT_MAGIC)?;
        self.stats
            .bytes
            .fetch_add(SEGMENT_MAGIC.len() as u64, Ordering::Relaxed);
        self.segments.push(path);
        self.active = file;
        self.active_len = SEGMENT_MAGIC.len() as u64;
        if self.retain_segments > 0 {
            let floor = self.retention_floor();
            while self.segments.len() > self.retain_segments {
                // The victim's frames span [first_seq(victim),
                // first_seq(successor) − 1]; deleting it is safe only when
                // every registered reader is already past that range.
                if let Some(need) = floor {
                    match segment_first_seq(&self.segments[1]) {
                        Some(successor_first) if successor_first <= need => {}
                        _ => break,
                    }
                }
                let victim = self.segments.remove(0);
                let dropped = fs::metadata(&victim).map(|m| m.len()).unwrap_or(0);
                if fs::remove_file(&victim).is_ok() {
                    self.stats.bytes.fetch_sub(dropped, Ordering::Relaxed);
                }
            }
        }
        self.stats
            .segments
            .store(self.segments.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// The lowest sequence number any registered reader still needs:
    /// in-process pins ([`Journal::pin_from`]) and durable cursor
    /// checkpoints (`cursor-*.ckpt` files written by
    /// [`crate::JournalCursor`]). `None` means no reader is registered and
    /// retention may prune freely.
    fn retention_floor(&self) -> Option<u64> {
        let mut floor: Option<u64> = None;
        let mut fold = |seq: u64| floor = Some(floor.map_or(seq, |f: u64| f.min(seq)));
        if let Ok(pins) = self.pins.lock() {
            for &seq in pins.values() {
                fold(seq);
            }
        }
        for seq in checkpoint_positions(&self.dir) {
            fold(seq);
        }
        floor
    }

    /// Fsyncs the active segment, updating telemetry.
    fn sync_active(&mut self) -> io::Result<()> {
        let started = Instant::now();
        if let Some(hook) = &self.sync_hook {
            hook.enter()?;
        }
        self.active.sync_data()?;
        self.stats.fsync_ns.record_duration(started.elapsed());
        self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.stats.unsynced.store(0, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    static SCRATCH: AtomicUsize = AtomicUsize::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let n = SCRATCH.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("pfr_journal_unit_{}_{tag}_{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn score(model: &str, features: &[f64]) -> Record {
        Record::Score {
            model: model.into(),
            features: features.to_vec(),
        }
    }

    fn collect(dir: &Path) -> Vec<(u64, Record)> {
        let mut out = Vec::new();
        replay_dir(dir, |seq, record| out.push((seq, record))).expect("replays");
        out
    }

    #[test]
    fn append_reopen_replay_roundtrips() {
        let dir = scratch_dir("roundtrip");
        let config = JournalConfig {
            fsync: FsyncPolicy::Never,
            ..JournalConfig::new(&dir)
        };
        let journal = Journal::open(config.clone()).expect("opens");
        let records = [
            score("a", &[1.0, f64::NAN]),
            Record::Push {
                model: "b".into(),
                bundle_text: "bundle body\n".into(),
            },
            Record::Transform {
                model: "a".into(),
                features: vec![-0.0, 2.5],
            },
            Record::Push {
                model: "c".into(),
                bundle_text: "x".repeat(1000),
            },
        ];
        for (i, record) in records.iter().enumerate() {
            assert_eq!(journal.append(record).expect("appends"), i as u64 + 1);
        }
        assert_eq!(journal.stats().last_seq(), 4);
        journal.close();

        let replayed = collect(&dir);
        assert_eq!(replayed.len(), 4);
        for (i, (seq, record)) in replayed.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1);
            assert!(record.bitwise_eq(&records[i]), "frame {i} differs");
        }

        // Reopen continues the sequence where it left off.
        let journal = Journal::open(config).expect("reopens");
        assert_eq!(journal.append(&score("a", &[9.0])).expect("appends"), 5);
        journal.close();
        assert_eq!(collect(&dir).len(), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_open_and_never_invents_frames() {
        let dir = scratch_dir("torn");
        let config = JournalConfig {
            fsync: FsyncPolicy::Never,
            ..JournalConfig::new(&dir)
        };
        let journal = Journal::open(config.clone()).expect("opens");
        for i in 0..5 {
            journal.append(&score("m", &[i as f64])).expect("appends");
        }
        journal.close();

        // Tear the last frame: chop off its final 3 bytes.
        let segments = list_segments(&dir).expect("lists");
        let last = segments.last().expect("has a segment");
        let len = fs::metadata(last).expect("meta").len();
        let file = OpenOptions::new().write(true).open(last).expect("opens");
        file.set_len(len - 3).expect("truncates");
        drop(file);

        // Read-only replay stops at the torn frame and reports the skip.
        let mut seen = 0;
        let summary = replay_dir(&dir, |_, _| seen += 1).expect("replays");
        assert_eq!(seen, 4);
        assert_eq!(summary.frames, 4);
        assert!(summary.truncated_bytes > 0);

        // Open truncates the tear and appends cleanly after frame 4.
        let journal = Journal::open(config).expect("recovers");
        assert_eq!(journal.stats().last_seq(), 4);
        assert_eq!(journal.append(&score("m", &[9.0])).expect("appends"), 5);
        journal.close();
        let replayed = collect(&dir);
        assert_eq!(replayed.len(), 5);
        assert_eq!(replayed.last().unwrap().0, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_before_the_tail_fails_open() {
        let dir = scratch_dir("midrot");
        let config = JournalConfig {
            segment_bytes: 64, // force several segments
            fsync: FsyncPolicy::Never,
            ..JournalConfig::new(&dir)
        };
        let journal = Journal::open(config.clone()).expect("opens");
        for i in 0..20 {
            journal.append(&score("m", &[i as f64])).expect("appends");
        }
        journal.close();
        let segments = list_segments(&dir).expect("lists");
        assert!(segments.len() >= 2, "rotation must have produced segments");

        // Flip a byte in the FIRST segment: not a torn tail, hard error.
        let first = &segments[0];
        let mut buf = fs::read(first).expect("reads");
        let mid = buf.len() / 2;
        buf[mid] ^= 0xff;
        fs::write(first, &buf).expect("writes");
        match Journal::open(config) {
            Err(JournalError::Corrupt { .. }) => {}
            other => panic!("expected corruption error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_rolls_and_retention_prunes_oldest_segments() {
        let dir = scratch_dir("retain");
        let journal = Journal::open(JournalConfig {
            segment_bytes: 128,
            retain_segments: 3,
            fsync: FsyncPolicy::Never,
            ..JournalConfig::new(&dir)
        })
        .expect("opens");
        for i in 0..50 {
            journal
                .append(&score("model", &[i as f64, 0.5, -1.0]))
                .expect("appends");
        }
        let segments_on_disk = list_segments(&dir).expect("lists").len();
        assert_eq!(segments_on_disk, 3, "retention must cap segment count");
        assert_eq!(journal.stats().segments(), 3);
        journal.close();

        // Replay starts mid-stream but stays consecutive and ends at 50.
        let replayed = collect(&dir);
        assert!(replayed.len() < 50);
        assert_eq!(replayed.last().expect("has frames").0, 50);
        for pair in replayed.windows(2) {
            assert_eq!(pair[1].0, pair[0].0 + 1);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_skips_segments_a_pin_still_needs() {
        let dir = scratch_dir("pinned");
        let journal = Journal::open(JournalConfig {
            segment_bytes: 128,
            retain_segments: 2,
            fsync: FsyncPolicy::Never,
            ..JournalConfig::new(&dir)
        })
        .expect("opens");
        let pin = journal.pin_from(1);
        for i in 0..50 {
            journal
                .append(&score("model", &[i as f64, 0.5, -1.0]))
                .expect("appends");
        }
        // Every frame is still replayable: the pin blocked all pruning.
        let replayed = collect(&dir);
        assert_eq!(replayed.len(), 50);
        assert_eq!(replayed[0].0, 1);
        assert!(journal.stats().segments() > 2, "nothing was pruned");

        // Release the pin; the next roll prunes back down to the cap.
        drop(pin);
        for i in 0..30 {
            journal
                .append(&score("model", &[i as f64, 0.5, -1.0]))
                .expect("appends");
        }
        assert_eq!(list_segments(&dir).expect("lists").len(), 2);
        journal.close();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_respects_cursor_checkpoints_across_handles() {
        let dir = scratch_dir("ckpt_pin");
        let config = JournalConfig {
            segment_bytes: 128,
            retain_segments: 2,
            fsync: FsyncPolicy::Never,
            ..JournalConfig::new(&dir)
        };
        // A registered cursor parked at frame 1 — e.g. a refit worker that
        // has not caught up yet — must hold every segment on disk.
        let cursor = crate::JournalCursor::open(&dir, "worker", 1).expect("cursor opens");
        let journal = Journal::open(config.clone()).expect("opens");
        for i in 0..50 {
            journal
                .append(&score("model", &[i as f64, 0.5, -1.0]))
                .expect("appends");
        }
        assert_eq!(collect(&dir).len(), 50, "no frame was pruned");

        // Once the cursor drains and checkpoints at the tail (seq 51),
        // retention may prune segments wholly behind the checkpoint on the
        // next roll — but nothing at or after it.
        let mut cursor = cursor;
        while cursor.next().expect("tails").is_some() {}
        cursor.checkpoint().expect("checkpoints");
        assert_eq!(cursor.checkpointed(), 51);
        for i in 0..30 {
            journal
                .append(&score("model", &[i as f64, 0.5, -1.0]))
                .expect("appends");
        }
        let replayed = collect(&dir);
        let first = replayed.first().expect("frames remain").0;
        assert!(first > 1, "pruning must resume once the cursor advances");
        assert!(
            first <= 51,
            "no frame at or after the checkpoint may be pruned (first={first})"
        );
        assert_eq!(replayed.last().expect("frames remain").0, 80);
        journal.close();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_names_roundtrip_through_first_seq() {
        let dir = PathBuf::from("/tmp/j");
        for seq in [1u64, 42, u64::MAX] {
            assert_eq!(segment_first_seq(&segment_path(&dir, seq)), Some(seq));
        }
        assert_eq!(segment_first_seq(Path::new("/tmp/j/other.txt")), None);
        assert_eq!(segment_first_seq(Path::new("/tmp/j/seg-xyz.wal")), None);
    }

    /// A journal whose fsyncs go through a hook the test keeps a clone of.
    fn hooked(dir: &Path) -> (Journal, SyncHook) {
        let hook = SyncHook::default();
        let journal = Journal::open(JournalConfig {
            sync_hook: Some(hook.clone()),
            ..JournalConfig::new(dir)
        })
        .expect("opens");
        (journal, hook)
    }

    #[test]
    fn concurrent_appends_group_commit_under_per_record_fsync() {
        let dir = scratch_dir("group");
        let (journal, hook) = hooked(&dir);
        let journal = Arc::new(journal);
        // With the fsync held, the writer parks on whatever group it took
        // first and everything else queues behind it.
        hook.hold();
        let (acks_tx, acks) = mpsc::channel();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let journal = Arc::clone(&journal);
                let acks_tx = acks_tx.clone();
                std::thread::spawn(move || {
                    for i in 0..25 {
                        let acks_tx = acks_tx.clone();
                        journal.submit(score("m", &[t as f64, i as f64]).as_ref(), move |ack| {
                            let _ = acks_tx.send(ack);
                        });
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("submitter joins");
        }
        hook.wait_parked();
        assert_eq!(
            journal.stats().appends(),
            0,
            "nothing is acknowledged early"
        );
        assert!(
            acks.try_recv().is_err(),
            "no completion ran before its fsync"
        );
        hook.release();
        // Completions run in sequence order, each exactly once.
        for want in 1..=100 {
            let seq = acks
                .recv_timeout(Duration::from_secs(10))
                .expect("every submit completes")
                .expect("appends");
            assert_eq!(seq, want);
        }
        let stats = journal.stats();
        assert_eq!(stats.appends(), 100);
        assert_eq!(stats.last_seq(), 100);
        // The parked group, then one group for everything queued behind it.
        assert!(
            (1..=2).contains(&stats.fsyncs()),
            "100 appends in flight took {} fsyncs",
            stats.fsyncs()
        );
        assert_eq!(hook.calls(), stats.fsyncs());
        assert_eq!(stats.unsynced(), 0, "per-record policy leaves no lag");
        Arc::try_unwrap(journal).expect("sole owner").close();
        assert_eq!(collect(&dir).len(), 100);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_fsync_fails_its_group_and_every_later_append() {
        let dir = scratch_dir("eio");
        let (journal, hook) = hooked(&dir);
        let durable: Vec<Record> = (0..3).map(|i| score("m", &[i as f64])).collect();
        for record in &durable {
            journal.append(record).expect("appends");
        }
        // Park the writer on a group, queue more behind it, then make the
        // parked fsync come back with EIO.
        hook.hold();
        let (acks_tx, acks) = mpsc::channel();
        for i in 0..4 {
            let acks_tx = acks_tx.clone();
            journal.submit(score("m", &[10.0 + i as f64]).as_ref(), move |ack| {
                let _ = acks_tx.send(ack);
            });
        }
        hook.wait_parked();
        hook.fail_with(5);
        hook.release();
        for _ in 0..4 {
            match acks
                .recv_timeout(Duration::from_secs(10))
                .expect("completes")
            {
                Err(JournalError::Append(reason)) => {
                    assert!(reason.contains("os error 5"), "{reason}")
                }
                other => panic!("expected the OS error, got {other:?}"),
            }
        }
        assert!(journal.stats().failed());
        assert_eq!(
            journal.stats().appends(),
            3,
            "only acknowledged appends count"
        );

        // Sticky: the next append fails with the same error, and neither
        // the file nor the fsync is touched for it.
        let on_disk = |dir: &Path| -> u64 {
            let segments = list_segments(dir).expect("lists");
            segments
                .iter()
                .map(|p| fs::metadata(p).unwrap().len())
                .sum()
        };
        let (bytes, calls) = (on_disk(&dir), hook.calls());
        match journal.append(&score("m", &[99.0])) {
            Err(JournalError::Append(reason)) => assert!(reason.contains("os error 5"), "{reason}"),
            other => panic!("expected the sticky failure, got {other:?}"),
        }
        assert_eq!((on_disk(&dir), hook.calls()), (bytes, calls));
        journal.close();

        // Reopening re-scans: a clean, consecutive prefix that holds every
        // acknowledged frame, and appends resume after it.
        let journal = Journal::open(JournalConfig::new(&dir)).expect("reopens");
        assert!(!journal.stats().failed());
        let replayed = collect(&dir);
        assert!(replayed.len() >= durable.len());
        for (i, (seq, record)) in replayed.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1);
            if let Some(want) = durable.get(i) {
                assert!(record.bitwise_eq(want), "frame {i} differs");
            }
        }
        let next = journal.append(&score("m", &[7.0])).expect("appends again");
        assert_eq!(next, replayed.len() as u64 + 1);
        journal.close();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_submit_completes_across_close_or_reports_closed() {
        let dir = scratch_dir("submit_close");
        let mut journal = Journal::open(JournalConfig {
            fsync: FsyncPolicy::Never,
            ..JournalConfig::new(&dir)
        })
        .expect("opens");
        let (acks_tx, acks) = mpsc::channel();
        let submit = |journal: &Journal, value: f64| {
            let acks_tx = acks_tx.clone();
            journal.submit(score("m", &[value]).as_ref(), move |ack| {
                let _ = acks_tx.send(ack);
            });
        };
        // Queued before the close: the writer drains them before it exits.
        for i in 0..50 {
            submit(&journal, i as f64);
        }
        journal.shutdown();
        for want in 1..=50 {
            assert_eq!(
                acks.try_recv().expect("completed by close").expect("ok"),
                want
            );
        }
        // After it: completed on the spot, with `Closed`.
        submit(&journal, 0.5);
        match acks.try_recv().expect("completed at once") {
            Err(JournalError::Closed) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
        drop(journal);
        assert_eq!(collect(&dir).len(), 50);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_after_close_reports_closed() {
        let dir = scratch_dir("closed");
        let mut journal = Journal::open(JournalConfig {
            fsync: FsyncPolicy::Never,
            ..JournalConfig::new(&dir)
        })
        .expect("opens");
        journal.shutdown();
        match journal.append(&score("m", &[1.0])) {
            Err(JournalError::Closed) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
        drop(journal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_directory_starts_at_sequence_one() {
        let dir = scratch_dir("fresh");
        let journal = Journal::open(JournalConfig {
            fsync: FsyncPolicy::Never,
            ..JournalConfig::new(&dir)
        })
        .expect("opens");
        assert_eq!(journal.stats().last_seq(), 0);
        assert_eq!(journal.stats().segments(), 1);
        assert_eq!(journal.append(&score("m", &[0.0])).expect("appends"), 1);
        journal.close();
        let _ = fs::remove_dir_all(&dir);
    }
}
