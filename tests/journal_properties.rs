//! Property tests for the `pfr-journal` write-ahead log: arbitrary record
//! batches must survive write → close → reopen → replay bitwise intact
//! (across segment rotations and append-after-reopen), and a torn final
//! frame — the file cut at *any* byte offset inside the last record, the
//! shape a crash mid-`write` leaves behind — must recover every prior
//! frame exactly, inventing nothing.

use pfr::journal::{replay_dir, FsyncPolicy, Journal, JournalConfig, Record};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A scratch journal directory unique to this process *and* call site, so
/// concurrently running property cases never share state.
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "pfr_journal_props_{tag}_{}_{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(dir: PathBuf, segment_bytes: u64) -> JournalConfig {
    let mut config = JournalConfig::new(dir);
    config.segment_bytes = segment_bytes;
    config.fsync = FsyncPolicy::Never; // durability is not under test here
    config
}

/// Maps a generated `(kind, values)` tuple onto a concrete [`Record`]. The
/// text-bearing kind reuses the float payload as text so the generator
/// stays a single simple strategy.
fn record_from(kind: u8, values: Vec<f64>) -> Record {
    let model = format!("m{}", values.len());
    match kind {
        0 => Record::Score {
            model,
            features: values,
        },
        1 => Record::Transform {
            model,
            features: values,
        },
        _ => Record::Push {
            model,
            bundle_text: format!("pushed {values:?}"),
        },
    }
}

fn batch_strategy() -> impl Strategy<Value = Vec<Record>> {
    proptest::collection::vec(
        (0u8..3, proptest::collection::vec(-1e12..1e12_f64, 0..6)),
        1..40,
    )
    .prop_map(|tuples| {
        tuples
            .into_iter()
            .map(|(kind, values)| record_from(kind, values))
            .collect()
    })
}

/// Appends every record, closes cleanly, and returns the journal directory.
fn write_batch(dir: PathBuf, segment_bytes: u64, records: &[Record]) -> PathBuf {
    let journal = Journal::open(config(dir.clone(), segment_bytes)).unwrap();
    for (i, record) in records.iter().enumerate() {
        let seq = journal.append(record).unwrap();
        assert_eq!(seq, i as u64 + 1, "sequence numbers are consecutive from 1");
    }
    journal.close();
    dir
}

/// Replays a directory into `(seq, record)` pairs.
fn replay_all(dir: &std::path::Path) -> (Vec<(u64, Record)>, pfr::journal::ReplaySummary) {
    let mut replayed = Vec::new();
    let summary = replay_dir(dir, |seq, record| replayed.push((seq, record))).unwrap();
    (replayed, summary)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any batch written through the journal replays bitwise intact, in
    /// order, with consecutive sequence numbers — whether it fits one
    /// segment or is forced across many by a tiny segment budget.
    #[test]
    fn batches_round_trip_bitwise_across_rotation(
        records in batch_strategy(),
        tiny_segments in 0u8..=1,
    ) {
        let segment_bytes = if tiny_segments == 0 { 128 } else { 8 << 20 };
        let dir = write_batch(scratch_dir("roundtrip"), segment_bytes, &records);
        let (replayed, summary) = replay_all(&dir);
        prop_assert_eq!(replayed.len(), records.len());
        prop_assert_eq!(summary.frames, records.len() as u64);
        prop_assert_eq!(summary.last_seq, records.len() as u64);
        prop_assert_eq!(summary.truncated_bytes, 0);
        if segment_bytes == 128 && records.len() > 4 {
            prop_assert!(summary.segments > 1, "tiny segments must force rotation");
        }
        for (i, (seq, replayed_record)) in replayed.iter().enumerate() {
            prop_assert_eq!(*seq, i as u64 + 1);
            prop_assert!(
                replayed_record.bitwise_eq(&records[i]),
                "record {} changed across the round trip", i
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Close → reopen → append continues the same history: old and new
    /// records replay as one stream with unbroken sequence numbers.
    #[test]
    fn reopen_appends_continue_the_sequence(
        first in batch_strategy(),
        second in batch_strategy(),
    ) {
        let dir = write_batch(scratch_dir("reopen"), 512, &first);
        let journal = Journal::open(config(dir.clone(), 512)).unwrap();
        for (i, record) in second.iter().enumerate() {
            let seq = journal.append(record).unwrap();
            prop_assert_eq!(seq, (first.len() + i) as u64 + 1);
        }
        journal.close();
        let (replayed, _) = replay_all(&dir);
        let all: Vec<&Record> = first.iter().chain(second.iter()).collect();
        prop_assert_eq!(replayed.len(), all.len());
        for (i, (seq, replayed_record)) in replayed.iter().enumerate() {
            prop_assert_eq!(*seq, i as u64 + 1);
            prop_assert!(replayed_record.bitwise_eq(all[i]));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A crash mid-write leaves the last frame cut at an arbitrary byte.
    /// Truncating the final segment at EVERY offset inside the last frame
    /// must (a) replay exactly the prior records, bitwise intact, and
    /// (b) leave a journal that reopens and accepts the next append at the
    /// sequence number the lost record held.
    #[test]
    fn torn_final_frame_recovers_every_prior_frame(records in batch_strategy()) {
        // Single big segment so "the last frame" lives in a known file.
        let dir = scratch_dir("torn");
        let journal = Journal::open(config(dir.clone(), 8 << 20)).unwrap();
        let (last, prior) = records.split_last().unwrap();
        for record in prior {
            journal.append(record).unwrap();
        }
        let segment = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "wal"))
            .unwrap();
        // Writer acks only after the OS write, so the file length observed
        // between appends brackets the final frame exactly.
        let len_before = std::fs::metadata(&segment).unwrap().len();
        journal.append(last).unwrap();
        journal.close();
        let full = std::fs::read(&segment).unwrap();
        prop_assert!(full.len() as u64 > len_before);

        let scratch = scratch_dir("torn_cut");
        let copy = scratch.join(segment.file_name().unwrap());
        for cut in len_before..full.len() as u64 {
            std::fs::write(&copy, &full[..cut as usize]).unwrap();
            let (replayed, summary) = replay_all(&scratch);
            prop_assert_eq!(
                replayed.len(),
                prior.len(),
                "cut at {} must keep exactly the prior records", cut
            );
            prop_assert_eq!(summary.truncated_bytes, cut - len_before);
            for (i, (_, replayed_record)) in replayed.iter().enumerate() {
                prop_assert!(replayed_record.bitwise_eq(&prior[i]));
            }
        }

        // Reopening the torn journal truncates the tail and hands out the
        // torn record's sequence number to the next append.
        std::fs::write(&copy, &full[..len_before as usize + 1]).unwrap();
        let reopened = Journal::open(config(scratch.clone(), 8 << 20)).unwrap();
        let seq = reopened.append(last).unwrap();
        prop_assert_eq!(seq, records.len() as u64);
        reopened.close();
        let (replayed, _) = replay_all(&scratch);
        prop_assert_eq!(replayed.len(), records.len());
        prop_assert!(replayed.last().unwrap().1.bitwise_eq(last));

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&scratch);
    }
}

/// Non-finite and signed-zero floats survive the journal bit-for-bit —
/// the frame body stores raw IEEE-754 bits, not a decimal rendering.
#[test]
fn non_finite_features_round_trip_bitwise() {
    let dir = scratch_dir("nonfinite");
    let record = Record::Score {
        model: "edge".to_string(),
        features: vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(0x7ff0_dead_beef_0001), // a signalling-ish NaN payload
        ],
    };
    let dir = write_batch(dir, 8 << 20, std::slice::from_ref(&record));
    let (replayed, _) = replay_all(&dir);
    assert_eq!(replayed.len(), 1);
    assert!(replayed[0].1.bitwise_eq(&record));
    let _ = std::fs::remove_dir_all(&dir);
}
