//! The harness's own arithmetic: nearest-rank percentiles, medians of
//! windows, relative spread, probe timing, and the `VmHWM` parse behind
//! `diag.peak_rss_mb`.

use std::time::Instant;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `q` of the samples at or below it. Never interpolates, so
/// the result is always a value that was observed.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` and returns its nearest-rank percentile.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    percentile_sorted(samples, q)
}

/// Nearest-rank median (the lower middle for an even count).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&mut samples.to_vec(), 0.5)
}

/// Minimum of `samples`: the estimate of a deterministic computation's time
/// when every disturbance on the box can only add to it.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank decile of `samples` on their good side (`q` = 0.9 for a
/// rate, 0.1 for a latency). A disturbance on the box only ever makes a
/// window worse, so the good-side decile sits in the undisturbed windows as
/// long as a tenth of them were; a change to the code moves every window,
/// those included. Across quiet and noisy phases of this box the decile of
/// 18 windows held within ±8 % where their median moved by ±15 %.
pub fn good_side(samples: &[f64], q: f64) -> f64 {
    percentile(&mut samples.to_vec(), q)
}

/// `(max − min) / median`: the window-to-window spread printed beside every
/// median-of-windows figure.
pub fn spread(samples: &[f64]) -> f64 {
    let (lo, hi) = samples
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let mid = median(samples);
    if mid == 0.0 {
        0.0
    } else {
        (hi - lo) / mid
    }
}

/// Median nanoseconds per call of `f` over `batches` batches of `per_batch`.
pub fn per_call_ns(batches: usize, per_batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|batch| {
            let start = Instant::now();
            for i in 0..per_batch {
                f(batch * per_batch + i);
            }
            start.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&samples)
}

/// Median nanoseconds of `reps` single calls of `f`.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    per_call_ns(reps, 1, |_| f())
}

/// Extracts `VmHWM` (peak resident set, KiB) from `/proc/self/status` text.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(value)
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kib(&status).map_or(0.0, |kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_returns_observed_values() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 0.5), 5.0);
        assert_eq!(percentile_sorted(&sorted, 0.9), 9.0);
        assert_eq!(percentile_sorted(&sorted, 0.91), 10.0);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 10.0);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn percentile_sorts_its_input() {
        let mut v = vec![9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(percentile(&mut v, 0.5), 5.0);
        assert_eq!(v, vec![1.0, 3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn median_of_windows_ignores_one_bad_window() {
        // Four steady windows and one disturbed by a neighbour on the box.
        let windows = [20_100.0, 19_900.0, 7_000.0, 20_000.0, 20_300.0];
        assert_eq!(median(&windows), 20_000.0);
        assert!((spread(&windows) - (20_300.0 - 7_000.0) / 20_000.0).abs() < 1e-12);
        // Even count: the lower middle, still an observed window.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kib("Name:\tbench\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
        assert!(peak_rss_mb() > 0.0, "this process has a resident set");
    }
}
