//! One metrics exposition for every tier: counters, gauges, and
//! histograms registered once, rendered as Prometheus-style text
//! (`name{label="v"} value`), and — because both ends of the wire share
//! the bucket scheme in [`crate::histo`] — parsed back and merged
//! exactly by an aggregating tier. The same list also renders as one
//! line of `name{label="v"}=value` tokens without the bucket series
//! ([`MetricsRegistry::render_line`], the `STATS` verb).

#[cfg(test)]
use crate::histo::SUB;
use crate::histo::{bucket_high, bucket_index, bucket_low, LatencyHisto, Snapshot, BUCKETS};
use std::collections::BTreeMap;
use std::fmt::{Arguments, Display, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

enum Kind {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<dyn Fn() -> f64 + Send + Sync>),
    Histogram(Arc<LatencyHisto>),
}

struct Entry {
    name: String,
    labels: String,
    kind: Kind,
}

/// A registry of named metrics, rendered on demand. Registration happens
/// at startup; rendering takes the lock, the hot path never does.
#[derive(Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

// Gauges are `Arc<dyn Fn>`, so Debug cannot be derived; tiers that embed
// a registry in their own Debug-derived structs get the entry count.
impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entries = self.entries.lock().expect("registry lock never poisons");
        f.debug_struct("MetricsRegistry")
            .field("entries", &entries.len())
            .finish()
    }
}

/// The two ways one series list is written out.
#[derive(Clone, Copy, PartialEq)]
enum Form {
    /// `METRICS`: `name{labels} value`, one series per line.
    Lines,
    /// `STATS`: `name{labels}=value` tokens separated by single spaces, and
    /// no `_bucket` series — a histogram is its `_sum`, `_count` and
    /// quantiles.
    Tokens,
}

impl Form {
    fn series(self, out: &mut String, key: Arguments<'_>, value: impl Display) {
        let written = match self {
            Form::Lines => writeln!(out, "{key} {value}"),
            Form::Tokens => {
                let gap = if out.is_empty() { "" } else { " " };
                write!(out, "{gap}{key}={value}")
            }
        };
        written.expect("writing to a String cannot fail");
    }
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{{{}}}", body.join(","))
}

/// Splices an extra label into a pre-rendered label set.
fn labels_with(labels: &str, key: &str, value: &str) -> String {
    if labels.is_empty() {
        format!("{{{key}=\"{value}\"}}")
    } else {
        format!("{},{key}=\"{value}\"}}", &labels[..labels.len() - 1])
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn push(&self, name: &str, labels: &[(&str, &str)], kind: Kind) {
        self.entries
            .lock()
            .expect("registry lock never poisons")
            .push(Entry {
                name: name.to_string(),
                labels: render_labels(labels),
                kind,
            });
    }

    /// Registers a monotonically increasing counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)], value: Arc<AtomicU64>) {
        self.push(name, labels, Kind::Counter(value));
    }

    /// Registers a gauge computed at render time.
    pub fn gauge(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        read: Arc<dyn Fn() -> f64 + Send + Sync>,
    ) {
        self.push(name, labels, Kind::Gauge(read));
    }

    /// Registers a live histogram, rendered as cumulative `_bucket` lines
    /// plus `_sum`/`_count` and derived `_p50`/`_p99`/`_p999` gauges.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], histo: Arc<LatencyHisto>) {
        self.push(name, labels, Kind::Histogram(histo));
    }

    /// Renders every registered metric, in registration order, one series
    /// per line — the `METRICS` payload.
    pub fn render(&self) -> String {
        self.render_as(Form::Lines)
    }

    /// The same series in the same order as [`MetricsRegistry::render`],
    /// minus the `_bucket` lines, as `name{labels}=value` tokens on a single
    /// line — the `STATS` payload. A token splits at its last `=`.
    pub fn render_line(&self) -> String {
        self.render_as(Form::Tokens)
    }

    fn render_as(&self, form: Form) -> String {
        let mut out = String::new();
        let entries = self.entries.lock().expect("registry lock never poisons");
        for Entry { name, labels, kind } in entries.iter() {
            match kind {
                Kind::Counter(v) => form.series(
                    &mut out,
                    format_args!("{name}{labels}"),
                    v.load(Ordering::Relaxed),
                ),
                Kind::Gauge(read) => form.series(&mut out, format_args!("{name}{labels}"), read()),
                Kind::Histogram(h) => histogram_series(form, &mut out, name, labels, &h.snapshot()),
            }
        }
        out
    }
}

/// Renders one histogram snapshot into `out` using the shared exposition
/// format ([`Scrape::parse`] is its exact inverse for the bucket data).
pub fn render_histogram(out: &mut String, name: &str, labels: &str, snap: &Snapshot) {
    histogram_series(Form::Lines, out, name, labels, snap);
}

fn histogram_series(form: Form, out: &mut String, name: &str, labels: &str, snap: &Snapshot) {
    if form == Form::Lines {
        let mut cum = 0u64;
        for (i, &c) in snap.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            let le = labels_with(labels, "le", &bucket_high(i).to_string());
            form.series(out, format_args!("{name}_bucket{le}"), cum);
        }
        let inf = labels_with(labels, "le", "+Inf");
        form.series(out, format_args!("{name}_bucket{inf}"), snap.count);
    }
    form.series(out, format_args!("{name}_sum{labels}"), snap.sum);
    form.series(out, format_args!("{name}_count{labels}"), snap.count);
    for (q, v) in [
        ("p50", snap.p50()),
        ("p99", snap.p99()),
        ("p999", snap.p999()),
    ] {
        form.series(out, format_args!("{name}_{q}{labels}"), v);
    }
}

/// A parsed exposition: scalar metrics plus reconstructed histograms,
/// mergeable with other scrapes and re-renderable. This is how a router
/// folds the `METRICS` of N backends into one cluster-wide scrape.
#[derive(Debug, Default, Clone)]
pub struct Scrape {
    /// Scalar metrics (counters and gauges) keyed by `name{labels}`,
    /// in first-seen order preserved via the order vector.
    scalars: BTreeMap<String, f64>,
    /// Reconstructed histogram snapshots keyed by `name{labels}` (with
    /// the `le` label removed).
    histograms: BTreeMap<String, Snapshot>,
    order: Vec<String>,
}

/// Splits `name{labels}` off a metric line, returning
/// `(name, labels-with-braces-or-empty, value)`.
fn split_line(line: &str) -> Option<(String, String, &str)> {
    let (key, value) = line.rsplit_once(' ')?;
    match key.find('{') {
        Some(brace) => Some((key[..brace].to_string(), key[brace..].to_string(), value)),
        None => Some((key.to_string(), String::new(), value)),
    }
}

/// Removes `le="..."` from a rendered label set, returning
/// `(labels_without_le, le_value)`.
fn take_le(labels: &str) -> Option<(String, String)> {
    let inner = labels.strip_prefix('{')?.strip_suffix('}')?;
    let mut kept = Vec::new();
    let mut le = None;
    for part in inner.split(',') {
        match part.strip_prefix("le=\"").and_then(|v| v.strip_suffix('"')) {
            Some(v) => le = Some(v.to_string()),
            None => kept.push(part),
        }
    }
    let le = le?;
    let labels = if kept.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", kept.join(","))
    };
    Some((labels, le))
}

impl Scrape {
    /// Parses exposition text. Histogram `_bucket` lines are folded back
    /// into snapshots (cumulative counts must be in ascending `le` order,
    /// which [`render_histogram`] guarantees); the derived `_p*` and
    /// `_sum`/`_count` lines of a recognized histogram are absorbed
    /// rather than kept as scalars.
    pub fn parse(text: &str) -> Scrape {
        let mut scrape = Scrape::default();
        // Pass 1: which base names are histograms here?
        let mut histo_keys: BTreeMap<String, u64> = BTreeMap::new();
        for line in text.lines() {
            let Some((name, labels, _)) = split_line(line.trim()) else {
                continue;
            };
            if let Some(base) = name.strip_suffix("_bucket") {
                if let Some((bare, _)) = take_le(&labels) {
                    histo_keys.entry(format!("{base}{bare}")).or_insert(0);
                }
            }
        }
        // Pass 2: route every line.
        let mut last_cum: BTreeMap<String, u64> = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((name, labels, value)) = split_line(line) else {
                continue;
            };
            if let Some(base) = name.strip_suffix("_bucket") {
                let Some((bare, le)) = take_le(&labels) else {
                    continue;
                };
                let key = format!("{base}{bare}");
                let snap = scrape
                    .histograms
                    .entry(key.clone())
                    .or_insert_with(Snapshot::empty);
                if !scrape.order.contains(&key) {
                    scrape.order.push(key.clone());
                }
                if le == "+Inf" {
                    continue;
                }
                let (Ok(le), Ok(cum)) = (le.parse::<u64>(), value.parse::<u64>()) else {
                    continue;
                };
                let prev = last_cum.insert(key, cum).unwrap_or(0);
                let idx = bucket_index(le);
                snap.buckets[idx] += cum.saturating_sub(prev);
                continue;
            }
            // Histogram-derived lines: fold into the snapshot, not scalars.
            let derived = ["_sum", "_count", "_p50", "_p99", "_p999"]
                .iter()
                .find_map(|suffix| {
                    name.strip_suffix(suffix)
                        .map(|base| (format!("{base}{labels}"), *suffix))
                });
            if let Some((key, suffix)) = derived {
                if histo_keys.contains_key(&key) {
                    let snap = scrape.histograms.entry(key).or_insert_with(Snapshot::empty);
                    match suffix {
                        "_sum" => snap.sum = value.parse().unwrap_or(0),
                        "_count" => snap.count = value.parse().unwrap_or(0),
                        _ => {}
                    }
                    continue;
                }
            }
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let key = format!("{name}{labels}");
            if !scrape.scalars.contains_key(&key) {
                scrape.order.push(key.clone());
            }
            *scrape.scalars.entry(key).or_insert(0.0) += value;
        }
        // Approximate min/max from the occupied bucket range (the wire
        // does not carry exact extremes).
        for snap in scrape.histograms.values_mut() {
            if let Some(first) = snap.buckets.iter().position(|&c| c > 0) {
                snap.min = bucket_low(first);
            }
            if let Some(last) = snap.buckets.iter().rposition(|&c| c > 0) {
                snap.max = bucket_high(last);
            }
        }
        scrape
    }

    /// Folds `other` into `self`: scalars add, histograms merge
    /// bucket-wise.
    pub fn merge(&mut self, other: &Scrape) {
        for (key, value) in &other.scalars {
            if !self.scalars.contains_key(key) {
                self.order.push(key.clone());
            }
            *self.scalars.entry(key.clone()).or_insert(0.0) += value;
        }
        for (key, snap) in &other.histograms {
            match self.histograms.get_mut(key) {
                Some(mine) => mine.merge(snap),
                None => {
                    self.order.push(key.clone());
                    self.histograms.insert(key.clone(), snap.clone());
                }
            }
        }
    }

    /// The scalar value stored under `name{labels}`, if present.
    pub fn scalar(&self, key: &str) -> Option<f64> {
        self.scalars.get(key).copied()
    }

    /// The reconstructed histogram stored under `name{labels}` (no `le`).
    pub fn histogram(&self, key: &str) -> Option<&Snapshot> {
        self.histograms.get(key)
    }

    /// Re-renders the scrape in first-seen order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for key in &self.order {
            if let Some(value) = self.scalars.get(key) {
                out.push_str(&format!("{key} {value}\n"));
            } else if let Some(snap) = self.histograms.get(key) {
                let (name, labels) = match key.find('{') {
                    Some(brace) => (&key[..brace], &key[brace..]),
                    None => (key.as_str(), ""),
                };
                render_histogram(&mut out, name, labels, snap);
            }
        }
        out
    }
}

/// Asserts the invariant the parser relies on.
const _: () = assert!(BUCKETS > 0);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_histograms_render_in_order() {
        let reg = MetricsRegistry::new();
        let c = Arc::new(AtomicU64::new(7));
        reg.counter("pfr_requests_total", &[("verb", "score")], Arc::clone(&c));
        reg.gauge("pfr_inflight", &[], Arc::new(|| 2.5));
        let h = Arc::new(LatencyHisto::new());
        h.record(100);
        h.record(200);
        reg.histogram("pfr_latency_ns", &[("verb", "score")], h);
        let text = reg.render();
        assert!(text.contains("pfr_requests_total{verb=\"score\"} 7\n"));
        assert!(text.contains("pfr_inflight 2.5\n"));
        assert!(text.contains("pfr_latency_ns_bucket{verb=\"score\",le=\""));
        assert!(text.contains("pfr_latency_ns_count{verb=\"score\"} 2\n"));
        assert!(text.contains("pfr_latency_ns_sum{verb=\"score\"} 300\n"));
        assert!(text.contains("pfr_latency_ns_p99{verb=\"score\"}"));
        // The line form is the same list: every non-bucket line, its last
        // space turned into `=`.
        let tokens: Vec<String> = text
            .lines()
            .filter(|line| !line.contains("_bucket{"))
            .map(|line| {
                let (key, value) = line.rsplit_once(' ').unwrap();
                format!("{key}={value}")
            })
            .collect();
        assert_eq!(reg.render_line(), tokens.join(" "));
        assert_eq!(tokens.len(), 2 + 5);
    }

    #[test]
    fn scrape_round_trips_histogram_buckets_exactly() {
        let h = LatencyHisto::new();
        for v in [1u64, 50, 50, 999, 123_456, 9_999_999] {
            h.record(v);
        }
        let snap = h.snapshot();
        let mut text = String::new();
        render_histogram(&mut text, "lat_ns", "{verb=\"score\"}", &snap);
        let scrape = Scrape::parse(&text);
        let parsed = scrape.histogram("lat_ns{verb=\"score\"}").unwrap();
        assert_eq!(parsed.buckets, snap.buckets);
        assert_eq!(parsed.count, snap.count);
        assert_eq!(parsed.sum, snap.sum);
        // The wire does not carry the exact max, so a parsed quantile may
        // report the bucket bound instead of the clamped true max — still
        // within the histogram's relative error bound.
        assert!(parsed.p99() >= snap.p99());
        assert!(parsed.p99() as f64 <= snap.p99() as f64 * (1.0 + 1.0 / SUB as f64));
    }

    #[test]
    fn merging_scrapes_sums_scalars_and_buckets() {
        let a = Scrape::parse("reqs_total 3\nlat_ns_bucket{le=\"7\"} 2\nlat_ns_bucket{le=\"+Inf\"} 2\nlat_ns_sum 14\nlat_ns_count 2\n");
        let b = Scrape::parse("reqs_total 4\nlat_ns_bucket{le=\"7\"} 1\nlat_ns_bucket{le=\"+Inf\"} 1\nlat_ns_sum 7\nlat_ns_count 1\n");
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.scalar("reqs_total"), Some(7.0));
        let h = merged.histogram("lat_ns").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 21);
        assert_eq!(h.buckets[bucket_index(7)], 3);
        let rendered = merged.render();
        assert!(rendered.contains("reqs_total 7\n"));
        assert!(rendered.contains("lat_ns_count 3\n"));
    }

    #[test]
    fn derived_quantile_lines_are_recomputed_not_double_counted() {
        let h = LatencyHisto::new();
        h.record(1_000);
        let mut text = String::new();
        render_histogram(&mut text, "lat_ns", "", &h.snapshot());
        let scrape = Scrape::parse(&text);
        // _p50 et al. were absorbed into the histogram, not kept as scalars.
        assert!(scrape.scalar("lat_ns_p50").is_none());
        assert!(scrape.render().contains("lat_ns_p50"));
    }
}
