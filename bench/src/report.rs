//! The metric tables (names and units, in `BENCHMARK.json` order) and the
//! result a run prints: every end-to-end metric of an untraced run, every
//! per-layer metric of a traced one.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}
use Better::{Higher, Lower};

pub type Metric = (&'static str, &'static str, Better);

/// End-to-end metrics: `(name, unit, better)`. Every workload reports every
/// one.
pub const END_TO_END: &[Metric] = &[
    ("setup_s", "s", Lower),
    ("capacity_rps", "1/s", Higher),
    ("latency_us", "us", Lower),
    ("fit_wide_s", "s", Lower),
    ("peak_heap_mb", "MiB", Lower),
];

/// Per-layer metrics: `(name, unit, better)`. A traced run reports every
/// one; a layer the workload does not exercise reports 0.
pub const PER_LAYER: &[Metric] = &[
    // Workload-specific end-to-end figures (see README: not gated by the
    // driver because not every workload has them).
    ("e2e.p50_us", "us", Lower),
    ("e2e.p90_us", "us", Lower),
    ("e2e.push_p50_ms", "ms", Lower),
    ("e2e.recover_frames_per_s", "1/s", Higher),
    ("e2e.fit_tall_s", "s", Lower),
    ("e2e.refit_warm_s", "s", Lower),
    ("e2e.paper_suite_s", "s", Lower),
    ("e2e.fail_share", "ratio", Lower),
    // Router.
    ("router.submit_ns", "ns", Lower),
    ("router.resolve_ns", "ns", Lower),
    ("router.ring_lookup_ns", "ns", Lower),
    ("router.hop_us", "us", Lower),
    ("router.serial_p50_us", "us", Lower),
    ("router.hot_hit_rate", "ratio", Higher),
    ("router.hot_hit_ns", "ns", Lower),
    ("router.coalesced", "count", Higher),
    ("router.failovers", "count", Lower),
    ("router.retried_rows", "count", Lower),
    // Serve.
    ("serve.direct_p50_us", "us", Lower),
    ("serve.handler_p50_us", "us", Lower),
    ("serve.batcher_wait_us", "us", Lower),
    ("serve.parse_ns", "ns", Lower),
    ("serve.format_ns", "ns", Lower),
    ("serve.score_one_ns", "ns", Lower),
    ("serve.score_batch64_ns_per_row", "ns", Lower),
    ("serve.mean_batch", "count", Higher),
    ("serve.max_batch", "count", Higher),
    ("serve.cache_hit_rate", "ratio", Higher),
    ("serve.cache_get_ns", "ns", Lower),
    ("serve.cache_insert_ns", "ns", Lower),
    ("serve.push_install_ms", "ms", Lower),
    ("serve.sheds", "count", Lower),
    ("serve.stage.resolve_us", "us", Lower),
    ("serve.stage.journal-append_us", "us", Lower),
    ("serve.stage.cache-miss_us", "us", Lower),
    ("serve.stage.batch-scored_us", "us", Lower),
    ("serve.stage.cache-insert_us", "us", Lower),
    ("serve.stage.backend-reply_us", "us", Lower),
    // Net.
    ("net.line_frame_ns", "ns", Lower),
    ("net.payload_frame_us", "us", Lower),
    // Journal.
    ("journal.append_us", "us", Lower),
    ("journal.append_nosync_us", "us", Lower),
    ("journal.fsync_p50_us", "us", Lower),
    ("journal.fsync_p99_us", "us", Lower),
    ("journal.appends_per_fsync", "ratio", Higher),
    ("journal.bytes_per_append", "B", Lower),
    ("journal.replay_frames_per_s", "1/s", Higher),
    // Control.
    ("control.sync_round_ms", "ms", Lower),
    ("control.catalog_codec_us", "us", Lower),
    ("control.bootstrap_ms", "ms", Lower),
    // Offline fit path.
    ("core.bundle_codec_us", "us", Lower),
    ("graph.knn_tall_s", "s", Lower),
    ("graph.knn_wide_s", "s", Lower),
    ("graph.fairness_s", "s", Lower),
    ("linalg.standardize_s", "s", Lower),
    ("core.pfr_fit_tall_s", "s", Lower),
    ("core.pfr_fit_wide_s", "s", Lower),
    ("core.transform_s", "s", Lower),
    ("opt.logistic_fit_s", "s", Lower),
    ("fit.explained_share", "ratio", Higher),
    ("linalg.eigen_sym_128_ms", "ms", Lower),
    ("linalg.gemm_256_gflops", "GFLOP/s", Higher),
    ("linalg.subspace_warm_128_ms", "ms", Lower),
    ("refit.drift_check_us", "us", Lower),
    ("refit.gate_us", "us", Lower),
    ("refit.cold_over_warm_x", "ratio", Higher),
    ("eval.artifact_s.table1", "s", Lower),
    ("eval.artifact_s.figure1", "s", Lower),
    ("eval.artifact_s.figure2", "s", Lower),
    ("eval.artifact_s.figure3", "s", Lower),
    ("eval.artifact_s.figure4", "s", Lower),
    ("eval.artifact_s.figure5", "s", Lower),
    ("eval.artifact_s.figure6", "s", Lower),
    ("eval.artifact_s.figure7", "s", Lower),
    ("eval.artifact_s.figure8", "s", Lower),
    ("eval.artifact_s.figure9", "s", Lower),
    ("eval.artifact_s.figure10", "s", Lower),
    ("eval.artifact_s.ablation-sparsity", "s", Lower),
    ("eval.artifact_s.ablation-kernel", "s", Lower),
    ("eval.artifact_s.ablation-quantiles", "s", Lower),
    // Observability and the cost of observing.
    ("obs.histo_record_ns", "ns", Lower),
    ("obs.scrape_ms", "ms", Lower),
    ("obs.trace_overhead_pct", "%", Lower),
    // Diagnostics: reported, never gated.
    ("diag.p99_us", "us", Lower),
    ("diag.p999_us", "us", Lower),
    ("diag.sched_lag_p99_us", "us", Lower),
    ("diag.invalid_windows", "count", Lower),
    ("diag.capacity_spread", "ratio", Lower),
    ("diag.knee_rps", "1/s", Higher),
    ("diag.peak_rss_mb", "MiB", Lower),
    ("alloc.per_op", "count", Lower),
    ("budget.cold_explained_share", "ratio", Higher),
    ("budget.direct_explained_share", "ratio", Higher),
    ("budget.submit_span_us", "us", Lower),
    ("budget.wait_span_us", "us", Lower),
];

/// Names are letters, digits, `_`, `.` and `-`, start with a letter or a
/// digit, and run to at most 64 characters.
pub fn name_is_valid(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What one run found.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that are not per-operation (report figures, replay).
    pub incorrect: Vec<String>,
}

impl Report {
    /// Records `value` under a name from one of the tables.
    pub fn set(&mut self, name: &str, value: f64) {
        let known = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(known, ..)| *known == name)
            .unwrap_or_else(|| panic!("metric {name} is in neither table"));
        self.values.insert(known.0, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// A human-readable line printed before the result.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.incorrect.is_empty()
    }

    /// Prints the notes, every recorded metric by name with its unit, and
    /// as the last line the result object for `table`. A traced run reports
    /// 0 for layers it did not exercise; an end-to-end metric that is
    /// missing, zero or not finite is an error.
    pub fn print(&self, traced: bool) -> Result<(), String> {
        for note in &self.notes {
            println!("# {note}");
        }
        for problem in &self.incorrect {
            println!("# INCORRECT: {problem}");
        }
        for (name, unit, _) in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(value) = self.values.get(name) {
                println!("{name}\t{value}\t{unit}");
            }
        }
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(table.len());
        for (name, unit, _) in table {
            if !name_is_valid(name) {
                return Err(format!("metric name {name} is invalid"));
            }
            let value = match self.values.get(name) {
                Some(&v) if v.is_finite() && (traced || v != 0.0) => v,
                None if traced => 0.0,
                other => return Err(format!("metric {name} is unusable: {other:?}")),
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for (name, unit, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_is_valid(name), "{name}");
            assert!(seen.insert(name), "{name} appears twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit of {name}"
            );
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(!name_is_valid("bad name"));
        assert!(!name_is_valid(".leading"));
        assert!(!name_is_valid(""));
    }

    /// `BENCHMARK.json` must list exactly the tables above, in order.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let section = |key: &str| {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let rest = &text[start..];
            &rest[..rest.find(']').expect("section closes")]
        };
        let names = |section: &str| -> Vec<String> {
            section
                .split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("name value").to_string())
                .collect()
        };
        let table = |t: &[Metric]| t.iter().map(|(n, ..)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(names(section("end_to_end")), table(END_TO_END));
        assert_eq!(names(section("per_layer")), table(PER_LAYER));
        assert_eq!(
            names(section("workloads")),
            ["cold_volatile", "cold_durable", "zipf_swap", "fit_refit"]
        );
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            let better = format!("{better:?}").to_lowercase();
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
