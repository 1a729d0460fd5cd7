//! The metric catalogue (mirrored by `BENCHMARK.json`) and the result a
//! workload hands back to be printed.

use std::collections::BTreeMap;

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// Reported by every workload on untraced runs (`--trace 0`).
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", "lower"),
    def("run_s", "s", "lower"),
    def("rows_per_s", "1/s", "higher"),
    def("op_p50_ms", "ms", "lower"),
    def("op_p90_ms", "ms", "lower"),
    def("peak_rss_mb", "MB", "lower"),
];

/// Reported on traced runs (`--trace 1`); a metric of a layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: &[Def] = &[
    // Workload-specific end-to-end results (not every workload has them).
    def("jobs_per_s", "1/s", "higher"),
    def("fail_ratio", "ratio", "lower"),
    def("detect_f1", "ratio", "higher"),
    def("repair_accuracy", "ratio", "higher"),
    def("model_score", "ratio", "higher"),
    def("op_samples", "count", "higher"),
    def("op_tail_pct", "%", "higher"),
    // Self time per layer as a share of the traced pass.
    def("share.table_pct", "%", "lower"),
    def("share.profile_pct", "%", "lower"),
    def("share.fd_pct", "%", "lower"),
    def("share.detect_pct", "%", "lower"),
    def("share.repair_pct", "%", "lower"),
    def("share.ml_pct", "%", "lower"),
    def("share.optimize_pct", "%", "lower"),
    def("share.core_pct", "%", "lower"),
    def("share.rest_pct", "%", "lower"),
    def("trace.coverage_pct", "%", "higher"),
    def("trace.overhead_pct", "%", "lower"),
    // table
    def("table.ingest_ms", "ms", "lower"),
    def("table.ingest_mb_per_s", "MB/s", "higher"),
    // profile
    def("profile.build_ms", "ms", "lower"),
    def("profile.cold_ms", "ms", "lower"),
    def("profile.edit_ms", "ms", "lower"),
    def("profile.numeric_stats_ms", "ms", "lower"),
    def("profile.categorical_stats_ms", "ms", "lower"),
    def("profile.histogram_ms", "ms", "lower"),
    def("profile.pearson_ms", "ms", "lower"),
    def("profile.spearman_ms", "ms", "lower"),
    def("profile.cramers_v_ms", "ms", "lower"),
    def("profile.alerts_ms", "ms", "lower"),
    def("profile.cache_hit_ratio", "ratio", "higher"),
    def("profile.cache_misses", "count", "lower"),
    def("profile.chunk_misses", "count", "lower"),
    // fd
    def("fd.tane_ms", "ms", "lower"),
    def("fd.rules", "count", "higher"),
    // detect
    def("detect.sd_ms", "ms", "lower"),
    def("detect.iqr_ms", "ms", "lower"),
    def("detect.mv_detector_ms", "ms", "lower"),
    def("detect.fahes_ms", "ms", "lower"),
    def("detect.nadeef_ms", "ms", "lower"),
    def("detect.katara_ms", "ms", "lower"),
    def("detect.isolation_forest_ms", "ms", "lower"),
    def("detect.holoclean_ms", "ms", "lower"),
    def("detect.raha_ms", "ms", "lower"),
    def("detect.min_k_ms", "ms", "lower"),
    def("detect.consolidate_ms", "ms", "lower"),
    def("detect.flagged_cells", "count", "higher"),
    // repair
    def("repair.ml_imputer_ms", "ms", "lower"),
    def("repair.standard_imputer_ms", "ms", "lower"),
    def("repair.holoclean_repairer_ms", "ms", "lower"),
    def("repair.cells", "count", "higher"),
    // ml, optimize
    def("ml.train_score_ms", "ms", "lower"),
    def("optimize.trials", "count", "higher"),
    def("optimize.distinct_ratio", "ratio", "lower"),
    def("optimize.sampler_ms", "ms", "lower"),
    // core (controller self time)
    def("core.quality_ms", "ms", "lower"),
    def("core.datasheet_ms", "ms", "lower"),
    def("core.persist_ms", "ms", "lower"),
    // rest / jobs / health, seen from the client side
    def("rest.submit_p50_ms", "ms", "lower"),
    def("rest.submit_p90_ms", "ms", "lower"),
    def("rest.status_p50_ms", "ms", "lower"),
    def("rest.result_p50_ms", "ms", "lower"),
    def("rest.result_bytes", "bytes", "lower"),
    def("rest.refused", "count", "lower"),
    def("health.probe_p50_ms", "ms", "lower"),
    def("sse.events_per_job", "count", "lower"),
    def("jobs.run_p50_ms", "ms", "lower"),
    def("jobs.overhead_p50_ms", "ms", "lower"),
    def("jobs.queue_wait_p50_ms", "ms", "lower"),
];

/// End-to-end results that only some workloads have. Every run prints
/// the ones it measured; traced runs also carry them as metrics.
pub const WORKLOAD_RESULTS: &[&str] = &[
    "jobs_per_s",
    "fail_ratio",
    "detect_f1",
    "repair_accuracy",
    "model_score",
];

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub values: BTreeMap<String, f64>,
    /// Operations and checks attempted / failed.
    pub attempted: usize,
    pub failed: usize,
    /// Human-readable report lines, printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "unknown metric {name}"
        );
        self.values.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Record a correctness check; a failing one is reported and counted.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.note(format!(
            "check {:<58} {}",
            what,
            if ok { "ok" } else { "FAILED" }
        ));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The final result line: exactly the end-to-end metrics on an
    /// untraced run, exactly the per-layer metrics on a traced run.
    pub fn result_json(&self, traced: bool) -> Result<String, String> {
        let defs = if traced { PER_LAYER } else { END_TO_END };
        let mut parts = Vec::with_capacity(defs.len());
        for d in defs {
            let value = match (self.values.get(d.name), traced) {
                (Some(&v), _) => v,
                (None, true) => 0.0,
                (None, false) => return Err(format!("metric {} was not measured", d.name)),
            };
            parts.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(value),
                d.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        ))
    }
}

/// JSON has no infinities: a latency that is a miss (every sample at or
/// beyond it failed) prints as the largest finite double.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v > 0.0 {
        format!("{:e}", f64::MAX)
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalogue() -> Vec<(String, String, String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let mut out = Vec::new();
        for section in ["end_to_end", "per_layer"] {
            for m in doc[section].as_array().expect("metric list") {
                out.push((
                    section.to_string(),
                    m["name"].as_str().unwrap().to_string(),
                    m["unit"].as_str().unwrap().to_string(),
                    m["better"].as_str().unwrap().to_string(),
                ));
            }
        }
        out
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|d| ("end_to_end", d))
            .chain(PER_LAYER.iter().map(|d| ("per_layer", d)))
            .map(|(s, d)| {
                (
                    s.to_string(),
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.to_string(),
                )
            })
            .collect();
        assert_eq!(catalogue(), ours);
    }

    #[test]
    fn result_line_has_exactly_the_mode_metrics() {
        let mut o = Outcome::default();
        for d in END_TO_END {
            o.set(d.name, 1.5);
        }
        o.check("something", true);
        let line = o.result_json(false).unwrap();
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["correct"], serde_json::Value::Bool(true));
        assert_eq!(v["metrics"].as_object().unwrap().len(), END_TO_END.len());
        assert_eq!(v["metrics"]["run_s"]["unit"], "s");
        let traced: serde_json::Value =
            serde_json::from_str(&o.result_json(true).unwrap()).unwrap();
        assert_eq!(
            traced["metrics"].as_object().unwrap().len(),
            PER_LAYER.len()
        );
        assert_eq!(traced["metrics"]["fd.tane_ms"]["value"].as_f64(), Some(0.0));
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error_and_failures_are_incorrect() {
        let mut o = Outcome::default();
        assert!(o.result_json(false).is_err());
        o.check("a", false);
        assert!(!o.correct());
        o.set("op_p90_ms", f64::INFINITY);
        assert!(json_number(f64::INFINITY)
            .parse::<f64>()
            .unwrap()
            .is_finite());
    }
}
