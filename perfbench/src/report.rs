//! The metric registry and the result line the benchmark prints last.
//!
//! Every workload reports every metric of the active list (end-to-end with
//! `--trace 0`, per-layer with `--trace 1`). A per-layer metric of a layer
//! the workload never enters reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("pass_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`. Measured by the traced passes.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("platform.generate_ms", "ms"),
    ("availability.realize_ms", "ms"),
    ("availability.queries", "count"),
    ("sim.run_ms", "ms"),
    ("sim.self_ms", "ms"),
    ("sim.consults", "count"),
    ("sim.executed_slots", "count"),
    ("sim.simulated_slots", "count"),
    ("sim.skip_ratio", "ratio"),
    ("heuristics.decide_ms", "ms"),
    ("heuristics.decide_p99_us", "us"),
    ("heuristics.first_decision_ms", "ms"),
    ("heuristics.index_build_ms", "ms"),
    ("heuristics.classes", "count"),
    ("analysis.tables_ms", "ms"),
    ("analysis.group_hits", "count"),
    ("analysis.group_misses", "count"),
    ("analysis.hits_per_consult", "hits/consult"),
    ("analysis.hit_rate", "ratio"),
    ("analysis.accumulators_built", "count"),
    ("analysis.accumulators_per_miss", "acc/miss"),
    ("analysis.series_terms", "count"),
    ("executor.run_ms", "ms"),
    ("store.encode_ms", "ms"),
    ("store.write_ms", "ms"),
    ("store.bytes", "bytes"),
    ("stream.aggregate_ms", "ms"),
    ("tables.render_ms", "ms"),
    ("service.parse_us", "us"),
    ("service.decide_us", "us"),
    ("service.render_us", "us"),
    ("service.cache_hits", "count"),
    ("service.cache_misses", "count"),
    ("service.cold_requests", "count"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer counters that are a pure function of the workload and its seed:
/// two passes of the same build must report them exactly equal.
pub const EXACT_COUNTERS: &[&str] = &[
    "availability.queries",
    "sim.consults",
    "sim.executed_slots",
    "sim.simulated_slots",
    "heuristics.classes",
    "analysis.group_hits",
    "analysis.group_misses",
    "analysis.accumulators_built",
    "analysis.series_terms",
    "store.bytes",
    "service.cache_hits",
    "service.cache_misses",
    "service.cold_requests",
];

/// A set of metric values drawn from one registry list.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    list: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// An empty set over `list` (every metric reads 0 until set).
    pub fn new(list: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics { list, values: BTreeMap::new() }
    }

    /// Set `name` to `value`.
    ///
    /// # Panics
    /// Panics if `name` is not in the registry list — a typo must fail the
    /// benchmark's own test, not silently drop a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.list.iter().any(|(n, _)| *n == name), "unregistered metric {name}");
        self.values.insert(name, value);
    }

    /// The value of `name` (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The exact counters of this set, in registry order.
    pub fn exact_counters(&self) -> Vec<(&'static str, f64)> {
        EXACT_COUNTERS.iter().map(|&name| (name, self.get(name))).collect()
    }

    /// Per-metric medians over several sets of the same list.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn median_of(sets: &[Metrics]) -> Metrics {
        let mut out = Metrics::new(sets[0].list);
        for &(name, _) in sets[0].list {
            let values: Vec<f64> = sets.iter().map(|s| s.get(name)).collect();
            out.set(name, crate::measure::median(&values));
        }
        out
    }

    /// Render as the `metrics` JSON object: every registered metric with its
    /// value and unit.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, &(name, unit)) in self.list.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(self.get(name))
            );
        }
        out.push('}');
        out
    }
}

/// A finite JSON number with every digit of `value` (non-finite values,
/// which no metric should produce, render as 0).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The result object the benchmark prints as its last line.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics.to_json()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_metric_renders_with_its_unit() {
        let mut m = Metrics::new(END_TO_END);
        m.set("pass_s", 0.25);
        let json = m.to_json();
        for (name, unit) in END_TO_END {
            assert!(json.contains(&format!("\"{name}\": {{\"value\": ")), "{json}");
            assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{json}");
        }
        assert!(json.contains("\"pass_s\": {\"value\": 0.25, \"unit\": \"s\"}"), "{json}");
    }

    #[test]
    fn exact_counters_are_registered_per_layer_metrics() {
        for name in EXACT_COUNTERS {
            assert!(PER_LAYER.iter().any(|(n, _)| n == name), "{name}");
        }
    }
}
