//! Every metric the benchmark prints, by name, with its unit and — for the
//! end-to-end ones — the bound by which it may worsen before a change
//! counts as a regression. `BENCHMARK.json` at the repository root lists
//! the same names; a test keeps the two in step.

use crate::gen::Workload;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// Share of the parent's median; end-to-end metrics only.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees. Measured with tracing off. The bounds
/// are set by the machine more than by the program: on the shared two-vCPU
/// host this landed on, the whole machine runs 1.1–1.3× slower for minutes
/// at a time, which moves a median by about a tenth between two sets of ten
/// runs and a tail by more (README, "Landing values").
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ttft_p50_ms", "ms", "lower", 0.15),
    e2e("ttft_p95_ms", "ms", "lower", 0.25),
    e2e("tpot_p50_ms", "ms", "lower", 0.25),
    e2e("tpot_p95_ms", "ms", "lower", 0.25),
    e2e("e2e_p50_ms", "ms", "lower", 0.15),
    e2e("e2e_p95_ms", "ms", "lower", 0.25),
    e2e("output_tokens_per_s", "tok/s", "higher", 0.15),
    e2e("requests_per_s", "req/s", "higher", 0.15),
    e2e("slo_attainment", "share", "higher", 0.05),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
    e2e("register_p50_ms", "ms", "lower", 0.25),
];

/// Single layers, measured from outside in the traced pass. No bounds.
pub const PER_LAYER: &[MetricDef] = &[
    layer("tokenizer.encode_us_per_req", "us", "lower"),
    layer("tokenizer.tokens_per_s", "tok/s", "higher"),
    layer("pml.parse_prompt_us", "us", "lower"),
    layer("pml.parse_schema_us", "us", "lower"),
    layer("tensor.matmul_prefill_gflops", "GFLOP/s", "higher"),
    layer("tensor.matmul_m1_gflops", "GFLOP/s", "higher"),
    layer("tensor.matmul_m8_gflops", "GFLOP/s", "higher"),
    layer("tensor.matmul_m8_over_m1", "ratio", "lower"),
    layer("tensor.dot_seq_gbps", "GB/s", "higher"),
    layer("tensor.axpy_seq_gbps", "GB/s", "higher"),
    layer("tensor.dot_rotated_gbps", "GB/s", "higher"),
    layer("tensor.memcpy_gbps", "GB/s", "higher"),
    layer("model.prefill_ms", "ms", "lower"),
    layer("model.prefill_tokens_per_s", "tok/s", "higher"),
    layer("model.prefill_suffix_ms", "ms", "lower"),
    layer("model.decode_step_ms_b1", "ms", "lower"),
    layer("model.decode_step_ms_b8", "ms", "lower"),
    layer("model.decode_b8_over_b1", "ratio", "lower"),
    layer("model.encode_segment_ms_per_ktok", "ms/ktok", "lower"),
    layer("model.flops_per_req", "count", "lower"),
    layer("cache.get_hit_us", "us", "lower"),
    layer("cache.get_hit_us_contended", "us", "lower"),
    layer("cache.insert_us_per_mb", "us/MB", "lower"),
    layer("cache.get_disk_promote_ms", "ms", "lower"),
    layer("cache.hits", "count", "higher"),
    layer("cache.misses", "count", "lower"),
    layer("cache.hit_rate", "share", "higher"),
    layer("cache.disk_hit_share", "share", "lower"),
    layer("cache.evictions", "count", "lower"),
    layer("cache.demotions", "count", "lower"),
    layer("cache.promotions", "count", "lower"),
    layer("cache.host_mb", "MB", "lower"),
    layer("cache.disk_mb", "MB", "lower"),
    layer("core.serve_ms_p50", "ms", "lower"),
    layer("core.phase_tokenize_us", "us", "lower"),
    layer("core.phase_fetch_us", "us", "lower"),
    layer("core.phase_prefill_us", "us", "lower"),
    layer("core.phase_sample_us", "us", "lower"),
    layer("core.decode_ms_per_token", "ms", "lower"),
    layer("core.self_us", "us", "lower"),
    layer("core.cached_token_share", "share", "higher"),
    layer("core.bytes_shared_per_req", "count", "higher"),
    layer("core.bytes_copied_per_req", "count", "lower"),
    layer("core.degraded_spans", "count", "lower"),
    layer("core.register_schema_ms", "ms", "lower"),
    layer("core.sched_admit_ms", "ms", "lower"),
    layer("core.sched_step_ms_p50", "ms", "lower"),
    layer("core.sched_step_ms_p95", "ms", "lower"),
    layer("core.sched_batch_occupancy", "share", "higher"),
    layer("core.sched_shared_row_share", "share", "higher"),
    layer("core.sched_self_us", "us", "lower"),
    layer("server.queue_wait_ms_p50", "ms", "lower"),
    layer("server.queue_wait_ms_p95", "ms", "lower"),
    layer("server.service_ms_p50", "ms", "lower"),
    layer("server.overhead_us", "us", "lower"),
    layer("server.accounting_gap_us", "us", "lower"),
    layer("server.shed", "count", "lower"),
    layer("server.errors", "count", "lower"),
    layer("fleet.route_overhead_us", "us", "lower"),
    layer("fleet.affinity_share", "share", "higher"),
    layer("fleet.rerouted", "count", "lower"),
    layer("client.sent", "count", "higher"),
    layer("client.ok", "count", "higher"),
    layer("client.failed", "count", "lower"),
    layer("client.mismatched", "count", "lower"),
    layer("client.failed_share", "share", "lower"),
    layer("client.send_lateness_ms_p95", "ms", "lower"),
    layer("client.backlog_at_end", "count", "lower"),
    layer("client.poll_gap_us_p95", "us", "lower"),
    layer("client.ttft_p99_ms", "ms", "lower"),
    layer("client.e2e_p99_ms", "ms", "lower"),
    layer("client.window_spread_pct", "%", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("trace.spans", "count", "lower"),
];

/// Latency limits of the SLO, fixed once at about twice the p95 measured
/// when the benchmark landed (see README): `(ttft_ms, tpot_ms)`.
pub fn slo_limits(workload: Workload) -> (f64, f64) {
    match workload {
        Workload::HitClosed => (5.0, 0.4),
        Workload::MissClosed => (75.0, 0.4),
        Workload::DecodeSaturated => (55.0, 3.5),
        Workload::ChurnOpen => (7.0, 0.3),
    }
}

/// Values of one run, in table order. Setting a name the table does not
/// have, or leaving one out, is a bug in the benchmark and panics.
#[derive(Debug)]
pub struct Metrics {
    table: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(table: &'static [MetricDef]) -> Self {
        Metrics {
            table,
            values: vec![None; table.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let idx = self
            .table
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the table"));
        assert!(value.is_finite(), "metric `{name}` is {value}");
        self.values[idx] = Some(value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        let idx = self.table.iter().position(|m| m.name == name)?;
        self.values[idx]
    }

    /// `(definition, value)` of every metric; panics if one was never set.
    pub fn all(&self) -> Vec<(&'static MetricDef, f64)> {
        self.table
            .iter()
            .zip(&self.values)
            .map(|(def, v)| {
                (
                    def,
                    v.unwrap_or_else(|| panic!("metric `{}` was never set", def.name)),
                )
            })
            .collect()
    }

    /// The `"metrics"` object of the result line.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .all()
            .iter()
            .map(|(def, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    def.name, v, def.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Reads `{"name": {"value": x, ...}, ...}` pairs back out of a result
/// line this program printed (suite mode collects its children's lines).
pub fn parse_values(line: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let marker = "\": {\"value\": ";
    let mut rest = line;
    while let Some(at) = rest.find(marker) {
        let name_start = rest[..at].rfind('"').map_or(0, |i| i + 1);
        let name = rest[name_start..at].to_owned();
        let tail = &rest[at + marker.len()..];
        let end = tail.find([',', '}']).unwrap_or(tail.len());
        if let Ok(value) = tail[..end].trim().parse::<f64>() {
            out.push((name, value));
        }
        rest = &tail[end..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names under `key` in BENCHMARK.json, with their units.
    fn declared(key: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let root: serde_json::Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        root[key]
            .as_array()
            .unwrap_or_else(|| panic!("`{key}` is a list"))
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("name").to_owned(),
                    m["unit"].as_str().expect("unit").to_owned(),
                )
            })
            .collect()
    }

    fn printed(table: &[MetricDef]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect()
    }

    #[test]
    fn every_metric_named_in_benchmark_json_is_printed_and_nothing_else_is_named() {
        assert_eq!(declared("end_to_end"), printed(END_TO_END));
        assert_eq!(declared("per_layer"), printed(PER_LAYER));
    }

    #[test]
    fn bounds_and_workloads_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let root: serde_json::Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        for (m, def) in root["end_to_end"]
            .as_array()
            .expect("list")
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(m["bound"].as_f64(), def.bound, "{}", def.name);
            assert_eq!(m["better"].as_str(), Some(def.better), "{}", def.name);
        }
        let names: Vec<&str> = root["workloads"]
            .as_array()
            .expect("list")
            .iter()
            .map(|w| w["name"].as_str().expect("name"))
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
    }

    #[test]
    fn names_are_unique_and_setup_s_is_declared() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
    }

    #[test]
    fn result_line_round_trips_and_incomplete_metrics_panic() {
        let mut m = Metrics::new(END_TO_END);
        for (i, def) in END_TO_END.iter().enumerate() {
            m.set(def.name, i as f64 + 0.125);
        }
        let parsed = parse_values(&format!("{{\"correct\": true, \"metrics\": {}}}", m.json()));
        assert_eq!(parsed.len(), END_TO_END.len());
        assert_eq!(parsed[1], ("ttft_p50_ms".to_owned(), 1.125));
        let half = Metrics::new(PER_LAYER);
        assert!(std::panic::catch_unwind(|| half.all()).is_err());
    }
}
