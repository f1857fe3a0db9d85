//! Exporters: Prometheus text exposition and Chrome trace-event JSON.

use crate::metrics::RegistrySnapshot;
use crate::span::SpanRecord;
use std::fmt::Write;

/// The logical thread id the Chrome-trace exporter assigns to batched-
/// scheduler tick spans ([`SCHEDULER_TICK_SPAN`]), so scheduler activity
/// renders on its own lane instead of interleaving with worker spans.
/// Real thread ids start at 1, so 0 is never taken by a worker.
pub const SCHEDULER_TRACE_TID: u64 = 0;

/// Span name the batched scheduler opens once per tick; the Chrome-trace
/// exporter routes spans with this name to [`SCHEDULER_TRACE_TID`].
pub const SCHEDULER_TICK_SPAN: &str = "batch-tick";

/// Help text for a metric name, used by [`prometheus_text`] to emit a
/// `# HELP` line for **every** series. Known `pc_*` series get curated
/// descriptions; anything else gets a generic fallback so the exposition
/// is never missing metadata.
pub fn help_for(name: &str) -> &'static str {
    match name {
        // Server request lifecycle.
        "pc_requests_served_total" => "Requests completed by the engine (including partial responses).",
        "pc_requests_failed_total" => "Requests that ended in an engine error.",
        "pc_requests_shed_total" => "Requests refused or abandoned without serving (admission control, queue shed, shutdown).",
        "pc_requests_cancelled_total" => "Requests cancelled by their caller, in queue or mid-serve.",
        "pc_requests_deadline_exceeded_total" => "Serves interrupted mid-flight by their deadline.",
        "pc_requests_in_flight" => "Requests picked up but not yet completed.",
        "pc_requests_total" => "Total requests observed.",
        "pc_queue_depth" => "Requests queued and not yet picked up.",
        "pc_ttft_seconds" => "Time to first token, measured from serve entry.",
        "pc_service_seconds" => "Wall-clock time a worker (or the batch) spent serving one request.",
        "pc_queue_wait_seconds" => "Time a request spent queued before pickup (or before a shed decision).",
        // SLO tracking.
        "pc_slo_violations_total" => "Deadline-carrying requests that blew their latency budget (overran, or were shed past-deadline).",
        "pc_slo_requests_total" => "Requests that carried a latency budget (deadline) and were SLO-tracked.",
        "pc_slo_budget_burn_ratio" => "Per-request latency-budget burn: (queue + service time) / deadline budget; >1 is a violation.",
        // Degradation.
        "pc_degraded_serves_total" => "Serves that recomputed at least one missing/corrupt cached span (graceful degradation).",
        "pc_degraded_spans_total" => "Cached spans recomputed from tokens instead of served from the store.",
        // Module store.
        "pc_cache_hits_total" => "Module-store lookups served from the store.",
        "pc_cache_misses_total" => "Module-store lookups that found nothing servable.",
        "pc_cache_evictions_total" => "Modules dropped by the host capacity bound with no disk tier below to demote them to.",
        "pc_cache_corruptions_total" => "Checksum mismatches caught by verification (entry dropped, caller recomputes).",
        "pc_cache_host_bytes" => "Bytes of encoded module state held in the host tier.",
        "pc_cache_modules" => "Modules currently stored in memory.",
        // Tiered persistence (disk tier below host memory).
        "pc_demotions_total" => "Modules demoted host-to-disk by the host capacity bound.",
        "pc_promotions_total" => "Modules promoted disk-to-host (lookup fallthrough or restore).",
        "pc_cache_disk_hits_total" => "Lookups that missed memory and were served from the disk tier.",
        "pc_cache_disk_corruptions_total" => "Disk records dropped on checksum/decode failure (caller re-encodes).",
        "pc_cache_disk_bytes" => "Live bytes held by the disk tier (encoded, after any quantization).",
        "pc_store_tier_bytes" => "Bytes held per store tier; labeled tier=\"host\"|\"disk\".",
        // Per-module analytics (labeled by module id).
        "pc_module_hits_total" => "Store hits attributed to one module.",
        "pc_module_misses_total" => "Store misses attributed to one module.",
        "pc_module_degrades_total" => "Graceful-degradation recomputes attributed to one module.",
        "pc_module_evictions_total" => "Host-tier evictions (drops without a disk tier) of one module.",
        "pc_module_relocations_total" => "Store hits served at a non-zero placement shift (deferred-RoPE relocation).",
        "pc_module_kv_bytes_shared_total" => "Module KV bytes served zero-copy (Arc-aliased into session views).",
        "pc_module_shared_rows_total" => "KV rows of this module streamed once per prefix group by the batched kernel.",
        "pc_module_last_access_tick" => "Store logical clock at the module's most recent access.",
        // Engine KV accounting.
        "pc_kv_bytes_shared_total" => "Cached KV bytes aliased zero-copy into session views.",
        // Batching.
        "pc_batch_size" => "Sequences currently in the in-flight decode batch.",
        "pc_batch_occupancy" => "Batch occupancy observed at each scheduler step.",
        "pc_batch_steps_total" => "Batched decode steps executed.",
        "pc_tokens_generated_total" => "Tokens generated across all batched sequences.",
        "pc_kv_rows_shared_read_total" => "KV rows streamed once per tile of prefix-group members.",
        "pc_kv_rows_private_read_total" => "KV rows streamed for a single sequence (tails, unshared caches).",
        "pc_batch_share_ratio" => "Shared fraction of the last tick's KV row reads, in percent.",
        // Model.
        "pc_model_attention_seconds" => "Sampled attention time per forward pass or batched decode step.",
        "pc_model_mlp_seconds" => "Sampled MLP time per forward pass or batched decode step.",
        // Sharded fleet: router-level request lifecycle.
        "pc_fleet_requests_served_total" => "Requests completed by any fleet worker (including partial responses).",
        "pc_fleet_requests_failed_total" => "Fleet requests that ended in an engine or worker error.",
        "pc_fleet_requests_shed_total" => "Fleet requests dropped before service (dead fleet, cancelled or expired in queue).",
        "pc_fleet_requests_cancelled_total" => "Fleet serves that ended cancelled by their caller.",
        "pc_fleet_deadline_exceeded_total" => "Fleet serves interrupted mid-flight by their deadline.",
        "pc_fleet_rerouted_total" => "Jobs handed off to a surviving worker after their worker died.",
        "pc_fleet_routed_affinity_total" => "Submissions routed to a live owner of their schema (affinity placement).",
        "pc_fleet_routed_spilled_total" => "Submissions routed off-owner (spill bound hit, owners dead, or affinity off).",
        "pc_fleet_queue_wait_seconds" => "Time a fleet request spent queued before a worker picked it up.",
        "pc_fleet_service_seconds" => "Wall-clock time a fleet worker spent serving one request.",
        "pc_fleet_uptime_seconds" => "Seconds since the fleet router started.",
        // Sharded fleet: per-worker series (labeled worker="N").
        "pc_worker_alive" => "1 while the worker is alive, 0 once it has been killed.",
        "pc_worker_queue_depth" => "Jobs routed to this worker and not yet completed.",
        "pc_worker_served_total" => "Serves this worker completed (including errors).",
        "pc_worker_rerouted_total" => "Jobs this worker handed off to survivors when it died.",
        "pc_worker_store_hits_total" => "Module-store hits inside this worker's engine.",
        "pc_worker_store_misses_total" => "Module-store misses inside this worker's engine (re-encode on demand).",
        // Process-level.
        "pc_build_info" => "Build metadata as labels; value is always 1.",
        "pc_uptime_seconds" => "Seconds since the server started.",
        _ => "Metric recorded by the pc-telemetry registry.",
    }
}

/// Renders a metrics snapshot in the Prometheus text exposition format
/// (version 0.0.4): `# HELP` + `# TYPE` comments for every series,
/// cumulative `_bucket{le="…"}` histogram series, `_sum`/`_count`, one
/// sample per line.
pub fn prometheus_text(snapshot: &RegistrySnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let help = help_for(name);
        let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let help = help_for(name);
        let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}");
    }
    for h in &snapshot.histograms {
        let name = &h.name;
        let help = help_for(name);
        let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} histogram");
        let mut cum = 0u64;
        for (bound, count) in h.bounds.iter().zip(&h.buckets) {
            cum += count;
            let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cum}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{name}_sum {}", h.sum);
        let _ = writeln!(out, "{name}_count {}", h.count);
    }
    out
}

pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders spans as Chrome trace-event JSON: an object with a
/// `traceEvents` array of complete (`"ph":"X"`) events, timestamps in
/// microseconds relative to the telemetry epoch. Load the file in
/// `chrome://tracing` or <https://ui.perfetto.dev> to see the per-phase
/// flame graph of a serve.
///
/// Spans named [`SCHEDULER_TICK_SPAN`] are routed to the dedicated
/// [`SCHEDULER_TRACE_TID`] lane (with a `thread_name` metadata event), so
/// the batched scheduler's tick cadence reads as its own track instead of
/// interleaving with worker spans.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    if spans.iter().any(|s| s.name == SCHEDULER_TICK_SPAN) {
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{SCHEDULER_TRACE_TID},\
             \"args\":{{\"name\":\"batch scheduler\"}}}}"
        );
        first = false;
    }
    for s in spans {
        if !first {
            out.push(',');
        }
        first = false;
        let tid = if s.name == SCHEDULER_TICK_SPAN {
            SCHEDULER_TRACE_TID
        } else {
            s.thread
        };
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"pc\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{},\"dur\":{},\"args\":{{\"depth\":{}}}}}",
            escape_json(s.name),
            tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.depth
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::{SCHEDULER_TICK_SPAN, SCHEDULER_TRACE_TID};
    use crate::Telemetry;

    #[test]
    fn prometheus_golden_string() {
        let t = Telemetry::new();
        t.counter("pc_cache_hits_total").add(3);
        t.gauge("pc_queue_depth").set(2);
        let h = t.histogram("pc_ttft_seconds", &[0.001, 0.01]);
        h.observe(0.0005);
        h.observe(0.0005);
        h.observe(0.5);
        assert_eq!(
            t.prometheus_text(),
            "# HELP pc_cache_hits_total Module-store lookups served from the store.\n\
             # TYPE pc_cache_hits_total counter\n\
             pc_cache_hits_total 3\n\
             # HELP pc_queue_depth Requests queued and not yet picked up.\n\
             # TYPE pc_queue_depth gauge\n\
             pc_queue_depth 2\n\
             # HELP pc_ttft_seconds Time to first token, measured from serve entry.\n\
             # TYPE pc_ttft_seconds histogram\n\
             pc_ttft_seconds_bucket{le=\"0.001\"} 2\n\
             pc_ttft_seconds_bucket{le=\"0.01\"} 2\n\
             pc_ttft_seconds_bucket{le=\"+Inf\"} 3\n\
             pc_ttft_seconds_sum 0.501\n\
             pc_ttft_seconds_count 3\n"
        );
    }

    #[test]
    fn prometheus_lines_are_well_formed() {
        let t = Telemetry::new();
        t.counter("a_total").inc();
        t.latency_histogram("lat_seconds").observe(0.01);
        for line in t.prometheus_text().lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# TYPE ") || line.starts_with("# HELP "),
                    "{line}"
                );
                continue;
            }
            // Every sample line is `name[{labels}] value`.
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "unparsable value: {line}");
        }
    }

    #[test]
    fn every_series_carries_help_metadata() {
        let t = Telemetry::new();
        t.counter("pc_requests_served_total").inc();
        t.counter("made_up_metric_total").inc(); // unknown → fallback help
        t.gauge("pc_queue_depth").set(1);
        t.latency_histogram("pc_ttft_seconds").observe(0.01);
        let text = t.prometheus_text();
        for series in [
            "pc_requests_served_total",
            "made_up_metric_total",
            "pc_queue_depth",
            "pc_ttft_seconds",
        ] {
            assert!(
                text.contains(&format!("# HELP {series} ")),
                "missing HELP for {series}:\n{text}"
            );
            // HELP precedes TYPE for the same series (Prometheus custom).
            let help_at = text.find(&format!("# HELP {series} ")).unwrap();
            let type_at = text.find(&format!("# TYPE {series} ")).unwrap();
            assert!(help_at < type_at, "{series}: HELP must precede TYPE");
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_fields() {
        let t = Telemetry::new();
        {
            let _outer = t.span("serve \"quoted\"");
            let _inner = t.span("prefill");
        }
        let json = t.chrome_trace_json();
        let value: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = value["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        for e in events {
            assert_eq!(e["ph"], "X");
            assert!(e["ts"].as_f64().is_some());
            assert!(e["dur"].as_f64().is_some());
        }
        assert_eq!(events[0]["name"].as_str().unwrap(), "prefill");
        assert_eq!(events[0]["args"]["depth"].as_f64().unwrap(), 1.0);
    }

    #[test]
    fn scheduler_ticks_get_their_own_trace_lane() {
        let t = Telemetry::new();
        {
            let _worker = t.span("serve");
        }
        {
            let _tick = t.span(SCHEDULER_TICK_SPAN);
        }
        let json = t.chrome_trace_json();
        let value: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = value["traceEvents"].as_array().unwrap();
        // Metadata event names the scheduler lane.
        let meta = &events[0];
        assert_eq!(meta["ph"], "M");
        assert_eq!(meta["tid"].as_u64().unwrap(), SCHEDULER_TRACE_TID);
        assert_eq!(meta["args"]["name"], "batch scheduler");
        let tick = events
            .iter()
            .find(|e| e["name"] == SCHEDULER_TICK_SPAN)
            .expect("tick span present");
        assert_eq!(tick["tid"].as_u64().unwrap(), SCHEDULER_TRACE_TID);
        let worker = events.iter().find(|e| e["name"] == "serve").unwrap();
        assert_ne!(worker["tid"].as_u64().unwrap(), SCHEDULER_TRACE_TID);
    }

    #[test]
    fn empty_exports() {
        let t = Telemetry::new();
        assert_eq!(t.prometheus_text(), "");
        assert_eq!(
            t.chrome_trace_json(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
        );
    }
}
