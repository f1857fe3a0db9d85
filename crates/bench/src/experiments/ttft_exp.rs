//! TTFT breakdown under load: replays the Poisson trace with telemetry
//! enabled and reports where time-to-first-token goes — tokenize,
//! cache-fetch, prefill, sample — per phase, with percentiles.
//!
//! This is the observability counterpart to the §5.4 throughput sweep:
//! the paper's core claim is that cache fetch (memcpy) is cheap next to
//! the attention prefill it replaces, and the per-phase distributions
//! make that visible on a live serving run rather than a microbenchmark.

use super::Report;
use crate::emit::{fmt_time_s, Table};
use pc_model::{Model, ModelConfig};
use pc_server::trace::{poisson_trace, replay};
use pc_server::{Server, ServerConfig};
use pc_telemetry::Telemetry;
use pc_tokenizer::{Tokenizer, WordTokenizer};
use prompt_cache::{EngineConfig, PromptCache, ServeOptions};
use serde_json::json;
use std::time::Duration;

/// Per-phase TTFT breakdown over a Poisson replay (telemetry on).
///
/// Emits the per-phase percentile table, writes the engine's Chrome
/// trace to `results/ttft_breakdown_trace.json` (full runs only), and
/// returns per-phase JSON for `results/ttft_breakdown.json`.
pub fn ttft_breakdown(quick: bool) -> Report {
    let doc: String = (0..300).map(|i| format!("w{} ", i % 89)).collect();
    let corpus = format!("{doc} you are a helpful assistant answer briefly q0 q1 q2 q3 q4");
    let tokenizer = WordTokenizer::train(&[corpus.as_str()]);
    let vocab = tokenizer.vocab_size().max(64);
    let telemetry = Telemetry::new();
    let engine = PromptCache::new(
        Model::new(ModelConfig::llama_small(vocab), 10),
        tokenizer,
        EngineConfig::default().telemetry(telemetry.clone()),
    );
    engine
        .register_schema(&format!(
            r#"<schema name="svc">you are a helpful assistant<module name="doc">{doc}</module></schema>"#
        ))
        .expect("register");
    let server = Server::start(engine, ServerConfig::default().queue_capacity(256));
    let prompts: Vec<String> = (0..5)
        .map(|i| format!(r#"<prompt schema="svc"><doc/>answer briefly q{i}</prompt>"#))
        .collect();
    let n = if quick { 10 } else { 60 };
    let trace = poisson_trace(n, 200.0, prompts.len(), 11);
    let report = replay(
        &server,
        &prompts,
        &trace,
        &ServeOptions::default().max_new_tokens(1),
    );

    let secs = |d: Option<Duration>| d.unwrap_or_default().as_secs_f64();
    let ttft_mean = secs(report.ttft.mean());
    let mut table = Table::new(&["Phase", "p50", "p95", "p99", "share of mean TTFT"]);
    let mut rows = Vec::new();
    for (name, rec) in &report.phases {
        let mean = secs(rec.mean());
        table.row(&[
            (*name).into(),
            fmt_time_s(secs(rec.percentile(50.0))),
            fmt_time_s(secs(rec.percentile(95.0))),
            fmt_time_s(secs(rec.percentile(99.0))),
            format!("{:.1}%", 100.0 * mean / ttft_mean.max(1e-12)),
        ]);
        rows.push(json!({
            "phase": name,
            "p50_s": secs(rec.percentile(50.0)),
            "p95_s": secs(rec.percentile(95.0)),
            "p99_s": secs(rec.percentile(99.0)),
            "mean_s": mean,
        }));
    }
    table.row(&[
        "ttft (total)".into(),
        fmt_time_s(secs(report.ttft.percentile(50.0))),
        fmt_time_s(secs(report.ttft.percentile(95.0))),
        fmt_time_s(secs(report.ttft.percentile(99.0))),
        "100%".into(),
    ]);

    // The Chrome trace is a heavyweight artifact; only full runs emit it
    // (quick mode doubles as the test path and must stay side-effect
    // free).
    let mut trace_path = None;
    if !quick {
        let path = std::path::Path::new("results/ttft_breakdown_trace.json");
        telemetry
            .write_chrome_trace(path)
            .expect("write chrome trace");
        trace_path = Some(path.display().to_string());
    }
    let spans = telemetry.spans().len();
    server.shutdown();

    Report {
        id: "ttft_breakdown",
        title: "TTFT breakdown under Poisson load (telemetry on, measured)",
        markdown: format!(
            "{}\n{} requests completed; {} spans recorded{}\n",
            table.to_markdown(),
            report.completed,
            spans,
            trace_path
                .as_deref()
                .map(|p| format!("; Chrome trace at `{p}`"))
                .unwrap_or_default()
        ),
        json: json!({
            "completed": report.completed,
            "failed": report.failed,
            "dropped": report.dropped,
            "ttft_mean_s": ttft_mean,
            "ttft_p50_s": secs(report.ttft.percentile(50.0)),
            "ttft_p99_s": secs(report.ttft.percentile(99.0)),
            "phases": rows,
            "spans_recorded": spans,
            "chrome_trace": trace_path,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_account_for_ttft() {
        let r = ttft_breakdown(true);
        assert_eq!(r.json["completed"].as_u64().unwrap(), 10);
        assert_eq!(r.json["dropped"].as_u64().unwrap(), 0);
        let ttft_mean = r.json["ttft_mean_s"].as_f64().unwrap();
        let phase_sum: f64 = r.json["phases"]
            .as_array()
            .unwrap()
            .iter()
            .map(|p| p["mean_s"].as_f64().unwrap())
            .sum();
        // Phases are deltas on one clock, so their means sum to the TTFT
        // mean up to Duration rounding.
        assert!(
            (phase_sum - ttft_mean).abs() <= 0.05 * ttft_mean.max(1e-9),
            "phase sum {phase_sum} vs ttft mean {ttft_mean}"
        );
        assert!(r.json["spans_recorded"].as_u64().unwrap() > 0);
        assert!(r.json["chrome_trace"].is_null());
    }
}
