//! Chaos replay: the resilience layer under deterministic injected
//! faults. Replays one Poisson trace twice — once healthy, once with a
//! seeded [`pc_faults::FaultPlan`] injecting cache-fetch misses,
//! checksum corruption, and pickup stalls while every request carries a
//! deadline — and reports what the failure modes cost: shed rate, queue
//! wait percentiles, degraded (recomputed) serves, interrupted partials.
//!
//! The headline guarantee is checked directly: a serve that degrades
//! (recomputes a lost or corrupt module) produces **byte-identical**
//! output to the healthy cached serve.

use super::Report;
use crate::emit::{fmt_time_s, Table};
use pc_cache::StoreConfig;
use pc_faults::{FaultConfig, FaultPlan};
use pc_model::{Model, ModelConfig};
use pc_server::trace::{poisson_trace, replay, TraceEvent};
use pc_server::{Server, ServerConfig};
use pc_tokenizer::{Tokenizer, WordTokenizer};
use prompt_cache::{EngineConfig, PromptCache, ServeOptions};
use serde_json::json;
use std::sync::Arc;
use std::time::Duration;
use prompt_cache::{ServeRequest, Served};

const DOC_WORDS: usize = 120;

fn doc() -> String {
    (0..DOC_WORDS).map(|i| format!("w{} ", i % 53)).collect()
}

fn build_engine() -> PromptCache {
    let doc = doc();
    let corpus = format!("{doc} preamble text answer briefly q0 q1 q2 q3");
    let tokenizer = WordTokenizer::train(&[corpus.as_str()]);
    let vocab = tokenizer.vocab_size().max(64);
    let engine = PromptCache::new(
        Model::new(ModelConfig::llama_tiny(vocab), 6),
        tokenizer,
        EngineConfig::default().// Checksums on so injected corruption is *detected* and
            // repaired rather than silently served.
            store(StoreConfig::default().verify_checksums(true)),
    );
    engine
        .register_schema(&format!(
            r#"<schema name="res">preamble text<module name="doc">{doc}</module></schema>"#
        ))
        .expect("register");
    engine
}

fn prompts() -> Vec<String> {
    (0..4)
        .map(|i| format!(r#"<prompt schema="res"><doc/>answer briefly q{i}</prompt>"#))
        .collect()
}

struct ModeResult {
    mode: &'static str,
    completed: u64,
    interrupted: u64,
    shed: u64,
    failed: u64,
    degraded_serves: u64,
    queue_p50_s: f64,
    queue_p99_s: f64,
    ttft_mean_s: f64,
}

impl ModeResult {
    fn shed_rate(&self) -> f64 {
        let total = self.completed + self.shed + self.failed;
        if total == 0 {
            0.0
        } else {
            self.shed as f64 / total as f64
        }
    }
}

fn run_mode(
    mode: &'static str,
    faults: Option<FaultConfig>,
    deadline: Option<Duration>,
    prompts: &[String],
    trace: &[TraceEvent],
) -> ModeResult {
    let engine = build_engine();
    let plan = faults.map(|config| Arc::new(FaultPlan::new(config)));
    if let Some(plan) = &plan {
        engine.set_fetch_fault_injector(Some(plan.clone()));
    }
    let server = Server::start(engine, ServerConfig::default().queue_capacity(256));
    if let Some(plan) = &plan {
        server.set_worker_faults(Some(plan.clone()));
    }
    let mut options = ServeOptions::default().max_new_tokens(1);
    if let Some(deadline) = deadline {
        options = options.deadline(deadline);
    }
    let report = replay(&server, prompts, trace, &options);
    let degraded_serves = server
        .metrics_text()
        .lines()
        .find_map(|l| l.strip_prefix("pc_degraded_serves_total "))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(0);
    server.shutdown();

    let secs = |d: Option<Duration>| d.unwrap_or_default().as_secs_f64();
    ModeResult {
        mode,
        completed: report.completed,
        interrupted: report.interrupted,
        shed: report.shed,
        failed: report.failed,
        degraded_serves,
        queue_p50_s: secs(report.queue.percentile(50.0)),
        queue_p99_s: secs(report.queue.percentile(99.0)),
        ttft_mean_s: secs(report.ttft.mean()),
    }
}

/// Chaos replay A/B: a healthy run vs the same trace under injected
/// cache faults and pickup stalls with per-request deadlines. Full runs
/// also write `BENCH_resilience.json` at the working directory root.
pub fn resilience(quick: bool) -> Report {
    let prompts = prompts();
    let n = if quick { 12 } else { 80 };
    let rate_hz = if quick { 200.0 } else { 300.0 };
    let trace = poisson_trace(n, rate_hz, prompts.len(), 17);

    let healthy = run_mode("healthy", None, None, &prompts, &trace);
    let chaos = run_mode(
        "chaos",
        Some(FaultConfig {
            seed: 29,
            fetch_miss_rate: 0.3,
            fetch_corrupt_rate: 0.1,
            stall_rate: 0.3,
            stall: Duration::from_millis(15),
            ..Default::default()
        }),
        // Tight enough that the stall-induced queue tail overruns it —
        // the shed and interrupted paths show up in the report.
        Some(Duration::from_millis(40)),
        &prompts,
        &trace,
    );

    // The degradation guarantee, checked outside the replay: with every
    // fetch reporting the cached entry lost, the engine recomputes the
    // module and the output stays byte-identical to the healthy serve.
    let reference = build_engine();
    let lossy = build_engine();
    lossy.set_fetch_fault_injector(Some(Arc::new(FaultPlan::new(FaultConfig {
        fetch_miss_rate: 1.0,
        ..Default::default()
    }))));
    let opts = ServeOptions::default().max_new_tokens(4);
    let mut identical = 0usize;
    let mut degraded_spans = 0usize;
    for prompt in &prompts {
        let healthy_serve = reference.serve(&ServeRequest::new(prompt).options(opts.clone())).map(Served::into_response).expect("healthy serve");
        let degraded_serve = lossy.serve(&ServeRequest::new(prompt).options(opts.clone())).map(Served::into_response).expect("degraded serve");
        assert_eq!(
            degraded_serve.tokens, healthy_serve.tokens,
            "degraded output diverged: {prompt}"
        );
        degraded_spans += degraded_serve.stats.degraded_spans;
        identical += 1;
    }
    assert!(degraded_spans > 0, "full miss injection must force recomputes");

    let mut table = Table::new(&[
        "Mode",
        "completed",
        "interrupted",
        "shed",
        "degraded",
        "shed rate",
        "queue p50",
        "queue p99",
        "TTFT mean",
    ]);
    let mode_json = |m: &ModeResult| {
        json!({
            "mode": m.mode,
            "completed": m.completed,
            "interrupted": m.interrupted,
            "shed": m.shed,
            "failed": m.failed,
            "degraded_serves": m.degraded_serves,
            "shed_rate": m.shed_rate(),
            "queue_p50_s": m.queue_p50_s,
            "queue_p99_s": m.queue_p99_s,
            "ttft_mean_s": m.ttft_mean_s,
        })
    };
    for m in [&healthy, &chaos] {
        table.row(&[
            m.mode.into(),
            format!("{}", m.completed),
            format!("{}", m.interrupted),
            format!("{}", m.shed),
            format!("{}", m.degraded_serves),
            format!("{:.1}%", m.shed_rate() * 100.0),
            fmt_time_s(m.queue_p50_s),
            fmt_time_s(m.queue_p99_s),
            fmt_time_s(m.ttft_mean_s),
        ]);
    }
    let json = json!({
        "requests": n,
        "deadline_ms": 40,
        "identical_degraded_outputs": identical,
        "degraded_spans_under_full_miss": degraded_spans,
        "modes": [mode_json(&healthy), mode_json(&chaos)],
    });

    // The perf-trajectory file: full runs only (quick doubles as the test
    // path and must stay side-effect free).
    let mut bench_path = None;
    if !quick {
        let path = "BENCH_resilience.json";
        std::fs::write(
            path,
            serde_json::to_string_pretty(&json).expect("serialise"),
        )
        .expect("write BENCH_resilience.json");
        bench_path = Some(path.to_owned());
    }

    Report {
        id: "resilience",
        title: "Chaos replay: deadlines, shedding, and graceful degradation under injected faults",
        markdown: format!(
            "{}\n{identical}/{} degraded serves byte-identical to healthy; \
             {} serves recomputed lost/corrupt modules under chaos{}\n",
            table.to_markdown(),
            prompts.len(),
            chaos.degraded_serves,
            bench_path
                .as_deref()
                .map(|p| format!("; trajectory at `{p}`"))
                .unwrap_or_default()
        ),
        json,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resilience_invariants_hold() {
        let r = resilience(true);
        assert_eq!(r.json["identical_degraded_outputs"].as_u64().unwrap(), 4);
        assert!(r.json["degraded_spans_under_full_miss"].as_u64().unwrap() > 0);
        let modes = r.json["modes"].as_array().unwrap();
        let healthy = &modes[0];
        let chaos = &modes[1];
        // The healthy run serves everything; nothing degrades or sheds.
        assert_eq!(healthy["completed"].as_u64().unwrap(), 12);
        assert_eq!(healthy["shed"].as_u64().unwrap(), 0);
        assert_eq!(healthy["degraded_serves"].as_u64().unwrap(), 0);
        // Under chaos every request is accounted for — served (possibly
        // interrupted), shed, or failed — and the seeded fault rates are
        // high enough that some serves must have recomputed modules.
        let total = chaos["completed"].as_u64().unwrap()
            + chaos["shed"].as_u64().unwrap()
            + chaos["failed"].as_u64().unwrap();
        assert_eq!(total, 12);
        assert_eq!(chaos["failed"].as_u64().unwrap(), 0);
        assert!(chaos["degraded_serves"].as_u64().unwrap() > 0);
        // Quick mode writes no artifact.
        assert!(!std::path::Path::new("BENCH_resilience.json").exists());
    }
}
