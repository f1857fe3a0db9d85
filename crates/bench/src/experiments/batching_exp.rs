//! Continuous-batching A/B under load: replays the same Poisson traces
//! against a batched server (a tick thread interleaving an in-flight
//! batch, beside one admission thread that prefills joining requests)
//! and a one-at-a-time server, comparing throughput
//! and queue wait as the offered load rises.
//!
//! Batching shares the weight-matrix traversal of every decode step
//! across the in-flight sequences, so at any offered load above the
//! solo service rate the batched server turns queue wait into extra
//! occupancy instead of extra latency — while producing byte-identical
//! greedy outputs (asserted directly against solo serving).

use super::Report;
use crate::emit::{fmt_time_s, Table};
use pc_model::{Model, ModelConfig};
use pc_server::trace::{poisson_trace, replay, TraceEvent};
use pc_server::{Server, ServerConfig};
use pc_tokenizer::{Tokenizer, WordTokenizer};
use prompt_cache::{
    BatchConfig, BatchScheduler, EngineConfig, PromptCache, ServeOptions, ServeRequest, Served,
};
use serde_json::json;

const MAX_NEW_TOKENS: usize = 8;
const MAX_BATCH_SIZE: usize = 8;

fn build_engine() -> PromptCache {
    let doc: String = (0..300).map(|i| format!("w{} ", i % 89)).collect();
    let corpus = format!("{doc} you are a helpful assistant answer briefly q0 q1 q2 q3 q4");
    let tokenizer = WordTokenizer::train(&[corpus.as_str()]);
    let vocab = tokenizer.vocab_size().max(64);
    let engine = PromptCache::new(
        Model::new(ModelConfig::llama_small(vocab), 10),
        tokenizer,
        EngineConfig::default(),
    );
    engine
        .register_schema(&format!(
            r#"<schema name="svc">you are a helpful assistant<module name="doc">{doc}</module></schema>"#
        ))
        .expect("register");
    engine
}

fn prompts() -> Vec<String> {
    (0..5)
        .map(|i| format!(r#"<prompt schema="svc"><doc/>answer briefly q{i}</prompt>"#))
        .collect()
}

struct ModeResult {
    mode: &'static str,
    goodput_rps: f64,
    tokens_per_s: f64,
    queue_wait_mean_s: f64,
    e2e_p50_s: f64,
    e2e_p95_s: f64,
    completed: u64,
}

fn run_mode(batched: bool, prompts: &[String], trace: &[TraceEvent]) -> ModeResult {
    // A single worker serving requests one at a time, or a batched
    // server: one tick thread interleaving a batch, plus the admission
    // thread that prefills only while that batch is decoding. Decode
    // runs on one thread either way, so the A/B measures batching, not
    // a wider decode pool.
    let config = if batched {
        ServerConfig::default()
            .queue_capacity(1024)
            .batching(BatchConfig::default().max_batch_size(MAX_BATCH_SIZE))
    } else {
        ServerConfig::default().workers(1).queue_capacity(1024)
    };
    let server = Server::start(build_engine(), config);
    let start = std::time::Instant::now();
    let report = replay(
        &server,
        prompts,
        trace,
        &ServeOptions::default().max_new_tokens(MAX_NEW_TOKENS),
    );
    let wall = start.elapsed().as_secs_f64().max(1e-9);
    let queue_wait_mean_s = server
        .metrics()
        .queue_mean
        .unwrap_or_default()
        .as_secs_f64();
    server.shutdown();
    let secs = |d: Option<std::time::Duration>| d.unwrap_or_default().as_secs_f64();
    ModeResult {
        mode: if batched { "batched" } else { "one-at-a-time" },
        goodput_rps: report.goodput_rps(),
        tokens_per_s: (report.completed as usize * MAX_NEW_TOKENS) as f64 / wall,
        queue_wait_mean_s,
        e2e_p50_s: secs(report.e2e.percentile(50.0)),
        e2e_p95_s: secs(report.e2e.percentile(95.0)),
        completed: report.completed,
    }
}

/// Throughput and queue wait vs offered load, batched vs one-at-a-time,
/// plus a direct batched-vs-solo byte-identity check. Full runs also
/// write `BENCH_batching.json` at the working directory root — the
/// perf-trajectory artifact later PRs compare against.
pub fn batching(quick: bool) -> Report {
    let prompts = prompts();

    // Byte-identity: every prompt decoded inside one full batch equals
    // its solo greedy serve exactly.
    let engine = build_engine();
    let opts = ServeOptions::default().max_new_tokens(MAX_NEW_TOKENS);
    let mut sched = BatchScheduler::new(&engine, BatchConfig::default().max_batch_size(prompts.len()));
    for (i, prompt) in prompts.iter().enumerate() {
        sched.admit(i as u64, prompt, &opts).expect("admit");
    }
    let mut batched_out = Vec::new();
    while !sched.is_idle() {
        for (id, result) in sched.step() {
            batched_out.push((id, result.expect("batched serve")));
        }
    }
    batched_out.sort_by_key(|(id, _)| *id);
    let mut identical = 0usize;
    for (id, response) in &batched_out {
        let solo = engine
            .serve(&ServeRequest::new(&prompts[*id as usize]).options(opts.clone()))
            .map(Served::into_response)
            .expect("solo serve");
        assert_eq!(response.tokens, solo.tokens, "batched output diverged from solo");
        assert_eq!(response.text, solo.text, "batched output diverged from solo");
        identical += 1;
    }
    drop(sched);

    // Load sweep: same trace, both serving modes.
    let n = if quick { 10 } else { 48 };
    let rates: &[f64] = if quick { &[100.0] } else { &[25.0, 100.0, 400.0] };
    let mut table = Table::new(&[
        "Offered load",
        "Mode",
        "Goodput",
        "Tokens/s",
        "Queue wait mean",
        "e2e p50",
        "e2e p95",
    ]);
    let mut sweep = Vec::new();
    for &rate in rates {
        let trace = poisson_trace(n, rate, prompts.len(), 17);
        let batched = run_mode(true, &prompts, &trace);
        let solo = run_mode(false, &prompts, &trace);
        for m in [&batched, &solo] {
            table.row(&[
                format!("{rate:.0} req/s"),
                m.mode.into(),
                format!("{:.0} req/s", m.goodput_rps),
                format!("{:.0}", m.tokens_per_s),
                fmt_time_s(m.queue_wait_mean_s),
                fmt_time_s(m.e2e_p50_s),
                fmt_time_s(m.e2e_p95_s),
            ]);
        }
        let mode_json = |m: &ModeResult| {
            json!({
                "mode": m.mode,
                "goodput_rps": m.goodput_rps,
                "tokens_per_s": m.tokens_per_s,
                "queue_wait_mean_s": m.queue_wait_mean_s,
                "e2e_p50_s": m.e2e_p50_s,
                "e2e_p95_s": m.e2e_p95_s,
                "completed": m.completed,
            })
        };
        sweep.push(json!({
            "offered_rps": rate,
            "batched": mode_json(&batched),
            "one_at_a_time": mode_json(&solo),
            "tokens_per_s_gain": batched.tokens_per_s / solo.tokens_per_s.max(1e-12),
        }));
    }

    let json = json!({
        "requests_per_rate": n,
        "max_new_tokens": MAX_NEW_TOKENS,
        "max_batch_size": MAX_BATCH_SIZE,
        "identical_outputs": identical,
        "load_sweep": sweep,
    });

    // The perf-trajectory file: full runs only (quick doubles as the test
    // path and must stay side-effect free).
    let mut bench_path = None;
    if !quick {
        let path = "BENCH_batching.json";
        std::fs::write(
            path,
            serde_json::to_string_pretty(&json).expect("serialise"),
        )
        .expect("write BENCH_batching.json");
        bench_path = Some(path.to_owned());
    }

    Report {
        id: "batching",
        title: "Continuous batching A/B: throughput and queue wait vs offered load (measured)",
        markdown: format!(
            "{}\n{identical}/{} prompts byte-identical batched vs solo{}\n",
            table.to_markdown(),
            prompts.len(),
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
    fn batching_ab_holds() {
        let r = batching(true);
        assert_eq!(r.json["identical_outputs"].as_u64().unwrap(), 5);
        let sweep = r.json["load_sweep"].as_array().unwrap();
        assert_eq!(sweep.len(), 1);
        let row = &sweep[0];
        assert_eq!(row["batched"]["completed"].as_u64().unwrap(), 10);
        assert_eq!(row["one_at_a_time"]["completed"].as_u64().unwrap(), 10);
        assert!(row["batched"]["tokens_per_s"].as_f64().unwrap() > 0.0);
        // Quick mode writes no artifact.
        assert!(!std::path::Path::new("BENCH_batching.json").exists());
    }
}
