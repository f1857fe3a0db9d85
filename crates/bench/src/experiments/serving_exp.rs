//! Serving-system experiments: measured server throughput under mixed
//! load and the §5.4 batch-capacity analysis, plus a measured RAG
//! comparison (§6's latency-sensitive RAG claim).

use super::Report;
use crate::emit::{fmt_speedup, fmt_time_s, Table};
use pc_model::{Model, ModelConfig};
use pc_server::capacity::{analyze, RequestFootprint};
use pc_server::{Server, ServerConfig, SubmitRequest};
use pc_tokenizer::{Tokenizer, WordTokenizer};
use prompt_cache::{EngineConfig, PromptCache, ServeOptions};
use serde_json::json;

fn service_engine(doc: &str) -> PromptCache {
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

fn run_load(baseline: bool, requests: usize) -> (f64, f64) {
    let doc: String = (0..300).map(|i| format!("w{} ", i % 89)).collect();
    let server = Server::start(
        service_engine(&doc),
        ServerConfig::default().queue_capacity(256),
    );
    let opts = ServeOptions::default().max_new_tokens(2);
    let start = std::time::Instant::now();
    let handles: Vec<_> = (0..requests)
        .map(|i| {
            let prompt =
                format!(r#"<prompt schema="svc"><doc/>answer briefly q{}</prompt>"#, i % 5);
            let request = SubmitRequest::new(prompt)
                .options(opts.clone())
                .baseline(baseline)
                .blocking(true);
            server.submit_request(&request).expect("blocking submit")
        })
        .collect();
    for h in handles {
        h.wait().expect("served").outcome.expect("ok");
    }
    let wall = start.elapsed().as_secs_f64();
    let p50 = server
        .metrics()
        .ttft_p50
        .expect("samples recorded")
        .as_secs_f64();
    server.shutdown();
    (requests as f64 / wall, p50)
}

/// Measured server throughput (cached vs baseline) + the §5.4 capacity
/// model.
pub fn throughput(quick: bool) -> Report {
    let requests = if quick { 8 } else { 48 };
    let (cached_rps, cached_p50) = run_load(false, requests);
    let (baseline_rps, baseline_p50) = run_load(true, requests);

    let mut table = Table::new(&["Path", "Throughput", "TTFT p50"]);
    table.row(&[
        "Prompt Cache".into(),
        format!("{cached_rps:.0} req/s"),
        fmt_time_s(cached_p50),
    ]);
    table.row(&[
        "baseline KV cache".into(),
        format!("{baseline_rps:.0} req/s"),
        fmt_time_s(baseline_p50),
    ]);
    table.row(&[
        "gain".into(),
        fmt_speedup(cached_rps / baseline_rps),
        fmt_speedup(baseline_p50 / cached_p50),
    ]);

    // §5.4 capacity model.
    let population: Vec<RequestFootprint> = (0..100)
        .map(|_| RequestFootprint {
            modules: vec![(1, 1000)],
            private_tokens: 1000,
        })
        .collect();
    let capacity = analyze(100_000, &population);
    let mut cap_table = Table::new(&["Quantity", "Paper (§5.4)", "Reproduced"]);
    cap_table.row(&[
        "footprint reduction".into(),
        "50%".into(),
        format!("{:.0}%", capacity.footprint_reduction() * 100.0),
    ]);
    cap_table.row(&[
        "batch under 100K-token budget".into(),
        "larger working batch".into(),
        format!(
            "{} → {} requests ({:.1}×)",
            capacity.naive_batch,
            capacity.shared_batch,
            capacity.batch_gain()
        ),
    ]);

    // Open-loop Poisson load sweep: goodput and tail latency as offered
    // load rises (the serving-paper methodology).
    let mut load_table = Table::new(&[
        "Offered load", "Goodput", "e2e p50", "e2e p99",
    ]);
    let mut load_rows = Vec::new();
    let rates: &[f64] = if quick { &[100.0] } else { &[50.0, 200.0, 800.0] };
    {
        let doc: String = (0..300).map(|i| format!("w{} ", i % 89)).collect();
        let server = Server::start(
            service_engine(&doc),
            ServerConfig::default().queue_capacity(1024),
        );
        let prompts: Vec<String> = (0..5)
            .map(|i| format!(r#"<prompt schema="svc"><doc/>answer briefly q{i}</prompt>"#))
            .collect();
        let n = if quick { 10 } else { 60 };
        for &rate in rates {
            let trace = pc_server::trace::poisson_trace(n, rate, prompts.len(), 9);
            let report = pc_server::trace::replay(
                &server,
                &prompts,
                &trace,
                &ServeOptions::default().max_new_tokens(1),
            );
            let p50 = report.e2e.percentile(50.0).unwrap_or_default();
            let p99 = report.e2e.percentile(99.0).unwrap_or_default();
            load_table.row(&[
                format!("{rate:.0} req/s"),
                format!("{:.0} req/s", report.goodput_rps()),
                fmt_time_s(p50.as_secs_f64()),
                fmt_time_s(p99.as_secs_f64()),
            ]);
            load_rows.push(json!({
                "offered_rps": rate, "goodput_rps": report.goodput_rps(),
                "e2e_p50_s": p50.as_secs_f64(), "e2e_p99_s": p99.as_secs_f64(),
            }));
        }
        server.shutdown();
    }

    Report {
        id: "throughput",
        title: "§5.4 — serving throughput and batch capacity (measured + model)",
        markdown: format!(
            "{}\n### Batch capacity (100 × 2K-token requests sharing a 1K module)\n{}\n\
             ### Open-loop Poisson load (cached path, continuous batching)\n{}\n",
            table.to_markdown(),
            cap_table.to_markdown(),
            load_table.to_markdown()
        ),
        json: json!({
            "cached_rps": cached_rps, "baseline_rps": baseline_rps,
            "cached_ttft_p50_s": cached_p50, "baseline_ttft_p50_s": baseline_p50,
            "capacity": json!({
                "naive_tokens": capacity.naive_tokens,
                "shared_tokens": capacity.shared_tokens,
                "naive_batch": capacity.naive_batch,
                "shared_batch": capacity.shared_batch,
            }),
            "load_sweep": load_rows,
        }),
    }
}

/// Measured RAG comparison: cached module database vs uncached context
/// stuffing (§6's "latency-sensitive RAG applications").
pub fn rag(quick: bool) -> Report {
    use pc_longbench::corpus::Corpus;
    use pc_rag::{RagConfig, RagPipeline};

    let corpus = Corpus::new(99);
    let num_docs = if quick { 4 } else { 12 };
    let mut docs = Vec::new();
    let mut entities = Vec::new();
    for id in 0..num_docs {
        let (doc, entity, _) = corpus.document_with_fact(id, 180);
        docs.push(doc);
        entities.push(entity);
    }
    let all_text = docs.join(" ") + " what is the secret code for";
    let tokenizer = WordTokenizer::train(&[all_text.as_str()]);
    let vocab = tokenizer.vocab_size().max(64);
    let engine = PromptCache::new(
        Model::new(ModelConfig::llama_small(vocab), 4),
        tokenizer,
        EngineConfig::default(),
    );
    let pipeline = RagPipeline::build(engine, &docs, RagConfig::default()).expect("build");

    let opts = ServeOptions::default().max_new_tokens(1);
    let mut cached_total = 0.0;
    let mut baseline_total = 0.0;
    let queries = entities.len().min(if quick { 2 } else { 6 });
    for entity in entities.iter().take(queries) {
        let q = format!("what is the secret code for {entity}");
        pipeline.query_with(&q, 2, &opts).expect("warm");
        cached_total += pipeline
            .query_with(&q, 2, &opts)
            .expect("query")
            .response
            .timings
            .ttft
            .as_secs_f64();
        baseline_total += pipeline
            .query_baseline(&q, 2, &opts)
            .expect("baseline")
            .response
            .timings
            .ttft
            .as_secs_f64();
    }
    let cached_mean = cached_total / queries as f64;
    let baseline_mean = baseline_total / queries as f64;

    let mut table = Table::new(&["Path", "Mean TTFT over queries"]);
    table.row(&["RAG over Prompt Cache modules".into(), fmt_time_s(cached_mean)]);
    table.row(&["RAG with uncached context".into(), fmt_time_s(baseline_mean)]);
    table.row(&["speedup".into(), fmt_speedup(baseline_mean / cached_mean)]);

    Report {
        id: "rag",
        title: "§6 — RAG with the retriever as a prompt-module database (measured)",
        markdown: table.to_markdown(),
        json: json!({
            "chunks": pipeline.num_chunks(),
            "cached_mean_ttft_s": cached_mean,
            "baseline_mean_ttft_s": baseline_mean,
            "speedup": baseline_mean / cached_mean,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_report_shows_gain() {
        let r = throughput(true);
        let cached = r.json["cached_rps"].as_f64().unwrap();
        let baseline = r.json["baseline_rps"].as_f64().unwrap();
        assert!(cached > baseline, "cached {cached} vs baseline {baseline}");
        assert_eq!(r.json["capacity"]["shared_batch"].as_u64().unwrap(), 99);
    }

    #[test]
    fn rag_report_shows_speedup() {
        let r = rag(true);
        assert!(r.json["speedup"].as_f64().unwrap() > 1.0);
    }
}
