//! A miniature serving deployment: continuous batching, mixed
//! cached/baseline load, latency percentiles, and the §5.4
//! batch-capacity analysis.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use pc_model::{Model, ModelConfig};
use pc_server::capacity::{analyze, RequestFootprint};
use pc_server::{Server, ServerConfig, SubmitRequest};
use pc_tokenizer::{Tokenizer, WordTokenizer};
use prompt_cache::{EngineConfig, PromptCache, ServeOptions};

fn main() {
    // A shared system prompt + document pool, as a chat service would have.
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
            r#"<schema name="svc">
                 you are a helpful assistant
                 <module name="doc">{doc}</module>
               </schema>"#
        ))
        .expect("register");

    let server = Server::start(engine, ServerConfig::default().queue_capacity(128));
    let opts = ServeOptions::default().max_new_tokens(4);

    // 40 cached requests + 8 baseline requests through the same queue.
    let started = std::time::Instant::now();
    let mut handles = Vec::new();
    for i in 0..40 {
        let request = SubmitRequest::new(format!(
            r#"<prompt schema="svc"><doc/>answer briefly q{}</prompt>"#,
            i % 5
        ))
        .options(opts.clone())
        .blocking(true);
        handles.push(server.submit_request(&request).expect("blocking submit"));
    }
    for i in 0..8 {
        let request = SubmitRequest::new(format!(
            r#"<prompt schema="svc"><doc/>answer briefly q{}</prompt>"#,
            i % 5
        ))
        .options(opts.clone())
        .baseline(true)
        .blocking(true);
        handles.push(server.submit_request(&request).expect("blocking submit"));
    }
    for handle in handles {
        handle.wait().expect("server alive").outcome.expect("served");
    }
    let wall = started.elapsed();

    let m = server.metrics();
    println!(
        "served {} requests in {:?} ({:.0} req/s)",
        m.served,
        wall,
        m.served as f64 / wall.as_secs_f64()
    );
    println!(
        "TTFT p50 {:?} | p95 {:?} | p99 {:?}   queue mean {:?}",
        m.ttft_p50.unwrap(),
        m.ttft_p95.unwrap(),
        m.ttft_p99.unwrap(),
        m.queue_mean.unwrap()
    );
    println!("store: {:?}", server.engine().store_stats());
    server.shutdown();

    // §5.4's capacity argument: 100 × 2K-token requests sharing a 1K
    // module, under a 100K-token KV budget.
    let population: Vec<RequestFootprint> = (0..100)
        .map(|_| RequestFootprint {
            modules: vec![(1, 1000)],
            private_tokens: 1000,
        })
        .collect();
    let report = analyze(100_000, &population);
    println!(
        "\ncapacity under a 100K-token budget: naive batch {} → shared batch {} \
         ({:.0}% footprint reduction, {:.1}x batch gain)",
        report.naive_batch,
        report.shared_batch,
        report.footprint_reduction() * 100.0,
        report.batch_gain()
    );
}
