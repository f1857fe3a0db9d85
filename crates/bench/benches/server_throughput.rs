//! Serving throughput: a burst of requests through the continuous-batching
//! server, cached vs baseline path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pc_model::{Model, ModelConfig};
use pc_server::{Server, ServerConfig, SubmitRequest};
use pc_tokenizer::{Tokenizer, WordTokenizer};
use prompt_cache::{EngineConfig, PromptCache, ServeOptions};
use std::time::Duration;

const BURST: usize = 16;

fn build_server() -> Server {
    let doc: String = (0..200).map(|i| format!("w{} ", i % 89)).collect();
    let corpus = format!("{doc} answer briefly q0 q1 q2 q3");
    let tokenizer = WordTokenizer::train(&[corpus.as_str()]);
    let vocab = tokenizer.vocab_size().max(64);
    let engine = PromptCache::new(
        Model::new(ModelConfig::llama_small(vocab), 10),
        tokenizer,
        EngineConfig::default(),
    );
    engine
        .register_schema(&format!(
            r#"<schema name="svc"><module name="doc">{doc}</module></schema>"#
        ))
        .unwrap();
    Server::start(engine, ServerConfig::default().queue_capacity(64))
}

fn server_throughput(c: &mut Criterion) {
    let server = build_server();
    let opts = ServeOptions::default().max_new_tokens(1);
    let mut group = c.benchmark_group("server_burst16");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5));
    group.throughput(Throughput::Elements(BURST as u64));

    for baseline in [false, true] {
        let label = if baseline { "baseline" } else { "prompt_cache" };
        group.bench_with_input(BenchmarkId::from_parameter(label), &baseline, |b, &bl| {
            b.iter(|| {
                let handles: Vec<_> = (0..BURST)
                    .map(|i| {
                        let prompt = format!(
                            r#"<prompt schema="svc"><doc/>answer briefly q{}</prompt>"#,
                            i % 4
                        );
                        let request = SubmitRequest::new(prompt)
                            .options(opts.clone())
                            .baseline(bl)
                            .blocking(true);
                        server.submit_request(&request).expect("blocking submit")
                    })
                    .collect();
                for h in handles {
                    h.wait().unwrap().outcome.unwrap();
                }
            })
        });
    }
    group.finish();
    server.shutdown();
}

criterion_group!(benches, server_throughput);
criterion_main!(benches);
