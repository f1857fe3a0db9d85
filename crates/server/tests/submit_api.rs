//! `SubmitRequest`: the builder's setters reach the engine's
//! `ServeOptions`, and a deadline rides through `Server::submit_request`.

use pc_model::{Model, ModelConfig};
use pc_server::{Server, ServerConfig, SubmitRequest};
use pc_tokenizer::{Tokenizer, WordTokenizer};
use prompt_cache::{EngineConfig, PromptCache, ServeOptions};
use std::time::Duration;

const CORPUS: &str = "alpha beta gamma delta epsilon zeta eta theta answer the question";
const SCHEMA: &str = r#"<schema name="s"><module name="ctx">alpha beta gamma delta epsilon zeta eta theta</module></schema>"#;
const PROMPT: &str = r#"<prompt schema="s"><ctx/>answer the question</prompt>"#;

fn engine() -> PromptCache {
    let tokenizer = WordTokenizer::train(&[CORPUS]);
    let vocab = tokenizer.vocab_size().max(64);
    let engine = PromptCache::new(
        Model::new(ModelConfig::llama_tiny(vocab), 5),
        tokenizer,
        EngineConfig::default(),
    );
    engine.register_schema(SCHEMA).unwrap();
    engine
}

fn opts() -> ServeOptions {
    ServeOptions::default().max_new_tokens(3)
}

#[test]
fn builder_setters_populate_serve_options() {
    let request = SubmitRequest::new(PROMPT)
        .max_new_tokens(7)
        .use_scaffolds(false)
        .temperature(0.5, 9)
        .deadline(Duration::from_secs(3));
    assert_eq!(request.prompt(), PROMPT);
    assert_eq!(request.options_ref().max_new_tokens, 7);
    assert!(!request.options_ref().use_scaffolds);
    assert_eq!(request.options_ref().temperature, Some((0.5, 9)));
    assert_eq!(request.options_ref().deadline, Some(Duration::from_secs(3)));
    assert!(!request.is_baseline());
    assert!(!request.is_blocking(), "non-blocking is the default");
}

#[test]
fn deadline_rides_through_submit_request() {
    let server = Server::start(engine(), ServerConfig::default());
    let result = server
        .submit_request(
            &SubmitRequest::new(PROMPT)
                .options(opts())
                .deadline(Duration::from_secs(30))
                .blocking(true),
        )
        .unwrap()
        .wait()
        .unwrap();
    assert!(result.outcome.is_ok(), "{:?}", result.outcome);
    server.shutdown();
}
