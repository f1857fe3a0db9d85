//! Tests for the serving-system features layered on the core mechanism:
//! streaming decode, module persistence, schema listing, concurrent
//! registration, and schema replacement. The warm-restart edge cases
//! (laziness, int8 drift, old formats) are in `persistence_tests.rs`.

use pc_cache::{DiskConfig, StoreConfig};
use pc_model::{Model, ModelConfig};
use pc_tokenizer::{Tokenizer, WordTokenizer};
use prompt_cache::{EngineConfig, PromptCache, ServeOptions};
use prompt_cache::{ServeRequest, Served};

const CORPUS: &str = "alpha beta gamma delta epsilon zeta eta theta iota kappa \
    lambda mu nu xi omicron pi rho sigma tau upsilon answer the question now";

fn engine_with(config: EngineConfig) -> PromptCache {
    let tokenizer = WordTokenizer::train(&[CORPUS]);
    let vocab = tokenizer.vocab_size().max(64);
    PromptCache::new(Model::new(ModelConfig::llama_tiny(vocab), 77), tokenizer, config)
}

const UNION_SCHEMA: &str = r#"
  <schema name="u">
    <union>
      <module name="a">alpha beta gamma delta epsilon</module>
      <module name="b">zeta eta theta iota kappa</module>
      <module name="c">lambda mu nu xi omicron</module>
    </union>
  </schema>"#;

#[test]
fn streaming_tokens_match_response() {
    let engine = engine_with(EngineConfig::default());
    engine.register_schema(UNION_SCHEMA).unwrap();
    let streamed = std::cell::RefCell::new(Vec::new());
    let counts = std::cell::RefCell::new(Vec::new());
    let sink = |tok, n| {
        streamed.borrow_mut().push(tok);
        counts.borrow_mut().push(n);
    };
    let r = engine
        .serve(
            &ServeRequest::new(r#"<prompt schema="u"><a/>answer the question now</prompt>"#)
                .max_new_tokens(6)
                .streaming(&sink),
        )
        .map(Served::into_response)
        .unwrap();
    assert_eq!(streamed.into_inner(), r.tokens);
    assert_eq!(counts.into_inner(), (1..=r.tokens.len()).collect::<Vec<_>>());
}

#[test]
fn streaming_baseline_equivalence_preserved() {
    let engine = engine_with(EngineConfig::default());
    engine.register_schema(UNION_SCHEMA).unwrap();
    let prompt = r#"<prompt schema="u"><b/>answer the question now</prompt>"#;
    let opts = ServeOptions::default().max_new_tokens(6);
    let sink = |_, _| {};
    let streamed = engine
        .serve(
            &ServeRequest::new(prompt)
                .options(opts.clone())
                .streaming(&sink),
        )
        .map(Served::into_response)
        .unwrap();
    let plain = engine.serve(&ServeRequest::new(prompt).options(opts.clone())).map(Served::into_response).unwrap();
    assert_eq!(streamed.tokens, plain.tokens);
}

fn disk_engine(dir: &std::path::Path) -> PromptCache {
    engine_with(
        EngineConfig::default()
            .store(StoreConfig::default().disk(DiskConfig::new(dir.to_path_buf()))),
    )
}

#[test]
fn persistence_round_trip_skips_re_encoding() {
    let dir = std::env::temp_dir().join(format!("pc-engine-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // First process: register (encodes), generate a reference output,
    // persist.
    let reference = {
        let engine = disk_engine(&dir);
        let info = engine.register_schema(UNION_SCHEMA).unwrap();
        assert_eq!(info.spans, 3);
        let saved = engine.snapshot().unwrap();
        assert_eq!(saved, 3);
        engine
            .serve(&ServeRequest::new(r#"<prompt schema="u"><c/>answer the question now</prompt>"#).max_new_tokens(6)).map(Served::into_response)
            .unwrap()
            .tokens
    };

    // Second process (same seed ⇒ same weights): restore states, register —
    // no re-encoding — and serve identically.
    let engine = disk_engine(&dir);
    let loaded = engine.restore().unwrap();
    assert_eq!(loaded, 3);
    let info = engine.register_schema(UNION_SCHEMA).unwrap();
    assert_eq!(info.spans, 3, "preloaded spans counted");
    let r = engine
        .serve(&ServeRequest::new(r#"<prompt schema="u"><c/>answer the question now</prompt>"#).max_new_tokens(6)).map(Served::into_response)
        .unwrap();
    assert_eq!(r.stats.degraded_spans, 0, "no recompute after restore");
    assert_eq!(r.tokens, reference);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn persisted_states_are_bit_identical_to_fresh_encoding() {
    let dir = std::env::temp_dir().join(format!("pc-engine-bits-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fresh = disk_engine(&dir);
    fresh.register_schema(UNION_SCHEMA).unwrap();
    fresh.snapshot().unwrap();

    let restored = disk_engine(&dir);
    restored.restore().unwrap();
    restored.register_schema(UNION_SCHEMA).unwrap();
    // Bytes held must match exactly (f32-exact codec round trip).
    assert_eq!(fresh.cached_bytes(), restored.cached_bytes());
    drop(fresh);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn schema_listing_apis() {
    let engine = engine_with(EngineConfig::default());
    assert!(engine.schema_names().is_empty());
    engine.register_schema(UNION_SCHEMA).unwrap();
    assert_eq!(engine.schema_names(), vec!["u".to_string()]);
    assert!(engine.has_schema("u"));
    assert!(!engine.has_schema("ghost"));
    engine.unregister_schema("u");
    assert!(!engine.has_schema("u"));
}

#[test]
fn concurrent_registration_and_serving_is_safe() {
    // One thread registers/unregisters new schemas while others serve an
    // existing one: no panics, serving stays correct.
    let engine = std::sync::Arc::new(engine_with(EngineConfig::default()));
    engine.register_schema(UNION_SCHEMA).unwrap();
    let reference = engine
        .serve(&ServeRequest::new(r#"<prompt schema="u"><a/>answer the question now</prompt>"#).max_new_tokens(3)).map(Served::into_response)
        .unwrap()
        .tokens;
    std::thread::scope(|s| {
        for _ in 0..3 {
            let engine = std::sync::Arc::clone(&engine);
            let reference = reference.clone();
            s.spawn(move || {
                for _ in 0..20 {
                    let r = engine
                        .serve(&ServeRequest::new(r#"<prompt schema="u"><a/>answer the question now</prompt>"#).max_new_tokens(3)).map(Served::into_response)
                        .unwrap();
                    assert_eq!(r.tokens, reference);
                }
            });
        }
        let engine = std::sync::Arc::clone(&engine);
        s.spawn(move || {
            for i in 0..10 {
                let name = format!("temp{i}");
                engine
                    .register_schema(&format!(
                        r#"<schema name="{name}"><module name="m">alpha beta gamma</module></schema>"#
                    ))
                    .unwrap();
                engine.unregister_schema(&name);
            }
        });
    });
    assert!(engine.has_schema("u"));
}

#[test]
fn replace_schema_reencodes_only_changed_modules() {
    let engine = engine_with(EngineConfig::default());
    engine.register_schema(UNION_SCHEMA).unwrap();
    let bytes_before = engine.cached_bytes();
    let reference = engine
        .serve(&ServeRequest::new(r#"<prompt schema="u"><b/>answer the question now</prompt>"#).max_new_tokens(4)).map(Served::into_response)
        .unwrap()
        .tokens;

    // Append-only extension: a fourth union member plus a new module.
    let extended = r#"
      <schema name="u">
        <union>
          <module name="a">alpha beta gamma delta epsilon</module>
          <module name="b">zeta eta theta iota kappa</module>
          <module name="c">lambda mu nu xi omicron</module>
        </union>
        <module name="extra">pi rho sigma tau upsilon</module>
      </schema>"#;
    let info = engine.replace_schema(extended).unwrap();
    assert_eq!(info.spans, 4);
    // Old modules reused, only `extra`'s 5 tokens newly encoded.
    assert!(engine.cached_bytes() > bytes_before);
    // Unchanged module serves identically to the pre-replace engine.
    let after = engine
        .serve(&ServeRequest::new(r#"<prompt schema="u"><b/>answer the question now</prompt>"#).max_new_tokens(4)).map(Served::into_response)
        .unwrap();
    assert_eq!(after.tokens, reference);
    // The new module serves too.
    let extra = engine
        .serve(&ServeRequest::new(r#"<prompt schema="u"><extra/>answer</prompt>"#).max_new_tokens(2)).map(Served::into_response)
        .unwrap();
    assert_eq!(extra.stats.cached_tokens, 5);
}

#[test]
fn replace_schema_drops_stale_spans_and_scaffolds() {
    let engine = engine_with(EngineConfig::default());
    engine
        .register_schema(
            r#"<schema name="r">
                 <module name="a">alpha beta gamma</module>
                 <module name="b">delta epsilon zeta</module>
               </schema>"#,
        )
        .unwrap();
    engine.add_scaffold("r", &["a", "b"]).unwrap();
    let bytes_with_two = engine.cached_bytes();
    // Shrink to one module: span 1 and the scaffold must be dropped.
    engine
        .replace_schema(r#"<schema name="r"><module name="a">alpha beta gamma</module></schema>"#)
        .unwrap();
    assert!(engine.cached_bytes() < bytes_with_two);
    let r = engine
        .serve(&ServeRequest::new(r#"<prompt schema="r"><a/>answer</prompt>"#).max_new_tokens(1)).map(Served::into_response)
        .unwrap();
    assert_eq!(r.stats.cached_tokens, 3);
    assert!(!r.stats.used_scaffold);
}
