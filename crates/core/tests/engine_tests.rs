//! End-to-end engine tests: the correctness claims of cached inference.
//!
//! The central one is **reuse ≡ recomputation**: when a prompt's prefix is
//! one cached module, Prompt Cache must produce exactly the tokens the
//! baseline full prefill produces, because causal attention makes the
//! module's states identical in both paths. Multi-module prompts introduce
//! the paper's documented cross-module masking approximation; scaffolds
//! (§3.3) remove it again, which the tests also pin down.

use pc_model::{Family, Model, ModelConfig};
use pc_tokenizer::WordTokenizer;
use prompt_cache::{EngineConfig, EngineError, PromptCache, ServeOptions};
use prompt_cache::{ServeRequest, Served};

const CORPUS: &str = "the miami coast has warm beaches surf and sun all year \
    tokyo offers temples gardens and remarkable food in every district \
    plan a detailed trip of days for a traveler who loves the water \
    you are a helpful travel assistant highlight surf spots please \
    answer the following question about documents provided above";

fn engine(family: Family) -> PromptCache {
    let cfg = match family {
        Family::Llama => ModelConfig::llama_tiny(256),
        Family::Falcon => ModelConfig::falcon_tiny(256),
        Family::Mpt => ModelConfig::mpt_tiny(256),
        Family::Gpt2 => ModelConfig::gpt2_tiny(256),
    };
    let model = Model::new(cfg, 42);
    let tokenizer = WordTokenizer::train(&[CORPUS]);
    PromptCache::new(model, tokenizer, EngineConfig::default())
}

const SINGLE_MODULE: &str = r#"
  <schema name="doc">
    <module name="beach">
      the miami coast has warm beaches surf and sun all year
    </module>
  </schema>"#;

const MULTI_MODULE: &str = r#"
  <schema name="trip">
    you are a helpful travel assistant
    <module name="plan">plan a detailed trip of <param name="duration" len="3"/></module>
    <union>
      <module name="miami">the miami coast has warm beaches surf and sun</module>
      <module name="tokyo">tokyo offers temples gardens and remarkable food</module>
    </union>
  </schema>"#;

#[test]
fn single_module_cached_equals_baseline_exactly() {
    // One module covering the whole prefix: cached inference sees exactly
    // the states a full prefill computes, so greedy outputs must agree.
    for family in [Family::Llama, Family::Falcon, Family::Mpt, Family::Gpt2] {
        let engine = engine(family);
        engine.register_schema(SINGLE_MODULE).unwrap();
        let prompt = r#"<prompt schema="doc"><beach/>highlight surf spots please</prompt>"#;
        let opts = ServeOptions::default().max_new_tokens(8);
        let cached = engine.serve(&ServeRequest::new(prompt).options(opts.clone())).map(Served::into_response).unwrap();
        let baseline = engine.serve(&ServeRequest::new(prompt).options(opts.clone()).baseline(true)).map(Served::into_response).unwrap();
        assert_eq!(
            cached.tokens, baseline.tokens,
            "family {family:?}: cached {:?} vs baseline {:?}",
            cached.text, baseline.text
        );
        assert!(cached.stats.cached_tokens > 0);
        assert_eq!(baseline.stats.cached_tokens, 0);
    }
}

#[test]
fn serve_reports_cache_split() {
    let engine = engine(Family::Llama);
    engine.register_schema(SINGLE_MODULE).unwrap();
    let r = engine
        .serve(&ServeRequest::new(r#"<prompt schema="doc"><beach/>highlight surf spots please</prompt>"#).max_new_tokens(4)).map(Served::into_response)
        .unwrap();
    assert_eq!(r.stats.cached_tokens, 11); // module tokens
    assert_eq!(r.stats.new_tokens, 4);
    assert!((r.stats.hit_ratio() - 11.0 / 15.0).abs() < 1e-9);
    assert!(r.stats.bytes_reused > 0);
    assert_eq!(r.tokens.len(), 4);
}

#[test]
fn parameters_substitute_and_match_baseline_when_full_width() {
    // Argument exactly fills the declared slot → position layout matches
    // the baseline exactly; single-module schema keeps attention equal.
    let engine = engine(Family::Llama);
    engine
        .register_schema(
            r#"<schema name="p">
                 <module name="plan">plan a detailed trip of <param name="duration" len="3"/></module>
               </schema>"#,
        )
        .unwrap();
    let prompt =
        r#"<prompt schema="p"><plan duration="days for traveler"/>highlight surf spots</prompt>"#;
    let opts = ServeOptions::default().max_new_tokens(6);
    let cached = engine.serve(&ServeRequest::new(prompt).options(opts.clone())).map(Served::into_response).unwrap();
    let baseline = engine.serve(&ServeRequest::new(prompt).options(opts.clone()).baseline(true)).map(Served::into_response).unwrap();
    assert_eq!(cached.tokens, baseline.tokens);
    // 5 module text tokens cached; 3 argument + 3 text computed.
    assert_eq!(cached.stats.cached_tokens, 5);
    assert_eq!(cached.stats.new_tokens, 6);
}

#[test]
fn short_arguments_leave_trailing_gap() {
    let engine = engine(Family::Llama);
    engine.register_schema(MULTI_MODULE).unwrap();
    let r = engine
        .serve(&ServeRequest::new(r#"<prompt schema="trip"><plan duration="days"/><miami/>highlight surf spots</prompt>"#).max_new_tokens(4)).map(Served::into_response)
        .unwrap();
    // plan text (5) + miami (8) + anonymous (6) cached; 1 arg + 3 text new.
    assert_eq!(r.stats.new_tokens, 4);
    assert!(r.tokens.len() <= 4);
}

#[test]
fn union_members_are_mutually_exclusive_but_both_usable() {
    let engine = engine(Family::Llama);
    engine.register_schema(MULTI_MODULE).unwrap();
    let opts = ServeOptions::default().max_new_tokens(4);
    let miami = engine
        .serve(&ServeRequest::new(r#"<prompt schema="trip"><miami/>highlight surf spots</prompt>"#).options(opts.clone())).map(Served::into_response)
        .unwrap();
    let tokyo = engine
        .serve(&ServeRequest::new(r#"<prompt schema="trip"><tokyo/>highlight surf spots</prompt>"#).options(opts.clone())).map(Served::into_response)
        .unwrap();
    // Different selected context should generally steer generation apart —
    // at minimum both must serve from cache successfully.
    assert!(miami.stats.cached_tokens > 0 && tokyo.stats.cached_tokens > 0);
    let both = engine.serve(&ServeRequest::new(r#"<prompt schema="trip"><miami/><tokyo/>x</prompt>"#).options(opts.clone())).map(Served::into_response);
    assert!(matches!(
        both,
        Err(EngineError::Pml(pc_pml::PmlError::UnionConflict { .. }))
    ));
}

#[test]
fn scaffold_restores_baseline_equivalence() {
    // Two separate modules diverge from the baseline (masking effect);
    // scaffolding them back together must restore exact agreement.
    let schema = r#"
      <schema name="two">
        <module name="a">the miami coast has warm beaches</module>
        <module name="b">tokyo offers temples gardens and remarkable food</module>
      </schema>"#;
    let prompt = r#"<prompt schema="two"><a/><b/>answer the following question</prompt>"#;
    let opts = ServeOptions::default().max_new_tokens(8);

    let engine = engine(Family::Llama);
    engine.register_schema(schema).unwrap();
    engine.add_scaffold("two", &["a", "b"]).unwrap();

    let scaffolded = engine.serve(&ServeRequest::new(prompt).options(opts.clone())).map(Served::into_response).unwrap();
    assert!(scaffolded.stats.used_scaffold);
    let baseline = engine.serve(&ServeRequest::new(prompt).options(opts.clone()).baseline(true)).map(Served::into_response).unwrap();
    assert_eq!(scaffolded.tokens, baseline.tokens);

    // Without scaffolds, the masking approximation is in play (states are
    // genuinely different even if greedy tokens may coincide).
    let masked = engine
        .serve(&ServeRequest::new(prompt).options(opts.clone().use_scaffolds(false).clone())).map(Served::into_response)
        .unwrap();
    assert!(!masked.stats.used_scaffold);
}

#[test]
fn scaffold_requires_known_plain_modules() {
    let engine = engine(Family::Llama);
    engine.register_schema(MULTI_MODULE).unwrap();
    assert!(matches!(
        engine.add_scaffold("trip", &["missing"]),
        Err(EngineError::InvalidScaffold { .. })
    ));
    assert!(matches!(
        engine.add_scaffold("trip", &["plan"]), // has a parameter
        Err(EngineError::InvalidScaffold { .. })
    ));
    assert!(matches!(
        engine.add_scaffold("nope", &["miami"]),
        Err(EngineError::UnknownSchema { .. })
    ));
}

#[test]
fn module_only_prompt_still_generates() {
    let engine = engine(Family::Llama);
    engine.register_schema(SINGLE_MODULE).unwrap();
    let r = engine
        .serve(&ServeRequest::new(r#"<prompt schema="doc"><beach/></prompt>"#).max_new_tokens(4)).map(Served::into_response)
        .unwrap();
    assert_eq!(r.tokens.len(), 4);
    // The re-derived final token costs one row of cache reuse.
    assert_eq!(r.stats.cached_tokens, 11);
    assert_eq!(r.stats.new_tokens, 0);
}

#[test]
fn module_only_prompt_matches_baseline() {
    let engine = engine(Family::Llama);
    engine.register_schema(SINGLE_MODULE).unwrap();
    let prompt = r#"<prompt schema="doc"><beach/></prompt>"#;
    let opts = ServeOptions::default().max_new_tokens(6);
    let cached = engine.serve(&ServeRequest::new(prompt).options(opts.clone())).map(Served::into_response).unwrap();
    let baseline = engine.serve(&ServeRequest::new(prompt).options(opts.clone()).baseline(true)).map(Served::into_response).unwrap();
    assert_eq!(cached.tokens, baseline.tokens);
}

#[test]
fn unknown_schema_and_duplicate_registration() {
    let engine = engine(Family::Llama);
    assert!(matches!(
        engine.serve(&ServeRequest::new(r#"<prompt schema="ghost">x</prompt>"#).max_new_tokens(1)).map(Served::into_response),
        Err(EngineError::UnknownSchema { .. })
    ));
    engine.register_schema(SINGLE_MODULE).unwrap();
    assert!(matches!(
        engine.register_schema(SINGLE_MODULE),
        Err(EngineError::SchemaAlreadyRegistered { .. })
    ));
    engine.unregister_schema("doc");
    assert!(engine.register_schema(SINGLE_MODULE).is_ok());
}

#[test]
fn empty_prompt_rejected() {
    let engine = engine(Family::Llama);
    engine
        .register_schema(r#"<schema name="empty"><module name="m"></module></schema>"#)
        .unwrap();
    assert!(matches!(
        engine.serve(&ServeRequest::new(r#"<prompt schema="empty"></prompt>"#).max_new_tokens(1)).map(Served::into_response),
        Err(EngineError::EmptyPrompt)
    ));
}

#[test]
fn decode_is_deterministic_across_serves() {
    let engine = engine(Family::Llama);
    engine.register_schema(SINGLE_MODULE).unwrap();
    let prompt = r#"<prompt schema="doc"><beach/>highlight surf spots</prompt>"#;
    let a = engine.serve(&ServeRequest::new(prompt).max_new_tokens(8)).map(Served::into_response).unwrap();
    let b = engine.serve(&ServeRequest::new(prompt).max_new_tokens(8)).map(Served::into_response).unwrap();
    assert_eq!(a.tokens, b.tokens);
}

#[test]
fn temperature_sampling_is_seeded() {
    let engine = engine(Family::Llama);
    engine.register_schema(SINGLE_MODULE).unwrap();
    let prompt = r#"<prompt schema="doc"><beach/>highlight surf spots</prompt>"#;
    let opts = |seed| ServeOptions::default().max_new_tokens(8).temperature(0.8, seed);
    let a = engine.serve(&ServeRequest::new(prompt).options(opts(7).clone())).map(Served::into_response).unwrap();
    let b = engine.serve(&ServeRequest::new(prompt).options(opts(7).clone())).map(Served::into_response).unwrap();
    assert_eq!(a.tokens, b.tokens);
}

#[test]
fn ttft_improves_over_baseline_for_long_modules() {
    // Not a micro-benchmark — just the directional claim on a module big
    // enough that prefill dominates.
    let doc: String = (0..400).map(|i| format!("w{} ", i % 37)).collect();
    let schema = format!(r#"<schema name="big"><module name="doc">{doc}</module></schema>"#);
    let model = Model::new(ModelConfig::llama_tiny(300), 3);
    let tokenizer = WordTokenizer::train(&[doc.as_str(), "what is the answer"]);
    let engine = PromptCache::new(model, tokenizer, EngineConfig::default());
    engine.register_schema(&schema).unwrap();
    let prompt = r#"<prompt schema="big"><doc/>what is the answer</prompt>"#;
    let opts = ServeOptions::default().max_new_tokens(1);
    // Warm up once, then compare.
    engine.serve(&ServeRequest::new(prompt).options(opts.clone())).map(Served::into_response).unwrap();
    let cached = engine.serve(&ServeRequest::new(prompt).options(opts.clone())).map(Served::into_response).unwrap();
    let baseline = engine.serve(&ServeRequest::new(prompt).options(opts.clone()).baseline(true)).map(Served::into_response).unwrap();
    assert!(
        cached.timings.ttft < baseline.timings.ttft,
        "cached {:?} >= baseline {:?}",
        cached.timings.ttft,
        baseline.timings.ttft
    );
}

#[test]
fn store_stats_reflect_serving() {
    let engine = engine(Family::Llama);
    engine.register_schema(SINGLE_MODULE).unwrap();
    let before = engine.store_stats();
    engine
        .serve(&ServeRequest::new(r#"<prompt schema="doc"><beach/>question</prompt>"#).max_new_tokens(1)).map(Served::into_response)
        .unwrap();
    let after = engine.store_stats();
    assert!(after.hits > before.hits);
    assert!(engine.cached_bytes() > 0);
}

#[test]
fn prompt_program_schema_serves() {
    use pc_pml::program::PromptProgram;
    let schema = PromptProgram::new("prog")
        .text("you are a helpful travel assistant")
        .cond("surf", |m| m.text("the miami coast has warm beaches surf"))
        .build();
    let engine = engine(Family::Llama);
    engine.register_schema_ast(&schema).unwrap();
    let r = engine
        .serve(&ServeRequest::new(r#"<prompt schema="prog"><surf/>plan a trip</prompt>"#).max_new_tokens(3)).map(Served::into_response)
        .unwrap();
    assert!(r.stats.cached_tokens > 0);
}

#[test]
fn bpe_tokenizer_serves_with_documented_boundary_caveat() {
    // With a sub-word (byte-level BPE) tokenizer, the cached path encodes
    // each segment independently while the baseline encodes the rendered
    // prompt as one string — so whitespace/merges at segment boundaries
    // can legitimately differ between the two paths (the paper's HF
    // prototype shares this property; its tokenizers split on whitespace,
    // hiding it). The engine must still serve correctly and account
    // exactly.
    use pc_tokenizer::{BpeTokenizer, Tokenizer};
    let corpus = "the miami coast has warm beaches surf and sun highlight surf spots";
    let tokenizer = BpeTokenizer::train(&[corpus], 340);
    let module_text = "the miami coast has warm beaches";
    let module_tokens = tokenizer.encode(module_text).len();
    let question = "highlight surf spots";
    let question_tokens = tokenizer.encode(question).len();
    let model = Model::new(ModelConfig::llama_tiny(512), 42);
    let engine = PromptCache::new(model, tokenizer, EngineConfig::default());
    engine
        .register_schema(&format!(
            r#"<schema name="bpe"><module name="m">{module_text}</module></schema>"#
        ))
        .unwrap();
    let r = engine
        .serve(&ServeRequest::new(format!(r#"<prompt schema="bpe"><m/>{question}</prompt>"#)).max_new_tokens(4)).map(Served::into_response)
        .unwrap();
    assert_eq!(r.stats.cached_tokens, module_tokens);
    assert_eq!(r.stats.new_tokens, question_tokens);
    assert_eq!(r.tokens.len(), 4);
    // Baseline path also serves; token streams may differ only through
    // the boundary-whitespace encoding, never through reuse itself.
    let baseline = engine
        .serve(&ServeRequest::new(format!(r#"<prompt schema="bpe"><m/>{question}</prompt>"#)).options(ServeOptions::default().max_new_tokens(4)).baseline(true)).map(Served::into_response)
        .unwrap();
    assert_eq!(baseline.tokens.len(), 4);
}

#[test]
fn cold_registration_serves_byte_identically() {
    // A cold registration (RegisterOptions::warm(false)) records the
    // layout but encodes nothing; serving re-encodes missing modules
    // through the degrade-on-miss path. The fleet relies on this for
    // non-owner workers, so the output must match a warm engine exactly.
    use prompt_cache::RegisterOptions;
    let warm = engine(Family::Llama);
    warm.register_schema(MULTI_MODULE).unwrap();
    let cold = engine(Family::Llama);
    let info = cold
        .register_schema_with(MULTI_MODULE, &RegisterOptions::new().warm(false))
        .unwrap();
    assert_eq!(info.cached_tokens, 0, "cold registration encodes nothing");
    assert_eq!(cold.cached_bytes(), 0);

    let prompt = r#"<prompt schema="trip"><plan duration="two"/><miami/>please</prompt>"#;
    let opts = ServeOptions::default().max_new_tokens(8);
    let a = warm
        .serve(&ServeRequest::new(prompt).options(opts.clone()))
        .map(Served::into_response)
        .unwrap();
    let b = cold
        .serve(&ServeRequest::new(prompt).options(opts.clone()))
        .map(Served::into_response)
        .unwrap();
    assert_eq!(a.tokens, b.tokens);
    assert_eq!(a.text, b.text);
    assert!(b.stats.degraded_spans > 0, "cold serve re-encoded spans");
    // After the first serve the re-encoded modules are hot: a second
    // serve hits them without degrading.
    let c = cold
        .serve(&ServeRequest::new(prompt).options(opts))
        .map(Served::into_response)
        .unwrap();
    assert_eq!(a.tokens, c.tokens);
    assert_eq!(c.stats.degraded_spans, 0);
}
