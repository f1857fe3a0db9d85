//! Cross-crate integration tests: workload generation → PML → engine →
//! metrics → storage features, exercised together.

use pc_longbench::{metrics, DatasetSpec, Workload};
use pc_model::{Family, Model, ModelConfig};
use pc_tokenizer::{Tokenizer, WordTokenizer};
use prompt_cache::{EngineConfig, PromptCache, ServeOptions};
use prompt_cache::{ServeRequest, Served};

fn small_opts(n: usize) -> ServeOptions {
    ServeOptions::default().max_new_tokens(n)
}

#[test]
fn longbench_pipeline_end_to_end() {
    // Workload → schema/prompt PML → engine → scored outputs, for one
    // dataset per category.
    for name in [
        "NarrativeQA",
        "HotpotQA",
        "GovReport",
        "TREC",
        "PassageCount",
        "LCC",
    ] {
        let spec = DatasetSpec::by_name(name).unwrap();
        let sample = Workload::new(spec, 3, 0.02).sample(0);
        let engine = pc_bench::measured::engine_for_sample(&sample, Family::Llama, 3);
        engine.register_schema(&sample.schema_pml("it")).unwrap();
        let r = engine
            .serve(&ServeRequest::new(sample.prompt_pml("it")).options(small_opts(4).clone())).map(Served::into_response)
            .unwrap();
        assert!(r.stats.cached_tokens > 0, "{name}");
        let score = metrics::score(spec.metric, &r.text, &sample.answer);
        assert!((0.0..=1.0).contains(&score), "{name}");
    }
}

#[test]
fn all_21_datasets_serve_from_cache() {
    for spec in &pc_longbench::datasets::ALL {
        let sample = Workload::new(spec, 1, 0.01).sample(0);
        let engine = pc_bench::measured::engine_for_sample(&sample, Family::Llama, 1);
        engine.register_schema(&sample.schema_pml("all")).unwrap();
        let r = engine
            .serve(&ServeRequest::new(sample.prompt_pml("all")).options(small_opts(1).clone())).map(Served::into_response)
            .unwrap();
        assert_eq!(
            r.stats.cached_tokens,
            sample.context_words(),
            "{}",
            spec.name
        );
        assert_eq!(r.stats.new_tokens, sample.question_words(), "{}", spec.name);
    }
}

#[test]
fn codec_round_trips_an_engine_encoded_module() {
    // Encode a module with the real model, serialise, deserialise, and
    // verify the states are byte-identical.
    let model = Model::new(ModelConfig::llama_tiny(64), 5);
    let seg = model
        .encode_segment(&[1, 2, 3, 4, 5], &[10, 11, 12, 13, 14])
        .unwrap();
    let bytes = pc_cache::codec::encode(&seg);
    let decoded = pc_cache::codec::decode(&bytes).unwrap();
    assert_eq!(decoded, seg);
}

#[test]
fn simulator_agrees_with_measurement_on_direction_and_shape() {
    // The measured engine and the analytic simulator must agree that (a)
    // caching wins, and (b) the baseline grows faster than linearly while
    // the cached path grows roughly linearly.
    let (b_small, p_small) = pc_bench::experiments::measured_fully_cached(128);
    let (b_large, p_large) = pc_bench::experiments::measured_fully_cached(512);
    assert!(b_small > p_small && b_large > p_large);
    // 4× tokens → baseline more than 4× (quadratic term), cached < 16×.
    assert!(b_large / b_small > 3.0, "{b_small} -> {b_large}");
    assert!(p_large / p_small < b_large / b_small);
}

#[test]
fn host_tier_eviction_with_real_modules() {
    // A host tier that holds about one module, with no disk tier below:
    // serving the two modules alternately drops one to admit the other,
    // and later serves re-encode what they need (the degrade path) with
    // the same bytes an unbounded engine serves.
    use pc_cache::{EvictionPolicy, StoreConfig};
    let doc1 = "alpha beta gamma delta epsilon zeta eta theta";
    let doc2 = "one two three four five six seven eight nine ten";
    let build = |store: StoreConfig| {
        let tokenizer = WordTokenizer::train(&[doc1, doc2, "question"]);
        let vocab = tokenizer.vocab_size().max(64);
        let engine = PromptCache::new(
            Model::new(ModelConfig::llama_tiny(vocab), 2),
            tokenizer,
            EngineConfig::default().store(store),
        );
        engine
            .register_schema(&format!(
                r#"<schema name="ev"><module name="a">{doc1}</module><module name="b">{doc2}</module></schema>"#
            ))
            .unwrap();
        engine
    };
    // Capacity ≈ one 8-token module (2 layers × kv 64 × 2 × 8 tokens × 4B).
    let bounded = build(
        StoreConfig::default()
            .host_capacity_bytes(9000)
            .policy(EvictionPolicy::Lru),
    );
    let unbounded = build(StoreConfig::default());
    for round in 0..3 {
        for prompt in [
            r#"<prompt schema="ev"><a/>question</prompt>"#,
            r#"<prompt schema="ev"><b/>question</prompt>"#,
        ] {
            let serve = |engine: &PromptCache| {
                engine
                    .serve(&ServeRequest::new(prompt).options(small_opts(1)))
                    .map(Served::into_response)
                    .unwrap()
            };
            let got = serve(&bounded);
            assert_eq!(got.tokens, serve(&unbounded).tokens, "{prompt}");
            if round > 0 {
                assert!(got.stats.degraded_spans > 0, "{prompt} was still resident");
            }
        }
    }
    assert!(bounded.store_stats().evictions > 0);
    assert_eq!(unbounded.store_stats().evictions, 0);
}

#[test]
fn chat_template_compiles_into_cached_text() {
    let corpus = "be helpful and honest answer the question now please";
    let tokenizer = WordTokenizer::train(&[corpus]);
    let vocab = tokenizer.vocab_size().max(64);
    let engine = PromptCache::new(
        Model::new(ModelConfig::llama_tiny(vocab), 4),
        tokenizer,
        EngineConfig::default().template(pc_pml::template::ChatTemplate::Llama2),
    );
    engine
        .register_schema(
            r#"<schema name="chat"><system>be helpful and honest</system></schema>"#,
        )
        .unwrap();
    let r = engine
        .serve(&ServeRequest::new(r#"<prompt schema="chat">answer the question now</prompt>"#).max_new_tokens(1)).map(Served::into_response)
        .unwrap();
    // [INST] <<SYS>> markers + system text are anonymous cached tokens.
    assert!(r.stats.cached_tokens > 4, "{:?}", r.stats);
}

#[test]
fn parallel_encode_matches_serial() {
    let schema = r#"<schema name="par">
        <module name="a">one two three four five</module>
        <module name="b">six seven eight nine ten</module>
        <module name="c">alpha beta gamma delta</module>
      </schema>"#;
    let corpus = "one two three four five six seven eight nine ten alpha beta gamma delta go";
    let build = |threads: usize| {
        let tokenizer = WordTokenizer::train(&[corpus]);
        let vocab = tokenizer.vocab_size().max(64);
        let engine = PromptCache::new(
            Model::new(ModelConfig::llama_tiny(vocab), 12),
            tokenizer,
            EngineConfig::default().parallelism(prompt_cache::Parallelism::with_threads(threads)),
        );
        engine.register_schema(schema).unwrap();
        engine
    };
    let serial = build(1);
    let parallel = build(4);

    // Concurrent registration must store **byte-identical** KV states for
    // every span, not merely similar ones: compare the raw f32 bit
    // patterns of keys, values, and position ids.
    let a = serial.schema_span_states("par");
    let b = parallel.schema_span_states("par");
    assert_eq!(a.len(), b.len());
    assert!(a.iter().any(|s| s.is_some()), "no spans were cached");
    for (i, (sa, sb)) in a.iter().zip(&b).enumerate() {
        match (sa, sb) {
            (None, None) => {}
            (Some(sa), Some(sb)) => {
                assert_eq!(sa.positions(), sb.positions(), "span {i} positions");
                for layer in 0..sa.num_layers() {
                    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(sa.keys(layer)),
                        bits(sb.keys(layer)),
                        "span {i} layer {layer} keys"
                    );
                    assert_eq!(
                        bits(sa.values(layer)),
                        bits(sb.values(layer)),
                        "span {i} layer {layer} values"
                    );
                }
            }
            _ => panic!("span {i} cached on one path only"),
        }
    }

    // And the end-to-end generation must agree too.
    let serve = |engine: &prompt_cache::PromptCache| {
        engine
            .serve(&ServeRequest::new(r#"<prompt schema="par"><a/><b/><c/>go</prompt>"#).max_new_tokens(6)).map(Served::into_response)
            .unwrap()
            .tokens
    };
    assert_eq!(serve(&serial), serve(&parallel));
}

#[test]
fn figure_reports_are_consistent() {
    // fig3's JSON speedups must match what the markdown narrates: GPU-mem
    // faster than CPU-mem, both faster than baseline.
    let report = pc_bench::experiments::run("fig3", true).unwrap();
    for row in report.json["rows"].as_array().unwrap() {
        let base = row["baseline_s"].as_f64().unwrap();
        let host = row["pc_cpu_mem_s"].as_f64().unwrap();
        let dev = row["pc_gpu_mem_s"].as_f64().unwrap();
        assert!(dev <= host && host < base, "{row}");
    }
}

#[test]
fn table2_reproduction_within_tolerance() {
    let report = pc_bench::experiments::run("table2", true).unwrap();
    for row in report.json["rows"].as_array().unwrap() {
        let paper = row["paper"].as_f64().unwrap();
        let got = row["reproduced"].as_f64().unwrap();
        assert!(
            (got - paper).abs() / paper < 0.3,
            "{}: {got} vs {paper}",
            row["llm"]
        );
    }
}

#[test]
fn unified_error_taxonomy_round_trips() {
    // The facade's `pc` module is the one-stop error surface: engine
    // errors ARE `pc::Error`, and the serving taxonomy re-exports are
    // the same types the server crate hands back.
    use prompt_cache_repro::pc;

    let engine_err: pc::Error = prompt_cache::EngineError::EmptyPrompt;
    assert_eq!(engine_err.to_string(), "prompt has no content");

    let shed: pc::ShedReason = pc_server::ShedReason::ShuttingDown;
    assert_eq!(shed, pc_server::ShedReason::ShuttingDown);
    let submit: pc::SubmitError = pc_server::SubmitError::QueueFull;
    assert!(matches!(submit, pc::SubmitError::QueueFull));
    let outcome: pc::ServeOutcome = prompt_cache::ServeOutcome::Complete;
    assert_eq!(outcome, pc::ServeOutcome::Complete);

    fn engine_result(ok: bool) -> pc::Result<u32> {
        if ok {
            Ok(1)
        } else {
            Err(pc::Error::EmptyPrompt)
        }
    }
    assert_eq!(engine_result(true).unwrap(), 1);
    assert!(engine_result(false).is_err());
}
