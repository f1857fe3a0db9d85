//! Scheduler-level guarantees for prefix-aware batched decode: grouped
//! batches of any size respond byte-identically to solo serving (the
//! reference), while the shared-row telemetry proves the grouped kernel
//! streams shared KV once per group.

use prompt_cache::{
    BatchConfig, BatchScheduler, EngineConfig, PromptCache, Response, ServeOptions, ServeOutcome,
    ServeRequest, Served, Telemetry,
};
use pc_model::{Model, ModelConfig};
use pc_tokenizer::{Tokenizer, WordTokenizer};

const CORPUS: &str = "the miami coast has warm beaches surf and sun all year \
    tokyo offers temples gardens and remarkable food in every district \
    plan a detailed trip of days for a traveler who loves the water \
    you are a helpful travel assistant highlight surf spots please \
    answer the following question about documents provided above \
    what should i pack for the journey tell me more about it";

const SCHEMA: &str = r#"
  <schema name="trip">
    you are a helpful travel assistant
    <module name="plan">plan a detailed trip of <param name="duration" len="3"/></module>
    <union>
      <module name="miami">the miami coast has warm beaches surf and sun</module>
      <module name="tokyo">tokyo offers temples gardens and remarkable food</module>
    </union>
  </schema>"#;

/// Mix of fully cached, partially cached, parameterised, and uncached
/// prompts — so batches contain both shareable and private-only members.
const PROMPTS: [&str; 7] = [
    r#"<prompt schema="trip"><miami/>highlight surf spots please</prompt>"#,
    r#"<prompt schema="trip"><tokyo/>what should i pack</prompt>"#,
    r#"<prompt schema="trip"><plan duration="days for traveler"/><miami/>tell me more</prompt>"#,
    r#"<prompt schema="trip"><miami/></prompt>"#,
    r#"<prompt schema="trip">answer the following question</prompt>"#,
    r#"<prompt schema="trip"><plan duration="days"/><tokyo/>plan a trip</prompt>"#,
    r#"<prompt schema="trip"><plan duration="days"/>tell me more about it</prompt>"#,
];

fn engine_with(telemetry: Option<Telemetry>) -> PromptCache {
    let tokenizer = WordTokenizer::train(&[CORPUS]);
    let vocab = tokenizer.vocab_size().max(64);
    let mut config = EngineConfig::default();
    if let Some(t) = telemetry {
        config = config.telemetry(t);
    }
    let engine = PromptCache::new(Model::new(ModelConfig::llama_tiny(vocab), 42), tokenizer, config);
    engine.register_schema(SCHEMA).unwrap();
    engine
}

fn solo(engine: &PromptCache, prompt: &str, options: &ServeOptions) -> Response {
    engine
        .serve(&ServeRequest::new(prompt).options(options.clone()))
        .map(Served::into_response)
        .unwrap()
}

fn drain(sched: &mut BatchScheduler<'_>) -> Vec<(u64, Response)> {
    let mut out = Vec::new();
    while !sched.is_idle() {
        for (id, result) in sched.step() {
            out.push((id, result.unwrap()));
        }
    }
    out.sort_by_key(|(id, _)| *id);
    out
}

fn run_batch(engine: &PromptCache, config: BatchConfig, n: usize) -> Vec<(u64, Response)> {
    let options = ServeOptions::default().max_new_tokens(8);
    let mut sched = BatchScheduler::new(engine, config);
    for (i, prompt) in PROMPTS.iter().take(n).enumerate() {
        sched.admit(i as u64, prompt, &options).unwrap();
    }
    drain(&mut sched)
}

#[test]
fn grouped_batches_and_solo_agree_byte_for_byte() {
    let engine = engine_with(None);
    let options = ServeOptions::default().max_new_tokens(8);
    let references: Vec<Response> = PROMPTS.iter().map(|p| solo(&engine, p, &options)).collect();
    for n in [1usize, 2, 4, 7] {
        let grouped = run_batch(&engine, BatchConfig::default().max_batch_size(n), n);
        assert_eq!(grouped.len(), n);
        for (id, got) in grouped {
            let reference = &references[id as usize];
            assert_eq!(got.tokens, reference.tokens, "n={n} id={id}");
            assert_eq!(got.text, reference.text);
            assert_eq!(got.outcome, ServeOutcome::Complete);
        }
    }
}

#[test]
fn staggered_joins_with_mixed_schemas_preserve_identity() {
    // Admission inserts each sequence next to others sharing its leading
    // segment (keeping prefix groups adjacent); this reordering must be
    // invisible in the results even when miami/tokyo/uncached prompts
    // arrive interleaved and leave at different steps.
    let engine = engine_with(None);
    let budgets = [3usize, 9, 5, 12, 7, 6, 4];
    let references: Vec<Response> = PROMPTS
        .iter()
        .zip(budgets)
        .map(|(p, n)| solo(&engine, p, &ServeOptions::default().max_new_tokens(n)))
        .collect();

    let mut sched = BatchScheduler::new(&engine, BatchConfig::default().max_batch_size(8));
    let mut results = Vec::new();
    sched
        .admit(0, PROMPTS[0], &ServeOptions::default().max_new_tokens(budgets[0]))
        .unwrap();
    sched
        .admit(1, PROMPTS[1], &ServeOptions::default().max_new_tokens(budgets[1]))
        .unwrap();
    for late in 2..budgets.len() {
        for (id, result) in sched.step() {
            results.push((id, result.unwrap()));
        }
        sched
            .admit(
                late as u64,
                PROMPTS[late],
                &ServeOptions::default().max_new_tokens(budgets[late]),
            )
            .unwrap();
    }
    results.extend(drain(&mut sched));
    results.sort_by_key(|(id, _)| *id);

    assert_eq!(results.len(), budgets.len());
    for (id, response) in results {
        let reference = &references[id as usize];
        assert_eq!(response.tokens, reference.tokens, "id={id}");
    }
}

#[test]
fn telemetry_splits_row_traffic_into_shared_and_private() {
    let read = |telemetry: &Telemetry| {
        let snap = telemetry.snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        let shared = counter("pc_kv_rows_shared_read_total");
        let private = counter("pc_kv_rows_private_read_total");
        let ratio = snap
            .gauges
            .iter()
            .find(|(n, _)| n == "pc_batch_share_ratio")
            .map(|(_, v)| *v);
        (shared, private, ratio)
    };
    let run = |prompts: &[&str]| {
        let telemetry = Telemetry::new();
        let engine = engine_with(Some(telemetry.clone()));
        let options = ServeOptions::default().max_new_tokens(6);
        let mut sched = BatchScheduler::new(&engine, BatchConfig::default().max_batch_size(2));
        for (id, prompt) in prompts.iter().enumerate() {
            sched.admit(id as u64, prompt, &options).unwrap();
        }
        drain(&mut sched);
        read(&telemetry)
    };

    // Two sequences importing the same miami module: the module rows are
    // read once per tick and land in the shared counter.
    let (shared, private, ratio) = run(&[PROMPTS[0], PROMPTS[3]]);
    assert!(shared > 0, "module rows must be counted as shared");
    assert!(private > 0, "tails are always private");
    assert!(ratio.is_some_and(|r| (1..=100).contains(&r)), "{ratio:?}");

    // Each of them alone has no group to share with: every row it reads,
    // the module's included, is a private read.
    let (alone_shared, alone_a, _) = run(&[PROMPTS[0]]);
    let (_, alone_b, _) = run(&[PROMPTS[3]]);
    assert_eq!(alone_shared, 0, "a singleton shares nothing");
    assert!(
        alone_a + alone_b > shared + private,
        "grouping must stream fewer rows than the two run apart: \
         {alone_a} + {alone_b} vs {shared} shared + {private} private"
    );
}

#[test]
fn analytics_attributes_shared_rows_and_bytes_to_modules() {
    use pc_cache::StoreConfig;

    let tokenizer = WordTokenizer::train(&[CORPUS]);
    let vocab = tokenizer.vocab_size().max(64);
    let config =
        EngineConfig::default().store(StoreConfig::default().module_analytics(true));
    let engine =
        PromptCache::new(Model::new(ModelConfig::llama_tiny(vocab), 42), tokenizer, config);
    engine.register_schema(SCHEMA).unwrap();

    // Two sequences importing the same miami module form one shared
    // prefix group; the batched kernel streams the module's rows once
    // per tick, and the analytics table must attribute those reads (and
    // the zero-copy bytes from assembly) back to the miami module.
    let options = ServeOptions::default().max_new_tokens(6);
    let mut sched = BatchScheduler::new(&engine, BatchConfig::default().max_batch_size(2));
    sched.admit(0, PROMPTS[0], &options).unwrap();
    sched.admit(1, PROMPTS[3], &options).unwrap();

    let snapshot = sched.debug_snapshot();
    assert_eq!(snapshot.sequences.len(), 2);
    assert_eq!(snapshot.groups.len(), 1, "{snapshot:?}");
    assert!(snapshot.groups[0].shared);
    assert_eq!(snapshot.groups[0].members, vec![0, 1]);
    assert!(snapshot.groups[0].prefix_rows > 0);

    drain(&mut sched);

    // The engine stores spans under `schema:<span>/index` keys; both
    // admissions import the same miami span, so exactly those modules
    // should lead the heat ranking with shared-row and byte attribution.
    let analytics = engine.store().analytics().expect("enabled");
    let heat = analytics.snapshot();
    assert!(!heat.is_empty());
    assert!(heat.iter().all(|m| m.module.starts_with("trip:<span>/")), "{heat:?}");
    let hot = &heat[0];
    assert!(hot.hits >= 2, "both admissions fetched it: {hot:?}");
    assert!(hot.bytes_shared > 0, "zero-copy bytes attributed: {hot:?}");
    assert!(
        hot.shared_rows > 0,
        "batched prefix-group reads attributed: {hot:?}"
    );
    assert!(
        heat.iter().map(|m| m.shared_rows).sum::<u64>() > 0,
        "shared rows attributed to some module: {heat:?}"
    );
    let text = analytics.prometheus_text();
    assert!(text.contains("pc_module_shared_rows_total{module="), "{text}");
}
