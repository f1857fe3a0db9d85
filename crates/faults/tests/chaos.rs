//! Chaos integration tests: injected faults against the real engine and
//! server, proving graceful degradation (byte-identical output under
//! cache loss/corruption) and deadline shedding (no wasted batch slots).

use pc_cache::{FetchFault, FetchFaultInjector, ModuleKey, StoreConfig};
use pc_faults::{FaultConfig, FaultPlan};
use pc_model::{Model, ModelConfig};
use pc_server::{RequestHandle, RequestOutcome, Server, ServerConfig, ShedReason, SubmitRequest};
use pc_tokenizer::{Tokenizer, WordTokenizer};
use prompt_cache::{EngineConfig, PromptCache, ServeOptions, ServeOutcome};
use std::sync::Arc;
use std::time::Duration;
use prompt_cache::{ServeRequest, Served};

const CORPUS: &str =
    "alpha beta gamma delta epsilon zeta eta theta question one two three four";
const SCHEMA: &str = r#"<schema name="s">
    <module name="ctx">alpha beta gamma delta epsilon zeta eta theta</module>
    <module name="extra">one two three four</module>
  </schema>"#;
const PROMPT: &str = r#"<prompt schema="s"><ctx/><extra/>question</prompt>"#;

fn engine_with(config: EngineConfig) -> PromptCache {
    let tokenizer = WordTokenizer::train(&[CORPUS]);
    let vocab = tokenizer.vocab_size().max(64);
    let engine = PromptCache::new(Model::new(ModelConfig::llama_tiny(vocab), 5), tokenizer, config);
    engine.register_schema(SCHEMA).unwrap();
    engine
}

fn opts() -> ServeOptions {
    ServeOptions::default().max_new_tokens(4)
}

fn submit(server: &Server, prompt: String, options: ServeOptions) -> RequestHandle {
    server
        .submit_request(&SubmitRequest::new(prompt).options(options).blocking(true))
        .expect("blocking submit cannot fail")
}

fn span_key(i: usize) -> ModuleKey {
    ModuleKey::new("s", &["<span>".to_owned(), i.to_string()])
}

#[test]
fn injected_misses_degrade_with_byte_identical_output() {
    let engine = engine_with(EngineConfig::default());
    let healthy = engine.serve(&ServeRequest::new(PROMPT).options(opts().clone())).map(Served::into_response).unwrap();
    assert_eq!(healthy.stats.degraded_spans, 0);
    assert!(healthy.stats.cached_tokens > 0);

    // Every fetch now reports the entry missing.
    engine.set_fetch_fault_injector(Some(Arc::new(FaultPlan::new(FaultConfig {
        fetch_miss_rate: 1.0,
        ..Default::default()
    }))));
    let degraded = engine.serve(&ServeRequest::new(PROMPT).options(opts().clone())).map(Served::into_response).unwrap();
    assert!(degraded.stats.degraded_spans > 0, "spans were recomputed");
    assert_eq!(degraded.outcome, ServeOutcome::Complete);
    // The headline resilience guarantee: degradation is invisible in the
    // output — recomputing the owner reproduces the lost states exactly.
    assert_eq!(degraded.tokens, healthy.tokens);
    assert_eq!(degraded.text, healthy.text);

    // Clearing the injector restores the healthy path.
    engine.set_fetch_fault_injector(None);
    let healed = engine.serve(&ServeRequest::new(PROMPT).options(opts().clone())).map(Served::into_response).unwrap();
    assert_eq!(healed.stats.degraded_spans, 0);
    assert_eq!(healed.tokens, healthy.tokens);
}

#[test]
fn checksum_corruption_is_detected_degraded_and_self_healed() {
    let engine = engine_with(EngineConfig::default().store(StoreConfig::default().verify_checksums(true)));
    let healthy = engine.serve(&ServeRequest::new(PROMPT).options(opts().clone())).map(Served::into_response).unwrap();

    // Flip a bit in span 0's stored states, leaving its checksum stale.
    assert!(engine.store().corrupt_module(&span_key(0)));
    let degraded = engine.serve(&ServeRequest::new(PROMPT).options(opts().clone())).map(Served::into_response).unwrap();
    assert!(degraded.stats.degraded_spans > 0, "corruption forced a recompute");
    assert_eq!(degraded.tokens, healthy.tokens, "degraded serve is byte-identical");
    assert!(engine.store_stats().corruptions_detected >= 1);

    // The recompute re-inserted fresh states: the next serve is healthy
    // again without any intervention.
    let healed = engine.serve(&ServeRequest::new(PROMPT).options(opts().clone())).map(Served::into_response).unwrap();
    assert_eq!(healed.stats.degraded_spans, 0, "store self-healed");
    assert_eq!(healed.tokens, healthy.tokens);
}

#[test]
fn relocated_module_corruption_degrades_byte_identically() {
    // A module imported after prompt text serves at a shift ≠ 0 from its
    // canonical entry (deferred RoPE relocates it at read time).
    // Corrupting that entry must still degrade-and-recompute to output
    // byte-identical with the healthy serve: the re-encode path rebuilds
    // the canonical states, and the same rotation relocates them again.
    let engine = engine_with(
        EngineConfig::default().store(StoreConfig::default().verify_checksums(true)),
    );
    assert!(engine.deferred_rope_effective());
    let prompt = r#"<prompt schema="s">one two three <ctx/>question</prompt>"#;
    let healthy = engine
        .serve(&ServeRequest::new(prompt).options(opts().clone()))
        .map(Served::into_response)
        .unwrap();
    assert_eq!(healthy.stats.degraded_spans, 0);
    assert!(healthy.stats.cached_tokens > 0, "relocated span must still hit");

    // Flip a bit in the relocated module's canonical states.
    assert!(engine.store().corrupt_module(&span_key(0)));
    let degraded = engine
        .serve(&ServeRequest::new(prompt).options(opts().clone()))
        .map(Served::into_response)
        .unwrap();
    assert!(degraded.stats.degraded_spans > 0, "corruption forced a recompute");
    assert_eq!(degraded.tokens, healthy.tokens, "degraded serve is byte-identical");
    assert_eq!(degraded.text, healthy.text);
    assert!(engine.store_stats().corruptions_detected >= 1);

    // The recompute reinserted canonical states: the next serve of the
    // same relocated placement is healthy and still byte-identical.
    let healed = engine
        .serve(&ServeRequest::new(prompt).options(opts().clone()))
        .map(Served::into_response)
        .unwrap();
    assert_eq!(healed.stats.degraded_spans, 0, "store self-healed");
    assert_eq!(healed.tokens, healthy.tokens);
}

#[test]
fn degradation_matches_the_uncached_baseline() {
    // Transitivity check straight against the paper's baseline: a fully
    // degraded serve (every span recomputed) still equals full prefill.
    let engine = engine_with(EngineConfig::default());
    let baseline = engine.serve(&ServeRequest::new(PROMPT).options(opts().clone()).baseline(true)).map(Served::into_response).unwrap();
    engine.set_fetch_fault_injector(Some(Arc::new(FaultPlan::new(FaultConfig {
        fetch_miss_rate: 1.0,
        ..Default::default()
    }))));
    let degraded = engine.serve(&ServeRequest::new(PROMPT).options(opts().clone())).map(Served::into_response).unwrap();
    assert!(degraded.stats.degraded_spans > 0);
    assert_eq!(degraded.tokens, baseline.tokens);
}

#[test]
fn degrade_disabled_surfaces_the_miss_as_an_error() {
    let engine = engine_with(EngineConfig::default().degrade_on_miss(false));
    engine.set_fetch_fault_injector(Some(Arc::new(FaultPlan::new(FaultConfig {
        fetch_miss_rate: 1.0,
        ..Default::default()
    }))));
    let err = engine.serve(&ServeRequest::new(PROMPT).options(opts().clone())).map(Served::into_response).unwrap_err();
    assert!(
        err.to_string().contains("span"),
        "expected MissingModuleStates, got: {err}"
    );
}

#[test]
fn transient_faults_heal_over_repeated_serves() {
    // A mid-range miss rate faults some fetches; every serve still
    // completes with identical output, and the run is reproducible.
    let run = |seed: u64| -> (Vec<Vec<u32>>, Vec<usize>) {
        let engine = engine_with(EngineConfig::default());
        engine.set_fetch_fault_injector(Some(Arc::new(FaultPlan::new(FaultConfig {
            seed,
            fetch_miss_rate: 0.5,
            ..Default::default()
        }))));
        let mut outputs = Vec::new();
        let mut degraded = Vec::new();
        for _ in 0..8 {
            let r = engine.serve(&ServeRequest::new(PROMPT).options(opts().clone())).map(Served::into_response).unwrap();
            outputs.push(r.tokens);
            degraded.push(r.stats.degraded_spans);
        }
        (outputs, degraded)
    };
    let (outputs_a, degraded_a) = run(11);
    let (outputs_b, degraded_b) = run(11);
    assert_eq!(degraded_a, degraded_b, "same seed, same degradations");
    assert_eq!(outputs_a, outputs_b);
    assert!(outputs_a.windows(2).all(|w| w[0] == w[1]), "output never changes");
}

#[test]
fn stalled_worker_triggers_deadline_shedding() {
    let engine = engine_with(EngineConfig::default());
    let server = Server::start(engine, ServerConfig::default().queue_capacity(16));
    // Every pickup stalls well past the request deadline. The first one
    // stalls on the batch loop's tick thread, so the rest queue behind it.
    server.set_worker_faults(Some(Arc::new(FaultPlan::new(FaultConfig {
        stall_rate: 1.0,
        stall: Duration::from_millis(80),
        ..Default::default()
    }))));
    let deadline_opts = opts().clone().deadline(Duration::from_millis(20));
    let handles: Vec<_> = (0..4)
        .map(|_| submit(&server, PROMPT.into(), deadline_opts.clone()))
        .collect();
    let mut served_past_deadline = 0;
    let mut shed = 0;
    for handle in handles {
        match handle.wait().unwrap().outcome {
            RequestOutcome::Ok(response) => {
                assert_eq!(response.outcome, ServeOutcome::DeadlineExceeded);
                served_past_deadline += 1;
            }
            RequestOutcome::Shed(reason) => {
                assert_eq!(reason, ShedReason::DeadlineBeforeStart);
                shed += 1;
            }
            RequestOutcome::Err(e) => panic!("unexpected engine error: {e}"),
        }
    }
    // The first pickup stalls through its own deadline and returns a
    // partial response; everything queued behind it is already dead at
    // pickup and gets shed without touching the engine.
    assert!(served_past_deadline >= 1);
    assert!(shed >= 1, "stall must back up the queue into sheds");
    let m = server.metrics();
    assert_eq!(m.shed, shed);
    server.shutdown();
}

#[test]
fn flight_recorder_chaos_replay_is_byte_identical() {
    // The flight recorder's determinism contract: under seeded faults
    // and sequential submission, the deterministic JSONL dump (wall-
    // clock timings stripped) is byte-identical across two same-seed
    // runs — a failing replay can be diffed event-for-event against a
    // healthy one.
    let run = |seed: u64| -> String {
        let engine = engine_with(
            EngineConfig::default().store(StoreConfig::default().verify_checksums(true)),
        );
        engine.set_fetch_fault_injector(Some(Arc::new(FaultPlan::new(FaultConfig {
            seed,
            fetch_miss_rate: 0.4,
            fetch_corrupt_rate: 0.2,
            ..Default::default()
        }))));
        let server = Server::start(
            engine,
            ServerConfig::default()
                .queue_capacity(32)
                .flight_recorder(1024),
        );
        // One request at a time, so event order is schedule-independent.
        for _ in 0..8 {
            assert!(submit(&server, PROMPT.into(), opts()).wait().unwrap().outcome.is_ok());
        }
        let dump = server.flight_json_deterministic();
        server.shutdown();
        dump
    };
    let a = run(33);
    assert!(
        a.lines().count() >= 8 * 4,
        "submit/pickup/fetch/finish per request: {a}"
    );
    assert!(a.contains("\"kind\":\"degrade\""), "chaos must surface degrades: {a}");
    assert!(!a.contains("\"t\":"), "deterministic dump carries no wall-clock timings");
    let b = run(33);
    assert_eq!(a, b, "same seed → byte-identical flight dump");
    let c = run(99);
    assert_ne!(a, c, "different seed → different fault trail");
}

#[test]
fn chaos_run_is_deterministic_end_to_end() {
    // Same seed, same prompts → the same injected faults and the same
    // outputs, through the whole server stack, with all 12 requests
    // submitted at once. Checksums are on so injected corruption is
    // *detected* (silent corruption is a separate store mode).
    //
    // Which serve draws which fault is not fixed: two prepares can run at
    // once (the batch loop's tick thread and its admission thread), so
    // the per-key fetch occurrences interleave differently from run to
    // run. The totals do not: the plan's decision for the n-th fetch of a
    // key depends only on (seed, key, n), every serve fetches each span
    // once, and every injected miss or corruption degrades the fetch that
    // drew it. A fetch that lands while another serve re-encodes a span
    // dropped as corrupt also degrades, so the total can exceed the
    // injected count but never fall short of it.
    const SERVES: usize = 12;
    const SEED: u64 = 21;
    let config = || FaultConfig {
        seed: SEED,
        fetch_miss_rate: 0.4,
        fetch_corrupt_rate: 0.2,
        ..Default::default()
    };
    let replay = FaultPlan::new(config());
    let injected = (0..2)
        .flat_map(|span| (0..SERVES).map(move |_| span_key(span)))
        .filter(|key| replay.fault(key) != FetchFault::None)
        .count();
    assert!(injected > 0, "seed {SEED} must inject faults");
    let run = || -> (usize, Vec<u32>) {
        let engine = engine_with(EngineConfig::default().store(StoreConfig::default().verify_checksums(true)));
        engine.set_fetch_fault_injector(Some(Arc::new(FaultPlan::new(config()))));
        let server = Server::start(engine, ServerConfig::default().queue_capacity(32));
        let handles: Vec<_> = (0..SERVES)
            .map(|_| submit(&server, PROMPT.into(), opts()))
            .collect();
        let mut tokens = None;
        let mut degraded = 0;
        for handle in handles {
            let response = handle.wait().unwrap().outcome.unwrap();
            let t = tokens.get_or_insert_with(|| response.tokens.clone());
            assert_eq!(&response.tokens, t, "every serve byte-identical");
            degraded += response.stats.degraded_spans;
        }
        server.shutdown();
        (degraded, tokens.unwrap())
    };
    let (degraded_a, tokens_a) = run();
    let (degraded_b, tokens_b) = run();
    assert_eq!(tokens_a, tokens_b);
    for degraded in [degraded_a, degraded_b] {
        assert!(
            degraded >= injected,
            "{degraded} degraded spans for {injected} injected faults"
        );
    }
}
