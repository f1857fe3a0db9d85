//! Zero-copy serving guarantees:
//!
//! 1. every prompt shape, on every model family, performs **zero KV
//!    memcpy** for cached tokens (`bytes_shared == bytes_reused`,
//!    `bytes_copied == 0`) — that a segmented read computes the same bits
//!    as a flat one is `pc-model`'s `view_tests` and the `attention.rs`
//!    `segmented_kernel_matches_contiguous_exactly` test;
//! 2. concurrent sessions of one schema **alias** the store's module
//!    states by pointer, so physical KV memory stays flat as sessions
//!    grow while logical bytes scale linearly — at any placement, and on
//!    the degrade path, which serves the entry it heals.

use pc_cache::{FetchFault, FetchFaultInjector, ModuleKey};
use pc_model::{view, Family, KvSeq, Model, ModelConfig};
use pc_tokenizer::WordTokenizer;
use prompt_cache::{EngineConfig, PromptCache, ServeOptions, Telemetry};
use std::sync::Arc;
use prompt_cache::{ServeRequest, Served};

const CORPUS: &str = "the miami coast has warm beaches surf and sun all year \
    tokyo offers temples gardens and remarkable food in every district \
    plan a detailed trip of days for a traveler who loves the water \
    you are a helpful travel assistant highlight surf spots please \
    answer the following question about documents provided above";

const SCHEMA: &str = r#"
  <schema name="trip">
    you are a helpful travel assistant
    <module name="plan">plan a detailed trip of <param name="duration" len="3"/></module>
    <union>
      <module name="miami">the miami coast has warm beaches surf and sun</module>
      <module name="tokyo">tokyo offers temples gardens and remarkable food</module>
    </union>
  </schema>"#;

fn engine_with(family: Family, telemetry: Telemetry) -> PromptCache {
    let cfg = match family {
        Family::Llama => ModelConfig::llama_tiny(256),
        Family::Falcon => ModelConfig::falcon_tiny(256),
        Family::Mpt => ModelConfig::mpt_tiny(256),
        Family::Gpt2 => ModelConfig::gpt2_tiny(256),
    };
    let model = Model::new(cfg, 42);
    let tokenizer = WordTokenizer::train(&[CORPUS]);
    let engine = PromptCache::new(
        model,
        tokenizer,
        EngineConfig::default().telemetry(telemetry),
    );
    engine.register_schema(SCHEMA).unwrap();
    engine
}

/// Prompts covering the serve-path shapes: plain import + text, filled
/// parameter (segment splitting), multi-module, and module-only (the
/// truncate-into-shared-segment path).
const PROMPTS: [&str; 4] = [
    r#"<prompt schema="trip"><miami/>highlight surf spots please</prompt>"#,
    r#"<prompt schema="trip"><plan duration="days for traveler"/><miami/>highlight surf spots</prompt>"#,
    r#"<prompt schema="trip"><plan duration="days"/><tokyo/>plan a trip</prompt>"#,
    r#"<prompt schema="trip"><miami/></prompt>"#,
];

#[test]
fn fully_cached_prompt_performs_zero_kv_memcpy() {
    for family in [Family::Llama, Family::Falcon, Family::Mpt, Family::Gpt2] {
        let telemetry = Telemetry::new();
        let engine = engine_with(family, telemetry.clone());
        let mut shared_total = 0u64;
        for prompt in PROMPTS {
            let r = engine
                .serve(&ServeRequest::new(prompt).max_new_tokens(4))
                .map(Served::into_response)
                .unwrap();
            assert!(r.stats.cached_tokens > 0, "family {family:?}, prompt {prompt}");
            assert!(r.stats.bytes_reused > 0, "family {family:?}, prompt {prompt}");
            assert_eq!(r.stats.bytes_shared, r.stats.bytes_reused);
            assert_eq!(r.stats.bytes_copied, 0, "cached tokens were memcpy'd");
            shared_total += r.stats.bytes_shared as u64;
        }

        let snap = telemetry.snapshot();
        let shared_counter = snap
            .counters
            .iter()
            .find(|(n, _)| n == "pc_kv_bytes_shared_total")
            .map_or(0, |(_, v)| *v);
        assert_eq!(shared_counter, shared_total, "family {family:?}");
    }
}

#[test]
fn sessions_alias_modules_and_physical_bytes_stay_flat() {
    let engine = engine_with(Family::Llama, Telemetry::disabled());
    let opts = ServeOptions::default().max_new_tokens(4);
    let prompt = r#"<prompt schema="trip"><miami/>highlight surf spots please</prompt>"#;

    let sessions: Vec<_> = (0..6)
        .map(|_| {
            engine
                .serve(&ServeRequest::new(prompt).options(opts.clone()).session(true))
                .unwrap()
                .session
                .expect("session requested")
        })
        .collect();

    // Every segment of every session aliases a store entry by pointer
    // identity, not an equal copy — relocated placements included.
    let store_states: Vec<_> = engine
        .schema_span_states("trip")
        .into_iter()
        .flatten()
        .collect();
    for (i, view) in sessions.iter().enumerate() {
        assert!(!view.segments().is_empty());
        for seg in view.segments() {
            assert!(
                store_states.iter().any(|s| Arc::ptr_eq(seg.cache(), s)),
                "session {i} holds a segment that does not alias the store"
            );
        }
    }

    // Physical bytes = exactly one copy of the shared modules + per-session
    // tails; adding sessions adds only tail bytes.
    let tail_bytes: usize = sessions.iter().map(|v| v.tail().size_bytes()).sum();
    let shared_once = view::physical_bytes(&sessions) - tail_bytes;
    assert_eq!(shared_once, sessions[0].shared_bytes());
    assert_eq!(
        view::physical_bytes(sessions.iter().take(3)),
        shared_once
            + sessions
                .iter()
                .take(3)
                .map(|v| v.tail().size_bytes())
                .sum::<usize>()
    );
    // The duplicating baseline scales with the session count.
    assert_eq!(
        view::logical_bytes(&sessions),
        6 * sessions[0].logical_bytes()
    );
    assert!(view::logical_bytes(&sessions) > view::physical_bytes(&sessions));
}

/// Hides every module from the store's fetch, so each span degrades.
#[derive(Debug)]
struct MissEverything;

impl FetchFaultInjector for MissEverything {
    fn fault(&self, _key: &ModuleKey) -> FetchFault {
        FetchFault::Miss
    }
}

#[test]
fn degraded_spans_alias_the_healed_store_entry() {
    // A degraded serve re-encodes the missing spans and heals the store;
    // the session must read the healed entry itself, not a private copy.
    let engine = engine_with(Family::Llama, Telemetry::disabled());
    let prompt = r#"<prompt schema="trip"><miami/>highlight surf spots please</prompt>"#;
    engine.set_fetch_fault_injector(Some(Arc::new(MissEverything)));
    let served = engine
        .serve(&ServeRequest::new(prompt).max_new_tokens(2).session(true))
        .unwrap();
    engine.set_fetch_fault_injector(None);
    assert!(served.response.stats.degraded_spans > 0, "no span degraded");
    let store_states: Vec<_> = engine
        .schema_span_states("trip")
        .into_iter()
        .flatten()
        .collect();
    let view = served.session.expect("session requested");
    assert!(!view.segments().is_empty());
    for seg in view.segments() {
        assert!(
            store_states.iter().any(|s| Arc::ptr_eq(seg.cache(), s)),
            "a degraded span is served from a private copy"
        );
    }
}

#[test]
fn session_views_continue_decoding_into_private_tails() {
    // Continuing one session must not disturb another sharing the same
    // modules: tails are private, segments are frozen.
    let engine = engine_with(Family::Llama, Telemetry::disabled());
    let opts = ServeOptions::default().max_new_tokens(3);
    let prompt = r#"<prompt schema="trip"><miami/>highlight surf spots please</prompt>"#;
    let request = ServeRequest::new(prompt).options(opts.clone()).session(true);
    let served_a = engine.serve(&request).unwrap();
    let served_b = engine.serve(&request).unwrap();
    let (ra, mut a) = (served_a.response, served_a.session.expect("session"));
    let (rb, b) = (served_b.response, served_b.session.expect("session"));
    assert_eq!(ra.tokens, rb.tokens);
    let b_before = b.materialize();

    // Drive session A a few more tokens.
    let model = engine.model();
    let next = a.positions().iter().max().unwrap() + 1;
    model
        .prefill(&[ra.tokens[ra.tokens.len() - 1]], &[next], &mut a)
        .unwrap();
    assert!(a.len() > b.len());
    // Session B's logical content is untouched.
    assert_eq!(b.materialize(), b_before);
}
