//! Deferred-RoPE serving: one canonical cache entry per module, rotated
//! to its placement at read time.
//!
//! The correctness oracles from the position-independence work:
//!
//! 1. a module's canonical entry served at several different offsets
//!    yields logits within the fidelity bound of a fresh full prefill at
//!    each offset — and **byte-identical** logits for shift = 0;
//! 2. learned-position models (GPT-2) are not shift-invariant, so the
//!    engine stores them with baked positions without being told to;
//! 3. relocation does not duplicate store entries: one canonical entry
//!    per module however many offsets it is served at, aliased by every
//!    placement.

use pc_model::{fidelity, Family, KvView, Model, ModelConfig};
use pc_tokenizer::WordTokenizer;
use prompt_cache::{EngineConfig, PromptCache, ServeOptions, ServeRequest, Served};
use std::sync::Arc;

const CORPUS: &str = "the miami coast has warm beaches surf and sun all year \
    plan a detailed trip of days for a traveler who loves the water \
    you are a helpful travel assistant highlight surf spots please";

const MODULE_TEXT: &str = "the miami coast has warm beaches surf and sun all year";

const SCHEMA: &str = r#"
  <schema name="doc">
    <module name="beach">the miami coast has warm beaches surf and sun all year</module>
  </schema>"#;

fn engine_for(family: Family) -> PromptCache {
    let cfg = match family {
        Family::Llama => ModelConfig::llama_tiny(256),
        Family::Falcon => ModelConfig::falcon_tiny(256),
        Family::Mpt => ModelConfig::mpt_tiny(256),
        Family::Gpt2 => ModelConfig::gpt2_tiny(256),
    };
    let model = Model::new(cfg, 42);
    let tokenizer = WordTokenizer::train(&[CORPUS]);
    let engine = PromptCache::new(model, tokenizer, EngineConfig::default());
    engine.register_schema(SCHEMA).unwrap();
    engine
}

/// The engine's stored canonical entry, shared into a view at offset Δ,
/// must produce logits matching a fresh full prefill of the same tokens
/// at positions Δ.. — exactly for Δ = 0, within the fidelity bound
/// otherwise (the composed `R(Δ)·R(p)` rotation differs from the direct
/// `R(p+Δ)` only in float rounding).
#[test]
fn canonical_entry_matches_full_prefill_at_three_offsets() {
    for family in [Family::Llama, Family::Falcon, Family::Mpt] {
        let engine = engine_for(family);
        assert!(engine.deferred_rope_effective(), "{family:?}");
        let states = engine
            .schema_span_states("doc")
            .into_iter()
            .next()
            .flatten()
            .expect("module encoded at registration");
        let model = engine.model();
        let module_tokens = engine.tokenizer().encode(MODULE_TEXT);
        let question_tokens = engine.tokenizer().encode("highlight surf spots please");
        assert_eq!(states.len(), module_tokens.len());

        for offset in [0usize, 5, 17] {
            // Reference: everything prefilled fresh at the placed offset.
            let mut full_tokens = module_tokens.clone();
            full_tokens.extend(&question_tokens);
            let positions: Vec<usize> = (offset..offset + full_tokens.len()).collect();
            let mut fresh = KvView::with_shape(states.num_layers(), states.kv_dim());
            let reference = model.prefill(&full_tokens, &positions, &mut fresh).unwrap();

            // Reuse: the canonical entry relocated by `offset`, question
            // prefilled behind it.
            let mut view = KvView::with_shape(states.num_layers(), states.kv_dim());
            view.push_segment_shifted(states.clone(), 0, states.len(), offset as isize)
                .unwrap();
            let q_positions: Vec<usize> = (offset + module_tokens.len()
                ..offset + full_tokens.len())
                .collect();
            let reused = model
                .prefill(&question_tokens, &q_positions, &mut view)
                .unwrap();

            let d = fidelity::logit_distance(&reference, &reused);
            if offset == 0 {
                assert_eq!(reference, reused, "{family:?}: shift 0 must be byte-identical");
            } else {
                assert!(
                    d.argmax_agrees,
                    "{family:?} offset {offset}: argmax diverged"
                );
                assert!(
                    d.max_abs_diff < 5e-2,
                    "{family:?} offset {offset}: max |Δlogit| {}",
                    d.max_abs_diff
                );
                assert!(
                    d.kl_divergence < 1e-3,
                    "{family:?} offset {offset}: KL {}",
                    d.kl_divergence
                );
            }
        }
    }
}

/// Learned positional embeddings bake the position into the hidden
/// states, not just the keys — no rotation can relocate them. The engine
/// must fall back to legacy exact-position placement for GPT-2.
#[test]
fn learned_positions_fall_back_to_legacy_placement() {
    let engine = engine_for(Family::Gpt2);
    assert!(
        !engine.deferred_rope_effective(),
        "learned positions are not shift-invariant"
    );
    // And serving still works end to end.
    let prompt = r#"<prompt schema="doc"><beach/>highlight surf spots please</prompt>"#;
    let r = engine
        .serve(&ServeRequest::new(prompt).max_new_tokens(4))
        .map(Served::into_response)
        .unwrap();
    assert!(r.stats.cached_tokens > 0);
}

/// Serving one module at several distinct offsets keeps exactly one
/// store entry for it — relocation happens at read time, never by
/// encoding a per-position duplicate — and every placement, repeated or
/// not, reads that one entry by pointer: no per-placement copy exists.
#[test]
fn relocation_does_not_duplicate_store_entries() {
    let engine = engine_for(Family::Llama);
    let entries_after_registration = engine.store().len();
    let store_states: Vec<_> = engine
        .schema_span_states("doc")
        .into_iter()
        .flatten()
        .collect();
    let opts = ServeOptions::default().max_new_tokens(2);
    // Three placements: canonical, and two relocations behind different
    // amounts of prompt text.
    let prompts = [
        r#"<prompt schema="doc"><beach/>highlight surf spots</prompt>"#,
        r#"<prompt schema="doc">please <beach/>highlight surf spots</prompt>"#,
        r#"<prompt schema="doc">you are a helpful travel assistant <beach/>highlight</prompt>"#,
    ];
    let mut shifts = Vec::new();
    for prompt in prompts {
        for _ in 0..3 {
            let served = engine
                .serve(&ServeRequest::new(prompt).options(opts.clone()).session(true))
                .unwrap();
            assert!(served.response.stats.cached_tokens > 0, "placement missed the cache");
            let view = served.session.expect("session requested");
            assert!(!view.segments().is_empty());
            for seg in view.segments() {
                assert!(
                    store_states.iter().any(|s| Arc::ptr_eq(seg.cache(), s)),
                    "a segment at shift {} does not alias the store entry",
                    seg.shift()
                );
                shifts.push(seg.shift());
            }
        }
    }
    shifts.sort_unstable();
    shifts.dedup();
    assert_eq!(shifts.len(), 3, "three distinct placements: {shifts:?}");
    assert_eq!(
        engine.store().len(),
        entries_after_registration,
        "per-position duplicates were stored"
    );
}
