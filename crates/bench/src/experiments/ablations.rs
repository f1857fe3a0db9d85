//! Ablations of the design choices DESIGN.md calls out: eviction policy,
//! KV quantization, and scaffolding.

use super::Report;
use crate::emit::Table;
use pc_cache::quant::{round_trip_error, QuantizedKv};
use pc_cache::{EvictionPolicy, ModuleKey, ModuleStore, StoreConfig, Tier};
use pc_model::KvCache;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;
use prompt_cache::{ServeRequest, Served};

/// Runs all three ablations and combines them into one report.
pub fn ablations(quick: bool) -> Report {
    let eviction = eviction_ablation(quick);
    let quant = quant_ablation();
    let scaffold = scaffold_ablation();
    Report {
        id: "ablations",
        title: "Ablations — eviction policy, KV quantization, scaffolding",
        markdown: format!(
            "### Eviction policy (Zipfian module popularity)\n{}\n\
             ### 8-bit KV quantization\n{}\n\
             ### Scaffolding: memory for exactness (§3.3)\n{}\n",
            eviction.0, quant.0, scaffold.0
        ),
        json: json!({
            "eviction": eviction.1,
            "quantization": quant.1,
            "scaffold": scaffold.1,
        }),
    }
}

/// Scaffolding trades memory for output consistency: quantify both sides.
fn scaffold_ablation() -> (String, serde_json::Value) {
    use pc_model::{Model, ModelConfig};
    use pc_tokenizer::{Tokenizer, WordTokenizer};
    use prompt_cache::{EngineConfig, PromptCache, ServeOptions};

    let doc_a: String = (0..60).map(|i| format!("alpha{} ", i % 23)).collect();
    let doc_b: String = (0..60).map(|i| format!("beta{} ", i % 19)).collect();
    let corpus = format!("{doc_a} {doc_b} summarize the two documents above now");
    let build = || {
        let tokenizer = WordTokenizer::train(&[corpus.as_str()]);
        let vocab = tokenizer.vocab_size().max(64);
        let engine = PromptCache::new(
            Model::new(ModelConfig::llama_small(vocab), 17),
            tokenizer,
            EngineConfig::default(),
        );
        engine
            .register_schema(&format!(
                r#"<schema name="sc"><module name="a">{doc_a}</module><module name="b">{doc_b}</module></schema>"#
            ))
            .expect("register");
        engine
    };
    let prompt = r#"<prompt schema="sc"><a/><b/>summarize the two documents above now</prompt>"#;
    let opts = ServeOptions::default().max_new_tokens(12);

    // Without scaffolds: the masking approximation is in play.
    let engine = build();
    let bytes_without = engine.cached_bytes();
    let masked = engine.serve(&ServeRequest::new(prompt).options(opts.clone())).map(Served::into_response).expect("masked serve");
    let baseline = engine.serve(&ServeRequest::new(prompt).options(opts.clone()).baseline(true)).map(Served::into_response).expect("baseline");
    let masked_agrees = masked.tokens == baseline.tokens;

    // With a scaffold: extra memory, exact agreement.
    engine.add_scaffold("sc", &["a", "b"]).expect("scaffold");
    let bytes_with = engine.cached_bytes();
    let scaffolded = engine.serve(&ServeRequest::new(prompt).options(opts.clone())).map(Served::into_response).expect("scaffolded serve");
    let scaffold_agrees = scaffolded.tokens == baseline.tokens;

    let mut table = Table::new(&["Configuration", "Store bytes", "Greedy output == baseline"]);
    table.row(&[
        "independent modules (masked)".into(),
        bytes_without.to_string(),
        masked_agrees.to_string(),
    ]);
    table.row(&[
        "scaffolded (co-encoded)".into(),
        format!("{bytes_with} (+{:.0}%)", (bytes_with as f64 / bytes_without as f64 - 1.0) * 100.0),
        scaffold_agrees.to_string(),
    ]);
    (
        table.to_markdown(),
        json!({
            "bytes_without": bytes_without,
            "bytes_with": bytes_with,
            "masked_agrees_with_baseline": masked_agrees,
            "scaffold_agrees_with_baseline": scaffold_agrees,
        }),
    )
}

/// A module cache of `tokens` tokens shaped like the small engine config.
fn module(tokens: usize, marker: u64) -> KvCache {
    let mut c = KvCache::with_shape(4, 128);
    let row: Vec<f32> = (0..128).map(|i| ((marker + i as u64) as f32).sin()).collect();
    for t in 0..tokens {
        for l in 0..4 {
            c.push_token_layer(l, &row, &row);
        }
        c.push_position(t);
    }
    c
}

/// Host-tier hit rate per policy under a Zipfian access trace — the
/// paper's named future-work question (cache replacement strategies),
/// asked of the one bounded tier the store has. With no disk tier below
/// it, an eviction drops the module; a later miss re-encodes and
/// re-inserts it, as the engine's degrade path does, and pays its
/// recompute cost.
fn eviction_ablation(quick: bool) -> (String, serde_json::Value) {
    let num_modules = 40usize;
    let accesses = if quick { 500 } else { 5000 };
    // Capacity for ~8 of 40 modules.
    let module_tokens = 64;
    let one = module(module_tokens, 0).size_bytes();
    // Vary size a little so size-aware policies differentiate.
    let tokens_of = |m: usize| module_tokens + (m % 5) * 16;
    let key_of = |m: usize| ModuleKey::new("abl", &[format!("m{m}")]);

    let mut table = Table::new(&["Policy", "Host hit rate", "Evictions", "Recompute cost"]);
    let mut rows = Vec::new();
    for policy in EvictionPolicy::ALL {
        let store = ModuleStore::new(
            StoreConfig::default()
                .host_capacity_bytes(8 * one)
                .policy(policy),
        );
        for m in 0..num_modules {
            let tokens = tokens_of(m);
            store.insert(key_of(m), module(tokens, m as u64), (tokens * tokens) as f64);
        }
        let mut recompute_cost = 0.0;
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..accesses {
            // Zipf-ish: module rank r with probability ∝ 1/(r+1).
            let r: f64 = rng.gen();
            let idx = ((num_modules as f64).powf(r) - 1.0) as usize % num_modules;
            if store.get(&key_of(idx), Tier::Host).is_none() {
                let tokens = tokens_of(idx);
                let cost = (tokens * tokens) as f64;
                store.insert(key_of(idx), module(tokens, idx as u64), cost);
                recompute_cost += cost;
            }
        }
        let stats = store.stats();
        let hit_rate = stats.hits as f64 / accesses as f64;
        table.row(&[
            policy.name().to_string(),
            format!("{:.1}%", hit_rate * 100.0),
            stats.evictions.to_string(),
            format!("{recompute_cost:.0}"),
        ]);
        rows.push(json!({
            "policy": policy.name(), "hit_rate": hit_rate,
            "evictions": stats.evictions, "recompute_cost": recompute_cost,
        }));
    }
    (table.to_markdown(), json!({ "rows": rows }))
}

/// Quantization: footprint vs reconstruction error.
fn quant_ablation() -> (String, serde_json::Value) {
    let m = module(512, 7);
    let q = QuantizedKv::quantize(&m);
    let err = round_trip_error(&m);
    let ratio = m.size_bytes() as f64 / q.size_bytes() as f64;
    let mut table = Table::new(&["Quantity", "Value"]);
    table.row(&["f32 module bytes".into(), m.size_bytes().to_string()]);
    table.row(&["int8 module bytes".into(), q.size_bytes().to_string()]);
    table.row(&["compression".into(), format!("{ratio:.2}×")]);
    table.row(&["max relative error".into(), format!("{err:.5}")]);
    (
        table.to_markdown(),
        json!({
            "f32_bytes": m.size_bytes(), "int8_bytes": q.size_bytes(),
            "compression": ratio, "max_rel_error": err,
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_report_builds() {
        let r = ablations(true);
        assert!(r.markdown.contains("Eviction policy"));
        let rows = r.json["eviction"]["rows"].as_array().unwrap();
        assert_eq!(rows.len(), EvictionPolicy::ALL.len());
        assert!(r.json["quantization"]["compression"].as_f64().unwrap() > 2.0);
    }

    #[test]
    fn scaffold_restores_agreement_at_memory_cost() {
        let r = ablations(true);
        let s = &r.json["scaffold"];
        assert_eq!(s["scaffold_agrees_with_baseline"], true);
        assert!(
            s["bytes_with"].as_u64().unwrap() > s["bytes_without"].as_u64().unwrap(),
            "scaffolds cost extra memory"
        );
    }

    #[test]
    fn lru_beats_size_first_on_zipf() {
        // Popularity-aware policies should not lose to size-first under a
        // popularity-skewed trace.
        let r = ablations(true);
        let rows = r.json["eviction"]["rows"].as_array().unwrap();
        let rate = |name: &str| {
            rows.iter()
                .find(|x| x["policy"] == name)
                .unwrap()["hit_rate"]
                .as_f64()
                .unwrap()
        };
        assert!(rate("lru") + 0.02 >= rate("size-first"));
    }
}
