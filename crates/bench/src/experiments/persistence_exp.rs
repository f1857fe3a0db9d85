//! Warm restart: what the persistent disk tier buys. Time from engine
//! construction to the first served token, once encoding every module
//! from scratch (cold) and once restoring a snapshot from the disk tier
//! (warm).

use super::Report;
use crate::emit::fmt_time_s;
use pc_cache::{DiskConfig, StoreConfig};
use pc_model::{Model, ModelConfig};
use pc_tokenizer::{Tokenizer, WordTokenizer};
use prompt_cache::{EngineConfig, PromptCache, ServeOptions, ServeRequest, Served};
use serde_json::json;
use std::path::{Path, PathBuf};
use std::time::Instant;

const DOC_WORDS: usize = 160;

fn doc() -> String {
    (0..DOC_WORDS).map(|i| format!("w{} ", i % 53)).collect()
}

fn schema() -> String {
    let doc = doc();
    format!(
        r#"<schema name="persist">preamble text<module name="doc">{doc}</module><module name="tail">closing words</module></schema>"#
    )
}

const PROMPT: &str = r#"<prompt schema="persist"><doc/><tail/>answer briefly</prompt>"#;

fn bare_engine(dir: &Path) -> PromptCache {
    let corpus = format!("{} preamble text closing words answer briefly", doc());
    let tokenizer = WordTokenizer::train(&[corpus.as_str()]);
    let vocab = tokenizer.vocab_size().max(64);
    PromptCache::new(
        Model::new(ModelConfig::llama_tiny(vocab), 6),
        tokenizer,
        EngineConfig::default()
            .store(StoreConfig::default().disk(DiskConfig::new(dir.to_path_buf()))),
    )
}

fn first_token(engine: &PromptCache) {
    engine
        .serve(
            &ServeRequest::new(PROMPT).options(ServeOptions::default().max_new_tokens(1)),
        )
        .map(Served::into_response)
        .expect("serve");
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pc-bench-persist-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Startup-to-first-token, cold (encode everything) and warm (restore
/// the snapshot left by the previous "process"). Returns seconds.
fn startup_pair(dir: &Path) -> (f64, f64) {
    let cold_t = Instant::now();
    let engine = bare_engine(dir);
    engine.register_schema(&schema()).expect("register");
    first_token(&engine);
    let cold = cold_t.elapsed().as_secs_f64();
    engine.snapshot().expect("snapshot");
    drop(engine);

    let warm_t = Instant::now();
    let engine = bare_engine(dir);
    engine.restore().expect("restore");
    engine.register_schema(&schema()).expect("register");
    first_token(&engine);
    let warm = warm_t.elapsed().as_secs_f64();
    assert_eq!(
        engine.store_stats().misses,
        0,
        "a warm restart must not re-encode"
    );
    (cold, warm)
}

/// Warm-restart figures. Full runs also write
/// `BENCH_persistence.json` at the working directory root.
pub fn persistence(quick: bool) -> Report {
    // 1. Startup-to-first-token, cold vs warm, over a few repetitions.
    let reps = if quick { 1 } else { 5 };
    let mut cold_s = 0.0;
    let mut warm_s = 0.0;
    for rep in 0..reps {
        let dir = temp_dir(&format!("startup-{rep}"));
        let (cold, warm) = startup_pair(&dir);
        cold_s += cold / reps as f64;
        warm_s += warm / reps as f64;
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The library's size, from one cold engine.
    let dir = temp_dir("library");
    let engine = bare_engine(&dir);
    engine.register_schema(&schema()).expect("register");
    first_token(&engine);
    let snapshot = engine.store().snapshot();
    let modules = snapshot.len();
    let hot_bytes: usize = snapshot.iter().map(|row| row.size_bytes).sum();
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);

    let startup = json!({
        "reps": reps,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_speedup": cold_s / warm_s.max(1e-9),
    });
    let json = json!({
        "modules": modules,
        "hot_bytes": hot_bytes,
        "startup": startup,
    });

    // The perf-trajectory file: full runs only (quick doubles as the
    // test path and must stay side-effect free).
    let mut bench_path = None;
    if !quick {
        let path = "BENCH_persistence.json";
        std::fs::write(path, serde_json::to_string_pretty(&json).expect("serialise"))
            .expect("write BENCH_persistence.json");
        bench_path = Some(path.to_owned());
    }

    Report {
        id: "persistence",
        title: "Warm restart",
        markdown: format!(
            "startup-to-first-token: cold {} vs warm {} ({:.1}× speedup, {} reps); \
             {} modules, {} hot bytes{}\n",
            fmt_time_s(cold_s),
            fmt_time_s(warm_s),
            cold_s / warm_s.max(1e-9),
            reps,
            modules,
            hot_bytes,
            bench_path
                .as_deref()
                .map(|p| format!("; trajectory at `{p}`"))
                .unwrap_or_default()
        ),
        json,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persistence_invariants_hold() {
        let r = persistence(true);
        assert!(r.json["modules"].as_u64().unwrap() >= 2);
        let startup = &r.json["startup"];
        assert!(startup["cold_s"].as_f64().unwrap() > 0.0);
        assert!(startup["warm_s"].as_f64().unwrap() > 0.0);
        // Quick mode writes no artifact.
        assert!(!std::path::Path::new("BENCH_persistence.json").exists());
    }
}
