//! Persistence chaos tests: damage the disk tier the way real storage
//! fails — bit rot on stored records (plan-driven), a crash mid-append
//! (torn segment tail), garbage written past the last record — and
//! prove the store recovers to a consistent state while every serve
//! stays byte-identical through the degrade-and-recompute path.

use pc_cache::{DiskConfig, StoreConfig};
use pc_faults::{FaultConfig, FaultPlan};
use pc_model::{Model, ModelConfig};
use pc_tokenizer::{Tokenizer, WordTokenizer};
use prompt_cache::{EngineConfig, PromptCache, Response, ServeOptions, ServeRequest, Served};
use std::path::{Path, PathBuf};

const CORPUS: &str =
    "alpha beta gamma delta epsilon zeta eta theta question one two three four";
const SCHEMA: &str = r#"<schema name="s">
    <module name="ctx">alpha beta gamma delta epsilon zeta eta theta</module>
    <module name="extra">one two three four</module>
  </schema>"#;
const PROMPT: &str = r#"<prompt schema="s"><ctx/><extra/>question</prompt>"#;

/// A bare engine — no schema registered yet, so warm-restart tests can
/// `restore()` first (registration preloads matching store entries
/// instead of re-encoding them).
fn bare_engine(config: EngineConfig) -> PromptCache {
    let tokenizer = WordTokenizer::train(&[CORPUS]);
    let vocab = tokenizer.vocab_size().max(64);
    PromptCache::new(Model::new(ModelConfig::llama_tiny(vocab), 5), tokenizer, config)
}

fn engine_with(config: EngineConfig) -> PromptCache {
    let engine = bare_engine(config);
    engine.register_schema(SCHEMA).unwrap();
    engine
}

fn disk_store(dir: &Path) -> StoreConfig {
    StoreConfig::default().disk(DiskConfig::new(dir.to_path_buf()))
}

fn opts() -> ServeOptions {
    ServeOptions::default().max_new_tokens(4)
}

fn serve(engine: &PromptCache) -> Response {
    engine
        .serve(&ServeRequest::new(PROMPT).options(opts()))
        .map(Served::into_response)
        .unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pc-chaos-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The disk-backed engine used by the bit-rot tests: a host capacity of
/// one byte demotes every module except the most recently touched one,
/// so each serve round-trips module states through the disk tier.
fn tiny_host_engine(dir: &Path) -> PromptCache {
    engine_with(
        EngineConfig::default().store(
            StoreConfig::default()
                .verify_checksums(true)
                .host_capacity_bytes(1)
                .disk(DiskConfig::new(dir.to_path_buf())),
        ),
    )
}

/// Keys of every module currently resident on the disk tier.
fn disk_keys(engine: &PromptCache) -> Vec<pc_cache::ModuleKey> {
    engine
        .store()
        .snapshot()
        .into_iter()
        .filter(|row| row.tier == "disk")
        .map(|row| row.key)
        .collect()
}

#[test]
fn plan_driven_disk_corruption_degrades_byte_identically_and_self_heals() {
    let dir = temp_dir("bitrot");
    let engine = tiny_host_engine(&dir);
    let healthy = serve(&engine);
    assert_eq!(healthy.stats.degraded_spans, 0);
    assert!(
        engine.store().disk_len() > 0,
        "tiny host capacity must demote modules to disk"
    );

    // The fault plan decides, per key, which stored records rotted.
    // Rate 1.0 damages every record — the worst case.
    let plan = FaultPlan::new(FaultConfig {
        seed: 17,
        disk_corrupt_rate: 1.0,
        ..Default::default()
    });
    let keys = disk_keys(&engine);
    assert!(!keys.is_empty());
    for key in &keys {
        assert!(plan.should_corrupt_disk(key));
        assert!(engine.store().corrupt_disk_entry(key), "corrupt {key:?}");
    }

    // Damaged records fail their checksum on promote, degrade to
    // re-encode, and the output stays byte-identical.
    let degraded = serve(&engine);
    assert!(degraded.stats.degraded_spans > 0, "corruption forced recompute");
    assert_eq!(degraded.tokens, healthy.tokens);
    assert_eq!(degraded.text, healthy.text);
    let stats = engine.store_stats();
    assert!(stats.disk_corruptions >= 1, "{stats:?}");

    // The recompute re-inserted fresh states; their re-demotion wrote
    // clean records, so the next serve promotes without degrading.
    let healed = serve(&engine);
    assert_eq!(healed.stats.degraded_spans, 0, "store self-healed");
    assert_eq!(healed.tokens, healthy.tokens);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_segment_tail_recovers_to_consistent_store() {
    // "Process one": populate the store, snapshot it to disk, exit.
    let dir = temp_dir("torn");
    let healthy_tokens;
    let persisted;
    {
        let engine = engine_with(EngineConfig::default().store(disk_store(&dir)));
        healthy_tokens = serve(&engine).tokens;
        persisted = engine.snapshot().unwrap();
        assert!(persisted >= 2, "both schema modules persisted");
    }

    // Kill mid-append: chop bytes off the segment tail, leaving the
    // last record structurally torn and the INDEX stale (it describes a
    // longer file than the one on disk).
    let seg = dir.join("seg-00000000.pcseg");
    let len = std::fs::metadata(&seg).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
    file.set_len(len - 5).unwrap();
    drop(file);

    // "Process two": reopen over the damaged directory. The stale INDEX
    // is rejected, the scan truncates the torn tail, and every record
    // before it restores; the torn module is re-encoded at registration.
    let engine = bare_engine(EngineConfig::default().store(disk_store(&dir)));
    let restored = engine.restore().unwrap();
    assert_eq!(restored, persisted - 1, "exactly the torn record is lost");
    engine.register_schema(SCHEMA).unwrap();
    let warm = serve(&engine);
    assert_eq!(warm.tokens, healthy_tokens, "recovery serves byte-identically");

    // The store is consistent again: a fresh snapshot round-trips.
    assert_eq!(engine.snapshot().unwrap(), persisted);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_after_last_record_is_truncated_on_reopen() {
    let dir = temp_dir("garbage");
    let healthy_tokens;
    let persisted;
    {
        let engine = engine_with(EngineConfig::default().store(disk_store(&dir)));
        healthy_tokens = serve(&engine).tokens;
        persisted = engine.snapshot().unwrap();
    }

    // A crash between a partial write and the record header landing:
    // bytes that parse as no record sit past the last good one.
    let seg = dir.join("seg-00000000.pcseg");
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02]);
    std::fs::write(&seg, &bytes).unwrap();

    // Every intact record survives — only the trailing garbage goes.
    let engine = bare_engine(EngineConfig::default().store(disk_store(&dir)));
    assert_eq!(engine.restore().unwrap(), persisted);
    engine.register_schema(SCHEMA).unwrap();
    let warm = serve(&engine);
    assert_eq!(warm.tokens, healthy_tokens);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_warm_restart_restores_survivors_and_recomputes_the_rest() {
    // Snapshot, "restart", then rot a plan-chosen subset of records
    // before restore: survivors restore, victims are skipped (counted
    // as disk corruptions) and re-encoded at registration — output
    // unchanged either way.
    let dir = temp_dir("restart-rot");
    let healthy_tokens;
    {
        let engine = engine_with(EngineConfig::default().store(disk_store(&dir)));
        healthy_tokens = serve(&engine).tokens;
        engine.snapshot().unwrap();
    }

    let engine = bare_engine(EngineConfig::default().store(disk_store(&dir)));
    let plan = FaultPlan::new(FaultConfig {
        seed: 5,
        disk_corrupt_rate: 0.6,
        ..Default::default()
    });
    let keys = disk_keys(&engine);
    assert!(!keys.is_empty());
    let rotted: Vec<_> = keys
        .iter()
        .filter(|key| plan.should_corrupt_disk(key))
        .collect();
    for key in &rotted {
        assert!(engine.store().corrupt_disk_entry(key));
    }

    let restored = engine.restore().unwrap();
    assert_eq!(restored, keys.len() - rotted.len());
    assert_eq!(
        engine.store_stats().disk_corruptions as usize,
        rotted.len(),
        "every rotted record is detected, none served"
    );
    engine.register_schema(SCHEMA).unwrap();
    let warm = serve(&engine);
    assert_eq!(warm.tokens, healthy_tokens);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_disk_tier_degrades_to_the_full_prefill_bytes() {
    // Every cold record carries the checksum armor: corrupt them all and
    // the serve degrades to recompute, whose bytes are the full-prefill
    // baseline's.
    let dir = temp_dir("rot-baseline");
    let engine = tiny_host_engine(&dir);
    let baseline = engine
        .serve(&ServeRequest::new(PROMPT).options(opts()).baseline(true))
        .map(Served::into_response)
        .unwrap();
    let healthy = serve(&engine);
    assert_eq!(healthy.stats.degraded_spans, 0, "promotes from disk still hit");
    let keys = disk_keys(&engine);
    assert!(!keys.is_empty());
    for key in &keys {
        assert!(engine.store().corrupt_disk_entry(key));
    }
    let degraded = serve(&engine);
    assert!(degraded.stats.degraded_spans > 0);
    assert_eq!(degraded.tokens, baseline.tokens);
    assert!(engine.store_stats().disk_corruptions >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}
