//! Warm-restart integration tests: `PromptCache::snapshot()` persists
//! the module library to the store's disk tier, a fresh engine over the
//! same directory `restore()`s it, and registration preloads the
//! restored states instead of re-encoding — serving byte-identically to
//! the pre-restart engine (f32 tier) or within the quantization bound
//! (int8 tier).

use pc_cache::{ColdEncoding, DiskConfig, StoreConfig, Tier};
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

fn bare_engine(config: EngineConfig) -> PromptCache {
    let tokenizer = WordTokenizer::train(&[CORPUS]);
    let vocab = tokenizer.vocab_size().max(64);
    PromptCache::new(Model::new(ModelConfig::llama_tiny(vocab), 5), tokenizer, config)
}

fn disk_config(dir: &Path, encoding: ColdEncoding) -> EngineConfig {
    EngineConfig::default().store(
        StoreConfig::default().disk(DiskConfig::new(dir.to_path_buf()).encoding(encoding)),
    )
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
        "pc-persist-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn snapshot_then_restore_serves_byte_identically() {
    let dir = temp_dir("roundtrip");

    // Pre-restart engine: encode, serve, snapshot the library to disk.
    let healthy;
    let persisted;
    let spans;
    let cached_bytes;
    {
        let engine = bare_engine(disk_config(&dir, ColdEncoding::F32));
        spans = engine.register_schema(SCHEMA).unwrap().spans;
        healthy = serve(&engine);
        assert_eq!(healthy.stats.degraded_spans, 0);
        persisted = engine.snapshot().unwrap();
        assert!(persisted >= 2, "both schema modules snapshot");
        cached_bytes = engine.cached_bytes();
    }

    // Post-restart engine: restore first, then register — registration
    // validates the restored states against the schema layout and
    // preloads them instead of re-encoding.
    let engine = bare_engine(disk_config(&dir, ColdEncoding::F32));
    let restored = engine.restore().unwrap();
    assert_eq!(restored, persisted, "the whole library survives restart");
    assert!(engine.store_stats().promotions as usize >= restored);
    let info = engine.register_schema(SCHEMA).unwrap();
    assert_eq!(info.spans, spans, "preloaded spans are counted");
    assert_eq!(
        engine.cached_bytes(),
        cached_bytes,
        "the f32 round trip holds exactly the bytes a fresh encode does"
    );

    let warm = serve(&engine);
    assert_eq!(warm.stats.degraded_spans, 0, "no recompute after restore");
    assert_eq!(warm.stats.cached_tokens, healthy.stats.cached_tokens);
    assert_eq!(warm.tokens, healthy.tokens, "restart is byte-identical");
    assert_eq!(warm.text, healthy.text);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_persisted_states_are_re_encoded_not_reused() {
    // Snapshot one schema revision, then register an *edited* schema
    // under the same name over the restored library: the engine must
    // detect the mismatch and re-encode rather than serve stale states.
    let dir = temp_dir("stale");
    {
        let engine = bare_engine(disk_config(&dir, ColdEncoding::F32));
        engine.register_schema(SCHEMA).unwrap();
        engine.snapshot().unwrap();
    }
    // Edited revision: module `ctx` has different (shorter) content.
    let edited = r#"<schema name="s">
        <module name="ctx">alpha beta gamma delta epsilon zeta</module>
        <module name="extra">one two three four</module>
      </schema>"#;
    let prompt = r#"<prompt schema="s"><ctx/>question</prompt>"#;
    let engine = bare_engine(disk_config(&dir, ColdEncoding::F32));
    engine.restore().unwrap();
    engine.register_schema(edited).unwrap();
    let request = || ServeRequest::new(prompt).options(opts());
    let r = engine.serve(&request()).map(Served::into_response).unwrap();
    // Serving `ctx` must reflect the edited 6-token content.
    assert_eq!(r.stats.cached_tokens, 6);
    // And the output must equal a fresh engine's (no stale states leaked).
    let fresh = bare_engine(EngineConfig::default());
    fresh.register_schema(edited).unwrap();
    let f = fresh.serve(&request()).map(Served::into_response).unwrap();
    assert_eq!(r.tokens, f.tokens);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn registration_preloads_lazily_without_an_explicit_restore() {
    // restore() is an optimization, not a requirement: lookups fall
    // through host → disk, so registration over a warm directory pulls
    // each matching module up on its own.
    let dir = temp_dir("lazy");
    let healthy;
    {
        let engine = bare_engine(disk_config(&dir, ColdEncoding::F32));
        engine.register_schema(SCHEMA).unwrap();
        healthy = serve(&engine);
        engine.snapshot().unwrap();
    }

    let engine = bare_engine(disk_config(&dir, ColdEncoding::F32));
    engine.register_schema(SCHEMA).unwrap();
    let stats = engine.store_stats();
    assert!(stats.disk_hits >= 2, "registration preloaded from disk: {stats:?}");
    assert!(stats.promotions >= 2, "{stats:?}");

    let warm = serve(&engine);
    assert_eq!(warm.stats.degraded_spans, 0);
    assert_eq!(warm.tokens, healthy.tokens);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_and_restore_require_a_disk_tier() {
    let engine = bare_engine(EngineConfig::default());
    engine.register_schema(SCHEMA).unwrap();
    for err in [
        engine.snapshot().unwrap_err(),
        engine.restore().unwrap_err(),
    ] {
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}

#[test]
fn int8_restart_stays_within_the_quantization_bound() {
    // A quantized snapshot is lossy by design; the restart contract is
    // a bounded drift: positions exact, every state element within the
    // per-row int8 step (≤ max|row| / 127).
    let dir = temp_dir("int8");
    let originals;
    {
        let engine = bare_engine(disk_config(&dir, ColdEncoding::Int8));
        engine.register_schema(SCHEMA).unwrap();
        serve(&engine);
        // Capture the exact f32 states still resident in host memory.
        originals = engine
            .store()
            .snapshot()
            .into_iter()
            .map(|row| {
                let states = engine.store().get(&row.key, Tier::Host).unwrap();
                (row.key, states)
            })
            .collect::<Vec<_>>();
        assert!(engine.snapshot().unwrap() >= originals.len());
    }

    let engine = bare_engine(disk_config(&dir, ColdEncoding::Int8));
    assert_eq!(engine.restore().unwrap(), originals.len());
    for (key, original) in &originals {
        let back = engine.store().get(key, Tier::Host).unwrap();
        assert_eq!(back.positions(), original.positions(), "positions exact");
        assert_eq!(back.len(), original.len());
        for layer in 0..original.num_layers() {
            let bound = original
                .keys(layer)
                .iter()
                .chain(original.values(layer).iter())
                .fold(0.0f32, |m, x| m.max(x.abs()))
                / 127.0
                + 1e-6;
            for (x, y) in original.keys(layer).iter().zip(back.keys(layer)) {
                assert!((x - y).abs() <= bound, "key drift {x} vs {y} (bound {bound})");
            }
            for (x, y) in original.values(layer).iter().zip(back.values(layer)) {
                assert!((x - y).abs() <= bound, "value drift {x} vs {y} (bound {bound})");
            }
        }
    }

    // The drifted states still serve end-to-end.
    engine.register_schema(SCHEMA).unwrap();
    let warm = serve(&engine);
    assert_eq!(warm.stats.degraded_spans, 0, "quantized states validate and serve");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_version_1_store_opens_cold_and_is_repopulated() {
    // The format version also marks the engine's numerics (version 2: the
    // in-repo `exp`). A directory written before that must not be mixed
    // with freshly encoded modules: it opens empty, without error, and
    // registration fills it again.
    use pc_cache::segment::{checksum_bytes, SEGMENT_VERSION};
    assert_ne!(SEGMENT_VERSION, 1);
    let dir = temp_dir("v1");
    let healthy;
    let persisted;
    {
        let engine = bare_engine(disk_config(&dir, ColdEncoding::F32));
        engine.register_schema(SCHEMA).unwrap();
        healthy = serve(&engine);
        persisted = engine.snapshot().unwrap();
        assert!(persisted >= 2);
    }
    // Stamp every segment header and the INDEX (checksum kept valid) as
    // version 1, which is all that tells an old directory from a new one.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        if path.file_name().unwrap() == "INDEX" {
            let body = bytes.len() - 8;
            let sum = checksum_bytes(&[&bytes[..body]]);
            bytes[body..].copy_from_slice(&sum.to_le_bytes());
        }
        std::fs::write(&path, &bytes).unwrap();
    }

    let engine = bare_engine(disk_config(&dir, ColdEncoding::F32));
    assert_eq!(
        engine.restore().unwrap(),
        0,
        "nothing of version 1 is adopted"
    );
    engine.register_schema(SCHEMA).unwrap();
    assert_eq!(engine.store_stats().disk_hits, 0, "registration re-encoded");
    let cold = serve(&engine);
    assert_eq!(cold.stats.degraded_spans, 0);
    assert_eq!(cold.tokens, healthy.tokens);
    assert_eq!(engine.snapshot().unwrap(), persisted);
    drop(engine);

    let engine = bare_engine(disk_config(&dir, ColdEncoding::F32));
    assert_eq!(
        engine.restore().unwrap(),
        persisted,
        "repopulated at version 2"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
