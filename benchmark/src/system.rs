//! Building the system under test: tokenizer, model, engine, server,
//! schema registration. This is the work `setup_s` times.

use crate::gen::{Lexicon, Plan, SchemaDef, TOKENIZER_VOCAB};
use pc_cache::{DiskConfig, StoreConfig};
use pc_model::{Model, ModelConfig, Parallelism};
use pc_server::wire::TokenizerSpec;
use pc_server::{EngineBlueprint, Server, ServerConfig};
use pc_tokenizer::{BpeTokenizer, Tokenizer};
use prompt_cache::{BatchConfig, EngineConfig, PromptCache};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed of the model's random weights: part of the system, not of the
/// load, so it does not follow `--seed`.
pub const MODEL_SEED: u64 = 20_240_511;

/// Decode batch ceiling of the server and of the scheduler rung.
pub const MAX_BATCH: usize = 8;

/// Admission queue deep enough that the open loop is never refused: a
/// refusal would be a failed request, and the workloads are chosen so that
/// no operation fails.
const QUEUE_CAPACITY: usize = 1024;

/// Model dimensions, written out so an edit to a preset elsewhere cannot
/// resize the benchmark. On the machine this landed on they make a hit a
/// few milliseconds and a bypass a few tens.
pub fn model_config(vocab_size: usize) -> ModelConfig {
    ModelConfig {
        hidden_size: 64,
        num_layers: 4,
        num_heads: 4,
        num_kv_heads: 4,
        intermediate_size: 192,
        max_position: 4096,
        parallelism: Parallelism::serial(),
        ..ModelConfig::llama_small(vocab_size)
    }
}

pub fn batch_config() -> BatchConfig {
    BatchConfig::default().max_batch_size(MAX_BATCH)
}

/// Scratch directory for disk tiers and trace files, inside the checkout
/// the benchmark was started from; removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> Self {
        let dir = Path::new("benchmark/.tmp").join(format!("{label}-{}", std::process::id()));
        // A leftover from a killed run with the same pid would be restored
        // as a warm disk tier; start from nothing.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory inside the checkout is writable");
        ScratchDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Bytes of regular files directly inside the directory.
    pub fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok()?.metadata().ok())
                    .filter(|m| m.is_file())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind; fails harmlessly while another
        // scratch directory is alive.
        let _ = std::fs::remove_dir("benchmark/.tmp");
    }
}

/// A running server over a freshly built engine, plus what set-up observed.
pub struct System {
    pub server: Server,
    /// Caller-observed `register_schema` latency of each schema, in ms.
    pub register_ms: Vec<f64>,
    pub setup_s: f64,
    /// Dropped after the server, which holds the disk tier open.
    pub scratch: Option<ScratchDir>,
}

impl System {
    pub fn engine(&self) -> &PromptCache {
        self.server.engine()
    }

    pub fn shutdown(self) {
        self.server.shutdown();
        drop(self.scratch);
    }
}

fn store_config(plan: &Plan, scratch: Option<&ScratchDir>) -> StoreConfig {
    let mut config = StoreConfig::default().host_capacity_bytes(plan.host_capacity_bytes);
    if let Some(dir) = scratch {
        config = config.disk(DiskConfig::new(dir.path()));
    }
    config
}

/// Builds the engine the plan asks for. `bounded` = false gives the
/// reference engine: same model and tokenizer, unbounded in-memory store.
pub fn build_engine(
    plan: &Plan,
    tokenizer: BpeTokenizer,
    bounded: bool,
) -> (PromptCache, Option<ScratchDir>) {
    let model = Model::new(model_config(tokenizer.vocab_size()), MODEL_SEED);
    let scratch = (bounded && plan.disk_tier).then(|| ScratchDir::new("disk"));
    let store = if bounded {
        store_config(plan, scratch.as_ref())
    } else {
        StoreConfig::default()
    };
    let config = EngineConfig::default()
        .parallelism(Parallelism::serial())
        .store(store);
    (PromptCache::new(model, tokenizer, config), scratch)
}

/// Registers `schemas`, returning each call's latency in ms. Set-up checks
/// the engine cached exactly the tokens the generator sized.
pub fn register_all(engine: &PromptCache, schemas: &[SchemaDef]) -> Vec<f64> {
    schemas
        .iter()
        .map(|schema| {
            let started = Instant::now();
            let info = engine
                .register_schema(&schema.pml)
                .unwrap_or_else(|e| panic!("registering {}: {e}", schema.name));
            let ms = started.elapsed().as_secs_f64() * 1e3;
            assert_eq!(
                info.cached_tokens, schema.tokens,
                "schema {} cached another token count than generated",
                schema.name
            );
            ms
        })
        .collect()
}

/// Process start → ready to serve, minus the warm-up, which the caller
/// runs through the driver and adds: tokenizer training, model init, server
/// start, schema registration (module encoding + insert).
pub fn setup(plan: &Plan, lexicon: &Lexicon) -> System {
    let started = Instant::now();
    let tokenizer = lexicon.train_tokenizer();
    let (engine, scratch) = build_engine(plan, tokenizer, true);
    let config = ServerConfig::default()
        .queue_capacity(QUEUE_CAPACITY)
        .batching(batch_config());
    let server = Server::start(engine, config);
    let register_ms = register_all(server.engine(), &plan.schemas);
    System {
        server,
        register_ms,
        setup_s: started.elapsed().as_secs_f64(),
        scratch,
    }
}

/// The recipe fleet workers build their engines from: the same model and
/// tokenizer as [`setup`], default (unbounded) stores.
pub fn blueprint(lexicon: &Lexicon, vocab_size: usize) -> EngineBlueprint {
    EngineBlueprint::new(
        model_config(vocab_size),
        MODEL_SEED,
        TokenizerSpec::Bpe {
            corpus: lexicon.corpus.clone(),
            vocab_size: TOKENIZER_VOCAB,
        },
    )
}
