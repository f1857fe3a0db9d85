//! From-scratch transformer inference engine with explicit position IDs.
//!
//! This crate is the reproduction's stand-in for "HuggingFace transformers +
//! PyTorch" (paper §4): a CPU inference engine for decoder-only transformers
//! whose every attention call takes **explicit per-token position IDs**.
//! That is the single architectural requirement Prompt Cache adds on top of
//! an ordinary KV-cache engine (§4.2): prompt modules are encoded at the
//! absolute positions the schema assigns them, and uncached prompt text is
//! computed at gap positions, so position IDs arrive discontinuous and
//! out of lock-step with cache indices.
//!
//! Four model families cover the paper's architecture matrix:
//!
//! | Family | Positional encoding | Norm | MLP | Block |
//! |---|---|---|---|---|
//! | [`Family::Llama`]  | RoPE (rotation lookup table) | RMSNorm | SiLU-gated | sequential |
//! | [`Family::Falcon`] | RoPE + multi-query attention | LayerNorm | GELU | parallel attn+MLP |
//! | [`Family::Mpt`]    | ALiBi (bias from position IDs) | LayerNorm | GELU | sequential |
//! | [`Family::Gpt2`]   | learned position embeddings | LayerNorm | GELU | sequential |
//!
//! RoPE and ALiBi are implemented exactly as §4.2 prescribes for Prompt
//! Cache: position IDs index precomputed lookup tables (rotations for RoPE,
//! slope-scaled distances for ALiBi) rather than being assumed contiguous.
//!
//! # Example
//!
//! ```
//! use pc_model::{KvCache, Model, ModelConfig};
//!
//! let cfg = ModelConfig::llama_tiny(512);
//! let model = Model::new(cfg, 0);
//! let mut cache = KvCache::new(model.config());
//! // Prefill three tokens at positions 0..3, then greedily pick the next.
//! let logits = model.forward(&[11, 42, 7], &[0, 1, 2], &mut cache).unwrap();
//! let next = pc_tensor::ops::argmax_slice(logits.row(2).unwrap()).unwrap();
//! assert!(next < 512);
//! ```

#![warn(missing_docs)]

pub mod attention;
mod config;
mod error;
pub mod fidelity;
pub mod flops;
mod kv;
mod model;
mod pos;
mod sampler;
pub mod view;
mod weights;

pub use config::{Family, ModelConfig};
pub use pc_tensor::{ops::gemm_arm, Parallelism};
pub use error::ModelError;
pub use kv::{KvCache, LayerKv};
pub use model::{BatchScratch, BatchStepStats, Model};
pub use view::{
    group_adjacent_prefixes, shared_prefix, KvSegment, KvSeq, KvView, PrefixGroup, SegmentId,
};
pub use pos::{is_shift_invariant, AlibiTable, PositionEncoding, RopeTable};
pub use sampler::{GreedySampler, Sampler, TemperatureSampler};
pub use weights::{LayerWeights, ModelWeights};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ModelError>;

/// Token id type (matches `pc_tokenizer::TokenId`).
pub type TokenId = u32;
