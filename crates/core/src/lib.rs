//! Prompt Cache: modular cross-request attention-state reuse.
//!
//! This crate is the paper's primary contribution assembled over the
//! substrates: it owns schema registration (parse → chat-template compile →
//! position layout → **prompt module encoding**, §3.3), and cached
//! inference (resolve → fetch → **buffered concat** → compute uncached
//! tokens at gap positions → decode, §3.4), plus the baseline KV-cache
//! path that shares the identical pipeline except for attention-state
//! reuse — exactly the comparison the paper's evaluation makes.
//!
//! # Quickstart
//!
//! ```
//! use prompt_cache::{EngineConfig, PromptCache};
//! use pc_model::{Model, ModelConfig};
//! use pc_tokenizer::BpeTokenizer;
//!
//! let model = Model::new(ModelConfig::llama_tiny(300), 0);
//! let tokenizer = BpeTokenizer::train(&["a tiny corpus of words"], 280);
//! let engine = PromptCache::new(model, tokenizer, EngineConfig::default());
//!
//! engine.register_schema(r#"
//!   <schema name="cities">
//!     <module name="miami">Miami: beaches, surf, sun.</module>
//!   </schema>"#).unwrap();
//!
//! use prompt_cache::ServeRequest;
//! let served = engine
//!     .serve(
//!         &ServeRequest::new(r#"<prompt schema="cities"><miami/>Where should I surf?</prompt>"#)
//!             .max_new_tokens(4),
//!     )
//!     .unwrap();
//! assert!(served.stats.cached_tokens > 0);
//! ```

#![warn(missing_docs)]

mod batch;
mod cancel;
mod conversation;
mod engine;
mod error;
mod render;
mod request;
mod response;
mod scaffold;
mod sched;

pub use batch::{BatchReport, BatchSharing};
pub use cancel::CancelToken;
pub use conversation::{Conversation, Turn};
pub use engine::{EngineConfig, PromptCache, RegisterOptions, ServeOptions};
pub use request::{ServeRequest, Served};
pub use sched::{
    Admission, BatchConfig, BatchGroupInfo, BatchScheduler, BatchSeqInfo, BatchSnapshot,
};
pub use pc_tensor::Parallelism;
pub use pc_telemetry::Telemetry;
pub use error::EngineError;
pub use response::{Response, ServeOutcome, ServeStats, Timings, TtftBreakdown};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, EngineError>;
