//! The engine blueprint: a deterministic recipe from which every fleet
//! shard builds *the same engine* — same model weights (seeded), same
//! tokenizer (trained from the same corpus), same engine knobs. That
//! determinism is what makes fleet serving byte-identical to a single
//! engine even when requests re-route across shards.

use pc_model::{Model, ModelConfig};
use pc_tokenizer::{BpeTokenizer, WordTokenizer};
use prompt_cache::{EngineConfig, PromptCache};

/// Tokenizer recipe: enough to retrain the exact tokenizer for every
/// shard. Both trainers are deterministic functions of their inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenizerSpec {
    /// `WordTokenizer::train(corpus)`.
    Word {
        /// Training corpus lines.
        corpus: Vec<String>,
    },
    /// `BpeTokenizer::train(corpus, vocab_size)`.
    Bpe {
        /// Training corpus lines.
        corpus: Vec<String>,
        /// Target vocabulary size.
        vocab_size: usize,
    },
}

/// A deterministic recipe for building identical engines across shards:
/// model config + weight seed + tokenizer recipe. Two `build()` calls
/// yield engines that serve byte-identical responses.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct EngineBlueprint {
    /// Model architecture and dimensions.
    pub model: ModelConfig,
    /// Seed for the deterministic weight initialisation.
    pub model_seed: u64,
    /// Tokenizer recipe.
    pub tokenizer: TokenizerSpec,
}

impl EngineBlueprint {
    /// A blueprint for engines built with `EngineConfig::default()`.
    #[must_use]
    pub fn new(model: ModelConfig, model_seed: u64, tokenizer: TokenizerSpec) -> Self {
        EngineBlueprint {
            model,
            model_seed,
            tokenizer,
        }
    }

    /// Builds the engine this blueprint describes. Deterministic: every
    /// call yields an engine with identical weights,
    /// tokenizer, and serving behaviour.
    #[must_use]
    pub fn build(&self) -> PromptCache {
        let model = Model::new(self.model.clone(), self.model_seed);
        let config = EngineConfig::default();
        match &self.tokenizer {
            TokenizerSpec::Word { corpus } => {
                let refs: Vec<&str> = corpus.iter().map(String::as_str).collect();
                PromptCache::new(model, WordTokenizer::train(&refs), config)
            }
            TokenizerSpec::Bpe { corpus, vocab_size } => {
                let refs: Vec<&str> = corpus.iter().map(String::as_str).collect();
                PromptCache::new(model, BpeTokenizer::train(&refs, *vocab_size), config)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blueprint() -> EngineBlueprint {
        EngineBlueprint::new(
            ModelConfig::falcon_tiny(300),
            7,
            TokenizerSpec::Bpe {
                corpus: vec!["hello world".into(), "fleet of workers".into()],
                vocab_size: 280,
            },
        )
    }

    #[test]
    fn blueprint_builds_identical_engines() {
        let bp = blueprint();
        let a = bp.build();
        let b = bp.build();
        let schema = r#"<schema name="s"><module name="m">hello world</module></schema>"#;
        a.register_schema(schema).unwrap();
        b.register_schema(schema).unwrap();
        let req = prompt_cache::ServeRequest::new(r#"<prompt schema="s"><m/>fleet</prompt>"#)
            .max_new_tokens(4);
        let ra = a.serve(&req).unwrap().into_response();
        let rb = b.serve(&req).unwrap().into_response();
        assert_eq!(ra.tokens, rb.tokens);
        assert_eq!(ra.text, rb.text);
    }
}
