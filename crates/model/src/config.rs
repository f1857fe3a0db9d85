//! Model configuration and family presets.

use crate::{ModelError, Result};
use pc_tensor::Parallelism;

/// The transformer families supported by the engine.
///
/// Each family fixes the positional-encoding scheme, normalisation layer,
/// MLP shape, and block topology; see the [crate docs](crate) for the
/// matrix. These mirror the architectures the paper evaluates (§4.2):
/// Llama2, Falcon, MPT, plus the learned-embedding family (BERT/GPT-2) the
/// paper notes needs no adaptation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Llama2-style: RoPE, RMSNorm, SiLU-gated MLP, sequential block.
    Llama,
    /// Falcon-style: RoPE, multi-query attention, LayerNorm, parallel block.
    Falcon,
    /// MPT-style: ALiBi positional biases, LayerNorm, sequential block.
    Mpt,
    /// GPT-2-style: learned position embeddings, LayerNorm, sequential block.
    Gpt2,
}

impl Family {
    /// All supported families.
    pub const ALL: [Family; 4] = [Family::Llama, Family::Falcon, Family::Mpt, Family::Gpt2];

    /// Short display name used by benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            Family::Llama => "llama",
            Family::Falcon => "falcon",
            Family::Mpt => "mpt",
            Family::Gpt2 => "gpt2",
        }
    }
}

/// Hyperparameters of a model instance.
///
/// Use the `*_tiny` / `*_small` presets for tests and examples, or
/// [`ModelConfig::validated`] for custom shapes.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Architecture family.
    pub family: Family,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Hidden (embedding) dimension `d`.
    pub hidden_size: usize,
    /// Number of transformer layers.
    pub num_layers: usize,
    /// Number of query heads.
    pub num_heads: usize,
    /// Number of key/value heads (equal to `num_heads` for MHA, 1 for MQA,
    /// in between for GQA). Must divide `num_heads`.
    pub num_kv_heads: usize,
    /// MLP intermediate dimension.
    pub intermediate_size: usize,
    /// Maximum position id (exclusive). Sizes the RoPE/ALiBi lookup tables
    /// and the learned position-embedding table.
    pub max_position: usize,
    /// RoPE base frequency.
    pub rope_theta: f32,
    /// Epsilon for RMSNorm/LayerNorm.
    pub norm_eps: f32,
    /// Thread count and serial/parallel threshold for the matmul and
    /// attention kernels. Presets default to [`Parallelism::serial`];
    /// callers opt in with [`Parallelism::from_env`] (honours
    /// `PC_THREADS`) or an explicit thread count. Results are
    /// bit-identical at any thread count — each output row is produced by
    /// exactly one thread running the serial kernel's floating-point
    /// order, and no reductions cross threads.
    pub parallelism: Parallelism,
}

impl ModelConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] when head counts don't divide
    /// evenly or any dimension is zero.
    pub fn validated(self) -> Result<Self> {
        let err = |detail: String| Err(ModelError::InvalidConfig { detail });
        if self.parallelism.num_threads == 0 {
            return err("parallelism.num_threads must be >= 1 (use 1 for single-threaded)".into());
        }
        if self.vocab_size == 0
            || self.hidden_size == 0
            || self.num_layers == 0
            || self.num_heads == 0
            || self.num_kv_heads == 0
            || self.intermediate_size == 0
            || self.max_position == 0
        {
            return err("all dimensions must be nonzero".into());
        }
        if !self.hidden_size.is_multiple_of(self.num_heads) {
            return err(format!(
                "hidden_size {} not divisible by num_heads {}",
                self.hidden_size, self.num_heads
            ));
        }
        if !self.num_heads.is_multiple_of(self.num_kv_heads) {
            return err(format!(
                "num_heads {} not divisible by num_kv_heads {}",
                self.num_heads, self.num_kv_heads
            ));
        }
        if !self.head_dim().is_multiple_of(2) && matches!(self.family, Family::Llama | Family::Falcon) {
            return err(format!("RoPE requires even head_dim, got {}", self.head_dim()));
        }
        Ok(self)
    }

    /// Dimension of one attention head.
    pub fn head_dim(&self) -> usize {
        self.hidden_size / self.num_heads
    }

    /// Total key (or value) width per token: `num_kv_heads × head_dim`.
    pub fn kv_dim(&self) -> usize {
        self.num_kv_heads * self.head_dim()
    }

    /// How many query heads share one kv head.
    pub fn kv_group_size(&self) -> usize {
        self.num_heads / self.num_kv_heads
    }

    /// Bytes needed to cache one token's (k, v) states across all layers at
    /// the given element width — the paper's Table 2 quantity.
    pub fn kv_bytes_per_token(&self, bytes_per_element: usize) -> usize {
        2 * self.num_layers * self.kv_dim() * bytes_per_element
    }

    /// The positional-encoding scheme implied by the family.
    pub fn position_scheme(&self) -> PositionScheme {
        match self.family {
            Family::Llama | Family::Falcon => PositionScheme::Rope,
            Family::Mpt => PositionScheme::Alibi,
            Family::Gpt2 => PositionScheme::Learned,
        }
    }

    fn base(family: Family, vocab_size: usize) -> Self {
        ModelConfig {
            family,
            vocab_size,
            hidden_size: 64,
            num_layers: 2,
            num_heads: 4,
            num_kv_heads: 4,
            intermediate_size: 128,
            max_position: 4096,
            rope_theta: 10_000.0,
            norm_eps: 1e-5,
            parallelism: Parallelism::serial(),
        }
    }

    /// Tiny Llama-style config (64-dim, 2 layers) for tests.
    pub fn llama_tiny(vocab_size: usize) -> Self {
        Self::base(Family::Llama, vocab_size)
    }

    /// Tiny Falcon-style config with multi-query attention.
    pub fn falcon_tiny(vocab_size: usize) -> Self {
        ModelConfig {
            num_kv_heads: 1,
            ..Self::base(Family::Falcon, vocab_size)
        }
    }

    /// Tiny MPT-style config (ALiBi).
    pub fn mpt_tiny(vocab_size: usize) -> Self {
        Self::base(Family::Mpt, vocab_size)
    }

    /// Tiny GPT-2-style config (learned position embeddings).
    pub fn gpt2_tiny(vocab_size: usize) -> Self {
        ModelConfig {
            max_position: 2048,
            ..Self::base(Family::Gpt2, vocab_size)
        }
    }

    /// Small Llama-style config (128-dim, 4 layers) for examples and the
    /// measured latency benches.
    pub fn llama_small(vocab_size: usize) -> Self {
        ModelConfig {
            hidden_size: 128,
            num_layers: 4,
            num_heads: 8,
            num_kv_heads: 8,
            intermediate_size: 256,
            max_position: 8192,
            ..Self::base(Family::Llama, vocab_size)
        }
    }
}

/// Positional-encoding scheme (derived from [`Family`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PositionScheme {
    /// Rotary position embeddings applied to q/k.
    Rope,
    /// Linear attention biases from position distances.
    Alibi,
    /// Learned position-embedding table added at the input.
    Learned,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for cfg in [
            ModelConfig::llama_tiny(100),
            ModelConfig::falcon_tiny(100),
            ModelConfig::mpt_tiny(100),
            ModelConfig::gpt2_tiny(100),
            ModelConfig::llama_small(100),
        ] {
            assert!(cfg.validated().is_ok());
        }
    }

    #[test]
    fn invalid_head_split_rejected() {
        let cfg = ModelConfig {
            num_heads: 3,
            ..ModelConfig::llama_tiny(10)
        };
        assert!(cfg.validated().is_err());
    }

    #[test]
    fn invalid_kv_grouping_rejected() {
        let cfg = ModelConfig {
            num_kv_heads: 3,
            ..ModelConfig::llama_tiny(10)
        };
        assert!(cfg.validated().is_err());
    }

    #[test]
    fn zero_dimension_rejected() {
        let cfg = ModelConfig {
            num_layers: 0,
            ..ModelConfig::llama_tiny(10)
        };
        assert!(cfg.validated().is_err());
    }

    #[test]
    fn derived_dims() {
        let cfg = ModelConfig::llama_tiny(10);
        assert_eq!(cfg.head_dim(), 16);
        assert_eq!(cfg.kv_dim(), 64);
        assert_eq!(cfg.kv_group_size(), 1);
        let mqa = ModelConfig::falcon_tiny(10);
        assert_eq!(mqa.kv_dim(), 16);
        assert_eq!(mqa.kv_group_size(), 4);
    }

    #[test]
    fn kv_bytes_per_token_formula() {
        // 2 (k and v) × layers × kv_dim × element size.
        let cfg = ModelConfig::llama_tiny(10);
        assert_eq!(cfg.kv_bytes_per_token(2), 2 * 2 * 64 * 2);
    }

    #[test]
    fn schemes_follow_family() {
        assert_eq!(
            ModelConfig::llama_tiny(1).position_scheme(),
            PositionScheme::Rope
        );
        assert_eq!(
            ModelConfig::mpt_tiny(1).position_scheme(),
            PositionScheme::Alibi
        );
        assert_eq!(
            ModelConfig::gpt2_tiny(1).position_scheme(),
            PositionScheme::Learned
        );
    }
}
