//! Token samplers.
//!
//! The paper's accuracy evaluation uses "deterministic sampling where the
//! token with the highest probability is chosen at every step so that the
//! results with and without Prompt Cache are comparable" — that is
//! [`GreedySampler`], the default throughout this reproduction.
//! [`TemperatureSampler`] exists for the qualitative use-case examples.

use crate::TokenId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Maps a logit vector to the next token id.
pub trait Sampler {
    /// Picks a token from `logits` (length = vocab size).
    fn sample(&mut self, logits: &[f32]) -> TokenId;
}

/// Deterministic argmax sampling (ties break to the lower id).
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedySampler;

impl Sampler for GreedySampler {
    fn sample(&mut self, logits: &[f32]) -> TokenId {
        pc_tensor::ops::argmax_slice(logits).expect("non-empty logits") as TokenId
    }
}

/// Seeded temperature sampling over the softmax distribution.
#[derive(Debug)]
pub struct TemperatureSampler {
    temperature: f32,
    rng: StdRng,
}

impl TemperatureSampler {
    /// Creates a sampler with the given temperature (clamped to ≥ 1e-3;
    /// lower values behave like greedy) and RNG seed.
    pub fn new(temperature: f32, seed: u64) -> Self {
        TemperatureSampler {
            temperature: temperature.max(1e-3),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Sampler for TemperatureSampler {
    fn sample(&mut self, logits: &[f32]) -> TokenId {
        let mut probs: Vec<f32> = logits.iter().map(|&l| l / self.temperature).collect();
        pc_tensor::ops::softmax_slice(&mut probs);
        let draw: f32 = self.rng.gen_range(0.0..1.0);
        let mut acc = 0.0;
        for (i, &p) in probs.iter().enumerate() {
            acc += p;
            if draw < acc {
                return i as TokenId;
            }
        }
        (probs.len() - 1) as TokenId
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_picks_max() {
        let mut s = GreedySampler;
        assert_eq!(s.sample(&[0.1, 3.0, 1.0]), 1);
    }

    #[test]
    fn greedy_tie_breaks_low() {
        let mut s = GreedySampler;
        assert_eq!(s.sample(&[2.0, 2.0]), 0);
    }

    #[test]
    fn temperature_is_seeded_deterministic() {
        let logits = [0.0, 1.0, 2.0, 0.5];
        let a: Vec<_> = {
            let mut s = TemperatureSampler::new(1.0, 42);
            (0..10).map(|_| s.sample(&logits)).collect()
        };
        let b: Vec<_> = {
            let mut s = TemperatureSampler::new(1.0, 42);
            (0..10).map(|_| s.sample(&logits)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn low_temperature_approaches_greedy() {
        let logits = [0.0, 5.0, 1.0];
        let mut s = TemperatureSampler::new(1e-6, 7);
        for _ in 0..20 {
            assert_eq!(s.sample(&logits), 1);
        }
    }

    #[test]
    fn high_temperature_spreads_mass() {
        let logits = [0.0, 1.0];
        let mut s = TemperatureSampler::new(50.0, 3);
        let picks: Vec<_> = (0..200).map(|_| s.sample(&logits)).collect();
        assert!(picks.contains(&0));
        assert!(picks.contains(&1));
    }

    #[test]
    fn sampler_never_exceeds_vocab() {
        let logits = [f32::NEG_INFINITY, f32::NEG_INFINITY, 0.0];
        let mut s = TemperatureSampler::new(1.0, 5);
        for _ in 0..50 {
            assert!((s.sample(&logits) as usize) < 3);
        }
    }
}
