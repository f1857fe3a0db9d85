//! Output oracle: a reference engine with an unbounded store serves every
//! distinct prompt the run sent, alone and greedily; every timed and traced
//! response must equal its reference token for token.

use crate::drive::Sample;
use crate::gen::{Lexicon, Plan};
use crate::system::{build_engine, register_all};
use prompt_cache::ServeRequest;
use std::collections::BTreeMap;

pub struct Oracle {
    /// Prompt index → reference tokens, for every prompt that was sent.
    references: BTreeMap<usize, Vec<u32>>,
}

impl Oracle {
    /// Built after the timed window, so the reference engine's memory does
    /// not count towards `peak_rss_mb`.
    pub fn build(plan: &Plan, lexicon: &Lexicon, sent: impl Iterator<Item = usize>) -> Oracle {
        let (engine, _) = build_engine(plan, lexicon.train_tokenizer(), false);
        register_all(&engine, &plan.schemas);
        register_all(&engine, &plan.fresh);
        let mut references = BTreeMap::new();
        for index in sent {
            references.entry(index).or_insert_with(|| {
                let prompt = &plan.prompts[index];
                let request = ServeRequest::new(prompt.pml.as_str())
                    .max_new_tokens(prompt.max_new_tokens)
                    .baseline(prompt.baseline);
                let served = engine
                    .serve(&request)
                    .unwrap_or_else(|e| panic!("reference serve of prompt {index}: {e}"));
                served.into_response().tokens
            });
        }
        Oracle { references }
    }

    /// Whether the sample completed and its tokens equal the reference.
    pub fn correct(&self, sample: &Sample) -> bool {
        match &sample.result {
            Ok(reply) => self.references.get(&sample.prompt) == Some(&reply.tokens),
            Err(_) => false,
        }
    }

    /// FNV-1a over the reference outputs in prompt order. Two commits whose
    /// runs are all correct and print the same digest emitted the same
    /// tokens for the same prompts.
    pub fn digest(&self) -> u64 {
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for (index, tokens) in &self.references {
            mix(*index as u64);
            mix(tokens.len() as u64);
            tokens.iter().for_each(|&t| mix(u64::from(t)));
        }
        hash
    }
}
