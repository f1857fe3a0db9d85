//! Byte-level byte-pair-encoding tokenizer.
//!
//! Training starts from the 256 single-byte tokens and greedily merges the
//! most frequent adjacent pair until the target vocabulary size is reached.
//! Ties break lexicographically on the pair's byte content so training is
//! fully deterministic. Because every byte is representable, encoding is
//! lossless: `decode(encode(s)) == s` for any string (a property test pins
//! this down).

use crate::{SpecialToken, TokenId, Tokenizer};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// A trained byte-level BPE tokenizer.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct BpeTokenizer {
    /// Byte content of every token, indexed by id minus the special offset.
    token_bytes: Vec<Vec<u8>>,
    /// Merge ranks: (left, right) internal ids → merged internal id, with
    /// rank = merge order (lower merges first during encoding).
    merges: HashMap<(u32, u32), (u32, u32)>, // pair -> (rank, merged_id)
    specials: usize,
}

impl BpeTokenizer {
    /// Trains a tokenizer on `corpus`, growing the vocabulary to at most
    /// `vocab_size` tokens (clamped from below to the 256 byte tokens plus
    /// the special tokens).
    pub fn train(corpus: &[&str], vocab_size: usize) -> Self {
        let specials = SpecialToken::ALL.len();
        let base = specials + 256;
        let target = vocab_size.max(base);

        // Internal ids: 0..256 are raw bytes. Merged tokens extend upward.
        let mut token_bytes: Vec<Vec<u8>> = (0..=255u8).map(|b| vec![b]).collect();
        let mut sequences: Vec<Vec<u32>> = corpus
            .iter()
            .map(|s| s.bytes().map(u32::from).collect())
            .collect();
        let mut merges: HashMap<(u32, u32), (u32, u32)> = HashMap::new();

        let mut rank = 0u32;
        while token_bytes.len() + specials < target {
            // Count adjacent pairs across all sequences.
            let mut counts: HashMap<(u32, u32), usize> = HashMap::new();
            for seq in &sequences {
                for w in seq.windows(2) {
                    *counts.entry((w[0], w[1])).or_insert(0) += 1;
                }
            }
            // Pick the most frequent pair; tie-break on byte content so the
            // result is independent of hash iteration order.
            let best = counts
                .iter()
                .filter(|&(_, &c)| c >= 2)
                .max_by(|(pa, ca), (pb, cb)| {
                    ca.cmp(cb).then_with(|| {
                        let ka = (&token_bytes[pa.0 as usize], &token_bytes[pa.1 as usize]);
                        let kb = (&token_bytes[pb.0 as usize], &token_bytes[pb.1 as usize]);
                        kb.cmp(&ka) // prefer lexicographically smaller pair
                    })
                })
                .map(|(&p, _)| p);
            let Some(pair) = best else { break };

            let merged_id = token_bytes.len() as u32;
            let mut bytes = token_bytes[pair.0 as usize].clone();
            bytes.extend_from_slice(&token_bytes[pair.1 as usize]);
            token_bytes.push(bytes);
            merges.insert(pair, (rank, merged_id));
            rank += 1;

            for seq in &mut sequences {
                apply_merge(seq, pair, merged_id);
            }
        }

        BpeTokenizer {
            token_bytes,
            merges,
            specials,
        }
    }

    /// A merge-free tokenizer (one token per byte). Useful as a fixture.
    pub fn byte_level() -> Self {
        BpeTokenizer::train(&[], 0)
    }

    /// Number of learned merges.
    pub fn num_merges(&self) -> usize {
        self.merges.len()
    }

    /// Iterates merge rules as `((left, right), (rank, merged))` internal
    /// ids — used by the serialisation snapshot.
    pub(crate) fn merges_iter(&self) -> impl Iterator<Item = ((u32, u32), (u32, u32))> + '_ {
        self.merges.iter().map(|(&pair, &val)| (pair, val))
    }

    /// Byte contents of every token in internal-id order.
    pub(crate) fn token_bytes_vec(&self) -> Vec<Vec<u8>> {
        self.token_bytes.clone()
    }

    /// Rebuilds a tokenizer from snapshot parts.
    pub(crate) fn from_parts(
        token_bytes: Vec<Vec<u8>>,
        merges: HashMap<(u32, u32), (u32, u32)>,
    ) -> Self {
        BpeTokenizer {
            token_bytes,
            merges,
            specials: SpecialToken::ALL.len(),
        }
    }

    fn internal_to_public(&self, internal: u32) -> TokenId {
        internal + self.specials as u32
    }

    fn public_to_internal(&self, id: TokenId) -> Option<u32> {
        (id as usize >= self.specials).then(|| id - self.specials as u32)
    }
}

/// Replaces every occurrence of `pair` in `seq` with `merged`.
fn apply_merge(seq: &mut Vec<u32>, pair: (u32, u32), merged: u32) {
    let mut out = Vec::with_capacity(seq.len());
    let mut i = 0;
    while i < seq.len() {
        if i + 1 < seq.len() && seq[i] == pair.0 && seq[i + 1] == pair.1 {
            out.push(merged);
            i += 2;
        } else {
            out.push(seq[i]);
            i += 1;
        }
    }
    *seq = out;
}

impl Tokenizer for BpeTokenizer {
    /// Applies the lowest-rank applicable merge, all its occurrences left
    /// to right, until none applies — training replay, so encoding is
    /// canonical — in `O(n log n)`: tokens sit in a doubly linked list over
    /// byte positions, candidate merges in a min-heap keyed
    /// `(rank, position)`, and a merge writes its token at the left
    /// position, unlinks the right one and queues the two pairs it forms.
    /// A queued candidate whose tokens have since changed is skipped when
    /// it surfaces. This pops merges in replay order because a merged token
    /// only forms pairs learned after it — of higher rank than anything
    /// queued for the current one — and overlapping occurrences (`aaa`)
    /// surface leftmost first.
    fn encode(&self, text: &str) -> Vec<TokenId> {
        const UNLINKED: u32 = u32::MAX;
        let mut tokens: Vec<u32> = text.bytes().map(u32::from).collect();
        let n = tokens.len();
        // `n` and `usize::MAX` (before position 0) both mean "no neighbour".
        let mut next: Vec<usize> = (1..=n).collect();
        let mut prev: Vec<usize> = (0..n).map(|i| i.wrapping_sub(1)).collect();
        let candidate = |tokens: &[u32], i: usize, j: usize| {
            let (left, right) = (tokens[i], tokens[j]);
            self.merges
                .get(&(left, right))
                .map(|&(rank, merged)| Reverse((rank, i, left, right, merged)))
        };
        let mut heap: BinaryHeap<_> = (1..n).filter_map(|j| candidate(&tokens, j - 1, j)).collect();
        while let Some(Reverse((_, i, left, right, merged))) = heap.pop() {
            let j = next[i];
            if tokens[i] != left || j == n || tokens[j] != right {
                continue;
            }
            tokens[i] = merged;
            tokens[j] = UNLINKED;
            next[i] = next[j];
            if next[i] < n {
                prev[next[i]] = i;
                heap.extend(candidate(&tokens, i, next[i]));
            }
            if prev[i] < n {
                heap.extend(candidate(&tokens, prev[i], i));
            }
        }
        tokens
            .into_iter()
            .filter(|&t| t != UNLINKED)
            .map(|t| self.internal_to_public(t))
            .collect()
    }

    fn decode(&self, ids: &[TokenId]) -> String {
        let mut bytes = Vec::new();
        for &id in ids {
            match self.public_to_internal(id) {
                Some(internal) if (internal as usize) < self.token_bytes.len() => {
                    bytes.extend_from_slice(&self.token_bytes[internal as usize]);
                }
                _ => {
                    // Special or out-of-range id: emit its surface form.
                    let s = SpecialToken::ALL
                        .get(id as usize)
                        .map(|t| t.as_str())
                        .unwrap_or("<unk>");
                    bytes.extend_from_slice(s.as_bytes());
                }
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    fn vocab_size(&self) -> usize {
        self.specials + self.token_bytes.len()
    }

    fn special(&self, token: SpecialToken) -> TokenId {
        token.id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition `encode` is held to: rescan the whole text for the
    /// lowest-rank applicable merge, apply it everywhere left to right,
    /// repeat. Quadratic — this was the encoder until the heap replaced it.
    fn encode_by_rank_replay(tok: &BpeTokenizer, text: &str) -> Vec<TokenId> {
        let mut seq: Vec<u32> = text.bytes().map(u32::from).collect();
        loop {
            let mut best: Option<((u32, u32), (u32, u32))> = None;
            for w in seq.windows(2) {
                if let Some(&(rank, merged)) = tok.merges.get(&(w[0], w[1])) {
                    if best.is_none_or(|(_, (r, _))| rank < r) {
                        best = Some(((w[0], w[1]), (rank, merged)));
                    }
                }
            }
            match best {
                Some((pair, (_, merged))) => apply_merge(&mut seq, pair, merged),
                None => break,
            }
        }
        seq.into_iter().map(|t| tok.internal_to_public(t)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

        /// A random corpus over a merge-dense alphabet, trained to a random
        /// size, then random texts — empty, one byte, runs of one byte,
        /// non-ASCII — encode exactly as the rank-replay definition says.
        #[test]
        fn heap_encode_equals_rank_replay(
            corpus in proptest::collection::vec("[abcé ]{0,40}", 1..6),
            merges in 0usize..60,
            texts in proptest::collection::vec("[abcd é猫]{0,48}", 1..8),
            (run_of, run_len) in (0usize..4, 0usize..40),
        ) {
            let corpus: Vec<&str> = corpus.iter().map(String::as_str).collect();
            let tok = BpeTokenizer::train(&corpus, SpecialToken::ALL.len() + 256 + merges);
            let run = ["a", "b", " ", "é"][run_of].repeat(run_len);
            let fixed = ["", "a", "aaa", "abcabcabc", run.as_str()];
            for text in texts.iter().map(String::as_str).chain(fixed) {
                prop_assert_eq!(tok.encode(text), encode_by_rank_replay(&tok, text), "{:?}", text);
                prop_assert_eq!(tok.decode(&tok.encode(text)), text);
            }
        }
    }

    #[test]
    fn byte_level_round_trip() {
        let tok = BpeTokenizer::byte_level();
        let s = "hello, world! ünïcödé 猫";
        assert_eq!(tok.decode(&tok.encode(s)), s);
    }

    #[test]
    fn training_learns_merges() {
        let tok = BpeTokenizer::train(&["aaaa aaaa aaaa"], 300);
        assert!(tok.num_merges() > 0);
        // "aaaa" should compress below its byte length.
        assert!(tok.encode("aaaa").len() < 4);
    }

    #[test]
    fn trained_round_trip() {
        let corpus = ["the quick brown fox", "the lazy dog", "the the the"];
        let tok = BpeTokenizer::train(&corpus, 300);
        for s in corpus {
            assert_eq!(tok.decode(&tok.encode(s)), s);
        }
        // Unseen text still round-trips (byte fallback).
        assert_eq!(tok.decode(&tok.encode("zebra!")), "zebra!");
    }

    #[test]
    fn training_is_deterministic() {
        let corpus = ["abc abc abd abd xyz xyz"];
        let a = BpeTokenizer::train(&corpus, 280);
        let b = BpeTokenizer::train(&corpus, 280);
        assert_eq!(a.encode("abc abd xyz"), b.encode("abc abd xyz"));
    }

    #[test]
    fn vocab_size_is_respected() {
        let tok = BpeTokenizer::train(&["repeat repeat repeat repeat"], 270);
        assert!(tok.vocab_size() <= 270);
        // And never below base: specials + 256 bytes.
        let tiny = BpeTokenizer::train(&["x"], 1);
        assert_eq!(tiny.vocab_size(), SpecialToken::ALL.len() + 256);
    }

    #[test]
    fn empty_input_encodes_empty() {
        let tok = BpeTokenizer::byte_level();
        assert!(tok.encode("").is_empty());
        assert_eq!(tok.decode(&[]), "");
    }

    #[test]
    fn special_ids_decode_to_surface_form() {
        let tok = BpeTokenizer::byte_level();
        let unk = tok.special(SpecialToken::Unk);
        assert_eq!(tok.decode(&[unk]), "<unk>");
        let bos = tok.special(SpecialToken::Bos);
        assert_eq!(tok.decode(&[bos]), "<s>");
    }

    #[test]
    fn specials_do_not_collide_with_bytes() {
        let tok = BpeTokenizer::byte_level();
        // Byte 0 should encode to a token distinct from every special id.
        let ids = tok.encode("\0");
        assert_eq!(ids.len(), 1);
        assert!(ids[0] as usize >= SpecialToken::ALL.len());
    }

    #[test]
    fn merge_application_is_left_greedy() {
        let mut seq = vec![1, 1, 1];
        apply_merge(&mut seq, (1, 1), 9);
        assert_eq!(seq, vec![9, 1]);
    }
}
