//! Prefix-aware batched attention identity guarantees: the two-phase
//! grouped kernel (shared K/V rows streamed once per group) must produce
//! **byte-identical** logits and cache states to solo decoding (the
//! reference), for every group shape — all-shared, disjoint,
//! staggered tails, deep multi-segment prefixes, singletons — across the
//! RoPE / GQA / ALiBi / learned-position families.

use pc_model::{
    BatchScratch, GreedySampler, KvCache, KvSeq, KvView, Model, ModelConfig, Sampler, TokenId,
};
use std::sync::Arc;

fn families() -> Vec<ModelConfig> {
    vec![
        ModelConfig::llama_tiny(64),
        // Multi-query attention (4 query heads, 1 kv head).
        ModelConfig::falcon_tiny(64),
        // Grouped-query attention (4 query heads, 2 kv heads).
        ModelConfig {
            num_kv_heads: 2,
            ..ModelConfig::llama_tiny(64)
        },
        // ALiBi position biases read per-key positions in the kernel.
        ModelConfig::mpt_tiny(64),
        ModelConfig::gpt2_tiny(64),
    ]
}

/// Encodes `tokens` at positions `start..start + len` into a fresh cache
/// and freezes it as a shareable block.
fn encode_block(model: &Model, tokens: &[TokenId], start: usize) -> Arc<KvCache> {
    let mut cache = KvCache::new(model.config());
    let positions: Vec<usize> = (start..start + tokens.len()).collect();
    model.prefill(tokens, &positions, &mut cache).unwrap();
    Arc::new(cache)
}

/// A view over `blocks` (pointer-shared) plus `private` tokens prefilled
/// into its tail at the positions following the blocks.
fn view_with(model: &Model, blocks: &[&Arc<KvCache>], private: &[TokenId]) -> KvView {
    let mut view = KvView::with_shape(model.config().num_layers, model.config().kv_dim());
    for block in blocks {
        view.push_cache(Arc::clone(block)).unwrap();
    }
    if !private.is_empty() {
        let start = view.positions().iter().max().map_or(0, |p| p + 1);
        let positions: Vec<usize> = (start..start + private.len()).collect();
        model.prefill(private, &positions, &mut view).unwrap();
    }
    view
}

fn next_pos(view: &KvView) -> usize {
    view.positions().iter().max().map_or(0, |p| p + 1)
}

/// Drives `ticks` consecutive decode steps over `views` two ways — solo
/// prefill per sequence (the reference) and the grouped batched step —
/// and asserts logits and cache bytes agree exactly at every tick.
/// Membership shrinks by one sequence per tick to exercise scratch reuse
/// across changing batch compositions.
fn assert_grouped_matches_solo(model: &Model, views: Vec<KvView>, ticks: usize) {
    let mut solo = views.clone();
    let mut grouped = views;
    let mut scratch = BatchScratch::new();
    for tick in 0..ticks {
        // Shrink membership from the tail so later ticks run a smaller,
        // differently-shaped batch through the same scratch.
        let n = solo.len() - (tick.min(solo.len() - 1));
        let tokens: Vec<TokenId> = (0..n).map(|i| ((tick * 7 + i * 3) % 64) as TokenId).collect();
        let positions: Vec<usize> = solo[..n].iter().map(next_pos).collect();

        let mut solo_logits = Vec::new();
        for (i, view) in solo[..n].iter_mut().enumerate() {
            solo_logits
                .push(model.prefill(&tokens[i..=i], &positions[i..=i], view).unwrap());
        }

        let mut refs: Vec<&mut KvView> = grouped[..n].iter_mut().collect();
        let grouped_logits = model
            .decode_step_batch_with(&tokens, &positions, &mut refs, &mut scratch)
            .unwrap();

        assert_eq!(grouped_logits, solo_logits, "tick {tick} grouped vs solo");
        for i in 0..n {
            assert_eq!(grouped[i].materialize(), solo[i].materialize(), "tick {tick} seq {i}");
            assert_eq!(grouped[i].positions(), solo[i].positions());
        }
    }
}

#[test]
fn all_shared_groups_match_solo_bitwise() {
    for cfg in families() {
        let model = Model::new(cfg, 17);
        let module = encode_block(&model, &[5, 9, 13, 2, 7, 21, 3], 0);
        // Group sizes 1, 2, 4, 7 over one shared module, staggered
        // private-tail lengths so members have different horizons.
        for size in [1usize, 2, 4, 7] {
            let views: Vec<KvView> = (0..size)
                .map(|i| {
                    let private: Vec<TokenId> = (0..=i).map(|j| ((3 + i + j) % 64) as u32).collect();
                    view_with(&model, &[&module], &private)
                })
                .collect();
            assert_grouped_matches_solo(&model, views, 3);
        }
    }
}

#[test]
fn disjoint_and_mixed_groups_match_solo_bitwise() {
    for cfg in families() {
        let model = Model::new(cfg, 29);
        let a = encode_block(&model, &[5, 9, 13, 2], 0);
        let b = encode_block(&model, &[3, 1, 4, 1, 5], 4);
        // Two disjoint prefix groups, a flat no-segment sequence between
        // them breaking adjacency, and one member with a deeper stack.
        let views = vec![
            view_with(&model, &[&a], &[7]),
            view_with(&model, &[&a], &[11, 2]),
            view_with(&model, &[], &[19, 23, 6]),
            view_with(&model, &[&b], &[8]),
            view_with(&model, &[&b], &[12, 31]),
            view_with(&model, &[&a, &b], &[40]),
        ];
        assert_grouped_matches_solo(&model, views, 2);
    }
}

#[test]
fn deep_multi_segment_prefixes_match_solo_bitwise() {
    for cfg in families() {
        let model = Model::new(cfg, 41);
        let a = encode_block(&model, &[5, 9], 0);
        let b = encode_block(&model, &[13, 2, 7], 2);
        // Members share [a, b]; one stops at [a], shrinking the common
        // run — the group must fall back to the one-segment prefix.
        let views = vec![
            view_with(&model, &[&a, &b], &[1]),
            view_with(&model, &[&a, &b], &[2, 3]),
            view_with(&model, &[&a], &[4]),
        ];
        assert_grouped_matches_solo(&model, views, 3);
    }
}

#[test]
fn staggered_joins_preserve_identity() {
    // A sequence joining mid-flight means later ticks run a *larger*
    // batch whose older members have longer tails — the staggered-join
    // shape the scheduler produces.
    let cfg = ModelConfig::llama_tiny(64);
    let model = Model::new(cfg, 53);
    let module = encode_block(&model, &[5, 9, 13, 2, 7], 0);
    let mut solo: Vec<KvView> = Vec::new();
    let mut batched: Vec<KvView> = Vec::new();
    let mut scratch = BatchScratch::new();
    for tick in 0..4usize {
        // One new member joins every tick.
        let joiner = view_with(&model, &[&module], &[(30 + tick) as u32]);
        solo.push(joiner.clone());
        batched.push(joiner);
        let n = solo.len();
        let tokens: Vec<TokenId> = (0..n).map(|i| ((tick * 5 + i) % 64) as u32).collect();
        let positions: Vec<usize> = solo.iter().map(next_pos).collect();
        let mut solo_logits = Vec::new();
        for (i, view) in solo.iter_mut().enumerate() {
            solo_logits
                .push(model.prefill(&tokens[i..=i], &positions[i..=i], view).unwrap());
        }
        let mut refs: Vec<&mut KvView> = batched.iter_mut().collect();
        let got = model
            .decode_step_batch_with(&tokens, &positions, &mut refs, &mut scratch)
            .unwrap();
        assert_eq!(got, solo_logits, "tick {tick}");
        // Every member of the batch shares the module: one group.
        assert_eq!(scratch.groups().len(), 1);
        assert_eq!(scratch.groups()[0].len, n);
    }
    for (s, b) in solo.iter().zip(&batched) {
        assert_eq!(s.materialize(), b.materialize());
    }
}

#[test]
fn row_traffic_stats_count_shared_rows_once_per_group() {
    let cfg = ModelConfig::llama_tiny(64);
    let layers = cfg.num_layers as u64;
    let model = Model::new(cfg, 61);
    let module = encode_block(&model, &[5, 9, 13, 2, 7, 21], 0); // 6 shared rows
    let views: Vec<KvView> = (0..4)
        .map(|i| view_with(&model, &[&module], &[(10 + i) as u32]))
        .collect();
    let mut scratch = BatchScratch::new();

    let run = |views: &mut Vec<KvView>, scratch: &mut BatchScratch| {
        let tokens: Vec<TokenId> = (1..=views.len() as TokenId).collect();
        let positions: Vec<usize> = views.iter().map(next_pos).collect();
        let mut refs: Vec<&mut KvView> = views.iter_mut().collect();
        model
            .decode_step_batch_with(&tokens, &positions, &mut refs, scratch)
            .unwrap();
        scratch.stats()
    };

    let mut group = views.clone();
    let stats = run(&mut group, &mut scratch);
    // 6 shared rows once per group; each member reads its own 2 private
    // rows (1 prefilled + the token pushed this tick); × layers.
    assert_eq!(stats.shared_rows_read, 6 * layers);
    assert_eq!(stats.private_rows_read, 4 * 2 * layers);
    assert_eq!(stats.share_percent(), (6 * 100 / 14) as i64);

    // A singleton hoists nothing: it streams all 8 of its rows privately,
    // which is what every member would read without grouping.
    let mut single = views[..1].to_vec();
    let stats = run(&mut single, &mut scratch);
    assert_eq!(stats.shared_rows_read, 0);
    assert_eq!(stats.private_rows_read, 8 * layers);
}

#[test]
fn greedy_decode_sequences_agree_over_many_ticks() {
    // End-to-end: greedy-decode 8 tokens per sequence through the shared
    // kernel and compare the *sampled token streams* against solo
    // generation — the user-visible form of byte-identity.
    let cfg = ModelConfig::mpt_tiny(64);
    let model = Model::new(cfg, 71);
    let module = encode_block(&model, &[5, 9, 13, 2], 0);
    let seeds: [&[TokenId]; 3] = [&[7], &[11, 3], &[2, 4, 8]];

    let mut solo_streams = Vec::new();
    for seed in seeds {
        let mut view = view_with(&model, &[&module], seed);
        let mut tokens_out = Vec::new();
        let mut logits = {
            let pos = next_pos(&view);
            model.prefill(&[1], &[pos], &mut view).unwrap()
        };
        for _ in 0..8 {
            let t = GreedySampler.sample(&logits);
            tokens_out.push(t);
            let pos = next_pos(&view);
            logits = model.prefill(&[t], &[pos], &mut view).unwrap();
        }
        solo_streams.push(tokens_out);
    }

    let mut views: Vec<KvView> = seeds.iter().map(|s| view_with(&model, &[&module], s)).collect();
    let mut scratch = BatchScratch::new();
    let first_positions: Vec<usize> = views.iter().map(next_pos).collect();
    let mut refs: Vec<&mut KvView> = views.iter_mut().collect();
    let mut logits = model
        .decode_step_batch_with(&[1, 1, 1], &first_positions, &mut refs, &mut scratch)
        .unwrap();
    let mut batch_streams = vec![Vec::new(); seeds.len()];
    for _ in 0..8 {
        let tokens: Vec<TokenId> = logits.iter().map(|l| GreedySampler.sample(l)).collect();
        for (stream, &t) in batch_streams.iter_mut().zip(&tokens) {
            stream.push(t);
        }
        let positions: Vec<usize> = views.iter().map(next_pos).collect();
        let mut refs: Vec<&mut KvView> = views.iter_mut().collect();
        logits = model
            .decode_step_batch_with(&tokens, &positions, &mut refs, &mut scratch)
            .unwrap();
    }
    assert_eq!(batch_streams, solo_streams);
}
