//! Multi-head attention over a KV cache with explicit position IDs.
//!
//! The kernel below is what both code paths in the paper share: baseline
//! prefill, cached inference, and decoding all funnel through
//! [`attention_chunk`]. Causality is defined by **cache order** (a query may
//! attend to every token cached before it plus the chunk prefix up to
//! itself), while positional information comes exclusively from the
//! **position IDs** riding on the cache — exactly the separation that lets
//! Prompt Cache serve discontinuous, out-of-order position layouts.

use crate::pos::{AlibiTable, RopeTable};
use crate::view::PrefixGroup;
use crate::ModelConfig;
use pc_tensor::ops::{axpy_seq, dot_rotated, dot_seq};
use pc_tensor::par::{parallel_output_chunks, run_tasks};

/// A physical KV segment as seen by the kernels: `(keys, values, shift)`.
/// `shift` is the deferred-RoPE placement shift for the segment's key rows
/// — `0` means the keys are already rotated for their placed positions
/// (the legacy path), non-zero means every key row must be rotated by
/// `R(shift)` on the fly during the score pass. Value rows are
/// position-free and are never touched by the shift.
pub type KvSegmentSlices<'a> = (&'a [f32], &'a [f32], isize);

/// Resolves a segment's rotation row once: `None` for shift 0 (use the
/// plain [`dot_seq`] path — bit-identical to the legacy kernel), else the
/// `(cos, sin, sign)` row feeding [`dot_rotated`]. With no RoPE table
/// (ALiBi / learned families) the key rows are position-free, so a shifted
/// placement needs no rotation — the position remap carried by the view's
/// flat position list is the whole relocation.
#[inline]
fn segment_rotation(rope: Option<&RopeTable>, shift: isize) -> Option<(&[f32], &[f32], f32)> {
    match (rope, shift) {
        (_, 0) | (None, _) => None,
        (Some(rope), shift) => Some(rope.shift_row(shift)),
    }
}

/// One score: `q · R(shift)k`, dispatching between the legacy sequential
/// dot and the fused rotate-on-read dot.
#[inline]
fn score_dot(q_head: &[f32], k_head: &[f32], rot: Option<(&[f32], &[f32], f32)>) -> f32 {
    match rot {
        None => dot_seq(q_head, k_head),
        Some((cos, sin, sign)) => dot_rotated(q_head, k_head, cos, sin, sign),
    }
}

/// Computes attention outputs for a chunk of `n` new tokens over a
/// contiguous KV cache.
///
/// * `q` — rotated/raw query rows, `[n × hidden]`.
/// * `q_positions` — position id of each chunk token (ALiBi bias lookup).
/// * `keys`/`values` — the layer's full cache including the chunk's own
///   rows, `[total × kv_dim]`.
/// * `key_positions` — position id of every cached token, length `total`.
/// * `base` — number of tokens that were already cached before this chunk;
///   chunk token `i` attends to cache rows `0..base + i + 1`.
/// * `out` — output rows, `[n × hidden]`, overwritten.
///
/// Grouped-query attention falls out of `cfg.kv_group_size()`: query head
/// `h` reads kv head `h / group_size`.
///
/// This is the single-segment special case of
/// [`attention_chunk_segments`]; both entry points execute the exact same
/// per-element float operations in the exact same order, so the results
/// are bit-identical regardless of how the cache is physically split.
#[allow(clippy::too_many_arguments)]
pub fn attention_chunk(
    cfg: &ModelConfig,
    q: &[f32],
    q_positions: &[usize],
    keys: &[f32],
    values: &[f32],
    key_positions: &[usize],
    base: usize,
    alibi: Option<&AlibiTable>,
    out: &mut [f32],
) {
    attention_chunk_segments(
        cfg,
        q,
        q_positions,
        &[(keys, values, 0)],
        key_positions,
        base,
        None,
        alibi,
        out,
    );
}

/// Computes attention outputs for a chunk of `n` new tokens over a KV
/// cache stored as an ordered list of physical segments.
///
/// Each `(keys, values)` segment holds a contiguous run of token rows,
/// `[rows × kv_dim]`; logically the cache is their concatenation, and
/// `key_positions` spans the full logical length. This is the kernel that
/// lets the serve path consume `Arc`-shared module blocks in place: no
/// materialisation into a flat buffer is ever needed (paper §3.4 —
/// attention states are reused by pointer, not by copy).
///
/// The per-row math walks segments with a single global key index `j`, so
/// the float operation sequence is identical to the contiguous kernel's —
/// segmentation is invisible in the output bits, which the equality tests
/// assert exactly.
#[allow(clippy::too_many_arguments)]
pub fn attention_chunk_segments(
    cfg: &ModelConfig,
    q: &[f32],
    q_positions: &[usize],
    segments: &[KvSegmentSlices<'_>],
    key_positions: &[usize],
    base: usize,
    rope: Option<&RopeTable>,
    alibi: Option<&AlibiTable>,
    out: &mut [f32],
) {
    let n = q_positions.len();
    let d = cfg.hidden_size;
    let kv_dim = cfg.kv_dim();
    let scale = 1.0 / (cfg.head_dim() as f32).sqrt();
    let total = key_positions.len();
    debug_assert_eq!(q.len(), n * d);
    debug_assert_eq!(out.len(), n * d);
    debug_assert_eq!(
        segments.iter().map(|(k, _, _)| k.len()).sum::<usize>(),
        total * kv_dim
    );
    debug_assert!(segments
        .iter()
        .all(|(k, v, _)| k.len() == v.len() && k.len() % kv_dim.max(1) == 0));
    debug_assert!(base + n <= total);
    if n == 0 {
        return;
    }

    // One query row is independent of every other, so rows parallelise
    // with bit-identical results (no cross-row reductions): serial and
    // parallel paths run the same `attention_rows` over disjoint output
    // chunks. Decode (n = 1) and tiny chunks stay on the calling thread
    // via the `min_work` threshold.
    let work = n * total * d;
    let threads = cfg.parallelism.threads_for(work).min(n.max(1)).max(1);
    parallel_output_chunks(out, d, threads, |first_row, out_chunk| {
        attention_rows(
            cfg,
            q,
            q_positions,
            segments,
            key_positions,
            base,
            rope,
            alibi,
            scale,
            first_row,
            out_chunk,
        );
    });
}

/// The per-sequence walk of [`attention_decode_batch_grouped`] for groups
/// that share nothing: sequence rows `first_seq ..` backing `out_chunk`,
/// each through the same [`attention_row`] the solo decode path uses with
/// the same `visible = cache length` horizon — which is what makes a
/// batched step bit-identical to serving each sequence alone.
#[allow(clippy::too_many_arguments)]
fn attention_seq_rows(
    cfg: &ModelConfig,
    q: &[f32],
    q_positions: &[usize],
    segs: &[KvSegmentSlices<'_>],
    seg_bounds: &[usize],
    seq_key_positions: &[&[usize]],
    rope: Option<&RopeTable>,
    alibi: Option<&AlibiTable>,
    scale: f32,
    first_seq: usize,
    out_chunk: &mut [f32],
    scores: &mut [f32],
) {
    let d = cfg.hidden_size;
    for (local, o_row) in out_chunk.chunks_exact_mut(d).enumerate() {
        let s = first_seq + local;
        let key_positions = seq_key_positions[s];
        let visible = key_positions.len();
        o_row.fill(0.0);
        attention_row(
            cfg,
            &q[s * d..(s + 1) * d],
            q_positions[s],
            &segs[seg_bounds[s]..seg_bounds[s + 1]],
            key_positions,
            visible,
            rope,
            alibi,
            scale,
            scores,
            o_row,
        );
    }
}

/// Batched decode attention — one query row **per sequence**, each over
/// its *own* segmented KV cache (which already holds the new token's
/// k/v) — as a prefix-aware two-phase kernel that streams each **shared**
/// K/V row once per group instead of once per sequence.
///
/// The per-sequence segment lists arrive in CSR form to keep the hot
/// loop allocation-free: `segs` is every sequence's segments back to
/// back, and sequence `s` owns `segs[seg_bounds[s]..seg_bounds[s + 1]]`.
///
/// * `q` — query rows, `[nseqs × hidden]` (row `s` = sequence `s`).
/// * `q_positions` — position id of each sequence's new token.
/// * `seq_key_positions` — per sequence, the position ids of every cached
///   token (length = that cache's logical length).
/// * `scores` — caller-owned score scratch, grown to fit and reused
///   across layers/ticks (contents are meaningless on entry and exit).
/// * `out` — output rows, `[nseqs × hidden]`, overwritten.
///
/// `groups` partitions the batch rows into contiguous runs (see
/// [`crate::view::group_adjacent_prefixes`]); within a run, the first
/// `prefix_rows` cached rows of every member are pointer-identical. For
/// those rows the loop nest is interchanged — key/value row outer, group
/// member inner — so the shared rows make one trip through the cache
/// hierarchy while every member's query is applied to them. Private
/// tails then run per sequence, and groups that share nothing take the
/// per-sequence walk (`attention_seq_rows`).
///
/// **Why the outputs stay byte-identical.** Per (sequence, head) the
/// kernel keeps a private score row and output accumulator, and both
/// phases advance the same global key index `j` a flat walk would:
/// phase 1 covers `j < prefix_rows` in ascending order, phase 2 continues
/// `j = prefix_rows..visible`. Every score is produced by the same
/// [`dot_seq`]`* scale (+ bias)` operations, softmax sees the same values
/// in the same slots, and every accumulation is the same [`axpy_seq`] in
/// ascending `j` — the interchange only reorders *independent* writes
/// across sequences, never the float sequence within one accumulator.
#[allow(clippy::too_many_arguments)]
pub fn attention_decode_batch_grouped(
    cfg: &ModelConfig,
    q: &[f32],
    q_positions: &[usize],
    segs: &[KvSegmentSlices<'_>],
    seg_bounds: &[usize],
    seq_key_positions: &[&[usize]],
    groups: &[PrefixGroup],
    rope: Option<&RopeTable>,
    alibi: Option<&AlibiTable>,
    scores: &mut Vec<f32>,
    out: &mut [f32],
) {
    let nseqs = q_positions.len();
    let d = cfg.hidden_size;
    debug_assert_eq!(q.len(), nseqs * d);
    debug_assert_eq!(out.len(), nseqs * d);
    debug_assert_eq!(seg_bounds.len(), nseqs + 1);
    debug_assert_eq!(seq_key_positions.len(), nseqs);
    debug_assert_eq!(groups.iter().map(|g| g.len).sum::<usize>(), nseqs);
    if nseqs == 0 {
        return;
    }
    let scale = 1.0 / (cfg.head_dim() as f32).sqrt();

    // A shared group keeps one score row per member live at once; a
    // non-shared group reuses a single row across its members.
    let need = |g: &PrefixGroup| {
        let stride = group_stride(seq_key_positions, g).max(1);
        if g.is_shared() {
            g.len * stride
        } else {
            stride
        }
    };
    let total: usize = groups.iter().map(need).sum();
    if scores.len() < total {
        scores.resize(total, 0.0);
    }

    // Groups touch disjoint output/score ranges (runs are contiguous), so
    // they parallelise by plain slice splitting — same bit-identity
    // argument as per-sequence parallelism.
    let work: usize = seq_key_positions.iter().map(|kp| kp.len() * d).sum();
    let threads = cfg.parallelism.threads_for(work).min(groups.len()).max(1);
    if threads <= 1 {
        let mut out_rest: &mut [f32] = out;
        let mut off = 0usize;
        for g in groups {
            let (out_chunk, rest) = out_rest.split_at_mut(g.len * d);
            out_rest = rest;
            let len = need(g);
            attention_group(
                cfg, q, q_positions, segs, seg_bounds, seq_key_positions, g, rope, alibi,
                scale, &mut scores[off..off + len], out_chunk,
            );
            off += len;
        }
        return;
    }
    let mut out_rest: &mut [f32] = out;
    let mut scores_rest: &mut [f32] = scores;
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(groups.len());
    for g in groups {
        let (out_chunk, rest) = out_rest.split_at_mut(g.len * d);
        out_rest = rest;
        let (score_chunk, rest) = scores_rest.split_at_mut(need(g));
        scores_rest = rest;
        tasks.push(Box::new(move || {
            attention_group(
                cfg, q, q_positions, segs, seg_bounds, seq_key_positions, g, rope, alibi,
                scale, score_chunk, out_chunk,
            );
        }) as Box<dyn FnOnce() + Send + '_>);
    }
    run_tasks(tasks, threads);
}

/// Longest cache (visible rows) among a group's members — the score-row
/// stride of the grouped kernel.
fn group_stride(seq_key_positions: &[&[usize]], g: &PrefixGroup) -> usize {
    seq_key_positions[g.start..g.start + g.len]
        .iter()
        .map(|kp| kp.len())
        .max()
        .unwrap_or(0)
}

/// The two-phase kernel body for one prefix group. `out_chunk` holds the
/// group's output rows (member `mi` = batch row `g.start + mi`);
/// `scores` holds `len × stride` score rows for a shared group.
#[allow(clippy::too_many_arguments)]
fn attention_group(
    cfg: &ModelConfig,
    q: &[f32],
    q_positions: &[usize],
    segs: &[KvSegmentSlices<'_>],
    seg_bounds: &[usize],
    seq_key_positions: &[&[usize]],
    g: &PrefixGroup,
    rope: Option<&RopeTable>,
    alibi: Option<&AlibiTable>,
    scale: f32,
    scores: &mut [f32],
    out_chunk: &mut [f32],
) {
    let d = cfg.hidden_size;
    if !g.is_shared() {
        // Nothing to hoist: run the members through the per-sequence walk
        // (a batch of singletons, batch size 1 included, runs only this).
        attention_seq_rows(
            cfg, q, q_positions, segs, seg_bounds, seq_key_positions, rope, alibi, scale,
            g.start, out_chunk, scores,
        );
        return;
    }

    let hd = cfg.head_dim();
    let kv_dim = cfg.kv_dim();
    let kv_group = cfg.kv_group_size();
    let stride = group_stride(seq_key_positions, g);
    let m0 = g.start;
    let shared = &segs[seg_bounds[m0]..seg_bounds[m0] + g.prefix_segments];
    for o_row in out_chunk.chunks_exact_mut(d) {
        o_row.fill(0.0);
    }
    for h in 0..cfg.num_heads {
        let kv_h = h / kv_group;

        // Score phase 1 — shared prefix, loop-interchanged: each key row
        // is read once and dotted against every member's query. A shifted
        // segment's rotation row is resolved once and applied inside the
        // fused dot, so the interchange still reads each key row once.
        let mut j = 0usize;
        for &(keys, _, shift) in shared {
            let rot = segment_rotation(rope, shift);
            for k_row in keys.chunks_exact(kv_dim) {
                let k_head = &k_row[kv_h * hd..(kv_h + 1) * hd];
                for mi in 0..g.len {
                    let s = m0 + mi;
                    let q_head = &q[s * d + h * hd..s * d + (h + 1) * hd];
                    let score = &mut scores[mi * stride + j];
                    *score = score_dot(q_head, k_head, rot) * scale;
                    if let Some(alibi) = alibi {
                        *score += alibi.bias(h, q_positions[s], seq_key_positions[s][j]);
                    }
                }
                j += 1;
            }
        }
        debug_assert_eq!(j, g.prefix_rows);

        // Score phase 2 — private remainder per member, then softmax over
        // the member's full score row (identical values in identical slots
        // to the per-sequence walk).
        for mi in 0..g.len {
            let s = m0 + mi;
            let key_positions = seq_key_positions[s];
            let visible = key_positions.len();
            let q_head = &q[s * d + h * hd..s * d + (h + 1) * hd];
            let row_scores = &mut scores[mi * stride..mi * stride + visible];
            let mut j = g.prefix_rows;
            for &(keys, _, shift) in &segs[seg_bounds[s] + g.prefix_segments..seg_bounds[s + 1]] {
                if j >= visible {
                    break;
                }
                let rot = segment_rotation(rope, shift);
                let rows = (keys.len() / kv_dim).min(visible - j);
                for r in 0..rows {
                    let k_head = &keys[r * kv_dim + kv_h * hd..r * kv_dim + (kv_h + 1) * hd];
                    let score = &mut row_scores[j];
                    *score = score_dot(q_head, k_head, rot) * scale;
                    if let Some(alibi) = alibi {
                        *score += alibi.bias(h, q_positions[s], key_positions[j]);
                    }
                    j += 1;
                }
            }
            debug_assert_eq!(j, visible);
            pc_tensor::ops::softmax_slice(row_scores);
        }

        // Value phase 1 — shared prefix, loop-interchanged: each value row
        // is read once and accumulated into every member's output. Value
        // rows are position-free, so the shift never enters this phase.
        let mut j = 0usize;
        for &(_, values, _) in shared {
            for v_row in values.chunks_exact(kv_dim) {
                let v_head = &v_row[kv_h * hd..(kv_h + 1) * hd];
                for (mi, o_row) in out_chunk.chunks_exact_mut(d).enumerate() {
                    axpy_seq(&mut o_row[h * hd..(h + 1) * hd], scores[mi * stride + j], v_head);
                }
                j += 1;
            }
        }

        // Value phase 2 — private remainder per member.
        for (mi, o_row) in out_chunk.chunks_exact_mut(d).enumerate() {
            let s = m0 + mi;
            let visible = seq_key_positions[s].len();
            let o_head = &mut o_row[h * hd..(h + 1) * hd];
            let mut j = g.prefix_rows;
            for &(_, values, _) in &segs[seg_bounds[s] + g.prefix_segments..seg_bounds[s + 1]] {
                if j >= visible {
                    break;
                }
                let rows = (values.len() / kv_dim).min(visible - j);
                for r in 0..rows {
                    let v_head = &values[r * kv_dim + kv_h * hd..r * kv_dim + (kv_h + 1) * hd];
                    axpy_seq(o_head, scores[mi * stride + j], v_head);
                    j += 1;
                }
            }
        }
    }
}

/// Attention for the contiguous query rows `first_row ..` backing
/// `out_chunk`. Both the serial and the parallel entry points run exactly
/// this code, which is what makes thread count invisible in the output
/// bits.
#[allow(clippy::too_many_arguments)]
fn attention_rows(
    cfg: &ModelConfig,
    q: &[f32],
    q_positions: &[usize],
    segments: &[KvSegmentSlices<'_>],
    key_positions: &[usize],
    base: usize,
    rope: Option<&RopeTable>,
    alibi: Option<&AlibiTable>,
    scale: f32,
    first_row: usize,
    out_chunk: &mut [f32],
) {
    let d = cfg.hidden_size;
    let total = key_positions.len();
    let mut scores = vec![0.0f32; total];
    for (local, o_row) in out_chunk.chunks_exact_mut(d).enumerate() {
        let i = first_row + local;
        o_row.fill(0.0);
        attention_row(
            cfg,
            &q[i * d..(i + 1) * d],
            q_positions[i],
            segments,
            key_positions,
            base + i + 1,
            rope,
            alibi,
            scale,
            &mut scores,
            o_row,
        );
    }
}

/// Attention for one query row over the first `visible` cached tokens.
///
/// The score and value passes both advance one global key index `j`
/// across the segment list, touching exactly the rows a flat cache would
/// in exactly the same order — segment boundaries only change which slice
/// a row is read from, never the arithmetic.
#[allow(clippy::too_many_arguments)]
fn attention_row(
    cfg: &ModelConfig,
    q_row: &[f32],
    q_pos: usize,
    segments: &[KvSegmentSlices<'_>],
    key_positions: &[usize],
    visible: usize,
    rope: Option<&RopeTable>,
    alibi: Option<&AlibiTable>,
    scale: f32,
    scores: &mut [f32],
    o_row: &mut [f32],
) {
    let hd = cfg.head_dim();
    let kv_dim = cfg.kv_dim();
    let group = cfg.kv_group_size();
    for h in 0..cfg.num_heads {
        let q_head = &q_row[h * hd..(h + 1) * hd];
        let kv_h = h / group;
        let scores = &mut scores[..visible];
        let mut j = 0usize;
        for &(keys, _, shift) in segments {
            if j >= visible {
                break;
            }
            let rot = segment_rotation(rope, shift);
            let rows = (keys.len() / kv_dim).min(visible - j);
            for r in 0..rows {
                let k_head = &keys[r * kv_dim + kv_h * hd..r * kv_dim + (kv_h + 1) * hd];
                let s = &mut scores[j];
                *s = score_dot(q_head, k_head, rot) * scale;
                if let Some(alibi) = alibi {
                    *s += alibi.bias(h, q_pos, key_positions[j]);
                }
                j += 1;
            }
        }
        pc_tensor::ops::softmax_slice(scores);
        let o_head = &mut o_row[h * hd..(h + 1) * hd];
        let mut j = 0usize;
        for &(_, values, _) in segments {
            if j >= visible {
                break;
            }
            let rows = (values.len() / kv_dim).min(visible - j);
            for r in 0..rows {
                let v_head = &values[r * kv_dim + kv_h * hd..r * kv_dim + (kv_h + 1) * hd];
                axpy_seq(o_head, scores[j], v_head);
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelConfig;

    /// 1 head, head_dim 2, so hand-computable.
    fn tiny_cfg() -> ModelConfig {
        ModelConfig {
            hidden_size: 2,
            num_heads: 1,
            num_kv_heads: 1,
            ..ModelConfig::llama_tiny(8)
        }
    }

    #[test]
    fn single_key_copies_value() {
        let cfg = tiny_cfg();
        // One query, one cached key: softmax over one score = 1 → out = v.
        let q = [1.0, 0.0];
        let keys = [0.3, 0.7];
        let values = [5.0, -2.0];
        let mut out = [0.0; 2];
        attention_chunk(&cfg, &q, &[0], &keys, &values, &[0], 0, None, &mut out);
        assert_eq!(out, [5.0, -2.0]);
    }

    #[test]
    fn causality_hides_future_chunk_tokens() {
        let cfg = tiny_cfg();
        // Two chunk tokens. Token 0 must ignore token 1's value.
        let q = [1.0, 0.0, 1.0, 0.0];
        let keys = [1.0, 0.0, 1.0, 0.0];
        let values = [1.0, 0.0, 100.0, 0.0];
        let mut out = [0.0; 4];
        attention_chunk(&cfg, &q, &[0, 1], &keys, &values, &[0, 1], 0, None, &mut out);
        // Token 0 sees only value 1.0.
        assert_eq!(out[0], 1.0);
        // Token 1 mixes both (equal scores → mean).
        assert!((out[2] - 50.5).abs() < 1e-3);
    }

    #[test]
    fn base_tokens_are_visible_to_all_chunk_tokens() {
        let cfg = tiny_cfg();
        // One pre-cached token (base=1) + one chunk token.
        let q = [1.0, 0.0];
        let keys = [1.0, 0.0, 1.0, 0.0]; // cached + chunk's own
        let values = [10.0, 0.0, 20.0, 0.0];
        let mut out = [0.0; 2];
        attention_chunk(&cfg, &q, &[1], &keys, &values, &[0, 1], 1, None, &mut out);
        assert!((out[0] - 15.0).abs() < 1e-3); // attends to both equally
    }

    #[test]
    fn sharper_key_match_dominates() {
        let cfg = tiny_cfg();
        let q = [4.0, 0.0];
        let keys = [4.0, 0.0, -4.0, 0.0, 4.0, 0.0];
        let values = [1.0, 0.0, -1.0, 0.0, 1.0, 0.0];
        let mut out = [0.0; 2];
        attention_chunk(&cfg, &q, &[2], &keys, &values, &[0, 1, 2], 2, None, &mut out);
        // Matching keys get nearly all mass → out ≈ 1.
        assert!(out[0] > 0.99, "{out:?}");
    }

    #[test]
    fn alibi_bias_prefers_near_keys() {
        let cfg = ModelConfig {
            hidden_size: 2,
            num_heads: 1,
            num_kv_heads: 1,
            ..ModelConfig::mpt_tiny(8)
        };
        let alibi = AlibiTable::new(1);
        // Query matches both keys equally; ALiBi should favour the nearer.
        let q = [1.0, 0.0];
        let keys = [1.0, 0.0, 1.0, 0.0, 0.0, 0.0];
        let values = [1.0, 0.0, 2.0, 0.0, 0.0, 0.0];
        let mut with_alibi = [0.0; 2];
        attention_chunk(
            &cfg,
            &q,
            &[50],
            &keys,
            &values,
            &[0, 49, 50],
            2,
            Some(&alibi),
            &mut with_alibi,
        );
        let mut without = [0.0; 2];
        attention_chunk(&cfg, &q, &[50], &keys, &values, &[0, 49, 50], 2, None, &mut without);
        // The nearer key (value 2.0, distance 1) gains mass relative to the
        // far key (value 1.0, distance 50), pulling the output upward.
        assert!(with_alibi[0] > without[0], "{with_alibi:?} vs {without:?}");
    }

    #[test]
    fn gqa_heads_share_kv() {
        // 2 query heads, 1 kv head: both heads must read the same kv rows.
        let cfg = ModelConfig {
            hidden_size: 4,
            num_heads: 2,
            num_kv_heads: 1,
            ..ModelConfig::falcon_tiny(8)
        };
        assert_eq!(cfg.kv_dim(), 2);
        let q = [1.0, 0.0, 1.0, 0.0]; // identical per-head queries
        let keys = [0.5, 0.5];
        let values = [3.0, 7.0];
        let mut out = [0.0; 4];
        attention_chunk(&cfg, &q, &[0], &keys, &values, &[0], 0, None, &mut out);
        assert_eq!(&out[0..2], &out[2..4]);
        assert_eq!(&out[0..2], &[3.0, 7.0]);
    }

    #[test]
    fn empty_chunk_is_noop() {
        let cfg = tiny_cfg();
        let mut out: [f32; 0] = [];
        attention_chunk(&cfg, &[], &[], &[], &[], &[], 0, None, &mut out);
    }

    #[test]
    fn segmented_kernel_matches_contiguous_exactly() {
        // Any segmentation of the KV rows — including degenerate 1-row and
        // empty segments — must reproduce the contiguous kernel bit for bit.
        let cfg = ModelConfig {
            hidden_size: 8,
            num_heads: 2,
            num_kv_heads: 1,
            ..ModelConfig::llama_tiny(8)
        };
        let kv_dim = cfg.kv_dim();
        let total = 7usize;
        let n = 3usize;
        let base = total - n;
        let keys: Vec<f32> = (0..total * kv_dim).map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.13).collect();
        let values: Vec<f32> = (0..total * kv_dim).map(|i| ((i * 53 % 23) as f32 - 11.0) * 0.07).collect();
        let q: Vec<f32> = (0..n * cfg.hidden_size).map(|i| ((i * 41 % 17) as f32 - 8.0) * 0.11).collect();
        let q_positions: Vec<usize> = (base..total).collect();
        let key_positions: Vec<usize> = (0..total).collect();

        let mut expect = vec![0.0f32; n * cfg.hidden_size];
        attention_chunk(&cfg, &q, &q_positions, &keys, &values, &key_positions, base, None, &mut expect);

        for splits in [vec![1, 3, 3], vec![2, 0, 5], vec![7], vec![1; 7], vec![4, 3]] {
            assert_eq!(splits.iter().sum::<usize>(), total);
            let mut segs: Vec<KvSegmentSlices<'_>> = Vec::new();
            let mut row = 0;
            for len in splits {
                segs.push((
                    &keys[row * kv_dim..(row + len) * kv_dim],
                    &values[row * kv_dim..(row + len) * kv_dim],
                    0,
                ));
                row += len;
            }
            let mut got = vec![0.0f32; n * cfg.hidden_size];
            attention_chunk_segments(
                &cfg, &q, &q_positions, &segs, &key_positions, base, None, None, &mut got,
            );
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn shifted_segment_matches_materialised_rotation_bitwise() {
        // A segment carrying shift Δ must produce the same bits as first
        // rotating every key head by R(Δ) into a flat buffer and running
        // the legacy shift-0 kernel over it.
        let cfg = ModelConfig {
            hidden_size: 8,
            num_heads: 2,
            num_kv_heads: 1,
            ..ModelConfig::llama_tiny(8)
        };
        let rope = crate::pos::RopeTable::new(cfg.head_dim(), 512, 10_000.0);
        let kv_dim = cfg.kv_dim();
        let total = 6usize;
        let n = 2usize;
        let base = total - n;
        let keys: Vec<f32> =
            (0..total * kv_dim).map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.13).collect();
        let values: Vec<f32> =
            (0..total * kv_dim).map(|i| ((i * 53 % 23) as f32 - 11.0) * 0.07).collect();
        let q: Vec<f32> =
            (0..n * cfg.hidden_size).map(|i| ((i * 41 % 17) as f32 - 8.0) * 0.11).collect();
        let q_positions: Vec<usize> = (base..total).collect();
        let key_positions: Vec<usize> = (0..total).collect();
        // First 4 rows are a "module" whose keys are canonical (shift Δ
        // pending); last 2 rows are the fresh tail at shift 0.
        let split = 4 * kv_dim;
        for shift in [5isize, 120, -3] {
            let mut rotated = keys.clone();
            for row in rotated[..split].chunks_exact_mut(kv_dim) {
                for head in row.chunks_exact_mut(cfg.head_dim()) {
                    rope.apply_shift(head, shift);
                }
            }
            let mut expect = vec![0.0f32; n * cfg.hidden_size];
            attention_chunk_segments(
                &cfg,
                &q,
                &q_positions,
                &[(&rotated, &values, 0)],
                &key_positions,
                base,
                None,
                None,
                &mut expect,
            );
            let segs: Vec<KvSegmentSlices<'_>> = vec![
                (&keys[..split], &values[..split], shift),
                (&keys[split..], &values[split..], 0),
            ];
            let mut got = vec![0.0f32; n * cfg.hidden_size];
            attention_chunk_segments(
                &cfg,
                &q,
                &q_positions,
                &segs,
                &key_positions,
                base,
                Some(&rope),
                None,
                &mut got,
            );
            let expect_bits: Vec<u32> = expect.iter().map(|f| f.to_bits()).collect();
            let got_bits: Vec<u32> = got.iter().map(|f| f.to_bits()).collect();
            assert_eq!(got_bits, expect_bits, "shift {shift}");
        }
    }

    #[test]
    fn parallel_attention_is_bit_identical() {
        // Same weights, same inputs: 1 thread vs 4 threads must agree on
        // every bit (rows are independent; no cross-thread reductions).
        let serial_cfg = ModelConfig::llama_tiny(64);
        let parallel_cfg = ModelConfig {
            // min_work: 0 forces the fan-out even at toy sizes.
            parallelism: pc_tensor::Parallelism {
                num_threads: 4,
                min_work: 0,
            },
            ..serial_cfg.clone()
        };
        let tokens: Vec<u32> = (0..48).map(|t| t % 64).collect();
        let positions: Vec<usize> = (0..48).collect();
        let serial = crate::Model::new(serial_cfg, 7);
        let parallel = crate::Model::new(parallel_cfg, 7);
        let mut a = crate::KvCache::new(serial.config());
        let mut b = crate::KvCache::new(parallel.config());
        let la = serial.forward(&tokens, &positions, &mut a).unwrap();
        let lb = parallel.forward(&tokens, &positions, &mut b).unwrap();
        assert_eq!(la.data(), lb.data());
        assert_eq!(a, b);
    }
}
