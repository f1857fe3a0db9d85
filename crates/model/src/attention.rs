//! Multi-head attention over a KV cache with explicit position IDs.
//!
//! Every attention call in the engine runs one tile body (`attend_body`):
//! baseline prefill, suffix prefill over cached modules, module encoding
//! and the solo decode loop enter through [`attention_chunk_segments`], the
//! server's batched decode ticks through
//! [`attention_decode_batch_grouped`]. Causality is defined by **cache
//! order** (a query may attend to every token cached before it plus the
//! chunk prefix up to itself), while positional information comes
//! exclusively from the **position IDs** riding on the cache — exactly the
//! separation that lets Prompt Cache serve discontinuous, out-of-order
//! position layouts.
//!
//! **Determinism contract** (DESIGN.md §5): *each output element is reduced
//! in one fixed order; kernels may reorder only independent elements.* A
//! tile is up to eight query rows of one head that read the same run of
//! segments. *The lanes of a tile of several rows are different queries;
//! in the one-row tile — a decode step, a private tail, a lone leftover
//! row — the score pass's lanes are key rows (AVX2 arm, eight per vector,
//! transposed in registers). Either way each lane is one `dot_seq` /
//! `axpy_seq`:* a score is `0 + q₀k₀ + q₁k₁ + …` with a
//! separate multiply and add, an output element accumulates `p·v` in
//! ascending cache order — the order of [`pc_tensor::ops::dot_seq`] and
//! [`pc_tensor::ops::axpy_seq`], which the tests hold the tile to. A key
//! row of a segment placed at shift `Δ` is scored against the query
//! rotated by `R(−Δ)` (`q·R(Δ)k = (R(−Δ)q)·k`): the score is
//! `dot_seq(apply_shift(q, −Δ), k)` over the stored, canonical key bytes.
//! What a tile interleaves is only the independent chains of its lanes
//! and of the key rows in flight, so tile width, segmentation, grouping,
//! thread count and instruction set never show in the output bits.

use crate::pos::{AlibiTable, RopeTable};
use crate::view::PrefixGroup;
use crate::ModelConfig;
use pc_tensor::ops::{has_avx2, softmax_slice};
use pc_tensor::par::{parallel_output_blocks, run_tasks};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
use std::array::from_fn;

/// A physical KV segment as seen by the kernels: `(keys, values, shift)`.
/// `shift` is the deferred-RoPE placement shift for the segment's key rows
/// — `0` means the keys are stored rotated for their placed positions
/// (fresh tail rows, baked-position families), non-zero means the keys
/// sit `shift` positions from their placement and the score pass rotates
/// the *query* by `R(−shift)` instead. Key and value bytes are read as
/// stored, never rotated or copied.
pub type KvSegmentSlices<'a> = (&'a [f32], &'a [f32], isize);

/// Resolves a segment's query rotation once: `None` for shift 0 (the
/// queries score the stored keys as they are), else the `(cos, sin, sign)`
/// row of `R(−shift)` — the row [`RopeTable::apply_shift`] uses for
/// `−shift`. With no RoPE table (ALiBi / learned families) the key rows
/// are position-free, so a shifted placement needs no rotation — the
/// position remap carried by the view's flat position list is the whole
/// relocation.
fn segment_rotation(rope: Option<&RopeTable>, shift: isize) -> Option<(&[f32], &[f32], f32)> {
    match (rope, shift) {
        (_, 0) | (None, _) => None,
        (Some(rope), shift) => Some(rope.shift_row(-shift)),
    }
}

/// Query rows per full tile. A solo decode step, a private tail and a
/// lone leftover row are the same body at one lane.
pub(crate) const LANES: usize = 8;

/// Key rows in flight in the score pass: with `L` lanes each, `KEYS × L`
/// independent add chains hide the latency a lone `dot_seq` waits out.
const KEYS: usize = 4;

/// Key rows per step of the one-row score pass on AVX2 ([`score_row_avx2`]):
/// two blocks of eight, each block's scores one vector, so two vector add
/// chains are in flight.
#[cfg(target_arch = "x86_64")]
const BLOCK: usize = 16;

/// Reusable buffers of the tile: one score row per lane, the raw dots of
/// a tile of several lanes (key-major), the packed query tile and its
/// rotation for the shifted segment being scored. Callers keep one across
/// layers (and ticks); contents are meaningless between calls.
#[derive(Debug, Default)]
pub struct AttnScratch {
    scores: Vec<f32>,
    dots: Vec<f32>,
    qt: Vec<f32>,
    rotated: Vec<f32>,
}

/// Grows `buf` to at least `len` and returns the `len`-prefix. Contents
/// beyond what the caller overwrites are stale by design — every user,
/// here and in the batched step, writes its window before reading it.
pub(crate) fn sized(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// What one kernel call hands every tile: the query rows (`[rows ×
/// hidden]`), shapes, scale, position tables.
#[derive(Clone, Copy)]
struct Kernel<'a> {
    q: &'a [f32],
    num_heads: usize,
    head_dim: usize,
    hidden: usize,
    kv_dim: usize,
    kv_group: usize,
    scale: f32,
    rope: Option<&'a RopeTable>,
    alibi: Option<&'a AlibiTable>,
}

impl<'a> Kernel<'a> {
    fn new(cfg: &ModelConfig, q: &'a [f32], rope: Option<&'a RopeTable>, alibi: Option<&'a AlibiTable>) -> Self {
        Kernel {
            q,
            num_heads: cfg.num_heads,
            head_dim: cfg.head_dim(),
            hidden: cfg.hidden_size,
            kv_dim: cfg.kv_dim(),
            kv_group: cfg.kv_group_size(),
            scale: 1.0 / (cfg.head_dim() as f32).sqrt(),
            rope,
            alibi,
        }
    }
}

/// One query row of a tile.
#[derive(Clone, Copy)]
struct Lane<'a> {
    /// Position id of the query token (ALiBi bias lookup).
    q_pos: usize,
    /// Position id of every row of its cache.
    key_positions: &'a [usize],
    /// It attends to cache rows `0..visible`.
    visible: usize,
    /// The segments holding its rows behind the tile's shared run.
    tail: &'a [KvSegmentSlices<'a>],
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
    let segments = [(keys, values, 0)];
    attention_chunk_segments(cfg, q, q_positions, &segments, key_positions, base, None, alibi, out);
}

/// Computes attention outputs for a chunk of `n` new tokens over a KV
/// cache stored as an ordered list of physical segments.
///
/// Each `(keys, values, shift)` segment holds a contiguous run of token
/// rows, `[rows × kv_dim]`; logically the cache is their concatenation, and
/// `key_positions` spans the full logical length. This is the kernel that
/// lets the serve path consume `Arc`-shared module blocks in place: no
/// materialisation into a flat buffer is ever needed (paper §3.4 —
/// attention states are reused by pointer, not by copy).
///
/// Both passes of a tile walk the segments with a single global key index,
/// so the float operation sequence is a contiguous cache's — segmentation
/// is invisible in the output bits, which the equality tests assert.
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
    let scratch = &mut AttnScratch::default();
    attention_chunk_segments_with(cfg, q, q_positions, segments, key_positions, base, rope, alibi, scratch, out);
}

/// [`attention_chunk_segments`] with caller-owned scratch — what the
/// forward pass calls once per layer, so a decode step allocates its score
/// row once and not per layer. Chunk rows go through the tile [`LANES`] at
/// a time: the rows of a tile read the same segments, row `i` up to its
/// causal horizon `base + i + 1`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn attention_chunk_segments_with(
    cfg: &ModelConfig,
    q: &[f32],
    q_positions: &[usize],
    segments: &[KvSegmentSlices<'_>],
    key_positions: &[usize],
    base: usize,
    rope: Option<&RopeTable>,
    alibi: Option<&AlibiTable>,
    scratch: &mut AttnScratch,
    out: &mut [f32],
) {
    let (n, d, kv_dim, total) = (q_positions.len(), cfg.hidden_size, cfg.kv_dim(), key_positions.len());
    debug_assert!(q.len() == n * d && out.len() == n * d && base + n <= total);
    debug_assert_eq!(segments.iter().map(|(k, _, _)| k.len()).sum::<usize>(), total * kv_dim);
    debug_assert!(segments.iter().all(|(k, v, _)| k.len() == v.len() && k.len() % kv_dim.max(1) == 0));
    let kn = Kernel::new(cfg, q, rope, alibi);
    let lane_of = |i: usize| Lane { q_pos: q_positions[i], key_positions, visible: base + i + 1, tail: &[] };

    // Query rows are independent (no cross-row reductions), so serial and
    // parallel paths run the same `attend_rows`, the latter over disjoint
    // output chunks that start on tile boundaries. Decode (n = 1) and tiny
    // chunks stay on the calling thread via the `min_work` threshold.
    let threads = cfg.parallelism.threads_for(n * total * d).min(n).max(1);
    if threads == 1 {
        return attend_rows(&kn, 0, segments, lane_of, out, scratch);
    }
    let per = n.div_ceil(threads).next_multiple_of(LANES);
    parallel_output_blocks(out, d, per, threads, |first_row, out_chunk| {
        attend_rows(&kn, first_row, segments, lane_of, out_chunk, &mut AttnScratch::default());
    });
}

/// Batched decode attention — one query row **per sequence**, each over
/// its *own* segmented KV cache (which already holds the new token's
/// k/v) — as a prefix-aware kernel that streams each **shared** K/V row
/// once per tile of group members instead of once per sequence.
///
/// The per-sequence segment lists arrive in CSR form to keep the hot
/// loop allocation-free: `segs` is every sequence's segments back to
/// back, and sequence `s` owns `segs[seg_bounds[s]..seg_bounds[s + 1]]`.
///
/// * `q` — query rows, `[nseqs × hidden]` (row `s` = sequence `s`).
/// * `q_positions` — position id of each sequence's new token.
/// * `seq_key_positions` — per sequence, the position ids of every cached
///   token (length = that cache's logical length).
/// * `scratch` — caller-owned tile scratch, reused across layers/ticks.
/// * `out` — output rows, `[nseqs × hidden]`, overwritten.
///
/// `groups` partitions the batch rows into contiguous runs (see
/// [`crate::view::group_adjacent_prefixes`]); within a run, the first
/// `prefix_rows` cached rows of every member are pointer-identical. Up to
/// eight members make one tile over those rows — each shared key or
/// value row is loaded once and applied to every member's query — and
/// each member then continues alone, at one lane, over its private tail.
/// A member of a group that shares nothing is all tail: the one-lane tile
/// over its whole cache, which is also what a solo decode step runs.
///
/// **Why the outputs stay byte-identical.** Per (sequence, head) the tile
/// keeps a private score row and output accumulator, and its two runs —
/// rows `0..prefix_rows`, then the tail — advance the key index a flat walk
/// would; tiling only interleaves *independent* chains (module doc).
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
    scratch: &mut AttnScratch,
    out: &mut [f32],
) {
    let (nseqs, d) = (q_positions.len(), cfg.hidden_size);
    debug_assert!(q.len() == nseqs * d && out.len() == nseqs * d);
    debug_assert!(seg_bounds.len() == nseqs + 1 && seq_key_positions.len() == nseqs);
    debug_assert_eq!(groups.iter().map(|g| g.len).sum::<usize>(), nseqs);
    let kn = Kernel::new(cfg, q, rope, alibi);
    let group = |g: &PrefixGroup, out_chunk: &mut [f32], scratch: &mut AttnScratch| {
        let shared = &segs[seg_bounds[g.start]..][..g.prefix_segments];
        let lane_of = |s: usize| Lane {
            q_pos: q_positions[s],
            key_positions: seq_key_positions[s],
            visible: seq_key_positions[s].len(),
            tail: &segs[seg_bounds[s] + g.prefix_segments..seg_bounds[s + 1]],
        };
        attend_rows(&kn, g.start, shared, lane_of, out_chunk, scratch);
    };

    // Groups own disjoint, contiguous output ranges, so they parallelise
    // by plain slice splitting, one scratch per task.
    let work: usize = seq_key_positions.iter().map(|kp| kp.len() * d).sum();
    let threads = cfg.parallelism.threads_for(work).min(groups.len()).max(1);
    let mut out_rest: &mut [f32] = out;
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
    for g in groups {
        let (out_chunk, rest) = out_rest.split_at_mut(g.len * d);
        out_rest = rest;
        if threads == 1 {
            group(g, out_chunk, scratch);
        } else {
            let group = &group;
            tasks.push(Box::new(move || group(g, out_chunk, &mut AttnScratch::default())));
        }
    }
    run_tasks(tasks, threads);
}

/// Runs the query rows backing `out_rows` — rows `first ..` of `kn.q` —
/// through the tile, [`LANES`] at a time: full tiles at [`LANES`] lanes, a
/// lone row at one. `lane_of(row)` describes one row, and every row reads
/// `shared` before its own tail. Serial and parallel entry points run
/// exactly this on tile-aligned chunks.
fn attend_rows<'a>(
    kn: &Kernel<'_>,
    first: usize,
    shared: &[KvSegmentSlices<'_>],
    lane_of: impl Fn(usize) -> Lane<'a>,
    out_rows: &mut [f32],
    scratch: &mut AttnScratch,
) {
    let d = kn.hidden;
    for (t, out) in out_rows.chunks_mut(LANES * d).enumerate() {
        let (row0, m) = (first + t * LANES, out.len() / d);
        let lanes: [Lane<'a>; LANES] = from_fn(|l| lane_of(row0 + l.min(m - 1)));
        let tile = Tile { q: &kn.q[row0 * d..(row0 + m) * d], shared, lanes: &lanes[..m] };
        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            // SAFETY: `has_avx2` just reported that this CPU supports AVX2.
            unsafe { attend_avx2(kn, &tile, out, scratch) };
            continue;
        }
        attend_portable(kn, &tile, out, scratch);
    }
}

/// One tile's inputs: `m = lanes.len()` query rows (`q` holds them, `[m ×
/// hidden]`) that all read `shared` before their own tails.
struct Tile<'a> {
    q: &'a [f32],
    shared: &'a [KvSegmentSlices<'a>],
    lanes: &'a [Lane<'a>],
}

/// [`attend_body`] compiled for AVX2 — the arm [`pc_tensor::ops::gemm_arm`]
/// names, both kernels on the one [`has_avx2`] decision — with
/// [`score_row_avx2`] as its one-row score pass. `avx2` only, never
/// `fma`: a separate multiply and add round exactly as the portable arm
/// does, so hosts running different arms still produce the same bytes.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn attend_avx2(kn: &Kernel<'_>, tile: &Tile<'_>, out: &mut [f32], scratch: &mut AttnScratch) {
    // A `#[target_feature]` function is not an `Fn`; a closure defined
    // here is, and inherits this function's features.
    attend_lanes(kn, tile, out, scratch, &|kn, h, q, keys, n, row| score_row_avx2(kn, h, q, keys, n, row));
}

/// [`attend_body`] compiled for the build's baseline target, with
/// [`score_row`] as its one-row score pass: the only arm on a CPU without
/// AVX2 and on every target that is not x86-64.
fn attend_portable(kn: &Kernel<'_>, tile: &Tile<'_>, out: &mut [f32], scratch: &mut AttnScratch) {
    attend_lanes(kn, tile, out, scratch, &score_row);
}

/// The two instantiations of the tile: [`LANES`] lanes, or one.
#[inline(always)]
fn attend_lanes(
    kn: &Kernel<'_>,
    tile: &Tile<'_>,
    out: &mut [f32],
    scratch: &mut AttnScratch,
    one_row: &impl Fn(&Kernel<'_>, usize, &[f32], &[f32], usize, &mut [f32]),
) {
    if tile.lanes.len() == 1 {
        attend_body::<1>(kn, tile, out, scratch, one_row);
    } else {
        attend_body::<LANES>(kn, tile, out, scratch, one_row);
    }
}

/// The tile: attention outputs of its `m ≤ L` query rows (`out` holds `m`
/// rows of `hidden`), head by head. Lane `l` attends to cache rows
/// `0..lanes[l].visible`: first to as many of the rows of `shared` — which
/// every lane reads, so each is loaded once for the tile — then, alone, to
/// `lanes[l].tail`. Lanes past `m` repeat the last one and are never
/// stored. Score pass, [`softmax_slice`] on each lane's contiguous score
/// row, value pass; the module doc has the order of every reduction.
/// Every one-lane score run — `L = 1`, and each lane's tail — is the
/// arm's `one_row` pass ([`score_row`]'s contract).
#[inline(always)]
fn attend_body<const L: usize>(
    kn: &Kernel<'_>,
    tile: &Tile<'_>,
    out: &mut [f32],
    scratch: &mut AttnScratch,
    one_row: &impl Fn(&Kernel<'_>, usize, &[f32], &[f32], usize, &mut [f32]),
) {
    let Tile { q, shared, lanes } = *tile;
    let (d, hd, m) = (kn.hidden, kn.head_dim, lanes.len());
    debug_assert!((1..=L).contains(&m) && q.len() == m * d && out.len() == m * d);
    debug_assert!(lanes.iter().all(|lane| (1..=lane.key_positions.len()).contains(&lane.visible)));
    let lane = |l: usize| &lanes[l.min(m - 1)];
    let shared_rows = shared.iter().map(|(k, _, _)| k.len()).sum::<usize>() / kn.kv_dim;
    // Lane `l` reads shared rows `0..seen[l]`, then `own(l)` rows of its
    // tail, which are cache rows `shared_rows..visible`.
    let seen: [usize; L] = from_fn(|l| lane(l).visible.min(shared_rows));
    let own = |l: usize| lanes[l].visible - seen[l];
    let stride = lanes.iter().map(|lane| lane.visible).max().unwrap_or(0);
    let scores = sized(&mut scratch.scores, L * stride);
    // A one-row pass writes its scores straight into the row.
    let dots = sized(&mut scratch.dots, if L == 1 { 0 } else { L * stride });
    let (qt, _) = sized(&mut scratch.qt, L * hd).as_chunks_mut::<L>();
    let rotated = sized(&mut scratch.rotated, L * hd);
    out.fill(0.0);
    for h in 0..kn.num_heads {
        let q_head = |l: usize| &q[l * d + h * hd..][..hd];
        for (e, col) in qt.iter_mut().enumerate() {
            *col = from_fn(|l| q_head(l.min(m - 1))[e]);
        }
        score_run::<L>(kn, h, qt, shared, 0, &seen, lanes, scores, stride, dots, rotated, one_row);
        for (l, lane) in lanes.iter().enumerate() {
            let row = &mut scores[l * stride..][..lane.visible];
            if own(l) > 0 {
                let (q1, _) = q_head(l).as_chunks::<1>();
                let lane = std::slice::from_ref(lane);
                score_run::<1>(kn, h, q1, lane[0].tail, shared_rows, &[own(l)], lane, row, 0, &mut [], rotated, one_row);
            }
            softmax_slice(row);
        }
        value_run::<L>(kn, h, shared, &seen, scores, stride, out, m);
        for (l, lane) in lanes.iter().enumerate() {
            if own(l) > 0 {
                let probs = &scores[l * stride + shared_rows..];
                value_run::<1>(kn, h, lane.tail, &[own(l)], probs, 0, &mut out[l * d..(l + 1) * d], 1);
            }
        }
    }
}

/// Scores of one run of cache rows, `first ..`: lane `l` — packed query
/// `qt[e][l]` — against the first `rows[l]` rows of `segments`, written to
/// `scores[l · stride + first ..]` as `dot · scale`, plus the ALiBi bias.
/// A segment at shift `Δ` is scored with the query tile rotated by
/// `R(−Δ)` into `rotated`, once per run of segments sharing that shift.
/// At one lane each segment is the `one_row` pass, straight into the score
/// row; at several, the raw dots of the whole tile land key-major in
/// `dots` first, and rows past a lane's own horizon are computed too and
/// never read.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn score_run<const L: usize>(
    kn: &Kernel<'_>,
    h: usize,
    qt: &[[f32; L]],
    segments: &[KvSegmentSlices<'_>],
    first: usize,
    rows: &[usize; L],
    lanes: &[Lane<'_>],
    scores: &mut [f32],
    stride: usize,
    dots: &mut [f32],
    rotated: &mut [f32],
    one_row: &impl Fn(&Kernel<'_>, usize, &[f32], &[f32], usize, &mut [f32]),
) {
    let most = rows.iter().copied().max().unwrap_or(0);
    let (dots, _) = dots.as_chunks_mut::<L>();
    let (rotated, _) = rotated.as_chunks_mut::<L>();
    let rotated = &mut rotated[..qt.len()];
    let mut segment = |q: &[[f32; L]], keys: &[f32], j: usize, n: usize| {
        if L == 1 {
            one_row(kn, h, q.as_flattened(), keys, n, &mut scores[first + j..][..n]);
        } else {
            score_segment(kn, h, q, keys, n, &mut dots[j..]);
        }
    };
    // The shift `rotated` currently holds the query for (0: none yet).
    let mut turned = 0;
    let mut j = 0;
    for &(keys, _, shift) in segments {
        if j >= most {
            break;
        }
        let n = (keys.len() / kn.kv_dim).min(most - j);
        // One call per query buffer, not one call on a buffer picked at
        // run time: that pick cost the one-lane tile about a tenth of a
        // decode step (the score loop no longer kept the query in
        // registers).
        match segment_rotation(kn.rope, shift) {
            None => segment(qt, keys, j, n),
            Some(row) => {
                if turned != shift {
                    rotate_queries(qt, row, rotated);
                    turned = shift;
                }
                segment(rotated, keys, j, n);
            }
        }
        j += n;
    }
    debug_assert_eq!(j, most);
    for (l, lane) in lanes.iter().enumerate() {
        let row = &mut scores[l * stride + first..][..rows[l]];
        if L > 1 {
            for (s, dot) in row.iter_mut().zip(dots.iter()) {
                *s = dot[l] * kn.scale;
            }
        }
        if let Some(alibi) = kn.alibi {
            for (s, &k_pos) in row.iter_mut().zip(&lane.key_positions[first..]) {
                *s += alibi.bias(h, lane.q_pos, k_pos);
            }
        }
    }
}

/// The dots of the first `n` key rows of one segment against the packed
/// query tile `q`, [`KEYS`] rows at a time, into `dots[..n]`.
#[inline(always)]
fn score_segment<const L: usize>(
    kn: &Kernel<'_>,
    h: usize,
    q: &[[f32; L]],
    keys: &[f32],
    n: usize,
    dots: &mut [[f32; L]],
) {
    let whole = n - n % KEYS;
    for r in (0..whole).step_by(KEYS) {
        score_keys::<L, KEYS>(kn, h, q, keys, r, &mut dots[r..]);
    }
    for r in whole..n {
        score_keys::<L, 1>(kn, h, q, keys, r, &mut dots[r..]);
    }
}

/// The one-row score pass: `row[r] = dot_seq(q, key r) · scale` for the
/// first `n` key rows of one segment against the query head `q`, through
/// [`score_segment`] at one lane. The portable arm's pass, and the AVX2
/// arm's for what its key-row blocks leave over.
#[inline(always)]
fn score_row(kn: &Kernel<'_>, h: usize, q: &[f32], keys: &[f32], n: usize, row: &mut [f32]) {
    let row = &mut row[..n];
    score_segment(kn, h, q.as_chunks::<1>().0, keys, n, row.as_chunks_mut::<1>().0);
    for s in row {
        *s *= kn.scale;
    }
}

/// [`score_row`] on AVX2, [`BLOCK`] key rows per step with the key rows as
/// vector lanes: each 8 × 8 piece of a block's key heads is transposed in
/// registers, so vector `e` holds element `e` of eight rows, and `acc +=
/// q[e] · col[e]` runs over ascending `e` from `+0` with a separate
/// multiply and add — every lane is one `dot_seq`, and a lone query does
/// not wait out one dependent add chain per key. `dot · scale` is stored
/// straight into `row`. Rows after the last whole block, and every row of
/// a head dim that is not a multiple of 8, go to [`score_row`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn score_row_avx2(kn: &Kernel<'_>, h: usize, q: &[f32], keys: &[f32], n: usize, row: &mut [f32]) {
    let (q8, rest) = q.as_chunks::<8>();
    let whole = if rest.is_empty() { n - n % BLOCK } else { 0 };
    let (kv_dim, k_off) = (kn.kv_dim, h / kn.kv_group * q.len());
    let scale = _mm256_set1_ps(kn.scale);
    for r in (0..whole).step_by(BLOCK) {
        let block = &keys[r * kv_dim..][..BLOCK * kv_dim];
        let mut acc = [_mm256_setzero_ps(); BLOCK / 8];
        for (c, qc) in q8.iter().enumerate() {
            for (b, acc) in acc.iter_mut().enumerate() {
                let cols = transpose8(block, b * 8 * kv_dim + k_off + 8 * c, kv_dim);
                for (&qe, col) in qc.iter().zip(cols) {
                    *acc = _mm256_add_ps(*acc, _mm256_mul_ps(_mm256_set1_ps(qe), col));
                }
            }
        }
        let (out, _) = row[r..][..BLOCK].as_chunks_mut::<8>();
        for (out, acc) in out.iter_mut().zip(acc) {
            // SAFETY: `out` is eight writable `f32`s, and the store is unaligned.
            unsafe { _mm256_storeu_ps(out.as_mut_ptr(), _mm256_mul_ps(acc, scale)) };
        }
    }
    score_row(kn, h, q, &keys[whole * kv_dim..], n - whole, &mut row[whole..]);
}

/// Eight rows of eight `f32`s transposed: the rows start at `at + i ·
/// stride` in `xs`, and vector `e` holds element `e` of every row, row `i`
/// in lane `i`. Each load puts half of row `i` in the low 128 bits and the
/// same half of row `i + 4` in the high 128 bits, so the in-register part
/// is two 4 × 4 transposes side by side, one `unpack` and one `shuffle`
/// stage.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn transpose8(xs: &[f32], at: usize, stride: usize) -> [__m256; 8] {
    let rows = &xs[at..];
    // `7 · stride + 8 ≤ rows.len()`, in a form that cannot overflow.
    assert!(rows.len() >= 8 && (rows.len() - 8) / 7 >= stride, "eight rows of eight inside the slice");
    let mut cols = [_mm256_setzero_ps(); 8];
    for half in 0..2 {
        let pair = |i: usize| {
            let lo = i * stride + 4 * half;
            // SAFETY: `i < 4` and `half < 2`, so both `rows[lo..][..4]` and
            // `rows[lo + 4 · stride..][..4]` end by `7 · stride + 8`, which
            // the assert above puts inside `rows`; the loads are unaligned.
            unsafe { _mm256_loadu2_m128(rows.as_ptr().add(lo + 4 * stride), rows.as_ptr().add(lo)) }
        };
        let (t0, t1, t2, t3) = (pair(0), pair(1), pair(2), pair(3));
        // Per 128-bit half (rows 0–3 low, 4–7 high): [a₀ b₀ a₁ b₁] and
        // [a₂ b₂ a₃ b₃] for rows a, b, likewise for c, d; `0x44` takes the
        // low pair of each operand and `0xEE` the high pair, so column `e`
        // is [aₑ bₑ cₑ dₑ].
        let (ab01, ab23) = (_mm256_unpacklo_ps(t0, t1), _mm256_unpackhi_ps(t0, t1));
        let (cd01, cd23) = (_mm256_unpacklo_ps(t2, t3), _mm256_unpackhi_ps(t2, t3));
        let cols = &mut cols[4 * half..][..4];
        cols[0] = _mm256_shuffle_ps::<0x44>(ab01, cd01);
        cols[1] = _mm256_shuffle_ps::<0xEE>(ab01, cd01);
        cols[2] = _mm256_shuffle_ps::<0x44>(ab23, cd23);
        cols[3] = _mm256_shuffle_ps::<0xEE>(ab23, cd23);
    }
    cols
}

/// The packed query tile `qt` rotated by one `(cos, sin, sign)` row into
/// `out`, every lane by [`RopeTable::apply_shift`]'s expressions: with
/// `s = sign · sin[i]`, `x' = x·c − y·s` and `y' = x·s + y·c` over the
/// rotate-half pairs `(i, i + half)`.
#[inline(always)]
fn rotate_queries<const L: usize>(qt: &[[f32; L]], (cos, sin, sign): (&[f32], &[f32], f32), out: &mut [[f32; L]]) {
    let half = cos.len();
    // Every slice cut to `half` up front, so the loop carries no bounds
    // checks and vectorises (over `i` at one lane, over lanes at `L`).
    let (xs, ys) = qt.split_at(half);
    let (out_x, out_y) = out.split_at_mut(half);
    let (sin, ys, out_y) = (&sin[..half], &ys[..half], &mut out_y[..half]);
    for i in 0..half {
        let (c, s) = (cos[i], sign * sin[i]);
        for l in 0..L {
            let (x, y) = (xs[i][l], ys[i][l]);
            out_x[i][l] = x * c - y * s;
            out_y[i][l] = x * s + y * c;
        }
    }
}

/// `K` key rows (`r ..` of `keys`) against `L` lanes at once: lane `l`'s
/// accumulator for key `kk` sees `0 + q₀k₀ + q₁k₁ + …`, exactly
/// `dot_seq`'s sequence, while the `K × L` chains overlap. Dots leave
/// key-major, a whole vector of lanes per store — transposing here
/// instead makes the compiler scalarise the accumulation.
#[inline(always)]
fn score_keys<const L: usize, const K: usize>(
    kn: &Kernel<'_>,
    h: usize,
    qt: &[[f32; L]],
    keys: &[f32],
    r: usize,
    dots: &mut [[f32; L]],
) {
    let hd = qt.len();
    let k_off = h / kn.kv_group * hd;
    // Filled by plain loops: `array::from_fn` here costs the one-lane arm
    // about a tenth of a decode step.
    let mut heads: [&[f32]; K] = [&[]; K];
    for kk in 0..K {
        heads[kk] = &keys[(r + kk) * kn.kv_dim + k_off..][..hd];
    }
    let mut acc = [[0.0f32; L]; K];
    for (e, qv) in qt.iter().enumerate() {
        for kk in 0..K {
            let ke = heads[kk][e];
            for l in 0..L {
                acc[kk][l] += qv[l] * ke;
            }
        }
    }
    dots[..K].copy_from_slice(&acc);
}

/// The value pass of one run for head `h`: `out[l][h] += Σ_r probs[l ·
/// stride + r] · v_r` over the first `rows[l]` rows `r` of `segments`, for
/// lanes `l < m`, in register slices of the head — 8 elements wide, 16 at
/// one lane, a scalar remainder when `head_dim % 8 ≠ 0`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn value_run<const L: usize>(
    kn: &Kernel<'_>,
    h: usize,
    segments: &[KvSegmentSlices<'_>],
    rows: &[usize; L],
    probs: &[f32],
    stride: usize,
    out: &mut [f32],
    m: usize,
) {
    let mut e = 0;
    while e < kn.head_dim {
        e += match kn.head_dim - e {
            16.. if L == 1 => value_tile::<L, 16>(kn, h, e, segments, rows, probs, stride, out, m),
            8.. => value_tile::<L, 8>(kn, h, e, segments, rows, probs, stride, out, m),
            _ => value_tile::<L, 1>(kn, h, e, segments, rows, probs, stride, out, m),
        };
    }
}

/// [`value_run`] for elements `e..e + W` of the head; returns `W`. One
/// register accumulator per lane, loaded from `out` and stored back once;
/// each value row is loaded once for all lanes over the rows all of them
/// see, then the few ragged rows under a per-lane test — ascending `r` per
/// output element, `axpy_seq`'s order.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn value_tile<const L: usize, const W: usize>(
    kn: &Kernel<'_>,
    h: usize,
    e: usize,
    segments: &[KvSegmentSlices<'_>],
    rows: &[usize; L],
    probs: &[f32],
    stride: usize,
    out: &mut [f32],
    m: usize,
) -> usize {
    let (d, v_off, o_off) = (kn.hidden, h / kn.kv_group * kn.head_dim + e, h * kn.head_dim + e);
    let (mut common, mut end) = (rows[0], rows[0]);
    for &n in &rows[1..] {
        (common, end) = (common.min(n), end.max(n));
    }
    // Every lane's row cut to the same `end`: with `r < end` tested once
    // per value row, none of the `L` loads below needs its own check.
    let lane_probs: [&[f32]; L] = from_fn(|l| &probs[l * stride..][..end]);
    let mut acc = [[0.0f32; W]; L];
    for l in 0..L {
        if l < m {
            acc[l].copy_from_slice(&out[l * d + o_off..][..W]);
        }
    }
    let mut r = 0;
    'rows: for &(_, values, _) in segments {
        for v_row in values.chunks_exact(kn.kv_dim) {
            if r >= end {
                break 'rows;
            }
            let v: [f32; W] = v_row[v_off..][..W].try_into().expect("W elements");
            for l in 0..L {
                if r < common || r < rows[l] {
                    let p = lane_probs[l][r];
                    for x in 0..W {
                        acc[l][x] += p * v[x];
                    }
                }
            }
            r += 1;
        }
    }
    for l in 0..L {
        if l < m {
            out[l * d + o_off..][..W].copy_from_slice(&acc[l]);
        }
    }
    W
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
    fn shifted_segment_rotates_the_query() {
        // A segment carrying shift Δ is scored as `dot_seq(apply_shift(q,
        // −Δ), k)` over its stored keys — bit for bit the per-row oracle.
        // Rotating every key head by R(Δ) instead and running the shift-0
        // kernel approximates the same real numbers, so the two agree to
        // within float rounding: 1e-5 here, on outputs of magnitude ≤ 1.
        let cfg = ModelConfig {
            hidden_size: 8,
            num_heads: 2,
            num_kv_heads: 1,
            ..ModelConfig::llama_tiny(8)
        };
        let rope = crate::pos::RopeTable::new(cfg.head_dim(), 512, 10_000.0);
        let max_shift = rope.max_position() as isize - 1;
        let (d, kv_dim) = (cfg.hidden_size, cfg.kv_dim());
        let total = 6usize;
        let n = 2usize;
        let base = total - n;
        let keys: Vec<f32> =
            (0..total * kv_dim).map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.13).collect();
        let values: Vec<f32> =
            (0..total * kv_dim).map(|i| ((i * 53 % 23) as f32 - 11.0) * 0.07).collect();
        let q: Vec<f32> = (0..n * d).map(|i| ((i * 41 % 17) as f32 - 8.0) * 0.11).collect();
        let q_positions: Vec<usize> = (base..total).collect();
        let key_positions: Vec<usize> = (0..total).collect();
        // First 4 rows are a "module" whose keys are canonical (shift Δ
        // pending); last 2 rows are the fresh tail at shift 0.
        let split = 4 * kv_dim;
        for shift in [5isize, 120, -3, max_shift, -max_shift] {
            let segs: Vec<KvSegmentSlices<'_>> = vec![
                (&keys[..split], &values[..split], shift),
                (&keys[split..], &values[split..], 0),
            ];
            let mut got = vec![0.0f32; n * d];
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
            let expect: Vec<f32> = (0..n)
                .flat_map(|i| {
                    let q_row = &q[i * d..(i + 1) * d];
                    attention_row(&cfg, q_row, q_positions[i], &segs, &key_positions, base + i + 1, Some(&rope), None)
                })
                .collect();
            assert_eq!(bits(&got), bits(&expect), "shift {shift}");

            let mut rotated = keys.clone();
            for row in rotated[..split].chunks_exact_mut(kv_dim) {
                for head in row.chunks_exact_mut(cfg.head_dim()) {
                    rope.apply_shift(head, shift);
                }
            }
            let mut key_side = vec![0.0f32; n * d];
            attention_chunk_segments(
                &cfg,
                &q,
                &q_positions,
                &[(&rotated, &values, 0)],
                &key_positions,
                base,
                None,
                None,
                &mut key_side,
            );
            for (a, b) in got.iter().zip(&key_side) {
                assert!((a - b).abs() <= 1e-5, "shift {shift}: {a} vs key-side {b}");
            }
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

    // ---- the tile against the per-row walk it replaced -----------------

    use pc_tensor::ops::{axpy_seq, dot_seq};
    use pc_tensor::Parallelism;
    use proptest::prelude::*;

    /// The oracle: attention for one query row over the first `visible`
    /// cached rows, one scalar [`dot_seq`] per key — against the query
    /// head turned by [`RopeTable::apply_shift`]`(−Δ)` for a segment at
    /// shift `Δ` — and one [`axpy_seq`] per value row: the per-row walk
    /// every path ran before the tile, kept to define the bits the tile
    /// must produce.
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
    ) -> Vec<f32> {
        let (hd, kv_dim) = (cfg.head_dim(), cfg.kv_dim());
        let scale = 1.0 / (hd as f32).sqrt();
        let mut o_row = vec![0.0f32; cfg.hidden_size];
        let mut scores = vec![0.0f32; visible];
        for h in 0..cfg.num_heads {
            let q_head = &q_row[h * hd..(h + 1) * hd];
            let kv_h = h / cfg.kv_group_size();
            let mut j = 0usize;
            for &(keys, _, shift) in segments {
                let mut q_seg = q_head.to_vec();
                if let Some(rope) = rope.filter(|_| shift != 0) {
                    rope.apply_shift(&mut q_seg, -shift);
                }
                for k_row in keys.chunks_exact(kv_dim).take(visible - j) {
                    let k_head = &k_row[kv_h * hd..(kv_h + 1) * hd];
                    scores[j] = scale * dot_seq(&q_seg, k_head);
                    if let Some(alibi) = alibi {
                        scores[j] += alibi.bias(h, q_pos, key_positions[j]);
                    }
                    j += 1;
                }
            }
            assert_eq!(j, visible);
            softmax_slice(&mut scores);
            let mut j = 0usize;
            for &(_, values, _) in segments {
                for v_row in values.chunks_exact(kv_dim).take(visible - j) {
                    axpy_seq(&mut o_row[h * hd..(h + 1) * hd], scores[j], &v_row[kv_h * hd..(kv_h + 1) * hd]);
                    j += 1;
                }
            }
        }
        o_row
    }

    /// Deterministic test data from one generated seed (splitmix64).
    struct Dice(u64);

    impl Dice {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `lo..=hi`.
        fn pick(&mut self, lo: usize, hi: usize) -> usize {
            lo + (self.next() % (hi - lo + 1) as u64) as usize
        }

        /// `len` floats in `[-2, 2)`.
        fn floats(&mut self, len: usize) -> Vec<f32> {
            (0..len).map(|_| (self.next() >> 40) as f32 / (1u64 << 22) as f32 - 2.0).collect()
        }

        /// `len` position ids, discontinuous and out of order.
        fn positions(&mut self, len: usize) -> Vec<usize> {
            (0..len).map(|_| self.pick(0, 99)).collect()
        }
    }

    /// `rows` rows of keys and values, cut into `pieces` segments at random
    /// points — repeats make empty segments, neighbours 1-row ones — about
    /// half of them carrying a non-zero shift.
    struct Rows {
        keys: Vec<f32>,
        values: Vec<f32>,
        cuts: Vec<(usize, usize, isize)>,
    }

    impl Rows {
        fn new(dice: &mut Dice, kv_dim: usize, rows: usize, pieces: usize) -> Self {
            let mut at: Vec<usize> = (1..pieces).map(|_| dice.pick(0, rows)).collect();
            at.extend([0, rows]);
            at.sort_unstable();
            let cuts = at
                .windows(2)
                .map(|w| (w[0] * kv_dim, w[1] * kv_dim, [0, 0, -37, -2, 5, 64][dice.pick(0, 5)]))
                .collect();
            Rows { keys: dice.floats(rows * kv_dim), values: dice.floats(rows * kv_dim), cuts }
        }

        fn segments(&self) -> impl Iterator<Item = KvSegmentSlices<'_>> {
            self.cuts.iter().map(|&(a, b, shift)| (&self.keys[a..b], &self.values[a..b], shift))
        }
    }

    /// A Llama (RoPE), MPT (ALiBi) or Falcon (RoPE, parallel block) shape
    /// with `heads` query heads over a kv-head count that divides them.
    fn shape(family: usize, heads: usize, kv_pick: usize, hd: usize) -> (ModelConfig, Option<RopeTable>, Option<AlibiTable>) {
        let divisors: Vec<usize> = (1..=heads).filter(|&k| heads.is_multiple_of(k)).collect();
        let base = [ModelConfig::llama_tiny(8), ModelConfig::mpt_tiny(8), ModelConfig::falcon_tiny(8)][family].clone();
        let cfg = ModelConfig {
            hidden_size: heads * hd,
            num_heads: heads,
            num_kv_heads: divisors[kv_pick % divisors.len()],
            ..base
        };
        let rope = (family != 1).then(|| RopeTable::new(hd, 128, 10_000.0));
        let alibi = (family == 1).then(|| AlibiTable::new(heads));
        (cfg, rope, alibi)
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs one tile on the portable arm and, when the CPU has it, on the
    /// AVX2 arm — called directly, no switch forces an arm — and holds both
    /// to `expect`.
    fn assert_arms_equal(kn: &Kernel<'_>, tile: &Tile<'_>, expect: &[f32]) {
        let mut out = vec![f32::NAN; expect.len()];
        attend_portable(kn, tile, &mut out, &mut AttnScratch::default());
        assert_eq!(bits(&out), bits(expect), "portable arm, {} lanes", tile.lanes.len());
        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            out.fill(f32::NAN);
            // SAFETY: `has_avx2` just reported that this CPU supports AVX2.
            unsafe { attend_avx2(kn, tile, &mut out, &mut AttnScratch::default()) };
            assert_eq!(bits(&out), bits(expect), "avx2 arm, {} lanes", tile.lanes.len());
        }
    }

    const HEAD_DIMS: [usize; 6] = [2, 6, 8, 16, 24, 32];

    proptest! {
        #![proptest_config(ProptestConfig { cases: 192, ..ProptestConfig::default() })]

        /// Prefill, suffix prefill and module encoding: every chunk row
        /// equals the per-row oracle at any segmentation, shift pattern and
        /// thread count, and so does each arm on the chunk's first tile and
        /// on its last row alone.
        #[test]
        fn chunk_rows_equal_the_per_row_oracle(
            (family, heads, kv_pick, hd) in (0usize..3, 1usize..=4, 0usize..4, 0..HEAD_DIMS.len()),
            (n, base, seed) in (1usize..=20, 0usize..=40, any::<u64>()),
        ) {
            let (cfg, rope, alibi) = shape(family, heads, kv_pick, HEAD_DIMS[hd]);
            let (rope, alibi) = (rope.as_ref(), alibi.as_ref());
            let (d, total) = (cfg.hidden_size, base + n);
            let dice = &mut Dice(seed);
            let pieces = dice.pick(1, 6);
            let rows = Rows::new(dice, cfg.kv_dim(), total, pieces);
            let segments: Vec<_> = rows.segments().collect();
            let (q, key_positions) = (dice.floats(n * d), dice.positions(total));
            let q_positions = &key_positions[base..];
            let expect: Vec<f32> = (0..n)
                .flat_map(|i| attention_row(&cfg, &q[i * d..(i + 1) * d], q_positions[i], &segments, &key_positions, base + i + 1, rope, alibi))
                .collect();

            for threads in [1usize, 2, 3] {
                let cfg = ModelConfig { parallelism: Parallelism { num_threads: threads, min_work: 0 }, ..cfg.clone() };
                let mut got = vec![f32::NAN; n * d];
                attention_chunk_segments(&cfg, &q, q_positions, &segments, &key_positions, base, rope, alibi, &mut got);
                prop_assert_eq!(bits(&got), bits(&expect), "threads {}", threads);
            }

            let kn = Kernel::new(&cfg, &q, rope, alibi);
            let lanes: Vec<Lane<'_>> = (0..n)
                .map(|i| Lane { q_pos: q_positions[i], key_positions: &key_positions, visible: base + i + 1, tail: &[] })
                .collect();
            let m = n.min(LANES);
            assert_arms_equal(&kn, &Tile { q: &q[..m * d], shared: &segments, lanes: &lanes[..m] }, &expect[..m * d]);
            assert_arms_equal(&kn, &Tile { q: &q[(n - 1) * d..], shared: &segments, lanes: &lanes[n - 1..] }, &expect[(n - 1) * d..]);
        }

        /// The one-row tile — a solo decode step, a private tail, a lone
        /// leftover row — on each arm: one query over 0–80 cached rows plus
        /// its own, in 1–6 segments cut at any row, so whole key-row blocks
        /// and 1–15-row remainders both occur, read as the tile's shared
        /// run, as the lane's tail, and split between the two.
        #[test]
        fn one_row_tile_equals_the_per_row_oracle(
            (family, heads, kv_pick, hd) in (0usize..3, 1usize..=4, 0usize..4, 0..HEAD_DIMS.len()),
            (cached, pieces, seed) in (0usize..=80, 1usize..=6, any::<u64>()),
        ) {
            let (cfg, rope, alibi) = shape(family, heads, kv_pick, HEAD_DIMS[hd]);
            let (rope, alibi) = (rope.as_ref(), alibi.as_ref());
            let dice = &mut Dice(seed);
            let visible = cached + 1;
            let rows = Rows::new(dice, cfg.kv_dim(), visible, pieces);
            let segments: Vec<_> = rows.segments().collect();
            let (q, key_positions, q_pos) = (dice.floats(cfg.hidden_size), dice.positions(visible), dice.pick(0, 99));
            let expect = attention_row(&cfg, &q, q_pos, &segments, &key_positions, visible, rope, alibi);

            let kn = Kernel::new(&cfg, &q, rope, alibi);
            for split in 0..=segments.len() {
                let (shared, tail) = segments.split_at(split);
                let lane = Lane { q_pos, key_positions: &key_positions, visible, tail };
                assert_arms_equal(&kn, &Tile { q: &q, shared, lanes: &[lane] }, &expect);
            }
        }

        /// The grouped decode tick: batches that cross the lane width, mixed
        /// shared groups and singletons, ragged private tails — every
        /// sequence equals the oracle over its own whole cache, i.e. being
        /// served alone; each arm agrees on every group's first tile.
        #[test]
        fn grouped_decode_equals_serving_each_sequence_alone(
            (family, heads, kv_pick, hd) in (0usize..3, 1usize..=4, 0usize..4, 0..HEAD_DIMS.len()),
            (nseqs, seed) in (1usize..=11, any::<u64>()),
        ) {
            let (cfg, rope, alibi) = shape(family, heads, kv_pick, HEAD_DIMS[hd]);
            let (rope, alibi) = (rope.as_ref(), alibi.as_ref());
            let (d, kv_dim) = (cfg.hidden_size, cfg.kv_dim());
            let dice = &mut Dice(seed);

            // Groups: a shared one has 1–3 prefix segments over 0..=40 rows,
            // the others are singletons over a private cache only. Tails of
            // up to 40 rows reach whole key-row blocks of the one-row pass.
            let mut groups: Vec<PrefixGroup> = Vec::new();
            let mut prefixes: Vec<Rows> = Vec::new();
            let mut start = 0;
            while start < nseqs {
                let shared = dice.pick(0, 2) > 0;
                let len = if shared { dice.pick(1, nseqs - start) } else { 1 };
                let (prefix_segments, prefix_rows) = if shared { (dice.pick(1, 3), dice.pick(0, 40)) } else { (0, 0) };
                groups.push(PrefixGroup { start, len, prefix_segments, prefix_rows });
                prefixes.push(Rows::new(dice, kv_dim, prefix_rows, prefix_segments));
                start += len;
            }
            let group_of = |s: usize| groups.iter().position(|g| (g.start..g.start + g.len).contains(&s)).unwrap();
            let tails: Vec<Rows> = (0..nseqs)
                .map(|_| {
                    let (rows, pieces) = (dice.pick(1, 40), dice.pick(1, 2));
                    Rows::new(dice, kv_dim, rows, pieces)
                })
                .collect();
            let key_positions: Vec<Vec<usize>> = (0..nseqs)
                .map(|s| dice.positions(groups[group_of(s)].prefix_rows + tails[s].keys.len() / kv_dim))
                .collect();
            let (q, q_positions) = (dice.floats(nseqs * d), dice.positions(nseqs));

            let (mut segs, mut seg_bounds) = (Vec::new(), vec![0usize]);
            for (s, tail) in tails.iter().enumerate() {
                let g = group_of(s);
                segs.extend(prefixes[g].segments().take(groups[g].prefix_segments));
                segs.extend(tail.segments());
                seg_bounds.push(segs.len());
            }
            let seq_key_positions: Vec<&[usize]> = key_positions.iter().map(|kp| &kp[..]).collect();
            let expect: Vec<f32> = (0..nseqs)
                .flat_map(|s| {
                    let own = &segs[seg_bounds[s]..seg_bounds[s + 1]];
                    attention_row(&cfg, &q[s * d..(s + 1) * d], q_positions[s], own, seq_key_positions[s], seq_key_positions[s].len(), rope, alibi)
                })
                .collect();

            for threads in [1usize, 2] {
                let cfg = ModelConfig { parallelism: Parallelism { num_threads: threads, min_work: 0 }, ..cfg.clone() };
                let mut got = vec![f32::NAN; nseqs * d];
                attention_decode_batch_grouped(
                    &cfg, &q, &q_positions, &segs, &seg_bounds, &seq_key_positions, &groups, rope, alibi,
                    &mut AttnScratch::default(), &mut got,
                );
                prop_assert_eq!(bits(&got), bits(&expect), "threads {}", threads);
            }

            let kn = Kernel::new(&cfg, &q, rope, alibi);
            for g in &groups {
                let members = g.start..g.start + g.len.min(LANES);
                let lanes: Vec<Lane<'_>> = members.clone()
                    .map(|s| Lane {
                        q_pos: q_positions[s],
                        key_positions: seq_key_positions[s],
                        visible: seq_key_positions[s].len(),
                        tail: &segs[seg_bounds[s] + g.prefix_segments..seg_bounds[s + 1]],
                    })
                    .collect();
                let shared = &segs[seg_bounds[g.start]..][..g.prefix_segments];
                let rows = members.start * d..members.end * d;
                assert_arms_equal(&kn, &Tile { q: &q[rows.clone()], shared, lanes: &lanes }, &expect[rows]);
            }
        }
    }
}
