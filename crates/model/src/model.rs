//! The transformer model: embedding, blocks, logits, decoding.

use crate::attention::{
    attention_chunk_segments_with, attention_decode_batch_grouped, sized, AttnScratch, LANES,
};
use crate::pos::{AlibiTable, RopeTable};
use crate::sampler::Sampler;
use crate::view::{group_adjacent_prefixes, KvSeq, PrefixGroup};
use crate::{Family, KvCache, ModelConfig, ModelError, ModelWeights, Result, TokenId};
use pc_telemetry::Telemetry;
use pc_tensor::ops;
use pc_tensor::Tensor;
use std::time::{Duration, Instant};

/// Per-layer attention/MLP timing is sampled on every `N`-th forward pass
/// or batched decode step (per [`Telemetry::should_sample`]) so the hot
/// loop stays free of clock reads in the common case.
const LAYER_TIMING_SAMPLE_EVERY: u64 = 16;

/// The attention and MLP halves of one pass, summed over its layers, for
/// the `pc_model_attention_seconds` / `pc_model_mlp_seconds` histograms. A
/// pass that is not sampled reads no clock.
struct LayerTiming {
    sampled: bool,
    attention: Duration,
    mlp: Duration,
}

impl LayerTiming {
    fn new(telemetry: &Telemetry) -> Self {
        LayerTiming {
            sampled: telemetry.should_sample(LAYER_TIMING_SAMPLE_EVERY),
            attention: Duration::ZERO,
            mlp: Duration::ZERO,
        }
    }

    fn start(&self) -> Option<Instant> {
        self.sampled.then(Instant::now)
    }

    /// Adds the time since `start` to one of the two halves.
    fn lap(half: &mut Duration, start: Option<Instant>) {
        if let Some(start) = start {
            *half += start.elapsed();
        }
    }

    fn record(self, telemetry: &Telemetry) {
        if self.sampled {
            let observe = |name, half: Duration| telemetry.latency_histogram(name).observe(half.as_secs_f64());
            observe("pc_model_attention_seconds", self.attention);
            observe("pc_model_mlp_seconds", self.mlp);
        }
    }
}

/// Recyclable allocation for the per-layer CSR segment list. The `Vec`
/// is stored with `'static` slice lifetimes **only while empty** and
/// re-branded to the caller's borrow lifetime on loan, so one heap
/// allocation serves every layer of every tick instead of being rebuilt
/// per layer.
#[derive(Debug, Default)]
struct SegListPool(Vec<(&'static [f32], &'static [f32], isize)>);

impl SegListPool {
    fn take<'s>(&mut self) -> Vec<(&'s [f32], &'s [f32], isize)> {
        let empty = std::mem::take(&mut self.0);
        debug_assert!(empty.is_empty());
        // SAFETY: the vector is empty, so it holds no references — only
        // its allocation transfers. The element types differ solely in
        // slice lifetime, which never affects layout.
        unsafe {
            std::mem::transmute::<
                Vec<(&'static [f32], &'static [f32], isize)>,
                Vec<(&'s [f32], &'s [f32], isize)>,
            >(empty)
        }
    }

    fn put<'s>(&mut self, mut v: Vec<(&'s [f32], &'s [f32], isize)>) {
        v.clear();
        // SAFETY: cleared above — no references remain; see `take`.
        self.0 = unsafe {
            std::mem::transmute::<
                Vec<(&'s [f32], &'s [f32], isize)>,
                Vec<(&'static [f32], &'static [f32], isize)>,
            >(v)
        };
    }
}

/// [`SegListPool`]'s twin for the per-sequence key-position slices.
#[derive(Debug, Default)]
struct PosListPool(Vec<&'static [usize]>);

impl PosListPool {
    fn take<'s>(&mut self) -> Vec<&'s [usize]> {
        let empty = std::mem::take(&mut self.0);
        debug_assert!(empty.is_empty());
        // SAFETY: empty — no references held; lifetime-only re-brand.
        unsafe { std::mem::transmute::<Vec<&'static [usize]>, Vec<&'s [usize]>>(empty) }
    }

    fn put<'s>(&mut self, mut v: Vec<&'s [usize]>) {
        v.clear();
        // SAFETY: cleared above — no references remain; see `take`.
        self.0 = unsafe { std::mem::transmute::<Vec<&'s [usize]>, Vec<&'static [usize]>>(v) };
    }
}

/// KV row-traffic accounting for one batched decode step, summed across
/// layers. "Shared" rows were streamed once per prefix group — once per
/// eight members of a wider one — by the tiled kernel (each read served
/// every member of the tile); "private" rows were read for exactly one
/// sequence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStepStats {
    /// Rows read once per tile of group members over shared prefixes.
    pub shared_rows_read: u64,
    /// Rows read for a single sequence (tails + unshared caches).
    pub private_rows_read: u64,
}

impl BatchStepStats {
    /// Total KV rows the step streamed.
    pub fn total_rows_read(&self) -> u64 {
        self.shared_rows_read + self.private_rows_read
    }

    /// Shared fraction of all row reads, in whole percent (0 if nothing
    /// was read).
    pub fn share_percent(&self) -> i64 {
        (self.shared_rows_read * 100)
            .checked_div(self.total_rows_read())
            .unwrap_or(0) as i64
    }
}

/// Reusable state for [`Model::decode_step_batch_with`]: activation
/// buffers, the attention score scratch, the CSR segment list and its
/// bounds, and the per-tick prefix grouping. Owned by the caller (the
/// batch scheduler keeps one for its lifetime), so a steady-state decode
/// tick allocates nothing on the hot path but the returned logits.
#[derive(Debug, Default)]
pub struct BatchScratch {
    x: Vec<f32>,
    normed: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    attn: Vec<f32>,
    proj: Vec<f32>,
    up: Vec<f32>,
    gate: Vec<f32>,
    down: Vec<f32>,
    logits: Vec<f32>,
    attn_scratch: AttnScratch,
    seg_bounds: Vec<usize>,
    groups: Vec<PrefixGroup>,
    seg_pool: SegListPool,
    pos_pool: PosListPool,
    stats: BatchStepStats,
}

impl BatchScratch {
    /// Fresh, empty scratch; buffers grow to fit on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Row-traffic stats of the most recent step run with this scratch.
    pub fn stats(&self) -> BatchStepStats {
        self.stats
    }

    /// The prefix groups computed for the most recent step (empty when
    /// the batch was empty).
    pub fn groups(&self) -> &[PrefixGroup] {
        &self.groups
    }
}

/// A decoder-only transformer with seeded random weights.
///
/// Every forward call takes explicit position IDs, which is the engine-side
/// requirement of Prompt Cache (§4.2): positions may be discontinuous, may
/// start anywhere, and are independent of cache indices.
#[derive(Debug, Clone)]
pub struct Model {
    cfg: ModelConfig,
    weights: ModelWeights,
    rope: Option<RopeTable>,
    alibi: Option<AlibiTable>,
    telemetry: Telemetry,
}

impl Model {
    /// Builds a model with weights initialised from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`ModelConfig::validated`]; construct configs
    /// through the presets or validate custom ones first.
    pub fn new(cfg: ModelConfig, seed: u64) -> Self {
        let cfg = cfg.validated().expect("invalid model config");
        let weights = ModelWeights::init(&cfg, seed);
        let rope = matches!(cfg.family, Family::Llama | Family::Falcon)
            .then(|| RopeTable::new(cfg.head_dim(), cfg.max_position, cfg.rope_theta));
        let alibi =
            matches!(cfg.family, Family::Mpt).then(|| AlibiTable::new(cfg.num_heads));
        Model {
            cfg,
            weights,
            rope,
            alibi,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle; per-layer attention/MLP timings are
    /// recorded into `pc_model_attention_seconds` /
    /// `pc_model_mlp_seconds` histograms on sampled forward passes and
    /// batched decode steps.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Replaces the telemetry handle in place (see [`Model::with_telemetry`]).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The model's configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The model's weights (read-only; used by fidelity tests).
    pub fn weights(&self) -> &ModelWeights {
        &self.weights
    }

    /// The model's RoPE table, if the family uses rotary positions —
    /// `None` for ALiBi/learned families. The forward pass hands it to the
    /// attention tile, which scores shifted [`crate::KvView`] segments
    /// (deferred RoPE) by rotating the query with it.
    pub fn rope(&self) -> Option<&RopeTable> {
        self.rope.as_ref()
    }

    /// Runs the transformer over `tokens` at `positions`, appending their
    /// `(k, v)` states to `cache`, and returns logits for **every** chunk
    /// token as a `[tokens × vocab]` tensor.
    ///
    /// # Errors
    ///
    /// Rejects mismatched slice lengths, out-of-vocab tokens, positions at
    /// or beyond `max_position`, and caches shaped for another model.
    ///
    /// Generic over [`KvSeq`]: pass a flat [`KvCache`] or a segmented
    /// [`crate::KvView`] — results are bit-identical either way.
    pub fn forward<K: KvSeq>(
        &self,
        tokens: &[TokenId],
        positions: &[usize],
        cache: &mut K,
    ) -> Result<Tensor> {
        let hidden = self.run_hidden(tokens, positions, cache)?;
        let n = tokens.len();
        let d = self.cfg.hidden_size;
        let v = self.cfg.vocab_size;
        let mut logits = vec![0.0f32; n * v];
        ops::matmul_transb_slices_par(
            &hidden,
            self.weights.embedding.data(),
            &mut logits,
            n,
            d,
            v,
            &self.cfg.parallelism,
        );
        Tensor::from_vec(logits, &[n, v]).map_err(|e| ModelError::InvalidConfig {
            detail: e.to_string(),
        })
    }

    /// Prefill variant that computes logits only for the **last** token —
    /// what a serving engine actually needs before decoding starts. This is
    /// the timed region of every TTFT measurement in the benches.
    ///
    /// # Errors
    ///
    /// Same contract as [`Model::forward`], plus [`ModelError::EmptyInput`]
    /// for an empty chunk.
    pub fn prefill<K: KvSeq>(
        &self,
        tokens: &[TokenId],
        positions: &[usize],
        cache: &mut K,
    ) -> Result<Vec<f32>> {
        if tokens.is_empty() {
            return Err(ModelError::EmptyInput);
        }
        let hidden = self.run_hidden(tokens, positions, cache)?;
        let n = tokens.len();
        let d = self.cfg.hidden_size;
        let v = self.cfg.vocab_size;
        let mut logits = vec![0.0f32; v];
        ops::matmul_transb_slices_par(
            &hidden[(n - 1) * d..n * d],
            self.weights.embedding.data(),
            &mut logits,
            1,
            d,
            v,
            &self.cfg.parallelism,
        );
        Ok(logits)
    }

    /// Runs the transformer for its attention states only (no logits) —
    /// the prompt-module *encoding* operation of §3.3.
    ///
    /// # Errors
    ///
    /// Same contract as [`Model::forward`].
    pub fn encode<K: KvSeq>(
        &self,
        tokens: &[TokenId],
        positions: &[usize],
        cache: &mut K,
    ) -> Result<()> {
        self.run_hidden(tokens, positions, cache).map(|_| ())
    }

    /// Encodes a token span into a fresh, standalone [`KvCache`] — the
    /// paper's prompt-module encoding: attention is confined to the span
    /// (the "attention masking effect" of §3.3 falls out of the fresh
    /// cache), and positions carry the schema-assigned ids.
    ///
    /// # Errors
    ///
    /// Same contract as [`Model::forward`].
    pub fn encode_segment(&self, tokens: &[TokenId], positions: &[usize]) -> Result<KvCache> {
        let mut cache = KvCache::new(&self.cfg);
        self.encode(tokens, positions, &mut cache)?;
        Ok(cache)
    }

    /// Greedy/temperature decoding loop: samples from `last_logits`, feeds
    /// tokens back at sequentially increasing positions, and stops at
    /// `max_new_tokens` or when `eos` is produced.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors (e.g. positions exhausting
    /// `max_position`).
    pub fn generate<K: KvSeq>(
        &self,
        cache: &mut K,
        last_logits: &[f32],
        max_new_tokens: usize,
        eos: Option<TokenId>,
        sampler: &mut dyn Sampler,
    ) -> Result<Vec<TokenId>> {
        let mut produced = Vec::new();
        let mut logits = last_logits.to_vec();
        let first_pos = cache.positions().iter().max().map_or(0, |p| p + 1);
        for next_pos in first_pos..first_pos + max_new_tokens {
            let token = sampler.sample(&logits);
            produced.push(token);
            if Some(token) == eos {
                break;
            }
            logits = self.prefill(&[token], &[next_pos], cache)?;
        }
        Ok(produced)
    }

    /// One batched decode step: advances `n` independent sequences by one
    /// token each in a single forward pass.
    ///
    /// Sequence `i` contributes `tokens[i]` at `positions[i]`, its k/v
    /// states append to `caches[i]`, and entry `i` of the returned vector
    /// holds its next-token logits (length = vocab). Activations for the
    /// whole batch stack into `[n × hidden]` blocks and go through the
    /// same register-tiled kernel as a prefill chunk
    /// ([`pc_tensor::ops::matmul_transb_slices_par`]); attention reads
    /// each sequence's own segmented cache in place
    /// ([`attention_decode_batch_grouped`]), so shared module blocks stay
    /// zero-copy across batch members.
    ///
    /// **Bit-identity.** Every per-sequence output is computed by the
    /// identical code the solo [`Model::prefill`] decode step runs (same
    /// matmul kernel, same per-row norms/rope, same attention horizon),
    /// so a batched step is byte-identical to `n` solo steps — the
    /// invariant the engine's batching tests assert exactly.
    ///
    /// # Errors
    ///
    /// Same per-sequence contract as [`Model::forward`]; also rejects
    /// mismatched `tokens`/`positions`/`caches` lengths. An empty batch
    /// returns an empty vector.
    pub fn decode_step_batch<K: KvSeq>(
        &self,
        tokens: &[TokenId],
        positions: &[usize],
        caches: &mut [&mut K],
    ) -> Result<Vec<Vec<f32>>> {
        self.decode_step_batch_with(tokens, positions, caches, &mut BatchScratch::new())
    }

    /// [`Model::decode_step_batch`] with caller-owned scratch — the
    /// entry point the batch scheduler drives every tick.
    ///
    /// Adjacent batch rows whose caches share a leading run of
    /// pointer-identical segments (see [`group_adjacent_prefixes`]) are
    /// grouped once per tick — the shared segments are frozen for the
    /// tick's duration, decode rows only ever land in private tails — and
    /// attention runs through the tiled
    /// [`attention_decode_batch_grouped`] kernel, which streams each
    /// shared K/V row **once per tile of up to eight group members**
    /// instead of once per sequence; rows that share nothing are the same
    /// tile at one lane over their own cache. Every output element
    /// sees the float operations of solo decoding in the same order, so
    /// the step is bit-identical to it. [`BatchScratch::stats`] reports
    /// the shared-vs-private row traffic.
    ///
    /// # Errors
    ///
    /// Same contract as [`Model::decode_step_batch`].
    pub fn decode_step_batch_with<K: KvSeq>(
        &self,
        tokens: &[TokenId],
        positions: &[usize],
        caches: &mut [&mut K],
        scratch: &mut BatchScratch,
    ) -> Result<Vec<Vec<f32>>> {
        let n = tokens.len();
        scratch.stats = BatchStepStats::default();
        scratch.groups.clear();
        if n == 0 {
            return Ok(Vec::new());
        }
        if positions.len() != n {
            return Err(ModelError::LengthMismatch {
                tokens: n,
                positions: positions.len(),
            });
        }
        if caches.len() != n {
            return Err(ModelError::CacheShapeMismatch {
                detail: format!("{} caches for a batch of {} sequences", caches.len(), n),
            });
        }
        for i in 0..n {
            self.validate(&tokens[i..i + 1], &positions[i..i + 1], &*caches[i])?;
        }
        let cfg = &self.cfg;
        let d = cfg.hidden_size;
        let kv_dim = cfg.kv_dim();
        let hd = cfg.head_dim();
        let ff = cfg.intermediate_size;
        let par = &cfg.parallelism;

        // Token embeddings (+ learned positions for GPT-2-style models),
        // one row per sequence.
        let x = sized(&mut scratch.x, n * d);
        for (i, &t) in tokens.iter().enumerate() {
            let row = &self.weights.embedding.data()[t as usize * d..(t as usize + 1) * d];
            x[i * d..(i + 1) * d].copy_from_slice(row);
        }
        if let Some(pe) = &self.weights.pos_embedding {
            for (i, &p) in positions.iter().enumerate() {
                let row = &pe.data()[p * d..(p + 1) * d];
                ops::add_assign_slice(&mut x[i * d..(i + 1) * d], row);
            }
        }
        for (i, cache) in caches.iter_mut().enumerate() {
            cache.push_position(positions[i]);
        }

        // Prefix grouping happens once per tick, not per layer: shared
        // segments are immutable while the tick runs (every row pushed
        // above and below lands in a private tail), so the grouping —
        // pure pointer identity — holds for all layers.
        group_adjacent_prefixes(n, |s, i| caches[s].shared_segment_id(i), &mut scratch.groups);
        let layers = self.weights.layers.len() as u64;
        let mut shared_rows = 0u64;
        let mut private_rows = 0u64;
        for g in &scratch.groups {
            let members = caches[g.start..g.start + g.len].iter();
            if g.is_shared() {
                // Once per tile of up to `LANES` members.
                shared_rows += (g.prefix_rows * g.len.div_ceil(LANES)) as u64;
                for c in members {
                    private_rows += (c.len() - g.prefix_rows) as u64;
                }
            } else {
                private_rows += members.map(|c| c.len() as u64).sum::<u64>();
            }
        }
        scratch.stats = BatchStepStats {
            shared_rows_read: shared_rows * layers,
            private_rows_read: private_rows * layers,
        };

        let normed = sized(&mut scratch.normed, n * d);
        let q = sized(&mut scratch.q, n * d);
        let k = sized(&mut scratch.k, n * kv_dim);
        let v = sized(&mut scratch.v, n * kv_dim);
        let attn = sized(&mut scratch.attn, n * d);
        let proj = sized(&mut scratch.proj, n * d);
        let up = sized(&mut scratch.up, n * ff);
        let gate = sized(&mut scratch.gate, n * ff);
        let down = sized(&mut scratch.down, n * d);

        // Sampled like a forward pass: the server's decode ticks run here.
        let mut timing = LayerTiming::new(&self.telemetry);

        for (layer_idx, lw) in self.weights.layers.iter().enumerate() {
            // --- attention path ---
            let attn_start = timing.start();
            normed.copy_from_slice(x);
            self.apply_norm(normed, &lw.norm1_w, &lw.norm1_b);

            ops::matmul_transb_slices_par(normed, lw.wq.data(), q, n, d, d, par);
            ops::matmul_transb_slices_par(normed, lw.wk.data(), k, n, d, kv_dim, par);
            ops::matmul_transb_slices_par(normed, lw.wv.data(), v, n, d, kv_dim, par);

            if let Some(rope) = &self.rope {
                for i in 0..n {
                    let pos = positions[i];
                    for h in 0..cfg.num_heads {
                        rope.apply(&mut q[i * d + h * hd..i * d + (h + 1) * hd], pos);
                    }
                    for h in 0..cfg.num_kv_heads {
                        rope.apply(&mut k[i * kv_dim + h * hd..i * kv_dim + (h + 1) * hd], pos);
                    }
                }
            }

            for (i, cache) in caches.iter_mut().enumerate() {
                cache.push_token_layer(
                    layer_idx,
                    &k[i * kv_dim..(i + 1) * kv_dim],
                    &v[i * kv_dim..(i + 1) * kv_dim],
                );
            }

            // Each sequence's cache is read as physical segments in place
            // (module blocks shared between batch members are never
            // copied), gathered into one pooled CSR list: sequence `s`
            // owns `segs[seg_bounds[s]..seg_bounds[s + 1]]`. The pools
            // recycle the allocations across layers and ticks.
            let mut segs = scratch.seg_pool.take();
            let mut key_pos = scratch.pos_pool.take();
            scratch.seg_bounds.clear();
            for cache in caches.iter() {
                scratch.seg_bounds.push(segs.len());
                cache.layer_segments_into(layer_idx, &mut segs);
                key_pos.push(cache.positions());
            }
            scratch.seg_bounds.push(segs.len());
            attention_decode_batch_grouped(
                cfg,
                q,
                positions,
                &segs,
                &scratch.seg_bounds,
                &key_pos,
                &scratch.groups,
                self.rope.as_ref(),
                self.alibi.as_ref(),
                &mut scratch.attn_scratch,
                attn,
            );
            scratch.seg_pool.put(segs);
            scratch.pos_pool.put(key_pos);
            ops::matmul_transb_slices_par(attn, lw.wo.data(), proj, n, d, d, par);
            LayerTiming::lap(&mut timing.attention, attn_start);

            let mlp_start = timing.start();
            if matches!(cfg.family, Family::Falcon) {
                self.mlp(lw, normed, up, gate, down, n);
                ops::add_assign_slice(x, proj);
                ops::add_assign_slice(x, down);
            } else {
                ops::add_assign_slice(x, proj);
                normed.copy_from_slice(x);
                self.apply_norm(normed, &lw.norm2_w, &lw.norm2_b);
                self.mlp(lw, normed, up, gate, down, n);
                ops::add_assign_slice(x, down);
            }
            LayerTiming::lap(&mut timing.mlp, mlp_start);
        }
        timing.record(&self.telemetry);

        self.apply_norm(x, &self.weights.final_norm_w, &self.weights.final_norm_b);

        // Logits for every sequence in one pass over the embedding matrix.
        let vocab = cfg.vocab_size;
        let logits = sized(&mut scratch.logits, n * vocab);
        ops::matmul_transb_slices_par(x, self.weights.embedding.data(), logits, n, d, vocab, par);
        Ok(logits.chunks_exact(vocab).map(<[f32]>::to_vec).collect())
    }

    /// The shared transformer body. Returns final-norm hidden states,
    /// `[tokens × hidden]` flattened.
    fn run_hidden<K: KvSeq>(
        &self,
        tokens: &[TokenId],
        positions: &[usize],
        cache: &mut K,
    ) -> Result<Vec<f32>> {
        self.validate(tokens, positions, cache)?;
        let cfg = &self.cfg;
        let n = tokens.len();
        let d = cfg.hidden_size;
        let kv_dim = cfg.kv_dim();
        let hd = cfg.head_dim();
        let ff = cfg.intermediate_size;
        let par = &cfg.parallelism;
        let base = cache.len();

        // Token embeddings (+ learned positions for GPT-2-style models).
        let mut x = vec![0.0f32; n * d];
        for (i, &t) in tokens.iter().enumerate() {
            let row = &self.weights.embedding.data()[t as usize * d..(t as usize + 1) * d];
            x[i * d..(i + 1) * d].copy_from_slice(row);
        }
        if let Some(pe) = &self.weights.pos_embedding {
            for (i, &p) in positions.iter().enumerate() {
                let row = &pe.data()[p * d..(p + 1) * d];
                ops::add_assign_slice(&mut x[i * d..(i + 1) * d], row);
            }
        }

        for &p in positions {
            cache.push_position(p);
        }

        // Reusable scratch buffers.
        let mut normed = vec![0.0f32; n * d];
        let mut q = vec![0.0f32; n * d];
        let mut k = vec![0.0f32; n * kv_dim];
        let mut v = vec![0.0f32; n * kv_dim];
        let mut attn = vec![0.0f32; n * d];
        let mut proj = vec![0.0f32; n * d];
        let mut up = vec![0.0f32; n * ff];
        let mut gate = vec![0.0f32; n * ff];
        let mut down = vec![0.0f32; n * d];
        // One segment list and one attention scratch serve every layer.
        let mut seg_pool = SegListPool::default();
        let mut attn_scratch = AttnScratch::default();

        // Timing is sampled: most passes skip every clock read below.
        let mut timing = LayerTiming::new(&self.telemetry);

        for (layer_idx, lw) in self.weights.layers.iter().enumerate() {
            // --- attention path ---
            let attn_start = timing.start();
            normed.copy_from_slice(&x);
            self.apply_norm(&mut normed, &lw.norm1_w, &lw.norm1_b);

            ops::matmul_transb_slices_par(&normed, lw.wq.data(), &mut q, n, d, d, par);
            ops::matmul_transb_slices_par(&normed, lw.wk.data(), &mut k, n, d, kv_dim, par);
            ops::matmul_transb_slices_par(&normed, lw.wv.data(), &mut v, n, d, kv_dim, par);

            if let Some(rope) = &self.rope {
                for i in 0..n {
                    let pos = positions[i];
                    for h in 0..cfg.num_heads {
                        rope.apply(&mut q[i * d + h * hd..i * d + (h + 1) * hd], pos);
                    }
                    for h in 0..cfg.num_kv_heads {
                        rope.apply(&mut k[i * kv_dim + h * hd..i * kv_dim + (h + 1) * hd], pos);
                    }
                }
            }

            for i in 0..n {
                cache.push_token_layer(
                    layer_idx,
                    &k[i * kv_dim..(i + 1) * kv_dim],
                    &v[i * kv_dim..(i + 1) * kv_dim],
                );
            }

            // The kernel reads the cache as physical segments in place —
            // shared module blocks in a `KvView` are never copied here.
            let mut kv_segments = seg_pool.take();
            cache.layer_segments_into(layer_idx, &mut kv_segments);
            attention_chunk_segments_with(
                cfg,
                &q,
                positions,
                &kv_segments,
                cache.positions(),
                base,
                self.rope.as_ref(),
                self.alibi.as_ref(),
                &mut attn_scratch,
                &mut attn,
            );
            seg_pool.put(kv_segments);
            ops::matmul_transb_slices_par(&attn, lw.wo.data(), &mut proj, n, d, d, par);
            LayerTiming::lap(&mut timing.attention, attn_start);

            if matches!(cfg.family, Family::Falcon) {
                // Parallel block: MLP reads the same normed input; both
                // paths add to the residual stream together.
                let mlp_start = timing.start();
                self.mlp(lw, &normed, &mut up, &mut gate, &mut down, n);
                LayerTiming::lap(&mut timing.mlp, mlp_start);
                ops::add_assign_slice(&mut x, &proj);
                ops::add_assign_slice(&mut x, &down);
            } else {
                ops::add_assign_slice(&mut x, &proj);
                let mlp_start = timing.start();
                normed.copy_from_slice(&x);
                self.apply_norm(&mut normed, &lw.norm2_w, &lw.norm2_b);
                self.mlp(lw, &normed, &mut up, &mut gate, &mut down, n);
                LayerTiming::lap(&mut timing.mlp, mlp_start);
                ops::add_assign_slice(&mut x, &down);
            }
        }

        timing.record(&self.telemetry);

        self.apply_norm(&mut x, &self.weights.final_norm_w, &self.weights.final_norm_b);
        Ok(x)
    }

    fn apply_norm(&self, x: &mut [f32], w: &Tensor, b: &Tensor) {
        let d = self.cfg.hidden_size;
        for row in x.chunks_exact_mut(d) {
            if matches!(self.cfg.family, Family::Llama) {
                ops::rms_norm_slice(row, w.data(), self.cfg.norm_eps);
            } else {
                ops::layer_norm_slice(row, w.data(), b.data(), self.cfg.norm_eps);
            }
        }
    }

    fn mlp(
        &self,
        lw: &crate::LayerWeights,
        input: &[f32],
        up: &mut [f32],
        gate: &mut [f32],
        down: &mut [f32],
        n: usize,
    ) {
        let d = self.cfg.hidden_size;
        let ff = self.cfg.intermediate_size;
        let par = &self.cfg.parallelism;
        ops::matmul_transb_slices_par(input, lw.w_up.data(), up, n, d, ff, par);
        if matches!(self.cfg.family, Family::Llama) {
            ops::matmul_transb_slices_par(input, lw.w_gate.data(), gate, n, d, ff, par);
            ops::silu_slice(gate);
            for (u, &g) in up.iter_mut().zip(gate.iter()) {
                *u *= g;
            }
        } else {
            ops::gelu_slice(up);
        }
        ops::matmul_transb_slices_par(up, lw.w_down.data(), down, n, ff, d, par);
    }

    fn validate<K: KvSeq>(&self, tokens: &[TokenId], positions: &[usize], cache: &K) -> Result<()> {
        if tokens.len() != positions.len() {
            return Err(ModelError::LengthMismatch {
                tokens: tokens.len(),
                positions: positions.len(),
            });
        }
        for &t in tokens {
            if t as usize >= self.cfg.vocab_size {
                return Err(ModelError::TokenOutOfVocab {
                    token: t,
                    vocab_size: self.cfg.vocab_size,
                });
            }
        }
        for &p in positions {
            if p >= self.cfg.max_position {
                return Err(ModelError::PositionOutOfRange {
                    position: p,
                    max_position: self.cfg.max_position,
                });
            }
        }
        if cache.num_layers() != self.cfg.num_layers || cache.kv_dim() != self.cfg.kv_dim() {
            return Err(ModelError::CacheShapeMismatch {
                detail: format!(
                    "cache {} layers × kv_dim {}, model {} layers × kv_dim {}",
                    cache.num_layers(),
                    cache.kv_dim(),
                    self.cfg.num_layers,
                    self.cfg.kv_dim()
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GreedySampler;

    fn all_families() -> Vec<ModelConfig> {
        vec![
            ModelConfig::llama_tiny(64),
            ModelConfig::falcon_tiny(64),
            ModelConfig::mpt_tiny(64),
            ModelConfig::gpt2_tiny(64),
        ]
    }

    #[test]
    fn forward_shapes() {
        for cfg in all_families() {
            let model = Model::new(cfg, 1);
            let mut cache = KvCache::new(model.config());
            let logits = model.forward(&[1, 2, 3], &[0, 1, 2], &mut cache).unwrap();
            assert_eq!(logits.dims(), &[3, 64]);
            assert_eq!(cache.len(), 3);
            assert!(logits.all_finite());
        }
    }

    #[test]
    fn chunked_prefill_matches_single_chunk() {
        // The KV-cache identity: prefilling [a,b,c,d] in one chunk equals
        // prefilling [a,b] then [c,d] with the cache carried over.
        for cfg in all_families() {
            let model = Model::new(cfg.clone(), 7);
            let tokens = [5u32, 9, 13, 21];
            let positions = [0usize, 1, 2, 3];

            let mut full_cache = KvCache::new(&cfg);
            let full = model.forward(&tokens, &positions, &mut full_cache).unwrap();

            let mut inc_cache = KvCache::new(&cfg);
            model
                .forward(&tokens[..2], &positions[..2], &mut inc_cache)
                .unwrap();
            let part = model
                .forward(&tokens[2..], &positions[2..], &mut inc_cache)
                .unwrap();

            let full_last = full.row(3).unwrap();
            let part_last = part.row(1).unwrap();
            for (a, b) in full_last.iter().zip(part_last) {
                assert!((a - b).abs() < 1e-3, "family {:?}", cfg.family);
            }
            assert_eq!(full_cache.len(), inc_cache.len());
        }
    }

    #[test]
    fn token_by_token_matches_prefill() {
        for cfg in all_families() {
            let model = Model::new(cfg.clone(), 3);
            let tokens = [2u32, 4, 8];
            let mut a = KvCache::new(&cfg);
            let full = model.forward(&tokens, &[0, 1, 2], &mut a).unwrap();
            let mut b = KvCache::new(&cfg);
            let mut last = Vec::new();
            for (i, &t) in tokens.iter().enumerate() {
                last = model.prefill(&[t], &[i], &mut b).unwrap();
            }
            for (x, y) in full.row(2).unwrap().iter().zip(&last) {
                assert!((x - y).abs() < 1e-3, "family {:?}", cfg.family);
            }
        }
    }

    #[test]
    fn prefill_last_logits_match_forward() {
        let cfg = ModelConfig::llama_tiny(64);
        let model = Model::new(cfg.clone(), 11);
        let mut a = KvCache::new(&cfg);
        let full = model.forward(&[1, 2, 3], &[0, 1, 2], &mut a).unwrap();
        let mut b = KvCache::new(&cfg);
        let last = model.prefill(&[1, 2, 3], &[0, 1, 2], &mut b).unwrap();
        assert_eq!(full.row(2).unwrap(), &last[..]);
    }

    #[test]
    fn rope_shift_invariance_of_next_token() {
        // Same token sequence encoded at positions 0..4 and 100..104 must
        // yield (nearly) identical next-token logits for relative schemes.
        for cfg in [ModelConfig::llama_tiny(64), ModelConfig::mpt_tiny(64)] {
            let model = Model::new(cfg.clone(), 5);
            let tokens = [3u32, 1, 4, 1];
            let mut a = KvCache::new(&cfg);
            let la = model.prefill(&tokens, &[0, 1, 2, 3], &mut a).unwrap();
            let mut b = KvCache::new(&cfg);
            let lb = model
                .prefill(&tokens, &[100, 101, 102, 103], &mut b)
                .unwrap();
            let max_diff = la
                .iter()
                .zip(&lb)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0f32, f32::max);
            assert!(max_diff < 1e-2, "family {:?}: {max_diff}", cfg.family);
        }
    }

    #[test]
    fn learned_positions_are_not_shift_invariant() {
        let cfg = ModelConfig::gpt2_tiny(64);
        let model = Model::new(cfg.clone(), 5);
        let tokens = [3u32, 1, 4, 1];
        let mut a = KvCache::new(&cfg);
        let la = model.prefill(&tokens, &[0, 1, 2, 3], &mut a).unwrap();
        let mut b = KvCache::new(&cfg);
        let lb = model
            .prefill(&tokens, &[100, 101, 102, 103], &mut b)
            .unwrap();
        let max_diff = la
            .iter()
            .zip(&lb)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(max_diff > 1e-3);
    }

    #[test]
    fn discontinuous_positions_accepted() {
        let cfg = ModelConfig::llama_tiny(64);
        let model = Model::new(cfg.clone(), 2);
        let mut cache = KvCache::new(&cfg);
        // Gap between 2 and 57 — the Prompt Cache layout.
        let logits = model
            .forward(&[1, 2, 3, 4], &[0, 1, 2, 57], &mut cache)
            .unwrap();
        assert!(logits.all_finite());
        assert_eq!(cache.positions(), &[0, 1, 2, 57]);
    }

    #[test]
    fn validation_errors() {
        let cfg = ModelConfig::llama_tiny(16);
        let model = Model::new(cfg.clone(), 0);
        let mut cache = KvCache::new(&cfg);
        assert!(matches!(
            model.forward(&[1, 2], &[0], &mut cache),
            Err(ModelError::LengthMismatch { .. })
        ));
        assert!(matches!(
            model.forward(&[99], &[0], &mut cache),
            Err(ModelError::TokenOutOfVocab { .. })
        ));
        assert!(matches!(
            model.forward(&[1], &[99_999], &mut cache),
            Err(ModelError::PositionOutOfRange { .. })
        ));
        let mut wrong = KvCache::with_shape(1, 4);
        assert!(matches!(
            model.forward(&[1], &[0], &mut wrong),
            Err(ModelError::CacheShapeMismatch { .. })
        ));
        assert!(matches!(
            model.prefill(&[], &[], &mut cache),
            Err(ModelError::EmptyInput)
        ));
    }

    #[test]
    fn generate_is_deterministic_and_bounded() {
        let cfg = ModelConfig::llama_tiny(64);
        let model = Model::new(cfg.clone(), 13);
        let run = || {
            let mut cache = KvCache::new(&cfg);
            let logits = model.prefill(&[7, 8, 9], &[0, 1, 2], &mut cache).unwrap();
            model
                .generate(&mut cache, &logits, 8, None, &mut GreedySampler)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert!(a.iter().all(|&t| (t as usize) < 64));
    }

    #[test]
    fn generate_stops_at_eos() {
        let cfg = ModelConfig::llama_tiny(64);
        let model = Model::new(cfg.clone(), 13);
        let mut cache = KvCache::new(&cfg);
        let logits = model.prefill(&[7, 8, 9], &[0, 1, 2], &mut cache).unwrap();
        // Use the first generated token itself as "eos": generation must
        // stop immediately after producing it.
        let first = model
            .generate(&mut cache.clone(), &logits, 1, None, &mut GreedySampler)
            .unwrap()[0];
        let out = model
            .generate(&mut cache, &logits, 8, Some(first), &mut GreedySampler)
            .unwrap();
        assert_eq!(out, vec![first]);
    }

    #[test]
    fn encode_segment_is_standalone() {
        let cfg = ModelConfig::llama_tiny(64);
        let model = Model::new(cfg.clone(), 1);
        let seg = model.encode_segment(&[1, 2, 3], &[10, 11, 12]).unwrap();
        assert_eq!(seg.len(), 3);
        assert_eq!(seg.positions(), &[10, 11, 12]);
        assert_eq!(seg.num_layers(), cfg.num_layers);
    }

    #[test]
    fn layer_timing_recorded_when_telemetry_enabled() {
        // A forward pass and a batched decode step — the server's ticks —
        // feed the same two histograms.
        for batched in [false, true] {
            let telemetry = Telemetry::new();
            let cfg = ModelConfig::llama_tiny(64);
            let model = Model::new(cfg.clone(), 1).with_telemetry(telemetry.clone());
            let mut cache = KvCache::new(&cfg);
            // The first pass is always sampled (`should_sample` fires on 0).
            if batched {
                model.decode_step_batch(&[1], &[0], &mut [&mut cache]).unwrap();
            } else {
                model.forward(&[1, 2, 3], &[0, 1, 2], &mut cache).unwrap();
            }
            let snap = telemetry.snapshot();
            let names: Vec<&str> = snap.histograms.iter().map(|h| h.name.as_str()).collect();
            assert!(names.contains(&"pc_model_attention_seconds"), "{names:?}");
            assert!(names.contains(&"pc_model_mlp_seconds"), "{names:?}");
            for h in &snap.histograms {
                assert_eq!(h.count, 1, "batched {batched}");
            }
        }
    }

    /// One batched step over `prompts`' sequences must produce exactly
    /// the logits and cache states solo single-token prefills produce.
    fn assert_batched_step_matches_solo(cfg: &ModelConfig, prompts: &[&[u32]]) {
        let model = Model::new(cfg.clone(), 17);

        // Solo reference: prefill each prompt, then one more token.
        let mut solo_caches = Vec::new();
        let mut next_tokens = Vec::new();
        for &prompt in prompts {
            let positions: Vec<usize> = (0..prompt.len()).collect();
            let mut cache = KvCache::new(cfg);
            let logits = model.prefill(prompt, &positions, &mut cache).unwrap();
            next_tokens.push(GreedySampler.sample(&logits));
            solo_caches.push(cache);
        }
        let mut batch_caches = solo_caches.clone();
        let positions: Vec<usize> = prompts.iter().map(|p| p.len()).collect();

        let mut solo_logits = Vec::new();
        for (i, cache) in solo_caches.iter_mut().enumerate() {
            let logits = model.prefill(&[next_tokens[i]], &[positions[i]], cache);
            solo_logits.push(logits.unwrap());
        }

        let mut refs: Vec<&mut KvCache> = batch_caches.iter_mut().collect();
        let batch_logits = model
            .decode_step_batch(&next_tokens, &positions, &mut refs)
            .unwrap();

        let case = format!("family {:?} batch {}", cfg.family, prompts.len());
        assert_eq!(batch_logits, solo_logits, "{case}");
        assert_eq!(batch_caches, solo_caches, "{case}");
    }

    #[test]
    fn batched_decode_step_matches_solo_prefill_bitwise() {
        // Different prompts, hence different cache lengths.
        for cfg in all_families() {
            assert_batched_step_matches_solo(&cfg, &[&[5, 9], &[13, 21, 2], &[7], &[3, 1, 4, 1]]);
        }
    }

    #[test]
    fn batched_decode_step_matches_solo_across_the_tile_edge() {
        // Batches of 1..=9 rows put every row in a full register tile, in
        // the one-row edge tile, or some of each; a solo step is always
        // the edge tile.
        let cfg = ModelConfig::llama_tiny(64);
        let prompts: Vec<Vec<u32>> = (0..9u32)
            .map(|s| (0..=s % 4).map(|t| (7 * s + 3 * t) % 64).collect())
            .collect();
        for batch in 1..=prompts.len() {
            let prompts: Vec<&[u32]> = prompts[..batch].iter().map(Vec::as_slice).collect();
            assert_batched_step_matches_solo(&cfg, &prompts);
        }
    }

    #[test]
    fn batched_decode_step_size_one_matches_solo() {
        let cfg = ModelConfig::llama_tiny(64);
        let model = Model::new(cfg.clone(), 23);
        let mut solo = KvCache::new(&cfg);
        model.prefill(&[7, 8], &[0, 1], &mut solo).unwrap();
        let mut batched = solo.clone();
        let expect = model.prefill(&[9], &[2], &mut solo).unwrap();
        let mut refs: Vec<&mut KvCache> = vec![&mut batched];
        let got = model.decode_step_batch(&[9], &[2], &mut refs).unwrap();
        assert_eq!(got, vec![expect]);
        assert_eq!(batched, solo);
    }

    #[test]
    fn batched_decode_step_validates_shapes() {
        let cfg = ModelConfig::llama_tiny(16);
        let model = Model::new(cfg.clone(), 0);
        let mut a = KvCache::new(&cfg);
        let mut b = KvCache::new(&cfg);
        let empty: Vec<Vec<f32>> = model
            .decode_step_batch::<KvCache>(&[], &[], &mut [])
            .unwrap();
        assert!(empty.is_empty());
        assert!(matches!(
            model.decode_step_batch(&[1, 2], &[0], &mut [&mut a, &mut b]),
            Err(ModelError::LengthMismatch { .. })
        ));
        assert!(matches!(
            model.decode_step_batch(&[1, 2], &[0, 0], &mut [&mut a]),
            Err(ModelError::CacheShapeMismatch { .. })
        ));
        assert!(matches!(
            model.decode_step_batch(&[99], &[0], &mut [&mut a]),
            Err(ModelError::TokenOutOfVocab { .. })
        ));
    }

    #[test]
    fn segment_encoding_matches_prefix_prefill() {
        // Encoding a segment at positions 0..n in a fresh cache is exactly
        // a prefill of the same tokens: byte-identical attention states.
        for cfg in all_families() {
            let model = Model::new(cfg.clone(), 21);
            let tokens = [4u32, 7, 2, 9];
            let positions = [0usize, 1, 2, 3];
            let seg = model.encode_segment(&tokens, &positions).unwrap();
            let mut cache = KvCache::new(&cfg);
            model.encode(&tokens, &positions, &mut cache).unwrap();
            assert_eq!(seg, cache, "family {:?}", cfg.family);
        }
    }
}
