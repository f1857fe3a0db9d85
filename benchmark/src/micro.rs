//! The layers below the engine, called directly at the shapes the ladder
//! observed: new-token count, context length, batch size, module size.
//! FLOPs and bytes are computed from the shapes, not measured.

use crate::bench::Context;
use crate::drive::Reply;
use crate::metrics::Metrics;
use crate::stats::median;
use crate::system::{model_config, ScratchDir, MAX_BATCH, MODEL_SEED};
use pc_cache::{DiskConfig, ModuleKey, ModuleStore, StoreConfig, Tier};
use pc_model::{flops, KvCache, Model, ModelConfig};
use pc_tensor::ops::{axpy_seq, dot_rotated, dot_seq, matmul_transb_slices};
use pc_tokenizer::Tokenizer;
use prompt_cache::{EngineConfig, PromptCache};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// What the core rung's responses say a request of this workload looks like.
#[derive(Debug, Clone)]
pub struct Shapes {
    /// Prompt tokens computed per request.
    pub new_tokens: usize,
    /// Prompt tokens reused from the cache per request.
    pub cached_tokens: usize,
    /// Tokens generated per request.
    pub output_tokens: usize,
    /// Sequences decoding together.
    pub batch: usize,
    /// Tokens of one cached module.
    pub module_tokens: usize,
}

impl Shapes {
    pub fn observe(ctx: &Context<'_>, replies: &[&Reply], occupancy: f64) -> Shapes {
        let mid = |f: fn(&Reply) -> usize| {
            median(&replies.iter().map(|r| f(r) as f64).collect::<Vec<_>>()) as usize
        };
        // Modules per schema follows from the generated PML.
        let schema = &ctx.plan.schemas[0];
        let modules = schema.pml.matches("<module ").count().max(1);
        Shapes {
            new_tokens: mid(|r| r.new_tokens).max(1),
            cached_tokens: mid(|r| r.cached_tokens),
            output_tokens: mid(|r| r.tokens.len()).max(1),
            batch: (occupancy.round() as usize).clamp(1, MAX_BATCH),
            module_tokens: (schema.tokens / modules).max(1),
        }
    }

    fn context(&self) -> usize {
        self.cached_tokens + self.new_tokens
    }
}

/// Runs `f` on a fresh `prepare()` until `budget_ms` is spent (at least `min`
/// times) and returns the median seconds per call of `f`; preparing and
/// dropping the state are not timed.
fn time_median_with<S>(
    budget_ms: f64,
    min: usize,
    mut prepare: impl FnMut() -> S,
    mut f: impl FnMut(&mut S),
) -> f64 {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < min || started.elapsed().as_secs_f64() * 1e3 < budget_ms {
        let mut state = prepare();
        let t = Instant::now();
        f(&mut state);
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

fn time_median(budget_ms: f64, min: usize, mut f: impl FnMut()) -> f64 {
    time_median_with(budget_ms, min, || (), |_| f())
}

fn pattern(len: usize, salt: u32) -> Vec<f32> {
    (0..len)
        .map(|i| {
            ((i as u32).wrapping_mul(2_654_435_761).wrapping_add(salt) >> 8) as f32 / 16_777_216.0
                - 0.5
        })
        .collect()
}

pub fn replay(ctx: &Context<'_>, shapes: &Shapes, m: &mut Metrics) {
    // Budgets per measurement; the quick pass only proves the code runs.
    let budget_ms = (ctx.seconds * 12.0).min(250.0);
    let tokenizer = ctx.lexicon.train_tokenizer();
    let cfg = model_config(tokenizer.vocab_size());
    println!(" layer replay at {shapes:?}");

    tokenizer_and_pml(ctx, &tokenizer, budget_ms, m);
    tensor(&cfg, shapes, budget_ms, m);
    let model = Model::new(cfg.clone(), MODEL_SEED);
    // Real token ids, as many as the longest sequence needs.
    let text: String = ctx
        .plan
        .prompts
        .iter()
        .map(|p| p.uncached_text.as_str())
        .collect::<Vec<_>>()
        .join(" ");
    let mut ids = tokenizer.encode(&text);
    while ids.len() < shapes.context().max(shapes.module_tokens) + 1 {
        ids.extend_from_within(..);
    }
    model_layer(&model, &cfg, &ids, shapes, budget_ms, m);
    cache_layer(model, tokenizer, &ids, shapes, budget_ms, m);
}

fn tokenizer_and_pml(
    ctx: &Context<'_>,
    tokenizer: &impl Tokenizer,
    budget_ms: f64,
    m: &mut Metrics,
) {
    let prompts = &ctx.plan.prompts;
    let mut next = 0usize;
    let mut tokens = 0usize;
    let started = Instant::now();
    let per_call = time_median(budget_ms, 8, || {
        tokens += black_box(tokenizer.encode(&prompts[next % prompts.len()].uncached_text)).len();
        next += 1;
    });
    let total = started.elapsed().as_secs_f64();
    m.set("tokenizer.encode_us_per_req", per_call * 1e6);
    m.set("tokenizer.tokens_per_s", tokens as f64 / total);

    let mut next = 0usize;
    let parse_prompt = time_median(budget_ms / 4.0, 8, || {
        black_box(
            pc_pml::parse_prompt(&prompts[next % prompts.len()].pml)
                .expect("generated prompt parses"),
        );
        next += 1;
    });
    m.set("pml.parse_prompt_us", parse_prompt * 1e6);
    let schemas = &ctx.plan.schemas;
    let mut next = 0usize;
    let parse_schema = time_median(budget_ms / 4.0, 8, || {
        black_box(
            pc_pml::parse_schema(&schemas[next % schemas.len()].pml)
                .expect("generated schema parses"),
        );
        next += 1;
    });
    m.set("pml.parse_schema_us", parse_schema * 1e6);
}

/// One layer's seven weight matrices as `(k, n)`: q, k, v, o, gate, up, down.
fn layer_matrices(cfg: &ModelConfig) -> [(usize, usize); 7] {
    let (d, kv, ff) = (cfg.hidden_size, cfg.kv_dim(), cfg.intermediate_size);
    [(d, d), (d, kv), (d, kv), (d, d), (d, ff), (d, ff), (ff, d)]
}

/// Seconds for one layer's matmuls at `rows` activation rows, and the
/// FLOPs those shapes imply.
fn layer_matmul(cfg: &ModelConfig, rows: usize, budget_ms: f64) -> (f64, f64) {
    let shapes = layer_matrices(cfg);
    let weights: Vec<Vec<f32>> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(k, n))| pattern(k * n, i as u32))
        .collect();
    let widest_in = shapes.iter().map(|s| s.0).max().unwrap_or(1);
    let widest_out = shapes.iter().map(|s| s.1).max().unwrap_or(1);
    let a = pattern(rows * widest_in, 99);
    let mut c = vec![0.0f32; rows * widest_out];
    let seconds = time_median(budget_ms, 5, || {
        for (&(k, n), w) in shapes.iter().zip(&weights) {
            matmul_transb_slices(&a[..rows * k], w, &mut c[..rows * n], rows, k, n);
        }
        black_box(&mut c);
    });
    let flop: f64 = shapes
        .iter()
        .map(|&(k, n)| 2.0 * (rows * k * n) as f64)
        .sum();
    (seconds, flop)
}

fn tensor(cfg: &ModelConfig, shapes: &Shapes, budget_ms: f64, m: &mut Metrics) {
    let (t_prefill, f_prefill) = layer_matmul(cfg, shapes.new_tokens, budget_ms);
    let (t1, f1) = layer_matmul(cfg, 1, budget_ms / 2.0);
    let (t8, f8) = layer_matmul(cfg, MAX_BATCH, budget_ms / 2.0);
    m.set("tensor.matmul_prefill_gflops", f_prefill / t_prefill / 1e9);
    m.set("tensor.matmul_m1_gflops", f1 / t1 / 1e9);
    m.set("tensor.matmul_m8_gflops", f8 / t8 / 1e9);
    // 1 = the weights are streamed once for the whole batch; 8 = each row
    // pays for them again.
    m.set("tensor.matmul_m8_over_m1", t8 / t1);

    // Attention's inner loops: one query head against every context row.
    let hd = cfg.head_dim();
    let rows = shapes.context().max(8);
    let keys = pattern(rows * hd, 1);
    let q = pattern(hd, 2);
    let bytes = (rows * hd * 4) as f64;
    let t_dot = time_median(budget_ms / 2.0, 16, || {
        let mut acc = 0.0f32;
        for row in keys.chunks_exact(hd) {
            acc += dot_seq(&q, row);
        }
        black_box(acc);
    });
    m.set("tensor.dot_seq_gbps", bytes / t_dot / 1e9);
    let mut out = vec![0.0f32; hd];
    let t_axpy = time_median(budget_ms / 2.0, 16, || {
        for (i, row) in keys.chunks_exact(hd).enumerate() {
            axpy_seq(&mut out, 1.0 / (i + 1) as f32, row);
        }
        black_box(&mut out);
    });
    m.set("tensor.axpy_seq_gbps", bytes / t_axpy / 1e9);
    let (cos, sin) = (pattern(hd / 2, 3), pattern(hd / 2, 4));
    let t_rot = time_median(budget_ms / 2.0, 16, || {
        let mut acc = 0.0f32;
        for row in keys.chunks_exact(hd) {
            acc += dot_rotated(&q, row, &cos, &sin, 1.0);
        }
        black_box(acc);
    });
    m.set("tensor.dot_rotated_gbps", bytes / t_rot / 1e9);

    // Machine reference: a plain copy far larger than any cache level.
    let src = pattern(8 << 20, 5);
    let mut dst = vec![0.0f32; src.len()];
    let t_copy = time_median(budget_ms / 2.0, 3, || {
        dst.copy_from_slice(&src);
        black_box(&mut dst);
    });
    m.set("tensor.memcpy_gbps", (src.len() * 4) as f64 / t_copy / 1e9);
}

fn positions(from: usize, len: usize) -> Vec<usize> {
    (from..from + len).collect()
}

fn model_layer(
    model: &Model,
    cfg: &ModelConfig,
    ids: &[u32],
    shapes: &Shapes,
    budget_ms: f64,
    m: &mut Metrics,
) {
    let n = shapes.context();
    // The whole prompt from nothing: what a bypass pays.
    let t_full = time_median(budget_ms, 3, || {
        let mut cache = KvCache::new(cfg);
        black_box(
            model
                .prefill(&ids[..n], &positions(0, n), &mut cache)
                .expect("prefill"),
        );
    });
    m.set("model.prefill_ms", t_full * 1e3);
    m.set("model.prefill_tokens_per_s", n as f64 / t_full);

    // Only the new tokens, over a context that is already there: what a hit
    // pays. Cloning the context is outside the timed call.
    let cached = shapes.cached_tokens;
    let context = if cached > 0 {
        model
            .encode_segment(&ids[..cached], &positions(0, cached))
            .expect("encode context")
    } else {
        KvCache::new(cfg)
    };
    let t_suffix = time_median_with(
        budget_ms,
        3,
        || context.clone(),
        |cache| {
            black_box(
                model
                    .prefill(&ids[cached..n], &positions(cached, n - cached), cache)
                    .expect("prefill"),
            );
        },
    );
    m.set("model.prefill_suffix_ms", t_suffix * 1e3);

    // One decode step for 1 and for 8 sequences at the full context.
    let full = model
        .encode_segment(&ids[..n], &positions(0, n))
        .expect("encode context");
    let step = |batch: usize| -> f64 {
        time_median_with(
            budget_ms / 2.0,
            3,
            || vec![full.clone(); batch],
            |caches| {
                let mut refs: Vec<&mut KvCache> = caches.iter_mut().collect();
                black_box(
                    model
                        .decode_step_batch(&ids[..batch], &vec![n; batch], &mut refs)
                        .expect("decode step"),
                );
            },
        )
    };
    let (b1, b8) = (step(1), step(MAX_BATCH));
    m.set("model.decode_step_ms_b1", b1 * 1e3);
    m.set("model.decode_step_ms_b8", b8 * 1e3);
    m.set("model.decode_b8_over_b1", b8 / b1);

    let module = shapes.module_tokens;
    let t_encode = time_median(budget_ms, 3, || {
        black_box(
            model
                .encode_segment(&ids[..module], &positions(0, module))
                .expect("encode module"),
        );
    });
    m.set(
        "model.encode_segment_ms_per_ktok",
        t_encode * 1e3 / module as f64 * 1e3,
    );

    let decode: u64 = (0..shapes.output_tokens.saturating_sub(1))
        .map(|i| flops::model_decode_flops(cfg, n + i))
        .sum();
    m.set(
        "model.flops_per_req",
        (flops::cached_prefill_flops(cfg, n, cached) + decode) as f64,
    );
}

fn module_key(i: usize) -> ModuleKey {
    ModuleKey {
        schema: "layer-replay".to_owned(),
        path: vec![format!("m{i}")],
    }
}

fn cache_layer(
    model: Model,
    tokenizer: impl Tokenizer + Clone + Send + Sync + 'static,
    ids: &[u32],
    shapes: &Shapes,
    budget_ms: f64,
    m: &mut Metrics,
) {
    let module = shapes.module_tokens;
    let states = model
        .encode_segment(&ids[..module], &positions(0, module))
        .expect("encode module");
    let mb = states.size_bytes() as f64 / 1e6;

    // An engine's store, all in memory.
    let engine = PromptCache::new(model.clone(), tokenizer.clone(), EngineConfig::default());
    let store: &ModuleStore = engine.store();
    let mut spare: Vec<KvCache> = (0..64).map(|_| states.clone()).collect();
    let mut inserted = 0usize;
    let mut insert_times = Vec::new();
    while let Some(copy) = spare.pop() {
        let t = Instant::now();
        store.insert(module_key(inserted), copy, 1.0);
        insert_times.push(t.elapsed().as_secs_f64());
        inserted += 1;
    }
    m.set("cache.insert_us_per_mb", median(&insert_times) * 1e6 / mb);

    let mut next = 0usize;
    let mut get = || {
        black_box(
            store
                .get(&module_key(next % inserted), Tier::Host)
                .expect("resident module"),
        );
        next += 1;
    };
    let alone = time_median(budget_ms / 2.0, 64, &mut get);
    m.set("cache.get_hit_us", alone * 1e6);
    // The same lookups while a second thread does nothing but lookups: the
    // cost of the store's one lock under contention.
    let stop = AtomicBool::new(false);
    let contended = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                black_box(store.get(&module_key(i % inserted), Tier::Host));
                i += 1;
            }
        });
        let t = time_median(budget_ms / 2.0, 64, &mut get);
        stop.store(true, Ordering::Relaxed);
        t
    });
    m.set("cache.get_hit_us_contended", contended * 1e6);
    let stats = store.stats();
    assert!(
        stats.hits > 0 && stats.misses == 0,
        "layer replay lookups all hit"
    );
    drop(engine);

    // A store with room for one module in memory and a disk tier below:
    // alternating lookups of two modules make every one a promotion from
    // disk (and a demotion of the other).
    let scratch = ScratchDir::new("promote");
    let config = StoreConfig::default()
        .host_capacity_bytes(states.size_bytes() * 3 / 2)
        .disk(DiskConfig::new(scratch.path()));
    let engine = PromptCache::new(model, tokenizer, EngineConfig::default().store(config));
    let store = engine.store();
    store.insert(module_key(0), states.clone(), 1.0);
    store.insert(module_key(1), states, 1.0);
    let mut next = 0usize;
    let promote = time_median(budget_ms / 2.0, 8, || {
        black_box(
            store
                .get(&module_key(next % 2), Tier::Host)
                .expect("module on disk"),
        );
        next += 1;
    });
    m.set("cache.get_disk_promote_ms", promote * 1e3);
    assert!(
        store.stats().promotions > 0,
        "alternating lookups promote from disk"
    );
    drop(engine);
    drop(scratch);
}
