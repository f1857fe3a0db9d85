//! The Prompt Cache engine: schema registration, cached inference, and the
//! baseline KV-cache path.

use crate::cancel::CancelToken;
use crate::render::{render_plain, span_tokens, uncached_chunk, SpanTokens, UncachedChunk};
use crate::request::{ServeRequest, Served};
use crate::response::{Response, ServeOutcome, ServeStats, Timings, TtftBreakdown};
use crate::scaffold::Scaffold;
use crate::{EngineError, Result};
use parking_lot::RwLock;
use pc_cache::{FetchFaultInjector, ModuleKey, ModuleStore, StoreConfig, StoreStats, Tier};
use pc_model::{
    is_shift_invariant, GreedySampler, KvCache, KvSeq, KvView, Model, Sampler, TemperatureSampler,
    TokenId,
};
use pc_pml::layout::{ModulePath, SchemaLayout};
use pc_pml::resolve::{resolve_prompt, resolve_prompt_packed, ResolvedPart, ResolvedPrompt};
use pc_pml::template::ChatTemplate;
use pc_pml::{parse_prompt, parse_schema, Schema};
use pc_telemetry::Telemetry;
use pc_tensor::par::run_tasks;
use pc_tensor::Parallelism;
use pc_tokenizer::{SpecialToken, Tokenizer};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine configuration.
///
/// Construct with [`EngineConfig::default`] and chain setters — the
/// struct is `#[non_exhaustive]`, so new knobs are non-breaking:
///
/// ```
/// use prompt_cache::EngineConfig;
/// let config = EngineConfig::default().degrade_on_miss(false);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct EngineConfig {
    /// Module-store configuration (host-tier bound, eviction policy,
    /// optional disk tier).
    pub store: StoreConfig,
    /// Chat template for `<system>/<user>/<assistant>` tags.
    pub template: ChatTemplate,
    /// Thread count for concurrent module encoding at registration (each
    /// owner module is an independent encode, so they fan out across the
    /// shared pool). Defaults to [`Parallelism::from_env`], which honours
    /// the `PC_THREADS` environment variable. Stored span states are
    /// byte-identical at any thread count.
    pub parallelism: Parallelism,
    /// Telemetry collector threaded through the engine, module store, and
    /// model: serve phases become spans, cache activity becomes
    /// `pc_cache_*` counters/gauges, sampled forward passes record
    /// per-layer attention/MLP histograms. Defaults to
    /// [`Telemetry::disabled`], where every recording call is a single
    /// branch — serve results are identical with telemetry on or off.
    pub telemetry: Telemetry,
    /// When a cached span is missing at serve time (evicted, never
    /// persisted, or dropped by checksum verification), **recompute it
    /// from its tokens** instead of failing the request. The recompute
    /// re-encodes the span's whole owner module exactly as registration
    /// did, so the degraded serve's output is byte-identical to the
    /// healthy path; the fresh states are re-inserted (self-healing) and
    /// the serve is counted in `pc_degraded_serves_total`. Disable to get
    /// the old hard-error ([`EngineError::MissingModuleStates`]) instead.
    pub degrade_on_miss: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            store: StoreConfig::default(),
            template: ChatTemplate::default(),
            parallelism: Parallelism::default(),
            telemetry: Telemetry::disabled(),
            degrade_on_miss: true,
        }
    }
}

impl EngineConfig {
    /// Sets the module-store configuration.
    #[must_use]
    pub fn store(mut self, store: StoreConfig) -> Self {
        self.store = store;
        self
    }

    /// Sets the chat template.
    #[must_use]
    pub fn template(mut self, template: ChatTemplate) -> Self {
        self.template = template;
        self
    }

    /// Sets the parallelism configuration.
    #[must_use]
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Attaches a telemetry collector.
    #[must_use]
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Enables or disables graceful degradation on missing module states.
    #[must_use]
    pub fn degrade_on_miss(mut self, on: bool) -> Self {
        self.degrade_on_miss = on;
        self
    }
}

/// Per-call serving options.
///
/// Construct with [`ServeOptions::default`] and chain setters — the
/// struct is `#[non_exhaustive]`, so new knobs are non-breaking:
///
/// ```
/// use prompt_cache::ServeOptions;
/// let options = ServeOptions::default().max_new_tokens(8).use_scaffolds(false);
/// ```
///
/// Most callers never touch `ServeOptions` directly: the
/// [`crate::ServeRequest`] builder exposes the same setters and carries
/// the options into [`PromptCache::serve`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServeOptions {
    /// Maximum tokens to generate.
    pub max_new_tokens: usize,
    /// Honour registered scaffolds (§3.3) when all members are imported.
    pub use_scaffolds: bool,
    /// Sampling temperature; `None` selects deterministic greedy decoding
    /// (the paper's accuracy-evaluation setting).
    pub temperature: Option<(f32, u64)>,
    /// Serve-time budget. When set, the engine stops cooperatively once
    /// the budget elapses — measured from serve entry when calling the
    /// engine directly, or from **submission** when going through
    /// `pc-server` (which converts it to an absolute deadline so queue
    /// wait counts against it). The partial output is returned with
    /// [`ServeOutcome::DeadlineExceeded`]; a zero budget yields an empty
    /// response immediately.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation handle. Keep a clone and call
    /// [`CancelToken::cancel`] to abort mid-generation; the serve returns
    /// its partial output with [`ServeOutcome::Cancelled`] within one
    /// decode step. `None` means not cancellable.
    pub cancel: Option<CancelToken>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_new_tokens: 16,
            use_scaffolds: true,
            temperature: None,
            deadline: None,
            cancel: None,
        }
    }
}

impl ServeOptions {
    /// Sets the maximum number of tokens to generate.
    #[must_use]
    pub fn max_new_tokens(mut self, n: usize) -> Self {
        self.max_new_tokens = n;
        self
    }

    /// Enables or disables scaffold substitution (§3.3).
    #[must_use]
    pub fn use_scaffolds(mut self, on: bool) -> Self {
        self.use_scaffolds = on;
        self
    }

    /// Selects seeded temperature sampling instead of greedy decoding.
    #[must_use]
    pub fn temperature(mut self, temperature: f32, seed: u64) -> Self {
        self.temperature = Some((temperature, seed));
        self
    }

    /// Sets the serve-time budget.
    #[must_use]
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Attaches a cooperative cancellation handle.
    #[must_use]
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// Options for [`PromptCache::register_schema_with`].
///
/// The default (`warm = true`) is full registration: every prompt
/// module is encoded into the store at registration time (paper §3.3).
/// A *cold* registration (`warm = false`) records the schema layout and
/// span tokens but encodes nothing — serving then re-encodes missing
/// modules on demand through the degrade-on-miss path, byte-identically.
/// The sharded fleet uses cold registration on non-owner workers so
/// every worker can serve every schema while only owners pay the
/// encode + memory cost up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct RegisterOptions {
    /// Encode all modules at registration (`true`, the default) or
    /// register cold and rely on degrade-on-miss re-encode (`false`).
    pub warm: bool,
}

impl Default for RegisterOptions {
    fn default() -> Self {
        RegisterOptions { warm: true }
    }
}

impl RegisterOptions {
    /// Default options: warm registration.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets whether modules are encoded at registration time.
    #[must_use]
    pub fn warm(mut self, warm: bool) -> Self {
        self.warm = warm;
        self
    }
}

/// Summary returned by [`PromptCache::register_schema`].
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaInfo {
    /// Schema name.
    pub name: String,
    /// Number of cacheable spans encoded.
    pub spans: usize,
    /// Total tokens encoded into the cache.
    pub cached_tokens: usize,
    /// Advisory lints (`pc_pml::lint`): structural anti-patterns that
    /// will cache poorly. Never fatal.
    pub lints: Vec<String>,
}

/// Outcome of [`PromptCache::begin_serve`]: either the serve finished
/// before decode could start (interrupted), or it is positioned at its
/// first sample and ready to decode — solo or inside a batch.
pub(crate) enum Prepared {
    /// Finished without decoding (interrupted before the first sample).
    Done(Box<Response>, Box<KvView>),
    /// Prefilled and ready for decode.
    Ready(Box<PendingDecode>),
}

/// A serve that has completed prefill and is waiting to decode: the unit
/// the batch scheduler admits. Owns everything the decode loop and
/// [`PromptCache::finalize_serve`] need — the session view, the first
/// logits, the sampler, interruption state, and the accounting captured
/// during prepare.
pub(crate) struct PendingDecode {
    /// Session view: shared cached segments plus a private tail that
    /// prefill/decode append into.
    pub(crate) view: KvView,
    /// Logits from the last prefill step (consumed by the first sample).
    pub(crate) logits: Vec<f32>,
    /// Serve start, for TTFT/decode timing.
    pub(crate) started: Instant,
    tokenize_end: Duration,
    fetch_end: Duration,
    /// Checkpoint after prefill — also the pinned TTFT when no token is
    /// ever sampled.
    pub(crate) prefill_end: Duration,
    /// Effective interruption token (caller's token ∩ per-call budget).
    pub(crate) cancel: CancelToken,
    /// End-of-sequence token id.
    pub(crate) eos: TokenId,
    /// Sampler seeded from the request options.
    pub(crate) sampler: Box<dyn Sampler + Send>,
    /// Decode budget.
    pub(crate) max_new_tokens: usize,
    /// Position for the next generated token.
    pub(crate) next_pos: usize,
    /// Cache accounting captured by the assemble stage.
    stats: ServeStats,
    warnings: Vec<String>,
}

/// What [`PromptCache::assemble`] hands to prefill: the session view over
/// the prompt's cached states plus the accounting of how it was built.
struct Assembled {
    /// Shared cached segments, private tail still empty.
    view: KvView,
    /// Mirror of the view's rows as token ids (for the rare module-only
    /// prompt that must re-derive its final token).
    row_tokens: Vec<TokenId>,
    /// Cache-side accounting; `new_tokens` is filled in by the caller.
    stats: ServeStats,
}

/// Paths of the modules a resolved prompt imports, in prompt order.
fn imported_modules(resolved: &ResolvedPrompt) -> impl Iterator<Item = &ModulePath> {
    resolved.parts.iter().filter_map(|p| match p {
        ResolvedPart::Cached { module, .. } if !module.is_empty() => Some(module),
        _ => None,
    })
}

struct RegisteredSchema {
    layout: SchemaLayout,
    /// Precomputed token views of every span (index-aligned with
    /// `layout.spans`), so serving never re-tokenises cached text. With
    /// deferred RoPE in effect the positions are **canonical** (normalised
    /// so each owner's first span starts at 0), which is what the owner
    /// encodes — and re-encodes, on degrade — at.
    span_tokens: Vec<SpanTokens>,
    scaffolds: Vec<Scaffold>,
    /// `module → indices of the spans it owns`, prebuilt at registration
    /// so argument resolution at serve time is a map lookup instead of an
    /// O(spans) scan per argument.
    owner_spans: HashMap<ModulePath, Vec<usize>>,
    /// Canonical start position of every span (index-aligned with
    /// `layout.spans`): the position its first stored row was encoded at.
    /// A serve-time placement at `p` reads the span's keys through a
    /// rotation shift of `p − canonical_starts[i]`. Equal to the layout
    /// start when deferred RoPE is not in effect (shift always 0).
    canonical_starts: Vec<usize>,
    /// Whether this schema's spans were encoded position-independently
    /// (the model's position scheme is shift-invariant).
    deferred: bool,
}

/// Pre-resolved engine telemetry handles (the `StoreMetrics` pattern):
/// one registry lookup at construction, lock-free atomics per serve.
struct EngineMetrics {
    kv_bytes_shared: pc_telemetry::Counter,
    degraded_serves: pc_telemetry::Counter,
    degraded_spans: pc_telemetry::Counter,
}

impl EngineMetrics {
    fn resolve(telemetry: &Telemetry) -> Self {
        EngineMetrics {
            kv_bytes_shared: telemetry.counter("pc_kv_bytes_shared_total"),
            degraded_serves: telemetry.counter("pc_degraded_serves_total"),
            degraded_spans: telemetry.counter("pc_degraded_spans_total"),
        }
    }
}

/// The Prompt Cache engine. See the [crate docs](crate) for a quickstart.
///
/// The engine is `Sync`: schemas register under a write lock, serving
/// takes read locks, and the module store is internally synchronised.
pub struct PromptCache {
    model: Arc<Model>,
    tokenizer: Arc<dyn Tokenizer + Send + Sync>,
    config: EngineConfig,
    store: ModuleStore,
    schemas: RwLock<HashMap<String, RegisteredSchema>>,
    metrics: EngineMetrics,
}

impl PromptCache {
    /// Creates an engine around a model and tokenizer.
    pub fn new(
        model: Model,
        tokenizer: impl Tokenizer + Send + Sync + 'static,
        config: EngineConfig,
    ) -> Self {
        let store = ModuleStore::with_telemetry(config.store.clone(), &config.telemetry);
        let model = model.with_telemetry(config.telemetry.clone());
        let metrics = EngineMetrics::resolve(&config.telemetry);
        PromptCache {
            model: Arc::new(model),
            tokenizer: Arc::new(tokenizer),
            config,
            store,
            schemas: RwLock::new(HashMap::new()),
            metrics,
        }
    }

    /// Whether modules of this engine are stored **position-independently**
    /// — true exactly when the model's position scheme is shift-invariant
    /// (RoPE/ALiBi). Each module is then encoded once at canonical
    /// positions starting from 0 and the placement-dependent RoPE rotation
    /// is applied at read time, so one store entry serves every placement
    /// of the module, and prompts resolve with *packed* placement (union
    /// members drop the group's max-length padding, RAG chunks land in
    /// retrieval order). Placements that match the canonical positions
    /// read the stored keys as they are; shifted placements read the same
    /// stored keys against a query the attention tile rotates by
    /// `R(−shift)`, and count as `relocations` in the cache analytics.
    /// Learned-position models cannot be relocated: their modules are
    /// stored with positions baked in and are valid only at the exact
    /// positions they were encoded at.
    pub fn deferred_rope_effective(&self) -> bool {
        is_shift_invariant(self.model.config().position_scheme())
    }

    /// The underlying model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The engine's telemetry handle (disabled unless one was supplied in
    /// [`EngineConfig::telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.config.telemetry
    }

    /// The engine tokenizer.
    pub fn tokenizer(&self) -> &(dyn Tokenizer + Send + Sync) {
        self.tokenizer.as_ref()
    }

    /// Module-store counters (hits, copies, evictions).
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Direct access to the engine's module store — used by the fault
    /// harness (corrupting entries, injecting fetch faults) and by tools
    /// that inspect cache contents.
    pub fn store(&self) -> &ModuleStore {
        &self.store
    }

    /// Installs (or clears, with `None`) a deterministic fetch-fault
    /// injector on the module store. See
    /// [`pc_cache::FetchFaultInjector`]; injected misses and corruptions
    /// exercise the engine's graceful-degradation path.
    pub fn set_fetch_fault_injector(&self, injector: Option<Arc<dyn FetchFaultInjector>>) {
        self.store.set_fault_injector(injector);
    }

    /// Total bytes of encoded modules held in host memory.
    pub fn cached_bytes(&self) -> usize {
        self.store.host_bytes()
    }

    fn count(&self, text: &str) -> usize {
        self.tokenizer.encode(text).len()
    }

    /// Registers a schema from PML source: parses it, compiles chat tags,
    /// lays out positions, and **encodes every prompt module** into the
    /// store (paper §3.3). Idempotent re-registration is an error; call
    /// [`PromptCache::unregister_schema`] first to refresh.
    ///
    /// # Errors
    ///
    /// PML errors, duplicate registration, or model failures during
    /// encoding.
    pub fn register_schema(&self, pml: &str) -> Result<SchemaInfo> {
        let schema = parse_schema(pml)?;
        self.register_schema_ast(&schema)
    }

    /// [`PromptCache::register_schema`] with explicit [`RegisterOptions`]
    /// — in particular `warm(false)` for a cold registration that skips
    /// module encoding (see [`RegisterOptions`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`PromptCache::register_schema`].
    pub fn register_schema_with(
        &self,
        pml: &str,
        opts: &RegisterOptions,
    ) -> Result<SchemaInfo> {
        let schema = parse_schema(pml)?;
        self.register_schema_ast_with(&schema, opts)
    }

    /// [`PromptCache::register_schema`] for an already-parsed AST (e.g.
    /// one built by `pc_pml::program::PromptProgram`).
    ///
    /// # Errors
    ///
    /// Same contract as [`PromptCache::register_schema`].
    pub fn register_schema_ast(&self, schema: &Schema) -> Result<SchemaInfo> {
        self.register_schema_ast_with(schema, &RegisterOptions::default())
    }

    /// [`PromptCache::register_schema_ast`] with explicit
    /// [`RegisterOptions`].
    ///
    /// # Errors
    ///
    /// Same contract as [`PromptCache::register_schema`].
    pub fn register_schema_ast_with(
        &self,
        schema: &Schema,
        opts: &RegisterOptions,
    ) -> Result<SchemaInfo> {
        if self.schemas.read().contains_key(&schema.name) {
            return Err(EngineError::SchemaAlreadyRegistered {
                name: schema.name.clone(),
            });
        }
        let counter = |t: &str| self.count(t);
        let layout = SchemaLayout::build(schema, self.config.template, &counter);

        // Tokenise every span once.
        let mut tokens: Vec<SpanTokens> = layout
            .spans
            .iter()
            .map(|s| span_tokens(s, self.tokenizer.as_ref()))
            .collect();

        // Encode per owner so a module split by nested children is encoded
        // as one attention unit (its spans share an attention span), while
        // distinct modules stay independent (the masking of §3.3). The
        // owner → span-indices map is kept on the registered schema so the
        // serve path resolves arguments by lookup, not by scanning spans.
        let mut owners: Vec<ModulePath> = Vec::new();
        let mut owner_spans: HashMap<ModulePath, Vec<usize>> = HashMap::new();
        for (i, span) in layout.spans.iter().enumerate() {
            let ids = owner_spans.entry(span.owner.clone()).or_default();
            if ids.is_empty() {
                owners.push(span.owner.clone());
            }
            ids.push(i);
        }

        // Position-independent storage (deferred RoPE): normalise each
        // owner's positions so its first span starts at 0 — the canonical
        // placement every serve-time shift is computed against. Gaps
        // *between* an owner's spans (parameter slots, nested children)
        // are preserved, so the owner still encodes as one attention unit
        // with its internal offsets intact. One store entry per unique
        // module content, wherever prompts later place it.
        let deferred = self.deferred_rope_effective();
        let mut canonical_starts: Vec<usize> =
            layout.spans.iter().map(|s| s.start).collect();
        if deferred {
            for ids in owner_spans.values() {
                let base = ids
                    .iter()
                    .map(|&i| layout.spans[i].start)
                    .min()
                    .unwrap_or(0);
                for &i in ids {
                    let c0 = layout.spans[i].start - base;
                    canonical_starts[i] = c0;
                    tokens[i].positions = (c0..c0 + tokens[i].tokens.len()).collect();
                }
            }
        }

        // Spans already present in the store (e.g. restored from the disk
        // tier via [`PromptCache::restore`]) are reused instead of re-encoded
        // — precomputation survives process restarts. A cold registration
        // (`warm == false`) encodes no owners at all: serving re-encodes
        // missing modules on demand via degrade-on-miss.
        let mut preloaded_tokens = 0usize;
        let mut preloaded_spans = 0usize;
        let owners: Vec<ModulePath> = if opts.warm { owners } else { Vec::new() };
        let owners: Vec<ModulePath> = owners
            .into_iter()
            .filter(|owner| {
                let span_ids = &owner_spans[owner];
                // Reuse only states that demonstrably belong to *this*
                // schema revision: the token count and position layout of
                // every span must match what the current layout expects —
                // a persisted module from an edited schema re-encodes
                // instead of silently serving stale states.
                let all_valid = !span_ids.is_empty()
                    && span_ids.iter().all(|&i| {
                        self.store
                            .get(&self.span_key(&schema.name, i), Tier::Host)
                            .is_some_and(|states| {
                                states.len() == tokens[i].tokens.len()
                                    && states.positions() == tokens[i].positions
                                    && states.num_layers() == self.model.config().num_layers
                                    && states.kv_dim() == self.model.config().kv_dim()
                            })
                    });
                if all_valid {
                    for &i in span_ids {
                        preloaded_tokens += tokens[i].tokens.len();
                        preloaded_spans += 1;
                    }
                }
                !all_valid
            })
            .collect();

        let encode_owner = |owner: &ModulePath| -> Result<Vec<(usize, KvCache)>> {
            let span_ids = &owner_spans[owner];
            let mut all_tokens = Vec::new();
            let mut all_positions = Vec::new();
            for &i in span_ids {
                all_tokens.extend_from_slice(&tokens[i].tokens);
                all_positions.extend_from_slice(&tokens[i].positions);
            }
            if all_tokens.is_empty() {
                return Ok(Vec::new());
            }
            let encoded = self.model.encode_segment(&all_tokens, &all_positions)?;
            // Slice the jointly-encoded states back into per-span stores.
            let mut out = Vec::new();
            let mut offset = 0;
            for &i in span_ids {
                let n = tokens[i].tokens.len();
                let part = encoded.slice(offset, offset + n)?;
                offset += n;
                out.push((i, part));
            }
            Ok(out)
        };

        // Each owner is an independent encode (attention never crosses
        // owners), so registrations fan out across the shared pool. The
        // per-owner work is untouched — stored states are byte-identical
        // at any thread count.
        let threads = self
            .config
            .parallelism
            .num_threads
            .min(owners.len().max(1));
        type EncodeSlot = Option<Result<Vec<(usize, KvCache)>>>;
        let encoded: Vec<(usize, KvCache)> = if threads > 1 {
            let mut slots: Vec<EncodeSlot> = Vec::new();
            slots.resize_with(owners.len(), || None);
            let encode_owner = &encode_owner;
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = slots
                .iter_mut()
                .zip(&owners)
                .map(|(slot, owner)| {
                    Box::new(move || {
                        *slot = Some(encode_owner(owner));
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            run_tasks(tasks, threads);
            slots
                .into_iter()
                .map(|s| s.expect("encode task completed"))
                .collect::<Result<Vec<_>>>()?
                .into_iter()
                .flatten()
                .collect()
        } else {
            let mut all = Vec::new();
            for owner in &owners {
                all.extend(encode_owner(owner)?);
            }
            all
        };

        let mut cached_tokens = preloaded_tokens;
        let mut spans = preloaded_spans;
        for (i, cache) in encoded {
            cached_tokens += cache.len();
            spans += 1;
            let cost = pc_model::flops::model_prefill_flops(self.model.config(), cache.len());
            self.store.insert(self.span_key(&schema.name, i), cache, cost as f64);
        }

        self.schemas.write().insert(
            schema.name.clone(),
            RegisteredSchema {
                layout,
                span_tokens: tokens,
                scaffolds: Vec::new(),
                owner_spans,
                canonical_starts,
                deferred,
            },
        );
        let counter = |t: &str| self.count(t);
        let lints = pc_pml::lint::lint_schema(
            schema,
            &counter,
            &pc_pml::lint::LintConfig::default(),
        )
        .into_iter()
        .map(|l| l.to_string())
        .collect();
        Ok(SchemaInfo {
            name: schema.name.clone(),
            spans,
            cached_tokens,
            lints,
        })
    }

    /// Replaces a schema in place: the old layout is dropped but its
    /// encoded states are kept, so spans whose content and positions are
    /// unchanged in the new revision are **reused without re-encoding**.
    /// An append-only extension (new modules added after existing ones)
    /// therefore encodes only the new modules; edited modules re-encode
    /// via the staleness check. Stale leftover spans are dropped.
    ///
    /// # Errors
    ///
    /// Same contract as [`PromptCache::register_schema`] (minus the
    /// duplicate-name error).
    pub fn replace_schema(&self, pml: &str) -> Result<SchemaInfo> {
        let schema = parse_schema(pml)?;
        self.schemas.write().remove(&schema.name);
        // Keep the store contents: register_schema_ast validates each
        // stored span against the new layout and reuses the matches.
        let info = self.register_schema_ast(&schema)?;
        // Garbage-collect spans beyond the new layout's span count.
        let span_count = self
            .schemas
            .read()
            .get(&schema.name)
            .map(|e| e.layout.spans.len())
            .unwrap_or(0);
        for key in self.store_keys_for(&schema.name) {
            match key.path.first().map(String::as_str) {
                Some("<span>") => {
                    let stale = key
                        .path
                        .get(1)
                        .and_then(|s| s.parse::<usize>().ok())
                        .is_some_and(|i| i >= span_count);
                    if stale {
                        self.store.remove(&key);
                    }
                }
                // Scaffolds were built against the old layout; drop them
                // (callers re-add scaffolds after a replace).
                Some("<scaffold>") => {
                    self.store.remove(&key);
                }
                _ => {}
            }
        }
        Ok(info)
    }

    fn store_keys_for(&self, schema: &str) -> Vec<ModuleKey> {
        self.store
            .keys()
            .into_iter()
            .filter(|k| k.schema == schema)
            .collect()
    }

    /// Names of all registered schemas, sorted.
    pub fn schema_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.schemas.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Whether `name` is registered.
    pub fn has_schema(&self, name: &str) -> bool {
        self.schemas.read().contains_key(name)
    }

    /// Drops a schema and all of its cached states.
    pub fn unregister_schema(&self, name: &str) {
        self.schemas.write().remove(name);
        self.store.remove_schema(name);
    }

    /// The stored KV states of every span of a registered schema, in span
    /// order (`None` for spans with no cached state, e.g. empty or
    /// evicted). This is the engine's ground truth for what registration
    /// encoded; the integration tests compare these across thread counts
    /// to prove concurrent encoding stores byte-identical states.
    pub fn schema_span_states(&self, schema: &str) -> Vec<Option<Arc<KvCache>>> {
        let schemas = self.schemas.read();
        let Some(reg) = schemas.get(schema) else {
            return Vec::new();
        };
        (0..reg.layout.spans.len())
            .map(|i| self.store.get(&self.span_key(schema, i), Tier::Host))
            .collect()
    }

    fn span_key(&self, schema: &str, span_index: usize) -> ModuleKey {
        ModuleKey {
            schema: schema.to_owned(),
            path: vec!["<span>".to_owned(), span_index.to_string()],
        }
    }

    /// Registers a scaffold (§3.3): the named modules are re-encoded
    /// **jointly** so they share an attention span, removing the
    /// cross-module masking approximation at the cost of extra memory.
    /// When a later prompt imports every member, the scaffold states
    /// override the members' individual states.
    ///
    /// # Errors
    ///
    /// Unknown schema/modules, or members with parameters (unsupported
    /// inside scaffolds).
    pub fn add_scaffold(&self, schema: &str, modules: &[&str]) -> Result<()> {
        let mut schemas = self.schemas.write();
        let entry = schemas
            .get_mut(schema)
            .ok_or_else(|| EngineError::UnknownSchema {
                name: schema.to_owned(),
            })?;
        let scaffold = Scaffold::build(schema, modules, &entry.layout, &entry.span_tokens)?;
        let (all_tokens, all_positions) = Self::scaffold_tokens(entry, &scaffold);
        let encoded = self.model.encode_segment(&all_tokens, &all_positions)?;
        let cost = pc_model::flops::model_prefill_flops(self.model.config(), encoded.len());
        self.store.insert(scaffold.key.clone(), encoded, cost as f64);
        entry.scaffolds.push(scaffold);
        Ok(())
    }

    /// Serves one [`ServeRequest`] — the single entry point behind every
    /// serving mode (paper §3.4).
    ///
    /// The request builder selects the path: plain cached inference by
    /// default, the baseline KV-cache path with
    /// [`ServeRequest::baseline`], per-token streaming with
    /// [`ServeRequest::streaming`], and session continuation with
    /// [`ServeRequest::session`] (the returned [`Served`] then carries
    /// the session [`KvView`]).
    ///
    /// ```no_run
    /// # use prompt_cache::{PromptCache, ServeRequest};
    /// # fn demo(engine: &PromptCache) -> prompt_cache::Result<()> {
    /// let served = engine.serve(
    ///     &ServeRequest::new(r#"<prompt schema="s"><m/>question</prompt>"#)
    ///         .max_new_tokens(8)
    ///         .session(true),
    /// )?;
    /// println!("{}", served.text); // Served derefs to Response
    /// let view = served.session.expect("requested");
    /// # Ok(()) }
    /// ```
    ///
    /// # Errors
    ///
    /// PML/resolution errors, unknown schemas, or model failures.
    pub fn serve(&self, request: &ServeRequest<'_>) -> Result<Served> {
        if request.is_baseline() {
            let response = self.baseline_response(request.prompt(), request.options_ref())?;
            return Ok(Served {
                response,
                session: None,
            });
        }
        let sink = request.sink();
        let mut adapter = move |token: TokenId, count: usize| {
            if let Some(sink) = sink {
                sink(token, count);
            }
        };
        let (response, view) =
            self.serve_cached(request.prompt(), request.options_ref(), &mut adapter)?;
        Ok(Served {
            response,
            session: request.wants_session().then_some(view),
        })
    }

    /// The cached serving pipeline: prepare (resolve → fetch → prefill),
    /// decode on the calling thread, finalize. The batched scheduler runs
    /// the same [`PromptCache::begin_serve`] / [`PromptCache::finalize_serve`]
    /// halves around its own interleaved decode loop, which is why solo
    /// and batched serves share every phase except token-by-token decode.
    fn serve_cached(
        &self,
        prompt_pml: &str,
        options: &ServeOptions,
        on_token: &mut dyn FnMut(TokenId, usize),
    ) -> Result<(Response, KvView)> {
        let telemetry = &self.config.telemetry;
        let serve_span = telemetry.span("serve");
        let result = match self.begin_serve(prompt_pml, options)? {
            Prepared::Done(response, view) => (*response, *view),
            Prepared::Ready(mut p) => {
                let logits = std::mem::take(&mut p.logits);
                let (tokens, ttft, decode, outcome) = self.decode_loop(
                    &mut p.view,
                    logits,
                    p.max_new_tokens,
                    p.eos,
                    p.sampler.as_mut(),
                    p.started,
                    on_token,
                    &p.cancel,
                    telemetry,
                )?;
                self.finalize_serve(*p, tokens, ttft, decode, outcome)
            }
        };
        drop(serve_span);
        Ok(result)
    }

    /// The serve pipeline up to (and including) prefill, as three stages
    /// — [`Self::resolve`], [`Self::assemble`], [`Self::prefill`] — run
    /// under one schema read lock with a cancellation check around the
    /// fetch. Returns either a finished response (interrupted before
    /// decode) or a [`PendingDecode`] positioned at its first sample — the
    /// unit the batch scheduler admits.
    pub(crate) fn begin_serve(
        &self,
        prompt_pml: &str,
        options: &ServeOptions,
    ) -> Result<Prepared> {
        // One clock, cumulative checkpoints: each TTFT phase is the delta
        // between consecutive checkpoints, so the TtftBreakdown phases sum
        // to `Timings.ttft` exactly.
        let telemetry = &self.config.telemetry;
        let started = Instant::now();

        // Effective interruption token: the caller's token (if any) plus
        // the per-call budget, earliest deadline winning. Polled at phase
        // boundaries and between decode steps.
        let cancel = Self::effective_cancel(options);
        if let Some(outcome) = cancel.interruption() {
            // Dead on arrival (zero/elapsed budget, or cancelled before
            // the serve started): return an empty partial response
            // without touching the model.
            let response = Self::partial_response(
                outcome,
                TtftBreakdown::default(),
                ServeStats::default(),
                Vec::new(),
            );
            return Ok(Prepared::Done(Box::new(response), Box::new(self.empty_view())));
        }

        // --- step ①: parse, resolve, and tokenise uncached text ---
        let resolve_span = telemetry.span("schema-resolve");
        let prompt = parse_prompt(prompt_pml)?;
        let schemas = self.schemas.read();
        let entry = Self::registered(&schemas, &prompt.schema)?;
        let resolved = self.resolve(entry, &prompt)?;
        drop(resolve_span);
        let tokenize_span = telemetry.span("tokenize");
        let chunk = uncached_chunk(&resolved, self.tokenizer.as_ref());
        drop(tokenize_span);
        let tokenize_end = started.elapsed();

        // --- step ②: fetch cached states and assemble the session view ---
        let Assembled { mut view, row_tokens, stats } =
            self.assemble(entry, &prompt.schema, &resolved, options.use_scaffolds)?;
        let fetch_end = started.elapsed();

        if let Some(outcome) = cancel.interruption() {
            // Interrupted before prefill: return what we know (tokenise +
            // fetch accounting) with zero generated tokens.
            let breakdown = TtftBreakdown {
                tokenize: tokenize_end,
                fetch: fetch_end - tokenize_end,
                prefill: Duration::ZERO,
                sample: Duration::ZERO,
            };
            let response = Self::partial_response(outcome, breakdown, stats, resolved.warnings);
            return Ok(Prepared::Done(Box::new(response), Box::new(view)));
        }

        // --- steps ③/④: compute uncached tokens at their positions ---
        let logits = self.prefill(&mut view, &chunk, &row_tokens)?;
        let prefill_end = started.elapsed();

        Ok(Prepared::Ready(Box::new(PendingDecode {
            next_pos: view.positions().iter().max().map_or(0, |p| p + 1),
            view,
            logits,
            started,
            tokenize_end,
            fetch_end,
            prefill_end,
            cancel,
            eos: self.tokenizer.special(SpecialToken::Eos),
            sampler: Self::sampler_for(options),
            max_new_tokens: options.max_new_tokens,
            stats: ServeStats { new_tokens: chunk.tokens.len(), ..stats },
            warnings: resolved.warnings,
        })))
    }

    /// Looks a schema up in the (locked) registry.
    fn registered<'s>(
        schemas: &'s HashMap<String, RegisteredSchema>,
        name: &str,
    ) -> Result<&'s RegisteredSchema> {
        schemas.get(name).ok_or_else(|| EngineError::UnknownSchema {
            name: name.to_owned(),
        })
    }

    /// The sampler a request's options select: seeded temperature
    /// sampling, or greedy decoding by default.
    fn sampler_for(options: &ServeOptions) -> Box<dyn Sampler + Send> {
        match options.temperature {
            Some((t, seed)) => Box::new(TemperatureSampler::new(t, seed)),
            None => Box::new(GreedySampler),
        }
    }

    /// An empty session view of this engine's model shape.
    fn empty_view(&self) -> KvView {
        KvView::with_shape(self.model.config().num_layers, self.model.config().kv_dim())
    }

    /// Stage ①: resolves a parsed prompt against its schema, in the
    /// placement mode the schema was stored in. Packed placement goes
    /// with position-independent storage: parts land at a running cursor
    /// in prompt order and each cached span's placement shift (placed −
    /// canonical start) is absorbed by the attention tile, which rotates
    /// the query instead of the stored keys.
    /// Baked-position schemas (learned-position models) must place every
    /// module at the layout positions it was encoded at.
    fn resolve(&self, entry: &RegisteredSchema, prompt: &pc_pml::Prompt) -> Result<ResolvedPrompt> {
        let counter = |t: &str| self.count(t);
        Ok(if entry.deferred {
            resolve_prompt_packed(&entry.layout, prompt, &counter)?
        } else {
            resolve_prompt(&entry.layout, prompt, &counter)?
        })
    }

    /// Stage ②: fetches the resolved prompt's cached states and assembles
    /// them into a session view. Pure pointer arithmetic: each cached span
    /// becomes an `Arc`-shared segment of the [`KvView`]; no KV byte is
    /// copied. Spans (or whole scaffolds) whose states are missing or were
    /// dropped as corrupt are recomputed from their tokens instead of
    /// failing the request — graceful degradation, counted per span.
    fn assemble(
        &self,
        entry: &RegisteredSchema,
        schema: &str,
        resolved: &ResolvedPrompt,
        use_scaffolds: bool,
    ) -> Result<Assembled> {
        let telemetry = &self.config.telemetry;
        let fetch_span = telemetry.span("cache-fetch");
        let analytics = self.store.analytics();
        let mut out = Assembled {
            view: self.empty_view(),
            row_tokens: Vec::new(),
            stats: ServeStats::default(),
        };

        let filled = Self::filled_params(entry, resolved);
        let selected_scaffolds = if use_scaffolds {
            Self::select_scaffolds(entry, resolved)
        } else {
            Vec::new()
        };
        for &(scaffold, shift) in &selected_scaffolds {
            let states = match self.store.get(&scaffold.key, Tier::Host) {
                Some(states) => states,
                None if self.config.degrade_on_miss => {
                    let _degrade_span = telemetry.span("degrade");
                    out.stats.degraded_spans += 1;
                    if let Some(a) = analytics {
                        a.record_degrade(&scaffold.key);
                    }
                    Arc::new(self.reencode_scaffold(entry, scaffold)?)
                }
                None => {
                    return Err(EngineError::MissingModuleStates {
                        key: format!("{:?}", scaffold.key),
                    })
                }
            };
            if shift != 0 {
                if let Some(a) = analytics {
                    a.record_relocation(&scaffold.key);
                }
            }
            let rows = states.len();
            self.push_cached(&mut out, &scaffold.key, states, 0, rows, shift)?;
            // Scaffold members have no params, so the row mirror can take
            // the span tokens directly.
            for &i in &scaffold.span_indices {
                out.row_tokens.extend_from_slice(&entry.span_tokens[i].tokens);
            }
            out.stats.used_scaffold = true;
        }

        // Per-serve memo of owner recomputes, so a persistently-injected
        // miss (fault harness) re-encodes each owner at most once per
        // serve even when the store refuses to return the healed entry.
        let mut recomputed: HashMap<usize, Arc<KvCache>> = HashMap::new();
        for part in &resolved.parts {
            let ResolvedPart::Cached {
                span_index, start, ..
            } = part
            else {
                continue;
            };
            if selected_scaffolds
                .iter()
                .any(|(scaffold, _)| scaffold.span_indices.contains(span_index))
            {
                continue;
            }
            // Placement shift of this span: where the prompt placed it
            // minus where its canonical entry was encoded. Zero for
            // baked-position schemas (placements equal encode positions)
            // and for packed placements that coincide with the canonical
            // layout.
            let shift = *start as isize - entry.canonical_starts[*span_index] as isize;
            let key = self.span_key(schema, *span_index);
            let states = match self.store.get(&key, Tier::Host) {
                Some(states) => states,
                None if self.config.degrade_on_miss => {
                    let _degrade_span = telemetry.span("degrade");
                    out.stats.degraded_spans += 1;
                    if let Some(a) = analytics {
                        a.record_degrade(&key);
                    }
                    self.recompute_owner(schema, entry, *span_index, &mut recomputed)?
                }
                None => {
                    return Err(EngineError::MissingModuleStates {
                        key: format!("{schema}.span{span_index}"),
                    })
                }
            };
            if shift != 0 {
                if let Some(a) = analytics {
                    a.record_relocation(&key);
                }
            }
            // Take the span, skipping filled placeholder rows (their
            // states are recomputed from the real argument in prefill) —
            // the skip list splits the span into shared segments.
            let skip: &[(usize, usize)] = filled.get(span_index).map_or(&[], Vec::as_slice);
            let toks = &entry.span_tokens[*span_index].tokens;
            let mut cursor = 0usize;
            let mut ranges: Vec<(usize, usize)> = Vec::new();
            for &(off, len) in skip {
                if cursor < off {
                    ranges.push((cursor, off));
                }
                cursor = off + len;
            }
            if cursor < states.len() {
                ranges.push((cursor, states.len()));
            }
            for (s, e) in ranges {
                self.push_cached(&mut out, &key, Arc::clone(&states), s, e, shift)?;
                out.row_tokens.extend_from_slice(&toks[s..e]);
            }
        }
        self.metrics.kv_bytes_shared.add(out.stats.bytes_shared as u64);
        if out.stats.degraded_spans > 0 {
            self.metrics.degraded_serves.add(1);
            self.metrics.degraded_spans.add(out.stats.degraded_spans as u64);
        }
        drop(fetch_span);
        Ok(out)
    }

    /// Which params the prompt filled, per span: span_index → sorted
    /// `(row offset, reserved len)` ranges, via the registration-time
    /// owner → spans map.
    fn filled_params(
        entry: &RegisteredSchema,
        resolved: &ResolvedPrompt,
    ) -> HashMap<usize, Vec<(usize, usize)>> {
        let mut filled: HashMap<usize, Vec<(usize, usize)>> = HashMap::new();
        for part in &resolved.parts {
            if let ResolvedPart::Argument { module, param, .. } = part {
                // Locate the placeholder inside the owning span.
                for &i in entry.owner_spans.get(module).into_iter().flatten() {
                    if let Some((_, off, len)) = entry.span_tokens[i]
                        .params
                        .iter()
                        .find(|(name, _, _)| name == param)
                    {
                        filled.entry(i).or_default().push((*off, *len));
                    }
                }
            }
        }
        for ranges in filled.values_mut() {
            ranges.sort_unstable();
        }
        filled
    }

    /// Shares rows `start..end` of `states` as the session view's next
    /// segment, `shift` positions from where they were encoded, and
    /// accounts for them. Per-module attribution (opt-in): the bytes land
    /// on module `key`, and the segment is tagged so the batched
    /// scheduler can route its per-group shared-row accounting back to
    /// the module.
    fn push_cached(
        &self,
        out: &mut Assembled,
        key: &ModuleKey,
        states: Arc<KvCache>,
        start: usize,
        end: usize,
        shift: isize,
    ) -> Result<()> {
        let bytes = states.bytes_for_rows(end - start);
        out.view.push_segment_shifted(states, start, end, shift)?;
        out.stats.cached_tokens += end - start;
        out.stats.bytes_reused += bytes;
        out.stats.bytes_shared += bytes;
        if let Some(a) = self.store.analytics() {
            if let Some(seg) = out.view.segments().last() {
                a.tag_segment(seg.id(), key);
            }
            a.record_bytes_shared(key, bytes as u64);
        }
        Ok(())
    }

    /// Scaffold substitution (§3.3): picks the registered scaffolds whose
    /// members the prompt imports in full, each with the one placement
    /// shift its joint states relocate by. A span belongs to at most one
    /// selected scaffold.
    fn select_scaffolds<'s>(
        entry: &'s RegisteredSchema,
        resolved: &ResolvedPrompt,
    ) -> Vec<(&'s Scaffold, isize)> {
        let imported: Vec<&ModulePath> = imported_modules(resolved).collect();
        // Placed start of every cached span in this prompt: needed to
        // check that packed placement moved all of a scaffold's members
        // rigidly.
        let placed_starts: HashMap<usize, usize> = resolved
            .parts
            .iter()
            .filter_map(|p| match p {
                ResolvedPart::Cached {
                    span_index, start, ..
                } => Some((*span_index, *start)),
                _ => None,
            })
            .collect();
        let mut selected: Vec<(&Scaffold, isize)> = Vec::new();
        for scaffold in &entry.scaffolds {
            if !scaffold.members.iter().all(|m| imported.contains(&m))
                || selected.iter().any(|(taken, _)| {
                    taken.span_indices.iter().any(|i| scaffold.span_indices.contains(i))
                })
            {
                continue;
            }
            // A scaffold's joint states encode its members at their
            // layout positions; the states relocate as one rigid block
            // or not at all. Packed placement preserves a subtree's
            // internal offsets, so members imported consecutively in
            // layout order share one shift — anything else (content
            // interleaved between members) deforms the block, and the
            // scaffold steps aside for the per-span path.
            let shifts: Vec<isize> = scaffold
                .span_indices
                .iter()
                .filter_map(|&i| {
                    placed_starts
                        .get(&i)
                        .map(|&p| p as isize - entry.layout.spans[i].start as isize)
                })
                .collect();
            let rigid = shifts.len() == scaffold.span_indices.len()
                && shifts.windows(2).all(|w| w[0] == w[1]);
            if rigid {
                selected.push((scaffold, shifts.first().copied().unwrap_or(0)));
            }
        }
        selected
    }

    /// Stage ③/④: computes the uncached tokens at their positions and
    /// returns the last token's logits. Prefill and decode append into
    /// the view's private tail; the shared segments stay frozen.
    /// `row_tokens` mirrors the view's cached rows as token ids, for the
    /// module-only prompt that must re-derive its final token.
    fn prefill(
        &self,
        view: &mut KvView,
        chunk: &UncachedChunk,
        row_tokens: &[TokenId],
    ) -> Result<Vec<f32>> {
        let _prefill_span = self.config.telemetry.span("prefill");
        if !chunk.tokens.is_empty() {
            return Ok(self.model.prefill(&chunk.tokens, &chunk.positions, view)?);
        }
        // Module-only prompt: re-derive the final token's logits by
        // recomputing the last cached row.
        if view.is_empty() {
            return Err(EngineError::EmptyPrompt);
        }
        let last_row = view.len() - 1;
        let last_token = row_tokens[last_row];
        let last_pos = view.positions()[last_row];
        view.truncate(last_row);
        Ok(self.model.prefill(&[last_token], &[last_pos], view)?)
    }

    /// The serve pipeline after decode: assemble the TTFT breakdown and
    /// build the [`Response`].
    /// `tokens`/`ttft`/`decode`/`outcome` come from whichever decode loop
    /// ran — the solo [`PromptCache::decode_loop`] or the batch
    /// scheduler's interleaved steps.
    pub(crate) fn finalize_serve(
        &self,
        p: PendingDecode,
        tokens: Vec<TokenId>,
        ttft: Duration,
        decode: Duration,
        outcome: ServeOutcome,
    ) -> (Response, KvView) {
        // An interruption before the first sample leaves no first token:
        // pin TTFT to the prefill checkpoint (and decode to zero) so the
        // breakdown phases still sum exactly to `timings.ttft`.
        let (ttft, decode) = if tokens.is_empty() {
            (p.prefill_end, Duration::ZERO)
        } else {
            (ttft, decode)
        };
        let breakdown = TtftBreakdown {
            tokenize: p.tokenize_end,
            fetch: p.fetch_end - p.tokenize_end,
            prefill: p.prefill_end - p.fetch_end,
            sample: ttft.saturating_sub(p.prefill_end),
        };

        let response = Response {
            text: self.tokenizer.decode(&tokens),
            tokens,
            timings: Timings {
                ttft,
                fetch: breakdown.fetch,
                prefill: breakdown.prefill,
                decode,
            },
            breakdown,
            stats: p.stats,
            outcome,
            warnings: p.warnings,
        };
        (response, p.view)
    }

    /// The **baseline KV-cache path** behind [`ServeRequest::baseline`]:
    /// the prompt is rendered to plain text (modules inlined, arguments
    /// substituted), tokenised, and prefilled from position 0 with no
    /// reuse — the paper's comparison baseline, sharing every other stage
    /// of the pipeline.
    fn baseline_response(&self, prompt_pml: &str, options: &ServeOptions) -> Result<Response> {
        let prompt = parse_prompt(prompt_pml)?;
        let schemas = self.schemas.read();
        let entry = Self::registered(&schemas, &prompt.schema)?;
        let counter = |t: &str| self.count(t);
        let resolved = resolve_prompt(&entry.layout, &prompt, &counter)?;
        let text = render_plain(&resolved, &entry.layout.spans);
        drop(schemas);
        self.generate_plain(&text, options, resolved.warnings)
    }

    /// Runs plain-text generation (full prefill, no cache reuse). Public
    /// so benches can time arbitrary synthetic prompts.
    ///
    /// # Errors
    ///
    /// [`EngineError::EmptyPrompt`] for empty text; model failures.
    pub fn generate_plain(
        &self,
        text: &str,
        options: &ServeOptions,
        warnings: Vec<String>,
    ) -> Result<Response> {
        let telemetry = &self.config.telemetry;
        let serve_span = telemetry.span("serve-baseline");
        let started = Instant::now();
        let cancel = Self::effective_cancel(options);
        if let Some(outcome) = cancel.interruption() {
            return Ok(Self::partial_response(
                outcome,
                TtftBreakdown::default(),
                ServeStats::default(),
                warnings,
            ));
        }
        let tokenize_span = telemetry.span("tokenize");
        let tokens = self.tokenizer.encode(text);
        drop(tokenize_span);
        if tokens.is_empty() {
            return Err(EngineError::EmptyPrompt);
        }
        let positions: Vec<usize> = (0..tokens.len()).collect();
        let tokenize_end = started.elapsed();
        let prefill_span = telemetry.span("prefill");
        let mut cache = KvCache::new(self.model.config());
        let last_logits = self.model.prefill(&tokens, &positions, &mut cache)?;
        drop(prefill_span);
        let prefill_end = started.elapsed();
        let eos = self.tokenizer.special(SpecialToken::Eos);
        let mut sampler = Self::sampler_for(options);
        let (out, ttft, decode, outcome) = self.decode_loop(
            &mut cache,
            last_logits,
            options.max_new_tokens,
            eos,
            sampler.as_mut(),
            started,
            &mut |_, _| {},
            &cancel,
            telemetry,
        )?;
        let (ttft, decode) = if out.is_empty() {
            (prefill_end, Duration::ZERO)
        } else {
            (ttft, decode)
        };
        let breakdown = TtftBreakdown {
            tokenize: tokenize_end,
            fetch: Duration::ZERO,
            prefill: prefill_end - tokenize_end,
            sample: ttft.saturating_sub(prefill_end),
        };
        drop(serve_span);
        Ok(Response {
            text: self.tokenizer.decode(&out),
            tokens: out,
            timings: Timings {
                ttft,
                fetch: Duration::ZERO,
                prefill: breakdown.prefill,
                decode,
            },
            breakdown,
            stats: ServeStats {
                cached_tokens: 0,
                new_tokens: tokens.len(),
                bytes_reused: 0,
                bytes_shared: 0,
                bytes_copied: 0,
                used_scaffold: false,
                degraded_spans: 0,
            },
            outcome,
            warnings,
        })
    }

    /// Resolves a parsed prompt against its registered schema — shared by
    /// batch accounting. Uses the same placement mode as the serve path.
    pub(crate) fn resolve_for(
        &self,
        prompt: &pc_pml::Prompt,
    ) -> Result<ResolvedPrompt> {
        let schemas = self.schemas.read();
        self.resolve(Self::registered(&schemas, &prompt.schema)?, prompt)
    }

    /// Builds the effective interruption token for one serve call: the
    /// caller's token (or an inert one) narrowed by the per-call budget.
    fn effective_cancel(options: &ServeOptions) -> CancelToken {
        let base = options.cancel.clone().unwrap_or_default();
        match options.deadline {
            Some(budget) => base.with_budget(budget),
            None => base,
        }
    }

    /// An empty partial [`Response`] for serves interrupted before the
    /// first token. TTFT is pinned to the work actually done so the
    /// breakdown phases still sum to `timings.ttft`.
    fn partial_response(
        outcome: ServeOutcome,
        breakdown: TtftBreakdown,
        stats: ServeStats,
        warnings: Vec<String>,
    ) -> Response {
        Response {
            text: String::new(),
            tokens: Vec::new(),
            timings: Timings {
                ttft: breakdown.total(),
                fetch: breakdown.fetch,
                prefill: breakdown.prefill,
                decode: Duration::ZERO,
            },
            breakdown,
            stats,
            outcome,
            warnings,
        }
    }

    /// Graceful-degradation recompute for one missing/corrupt span: all
    /// spans of the owning module are **jointly re-encoded from their
    /// tokens**, exactly as registration encodes an owner, so the result
    /// is byte-identical to the lost states. The fresh states are
    /// re-inserted into the store (self-healing) and memoised in
    /// `recomputed` for the rest of this serve.
    fn recompute_owner(
        &self,
        schema: &str,
        entry: &RegisteredSchema,
        span_index: usize,
        recomputed: &mut HashMap<usize, Arc<KvCache>>,
    ) -> Result<Arc<KvCache>> {
        if let Some(states) = recomputed.get(&span_index) {
            return Ok(Arc::clone(states));
        }
        let owner = &entry.layout.spans[span_index].owner;
        let span_ids: &[usize] = entry
            .owner_spans
            .get(owner)
            .map_or(&[], Vec::as_slice);
        let mut all_tokens = Vec::new();
        let mut all_positions = Vec::new();
        for &i in span_ids {
            all_tokens.extend_from_slice(&entry.span_tokens[i].tokens);
            all_positions.extend_from_slice(&entry.span_tokens[i].positions);
        }
        if all_tokens.is_empty() {
            return Err(EngineError::MissingModuleStates {
                key: format!("{schema}.span{span_index}"),
            });
        }
        let encoded = self.model.encode_segment(&all_tokens, &all_positions)?;
        let mut offset = 0;
        let mut requested = None;
        for &i in span_ids {
            let n = entry.span_tokens[i].tokens.len();
            let part = encoded.slice(offset, offset + n)?;
            offset += n;
            let cost =
                pc_model::flops::model_prefill_flops(self.model.config(), part.len());
            // Serve the healed entry itself: the request aliases the
            // store's allocation, as a hit would.
            let part = self.store.insert(self.span_key(schema, i), part, cost as f64);
            if i == span_index {
                requested = Some(Arc::clone(&part));
            }
            recomputed.insert(i, part);
        }
        requested.ok_or_else(|| EngineError::MissingModuleStates {
            key: format!("{schema}.span{span_index}"),
        })
    }

    /// Token/position streams for a scaffold's joint encoding. Scaffolds
    /// always encode at the **layout** positions of their member spans —
    /// never the canonical (normalised) per-owner positions — because a
    /// scaffold spans several owners whose canonical ranges would
    /// otherwise collide at 0. At serve time the whole scaffold relocates
    /// rigidly: one shift, computed from the members' placed positions.
    fn scaffold_tokens(
        entry: &RegisteredSchema,
        scaffold: &Scaffold,
    ) -> (Vec<TokenId>, Vec<usize>) {
        let mut all_tokens = Vec::new();
        let mut all_positions = Vec::new();
        for &i in &scaffold.span_indices {
            let toks = &entry.span_tokens[i].tokens;
            let start = entry.layout.spans[i].start;
            all_tokens.extend_from_slice(toks);
            all_positions.extend(start..start + toks.len());
        }
        (all_tokens, all_positions)
    }

    /// Graceful-degradation recompute for a missing/corrupt scaffold: its
    /// member spans are jointly re-encoded (the same computation as
    /// [`PromptCache::add_scaffold`]) and re-inserted under the scaffold
    /// key.
    fn reencode_scaffold(&self, entry: &RegisteredSchema, scaffold: &Scaffold) -> Result<KvCache> {
        let (all_tokens, all_positions) = Self::scaffold_tokens(entry, scaffold);
        let encoded = self.model.encode_segment(&all_tokens, &all_positions)?;
        let cost = pc_model::flops::model_prefill_flops(self.model.config(), encoded.len());
        self.store
            .insert(scaffold.key.clone(), encoded.clone(), cost as f64);
        Ok(encoded)
    }

    #[allow(clippy::too_many_arguments)]
    fn decode_loop<K: KvSeq>(
        &self,
        cache: &mut K,
        mut logits: Vec<f32>,
        max_new_tokens: usize,
        eos: TokenId,
        sampler: &mut dyn Sampler,
        started: Instant,
        on_token: &mut dyn FnMut(TokenId, usize),
        cancel: &CancelToken,
        telemetry: &Telemetry,
    ) -> Result<(Vec<TokenId>, Duration, Duration, ServeOutcome)> {
        let mut tokens = Vec::new();
        let mut ttft = Duration::ZERO;
        let mut outcome = ServeOutcome::Complete;
        let mut next_pos = cache.positions().iter().max().map_or(0, |p| p + 1);
        while tokens.len() < max_new_tokens {
            // Cooperative interruption point: polled before every sample,
            // so a cancel fired from `on_token` (or an elapsed deadline)
            // stops the generation before the next forward pass.
            if let Some(o) = cancel.interruption() {
                outcome = o;
                break;
            }
            let token = if tokens.is_empty() {
                // The first sample closes the TTFT window.
                let _sample_span = telemetry.span("sample");
                sampler.sample(&logits)
            } else {
                sampler.sample(&logits)
            };
            tokens.push(token);
            if tokens.len() == 1 {
                ttft = started.elapsed();
            }
            on_token(token, tokens.len());
            if token == eos || tokens.len() == max_new_tokens {
                break;
            }
            logits = self.model.prefill(&[token], &[next_pos], cache)?;
            next_pos += 1;
        }
        let decode = started.elapsed().saturating_sub(ttft);
        Ok((tokens, ttft, decode, outcome))
    }

    /// Snapshots the module library to the store's disk tier (see
    /// `docs/PERSISTENCE.md`): every in-memory module is written down
    /// and the tier's index is flushed, so the next process over the
    /// same directory starts warm. Returns how many modules were
    /// written. The format is the disk tier's own: crash-recoverable,
    /// checksummed, and optionally quantized ([`pc_cache::ColdEncoding`]).
    ///
    /// # Errors
    ///
    /// `InvalidInput` when the store has no disk tier configured
    /// ([`pc_cache::StoreConfig::disk`]); otherwise filesystem errors.
    pub fn snapshot(&self) -> std::io::Result<usize> {
        self.store.persist_all()
    }

    /// Promotes every disk-tier module into host memory — the restore
    /// half of warm restart, after constructing an engine whose store
    /// points at a previously snapshotted directory. Returns how many
    /// modules were promoted. Restoring is optional: lookups fall
    /// through to the disk tier lazily even without it; this just
    /// front-loads the decode cost. Call before registering schemas so
    /// registration reuses the restored entries instead of re-encoding.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when the store has no disk tier configured.
    pub fn restore(&self) -> std::io::Result<usize> {
        self.store.restore_all()
    }
}

impl std::fmt::Debug for PromptCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PromptCache")
            .field("model", &self.model.config().family)
            .field("schemas", &self.schemas.read().len())
            .field("cached_bytes", &self.store.host_bytes())
            .finish()
    }
}
