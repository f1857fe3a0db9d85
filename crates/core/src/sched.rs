//! Continuous batching: a scheduler that interleaves many in-flight
//! serves through one batched decode step per tick.
//!
//! [`BatchScheduler`] admits requests at any decode step (they join the
//! in-flight batch as soon as their prefill finishes) and retires them
//! independently (EOS, token budget, deadline, or cancellation). Each
//! tick of [`BatchScheduler::step`] samples one token per sequence, then
//! runs **one** batched forward pass over all survivors
//! ([`pc_model::Model::decode_step_batch`]), so the weight-matrix
//! traversal is shared across the batch while every sequence keeps its
//! own segmented [`pc_model::KvView`] over the shared module blocks.
//!
//! **Identity invariant.** The scheduler mirrors the solo decode loop
//! exactly — same cancellation poll point, same sample-then-check order,
//! same position bookkeeping — and the batched kernels are bit-identical
//! to their solo counterparts, so a greedy serve produces byte-identical
//! output whether it runs alone or joins a batch of any size and any
//! membership history.
//!
//! **Two halves of an admission.** [`BatchScheduler::prepare`] runs the
//! prepare half of the serve pipeline (resolve → fetch → prefill) and
//! needs only the engine, so it runs on any thread and returns an
//! [`Admission`] that is `Send`. [`BatchScheduler::join`] inserts that
//! admission into the batch at the current decode step; it and
//! [`BatchScheduler::step`] need `&mut self`, so the batch itself has one
//! owner. [`BatchScheduler::admit`] is `prepare` then `join` on the
//! caller's thread. The server prefills on a second thread while its tick
//! thread keeps stepping, so one request's prefill does not hold up the
//! decode of every sequence already in the batch.

use crate::engine::{PendingDecode, Prepared, PromptCache, ServeOptions};
use crate::response::{Response, ServeOutcome};
use crate::Result;
use pc_model::{BatchScratch, KvSeq, PrefixGroup, TokenId};
use pc_telemetry::export::SCHEDULER_TICK_SPAN;
use pc_telemetry::{Counter, Gauge, Histogram, Telemetry};
use std::time::Duration;

/// Configuration for a [`BatchScheduler`].
///
/// ```
/// use prompt_cache::BatchConfig;
///
/// let config = BatchConfig::default().max_batch_size(4);
/// assert_eq!(config.max_batch_size, 4);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct BatchConfig {
    /// Upper bound on concurrently decoding sequences. Admission beyond
    /// the bound is the caller's to gate (the server's batch loop stops
    /// pulling from the queue when the batch is full).
    pub max_batch_size: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { max_batch_size: 8 }
    }
}

impl BatchConfig {
    /// Sets the maximum number of concurrently decoding sequences.
    #[must_use]
    pub fn max_batch_size(mut self, n: usize) -> Self {
        self.max_batch_size = n.max(1);
        self
    }
}

/// Pre-resolved batching telemetry handles.
struct BatchMetrics {
    /// Current in-flight batch size.
    batch_size: Gauge,
    /// Batch occupancy observed at each step.
    occupancy: Histogram,
    /// Tokens generated across all batched sequences.
    tokens: Counter,
    /// Batched decode steps executed.
    steps: Counter,
    /// KV rows streamed once per tile of prefix-group members.
    shared_rows: Counter,
    /// KV rows streamed for a single sequence (tails, unshared caches).
    private_rows: Counter,
    /// Shared fraction of the last tick's KV row reads, in percent.
    share_ratio: Gauge,
}

impl BatchMetrics {
    fn resolve(telemetry: &Telemetry) -> Self {
        BatchMetrics {
            batch_size: telemetry.gauge("pc_batch_size"),
            occupancy: telemetry
                .histogram("pc_batch_occupancy", &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]),
            tokens: telemetry.counter("pc_tokens_generated_total"),
            steps: telemetry.counter("pc_batch_steps_total"),
            shared_rows: telemetry.counter("pc_kv_rows_shared_read_total"),
            private_rows: telemetry.counter("pc_kv_rows_private_read_total"),
            share_ratio: telemetry.gauge("pc_batch_share_ratio"),
        }
    }
}

/// Point-in-time batch state reported by
/// [`BatchScheduler::debug_snapshot`] — the `/debug/batch` payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSnapshot {
    /// Configured batch-size ceiling.
    pub max_batch_size: usize,
    /// Every in-flight sequence, in batch order.
    pub sequences: Vec<BatchSeqInfo>,
    /// The prefix groups the next prefix-aware tick would form.
    pub groups: Vec<BatchGroupInfo>,
}

/// One in-flight sequence in a [`BatchSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSeqInfo {
    /// Caller-assigned request id.
    pub id: u64,
    /// Tokens sampled so far.
    pub tokens_generated: usize,
    /// Next decode position.
    pub next_pos: usize,
    /// KV rows this sequence aliases zero-copy from shared modules.
    pub shared_rows: usize,
}

/// One prefix group in a [`BatchSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchGroupInfo {
    /// Request ids of the group's members (contiguous batch run).
    pub members: Vec<u64>,
    /// Leading segments every member shares.
    pub prefix_segments: usize,
    /// KV rows those segments contribute.
    pub prefix_rows: usize,
    /// Whether the group shares rows worth hoisting (len ≥ 2 and rows > 0).
    pub shared: bool,
}

/// One in-flight sequence: a prepared serve plus its decode progress.
struct Seq {
    id: u64,
    p: Box<PendingDecode>,
    tokens: Vec<TokenId>,
    ttft: Duration,
}

/// A request that has been through [`BatchScheduler::prepare`] and waits
/// for [`BatchScheduler::join`]: either prefilled and positioned at its
/// first sample, or already finished (interrupted before decode, or a
/// zero token budget). `Send`, so it can be prepared on one thread and
/// joined on the thread that owns the batch.
pub struct Admission {
    id: u64,
    state: AdmissionState,
}

enum AdmissionState {
    Done(Box<Response>),
    Ready(Box<PendingDecode>),
}

impl Admission {
    /// The caller-assigned request id.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl std::fmt::Debug for Admission {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Admission")
            .field("id", &self.id)
            .field("ready", &matches!(self.state, AdmissionState::Ready(_)))
            .finish()
    }
}

/// An [`Admission`] crosses from the thread that prefills it to the
/// thread that owns the batch.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Admission>();
};

/// A continuous-batching scheduler over one engine.
///
/// Drive it by alternating admissions (join — any time, including
/// mid-decode of the existing batch) and [`BatchScheduler::step`] (one
/// token for every in-flight sequence; finished sequences leave and are
/// returned). The batch has one owner, the thread that calls `join` and
/// `step`; the prefill half of an admission ([`BatchScheduler::prepare`])
/// may run on another thread.
pub struct BatchScheduler<'e> {
    engine: &'e PromptCache,
    config: BatchConfig,
    seqs: Vec<Seq>,
    /// Joined admissions that finished without decoding (interrupted
    /// before decode, or zero-budget), delivered at the next `step`.
    done: Vec<(u64, Response)>,
    metrics: BatchMetrics,
    /// Where tick spans are recorded (defaults to the engine's handle;
    /// [`BatchScheduler::with_telemetry`] re-targets it).
    telemetry: Telemetry,
    /// Model-owned buffers (activations, scores, CSR segment lists,
    /// prefix groups) reused across every tick of this scheduler.
    scratch: BatchScratch,
}

impl<'e> BatchScheduler<'e> {
    /// A scheduler over `engine`, reporting through the engine's
    /// telemetry.
    pub fn new(engine: &'e PromptCache, config: BatchConfig) -> Self {
        let metrics = BatchMetrics::resolve(engine.telemetry());
        BatchScheduler {
            engine,
            config,
            seqs: Vec::new(),
            done: Vec::new(),
            metrics,
            telemetry: engine.telemetry().clone(),
            scratch: BatchScratch::new(),
        }
    }

    /// Re-resolves the batching metrics (`pc_batch_size`,
    /// `pc_batch_occupancy`, `pc_tokens_generated_total`,
    /// `pc_batch_steps_total`, `pc_kv_rows_shared_read_total`,
    /// `pc_kv_rows_private_read_total`, `pc_batch_share_ratio`) against
    /// `telemetry` instead of the engine's registry — the server uses
    /// this to record into its always-on registry even when engine
    /// telemetry is disabled.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.metrics = BatchMetrics::resolve(telemetry);
        self.telemetry = telemetry.clone();
        self
    }

    /// Number of sequences currently decoding.
    pub fn in_flight(&self) -> usize {
        self.seqs.len()
    }

    /// Whether nothing is in flight and nothing is waiting to be
    /// delivered.
    pub fn is_idle(&self) -> bool {
        self.seqs.is_empty() && self.done.is_empty()
    }

    /// Admits a request on the calling thread:
    /// [`BatchScheduler::prepare`] followed by [`BatchScheduler::join`].
    ///
    /// # Errors
    ///
    /// PML/resolution errors, unknown schemas, or model failures during
    /// prefill — the request never joins the batch.
    pub fn admit(&mut self, id: u64, prompt_pml: &str, options: &ServeOptions) -> Result<()> {
        let admission = Self::prepare(self.engine, id, prompt_pml, options)?;
        self.join(admission);
        Ok(())
    }

    /// The first half of an admission: runs the prepare half of the
    /// serve pipeline (resolve → fetch → prefill) over `engine`, on the
    /// calling thread, without touching any scheduler. The result joins a
    /// batch over the same engine with [`BatchScheduler::join`].
    ///
    /// # Errors
    ///
    /// PML/resolution errors, unknown schemas, or model failures during
    /// prefill — the request never joins the batch.
    pub fn prepare(
        engine: &PromptCache,
        id: u64,
        prompt_pml: &str,
        options: &ServeOptions,
    ) -> Result<Admission> {
        let state = match engine.begin_serve(prompt_pml, options)? {
            Prepared::Done(response, _view) => AdmissionState::Done(response),
            Prepared::Ready(p) if p.max_new_tokens == 0 => {
                // Mirror the solo loop: a zero budget produces an empty
                // completion without a single decode step.
                let (response, _view) = engine.finalize_serve(
                    *p,
                    Vec::new(),
                    Duration::ZERO,
                    Duration::ZERO,
                    ServeOutcome::Complete,
                );
                AdmissionState::Done(Box::new(response))
            }
            Prepared::Ready(p) => AdmissionState::Ready(p),
        };
        Ok(Admission { id, state })
    }

    /// The second half of an admission: joins a prepared request to the
    /// in-flight batch at the current decode step. A request that
    /// finished without decoding (interrupted, zero token budget) is
    /// delivered by the next [`BatchScheduler::step`]. `admission` must
    /// have been prepared over this scheduler's engine.
    ///
    /// To keep same-prefix sequences in **contiguous** batch runs — the
    /// shape the prefix-aware kernel groups on — a new sequence is
    /// inserted directly after the last in-flight sequence whose cache
    /// leads with the same shared segment; unrelated sequences append at
    /// the end. Batch position never affects any sequence's output (each
    /// attends only to its own cache), so this reordering is invisible
    /// in results.
    pub fn join(&mut self, admission: Admission) {
        let Admission { id, state } = admission;
        match state {
            AdmissionState::Done(response) => self.done.push((id, *response)),
            AdmissionState::Ready(p) => {
                let at = p
                    .view
                    .shared_segment_id(0)
                    .and_then(|lead| {
                        self.seqs
                            .iter()
                            .rposition(|s| s.p.view.shared_segment_id(0) == Some(lead))
                    })
                    .map_or(self.seqs.len(), |last| last + 1);
                let seq = Seq {
                    id,
                    p,
                    tokens: Vec::new(),
                    ttft: Duration::ZERO,
                };
                self.seqs.insert(at, seq);
            }
        }
        self.metrics.batch_size.set(self.seqs.len() as i64);
    }

    /// One scheduler tick: sample a token for every in-flight sequence,
    /// retire the finished ones (EOS / budget / interruption), and run a
    /// single batched forward pass over the survivors. Returns every
    /// serve that completed this tick (including those finished at
    /// admission), in no particular order.
    pub fn step(&mut self) -> Vec<(u64, Result<Response>)> {
        let mut out: Vec<(u64, Result<Response>)> = self
            .done
            .drain(..)
            .map(|(id, response)| (id, Ok(response)))
            .collect();
        if self.seqs.is_empty() {
            self.metrics.batch_size.set(0);
            return out;
        }
        self.metrics.occupancy.observe(self.seqs.len() as f64);
        self.metrics.steps.inc();
        // The tick span wraps phase A + B; the Chrome-trace exporter
        // routes spans with this name to a dedicated logical lane so
        // scheduler ticks don't interleave with worker spans.
        let _tick_span = self.telemetry.span(SCHEDULER_TICK_SPAN);

        // Phase A — per-sequence sampling, mirroring the solo decode
        // loop: poll interruption, sample, record TTFT on the first
        // token, retire on EOS or budget exhaustion.
        let seqs = std::mem::take(&mut self.seqs);
        let mut still: Vec<Seq> = Vec::with_capacity(seqs.len());
        for mut seq in seqs {
            if let Some(outcome) = seq.p.cancel.interruption() {
                out.push(self.finish(seq, outcome));
                continue;
            }
            let token = seq.p.sampler.sample(&seq.p.logits);
            seq.tokens.push(token);
            if seq.tokens.len() == 1 {
                seq.ttft = seq.p.started.elapsed();
            }
            self.metrics.tokens.inc();
            if token == seq.p.eos || seq.tokens.len() == seq.p.max_new_tokens {
                out.push(self.finish(seq, ServeOutcome::Complete));
            } else {
                still.push(seq);
            }
        }

        // Phase B — one batched forward pass over every survivor: each
        // sequence contributes its last sampled token at its own next
        // position, against its own segmented cache view.
        if !still.is_empty() {
            let tokens: Vec<TokenId> = still.iter().map(|s| *s.tokens.last().expect("sampled")).collect();
            let positions: Vec<usize> = still.iter().map(|s| s.p.next_pos).collect();
            let batch = {
                let mut views: Vec<&mut pc_model::KvView> =
                    still.iter_mut().map(|s| &mut s.p.view).collect();
                self.engine.model().decode_step_batch_with(
                    &tokens,
                    &positions,
                    &mut views,
                    &mut self.scratch,
                )
            };
            let stats = self.scratch.stats();
            self.metrics.shared_rows.add(stats.shared_rows_read);
            self.metrics.private_rows.add(stats.private_rows_read);
            if stats.total_rows_read() > 0 {
                self.metrics.share_ratio.set(stats.share_percent());
            }
            // Per-module shared-row attribution (opt-in via the store's
            // analytics table): each shared group's prefix segments were
            // streamed once for the whole group this tick; credit those
            // row reads (in the same row × layer units as the counters
            // above) to the modules the segments alias.
            if stats.shared_rows_read > 0 {
                if let Some(analytics) = self.engine.store().analytics() {
                    let layers = self.engine.model().config().num_layers as u64;
                    for g in self.scratch.groups() {
                        if !g.is_shared() {
                            continue;
                        }
                        let view = &still[g.start].p.view;
                        for i in 0..g.prefix_segments {
                            if let Some(id) = view.shared_segment_id(i) {
                                analytics
                                    .record_shared_rows_for_segment(id, id.rows() as u64 * layers);
                            }
                        }
                    }
                }
            }
            match batch {
                Ok(rows) => {
                    for (seq, row) in still.iter_mut().zip(rows) {
                        seq.p.logits = row;
                        seq.p.next_pos += 1;
                    }
                    self.seqs = still;
                }
                Err(_) => {
                    // A malformed member would poison the whole batched
                    // step; fall back to per-sequence solo passes so the
                    // failure is attributed to the sequence that caused
                    // it and the rest of the batch survives.
                    for (i, mut seq) in still.into_iter().enumerate() {
                        match self.engine.model().prefill(
                            &tokens[i..=i],
                            &positions[i..=i],
                            &mut seq.p.view,
                        ) {
                            Ok(logits) => {
                                seq.p.logits = logits;
                                seq.p.next_pos += 1;
                                self.seqs.push(seq);
                            }
                            Err(e) => out.push((seq.id, Err(e.into()))),
                        }
                    }
                }
            }
        }
        self.metrics.batch_size.set(self.seqs.len() as i64);
        out
    }

    /// Point-in-time view of the batch for `/debug/batch`: every
    /// in-flight sequence plus the prefix groups the next prefix-aware
    /// tick would form, recomputed fresh over the current membership so
    /// admissions since the last tick are included.
    pub fn debug_snapshot(&self) -> BatchSnapshot {
        let mut groups: Vec<PrefixGroup> = Vec::new();
        pc_model::group_adjacent_prefixes(
            self.seqs.len(),
            |s, i| self.seqs[s].p.view.shared_segment_id(i),
            &mut groups,
        );
        BatchSnapshot {
            max_batch_size: self.config.max_batch_size,
            sequences: self
                .seqs
                .iter()
                .map(|s| BatchSeqInfo {
                    id: s.id,
                    tokens_generated: s.tokens.len(),
                    next_pos: s.p.next_pos,
                    shared_rows: s.p.view.shared_rows(),
                })
                .collect(),
            groups: groups
                .iter()
                .map(|g| BatchGroupInfo {
                    members: self.seqs[g.start..g.start + g.len]
                        .iter()
                        .map(|s| s.id)
                        .collect(),
                    prefix_segments: g.prefix_segments,
                    prefix_rows: g.prefix_rows,
                    shared: g.is_shared(),
                })
                .collect(),
        }
    }

    /// Retires one sequence through the shared finalize half of the
    /// serve pipeline.
    fn finish(&self, seq: Seq, outcome: ServeOutcome) -> (u64, Result<Response>) {
        let Seq { id, p, tokens, ttft } = seq;
        let decode = if tokens.is_empty() {
            Duration::ZERO
        } else {
            p.started.elapsed().saturating_sub(ttft)
        };
        let (response, _view) = self.engine.finalize_serve(*p, tokens, ttft, decode, outcome);
        (id, Ok(response))
    }
}

impl std::fmt::Debug for BatchScheduler<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchScheduler")
            .field("max_batch_size", &self.config.max_batch_size)
            .field("in_flight", &self.seqs.len())
            .field("pending_done", &self.done.len())
            .finish()
    }
}
