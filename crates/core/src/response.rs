//! Serving results: generated text plus the instrumentation every
//! benchmark reads.

use std::time::Duration;

/// Latency breakdown of one serve call.
///
/// `ttft` is the paper's headline metric — "the time to generate the
/// first token" — measured from serve entry, so it equals
/// `tokenize + fetch + prefill + first sample` (the full per-phase
/// accounting lives in [`TtftBreakdown`]). Decode time is identical
/// between Prompt Cache and the baseline by construction (§5: "Prompt
/// Cache and KV Cache have the same decoding latency after the first
/// token").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Timings {
    /// Time to first token.
    pub ttft: Duration,
    /// Of which: fetching + concatenating cached states.
    pub fetch: Duration,
    /// Of which: computing attention states for uncached tokens.
    pub prefill: Duration,
    /// Time spent decoding the remaining tokens.
    pub decode: Duration,
}

/// Exhaustive per-phase accounting of time-to-first-token, built from
/// cumulative checkpoints on one clock so the phases **sum exactly to
/// `Timings.ttft`** — the paper's Figure-3-style breakdown (attention
/// compute vs. KV retrieval) as first-class serve output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TtftBreakdown {
    /// Prompt parsing, schema resolution, and tokenisation of uncached
    /// text (zero-cache-adjacent work done before any state is touched).
    pub tokenize: Duration,
    /// Fetching cached module states and concatenating them into the
    /// session cache — the memcpy the paper trades attention FLOPs for.
    pub fetch: Duration,
    /// Transformer prefill over the uncached tokens at gap positions.
    pub prefill: Duration,
    /// Sampling the first output token from the prefill logits.
    pub sample: Duration,
}

impl TtftBreakdown {
    /// Sum of all phases — equals the measured TTFT by construction.
    pub fn total(&self) -> Duration {
        self.tokenize + self.fetch + self.prefill + self.sample
    }

    /// `(phase name, duration)` pairs in pipeline order, for reports.
    pub fn phases(&self) -> [(&'static str, Duration); 4] {
        [
            ("tokenize", self.tokenize),
            ("fetch", self.fetch),
            ("prefill", self.prefill),
            ("sample", self.sample),
        ]
    }
}

/// How a serve call ended: to completion, or interrupted cooperatively.
///
/// Interrupted serves still return `Ok(Response)` — with whatever tokens
/// were produced before the interruption landed — so callers always get a
/// typed, partial result instead of an error or a hang. Check this field
/// before treating `tokens` as a finished generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeOutcome {
    /// The generation ran to its natural end (EOS or the token budget).
    #[default]
    Complete,
    /// The caller fired the request's [`crate::CancelToken`]; `tokens`
    /// holds everything produced before the cancel was observed.
    Cancelled,
    /// The request's deadline passed mid-serve; `tokens` holds the
    /// partial output produced within the budget.
    DeadlineExceeded,
}

impl ServeOutcome {
    /// Whether the serve ran to completion.
    pub fn is_complete(&self) -> bool {
        matches!(self, ServeOutcome::Complete)
    }

    /// Whether the serve was cut short (cancelled or past deadline).
    pub fn is_interrupted(&self) -> bool {
        !self.is_complete()
    }
}

/// Cache-effectiveness counters for one serve call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Prompt tokens whose states came from the cache.
    pub cached_tokens: usize,
    /// Prompt tokens computed this call (arguments + new text).
    pub new_tokens: usize,
    /// Bytes of cached states assembled into the session cache.
    pub bytes_reused: usize,
    /// Of which: bytes aliased as `Arc`-shared segments — zero memcpy.
    /// Assembly only ever aliases, so this equals `bytes_reused`.
    pub bytes_shared: usize,
    /// Always 0: no serving path memcpys cached states into a session.
    /// Kept because `benchmark/` reads the field.
    pub bytes_copied: usize,
    /// Whether a scaffold satisfied part of the prompt.
    pub used_scaffold: bool,
    /// Cached spans that were missing or corrupt at fetch time and were
    /// **recomputed from their tokens** instead (graceful degradation).
    /// Zero on the healthy path; a nonzero value means this serve paid
    /// extra prefill FLOPs but produced byte-identical output.
    pub degraded_spans: usize,
}

impl ServeStats {
    /// Fraction of prompt tokens served from cache.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.cached_tokens + self.new_tokens;
        if total == 0 {
            0.0
        } else {
            self.cached_tokens as f64 / total as f64
        }
    }
}

/// The result of serving one prompt.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Decoded output text.
    pub text: String,
    /// Generated token ids.
    pub tokens: Vec<u32>,
    /// Latency breakdown.
    pub timings: Timings,
    /// Per-phase TTFT accounting (phases sum to `timings.ttft`).
    pub breakdown: TtftBreakdown,
    /// Cache counters.
    pub stats: ServeStats,
    /// How the serve ended: [`ServeOutcome::Complete`], or an
    /// interruption that made this a partial response.
    pub outcome: ServeOutcome,
    /// Non-fatal issues from prompt resolution.
    pub warnings: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total_sums_phases() {
        let b = TtftBreakdown {
            tokenize: Duration::from_micros(10),
            fetch: Duration::from_micros(20),
            prefill: Duration::from_micros(30),
            sample: Duration::from_micros(5),
        };
        assert_eq!(b.total(), Duration::from_micros(65));
        assert_eq!(b.phases()[0], ("tokenize", Duration::from_micros(10)));
        assert_eq!(b.phases().iter().map(|(_, d)| *d).sum::<Duration>(), b.total());
    }

    #[test]
    fn hit_ratio_bounds() {
        let mut s = ServeStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        s.cached_tokens = 3;
        s.new_tokens = 1;
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
        s.new_tokens = 0;
        assert_eq!(s.hit_ratio(), 1.0);
    }
}
