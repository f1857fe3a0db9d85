//! Trace-driven load replay: Poisson arrivals over a prompt mix.
//!
//! Serving papers evaluate under open-loop load; this module generates
//! deterministic Poisson arrival traces and replays them against a
//! [`crate::Server`], reporting the latency distribution the offered load
//! produced — the methodology for exercising the §5.4 throughput claims
//! beyond closed-loop bursts.

use crate::metrics::LatencyRecorder;
use crate::{Server, SubmitRequest};
use prompt_cache::ServeOptions;
use std::time::{Duration, Instant};

/// One scheduled arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Offset from replay start.
    pub at: Duration,
    /// Index into the prompt mix.
    pub prompt_index: usize,
}

/// Generates a deterministic Poisson arrival trace: `requests` arrivals
/// at `rate_hz` mean rate, cycling through `num_prompts` prompt-mix
/// entries. Inter-arrival gaps are exponential via inverse-CDF over a
/// seeded xorshift stream.
pub fn poisson_trace(
    requests: usize,
    rate_hz: f64,
    num_prompts: usize,
    seed: u64,
) -> Vec<TraceEvent> {
    assert!(rate_hz > 0.0, "arrival rate must be positive");
    assert!(num_prompts > 0, "need at least one prompt");
    let mut state = seed | 1;
    let mut uniform = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let x = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        // map to (0, 1]
        ((x >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    };
    let mut at = 0.0f64;
    (0..requests)
        .map(|i| {
            at += -uniform().ln() / rate_hz;
            TraceEvent {
                at: Duration::from_secs_f64(at),
                prompt_index: i % num_prompts,
            }
        })
        .collect()
}

/// Replay outcome.
#[derive(Debug)]
pub struct ReplayReport {
    /// Wall-clock duration of the whole replay.
    pub wall: Duration,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests that errored (the engine returned an error).
    pub failed: u64,
    /// Requests whose handle yielded no result at all (the server shut
    /// down before serving them) — distinct from `failed`, which saw an
    /// engine error.
    pub dropped: u64,
    /// Requests shed by the server (load-shedding, deadline passed in
    /// queue, cancelled, or shutdown drain) — see
    /// [`crate::RequestOutcome::Shed`].
    pub shed: u64,
    /// Of the completed requests: how many returned a *partial* response
    /// ([`prompt_cache::ServeOutcome`] cancelled/deadline-exceeded).
    pub interrupted: u64,
    /// End-to-end latency (submission → completion) distribution: each
    /// request's own queue wait plus service time as the server measured
    /// them — not the moment the replay collected its handle, which is
    /// after the whole trace has been submitted.
    pub e2e: LatencyRecorder,
    /// Queue-wait distribution across all requests that produced a
    /// result (served or shed).
    pub queue: LatencyRecorder,
    /// TTFT distribution across completed requests.
    pub ttft: LatencyRecorder,
    /// Per-phase TTFT breakdown distributions (from each completed
    /// response's [`prompt_cache::TtftBreakdown`]), keyed
    /// tokenize/fetch/prefill/sample.
    pub phases: [(&'static str, LatencyRecorder); 4],
}

impl ReplayReport {
    /// Achieved goodput in requests/second.
    pub fn goodput_rps(&self) -> f64 {
        self.completed as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Human-readable multi-line summary: counts, goodput, end-to-end and
    /// TTFT percentiles, and per-phase TTFT percentiles.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "replay: {} completed, {} failed, {} dropped, {} shed, {} interrupted in {:.3}s ({:.1} req/s)",
            self.completed,
            self.failed,
            self.dropped,
            self.shed,
            self.interrupted,
            self.wall.as_secs_f64(),
            self.goodput_rps(),
        );
        let line = |out: &mut String, name: &str, rec: &LatencyRecorder| {
            let p = |q| {
                rec.percentile(q)
                    .map_or_else(|| "-".to_owned(), |d| format!("{:.3}ms", d.as_secs_f64() * 1e3))
            };
            let _ = writeln!(
                out,
                "  {name:<10} p50 {:>10}  p95 {:>10}  p99 {:>10}",
                p(50.0),
                p(95.0),
                p(99.0)
            );
        };
        line(&mut out, "e2e", &self.e2e);
        line(&mut out, "queue", &self.queue);
        line(&mut out, "ttft", &self.ttft);
        for (name, rec) in &self.phases {
            line(&mut out, name, rec);
        }
        out
    }
}

/// Replays `trace` against `server`: each event submits
/// `prompts[event.prompt_index]` at its scheduled offset (sleeping as
/// needed), then all completions are awaited.
pub fn replay(
    server: &Server,
    prompts: &[String],
    trace: &[TraceEvent],
    options: &ServeOptions,
) -> ReplayReport {
    let start = Instant::now();
    let mut pending = Vec::with_capacity(trace.len());
    for event in trace {
        if let Some(wait) = event.at.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let request = SubmitRequest::new(prompts[event.prompt_index].clone())
            .options(options.clone())
            .blocking(true);
        let handle = server
            .submit_request(&request)
            .expect("blocking submit cannot fail");
        pending.push(handle);
    }
    let e2e = LatencyRecorder::new();
    let queue = LatencyRecorder::new();
    let ttft = LatencyRecorder::new();
    let phases = [
        ("tokenize", LatencyRecorder::new()),
        ("fetch", LatencyRecorder::new()),
        ("prefill", LatencyRecorder::new()),
        ("sample", LatencyRecorder::new()),
    ];
    let mut completed = 0;
    let mut failed = 0;
    let mut dropped = 0;
    let mut shed = 0;
    let mut interrupted = 0;
    for handle in pending {
        match handle.wait() {
            Some(result) => {
                queue.record(result.queue_time);
                match result.outcome {
                    crate::RequestOutcome::Ok(response) => {
                        completed += 1;
                        if response.outcome.is_interrupted() {
                            interrupted += 1;
                        }
                        e2e.record(result.queue_time + result.service_time);
                        ttft.record(response.timings.ttft);
                        for ((_, rec), (_, dur)) in
                            phases.iter().zip(response.breakdown.phases())
                        {
                            rec.record(dur);
                        }
                    }
                    crate::RequestOutcome::Err(_) => failed += 1,
                    crate::RequestOutcome::Shed(_) => shed += 1,
                }
            }
            None => dropped += 1,
        }
    }
    ReplayReport {
        wall: start.elapsed(),
        completed,
        failed,
        dropped,
        shed,
        interrupted,
        e2e,
        queue,
        ttft,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerConfig;
    use pc_model::{Model, ModelConfig};
    use pc_tokenizer::{Tokenizer, WordTokenizer};
    use prompt_cache::{EngineConfig, PromptCache};

    /// A worker-pool server over a one-module schema, and two prompts
    /// that import the module.
    fn server_and_prompts(workers: usize) -> (Server, Vec<String>) {
        let corpus = "alpha beta gamma delta question one two";
        let tokenizer = WordTokenizer::train(&[corpus]);
        let vocab = tokenizer.vocab_size().max(64);
        let engine = PromptCache::new(
            Model::new(ModelConfig::llama_tiny(vocab), 2),
            tokenizer,
            EngineConfig::default(),
        );
        engine
            .register_schema(
                r#"<schema name="t"><module name="m">alpha beta gamma delta</module></schema>"#,
            )
            .unwrap();
        let server = Server::start(
            engine,
            ServerConfig::default().workers(workers).queue_capacity(64),
        );
        let prompts = vec![
            r#"<prompt schema="t"><m/>question one</prompt>"#.to_owned(),
            r#"<prompt schema="t"><m/>question two</prompt>"#.to_owned(),
        ];
        (server, prompts)
    }

    #[test]
    fn trace_is_deterministic_and_monotone() {
        let a = poisson_trace(50, 100.0, 3, 7);
        let b = poisson_trace(50, 100.0, 3, 7);
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[1].at >= w[0].at);
        }
        assert_ne!(a, poisson_trace(50, 100.0, 3, 8));
    }

    #[test]
    fn mean_interarrival_matches_rate() {
        let trace = poisson_trace(2000, 250.0, 1, 3);
        let total = trace.last().unwrap().at.as_secs_f64();
        let mean_gap = total / trace.len() as f64;
        assert!((mean_gap - 1.0 / 250.0).abs() < 0.0008, "{mean_gap}");
    }

    #[test]
    fn prompt_mix_cycles() {
        let trace = poisson_trace(6, 10.0, 3, 1);
        let idx: Vec<usize> = trace.iter().map(|e| e.prompt_index).collect();
        assert_eq!(idx, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn replay_completes_offered_load() {
        let (server, prompts) = server_and_prompts(2);
        let trace = poisson_trace(20, 500.0, prompts.len(), 11);
        let report = replay(
            &server,
            &prompts,
            &trace,
            &ServeOptions::default().max_new_tokens(1),
        );
        assert_eq!(report.completed, 20);
        assert_eq!(report.failed, 0);
        assert_eq!(report.dropped, 0);
        assert!(report.goodput_rps() > 1.0);
        assert!(report.e2e.percentile(99.0).unwrap() >= report.e2e.percentile(50.0).unwrap());
        // Per-phase breakdown distributions cover every completed request.
        assert_eq!(report.ttft.len(), 20);
        for (name, rec) in &report.phases {
            assert_eq!(rec.len(), 20, "phase {name}");
        }
        let summary = report.summary();
        assert!(summary.contains("20 completed, 0 failed, 0 dropped"), "{summary}");
        for phase in ["tokenize", "fetch", "prefill", "sample"] {
            assert!(summary.contains(phase), "{summary}");
        }
        server.shutdown();
    }

    #[test]
    fn e2e_measures_each_request_not_the_trace() {
        // 24 fast serves spread over ≥ 240 ms: a request's end-to-end time
        // is its own queue wait + service time, so it must sit far below
        // the trace length however late the replay collects its handle —
        // and it can never undercut the same request's TTFT.
        let (server, prompts) = server_and_prompts(1);
        let trace: Vec<TraceEvent> = (0..24)
            .map(|i| TraceEvent {
                at: Duration::from_millis(10 * (i + 1)),
                prompt_index: i as usize % prompts.len(),
            })
            .collect();
        let trace_len = trace.last().unwrap().at;
        let report = replay(
            &server,
            &prompts,
            &trace,
            &ServeOptions::default().max_new_tokens(1),
        );
        assert_eq!(report.completed, 24);
        let e2e_p95 = report.e2e.percentile(95.0).unwrap();
        assert!(e2e_p95 < trace_len / 10, "e2e p95 {e2e_p95:?} of a {trace_len:?} trace");
        assert!(e2e_p95 >= report.ttft.percentile(95.0).unwrap());
        server.shutdown();
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        poisson_trace(1, 0.0, 1, 1);
    }
}

#[cfg(test)]
mod overload_tests {
    use super::*;
    use crate::ServerConfig;
    use pc_model::{Model, ModelConfig};
    use pc_tokenizer::{Tokenizer, WordTokenizer};
    use prompt_cache::{EngineConfig, PromptCache, ServeOptions};

    #[test]
    fn overload_degrades_gracefully_without_loss() {
        // Offered load far above capacity: everything still completes
        // (closed channel admission blocks, no drops) and tail latency
        // grows beyond the median.
        let doc: String = (0..200).map(|i| format!("w{} ", i % 31)).collect();
        let corpus = format!("{doc} q");
        let tokenizer = WordTokenizer::train(&[corpus.as_str()]);
        let vocab = tokenizer.vocab_size().max(64);
        let engine = PromptCache::new(
            Model::new(ModelConfig::llama_small(vocab), 4),
            tokenizer,
            EngineConfig::default(),
        );
        engine
            .register_schema(&format!(
                r#"<schema name="o"><module name="doc">{doc}</module></schema>"#
            ))
            .unwrap();
        let server = Server::start(
            engine,
            ServerConfig::default().workers(1).queue_capacity(8),
        );
        let prompts = vec![r#"<prompt schema="o"><doc/>q</prompt>"#.to_owned()];
        // 40 arrivals at a nominal 10 kHz — far beyond one worker.
        let trace = poisson_trace(40, 10_000.0, 1, 5);
        let report = replay(
            &server,
            &prompts,
            &trace,
            &ServeOptions::default().max_new_tokens(1),
        );
        assert_eq!(report.completed, 40);
        assert_eq!(report.failed, 0);
        let p50 = report.e2e.percentile(50.0).unwrap();
        let p99 = report.e2e.percentile(99.0).unwrap();
        assert!(p99 > p50, "queueing must show up in the tail");
        server.shutdown();
    }
}
