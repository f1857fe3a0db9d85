//! A multi-threaded serving layer over the Prompt Cache engine.
//!
//! The paper positions Prompt Cache as "a foundational component for
//! future LLM serving systems" (§1, §6). This crate is that serving
//! system in miniature:
//!
//! * [`Server`] — a bounded request queue drained by one
//!   continuous-batching tick thread (driving a
//!   [`prompt_cache::BatchScheduler`] over one shared
//!   [`prompt_cache::PromptCache`]) plus one admission thread that
//!   prefills joining requests while the batch decodes: requests join the
//!   in-flight decode batch at any step and leave independently, with
//!   greedy outputs byte-identical to solo serving. Every sequence in the
//!   batch reads the same cached module by `Arc`, and sequences sharing a
//!   module prefix attend to it as one group — the §3.4 batch-sharing
//!   optimisation;
//! * [`metrics`] — latency recording with percentile queries, the numbers
//!   a serving dashboard reads (p50/p95/p99 TTFT, throughput);
//! * [`capacity`] — the memory-budgeted batch-capacity model behind the
//!   paper's §5.4 throughput argument: sharing modules shrinks each
//!   request's KV footprint, so more requests fit one memory budget;
//! * [`trace`] — deterministic Poisson arrival traces and open-loop
//!   replay, the load methodology for serving experiments.
//!
//! # Resilience
//!
//! The server is built not to melt under overload or caller aborts
//! (DESIGN.md §8, docs/ARCHITECTURE.md for the full decision map):
//!
//! * **Deadlines.** [`prompt_cache::ServeOptions::deadline`] is converted
//!   to an absolute deadline *at submission*, so queue wait counts
//!   against the budget. Requests whose deadline passes in the queue are
//!   shed at pickup ([`ShedReason::DeadlineBeforeStart`]) without
//!   touching the engine; a serve that overruns mid-flight returns its
//!   partial output with `ServeOutcome::DeadlineExceeded`.
//! * **Bounded admission.** [`Server::submit_request`] is non-blocking
//!   by default and rejects under pressure ([`SubmitError::QueueFull`],
//!   or [`SubmitError::PredictedDeadlineExceeded`] when (queue depth +
//!   in-flight occupancy) × EWMA service time ÷ service slots already
//!   exceeds the request's deadline). [`SubmitRequest::blocking`] opts
//!   into waiting for queue space — fine for closed-loop benchmarks, a
//!   footgun for services.
//! * **Cancellation.** Every [`RequestHandle`] can
//!   [`cancel`](RequestHandle::cancel): in queue the request is shed
//!   ([`ShedReason::CancelledInQueue`]); mid-serve the engine stops
//!   within one decode step and returns the partial response.
//! * **Shutdown.** [`Server::shutdown`] drains; `shutdown_within`
//!   sheds queued work, cancels in-flight serves through a linked
//!   shutdown token, and bounds the wait by a grace period.
//! * **Chaos hooks.** [`WorkerFaults`] injects pre-serve stalls (see
//!   `pc-faults` for the deterministic seeded implementation).
//!
//! # Ops plane
//!
//! [`ServerConfig::ops_addr`] starts one std-only HTTP listener thread
//! serving `GET /metrics` (Prometheus), `/healthz` (admission + SLO
//! rollup), `/debug/cache` (store snapshot + per-module heat),
//! `/debug/batch` (live batch membership), and `/debug/flight` (the
//! flight recorder as JSON Lines). [`ServerConfig::flight_recorder`]
//! enables the fixed-capacity per-request event ring behind
//! `/debug/flight` and [`Server::flight_json`]. Both are off by default
//! and cost one `Option` check per request when disabled — see
//! `docs/OBSERVABILITY.md` for the full endpoint and event reference.
//!
//! # Example
//!
//! ```
//! use pc_model::{Model, ModelConfig};
//! use pc_server::{Server, ServerConfig, SubmitRequest};
//! use pc_tokenizer::WordTokenizer;
//! use prompt_cache::{EngineConfig, PromptCache};
//!
//! let tokenizer = WordTokenizer::train(&["hello world question"]);
//! let engine = PromptCache::new(
//!     Model::new(ModelConfig::llama_tiny(64), 0), tokenizer,
//!     EngineConfig::default());
//! engine.register_schema(
//!     r#"<schema name="s"><module name="m">hello world</module></schema>"#).unwrap();
//!
//! let server = Server::start(engine, ServerConfig::default());
//! let handle = server.submit_request(
//!     &SubmitRequest::new(r#"<prompt schema="s"><m/>question</prompt>"#)
//!         .max_new_tokens(2)).unwrap();
//! let result = handle.wait().unwrap();
//! assert!(result.outcome.is_ok());
//! server.shutdown();
//! ```
//!
//! # Fleet
//!
//! [`Router`] scales the same serving contract across N shards, each a
//! [`Server`] over its own engine built from one [`EngineBlueprint`]:
//! schemas are consistent-hash sharded ([`pc_cache::ShardMap`]) with a
//! configurable replication factor, requests route to the least-loaded
//! shard that already holds their modules hot (schema affinity), every
//! shard batches through the same serve loop, and a killed shard's
//! requests re-route to survivors — byte-identically, because non-owners
//! re-encode on demand.

#![warn(missing_docs)]

pub mod capacity;
pub mod fleet;
pub mod metrics;
mod ops;
mod server;
mod submit;
pub mod trace;
pub mod wire;

pub use fleet::{FleetConfig, FleetFaults, Router, WorkerInfo};
pub use server::{
    RequestHandle, RequestOutcome, RequestResult, Server, ServerConfig, ShedReason, SubmitError,
    WorkerFaults,
};
pub use submit::SubmitRequest;
pub use wire::EngineBlueprint;
