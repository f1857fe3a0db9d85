//! Facade crate: re-exports the Prompt Cache reproduction workspace so
//! examples and integration tests can reach every subsystem.
pub use pc_bench as bench;
pub use pc_rag as rag;
pub use pc_server as server;
pub use pc_cache as cache;
pub use pc_longbench as longbench;
pub use pc_model as model;
pub use pc_pml as pml;
pub use pc_simulator as simulator;
pub use pc_tensor as tensor;
pub use pc_tokenizer as tokenizer;
pub use prompt_cache as engine;

/// The unified error and outcome taxonomy, gathered under one roof.
///
/// Every failure a caller can see flows through exactly one of these
/// types, at a well-defined layer:
///
/// * [`pc::Error`] — the engine failed to parse, register, or serve
///   (this is `prompt_cache::EngineError` re-exported as the top-level
///   error type);
/// * [`pc::SubmitError`] — admission rejected a submission before it
///   ever queued (queue full, predicted deadline overrun);
/// * [`pc::ShedReason`] — a queued request was dropped before a worker
///   picked it up (cancelled in queue, deadline already passed,
///   shutdown);
/// * [`pc::ServeOutcome`] — how an accepted serve ended (complete,
///   cancelled, deadline exceeded).
///
/// The single-process [`Server`](pc_server::Server) and the sharded
/// [`Router`](pc_server::Router) share this taxonomy — there is no
/// fleet-specific error surface to learn.
pub mod pc {
    pub use pc_server::{ShedReason, SubmitError};
    pub use prompt_cache::EngineError as Error;
    pub use prompt_cache::{Result, ServeOutcome};
}
