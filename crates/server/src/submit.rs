//! The unified request-submission API.
//!
//! [`SubmitRequest`] is one builder for every kind of submission,
//! mirroring the engine's `ServeRequest` pattern: construct with the
//! prompt, chain what you need, pass to [`Server::submit_request`] — or
//! to the fleet's [`Router::submit`](crate::Router::submit), which
//! accepts the same request type.
//!
//! ```ignore
//! let req = SubmitRequest::new(prompt)
//!     .max_new_tokens(16)
//!     .deadline(Duration::from_millis(250));
//! let handle = server.submit_request(&req)?;
//! ```
//!
//! Admission mode is an option, not a method name: the default is
//! **non-blocking** (queue-full and predicted-deadline sheds return
//! [`SubmitError`]); `.blocking(true)` waits for queue space instead
//! (closed-loop benchmarks) and never errors. Baseline (full-prefill)
//! serving is `.baseline(true)`.

use std::time::Duration;

use prompt_cache::{CancelToken, ServeOptions};

/// A request to a [`Server`](crate::Server) or
/// [`Router`](crate::Router), built by chaining.
///
/// Mirrors `prompt_cache::ServeRequest`: `#[non_exhaustive]` with
/// `#[must_use]` setters, so new knobs never break callers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SubmitRequest {
    prompt: String,
    options: ServeOptions,
    baseline: bool,
    blocking: bool,
}

impl SubmitRequest {
    /// Starts a request for a PML prompt with default options:
    /// non-blocking admission, cached serving path.
    #[must_use]
    pub fn new(prompt_pml: impl Into<String>) -> Self {
        SubmitRequest {
            prompt: prompt_pml.into(),
            options: ServeOptions::default(),
            baseline: false,
            blocking: false,
        }
    }

    /// Replaces the serve options wholesale. Chain the per-field setters
    /// below for incremental tweaks.
    #[must_use]
    pub fn options(mut self, options: ServeOptions) -> Self {
        self.options = options;
        self
    }

    /// Decode budget (defaults to the `ServeOptions` default).
    #[must_use]
    pub fn max_new_tokens(mut self, n: usize) -> Self {
        self.options.max_new_tokens = n;
        self
    }

    /// Whether scaffolds may substitute for the full prompt (§3.3).
    #[must_use]
    pub fn use_scaffolds(mut self, on: bool) -> Self {
        self.options.use_scaffolds = on;
        self
    }

    /// Seeded sampling temperature (greedy when unset).
    #[must_use]
    pub fn temperature(mut self, temperature: f32, seed: u64) -> Self {
        self.options.temperature = Some((temperature, seed));
        self
    }

    /// Submission-relative latency budget. Queue wait counts against it;
    /// with non-blocking admission the predicted-wait check may shed the
    /// request before it ever queues.
    #[must_use]
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.options.deadline = Some(budget);
        self
    }

    /// Attaches a cooperative cancellation token.
    #[must_use]
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.options.cancel = Some(token);
        self
    }

    /// Routes the request through the baseline full-prefill path instead
    /// of cached serving — the paper's comparison baseline, sharing the
    /// same queue.
    #[must_use]
    pub fn baseline(mut self, on: bool) -> Self {
        self.baseline = on;
        self
    }

    /// Blocking admission: wait for queue space instead of shedding.
    /// Fine for closed-loop benchmarks; a latency-sensitive service
    /// should keep the non-blocking default and handle
    /// [`SubmitError`](crate::SubmitError).
    #[must_use]
    pub fn blocking(mut self, on: bool) -> Self {
        self.blocking = on;
        self
    }

    /// The PML prompt.
    #[must_use]
    pub fn prompt(&self) -> &str {
        &self.prompt
    }

    /// The accumulated serve options.
    #[must_use]
    pub fn options_ref(&self) -> &ServeOptions {
        &self.options
    }

    /// Whether the baseline path was requested.
    #[must_use]
    pub fn is_baseline(&self) -> bool {
        self.baseline
    }

    /// Whether blocking admission was requested.
    #[must_use]
    pub fn is_blocking(&self) -> bool {
        self.blocking
    }
}
