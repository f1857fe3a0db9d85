//! The unified serving request: one builder, one entry point.
//!
//! [`ServeRequest`] collapses the historical `serve` / `serve_with` /
//! `serve_streaming` / `serve_session` / `serve_baseline` family (shims
//! deprecated in PR 5 and removed in PR 10) into a
//! single builder consumed by [`crate::PromptCache::serve`], which
//! returns a [`Served`] — the [`crate::Response`] plus (when requested)
//! the session KV view.

use crate::engine::ServeOptions;
use crate::cancel::CancelToken;
use crate::response::Response;
use pc_model::{KvView, TokenId};
use std::time::Duration;

/// A single serving request: prompt, options, and mode flags.
///
/// Defaults describe the common case — cached inference, greedy
/// sampling, no streaming, no session. Every other serving mode is a
/// chained flag:
///
/// ```
/// use prompt_cache::ServeRequest;
///
/// let request = ServeRequest::new(r#"<prompt schema="s"><m/>hi</prompt>"#)
///     .max_new_tokens(16)
///     .session(true);
/// assert_eq!(request.options_ref().max_new_tokens, 16);
/// assert!(request.wants_session());
/// ```
///
/// The lifetime `'a` is the streaming sink's: a request borrowing a sink
/// cannot outlive it.
pub struct ServeRequest<'a> {
    prompt: String,
    options: ServeOptions,
    baseline: bool,
    session: bool,
    sink: Option<&'a (dyn Fn(TokenId, usize) + 'a)>,
}

impl std::fmt::Debug for ServeRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeRequest")
            .field("prompt", &self.prompt)
            .field("options", &self.options)
            .field("baseline", &self.baseline)
            .field("session", &self.session)
            .field("sink", &self.sink.map(|_| "Fn(TokenId, usize)"))
            .finish()
    }
}

impl<'a> ServeRequest<'a> {
    /// A request for `prompt_pml` with default options: cached path,
    /// greedy sampling, no streaming, no session.
    pub fn new(prompt_pml: impl Into<String>) -> Self {
        ServeRequest {
            prompt: prompt_pml.into(),
            options: ServeOptions::default(),
            baseline: false,
            session: false,
            sink: None,
        }
    }

    /// Replaces the whole option block (for callers that already hold a
    /// [`ServeOptions`]); the per-field setters below are sugar over it.
    #[must_use]
    pub fn options(mut self, options: ServeOptions) -> Self {
        self.options = options;
        self
    }

    /// Decode budget in tokens.
    #[must_use]
    pub fn max_new_tokens(mut self, n: usize) -> Self {
        self.options.max_new_tokens = n;
        self
    }

    /// Enables/disables scaffold substitution (§3.3).
    #[must_use]
    pub fn use_scaffolds(mut self, on: bool) -> Self {
        self.options.use_scaffolds = on;
        self
    }

    /// Seeded temperature sampling instead of greedy decoding.
    #[must_use]
    pub fn temperature(mut self, temperature: f32, seed: u64) -> Self {
        self.options.temperature = Some((temperature, seed));
        self
    }

    /// Wall-clock budget; the serve returns a partial response when it
    /// elapses.
    #[must_use]
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.options.deadline = Some(budget);
        self
    }

    /// Cooperative cancellation token, polled at phase boundaries and
    /// between decode steps.
    #[must_use]
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.options.cancel = Some(token);
        self
    }

    /// Requests the session KV view in [`Served::session`], for
    /// multi-turn continuation.
    #[must_use]
    pub fn session(mut self, on: bool) -> Self {
        self.session = on;
        self
    }

    /// Streams tokens: `sink(token_id, decoded_so_far_len)` runs as each
    /// output token is produced.
    #[must_use]
    pub fn streaming(mut self, sink: &'a (dyn Fn(TokenId, usize) + 'a)) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Routes through the baseline KV-cache path (full prefill, no
    /// reuse) — the paper's comparison baseline.
    #[must_use]
    pub fn baseline(mut self, on: bool) -> Self {
        self.baseline = on;
        self
    }

    /// The PML prompt text.
    pub fn prompt(&self) -> &str {
        &self.prompt
    }

    /// The effective option block.
    pub fn options_ref(&self) -> &ServeOptions {
        &self.options
    }

    pub(crate) fn is_baseline(&self) -> bool {
        self.baseline
    }

    /// Whether [`Served::session`] was requested.
    pub fn wants_session(&self) -> bool {
        self.session
    }

    pub(crate) fn sink(&self) -> Option<&'a (dyn Fn(TokenId, usize) + 'a)> {
        self.sink
    }
}

/// What a serve produced: the response, plus the session KV view when
/// the request asked for one. Derefs to [`Response`] so existing
/// `response.text` / `response.timings` call sites read through.
#[derive(Debug)]
pub struct Served {
    /// The generated response.
    pub response: Response,
    /// The session KV view, present iff [`ServeRequest::session`] was
    /// set (and the baseline path was not taken).
    pub session: Option<KvView>,
}

impl Served {
    /// Discards the session view (if any) and returns the response.
    pub fn into_response(self) -> Response {
        self.response
    }
}

impl std::ops::Deref for Served {
    type Target = Response;

    fn deref(&self) -> &Response {
        &self.response
    }
}
