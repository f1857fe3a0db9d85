//! Cooperative cancellation and deadlines for serve calls.
//!
//! A [`CancelToken`] is a cheap, cloneable handle threaded through the
//! engine's prefill/decode loops via [`crate::ServeOptions::cancel`]. The
//! engine polls it at phase boundaries and between decode steps; when the
//! token fires, the serve returns **early with a partial
//! [`crate::Response`]** whose [`crate::ServeOutcome`] says why
//! (`Cancelled` or `DeadlineExceeded`) — never an error, never a hang.
//!
//! Cancellation is *cooperative*: an in-flight forward pass over one
//! token chunk runs to completion, so the abort latency is bounded by one
//! prefill/decode step, not by the whole generation.
//!
//! Tokens compose: [`CancelToken::linked_to`] chains a per-request token
//! to a server-wide shutdown token — keeping every parent and every
//! parent's own parents — and deadlines combine by taking the earliest
//! ([`CancelToken::with_deadline_at`] keeps the minimum).

use crate::response::ServeOutcome;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation handle with an optional deadline.
///
/// Cloning shares the underlying flag: cancelling any clone cancels every
/// clone. The default token is inert (never cancelled, no deadline).
///
/// # Example
///
/// ```
/// use prompt_cache::CancelToken;
/// use std::time::Duration;
///
/// let token = CancelToken::new().with_budget(Duration::from_secs(30));
/// assert!(token.interruption().is_none());
/// token.cancel();
/// assert!(token.is_cancelled());
/// ```
#[derive(Debug, Clone)]
pub struct CancelToken {
    /// This token's own flag first, then the flag of every token it was
    /// linked to, transitively — flattened at link time, so a check reads
    /// one slice and a clone is one `Arc` bump.
    flags: Arc<[Arc<AtomicBool>]>,
    deadline: Option<Instant>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken {
            flags: Arc::new([Arc::new(AtomicBool::new(false))]),
            deadline: None,
        }
    }
}

impl CancelToken {
    /// A fresh, inert token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches an absolute deadline. If the token already carries one,
    /// the **earlier** deadline wins, so budgets from different layers
    /// (caller, server, shutdown) compose safely.
    #[must_use]
    pub fn with_deadline_at(mut self, at: Instant) -> Self {
        self.deadline = Some(self.deadline.map_or(at, |d| d.min(at)));
        self
    }

    /// Attaches a relative budget measured from now. A zero budget means
    /// the deadline has already passed.
    #[must_use]
    pub fn with_budget(self, budget: Duration) -> Self {
        match Instant::now().checked_add(budget) {
            Some(at) => self.with_deadline_at(at),
            // Budget overflows the clock: effectively unbounded.
            None => self,
        }
    }

    /// Links this token to `parent`: if the parent — or any token the
    /// parent is itself linked to — is cancelled, this token reports
    /// cancelled too, and the parent's deadline applies. Earlier links are
    /// kept. Used by the server to chain every request token to one
    /// shutdown token without losing the caller's own parents.
    #[must_use]
    pub fn linked_to(mut self, parent: &CancelToken) -> Self {
        let mut flags = self.flags.to_vec();
        for flag in parent.flags.iter() {
            if !flags.iter().any(|f| Arc::ptr_eq(f, flag)) {
                flags.push(Arc::clone(flag));
            }
        }
        self.flags = flags.into();
        match parent.deadline {
            Some(d) => self.with_deadline_at(d),
            None => self,
        }
    }

    /// Fires the token. Idempotent; visible to all clones immediately.
    pub fn cancel(&self) {
        self.flags[0].store(true, Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] was called on this token, a clone,
    /// or a linked ancestor. Does **not** consider the deadline — use
    /// [`CancelToken::interruption`] for the full check.
    pub fn is_cancelled(&self) -> bool {
        self.flags.iter().any(|f| f.load(Ordering::Acquire))
    }

    /// The absolute deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The check the engine's loops poll: `Some(Cancelled)` if the token
    /// fired, else `Some(DeadlineExceeded)` if the deadline passed, else
    /// `None` (keep going). Explicit cancellation wins over the deadline
    /// so a caller-initiated abort is always reported as `Cancelled`.
    pub fn interruption(&self) -> Option<ServeOutcome> {
        if self.is_cancelled() {
            Some(ServeOutcome::Cancelled)
        } else if self.deadline.is_some_and(|d| Instant::now() >= d) {
            Some(ServeOutcome::DeadlineExceeded)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_token_is_inert() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.interruption().is_none());
        assert!(t.deadline().is_none());
    }

    #[test]
    fn cancel_propagates_to_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        t.cancel();
        assert!(clone.is_cancelled());
        assert_eq!(clone.interruption(), Some(ServeOutcome::Cancelled));
    }

    #[test]
    fn zero_budget_is_immediately_exceeded() {
        let t = CancelToken::new().with_budget(Duration::ZERO);
        assert_eq!(t.interruption(), Some(ServeOutcome::DeadlineExceeded));
        assert!(!t.is_cancelled(), "deadline is not cancellation");
    }

    #[test]
    fn earliest_deadline_wins() {
        let near = Instant::now() + Duration::from_secs(1);
        let far = Instant::now() + Duration::from_secs(60);
        let t = CancelToken::new().with_deadline_at(far).with_deadline_at(near);
        assert_eq!(t.deadline(), Some(near));
        let t2 = CancelToken::new().with_deadline_at(near).with_deadline_at(far);
        assert_eq!(t2.deadline(), Some(near));
    }

    #[test]
    fn linked_token_sees_parent_cancel() {
        let parent = CancelToken::new();
        let child = CancelToken::new().linked_to(&parent);
        assert!(!child.is_cancelled());
        parent.cancel();
        assert!(child.is_cancelled());
        // But cancelling the child does not fire the parent.
        let parent2 = CancelToken::new();
        let child2 = CancelToken::new().linked_to(&parent2);
        child2.cancel();
        assert!(!parent2.is_cancelled());
    }

    #[test]
    fn relinking_keeps_the_first_parent() {
        let first = CancelToken::new();
        let second = CancelToken::new();
        let child = CancelToken::new().linked_to(&first).linked_to(&second);
        assert!(!child.is_cancelled());
        first.cancel();
        assert!(
            child.is_cancelled(),
            "the second link must not drop the first"
        );
    }

    #[test]
    fn grandparent_cancel_reaches_the_grandchild() {
        let grandparent = CancelToken::new();
        let parent = CancelToken::new().linked_to(&grandparent);
        let child = CancelToken::new().linked_to(&parent);
        assert!(!child.is_cancelled());
        grandparent.cancel();
        assert!(child.is_cancelled());
        // Cancelling the child still leaves its ancestors alone.
        let grandparent = CancelToken::new();
        let child = CancelToken::new().linked_to(&CancelToken::new().linked_to(&grandparent));
        child.cancel();
        assert!(!grandparent.is_cancelled());
    }

    #[test]
    fn linked_token_inherits_parent_deadline() {
        let parent = CancelToken::new().with_budget(Duration::ZERO);
        let child = CancelToken::new().linked_to(&parent);
        assert_eq!(child.interruption(), Some(ServeOutcome::DeadlineExceeded));
    }

    #[test]
    fn explicit_cancel_wins_over_deadline() {
        let t = CancelToken::new().with_budget(Duration::ZERO);
        t.cancel();
        assert_eq!(t.interruption(), Some(ServeOutcome::Cancelled));
    }
}
