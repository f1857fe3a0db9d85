//! Server-level resilience edge cases: in-queue cancellation, bounded
//! admission, predicted-wait shedding, deadline-dead requests never
//! reaching the engine, and drain-or-cancel shutdown.

use pc_model::{Model, ModelConfig};
use pc_server::{
    RequestHandle, RequestOutcome, Server, ServerConfig, ShedReason, SubmitError, SubmitRequest,
    WorkerFaults,
};
use pc_tokenizer::{Tokenizer, WordTokenizer};
use prompt_cache::{EngineConfig, PromptCache, ServeOptions, ServeOutcome};
use std::time::Duration;

const CORPUS: &str = "alpha beta gamma delta epsilon zeta eta theta answer the question";
const SCHEMA: &str =
    r#"<schema name="s"><module name="ctx">alpha beta gamma delta epsilon zeta eta theta</module></schema>"#;
const PROMPT: &str = r#"<prompt schema="s"><ctx/>answer the question</prompt>"#;

fn engine() -> PromptCache {
    let tokenizer = WordTokenizer::train(&[CORPUS]);
    let vocab = tokenizer.vocab_size().max(64);
    let engine = PromptCache::new(
        Model::new(ModelConfig::llama_tiny(vocab), 5),
        tokenizer,
        EngineConfig::default(),
    );
    engine.register_schema(SCHEMA).unwrap();
    engine
}

fn server(queue_capacity: usize) -> Server {
    Server::start(
        engine(),
        ServerConfig::default().queue_capacity(queue_capacity),
    )
}

fn opts() -> ServeOptions {
    ServeOptions::default().max_new_tokens(2)
}

fn submit(server: &Server, prompt: String, options: ServeOptions) -> RequestHandle {
    server
        .submit_request(&SubmitRequest::new(prompt).options(options).blocking(true))
        .expect("blocking submit cannot fail")
}

fn try_submit(
    server: &Server,
    prompt: String,
    options: ServeOptions,
) -> Result<RequestHandle, SubmitError> {
    server.submit_request(&SubmitRequest::new(prompt).options(options))
}

/// Stalls every pickup by a fixed duration. The first request is picked
/// up by the batch loop's tick thread while the batch is empty, so its
/// stall holds the queue and requests pile up behind it
/// deterministically.
#[derive(Debug)]
struct StallEvery(Duration);

impl WorkerFaults for StallEvery {
    fn pre_serve_delay(&self, _id: u64) -> Duration {
        self.0
    }
}

#[test]
fn cancel_before_pickup_sheds_without_serving() {
    let server = server(16);
    server.set_worker_faults(Some(std::sync::Arc::new(StallEvery(
        Duration::from_millis(60),
    ))));
    // The first request's stalled pickup holds the queue; the second sits
    // in the queue where its cancellation must be noticed at pickup.
    let first = submit(&server, PROMPT.into(), opts());
    let second = submit(&server, PROMPT.into(), opts());
    second.cancel();
    let result = second.wait().unwrap();
    assert_eq!(
        result.outcome.shed_reason(),
        Some(ShedReason::CancelledInQueue)
    );
    assert_eq!(result.service_time, Duration::ZERO, "never reached the engine");
    assert!(first.wait().unwrap().outcome.is_ok());
    let m = server.metrics();
    assert_eq!(m.served, 1);
    assert!(m.shed >= 1);
    assert!(m.cancelled >= 1);
    server.shutdown();
}

#[test]
fn try_submit_rejects_when_the_queue_is_full() {
    let server = server(1);
    server.set_worker_faults(Some(std::sync::Arc::new(StallEvery(
        Duration::from_millis(60),
    ))));
    // Stall the first pickup and fill the single queue slot, then keep
    // trying until admission control pushes back.
    let mut admitted = vec![submit(&server, PROMPT.into(), opts())];
    let rejection = loop {
        match try_submit(&server, PROMPT.into(), opts()) {
            Ok(handle) => admitted.push(handle),
            Err(e) => break e,
        }
    };
    assert!(matches!(rejection, SubmitError::QueueFull), "{rejection:?}");
    assert!(server.metrics().shed >= 1, "rejection counts as shed");
    for handle in admitted {
        assert!(handle.wait().unwrap().outcome.is_ok());
    }
    server.shutdown();
}

#[test]
fn try_submit_sheds_on_predicted_deadline_overrun() {
    let server = server(32);
    // Seed the EWMA service-time estimate with one real serve.
    assert!(submit(&server, PROMPT.into(), opts())
        .wait()
        .unwrap()
        .outcome
        .is_ok());
    // Stall pickups and build queue depth so the wait estimate is
    // strictly positive.
    server.set_worker_faults(Some(std::sync::Arc::new(StallEvery(
        Duration::from_millis(120),
    ))));
    let backlog: Vec<_> = (0..3).map(|_| submit(&server, PROMPT.into(), opts())).collect();
    std::thread::sleep(Duration::from_millis(20));
    assert!(server.estimated_queue_wait() > Duration::ZERO);
    let rejection = try_submit(&server, 
            PROMPT.into(),
            opts().clone().deadline(Duration::from_nanos(1)),
        )
        .unwrap_err();
    assert!(
        matches!(rejection, SubmitError::PredictedDeadlineExceeded { estimated_wait }
            if estimated_wait > Duration::from_nanos(1)),
        "{rejection:?}"
    );
    for handle in backlog {
        handle.wait().unwrap();
    }
    server.shutdown();
}

#[test]
fn deadline_dead_requests_never_reach_a_worker() {
    let server = server(16);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            submit(&server, 
                PROMPT.into(),
                opts().clone().deadline(Duration::ZERO),
            )
        })
        .collect();
    for handle in handles {
        let result = handle.wait().unwrap();
        assert_eq!(
            result.outcome.shed_reason(),
            Some(ShedReason::DeadlineBeforeStart)
        );
        assert_eq!(result.service_time, Duration::ZERO);
    }
    let m = server.metrics();
    assert_eq!(m.served, 0, "the engine never served a dead request");
    assert_eq!(m.shed, 4);
    server.shutdown();
}

#[test]
fn shutdown_within_sheds_queued_and_cancels_in_flight() {
    let server = server(16);
    server.set_worker_faults(Some(std::sync::Arc::new(StallEvery(
        Duration::from_millis(100),
    ))));
    // One request in flight (stalled at pickup on the tick thread), two
    // queued behind it.
    let in_flight = submit(&server, PROMPT.into(), opts());
    let queued: Vec<_> = (0..2).map(|_| submit(&server, PROMPT.into(), opts())).collect();
    std::thread::sleep(Duration::from_millis(20));

    assert!(
        server.shutdown_within(Duration::from_secs(5)),
        "grace period must suffice: the stall is bounded"
    );

    // The in-flight request was cancelled via the linked shutdown token —
    // the engine returned its partial rather than completing.
    let result = in_flight.wait().unwrap();
    match result.outcome {
        RequestOutcome::Ok(response) => {
            assert_eq!(response.outcome, ServeOutcome::Cancelled);
            assert!(response.tokens.is_empty(), "cancelled before any decode");
        }
        other => panic!("expected a cancelled partial, got {other:?}"),
    }
    // Everything still queued was shed by the drain.
    for handle in queued {
        assert_eq!(
            handle.wait().unwrap().outcome.shed_reason(),
            Some(ShedReason::ShuttingDown)
        );
    }
}
