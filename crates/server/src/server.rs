//! The worker-pool server: bounded admission, deadline-aware shedding,
//! cooperative cancellation, and drain-or-cancel shutdown.

use crate::metrics::MetricsSnapshot;
use crate::ops::OpsHandle;
use crate::submit::SubmitRequest;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TryRecvError, TrySendError};
use pc_telemetry::flight::BATCH_SCOPE;
use pc_telemetry::{Counter, FlightEvent, FlightRecorder, Gauge, Histogram, Telemetry};
use prompt_cache::{
    Admission, BatchConfig, BatchScheduler, BatchSnapshot, CancelToken, EngineError, PromptCache,
    Response, ServeOptions, ServeOutcome, ServeRequest, Served,
};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
///
/// Build with [`Default`] plus the chainable setters:
///
/// ```
/// use pc_server::ServerConfig;
/// use prompt_cache::BatchConfig;
///
/// let config = ServerConfig::default()
///     .workers(2)
///     .queue_capacity(128)
///     .batching(BatchConfig::default().max_batch_size(4));
/// assert_eq!(config.workers, 2);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Worker threads draining the queue (ignored when `batching` is
    /// set — continuous batching uses one tick thread and one admission
    /// thread).
    pub workers: usize,
    /// Maximum queued (not yet picked up) requests. Beyond this,
    /// [`Server::submit_request`] sheds ([`SubmitError::QueueFull`]) — or
    /// blocks the caller, for a [`SubmitRequest::blocking`] request.
    pub queue_capacity: usize,
    /// Continuous batching: when set, requests are served by a single
    /// [`prompt_cache::BatchScheduler`] loop that admits queued requests
    /// into an in-flight decode batch (joining at any step, leaving on
    /// EOS/deadline/cancel) instead of a pool of one-request-at-a-time
    /// workers. While sequences decode, joining requests are prefilled on
    /// a second thread and join at the next tick. Greedy outputs are
    /// byte-identical either way.
    pub batching: Option<BatchConfig>,
    /// Ops-plane HTTP address: when set, [`Server::start`] binds a plain
    /// [`std::net::TcpListener`] here and serves `GET /metrics`,
    /// `/healthz`, `/debug/cache`, `/debug/batch`, and `/debug/flight`
    /// from one listener thread (no HTTP library). Use port 0 for an
    /// ephemeral port and read it back with [`Server::ops_local_addr`].
    /// `None` (the default) binds nothing and spawns nothing.
    pub ops_addr: Option<SocketAddr>,
    /// Flight-recorder capacity in events: when nonzero, every request
    /// leaves a structured event trail (submit, shed, pickup, batch
    /// join/leave, per-tick membership, fetch, degrade, finish) in a
    /// fixed-size ring, dumpable via [`Server::flight_json`] and
    /// `/debug/flight`. Zero (the default) allocates no ring; recording
    /// sites cost one `Option` check.
    pub flight_capacity: usize,
}

impl Default for ServerConfig {
    /// Workers follow [`prompt_cache::Parallelism::from_env`] (the
    /// `PC_THREADS` environment variable, else the number of available
    /// cores), so the whole serving stack scales with one knob.
    fn default() -> Self {
        ServerConfig {
            workers: prompt_cache::Parallelism::from_env().num_threads.max(2),
            queue_capacity: 64,
            batching: None,
            ops_addr: None,
            flight_capacity: 0,
        }
    }
}

impl ServerConfig {
    /// Sets the worker-thread count (one-request-at-a-time mode).
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Sets the admission-queue capacity.
    #[must_use]
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n;
        self
    }

    /// Enables continuous batching with the given batch configuration.
    #[must_use]
    pub fn batching(mut self, config: BatchConfig) -> Self {
        self.batching = Some(config);
        self
    }

    /// Enables the ops-plane HTTP endpoint on `addr` (see
    /// [`ServerConfig::ops_addr`]).
    #[must_use]
    pub fn ops_addr(mut self, addr: SocketAddr) -> Self {
        self.ops_addr = Some(addr);
        self
    }

    /// Enables the request flight recorder with room for `capacity`
    /// events (see [`ServerConfig::flight_capacity`]).
    #[must_use]
    pub fn flight_recorder(mut self, capacity: usize) -> Self {
        self.flight_capacity = capacity;
        self
    }
}

/// Why the server refused or abandoned a request without serving it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The request's deadline had already passed when a worker picked it
    /// up — serving it would only waste the worker.
    DeadlineBeforeStart,
    /// The request's [`CancelToken`] fired while it was still queued.
    CancelledInQueue,
    /// The server was shutting down with a bounded grace
    /// ([`Server::shutdown_within`]); queued work is shed, not served.
    ShuttingDown,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::DeadlineBeforeStart => write!(f, "deadline passed before pickup"),
            ShedReason::CancelledInQueue => write!(f, "cancelled while queued"),
            ShedReason::ShuttingDown => write!(f, "server shutting down"),
        }
    }
}

/// Rejection returned by [`Server::submit_request`] — the request never
/// entered the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity.
    QueueFull,
    /// The predicted queue wait ((queue depth + in-flight) × EWMA
    /// service time ÷ service slots) already exceeds the request's
    /// deadline, so admitting it could only produce a dead-on-pickup
    /// shed later.
    PredictedDeadlineExceeded {
        /// The wait estimate that tripped the rejection.
        estimated_wait: Duration,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "request queue is full"),
            SubmitError::PredictedDeadlineExceeded { estimated_wait } => write!(
                f,
                "estimated queue wait {:.3}s exceeds the request deadline",
                estimated_wait.as_secs_f64()
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// How one request ended: a response, an engine error, or shed without
/// ever reaching the engine.
///
/// `Ok` covers *partial* responses too — check
/// [`Response::outcome`](prompt_cache::Response) for
/// [`ServeOutcome::Cancelled`] / [`ServeOutcome::DeadlineExceeded`]
/// before treating the tokens as a finished generation.
#[derive(Debug)]
pub enum RequestOutcome {
    /// The engine produced a response (possibly partial).
    Ok(Response),
    /// The engine failed.
    Err(EngineError),
    /// The request was shed before the engine saw it.
    Shed(ShedReason),
}

impl RequestOutcome {
    /// The response, panicking on `Err`/`Shed` — mirrors `Result::unwrap`
    /// so straightforward callers read the same as before shedding
    /// existed.
    #[track_caller]
    pub fn unwrap(self) -> Response {
        match self {
            RequestOutcome::Ok(response) => response,
            RequestOutcome::Err(e) => panic!("request failed: {e}"),
            RequestOutcome::Shed(reason) => panic!("request shed: {reason}"),
        }
    }

    /// The response, panicking with `msg` on `Err`/`Shed`.
    #[track_caller]
    pub fn expect(self, msg: &str) -> Response {
        match self {
            RequestOutcome::Ok(response) => response,
            RequestOutcome::Err(e) => panic!("{msg}: {e}"),
            RequestOutcome::Shed(reason) => panic!("{msg}: shed ({reason})"),
        }
    }

    /// The response, if the request was served.
    pub fn ok(self) -> Option<Response> {
        match self {
            RequestOutcome::Ok(response) => Some(response),
            _ => None,
        }
    }

    /// Whether the engine produced a response.
    pub fn is_ok(&self) -> bool {
        matches!(self, RequestOutcome::Ok(_))
    }

    /// Whether the engine returned an error (shed requests are *not*
    /// errors — test [`RequestOutcome::is_shed`]).
    pub fn is_err(&self) -> bool {
        matches!(self, RequestOutcome::Err(_))
    }

    /// Whether the request was shed before reaching the engine.
    pub fn is_shed(&self) -> bool {
        matches!(self, RequestOutcome::Shed(_))
    }

    /// The shed reason, if the request was shed.
    pub fn shed_reason(&self) -> Option<ShedReason> {
        match self {
            RequestOutcome::Shed(reason) => Some(*reason),
            _ => None,
        }
    }
}

/// The completed result of one request.
#[derive(Debug)]
pub struct RequestResult {
    /// The id assigned at submission.
    pub id: u64,
    /// How the request ended.
    pub outcome: RequestOutcome,
    /// Time spent queued before a worker started serving (for shed
    /// requests: time queued before the shed decision).
    pub queue_time: Duration,
    /// Time the worker spent serving (zero for shed requests).
    pub service_time: Duration,
}

/// A handle to a submitted request.
#[derive(Debug)]
pub struct RequestHandle {
    id: u64,
    cancel: CancelToken,
    rx: Receiver<RequestResult>,
}

impl RequestHandle {
    /// Builds a handle — shared with the fleet router, whose submission
    /// path mints the same handle type as the single-process server.
    pub(crate) fn assemble(id: u64, cancel: CancelToken, rx: Receiver<RequestResult>) -> Self {
        RequestHandle { id, cancel, rx }
    }

    /// The request's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Fires the request's [`CancelToken`]: queued, it is shed at pickup;
    /// in flight, the serve stops within one decode step and returns its
    /// partial response. Idempotent.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Blocks until the request completes. Returns `None` only if the
    /// server was shut down before serving it.
    pub fn wait(self) -> Option<RequestResult> {
        self.rx.recv().ok()
    }

    /// Non-blocking poll.
    pub fn try_wait(&self) -> Option<RequestResult> {
        self.rx.try_recv().ok()
    }
}

struct Job {
    id: u64,
    prompt: String,
    options: ServeOptions,
    baseline: bool,
    /// The effective request token (caller's token, linked to server
    /// shutdown, narrowed by the submission-relative deadline) — also
    /// stored in `options.cancel`; kept here so pickup-time shed checks
    /// don't dig through options.
    cancel: CancelToken,
    /// The submission-relative latency budget the caller set via
    /// [`ServeOptions::deadline`] (consumed into the token's absolute
    /// deadline by `make_job`) — kept for SLO burn accounting.
    budget: Option<Duration>,
    submitted: Instant,
    reply: Sender<RequestResult>,
}

/// Injected worker-side stalls for chaos testing: the fault harness
/// (`pc-faults`) implements this to simulate slow or stuck workers. The
/// stall applies after pickup, before the engine serve, so a stalled
/// worker both delays its own request past its deadline *and* backs up
/// the queue behind it — exactly the failure mode load-shedding exists
/// for.
pub trait WorkerFaults: Send + Sync + std::fmt::Debug {
    /// Stall to apply before serving request `id`; `Duration::ZERO` for
    /// a healthy pickup.
    fn pre_serve_delay(&self, id: u64) -> Duration;
}

/// SLO budget-burn histogram buckets: fractions of the latency budget
/// consumed (1.0 = the request used exactly its budget; above = a
/// violation).
const SLO_BURN_BUCKETS: &[f64] = &[0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.25, 1.5, 2.0, 5.0, 10.0];

/// Per-server metric state: an always-on [`Telemetry`] registry with
/// pre-resolved handles. Recording is atomics-only on the worker path;
/// the registry lock is touched exactly once per handle, here.
pub(crate) struct Shared {
    telemetry: Telemetry,
    served: Counter,
    failed: Counter,
    shed: Counter,
    cancelled: Counter,
    deadline_exceeded: Counter,
    degraded: Counter,
    ttft: Histogram,
    service: Histogram,
    queue: Histogram,
    queue_depth: Gauge,
    /// Requests picked up but not yet completed (a worker serving, or a
    /// batched request being prefilled or decoding). Feeds the
    /// admission-control wait estimate alongside the queue depth.
    in_flight: Gauge,
    /// Deadline-carrying requests completed (the SLO denominator).
    slo_requests: Counter,
    /// Deadline-carrying requests that blew their budget — overran
    /// in flight, or were shed dead-on-pickup.
    slo_violations: Counter,
    /// Budget burn: (queue + service) ÷ deadline, per completed
    /// deadline-carrying request.
    slo_burn: Histogram,
    /// EWMA of worker service time in nanoseconds (α = 1/8), feeding the
    /// admission-control wait estimate. Zero until the first completion.
    ewma_service_ns: AtomicU64,
    /// Set by [`Server::shutdown_within`]: queued jobs are shed instead
    /// of served.
    draining: AtomicBool,
    faults: Mutex<Option<Arc<dyn WorkerFaults>>>,
    /// When the server started — `pc_uptime_seconds` and `/healthz`.
    started: Instant,
    /// Queue capacity, echoed by `/healthz` next to the live depth.
    queue_capacity: usize,
    /// The flight recorder; `None` (the default) means every recording
    /// site is a single `Option` check and no ring exists.
    flight: Option<Arc<FlightRecorder>>,
    /// Latest batch-membership snapshot, published once per scheduler
    /// tick for `/debug/batch` — only when `publish_batch_debug` is set.
    batch_debug: Mutex<Option<BatchSnapshot>>,
    /// Set when the ops endpoint is up: tells the batch loop to publish
    /// `batch_debug`. Off by default so unobserved servers skip the
    /// snapshot entirely.
    publish_batch_debug: AtomicBool,
}

impl Shared {
    fn new(queue_capacity: usize, flight: Option<Arc<FlightRecorder>>) -> Self {
        let telemetry = Telemetry::new();
        Shared {
            served: telemetry.counter("pc_requests_served_total"),
            failed: telemetry.counter("pc_requests_failed_total"),
            shed: telemetry.counter("pc_requests_shed_total"),
            cancelled: telemetry.counter("pc_requests_cancelled_total"),
            deadline_exceeded: telemetry.counter("pc_requests_deadline_exceeded_total"),
            degraded: telemetry.counter("pc_degraded_serves_total"),
            ttft: telemetry.latency_histogram("pc_ttft_seconds"),
            service: telemetry.latency_histogram("pc_service_seconds"),
            queue: telemetry.latency_histogram("pc_queue_wait_seconds"),
            queue_depth: telemetry.gauge("pc_queue_depth"),
            in_flight: telemetry.gauge("pc_requests_in_flight"),
            slo_requests: telemetry.counter("pc_slo_requests_total"),
            slo_violations: telemetry.counter("pc_slo_violations_total"),
            slo_burn: telemetry.histogram("pc_slo_budget_burn_ratio", SLO_BURN_BUCKETS),
            ewma_service_ns: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            faults: Mutex::new(None),
            started: Instant::now(),
            queue_capacity,
            flight,
            batch_debug: Mutex::new(None),
            publish_batch_debug: AtomicBool::new(false),
            telemetry,
        }
    }

    /// Records a flight event — the closure only runs when the recorder
    /// exists, so the disabled path is exactly one `Option` check and
    /// never builds the event.
    fn record_flight(&self, make: impl FnOnce() -> FlightEvent) {
        if let Some(flight) = &self.flight {
            flight.record(make());
        }
    }

    /// SLO accounting for one completed deadline-carrying request:
    /// observes the budget burn and counts a violation when the request
    /// overran its budget (or the engine reported a deadline overrun).
    fn record_slo(&self, budget: Duration, elapsed: Duration, overran: bool) {
        self.slo_requests.inc();
        let burn = elapsed.as_secs_f64() / budget.as_secs_f64().max(1e-9);
        self.slo_burn.observe(burn);
        if burn > 1.0 || overran {
            self.slo_violations.inc();
        }
    }

    fn record_service_sample(&self, service: Duration) {
        let sample = u64::try_from(service.as_nanos()).unwrap_or(u64::MAX);
        let old = self.ewma_service_ns.load(Ordering::Relaxed);
        let new = if old == 0 {
            sample
        } else {
            // α = 1/8: old * 7/8 + sample/8, computed in u128 to avoid
            // overflow on pathological samples.
            ((old as u128 * 7 + sample as u128) / 8) as u64
        };
        self.ewma_service_ns.store(new, Ordering::Relaxed);
    }
}

/// A multi-threaded Prompt Cache server. See the [crate docs](crate).
pub struct Server {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    /// Effective service parallelism for the wait estimate: worker count
    /// in pool mode, `max_batch_size` in batched mode.
    slots: usize,
    shared: Arc<Shared>,
    next_id: AtomicU64,
    /// Parent of every request token: fired by
    /// [`Server::shutdown_within`] to cancel in-flight serves.
    shutdown_token: CancelToken,
    engine: Arc<PromptCache>,
    /// The ops-plane HTTP listener, when [`ServerConfig::ops_addr`] set
    /// one; stopped on shutdown/drop.
    ops: Option<OpsHandle>,
}

impl Server {
    /// Starts the server over `engine`: a worker pool by default, or —
    /// when [`ServerConfig::batching`] is set — a continuous-batching
    /// loop that admits queued requests into an in-flight decode batch
    /// (a tick thread plus one admission thread).
    ///
    /// # Panics
    ///
    /// Panics if [`ServerConfig::ops_addr`] is set and the address
    /// cannot be bound — an unreachable ops plane that was explicitly
    /// asked for is a deployment error, not something to limp past.
    pub fn start(engine: PromptCache, config: ServerConfig) -> Self {
        let engine = Arc::new(engine);
        let flight = (config.flight_capacity > 0)
            .then(|| Arc::new(FlightRecorder::new(config.flight_capacity)));
        // The module store shares the server's recorder, so tier
        // demotions/restores land in the same /debug/flight stream as
        // request lifecycle events (under the "store" scope).
        engine.store().set_flight_recorder(flight.clone());
        let shared = Arc::new(Shared::new(config.queue_capacity.max(1), flight));
        let (tx, rx) = bounded::<Job>(config.queue_capacity.max(1));
        let (workers, slots) = if let Some(batch_config) = config.batching {
            let slots = batch_config.max_batch_size;
            let engine2 = Arc::clone(&engine);
            let shared2 = Arc::clone(&shared);
            let handle =
                std::thread::spawn(move || batch_loop(&rx, &engine2, &shared2, batch_config));
            (vec![handle], slots)
        } else {
            let n = config.workers.max(1);
            let workers = (0..n)
                .map(|_| {
                    let rx = rx.clone();
                    let engine = Arc::clone(&engine);
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || worker_loop(&rx, &engine, &shared))
                })
                .collect();
            (workers, n)
        };
        let ops = config.ops_addr.map(|addr| {
            shared.publish_batch_debug.store(true, Ordering::Release);
            crate::ops::spawn(addr, Arc::clone(&shared), Arc::clone(&engine))
                .unwrap_or_else(|e| panic!("ops endpoint bind failed on {addr}: {e}"))
        });
        Server {
            tx: Some(tx),
            workers,
            slots,
            shared,
            next_id: AtomicU64::new(0),
            shutdown_token: CancelToken::new(),
            engine,
            ops,
        }
    }

    /// The engine behind the server (for registration and stats).
    pub fn engine(&self) -> &PromptCache {
        &self.engine
    }

    /// Submits a request built with [`SubmitRequest`] — the single
    /// submission entry point.
    ///
    /// Non-blocking by default: rejects immediately when the queue is at
    /// capacity, or when the predicted queue wait already exceeds the
    /// request's deadline (see [`Server::estimated_queue_wait`]).
    /// With [`SubmitRequest::blocking`] the call instead waits for queue
    /// space and never errors — the closed-loop benchmark mode.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] or
    /// [`SubmitError::PredictedDeadlineExceeded`] (never with
    /// `.blocking(true)`).
    pub fn submit_request(
        &self,
        request: &SubmitRequest,
    ) -> Result<RequestHandle, SubmitError> {
        let prompt = request.prompt().to_string();
        let options = request.options_ref().clone();
        if request.is_blocking() {
            Ok(self.submit_inner(prompt, options, request.is_baseline()))
        } else {
            self.try_submit_inner(prompt, options, request.is_baseline())
        }
    }

    fn try_submit_inner(
        &self,
        prompt_pml: String,
        options: ServeOptions,
        baseline: bool,
    ) -> Result<RequestHandle, SubmitError> {
        // Build the job first so even admission-time sheds carry a
        // request id in the flight recorder (ids stay unique and
        // monotone; a rejected id is simply never served).
        let (job, handle) = self.make_job(prompt_pml, options, baseline);
        self.shared.record_flight(|| submit_event(&job));
        if let Some(deadline) = job.budget {
            let estimated_wait = self.estimated_queue_wait();
            if estimated_wait > deadline {
                let _shed_span = self.shared.telemetry.span("shed");
                self.shared.shed.inc();
                self.shared.record_flight(|| {
                    FlightEvent::new(job.id, "shed")
                        .field("reason", "predicted_deadline")
                        .timing_us("estimated_wait", micros(estimated_wait))
                });
                return Err(SubmitError::PredictedDeadlineExceeded { estimated_wait });
            }
        }
        // The gauge moves *before* the send so a worker (or the batch
        // loop) picking the job up immediately can never decrement past
        // zero; on rejection the increment is rolled back.
        self.shared.queue_depth.add(1);
        match self
            .tx
            .as_ref()
            .expect("server not shut down")
            .try_send(job)
        {
            Ok(()) => Ok(handle),
            Err(TrySendError::Full(job) | TrySendError::Disconnected(job)) => {
                self.shared.queue_depth.add(-1);
                let _shed_span = self.shared.telemetry.span("shed");
                self.shared.shed.inc();
                self.shared.record_flight(|| {
                    FlightEvent::new(job.id, "shed").field("reason", "queue_full")
                });
                Err(SubmitError::QueueFull)
            }
        }
    }

    /// The admission-control wait estimate: (queued + in-flight)
    /// requests × EWMA service time ÷ service slots (workers, or the
    /// maximum batch size in batched mode). Zero until the first request
    /// completes. Queued is the `pc_queue_depth` gauge (submitted, not
    /// yet picked up — including a job the batch loop has handed to its
    /// admission thread); in flight counts from pickup to completion.
    /// Counting in-flight occupancy matters under batching: the queue
    /// can be empty while the batch is full, and a new request still
    /// waits a full service time for a slot.
    pub fn estimated_queue_wait(&self) -> Duration {
        let ewma = self.shared.ewma_service_ns.load(Ordering::Relaxed);
        let queued = self.shared.queue_depth.get().max(0) as u64;
        let in_flight = self.shared.in_flight.get().max(0) as u64;
        let depth = queued + in_flight;
        let slots = self.slots.max(1) as u64;
        Duration::from_nanos(depth.saturating_mul(ewma) / slots)
    }

    fn make_job(
        &self,
        prompt: String,
        mut options: ServeOptions,
        baseline: bool,
    ) -> (Job, RequestHandle) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (reply, rx) = bounded(1);
        // Build the effective request token *at submission*: the caller's
        // token (cancelling their clone still works — the flag is shared)
        // linked to server shutdown, with the relative deadline converted
        // to an absolute one so queue wait counts against the budget.
        let base = options.cancel.take().unwrap_or_default();
        let mut token = base.linked_to(&self.shutdown_token);
        let budget = options.deadline.take();
        if let Some(budget) = budget {
            token = token.with_budget(budget);
        }
        options.cancel = Some(token.clone());
        let job = Job {
            id,
            prompt,
            options,
            baseline,
            cancel: token.clone(),
            budget,
            submitted: Instant::now(),
            reply,
        };
        (job, RequestHandle { id, cancel: token, rx })
    }

    fn submit_inner(&self, prompt: String, options: ServeOptions, baseline: bool) -> RequestHandle {
        let (job, handle) = self.make_job(prompt, options, baseline);
        self.shared.record_flight(|| submit_event(&job));
        self.shared.queue_depth.add(1);
        self.tx
            .as_ref()
            .expect("server not shut down")
            .send(job)
            .expect("workers alive while server exists");
        handle
    }

    /// Installs (or clears, with `None`) a worker-fault injector — see
    /// [`WorkerFaults`]. Takes effect from the next pickup.
    pub fn set_worker_faults(&self, faults: Option<Arc<dyn WorkerFaults>>) {
        *self.shared.faults.lock().unwrap() = faults;
    }

    /// Current metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        let dur = |s: Option<f64>| s.map(Duration::from_secs_f64);
        MetricsSnapshot {
            served: self.shared.served.get(),
            failed: self.shared.failed.get(),
            shed: self.shared.shed.get(),
            cancelled: self.shared.cancelled.get(),
            ttft_p50: dur(self.shared.ttft.percentile(50.0)),
            ttft_p95: dur(self.shared.ttft.percentile(95.0)),
            ttft_p99: dur(self.shared.ttft.percentile(99.0)),
            service_mean: dur(self.shared.service.mean()),
            queue_mean: dur(self.shared.queue.mean()),
        }
    }

    /// All server and cache metrics in Prometheus text exposition format
    /// — the payload a `/metrics` HTTP endpoint would return. Contains
    /// the server's own registry (`pc_requests_*_total` including the
    /// shed/cancelled/deadline counters, `pc_degraded_serves_total`, the
    /// `pc_ttft_seconds` / `pc_service_seconds` / `pc_queue_wait_seconds`
    /// histograms, the `pc_queue_depth` gauge), everything the engine's
    /// telemetry recorded (when enabled), and the module-store counters
    /// (`pc_cache_*_total`), which are synthesised from the always-on
    /// [`prompt_cache::PromptCache::store_stats`] if the engine registry
    /// did not already provide them. Names the engine registry shares
    /// with the server registry (e.g. `pc_degraded_serves_total`) keep
    /// the server's series — no duplicates. Appends the per-module cache
    /// analytics series (`pc_module_*`, when
    /// [`pc_cache::StoreConfig::module_analytics`] is on), the
    /// `pc_build_info` info-gauge, and `pc_uptime_seconds`. Identical to
    /// what `GET /metrics` on the ops endpoint returns.
    pub fn metrics_text(&self) -> String {
        render_metrics(&self.shared, &self.engine)
    }

    /// The bound address of the ops-plane HTTP endpoint, when
    /// [`ServerConfig::ops_addr`] enabled one — resolves port 0 to the
    /// actual ephemeral port.
    pub fn ops_local_addr(&self) -> Option<SocketAddr> {
        self.ops.as_ref().map(OpsHandle::local_addr)
    }

    /// The flight recorder's events as JSON Lines (one event per line,
    /// oldest first), including wall-clock timings. Empty when the
    /// recorder is disabled — same payload as `GET /debug/flight`.
    pub fn flight_json(&self) -> String {
        self.shared
            .flight
            .as_ref()
            .map(|f| f.jsonl())
            .unwrap_or_default()
    }

    /// Like [`Server::flight_json`] but without the wall-clock
    /// `timings_us` payload: for a deterministic workload (seeded
    /// faults, sequential submission), two same-seed runs produce
    /// byte-identical dumps.
    pub fn flight_json_deterministic(&self) -> String {
        self.shared
            .flight
            .as_ref()
            .map(|f| f.deterministic_jsonl())
            .unwrap_or_default()
    }

    /// The server's own telemetry registry (always enabled; distinct from
    /// the engine's [`prompt_cache::EngineConfig::telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// Graceful shutdown: drains the queue and joins the workers. Every
    /// pending request completes first; new submissions are impossible
    /// afterwards. Unbounded — a deep queue takes as long as it takes;
    /// use [`Server::shutdown_within`] for a bounded exit.
    pub fn shutdown(mut self) {
        self.tx.take(); // close the channel; workers exit on disconnect
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(ops) = self.ops.take() {
            ops.stop();
        }
    }

    /// Drain-or-cancel shutdown with a bounded grace period:
    ///
    /// 1. queued (not yet picked up) requests are shed with
    ///    [`ShedReason::ShuttingDown`];
    /// 2. in-flight serves are cancelled via the server's shutdown token
    ///    — each returns its partial response within one decode step;
    /// 3. workers are joined for up to `grace`.
    ///
    /// Returns `true` if every worker exited within the grace period;
    /// `false` means stragglers were detached (they still hold their
    /// engine `Arc` and finish in the background, but nothing waits for
    /// them).
    pub fn shutdown_within(mut self, grace: Duration) -> bool {
        self.shared.draining.store(true, Ordering::Release);
        self.shutdown_token.cancel();
        self.tx.take();
        let deadline = Instant::now() + grace;
        loop {
            if self.workers.iter().all(JoinHandle::is_finished) {
                break;
            }
            if Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let all_done = self.workers.iter().all(JoinHandle::is_finished);
        for handle in self.workers.drain(..) {
            if handle.is_finished() {
                let _ = handle.join();
            }
            // Unfinished handles are detached by the drop.
        }
        if let Some(ops) = self.ops.take() {
            ops.stop();
        }
        all_done
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.tx.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(ops) = self.ops.take() {
            ops.stop();
        }
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.workers.len())
            .field("served", &self.shared.served.get())
            .finish()
    }
}

/// Pickup-time shed check shared by both serving modes: `Some(reason)`
/// if the job is already dead (drained, cancelled, or past its
/// deadline) and serving it would only waste the slot.
fn pickup_shed_reason(shared: &Shared, job: &Job) -> Option<ShedReason> {
    if shared.draining.load(Ordering::Acquire) {
        Some(ShedReason::ShuttingDown)
    } else if job.cancel.is_cancelled() {
        Some(ShedReason::CancelledInQueue)
    } else if job.cancel.interruption() == Some(ServeOutcome::DeadlineExceeded) {
        Some(ShedReason::DeadlineBeforeStart)
    } else {
        None
    }
}

/// The flight-recorder label for a pickup-time shed.
fn shed_reason_label(reason: ShedReason) -> &'static str {
    match reason {
        ShedReason::DeadlineBeforeStart => "deadline_before_start",
        ShedReason::CancelledInQueue => "cancelled_in_queue",
        ShedReason::ShuttingDown => "shutting_down",
    }
}

/// Saturating microseconds, for flight-event timings.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// The flight-recorder "submit" event for a freshly built job.
fn submit_event(job: &Job) -> FlightEvent {
    let mut event = FlightEvent::new(job.id, "submit")
        .field("prompt_chars", job.prompt.len())
        .field("baseline", job.baseline);
    if let Some(budget) = job.budget {
        event = event.field("budget_ms", u64::try_from(budget.as_millis()).unwrap_or(u64::MAX));
    }
    event
}

/// Records a pickup-time shed and replies — never reaches the engine.
fn shed_at_pickup(shared: &Shared, job: &Job, reason: ShedReason, queue_time: Duration) {
    let _shed_span = shared.telemetry.span("shed");
    shared.shed.inc();
    if reason == ShedReason::CancelledInQueue {
        shared.cancelled.inc();
    }
    shared.record_flight(|| {
        FlightEvent::new(job.id, "shed")
            .field("reason", shed_reason_label(reason))
            .timing_us("queue", micros(queue_time))
    });
    // A request that died in the queue past its own deadline burned its
    // whole budget without being served: an SLO violation.
    if reason == ShedReason::DeadlineBeforeStart {
        if let Some(budget) = job.budget {
            shared.record_slo(budget, queue_time, true);
        }
    }
    shared.queue.observe(queue_time.as_secs_f64());
    let _ = job.reply.send(RequestResult {
        id: job.id,
        outcome: RequestOutcome::Shed(reason),
        queue_time,
        service_time: Duration::ZERO,
    });
}

/// Chaos hook: a stalled pickup delays this request *and* backs up the
/// queue behind it.
fn apply_fault_stall(shared: &Shared, id: u64) {
    let stall = shared
        .faults
        .lock()
        .unwrap()
        .as_ref()
        .map_or(Duration::ZERO, |f| f.pre_serve_delay(id));
    if !stall.is_zero() {
        std::thread::sleep(stall);
    }
}

/// Stringifies a [`ServeOutcome`] for flight events.
fn outcome_label(outcome: ServeOutcome) -> &'static str {
    match outcome {
        ServeOutcome::Complete => "complete",
        ServeOutcome::Cancelled => "cancelled",
        ServeOutcome::DeadlineExceeded => "deadline_exceeded",
    }
}

/// Records completion metrics, flight events, and SLO burn, then
/// replies — shared by the worker pool and the batch loop so both modes
/// produce identical series and event trails. Every request that got past
/// [`pick_up`] ends here, which is where it leaves the in-flight gauge.
fn complete_request(
    shared: &Shared,
    reply: &Sender<RequestResult>,
    id: u64,
    outcome: Result<Response, EngineError>,
    queue_time: Duration,
    service_time: Duration,
    budget: Option<Duration>,
) {
    shared.in_flight.add(-1);
    match &outcome {
        Ok(response) => {
            shared.served.inc();
            match response.outcome {
                ServeOutcome::Complete => {}
                ServeOutcome::Cancelled => {
                    let _cancel_span = shared.telemetry.span("cancel");
                    shared.cancelled.inc();
                }
                ServeOutcome::DeadlineExceeded => {
                    shared.deadline_exceeded.inc();
                }
            }
            // TTFT is only meaningful when a first token exists.
            if !response.tokens.is_empty() {
                shared.ttft.observe(response.timings.ttft.as_secs_f64());
            }
            if response.stats.degraded_spans > 0 {
                shared.degraded.inc();
            }
            shared.record_flight(|| {
                FlightEvent::new(id, "fetch")
                    .field("cached_tokens", response.stats.cached_tokens)
                    .field("new_tokens", response.stats.new_tokens)
                    .field("bytes_shared", response.stats.bytes_shared)
                    .field("used_scaffold", response.stats.used_scaffold)
            });
            if response.stats.degraded_spans > 0 {
                shared.record_flight(|| {
                    FlightEvent::new(id, "degrade")
                        .field("spans", response.stats.degraded_spans)
                });
            }
            shared.record_flight(|| {
                FlightEvent::new(id, "finish")
                    .field("outcome", outcome_label(response.outcome))
                    .field("tokens", response.tokens.len())
                    .timing_us("queue", micros(queue_time))
                    .timing_us("service", micros(service_time))
                    .timing_us("ttft", micros(response.timings.ttft))
                    .timing_us("tokenize", micros(response.breakdown.tokenize))
                    .timing_us("fetch", micros(response.breakdown.fetch))
                    .timing_us("prefill", micros(response.breakdown.prefill))
                    .timing_us("sample", micros(response.breakdown.sample))
            });
            if let Some(budget) = budget {
                shared.record_slo(
                    budget,
                    queue_time + service_time,
                    response.outcome == ServeOutcome::DeadlineExceeded,
                );
            }
        }
        Err(_) => {
            shared.failed.inc();
            shared.record_flight(|| {
                FlightEvent::new(id, "finish")
                    .field("outcome", "error")
                    .timing_us("queue", micros(queue_time))
                    .timing_us("service", micros(service_time))
            });
        }
    }
    shared.record_service_sample(service_time);
    shared.service.observe(service_time.as_secs_f64());
    shared.queue.observe(queue_time.as_secs_f64());
    // Receiver may have been dropped (caller gave up) — fine.
    let _ = reply.send(RequestResult {
        id,
        outcome: match outcome {
            Ok(response) => RequestOutcome::Ok(response),
            Err(e) => RequestOutcome::Err(e),
        },
        queue_time,
        service_time,
    });
}

/// The pickup prologue, one function for every thread that takes a job
/// off the queue (pool workers, the batch tick thread, the batch
/// admission thread): the job leaves the queue-depth gauge, is shed if it
/// is already dead (drained, cancelled, or past its deadline — don't burn
/// a slot on it), enters the in-flight gauge, sits out any injected fault
/// stall, and records its `pickup` flight event. Returns the job's queue
/// time, or `None` when it was shed (and already answered).
fn pick_up(shared: &Shared, job: &Job) -> Option<Duration> {
    shared.queue_depth.add(-1);
    let queue_time = job.submitted.elapsed();
    if let Some(reason) = pickup_shed_reason(shared, job) {
        shed_at_pickup(shared, job, reason, queue_time);
        return None;
    }
    shared.in_flight.add(1);
    apply_fault_stall(shared, job.id);
    shared.record_flight(|| {
        FlightEvent::new(job.id, "pickup").timing_us("queue", micros(queue_time))
    });
    Some(queue_time)
}

/// Serves a picked-up job start to finish on the calling thread and
/// completes it.
fn serve_whole(engine: &PromptCache, shared: &Shared, job: &Job, queue_time: Duration) {
    let start = Instant::now();
    let outcome = engine
        .serve(
            &ServeRequest::new(&job.prompt)
                .options(job.options.clone())
                .baseline(job.baseline),
        )
        .map(Served::into_response);
    complete_request(
        shared,
        &job.reply,
        job.id,
        outcome,
        queue_time,
        start.elapsed(),
        job.budget,
    );
}

fn worker_loop(rx: &Receiver<Job>, engine: &PromptCache, shared: &Shared) {
    while let Ok(job) = rx.recv() {
        if let Some(queue_time) = pick_up(shared, &job) {
            serve_whole(engine, shared, &job, queue_time);
        }
    }
}

/// What the batch loop keeps per admitted sequence, so the request can
/// be completed when the scheduler retires it.
struct InFlightEntry {
    reply: Sender<RequestResult>,
    queue_time: Duration,
    picked: Instant,
    budget: Option<Duration>,
}

/// The batch-scoped per-tick flight event: live membership plus prefix
/// grouping, e.g. `members: "0,1,2"`, `groups: "0+1|2"` (`+` joins
/// members sharing a prefix group, `|` separates groups).
fn tick_event(snapshot: &BatchSnapshot) -> FlightEvent {
    let members = snapshot
        .sequences
        .iter()
        .map(|s| s.id.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let groups = snapshot
        .groups
        .iter()
        .map(|g| {
            g.members
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join("+")
        })
        .collect::<Vec<_>>()
        .join("|");
    FlightEvent::new(BATCH_SCOPE, "tick")
        .field("members", members)
        .field("groups", groups)
}

/// A prefilled request on its way into the batch, with what completes
/// it when the scheduler retires it.
type Joining = (Admission, InFlightEntry);

/// The continuous-batching serve loop: a tick thread drives a
/// [`BatchScheduler`] and one admission thread prefills joining requests
/// beside it, both scoped to this call. The tick thread blocks on the
/// queue only when nothing is decoding or prefilling. Jobs it takes while
/// the batch is empty it admits itself — nothing in flight can stall, and
/// a hand-off would add a wake-up. Jobs it takes while sequences decode
/// go to the admission thread, as long as decoding plus handed-off jobs
/// stay within `max_batch_size`. That thread picks each one up, prefills
/// it (or serves a baseline request whole) while the ticks keep running,
/// and hands it back to join at the next tick boundary. Every job handed
/// off is handed back exactly once, and the tick thread leaves only when
/// the queue is closed, the batch idle and nothing is handed off, so no
/// reply is lost between the two threads.
fn batch_loop(rx: &Receiver<Job>, engine: &PromptCache, shared: &Shared, config: BatchConfig) {
    let max_batch_size = config.max_batch_size;
    let mut sched = BatchScheduler::new(engine, config).with_telemetry(&shared.telemetry);
    let mut inflight: HashMap<u64, InFlightEntry> = HashMap::new();
    std::thread::scope(|scope| {
        let (work_tx, work_rx) = unbounded::<Job>();
        // One hand-back per job: `None` when the admission thread
        // answered the job itself.
        let (back_tx, back_rx) = unbounded::<Option<Joining>>();
        let admission = scope.spawn(move || {
            while let Ok(job) = work_rx.recv() {
                // The tick thread holds the receiver until every
                // hand-back has arrived, so this send cannot fail.
                let _ = back_tx.send(prepare_job(engine, shared, job));
            }
        });
        // Jobs handed to the admission thread and not yet handed back.
        let mut pending = 0usize;
        let mut open = true;
        loop {
            while let Ok(back) = back_rx.try_recv() {
                pending -= 1;
                join_batch(&mut sched, &mut inflight, shared, back);
            }
            if sched.is_idle() && pending == 0 {
                if !open {
                    break;
                }
                // Nothing decoding or prefilling: block for work like a
                // pooled worker.
                match rx.recv() {
                    Ok(job) => {
                        let joining = prepare_job(engine, shared, job);
                        join_batch(&mut sched, &mut inflight, shared, joining);
                    }
                    Err(_) => {
                        open = false;
                        continue;
                    }
                }
            }
            // Fill the batch from the queue without blocking the tick.
            while open && sched.in_flight() + pending < max_batch_size {
                match rx.try_recv() {
                    Ok(job) if sched.in_flight() == 0 => {
                        let joining = prepare_job(engine, shared, job);
                        join_batch(&mut sched, &mut inflight, shared, joining);
                    }
                    Ok(job) => {
                        pending += 1;
                        // The admission thread lives until this scope
                        // ends, so its receiver is alive.
                        let _ = work_tx.send(job);
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        open = false;
                        break;
                    }
                }
            }
            if sched.is_idle() {
                // Nothing to tick while the admission thread prefills:
                // wait for its hand-back instead of spinning.
                if pending > 0 {
                    match back_rx.recv() {
                        Ok(back) => {
                            pending -= 1;
                            join_batch(&mut sched, &mut inflight, shared, back);
                        }
                        // Only a panicked admission thread hangs up with
                        // work pending; joining it below re-raises the panic.
                        Err(_) => break,
                    }
                }
                continue;
            }
            // Publish batch membership for the ops plane and the flight
            // recorder before the tick mutates it. Both are off by
            // default: an unobserved server skips the snapshot entirely.
            if shared.publish_batch_debug.load(Ordering::Acquire) || shared.flight.is_some() {
                let snapshot = sched.debug_snapshot();
                if !snapshot.sequences.is_empty() {
                    shared.record_flight(|| tick_event(&snapshot));
                }
                *shared.batch_debug.lock().unwrap() = Some(snapshot);
            }
            for (id, result) in sched.step() {
                let Some(entry) = inflight.remove(&id) else {
                    continue;
                };
                shared.record_flight(|| FlightEvent::new(id, "batch_leave"));
                complete_request(
                    shared,
                    &entry.reply,
                    id,
                    result,
                    entry.queue_time,
                    entry.picked.elapsed(),
                    entry.budget,
                );
            }
        }
        // Hanging up ends the admission thread's loop. Join it explicitly:
        // the scope alone waits for its closure, not for the OS thread to
        // exit and return its allocator arena. Otherwise the next server's
        // tick thread can take the admission thread's near-empty arena and
        // grow it while the old batch arena sits resident (+8 MB peak RSS
        // on a benchmark that restarts the server).
        drop(work_tx);
        if let Err(panic) = admission.join() {
            std::panic::resume_unwind(panic);
        }
    });
}

/// Picks a job up and runs the prepare half of its admission on the
/// calling thread. Returns what joins the batch, or `None` when the job
/// was answered here: shed at pickup, a baseline request (a full prefill
/// with nothing to share — served whole instead of batched), or an
/// admission error.
fn prepare_job(engine: &PromptCache, shared: &Shared, job: Job) -> Option<Joining> {
    let queue_time = pick_up(shared, &job)?;
    if job.baseline {
        serve_whole(engine, shared, &job, queue_time);
        return None;
    }
    let picked = Instant::now();
    match BatchScheduler::prepare(engine, job.id, &job.prompt, &job.options) {
        Ok(admission) => {
            let entry = InFlightEntry {
                reply: job.reply,
                queue_time,
                picked,
                budget: job.budget,
            };
            Some((admission, entry))
        }
        Err(e) => {
            complete_request(
                shared,
                &job.reply,
                job.id,
                Err(e),
                queue_time,
                picked.elapsed(),
                job.budget,
            );
            None
        }
    }
}

/// Joins a prepared request to the batch at the current tick boundary;
/// `None` (a job already answered where it was picked up) joins nothing.
fn join_batch(
    sched: &mut BatchScheduler<'_>,
    inflight: &mut HashMap<u64, InFlightEntry>,
    shared: &Shared,
    joining: Option<Joining>,
) {
    let Some((admission, entry)) = joining else {
        return;
    };
    let id = admission.id();
    sched.join(admission);
    shared
        .record_flight(|| FlightEvent::new(id, "batch_join").field("in_flight", sched.in_flight()));
    inflight.insert(id, entry);
}

/// Feature inventory baked into `pc_build_info` — compile-time, so the
/// series is constant for a given binary.
const BUILD_FEATURES: &str = "serve,batching,prefix-sharing,ops,flight-recorder";

/// Minimal JSON string escaping for the debug endpoints (module labels,
/// status strings).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A JSON number-or-null for optional percentiles.
fn json_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_owned(), |v| format!("{v:.6}"))
}

/// The full Prometheus payload: server registry + engine registry
/// (deduplicated) + `StoreStats` fallback counters + per-module
/// analytics series + build info + uptime. Shared by
/// [`Server::metrics_text`] and the ops endpoint's `GET /metrics`.
pub(crate) fn render_metrics(shared: &Shared, engine: &PromptCache) -> String {
    let mut snap = shared.telemetry.snapshot();
    let engine_snap = engine.telemetry().snapshot();
    let have: std::collections::HashSet<String> =
        snap.counters.iter().map(|(n, _)| n.clone()).collect();
    snap.counters.extend(
        engine_snap
            .counters
            .into_iter()
            .filter(|(n, _)| !have.contains(n)),
    );
    snap.gauges.extend(engine_snap.gauges);
    snap.histograms.extend(engine_snap.histograms);
    let stats = engine.store_stats();
    for (name, value) in [
        ("pc_cache_hits_total", stats.hits),
        ("pc_cache_misses_total", stats.misses),
        ("pc_cache_evictions_total", stats.evictions),
        ("pc_cache_corruptions_total", stats.corruptions_detected),
        ("pc_demotions_total", stats.demotions),
        ("pc_promotions_total", stats.promotions),
        ("pc_cache_disk_hits_total", stats.disk_hits),
        ("pc_cache_disk_corruptions_total", stats.disk_corruptions),
    ] {
        if !snap.counters.iter().any(|(n, _)| n == name) {
            snap.counters.push((name.to_owned(), value));
        }
    }
    snap.counters.sort();
    snap.gauges.sort();
    snap.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    let mut text = pc_telemetry::export::prometheus_text(&snap);
    if let Some(analytics) = engine.store().analytics() {
        text.push_str(&analytics.prometheus_text());
    }
    use std::fmt::Write as _;
    let help = pc_telemetry::export::help_for;
    let _ = writeln!(
        text,
        "# HELP pc_build_info {}\n# TYPE pc_build_info gauge\n\
         pc_build_info{{version=\"{}\",features=\"{}\"}} 1",
        help("pc_build_info"),
        env!("CARGO_PKG_VERSION"),
        BUILD_FEATURES,
    );
    let _ = writeln!(
        text,
        "# HELP pc_store_tier_bytes {}\n# TYPE pc_store_tier_bytes gauge\n\
         pc_store_tier_bytes{{tier=\"host\"}} {}\n\
         pc_store_tier_bytes{{tier=\"disk\"}} {}",
        help("pc_store_tier_bytes"),
        engine.store().host_bytes(),
        engine.store().disk_bytes(),
    );
    let _ = writeln!(
        text,
        "# HELP pc_uptime_seconds {}\n# TYPE pc_uptime_seconds gauge\n\
         pc_uptime_seconds {:.3}",
        help("pc_uptime_seconds"),
        shared.started.elapsed().as_secs_f64(),
    );
    text
}

/// The `/healthz` JSON: liveness, which matmul arm this host's CPU
/// selected, admission/queue state, and the SLO rollup (tracked deadline
/// requests, violations, burn percentiles).
pub(crate) fn render_healthz(shared: &Shared) -> String {
    let draining = shared.draining.load(Ordering::Acquire);
    format!(
        "{{\"status\":\"{}\",\"uptime_seconds\":{:.3},\"gemm_arm\":\"{}\",\
         \"queue_depth\":{},\"queue_capacity\":{},\"in_flight\":{},\
         \"served\":{},\"failed\":{},\"shed\":{},\"cancelled\":{},\
         \"slo\":{{\"tracked\":{},\"violations\":{},\
         \"burn_p50\":{},\"burn_p99\":{}}}}}",
        if draining { "draining" } else { "ok" },
        shared.started.elapsed().as_secs_f64(),
        pc_model::gemm_arm(),
        shared.queue_depth.get().max(0),
        shared.queue_capacity,
        shared.in_flight.get().max(0),
        shared.served.get(),
        shared.failed.get(),
        shared.shed.get(),
        shared.cancelled.get(),
        shared.slo_requests.get(),
        shared.slo_violations.get(),
        json_opt(shared.slo_burn.percentile(50.0)),
        json_opt(shared.slo_burn.percentile(99.0)),
    )
}

/// The `/debug/cache` JSON: aggregate store stats, the per-entry
/// snapshot, and (when module analytics are on) the heat ranking.
pub(crate) fn render_debug_cache(engine: &PromptCache) -> String {
    use std::fmt::Write as _;
    let stats = engine.store_stats();
    let mut out = format!(
        "{{\"stats\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\
         \"corruptions\":{},\"demotions\":{},\"promotions\":{},\
         \"disk_hits\":{},\"disk_corruptions\":{},\"disk_bytes\":{}}},\
         \"modules\":[",
        stats.hits,
        stats.misses,
        stats.evictions,
        stats.corruptions_detected,
        stats.demotions,
        stats.promotions,
        stats.disk_hits,
        stats.disk_corruptions,
        engine.store().disk_bytes(),
    );
    for (i, m) in engine.store().snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"module\":\"{}\",\"size_bytes\":{},\"tier\":\"{}\",\
             \"access_count\":{},\"last_access\":{},\"recompute_cost\":{:.3}}}",
            json_escape(&m.module),
            m.size_bytes,
            m.tier,
            m.access_count,
            m.last_access,
            m.recompute_cost,
        );
    }
    out.push_str("],\"heat\":[");
    if let Some(analytics) = engine.store().analytics() {
        for (i, h) in analytics.snapshot().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"module\":\"{}\",\"hits\":{},\"misses\":{},\"degrades\":{},\
                 \"evictions\":{},\"relocations\":{},\"bytes_shared\":{},\
                 \"shared_rows\":{},\"last_access_tick\":{}}}",
                json_escape(&h.module),
                h.hits,
                h.misses,
                h.degrades,
                h.evictions,
                h.relocations,
                h.bytes_shared,
                h.shared_rows,
                h.last_access_tick,
            );
        }
    }
    out.push_str("]}");
    out
}

/// The `/debug/batch` JSON: the latest published batch-membership
/// snapshot, or `{"enabled":false}` when the server is not batching (or
/// no tick has run yet).
pub(crate) fn render_debug_batch(shared: &Shared) -> String {
    use std::fmt::Write as _;
    let snapshot = shared.batch_debug.lock().unwrap().clone();
    let Some(snapshot) = snapshot else {
        return "{\"enabled\":false}".to_owned();
    };
    let mut out = format!(
        "{{\"enabled\":true,\"max_batch_size\":{},\"sequences\":[",
        snapshot.max_batch_size,
    );
    for (i, s) in snapshot.sequences.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":{},\"tokens_generated\":{},\"next_pos\":{},\"shared_rows\":{}}}",
            s.id, s.tokens_generated, s.next_pos, s.shared_rows,
        );
    }
    out.push_str("],\"groups\":[");
    for (i, g) in snapshot.groups.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let members = g
            .members
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let _ = write!(
            out,
            "{{\"members\":[{members}],\"prefix_segments\":{},\"prefix_rows\":{},\"shared\":{}}}",
            g.prefix_segments, g.prefix_rows, g.shared,
        );
    }
    out.push_str("]}");
    out
}

/// The `/debug/flight` payload: JSON Lines, or `None` when the flight
/// recorder is disabled (the endpoint answers 404).
pub(crate) fn render_flight(shared: &Shared) -> Option<String> {
    shared.flight.as_ref().map(|f| f.jsonl())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_model::{Model, ModelConfig};
    use pc_tokenizer::{Tokenizer, WordTokenizer};
    use prompt_cache::EngineConfig;

    const CORPUS: &str =
        "alpha beta gamma delta epsilon zeta eta theta question one two three four";

    fn engine() -> PromptCache {
        let tokenizer = WordTokenizer::train(&[CORPUS]);
        let vocab = tokenizer.vocab_size().max(64);
        let engine = PromptCache::new(
            Model::new(ModelConfig::llama_tiny(vocab), 5),
            tokenizer,
            EngineConfig::default(),
        );
        engine
            .register_schema(
                r#"<schema name="s">
                     <module name="ctx">alpha beta gamma delta epsilon zeta eta theta</module>
                   </schema>"#,
            )
            .unwrap();
        engine
    }

    fn opts() -> ServeOptions {
        ServeOptions::default().max_new_tokens(2)
    }

    fn submit(server: &Server, prompt: String, options: ServeOptions) -> RequestHandle {
        server
            .submit_request(&SubmitRequest::new(prompt).options(options).blocking(true))
            .expect("blocking submit cannot fail")
    }

    fn submit_baseline(server: &Server, prompt: String, options: ServeOptions) -> RequestHandle {
        server
            .submit_request(
                &SubmitRequest::new(prompt)
                    .options(options)
                    .baseline(true)
                    .blocking(true),
            )
            .expect("blocking submit cannot fail")
    }

    fn try_submit(
        server: &Server,
        prompt: String,
        options: ServeOptions,
    ) -> Result<RequestHandle, SubmitError> {
        server.submit_request(&SubmitRequest::new(prompt).options(options))
    }

    #[test]
    fn serves_a_request() {
        let server = Server::start(engine(), ServerConfig::default());
        let result = submit(&server, r#"<prompt schema="s"><ctx/>question</prompt>"#.into(), opts())
            .wait()
            .unwrap();
        let response = result.outcome.unwrap();
        assert!(response.stats.cached_tokens > 0);
        assert_eq!(server.metrics().served, 1);
        server.shutdown();
    }

    #[test]
    fn concurrent_results_match_direct_serving() {
        let reference = engine()
            .serve(&ServeRequest::new(r#"<prompt schema="s"><ctx/>question</prompt>"#).options(opts().clone())).map(Served::into_response)
            .unwrap()
            .tokens;
        let server = Server::start(engine(), ServerConfig::default().workers(4).queue_capacity(64));
        let handles: Vec<_> = (0..32)
            .map(|_| {
                submit(&server, r#"<prompt schema="s"><ctx/>question</prompt>"#.into(), opts())
            })
            .collect();
        for handle in handles {
            let result = handle.wait().unwrap();
            assert_eq!(result.outcome.unwrap().tokens, reference);
        }
        let m = server.metrics();
        assert_eq!(m.served, 32);
        assert_eq!(m.failed, 0);
        assert!(m.ttft_p50.is_some() && m.ttft_p99 >= m.ttft_p50);
        server.shutdown();
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let server = Server::start(engine(), ServerConfig::default());
        let bad = submit(&server, r#"<prompt schema="ghost">x</prompt>"#.into(), opts())
            .wait()
            .unwrap();
        assert!(bad.outcome.is_err());
        // Server keeps serving afterwards.
        let good = submit(&server, r#"<prompt schema="s"><ctx/>question</prompt>"#.into(), opts())
            .wait()
            .unwrap();
        assert!(good.outcome.is_ok());
        let m = server.metrics();
        assert_eq!((m.served, m.failed), (1, 1));
        server.shutdown();
    }

    #[test]
    fn baseline_and_cached_paths_share_the_queue() {
        let server = Server::start(engine(), ServerConfig::default());
        let cached = submit(&server, r#"<prompt schema="s"><ctx/>question</prompt>"#.into(), opts())
            .wait()
            .unwrap()
            .outcome
            .unwrap();
        let baseline = submit_baseline(&server, r#"<prompt schema="s"><ctx/>question</prompt>"#.into(), opts())
            .wait()
            .unwrap()
            .outcome
            .unwrap();
        assert_eq!(cached.tokens, baseline.tokens);
        assert_eq!(baseline.stats.cached_tokens, 0);
        server.shutdown();
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let server = Server::start(engine(), ServerConfig::default());
        let a = submit(&server, r#"<prompt schema="s"><ctx/>one</prompt>"#.into(), opts());
        let b = submit(&server, r#"<prompt schema="s"><ctx/>two</prompt>"#.into(), opts());
        assert!(b.id() > a.id());
        a.wait().unwrap();
        b.wait().unwrap();
        server.shutdown();
    }

    #[test]
    fn drop_without_shutdown_joins_cleanly() {
        let server = Server::start(engine(), ServerConfig::default());
        let handle = submit(&server, r#"<prompt schema="s"><ctx/>one</prompt>"#.into(), opts());
        handle.wait().unwrap();
        drop(server); // Drop impl joins workers without hanging
    }

    #[test]
    fn metrics_text_is_valid_prometheus_with_expected_series() {
        let server = Server::start(engine(), ServerConfig::default());
        submit(&server, r#"<prompt schema="s"><ctx/>question</prompt>"#.into(), opts())
            .wait()
            .unwrap();
        let text = server.metrics_text();
        assert!(text.contains("# TYPE pc_cache_hits_total counter"), "{text}");
        assert!(text.contains("# TYPE pc_ttft_seconds histogram"), "{text}");
        assert!(text.contains("pc_ttft_seconds_bucket{le=\""), "{text}");
        assert!(text.contains("# TYPE pc_queue_depth gauge"), "{text}");
        assert!(text.contains("pc_requests_served_total 1"), "{text}");
        assert!(text.contains("pc_requests_shed_total 0"), "{text}");
        assert!(text.contains("pc_requests_cancelled_total 0"), "{text}");
        assert!(text.contains("pc_degraded_serves_total 0"), "{text}");
        assert!(text.contains("pc_cache_corruptions_total 0"), "{text}");
        // Build metadata rides along: an info-gauge labeled with version
        // and feature inventory, plus process uptime.
        assert!(
            text.contains(&format!(
                "pc_build_info{{version=\"{}\",features=\"",
                env!("CARGO_PKG_VERSION")
            )),
            "{text}"
        );
        assert!(text.contains("# TYPE pc_build_info gauge"), "{text}");
        assert!(text.contains("# TYPE pc_uptime_seconds gauge"), "{text}");
        assert!(text.contains("pc_uptime_seconds "), "{text}");
        // Every line parses as `# HELP …`, `# TYPE …`, or
        // `name[{labels}] value` — and every `# TYPE` is preceded by a
        // `# HELP` for the same series.
        let mut last_help: Option<&str> = None;
        let mut typed_series = 0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').expect("HELP name text");
                assert!(!help.trim().is_empty(), "empty HELP for {name}");
                last_help = Some(name);
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split(' ').next().unwrap();
                assert_eq!(
                    last_help,
                    Some(name),
                    "series {name} must carry a HELP line immediately before its TYPE"
                );
                typed_series += 1;
                continue;
            }
            assert!(!line.starts_with('#'), "unexpected comment: {line}");
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "unparsable value: {line}");
        }
        assert!(typed_series > 10, "expected many typed series, got {typed_series}");
        server.shutdown();
    }

    #[test]
    fn metrics_text_merges_enabled_engine_telemetry_without_duplicates() {
        let tokenizer = WordTokenizer::train(&[CORPUS]);
        let vocab = tokenizer.vocab_size().max(64);
        let engine = PromptCache::new(
            Model::new(ModelConfig::llama_tiny(vocab), 5),
            tokenizer,
            EngineConfig::default().telemetry(pc_telemetry::Telemetry::new()),
        );
        engine
            .register_schema(
                r#"<schema name="s">
                     <module name="ctx">alpha beta gamma delta epsilon zeta eta theta</module>
                   </schema>"#,
            )
            .unwrap();
        let server = Server::start(engine, ServerConfig::default());
        submit(&server, r#"<prompt schema="s"><ctx/>question</prompt>"#.into(), opts())
            .wait()
            .unwrap();
        let text = server.metrics_text();
        // The engine registry provides the cache counters; the StoreStats
        // fallback must not add a second series with the same name.
        let hits_lines = text
            .lines()
            .filter(|l| l.starts_with("pc_cache_hits_total "))
            .count();
        assert_eq!(hits_lines, 1, "{text}");
        // Engine and server registries both define
        // pc_degraded_serves_total; the merge must keep exactly one.
        let degraded_lines = text
            .lines()
            .filter(|l| l.starts_with("pc_degraded_serves_total "))
            .count();
        assert_eq!(degraded_lines, 1, "{text}");
        // Engine-side metrics (sampled model timing) show up too.
        assert!(text.contains("pc_model_attention_seconds"), "{text}");
        server.shutdown();
    }

    #[test]
    fn batched_server_matches_worker_pool_byte_for_byte() {
        let prompt = r#"<prompt schema="s"><ctx/>question</prompt>"#;
        let reference = engine()
            .serve(&ServeRequest::new(prompt).options(opts()))
            .map(Served::into_response)
            .unwrap()
            .tokens;
        let server = Server::start(
            engine(),
            ServerConfig::default()
                .queue_capacity(64)
                .batching(BatchConfig::default().max_batch_size(4)),
        );
        let handles: Vec<_> = (0..16).map(|_| submit(&server, prompt.into(), opts())).collect();
        for handle in handles {
            let result = handle.wait().unwrap();
            assert_eq!(result.outcome.unwrap().tokens, reference);
        }
        let m = server.metrics();
        assert_eq!((m.served, m.failed), (16, 0));
        // Batch telemetry lands in the server's always-on registry.
        let text = server.metrics_text();
        assert!(text.contains("pc_batch_occupancy"), "{text}");
        assert!(text.contains("pc_tokens_generated_total"), "{text}");
        server.shutdown();
    }

    #[test]
    fn batched_server_reports_errors_and_serves_baselines_inline() {
        let server = Server::start(
            engine(),
            ServerConfig::default().batching(BatchConfig::default().max_batch_size(2)),
        );
        let bad = submit(&server, r#"<prompt schema="ghost">x</prompt>"#.into(), opts())
            .wait()
            .unwrap();
        assert!(bad.outcome.is_err());
        let cached = submit(&server, r#"<prompt schema="s"><ctx/>question</prompt>"#.into(), opts())
            .wait()
            .unwrap()
            .outcome
            .unwrap();
        let baseline = submit_baseline(&server, r#"<prompt schema="s"><ctx/>question</prompt>"#.into(), opts())
            .wait()
            .unwrap()
            .outcome
            .unwrap();
        assert_eq!(cached.tokens, baseline.tokens);
        assert_eq!(baseline.stats.cached_tokens, 0);
        let m = server.metrics();
        assert_eq!((m.served, m.failed), (2, 1));
        server.shutdown();
    }

    #[test]
    fn batched_server_cancels_in_flight_requests() {
        let server = Server::start(
            engine(),
            ServerConfig::default().batching(BatchConfig::default().max_batch_size(4)),
        );
        let prompt = r#"<prompt schema="s"><ctx/>question</prompt>"#;
        let handle = submit(&server, prompt.into(), ServeOptions::default().max_new_tokens(10_000));
        handle.cancel();
        let result = handle.wait().unwrap();
        match result.outcome {
            RequestOutcome::Ok(r) => assert_eq!(r.outcome, ServeOutcome::Cancelled),
            RequestOutcome::Shed(reason) => assert_eq!(reason, ShedReason::CancelledInQueue),
            RequestOutcome::Err(e) => panic!("unexpected error: {e}"),
        }
        assert!(server.metrics().cancelled >= 1);
        server.shutdown();
    }

    #[test]
    fn batched_shutdown_within_bounds_the_exit() {
        let server = Server::start(
            engine(),
            ServerConfig::default().batching(BatchConfig::default().max_batch_size(2)),
        );
        let prompt = r#"<prompt schema="s"><ctx/>question</prompt>"#;
        let handles: Vec<_> = (0..4)
            .map(|_| submit(&server, prompt.into(), ServeOptions::default().max_new_tokens(100_000)))
            .collect();
        assert!(server.shutdown_within(Duration::from_secs(30)));
        for handle in handles {
            if let Some(result) = handle.wait() {
                match result.outcome {
                    RequestOutcome::Ok(r) => assert_eq!(r.outcome, ServeOutcome::Cancelled),
                    RequestOutcome::Shed(_) => {}
                    RequestOutcome::Err(e) => panic!("unexpected error: {e}"),
                }
            }
        }
    }

    const STALL: Duration = Duration::from_millis(300);

    /// Scripted pickups for the two-thread batch tests. Request `hold` is
    /// held at pickup until another request is queued behind it, so that
    /// request is picked up while `hold` is in the batch. Request `stall`
    /// sleeps [`STALL`] at pickup, and the script records when.
    #[derive(Debug)]
    struct Script {
        hold: Option<u64>,
        stall: u64,
        queue_depth: Gauge,
        stalled_at: Mutex<Option<Instant>>,
    }

    impl Script {
        fn install(server: &Server, hold: Option<u64>, stall: u64) -> Arc<Script> {
            let script = Arc::new(Script {
                hold,
                stall,
                queue_depth: server.telemetry().gauge("pc_queue_depth"),
                stalled_at: Mutex::new(None),
            });
            server.set_worker_faults(Some(Arc::clone(&script) as Arc<dyn WorkerFaults>));
            script
        }

        /// Blocks until the stalled request has reached its pickup.
        fn wait_for_stall(&self) -> Instant {
            let give_up = Instant::now() + Duration::from_secs(30);
            loop {
                if let Some(at) = *self.stalled_at.lock().unwrap() {
                    return at;
                }
                assert!(
                    Instant::now() < give_up,
                    "request {} never reached pickup",
                    self.stall
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    impl WorkerFaults for Script {
        fn pre_serve_delay(&self, id: u64) -> Duration {
            if self.hold == Some(id) {
                let give_up = Instant::now() + Duration::from_secs(30);
                while self.queue_depth.get() < 1 && Instant::now() < give_up {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            if id != self.stall {
                return Duration::ZERO;
            }
            *self.stalled_at.lock().unwrap() = Some(Instant::now());
            STALL
        }
    }

    fn batched_server() -> Server {
        Server::start(
            engine(),
            ServerConfig::default().batching(BatchConfig::default().max_batch_size(4)),
        )
    }

    fn solo_tokens(prompt: &str, options: ServeOptions) -> Vec<pc_model::TokenId> {
        engine()
            .serve(&ServeRequest::new(prompt).options(options))
            .map(Served::into_response)
            .unwrap()
            .tokens
    }

    #[test]
    fn batched_request_counts_in_flight_from_pickup() {
        let server = batched_server();
        let prompt = r#"<prompt schema="s"><ctx/>question</prompt>"#;
        // One completion seeds the service-time EWMA behind the estimate.
        submit(&server, prompt.into(), opts())
            .wait()
            .unwrap()
            .outcome
            .unwrap();
        let in_flight = server.telemetry().gauge("pc_requests_in_flight");
        assert_eq!(in_flight.get(), 0);
        let script = Script::install(&server, None, 1);
        let handle = submit(&server, prompt.into(), opts());
        script.wait_for_stall();
        assert_eq!(
            in_flight.get(),
            1,
            "a request stalled at pickup is in flight"
        );
        assert!(server.estimated_queue_wait() > Duration::ZERO);
        handle.wait().unwrap().outcome.unwrap();
        assert_eq!(in_flight.get(), 0);
        server.shutdown();
    }

    #[test]
    fn batched_admission_stall_does_not_stall_the_tick() {
        let a_prompt = r#"<prompt schema="s"><ctx/>question</prompt>"#;
        let b_prompt = r#"<prompt schema="s"><ctx/>one two</prompt>"#;
        let a_options = ServeOptions::default().max_new_tokens(32);
        let a_solo = solo_tokens(a_prompt, a_options.clone());
        let b_solo = solo_tokens(b_prompt, opts());
        assert_eq!(a_solo.len(), 32, "A decodes its whole budget");

        let server = batched_server();
        // A (id 0) joins an empty batch and is held until B (id 1) is
        // queued, so B is picked up while A decodes; B then stalls.
        let script = Script::install(&server, Some(0), 1);
        let a = submit(&server, a_prompt.into(), a_options);
        let b = submit(&server, b_prompt.into(), opts());
        let a_result = a.wait().unwrap();
        let a_done = Instant::now();
        let b_result = b.wait().unwrap();
        let stalled_at = script.wait_for_stall();
        assert!(
            a_done < stalled_at + STALL,
            "A finished {:?} after B's pickup stall began; the stall is {STALL:?}",
            a_done - stalled_at
        );
        assert_eq!(a_result.outcome.unwrap().tokens, a_solo);
        assert_eq!(b_result.outcome.unwrap().tokens, b_solo);
        server.shutdown();
    }

    #[test]
    fn batched_shutdown_with_an_admission_in_progress() {
        let prompt = r#"<prompt schema="s"><ctx/>question</prompt>"#;

        // Bounded shutdown: A decodes a budget it will never finish, B is
        // held in its pickup stall by the admission thread, C waits behind
        // B. Every handle resolves and both threads exit within the grace.
        let server = batched_server();
        let script = Script::install(&server, Some(0), 1);
        let handles = [
            submit(
                &server,
                prompt.into(),
                ServeOptions::default().max_new_tokens(100_000),
            ),
            submit(&server, prompt.into(), opts()),
            submit(&server, prompt.into(), opts()),
        ];
        script.wait_for_stall();
        assert!(server.shutdown_within(Duration::from_secs(30)));
        for handle in handles {
            match handle.wait().expect("every handle resolves").outcome {
                RequestOutcome::Ok(_) | RequestOutcome::Shed(_) => {}
                RequestOutcome::Err(e) => panic!("unexpected error: {e}"),
            }
        }

        // Plain drop drains instead: the same three requests, with finite
        // budgets, are all served in full.
        let options = ServeOptions::default().max_new_tokens(32);
        let solo = solo_tokens(prompt, options.clone());
        let server = batched_server();
        let script = Script::install(&server, Some(0), 1);
        let handles: Vec<_> = (0..3)
            .map(|_| submit(&server, prompt.into(), options.clone()))
            .collect();
        script.wait_for_stall();
        drop(server);
        for handle in handles {
            let result = handle.wait().expect("every handle resolves");
            assert_eq!(result.outcome.unwrap().tokens, solo);
        }
    }

    #[test]
    fn queue_depth_gauge_never_reads_negative() {
        let server = Server::start(
            engine(),
            ServerConfig::default()
                .queue_capacity(2)
                .batching(BatchConfig::default().max_batch_size(2)),
        );
        let prompt = r#"<prompt schema="s"><ctx/>question</prompt>"#;
        let depth = server.telemetry().gauge("pc_queue_depth");
        let mut handles = Vec::new();
        for _ in 0..16 {
            assert!(depth.get() >= 0, "queue depth dipped below zero");
            match try_submit(&server, prompt.into(), opts()) {
                Ok(handle) => handles.push(handle),
                Err(SubmitError::QueueFull) => {}
                Err(e) => panic!("unexpected rejection: {e}"),
            }
        }
        for handle in handles {
            handle.wait().unwrap();
        }
        assert!(depth.get() >= 0);
        server.shutdown();
    }

    #[test]
    fn queue_time_is_recorded() {
        let server = Server::start(engine(), ServerConfig::default().workers(1).queue_capacity(64));
        // Pile up work on a single worker so later requests queue.
        let handles: Vec<_> = (0..8)
            .map(|_| submit(&server, r#"<prompt schema="s"><ctx/>question</prompt>"#.into(), opts()))
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
        assert!(server.metrics().queue_mean.unwrap() > Duration::ZERO);
        server.shutdown();
    }
}
