//! The sharded serving fleet: a [`Router`] over N [`Server`] shards.
//!
//! The paper's modular reuse pays at scale only when hot modules stay
//! hot. One engine caps both throughput and locality, so the fleet
//! splits the module store across N shards — each a continuous-batching
//! [`Server`] over its own engine, built from the same [`EngineBlueprint`]
//! — and routes requests to a shard that already holds their modules:
//!
//! * **Shard ownership.** Schemas are consistent-hashed over shards
//!   ([`pc_cache::ShardMap`], rendezvous hashing) with a configurable
//!   [replication factor](FleetConfig::replication). Owners register a
//!   schema *warm* (modules encoded at registration); every other
//!   shard registers it *cold* (layout only) and can still serve it
//!   byte-identically by re-encoding on demand through the engine's
//!   degrade-on-miss path.
//! * **Schema-affinity routing.** A request routes to the least-loaded
//!   alive *owner* of its schema (load = the shard's
//!   [`Server::estimated_queue_wait`]); when no owner survives, to the
//!   least-loaded alive shard.
//! * **Every shard batches.** A shard serves through the one serve loop
//!   behind [`Server`]: up to eight sequences decode together, joining
//!   requests prefill on its admission thread, and sequences sharing a
//!   module prefix attend to it as one group.
//! * **Shard loss is not a correctness event.** Killing a shard
//!   ([`Router::kill_worker`], or the chaos plan's deterministic
//!   self-kill via [`FleetFaults`]) sheds its queue and cancels its
//!   in-flight serves within one decode step. One router thread receives
//!   every shard's results and re-routes what a dead shard gave up to
//!   the survivors. Re-serving from scratch is deterministic, so the
//!   caller sees exactly the bytes a healthy fleet (or a single engine)
//!   would have produced.
//!
//! The router submits through the same [`SubmitRequest`] builder and
//! returns the same [`RequestHandle`] / [`RequestResult`] /
//! [`SubmitError`] types as the single-engine [`Server`] — no separate
//! error taxonomy.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use pc_cache::ShardMap;
use pc_telemetry::{Counter, Histogram, Telemetry};
use prompt_cache::{CancelToken, EngineError, RegisterOptions, ServeOutcome};

use crate::ops::{self, OpsHandle, Routes, JSON, PROM};
use crate::server::{json_escape, RequestHandle, RequestOutcome, RequestResult, ShedReason};
use crate::submit::SubmitRequest;
use crate::wire::EngineBlueprint;
use crate::{Server, ServerConfig, SubmitError, WorkerFaults};

/// Injected fleet-level faults for chaos testing — the fleet analogue of
/// [`crate::WorkerFaults`], keyed by worker so one seed drives a whole
/// fleet's failure schedule deterministically. `pc-faults` implements
/// this for its seeded plans.
pub trait FleetFaults: Send + Sync + std::fmt::Debug {
    /// Stall applied on `worker` when it picks up request `id`;
    /// `Duration::ZERO` for a healthy pickup.
    fn pre_serve_delay(&self, worker: usize, id: u64) -> Duration;

    /// If `Some(n)`, `worker` kills itself once it has completed `n`
    /// serves (at its next pickup) — a deterministic mid-run worker loss.
    /// `None` means the worker never self-kills.
    fn kill_after(&self, worker: usize) -> Option<u64> {
        let _ = worker;
        None
    }
}

/// Fleet topology. `#[non_exhaustive]` with chainable setters, like
/// every config in this workspace.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct FleetConfig {
    /// Number of shards, each a [`Server`]. Clamped to at least 1.
    pub shards: usize,
    /// Owners per schema (clamped to `1..=shards`). With replication 2,
    /// losing one owner leaves a warm copy — no re-encode needed.
    pub replication: usize,
    /// Per-shard queue capacity ([`ServerConfig::queue_capacity`]).
    pub queue_capacity: usize,
    /// Bind an ops-plane HTTP listener (`/metrics`, `/healthz`,
    /// `/debug/fleet`) on this address.
    pub ops_addr: Option<SocketAddr>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 2,
            replication: 1,
            queue_capacity: 64,
            ops_addr: None,
        }
    }
}

impl FleetConfig {
    /// Sets the shard count.
    #[must_use]
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Sets the replication factor.
    #[must_use]
    pub fn replication(mut self, n: usize) -> Self {
        self.replication = n;
        self
    }

    /// Sets the per-shard queue capacity.
    #[must_use]
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n;
        self
    }

    /// Binds the fleet ops endpoint.
    #[must_use]
    pub fn ops_addr(mut self, addr: SocketAddr) -> Self {
        self.ops_addr = Some(addr);
        self
    }
}

/// A point-in-time view of one worker, for `/debug/fleet` and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct WorkerInfo {
    /// Shard index.
    pub id: usize,
    /// Whether the worker is alive (not killed).
    pub alive: bool,
    /// Requests routed to this worker and not yet completed.
    pub queued: u64,
    /// Serves this worker completed (including errors).
    pub served: u64,
    /// Jobs this worker handed off to survivors (kill drain/re-route).
    pub rerouted_from: u64,
    /// Worker-engine store hits (cumulative).
    pub store_hits: u64,
    /// Worker-engine store misses (cumulative).
    pub store_misses: u64,
}

/// A request the router owns until a shard answers it for good. Boxed,
/// so a re-route moves a pointer, not the request.
struct FleetJob {
    id: u64,
    /// Schema name parsed from the prompt at submit ("" when the prompt
    /// failed to parse — the engine will report the real error).
    schema: String,
    /// What a shard is handed: the prompt, and options whose token
    /// carries the caller's cancel and the absolute deadline.
    request: SubmitRequest,
    /// The caller's token with the deadline. No shard is linked into it,
    /// so after a kill it still tells whether the caller gave up.
    cancel: CancelToken,
    submitted: Instant,
    reply: Sender<RequestResult>,
    /// Re-route count; bounded so a dying fleet degrades to shed, not to
    /// a routing loop.
    attempts: u32,
    /// The shard serving it now.
    worker: usize,
}

/// Router-side state for one shard.
struct Shard {
    server: Server,
    alive: AtomicBool,
    queued: AtomicU64,
    served: AtomicU64,
    rerouted_from: AtomicU64,
}

/// One shard's view of the fleet fault plan, installed as its server's
/// [`WorkerFaults`]: the pickup stall is the plan's stall for this
/// worker, and the first pickup after the worker's scheduled number of
/// completions kills the shard. The request picked up is then the first
/// to re-route.
#[derive(Debug)]
struct ShardFaults {
    worker: usize,
    faults: Arc<dyn FleetFaults>,
    fleet: Weak<FleetShared>,
}

impl WorkerFaults for ShardFaults {
    fn pre_serve_delay(&self, id: u64) -> Duration {
        if let (Some(kill_at), Some(fleet)) =
            (self.faults.kill_after(self.worker), self.fleet.upgrade())
        {
            if fleet.shards[self.worker].server.completed() >= kill_at {
                fleet.kill(self.worker);
            }
        }
        self.faults.pre_serve_delay(self.worker, id)
    }
}

/// State shared by the router handle, the router thread and the ops
/// plane.
struct FleetShared {
    map: ShardMap,
    shards: Vec<Shard>,
    /// Requests handed to a shard and not yet answered, by fleet id.
    pending: Mutex<HashMap<u64, Box<FleetJob>>>,
    /// The channel every shard answers on; `None` once shutdown begins,
    /// after which a request a dead shard gives up is shed, not re-routed.
    results: Mutex<Option<Sender<RequestResult>>>,
    telemetry: Telemetry,
    served: Counter,
    failed: Counter,
    shed: Counter,
    cancelled: Counter,
    deadline_exceeded: Counter,
    rerouted: Counter,
    routed_affinity: Counter,
    routed_spilled: Counter,
    queue: Histogram,
    service: Histogram,
    schemas: Mutex<Vec<String>>,
    started: Instant,
}

impl FleetShared {
    fn alive_vec(&self) -> Vec<bool> {
        self.shards
            .iter()
            .map(|s| s.alive.load(Ordering::Acquire))
            .collect()
    }

    /// Least-loaded shard among `candidates` (estimated queue wait, then
    /// queue depth, then index — a total order, so routing is
    /// deterministic given the load observations).
    fn least_loaded(&self, candidates: impl Iterator<Item = usize>) -> Option<usize> {
        candidates.min_by_key(|&w| {
            let s = &self.shards[w];
            (
                s.server.estimated_queue_wait(),
                s.queued.load(Ordering::Relaxed),
                w,
            )
        })
    }

    /// Picks the shard for a fresh submission, counting the routing
    /// decision. `None` when no shard is alive.
    fn pick_worker(&self, schema: &str) -> Option<usize> {
        let alive = self.alive_vec();
        if !schema.is_empty() {
            let owners = self.map.owners_alive(schema, &alive);
            if let Some(best) = self.least_loaded(owners.into_iter()) {
                self.routed_affinity.inc();
                return Some(best);
            }
        }
        let global = self.least_loaded((0..self.shards.len()).filter(|&w| alive[w]));
        // No owner survives: anything alive re-encodes on demand.
        if !schema.is_empty() && global.is_some() {
            self.routed_spilled.inc();
        }
        global
    }

    /// Hands `job` to shard `worker`. The job is pending before the
    /// shard can answer it; a refused job (queue full, fleet shutting
    /// down) comes back.
    fn route(
        &self,
        mut job: Box<FleetJob>,
        worker: usize,
        blocking: bool,
    ) -> Result<(), Box<FleetJob>> {
        let Some(reply) = self.results.lock().unwrap().clone() else {
            return Err(job);
        };
        let (id, submitted, request) = (job.id, job.submitted, job.request.clone());
        job.worker = worker;
        let shard = &self.shards[worker];
        shard.queued.fetch_add(1, Ordering::AcqRel);
        self.pending.lock().unwrap().insert(id, job);
        match shard
            .server
            .submit_routed(id, &request, submitted, reply, blocking)
        {
            Ok(()) => Ok(()),
            Err(_) => {
                shard.queued.fetch_sub(1, Ordering::AcqRel);
                Err(self
                    .pending
                    .lock()
                    .unwrap()
                    .remove(&id)
                    .expect("a refused job is still pending"))
            }
        }
    }

    /// Marks `worker` dead and stops its server: queued requests are shed
    /// and in-flight serves cancelled, and the router thread re-routes
    /// both. Idempotent.
    fn kill(&self, worker: usize) {
        let shard = &self.shards[worker];
        // The flag goes down before the server's token fires, so every
        // result the kill causes reaches the router thread (through the
        // results channel) after its `Acquire` load can see the flag down.
        if shard.alive.swap(false, Ordering::AcqRel) {
            shard.server.kill();
        }
    }

    fn deliver_shed(&self, job: Box<FleetJob>, reason: ShedReason) {
        self.shed.inc();
        let _ = job.reply.send(RequestResult {
            id: job.id,
            outcome: RequestOutcome::Shed(reason),
            queue_time: job.submitted.elapsed(),
            service_time: Duration::ZERO,
        });
    }

    /// Moves a job off a dead shard onto the best survivor. Survivor
    /// preference follows the schema's rendezvous ranking, so a
    /// re-routed request still lands on the next-best owner when one
    /// exists. Bounded by `attempts`; a fleet with no capacity left
    /// sheds with [`ShedReason::ShuttingDown`].
    fn reroute(&self, mut job: Box<FleetJob>) {
        let from = job.worker;
        self.shards[from]
            .rerouted_from
            .fetch_add(1, Ordering::Relaxed);
        self.rerouted.inc();
        job.attempts += 1;
        if job.attempts as usize > self.shards.len() + 2 {
            self.deliver_shed(job, ShedReason::ShuttingDown);
            return;
        }
        let alive = self.alive_vec();
        for target in self
            .map
            .ranked(&job.schema)
            .into_iter()
            .filter(|&w| w != from && alive[w])
        {
            match self.route(job, target, false) {
                Ok(()) => return,
                Err(refused) => job = refused,
            }
        }
        self.deliver_shed(job, ShedReason::ShuttingDown);
    }

    /// Counts a shard's answer and forwards it to the caller.
    fn complete(&self, job: Box<FleetJob>, result: RequestResult) {
        match &result.outcome {
            RequestOutcome::Ok(response) => match response.outcome {
                ServeOutcome::Complete => self.served.inc(),
                ServeOutcome::Cancelled => self.cancelled.inc(),
                ServeOutcome::DeadlineExceeded => self.deadline_exceeded.inc(),
            },
            RequestOutcome::Err(_) => self.failed.inc(),
            RequestOutcome::Shed(_) => self.shed.inc(),
        }
        if !result.outcome.is_shed() {
            self.shards[job.worker]
                .served
                .fetch_add(1, Ordering::Relaxed);
            self.queue.observe(result.queue_time.as_secs_f64());
            self.service.observe(result.service_time.as_secs_f64());
        }
        let _ = job.reply.send(result);
    }
}

/// The router thread: receives every shard's results. A request a dead
/// shard gave up — shed while queued, or cancelled in flight by the kill
/// rather than by its caller — re-routes; everything else goes to the
/// caller. Ends when the last reply sender is gone: shutdown has taken
/// the router's, and the shards have answered every job they held.
fn collect_results(shared: &FleetShared, results: &Receiver<RequestResult>) {
    for result in results.iter() {
        let Some(job) = shared.pending.lock().unwrap().remove(&result.id) else {
            continue;
        };
        let shard = &shared.shards[job.worker];
        shard.queued.fetch_sub(1, Ordering::AcqRel);
        let given_up = match &result.outcome {
            RequestOutcome::Shed(reason) => *reason == ShedReason::ShuttingDown,
            RequestOutcome::Ok(response) => response.outcome == ServeOutcome::Cancelled,
            RequestOutcome::Err(_) => false,
        };
        if given_up && !shard.alive.load(Ordering::Acquire) && !job.cancel.is_cancelled() {
            // Re-serving is deterministic: the caller sees exactly the
            // healthy-fleet bytes.
            shared.reroute(job);
        } else {
            shared.complete(job, result);
        }
    }
}

/// The fleet front-end: owns the shards, routes submissions, and hosts
/// the fleet ops plane. See the [module docs](self).
pub struct Router {
    shared: Arc<FleetShared>,
    next_id: AtomicU64,
    /// The router thread; `None` once joined.
    router_thread: Option<JoinHandle<()>>,
    ops: Option<OpsHandle>,
}

impl Router {
    /// Starts the fleet: builds every shard's engine from `blueprint`
    /// and starts a [`Server`] over it, starts the router thread, then
    /// binds the ops endpoint if configured.
    ///
    /// # Panics
    ///
    /// On ops bind failures — construction-time misconfiguration, like
    /// `Server::start`.
    #[must_use]
    pub fn start(blueprint: EngineBlueprint, config: FleetConfig) -> Router {
        let shards = config.shards.max(1);
        let map = ShardMap::new(shards, config.replication);
        let shards = (0..shards)
            .map(|_| Shard {
                server: Server::start(
                    blueprint.build(),
                    ServerConfig::default().queue_capacity(config.queue_capacity),
                ),
                alive: AtomicBool::new(true),
                queued: AtomicU64::new(0),
                served: AtomicU64::new(0),
                rerouted_from: AtomicU64::new(0),
            })
            .collect();
        let (results_tx, results_rx) = unbounded();
        let telemetry = Telemetry::new();
        let shared = Arc::new(FleetShared {
            map,
            shards,
            pending: Mutex::new(HashMap::new()),
            results: Mutex::new(Some(results_tx)),
            served: telemetry.counter("pc_fleet_requests_served_total"),
            failed: telemetry.counter("pc_fleet_requests_failed_total"),
            shed: telemetry.counter("pc_fleet_requests_shed_total"),
            cancelled: telemetry.counter("pc_fleet_requests_cancelled_total"),
            deadline_exceeded: telemetry.counter("pc_fleet_deadline_exceeded_total"),
            rerouted: telemetry.counter("pc_fleet_rerouted_total"),
            routed_affinity: telemetry.counter("pc_fleet_routed_affinity_total"),
            routed_spilled: telemetry.counter("pc_fleet_routed_spilled_total"),
            queue: telemetry.latency_histogram("pc_fleet_queue_wait_seconds"),
            service: telemetry.latency_histogram("pc_fleet_service_seconds"),
            telemetry,
            schemas: Mutex::new(Vec::new()),
            started: Instant::now(),
        });
        let router_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || collect_results(&shared, &results_rx))
        };
        let ops = config.ops_addr.map(|addr| {
            let routes = fleet_routes(Arc::clone(&shared));
            ops::spawn_routes(addr, routes)
                .unwrap_or_else(|e| panic!("fleet ops bind failed on {addr}: {e}"))
        });
        Router {
            shared,
            next_id: AtomicU64::new(0),
            router_thread: Some(router_thread),
            ops,
        }
    }

    /// The fleet's shard map.
    #[must_use]
    pub fn shard_map(&self) -> ShardMap {
        self.shared.map
    }

    /// The owner workers of `schema` (ignoring liveness).
    #[must_use]
    pub fn owners_of(&self, schema: &str) -> Vec<usize> {
        self.shared.map.owners(schema)
    }

    /// Registers a schema fleet-wide: warm (modules encoded) on its
    /// owners, cold (layout only) everywhere else.
    ///
    /// # Errors
    ///
    /// Parse errors, and the first per-shard registration error.
    pub fn register_schema(&self, pml: &str) -> prompt_cache::Result<()> {
        let name = pc_pml::parse_schema(pml).map_err(EngineError::from)?.name;
        for (worker, shard) in self.shared.shards.iter().enumerate() {
            let warm = self.shared.map.is_owner(&name, worker);
            shard
                .server
                .engine()
                .register_schema_with(pml, &RegisterOptions::new().warm(warm))?;
        }
        self.shared.schemas.lock().unwrap().push(name);
        Ok(())
    }

    /// Submits a request to the fleet — same [`SubmitRequest`] builder,
    /// same [`RequestHandle`], same [`SubmitError`] taxonomy as
    /// [`Server::submit_request`].
    ///
    /// Routing: the least-loaded alive owner of the prompt's schema, else
    /// the least-loaded alive shard. When no shard is alive the request
    /// is accepted and immediately shed with [`ShedReason::ShuttingDown`]
    /// (observable on the handle).
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] or
    /// [`SubmitError::PredictedDeadlineExceeded`] (never with
    /// `.blocking(true)`).
    pub fn submit(&self, request: &SubmitRequest) -> Result<RequestHandle, SubmitError> {
        let schema = pc_pml::parse_prompt(request.prompt())
            .map(|p| p.schema)
            .unwrap_or_default();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (reply, rx) = bounded(1);
        // The deadline becomes the token's absolute deadline here, at the
        // fleet submission, so a re-route does not restart the budget.
        let mut options = request.options_ref().clone();
        let base = options.cancel.take().unwrap_or_default();
        let budget = options.deadline.take();
        let token = match budget {
            Some(budget) => base.with_budget(budget),
            None => base,
        };
        options.cancel = Some(token.clone());
        let job = Box::new(FleetJob {
            id,
            schema,
            request: SubmitRequest::new(request.prompt())
                .options(options)
                .baseline(request.is_baseline()),
            cancel: token.clone(),
            submitted: Instant::now(),
            reply,
            attempts: 0,
            worker: 0,
        });
        let handle = RequestHandle::assemble(id, token, rx);
        let Some(worker) = self.shared.pick_worker(&job.schema) else {
            self.shared.deliver_shed(job, ShedReason::ShuttingDown);
            return Ok(handle);
        };
        if !request.is_blocking() {
            if let Some(budget) = budget {
                let estimated_wait = self.shared.shards[worker].server.estimated_queue_wait();
                if estimated_wait > budget {
                    self.shared.shed.inc();
                    return Err(SubmitError::PredictedDeadlineExceeded { estimated_wait });
                }
            }
        }
        match self.shared.route(job, worker, request.is_blocking()) {
            Ok(()) => Ok(handle),
            Err(_) => {
                self.shared.shed.inc();
                Err(SubmitError::QueueFull)
            }
        }
    }

    /// Kills a worker: its queued requests are shed and its in-flight
    /// serves cancelled within one decode step, and every one of them
    /// re-routes to survivors. Idempotent. The fleet keeps serving as
    /// long as one worker survives.
    pub fn kill_worker(&self, worker: usize) {
        if worker < self.shared.shards.len() {
            self.shared.kill(worker);
        }
    }

    /// Installs (or clears) the fleet fault injector — see
    /// [`FleetFaults`]. Takes effect from each shard's next pickup.
    pub fn set_fleet_faults(&self, faults: Option<Arc<dyn FleetFaults>>) {
        for (worker, shard) in self.shared.shards.iter().enumerate() {
            shard.server.set_worker_faults(faults.clone().map(|faults| {
                Arc::new(ShardFaults {
                    worker,
                    faults,
                    fleet: Arc::downgrade(&self.shared),
                }) as Arc<dyn WorkerFaults>
            }));
        }
    }

    /// Point-in-time per-worker views.
    #[must_use]
    pub fn workers(&self) -> Vec<WorkerInfo> {
        self.shared
            .shards
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let stats = s.server.engine().store_stats();
                WorkerInfo {
                    id,
                    alive: s.alive.load(Ordering::Acquire),
                    queued: s.queued.load(Ordering::Relaxed),
                    served: s.served.load(Ordering::Relaxed),
                    rerouted_from: s.rerouted_from.load(Ordering::Relaxed),
                    store_hits: stats.hits,
                    store_misses: stats.misses,
                }
            })
            .collect()
    }

    /// Total requests re-routed across the fleet's lifetime.
    #[must_use]
    pub fn rerouted_total(&self) -> u64 {
        self.shared.rerouted.get()
    }

    /// Requests routed to a schema owner vs to a non-owner (no owner
    /// alive).
    #[must_use]
    pub fn routing_split(&self) -> (u64, u64) {
        (
            self.shared.routed_affinity.get(),
            self.shared.routed_spilled.get(),
        )
    }

    /// The fleet `/metrics` payload (Prometheus text): fleet counters
    /// and histograms plus hand-rendered per-worker series.
    #[must_use]
    pub fn metrics_text(&self) -> String {
        render_fleet_metrics(&self.shared)
    }

    /// The `/debug/fleet` JSON payload.
    #[must_use]
    pub fn fleet_json(&self) -> String {
        render_fleet_debug(&self.shared)
    }

    /// The bound ops address, when [`FleetConfig::ops_addr`] was set
    /// (resolves an ephemeral port 0).
    #[must_use]
    pub fn ops_local_addr(&self) -> Option<SocketAddr> {
        self.ops.as_ref().map(OpsHandle::local_addr)
    }

    /// Graceful shutdown: stop accepting, let every live shard serve its
    /// queue (what a dead shard still gives up is shed, not re-routed),
    /// join the router thread and every shard's server, stop the ops
    /// listener.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.results.lock().unwrap().take();
        if let Some(thread) = self.router_thread.take() {
            let _ = thread.join();
        }
        if let Some(ops) = self.ops.take() {
            ops.stop();
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        // Dropping the last `FleetShared` afterwards drops the servers,
        // which join their serve loops.
        self.shutdown_inner();
    }
}

/// Renders per-worker gauge/counter families with `worker="N"` labels.
fn render_fleet_metrics(shared: &FleetShared) -> String {
    let mut snap = shared.telemetry.snapshot();
    snap.counters.sort();
    snap.gauges.sort();
    snap.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    let mut text = pc_telemetry::export::prometheus_text(&snap);
    use std::fmt::Write as _;
    let help = pc_telemetry::export::help_for;
    type WorkerRead = fn(&Shard) -> u64;
    let families: [(&str, &str, WorkerRead); 6] = [
        ("pc_worker_alive", "gauge", |w| {
            u64::from(w.alive.load(Ordering::Acquire))
        }),
        ("pc_worker_queue_depth", "gauge", |w| {
            w.queued.load(Ordering::Relaxed)
        }),
        ("pc_worker_served_total", "counter", |w| {
            w.served.load(Ordering::Relaxed)
        }),
        ("pc_worker_rerouted_total", "counter", |w| {
            w.rerouted_from.load(Ordering::Relaxed)
        }),
        ("pc_worker_store_hits_total", "counter", |w| {
            w.server.engine().store_stats().hits
        }),
        ("pc_worker_store_misses_total", "counter", |w| {
            w.server.engine().store_stats().misses
        }),
    ];
    for (name, kind, read) in families {
        let _ = writeln!(text, "# HELP {name} {}\n# TYPE {name} {kind}", help(name));
        for (id, shard) in shared.shards.iter().enumerate() {
            let _ = writeln!(text, "{name}{{worker=\"{id}\"}} {}", read(shard));
        }
    }
    let _ = writeln!(
        text,
        "# HELP pc_fleet_uptime_seconds {}\n# TYPE pc_fleet_uptime_seconds gauge\n\
         pc_fleet_uptime_seconds {:.3}",
        help("pc_fleet_uptime_seconds"),
        shared.started.elapsed().as_secs_f64(),
    );
    text
}

/// `/debug/fleet`: topology, per-worker state, schema placement.
fn render_fleet_debug(shared: &FleetShared) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"shards\":{},\"replication\":{}",
        shared.map.workers(),
        shared.map.replication(),
    );
    let _ = write!(out, ",\"workers\":[");
    for (id, shard) in shared.shards.iter().enumerate() {
        if id > 0 {
            out.push(',');
        }
        let engine = shard.server.engine();
        let stats = engine.store_stats();
        let _ = write!(
            out,
            "{{\"id\":{id},\"alive\":{},\"queued\":{},\"served\":{},\
             \"rerouted_from\":{},\"store_hits\":{},\"store_misses\":{},\
             \"ewma_service_us\":{},\"cached_bytes\":{}}}",
            shard.alive.load(Ordering::Acquire),
            shard.queued.load(Ordering::Relaxed),
            shard.served.load(Ordering::Relaxed),
            shard.rerouted_from.load(Ordering::Relaxed),
            stats.hits,
            stats.misses,
            shard.server.ewma_service().as_micros(),
            engine.cached_bytes(),
        );
    }
    let _ = write!(out, "],\"schemas\":{{");
    let schemas = shared.schemas.lock().unwrap().clone();
    for (i, name) in schemas.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let owners = shared.map.owners(name);
        let owners: Vec<String> = owners.iter().map(ToString::to_string).collect();
        let _ = write!(out, "\"{}\":[{}]", json_escape(name), owners.join(","));
    }
    let _ = write!(
        out,
        "}},\"counters\":{{\"served\":{},\"failed\":{},\"shed\":{},\"cancelled\":{},\
         \"deadline_exceeded\":{},\"rerouted\":{},\"routed_affinity\":{},\
         \"routed_spilled\":{}}}}}",
        shared.served.get(),
        shared.failed.get(),
        shared.shed.get(),
        shared.cancelled.get(),
        shared.deadline_exceeded.get(),
        shared.rerouted.get(),
        shared.routed_affinity.get(),
        shared.routed_spilled.get(),
    );
    out
}

/// `/healthz` for the fleet: alive counts and queue totals.
fn render_fleet_health(shared: &FleetShared) -> String {
    let alive = shared
        .shards
        .iter()
        .filter(|s| s.alive.load(Ordering::Acquire))
        .count();
    let queued: u64 = shared
        .shards
        .iter()
        .map(|s| s.queued.load(Ordering::Relaxed))
        .sum();
    format!(
        "{{\"status\":\"{}\",\"workers_alive\":{alive},\"workers\":{},\"queued\":{queued}}}",
        if alive > 0 { "ok" } else { "dead" },
        shared.shards.len(),
    )
}

fn fleet_routes(shared: Arc<FleetShared>) -> Routes {
    Arc::new(move |path| match path {
        "/metrics" => Some(("200 OK", PROM, render_fleet_metrics(&shared))),
        "/healthz" => Some(("200 OK", JSON, render_fleet_health(&shared))),
        "/debug/fleet" => Some(("200 OK", JSON, render_fleet_debug(&shared))),
        _ => None,
    })
}
