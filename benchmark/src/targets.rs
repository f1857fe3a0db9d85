//! The rungs of the ladder as [`Target`]s: fleet router → server → batch
//! scheduler driven on the benchmark thread → `PromptCache::serve` on the
//! benchmark thread. Each binds only to the public API the roadmap keeps.

use crate::drive::{Completion, Failure, Reply, Target};
use crate::gen::{PromptDef, SchemaDef};
use crate::spans::{SpanId, Tracer, NONE};
use crate::system::batch_config;
use pc_server::{
    RequestHandle, RequestOutcome, RequestResult, Router, Server, SubmitError, SubmitRequest,
};
use prompt_cache::{BatchScheduler, PromptCache, ServeOptions, ServeRequest};
use std::collections::HashMap;
use std::time::{Duration, Instant};

fn completion(result: RequestResult) -> Completion {
    Completion {
        queue: result.queue_time,
        service: result.service_time,
        result: match result.outcome {
            RequestOutcome::Ok(response) => Reply::from_response(response),
            RequestOutcome::Err(_) => Err(Failure::Error),
            RequestOutcome::Shed(_) => Err(Failure::Shed),
        },
    }
}

fn write_through(
    engine: &PromptCache,
    register: &SchemaDef,
    unregister: &str,
) -> Result<(), String> {
    let info = engine
        .register_schema(&register.pml)
        .map_err(|e| e.to_string())?;
    if info.cached_tokens != register.tokens {
        return Err(format!(
            "{} cached {} tokens",
            register.name, info.cached_tokens
        ));
    }
    engine.unregister_schema(unregister);
    Ok(())
}

type SubmitFn<'a> = Box<dyn Fn(&SubmitRequest) -> Result<RequestHandle, SubmitError> + 'a>;

/// The two rungs that queue requests for another thread and hand back a
/// `RequestHandle`: the server and the fleet router.
pub struct QueueTarget<'a> {
    span: &'static str,
    submit: SubmitFn<'a>,
    /// Where writes go; `None` skips them.
    engine: Option<&'a PromptCache>,
}

impl<'a> QueueTarget<'a> {
    /// The server rung: requests cross the admission queue to the scheduler
    /// thread; writes go through `server.engine()` on the generator thread.
    pub fn server(server: &'a Server) -> Self {
        QueueTarget {
            span: "server.submit",
            submit: Box::new(|request| server.submit_request(request)),
            engine: Some(server.engine()),
        }
    }

    /// The fleet rung: two thread-mode shards behind the router. Every
    /// schema the sequence can touch is registered up front — the router has
    /// no unregister — so writes are skipped and the rung measures routing.
    pub fn router(router: &'a Router) -> Self {
        QueueTarget {
            span: "fleet.submit",
            submit: Box::new(|request| router.submit(request)),
            engine: None,
        }
    }
}

impl Target for QueueTarget<'_> {
    type Handle = RequestHandle;

    fn submit(
        &mut self,
        id: u64,
        prompt: &PromptDef,
        blocking: bool,
        tracer: &mut Tracer,
        parent: SpanId,
    ) -> Result<RequestHandle, String> {
        let request = SubmitRequest::new(prompt.pml.as_str())
            .max_new_tokens(prompt.max_new_tokens)
            .baseline(prompt.baseline)
            .blocking(blocking);
        let span = tracer.begin(self.span, parent, id);
        let handle = (self.submit)(&request);
        tracer.end(span);
        handle.map_err(|e| e.to_string())
    }

    fn poll(&mut self, handle: &mut RequestHandle, _tracer: &mut Tracer) -> Option<Completion> {
        handle.try_wait().map(completion)
    }

    fn write(&mut self, register: &SchemaDef, unregister: &str) -> Result<(), String> {
        self.engine
            .map_or(Ok(()), |engine| write_through(engine, register, unregister))
    }

    fn asynchronous(&self) -> bool {
        true
    }
}

/// The scheduler rung: `BatchScheduler` driven on the benchmark thread the
/// way the server's loop drives it — admit, then one step per poll round.
/// Bypass requests are served inline, as the server's loop serves them.
pub struct SchedTarget<'e> {
    engine: &'e PromptCache,
    sched: BatchScheduler<'e>,
    started: HashMap<u64, Instant>,
    finished: HashMap<u64, Completion>,
    ticks: u64,
    /// Sum over ticks of sequences in flight, for batch occupancy.
    pub occupancy_sum: u64,
    pub steps: u64,
    /// Sampled from `debug_snapshot`: rows aliased from shared modules and
    /// all context rows, summed over the sampled ticks.
    pub shared_rows: u64,
    pub context_rows: u64,
}

/// `debug_snapshot` regroups the batch; sample it instead of paying that on
/// every tick.
const SNAPSHOT_EVERY: u64 = 16;

impl<'e> SchedTarget<'e> {
    pub fn new(engine: &'e PromptCache) -> Self {
        SchedTarget {
            engine,
            sched: BatchScheduler::new(engine, batch_config()),
            started: HashMap::new(),
            finished: HashMap::new(),
            ticks: 0,
            occupancy_sum: 0,
            steps: 0,
            shared_rows: 0,
            context_rows: 0,
        }
    }

    fn step(&mut self, tracer: &mut Tracer) {
        if self.sched.is_idle() {
            return;
        }
        let in_flight = self.sched.in_flight() as u64;
        if in_flight > 0 {
            self.occupancy_sum += in_flight;
            self.steps += 1;
            if self.ticks.is_multiple_of(SNAPSHOT_EVERY) {
                for seq in self.sched.debug_snapshot().sequences {
                    self.shared_rows += seq.shared_rows as u64;
                    self.context_rows += seq.next_pos as u64;
                }
            }
        }
        let span = tracer.begin("sched.step", NONE, self.ticks);
        let done = self.sched.step();
        tracer.end(span);
        self.ticks += 1;
        for (id, result) in done {
            let service = self
                .started
                .remove(&id)
                .map_or(Duration::ZERO, |t| t.elapsed());
            let result = match result {
                Ok(response) => Reply::from_response(response),
                Err(_) => Err(Failure::Error),
            };
            self.finished.insert(
                id,
                Completion {
                    queue: Duration::ZERO,
                    service,
                    result,
                },
            );
        }
    }
}

impl Target for SchedTarget<'_> {
    type Handle = u64;

    fn submit(
        &mut self,
        id: u64,
        prompt: &PromptDef,
        _blocking: bool,
        tracer: &mut Tracer,
        parent: SpanId,
    ) -> Result<u64, String> {
        let picked = Instant::now();
        let span = tracer.begin("sched.admit", parent, id);
        if prompt.baseline {
            let completion = serve(self.engine, prompt);
            tracer.end(span);
            self.finished.insert(id, completion);
            return Ok(id);
        }
        let options = ServeOptions::default().max_new_tokens(prompt.max_new_tokens);
        let admitted = self.sched.admit(id, &prompt.pml, &options);
        tracer.end(span);
        match admitted {
            Ok(()) => {
                self.started.insert(id, picked);
            }
            Err(_) => {
                let failed = Completion {
                    queue: Duration::ZERO,
                    service: picked.elapsed(),
                    result: Err(Failure::Error),
                };
                self.finished.insert(id, failed);
            }
        }
        Ok(id)
    }

    fn poll(&mut self, handle: &mut u64, tracer: &mut Tracer) -> Option<Completion> {
        if let Some(done) = self.finished.remove(handle) {
            return Some(done);
        }
        self.step(tracer);
        self.finished.remove(handle)
    }

    fn write(&mut self, register: &SchemaDef, unregister: &str) -> Result<(), String> {
        write_through(self.engine, register, unregister)
    }

    fn asynchronous(&self) -> bool {
        false
    }
}

fn serve(engine: &PromptCache, prompt: &PromptDef) -> Completion {
    let began = Instant::now();
    let request = ServeRequest::new(prompt.pml.as_str())
        .max_new_tokens(prompt.max_new_tokens)
        .baseline(prompt.baseline);
    let served = engine.serve(&request);
    Completion {
        queue: Duration::ZERO,
        service: began.elapsed(),
        result: match served {
            Ok(served) => Reply::from_response(served.into_response()),
            Err(_) => Err(Failure::Error),
        },
    }
}

/// The core rung: `PromptCache::serve` on the benchmark thread, one
/// request at a time.
pub struct CoreTarget<'e>(pub &'e PromptCache);

impl Target for CoreTarget<'_> {
    type Handle = Option<Completion>;

    fn submit(
        &mut self,
        id: u64,
        prompt: &PromptDef,
        _blocking: bool,
        tracer: &mut Tracer,
        parent: SpanId,
    ) -> Result<Self::Handle, String> {
        let span = tracer.begin("core.serve", parent, id);
        let completion = serve(self.0, prompt);
        tracer.end(span);
        Ok(Some(completion))
    }

    fn poll(&mut self, handle: &mut Self::Handle, _tracer: &mut Tracer) -> Option<Completion> {
        handle.take()
    }

    fn write(&mut self, register: &SchemaDef, unregister: &str) -> Result<(), String> {
        write_through(self.0, register, unregister)
    }

    fn asynchronous(&self) -> bool {
        false
    }
}
