//! The load generator: one thread that sends requests, polls for their
//! completion and stamps every time itself. It drives anything that
//! implements [`Target`] — the server, the fleet router, the scheduler and
//! the bare engine — so every rung of the ladder replays the same sequence
//! through the same loop.

use crate::gen::{Event, PromptDef, SchemaDef};
use crate::spans::{SpanId, Tracer, NONE};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pause between poll rounds while work is outstanding on another thread:
/// a short spin, then a yield. Not a sleep — on the two-vCPU machine this
/// landed on, a generator that slept 20 µs between polls woke 13 000 times
/// a second, and whenever the kernel had placed the server's thread on the
/// same vCPU those wake-ups made every serve 1.4× slower for minutes at a
/// time. A generator that stays runnable keeps its vCPU to itself, and on
/// one shared vCPU the yield hands the core to the server. The observed gap
/// is reported as `client.poll_gap_us_p95`.
fn pause() {
    for _ in 0..64 {
        std::hint::spin_loop();
    }
    std::thread::yield_now();
}

/// Keeps a vCPU the load leaves idle from halting. On the virtual machine
/// this landed on, a vCPU that halts between arrivals wakes slowly whenever
/// the host is busy with its neighbours: the open loop (server ~20 % busy)
/// then served every request 1.4× slower for minutes at a time, while closed
/// loops, which never let the server's vCPU halt, were unaffected. A thread
/// of the `SCHED_IDLE` class spins for as long as this guard lives; any
/// normal thread that wakes preempts it at once, so it takes no time from
/// the system — it only keeps the idle loop from reaching `HLT`.
struct KeepAwake {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            // At normal priority the spinner would compete with the server;
            // if the class cannot be set, do without it.
            if !enter_idle_class() {
                return;
            }
            while !flag.load(Ordering::Relaxed) {
                for _ in 0..256 {
                    std::hint::spin_loop();
                }
            }
        });
        KeepAwake {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Moves the calling thread to Linux's `SCHED_IDLE` class; false if the
/// kernel refuses.
fn enter_idle_class() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `sched_setscheduler` is the libc function of that signature;
    // `param` outlives the call, pid 0 names the calling thread, and the
    // call changes nothing but that thread's scheduling class.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// Give up on requests still outstanding this long after the last send;
/// they count as dropped.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// Refused at admission or shed from the queue.
    Shed,
    /// The engine returned an error.
    Error,
    /// Interrupted before completion (partial response).
    Interrupted,
    /// Never completed within the drain limit.
    Dropped,
}

/// What a layer returned for one served request.
#[derive(Debug, Clone)]
pub struct Reply {
    pub tokens: Vec<u32>,
    pub ttft: Duration,
    pub decode: Duration,
    /// `Response.breakdown`: tokenize, fetch, prefill, sample.
    pub phases: [Duration; 4],
    pub cached_tokens: usize,
    pub new_tokens: usize,
    pub bytes_shared: usize,
    pub bytes_copied: usize,
    pub degraded_spans: usize,
}

impl Reply {
    pub fn from_response(response: prompt_cache::Response) -> Result<Reply, Failure> {
        if !response.outcome.is_complete() {
            return Err(Failure::Interrupted);
        }
        let b = response.breakdown;
        Ok(Reply {
            tokens: response.tokens,
            ttft: response.timings.ttft,
            decode: response.timings.decode,
            phases: [b.tokenize, b.fetch, b.prefill, b.sample],
            cached_tokens: response.stats.cached_tokens,
            new_tokens: response.stats.new_tokens,
            bytes_shared: response.stats.bytes_shared,
            bytes_copied: response.stats.bytes_copied,
            degraded_spans: response.stats.degraded_spans,
        })
    }
}

#[derive(Debug, Clone)]
pub struct Completion {
    /// Time the layer says the request waited before service began.
    pub queue: Duration,
    /// Time the layer says it spent serving.
    pub service: Duration,
    pub result: Result<Reply, Failure>,
}

/// One rung of the ladder, as the generator sees it.
pub trait Target {
    type Handle;

    /// Hands the request over. `blocking` waits for queue space (closed
    /// loops); otherwise a full queue refuses. `Err` means refused.
    fn submit(
        &mut self,
        id: u64,
        prompt: &PromptDef,
        blocking: bool,
        tracer: &mut Tracer,
        parent: SpanId,
    ) -> Result<Self::Handle, String>;

    fn poll(&mut self, handle: &mut Self::Handle, tracer: &mut Tracer) -> Option<Completion>;

    /// Registers one schema and unregisters another, on the calling thread.
    fn write(&mut self, register: &SchemaDef, unregister: &str) -> Result<(), String>;

    /// Whether completions arrive from another thread, so the generator
    /// should pause between poll rounds instead of calling straight back.
    fn asynchronous(&self) -> bool;
}

/// Where the requests come from and how they are paced.
pub enum Source<'a> {
    /// Closed loop over an endless seeded stream, for `seconds`.
    Stream {
        next: Box<dyn FnMut() -> usize + 'a>,
        outstanding: usize,
        seconds: f64,
    },
    /// Closed loop over a fixed list, one outstanding (warm-up).
    List { prompts: Vec<usize> },
    /// The open-loop schedule: each event is sent when due, for `seconds`.
    Paced { events: &'a [Event], seconds: f64 },
    /// The same schedule replayed in order as a closed loop, one
    /// outstanding (the rungs below the server).
    Unpaced { events: &'a [Event], seconds: f64 },
}

/// One request as the generator saw it. Times are milliseconds.
#[derive(Debug, Clone)]
pub struct Sample {
    pub prompt: usize,
    /// When it completed, in seconds since the run started.
    pub done_at_s: f64,
    /// How long after it was due the generator sent it (0 in closed loops).
    pub lateness_ms: f64,
    pub queue_ms: f64,
    pub service_ms: f64,
    /// Due (open) / submit (closed) → first token.
    pub ttft_ms: f64,
    /// Due / submit → completion, stamped by the generator.
    pub e2e_ms: f64,
    pub result: Result<Reply, Failure>,
}

impl Sample {
    /// A request that never produced a reply.
    fn failed(prompt: usize, done_at_s: f64, lateness: Duration, failure: Failure) -> Sample {
        Sample {
            prompt,
            done_at_s,
            lateness_ms: ms(lateness),
            queue_ms: 0.0,
            service_ms: 0.0,
            ttft_ms: 0.0,
            e2e_ms: 0.0,
            result: Err(failure),
        }
    }

    /// Time per output token after the first; `None` with fewer than two.
    pub fn tpot_ms(&self) -> Option<f64> {
        let reply = self.result.as_ref().ok()?;
        (reply.tokens.len() > 1)
            .then(|| reply.decode.as_secs_f64() * 1e3 / (reply.tokens.len() - 1) as f64)
    }
}

#[derive(Debug, Default)]
pub struct RunLog {
    pub samples: Vec<Sample>,
    /// Start → last completion, seconds.
    pub wall_s: f64,
    /// Caller-observed `register_schema` latency of every write, ms.
    pub register_ms: Vec<f64>,
    pub write_failures: usize,
    /// Requests outstanding when the last one was sent. The open loop
    /// reports what exceeds the server's batch as its backlog: a backlog
    /// that grows invalidates the run.
    pub outstanding_at_last_send: usize,
    /// Gaps between poll rounds, in whole microseconds (last bucket = more).
    pub poll_gap_hist: Vec<u32>,
}

impl RunLog {
    /// The requests that produced a reply.
    pub fn completed(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| s.result.is_ok())
    }

    /// Those replies.
    pub fn replies(&self) -> impl Iterator<Item = &Reply> {
        self.samples.iter().filter_map(|s| s.result.as_ref().ok())
    }

    pub fn poll_gap_us(&self, p: f64) -> f64 {
        let total: u64 = self.poll_gap_hist.iter().map(|&c| u64::from(c)).sum();
        if total == 0 {
            return 0.0;
        }
        let rank = (p / 100.0 * total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (us, &count) in self.poll_gap_hist.iter().enumerate() {
            seen += u64::from(count);
            if seen >= rank {
                return us as f64;
            }
        }
        (self.poll_gap_hist.len() - 1) as f64
    }
}

struct InFlight<H> {
    handle: H,
    prompt: usize,
    span: SpanId,
    /// When the request was due: latency is counted from here.
    due: Instant,
    lateness: Duration,
}

enum Item<'a> {
    Read {
        prompt: usize,
        due: Option<Duration>,
    },
    Write {
        register: usize,
        unregister: &'a str,
    },
}

enum Next<'a> {
    Item(Item<'a>),
    /// The next event is not due yet (open loop).
    NotYet,
    Finished,
}

struct Feeder<'a> {
    source: Source<'a>,
    cursor: usize,
}

impl<'a> Feeder<'a> {
    fn next(&mut self, elapsed: f64) -> Next<'a> {
        let paced = matches!(self.source, Source::Paced { .. });
        match &mut self.source {
            Source::Stream { next, seconds, .. } => {
                if elapsed >= *seconds {
                    return Next::Finished;
                }
                Next::Item(Item::Read {
                    prompt: next(),
                    due: None,
                })
            }
            Source::List { prompts } => match prompts.get(self.cursor) {
                Some(&prompt) => {
                    self.cursor += 1;
                    Next::Item(Item::Read { prompt, due: None })
                }
                None => Next::Finished,
            },
            Source::Paced { events, seconds } | Source::Unpaced { events, seconds } => {
                let events: &'a [Event] = events;
                let Some(event) = events.get(self.cursor) else {
                    return Next::Finished;
                };
                let stop = if paced {
                    event.due_s() >= *seconds
                } else {
                    elapsed >= *seconds
                };
                if stop {
                    return Next::Finished;
                }
                if paced && event.due_s() > elapsed {
                    return Next::NotYet;
                }
                self.cursor += 1;
                let due = paced.then(|| Duration::from_secs_f64(event.due_s()));
                Next::Item(match event {
                    Event::Read { prompt, .. } => Item::Read {
                        prompt: *prompt,
                        due,
                    },
                    Event::Write {
                        register,
                        unregister,
                        ..
                    } => Item::Write {
                        register: *register,
                        unregister,
                    },
                })
            }
        }
    }
}

/// Runs `source` against `target`. `prompts` and `fresh` are the plan's.
pub fn run<T: Target>(
    target: &mut T,
    prompts: &[PromptDef],
    fresh: &[SchemaDef],
    source: Source<'_>,
    tracer: &mut Tracer,
) -> RunLog {
    let mut log = RunLog {
        poll_gap_hist: vec![0; 2048],
        ..RunLog::default()
    };
    let (outstanding, paced) = match &source {
        Source::Stream { outstanding, .. } => (*outstanding, false),
        Source::List { .. } | Source::Unpaced { .. } => (1, false),
        Source::Paced { .. } => (usize::MAX, true),
    };
    let mut feeder = Feeder { source, cursor: 0 };
    // Only the open loop leaves a vCPU idle; in a closed loop both are busy
    // and even an idle-class spinner costs the server a few percent.
    let _awake = (paced && target.asynchronous()).then(KeepAwake::start);

    let start = Instant::now();
    let mut inflight: Vec<InFlight<T::Handle>> = Vec::new();
    let mut next_id = 0u64;
    let mut exhausted = false;
    let mut last_send = start;
    let mut last_poll: Option<Instant> = None;
    loop {
        // Send everything that may go now.
        while !exhausted && inflight.len() < outstanding {
            let item = match feeder.next(start.elapsed().as_secs_f64()) {
                Next::Item(item) => item,
                Next::NotYet => break,
                Next::Finished => {
                    exhausted = true;
                    break;
                }
            };
            match item {
                Item::Read { prompt, due } => {
                    let sent = Instant::now();
                    let due_at = due.map_or(sent, |d| start + d);
                    let lateness = sent.saturating_duration_since(due_at);
                    let span = tracer.begin("request", NONE, next_id);
                    let submitted = target.submit(next_id, &prompts[prompt], !paced, tracer, span);
                    next_id += 1;
                    last_send = sent;
                    log.outstanding_at_last_send = inflight.len();
                    match submitted {
                        Ok(handle) => inflight.push(InFlight {
                            handle,
                            prompt,
                            span,
                            due: due_at,
                            lateness,
                        }),
                        Err(_) => {
                            tracer.end(span);
                            let now = start.elapsed().as_secs_f64();
                            log.samples
                                .push(Sample::failed(prompt, now, lateness, Failure::Shed));
                        }
                    }
                }
                Item::Write {
                    register,
                    unregister,
                } => {
                    let began = Instant::now();
                    let span = tracer.begin("write", NONE, next_id);
                    match target.write(&fresh[register], unregister) {
                        Ok(()) => log.register_ms.push(ms(began.elapsed())),
                        Err(_) => log.write_failures += 1,
                    }
                    tracer.end(span);
                }
            }
        }

        // Poll everything outstanding; stamp completions here.
        if !inflight.is_empty() {
            let now = Instant::now();
            if let Some(prev) = last_poll {
                let gap = now.duration_since(prev).as_micros() as usize;
                let last = log.poll_gap_hist.len() - 1;
                log.poll_gap_hist[gap.min(last)] += 1;
            }
            last_poll = Some(now);
        }
        let mut i = 0;
        while i < inflight.len() {
            let Some(done) = target.poll(&mut inflight[i].handle, tracer) else {
                i += 1;
                continue;
            };
            let stamped = Instant::now();
            let entry = inflight.swap_remove(i);
            tracer.end(entry.span);
            record_reported_spans(tracer, entry.span, &done);
            let ttft = done.result.as_ref().map_or(Duration::ZERO, |r| r.ttft);
            log.samples.push(Sample {
                prompt: entry.prompt,
                done_at_s: stamped.duration_since(start).as_secs_f64(),
                lateness_ms: ms(entry.lateness),
                queue_ms: ms(done.queue),
                service_ms: ms(done.service),
                ttft_ms: ms(entry.lateness + done.queue + ttft),
                e2e_ms: ms(stamped.duration_since(entry.due)),
                result: done.result,
            });
        }
        if inflight.is_empty() {
            last_poll = None;
            if exhausted {
                break;
            }
        } else if exhausted && last_send.elapsed() > DRAIN_LIMIT {
            for entry in inflight.drain(..) {
                tracer.end(entry.span);
                let now = start.elapsed().as_secs_f64();
                log.samples.push(Sample::failed(
                    entry.prompt,
                    now,
                    entry.lateness,
                    Failure::Dropped,
                ));
            }
            break;
        }
        if target.asynchronous() {
            pause();
        }
    }
    log.wall_s = start.elapsed().as_secs_f64();
    log
}

/// Lays the durations the layers reported under the request span: queue,
/// then service, and inside service the engine's phases and decode.
fn record_reported_spans(tracer: &mut Tracer, request: SpanId, done: &Completion) {
    if request == NONE {
        return;
    }
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    tracer.reported("queue", request, 0.0, us(done.queue));
    let service = tracer.reported("service", request, us(done.queue), us(done.service));
    if let Ok(reply) = &done.result {
        let mut offset = 0.0;
        for (name, phase) in ["tokenize", "fetch", "prefill", "sample"]
            .into_iter()
            .zip(reply.phases)
        {
            tracer.reported(name, service, offset, us(phase));
            offset += us(phase);
        }
        tracer.reported("decode", service, us(reply.ttft), us(reply.decode));
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Event;

    /// A server that takes `service` per request, one at a time, and can be
    /// told to stall: nothing completes before `stalled_until`.
    struct FakeServer {
        epoch: Instant,
        free_at: Duration,
        service: Duration,
        stalled_until: Duration,
    }

    impl Target for FakeServer {
        type Handle = (Duration, Duration); // (service begins, completes)

        fn submit(
            &mut self,
            _id: u64,
            _prompt: &PromptDef,
            _blocking: bool,
            _tracer: &mut Tracer,
            _parent: SpanId,
        ) -> Result<Self::Handle, String> {
            let now = self.epoch.elapsed();
            let begins = now.max(self.free_at).max(self.stalled_until);
            self.free_at = begins + self.service;
            Ok((begins, self.free_at))
        }

        fn poll(&mut self, handle: &mut Self::Handle, _tracer: &mut Tracer) -> Option<Completion> {
            (self.epoch.elapsed() >= handle.1).then(|| Completion {
                queue: Duration::ZERO, // a server that under-reports its own wait
                service: self.service,
                result: Ok(Reply {
                    tokens: vec![1, 2],
                    ttft: self.service,
                    decode: Duration::ZERO,
                    phases: [Duration::ZERO; 4],
                    cached_tokens: 0,
                    new_tokens: 0,
                    bytes_shared: 0,
                    bytes_copied: 0,
                    degraded_spans: 0,
                }),
            })
        }

        fn write(&mut self, _register: &SchemaDef, _unregister: &str) -> Result<(), String> {
            Ok(())
        }

        fn asynchronous(&self) -> bool {
            true
        }
    }

    fn prompt() -> PromptDef {
        PromptDef {
            pml: String::new(),
            uncached_text: String::new(),
            cached_tokens: 0,
            new_tokens: 0,
            max_new_tokens: 1,
            baseline: false,
        }
    }

    #[test]
    fn open_loop_latency_counts_from_due_time_through_a_stall() {
        // Ten requests due every 10 ms; the server serves in 1 ms but is
        // stalled for the first 80 ms.
        let events: Vec<Event> = (0..10)
            .map(|i| Event::Read {
                due_s: 0.010 * (i + 1) as f64,
                prompt: 0,
            })
            .collect();
        let mut server = FakeServer {
            epoch: Instant::now(),
            free_at: Duration::ZERO,
            service: Duration::from_millis(1),
            stalled_until: Duration::from_millis(80),
        };
        let log = run(
            &mut server,
            &[prompt()],
            &[],
            Source::Paced {
                events: &events,
                seconds: 1.0,
            },
            &mut Tracer::new(false),
        );
        assert_eq!(log.samples.len(), 10);
        // The first request was due at 10 ms and could not finish before
        // 81 ms: its latency is the stall, not the 1 ms of service.
        let first = log
            .samples
            .iter()
            .map(|s| s.e2e_ms)
            .fold(f64::MIN, f64::max);
        assert!(first >= 70.0, "{first}");
        // The generator itself kept to the schedule.
        assert!(log.samples.iter().all(|s| s.lateness_ms < 5.0));
        // The last request, due at 100 ms, found the server free again.
        let last = log
            .samples
            .iter()
            .map(|s| s.e2e_ms)
            .fold(f64::MAX, f64::min);
        assert!(last < 10.0, "{last}");
        assert!(log.outstanding_at_last_send <= 1);
    }

    #[test]
    fn a_stalled_generator_charges_its_lateness_to_the_request() {
        /// Serves instantly, but each write blocks the generator for 30 ms.
        struct SlowWrites;
        impl Target for SlowWrites {
            type Handle = ();
            fn submit(
                &mut self,
                _: u64,
                _: &PromptDef,
                _: bool,
                _: &mut Tracer,
                _: SpanId,
            ) -> Result<(), String> {
                Ok(())
            }
            fn poll(&mut self, _: &mut (), _: &mut Tracer) -> Option<Completion> {
                Some(Completion {
                    queue: Duration::ZERO,
                    service: Duration::ZERO,
                    result: Err(Failure::Error),
                })
            }
            fn write(&mut self, _: &SchemaDef, _: &str) -> Result<(), String> {
                std::thread::sleep(Duration::from_millis(30));
                Ok(())
            }
            fn asynchronous(&self) -> bool {
                true
            }
        }
        let events = vec![
            Event::Write {
                due_s: 0.010,
                register: 0,
                unregister: "old".into(),
            },
            Event::Read {
                due_s: 0.015,
                prompt: 0,
            },
        ];
        let fresh = [SchemaDef {
            name: "new".into(),
            pml: String::new(),
            tokens: 0,
        }];
        let log = run(
            &mut SlowWrites,
            &[prompt()],
            &fresh,
            Source::Paced {
                events: &events,
                seconds: 1.0,
            },
            &mut Tracer::new(false),
        );
        assert_eq!(log.register_ms.len(), 1);
        let read = &log.samples[0];
        // Due at 15 ms, sent at about 40 ms: 25 ms late, and the latency
        // includes it although the target answered at once.
        assert!(read.lateness_ms >= 20.0, "{}", read.lateness_ms);
        assert!(read.e2e_ms >= read.lateness_ms);
    }

    #[test]
    fn closed_loop_keeps_the_requested_number_outstanding() {
        let mut server = FakeServer {
            epoch: Instant::now(),
            free_at: Duration::ZERO,
            service: Duration::from_millis(2),
            stalled_until: Duration::ZERO,
        };
        let log = run(
            &mut server,
            &[prompt()],
            &[],
            Source::Stream {
                next: Box::new(|| 0),
                outstanding: 4,
                seconds: 0.1,
            },
            &mut Tracer::new(false),
        );
        // One server, 2 ms each, 100 ms: about 50 requests, whatever the
        // number outstanding; four outstanding make each wait about 8 ms.
        assert!(
            (30..=60).contains(&log.samples.len()),
            "{}",
            log.samples.len()
        );
        let mid = crate::stats::median(&log.samples.iter().map(|s| s.e2e_ms).collect::<Vec<_>>());
        assert!((5.0..12.0).contains(&mid), "{mid}");
        assert!(log.wall_s >= 0.1);
    }
}
