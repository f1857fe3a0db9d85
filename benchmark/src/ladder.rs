//! The traced pass: the workload's request sequence replayed down a ladder
//! of rungs — fleet router → server → batch scheduler → `PromptCache::serve`
//! — with a benchmark-owned span around every call, then the shapes it
//! observed replayed into the layers below (see [`crate::micro`]).
//!
//! A rung's overhead is its median minus the median of the rung below; a
//! layer's self time is its span minus what its child spans cover.

use crate::bench::{natural_source, ready_system, Context, Latency, Outcome, Summary};
use crate::drive::{self, RunLog, Source, Target};
use crate::gen::Pace;
use crate::metrics::{Metrics, PER_LAYER};
use crate::micro::{self, Shapes};
use crate::oracle::Oracle;
use crate::spans::{chrome_trace_json, Tracer};
use crate::stats::{median, percentile, window_spread_pct};
use crate::system::{blueprint, MAX_BATCH};
use crate::targets::{CoreTarget, QueueTarget, SchedTarget};
use pc_cache::StoreStats;
use pc_server::{FleetConfig, Router};
use pc_tokenizer::Tokenizer;

/// Share of `--seconds` each rung replays for; the rest of the pass is
/// set-up, the oracle and the layer replays.
const RUNG_SHARE: f64 = 0.15;

/// The workload's sequence as a closed loop for the rungs that run on the
/// benchmark thread: the seeded stream, or the schedule's events in order.
fn closed_source<'a>(ctx: &'a Context<'_>, seconds: f64, outstanding_cap: usize) -> Source<'a> {
    match &ctx.plan.pace {
        Pace::Closed { outstanding } => Source::Stream {
            next: Box::new(ctx.plan.closed_stream()),
            outstanding: (*outstanding).min(outstanding_cap),
            seconds,
        },
        Pace::Open { events } => Source::Unpaced { events, seconds },
    }
}

fn run_rung<T: Target>(
    ctx: &Context<'_>,
    target: &mut T,
    source: Source<'_>,
    tracer: &mut Tracer,
) -> RunLog {
    drive::run(target, &ctx.plan.prompts, &ctx.plan.fresh, source, tracer)
}

/// `part / whole`, or 0 when there is no whole.
fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn delta(after: u64, before: u64) -> f64 {
    after.saturating_sub(before) as f64
}

pub fn traced(ctx: &Context<'_>, seed: u64) -> Outcome {
    let rung_seconds = ctx.seconds * RUNG_SHARE;
    let mut traces: [Tracer; 4] = std::array::from_fn(|_| Tracer::new(true));
    let [server_trace, fleet_trace, sched_trace, core_trace] = &mut traces;
    let mut m = Metrics::new(PER_LAYER);

    // Server rung, tracing off: the wall the traced replay is compared to.
    let (system, _) = ready_system(ctx);
    let untraced = run_rung(
        ctx,
        &mut QueueTarget::server(&system.server),
        natural_source(&ctx.plan, rung_seconds),
        &mut Tracer::new(false),
    );
    system.shutdown();

    // Server rung, traced. The store's counters are read around the window.
    let (system, _) = ready_system(ctx);
    let register_ms = system.register_ms.clone();
    let before: StoreStats = system.engine().store().stats();
    let server = run_rung(
        ctx,
        &mut QueueTarget::server(&system.server),
        natural_source(&ctx.plan, rung_seconds),
        server_trace,
    );
    let after: StoreStats = system.engine().store().stats();
    let host_mb = system.engine().cached_bytes() as f64 / 1e6;
    let disk_mb = system
        .scratch
        .as_ref()
        .map_or(0.0, |s| s.bytes() as f64 / 1e6);
    system.shutdown();

    // Fleet rung: two thread-mode shards, every schema registered up front.
    let vocab_size = ctx.lexicon.train_tokenizer().vocab_size();
    let router = Router::start(blueprint(ctx.lexicon, vocab_size), FleetConfig::default());
    for schema in ctx.plan.schemas.iter().chain(&ctx.plan.fresh) {
        router
            .register_schema(&schema.pml)
            .unwrap_or_else(|e| panic!("fleet registration: {e}"));
    }
    let warmup = Source::List {
        prompts: ctx.plan.warmup(ctx.sizes.warmup_requests),
    };
    run_rung(
        ctx,
        &mut QueueTarget::router(&router),
        warmup,
        &mut Tracer::new(false),
    );
    let fleet = run_rung(
        ctx,
        &mut QueueTarget::router(&router),
        natural_source(&ctx.plan, rung_seconds),
        fleet_trace,
    );
    let (by_affinity, spilled) = router.routing_split();
    let rerouted = router.rerouted_total();
    router.shutdown();

    // Scheduler rung, on this thread.
    let (system, _) = ready_system(ctx);
    let mut sched_target = SchedTarget::new(system.engine());
    let sched = run_rung(
        ctx,
        &mut sched_target,
        closed_source(ctx, rung_seconds, MAX_BATCH),
        sched_trace,
    );
    let occupancy = sched_target.occupancy_sum as f64 / sched_target.steps.max(1) as f64;
    let shared_row_share =
        sched_target.shared_rows as f64 / sched_target.context_rows.max(1) as f64;
    drop(sched_target);
    system.shutdown();

    // Core rung, on this thread, one request at a time.
    let (system, _) = ready_system(ctx);
    let core = run_rung(
        ctx,
        &mut CoreTarget(system.engine()),
        closed_source(ctx, rung_seconds, 1),
        core_trace,
    );
    system.shutdown();

    // Every response of every rung against the oracle.
    let logs = [&untraced, &server, &fleet, &sched, &core];
    let oracle = Oracle::build(
        &ctx.plan,
        ctx.lexicon,
        logs.iter()
            .flat_map(|log| log.samples.iter().map(|s| s.prompt)),
    );
    let summaries: Vec<Summary> = logs
        .iter()
        .map(|log| Summary::new(&ctx.plan, log, |s| oracle.correct(s)))
        .collect();
    // e2e p50 of each rung, in ladder order; a rung's overhead is its own
    // minus the next one's.
    let e2e_p50: Vec<f64> = summaries
        .iter()
        .map(|s| median(&s.whole_run_ms(Latency::E2e)))
        .collect();
    let [untraced_p50, server_p50, fleet_p50, sched_p50, _] = e2e_p50[..] else {
        unreachable!("five rungs")
    };
    for (i, name) in ["server untraced", "server", "fleet", "scheduler", "core"]
        .iter()
        .enumerate()
    {
        println!(" rung {name}: e2e p50 {:.3} ms", e2e_p50[i]);
        summaries[i].print(logs[i]);
        let mid_us = |f: &dyn Fn(&drive::Reply) -> std::time::Duration| {
            median(
                &logs[i]
                    .replies()
                    .map(|r| f(r).as_secs_f64() * 1e6)
                    .collect::<Vec<_>>(),
            )
        };
        println!(
            "  reported p50 (us): tokenize {:.0} fetch {:.0} prefill {:.0} sample {:.0} | ttft {:.0} decode {:.0}",
            mid_us(&|r| r.phases[0]),
            mid_us(&|r| r.phases[1]),
            mid_us(&|r| r.phases[2]),
            mid_us(&|r| r.phases[3]),
            mid_us(&|r| r.ttft),
            mid_us(&|r| r.decode),
        );
    }
    println!("  output_digest {:016x}", oracle.digest());
    let summary = &summaries[1];

    // client: the generator itself, on the traced server rung.
    let lateness: Vec<f64> = server.samples.iter().map(|s| s.lateness_ms).collect();
    m.set("client.sent", summary.sent as f64);
    m.set("client.ok", summary.ok as f64);
    m.set("client.failed", summary.failed() as f64);
    m.set("client.mismatched", summary.mismatched as f64);
    m.set(
        "client.failed_share",
        share(summary.failed() as f64, summary.sent as f64),
    );
    m.set("client.send_lateness_ms_p95", percentile(&lateness, 95.0));
    // Up to a batch of requests is in service, not waiting.
    m.set(
        "client.backlog_at_end",
        server.outstanding_at_last_send.saturating_sub(MAX_BATCH) as f64,
    );
    m.set("client.poll_gap_us_p95", server.poll_gap_us(95.0));
    m.set(
        "client.ttft_p99_ms",
        percentile(&summary.whole_run_ms(Latency::Ttft), 99.0),
    );
    m.set(
        "client.e2e_p99_ms",
        percentile(&summary.whole_run_ms(Latency::E2e), 99.0),
    );
    m.set(
        "client.window_spread_pct",
        window_spread_pct(&summary.window_e2e_ms()),
    );

    // server: what the server reports, and what the hand-off costs.
    let ok = |log: &RunLog, f: fn(&drive::Sample) -> f64| -> Vec<f64> {
        log.completed().map(f).collect()
    };
    let queue_ms = ok(&server, |s| s.queue_ms);
    m.set("server.queue_wait_ms_p50", percentile(&queue_ms, 50.0));
    m.set("server.queue_wait_ms_p95", percentile(&queue_ms, 95.0));
    m.set(
        "server.service_ms_p50",
        median(&ok(&server, |s| s.service_ms)),
    );
    m.set("server.overhead_us", (server_p50 - sched_p50) * 1e3);
    // Generator-stamped latency minus the server's own timers: moves if a
    // later change redefines `queue_time` or `service_time`.
    let gap = ok(&server, |s| {
        (s.e2e_ms - s.lateness_ms - s.queue_ms - s.service_ms) * 1e3
    });
    m.set("server.accounting_gap_us", median(&gap));
    m.set("server.shed", summary.shed as f64);
    m.set("server.errors", summary.errors as f64);

    // fleet
    m.set("fleet.route_overhead_us", (fleet_p50 - server_p50) * 1e3);
    m.set(
        "fleet.affinity_share",
        share(by_affinity as f64, (by_affinity + spilled) as f64),
    );
    m.set("fleet.rerouted", rerouted as f64);

    // cache: the store's counters over the traced server window.
    let hits = delta(after.hits, before.hits);
    let misses = delta(after.misses, before.misses);
    let demotions = delta(after.demotions, before.demotions);
    m.set("cache.hits", hits);
    m.set("cache.misses", misses);
    m.set("cache.hit_rate", share(hits, hits + misses));
    m.set(
        "cache.disk_hit_share",
        share(delta(after.disk_hits, before.disk_hits), hits),
    );
    // Modules pushed out of host memory, whether dropped or demoted.
    m.set(
        "cache.evictions",
        delta(after.evictions, before.evictions) + demotions,
    );
    m.set("cache.demotions", demotions);
    m.set(
        "cache.promotions",
        delta(after.promotions, before.promotions),
    );
    m.set("cache.host_mb", host_mb);
    m.set("cache.disk_mb", disk_mb);

    // core: the engine's own phases, from the core rung.
    let replies: Vec<&drive::Reply> = core.replies().collect();
    let phase_us = |i: usize| {
        median(
            &replies
                .iter()
                .map(|r| r.phases[i].as_secs_f64() * 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let per_req = |f: fn(&drive::Reply) -> f64| {
        replies.iter().map(|r| f(r)).sum::<f64>() / replies.len().max(1) as f64
    };
    m.set("core.serve_ms_p50", median(&ok(&core, |s| s.service_ms)));
    m.set("core.phase_tokenize_us", phase_us(0));
    m.set("core.phase_fetch_us", phase_us(1));
    m.set("core.phase_prefill_us", phase_us(2));
    m.set("core.phase_sample_us", phase_us(3));
    let tpot: Vec<f64> = core.samples.iter().filter_map(|s| s.tpot_ms()).collect();
    m.set("core.decode_ms_per_token", median(&tpot));
    m.set(
        "core.cached_token_share",
        per_req(|r| r.cached_tokens as f64 / (r.cached_tokens + r.new_tokens).max(1) as f64),
    );
    m.set(
        "core.bytes_shared_per_req",
        per_req(|r| r.bytes_shared as f64),
    );
    m.set(
        "core.bytes_copied_per_req",
        per_req(|r| r.bytes_copied as f64),
    );
    m.set(
        "core.degraded_spans",
        replies.iter().map(|r| r.degraded_spans as f64).sum(),
    );
    let registers = if core.register_ms.is_empty() {
        &register_ms
    } else {
        &core.register_ms
    };
    m.set("core.register_schema_ms", median(registers));

    // serve span − phases − decode, as the core rung's service spans.
    m.set("core.self_us", median(&core_trace.self_times_us("service")));
    m.set(
        "core.sched_admit_ms",
        median(&sched_trace.durations_us("sched.admit")) / 1e3,
    );
    let steps_ms: Vec<f64> = sched_trace
        .durations_us("sched.step")
        .iter()
        .map(|us| us / 1e3)
        .collect();
    m.set("core.sched_step_ms_p50", percentile(&steps_ms, 50.0));
    m.set("core.sched_step_ms_p95", percentile(&steps_ms, 95.0));
    m.set("core.sched_batch_occupancy", occupancy / MAX_BATCH as f64);
    m.set("core.sched_shared_row_share", shared_row_share);

    // The layers below, at the shapes the core rung observed.
    let shapes = Shapes::observe(ctx, &replies, occupancy);
    micro::replay(ctx, &shapes, &mut m);
    let step_model_ms = if shapes.batch > 1 {
        m.get("model.decode_step_ms_b8").expect("set by the replay")
    } else {
        m.get("model.decode_step_ms_b1").expect("set by the replay")
    };
    m.set(
        "core.sched_self_us",
        (percentile(&steps_ms, 50.0) - step_model_ms) * 1e3,
    );

    // trace: what recording the spans cost, and how many there are.
    m.set(
        "trace.overhead_pct",
        share(server_p50 - untraced_p50, untraced_p50) * 100.0,
    );
    m.set(
        "trace.spans",
        traces.iter().map(Tracer::len).sum::<usize>() as f64,
    );
    write_trace(ctx, seed, &traces);

    for (def, value) in m.all() {
        println!("  {:<34} {:>16.4} {}", def.name, value, def.unit);
    }
    let sent: usize = summaries.iter().map(|s| s.sent).sum();
    let writes: usize = logs
        .iter()
        .map(|l| l.register_ms.len() + l.write_failures)
        .sum();
    let failed: usize = summaries.iter().map(Summary::failed).sum::<usize>()
        + logs.iter().map(|l| l.write_failures).sum::<usize>();
    Outcome {
        correct: failed == 0 && sent > 0,
        attempted: (sent + writes).max(1),
        failed,
        metrics: m,
    }
}

fn write_trace(ctx: &Context<'_>, seed: u64, traces: &[Tracer; 4]) {
    let dir = std::path::Path::new("benchmark/out");
    let path = dir.join(format!("trace_{}_{seed}.json", ctx.workload.name()));
    let labelled: Vec<(&str, &Tracer)> = ["server", "fleet", "scheduler", "core"]
        .into_iter()
        .zip(traces)
        .collect();
    match std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, chrome_trace_json(&labelled)))
    {
        Ok(()) => println!("  chrome trace: {}", path.display()),
        Err(e) => println!("  chrome trace not written: {e}"),
    }
}
