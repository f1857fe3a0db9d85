//! One workload, tracing off: set the system up (several times, for a
//! steady `setup_s`), run the timed window through the server, check every
//! output against the oracle, and compute the end-to-end metrics.

use crate::drive::{self, Failure, RunLog, Sample, Source};
use crate::gen::{Lexicon, Pace, Plan, Sizes, Workload};
use crate::metrics::{slo_limits, Metrics, END_TO_END};
use crate::oracle::Oracle;
use crate::spans::Tracer;
use crate::stats::{median, percentile, quietest_window, window_spread_pct, windows};
use crate::system::{setup, System};
use crate::targets::QueueTarget;

/// What one invocation measures.
pub struct Context<'a> {
    pub workload: Workload,
    pub seconds: f64,
    pub sizes: &'a Sizes,
    pub lexicon: &'a Lexicon,
    pub plan: Plan,
}

/// The result line's content.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
}

/// The timed wall is cut into this many equal consecutive windows for the
/// rates, the registrations and the printed drift.
pub const WINDOWS: usize = 5;

/// Latency percentiles and the SLO share are taken per window of about
/// this long; see [`Summary::latency_ms`].
const LATENCY_WINDOW_S: f64 = 1.0;

/// The three latencies of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Latency {
    Ttft,
    /// Absent for a response of one token.
    Tpot,
    E2e,
}

impl Latency {
    fn of(self, j: &Judged) -> Option<f64> {
        match self {
            Latency::Ttft => Some(j.ttft_ms),
            Latency::Tpot => j.tpot_ms,
            Latency::E2e => Some(j.e2e_ms),
        }
    }
}

/// One request, judged by the oracle.
struct Judged {
    ttft_ms: f64,
    tpot_ms: Option<f64>,
    e2e_ms: f64,
    tokens: usize,
    completed: bool,
    correct: bool,
    slo_met: bool,
}

/// Counts and latency populations of one run, judged by the oracle.
pub struct Summary {
    pub sent: usize,
    /// Completed, and equal to the reference.
    pub ok: usize,
    pub shed: usize,
    pub errors: usize,
    /// Completed with other tokens than the reference.
    pub mismatched: usize,
    /// `(completion offset in seconds, request)`.
    samples: Vec<(f64, Judged)>,
    wall_s: f64,
}

impl Summary {
    pub fn new(plan: &Plan, log: &RunLog, correct: impl Fn(&Sample) -> bool) -> Summary {
        let (ttft_limit, tpot_limit) = slo_limits(plan.workload);
        let judge = |s: &Sample| {
            let correct = correct(s);
            Judged {
                ttft_ms: s.ttft_ms,
                tpot_ms: s.tpot_ms(),
                e2e_ms: s.e2e_ms,
                tokens: s.result.as_ref().map_or(0, |r| r.tokens.len()),
                completed: s.result.is_ok(),
                correct,
                slo_met: correct
                    && s.ttft_ms <= ttft_limit
                    && s.tpot_ms().is_none_or(|t| t <= tpot_limit),
            }
        };
        let count = |f: fn(&Failure) -> bool| {
            log.samples
                .iter()
                .filter(|s| s.result.as_ref().err().is_some_and(f))
                .count()
        };
        let samples: Vec<(f64, Judged)> = log
            .samples
            .iter()
            .map(|s| (s.done_at_s, judge(s)))
            .collect();
        let ok = samples.iter().filter(|(_, j)| j.correct).count();
        Summary {
            sent: log.samples.len(),
            ok,
            shed: count(|f| matches!(f, Failure::Shed | Failure::Dropped)),
            errors: count(|f| matches!(f, Failure::Error | Failure::Interrupted)),
            mismatched: log.completed().count() - ok,
            samples,
            wall_s: log.wall_s,
        }
    }

    /// Errors, shed, dropped, interrupted and mismatched requests.
    pub fn failed(&self) -> usize {
        self.sent - self.ok
    }

    /// `stat` in the quietest of `parts` equal consecutive windows. `stat`
    /// sees a window's samples and its length in seconds.
    ///
    /// Every second of a workload asks the same of the system, and on a
    /// shared machine outside interference only ever slows a stretch down,
    /// so the best window is the one that shows the program. Over ten runs
    /// beside a bursty neighbour, `e2e_p95_ms` of `hit_closed` spread 43 %
    /// taken over the whole run and 3 % taken this way (README).
    fn quietest(
        &self,
        parts: usize,
        lower_is_better: bool,
        stat: impl Fn(&[&Judged], f64) -> Option<f64>,
    ) -> f64 {
        let split = windows(
            self.samples.iter().map(|(at, j)| (*at, j)),
            self.wall_s,
            parts,
        );
        quietest_window(&split, lower_is_better, |w| {
            stat(w, self.wall_s / parts as f64)
        })
    }

    fn latency_windows(&self) -> usize {
        ((self.wall_s / LATENCY_WINDOW_S).round() as usize).max(WINDOWS)
    }

    /// The `p`-th percentile of a latency of the completed requests, in the
    /// quietest window of about a second: long enough to hold twenty
    /// requests of the slowest workload, short enough to fall between a
    /// neighbour's bursts.
    pub fn latency_ms(&self, which: Latency, p: f64) -> f64 {
        self.quietest(self.latency_windows(), true, |samples, _| {
            let values: Vec<f64> = samples
                .iter()
                .filter(|j| j.completed)
                .filter_map(|j| which.of(j))
                .collect();
            (!values.is_empty()).then(|| percentile(&values, p))
        })
    }

    /// A latency of every completed request of the run, for the p99
    /// diagnostics and the rung medians.
    pub fn whole_run_ms(&self, which: Latency) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|(_, j)| j.completed)
            .filter_map(|(_, j)| which.of(j))
            .collect()
    }

    /// Correct responses (or their tokens) per second, in the best of
    /// [`WINDOWS`] windows: a one-second window would hold too few requests
    /// of the slowest workload to count them to a percent.
    fn per_second(&self, of: fn(&Judged) -> usize) -> f64 {
        self.quietest(WINDOWS, false, |samples, seconds| {
            Some(
                samples
                    .iter()
                    .filter(|j| j.correct)
                    .map(|j| of(j))
                    .sum::<usize>() as f64
                    / seconds,
            )
        })
    }

    pub fn requests_per_s(&self) -> f64 {
        self.per_second(|_| 1)
    }

    pub fn tokens_per_s(&self) -> f64 {
        self.per_second(|j| j.tokens)
    }

    /// Share of requests that are correct and meet both latency limits, in
    /// the best of the windows the latencies are taken over. A request the
    /// neighbours delayed misses a limit through no fault of the program; a
    /// program that misses its limits does so in every window.
    pub fn slo_attainment(&self) -> f64 {
        self.quietest(self.latency_windows(), false, |samples, _| {
            (!samples.is_empty())
                .then(|| samples.iter().filter(|j| j.slo_met).count() as f64 / samples.len() as f64)
        })
    }

    /// The e2e median of each window, so drift inside a run is visible.
    pub fn window_e2e_ms(&self) -> Vec<f64> {
        windows(
            self.samples.iter().map(|(at, j)| (*at, j)),
            self.wall_s,
            WINDOWS,
        )
        .iter()
        .map(|w| {
            median(
                &w.iter()
                    .filter(|j| j.completed)
                    .map(|j| j.e2e_ms)
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
    }

    pub fn print(&self, log: &RunLog) {
        println!(
            "  client: sent={} ok={} failed={} (shed={} errors={} mismatched={}) writes={} write_failures={}",
            self.sent,
            self.ok,
            self.failed(),
            self.shed,
            self.errors,
            self.mismatched,
            log.register_ms.len(),
            log.write_failures
        );
        for (name, which) in [
            ("ttft", Latency::Ttft),
            ("tpot", Latency::Tpot),
            ("e2e", Latency::E2e),
        ] {
            let values = self.whole_run_ms(which);
            let shown: Vec<String> = [50.0, 75.0, 90.0, 95.0, 99.0]
                .iter()
                .map(|&p| format!("{:.3}", percentile(&values, p)))
                .collect();
            println!(
                "  {name:<4} over the whole run, p50 p75 p90 p95 p99 (ms): {}",
                shown.join("  ")
            );
        }
        let drift = self.window_e2e_ms();
        let shown: Vec<String> = drift.iter().map(|w| format!("{w:.3}")).collect();
        println!(
            "  e2e median of {WINDOWS} consecutive windows (ms): {}  spread {:.1} %",
            shown.join("  "),
            window_spread_pct(&drift)
        );
    }
}

/// The workload's own pacing, for `seconds`.
pub fn natural_source(plan: &Plan, seconds: f64) -> Source<'_> {
    match &plan.pace {
        Pace::Closed { outstanding } => Source::Stream {
            next: Box::new(plan.closed_stream()),
            outstanding: *outstanding,
            seconds,
        },
        Pace::Open { events } => Source::Paced { events, seconds },
    }
}

/// Builds the system and serves the warm-up through the server, so caches
/// are filled and lazy set-up is done before anything is timed. Returns
/// the system and the whole set-up time.
pub fn ready_system(ctx: &Context<'_>) -> (System, f64) {
    let system = setup(&ctx.plan, ctx.lexicon);
    let warmup = drive::run(
        &mut QueueTarget::server(&system.server),
        &ctx.plan.prompts,
        &ctx.plan.fresh,
        Source::List {
            prompts: ctx.plan.warmup(ctx.sizes.warmup_requests),
        },
        &mut Tracer::new(false),
    );
    for sample in &warmup.samples {
        let reply = sample
            .result
            .as_ref()
            .unwrap_or_else(|f| panic!("warm-up request failed: {f:?}"));
        let prompt = &ctx.plan.prompts[sample.prompt];
        assert_eq!(
            (reply.cached_tokens, reply.new_tokens),
            (prompt.cached_tokens, prompt.new_tokens),
            "the engine saw other token counts than the generator sized"
        );
    }
    let seconds = system.setup_s + warmup.wall_s;
    (system, seconds)
}

/// `VmHWM` of this process in MB: the most memory it ever held.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn untraced(ctx: &Context<'_>) -> Outcome {
    // One set-up is too short to repeat within its bound on a shared
    // machine, so the system is set up several times, some before the timed
    // window and some after it: a slow spell of the host that lasts a few
    // seconds then cannot cover them all.
    let mut setup_s = Vec::new();
    let mut setup_register_ms: Vec<Vec<f64>> = Vec::new();
    let mut set_up = |previous: Option<System>| {
        if let Some(previous) = previous {
            previous.shutdown();
        }
        let (ready, seconds) = ready_system(ctx);
        setup_s.push(seconds);
        setup_register_ms.push(ready.register_ms.clone());
        ready
    };
    let mut system = set_up(None);
    for _ in 1..ctx.sizes.setups_before {
        system = set_up(Some(system));
    }

    let log = drive::run(
        &mut QueueTarget::server(&system.server),
        &ctx.plan.prompts,
        &ctx.plan.fresh,
        natural_source(&ctx.plan, ctx.seconds),
        &mut Tracer::new(false),
    );
    // Before the later set-ups and the oracle: their memory is not the
    // measured system's.
    let peak_rss = peak_rss_mb();
    for _ in 0..ctx.sizes.setups_after {
        system = set_up(Some(system));
    }
    system.shutdown();

    let oracle = Oracle::build(&ctx.plan, ctx.lexicon, log.samples.iter().map(|s| s.prompt));
    let summary = Summary::new(&ctx.plan, &log, |s| oracle.correct(s));
    summary.print(&log);
    println!("  output_digest {:016x}", oracle.digest());

    // The registrations of the timed window, evenly paced, in WINDOWS
    // consecutive groups; workloads that issue no writes report those of
    // their set-ups. Either way the quietest group's median counts.
    let register_groups: Vec<&[f64]> = if log.register_ms.is_empty() {
        setup_register_ms.iter().map(Vec::as_slice).collect()
    } else {
        log.register_ms
            .chunks(log.register_ms.len().div_ceil(WINDOWS))
            .collect()
    };
    let registers = register_groups
        .into_iter()
        .min_by(|a, b| median(a).total_cmp(&median(b)))
        .expect("at least one set-up");
    let mut m = Metrics::new(END_TO_END);
    m.set("setup_s", median(&setup_s));
    m.set("ttft_p50_ms", summary.latency_ms(Latency::Ttft, 50.0));
    m.set("ttft_p95_ms", summary.latency_ms(Latency::Ttft, 95.0));
    m.set("tpot_p50_ms", summary.latency_ms(Latency::Tpot, 50.0));
    m.set("tpot_p95_ms", summary.latency_ms(Latency::Tpot, 95.0));
    m.set("e2e_p50_ms", summary.latency_ms(Latency::E2e, 50.0));
    m.set("e2e_p95_ms", summary.latency_ms(Latency::E2e, 95.0));
    m.set("output_tokens_per_s", summary.tokens_per_s());
    m.set("requests_per_s", summary.requests_per_s());
    m.set("slo_attainment", summary.slo_attainment());
    m.set("peak_rss_mb", peak_rss);
    m.set("register_p50_ms", median(registers));
    for (def, value) in m.all() {
        let n = match def.name {
            "setup_s" => setup_s.len(),
            "tpot_p50_ms" | "tpot_p95_ms" => summary.whole_run_ms(Latency::Tpot).len(),
            "register_p50_ms" => registers.len(),
            "peak_rss_mb" => 1,
            _ => summary.sent,
        };
        println!("  {:<24} {:>14.4} {:<6} n={}", def.name, value, def.unit, n);
    }
    let failed = summary.failed() + log.write_failures;
    Outcome {
        correct: failed == 0 && summary.sent > 0,
        attempted: (summary.sent + log.register_ms.len() + log.write_failures).max(1),
        failed,
        metrics: m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::Reply;
    use std::time::Duration;

    fn plan(pace: Pace) -> Plan {
        Plan {
            workload: Workload::HitClosed,
            seed: 0,
            schemas: Vec::new(),
            fresh: Vec::new(),
            prompts: Vec::new(),
            pace,
            host_capacity_bytes: 0,
            disk_tier: false,
        }
    }

    fn sample(done_at_s: f64, e2e_ms: f64, result: Result<Reply, Failure>) -> Sample {
        Sample {
            prompt: 0,
            done_at_s,
            lateness_ms: 0.0,
            queue_ms: 0.0,
            service_ms: e2e_ms,
            ttft_ms: e2e_ms / 2.0,
            e2e_ms,
            result,
        }
    }

    fn reply(tokens: usize) -> Result<Reply, Failure> {
        Ok(Reply {
            tokens: vec![7; tokens],
            ttft: Duration::ZERO,
            decode: Duration::from_micros(100 * (tokens as u64 - 1)),
            phases: [Duration::ZERO; 4],
            cached_tokens: 0,
            new_tokens: 0,
            bytes_shared: 0,
            bytes_copied: 0,
            degraded_spans: 0,
        })
    }

    /// Ten seconds, 100 requests a second at 4 ms each, except that the
    /// third window (4–6 s) ran at 9 ms and at half the rate.
    fn disturbed_log() -> RunLog {
        let mut log = RunLog {
            wall_s: 10.0,
            ..RunLog::default()
        };
        for i in 0..1000 {
            let at = i as f64 / 100.0;
            let disturbed = (4.0..6.0).contains(&at);
            if disturbed && i % 2 == 1 {
                continue;
            }
            log.samples
                .push(sample(at, if disturbed { 9.0 } else { 4.0 }, reply(8)));
        }
        log
    }

    #[test]
    fn a_run_reports_its_quietest_window_whatever_the_pace() {
        let log = disturbed_log();
        for pace in [
            Pace::Closed { outstanding: 1 },
            Pace::Open { events: Vec::new() },
        ] {
            let summary = Summary::new(&plan(pace), &log, |_| true);
            // Latencies: ten windows of a second, eight of them quiet.
            assert_eq!(summary.latency_ms(Latency::E2e, 95.0), 4.0);
            assert_eq!(summary.latency_ms(Latency::Ttft, 50.0), 2.0);
            assert!((summary.latency_ms(Latency::Tpot, 50.0) - 0.1).abs() < 1e-9);
            // Rates: five windows of two seconds, four of them quiet.
            assert_eq!(summary.requests_per_s(), 100.0);
            assert_eq!(summary.tokens_per_s(), 800.0);
            assert_eq!(summary.window_e2e_ms(), vec![4.0, 4.0, 9.0, 4.0, 4.0]);
            // The whole run still shows the disturbance, for the p99s.
            assert_eq!(percentile(&summary.whole_run_ms(Latency::E2e), 95.0), 9.0);
        }
    }

    #[test]
    fn failures_and_mismatches_count_against_the_run() {
        let mut log = RunLog {
            wall_s: 5.0,
            ..RunLog::default()
        };
        for i in 0..100 {
            let at = i as f64 / 20.0;
            let result = match i % 10 {
                0 => Err(Failure::Shed),
                1 => Err(Failure::Error),
                _ => reply(if i % 10 == 2 { 1 } else { 8 }),
            };
            log.samples.push(sample(at, 4.0, result));
        }
        // The oracle rejects every request whose id ends in 3.
        let summary = Summary::new(&plan(Pace::Open { events: Vec::new() }), &log, |s| {
            s.result.is_ok() && (s.done_at_s * 20.0).round() as usize % 10 != 3
        });
        assert_eq!(
            (
                summary.sent,
                summary.shed,
                summary.errors,
                summary.mismatched
            ),
            (100, 10, 10, 10)
        );
        assert_eq!((summary.ok, summary.failed()), (70, 30));
        // One-token responses have no time per output token.
        assert_eq!(summary.whole_run_ms(Latency::Tpot).len(), 70);
        // Failed, shed and mismatched requests all miss the SLO.
        assert!((summary.slo_attainment() - 0.7).abs() < 1e-9);
        assert!((summary.requests_per_s() - 14.0).abs() < 1e-9);
    }

    #[test]
    fn slo_counts_a_request_only_when_both_limits_hold() {
        let (ttft_limit, _) = slo_limits(Workload::HitClosed);
        let mut log = RunLog {
            wall_s: 1.0,
            ..RunLog::default()
        };
        log.samples.push(sample(0.05, ttft_limit, reply(8))); // ttft = limit / 2
        log.samples.push(sample(0.1, ttft_limit * 4.0, reply(8))); // ttft = 2 × limit
        let summary = Summary::new(&plan(Pace::Open { events: Vec::new() }), &log, |_| true);
        assert_eq!(summary.slo_attainment(), 0.5);
    }
}
