//! The repository's one benchmark. See `benchmark/README.md`.
//!
//! `pc-benchmark --workload W --seed N --seconds S --trace 0|1` measures one
//! workload and prints its result line last. Without `--workload` or
//! `--trace` it runs every workload untraced and then traced, each in a
//! child process so that peak memory is per workload.

mod bench;
mod drive;
mod gen;
mod ladder;
mod metrics;
mod micro;
mod oracle;
mod rng;
mod spans;
mod stats;
mod suite;
mod system;
mod targets;

use bench::{Context, Outcome};
use gen::{Lexicon, Sizes, Workload};
use pc_tokenizer::Tokenizer;

/// Timed window when `--seconds` is not given; `BENCHMARK.json` fixes the
/// same number as `run_seconds`.
const DEFAULT_SECONDS: f64 = 26.0;
const QUICK_SECONDS: f64 = 1.2;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: Option<bool>,
    pub quick: bool,
    pub repeat: usize,
    pub check_bounds: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: 1,
            seconds: None,
            trace: None,
            quick: false,
            repeat: 1,
            check_bounds: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    args.workload = Some(
                        Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?,
                    );
                }
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {s} is out of range"));
                    }
                    args.seconds = Some(s);
                }
                "--trace" => {
                    args.trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    });
                }
                "--repeat" => {
                    args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                    if args.repeat == 0 {
                        return Err("--repeat must be at least 1".into());
                    }
                }
                "--quick" => args.quick = true,
                "--check-bounds" => args.check_bounds = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(args)
    }

    pub fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}

fn print_header(args: &Args, workload: Workload, traced: bool) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# pc-benchmark workload={} trace={} seed={} seconds={} quick={} nproc={} rustc={} git={}",
        workload.name(),
        u8::from(traced),
        args.seed,
        args.seconds(),
        args.quick,
        nproc,
        env!("PC_BENCH_RUSTC"),
        git_sha(),
    );
}

/// The checked-out commit, read from `.git` without starting a process;
/// "unknown" where the benchmark runs from an exported tree.
fn git_sha() -> String {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_owned())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            let packed = read(".git/packed-refs")?;
            let line = packed.lines().find(|l| l.ends_with(reference))?;
            Some(line.split(' ').next()?.to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Measures one workload in this process and prints its result line.
fn run_single(args: &Args, workload: Workload, traced: bool) -> bool {
    print_header(args, workload, traced);
    let sizes = if args.quick {
        Sizes::quick()
    } else {
        Sizes::full()
    };
    let lexicon = Lexicon::new();
    let tokenizer = lexicon.train_tokenizer();
    let kv_bytes = system::model_config(tokenizer.vocab_size()).kv_bytes_per_token(4);
    let plan = gen::plan(
        workload,
        args.seed,
        args.seconds(),
        &sizes,
        &lexicon,
        &tokenizer,
        kv_bytes,
    );
    drop(tokenizer);
    let ctx = Context {
        workload,
        seconds: args.seconds(),
        sizes: &sizes,
        lexicon: &lexicon,
        plan,
    };
    let Outcome {
        correct,
        attempted,
        failed,
        metrics,
    } = if traced {
        ladder::traced(&ctx, args.seed)
    } else {
        bench::untraced(&ctx)
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    );
    correct
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("pc-benchmark: {message}");
            eprintln!(
                "usage: pc-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                 [--quick] [--repeat N] [--check-bounds]"
            );
            std::process::exit(2);
        }
    };
    let ok = match (args.workload, args.trace, args.repeat) {
        (Some(workload), Some(traced), 1) => run_single(&args, workload, traced),
        _ => suite::run(&args),
    };
    std::process::exit(if ok { 0 } else { 1 });
}
