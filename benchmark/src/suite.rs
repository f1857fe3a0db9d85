//! Suite and noise modes: run every requested workload and pass, each in a
//! child process of this same program (so `peak_rss_mb` is per workload and
//! every number comes from the one code path the driver also uses), and
//! with `--repeat N` report median, quartiles and run-to-run spread.

use crate::gen::Workload;
use crate::metrics::{parse_values, END_TO_END};
use crate::stats::{quartiles, spread};
use crate::Args;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// Runs one workload and pass in a child; echoes its output and returns
/// its result line if it exited cleanly.
fn run_child(args: &Args, workload: Workload, traced: bool, seed: u64) -> Option<String> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &args.seconds().to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stdout(Stdio::piped());
    if args.quick {
        command.arg("--quick");
    }
    let mut child = command.spawn().expect("start a child of this program");
    let mut last = None;
    for line in BufReader::new(child.stdout.take().expect("piped stdout")).lines() {
        let line = line.expect("child output is text");
        if line.starts_with('{') {
            // The result line is long; show where it is, keep it for later.
            println!("  result: {} bytes of JSON", line.len());
            last = Some(line);
        } else {
            println!("{line}");
        }
    }
    let status = child.wait().expect("child exit status");
    if status.success() {
        last
    } else {
        println!(
            "  {} trace={} FAILED ({status})",
            workload.name(),
            u8::from(traced)
        );
        None
    }
}

pub fn run(args: &Args) -> bool {
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let passes = args.trace.map_or(vec![false, true], |t| vec![t]);
    // (workload, metric) → one value per repetition.
    let mut values: BTreeMap<(usize, String), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for repetition in 0..args.repeat {
        // Another seed each time, as the driver's repetitions have.
        let seed = args.seed + repetition as u64;
        for (w, &workload) in workloads.iter().enumerate() {
            for &traced in &passes {
                match run_child(args, workload, traced, seed) {
                    Some(line) => {
                        ok &= line.contains("\"correct\": true");
                        for (name, value) in parse_values(&line) {
                            values.entry((w, name)).or_default().push(value);
                        }
                    }
                    None => ok = false,
                }
            }
        }
    }
    if args.repeat > 1 {
        ok &= report_spread(&workloads, &values, args.check_bounds);
    }
    println!("{}", if ok { "suite: ok" } else { "suite: FAILED" });
    ok
}

/// Per-metric median, quartiles and spread across the repetitions. With
/// `check`, an end-to-end spread beyond the metric's bound fails the run —
/// `setup_s` excepted, as in the driver's own acceptance rule.
fn report_spread(
    workloads: &[Workload],
    values: &BTreeMap<(usize, String), Vec<f64>>,
    check: bool,
) -> bool {
    let mut ok = true;
    for (w, workload) in workloads.iter().enumerate() {
        println!("# {} across repetitions", workload.name());
        println!(
            "  {:<34} {:>12} {:>12} {:>12} {:>8} {:>6}",
            "metric", "q1", "median", "q3", "spread", "bound"
        );
        for ((_, name), runs) in values.iter().filter(|((idx, _), _)| *idx == w) {
            let [q1, q2, q3] = quartiles(runs);
            let s = spread(runs);
            let bound = END_TO_END
                .iter()
                .find(|m| m.name == name)
                .and_then(|m| m.bound);
            let verdict = match bound {
                Some(b) if s > b && name != "setup_s" => {
                    ok &= !check;
                    "  OVER"
                }
                _ => "",
            };
            let bound = bound.map_or("-".to_owned(), |b| format!("{b:.2}"));
            println!(
                "  {name:<34} {q1:>12.4} {q2:>12.4} {q3:>12.4} {:>7.1}% {bound:>6}{verdict}",
                s * 100.0
            );
        }
    }
    ok
}
