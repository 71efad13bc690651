//! The repository benchmark: five frame-lifecycle workloads driven through
//! the production public entry points, six end-to-end metrics measured with
//! harness tracing off, and a per-layer budget from a separate traced run.
//! See `benchmark/README.md`.
//!
//! ```text
//! rtgs-benchmark [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--repeat N]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is non-zero when a
//! check failed.

mod host;
mod inputs;
mod metrics;
mod probe;
mod stats;
mod trace;
mod workloads;
mod wrappers;

use metrics::{RunResult, END_TO_END, WORKLOADS};
use std::process::ExitCode;
use workloads::Opts;

/// Default `--seconds`: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 15;

/// Writes a file under `benchmark/out/` (created on demand; ignored by git).
pub fn write_out(file: &str, content: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(file), content));
    if let Err(e) = written {
        eprintln!("warning: cannot write {}: {e}", dir.join(file).display());
    }
}

struct Cli {
    workload: Option<String>,
    opts: Opts,
    /// Full sets on one seed (`--repeat`).
    sets: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: rtgs-benchmark [--workload W] [--seed S] [--seconds N] [--trace [0|1]] \
         [--repeat N]\nworkloads: {}",
        WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn parse() -> Cli {
    let mut cli = Cli {
        workload: None,
        opts: Opts {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            traced: false,
        },
        sets: 1,
    };
    let mut args = std::env::args().skip(1).peekable();
    fn value<T: std::str::FromStr>(v: Option<String>) -> T {
        v.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => cli.workload = Some(value(args.next())),
            "--seed" => cli.opts.seed = value(args.next()),
            "--seconds" => cli.opts.seconds = value::<u64>(args.next()).max(1),
            "--trace" => {
                // `--trace` alone means on; the driver passes 0 or 1.
                cli.opts.traced = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                };
            }
            "--repeat" => cli.sets = value(args.next()),
            _ => usage(),
        }
    }
    if let Some(w) = &cli.workload {
        if !WORKLOADS.iter().any(|(n, _)| n == w) {
            usage();
        }
    }
    cli
}

/// Runs one workload, prints it and writes its result file.
fn run_one(name: &str, opts: &Opts, host: &str) -> RunResult {
    let mut result = workloads::run(name, opts).expect("workload names are checked at parse time");
    result.seal();
    result.print_human();
    let file = format!(
        "result-{name}{}.json",
        if opts.traced { "-traced" } else { "" }
    );
    write_out(&file, &result.file_json(host, opts.seconds));
    result
}

/// Min / median / max and spread of every end-to-end metric over several
/// sets on one seed, as a markdown table, plus the exact-repeat check.
fn noise_report(sets: &[Vec<RunResult>], bounds: &[(String, f64)]) -> bool {
    let mut ok = true;
    println!(
        "\n## {} sets on one seed: spread = (max - min) / median\n",
        sets.len()
    );
    println!("| workload | metric | min | median | max | spread | bound | spread / bound |");
    println!("|---|---|---|---|---|---|---|---|");
    for (w, &(workload, _)) in WORKLOADS.iter().enumerate() {
        for &(metric, unit) in END_TO_END {
            let values: Vec<f64> = sets.iter().filter_map(|s| s[w].get(metric)).collect();
            let sorted = stats::sorted(&values);
            let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
            let med = stats::median(&values);
            let spread = (max - min) / med;
            let bound = bounds
                .iter()
                .find(|(n, _)| n == metric)
                .map_or(f64::NAN, |(_, b)| *b);
            println!(
                "| {workload} | {metric} [{unit}] | {min:.5} | {med:.5} | {max:.5} | {spread:.4} | {bound} | {:.2} |",
                spread / bound
            );
        }
        let first = &sets[0][w].exact;
        for set in &sets[1..] {
            if &set[w].exact != first {
                ok = false;
                println!(
                    "\nNOT REPEATABLE on {workload}: {:?} vs {:?}",
                    first, set[w].exact
                );
            }
        }
    }
    println!(
        "\ncount-like values (ATE, PSNR, peak resident bytes, keyframes, fragments, live \
         Gaussians, wire bytes, offered frames) identical across sets: {ok}"
    );
    ok
}

/// `(metric, bound)` pairs read from `BENCHMARK.json`, for the noise table.
fn bounds_from_benchmark_json() -> Vec<(String, f64)> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.split("\"name\":")
        .skip(1)
        .filter_map(|entry| {
            let name = entry.split('"').nth(1)?.to_string();
            let bound = entry.split("\"bound\":").nth(1)?;
            let bound = bound.split(['}', ',']).next()?.trim().parse().ok()?;
            Some((name, bound))
        })
        .collect()
}

fn main() -> ExitCode {
    let cli = parse();
    let host = host::stamp_json();
    println!("host {host}");
    let names: Vec<&str> = match &cli.workload {
        Some(w) => vec![WORKLOADS.iter().find(|(n, _)| n == w).expect("checked").0],
        None => WORKLOADS.iter().map(|(n, _)| *n).collect(),
    };
    let mut all_ok = true;
    let mut sets: Vec<Vec<RunResult>> = Vec::new();
    for _ in 0..cli.sets.max(1) {
        let results: Vec<RunResult> = names.iter().map(|n| run_one(n, &cli.opts, &host)).collect();
        all_ok &= results.iter().all(RunResult::correct);
        sets.push(results);
    }
    if sets.len() > 1 && cli.workload.is_none() && !cli.opts.traced {
        all_ok &= noise_report(&sets, &bounds_from_benchmark_json());
    }
    // The driver reads the last line: one result object per invocation of
    // one workload. With several, the last one run is printed last.
    for results in &sets {
        for r in results {
            println!("{}", r.result_line());
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("a check failed");
        ExitCode::FAILURE
    }
}
