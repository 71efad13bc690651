//! Experiment runner binary.
//!
//! ```bash
//! experiments <name>|all [--full] [--parallel[=N]]
//! ```
//!
//! Every SLAM configuration runs on the default backend — the machine:
//! `available_parallelism() − 1` pool workers beside the calling thread.
//! `--parallel=N` pins the pool to `N` workers instead (`--parallel` alone
//! spells the default); results are bitwise-identical on every backend.

use rtgs_experiments::{run_experiment, set_default_backend, Scale, EXPERIMENTS};
use rtgs_runtime::BackendChoice;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Quick
    };
    if let Some(flag) = args
        .iter()
        .find(|a| *a == "--parallel" || a.starts_with("--parallel="))
    {
        let threads = match flag.strip_prefix("--parallel=") {
            Some(n) => n.parse::<usize>().unwrap_or_else(|_| {
                eprintln!("invalid thread count in `{flag}` (expected --parallel[=N])");
                std::process::exit(2);
            }),
            None => 0,
        };
        set_default_backend(BackendChoice::Parallel { threads });
    }
    let names: Vec<&str> = match args.iter().find(|a| !a.starts_with("--")) {
        Some(name) if name == "all" => EXPERIMENTS.to_vec(),
        Some(name) => vec![name.as_str()],
        None => {
            eprintln!("usage: experiments <name>|all [--full] [--parallel[=N]]");
            eprintln!("experiments: {}", EXPERIMENTS.join(", "));
            std::process::exit(2);
        }
    };
    for name in names {
        println!("================ {name} ================");
        match run_experiment(name, scale) {
            Ok(out) => println!("{out}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    }
}
