//! Std-only stand-in for the subset of the `criterion` API used by this
//! workspace's benchmarks.
//!
//! The build environment is offline, so the workspace vendors a minimal
//! harness: it supports `benchmark_group`, `bench_function`,
//! `bench_with_input`, `iter_batched`, `sample_size`, `measurement_time`,
//! `warm_up_time`, `BenchmarkId::new` and
//! the `criterion_group!` / `criterion_main!` macros. Each benchmark is
//! warmed up, sampled, and summarized (min / median / mean); all results are
//! additionally written to `BENCH_RESULTS.json` at the workspace root so
//! the performance trajectory is machine-readable across PRs.
//!
//! Every entry of that file carries two plain string fields naming where it
//! was measured: `"host"` (CPU count, CPU model and `rustc -V`) and
//! `"commit"` (the source tree's `git describe`, informational). The perf
//! gate's comparator only gates between files whose `host` strings are
//! equal.
//!
//! # Quick mode
//!
//! Setting `BENCH_QUICK=1` (any non-empty value other than `0`) caps every
//! group at [`QUICK_MAX_SAMPLES`] samples and [`QUICK_MAX_MEASUREMENT`] of
//! measurement wall-clock, overriding whatever the benchmarks request. The
//! CI `perf-smoke` job uses this to finish the whole suite in minutes.
//! A requested `warm_up_time` is *not* capped: only the rows that run on
//! more than one thread ask for one, and without it they time the
//! scheduler's first placement of the threads, not the code.

use std::fmt::Display;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Sample-count cap applied per benchmark when `BENCH_QUICK` is set.
pub const QUICK_MAX_SAMPLES: usize = 3;

/// Measurement wall-clock cap per benchmark when `BENCH_QUICK` is set.
pub const QUICK_MAX_MEASUREMENT: Duration = Duration::from_millis(400);

/// Whether quick mode is active (`BENCH_QUICK` set to a non-empty value
/// other than `0`). Read once per process.
pub fn quick_mode() -> bool {
    static QUICK: OnceLock<bool> = OnceLock::new();
    *QUICK.get_or_init(|| {
        std::env::var("BENCH_QUICK")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

/// Clamps a requested sample count to the quick-mode cap when active.
fn clamp_samples(n: usize, quick: bool) -> usize {
    if quick {
        n.clamp(1, QUICK_MAX_SAMPLES)
    } else {
        n.max(1)
    }
}

/// Clamps a requested measurement time to the quick-mode cap when active.
fn clamp_measurement(d: Duration, quick: bool) -> Duration {
    if quick {
        d.min(QUICK_MAX_MEASUREMENT)
    } else {
        d
    }
}

/// One benchmark measurement.
#[derive(Debug, Clone)]
pub struct Record {
    /// Group name.
    pub group: String,
    /// Benchmark id within the group.
    pub bench: String,
    /// Per-iteration nanoseconds, one entry per sample.
    pub samples_ns: Vec<u128>,
}

impl Record {
    fn min_ns(&self) -> u128 {
        self.samples_ns.iter().copied().min().unwrap_or(0)
    }

    fn median_ns(&self) -> u128 {
        let mut s = self.samples_ns.clone();
        s.sort_unstable();
        if s.is_empty() {
            0
        } else {
            s[s.len() / 2]
        }
    }

    fn mean_ns(&self) -> u128 {
        if self.samples_ns.is_empty() {
            0
        } else {
            self.samples_ns.iter().sum::<u128>() / self.samples_ns.len() as u128
        }
    }
}

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `name/parameter` id.
    pub fn new<S: Display, P: Display>(name: S, parameter: P) -> Self {
        Self {
            id: format!("{name}/{parameter}"),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self { id: s.to_string() }
    }
}

/// Passed to the closure given to `iter`; times the closure body.
pub struct Bencher {
    samples_ns: Vec<u128>,
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

/// Batch-size hint of [`Bencher::iter_batched`]; this harness always runs
/// one setup per sample, so the variants only mirror the real API.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// The setup value is small enough to build once per sample.
    SmallInput,
}

impl Bencher {
    /// Runs `f` repeatedly, recording one timing sample per call.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        self.iter_batched(|| (), |()| f(), BatchSize::SmallInput);
    }

    /// Runs `routine` repeatedly on a value built by an untimed `setup`,
    /// recording one timing sample per call; the routine's output is
    /// dropped outside the timed interval.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // Untimed warm-up: one call, and more until `warm_up_time` is over.
        let warming = Instant::now();
        loop {
            let _ = routine(setup());
            if warming.elapsed() >= self.warm_up_time {
                break;
            }
        }
        let started = Instant::now();
        for _ in 0..self.sample_size {
            let input = setup();
            let t0 = Instant::now();
            let out = routine(input);
            self.samples_ns.push(t0.elapsed().as_nanos());
            drop(out);
            if started.elapsed() > self.measurement_time {
                break;
            }
        }
    }
}

/// A named collection of benchmarks sharing sampling settings.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples per benchmark (clamped in quick mode).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = clamp_samples(n, quick_mode());
        self
    }

    /// Caps the measurement wall-clock per benchmark (clamped in quick
    /// mode).
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = clamp_measurement(d, quick_mode());
        self
    }

    /// Keeps calling the routine, untimed, for `d` before the first sample
    /// of every benchmark run from here on (the default is one call). For
    /// rows that run on more than one thread: a sample is a single call, so
    /// ten of them are over before the operating system has spread the
    /// threads over the cores, and the row would time that placement.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut bencher = self.bencher();
        f(&mut bencher);
        self.record(id, bencher.samples_ns);
        self
    }

    /// Runs one benchmark parameterized by an input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let mut bencher = self.bencher();
        f(&mut bencher, input);
        self.record(id, bencher.samples_ns);
        self
    }

    /// Finishes the group (results are flushed when the harness exits).
    pub fn finish(&mut self) {}

    fn bencher(&self) -> Bencher {
        Bencher {
            samples_ns: Vec::new(),
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            warm_up_time: self.warm_up_time,
        }
    }

    fn record(&mut self, id: BenchmarkId, samples_ns: Vec<u128>) {
        let record = Record {
            group: self.name.clone(),
            bench: id.id,
            samples_ns,
        };
        println!(
            "{:<28} {:<36} min {:>12}  median {:>12}  mean {:>12}  ({} samples)",
            record.group,
            record.bench,
            format_ns(record.min_ns()),
            format_ns(record.median_ns()),
            format_ns(record.mean_ns()),
            record.samples_ns.len(),
        );
        self.criterion.records.push(record);
    }
}

fn format_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// The harness entry object.
#[derive(Default)]
pub struct Criterion {
    records: Vec<Record>,
}

impl Criterion {
    /// Starts a benchmark group (defaults clamped in quick mode).
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let quick = quick_mode();
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: clamp_samples(10, quick),
            measurement_time: clamp_measurement(Duration::from_secs(2), quick),
            warm_up_time: Duration::ZERO,
        }
    }

    /// Writes all recorded results as JSON to `BENCH_RESULTS.json` at the
    /// workspace root (falls back to the current directory).
    pub fn flush_json(&self) {
        if self.records.is_empty() {
            return;
        }
        let path = workspace_root().join("BENCH_RESULTS.json");
        if let Err(e) = std::fs::write(&path, self.to_json()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("\nwrote {}", path.display());
        }
    }

    /// The results file: one object per record, each stamped with the
    /// host and the commit.
    fn to_json(&self) -> String {
        let host = escape(&host_stamp());
        let commit = escape(&command_line(
            "git",
            &[
                "-C",
                env!("CARGO_MANIFEST_DIR"),
                "describe",
                "--always",
                "--dirty",
            ],
        ));
        let mut json = String::from("[\n");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                json.push_str(",\n");
            }
            json.push_str(&format!(
                "  {{\"group\": \"{}\", \"bench\": \"{}\", \"min_ns\": {}, \"median_ns\": {}, \"mean_ns\": {}, \"samples\": {}, \"host\": \"{host}\", \"commit\": \"{commit}\"}}",
                escape(&r.group),
                escape(&r.bench),
                r.min_ns(),
                r.median_ns(),
                r.mean_ns(),
                r.samples_ns.len(),
            ));
        }
        json.push_str("\n]\n");
        json
    }
}

/// Where a results file is comparable: the CPU count the default backend
/// sizes its pool by, the CPU model, and the compiler.
fn host_stamp() -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_string());
    format!("{cpus} x {model}, {}", command_line("rustc", &["-V"]))
}

/// A command's trimmed stdout, or `unknown` when it cannot run or fails.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Locates the workspace root by walking up from the manifest directory
/// looking for a `Cargo.toml` declaring `[workspace]`.
fn workspace_root() -> PathBuf {
    let start = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|_| std::env::current_dir())
        .unwrap_or_else(|_| PathBuf::from("."));
    let mut dir = start.clone();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(content) = std::fs::read_to_string(&manifest) {
            if content.contains("[workspace]") {
                return dir;
            }
        }
        match dir.parent() {
            Some(p) => dir = p.to_path_buf(),
            None => return start,
        }
    }
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Declares the harness `main` running one or more groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` appends `--bench`; any other flag (e.g. a
            // filter) is accepted and ignored by this minimal harness.
            let mut c = $crate::Criterion::default();
            $($group(&mut c);)+
            c.flush_json();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_group_records_samples() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(3)
                .measurement_time(Duration::from_millis(100));
            g.bench_function("noop", |b| b.iter(|| 1 + 1));
            g.bench_with_input(BenchmarkId::new("param", 4), &4usize, |b, &n| {
                b.iter(|| n * 2)
            });
            g.finish();
        }
        assert_eq!(c.records.len(), 2);
        assert!(!c.records[0].samples_ns.is_empty());
        assert_eq!(c.records[1].bench, "param/4");
    }

    #[test]
    fn warm_up_calls_are_untimed_and_last_the_requested_time() {
        let mut c = Criterion::default();
        let mut calls = 0u32;
        let started = Instant::now();
        let mut g = c.benchmark_group("g");
        g.sample_size(3)
            .warm_up_time(Duration::from_millis(20))
            .bench_function("sleepy", |b| {
                b.iter(|| {
                    calls += 1;
                    std::thread::sleep(Duration::from_millis(5));
                })
            });
        g.finish();
        assert_eq!(c.records[0].samples_ns.len(), 3);
        // At least one untimed call, then the three samples. The warm-up is
        // checked by time, not by a call count: a stalled host can stretch
        // one 5 ms sleep past the whole 20 ms.
        assert!(calls > 3, "{calls} calls");
        let elapsed = started.elapsed();
        assert!(elapsed >= Duration::from_millis(20 + 3 * 5), "{elapsed:?}");
    }

    #[test]
    fn quick_clamps_apply_only_in_quick_mode() {
        assert_eq!(clamp_samples(10, true), QUICK_MAX_SAMPLES);
        assert_eq!(clamp_samples(2, true), 2);
        assert_eq!(clamp_samples(0, true), 1);
        assert_eq!(clamp_samples(10, false), 10);
        assert_eq!(
            clamp_measurement(Duration::from_secs(3), true),
            QUICK_MAX_MEASUREMENT
        );
        assert_eq!(
            clamp_measurement(Duration::from_millis(100), true),
            Duration::from_millis(100)
        );
        assert_eq!(
            clamp_measurement(Duration::from_secs(3), false),
            Duration::from_secs(3)
        );
    }

    #[test]
    fn written_records_carry_host_and_commit() {
        let mut c = Criterion::default();
        c.benchmark_group("g")
            .sample_size(1)
            .bench_function("noop", |b| b.iter(|| 1 + 1));
        let json = c.to_json();
        let host = format!("\"host\": \"{}\"", escape(&host_stamp()));
        assert!(json.contains(&host), "{json}");
        assert!(json.contains("\"commit\": \""), "{json}");
    }

    #[test]
    fn record_stats_are_ordered() {
        let r = Record {
            group: "g".into(),
            bench: "b".into(),
            samples_ns: vec![30, 10, 20],
        };
        assert_eq!(r.min_ns(), 10);
        assert_eq!(r.median_ns(), 20);
        assert_eq!(r.mean_ns(), 20);
    }
}
