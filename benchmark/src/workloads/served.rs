//! What the two workloads that go through `Serve::builder()` share: one
//! served unit (a fleet or a wave), views over its timed sessions and the
//! `runtime.*` layer metrics.

use super::ms_between;
use crate::metrics::RunResult;
use crate::stats::median;
use crate::trace;
use crate::wrappers::StepRecord;
use rtgs::runtime::{shared_pool, PoolStats, SessionOutcome};
use rtgs::slam::SlamReport;
use std::time::Instant;

/// The outcome of one [`crate::wrappers::TimedSession`] over a pipeline.
pub type Outcome = SessionOutcome<(SlamReport, Vec<StepRecord>)>;

/// Threads that execute session steps under `threads(1)`: the pool's one
/// worker and the calling thread, which helps inside `pool.scope`.
pub const EXECUTORS: f64 = 2.0;

/// One served unit.
pub struct Served {
    /// When serving began (open loop: when the first frame could be due).
    pub begin: Instant,
    pub outcomes: Vec<Outcome>,
    /// What the `threads(1)` pool did meanwhile.
    pub pool: PoolStats,
}

impl Served {
    /// Runs `serve` — the `Serve::builder()…run(..)` call — and keeps the
    /// pool counters it moved.
    pub fn run(begin: Instant, serve: impl FnOnce() -> Vec<Outcome>) -> Self {
        let pool = shared_pool(1);
        let before = pool.stats();
        let outcomes = serve();
        let after = pool.stats();
        Self {
            begin,
            outcomes,
            pool: PoolStats {
                jobs: after.jobs - before.jobs,
                steals: after.steals - before.steals,
                parks: after.parks - before.parks,
            },
        }
    }

    /// Seconds from `begin` to the last completed frame (`finish()` builds
    /// the reports after that, outside the timed phase).
    pub fn wall_s(&self) -> f64 {
        let last = self.steps().map(|s| s.end).max().unwrap_or(self.begin);
        last.saturating_duration_since(self.begin).as_secs_f64()
    }

    pub fn steps(&self) -> impl Iterator<Item = &StepRecord> {
        self.outcomes.iter().flat_map(|o| o.report.1.iter())
    }
}

fn outcomes<'a>(served: &'a [&'a Served]) -> impl Iterator<Item = &'a Outcome> {
    served.iter().flat_map(|s| &s.outcomes)
}

pub fn reports<'a>(served: &'a [&'a Served]) -> Vec<&'a SlamReport> {
    outcomes(served).map(|o| &o.report.0).collect()
}

/// Peak resident bytes of each session.
pub fn session_peaks(served: &[&Served]) -> Vec<usize> {
    outcomes(served)
        .map(|o| {
            o.report
                .1
                .iter()
                .map(|s| s.resident_bytes)
                .max()
                .unwrap_or(0)
        })
        .collect()
}

/// One value per processed frame, session by session.
pub fn by_session(served: &[&Served], f: impl Fn(&StepRecord) -> f64) -> Vec<Vec<f64>> {
    outcomes(served)
        .map(|o| o.report.1.iter().map(&f).collect())
        .collect()
}

/// Milliseconds `Session::step` took for each processed frame.
pub fn step_ms(step: &StepRecord) -> f64 {
    ms_between(step.start, step.end)
}

/// Borrows per-session vectors as the slices the assembly takes.
pub fn slices(per_session: &[Vec<f64>]) -> Vec<&[f64]> {
    per_session.iter().map(Vec::as_slice).collect()
}

/// Sets the scheduler and pool metrics both served workloads have.
pub fn fill_runtime_layers(result: &mut RunResult, served: &[&Served]) {
    let wall_s: f64 = served.iter().map(|s| s.wall_s()).sum();
    let busy_ms: f64 = served.iter().flat_map(|s| s.steps()).map(step_ms).sum();
    result.set(
        "runtime.scheduler.executor_busy_share",
        busy_ms / 1e3 / (EXECUTORS * wall_s),
    );
    result.set(
        "runtime.scheduler.steps",
        outcomes(served).map(|o| o.stats.steps).sum::<usize>() as f64,
    );
    result.set(
        "runtime.scheduler.idle_rounds",
        outcomes(served).map(|o| o.stats.idle_rounds).sum::<usize>() as f64,
    );
    // First sighting of the session as ready → its step starts.
    let gaps: Vec<f64> = served
        .iter()
        .flat_map(|s| s.steps())
        .filter_map(|s| Some((trace::ns_of(s.start) as f64 - s.ready_ns? as f64) / 1e3))
        .collect();
    result.set("runtime.scheduler.dispatch_gap_us", median(&gaps));
    let pool = |f: fn(&PoolStats) -> u64| served.iter().map(|s| f(&s.pool)).sum::<u64>() as f64;
    result.set("runtime.pool.jobs", pool(|p| p.jobs));
    result.set("runtime.pool.steals", pool(|p| p.steals));
    result.set("runtime.pool.parks", pool(|p| p.parks));
}
