//! `fleet_closed`: eight closed-loop sessions — two each of MonoGS, GS-SLAM,
//! SplaTAM and Photo-SLAM — through `Serve::builder().threads(1)`.
//!
//! `threads(1)` is the two-core setting: the pool has one worker and the
//! calling thread helps inside `pool.scope`, so two threads execute steps.

use super::served::{self, Served, EXECUTORS};
use super::{
    check_session, config, fill_end_to_end, fill_exact, fill_latency_layers, fill_pipeline_layers,
    ms_between, timed_setup, units, warm_up, write_trace, EndToEnd, Opts, SessionLayers,
};
use crate::inputs::FRAMES;
use crate::metrics::RunResult;
use crate::trace;
use crate::wrappers::{StepRecord, TimedSession};
use rtgs::runtime::{Serve, Session};
use rtgs::scene::SyntheticDataset;
use rtgs::slam::{BaseAlgorithm, SlamPipeline};
use std::time::Instant;

/// Seconds one fleet takes on the reference host.
const FLEET_SECONDS: f64 = 12.0;

/// Sessions per fleet; session `i` runs `ALGORITHMS[i % 4]` on pool scene `i`.
pub const SESSIONS: usize = 8;

const ALGORITHMS: [BaseAlgorithm; 4] = [
    BaseAlgorithm::MonoGs,
    BaseAlgorithm::GsSlam,
    BaseAlgorithm::SplaTam,
    BaseAlgorithm::PhotoSlam,
];

fn session(i: usize, dataset: &SyntheticDataset) -> TimedSession<SlamPipeline<'_>> {
    let cfg = config(ALGORITHMS[i % ALGORITHMS.len()], FRAMES);
    TimedSession::new(SlamPipeline::new(cfg, dataset), i as u32, FRAMES)
}

fn serve(datasets: &[SyntheticDataset]) -> Served {
    let sessions = datasets
        .iter()
        .enumerate()
        .map(|(i, dataset)| (format!("session-{i}"), session(i, dataset)))
        .collect();
    Served::run(Instant::now(), || Serve::builder().threads(1).run(sessions))
}

/// Milliseconds each step of a session stepped alone on this thread takes.
fn solo_step_ms(i: usize, dataset: &SyntheticDataset) -> Vec<f64> {
    let cfg = config(ALGORITHMS[i % ALGORITHMS.len()], FRAMES);
    let mut pipeline = SlamPipeline::new(cfg, dataset);
    let mut step_ms = Vec::with_capacity(FRAMES);
    while !pipeline.is_complete() {
        let start = Instant::now();
        std::hint::black_box(pipeline.step());
        step_ms.push(ms_between(start, Instant::now()));
    }
    step_ms
}

pub fn run(opts: &Opts) -> RunResult {
    let name = "fleet_closed";
    let mut result = RunResult::new(name, opts.seed, opts.traced);
    let fleets = units(opts.seconds, FLEET_SECONDS);
    warm_up(opts.seed, BaseAlgorithm::MonoGs, None);

    let mut setup_s = Vec::new();
    let datasets: Vec<SyntheticDataset> = (0..SESSIONS)
        .map(|i| {
            timed_setup(opts.seed, i as u64, &mut setup_s, |dataset| {
                std::hint::black_box(Session::resident_bytes(&session(i, dataset)));
            })
        })
        .collect();

    let untraced_wall_s = if opts.traced {
        serve(&datasets).wall_s()
    } else {
        0.0
    };

    trace::set_enabled(opts.traced);
    let served: Vec<Served> = (0..fleets).map(|_| serve(&datasets)).collect();
    trace::set_enabled(false);
    let spans = trace::take();

    for (f, fleet) in served.iter().enumerate() {
        for o in &fleet.outcomes {
            let label = format!("fleet {f} {}", o.stats.label);
            check_session(&mut result, &label, &o.report.0, FRAMES);
            result.check(
                format!("{label}: one timed step per frame"),
                o.report.1.len() == FRAMES && o.stats.steps == FRAMES && o.stats.completed,
                format!("{} timed, {} scheduled", o.report.1.len(), o.stats.steps),
            );
        }
    }
    result.attempted = (fleets * SESSIONS * FRAMES) as u64;
    result.failed = served
        .iter()
        .flat_map(|f| &f.outcomes)
        .map(|o| (FRAMES - o.report.0.frames_processed.min(FRAMES)) as u64)
        .sum();

    let units: Vec<&Served> = served.iter().collect();
    let reports = served::reports(&units);
    let peaks = served::session_peaks(&units);
    let per_session = served::by_session(&units, served::step_ms);
    let service: Vec<f64> = per_session.iter().flatten().copied().collect();
    if opts.traced {
        let layers: Vec<SessionLayers<'_>> = reports
            .iter()
            .zip(&per_session)
            .enumerate()
            .map(|(i, (report, step_ms))| SessionLayers {
                report,
                step_ms,
                mapping_iterations: config(ALGORITHMS[i % ALGORITHMS.len()], FRAMES)
                    .mapping_iterations,
            })
            .collect();
        fill_pipeline_layers(&mut result, &spans, &layers, &[], &setup_s, &[]);
        fill_latency_layers(&mut result, &service, None);
        served::fill_runtime_layers(&mut result, &units);

        // A round steps every live session once and ends when the slowest
        // finishes: the executor time rounds leave idle is the imbalance.
        let (mut round_busy_ms, mut round_wall_ms) = (0.0, 0.0);
        for fleet in &served {
            for round in 0..FRAMES {
                let steps: Vec<&StepRecord> = fleet
                    .outcomes
                    .iter()
                    .filter_map(|o| o.report.1.get(round))
                    .collect();
                let (Some(first), Some(last)) = (
                    steps.iter().map(|s| s.start).min(),
                    steps.iter().map(|s| s.end).max(),
                ) else {
                    continue;
                };
                round_wall_ms += ms_between(first, last);
                round_busy_ms += steps.iter().map(|s| served::step_ms(s)).sum::<f64>();
            }
        }
        result.set(
            "runtime.scheduler.round_imbalance",
            1.0 - round_busy_ms / (EXECUTORS * round_wall_ms),
        );
        // One session of each algorithm alone on this thread, against the
        // same session inside the first fleet.
        let solo_ms: f64 = (0..ALGORITHMS.len())
            .map(|i| solo_step_ms(i, &datasets[i]).iter().sum::<f64>())
            .sum();
        let fleet_ms: f64 = per_session[..ALGORITHMS.len()].iter().flatten().sum();
        result.set("runtime.scheduler.step_inflation", fleet_ms / solo_ms);
        result.set(
            "telemetry.harness_trace_overhead_share",
            served[0].wall_s() / untraced_wall_s - 1.0,
        );
        write_trace(name, opts, &spans);
    } else {
        fill_end_to_end(
            &mut result,
            &EndToEnd {
                setup_s: &setup_s,
                frames_completed: reports.iter().map(|r| r.frames_processed).sum(),
                timed_s: served.iter().map(Served::wall_s).sum(),
                service_ms: &served::slices(&per_session),
                reports: &reports,
                session_peak_bytes: &peaks,
            },
        );
    }
    // Every fleet serves the same inputs: the first one's values repeat.
    fill_exact(&mut result, &reports[..SESSIONS], &peaks[..SESSIONS]);
    result
}
