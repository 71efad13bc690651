//! `serve_open_loop`: waves of three tenants — `steady` (GS-SLAM, Poisson),
//! `bursty` (MonoGS, back-to-back bursts larger than the inbox) and `slow`
//! (SplaTAM, Poisson) — each wave a fresh `IngestHub` served by
//! `Serve::builder().threads(1).ingest(&hub)` with SLO shedding attached.
//! One generator thread replays the merged schedule with `push_at(.., due)`,
//! so every frame is timed from when it was due, however late the
//! generator or the server ran.

use super::served::{self, Served};
use super::{
    check_quality, config, fill_end_to_end, fill_latency_layers, fill_pipeline_layers, ms_between,
    timed_setup, units, warm_up, write_trace, EndToEnd, Opts, SessionLayers,
};
use crate::inputs::{arrivals, merge, Arrival, BURSTY, INBOX_CAPACITY, SLOW, STEADY, WAVE_SECONDS};
use crate::metrics::{RunResult, LATENCY_LIMIT_MS};
use crate::stats::percentile;
use crate::trace;
use crate::wrappers::TimedSession;
use rtgs::runtime::{FrameProducer, IngestConfig, IngestHub, LatePolicy, Serve};
use rtgs::scene::SyntheticDataset;
use rtgs::slam::{BaseAlgorithm, OpenLoopSession, SlamPipeline, SloPolicy};
use std::time::{Duration, Instant};

const TENANTS: [(&str, BaseAlgorithm, Arrival); 3] = [
    ("steady", BaseAlgorithm::GsSlam, STEADY),
    ("bursty", BaseAlgorithm::MonoGs, BURSTY),
    ("slow", BaseAlgorithm::SplaTam, SLOW),
];

/// A generator that runs later than this at its p95 did not offer the
/// schedule it claims to: the run is invalid. Frames are timed from their
/// due time whatever the lateness, so the limit only has to catch a
/// generator that lost the CPU outright: it sleeps on a third thread and
/// wakes 0.3–3 ms late (p95) while both executors are busy, 12 ms when the
/// host is in a slow spell.
const GENERATOR_LATE_LIMIT_MS: f64 = 50.0;

/// The generator starts this long after the sessions are handed to `Serve`,
/// so the scheduler is parked on the hub before the first frame is due.
const LEAD: Duration = Duration::from_millis(50);

fn slo() -> SloPolicy {
    SloPolicy::new(Duration::from_secs_f64(LATENCY_LIMIT_MS / 1e3))
        .with_depth_high(2)
        .with_degrade_factor(2)
        .with_window(16)
}

fn hub() -> IngestHub {
    IngestHub::new(
        IngestConfig::new()
            .with_inbox_capacity(INBOX_CAPACITY)
            .with_late_policy(LatePolicy::DropOldest),
    )
}

type Tenant<'d> = TimedSession<OpenLoopSession<'d>>;

/// Admits one tenant offering `offered` frames.
fn admit<'d>(
    hub: &IngestHub,
    index: usize,
    dataset: &'d SyntheticDataset,
    offered: usize,
) -> (FrameProducer<()>, Tenant<'d>) {
    let (tx, rx) = hub
        .channel::<()>()
        .expect("three tenants stay within the admission budget");
    let cfg = config(TENANTS[index].1, offered);
    let session = OpenLoopSession::new(SlamPipeline::new(cfg, dataset), rx).with_slo(slo());
    (tx, TimedSession::new(session, index as u32, offered))
}

/// One served wave.
struct Wave {
    served: Served,
    /// Frames each tenant's schedule offers.
    offered: Vec<usize>,
    /// How late each push ran against its due time, milliseconds.
    late_ms: Vec<f64>,
}

fn serve_wave(seed: u64, wave: usize, datasets: &[SyntheticDataset]) -> Wave {
    let schedules: Vec<Vec<Duration>> = TENANTS
        .iter()
        .enumerate()
        .map(|(t, &(_, _, arrival))| {
            let stream = seed
                .wrapping_mul(1_000_003)
                .wrapping_add((wave * TENANTS.len() + t) as u64);
            arrivals(arrival, stream, WAVE_SECONDS)
        })
        .collect();
    let merged = merge(&schedules);
    let hub = hub();
    let mut producers = Vec::new();
    let mut sessions = Vec::new();
    for (t, schedule) in schedules.iter().enumerate() {
        let (tx, session) = admit(&hub, t, &datasets[t], schedule.len());
        producers.push(tx);
        sessions.push((TENANTS[t].0.to_string(), session));
    }
    let begin = Instant::now() + LEAD;
    let mut late_ms = Vec::new();
    let served = Served::run(begin, || {
        std::thread::scope(|scope| {
            let generator = scope.spawn(move || {
                let mut late_ms = Vec::with_capacity(merged.len());
                for (offset, tenant) in merged {
                    let due = begin + offset;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    late_ms.push(ms_between(due, Instant::now()));
                    producers[tenant].push_at((), due);
                }
                // Dropping the producers closes the channels: sessions
                // drain their backlog and finish.
                drop(producers);
                late_ms
            });
            let outcomes = Serve::builder().threads(1).ingest(&hub).run(sessions);
            late_ms = generator.join().expect("the generator thread panicked");
            outcomes
        })
    });
    Wave {
        served,
        offered: schedules.iter().map(Vec::len).collect(),
        late_ms,
    }
}

pub fn run(opts: &Opts) -> RunResult {
    let name = "serve_open_loop";
    let mut result = RunResult::new(name, opts.seed, opts.traced);
    let waves = units(opts.seconds, WAVE_SECONDS);
    warm_up(opts.seed, BaseAlgorithm::MonoGs, None);

    let mut setup_s = Vec::new();
    let datasets: Vec<SyntheticDataset> = (0..waves * TENANTS.len())
        .map(|i| {
            timed_setup(opts.seed, i as u64, &mut setup_s, |dataset| {
                let (tx, session) = admit(&hub(), i % TENANTS.len(), dataset, dataset.len());
                std::hint::black_box((tx, rtgs::runtime::Session::resident_bytes(&session)));
            })
        })
        .collect();
    let wave_data = |w: usize| &datasets[w * TENANTS.len()..(w + 1) * TENANTS.len()];

    let untraced_wall_s = if opts.traced {
        serve_wave(opts.seed, 0, wave_data(0)).served.wall_s()
    } else {
        0.0
    };

    trace::set_enabled(opts.traced);
    let served: Vec<Wave> = (0..waves)
        .map(|w| serve_wave(opts.seed, w, wave_data(w)))
        .collect();
    trace::set_enabled(false);
    let spans = trace::take();

    let (mut offered, mut processed, mut dropped, mut degraded, mut max_depth) = (0, 0, 0, 0, 0);
    for (w, wave) in served.iter().enumerate() {
        for (o, &scheduled) in wave.served.outcomes.iter().zip(&wave.offered) {
            let label = format!("wave {w} {}", o.stats.label);
            let ingest = o
                .stats
                .ingest
                .as_ref()
                .expect("open-loop sessions report ingest stats");
            result.check(
                format!("{label}: offered = processed + dropped"),
                ingest.offered == ingest.processed + ingest.dropped()
                    && ingest.offered == scheduled as u64,
                format!(
                    "{scheduled} scheduled, {} offered, {} processed, {} dropped",
                    ingest.offered,
                    ingest.processed,
                    ingest.dropped()
                ),
            );
            result.check(
                format!("{label}: one timed step per processed frame"),
                o.report.1.len() as u64 == ingest.processed
                    && o.report.0.frames_processed as u64 == ingest.processed,
                format!(
                    "{} timed, {} reported",
                    o.report.1.len(),
                    o.report.0.frames_processed
                ),
            );
            check_quality(&mut result, &label, &o.report.0);
            offered += ingest.offered;
            processed += ingest.processed;
            dropped += ingest.dropped();
            degraded += ingest.degraded;
            max_depth = max_depth.max(ingest.max_depth);
        }
    }
    let late: Vec<f64> = served
        .iter()
        .flat_map(|w| w.late_ms.iter().copied())
        .collect();
    let late_p95 = percentile(&late, 0.95);
    result.check(
        format!("generator p95 lateness <= {GENERATOR_LATE_LIMIT_MS} ms"),
        late_p95 <= GENERATOR_LATE_LIMIT_MS,
        format!("{late_p95:.3} ms"),
    );
    result.attempted = offered;
    result.failed = offered - (processed + dropped).min(offered);

    let units: Vec<&Served> = served.iter().map(|w| &w.served).collect();
    let reports = served::reports(&units);
    let peaks = served::session_peaks(&units);
    let service_by_session = served::by_session(&units, served::step_ms);
    let service: Vec<f64> = service_by_session.iter().flatten().copied().collect();
    let sojourn: Vec<f64> = units
        .iter()
        .flat_map(|w| w.steps())
        .map(|s| s.sojourn_ns.expect("open-loop steps carry a sojourn") as f64 / 1e6)
        .collect();
    if opts.traced {
        let layers: Vec<SessionLayers<'_>> = reports
            .iter()
            .zip(&service_by_session)
            .enumerate()
            .map(|(i, (report, step_ms))| SessionLayers {
                report,
                step_ms,
                mapping_iterations: config(TENANTS[i % TENANTS.len()].1, 1).mapping_iterations,
            })
            .collect();
        fill_pipeline_layers(&mut result, &spans, &layers, &[], &setup_s, &[]);
        fill_latency_layers(&mut result, &service, Some(&sojourn));
        served::fill_runtime_layers(&mut result, &units);
        result.set("runtime.ingest.offered", offered as f64);
        result.set("runtime.ingest.processed", processed as f64);
        result.set(
            "runtime.ingest.dropped_share",
            dropped as f64 / offered.max(1) as f64,
        );
        result.set("runtime.ingest.max_depth", max_depth as f64);
        let waits: Vec<f64> = sojourn
            .iter()
            .zip(&service)
            .map(|(so, st)| so - st)
            .collect();
        result.set("runtime.ingest.queue_wait_p50_ms", percentile(&waits, 0.5));
        result.set("runtime.ingest.generator_late_p95_ms", late_p95);
        result.set(
            "slam.ingest.degraded_share",
            degraded as f64 / processed.max(1) as f64,
        );
        result.set(
            "telemetry.harness_trace_overhead_share",
            units[0].wall_s() / untraced_wall_s - 1.0,
        );
        write_trace(name, opts, &spans);
    } else {
        // Goodput: frames done within the limit over the schedule's length.
        // Dropped and late frames miss, and the denominator does not move
        // with the clock.
        let on_time = sojourn.iter().filter(|&&ms| ms <= LATENCY_LIMIT_MS).count();
        fill_end_to_end(
            &mut result,
            &EndToEnd {
                setup_s: &setup_s,
                frames_completed: on_time,
                timed_s: waves as f64 * WAVE_SECONDS,
                service_ms: &served::slices(&service_by_session),
                reports: &reports,
                session_peak_bytes: &peaks,
            },
        );
    }
    // Drops and shedding follow the clock, so nothing here repeats exactly
    // except the offered traffic.
    result.exact.push(("offered", offered as f64));
    result
}
