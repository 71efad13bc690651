//! The span-derived latency breakdown must agree with the `StageTimings`
//! accumulator *exactly*: every stage span is emitted with the same
//! measured nanoseconds the accumulator adds, so the Fig. 3 numbers are
//! identical whichever side computes them — for tracking alone, and for a
//! whole session, whose mapping stages also cover the mapping wall time.
//!
//! Integration test (own process): span tracing is process-global state, so
//! the tests take turns on one lock.

use rtgs_render::FrameArena;
use rtgs_runtime::{BackendChoice, Serial};
use rtgs_scene::{DatasetProfile, SyntheticDataset};
use rtgs_slam::{
    track_frame, BaseAlgorithm, NoExtension, SlamConfig, SlamPipeline, StageId, StageTimings,
    TrackingConfig,
};
use rtgs_telemetry as telemetry;
use std::sync::{Mutex, PoisonError};

/// Held by each test for its whole traced run.
static TRACING: Mutex<()> = Mutex::new(());

/// The stage breakdown of every span recorded since the last
/// `clear_spans`.
fn breakdown_from_spans() -> StageTimings {
    assert_eq!(telemetry::dropped_spans(), 0, "ring overflowed");
    let mut from_spans = StageTimings::default();
    for (_tid, events) in telemetry::collect_spans() {
        for ev in events {
            if let Some(stage) = StageId::from_span_name(ev.name) {
                from_spans.add(stage, ev.dur_ns);
            }
        }
    }
    from_spans
}

#[test]
fn span_accounting_matches_stage_accumulator() {
    let _tracing = TRACING.lock().unwrap_or_else(PoisonError::into_inner);
    telemetry::set_tracing_enabled(true);
    telemetry::clear_spans();

    let ds = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), 2);
    let map = &ds.reference_scene;
    let mut mask = vec![true; map.capacity()];
    let mut timings = StageTimings::default();
    let _ = track_frame(
        map,
        ds.poses_c2w[1].inverse(),
        &ds.frames[1],
        &ds.camera,
        &TrackingConfig {
            iterations: 4,
            ..Default::default()
        },
        &mut mask,
        &mut NoExtension,
        &mut timings,
        &mut FrameArena::new(),
        &Serial,
    );
    telemetry::set_tracing_enabled(false);

    assert!(
        !timings.total().is_zero(),
        "tracking must account stage time"
    );
    assert_eq!(
        breakdown_from_spans(),
        timings,
        "span-derived breakdown must equal the accumulator bit for bit"
    );

    // And the Chrome trace export carries the same stage events, as one
    // balanced JSON document.
    let trace = telemetry::chrome_trace_json();
    assert!(trace.contains("stage.render"));
    assert!(trace.contains("\"traceEvents\""));
    assert!(telemetry::json_balanced(&trace), "chrome trace JSON");
}

/// A SplaTAM session maps every frame. Every interval of its mapping is a
/// stage — Steps ❶–❺ and the loss, and, as `Other`, each iteration's bounds
/// refresh, extension hook, Adam step and densification and the closing
/// prune — so the mapping stages sum to the mapping wall time, less only
/// the few instructions between two timed intervals (≈ 0.2 % of an
/// iteration), and never more; and
/// the spans of the whole session add up to its two accumulators exactly.
#[test]
fn mapping_stages_cover_the_mapping_wall() {
    let _tracing = TRACING.lock().unwrap_or_else(PoisonError::into_inner);
    telemetry::set_tracing_enabled(true);
    telemetry::clear_spans();
    // The ring's one-time allocation would land between two timed
    // intervals of the first mapping iteration.
    telemetry::warm_thread_ring();

    let ds = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), 3);
    let mut config = SlamConfig::for_algorithm(BaseAlgorithm::SplaTam)
        .with_frames(3)
        .with_backend(BackendChoice::Serial);
    config.tracking.iterations = 3;
    config.mapping_iterations = 8;
    let report = SlamPipeline::new(config, &ds).run();
    telemetry::set_tracing_enabled(false);

    let mut session = report.tracking_timings;
    session.accumulate(&report.mapping_timings);
    assert_eq!(
        breakdown_from_spans(),
        session,
        "span-derived breakdown must equal the accumulators bit for bit"
    );

    let (mapped, wall) = (report.mapping_timings.total(), report.mapping_wall);
    assert!(report.mapping_timings.get(StageId::Other) > 0);
    assert!(
        mapped <= wall,
        "{mapped:?} of stages in {wall:?} of mapping"
    );
    assert!(
        mapped.as_secs_f64() >= 0.97 * wall.as_secs_f64(),
        "the mapping stages cover {mapped:?} of {wall:?}"
    );
}
