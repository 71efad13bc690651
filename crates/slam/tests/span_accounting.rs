//! The span-derived latency breakdown must agree with the `StageTimings`
//! accumulator *exactly*: every stage span is emitted with the same
//! measured nanoseconds the accumulator adds, so the Fig. 3 numbers are
//! identical whichever side computes them.
//!
//! Integration test (own process): span tracing is process-global state.

use rtgs_render::FrameArena;
use rtgs_runtime::Serial;
use rtgs_scene::{DatasetProfile, SyntheticDataset};
use rtgs_slam::{track_frame, NoExtension, StageId, StageTimings, TrackingConfig};
use rtgs_telemetry as telemetry;

#[test]
fn span_accounting_matches_stage_accumulator() {
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
    assert_eq!(telemetry::dropped_spans(), 0, "ring overflowed");

    let mut from_spans = StageTimings::default();
    for (_tid, events) in telemetry::collect_spans() {
        for ev in events {
            if let Some(stage) = StageId::from_span_name(ev.name) {
                from_spans.add(stage, ev.dur_ns);
            }
        }
    }
    assert_eq!(
        from_spans, timings,
        "span-derived breakdown must equal the accumulator bit for bit"
    );

    // And the Chrome trace export carries the same stage events, as one
    // balanced JSON document.
    let trace = telemetry::chrome_trace_json();
    assert!(trace.contains("stage.render"));
    assert!(trace.contains("\"traceEvents\""));
    assert!(telemetry::json_balanced(&trace), "chrome trace JSON");
}
