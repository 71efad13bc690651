//! Telemetry demonstration (not a paper artifact): enables span tracing,
//! runs a tracked frame plus a short hibernating serve, and reports what
//! the always-on instrumentation collected — latency percentiles from the
//! registry histograms, hibernation I/O totals, a Chrome `trace_event`
//! export, and an exactness check that the span-derived stage breakdown
//! (the paper's Fig. 3 decomposition) agrees with the `StageTimings`
//! accumulator bit for bit.

use crate::common::{f, slam_config, Scale, Table};
use rtgs_render::{FrameArena, ShardedScene};
use rtgs_runtime::{fleet_latency, EvictionPolicy, Serial, Serve};
use rtgs_scene::{DatasetProfile, SyntheticDataset};
use rtgs_slam::{
    track_frame, BaseAlgorithm, NoExtension, SlamPipeline, StageId, StageTimings, TrackingConfig,
};
use rtgs_telemetry as telemetry;

/// Unique marker span: identifies the experiment thread's ring so the
/// agreement check is immune to spans other threads record concurrently.
const SENTINEL: &str = "experiment.telemetry.sentinel";

pub fn telemetry(scale: Scale) -> String {
    let ds =
        SyntheticDataset::generate(scale.profile(DatasetProfile::tum_analog()), scale.frames());
    telemetry::set_tracing_enabled(true);
    telemetry::clear_spans();
    telemetry::emit_span(SENTINEL, "meta", 0, 0, 0);

    // Part 1 — span-vs-stage agreement on one tracked frame. Every stage
    // span is emitted with the same measured nanoseconds the accumulator
    // adds, so the two Fig. 3 decompositions must be identical.
    let map = ShardedScene::from_scene(&ds.reference_scene, 1.0);
    let mut mask = vec![true; map.capacity()];
    let mut timings = StageTimings::default();
    let _ = track_frame(
        &map,
        ds.poses_c2w[1].inverse(),
        &ds.frames[1],
        &ds.camera,
        &TrackingConfig {
            iterations: scale.tracking_iters(),
            ..Default::default()
        },
        &mut mask,
        &mut NoExtension,
        &mut timings,
        &mut FrameArena::new(),
        &Serial,
    );
    let mut from_spans = StageTimings::default();
    for (_tid, events) in telemetry::collect_spans() {
        if !events.iter().any(|e| e.name == SENTINEL) {
            continue; // another thread's ring
        }
        for ev in &events {
            if let Some(stage) = StageId::from_span_name(ev.name) {
                from_spans.add(stage, ev.dur_ns);
            }
        }
    }
    let agree = from_spans == timings;

    // Part 2 — a short serve under a hibernate-to-disk eviction policy, so
    // the registry sees step latencies and spill I/O.
    let spill = std::env::temp_dir().join(format!("rtgs-telemetry-exp-{}", std::process::id()));
    std::fs::create_dir_all(&spill).ok();
    let sessions = BaseAlgorithm::all()
        .into_iter()
        .map(|algo| {
            let cfg = slam_config(algo, scale, false);
            (algo.name().to_string(), SlamPipeline::new(cfg, &ds))
        })
        .collect();
    let outcomes = Serve::builder()
        .threads(2)
        .eviction(EvictionPolicy::new(spill.clone()).with_max_resident_sessions(2))
        .run(sessions);
    telemetry::set_tracing_enabled(false);
    std::fs::remove_dir_all(&spill).ok();

    // Part 3 — Chrome trace export, validated structurally.
    let trace = telemetry::chrome_trace_json();
    let trace_valid = trace.contains("\"traceEvents\"") && telemetry::json_balanced(&trace);
    let trace_events = trace.matches("\"ph\"").count();

    // Part 4 — what the registry collected, as percentile rows.
    let snap = telemetry::global().snapshot();
    let mut table = Table::new(&[
        "histogram",
        "count",
        "p50 (µs)",
        "p99 (µs)",
        "p999 (µs)",
        "max (µs)",
    ]);
    let us = |ns: u64| f(ns as f64 / 1e3, 1);
    for name in [
        "slam.frame_ns",
        "serve.step_ns",
        "snapshot.capture_ns",
        "snapshot.hibernate_ns",
        "snapshot.rehydrate_ns",
    ] {
        if let Some(h) = snap.histogram(name) {
            table.row(vec![
                name.into(),
                h.count().to_string(),
                us(h.p50()),
                us(h.p99()),
                us(h.p999()),
                us(h.max()),
            ]);
        }
    }
    let fleet = fleet_latency(&outcomes);
    let counter = |name: &str| snap.counter(name).unwrap_or(0);

    let mut out = String::from("Telemetry: always-on metrics and span tracing\n\n");
    out.push_str(&format!("span-vs-stage accounting agree: {agree}\n"));
    out.push_str(&format!(
        "chrome trace JSON: {} ({} events, {} bytes, {} spans dropped)\n",
        if trace_valid { "valid" } else { "INVALID" },
        trace_events,
        trace.len(),
        telemetry::dropped_spans(),
    ));
    out.push_str(&format!(
        "fleet step latency over {} sessions: {} steps, p50 {} µs, p99 {} µs, p999 {} µs\n",
        outcomes.len(),
        fleet.count(),
        us(fleet.p50()),
        us(fleet.p99()),
        us(fleet.p999()),
    ));
    out.push_str(&format!(
        "hibernate/rehydrate: {} / {} ops, {} / {} bytes spilled/restored\n",
        counter("serve.hibernate.count"),
        counter("serve.rehydrate.count"),
        counter("snapshot.hibernate.bytes"),
        counter("snapshot.rehydrate.bytes"),
    ));
    if let Some(hw) = snap.gauge("arena.high_water_bytes") {
        out.push_str(&format!("arena high-water mark: {hw} bytes\n"));
    }
    if let Some(vis) = snap.histogram("slam.visible_gaussians") {
        out.push_str(&format!(
            "visible set size: p50 {} / max {} gaussians per frame\n",
            vis.p50(),
            vis.max()
        ));
    }
    out.push('\n');
    out.push_str(&table.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_experiment_agrees_and_exports_valid_trace() {
        let out = telemetry(Scale::Quick);
        assert!(
            out.contains("span-vs-stage accounting agree: true"),
            "{out}"
        );
        assert!(out.contains("chrome trace JSON: valid"), "{out}");
        assert!(out.contains("slam.frame_ns"), "{out}");
        assert!(out.contains("p999"), "{out}");
    }
}
