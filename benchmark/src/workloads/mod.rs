//! The five workloads and what they share: sizing from `--seconds`, the
//! warm-up session, timed set-up, and the assembly of end-to-end and
//! per-layer metrics from per-frame samples, reports and spans.

pub mod closed;
pub mod fleet;
pub mod open_loop;
pub mod replicated;
mod served;

use crate::inputs::{self, FRAMES, WARMUP_FRAMES, WARMUP_SCENE};
use crate::metrics::RunResult;
use crate::stats::{mean, median, percentile, supports_percentile};
use crate::trace::{self, Span};
use rtgs::scene::SyntheticDataset;
use rtgs::slam::{
    BaseAlgorithm, PipelineExtension, SlamConfig, SlamPipeline, SlamReport, StageTimings,
};
use std::collections::HashMap;
use std::time::Instant;

/// Run parameters every workload receives.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    /// Nominal length of the timed phase on the reference host.
    pub seconds: u64,
    pub traced: bool,
}

/// ATE above this marks a session's tracker as lost.
const ATE_LIMIT_M: f64 = 0.5;

/// PSNR below this marks a session's map as lost.
const PSNR_FLOOR_DB: f64 = 20.0;

/// Set-up is repeated this often per session and the median reported.
const SETUP_REPEATS: usize = 5;

/// Runs the named workload.
pub fn run(name: &str, opts: &Opts) -> Option<RunResult> {
    Some(match name {
        "track_closed" => closed::run(false, opts),
        "rtgs_closed" => closed::run(true, opts),
        "map_replicated" => replicated::run(opts),
        "fleet_closed" => fleet::run(opts),
        "serve_open_loop" => open_loop::run(opts),
        _ => return None,
    })
}

/// How many units of work (sessions, fleets, waves) fit `--seconds`, given
/// what one unit takes on the reference host. Work is sized, not cut off by
/// a clock: the same `--seconds` always runs the same frames, so counts and
/// quality repeat exactly.
pub fn units(seconds: u64, unit_seconds: f64) -> usize {
    ((seconds as f64 / unit_seconds).round() as usize).max(1)
}

/// The session configuration every workload uses: the algorithm's defaults
/// on the serial backend.
pub fn config(algorithm: BaseAlgorithm, frames: usize) -> SlamConfig {
    SlamConfig::for_algorithm(algorithm).with_frames(frames)
}

/// One untimed short session so code, allocator and clocks are warm before
/// anything is timed.
pub fn warm_up(
    seed: u64,
    algorithm: BaseAlgorithm,
    extension: Option<Box<dyn PipelineExtension + Send>>,
) {
    let dataset = inputs::dataset(seed, WARMUP_SCENE, WARMUP_FRAMES);
    let cfg = config(algorithm, WARMUP_FRAMES);
    let mut pipeline = match extension {
        Some(ext) => SlamPipeline::with_extension(cfg, &dataset, ext),
        None => SlamPipeline::new(cfg, &dataset),
    };
    while pipeline.step().is_some() {}
    std::hint::black_box(pipeline.scene().len());
}

/// One session's set-up: generates the dataset of pool scene `scene` and
/// constructs (then drops) the session's objects through `construct`.
/// Repeated [`SETUP_REPEATS`] times, each repeat's seconds appended to
/// `samples`, so work a later change moves into set-up shows.
pub fn timed_setup(
    seed: u64,
    scene: u64,
    samples: &mut Vec<f64>,
    construct: impl Fn(&SyntheticDataset),
) -> SyntheticDataset {
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let dataset = std::hint::black_box(inputs::dataset(seed, scene, FRAMES));
        construct(&dataset);
        samples.push(t0.elapsed().as_secs_f64());
        last = Some(dataset);
    }
    last.expect("SETUP_REPEATS > 0")
}

/// Builds a session's report outside the timed phase, timing it.
pub fn timed_report(pipeline: &SlamPipeline<'_>, samples: &mut Vec<f64>) -> SlamReport {
    let t0 = Instant::now();
    let report = pipeline.report();
    samples.push(t0.elapsed().as_secs_f64());
    report
}

/// Milliseconds between two instants.
pub fn ms_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// The per-session output checks every closed session must pass.
pub fn check_session(result: &mut RunResult, label: &str, report: &SlamReport, planned: usize) {
    result.check(
        format!("{label}: frames_processed = planned"),
        report.frames_processed == planned,
        format!("{} of {planned}", report.frames_processed),
    );
    check_quality(result, label, report);
}

/// Fails loudly on a lost tracker or map rather than timing one.
pub fn check_quality(result: &mut RunResult, label: &str, report: &SlamReport) {
    result.check(
        format!("{label}: ATE < {ATE_LIMIT_M} m"),
        report.ate.rmse < ATE_LIMIT_M,
        format!("{:.4} m", report.ate.rmse),
    );
    result.check(
        format!("{label}: PSNR > {PSNR_FLOOR_DB} dB"),
        report.mean_psnr > PSNR_FLOOR_DB,
        format!("{:.2} dB", report.mean_psnr),
    );
}

/// What the end-to-end metrics are assembled from.
pub struct EndToEnd<'a> {
    /// Seconds of each repeat of each session's set-up.
    pub setup_s: &'a [f64],
    /// Frames that count as completed (open loop: within the latency limit).
    pub frames_completed: usize,
    /// Seconds of the timed phase: set-up, probes, failover drills and
    /// `report()` are outside it (open loop: the length of the schedule).
    pub timed_s: f64,
    /// Service time of every frame, session by session: the step plus,
    /// where the workload has them, its replication hops.
    pub service_ms: &'a [&'a [f64]],
    pub reports: &'a [&'a SlamReport],
    /// Peak `resident_bytes()` of each session.
    pub session_peak_bytes: &'a [usize],
}

/// Sets the six end-to-end metrics.
pub fn fill_end_to_end(result: &mut RunResult, e: &EndToEnd<'_>) {
    result.set("setup_s", median(e.setup_s));
    result.set("frames_per_s", e.frames_completed as f64 / e.timed_s);
    result.set("frame_p50_ms", median_session_p50(e.service_ms));
    let ate: Vec<f64> = e.reports.iter().map(|r| r.ate.rmse).collect();
    let psnr: Vec<f64> = e.reports.iter().map(|r| r.mean_psnr).collect();
    result.set("ate_rmse_m", mean(&ate));
    result.set("psnr_db", mean(&psnr));
    let peaks: Vec<f64> = e
        .session_peak_bytes
        .iter()
        .map(|&b| b as f64 / 1e6)
        .collect();
    result.set("peak_resident_mb", mean(&peaks));
}

/// Sets the latency percentiles that are reported but not gated (see
/// `NOISE.md` for their spreads). A p95 is reported only when at least ten
/// samples lie beyond it; a run too short for that reports 0 there.
///
/// `sojourn_ms` is due→done of every frame, pooled; `None` on a closed loop,
/// where the tenant offers the next frame only once the server can take it,
/// so no queue exists and the sojourn is the service time.
pub fn fill_latency_layers(result: &mut RunResult, service_ms: &[f64], sojourn_ms: Option<&[f64]>) {
    let sojourn_ms = sojourn_ms.unwrap_or(service_ms);
    result.set("latency.sojourn_p50_ms", percentile(sojourn_ms, 0.5));
    for (metric, samples) in [
        ("latency.frame_p95_ms", service_ms),
        ("latency.sojourn_p95_ms", sojourn_ms),
    ] {
        if supports_percentile(samples.len(), 0.95) {
            result.set(metric, percentile(samples, 0.95));
        } else {
            println!(
                "note  {metric} not reported: {} samples leave fewer than 10 beyond p95",
                samples.len()
            );
        }
    }
}

/// The median session's median: the nearest-rank p50 of each session, then
/// the median over sessions. Pooling the frames of a mixed fleet instead
/// puts the p50 on the boundary between two algorithms' frame-time
/// clusters (each a quarter of the frames), where it moved 15 % between
/// identical runs.
pub fn median_session_p50(per_session_ms: &[&[f64]]) -> f64 {
    let p50s: Vec<f64> = per_session_ms
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| percentile(s, 0.5))
        .collect();
    median(&p50s)
}

/// Values that must repeat exactly across runs of one seed on the serial
/// backend, whatever the machine does to the clock.
pub fn fill_exact(result: &mut RunResult, reports: &[&SlamReport], session_peak_bytes: &[usize]) {
    let sum = |f: &dyn Fn(&SlamReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>();
    result.exact.extend([
        ("ate_rmse_m", sum(&|r| r.ate.rmse)),
        ("psnr_db", sum(&|r| r.mean_psnr)),
        (
            "peak_resident_bytes",
            session_peak_bytes.iter().sum::<usize>() as f64,
        ),
        ("keyframes", sum(&|r| r.keyframes as f64)),
        (
            "tracking_fragments",
            sum(&|r| r.frames.iter().map(|f| f.tracking_fragments as f64).sum()),
        ),
        (
            "live_gaussians",
            sum(&|r| r.frames.iter().map(|f| f.gaussians as f64).sum()),
        ),
    ]);
}

/// One session as the per-layer assembly sees it.
pub struct SessionLayers<'a> {
    pub report: &'a SlamReport,
    /// Milliseconds `SlamPipeline::step` took for each processed frame.
    pub step_ms: &'a [f64],
    pub mapping_iterations: usize,
}

/// Median duration in microseconds of the spans called `name`.
pub fn span_median_us(spans: &[Span], name: &str) -> f64 {
    median(&trace::durations_us(spans, name))
}

/// Sets the `render.*`, `slam.*`, `scene.*` and `metrics.*` layer metrics.
/// `sessions[i]` is the session whose spans carry session id `i`.
pub fn fill_pipeline_layers(
    result: &mut RunResult,
    spans: &[Span],
    sessions: &[SessionLayers<'_>],
    probes: &[&crate::probe::Probe],
    setup_s: &[f64],
    report_s: &[f64],
) {
    // -- render: the probe iteration ------------------------------------
    const STAGES: [(&str, &str); 6] = [
        ("render.shard.cull", "render.shard.cull_us"),
        ("render.project.project", "render.project.project_us"),
        ("render.tiles.assign", "render.tiles.assign_us"),
        ("render.forward.render", "render.forward.render_us"),
        ("render.loss.loss", "render.loss.loss_us"),
        ("render.backward.backward", "render.backward.backward_us"),
    ];
    let mut stage_us = [0.0f64; 6];
    for (i, (span_name, metric)) in STAGES.iter().enumerate() {
        stage_us[i] = span_median_us(spans, span_name);
        result.set(metric, stage_us[i]);
    }
    // Per frame: the probe iteration's microseconds (the sum of its six
    // stage spans) and the tracking iterations the frame really ran.
    let mut tracking_iterations: HashMap<(u32, u32), f64> = HashMap::new();
    let mut probe_us: HashMap<(u32, u32), f64> = HashMap::new();
    for s in spans {
        if s.name == "core.extension.after_iteration" {
            *tracking_iterations.entry((s.session, s.frame)).or_default() += 1.0;
        } else if s.name.starts_with("render.") {
            *probe_us.entry((s.session, s.frame)).or_default() += s.duration_ns() as f64 / 1e3;
        }
    }
    let iter_us = median(&probe_us.values().copied().collect::<Vec<f64>>());
    result.set("render.iter_total_us", iter_us);
    let iterations: u64 = probes.iter().map(|p| p.counts.iterations).sum();
    if iterations > 0 {
        let total = |f: fn(&crate::probe::ProbeCounts) -> u64| {
            probes.iter().map(|p| f(&p.counts)).sum::<u64>() as f64
        };
        let fragments = total(|c| c.fragments) / iterations as f64;
        result.set("render.forward.fragments_per_iter", fragments);
        result.set(
            "render.forward.ns_per_fragment",
            stage_us[3] * 1e3 / fragments.max(1.0),
        );
        result.set(
            "render.shard.visible_share",
            total(|c| c.visible) / total(|c| c.live).max(1.0),
        );
        let arena = probes.iter().map(|p| p.arena_bytes()).max().unwrap_or(0);
        result.set("render.arena.high_water_mb", arena as f64 / 1e6);
    }
    result.set(
        "slam.optimizer.step_visible_us",
        span_median_us(spans, "slam.optimizer.step_visible"),
    );
    result.set(
        "slam.map.refresh_bounds_us",
        span_median_us(spans, "slam.map.refresh_bounds"),
    );

    // -- slam: the pipeline's steps ---------------------------------------
    let (mut track, mut keyframe, mut init) = (Vec::new(), Vec::new(), Vec::new());
    let (mut live, mut fragments, mut factor) = (Vec::new(), Vec::new(), Vec::new());
    let mut stages = StageTimings::default();
    for s in sessions {
        for (frame, &ms) in s.report.frames.iter().zip(s.step_ms) {
            live.push(frame.gaussians as f64);
            if frame.index == 0 {
                init.push(ms);
                continue;
            }
            fragments.push(frame.tracking_fragments as f64);
            factor.push(frame.resolution_factor as f64);
            if frame.is_keyframe {
                keyframe.push(ms);
            } else {
                track.push(ms);
            }
        }
        stages.accumulate(&s.report.stage_timings);
    }
    let step_total_ms: f64 = [&track, &keyframe, &init]
        .iter()
        .map(|v| v.iter().sum::<f64>())
        .sum();
    result.set("slam.pipeline.step_track_ms", median(&track));
    result.set("slam.pipeline.step_keyframe_ms", median(&keyframe));
    result.set("slam.pipeline.init_ms", median(&init));
    if step_total_ms > 0.0 {
        let keyframe_ms: f64 = keyframe.iter().chain(&init).sum();
        result.set("slam.pipeline.keyframe_share", keyframe_ms / step_total_ms);
    }
    result.set("slam.map.live_gaussians_mean", mean(&live));
    result.set("slam.tracking.fragments_per_frame", mean(&fragments));
    result.set("slam.tracking.mean_resolution_factor", mean(&factor));
    let shares = stages.shares();
    for (metric, share) in [
        ("slam.report.preprocess_share", shares[0]),
        ("slam.report.sorting_share", shares[1]),
        ("slam.report.render_share", shares[2]),
        ("slam.report.render_bp_share", shares[3]),
        ("slam.report.preprocess_bp_share", shares[4]),
        ("slam.report.other_share", shares[5]),
    ] {
        result.set(metric, share);
    }

    // The stated residual: the part of step time that "iterations x probe
    // iteration" does not explain, frame by frame (motion model, keyframe
    // test, densify, prune, bookkeeping — and any error of the probe as a
    // stand-in for the iterations the frame really ran).
    // A full-resolution probe says nothing about a downsampled iteration.
    let full_resolution = factor.iter().all(|&f| f == 1.0);
    if !probe_us.is_empty() && step_total_ms > 0.0 && full_resolution {
        let mut explained_ms = 0.0;
        for (i, s) in sessions.iter().enumerate() {
            for frame in &s.report.frames {
                let key = (i as u32, frame.index as u32);
                let mapping = if frame.is_keyframe {
                    s.mapping_iterations as f64
                } else {
                    0.0
                };
                let iterations = tracking_iterations.get(&key).copied().unwrap_or(0.0) + mapping;
                explained_ms += iterations * probe_us.get(&key).copied().unwrap_or(0.0) / 1e3;
            }
        }
        result.set(
            "slam.pipeline.residual_share",
            1.0 - explained_ms / step_total_ms,
        );
    }

    // Probe stage shares against the program's own StageTimings: both are
    // shares of iteration time, so they must roughly agree.
    let probe_total: f64 = stage_us.iter().sum();
    if probe_total > 0.0 && stages.total().as_nanos() > 0 {
        let pairs = [
            (
                "preprocess",
                (stage_us[0] + stage_us[1]) / probe_total,
                shares[0],
            ),
            ("sorting", stage_us[2] / probe_total, shares[1]),
            ("render", stage_us[3] / probe_total, shares[2]),
            ("backward", stage_us[5] / probe_total, shares[3] + shares[4]),
        ];
        for (stage, probe, reported) in pairs {
            result.check(
                format!("probe {stage} share within 10 points of slam.report"),
                (probe - reported).abs() <= 0.10,
                format!("probe {probe:.3} vs reported {reported:.3}"),
            );
        }
    }

    result.set("scene.generate_s", median(setup_s));
    result.set("metrics.report_s", median(report_s));
}

/// Sets the `core.*` callback metrics from the extension's spans.
pub fn fill_extension_layers(result: &mut RunResult, spans: &[Span], step_total_ms: f64) {
    let after = trace::durations_us(spans, "core.extension.after_iteration");
    let end = trace::durations_us(spans, "core.extension.end_of_frame");
    result.set("core.extension.after_iteration_us", median(&after));
    result.set("core.extension.end_of_frame_us", median(&end));
    if step_total_ms > 0.0 {
        let total_us: f64 = after.iter().chain(&end).sum();
        result.set(
            "core.extension.overhead_share",
            total_us / 1e3 / step_total_ms,
        );
    }
}

/// Writes the spans of a traced run to `benchmark/out/trace-<workload>.json`.
pub fn write_trace(workload: &str, opts: &Opts, spans: &[Span]) {
    let host = crate::host::stamp_json();
    crate::write_out(
        &format!("trace-{workload}.json"),
        &trace::to_json(&host, workload, opts.seed, spans),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_fleet_p50_sits_between_its_tenants() {
        // Two fast and two slow tenants: the p50 is between them, not on
        // whichever side the pooled 50 % mark happens to fall.
        let fast = [10.0, 11.0, 12.0];
        let slow = [50.0, 51.0, 52.0];
        assert_eq!(median_session_p50(&[&fast, &slow, &fast, &slow]), 31.0);
        assert_eq!(median_session_p50(&[&fast, &[]]), 11.0);
    }

    #[test]
    fn work_is_sized_from_seconds() {
        assert_eq!(units(15, 3.6), 4);
        assert_eq!(units(15, 12.0), 1);
        assert_eq!(units(1, 12.0), 1);
        assert_eq!(units(30, 5.0), 6);
    }
}
