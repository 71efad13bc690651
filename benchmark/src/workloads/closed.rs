//! `track_closed` and `rtgs_closed`: MonoGS sessions back to back on one
//! thread, closed loop — without and with the RTGS extension, on the same
//! inputs, so the two rows compare at equal inputs, quality included.

use super::{
    check_session, config, fill_end_to_end, fill_exact, fill_extension_layers, fill_latency_layers,
    fill_pipeline_layers, ms_between, timed_report, timed_setup, units, warm_up, write_trace,
    EndToEnd, Opts, SessionLayers,
};
use crate::inputs::FRAMES;
use crate::metrics::RunResult;
use crate::probe::Probe;
use crate::stats::mean;
use crate::trace;
use crate::wrappers::TracedExtension;
use rtgs::core::RtgsConfig;
use rtgs::scene::SyntheticDataset;
use rtgs::slam::{
    BaseAlgorithm, NoExtension, PipelineExtension, SlamConfig, SlamPipeline, SlamReport,
};
use std::time::Instant;

/// Seconds one 60-frame base MonoGS session takes on the reference host.
/// Both workloads are sized by it so they run the same inputs.
const SESSION_SECONDS: f64 = 3.6;

/// One timed session's samples.
struct Timed {
    step_ms: Vec<f64>,
    /// Wall of the session's frame loop, probe iterations excluded.
    wall_s: f64,
    peak_resident_bytes: usize,
    report: SlamReport,
}

fn extension(rtgs: bool, traced: bool) -> Box<dyn PipelineExtension + Send> {
    let inner: Box<dyn PipelineExtension + Send> = if rtgs {
        RtgsConfig::full().into_extension()
    } else {
        Box::new(NoExtension)
    };
    if traced {
        TracedExtension::wrap(inner)
    } else {
        inner
    }
}

/// Steps one session to completion, timing every frame; on a traced run a
/// probe iteration follows each frame.
fn run_session(
    index: u32,
    cfg: SlamConfig,
    dataset: &SyntheticDataset,
    ext: Box<dyn PipelineExtension + Send>,
    mut probe: Option<&mut Probe>,
    report_s: &mut Vec<f64>,
) -> Timed {
    let mut pipeline = SlamPipeline::with_extension(cfg, dataset, ext);
    let mut step_ms = Vec::with_capacity(FRAMES);
    let mut peak = 0usize;
    let mut probe_s = 0.0;
    let begin = Instant::now();
    while !pipeline.is_complete() {
        trace::set_request(index, step_ms.len() as u32);
        let _frame = trace::span("frame");
        let start = Instant::now();
        let frame = std::hint::black_box(pipeline.step()).expect("an incomplete session steps");
        let end = Instant::now();
        trace::record("slam.pipeline.step", start, end);
        step_ms.push(ms_between(start, end));
        peak = peak.max(pipeline.resident_bytes());
        if let Some(probe) = probe.as_deref_mut() {
            let pause = Instant::now();
            probe.iteration(&pipeline, dataset, &cfg, frame);
            probe_s += pause.elapsed().as_secs_f64();
        }
    }
    let wall_s = begin.elapsed().as_secs_f64() - probe_s;
    Timed {
        step_ms,
        wall_s,
        peak_resident_bytes: peak,
        report: timed_report(&pipeline, report_s),
    }
}

pub fn run(rtgs: bool, opts: &Opts) -> RunResult {
    let name = if rtgs { "rtgs_closed" } else { "track_closed" };
    let mut result = RunResult::new(name, opts.seed, opts.traced);
    let sessions = units(opts.seconds, SESSION_SECONDS);
    let cfg = config(BaseAlgorithm::MonoGs, FRAMES);
    warm_up(
        opts.seed,
        BaseAlgorithm::MonoGs,
        Some(extension(rtgs, false)),
    );

    let mut setup_s = Vec::new();
    let datasets: Vec<SyntheticDataset> = (0..sessions)
        .map(|i| {
            timed_setup(opts.seed, i as u64, &mut setup_s, |dataset| {
                let ext = extension(rtgs, false);
                std::hint::black_box(
                    SlamPipeline::with_extension(cfg, dataset, ext).planned_frames(),
                );
            })
        })
        .collect();
    let mut report_s = Vec::new();

    // Traced runs first repeat session 0 untraced: its wall against the
    // traced wall of the same session is the harness's own overhead. On
    // rtgs_closed the base pipeline runs the same input too.
    let mut untraced_wall_s = 0.0;
    let mut base: Option<Timed> = None;
    if opts.traced {
        let mut scratch = Vec::new();
        untraced_wall_s = run_session(
            0,
            cfg,
            &datasets[0],
            extension(rtgs, false),
            None,
            &mut scratch,
        )
        .wall_s;
        if rtgs {
            let ext = extension(false, false);
            base = Some(run_session(0, cfg, &datasets[0], ext, None, &mut scratch));
        }
    }

    trace::set_enabled(opts.traced);
    let mut probes: Vec<Probe> = (0..sessions).map(|_| Probe::new()).collect();
    let timed: Vec<Timed> = datasets
        .iter()
        .zip(probes.iter_mut())
        .enumerate()
        .map(|(i, (dataset, probe))| {
            let ext = extension(rtgs, opts.traced);
            let probe = opts.traced.then_some(probe);
            run_session(i as u32, cfg, dataset, ext, probe, &mut report_s)
        })
        .collect();
    trace::set_enabled(false);
    let spans = trace::take();

    for (i, t) in timed.iter().enumerate() {
        check_session(&mut result, &format!("session {i}"), &t.report, FRAMES);
    }
    result.attempted = (sessions * FRAMES) as u64;
    result.failed = timed
        .iter()
        .map(|t| (FRAMES - t.report.frames_processed.min(FRAMES)) as u64)
        .sum();

    let reports: Vec<&SlamReport> = timed.iter().map(|t| &t.report).collect();
    let peaks: Vec<usize> = timed.iter().map(|t| t.peak_resident_bytes).collect();
    let service: Vec<f64> = timed
        .iter()
        .flat_map(|t| t.step_ms.iter().copied())
        .collect();
    if opts.traced {
        let layers: Vec<SessionLayers<'_>> = timed
            .iter()
            .map(|t| SessionLayers {
                report: &t.report,
                step_ms: &t.step_ms,
                mapping_iterations: cfg.mapping_iterations,
            })
            .collect();
        let probes: Vec<&Probe> = probes.iter().collect();
        fill_pipeline_layers(&mut result, &spans, &layers, &probes, &setup_s, &report_s);
        fill_latency_layers(&mut result, &service, None);
        result.set(
            "telemetry.harness_trace_overhead_share",
            timed[0].wall_s / untraced_wall_s - 1.0,
        );
        if let Some(base) = &base {
            let step_total_ms: f64 = timed.iter().flat_map(|t| &t.step_ms).sum();
            fill_extension_layers(&mut result, &spans, step_total_ms);
            let factor: Vec<f64> = reports
                .iter()
                .flat_map(|r| r.frames.iter().skip(1))
                .map(|f| f.resolution_factor as f64)
                .collect();
            result.set("core.downsample.mean_factor", mean(&factor));
            // Same scene, same frame: live Gaussians with pruning over
            // live Gaussians without.
            let ratio: Vec<f64> = timed[0]
                .report
                .frames
                .iter()
                .zip(&base.report.frames)
                .map(|(ours, base)| ours.gaussians as f64 / base.gaussians.max(1) as f64)
                .collect();
            result.set("core.pruning.live_ratio", mean(&ratio));
            result.set("core.speedup_vs_base", base.wall_s / untraced_wall_s);
        }
        write_trace(name, opts, &spans);
    } else {
        let per_session: Vec<&[f64]> = timed.iter().map(|t| t.step_ms.as_slice()).collect();
        fill_end_to_end(
            &mut result,
            &EndToEnd {
                setup_s: &setup_s,
                frames_completed: reports.iter().map(|r| r.frames_processed).sum(),
                timed_s: timed.iter().map(|t| t.wall_s).sum(),
                service_ms: &per_session,
                reports: &reports,
                session_peak_bytes: &peaks,
            },
        );
    }
    fill_exact(&mut result, &reports, &peaks);
    result
}
