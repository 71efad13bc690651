//! `map_replicated`: SplaTAM sessions (every frame maps) on one thread,
//! each frame captured into the delta log and shipped over a lossless
//! in-process link to a warm standby that applies it before the next frame.
//! After frame 44 the harness restores a standby pipeline from the
//! follower's replay state (the failover samples, outside frame timing);
//! that standby later re-runs frames 45–59 for the bitwise check, and the
//! session ends with one real `promote()`.

use super::{
    check_session, config, fill_end_to_end, fill_exact, fill_latency_layers, fill_pipeline_layers,
    ms_between, span_median_us, timed_report, timed_setup, units, warm_up, write_trace, EndToEnd,
    Opts, SessionLayers,
};
use crate::inputs::FRAMES;
use crate::metrics::RunResult;
use crate::probe::Probe;
use crate::stats::{median, percentile};
use crate::trace;
use crate::wrappers::{CountingLink, LinkCounters, TracedExtension};
use rtgs::replicate::{
    duplex_pair, DuplexLink, FaultPlan, Follower, ReplicationPolicy, Replicator,
};
use rtgs::runtime::ReplicationStats;
use rtgs::scene::SyntheticDataset;
use rtgs::slam::{
    config_fingerprint, BaseAlgorithm, NoExtension, SlamConfig, SlamPipeline, SlamReport,
};
use rtgs::snapshot::CheckpointLog;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Seconds one replicated 60-frame SplaTAM session takes on the reference
/// host.
const SESSION_SECONDS: f64 = 4.0;

/// The standby is restored once this frame's record has been applied.
const FAILOVER_FRAME: usize = 44;

/// `restore_from_replay` repeats per session.
const FAILOVER_REPEATS: usize = 20;

/// One timed session's samples.
struct Timed {
    /// Step plus replication hops, per frame.
    service_ms: Vec<f64>,
    step_ms: Vec<f64>,
    /// `step()` return → the follower has applied that frame's record.
    lag_ms: Vec<f64>,
    failover_ms: Vec<f64>,
    delta_bytes: Vec<f64>,
    base_bytes: f64,
    /// Wall of the session's frame loop, failover drill and probe excluded.
    wall_s: f64,
    peak_resident_bytes: usize,
    bytes_to_follower: u64,
    bytes_to_primary: u64,
    standby_bytes: usize,
    stats: ReplicationStats,
    records_applied: u64,
    /// Frames 45–59 of the standby restored at frame 44 equal the primary's.
    standby_bitwise: bool,
    promoted_complete: bool,
    /// Full capture, encode, decode + restore at the failover point (ms).
    full_capture_ms: f64,
    encode_ms: f64,
    decode_restore_ms: f64,
    report: SlamReport,
}

/// The primary pipeline, its replicator and the standby's follower, wired
/// over a counted in-process link.
struct Wired<'d> {
    pipeline: SlamPipeline<'d>,
    replicator: Replicator<CountingLink<DuplexLink>>,
    follower: Follower<CountingLink<DuplexLink>>,
    to_follower: Arc<LinkCounters>,
    to_primary: Arc<LinkCounters>,
}

fn wire<'d>(
    index: u32,
    seed: u64,
    cfg: SlamConfig,
    dataset: &'d SyntheticDataset,
    traced: bool,
) -> Wired<'d> {
    let fingerprint = config_fingerprint(&cfg);
    let (primary_end, follower_end) = duplex_pair();
    let (primary_link, to_follower) = CountingLink::new(primary_end);
    let (follower_link, to_primary) = CountingLink::new(follower_end);
    Wired {
        pipeline: if traced {
            SlamPipeline::with_extension(cfg, dataset, TracedExtension::wrap(Box::new(NoExtension)))
        } else {
            SlamPipeline::new(cfg, dataset)
        },
        replicator: Replicator::new(
            primary_link,
            fingerprint,
            ReplicationPolicy::new(),
            FaultPlan::lossless(seed.wrapping_add(u64::from(index))),
        ),
        follower: Follower::new(follower_link, fingerprint),
        to_follower,
        to_primary,
    }
}

fn run_session(
    index: u32,
    seed: u64,
    cfg: SlamConfig,
    dataset: &SyntheticDataset,
    traced: bool,
    mut probe: Option<&mut Probe>,
    report_s: &mut Vec<f64>,
) -> Timed {
    let Wired {
        mut pipeline,
        mut replicator,
        mut follower,
        to_follower,
        to_primary,
    } = wire(index, seed, cfg, dataset, traced);

    let mut service_ms = Vec::with_capacity(FRAMES);
    let mut step_ms = Vec::with_capacity(FRAMES);
    let mut lag_ms = Vec::with_capacity(FRAMES);
    let mut failover_ms = Vec::with_capacity(FAILOVER_REPEATS);
    let mut delta_bytes = Vec::with_capacity(FRAMES);
    let mut base_bytes = 0.0;
    let mut peak_resident_bytes = 0;
    let (mut full_capture_ms, mut encode_ms, mut decode_restore_ms) = (0.0, 0.0, 0.0);
    let mut standby: Option<SlamPipeline<'_>> = None;
    let mut untimed_s = 0.0;
    let begin = Instant::now();
    while !pipeline.is_complete() {
        trace::set_request(index, step_ms.len() as u32);
        let frame_span = trace::span("frame");
        let start = Instant::now();
        let frame = pipeline.step().expect("an incomplete session steps");
        let stepped = Instant::now();
        trace::record("slam.pipeline.step", start, stepped);
        {
            let _s = trace::span("replicate.primary.on_frame");
            replicator
                .on_frame(frame as u64, |log| {
                    let _s = trace::span("slam.snapshot.checkpoint_into");
                    let stats = pipeline.checkpoint_into(log)?;
                    if stats.is_base {
                        base_bytes = stats.bytes as f64;
                    } else {
                        delta_bytes.push(stats.bytes as f64);
                    }
                    Ok(stats)
                })
                .expect("capture and send over a lossless in-process link");
        }
        {
            let _s = trace::span("replicate.follower.pump");
            follower.pump().expect("follower pump");
        }
        let applied = Instant::now();
        {
            let _s = trace::span("replicate.primary.pump");
            replicator.pump().expect("primary pump");
        }
        let end = Instant::now();
        drop(frame_span);
        step_ms.push(ms_between(start, stepped));
        service_ms.push(ms_between(start, end));
        lag_ms.push(ms_between(stepped, applied));
        peak_resident_bytes = peak_resident_bytes.max(pipeline.resident_bytes());

        // Everything below is outside the frame timings and the session's
        // timed wall.
        let pause = Instant::now();
        if frame == FAILOVER_FRAME {
            let replay = follower.standby().expect("the standby is warm by frame 44");
            for _ in 0..FAILOVER_REPEATS {
                let t0 = Instant::now();
                let restored = SlamPipeline::restore_from_replay(cfg, dataset, replay)
                    .expect("the standby state restores");
                failover_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                standby = Some(std::hint::black_box(restored));
            }
            if traced {
                let t0 = Instant::now();
                let log = pipeline.checkpoint().expect("a full capture");
                full_capture_ms = t0.elapsed().as_secs_f64() * 1e3;
                let t0 = Instant::now();
                let bytes = std::hint::black_box(log.encode());
                encode_ms = t0.elapsed().as_secs_f64() * 1e3;
                let t0 = Instant::now();
                let decoded = CheckpointLog::decode(&bytes).expect("the encoded log decodes");
                let restored = SlamPipeline::restore_from(cfg, dataset, &decoded);
                decode_restore_ms = t0.elapsed().as_secs_f64() * 1e3;
                std::hint::black_box(restored.expect("the decoded log restores").scene().len());
            }
        }
        if let Some(probe) = probe.as_deref_mut() {
            probe.iteration(&pipeline, dataset, &cfg, frame);
        }
        untimed_s += pause.elapsed().as_secs_f64();
    }
    let wall_s = begin.elapsed().as_secs_f64() - untimed_s;
    let report = timed_report(&pipeline, report_s);

    // The standby restored at frame 44 continues alone; its frames 45-59
    // must equal the primary's bit for bit.
    let mut standby = standby.expect("the session passed the failover frame");
    while standby.step().is_some() {}
    let replayed = standby.report();
    let standby_bitwise = replayed.trajectory.len() == report.trajectory.len()
        && replayed
            .trajectory
            .iter()
            .zip(&report.trajectory)
            .skip(FAILOVER_FRAME + 1)
            .all(|(a, b)| a.translation == b.translation && a.rotation == b.rotation);

    let stats = replicator.stats();
    let records_applied = follower.records_applied();
    let standby_bytes = follower.standby_bytes();
    // One real failover at the end of the stream.
    let (promoted, _took) = {
        let _s = trace::span("replicate.follower.promote");
        follower
            .promote(cfg, dataset)
            .expect("a warm standby promotes")
    };
    Timed {
        service_ms,
        step_ms,
        lag_ms,
        failover_ms,
        delta_bytes,
        base_bytes,
        wall_s,
        peak_resident_bytes,
        bytes_to_follower: to_follower.bytes_written.load(Ordering::Relaxed),
        bytes_to_primary: to_primary.bytes_written.load(Ordering::Relaxed),
        standby_bytes,
        stats,
        records_applied,
        standby_bitwise,
        promoted_complete: promoted.is_complete(),
        full_capture_ms,
        encode_ms,
        decode_restore_ms,
        report,
    }
}

pub fn run(opts: &Opts) -> RunResult {
    let name = "map_replicated";
    let mut result = RunResult::new(name, opts.seed, opts.traced);
    let sessions = units(opts.seconds, SESSION_SECONDS);
    let cfg = config(BaseAlgorithm::SplaTam, FRAMES);
    warm_up(opts.seed, BaseAlgorithm::SplaTam, None);

    let mut setup_s = Vec::new();
    let datasets: Vec<SyntheticDataset> = (0..sessions)
        .map(|i| {
            timed_setup(opts.seed, i as u64, &mut setup_s, |dataset| {
                let wired = wire(i as u32, opts.seed, cfg, dataset, false);
                std::hint::black_box(wired.pipeline.planned_frames());
            })
        })
        .collect();
    let mut report_s = Vec::new();

    let mut untraced_wall_s = 0.0;
    if opts.traced {
        let mut scratch = Vec::new();
        untraced_wall_s =
            run_session(0, opts.seed, cfg, &datasets[0], false, None, &mut scratch).wall_s;
    }

    trace::set_enabled(opts.traced);
    let mut probes: Vec<Probe> = (0..sessions).map(|_| Probe::new()).collect();
    let timed: Vec<Timed> = datasets
        .iter()
        .zip(probes.iter_mut())
        .enumerate()
        .map(|(i, (dataset, probe))| {
            let probe = opts.traced.then_some(probe);
            run_session(
                i as u32,
                opts.seed,
                cfg,
                dataset,
                opts.traced,
                probe,
                &mut report_s,
            )
        })
        .collect();
    trace::set_enabled(false);
    let spans = trace::take();

    let mut unreplicated = 0u64;
    for (i, t) in timed.iter().enumerate() {
        let label = format!("session {i}");
        check_session(&mut result, &label, &t.report, FRAMES);
        result.check(
            format!("{label}: records_applied = records_sent"),
            t.records_applied == t.stats.records_sent
                && t.stats.records_acked == t.stats.records_sent,
            format!(
                "applied {} acked {} sent {}",
                t.records_applied, t.stats.records_acked, t.stats.records_sent
            ),
        );
        let covered = t.stats.frames_replicated + t.stats.frames_dropped_by_policy;
        result.check(
            format!("{label}: frames_processed = replicated + dropped_by_policy"),
            t.report.frames_processed as u64 == covered,
            format!("{} vs {covered}", t.report.frames_processed),
        );
        unreplicated += (t.report.frames_processed as u64).saturating_sub(covered);
        result.check(
            format!("{label}: lossless link needs no retransmit or resync"),
            t.stats.retransmits == 0 && t.stats.resyncs == 0,
            format!(
                "{} retransmits, {} resyncs",
                t.stats.retransmits, t.stats.resyncs
            ),
        );
        result.check(
            format!("{label}: standby restored at frame {FAILOVER_FRAME} replays 45-59 bitwise"),
            t.standby_bitwise,
            "translation and rotation",
        );
        result.check(
            format!("{label}: promote() resumes at the end of the stream"),
            t.promoted_complete,
            "all planned frames processed",
        );
    }
    result.attempted = (sessions * FRAMES) as u64;
    result.failed = unreplicated
        + timed
            .iter()
            .map(|t| (FRAMES - t.report.frames_processed.min(FRAMES)) as u64)
            .sum::<u64>();

    let reports: Vec<&SlamReport> = timed.iter().map(|t| &t.report).collect();
    let peaks: Vec<usize> = timed.iter().map(|t| t.peak_resident_bytes).collect();
    let service: Vec<f64> = timed
        .iter()
        .flat_map(|t| t.service_ms.iter().copied())
        .collect();
    let frames = (sessions * FRAMES) as f64;
    let wire_bytes: u64 = timed
        .iter()
        .map(|t| t.bytes_to_follower + t.bytes_to_primary)
        .sum();
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

        let collect = |f: &dyn Fn(&Timed) -> &[f64]| -> Vec<f64> {
            timed.iter().flat_map(|t| f(t).iter().copied()).collect()
        };
        let own = trace::self_times_ns(&spans);
        result.set(
            "slam.snapshot.checkpoint_into_us",
            span_median_us(&spans, "slam.snapshot.checkpoint_into"),
        );
        result.set(
            "snapshot.checkpoint.delta_bytes_per_frame",
            median(&collect(&|t| &t.delta_bytes)),
        );
        let of = |f: fn(&Timed) -> f64| median(&timed.iter().map(f).collect::<Vec<f64>>());
        result.set("snapshot.checkpoint.base_bytes", of(|t| t.base_bytes));
        result.set(
            "snapshot.checkpoint.full_capture_ms",
            of(|t| t.full_capture_ms),
        );
        result.set("snapshot.checkpoint.encode_ms", of(|t| t.encode_ms));
        result.set(
            "snapshot.checkpoint.decode_restore_ms",
            of(|t| t.decode_restore_ms),
        );
        result.set(
            "replicate.primary.on_frame_self_us",
            median(&trace::self_us(&spans, &own, "replicate.primary.on_frame")),
        );
        result.set(
            "replicate.primary.pump_us",
            span_median_us(&spans, "replicate.primary.pump"),
        );
        result.set(
            "replicate.transport.write_us",
            span_median_us(&spans, "replicate.transport.write"),
        );
        result.set(
            "replicate.follower.pump_us",
            span_median_us(&spans, "replicate.follower.pump"),
        );
        let to_follower: u64 = timed.iter().map(|t| t.bytes_to_follower).sum();
        let to_primary: u64 = timed.iter().map(|t| t.bytes_to_primary).sum();
        result.set(
            "replicate.transport.bytes_to_follower_per_frame",
            to_follower as f64 / frames,
        );
        result.set(
            "replicate.transport.bytes_to_primary_per_frame",
            to_primary as f64 / frames,
        );
        result.set(
            "replicate.follower.standby_mb",
            of(|t| t.standby_bytes as f64 / 1e6),
        );
        result.set(
            "replicate.primary.retransmits",
            timed.iter().map(|t| t.stats.retransmits).sum::<u64>() as f64,
        );
        result.set(
            "replicate.primary.resyncs",
            timed.iter().map(|t| t.stats.resyncs).sum::<u64>() as f64,
        );
        let step: f64 = timed.iter().flat_map(|t| &t.step_ms).sum();
        result.set(
            "replicate.share_of_frame",
            1.0 - step / service.iter().sum::<f64>(),
        );
        result.set("replicate.wire_bytes_per_frame", wire_bytes as f64 / frames);
        result.set(
            "replicate.standby_lag_p50_ms",
            percentile(&collect(&|t| &t.lag_ms), 0.5),
        );
        result.set(
            "replicate.failover_p50_ms",
            percentile(&collect(&|t| &t.failover_ms), 0.5),
        );
        write_trace(name, opts, &spans);
    } else {
        let per_session: Vec<&[f64]> = timed.iter().map(|t| t.service_ms.as_slice()).collect();
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
    result.exact.push(("wire_bytes", wire_bytes as f64));
    result
}
