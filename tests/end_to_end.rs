//! Cross-crate integration tests: the full RTGS stack from dataset
//! synthesis through SLAM, the RTGS algorithm, and the hardware models.

use rtgs::accel::{simulate_run, HardwareModel, RunWorkload, TraceRecorder};
use rtgs::core::RtgsConfig;
use rtgs::math::Se3;
use rtgs::scene::{DatasetProfile, SyntheticDataset};
use rtgs::slam::{
    BaseAlgorithm, NoExtension, PipelineExtension, SlamConfig, SlamPipeline, SlamReport,
};
use rtgs::snapshot::encode_scene;

fn quick_config(algo: BaseAlgorithm, frames: usize) -> SlamConfig {
    let mut cfg = SlamConfig::for_algorithm(algo).with_frames(frames);
    cfg.tracking.iterations = 4;
    cfg.mapping_iterations = 5;
    cfg
}

#[test]
fn full_stack_base_vs_rtgs() {
    let ds = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), 5);
    let cfg = quick_config(BaseAlgorithm::MonoGs, 5);
    let base = SlamPipeline::new(cfg, &ds).run();
    let ours = SlamPipeline::with_extension(cfg, &ds, RtgsConfig::full().into_extension()).run();

    assert_eq!(base.frames_processed, 5);
    assert_eq!(ours.frames_processed, 5);
    // The RTGS algorithm must not blow up quality on a short sequence.
    assert!(ours.ate.rmse < base.ate.rmse * 2.0 + 0.05);
    // And it must reduce tracked work (fragments) overall.
    let work = |r: &SlamReport| -> u64 { r.frames.iter().map(|f| f.tracking_fragments).sum() };
    assert!(work(&ours) <= work(&base));
}

type Extension = Box<dyn PipelineExtension + Send>;

/// Runs `cfg` with `extension`, wrapped in a [`TraceRecorder`] when
/// `record`; returns the finished pipeline, its report and what the
/// recorder recorded.
fn run_recorded<'d>(
    cfg: SlamConfig,
    ds: &'d SyntheticDataset,
    extension: Extension,
    record: bool,
) -> (SlamPipeline<'d>, SlamReport, Option<RunWorkload>) {
    let (extension, run) = if record {
        let (recorder, run) = TraceRecorder::new(extension);
        (
            Box::new(recorder) as Box<dyn PipelineExtension + Send>,
            Some(run),
        )
    } else {
        (extension, None)
    };
    let mut pipeline = SlamPipeline::with_extension(cfg, ds, extension);
    let report = pipeline.run();
    let run = run.map(|run| std::mem::take(&mut *run.lock().unwrap()));
    (pipeline, report, run)
}

#[test]
fn traces_flow_into_hardware_simulation() {
    let ds = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), 4);
    let cfg = quick_config(BaseAlgorithm::GsSlam, 4);
    let (_, _, run) = run_recorded(cfg, &ds, Box::new(NoExtension), true);
    let run = run.unwrap();
    assert!(run.frames.iter().any(|f| !f.tracking.is_empty()));

    let onx = simulate_run(&run, &HardwareModel::onx(), true);
    let rtgs = simulate_run(&run, &HardwareModel::rtgs(), true);
    assert!(onx.overall_fps > 0.0);
    assert!(rtgs.overall_fps > onx.overall_fps, "plug-in must win");
    assert!(rtgs.energy_per_frame_j < onx.energy_per_frame_j);
}

/// Recording a session's traces changes nothing it computes or persists:
/// the same trajectory, quality, final map and checkpoint records, bit for
/// bit, for a base session and an RTGS one (whose pruning and downsampling
/// both engage on the small Replica analog).
#[test]
fn recorded_session_is_the_same_session() {
    let frames = 5;
    let ds = SyntheticDataset::generate(DatasetProfile::replica_analog().small(), frames);
    let mut cfg = SlamConfig::for_algorithm(BaseAlgorithm::MonoGs).with_frames(frames);
    cfg.tracking.iterations = 6;
    cfg.mapping_iterations = 4;
    let pose_bits = |p: &Se3| {
        let (q, t) = (p.rotation, p.translation);
        [q.w, q.x, q.y, q.z, t.x, t.y, t.z].map(f32::to_bits)
    };
    for name in ["base", "rtgs"] {
        let extension = || -> Extension {
            match name {
                "rtgs" => RtgsConfig::full().into_extension(),
                _ => Box::new(NoExtension),
            }
        };
        let (bare, bare_report, _) = run_recorded(cfg, &ds, extension(), false);
        let (recorded, report, run) = run_recorded(cfg, &ds, extension(), true);
        let poses = |r: &SlamReport| r.trajectory.iter().map(pose_bits).collect::<Vec<_>>();
        assert_eq!(poses(&report), poses(&bare_report), "{name}: trajectory");
        assert_eq!(
            report.ate.rmse.to_bits(),
            bare_report.ate.rmse.to_bits(),
            "{name}: ATE"
        );
        assert_eq!(
            report.mean_psnr.to_bits(),
            bare_report.mean_psnr.to_bits(),
            "{name}: PSNR"
        );
        assert!(
            encode_scene(recorded.scene()) == encode_scene(bare.scene()),
            "{name}: final map"
        );
        let (bare_log, log) = (bare.checkpoint().unwrap(), recorded.checkpoint().unwrap());
        assert!(
            log.base_bytes() == bare_log.base_bytes(),
            "{name}: checkpoint base"
        );
        assert!(log.encode() == bare_log.encode(), "{name}: checkpoint log");
        assert_eq!(run.unwrap().frames.len(), frames, "{name}");
        if name == "rtgs" {
            assert!(report.frames.iter().any(|f| f.resolution_factor > 1));
            let (first, last) = (&report.frames[0], report.frames.last().unwrap());
            assert!(last.gaussians < first.gaussians, "pruning tombstoned");
        }
    }
}

#[test]
fn deterministic_end_to_end() {
    let ds_a = SyntheticDataset::generate(DatasetProfile::replica_analog().tiny(), 3);
    let ds_b = SyntheticDataset::generate(DatasetProfile::replica_analog().tiny(), 3);
    let cfg = quick_config(BaseAlgorithm::MonoGs, 3);
    let a = SlamPipeline::new(cfg, &ds_a).run();
    let b = SlamPipeline::new(cfg, &ds_b).run();
    assert_eq!(a.ate.rmse, b.ate.rmse, "whole stack must be deterministic");
    assert_eq!(a.peak_gaussians, b.peak_gaussians);
    for (pa, pb) in a.trajectory.iter().zip(b.trajectory.iter()) {
        assert_eq!(pa.translation, pb.translation);
    }
}

#[test]
fn all_four_algorithms_complete() {
    let ds = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), 3);
    for algo in BaseAlgorithm::all() {
        let report = SlamPipeline::new(quick_config(algo, 3), &ds).run();
        assert_eq!(report.frames_processed, 3, "{} failed", algo.name());
        assert!(report.mean_psnr > 5.0, "{} produced garbage", algo.name());
    }
}

#[test]
fn splatam_has_most_keyframes() {
    let ds = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), 5);
    let splatam = SlamPipeline::new(quick_config(BaseAlgorithm::SplaTam, 5), &ds).run();
    let monogs = SlamPipeline::new(quick_config(BaseAlgorithm::MonoGs, 5), &ds).run();
    assert!(splatam.keyframes >= monogs.keyframes);
    assert_eq!(splatam.keyframes, 5);
}

#[test]
fn rtgs_prunes_and_downsamples() {
    let ds = SyntheticDataset::generate(DatasetProfile::replica_analog().tiny(), 6);
    let cfg = quick_config(BaseAlgorithm::MonoGs, 6);
    let ours = SlamPipeline::with_extension(cfg, &ds, RtgsConfig::full().into_extension()).run();
    // Downsampling: at least one non-keyframe tracked below native res
    // (the tiny profile may clamp, so accept factor >= 1 but expect the
    // schedule to have been consulted).
    assert!(ours.frames.iter().any(|f| !f.is_keyframe));
    // Frame reports carry the factor used.
    for f in &ours.frames {
        assert!(f.resolution_factor >= 1);
    }
}
