//! Integration test: the hardware model's speedup cascade on *real* SLAM
//! traces must reproduce the paper's qualitative shape (Fig. 15, Fig. 17b):
//! every RTGS technique contributes speedup, DISTWAR helps but far less
//! than the plug-in, and the full design wins decisively in both FPS and
//! energy.

use rtgs_accel::*;
use rtgs_scene::{DatasetProfile, SyntheticDataset};
use rtgs_slam::{BaseAlgorithm, NoExtension, SlamConfig, SlamPipeline};

fn real_run() -> RunWorkload {
    let ds = SyntheticDataset::generate(DatasetProfile::replica_analog(), 6);
    let mut cfg = SlamConfig::for_algorithm(BaseAlgorithm::MonoGs).with_frames(6);
    cfg.tracking.iterations = 5;
    cfg.mapping_iterations = 6;
    let (recorder, run) = TraceRecorder::new(Box::new(NoExtension));
    SlamPipeline::with_extension(cfg, &ds, Box::new(recorder)).run();
    let run = std::mem::take(&mut *run.lock().expect("the trace recorder panicked"));
    run
}

fn plugin(scheduling: Scheduling, rb: bool, agg: Aggregation) -> HardwareModel {
    HardwareModel::Plugin {
        config: PluginConfig {
            arch: ArchConfig::paper(),
            scheduling,
            rb_buffer: rb,
            aggregation: agg,
        },
        node: TechNode::N28,
        host: GpuSpec::onx(),
        power_w: DeviceSpec::rtgs(TechNode::N28).power_w,
    }
}

#[test]
fn speedup_cascade_matches_paper_shape() {
    let run = real_run();

    let onx = simulate_run(&run, &HardwareModel::onx(), true);
    let distwar = simulate_run(&run, &HardwareModel::onx_distwar(), true);
    let bare = simulate_run(
        &run,
        &plugin(Scheduling::Static, false, Aggregation::Atomic),
        true,
    );
    let with_gmu = simulate_run(
        &run,
        &plugin(Scheduling::Static, false, Aggregation::Gmu),
        true,
    );
    let with_rb = simulate_run(
        &run,
        &plugin(Scheduling::Static, true, Aggregation::Gmu),
        true,
    );
    let full = simulate_run(
        &run,
        &plugin(Scheduling::StreamingPaired, true, Aggregation::Gmu),
        true,
    );

    // DISTWAR accelerates aggregation only: real but bounded gain.
    let distwar_gain = distwar.overall_fps / onx.overall_fps;
    assert!(
        distwar_gain > 1.2 && distwar_gain < 6.0,
        "DISTWAR gain {distwar_gain:.2}x out of the plausible band"
    );

    // Every RTGS technique adds speedup on top of the previous (Fig. 17b).
    assert!(
        bare.overall_fps >= 0.85 * onx.overall_fps,
        "bare plugin collapsed"
    );
    assert!(
        with_gmu.overall_fps > 1.2 * bare.overall_fps,
        "GMU step missing"
    );
    assert!(
        with_rb.overall_fps > 1.3 * with_gmu.overall_fps,
        "R&B step missing"
    );
    assert!(
        full.overall_fps > 1.1 * with_rb.overall_fps,
        "WSU step missing"
    );

    // The full hardware clearly outperforms both GPU configurations.
    assert!(full.overall_fps > 4.0 * onx.overall_fps);
    assert!(full.overall_fps > 2.0 * distwar.overall_fps);

    // Energy efficiency (Fig. 15b): the plug-in wins by a large factor.
    let energy_gain = onx.energy_per_frame_j / full.energy_per_frame_j;
    assert!(energy_gain > 4.0, "energy gain only {energy_gain:.1}x");
}

#[test]
fn gauspu_comparison_shape() {
    // Tab. 7 / Fig. 16: both plug-ins beat the bare RTX 3090 on tracking.
    let run = real_run();
    let rtx = simulate_run(&run, &HardwareModel::rtx3090(), false);
    let gauspu = simulate_run(&run, &HardwareModel::gauspu(), false);
    let ours = simulate_run(&run, &HardwareModel::rtgs_on_rtx3090(), false);
    assert!(gauspu.tracking_fps > rtx.tracking_fps);
    assert!(ours.tracking_fps > rtx.tracking_fps);
}

#[test]
fn tracking_only_mode_reports_consistently() {
    let run = real_run();
    let partial = simulate_run(&run, &HardwareModel::rtgs(), false);
    let full = simulate_run(&run, &HardwareModel::rtgs(), true);
    assert!(full.overall_fps >= partial.overall_fps);
    assert!(partial.tracking_fps > partial.overall_fps);
}
