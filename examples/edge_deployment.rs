//! Edge deployment study: will a robot's onboard computer hit 30 FPS?
//!
//! Models the paper's headline scenario — a robotic-navigation SLAM stack
//! on an ONX-class edge GPU — and asks whether the RTGS plug-in closes the
//! real-time gap. Runs the SLAM pipeline once to capture real workload
//! traces, then simulates four hardware configurations (Fig. 15).
//!
//! ```bash
//! cargo run --release --example edge_deployment
//! ```

use rtgs::accel::{simulate_run, HardwareModel, RunWorkload, TraceRecorder};
use rtgs::core::RtgsConfig;
use rtgs::scene::{DatasetProfile, SyntheticDataset};
use rtgs::slam::{BaseAlgorithm, NoExtension, PipelineExtension, SlamConfig, SlamPipeline};

/// Runs the configured session with `extension` wrapped in a trace
/// recorder; returns the workload it recorded.
fn record(
    config: SlamConfig,
    dataset: &SyntheticDataset,
    extension: Box<dyn PipelineExtension + Send>,
) -> RunWorkload {
    let (recorder, run) = TraceRecorder::new(extension);
    SlamPipeline::with_extension(config, dataset, Box::new(recorder)).run();
    let run = std::mem::take(&mut *run.lock().expect("the trace recorder panicked"));
    run
}

fn main() {
    let frames = 8;
    let dataset = SyntheticDataset::generate(DatasetProfile::scannet_analog().small(), frames);

    let mut config = SlamConfig::for_algorithm(BaseAlgorithm::GsSlam).with_frames(frames);
    config.tracking.iterations = 6;
    config.mapping_iterations = 8;

    println!("Capturing workload traces (GS-SLAM on ScanNet-analog)...");
    let base_run = record(config, &dataset, Box::new(NoExtension));
    let ours_run = record(config, &dataset, RtgsConfig::full().into_extension());

    println!("\nSimulated deployment options:");
    println!(
        "{:<34}{:>10}{:>14}{:>12}",
        "configuration", "FPS", "energy/frame", "real-time?"
    );
    println!("{:-<70}", "");
    let configs: [(&str, HardwareModel, &RunWorkload); 4] = [
        ("ONX edge GPU", HardwareModel::onx(), &base_run),
        ("ONX + DISTWAR", HardwareModel::onx_distwar(), &base_run),
        (
            "ONX + RTGS (tracking only)",
            HardwareModel::rtgs(),
            &ours_run,
        ),
        ("ONX + RTGS (full)", HardwareModel::rtgs(), &ours_run),
    ];
    for (i, (name, hw, run)) in configs.iter().enumerate() {
        let include_mapping = i != 2;
        let cost = simulate_run(run, hw, include_mapping);
        println!(
            "{:<34}{:>10.1}{:>12.2}mJ{:>12}",
            name,
            cost.overall_fps,
            cost.energy_per_frame_j * 1e3,
            if cost.overall_fps >= 30.0 {
                "yes"
            } else {
                "no"
            }
        );
    }
    println!(
        "\nNote: FPS is modeled on this repo's 1/16-resolution dataset analogs; the\n\
         paper's absolute numbers differ, but the configuration ordering and the\n\
         real-time verdict are the reproduction target (Fig. 15)."
    );
}
