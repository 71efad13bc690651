//! Hardware-side experiments: Fig. 15 (end-to-end FPS + energy), Fig. 16
//! (GauSPU comparison per Replica scene), Fig. 17 (ablations) and
//! Tab. 4/5 (configuration tables).

use crate::common::{dataset, f, run_traced, Scale, Table, Variant};
use rtgs_accel::{
    imbalance_factor, simulate_run, Aggregation, ArchConfig, DeviceSpec, GpuSpec, HardwareModel,
    MemoryConfig, PluginConfig, RunWorkload, Scheduling, TechNode,
};
use rtgs_scene::DatasetProfile;
use rtgs_slam::BaseAlgorithm;

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

/// Fig. 15: (a) end-to-end FPS for ONX / DISTWAR / Ours-tracking-only /
/// Ours-full; (b) energy-efficiency improvement.
pub fn fig15(scale: Scale) -> String {
    let mut out = String::from("Fig. 15(a): end-to-end FPS by hardware configuration\n");
    let mut table = Table::new(&[
        "algorithm",
        "dataset",
        "ONX",
        "DISTWAR",
        "Ours w/o map",
        "Ours full",
        "speedup",
    ]);
    let mut energy = Table::new(&["algorithm", "dataset", "energy-eff. gain"]);
    let profiles = [
        DatasetProfile::tum_analog(),
        DatasetProfile::replica_analog(),
        DatasetProfile::scannet_analog(),
        DatasetProfile::scannetpp_analog(),
    ];
    for (pi, profile) in profiles.iter().enumerate() {
        // Fig. 15(a) uses three datasets; (b) all four.
        let ds = dataset(scale.profile(profile.clone()), scale.frames());
        for algo in BaseAlgorithm::keyframe_based() {
            let (_, base_run) = run_traced(algo, &ds, scale, Variant::Base);
            let (_, ours_run) = run_traced(algo, &ds, scale, Variant::Ours);

            let onx = simulate_run(&base_run, &HardwareModel::onx(), true);
            let dw = simulate_run(&base_run, &HardwareModel::onx_distwar(), true);
            let part = simulate_run(&ours_run, &HardwareModel::rtgs(), false);
            let full = simulate_run(&ours_run, &HardwareModel::rtgs(), true);
            if pi < 3 {
                table.row(vec![
                    algo.name().into(),
                    ds.profile.name.clone(),
                    f(onx.overall_fps, 1),
                    f(dw.overall_fps, 1),
                    f(part.overall_fps, 1),
                    f(full.overall_fps, 1),
                    f(full.overall_fps / onx.overall_fps, 1) + "x",
                ]);
            }
            energy.row(vec![
                algo.name().into(),
                ds.profile.name.clone(),
                f(onx.energy_per_frame_j / full.energy_per_frame_j, 1) + "x",
            ]);
        }
    }
    out.push_str(&table.render());
    out.push_str("\nFig. 15(b): energy-efficiency improvement over the ONX baseline\n");
    out.push_str(&energy.render());
    out.push_str("\nExpected shape (paper): RTGS full >= 30 FPS everywhere; DISTWAR helps but\nstays below real time; energy-efficiency gains of tens of x.\n");
    out
}

/// Fig. 16: per-Replica-scene tracking FPS and peak Gaussian memory —
/// RTX 3090 vs GauSPU vs Ours.
pub fn fig16(scale: Scale) -> String {
    let mut out = String::from("Fig. 16: SplaTAM per Replica scene — RTX 3090 / GauSPU / Ours\n");
    let mut table = Table::new(&[
        "scene",
        "RTX FPS",
        "GauSPU FPS",
        "Ours FPS",
        "RTX mem(MB)",
        "Ours mem(MB)",
    ]);
    let names = DatasetProfile::replica_analog().scene_names();
    let scenes = match scale {
        Scale::Quick => 3usize,
        Scale::Full => names.len(),
    };
    #[allow(clippy::needless_range_loop)]
    for variant in 0..scenes {
        let profile = scale.profile(DatasetProfile::replica_analog());
        let ds = rtgs_scene::SyntheticDataset::generate_scene_variant(
            profile,
            scale.frames(),
            variant as u64,
        );
        let (base, base_run) = run_traced(BaseAlgorithm::SplaTam, &ds, scale, Variant::Base);
        let (ours, ours_run) = run_traced(BaseAlgorithm::SplaTam, &ds, scale, Variant::Ours);
        let rtx = simulate_run(&base_run, &HardwareModel::rtx3090(), true);
        let gauspu = simulate_run(&base_run, &HardwareModel::gauspu(), true);
        let ours_hw = simulate_run(&ours_run, &HardwareModel::rtgs_on_rtx3090(), true);
        table.row(vec![
            names[variant].to_string(),
            f(rtx.tracking_fps, 1),
            f(gauspu.tracking_fps, 1),
            f(ours_hw.tracking_fps, 1),
            f(base.peak_param_bytes as f64 / 1e6, 2),
            f(ours.peak_param_bytes as f64 / 1e6, 2),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(crate::algorithm::SPLATAM_SHAPE_NOTE);
    out
}

/// Fig. 17: (a) workload-imbalance mitigation ablation; (b) cumulative
/// technique speedup breakdown.
pub fn fig17(scale: Scale) -> String {
    let ds = dataset(
        scale.profile(DatasetProfile::replica_analog()),
        scale.frames(),
    );
    let (_, base_run) = run_traced(BaseAlgorithm::MonoGs, &ds, scale, Variant::Base);

    // (a) imbalance factors from a real mid-run trace pair.
    let mut out = String::from("Fig. 17(a): workload-imbalance ablation (achieved/ideal cycles)\n");
    let mut table = Table::new(&["scheduling", "imbalance factor (1.0 = ideal)"]);
    let traces: Vec<_> = base_run
        .frames
        .iter()
        .flat_map(|fr| fr.tracking.iter())
        .collect();
    if traces.len() >= 2 {
        let (prev, now) = (traces[traces.len() - 2], traces[traces.len() - 1]);
        for (name, sched) in [
            ("static (unbalanced)", Scheduling::Static),
            ("subtile streaming", Scheduling::Streaming),
            ("streaming + pairwise (WSU)", Scheduling::StreamingPaired),
            ("ideal", Scheduling::Ideal),
        ] {
            table.row(vec![
                name.into(),
                f(imbalance_factor(now, Some(prev), sched), 3),
            ]);
        }
    }
    out.push_str(&table.render());

    // (b) cumulative technique breakdown.
    out.push_str("\nFig. 17(b): cumulative speedup breakdown over the ONX baseline\n");
    let mut table = Table::new(&["configuration", "FPS", "step speedup", "cumulative"]);
    let onx = simulate_run(&base_run, &HardwareModel::onx(), true);
    let mut prev_fps = onx.overall_fps;
    table.row(vec![
        "GPU baseline (ONX)".into(),
        f(onx.overall_fps, 1),
        "-".into(),
        "1.0x".into(),
    ]);
    let steps: Vec<(&str, HardwareModel, &RunWorkload)> = vec![
        (
            "w/ Pipeline (bare plug-in)",
            plugin(Scheduling::Static, false, Aggregation::Atomic),
            &base_run,
        ),
        (
            "w/ GMU",
            plugin(Scheduling::Static, false, Aggregation::Gmu),
            &base_run,
        ),
        (
            "w/ R&B Buffer",
            plugin(Scheduling::Static, true, Aggregation::Gmu),
            &base_run,
        ),
        (
            "w/ WSU",
            plugin(Scheduling::StreamingPaired, true, Aggregation::Gmu),
            &base_run,
        ),
    ];
    for (name, hw, run) in steps {
        let cost = simulate_run(run, &hw, true);
        table.row(vec![
            name.into(),
            f(cost.overall_fps, 1),
            f(cost.overall_fps / prev_fps, 2) + "x",
            f(cost.overall_fps / onx.overall_fps, 2) + "x",
        ]);
        prev_fps = cost.overall_fps;
    }
    // Algorithm steps change the workload itself.
    let (_, pruned) = run_traced(BaseAlgorithm::MonoGs, &ds, scale, Variant::Ours);
    let full_hw = plugin(Scheduling::StreamingPaired, true, Aggregation::Gmu);
    let cost = simulate_run(&pruned, &full_hw, true);
    table.row(vec![
        "w/ Adaptive Pruning + Dynamic Downsampling".into(),
        f(cost.overall_fps, 1),
        f(cost.overall_fps / prev_fps, 2) + "x",
        f(cost.overall_fps / onx.overall_fps, 2) + "x",
    ]);
    out.push_str(&table.render());
    out.push_str("\nPaper reference (Fig. 17b): pipeline 2.49x, GMU 1.87x, R&B 1.6x, WSU 1.58x,\npruning 1.4x, downsampling 2.6x (cumulative ~48x).\n");
    out
}

/// Tab. 4 and Tab. 5: architecture configuration and device comparison.
pub fn table4() -> String {
    let arch = ArchConfig::paper();
    let mem = MemoryConfig::paper();
    let mut out = String::from("Tab. 4: RTGS architecture configuration\n");
    out.push_str(&format!(
        "REs: {} ({} RC/RBC each)   PEs: {} ({} Gaussians each)   GMUs: {}\n",
        arch.rendering_engines,
        arch.cores_per_re,
        arch.preprocessing_engines,
        arch.gaussians_per_pe,
        arch.gmus,
    ));
    out.push_str(&format!(
        "frequency: {} MHz   SRAM: {} KB   L2: {} MB\n\n",
        arch.frequency_hz / 1_000_000,
        mem.total_sram() / 1024,
        mem.l2_cache / 1024 / 1024,
    ));
    out.push_str("Tab. 5: device specifications\n");
    let mut table = Table::new(&["device", "node", "SRAM", "cores", "area(mm2)", "power(W)"]);
    for d in DeviceSpec::table5() {
        table.row(vec![
            d.name.into(),
            d.technology.into(),
            format!("{} KB", d.sram_bytes / 1024),
            d.cores.into(),
            f(d.area_mm2, 2),
            f(d.power_w, 2),
        ]);
    }
    out.push_str(&table.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_matches_paper_numbers() {
        let out = table4();
        assert!(out.contains("197 KB"));
        assert!(out.contains("28.41"));
        assert!(out.contains("500 MHz"));
    }
}
