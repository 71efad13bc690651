//! Algorithm-side experiments: Tab. 2 (base algorithm comparison), Tab. 6
//! (main algorithm results), Tab. 7 (GauSPU comparison), Fig. 13
//! (precision baselines + drift) and Fig. 14 (pruning ablations).

use crate::common::{dataset, f, run_traced, run_variant, slam_config, Scale, Table, Variant};
use rtgs_accel::{simulate_run, HardwareModel};
use rtgs_baselines::{BaselineExtension, FlashGsPruner, LightGaussianPruner};
use rtgs_core::{PruningConfig, RtgsConfig};
use rtgs_metrics::per_frame_errors;
use rtgs_scene::{DatasetProfile, SyntheticDataset};
use rtgs_slam::{BaseAlgorithm, SlamPipeline, SlamReport};

/// Tab. 2: accuracy / speed / storage of the four base 3DGS-SLAM
/// algorithms on the Replica analog, with hardware FPS modeled on the ONX.
pub fn table2(scale: Scale) -> String {
    let ds = dataset(
        scale.profile(DatasetProfile::replica_analog()),
        scale.frames(),
    );
    let mut out = String::from("Tab. 2: base 3DGS-SLAM algorithms on Replica-analog (ONX model)\n");
    let mut table = Table::new(&[
        "algorithm",
        "ATE(cm)",
        "PSNR(dB)",
        "trackFPS",
        "overallFPS",
        "peakMem(MB)",
        "mono",
    ]);
    for algo in BaseAlgorithm::all() {
        let (report, run) = run_traced(algo, &ds, scale, Variant::Base);
        let cost = simulate_run(&run, &HardwareModel::onx(), true);
        table.row(vec![
            algo.name().into(),
            f(report.ate.rmse_cm(), 2),
            f(report.mean_psnr, 2),
            f(cost.tracking_fps, 2),
            f(cost.overall_fps, 2),
            f(report.peak_param_bytes as f64 / 1e6, 2),
            if algo.geometric_tracking() || algo == BaseAlgorithm::MonoGs {
                "yes".into()
            } else {
                "no".into()
            },
        ]);
    }
    out.push_str(&table.render());
    out.push_str("\nExpected shape (paper Tab. 2): SplaTAM slowest overall; Photo-SLAM fastest;\nMonoGS most accurate with the largest map.\n");
    out
}

/// Tab. 6: the main algorithm comparison — 3 base algorithms × 4 datasets
/// × {base, Taming 3DGS, Ours}.
pub fn table6(scale: Scale) -> String {
    let mut out =
        String::from("Tab. 6: algorithm variants across datasets (wall-clock on this CPU)\n");
    let mut table = Table::new(&[
        "method",
        "dataset",
        "ATE(cm)",
        "PSNR(dB)",
        "relFPS",
        "peakMem(MB)",
    ]);
    for profile in DatasetProfile::all_analogs() {
        let ds = dataset(scale.profile(profile), scale.frames());
        for algo in BaseAlgorithm::keyframe_based() {
            let mut base_fps = 0.0;
            for variant in [Variant::Base, Variant::Taming, Variant::Ours] {
                let report = run_variant(algo, &ds, scale, variant);
                let fps = report.overall_fps();
                if variant == Variant::Base {
                    base_fps = fps;
                }
                table.row(vec![
                    variant.label(algo),
                    ds.profile.name.clone(),
                    f(report.ate.rmse_cm(), 2),
                    f(report.mean_psnr, 2),
                    f(if base_fps > 0.0 { fps / base_fps } else { 1.0 }, 2) + "x",
                    f(report.peak_param_bytes as f64 / 1e6, 2),
                ]);
            }
        }
    }
    out.push_str(&table.render());
    out.push_str("\nExpected shape (paper Tab. 6): Ours ~2.5-3.6x base FPS with <~10% ATE/PSNR\ndegradation and lower memory; Taming 3DGS trades more quality for less gain\n(its scores cannot converge within SLAM's iteration budget).\n");
    out
}

/// Tab. 7: SplaTAM on the RTX 3090, base vs GauSPU vs Ours.
pub fn table7(scale: Scale) -> String {
    let ds = dataset(
        scale.profile(DatasetProfile::replica_analog()),
        scale.frames(),
    );
    let (base, base_run) = run_traced(BaseAlgorithm::SplaTam, &ds, scale, Variant::Base);
    let (ours, ours_run) = run_traced(BaseAlgorithm::SplaTam, &ds, scale, Variant::Ours);
    let rtx = simulate_run(&base_run, &HardwareModel::rtx3090(), true);
    let gauspu = simulate_run(&base_run, &HardwareModel::gauspu(), true);
    let ours_hw = simulate_run(&ours_run, &HardwareModel::rtgs_on_rtx3090(), true);

    let mut out = String::from("Tab. 7: SplaTAM on RTX 3090 — base vs GauSPU vs Ours\n");
    let mut table = Table::new(&[
        "method",
        "ATE(cm)",
        "PSNR(dB)",
        "trackFPS",
        "overallFPS",
        "peakMem(MB)",
    ]);
    table.row(vec![
        "SplaTAM".into(),
        f(base.ate.rmse_cm(), 2),
        f(base.mean_psnr, 2),
        f(rtx.tracking_fps, 1),
        f(rtx.overall_fps, 1),
        f(base.peak_param_bytes as f64 / 1e6, 2),
    ]);
    table.row(vec![
        "GauSPU + SplaTAM".into(),
        f(base.ate.rmse_cm(), 2),
        f(base.mean_psnr, 2),
        f(gauspu.tracking_fps, 1),
        f(gauspu.overall_fps, 1),
        f(base.peak_param_bytes as f64 / 1e6, 2),
    ]);
    table.row(vec![
        "Ours + SplaTAM".into(),
        f(ours.ate.rmse_cm(), 2),
        f(ours.mean_psnr, 2),
        f(ours_hw.tracking_fps, 1),
        f(ours_hw.overall_fps, 1),
        f(ours.peak_param_bytes as f64 / 1e6, 2),
    ]);
    out.push_str(&table.render());
    out.push_str(SPLATAM_SHAPE_NOTE);
    out
}

/// What Tab. 7 and Fig. 16 show on SplaTAM, against what the paper claims.
pub(crate) const SPLATAM_SHAPE_NOTE: &str = "
Paper (Tab. 7, Fig. 16): Ours reaches the highest tracking FPS with the lowest
peak Gaussian memory at comparable quality, on every scene.
This reproduction: Ours is faster than the RTX 3090 base, but at --full slower
than GauSPU, and its peak memory equals the base's. SplaTAM makes every frame
a keyframe, and keyframes track at full resolution, so dynamic downsampling
never engages; pruning removes Gaussians only at the end of a non-keyframe, so
it never shrinks the map (ROADMAP item 2).
";

/// Fig. 13: (a) accuracy/efficiency trade-off against precision-oriented
/// pruners at a 50% ratio; (b) cumulative drift for pruning ratios.
pub fn fig13(scale: Scale) -> String {
    let ds = dataset(
        scale.profile(DatasetProfile::replica_analog()),
        scale.frames(),
    );
    let mut out =
        String::from("Fig. 13(a): 50% pruning — quality vs throughput vs evaluation cost\n");
    let mut table = Table::new(&["method", "ATE(cm)", "relFPS", "score evaluation cost"]);

    let base = run_variant(BaseAlgorithm::MonoGs, &ds, scale, Variant::Base);
    let base_fps = base.overall_fps();
    table.row(vec![
        "Baseline (no pruning)".into(),
        f(base.ate.rmse_cm(), 2),
        "1.00x".into(),
        "0".into(),
    ]);

    let cfg = slam_config(BaseAlgorithm::MonoGs, scale);
    // LightGaussian-style
    {
        let ext = BaselineExtension::new(LightGaussianPruner::new(), 0.5);
        let mut pipe = SlamPipeline::with_extension(cfg, &ds, Box::new(ext));
        let report = pipe.run();
        table.row(vec![
            "LightGaussian".into(),
            f(report.ate.rmse_cm(), 2),
            f(report.overall_fps() / base_fps, 2) + "x",
            "high (global score pass)".into(),
        ]);
    }
    // FlashGS-style
    {
        let ext = BaselineExtension::new(FlashGsPruner::new(), 0.5);
        let mut pipe = SlamPipeline::with_extension(cfg, &ds, Box::new(ext));
        let report = pipe.run();
        table.row(vec![
            "FlashGS".into(),
            f(report.ate.rmse_cm(), 2),
            f(report.overall_fps() / base_fps, 2) + "x",
            "highest (saliency pass)".into(),
        ]);
    }
    // RTGS
    {
        let ours = run_variant(BaseAlgorithm::MonoGs, &ds, scale, Variant::Ours);
        table.row(vec![
            "RTGS Algo (ours)".into(),
            f(ours.ate.rmse_cm(), 2),
            f(ours.overall_fps() / base_fps, 2) + "x",
            "zero (gradients reused)".into(),
        ]);
    }
    out.push_str(&table.render());

    out.push_str("\nFig. 13(b): cumulative drift over frames by pruning ratio\n");
    let mut table = Table::new(&["prune ratio", "ATE(cm)", "final-frame error (cm)"]);
    for ratio in [0.0f32, 0.25, 0.5, 0.8] {
        let report = if ratio == 0.0 {
            run_variant(BaseAlgorithm::MonoGs, &ds, scale, Variant::Base)
        } else {
            let rtgs = RtgsConfig {
                pruning: Some(PruningConfig {
                    max_prune_ratio: ratio,
                    prune_step_fraction: (ratio / 2.0).max(0.1),
                    ..Default::default()
                }),
                downsampling: None,
            };
            SlamPipeline::with_extension(
                slam_config(BaseAlgorithm::MonoGs, scale),
                &ds,
                rtgs.into_extension(),
            )
            .run()
        };
        let errors = per_frame_errors(&report.trajectory, &ds.poses_c2w[..report.trajectory.len()]);
        table.row(vec![
            format!("{:.0}%", ratio * 100.0),
            f(report.ate.rmse_cm(), 2),
            f(errors.last().copied().unwrap_or(0.0) * 100.0, 2),
        ]);
    }
    out.push_str(&table.render());
    out.push_str("\nExpected shape (paper Fig. 13/14a): drift comparable to baseline up to 50%\npruning, rising sharply beyond.\n");
    out
}

/// Fig. 14: (a) ATE and latency versus pruning ratio; (b) forward/backward
/// speedup attribution of the two algorithm techniques.
pub fn fig14(scale: Scale) -> String {
    let ds = dataset(
        scale.profile(DatasetProfile::replica_analog()),
        scale.frames(),
    );
    let mut out = String::from("Fig. 14(a): pruning-ratio sweep (MonoGS, Replica-analog)\n");
    let mut table = Table::new(&["prune ratio", "ATE(cm)", "latency/frame (ms)"]);
    for ratio in [0.0f32, 0.15, 0.3, 0.5, 0.7] {
        let report = if ratio == 0.0 {
            run_variant(BaseAlgorithm::MonoGs, &ds, scale, Variant::Base)
        } else {
            let rtgs = RtgsConfig {
                pruning: Some(PruningConfig {
                    max_prune_ratio: ratio,
                    prune_step_fraction: (ratio / 2.0).max(0.1),
                    ..Default::default()
                }),
                downsampling: None,
            };
            SlamPipeline::with_extension(
                slam_config(BaseAlgorithm::MonoGs, scale),
                &ds,
                rtgs.into_extension(),
            )
            .run()
        };
        table.row(vec![
            format!("{:.0}%", ratio * 100.0),
            f(report.ate.rmse_cm(), 2),
            f(
                report.total_wall.as_secs_f64() * 1000.0 / report.frames_processed.max(1) as f64,
                1,
            ),
        ]);
    }
    out.push_str(&table.render());

    out.push_str("\nFig. 14(b): forward/backward work reduction by technique (fragment counts)\n");
    let mut table = Table::new(&["technique", "FF speedup", "BP speedup"]);
    let frag_ff = |r: &SlamReport| -> f64 {
        r.frames
            .iter()
            .map(|fr| fr.tracking_fragments as f64)
            .sum::<f64>()
            .max(1.0)
    };
    let frag_bp = |r: &SlamReport| -> f64 {
        r.frames
            .iter()
            .map(|fr| fr.tracking_grad_events as f64)
            .sum::<f64>()
            .max(1.0)
    };
    let (base, techniques) = fig14b_sessions(&ds, scale);
    for (name, report) in &techniques {
        table.row(vec![
            name.to_string(),
            f(frag_ff(&base) / frag_ff(report), 2) + "x",
            f(frag_bp(&base) / frag_bp(report), 2) + "x",
        ]);
    }
    out.push_str(&table.render());
    out.push_str("\nPaper reference (Fig. 14b): pruning 1.53x FF / 1.7x BP;\ndownsampling 2.1x FF / 1.9x BP.\n");
    out
}

/// Fig. 14(b)'s sessions on `ds`: the MonoGS base, then each technique's
/// on the same inputs.
fn fig14b_sessions(
    ds: &SyntheticDataset,
    scale: Scale,
) -> (SlamReport, [(&'static str, SlamReport); 3]) {
    let run = |rtgs: RtgsConfig| {
        let cfg = slam_config(BaseAlgorithm::MonoGs, scale);
        SlamPipeline::with_extension(cfg, ds, rtgs.into_extension()).run()
    };
    let base = run_variant(BaseAlgorithm::MonoGs, ds, scale, Variant::Base);
    let techniques = [
        ("adaptive pruning", run(RtgsConfig::pruning_only())),
        ("dynamic downsampling", run(RtgsConfig::downsampling_only())),
        ("both", run(RtgsConfig::full())),
    ];
    (base, techniques)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 14(b)'s bitwise half at quick scale: no technique runs more
    /// tracking backward work (fragment gradient events) than its base, so
    /// every BP speed-up is at least 1×.
    #[test]
    fn fig14b_no_technique_runs_more_backward_than_base() {
        let scale = Scale::Quick;
        let ds = dataset(
            scale.profile(DatasetProfile::replica_analog()),
            scale.frames(),
        );
        let events =
            |r: &SlamReport| -> u64 { r.frames.iter().map(|f| f.tracking_grad_events).sum() };
        let (base, techniques) = fig14b_sessions(&ds, scale);
        for (name, report) in &techniques {
            assert!(
                events(report) <= events(&base),
                "{name}: {} backward fragment events against the base's {}",
                events(report),
                events(&base)
            );
        }
    }

    #[test]
    fn table2_contains_all_algorithms() {
        let out = table2(Scale::Quick);
        for name in ["SplaTAM", "GS-SLAM", "MonoGS", "Photo-SLAM"] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
    }
}
