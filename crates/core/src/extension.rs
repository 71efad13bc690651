//! The RTGS algorithm as a plug-and-play pipeline extension.
//!
//! Combines adaptive Gaussian pruning (Sec. 4.1) and dynamic downsampling
//! (Sec. 4.2) behind the `rtgs-slam` extension points, so any base
//! algorithm gains the redundancy reduction without modification — exactly
//! the plug-in deployment model of the paper.

use crate::downsample::DownsamplingConfig;
use crate::pruning::{AdaptivePruner, PruningConfig};
use rtgs_render::{GradSet, ShardedScene};
use rtgs_slam::{FrameDirectives, IterationArtifacts, PipelineExtension};

/// Full RTGS algorithm configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RtgsConfig {
    /// Adaptive pruning settings; `None` disables pruning (ablation).
    pub pruning: Option<PruningConfig>,
    /// Dynamic downsampling settings; `None` disables downsampling
    /// (ablation).
    pub downsampling: Option<DownsamplingConfig>,
}

impl RtgsConfig {
    /// The paper's full configuration (both techniques on, default
    /// hyperparameters: λ = 0.8, K₀ = 5, m = 2).
    pub fn full() -> Self {
        Self {
            pruning: Some(PruningConfig::default()),
            downsampling: Some(DownsamplingConfig::default()),
        }
    }

    /// Pruning only (speedup-breakdown ablations, Fig. 14b).
    pub fn pruning_only() -> Self {
        Self {
            pruning: Some(PruningConfig::default()),
            downsampling: None,
        }
    }

    /// Downsampling only (speedup-breakdown ablations, Fig. 14b).
    pub fn downsampling_only() -> Self {
        Self {
            pruning: None,
            downsampling: Some(DownsamplingConfig::default()),
        }
    }

    /// Boxes this configuration as a pipeline extension for
    /// [`rtgs_slam::SlamPipeline::with_extension`]. The box is `Send` so
    /// extended pipelines can be served as concurrent sessions.
    pub fn into_extension(self) -> Box<dyn PipelineExtension + Send> {
        Box::new(RtgsExtension::new(self))
    }
}

/// The live extension state, reachable only as the box
/// [`RtgsConfig::into_extension`] returns.
#[derive(Debug)]
struct RtgsExtension {
    config: RtgsConfig,
    pruner: Option<AdaptivePruner>,
}

impl RtgsExtension {
    fn new(config: RtgsConfig) -> Self {
        Self {
            config,
            pruner: config.pruning.map(|p| AdaptivePruner::new(p, 0)),
        }
    }
}

impl PipelineExtension for RtgsExtension {
    fn frame_directives(
        &mut self,
        _frame_index: usize,
        frames_since_keyframe: usize,
    ) -> FrameDirectives {
        FrameDirectives {
            resolution_factor: self
                .config
                .downsampling
                .map(|d| d.factor_for(frames_since_keyframe))
                .unwrap_or(1),
        }
    }

    /// Per-Gaussian gradients only on the trials a pruning point of the
    /// same frame can still read; without a pruner, none.
    fn tracking_grads(&self, iteration: usize, last: usize) -> GradSet {
        match &self.pruner {
            Some(pruner) if pruner.reads_gradients(iteration, last) => GradSet::Full,
            _ => GradSet::PoseOnly,
        }
    }

    fn after_tracking_iteration(&mut self, artifacts: &IterationArtifacts<'_>, mask: &mut [bool]) {
        if let Some(pruner) = &mut self.pruner {
            if artifacts.iteration == 0 {
                pruner.begin_frame(mask.len());
            }
            pruner.observe_iteration(artifacts, mask);
        }
    }

    fn end_of_frame(
        &mut self,
        map: &ShardedScene,
        _mask: &[bool],
        is_keyframe: bool,
    ) -> Option<Vec<bool>> {
        let pruner = self.pruner.as_mut()?;
        pruner.resize(map.capacity());
        pruner.end_frame(is_keyframe)
    }

    fn name(&self) -> &'static str {
        "rtgs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtgs_math::Se3;
    use rtgs_scene::{DatasetProfile, SyntheticDataset};
    use rtgs_slam::{BaseAlgorithm, SlamConfig, SlamPipeline, SlamReport};
    use rtgs_snapshot::{crc32, encode_scene};
    use std::sync::{Arc, Mutex};

    fn run(config: RtgsConfig, frames: usize) -> (SlamReport, RtgsConfig) {
        // The small Replica analog is the smallest profile whose resolution
        // clears the pipeline's downsampling floor, so both techniques can
        // engage.
        let ds = SyntheticDataset::generate(DatasetProfile::replica_analog().small(), frames);
        let mut cfg = SlamConfig::for_algorithm(BaseAlgorithm::MonoGs).with_frames(frames);
        cfg.tracking.iterations = 6;
        cfg.mapping_iterations = 6;
        let report = SlamPipeline::with_extension(cfg, &ds, config.into_extension()).run();
        (report, config)
    }

    #[test]
    fn full_rtgs_runs_end_to_end() {
        let (report, _) = run(RtgsConfig::full(), 4);
        assert_eq!(report.frames_processed, 4);
    }

    #[test]
    fn pruning_reduces_map_size() {
        let (base, _) = run(RtgsConfig::default(), 5);
        let (pruned, _) = run(RtgsConfig::pruning_only(), 5);
        let base_final = base.frames.last().unwrap().gaussians;
        let pruned_final = pruned.frames.last().unwrap().gaussians;
        assert!(
            pruned_final < base_final,
            "pruning should shrink the map: {pruned_final} vs {base_final}"
        );
    }

    #[test]
    fn downsampling_reduces_tracking_fragments() {
        let (base, _) = run(RtgsConfig::default(), 5);
        let (down, _) = run(RtgsConfig::downsampling_only(), 5);
        let frag = |r: &SlamReport| -> u64 { r.frames.iter().map(|f| f.tracking_fragments).sum() };
        assert!(
            frag(&down) < frag(&base),
            "downsampling should reduce tracked fragments: {} vs {}",
            frag(&down),
            frag(&base)
        );
    }

    #[test]
    fn downsampling_uses_schedule_factors() {
        let (down, _) = run(RtgsConfig::downsampling_only(), 5);
        // Keyframes (0 and 5-interval) at factor 1; non-keyframes at the
        // schedule's factor, clamped by the pipeline's resolution floor.
        assert_eq!(down.frames[0].resolution_factor, 1);
        assert!(down.frames[1].resolution_factor >= 2);
        assert!(down.frames[2].resolution_factor >= 2);
        assert!(down.frames[1].resolution_factor <= 4);
    }

    #[test]
    fn disabled_config_changes_nothing() {
        let ds = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), 3);
        let mut cfg = SlamConfig::for_algorithm(BaseAlgorithm::GsSlam).with_frames(3);
        cfg.tracking.iterations = 4;
        cfg.mapping_iterations = 4;
        let base = SlamPipeline::new(cfg, &ds).run();
        let noop =
            SlamPipeline::with_extension(cfg, &ds, RtgsConfig::default().into_extension()).run();
        assert_eq!(
            base.frames.last().unwrap().gaussians,
            noop.frames.last().unwrap().gaussians
        );
        assert!((base.ate.rmse - noop.ate.rmse).abs() < 1e-9);
    }

    /// Wraps the extension the pipeline runs: logs K after every frame
    /// and, with `all_full`, asks per-Gaussian gradients of every tracking
    /// trial — the reference a per-trial answer must match bit for bit.
    struct Logged {
        inner: RtgsExtension,
        all_full: bool,
        intervals: Arc<Mutex<Vec<usize>>>,
    }

    impl PipelineExtension for Logged {
        fn frame_directives(&mut self, index: usize, since_kf: usize) -> FrameDirectives {
            self.inner.frame_directives(index, since_kf)
        }
        fn tracking_grads(&self, iteration: usize, last: usize) -> GradSet {
            if self.all_full {
                GradSet::Full
            } else {
                self.inner.tracking_grads(iteration, last)
            }
        }
        fn after_tracking_iteration(&mut self, a: &IterationArtifacts<'_>, mask: &mut [bool]) {
            self.inner.after_tracking_iteration(a, mask);
        }
        fn end_of_frame(
            &mut self,
            map: &ShardedScene,
            mask: &[bool],
            is_keyframe: bool,
        ) -> Option<Vec<bool>> {
            if let Some(pruner) = &self.inner.pruner {
                self.intervals.lock().unwrap().push(pruner.interval());
            }
            self.inner.end_of_frame(map, mask, is_keyframe)
        }
    }

    /// Asking per-Gaussian gradients only of the trials a pruning point can
    /// still read moves no output bit of a whole session, through pruning
    /// points that fire, K outgrowing MonoGS's 15-trial cap, and
    /// downsampled frames, and runs fewer backward fragment events than
    /// asking them of every trial.
    ///
    /// The paper's K₀ = 5 never lands a pruning point on the rule's
    /// boundary here (`since + remaining == K`), so a fourth configuration
    /// starts K at the cap: every trial of the first frame sits on the
    /// boundary and the frame's one pruning point is its last trial.
    #[test]
    fn per_trial_gradients_keep_every_session_bit() {
        let frames = 5;
        let ds = SyntheticDataset::generate(DatasetProfile::replica_analog().small(), frames);
        let cfg = SlamConfig::for_algorithm(BaseAlgorithm::MonoGs).with_frames(frames);
        let cap = cfg.tracking.iterations;
        let k0_at_cap = RtgsConfig {
            pruning: Some(PruningConfig {
                initial_interval: cap,
                ..Default::default()
            }),
            ..RtgsConfig::full()
        };
        let run = |config: RtgsConfig, all_full: bool| {
            let intervals = Arc::new(Mutex::new(Vec::new()));
            let extension = Logged {
                inner: RtgsExtension::new(config),
                all_full,
                intervals: Arc::clone(&intervals),
            };
            let mut pipeline = SlamPipeline::with_extension(cfg, &ds, Box::new(extension));
            let report = pipeline.run();
            let crc = crc32(&encode_scene(pipeline.scene()));
            let intervals = intervals.lock().unwrap().clone();
            (report, crc, intervals)
        };
        let pose_bits = |p: &Se3| {
            let (q, t) = (p.rotation, p.translation);
            [q.w, q.x, q.y, q.z, t.x, t.y, t.z].map(f32::to_bits)
        };
        let grad_events =
            |r: &SlamReport| -> u64 { r.frames.iter().map(|f| f.tracking_grad_events).sum() };
        for (name, config) in [
            ("full", RtgsConfig::full()),
            ("pruning_only", RtgsConfig::pruning_only()),
            ("downsampling_only", RtgsConfig::downsampling_only()),
            ("K₀ at the cap", k0_at_cap),
        ] {
            let (before, before_crc, before_k) = run(config, true);
            let (after, after_crc, after_k) = run(config, false);
            let poses = |r: &SlamReport| r.trajectory.iter().map(pose_bits).collect::<Vec<_>>();
            assert_eq!(poses(&after), poses(&before), "{name}: trajectory");
            let per_frame = |r: &SlamReport| {
                r.frames
                    .iter()
                    .map(|f| (f.gaussians, f.tracking_loss.to_bits(), f.resolution_factor))
                    .collect::<Vec<_>>()
            };
            assert_eq!(per_frame(&after), per_frame(&before), "{name}: frames");
            assert_eq!(
                after.mean_psnr.to_bits(),
                before.mean_psnr.to_bits(),
                "{name}"
            );
            assert_eq!(
                after.ate.rmse.to_bits(),
                before.ate.rmse.to_bits(),
                "{name}"
            );
            assert_eq!(after_crc, before_crc, "{name}: final map");
            assert_eq!(after_k, before_k, "{name}: K");
            assert!(
                grad_events(&after) < grad_events(&before),
                "{name}: {} vs {} backward fragment events",
                grad_events(&after),
                grad_events(&before)
            );
            if let Some(pruning) = config.pruning {
                // Pruning points fired (K moved off K₀), and K outgrew the
                // cap, after which none fires.
                let k0 = pruning.initial_interval;
                assert!(after_k.iter().any(|&k| k != k0), "{name}: {after_k:?}");
                assert!(
                    after_k.last().is_some_and(|&k| k > cap),
                    "{name}: {after_k:?}"
                );
            }
            if config.downsampling.is_some() {
                assert!(after.frames.iter().any(|f| f.resolution_factor > 1));
            }
        }
    }

    #[test]
    fn quality_within_tolerance_of_base() {
        // The headline algorithm claim (Tab. 6): small ATE/PSNR degradation.
        // Short small-resolution sequences are noisy (a few cm of ATE swing
        // either way), so the gate here is loose in absolute terms; the
        // experiment harness (table6) checks the trend across datasets.
        let (base, _) = run(RtgsConfig::default(), 6);
        let (ours, _) = run(RtgsConfig::full(), 6);
        assert!(
            ours.frames.iter().any(|f| f.resolution_factor > 1),
            "downsampling never engaged — the gate would be vacuous"
        );
        assert!(
            ours.ate.rmse < base.ate.rmse * 2.0 + 0.08,
            "ATE blew up: {} vs base {}",
            ours.ate.rmse,
            base.ate.rmse
        );
        assert!(ours.mean_psnr > base.mean_psnr - 6.0);
    }
}
