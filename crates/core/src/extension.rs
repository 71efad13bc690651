//! The RTGS algorithm as a plug-and-play pipeline extension.
//!
//! Combines adaptive Gaussian pruning (Sec. 4.1) and dynamic downsampling
//! (Sec. 4.2) behind the `rtgs-slam` extension points, so any base
//! algorithm gains the redundancy reduction without modification — exactly
//! the plug-in deployment model of the paper.

use crate::downsample::DownsamplingConfig;
use crate::pruning::{AdaptivePruner, PruningConfig};
use rtgs_render::ShardedScene;
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
    frame_active: bool,
}

impl RtgsExtension {
    fn new(config: RtgsConfig) -> Self {
        Self {
            config,
            pruner: config.pruning.map(|p| AdaptivePruner::new(p, 0)),
            frame_active: false,
        }
    }
}

impl PipelineExtension for RtgsExtension {
    fn frame_directives(
        &mut self,
        _frame_index: usize,
        frames_since_keyframe: usize,
    ) -> FrameDirectives {
        self.frame_active = true;
        FrameDirectives {
            resolution_factor: self
                .config
                .downsampling
                .map(|d| d.factor_for(frames_since_keyframe))
                .unwrap_or(1),
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
        if !self.frame_active {
            return None;
        }
        self.frame_active = false;
        let pruner = self.pruner.as_mut()?;
        pruner.resize(map.capacity());
        pruner.end_frame(is_keyframe)
    }

    fn on_scene_resized(&mut self, new_capacity: usize) {
        if let Some(pruner) = &mut self.pruner {
            pruner.begin_frame(new_capacity);
        }
    }

    fn name(&self) -> &'static str {
        "rtgs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtgs_scene::{DatasetProfile, SyntheticDataset};
    use rtgs_slam::{BaseAlgorithm, SlamConfig, SlamPipeline};

    fn run(config: RtgsConfig, frames: usize) -> (rtgs_slam::SlamReport, RtgsConfig) {
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
        let frag = |r: &rtgs_slam::SlamReport| -> u64 {
            r.frames.iter().map(|f| f.tracking_fragments).sum()
        };
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
