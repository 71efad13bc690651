//! 3DGS-SLAM substrate: tracking, keyframe-based mapping, and the four base
//! algorithms the paper evaluates (GS-SLAM, MonoGS, Photo-SLAM, SplaTAM).
//!
//! The pipeline alternates per-frame tracking (camera-pose optimization
//! through the differentiable rasterizer) with keyframe mapping (Gaussian
//! parameter optimization, densification and cleanup), exactly as described
//! in paper Sec. 2.2. One extension seam, [`PipelineExtension`] — which
//! [`track_frame`] and [`SlamPipeline`] both call — lets the RTGS
//! redundancy-reduction techniques in `rtgs-core` plug in without
//! modifying the base pipeline.
//!
//! # Example
//!
//! ```
//! use rtgs_scene::{DatasetProfile, SyntheticDataset};
//! use rtgs_slam::{BaseAlgorithm, SlamConfig, SlamPipeline};
//!
//! let dataset = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), 3);
//! let mut config = SlamConfig::for_algorithm(BaseAlgorithm::GsSlam).with_frames(3);
//! config.tracking.iterations = 2;
//! config.mapping_iterations = 2;
//! let report = SlamPipeline::new(config, &dataset).run();
//! assert_eq!(report.frames_processed, 3);
//! ```

mod ingest;
mod keyframe;
mod map;
mod optimizer;
mod pipeline;
mod serve;
mod snapshot;
mod tracking;

pub use ingest::{OpenLoopSession, SloPolicy};
pub use keyframe::{KeyframeContext, KeyframePolicy};
pub use map::{densify, prune_transparent, seed_from_frame, MapConfig};
pub use optimizer::{MapLearningRates, MapOptimizer, PARAMS_PER_GAUSSIAN};
pub use pipeline::{
    BaseAlgorithm, FrameDirectives, FrameReport, NoExtension, PipelineExtension, SlamConfig,
    SlamPipeline, SlamReport,
};
pub use rtgs_render::GradSet;
pub use rtgs_telemetry::{StageId, StageTimings};
pub use snapshot::config_fingerprint;
pub use tracking::{track_frame, IterationArtifacts, TrackResult, TrackingConfig};
