//! The RTGS algorithm: multi-level redundancy reduction for real-time
//! 3DGS-SLAM (the paper's primary algorithmic contribution, Sec. 4).
//!
//! Two plug-and-play techniques attach to any base 3DGS-SLAM pipeline via
//! the `rtgs-slam` extension points:
//!
//! - **Adaptive Gaussian pruning** ([`AdaptivePruner`], Sec. 4.1):
//!   Gaussian-level redundancy. Importance scores (Eq. 7) are computed by
//!   reusing the gradients tracking already produces, low-importance
//!   Gaussians are mask-pruned over a dynamically adapted interval `K`, and
//!   removed permanently at the end of non-keyframes. Tracking computes
//!   per-Gaussian gradients only on the trials a pruning point can still
//!   read ([`AdaptivePruner::reads_gradients`]); every other trial runs the
//!   pose-only backward, as a base pipeline's does.
//! - **Dynamic downsampling** ([`DownsamplingConfig`], Sec. 4.2):
//!   pixel-level redundancy. Non-keyframes are tracked at reduced
//!   resolution, ramping from 1/16 back to 1/4 of the pixels as distance
//!   from the last keyframe grows.
//!
//! [`RtgsDevice`] additionally models the paper's frame-level programming
//! interface (`RTGS_execute` / `RTGS_check_status`, Listing 1).
//!
//! # Example
//!
//! ```
//! use rtgs_core::RtgsConfig;
//! use rtgs_scene::{DatasetProfile, SyntheticDataset};
//! use rtgs_slam::{BaseAlgorithm, SlamConfig, SlamPipeline};
//!
//! let dataset = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), 3);
//! let mut config = SlamConfig::for_algorithm(BaseAlgorithm::MonoGs).with_frames(3);
//! config.tracking.iterations = 3;
//! config.mapping_iterations = 3;
//! let mut pipeline =
//!     SlamPipeline::with_extension(config, &dataset, RtgsConfig::full().into_extension());
//! let report = pipeline.run();
//! assert_eq!(report.frames_processed, 3);
//! ```

mod device;
mod downsample;
mod extension;
mod pruning;

pub use device::{DeviceBusy, FlagBuffer, RtgsDevice, RtgsStatus};
pub use downsample::DownsamplingConfig;
pub use extension::RtgsConfig;
pub use pruning::{AdaptivePruner, PruningConfig};
