//! Procedural indoor scenes, camera trajectories and dataset analogs.
//!
//! This crate substitutes for the paper's four recorded datasets
//! (TUM-RGBD, Replica, ScanNet, ScanNet++): a hidden reference Gaussian
//! scene is generated procedurally, a smooth camera trajectory is laid
//! through it, and ground-truth RGB-D observations are rendered with the
//! `rtgs-render` rasterizer. The SLAM system under test only ever sees the
//! observations — never the reference scene or trajectory.
//!
//! # Example
//!
//! ```
//! use rtgs_scene::{DatasetProfile, SyntheticDataset};
//!
//! let profile = DatasetProfile::tum_analog().tiny();
//! let dataset = SyntheticDataset::generate(profile, 3);
//! assert_eq!(dataset.len(), 3);
//! assert!(dataset.frames[0].depth.is_some()); // TUM analog is RGB-D
//! ```

mod dataset;
mod generator;
mod trajectory;

pub use dataset::{DatasetProfile, RgbdFrame, SyntheticDataset};
pub use generator::{generate_indoor_scene, SceneConfig};
pub use trajectory::{generate_trajectory, look_at, TrajectoryConfig, TrajectoryStyle};
