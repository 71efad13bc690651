//! Dataset profiles and synthetic RGB-D sequence generation.
//!
//! Each profile mirrors one of the paper's four evaluation datasets
//! (Tab. 3) at 1/16 of the linear resolution so the CPU rasterizer can run
//! full SLAM experiments. The *relative* resolution ordering (TUM < Replica
//! < ScanNet < ScanNet++), trajectory style, scene density and depth
//! availability all follow the originals; see DESIGN.md for the
//! substitution rationale.

use crate::generator::{generate_indoor_scene, SceneConfig};
use crate::trajectory::{generate_trajectory, TrajectoryConfig, TrajectoryStyle};
use rtgs_math::Se3;
use rtgs_render::{
    render_poses, DepthImage, Image, PinholeCamera, RenderOutput, ShardedScene, DEFAULT_CELL_SIZE,
};
use rtgs_runtime::BackendChoice;

/// One RGB(-D) observation.
#[derive(Debug, Clone)]
pub struct RgbdFrame {
    /// Frame index within the sequence.
    pub index: usize,
    /// RGB observation.
    pub color: Image,
    /// Depth observation; `None` for monocular profiles.
    pub depth: Option<DepthImage>,
}

/// A named dataset analog: resolution, trajectory style, scene density.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetProfile {
    /// Profile name (e.g. `"tum-analog"`).
    pub name: String,
    /// Image width.
    pub width: usize,
    /// Image height.
    pub height: usize,
    /// Horizontal field of view (radians).
    pub fov_x: f32,
    /// Default sequence length.
    pub frames: usize,
    /// Scene generator parameters.
    pub scene: SceneConfig,
    /// Trajectory parameters (`frames` is overridden per generation).
    pub trajectory: TrajectoryConfig,
    /// Whether depth observations are provided (RGB-D vs monocular).
    pub has_depth: bool,
}

impl DatasetProfile {
    /// TUM-RGBD analog (paper: 480×640) — handheld desk sequences.
    pub fn tum_analog() -> Self {
        Self {
            name: "tum-analog".into(),
            width: 40,
            height: 30,
            fov_x: 1.0,
            frames: 30,
            scene: SceneConfig {
                seed: 101,
                ..Default::default()
            },
            trajectory: TrajectoryConfig {
                style: TrajectoryStyle::Lissajous,
                seed: 201,
                jitter: 0.003,
                ..Default::default()
            },
            has_depth: true,
        }
    }

    /// Replica analog (paper: 680×1200) — smooth synthetic sweeps.
    pub fn replica_analog() -> Self {
        Self {
            name: "replica-analog".into(),
            width: 75,
            height: 42,
            fov_x: 1.2,
            frames: 30,
            scene: SceneConfig {
                seed: 102,
                object_clusters: 10,
                ..Default::default()
            },
            trajectory: TrajectoryConfig {
                style: TrajectoryStyle::Orbit,
                seed: 202,
                jitter: 0.002,
                ..Default::default()
            },
            has_depth: true,
        }
    }

    /// ScanNet analog (paper: 968×1296) — room-scale scan sweeps.
    pub fn scannet_analog() -> Self {
        Self {
            name: "scannet-analog".into(),
            width: 81,
            height: 60,
            fov_x: 1.2,
            frames: 30,
            scene: SceneConfig {
                seed: 103,
                wall_gaussians_per_surface: 150,
                ..Default::default()
            },
            trajectory: TrajectoryConfig {
                style: TrajectoryStyle::Scan,
                seed: 203,
                jitter: 0.004,
                ..Default::default()
            },
            has_depth: true,
        }
    }

    /// ScanNet++ analog (paper: 1160×1752) — high-resolution scans.
    pub fn scannetpp_analog() -> Self {
        Self {
            name: "scannetpp-analog".into(),
            width: 109,
            height: 72,
            fov_x: 1.25,
            frames: 30,
            scene: SceneConfig {
                seed: 104,
                wall_gaussians_per_surface: 160,
                object_clusters: 12,
                ..Default::default()
            },
            trajectory: TrajectoryConfig {
                style: TrajectoryStyle::Scan,
                seed: 204,
                jitter: 0.002,
                ..Default::default()
            },
            has_depth: true,
        }
    }

    /// All four dataset analogs in the paper's order.
    pub fn all_analogs() -> Vec<Self> {
        vec![
            Self::tum_analog(),
            Self::replica_analog(),
            Self::scannet_analog(),
            Self::scannetpp_analog(),
        ]
    }

    /// Scene names evaluated per dataset in the paper (Tab. 3).
    pub fn scene_names(&self) -> Vec<&'static str> {
        match self.name.as_str() {
            "tum-analog" => vec!["fr1/desk", "fr2/xyz", "fr3/office"],
            "replica-analog" => vec!["Rm0", "Rm1", "Rm2", "Of0", "Of1", "Of2", "Of3"],
            "scannet-analog" => vec![
                "scene0000",
                "scene0059",
                "scene0106",
                "scene0269",
                "scene0181",
                "scene0207",
            ],
            "scannetpp-analog" => vec!["s1", "s2"],
            _ => vec!["default"],
        }
    }

    /// A reduced copy for unit tests and doc examples: tiny resolution,
    /// sparse scene, short sequences.
    pub fn tiny(&self) -> Self {
        Self {
            name: format!("{}-tiny", self.name),
            width: 24,
            height: 18,
            frames: 4,
            scene: self.scene.scaled(0.08),
            ..self.clone()
        }
    }

    /// A mid-size copy for fast experiments (about a quarter of the
    /// Gaussians, half the resolution).
    pub fn small(&self) -> Self {
        Self {
            name: format!("{}-small", self.name),
            width: (self.width / 2).max(24),
            height: (self.height / 2).max(18),
            scene: self.scene.scaled(0.3),
            ..self.clone()
        }
    }

    /// Camera intrinsics for this profile.
    pub fn camera(&self) -> PinholeCamera {
        PinholeCamera::from_fov(self.width, self.height, self.fov_x)
    }
}

/// A fully generated synthetic sequence: hidden reference scene,
/// ground-truth trajectory and rendered RGB-D observations.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// The profile this sequence was generated from.
    pub profile: DatasetProfile,
    /// Hidden reference world (never shown to the SLAM system), as the
    /// map the renderer takes; generation tombstones nothing, so its
    /// stable IDs are the generator's indices.
    pub reference_scene: ShardedScene,
    /// Camera intrinsics.
    pub camera: PinholeCamera,
    /// Ground-truth camera-to-world poses.
    pub poses_c2w: Vec<Se3>,
    /// Observations rendered from the reference scene.
    pub frames: Vec<RgbdFrame>,
}

impl SyntheticDataset {
    /// Generates a sequence of `frames` observations from `profile`.
    ///
    /// Generation is deterministic in the profile's seeds. The scene-variant
    /// index (`0` for the canonical scene) shifts the seeds so each named
    /// scene of a dataset gets distinct content — see
    /// [`SyntheticDataset::generate_scene_variant`]. Frames render
    /// frame-parallel on the machine, bit for bit the frames a serial
    /// render gives.
    pub fn generate(profile: DatasetProfile, frames: usize) -> Self {
        Self::generate_scene_variant(profile, frames, 0)
    }

    /// Generates the `variant`-th scene of a dataset (e.g. Replica Rm0 vs
    /// Of3): same profile, different content seed.
    ///
    /// The frames render frame-parallel ([`render_poses`] on
    /// [`BackendChoice::default`], the machine): every colour and depth bit
    /// is what rendering them one after another on `Serial` gives.
    pub fn generate_scene_variant(
        mut profile: DatasetProfile,
        frames: usize,
        variant: u64,
    ) -> Self {
        profile.scene.seed = profile.scene.seed.wrapping_add(variant.wrapping_mul(1009));
        profile.trajectory.seed = profile
            .trajectory
            .seed
            .wrapping_add(variant.wrapping_mul(2003));
        let reference_scene =
            ShardedScene::from_scene(&generate_indoor_scene(&profile.scene), DEFAULT_CELL_SIZE);
        let camera = profile.camera();
        let mut traj_cfg = profile.trajectory;
        traj_cfg.frames = frames;
        let poses_c2w = generate_trajectory(&traj_cfg, profile.scene.room_half_extent);

        let poses_w2c: Vec<Se3> = poses_c2w.iter().map(Se3::inverse).collect();
        let has_depth = profile.has_depth;
        let out_frames = render_poses(
            &reference_scene,
            &poses_w2c,
            &camera,
            &*BackendChoice::default().instantiate(),
            |index, rendered| RgbdFrame {
                index,
                color: rendered.image.clone(),
                depth: has_depth.then(|| surface_depth(rendered)),
            },
        );

        Self {
            profile,
            reference_scene,
            camera,
            poses_c2w,
            frames: out_frames,
        }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// The depth observation of a render: blended depth normalized by opacity
/// coverage, so it is a true surface depth (a raw alpha-blend
/// under-estimates depth wherever coverage < 1, which would corrupt map
/// seeding), and "no measurement" where coverage is 0.2 or less.
fn surface_depth(rendered: &RenderOutput) -> DepthImage {
    let mut d = rendered.depth.clone();
    for y in 0..d.height() {
        for x in 0..d.width() {
            let coverage = rendered.coverage(x, y);
            if coverage > 0.2 {
                let v = d.depth(x, y) / coverage;
                d.set_depth(x, y, v);
            } else {
                d.set_depth(x, y, 0.0);
            }
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtgs_render::{FrameArena, POSE_CHUNK};
    use rtgs_runtime::Serial;

    #[test]
    fn profiles_have_increasing_resolution() {
        let all = DatasetProfile::all_analogs();
        let pixels: Vec<usize> = all.iter().map(|p| p.width * p.height).collect();
        for w in pixels.windows(2) {
            assert!(
                w[0] < w[1],
                "dataset resolutions should increase: {pixels:?}"
            );
        }
    }

    #[test]
    fn tiny_dataset_generates_quickly_and_consistently() {
        let ds = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), 3);
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.poses_c2w.len(), 3);
        assert_eq!(ds.frames[0].color.width(), 24);
        assert!(ds.frames[0].depth.is_some());
    }

    #[test]
    fn frames_show_scene_content() {
        let ds = SyntheticDataset::generate(DatasetProfile::replica_analog().tiny(), 2);
        // The room encloses the camera, so a majority of pixels should be lit.
        let lit = ds.frames[0]
            .color
            .data()
            .iter()
            .filter(|c| c.norm() > 0.05)
            .count();
        assert!(
            lit > ds.frames[0].color.data().len() / 2,
            "only {lit} lit pixels"
        );
    }

    #[test]
    fn consecutive_frames_are_similar_but_not_identical() {
        let ds = SyntheticDataset::generate(DatasetProfile::replica_analog().tiny(), 3);
        let d01 = ds.frames[0].color.mean_abs_diff(&ds.frames[1].color);
        assert!(d01 > 0.0, "frames should differ");
        assert!(
            d01 < 0.2,
            "consecutive frames should be similar, diff {d01}"
        );
    }

    #[test]
    fn scene_variants_differ() {
        let p = DatasetProfile::replica_analog().tiny();
        let a = SyntheticDataset::generate_scene_variant(p.clone(), 1, 0);
        let b = SyntheticDataset::generate_scene_variant(p, 1, 1);
        assert!(a.frames[0].color.mean_abs_diff(&b.frames[0].color) > 0.01);
    }

    #[test]
    fn generation_is_deterministic() {
        let p = DatasetProfile::tum_analog().tiny();
        let a = SyntheticDataset::generate(p.clone(), 2);
        let b = SyntheticDataset::generate(p, 2);
        assert_eq!(a.frames[1].color.data(), b.frames[1].color.data());
    }

    #[test]
    fn scene_name_lists_match_paper() {
        assert_eq!(DatasetProfile::replica_analog().scene_names().len(), 7);
        assert_eq!(DatasetProfile::tum_analog().scene_names().len(), 3);
        assert_eq!(DatasetProfile::scannet_analog().scene_names().len(), 6);
        assert_eq!(DatasetProfile::scannetpp_analog().scene_names().len(), 2);
    }

    /// The generator renders its room through the cull, as SLAM does, and
    /// frame-parallel; the first frames of the full-size Replica analog
    /// (1 320 Gaussians over many shards, most outside any one frustum) must
    /// equal the flat AoS oracle's render of the whole flattened map, bit
    /// for bit, so the cull drops nothing that contributes. Nine frames are
    /// three claims of the frame loop, the last one partial.
    #[test]
    fn generated_frames_equal_the_flat_oracle() {
        let frames = 2 * POSE_CHUNK + 1;
        let ds = SyntheticDataset::generate(DatasetProfile::replica_analog(), frames);
        assert_eq!(ds.len(), frames);
        let (flat, _) = ds.reference_scene.flatten();
        assert!(ds.reference_scene.shard_count() > 100, "a many-shard room");
        let mut arena = FrameArena::new();
        let mut culled_some = false;
        for (frame, pose) in ds.frames.iter().zip(&ds.poses_c2w) {
            arena.cull(
                &ds.reference_scene,
                &pose.inverse(),
                &ds.camera,
                None,
                &Serial,
            );
            culled_some |= arena.visible().ids.len() < ds.reference_scene.len();
            let (_, _, rendered) =
                rtgs_render::reference::render_frame_aos(&flat, &pose.inverse(), &ds.camera, None);
            let want = rendered.output;
            assert_eq!(frame.color, want.image, "frame {}: color", frame.index);
            assert_eq!(
                frame.depth.as_ref().expect("Replica has depth"),
                &surface_depth(&want),
                "frame {}: depth",
                frame.index
            );
        }
        assert!(culled_some, "the cull must drop shards here");
    }

    #[test]
    fn depth_maps_are_positive_where_covered() {
        let ds = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), 1);
        let depth = ds.frames[0].depth.as_ref().unwrap();
        let positive = depth.data().iter().filter(|&&d| d > 0.0).count();
        assert!(positive > 0);
    }
}
