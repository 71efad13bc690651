//! Map management: seeding from RGB-D observations, densification at
//! high-error regions, and low-opacity cleanup.
//!
//! The map is a [`ShardedScene`]: seeding and densification insert through
//! the spatial hash (recycling tombstoned IDs), cleanup tombstones in
//! place, and no operation ever reindexes a surviving Gaussian — the stable
//! IDs the optimizer moments, pruning scores and active masks are keyed by
//! stay valid across any interleaving.

use crate::optimizer::MapOptimizer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtgs_math::{Quat, Se3, Vec3};
use rtgs_render::{
    Gaussian3d, Image, PinholeCamera, RenderOutput, ShardedScene, DEFAULT_CELL_SIZE,
};
use rtgs_scene::RgbdFrame;

/// Map management parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapConfig {
    /// Pixel stride when seeding from a frame (one Gaussian per
    /// `stride × stride` block).
    pub seed_stride: usize,
    /// Photometric error (mean abs per channel) above which a pixel spawns
    /// a densification candidate.
    pub densify_error_threshold: f32,
    /// Maximum Gaussians added per densification pass.
    pub densify_max_per_pass: usize,
}

impl Default for MapConfig {
    fn default() -> Self {
        Self {
            seed_stride: 2,
            densify_error_threshold: 0.08,
            densify_max_per_pass: 200,
        }
    }
}

/// Scale multiplier relating seeded Gaussian size to pixel footprint.
const SEED_SCALE: f32 = 0.9;
/// Initial opacity of seeded Gaussians.
const SEED_OPACITY: f32 = 0.65;
/// Activated opacity below which a Gaussian is removed during cleanup.
const PRUNE_OPACITY_THRESHOLD: f32 = 0.02;
/// Hard cap on the map size (memory budget).
const MAX_GAUSSIANS: usize = 60_000;
/// Depth assumed for monocular seeding when no depth image exists.
const MONO_DEPTH_PRIOR: f32 = 2.5;

/// Seeds Gaussians from an observation by backprojecting a strided pixel
/// grid (the standard RGB-D initialization of SplaTAM/MonoGS) into a fresh
/// sharded map store.
///
/// `c2w` is the camera-to-world pose of the frame. Pixels without valid
/// depth fall back to `MONO_DEPTH_PRIOR` (2.5 m) with jitter (monocular
/// seeding). The map's shards use [`DEFAULT_CELL_SIZE`].
///
/// Degenerate inputs are handled explicitly: a zero-sized frame (or a
/// frame smaller than the camera on either axis, which clamps the sampled
/// region) yields an empty map, and a `seed_stride` at least as large as
/// both image dimensions yields exactly one Gaussian — the `(0, 0)` block.
pub fn seed_from_frame(
    frame: &RgbdFrame,
    camera: &PinholeCamera,
    c2w: &Se3,
    config: &MapConfig,
    seed: u64,
) -> ShardedScene {
    let mut map = ShardedScene::new(DEFAULT_CELL_SIZE);
    // Sample only where both the camera and the observation have pixels; a
    // zero-sized frame therefore seeds nothing rather than panicking on an
    // out-of-bounds read.
    let mut width = camera.width.min(frame.color.width());
    let mut height = camera.height.min(frame.color.height());
    if let Some(depth) = frame.depth.as_ref() {
        width = width.min(depth.width());
        height = height.min(depth.height());
    }
    if width == 0 || height == 0 {
        return map;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let stride = config.seed_stride.max(1);
    for y in (0..height).step_by(stride) {
        for x in (0..width).step_by(stride) {
            let depth = frame
                .depth
                .as_ref()
                .map(|d| d.depth(x, y))
                .filter(|&d| d > 0.0)
                .unwrap_or_else(|| MONO_DEPTH_PRIOR * rng.gen_range(0.7..1.3));
            let p_cam = Vec3::new(
                (x as f32 + 0.5 - camera.cx) * depth / camera.fx,
                (y as f32 + 0.5 - camera.cy) * depth / camera.fy,
                depth,
            );
            let position = c2w.transform_point(p_cam);
            // Pixel footprint at this depth defines the Gaussian's extent.
            let extent = SEED_SCALE * depth * stride as f32 / camera.fx;
            map.insert(Gaussian3d::from_activated(
                position,
                Vec3::splat(extent.max(1e-3)),
                Quat::IDENTITY,
                SEED_OPACITY,
                frame.color.pixel(x, y),
            ));
        }
    }
    map
}

/// Adds Gaussians at high-photometric-error pixels with valid depth
/// (densification), registering each new stable ID with the optimizer
/// (recycled IDs get zeroed moments). Returns the inserted IDs.
#[allow(clippy::too_many_arguments)]
pub fn densify(
    map: &mut ShardedScene,
    optimizer: &mut MapOptimizer,
    rendered: &RenderOutput,
    frame: &RgbdFrame,
    camera: &PinholeCamera,
    c2w: &Se3,
    config: &MapConfig,
    seed: u64,
) -> Vec<u32> {
    if map.len() >= MAX_GAUSSIANS {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // Collect candidate pixels by error.
    let mut candidates: Vec<(f32, usize, usize)> = Vec::new();
    for y in 0..camera.height {
        for x in 0..camera.width {
            let err = pixel_error(&rendered.image, &frame.color, x, y);
            if err > config.densify_error_threshold {
                candidates.push((err, x, y));
            }
        }
    }
    candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    let budget = config.densify_max_per_pass.min(MAX_GAUSSIANS - map.len());

    let mut added = Vec::new();
    for &(_, x, y) in candidates.iter().take(budget) {
        let depth = match frame.depth.as_ref().map(|d| d.depth(x, y)) {
            Some(d) if d > 0.0 => d,
            // Fall back to the rendered depth if the model already covers
            // the pixel, otherwise the monocular prior.
            _ => {
                let rd = rendered.depth.depth(x, y);
                if rd > 0.0 {
                    rd
                } else {
                    MONO_DEPTH_PRIOR * rng.gen_range(0.8..1.2)
                }
            }
        };
        let p_cam = Vec3::new(
            (x as f32 + 0.5 - camera.cx) * depth / camera.fx,
            (y as f32 + 0.5 - camera.cy) * depth / camera.fy,
            depth,
        );
        let extent = SEED_SCALE * depth / camera.fx;
        let id = map.insert(Gaussian3d::from_activated(
            c2w.transform_point(p_cam),
            Vec3::splat(extent.max(1e-3)),
            Quat::IDENTITY,
            SEED_OPACITY,
            frame.color.pixel(x, y),
        ));
        optimizer.register(id);
        added.push(id);
    }
    added
}

/// Tombstones Gaussians whose activated opacity dropped below the cleanup
/// threshold (0.02). Returns the number removed. Surviving IDs — and therefore
/// the optimizer moments keyed by them — are untouched.
///
/// This is the standard 3DGS housekeeping pass, distinct from RTGS's
/// gradient-based adaptive pruning (`rtgs-core`).
pub fn prune_transparent(map: &mut ShardedScene) -> usize {
    let doomed: Vec<u32> = map
        .live_ids()
        .filter(|&id| map.gaussian(id).opacity_activated() < PRUNE_OPACITY_THRESHOLD)
        .collect();
    for &id in &doomed {
        map.tombstone(id);
    }
    doomed.len()
}

fn pixel_error(rendered: &Image, gt: &Image, x: usize, y: usize) -> f32 {
    let d = rendered.pixel(x, y) - gt.pixel(x, y);
    (d.x.abs() + d.y.abs() + d.z.abs()) / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::MapLearningRates;
    use rtgs_render::DepthImage;

    fn camera() -> PinholeCamera {
        PinholeCamera::from_fov(16, 12, 1.2)
    }

    fn frame_with_depth(depth: f32) -> RgbdFrame {
        let cam = camera();
        RgbdFrame {
            index: 0,
            color: Image::from_data(
                cam.width,
                cam.height,
                vec![Vec3::new(0.8, 0.4, 0.2); cam.pixel_count()],
            ),
            depth: Some(DepthImage::from_data(
                cam.width,
                cam.height,
                vec![depth; cam.pixel_count()],
            )),
        }
    }

    fn positions(map: &ShardedScene) -> Vec<Vec3> {
        map.live_ids().map(|id| map.gaussian(id).position).collect()
    }

    #[test]
    fn seeding_covers_strided_grid() {
        let cam = camera();
        let frame = frame_with_depth(2.0);
        let cfg = MapConfig {
            seed_stride: 2,
            ..Default::default()
        };
        let map = seed_from_frame(&frame, &cam, &Se3::IDENTITY, &cfg, 1);
        assert_eq!(map.len(), (16 / 2) * (12 / 2));
        // All seeds sit at depth 2 in front of the camera.
        for p in positions(&map) {
            assert!((p.z - 2.0).abs() < 1e-4);
        }
    }

    #[test]
    fn seeded_colors_match_observation() {
        let cam = camera();
        let frame = frame_with_depth(1.5);
        let map = seed_from_frame(&frame, &cam, &Se3::IDENTITY, &MapConfig::default(), 1);
        for id in map.live_ids() {
            assert!((map.gaussian(id).color - Vec3::new(0.8, 0.4, 0.2)).max_abs() < 1e-6);
        }
    }

    #[test]
    fn seeding_respects_pose() {
        let cam = camera();
        let frame = frame_with_depth(2.0);
        let c2w = Se3::from_translation(Vec3::new(5.0, 0.0, 0.0));
        let map = seed_from_frame(&frame, &cam, &c2w, &MapConfig::default(), 1);
        let mean_x = positions(&map).iter().map(|p| p.x).sum::<f32>() / map.len() as f32;
        assert!((mean_x - 5.0).abs() < 0.5);
    }

    #[test]
    fn monocular_seeding_uses_prior() {
        let cam = camera();
        let mut frame = frame_with_depth(2.0);
        frame.depth = None;
        let map = seed_from_frame(&frame, &cam, &Se3::IDENTITY, &MapConfig::default(), 1);
        for p in positions(&map) {
            assert!(p.z > MONO_DEPTH_PRIOR * 0.6 && p.z < MONO_DEPTH_PRIOR * 1.4);
        }
    }

    #[test]
    fn oversized_stride_seeds_single_gaussian() {
        // Regression: a stride larger than both image dimensions must yield
        // exactly the (0, 0) block's Gaussian, by contract rather than by
        // accident of `step_by`.
        let cam = camera();
        let frame = frame_with_depth(2.0);
        for stride in [16, 17, 1000, usize::MAX] {
            let cfg = MapConfig {
                seed_stride: stride,
                ..Default::default()
            };
            let map = seed_from_frame(&frame, &cam, &Se3::IDENTITY, &cfg, 1);
            assert_eq!(map.len(), 1, "stride {stride}");
            let p = positions(&map)[0];
            // The (0, 0) pixel backprojects to the top-left of the frustum.
            assert!(p.x < 0.0 && p.y < 0.0 && (p.z - 2.0).abs() < 1e-4);
        }
    }

    #[test]
    fn zero_sized_frame_seeds_empty_map() {
        // Regression: observations with no pixels must produce an empty map
        // instead of panicking on an out-of-bounds read.
        let cam = camera();
        let empty_color = RgbdFrame {
            index: 0,
            color: Image::new(0, 0),
            depth: None,
        };
        let map = seed_from_frame(&empty_color, &cam, &Se3::IDENTITY, &MapConfig::default(), 1);
        assert!(map.is_empty());

        let empty_depth = RgbdFrame {
            index: 0,
            color: Image::from_data(
                cam.width,
                cam.height,
                vec![Vec3::splat(0.5); cam.pixel_count()],
            ),
            depth: Some(DepthImage::new(0, 0)),
        };
        let map = seed_from_frame(&empty_depth, &cam, &Se3::IDENTITY, &MapConfig::default(), 1);
        assert!(map.is_empty());
    }

    #[test]
    fn undersized_frame_clamps_sampling() {
        // A frame smaller than the camera resolution seeds only where
        // observations exist (no out-of-bounds panic).
        let cam = camera();
        let frame = RgbdFrame {
            index: 0,
            color: Image::from_data(4, 4, vec![Vec3::splat(0.5); 16]),
            depth: None,
        };
        let cfg = MapConfig {
            seed_stride: 2,
            ..Default::default()
        };
        let map = seed_from_frame(&frame, &cam, &Se3::IDENTITY, &cfg, 1);
        assert_eq!(map.len(), 4); // 4/2 × 4/2
    }

    #[test]
    fn densify_adds_where_error_is_high() {
        let cam = camera();
        let frame = frame_with_depth(2.0);
        let mut map = ShardedScene::new(1.0);
        let mut opt = MapOptimizer::new(0, MapLearningRates::default());
        // Rendered output is black everywhere -> every pixel is high-error.
        let rendered = RenderOutput {
            image: Image::new(cam.width, cam.height),
            depth: DepthImage::new(cam.width, cam.height),
            final_transmittance: vec![1.0; cam.pixel_count()],
            stats: Default::default(),
        };
        let cfg = MapConfig {
            densify_max_per_pass: 10,
            ..Default::default()
        };
        let added = densify(
            &mut map,
            &mut opt,
            &rendered,
            &frame,
            &cam,
            &Se3::IDENTITY,
            &cfg,
            2,
        );
        assert_eq!(added.len(), 10);
        assert_eq!(map.len(), 10);
        assert_eq!(opt.capacity(), 10);
    }

    #[test]
    fn densify_respects_budget_cap() {
        let cam = camera();
        let frame = frame_with_depth(2.0);
        let mut map = seed_from_frame(&frame, &cam, &Se3::IDENTITY, &MapConfig::default(), 1);
        // Pre-fill the map to three below the cap.
        let filler = *map.gaussian(0);
        while map.len() < MAX_GAUSSIANS - 3 {
            map.insert(filler);
        }
        let mut opt = MapOptimizer::new(map.capacity(), MapLearningRates::default());
        let rendered = RenderOutput {
            image: Image::new(cam.width, cam.height),
            depth: DepthImage::new(cam.width, cam.height),
            final_transmittance: vec![1.0; cam.pixel_count()],
            stats: Default::default(),
        };
        let cfg = MapConfig {
            densify_max_per_pass: 100,
            ..Default::default()
        };
        let added = densify(
            &mut map,
            &mut opt,
            &rendered,
            &frame,
            &cam,
            &Se3::IDENTITY,
            &cfg,
            2,
        );
        assert_eq!(added.len(), 3);
        assert_eq!(map.len(), MAX_GAUSSIANS);
    }

    #[test]
    fn densify_recycles_tombstoned_ids() {
        let cam = camera();
        let frame = frame_with_depth(2.0);
        let mut map = seed_from_frame(&frame, &cam, &Se3::IDENTITY, &MapConfig::default(), 1);
        let mut opt = MapOptimizer::new(map.capacity(), MapLearningRates::default());
        map.tombstone(0);
        map.tombstone(5);
        let capacity_before = map.capacity();
        let rendered = RenderOutput {
            image: Image::new(cam.width, cam.height),
            depth: DepthImage::new(cam.width, cam.height),
            final_transmittance: vec![1.0; cam.pixel_count()],
            stats: Default::default(),
        };
        let cfg = MapConfig {
            densify_max_per_pass: 2,
            ..Default::default()
        };
        let added = densify(
            &mut map,
            &mut opt,
            &rendered,
            &frame,
            &cam,
            &Se3::IDENTITY,
            &cfg,
            2,
        );
        assert_eq!(added.len(), 2);
        let mut recycled = added.clone();
        recycled.sort_unstable();
        assert_eq!(recycled, vec![0, 5], "freed IDs are recycled first");
        assert_eq!(map.capacity(), capacity_before, "no arena growth needed");
    }

    #[test]
    fn prune_removes_transparent_gaussians() {
        let cam = camera();
        let frame = frame_with_depth(2.0);
        let mut map = seed_from_frame(&frame, &cam, &Se3::IDENTITY, &MapConfig::default(), 1);
        let n = map.len();
        let opt = MapOptimizer::new(map.capacity(), MapLearningRates::default());
        // Make half the map transparent.
        for id in 0..(n / 2) as u32 {
            map.gaussian_mut(id).opacity = rtgs_math::logit(0.001);
        }
        let removed = prune_transparent(&mut map);
        assert_eq!(removed, n / 2);
        assert_eq!(map.len(), n - n / 2);
        // Tombstoning keeps the arena (and the moment arrays) sized.
        assert_eq!(map.capacity(), n);
        assert_eq!(opt.capacity(), n);
        // Survivors keep their IDs.
        for id in (n / 2) as u32..n as u32 {
            assert!(map.is_live(id));
        }
    }

    #[test]
    fn prune_noop_when_all_opaque() {
        let cam = camera();
        let frame = frame_with_depth(2.0);
        let mut map = seed_from_frame(&frame, &cam, &Se3::IDENTITY, &MapConfig::default(), 1);
        assert_eq!(prune_transparent(&mut map), 0);
    }
}
