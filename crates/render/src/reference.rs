//! Reference implementations the production kernels are tested against —
//! hidden from the documented API, reachable by the equivalence suite and
//! the comparison benches only.
//!
//! * **The seed's array-of-structs (AoS) rasterizer**, preserved verbatim as
//!   the bitwise ground truth for the SoA/fused kernels. The production
//!   pipeline stores splats in a structure-of-arrays layout and fuses the
//!   forward blend with the backward pass's transmittance bookkeeping (see
//!   [`crate::ProjectedSoA`] and [`crate::FrameArena::render_fused`]). This
//!   module keeps the original per-Gaussian path —
//!   `Vec<Option<Projected2d>>` storage, Gaussian-ID tile lists, per-pixel
//!   Option-checked fragment walks.
//! * **The legacy per-tile sort** ([`build_tile_lists_legacy`]), the
//!   ordering ground truth for the CSR + radix tile assignment.
//! * **The backward re-walk** ([`backward_rewalk`]), the unfused Step-❹
//!   driver the fused pass must reproduce.
//!
//! `tests/equivalence.rs` asserts that images, depth maps and gradients are
//! **bitwise-identical** between these and every production spelling over
//! random scenes; the `soa_vs_aos`, `tile_sort` and `fused_tile_pass` bench
//! groups keep measuring what the production layout actually buys.
//!
//! The AoS path runs serially: it is a correctness oracle, not a fast path.

use crate::arena::FrameArena;
use crate::backward::{
    backward_into, preprocess_one, Accum2d, BackwardOutput, BackwardStats, PixelGrads, PoseFrame,
};
use crate::camera::{DepthImage, Image, PinholeCamera};
use crate::forward::{
    fragment_alpha, pixel_center, tile_pixels, RenderOutput, RenderStats, ALPHA_MAX, ALPHA_MIN,
    TERMINATION_THRESHOLD,
};
use crate::gaussian::GaussianScene;
use crate::project::{project_one, Projected2d, Projection};
use crate::tiles::{tile_pixel_rect, TILE_SIZE};
use rtgs_math::{Se3, Vec3};
use rtgs_runtime::Backend;

/// Gaussians per chunk of the reference preprocessing-BP fold; must match
/// the production constant so the pose-tangent summation tree is identical.
const BP_GAUSS_CHUNK: usize = crate::backward::BP_GAUSS_CHUNK;

/// Array-of-structs projection output: one optional splat per scene
/// Gaussian, indexed by Gaussian ID.
#[derive(Debug, Clone)]
pub struct AosProjection {
    /// Per-Gaussian projection results.
    pub splats: Vec<Option<Projected2d>>,
    /// Gaussians culled by the near plane or frustum test.
    pub culled: usize,
    /// Gaussians skipped by the active mask.
    pub masked: usize,
}

impl AosProjection {
    /// Number of visible splats.
    pub fn visible_count(&self) -> usize {
        self.splats.iter().filter(|s| s.is_some()).count()
    }
}

/// Per-tile depth-sorted *Gaussian ID* lists (the seed's tile assignment).
#[derive(Debug, Clone)]
pub struct AosTileAssignment {
    /// Tiles along x.
    pub tiles_x: usize,
    /// Tiles along y.
    pub tiles_y: usize,
    /// Depth-sorted Gaussian IDs per tile (row-major tile grid).
    pub tile_lists: Vec<Vec<u32>>,
}

/// Projects every active Gaussian (serial, AoS output).
///
/// # Panics
///
/// Panics if `active` is provided with a length different from the scene.
pub fn project_scene_aos(
    scene: &GaussianScene,
    w2c: &Se3,
    camera: &PinholeCamera,
    active: Option<&[bool]>,
) -> AosProjection {
    if let Some(mask) = active {
        assert_eq!(
            mask.len(),
            scene.len(),
            "active mask length must match scene size"
        );
    }
    let rot = w2c.rotation_matrix();
    let mut splats: Vec<Option<Projected2d>> = vec![None; scene.len()];
    let mut culled = 0usize;
    let mut masked = 0usize;
    for (id, g) in scene.gaussians.iter().enumerate() {
        if let Some(mask) = active {
            if !mask[id] {
                masked += 1;
                continue;
            }
        }
        match project_one(g, id as u32, &rot, w2c, camera) {
            Some(splat) => splats[id] = Some(splat),
            None => culled += 1,
        }
    }
    AosProjection {
        splats,
        culled,
        masked,
    }
}

/// Builds Gaussian-ID tile lists from an AoS projection (binning in splat
/// order, then a per-tile front-to-back depth sort).
pub fn build_tiles_aos(projection: &AosProjection, camera: &PinholeCamera) -> AosTileAssignment {
    let tiles_x = camera.width.div_ceil(TILE_SIZE);
    let tiles_y = camera.height.div_ceil(TILE_SIZE);
    let mut tile_lists: Vec<Vec<u32>> = vec![Vec::new(); tiles_x * tiles_y];

    for splat in projection.splats.iter().flatten() {
        let x0 = ((splat.mean.x - splat.radius) / TILE_SIZE as f32)
            .floor()
            .max(0.0) as usize;
        let y0 = ((splat.mean.y - splat.radius) / TILE_SIZE as f32)
            .floor()
            .max(0.0) as usize;
        let x1 = (((splat.mean.x + splat.radius) / TILE_SIZE as f32).floor() as isize)
            .clamp(0, tiles_x as isize - 1) as usize;
        let y1 = (((splat.mean.y + splat.radius) / TILE_SIZE as f32).floor() as isize)
            .clamp(0, tiles_y as isize - 1) as usize;
        let (x0, y0) = (x0.min(tiles_x - 1), y0.min(tiles_y - 1));
        for ty in y0..=y1 {
            for tx in x0..=x1 {
                tile_lists[ty * tiles_x + tx].push(splat.id);
            }
        }
    }

    for list in &mut tile_lists {
        list.sort_by(|&a, &b| {
            let da = projection.splats[a as usize].as_ref().map(|s| s.depth);
            let db = projection.splats[b as usize].as_ref().map(|s| s.depth);
            da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
        });
    }

    AosTileAssignment {
        tiles_x,
        tiles_y,
        tile_lists,
    }
}

/// The seed's forward render: per pixel, walk the tile's Gaussian-ID list
/// through the `Option` storage.
pub fn render_aos(
    projection: &AosProjection,
    tiles: &AosTileAssignment,
    camera: &PinholeCamera,
) -> RenderOutput {
    let mut image = Image::new(camera.width, camera.height);
    let mut depth = DepthImage::new(camera.width, camera.height);
    let mut final_t = vec![1.0f32; camera.pixel_count()];
    let mut workloads = vec![0u32; camera.pixel_count()];
    let mut stats = RenderStats::default();

    for tile in 0..tiles.tile_lists.len() {
        let list = &tiles.tile_lists[tile];
        if list.is_empty() {
            continue;
        }
        let (tx, ty) = (tile % tiles.tiles_x, tile / tiles.tiles_x);
        let (x0, y0, x1, y1) = tile_pixel_rect(tx, ty, camera);
        for y in y0..y1 {
            for x in x0..x1 {
                let p = pixel_center(x, y);
                let mut color = Vec3::ZERO;
                let mut d_acc = 0.0f32;
                let mut t = 1.0f32;
                let mut processed = 0u32;
                for &id in list {
                    let Some(splat) = projection.splats[id as usize].as_ref() else {
                        continue;
                    };
                    processed += 1;
                    stats.fragments_processed += 1;
                    let (alpha, _) = fragment_alpha(splat.mean, &splat.conic, splat.opacity, p);
                    if alpha < ALPHA_MIN {
                        continue;
                    }
                    stats.fragments_blended += 1;
                    color += splat.color * (t * alpha);
                    d_acc += splat.depth * (t * alpha);
                    t *= 1.0 - alpha;
                    if t < TERMINATION_THRESHOLD {
                        stats.early_terminated_pixels += 1;
                        break;
                    }
                }
                let idx = y * camera.width + x;
                image.data_mut()[idx] = color;
                depth.data_mut()[idx] = d_acc;
                final_t[idx] = t;
                workloads[idx] = processed;
            }
        }
    }

    RenderOutput {
        image,
        depth,
        final_transmittance: final_t,
        pixel_workloads: workloads,
        stats,
    }
}

/// One recomputed fragment during the AoS backward re-walk.
struct AosFragment<'a> {
    splat: &'a Projected2d,
    /// Position of the splat in the tile's list.
    slot: usize,
    alpha: f32,
    weight: f32,
    t_before: f32,
}

/// The seed's backward pass over AoS storage (Steps ❹–❺, serial, with the
/// production reduction trees so the fold is bit-compatible).
///
/// # Panics
///
/// Panics if the gradient buffers do not match `camera`'s pixel count.
pub fn backward_aos(
    scene: &GaussianScene,
    projection: &AosProjection,
    tiles: &AosTileAssignment,
    camera: &PinholeCamera,
    w2c: &Se3,
    pixel_grads: &PixelGrads,
) -> BackwardOutput {
    assert_eq!(pixel_grads.color.len(), camera.pixel_count());
    assert_eq!(pixel_grads.depth.len(), camera.pixel_count());
    assert_eq!(pixel_grads.transmittance.len(), camera.pixel_count());

    let mut stats = BackwardStats::default();
    let t_start = std::time::Instant::now();

    // ---- Step ❹: Rendering BP (tile order) ------------------------------
    let mut accum = vec![Accum2d::default(); scene.len()];
    let mut fragments: Vec<AosFragment> = Vec::with_capacity(64);
    for tile in 0..tiles.tile_lists.len() {
        let list = &tiles.tile_lists[tile];
        if list.is_empty() {
            continue;
        }
        let mut partial: Vec<Accum2d> = Vec::new();
        let mut events = 0u64;
        let (tx, ty) = (tile % tiles.tiles_x, tile / tiles.tiles_x);
        // Pixels in `TileFragments::pixel_index` order: the per-Gaussian
        // summation order of Step ❹ on every path.
        for (x, y) in tile_pixels(tile_pixel_rect(tx, ty, camera)) {
            let idx = y * camera.width + x;
            let g_color = pixel_grads.color[idx];
            let g_depth = pixel_grads.depth[idx];
            let g_trans = pixel_grads.transmittance[idx];
            if g_color == Vec3::ZERO && g_depth == 0.0 && g_trans == 0.0 {
                continue;
            }
            if partial.is_empty() {
                partial = vec![Accum2d::default(); list.len()];
            }
            let p = pixel_center(x, y);

            fragments.clear();
            let mut t = 1.0f32;
            for (slot, &id) in list.iter().enumerate() {
                let Some(splat) = projection.splats[id as usize].as_ref() else {
                    continue;
                };
                let (alpha, weight) = fragment_alpha(splat.mean, &splat.conic, splat.opacity, p);
                if alpha < ALPHA_MIN {
                    continue;
                }
                fragments.push(AosFragment {
                    splat,
                    slot,
                    alpha,
                    weight,
                    t_before: t,
                });
                t *= 1.0 - alpha;
                if t < TERMINATION_THRESHOLD {
                    break;
                }
            }

            let t_final = t;
            let mut suffix_color = Vec3::ZERO;
            let mut suffix_depth = 0.0f32;
            for frag in fragments.iter().rev() {
                let s = frag.splat;
                let t_k = frag.t_before;
                let alpha = frag.alpha;
                let w = t_k * alpha;
                let one_minus = 1.0 - alpha;

                let dc_dalpha = s.color * t_k - suffix_color / one_minus;
                let dd_dalpha = s.depth * t_k - suffix_depth / one_minus;
                let dt_dalpha = -t_final / one_minus;
                let dl_dalpha = g_color.dot(dc_dalpha) + g_depth * dd_dalpha + g_trans * dt_dalpha;

                let a = &mut partial[frag.slot];
                a.hit = true;
                a.color += g_color * w;
                a.depth += g_depth * w;

                if alpha < ALPHA_MAX {
                    a.opacity += dl_dalpha * frag.weight;
                    let dl_dq = -0.5 * dl_dalpha * s.opacity * frag.weight;
                    let delta = p - s.mean;
                    let conic_delta = s.conic.mul_vec(delta);
                    a.mean += conic_delta * (-2.0 * dl_dq);
                    a.conic = a.conic
                        + rtgs_math::Sym2::new(
                            delta.x * delta.x,
                            delta.x * delta.y,
                            delta.y * delta.y,
                        ) * dl_dq;
                }
                events += 1;

                suffix_color += s.color * w;
                suffix_depth += s.depth * w;
            }
        }
        stats.fragment_grad_events += events;
        for (slot, &id) in list.iter().enumerate() {
            if !partial.is_empty() && partial[slot].hit {
                accum[id as usize].merge(&partial[slot]);
            }
        }
    }

    stats.rendering_bp_nanos = t_start.elapsed().as_nanos() as u64;
    let t_phase2 = std::time::Instant::now();

    // ---- Step ❺: Preprocessing BP (production chunk fold) ----------------
    let frame = PoseFrame::of(w2c);
    let mut gaussian_grads = scene.zero_grads();
    let mut pose = [0.0f32; 6];
    let mut start = 0usize;
    while start < scene.len() {
        let end = (start + BP_GAUSS_CHUNK).min(scene.len());
        let mut chunk_pose = [0.0f32; 6];
        for id in start..end {
            let a = &accum[id];
            if !a.hit {
                continue;
            }
            let Some(splat) = projection.splats[id].as_ref() else {
                continue;
            };
            stats.gaussians_touched += 1;
            preprocess_one(
                &scene.gaussians[id],
                splat,
                a,
                camera,
                &frame,
                &mut gaussian_grads[id],
                &mut chunk_pose,
            );
        }
        for (acc, p) in pose.iter_mut().zip(chunk_pose.iter()) {
            *acc += p;
        }
        start = end;
    }

    stats.preprocessing_bp_nanos = t_phase2.elapsed().as_nanos() as u64;

    BackwardOutput {
        gaussians: gaussian_grads,
        pose,
        stats,
    }
}

/// Convenience: the full AoS forward pipeline (project → tiles → render).
pub fn render_frame_aos(
    scene: &GaussianScene,
    w2c: &Se3,
    camera: &PinholeCamera,
    active: Option<&[bool]>,
) -> (AosProjection, AosTileAssignment, RenderOutput) {
    let projection = project_scene_aos(scene, w2c, camera, active);
    let tiles = build_tiles_aos(&projection, camera);
    let output = render_aos(&projection, &tiles, camera);
    (projection, tiles, output)
}

/// The legacy tile binning: per-tile `Vec`s filled in slot order, each
/// stably `sort_by`-ed on the SoA depth array — the seed's Step-❷
/// algorithm, preserved as the ordering ground truth for the CSR + radix
/// path (equivalence property-tested in `tests/equivalence.rs`, compared
/// in the `tile_sort` bench group).
pub fn build_tile_lists_legacy(projection: &Projection, camera: &PinholeCamera) -> Vec<Vec<u32>> {
    let soa = &projection.soa;
    let tiles_x = camera.width.div_ceil(TILE_SIZE);
    let tiles_y = camera.height.div_ceil(TILE_SIZE);
    assert_eq!(soa.tiles_x, tiles_x, "projection/camera tile grid");
    assert_eq!(soa.tiles_y, tiles_y, "projection/camera tile grid");
    let mut tile_lists: Vec<Vec<u32>> = vec![Vec::new(); tiles_x * tiles_y];
    for (slot, &[tx0, tx1, ty0, ty1]) in soa.tile_rects.iter().enumerate() {
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                tile_lists[ty as usize * tiles_x + tx as usize].push(slot as u32);
            }
        }
    }
    let depths = &soa.depths;
    for list in &mut tile_lists {
        list.sort_by(|&a, &b| {
            depths[a as usize]
                .partial_cmp(&depths[b as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }
    tile_lists
}

/// Steps ❹–❺ through the re-walk driver with explicit upstream gradients:
/// consumes `arena`'s current projection and tile assignment (not its
/// fragment cache or loss) and leaves the result in
/// [`FrameArena::backward`]. `scene` must be the scene the projection was
/// built from.
///
/// # Panics
///
/// Panics if the gradient buffers do not match `camera`'s pixel count.
pub fn backward_rewalk(
    arena: &mut FrameArena,
    scene: &GaussianScene,
    camera: &PinholeCamera,
    w2c: &Se3,
    pixel_grads: &PixelGrads,
    backend: &dyn Backend,
) {
    backward_into(
        scene,
        &arena.projection,
        &arena.tiles,
        camera,
        w2c,
        pixel_grads,
        None,
        backend,
        &mut arena.backward_scratch,
        &mut arena.backward,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::Gaussian3d;
    use rtgs_math::{Quat, Vec3};

    #[test]
    fn aos_pipeline_renders_center_gaussian() {
        let scene = GaussianScene::from_gaussians(vec![Gaussian3d::from_activated(
            Vec3::new(0.0, 0.0, 2.0),
            Vec3::splat(0.5),
            Quat::IDENTITY,
            0.9,
            Vec3::X,
        )]);
        let cam = PinholeCamera::from_fov(32, 32, 1.2);
        let (proj, _, out) = render_frame_aos(&scene, &Se3::IDENTITY, &cam, None);
        assert_eq!(proj.visible_count(), 1);
        assert!(out.image.pixel(16, 16).x > 0.0);
    }
}
