//! Step ❶ Preprocessing: projection of 3D Gaussians to 2D splats
//! (paper Fig. 1, Step ❶-1) via EWA splatting.
//!
//! The output is a dense structure-of-arrays layout ([`ProjectedSoA`]): one
//! contiguous array per splat field (means, conic coefficients, colors,
//! opacities, depths, tile ranges, …), indexed by *slot* — the rank of the
//! splat among visible splats in Gaussian-ID order. The render and backward
//! kernels walk these arrays sequentially per tile, which vectorizes and
//! avoids dragging cold fields (covariance, camera-frame position) through
//! the cache on the per-fragment hot path. The seed's array-of-structs path
//! is preserved in [`crate::reference`] as the bitwise ground truth.

use crate::camera::PinholeCamera;
use crate::gaussian::{Gaussian3d, GaussianScene};
use crate::tiles::TILE_SIZE;
use rtgs_math::{Mat3, Se3, Sym2, Vec2, Vec3};
use rtgs_runtime::{exclusive_prefix_sum_into, Backend, SharedSlice};

/// Gaussians per chunk in the chunked projection. Fixed by the algorithm —
/// never derived from the worker count — so per-chunk statistics fold
/// identically on every backend and pool size.
pub(crate) const PROJECT_CHUNK: usize = 256;

/// Near-plane cull distance in meters (0.2 in the reference rasterizer).
pub const NEAR_PLANE: f32 = 0.2;

/// Guard-band factor for the EWA frustum clamp: `t_x/t_z` is clamped to
/// ±`FRUSTUM_CLAMP`·tan(fov/2) before the projection Jacobian is evaluated,
/// matching the reference rasterizer. Without it, Gaussians barely in front
/// of the near plane but far off-axis get numerically exploded 2D
/// covariances that cover the whole image.
pub const FRUSTUM_CLAMP: f32 = 1.3;

/// Low-pass filter added to the 2D covariance diagonal, matching the
/// reference 3DGS rasterizer (ensures every splat covers at least ~1 pixel).
pub const COV2D_BLUR: f32 = 0.3;

/// Sentinel in [`ProjectedSoA::slot_of_gaussian`] for culled/masked
/// Gaussians.
pub const NO_SLOT: u32 = u32::MAX;

/// A 3D Gaussian projected onto the image plane (a 2D splat).
///
/// This is the array-of-structs *view* of one [`ProjectedSoA`] slot (see
/// [`ProjectedSoA::get`]); the pipeline stores splats field-per-array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Projected2d {
    /// ID (index) of the source Gaussian in the scene.
    pub id: u32,
    /// 2D mean in pixel coordinates, `μ★` in the paper.
    pub mean: Vec2,
    /// 2D covariance (with low-pass blur), `Σ★`.
    pub cov: Sym2,
    /// Inverse of [`Self::cov`] ("conic"), used by alpha computing (Eq. 2).
    pub conic: Sym2,
    /// View-independent RGB color.
    pub color: Vec3,
    /// Activated opacity `o`.
    pub opacity: f32,
    /// Camera-frame depth `t_z`, the sorting key.
    pub depth: f32,
    /// Bounding radius in pixels (3σ of the major axis).
    pub radius: f32,
    /// Camera-frame position of the mean (kept for backpropagation).
    pub t_cam: Vec3,
}

/// Inclusive tile-index rectangle `[tx0, tx1, ty0, ty1]` covered by one
/// splat's 3σ bounding square, precomputed at projection time so tile
/// binning is a pure scatter.
pub type TileRect = [u16; 4];

/// Dense structure-of-arrays storage for the visible splats of one frame.
///
/// All per-splat arrays share the same length and are indexed by *slot*;
/// slots enumerate visible splats in ascending Gaussian-ID order, so the
/// layout — and everything derived from it — is independent of the backend
/// and pool size that produced it. [`Self::gaussian_ids`] maps slot → source
/// Gaussian, [`Self::slot_of_gaussian`] maps the other way ([`NO_SLOT`] when
/// culled or masked).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProjectedSoA {
    /// Slot → source Gaussian ID.
    pub gaussian_ids: Vec<u32>,
    /// Gaussian ID → slot, [`NO_SLOT`] when the Gaussian produced no splat.
    pub slot_of_gaussian: Vec<u32>,
    /// 2D means in pixel coordinates (`μ★`).
    pub means: Vec<Vec2>,
    /// Conics (inverse 2D covariances), the Eq. 2 coefficients.
    pub conics: Vec<Sym2>,
    /// 2D covariances with low-pass blur (`Σ★`; cold — kept off the render
    /// hot path, used by preprocessing BP and diagnostics).
    pub covs: Vec<Sym2>,
    /// View-independent RGB colors.
    pub colors: Vec<Vec3>,
    /// Activated opacities `o`.
    pub opacities: Vec<f32>,
    /// Camera-frame depths `t_z` (the sort keys).
    pub depths: Vec<f32>,
    /// Bounding radii in pixels (3σ).
    pub radii: Vec<f32>,
    /// Camera-frame mean positions (cold; backpropagation only).
    pub t_cams: Vec<Vec3>,
    /// Per-splat conservative quadratic-form cutoffs: a fragment with
    /// `q > q_cut` provably falls below `ALPHA_MIN`, so the render kernels
    /// skip its exponential. Computed once here (it depends only on the
    /// opacity) rather than at every tile gather.
    pub q_cuts: Vec<f32>,
    /// Inclusive tile rectangles covered by each splat.
    pub tile_rects: Vec<TileRect>,
    /// Tile-grid width the tile rectangles were computed for.
    pub tiles_x: usize,
    /// Tile-grid height the tile rectangles were computed for.
    pub tiles_y: usize,
}

impl ProjectedSoA {
    /// Number of visible splats.
    #[inline]
    pub fn len(&self) -> usize {
        self.gaussian_ids.len()
    }

    /// True when no splat survived projection.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gaussian_ids.is_empty()
    }

    /// The slot of Gaussian `id`, or `None` when it was culled or masked.
    #[inline]
    pub fn slot(&self, id: usize) -> Option<usize> {
        match self.slot_of_gaussian.get(id) {
            Some(&s) if s != NO_SLOT => Some(s as usize),
            _ => None,
        }
    }

    /// Gathers slot `i` back into the array-of-structs view.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.len()`.
    pub fn get(&self, i: usize) -> Projected2d {
        Projected2d {
            id: self.gaussian_ids[i],
            mean: self.means[i],
            cov: self.covs[i],
            conic: self.conics[i],
            color: self.colors[i],
            opacity: self.opacities[i],
            depth: self.depths[i],
            radius: self.radii[i],
            t_cam: self.t_cams[i],
        }
    }

    /// Clears and resizes every per-slot array for a frame of `visible`
    /// splats over a scene of `scene_len` Gaussians. Capacities are
    /// retained, so re-projecting into the same storage allocates only
    /// while a new high-water mark is being established (the frame-arena
    /// steady-state contract).
    fn reset(&mut self, visible: usize, scene_len: usize, tiles_x: usize, tiles_y: usize) {
        self.gaussian_ids.clear();
        self.gaussian_ids.resize(visible, 0);
        self.slot_of_gaussian.clear();
        self.slot_of_gaussian.resize(scene_len, NO_SLOT);
        self.means.clear();
        self.means.resize(visible, Vec2::ZERO);
        self.conics.clear();
        self.conics.resize(visible, Sym2::default());
        self.covs.clear();
        self.covs.resize(visible, Sym2::default());
        self.colors.clear();
        self.colors.resize(visible, Vec3::ZERO);
        self.opacities.clear();
        self.opacities.resize(visible, 0.0);
        self.depths.clear();
        self.depths.resize(visible, 0.0);
        self.radii.clear();
        self.radii.resize(visible, 0.0);
        self.t_cams.clear();
        self.t_cams.resize(visible, Vec3::ZERO);
        self.q_cuts.clear();
        self.q_cuts.resize(visible, 0.0);
        self.tile_rects.clear();
        self.tile_rects.resize(visible, [0; 4]);
        self.tiles_x = tiles_x;
        self.tiles_y = tiles_y;
    }
}

/// Workspace of [`project_scene_into`]: the per-Gaussian projection
/// scratch and the chunk counters/offsets of the count → prefix-sum →
/// scatter compaction. One workspace reused across frames makes
/// steady-state projection allocation-free (the [`crate::FrameArena`] owns
/// one).
#[derive(Debug, Clone, Default)]
pub(crate) struct ProjectScratch {
    /// One slot per Gaussian; `Some` for splats surviving projection.
    scratch: Vec<Option<Projected2d>>,
    /// Per-chunk `(visible, culled, masked)` counters.
    counts: Vec<(usize, usize, usize)>,
    /// Per-chunk visible counts (prefix-sum input).
    visible_counts: Vec<usize>,
    /// Per-chunk output offsets (prefix-sum output).
    offsets: Vec<usize>,
}

/// Output of the preprocessing step: the dense SoA splat arrays plus counts
/// for the trace model.
#[derive(Debug, Clone, Default)]
pub struct Projection {
    /// Visible splats in structure-of-arrays layout.
    pub soa: ProjectedSoA,
    /// Number of Gaussians culled by the near plane or out-of-frustum test.
    pub culled: usize,
    /// Number of Gaussians skipped because the active mask excluded them.
    pub masked: usize,
}

impl Projection {
    /// Number of visible splats.
    #[inline]
    pub fn visible_count(&self) -> usize {
        self.soa.len()
    }

    /// The splat of Gaussian `id` as an array-of-structs view, or `None`
    /// when it was culled or masked.
    pub fn splat_for_gaussian(&self, id: usize) -> Option<Projected2d> {
        self.soa.slot(id).map(|s| self.soa.get(s))
    }
}

/// The inclusive tile rectangle covered by a splat's 3σ bounding square.
pub(crate) fn tile_rect_of(mean: Vec2, radius: f32, tiles_x: usize, tiles_y: usize) -> TileRect {
    let tx0 = ((mean.x - radius) / TILE_SIZE as f32).floor().max(0.0) as usize;
    let ty0 = ((mean.y - radius) / TILE_SIZE as f32).floor().max(0.0) as usize;
    let tx1 = (((mean.x + radius) / TILE_SIZE as f32).floor() as isize)
        .clamp(0, tiles_x as isize - 1) as usize;
    let ty1 = (((mean.y + radius) / TILE_SIZE as f32).floor() as isize)
        .clamp(0, tiles_y as isize - 1) as usize;
    [
        tx0.min(tiles_x - 1) as u16,
        tx1 as u16,
        ty0.min(tiles_y - 1) as u16,
        ty1 as u16,
    ]
}

/// Step ❶: projects every active Gaussian into the image plane of `camera`
/// under the world-to-camera pose `w2c`, writing into caller-owned storage.
///
/// `active` is the paper's pruning mask: `None` renders everything;
/// `Some(mask)` (one flag per Gaussian) skips masked-out Gaussians before
/// any math runs, which is exactly where the adaptive pruning of Sec. 4.1
/// saves its work.
///
/// Runs in three phases: (1) chunked projection into per-Gaussian scratch
/// slots with per-chunk visible/cull/mask counters, (2) a serial exclusive
/// prefix sum over the per-chunk visible counts, (3) a chunked scatter that
/// compacts each chunk's visible splats into the dense SoA arrays at its
/// precomputed offset. Chunk geometry is a constant (`PROJECT_CHUNK`) and
/// slots are assigned in Gaussian-ID order, so the result is
/// bitwise-identical on every backend and pool size.
///
/// The workspace and output buffers are cleared and refilled; once their
/// capacities cover the frame (scene size, visible count), re-projection
/// performs **no heap allocation**.
///
/// # Panics
///
/// Panics if `active` is provided with a length different from the scene.
#[allow(clippy::too_many_arguments)]
pub(crate) fn project_scene_into(
    scene: &GaussianScene,
    w2c: &Se3,
    camera: &PinholeCamera,
    active: Option<&[bool]>,
    backend: &dyn Backend,
    ws: &mut ProjectScratch,
    out: &mut Projection,
) {
    if let Some(mask) = active {
        assert_eq!(
            mask.len(),
            scene.len(),
            "active mask length must match scene size"
        );
    }
    let rot = w2c.rotation_matrix();
    let n = scene.len();
    let tiles_x = camera.width.div_ceil(TILE_SIZE);
    let tiles_y = camera.height.div_ceil(TILE_SIZE);
    let chunks = n.div_ceil(PROJECT_CHUNK).max(1);

    // Phase 1: chunked projection into scratch (one slot per Gaussian) with
    // per-chunk (visible, culled, masked) counters.
    ws.scratch.clear();
    ws.scratch.resize(n, None);
    ws.counts.clear();
    ws.counts.resize(chunks, (0usize, 0usize, 0usize));
    {
        let scratch_view = SharedSlice::new(&mut ws.scratch);
        let count_view = SharedSlice::new(&mut ws.counts);
        backend.for_each_chunk(n, PROJECT_CHUNK, &|chunk, range| {
            let mut visible = 0usize;
            let mut culled = 0usize;
            let mut masked = 0usize;
            for id in range {
                if let Some(mask) = active {
                    if !mask[id] {
                        masked += 1;
                        continue;
                    }
                }
                match project_one(&scene.gaussians[id], id as u32, &rot, w2c, camera) {
                    // SAFETY: each Gaussian id is written by exactly one
                    // chunk, and each chunk index is written once.
                    Some(splat) => {
                        visible += 1;
                        unsafe { scratch_view.write(id, Some(splat)) }
                    }
                    None => culled += 1,
                }
            }
            unsafe { count_view.write(chunk, (visible, culled, masked)) };
        });
    }

    // Phase 2: serial scan fixes every chunk's output offset (and thereby
    // the slot order: ascending Gaussian ID).
    ws.visible_counts.clear();
    ws.visible_counts
        .extend(ws.counts.iter().map(|&(v, _, _)| v));
    let total_visible = exclusive_prefix_sum_into(&ws.visible_counts, &mut ws.offsets);
    let offsets = &ws.offsets;

    // Phase 3: chunked scatter into the dense SoA arrays.
    let soa = &mut out.soa;
    soa.reset(total_visible, n, tiles_x, tiles_y);
    {
        let ids_view = SharedSlice::new(&mut soa.gaussian_ids);
        let slot_view = SharedSlice::new(&mut soa.slot_of_gaussian);
        let mean_view = SharedSlice::new(&mut soa.means);
        let conic_view = SharedSlice::new(&mut soa.conics);
        let cov_view = SharedSlice::new(&mut soa.covs);
        let color_view = SharedSlice::new(&mut soa.colors);
        let opacity_view = SharedSlice::new(&mut soa.opacities);
        let depth_view = SharedSlice::new(&mut soa.depths);
        let radius_view = SharedSlice::new(&mut soa.radii);
        let t_cam_view = SharedSlice::new(&mut soa.t_cams);
        let q_cut_view = SharedSlice::new(&mut soa.q_cuts);
        let rect_view = SharedSlice::new(&mut soa.tile_rects);
        let scratch_ref = &ws.scratch;
        backend.for_each_chunk(n, PROJECT_CHUNK, &|chunk, range| {
            let mut slot = offsets[chunk];
            for id in range {
                let Some(splat) = scratch_ref[id].as_ref() else {
                    continue;
                };
                // SAFETY: chunk offsets partition the slot space, so each
                // slot (and each Gaussian id) is written by exactly one
                // chunk.
                unsafe {
                    ids_view.write(slot, splat.id);
                    slot_view.write(id, slot as u32);
                    mean_view.write(slot, splat.mean);
                    conic_view.write(slot, splat.conic);
                    cov_view.write(slot, splat.cov);
                    color_view.write(slot, splat.color);
                    opacity_view.write(slot, splat.opacity);
                    depth_view.write(slot, splat.depth);
                    radius_view.write(slot, splat.radius);
                    t_cam_view.write(slot, splat.t_cam);
                    q_cut_view.write(slot, crate::forward::splat_q_cut(splat.opacity));
                    rect_view.write(
                        slot,
                        tile_rect_of(splat.mean, splat.radius, tiles_x, tiles_y),
                    );
                }
                slot += 1;
            }
        });
    }

    let (culled, masked) = ws
        .counts
        .iter()
        .fold((0, 0), |(c, m), &(_, dc, dm)| (c + dc, m + dm));
    out.culled = culled;
    out.masked = masked;
}

/// Projects a single Gaussian (EWA splatting); `None` when culled.
pub(crate) fn project_one(
    g: &Gaussian3d,
    id: u32,
    rot: &Mat3,
    w2c: &Se3,
    camera: &PinholeCamera,
) -> Option<Projected2d> {
    let t_cam = rot.mul_vec(g.position) + w2c.translation;
    if t_cam.z < NEAR_PLANE {
        return None;
    }
    let mean = camera.project(t_cam);

    // EWA: cov2d = J W Σ Wᵀ Jᵀ where J is the projection Jacobian.
    let j = projection_jacobian(camera, t_cam);
    let m = j * *rot;
    let cov3d = g.covariance();
    let full = cov3d.congruence(&m);
    let cov = Sym2::new(full.xx + COV2D_BLUR, full.xy, full.yy + COV2D_BLUR);
    let conic = cov.inverse()?;
    let (l1, _) = cov.eigenvalues();
    let radius = 3.0 * l1.max(0.0).sqrt();

    // Frustum cull with the splat's own extent.
    if mean.x + radius < 0.0
        || mean.y + radius < 0.0
        || mean.x - radius >= camera.width as f32
        || mean.y - radius >= camera.height as f32
    {
        return None;
    }

    Some(Projected2d {
        id,
        mean,
        cov,
        conic,
        color: g.color,
        opacity: g.opacity_activated(),
        depth: t_cam.z,
        radius,
        t_cam,
    })
}

/// Jacobian of the pinhole projection at camera-frame point `t`, embedded in
/// a 3×3 matrix (third row zero) so it composes with rotations.
///
/// ```text
/// J = | fx/tz   0     -fx·tx/tz² |
///     |  0     fy/tz  -fy·ty/tz² |
///     |  0      0          0     |
/// ```
///
/// `t_x/t_z` and `t_y/t_z` are clamped into the guard-band frustum
/// ([`FRUSTUM_CLAMP`]) before evaluation, following the reference
/// rasterizer; see [`jacobian_with_clamp`] for the clamp flags needed by
/// backpropagation.
pub fn projection_jacobian(camera: &PinholeCamera, t: Vec3) -> Mat3 {
    jacobian_with_clamp(camera, t).0
}

/// [`projection_jacobian`] plus flags telling whether the x / y off-axis
/// ratios were clamped (their position gradients are zeroed when so, as in
/// the reference backward kernel).
pub fn jacobian_with_clamp(camera: &PinholeCamera, t: Vec3) -> (Mat3, bool, bool) {
    let lim_x = FRUSTUM_CLAMP * (0.5 * camera.width as f32 / camera.fx);
    let lim_y = FRUSTUM_CLAMP * (0.5 * camera.height as f32 / camera.fy);
    let ratio_x = t.x / t.z;
    let ratio_y = t.y / t.z;
    let clamped_x = !(-lim_x..=lim_x).contains(&ratio_x);
    let clamped_y = !(-lim_y..=lim_y).contains(&ratio_y);
    let tx = ratio_x.clamp(-lim_x, lim_x) * t.z;
    let ty = ratio_y.clamp(-lim_y, lim_y) * t.z;
    let inv_z = 1.0 / t.z;
    let inv_z2 = inv_z * inv_z;
    let j = Mat3::from_rows(
        [camera.fx * inv_z, 0.0, -camera.fx * tx * inv_z2],
        [0.0, camera.fy * inv_z, -camera.fy * ty * inv_z2],
        [0.0, 0.0, 0.0],
    );
    (j, clamped_x, clamped_y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::Gaussian3d;
    use rtgs_math::Quat;
    use rtgs_runtime::Serial;

    fn test_camera() -> PinholeCamera {
        PinholeCamera::from_fov(64, 48, 1.2)
    }

    fn projected(
        scene: &GaussianScene,
        w2c: &Se3,
        camera: &PinholeCamera,
        active: Option<&[bool]>,
    ) -> Projection {
        let mut arena = crate::FrameArena::new();
        arena.project(scene, w2c, camera, active, &Serial);
        arena.projection().clone()
    }

    fn centered_gaussian(z: f32) -> Gaussian3d {
        Gaussian3d::from_activated(
            Vec3::new(0.0, 0.0, z),
            Vec3::splat(0.05),
            Quat::IDENTITY,
            0.8,
            Vec3::new(1.0, 0.0, 0.0),
        )
    }

    #[test]
    fn projects_centered_gaussian_to_image_center() {
        let scene = GaussianScene::from_gaussians(vec![centered_gaussian(2.0)]);
        let proj = projected(&scene, &Se3::IDENTITY, &test_camera(), None);
        let splat = proj.splat_for_gaussian(0).expect("should be visible");
        assert!((splat.mean - Vec2::new(32.0, 24.0)).max_abs() < 1e-4);
        assert!((splat.depth - 2.0).abs() < 1e-6);
        assert!(splat.radius > 0.0);
        assert_eq!(proj.visible_count(), 1);
    }

    #[test]
    fn culls_behind_camera() {
        let scene = GaussianScene::from_gaussians(vec![centered_gaussian(-1.0)]);
        let proj = projected(&scene, &Se3::IDENTITY, &test_camera(), None);
        assert!(proj.splat_for_gaussian(0).is_none());
        assert_eq!(proj.culled, 1);
    }

    #[test]
    fn culls_out_of_frustum() {
        let g = Gaussian3d::from_activated(
            Vec3::new(100.0, 0.0, 2.0),
            Vec3::splat(0.01),
            Quat::IDENTITY,
            0.8,
            Vec3::X,
        );
        let scene = GaussianScene::from_gaussians(vec![g]);
        let proj = projected(&scene, &Se3::IDENTITY, &test_camera(), None);
        assert!(proj.splat_for_gaussian(0).is_none());
    }

    #[test]
    fn mask_skips_gaussians() {
        let scene =
            GaussianScene::from_gaussians(vec![centered_gaussian(2.0), centered_gaussian(3.0)]);
        let proj = projected(&scene, &Se3::IDENTITY, &test_camera(), Some(&[false, true]));
        assert!(proj.splat_for_gaussian(0).is_none());
        assert!(proj.splat_for_gaussian(1).is_some());
        assert_eq!(proj.masked, 1);
    }

    #[test]
    fn conic_is_inverse_of_cov() {
        let scene = GaussianScene::from_gaussians(vec![centered_gaussian(2.0)]);
        let proj = projected(&scene, &Se3::IDENTITY, &test_camera(), None);
        let s = proj.splat_for_gaussian(0).unwrap();
        let prod = s.cov.to_mat2() * s.conic.to_mat2();
        assert!((prod.m[0][0] - 1.0).abs() < 1e-4);
        assert!(prod.m[0][1].abs() < 1e-4);
    }

    #[test]
    fn closer_gaussian_has_larger_radius() {
        let scene =
            GaussianScene::from_gaussians(vec![centered_gaussian(1.0), centered_gaussian(4.0)]);
        let proj = projected(&scene, &Se3::IDENTITY, &test_camera(), None);
        let near = proj.splat_for_gaussian(0).unwrap();
        let far = proj.splat_for_gaussian(1).unwrap();
        assert!(near.radius > far.radius);
    }

    #[test]
    fn pose_translation_shifts_projection() {
        let scene = GaussianScene::from_gaussians(vec![centered_gaussian(2.0)]);
        let cam = test_camera();
        // Move the camera left: the point should appear to move right.
        let w2c = Se3::from_translation(Vec3::new(0.5, 0.0, 0.0));
        let proj = projected(&scene, &w2c, &cam, None);
        let splat = proj.splat_for_gaussian(0).unwrap();
        assert!(splat.mean.x > 32.0);
    }

    #[test]
    fn soa_slots_follow_gaussian_id_order() {
        let scene = GaussianScene::from_gaussians(vec![
            centered_gaussian(3.0),
            centered_gaussian(-1.0), // culled
            centered_gaussian(2.0),
            centered_gaussian(4.0),
        ]);
        let proj = projected(&scene, &Se3::IDENTITY, &test_camera(), None);
        assert_eq!(proj.soa.gaussian_ids, vec![0, 2, 3]);
        assert_eq!(proj.soa.slot_of_gaussian, vec![0, NO_SLOT, 1, 2]);
        assert_eq!(proj.soa.len(), 3);
        // The gathered view round-trips every stored field.
        let s = proj.soa.get(1);
        assert_eq!(s.id, 2);
        assert!((s.depth - 2.0).abs() < 1e-6);
    }

    #[test]
    fn tile_rects_cover_splat_extent() {
        let scene = GaussianScene::from_gaussians(vec![centered_gaussian(2.0)]);
        let cam = test_camera();
        let proj = projected(&scene, &Se3::IDENTITY, &cam, None);
        let [tx0, tx1, ty0, ty1] = proj.soa.tile_rects[0];
        let s = proj.soa.get(0);
        assert!(tx0 as usize <= (s.mean.x as usize) / TILE_SIZE);
        assert!(ty0 as usize <= (s.mean.y as usize) / TILE_SIZE);
        assert!((tx1 as usize) < proj.soa.tiles_x && (ty1 as usize) < proj.soa.tiles_y);
        assert!(tx0 <= tx1 && ty0 <= ty1);
    }

    #[test]
    fn jacobian_matches_finite_difference() {
        let cam = test_camera();
        let t = Vec3::new(0.3, -0.2, 1.7);
        let j = projection_jacobian(&cam, t);
        let eps = 1e-3;
        for axis in 0..3 {
            let mut tp = t;
            let mut tm = t;
            tp[axis] += eps;
            tm[axis] -= eps;
            let num = (cam.project(tp) - cam.project(tm)) / (2.0 * eps);
            assert!(
                (j.m[0][axis] - num.x).abs() < 1e-2,
                "dx/daxis{axis}: {} vs {}",
                j.m[0][axis],
                num.x
            );
            assert!((j.m[1][axis] - num.y).abs() < 1e-2);
        }
    }
}
