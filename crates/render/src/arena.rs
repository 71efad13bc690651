//! The frame arena: one owner for every transient buffer of the
//! cull → project → tile-assign → forward → loss → backward pipeline.
//!
//! Each tracking/mapping iteration of the seed pipeline rebuilt its working
//! state from scratch — a dozen `Vec` allocations for the projected SoA,
//! per-tile lists, forward buffers, fragment records and gradient
//! accumulators, times tens of optimizer iterations per frame per session.
//! [`FrameArena`] keeps all of that storage alive across iterations and
//! frames: every stage writes into arena-owned buffers through the
//! `*_into` kernels (`clear()` + `resize()` reuse, capacities never
//! shrink), per-chunk tile scratch (gathered splats, cut boxes, survivor
//! list) comes from a shared [`rtgs_runtime::ScratchPool`], and the tile
//! pass uses the CSR + radix layout of [`crate::TileAssignment`]. After a
//! short warm-up (the first iteration or two at a new high-water mark), a
//! steady-state iteration performs **zero heap allocations** — asserted by
//! the counting-allocator regression test in `tests/zero_alloc.rs` — while
//! producing output bitwise-identical to a fresh arena's (property-tested
//! in `tests/equivalence.rs`).
//!
//! Ownership model: one arena per SLAM session (owned by
//! `rtgs_slam::SlamPipeline` alongside the optimizer state and threaded
//! through `track_frame`); standalone callers create one with
//! [`FrameArena::new`] and drive the stage methods in pipeline order. Stage
//! results stay resident in the arena and are read through the borrowing
//! accessors ([`FrameArena::output`], [`FrameArena::backward`], …) until
//! the next call to the stage that produces them.

use crate::backward::{backward_into, BackwardOutput, BackwardScratch};
use crate::camera::{DepthImage, Image, PinholeCamera};
use crate::forward::{render_into, FragmentCache, RenderOutput, RenderStats};
use crate::gaussian::GaussianScene;
use crate::loss::{compute_loss_into, LossConfig, LossOutput};
use crate::project::{project_scene_into, ProjectScratch, Projection};
use crate::shard::{CullScratch, ShardedScene, VisibleFrame};
use crate::tiles::{build_tiles_into, TileAssignment, TileBinScratch};
use rtgs_math::Se3;
use rtgs_runtime::Backend;

/// Arena-owned storage for the full render + backward pipeline of one
/// session. See the module docs for the design.
pub struct FrameArena {
    /// Frustum-cull result (frame-local visible working set).
    visible: VisibleFrame,
    /// Cull workspace.
    cull_scratch: CullScratch,
    /// Projection result (SoA splat arrays).
    pub(crate) projection: Projection,
    /// Projection workspace.
    project_scratch: ProjectScratch,
    /// CSR tile assignment.
    pub(crate) tiles: TileAssignment,
    /// Tile binning + radix-sort workspace.
    tile_scratch: TileBinScratch,
    /// Forward render output.
    output: RenderOutput,
    /// Per-tile fragment records of the fused forward pass.
    fragments: FragmentCache,
    /// Per-tile forward statistics.
    tile_stats: Vec<RenderStats>,
    /// Loss value + per-pixel gradients.
    loss: LossOutput,
    /// Valid-depth-pixel scratch of the loss.
    loss_scratch: Vec<(usize, f32, f32)>,
    /// Backward output (per-Gaussian gradients + pose tangent).
    pub(crate) backward: BackwardOutput,
    /// Backward workspace; its tile-scratch pool is shared with the forward
    /// pass.
    pub(crate) backward_scratch: BackwardScratch,
}

impl Default for FrameArena {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameArena {
    /// An empty arena; every buffer grows to its steady-state size during
    /// the first iterations that use it.
    pub fn new() -> Self {
        Self {
            visible: VisibleFrame::default(),
            cull_scratch: CullScratch::default(),
            projection: Projection::default(),
            project_scratch: ProjectScratch::default(),
            tiles: TileAssignment::default(),
            tile_scratch: TileBinScratch::default(),
            output: RenderOutput::empty(),
            fragments: FragmentCache::default(),
            tile_stats: Vec::new(),
            loss: LossOutput::empty(),
            loss_scratch: Vec::new(),
            backward: BackwardOutput::empty(),
            backward_scratch: BackwardScratch::default(),
        }
    }

    // ---- Pipeline stages -------------------------------------------------

    /// Frustum-cull pre-pass: gathers `map`'s visible working set for the
    /// pose into [`Self::visible`] (ascending stable-ID order).
    ///
    /// # Panics
    ///
    /// Panics when `map`'s shard bounds are stale (call
    /// [`ShardedScene::refresh_bounds_with`] after mutations) or `active` is
    /// not `map.capacity()` long.
    pub fn cull(
        &mut self,
        map: &ShardedScene,
        w2c: &Se3,
        camera: &PinholeCamera,
        active: Option<&[bool]>,
        backend: &dyn Backend,
    ) {
        map.visible_frame_into(
            w2c,
            camera,
            active,
            backend,
            &mut self.cull_scratch,
            &mut self.visible,
        );
    }

    /// Step ❶ over an external scene: projects into [`Self::projection`].
    /// `active` is the pruning mask (one flag per Gaussian; `None` = all).
    ///
    /// # Panics
    ///
    /// Panics if `active` is provided with a length different from the scene.
    pub fn project(
        &mut self,
        scene: &GaussianScene,
        w2c: &Se3,
        camera: &PinholeCamera,
        active: Option<&[bool]>,
        backend: &dyn Backend,
    ) {
        project_scene_into(
            scene,
            w2c,
            camera,
            active,
            backend,
            &mut self.project_scratch,
            &mut self.projection,
        );
    }

    /// Step ❶ over the arena's own cull result ([`Self::visible`]) — the
    /// tracking/mapping hot path (masking already happened in the cull).
    pub fn project_visible(&mut self, w2c: &Se3, camera: &PinholeCamera, backend: &dyn Backend) {
        project_scene_into(
            &self.visible.scene,
            w2c,
            camera,
            None,
            backend,
            &mut self.project_scratch,
            &mut self.projection,
        );
    }

    /// Step ❷: rebuilds the CSR tile assignment from [`Self::projection`].
    ///
    /// # Panics
    ///
    /// Panics if the projection's tile grid does not match `camera`.
    pub fn assign_tiles(&mut self, camera: &PinholeCamera, backend: &dyn Backend) {
        let _ = backend; // linear, memory-bound pass; runs on the caller.
        build_tiles_into(
            &self.projection,
            camera,
            &mut self.tile_scratch,
            &mut self.tiles,
        );
    }

    /// Step ❸ (unfused): renders into [`Self::output`].
    ///
    /// Invalidates [`Self::fragments`] — the cached records of an earlier
    /// fused pass no longer describe the current output, and consuming
    /// them would silently corrupt gradients; after this call,
    /// [`Self::backward_fused`] panics until the next
    /// [`Self::render_fused`].
    pub fn render(&mut self, camera: &PinholeCamera, backend: &dyn Backend) {
        self.fragments.invalidate();
        render_into::<false>(
            &self.projection,
            &self.tiles,
            camera,
            backend,
            &self.backward_scratch.pool,
            &mut self.output,
            &mut self.tile_stats,
            None,
        );
    }

    /// Step ❸ (fused): renders into [`Self::output`] and records every
    /// pixel's fragment sequence into [`Self::fragments`] for the fused
    /// backward pass.
    pub fn render_fused(&mut self, camera: &PinholeCamera, backend: &dyn Backend) {
        render_into::<true>(
            &self.projection,
            &self.tiles,
            camera,
            backend,
            &self.backward_scratch.pool,
            &mut self.output,
            &mut self.tile_stats,
            Some(&mut self.fragments),
        );
    }

    /// Steps ❶–❸ in one call — [`Self::project`] → [`Self::assign_tiles`] →
    /// unfused [`Self::render`] — for callers that only need the image
    /// (dataset generation, evaluation re-renders). Returns
    /// [`Self::output`].
    ///
    /// # Panics
    ///
    /// As for [`Self::project`].
    pub fn forward(
        &mut self,
        scene: &GaussianScene,
        w2c: &Se3,
        camera: &PinholeCamera,
        active: Option<&[bool]>,
        backend: &dyn Backend,
    ) -> &RenderOutput {
        self.project(scene, w2c, camera, active, backend);
        self.assign_tiles(camera, backend);
        self.render(camera, backend);
        &self.output
    }

    /// Loss (Eq. 6) of [`Self::output`] against ground truth, with
    /// per-pixel gradients into [`Self::loss`]. Returns the loss value.
    ///
    /// # Panics
    ///
    /// Panics if image dimensions disagree.
    pub fn compute_loss(
        &mut self,
        gt_color: &Image,
        gt_depth: Option<&DepthImage>,
        config: &LossConfig,
    ) -> f32 {
        compute_loss_into(
            &self.output,
            gt_color,
            gt_depth,
            config,
            &mut self.loss_scratch,
            &mut self.loss,
        );
        self.loss.loss
    }

    /// Steps ❹–❺ (fused) over an external scene, consuming
    /// [`Self::fragments`] and the gradients of [`Self::loss`]; results
    /// land in [`Self::backward`].
    ///
    /// # Panics
    ///
    /// Panics if [`Self::fragments`] is stale (no [`Self::render_fused`]
    /// since the last tile assignment or unfused render) or the loss
    /// gradients do not match `camera`'s pixel count.
    pub fn backward_fused(
        &mut self,
        scene: &GaussianScene,
        camera: &PinholeCamera,
        w2c: &Se3,
        backend: &dyn Backend,
    ) {
        self.assert_fragments_fresh();
        backward_into(
            scene,
            &self.projection,
            &self.tiles,
            camera,
            w2c,
            &self.loss.pixel_grads,
            Some(&self.fragments),
            backend,
            &mut self.backward_scratch,
            &mut self.backward,
        );
    }

    /// [`Self::backward_fused`] over the arena's own cull result — the
    /// tracking/mapping hot path.
    pub fn backward_visible_fused(
        &mut self,
        camera: &PinholeCamera,
        w2c: &Se3,
        backend: &dyn Backend,
    ) {
        self.assert_fragments_fresh();
        backward_into(
            &self.visible.scene,
            &self.projection,
            &self.tiles,
            camera,
            w2c,
            &self.loss.pixel_grads,
            Some(&self.fragments),
            backend,
            &mut self.backward_scratch,
            &mut self.backward,
        );
    }

    fn assert_fragments_fresh(&self) {
        assert!(
            !self.fragments.tiles().is_empty() || self.tiles.tile_count() == 0,
            "fragment cache is stale or missing (run render_fused first)"
        );
        assert_eq!(
            self.fragments.tiles().len(),
            self.tiles.tile_count(),
            "fragment cache must cover the tile grid (run render_fused first)"
        );
    }

    // ---- Stage results ---------------------------------------------------

    /// The last cull's visible working set.
    #[inline]
    pub fn visible(&self) -> &VisibleFrame {
        &self.visible
    }

    /// The last projection.
    #[inline]
    pub fn projection(&self) -> &Projection {
        &self.projection
    }

    /// The last tile assignment.
    #[inline]
    pub fn tiles(&self) -> &TileAssignment {
        &self.tiles
    }

    /// The last forward render output.
    #[inline]
    pub fn output(&self) -> &RenderOutput {
        &self.output
    }

    /// The last fused forward pass's fragment records.
    #[inline]
    pub fn fragments(&self) -> &FragmentCache {
        &self.fragments
    }

    /// The last loss evaluation.
    #[inline]
    pub fn loss(&self) -> &LossOutput {
        &self.loss
    }

    /// The last backward pass's gradients.
    #[inline]
    pub fn backward(&self) -> &BackwardOutput {
        &self.backward
    }

    /// Approximate bytes held by the arena's principal reusable buffers at
    /// their current capacities. Capacities never shrink, so over a session
    /// this is monotone — the arena's high-water mark, reported through the
    /// `arena.high_water_bytes` telemetry gauge.
    pub fn high_water_bytes(&self) -> usize {
        use crate::gaussian::{Gaussian3d, GaussianGrad};
        use rtgs_math::Vec3;
        use std::mem::size_of;
        let visible = self.visible.ids.capacity() * size_of::<u32>()
            + self.visible.scene.len() * size_of::<Gaussian3d>();
        let tiles = (self.tiles.entries.capacity()
            + self.tiles.offsets.capacity()
            + self.tiles.slot_ids.capacity())
            * size_of::<u32>();
        // Image, depth, transmittance and per-pixel workload buffers all
        // share the camera's pixel count.
        let pixels = self.output.final_transmittance.capacity();
        let forward = pixels * (size_of::<Vec3>() + 2 * size_of::<f32>() + size_of::<u32>());
        let fragments = self.fragments.capacity_bytes();
        let grads = self.backward.gaussians.capacity() * size_of::<GaussianGrad>()
            + self.loss.pixel_grads.color.capacity() * size_of::<Vec3>()
            + (self.loss.pixel_grads.depth.capacity()
                + self.loss.pixel_grads.transmittance.capacity())
                * size_of::<f32>();
        // Between stages every per-chunk scratch is back in the pool.
        let scratch = self
            .backward_scratch
            .pool
            .sum_idle(crate::forward::TileScratch::capacity_bytes);
        visible + tiles + forward + fragments + grads + scratch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::Gaussian3d;
    use crate::Image;
    use rtgs_math::{Quat, Vec3};
    use rtgs_runtime::Serial;

    fn scene() -> GaussianScene {
        GaussianScene::from_gaussians(vec![
            Gaussian3d::from_activated(
                Vec3::new(0.0, 0.0, 2.0),
                Vec3::splat(0.4),
                Quat::IDENTITY,
                0.8,
                Vec3::X,
            ),
            Gaussian3d::from_activated(
                Vec3::new(0.3, -0.1, 3.0),
                Vec3::splat(0.5),
                Quat::IDENTITY,
                0.6,
                Vec3::new(0.2, 0.9, 0.4),
            ),
        ])
    }

    #[test]
    fn forward_composes_pipeline() {
        let cam = PinholeCamera::from_fov(32, 32, 1.2);
        let mut arena = FrameArena::new();
        let out = arena.forward(&scene(), &Se3::IDENTITY, &cam, None, &Serial);
        assert!(out.stats.fragments_blended > 0);
        assert!(out.image.pixel(16, 16).x > 0.0);
        assert_eq!(arena.projection().visible_count(), 2);
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn unfused_render_invalidates_fragment_cache() {
        let cam = PinholeCamera::from_fov(32, 32, 1.2);
        let pose = Se3::IDENTITY;
        let scene = scene();
        let gt = Image::new(cam.width, cam.height);
        let mut arena = FrameArena::new();
        arena.project(&scene, &pose, &cam, None, &Serial);
        arena.assign_tiles(&cam, &Serial);
        arena.render_fused(&cam, &Serial);
        // An unfused render supersedes the cached fragments; consuming them
        // afterwards must fail loudly instead of corrupting gradients.
        arena.render(&cam, &Serial);
        arena.compute_loss(&gt, None, &LossConfig::default());
        arena.backward_fused(&scene, &cam, &pose, &Serial);
    }
}
