//! The frame arena: one owner for every transient buffer of the
//! cull → project → tile-assign → forward → loss → backward pipeline.
//!
//! Each tracking/mapping iteration of the seed pipeline rebuilt its working
//! state from scratch — a dozen `Vec` allocations for the projected splats,
//! per-tile lists, forward buffers, fragment records and gradient
//! accumulators, times tens of optimizer iterations per frame per session.
//! [`FrameArena`] keeps all of that storage alive across iterations and
//! frames: every stage writes into arena-owned buffers through the
//! `*_into` kernels (`clear()` + `resize()` reuse, capacities never
//! shrink), the tile pass uses the CSR layout of
//! [`crate::TileAssignment`], and Step ❸ gathers every tile's working set
//! into one arena-owned tile-major buffer Step ❹ reads too. After a
//! short warm-up (the first iteration or two at a new high-water mark), a
//! steady-state iteration performs **zero heap allocations** — asserted by
//! the counting-allocator regression test in `tests/zero_alloc.rs` — while
//! producing output bitwise-identical to a fresh arena's (property-tested
//! in `tests/equivalence.rs`).
//!
//! Ownership model: one arena per SLAM session (owned by
//! `rtgs_slam::SlamPipeline` alongside the optimizer state and threaded
//! through `track_frame`); standalone callers create one with
//! [`FrameArena::new`] and drive the stage methods in pipeline order;
//! [`render_poses`] gives each claim of [`POSE_CHUNK`] frames its own. Stage
//! results stay resident in the arena and are read through the borrowing
//! accessors ([`FrameArena::output`], [`FrameArena::backward`], …) until
//! the next call to the stage that produces them.
//!
//! **What is reused, and when.** Every iteration reuses the arena's
//! *storage*; within one iteration, Step ❸ gathers each tile's working set
//! once and Step ❹ reads that gather. Across iterations, *values* are
//! reused only inside a [`Trials`] scope ([`FrameArena::trials`]), which
//! borrows the map for its whole life — the borrow is the proof that the
//! map cannot change under it: a trial whose cull keeps the previous
//! trial's surviving shards and mask keeps its gathered working set, and
//! Step ❶ loads the pose-independent activations its first projection of
//! that working set computed. Outside a scope — mapping, evaluation
//! re-renders, dataset generation — nothing computed is carried over.
//! Either way, every output is bit for bit what a fresh arena produces.

use crate::backward::{backward_into, BackwardOutput, BackwardScratch, GradSet};
use crate::camera::{DepthImage, Image, PinholeCamera};
use crate::forward::{render_into, FragmentCache, RenderOutput, RenderStats, TileWork, BANDS};
use crate::loss::{compute_loss_into, LossConfig, LossOutput};
use crate::project::{activations, project_scene_into, ProjectScratch, Projection};
use crate::shard::{CullScratch, ShardedScene, VisibleFrame};
use crate::tiles::{build_tiles_into, TileAssignment, TileBinScratch};
use rtgs_math::Se3;
use rtgs_runtime::{Backend, Serial, SharedSlice};
use std::ops::{Deref, DerefMut};

/// Arena-owned storage for the full render + backward pipeline of one
/// session. See the module docs for the design.
pub struct FrameArena {
    /// Frustum-cull result (frame-local visible working set).
    visible: VisibleFrame,
    /// Cull workspace.
    cull_scratch: CullScratch,
    /// Projection result (per-slot splat records and cold arrays).
    pub(crate) projection: Projection,
    /// Projection workspace; its lane blocks hold the kept activations of a
    /// trial scope's gather.
    project_scratch: ProjectScratch,
    /// Whether `project_scratch`'s blocks hold the activations a trial
    /// scope's first projection of the current gather kept (see
    /// [`Trials::project_visible`]).
    activations_kept: bool,
    /// CSR tile assignment.
    pub(crate) tiles: TileAssignment,
    /// Tile binning workspace (chunk counts, sort keys).
    tile_scratch: TileBinScratch,
    /// Every tile's gathered working set of the last render (Step ❸ and
    /// Step ❹ read it).
    pub(crate) work: TileWork,
    /// Forward render output.
    output: RenderOutput,
    /// Per-band fragment records of the fused forward pass.
    fragments: FragmentCache,
    /// Per-(tile, band) forward statistics.
    unit_stats: Vec<RenderStats>,
    /// Loss value + per-pixel gradients.
    loss: LossOutput,
    /// Per-pixel photometric and geometric loss terms, folded in pixel
    /// order.
    loss_terms: Vec<[f32; 2]>,
    /// Backward output (per-Gaussian gradients + pose tangent).
    pub(crate) backward: BackwardOutput,
    /// Backward workspace.
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
            activations_kept: false,
            tiles: TileAssignment::default(),
            tile_scratch: TileBinScratch::default(),
            work: TileWork::default(),
            output: RenderOutput::empty(),
            fragments: FragmentCache::default(),
            unit_stats: Vec::new(),
            loss: LossOutput::empty(),
            loss_terms: Vec::new(),
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
            false,
        );
        self.activations_kept = false;
    }

    /// Opens the trial scope of one tracking frame over `map`: see
    /// [`Trials`].
    pub fn trials<'a>(&'a mut self, map: &'a ShardedScene) -> Trials<'a> {
        self.forget_trials();
        Trials { arena: self, map }
    }

    /// Forgets every value a trial scope kept: the next cull gathers and the
    /// next projection computes.
    fn forget_trials(&mut self) {
        self.cull_scratch.forget_gather();
        self.activations_kept = false;
    }

    /// Step ❶ over the arena's own cull result ([`Self::visible`]): projects
    /// into [`Self::projection`]. Masking already happened in the cull.
    pub fn project_visible(&mut self, w2c: &Se3, camera: &PinholeCamera, backend: &dyn Backend) {
        self.activations_kept = false;
        project_scene_into(
            activations::COMPUTE,
            &self.visible.scene,
            w2c,
            camera,
            backend,
            &mut self.project_scratch,
            &mut self.projection,
        );
    }

    /// Step ❷: rebuilds the CSR tile assignment from [`Self::projection`],
    /// chunked over `backend`.
    ///
    /// # Panics
    ///
    /// Panics if the projection's tile grid does not match `camera`.
    pub fn assign_tiles(&mut self, camera: &PinholeCamera, backend: &dyn Backend) {
        build_tiles_into(
            &self.projection,
            camera,
            backend,
            &mut self.tile_scratch,
            &mut self.tiles,
        );
    }

    /// Step ❸ (unfused): renders into [`Self::output`].
    ///
    /// Invalidates [`Self::fragments`] — the cached records of an earlier
    /// fused pass no longer describe the current output, and consuming
    /// them would silently corrupt gradients; after this call,
    /// [`Self::backward_visible_fused`] panics until the next
    /// [`Self::render_fused`].
    pub fn render(&mut self, camera: &PinholeCamera, backend: &dyn Backend) {
        self.fragments.invalidate();
        render_into::<false>(
            &self.projection,
            &self.tiles,
            camera,
            backend,
            &mut self.work,
            &mut self.output,
            &mut self.unit_stats,
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
            &mut self.work,
            &mut self.output,
            &mut self.unit_stats,
            Some(&mut self.fragments),
        );
    }

    /// Steps ❶–❸ in one call — [`Self::cull`] (no mask) →
    /// [`Self::project_visible`] → [`Self::assign_tiles`] → unfused
    /// [`Self::render`] — for callers that only need the image (dataset
    /// generation, evaluation re-renders). Returns [`Self::output`].
    ///
    /// # Panics
    ///
    /// As for [`Self::cull`]: when `map`'s shard bounds are stale.
    pub fn forward(
        &mut self,
        map: &ShardedScene,
        w2c: &Se3,
        camera: &PinholeCamera,
        backend: &dyn Backend,
    ) -> &RenderOutput {
        self.cull(map, w2c, camera, None, backend);
        self.project_visible(w2c, camera, backend);
        self.assign_tiles(camera, backend);
        self.render(camera, backend);
        &self.output
    }

    /// Loss (Eq. 6) of [`Self::output`] against ground truth, with
    /// per-pixel gradients into [`Self::loss`], on the calling thread.
    /// Returns the loss value.
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
        self.compute_loss_with(gt_color, gt_depth, config, &Serial)
    }

    /// [`Self::compute_loss`] with the per-pixel loop chunked over pixel
    /// rows on `backend`. The loss and every gradient are the same bits on
    /// every backend: the scalar terms fold on the caller, in pixel order.
    ///
    /// # Panics
    ///
    /// Panics if image dimensions disagree.
    pub fn compute_loss_with(
        &mut self,
        gt_color: &Image,
        gt_depth: Option<&DepthImage>,
        config: &LossConfig,
        backend: &dyn Backend,
    ) -> f32 {
        compute_loss_into(
            &self.output,
            gt_color,
            gt_depth,
            config,
            backend,
            &mut self.loss_terms,
            &mut self.loss,
        );
        self.loss.loss
    }

    /// Steps ❹–❺ (fused) over the arena's own cull result, consuming
    /// [`Self::fragments`] and the gradients of [`Self::loss`]; results land
    /// in [`Self::backward`], one gradient per Gaussian of
    /// [`Self::visible`] (frame-local index space).
    ///
    /// # Panics
    ///
    /// Panics if [`Self::fragments`] is stale (no [`Self::render_fused`]
    /// since the last tile assignment or unfused render) or the loss
    /// gradients do not match `camera`'s pixel count.
    pub fn backward_visible_fused(
        &mut self,
        camera: &PinholeCamera,
        w2c: &Se3,
        backend: &dyn Backend,
    ) {
        self.backward_visible_grads(camera, w2c, GradSet::Full, backend);
    }

    /// [`Self::backward_visible_fused`] computing only `grads`. With
    /// [`GradSet::PoseOnly`], [`BackwardOutput::pose`] and the counters are
    /// bit for bit the full pass's and [`BackwardOutput::gaussians`] is left
    /// empty — what a tracking iteration runs when nothing reads the
    /// per-Gaussian gradients.
    pub fn backward_visible_grads(
        &mut self,
        camera: &PinholeCamera,
        w2c: &Se3,
        grads: GradSet,
        backend: &dyn Backend,
    ) {
        self.assert_fragments_fresh();
        let run = match grads {
            GradSet::Full => backward_into::<true>,
            GradSet::PoseOnly => backward_into::<false>,
        };
        run(
            &self.visible.scene,
            &self.projection,
            &self.tiles,
            camera,
            w2c,
            &self.loss.pixel_grads,
            &self.fragments,
            &self.work,
            backend,
            &mut self.backward_scratch,
            &mut self.backward,
        );
    }

    fn assert_fragments_fresh(&self) {
        assert!(
            !self.fragments.bands().is_empty() || self.tiles.tile_count() == 0,
            "fragment cache is stale or missing (run render_fused first)"
        );
        assert_eq!(
            self.fragments.bands().len(),
            self.tiles.tile_count() * BANDS,
            "fragment cache must cover every band of the tile grid (run render_fused first)"
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

    /// Bytes held by the arena's reusable buffers at their current
    /// capacities — every stage's output and workspace, the gathered working
    /// set and the kept activations. Capacities
    /// never shrink, so over a session this is monotone: the arena's
    /// high-water mark, reported through the `arena.high_water_bytes`
    /// telemetry gauge.
    pub fn high_water_bytes(&self) -> usize {
        use crate::gaussian::{Gaussian3d, GaussianGrad};
        use rtgs_math::Vec3;
        use std::mem::size_of;
        let visible = self.visible.ids.capacity() * size_of::<u32>()
            + self.visible.scene.gaussians.capacity() * size_of::<Gaussian3d>();
        let tiles = (self.tiles.entries.capacity()
            + self.tiles.offsets.capacity()
            + self.tiles.slot_ids.capacity())
            * size_of::<u32>();
        let output = &self.output;
        let forward = std::mem::size_of_val(output.image.data())
            + std::mem::size_of_val(output.depth.data())
            + output.final_transmittance.capacity() * size_of::<f32>()
            + self.unit_stats.capacity() * size_of::<RenderStats>()
            + self.work.capacity_bytes()
            + self.fragments.capacity_bytes();
        let grads = &self.loss.pixel_grads;
        let loss = grads.color.capacity() * size_of::<Vec3>()
            + (grads.depth.capacity() + grads.transmittance.capacity()) * size_of::<f32>()
            + self.loss_terms.capacity() * size_of::<[f32; 2]>();
        let backward = self.backward.gaussians.capacity() * size_of::<GaussianGrad>()
            + self.backward_scratch.capacity_bytes();
        visible
            + self.cull_scratch.capacity_bytes()
            + self.projection.capacity_bytes()
            + self.project_scratch.capacity_bytes()
            + tiles
            + self.tile_scratch.capacity_bytes()
            + forward
            + loss
            + backward
    }
}

/// Frames one claim of [`render_poses`] renders through one arena: a
/// constant, so which frames a claim renders never depends on the worker
/// count.
pub const POSE_CHUNK: usize = 4;

/// Renders `map` at every pose of `poses_w2c` ([`FrameArena::forward`]) and
/// returns `per_frame(index, output)` of each frame, in pose order — the
/// many-pose spelling for dataset generation and evaluation re-renders.
///
/// Frames are independent, so they render frame-parallel: `backend` claims
/// [`POSE_CHUNK`] frames at a time, and each claim renders its frames in
/// pose order through one arena of its own on [`Serial`], so no loop nests
/// inside another (a 75×42 render is a handful of short loops, whose joins
/// would cost more than they share out). A claim decides only who renders
/// a frame: every output is bit for bit what one arena rendering every pose
/// in order gives (arena == fresh, parallel == serial), on every backend
/// and in every claim order.
///
/// # Panics
///
/// As for [`FrameArena::cull`]: when `map`'s shard bounds are stale.
pub fn render_poses<T: Send>(
    map: &ShardedScene,
    poses_w2c: &[Se3],
    camera: &PinholeCamera,
    backend: &dyn Backend,
    per_frame: impl Fn(usize, &RenderOutput) -> T + Sync,
) -> Vec<T> {
    let mut results: Vec<Option<T>> = poses_w2c.iter().map(|_| None).collect();
    let slots = SharedSlice::new(&mut results);
    backend.for_each_chunk(poses_w2c.len(), POSE_CHUNK, &|_, range| {
        // SAFETY: the chunks of one loop cover disjoint index ranges.
        let slots = unsafe { slots.range_mut(range.clone()) };
        let mut arena = FrameArena::new();
        for (slot, index) in slots.iter_mut().zip(range) {
            let output = arena.forward(map, &poses_w2c[index], camera, &Serial);
            *slot = Some(per_frame(index, output));
        }
    });
    results
        .into_iter()
        .map(|result| result.expect("every chunk of the loop ran"))
        .collect()
}

/// The trial scope of one tracking frame: the arena, and the map every
/// trial of the frame renders, borrowed for the scope's whole life — so the
/// map cannot change while the scope lives, and what a trial derived from
/// it alone stays valid for the next trial. Opened by
/// [`FrameArena::trials`]; every other stage is the arena's own (the scope
/// dereferences to it).
///
/// Reused, bit for bit what recomputing gives:
///
/// * [`Self::cull`] tests the shards every trial, but keeps the gathered
///   working set when the surviving shards and the mask equal those it was
///   gathered for (an RTGS pruning point's mask change, or a pose that
///   culls differently, gathers anew);
/// * [`Self::project_visible`] computes Step ❶'s pose-independent
///   activations once per gathered working set, for every Gaussian of it,
///   and later trials load them.
///
/// Opening a scope, dropping it, and any stage that overwrites what it kept
/// (an arena cull or projection) forget all of it.
pub struct Trials<'a> {
    arena: &'a mut FrameArena,
    map: &'a ShardedScene,
}

impl Trials<'_> {
    /// [`FrameArena::cull`] of the scope's map, keeping the previous trial's
    /// gathered working set when it would gather the same one.
    ///
    /// # Panics
    ///
    /// As for [`FrameArena::cull`].
    pub fn cull(
        &mut self,
        w2c: &Se3,
        camera: &PinholeCamera,
        active: Option<&[bool]>,
        backend: &dyn Backend,
    ) {
        let arena = &mut *self.arena;
        let gathered = self.map.visible_frame_into(
            w2c,
            camera,
            active,
            backend,
            &mut arena.cull_scratch,
            &mut arena.visible,
            true,
        );
        if gathered {
            arena.activations_kept = false;
        }
    }

    /// [`FrameArena::project_visible`], computing the working set's
    /// pose-independent activations on its first projection in the scope
    /// and loading them on the later ones.
    pub fn project_visible(&mut self, w2c: &Se3, camera: &PinholeCamera, backend: &dyn Backend) {
        let arena = &mut *self.arena;
        let act = if arena.activations_kept {
            activations::LOAD
        } else {
            activations::KEEP
        };
        project_scene_into(
            act,
            &arena.visible.scene,
            w2c,
            camera,
            backend,
            &mut arena.project_scratch,
            &mut arena.projection,
        );
        arena.activations_kept = true;
    }
}

impl Deref for Trials<'_> {
    type Target = FrameArena;

    fn deref(&self) -> &FrameArena {
        self.arena
    }
}

impl DerefMut for Trials<'_> {
    fn deref_mut(&mut self) -> &mut FrameArena {
        self.arena
    }
}

impl Drop for Trials<'_> {
    fn drop(&mut self) {
        self.arena.forget_trials();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::{Gaussian3d, GaussianScene};
    use crate::Image;
    use rtgs_math::{Quat, Vec3};

    fn map() -> ShardedScene {
        let scene = GaussianScene::from_gaussians(vec![
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
        ]);
        ShardedScene::from_scene(&scene, crate::DEFAULT_CELL_SIZE)
    }

    #[test]
    fn forward_composes_pipeline() {
        let cam = PinholeCamera::from_fov(32, 32, 1.2);
        let mut arena = FrameArena::new();
        let out = arena.forward(&map(), &Se3::IDENTITY, &cam, &Serial);
        assert!(out.stats.fragments_processed > 0);
        assert!(out.image.pixel(16, 16).x > 0.0);
        assert_eq!(arena.projection().visible_count(), 2);
    }

    /// Evaluation renders a map after its last mutation; on stale bounds
    /// the cull, and with it `forward`, refuses rather than render a stale
    /// working set.
    #[test]
    #[should_panic(expected = "shard bounds are stale")]
    fn forward_panics_on_stale_bounds() {
        let mut map = map();
        map.tombstone(0);
        let cam = PinholeCamera::from_fov(32, 32, 1.2);
        FrameArena::new().forward(&map, &Se3::IDENTITY, &cam, &Serial);
    }

    /// The high-water mark covers at least the projection's per-slot arrays
    /// and the Step-❹ partials, summed here field by field.
    #[test]
    fn high_water_counts_the_soa_and_the_step4_partials() {
        use std::mem::size_of;
        let cam = PinholeCamera::from_fov(75, 42, 1.2);
        let pose = Se3::IDENTITY;
        let map = map();
        let mut arena = FrameArena::new();
        arena.cull(&map, &pose, &cam, None, &Serial);
        arena.project_visible(&pose, &cam, &Serial);
        arena.assign_tiles(&cam, &Serial);
        arena.render_fused(&cam, &Serial);
        arena.compute_loss(
            &Image::new(cam.width, cam.height),
            None,
            &LossConfig::default(),
        );
        arena.backward_visible_fused(&cam, &pose, &Serial);

        let projection = &arena.projection;
        let bytes = |len: usize, size: usize| len * size;
        let projection_bytes = bytes(projection.gaussian_ids.capacity(), 4)
            + bytes(projection.slot_of_gaussian.capacity(), 4)
            + bytes(
                projection.splats.capacity(),
                size_of::<crate::forward::TileSplat>(),
            )
            + bytes(projection.t_cams.capacity(), size_of::<Vec3>())
            + bytes(
                projection.tile_rects.capacity(),
                size_of::<crate::project::TileRect>(),
            )
            + bytes(
                projection.cut_boxes.capacity(),
                size_of::<crate::forward::CutBox>(),
            )
            + bytes(
                projection.activations.capacity(),
                size_of::<crate::gaussian::Activation>(),
            );
        let partial_bytes = arena.backward_scratch.step4_partial_bytes();
        assert!(
            projection_bytes > 0 && partial_bytes > 0,
            "sanity: both are allocated"
        );
        assert!(
            arena.high_water_bytes() >= projection_bytes + partial_bytes,
            "{} < {projection_bytes} + {partial_bytes}",
            arena.high_water_bytes()
        );
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn unfused_render_invalidates_fragment_cache() {
        let cam = PinholeCamera::from_fov(32, 32, 1.2);
        let pose = Se3::IDENTITY;
        let map = map();
        let gt = Image::new(cam.width, cam.height);
        let mut arena = FrameArena::new();
        arena.cull(&map, &pose, &cam, None, &Serial);
        arena.project_visible(&pose, &cam, &Serial);
        arena.assign_tiles(&cam, &Serial);
        arena.render_fused(&cam, &Serial);
        // An unfused render supersedes the cached fragments; consuming them
        // afterwards must fail loudly instead of corrupting gradients.
        arena.render(&cam, &Serial);
        arena.compute_loss(&gt, None, &LossConfig::default());
        arena.backward_visible_fused(&cam, &pose, &Serial);
    }
}
