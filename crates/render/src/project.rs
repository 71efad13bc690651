//! Step ❶ Preprocessing: projection of 3D Gaussians to 2D splats
//! (paper Fig. 1, Step ❶-1) via EWA splatting.
//!
//! The output ([`Projection`]) is indexed by *slot* — the rank of the splat
//! among visible splats in Gaussian-ID order. A splat's hot fields (mean,
//! conic, opacity, color, depth and the quadratic-form cutoff) are one
//! record, the one Step ❸ gathers per tile for Steps ❸ and ❹ (the paper's
//! R&B Buffer stages a tile's Gaussians once for both); the fields only
//! Step ❷ or Step ❺ reads (tile rectangle, camera-frame position, kept
//! activations) sit in arrays of their own, off the per-fragment hot path.
//! The seed's array-of-structs path is preserved in [`crate::reference`]
//! as the bitwise ground truth.
//!
//! Gaussians do not interact here, so the math runs **lanes = Gaussians**:
//! [`project_block`] takes a block of [`GAUSS_LANES`] of them through
//! plain `[f32; GAUSS_LANES]` arrays — straight-line code in a lane loop the
//! compiler vectorises, branches as mask selects (`to_bits` / `from_bits`;
//! no `std::simd`, no intrinsics), the one libm function (`exp`) kept
//! scalar between the loops. [`project_one`] stays as the scalar definition
//! the oracle calls and the block kernel reproduces expression for
//! expression; property tests in this module hold the two together bit for
//! bit. What the kernel activates of a Gaussian's raw parameters on the way
//! (`exp(log_scale)`, the quaternion's norm and its unit form) is kept per
//! visible slot for Step ❺ of the same iteration.

use crate::camera::PinholeCamera;
use crate::forward::{lane_mask, select, splat_q_cut, CutBox, TileSplat};
use crate::gaussian::{Activation, Gaussian3d, GaussianScene};
use crate::tiles::TILE_SIZE;
use rtgs_math::{Mat3, Quat, Se3, Sym2, Vec2, Vec3};
use rtgs_runtime::{exclusive_prefix_sum_into, Backend, SharedSlice};

/// Gaussians per chunk in the chunked projection. Fixed by the algorithm —
/// never derived from the worker count — so the chunks, their blocks and
/// their output offsets are the same on every backend and pool size.
pub(crate) const PROJECT_CHUNK: usize = 256;

/// Gaussians per block of the per-Gaussian lane kernels ([`project_block`],
/// `backward::preprocess_block`): one lane per Gaussian. A constant of the
/// kernels, not a setting — results do not depend on it (lanes never
/// interact), only the time does. Measured in one process against this
/// value (A/B/B/A interleaved, 300 rounds, the 983-Gaussian map of a
/// 12-frame MonoGS `replica_analog` session, baseline x86-64, i.e. 4-wide
/// SSE2): 4 lanes take Step ❶ ×1.01 and Step ❺ ×1.06, 16 lanes ×1.00 and
/// ×1.04 — Step ❶ cannot tell them apart, Step ❺ prefers two vector
/// iterations per block's scalar gather and store to one or to four.
pub(crate) const GAUSS_LANES: usize = 8;

/// One `f32` per Gaussian of a block.
pub(crate) type Lanes = [f32; GAUSS_LANES];

/// How Step ❶ comes by a Gaussian's pose-independent activations —
/// `exp(log_scale)`, the quaternion's norm and unit form, the world-space
/// covariance `Σ`, the opacity sigmoid and the cutoff's `ln`
/// ([`splat_q_cut`]). One kernel, [`project_block`], instantiated per mode
/// on a `const` (as `render_into::<RECORD>` is); the values are the same
/// bits in every mode, only how often they are computed differs.
pub(crate) mod activations {
    /// Computed for the lanes that need them and kept for nothing else:
    /// every projection outside a trial scope ([`crate::Trials`]).
    pub(crate) const COMPUTE: u8 = 0;
    /// Computed for every lane and kept in the workspace's blocks: a trial
    /// scope's first projection of a gathered working set.
    pub(crate) const KEEP: u8 = 1;
    /// Loaded from what [`KEEP`] left in the blocks: the scope's later
    /// projections of the same working set.
    pub(crate) const LOAD: u8 = 2;
}
use activations::{COMPUTE, KEEP, LOAD};

/// A 3×3 matrix of one lane, row-major, as a plain array: what the lane
/// kernels compute with inside their lane loops, where every helper must
/// inline (one opaque call in the loop body and the loop is scalar again).
pub(crate) type M3 = [[f32; 3]; 3];

/// [`Mat3`]'s product on plain arrays: each entry
/// `a[i][0]·b[0][j] + a[i][1]·b[1][j] + a[i][2]·b[2][j]`, added left to
/// right, zero entries included (`0·x` keeps the sign of a zero sum).
#[inline(always)]
pub(crate) fn mul3(a: &M3, b: &M3) -> M3 {
    let e = |i: usize, j: usize| a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j];
    [
        [e(0, 0), e(0, 1), e(0, 2)],
        [e(1, 0), e(1, 1), e(1, 2)],
        [e(2, 0), e(2, 1), e(2, 2)],
    ]
}

/// [`Mat3::transpose`] on plain arrays.
#[inline(always)]
pub(crate) fn transpose3(a: &M3) -> M3 {
    [
        [a[0][0], a[1][0], a[2][0]],
        [a[0][1], a[1][1], a[2][1]],
        [a[0][2], a[1][2], a[2][2]],
    ]
}

/// [`Mat3::from_diagonal`] on plain arrays.
#[inline(always)]
pub(crate) fn diagonal3(d: [f32; 3]) -> M3 {
    [[d[0], 0.0, 0.0], [0.0, d[1], 0.0], [0.0, 0.0, d[2]]]
}

/// The matrix of [`Quat::to_rotation_matrix`] for a quaternion
/// `(w, x, y, z)` that is already normalized ([`Quat::normalized`]).
#[inline(always)]
pub(crate) fn rotation3([w, x, y, z]: [f32; 4]) -> M3 {
    [
        [
            1.0 - 2.0 * (y * y + z * z),
            2.0 * (x * y - w * z),
            2.0 * (x * z + w * y),
        ],
        [
            2.0 * (x * y + w * z),
            1.0 - 2.0 * (x * x + z * z),
            2.0 * (y * z - w * x),
        ],
        [
            2.0 * (x * z - w * y),
            2.0 * (y * z + w * x),
            1.0 - 2.0 * (x * x + y * y),
        ],
    ]
}

/// `Gaussian3d::covariance` from the rotation matrix and the activated
/// scale, expanded to a full matrix: `Sym3::from_m_mt(&(R · diag(s)))`'s row
/// dot products ([`Vec3::dot`]'s order), then `Sym3::to_mat3`.
#[inline(always)]
pub(crate) fn covariance3(r: &M3, scale: [f32; 3]) -> M3 {
    let n = mul3(r, &diagonal3(scale));
    let dot = |a: usize, b: usize| 0.0 + n[a][0] * n[b][0] + n[a][1] * n[b][1] + n[a][2] * n[b][2];
    [
        [dot(0, 0), dot(0, 1), dot(0, 2)],
        [dot(0, 1), dot(1, 1), dot(1, 2)],
        [dot(0, 2), dot(1, 2), dot(2, 2)],
    ]
}

/// [`Mat3::mul_vec`] on plain arrays: per row, [`Vec3::dot`]'s
/// `0.0 + r₀·v₀ + r₁·v₁ + r₂·v₂`.
#[inline(always)]
pub(crate) fn mul_vec3(a: &M3, v: [f32; 3]) -> [f32; 3] {
    let row = |i: usize| 0.0 + a[i][0] * v[0] + a[i][1] * v[1] + a[i][2] * v[2];
    [row(0), row(1), row(2)]
}

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

/// Sentinel in [`Projection::slot_of_gaussian`] for culled Gaussians.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// A 3D Gaussian projected onto the image plane (a 2D splat): what the
/// scalar definition `project_one` returns and the AoS oracle stores. The
/// pipeline keeps a visible splat's hot fields as one `TileSplat` record
/// and drops the covariance and radius once the conic, the tile rectangle
/// and the cut box are derived from them.
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
pub(crate) type TileRect = [u16; 4];

/// Step ❶'s output: the visible splats of one frame.
///
/// Every per-splat array has one entry per visible splat and is indexed by
/// *slot*; slots enumerate visible splats in ascending Gaussian-ID order, so
/// the layout — and everything derived from it — is independent of the
/// backend and pool size that produced it. A splat's hot fields are one
/// `TileSplat` record, which Step ❸'s gather copies whole; the fields only
/// Step ❷ or Step ❺ reads sit in arrays of their own.
#[derive(Debug, Clone, Default)]
pub struct Projection {
    /// Slot → source Gaussian ID.
    pub(crate) gaussian_ids: Vec<u32>,
    /// Gaussian ID → slot, [`NO_SLOT`] when the Gaussian produced no splat.
    pub(crate) slot_of_gaussian: Vec<u32>,
    /// The hot fields: mean, conic, opacity, color, depth and the
    /// quadratic-form cutoff (computed once here, from the opacity alone).
    pub(crate) splats: Vec<TileSplat>,
    /// Camera-frame mean positions (Step ❺ only).
    pub(crate) t_cams: Vec<Vec3>,
    /// Inclusive tile rectangles covered by each splat (Step ❷ only).
    pub(crate) tile_rects: Vec<TileRect>,
    /// Per-splat conservative bounds of the pixels the splat can pass at —
    /// a function of `(mean, conic, q_cut)` alone, so computed once here and
    /// copied by every tile that lists the splat.
    pub(crate) cut_boxes: Vec<CutBox>,
    /// Per-splat activations of the source Gaussian's scale and rotation,
    /// kept for Step ❺ of the same iteration (see [`Activation`]).
    pub(crate) activations: Vec<Activation>,
    /// Tile-grid width the tile rectangles were computed for.
    pub(crate) tiles_x: usize,
    /// Tile-grid height the tile rectangles were computed for.
    pub(crate) tiles_y: usize,
}

impl Projection {
    /// Number of visible splats.
    #[inline]
    pub fn visible_count(&self) -> usize {
        self.gaussian_ids.len()
    }

    /// The slot of Gaussian `id`, or `None` when it was culled.
    #[inline]
    pub(crate) fn slot(&self, id: usize) -> Option<usize> {
        match self.slot_of_gaussian.get(id) {
            Some(&s) if s != NO_SLOT => Some(s as usize),
            _ => None,
        }
    }

    /// Bytes held at current capacities (for the arena's high-water mark).
    pub(crate) fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.gaussian_ids.capacity() + self.slot_of_gaussian.capacity()) * size_of::<u32>()
            + self.splats.capacity() * size_of::<TileSplat>()
            + self.t_cams.capacity() * size_of::<Vec3>()
            + self.tile_rects.capacity() * size_of::<TileRect>()
            + self.cut_boxes.capacity() * size_of::<CutBox>()
            + self.activations.capacity() * size_of::<Activation>()
    }

    /// Resizes every per-slot array for a frame of `visible` splats over a
    /// scene of `scene_len` Gaussians. The per-slot arrays are not refilled:
    /// the projection scatter, the only caller, overwrites every slot below
    /// `visible`. Capacities are retained, so re-projecting into the same
    /// storage allocates only while a new high-water mark is being
    /// established (the frame-arena steady-state contract).
    fn reset(&mut self, visible: usize, scene_len: usize, tiles_x: usize, tiles_y: usize) {
        self.slot_of_gaussian.clear();
        self.slot_of_gaussian.resize(scene_len, NO_SLOT);
        self.gaussian_ids.resize(visible, 0);
        self.splats.resize(visible, TileSplat::UNSET);
        self.t_cams.resize(visible, Vec3::ZERO);
        self.tile_rects.resize(visible, [0; 4]);
        self.cut_boxes.resize(visible, CutBox::NOWHERE);
        self.activations.resize(visible, Activation::default());
        self.tiles_x = tiles_x;
        self.tiles_y = tiles_y;
    }
}

/// Blocks a chunk of [`PROJECT_CHUNK`] Gaussians fills at most.
const BLOCKS_PER_CHUNK: usize = PROJECT_CHUNK.div_ceil(GAUSS_LANES);

/// Workspace of [`project_scene_into`]: the lane blocks the projection
/// kernel leaves behind and the chunk counts/offsets of the count →
/// prefix-sum → scatter compaction. One workspace reused across frames makes
/// steady-state projection allocation-free (the [`crate::FrameArena`] owns
/// one).
#[derive(Debug, Clone, Default)]
pub(crate) struct ProjectScratch {
    /// `BLOCKS_PER_CHUNK` block slots per chunk; a chunk fills the first
    /// `ceil(len / GAUSS_LANES)` of its own (the rest are stale, and never
    /// read).
    blocks: Vec<ProjectedBlock>,
    /// Per-chunk visible counts (prefix-sum input).
    visible_counts: Vec<usize>,
    /// Per-chunk output offsets (prefix-sum output).
    offsets: Vec<usize>,
}

impl ProjectScratch {
    /// Bytes held at current capacities (for the arena's high-water mark).
    pub(crate) fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        self.blocks.capacity() * size_of::<ProjectedBlock>()
            + (self.visible_counts.capacity() + self.offsets.capacity()) * size_of::<usize>()
    }
}

/// The inclusive tile rectangle covered by a splat's 3σ bounding square:
/// `floor((mean ∓ radius) / TILE_SIZE)` clamped into the tile grid.
///
/// The float → integer casts do the flooring: a cast truncates toward zero
/// and saturates (a NaN becomes 0), which equals `floor` wherever the
/// clamp to `0` does not swallow the difference — so the four `floorf` libm
/// calls of the spelling the AoS oracle keeps (`reference::build_tiles_aos`)
/// are not needed (`tile_rect_matches_the_floor_spelling` holds the two
/// together).
pub(crate) fn tile_rect_of(mean: Vec2, radius: f32, tiles_x: usize, tiles_y: usize) -> TileRect {
    let tx0 = ((mean.x - radius) / TILE_SIZE as f32) as usize;
    let ty0 = ((mean.y - radius) / TILE_SIZE as f32) as usize;
    let tx1 = (((mean.x + radius) / TILE_SIZE as f32) as isize).clamp(0, tiles_x as isize - 1);
    let ty1 = (((mean.y + radius) / TILE_SIZE as f32) as isize).clamp(0, tiles_y as isize - 1);
    [
        tx0.min(tiles_x - 1) as u16,
        tx1 as u16,
        ty0.min(tiles_y - 1) as u16,
        ty1 as u16,
    ]
}

/// Step ❶: projects every Gaussian of `scene` — the cull's gathered
/// working set, already masked — into the image plane of `camera` under the
/// world-to-camera pose `w2c`, writing into caller-owned storage. `act` is
/// the [`activations`] mode, which picks the kernel's instantiation;
/// [`LOAD`] requires the previous call on `ws` to have been a [`KEEP`] or
/// [`LOAD`] one over the same `scene`. (The mode is a value here, not a
/// `const`: instantiated per mode, this driver was placed where its helpers
/// no longer inline, and an unscoped projection took ×1.08 the time of the
/// same code in a plain function, measured interleaved in one process on a
/// 2-vCPU x86-64 host.)
///
/// The paper's pruning mask (Sec. 4.1) never reaches this stage: the cull
/// ([`crate::FrameArena::cull`]) leaves masked Gaussians out of the
/// gathered working set, so they cost Step ❶ nothing.
///
/// Runs in three phases: (1) chunked projection with per-chunk visible
/// counts — each chunk splits its consecutive IDs into blocks of
/// [`GAUSS_LANES`] and runs them through [`project_block`], one lane per
/// Gaussian (a block never spans a chunk; the lanes past a chunk's last ID
/// replicate that Gaussian and are ignored), leaving the kernel's lane
/// arrays in the workspace, (2) a serial exclusive prefix sum over the
/// per-chunk visible counts, (3) a chunked scatter that writes each chunk's
/// visible lanes into the per-slot arrays at its precomputed offset — the
/// hot fields as one [`TileSplat`] record — deriving the per-splat tile
/// rectangle and cut box on the way. Chunk geometry is a constant
/// (`PROJECT_CHUNK`), lanes never interact and slots are assigned in
/// Gaussian-ID order, so the result is bitwise-identical on every backend
/// and pool size — and to the scalar definition [`project_one`], which the
/// AoS oracle calls.
///
/// The workspace and output buffers are cleared and refilled; once their
/// capacities cover the frame (scene size, visible count), re-projection
/// performs **no heap allocation**.
pub(crate) fn project_scene_into(
    act: u8,
    scene: &GaussianScene,
    w2c: &Se3,
    camera: &PinholeCamera,
    backend: &dyn Backend,
    ws: &mut ProjectScratch,
    out: &mut Projection,
) {
    let rot = w2c.rotation_matrix();
    let n = scene.len();
    let tiles_x = camera.width.div_ceil(TILE_SIZE);
    let tiles_y = camera.height.div_ceil(TILE_SIZE);
    let chunks = n.div_ceil(PROJECT_CHUNK).max(1);

    // Phase 1: chunked projection into lane blocks with per-chunk visible
    // counts.
    if ws.blocks.len() < chunks * BLOCKS_PER_CHUNK {
        ws.blocks
            .resize_with(chunks * BLOCKS_PER_CHUNK, ProjectedBlock::default);
    }
    ws.visible_counts.clear();
    ws.visible_counts.resize(chunks, 0);
    {
        let block_view = SharedSlice::new(&mut ws.blocks);
        let count_view = SharedSlice::new(&mut ws.visible_counts);
        backend.for_each_chunk(n, PROJECT_CHUNK, &|chunk, range| {
            let kernel = match act {
                COMPUTE => project_block::<COMPUTE>,
                KEEP => project_block::<KEEP>,
                _ => project_block::<LOAD>,
            };
            let mut visible = 0usize;
            let mut ids = [0u32; GAUSS_LANES];
            for (filled, start) in range.clone().step_by(GAUSS_LANES).enumerate() {
                let live = (range.end - start).min(GAUSS_LANES);
                for (lane, id) in ids[..live].iter_mut().enumerate() {
                    *id = (start + lane) as u32;
                }
                // SAFETY: each chunk fills its own block slots.
                let block = unsafe { block_view.get_mut(chunk * BLOCKS_PER_CHUNK + filled) };
                kernel(&scene.gaussians, &ids[..live], &rot, w2c, camera, block);
                visible += block.visible.count_ones() as usize;
            }
            // SAFETY: each chunk index is written once.
            unsafe { count_view.write(chunk, visible) };
        });
    }

    // Phase 2: serial scan fixes every chunk's output offset (and thereby
    // the slot order: ascending Gaussian ID).
    let total_visible = exclusive_prefix_sum_into(&ws.visible_counts, &mut ws.offsets);
    let offsets = &ws.offsets;

    // Phase 3: chunked scatter into the per-slot arrays.
    out.reset(total_visible, n, tiles_x, tiles_y);
    let ids_view = SharedSlice::new(&mut out.gaussian_ids);
    let slot_view = SharedSlice::new(&mut out.slot_of_gaussian);
    let splat_view = SharedSlice::new(&mut out.splats);
    let t_cam_view = SharedSlice::new(&mut out.t_cams);
    let rect_view = SharedSlice::new(&mut out.tile_rects);
    let cut_box_view = SharedSlice::new(&mut out.cut_boxes);
    let activation_view = SharedSlice::new(&mut out.activations);
    let blocks = &ws.blocks;
    backend.for_each_chunk(n, PROJECT_CHUNK, &|chunk, range| {
        let filled = range.len().div_ceil(GAUSS_LANES);
        let lanes = blocks[chunk * BLOCKS_PER_CHUNK..][..filled]
            .iter()
            .flat_map(|block| (0..GAUSS_LANES).filter_map(|lane| block.lane(lane)));
        // Blocks and lanes are in ascending Gaussian-ID order.
        for (slot, lane) in (offsets[chunk]..).zip(lanes) {
            let record = lane.record;
            // SAFETY: chunk offsets partition the slot space, so each slot
            // (and each Gaussian id) is written by exactly one chunk.
            unsafe {
                ids_view.write(slot, lane.id);
                slot_view.write(lane.id as usize, slot as u32);
                splat_view.write(slot, record);
                t_cam_view.write(slot, lane.t_cam);
                rect_view.write(
                    slot,
                    tile_rect_of(record.mean, lane.radius, tiles_x, tiles_y),
                );
                cut_box_view.write(slot, CutBox::of(&record));
                activation_view.write(slot, lane.activation);
            }
        }
    });
}

/// Projects a single Gaussian (EWA splatting); `None` when culled.
///
/// The scalar definition of Step ❶: the AoS oracle
/// (`reference::project_scene_aos`) calls it, and [`project_block`] — what
/// production runs — reproduces it expression for expression.
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
    let (lim_x, lim_y) = frustum_limits(camera);
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

/// The guard-band limits `(x, y)` on the off-axis ratios `t_x/t_z`,
/// `t_y/t_z` ([`FRUSTUM_CLAMP`]).
#[inline]
pub(crate) fn frustum_limits(camera: &PinholeCamera) -> (f32, f32) {
    (
        FRUSTUM_CLAMP * (0.5 * camera.width as f32 / camera.fx),
        FRUSTUM_CLAMP * (0.5 * camera.height as f32 / camera.fy),
    )
}

/// [`jacobian_with_clamp`] inside a lane loop: the same expressions on plain
/// arrays, `limits` being the camera's [`frustum_limits`] (hoisted by the
/// caller), `f32::clamp` spelled as its two compare-selects and the clamp
/// flags returned as [`lane_mask`]s.
#[inline(always)]
pub(crate) fn jacobian_lane(
    camera: &PinholeCamera,
    (lim_x, lim_y): (f32, f32),
    t: [f32; 3],
) -> (M3, u32, u32) {
    let clamp = |ratio: f32, lim: f32| {
        let low = select(lane_mask(ratio < -lim), -lim, ratio);
        select(lane_mask(low > lim), lim, low)
    };
    let ratio_x = t[0] / t[2];
    let ratio_y = t[1] / t[2];
    let clamped_x = !(lane_mask(-lim_x <= ratio_x) & lane_mask(ratio_x <= lim_x));
    let clamped_y = !(lane_mask(-lim_y <= ratio_y) & lane_mask(ratio_y <= lim_y));
    let tx = clamp(ratio_x, lim_x) * t[2];
    let ty = clamp(ratio_y, lim_y) * t[2];
    let inv_z = 1.0 / t[2];
    let inv_z2 = inv_z * inv_z;
    let j = [
        [camera.fx * inv_z, 0.0, -camera.fx * tx * inv_z2],
        [0.0, camera.fy * inv_z, -camera.fy * ty * inv_z2],
        [0.0, 0.0, 0.0],
    ];
    (j, clamped_x, clamped_y)
}

/// What [`project_block`] leaves behind for one block of Gaussians: every
/// scalar Step ❶'s scatter reads, as one lane array each.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProjectedBlock {
    /// The lanes' Gaussian IDs.
    ids: [u32; GAUSS_LANES],
    /// Bit `l` set when lane `l` produced a splat — none of
    /// [`project_one`]'s three `None` exits (near plane, singular 2D
    /// covariance, frustum) fired.
    visible: u32,
    t_cam: [Lanes; 3],
    mean: [Lanes; 2],
    /// `(xx, xy, yy)`.
    conic: [Lanes; 3],
    radius: Lanes,
    /// Activated opacity, its cutoff ([`splat_q_cut`]) and the color —
    /// current on visible lanes, on every lane after a [`KEEP`] projection.
    opacity: Lanes,
    q_cut: Lanes,
    color: [Vec3; GAUSS_LANES],
    /// Activated scale (zero on lanes behind the near plane, unless the
    /// block was filled by a [`KEEP`] projection).
    scale: [Lanes; 3],
    /// Norm of the raw quaternion, and the unit quaternion `(w, x, y, z)`.
    rotation_norm: Lanes,
    unit_rotation: [Lanes; 4],
    /// World-space covariance `Σ` `(xx, xy, xz, yy, yz, zz)`, kept by a
    /// [`KEEP`] projection only.
    world_cov: [Lanes; 6],
}

/// One visible lane of a [`ProjectedBlock`]: what Step ❶'s scatter writes
/// for its splat, the tile rectangle and the cut box aside, which it
/// derives from `radius` and `record`.
#[derive(Debug)]
pub(crate) struct BlockLane {
    /// The source Gaussian's ID.
    pub(crate) id: u32,
    pub(crate) record: TileSplat,
    pub(crate) t_cam: Vec3,
    /// Bounding radius in pixels (3σ of the major axis).
    pub(crate) radius: f32,
    pub(crate) activation: Activation,
}

impl ProjectedBlock {
    /// Lane `lane`'s splat; `None` when the lane was culled (or replicates
    /// another).
    pub(crate) fn lane(&self, lane: usize) -> Option<BlockLane> {
        if self.visible & (1 << lane) == 0 {
            return None;
        }
        let l = lane;
        let vec3 = |v: &[Lanes; 3]| Vec3::new(v[0][l], v[1][l], v[2][l]);
        let q = &self.unit_rotation;
        Some(BlockLane {
            id: self.ids[l],
            record: TileSplat {
                mean: Vec2::new(self.mean[0][l], self.mean[1][l]),
                conic: Sym2::new(self.conic[0][l], self.conic[1][l], self.conic[2][l]),
                opacity: self.opacity[l],
                color: self.color[l],
                depth: self.t_cam[2][l],
                q_cut: self.q_cut[l],
            },
            t_cam: vec3(&self.t_cam),
            radius: self.radius[l],
            activation: Activation {
                scale: vec3(&self.scale),
                rotation_norm: self.rotation_norm[l],
                unit_rotation: Quat::new(q[0][l], q[1][l], q[2][l], q[3][l]),
            },
        })
    }
}

/// Step ❶ for a block of up to [`GAUSS_LANES`] Gaussians
/// (`gaussians[ids[..]]`), one lane each: [`project_one`]'s floating-point
/// program, expression for expression — down through
/// `Gaussian3d::covariance`, `Quat::to_rotation_matrix` and the `Mat3` /
/// `Sym3` methods it calls — as straight-line code inside lane loops the
/// compiler vectorises, its three `None` exits folded into a per-lane
/// visible mask, `jacobian_with_clamp`'s clamps and `Quat::normalized`'s
/// zero-norm fallback into selects. Lanes past `ids.len()` replicate the
/// last Gaussian, so no lane computes on garbage; a culled lane computes on
/// (its value is dropped, a division by a zero determinant included —
/// floating point does not trap).
///
/// libm stays scalar, between the lane loops: `exp(log_scale)` once per
/// lane in front of the near plane, the opacity sigmoid and the cutoff's
/// `ln` once per visible lane — their libm calls are not ours to vectorise,
/// and every bit has to be the one [`project_one`] computes. `sqrt` and `/`
/// are correctly rounded in scalar and vector form alike and run inside the
/// loop.
///
/// `ACT` ([`activations`]) decides where the pose-independent values come
/// from: [`COMPUTE`] as just described; [`KEEP`] computes the scalar ones
/// for every lane, whatever the pose culls, and keeps the world-space `Σ`
/// in `out`; [`LOAD`] computes none of them and reads what a [`KEEP`] call
/// left in `out` for the same `ids`.
///
/// # Panics
///
/// Panics unless `1 <= ids.len() <= GAUSS_LANES`.
#[allow(clippy::needless_range_loop)] // lane loops index parallel arrays
pub(crate) fn project_block<const ACT: u8>(
    gaussians: &[Gaussian3d],
    ids: &[u32],
    rot: &Mat3,
    w2c: &Se3,
    camera: &PinholeCamera,
    out: &mut ProjectedBlock,
) {
    assert!((1..=GAUSS_LANES).contains(&ids.len()));
    let of_lane = |l: usize| &gaussians[ids[l.min(ids.len() - 1)] as usize];
    let rot_w2c = &rot.m;
    let shift = w2c.translation;
    // One `&mut` per lane array, so the loops' stores provably do not alias
    // their loads.
    let ProjectedBlock {
        ids: lane_ids,
        visible,
        t_cam,
        mean,
        conic,
        radius,
        opacity,
        q_cut,
        color,
        scale,
        rotation_norm,
        unit_rotation,
        world_cov,
    } = out;
    debug_assert!(
        ACT != LOAD || lane_ids[..ids.len()] == *ids,
        "stale activations"
    );
    lane_ids[..ids.len()].copy_from_slice(ids);

    // Camera-frame means: `rot.mul_vec(position) + translation`.
    let mut position = [[0.0f32; GAUSS_LANES]; 3];
    let mut raw_rotation = [[0.0f32; GAUSS_LANES]; 4];
    for l in 0..GAUSS_LANES {
        let g = of_lane(l);
        let (p, q) = (g.position, g.rotation);
        (position[0][l], position[1][l], position[2][l]) = (p.x, p.y, p.z);
        (raw_rotation[0][l], raw_rotation[1][l]) = (q.w, q.x);
        (raw_rotation[2][l], raw_rotation[3][l]) = (q.y, q.z);
    }
    for l in 0..GAUSS_LANES {
        let t = mul_vec3(rot_w2c, [position[0][l], position[1][l], position[2][l]]);
        t_cam[0][l] = t[0] + shift.x;
        t_cam[1][l] = t[1] + shift.y;
        t_cam[2][l] = t[2] + shift.z;
    }

    // Scalar: `exp(log_scale)` of the lanes that pass the near plane (the
    // others, as in `project_one`, drop out before activating anything) —
    // of every lane when kept for later poses.
    if ACT != LOAD {
        for l in 0..GAUSS_LANES {
            let from = l.min(ids.len() - 1);
            let s = if from < l {
                Vec3::new(scale[0][from], scale[1][from], scale[2][from])
            } else if ACT == COMPUTE && t_cam[2][l] < NEAR_PLANE {
                Vec3::ZERO
            } else {
                of_lane(l).scale()
            };
            (scale[0][l], scale[1][l], scale[2][l]) = (s.x, s.y, s.z);
        }
    }

    let limits = frustum_limits(camera);
    let (width, height) = (camera.width as f32, camera.height as f32);
    let mut culled = [0u32; GAUSS_LANES];
    for l in 0..GAUSS_LANES {
        let cov3d = if ACT == LOAD {
            let c = &*world_cov;
            [
                [c[0][l], c[1][l], c[2][l]],
                [c[1][l], c[3][l], c[4][l]],
                [c[2][l], c[4][l], c[5][l]],
            ]
        } else {
            // `Quat::norm`, `Quat::normalized` (the identity below 1e-12),
            // `Quat::to_rotation_matrix`, `Gaussian3d::covariance`.
            let q = &raw_rotation;
            let norm =
                (q[0][l] * q[0][l] + q[1][l] * q[1][l] + q[2][l] * q[2][l] + q[3][l] * q[3][l])
                    .sqrt();
            let tiny = lane_mask(norm < 1e-12);
            let unit = [
                select(tiny, 1.0, q[0][l] / norm),
                select(tiny, 0.0, q[1][l] / norm),
                select(tiny, 0.0, q[2][l] / norm),
                select(tiny, 0.0, q[3][l] / norm),
            ];
            let cov3d = covariance3(&rotation3(unit), [scale[0][l], scale[1][l], scale[2][l]]);
            rotation_norm[l] = norm;
            (unit_rotation[0][l], unit_rotation[1][l]) = (unit[0], unit[1]);
            (unit_rotation[2][l], unit_rotation[3][l]) = (unit[2], unit[3]);
            if ACT == KEEP {
                (world_cov[0][l], world_cov[1][l]) = (cov3d[0][0], cov3d[0][1]);
                (world_cov[2][l], world_cov[3][l]) = (cov3d[0][2], cov3d[1][1]);
                (world_cov[4][l], world_cov[5][l]) = (cov3d[1][2], cov3d[2][2]);
            }
            cov3d
        };

        let t = [t_cam[0][l], t_cam[1][l], t_cam[2][l]];
        let mean_x = camera.fx * t[0] / t[2] + camera.cx;
        let mean_y = camera.fy * t[1] / t[2] + camera.cy;

        // EWA: cov2d = J W Σ Wᵀ Jᵀ (`Sym3::congruence`; only the top-left
        // 2×2 is used).
        let (j, _, _) = jacobian_lane(camera, limits, t);
        let m = mul3(&j, rot_w2c);
        let full = mul3(&mul3(&m, &cov3d), &transpose3(&m));
        let (xx, xy, yy) = (full[0][0] + COV2D_BLUR, full[0][1], full[1][1] + COV2D_BLUR);

        // `Sym2::inverse`, `Sym2::eigenvalues`.
        let det = xx * yy - xy * xy;
        let inv = 1.0 / det;
        let mid = 0.5 * (xx + yy);
        let diff = 0.5 * (xx - yy);
        let l1 = mid + (diff * diff + xy * xy).sqrt();
        let extent = 3.0 * l1.max(0.0).sqrt();

        // `|`, not `||`: no branch in the lane loop.
        culled[l] = lane_mask(
            (t[2] < NEAR_PLANE)
                | (det.abs() < 1e-12)
                | (mean_x + extent < 0.0)
                | (mean_y + extent < 0.0)
                | (mean_x - extent >= width)
                | (mean_y - extent >= height),
        );
        (mean[0][l], mean[1][l]) = (mean_x, mean_y);
        (conic[0][l], conic[1][l], conic[2][l]) = (yy * inv, -xy * inv, xx * inv);
        radius[l] = extent;
    }

    // Scalar: what only a visible splat needs — every lane's when kept.
    *visible = 0;
    for l in 0..ids.len() {
        if culled[l] == 0 {
            *visible |= 1 << l;
        }
        if ACT == KEEP || (ACT == COMPUTE && culled[l] == 0) {
            opacity[l] = of_lane(l).opacity_activated();
            q_cut[l] = splat_q_cut(opacity[l]);
            color[l] = of_lane(l).color;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::Gaussian3d;
    use rtgs_runtime::Serial;

    fn test_camera() -> PinholeCamera {
        PinholeCamera::from_fov(64, 48, 1.2)
    }

    /// Step ❶ alone over `scene` (no cull in front of it, so the near-plane
    /// and frustum tests below are the kernel's own).
    fn projected(scene: &GaussianScene, w2c: &Se3, camera: &PinholeCamera) -> Projection {
        let mut out = Projection::default();
        let mut ws = ProjectScratch::default();
        project_scene_into(COMPUTE, scene, w2c, camera, &Serial, &mut ws, &mut out);
        out
    }

    /// The record and camera-frame mean of Gaussian `id`'s splat, `None`
    /// when it was culled.
    fn splat_of(proj: &Projection, id: usize) -> Option<(TileSplat, Vec3)> {
        proj.slot(id).map(|s| (proj.splats[s], proj.t_cams[s]))
    }

    /// The record and `t_cam` the scalar definition gives a splat.
    fn record_of(s: &Projected2d) -> (TileSplat, Vec3) {
        let record = TileSplat {
            mean: s.mean,
            conic: s.conic,
            opacity: s.opacity,
            color: s.color,
            depth: s.depth,
            q_cut: splat_q_cut(s.opacity),
        };
        (record, s.t_cam)
    }

    /// [`project_one`] of Gaussian `id` of `scene`.
    fn scalar(scene: &GaussianScene, id: usize, w2c: &Se3, cam: &PinholeCamera) -> Projected2d {
        let g = &scene.gaussians[id];
        project_one(g, id as u32, &w2c.rotation_matrix(), w2c, cam).expect("visible")
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
        let (w2c, cam) = (Se3::IDENTITY, test_camera());
        let proj = projected(&scene, &w2c, &cam);
        let (splat, t_cam) = splat_of(&proj, 0).expect("should be visible");
        assert!((splat.mean - Vec2::new(32.0, 24.0)).max_abs() < 1e-4);
        assert!((splat.depth - 2.0).abs() < 1e-6);
        assert_eq!((splat, t_cam), record_of(&scalar(&scene, 0, &w2c, &cam)));
        assert_eq!(proj.visible_count(), 1);
    }

    #[test]
    fn culls_behind_camera() {
        let scene = GaussianScene::from_gaussians(vec![centered_gaussian(-1.0)]);
        let proj = projected(&scene, &Se3::IDENTITY, &test_camera());
        assert!(splat_of(&proj, 0).is_none());
        assert_eq!(proj.visible_count(), 0);
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
        let proj = projected(&scene, &Se3::IDENTITY, &test_camera());
        assert!(splat_of(&proj, 0).is_none());
    }

    /// The mask acts in the cull: a masked Gaussian never reaches Step ❶.
    #[test]
    fn mask_skips_gaussians() {
        let scene =
            GaussianScene::from_gaussians(vec![centered_gaussian(2.0), centered_gaussian(3.0)]);
        let map = crate::ShardedScene::from_scene(&scene, crate::DEFAULT_CELL_SIZE);
        let (w2c, cam) = (Se3::IDENTITY, test_camera());
        let mut arena = crate::FrameArena::new();
        arena.cull(&map, &w2c, &cam, Some(&[false, true]), &Serial);
        arena.project_visible(&w2c, &cam, &Serial);
        assert_eq!(arena.visible().ids, [1]);
        assert_eq!(arena.projection().visible_count(), 1);
    }

    #[test]
    fn conic_is_inverse_of_cov() {
        let scene = GaussianScene::from_gaussians(vec![centered_gaussian(2.0)]);
        let (w2c, cam) = (Se3::IDENTITY, test_camera());
        let (record, _) = splat_of(&projected(&scene, &w2c, &cam), 0).unwrap();
        let s = scalar(&scene, 0, &w2c, &cam);
        assert_eq!(record.conic, s.conic);
        let prod = s.cov.to_mat2() * record.conic.to_mat2();
        assert!((prod.m[0][0] - 1.0).abs() < 1e-4);
        assert!(prod.m[0][1].abs() < 1e-4);
    }

    #[test]
    fn closer_gaussian_has_larger_radius() {
        let scene =
            GaussianScene::from_gaussians(vec![centered_gaussian(1.0), centered_gaussian(4.0)]);
        let proj = projected(&scene, &Se3::IDENTITY, &test_camera());
        // A wider splat has the smaller inverse covariance.
        let (near, _) = splat_of(&proj, 0).unwrap();
        let (far, _) = splat_of(&proj, 1).unwrap();
        assert!(near.conic.xx < far.conic.xx && near.conic.yy < far.conic.yy);
    }

    #[test]
    fn pose_translation_shifts_projection() {
        let scene = GaussianScene::from_gaussians(vec![centered_gaussian(2.0)]);
        let cam = test_camera();
        // Move the camera left: the point should appear to move right.
        let w2c = Se3::from_translation(Vec3::new(0.5, 0.0, 0.0));
        let proj = projected(&scene, &w2c, &cam);
        let (splat, _) = splat_of(&proj, 0).unwrap();
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
        let proj = projected(&scene, &Se3::IDENTITY, &test_camera());
        assert_eq!(proj.gaussian_ids, vec![0, 2, 3]);
        assert_eq!(proj.slot_of_gaussian, vec![0, NO_SLOT, 1, 2]);
        assert_eq!(proj.visible_count(), 3);
        // Slot 1 holds Gaussian 2's record.
        assert!((proj.splats[1].depth - 2.0).abs() < 1e-6);
    }

    #[test]
    fn tile_rects_cover_splat_extent() {
        let scene = GaussianScene::from_gaussians(vec![centered_gaussian(2.0)]);
        let cam = test_camera();
        let proj = projected(&scene, &Se3::IDENTITY, &cam);
        let [tx0, tx1, ty0, ty1] = proj.tile_rects[0];
        let s = proj.splats[0];
        assert!(tx0 as usize <= (s.mean.x as usize) / TILE_SIZE);
        assert!(ty0 as usize <= (s.mean.y as usize) / TILE_SIZE);
        assert!((tx1 as usize) < proj.tiles_x && (ty1 as usize) < proj.tiles_y);
        assert!(tx0 <= tx1 && ty0 <= ty1);
    }

    /// The spelling `tile_rect_of` replaced, which the AoS oracle's binning
    /// keeps.
    fn tile_rect_by_floor(mean: Vec2, radius: f32, tiles_x: usize, tiles_y: usize) -> TileRect {
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

    #[test]
    fn tile_rect_matches_the_floor_spelling() {
        let edges = [
            -1e30,
            -33.0,
            -16.0,
            -15.999,
            -1.0,
            -1e-3,
            -0.0,
            0.0,
            1e-3,
            15.999,
            16.0,
            16.001,
            47.5,
            79.999,
            80.0,
            1e4,
            1e30,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for (tiles_x, tiles_y) in [(5, 3), (1, 1), (4, 4)] {
            for &x in &edges {
                for &y in &edges {
                    for &radius in &[0.0, 0.4, 7.3, 16.0, 300.0, f32::INFINITY, f32::NAN] {
                        let mean = Vec2::new(x, y);
                        assert_eq!(
                            tile_rect_of(mean, radius, tiles_x, tiles_y),
                            tile_rect_by_floor(mean, radius, tiles_x, tiles_y),
                            "{mean:?} ± {radius} on {tiles_x}x{tiles_y}"
                        );
                    }
                }
            }
        }
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

    // ---- project_block == project_one, bit for bit ---------------------------

    use crate::gaussian::test_support::{
        arb_gaussian, same_float, session_camera, tilted_pose, visible_gaussians as neighbours,
    };
    use proptest::prelude::*;

    /// A splat's record, camera-frame mean and radius as floats.
    fn splat_floats(r: &TileSplat, t_cam: Vec3, radius: f32) -> [f32; 15] {
        [
            r.mean.x, r.mean.y, r.conic.xx, r.conic.xy, r.conic.yy, r.opacity, r.color.x,
            r.color.y, r.color.z, r.depth, r.q_cut, t_cam.x, t_cam.y, t_cam.z, radius,
        ]
    }

    fn activation_floats(a: &Activation) -> [f32; 8] {
        let (s, q) = (a.scale, a.unit_rotation);
        [s.x, s.y, s.z, a.rotation_norm, q.w, q.x, q.y, q.z]
    }

    fn is_finite(g: &Gaussian3d) -> bool {
        let q = g.rotation;
        g.position.is_finite()
            && g.log_scale.is_finite()
            && [q.w, q.x, q.y, q.z, g.opacity]
                .iter()
                .all(|v| v.is_finite())
    }

    /// Runs `gaussians[ids]` through one block in every [`activations`]
    /// mode and holds every lane to the scalar definitions: the same `Some` /
    /// `None` as [`project_one`], the ID, every float of the record (the
    /// conic and the cutoff included), the camera-frame mean, the radius and
    /// every activation float ([`Activation::of`]) equal on bits — for a
    /// Gaussian with a non-finite parameter, equal or both NaN. The [`LOAD`] block
    /// loads what a [`KEEP`] projection left from far behind the camera,
    /// where every finite lane is culled at the near plane, so activations
    /// kept only for the lanes that pose needed would show. Returns which lanes were
    /// visible.
    fn assert_block_matches_scalar(
        gaussians: &[Gaussian3d],
        ids: &[u32],
        w2c: &Se3,
        camera: &PinholeCamera,
    ) -> Vec<bool> {
        let rot = w2c.rotation_matrix();
        // Stale contents of a reused block must not show through.
        let decoys: Vec<u32> = (0..gaussians.len().min(GAUSS_LANES) as u32).collect();
        let mut computed = ProjectedBlock::default();
        project_block::<COMPUTE>(gaussians, &decoys, &rot, w2c, camera, &mut computed);
        project_block::<COMPUTE>(gaussians, ids, &rot, w2c, camera, &mut computed);
        let mut kept = ProjectedBlock::default();
        project_block::<COMPUTE>(gaussians, &decoys, &rot, w2c, camera, &mut kept);
        project_block::<KEEP>(gaussians, ids, &rot, w2c, camera, &mut kept);
        let mut loaded = ProjectedBlock::default();
        let behind = Se3::from_translation(Vec3::new(0.0, 0.0, -1e3)).compose(w2c);
        let rot_behind = behind.rotation_matrix();
        project_block::<KEEP>(gaussians, ids, &rot_behind, &behind, camera, &mut loaded);
        project_block::<LOAD>(gaussians, ids, &rot, w2c, camera, &mut loaded);
        let mut visible = Vec::new();
        for (mode, block) in [("compute", &computed), ("keep", &kept), ("load", &loaded)] {
            for (lane, &id) in ids.iter().enumerate() {
                let g = &gaussians[id as usize];
                let want = project_one(g, id, &rot, w2c, camera);
                let got = block.lane(lane);
                assert_eq!(got.is_some(), want.is_some(), "{mode} lane {lane}: {g:?}");
                if mode == "compute" {
                    visible.push(want.is_some());
                }
                let (Some(got), Some(want)) = (got, want) else {
                    continue;
                };
                assert_eq!(got.id, id);
                let exact = is_finite(g);
                let same =
                    |a: f32, b: f32| a.to_bits() == b.to_bits() || (!exact && same_float(a, b));
                let (record, t_cam) = record_of(&want);
                for (k, (a, b)) in splat_floats(&got.record, got.t_cam, got.radius)
                    .iter()
                    .zip(splat_floats(&record, t_cam, want.radius))
                    .enumerate()
                {
                    assert!(
                        same(*a, b),
                        "{mode} lane {lane}, splat float {k}: {a} vs {b} for {g:?}"
                    );
                }
                let want = Activation::of(g);
                let floats = activation_floats(&got.activation);
                for (k, (a, b)) in floats.iter().zip(activation_floats(&want)).enumerate() {
                    assert!(
                        same(*a, b),
                        "{mode} lane {lane}, activation float {k}: {a} vs {b} for {g:?}"
                    );
                }
            }
            for lane in ids.len()..GAUSS_LANES {
                assert!(
                    block.lane(lane).is_none(),
                    "{mode} tail lane {lane} must stay dark"
                );
            }
        }
        visible
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn block_lanes_match_project_one_bitwise(
            gaussians in prop::collection::vec(arb_gaussian(), GAUSS_LANES),
            tilted in 0usize..2,
        ) {
            let w2c = if tilted == 1 { tilted_pose() } else { Se3::IDENTITY };
            let ids: Vec<u32> = (0..GAUSS_LANES as u32).collect();
            assert_block_matches_scalar(&gaussians, &ids, &w2c, &session_camera());
        }
    }

    #[test]
    fn every_tail_length_matches() {
        let gaussians = neighbours(GAUSS_LANES);
        for pose in [Se3::IDENTITY, tilted_pose()] {
            for len in 1..=GAUSS_LANES {
                let head: Vec<u32> = (0..len as u32).collect();
                let tail: Vec<u32> = ((GAUSS_LANES - len) as u32..GAUSS_LANES as u32).collect();
                for ids in [head, tail] {
                    let visible =
                        assert_block_matches_scalar(&gaussians, &ids, &pose, &session_camera());
                    assert!(!visible.contains(&false), "{ids:?}");
                }
            }
        }
    }

    /// `hostile` at every lane position among ordinary neighbours; returns
    /// whether it was visible.
    fn assert_hostile_lane_matches(hostile: Gaussian3d, w2c: &Se3) -> bool {
        let mut seen = None;
        for at in 0..GAUSS_LANES {
            let mut gaussians = neighbours(GAUSS_LANES);
            gaussians[at] = hostile;
            let ids: Vec<u32> = (0..GAUSS_LANES as u32).collect();
            let visible = assert_block_matches_scalar(&gaussians, &ids, w2c, &session_camera());
            assert_eq!(*seen.get_or_insert(visible[at]), visible[at]);
        }
        seen.expect("at least one lane")
    }

    /// A fat Gaussian at off-axis ratios `(rx, ry)`, one metre out.
    fn off_axis(rx: f32, ry: f32) -> Gaussian3d {
        Gaussian3d {
            position: Vec3::new(rx, ry, 1.0),
            log_scale: Vec3::splat(-0.5),
            ..neighbours(1)[0]
        }
    }

    #[test]
    fn clamped_off_axis_lanes_match() {
        let cam = session_camera();
        let (lim_x, lim_y) = frustum_limits(&cam);
        for (rx, ry, want) in [
            (lim_x * 1.2, 0.1, (true, false)),
            (-lim_x * 1.2, 0.1, (true, false)),
            (0.1, lim_y * 1.3, (false, true)),
            (0.1, -lim_y * 1.3, (false, true)),
            (lim_x * 1.1, -lim_y * 1.2, (true, true)),
            // Exactly on the limit: inside.
            (lim_x, lim_y, (false, false)),
        ] {
            let g = off_axis(rx, ry);
            let (_, cx, cy) = jacobian_with_clamp(&cam, g.position);
            assert_eq!((cx, cy), want, "({rx}, {ry})");
            assert!(
                assert_hostile_lane_matches(g, &Se3::IDENTITY),
                "the clamp must be reached by a visible splat"
            );
        }
    }

    #[test]
    fn zero_norm_quaternion_lanes_match() {
        for q in [
            Quat::new(0.0, 0.0, 0.0, 0.0),
            Quat::new(1e-20, -1e-21, 0.0, 3e-20),
            // Just either side of the 1e-12 threshold.
            Quat::new(0.0, 0.9e-12, 0.0, 0.0),
            Quat::new(0.0, 1.1e-12, 0.0, 0.0),
        ] {
            let g = Gaussian3d {
                rotation: q,
                ..neighbours(3)[2]
            };
            assert_eq!(g.rotation.normalized() == Quat::IDENTITY, q.norm() < 1e-12);
            assert!(assert_hostile_lane_matches(g, &tilted_pose()));
        }
    }

    #[test]
    fn near_plane_lanes_match_on_either_side() {
        // At the identity pose `t_z` is the position's z exactly.
        let at = |z: f32| Gaussian3d {
            position: Vec3::new(0.01, -0.02, z),
            ..neighbours(1)[0]
        };
        let below = f32::from_bits(NEAR_PLANE.to_bits() - 1);
        let above = f32::from_bits(NEAR_PLANE.to_bits() + 1);
        assert!(!assert_hostile_lane_matches(at(below), &Se3::IDENTITY));
        assert!(assert_hostile_lane_matches(at(NEAR_PLANE), &Se3::IDENTITY));
        assert!(assert_hostile_lane_matches(at(above), &Se3::IDENTITY));
        assert!(!assert_hostile_lane_matches(at(-3.0), &Se3::IDENTITY));
    }

    #[test]
    fn singular_covariance_lane_is_dropped_like_the_scalar_path() {
        // A needle along the view axis, off-centre by the same ratio in x
        // and y: its 2D covariance is the rank-one `σ²·j·jᵀ` with equal
        // entries, large enough to swallow the blur — `det == 0` exactly.
        let needle = |length: f32| Gaussian3d {
            position: Vec3::new(0.3, 0.3, 1.0),
            log_scale: Vec3::new(-18.0, -18.0, length.ln()),
            rotation: Quat::IDENTITY,
            ..neighbours(1)[0]
        };
        assert!(!assert_hostile_lane_matches(needle(1e3), &Se3::IDENTITY));
        assert!(assert_hostile_lane_matches(needle(0.1), &Se3::IDENTITY));
    }

    #[test]
    fn non_finite_lane_leaves_its_neighbours_untouched() {
        type Poison = fn(&mut Gaussian3d);
        let poisons: [Poison; 9] = [
            |g| g.position.x = f32::NAN,
            |g| g.position.z = f32::INFINITY,
            |g| g.position.y = f32::NEG_INFINITY,
            |g| g.log_scale.y = f32::INFINITY,
            |g| g.log_scale.z = f32::NEG_INFINITY,
            |g| g.log_scale.x = f32::NAN,
            |g| g.rotation.w = f32::NAN,
            |g| g.rotation = Quat::new(f32::INFINITY, 1.0, f32::NEG_INFINITY, 0.0),
            |g| g.opacity = f32::NAN,
        ];
        for poison in poisons {
            let mut g = neighbours(2)[1];
            poison(&mut g);
            assert!(!is_finite(&g));
            // The neighbours are finite, so `assert_block_matches_scalar`
            // holds them to exact bits whatever the poisoned lane does.
            assert_hostile_lane_matches(g, &tilted_pose());
        }
    }

    /// Every active-mask pattern over one block's worth of Gaussians (some
    /// of them culled), through the cull — where the mask acts — and the
    /// whole of Step ❶, against the AoS oracle: the gathered IDs, the
    /// visible and culled counts, the records, and what the scatter derives
    /// per slot (the radius reaches the output as the tile rectangle).
    #[test]
    fn every_mask_pattern_of_a_block_matches_the_oracle() {
        let mut gaussians = neighbours(GAUSS_LANES);
        gaussians[2].position.z = -1.0; // near plane
        gaussians[5].position.x = 40.0; // frustum
        let scene = GaussianScene::from_gaussians(gaussians);
        let map = crate::ShardedScene::from_scene(&scene, crate::DEFAULT_CELL_SIZE);
        let (w2c, cam) = (tilted_pose(), session_camera());
        let mut arena = crate::FrameArena::new();
        for pattern in 0..1u32 << GAUSS_LANES {
            let mask: Vec<bool> = (0..GAUSS_LANES).map(|l| pattern & (1 << l) != 0).collect();
            let want = crate::reference::project_scene_aos(&scene, &w2c, &cam, Some(&mask));
            arena.cull(&map, &w2c, &cam, Some(&mask), &Serial);
            arena.project_visible(&w2c, &cam, &Serial);
            let ids = &arena.visible().ids;
            assert!(
                ids.iter().all(|&id| mask[id as usize]),
                "{pattern:#b}: the cull gathers no masked Gaussian"
            );
            let got = arena.projection();
            assert_eq!(
                got.visible_count(),
                want.visible_count(),
                "{pattern:#b}: visible"
            );
            assert_eq!(
                ids.len() - got.visible_count(),
                ids.iter()
                    .filter(|&&id| want.splats[id as usize].is_none())
                    .count(),
                "{pattern:#b}: culled"
            );
            for (k, &id) in ids.iter().enumerate() {
                let id = id as usize;
                let want = want.splats[id].as_ref();
                assert_eq!(
                    splat_of(got, k),
                    want.map(record_of),
                    "{pattern:#b}, Gaussian {id}"
                );
                let (Some(slot), Some(want)) = (got.slot(k), want) else {
                    continue;
                };
                assert_eq!(got.activations[slot], Activation::of(&scene.gaussians[id]));
                let (tiles_x, tiles_y) = (got.tiles_x, got.tiles_y);
                let rect = tile_rect_of(want.mean, want.radius, tiles_x, tiles_y);
                assert_eq!(got.tile_rects[slot], rect);
                assert_eq!(got.cut_boxes[slot], CutBox::of(&got.splats[slot]));
            }
        }
    }
}
