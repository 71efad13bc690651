//! Steps ❹–❺: Rendering backpropagation and preprocessing backpropagation
//! (paper Sec. 2.2, Eqs. 4–5).
//!
//! Step ❹ propagates per-pixel color/depth loss gradients to per-fragment
//! 2D Gaussian gradients, aggregated per Gaussian (the aggregation the GMU
//! accelerates in hardware). Step ❺ chains 2D gradients to the 3D Gaussian
//! parameters and — during tracking — to the camera pose tangent.
//!
//! Step ❹ has one driver, [`backward_into`]: it consumes the R&B records a
//! fused forward pass ([`crate::FrameArena::render_fused`]) wrote, so
//! forward + backward share one tile traversal (the paper's R&B Buffer,
//! Sec. 5). It is lane-wide like the forward kernel: per subtile it walks
//! the records back to front with the recursion's suffix state held as 16
//! pixel lanes, evaluates the per-fragment expressions four lanes (one
//! record row) at a time on the rows that blended, and merges a record's
//! contributions into the splat's accumulator in one read-modify-write
//! (`merge_subtile`) — the GMU's job in the paper's hardware. The tile
//! partials' fold and Step ❺ are one crate-private step
//! ([`fold_and_preprocess`]), which the test oracle
//! `reference::backward_rewalk` — the reference CUDA rasterizer's re-walk of
//! every pixel's fragment list, recomputing alpha and transmittance — calls
//! after its own tile loop.
//!
//! **Summation order.** A Gaussian's accumulator receives one contribution
//! per pixel it blended at, and floating-point sums depend on their order,
//! so the order is part of the definition, on every path: within a tile,
//! ascending [`TileFragments::pixel_index`] — subtile by subtile, lane by
//! lane — which is the order the lane kernel produces naturally and the
//! order in which both scalar oracles visit pixels
//! ([`crate::forward::tile_pixels`]); across tiles, tile order (the fold in
//! [`fold_and_preprocess`]). The driver reads a tile's splats from the one
//! tile-major gather Step ❸ made of the iteration (`forward::TileWork`) and
//! its records from the tile's four band slots, subtile by subtile. Because
//! the records hold exactly the values the re-walk recomputes and every path
//! adds the same terms in the same order, the gradients are
//! bitwise-identical.
//!
//! **Step ❺ is lane-wide too, lanes = Gaussians.** Each `BP_GAUSS_CHUNK`
//! chunk compacts its touched Gaussians into blocks of [`GAUSS_LANES`] and
//! runs them through [`preprocess_block`] — [`preprocess_one`]'s
//! floating-point program (the one scalar definition, which the AoS oracle
//! calls), expression for expression, over plain lane arrays, reading the
//! activated scale and the normalized quaternion Step ❶ kept instead of
//! calling `exp` and normalizing again. Per-lane gradient stores and
//! pose-tangent adds then happen in ascending Gaussian ID, so the chunk fold
//! is the same sum in the same order.
//!
//! **Two gradient sets, one program.** Step ❹ and Step ❺ are
//! instantiated twice, on a `const FULL: bool` (as `render_into::<RECORD>`
//! is): [`GradSet::Full`] for mapping and for tracking readers of
//! per-Gaussian gradients, [`GradSet::PoseOnly`] for a tracking iteration
//! whose readers need only the pose step. The pose-only instantiation drops
//! the expressions no pose term reads and keeps every other one, in the same
//! order, so its pose tangent is the full pass's bit for bit.
//!
//! Analytic gradients are verified against central finite differences in
//! `tests/grad_check.rs`.

use crate::camera::PinholeCamera;
use crate::forward::{
    lane_mask, pixel_centers, select, FragmentCache, RecordRow, TileFragments, TileSplat, TileWork,
    ALPHA_MAX, BANDS, LANES, SUBTILES_X,
};
use crate::gaussian::{Activation, GaussianGrad, GaussianScene};
use crate::project::{
    covariance3, diagonal3, frustum_limits, jacobian_lane, jacobian_with_clamp, mul3, mul_vec3,
    rotation3, transpose3, Lanes, Projected2d, Projection, GAUSS_LANES, M3,
};
use crate::tiles::{tile_pixel_rect, TileAssignment, SUBTILES_PER_TILE, SUBTILE_SIZE};
use rtgs_math::{Mat3, Se3, Sym2, Sym3, Vec2, Vec3};
use rtgs_runtime::{Backend, SharedSlice};
use std::time::Instant;

/// Tiles per chunk in the parallel Rendering BP (fixed by the algorithm,
/// not the worker count). The per-tile partials fold in tile order whatever
/// the chunking, so the value moves no bit; one tile per chunk for the
/// reason `forward::RENDER_CHUNK` gives (Step ❹ on two threads: ×0.62…0.68
/// of serial at 4, ×0.52…0.57 at 1; with the pool's two-ended claiming,
/// ×0.52…0.56 against ×0.54…0.59 over the same runs).
///
/// Step ❹'s unit stays a whole tile although Step ❸'s is a band: a
/// Gaussian's per-pixel contributions within a tile are summed in ascending
/// [`TileFragments::pixel_index`] order, and that order is the bitwise
/// contract with both oracles (see the module docs). Splitting a tile's
/// Step ❹ across bands would add per-band partial sums in a new tree and
/// move bits, so on a two-tile frame (factor 3 and 4 tracking) Step ❹ keeps
/// at most two units; that split is out of scope here.
pub(crate) const BP_TILE_CHUNK: usize = 1;
/// Gaussians per chunk in the parallel Preprocessing BP. The per-chunk
/// pose-tangent partial sums fold in chunk order, so this constant — never
/// the worker count — defines the floating-point summation tree.
pub(crate) const BP_GAUSS_CHUNK: usize = 256;

/// Which gradients a backward pass computes.
///
/// The map is frozen while tracking, so a tracking iteration whose readers
/// need only the pose step can skip everything the per-Gaussian gradients
/// cost. The two sets are two instantiations of the same kernels: the pose
/// tangent of a [`GradSet::PoseOnly`] pass is the same expressions summed in
/// the same (subtile, lane) order, minus the dead ones, so it equals the
/// [`GradSet::Full`] pose bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradSet {
    /// Only [`BackwardOutput::pose`]: Step ❹ drops the color and opacity
    /// terms, Step ❺ the position, opacity, `cov_frobenius` and
    /// scale/rotation chains, and [`BackwardOutput::gaussians`] is left
    /// empty.
    PoseOnly,
    /// Every per-Gaussian gradient and the pose tangent.
    Full,
}

/// Per-pixel upstream gradients, produced by the loss module.
#[derive(Debug, Clone)]
pub struct PixelGrads {
    /// `dL/dC` per pixel (row-major).
    pub color: Vec<Vec3>,
    /// `dL/dD` per pixel (row-major); zero where depth carries no loss.
    pub depth: Vec<f32>,
    /// `dL/dT_final` per pixel (row-major): gradient with respect to the
    /// final transmittance, used by the coverage-weighted depth residual.
    pub transmittance: Vec<f32>,
}

impl PixelGrads {
    /// Zeroed gradients for an image of the given size.
    pub fn zeros(width: usize, height: usize) -> Self {
        Self {
            color: vec![Vec3::ZERO; width * height],
            depth: vec![0.0; width * height],
            transmittance: vec![0.0; width * height],
        }
    }

    /// Panics unless every gradient buffer holds one value per pixel of
    /// `camera`.
    pub(crate) fn assert_covers(&self, camera: &PinholeCamera) {
        assert_eq!(self.color.len(), camera.pixel_count());
        assert_eq!(self.depth.len(), camera.pixel_count());
        assert_eq!(self.transmittance.len(), camera.pixel_count());
    }
}

/// Counters from one backward pass, consumed by the hardware model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackwardStats {
    /// Fragment-level gradient contributions (each is one atomic-add burst
    /// on a GPU; the paper's Observation 4 bottleneck).
    pub fragment_grad_events: u64,
    /// Wall-clock nanoseconds spent in Step ❹ Rendering BP.
    pub rendering_bp_nanos: u64,
    /// Wall-clock nanoseconds spent in Step ❺ Preprocessing BP.
    pub preprocessing_bp_nanos: u64,
}

/// Gradients from one backward pass.
#[derive(Debug, Clone)]
pub struct BackwardOutput {
    /// Per-Gaussian parameter gradients (Step ❺ output, mapping); empty
    /// after a [`GradSet::PoseOnly`] pass.
    pub gaussians: Vec<GaussianGrad>,
    /// Camera-pose gradient in the left tangent space of the world-to-camera
    /// pose: `(ρ, φ)` ordered translation-then-rotation, for
    /// [`rtgs_math::Se3::retract`] (Step ❺ output, tracking).
    pub pose: [f32; 6],
    /// Aggregate counters.
    pub stats: BackwardStats,
}

impl BackwardOutput {
    /// An empty output shell for arena storage; [`backward_into`] resizes
    /// the gradient buffer to the scene before writing.
    pub(crate) fn empty() -> Self {
        Self {
            gaussians: Vec::new(),
            pose: [0.0; 6],
            stats: BackwardStats::default(),
        }
    }
}

/// Workspace of [`backward_into`]: per-tile Step-❹ partials
/// (inner accumulator vectors keep their capacities across frames), the
/// per-Gaussian 2D-gradient fold buffer and per-chunk pose partials. One
/// workspace reused across iterations makes the steady-state backward pass
/// allocation-free (the [`crate::FrameArena`] owns one).
#[derive(Default)]
pub(crate) struct BackwardScratch {
    /// One Step-❹ partial per tile.
    partials: Vec<TilePartial>,
    /// Per-Gaussian 2D-gradient accumulators (fold target).
    accum: Vec<Accum2d>,
    /// Per-chunk pose-tangent partials of Step ❺.
    pose_partials: Vec<[f32; 6]>,
}

impl BackwardScratch {
    /// Bytes held at current capacities (for the arena's high-water mark).
    pub(crate) fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        let partial =
            |p: &TilePartial| size_of::<TilePartial>() + p.accum.capacity() * size_of::<Accum2d>();
        self.partials.iter().map(partial).sum::<usize>()
            + (self.partials.capacity() - self.partials.len()) * size_of::<TilePartial>()
            + self.accum.capacity() * size_of::<Accum2d>()
            + self.pose_partials.capacity() * size_of::<[f32; 6]>()
    }

    /// The first `tile_count` Step-❹ partials, one per tile. They only ever
    /// grow in number: each tile's accumulator vector keeps its capacity —
    /// across a smaller grid too — and is reset by the tile kernel that
    /// fills it.
    pub(crate) fn tile_partials(&mut self, tile_count: usize) -> &mut [TilePartial] {
        if self.partials.len() < tile_count {
            self.partials.resize_with(tile_count, TilePartial::default);
        }
        &mut self.partials[..tile_count]
    }
}

/// Per-Gaussian accumulator of 2D (image-plane) gradients — the data the
/// hardware's Stage Buffer holds between GMU and PE.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Accum2d {
    /// `dL/dμ★` (2D mean).
    pub(crate) mean: Vec2,
    /// `dL/d conic` in full-matrix convention (`xy` is the gradient of each
    /// off-diagonal entry).
    pub(crate) conic: Sym2,
    /// `dL/d color`.
    pub(crate) color: Vec3,
    /// `dL/d o` (activated opacity).
    pub(crate) opacity: f32,
    /// `dL/d t_z` via the blended depth map.
    pub(crate) depth: f32,
    /// Whether any fragment touched this Gaussian.
    pub(crate) hit: bool,
}

impl Accum2d {
    /// Adds another tile's partial accumulation for the same Gaussian —
    /// without `FULL`, only the channels the pose tangent reads.
    pub(crate) fn merge<const FULL: bool>(&mut self, rhs: &Accum2d) {
        self.mean += rhs.mean;
        self.conic = self.conic + rhs.conic;
        if FULL {
            self.color += rhs.color;
            self.opacity += rhs.opacity;
        }
        self.depth += rhs.depth;
        self.hit |= rhs.hit;
    }
}

/// One tile's contribution to Step ❹: per-Gaussian partial accumulators
/// (indexed by position in the tile's splat list) plus event counters.
/// Tiles compute partials independently — possibly in parallel — and
/// [`fold_and_preprocess`] folds them in tile order on the calling thread,
/// so the reduction tree is fixed by the tile grid alone and the result is
/// bitwise-identical on every backend and pool size.
#[derive(Default)]
pub(crate) struct TilePartial {
    /// One accumulator per entry of the tile's splat list (empty when the
    /// tile received no gradient).
    pub(crate) accum: Vec<Accum2d>,
    /// Fragment-level gradient events in this tile.
    pub(crate) events: u64,
}

/// Runs Steps ❹ and ❺ into caller-owned storage: computes gradients of the
/// loss with respect to all Gaussian parameters and the camera pose.
///
/// Step ❹ runs chunked over tiles: each tile consumes the R&B records of a
/// fused forward pass over the same `(projection, tiles, camera)` triple
/// (`cache`) and the working set that pass gathered (`work`), and
/// accumulates gradients into its own `TilePartial`; [`fold_and_preprocess`]
/// then folds the partials in tile order (the software analog of the
/// paper's GMU gradient merging — the atomic-add contention of Observation 4
/// is what this structure removes) and runs Step ❺.
///
/// `FULL` selects the [`GradSet`]: without it, Step ❹ and Step ❺ compute
/// only what the pose tangent reads and `out.gaussians` is left empty.
///
/// The workspace and the output gradient buffer are cleared and refilled;
/// once their capacities cover the frame, a steady-state backward pass
/// performs **no heap allocation**.
///
/// # Panics
///
/// Panics if the gradient buffers do not match `camera`'s pixel count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn backward_into<const FULL: bool>(
    scene: &GaussianScene,
    projection: &Projection,
    tiles: &TileAssignment,
    camera: &PinholeCamera,
    w2c: &Se3,
    pixel_grads: &PixelGrads,
    cache: &FragmentCache,
    work: &TileWork,
    backend: &dyn Backend,
    ws: &mut BackwardScratch,
    out: &mut BackwardOutput,
) {
    pixel_grads.assert_covers(camera);
    let t_start = Instant::now();

    // ---- Step ❹: Rendering BP -------------------------------------------
    let tile_count = tiles.tile_count();
    let partials = SharedSlice::new(ws.tile_partials(tile_count));
    backend.for_each_chunk(tile_count, BP_TILE_CHUNK, &|_, range| {
        for tile in range.map(|chunk| tiles.tile_of_chunk(chunk)) {
            // SAFETY: one partial slot per tile.
            let partial = unsafe { partials.get_mut(tile) };
            backward_tile::<FULL>(
                tile,
                tiles,
                camera,
                pixel_grads,
                &cache.bands()[tile * BANDS..][..BANDS],
                work.splats(tiles, tile),
                partial,
            );
        }
    });

    fold_and_preprocess::<FULL>(
        scene, projection, tiles, camera, w2c, t_start, backend, ws, out,
    );
}

/// The rest of Steps ❹–❺ once every tile's partial in `ws` is filled: folds
/// the partials in tile order — still inside the Rendering BP interval that
/// started at `t_start` — then runs Step ❺ chunked over Gaussians, with
/// per-chunk pose-tangent partials folded in chunk order. Both reduction
/// trees are fixed by constants (`BP_TILE_CHUNK`, `BP_GAUSS_CHUNK`) rather
/// than the worker count, so gradients are bitwise-identical on every
/// backend and pool size. [`backward_into`] and the re-walk oracle
/// (`reference::backward_rewalk`) both end here.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fold_and_preprocess<const FULL: bool>(
    scene: &GaussianScene,
    projection: &Projection,
    tiles: &TileAssignment,
    camera: &PinholeCamera,
    w2c: &Se3,
    t_start: Instant,
    backend: &dyn Backend,
    ws: &mut BackwardScratch,
    out: &mut BackwardOutput,
) {
    let mut stats = BackwardStats::default();

    // Deterministic fold: tile order, then tile-list order within a tile —
    // the same tree regardless of how the partials were computed.
    ws.accum.clear();
    ws.accum.resize(scene.len(), Accum2d::default());
    let accum = &mut ws.accum;
    for (tile, partial) in ws.partials[..tiles.tile_count()].iter().enumerate() {
        stats.fragment_grad_events += partial.events;
        if partial.accum.is_empty() {
            continue;
        }
        for (pos, &slot) in tiles.tile(tile).iter().enumerate() {
            let a = &partial.accum[pos];
            if a.hit {
                accum[projection.gaussian_ids[slot as usize] as usize].merge::<FULL>(a);
            }
        }
    }

    stats.rendering_bp_nanos = t_start.elapsed().as_nanos() as u64;
    let t_phase2 = Instant::now();

    // ---- Step ❺: Preprocessing BP ----------------------------------------
    let frame = PoseFrame::of(w2c);
    out.gaussians.clear();
    if FULL {
        out.gaussians.resize(scene.len(), GaussianGrad::default());
    }
    let chunks = scene.len().div_ceil(BP_GAUSS_CHUNK).max(1);
    // Per-chunk pose-tangent partials, folded in order.
    ws.pose_partials.clear();
    ws.pose_partials.resize(chunks, [0.0f32; 6]);

    {
        let grad_view = SharedSlice::new(&mut out.gaussians);
        let pose_view = SharedSlice::new(&mut ws.pose_partials);
        let accum = &ws.accum;
        backend.for_each_chunk(scene.len(), BP_GAUSS_CHUNK, &|chunk, range| {
            let mut pose = [0.0f32; 6];
            // The chunk's touched Gaussians, compacted into blocks of
            // `GAUSS_LANES` (a block never spans a chunk). Per block: gather
            // the lanes, run the kernel, then store gradients and add pose
            // terms lane by lane — ascending ID, `preprocess_one`'s order.
            let mut preprocess = |ids: &[usize]| {
                let mut lanes = PreprocessLanes::default();
                for l in 0..GAUSS_LANES {
                    // Lanes past the chunk's last touched Gaussian replicate
                    // it; their results are not stored.
                    let id = ids[l.min(ids.len() - 1)];
                    let slot = projection.slot_of_gaussian[id] as usize;
                    let splat = &projection.splats[slot];
                    lanes.set(
                        l,
                        splat.conic,
                        projection.t_cams[slot],
                        splat.opacity,
                        &accum[id],
                        &projection.activations[slot],
                    );
                }
                let block = preprocess_block::<FULL>(&lanes, camera, &frame);
                for (l, &id) in ids.iter().enumerate() {
                    if FULL {
                        // SAFETY: each Gaussian id is written by at most one
                        // chunk.
                        let out = unsafe { grad_view.get_mut(id) };
                        block.store(l, accum[id].color, out);
                    }
                    block.add_pose(l, &mut pose);
                }
            };
            let mut ids = [0usize; GAUSS_LANES];
            let mut live = 0usize;
            for id in range {
                if !accum[id].hit || projection.slot(id).is_none() {
                    continue;
                }
                ids[live] = id;
                live += 1;
                if live == GAUSS_LANES {
                    preprocess(&ids);
                    live = 0;
                }
            }
            if live > 0 {
                preprocess(&ids[..live]);
            }
            // SAFETY: one partial slot per chunk.
            unsafe { pose_view.write(chunk, pose) };
        });
    }

    let mut pose = [0.0f32; 6];
    for partial in &ws.pose_partials {
        for (acc, p) in pose.iter_mut().zip(partial.iter()) {
            *acc += p;
        }
    }

    stats.preprocessing_bp_nanos = t_phase2.elapsed().as_nanos() as u64;
    out.pose = pose;
    out.stats = stats;
}

/// Step ❹ for one tile: consumes the R&B records of the tile's four `bands`
/// the fused forward pass wrote, over the working set it gathered
/// (`gathered`) — no re-walk, no alpha recomputation — one subtile at a
/// time, 16 pixel lanes wide (`merge_subtile`).
fn backward_tile<const FULL: bool>(
    tile: usize,
    tiles: &TileAssignment,
    camera: &PinholeCamera,
    pixel_grads: &PixelGrads,
    bands: &[TileFragments],
    gathered: &[TileSplat],
    partial: &mut TilePartial,
) {
    partial.events = 0;
    partial.accum.clear();
    if gathered.is_empty() {
        return;
    }
    let (x0, y0, x1, y1) = tile_pixel_rect(tile % tiles.tiles_x, tile / tiles.tiles_x, camera);

    for subtile in 0..SUBTILES_PER_TILE {
        let cached = &bands[subtile / SUBTILES_X];
        // Nothing blended here (which includes every subtile outside the
        // image): no fragment, no gradient.
        if cached.subtile(subtile).is_empty() {
            continue;
        }
        let sx0 = x0 + (subtile % SUBTILES_X) * SUBTILE_SIZE;
        let sy0 = y0 + (subtile / SUBTILES_X) * SUBTILE_SIZE;
        // Upstream gradients per lane. A pixel with none (and a lane
        // outside the image) is skipped, as the scalar walk skips it.
        let mut upstream = LaneGrads::default();
        for dy in 0..(y1 - sy0).min(SUBTILE_SIZE) {
            for dx in 0..(x1 - sx0).min(SUBTILE_SIZE) {
                let l = dy * SUBTILE_SIZE + dx;
                let idx = (sy0 + dy) * camera.width + sx0 + dx;
                let g_color = pixel_grads.color[idx];
                let g_depth = pixel_grads.depth[idx];
                let g_trans = pixel_grads.transmittance[idx];
                if g_color == Vec3::ZERO && g_depth == 0.0 && g_trans == 0.0 {
                    continue;
                }
                upstream.live |= 1 << l;
                upstream.color[0][l] = g_color.x;
                upstream.color[1][l] = g_color.y;
                upstream.color[2][l] = g_color.z;
                upstream.depth[l] = g_depth;
                upstream.trans[l] = g_trans;
            }
        }
        if upstream.live == 0 {
            continue;
        }
        if partial.accum.is_empty() {
            partial.accum.resize(gathered.len(), Accum2d::default());
        }
        merge_subtile::<FULL>(gathered, partial, cached, subtile, (sx0, sy0), &upstream);
    }
}

/// Upstream gradients of one subtile's 16 pixels, one lane each.
#[derive(Default)]
struct LaneGrads {
    /// `dL/dC`, one array per channel.
    color: [[f32; LANES]; 3],
    /// `dL/dD`.
    depth: [f32; LANES],
    /// `dL/dT_final`.
    trans: [f32; LANES],
    /// Bit `l` set when lane `l` carries any gradient.
    live: u32,
}

/// Step ❹ for one subtile: walks its R&B records back to front with the
/// reverse recursion's suffix state held as 16 lanes, and merges each
/// record's per-pixel contributions into that splat's accumulator — the
/// software analog of the paper's GMU, which merges the gradients of one
/// Gaussian across a subtile's pixels before they reach the accumulators:
/// one read-modify-write per (subtile, splat), not one per fragment.
///
/// Per pixel this is the scalar reverse recursion's floating-point program
/// (the re-walk oracle's `reference::reverse_recursion`),
/// expression for expression, evaluated four lanes (one record row) at a
/// time on the rows that blended. A record's contributions are added in
/// ascending lane order; lanes the record did not blend, lanes without
/// upstream gradient and — for the opacity, mean and conic terms — lanes at
/// the [`ALPHA_MAX`] cap add `+0.0`, which leaves an accumulator that
/// started at `+0.0` unchanged bit for bit (such an accumulator is never
/// `−0.0`: a sum is `−0.0` only when both operands are). Subtiles are
/// visited in order, so a Gaussian's contributions arrive in ascending
/// [`TileFragments::pixel_index`] order — the order the scalar oracles
/// visit pixels in.
#[allow(clippy::needless_range_loop)] // lane loops index parallel arrays
fn merge_subtile<const FULL: bool>(
    gathered: &[TileSplat],
    partial: &mut TilePartial,
    cached: &TileFragments,
    subtile: usize,
    (x0, y0): (usize, usize),
    upstream: &LaneGrads,
) {
    let (px, py) = (pixel_centers(x0), pixel_centers(y0));
    let t_final = &cached.final_t[subtile];
    let mut suffix = LaneSuffix {
        color: [[0.0; LANES]; 3],
        depth: [0.0; LANES],
    };
    for head in cached.subtile(subtile).iter().rev() {
        let hit = head.mask as u32 & upstream.live;
        if hit == 0 {
            continue;
        }
        let pos = head.list_pos as usize;
        let s = &gathered[pos];
        let mut acc = partial.accum[pos];
        acc.hit = true;
        partial.events += hit.count_ones() as u64;
        // The record's rows: one per subtile row it blended in.
        let mut row = head.first_row as usize;
        for r in 0..SUBTILE_SIZE {
            if head.row_mask(r) == 0 {
                continue;
            }
            let hit_row = (hit >> (r * SUBTILE_SIZE)) & ((1 << SUBTILE_SIZE) - 1);
            if hit_row != 0 {
                let at = (&px, py[r] - s.mean.y, r);
                let record = &cached.rows[row];
                merge_row::<FULL>(
                    s,
                    record,
                    hit_row,
                    at,
                    upstream,
                    t_final,
                    &mut suffix,
                    &mut acc,
                );
            }
            row += 1;
        }
        partial.accum[pos] = acc;
    }
}

/// The suffix accumulators of the reverse recursion, one lane per pixel of
/// a subtile.
struct LaneSuffix {
    color: [[f32; LANES]; 3],
    depth: [f32; LANES],
}

/// One record row of [`merge_subtile`] — the four pixels of subtile row `r`
/// that splat `s` blended at, of which the lanes in `hit_row` carry upstream
/// gradient. `px` holds the columns' pixel-centre coordinates and `dy` the
/// row's offset from the splat's mean.
///
/// Without `FULL` the color and opacity contributions — which no pose
/// term reads — are neither formed nor merged; every other expression, and
/// the order of the remaining merges, is the same.
///
/// (The lane arrays arrive as separate reference parameters on purpose:
/// behind fields of one struct the compiler can no longer tell the suffix
/// stores from the gradient loads and gives up on vectorising — Step ❹
/// then takes 2.4× as long.)
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)] // lane loops index parallel arrays
#[inline(always)]
fn merge_row<const FULL: bool>(
    s: &TileSplat,
    row: &RecordRow,
    hit_row: u32,
    (px, dy, r): (&[f32; SUBTILE_SIZE], f32, usize),
    upstream: &LaneGrads,
    t_final: &[f32; LANES],
    suffix: &mut LaneSuffix,
    acc: &mut Accum2d,
) {
    const N: usize = SUBTILE_SIZE;
    let splat_color = [s.color.x, s.color.y, s.color.z];
    // The ten contributions of each lane, zero where the lane adds
    // nothing.
    let mut d_color = [[0.0f32; N]; 3];
    let mut d_depth = [0.0f32; N];
    let mut d_opacity = [0.0f32; N];
    let mut d_mean = [[0.0f32; N]; 2];
    let mut d_conic = [[0.0f32; N]; 3];
    for c in 0..N {
        let l = r * N + c;
        let hit = lane_mask(hit_row & (1 << c) != 0);
        let (alpha, weight, t_k) = (row.alpha[c], row.weight[c], row.t_before[c]);
        let w = t_k * alpha;
        let one_minus = 1.0 - alpha;

        // `g_color.dot(dc_dalpha)`, from the `0.0` `Vec3::dot` starts at.
        let mut dl_dalpha = 0.0f32;
        for ch in 0..3 {
            let dc_dalpha = splat_color[ch] * t_k - suffix.color[ch][l] / one_minus;
            dl_dalpha += upstream.color[ch][l] * dc_dalpha;
        }
        let dd_dalpha = s.depth * t_k - suffix.depth[l] / one_minus;
        let dt_dalpha = -t_final[l] / one_minus;
        let dl_dalpha = dl_dalpha + upstream.depth[l] * dd_dalpha + upstream.trans[l] * dt_dalpha;

        if FULL {
            for ch in 0..3 {
                d_color[ch][c] = select(hit, upstream.color[ch][l] * w, 0.0);
            }
        }
        d_depth[c] = select(hit, upstream.depth[l] * w, 0.0);

        // Alpha clamping zeroes the parameter gradient at the cap.
        let uncapped = hit & lane_mask(alpha < ALPHA_MAX);
        if FULL {
            d_opacity[c] = select(uncapped, dl_dalpha * weight, 0.0);
        }
        let dl_dq = -0.5 * dl_dalpha * s.opacity * weight;
        let dx = px[c] - s.mean.x;
        let conic_delta = (
            s.conic.xx * dx + s.conic.xy * dy,
            s.conic.xy * dx + s.conic.yy * dy,
        );
        let k = -2.0 * dl_dq;
        d_mean[0][c] = select(uncapped, conic_delta.0 * k, 0.0);
        d_mean[1][c] = select(uncapped, conic_delta.1 * k, 0.0);
        d_conic[0][c] = select(uncapped, dx * dx * dl_dq, 0.0);
        d_conic[1][c] = select(uncapped, dx * dy * dl_dq, 0.0);
        d_conic[2][c] = select(uncapped, dy * dy * dl_dq, 0.0);

        // Outside `hit` the suffix terms are replaced by `+0.0`, which a
        // sum that started at `+0.0` absorbs unchanged.
        for ch in 0..3 {
            suffix.color[ch][l] += select(hit, splat_color[ch] * w, 0.0);
        }
        suffix.depth[l] += select(hit, s.depth * w, 0.0);
    }
    // The merge: ascending lane order.
    for c in 0..N {
        if FULL {
            acc.color += Vec3::new(d_color[0][c], d_color[1][c], d_color[2][c]);
        }
        acc.depth += d_depth[c];
        if FULL {
            acc.opacity += d_opacity[c];
        }
        acc.mean += Vec2::new(d_mean[0][c], d_mean[1][c]);
        acc.conic = acc.conic + Sym2::new(d_conic[0][c], d_conic[1][c], d_conic[2][c]);
    }
}

/// What Step ❺ needs of the world-to-camera pose, computed once per pass.
pub(crate) struct PoseFrame {
    /// The pose's rotation `W`.
    rot_w2c: Mat3,
    /// `d(exp(φ̂)·W)/dφ_axis` at `φ = 0`: the generators `ê_axis·W` of the
    /// left retraction, one per rotation axis.
    generators: [Mat3; 3],
}

impl PoseFrame {
    pub(crate) fn of(w2c: &Se3) -> Self {
        let rot_w2c = w2c.rotation_matrix();
        let generators = [Vec3::X, Vec3::Y, Vec3::Z].map(|e| Mat3::skew(e) * rot_w2c);
        Self {
            rot_w2c,
            generators,
        }
    }
}

/// Step ❺ for one Gaussian: chains the aggregated 2D gradients to the 3D
/// parameters and accumulates the camera-pose tangent contribution.
///
/// The scalar definition of Step ❺: the AoS oracle
/// (`reference::backward_aos`) calls it, activating the Gaussian's raw
/// parameters itself, and [`preprocess_block`] — what production runs, on
/// the activations Step ❶ kept — reproduces it expression for expression.
#[allow(clippy::too_many_arguments)]
pub(crate) fn preprocess_one(
    g: &crate::gaussian::Gaussian3d,
    splat: &Projected2d,
    a: &Accum2d,
    camera: &PinholeCamera,
    frame: &PoseFrame,
    out: &mut GaussianGrad,
    pose: &mut [f32; 6],
) {
    let rot_w2c = frame.rot_w2c;
    let t_cam = splat.t_cam;

    // conic = cov⁻¹  ⇒  dL/dcov = -conic · dL/dconic · conic.
    let conic_m = splat.conic.to_mat2();
    let dconic = a.conic.to_mat2();
    let dcov_m = (conic_m * dconic * conic_m).m;
    // Embed into 3×3 (row/col 2 are zero because M's third row is zero).
    let dcov3 = Mat3::from_rows(
        [-dcov_m[0][0], -dcov_m[0][1], 0.0],
        [-dcov_m[1][0], -dcov_m[1][1], 0.0],
        [0.0, 0.0, 0.0],
    );

    let (j, clamped_x, clamped_y) = jacobian_with_clamp(camera, t_cam);
    let m = j * rot_w2c;
    let sigma3 = g.covariance().to_mat3();

    // cov2d = M Σ Mᵀ:
    let dl_dsigma = m.transpose() * dcov3 * m;
    let dl_dm = (dcov3 * (m * sigma3)).scale(2.0);
    let dl_dj = dl_dm * rot_w2c.transpose();
    let dl_dw_cov = j.transpose() * dl_dm;

    // dL/dt_cam: mean2d chain (J is its Jacobian), J-in-cov chain, and
    // the blended-depth chain (d = t_z).
    let mut dl_dt = j.transpose().mul_vec(Vec3::new(a.mean.x, a.mean.y, 0.0));
    let inv_z = 1.0 / t_cam.z;
    let inv_z2 = inv_z * inv_z;
    let inv_z3 = inv_z2 * inv_z;
    // J-through-t chain. Where the off-axis ratio was clamped, J no
    // longer depends on that coordinate (reference kernel zeroes the
    // corresponding gradient) and the tz-dependence of the off-axis
    // entry changes order: J02 = -fx·lim·sign/tz ⇒ ∂J02/∂tz = -J02/tz.
    if clamped_x {
        dl_dt.z += dl_dj.m[0][2] * (-j.m[0][2] * inv_z);
    } else {
        dl_dt.x += dl_dj.m[0][2] * (-camera.fx * inv_z2);
        dl_dt.z += dl_dj.m[0][2] * (2.0 * camera.fx * t_cam.x * inv_z3);
    }
    if clamped_y {
        dl_dt.z += dl_dj.m[1][2] * (-j.m[1][2] * inv_z);
    } else {
        dl_dt.y += dl_dj.m[1][2] * (-camera.fy * inv_z2);
        dl_dt.z += dl_dj.m[1][2] * (2.0 * camera.fy * t_cam.y * inv_z3);
    }
    dl_dt.z += dl_dj.m[0][0] * (-camera.fx * inv_z2) + dl_dj.m[1][1] * (-camera.fy * inv_z2);
    dl_dt.z += a.depth;

    out.position = rot_w2c.transpose().mul_vec(dl_dt);
    out.color = a.color;
    let o = splat.opacity;
    out.opacity = a.opacity * o * (1.0 - o);
    out.cov_frobenius = sym_from_full(&dl_dsigma).frobenius_norm();

    // Σ = N Nᵀ with N = R diag(s):
    let r = g.rotation.to_rotation_matrix();
    let s = g.scale();
    let n = r * Mat3::from_diagonal(s);
    let dl_dn = (dl_dsigma * n).scale(2.0);
    for i in 0..3 {
        let ds_i =
            dl_dn.m[0][i] * r.m[0][i] + dl_dn.m[1][i] * r.m[1][i] + dl_dn.m[2][i] * r.m[2][i];
        out.log_scale[i] = ds_i * s[i];
    }
    let dl_dr = dl_dn * Mat3::from_diagonal(s);
    out.rotation = quat_backward(g.rotation, &dl_dr);

    // Camera-pose tangent (left retraction of the w2c pose):
    //   t_cam(δ) ≈ t_cam + φ × t_cam + ρ,  W(δ) ≈ exp(φ̂) W.
    pose[0] += dl_dt.x;
    pose[1] += dl_dt.y;
    pose[2] += dl_dt.z;
    let torque = t_cam.cross(dl_dt);
    pose[3] += torque.x;
    pose[4] += torque.y;
    pose[5] += torque.z;
    for (axis, dw) in frame.generators.iter().enumerate() {
        let mut contrib = 0.0;
        for r_ in 0..3 {
            for c_ in 0..3 {
                contrib += dl_dw_cov.m[r_][c_] * dw.m[r_][c_];
            }
        }
        pose[3 + axis] += contrib;
    }
}

/// Extracts the symmetric compact form from a (numerically symmetric) full
/// 3×3 matrix.
fn sym_from_full(m: &Mat3) -> Sym3 {
    Sym3::new(
        m.m[0][0],
        0.5 * (m.m[0][1] + m.m[1][0]),
        0.5 * (m.m[0][2] + m.m[2][0]),
        m.m[1][1],
        0.5 * (m.m[1][2] + m.m[2][1]),
        m.m[2][2],
    )
}

/// Backpropagates `dL/dR` through `R = rot(normalize(q))` to the raw
/// quaternion parameters.
fn quat_backward(q_raw: rtgs_math::Quat, dl_dr: &Mat3) -> [f32; 4] {
    let norm = q_raw.norm();
    if norm < 1e-12 {
        return [0.0; 4];
    }
    let q = q_raw.normalized();
    let (w, x, y, z) = (q.w, q.x, q.y, q.z);

    let dr_dw = Mat3::from_rows(
        [0.0, -2.0 * z, 2.0 * y],
        [2.0 * z, 0.0, -2.0 * x],
        [-2.0 * y, 2.0 * x, 0.0],
    );
    let dr_dx = Mat3::from_rows(
        [0.0, 2.0 * y, 2.0 * z],
        [2.0 * y, -4.0 * x, -2.0 * w],
        [2.0 * z, 2.0 * w, -4.0 * x],
    );
    let dr_dy = Mat3::from_rows(
        [-4.0 * y, 2.0 * x, 2.0 * w],
        [2.0 * x, 0.0, 2.0 * z],
        [-2.0 * w, 2.0 * z, -4.0 * y],
    );
    let dr_dz = Mat3::from_rows(
        [-4.0 * z, -2.0 * w, 2.0 * x],
        [2.0 * w, -4.0 * z, 2.0 * y],
        [2.0 * x, 2.0 * y, 0.0],
    );

    let inner = |d: &Mat3| -> f32 {
        let mut acc = 0.0;
        for r in 0..3 {
            for c in 0..3 {
                acc += dl_dr.m[r][c] * d.m[r][c];
            }
        }
        acc
    };
    let g_unit = [inner(&dr_dw), inner(&dr_dx), inner(&dr_dy), inner(&dr_dz)];

    // Chain through normalization: dq̂/dq = (I - q̂ q̂ᵀ) / |q|.
    let qv = [w, x, y, z];
    let dot = g_unit[0] * qv[0] + g_unit[1] * qv[1] + g_unit[2] * qv[2] + g_unit[3] * qv[3];
    let mut out = [0.0f32; 4];
    for i in 0..4 {
        out[i] = (g_unit[i] - dot * qv[i]) / norm;
    }
    out
}

/// The inputs of [`preprocess_block`]: what [`preprocess_one`] reads of a
/// Gaussian's splat, its 2D-gradient accumulator and its activations, one
/// lane array per scalar.
#[derive(Default)]
pub(crate) struct PreprocessLanes {
    /// Splat conic `(xx, xy, yy)`.
    conic: [Lanes; 3],
    t_cam: [Lanes; 3],
    /// Activated opacity.
    opacity: Lanes,
    /// Accumulated `dL/dμ★`.
    d_mean: [Lanes; 2],
    /// Accumulated `dL/d conic` `(xx, xy, yy)`.
    d_conic: [Lanes; 3],
    d_opacity: Lanes,
    d_depth: Lanes,
    /// The Gaussian's activated scale.
    scale: [Lanes; 3],
    /// Its unit quaternion `(w, x, y, z)` and the raw quaternion's norm.
    unit_q: [Lanes; 4],
    q_norm: Lanes,
}

impl PreprocessLanes {
    /// Fills lane `l` with one Gaussian: its splat's conic, camera-frame
    /// mean and opacity, its accumulator and its activations.
    fn set(
        &mut self,
        l: usize,
        conic: Sym2,
        t_cam: Vec3,
        opacity: f32,
        a: &Accum2d,
        act: &Activation,
    ) {
        let put = |lanes: &mut [Lanes], values: &[f32]| {
            for (lane, &v) in lanes.iter_mut().zip(values) {
                lane[l] = v;
            }
        };
        put(&mut self.conic, &[conic.xx, conic.xy, conic.yy]);
        put(&mut self.t_cam, &[t_cam.x, t_cam.y, t_cam.z]);
        self.opacity[l] = opacity;
        put(&mut self.d_mean, &[a.mean.x, a.mean.y]);
        put(&mut self.d_conic, &[a.conic.xx, a.conic.xy, a.conic.yy]);
        self.d_opacity[l] = a.opacity;
        self.d_depth[l] = a.depth;
        put(&mut self.scale, &[act.scale.x, act.scale.y, act.scale.z]);
        let q = act.unit_rotation;
        put(&mut self.unit_q, &[q.w, q.x, q.y, q.z]);
        self.q_norm[l] = act.rotation_norm;
    }
}

/// The results of [`preprocess_block`], one lane array per scalar
/// [`preprocess_one`] stores or adds.
#[derive(Default)]
pub(crate) struct PreprocessedBlock {
    position: [Lanes; 3],
    log_scale: [Lanes; 3],
    rotation: [Lanes; 4],
    opacity: Lanes,
    cov_frobenius: Lanes,
    /// `dL/dt_cam`: the pose tangent's translation part.
    dl_dt: [Lanes; 3],
    /// `t_cam × dL/dt_cam`.
    torque: [Lanes; 3],
    /// The covariance chain's term per rotation generator.
    spin: [Lanes; 3],
}

impl PreprocessedBlock {
    /// Lane `l`'s gradient into `out` (`color` passes through from the
    /// accumulator). Only a full block holds one.
    fn store(&self, l: usize, color: Vec3, out: &mut GaussianGrad) {
        let vec3 = |v: &[Lanes; 3]| Vec3::new(v[0][l], v[1][l], v[2][l]);
        out.position = vec3(&self.position);
        out.color = color;
        out.opacity = self.opacity[l];
        out.cov_frobenius = self.cov_frobenius[l];
        out.log_scale = vec3(&self.log_scale);
        out.rotation = self.rotation.map(|lanes| lanes[l]);
    }

    /// Lane `l`'s nine pose adds, in [`preprocess_one`]'s sequence.
    fn add_pose(&self, l: usize, pose: &mut [f32; 6]) {
        let (translation, rotation) = pose.split_at_mut(3);
        for (axis, p) in translation.iter_mut().enumerate() {
            *p += self.dl_dt[axis][l];
        }
        for (axis, p) in rotation.iter_mut().enumerate() {
            *p += self.torque[axis][l];
        }
        for (axis, p) in rotation.iter_mut().enumerate() {
            *p += self.spin[axis][l];
        }
    }
}

/// `Mat2`'s product on plain arrays (see [`mul3`]).
#[inline(always)]
fn mul2(a: &[[f32; 2]; 2], b: &[[f32; 2]; 2]) -> [[f32; 2]; 2] {
    let e = |i: usize, j: usize| a[i][0] * b[0][j] + a[i][1] * b[1][j];
    [[e(0, 0), e(0, 1)], [e(1, 0), e(1, 1)]]
}

/// `Mat3::scale` on plain arrays.
#[inline(always)]
fn scale3(a: &M3, s: f32) -> M3 {
    let row = |i: usize| [a[i][0] * s, a[i][1] * s, a[i][2] * s];
    [row(0), row(1), row(2)]
}

/// `Σ a[r][c]·b[r][c]` accumulated from `0.0` in row-major order — the
/// nested loops of [`quat_backward`]'s `inner` and of [`preprocess_one`]'s
/// generator contributions, unrolled.
#[inline(always)]
fn inner3(a: &M3, b: &M3) -> f32 {
    0.0 + a[0][0] * b[0][0]
        + a[0][1] * b[0][1]
        + a[0][2] * b[0][2]
        + a[1][0] * b[1][0]
        + a[1][1] * b[1][1]
        + a[1][2] * b[1][2]
        + a[2][0] * b[2][0]
        + a[2][1] * b[2][1]
        + a[2][2] * b[2][2]
}

/// Step ❺ for a block of [`GAUSS_LANES`] Gaussians, one lane each:
/// [`preprocess_one`]'s floating-point program, expression for expression —
/// the 2×2 and 3×3 products in `Mat2` / `Mat3`'s order with their zero
/// entries multiplied through, the two clamp branches and
/// [`quat_backward`]'s zero-norm early return as mask selects — as
/// straight-line code inside one lane loop the compiler vectorises. No libm
/// call is left in it: the activated scale and the normalized quaternion
/// come in through `lanes`, from Step ❶, and the rotation matrix and the
/// covariance are rebuilt from them in the loop (`sqrt` is correctly rounded
/// in scalar and vector form alike). Lanes do not interact, so a lane's
/// results are the bits [`preprocess_one`] produces for that Gaussian
/// whatever its neighbours hold.
///
/// Without `FULL` only the pose terms (`dl_dt`, `torque`, `spin`) are
/// computed: the lane stops before `dL/dΣ`, the position, opacity and
/// `cov_frobenius` gradients and the scale/rotation chain.
#[allow(clippy::needless_range_loop)] // the lane loop indexes parallel arrays
pub(crate) fn preprocess_block<const FULL: bool>(
    lanes: &PreprocessLanes,
    camera: &PinholeCamera,
    frame: &PoseFrame,
) -> PreprocessedBlock {
    let rot_w2c = &frame.rot_w2c.m;
    let rot_w2c_t = transpose3(rot_w2c);
    let generators = [
        &frame.generators[0].m,
        &frame.generators[1].m,
        &frame.generators[2].m,
    ];
    let limits = frustum_limits(camera);
    let (fx, fy) = (camera.fx, camera.fy);
    let mut out = PreprocessedBlock::default();
    for l in 0..GAUSS_LANES {
        let t = [lanes.t_cam[0][l], lanes.t_cam[1][l], lanes.t_cam[2][l]];

        // conic = cov⁻¹  ⇒  dL/dcov = -conic · dL/dconic · conic.
        let (cxx, cxy, cyy) = (lanes.conic[0][l], lanes.conic[1][l], lanes.conic[2][l]);
        let conic_m = [[cxx, cxy], [cxy, cyy]];
        let (dxx, dxy, dyy) = (
            lanes.d_conic[0][l],
            lanes.d_conic[1][l],
            lanes.d_conic[2][l],
        );
        let dcov_m = mul2(&mul2(&conic_m, &[[dxx, dxy], [dxy, dyy]]), &conic_m);
        let dcov3 = [
            [-dcov_m[0][0], -dcov_m[0][1], 0.0],
            [-dcov_m[1][0], -dcov_m[1][1], 0.0],
            [0.0, 0.0, 0.0],
        ];

        let (j, clamped_x, clamped_y) = jacobian_lane(camera, limits, t);
        let m = mul3(&j, rot_w2c);
        // `g.rotation.to_rotation_matrix()`, `g.scale()`, `g.covariance()`,
        // from the unit quaternion and the scale Step ❶ kept.
        let q = &lanes.unit_q;
        let qv = [q[0][l], q[1][l], q[2][l], q[3][l]];
        let r = rotation3(qv);
        let scale = [lanes.scale[0][l], lanes.scale[1][l], lanes.scale[2][l]];
        let sigma3 = covariance3(&r, scale);

        // cov2d = M Σ Mᵀ, towards M:
        let dl_dm = scale3(&mul3(&dcov3, &mul3(&m, &sigma3)), 2.0);
        let dl_dj = mul3(&dl_dm, &rot_w2c_t);
        let j_t = transpose3(&j);
        let dl_dw_cov = mul3(&j_t, &dl_dm);

        // dL/dt_cam: mean2d chain, J-in-cov chain (one form per clamp
        // state, selected by mask), blended-depth chain.
        let mut dl_dt = mul_vec3(&j_t, [lanes.d_mean[0][l], lanes.d_mean[1][l], 0.0]);
        let inv_z = 1.0 / t[2];
        let inv_z2 = inv_z * inv_z;
        let inv_z3 = inv_z2 * inv_z;
        let z_clamped = dl_dt[2] + dl_dj[0][2] * (-j[0][2] * inv_z);
        let z_free = dl_dt[2] + dl_dj[0][2] * (2.0 * fx * t[0] * inv_z3);
        let x_free = dl_dt[0] + dl_dj[0][2] * (-fx * inv_z2);
        dl_dt[0] = select(clamped_x, dl_dt[0], x_free);
        dl_dt[2] = select(clamped_x, z_clamped, z_free);
        let z_clamped = dl_dt[2] + dl_dj[1][2] * (-j[1][2] * inv_z);
        let z_free = dl_dt[2] + dl_dj[1][2] * (2.0 * fy * t[1] * inv_z3);
        let y_free = dl_dt[1] + dl_dj[1][2] * (-fy * inv_z2);
        dl_dt[1] = select(clamped_y, dl_dt[1], y_free);
        dl_dt[2] = select(clamped_y, z_clamped, z_free);
        dl_dt[2] += dl_dj[0][0] * (-fx * inv_z2) + dl_dj[1][1] * (-fy * inv_z2);
        dl_dt[2] += lanes.d_depth[l];

        for i in 0..3 {
            out.dl_dt[i][l] = dl_dt[i];
            out.spin[i][l] = inner3(&dl_dw_cov, generators[i]);
        }
        // `t_cam.cross(dl_dt)`.
        out.torque[0][l] = t[1] * dl_dt[2] - t[2] * dl_dt[1];
        out.torque[1][l] = t[2] * dl_dt[0] - t[0] * dl_dt[2];
        out.torque[2][l] = t[0] * dl_dt[1] - t[1] * dl_dt[0];
        if !FULL {
            continue;
        }

        // cov2d = M Σ Mᵀ, towards Σ:
        let dl_dsigma = mul3(&mul3(&transpose3(&m), &dcov3), &m);
        let position = mul_vec3(&rot_w2c_t, dl_dt);
        let o = lanes.opacity[l];
        out.opacity[l] = lanes.d_opacity[l] * o * (1.0 - o);
        // `sym_from_full(dl_dsigma).frobenius_norm()`.
        let d = &dl_dsigma;
        let (xx, yy, zz) = (d[0][0], d[1][1], d[2][2]);
        let xy = 0.5 * (d[0][1] + d[1][0]);
        let xz = 0.5 * (d[0][2] + d[2][0]);
        let yz = 0.5 * (d[1][2] + d[2][1]);
        out.cov_frobenius[l] =
            (xx * xx + yy * yy + zz * zz + 2.0 * (xy * xy + xz * xz + yz * yz)).sqrt();

        // Σ = N Nᵀ with N = R diag(s):
        let diag = diagonal3(scale);
        let n = mul3(&r, &diag);
        let dl_dn = scale3(&mul3(&dl_dsigma, &n), 2.0);
        let dl_dr = mul3(&dl_dn, &diag);

        // `quat_backward`.
        let [w, x, y, z] = qv;
        let norm = lanes.q_norm[l];
        let dr_dw = [
            [0.0, -2.0 * z, 2.0 * y],
            [2.0 * z, 0.0, -2.0 * x],
            [-2.0 * y, 2.0 * x, 0.0],
        ];
        let dr_dx = [
            [0.0, 2.0 * y, 2.0 * z],
            [2.0 * y, -4.0 * x, -2.0 * w],
            [2.0 * z, 2.0 * w, -4.0 * x],
        ];
        let dr_dy = [
            [-4.0 * y, 2.0 * x, 2.0 * w],
            [2.0 * x, 0.0, 2.0 * z],
            [-2.0 * w, 2.0 * z, -4.0 * y],
        ];
        let dr_dz = [
            [-4.0 * z, -2.0 * w, 2.0 * x],
            [2.0 * w, -4.0 * z, 2.0 * y],
            [2.0 * x, 2.0 * y, 0.0],
        ];
        let g_unit = [
            inner3(&dl_dr, &dr_dw),
            inner3(&dl_dr, &dr_dx),
            inner3(&dl_dr, &dr_dy),
            inner3(&dl_dr, &dr_dz),
        ];
        let dot = g_unit[0] * qv[0] + g_unit[1] * qv[1] + g_unit[2] * qv[2] + g_unit[3] * qv[3];
        let degenerate = lane_mask(norm < 1e-12);

        for i in 0..3 {
            out.position[i][l] = position[i];
            let ds_i = dl_dn[0][i] * r[0][i] + dl_dn[1][i] * r[1][i] + dl_dn[2][i] * r[2][i];
            out.log_scale[i][l] = ds_i * scale[i];
        }
        for i in 0..4 {
            out.rotation[i][l] = select(degenerate, 0.0, (g_unit[i] - dot * qv[i]) / norm);
        }
    }
    out
}

#[cfg(test)]
impl BackwardScratch {
    /// The Step-❹ partials' accumulator bytes, summed from the vectors
    /// themselves (what the arena's high-water test checks its total
    /// against).
    pub(crate) fn step4_partial_bytes(&self) -> usize {
        let accum = self.partials.iter().map(|p| p.accum.capacity());
        accum.sum::<usize>() * std::mem::size_of::<Accum2d>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::Gaussian3d;
    use crate::reference::{backward_rewalk, RewalkScratch};
    use crate::{FrameArena, ShardedScene, WorkloadTrace, DEFAULT_CELL_SIZE};
    use rtgs_math::Quat;
    use rtgs_runtime::Serial;

    fn camera() -> PinholeCamera {
        PinholeCamera::from_fov(32, 32, 1.2)
    }

    /// Culls `scene` (as a map, under the pruning mask `active`), projects,
    /// bins and fused-renders it at the identity pose.
    fn setup(scene: &GaussianScene, active: Option<&[bool]>) -> FrameArena {
        let cam = camera();
        let map = ShardedScene::from_scene(scene, DEFAULT_CELL_SIZE);
        let mut arena = FrameArena::new();
        arena.cull(&map, &Se3::IDENTITY, &cam, active, &Serial);
        arena.project_visible(&Se3::IDENTITY, &cam, &Serial);
        arena.assign_tiles(&cam, &Serial);
        arena.render_fused(&cam, &Serial);
        arena
    }

    /// Frame-local gradients scattered into the stable-ID space of a map of
    /// `len` Gaussians through the cull's `ids` (a Gaussian the cull left
    /// out gets zeros).
    fn by_id(local: &[GaussianGrad], ids: &[u32], len: usize) -> Vec<GaussianGrad> {
        let mut out = vec![GaussianGrad::default(); len];
        for (g, &id) in local.iter().zip(ids) {
            out[id as usize] = *g;
        }
        out
    }

    /// Backward pass over explicit upstream gradients (re-walk driver) over
    /// the cull's working set, with the gradients in `scene`'s stable IDs.
    fn backward(
        arena: &mut FrameArena,
        scene: &GaussianScene,
        grads: &PixelGrads,
    ) -> BackwardOutput {
        let gathered = arena.visible().scene.clone();
        let scratch = &mut RewalkScratch::default();
        backward_rewalk(
            arena,
            &gathered,
            &camera(),
            &Se3::IDENTITY,
            grads,
            &Serial,
            scratch,
        );
        let mut out = arena.backward().clone();
        out.gaussians = by_id(&out.gaussians, &arena.visible().ids, scene.len());
        out
    }

    fn one_gaussian_scene() -> GaussianScene {
        GaussianScene::from_gaussians(vec![Gaussian3d::from_activated(
            Vec3::new(0.0, 0.0, 2.0),
            Vec3::splat(0.5),
            Quat::from_axis_angle(Vec3::new(0.2, 0.5, 0.1), 0.4),
            0.6,
            Vec3::new(0.8, 0.3, 0.2),
        )])
    }

    #[test]
    fn zero_pixel_grads_produce_zero_output() {
        let scene = one_gaussian_scene();
        let mut arena = setup(&scene, None);
        let cam = camera();
        let grads = PixelGrads::zeros(cam.width, cam.height);
        let out = backward(&mut arena, &scene, &grads);
        assert_eq!(out.pose, [0.0; 6]);
        assert_eq!(out.gaussians[0].position, Vec3::ZERO);
        assert_eq!(out.stats.fragment_grad_events, 0);
    }

    #[test]
    fn color_gradient_is_positive_where_gaussian_renders() {
        let scene = one_gaussian_scene();
        let mut arena = setup(&scene, None);
        let cam = camera();
        // dL/dC = 1 everywhere the Gaussian contributed.
        let mut grads = PixelGrads::zeros(cam.width, cam.height);
        for (i, c) in arena.output().image.data().iter().enumerate() {
            if c.x > 0.0 {
                grads.color[i] = Vec3::splat(1.0);
            }
        }
        let out = backward(&mut arena, &scene, &grads);
        // Increasing the color increases the output everywhere it renders.
        assert!(out.gaussians[0].color.x > 0.0);
        assert!(out.stats.fragment_grad_events > 0);
    }

    #[test]
    fn opacity_gradient_sign_matches_color_gradient() {
        // If dL/dC is positive and the Gaussian is the only contributor,
        // raising opacity raises C, so dL/d(opacity) must be positive.
        let scene = one_gaussian_scene();
        let mut arena = setup(&scene, None);
        let cam = camera();
        let mut grads = PixelGrads::zeros(cam.width, cam.height);
        for g in &mut grads.color {
            *g = Vec3::splat(1.0);
        }
        let out = backward(&mut arena, &scene, &grads);
        assert!(out.gaussians[0].opacity > 0.0);
    }

    #[test]
    fn masked_gaussians_receive_no_gradient() {
        let mut gaussians = one_gaussian_scene().gaussians;
        gaussians.push(gaussians[0]);
        let scene = GaussianScene::from_gaussians(gaussians);
        let cam = camera();
        let mut arena = setup(&scene, Some(&[true, false]));
        let mut grads = PixelGrads::zeros(cam.width, cam.height);
        for g in &mut grads.color {
            *g = Vec3::splat(1.0);
        }
        let out = backward(&mut arena, &scene, &grads);
        assert!(out.gaussians[0].color.norm() > 0.0);
        assert_eq!(out.gaussians[1].color, Vec3::ZERO);
    }

    #[test]
    fn cov_frobenius_recorded_for_importance_score() {
        let scene = one_gaussian_scene();
        let mut arena = setup(&scene, None);
        let cam = camera();
        let mut grads = PixelGrads::zeros(cam.width, cam.height);
        for g in &mut grads.color {
            *g = Vec3::new(1.0, -0.5, 0.25);
        }
        let out = backward(&mut arena, &scene, &grads);
        assert!(out.gaussians[0].cov_frobenius > 0.0);
        assert!(out.gaussians[0].importance_score(0.8) > 0.0);
    }

    #[test]
    fn fused_backward_matches_rewalk_bitwise() {
        let scene = GaussianScene::from_gaussians(vec![
            one_gaussian_scene().gaussians[0],
            Gaussian3d::from_activated(
                Vec3::new(0.3, -0.2, 3.0),
                Vec3::splat(0.8),
                Quat::IDENTITY,
                0.8,
                Vec3::new(0.1, 0.9, 0.4),
            ),
        ]);
        let mut arena = setup(&scene, None);
        let cam = camera();
        let mut grads = PixelGrads::zeros(cam.width, cam.height);
        for (i, g) in grads.color.iter_mut().enumerate() {
            *g = Vec3::new(1.0, -0.5, 0.25) * ((i % 7) as f32 - 3.0);
        }
        for (i, g) in grads.depth.iter_mut().enumerate() {
            *g = ((i % 5) as f32 - 2.0) * 0.1;
        }
        let rewalk = backward(&mut arena, &scene, &grads);
        // Same explicit gradients through the fused driver.
        let mut fused_out = BackwardOutput::empty();
        backward_into::<true>(
            &arena.visible().scene,
            arena.projection(),
            arena.tiles(),
            &cam,
            &Se3::IDENTITY,
            &grads,
            arena.fragments(),
            &arena.work,
            &Serial,
            &mut BackwardScratch::default(),
            &mut fused_out,
        );
        assert_eq!(
            rewalk.gaussians,
            by_id(&fused_out.gaussians, &arena.visible().ids, scene.len())
        );
        assert_eq!(rewalk.pose, fused_out.pose);
        assert_eq!(
            rewalk.stats.fragment_grad_events,
            fused_out.stats.fragment_grad_events
        );
    }

    /// Every float of a gradient as its bit pattern: NaNs must compare too.
    fn grad_bits(g: &GaussianGrad) -> [u32; 15] {
        let (p, s, c, [rw, rx, ry, rz]) = (g.position, g.log_scale, g.color, g.rotation);
        let floats = [
            p.x,
            p.y,
            p.z,
            s.x,
            s.y,
            s.z,
            rw,
            rx,
            ry,
            rz,
            g.opacity,
            c.x,
            c.y,
            c.z,
            g.cov_frobenius,
        ];
        floats.map(f32::to_bits)
    }

    /// A splat whose conic is NaN has `q = NaN` at every pixel: no range
    /// test rejects it, its weight is NaN and its alpha the `ALPHA_MAX` cap
    /// (`min` of a NaN product). It blends over its whole tile, its color
    /// and depth gradients flow, its NaN weight must never reach an
    /// accumulator — and the lane kernels, the scalar re-walk and the AoS
    /// oracle must agree on all of it bit for bit, NaN gradients of the
    /// poisoned Gaussian itself included.
    #[test]
    fn nan_conic_splat_matches_the_oracles_bitwise() {
        use crate::reference::{backward_aos, build_tiles_aos, project_scene_aos, render_aos};
        let scene = GaussianScene::from_gaussians(vec![
            one_gaussian_scene().gaussians[0],
            Gaussian3d::from_activated(
                Vec3::new(0.3, -0.2, 3.0),
                Vec3::splat(0.8),
                Quat::IDENTITY,
                0.8,
                Vec3::new(0.1, 0.9, 0.4),
            ),
            Gaussian3d::from_activated(
                Vec3::new(-0.1, 0.1, 2.5),
                Vec3::splat(0.3),
                Quat::IDENTITY,
                0.5,
                Vec3::new(0.7, 0.2, 0.6),
            ),
        ]);
        // Partial edge tiles and subtiles.
        let cam = PinholeCamera::from_fov(27, 21, 1.2);
        let poisoned = 2usize;
        let nan_conic = Sym2::new(f32::NAN, f32::NAN, f32::NAN);

        let mut aos = project_scene_aos(&scene, &Se3::IDENTITY, &cam, None);
        aos.splats[poisoned].as_mut().expect("visible").conic = nan_conic;
        let aos_tiles = build_tiles_aos(&aos, &cam);
        let rendered = render_aos(&aos, &aos_tiles, &cam);
        let want = &rendered.output;

        let map = ShardedScene::from_scene(&scene, DEFAULT_CELL_SIZE);
        let mut arena = FrameArena::new();
        arena.cull(&map, &Se3::IDENTITY, &cam, None, &Serial);
        arena.project_visible(&Se3::IDENTITY, &cam, &Serial);
        // Every Gaussian is gathered, so frame-local indices are stable IDs
        // and the gathered working set is `scene` itself.
        assert_eq!(arena.visible().ids, [0, 1, 2]);
        let projection = &mut arena.projection;
        let slot = projection.slot(poisoned).expect("visible");
        projection.splats[slot].conic = nan_conic;
        // The cut box is derived from the conic at projection time.
        projection.cut_boxes[slot] = crate::forward::CutBox::of(&projection.splats[slot]);
        arena.assign_tiles(&cam, &Serial);
        arena.render_fused(&cam, &Serial);
        let got = arena.output();
        assert_eq!(got.image, want.image);
        assert_eq!(got.depth, want.depth);
        assert_eq!(got.final_transmittance, want.final_transmittance);
        assert_eq!(got.stats, want.stats);
        let trace = WorkloadTrace::from_render(got, arena.tiles(), arena.fragments());
        assert_eq!(trace.pixel_workloads, rendered.pixel_workloads);
        assert_eq!(trace.fragments_blended, rendered.fragments_blended);
        // The poisoned splat covers its whole tile at the cap.
        let capped = want
            .final_transmittance
            .iter()
            .filter(|&&t| t <= 1.0 - ALPHA_MAX)
            .count();
        assert!(capped >= 16 * 16, "{capped} pixels under the NaN splat");

        let mut grads = PixelGrads::zeros(cam.width, cam.height);
        for (i, g) in grads.color.iter_mut().enumerate() {
            *g = Vec3::new(1.0, -0.5, 0.25) * ((i % 7) as f32 - 3.0);
        }
        for (i, g) in grads.depth.iter_mut().enumerate() {
            *g = ((i % 5) as f32 - 2.0) * 0.1;
        }
        let oracle = backward_aos(&scene, &aos, &aos_tiles, &cam, &Se3::IDENTITY, &grads);
        assert!(
            grad_bits(&oracle.gaussians[poisoned])
                .iter()
                .any(|&b| f32::from_bits(b).is_nan()),
            "a NaN conic poisons its own Step-❺ gradient"
        );
        assert!(oracle.gaussians[poisoned].color.is_finite());
        assert!(oracle.gaussians[0].position.is_finite());
        for fused in [true, false] {
            let out = if fused {
                let mut out = BackwardOutput::empty();
                backward_into::<true>(
                    &scene,
                    arena.projection(),
                    arena.tiles(),
                    &cam,
                    &Se3::IDENTITY,
                    &grads,
                    arena.fragments(),
                    &arena.work,
                    &Serial,
                    &mut BackwardScratch::default(),
                    &mut out,
                );
                out
            } else {
                let scratch = &mut RewalkScratch::default();
                backward_rewalk(
                    &mut arena,
                    &scene,
                    &cam,
                    &Se3::IDENTITY,
                    &grads,
                    &Serial,
                    scratch,
                );
                arena.backward().clone()
            };
            for (got, want) in out.gaussians.iter().zip(&oracle.gaussians) {
                assert_eq!(grad_bits(got), grad_bits(want), "fused: {fused}");
            }
            assert_eq!(out.pose.map(f32::to_bits), oracle.pose.map(f32::to_bits));
            assert_eq!(
                out.stats.fragment_grad_events,
                oracle.stats.fragment_grad_events
            );
        }
    }

    // ---- preprocess_block == preprocess_one, bit for bit ---------------------

    use crate::gaussian::test_support::{
        arb_gaussian, same_float, session_camera, tilted_pose, visible_gaussians,
    };
    use crate::project::{project_one, NEAR_PLANE};
    use proptest::prelude::*;

    /// One lane's worth of Step-❺ input.
    #[derive(Debug, Clone, Copy)]
    struct LaneCase {
        g: Gaussian3d,
        splat: Projected2d,
        a: Accum2d,
    }

    /// A 2D-gradient accumulator with every channel populated.
    fn accum(seed: [f32; 10]) -> Accum2d {
        let [mx, my, cxx, cxy, cyy, r, g, b, o, d] = seed;
        Accum2d {
            mean: Vec2::new(mx, my),
            conic: Sym2::new(cxx, cxy, cyy),
            color: Vec3::new(r, g, b),
            opacity: o,
            depth: d,
            hit: true,
        }
    }

    /// `g` projected under `w2c`; `None` when Step ❶ culls it (Step ❺ never
    /// sees such a Gaussian).
    fn lane_case(g: Gaussian3d, a: Accum2d, w2c: &Se3) -> Option<LaneCase> {
        let splat = project_one(&g, 0, &w2c.rotation_matrix(), w2c, &session_camera())?;
        Some(LaneCase { g, splat, a })
    }

    /// Runs `cases` (at most a block's worth; the last one replicated into
    /// the tail, as `backward_into` does) through both instantiations of
    /// [`preprocess_block`] and holds every lane's gradient and pose terms —
    /// the pose-only block's included — to [`preprocess_one`] on bits — for
    /// a lane with a non-finite input, equal or both NaN.
    fn assert_lanes_match_scalar(cases: &[LaneCase], w2c: &Se3) {
        assert!((1..=GAUSS_LANES).contains(&cases.len()));
        let cam = session_camera();
        let frame = PoseFrame::of(w2c);
        let mut lanes = PreprocessLanes::default();
        for l in 0..GAUSS_LANES {
            let c = &cases[l.min(cases.len() - 1)];
            let s = &c.splat;
            lanes.set(l, s.conic, s.t_cam, s.opacity, &c.a, &Activation::of(&c.g));
        }
        let block = preprocess_block::<true>(&lanes, &cam, &frame);
        let pose_block = preprocess_block::<false>(&lanes, &cam, &frame);
        for (l, c) in cases.iter().enumerate() {
            let (mut got, mut got_pose) = (GaussianGrad::default(), [0.0f32; 6]);
            block.store(l, c.a.color, &mut got);
            block.add_pose(l, &mut got_pose);
            let mut pose_only = [0.0f32; 6];
            pose_block.add_pose(l, &mut pose_only);
            let (mut want, mut want_pose) = (GaussianGrad::default(), [0.0f32; 6]);
            preprocess_one(
                &c.g,
                &c.splat,
                &c.a,
                &cam,
                &frame,
                &mut want,
                &mut want_pose,
            );

            let a = &c.a;
            let inputs = [
                a.mean.x,
                a.mean.y,
                a.conic.xx,
                a.conic.xy,
                a.conic.yy,
                a.opacity,
                a.depth,
                c.splat.conic.xx,
                c.g.log_scale.x,
                c.g.log_scale.y,
                c.g.log_scale.z,
                c.g.rotation.w,
                c.g.rotation.x,
                c.g.rotation.y,
                c.g.rotation.z,
            ];
            let exact = inputs.iter().all(|v| v.is_finite());
            let same = |a: f32, b: f32| a.to_bits() == b.to_bits() || (!exact && same_float(a, b));
            let floats = |g: &GaussianGrad, pose: &[f32; 6]| {
                let mut all = grad_bits(g).map(f32::from_bits).to_vec();
                all.extend_from_slice(pose);
                all
            };
            for (k, (x, y)) in floats(&got, &got_pose)
                .into_iter()
                .zip(floats(&want, &want_pose))
                .enumerate()
            {
                assert!(same(x, y), "lane {l}, float {k}: {x} vs {y} for {c:?}");
            }
            for (k, (x, y)) in pose_only.into_iter().zip(want_pose).enumerate() {
                assert!(same(x, y), "lane {l}, pose-only {k}: {x} vs {y} for {c:?}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn block_lanes_match_preprocess_one_bitwise(
            gaussians in prop::collection::vec(arb_gaussian(), 4 * GAUSS_LANES),
            seeds in prop::collection::vec(-2.0f32..2.0, 40 * GAUSS_LANES),
            tilted in 0usize..2,
        ) {
            let w2c = if tilted == 1 { tilted_pose() } else { Se3::IDENTITY };
            let cases: Vec<LaneCase> = gaussians
                .iter()
                .zip(seeds.chunks(10))
                .filter_map(|(g, seed)| lane_case(*g, accum(seed.try_into().unwrap()), &w2c))
                .take(GAUSS_LANES)
                .collect();
            prop_assume!(!cases.is_empty());
            assert_lanes_match_scalar(&cases, &w2c);
        }
    }

    /// Deterministic visible Gaussians with distinct accumulators.
    fn ordinary_cases(n: usize, w2c: &Se3) -> Vec<LaneCase> {
        let cases = visible_gaussians(n).into_iter().enumerate().map(|(i, g)| {
            let f = i as f32;
            let a = accum([
                0.3 - 0.1 * f,
                0.2 * f,
                0.01 * f,
                -0.02,
                0.03 + 0.01 * f,
                0.1,
                -0.2,
                0.3,
                0.5 - 0.1 * f,
                0.05 * f,
            ]);
            lane_case(g, a, w2c).expect("visible")
        });
        cases.collect()
    }

    /// `hostile` at every lane position among ordinary neighbours.
    fn assert_hostile_lane_matches(hostile: LaneCase, w2c: &Se3) {
        for at in 0..GAUSS_LANES {
            let mut cases = ordinary_cases(GAUSS_LANES, w2c);
            cases[at] = hostile;
            assert_lanes_match_scalar(&cases, w2c);
        }
    }

    #[test]
    fn every_tail_length_of_a_block_matches() {
        let w2c = tilted_pose();
        let cases = ordinary_cases(GAUSS_LANES, &w2c);
        for len in 1..=GAUSS_LANES {
            assert_lanes_match_scalar(&cases[..len], &w2c);
            assert_lanes_match_scalar(&cases[GAUSS_LANES - len..], &w2c);
        }
    }

    #[test]
    fn clamped_off_axis_lanes_match() {
        let cam = session_camera();
        let w2c = Se3::IDENTITY;
        let (lim_x, lim_y) = frustum_limits(&cam);
        for (rx, ry, want) in [
            (lim_x * 1.2, 0.1, (true, false)),
            (-lim_x * 1.2, 0.1, (true, false)),
            (0.1, lim_y * 1.3, (false, true)),
            (0.1, -lim_y * 1.3, (false, true)),
            (lim_x * 1.1, -lim_y * 1.2, (true, true)),
            (-lim_x * 1.1, lim_y * 1.2, (true, true)),
        ] {
            let mut hostile = ordinary_cases(1, &w2c)[0];
            hostile.g.position = Vec3::new(rx, ry, 1.0);
            hostile.g.log_scale = Vec3::splat(-0.5);
            let hostile = lane_case(hostile.g, hostile.a, &w2c).expect("a fat splat stays visible");
            let (_, cx, cy) = jacobian_with_clamp(&cam, hostile.splat.t_cam);
            assert_eq!((cx, cy), want, "({rx}, {ry})");
            assert_hostile_lane_matches(hostile, &w2c);
        }
    }

    #[test]
    fn zero_norm_quaternion_lanes_match() {
        let w2c = tilted_pose();
        for q in [
            Quat::new(0.0, 0.0, 0.0, 0.0),
            Quat::new(1e-20, -1e-21, 0.0, 3e-20),
            // Just either side of the 1e-12 threshold.
            Quat::new(0.0, 0.9e-12, 0.0, 0.0),
            Quat::new(0.0, 1.1e-12, 0.0, 0.0),
        ] {
            let mut hostile = ordinary_cases(3, &w2c)[2];
            hostile.g.rotation = q;
            let hostile = lane_case(hostile.g, hostile.a, &w2c).expect("visible");
            // The early return fires exactly below the threshold.
            let (mut out, mut pose) = (GaussianGrad::default(), [0.0; 6]);
            let frame = PoseFrame::of(&w2c);
            let LaneCase { g, splat, a } = &hostile;
            preprocess_one(g, splat, a, &session_camera(), &frame, &mut out, &mut pose);
            assert_eq!(out.rotation == [0.0; 4], q.norm() < 1e-12, "{q:?}");
            assert_hostile_lane_matches(hostile, &w2c);
        }
    }

    #[test]
    fn non_finite_lane_leaves_its_neighbours_untouched() {
        type Poison = fn(&mut LaneCase);
        let poisons: [Poison; 9] = [
            |c| c.a.mean.x = f32::NAN,
            |c| c.a.conic.xy = f32::INFINITY,
            |c| c.a.depth = f32::NEG_INFINITY,
            |c| c.a.opacity = f32::NAN,
            |c| c.splat.conic = Sym2::new(f32::NAN, f32::NAN, f32::NAN),
            |c| c.g.log_scale.y = f32::INFINITY,
            |c| c.g.log_scale.z = f32::NEG_INFINITY,
            |c| c.g.rotation.w = f32::NAN,
            |c| c.g.rotation = Quat::new(f32::INFINITY, 1.0, f32::NEG_INFINITY, 0.0),
        ];
        let w2c = tilted_pose();
        for poison in poisons {
            let mut hostile = ordinary_cases(2, &w2c)[1];
            poison(&mut hostile);
            // The neighbours are finite, so `assert_lanes_match_scalar`
            // holds them to exact bits whatever the poisoned lane does.
            assert_hostile_lane_matches(hostile, &w2c);
        }
    }

    /// The chunk loop around the kernel — compaction of touched IDs, tail
    /// replication, per-lane stores and pose adds in ascending ID — at every
    /// tail length, with untouched (Step-❶-culled) Gaussians in between,
    /// against the AoS oracle, in both instantiations.
    #[test]
    fn every_touched_count_matches_the_oracle() {
        use crate::reference::{backward_aos, build_tiles_aos, project_scene_aos};
        let cam = camera();
        let w2c = Se3::IDENTITY;
        for n in 1..=2 * GAUSS_LANES + 1 {
            let mut gaussians = Vec::new();
            for i in 0..n {
                let f = i as f32;
                gaussians.push(Gaussian3d::from_activated(
                    Vec3::new(0.05 * f - 0.3, 0.2 - 0.03 * f, 2.0 + 0.1 * f),
                    Vec3::splat(0.3),
                    Quat::from_axis_angle(Vec3::new(0.2, 0.5, 0.1), 0.1 * f),
                    0.5,
                    Vec3::new(0.8, 0.3, 0.2),
                ));
                // Never touched: in front of the camera but short of the
                // near plane, in its twin's shard (the cells are 100 m), so
                // the cull gathers it and Step ❶ culls it.
                let mut too_near = gaussians[gaussians.len() - 1];
                too_near.position.z = 0.5 * NEAR_PLANE;
                gaussians.push(too_near);
            }
            let scene = GaussianScene::from_gaussians(gaussians);
            let map = ShardedScene::from_scene(&scene, 100.0);
            let mut arena = FrameArena::new();
            arena.cull(&map, &w2c, &cam, None, &Serial);
            arena.project_visible(&w2c, &cam, &Serial);
            assert_eq!(arena.visible().ids.len(), scene.len(), "all gathered");
            assert_eq!(arena.projection().visible_count(), n, "the twins culled");
            arena.assign_tiles(&cam, &Serial);
            arena.render_fused(&cam, &Serial);
            let mut grads = PixelGrads::zeros(cam.width, cam.height);
            for (i, g) in grads.color.iter_mut().enumerate() {
                *g = Vec3::new(1.0, -0.5, 0.25) * ((i % 7) as f32 - 3.0);
            }
            let aos = project_scene_aos(&scene, &w2c, &cam, None);
            let aos_tiles = build_tiles_aos(&aos, &cam);
            let oracle = backward_aos(&scene, &aos, &aos_tiles, &cam, &w2c, &grads);
            let touched = oracle.gaussians.iter();
            let touched = touched.filter(|g| **g != GaussianGrad::default()).count();
            assert_eq!(touched, n);
            let mut out = BackwardOutput::empty();
            backward_into::<true>(
                &scene,
                arena.projection(),
                arena.tiles(),
                &cam,
                &w2c,
                &grads,
                arena.fragments(),
                &arena.work,
                &Serial,
                &mut BackwardScratch::default(),
                &mut out,
            );
            for (got, want) in out.gaussians.iter().zip(&oracle.gaussians) {
                assert_eq!(grad_bits(got), grad_bits(want), "{n} touched");
            }
            assert_eq!(out.pose.map(f32::to_bits), oracle.pose.map(f32::to_bits));
            // The pose-only instantiation, into the same (stale) output.
            backward_into::<false>(
                &scene,
                arena.projection(),
                arena.tiles(),
                &cam,
                &w2c,
                &grads,
                arena.fragments(),
                &arena.work,
                &Serial,
                &mut BackwardScratch::default(),
                &mut out,
            );
            assert!(out.gaussians.is_empty());
            assert_eq!(out.pose.map(f32::to_bits), oracle.pose.map(f32::to_bits));
            assert_eq!(
                out.stats.fragment_grad_events,
                oracle.stats.fragment_grad_events
            );
        }
    }
}
