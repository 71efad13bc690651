//! Steps ❹–❺: Rendering backpropagation and preprocessing backpropagation
//! (paper Sec. 2.2, Eqs. 4–5).
//!
//! Step ❹ propagates per-pixel color/depth loss gradients to per-fragment
//! 2D Gaussian gradients, aggregated per Gaussian (the aggregation the GMU
//! accelerates in hardware). Step ❺ chains 2D gradients to the 3D Gaussian
//! parameters and — during tracking — to the camera pose tangent.
//!
//! Two Step-❹ drivers share all surrounding machinery:
//!
//! * The fused driver ([`crate::FrameArena::backward_fused`], production)
//!   consumes the R&B records a fused forward pass
//!   ([`crate::FrameArena::render_fused`]) wrote — forward + backward share
//!   one tile traversal. It is lane-wide like the forward kernel: per
//!   subtile it walks the records back to front with the recursion's suffix
//!   state held as 16 pixel lanes, evaluates the per-fragment expressions
//!   four lanes (one record row) at a time on the rows that blended, and
//!   merges a record's contributions into the splat's accumulator in one
//!   read-modify-write (`merge_subtile`) — the GMU's job in the paper's
//!   hardware.
//! * The re-walk driver (`reference::backward_rewalk`, test oracle) mirrors
//!   the reference CUDA rasterizer: each pixel's fragment list is re-walked
//!   in forward order (recomputing alpha and transmittance from the SoA
//!   splat arrays), then the reverse recursion of Eq. 4 runs with suffix
//!   accumulators (`reverse_recursion`, the one scalar definition of the
//!   per-fragment expressions; the lane kernel reproduces it and
//!   `reference::backward_aos` mirrors it).
//!
//! **Summation order.** A Gaussian's accumulator receives one contribution
//! per pixel it blended at, and floating-point sums depend on their order,
//! so the order is part of the definition, on every path: within a tile,
//! ascending [`TileFragments::pixel_index`] — subtile by subtile, lane by
//! lane — which is the order the lane kernel produces naturally and the
//! order in which both scalar oracles visit pixels
//! ([`crate::forward::tile_pixels`]); across tiles, tile order (the fold in
//! `backward_into`). Because the records hold exactly the values the
//! re-walk recomputes and every path adds the same terms in the same order,
//! the gradients are bitwise-identical.
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
//! Analytic gradients are verified against central finite differences in
//! `tests/grad_check.rs`.

use crate::camera::PinholeCamera;
use crate::forward::{
    fragment_alpha_fast, gather_tile, lane_mask, pixel_center, pixel_centers, select, tile_pixels,
    FragmentCache, RecordRow, TileFragments, TileScratch, TileSplat, ALPHA_MAX, LANES, SUBTILES_X,
    TERMINATION_THRESHOLD,
};
use crate::gaussian::{Activation, GaussianGrad, GaussianScene};
use crate::project::{
    covariance3, diagonal3, frustum_limits, jacobian_lane, jacobian_with_clamp, mul3, mul_vec3,
    rotation3, transpose3, Lanes, Projected2d, Projection, GAUSS_LANES, M3,
};
use crate::tiles::{TileAssignment, SUBTILES_PER_TILE, SUBTILE_SIZE};
use rtgs_math::{Mat3, Se3, Sym2, Sym3, Vec2, Vec3};
use rtgs_runtime::{Backend, ScratchPool, SharedSlice};

/// Tiles per chunk in the parallel Rendering BP (fixed by the algorithm,
/// not the worker count). The per-tile partials fold in tile order whatever
/// the chunking, so the value moves no bit; one tile per chunk for the
/// reason and with the numbers at `forward::RENDER_CHUNK` (Step ❹ on two
/// threads: ×0.62…0.68 of serial at 4, ×0.52…0.57 at 1).
pub(crate) const BP_TILE_CHUNK: usize = 1;
/// Gaussians per chunk in the parallel Preprocessing BP. The per-chunk
/// pose-tangent partial sums fold in chunk order, so this constant — never
/// the worker count — defines the floating-point summation tree.
pub(crate) const BP_GAUSS_CHUNK: usize = 256;

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
}

/// Counters from one backward pass, consumed by the hardware model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackwardStats {
    /// Fragment-level gradient contributions (each is one atomic-add burst
    /// on a GPU; the paper's Observation 4 bottleneck).
    pub fragment_grad_events: u64,
    /// Number of distinct Gaussians that received gradient.
    pub gaussians_touched: usize,
    /// Wall-clock nanoseconds spent in Step ❹ Rendering BP.
    pub rendering_bp_nanos: u64,
    /// Wall-clock nanoseconds spent in Step ❺ Preprocessing BP.
    pub preprocessing_bp_nanos: u64,
}

/// Full gradient set from one backward pass.
#[derive(Debug, Clone)]
pub struct BackwardOutput {
    /// Per-Gaussian parameter gradients (Step ❺ output, mapping).
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
/// per-Gaussian 2D-gradient fold buffer, per-chunk pose partials and the
/// shared per-chunk tile-scratch pool. One workspace reused across
/// iterations makes the steady-state backward pass allocation-free (the
/// [`crate::FrameArena`] owns one).
#[derive(Default)]
pub(crate) struct BackwardScratch {
    /// One Step-❹ partial per tile.
    partials: Vec<TilePartial>,
    /// Per-Gaussian 2D-gradient accumulators (fold target).
    accum: Vec<Accum2d>,
    /// Per-chunk (pose tangent, touched count) partials of Step ❺.
    pose_partials: Vec<([f32; 6], usize)>,
    /// Pool of per-chunk tile scratch (shared with the forward pass when
    /// owned by a [`crate::FrameArena`]).
    pub(crate) pool: ScratchPool<TileScratch>,
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
    /// Adds another tile's partial accumulation for the same Gaussian.
    pub(crate) fn merge(&mut self, rhs: &Accum2d) {
        self.mean += rhs.mean;
        self.conic = self.conic + rhs.conic;
        self.color += rhs.color;
        self.opacity += rhs.opacity;
        self.depth += rhs.depth;
        self.hit |= rhs.hit;
    }
}

/// One tile's contribution to Step ❹: per-Gaussian partial accumulators
/// (indexed by position in the tile's splat list) plus event counters.
/// Tiles compute partials independently — possibly in parallel — and the
/// calling thread folds them in tile order, so the reduction tree is fixed
/// by the tile grid alone and the result is bitwise-identical on every
/// backend and pool size.
#[derive(Default)]
pub(crate) struct TilePartial {
    /// One accumulator per entry of the tile's splat list (empty when the
    /// tile received no gradient).
    pub(crate) accum: Vec<Accum2d>,
    /// Fragment-level gradient events in this tile.
    pub(crate) events: u64,
    /// Re-walk scratch of the unfused driver (one pixel's reconstructed
    /// fragment sequence); kept here so its capacity survives reuse.
    pub(crate) rewalk: Vec<FragmentRecord>,
}

/// One recomputed fragment during the backward re-walk.
pub(crate) struct FragmentRecord {
    /// Position of the splat in the tile's list (indexes the gathered
    /// working set and the tile partial).
    list_pos: usize,
    alpha: f32,
    weight: f32,
    t_before: f32,
}

/// Runs Steps ❹ and ❺ into caller-owned storage: computes gradients of the
/// loss with respect to all Gaussian parameters and the camera pose.
///
/// Step ❹ runs chunked over tiles: each tile accumulates gradients into its
/// own `TilePartial` and the calling thread folds the partials in tile
/// order (the software analog of the paper's GMU gradient merging — the
/// atomic-add contention of Observation 4 is what this structure removes).
/// With `fragments` it consumes the records of a fused forward pass over
/// the same `(projection, tiles, camera)` triple; without, it re-walks each
/// pixel's splat list. Step ❺ runs chunked over Gaussians with per-chunk
/// pose-tangent partials folded in chunk order. Both reduction trees are
/// fixed by constants (`BP_TILE_CHUNK`, `BP_GAUSS_CHUNK`) rather than the
/// worker count, so gradients are bitwise-identical on every backend and
/// pool size.
///
/// The workspace and the output gradient buffer are cleared and refilled;
/// once their capacities cover the frame, a steady-state backward pass
/// performs **no heap allocation**.
///
/// # Panics
///
/// Panics if the gradient buffers do not match `camera`'s pixel count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn backward_into(
    scene: &GaussianScene,
    projection: &Projection,
    tiles: &TileAssignment,
    camera: &PinholeCamera,
    w2c: &Se3,
    pixel_grads: &PixelGrads,
    fragments: Option<&FragmentCache>,
    backend: &dyn Backend,
    ws: &mut BackwardScratch,
    out: &mut BackwardOutput,
) {
    assert_eq!(pixel_grads.color.len(), camera.pixel_count());
    assert_eq!(pixel_grads.depth.len(), camera.pixel_count());
    assert_eq!(pixel_grads.transmittance.len(), camera.pixel_count());

    let mut stats = BackwardStats::default();
    let t_start = std::time::Instant::now();

    // ---- Step ❹: Rendering BP -------------------------------------------
    let tile_count = tiles.tile_count();
    // The per-tile partials only ever grow in number: each tile's
    // accumulator vector keeps its capacity — across a smaller grid too —
    // and is reset inside the tile kernel.
    if ws.partials.len() < tile_count {
        ws.partials.resize_with(tile_count, TilePartial::default);
    }
    let partials = &mut ws.partials[..tile_count];
    {
        let partial_view = SharedSlice::new(&mut *partials);
        let pool = &ws.pool;
        backend.for_each_chunk(tile_count, BP_TILE_CHUNK, &|_, range| {
            // Per-chunk scratch from the shared pool, reused across the
            // chunk's tiles (and across iterations in the arena path).
            let mut scratch = pool.take();
            let gathered = &mut scratch.gathered;
            for tile in range {
                // SAFETY: one partial slot per tile.
                let partial = unsafe { partial_view.get_mut(tile) };
                match fragments {
                    Some(cache) => backward_tile_fused(
                        tile,
                        projection,
                        tiles,
                        camera,
                        pixel_grads,
                        &cache.tiles()[tile],
                        gathered,
                        partial,
                    ),
                    None => backward_tile(
                        tile,
                        projection,
                        tiles,
                        camera,
                        pixel_grads,
                        gathered,
                        partial,
                    ),
                }
            }
            pool.put(scratch);
        });
    }

    // Deterministic fold: tile order, then tile-list order within a tile —
    // the same tree regardless of how the partials were computed.
    let soa = &projection.soa;
    ws.accum.clear();
    ws.accum.resize(scene.len(), Accum2d::default());
    let accum = &mut ws.accum;
    for (tile, partial) in partials.iter().enumerate() {
        stats.fragment_grad_events += partial.events;
        if partial.accum.is_empty() {
            continue;
        }
        for (pos, &slot) in tiles.tile(tile).iter().enumerate() {
            let a = &partial.accum[pos];
            if a.hit {
                accum[soa.gaussian_ids[slot as usize] as usize].merge(a);
            }
        }
    }

    stats.rendering_bp_nanos = t_start.elapsed().as_nanos() as u64;
    let t_phase2 = std::time::Instant::now();

    // ---- Step ❺: Preprocessing BP ----------------------------------------
    let frame = PoseFrame::of(w2c);
    out.gaussians.clear();
    out.gaussians.resize(scene.len(), GaussianGrad::default());
    let chunks = scene.len().div_ceil(BP_GAUSS_CHUNK).max(1);
    // Per-chunk (pose tangent, touched count) partials, folded in order.
    ws.pose_partials.clear();
    ws.pose_partials.resize(chunks, ([0.0f32; 6], 0usize));

    {
        let grad_view = SharedSlice::new(&mut out.gaussians);
        let pose_view = SharedSlice::new(&mut ws.pose_partials);
        let accum = &ws.accum;
        backend.for_each_chunk(scene.len(), BP_GAUSS_CHUNK, &|chunk, range| {
            let mut pose = [0.0f32; 6];
            let mut touched = 0usize;
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
                    let slot = soa.slot_of_gaussian[id] as usize;
                    lanes.set(
                        l,
                        soa.conics[slot],
                        soa.t_cams[slot],
                        soa.opacities[slot],
                        &accum[id],
                        &soa.activations[slot],
                    );
                }
                let block = preprocess_block(&lanes, camera, &frame);
                for (l, &id) in ids.iter().enumerate() {
                    // SAFETY: each Gaussian id is written by at most one
                    // chunk.
                    let out = unsafe { grad_view.get_mut(id) };
                    block.store(l, accum[id].color, out, &mut pose);
                }
            };
            let mut ids = [0usize; GAUSS_LANES];
            let mut live = 0usize;
            for id in range {
                if !accum[id].hit || soa.slot(id).is_none() {
                    continue;
                }
                touched += 1;
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
            unsafe { pose_view.write(chunk, (pose, touched)) };
        });
    }

    let mut pose = [0.0f32; 6];
    for (partial, touched) in &ws.pose_partials {
        for (acc, p) in pose.iter_mut().zip(partial.iter()) {
            *acc += p;
        }
        stats.gaussians_touched += touched;
    }

    stats.preprocessing_bp_nanos = t_phase2.elapsed().as_nanos() as u64;
    out.pose = pose;
    out.stats = stats;
}

/// Step ❹ for one tile (re-walk variant): reconstructs every pixel's
/// fragment sequence from the gathered SoA working set and accumulates
/// per-Gaussian 2D gradients into the tile's (reused) partial.
#[allow(clippy::too_many_arguments)]
fn backward_tile(
    tile: usize,
    projection: &Projection,
    tiles: &TileAssignment,
    camera: &PinholeCamera,
    pixel_grads: &PixelGrads,
    gathered: &mut Vec<TileSplat>,
    partial: &mut TilePartial,
) {
    partial.events = 0;
    partial.accum.clear();
    let list = tiles.tile(tile);
    if list.is_empty() {
        return;
    }
    gather_tile(&projection.soa, list, gathered);
    let rect = tiles.tile_pixel_rect(tile % tiles.tiles_x, tile / tiles.tiles_x, camera);
    let mut touched = false;

    for (x, y) in tile_pixels(rect) {
        let idx = y * camera.width + x;
        let g_color = pixel_grads.color[idx];
        let g_depth = pixel_grads.depth[idx];
        let g_trans = pixel_grads.transmittance[idx];
        if g_color == Vec3::ZERO && g_depth == 0.0 && g_trans == 0.0 {
            continue;
        }
        if !touched {
            touched = true;
            partial.accum.resize(list.len(), Accum2d::default());
        }
        let p = pixel_center(x, y);

        // Re-walk forward to reconstruct the fragment sequence.
        partial.rewalk.clear();
        let mut t = 1.0f32;
        for (pos, s) in gathered.iter().enumerate() {
            let Some((alpha, weight)) = fragment_alpha_fast(s, p) else {
                continue;
            };
            partial.rewalk.push(FragmentRecord {
                list_pos: pos,
                alpha,
                weight,
                t_before: t,
            });
            t *= 1.0 - alpha;
            if t < TERMINATION_THRESHOLD {
                break;
            }
        }

        // `t` now holds the pixel's final transmittance. The rewalk
        // records are moved out of the partial for the recursion's
        // split borrow and swapped back after (both are O(1)).
        let records = std::mem::take(&mut partial.rewalk);
        reverse_recursion(
            gathered,
            partial,
            p,
            t,
            g_color,
            g_depth,
            g_trans,
            records
                .iter()
                .map(|f| (f.list_pos, f.alpha, f.weight, f.t_before)),
        );
        partial.rewalk = records;
    }
}

/// Step ❹ for one tile (fused variant): consumes the R&B records the fused
/// forward pass wrote — no re-walk, no alpha recomputation — one subtile at
/// a time, 16 pixel lanes wide (`merge_subtile`).
#[allow(clippy::too_many_arguments)]
fn backward_tile_fused(
    tile: usize,
    projection: &Projection,
    tiles: &TileAssignment,
    camera: &PinholeCamera,
    pixel_grads: &PixelGrads,
    cached: &TileFragments,
    gathered: &mut Vec<TileSplat>,
    partial: &mut TilePartial,
) {
    partial.events = 0;
    partial.accum.clear();
    let list = tiles.tile(tile);
    if list.is_empty() {
        return;
    }
    gather_tile(&projection.soa, list, gathered);
    let (x0, y0, x1, y1) =
        tiles.tile_pixel_rect(tile % tiles.tiles_x, tile / tiles.tiles_x, camera);

    for subtile in 0..SUBTILES_PER_TILE {
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
            partial.accum.resize(list.len(), Accum2d::default());
        }
        merge_subtile(gathered, partial, cached, subtile, (sx0, sy0), &upstream);
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
/// Per pixel this is [`reverse_recursion`]'s floating-point program,
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
fn merge_subtile(
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
                merge_row(
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

/// The suffix accumulators of [`reverse_recursion`], one lane per pixel of a
/// subtile.
struct LaneSuffix {
    color: [[f32; LANES]; 3],
    depth: [f32; LANES],
}

/// One record row of [`merge_subtile`] — the four pixels of subtile row `r`
/// that splat `s` blended at, of which the lanes in `hit_row` carry upstream
/// gradient. `px` holds the columns' pixel-centre coordinates and `dy` the
/// row's offset from the splat's mean.
///
/// (The lane arrays arrive as separate reference parameters on purpose:
/// behind fields of one struct the compiler can no longer tell the suffix
/// stores from the gradient loads and gives up on vectorising — Step ❹
/// then takes 2.4× as long.)
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)] // lane loops index parallel arrays
#[inline(always)]
fn merge_row(
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

        for ch in 0..3 {
            d_color[ch][c] = select(hit, upstream.color[ch][l] * w, 0.0);
        }
        d_depth[c] = select(hit, upstream.depth[l] * w, 0.0);

        // Alpha clamping zeroes the parameter gradient at the cap.
        let uncapped = hit & lane_mask(alpha < ALPHA_MAX);
        d_opacity[c] = select(uncapped, dl_dalpha * weight, 0.0);
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
        acc.color += Vec3::new(d_color[0][c], d_color[1][c], d_color[2][c]);
        acc.depth += d_depth[c];
        acc.opacity += d_opacity[c];
        acc.mean += Vec2::new(d_mean[0][c], d_mean[1][c]);
        acc.conic = acc.conic + Sym2::new(d_conic[0][c], d_conic[1][c], d_conic[2][c]);
    }
}

/// The reverse recursion of Eq. 4 with suffix accumulators, over one pixel's
/// fragment sequence `(list_pos, alpha, weight, t_before)` given in forward
/// order. Shared between the re-walk and fused Step-❹ drivers so both run
/// the identical floating-point program.
#[allow(clippy::too_many_arguments)]
fn reverse_recursion<I>(
    gathered: &[TileSplat],
    partial: &mut TilePartial,
    p: Vec2,
    t_final: f32,
    g_color: Vec3,
    g_depth: f32,
    g_trans: f32,
    fragments: I,
) where
    I: Iterator<Item = (usize, f32, f32, f32)> + DoubleEndedIterator,
{
    let mut suffix_color = Vec3::ZERO;
    let mut suffix_depth = 0.0f32;
    for (list_pos, alpha, weight, t_k) in fragments.rev() {
        let s = &gathered[list_pos];
        let w = t_k * alpha;
        let one_minus = 1.0 - alpha;

        let dc_dalpha = s.color * t_k - suffix_color / one_minus;
        let dd_dalpha = s.depth * t_k - suffix_depth / one_minus;
        let dt_dalpha = -t_final / one_minus;
        let dl_dalpha = g_color.dot(dc_dalpha) + g_depth * dd_dalpha + g_trans * dt_dalpha;

        let a = &mut partial.accum[list_pos];
        a.hit = true;
        a.color += g_color * w;
        a.depth += g_depth * w;

        // Alpha clamping (Eq. 2 output capped at ALPHA_MAX) zeroes
        // the parameter gradient at the cap.
        if alpha < ALPHA_MAX {
            a.opacity += dl_dalpha * weight;
            let dl_dq = -0.5 * dl_dalpha * s.opacity * weight;
            let delta = p - s.mean;
            let conic_delta = s.conic.mul_vec(delta);
            a.mean += conic_delta * (-2.0 * dl_dq);
            a.conic = a.conic
                + Sym2::new(delta.x * delta.x, delta.x * delta.y, delta.y * delta.y) * dl_dq;
        }
        partial.events += 1;

        suffix_color += s.color * w;
        suffix_depth += s.depth * w;
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
    /// Lane `l`'s results: the gradient into `out` (`color` passes through
    /// from the accumulator) and the nine pose adds, in
    /// [`preprocess_one`]'s sequence.
    fn store(&self, l: usize, color: Vec3, out: &mut GaussianGrad, pose: &mut [f32; 6]) {
        let vec3 = |v: &[Lanes; 3]| Vec3::new(v[0][l], v[1][l], v[2][l]);
        out.position = vec3(&self.position);
        out.color = color;
        out.opacity = self.opacity[l];
        out.cov_frobenius = self.cov_frobenius[l];
        out.log_scale = vec3(&self.log_scale);
        out.rotation = self.rotation.map(|lanes| lanes[l]);
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
#[allow(clippy::needless_range_loop)] // the lane loop indexes parallel arrays
pub(crate) fn preprocess_block(
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

        // cov2d = M Σ Mᵀ:
        let dl_dsigma = mul3(&mul3(&transpose3(&m), &dcov3), &m);
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
            out.dl_dt[i][l] = dl_dt[i];
            out.spin[i][l] = inner3(&dl_dw_cov, generators[i]);
        }
        for i in 0..4 {
            out.rotation[i][l] = select(degenerate, 0.0, (g_unit[i] - dot * qv[i]) / norm);
        }
        // `t_cam.cross(dl_dt)`.
        out.torque[0][l] = t[1] * dl_dt[2] - t[2] * dl_dt[1];
        out.torque[1][l] = t[2] * dl_dt[0] - t[0] * dl_dt[2];
        out.torque[2][l] = t[0] * dl_dt[1] - t[1] * dl_dt[0];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::Gaussian3d;
    use crate::reference::backward_rewalk;
    use crate::FrameArena;
    use rtgs_math::Quat;
    use rtgs_runtime::Serial;

    fn camera() -> PinholeCamera {
        PinholeCamera::from_fov(32, 32, 1.2)
    }

    /// Projects, bins and fused-renders `scene` at the identity pose.
    fn setup(scene: &GaussianScene, active: Option<&[bool]>) -> FrameArena {
        let cam = camera();
        let mut arena = FrameArena::new();
        arena.project(scene, &Se3::IDENTITY, &cam, active, &Serial);
        arena.assign_tiles(&cam, &Serial);
        arena.render_fused(&cam, &Serial);
        arena
    }

    /// Backward pass over explicit upstream gradients (re-walk driver).
    fn backward(
        arena: &mut FrameArena,
        scene: &GaussianScene,
        grads: &PixelGrads,
    ) -> BackwardOutput {
        backward_rewalk(arena, scene, &camera(), &Se3::IDENTITY, grads, &Serial);
        arena.backward().clone()
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
        assert!(out.stats.gaussians_touched == 1);
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
        backward_into(
            &scene,
            arena.projection(),
            arena.tiles(),
            &cam,
            &Se3::IDENTITY,
            &grads,
            Some(arena.fragments()),
            &Serial,
            &mut BackwardScratch::default(),
            &mut fused_out,
        );
        assert_eq!(rewalk.gaussians, fused_out.gaussians);
        assert_eq!(rewalk.pose, fused_out.pose);
        assert_eq!(
            rewalk.stats.fragment_grad_events,
            fused_out.stats.fragment_grad_events
        );
        assert_eq!(
            rewalk.stats.gaussians_touched,
            fused_out.stats.gaussians_touched
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
        let want = render_aos(&aos, &aos_tiles, &cam);

        let mut arena = FrameArena::new();
        arena.project(&scene, &Se3::IDENTITY, &cam, None, &Serial);
        let slot = arena.projection.soa.slot(poisoned).expect("visible");
        let soa = &mut arena.projection.soa;
        soa.conics[slot] = nan_conic;
        // The cut box is derived from the conic at projection time.
        let mut hot = Vec::new();
        gather_tile(soa, &[slot as u32], &mut hot);
        soa.cut_boxes[slot] = crate::forward::CutBox::of(&hot[0]);
        arena.assign_tiles(&cam, &Serial);
        arena.render_fused(&cam, &Serial);
        let got = arena.output();
        assert_eq!(got.image, want.image);
        assert_eq!(got.depth, want.depth);
        assert_eq!(got.final_transmittance, want.final_transmittance);
        assert_eq!(got.pixel_workloads, want.pixel_workloads);
        assert_eq!(got.stats, want.stats);
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
        for fragments in [Some(arena.fragments()), None] {
            let mut out = BackwardOutput::empty();
            backward_into(
                &scene,
                arena.projection(),
                arena.tiles(),
                &cam,
                &Se3::IDENTITY,
                &grads,
                fragments,
                &Serial,
                &mut BackwardScratch::default(),
                &mut out,
            );
            let fused = fragments.is_some();
            for (got, want) in out.gaussians.iter().zip(&oracle.gaussians) {
                assert_eq!(grad_bits(got), grad_bits(want), "fused: {fused}");
            }
            assert_eq!(out.pose.map(f32::to_bits), oracle.pose.map(f32::to_bits));
            assert_eq!(
                out.stats.fragment_grad_events,
                oracle.stats.fragment_grad_events
            );
            assert_eq!(out.stats.gaussians_touched, oracle.stats.gaussians_touched);
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
    /// the tail, as `backward_into` does) through [`preprocess_block`] and
    /// holds every lane's gradient and pose terms to [`preprocess_one`] on
    /// bits — for a lane with a non-finite input, equal or both NaN.
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
        let block = preprocess_block(&lanes, &cam, &frame);
        for (l, c) in cases.iter().enumerate() {
            let (mut got, mut got_pose) = (GaussianGrad::default(), [0.0f32; 6]);
            block.store(l, c.a.color, &mut got, &mut got_pose);
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
    /// tail length, with untouched (masked, culled) Gaussians in between,
    /// against the AoS oracle.
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
                // Never touched: behind the camera.
                let mut behind = gaussians[gaussians.len() - 1];
                behind.position.z = -NEAR_PLANE;
                gaussians.push(behind);
            }
            let scene = GaussianScene::from_gaussians(gaussians);
            let mut arena = FrameArena::new();
            arena.project(&scene, &w2c, &cam, None, &Serial);
            arena.assign_tiles(&cam, &Serial);
            arena.render_fused(&cam, &Serial);
            let mut grads = PixelGrads::zeros(cam.width, cam.height);
            for (i, g) in grads.color.iter_mut().enumerate() {
                *g = Vec3::new(1.0, -0.5, 0.25) * ((i % 7) as f32 - 3.0);
            }
            let aos = project_scene_aos(&scene, &w2c, &cam, None);
            let aos_tiles = build_tiles_aos(&aos, &cam);
            let oracle = backward_aos(&scene, &aos, &aos_tiles, &cam, &w2c, &grads);
            assert_eq!(oracle.stats.gaussians_touched, n);
            let mut out = BackwardOutput::empty();
            backward_into(
                &scene,
                arena.projection(),
                arena.tiles(),
                &cam,
                &w2c,
                &grads,
                Some(arena.fragments()),
                &Serial,
                &mut BackwardScratch::default(),
                &mut out,
            );
            for (got, want) in out.gaussians.iter().zip(&oracle.gaussians) {
                assert_eq!(grad_bits(got), grad_bits(want), "{n} touched");
            }
            assert_eq!(out.pose.map(f32::to_bits), oracle.pose.map(f32::to_bits));
            assert_eq!(out.stats.gaussians_touched, n);
        }
    }
}
