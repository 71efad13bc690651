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
//!   consumes the fragment records a fused forward pass
//!   ([`crate::FrameArena::render_fused`]) cached — forward + backward share
//!   one tile traversal.
//! * The re-walk driver (`reference::backward_rewalk`, test oracle) mirrors
//!   the reference CUDA rasterizer: each pixel's fragment list is re-walked
//!   in forward order (recomputing alpha and transmittance from the SoA
//!   splat arrays), then the reverse recursion of Eq. 4 runs with suffix
//!   accumulators. Because the cache holds exactly the values the re-walk
//!   recomputes, the gradients are bitwise-identical.
//!
//! Analytic gradients are verified against central finite differences in
//! `tests/grad_check.rs`.

use crate::camera::PinholeCamera;
use crate::forward::{
    fragment_alpha_fast, gather_tile, pixel_center, FragmentCache, TileFragments, TileScratch,
    TileSplat, ALPHA_MAX, TERMINATION_THRESHOLD,
};
use crate::gaussian::{GaussianGrad, GaussianScene};
use crate::project::{jacobian_with_clamp, Projected2d, Projection};
use crate::tiles::TileAssignment;
use rtgs_math::{Mat3, Se3, Sym2, Sym3, Vec2, Vec3};
use rtgs_runtime::{Backend, ScratchPool, SharedSlice};

/// Tiles per chunk in the parallel Rendering BP (fixed by the algorithm,
/// not the worker count).
pub(crate) const BP_TILE_CHUNK: usize = 4;
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
    // Resize (not clear) the per-tile partials: each tile's accumulator
    // vector keeps its capacity and is reset inside the tile kernel.
    ws.partials.resize_with(tile_count, TilePartial::default);
    {
        let partial_view = SharedSlice::new(&mut ws.partials);
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
                        &cache.tiles[tile],
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
    for (tile, partial) in ws.partials.iter().enumerate() {
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
    let rot_w2c = w2c.rotation_matrix();
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
            for id in range {
                let a = &accum[id];
                if !a.hit {
                    continue;
                }
                let Some(slot) = soa.slot(id) else {
                    continue;
                };
                let splat = soa.get(slot);
                touched += 1;
                // SAFETY: each Gaussian id is written by at most one chunk.
                let out = unsafe { grad_view.get_mut(id) };
                preprocess_one(
                    &scene.gaussians[id],
                    &splat,
                    a,
                    camera,
                    &rot_w2c,
                    out,
                    &mut pose,
                );
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
    let (tx, ty) = (tile % tiles.tiles_x, tile / tiles.tiles_x);
    let (x0, y0, x1, y1) = tiles.tile_pixel_rect(tx, ty, camera);
    let mut touched = false;

    for y in y0..y1 {
        for x in x0..x1 {
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
}

/// Step ❹ for one tile (fused variant): consumes the fragment records the
/// fused forward pass cached — no re-walk, no alpha recomputation. The
/// cache is indexed subtile-major ([`TileFragments::pixel_index`]), but
/// pixels are *visited* row-major within the tile: that order is the
/// summation order of the per-Gaussian partials.
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
    let (tx, ty) = (tile % tiles.tiles_x, tile / tiles.tiles_x);
    let (x0, y0, x1, y1) = tiles.tile_pixel_rect(tx, ty, camera);
    let mut touched = false;

    for y in y0..y1 {
        for x in x0..x1 {
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
            let frags = cached.pixel_fragments(TileFragments::pixel_index(x - x0, y - y0));
            // The final transmittance is one multiply past the last cached
            // fragment — exactly the forward pass's last update of `t`.
            let t_final = frags
                .last()
                .map(|f| f.t_before * (1.0 - f.alpha))
                .unwrap_or(1.0);
            reverse_recursion(
                gathered,
                partial,
                p,
                t_final,
                g_color,
                g_depth,
                g_trans,
                frags
                    .iter()
                    .map(|f| (f.list_pos as usize, f.alpha, f.weight, f.t_before)),
            );
        }
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

/// Step ❺ for one Gaussian: chains the aggregated 2D gradients to the 3D
/// parameters and accumulates the camera-pose tangent contribution.
#[allow(clippy::too_many_arguments)]
pub(crate) fn preprocess_one(
    g: &crate::gaussian::Gaussian3d,
    splat: &Projected2d,
    a: &Accum2d,
    camera: &PinholeCamera,
    rot_w2c: &Mat3,
    out: &mut GaussianGrad,
    pose: &mut [f32; 6],
) {
    let rot_w2c = *rot_w2c;
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
        let ds_i: f32 = (0..3).map(|row| dl_dn.m[row][i] * r.m[row][i]).sum();
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
    for axis in 0..3 {
        let mut e = Vec3::ZERO;
        e[axis] = 1.0;
        let dw = Mat3::skew(e) * rot_w2c;
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
    let dot: f32 = g_unit.iter().zip(qv.iter()).map(|(a, b)| a * b).sum();
    let mut out = [0.0f32; 4];
    for i in 0..4 {
        out[i] = (g_unit[i] - dot * qv[i]) / norm;
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
}
