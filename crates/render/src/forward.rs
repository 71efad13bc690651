//! Step ❸ Rendering: per-pixel alpha computing and alpha blending
//! (paper Eqs. 2–3) with early ray termination.
//!
//! The kernel walks the projection's structure-of-arrays splat storage
//! ([`crate::ProjectedSoA`]): each tile first gathers its (depth-sorted)
//! splats into a compact contiguous working set — the software analog of
//! staging a tile's Gaussians in shared memory — and then **streams that
//! working set through the tile's 4×4 subtiles** (paper Sec. 5.1,
//! [`SUBTILE_SIZE`] / [`SUBTILES_PER_TILE`]). A subtile keeps its 16 pixels
//! as 16 *lanes* of blend state in fixed arrays; the loop is splat-outer:
//!
//! 1. a splat whose conservative [`CutBox`] (the axis-aligned extent of
//!    `{d : dᵀ·conic·d ≤ q_cut}`, computed once per gathered splat) misses
//!    the subtile is rejected with four compares (the survivors are
//!    compacted branch-free before the blend walks them);
//! 2. for a survivor, the quadratic form `q` is evaluated for all 16 lanes
//!    in the scalar path's exact operation order (straight-line array code
//!    the compiler vectorises) and reduced to a lane mask
//!    `0 ≤ q ≤ q_cut ∧ alive`;
//! 3. the scalar `exp → α → ALPHA_MIN test → blend → termination` program
//!    runs on the set bits only.
//!
//! Every pixel therefore executes the floating-point program of
//! [`fragment_alpha_fast`] on its front-to-back fragment sequence, exactly
//! as a pixel-outer walk would — the output is bit-identical to the serial
//! AoS oracle (`reference::render_aos`, still pixel-outer) — while the
//! per-fragment data-dependent branch and the scalar quadratic forms are
//! gone.
//!
//! The fused instantiation ([`crate::FrameArena::render_fused`])
//! additionally records, per pixel, the exact fragment sequence the blend
//! produced (alpha, Gaussian weight, incoming transmittance), which is
//! precisely the bookkeeping the backward pass otherwise has to reconstruct
//! by re-walking the sorted splat list — so forward and backward share one
//! tile traversal.

use crate::camera::{DepthImage, Image, PinholeCamera};
use crate::project::{ProjectedSoA, Projection};
use crate::tiles::{TileAssignment, SUBTILES_PER_TILE, SUBTILE_SIZE, TILE_SIZE};
use rtgs_math::{Sym2, Vec2, Vec3};
use rtgs_runtime::{Backend, ScratchPool, SharedSlice};

/// Tiles per chunk in the parallel forward render (fixed by the algorithm,
/// not the worker count).
pub(crate) const RENDER_CHUNK: usize = 4;

/// Lanes of the blend kernel: the pixels of one subtile.
const LANES: usize = SUBTILE_SIZE * SUBTILE_SIZE;
/// Subtiles along one tile edge.
const SUBTILES_X: usize = TILE_SIZE / SUBTILE_SIZE;

/// Transmittance threshold below which a ray terminates early (full
/// occlusion for everything behind), matching the reference rasterizer.
pub const TERMINATION_THRESHOLD: f32 = 1e-4;

/// Minimum alpha for a fragment to contribute (1/255 in the reference
/// implementation).
pub const ALPHA_MIN: f32 = 1.0 / 255.0;

/// Maximum alpha per fragment; keeps `1 - α` bounded away from zero so the
/// backward transmittance recursion stays finite.
pub const ALPHA_MAX: f32 = 0.99;

/// Aggregate counters from one forward pass, consumed by the hardware
/// workload model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RenderStats {
    /// Tile-list positions consumed, summed over pixels: per pixel, the
    /// terminating fragment's position in the tile's depth-sorted list + 1,
    /// or the list length when the ray never terminates. This is the
    /// fragment count a pixel-outer walk inspects before termination; the
    /// subtile cull skips work, never positions, so the value does not
    /// depend on what it rejected.
    pub fragments_processed: u64,
    /// Fragments that passed the `ALPHA_MIN` test and were blended.
    pub fragments_blended: u64,
    /// Pixels whose ray terminated early (T below threshold).
    pub early_terminated_pixels: u64,
}

/// Result of a forward render.
#[derive(Debug, Clone)]
pub struct RenderOutput {
    /// Blended RGB image, `C_P` of Eq. 3.
    pub image: Image,
    /// Alpha-blended depth map (`Σ T α d` per pixel).
    pub depth: DepthImage,
    /// Final transmittance per pixel (row-major).
    pub final_transmittance: Vec<f32>,
    /// Fragments *processed* per pixel (row-major) — tile-list positions
    /// consumed, as defined at [`RenderStats::fragments_processed`]: the
    /// per-pixel workload of the paper's Fig. 6 and the input to the WSU
    /// scheduling model.
    pub pixel_workloads: Vec<u32>,
    /// Aggregate counters.
    pub stats: RenderStats,
}

impl RenderOutput {
    /// Accumulated alpha (opacity coverage) at a pixel: `1 - T_final`.
    pub fn coverage(&self, x: usize, y: usize) -> f32 {
        1.0 - self.final_transmittance[y * self.image.width() + x]
    }

    /// A zero-sized output shell for arena storage; [`render_into`] resizes
    /// every buffer to the camera before writing.
    pub(crate) fn empty() -> Self {
        Self {
            image: Image::new(0, 0),
            depth: DepthImage::new(0, 0),
            final_transmittance: Vec::new(),
            pixel_workloads: Vec::new(),
            stats: RenderStats::default(),
        }
    }
}

/// One fragment the forward blend produced at one pixel, cached for the
/// fused backward pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedFragment {
    /// Position of the splat in the tile's depth-sorted list (indexes both
    /// the tile's gathered working set and the backward tile partial).
    pub list_pos: u32,
    /// Blended alpha (Eq. 2, clamped to [`ALPHA_MAX`]).
    pub alpha: f32,
    /// Gaussian weight `G = exp(-q/2)` (pre-opacity), needed by Eq. 4.
    pub weight: f32,
    /// Transmittance *before* this fragment was blended.
    pub t_before: f32,
}

/// Per-tile fragment records from one fused forward pass.
#[derive(Debug, Clone, Default)]
pub struct TileFragments {
    /// Blended fragments of the whole tile, pixel-major in the
    /// **subtile-major** pixel order of [`Self::pixel_index`] (the order the
    /// subtile-streamed blend emits them), front-to-back within each pixel.
    pub frags: Vec<CachedFragment>,
    /// Per-pixel exclusive offsets into [`Self::frags`], indexed by
    /// [`Self::pixel_index`]; length is `TILE_SIZE² + 1` — pixels of the
    /// tile square that fall outside the image own empty ranges. Empty when
    /// the tile had no splats.
    pub offsets: Vec<u32>,
}

impl TileFragments {
    /// Index of the pixel at offset `(dx, dy)` inside its tile:
    /// `subtile · 16 + lane`, subtiles row-major within the tile and lanes
    /// row-major within the subtile.
    #[inline]
    pub fn pixel_index(dx: usize, dy: usize) -> usize {
        let subtile = (dy / SUBTILE_SIZE) * SUBTILES_X + dx / SUBTILE_SIZE;
        subtile * LANES + (dy % SUBTILE_SIZE) * SUBTILE_SIZE + dx % SUBTILE_SIZE
    }

    /// The fragments of pixel `pi` (a [`Self::pixel_index`]).
    #[inline]
    pub fn pixel_fragments(&self, pi: usize) -> &[CachedFragment] {
        if self.offsets.is_empty() {
            return &[];
        }
        let start = self.offsets[pi] as usize;
        let end = self.offsets[pi + 1] as usize;
        &self.frags[start..end]
    }
}

/// The transmittance bookkeeping a fused forward pass hands to the backward
/// pass: per tile, the exact fragment sequence every pixel blended.
#[derive(Debug, Clone, Default)]
pub struct FragmentCache {
    /// One record set per tile (row-major tile grid).
    pub tiles: Vec<TileFragments>,
}

impl FragmentCache {
    /// Total cached fragments (equals the forward pass's
    /// [`RenderStats::fragments_blended`]).
    pub fn total_fragments(&self) -> u64 {
        self.tiles.iter().map(|t| t.frags.len() as u64).sum()
    }
}

/// Center of pixel `(x, y)` in continuous pixel coordinates.
#[inline]
pub(crate) fn pixel_center(x: usize, y: usize) -> Vec2 {
    Vec2::new(x as f32 + 0.5, y as f32 + 0.5)
}

/// Evaluates the alpha of a splat (given its 2D mean, conic and activated
/// opacity) at pixel position `p` (Eq. 2), returning `(alpha_clamped,
/// gaussian_weight)`. The weight `G = exp(-q/2)` is returned separately
/// because backpropagation needs it.
#[inline]
pub(crate) fn fragment_alpha(mean: Vec2, conic: &Sym2, opacity: f32, p: Vec2) -> (f32, f32) {
    let d = p - mean;
    let q = conic.quadratic_form(d);
    if q < 0.0 {
        // Numerically indefinite conic; treat as no contribution.
        return (0.0, 0.0);
    }
    let g = (-0.5 * q).exp();
    ((opacity * g).min(ALPHA_MAX), g)
}

/// Safety margin added to the per-splat quadratic-form cutoff. An exact
/// real-valued cutoff sits where `opacity·exp(-q/2) == ALPHA_MIN`; fragments
/// beyond `q_cut = cutoff + margin` have an exact alpha at least a factor
/// `exp(margin/2) − 1 ≈ 5·10⁻⁴` below `ALPHA_MIN`, which dominates the few
/// ULP of f32 rounding in `ln`/`exp` — so skipping them can never disagree
/// with the exact `alpha < ALPHA_MIN` test.
const Q_CUT_MARGIN: f32 = 1e-3;

/// The conservative quadratic-form cutoff of a splat with the given
/// activated opacity (see [`Q_CUT_MARGIN`]). Depends only on the opacity,
/// so the projection scatter computes it once per visible splat.
#[inline]
pub(crate) fn splat_q_cut(opacity: f32) -> f32 {
    2.0 * (opacity / ALPHA_MIN).ln() + Q_CUT_MARGIN
}

/// The hot-loop working set of one splat, gathered per tile from the SoA
/// arrays so the subtile stream (and the backward re-walk) reads a compact
/// sequential buffer (no cold fields, no indirection).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TileSplat {
    /// 2D mean in pixel coordinates.
    pub mean: Vec2,
    /// Conic (inverse 2D covariance).
    pub conic: Sym2,
    /// Activated opacity.
    pub opacity: f32,
    /// RGB color.
    pub color: Vec3,
    /// Camera-frame depth.
    pub depth: f32,
    /// Conservative quadratic-form cutoff: `q > q_cut` proves
    /// `alpha < ALPHA_MIN` without evaluating the exponential.
    pub q_cut: f32,
}

/// Gathers a tile's depth-sorted splat list from the SoA arrays into a
/// reusable contiguous working set (cleared first).
pub(crate) fn gather_tile(soa: &ProjectedSoA, list: &[u32], out: &mut Vec<TileSplat>) {
    out.clear();
    out.reserve(list.len());
    for &slot in list {
        let s = slot as usize;
        out.push(TileSplat {
            mean: soa.means[s],
            conic: soa.conics[s],
            opacity: soa.opacities[s],
            color: soa.colors[s],
            depth: soa.depths[s],
            q_cut: soa.q_cuts[s],
        });
    }
}

/// [`fragment_alpha`] over a gathered [`TileSplat`], short-circuiting the
/// exponential when the quadratic form alone proves the fragment cannot
/// reach [`ALPHA_MIN`]. Returns `None` exactly when the exact test would
/// have skipped the fragment; `Some` values are bitwise-identical to
/// [`fragment_alpha`].
#[inline]
pub(crate) fn fragment_alpha_fast(s: &TileSplat, p: Vec2) -> Option<(f32, f32)> {
    let d = p - s.mean;
    let q = s.conic.quadratic_form(d);
    if q_out_of_range(q, s.q_cut) {
        return None;
    }
    alpha_of_q(s.opacity, q)
}

/// The quadratic-form short-circuit of [`fragment_alpha_fast`]. `q < 0`:
/// numerically indefinite conic — the exact path treats it as no
/// contribution. `q > q_cut`: alpha provably below [`ALPHA_MIN`].
#[inline]
fn q_out_of_range(q: f32, q_cut: f32) -> bool {
    // `|`, not `||`: no branch, so the lane loop vectorises.
    (q < 0.0) | (q > q_cut)
}

/// The tail of [`fragment_alpha_fast`] past the quadratic-form test:
/// `(alpha, weight)` of a fragment with quadratic form `q`, `None` below
/// [`ALPHA_MIN`].
#[inline]
fn alpha_of_q(opacity: f32, q: f32) -> Option<(f32, f32)> {
    let g = (-0.5 * q).exp();
    let alpha = (opacity * g).min(ALPHA_MAX);
    if alpha < ALPHA_MIN {
        return None;
    }
    Some((alpha, g))
}

/// Relative rounding bound of the f32 quadratic form against the sum of its
/// terms' magnitudes: the worst term takes two multiplies and two adds,
/// `(1 + 2⁻²⁴)⁴ − 1 ≈ 4·2⁻²⁴`; doubled for slack.
const Q_ROUNDING: f64 = 4.0 * f32::EPSILON as f64;
/// Relative and absolute (pixels) inflation of a [`CutBox`] half-extent,
/// dominating what [`Q_ROUNDING`] does not model: the rounding of
/// `p − mean`, of the box arithmetic and of the edges' cast to f32.
const CUT_BOX_REL_MARGIN: f64 = 1.001;
const CUT_BOX_ABS_MARGIN: f64 = 0.01;

/// Conservative axis-aligned bounds, in continuous pixel coordinates, of
/// the pixel centres at which a splat can pass [`fragment_alpha_fast`]:
/// the extent of the ellipse `{d : dᵀ·conic·d ≤ q_cut}` around the mean,
/// inflated so that f32 rounding in the kernel's `q` can never put a
/// passing pixel outside. A sanctioned conservative short-circuit (see
/// CONTRIBUTING "Determinism contracts"): the exact `q` / `α` tests still
/// run on every pixel inside, so only a false *negative* could change a
/// bit, and `cut_box_contains_every_passing_pixel` property-tests there is
/// none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CutBox {
    x_lo: f32,
    x_hi: f32,
    y_lo: f32,
    y_hi: f32,
}

impl CutBox {
    /// The fallback for any splat the extent argument does not cover.
    const EVERYWHERE: Self = Self {
        x_lo: f32::NEG_INFINITY,
        x_hi: f32::INFINITY,
        y_lo: f32::NEG_INFINITY,
        y_hi: f32::INFINITY,
    };
    /// A splat no pixel can pass.
    const NOWHERE: Self = Self {
        x_lo: f32::INFINITY,
        x_hi: f32::NEG_INFINITY,
        y_lo: f32::INFINITY,
        y_hi: f32::NEG_INFINITY,
    };

    /// The cut box of a gathered splat.
    ///
    /// With `Σ = conic⁻¹` the ellipse's half-extents are `sqrt(q_cut·Σxx)`
    /// and `sqrt(q_cut·Σyy)`. The kernel's f32 `q` differs from the exact
    /// form by at most `Q_ROUNDING·(xx·dx² + 2|xy·dx·dy| + yy·dy²) ≤
    /// 2·Q_ROUNDING·tr·|d|²`, and the exact form is at least
    /// `λ_min·|d|² ≥ (det/tr)·|d|²`, so a computed `q ≤ q_cut` implies an
    /// exact `q ≤ q_cut / (1 − ρ)` with `ρ = 2·Q_ROUNDING·tr²/det` — the
    /// extents are scaled by that (ρ is ~10⁻⁶ for a round splat and grows
    /// with the conic's condition number), then by the flat margins.
    /// Everything is evaluated in f64, where `det` of an f32 conic is
    /// exact to the last bit that matters. Anything the argument does not
    /// cover — a non-finite or absurdly scaled input (overflow, underflow
    /// or a NaN `q`), a conic that is not positive definite, `ρ ≥ ½`, a
    /// non-finite extent (which includes a NaN or infinite `q_cut`) —
    /// covers everything. `q_cut < 0` (opacity below [`ALPHA_MIN`]) admits
    /// no `0 ≤ q ≤ q_cut` and is dropped.
    pub(crate) fn of(s: &TileSplat) -> Self {
        let (xx, xy, yy) = (s.conic.xx as f64, s.conic.xy as f64, s.conic.yy as f64);
        let (mx, my) = (s.mean.x as f64, s.mean.y as f64);
        let tr = xx + yy;
        // Written so that a NaN anywhere fails the test.
        let sane = xx > 0.0
            && yy > 0.0
            && xy.abs() < 1e20
            && tr > 1e-20
            && tr < 1e20
            && mx.abs() < 1e4
            && my.abs() < 1e4;
        if !sane {
            return Self::EVERYWHERE;
        }
        // `q` is finite from here on, so a negative cutoff rejects it.
        if s.q_cut < 0.0 {
            return Self::NOWHERE;
        }
        let det = xx * yy - xy * xy;
        let rho = 2.0 * Q_ROUNDING * tr * tr / det;
        if !(det > 0.0 && rho < 0.5) {
            return Self::EVERYWHERE;
        }
        let scale = s.q_cut as f64 / (det * (1.0 - rho));
        let hx = (scale * yy).sqrt() * CUT_BOX_REL_MARGIN + CUT_BOX_ABS_MARGIN;
        let hy = (scale * xx).sqrt() * CUT_BOX_REL_MARGIN + CUT_BOX_ABS_MARGIN;
        if !(hx.is_finite() && hy.is_finite()) {
            return Self::EVERYWHERE;
        }
        Self {
            x_lo: (mx - hx) as f32,
            x_hi: (mx + hx) as f32,
            y_lo: (my - hy) as f32,
            y_hi: (my + hy) as f32,
        }
    }

    /// Whether the box reaches into the rectangle of pixel centres
    /// `[x_lo, x_hi] × [y_lo, y_hi]`.
    #[inline]
    fn overlaps(&self, x_lo: f32, x_hi: f32, y_lo: f32, y_hi: f32) -> bool {
        // `&`, not `&&`: the four compares are cheaper than a branch on them.
        (self.x_lo <= x_hi) & (self.x_hi >= x_lo) & (self.y_lo <= y_hi) & (self.y_hi >= y_lo)
    }
}

/// Per-chunk scratch of the tile kernels, pooled by the arena
/// ([`crate::backward::BackwardScratch`]) and shared by the forward and
/// backward passes.
#[derive(Default)]
pub(crate) struct TileScratch {
    /// The tile's gathered working set.
    pub(crate) gathered: Vec<TileSplat>,
    /// One cut box per gathered splat (forward only).
    boxes: Vec<CutBox>,
    /// List positions of the splats whose cut box reaches the current
    /// subtile (forward only).
    survivors: Vec<u32>,
    /// Per-lane staging of the current subtile's fragment records: the
    /// splat-outer blend emits them splat-major, the cache wants them
    /// pixel-major (recording forward only).
    staged: [Vec<CachedFragment>; LANES],
}

impl TileScratch {
    /// Bytes held at current capacities (for the arena's high-water mark).
    pub(crate) fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        self.gathered.capacity() * size_of::<TileSplat>()
            + self.boxes.capacity() * size_of::<CutBox>()
            + self.survivors.capacity() * size_of::<u32>()
            + self
                .staged
                .iter()
                .map(|lane| lane.capacity() * size_of::<CachedFragment>())
                .sum::<usize>()
    }
}

/// The blend state of one subtile's 16 pixels (lane = `dy·4 + dx`).
struct SubtileLanes {
    color: [Vec3; LANES],
    depth: [f32; LANES],
    /// Transmittance.
    t: [f32; LANES],
    /// Tile-list positions consumed (see [`RenderStats::fragments_processed`]).
    processed: [u32; LANES],
}

/// Streams the tile's gathered splats (`scratch.gathered`, with their
/// `scratch.boxes`) through the subtile whose top-left pixel is `(x0, y0)`
/// and whose in-image extent is `w × h` pixels (`1..=SUBTILE_SIZE` each;
/// lanes beyond it stay idle). Blended and terminated counts go to `stats`;
/// when `RECORD`, each lane's fragment sequence is appended to its
/// `scratch.staged` vector.
fn blend_subtile<const RECORD: bool>(
    scratch: &mut TileScratch,
    (x0, y0): (usize, usize),
    (w, h): (usize, usize),
    stats: &mut RenderStats,
) -> SubtileLanes {
    let TileScratch {
        gathered: splats,
        boxes,
        survivors,
        staged,
    } = scratch;
    let mut lanes = SubtileLanes {
        color: [Vec3::ZERO; LANES],
        depth: [0.0; LANES],
        t: [1.0; LANES],
        processed: [0; LANES],
    };
    // Pixel-centre coordinates per column / row ([`pixel_center`]).
    let px: [f32; SUBTILE_SIZE] = std::array::from_fn(|c| (x0 + c) as f32 + 0.5);
    let py: [f32; SUBTILE_SIZE] = std::array::from_fn(|r| (y0 + r) as f32 + 0.5);
    let (cx_hi, cy_hi) = (px[w - 1], py[h - 1]);
    // Lanes whose ray is still running; out-of-image lanes never start.
    let mut alive = 0u32;
    for r in 0..h {
        alive |= ((1 << w) - 1) << (r * SUBTILE_SIZE);
    }

    // The cull: list positions whose cut box reaches this subtile's pixel
    // centres, compacted branch-free (the slot is always written, the
    // cursor advances only on a hit; `survivors` is as long as `boxes`).
    let mut reached = 0;
    for (pos, cut) in boxes.iter().enumerate() {
        survivors[reached] = pos as u32;
        reached += cut.overlaps(px[0], cx_hi, py[0], cy_hi) as usize;
    }

    for &pos in &survivors[..reached] {
        let s = &splats[pos as usize];
        // `Sym2::quadratic_form(p − mean)` for all lanes: the scalar
        // expression `xx·dx·dx + 2·xy·dx·dy + yy·dy·dy` with its products
        // and sums in the same order, the column- and row-only factors
        // hoisted (same operands, same roundings).
        let two_xy = 2.0 * s.conic.xy;
        let mut qx = [0.0f32; SUBTILE_SIZE];
        let mut qxy = [0.0f32; SUBTILE_SIZE];
        for c in 0..SUBTILE_SIZE {
            let dx = px[c] - s.mean.x;
            qx[c] = s.conic.xx * dx * dx;
            qxy[c] = two_xy * dx;
        }
        let mut q = [0.0f32; LANES];
        for r in 0..SUBTILE_SIZE {
            let dy = py[r] - s.mean.y;
            let qy = s.conic.yy * dy * dy;
            for c in 0..SUBTILE_SIZE {
                q[r * SUBTILE_SIZE + c] = qx[c] + qxy[c] * dy + qy;
            }
        }
        // Branch-free lane mask: bit `l` set when lane `l` passes the
        // quadratic-form test and its ray is still running.
        let mut bit = [0u32; LANES];
        for l in 0..LANES {
            bit[l] = if q_out_of_range(q[l], s.q_cut) {
                0
            } else {
                1 << l
            };
        }
        let mut hits = bit.iter().fold(0, |acc, b| acc | b) & alive;

        while hits != 0 {
            let l = hits.trailing_zeros() as usize;
            hits &= hits - 1;
            let Some((alpha, weight)) = alpha_of_q(s.opacity, q[l]) else {
                continue;
            };
            stats.fragments_blended += 1;
            let t = lanes.t[l];
            if RECORD {
                staged[l].push(CachedFragment {
                    list_pos: pos,
                    alpha,
                    weight,
                    t_before: t,
                });
            }
            lanes.color[l] += s.color * (t * alpha);
            lanes.depth[l] += s.depth * (t * alpha);
            let t = t * (1.0 - alpha);
            lanes.t[l] = t;
            if t < TERMINATION_THRESHOLD {
                stats.early_terminated_pixels += 1;
                lanes.processed[l] = pos + 1;
                alive &= !(1 << l);
            }
        }
        if alive == 0 {
            break;
        }
    }

    // Rays that never terminated consumed the whole list.
    while alive != 0 {
        lanes.processed[alive.trailing_zeros() as usize] = splats.len() as u32;
        alive &= alive - 1;
    }
    lanes
}

/// Step ❸: renders the projected splats into caller-owned storage; `RECORD`
/// statically selects the fused (fragment-recording) instantiation.
///
/// Iterates tiles (chunked over `backend`), then the subtiles of each tile,
/// streaming the tile's depth-sorted splat list front-to-back through
/// every subtile's 16 lanes (`blend_subtile`, see the module docs) and
/// terminating each ray when the transmittance drops below
/// [`TERMINATION_THRESHOLD`]. Tiles partition the image, so every pixel is
/// written by exactly one tile's task; per-tile statistics are integer
/// counters summed afterwards. The output is therefore bitwise-identical
/// on every backend and pool size. Recording only copies values the blend
/// already computed, so the [`RenderOutput`] of both instantiations is
/// bitwise-identical and the cached fragments are exactly what a backward
/// re-walk would reconstruct.
///
/// Every output buffer — image, depth, transmittance, workloads, per-tile
/// stats and (when recording) the per-tile fragment records — is cleared
/// and refilled in place, and per-chunk scratch (gathered splats, cut
/// boxes, lane staging) comes from `pool`, so a steady-state re-render into
/// the same storage performs **no heap allocation**. Results are
/// bitwise-identical to a render into fresh buffers.
///
/// # Panics
///
/// Panics when `RECORD` is set without a `fragments` cache.
#[allow(clippy::too_many_arguments)]
pub(crate) fn render_into<const RECORD: bool>(
    projection: &Projection,
    tiles: &TileAssignment,
    camera: &PinholeCamera,
    backend: &dyn Backend,
    pool: &ScratchPool<TileScratch>,
    out: &mut RenderOutput,
    tile_stats: &mut Vec<RenderStats>,
    fragments: Option<&mut FragmentCache>,
) {
    let soa = &projection.soa;
    let tile_count = tiles.tile_count();
    out.image.reset(camera.width, camera.height);
    out.depth.reset(camera.width, camera.height);
    out.final_transmittance.clear();
    out.final_transmittance.resize(camera.pixel_count(), 1.0);
    out.pixel_workloads.clear();
    out.pixel_workloads.resize(camera.pixel_count(), 0);
    out.stats = RenderStats::default();
    tile_stats.clear();
    tile_stats.resize(tile_count, RenderStats::default());

    // Reused per-tile fragment storage: the tile vector is resized to the
    // grid (retained tiles keep their inner capacities) and each tile's
    // records are cleared inside the kernel before refilling.
    let mut no_fragments: Vec<TileFragments> = Vec::new();
    let frag_tiles: &mut Vec<TileFragments> = match fragments {
        Some(cache) => {
            cache.tiles.resize_with(tile_count, TileFragments::default);
            &mut cache.tiles
        }
        None => {
            assert!(!RECORD, "recording pass requires a fragment cache");
            &mut no_fragments
        }
    };

    {
        let image_view = SharedSlice::new(out.image.data_mut());
        let depth_view = SharedSlice::new(out.depth.data_mut());
        let t_view = SharedSlice::new(&mut out.final_transmittance);
        let workload_view = SharedSlice::new(&mut out.pixel_workloads);
        let stats_view = SharedSlice::new(tile_stats.as_mut_slice());
        let frag_view = SharedSlice::new(frag_tiles.as_mut_slice());
        backend.for_each_chunk(tile_count, RENDER_CHUNK, &|_, range| {
            // Per-chunk scratch comes from the shared pool, so steady-state
            // chunks allocate nothing.
            let mut scratch = pool.take();
            for tile in range {
                // SAFETY (all accesses below): one fragment record set and
                // one stats slot per tile; tiles partition the image, so
                // every pixel index is written by exactly one tile's task.
                let mut tf: Option<&mut TileFragments> = if RECORD {
                    let tf = unsafe { frag_view.get_mut(tile) };
                    tf.frags.clear();
                    tf.offsets.clear();
                    Some(tf)
                } else {
                    None
                };
                let list = tiles.tile(tile);
                if list.is_empty() {
                    continue;
                }
                gather_tile(soa, list, &mut scratch.gathered);
                scratch.boxes.clear();
                scratch
                    .boxes
                    .extend(scratch.gathered.iter().map(CutBox::of));
                scratch.survivors.resize(list.len(), 0);
                let mut stats = RenderStats::default();
                let (tx, ty) = (tile % tiles.tiles_x, tile / tiles.tiles_x);
                let (x0, y0, x1, y1) = tiles.tile_pixel_rect(tx, ty, camera);
                if let Some(tf) = tf.as_deref_mut() {
                    tf.offsets.reserve(SUBTILES_PER_TILE * LANES + 1);
                    tf.offsets.push(0);
                }
                for subtile in 0..SUBTILES_PER_TILE {
                    let sx0 = x0 + (subtile % SUBTILES_X) * SUBTILE_SIZE;
                    let sy0 = y0 + (subtile / SUBTILES_X) * SUBTILE_SIZE;
                    if sx0 < x1 && sy0 < y1 {
                        let (w, h) = ((x1 - sx0).min(SUBTILE_SIZE), (y1 - sy0).min(SUBTILE_SIZE));
                        let lanes =
                            blend_subtile::<RECORD>(&mut scratch, (sx0, sy0), (w, h), &mut stats);
                        for dy in 0..h {
                            for dx in 0..w {
                                let l = dy * SUBTILE_SIZE + dx;
                                let idx = (sy0 + dy) * camera.width + sx0 + dx;
                                stats.fragments_processed += lanes.processed[l] as u64;
                                unsafe {
                                    image_view.write(idx, lanes.color[l]);
                                    depth_view.write(idx, lanes.depth[l]);
                                    t_view.write(idx, lanes.t[l]);
                                    workload_view.write(idx, lanes.processed[l]);
                                }
                            }
                        }
                    }
                    // Lane by lane, the staged records become the tile's
                    // pixel-major cache; idle and out-of-image lanes own
                    // empty ranges.
                    if let Some(tf) = tf.as_deref_mut() {
                        for lane in scratch.staged.iter_mut() {
                            tf.frags.append(lane);
                            tf.offsets.push(tf.frags.len() as u32);
                        }
                    }
                }
                unsafe { stats_view.write(tile, stats) };
            }
            pool.put(scratch);
        });
    }

    for ts in tile_stats.iter() {
        out.stats.fragments_processed += ts.fragments_processed;
        out.stats.fragments_blended += ts.fragments_blended;
        out.stats.early_terminated_pixels += ts.early_terminated_pixels;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::{Gaussian3d, GaussianScene};
    use crate::FrameArena;
    use proptest::prelude::*;
    use rtgs_math::{Quat, Se3};
    use rtgs_runtime::Serial;

    fn camera() -> PinholeCamera {
        PinholeCamera::from_fov(32, 32, 1.2)
    }

    fn render_scene(scene: &GaussianScene) -> RenderOutput {
        FrameArena::new()
            .forward(scene, &Se3::IDENTITY, &camera(), None, &Serial)
            .clone()
    }

    fn big_gaussian(z: f32, opacity: f32, color: Vec3) -> Gaussian3d {
        Gaussian3d::from_activated(
            Vec3::new(0.0, 0.0, z),
            Vec3::splat(2.0),
            Quat::IDENTITY,
            opacity,
            color,
        )
    }

    #[test]
    fn empty_scene_renders_black() {
        let out = render_scene(&GaussianScene::new());
        assert_eq!(out.image.pixel(16, 16), Vec3::ZERO);
        assert_eq!(out.final_transmittance[0], 1.0);
        assert_eq!(out.stats.fragments_processed, 0);
    }

    #[test]
    fn single_opaque_gaussian_dominates_center_pixel() {
        let scene = GaussianScene::from_gaussians(vec![big_gaussian(2.0, 0.95, Vec3::X)]);
        let out = render_scene(&scene);
        let c = out.image.pixel(16, 16);
        assert!(c.x > 0.9, "center should be strongly red, got {c}");
        assert!(c.y < 1e-3 && c.z < 1e-3);
        assert!(out.coverage(16, 16) > 0.9);
    }

    #[test]
    fn front_gaussian_occludes_back() {
        let scene = GaussianScene::from_gaussians(vec![
            big_gaussian(4.0, 0.99, Vec3::new(0.0, 1.0, 0.0)), // green behind
            big_gaussian(1.0, 0.99, Vec3::X),                  // red in front
        ]);
        let out = render_scene(&scene);
        let c = out.image.pixel(16, 16);
        assert!(
            c.x > 0.9 && c.y < 0.1,
            "front red must occlude green, got {c}"
        );
    }

    #[test]
    fn blending_order_independent_of_insertion_order() {
        let a = vec![
            big_gaussian(1.0, 0.6, Vec3::X),
            big_gaussian(3.0, 0.6, Vec3::new(0.0, 0.0, 1.0)),
        ];
        let mut b = a.clone();
        b.reverse();
        let out_a = render_scene(&GaussianScene::from_gaussians(a));
        let out_b = render_scene(&GaussianScene::from_gaussians(b));
        assert!((out_a.image.pixel(16, 16) - out_b.image.pixel(16, 16)).max_abs() < 1e-5);
    }

    #[test]
    fn depth_map_reflects_front_surface() {
        let scene = GaussianScene::from_gaussians(vec![big_gaussian(2.0, 0.99, Vec3::X)]);
        let out = render_scene(&scene);
        let d = out.depth.depth(16, 16);
        assert!((d - 2.0).abs() < 0.25, "expected depth near 2.0, got {d}");
    }

    #[test]
    fn early_termination_skips_occluded_fragments() {
        // Many opaque layers: workload per center pixel should be far less
        // than the number of Gaussians.
        let layers: Vec<_> = (0..50)
            .map(|i| big_gaussian(1.0 + i as f32 * 0.1, 0.95, Vec3::X))
            .collect();
        let n = layers.len();
        let out = render_scene(&GaussianScene::from_gaussians(layers));
        let w = out.pixel_workloads[16 * 32 + 16];
        assert!(w < n as u32 / 2, "expected early termination, workload {w}");
        assert!(out.stats.early_terminated_pixels > 0);
    }

    #[test]
    fn transparent_gaussians_accumulate() {
        let scene = GaussianScene::from_gaussians(vec![
            big_gaussian(2.0, 0.3, Vec3::X),
            big_gaussian(3.0, 0.3, Vec3::X),
        ]);
        let out = render_scene(&scene);
        let single = render_scene(&GaussianScene::from_gaussians(vec![big_gaussian(
            2.0,
            0.3,
            Vec3::X,
        )]));
        assert!(out.image.pixel(16, 16).x > single.image.pixel(16, 16).x);
    }

    #[test]
    fn workload_matches_stats_total() {
        let scene = GaussianScene::from_gaussians(vec![
            big_gaussian(2.0, 0.4, Vec3::X),
            big_gaussian(3.0, 0.4, Vec3::Y),
        ]);
        let out = render_scene(&scene);
        let total: u64 = out.pixel_workloads.iter().map(|&w| w as u64).sum();
        assert_eq!(total, out.stats.fragments_processed);
    }

    #[test]
    fn alpha_never_exceeds_max() {
        let scene = GaussianScene::from_gaussians(vec![big_gaussian(2.0, 0.9999, Vec3::X)]);
        let mut arena = FrameArena::new();
        arena.project(&scene, &Se3::IDENTITY, &camera(), None, &Serial);
        let splat = arena.projection().splat_for_gaussian(0).unwrap();
        let (alpha, _) = fragment_alpha(splat.mean, &splat.conic, splat.opacity, splat.mean);
        assert!(alpha <= ALPHA_MAX);
    }

    #[test]
    fn fused_render_matches_unfused_bitwise() {
        let scene = GaussianScene::from_gaussians(vec![
            big_gaussian(2.0, 0.5, Vec3::X),
            big_gaussian(3.0, 0.7, Vec3::Y),
        ]);
        let cam = camera();
        let mut arena = FrameArena::new();
        let plain = arena
            .forward(&scene, &Se3::IDENTITY, &cam, None, &Serial)
            .clone();
        arena.render_fused(&cam, &Serial);
        let fused = arena.output();
        assert_eq!(plain.image, fused.image);
        assert_eq!(plain.depth, fused.depth);
        assert_eq!(plain.final_transmittance, fused.final_transmittance);
        assert_eq!(plain.stats, fused.stats);
        // Every blended fragment was recorded.
        assert_eq!(
            arena.fragments().total_fragments(),
            plain.stats.fragments_blended
        );
    }

    /// A gathered splat with the given conic at `mean`; color and depth do
    /// not enter the cull.
    fn splat(mean: Vec2, conic: Sym2, opacity: f32) -> TileSplat {
        TileSplat {
            mean,
            conic,
            opacity,
            color: Vec3::X,
            depth: 1.0,
            q_cut: splat_q_cut(opacity),
        }
    }

    /// The conic of a splat with standard deviations `(major, minor)` pixels
    /// along axes rotated by `angle`.
    fn conic_of(major: f32, minor: f32, angle: f32) -> Sym2 {
        let (sin, cos) = angle.sin_cos();
        let (a, b) = (1.0 / (major * major), 1.0 / (minor * minor));
        Sym2::new(
            a * cos * cos + b * sin * sin,
            (a - b) * sin * cos,
            a * sin * sin + b * cos * cos,
        )
    }

    impl CutBox {
        fn contains(&self, p: Vec2) -> bool {
            self.overlaps(p.x, p.x, p.y, p.y)
        }
    }

    /// Every pixel centre of a 75×42 frame that passes the exact test lies
    /// inside the box. Returns the number of passing pixels.
    fn assert_box_covers_passing_pixels(s: &TileSplat) -> usize {
        let cut = CutBox::of(s);
        let mut passing = 0;
        for y in 0..42 {
            for x in 0..75 {
                let p = pixel_center(x, y);
                if fragment_alpha_fast(s, p).is_some() {
                    passing += 1;
                    assert!(cut.contains(p), "{p:?} passes outside {cut:?} of {s:?}");
                }
            }
        }
        passing
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The subtile cull is conservative: no false negative over
        /// sub-pixel to frame-filling extents, axis ratios 10⁻³…10³,
        /// opacities across `[0, 1]` (negative, tiny and large `q_cut`),
        /// near-singular and indefinite conics.
        #[test]
        fn cut_box_contains_every_passing_pixel(
            (log_major, log_ratio, angle) in (-1.5f32..3.5, -3.0f32..3.0, 0.0f32..3.2),
            (mx, my) in (-60.0f32..140.0, -50.0f32..95.0),
            (opacity_kind, opacity) in (0usize..4, 0.0f32..1.0),
            (conic_kind, nudge) in (0usize..4, -1.0f32..1.0),
        ) {
            let major = 10f32.powf(log_major);
            let mut conic = conic_of(major, major * 10f32.powf(log_ratio), angle);
            let edge = (conic.xx * conic.yy).sqrt();
            match conic_kind {
                // Near-singular: det a rounding error away from zero, on
                // either side.
                1 => conic.xy = edge * (1.0 + nudge * 1e-6),
                // Indefinite.
                2 => conic.xy = edge * (1.5 + nudge),
                _ => {}
            }
            let opacity = match opacity_kind {
                // Around the `q_cut` sign change, and just above it.
                0 => ALPHA_MIN * (1.0 + opacity * 1e-3 - 5e-4),
                1 => ALPHA_MIN * (1.0 + opacity),
                _ => opacity,
            };
            assert_box_covers_passing_pixels(&splat(Vec2::new(mx, my), conic, opacity));
        }
    }

    #[test]
    fn cut_box_of_a_round_splat_is_tight() {
        // σ = 2 px, q_cut ≈ 10.6: the ellipse reaches 6.5 px from the mean.
        let s = splat(Vec2::new(30.3, 20.7), conic_of(2.0, 2.0, 0.0), 0.8);
        assert!(assert_box_covers_passing_pixels(&s) > 100);
        let cut = CutBox::of(&s);
        assert!(cut.x_lo > 23.0 && cut.x_hi < 37.5, "{cut:?}");
        assert!(cut.y_lo > 13.5 && cut.y_hi < 28.0, "{cut:?}");
        // A needle at 45°: the box is the needle's bounding square, not its
        // length in every direction.
        let s = splat(Vec2::new(30.0, 20.0), conic_of(6.0, 0.6, 0.785), 0.8);
        assert!(assert_box_covers_passing_pixels(&s) > 20);
        let cut = CutBox::of(&s);
        assert!(cut.x_hi - cut.x_lo < 30.0, "{cut:?}");
    }

    #[test]
    fn cut_box_degenerate_det_covers_everything() {
        let mean = Vec2::new(10.0, 10.0);
        // det == 0, det < 0, and a negative-definite conic.
        for conic in [
            Sym2::new(1.0, 1.0, 1.0),
            Sym2::new(1.0, 2.0, 1.0),
            Sym2::new(-1.0, 0.0, -1.0),
        ] {
            let s = splat(mean, conic, 0.8);
            assert_eq!(CutBox::of(&s), CutBox::EVERYWHERE, "{conic:?}");
            assert_box_covers_passing_pixels(&s);
        }
        // Positive det, but so ill-conditioned that f32 rounding in `q`
        // dominates it.
        let s = splat(mean, conic_of(3000.0, 0.5, 0.7), 0.8);
        assert_eq!(CutBox::of(&s), CutBox::EVERYWHERE);
    }

    #[test]
    fn cut_box_non_finite_input_covers_everything() {
        let round = conic_of(2.0, 2.0, 0.0);
        let mean = Vec2::new(10.0, 10.0);
        let nan_conic = Sym2::new(f32::NAN, 0.0, 1.0);
        let huge_conic = Sym2::new(1e30, 0.0, 1e30);
        for s in [
            splat(mean, nan_conic, 0.8),
            splat(mean, huge_conic, 0.8),
            splat(Vec2::new(f32::INFINITY, 10.0), round, 0.8),
            splat(Vec2::new(10.0, f32::NAN), round, 0.8),
            // NaN and +∞ cutoffs.
            splat(mean, round, f32::NAN),
            splat(mean, round, f32::INFINITY),
        ] {
            assert_eq!(CutBox::of(&s), CutBox::EVERYWHERE, "{s:?}");
        }
    }

    #[test]
    fn cut_box_drops_splats_below_alpha_min() {
        let round = conic_of(2.0, 2.0, 0.0);
        let mean = Vec2::new(10.0, 10.0);
        for opacity in [0.0, 1e-4, ALPHA_MIN * 0.999] {
            let s = splat(mean, round, opacity);
            assert!(s.q_cut < 0.0);
            assert_eq!(CutBox::of(&s), CutBox::NOWHERE);
            assert_eq!(assert_box_covers_passing_pixels(&s), 0);
        }
    }

    #[test]
    fn cached_fragments_reproduce_transmittance() {
        let scene = GaussianScene::from_gaussians(vec![
            big_gaussian(2.0, 0.5, Vec3::X),
            big_gaussian(3.0, 0.7, Vec3::Y),
        ]);
        // Partial edge tiles, 3-pixel-wide and 1-row subtiles.
        let cam = PinholeCamera::from_fov(27, 21, 1.2);
        let mut arena = FrameArena::new();
        arena.project(&scene, &Se3::IDENTITY, &cam, None, &Serial);
        arena.assign_tiles(&cam, &Serial);
        arena.render_fused(&cam, &Serial);
        let tiles = arena.tiles();
        // Replaying each pixel's cached fragments must land exactly on the
        // recorded final transmittance.
        for (tile, tf) in arena.fragments().tiles.iter().enumerate() {
            if tf.offsets.is_empty() {
                continue;
            }
            let (tx, ty) = (tile % tiles.tiles_x, tile / tiles.tiles_x);
            let (x0, y0, x1, y1) = tiles.tile_pixel_rect(tx, ty, &cam);
            assert_eq!(tf.offsets.len(), TILE_SIZE * TILE_SIZE + 1);
            let mut replayed = 0;
            for y in y0..y1 {
                for x in x0..x1 {
                    let frags = tf.pixel_fragments(TileFragments::pixel_index(x - x0, y - y0));
                    replayed += frags.len();
                    let t = frags
                        .last()
                        .map(|f| f.t_before * (1.0 - f.alpha))
                        .unwrap_or(1.0);
                    assert_eq!(t, arena.output().final_transmittance[y * cam.width + x]);
                }
            }
            assert_eq!(replayed, tf.frags.len(), "out-of-image pixels own nothing");
        }
    }
}
