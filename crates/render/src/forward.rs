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
//!    `{d : dᵀ·conic·d ≤ q_cut}`, computed once per visible splat at
//!    projection time and copied into the tile's working set) misses
//!    the subtile is rejected with four compares (the survivors are
//!    compacted branch-free before the blend walks them);
//! 2. for a survivor, the quadratic form `q` is evaluated for all 16 lanes
//!    in the scalar path's exact operation order (straight-line array code
//!    the compiler vectorises) and reduced to a lane mask
//!    `0 ≤ q ≤ q_cut ∧ alive`; a splat no lane admits ends here;
//! 3. the tail runs lane-wide too: `G = exp(−q/2)`
//!    ([`rtgs_math::exp_nonpos`], the one `exp` of the workspace — pure
//!    `f32`, scalar == vector bit for bit), `α = min(o·G, ALPHA_MAX)`, the
//!    pass mask `admitted ∧ ¬(α < ALPHA_MIN)`, the blend and the
//!    termination test are straight-line code over `[f32; 16]` arrays with
//!    mask selects (`to_bits` / `from_bits`; no `std::simd`, no
//!    intrinsics). A lane outside the mask keeps its state bit for bit.
//!
//! Every pixel therefore executes the floating-point program of
//! [`fragment_alpha_fast`] on its front-to-back fragment sequence, exactly
//! as a pixel-outer walk would — the output is bit-identical to the serial
//! AoS oracle (`reference::render_aos`, still pixel-outer) — while the
//! per-fragment data-dependent branches, the libm call and the scalar
//! quadratic forms are gone.
//!
//! The fused instantiation ([`crate::FrameArena::render_fused`])
//! additionally writes out what the blend holds at that moment — the
//! software analog of the paper's **R&B Buffer**: per subtile,
//! splat-major, one [`RecordHead`] `{list position, 16-bit pass mask, first
//! row}` per splat that blended anywhere in the subtile, plus one
//! [`RecordRow`] `[α; 4], [G; 4], [T_before; 4]` per 4-pixel row of the
//! subtile with a passing lane (zeros in its other lanes), and the
//! subtile's 16 final transmittances. That is precisely the bookkeeping
//! the backward pass otherwise has to reconstruct by re-walking the sorted
//! splat list, already in the lane layout Step ❹ consumes — so forward and
//! backward share one tile traversal.

use crate::camera::{DepthImage, Image, PinholeCamera};
use crate::project::{ProjectedSoA, Projection};
use crate::tiles::{TileAssignment, SUBTILES_PER_TILE, SUBTILE_SIZE, TILE_SIZE};
use rtgs_math::{exp_nonpos, Sym2, Vec2, Vec3};
use rtgs_runtime::{Backend, ScratchPool, SharedSlice};

/// Tiles per chunk in the parallel forward render (fixed by the algorithm,
/// not the worker count). Tiles are independent and their statistics fold
/// per tile, so the value moves no bit — only how evenly the claimed chunks
/// split the frame. One tile per chunk: a 75×42 session frame is 15 tiles of
/// very unequal cost (edge tiles are partial, splats cluster), and in chunks
/// of 4 the second thread's share was whatever two of four chunks happened
/// to hold. `experiments arena --full`, 2 vCPUs, Step ❸ on the machine
/// backend against serial in the same process: ×0.62…0.69 at 4, ×0.52…0.57
/// at 1 (the whole iteration ×0.62…0.70 → ×0.55…0.61); on one thread 1 and 4
/// are indistinguishable (a chunk costs one scratch-pool take/put).
pub(crate) const RENDER_CHUNK: usize = 1;

/// Lanes of the tile kernels: the pixels of one subtile.
pub(crate) const LANES: usize = SUBTILE_SIZE * SUBTILE_SIZE;
/// Subtiles along one tile edge.
pub(crate) const SUBTILES_X: usize = TILE_SIZE / SUBTILE_SIZE;

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

/// One (subtile, splat) record of a fused forward pass: the splat blended
/// at the pixels in [`Self::mask`]; the values are in the record's rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHead {
    /// Position of the splat in the tile's depth-sorted list (indexes both
    /// the tile's gathered working set and the backward tile partial).
    pub list_pos: u32,
    /// Index into [`TileFragments::rows`] of the record's first row; one row
    /// follows per 4-lane row of the subtile with a bit in [`Self::mask`],
    /// top to bottom.
    pub first_row: u32,
    /// The lanes (bit `dy·4 + dx`) at which the splat was blended. Never
    /// zero.
    pub mask: u16,
}

impl RecordHead {
    /// The four mask bits of subtile row `r`.
    #[inline]
    pub fn row_mask(&self, r: usize) -> u32 {
        (self.mask as u32 >> (r * SUBTILE_SIZE)) & ((1 << SUBTILE_SIZE) - 1)
    }
}

/// What the blend held for one 4-pixel row of a subtile when it blended one
/// splat; lanes outside the record's mask hold zeros.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RecordRow {
    /// Blended alpha (Eq. 2, clamped to [`ALPHA_MAX`]).
    pub alpha: [f32; SUBTILE_SIZE],
    /// Gaussian weight `G = exp(-q/2)` (pre-opacity), needed by Eq. 4.
    pub weight: [f32; SUBTILE_SIZE],
    /// Transmittance *before* the splat was blended.
    pub t_before: [f32; SUBTILE_SIZE],
}

/// Per-tile R&B records from one fused forward pass.
#[derive(Debug, Clone, Default)]
pub struct TileFragments {
    /// The records of the whole tile: subtile-major (subtiles row-major
    /// within the tile), front-to-back within a subtile — the order the
    /// subtile-streamed blend emits them.
    pub heads: Vec<RecordHead>,
    /// The rows of [`Self::heads`], in the same order.
    pub rows: Vec<RecordRow>,
    /// Per-subtile exclusive offsets into [`Self::heads`]; a subtile outside
    /// the image, and every subtile of a tile without splats, owns an empty
    /// range.
    pub subtile_heads: [u32; SUBTILES_PER_TILE + 1],
    /// Final transmittance of every lane of every subtile (`1.0` where
    /// nothing blended).
    pub final_t: [[f32; LANES]; SUBTILES_PER_TILE],
}

impl TileFragments {
    /// Index of the pixel at offset `(dx, dy)` inside its tile:
    /// `subtile · 16 + lane`, subtiles row-major within the tile and lanes
    /// row-major within the subtile. Ascending `pixel_index` is the order in
    /// which Step ❹ sums a Gaussian's per-pixel gradient contributions, on
    /// every path.
    #[inline]
    pub fn pixel_index(dx: usize, dy: usize) -> usize {
        let subtile = (dy / SUBTILE_SIZE) * SUBTILES_X + dx / SUBTILE_SIZE;
        subtile * LANES + (dy % SUBTILE_SIZE) * SUBTILE_SIZE + dx % SUBTILE_SIZE
    }

    /// The records of one subtile, front to back.
    #[inline]
    pub fn subtile(&self, subtile: usize) -> &[RecordHead] {
        let start = self.subtile_heads[subtile] as usize;
        let end = self.subtile_heads[subtile + 1] as usize;
        &self.heads[start..end]
    }

    /// Empties the records, keeping the vectors' capacities.
    fn reset(&mut self) {
        self.heads.clear();
        self.rows.clear();
        self.subtile_heads = [0; SUBTILES_PER_TILE + 1];
    }
}

/// The in-image pixels `(x, y)` of the tile rectangle `[x0, x1) × [y0, y1)`
/// in ascending [`TileFragments::pixel_index`] order — the pixel visit
/// order of the scalar Step-❹ oracles.
pub(crate) fn tile_pixels(
    (x0, y0, x1, y1): (usize, usize, usize, usize),
) -> impl Iterator<Item = (usize, usize)> {
    let origins = |from: usize, to: usize| (from..to).step_by(SUBTILE_SIZE);
    let subtiles = origins(y0, y1).flat_map(move |sy| origins(x0, x1).map(move |sx| (sx, sy)));
    subtiles.flat_map(move |(sx, sy)| {
        let (ex, ey) = ((sx + SUBTILE_SIZE).min(x1), (sy + SUBTILE_SIZE).min(y1));
        (sy..ey).flat_map(move |y| (sx..ex).map(move |x| (x, y)))
    })
}

/// The transmittance bookkeeping a fused forward pass hands to the backward
/// pass: per tile, the R&B records of every subtile.
///
/// The tile slots are kept at the largest grid ever rendered: a session
/// that alternates between resolutions (downsampled tracking, SLO shedding)
/// gets each slot's record capacity back when the grid grows again.
#[derive(Debug, Clone, Default)]
pub struct FragmentCache {
    /// One record set per tile slot; the first `live` describe the last
    /// fused pass.
    slots: Vec<TileFragments>,
    live: usize,
}

impl FragmentCache {
    /// One record set per tile of the last fused pass (row-major tile
    /// grid); empty when there is none.
    #[inline]
    pub fn tiles(&self) -> &[TileFragments] {
        &self.slots[..self.live]
    }

    /// Total cached fragments (equals the forward pass's
    /// [`RenderStats::fragments_blended`]).
    pub fn total_fragments(&self) -> u64 {
        let heads = self.tiles().iter().flat_map(|t| &t.heads);
        heads.map(|h| h.mask.count_ones() as u64).sum()
    }

    /// Forgets the last fused pass (its records no longer describe the
    /// arena's output); capacities stay.
    pub(crate) fn invalidate(&mut self) {
        self.live = 0;
    }

    /// The slots of a `tile_count`-tile pass, for the kernel to refill.
    fn begin(&mut self, tile_count: usize) -> &mut [TileFragments] {
        if self.slots.len() < tile_count {
            self.slots.resize_with(tile_count, TileFragments::default);
        }
        self.live = tile_count;
        &mut self.slots[..tile_count]
    }

    /// Bytes held at current capacities, idle slots included (for the
    /// arena's high-water mark).
    pub(crate) fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        let slot = |t: &TileFragments| {
            size_of::<TileFragments>()
                + t.heads.capacity() * size_of::<RecordHead>()
                + t.rows.capacity() * size_of::<RecordRow>()
        };
        self.slots.iter().map(slot).sum()
    }
}

/// Center of pixel `(x, y)` in continuous pixel coordinates.
#[inline]
pub(crate) fn pixel_center(x: usize, y: usize) -> Vec2 {
    Vec2::new(x as f32 + 0.5, y as f32 + 0.5)
}

/// The Gaussian weight `G = exp(−q/2)` of a fragment with quadratic form
/// `q ≥ 0` — the one place a fragment's weight is computed, for every
/// kernel and both oracles.
#[inline]
pub(crate) fn gaussian_weight(q: f32) -> f32 {
    exp_nonpos(-0.5 * q)
}

/// Eq. 2's alpha `o·G`, capped at [`ALPHA_MAX`]. `f32::min` spelled as the
/// compare-select a lane loop vectorises to; like `min`, it turns a NaN
/// product into the cap.
#[inline]
pub(crate) fn capped_alpha(opacity: f32, weight: f32) -> f32 {
    let alpha = opacity * weight;
    if alpha < ALPHA_MAX {
        alpha
    } else {
        ALPHA_MAX
    }
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
    let g = gaussian_weight(q);
    (capped_alpha(opacity, g), g)
}

/// Safety margin added to the per-splat quadratic-form cutoff. An exact
/// real-valued cutoff sits where `opacity·exp(-q/2) == ALPHA_MIN`; fragments
/// beyond `q_cut = cutoff + margin` have an exact alpha at least a factor
/// `exp(margin/2) − 1 ≈ 5·10⁻⁴` below `ALPHA_MIN`. Against that stand
/// [`rtgs_math::exp_nonpos`]'s error (under 1 ulp measured, 2 ulp
/// asserted: `2.4·10⁻⁷` relative; `−q/2` itself is exact), the rounding of
/// `o·G` (`6·10⁻⁸`), and the few ulp of `ln` and of the two operations
/// around it in [`splat_q_cut`] (an absolute `~2·10⁻⁶` on a cutoff of at
/// most 11.1, i.e. `10⁻⁶` relative on `G`) — more than two orders of
/// magnitude inside the margin, so skipping such a fragment can never
/// disagree with the exact `alpha < ALPHA_MIN` test
/// (`q_cut_skip_agrees_with_the_exact_alpha_test` property-tests it).
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
    let g = gaussian_weight(q);
    let alpha = capped_alpha(opacity, g);
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
    pub(crate) const NOWHERE: Self = Self {
        x_lo: f32::INFINITY,
        x_hi: f32::NEG_INFINITY,
        y_lo: f32::INFINITY,
        y_hi: f32::NEG_INFINITY,
    };

    /// The cut box of a splat, from its hot fields `(mean, conic, q_cut)` —
    /// computed once per visible splat by the projection scatter
    /// (`ProjectedSoA::cut_boxes`).
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
}

impl TileScratch {
    /// Bytes held at current capacities (for the arena's high-water mark).
    pub(crate) fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        self.gathered.capacity() * size_of::<TileSplat>()
            + self.boxes.capacity() * size_of::<CutBox>()
            + self.survivors.capacity() * size_of::<u32>()
    }
}

/// A lane mask: all ones when `on`, zero otherwise.
#[inline(always)]
pub(crate) fn lane_mask(on: bool) -> u32 {
    (on as u32).wrapping_neg()
}

/// `if mask { a } else { b }` for a [`lane_mask`], as the bit operations a
/// lane loop vectorises to. Exact: the chosen operand's bits pass through.
#[inline(always)]
pub(crate) fn select(mask: u32, a: f32, b: f32) -> f32 {
    f32::from_bits((a.to_bits() & mask) | (b.to_bits() & !mask))
}

/// Whether any lane's [`lane_mask`] is on.
#[inline(always)]
pub(crate) fn any_lane(masks: &[u32; LANES]) -> bool {
    masks.iter().fold(0, |any, m| any | m) != 0
}

/// Bit `l` set for every lane `l` whose [`lane_mask`] is on.
#[inline(always)]
pub(crate) fn lane_bits(masks: &[u32; LANES]) -> u32 {
    let mut bits = 0;
    for (l, m) in masks.iter().enumerate() {
        bits |= m & (1 << l);
    }
    bits
}

/// Pixel-centre coordinates ([`pixel_center`]) of the four columns / rows
/// starting at pixel `origin`.
#[inline]
pub(crate) fn pixel_centers(origin: usize) -> [f32; SUBTILE_SIZE] {
    std::array::from_fn(|i| (origin + i) as f32 + 0.5)
}

/// The blend state of one subtile's 16 pixels (lane = `dy·4 + dx`).
struct SubtileLanes {
    /// Blended color, one array per channel.
    color: [[f32; LANES]; 3],
    depth: [f32; LANES],
    /// Transmittance.
    t: [f32; LANES],
    /// Tile-list positions consumed (see [`RenderStats::fragments_processed`]).
    processed: [u32; LANES],
    /// [`lane_mask`] of the lanes whose ray is still running.
    alive: [u32; LANES],
}

/// Pixel-centre coordinates ([`pixel_center`]) of a subtile's 16 lanes.
struct LaneCenters {
    x: [f32; LANES],
    y: [f32; LANES],
}

impl LaneCenters {
    /// The lanes of the subtile whose top-left pixel is `(x0, y0)`.
    fn of(x0: usize, y0: usize) -> Self {
        let (px, py) = (pixel_centers(x0), pixel_centers(y0));
        Self {
            x: std::array::from_fn(|l| px[l % SUBTILE_SIZE]),
            y: std::array::from_fn(|l| py[l / SUBTILE_SIZE]),
        }
    }
}

/// Streams the tile's gathered splats (`scratch.gathered`, with their
/// `scratch.boxes`) through subtile `subtile` of the tile, whose lanes sit at
/// `centers` and whose in-image extent is `w × h` pixels
/// (`1..=SUBTILE_SIZE` each; lanes beyond it stay idle). Blended and
/// terminated counts go to `stats`; when `RECORD`, the subtile's R&B
/// records and final transmittances are written to `records`.
///
/// Kept out of line so that `centers` reaches the kernel as data: inlined,
/// the compiler re-derives the lane coordinates from the tile origin and
/// rebuilds the quadratic form row by column, which costs more in shuffles
/// than it saves in multiplies (the forward pass is 5 % slower for it).
#[inline(never)]
#[allow(clippy::needless_range_loop)] // lane loops index parallel arrays
fn blend_subtile<const RECORD: bool>(
    scratch: &mut TileScratch,
    records: &mut TileFragments,
    subtile: usize,
    centers: &LaneCenters,
    (w, h): (usize, usize),
    stats: &mut RenderStats,
) -> SubtileLanes {
    let TileScratch {
        gathered: splats,
        boxes,
        survivors,
    } = scratch;
    let mut lanes = SubtileLanes {
        color: [[0.0; LANES]; 3],
        depth: [0.0; LANES],
        t: [1.0; LANES],
        processed: [0; LANES],
        // Out-of-image lanes never start.
        alive: std::array::from_fn(|l| lane_mask(l % SUBTILE_SIZE < w && l / SUBTILE_SIZE < h)),
    };
    // The in-image lanes' extent in pixel-centre coordinates.
    let (cx_lo, cy_lo) = (centers.x[0], centers.y[0]);
    let (cx_hi, cy_hi) = (centers.x[w - 1], centers.y[(h - 1) * SUBTILE_SIZE]);

    // The cull: list positions whose cut box reaches this subtile's pixel
    // centres, compacted branch-free (the slot is always written, the
    // cursor advances only on a hit; `survivors` is as long as `boxes`).
    let mut reached = 0;
    for (pos, cut) in boxes.iter().enumerate() {
        survivors[reached] = pos as u32;
        reached += cut.overlaps(cx_lo, cx_hi, cy_lo, cy_hi) as usize;
    }
    if RECORD {
        // Worst case: every survivor blends in every row.
        records.heads.reserve(reached);
        records.rows.reserve(reached * SUBTILE_SIZE);
    }

    for &pos in &survivors[..reached] {
        let s = &splats[pos as usize];
        // `Sym2::quadratic_form(p − mean)` for all lanes, as the scalar
        // path spells it.
        let mut q = [0.0f32; LANES];
        for l in 0..LANES {
            let d = Vec2::new(centers.x[l] - s.mean.x, centers.y[l] - s.mean.y);
            q[l] = s.conic.quadratic_form(d);
        }
        // Lanes that pass the quadratic-form test and whose ray is still
        // running.
        let mut admitted = [0u32; LANES];
        for l in 0..LANES {
            admitted[l] = lane_mask(!q_out_of_range(q[l], s.q_cut)) & lanes.alive[l];
        }
        if !any_lane(&admitted) {
            continue;
        }

        // [`alpha_of_q`] for all lanes. A lane outside `admitted` evaluates
        // `q = 0` instead of its own, which can be far enough out for the
        // weight to underflow (subnormal arithmetic is an order of
        // magnitude slower, and such a lane's result is discarded).
        let mut weight = [0.0f32; LANES];
        let mut alpha = [0.0f32; LANES];
        let mut pass = [0u32; LANES];
        for l in 0..LANES {
            weight[l] = gaussian_weight(select(admitted[l], q[l], 0.0));
            alpha[l] = capped_alpha(s.opacity, weight[l]);
            pass[l] = admitted[l] & !lane_mask(alpha[l] < ALPHA_MIN);
        }
        let pass_bits = lane_bits(&pass);
        if pass_bits == 0 {
            continue;
        }
        stats.fragments_blended += pass_bits.count_ones() as u64;

        // The blend, the transmittance update and the termination test of
        // the scalar path. Outside `pass` the alpha is zeroed first, which
        // makes the lane's update the identity bit for bit: its color and
        // depth terms are replaced by `+0.0` (an accumulator that starts at
        // `+0.0` is never `−0.0` — a sum is `−0.0` only when both operands
        // are — so adding `+0.0` returns it unchanged), and `t·(1 − 0)` is
        // `t`.
        let t_before = lanes.t;
        let mut done = [0u32; LANES];
        for l in 0..LANES {
            alpha[l] = select(pass[l], alpha[l], 0.0);
            let t = t_before[l];
            let contribution = t * alpha[l];
            for (channel, c) in lanes
                .color
                .iter_mut()
                .zip([s.color.x, s.color.y, s.color.z])
            {
                channel[l] += select(pass[l], c * contribution, 0.0);
            }
            lanes.depth[l] += select(pass[l], s.depth * contribution, 0.0);
            let t_after = t * (1.0 - alpha[l]);
            lanes.t[l] = t_after;
            done[l] = pass[l] & lane_mask(t_after < TERMINATION_THRESHOLD);
        }
        // Few splats end a ray: the bookkeeping of those that do stays off
        // the common path.
        let terminated = any_lane(&done);
        if terminated {
            stats.early_terminated_pixels += lane_bits(&done).count_ones() as u64;
            for l in 0..LANES {
                lanes.processed[l] = (done[l] & (pos + 1)) | (!done[l] & lanes.processed[l]);
                lanes.alive[l] &= !done[l];
            }
        }

        if RECORD {
            let head = RecordHead {
                list_pos: pos,
                first_row: records.rows.len() as u32,
                mask: pass_bits as u16,
            };
            for r in (0..SUBTILE_SIZE).filter(|&r| head.row_mask(r) != 0) {
                let lanes = r * SUBTILE_SIZE..(r + 1) * SUBTILE_SIZE;
                let zero_idle = |values: &[f32; LANES]| -> [f32; SUBTILE_SIZE] {
                    std::array::from_fn(|c| {
                        let l = lanes.start + c;
                        select(pass[l], values[l], 0.0)
                    })
                };
                records.rows.push(RecordRow {
                    alpha: zero_idle(&alpha),
                    weight: zero_idle(&weight),
                    t_before: zero_idle(&t_before),
                });
            }
            records.heads.push(head);
        }
        if terminated && !any_lane(&lanes.alive) {
            break;
        }
    }

    // Rays that never terminated consumed the whole list.
    for l in 0..LANES {
        lanes.processed[l] |= lanes.alive[l] & splats.len() as u32;
    }
    if RECORD {
        records.final_t[subtile] = lanes.t;
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
/// stats and (when recording) the per-tile R&B records — is cleared and
/// refilled in place, and per-chunk scratch (gathered splats, cut boxes,
/// survivor list) comes from `pool`, so a steady-state re-render into the
/// same storage performs **no heap allocation**. Results are
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

    // Reused per-tile record storage: each tile's records are reset inside
    // the kernel before refilling.
    let frag_tiles: &mut [TileFragments] = match fragments {
        Some(cache) => cache.begin(tile_count),
        None => {
            assert!(!RECORD, "recording pass requires a fragment cache");
            &mut []
        }
    };

    {
        let image_view = SharedSlice::new(out.image.data_mut());
        let depth_view = SharedSlice::new(out.depth.data_mut());
        let t_view = SharedSlice::new(&mut out.final_transmittance);
        let workload_view = SharedSlice::new(&mut out.pixel_workloads);
        let stats_view = SharedSlice::new(tile_stats.as_mut_slice());
        let frag_view = SharedSlice::new(frag_tiles);
        backend.for_each_chunk(tile_count, RENDER_CHUNK, &|_, range| {
            // Per-chunk scratch comes from the shared pool, so steady-state
            // chunks allocate nothing.
            let mut scratch = pool.take();
            // Stands in for the tile's record set in the pass that records
            // nothing.
            let mut unrecorded = TileFragments::default();
            for tile in range {
                // SAFETY (all accesses below): one record set and one stats
                // slot per tile; tiles partition the image, so every pixel
                // index is written by exactly one tile's task.
                let records = if RECORD {
                    let records = unsafe { frag_view.get_mut(tile) };
                    records.reset();
                    records
                } else {
                    &mut unrecorded
                };
                let list = tiles.tile(tile);
                if list.is_empty() {
                    continue;
                }
                gather_tile(soa, list, &mut scratch.gathered);
                scratch.boxes.clear();
                scratch
                    .boxes
                    .extend(list.iter().map(|&slot| soa.cut_boxes[slot as usize]));
                scratch.survivors.resize(list.len(), 0);
                let mut stats = RenderStats::default();
                let (tx, ty) = (tile % tiles.tiles_x, tile / tiles.tiles_x);
                let (x0, y0, x1, y1) = tiles.tile_pixel_rect(tx, ty, camera);
                for subtile in 0..SUBTILES_PER_TILE {
                    let sx0 = x0 + (subtile % SUBTILES_X) * SUBTILE_SIZE;
                    let sy0 = y0 + (subtile / SUBTILES_X) * SUBTILE_SIZE;
                    if sx0 < x1 && sy0 < y1 {
                        let (w, h) = ((x1 - sx0).min(SUBTILE_SIZE), (y1 - sy0).min(SUBTILE_SIZE));
                        let lanes = blend_subtile::<RECORD>(
                            &mut scratch,
                            records,
                            subtile,
                            &LaneCenters::of(sx0, sy0),
                            (w, h),
                            &mut stats,
                        );
                        for dy in 0..h {
                            for dx in 0..w {
                                let l = dy * SUBTILE_SIZE + dx;
                                let idx = (sy0 + dy) * camera.width + sx0 + dx;
                                let [r, g, b] = lanes.color.map(|channel| channel[l]);
                                stats.fragments_processed += lanes.processed[l] as u64;
                                unsafe {
                                    image_view.write(idx, Vec3::new(r, g, b));
                                    depth_view.write(idx, lanes.depth[l]);
                                    t_view.write(idx, lanes.t[l]);
                                    workload_view.write(idx, lanes.processed[l]);
                                }
                            }
                        }
                    }
                    if RECORD {
                        records.subtile_heads[subtile + 1] = records.heads.len() as u32;
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The `q > q_cut` skip never disagrees with the exact
        /// `α < ALPHA_MIN` test as `exp_nonpos` evaluates it: for opacities
        /// across `(0, 1]` (negative cutoffs included) and `q` from the
        /// first float past the cutoff to far beyond it, the exact path
        /// rejects the fragment too.
        #[test]
        fn q_cut_skip_agrees_with_the_exact_alpha_test(
            (opacity_kind, opacity) in (0usize..3, 0.0f32..1.0),
            (beyond_kind, beyond) in (0usize..4, 0.0f32..1.0),
        ) {
            let opacity = match opacity_kind {
                // Around the `q_cut` sign change.
                0 => ALPHA_MIN * (0.5 + opacity),
                // Up to the cap and past it.
                1 => 0.9 + 0.1 * opacity,
                _ => opacity.max(1e-6),
            };
            let q_cut = splat_q_cut(opacity);
            // The smallest non-negative `q` the skip applies to.
            let first = f32::from_bits(q_cut.max(0.0).to_bits() + 1);
            let q = match beyond_kind {
                0 => first,
                1 => first + beyond * 1e-3,
                2 => first + beyond * 2.0,
                _ => first + 200.0 * beyond * beyond,
            };
            prop_assert!(q_out_of_range(q, q_cut));
            let (alpha, _) = fragment_alpha(Vec2::ZERO, &Sym2::new(q, 0.0, 0.0), opacity, Vec2::new(1.0, 0.0));
            prop_assert!(alpha < ALPHA_MIN, "opacity {opacity}, q {q} (cutoff {q_cut}): alpha {alpha}");
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
        let final_t = &arena.output().final_transmittance;
        // Replaying each lane's records front to back must reproduce every
        // recorded incoming transmittance and land exactly on the final one.
        let mut blended = 0;
        for (tile, tf) in arena.fragments().tiles().iter().enumerate() {
            let (tx, ty) = (tile % tiles.tiles_x, tile / tiles.tiles_x);
            let (x0, y0, x1, y1) = tiles.tile_pixel_rect(tx, ty, &cam);
            let mut next_row = 0;
            for subtile in 0..SUBTILES_PER_TILE {
                let sx0 = x0 + (subtile % SUBTILES_X) * SUBTILE_SIZE;
                let sy0 = y0 + (subtile / SUBTILES_X) * SUBTILE_SIZE;
                let mut t = [1.0f32; LANES];
                for head in tf.subtile(subtile) {
                    assert_ne!(head.mask, 0, "a record blends somewhere");
                    assert_eq!(head.first_row as usize, next_row, "rows are contiguous");
                    blended += head.mask.count_ones() as u64;
                    for r in (0..SUBTILE_SIZE).filter(|&r| head.row_mask(r) != 0) {
                        let row = &tf.rows[next_row];
                        next_row += 1;
                        for c in 0..SUBTILE_SIZE {
                            let l = r * SUBTILE_SIZE + c;
                            if head.mask & (1 << l) == 0 {
                                let idle = [row.alpha[c], row.weight[c], row.t_before[c]];
                                assert_eq!(idle.map(f32::to_bits), [0; 3], "idle lanes hold zeros");
                                continue;
                            }
                            assert!(
                                sx0 + c < x1 && sy0 + r < y1,
                                "out-of-image lanes own nothing"
                            );
                            assert_eq!(row.t_before[c], t[l]);
                            assert!((ALPHA_MIN..=ALPHA_MAX).contains(&row.alpha[c]));
                            t[l] *= 1.0 - row.alpha[c];
                        }
                    }
                }
                if sx0 >= x1 || sy0 >= y1 {
                    assert!(tf.subtile(subtile).is_empty());
                    continue;
                }
                for (l, t) in t.iter().enumerate() {
                    let (x, y) = (sx0 + l % SUBTILE_SIZE, sy0 + l / SUBTILE_SIZE);
                    if x < x1 && y < y1 {
                        assert_eq!(*t, tf.final_t[subtile][l]);
                        assert_eq!(*t, final_t[y * cam.width + x]);
                    }
                }
            }
            assert_eq!(next_row, tf.rows.len(), "every row belongs to a record");
        }
        assert_eq!(blended, arena.output().stats.fragments_blended);
    }
}
