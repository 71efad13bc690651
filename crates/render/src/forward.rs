//! Step ❸ Rendering: per-pixel alpha computing and alpha blending
//! (paper Eqs. 2–3) with early ray termination.
//!
//! The kernel walks the projection's splat records ([`crate::Projection`]):
//! one chunked loop over tiles first copies every tile's (depth-sorted)
//! records into a compact tile-major working set (`TileWork`) — the
//! software analog of staging a tile's Gaussians in shared memory, done
//! once per iteration for Step ❸ and Step ❹ alike —
//! and then **streams each tile's working set through its 4×4 subtiles**
//! (paper Sec. 5.1, [`SUBTILE_SIZE`] / [`SUBTILES_PER_TILE`]), one band — a
//! row of four subtiles — per unit of parallel work (subtile-level
//! streaming and workload scheduling, paper Secs. 5.1–5.2: a downsampled
//! tracking frame is only two to six tiles, but eight to 24 bands). A
//! subtile keeps its 16 pixels as 16 *lanes* of blend state in fixed
//! arrays; the loop is splat-outer:
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
//! software analog of the paper's **R&B Buffer**, one record set per (tile,
//! band) ([`FragmentCache::bands`]): per subtile,
//! splat-major, one [`RecordHead`] `{list position, 16-bit pass mask, first
//! row}` per splat that blended anywhere in the subtile, plus one
//! [`RecordRow`] `[α; 4], [G; 4], [T_before; 4]` per 4-pixel row of the
//! subtile with a passing lane (zeros in its other lanes), and the
//! subtile's 16 final transmittances. That is precisely the bookkeeping
//! the backward pass otherwise has to reconstruct by re-walking the sorted
//! splat list, already in the lane layout Step ❹ consumes — so forward and
//! backward share one tile traversal.

use crate::camera::{DepthImage, Image, PinholeCamera};
use crate::project::Projection;
use crate::tiles::{tile_pixel_rect, TileAssignment, SUBTILES_PER_TILE, SUBTILE_SIZE, TILE_SIZE};
use rtgs_math::{exp_nonpos, Sym2, Vec2, Vec3};
use rtgs_runtime::{Backend, SharedSlice};

/// Bands per tile: Step ❸'s unit of parallel work is one row of subtiles —
/// a 16×4-pixel band — of one tile, so a frame is `tile_count × BANDS`
/// units. A constant of the kernel, not a setting: a band's pixels, records
/// and statistics go to its own slots, so the value moves no bit.
pub(crate) const BANDS: usize = TILE_SIZE / SUBTILE_SIZE;

/// (tile, band) units per chunk in the parallel forward render (fixed by
/// the algorithm, not the worker count). Units are independent and their
/// statistics fold per unit, so the value moves no bit — only how evenly
/// the claimed chunks split the frame. One unit per chunk: a 75×42 session
/// frame is 15 tiles of very unequal cost (edge tiles are partial, splats
/// cluster), and RTGS's downsampled tracking frames are 6, 2 and 2 tiles
/// (factors 2, 3 and 4; at 18×10 one tile holds 16 pixel columns and the
/// other 2), so with whole tiles as the unit the second core idled through
/// most of a small frame. Two cores ÷ one per tracking trial (cull through
/// the pose-only backward, in a trial scope), in one process on a 2-vCPU
/// x86-64 host over the 979-Gaussian map of a 12-frame MonoGS
/// `replica_analog` session, the tile-unit kernel this replaced → bands:
///
/// | factor | frame | tiles | bands | two cores ÷ one |
/// |--------|-------|-------|-------|-----------------|
/// | 1      | 75×42 | 15    | 60    | ×0.56 → ×0.55   |
/// | 2      | 37×21 | 6     | 24    | ×0.70 → ×0.70   |
/// | 3      | 25×14 | 2     | 8     | ×0.71 → ×0.68   |
/// | 4      | 18×10 | 2     | 8     | ×0.91 → ×0.81   |
///
/// (`experiments arena --full` prints the same rows with Step ❸ and Step ❹
/// apart: Step ❸ reads ×0.56, ×0.65 and ×0.76 at factors 2–4; Step ❹ keeps
/// whole tiles, see `backward::BP_TILE_CHUNK`.) On one thread the four
/// times as many chunks cost nothing measurable: the serial unfused forward
/// of dataset generation reads ×0.96–1.00 of the tile-unit kernel's in the
/// same process.
pub(crate) const RENDER_CHUNK: usize = 1;

/// Lanes of the tile kernels: the pixels of one subtile.
pub(crate) const LANES: usize = SUBTILE_SIZE * SUBTILE_SIZE;
/// List positions per block of the forward kernel's subtile cull: one bit
/// each of a `u64` mask.
const CULL_BLOCK: usize = u64::BITS as usize;
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

/// Aggregate counters from one forward pass. A workload trace derives the
/// per-pixel workloads and the blended count from the fused pass's R&B
/// records ([`crate::WorkloadTrace::from_render`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RenderStats {
    /// Tile-list positions consumed, summed over pixels: per pixel, the
    /// terminating fragment's position in the tile's depth-sorted list + 1,
    /// or the list length when the ray never terminates. This is the
    /// fragment count a pixel-outer walk inspects before termination; the
    /// subtile cull skips work, never positions, so the value does not
    /// depend on what it rejected.
    pub fragments_processed: u64,
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

/// The R&B records of one band of one tile (one row of its subtiles) from
/// one fused forward pass.
#[derive(Debug, Clone, Default)]
pub struct TileFragments {
    /// The records of the band's subtiles: subtile-major, front-to-back
    /// within a subtile — the order the subtile-streamed blend emits them.
    pub heads: Vec<RecordHead>,
    /// The rows of [`Self::heads`], in the same order.
    pub rows: Vec<RecordRow>,
    /// Exclusive offsets into [`Self::heads`] for every subtile of the tile
    /// (subtiles row-major within the tile), monotone across all 16: the
    /// subtiles of the other bands own empty ranges, as does a subtile
    /// outside the image and every subtile of a tile without splats.
    pub subtile_heads: [u32; SUBTILES_PER_TILE + 1],
    /// Final transmittance of every lane of the band's subtiles, indexed by
    /// subtile within the tile (`1.0` where nothing blended; entries of the
    /// other bands' subtiles are unspecified).
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
/// pass: per (tile, band) — the unit Step ❸ renders — the R&B records of
/// the band's subtiles.
///
/// The slots are kept at the largest grid ever rendered: a session that
/// alternates between resolutions (downsampled tracking, SLO shedding) gets
/// each slot's record capacity back when the grid grows again.
#[derive(Debug, Clone, Default)]
pub struct FragmentCache {
    /// One record set per (tile, band) slot; the first `live` describe the
    /// last fused pass.
    slots: Vec<TileFragments>,
    live: usize,
}

impl FragmentCache {
    /// One record set per band of every tile of the last fused pass, indexed
    /// `tile * 4 + band` (tiles row-major, bands top to bottom); empty when
    /// there is none.
    #[inline]
    pub fn bands(&self) -> &[TileFragments] {
        &self.slots[..self.live]
    }

    /// Total cached fragments: the fragments the pass blended, one per set
    /// mask bit.
    pub fn total_fragments(&self) -> u64 {
        let heads = self.bands().iter().flat_map(|t| &t.heads);
        heads.map(|h| h.mask.count_ones() as u64).sum()
    }

    /// Forgets the last fused pass (its records no longer describe the
    /// arena's output); capacities stay.
    pub(crate) fn invalidate(&mut self) {
        self.live = 0;
    }

    /// The slots of a pass over `units` (tile, band) units, for the kernel
    /// to refill.
    fn begin(&mut self, units: usize) -> &mut [TileFragments] {
        if self.slots.len() < units {
            self.slots.resize_with(units, TileFragments::default);
        }
        self.live = units;
        &mut self.slots[..units]
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

/// The hot fields of one projected splat, as Step ❶ writes them
/// ([`Projection`]'s per-slot record) and as Step ❸ copies them per tile,
/// so the subtile stream (and the backward re-walk) reads a compact
/// sequential buffer (no cold fields, no indirection).
#[derive(Debug, Clone, Copy, PartialEq)]
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

impl TileSplat {
    /// Filler of a record buffer's not yet written entries.
    pub(crate) const UNSET: Self = Self {
        mean: Vec2::ZERO,
        conic: Sym2 {
            xx: 0.0,
            xy: 0.0,
            yy: 0.0,
        },
        opacity: 0.0,
        color: Vec3::ZERO,
        depth: 0.0,
        q_cut: 0.0,
    };
}

/// Gathers a tile's depth-sorted splat list from the projection's records
/// into a reusable contiguous working set (cleared first) — the backward
/// re-walk oracle's own gather.
pub(crate) fn gather_tile(projection: &Projection, list: &[u32], out: &mut Vec<TileSplat>) {
    out.clear();
    out.extend(list.iter().map(|&slot| projection.splats[slot as usize]));
}

/// Every tile's gathered working set of one pass — its depth-sorted splats
/// and their cut boxes — tile-major and aligned with
/// [`TileAssignment::entries`]: tile `t`'s are the entries
/// `offsets[t]..offsets[t + 1]`. Gathered once per iteration by
/// [`render_into`]; Step ❸'s bands and Step ❹'s tiles read slices of it (the
/// software analog of staging a tile's Gaussians in shared memory once for
/// both passes).
#[derive(Debug, Default)]
pub(crate) struct TileWork {
    splats: Vec<TileSplat>,
    boxes: Vec<CutBox>,
}

impl TileWork {
    /// Tile `tile`'s gathered splats, front to back.
    #[inline]
    pub(crate) fn splats(&self, tiles: &TileAssignment, tile: usize) -> &[TileSplat] {
        &self.splats[tiles.entry_range(tile)]
    }

    /// Bytes held at current capacities (for the arena's high-water mark).
    pub(crate) fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        self.splats.capacity() * size_of::<TileSplat>()
            + self.boxes.capacity() * size_of::<CutBox>()
    }
}

/// Tiles per chunk of the gather.
const GATHER_CHUNK: usize = 1;

/// Gathers every tile's working set into `work`, chunked over tiles. The
/// buffers keep their length between calls — every entry below the
/// assignment's intersection count is overwritten — so a steady-state gather
/// writes each entry once and initialises nothing.
fn gather_into(
    projection: &Projection,
    tiles: &TileAssignment,
    backend: &dyn Backend,
    work: &mut TileWork,
) {
    let total = tiles.entries.len();
    work.splats.resize(total, TileSplat::UNSET);
    work.boxes.resize(total, CutBox::NOWHERE);
    let splat_view = SharedSlice::new(&mut work.splats);
    let box_view = SharedSlice::new(&mut work.boxes);
    backend.for_each_chunk(tiles.tile_count(), GATHER_CHUNK, &|_, range| {
        for tile in range {
            let at = tiles.entry_range(tile);
            for (entry, &slot) in at.clone().zip(tiles.tile(tile)) {
                // SAFETY: tiles own disjoint entry ranges.
                unsafe {
                    splat_view.write(entry, projection.splats[slot as usize]);
                    box_view.write(entry, projection.cut_boxes[slot as usize]);
                }
            }
        }
    });
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
    /// (`Projection::cut_boxes`).
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

/// Streams the tile's gathered `splats` (with their cut `boxes`) through
/// subtile `subtile` of the tile, whose lanes sit at
/// `centers` and whose in-image extent is `w × h` pixels
/// (`1..=SUBTILE_SIZE` each; lanes beyond it stay idle). When `RECORD`, the
/// subtile's R&B records and final transmittances are written to `records`
/// (`None` in the pass that records nothing).
///
/// Kept out of line so that `centers` reaches the kernel as data: inlined,
/// the compiler re-derives the lane coordinates from the tile origin and
/// rebuilds the quadratic form row by column, which costs more in shuffles
/// than it saves in multiplies (the forward pass is 5 % slower for it).
#[inline(never)]
#[allow(clippy::needless_range_loop)] // lane loops index parallel arrays
#[allow(clippy::too_many_arguments)]
fn blend_subtile<const RECORD: bool>(
    splats: &[TileSplat],
    boxes: &[CutBox],
    records: Option<&mut TileFragments>,
    subtile: usize,
    centers: &LaneCenters,
    (w, h): (usize, usize),
) -> SubtileLanes {
    // Statically `None` in the instantiation that records nothing.
    let mut records = if RECORD { records } else { None };
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

    // The cull, a block of `CULL_BLOCK` list positions at a time: one bit
    // per splat whose cut box reaches this subtile's pixel centres, set
    // branch-free; the stream then visits the set bits in list order.
    // Blocks after a fully terminated subtile are never culled.
    'stream: for (block, cuts) in boxes.chunks(CULL_BLOCK).enumerate() {
        let mut hits = 0u64;
        for (k, cut) in cuts.iter().enumerate() {
            hits |= (cut.overlaps(cx_lo, cx_hi, cy_lo, cy_hi) as u64) << k;
        }
        if let Some(records) = records.as_deref_mut() {
            // Worst case: every survivor blends in every row.
            let reached = hits.count_ones() as usize;
            records.heads.reserve(reached);
            records.rows.reserve(reached * SUBTILE_SIZE);
        }
        while hits != 0 {
            let pos = (block * CULL_BLOCK) as u32 + hits.trailing_zeros();
            hits &= hits - 1;
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
                for l in 0..LANES {
                    lanes.processed[l] = (done[l] & (pos + 1)) | (!done[l] & lanes.processed[l]);
                    lanes.alive[l] &= !done[l];
                }
            }

            if let Some(records) = records.as_deref_mut() {
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
                break 'stream;
            }
        }
    }

    // Rays that never terminated consumed the whole list.
    for l in 0..LANES {
        lanes.processed[l] |= lanes.alive[l] & splats.len() as u32;
    }
    if let Some(records) = records {
        records.final_t[subtile] = lanes.t;
    }
    lanes
}

/// The (tile, band) unit — `tile * BANDS + band` — that chunk `chunk` of
/// Step ❸ covers: tiles in [`TileAssignment::tile_of_chunk`]'s order, a
/// tile's bands top to bottom.
#[inline]
fn unit_of_chunk(tiles: &TileAssignment, chunk: usize) -> usize {
    tiles.tile_of_chunk(chunk / BANDS) * BANDS + chunk % BANDS
}

/// Step ❸: renders the projected splats into caller-owned storage; `RECORD`
/// statically selects the fused (fragment-recording) instantiation.
///
/// First gathers every tile's depth-sorted working set into `work` (one
/// chunked loop over tiles; Step ❹ reads the same gather), then iterates
/// (tile, band) units (chunked over `backend`), streaming the tile's splats
/// front-to-back through each of the band's four subtiles' 16 lanes
/// (`blend_subtile`, see the module docs) and terminating each ray when the
/// transmittance drops below [`TERMINATION_THRESHOLD`]. Bands partition the
/// image, so every pixel is written by exactly one unit's task; per-unit
/// statistics are integer counters summed afterwards. The output is
/// therefore bitwise-identical on every backend and pool size. Recording
/// only copies values the blend already computed, so the [`RenderOutput`] of
/// both instantiations is bitwise-identical and the cached fragments are
/// exactly what a backward re-walk would reconstruct.
///
/// Every output buffer — image, depth, transmittance, per-unit stats, the
/// gathered working set and (when recording) the per-band R&B records — is
/// refilled in place and the kernel needs no other scratch, so
/// a steady-state re-render into the same storage performs **no heap
/// allocation**. Results are bitwise-identical
/// to a render into fresh buffers.
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
    work: &mut TileWork,
    out: &mut RenderOutput,
    unit_stats: &mut Vec<RenderStats>,
    fragments: Option<&mut FragmentCache>,
) {
    let units = tiles.tile_count() * BANDS;
    // Bands partition the image and each writes every one of its pixels,
    // so the per-pixel buffers are resized, not cleared.
    out.image.resize_for_overwrite(camera.width, camera.height);
    out.depth.resize_for_overwrite(camera.width, camera.height);
    out.final_transmittance.resize(camera.pixel_count(), 1.0);
    out.stats = RenderStats::default();
    unit_stats.clear();
    unit_stats.resize(units, RenderStats::default());

    // Reused per-band record storage: each slot is reset inside the kernel
    // before refilling.
    let frag_bands: &mut [TileFragments] = match fragments {
        Some(cache) => cache.begin(units),
        None => {
            assert!(!RECORD, "recording pass requires a fragment cache");
            &mut []
        }
    };

    gather_into(projection, tiles, backend, work);
    let work = &*work;
    {
        let image_view = SharedSlice::new(out.image.data_mut());
        let depth_view = SharedSlice::new(out.depth.data_mut());
        let t_view = SharedSlice::new(&mut out.final_transmittance);
        let stats_view = SharedSlice::new(unit_stats.as_mut_slice());
        let frag_view = SharedSlice::new(frag_bands);
        backend.for_each_chunk(units, RENDER_CHUNK, &|_, range| {
            for unit in range.map(|chunk| unit_of_chunk(tiles, chunk)) {
                let (tile, band) = (unit / BANDS, unit % BANDS);
                // SAFETY (all accesses below): one record set and one stats
                // slot per unit; bands partition the image, so every pixel
                // index is written by exactly one unit's task.
                let mut records = RECORD.then(|| {
                    let records = unsafe { frag_view.get_mut(unit) };
                    records.reset();
                    records
                });
                let (tx, ty) = (tile % tiles.tiles_x, tile / tiles.tiles_x);
                let (x0, y0, x1, y1) = tile_pixel_rect(tx, ty, camera);
                let sy0 = y0 + band * SUBTILE_SIZE;
                let at = tiles.entry_range(tile);
                // A band below the image, or of a tile without splats, keeps
                // its reset (empty, monotone) record set and zero stats.
                if sy0 >= y1 {
                    continue;
                }
                let h = (y1 - sy0).min(SUBTILE_SIZE);
                if at.is_empty() {
                    // Nothing blends here: the band's pixels are blank.
                    for idx in
                        (sy0..sy0 + h).flat_map(|y| y * camera.width + x0..y * camera.width + x1)
                    {
                        unsafe {
                            image_view.write(idx, Vec3::ZERO);
                            depth_view.write(idx, 0.0);
                            t_view.write(idx, 1.0);
                        }
                    }
                    continue;
                }
                let (splats, boxes) = (&work.splats[at.clone()], &work.boxes[at]);
                let mut stats = RenderStats::default();
                let first = band * SUBTILES_X;
                for subtile in first..first + SUBTILES_X {
                    let sx0 = x0 + (subtile % SUBTILES_X) * SUBTILE_SIZE;
                    if sx0 < x1 {
                        let w = (x1 - sx0).min(SUBTILE_SIZE);
                        let lanes = blend_subtile::<RECORD>(
                            splats,
                            boxes,
                            records.as_deref_mut(),
                            subtile,
                            &LaneCenters::of(sx0, sy0),
                            (w, h),
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
                                }
                            }
                        }
                    }
                    if let Some(records) = records.as_deref_mut() {
                        records.subtile_heads[subtile + 1] = records.heads.len() as u32;
                    }
                }
                if let Some(records) = records {
                    // The later bands' subtiles own empty ranges at the end.
                    let end = records.heads.len() as u32;
                    records.subtile_heads[first + SUBTILES_X + 1..].fill(end);
                }
                unsafe { stats_view.write(unit, stats) };
            }
        });
    }

    for us in unit_stats.iter() {
        out.stats.fragments_processed += us.fragments_processed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::{Gaussian3d, GaussianScene};
    use crate::reference::render_frame_aos;
    use crate::{FrameArena, ShardedScene, WorkloadTrace, DEFAULT_CELL_SIZE};
    use proptest::prelude::*;
    use rtgs_math::{Quat, Se3};
    use rtgs_runtime::Serial;

    fn camera() -> PinholeCamera {
        PinholeCamera::from_fov(32, 32, 1.2)
    }

    fn map_of(scene: &GaussianScene) -> ShardedScene {
        ShardedScene::from_scene(scene, DEFAULT_CELL_SIZE)
    }

    fn render_scene(scene: &GaussianScene) -> RenderOutput {
        FrameArena::new()
            .forward(&map_of(scene), &Se3::IDENTITY, &camera(), &Serial)
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
        let (map, cam) = (map_of(&GaussianScene::from_gaussians(layers)), camera());
        let mut arena = FrameArena::new();
        arena.forward(&map, &Se3::IDENTITY, &cam, &Serial);
        arena.render_fused(&cam, &Serial);
        let trace = WorkloadTrace::from_render(arena.output(), arena.tiles(), arena.fragments());
        let w = trace.pixel_workloads[16 * 32 + 16];
        assert!(w < n as u32 / 2, "expected early termination, workload {w}");
        let out = arena.output();
        // Without termination, every pixel consumes its tile's whole list.
        let tiles = arena.tiles();
        let whole_lists: usize = (0..tiles.tile_count())
            .map(|t| {
                let (x0, y0, x1, y1) = tile_pixel_rect(t % tiles.tiles_x, t / tiles.tiles_x, &cam);
                (x1 - x0) * (y1 - y0) * tiles.tile(t).len()
            })
            .sum();
        assert!(out.stats.fragments_processed < whole_lists as u64 / 2);
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

    /// The workloads a trace derives from the R&B records sum to the
    /// kernel's own count of the positions it consumed.
    #[test]
    fn workload_matches_stats_total() {
        let scene = GaussianScene::from_gaussians(vec![
            big_gaussian(2.0, 0.4, Vec3::X),
            big_gaussian(3.0, 0.4, Vec3::Y),
        ]);
        let (map, cam) = (map_of(&scene), camera());
        let mut arena = FrameArena::new();
        arena.forward(&map, &Se3::IDENTITY, &cam, &Serial);
        arena.render_fused(&cam, &Serial);
        let trace = WorkloadTrace::from_render(arena.output(), arena.tiles(), arena.fragments());
        assert_eq!(
            trace.total_fragments(),
            arena.output().stats.fragments_processed
        );
    }

    #[test]
    fn alpha_never_exceeds_max() {
        let scene = GaussianScene::from_gaussians(vec![big_gaussian(2.0, 0.9999, Vec3::X)]);
        let mut arena = FrameArena::new();
        arena.cull(&map_of(&scene), &Se3::IDENTITY, &camera(), None, &Serial);
        arena.project_visible(&Se3::IDENTITY, &camera(), &Serial);
        let splat = arena.projection().splats[0];
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
            .forward(&map_of(&scene), &Se3::IDENTITY, &cam, &Serial)
            .clone();
        arena.render_fused(&cam, &Serial);
        let fused = arena.output();
        assert_eq!(plain.image, fused.image);
        assert_eq!(plain.depth, fused.depth);
        assert_eq!(plain.final_transmittance, fused.final_transmittance);
        assert_eq!(plain.stats, fused.stats);
        // Every fragment the pixel-outer oracle blends was recorded.
        let (_, _, oracle) = render_frame_aos(&scene, &Se3::IDENTITY, &cam, None);
        assert_eq!(
            arena.fragments().total_fragments(),
            oracle.fragments_blended
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
        arena.cull(&map_of(&scene), &Se3::IDENTITY, &cam, None, &Serial);
        arena.project_visible(&Se3::IDENTITY, &cam, &Serial);
        arena.assign_tiles(&cam, &Serial);
        arena.render_fused(&cam, &Serial);
        let tiles = arena.tiles();
        let final_t = &arena.output().final_transmittance;
        // Replaying each lane's records front to back must reproduce every
        // recorded incoming transmittance and land exactly on the final one.
        let bands = arena.fragments().bands();
        assert_eq!(bands.len(), tiles.tile_count() * BANDS);
        let mut blended = 0;
        for (unit, tf) in bands.iter().enumerate() {
            let (tile, band) = (unit / BANDS, unit % BANDS);
            let (tx, ty) = (tile % tiles.tiles_x, tile / tiles.tiles_x);
            let (x0, y0, x1, y1) = tile_pixel_rect(tx, ty, &cam);
            let mut next_row = 0;
            assert!(
                tf.subtile_heads.windows(2).all(|w| w[0] <= w[1]),
                "subtile offsets are monotone across the tile"
            );
            for subtile in 0..SUBTILES_PER_TILE {
                if subtile / SUBTILES_X != band {
                    assert!(tf.subtile(subtile).is_empty(), "other bands' subtiles");
                    continue;
                }
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
        let (_, _, oracle) = render_frame_aos(&scene, &Se3::IDENTITY, &cam, None);
        assert_eq!(blended, oracle.fragments_blended);
    }
}
