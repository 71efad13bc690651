//! Step ❸ Rendering: per-pixel alpha computing and alpha blending
//! (paper Eqs. 2–3) with early ray termination.
//!
//! The kernel walks the projection's structure-of-arrays splat storage
//! ([`crate::ProjectedSoA`]): each tile first gathers its (depth-sorted)
//! splats into a compact contiguous working set — the software analog of
//! staging a tile's Gaussians in shared memory — and every pixel of the tile
//! then streams that working set sequentially. The fused instantiation
//! ([`crate::FrameArena::render_fused`]) additionally records, per pixel, the
//! exact fragment sequence the blend produced (alpha, Gaussian weight, incoming
//! transmittance), which is precisely the bookkeeping the backward pass
//! otherwise has to reconstruct by re-walking the sorted splat list — so
//! forward and backward share one tile traversal.

use crate::camera::{DepthImage, Image, PinholeCamera};
use crate::project::{ProjectedSoA, Projection};
use crate::tiles::TileAssignment;
use rtgs_math::{Sym2, Vec2, Vec3};
use rtgs_runtime::{Backend, ScratchPool, SharedSlice};

/// Tiles per chunk in the parallel forward render (fixed by the algorithm,
/// not the worker count).
pub(crate) const RENDER_CHUNK: usize = 4;

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
    /// Alpha computations executed (fragments inspected before termination).
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
    /// Fragments *processed* per pixel — the per-pixel workload of the
    /// paper's Fig. 6 and the input to the WSU scheduling model.
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
    /// Blended fragments of the whole tile, pixel-major (row-major pixel
    /// order within the tile rectangle, front-to-back within each pixel).
    pub frags: Vec<CachedFragment>,
    /// Per-pixel exclusive offsets into [`Self::frags`]; length is the
    /// tile's pixel count + 1. Empty when the tile had no splats.
    pub offsets: Vec<u32>,
}

impl TileFragments {
    /// The fragments of pixel `pi` (row-major index within the tile rect).
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
/// arrays so the per-pixel fragment walk is a sequential stream over a
/// compact buffer (no cold fields, no indirection).
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
    // q < 0: numerically indefinite conic — the exact path treats it as no
    // contribution. q > q_cut: alpha provably below ALPHA_MIN.
    if q < 0.0 || q > s.q_cut {
        return None;
    }
    let g = (-0.5 * q).exp();
    let alpha = (s.opacity * g).min(ALPHA_MAX);
    if alpha < ALPHA_MIN {
        return None;
    }
    Some((alpha, g))
}

/// Step ❸: renders the projected splats into caller-owned storage; `RECORD`
/// statically selects the fused (fragment-recording) instantiation.
///
/// Iterates tiles (chunked over `backend`), then pixels within each tile,
/// walking the tile's depth-sorted splat list front-to-back and terminating
/// each ray when the transmittance drops below [`TERMINATION_THRESHOLD`].
/// Tiles partition the image, so every pixel is written by exactly one
/// tile's task; per-tile statistics are integer counters summed afterwards.
/// The output is therefore bitwise-identical on every backend and pool
/// size. Recording only copies values the blend already computed, so the
/// [`RenderOutput`] of both instantiations is bitwise-identical and the
/// cached fragments are exactly what a backward re-walk would reconstruct.
///
/// Every output buffer — image, depth, transmittance, workloads, per-tile
/// stats and (when recording) the per-tile fragment records — is cleared
/// and refilled in place, and per-chunk gather scratch comes from `pool`,
/// so a steady-state re-render into the same storage performs **no heap
/// allocation**. Results are bitwise-identical to a render into fresh
/// buffers.
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
    pool: &ScratchPool<TileSplat>,
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
            // Per-chunk scratch: the gathered working set comes from the
            // shared pool, so steady-state chunks allocate nothing.
            let mut gathered: Vec<TileSplat> = pool.take();
            for tile in range {
                // SAFETY (all accesses below): one fragment record set and
                // one stats slot per tile; tiles partition the image, so
                // every pixel index is written by exactly one tile's task.
                let tf: Option<&mut TileFragments> = if RECORD {
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
                gather_tile(soa, list, &mut gathered);
                let mut stats = RenderStats::default();
                let (tx, ty) = (tile % tiles.tiles_x, tile / tiles.tiles_x);
                let (x0, y0, x1, y1) = tiles.tile_pixel_rect(tx, ty, camera);
                let mut tf = tf;
                if let Some(tf) = tf.as_deref_mut() {
                    tf.offsets.reserve((y1 - y0) * (x1 - x0) + 1);
                    tf.offsets.push(0);
                }
                for y in y0..y1 {
                    for x in x0..x1 {
                        let p = pixel_center(x, y);
                        let mut color = Vec3::ZERO;
                        let mut d_acc = 0.0f32;
                        let mut t = 1.0f32;
                        let mut processed = 0u32;
                        for (pos, s) in gathered.iter().enumerate() {
                            processed += 1;
                            let Some((alpha, weight)) = fragment_alpha_fast(s, p) else {
                                continue;
                            };
                            stats.fragments_blended += 1;
                            if let Some(tf) = tf.as_deref_mut() {
                                tf.frags.push(CachedFragment {
                                    list_pos: pos as u32,
                                    alpha,
                                    weight,
                                    t_before: t,
                                });
                            }
                            color += s.color * (t * alpha);
                            d_acc += s.depth * (t * alpha);
                            t *= 1.0 - alpha;
                            if t < TERMINATION_THRESHOLD {
                                stats.early_terminated_pixels += 1;
                                break;
                            }
                        }
                        stats.fragments_processed += processed as u64;
                        if let Some(tf) = tf.as_deref_mut() {
                            tf.offsets.push(tf.frags.len() as u32);
                        }
                        let idx = y * camera.width + x;
                        unsafe {
                            image_view.write(idx, color);
                            depth_view.write(idx, d_acc);
                            t_view.write(idx, t);
                            workload_view.write(idx, processed);
                        }
                    }
                }
                unsafe { stats_view.write(tile, stats) };
            }
            pool.put(gathered);
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

    #[test]
    fn cached_fragments_reproduce_transmittance() {
        let scene = GaussianScene::from_gaussians(vec![
            big_gaussian(2.0, 0.5, Vec3::X),
            big_gaussian(3.0, 0.7, Vec3::Y),
        ]);
        let cam = camera();
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
            let (x0, y0, x1, _) = tiles.tile_pixel_rect(tx, ty, &cam);
            let width = x1 - x0;
            for pi in 0..tf.offsets.len() - 1 {
                let frags = tf.pixel_fragments(pi);
                let t = frags
                    .last()
                    .map(|f| f.t_before * (1.0 - f.alpha))
                    .unwrap_or(1.0);
                let (x, y) = (x0 + pi % width, y0 + pi / width);
                assert_eq!(t, arena.output().final_transmittance[y * cam.width + x]);
            }
        }
    }
}
