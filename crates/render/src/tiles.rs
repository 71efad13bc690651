//! Step ❶-2 Tile intersection and Step ❷ Sorting.
//!
//! The image is partitioned into 16×16-pixel tiles, each subdivided into
//! 4×4-pixel subtiles — the tile/subtile geometry of the RTGS architecture
//! (paper Sec. 5.1). Each tile holds a depth-sorted list of the splats that
//! overlap it, referenced by SoA *slot* (dense index into
//! [`crate::ProjectedSoA`]) so the render kernels never touch the sparse
//! per-Gaussian index space on the hot path. The subtile is the unit of
//! work of the forward kernel (`forward.rs`): a tile's list is streamed
//! through each of its [`SUBTILES_PER_TILE`] subtiles, whose
//! `SUBTILE_SIZE²` pixels are the kernel's lanes — the same lane count the
//! `rtgs-accel` WSU model pairs ([`crate::WorkloadTrace::subtile_workloads`]),
//! so software and hardware model share these constants.
//!
//! Tile lists are stored in **CSR layout**: one flat [`TileAssignment::entries`]
//! array plus per-tile [`TileAssignment::offsets`] — no per-tile `Vec`s, so a
//! rebuilt assignment reuses one contiguous allocation. Depth ordering comes
//! from a **stable LSB radix sort** over the monotone `f32 → u32` depth-key
//! mapping (the tile-binning + key-sort design of the GPU splatting
//! rasterizers), followed by a stable counting scatter into tile segments.
//! Because both passes are stable and the initial entry order is slot-major
//! (ascending Gaussian-ID order), each tile's segment is depth-ascending
//! with slot order breaking ties — bitwise-identical to the legacy per-tile
//! `sort_by` (`reference::build_tile_lists_legacy`, property-tested in
//! `tests/equivalence.rs`) without its O(n log n) comparisons or per-tile
//! allocations.

use crate::camera::PinholeCamera;
use crate::project::Projection;
use rtgs_runtime::exclusive_prefix_sum_into;

/// Tile edge length in pixels (16×16 tiles, paper convention).
pub const TILE_SIZE: usize = 16;
/// Subtile edge length in pixels (4×4 subtiles; 16 subtiles per tile).
pub const SUBTILE_SIZE: usize = 4;
/// Number of subtiles per tile.
pub const SUBTILES_PER_TILE: usize = (TILE_SIZE / SUBTILE_SIZE) * (TILE_SIZE / SUBTILE_SIZE);

/// Radix width of the depth-key sort: 8-bit digits, 4 passes over a `u32`.
const RADIX_BITS: usize = 8;
/// Buckets per radix pass.
const RADIX_BUCKETS: usize = 1 << RADIX_BITS;

/// The monotone `f32 → u32` key mapping: for any two finite floats
/// `a < b ⇔ key(a) < key(b)` and `a == b ⇔ key(a) == key(b)`, so a stable
/// integer sort on keys reproduces a stable comparison sort on the floats
/// bit for bit. Camera-frame depths are positive and finite, but the full
/// sign-flip transform is used — and `-0.0` is canonicalized to `+0.0`
/// (`-0.0 == +0.0` yet their bit patterns differ) — so the invariant holds
/// for every finite input, not just the projector's range.
#[inline]
pub(crate) fn depth_key(depth: f32) -> u32 {
    // IEEE 754: `-0.0 + 0.0 == +0.0` under round-to-nearest, so this
    // branchlessly merges the two zero encodings without touching any
    // other value.
    let bits = (depth + 0.0).to_bits();
    if bits & 0x8000_0000 != 0 {
        !bits
    } else {
        bits | 0x8000_0000
    }
}

/// Workspace of [`build_tiles_into`]: the flat binning arrays, radix
/// ping-pong buffers and per-tile counters. Reusing one workspace across
/// rebuilds makes the steady-state tile pass allocation-free (the
/// [`crate::FrameArena`] owns one).
#[derive(Debug, Clone, Default)]
pub(crate) struct TileBinScratch {
    /// Per-tile intersection counts (then reused as scatter cursors).
    counts: Vec<usize>,
    /// Slot of every (splat, tile) intersection, slot-major order.
    entry_slots: Vec<u32>,
    /// Tile of every intersection, aligned with `entry_slots`.
    entry_tiles: Vec<u32>,
    /// Depth key of every intersection, aligned with `entry_slots`.
    entry_keys: Vec<u32>,
    /// Radix ping-pong buffer for `entry_slots`.
    tmp_slots: Vec<u32>,
    /// Radix ping-pong buffer for `entry_tiles`.
    tmp_tiles: Vec<u32>,
    /// Radix ping-pong buffer for `entry_keys`.
    tmp_keys: Vec<u32>,
    /// Exclusive prefix of `counts` (usize working copy of the offsets).
    offsets: Vec<usize>,
}

/// Per-tile, depth-sorted splat lists covering one image, in CSR layout.
#[derive(Debug, Clone, Default)]
pub struct TileAssignment {
    /// Number of tiles along x.
    pub tiles_x: usize,
    /// Number of tiles along y.
    pub tiles_y: usize,
    /// SoA slots of all (tile, splat) intersections, tile-major: tile `t`'s
    /// depth-sorted (front-to-back) list is
    /// `entries[offsets[t] as usize .. offsets[t + 1] as usize]`. Slots
    /// index the [`crate::ProjectedSoA`] arrays of the projection this
    /// assignment was built from.
    pub entries: Vec<u32>,
    /// Per-tile exclusive offsets into [`Self::entries`]; length is
    /// `tile_count() + 1`.
    pub offsets: Vec<u32>,
    /// Slot → source Gaussian ID, copied from the projection so tile lists
    /// can be reported in the stable per-scene ID space (workload traces,
    /// inter-frame change ratios) without keeping the projection alive.
    pub slot_ids: Vec<u32>,
}

impl TileAssignment {
    /// Total number of tiles.
    #[inline]
    pub fn tile_count(&self) -> usize {
        self.tiles_x * self.tiles_y
    }

    /// The depth-sorted SoA-slot list of one tile (CSR segment).
    ///
    /// # Panics
    ///
    /// Panics when `tile >= self.tile_count()`.
    #[inline]
    pub fn tile(&self, tile: usize) -> &[u32] {
        let start = self.offsets[tile] as usize;
        let end = self.offsets[tile + 1] as usize;
        &self.entries[start..end]
    }

    /// Total number of (tile, Gaussian) intersection pairs — the statistic
    /// whose inter-iteration change ratio drives the adaptive pruning
    /// interval (paper Sec. 4.1).
    #[inline]
    pub fn intersection_count(&self) -> usize {
        self.entries.len()
    }

    /// Iterates the depth-sorted *Gaussian IDs* of one tile (slots mapped
    /// through [`Self::slot_ids`]) — the stable address stream consumed by
    /// workload traces and cross-frame comparisons. Allocation-free; use
    /// [`Self::tile_gaussian_ids`] only where an owned `Vec` is genuinely
    /// needed (tests, trace snapshots).
    pub fn tile_gaussian_id_iter(&self, tile: usize) -> impl Iterator<Item = u32> + '_ {
        self.tile(tile)
            .iter()
            .map(move |&slot| self.slot_ids[slot as usize])
    }

    /// [`Self::tile_gaussian_id_iter`] collected into a fresh `Vec` — a
    /// convenience for tests and trace recording, not for hot paths.
    pub fn tile_gaussian_ids(&self, tile: usize) -> Vec<u32> {
        self.tile_gaussian_id_iter(tile).collect()
    }

    /// Relative change in tile–Gaussian intersections versus a previous
    /// assignment, computed per tile as symmetric set difference over the
    /// union. Comparison happens in Gaussian-ID space (slots are frame-local
    /// and not comparable across assignments). Returns 0.0 when both are
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if the assignments have different tile grids.
    pub fn change_ratio(&self, prev: &TileAssignment) -> f32 {
        assert_eq!(self.tiles_x, prev.tiles_x, "tile grids must match");
        assert_eq!(self.tiles_y, prev.tiles_y, "tile grids must match");
        let mut differing = 0usize;
        let mut union = 0usize;
        for tile in 0..self.tile_count() {
            let a: std::collections::HashSet<u32> = self.tile_gaussian_id_iter(tile).collect();
            let b: std::collections::HashSet<u32> = prev.tile_gaussian_id_iter(tile).collect();
            union += a.union(&b).count();
            differing += a.symmetric_difference(&b).count();
        }
        if union == 0 {
            0.0
        } else {
            differing as f32 / union as f32
        }
    }

    /// The pixel rectangle `(x0, y0, x1_exclusive, y1_exclusive)` of tile
    /// `(tx, ty)` clamped to the image bounds.
    pub fn tile_pixel_rect(
        &self,
        tx: usize,
        ty: usize,
        camera: &PinholeCamera,
    ) -> (usize, usize, usize, usize) {
        tile_pixel_rect(tx, ty, camera)
    }
}

/// Step ❷: builds a [`TileAssignment`] into caller-owned storage, assigning
/// each visible splat to every tile its 3σ bounding square overlaps
/// (precomputed at projection time as [`crate::ProjectedSoA::tile_rects`]),
/// depth-ordered front-to-back. All of `out`'s and `scratch`'s buffers are
/// cleared and refilled; once their capacities cover the frame's
/// intersection count, a rebuild performs **no heap allocation**. The
/// passes are linear and memory-bound, so they run on the calling thread.
///
/// Pipeline (all passes linear and stable):
///
/// 1. *Count + flatten* (one walk over the tile rectangles): per-tile
///    intersection counts plus one `(slot, tile, depth-key)` record per
///    intersection, in slot-major order (= ascending Gaussian-ID order —
///    the tie-break order).
/// 2. *Radix sort*: stable LSB sort of the records by depth key (8-bit
///    digits; passes whose digit is uniform across all records are
///    skipped).
/// 3. *Scatter*: stable counting scatter by tile into the CSR `entries`.
///
/// Stability of passes 2–3 over the slot-major initial order makes each
/// tile segment depth-ascending with slot-order ties — exactly the order
/// the legacy per-tile stable `sort_by` produced.
///
/// # Panics
///
/// Panics if the projection's tile grid does not match `camera`.
pub(crate) fn build_tiles_into(
    projection: &Projection,
    camera: &PinholeCamera,
    scratch: &mut TileBinScratch,
    out: &mut TileAssignment,
) {
    let soa = &projection.soa;
    let tiles_x = camera.width.div_ceil(TILE_SIZE);
    let tiles_y = camera.height.div_ceil(TILE_SIZE);
    assert_eq!(soa.tiles_x, tiles_x, "projection/camera tile grid");
    assert_eq!(soa.tiles_y, tiles_y, "projection/camera tile grid");
    let tile_count = tiles_x * tiles_y;
    out.tiles_x = tiles_x;
    out.tiles_y = tiles_y;

    // Pass 1: one walk over the tile rectangles both counts per-tile
    // intersections and emits the flat (slot, tile, key) records in
    // slot-major order (= the slot-order tie-break the stable sorts
    // preserve).
    scratch.counts.clear();
    scratch.counts.resize(tile_count, 0);
    scratch.entry_slots.clear();
    scratch.entry_tiles.clear();
    scratch.entry_keys.clear();
    for (slot, &[tx0, tx1, ty0, ty1]) in soa.tile_rects.iter().enumerate() {
        let key = depth_key(soa.depths[slot]);
        for ty in ty0..=ty1 {
            let row = ty as usize * tiles_x;
            for tx in tx0..=tx1 {
                let tile = row + tx as usize;
                scratch.counts[tile] += 1;
                scratch.entry_slots.push(slot as u32);
                scratch.entry_tiles.push(tile as u32);
                scratch.entry_keys.push(key);
            }
        }
    }
    let total = scratch.entry_slots.len();

    // Pass 2: stable LSB radix sort by depth key.
    radix_sort_by_key(scratch, total);

    // Pass 3: stable counting scatter by tile id into the CSR arrays.
    let total_check = exclusive_prefix_sum_into(&scratch.counts, &mut scratch.offsets);
    debug_assert_eq!(total_check, total);
    out.offsets.clear();
    out.offsets.reserve(tile_count + 1);
    for &o in scratch.offsets.iter() {
        out.offsets.push(o as u32);
    }
    out.offsets.push(total as u32);
    out.entries.clear();
    out.entries.resize(total, 0);
    // Reuse `counts` as the per-tile write cursors.
    scratch.counts.copy_from_slice(&scratch.offsets);
    for (&slot, &tile) in scratch.entry_slots.iter().zip(scratch.entry_tiles.iter()) {
        let cursor = &mut scratch.counts[tile as usize];
        out.entries[*cursor] = slot;
        *cursor += 1;
    }

    out.slot_ids.clear();
    out.slot_ids.extend_from_slice(&soa.gaussian_ids);
}

/// Stable LSB radix sort of the first `len` records of
/// `(entry_slots, entry_tiles, entry_keys)` by `entry_keys`, ping-ponging
/// through the scratch `tmp_*` buffers.
///
/// Digit counts are order-independent, so all four 8-bit histograms are
/// built in a single pass over the keys; executed passes then only pay the
/// scatter. Passes whose digit is uniform across every record are skipped
/// outright (a stable scatter of a uniform digit is the identity), which
/// collapses the typical 4 passes to 2–3 for the narrow depth ranges of
/// indoor frames.
fn radix_sort_by_key(scratch: &mut TileBinScratch, len: usize) {
    const PASSES: usize = 32 / RADIX_BITS;
    scratch.tmp_slots.clear();
    scratch.tmp_slots.resize(len, 0);
    scratch.tmp_tiles.clear();
    scratch.tmp_tiles.resize(len, 0);
    scratch.tmp_keys.clear();
    scratch.tmp_keys.resize(len, 0);

    // One pass over the keys builds every pass's histogram at once.
    let mut histograms = [[0u32; RADIX_BUCKETS]; PASSES];
    for &k in &scratch.entry_keys[..len] {
        for (pass, histogram) in histograms.iter_mut().enumerate() {
            histogram[((k >> (pass * RADIX_BITS)) as usize) & (RADIX_BUCKETS - 1)] += 1;
        }
    }

    // Each executed pass scatters entry → tmp, then the buffer pairs are
    // pointer-swapped so the current data always lives in the `entry_*`
    // arrays (including after skipped passes and at exit).
    for (pass, histogram) in histograms.iter_mut().enumerate() {
        // Uniform digit ⇒ the stable scatter is the identity; skip the copy.
        if histogram.iter().any(|&c| c as usize == len) {
            continue;
        }
        let shift = pass * RADIX_BITS;
        let mut cursor = 0u32;
        for h in histogram.iter_mut() {
            let c = *h;
            *h = cursor;
            cursor += c;
        }
        for i in 0..len {
            let k = scratch.entry_keys[i];
            let bucket = ((k >> shift) as usize) & (RADIX_BUCKETS - 1);
            let dst = histogram[bucket] as usize;
            histogram[bucket] += 1;
            scratch.tmp_keys[dst] = k;
            scratch.tmp_slots[dst] = scratch.entry_slots[i];
            scratch.tmp_tiles[dst] = scratch.entry_tiles[i];
        }
        std::mem::swap(&mut scratch.entry_keys, &mut scratch.tmp_keys);
        std::mem::swap(&mut scratch.entry_slots, &mut scratch.tmp_slots);
        std::mem::swap(&mut scratch.entry_tiles, &mut scratch.tmp_tiles);
    }
}

/// The pixel rectangle `(x0, y0, x1_exclusive, y1_exclusive)` of tile
/// `(tx, ty)` clamped to the image bounds (free function shared with the
/// reference pipeline).
pub(crate) fn tile_pixel_rect(
    tx: usize,
    ty: usize,
    camera: &PinholeCamera,
) -> (usize, usize, usize, usize) {
    let x0 = tx * TILE_SIZE;
    let y0 = ty * TILE_SIZE;
    (
        x0,
        y0,
        (x0 + TILE_SIZE).min(camera.width),
        (y0 + TILE_SIZE).min(camera.height),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::{Gaussian3d, GaussianScene};
    use crate::reference::build_tile_lists_legacy;
    use crate::FrameArena;
    use rtgs_math::{Quat, Se3, Vec3};
    use rtgs_runtime::Serial;

    fn camera() -> PinholeCamera {
        PinholeCamera::from_fov(64, 32, 1.2)
    }

    /// Projects and bins `scene` at the identity pose through an arena.
    fn binned(scene: &GaussianScene, cam: &PinholeCamera, active: Option<&[bool]>) -> FrameArena {
        let mut arena = FrameArena::new();
        arena.project(scene, &Se3::IDENTITY, cam, active, &Serial);
        arena.assign_tiles(cam, &Serial);
        arena
    }

    fn scene_with(points: &[(f32, f32, f32)]) -> GaussianScene {
        points
            .iter()
            .map(|&(x, y, z)| {
                Gaussian3d::from_activated(
                    Vec3::new(x, y, z),
                    Vec3::splat(0.02),
                    Quat::IDENTITY,
                    0.9,
                    Vec3::X,
                )
            })
            .collect()
    }

    #[test]
    fn grid_dimensions_cover_image() {
        let cam = camera();
        let scene = scene_with(&[(0.0, 0.0, 2.0)]);
        let arena = binned(&scene, &cam, None);
        let tiles = arena.tiles();
        assert_eq!(tiles.tiles_x, 4); // 64/16
        assert_eq!(tiles.tiles_y, 2); // 32/16
        assert_eq!(tiles.tile_count(), 8);
        assert_eq!(tiles.offsets.len(), 9);
    }

    #[test]
    fn small_central_gaussian_lands_in_central_tiles_only() {
        let cam = camera();
        let scene = scene_with(&[(0.0, 0.0, 4.0)]);
        let arena = binned(&scene, &cam, None);
        let tiles = arena.tiles();
        let total = tiles.intersection_count();
        assert!(total >= 1, "splat must land somewhere");
        assert!(
            total <= 4,
            "tiny splat should not cover many tiles, got {total}"
        );
    }

    #[test]
    fn tiles_sorted_front_to_back() {
        let cam = camera();
        // Two Gaussians on the same ray, different depths, inserted far-first.
        let scene = scene_with(&[(0.0, 0.0, 5.0), (0.0, 0.0, 1.5)]);
        let arena = binned(&scene, &cam, None);
        let (proj, tiles) = (arena.projection(), arena.tiles());
        for tile in 0..tiles.tile_count() {
            let list = tiles.tile(tile);
            if list.len() == 2 {
                let d0 = proj.soa.depths[list[0] as usize];
                let d1 = proj.soa.depths[list[1] as usize];
                assert!(d0 <= d1, "tile list not depth sorted");
                return;
            }
        }
        panic!("expected a tile containing both splats");
    }

    #[test]
    fn csr_matches_legacy_per_tile_sort() {
        let cam = camera();
        // Mix of depths including exact duplicates so tie ordering matters.
        let scene = scene_with(&[
            (0.0, 0.0, 2.0),
            (0.05, 0.0, 2.0),
            (0.0, 0.05, 3.5),
            (-0.1, 0.0, 1.2),
            (0.1, -0.05, 2.0),
        ]);
        let arena = binned(&scene, &cam, None);
        let (proj, tiles) = (arena.projection(), arena.tiles());
        let legacy = build_tile_lists_legacy(proj, &cam);
        assert_eq!(legacy.len(), tiles.tile_count());
        for (tile, list) in legacy.iter().enumerate() {
            assert_eq!(tiles.tile(tile), list.as_slice(), "tile {tile}");
        }
    }

    #[test]
    fn depth_key_is_monotone() {
        let depths = [0.2f32, 0.20000002, 1.0, 1.5, 1e3, 1e30];
        for w in depths.windows(2) {
            assert!(depth_key(w[0]) < depth_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert_eq!(depth_key(2.5), depth_key(2.5));
        // Negative and positive keys still order correctly (not produced by
        // the projector, but the invariant covers all finite floats).
        assert!(depth_key(-1.0) < depth_key(-0.5));
        assert!(depth_key(-0.5) < depth_key(0.5));
        // The two zero encodings compare equal as floats and must map to
        // the same key (stable ties fall back to slot order).
        assert_eq!(depth_key(-0.0), depth_key(0.0));
        assert!(depth_key(-f32::MIN_POSITIVE) < depth_key(0.0));
        assert!(depth_key(0.0) < depth_key(f32::MIN_POSITIVE));
    }

    #[test]
    fn rebuild_into_same_storage_is_allocation_stable() {
        let cam = camera();
        let scene = scene_with(&[(0.0, 0.0, 2.0), (0.2, 0.1, 3.0), (-0.3, 0.0, 1.4)]);
        let mut arena = binned(&scene, &cam, None);
        let first = arena.tiles().clone();
        // Rebuilding into the same storage reproduces the result exactly.
        arena.assign_tiles(&cam, &Serial);
        assert_eq!(arena.tiles().entries, first.entries);
        assert_eq!(arena.tiles().offsets, first.offsets);
        assert_eq!(arena.tiles().slot_ids, first.slot_ids);
    }

    #[test]
    fn tile_lists_reference_soa_slots() {
        let cam = camera();
        let scene = scene_with(&[(0.0, 0.0, -1.0), (0.0, 0.0, 2.0)]);
        let arena = binned(&scene, &cam, None);
        let tiles = arena.tiles();
        // Gaussian 0 is culled, so the visible splat (Gaussian 1) occupies
        // slot 0, and the ID map recovers the source Gaussian.
        let non_empty = (0..tiles.tile_count())
            .find(|&t| !tiles.tile(t).is_empty())
            .expect("splat must land somewhere");
        assert_eq!(tiles.tile(non_empty)[0], 0);
        assert_eq!(tiles.tile_gaussian_ids(non_empty), vec![1]);
        assert_eq!(
            tiles.tile_gaussian_id_iter(non_empty).collect::<Vec<_>>(),
            vec![1]
        );
    }

    #[test]
    fn change_ratio_zero_for_identical() {
        let cam = camera();
        let scene = scene_with(&[(0.0, 0.0, 2.0), (0.2, 0.1, 3.0)]);
        let arena = binned(&scene, &cam, None);
        let tiles = arena.tiles();
        assert_eq!(tiles.change_ratio(&tiles.clone()), 0.0);
    }

    #[test]
    fn change_ratio_one_for_disjoint() {
        let cam = camera();
        let scene = scene_with(&[(0.0, 0.0, 2.0), (0.0, 0.0, 2.0)]);
        let (a, b) = (
            binned(&scene, &cam, Some(&[true, false])),
            binned(&scene, &cam, Some(&[false, true])),
        );
        let (ta, tb) = (a.tiles(), b.tiles());
        // Same tiles — and identical slot indices — but the underlying
        // Gaussian IDs differ everywhere, which the ID-space comparison must
        // detect.
        assert!((ta.change_ratio(tb) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn change_ratio_empty_scenes() {
        let cam = camera();
        let scene = GaussianScene::new();
        let arena = binned(&scene, &cam, None);
        let tiles = arena.tiles();
        assert_eq!(tiles.change_ratio(&tiles.clone()), 0.0);
    }

    #[test]
    fn tile_pixel_rect_clamps_to_image() {
        let cam = camera();
        let scene = scene_with(&[(0.0, 0.0, 2.0)]);
        let arena = binned(&scene, &cam, None);
        let tiles = arena.tiles();
        let (x0, y0, x1, y1) = tiles.tile_pixel_rect(3, 1, &cam);
        assert_eq!((x0, y0), (48, 16));
        assert_eq!((x1, y1), (64, 32));
    }

    #[test]
    fn subtile_constants_consistent() {
        assert_eq!(TILE_SIZE % SUBTILE_SIZE, 0);
        assert_eq!(SUBTILES_PER_TILE, 16);
    }
}
