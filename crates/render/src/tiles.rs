//! Step ❶-2 Tile intersection and Step ❷ Sorting.
//!
//! The image is partitioned into 16×16-pixel tiles, each subdivided into
//! 4×4-pixel subtiles — the tile/subtile geometry of the RTGS architecture
//! (paper Sec. 5.1). Each tile holds a depth-sorted list of the splats that
//! overlap it, referenced by *slot* (dense index into the
//! [`crate::Projection`]) so the render kernels never touch the sparse
//! per-Gaussian index space on the hot path. The subtile is the unit of
//! work of the forward kernel (`forward.rs`): a tile's list is streamed
//! through each of its [`SUBTILES_PER_TILE`] subtiles, whose
//! `SUBTILE_SIZE²` pixels are the kernel's lanes — the same lane count the
//! `rtgs-accel` WSU model pairs ([`crate::WorkloadTrace::subtile_workloads`]),
//! so software and hardware model share these constants.
//!
//! Tile lists are stored in **CSR layout**: one flat [`TileAssignment::entries`]
//! array plus per-tile [`TileAssignment::offsets`] — no per-tile `Vec`s, so a
//! rebuilt assignment reuses one contiguous allocation. The binning is the
//! key-sort design of the GPU splatting rasterizers, chunked over the
//! session's backend: per-chunk tile counts, a prefix sum, a scatter of
//! `(depth key, slot)` keys in chunk order — which leaves every tile segment
//! in slot order (= ascending Gaussian-ID order) — then a depth sort of each
//! tile's segment by that key, chunked over tiles. The slot in the key's low
//! half breaks depth ties in slot order, so each segment is depth-ascending
//! with slot-order ties: bitwise-identical to the legacy per-tile stable
//! `sort_by` (`reference::build_tile_lists_legacy`, property-tested in
//! `tests/equivalence.rs`) on every backend and claim order, without per-tile
//! allocations.

use crate::camera::PinholeCamera;
use crate::project::{Projection, TileRect};
use rtgs_runtime::{Backend, SharedSlice};

/// Tile edge length in pixels (16×16 tiles, paper convention).
pub const TILE_SIZE: usize = 16;
/// Subtile edge length in pixels (4×4 subtiles; 16 subtiles per tile).
pub const SUBTILE_SIZE: usize = 4;
/// Number of subtiles per tile.
pub const SUBTILES_PER_TILE: usize = (TILE_SIZE / SUBTILE_SIZE) * (TILE_SIZE / SUBTILE_SIZE);

/// Projected splats per chunk of Step ❷'s count and scatter loops (the
/// Step ❶ chunk); the depth sort runs one tile per chunk.
const BIN_CHUNK: usize = 256;

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

/// Workspace of [`build_tiles_into`]: the per-chunk tile counts and the
/// sort keys. Reusing one workspace across rebuilds makes the steady-state
/// tile pass allocation-free (the [`crate::FrameArena`] owns one).
#[derive(Debug, Clone, Default)]
pub(crate) struct TileBinScratch {
    /// Chunk-major `chunks × tiles` intersection counts, then each chunk's
    /// per-tile scatter cursors.
    chunk_counts: Vec<u32>,
    /// `depth_key << 32 | slot` of every (tile, splat) intersection,
    /// tile-major like [`TileAssignment::entries`].
    keys: Vec<u64>,
}

impl TileBinScratch {
    /// Bytes held at current capacities (for the arena's high-water mark).
    pub(crate) fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        self.chunk_counts.capacity() * size_of::<u32>() + self.keys.capacity() * size_of::<u64>()
    }
}

/// Per-tile, depth-sorted splat lists covering one image, in CSR layout.
#[derive(Debug, Clone, Default)]
pub struct TileAssignment {
    /// Number of tiles along x.
    pub tiles_x: usize,
    /// Number of tiles along y.
    pub tiles_y: usize,
    /// Slots of all (tile, splat) intersections, tile-major: tile `t`'s
    /// depth-sorted (front-to-back) list is
    /// `entries[offsets[t] as usize .. offsets[t + 1] as usize]`. Slots
    /// index the [`crate::Projection`] this assignment was built from; the
    /// length is the frame's intersection count.
    pub entries: Vec<u32>,
    /// Per-tile exclusive offsets into [`Self::entries`]; length is
    /// `tile_count() + 1`.
    pub offsets: Vec<u32>,
    /// Slot → index of the source Gaussian in the scene the projection
    /// was built from, copied so tile lists can be reported without keeping
    /// the projection alive. For a map render that scene is the cull's
    /// gathered working set, so these are frame-local indices; the stable
    /// map ID of index `k` is [`crate::VisibleFrame::ids`]`[k]`.
    pub slot_ids: Vec<u32>,
}

impl TileAssignment {
    /// Total number of tiles.
    #[inline]
    pub fn tile_count(&self) -> usize {
        self.tiles_x * self.tiles_y
    }

    /// The depth-sorted slot list of one tile (CSR segment).
    ///
    /// # Panics
    ///
    /// Panics when `tile >= self.tile_count()`.
    #[inline]
    pub fn tile(&self, tile: usize) -> &[u32] {
        &self.entries[self.entry_range(tile)]
    }

    /// The range of [`Self::entries`] that holds tile `tile`'s list.
    #[inline]
    pub(crate) fn entry_range(&self, tile: usize) -> std::ops::Range<usize> {
        self.offsets[tile] as usize..self.offsets[tile + 1] as usize
    }

    /// Iterates the depth-sorted Gaussian indices of one tile (slots mapped
    /// through [`Self::slot_ids`]): indices into the projected scene, which
    /// for a map render is the cull's gathered working set — frame-local,
    /// not stable map IDs (map them through [`crate::VisibleFrame::ids`]).
    /// Workload traces and [`Self::change_ratio`] consume this stream.
    /// Allocation-free; use [`Self::tile_gaussian_ids`] only where an owned
    /// `Vec` is genuinely needed (tests, trace snapshots).
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
    /// union of [`Self::tile_gaussian_id_iter`]'s indices. Those index each
    /// assignment's own projected scene, so the comparison is exact only
    /// when both come from the same gathered working set; across two
    /// gathers (a mask change, a pose that culls other shards) the same
    /// index can name different Gaussians. Returns 0.0 when both are
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

    /// The tile that chunk `chunk` of a Step ❸ or Step ❹ loop covers: tiles
    /// in row-major order, rotated to start at the middle tile row.
    ///
    /// The pool's publisher claims ascending chunk indices and its helpers
    /// descending ones, so the two meet in the middle of the chunk sequence,
    /// and the chunk they meet at sets the loop's tail. Row-major order puts
    /// the light tiles — the partial last row and column — last, and on a
    /// two-row frame both heavy tiles first, next to each other: the two
    /// ends would meet on a heavy tile. Rotated, both ends start in a heavy
    /// row and the light last row sits mid-sequence. Same host, one pool,
    /// one process, alternating blocks against one ascending counter: the
    /// unrotated two ends read the iteration ×0.97 at 75×42 (15 tiles) but
    /// ×1.06 at 38×21 (6 tiles, where RTGS tracks most frames); rotated,
    /// ×0.96 and ×1.01.
    ///
    /// A tile's results go to its own slots and fold in tile order, so the
    /// mapping decides only which thread renders what, never a bit.
    #[inline]
    pub(crate) fn tile_of_chunk(&self, chunk: usize) -> usize {
        (chunk + self.tiles_y / 2 * self.tiles_x) % self.tile_count()
    }
}

/// Step ❷: builds a [`TileAssignment`] into caller-owned storage, assigning
/// each visible splat to every tile its 3σ bounding square overlaps
/// (precomputed at projection time as `Projection::tile_rects`),
/// depth-ordered front-to-back. All of `out`'s and `scratch`'s buffers are
/// refilled; once their capacities cover the frame's intersection count, a
/// rebuild performs **no heap allocation**.
///
/// Three chunked loops on `backend`, with a prefix sum on the caller between
/// the first two:
///
/// 1. *Count*: each chunk of [`BIN_CHUNK`] slots counts its intersections
///    per tile into its own row of `chunk_counts`.
/// 2. *Prefix*: tile-major, chunk-minor — tile `t`'s segment holds chunk
///    0's intersections with `t`, then chunk 1's, and so on — giving the
///    CSR offsets and every chunk's per-tile write cursors.
/// 3. *Scatter*: each chunk writes `depth_key << 32 | slot` for each of its
///    intersections at its own cursors, so every segment is in slot order.
/// 4. *Sort*: each tile's segment is sorted by key (one tile per chunk;
///    `sort_unstable` is in place, and keys are unique) and its slots are
///    written to `entries`.
///
/// A key sorts by depth, then by slot: each segment is depth-ascending with
/// slot-order ties — exactly the order the legacy per-tile stable `sort_by`
/// produced. Every chunk writes only its own row, cursors and segments, so
/// the lists are the same on every backend and claim order.
///
/// # Panics
///
/// Panics if the projection's tile grid does not match `camera`.
pub(crate) fn build_tiles_into(
    projection: &Projection,
    camera: &PinholeCamera,
    backend: &dyn Backend,
    scratch: &mut TileBinScratch,
    out: &mut TileAssignment,
) {
    let tiles_x = camera.width.div_ceil(TILE_SIZE);
    let tiles_y = camera.height.div_ceil(TILE_SIZE);
    assert_eq!(projection.tiles_x, tiles_x, "projection/camera tile grid");
    assert_eq!(projection.tiles_y, tiles_y, "projection/camera tile grid");
    let tile_count = tiles_x * tiles_y;
    out.tiles_x = tiles_x;
    out.tiles_y = tiles_y;
    let rects = &projection.tile_rects;
    let slots = rects.len();
    let chunks = slots.div_ceil(BIN_CHUNK);

    // 1. Count.
    scratch.chunk_counts.clear();
    scratch.chunk_counts.resize(chunks * tile_count, 0);
    {
        let counts = SharedSlice::new(&mut scratch.chunk_counts);
        backend.for_each_chunk(slots, BIN_CHUNK, &|chunk, range| {
            // SAFETY: each chunk owns its row.
            let row = unsafe { counts.range_mut(chunk * tile_count..(chunk + 1) * tile_count) };
            for rect in &rects[range] {
                for_each_tile(rect, tiles_x, |tile| row[tile] += 1);
            }
        });
    }

    // 2. Prefix, tile-major and chunk-minor; the counts become cursors.
    out.offsets.clear();
    out.offsets.reserve(tile_count + 1);
    let mut total = 0u32;
    for tile in 0..tile_count {
        out.offsets.push(total);
        for chunk in 0..chunks {
            let cell = &mut scratch.chunk_counts[chunk * tile_count + tile];
            let count = *cell;
            *cell = total;
            total += count;
        }
    }
    out.offsets.push(total);
    let total = total as usize;

    // 3. Scatter. Every key is written below, so stale contents never show.
    scratch.keys.resize(total, 0);
    {
        let cursors = SharedSlice::new(&mut scratch.chunk_counts);
        let keys = SharedSlice::new(&mut scratch.keys);
        let splats = &projection.splats;
        backend.for_each_chunk(slots, BIN_CHUNK, &|chunk, range| {
            // SAFETY: each chunk owns its cursor row, and its cursors cover
            // key positions no other chunk's do.
            let row = unsafe { cursors.range_mut(chunk * tile_count..(chunk + 1) * tile_count) };
            for slot in range {
                let key = u64::from(depth_key(splats[slot].depth)) << 32 | slot as u64;
                for_each_tile(&rects[slot], tiles_x, |tile| {
                    unsafe { keys.write(row[tile] as usize, key) };
                    row[tile] += 1;
                });
            }
        });
    }

    // 4. Sort each tile's segment, and copy its slots out.
    out.entries.resize(total, 0);
    {
        let offsets = &out.offsets;
        let keys = SharedSlice::new(&mut scratch.keys);
        let entries = SharedSlice::new(&mut out.entries);
        backend.for_each_chunk(tile_count, 1, &|_, range| {
            for tile in range {
                let segment = offsets[tile] as usize..offsets[tile + 1] as usize;
                // SAFETY: tile segments are disjoint.
                let (keys, entries) =
                    unsafe { (keys.range_mut(segment.clone()), entries.range_mut(segment)) };
                keys.sort_unstable();
                for (entry, &key) in entries.iter_mut().zip(keys.iter()) {
                    *entry = key as u32;
                }
            }
        });
    }

    out.slot_ids.clear();
    out.slot_ids.extend_from_slice(&projection.gaussian_ids);
}

/// Visits the tiles of one splat's rectangle, row by row.
#[inline]
fn for_each_tile(&[tx0, tx1, ty0, ty1]: &TileRect, tiles_x: usize, mut visit: impl FnMut(usize)) {
    for ty in ty0 as usize..ty1 as usize + 1 {
        let row = ty * tiles_x;
        for tile in row + tx0 as usize..row + tx1 as usize + 1 {
            visit(tile);
        }
    }
}

/// The pixel rectangle `(x0, y0, x1_exclusive, y1_exclusive)` of tile
/// `(tx, ty)` clamped to the image bounds: the one definition Steps ❸ and ❹
/// and the reference pipeline share.
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
    use crate::project::{activations, project_scene_into, ProjectScratch};
    use crate::reference::build_tile_lists_legacy;
    use crate::FrameArena;
    use rtgs_math::{Quat, Se3, Vec3};
    use rtgs_runtime::Serial;

    fn camera() -> PinholeCamera {
        PinholeCamera::from_fov(64, 32, 1.2)
    }

    /// Projects `scene` at the identity pose (Step ❶ alone, no cull in
    /// front of it, so slots map to the scene's own indices) and bins it
    /// through an arena.
    fn binned(scene: &GaussianScene, cam: &PinholeCamera) -> FrameArena {
        let mut arena = FrameArena::new();
        project_scene_into(
            activations::COMPUTE,
            scene,
            &Se3::IDENTITY,
            cam,
            &Serial,
            &mut ProjectScratch::default(),
            &mut arena.projection,
        );
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
        let arena = binned(&scene, &cam);
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
        let arena = binned(&scene, &cam);
        let tiles = arena.tiles();
        let total = tiles.entries.len();
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
        let arena = binned(&scene, &cam);
        let (proj, tiles) = (arena.projection(), arena.tiles());
        for tile in 0..tiles.tile_count() {
            let list = tiles.tile(tile);
            if list.len() == 2 {
                let d0 = proj.splats[list[0] as usize].depth;
                let d1 = proj.splats[list[1] as usize].depth;
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
        let arena = binned(&scene, &cam);
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
        let mut arena = binned(&scene, &cam);
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
        let arena = binned(&scene, &cam);
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
        let arena = binned(&scene, &cam);
        let tiles = arena.tiles();
        assert_eq!(tiles.change_ratio(&tiles.clone()), 0.0);
    }

    #[test]
    fn change_ratio_one_for_disjoint() {
        let cam = camera();
        // One splat in view and one behind the camera, in either order.
        let (a, b) = (
            binned(&scene_with(&[(0.0, 0.0, 2.0), (0.0, 0.0, -1.0)]), &cam),
            binned(&scene_with(&[(0.0, 0.0, -1.0), (0.0, 0.0, 2.0)]), &cam),
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
        let arena = binned(&scene, &cam);
        let tiles = arena.tiles();
        assert_eq!(tiles.change_ratio(&tiles.clone()), 0.0);
    }

    #[test]
    fn tile_pixel_rect_clamps_to_image() {
        let cam = camera();
        let (x0, y0, x1, y1) = tile_pixel_rect(3, 1, &cam);
        assert_eq!((x0, y0), (48, 16));
        assert_eq!((x1, y1), (64, 32));
    }

    #[test]
    fn subtile_constants_consistent() {
        assert_eq!(TILE_SIZE % SUBTILE_SIZE, 0);
        assert_eq!(SUBTILES_PER_TILE, 16);
    }
}
