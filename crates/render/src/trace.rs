//! Workload traces: the renderer-side measurements the hardware models
//! consume.
//!
//! The paper's cycle simulator is driven by memory-access and workload
//! traces extracted from real 3DGS-SLAM executions (Sec. 6.1, "Simulator
//! Test Trace Derivation"). [`WorkloadTrace`] plays that role here: it
//! captures per-pixel fragment workloads, per-tile Gaussian lists and
//! gradient-aggregation address streams from an actual render, so the
//! hardware models in `rtgs-accel` see genuine imbalance and collision
//! statistics. A trace observes the forward pass only; the models derive
//! the backward's work from it.
//!
//! Step ❸ counts nothing for a trace: the per-pixel workloads and the
//! blended count are derived from the R&B records ([`FragmentCache`]) the
//! fused forward keeps for Step ❹.

use crate::forward::{
    FragmentCache, RenderOutput, TileFragments, BANDS, LANES, TERMINATION_THRESHOLD,
};
use crate::tiles::{TileAssignment, SUBTILE_SIZE, TILE_SIZE};

/// Workload measurements from one rendering iteration.
#[derive(Debug, Clone)]
pub struct WorkloadTrace {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Fragments processed per pixel (row-major) — Fig. 6's quantity:
    /// tile-list positions consumed, as defined at
    /// [`crate::RenderStats::fragments_processed`].
    pub pixel_workloads: Vec<u32>,
    /// Tiles along x.
    pub tiles_x: usize,
    /// Tiles along y.
    pub tiles_y: usize,
    /// Depth-sorted Gaussian list per tile (row-major tile grid), as
    /// frame-local indices of the cull's gathered working set (not stable
    /// map IDs: the same index can name another Gaussian in another
    /// iteration's gather): the gradient-aggregation address stream seen by
    /// the GMU / atomic units. A list's length is its tile's Gaussian
    /// count.
    pub tile_gaussian_ids: Vec<Vec<u32>>,
    /// Total fragments blended in the forward pass.
    pub fragments_blended: u64,
    /// Number of Gaussians visible this iteration.
    pub visible_gaussians: usize,
}

impl WorkloadTrace {
    /// Assembles a trace from a fused forward pass: its output, its tile
    /// assignment and its R&B records. The image gives the resolution, the
    /// tile assignment's slot list the visible Gaussians, and the records
    /// the per-pixel workloads and the blended count
    /// ([`FragmentCache::total_fragments`]). A ray whose final transmittance
    /// is below [`TERMINATION_THRESHOLD`] consumed its tile's list up to the
    /// last record covering its lane; any other ray, the whole list.
    ///
    /// # Panics
    ///
    /// Panics when `fragments` holds no records of `tiles`' grid (the last
    /// forward pass was not fused).
    pub fn from_render(
        output: &RenderOutput,
        tiles: &TileAssignment,
        fragments: &FragmentCache,
    ) -> Self {
        assert_eq!(
            fragments.bands().len(),
            tiles.tile_count() * BANDS,
            "a trace reads the R&B records of a fused forward pass"
        );
        Self {
            width: output.image.width(),
            height: output.image.height(),
            pixel_workloads: pixel_workloads(output, tiles, fragments.bands()),
            tiles_x: tiles.tiles_x,
            tiles_y: tiles.tiles_y,
            // Tile lists hold projection slots on the hot path; traces
            // report the Gaussians' frame-local indices in the cull's
            // gathered working set — the rows Step ❺ accumulates into.
            tile_gaussian_ids: (0..tiles.tile_count())
                .map(|t| tiles.tile_gaussian_ids(t))
                .collect(),
            fragments_blended: fragments.total_fragments(),
            visible_gaussians: tiles.slot_ids.len(),
        }
    }

    /// Total fragments processed in the forward pass.
    pub fn total_fragments(&self) -> u64 {
        self.pixel_workloads.iter().map(|&w| w as u64).sum()
    }

    /// Tile–Gaussian intersections: the tile lists' total length.
    pub fn tile_intersections(&self) -> u64 {
        self.tile_gaussian_ids
            .iter()
            .map(|ids| ids.len() as u64)
            .sum()
    }

    /// Mean per-pixel workload.
    pub fn mean_pixel_workload(&self) -> f64 {
        if self.pixel_workloads.is_empty() {
            return 0.0;
        }
        self.total_fragments() as f64 / self.pixel_workloads.len() as f64
    }

    /// Iterates over all subtiles, yielding for each the per-pixel workloads
    /// of its (up to) 16 pixels. Border subtiles are padded with zeros so
    /// every entry has exactly `SUBTILE_SIZE²` values — the fixed lane count
    /// of a Rendering Engine.
    pub fn subtile_workloads(&self) -> Vec<[u32; SUBTILE_SIZE * SUBTILE_SIZE]> {
        let sub_x = self.width.div_ceil(SUBTILE_SIZE);
        let sub_y = self.height.div_ceil(SUBTILE_SIZE);
        let mut out = Vec::with_capacity(sub_x * sub_y);
        for sy in 0..sub_y {
            for sx in 0..sub_x {
                let mut lanes = [0u32; SUBTILE_SIZE * SUBTILE_SIZE];
                for dy in 0..SUBTILE_SIZE {
                    for dx in 0..SUBTILE_SIZE {
                        let x = sx * SUBTILE_SIZE + dx;
                        let y = sy * SUBTILE_SIZE + dy;
                        if x < self.width && y < self.height {
                            lanes[dy * SUBTILE_SIZE + dx] =
                                self.pixel_workloads[y * self.width + x];
                        }
                    }
                }
                out.push(lanes);
            }
        }
        out
    }

    /// Similarity of per-pixel workloads to another trace of the same
    /// resolution, as the mean relative absolute difference. Near-zero means
    /// highly similar — the inter-iteration similarity of Observation 6 that
    /// lets the WSU reuse its schedule.
    ///
    /// # Panics
    ///
    /// Panics when resolutions differ.
    pub fn workload_similarity(&self, other: &WorkloadTrace) -> f64 {
        assert_eq!(self.width, other.width, "traces must share resolution");
        assert_eq!(self.height, other.height, "traces must share resolution");
        let mut diff = 0.0f64;
        let mut base = 0.0f64;
        for (&a, &b) in self
            .pixel_workloads
            .iter()
            .zip(other.pixel_workloads.iter())
        {
            diff += (a as f64 - b as f64).abs();
            base += a.max(b) as f64;
        }
        if base == 0.0 {
            0.0
        } else {
            diff / base
        }
    }

    /// Histogram of per-pixel workloads with the given bucket edges (the
    /// Fig. 6 distribution). Returns one count per bucket where bucket `i`
    /// holds pixels with `edges[i] <= w < edges[i+1]`; a final implicit
    /// bucket catches everything `>= edges.last()`.
    pub fn workload_histogram(&self, edges: &[u32]) -> Vec<usize> {
        let mut counts = vec![0usize; edges.len() + 1];
        for &w in &self.pixel_workloads {
            let mut bucket = edges.len();
            for (i, &e) in edges.iter().enumerate() {
                if w < e {
                    bucket = i;
                    break;
                }
            }
            counts[bucket] += 1;
        }
        counts
    }

    /// Number of pixel tiles (16×16) in this trace.
    pub fn tile_count(&self) -> usize {
        self.tiles_x * self.tiles_y
    }

    /// Consistency check: tile grid covers the image.
    pub fn is_consistent(&self) -> bool {
        self.tiles_x * TILE_SIZE >= self.width
            && self.tiles_y * TILE_SIZE >= self.height
            && self.pixel_workloads.len() == self.width * self.height
            && self.tile_gaussian_ids.len() == self.tiles_x * self.tiles_y
    }
}

/// Each pixel's workload (row-major), as [`WorkloadTrace::from_render`]
/// states it, from the R&B records `bands` of the pass that rendered
/// `output` over `tiles`. A terminated lane admits no further splat, so the
/// last record covering it is the splat that ended its ray.
fn pixel_workloads(
    output: &RenderOutput,
    tiles: &TileAssignment,
    bands: &[TileFragments],
) -> Vec<u32> {
    let width = output.image.width();
    let pixels = output.final_transmittance.iter().enumerate();
    let workload = |(idx, &t): (usize, &f32)| {
        let (x, y) = (idx % width, idx / width);
        let tile = (y / TILE_SIZE) * tiles.tiles_x + x / TILE_SIZE;
        if t < TERMINATION_THRESHOLD {
            let (dx, dy) = (x % TILE_SIZE, y % TILE_SIZE);
            let at = TileFragments::pixel_index(dx, dy);
            let records = bands[tile * BANDS + dy / SUBTILE_SIZE].subtile(at / LANES);
            let lane = at % LANES;
            let last = records.iter().rev().find(|head| head.mask >> lane & 1 == 1);
            last.expect("a terminated ray has its terminating record")
                .list_pos
                + 1
        } else {
            tiles.entry_range(tile).len() as u32
        }
    };
    pixels.map(workload).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::{DepthImage, Image, PinholeCamera};
    use crate::forward::{RecordHead, RenderStats, SUBTILES_X};
    use crate::gaussian::{Gaussian3d, GaussianScene};
    use crate::reference::render_frame_aos;
    use crate::tiles::SUBTILES_PER_TILE;
    use crate::{FrameArena, ShardedScene, DEFAULT_CELL_SIZE};
    use rtgs_math::{Quat, Se3, Vec3};
    use rtgs_runtime::Serial;

    /// The trace of a fused forward pass over `scene` at the identity pose.
    fn trace_of(scene: &GaussianScene, cam: &PinholeCamera) -> WorkloadTrace {
        let map = ShardedScene::from_scene(scene, DEFAULT_CELL_SIZE);
        let mut arena = FrameArena::new();
        arena.cull(&map, &Se3::IDENTITY, cam, None, &Serial);
        arena.project_visible(&Se3::IDENTITY, cam, &Serial);
        arena.assign_tiles(cam, &Serial);
        arena.render_fused(cam, &Serial);
        WorkloadTrace::from_render(arena.output(), arena.tiles(), arena.fragments())
    }

    fn make_trace() -> WorkloadTrace {
        let cam = PinholeCamera::from_fov(32, 32, 1.2);
        let scene = GaussianScene::from_gaussians(vec![Gaussian3d::from_activated(
            Vec3::new(0.0, 0.0, 2.0),
            Vec3::splat(0.5),
            Quat::IDENTITY,
            0.7,
            Vec3::X,
        )]);
        trace_of(&scene, &cam)
    }

    /// The workloads derived for a one-tile `w × h` frame whose list holds
    /// `list_len` splats, whose pixels end at transmittance `final_t`
    /// (row-major) and whose R&B records are `records`: `(subtile, list
    /// position, lane mask)`, in stream order within each subtile.
    fn one_tile(
        (w, h): (usize, usize),
        list_len: u32,
        final_t: Vec<f32>,
        records: &[(usize, u32, u16)],
    ) -> Vec<u32> {
        let tiles = TileAssignment {
            tiles_x: 1,
            tiles_y: 1,
            entries: (0..list_len).collect(),
            offsets: vec![0, list_len],
            slot_ids: (0..list_len).collect(),
        };
        let mut bands = vec![TileFragments::default(); BANDS];
        for (band, records_of_band) in bands.iter_mut().enumerate() {
            for subtile in 0..SUBTILES_PER_TILE {
                if subtile / SUBTILES_X == band {
                    let heads = records.iter().filter(|r| r.0 == subtile);
                    records_of_band
                        .heads
                        .extend(heads.map(|&(_, list_pos, mask)| RecordHead {
                            list_pos,
                            first_row: 0,
                            mask,
                        }));
                }
                records_of_band.subtile_heads[subtile + 1] = records_of_band.heads.len() as u32;
            }
        }
        let output = RenderOutput {
            image: Image::new(w, h),
            depth: DepthImage::new(w, h),
            final_transmittance: final_t,
            stats: RenderStats::default(),
        };
        pixel_workloads(&output, &tiles, &bands)
    }

    #[test]
    fn trace_is_consistent() {
        let t = make_trace();
        assert!(t.is_consistent());
        assert_eq!(t.visible_gaussians, 1);
    }

    #[test]
    fn totals_match_pixel_sum() {
        let t = make_trace();
        let manual: u64 = t.pixel_workloads.iter().map(|&w| w as u64).sum();
        assert_eq!(t.total_fragments(), manual);
        assert!(t.total_fragments() > 0);
    }

    #[test]
    fn an_empty_tile_gives_zero() {
        let workloads = one_tile((16, 16), 0, vec![1.0; 256], &[]);
        assert_eq!(workloads, vec![0; 256]);
    }

    /// Transmittance still above the threshold: the ray consumed the
    /// whole list, whatever the records say.
    #[test]
    fn a_ray_that_never_terminates_gives_its_tiles_list_length() {
        let records = [(0, 0, 0xffff), (0, 2, 0x0001)];
        let workloads = one_tile((4, 4), 5, vec![0.5; 16], &records);
        assert_eq!(workloads, vec![5; 16]);
    }

    #[test]
    fn a_ray_terminated_by_list_position_0_gives_1() {
        let mut final_t = vec![0.5; 16];
        final_t[0] = 0.0;
        let workloads = one_tile((4, 4), 3, final_t, &[(0, 0, 0x0001), (0, 1, 0xfffe)]);
        assert_eq!(workloads[0], 1);
        assert!(workloads[1..].iter().all(|&w| w == 3));
    }

    /// A 6 × 5 frame: its second subtile column and second subtile row are
    /// partial. Out-of-image lanes own no pixel, so records at them (which
    /// the kernel never writes) change no workload, and the padded lanes of
    /// [`WorkloadTrace::subtile_workloads`] stay zero.
    #[test]
    fn border_subtiles_leave_out_of_image_lanes_untouched() {
        let (w, h) = (6, 5);
        let mut final_t = vec![0.5; w * h];
        // Pixel (5, 4), lane 1 of subtile 5, ends at list position 2.
        final_t[4 * w + 5] = 0.0;
        let records = [(5, 0, 0xffff), (5, 2, 0x0002), (5, 3, 0xfffc)];
        let workloads = one_tile((w, h), 4, final_t, &records);
        let mut want = vec![4; w * h];
        want[4 * w + 5] = 3;
        assert_eq!(workloads, want);

        let cam = PinholeCamera::from_fov(w, h, 1.2);
        let scene = GaussianScene::from_gaussians(vec![Gaussian3d::from_activated(
            Vec3::new(0.0, 0.0, 2.0),
            Vec3::splat(2.0),
            Quat::IDENTITY,
            0.9,
            Vec3::X,
        )]);
        let trace = trace_of(&scene, &cam);
        let (_, _, oracle) = render_frame_aos(&scene, &Se3::IDENTITY, &cam, None);
        assert_eq!(trace.pixel_workloads, oracle.pixel_workloads);
        let subtiles = trace.subtile_workloads();
        assert_eq!(subtiles.len(), 4);
        for (i, lanes) in subtiles.iter().enumerate() {
            let (sx, sy) = (i % 2 * SUBTILE_SIZE, i / 2 * SUBTILE_SIZE);
            for (lane, &workload) in lanes.iter().enumerate() {
                let (x, y) = (sx + lane % SUBTILE_SIZE, sy + lane / SUBTILE_SIZE);
                if x >= w || y >= h {
                    assert_eq!(workload, 0, "subtile {i}, lane {lane}");
                } else {
                    assert_eq!(workload, 1, "subtile {i}, lane {lane}");
                }
            }
        }
    }

    #[test]
    fn subtile_count_covers_image() {
        let t = make_trace();
        assert_eq!(t.subtile_workloads().len(), (32 / 4) * (32 / 4));
    }

    #[test]
    fn identical_traces_are_perfectly_similar() {
        let t = make_trace();
        assert_eq!(t.workload_similarity(&t.clone()), 0.0);
    }

    #[test]
    fn histogram_counts_all_pixels() {
        let t = make_trace();
        let h = t.workload_histogram(&[1, 2, 4]);
        assert_eq!(h.iter().sum::<usize>(), 32 * 32);
    }

    #[test]
    fn synthetic_trace_statistics() {
        // Hand-built trace to pin down the statistics.
        let trace = WorkloadTrace {
            width: 4,
            height: 4,
            pixel_workloads: vec![0, 0, 0, 0, 0, 0, 0, 0, 8, 8, 8, 8, 0, 0, 0, 0],
            tiles_x: 1,
            tiles_y: 1,
            tile_gaussian_ids: vec![vec![0]],
            fragments_blended: 32,
            visible_gaussians: 1,
        };
        assert_eq!(trace.total_fragments(), 32);
        assert!((trace.mean_pixel_workload() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn render_output_struct_is_cloneable() {
        // Compile-time sanity for downstream storage of outputs.
        let out = RenderOutput {
            image: Image::new(2, 2),
            depth: DepthImage::new(2, 2),
            final_transmittance: vec![1.0; 4],
            stats: RenderStats::default(),
        };
        let _ = out.clone();
    }
}
