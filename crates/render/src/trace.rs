//! Workload traces: the renderer-side measurements the hardware models
//! consume.
//!
//! The paper's cycle simulator is driven by memory-access and workload
//! traces extracted from real 3DGS-SLAM executions (Sec. 6.1, "Simulator
//! Test Trace Derivation"). [`WorkloadTrace`] plays that role here: it
//! captures per-pixel fragment workloads, per-tile Gaussian populations and
//! gradient-aggregation address streams from an actual render, so the
//! hardware models in `rtgs-accel` see genuine imbalance and collision
//! statistics. A trace observes the forward pass only; the models derive
//! the backward's work from it.

use crate::forward::RenderOutput;
use crate::tiles::{TileAssignment, SUBTILE_SIZE, TILE_SIZE};

/// Workload measurements from one rendering iteration.
#[derive(Debug, Clone)]
pub struct WorkloadTrace {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Fragments processed per pixel (row-major) — Fig. 6's quantity.
    pub pixel_workloads: Vec<u32>,
    /// Number of intersecting Gaussians per tile (row-major tile grid).
    pub tile_gaussian_counts: Vec<u32>,
    /// Tiles along x.
    pub tiles_x: usize,
    /// Tiles along y.
    pub tiles_y: usize,
    /// Depth-sorted Gaussian list per tile, as frame-local indices of the
    /// cull's gathered working set (not stable map IDs: the same index can
    /// name another Gaussian in another iteration's gather): the
    /// gradient-aggregation address stream seen by the GMU / atomic units.
    pub tile_gaussian_ids: Vec<Vec<u32>>,
    /// Total fragments blended in the forward pass.
    pub fragments_blended: u64,
    /// Number of Gaussians visible this iteration.
    pub visible_gaussians: usize,
}

impl WorkloadTrace {
    /// Assembles a trace from the forward output and tile assignment: the
    /// image gives the resolution, the tile assignment's slot list the
    /// visible Gaussians.
    pub fn from_render(output: &RenderOutput, tiles: &TileAssignment) -> Self {
        Self {
            width: output.image.width(),
            height: output.image.height(),
            pixel_workloads: output.pixel_workloads.clone(),
            tile_gaussian_counts: tiles.offsets.windows(2).map(|w| w[1] - w[0]).collect(),
            tiles_x: tiles.tiles_x,
            tiles_y: tiles.tiles_y,
            // Tile lists hold projection slots on the hot path; traces
            // report the Gaussians' frame-local indices in the cull's
            // gathered working set — the rows Step ❺ accumulates into.
            tile_gaussian_ids: (0..tiles.tile_count())
                .map(|t| tiles.tile_gaussian_ids(t))
                .collect(),
            fragments_blended: output.stats.fragments_blended,
            visible_gaussians: tiles.slot_ids.len(),
        }
    }

    /// Total fragments processed in the forward pass.
    pub fn total_fragments(&self) -> u64 {
        self.pixel_workloads.iter().map(|&w| w as u64).sum()
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
            && self.tile_gaussian_counts.len() == self.tiles_x * self.tiles_y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::{DepthImage, Image, PinholeCamera};
    use crate::forward::RenderStats;
    use crate::gaussian::{Gaussian3d, GaussianScene};
    use crate::{FrameArena, ShardedScene, DEFAULT_CELL_SIZE};
    use rtgs_math::{Quat, Se3, Vec3};
    use rtgs_runtime::Serial;

    fn make_trace() -> WorkloadTrace {
        let cam = PinholeCamera::from_fov(32, 32, 1.2);
        let scene = GaussianScene::from_gaussians(vec![Gaussian3d::from_activated(
            Vec3::new(0.0, 0.0, 2.0),
            Vec3::splat(0.5),
            Quat::IDENTITY,
            0.7,
            Vec3::X,
        )]);
        let mut arena = FrameArena::new();
        let map = ShardedScene::from_scene(&scene, DEFAULT_CELL_SIZE);
        arena.forward(&map, &Se3::IDENTITY, &cam, &Serial);
        WorkloadTrace::from_render(arena.output(), arena.tiles())
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
            tile_gaussian_counts: vec![1],
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
            pixel_workloads: vec![0; 4],
            stats: RenderStats::default(),
        };
        let _ = out.clone();
    }
}
