//! Cycle model of the baseline edge GPU executing the 3DGS-SLAM kernels,
//! including the atomic-add serialization of gradient aggregation
//! (paper Observation 4) and the DISTWAR warp-level merging optimization.
//!
//! The model is analytic but driven by *real* workload traces from the
//! renderer: per-pixel fragment counts give warp divergence, per-tile
//! Gaussian populations give atomic conflict degrees. Constants are
//! calibrated so the model reproduces the paper's measured ratios
//! (forward/backward split of Fig. 3b, DISTWAR's end-to-end gain,
//! and the ~2.5× gap to the bare RTGS datapath of Fig. 17b).

use crate::devices::GpuSpec;
use rtgs_render::{WorkloadTrace, TILE_SIZE};

/// Cycles one CUDA thread spends per fragment in forward rendering
/// (alpha computing + blending, Eq. 2–3).
pub const FRAG_FWD_CYCLES: u64 = 45;

/// Cycles per fragment in rendering backpropagation *excluding* atomics
/// (alpha/transmittance recomputation + gradient math).
pub const FRAG_BWD_CYCLES: u64 = 110;

/// Scalar atomic-add groups issued per fragment gradient
/// (color ×3, mean ×2, conic ×3, opacity ×1).
pub const ATOMIC_GROUPS: u64 = 9;

/// Cycles per (conflict-free) atomic-add group.
pub const ATOMIC_CYCLES: u64 = 2;

/// Extra per-fragment cycles DISTWAR spends on warp-level butterfly
/// reduction before issuing atomics.
pub const DISTWAR_MERGE_CYCLES: u64 = 6;

/// Preprocessing cycles per visible Gaussian (projection + 2D covariance).
pub const PREPROCESS_CYCLES: u64 = 180;

/// Sorting cycles per tile–Gaussian intersection pair.
pub const SORT_CYCLES: u64 = 14;

/// Per-stage cycle breakdown of one iteration on the GPU.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GpuIterationCycles {
    /// Step ❶ Preprocessing.
    pub preprocess: u64,
    /// Step ❷ Sorting.
    pub sorting: u64,
    /// Step ❸ Rendering.
    pub forward: u64,
    /// Step ❹ Rendering BP compute (excluding aggregation stalls).
    pub backward: u64,
    /// Gradient-aggregation stalls (atomic serialization).
    pub aggregation: u64,
    /// Step ❺ Preprocessing BP.
    pub preprocess_bp: u64,
}

impl GpuIterationCycles {
    /// Total cycles of the iteration.
    pub fn total(&self) -> u64 {
        self.preprocess
            + self.sorting
            + self.forward
            + self.backward
            + self.aggregation
            + self.preprocess_bp
    }
}

/// Models one full tracking/mapping iteration (Steps ❶–❺) on the GPU.
/// Rendering BP and its aggregation walk the forward's per-pixel fragments:
/// the GPU runs the full backward on every iteration ([`crate::iteration_cost`]).
///
/// `distwar` enables warp-level gradient merging (DISTWAR), which reduces
/// atomic serialization at a small per-fragment merge cost.
pub fn gpu_iteration(trace: &WorkloadTrace, gpu: &GpuSpec, distwar: bool) -> GpuIterationCycles {
    let parallelism = (gpu.sms * gpu.warps_per_sm) as u64;

    // ---- Forward / backward / aggregation: warp-lockstep model -----------
    // A warp advances through fragments in lockstep (one Gaussian per step
    // for all 32 pixels), so a warp's time is its worst lane's fragment
    // count. During backpropagation every step additionally issues the
    // fragment's atomic-add groups; since all lanes of a step update the
    // *same* Gaussian, the adds serialize up to the effective degree the L2
    // atomic pipeline cannot hide.
    let mut fwd_warp_cycles = 0u64;
    let mut bwd_warp_cycles = 0u64;
    let mut aggregation = 0u64;
    for ty in 0..trace.tiles_y {
        for tx in 0..trace.tiles_x {
            let tile_idx = ty * trace.tiles_x + tx;
            let frag_tile = tile_fragments(trace, tile_idx);
            let unique = trace.tile_gaussian_ids[tile_idx].len().max(1) as u64;
            let degree = (frag_tile / unique).clamp(1, 12);
            let per_step = if distwar {
                // Warp-level merging collapses same-address updates into one
                // atomic at a butterfly-reduction cost. Gaussian sparsity in
                // SLAM limits the benefit (Tab. 1 note 6).
                ATOMIC_GROUPS * (ATOMIC_CYCLES / degree.min(2) + DISTWAR_MERGE_CYCLES / 2)
            } else {
                ATOMIC_GROUPS * ATOMIC_CYCLES * degree
            };
            for_each_warp_in_tile(trace, tx, ty, gpu.warp_size, |warp_workloads| {
                let max = warp_workloads.iter().copied().max().unwrap_or(0) as u64;
                fwd_warp_cycles += max * FRAG_FWD_CYCLES;
                bwd_warp_cycles += max * FRAG_BWD_CYCLES;
                aggregation += max * per_step;
            });
        }
    }

    // ---- Per-Gaussian stages ---------------------------------------------
    let visible = trace.visible_gaussians as u64;
    let thread_parallelism = (gpu.sms * gpu.warps_per_sm * gpu.warp_size) as u64;
    let preprocess = visible * PREPROCESS_CYCLES / thread_parallelism.max(1) + 400;
    let sorting = trace.tile_intersections() * SORT_CYCLES / parallelism.max(1) + 600;
    let preprocess_bp = visible * (PREPROCESS_CYCLES / 2) / thread_parallelism.max(1) + 200;

    GpuIterationCycles {
        preprocess,
        sorting,
        forward: fwd_warp_cycles / parallelism.max(1) + 200,
        backward: bwd_warp_cycles / parallelism.max(1) + 200,
        // Atomic serialization is an L2-side bottleneck: it does NOT scale
        // with SM count (which is why even an RTX 3090 stays slow on
        // gradient aggregation, Tab. 7). Fixed L2 atomic pipelining of ~24
        // concurrent adds.
        aggregation: aggregation / 24,
        preprocess_bp,
    }
}

/// Sum of per-pixel fragment counts inside one tile.
pub(crate) fn tile_fragments(trace: &WorkloadTrace, tile_idx: usize) -> u64 {
    let tx = tile_idx % trace.tiles_x;
    let ty = tile_idx / trace.tiles_x;
    let x0 = tx * TILE_SIZE;
    let y0 = ty * TILE_SIZE;
    let mut total = 0u64;
    for y in y0..(y0 + TILE_SIZE).min(trace.height) {
        for x in x0..(x0 + TILE_SIZE).min(trace.width) {
            total += trace.pixel_workloads[y * trace.width + x] as u64;
        }
    }
    total
}

/// Chunks one tile's pixels into warps and passes each warp's per-pixel
/// workloads to `f`.
fn for_each_warp_in_tile(
    trace: &WorkloadTrace,
    tx: usize,
    ty: usize,
    warp_size: usize,
    mut f: impl FnMut(&[u32]),
) {
    let mut warp: Vec<u32> = Vec::with_capacity(warp_size);
    let x0 = tx * TILE_SIZE;
    let y0 = ty * TILE_SIZE;
    for y in y0..(y0 + TILE_SIZE).min(trace.height) {
        for x in x0..(x0 + TILE_SIZE).min(trace.width) {
            warp.push(trace.pixel_workloads[y * trace.width + x]);
            if warp.len() == warp_size {
                f(&warp);
                warp.clear();
            }
        }
    }
    if !warp.is_empty() {
        f(&warp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_trace(
        w: usize,
        h: usize,
        workload: u32,
        gaussians_per_tile: usize,
    ) -> WorkloadTrace {
        let tiles_x = w.div_ceil(TILE_SIZE);
        let tiles_y = h.div_ceil(TILE_SIZE);
        let tiles = tiles_x * tiles_y;
        WorkloadTrace {
            width: w,
            height: h,
            pixel_workloads: vec![workload; w * h],
            tiles_x,
            tiles_y,
            tile_gaussian_ids: vec![(0..gaussians_per_tile as u32).collect(); tiles],
            fragments_blended: (w * h) as u64 * workload as u64,
            visible_gaussians: gaussians_per_tile * tiles,
        }
    }

    #[test]
    fn backward_dominates_forward() {
        // Observation 2/4: rendering BP (incl. aggregation) costs more than
        // forward rendering.
        let trace = uniform_trace(64, 64, 20, 8);
        let c = gpu_iteration(&trace, &GpuSpec::onx(), false);
        assert!(c.backward + c.aggregation > c.forward);
    }

    #[test]
    fn distwar_reduces_aggregation_only() {
        let trace = uniform_trace(64, 64, 30, 4); // high conflict degree
        let base = gpu_iteration(&trace, &GpuSpec::onx(), false);
        let dw = gpu_iteration(&trace, &GpuSpec::onx(), true);
        assert!(dw.aggregation < base.aggregation);
        assert_eq!(dw.forward, base.forward);
        assert_eq!(dw.backward, base.backward);
        assert!(dw.total() < base.total());
    }

    #[test]
    fn distwar_benefit_shrinks_with_sparsity() {
        // Many unique Gaussians per tile -> low conflict degree -> little
        // DISTWAR gain (the paper's Tab. 1 note 6).
        let dense = uniform_trace(64, 64, 30, 2);
        let sparse = uniform_trace(64, 64, 30, 200);
        let gain = |t: &WorkloadTrace| {
            let b = gpu_iteration(t, &GpuSpec::onx(), false).total() as f64;
            let d = gpu_iteration(t, &GpuSpec::onx(), true).total() as f64;
            b / d
        };
        assert!(gain(&dense) > gain(&sparse));
    }

    #[test]
    fn more_fragments_cost_more() {
        let small = uniform_trace(64, 64, 5, 8);
        let big = uniform_trace(64, 64, 50, 8);
        assert!(
            gpu_iteration(&big, &GpuSpec::onx(), false).total()
                > gpu_iteration(&small, &GpuSpec::onx(), false).total()
        );
    }

    #[test]
    fn bigger_gpu_is_faster() {
        let trace = uniform_trace(96, 96, 25, 16);
        let onx = gpu_iteration(&trace, &GpuSpec::onx(), false);
        let rtx = gpu_iteration(&trace, &GpuSpec::rtx3090(), false);
        assert!(rtx.total() < onx.total());
    }

    #[test]
    fn imbalanced_warps_cost_more_than_balanced() {
        let mut balanced = uniform_trace(32, 32, 16, 8);
        let mut imbalanced = uniform_trace(32, 32, 0, 8);
        // Same total fragments, all concentrated on a few pixels per warp.
        for (i, w) in imbalanced.pixel_workloads.iter_mut().enumerate() {
            *w = if i % 32 == 0 { 16 * 32 } else { 0 };
        }
        balanced.fragments_blended = 32 * 32 * 16;
        imbalanced.fragments_blended = 32 * 32 * 16;
        let b = gpu_iteration(&balanced, &GpuSpec::onx(), false);
        let i = gpu_iteration(&imbalanced, &GpuSpec::onx(), false);
        assert!(i.forward > b.forward, "{} vs {}", i.forward, b.forward);
    }

    #[test]
    fn tile_fragments_sums_correctly() {
        let trace = uniform_trace(32, 32, 3, 8);
        assert_eq!(
            tile_fragments(&trace, 0),
            (TILE_SIZE * TILE_SIZE * 3) as u64
        );
    }
}
