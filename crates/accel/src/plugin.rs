//! Cycle model of the RTGS plug-in (paper Sec. 5) and the GauSPU prior
//! design, driven by real workload traces.
//!
//! Models every unit of Fig. 7: Rendering Engines with RC/RBC pipelines,
//! the Workload Scheduling Unit (subtile streaming + pairwise pixel
//! scheduling reusing the previous iteration's completion order), the R&B
//! Buffer (alpha-gradient latency 20 → 4 cycles), the Gradient Merging
//! Units with Stage Buffer, and the Preprocessing Engines with the pose
//! merging tree.

use crate::config::{latency, ArchConfig};
use crate::gpu::tile_fragments;
use rtgs_render::{WorkloadTrace, SUBTILE_SIZE};

/// How fragment gradients are aggregated into per-Gaussian gradients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// Pipelined Gradient Merging Units + Stage Buffer (the RTGS design).
    Gmu,
    /// Atomic adds against the shared L2 (ablation baseline).
    Atomic,
}

/// How subtile workloads are scheduled onto pixel lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduling {
    /// Fixed pixel-to-lane mapping, REs advance in lockstep rounds.
    Static,
    /// Subtile-level streaming only (GauSPU-style): free REs pull the next
    /// subtile, but lanes within an RE stay fixed.
    Streaming,
    /// Streaming + pairwise heavy–light pixel scheduling guided by the
    /// previous iteration (the full WSU).
    StreamingPaired,
    /// Oracle: perfect workload balance (upper bound of Fig. 17a).
    Ideal,
}

/// Plug-in feature configuration (for the paper's ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PluginConfig {
    /// Architecture shape.
    pub arch: ArchConfig,
    /// Scheduling mode (WSU ablations, Fig. 17a).
    pub scheduling: Scheduling,
    /// Whether the R&B buffer supplies forward intermediates to the
    /// alpha-gradient unit (Fig. 17b "w/ R&B Buffer").
    pub rb_buffer: bool,
    /// Gradient aggregation mechanism (Fig. 17b "w/ GMU").
    pub aggregation: Aggregation,
}

impl PluginConfig {
    /// The full RTGS design.
    pub fn rtgs() -> Self {
        Self {
            arch: ArchConfig::paper(),
            scheduling: Scheduling::StreamingPaired,
            rb_buffer: true,
            aggregation: Aggregation::Gmu,
        }
    }

    /// The bare datapath: dedicated pipelines but no WSU, no R&B reuse,
    /// atomic aggregation (the "w/ Pipeline" step of Fig. 17b).
    pub fn bare() -> Self {
        Self {
            arch: ArchConfig::paper(),
            scheduling: Scheduling::Static,
            rb_buffer: false,
            aggregation: Aggregation::Atomic,
        }
    }

    /// GauSPU-style prior plug-in: more REs, tile-level streaming but no
    /// pixel pairing, gradient merging but no R&B-style reuse in blending
    /// BP (Tab. 1 row comparison).
    pub fn gauspu() -> Self {
        Self {
            arch: ArchConfig {
                rendering_engines: 128,
                cores_per_re: 1,
                preprocessing_engines: 32,
                gaussians_per_pe: 8,
                gmus: 8,
                frequency_hz: 500_000_000,
                subtile_pixels: 16,
            },
            scheduling: Scheduling::Streaming,
            rb_buffer: false,
            aggregation: Aggregation::Gmu,
        }
    }
}

/// Per-stage cycle breakdown of one iteration on the plug-in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PluginIterationCycles {
    /// GPU-side Step ❶ Preprocessing (the GPU keeps these stages).
    pub preprocess: u64,
    /// GPU-side Step ❷ Sorting.
    pub sorting: u64,
    /// Step ❸ Rendering on the REs.
    pub forward: u64,
    /// Step ❹ Rendering BP on the RBCs.
    pub backward: u64,
    /// Gradient aggregation (GMU or atomic).
    pub aggregation: u64,
    /// Step ❺ Preprocessing BP on the PEs + merging tree.
    pub preprocess_bp: u64,
}

impl PluginIterationCycles {
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

/// Models one iteration on the plug-in. `prev_trace` supplies the previous
/// iteration's workload distribution for the WSU's pairing configuration
/// (Observation 6: distributions are similar across iterations, so the
/// stale pairing stays near-optimal). Pass `None` on the first iteration —
/// pairing then falls back to naive adjacent pairing.
pub fn plugin_iteration(
    trace: &WorkloadTrace,
    prev_trace: Option<&WorkloadTrace>,
    config: &PluginConfig,
) -> PluginIterationCycles {
    plugin_iteration_on_host(trace, prev_trace, config, &crate::devices::GpuSpec::onx())
}

/// [`plugin_iteration`] with an explicit host GPU (the host keeps
/// preprocessing and sorting, so its capability matters for those stages).
pub fn plugin_iteration_on_host(
    trace: &WorkloadTrace,
    prev_trace: Option<&WorkloadTrace>,
    config: &PluginConfig,
    host: &crate::devices::GpuSpec,
) -> PluginIterationCycles {
    let lanes = config.arch.subtile_pixels;
    let res = config.arch.rendering_engines as u64;

    // Per-subtile lane workloads, current and previous iteration.
    let subtiles = trace.subtile_workloads();
    let prev_subtiles = prev_trace.map(|t| t.subtile_workloads());

    // Initiation intervals per fragment.
    let ii_fwd = 1u64;
    let ii_bwd = if config.rb_buffer {
        // Balanced RBC pipeline (Fig. 8): the 4-cycle alpha gradient hides
        // behind the two dedicated 8-cycle 2D-gradient units.
        latency::ALPHA_GRAD_REUSE
    } else {
        latency::ALPHA_GRAD_RECOMPUTE
    };
    let fill_fwd = latency::ALPHA_COMPUTE + latency::ALPHA_BLEND;
    let fill_bwd = latency::ALPHA_GRAD_RECOMPUTE.max(latency::GRAD_2D);

    // Per-subtile cycle cost under the configured scheduling.
    let mut sub_fwd: Vec<u64> = Vec::with_capacity(subtiles.len());
    let mut sub_bwd: Vec<u64> = Vec::with_capacity(subtiles.len());
    for (i, lanes_now) in subtiles.iter().enumerate() {
        let effective = match config.scheduling {
            Scheduling::Static | Scheduling::Streaming => {
                *lanes_now.iter().max().unwrap_or(&0) as u64
            }
            Scheduling::StreamingPaired => {
                let prev = prev_subtiles.as_ref().and_then(|p| p.get(i));
                paired_cost(lanes_now, prev.map(|p| &p[..]))
            }
            Scheduling::Ideal => {
                let total: u64 = lanes_now.iter().map(|&w| w as u64).sum();
                total.div_ceil(lanes as u64)
            }
        };
        sub_fwd.push(effective * ii_fwd + fill_fwd);
        sub_bwd.push(effective * ii_bwd + fill_bwd);
    }

    // RE-level assignment: streaming balances across REs; static executes
    // rounds of `res` subtiles in lockstep.
    let forward = assign_res(&sub_fwd, res, config.scheduling);
    let backward = assign_res(&sub_bwd, res, config.scheduling);

    // ---- Aggregation ------------------------------------------------------
    let aggregation = match config.aggregation {
        Aggregation::Gmu => gmu_cycles(trace, config),
        Aggregation::Atomic => atomic_cycles(trace, &()),
    };

    // ---- PE stage (Step ❺) -----------------------------------------------
    let touched = trace.visible_gaussians as u64;
    let pe_lanes = config.arch.total_pe_lanes() as u64;
    let preprocess_bp =
        touched.div_ceil(pe_lanes.max(1)) * latency::PBC + latency::MERGE_TREE_LEVELS;

    // ---- GPU-side preprocessing + sorting (Sec. 5.5 partitioning) ---------
    // Same work as on the baseline GPU (the plug-in does not accelerate it).
    let thread_parallelism = (host.sms * host.warps_per_sm * host.warp_size) as u64;
    let visible = trace.visible_gaussians as u64;
    let preprocess = visible * crate::gpu::PREPROCESS_CYCLES / thread_parallelism.max(1) + 400;
    let sorting = trace.tile_intersections() * crate::gpu::SORT_CYCLES
        / ((host.sms * host.warps_per_sm) as u64).max(1)
        + 600;

    PluginIterationCycles {
        preprocess,
        sorting,
        forward,
        backward,
        aggregation,
        preprocess_bp,
    }
}

/// Pairwise heavy–light scheduling: pixels are paired using the *previous*
/// iteration's per-lane workloads (completion-order FIFO/LIFO pairing,
/// Fig. 9); each pair's two lanes co-operate, so a pair finishes in
/// `ceil((w_a + w_b) / 2)` cycles. The subtile finishes with its slowest
/// pair.
fn paired_cost(now: &[u32; SUBTILE_SIZE * SUBTILE_SIZE], prev: Option<&[u32]>) -> u64 {
    let n = now.len();
    // Ranking from the previous iteration (stale but similar); fall back to
    // current-adjacent pairing when unavailable.
    let mut order: Vec<usize> = (0..n).collect();
    if let Some(prev) = prev {
        order.sort_by_key(|&i| prev.get(i).copied().unwrap_or(0));
    }
    // Pair lightest with heaviest (FIFO of light pixels against LIFO of
    // heavy pixels).
    let mut worst = 0u64;
    for k in 0..n / 2 {
        let a = now[order[k]] as u64;
        let b = now[order[n - 1 - k]] as u64;
        worst = worst.max((a + b).div_ceil(2));
    }
    worst
}

/// Distributes per-subtile costs over the REs.
fn assign_res(sub_costs: &[u64], res: u64, scheduling: Scheduling) -> u64 {
    if sub_costs.is_empty() {
        return 0;
    }
    match scheduling {
        Scheduling::Static => {
            // Lockstep rounds of `res` subtiles: each round costs its max.
            sub_costs
                .chunks(res as usize)
                .map(|round| round.iter().copied().max().unwrap_or(0))
                .sum()
        }
        _ => {
            // Streaming: REs pull work greedily; bounded below by the mean
            // and above by mean + max (standard list-scheduling bound). Use
            // the greedy longest-processing-time estimate.
            let total: u64 = sub_costs.iter().sum();
            let max = sub_costs.iter().copied().max().unwrap_or(0);
            (total.div_ceil(res)).max(max)
        }
    }
}

/// GMU aggregation: the Benes network + merging trees accept one fragment
/// gradient per cycle per GMU group, and the Stage Buffer absorbs
/// per-Gaussian accumulation without stalls (evictable entries, Sec. 5.3).
/// The full backward yields one fragment gradient per fragment the forward
/// blended ([`crate::iteration_cost`] states the choice).
fn gmu_cycles(trace: &WorkloadTrace, config: &PluginConfig) -> u64 {
    let gmus = config.arch.gmus as u64;
    let frag = trace.fragments_blended;
    // Each GMU group merges gradients from four REs through a pipelined
    // bypass tree (Fig. 11), sustaining ~12 merged fragments per cycle per
    // GMU after fill.
    let tree_throughput = 12 * gmus;
    let unique_updates: u64 = trace.tile_gaussian_ids.iter().map(|l| l.len() as u64).sum();
    frag / tree_throughput.max(1) + unique_updates / gmus.max(1) / 8 + 32
}

/// Atomic aggregation inside the plug-in (ablation): fragment gradients
/// update per-Gaussian accumulators in the shared L2. The 256 lanes issue
/// concurrently and the L2 banks pipeline the adds, but same-address bursts
/// still stall; the effective aggregate throughput is ~12 fragment-gradient
/// bursts per cycle (calibrated so the GMU's measured ~68% latency
/// reduction over atomics is reproduced on real traces).
fn atomic_cycles(trace: &WorkloadTrace, _config: &()) -> u64 {
    let mut frags = 0u64;
    for tile_idx in 0..trace.tile_gaussian_ids.len() {
        frags += tile_fragments(trace, tile_idx);
    }
    frags / 12
}

/// Average workload-imbalance factor of a trace under a scheduling mode:
/// achieved cycles over ideal cycles (1.0 = perfect). Used by Fig. 17a.
pub fn imbalance_factor(
    trace: &WorkloadTrace,
    prev: Option<&WorkloadTrace>,
    scheduling: Scheduling,
) -> f64 {
    let mut config = PluginConfig::rtgs();
    config.scheduling = scheduling;
    let achieved = plugin_iteration(trace, prev, &config).forward as f64;
    config.scheduling = Scheduling::Ideal;
    let ideal = plugin_iteration(trace, prev, &config).forward as f64;
    if ideal <= 0.0 {
        1.0
    } else {
        achieved / ideal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtgs_render::TILE_SIZE;

    fn trace_with_pattern(w: usize, h: usize, f: impl Fn(usize, usize) -> u32) -> WorkloadTrace {
        let tiles_x = w.div_ceil(TILE_SIZE);
        let tiles_y = h.div_ceil(TILE_SIZE);
        let tiles = tiles_x * tiles_y;
        let mut pw = vec![0u32; w * h];
        for y in 0..h {
            for x in 0..w {
                pw[y * w + x] = f(x, y);
            }
        }
        let total: u64 = pw.iter().map(|&v| v as u64).sum();
        WorkloadTrace {
            width: w,
            height: h,
            pixel_workloads: pw,
            tiles_x,
            tiles_y,
            tile_gaussian_ids: vec![(0..16).collect(); tiles],
            fragments_blended: total,
            visible_gaussians: 16 * tiles,
        }
    }

    #[test]
    fn rb_buffer_speeds_up_backward() {
        let trace = trace_with_pattern(64, 64, |_, _| 20);
        let with = plugin_iteration(&trace, None, &PluginConfig::rtgs());
        let mut cfg = PluginConfig::rtgs();
        cfg.rb_buffer = false;
        let without = plugin_iteration(&trace, None, &cfg);
        assert!(with.backward < without.backward);
        // The 20 -> 4 cycle reduction should approach 5x on backward.
        let ratio = without.backward as f64 / with.backward as f64;
        assert!(ratio > 3.0, "ratio {ratio}");
    }

    #[test]
    fn gmu_beats_atomics() {
        let trace = trace_with_pattern(64, 64, |_, _| 25);
        let gmu = plugin_iteration(&trace, None, &PluginConfig::rtgs());
        let mut cfg = PluginConfig::rtgs();
        cfg.aggregation = Aggregation::Atomic;
        let atomic = plugin_iteration(&trace, None, &cfg);
        assert!(gmu.aggregation < atomic.aggregation);
        // Paper: merging latency reduced ~68% on average.
        let reduction = 1.0 - gmu.aggregation as f64 / atomic.aggregation as f64;
        assert!(reduction > 0.4, "reduction {reduction}");
    }

    #[test]
    fn pairing_beats_static_on_imbalanced_work() {
        // Alternating heavy/light pixels inside each subtile.
        let trace = trace_with_pattern(64, 64, |x, y| if (x + y) % 2 == 0 { 40 } else { 2 });
        let static_f = imbalance_factor(&trace, None, Scheduling::Static);
        let streaming = imbalance_factor(&trace, Some(&trace), Scheduling::Streaming);
        let paired = imbalance_factor(&trace, Some(&trace), Scheduling::StreamingPaired);
        assert!(paired < streaming || (paired - streaming).abs() < 1e-9);
        assert!(paired < static_f);
        // Paired should approach the ideal (factor near 1).
        assert!(paired < 1.3, "paired factor {paired}");
    }

    #[test]
    fn stale_pairing_still_works_with_similar_distributions() {
        // Previous iteration slightly different but similarly shaped
        // (Observation 6).
        let now = trace_with_pattern(64, 64, |x, y| if (x + y) % 2 == 0 { 40 } else { 4 });
        let prev = trace_with_pattern(64, 64, |x, y| if (x + y) % 2 == 0 { 36 } else { 6 });
        let stale = imbalance_factor(&now, Some(&prev), Scheduling::StreamingPaired);
        let fresh = imbalance_factor(&now, Some(&now), Scheduling::StreamingPaired);
        assert!(
            (stale - fresh).abs() < 0.15,
            "stale {stale} vs fresh {fresh}"
        );
    }

    #[test]
    fn streaming_beats_static_on_unbalanced_subtiles() {
        // One busy tile, everything else empty.
        let trace = trace_with_pattern(128, 128, |x, y| if x < 16 && y < 16 { 60 } else { 1 });
        let mut cfg = PluginConfig::rtgs();
        cfg.scheduling = Scheduling::Static;
        let static_c = plugin_iteration(&trace, None, &cfg).forward;
        cfg.scheduling = Scheduling::Streaming;
        let stream_c = plugin_iteration(&trace, None, &cfg).forward;
        assert!(stream_c <= static_c);
    }

    #[test]
    fn gauspu_has_more_parallelism_but_slower_backward_per_fragment() {
        let trace = trace_with_pattern(64, 64, |_, _| 25);
        let rtgs = plugin_iteration(&trace, Some(&trace), &PluginConfig::rtgs());
        let gauspu = plugin_iteration(&trace, Some(&trace), &PluginConfig::gauspu());
        // GauSPU's 128 REs make forward fast, but no R&B buffer keeps
        // backward II at 20 cycles.
        let rtgs_bwd_ratio = rtgs.backward as f64 / rtgs.forward as f64;
        let gauspu_bwd_ratio = gauspu.backward as f64 / gauspu.forward as f64;
        assert!(gauspu_bwd_ratio > rtgs_bwd_ratio);
    }

    #[test]
    fn empty_trace_is_cheap() {
        let trace = trace_with_pattern(32, 32, |_, _| 0);
        let c = plugin_iteration(&trace, None, &PluginConfig::rtgs());
        assert!(c.forward < 2_000);
    }
}
