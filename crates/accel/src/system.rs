//! System-level simulation: frames-per-second and energy for a whole SLAM
//! run on a chosen hardware target (paper Sec. 6.3).

use crate::devices::{DeviceSpec, GpuSpec, TechNode};
use crate::energy::{static_energy, EnergyTable, GPU_FRAGMENT_PJ};
use crate::gpu::{gpu_iteration, GpuIterationCycles};
use crate::plugin::{PluginConfig, PluginIterationCycles};
use rtgs_render::WorkloadTrace;

/// The hardware target of a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum HardwareModel {
    /// A bare GPU (ONX or RTX 3090), optionally with DISTWAR's warp-level
    /// gradient merging.
    Gpu {
        /// GPU capability.
        spec: GpuSpec,
        /// Enable DISTWAR-style warp-level merging.
        distwar: bool,
        /// Device power envelope for the energy model.
        power_w: f64,
    },
    /// A GPU with an attached plug-in (RTGS or GauSPU-style); the GPU keeps
    /// preprocessing and sorting (Sec. 5.5).
    Plugin {
        /// Plug-in feature configuration.
        config: PluginConfig,
        /// Synthesis node (drives power/energy scaling).
        node: TechNode,
        /// Host GPU.
        host: GpuSpec,
        /// Plug-in power envelope.
        power_w: f64,
    },
}

impl HardwareModel {
    /// The ONX edge GPU baseline.
    pub fn onx() -> Self {
        HardwareModel::Gpu {
            spec: GpuSpec::onx(),
            distwar: false,
            power_w: DeviceSpec::onx().power_w,
        }
    }

    /// ONX with DISTWAR.
    pub fn onx_distwar() -> Self {
        HardwareModel::Gpu {
            spec: GpuSpec::onx(),
            distwar: true,
            power_w: DeviceSpec::onx().power_w,
        }
    }

    /// RTX 3090 (the GauSPU comparison platform).
    pub fn rtx3090() -> Self {
        HardwareModel::Gpu {
            spec: GpuSpec::rtx3090(),
            distwar: false,
            power_w: DeviceSpec::rtx3090().power_w,
        }
    }

    /// The full RTGS plug-in on the ONX at 28 nm.
    pub fn rtgs() -> Self {
        HardwareModel::Plugin {
            config: PluginConfig::rtgs(),
            node: TechNode::N28,
            host: GpuSpec::onx(),
            power_w: DeviceSpec::rtgs(TechNode::N28).power_w,
        }
    }

    /// The RTGS plug-in attached to an RTX 3090 (Tab. 7 / Fig. 16 setup).
    pub fn rtgs_on_rtx3090() -> Self {
        HardwareModel::Plugin {
            config: PluginConfig::rtgs(),
            node: TechNode::N28,
            host: GpuSpec::rtx3090(),
            power_w: DeviceSpec::rtgs(TechNode::N28).power_w,
        }
    }

    /// A GauSPU-style plug-in on the RTX 3090.
    pub fn gauspu() -> Self {
        HardwareModel::Plugin {
            config: PluginConfig::gauspu(),
            node: TechNode::N12,
            host: GpuSpec::rtx3090(),
            power_w: DeviceSpec::gauspu().power_w,
        }
    }

    /// Clock frequency of the compute that dominates iteration latency.
    pub fn frequency_hz(&self) -> u64 {
        match self {
            HardwareModel::Gpu { spec, .. } => spec.frequency_hz,
            HardwareModel::Plugin { config, .. } => config.arch.frequency_hz,
        }
    }
}

/// One frame's workload: the per-iteration traces of tracking and (for
/// keyframes) mapping.
#[derive(Debug, Clone, Default)]
pub struct FrameWorkload {
    /// Tracking iteration traces, in order.
    pub tracking: Vec<WorkloadTrace>,
    /// Mapping iteration traces (keyframes only).
    pub mapping: Vec<WorkloadTrace>,
    /// Whether the frame was a keyframe.
    pub is_keyframe: bool,
}

/// A whole run's workload, as a [`crate::TraceRecorder`] wrapped around
/// the session's extension records it.
#[derive(Debug, Clone, Default)]
pub struct RunWorkload {
    /// Per-frame workloads.
    pub frames: Vec<FrameWorkload>,
}

/// Unified per-iteration cycle breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IterationCost {
    /// Cycles per stage: preprocess, sorting, forward, backward,
    /// aggregation, preprocessing BP.
    pub stages: [u64; 6],
    /// Dynamic energy in nanojoules.
    pub dynamic_nj: u64,
}

impl IterationCost {
    /// Total cycles.
    pub fn total_cycles(&self) -> u64 {
        self.stages.iter().sum()
    }
}

/// Simulation result for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunCost {
    /// Frames simulated.
    pub frames: usize,
    /// Total cycles including mapping.
    pub total_cycles: u64,
    /// Cycles spent in tracking only.
    pub tracking_cycles: u64,
    /// Clock frequency used for time conversion.
    pub frequency_hz: u64,
    /// End-to-end frames per second (tracking + mapping).
    pub overall_fps: f64,
    /// Tracking-only frames per second.
    pub tracking_fps: f64,
    /// Mean energy per frame in joules.
    pub energy_per_frame_j: f64,
}

/// Models one iteration on the chosen hardware. `prev` is the previous
/// iteration's trace (for the WSU pairing reuse).
///
/// Every modelled target runs the full backward on every iteration, which
/// yields one gradient per fragment the forward blended: the backward's
/// cycles and energy are priced from the trace's forward workload
/// (`pixel_workloads`, `fragments_blended`). A trace therefore says nothing
/// about which backward the software ran.
pub fn iteration_cost(
    trace: &WorkloadTrace,
    prev: Option<&WorkloadTrace>,
    hw: &HardwareModel,
) -> IterationCost {
    match hw {
        HardwareModel::Gpu { spec, distwar, .. } => {
            let c: GpuIterationCycles = gpu_iteration(trace, spec, *distwar);
            let frag = trace.total_fragments() + trace.fragments_blended;
            IterationCost {
                stages: [
                    c.preprocess,
                    c.sorting,
                    c.forward,
                    c.backward,
                    c.aggregation,
                    c.preprocess_bp,
                ],
                dynamic_nj: (frag as f64 * GPU_FRAGMENT_PJ / 1000.0) as u64,
            }
        }
        HardwareModel::Plugin {
            config, node, host, ..
        } => {
            let c: PluginIterationCycles =
                crate::plugin::plugin_iteration_on_host(trace, prev, config, host);
            let e = EnergyTable::scaled(*node);
            let fwd_frag = trace.total_fragments() as f64;
            let bwd_frag = trace.fragments_blended as f64;
            let visible = trace.visible_gaussians as f64;
            // Gaussian parameter traffic: visible Gaussians at 236 B with an
            // L2-resident working set (the paper measures 21.5% DRAM /
            // 43.6% L2 utilization — most traffic stays on-chip).
            let dram_bytes = visible * 236.0 * 0.2;
            let sram_bytes = (fwd_frag + bwd_frag) * 48.0;
            let host_ops = visible * 2.0; // preprocessing + sorting on SMs
            let dynamic_pj = fwd_frag * e.fragment_forward_pj
                + bwd_frag * e.fragment_backward_pj
                + bwd_frag * e.gmu_merge_pj
                + visible * e.pbc_pj
                + dram_bytes * e.dram_byte_pj
                + sram_bytes * e.sram_byte_pj
                + host_ops * GPU_FRAGMENT_PJ * 0.25;
            IterationCost {
                stages: [
                    c.preprocess,
                    c.sorting,
                    c.forward,
                    c.backward,
                    c.aggregation,
                    c.preprocess_bp,
                ],
                dynamic_nj: (dynamic_pj / 1000.0) as u64,
            }
        }
    }
}

/// Simulates a whole run. With `include_mapping == false` only tracking is
/// accelerated/timed (the "Ours w/o Mapping" configuration of Fig. 15a) —
/// mapping then runs at baseline-GPU speed.
pub fn simulate_run(run: &RunWorkload, hw: &HardwareModel, include_mapping: bool) -> RunCost {
    let freq = hw.frequency_hz();
    let baseline = HardwareModel::onx();
    let mut total_cycles = 0u64;
    let mut tracking_cycles = 0u64;
    let mut dynamic_nj = 0u64;
    let mut frames = 0usize;

    for frame in &run.frames {
        frames += 1;
        let mut prev: Option<&WorkloadTrace> = None;
        for trace in &frame.tracking {
            let c = iteration_cost(trace, prev, hw);
            tracking_cycles += c.total_cycles();
            dynamic_nj += c.dynamic_nj;
            prev = Some(trace);
        }
        let mut map_cycles = 0u64;
        let mut prev_map: Option<&WorkloadTrace> = None;
        for trace in &frame.mapping {
            let c = if include_mapping {
                iteration_cost(trace, prev_map, hw)
            } else {
                // Mapping stays on the baseline GPU.
                iteration_cost(trace, prev_map, &baseline)
            };
            map_cycles += c.total_cycles();
            dynamic_nj += c.dynamic_nj;
            prev_map = Some(trace);
        }
        // When mapping is not accelerated it runs at the GPU's clock.
        let map_cycles_at_freq = if include_mapping {
            map_cycles
        } else {
            // Convert baseline-GPU cycles into this model's clock domain.
            (map_cycles as f64 * freq as f64 / baseline.frequency_hz() as f64) as u64
        };
        total_cycles += map_cycles_at_freq;
    }
    total_cycles += tracking_cycles;

    let seconds = total_cycles as f64 / freq as f64;
    let power = match hw {
        HardwareModel::Gpu { power_w, .. } => *power_w,
        // The plug-in plus the lightly loaded host GPU (pre/sort only).
        HardwareModel::Plugin { power_w, .. } => *power_w + 0.15 * DeviceSpec::onx().power_w,
    };
    let static_j = static_energy(power, seconds, 0.55);
    let energy = static_j + dynamic_nj as f64 * 1e-9;

    RunCost {
        frames,
        total_cycles,
        tracking_cycles,
        frequency_hz: freq,
        overall_fps: if seconds > 0.0 {
            frames as f64 / seconds
        } else {
            0.0
        },
        tracking_fps: if tracking_cycles > 0 {
            frames as f64 * freq as f64 / tracking_cycles as f64
        } else {
            0.0
        },
        energy_per_frame_j: if frames > 0 {
            energy / frames as f64
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtgs_render::TILE_SIZE;

    fn trace(w: usize, h: usize, workload: u32) -> WorkloadTrace {
        let tiles_x = w.div_ceil(TILE_SIZE);
        let tiles_y = h.div_ceil(TILE_SIZE);
        let tiles = tiles_x * tiles_y;
        WorkloadTrace {
            width: w,
            height: h,
            pixel_workloads: vec![workload; w * h],
            tiles_x,
            tiles_y,
            tile_gaussian_ids: vec![(0..24).collect(); tiles],
            fragments_blended: (w * h) as u64 * workload as u64,
            visible_gaussians: 24 * tiles,
        }
    }

    fn run_of(frames: usize, kf_interval: usize) -> RunWorkload {
        RunWorkload {
            frames: (0..frames)
                .map(|i| {
                    let is_kf = i % kf_interval == 0;
                    FrameWorkload {
                        tracking: vec![trace(64, 48, 22); 6],
                        mapping: if is_kf {
                            vec![trace(64, 48, 22); 8]
                        } else {
                            vec![]
                        },
                        is_keyframe: is_kf,
                    }
                })
                .collect(),
        }
    }

    #[test]
    fn rtgs_is_much_faster_than_onx() {
        let run = run_of(6, 3);
        let base = simulate_run(&run, &HardwareModel::onx(), true);
        let ours = simulate_run(&run, &HardwareModel::rtgs(), true);
        let speedup = ours.overall_fps / base.overall_fps;
        assert!(speedup > 2.0, "expected a clear speedup, got {speedup:.1}x");
    }

    #[test]
    fn distwar_helps_but_less_than_rtgs() {
        let run = run_of(6, 3);
        let base = simulate_run(&run, &HardwareModel::onx(), true);
        let dw = simulate_run(&run, &HardwareModel::onx_distwar(), true);
        let ours = simulate_run(&run, &HardwareModel::rtgs(), true);
        assert!(dw.overall_fps > base.overall_fps);
        assert!(ours.overall_fps > dw.overall_fps);
    }

    #[test]
    fn tracking_only_acceleration_is_slower_than_full() {
        let run = run_of(6, 2);
        let partial = simulate_run(&run, &HardwareModel::rtgs(), false);
        let full = simulate_run(&run, &HardwareModel::rtgs(), true);
        assert!(full.overall_fps > partial.overall_fps);
        // Tracking FPS is the same in both configurations.
        assert!((full.tracking_fps - partial.tracking_fps).abs() < 1e-6);
    }

    #[test]
    fn rtgs_is_more_energy_efficient() {
        let run = run_of(6, 3);
        let base = simulate_run(&run, &HardwareModel::onx(), true);
        let ours = simulate_run(&run, &HardwareModel::rtgs(), true);
        let gain = base.energy_per_frame_j / ours.energy_per_frame_j;
        assert!(gain > 2.0, "expected a clear energy gain, got {gain:.1}x");
    }

    #[test]
    fn rtx3090_beats_onx() {
        let run = run_of(4, 2);
        let onx = simulate_run(&run, &HardwareModel::onx(), true);
        let rtx = simulate_run(&run, &HardwareModel::rtx3090(), true);
        assert!(rtx.overall_fps > onx.overall_fps);
    }

    #[test]
    fn empty_run_is_zero() {
        let cost = simulate_run(&RunWorkload::default(), &HardwareModel::onx(), true);
        assert_eq!(cost.frames, 0);
        assert_eq!(cost.overall_fps, 0.0);
    }
}
