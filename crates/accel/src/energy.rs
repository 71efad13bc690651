//! Energy model: activity-based dynamic energy plus static power over the
//! execution window, with technology-node scaling (DeepScaleTool-style, as
//! used for Tab. 5's 12/8 nm rows).

use crate::devices::TechNode;

/// Per-event dynamic energies in picojoules at 28 nm, typical values for
/// the unit mix of Tab. 4 (MAC-dominated datapaths, small SRAMs, LPDDR5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyTable {
    /// One fragment through the forward RC pipeline.
    pub fragment_forward_pj: f64,
    /// One fragment through the backward RBC pipeline.
    pub fragment_backward_pj: f64,
    /// One gradient merge through a GMU level.
    pub gmu_merge_pj: f64,
    /// One atomic-add group against L2.
    pub atomic_pj: f64,
    /// One Gaussian through a PBC.
    pub pbc_pj: f64,
    /// One byte moved from DRAM.
    pub dram_byte_pj: f64,
    /// One byte read from on-chip SRAM.
    pub sram_byte_pj: f64,
}

impl EnergyTable {
    /// 28 nm reference values.
    pub fn n28() -> Self {
        Self {
            fragment_forward_pj: 18.0,
            fragment_backward_pj: 42.0,
            gmu_merge_pj: 3.0,
            atomic_pj: 35.0,
            pbc_pj: 60.0,
            dram_byte_pj: 20.0,
            sram_byte_pj: 1.2,
        }
    }

    /// Scales all dynamic energies to a node (power scaling of Tab. 5).
    pub fn scaled(node: TechNode) -> Self {
        let s = node.power_scale();
        let base = Self::n28();
        Self {
            fragment_forward_pj: base.fragment_forward_pj * s,
            fragment_backward_pj: base.fragment_backward_pj * s,
            gmu_merge_pj: base.gmu_merge_pj * s,
            atomic_pj: base.atomic_pj * s,
            pbc_pj: base.pbc_pj * s,
            dram_byte_pj: base.dram_byte_pj, // DRAM does not scale with logic
            sram_byte_pj: base.sram_byte_pj * s,
        }
    }
}

/// GPU energy per fragment-equivalent operation in pJ. GPUs pay instruction
/// fetch/decode/register-file overheads a fixed-function datapath avoids —
/// the root of the plug-in's energy-efficiency headroom.
pub const GPU_FRAGMENT_PJ: f64 = 480.0;

/// Static energy for a window: a fraction of the device's typical power
/// drawn over the elapsed time.
pub fn static_energy(power_w: f64, seconds: f64, idle_fraction: f64) -> f64 {
    power_w * idle_fraction * seconds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_scaling_reduces_energy() {
        let n28 = EnergyTable::scaled(TechNode::N28);
        let n8 = EnergyTable::scaled(TechNode::N8);
        assert!(n8.fragment_forward_pj < n28.fragment_forward_pj);
        assert_eq!(n8.dram_byte_pj, n28.dram_byte_pj);
    }

    #[test]
    fn gpu_fragment_energy_dominates_plugin() {
        let t = EnergyTable::n28();
        assert!(GPU_FRAGMENT_PJ > 5.0 * t.fragment_forward_pj);
    }

    #[test]
    fn static_energy_scales_with_time() {
        assert!((static_energy(10.0, 2.0, 0.5) - 10.0).abs() < 1e-12);
    }
}
