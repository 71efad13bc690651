//! RTGS architecture configuration (paper Tab. 4) and published pipeline
//! latencies (Sec. 5.2).

/// Pipeline latencies in cycles, as published in Sec. 5.2.
pub mod latency {
    /// Step ❸-1 Alpha computing latency (RC).
    pub const ALPHA_COMPUTE: u64 = 12;
    /// Step ❸-2 Alpha blending latency (RC).
    pub const ALPHA_BLEND: u64 = 3;
    /// Alpha-gradient computation when alpha and transmittance must be
    /// recomputed (baseline designs).
    pub const ALPHA_GRAD_RECOMPUTE: u64 = 20;
    /// Alpha-gradient computation with R&B-buffer parameter reuse.
    pub const ALPHA_GRAD_REUSE: u64 = 4;
    /// 2D covariance/position gradient computation (RBC).
    pub const GRAD_2D: u64 = 8;
    /// Preprocessing-BP latency per Gaussian in a PBC.
    pub const PBC: u64 = 24;
    /// Levels of the pose-gradient merging tree (256 inputs).
    pub const MERGE_TREE_LEVELS: u64 = 8;
}

/// The RTGS hardware configuration (Tab. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchConfig {
    /// Number of Rendering Engines (each handles one subtile).
    pub rendering_engines: usize,
    /// Rendering Cores (and RBCs) per RE.
    pub cores_per_re: usize,
    /// Number of Preprocessing Engines.
    pub preprocessing_engines: usize,
    /// Gaussians processed in parallel per PE.
    pub gaussians_per_pe: usize,
    /// Number of Gradient Merging Units.
    pub gmus: usize,
    /// Operating frequency in Hz.
    pub frequency_hz: u64,
    /// Pixels per subtile lane group (4×4 subtile).
    pub subtile_pixels: usize,
}

impl ArchConfig {
    /// The paper's configuration: 16 REs × 8 RC/RBC, 16 PEs × 16 Gaussians,
    /// 4 GMUs, 500 MHz.
    pub fn paper() -> Self {
        Self {
            rendering_engines: 16,
            cores_per_re: 8,
            preprocessing_engines: 16,
            gaussians_per_pe: 16,
            gmus: 4,
            frequency_hz: 500_000_000,
            subtile_pixels: 16,
        }
    }

    /// Total Gaussian lanes across all PEs.
    pub fn total_pe_lanes(&self) -> usize {
        self.preprocessing_engines * self.gaussians_per_pe
    }
}

impl Default for ArchConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// On-chip memory allocation in bytes (Tab. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryConfig {
    /// Gaussian sharing cache.
    pub gaussian_cache: usize,
    /// Pixel buffer.
    pub pixel_buffer: usize,
    /// 2D Gaussian buffer.
    pub buffer_2d: usize,
    /// Rendering & Backpropagation buffer.
    pub rb_buffer: usize,
    /// Stage buffer (between GMUs and PEs).
    pub stage_buffer: usize,
    /// 3D buffer.
    pub buffer_3d: usize,
    /// Output buffer.
    pub output_buffer: usize,
    /// WSU configuration buffer.
    pub wsu_buffer: usize,
    /// Shared L2 cache (with the GPU).
    pub l2_cache: usize,
}

impl MemoryConfig {
    /// The paper's allocation (Tab. 4): 197 KB SRAM total + 2 MB L2.
    pub fn paper() -> Self {
        Self {
            gaussian_cache: 80 * 1024,
            pixel_buffer: 24 * 1024,
            buffer_2d: 20 * 1024,
            rb_buffer: 16 * 1024,
            stage_buffer: 16 * 1024,
            buffer_3d: 10 * 1024,
            output_buffer: 15 * 1024,
            wsu_buffer: 16 * 1024,
            l2_cache: 2 * 1024 * 1024,
        }
    }

    /// Total private SRAM (excluding the shared L2).
    pub fn total_sram(&self) -> usize {
        self.gaussian_cache
            + self.pixel_buffer
            + self.buffer_2d
            + self.rb_buffer
            + self.stage_buffer
            + self.buffer_3d
            + self.output_buffer
            + self.wsu_buffer
    }
}

impl Default for MemoryConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_arch_matches_table4() {
        let a = ArchConfig::paper();
        assert_eq!(a.rendering_engines, 16);
        assert_eq!(a.preprocessing_engines, 16);
        assert_eq!(a.gmus, 4);
        assert_eq!(a.frequency_hz, 500_000_000);
        assert_eq!(a.total_pe_lanes(), 256);
    }

    #[test]
    fn paper_sram_matches_table4() {
        // Tab. 4 reports 197 KB SRAM.
        assert_eq!(MemoryConfig::paper().total_sram(), 197 * 1024);
    }

    #[test]
    fn rb_buffer_reuse_is_five_times_faster() {
        assert_eq!(latency::ALPHA_GRAD_RECOMPUTE / latency::ALPHA_GRAD_REUSE, 5);
    }
}
