//! Cycle-level hardware models for RTGS (the paper's architecture
//! contribution, Sec. 5) and its comparison points.
//!
//! Substitutes for the paper's GPGPU-Sim + Verilog setup (see DESIGN.md):
//! analytic cycle models driven by *real* workload traces recorded by the
//! `rtgs-render` rasterizer. Modeled targets:
//!
//! - **Edge GPU baseline** ([`gpu_iteration`]) — warp divergence from
//!   per-pixel workload imbalance and atomic-add serialization during
//!   gradient aggregation (Observation 4), with an optional DISTWAR-style
//!   warp-merging mode.
//! - **RTGS plug-in** ([`plugin_iteration`]) — Rendering Engines with the
//!   published RC/RBC pipeline latencies, the WSU's subtile streaming and
//!   pairwise pixel scheduling, the R&B Buffer's 20→4-cycle alpha-gradient
//!   reuse, GMU gradient merging, and the PE/merging-tree stage.
//! - **GauSPU-style plug-in** ([`PluginConfig::gauspu`]) — more REs, tile
//!   streaming, gradient merging, but no pixel pairing and no R&B reuse.
//!
//! [`simulate_run`] converts whole SLAM runs into FPS and energy-per-frame
//! (Fig. 15/16, Tab. 7); a [`TraceRecorder`] wrapped around a session's
//! pipeline extension records the run's traces.

mod config;
mod devices;
mod energy;
mod gpu;
mod plugin;
mod recorder;
mod system;

pub use config::{latency, ArchConfig, MemoryConfig};
pub use devices::{DeviceSpec, GpuSpec, TechNode};
pub use energy::{static_energy, EnergyTable, GPU_FRAGMENT_PJ};
pub use gpu::{gpu_iteration, GpuIterationCycles};
pub use plugin::{
    imbalance_factor, plugin_iteration, plugin_iteration_on_host, Aggregation, PluginConfig,
    PluginIterationCycles, Scheduling,
};
pub use recorder::TraceRecorder;
pub use system::{
    iteration_cost, simulate_run, FrameWorkload, HardwareModel, IterationCost, RunCost, RunWorkload,
};
