//! Per-table / per-figure reproduction harness for the RTGS paper.
//!
//! Each public function regenerates one table or figure of the paper's
//! evaluation (Sec. 6) as formatted text; the `experiments` binary
//! dispatches by name:
//!
//! ```bash
//! cargo run -p rtgs-experiments --release -- table6
//! cargo run -p rtgs-experiments --release -- all --full
//! ```
//!
//! Absolute numbers differ from the paper (CPU rasterizer, dataset analogs
//! at 1/16 resolution, cycle models instead of GPGPU-Sim); the *shape* —
//! who wins, by what factor, where crossovers fall — is the reproduction
//! target, and the figures and result tables print the paper's expected
//! shape or reference values beneath their own.

mod algorithm;
mod common;
mod hardware;
mod loadgen;
mod profiling;
mod runtime;

pub use algorithm::{fig13, fig14, table2, table6, table7};
pub use common::{
    dataset, default_backend, f, run_variant, set_default_backend, slam_config, Scale, Table,
    Variant,
};
pub use hardware::{fig15, fig16, fig17, table4};
pub use loadgen::loadgen;
pub use profiling::{fig3, fig4, fig5, fig6};
pub use runtime::arena_steady_state;

/// All experiments: the paper artifacts in paper order, then the two
/// measurement tools — `arena`, the per-stage budget at session size, and
/// `loadgen`, the open-loop overload sweep.
pub const EXPERIMENTS: &[&str] = &[
    "table2", "fig3", "fig4", "fig5", "fig6", "table6", "table7", "fig13", "fig14", "fig15",
    "fig16", "fig17", "table4", "arena", "loadgen",
];

/// Runs one experiment by name.
///
/// # Errors
///
/// Returns an error message when the name is unknown.
pub fn run_experiment(name: &str, scale: Scale) -> Result<String, String> {
    Ok(match name {
        "table2" => table2(scale),
        "fig3" => fig3(scale),
        "fig4" => fig4(scale),
        "fig5" => fig5(scale),
        "fig6" => fig6(scale),
        "table6" => table6(scale),
        "table7" => table7(scale),
        "fig13" => fig13(scale),
        "fig14" => fig14(scale),
        "fig15" => fig15(scale),
        "fig16" => fig16(scale),
        "fig17" => fig17(scale),
        "table4" | "table5" => table4(),
        "arena" => arena_steady_state(scale),
        "loadgen" => loadgen(scale),
        other => return Err(format!("unknown experiment: {other}")),
    })
}
