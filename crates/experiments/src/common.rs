//! Shared experiment infrastructure: SLAM run orchestration, workload
//! conversion and table formatting.

use rtgs_accel::{RunWorkload, TraceRecorder};
use rtgs_baselines::{BaselineExtension, TamingPruner};
use rtgs_core::RtgsConfig;
use rtgs_runtime::BackendChoice;
use rtgs_scene::{DatasetProfile, SyntheticDataset};
use rtgs_slam::{
    BaseAlgorithm, NoExtension, PipelineExtension, SlamConfig, SlamPipeline, SlamReport,
};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Encoded process-wide default backend: `0` = serial, `n > 0` =
/// parallel over `n - 1` threads (`1` = the machine, which is also
/// [`BackendChoice::default`] and what the process starts with).
static DEFAULT_BACKEND: AtomicUsize = AtomicUsize::new(1);

/// Sets the execution backend every subsequently-built SLAM configuration
/// uses (the `--parallel[=N]` flag of the experiments binary).
pub fn set_default_backend(choice: BackendChoice) {
    let encoded = match choice {
        BackendChoice::Serial => 0,
        BackendChoice::Parallel { threads } => threads + 1,
    };
    DEFAULT_BACKEND.store(encoded, Ordering::SeqCst);
}

/// The current process-wide default backend (see [`set_default_backend`]).
pub fn default_backend() -> BackendChoice {
    match DEFAULT_BACKEND.load(Ordering::SeqCst) {
        0 => BackendChoice::Serial,
        n => BackendChoice::Parallel { threads: n - 1 },
    }
}

/// Experiment scale: `Quick` keeps every experiment in tens of seconds on a
/// laptop CPU; `Full` runs the larger profiles and longer sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced frames/iterations for smoke runs.
    Quick,
    /// The documented experiment scale.
    Full,
}

impl Scale {
    /// Frames per sequence.
    pub fn frames(&self) -> usize {
        match self {
            Scale::Quick => 6,
            Scale::Full => 14,
        }
    }

    /// Iteration scale factor applied to each algorithm's preset budgets
    /// (presets keep their *relative* iteration counts, which drive the
    /// accuracy/speed orderings of Tab. 2).
    pub fn iteration_factor(&self) -> f32 {
        match self {
            Scale::Quick => 0.5,
            Scale::Full => 0.8,
        }
    }

    /// Tracking iterations used for standalone tracking probes.
    pub fn tracking_iters(&self) -> usize {
        match self {
            Scale::Quick => 5,
            Scale::Full => 10,
        }
    }

    /// Dataset profile at this scale.
    pub fn profile(&self, base: DatasetProfile) -> DatasetProfile {
        match self {
            Scale::Quick => base.small(),
            Scale::Full => base,
        }
    }
}

/// Algorithm variant of Tab. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The unmodified base algorithm.
    Base,
    /// Base + Taming-3DGS pruning (50% target).
    Taming,
    /// Base + the RTGS algorithm (adaptive pruning + dynamic downsampling).
    Ours,
}

impl Variant {
    /// Row label prefix used in the tables.
    pub fn label(&self, algo: BaseAlgorithm) -> String {
        match self {
            Variant::Base => algo.name().to_string(),
            Variant::Taming => format!("Taming 3DGS+{}", algo.name()),
            Variant::Ours => format!("Ours+{}", algo.name()),
        }
    }
}

/// Builds the SLAM configuration for an algorithm at a scale, on the
/// process-wide default backend.
pub fn slam_config(algo: BaseAlgorithm, scale: Scale) -> SlamConfig {
    let mut cfg = SlamConfig::for_algorithm(algo).with_frames(scale.frames());
    let k = scale.iteration_factor();
    cfg.tracking.iterations = ((cfg.tracking.iterations as f32 * k) as usize).max(2);
    cfg.mapping_iterations = ((cfg.mapping_iterations as f32 * k) as usize).max(2);
    cfg.backend = default_backend();
    cfg
}

/// The pipeline extension a variant runs with.
fn extension(variant: Variant, scale: Scale) -> Box<dyn PipelineExtension + Send> {
    match variant {
        Variant::Base => Box::new(NoExtension),
        // Taming 3DGS needs ~500 iterations to converge — far more than a
        // SLAM frame provides, so it acts with a shortened warm-up
        // (mirroring how the paper had to adapt it) and prunes 50%.
        Variant::Taming => Box::new(BaselineExtension::new(
            TamingPruner::with_warmup(scale.tracking_iters() * 2),
            0.5,
        )),
        Variant::Ours => RtgsConfig::full().into_extension(),
    }
}

/// Runs one SLAM configuration on a dataset with the given variant.
pub fn run_variant(
    algo: BaseAlgorithm,
    dataset: &SyntheticDataset,
    scale: Scale,
    variant: Variant,
) -> SlamReport {
    let cfg = slam_config(algo, scale);
    SlamPipeline::with_extension(cfg, dataset, extension(variant, scale)).run()
}

/// [`run_variant`] with the variant's extension wrapped in a
/// [`TraceRecorder`]: the report and the workload traces the hardware
/// models price.
pub fn run_traced(
    algo: BaseAlgorithm,
    dataset: &SyntheticDataset,
    scale: Scale,
    variant: Variant,
) -> (SlamReport, RunWorkload) {
    let cfg = slam_config(algo, scale);
    let (recorder, run) = TraceRecorder::new(extension(variant, scale));
    let report = SlamPipeline::with_extension(cfg, dataset, Box::new(recorder)).run();
    let run = std::mem::take(&mut *run.lock().expect("the trace recorder panicked"));
    (report, run)
}

/// Generates (and memoizes per call-site) the dataset for a profile.
pub fn dataset(profile: DatasetProfile, frames: usize) -> SyntheticDataset {
    SyntheticDataset::generate(profile, frames)
}

/// Simple fixed-width table printer.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table as an aligned string.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!(
                    "{:<width$}",
                    cell,
                    width = widths.get(i).copied().unwrap_or(0)
                ));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a float to a fixed number of decimals.
pub fn f(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1.0".into()]);
        t.row(vec!["long-name".into(), "2.5".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn scale_full_is_larger() {
        assert!(Scale::Full.frames() > Scale::Quick.frames());
        assert!(Scale::Full.tracking_iters() > Scale::Quick.tracking_iters());
    }

    #[test]
    fn variant_labels() {
        assert_eq!(Variant::Base.label(BaseAlgorithm::MonoGs), "MonoGS");
        assert_eq!(Variant::Ours.label(BaseAlgorithm::GsSlam), "Ours+GS-SLAM");
    }
}
