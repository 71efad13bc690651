//! Multi-session SLAM serving: adapts [`SlamPipeline`] to the
//! `rtgs-runtime` [`Session`] interface so N concurrent SLAM workloads
//! multiplex over one thread pool with round-robin frame scheduling.
//!
//! One scheduler step is one SLAM frame, so fairness is per-frame: no
//! tenant ever runs more than one frame ahead of another. A session on a
//! [`rtgs_runtime::BackendChoice::Parallel`] backend — the default — fans
//! its frame's chunked loops out on the pool that is stepping it, onto
//! whichever executors are idle, whatever pool size the choice names:
//! nothing deadlocks and no second pool competes for the cores.

use crate::pipeline::{SlamPipeline, SlamReport};
use rtgs_runtime::{Session, SessionStatus};

impl Session for SlamPipeline<'_> {
    type Report = SlamReport;

    fn step(&mut self) -> SessionStatus {
        // `Finished` is reported together with the last frame so the
        // scheduler never spends a round on an already-exhausted session.
        if SlamPipeline::step(self).is_some() && !self.is_complete() {
            SessionStatus::Running
        } else {
            SessionStatus::Finished
        }
    }

    fn finish(self) -> SlamReport {
        self.report()
    }

    fn resident_bytes(&self) -> usize {
        SlamPipeline::resident_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{BaseAlgorithm, SlamConfig};
    use rtgs_runtime::{BackendChoice, Serve, ShutdownHandle};
    use rtgs_scene::{DatasetProfile, SyntheticDataset};

    fn quick_config(algorithm: BaseAlgorithm, frames: usize) -> SlamConfig {
        let mut cfg = SlamConfig::for_algorithm(algorithm).with_frames(frames);
        cfg.tracking.iterations = 2;
        cfg.mapping_iterations = 2;
        cfg
    }

    #[test]
    fn serves_four_concurrent_sessions_to_completion() {
        // One session per base algorithm, all sharing one dataset, served
        // concurrently in a single process (the acceptance scenario).
        let ds = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), 3);
        let sessions = BaseAlgorithm::all()
            .into_iter()
            .map(|algo| {
                let cfg =
                    quick_config(algo, 3).with_backend(BackendChoice::Parallel { threads: 2 });
                (algo.name().to_string(), SlamPipeline::new(cfg, &ds))
            })
            .collect();
        let outcomes = Serve::builder().threads(4).run(sessions);
        assert_eq!(outcomes.len(), 4);
        for outcome in &outcomes {
            assert!(
                outcome.stats.completed,
                "{} did not finish",
                outcome.stats.label
            );
            assert_eq!(outcome.stats.steps, 3, "one step per frame");
            assert_eq!(outcome.report.frames_processed, 3);
            assert_eq!(outcome.report.trajectory.len(), 3);
            // Per-session latency percentiles come straight from the
            // scheduler's telemetry histogram: one sample per frame.
            assert_eq!(
                outcome.stats.latency.count(),
                3,
                "{}: one latency sample per frame",
                outcome.stats.label
            );
            assert!(outcome.stats.latency.p50() <= outcome.stats.latency.p999());
        }
        // Fleet-wide percentiles merge the per-session histograms.
        let fleet = rtgs_runtime::fleet_latency(&outcomes);
        assert_eq!(fleet.count(), 12);
        assert!(fleet.p50() > 0);
    }

    #[test]
    fn served_report_matches_standalone_run() {
        // Scheduling must not change results: a served session's report is
        // bitwise-identical to running the same pipeline standalone.
        let ds = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), 3);
        let cfg = quick_config(BaseAlgorithm::GsSlam, 3);
        let standalone = SlamPipeline::new(cfg, &ds).run();
        let outcomes = Serve::builder()
            .threads(2)
            .run(vec![("solo".to_string(), SlamPipeline::new(cfg, &ds))]);
        let served = &outcomes[0].report;
        assert_eq!(standalone.trajectory.len(), served.trajectory.len());
        for (a, b) in standalone.trajectory.iter().zip(served.trajectory.iter()) {
            assert_eq!(a.translation, b.translation);
            assert_eq!(a.rotation, b.rotation);
        }
        assert_eq!(standalone.ate.rmse, served.ate.rmse);
    }

    /// Wrapper session that requests a graceful shutdown after its k-th
    /// frame.
    struct StopAfter<'d> {
        inner: SlamPipeline<'d>,
        handle: ShutdownHandle,
        stop_at: usize,
        steps: usize,
    }

    impl<'d> Session for StopAfter<'d> {
        type Report = SlamReport;

        fn step(&mut self) -> SessionStatus {
            self.steps += 1;
            let status = Session::step(&mut self.inner);
            if self.steps == self.stop_at {
                self.handle.shutdown();
            }
            status
        }

        fn finish(self) -> SlamReport {
            Session::finish(self.inner)
        }
    }

    /// Graceful shutdown mid-stream leaves every session at a frame
    /// boundary with consistent stats — frames in (scheduler steps) equal
    /// frames processed (pipeline reports).
    #[test]
    fn shutdown_mid_stream_is_frame_consistent() {
        let ds = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), 50);
        let mut scheduler = Serve::builder().threads(2).build();
        let handle = scheduler.shutdown_handle();
        for (i, algo) in [
            BaseAlgorithm::GsSlam,
            BaseAlgorithm::MonoGs,
            BaseAlgorithm::SplaTam,
        ]
        .into_iter()
        .enumerate()
        {
            scheduler.add_session(
                algo.name(),
                StopAfter {
                    inner: SlamPipeline::new(quick_config(algo, 50), &ds),
                    handle: handle.clone(),
                    // The first session pulls the plug on its 4th frame;
                    // the others never trigger.
                    stop_at: if i == 0 { 4 } else { usize::MAX },
                    steps: 0,
                },
            );
        }
        let outcomes = scheduler.run();

        assert_eq!(outcomes.len(), 3);
        for outcome in &outcomes {
            assert!(!outcome.stats.completed, "50-frame run cannot complete");
            assert!(outcome.stats.steps >= 1);
            // Frame-boundary consistency: every scheduled step processed
            // exactly one full frame, and the session's report agrees.
            assert_eq!(
                outcome.stats.steps, outcome.report.frames_processed,
                "{}: frames in != frames processed",
                outcome.stats.label
            );
            assert_eq!(
                outcome.report.trajectory.len(),
                outcome.report.frames_processed
            );
            assert_eq!(outcome.report.frames.len(), outcome.report.frames_processed);
        }
        // Fairness held up to the shutdown: no session is more than one
        // frame ahead of another.
        let max = outcomes.iter().map(|o| o.stats.steps).max().unwrap();
        let min = outcomes.iter().map(|o| o.stats.steps).min().unwrap();
        assert!(max - min <= 1, "rounds are frame-fair ({min}..{max})");
    }
}
