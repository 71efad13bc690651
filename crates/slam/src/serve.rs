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
//!
//! Sessions are **hibernatable** tenants: the pipeline implements the
//! scheduler's spill hooks through `rtgs-snapshot` checkpoints, so an
//! [`EvictionPolicy`] can park the coldest session on disk when a
//! resident-session or memory budget is exceeded and transparently bring
//! it back for its next frame (`Serve::builder().eviction(policy)`).
//! Hibernation is invisible in the results: an evicted-and-rehydrated
//! session produces the same trajectory and per-session stats as one that
//! stayed resident (tested below).

use crate::pipeline::{SlamPipeline, SlamReport};
use rtgs_runtime::{Session, SessionIoError, SessionStatus};
use std::path::Path;

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

    fn hibernate(&mut self, path: &Path) -> Result<(), SessionIoError> {
        self.hibernate_to(path)
            .map_err(|e| SessionIoError::Snapshot(Box::new(e)))
    }

    fn rehydrate(&mut self, path: &Path) -> Result<(), SessionIoError> {
        self.rehydrate_from(path)
            .map_err(|e| SessionIoError::Snapshot(Box::new(e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{BaseAlgorithm, SlamConfig};
    use rtgs_runtime::{BackendChoice, EvictionPolicy, Serve, ShutdownHandle};
    use rtgs_scene::{DatasetProfile, SyntheticDataset};
    use std::path::PathBuf;

    fn quick_config(algorithm: BaseAlgorithm, frames: usize) -> SlamConfig {
        let mut cfg = SlamConfig::for_algorithm(algorithm).with_frames(frames);
        cfg.tracking.iterations = 2;
        cfg.mapping_iterations = 2;
        cfg
    }

    fn spill_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rtgs-serve-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
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

    /// The eviction acceptance scenario: more sessions than the residency
    /// budget allows, so the scheduler hibernates cold tenants to disk and
    /// rehydrates them frame by frame — with trajectories and per-session
    /// stats identical to serving fully resident.
    #[test]
    fn hibernated_sessions_match_resident_sessions_bitwise() {
        let ds = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), 4);
        let algos = [
            BaseAlgorithm::GsSlam,
            BaseAlgorithm::MonoGs,
            BaseAlgorithm::SplaTam,
        ];
        let build = |ds| {
            algos
                .iter()
                .map(|&algo| {
                    (
                        algo.name().to_string(),
                        SlamPipeline::new(quick_config(algo, 4), ds),
                    )
                })
                .collect::<Vec<_>>()
        };

        let resident = Serve::builder().threads(2).run(build(&ds));
        let policy = EvictionPolicy::new(spill_dir("bitwise")).with_max_resident_sessions(2);
        let evicted = Serve::builder().threads(2).eviction(policy).run(build(&ds));

        let hibernations: usize = evicted.iter().map(|o| o.stats.hibernations).sum();
        assert!(
            hibernations > 0,
            "3 sessions under a 2-resident budget must hibernate"
        );
        for o in &evicted {
            if o.stats.hibernations > 0 {
                // Satellite: hibernation I/O wall-clock is accounted.
                assert!(o.stats.hibernate_wall > std::time::Duration::ZERO);
                assert!(o.stats.rehydrations >= 1, "{}", o.stats.label);
                assert!(o.stats.rehydrate_wall > std::time::Duration::ZERO);
            }
        }
        for (a, b) in resident.iter().zip(evicted.iter()) {
            assert_eq!(a.stats.label, b.stats.label);
            assert_eq!(a.stats.steps, b.stats.steps, "{}", a.stats.label);
            assert_eq!(
                a.report.frames_processed, b.report.frames_processed,
                "{}",
                a.stats.label
            );
            for (pa, pb) in a.report.trajectory.iter().zip(b.report.trajectory.iter()) {
                assert_eq!(pa.translation, pb.translation, "{}", a.stats.label);
                assert_eq!(pa.rotation, pb.rotation, "{}", a.stats.label);
            }
            assert_eq!(a.report.ate.rmse, b.report.ate.rmse);
            assert_eq!(a.report.mean_psnr, b.report.mean_psnr);
            assert_eq!(a.report.peak_gaussians, b.report.peak_gaussians);
        }
    }

    /// Wrapper session that requests a graceful shutdown after its k-th
    /// frame, forwarding the hibernation hooks to the inner pipeline.
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

        fn resident_bytes(&self) -> usize {
            Session::resident_bytes(&self.inner)
        }

        fn hibernate(&mut self, path: &Path) -> Result<(), SessionIoError> {
            Session::hibernate(&mut self.inner, path)
        }

        fn rehydrate(&mut self, path: &Path) -> Result<(), SessionIoError> {
            Session::rehydrate(&mut self.inner, path)
        }
    }

    /// Graceful shutdown mid-stream leaves every session at a frame
    /// boundary with consistent stats — frames in (scheduler steps) equal
    /// frames processed (pipeline reports) — including a session that was
    /// hibernated to disk when the shutdown arrived.
    #[test]
    fn shutdown_mid_stream_is_frame_consistent_including_hibernated() {
        let ds = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), 50);
        // 1-resident budget over 3 sessions: at any instant at least one
        // live session is parked on disk.
        let mut scheduler = Serve::builder()
            .threads(2)
            .eviction(EvictionPolicy::new(spill_dir("shutdown")).with_max_resident_sessions(1))
            .build();
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
        let hibernations: usize = outcomes.iter().map(|o| o.stats.hibernations).sum();
        assert!(
            hibernations > 0,
            "a 1-resident budget over 3 sessions must have hibernated"
        );
        for outcome in &outcomes {
            assert!(!outcome.stats.completed, "50-frame run cannot complete");
            assert!(outcome.stats.steps >= 1);
            // Frame-boundary consistency: every scheduled step processed
            // exactly one full frame, and the (possibly rehydrated-for-
            // reporting) session agrees.
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
