//! Workload-trace recording through the SLAM pipeline's extension seam
//! (the paper's "Simulator Test Trace Derivation", Sec. 6.1).

use crate::system::{FrameWorkload, RunWorkload};
use rtgs_render::{GradSet, ShardedScene, WorkloadTrace};
use rtgs_slam::{FrameDirectives, IterationArtifacts, PipelineExtension};
use std::sync::{Arc, Mutex, MutexGuard};

/// A [`PipelineExtension`] that records the [`RunWorkload`] the hardware
/// models price: one [`FrameWorkload`] per processed frame, frame 0
/// included, holding one [`WorkloadTrace`] per tracking trial and one per
/// mapping iteration.
///
/// It forwards every hook to the extension it wraps and changes nothing:
/// a recorded session computes and checkpoints what the unrecorded one
/// does, bit for bit.
///
/// The workload accumulates behind the handle [`TraceRecorder::new`]
/// returns, which the caller keeps while the recorder goes into a
/// `SlamPipeline` (or is passed as `&mut` to `track_frame`). A frame opens
/// at `frame_directives`, which the pipeline calls on every frame after
/// the first; frame 0, and a standalone `track_frame` caller's frame, open
/// at their first iteration, so a session configured with no mapping
/// iterations records no workload for frame 0. A frame that maps is a
/// keyframe.
pub struct TraceRecorder {
    inner: Box<dyn PipelineExtension + Send>,
    run: Arc<Mutex<RunWorkload>>,
}

impl TraceRecorder {
    /// Wraps `inner`; returns the recorder and the handle its workload
    /// accumulates behind.
    pub fn new(inner: Box<dyn PipelineExtension + Send>) -> (Self, Arc<Mutex<RunWorkload>>) {
        let run = Arc::new(Mutex::new(RunWorkload::default()));
        let recorder = Self {
            inner,
            run: Arc::clone(&run),
        };
        (recorder, run)
    }

    fn run(&self) -> MutexGuard<'_, RunWorkload> {
        self.run.lock().expect("a holder of the workload panicked")
    }

    /// Runs `f` on the open frame, opening frame 0 first if none is.
    fn with_frame(&self, f: impl FnOnce(&mut FrameWorkload)) {
        let mut run = self.run();
        if run.frames.is_empty() {
            run.frames.push(FrameWorkload::default());
        }
        f(run.frames.last_mut().expect("a frame is open"));
    }
}

fn trace_of(artifacts: &IterationArtifacts<'_>) -> WorkloadTrace {
    WorkloadTrace::from_render(artifacts.output, artifacts.tiles, artifacts.fragments)
}

impl PipelineExtension for TraceRecorder {
    fn frame_directives(&mut self, frame_index: usize, since_keyframe: usize) -> FrameDirectives {
        self.run().frames.push(FrameWorkload::default());
        self.inner.frame_directives(frame_index, since_keyframe)
    }

    fn tracking_grads(&self, iteration: usize, last: usize) -> GradSet {
        self.inner.tracking_grads(iteration, last)
    }

    fn after_tracking_iteration(&mut self, artifacts: &IterationArtifacts<'_>, mask: &mut [bool]) {
        self.with_frame(|f| f.tracking.push(trace_of(artifacts)));
        self.inner.after_tracking_iteration(artifacts, mask);
    }

    fn after_mapping_iteration(&mut self, artifacts: &IterationArtifacts<'_>) {
        self.with_frame(|f| {
            f.mapping.push(trace_of(artifacts));
            f.is_keyframe = true;
        });
        self.inner.after_mapping_iteration(artifacts);
    }

    fn end_of_frame(
        &mut self,
        map: &ShardedScene,
        mask: &[bool],
        is_keyframe: bool,
    ) -> Option<Vec<bool>> {
        self.with_frame(|f| f.is_keyframe = is_keyframe);
        self.inner.end_of_frame(map, mask, is_keyframe)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtgs_render::FrameArena;
    use rtgs_runtime::Serial;
    use rtgs_scene::{DatasetProfile, SyntheticDataset};
    use rtgs_slam::{
        track_frame, BaseAlgorithm, NoExtension, SlamConfig, SlamPipeline, StageTimings,
        TrackingConfig,
    };

    /// A standalone `track_frame` caller passes the recorder as `&mut`
    /// and gets one frame with a trace per trial, the stopping trial
    /// included.
    #[test]
    fn records_one_trace_per_tracking_trial() {
        let ds = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), 2);
        let map = &ds.reference_scene;
        let mut mask = vec![true; map.capacity()];
        let (mut recorder, run) = TraceRecorder::new(Box::new(NoExtension));
        let result = track_frame(
            map,
            ds.poses_c2w[0].inverse(),
            &ds.frames[0],
            &ds.camera,
            &TrackingConfig {
                iterations: 3,
                ..Default::default()
            },
            &mut mask,
            &mut recorder,
            &mut StageTimings::default(),
            &mut FrameArena::new(),
            &Serial,
        );
        let run = run.lock().unwrap();
        assert_eq!(run.frames.len(), 1);
        let traces = &run.frames[0].tracking;
        assert_eq!(traces.len(), result.losses.len());
        assert_eq!(traces.len(), 3);
        assert!(traces.iter().all(|t| t.is_consistent()));
        assert_eq!(
            (traces[0].width, traces[0].height),
            (ds.camera.width, ds.camera.height)
        );
    }

    /// One workload per frame, frame 0's initial mapping included; one
    /// trace per tracking trial and per mapping iteration, agreeing with
    /// the report's counters; keyframes as the pipeline decided them.
    #[test]
    fn records_one_workload_per_frame_and_one_trace_per_iteration() {
        let frames = 6;
        let ds = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), frames);
        let mut cfg = SlamConfig::for_algorithm(BaseAlgorithm::MonoGs).with_frames(frames);
        cfg.tracking.iterations = 2;
        cfg.mapping_iterations = 3;
        let (recorder, run) = TraceRecorder::new(Box::new(NoExtension));
        let report = SlamPipeline::with_extension(cfg, &ds, Box::new(recorder)).run();
        let run = run.lock().unwrap();

        assert_eq!(run.frames.len(), frames);
        assert!(run.frames[0].tracking.is_empty());
        for (f, w) in report.frames.iter().zip(&run.frames) {
            assert_eq!(w.is_keyframe, f.is_keyframe, "frame {}", f.index);
            let mapped = if f.is_keyframe { 3 } else { 0 };
            assert_eq!(w.mapping.len(), mapped, "frame {}", f.index);
            if f.index > 0 {
                // Two iterations: every frame stops at the cap.
                assert_eq!(w.tracking.len(), 2, "frame {}", f.index);
            }
            let fragments: u64 = w.tracking.iter().map(|t| t.total_fragments()).sum();
            assert_eq!(fragments, f.tracking_fragments, "frame {}", f.index);
            for t in w.tracking.iter().chain(&w.mapping) {
                assert!(t.is_consistent());
            }
        }
        assert!(report.frames.iter().any(|f| f.index > 0 && f.is_keyframe));
        assert!(report.frames.iter().any(|f| !f.is_keyframe));
    }
}
