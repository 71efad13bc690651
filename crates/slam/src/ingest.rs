//! Open-loop SLAM serving: adapts [`SlamPipeline`] to the runtime's
//! frame-ingestion front-end with SLO-driven graceful degradation.
//!
//! An [`OpenLoopSession`] is driven by *tickets* arriving in a bounded
//! [`FrameInbox`] rather than by an always-ready dataset: each ticket is
//! permission to process the pipeline's next frame, carrying the tenant's
//! delivery timestamp. SLAM frames are strictly sequential (tracking warm-
//! starts from the previous pose), so a dropped ticket does not skip a
//! dataset frame — it shrinks how far the trajectory gets, exactly like a
//! camera frame a saturated server never ingested. The session reports
//! [`SessionStatus::Idle`] readiness through its inbox, so the scheduler
//! parks it between arrivals instead of burning round-robin slots.
//!
//! # Graceful degradation
//!
//! With an [`SloPolicy`] attached, the session watches its inbox depth and
//! the recent end-to-end p99 (queueing + tracking, over a sliding
//! [`RecentWindow`]). When either crosses the policy's threshold, tracking
//! switches to the downsampled path — the same mechanism as the paper's
//! dynamic-downsampling ramp (tracking on a reduced-resolution frame,
//! keyframes always full-res), driven by serving pressure instead of
//! frames-since-keyframe — until the backlog drains. Every shed frame is
//! counted (`IngestStats::degraded`) and flagged in the frame's report
//! (`FrameReport::resolution_factor`).

use crate::pipeline::{SlamPipeline, SlamReport};
use rtgs_runtime::{FrameInbox, IngestStats, Session, SessionStatus};
use rtgs_telemetry::{journal_record, EventKind, RecentWindow};
use std::time::Duration;

/// When and how an [`OpenLoopSession`] sheds load.
///
/// Degradation engages when inbox depth reaches `depth_high` **or** the
/// recent end-to-end p99 exceeds `target_p99`, and releases as soon as
/// neither holds — hysteresis comes from the backlog itself draining
/// faster at reduced resolution.
#[derive(Debug, Clone)]
#[must_use = "attach the policy with OpenLoopSession::with_slo"]
pub struct SloPolicy {
    /// The latency objective: recent p99 above this engages shedding.
    pub target_p99: Duration,
    /// Inbox depth (after popping the current frame) that engages shedding
    /// regardless of latency — backlog is future latency.
    pub depth_high: usize,
    /// Resolution factor used while shedding (the paper's downsampling ramp
    /// starts at 4; clamped by the pipeline's resolution floor, and
    /// keyframes always track at full resolution).
    pub degrade_factor: usize,
    /// Sliding-window size for the recent-p99 estimate.
    pub window: usize,
}

impl SloPolicy {
    /// A policy targeting `target_p99`, shedding at depth ≥ 2 with the
    /// paper's start factor of 4 over a 32-frame window.
    pub fn new(target_p99: Duration) -> Self {
        Self {
            target_p99,
            depth_high: 2,
            degrade_factor: 4,
            window: 32,
        }
    }

    /// Sets the backlog threshold.
    pub fn with_depth_high(mut self, depth: usize) -> Self {
        self.depth_high = depth.max(1);
        self
    }

    /// Sets the shed-mode resolution factor.
    pub fn with_degrade_factor(mut self, factor: usize) -> Self {
        self.degrade_factor = factor.max(1);
        self
    }

    /// Sets the recent-latency window size.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }
}

/// A SLAM pipeline served open-loop from a bounded frame inbox, with
/// optional SLO load-shedding. Implements [`Session`] for
/// `Serve::builder().ingest(&hub)` serving.
pub struct OpenLoopSession<'d> {
    pipeline: SlamPipeline<'d>,
    inbox: FrameInbox<()>,
    slo: Option<SloPolicy>,
    recent: RecentWindow,
    /// Whether the previous frame ran on the shed path; transitions are
    /// journaled into the black-box flight recorder.
    shedding: bool,
}

impl<'d> OpenLoopSession<'d> {
    /// Wraps `pipeline` behind `inbox`; no shedding until an
    /// [`SloPolicy`] is attached with [`with_slo`](Self::with_slo).
    pub fn new(pipeline: SlamPipeline<'d>, inbox: FrameInbox<()>) -> Self {
        Self {
            pipeline,
            inbox,
            slo: None,
            recent: RecentWindow::new(32),
            shedding: false,
        }
    }

    /// Attaches the load-shedding policy.
    pub fn with_slo(mut self, slo: SloPolicy) -> Self {
        self.recent = RecentWindow::new(slo.window);
        self.slo = Some(slo);
        self
    }

    /// The wrapped pipeline.
    pub fn pipeline(&self) -> &SlamPipeline<'d> {
        &self.pipeline
    }
}

impl Session for OpenLoopSession<'_> {
    type Report = SlamReport;

    fn ready(&self) -> bool {
        // Work queued, or end-of-stream (one final step reports Finished).
        // A completed pipeline is "ready" so the scheduler collects its
        // Finished status instead of parking it forever.
        self.pipeline.is_complete() || self.inbox.has_work() || self.inbox.is_drained()
    }

    fn step(&mut self) -> SessionStatus {
        if self.pipeline.is_complete() {
            return SessionStatus::Finished;
        }
        let Some(frame) = self.inbox.try_pop() else {
            return if self.inbox.is_drained() {
                SessionStatus::Finished
            } else {
                SessionStatus::Idle
            };
        };
        // Shed decision per frame: backlog depth (the frames now waiting
        // behind this one) or recent end-to-end p99 over the SLO.
        let mut degraded = false;
        let mut factor = 1;
        if let Some(slo) = &self.slo {
            let backlog = self.inbox.depth() >= slo.depth_high;
            let slow = self.recent.p99() > slo.target_p99.as_nanos() as u64;
            if backlog || slow {
                degraded = true;
                factor = slo.degrade_factor;
            }
        }
        if degraded != self.shedding {
            self.shedding = degraded;
            journal_record(
                if degraded {
                    EventKind::ShedDegrade
                } else {
                    EventKind::ShedRestore
                },
                self.inbox.channel_id(),
                frame.trace.trace_id,
                frame.seq,
                factor as u64,
            );
        }
        self.pipeline.set_frame_trace(frame.trace);
        self.pipeline.set_pressure_factor(factor);
        let stepped = SlamPipeline::step(&mut self.pipeline).is_some();
        let sojourn_ns = self.inbox.frame_done(frame, degraded);
        self.recent.record(sojourn_ns);
        if stepped && !self.pipeline.is_complete() {
            SessionStatus::Running
        } else {
            SessionStatus::Finished
        }
    }

    fn finish(self) -> SlamReport {
        self.pipeline.report()
    }

    fn resident_bytes(&self) -> usize {
        SlamPipeline::resident_bytes(&self.pipeline)
    }

    fn ingest_stats(&self) -> Option<IngestStats> {
        Some(self.inbox.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{BaseAlgorithm, SlamConfig};
    use rtgs_runtime::{IngestConfig, IngestHub, Serve};
    use rtgs_scene::{DatasetProfile, SyntheticDataset};

    fn quick_config(algorithm: BaseAlgorithm, frames: usize) -> SlamConfig {
        let mut cfg = SlamConfig::for_algorithm(algorithm).with_frames(frames);
        cfg.tracking.iterations = 2;
        cfg.mapping_iterations = 2;
        cfg
    }

    /// With every ticket pre-queued and no SLO, open-loop serving is the
    /// closed-loop pipeline: the report is bitwise-identical to a
    /// standalone run.
    #[test]
    fn prequeued_open_loop_matches_standalone_bitwise() {
        let ds = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), 4);
        let cfg = quick_config(BaseAlgorithm::GsSlam, 4);
        let standalone = SlamPipeline::new(cfg, &ds).run();

        let hub = IngestHub::new(IngestConfig::new().with_inbox_capacity(8));
        let (tx, rx) = hub.channel::<()>().unwrap();
        for _ in 0..4 {
            tx.push(());
        }
        tx.close();
        let session = OpenLoopSession::new(SlamPipeline::new(cfg, &ds), rx);
        let outcomes = Serve::builder()
            .threads(2)
            .ingest(&hub)
            .run(vec![("open".to_string(), session)]);

        let served = &outcomes[0].report;
        assert!(outcomes[0].stats.completed);
        assert_eq!(served.frames_processed, 4);
        assert_eq!(standalone.trajectory.len(), served.trajectory.len());
        for (a, b) in standalone.trajectory.iter().zip(served.trajectory.iter()) {
            assert_eq!(a.translation, b.translation);
            assert_eq!(a.rotation, b.rotation);
        }
        assert_eq!(standalone.ate.rmse, served.ate.rmse);
        assert_eq!(standalone.mean_psnr, served.mean_psnr);
        let ingest = outcomes[0].stats.ingest.as_ref().unwrap();
        assert_eq!(ingest.offered, 4);
        assert_eq!(ingest.processed, 4);
        assert_eq!(ingest.degraded, 0);
        assert_eq!(ingest.dropped(), 0);
    }

    /// Deterministic shed behavior: a pre-loaded backlog beyond
    /// `depth_high` forces the downsampled tracking path on every frame
    /// that still sees backlog behind it, and releases on the last one.
    #[test]
    fn backlog_degrades_tracking_until_drained() {
        let frames = 6;
        // MonoGS: interval keyframe policy (prediction never disagrees
        // with the decision) and photometric tracking, so the expected
        // resolution factor per frame is exactly computable. The 40×30
        // tum-analog camera admits factor 2 under the resolution floor.
        let ds = SyntheticDataset::generate(DatasetProfile::tum_analog(), frames);
        let cfg = quick_config(BaseAlgorithm::MonoGs, frames);

        let hub = IngestHub::new(IngestConfig::new().with_inbox_capacity(16));
        let (tx, rx) = hub.channel::<()>().unwrap();
        for _ in 0..frames {
            tx.push(());
        }
        tx.close();
        // Huge latency target: only the backlog threshold can trigger.
        let slo = SloPolicy::new(Duration::from_secs(3600))
            .with_depth_high(1)
            .with_degrade_factor(2);
        let session = OpenLoopSession::new(SlamPipeline::new(cfg, &ds), rx).with_slo(slo);
        let outcomes = Serve::builder()
            .threads(1)
            .ingest(&hub)
            .run(vec![("pressured".to_string(), session)]);

        let report = &outcomes[0].report;
        assert_eq!(report.frames_processed, frames);
        for fr in &report.frames {
            // Processing ticket i leaves frames-1-i tickets behind it:
            // backlog holds for every frame except the last.
            let backlog = fr.index < frames - 1;
            let expected = if fr.index == 0 || fr.is_keyframe || !backlog {
                1 // init frame, keyframes and the drained tail: full res
            } else {
                2
            };
            assert_eq!(
                fr.resolution_factor, expected,
                "frame {} (keyframe: {})",
                fr.index, fr.is_keyframe
            );
        }
        let ingest = outcomes[0].stats.ingest.as_ref().unwrap();
        // Shed mode engaged on every frame with backlog (including ones the
        // keyframe rule then tracked at full resolution).
        assert_eq!(ingest.degraded, (frames - 1) as u64);
        assert_eq!(ingest.processed, frames as u64);
        assert_eq!(ingest.dropped(), 0);
        assert_eq!(ingest.max_depth, frames as u64);
        assert_eq!(ingest.latency.count(), frames as u64);
    }

    /// Drop-oldest under a tight inbox: the session still completes, the
    /// trajectory is exactly as long as the processed prefix, and the
    /// accounting matches offered − dropped.
    #[test]
    fn dropped_tickets_shrink_the_processed_prefix() {
        let ds = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), 8);
        let cfg = quick_config(BaseAlgorithm::GsSlam, 8);
        let hub = IngestHub::new(IngestConfig::new().with_inbox_capacity(3));
        let (tx, rx) = hub.channel::<()>().unwrap();
        // Burst of 8 tickets into a 3-deep inbox before the server runs:
        // 5 are dropped oldest-first, 3 survive.
        for _ in 0..8 {
            tx.push(());
        }
        tx.close();
        let session = OpenLoopSession::new(SlamPipeline::new(cfg, &ds), rx);
        let outcomes = Serve::builder()
            .threads(1)
            .ingest(&hub)
            .run(vec![("bursty".to_string(), session)]);

        let ingest = outcomes[0].stats.ingest.as_ref().unwrap();
        assert_eq!(ingest.offered, 8);
        assert_eq!(ingest.dropped_oldest, 5);
        assert_eq!(ingest.processed, 3);
        let report = &outcomes[0].report;
        assert_eq!(report.frames_processed, 3);
        assert_eq!(report.trajectory.len(), 3);
        assert!(outcomes[0].stats.completed);
    }
}
