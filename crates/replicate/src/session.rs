//! A [`Session`] that replicates itself while it runs.
//!
//! [`ReplicatedSession`] wraps a [`SlamPipeline`] and a [`Replicator`]:
//! every frame the pipeline advances, the session captures a checkpoint
//! record into the replication stream and pumps the ack path. It plugs
//! into [`rtgs_runtime::Serve`] unchanged — the scheduler sees a normal
//! session, plus the [`Session::replication_stats`] and
//! [`Session::drain_replication`] hooks, so a `Serve` shutdown drains the
//! stream and the final stats satisfy
//! `frames_processed == frames_replicated + frames_dropped_by_policy`.
//!
//! Replication failures never panic and never kill the session: the first
//! error is latched, replication stops, and the error surfaces through
//! the drain hook. The
//! pipeline itself keeps serving frames — a dead standby must not take
//! down the primary.

use crate::primary::Replicator;
use crate::transport::ByteLink;
use crate::ReplicationError;
use rtgs_runtime::{ReplicationStats, Session, SessionIoError, SessionStatus};
use rtgs_slam::{SlamPipeline, SlamReport};

/// A primary-side SLAM session with live replication attached.
pub struct ReplicatedSession<'d, L: ByteLink> {
    pipeline: SlamPipeline<'d>,
    replicator: Replicator<L>,
    error: Option<ReplicationError>,
}

impl<'d, L: ByteLink> ReplicatedSession<'d, L> {
    /// Attaches `replicator` to `pipeline`. The replicator's fingerprint
    /// should come from [`rtgs_slam::config_fingerprint`] on the
    /// pipeline's config so the follower can validate it.
    pub fn new(pipeline: SlamPipeline<'d>, replicator: Replicator<L>) -> Self {
        Self {
            pipeline,
            replicator,
            error: None,
        }
    }

    /// The wrapped pipeline.
    pub fn pipeline(&self) -> &SlamPipeline<'d> {
        &self.pipeline
    }

    /// The attached replicator.
    pub fn replicator(&self) -> &Replicator<L> {
        &self.replicator
    }

    fn replicate_frame(&mut self, frame: u64) {
        if self.error.is_some() {
            return; // replication already failed; latch the first error
        }
        let pipeline = &self.pipeline;
        // The stepped frame's trace context rides into the checkpoint
        // capture and onto the wire, stitching primary and follower spans.
        let trace = pipeline.last_trace();
        let result = self
            .replicator
            .on_frame_traced(frame, trace, |log| pipeline.checkpoint_into(log))
            .and_then(|()| self.replicator.pump());
        if let Err(e) = result {
            self.error = Some(e);
        }
    }
}

impl<L: ByteLink> Session for ReplicatedSession<'_, L> {
    type Report = SlamReport;

    fn step(&mut self) -> SessionStatus {
        match SlamPipeline::step(&mut self.pipeline) {
            Some(frame) => {
                self.replicate_frame(frame as u64);
                if self.pipeline.is_complete() {
                    SessionStatus::Finished
                } else {
                    SessionStatus::Running
                }
            }
            None => SessionStatus::Finished,
        }
    }

    fn finish(self) -> SlamReport {
        self.pipeline.report()
    }

    fn resident_bytes(&self) -> usize {
        SlamPipeline::resident_bytes(&self.pipeline)
    }

    fn replication_stats(&self) -> Option<ReplicationStats> {
        Some(self.replicator.stats())
    }

    fn drain_replication(&mut self) -> Result<(), SessionIoError> {
        if let Some(error) = self.error.take() {
            return Err(into_session_io(error));
        }
        self.replicator.drain().map_err(into_session_io)
    }
}

fn into_session_io(error: ReplicationError) -> SessionIoError {
    match error {
        ReplicationError::Io(e) => SessionIoError::Io(e),
        other => SessionIoError::Snapshot(Box::new(other)),
    }
}
