//! Delegating wrappers that put the harness at each layer boundary: a
//! session that times its steps, an extension that spans its callbacks and
//! a byte link that counts what crosses it. Each forwards every call
//! unchanged, so the program under test runs its production path.

use crate::trace;
use rtgs::render::ShardedScene;
use rtgs::replicate::ByteLink;
use rtgs::runtime::{IngestStats, ReplicationStats, Session, SessionIoError, SessionStatus};
use rtgs::slam::{FrameDirectives, IterationArtifacts, PipelineExtension};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One frame a [`TimedSession`] processed.
#[derive(Debug, Clone, Copy)]
pub struct StepRecord {
    pub start: Instant,
    pub end: Instant,
    /// When the scheduler first saw the session ready for this step.
    pub ready_ns: Option<u64>,
    /// Exact due→done time of the frame, for open-loop sessions: the delta
    /// of the inbox's latency sum across the step (the histogram's own
    /// quantiles are 6.25 %-quantised buckets).
    pub sojourn_ns: Option<u64>,
    /// The session's resident bytes after the step.
    pub resident_bytes: usize,
}

/// A [`Session`] that forwards to `inner` and records one [`StepRecord`]
/// per processed frame. Two `Instant` reads and a 976-bucket snapshot per
/// ~50 ms step: on in every run, traced or not.
pub struct TimedSession<S> {
    inner: S,
    index: u32,
    steps: Vec<StepRecord>,
    /// `ns_of` the first `ready() == true` since the last step; 0 = none.
    ready_since: AtomicU64,
    latency_sum: u64,
    latency_count: u64,
}

impl<S: Session> TimedSession<S> {
    pub fn new(inner: S, index: u32, frames: usize) -> Self {
        Self {
            inner,
            index,
            steps: Vec::with_capacity(frames),
            ready_since: AtomicU64::new(0),
            latency_sum: 0,
            latency_count: 0,
        }
    }
}

impl<S: Session> Session for TimedSession<S> {
    type Report = (S::Report, Vec<StepRecord>);

    fn step(&mut self) -> SessionStatus {
        trace::set_request(self.index, self.steps.len() as u32);
        let start = Instant::now();
        let status = self.inner.step();
        let end = Instant::now();
        if status == SessionStatus::Idle {
            return status;
        }
        let sojourn_ns = match self.inner.ingest_stats() {
            Some(stats) => {
                let (sum, count) = (stats.latency.sum(), stats.latency.count());
                let done = count - self.latency_count;
                let delta = sum - self.latency_sum;
                (self.latency_sum, self.latency_count) = (sum, count);
                if done == 0 {
                    // The end-of-stream step: no frame was processed.
                    return status;
                }
                Some(delta)
            }
            None => None,
        };
        let ready = self.ready_since.swap(0, Ordering::Relaxed);
        self.steps.push(StepRecord {
            start,
            end,
            ready_ns: (ready != 0).then_some(ready),
            sojourn_ns,
            resident_bytes: self.inner.resident_bytes(),
        });
        trace::record("runtime.session.step", start, end);
        status
    }

    fn finish(self) -> Self::Report {
        (self.inner.finish(), self.steps)
    }

    fn ready(&self) -> bool {
        let ready = self.inner.ready();
        if ready {
            let now = trace::ns_of(Instant::now()).max(1);
            // Keeps the earliest sighting; losing the race keeps the other's.
            let _ = self
                .ready_since
                .compare_exchange(0, now, Ordering::Relaxed, Ordering::Relaxed);
        }
        ready
    }

    fn ingest_stats(&self) -> Option<IngestStats> {
        self.inner.ingest_stats()
    }

    fn resident_bytes(&self) -> usize {
        self.inner.resident_bytes()
    }

    fn hibernate(&mut self, path: &Path) -> Result<(), SessionIoError> {
        self.inner.hibernate(path)
    }

    fn rehydrate(&mut self, path: &Path) -> Result<(), SessionIoError> {
        self.inner.rehydrate(path)
    }

    fn replication_stats(&self) -> Option<ReplicationStats> {
        self.inner.replication_stats()
    }

    fn drain_replication(&mut self) -> Result<(), SessionIoError> {
        self.inner.drain_replication()
    }
}

/// A [`PipelineExtension`] that forwards to `inner` with a span around the
/// two callbacks on the frame path. Used on traced runs only; the count of
/// `after_iteration` spans is also the frame's tracking-iteration count.
pub struct TracedExtension {
    inner: Box<dyn PipelineExtension + Send>,
}

impl TracedExtension {
    pub fn wrap(inner: Box<dyn PipelineExtension + Send>) -> Box<dyn PipelineExtension + Send> {
        Box::new(Self { inner })
    }
}

impl PipelineExtension for TracedExtension {
    fn frame_directives(&mut self, frame: usize, since_keyframe: usize) -> FrameDirectives {
        self.inner.frame_directives(frame, since_keyframe)
    }

    fn after_tracking_iteration(&mut self, artifacts: &IterationArtifacts<'_>, mask: &mut [bool]) {
        let _span = trace::span("core.extension.after_iteration");
        self.inner.after_tracking_iteration(artifacts, mask);
    }

    fn end_of_frame(
        &mut self,
        map: &ShardedScene,
        mask: &[bool],
        is_keyframe: bool,
    ) -> Option<Vec<bool>> {
        let _span = trace::span("core.extension.end_of_frame");
        self.inner.end_of_frame(map, mask, is_keyframe)
    }

    fn on_scene_resized(&mut self, new_capacity: usize) {
        self.inner.on_scene_resized(new_capacity);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Bytes written into one end of a link.
#[derive(Debug, Default)]
pub struct LinkCounters {
    pub bytes_written: AtomicU64,
}

/// A [`ByteLink`] that forwards to `inner`, counts what is written and
/// spans every call.
pub struct CountingLink<L> {
    inner: L,
    counters: Arc<LinkCounters>,
}

impl<L: ByteLink> CountingLink<L> {
    pub fn new(inner: L) -> (Self, Arc<LinkCounters>) {
        let counters = Arc::new(LinkCounters::default());
        (
            Self {
                inner,
                counters: Arc::clone(&counters),
            },
            counters,
        )
    }
}

impl<L: ByteLink> ByteLink for CountingLink<L> {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let _span = trace::span("replicate.transport.write");
        self.counters
            .bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.write(bytes)
    }

    fn read_available(&mut self, out: &mut Vec<u8>) -> std::io::Result<usize> {
        let _span = trace::span("replicate.transport.read");
        self.inner.read_available(out)
    }
}
