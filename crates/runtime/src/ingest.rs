//! Open-loop frame ingestion: bounded per-session inboxes, a session cap
//! at admission, and drop-oldest on a full inbox — the front-end that turns
//! the closed-loop scheduler into a serving system.
//!
//! Closed-loop serving (every tenant always has its next frame ready) can
//! only measure *throughput*. Production SLAM traffic is **open-loop**:
//! cameras emit frames at their own rate whether or not the server keeps up,
//! so the metrics that matter are queueing latency under offered load, drop
//! rate, and sessions-per-core at a fixed SLO. This module provides the
//! open-loop substrate, std-only and channel-based:
//!
//! - an [`IngestHub`] owns the fleet-wide session cap and hands out
//!   per-session channels. Opening a channel is **admission**, the one
//!   gate: it fails with a typed [`AdmissionError`] when the cap is reached
//!   — loud rejection at the front door instead of silent degradation
//!   inside;
//! - a [`FrameProducer`] is the tenant half: it pushes timestamped frames
//!   into a bounded inbox and never blocks. When the inbox is full the
//!   oldest queued frame is dropped to make room ([`LatePolicy`]). Every
//!   drop is counted, per-inbox and in the global telemetry registry;
//! - a [`FrameInbox`] is the scheduler half: the session pops a frame, does
//!   the work, and reports [`FrameInbox::frame_done`], which records the
//!   frame's full sojourn (queueing + service) into a latency histogram.
//!   An inbox knows whether it [`has_work`](FrameInbox::has_work), so the
//!   scheduler can *park* idle sessions instead of burning round-robin
//!   slots on them, and a [`WorkSignal`] wakes the scheduler when any
//!   producer delivers into an empty fleet.
//!
//! Frames are timestamped at push ([`IngestFrame::enqueued`]); the latency
//! recorded at `frame_done` is therefore the end-to-end figure an open-loop
//! load generator needs for p50/p99/p999 at a given offered rate.

use rtgs_telemetry::flight::hops;
use rtgs_telemetry::{
    emit_flow_span, journal_record, ns_since_epoch, Counter, EventKind, Gauge, Histogram,
    HistogramSnapshot, TraceCtx,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What happens to an incoming frame when its session's inbox is full.
///
/// There is exactly one policy, [`DropOldest`](Self::DropOldest): the
/// serving traffic never blocks a producer and never refuses fresh frames.
/// The type stays so configurations name the policy they rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LatePolicy {
    /// Evict the oldest queued frame to make room (freshness-first: a SLAM
    /// tracker prefers the newest observation over a stale backlog).
    #[default]
    DropOldest,
}

/// Configuration for the open-loop ingestion front-end.
///
/// `#[non_exhaustive]`: construct via [`IngestConfig::new`] (or
/// `Default`) plus the `with_*` builders, so future knobs are non-breaking.
#[derive(Debug, Clone)]
#[must_use = "attach the config to an IngestHub (or ServeBuilder::ingest)"]
#[non_exhaustive]
pub struct IngestConfig {
    /// Bounded inbox depth per session (frames). Values below 1 are treated
    /// as 1.
    pub inbox_capacity: usize,
    /// Full-inbox behavior.
    pub late_policy: LatePolicy,
    /// Cap on concurrently admitted sessions (`None` = unlimited).
    pub max_sessions: Option<usize>,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            inbox_capacity: 8,
            late_policy: LatePolicy::default(),
            max_sessions: None,
        }
    }
}

impl IngestConfig {
    /// The default config: 8-deep inboxes, drop-oldest, no session cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the per-session inbox depth.
    pub fn with_inbox_capacity(mut self, frames: usize) -> Self {
        self.inbox_capacity = frames.max(1);
        self
    }

    /// Sets the full-inbox behavior.
    pub fn with_late_policy(mut self, policy: LatePolicy) -> Self {
        self.late_policy = policy;
        self
    }

    /// Caps concurrently admitted sessions.
    pub fn with_max_sessions(mut self, sessions: usize) -> Self {
        self.max_sessions = Some(sessions);
        self
    }
}

/// Why a session was refused at admission. The variant carries the cap
/// that tripped, so rejections are actionable, not stringly mysterious.
#[derive(Debug)]
#[non_exhaustive]
pub enum AdmissionError {
    /// The hub's concurrent-session cap is reached.
    SessionLimit {
        /// Configured cap.
        limit: usize,
        /// Sessions currently admitted.
        admitted: usize,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::SessionLimit { limit, admitted } => write!(
                f,
                "admission rejected: session cap reached ({admitted} admitted, limit {limit})"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Result of a [`FrameProducer::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The frame was enqueued.
    Accepted,
    /// The frame was enqueued after evicting the oldest queued frame
    /// ([`LatePolicy::DropOldest`]).
    AcceptedDroppedOldest,
    /// The inbox is closed; the frame was discarded.
    Closed,
}

/// A timestamped frame in flight: sequence number, arrival instant, payload.
#[derive(Debug)]
pub struct IngestFrame<T> {
    /// Per-channel sequence number, assigned at push (0-based, gap-free on
    /// the producer side — gaps on the consumer side are drops).
    pub seq: u64,
    /// When the producer delivered the frame (sojourn time is measured from
    /// here).
    pub enqueued: Instant,
    /// Flight-recorder trace context, minted at push. Carried through the
    /// pipeline, checkpoint capture, and the replication wire so one frame's
    /// lifecycle stitches into a single cross-process trace.
    pub trace: TraceCtx,
    /// The frame payload.
    pub payload: T,
}

/// Wakes the scheduler when any producer delivers into an idle fleet.
///
/// A monotone version counter under a mutex plus a condvar: producers
/// [`notify`](WorkSignal::notify) after every delivery, the scheduler
/// [`wait_past`](WorkSignal::wait_past) a version it has already seen. The
/// version makes the handoff race-free: a notification between "scan found
/// nothing" and "wait" is never lost.
#[derive(Debug, Default)]
pub struct WorkSignal {
    version: Mutex<u64>,
    cond: Condvar,
}

impl WorkSignal {
    /// A fresh signal at version 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current version (capture before scanning for work).
    pub fn version(&self) -> u64 {
        *self.version.lock().unwrap()
    }

    /// Bumps the version and wakes all waiters.
    pub fn notify(&self) {
        let mut v = self.version.lock().unwrap();
        *v += 1;
        self.cond.notify_all();
    }

    /// Blocks until the version advances past `seen` or `timeout` elapses;
    /// returns the version observed on wake.
    pub fn wait_past(&self, seen: u64, timeout: Duration) -> u64 {
        let guard = self.version.lock().unwrap();
        let (guard, _) = self
            .cond
            .wait_timeout_while(guard, timeout, |v| *v <= seen)
            .unwrap();
        *guard
    }
}

/// Per-inbox counters shared by the producer and consumer halves.
struct InboxCounters {
    offered: AtomicU64,
    processed: AtomicU64,
    dropped_oldest: AtomicU64,
    degraded: AtomicU64,
    max_depth: AtomicU64,
}

impl InboxCounters {
    fn new() -> Self {
        Self {
            offered: AtomicU64::new(0),
            processed: AtomicU64::new(0),
            dropped_oldest: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            max_depth: AtomicU64::new(0),
        }
    }

    fn record_depth(&self, depth: usize) {
        self.max_depth.fetch_max(depth as u64, Ordering::Relaxed);
    }
}

struct InboxState<T> {
    queue: VecDeque<IngestFrame<T>>,
    next_seq: u64,
    closed: bool,
}

/// State shared by a channel's producer and inbox halves.
struct Shared<T> {
    state: Mutex<InboxState<T>>,
    capacity: usize,
    counters: InboxCounters,
    /// Hub-unique channel id, stamped into black-box journal events so
    /// post-mortem bundles attribute drops/sheds to a session.
    channel_id: u32,
    /// End-to-end per-frame latency (push → `frame_done`), nanoseconds.
    latency: Histogram,
    /// Live producer clones; the channel auto-closes when the last drops.
    producers: AtomicUsize,
    hub: Arc<HubInner>,
}

impl<T> Shared<T> {
    fn close(&self) {
        let mut st = self.state.lock().unwrap();
        if !st.closed {
            st.closed = true;
            drop(st);
            // A parked scheduler must wake to run the now-drained session's
            // final (Finished) step.
            self.hub.signal.notify();
        }
    }
}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Frames abandoned in the queue leave the fleet-depth gauge.
        if let Ok(st) = self.state.get_mut() {
            self.hub.metrics.depth.add(-(st.queue.len() as i64));
        }
        self.hub.admitted.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The tenant half of a session channel: pushes timestamped frames.
///
/// Cloneable and `Send`; the channel closes when [`close`](Self::close) is
/// called or the last clone drops.
pub struct FrameProducer<T> {
    shared: Arc<Shared<T>>,
}

impl<T> std::fmt::Debug for FrameProducer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameProducer")
            .field("offered", &self.offered())
            .finish_non_exhaustive()
    }
}

impl<T> Clone for FrameProducer<T> {
    fn clone(&self) -> Self {
        self.shared.producers.fetch_add(1, Ordering::SeqCst);
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for FrameProducer<T> {
    fn drop(&mut self) {
        if self.shared.producers.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.shared.close();
        }
    }
}

impl<T> FrameProducer<T> {
    /// Pushes a frame timestamped now. See [`push_at`](Self::push_at).
    pub fn push(&self, payload: T) -> PushOutcome {
        self.push_at(payload, Instant::now())
    }

    /// Pushes a frame with an explicit arrival timestamp (an open-loop load
    /// generator backdates `enqueued` to the *intended* arrival instant so
    /// measured latency includes scheduling delay on the producer side).
    ///
    /// Never blocks: a full inbox drops its oldest frame
    /// ([`LatePolicy::DropOldest`]); every outcome is counted in the
    /// channel's [`IngestStats`] and the global registry.
    pub fn push_at(&self, payload: T, enqueued: Instant) -> PushOutcome {
        let sh = &self.shared;
        let mut st = sh.state.lock().unwrap();
        if st.closed {
            return PushOutcome::Closed;
        }
        let outcome = if st.queue.len() < sh.capacity {
            PushOutcome::Accepted
        } else {
            if let Some(old) = st.queue.pop_front() {
                journal_record(
                    EventKind::FrameDrop,
                    sh.channel_id,
                    old.trace.trace_id,
                    old.seq,
                    st.queue.len() as u64,
                );
            }
            sh.counters.dropped_oldest.fetch_add(1, Ordering::Relaxed);
            sh.hub.metrics.dropped_oldest.incr();
            PushOutcome::AcceptedDroppedOldest
        };
        let seq = st.next_seq;
        st.next_seq += 1;
        st.queue.push_back(IngestFrame {
            seq,
            enqueued,
            trace: TraceCtx::fresh(),
            payload,
        });
        let depth = st.queue.len();
        drop(st);
        sh.counters.offered.fetch_add(1, Ordering::Relaxed);
        sh.counters.record_depth(depth);
        sh.hub.metrics.offered.incr();
        if matches!(outcome, PushOutcome::Accepted) {
            sh.hub.metrics.depth.add(1);
        }
        sh.hub.signal.notify();
        outcome
    }

    /// Closes the channel: the inbox drains its backlog, then reports
    /// end-of-stream. Idempotent.
    pub fn close(&self) {
        self.shared.close();
    }

    /// Frames offered so far on this channel (accepted + dropped).
    pub fn offered(&self) -> u64 {
        self.shared.counters.offered.load(Ordering::Relaxed)
    }
}

/// The scheduler half of a session channel: pops frames, reports results.
pub struct FrameInbox<T> {
    shared: Arc<Shared<T>>,
}

impl<T> std::fmt::Debug for FrameInbox<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameInbox")
            .field("depth", &self.depth())
            .field("closed", &self.is_closed())
            .finish_non_exhaustive()
    }
}

impl<T> FrameInbox<T> {
    /// Pops the next queued frame, if any. Never blocks.
    pub fn try_pop(&self) -> Option<IngestFrame<T>> {
        let frame = self.shared.state.lock().unwrap().queue.pop_front();
        if frame.is_some() {
            self.shared.hub.metrics.depth.add(-1);
        }
        frame
    }

    /// Frames currently queued.
    pub fn depth(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// Hub-unique id of this channel, used to attribute black-box journal
    /// events (drops, sheds) to a session in post-mortem bundles.
    pub fn channel_id(&self) -> u32 {
        self.shared.channel_id
    }

    /// Whether at least one frame is queued.
    pub fn has_work(&self) -> bool {
        !self.shared.state.lock().unwrap().queue.is_empty()
    }

    /// Whether the producer side has closed the channel.
    pub fn is_closed(&self) -> bool {
        self.shared.state.lock().unwrap().closed
    }

    /// Whether the stream is over: closed *and* the backlog is empty.
    pub fn is_drained(&self) -> bool {
        let st = self.shared.state.lock().unwrap();
        st.closed && st.queue.is_empty()
    }

    /// Reports a popped frame as processed, recording its end-to-end sojourn
    /// (push → now) in the channel's latency histogram. `degraded` marks
    /// frames served on the downsampled shed path. Returns the recorded
    /// latency in nanoseconds.
    pub fn frame_done(&self, frame: IngestFrame<T>, degraded: bool) -> u64 {
        let ns = frame.enqueued.elapsed().as_nanos() as u64;
        let c = &self.shared.counters;
        c.processed.fetch_add(1, Ordering::Relaxed);
        if degraded {
            c.degraded.fetch_add(1, Ordering::Relaxed);
            self.shared.hub.metrics.degraded.incr();
        }
        self.shared.latency.record(ns);
        self.shared.hub.metrics.processed.incr();
        self.shared.hub.metrics.frame_ns.record(ns);
        // First hop of the frame's flight trace: the full ingest sojourn
        // (queueing + service), with an outgoing flow edge into the tracker.
        emit_flow_span(
            "ingest.frame",
            "ingest",
            ns_since_epoch(frame.enqueued),
            ns,
            frame.seq,
            frame.trace.trace_id,
            hops::INGEST,
        );
        ns
    }

    /// Snapshot of this channel's ingestion counters and latency
    /// distribution.
    pub fn stats(&self) -> IngestStats {
        let c = &self.shared.counters;
        IngestStats {
            offered: c.offered.load(Ordering::Relaxed),
            processed: c.processed.load(Ordering::Relaxed),
            dropped_oldest: c.dropped_oldest.load(Ordering::Relaxed),
            degraded: c.degraded.load(Ordering::Relaxed),
            max_depth: c.max_depth.load(Ordering::Relaxed),
            latency: self.shared.latency.snapshot(),
        }
    }
}

/// Snapshot of one channel's open-loop counters, carried into
/// `SessionStats::ingest` so serving outcomes report drops and sheds
/// alongside step latency.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct IngestStats {
    /// Frames the producer offered (accepted + dropped).
    pub offered: u64,
    /// Frames popped and reported done by the session.
    pub processed: u64,
    /// Queued frames evicted by [`LatePolicy::DropOldest`].
    pub dropped_oldest: u64,
    /// Frames served on the degraded (downsampled) shed path.
    pub degraded: u64,
    /// High-water inbox depth.
    pub max_depth: u64,
    /// End-to-end per-frame latency (queueing + service), nanoseconds.
    pub latency: HistogramSnapshot,
}

impl IngestStats {
    /// Total frames dropped.
    pub fn dropped(&self) -> u64 {
        self.dropped_oldest
    }

    /// Dropped fraction of offered frames (0 when nothing was offered).
    pub fn drop_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.dropped() as f64 / self.offered as f64
        }
    }
}

/// Global-registry handles for fleet-wide ingestion metrics.
struct HubMetrics {
    offered: Arc<Counter>,
    processed: Arc<Counter>,
    dropped_oldest: Arc<Counter>,
    degraded: Arc<Counter>,
    /// Frames queued across all inboxes right now.
    depth: Arc<Gauge>,
    frame_ns: Arc<Histogram>,
}

impl HubMetrics {
    fn from_global() -> Self {
        let registry = rtgs_telemetry::global();
        Self {
            offered: registry.counter("ingest.offered"),
            processed: registry.counter("ingest.processed"),
            dropped_oldest: registry.counter("ingest.dropped_oldest"),
            degraded: registry.counter("ingest.degraded_frames"),
            depth: registry.gauge("ingest.depth"),
            frame_ns: registry.histogram("ingest.frame_ns"),
        }
    }
}

struct HubInner {
    config: IngestConfig,
    signal: WorkSignal,
    admitted: AtomicUsize,
    /// Monotone channel-id source for journal attribution (never reused,
    /// unlike the admitted count).
    next_channel: AtomicU32,
    metrics: HubMetrics,
}

/// Fleet-wide ingestion front-end: owns the session cap and the scheduler
/// wake signal, and hands out per-session bounded channels.
///
/// Cheap to clone (an `Arc`); clone one half to the producer threads and
/// attach another to the scheduler via `ServeBuilder::ingest`.
#[derive(Clone)]
pub struct IngestHub {
    inner: Arc<HubInner>,
}

impl IngestHub {
    /// A hub enforcing `config`'s session cap.
    pub fn new(config: IngestConfig) -> Self {
        Self {
            inner: Arc::new(HubInner {
                config,
                signal: WorkSignal::new(),
                admitted: AtomicUsize::new(0),
                next_channel: AtomicU32::new(0),
                metrics: HubMetrics::from_global(),
            }),
        }
    }

    /// Sessions currently admitted (channels open).
    pub fn admitted(&self) -> usize {
        self.inner.admitted.load(Ordering::SeqCst)
    }

    /// The signal producers pulse on delivery; the scheduler parks on it
    /// when no session has work.
    pub fn signal(&self) -> &WorkSignal {
        &self.inner.signal
    }

    /// Admits one session — the front door's one gate — and returns the
    /// channel's two halves.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::SessionLimit`] when `max_sessions` channels are
    /// already open. Rejection leaves the hub's accounting untouched.
    pub fn channel<T: Send>(&self) -> Result<(FrameProducer<T>, FrameInbox<T>), AdmissionError> {
        let cfg = &self.inner.config;
        let capacity = cfg.inbox_capacity.max(1);
        // Single-admitter convention: serving setup opens channels from one
        // thread, so check-then-admit under SeqCst loads is race-free there;
        // concurrent admitters could only over-admit transiently.
        let admitted = self.inner.admitted.load(Ordering::SeqCst);
        if let Some(limit) = cfg.max_sessions {
            if admitted >= limit {
                journal_record(
                    EventKind::AdmissionReject,
                    self.inner.next_channel.load(Ordering::SeqCst),
                    0,
                    0,
                    admitted as u64,
                );
                return Err(AdmissionError::SessionLimit { limit, admitted });
            }
        }
        self.inner.admitted.fetch_add(1, Ordering::SeqCst);
        let shared = Arc::new(Shared {
            state: Mutex::new(InboxState {
                queue: VecDeque::with_capacity(capacity),
                next_seq: 0,
                closed: false,
            }),
            capacity,
            counters: InboxCounters::new(),
            channel_id: self.inner.next_channel.fetch_add(1, Ordering::SeqCst),
            latency: Histogram::new(),
            producers: AtomicUsize::new(1),
            hub: Arc::clone(&self.inner),
        });
        Ok((
            FrameProducer {
                shared: Arc::clone(&shared),
            },
            FrameInbox { shared },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub(cfg: IngestConfig) -> IngestHub {
        IngestHub::new(cfg)
    }

    #[test]
    fn fifo_order_and_stats_without_pressure() {
        let h = hub(IngestConfig::new().with_inbox_capacity(8));
        let (tx, rx) = h.channel::<u32>().unwrap();
        for v in 0..5u32 {
            assert_eq!(tx.push(v), PushOutcome::Accepted);
        }
        assert_eq!(rx.depth(), 5);
        for expect in 0..5u32 {
            let frame = rx.try_pop().unwrap();
            assert_eq!(frame.payload, expect);
            assert_eq!(frame.seq, u64::from(expect));
            rx.frame_done(frame, false);
        }
        assert!(rx.try_pop().is_none());
        let stats = rx.stats();
        assert_eq!(stats.offered, 5);
        assert_eq!(stats.processed, 5);
        assert_eq!(stats.dropped(), 0);
        assert_eq!(stats.max_depth, 5);
        assert_eq!(stats.latency.count(), 5);
    }

    #[test]
    fn drop_oldest_keeps_newest_contiguous_suffix() {
        let h = hub(IngestConfig::new().with_inbox_capacity(3));
        let (tx, rx) = h.channel::<u64>().unwrap();
        for v in 0..10u64 {
            let outcome = tx.push(v);
            assert!(matches!(
                outcome,
                PushOutcome::Accepted | PushOutcome::AcceptedDroppedOldest
            ));
        }
        // Capacity 3, drop-oldest: the queue is exactly the newest suffix.
        let kept: Vec<u64> = std::iter::from_fn(|| rx.try_pop().map(|f| f.payload)).collect();
        assert_eq!(kept, vec![7, 8, 9]);
        let stats = rx.stats();
        assert_eq!(stats.offered, 10);
        assert_eq!(stats.dropped_oldest, 7);
        assert_eq!(stats.dropped(), 7);
    }

    #[test]
    fn close_unblocks_producer_and_drains() {
        // A full inbox at close: a push from any producer clone afterwards
        // is refused, and the backlog still drains before end-of-stream.
        let h = hub(IngestConfig::new().with_inbox_capacity(1));
        let (tx, rx) = h.channel::<u64>().unwrap();
        assert_eq!(tx.push(0), PushOutcome::Accepted);
        assert_eq!(tx.push(1), PushOutcome::AcceptedDroppedOldest);
        let tx2 = tx.clone();
        tx.close();
        assert_eq!(tx2.push(2), PushOutcome::Closed);
        assert!(rx.is_closed());
        assert!(!rx.is_drained(), "backlog still queued");
        assert_eq!(rx.try_pop().unwrap().payload, 1);
        assert!(rx.is_drained());
        assert_eq!(tx.push(3), PushOutcome::Closed);
        let stats = rx.stats();
        assert_eq!(stats.offered, 2, "a refused push is not offered");
        assert_eq!(stats.dropped(), 1);
    }

    #[test]
    fn dropping_last_producer_closes_the_channel() {
        let h = hub(IngestConfig::new());
        let (tx, rx) = h.channel::<u64>().unwrap();
        let tx2 = tx.clone();
        drop(tx);
        assert!(!rx.is_closed(), "a clone still holds the channel open");
        tx2.push(7);
        drop(tx2);
        assert!(rx.is_closed());
        assert_eq!(rx.try_pop().unwrap().payload, 7);
        assert!(rx.is_drained());
    }

    #[test]
    fn session_cap_rejects_loudly_and_releases_on_drop() {
        let h = hub(IngestConfig::new().with_max_sessions(2));
        let a = h.channel::<u8>().unwrap();
        let _b = h.channel::<u8>().unwrap();
        match h.channel::<u8>() {
            Err(AdmissionError::SessionLimit { limit, admitted }) => {
                assert_eq!(limit, 2);
                assert_eq!(admitted, 2);
            }
            other => panic!("expected SessionLimit, got {other:?}"),
        }
        // Dropping a channel releases its admission slot.
        drop(a);
        assert_eq!(h.admitted(), 1);
        assert!(h.channel::<u8>().is_ok());
    }

    #[test]
    fn work_signal_version_handoff_is_lossless() {
        let signal = Arc::new(WorkSignal::new());
        let seen = signal.version();
        // Notify *before* the wait starts: the versioned wait must not
        // sleep through it.
        signal.notify();
        let woke = signal.wait_past(seen, Duration::from_secs(5));
        assert!(woke > seen);
        // And a wait with no pending notification times out quietly.
        let v = signal.version();
        assert_eq!(signal.wait_past(v, Duration::from_millis(5)), v);
    }
}
