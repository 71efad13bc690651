//! The primary side: capture, send, retransmit, resync.
//!
//! A [`Replicator`] owns the primary's [`CheckpointLog`] and the sending
//! half of the transport. Per frame, [`Replicator::on_frame`] captures
//! into the log (base first, dirty-shard delta after) and ships the new
//! record; [`Replicator::pump`] advances the fault/retransmission clock,
//! consumes acks and resync requests from the return path, and
//! retransmits unacknowledged records with capped exponential backoff.
//!
//! Resync — the recovery from a broken delta chain — leans on a property
//! of the delta format: deltas are state-diffs keyed by shard versions,
//! independent of their position in the chain, so the primary can
//! [`compact`](rtgs_snapshot::CheckpointLog::compact) its log and ship the
//! folded base as a fresh chain start **without** disturbing subsequent
//! captures. Each resync bumps the stream epoch; the follower discards
//! stale-epoch records.

use crate::fault::{FaultPlan, FaultStats, FaultyLink};
use crate::protocol::{Message, RecordKind, StreamRecord, TraceTag};
use crate::transport::ByteLink;
use crate::wire::FrameScanner;
use crate::ReplicationError;
use rtgs_runtime::ReplicationStats;
use rtgs_snapshot::{write_file_atomic, CaptureStats, CheckpointLog, SnapshotError};
use rtgs_telemetry::flight::hops;
use rtgs_telemetry::{emit_flow_span, journal_record, ns_since_epoch, EventKind, TraceCtx};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::Instant;

/// Tuning for the send/retransmit side of a replication stream.
///
/// `#[non_exhaustive]`: construct via [`ReplicationPolicy::new`] plus the
/// `with_*` builders.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ReplicationPolicy {
    /// Capture stride: replicate every `every`-th frame (1 = every frame).
    /// Skipped frames count as `frames_dropped_by_policy` — their state
    /// still reaches the follower inside the next captured delta, but no
    /// record covers them individually.
    pub every: u64,
    /// Pump ticks without an ack before the first retransmission.
    pub retransmit_after: u64,
    /// Cap on the exponential backoff between retransmissions, in ticks.
    pub backoff_cap_ticks: u64,
    /// Send attempts per record (first send included) before the stream
    /// reports [`ReplicationError::RetriesExhausted`].
    pub max_attempts: u32,
}

impl Default for ReplicationPolicy {
    fn default() -> Self {
        Self {
            every: 1,
            retransmit_after: 4,
            backoff_cap_ticks: 64,
            max_attempts: 20,
        }
    }
}

impl ReplicationPolicy {
    /// The default policy: every frame, retransmit after 4 ticks, backoff
    /// capped at 64 ticks, 20 attempts.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the capture stride (values below 1 are treated as 1).
    #[must_use]
    pub fn with_every(mut self, every: u64) -> Self {
        self.every = every.max(1);
        self
    }

    /// Sets the ack timeout before the first retransmission.
    #[must_use]
    pub fn with_retransmit_after(mut self, ticks: u64) -> Self {
        self.retransmit_after = ticks.max(1);
        self
    }

    /// Sets the backoff cap.
    #[must_use]
    pub fn with_backoff_cap(mut self, ticks: u64) -> Self {
        self.backoff_cap_ticks = ticks.max(1);
        self
    }

    /// Sets the retry budget.
    #[must_use]
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }
}

/// A sent-but-unacknowledged record.
#[derive(Debug)]
struct Pending {
    seq: u64,
    frames_covered: u64,
    /// The sealed wire envelope, kept for retransmission.
    envelope: Vec<u8>,
    sent_tick: u64,
    attempts: u32,
    /// Current ack timeout (doubles per retransmission, capped).
    backoff: u64,
    /// Flight trace of the covered frame (0 = untraced), so retransmit
    /// journal events attribute to the frame's cross-process trace.
    trace_id: u64,
}

/// Primary-side metric handles (resolved once from the global registry).
struct PrimaryMetrics {
    records_sent: std::sync::Arc<rtgs_telemetry::Counter>,
    records_acked: std::sync::Arc<rtgs_telemetry::Counter>,
    retransmits: std::sync::Arc<rtgs_telemetry::Counter>,
    resyncs: std::sync::Arc<rtgs_telemetry::Counter>,
    frames_behind: std::sync::Arc<rtgs_telemetry::Gauge>,
    bytes_queued: std::sync::Arc<rtgs_telemetry::Gauge>,
}

impl PrimaryMetrics {
    fn from_global() -> Self {
        let registry = rtgs_telemetry::global();
        Self {
            records_sent: registry.counter("replicate.records_sent"),
            records_acked: registry.counter("replicate.records_acked"),
            retransmits: registry.counter("replicate.retransmits"),
            resyncs: registry.counter("replicate.resyncs"),
            frames_behind: registry.gauge("replicate.frames_behind"),
            bytes_queued: registry.gauge("replicate.bytes_queued"),
        }
    }
}

/// The primary end of one session's replication stream.
pub struct Replicator<L: ByteLink> {
    link: FaultyLink<L>,
    acks: FrameScanner,
    log: CheckpointLog,
    policy: ReplicationPolicy,
    fingerprint: u64,
    epoch: u32,
    next_seq: u64,
    tick: u64,
    pending: VecDeque<Pending>,
    /// Session id stamped on black-box journal events (0 unless set via
    /// [`with_session_index`](Self::with_session_index)).
    session_index: u32,
    /// Durable journal written (atomically) at drain time.
    journal: Option<PathBuf>,
    metrics: PrimaryMetrics,
    frames_replicated: u64,
    frames_dropped_by_policy: u64,
    records_sent: u64,
    records_acked: u64,
    retransmits: u64,
    resyncs: u64,
}

impl<L: ByteLink> Replicator<L> {
    /// A replicator streaming over `link` under `plan`'s injected faults
    /// (use [`FaultPlan::lossless`] for none). `fingerprint` identifies
    /// the session config (see [`rtgs_slam::config_fingerprint`]) and is
    /// stamped on every record.
    pub fn new(link: L, fingerprint: u64, policy: ReplicationPolicy, plan: FaultPlan) -> Self {
        Self {
            link: FaultyLink::new(link, plan),
            acks: FrameScanner::new(),
            log: CheckpointLog::new(),
            policy,
            fingerprint,
            epoch: 0,
            next_seq: 0,
            tick: 0,
            pending: VecDeque::new(),
            session_index: 0,
            journal: None,
            metrics: PrimaryMetrics::from_global(),
            frames_replicated: 0,
            frames_dropped_by_policy: 0,
            records_sent: 0,
            records_acked: 0,
            retransmits: 0,
            resyncs: 0,
        }
    }

    /// Attaches a durable journal: [`Replicator::drain`] writes the full
    /// encoded log there (staged + fsynced + renamed) so a machine that
    /// lost both processes can still recover the stream's final state.
    #[must_use]
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }

    /// Sets the session id stamped on this stream's black-box journal
    /// events (resyncs, retransmits, epoch bumps).
    #[must_use]
    pub fn with_session_index(mut self, session: u32) -> Self {
        self.session_index = session;
        self
    }

    /// Current resync epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Sent-but-unacknowledged records.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Injected-fault counters of the underlying link.
    pub fn fault_stats(&self) -> FaultStats {
        self.link.stats()
    }

    /// Point-in-time replication counters (the scheduler surfaces these in
    /// [`SessionStats`](rtgs_runtime::SessionStats)).
    pub fn stats(&self) -> ReplicationStats {
        ReplicationStats {
            frames_replicated: self.frames_replicated,
            frames_dropped_by_policy: self.frames_dropped_by_policy,
            frames_behind: self.pending.iter().map(|p| p.frames_covered).sum(),
            bytes_queued: self.pending.iter().map(|p| p.envelope.len() as u64).sum(),
            records_sent: self.records_sent,
            records_acked: self.records_acked,
            retransmits: self.retransmits,
            resyncs: self.resyncs,
            epoch: self.epoch,
        }
    }

    fn export_lag(&self) {
        let stats = self.stats();
        self.metrics.frames_behind.set(stats.frames_behind as i64);
        self.metrics.bytes_queued.set(stats.bytes_queued as i64);
    }

    /// Ships the log's newest capture — its base for [`RecordKind::Base`],
    /// its last delta otherwise — written from the log straight into the
    /// envelope kept for retransmission.
    fn send_record(
        &mut self,
        kind: RecordKind,
        frame: u64,
        frames_covered: u64,
        trace: TraceCtx,
    ) -> Result<(), ReplicationError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let t0 = Instant::now();
        let envelope = Message::Record(StreamRecord {
            kind,
            epoch: self.epoch,
            seq,
            frame,
            frames_covered,
            config_fingerprint: self.fingerprint,
            // The frame's flight trace rides the wire so the follower's
            // replay span joins the same trace.
            trace: trace.is_traced().then_some(TraceTag {
                trace_id: trace.trace_id,
                hop: hops::WIRE,
            }),
            payload: match kind {
                RecordKind::Base => self.log.base_bytes(),
                RecordKind::Delta => (self.log.delta_count().checked_sub(1))
                    .and_then(|last| self.log.delta_bytes(last))
                    .expect("capture appended a delta"),
            },
        })
        .seal();
        self.link.send_envelope(&envelope)?;
        if trace.is_traced() {
            emit_flow_span(
                "replicate.wire",
                "replicate",
                ns_since_epoch(t0),
                t0.elapsed().as_nanos() as u64,
                seq,
                trace.trace_id,
                hops::WIRE,
            );
        }
        self.records_sent += 1;
        self.metrics.records_sent.incr();
        self.pending.push_back(Pending {
            seq,
            frames_covered,
            envelope,
            sent_tick: self.tick,
            attempts: 1,
            backoff: self.policy.retransmit_after,
            trace_id: trace.trace_id,
        });
        self.export_lag();
        Ok(())
    }

    /// Captures the session's state for `frame` via `checkpoint` (the
    /// caller's `SlamPipeline::checkpoint_into` bound to its own log) and
    /// ships the resulting record. Frames skipped by the capture stride
    /// are counted as dropped-by-policy and not captured at all — their
    /// changes ride inside the next captured delta.
    ///
    /// # Errors
    ///
    /// Capture errors ([`SnapshotError`]) and transport write failures.
    pub fn on_frame<F>(&mut self, frame: u64, checkpoint: F) -> Result<(), ReplicationError>
    where
        F: FnOnce(&mut CheckpointLog) -> Result<CaptureStats, SnapshotError>,
    {
        self.on_frame_traced(frame, TraceCtx::NONE, checkpoint)
    }

    /// [`on_frame`](Self::on_frame) carrying the frame's flight-recorder
    /// trace context: the checkpoint capture is spanned at the checkpoint
    /// hop, and the record ships a [`TraceTag`] so the follower's replay
    /// stitches into the same cross-process trace.
    ///
    /// # Errors
    ///
    /// Capture errors ([`SnapshotError`]) and transport write failures.
    pub fn on_frame_traced<F>(
        &mut self,
        frame: u64,
        trace: TraceCtx,
        checkpoint: F,
    ) -> Result<(), ReplicationError>
    where
        F: FnOnce(&mut CheckpointLog) -> Result<CaptureStats, SnapshotError>,
    {
        if frame % self.policy.every.max(1) != 0 {
            self.frames_dropped_by_policy += 1;
            return Ok(());
        }
        let t0 = Instant::now();
        let stats = checkpoint(&mut self.log)?;
        if trace.is_traced() {
            emit_flow_span(
                "replicate.checkpoint",
                "replicate",
                ns_since_epoch(t0),
                t0.elapsed().as_nanos() as u64,
                frame,
                trace.trace_id,
                hops::CHECKPOINT,
            );
        }
        let kind = if stats.is_base {
            RecordKind::Base
        } else {
            RecordKind::Delta
        };
        self.send_record(kind, frame, 1, trace)
    }

    /// Compacts the primary's log in place (folds deltas into the base).
    /// Deliberately **not** a resync: deltas are state-diffs keyed by
    /// shard versions, so records already in flight — and every future
    /// delta — apply to the follower's standby unchanged. The epoch does
    /// not move. Exercised against every fault plan by the property tests.
    ///
    /// # Errors
    ///
    /// Compaction (replay) errors from the log.
    pub fn compact(&mut self) -> Result<(), ReplicationError> {
        self.log.compact()?;
        Ok(())
    }

    /// Re-bases the stream: folds the log into a single base (byte-
    /// identical to a fresh capture), bumps the epoch, abandons every
    /// pending record of the old epoch, and ships the base as a fresh
    /// chain start covering everything that was outstanding.
    ///
    /// Public so an operator can force a re-base; normally triggered by a
    /// follower's resync request.
    ///
    /// # Errors
    ///
    /// Compaction errors and transport write failures.
    pub fn resync(&mut self) -> Result<(), ReplicationError> {
        self.log.compact()?;
        self.epoch += 1;
        let outstanding: u64 = self.pending.iter().map(|p| p.frames_covered).sum();
        self.pending.clear();
        self.resyncs += 1;
        self.metrics.resyncs.incr();
        journal_record(
            EventKind::Resync,
            self.session_index,
            0,
            self.next_seq,
            outstanding,
        );
        journal_record(
            EventKind::EpochBump,
            self.session_index,
            0,
            self.next_seq,
            u64::from(self.epoch),
        );
        let frame = 0; // a base is positionless; coverage is in frames_covered
        self.send_record(RecordKind::Base, frame, outstanding, TraceCtx::NONE)
    }

    fn handle_ack(&mut self, epoch: u32, seq: u64) {
        if epoch != self.epoch {
            return; // ack for an abandoned epoch
        }
        while let Some(front) = self.pending.front() {
            if front.seq > seq {
                break;
            }
            let acked = self.pending.pop_front().expect("front exists");
            self.frames_replicated += acked.frames_covered;
            self.records_acked += 1;
            self.metrics.records_acked.incr();
        }
        self.export_lag();
    }

    /// Advances the stream one tick: releases fault-delayed envelopes,
    /// consumes acks and resync requests from the return path, and
    /// retransmits overdue records with capped exponential backoff.
    ///
    /// # Errors
    ///
    /// [`ReplicationError::RetriesExhausted`] when a record used up its
    /// attempt budget, compaction/transport errors from a triggered
    /// resync.
    pub fn pump(&mut self) -> Result<(), ReplicationError> {
        self.tick += 1;
        self.link.tick()?;

        // Return path: acks and resync requests (clean — the fault plan
        // applies to the forward direction only).
        self.acks.fill_from(self.link.inner_mut())?;
        let mut resync_now = false;
        while let Some(payload) = self.acks.next_payload() {
            match Message::decode(&payload) {
                Ok(Message::Ack { epoch, seq }) => self.handle_ack(epoch, seq),
                Ok(Message::ResyncRequest { epoch, .. }) => {
                    // Honor only requests about the current epoch; a stale
                    // request races a re-base that already happened.
                    if epoch == self.epoch {
                        resync_now = true;
                    }
                }
                Ok(Message::Record(_)) | Err(_) => {
                    // A record on the return path (or garbage) is a peer
                    // bug; ignore rather than corrupt our own state.
                }
            }
        }
        if resync_now {
            self.resync()?;
            return Ok(());
        }

        // Retransmission: every overdue pending record goes out again.
        let mut overdue = Vec::new();
        for (i, pending) in self.pending.iter_mut().enumerate() {
            if self.tick.saturating_sub(pending.sent_tick) >= pending.backoff {
                if pending.attempts >= self.policy.max_attempts {
                    return Err(ReplicationError::RetriesExhausted {
                        seq: pending.seq,
                        attempts: pending.attempts,
                    });
                }
                pending.attempts += 1;
                pending.sent_tick = self.tick;
                pending.backoff = (pending.backoff * 2).min(self.policy.backoff_cap_ticks);
                overdue.push(i);
            }
        }
        for i in overdue {
            let pending = &self.pending[i];
            self.link.send_envelope(&pending.envelope)?;
            self.retransmits += 1;
            self.metrics.retransmits.incr();
            journal_record(
                EventKind::Retransmit,
                self.session_index,
                pending.trace_id,
                pending.seq,
                self.tick,
            );
        }
        Ok(())
    }

    /// Flushes the stream for shutdown: releases every fault-held
    /// envelope, then pumps until every outstanding record is acked —
    /// so `frames_processed == frames_replicated + frames_dropped_by_policy`
    /// holds in final stats — and commits the durable journal (staged,
    /// fsynced, renamed). Spins with short sleeps between pumps; the
    /// follower must be pumping concurrently (or between our pumps via
    /// the in-process link).
    ///
    /// # Errors
    ///
    /// [`ReplicationError::DrainStalled`] when the stream stops making
    /// progress, plus any pump error.
    pub fn drain(&mut self) -> Result<(), ReplicationError> {
        self.link.flush_held()?;
        let mut stalled_ticks = 0u32;
        let mut last_outstanding = self.pending.len();
        while !self.pending.is_empty() {
            self.pump()?;
            self.link.flush_held()?;
            if self.pending.len() < last_outstanding {
                last_outstanding = self.pending.len();
                stalled_ticks = 0;
            } else {
                stalled_ticks += 1;
                if stalled_ticks
                    > 4 * self.policy.max_attempts * self.policy.backoff_cap_ticks as u32
                {
                    return Err(ReplicationError::DrainStalled {
                        outstanding: self.pending.len(),
                    });
                }
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
        }
        self.export_lag();
        if let Some(path) = &self.journal {
            write_file_atomic(path, &self.log.encode())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::follower::Follower;
    use crate::transport::{duplex_pair, DuplexLink};
    use rtgs_math::{Quat, Vec3};
    use rtgs_render::{Gaussian3d, ShardedScene};

    const FP: u64 = 0xFEED;

    fn g_at(p: Vec3) -> Gaussian3d {
        Gaussian3d::from_activated(p, Vec3::splat(0.05), Quat::IDENTITY, 0.8, Vec3::X)
    }

    fn spread_map(n: usize) -> ShardedScene {
        let mut map = ShardedScene::new(1.0);
        for i in 0..n {
            map.insert(g_at(Vec3::new(i as f32 * 1.5, 0.0, 2.0)));
        }
        map
    }

    fn pair(
        policy: ReplicationPolicy,
        plan: FaultPlan,
    ) -> (Replicator<DuplexLink>, Follower<DuplexLink>) {
        let (a, b) = duplex_pair();
        (Replicator::new(a, FP, policy, plan), Follower::new(b, FP))
    }

    /// Pumps both ends until the primary has nothing outstanding (or the
    /// iteration budget runs out — which is a test failure, not a hang).
    fn settle(primary: &mut Replicator<DuplexLink>, follower: &mut Follower<DuplexLink>) {
        for _ in 0..10_000 {
            primary.pump().unwrap();
            follower.pump().unwrap();
            if primary.outstanding() == 0 {
                return;
            }
        }
        panic!(
            "stream failed to settle: {} outstanding, {:?}",
            primary.outstanding(),
            primary.fault_stats()
        );
    }

    fn assert_converged(
        primary: &Replicator<DuplexLink>,
        follower: &Follower<DuplexLink>,
        map: &ShardedScene,
    ) {
        assert!(follower.is_warm(), "follower never received a base");
        let primary_state = primary.log.restore().unwrap().0.export_state();
        // Rebuild a log from the follower's standby exactly as promote()
        // does, and compare bitwise.
        let (follower_scene, _, _) = follower
            .standby()
            .expect("warm follower")
            .restore()
            .unwrap();
        let follower_state = follower_scene.export_state();
        assert_eq!(follower_state, primary_state, "standby diverged");
        assert_eq!(
            follower_state,
            map.export_state(),
            "both diverged from live"
        );
    }

    #[test]
    fn lossless_stream_converges_bitwise() {
        let (mut primary, mut follower) = pair(ReplicationPolicy::new(), FaultPlan::lossless(1));
        let mut map = spread_map(6);
        for frame in 0..6u64 {
            if frame > 0 {
                map.gaussian_mut((frame - 1) as u32).position.y = frame as f32 * 0.1;
            }
            primary
                .on_frame(frame, |log| log.capture(&map, &[], b"m"))
                .unwrap();
            settle(&mut primary, &mut follower);
        }
        assert_converged(&primary, &follower, &map);
        let stats = primary.stats();
        assert_eq!(stats.frames_replicated, 6);
        assert_eq!(stats.frames_dropped_by_policy, 0);
        assert_eq!(stats.frames_behind, 0);
        assert_eq!(stats.resyncs, 0);
        assert_eq!(stats.retransmits, 0);
        assert_eq!(follower.resync_requests(), 0);
    }

    #[test]
    fn chaos_stream_converges_bitwise() {
        let (mut primary, mut follower) = pair(
            ReplicationPolicy::new().with_retransmit_after(2),
            FaultPlan::chaos(99),
        );
        let mut map = spread_map(8);
        for frame in 0..30u64 {
            map.gaussian_mut((frame % 8) as u32).position.z = 2.0 + frame as f32 * 0.01;
            primary
                .on_frame(frame, |log| log.capture(&map, &[], b"m"))
                .unwrap();
            primary.pump().unwrap();
            follower.pump().unwrap();
        }
        settle(&mut primary, &mut follower);
        assert_converged(&primary, &follower, &map);
        let faults = primary.fault_stats();
        assert!(
            faults.dropped + faults.truncated + faults.corrupted + faults.delayed > 0,
            "chaos plan injected nothing: {faults:?}"
        );
        assert_eq!(primary.stats().frames_replicated, 30);
        assert_eq!(primary.stats().frames_behind, 0);
    }

    #[test]
    fn capture_stride_counts_dropped_by_policy() {
        let (mut primary, mut follower) = pair(
            ReplicationPolicy::new().with_every(2),
            FaultPlan::lossless(3),
        );
        let map = spread_map(4);
        for frame in 0..7u64 {
            primary
                .on_frame(frame, |log| log.capture(&map, &[], b""))
                .unwrap();
        }
        settle(&mut primary, &mut follower);
        let stats = primary.stats();
        // Frames 0,2,4,6 replicate; 1,3,5 drop by policy. The accounting
        // identity holds: processed == replicated + dropped_by_policy.
        assert_eq!(stats.frames_replicated, 4);
        assert_eq!(stats.frames_dropped_by_policy, 3);
        assert_eq!(stats.frames_replicated + stats.frames_dropped_by_policy, 7);
    }

    #[test]
    fn primary_compaction_is_transparent_to_follower() {
        let (mut primary, mut follower) = pair(ReplicationPolicy::new(), FaultPlan::lossless(4));
        let mut map = spread_map(6);
        for frame in 0..4u64 {
            map.gaussian_mut(frame as u32).position.y = 0.2;
            primary
                .on_frame(frame, |log| log.capture(&map, &[], b""))
                .unwrap();
        }
        settle(&mut primary, &mut follower);
        primary.compact().unwrap();
        for frame in 4..8u64 {
            map.gaussian_mut((frame % 6) as u32).position.y = 0.4;
            primary
                .on_frame(frame, |log| log.capture(&map, &[], b""))
                .unwrap();
        }
        settle(&mut primary, &mut follower);
        assert_converged(&primary, &follower, &map);
        assert_eq!(primary.epoch(), 0, "compaction must not bump the epoch");
        assert_eq!(follower.resync_requests(), 0);
    }

    #[test]
    fn forced_resync_rebases_under_new_epoch() {
        let (mut primary, mut follower) = pair(ReplicationPolicy::new(), FaultPlan::lossless(8));
        let mut map = spread_map(5);
        for frame in 0..3u64 {
            map.gaussian_mut(frame as u32).position.x += 0.1;
            primary
                .on_frame(frame, |log| log.capture(&map, &[], b""))
                .unwrap();
        }
        settle(&mut primary, &mut follower);
        primary.resync().unwrap();
        settle(&mut primary, &mut follower);
        for frame in 3..6u64 {
            map.gaussian_mut(frame as u32 % 5).position.x += 0.1;
            primary
                .on_frame(frame, |log| log.capture(&map, &[], b""))
                .unwrap();
        }
        settle(&mut primary, &mut follower);
        assert_converged(&primary, &follower, &map);
        assert_eq!(primary.epoch(), 1);
        assert_eq!(follower.epoch(), 1);
    }

    #[test]
    fn total_loss_exhausts_retries_with_typed_error() {
        let (mut primary, _follower) = pair(
            ReplicationPolicy::new()
                .with_retransmit_after(1)
                .with_backoff_cap(1)
                .with_max_attempts(3),
            FaultPlan::lossless(5).with_drop(1.0),
        );
        let map = spread_map(3);
        primary
            .on_frame(0, |log| log.capture(&map, &[], b""))
            .unwrap();
        let error = (0..100)
            .find_map(|_| primary.pump().err())
            .expect("a permanently-dropped record must exhaust its retries");
        match error {
            ReplicationError::RetriesExhausted { seq, attempts } => {
                assert_eq!(seq, 0);
                assert_eq!(attempts, 3);
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn drain_settles_with_a_threaded_follower() {
        let (a, b) = duplex_pair();
        let mut primary = Replicator::new(
            a,
            FP,
            ReplicationPolicy::new().with_retransmit_after(2),
            FaultPlan::chaos(21),
        );
        let mut map = spread_map(6);
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let follower_stop = std::sync::Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut follower = Follower::new(b, FP);
            while !follower_stop.load(std::sync::atomic::Ordering::Relaxed) {
                follower.pump().unwrap();
                std::thread::yield_now();
            }
            follower
        });
        for frame in 0..12u64 {
            map.gaussian_mut((frame % 6) as u32).position.y = frame as f32 * 0.05;
            primary
                .on_frame(frame, |log| log.capture(&map, &[], b""))
                .unwrap();
            primary.pump().unwrap();
        }
        primary.drain().unwrap();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let follower = handle.join().unwrap();
        assert_eq!(primary.outstanding(), 0);
        assert_eq!(primary.stats().frames_behind, 0);
        assert_eq!(primary.stats().frames_replicated, 12);
        assert_converged(&primary, &follower, &map);
    }

    #[test]
    fn drain_commits_the_journal_atomically() {
        let dir = std::env::temp_dir().join("rtgs-replicate-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.journal");
        let _ = std::fs::remove_file(&path);

        let (mut primary, mut follower) = pair(ReplicationPolicy::new(), FaultPlan::lossless(6));
        primary = primary.with_journal(&path);
        let map = spread_map(4);
        primary
            .on_frame(0, |log| log.capture(&map, &[], b"j"))
            .unwrap();
        settle(&mut primary, &mut follower);
        primary.drain().unwrap();

        let log = CheckpointLog::decode(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(log.restore().unwrap().0.export_state(), map.export_state());
        assert!(
            !rtgs_snapshot::tmp_path(&path).exists(),
            "staging file leaked"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
