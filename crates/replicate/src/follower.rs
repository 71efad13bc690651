//! The follower side: validate, replay, ack — and promote on failover.
//!
//! A [`Follower`] consumes the replication stream, validates every record
//! (wire CRC via the scanner, config fingerprint, epoch, contiguous
//! sequence numbers), replays it into a [`ReplayState`] warm standby, and
//! acks cumulatively. Any break in the delta chain — a lost record, a
//! record that fails to apply, a base that fails to decode — discards the
//! standby and requests a resync; the primary answers with a fresh base
//! under a bumped epoch. The follower therefore converges from *any*
//! fault pattern the transport can produce, or surfaces a typed error —
//! it never panics and never silently diverges.
//!
//! [`Follower::promote`] is the failover path: it consumes the follower
//! and rebuilds a live [`SlamPipeline`] from the standby state, bitwise-
//! identical to the primary at the last applied record (proven by the
//! tests in `rtgs-slam::snapshot` and the `failover` experiment).

use crate::protocol::{Message, RecordKind, ResyncReason, StreamRecord};
use crate::transport::ByteLink;
use crate::wire::FrameScanner;
use crate::ReplicationError;
use rtgs_scene::SyntheticDataset;
use rtgs_slam::{SlamConfig, SlamPipeline};
use rtgs_snapshot::ReplayState;
use rtgs_telemetry::flight::hops;
use rtgs_telemetry::{emit_flow_span, journal_record, ns_since_epoch, EventKind};
use std::time::{Duration, Instant};

/// Follower-side metric handles (resolved once from the global registry).
struct FollowerMetrics {
    records_applied: std::sync::Arc<rtgs_telemetry::Counter>,
    records_ignored: std::sync::Arc<rtgs_telemetry::Counter>,
    resync_requests: std::sync::Arc<rtgs_telemetry::Counter>,
    replay_ns: std::sync::Arc<rtgs_telemetry::Histogram>,
    failover_ns: std::sync::Arc<rtgs_telemetry::Histogram>,
    standby_bytes: std::sync::Arc<rtgs_telemetry::Gauge>,
}

impl FollowerMetrics {
    fn from_global() -> Self {
        let registry = rtgs_telemetry::global();
        Self {
            records_applied: registry.counter("replicate.follower.records_applied"),
            records_ignored: registry.counter("replicate.follower.records_ignored"),
            resync_requests: registry.counter("replicate.follower.resync_requests"),
            replay_ns: registry.histogram("replicate.follower.replay_ns"),
            failover_ns: registry.histogram("replicate.failover_ns"),
            standby_bytes: registry.gauge("replicate.follower.standby_bytes"),
        }
    }
}

/// The warm-standby end of one session's replication stream.
pub struct Follower<L: ByteLink> {
    link: L,
    scanner: FrameScanner,
    expected_fingerprint: u64,
    epoch: u32,
    last_seq: u64,
    /// The standby state; `None` until the first base lands (or after a
    /// chain break, until the resync base lands).
    replay: Option<ReplayState>,
    /// Epoch we already requested a resync for — one request per break,
    /// not one per out-of-order record.
    requested_resync_for: Option<u32>,
    /// Session id stamped on black-box journal events (0 unless set via
    /// [`with_session_index`](Self::with_session_index)).
    session_index: u32,
    metrics: FollowerMetrics,
    records_applied: u64,
    records_ignored: u64,
    resync_requests: u64,
}

impl<L: ByteLink> Follower<L> {
    /// A follower for a stream whose records must carry
    /// `expected_fingerprint` (from [`rtgs_slam::config_fingerprint`] on
    /// the standby's own config — a mismatch means the standby would
    /// diverge, so it is fatal, not resync-able).
    pub fn new(link: L, expected_fingerprint: u64) -> Self {
        Self {
            link,
            scanner: FrameScanner::new(),
            expected_fingerprint,
            epoch: 0,
            last_seq: 0,
            replay: None,
            requested_resync_for: None,
            session_index: 0,
            metrics: FollowerMetrics::from_global(),
            records_applied: 0,
            records_ignored: 0,
            resync_requests: 0,
        }
    }

    /// Sets the session id stamped on this follower's black-box journal
    /// events (resync requests, promotion).
    #[must_use]
    pub fn with_session_index(mut self, session: u32) -> Self {
        self.session_index = session;
        self
    }

    /// Whether a base has been applied — i.e. promotion is possible.
    pub fn is_warm(&self) -> bool {
        self.replay.is_some()
    }

    /// Sequence number of the last applied record in the current epoch.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Current stream epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Records applied into the standby so far (bases + deltas).
    pub fn records_applied(&self) -> u64 {
        self.records_applied
    }

    /// Records ignored (stale epoch, duplicates, undecodable payloads).
    pub fn records_ignored(&self) -> u64 {
        self.records_ignored
    }

    /// Resync requests sent.
    pub fn resync_requests(&self) -> u64 {
        self.resync_requests
    }

    /// The standby replay state, when warm (read-only inspection; tests
    /// and the failover experiment compare it bitwise against the
    /// primary).
    pub fn standby(&self) -> Option<&ReplayState> {
        self.replay.as_ref()
    }

    /// Approximate bytes held by the standby state.
    pub fn standby_bytes(&self) -> usize {
        self.replay.as_ref().map_or(0, ReplayState::resident_bytes)
    }

    fn send(&mut self, message: &Message<'_>) -> Result<(), ReplicationError> {
        self.link.write(&message.seal())?;
        Ok(())
    }

    fn ack_current(&mut self) -> Result<(), ReplicationError> {
        let (epoch, seq) = (self.epoch, self.last_seq);
        self.send(&Message::Ack { epoch, seq })
    }

    /// Asks the primary for a fresh base. At most one request goes out per
    /// epoch — repeats of the same break (every delta after a lost one
    /// looks like a gap) are collapsed.
    ///
    /// A sequence gap keeps the standby: the applied prefix is still a
    /// consistent state (and stays promotable if the primary dies before
    /// answering); the sequence guard already refuses out-of-order deltas,
    /// and a late retransmission of the missing record heals the chain
    /// in place. Apply and decode failures *do* discard it — that state
    /// is untrusted.
    fn request_resync(&mut self, reason: ResyncReason) -> Result<(), ReplicationError> {
        if matches!(reason, ResyncReason::ApplyFailed | ResyncReason::BadBase) {
            self.replay = None;
        }
        if self.requested_resync_for == Some(self.epoch) {
            return Ok(());
        }
        self.requested_resync_for = Some(self.epoch);
        self.resync_requests += 1;
        self.metrics.resync_requests.incr();
        journal_record(
            EventKind::Resync,
            self.session_index,
            0,
            self.last_seq,
            u64::from(self.epoch),
        );
        let epoch = self.epoch;
        self.send(&Message::ResyncRequest { epoch, reason })
    }

    fn ignore(&mut self) {
        self.records_ignored += 1;
        self.metrics.records_ignored.incr();
    }

    /// Applies an in-order record to the standby and acks it. This is the
    /// one place a payload's section checksums and structure are checked:
    /// a failure here passed the wire CRC and is still bad, so the standby
    /// is untrusted and gets rebuilt from a fresh base.
    fn apply(&mut self, record: &StreamRecord<'_>) -> Result<(), ReplicationError> {
        let started = Instant::now();
        let (applied, on_failure) = match (record.kind, self.replay.as_mut()) {
            (RecordKind::Base, _) => (
                ReplayState::from_base(record.payload).map(|state| self.replay = Some(state)),
                ResyncReason::BadBase,
            ),
            (RecordKind::Delta, Some(replay)) => (
                replay.apply_delta(record.payload),
                ResyncReason::ApplyFailed,
            ),
            // Deltas before any base: the chain start is missing.
            (RecordKind::Delta, None) => return self.request_resync(ResyncReason::SequenceGap),
        };
        if applied.is_err() {
            return self.request_resync(on_failure);
        }
        if record.kind == RecordKind::Base {
            self.epoch = record.epoch;
            self.requested_resync_for = None;
        } else {
            self.metrics
                .replay_ns
                .record(started.elapsed().as_nanos() as u64);
        }
        self.last_seq = record.seq;
        self.records_applied += 1;
        self.metrics.records_applied.incr();
        self.metrics.standby_bytes.set(self.standby_bytes() as i64);
        // The cross-process end of the frame's flight trace.
        if let Some(tag) = &record.trace {
            emit_flow_span(
                "replicate.replay",
                "replicate",
                ns_since_epoch(started),
                started.elapsed().as_nanos() as u64,
                record.seq,
                tag.trace_id,
                hops::REPLAY,
            );
        }
        self.ack_current()
    }

    fn handle_record(&mut self, record: &StreamRecord<'_>) -> Result<(), ReplicationError> {
        if record.config_fingerprint != self.expected_fingerprint {
            // Replaying a stream from a differently-configured primary
            // would diverge silently — refuse loudly instead.
            return Err(ReplicationError::FingerprintMismatch {
                expected: self.expected_fingerprint,
                found: record.config_fingerprint,
            });
        }
        if record.epoch < self.epoch {
            self.ignore();
            return Ok(()); // stale epoch: superseded by a resync base
        }
        match record.kind {
            RecordKind::Base => self.apply(record),
            RecordKind::Delta if record.epoch > self.epoch => {
                // Deltas of an epoch whose base we never saw.
                self.epoch = record.epoch;
                self.requested_resync_for = None;
                self.request_resync(ResyncReason::SequenceGap)
            }
            RecordKind::Delta => {
                if record.seq == self.last_seq + 1 {
                    self.apply(record)
                } else if record.seq <= self.last_seq {
                    // Duplicate (or retransmission of something applied):
                    // re-ack so the primary stops retransmitting.
                    self.ignore();
                    self.ack_current()
                } else {
                    self.request_resync(ResyncReason::SequenceGap)
                }
            }
        }
    }

    /// Consumes everything that has arrived on the link: validates,
    /// replays, acks, requests resyncs. Call repeatedly (each primary pump
    /// tick, or from a standby thread).
    ///
    /// # Errors
    ///
    /// [`ReplicationError::FingerprintMismatch`] (fatal — the standby
    /// cannot replay this stream) and transport I/O failures. Damaged or
    /// out-of-order records are *not* errors; they are handled by the
    /// ack/resync machinery.
    pub fn pump(&mut self) -> Result<(), ReplicationError> {
        self.scanner.fill_from(&mut self.link)?;
        while let Some(payload) = self.scanner.next_payload() {
            match Message::decode(&payload) {
                Ok(Message::Record(record)) => self.handle_record(&record)?,
                // Peer-direction traffic on our inbound path, or bytes that
                // passed the CRC but not the protocol layer: count and move
                // on — sequence tracking forces a resync if a real record
                // was lost inside it.
                _ => self.ignore(),
            }
        }
        Ok(())
    }

    /// Failover: consumes the follower and rebuilds a live pipeline from
    /// the standby state, positioned exactly at the last applied record.
    /// Returns the promoted pipeline and the promotion wall-clock (also
    /// recorded in the `replicate.failover_ns` histogram).
    ///
    /// `config` must be the config the primary ran (its fingerprint was
    /// validated on every record); `dataset` is the frame source the
    /// promoted pipeline continues consuming.
    ///
    /// # Errors
    ///
    /// [`ReplicationError::NotPromotable`] when no base has been applied
    /// yet, [`ReplicationError::Snapshot`] when the standby state fails
    /// pipeline restore.
    pub fn promote<'d>(
        self,
        config: SlamConfig,
        dataset: &'d SyntheticDataset,
    ) -> Result<(SlamPipeline<'d>, Duration), ReplicationError> {
        let replay = self.replay.ok_or(ReplicationError::NotPromotable {
            reason: "no base record applied yet",
        })?;
        let started = Instant::now();
        let pipeline = SlamPipeline::restore_from_replay(config, dataset, &replay)?;
        let took = started.elapsed();
        self.metrics.failover_ns.record(took.as_nanos() as u64);
        journal_record(
            EventKind::Promote,
            self.session_index,
            0,
            self.last_seq,
            took.as_nanos() as u64,
        );
        Ok((pipeline, took))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{duplex_pair, DuplexLink};
    use crate::wire::tests::seal;
    use rtgs_math::{Quat, Vec3};
    use rtgs_render::{Gaussian3d, ShardedScene};
    use rtgs_snapshot::CheckpointLog;

    const FP: u64 = 0xFEED;

    fn seeded_log(frames: usize) -> CheckpointLog {
        let mut map = ShardedScene::new(1.0);
        for i in 0..4 {
            map.insert(Gaussian3d::from_activated(
                Vec3::new(i as f32 * 1.5, 0.0, 2.0),
                Vec3::splat(0.05),
                Quat::IDENTITY,
                0.8,
                Vec3::X,
            ));
        }
        let mut log = CheckpointLog::new();
        for f in 0..frames {
            if f > 0 {
                map.gaussian_mut((f % 4) as u32).position.y = f as f32 * 0.1;
            }
            let _ = log.capture(&map, &[], b"m").unwrap();
        }
        log
    }

    fn record(kind: RecordKind, epoch: u32, seq: u64, fp: u64, payload: &[u8]) -> Vec<u8> {
        Message::Record(StreamRecord {
            kind,
            epoch,
            seq,
            frame: seq,
            frames_covered: 1,
            config_fingerprint: fp,
            payload,
            trace: None,
        })
        .seal()
    }

    /// Feeds `bytes` into the follower's inbound direction.
    fn feed(peer: &mut DuplexLink, follower: &mut Follower<DuplexLink>, bytes: &[u8]) {
        use crate::transport::ByteLink;
        peer.write(bytes).unwrap();
        follower.pump().unwrap();
    }

    /// Drains the follower's outbound messages.
    fn outbound(peer: &mut DuplexLink) -> Vec<Message<'static>> {
        use crate::transport::ByteLink;
        let mut bytes = Vec::new();
        peer.read_available(&mut bytes).unwrap();
        let mut scanner = FrameScanner::new();
        scanner.extend(&bytes);
        let mut out = Vec::new();
        while let Some(payload) = scanner.next_payload() {
            out.push(match Message::decode(&payload).unwrap() {
                Message::Ack { epoch, seq } => Message::Ack { epoch, seq },
                Message::ResyncRequest { epoch, reason } => {
                    Message::ResyncRequest { epoch, reason }
                }
                Message::Record(_) => panic!("a follower never sends records"),
            });
        }
        out
    }

    #[test]
    fn sequence_gap_requests_one_resync_not_many() {
        let (mut peer, link) = duplex_pair();
        let mut follower = Follower::new(link, FP);
        let log = seeded_log(4);
        feed(
            &mut peer,
            &mut follower,
            &record(RecordKind::Base, 0, 0, FP, log.base_bytes()),
        );
        assert!(follower.is_warm());
        assert!(matches!(
            outbound(&mut peer).as_slice(),
            [Message::Ack { epoch: 0, seq: 0 }]
        ));

        // seq 1 is lost; seqs 2 and 3 arrive. One resync request total.
        feed(
            &mut peer,
            &mut follower,
            &record(RecordKind::Delta, 0, 2, FP, log.delta_bytes(1).unwrap()),
        );
        feed(
            &mut peer,
            &mut follower,
            &record(RecordKind::Delta, 0, 3, FP, log.delta_bytes(2).unwrap()),
        );
        assert!(
            follower.is_warm(),
            "a gap must keep the consistent prefix promotable"
        );
        assert_eq!(follower.last_seq(), 0, "out-of-order deltas must not apply");
        let msgs = outbound(&mut peer);
        assert!(
            matches!(
                msgs.as_slice(),
                [Message::ResyncRequest {
                    epoch: 0,
                    reason: ResyncReason::SequenceGap
                }]
            ),
            "expected exactly one resync request, got {msgs:?}"
        );
        assert_eq!(follower.resync_requests(), 1);
    }

    #[test]
    fn duplicates_are_reacked_not_reapplied() {
        let (mut peer, link) = duplex_pair();
        let mut follower = Follower::new(link, FP);
        let log = seeded_log(2);
        feed(
            &mut peer,
            &mut follower,
            &record(RecordKind::Base, 0, 0, FP, log.base_bytes()),
        );
        let delta = record(RecordKind::Delta, 0, 1, FP, log.delta_bytes(0).unwrap());
        feed(&mut peer, &mut follower, &delta);
        feed(&mut peer, &mut follower, &delta); // retransmission of an applied record
        let msgs = outbound(&mut peer);
        assert_eq!(msgs.len(), 3, "base ack, delta ack, duplicate re-ack");
        assert!(matches!(msgs[2], Message::Ack { epoch: 0, seq: 1 }));
        assert_eq!(follower.records_applied(), 2);
        assert_eq!(follower.records_ignored(), 1);
    }

    #[test]
    fn fingerprint_mismatch_is_fatal_and_typed() {
        let (mut peer, link) = duplex_pair();
        let mut follower = Follower::new(link, FP);
        let log = seeded_log(1);
        use crate::transport::ByteLink;
        peer.write(&record(RecordKind::Base, 0, 0, FP ^ 1, log.base_bytes()))
            .unwrap();
        match follower.pump() {
            Err(ReplicationError::FingerprintMismatch { expected, found }) => {
                assert_eq!(expected, FP);
                assert_eq!(found, FP ^ 1);
            }
            other => panic!("expected a fingerprint mismatch, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_base_payload_requests_resync() {
        let (mut peer, link) = duplex_pair();
        let mut follower = Follower::new(link, FP);
        // An empty-but-well-formed container: fails base replay (no scene
        // state inside).
        let hollow = rtgs_snapshot::SectionBuilder::new().finish();
        feed(
            &mut peer,
            &mut follower,
            &record(RecordKind::Base, 0, 0, FP, &hollow),
        );
        assert!(!follower.is_warm());
        assert!(matches!(
            outbound(&mut peer).as_slice(),
            [Message::ResyncRequest {
                reason: ResyncReason::BadBase,
                ..
            }]
        ));
    }

    /// A follower that has applied `log`'s base as (epoch 0, seq 0), with
    /// the base's ack already drained from the return path.
    fn warm(log: &CheckpointLog) -> (DuplexLink, Follower<DuplexLink>) {
        let (mut peer, link) = duplex_pair();
        let mut follower = Follower::new(link, FP);
        feed(
            &mut peer,
            &mut follower,
            &record(RecordKind::Base, 0, 0, FP, log.base_bytes()),
        );
        assert_eq!(follower.records_applied(), 1);
        outbound(&mut peer);
        (peer, follower)
    }

    /// The next in-order delta of `log`, traced so the optional header
    /// tail is on the wire too.
    fn traced_delta(log: &CheckpointLog) -> Message<'_> {
        Message::Record(StreamRecord {
            kind: RecordKind::Delta,
            epoch: 0,
            seq: 1,
            frame: 1,
            frames_covered: 1,
            config_fingerprint: FP,
            payload: log.delta_bytes(0).unwrap(),
            trace: Some(crate::protocol::TraceTag {
                trace_id: 0xABCD,
                hop: hops::WIRE,
            }),
        })
    }

    /// Link damage: every single-bit flip and every truncation point of a
    /// sealed delta record is stopped by the envelope layer — nothing is
    /// applied, nothing panics, the standby stays promotable.
    #[test]
    fn every_flip_and_truncation_of_a_sealed_delta_applies_nothing() {
        let log = seeded_log(2);
        let sealed = traced_delta(&log).seal();
        {
            let (mut peer, mut follower) = warm(&log);
            feed(&mut peer, &mut follower, &sealed);
            assert_eq!(follower.records_applied(), 2, "the intact record applies");
        }
        for bit in 0..sealed.len() * 8 {
            let mut damaged = sealed.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            let (mut peer, mut follower) = warm(&log);
            feed(&mut peer, &mut follower, &damaged);
            assert_eq!(follower.records_applied(), 1, "bit {bit} applied a record");
            assert_eq!(follower.last_seq(), 0, "bit {bit}");
            assert!(follower.is_warm(), "bit {bit} cost the standby");
            assert!(outbound(&mut peer).is_empty(), "bit {bit} was answered");
        }
        for cut in 0..sealed.len() {
            let (mut peer, mut follower) = warm(&log);
            feed(&mut peer, &mut follower, &sealed[..cut]);
            assert_eq!(follower.records_applied(), 1, "cut {cut} applied a record");
            assert!(follower.is_warm(), "cut {cut} cost the standby");
            assert!(outbound(&mut peer).is_empty(), "cut {cut} was answered");
        }
    }

    /// Damage *behind* the envelope CRC (a peer that seals bad bytes): every
    /// single-bit flip of the message body, re-sealed. The follower answers
    /// each with a typed outcome and never panics. Header flips apply only
    /// in fields that carry no validity (`frame`, `frames_covered`, the
    /// trace tag); payload flips are caught by the container's own section
    /// checksums in the replay, which discards the standby and asks for a
    /// resync — and whatever does apply leaves exactly the intact record's
    /// standby (a section-table offset can land on identical bytes), never a
    /// different one.
    #[test]
    fn every_flip_behind_the_envelope_crc_is_typed() {
        let log = seeded_log(2);
        let message = traced_delta(&log);
        let mut body = Vec::new();
        message.encode_into(&mut body);
        let intact = {
            let (mut peer, mut follower) = warm(&log);
            feed(&mut peer, &mut follower, &seal(&body));
            follower.standby().unwrap().to_log().base_bytes().to_vec()
        };
        let payload_at = body.len() - log.delta_bytes(0).unwrap().len();
        // Offsets in the body (kind byte first) of the unvalidated fields.
        let unvalidated = |at: usize| (15..31).contains(&at) || (39..payload_at).contains(&at);
        let mut payload_flips_caught = 0;
        for bit in 0..body.len() * 8 {
            let at = bit / 8;
            let mut damaged = body.clone();
            damaged[at] ^= 1 << (bit % 8);
            let (mut peer, mut follower) = warm(&log);
            {
                use crate::transport::ByteLink;
                peer.write(&seal(&damaged)).unwrap();
            }
            match follower.pump() {
                Ok(()) => {}
                Err(ReplicationError::FingerprintMismatch { .. }) => {
                    assert!(
                        (31..39).contains(&at),
                        "bit {bit}: mismatch outside the field"
                    );
                }
                Err(other) => panic!("bit {bit}: untyped failure {other}"),
            }
            if follower.records_applied() == 2 {
                assert!(unvalidated(at) || at >= payload_at, "bit {bit} applied");
                assert_eq!(
                    follower.standby().unwrap().to_log().base_bytes(),
                    intact,
                    "bit {bit}: silent divergence"
                );
            } else {
                assert!(!unvalidated(at), "bit {bit} should not matter");
                if at >= payload_at {
                    payload_flips_caught += 1;
                    assert!(!follower.is_warm(), "bit {bit}: damaged payload kept");
                    assert!(
                        matches!(
                            outbound(&mut peer).as_slice(),
                            [Message::ResyncRequest {
                                reason: ResyncReason::ApplyFailed,
                                ..
                            }]
                        ),
                        "bit {bit}: payload damage must request a resync"
                    );
                }
            }
        }
        let payload_bits = (body.len() - payload_at) * 8;
        assert!(
            payload_flips_caught * 100 >= payload_bits * 99,
            "{payload_flips_caught} of {payload_bits} payload flips caught"
        );
    }

    #[test]
    fn stale_epoch_records_are_ignored() {
        let (mut peer, link) = duplex_pair();
        let mut follower = Follower::new(link, FP);
        let log = seeded_log(2);
        feed(
            &mut peer,
            &mut follower,
            &record(RecordKind::Base, 1, 5, FP, log.base_bytes()),
        );
        assert_eq!(follower.epoch(), 1);
        // A straggler from epoch 0 arrives late: ignored, no state change.
        feed(
            &mut peer,
            &mut follower,
            &record(RecordKind::Delta, 0, 1, FP, log.delta_bytes(0).unwrap()),
        );
        assert_eq!(follower.records_ignored(), 1);
        assert_eq!(follower.last_seq(), 5);
    }

    #[test]
    fn promote_without_a_base_is_not_promotable() {
        let (_peer, link) = duplex_pair();
        let follower = Follower::new(link, FP);
        let dataset = rtgs_scene::SyntheticDataset::generate(
            rtgs_scene::DatasetProfile::tum_analog().tiny(),
            2,
        );
        let config = rtgs_slam::SlamConfig::for_algorithm(rtgs_slam::BaseAlgorithm::GsSlam);
        match follower.promote(config, &dataset) {
            Err(ReplicationError::NotPromotable { .. }) => {}
            other => panic!("expected NotPromotable, got {:?}", other.map(|(_, d)| d)),
        }
    }
}
