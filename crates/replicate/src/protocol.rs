//! Protocol messages carried inside wire envelopes.
//!
//! One kind byte, then a kind-specific body (all integers little-endian):
//!
//! ```text
//! 0  Record         record header, then the base/delta snapshot container
//!                   verbatim to the end of the body:
//!                     0   record kind     u8   (0 base, 1 delta)
//!                     1   flags           u8   (bit 0: trace tag present)
//!                     2   epoch           u32
//!                     6   seq             u64
//!                     14  frame           u64
//!                     22  frames covered  u64
//!                     30  fingerprint     u64
//!                     38  trace id u64, hop u32   (only with flag bit 0)
//! 1  Ack            epoch u32, seq u64  (cumulative: highest
//!                   contiguously-applied sequence in that epoch)
//! 2  ResyncRequest  epoch u32 (the follower's current epoch),
//!                   reason u8 (diagnostic only)
//! ```
//!
//! Messages are not a persisted format: they exist between two live
//! processes and carry no version of their own. The flags byte is the
//! gate — a decoder rejects bits it does not know, so a newer primary
//! fails typed against an older standby instead of being misread.
//!
//! A record's payload is the [`CheckpointLog`](rtgs_snapshot::CheckpointLog)'s
//! own base or delta container, untouched. Nothing here checksums it: on the
//! link every byte is under the envelope CRC-32 ([`crate::wire`]), and the
//! container's per-section checksums are verified once, by the
//! [`ReplayState`](rtgs_snapshot::ReplayState) that applies it.
//!
//! Acks are cumulative so a lost ack costs nothing — the next one covers
//! it. A resync request tells the primary the delta chain is broken at the
//! follower; the primary compacts, bumps the epoch and ships a fresh base.

use rtgs_snapshot::{Cursor, SnapshotError};

const KIND_RECORD: u8 = 0;
const KIND_ACK: u8 = 1;
const KIND_RESYNC: u8 = 2;

/// Record flag: a [`TraceTag`] follows the fixed header. The only flag bit
/// this decoder knows.
const FLAG_TRACE: u8 = 1;

/// Most bytes a message puts ahead of a record's payload: the kind byte
/// and a traced header.
const MAX_RECORD_PREFIX: usize = 1 + 38 + 12;

/// Flight-recorder trace context riding a stream record: the frame's trace
/// id plus the hop number of the stage that captured the record. Present
/// only when the record's trace flag is set — records from primaries with
/// tracing off simply lack it and decode with `trace: None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceTag {
    /// Flow id of the frame this record was captured for (never 0 when
    /// the tag is present).
    pub trace_id: u64,
    /// Monotone hop sequence at capture time.
    pub hop: u32,
}

/// What a [`StreamRecord`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A full base snapshot: the stream's first record, or a resync point
    /// starting a new epoch.
    Base = 0,
    /// A dirty-shard delta on top of the follower's accumulated state.
    Delta = 1,
}

/// One replication stream record: the ordering and identity header a
/// follower validates before applying, plus the base or delta payload it
/// borrows — from the primary's log when sending, from the received
/// envelope when decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamRecord<'a> {
    /// Base (chain start / resync) or delta.
    pub kind: RecordKind,
    /// Resync epoch: bumped every time the primary re-bases the stream.
    /// Records of a stale epoch are discarded by the follower.
    pub epoch: u32,
    /// Stream-wide monotone sequence number (never reused across epochs).
    pub seq: u64,
    /// Latest session frame this record covers.
    pub frame: u64,
    /// Replicated-class frames this record *newly* covers: 1 for a normal
    /// per-frame delta, everything outstanding for a resync base. Summing
    /// acked records' `frames_covered` gives exact frames-replicated
    /// accounting.
    pub frames_covered: u64,
    /// Fingerprint of the session config the stream was captured under; a
    /// follower standing by with a different config rejects loudly.
    pub config_fingerprint: u64,
    /// Optional flight-recorder trace context (see [`TraceTag`]).
    pub trace: Option<TraceTag>,
    /// The encoded base or delta container.
    pub payload: &'a [u8],
}

/// Why the follower requested a resync (diagnostic; any request triggers
/// the same fresh-base response).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ResyncReason {
    /// A sequence number was skipped — a record was lost for good.
    SequenceGap,
    /// A record failed validation while being applied.
    ApplyFailed,
    /// A base record itself failed to decode.
    BadBase,
}

impl ResyncReason {
    fn code(self) -> u8 {
        match self {
            Self::SequenceGap => 0,
            Self::ApplyFailed => 1,
            Self::BadBase => 2,
        }
    }

    fn from_code(code: u8) -> Self {
        match code {
            1 => Self::ApplyFailed,
            2 => Self::BadBase,
            _ => Self::SequenceGap,
        }
    }
}

/// A protocol message (either direction).
#[derive(Debug)]
pub enum Message<'a> {
    /// Primary→follower: a base or delta stream record.
    Record(StreamRecord<'a>),
    /// Follower→primary: cumulative ack — every record of `epoch` up to
    /// and including `seq` is applied.
    Ack {
        /// Epoch the ack belongs to.
        epoch: u32,
        /// Highest contiguously-applied sequence number.
        seq: u64,
    },
    /// Follower→primary: the delta chain broke; send a fresh base.
    ResyncRequest {
        /// The follower's current epoch (stale requests are ignored once
        /// the primary has already re-based past it).
        epoch: u32,
        /// Diagnostic reason.
        reason: ResyncReason,
    },
}

impl<'a> Message<'a> {
    /// Appends the message (the body of one wire envelope) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Self::Record(record) => {
                out.push(KIND_RECORD);
                out.push(record.kind as u8);
                out.push(record.trace.map_or(0, |_| FLAG_TRACE));
                out.extend_from_slice(&record.epoch.to_le_bytes());
                out.extend_from_slice(&record.seq.to_le_bytes());
                out.extend_from_slice(&record.frame.to_le_bytes());
                out.extend_from_slice(&record.frames_covered.to_le_bytes());
                out.extend_from_slice(&record.config_fingerprint.to_le_bytes());
                if let Some(trace) = &record.trace {
                    out.extend_from_slice(&trace.trace_id.to_le_bytes());
                    out.extend_from_slice(&trace.hop.to_le_bytes());
                }
                out.extend_from_slice(record.payload);
            }
            Self::Ack { epoch, seq } => {
                out.push(KIND_ACK);
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
            }
            Self::ResyncRequest { epoch, reason } => {
                out.push(KIND_RESYNC);
                out.extend_from_slice(&epoch.to_le_bytes());
                out.push(reason.code());
            }
        }
    }

    /// The message sealed into a wire envelope, written and checksummed in
    /// one pass.
    #[must_use]
    pub fn seal(&self) -> Vec<u8> {
        let payload_len = match self {
            Self::Record(record) => record.payload.len(),
            _ => 0,
        };
        crate::wire::seal_with(MAX_RECORD_PREFIX + payload_len, |out| self.encode_into(out))
    }

    /// Parses an envelope body. A record borrows its payload from `bytes`
    /// and does **not** look inside it — the replay that applies it does.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] on a short header or body,
    /// [`SnapshotError::Corrupt`] on an unknown message kind, record kind
    /// or flag bit, or trailing bytes after an ack / resync request.
    pub fn decode(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        let (&kind, body) = bytes.split_first().ok_or(SnapshotError::Truncated {
            context: "protocol message",
        })?;
        match kind {
            KIND_RECORD => {
                let mut head = Cursor::new(body, "stream record header");
                let kind = match head.u8()? {
                    0 => RecordKind::Base,
                    1 => RecordKind::Delta,
                    other => {
                        return Err(SnapshotError::Corrupt {
                            context: format!("unknown stream record kind {other}"),
                        })
                    }
                };
                let flags = head.u8()?;
                if flags & !FLAG_TRACE != 0 {
                    return Err(SnapshotError::Corrupt {
                        context: format!("unknown stream record flags {flags:#04x}"),
                    });
                }
                let epoch = head.u32()?;
                let seq = head.u64()?;
                let frame = head.u64()?;
                let frames_covered = head.u64()?;
                let config_fingerprint = head.u64()?;
                let trace = if flags & FLAG_TRACE != 0 {
                    Some(TraceTag {
                        trace_id: head.u64()?,
                        hop: head.u32()?,
                    })
                } else {
                    None
                };
                Ok(Self::Record(StreamRecord {
                    kind,
                    epoch,
                    seq,
                    frame,
                    frames_covered,
                    config_fingerprint,
                    trace,
                    payload: &body[body.len() - head.remaining()..],
                }))
            }
            KIND_ACK => {
                let mut cur = Cursor::new(body, "ack message");
                let (epoch, seq) = (cur.u32()?, cur.u64()?);
                cur.expect_end()?;
                Ok(Self::Ack { epoch, seq })
            }
            KIND_RESYNC => {
                let mut cur = Cursor::new(body, "resync request");
                let (epoch, reason) = (cur.u32()?, ResyncReason::from_code(cur.u8()?));
                cur.expect_end()?;
                Ok(Self::ResyncRequest { epoch, reason })
            }
            other => Err(SnapshotError::Corrupt {
                context: format!("unknown protocol message kind {other}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(message: &Message<'_>) -> Vec<u8> {
        let mut out = Vec::new();
        message.encode_into(&mut out);
        out
    }

    fn record(kind: RecordKind, trace: Option<TraceTag>, payload: &[u8]) -> StreamRecord<'_> {
        StreamRecord {
            kind,
            epoch: 0x0403_0201,
            seq: 0x1817_1615_1413_1211,
            frame: 0x2827_2625_2423_2221,
            frames_covered: 0x3837_3635_3433_3231,
            config_fingerprint: 0x4847_4645_4443_4241,
            trace,
            payload,
        }
    }

    #[test]
    fn ack_and_resync_roundtrip() {
        match Message::decode(&encode(&Message::Ack { epoch: 2, seq: 99 })).unwrap() {
            Message::Ack { epoch, seq } => {
                assert_eq!((epoch, seq), (2, 99));
            }
            other => panic!("wrong kind: {other:?}"),
        }
        match Message::decode(&encode(&Message::ResyncRequest {
            epoch: 7,
            reason: ResyncReason::ApplyFailed,
        }))
        .unwrap()
        {
            Message::ResyncRequest { epoch, reason } => {
                assert_eq!(epoch, 7);
                assert_eq!(reason, ResyncReason::ApplyFailed);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    /// The record body layout, byte for byte: message kind, record kind,
    /// flags, the five little-endian header fields, the trace tag only
    /// under its flag, then the payload verbatim to the end.
    #[test]
    fn record_body_layout_is_pinned() {
        let header: [u8; 36] = [
            0x01, 0x02, 0x03, 0x04, // epoch
            0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18, // seq
            0x21, 0x22, 0x23, 0x24, 0x25, 0x26, 0x27, 0x28, // frame
            0x31, 0x32, 0x33, 0x34, 0x35, 0x36, 0x37, 0x38, // frames covered
            0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, // fingerprint
        ];
        let trace = TraceTag {
            trace_id: 0x5857_5655_5453_5251,
            hop: 0x6463_6261,
        };
        let trace_bytes: [u8; 12] = [
            0x51, 0x52, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, // trace id
            0x61, 0x62, 0x63, 0x64, // hop
        ];
        let payload = b"RTGSSNAP-stands-in-for-a-container";
        for (kind, kind_byte) in [(RecordKind::Base, 0u8), (RecordKind::Delta, 1u8)] {
            let untraced = encode(&Message::Record(record(kind, None, payload)));
            let expected = [&[0, kind_byte, 0][..], &header, payload].concat();
            assert_eq!(untraced, expected, "{kind:?} untraced");

            let traced = encode(&Message::Record(record(kind, Some(trace), payload)));
            let expected = [&[0, kind_byte, 1][..], &header, &trace_bytes, payload].concat();
            assert_eq!(traced, expected, "{kind:?} traced");
            assert_eq!(traced.len() - payload.len(), MAX_RECORD_PREFIX);

            for (bytes, trace) in [(untraced, None), (traced, Some(trace))] {
                match Message::decode(&bytes).unwrap() {
                    Message::Record(decoded) => {
                        assert_eq!(decoded, record(kind, trace, payload));
                    }
                    other => panic!("wrong kind: {other:?}"),
                }
            }
        }
    }

    /// The flags byte is the version gate: a bit this decoder does not
    /// know is `Corrupt`, never silently skipped.
    #[test]
    fn unknown_flag_bit_is_corrupt() {
        let mut bytes = encode(&Message::Record(record(RecordKind::Delta, None, b"p")));
        for bit in 1..8 {
            bytes[2] = 1 << bit;
            assert!(
                matches!(Message::decode(&bytes), Err(SnapshotError::Corrupt { .. })),
                "flag bit {bit}"
            );
        }
        bytes[1] = 2; // and so is a record kind beyond base/delta
        bytes[2] = 0;
        assert!(matches!(
            Message::decode(&bytes),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    /// A header cut anywhere — even one byte short, with or without the
    /// trace tag — is `Truncated`; an empty payload after a whole header
    /// still decodes (the replay rejects it, not the protocol layer).
    #[test]
    fn short_header_is_truncated() {
        let trace = TraceTag {
            trace_id: 9,
            hop: 3,
        };
        for trace in [None, Some(trace)] {
            let bytes = encode(&Message::Record(record(RecordKind::Base, trace, b"")));
            for cut in 1..bytes.len() {
                assert!(
                    matches!(
                        Message::decode(&bytes[..cut]),
                        Err(SnapshotError::Truncated { .. })
                    ),
                    "cut at {cut} of {}",
                    bytes.len()
                );
            }
            assert!(matches!(
                Message::decode(&bytes),
                Ok(Message::Record(StreamRecord { payload: [], .. }))
            ));
        }
    }

    #[test]
    fn garbage_is_typed() {
        assert!(Message::decode(&[]).is_err());
        assert!(Message::decode(&[9, 1, 2]).is_err());
        assert!(Message::decode(&[1, 0, 0]).is_err()); // short ack
        let mut long_ack = encode(&Message::Ack { epoch: 1, seq: 2 });
        long_ack.push(0);
        assert!(Message::decode(&long_ack).is_err());
    }
}
