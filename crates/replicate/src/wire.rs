//! Self-synchronizing wire envelopes.
//!
//! Every protocol message travels as one envelope:
//!
//! ```text
//! offset 0   magic        4 bytes  "RPLW"
//!        4   payload len  u32 LE
//!        8   payload crc  u32 LE   (CRC-32 over the payload bytes)
//!       12   payload      len bytes  (one [`crate::protocol::Message`])
//! ```
//!
//! The envelope CRC is the link's trust boundary: the sender computes it
//! once over the whole message, the [`FrameScanner`] verifies it before a
//! byte of the message is looked at, and nothing between the two checksums
//! those bytes again.
//!
//! The [`FrameScanner`] re-frames a damaged stream: it hunts for the magic
//! (discarding leading junk), waits for incomplete envelopes, and on a CRC
//! mismatch or an absurd length drains past the bad magic and rescans.
//! Truncated envelopes self-heal — retransmissions keep appending bytes,
//! so a declared length eventually becomes reachable, fails its CRC, and
//! the scanner resynchronizes on the next genuine magic.
//!
//! Cost per ≈ 215 KB record: one CRC pass at each end (the slicing-by-16
//! [`crc32`], ≈ 0.5 ns/B) and, on the receiving side, one copy from the
//! link into the scanner's buffer (`fill_from` reads straight into it) and
//! one out of it into the payload handed to the protocol layer.

use crate::transport::ByteLink;
use rtgs_snapshot::crc32;

/// Envelope magic.
pub const WIRE_MAGIC: [u8; 4] = *b"RPLW";
/// Bytes before the payload: magic + length + CRC.
pub const HEADER_LEN: usize = 12;
/// Upper bound on a single payload — far above any real record, so a
/// corrupt length field cannot stall the scanner waiting forever.
pub const MAX_FRAME_LEN: usize = 1 << 26;

/// Builds an envelope around a payload written in place: `write_payload`
/// appends the payload (about `payload_len` bytes — a sizing hint) straight
/// behind the header, and the length and CRC are filled in afterwards, so a
/// large record is copied into its envelope once and checksummed once.
#[must_use]
pub fn seal_with(payload_len: usize, write_payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload_len);
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&[0; HEADER_LEN - WIRE_MAGIC.len()]);
    write_payload(&mut out);
    let len = (out.len() - HEADER_LEN) as u32;
    let crc = crc32(&out[HEADER_LEN..]);
    out[4..8].copy_from_slice(&len.to_le_bytes());
    out[8..12].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Incremental envelope scanner over an append-only receive buffer.
///
/// Feed bytes with [`FrameScanner::extend`]; pull complete, CRC-verified
/// payloads with [`FrameScanner::next_payload`]. Damage never panics and
/// never yields a corrupt payload — it costs at most the bytes up to the
/// next genuine magic.
#[derive(Debug, Default)]
pub struct FrameScanner {
    buf: Vec<u8>,
    /// Envelopes that failed CRC or carried an oversize length (for fault
    /// accounting; the scanner already skipped them).
    rejected: u64,
}

impl FrameScanner {
    /// An empty scanner.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends everything that has arrived on `link`, read straight into
    /// the receive buffer. Returns the bytes read.
    pub(crate) fn fill_from(&mut self, link: &mut impl ByteLink) -> std::io::Result<usize> {
        link.read_available(&mut self.buf)
    }

    /// Damaged envelopes skipped so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Bytes currently buffered (incomplete envelope tail).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Position of the next magic in the buffer, discarding everything
    /// before it (keeping the last 3 bytes when no magic is found — they
    /// may be a partial magic continued by the next read).
    fn sync_to_magic(&mut self) -> bool {
        if let Some(pos) = self
            .buf
            .windows(WIRE_MAGIC.len())
            .position(|w| w == WIRE_MAGIC)
        {
            self.buf.drain(..pos);
            true
        } else {
            let keep = self.buf.len().min(WIRE_MAGIC.len() - 1);
            self.buf.drain(..self.buf.len() - keep);
            false
        }
    }

    /// Extracts the next complete valid payload, or `None` when the buffer
    /// holds no complete envelope yet.
    pub fn next_payload(&mut self) -> Option<Vec<u8>> {
        loop {
            if !self.sync_to_magic() {
                return None;
            }
            if self.buf.len() < HEADER_LEN {
                return None; // header still arriving
            }
            let len =
                u32::from_le_bytes([self.buf[4], self.buf[5], self.buf[6], self.buf[7]]) as usize;
            if len > MAX_FRAME_LEN {
                // Corrupt length: skip this magic and resynchronize.
                self.buf.drain(..WIRE_MAGIC.len());
                self.rejected += 1;
                continue;
            }
            if self.buf.len() < HEADER_LEN + len {
                return None; // payload still arriving (or truncated — more
                             // bytes from retransmissions will resolve it)
            }
            let crc = u32::from_le_bytes([self.buf[8], self.buf[9], self.buf[10], self.buf[11]]);
            let payload = &self.buf[HEADER_LEN..HEADER_LEN + len];
            if crc32(payload) == crc {
                let payload = payload.to_vec();
                self.buf.drain(..HEADER_LEN + len);
                return Some(payload);
            }
            // Corrupt payload (or a truncation that swallowed the real
            // boundary): skip this magic, rescan from the next one.
            self.buf.drain(..WIRE_MAGIC.len());
            self.rejected += 1;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::transport::{duplex_pair, DuplexLink};

    /// An envelope around raw bytes (production envelopes hold a
    /// [`crate::protocol::Message`]).
    pub(crate) fn seal(payload: &[u8]) -> Vec<u8> {
        seal_with(payload.len(), |out| out.extend_from_slice(payload))
    }

    #[test]
    fn seal_and_scan_roundtrip() {
        let mut scanner = FrameScanner::new();
        scanner.extend(&seal(b"alpha"));
        scanner.extend(&seal(b""));
        scanner.extend(&seal(b"gamma"));
        assert_eq!(scanner.next_payload().unwrap(), b"alpha");
        assert_eq!(scanner.next_payload().unwrap(), b"");
        assert_eq!(scanner.next_payload().unwrap(), b"gamma");
        assert!(scanner.next_payload().is_none());
        assert_eq!(scanner.rejected(), 0);
    }

    #[test]
    fn partial_envelope_waits_for_more_bytes() {
        let sealed = seal(b"split across reads");
        let mut scanner = FrameScanner::new();
        for chunk in sealed.chunks(3) {
            assert!(scanner.next_payload().is_none());
            scanner.extend(chunk);
        }
        assert_eq!(scanner.next_payload().unwrap(), b"split across reads");
    }

    #[test]
    fn leading_junk_is_skipped() {
        let mut scanner = FrameScanner::new();
        scanner.extend(b"noise noise RPL");
        scanner.extend(&seal(b"payload"));
        assert_eq!(scanner.next_payload().unwrap(), b"payload");
    }

    #[test]
    fn corrupt_payload_is_rejected_and_scan_recovers() {
        let mut bad = seal(b"will be damaged");
        let n = bad.len();
        bad[n - 2] ^= 0x10;
        let mut scanner = FrameScanner::new();
        scanner.extend(&bad);
        scanner.extend(&seal(b"clean"));
        assert_eq!(scanner.next_payload().unwrap(), b"clean");
        assert_eq!(scanner.rejected(), 1);
    }

    #[test]
    fn truncated_envelope_heals_when_followed_by_valid_one() {
        let sealed = seal(b"this one gets cut short");
        let mut scanner = FrameScanner::new();
        scanner.extend(&sealed[..sealed.len() - 5]); // truncated
        scanner.extend(&seal(b"survivor"));
        // The truncated envelope's declared length swallows the survivor's
        // header bytes; its CRC then fails and the scanner resyncs onto
        // the survivor's magic... which was consumed. A retransmission
        // makes it whole again:
        let first = scanner.next_payload();
        scanner.extend(&seal(b"survivor"));
        let second = scanner.next_payload();
        assert!(
            [&first, &second]
                .iter()
                .any(|p| p.as_deref() == Some(b"survivor".as_slice())),
            "a valid envelope after a truncated one must eventually emerge: \
             {first:?} / {second:?}"
        );
        assert!(scanner.rejected() >= 1);
    }

    /// One receive step: the production `fill_from`, or the read-into-a-
    /// fresh-`Vec`-then-`extend` it replaced; then every complete payload.
    fn receive(
        scanner: &mut FrameScanner,
        link: &mut DuplexLink,
        fill: bool,
        payloads: &mut Vec<Vec<u8>>,
    ) {
        if fill {
            scanner.fill_from(link).unwrap();
        } else {
            let mut incoming = Vec::new();
            link.read_available(&mut incoming).unwrap();
            scanner.extend(&incoming);
        }
        while let Some(payload) = scanner.next_payload() {
            payloads.push(payload);
        }
    }

    /// `fill_from` changes where the bytes land, not which payloads come
    /// out: over a link that delays and drops envelopes (alone, and with
    /// every other fault class), read on two of every three ticks, both
    /// receive paths pull the same payloads and reject the same envelopes.
    #[test]
    fn fill_from_yields_the_payloads_read_then_extend_did() {
        use crate::fault::{FaultPlan, FaultyLink};
        let run = |plan: &FaultPlan, fill: bool| {
            let (sender, mut receiver) = duplex_pair();
            let mut link = FaultyLink::new(sender, plan.clone());
            let mut scanner = FrameScanner::new();
            let mut payloads = Vec::new();
            for i in 0..300usize {
                let payload: Vec<u8> = (0..(i * 37) % 700).map(|k| (i + k) as u8).collect();
                link.send_envelope(&seal(&payload)).unwrap();
                link.tick().unwrap();
                if i % 3 != 0 {
                    receive(&mut scanner, &mut receiver, fill, &mut payloads);
                }
            }
            link.flush_held().unwrap();
            receive(&mut scanner, &mut receiver, fill, &mut payloads);
            (payloads, scanner.rejected(), scanner.buffered())
        };
        for plan in [
            FaultPlan::lossless(11).with_delay(0.3, 4).with_drop(0.2),
            FaultPlan::chaos(12),
        ] {
            let filled = run(&plan, true);
            assert_eq!(filled, run(&plan, false), "{plan:?}");
            assert!(
                filled.0.len() >= 150,
                "{plan:?}: {} payloads",
                filled.0.len()
            );
        }
    }

    #[test]
    fn oversize_length_does_not_stall() {
        let mut bad = seal(b"x");
        bad[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut scanner = FrameScanner::new();
        scanner.extend(&bad);
        scanner.extend(&seal(b"after"));
        assert_eq!(scanner.next_payload().unwrap(), b"after");
        assert_eq!(scanner.rejected(), 1);
    }
}
