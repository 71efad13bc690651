//! The byte-stream transport abstraction replication runs over.
//!
//! Replication needs exactly two primitives — append bytes, read whatever
//! has arrived — so that is the whole [`ByteLink`] trait. The in-process
//! [`duplex_pair`] backs tests, experiments and single-machine failover;
//! a real socket slots in later by implementing the same two methods
//! (non-blocking reads map directly onto `read_available`).
//!
//! A replicated frame moves ≈ 215 KB through this layer, so both methods
//! copy slices: a write appends the caller's bytes to the shared queue, and
//! a read appends the queue's (at most two, when it has wrapped) contiguous
//! runs to the caller's buffer and empties it. Both roles read through
//! their `FrameScanner`, which passes its own receive buffer as that `out`,
//! so a record is copied once on the way in.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// One direction of a byte stream: ordered, reliable at this layer (the
/// fault harness injects loss *above* it), non-blocking to read.
pub trait ByteLink: Send {
    /// Appends `bytes` to the stream.
    ///
    /// # Errors
    ///
    /// Transport I/O failure (the in-process link never fails).
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<()>;

    /// Moves every byte that has arrived since the last call into `out`.
    /// Returns how many bytes were appended (0 = nothing pending).
    ///
    /// # Errors
    ///
    /// Transport I/O failure (the in-process link never fails).
    fn read_available(&mut self, out: &mut Vec<u8>) -> std::io::Result<usize>;
}

/// Shared in-memory byte queue: one direction of the duplex pair.
type SharedPipe = Arc<Mutex<VecDeque<u8>>>;

/// In-process [`ByteLink`]: writes go to one shared queue, reads drain the
/// other. The two ends of [`duplex_pair`] cross the queues, so each side's
/// writes become the other side's reads — including across threads.
#[derive(Debug)]
pub struct DuplexLink {
    outgoing: SharedPipe,
    incoming: SharedPipe,
}

impl ByteLink for DuplexLink {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.outgoing
            .lock()
            .expect("duplex pipe poisoned")
            .extend(bytes);
        Ok(())
    }

    fn read_available(&mut self, out: &mut Vec<u8>) -> std::io::Result<usize> {
        let mut pipe = self.incoming.lock().expect("duplex pipe poisoned");
        let n = pipe.len();
        let (front, back) = pipe.as_slices();
        out.reserve(n);
        out.extend_from_slice(front);
        out.extend_from_slice(back);
        pipe.clear();
        Ok(n)
    }
}

/// A connected pair of in-process links: bytes written to one end arrive
/// at the other, in both directions.
#[must_use]
pub fn duplex_pair() -> (DuplexLink, DuplexLink) {
    let a_to_b: SharedPipe = Arc::new(Mutex::new(VecDeque::new()));
    let b_to_a: SharedPipe = Arc::new(Mutex::new(VecDeque::new()));
    (
        DuplexLink {
            outgoing: Arc::clone(&a_to_b),
            incoming: Arc::clone(&b_to_a),
        },
        DuplexLink {
            outgoing: b_to_a,
            incoming: a_to_b,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplex_pair_crosses_directions() {
        let (mut a, mut b) = duplex_pair();
        a.write(b"ping").unwrap();
        b.write(b"pong").unwrap();

        let mut at_b = Vec::new();
        assert_eq!(b.read_available(&mut at_b).unwrap(), 4);
        assert_eq!(at_b, b"ping");

        let mut at_a = Vec::new();
        assert_eq!(a.read_available(&mut at_a).unwrap(), 4);
        assert_eq!(at_a, b"pong");

        // Drained: nothing pending on either side.
        assert_eq!(a.read_available(&mut at_a).unwrap(), 0);
        assert_eq!(b.read_available(&mut at_b).unwrap(), 0);
    }

    #[test]
    fn reads_preserve_write_order_and_accumulate() {
        let (mut a, mut b) = duplex_pair();
        a.write(b"one").unwrap();
        a.write(b"two").unwrap();
        let mut out = Vec::new();
        b.read_available(&mut out).unwrap();
        assert_eq!(out, b"onetwo");
        a.write(b"three").unwrap();
        b.read_available(&mut out).unwrap();
        assert_eq!(out, b"onetwothree");
    }

    /// Queued bytes that wrap around the ring's end come out as two slices,
    /// appended in stream order.
    #[test]
    fn a_read_across_the_rings_end_returns_bytes_in_order() {
        let (mut a, mut b) = duplex_pair();
        let capacity = {
            let mut pipe = b.incoming.lock().unwrap();
            pipe.reserve(64);
            pipe.capacity()
        };
        let first: Vec<u8> = (0..capacity).map(|i| i as u8).collect();
        a.write(&first).unwrap();
        // A read empties the queue (and std then rewinds its head), so move
        // the head the way a consumer of only the front half would: the next
        // write has to wrap into the gap it leaves.
        let gap = capacity / 2;
        b.incoming.lock().unwrap().drain(..gap);
        let second: Vec<u8> = (0..gap).map(|i| 0x80 ^ i as u8).collect();
        a.write(&second).unwrap();
        {
            let pipe = b.incoming.lock().unwrap();
            assert_eq!(pipe.capacity(), capacity, "the ring must not have grown");
            assert!(
                !pipe.as_slices().1.is_empty(),
                "the queued bytes must straddle the ring's end"
            );
        }
        let mut out = b"kept".to_vec();
        assert_eq!(b.read_available(&mut out).unwrap(), capacity);
        let expected: Vec<u8> = [b"kept".as_slice(), &first[gap..], &second].concat();
        assert_eq!(out, expected);
        assert_eq!(b.read_available(&mut out).unwrap(), 0);
    }

    #[test]
    fn an_empty_read_returns_zero_and_leaves_out_untouched() {
        let (_a, mut b) = duplex_pair();
        let mut out = Vec::with_capacity(7);
        out.extend_from_slice(b"abc");
        assert_eq!(b.read_available(&mut out).unwrap(), 0);
        assert_eq!(out, b"abc");
        assert_eq!(out.capacity(), 7);
    }

    /// The cross-thread use the type is documented for: a writer thread and
    /// a reader thread exchange 10 000 chunks of 0–511 bytes, and every byte
    /// arrives exactly once, in order.
    #[test]
    fn a_writer_and_a_reader_thread_exchange_every_byte_once_in_order() {
        const CHUNKS: usize = 10_000;
        let lengths: Vec<usize> = {
            let mut state = 0x0DDB_1A5E_5BAD_5EEDu64;
            (0..CHUNKS)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    (state >> 55) as usize
                })
                .collect()
        };
        let total: usize = lengths.iter().sum();
        // Byte i of the stream is i mod 251: a lost, repeated or reordered
        // byte shifts everything after it.
        let stream = |i: usize| (i % 251) as u8;
        let (mut a, mut b) = duplex_pair();
        let writer = std::thread::spawn(move || {
            let mut at = 0;
            for len in lengths {
                let chunk: Vec<u8> = (at..at + len).map(stream).collect();
                a.write(&chunk).unwrap();
                at += len;
            }
        });
        let mut received = Vec::with_capacity(total);
        while received.len() < total {
            if b.read_available(&mut received).unwrap() == 0 {
                std::thread::yield_now();
            }
        }
        writer.join().unwrap();
        assert_eq!(b.read_available(&mut received).unwrap(), 0);
        assert_eq!(received.len(), total);
        assert!(received
            .iter()
            .enumerate()
            .all(|(i, &byte)| byte == stream(i)));
    }
}
