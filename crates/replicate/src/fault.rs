//! Deterministic transport fault injection.
//!
//! Every failure path in the replication stack must be exercisable on
//! demand, reproducibly. A [`FaultPlan`] is a seeded recipe of envelope-
//! granularity faults — drop, duplicate, reorder, truncate, corrupt,
//! delay — plus an optional `kill_primary_at_frame` for failover drills.
//! [`FaultyLink`] applies the plan to a [`ByteLink`]'s **forward**
//! direction (records); the return direction (acks) stays clean, which
//! keeps the harness simple without weakening coverage — a lost ack is
//! indistinguishable from a lost record to the retransmission logic.
//!
//! Determinism contract (see CONTRIBUTING, "Fault-injection policy"):
//! identical seed + identical send sequence ⇒ identical faults. No
//! wall-clock randomness anywhere — delays are measured in *pump ticks*,
//! not time.

use crate::transport::ByteLink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded, deterministic plan of transport faults.
///
/// Probabilities are per sent envelope, applied in the order drop →
/// duplicate → truncate → corrupt → delay (reordering emerges from
/// delaying some envelopes past their successors).
#[derive(Debug, Clone)]
#[must_use = "attach the plan to a FaultyLink"]
pub struct FaultPlan {
    /// Seed of the fault stream.
    pub seed: u64,
    /// Probability an envelope vanishes entirely.
    pub drop: f64,
    /// Probability an envelope is sent twice.
    pub duplicate: f64,
    /// Probability an envelope is cut short mid-payload.
    pub truncate: f64,
    /// Probability one payload byte is flipped.
    pub corrupt: f64,
    /// Probability an envelope is held back and released later (this is
    /// also the reordering mechanism — held envelopes land behind their
    /// successors).
    pub delay: f64,
    /// Maximum pump ticks a delayed envelope is held.
    pub max_delay_ticks: u32,
    /// Crash drill: the primary is declared dead once it has processed
    /// this many frames (enforced by the harness driving the primary, not
    /// by the link).
    pub kill_primary_at_frame: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing — the baseline control.
    pub fn lossless(seed: u64) -> Self {
        Self {
            seed,
            drop: 0.0,
            duplicate: 0.0,
            truncate: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            max_delay_ticks: 0,
            kill_primary_at_frame: None,
        }
    }

    /// An aggressive mixed plan: every fault class active at once.
    pub fn chaos(seed: u64) -> Self {
        Self {
            seed,
            drop: 0.10,
            duplicate: 0.10,
            truncate: 0.05,
            corrupt: 0.05,
            delay: 0.15,
            max_delay_ticks: 3,
            kill_primary_at_frame: None,
        }
    }

    /// Sets the drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Sets the duplicate probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Sets the truncate probability.
    pub fn with_truncate(mut self, p: f64) -> Self {
        self.truncate = p;
        self
    }

    /// Sets the corrupt probability.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt = p;
        self
    }

    /// Sets the delay probability and bound.
    pub fn with_delay(mut self, p: f64, max_ticks: u32) -> Self {
        self.delay = p;
        self.max_delay_ticks = max_ticks;
        self
    }

    /// Arms the kill-primary-at-frame-N crash drill.
    pub fn with_kill_primary_at_frame(mut self, frame: u64) -> Self {
        self.kill_primary_at_frame = Some(frame);
        self
    }
}

/// Counters of injected faults (exact, for assertions in tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Envelopes sent into the link (before faults).
    pub offered: u64,
    /// Envelopes dropped.
    pub dropped: u64,
    /// Envelopes duplicated.
    pub duplicated: u64,
    /// Envelopes truncated.
    pub truncated: u64,
    /// Envelopes with a corrupted byte.
    pub corrupted: u64,
    /// Envelopes delayed (released on a later tick).
    pub delayed: u64,
}

/// An envelope held back by the delay fault, keyed by its release tick.
#[derive(Debug)]
struct Held {
    release_tick: u64,
    bytes: Vec<u8>,
}

/// A [`ByteLink`] wrapper that applies a [`FaultPlan`] to envelopes sent
/// through [`FaultyLink::send_envelope`]. Reads pass through untouched.
#[derive(Debug)]
pub struct FaultyLink<L: ByteLink> {
    inner: L,
    plan: FaultPlan,
    rng: StdRng,
    tick: u64,
    held: Vec<Held>,
    stats: FaultStats,
}

impl<L: ByteLink> FaultyLink<L> {
    /// Wraps `inner` with `plan`'s fault stream.
    pub fn new(inner: L, plan: FaultPlan) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed);
        Self {
            inner,
            plan,
            rng,
            tick: 0,
            held: Vec::new(),
            stats: FaultStats::default(),
        }
    }

    /// Injected-fault counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Advances the fault clock one pump tick and releases every held
    /// envelope that has come due (in held order — reordering relative to
    /// newer envelopes has already happened by construction).
    ///
    /// # Errors
    ///
    /// Transport write failure.
    pub fn tick(&mut self) -> std::io::Result<()> {
        self.tick += 1;
        let due: Vec<Vec<u8>> = {
            let tick = self.tick;
            let mut due = Vec::new();
            self.held.retain_mut(|h| {
                if h.release_tick <= tick {
                    due.push(std::mem::take(&mut h.bytes));
                    false
                } else {
                    true
                }
            });
            due
        };
        for bytes in due {
            self.inner.write(&bytes)?;
        }
        Ok(())
    }

    /// Releases every held envelope immediately (shutdown drain — the
    /// fault clock stops mattering once the stream is flushing).
    ///
    /// # Errors
    ///
    /// Transport write failure.
    pub fn flush_held(&mut self) -> std::io::Result<()> {
        for held in std::mem::take(&mut self.held) {
            self.inner.write(&held.bytes)?;
        }
        Ok(())
    }

    /// Sends one envelope through the fault stream. The faults are drawn
    /// first; the envelope is copied only when one of them needs bytes of
    /// its own (a flipped bit, a held-back release) — a healthy, duplicated
    /// or truncated envelope is written to the link from the caller's
    /// buffer.
    ///
    /// # Errors
    ///
    /// Transport write failure.
    pub fn send_envelope(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stats.offered += 1;
        if self.plan.drop > 0.0 && self.rng.gen_bool(self.plan.drop) {
            self.stats.dropped += 1;
            return Ok(());
        }
        let copies = if self.plan.duplicate > 0.0 && self.rng.gen_bool(self.plan.duplicate) {
            self.stats.duplicated += 1;
            2
        } else {
            1
        };
        for _ in 0..copies {
            let mut keep = bytes.len();
            if self.plan.truncate > 0.0 && self.rng.gen_bool(self.plan.truncate) && keep > 1 {
                keep = self.rng.gen_range(1..keep);
                self.stats.truncated += 1;
            }
            let flip = if self.plan.corrupt > 0.0 && self.rng.gen_bool(self.plan.corrupt) {
                let i = self.rng.gen_range(0..keep);
                self.stats.corrupted += 1;
                Some((i, 1u8 << self.rng.gen_range(0u32..8)))
            } else {
                None
            };
            let hold_ticks = if self.plan.delay > 0.0
                && self.plan.max_delay_ticks > 0
                && self.rng.gen_bool(self.plan.delay)
            {
                self.stats.delayed += 1;
                Some(u64::from(self.rng.gen_range(1..=self.plan.max_delay_ticks)))
            } else {
                None
            };
            if flip.is_none() && hold_ticks.is_none() {
                self.inner.write(&bytes[..keep])?;
                continue;
            }
            let mut out = bytes[..keep].to_vec();
            if let Some((i, bit)) = flip {
                out[i] ^= bit;
            }
            match hold_ticks {
                Some(ticks) => self.held.push(Held {
                    release_tick: self.tick + ticks,
                    bytes: out,
                }),
                None => self.inner.write(&out)?,
            }
        }
        Ok(())
    }

    /// Reads pass through to the underlying link untouched.
    ///
    /// # Errors
    ///
    /// Transport read failure.
    pub fn read_available(&mut self, out: &mut Vec<u8>) -> std::io::Result<usize> {
        self.inner.read_available(out)
    }

    /// The wrapped link, for reading the clean return direction straight
    /// into a `FrameScanner`.
    pub(crate) fn inner_mut(&mut self) -> &mut L {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::duplex_pair;

    fn pump_all(link: &mut FaultyLink<crate::transport::DuplexLink>) {
        for _ in 0..16 {
            link.tick().unwrap();
        }
    }

    #[test]
    fn lossless_plan_is_transparent() {
        let (a, mut b) = duplex_pair();
        let mut faulty = FaultyLink::new(a, FaultPlan::lossless(1));
        faulty.send_envelope(b"one").unwrap();
        faulty.send_envelope(b"two").unwrap();
        let mut out = Vec::new();
        b.read_available(&mut out).unwrap();
        assert_eq!(out, b"onetwo");
        assert_eq!(
            faulty.stats(),
            FaultStats {
                offered: 2,
                ..FaultStats::default()
            }
        );
    }

    #[test]
    fn same_seed_same_faults() {
        let run = |seed: u64| {
            let (a, mut b) = duplex_pair();
            let mut faulty = FaultyLink::new(a, FaultPlan::chaos(seed));
            for i in 0..200u32 {
                faulty.send_envelope(&i.to_le_bytes()).unwrap();
                faulty.tick().unwrap();
            }
            pump_all(&mut faulty);
            let mut bytes = Vec::new();
            b.read_available(&mut bytes).unwrap();
            (faulty.stats(), bytes)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).1, run(43).1, "different seeds should differ");
    }

    /// The send path as it was before copy-on-fault: every copy gets its own
    /// buffer up front, then the faults are drawn against it. Kept as the
    /// reference the production path must match draw for draw.
    fn send_envelope_copying(link: &mut FaultyLink<crate::transport::DuplexLink>, bytes: &[u8]) {
        link.stats.offered += 1;
        if link.plan.drop > 0.0 && link.rng.gen_bool(link.plan.drop) {
            link.stats.dropped += 1;
            return;
        }
        let copies = if link.plan.duplicate > 0.0 && link.rng.gen_bool(link.plan.duplicate) {
            link.stats.duplicated += 1;
            2
        } else {
            1
        };
        for _ in 0..copies {
            let mut out = bytes.to_vec();
            if link.plan.truncate > 0.0 && link.rng.gen_bool(link.plan.truncate) && out.len() > 1 {
                let keep = link.rng.gen_range(1..out.len());
                out.truncate(keep);
                link.stats.truncated += 1;
            }
            if link.plan.corrupt > 0.0 && link.rng.gen_bool(link.plan.corrupt) {
                let i = link.rng.gen_range(0..out.len());
                out[i] ^= 1 << link.rng.gen_range(0u32..8) as u8;
                link.stats.corrupted += 1;
            }
            if link.plan.delay > 0.0
                && link.plan.max_delay_ticks > 0
                && link.rng.gen_bool(link.plan.delay)
            {
                let ticks = u64::from(link.rng.gen_range(1..=link.plan.max_delay_ticks));
                link.held.push(Held {
                    release_tick: link.tick + ticks,
                    bytes: out,
                });
                link.stats.delayed += 1;
            } else {
                link.inner.write(&out).unwrap();
            }
        }
    }

    /// 200 envelopes of 1–48 bytes through `plan`, one tick per send, then
    /// everything still held: the fault counters and the delivered stream.
    fn drive(
        plan: FaultPlan,
        send: impl Fn(&mut FaultyLink<crate::transport::DuplexLink>, &[u8]),
    ) -> (FaultStats, Vec<u8>) {
        let (a, mut b) = duplex_pair();
        let mut faulty = FaultyLink::new(a, plan);
        for i in 0..200usize {
            let envelope: Vec<u8> = (0..1 + (i * 7) % 48).map(|k| (i * 31 + k) as u8).collect();
            send(&mut faulty, &envelope);
            faulty.tick().unwrap();
        }
        pump_all(&mut faulty);
        let mut bytes = Vec::new();
        b.read_available(&mut bytes).unwrap();
        (faulty.stats(), bytes)
    }

    /// Copy-on-fault changes no draw and no delivered byte: against the
    /// copy-always reference over the plan space `tests/faults.rs` samples
    /// (every class alone, all at once, none), and against the stream the
    /// previous implementation produced for three chaos seeds.
    #[test]
    fn copy_on_fault_matches_copy_always_draw_for_draw() {
        let mut plans = vec![FaultPlan::lossless(3)];
        for seed in 0..24u64 {
            let p = |k: u64, max: f64| ((seed * 7 + k * 13) % 10) as f64 / 10.0 * max;
            plans.push(FaultPlan::chaos(seed));
            plans.push(
                FaultPlan::lossless(seed * 41 + 5)
                    .with_drop(p(0, 0.5))
                    .with_duplicate(p(1, 0.4))
                    .with_truncate(p(2, 0.3))
                    .with_corrupt(p(3, 0.3))
                    .with_delay(p(4, 0.5), 1 + (seed % 3) as u32),
            );
        }
        for seed in 100..104u64 {
            plans.push(FaultPlan::lossless(seed).with_drop(0.5));
            plans.push(FaultPlan::lossless(seed).with_duplicate(0.5));
            plans.push(FaultPlan::lossless(seed).with_truncate(0.5));
            plans.push(FaultPlan::lossless(seed).with_corrupt(0.5));
            plans.push(FaultPlan::lossless(seed).with_delay(0.5, 3));
        }
        for plan in plans {
            let new = drive(plan.clone(), |link, bytes| {
                link.send_envelope(bytes).unwrap()
            });
            let old = drive(plan.clone(), send_envelope_copying);
            assert_eq!(new, old, "{plan:?}");
        }

        // Per chaos seed: [dropped, duplicated, truncated, corrupted,
        // delayed], bytes delivered and their CRC-32, recorded from the
        // copy-always code.
        for (seed, faults, len, crc) in [
            (7u64, [19u64, 15, 15, 10, 24], 4509usize, 0x9cb9_9112u32),
            (42, [23, 13, 4, 13, 26], 4421, 0xdc6b_82c3),
            (99, [19, 18, 12, 11, 31], 4509, 0x569a_e3a2),
        ] {
            let (stats, bytes) = drive(FaultPlan::chaos(seed), |link, bytes| {
                link.send_envelope(bytes).unwrap()
            });
            let [dropped, duplicated, truncated, corrupted, delayed] = faults;
            let expected = FaultStats {
                offered: 200,
                dropped,
                duplicated,
                truncated,
                corrupted,
                delayed,
            };
            assert_eq!(stats, expected, "seed {seed}");
            assert_eq!(
                (bytes.len(), rtgs_snapshot::crc32(&bytes)),
                (len, crc),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn chaos_injects_every_class() {
        let (a, _b) = duplex_pair();
        let mut faulty = FaultyLink::new(a, FaultPlan::chaos(7));
        for i in 0..500u32 {
            faulty.send_envelope(&[i as u8; 32]).unwrap();
            faulty.tick().unwrap();
        }
        let stats = faulty.stats();
        assert!(stats.dropped > 0);
        assert!(stats.duplicated > 0);
        assert!(stats.truncated > 0);
        assert!(stats.corrupted > 0);
        assert!(stats.delayed > 0);
    }

    #[test]
    fn delayed_envelopes_release_in_tick_order() {
        let (a, mut b) = duplex_pair();
        let mut faulty = FaultyLink::new(a, FaultPlan::lossless(5).with_delay(1.0, 2));
        faulty.send_envelope(b"late").unwrap();
        let mut out = Vec::new();
        assert_eq!(b.read_available(&mut out).unwrap(), 0, "held back");
        pump_all(&mut faulty);
        b.read_available(&mut out).unwrap();
        assert_eq!(out, b"late");
    }

    #[test]
    fn flush_held_releases_everything_now() {
        let (a, mut b) = duplex_pair();
        let mut faulty = FaultyLink::new(a, FaultPlan::lossless(5).with_delay(1.0, 1_000));
        faulty.send_envelope(b"parked").unwrap();
        faulty.flush_held().unwrap();
        let mut out = Vec::new();
        b.read_available(&mut out).unwrap();
        assert_eq!(out, b"parked");
    }
}
