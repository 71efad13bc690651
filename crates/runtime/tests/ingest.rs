//! Open-loop ingestion contracts:
//!
//! 1. **Drop-oldest keeps a suffix-respecting subsequence** (property):
//!    against a reference queue model, the processed frame sequence is
//!    strictly increasing, the frames retained at any instant are the
//!    newest contiguous suffix of what was offered, and after draining,
//!    `drops == offered − processed` exactly.
//! 2. **Idle tenants are not stepped** (regression for the round-robin
//!    idle-spin): a session with an empty inbox parks instead of being
//!    stepped, and the round of the one tenant that is ready runs inline on
//!    the serving thread — nothing is published on the pool.

use proptest::prelude::*;
use rtgs_runtime::{
    FrameInbox, IngestConfig, IngestHub, IngestStats, Serve, Session, SessionStatus, ThreadPool,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// 1. Drop-oldest property test
// ---------------------------------------------------------------------------

/// Reference model of a bounded drop-oldest inbox, tracking the exact
/// sequence numbers every operation should observe.
struct Model {
    queue: VecDeque<u64>,
    next_seq: u64,
    offered: u64,
    dropped: u64,
    popped: Vec<u64>,
    capacity: usize,
}

impl Model {
    fn new(capacity: usize) -> Self {
        Self {
            queue: VecDeque::new(),
            next_seq: 0,
            offered: 0,
            dropped: 0,
            popped: Vec::new(),
            capacity,
        }
    }

    fn push(&mut self) {
        self.offered += 1;
        if self.queue.len() == self.capacity {
            self.queue.pop_front();
            self.dropped += 1;
        }
        self.queue.push_back(self.next_seq);
        self.next_seq += 1;
    }

    fn pop(&mut self) {
        if let Some(seq) = self.queue.pop_front() {
            self.popped.push(seq);
        }
    }
}

/// Drives the real inbox and the model through the same script, popping
/// frames through `frame_done` so processed counts are exact, then drains
/// both and returns (model, real processed seqs, real stats).
fn run_script(capacity: usize, ops: &[u8]) -> (Model, Vec<u64>, IngestStats) {
    let hub = IngestHub::new(IngestConfig::new().with_inbox_capacity(capacity));
    let (tx, rx) = hub.channel::<u64>().unwrap();
    let mut model = Model::new(capacity);
    let mut processed = Vec::new();
    for &op in ops {
        if op < 3 {
            tx.push(model.next_seq);
            model.push();
        } else {
            if let Some(frame) = rx.try_pop() {
                processed.push(frame.seq);
                rx.frame_done(frame, false);
            }
            model.pop();
        }
    }
    // Drain: close the stream and process the backlog.
    tx.close();
    while let Some(frame) = rx.try_pop() {
        processed.push(frame.seq);
        rx.frame_done(frame, false);
        model.pop();
    }
    let stats = rx.stats();
    (model, processed, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Satellite contract: under drop-oldest the retained frame sequence is
    /// a suffix-respecting subsequence of what was offered, and drops are
    /// exactly `offered − processed`.
    #[test]
    fn drop_oldest_retains_suffix_respecting_subsequence(
        capacity in 1usize..6,
        ops in prop::collection::vec(0u8..5, 3..120),
    ) {
        let (model, processed, stats) = run_script(capacity, &ops);

        // Lockstep with the reference model, element by element.
        prop_assert_eq!(&processed, &model.popped);
        prop_assert_eq!(stats.offered, model.offered);
        prop_assert_eq!(stats.dropped_oldest, model.dropped);

        // Strictly increasing: no reordering, no duplicates — every gap is
        // a drop of a then-oldest frame, so later frames never precede
        // earlier ones (the subsequence respects suffix order).
        for pair in processed.windows(2) {
            prop_assert!(pair[0] < pair[1], "out of order: {:?}", pair);
        }
        // Exact accounting once drained: every offered frame was either
        // processed or counted as dropped, none lost, none double-counted.
        prop_assert_eq!(stats.processed, processed.len() as u64);
        prop_assert_eq!(stats.dropped(), stats.offered - stats.processed);
        // Suffix-respecting: the processed subsequence ends at the newest
        // offered frame (drop-oldest never discards the freshest work).
        if stats.offered > 0 {
            prop_assert_eq!(*processed.last().unwrap(), stats.offered - 1);
        }
        prop_assert_eq!(stats.latency.count(), stats.processed);
    }
}

// ---------------------------------------------------------------------------
// 2. Idle tenants are not stepped (idle-spin regression)
// ---------------------------------------------------------------------------

/// Minimal open-loop session: pops one frame per step, finishes when its
/// channel is drained.
struct InboxSession {
    inbox: FrameInbox<u64>,
    processed: u64,
}

impl Session for InboxSession {
    type Report = u64;

    fn ready(&self) -> bool {
        self.inbox.has_work() || self.inbox.is_drained()
    }

    fn step(&mut self) -> SessionStatus {
        match self.inbox.try_pop() {
            Some(frame) => {
                self.inbox.frame_done(frame, false);
                self.processed += 1;
                if self.inbox.is_drained() {
                    SessionStatus::Finished
                } else {
                    SessionStatus::Running
                }
            }
            None if self.inbox.is_drained() => SessionStatus::Finished,
            None => SessionStatus::Idle,
        }
    }

    fn finish(self) -> u64 {
        self.processed
    }

    fn ingest_stats(&self) -> Option<IngestStats> {
        Some(self.inbox.stats())
    }
}

#[test]
fn idle_tenant_is_not_stepped_and_a_one_session_round_publishes_nothing() {
    // A dedicated pool so its counters are exclusively this test's.
    let pool = Arc::new(ThreadPool::new(2));
    let hub = IngestHub::new(IngestConfig::new().with_inbox_capacity(16));

    let (busy_tx, busy_rx) = hub.channel::<u64>().unwrap();
    let (idle_tx, idle_rx) = hub.channel::<u64>().unwrap();

    // The busy tenant has 5 frames queued up front; its stream then ends.
    for v in 0..5 {
        busy_tx.push(v);
    }
    busy_tx.close();
    // The idle tenant's stream stays open (and empty) until well after the
    // busy tenant finished, then closes without ever delivering a frame.
    let closer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(40));
        idle_tx.close();
    });

    let mut scheduler = Serve::builder()
        .pool(Arc::clone(&pool))
        .ingest(&hub)
        .build::<InboxSession>();
    scheduler.add_session(
        "busy",
        InboxSession {
            inbox: busy_rx,
            processed: 0,
        },
    );
    scheduler.add_session(
        "idle",
        InboxSession {
            inbox: idle_rx,
            processed: 0,
        },
    );
    let outcomes = scheduler.run();
    closer.join().unwrap();

    let busy = &outcomes[0];
    let idle = &outcomes[1];
    assert!(busy.stats.completed && idle.stats.completed);
    assert_eq!(busy.report, 5);
    assert_eq!(busy.stats.steps, 5, "one step per queued frame");
    assert_eq!(idle.report, 0);
    assert_eq!(idle.stats.steps, 1, "only the end-of-stream step");
    assert!(
        idle.stats.idle_rounds >= 4,
        "the idle tenant parked while the busy one served ({} idle rounds)",
        idle.stats.idle_rounds
    );

    // The regression, seen from the pool: before readiness gating every
    // round stepped every session, so every round was a two-chunk loop.
    // Now at most one tenant is ready at a time, and a round of one step
    // runs inline on the serving thread.
    assert_eq!(
        pool.stats().jobs,
        0,
        "a one-session round published a loop on the pool"
    );

    // Ingest stats surfaced into serving outcomes.
    let busy_ingest = busy.stats.ingest.as_ref().unwrap();
    assert_eq!(busy_ingest.offered, 5);
    assert_eq!(busy_ingest.processed, 5);
    assert_eq!(busy_ingest.dropped(), 0);
    let idle_ingest = idle.stats.ingest.as_ref().unwrap();
    assert_eq!(idle_ingest.offered, 0);
}
