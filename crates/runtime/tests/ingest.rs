//! Open-loop ingestion contracts:
//!
//! 1. **Drop-oldest keeps a suffix-respecting subsequence** (property):
//!    against a reference queue model, the processed frame sequence is
//!    strictly increasing, the frames retained at any instant are the
//!    newest contiguous suffix of what was offered, and after draining,
//!    `drops == offered − processed` exactly.
//! 2. **Admission rejection is side-effect-free**: a `try_admit` refusal
//!    returns the session intact and leaves scheduler state untouched.
//! 3. **Idle tenants are not stepped** (regression for the round-robin
//!    idle-spin): a session with an empty inbox parks instead of being
//!    stepped, and the round of the one tenant that is ready runs inline on
//!    the serving thread — nothing is published on the pool.

use proptest::prelude::*;
use rtgs_runtime::{
    AdmissionError, EvictionPolicy, FrameInbox, IngestConfig, IngestHub, IngestStats, LatePolicy,
    Serve, Session, SessionStatus, ThreadPool,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// 1. Drop-policy property tests
// ---------------------------------------------------------------------------

/// Reference model of a bounded inbox under a drop policy, tracking the
/// exact sequence numbers every operation should observe.
struct Model {
    queue: VecDeque<u64>,
    next_seq: u64,
    offered: u64,
    dropped: u64,
    popped: Vec<u64>,
    capacity: usize,
    policy: LatePolicy,
}

impl Model {
    fn new(capacity: usize, policy: LatePolicy) -> Self {
        Self {
            queue: VecDeque::new(),
            next_seq: 0,
            offered: 0,
            dropped: 0,
            popped: Vec::new(),
            capacity,
            policy,
        }
    }

    fn push(&mut self) {
        self.offered += 1;
        if self.queue.len() == self.capacity {
            match self.policy {
                LatePolicy::DropOldest => {
                    self.queue.pop_front();
                    self.dropped += 1;
                }
                LatePolicy::DropNewest => {
                    // Rejected frames consume no sequence number.
                    self.dropped += 1;
                    return;
                }
                LatePolicy::Block => unreachable!("model is single-threaded"),
            }
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
fn run_script(capacity: usize, policy: LatePolicy, ops: &[u8]) -> (Model, Vec<u64>, IngestStats) {
    let hub = IngestHub::new(
        IngestConfig::new()
            .with_inbox_capacity(capacity)
            .with_late_policy(policy),
    );
    let (tx, rx) = hub.channel::<u64>().unwrap();
    let mut model = Model::new(capacity, policy);
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
        let (model, processed, stats) = run_script(capacity, LatePolicy::DropOldest, &ops);

        // Lockstep with the reference model, element by element.
        prop_assert_eq!(&processed, &model.popped);
        prop_assert_eq!(stats.offered, model.offered);
        prop_assert_eq!(stats.dropped_oldest, model.dropped);
        prop_assert_eq!(stats.dropped_newest, 0);

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

    /// Drop-newest is the mirror image: the queue preserves the oldest
    /// backlog and rejects fresh frames, with identical exact accounting.
    #[test]
    fn drop_newest_retains_prefix_and_accounts_exactly(
        capacity in 1usize..6,
        ops in prop::collection::vec(0u8..5, 3..120),
    ) {
        let (model, processed, stats) = run_script(capacity, LatePolicy::DropNewest, &ops);
        prop_assert_eq!(&processed, &model.popped);
        prop_assert_eq!(stats.offered, model.offered);
        prop_assert_eq!(stats.dropped_newest, model.dropped);
        prop_assert_eq!(stats.dropped_oldest, 0);
        for pair in processed.windows(2) {
            prop_assert!(pair[0] < pair[1]);
        }
        // Accepted seqs are gap-free under drop-newest: rejected frames
        // never entered the queue, so the processed list is exactly
        // 0..processed.len().
        for (i, &seq) in processed.iter().enumerate() {
            prop_assert_eq!(seq, i as u64);
        }
        prop_assert_eq!(stats.dropped(), stats.offered - stats.processed);
    }
}

// ---------------------------------------------------------------------------
// 2. Admission rejection is side-effect-free
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Heavy {
    bytes: usize,
    steps: usize,
}

impl Session for Heavy {
    type Report = usize;

    fn step(&mut self) -> SessionStatus {
        self.steps += 1;
        SessionStatus::Finished
    }

    fn finish(self) -> usize {
        self.steps
    }

    fn resident_bytes(&self) -> usize {
        self.bytes
    }
}

#[test]
fn admission_rejection_leaves_scheduler_untouched() {
    let dir = std::env::temp_dir().join(format!("rtgs-admit-{}", std::process::id()));
    let hub = IngestHub::new(IngestConfig::new().with_max_sessions(2));
    let mut scheduler = Serve::builder()
        .threads(1)
        .ingest(&hub)
        .eviction(EvictionPolicy::new(&dir).with_max_resident_bytes(1_000))
        .build::<Heavy>();

    scheduler
        .try_admit(
            "small",
            Heavy {
                bytes: 100,
                steps: 0,
            },
        )
        .expect("within every budget");

    // Rejected for size: resident_bytes alone exceeds the byte budget.
    let (err, returned) = scheduler
        .try_admit(
            "huge",
            Heavy {
                bytes: 5_000,
                steps: 0,
            },
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            AdmissionError::ResidentBytes {
                limit: 1_000,
                requested: 5_000,
                resident: 100,
            }
        ),
        "wrong rejection reason: {err}"
    );
    // The session comes back intact...
    assert_eq!(returned.bytes, 5_000);
    assert_eq!(returned.steps, 0);
    // ...and the scheduler is exactly as before the attempt.
    assert_eq!(scheduler.session_count(), 1);

    // Fill the hub's session cap, then watch the cap reject.
    scheduler
        .try_admit(
            "second",
            Heavy {
                bytes: 100,
                steps: 0,
            },
        )
        .expect("cap is 2");
    let (err, _returned) = scheduler
        .try_admit(
            "third",
            Heavy {
                bytes: 100,
                steps: 0,
            },
        )
        .unwrap_err();
    assert!(matches!(
        err,
        AdmissionError::SessionLimit {
            limit: 2,
            admitted: 2
        }
    ));
    assert_eq!(scheduler.session_count(), 2);

    // The run serves exactly the admitted sessions, unperturbed.
    let outcomes = scheduler.run();
    assert_eq!(outcomes.len(), 2);
    assert!(outcomes.iter().all(|o| o.stats.completed));
    assert_eq!(outcomes[0].stats.label, "small");
    assert_eq!(outcomes[1].stats.label, "second");
}

/// A session whose footprint can grow after admission (shared cell so the
/// test mutates it while the scheduler owns the session).
#[derive(Debug)]
struct Growing {
    bytes: std::sync::Arc<std::sync::atomic::AtomicUsize>,
}

impl Session for Growing {
    type Report = ();

    fn step(&mut self) -> SessionStatus {
        SessionStatus::Finished
    }

    fn finish(self) {}

    fn resident_bytes(&self) -> usize {
        self.bytes.load(std::sync::atomic::Ordering::SeqCst)
    }
}

/// Admission polls *live* resident bytes: a session that grew past its
/// at-admission estimate shrinks the headroom later admits see, so the
/// next admit is rejected even though the original estimates would fit.
#[test]
fn admission_counts_live_resident_bytes_not_estimates() {
    let dir = std::env::temp_dir().join(format!("rtgs-admit-live-{}", std::process::id()));
    let mut scheduler = Serve::builder()
        .threads(1)
        .eviction(EvictionPolicy::new(&dir).with_max_resident_bytes(1_000))
        .build::<Growing>();

    let bytes = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(200));
    scheduler
        .try_admit(
            "grows",
            Growing {
                bytes: std::sync::Arc::clone(&bytes),
            },
        )
        .expect("200 of 1000 fits");

    // At the original estimate a 700-byte sibling would fit (200 + 700 <=
    // 1000). But the session has since grown to 600 resident bytes...
    bytes.store(600, std::sync::atomic::Ordering::SeqCst);
    let (err, _returned) = scheduler
        .try_admit(
            "late",
            Growing {
                bytes: std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(700)),
            },
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            AdmissionError::ResidentBytes {
                limit: 1_000,
                requested: 700,
                resident: 600,
            }
        ),
        "wrong rejection reason: {err}"
    );

    // A sibling that fits beside the *live* footprint is still admitted.
    scheduler
        .try_admit(
            "fits",
            Growing {
                bytes: std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(300)),
            },
        )
        .expect("600 + 300 <= 1000");
    assert_eq!(scheduler.session_count(), 2);
    let outcomes = scheduler.run();
    assert_eq!(outcomes.len(), 2);
}

// ---------------------------------------------------------------------------
// 3. Idle tenants are not stepped (idle-spin regression)
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
