//! Multi-session serving: round-robin dispatch of N concurrent stepwise
//! workloads over one thread pool. This module is the dispatch policy;
//! [`residency`] (hibernate-to-disk eviction) and [`outcome`] (statistics,
//! replication drain, health) are the collaborators it calls.
//!
//! A [`Session`] is any incrementally-steppable workload (one SLAM frame per
//! step, in the `rtgs-slam` adapter). The [`SessionScheduler`] advances all
//! live sessions one step per *round*, and a round is one chunked loop on
//! the pool — [`ThreadPool::for_each_chunk`] over the ready sessions, one
//! step per chunk — so the serving thread and the pool's workers each claim
//! the next ready session until none is left. The end of the loop is the
//! fairness guarantee: no tenant ever runs more than one step ahead of
//! another. Steps fan their own chunked loops out onto the *same* pool — a
//! `Parallel` backend publishes on the pool that is stepping the session,
//! whatever pool it names itself — so a frame borrows the executors that
//! are idle and never brings threads of its own. A thread that waits for
//! the round to end is one of them: it runs *chunks* of the steps still in
//! flight, one at a time — never another session's step — and so fills the
//! tail of an unbalanced round (the pool's waiter rule).
//!
//! # Open-loop readiness
//!
//! Under the [`ingest`](crate::ingest) front-end, sessions are driven by
//! frames arriving in bounded inboxes rather than an always-ready dataset.
//! The scheduler consults [`Session::ready`] before every round: a session
//! with nothing to do **parks** — it is not stepped, is no chunk of the
//! round, and records no latency sample; a round with one ready session
//! runs inline on the serving thread and wakes nobody. When *no* session is
//! ready, the scheduler blocks on the hub's
//! [`WorkSignal`](crate::ingest::WorkSignal) instead of spinning, waking as
//! soon as any producer delivers a frame. Admission is the hub's, not the
//! scheduler's: [`IngestHub::channel`] refuses a session over the cap with
//! a typed [`AdmissionError`](crate::ingest::AdmissionError) before it has
//! an inbox to be scheduled on.

mod outcome;
mod residency;
mod session;

pub use outcome::{fleet_latency, SessionOutcome, SessionStats, ShutdownHandle};
pub use residency::EvictionPolicy;
pub use session::{ReplicationStats, Session, SessionIoError, SessionStatus};

use crate::backend::SharedSlice;
use crate::ingest::IngestHub;
use crate::pool::ThreadPool;
use outcome::{Entry, SchedulerMetrics};
use rtgs_telemetry::SpanGuard;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Advances one session by one step, timed and recorded: the only place a
/// step is run. Called from a chunk of the round for resident sessions and
/// from the serving thread for just-rehydrated ones.
fn step_session<S: Session>(
    idx: usize,
    entry: &mut Entry<S>,
    round: u64,
    metrics: &SchedulerMetrics,
) {
    let span = SpanGuard::new("serve.step", "session", idx as u64);
    let t0 = Instant::now();
    let status = entry.session.step();
    let elapsed = t0.elapsed();
    drop(span);
    if status == SessionStatus::Idle {
        // The readiness probe raced a consumer: the no-op is not a step and
        // takes no sample.
        entry.idle_rounds += 1;
        return;
    }
    entry.wall += elapsed;
    entry.latency.record(elapsed.as_nanos() as u64);
    entry.steps += 1;
    entry.last_stepped_round = round;
    if status == SessionStatus::Finished {
        entry.done = true;
    }
    metrics.step_ns.record(elapsed.as_nanos() as u64);
    metrics.steps.incr();
}

/// Serves N sessions concurrently over one pool with round-robin fairness.
pub struct SessionScheduler<S: Session> {
    pool: Arc<ThreadPool>,
    sessions: Vec<Entry<S>>,
    stop: Arc<AtomicBool>,
    policy: Option<EvictionPolicy>,
    ingest: Option<IngestHub>,
    metrics: SchedulerMetrics,
}

impl<S: Session> SessionScheduler<S> {
    /// Scheduler over the shared pool with `threads` workers (`0` = machine
    /// size).
    pub(crate) fn new(threads: usize) -> Self {
        Self::with_pool(crate::backend::shared_pool(threads))
    }

    /// Scheduler over an explicit pool.
    pub(crate) fn with_pool(pool: Arc<ThreadPool>) -> Self {
        Self {
            pool,
            sessions: Vec::new(),
            stop: Arc::new(AtomicBool::new(false)),
            policy: None,
            ingest: None,
            metrics: SchedulerMetrics::from_global(),
        }
    }

    /// Attaches a hibernate-to-disk eviction policy (see [`residency`]).
    pub(crate) fn set_eviction_policy(&mut self, policy: EvictionPolicy) {
        self.policy = Some(policy);
    }

    /// Attaches the open-loop ingestion hub: the scheduler parks on the
    /// hub's [`WorkSignal`](crate::ingest::WorkSignal) when no session is
    /// ready.
    pub(crate) fn set_ingest(&mut self, hub: &IngestHub) {
        self.ingest = Some(hub.clone());
    }

    /// Registers a session; returns its index (stable in the output).
    pub fn add_session(&mut self, label: impl Into<String>, session: S) -> usize {
        self.sessions.push(Entry::new(label.into(), session));
        self.sessions.len() - 1
    }

    /// Number of registered sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Handle for requesting a graceful stop from another thread (or from
    /// within a session step).
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.stop))
    }

    /// Runs all sessions to completion (or until shutdown), returning one
    /// outcome per session in insertion order.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of any session step, after the other steps
    /// of its round ran; panics when a hibernated session cannot be
    /// rehydrated (its spill file is the only copy of its state) or the
    /// spill directory cannot be created.
    pub fn run(self) -> Vec<SessionOutcome<S::Report>> {
        // Everything this thread does for its sessions from here on — a
        // one-session round, the steps of rehydrated sessions, the final
        // `finish()` (a SLAM report renders) — is this pool's work: chunked
        // loops started inside are published on it.
        let pool = Arc::clone(&self.pool);
        pool.run_as_job(|| self.serve())
    }

    fn serve(mut self) -> Vec<SessionOutcome<S::Report>> {
        self.create_spill_dir();
        // Indices of the sessions that step this round, resident and
        // hibernated: the round's one sample of readiness and residency.
        let mut ready = Vec::with_capacity(self.sessions.len());
        let mut ready_on_disk = Vec::new();
        let mut round: u64 = 0;
        while !self.stop.load(Ordering::SeqCst) && self.sessions.iter().any(|entry| !entry.done) {
            round += 1;
            // Readiness scan. The ingest signal version is captured
            // *before* it — a frame delivered after its session was scanned
            // bumps the version, so the park-wait below returns immediately
            // instead of sleeping through the delivery.
            let seen = self.ingest.as_ref().map(|hub| hub.signal().version());
            let mut live = 0usize;
            ready.clear();
            ready_on_disk.clear();
            for (idx, entry) in self.sessions.iter_mut().enumerate() {
                if entry.done {
                    continue;
                }
                live += 1;
                if !entry.session.ready() {
                    entry.idle_rounds += 1;
                } else if entry.hibernated {
                    ready_on_disk.push(idx);
                } else {
                    ready.push(idx);
                }
            }
            let idle = live - ready.len() - ready_on_disk.len();
            self.metrics.idle_sessions.set(idle as i64);

            // Phase 1: every ready resident session advances one step, as
            // one chunk each of one loop on the pool.
            let entries = SharedSlice::new(&mut self.sessions);
            let metrics = &self.metrics;
            self.pool.for_each_chunk(ready.len(), 1, &|chunk, _| {
                let idx = ready[chunk];
                // SAFETY: `ready` lists each session index once.
                let entry = unsafe { entries.get_mut(idx) };
                step_session(idx, entry, round, metrics);
            });

            // Phase 2: hibernated sessions step one at a time, each
            // rehydrated just-in-time with the budget enforced before (make
            // room) and after (spill the new coldest) — so residency never
            // exceeds the budget mid-round.
            for &idx in &ready_on_disk {
                if self.stop.load(Ordering::SeqCst) {
                    break;
                }
                // Clear a residency slot *and* the memory headroom the
                // parked session reported when it was spilled, so the byte
                // budget holds during its step, not just between rounds.
                self.enforce_budget(1, self.sessions[idx].parked_bytes);
                self.rehydrate(idx);
                step_session(idx, &mut self.sessions[idx], round, &self.metrics);
                self.enforce_budget(0, 0);
            }

            // Budgets may be exceeded on the very first round (every
            // session starts resident) or after sessions finished.
            self.enforce_budget(0, 0);

            // Park the whole scheduler when every live session was idle:
            // block on the ingest signal (woken by the next delivery or
            // channel close) rather than spinning rounds. Without a hub a
            // short yield bounds the spin — `ready()` then has no
            // producer-side edge to wait on.
            if live > 0 && idle == live {
                match (&self.ingest, seen) {
                    (Some(hub), Some(seen)) => {
                        hub.signal().wait_past(seen, Duration::from_millis(1));
                    }
                    _ => std::thread::sleep(Duration::from_micros(200)),
                }
            }
        }
        self.collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};

    struct Counter {
        target: usize,
        count: usize,
        log: Arc<std::sync::Mutex<Vec<usize>>>,
        id: usize,
        on_step: Option<ShutdownHandle>,
    }

    impl Session for Counter {
        type Report = usize;

        fn step(&mut self) -> SessionStatus {
            self.count += 1;
            self.log.lock().unwrap().push(self.id);
            if let Some(handle) = &self.on_step {
                handle.shutdown();
            }
            if self.count >= self.target {
                SessionStatus::Finished
            } else {
                SessionStatus::Running
            }
        }

        fn finish(self) -> usize {
            self.count
        }
    }

    fn counter(id: usize, target: usize, log: &Arc<std::sync::Mutex<Vec<usize>>>) -> Counter {
        Counter {
            target,
            count: 0,
            log: Arc::clone(log),
            id,
            on_step: None,
        }
    }

    #[test]
    fn all_sessions_complete_with_uneven_lengths() {
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut scheduler = SessionScheduler::new(2);
        for (id, target) in [(0, 3), (1, 7), (2, 1), (3, 5)] {
            scheduler.add_session(format!("s{id}"), counter(id, target, &log));
        }
        let outcomes = scheduler.run();
        assert_eq!(outcomes.len(), 4);
        for (outcome, target) in outcomes.iter().zip([3, 7, 1, 5]) {
            assert!(outcome.stats.completed);
            assert_eq!(outcome.stats.steps, target);
            assert_eq!(outcome.report, target);
            assert_eq!(outcome.stats.hibernations, 0);
            assert_eq!(outcome.stats.rehydrations, 0);
            assert_eq!(outcome.stats.hibernate_wall, Duration::ZERO);
            // Every step landed in the latency histogram.
            assert_eq!(outcome.stats.latency.count() as usize, target);
        }
        let fleet = fleet_latency(&outcomes);
        assert_eq!(fleet.count(), 3 + 7 + 1 + 5);
        assert!(fleet.p50() <= fleet.p999());
    }

    #[test]
    fn rounds_are_fair() {
        // With round-robin, after the log's first 2N entries every live
        // session has stepped exactly twice.
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut scheduler = SessionScheduler::new(3);
        for id in 0..4 {
            scheduler.add_session(format!("s{id}"), counter(id, 6, &log));
        }
        scheduler.run();
        let log = log.lock().unwrap();
        for round in 0..6 {
            let mut ids: Vec<usize> = log[round * 4..(round + 1) * 4].to_vec();
            ids.sort_unstable();
            assert_eq!(ids, vec![0, 1, 2, 3], "round {round} not fair: {log:?}");
        }
    }

    #[test]
    fn graceful_shutdown_yields_partial_reports() {
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut scheduler = SessionScheduler::new(2);
        let handle = scheduler.shutdown_handle();
        let mut first = counter(0, 1000, &log);
        // The first session requests shutdown on its first step.
        first.on_step = Some(handle);
        scheduler.add_session("canceller", first);
        scheduler.add_session("long", counter(1, 1000, &log));
        let outcomes = scheduler.run();
        assert_eq!(outcomes.len(), 2);
        for outcome in &outcomes {
            assert!(!outcome.stats.completed);
            assert!(outcome.stats.steps >= 1);
            assert!(outcome.stats.steps < 1000, "shutdown was not graceful");
            assert_eq!(outcome.report, outcome.stats.steps);
        }
    }

    #[test]
    fn empty_scheduler_returns_no_outcomes() {
        let scheduler: SessionScheduler<Counter> = SessionScheduler::new(1);
        assert!(scheduler.run().is_empty());
    }

    #[test]
    fn non_hibernatable_sessions_are_never_evicted() {
        // Counters use the default (unsupported) hibernate: a residency
        // budget must not stall or drop them.
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut scheduler = SessionScheduler::new(2);
        scheduler.set_eviction_policy(
            EvictionPolicy::new(test_dir("never-evict")).with_max_resident_sessions(1),
        );
        for id in 0..3 {
            scheduler.add_session(format!("s{id}"), counter(id, 4, &log));
        }
        let outcomes = scheduler.run();
        for outcome in &outcomes {
            assert!(outcome.stats.completed);
            assert_eq!(outcome.stats.steps, 4);
            assert_eq!(outcome.stats.hibernations, 0);
        }
    }

    // -- Hibernatable test session ------------------------------------------

    /// Tracks global residency so tests can assert the budget held at
    /// every observation point.
    struct Spillable {
        count: usize,
        target: usize,
        resident: Arc<std::sync::Mutex<ResidencyProbe>>,
        bytes: usize,
    }

    #[derive(Default)]
    struct ResidencyProbe {
        /// Live (unfinished) sessions currently resident.
        resident_now: usize,
        /// Whether any hibernation has happened yet (all sessions start
        /// resident, so the watermark arms at the first spill).
        armed: bool,
        /// Peak live residency observed since the first hibernation.
        peak_since_first_spill: usize,
    }

    impl Spillable {
        fn new(target: usize, bytes: usize, probe: &Arc<std::sync::Mutex<ResidencyProbe>>) -> Self {
            probe.lock().unwrap().resident_now += 1;
            Self {
                count: 0,
                target,
                resident: Arc::clone(probe),
                bytes,
            }
        }
    }

    impl Session for Spillable {
        type Report = usize;

        fn step(&mut self) -> SessionStatus {
            self.count += 1;
            if self.count >= self.target {
                // A finished session leaves the scheduler's residency
                // accounting; mirror that in the probe.
                self.resident.lock().unwrap().resident_now -= 1;
                SessionStatus::Finished
            } else {
                SessionStatus::Running
            }
        }

        fn finish(self) -> usize {
            self.count
        }

        fn resident_bytes(&self) -> usize {
            self.bytes
        }

        fn hibernate(&mut self, path: &Path) -> Result<(), SessionIoError> {
            std::fs::write(path, self.count.to_le_bytes())?;
            let mut p = self.resident.lock().unwrap();
            p.resident_now -= 1;
            p.armed = true;
            // Model the memory release: the count lives on disk now.
            self.count = usize::MAX;
            Ok(())
        }

        fn rehydrate(&mut self, path: &Path) -> Result<(), SessionIoError> {
            let bytes = std::fs::read(path)?;
            let arr: [u8; 8] = bytes
                .try_into()
                .map_err(|_| SessionIoError::Snapshot("bad spill file".into()))?;
            self.count = usize::from_le_bytes(arr);
            let mut p = self.resident.lock().unwrap();
            p.resident_now += 1;
            if p.armed {
                p.peak_since_first_spill = p.peak_since_first_spill.max(p.resident_now);
            }
            Ok(())
        }
    }

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rtgs-sched-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn residency_budget_is_respected_and_all_complete() {
        let probe = Arc::new(std::sync::Mutex::new(ResidencyProbe::default()));
        let mut scheduler = SessionScheduler::new(2);
        scheduler.set_eviction_policy(
            EvictionPolicy::new(test_dir("budget")).with_max_resident_sessions(2),
        );
        for _ in 0..5 {
            scheduler.add_session("spillable", Spillable::new(4, 0, &probe));
        }
        let outcomes = scheduler.run();
        assert_eq!(outcomes.len(), 5);
        let mut total_hibernations = 0;
        for outcome in &outcomes {
            assert!(outcome.stats.completed);
            assert_eq!(outcome.stats.steps, 4);
            assert_eq!(outcome.report, 4, "state lost across hibernation");
            total_hibernations += outcome.stats.hibernations;
        }
        assert!(
            total_hibernations > 0,
            "a 2-resident budget over 5 sessions must hibernate someone"
        );
        // Spill I/O is accounted: every hibernation has a matching wall
        // charge, and rehydrations bring each parked session back.
        for outcome in &outcomes {
            if outcome.stats.hibernations > 0 {
                assert!(outcome.stats.rehydrations > 0);
                assert!(outcome.stats.hibernate_wall > Duration::ZERO);
                assert!(outcome.stats.rehydrate_wall > Duration::ZERO);
            } else {
                assert_eq!(outcome.stats.rehydrate_wall, Duration::ZERO);
            }
        }
        // The property the test is named for: once eviction kicked in,
        // live residency never exceeded the 2-session budget — the
        // just-in-time rehydration clears a slot *before* bringing a
        // session back, so the cap holds mid-round, not just at round
        // boundaries.
        let p = probe.lock().unwrap();
        assert!(p.armed, "watermark never armed despite hibernations");
        assert!(
            p.peak_since_first_spill <= 2,
            "live residency peaked at {} under a 2-session budget",
            p.peak_since_first_spill
        );
        assert_eq!(p.resident_now, 0, "all sessions finished");
    }

    #[test]
    fn memory_budget_triggers_eviction() {
        let probe = Arc::new(std::sync::Mutex::new(ResidencyProbe::default()));
        let mut scheduler = SessionScheduler::new(2);
        scheduler.set_eviction_policy(
            EvictionPolicy::new(test_dir("membudget")).with_max_resident_bytes(250),
        );
        for _ in 0..3 {
            // 3 x 100 bytes > 250: at least one session must spill.
            scheduler.add_session("hundred", Spillable::new(3, 100, &probe));
        }
        let outcomes = scheduler.run();
        let total: usize = outcomes.iter().map(|o| o.stats.hibernations).sum();
        assert!(total > 0, "memory budget never triggered");
        for outcome in &outcomes {
            assert!(outcome.stats.completed);
            assert_eq!(outcome.report, 3);
        }
        // Rehydration reserves the parked session's bytes before bringing
        // it back, so 3 × 100-byte sessions never exceed the 250-byte
        // budget once eviction is active (2 × 100 = 200 is the ceiling).
        let p = probe.lock().unwrap();
        assert!(
            p.peak_since_first_spill <= 2,
            "byte budget violated mid-round: {} sessions resident",
            p.peak_since_first_spill
        );
    }

    #[test]
    fn shutdown_while_hibernated_still_reports() {
        let probe = Arc::new(std::sync::Mutex::new(ResidencyProbe::default()));
        let mut scheduler = SessionScheduler::new(2);
        scheduler.set_eviction_policy(
            EvictionPolicy::new(test_dir("shutdown")).with_max_resident_sessions(1),
        );
        let handle = scheduler.shutdown_handle();
        for _ in 0..3 {
            scheduler.add_session("spillable", Spillable::new(100, 0, &probe));
        }
        // Stop after a couple of rounds, while at least one session is
        // parked on disk.
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            handle.shutdown();
        });
        let outcomes = scheduler.run();
        for outcome in &outcomes {
            // Hibernated sessions were rehydrated before finish: the
            // report reflects their true step count, not the spilled
            // placeholder.
            assert_eq!(outcome.report, outcome.stats.steps);
        }
    }
}
