//! Multi-session serving: round-robin dispatch of N concurrent stepwise
//! workloads over one thread pool. This module is the dispatch policy;
//! [`outcome`] (statistics, replication drain, health) is the collaborator
//! it calls.
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
mod session;

pub use outcome::{fleet_latency, SessionOutcome, SessionStats, ShutdownHandle};
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
/// step is run, from a chunk of the round.
fn step_session<S: Session>(idx: usize, entry: &mut Entry<S>, metrics: &SchedulerMetrics) {
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
            ingest: None,
            metrics: SchedulerMetrics::from_global(),
        }
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
    /// of its round ran.
    pub fn run(self) -> Vec<SessionOutcome<S::Report>> {
        // Everything this thread does for its sessions from here on — a
        // one-session round, the final `finish()` (a SLAM report renders) —
        // is this pool's work: chunked loops started inside are published
        // on it.
        let pool = Arc::clone(&self.pool);
        pool.run_as_job(|| self.serve())
    }

    fn serve(mut self) -> Vec<SessionOutcome<S::Report>> {
        // Indices of the sessions that step this round: the round's one
        // sample of readiness.
        let mut ready = Vec::with_capacity(self.sessions.len());
        while !self.stop.load(Ordering::SeqCst) && self.sessions.iter().any(|entry| !entry.done) {
            // Readiness scan. The ingest signal version is captured
            // *before* it — a frame delivered after its session was scanned
            // bumps the version, so the park-wait below returns immediately
            // instead of sleeping through the delivery.
            let seen = self.ingest.as_ref().map(|hub| hub.signal().version());
            let mut live = 0usize;
            ready.clear();
            for (idx, entry) in self.sessions.iter_mut().enumerate() {
                if entry.done {
                    continue;
                }
                live += 1;
                if entry.session.ready() {
                    ready.push(idx);
                } else {
                    entry.idle_rounds += 1;
                }
            }
            let idle = live - ready.len();
            self.metrics.idle_sessions.set(idle as i64);

            // Every ready session advances one step, as one chunk each of
            // one loop on the pool.
            let entries = SharedSlice::new(&mut self.sessions);
            let metrics = &self.metrics;
            self.pool.for_each_chunk(ready.len(), 1, &|chunk, _| {
                let idx = ready[chunk];
                // SAFETY: `ready` lists each session index once.
                let entry = unsafe { entries.get_mut(idx) };
                step_session(idx, entry, metrics);
            });

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
}
