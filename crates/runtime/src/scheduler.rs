//! Multi-session serving: round-robin scheduling of N concurrent stepwise
//! workloads over one thread pool, with optional hibernate-to-disk
//! eviction under a residency or memory budget.
//!
//! A [`Session`] is any incrementally-steppable workload (one SLAM frame per
//! step, in the `rtgs-slam` adapter). The [`SessionScheduler`] advances all
//! live sessions one step per *round*, running the steps of a round
//! concurrently on the pool. The per-round barrier is the fairness
//! guarantee: no tenant ever runs more than one step ahead of another, which
//! is the round-robin frame scheduling a multi-tenant serving substrate
//! needs. Steps fan their chunked loops out onto the *same* pool — a
//! `Parallel` backend publishes on the pool that is stepping the session,
//! whatever pool it names itself — so a frame borrows the executors that
//! are idle and never brings threads of its own. The thread that waits at
//! the round barrier is one of them: with no step of its own round left to
//! take, it runs *chunks* of the steps still in flight, one at a time —
//! never another session's step, which would run outside that round's
//! bookkeeping — and so fills the tail of an unbalanced round.
//!
//! # Eviction
//!
//! With an [`EvictionPolicy`] attached, the scheduler keeps at most
//! `max_resident_sessions` sessions (and at most `max_resident_bytes` of
//! reported session memory) resident: when the budget is exceeded, the
//! **coldest** session — least-recently stepped, ties broken by insertion
//! order — is asked to [`Session::hibernate`] to a spill file. A
//! hibernated session is transparently [`Session::rehydrate`]d right
//! before its next step (its steps run one at a time, after the resident
//! round, so the budget holds throughout the round, not just between
//! rounds). Sessions whose `hibernate` reports unsupported are never
//! evicted. Hibernation must not change results: a session that was
//! evicted and rehydrated produces the same report as one that stayed
//! resident (asserted end-to-end in `rtgs-slam`'s serving tests).
//!
//! # Open-loop readiness
//!
//! Under the [`ingest`](crate::ingest) front-end, sessions are driven by
//! frames arriving in bounded inboxes rather than an always-ready dataset.
//! The scheduler consults [`Session::ready`] before every round: a session
//! with nothing to do **parks** — it is not stepped, consumes no pool job,
//! and records no latency sample. When *no* session is ready, the scheduler
//! blocks on the hub's [`WorkSignal`](crate::ingest::WorkSignal) instead of
//! spinning, waking as soon as any producer delivers a frame. Admission of
//! new sessions goes through [`SessionScheduler::try_admit`], which rejects
//! with a typed [`AdmissionError`] instead of silently overcommitting.

use crate::ingest::{AdmissionError, IngestHub, IngestStats};
use crate::pool::ThreadPool;
use rtgs_telemetry::{
    journal_record, Counter, EventKind, Gauge, HealthReport, Histogram, HistogramSnapshot,
    SnapshotWriter, SpanGuard,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Progress state returned by [`Session::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// The session has more work; it will be stepped again next round.
    Running,
    /// The session had nothing to do (e.g. its inbox was empty): the step
    /// was a no-op and is not counted or latency-sampled. Prefer returning
    /// `false` from [`Session::ready`] so the scheduler never spends a pool
    /// job finding out; `Idle` is the in-step fallback for races.
    Idle,
    /// The session is complete; it will not be stepped again.
    Finished,
}

/// Typed failure of a session's spill I/O hooks, replacing the former
/// stringly `Result<(), String>` so callers can branch on the cause and
/// error sources are preserved.
#[derive(Debug)]
#[non_exhaustive]
pub enum SessionIoError {
    /// The session does not implement hibernation; the scheduler
    /// permanently exempts it from eviction.
    Unsupported(&'static str),
    /// The spill file could not be read or written.
    Io(std::io::Error),
    /// The session's snapshot layer failed (wraps e.g. `rtgs-snapshot`'s
    /// `SnapshotError`).
    Snapshot(Box<dyn std::error::Error + Send + Sync>),
}

impl std::fmt::Display for SessionIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Unsupported(what) => write!(f, "unsupported: {what}"),
            Self::Io(e) => write!(f, "spill i/o failed: {e}"),
            Self::Snapshot(e) => write!(f, "snapshot failed: {e}"),
        }
    }
}

impl std::error::Error for SessionIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Unsupported(_) => None,
            Self::Io(e) => Some(e),
            Self::Snapshot(e) => Some(e.as_ref()),
        }
    }
}

impl From<std::io::Error> for SessionIoError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// An incrementally-steppable workload that yields a report when done.
pub trait Session: Send {
    /// The result produced once the session ends (naturally or by
    /// shutdown).
    type Report: Send;

    /// Advances the session by one unit of work (e.g. one frame).
    fn step(&mut self) -> SessionStatus;

    /// Consumes the session into its report. Called after the session
    /// finished, or early on graceful shutdown (reports then cover the work
    /// done so far).
    fn finish(self) -> Self::Report;

    /// Whether the session has work available right now. A session
    /// returning `false` is **parked** for the round: not stepped, no pool
    /// job, no latency sample. The default (`true`) preserves closed-loop
    /// behavior, where the next unit of work is always available.
    ///
    /// Open-loop sessions report their inbox state here
    /// (frame queued, or stream drained and a final `Finished` step due).
    fn ready(&self) -> bool {
        true
    }

    /// Open-loop ingestion counters for this session, surfaced in
    /// [`SessionStats::ingest`]. `None` (the default) for closed-loop
    /// sessions.
    fn ingest_stats(&self) -> Option<IngestStats> {
        None
    }

    /// Approximate bytes of resident heavy state, summed against
    /// [`EvictionPolicy::max_resident_bytes`]. `0` (the default) means
    /// unknown/negligible.
    fn resident_bytes(&self) -> usize {
        0
    }

    /// Spills the session's heavy state to `path` and releases the
    /// memory. The default reports [`SessionIoError::Unsupported`], which
    /// permanently exempts the session from eviction.
    ///
    /// # Errors
    ///
    /// A typed [`SessionIoError`]; the scheduler marks the session
    /// non-evictable and moves on.
    fn hibernate(&mut self, _path: &Path) -> Result<(), SessionIoError> {
        Err(SessionIoError::Unsupported(
            "session does not support hibernation",
        ))
    }

    /// Reloads state spilled by [`Session::hibernate`]. Only called on a
    /// session the scheduler hibernated earlier.
    ///
    /// # Errors
    ///
    /// A typed [`SessionIoError`]; the scheduler treats a rehydration
    /// failure as fatal for the run (state on disk is the only copy) and
    /// panics.
    fn rehydrate(&mut self, _path: &Path) -> Result<(), SessionIoError> {
        Err(SessionIoError::Unsupported(
            "session does not support rehydration",
        ))
    }

    /// Primary→follower replication counters for this session, surfaced in
    /// [`SessionStats::replication`]. `None` (the default) for sessions
    /// that do not replicate.
    fn replication_stats(&self) -> Option<ReplicationStats> {
        None
    }

    /// Flushes the session's replication stream — pump until every
    /// outstanding record is acknowledged (or typed-fails) and the stream's
    /// durable journal, if any, is fsynced. Called by the scheduler at
    /// shutdown **before** [`Session::finish`], so the final stats satisfy
    /// `frames_processed == frames_replicated + frames_dropped_by_policy`.
    /// The default (non-replicating session) is a no-op.
    ///
    /// # Errors
    ///
    /// A typed [`SessionIoError`]; the scheduler counts the failure
    /// (`serve.replication.drain_failures`) and still collects the report.
    fn drain_replication(&mut self) -> Result<(), SessionIoError> {
        Ok(())
    }
}

/// Primary-side replication counters for one session, as captured at
/// collection time (see [`Session::replication_stats`]).
///
/// The accounting identity a drained shutdown guarantees:
/// `frames_processed == frames_replicated + frames_dropped_by_policy`,
/// with `frames_behind == 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Frames whose state the follower has acknowledged (covered by acked
    /// base/delta records).
    pub frames_replicated: u64,
    /// Frames deliberately not replicated by the stream's policy (e.g. a
    /// capture stride), counted so frame accounting still balances.
    pub frames_dropped_by_policy: u64,
    /// Frames captured but not yet acknowledged — the follower's lag.
    pub frames_behind: u64,
    /// Encoded record bytes currently in flight (sent, unacknowledged).
    pub bytes_queued: u64,
    /// Stream records sent, including retransmits.
    pub records_sent: u64,
    /// Stream records acknowledged by the follower.
    pub records_acked: u64,
    /// Records retransmitted after an ack timeout.
    pub retransmits: u64,
    /// Fresh-base resyncs after a broken delta chain.
    pub resyncs: u64,
    /// Current resync epoch.
    pub epoch: u32,
}

/// Residency budget driving hibernate-to-disk eviction.
///
/// `#[non_exhaustive]`: construct via [`EvictionPolicy::new`] plus the
/// `with_*` builders, so future budget knobs are non-breaking.
#[derive(Debug, Clone)]
#[must_use = "attach the policy with ServeBuilder::eviction"]
#[non_exhaustive]
pub struct EvictionPolicy {
    /// Maximum sessions resident at once (`None` = unlimited). Values
    /// below 1 are treated as 1 — something must be resident to step.
    pub max_resident_sessions: Option<usize>,
    /// Maximum summed [`Session::resident_bytes`] (`None` = unlimited).
    pub max_resident_bytes: Option<usize>,
    /// Directory spill files are written to (created on first use).
    pub spill_dir: PathBuf,
}

impl EvictionPolicy {
    /// An unlimited policy spilling into `spill_dir`; combine with the
    /// `with_*` builders to set budgets.
    pub fn new(spill_dir: impl Into<PathBuf>) -> Self {
        Self {
            max_resident_sessions: None,
            max_resident_bytes: None,
            spill_dir: spill_dir.into(),
        }
    }

    /// Caps the number of resident sessions.
    pub fn with_max_resident_sessions(mut self, n: usize) -> Self {
        self.max_resident_sessions = Some(n);
        self
    }

    /// Caps the summed resident bytes reported by the sessions.
    pub fn with_max_resident_bytes(mut self, bytes: usize) -> Self {
        self.max_resident_bytes = Some(bytes);
        self
    }

    fn spill_path(&self, session: usize) -> PathBuf {
        self.spill_dir.join(format!("session-{session}.snap"))
    }
}

/// Per-session scheduling statistics.
#[derive(Debug, Clone)]
pub struct SessionStats {
    /// Index of the session in scheduler insertion order.
    pub session: usize,
    /// Caller-provided label.
    pub label: String,
    /// Steps executed.
    pub steps: usize,
    /// Wall-clock summed over this session's steps (steps of different
    /// sessions overlap, so these sum to more than the scheduler's
    /// wall-clock when serving in parallel).
    pub wall: Duration,
    /// Whether the session ran to natural completion (`false` when a
    /// shutdown stopped it early).
    pub completed: bool,
    /// Times this session was hibernated to disk by the eviction policy.
    pub hibernations: usize,
    /// Times this session was rehydrated from disk.
    pub rehydrations: usize,
    /// Wall-clock spent writing this session's spill files (I/O that would
    /// otherwise vanish from per-session accounting — it happens outside
    /// the step window).
    pub hibernate_wall: Duration,
    /// Wall-clock spent reading this session's spill files back.
    pub rehydrate_wall: Duration,
    /// Rounds this session was parked for lack of work (not ready, or a
    /// step that returned [`SessionStatus::Idle`]). Parked rounds consume
    /// no pool jobs and record no latency samples.
    pub idle_rounds: usize,
    /// Open-loop ingestion counters (offered/processed/dropped/degraded and
    /// end-to-end frame latency); `None` for closed-loop sessions.
    pub ingest: Option<IngestStats>,
    /// Primary-side replication counters, sampled after the shutdown drain;
    /// `None` for sessions that do not replicate.
    pub replication: Option<ReplicationStats>,
    /// Per-step latency distribution (nanoseconds), for p50/p99/p999
    /// extraction; merge across sessions with [`fleet_latency`].
    pub latency: HistogramSnapshot,
    /// Aggregated health verdict for the session (ingest backlog, shed
    /// state, replication lag, resident footprint vs. budget), for the
    /// flight recorder and operator dashboards.
    pub health: HealthReport,
}

/// Merges every outcome's per-session step-latency histogram into one
/// fleet-wide distribution.
pub fn fleet_latency<R>(outcomes: &[SessionOutcome<R>]) -> HistogramSnapshot {
    let mut fleet = HistogramSnapshot::empty();
    for outcome in outcomes {
        fleet.merge(&outcome.stats.latency);
    }
    fleet
}

/// A finished session: its stats plus the report it produced.
#[derive(Debug)]
pub struct SessionOutcome<R> {
    /// Scheduling statistics.
    pub stats: SessionStats,
    /// The session's report.
    pub report: R,
}

/// Cloneable handle requesting a graceful stop: in-flight steps complete,
/// no new rounds start, and every session still yields a report.
#[derive(Debug, Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Requests the stop.
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether a stop has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

struct Entry<S> {
    session: S,
    label: String,
    steps: usize,
    wall: Duration,
    done: bool,
    /// Heavy state currently spilled to disk.
    hibernated: bool,
    /// Bytes the session reported just before its last hibernation — the
    /// headroom a just-in-time rehydration must clear first.
    parked_bytes: usize,
    /// `false` once a hibernate attempt reported unsupported/failed.
    evictable: bool,
    /// Round of the most recent step (coldness metric; ties broken by
    /// insertion index).
    last_stepped_round: u64,
    /// Rounds skipped because the session had no work.
    idle_rounds: usize,
    /// Readiness sampled once at the top of the current round, so the
    /// park decision and the spawn filter agree.
    ready_now: bool,
    hibernations: usize,
    rehydrations: usize,
    hibernate_wall: Duration,
    rehydrate_wall: Duration,
    /// Whether the shutdown replication drain failed for this session
    /// (surfaces as a Critical health verdict).
    drain_failed: bool,
    /// Per-step latency in nanoseconds (pre-sized buckets; recording from a
    /// pool worker is wait-free and allocation-free).
    latency: Histogram,
}

impl<S> Entry<S> {
    #[inline]
    fn record_step(&mut self, elapsed: Duration, round: u64) {
        self.wall += elapsed;
        self.latency.record(elapsed.as_nanos() as u64);
        self.steps += 1;
        self.last_stepped_round = round;
    }
}

/// Fleet-wide metric handles resolved once from the global registry.
struct SchedulerMetrics {
    step_ns: Arc<Histogram>,
    steps: Arc<Counter>,
    /// Live sessions parked (no work) as of the latest round.
    idle_sessions: Arc<Gauge>,
    hibernations: Arc<Counter>,
    rehydrations: Arc<Counter>,
    hibernate_ns: Arc<Counter>,
    rehydrate_ns: Arc<Counter>,
    pool_jobs: Arc<Gauge>,
    pool_steals: Arc<Gauge>,
    pool_parks: Arc<Gauge>,
}

impl SchedulerMetrics {
    fn from_global() -> Self {
        let registry = rtgs_telemetry::global();
        Self {
            step_ns: registry.histogram("serve.step_ns"),
            steps: registry.counter("serve.steps"),
            idle_sessions: registry.gauge("serve.idle_sessions"),
            hibernations: registry.counter("serve.hibernate.count"),
            rehydrations: registry.counter("serve.rehydrate.count"),
            hibernate_ns: registry.counter("serve.hibernate.ns"),
            rehydrate_ns: registry.counter("serve.rehydrate.ns"),
            pool_jobs: registry.gauge("pool.jobs"),
            pool_steals: registry.gauge("pool.steals"),
            pool_parks: registry.gauge("pool.parks"),
        }
    }
}

/// Serves N sessions concurrently over one pool with round-robin fairness.
pub struct SessionScheduler<S: Session> {
    pool: Arc<ThreadPool>,
    sessions: Vec<Entry<S>>,
    stop: Arc<AtomicBool>,
    policy: Option<EvictionPolicy>,
    ingest: Option<IngestHub>,
    metrics: SchedulerMetrics,
    snapshot_writer: Option<SnapshotWriter>,
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
            snapshot_writer: None,
        }
    }

    /// Attaches a hibernate-to-disk eviction policy (see the module docs).
    pub(crate) fn set_eviction_policy(&mut self, policy: EvictionPolicy) {
        self.policy = Some(policy);
    }

    /// Attaches the open-loop ingestion hub: the scheduler parks on the
    /// hub's [`WorkSignal`](crate::ingest::WorkSignal) when no session is
    /// ready, and [`try_admit`](Self::try_admit) enforces the hub's
    /// session cap.
    pub(crate) fn set_ingest(&mut self, hub: &IngestHub) {
        self.ingest = Some(hub.clone());
    }

    /// Attaches a periodic telemetry-snapshot writer: the global registry is
    /// exported to the writer's path between rounds (rate-limited by the
    /// writer's interval) and once more on shutdown.
    pub(crate) fn set_snapshot_writer(&mut self, writer: SnapshotWriter) {
        self.snapshot_writer = Some(writer);
    }

    /// Mirrors the pool's scheduling counters into the global registry so
    /// exports carry worker utilization alongside session latency.
    fn export_pool_stats(&self) {
        let stats = self.pool.stats();
        self.metrics.pool_jobs.set(stats.jobs as i64);
        self.metrics.pool_steals.set(stats.steals as i64);
        self.metrics.pool_parks.set(stats.parks as i64);
    }

    /// Registers a session; returns its index (stable in the output).
    pub fn add_session(&mut self, label: impl Into<String>, session: S) -> usize {
        self.sessions.push(Entry {
            session,
            label: label.into(),
            steps: 0,
            wall: Duration::ZERO,
            done: false,
            hibernated: false,
            parked_bytes: 0,
            evictable: true,
            last_stepped_round: 0,
            idle_rounds: 0,
            ready_now: true,
            hibernations: 0,
            rehydrations: 0,
            hibernate_wall: Duration::ZERO,
            rehydrate_wall: Duration::ZERO,
            drain_failed: false,
            latency: Histogram::new(),
        });
        self.sessions.len() - 1
    }

    /// Admission-controlled [`add_session`](Self::add_session): the session
    /// is checked against the ingest hub's concurrent-session cap and the
    /// eviction policy's resident-byte budget before registration.
    ///
    /// # Errors
    ///
    /// Returns the typed rejection reason **and the session back** —
    /// scheduler state is untouched, so the caller can retry later, shrink
    /// the session, or route it to another scheduler.
    pub fn try_admit(
        &mut self,
        label: impl Into<String>,
        session: S,
    ) -> Result<usize, (AdmissionError, S)> {
        if let Some(limit) = self
            .ingest
            .as_ref()
            .and_then(|hub| hub.config().max_sessions)
        {
            let admitted = self.sessions.iter().filter(|e| !e.done).count();
            if admitted >= limit {
                journal_record(
                    EventKind::AdmissionReject,
                    self.sessions.len() as u32,
                    0,
                    0,
                    admitted as u64,
                );
                return Err((AdmissionError::SessionLimit { limit, admitted }, session));
            }
        }
        if let Some(limit) = self.policy.as_ref().and_then(|p| p.max_resident_bytes) {
            let requested = session.resident_bytes();
            // Live residency, polled at admission time — sessions grow past
            // their at-admission estimates, so the budget check must see
            // what they occupy *now*, not what they claimed when admitted.
            let resident: usize = self
                .sessions
                .iter()
                .filter(|e| !e.done && !e.hibernated)
                .map(|e| e.session.resident_bytes())
                .sum();
            // A session larger than the whole byte budget could never be
            // made resident — even alone — so it can never be stepped; and
            // one that does not fit beside the current residents would
            // immediately blow the budget the eviction policy enforces.
            if requested > limit || resident.saturating_add(requested) > limit {
                journal_record(
                    EventKind::AdmissionReject,
                    self.sessions.len() as u32,
                    0,
                    0,
                    resident as u64,
                );
                return Err((
                    AdmissionError::ResidentBytes {
                        limit,
                        requested,
                        resident,
                    },
                    session,
                ));
            }
        }
        Ok(self.add_session(label, session))
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

    /// Sessions currently resident (live and not hibernated).
    fn resident_count(&self) -> usize {
        self.sessions
            .iter()
            .filter(|e| !e.done && !e.hibernated)
            .count()
    }

    /// Hibernates coldest-first until the policy's budgets hold, keeping
    /// `reserve_sessions` residency slots and `reserve_bytes` of memory
    /// headroom free for an imminent rehydration. Stops early when nothing
    /// evictable remains.
    fn enforce_budget(&mut self, reserve_sessions: usize, reserve_bytes: usize) {
        let Some(policy) = self.policy.clone() else {
            return;
        };
        // With a rehydration imminent (a non-zero reserve) residency may
        // drop to zero — the incoming session fills the slot. Otherwise
        // keep at least one session resident so the round can make
        // progress.
        let min_keep = usize::from(reserve_sessions == 0 && reserve_bytes == 0);
        loop {
            let resident = self.resident_count();
            let over_sessions = policy
                .max_resident_sessions
                .is_some_and(|m| resident + reserve_sessions > m.max(1));
            let bytes: usize = self
                .sessions
                .iter()
                .filter(|e| !e.done && !e.hibernated)
                .map(|e| e.session.resident_bytes())
                .sum();
            let over_bytes = policy
                .max_resident_bytes
                .is_some_and(|m| bytes.saturating_add(reserve_bytes) > m);
            if !(over_sessions || over_bytes) || resident <= min_keep {
                return;
            }
            // Coldest evictable resident session: least-recently stepped,
            // ties broken by insertion index.
            let Some(coldest) = self
                .sessions
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.done && !e.hibernated && e.evictable)
                .min_by_key(|(i, e)| (e.last_stepped_round, *i))
                .map(|(i, _)| i)
            else {
                return;
            };
            let path = policy.spill_path(coldest);
            let entry = &mut self.sessions[coldest];
            let bytes_before = entry.session.resident_bytes();
            let _span = SpanGuard::new("serve.hibernate", "io", coldest as u64);
            let t0 = Instant::now();
            match entry.session.hibernate(&path) {
                Ok(()) => {
                    let elapsed = t0.elapsed();
                    entry.hibernated = true;
                    entry.parked_bytes = bytes_before;
                    entry.hibernations += 1;
                    entry.hibernate_wall += elapsed;
                    self.metrics.hibernations.incr();
                    self.metrics.hibernate_ns.add(elapsed.as_nanos() as u64);
                    // Budget-forced eviction and its successful spill: two
                    // journal entries so the bundle shows cause and effect.
                    journal_record(EventKind::Evict, coldest as u32, 0, 0, bytes as u64);
                    journal_record(
                        EventKind::Hibernate,
                        coldest as u32,
                        0,
                        0,
                        bytes_before as u64,
                    );
                }
                Err(_) => {
                    // Unsupported (or failed) — permanently exempt so the
                    // loop converges instead of retrying every round.
                    entry.evictable = false;
                }
            }
        }
    }

    fn rehydrate(&mut self, idx: usize) {
        let policy = self
            .policy
            .clone()
            .expect("hibernated sessions only exist under a policy");
        let path = policy.spill_path(idx);
        let entry = &mut self.sessions[idx];
        let _span = SpanGuard::new("serve.rehydrate", "io", idx as u64);
        let t0 = Instant::now();
        if let Err(e) = entry.session.rehydrate(&path) {
            // The spill file is the only copy of the session's state; not
            // being able to read it back is unrecoverable for this run.
            panic!(
                "failed to rehydrate session {idx} ('{}') from {}: {e}",
                entry.label,
                path.display()
            );
        }
        let elapsed = t0.elapsed();
        entry.hibernated = false;
        entry.rehydrations += 1;
        entry.rehydrate_wall += elapsed;
        self.metrics.rehydrations.incr();
        self.metrics.rehydrate_ns.add(elapsed.as_nanos() as u64);
        journal_record(
            EventKind::Rehydrate,
            idx as u32,
            0,
            0,
            elapsed.as_nanos() as u64,
        );
    }

    /// Runs all sessions to completion (or until shutdown), returning one
    /// outcome per session in insertion order.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of any session step; panics when a
    /// hibernated session cannot be rehydrated (its spill file is the only
    /// copy of its state) or the spill directory cannot be created.
    pub fn run(self) -> Vec<SessionOutcome<S::Report>> {
        // Everything this thread does for its sessions from here on — the
        // steps it takes in a round, the steps of rehydrated sessions, the
        // final `finish()` (a SLAM report renders) — is this pool's work:
        // chunked loops started inside are published on it.
        let pool = Arc::clone(&self.pool);
        pool.run_as_job(|| self.serve())
    }

    fn serve(mut self) -> Vec<SessionOutcome<S::Report>> {
        if let Some(policy) = &self.policy {
            std::fs::create_dir_all(&policy.spill_dir).unwrap_or_else(|e| {
                panic!(
                    "cannot create spill directory {}: {e}",
                    policy.spill_dir.display()
                )
            });
        }
        let mut round: u64 = 0;
        while !self.stop.load(Ordering::SeqCst) && self.sessions.iter().any(|entry| !entry.done) {
            round += 1;
            // Readiness scan: sample each live session once so the park
            // decision and the spawn filter agree within the round. The
            // ingest signal version is captured *before* the scan — a frame
            // delivered after its session was scanned bumps the version, so
            // the park-wait below returns immediately instead of sleeping
            // through the delivery.
            let seen = self.ingest.as_ref().map(|hub| hub.signal().version());
            let mut live = 0usize;
            let mut idle = 0usize;
            for entry in self.sessions.iter_mut().filter(|e| !e.done) {
                live += 1;
                entry.ready_now = entry.session.ready();
                if !entry.ready_now {
                    entry.idle_rounds += 1;
                    idle += 1;
                }
            }
            self.metrics.idle_sessions.set(idle as i64);

            // Phase 1: every *ready* resident live session advances one
            // step; the steps run concurrently on the pool. Parked sessions
            // spawn no pool job at all.
            let fleet_step_ns: &Histogram = &self.metrics.step_ns;
            let fleet_steps: &Counter = &self.metrics.steps;
            self.pool.scope(|scope| {
                for (idx, entry) in self
                    .sessions
                    .iter_mut()
                    .enumerate()
                    .filter(|(_, entry)| !entry.done && !entry.hibernated && entry.ready_now)
                {
                    scope.spawn(move || {
                        let _span = SpanGuard::new("serve.step", "session", idx as u64);
                        let t0 = Instant::now();
                        let status = entry.session.step();
                        let elapsed = t0.elapsed();
                        match status {
                            SessionStatus::Idle => {
                                // The readiness probe raced a consumer: the
                                // no-op is not a step and takes no sample.
                                entry.idle_rounds += 1;
                            }
                            SessionStatus::Running | SessionStatus::Finished => {
                                entry.record_step(elapsed, round);
                                fleet_step_ns.record(elapsed.as_nanos() as u64);
                                fleet_steps.incr();
                                if status == SessionStatus::Finished {
                                    entry.done = true;
                                }
                            }
                        }
                    });
                }
            });

            // Phase 2: hibernated live sessions step one at a time, each
            // rehydrated just-in-time with the budget enforced before (make
            // room) and after (spill the new coldest) — so residency never
            // exceeds the budget mid-round.
            let parked: Vec<usize> = self
                .sessions
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.done && e.hibernated && e.ready_now)
                .map(|(i, _)| i)
                .collect();
            for idx in parked {
                if self.stop.load(Ordering::SeqCst) {
                    break;
                }
                // Clear a residency slot *and* the memory headroom the
                // parked session reported when it was spilled, so the byte
                // budget holds during its step, not just between rounds.
                self.enforce_budget(1, self.sessions[idx].parked_bytes);
                self.rehydrate(idx);
                let entry = &mut self.sessions[idx];
                let span = SpanGuard::new("serve.step", "session", idx as u64);
                let t0 = Instant::now();
                let status = entry.session.step();
                let elapsed = t0.elapsed();
                drop(span);
                match status {
                    SessionStatus::Idle => {
                        entry.idle_rounds += 1;
                    }
                    SessionStatus::Running | SessionStatus::Finished => {
                        entry.record_step(elapsed, round);
                        self.metrics.step_ns.record(elapsed.as_nanos() as u64);
                        self.metrics.steps.incr();
                        if status == SessionStatus::Finished {
                            entry.done = true;
                        }
                    }
                }
                self.enforce_budget(0, 0);
            }

            // Budgets may be exceeded on the very first round (every
            // session starts resident) or after sessions finished.
            self.enforce_budget(0, 0);

            if self.snapshot_writer.is_some() {
                self.export_pool_stats();
                if let Some(writer) = &mut self.snapshot_writer {
                    writer.maybe_write(rtgs_telemetry::global()).ok();
                }
            }

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

        // Collect: a hibernated session must be brought back before it can
        // report (graceful shutdown can leave sessions parked).
        let parked: Vec<usize> = self
            .sessions
            .iter()
            .enumerate()
            .filter(|(_, e)| e.hibernated)
            .map(|(i, _)| i)
            .collect();
        for idx in parked {
            self.rehydrate(idx);
        }
        if let Some(policy) = &self.policy {
            for idx in 0..self.sessions.len() {
                std::fs::remove_file(policy.spill_path(idx)).ok();
            }
        }

        // Drain replication streams before reports are taken: outstanding
        // records get acked (or typed-fail) and journals are fsynced, so
        // `frames_processed == frames_replicated + frames_dropped_by_policy`
        // holds in the final stats. Failures are counted, not fatal — the
        // report still collects.
        let drain_failures = rtgs_telemetry::global().counter("serve.replication.drain_failures");
        for entry in &mut self.sessions {
            if entry.session.drain_replication().is_err() {
                drain_failures.incr();
                entry.drain_failed = true;
            }
        }

        // Shutdown dump: one final registry export with fresh pool stats —
        // after the replication drain, so follower-lag gauges are settled.
        self.export_pool_stats();
        if let Some(writer) = &mut self.snapshot_writer {
            writer.write_now(rtgs_telemetry::global()).ok();
        }

        let budget_bytes = self
            .policy
            .as_ref()
            .and_then(|p| p.max_resident_bytes)
            .map(|b| b as u64);
        self.sessions
            .into_iter()
            .enumerate()
            .map(|(session, entry)| {
                let ingest = entry.session.ingest_stats();
                let replication = entry.session.replication_stats();
                let mut health = HealthReport::new(entry.label.clone());
                if let Some(ing) = &ingest {
                    health.ingest_backlog = ing
                        .offered
                        .saturating_sub(ing.processed)
                        .saturating_sub(ing.dropped());
                    health.degraded_frames = ing.degraded;
                    health.dropped_frames = ing.dropped();
                }
                if let Some(rep) = &replication {
                    health.replication_lag_frames = rep.frames_behind;
                }
                health.replication_failed = entry.drain_failed;
                health.resident_bytes = entry.session.resident_bytes() as u64;
                health.budget_bytes = budget_bytes;
                SessionOutcome {
                    stats: SessionStats {
                        session,
                        label: entry.label,
                        steps: entry.steps,
                        wall: entry.wall,
                        completed: entry.done,
                        hibernations: entry.hibernations,
                        rehydrations: entry.rehydrations,
                        hibernate_wall: entry.hibernate_wall,
                        rehydrate_wall: entry.rehydrate_wall,
                        idle_rounds: entry.idle_rounds,
                        ingest,
                        replication,
                        latency: entry.latency.snapshot(),
                        health,
                    },
                    report: entry.session.finish(),
                }
            })
            .collect()
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
