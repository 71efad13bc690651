//! What a serving run leaves behind: the record the scheduler keeps per
//! session, the statistics and reports it becomes, the fleet-wide metric
//! handles, and the shutdown sequence that turns one into the other —
//! replication drain, telemetry dump, health roll-up.

use super::{ReplicationStats, Session, SessionScheduler};
use crate::ingest::IngestStats;
use rtgs_telemetry::{Counter, Gauge, HealthReport, Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
    /// step that returned [`SessionStatus::Idle`](super::SessionStatus::Idle)).
    /// Parked rounds take no chunk of the round and record no latency
    /// samples.
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
pub struct ShutdownHandle(pub(super) Arc<AtomicBool>);

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

/// What the scheduler keeps per session while it serves; [`SessionStats`]
/// is what becomes of it.
pub(super) struct Entry<S> {
    pub(super) session: S,
    pub(super) label: String,
    pub(super) steps: usize,
    pub(super) wall: Duration,
    pub(super) done: bool,
    /// Heavy state currently spilled to disk.
    pub(super) hibernated: bool,
    /// Bytes the session reported just before its last hibernation — the
    /// headroom a just-in-time rehydration must clear first.
    pub(super) parked_bytes: usize,
    /// `false` once a hibernate attempt reported unsupported/failed.
    pub(super) evictable: bool,
    /// Round of the most recent step (coldness metric; ties broken by
    /// insertion index).
    pub(super) last_stepped_round: u64,
    /// Rounds skipped because the session had no work.
    pub(super) idle_rounds: usize,
    pub(super) hibernations: usize,
    pub(super) rehydrations: usize,
    pub(super) hibernate_wall: Duration,
    pub(super) rehydrate_wall: Duration,
    /// Whether the shutdown replication drain failed for this session
    /// (surfaces as a Critical health verdict).
    pub(super) drain_failed: bool,
    /// Per-step latency in nanoseconds (pre-sized buckets; recording from a
    /// pool worker is wait-free and allocation-free).
    pub(super) latency: Histogram,
}

impl<S> Entry<S> {
    pub(super) fn new(label: String, session: S) -> Self {
        Self {
            session,
            label,
            steps: 0,
            wall: Duration::ZERO,
            done: false,
            hibernated: false,
            parked_bytes: 0,
            evictable: true,
            last_stepped_round: 0,
            idle_rounds: 0,
            hibernations: 0,
            rehydrations: 0,
            hibernate_wall: Duration::ZERO,
            rehydrate_wall: Duration::ZERO,
            drain_failed: false,
            latency: Histogram::new(),
        }
    }
}

/// Fleet-wide metric handles resolved once from the global registry.
pub(super) struct SchedulerMetrics {
    pub(super) step_ns: Arc<Histogram>,
    pub(super) steps: Arc<Counter>,
    /// Live sessions parked (no work) as of the latest round.
    pub(super) idle_sessions: Arc<Gauge>,
    pub(super) hibernations: Arc<Counter>,
    pub(super) rehydrations: Arc<Counter>,
    pub(super) hibernate_ns: Arc<Counter>,
    pub(super) rehydrate_ns: Arc<Counter>,
    pool_jobs: Arc<Gauge>,
    pool_steals: Arc<Gauge>,
    pool_parks: Arc<Gauge>,
}

impl SchedulerMetrics {
    pub(super) fn from_global() -> Self {
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

impl<S: Session> SessionScheduler<S> {
    /// Mirrors the pool's scheduling counters into the global registry so
    /// exports carry worker utilization alongside session latency.
    pub(super) fn export_pool_stats(&self) {
        let stats = self.pool.stats();
        self.metrics.pool_jobs.set(stats.jobs as i64);
        self.metrics.pool_steals.set(stats.steals as i64);
        self.metrics.pool_parks.set(stats.parks as i64);
    }

    /// The shutdown sequence, after the last round: every session resident
    /// again, replication drained, telemetry dumped, one outcome per session
    /// in insertion order.
    pub(super) fn collect(mut self) -> Vec<SessionOutcome<S::Report>> {
        // A hibernated session must be brought back before it can report
        // (graceful shutdown can leave sessions parked).
        for idx in 0..self.sessions.len() {
            if self.sessions[idx].hibernated {
                self.rehydrate(idx);
            }
        }
        self.remove_spill_files();

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

        let budget_bytes = self.budget_bytes();
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
