//! What the scheduler schedules: the [`Session`] trait, the status a step
//! returns, and the typed errors and counters of its optional hooks.

use crate::ingest::IngestStats;
use std::path::Path;

/// Progress state returned by [`Session::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// The session has more work; it will be stepped again next round.
    Running,
    /// The session had nothing to do (e.g. its inbox was empty): the step
    /// was a no-op and is not counted or latency-sampled. Prefer returning
    /// `false` from [`Session::ready`] so the scheduler never spends a
    /// chunk of the round finding out; `Idle` is the in-step fallback for races.
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
    /// returning `false` is **parked** for the round: not stepped, no chunk
    /// of the round, no latency sample. The default (`true`) preserves closed-loop
    /// behavior, where the next unit of work is always available.
    ///
    /// Open-loop sessions report their inbox state here
    /// (frame queued, or stream drained and a final `Finished` step due).
    fn ready(&self) -> bool {
        true
    }

    /// Open-loop ingestion counters for this session, surfaced in
    /// [`SessionStats::ingest`](super::SessionStats::ingest). `None` (the
    /// default) for closed-loop sessions.
    fn ingest_stats(&self) -> Option<IngestStats> {
        None
    }

    /// Approximate bytes of resident heavy state, summed against
    /// [`EvictionPolicy::max_resident_bytes`](super::EvictionPolicy::max_resident_bytes).
    /// `0` (the default) means unknown/negligible.
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
    /// [`SessionStats::replication`](super::SessionStats::replication).
    /// `None` (the default) for sessions that do not replicate.
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
