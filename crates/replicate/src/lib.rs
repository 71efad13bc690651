//! Live session replication & crash failover on the checkpoint delta log.
//!
//! A process crash must not cost an in-flight trajectory. This crate keeps
//! a **warm standby** per session: the primary streams its
//! [`CheckpointLog`](rtgs_snapshot::CheckpointLog) — the base once, then
//! each dirty-shard delta as it is captured — over a byte-stream transport
//! to a follower, which validates (envelope CRC + sequence numbers +
//! config fingerprint), acknowledges, and applies every record into an
//! incrementally-maintained
//! [`ReplayState`](rtgs_snapshot::ReplayState). Failover is
//! [`Follower::promote`]: restore a
//! [`SlamPipeline`](rtgs_slam::SlamPipeline) from the replay's decoded
//! state — the continuation is **bitwise-identical** to the primary's,
//! because that state is what the primary compacting at the same stream
//! position would restore.
//!
//! Three layers:
//!
//! 1. **Transport** ([`transport`]) — [`ByteLink`], a
//!    minimal non-blocking byte-stream pair trait; the in-process
//!    [`duplex_pair`] now, a socket later.
//! 2. **Wire + protocol** ([`wire`], [`protocol`]) — self-synchronizing
//!    length-prefixed CRC-framed envelopes carrying records
//!    (primary→follower) and acks / resync requests (follower→primary). A
//!    record is one fixed header plus the log's base or delta container
//!    verbatim: one frame, one link checksum.
//! 3. **Roles** ([`primary`], [`follower`], [`session`]) — the
//!    [`Replicator`] drives capture/send/retransmit with capped
//!    exponential backoff, the [`Follower`] validates/applies/acks, and
//!    [`ReplicatedSession`] packages a pipeline + replicator as a
//!    [`Session`](rtgs_runtime::Session) for the serving scheduler.
//!
//! Robustness is the point, so the transport layer ships with a
//! deterministic fault-injection harness ([`fault::FaultPlan`]): seeded
//! drop / duplicate / reorder / truncate / corrupt / delay, applied at
//! frame granularity. Every failure path is typed
//! ([`ReplicationError`]) — a broken delta chain resyncs from a fresh
//! base under a bumped epoch, exhausted retries surface loudly, and
//! nothing in this crate panics on bad bytes.

pub mod fault;
pub mod follower;
pub mod primary;
pub mod protocol;
pub mod session;
pub mod transport;
pub mod wire;

pub use fault::{FaultPlan, FaultStats, FaultyLink};
pub use follower::Follower;
pub use primary::{ReplicationPolicy, Replicator};
pub use session::ReplicatedSession;
pub use transport::{duplex_pair, ByteLink, DuplexLink};

use rtgs_snapshot::SnapshotError;

/// Why replication failed — every failure path in this crate is one of
/// these, never a panic.
#[derive(Debug)]
#[non_exhaustive]
pub enum ReplicationError {
    /// Encoding or applying a snapshot record failed.
    Snapshot(SnapshotError),
    /// The transport returned an I/O error.
    Io(std::io::Error),
    /// The stream was captured under a different session configuration
    /// than the standby expects — replication would produce a follower
    /// that cannot continue the trajectory.
    FingerprintMismatch {
        /// Fingerprint the follower was standing by with.
        expected: u64,
        /// Fingerprint carried by the stream.
        found: u64,
    },
    /// A record exhausted its retransmission budget without an ack.
    RetriesExhausted {
        /// Sequence number of the abandoned record.
        seq: u64,
        /// Send attempts made.
        attempts: u32,
    },
    /// A shutdown drain stopped making progress before the stream emptied.
    DrainStalled {
        /// Records still unacknowledged when the drain gave up.
        outstanding: usize,
    },
    /// The follower has no replay state to promote from (no base record
    /// arrived yet, or the state was discarded pending a resync).
    NotPromotable {
        /// What the follower was missing.
        reason: &'static str,
    },
}

impl std::fmt::Display for ReplicationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Snapshot(e) => write!(f, "replication snapshot failure: {e}"),
            Self::Io(e) => write!(f, "replication transport failure: {e}"),
            Self::FingerprintMismatch { expected, found } => write!(
                f,
                "replication config fingerprint mismatch: standby expects \
                 {expected:#018x}, stream carries {found:#018x}"
            ),
            Self::RetriesExhausted { seq, attempts } => write!(
                f,
                "record seq {seq} unacknowledged after {attempts} attempts"
            ),
            Self::DrainStalled { outstanding } => write!(
                f,
                "shutdown drain stalled with {outstanding} records outstanding"
            ),
            Self::NotPromotable { reason } => {
                write!(f, "follower not promotable: {reason}")
            }
        }
    }
}

impl std::error::Error for ReplicationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Snapshot(e) => Some(e),
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for ReplicationError {
    fn from(e: SnapshotError) -> Self {
        Self::Snapshot(e)
    }
}

impl From<std::io::Error> for ReplicationError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}
