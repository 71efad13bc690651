//! Incremental replay of a base + delta chain.
//!
//! A [`CheckpointLog`] is also a *stream*: the base once, then one delta
//! per capture. [`ReplayState`] is the one fold over that stream — the
//! decoded state a base and its deltas accumulate into. A log restores and
//! compacts through it, and a replication follower keeps one warm, applying
//! each delta as it arrives, so a standby is always one
//! [`ReplayState::restore`] away from a promotable pipeline.
//!
//! The payloads are the log's own base and delta containers, verbatim; how
//! they are framed, ordered and acknowledged on a link is the replication
//! crate's business (`rtgs_replicate::protocol`), not this one's.

use crate::checkpoint::{
    apply_delta, decode_channels, encode_base, Channel, CheckpointLog, META_TAG,
};
use crate::error::SnapshotError;
use crate::format::Sections;
use crate::scene::decode_state;
use rtgs_render::{SceneState, ShardedScene};

/// The decoded state a base and its deltas accumulate into: what a
/// [`CheckpointLog`] folds its chain through to restore or compact, and what
/// a replication follower keeps warm so promotion is a single restore away
/// instead of a full chain replay.
///
/// Every [`Self::apply_delta`] is validated like a restore would validate
/// it; an error leaves the state **unchanged** conceptually — callers must
/// treat any error as a broken chain and resync from a fresh base record
/// (the state may have been partially advanced and must not be trusted).
#[derive(Debug, Clone)]
pub struct ReplayState {
    state: SceneState,
    channels: Vec<Channel>,
    meta: Vec<u8>,
    records_applied: u64,
}

impl ReplayState {
    /// Starts a replay from an encoded base snapshot
    /// ([`CheckpointLog::base_bytes`]). This parse is where the base's
    /// section checksums are verified.
    ///
    /// # Errors
    ///
    /// Any container/section error of the base bytes.
    pub fn from_base(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let sections = Sections::parse(bytes)?;
        let state = decode_state(&sections)?;
        let channels = decode_channels(&sections, state.gaussians.len())?;
        let meta = sections.get(META_TAG)?.to_vec();
        Ok(Self {
            state,
            channels,
            meta,
            records_applied: 1,
        })
    }

    /// Applies one encoded delta ([`CheckpointLog::delta_bytes`]) on top of
    /// the accumulated state, verifying its section checksums first.
    ///
    /// # Errors
    ///
    /// Any container error or [`SnapshotError::Corrupt`] when the delta is
    /// inconsistent with the accumulated state — the caller must then
    /// discard this replay and resync from a fresh base.
    pub fn apply_delta(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        self.meta = apply_delta(bytes, &mut self.state, &mut self.channels)?;
        self.records_applied += 1;
        Ok(())
    }

    /// Records (base + deltas) applied so far.
    pub fn records_applied(&self) -> u64 {
        self.records_applied
    }

    /// The most recent record's opaque meta blob.
    pub fn meta(&self) -> &[u8] {
        &self.meta
    }

    /// Approximate resident bytes of the accumulated state (arena +
    /// channels), for follower-lag byte gauges.
    pub fn resident_bytes(&self) -> usize {
        self.state.gaussians.len() * std::mem::size_of::<rtgs_render::Gaussian3d>()
            + self
                .channels
                .iter()
                .map(|c| c.data.len() * 4)
                .sum::<usize>()
    }

    /// Materializes the accumulated state: the scene, side channels and
    /// latest meta blob.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] when the accumulated state is not
    /// importable (a chain that validated record-by-record but dangles as
    /// a whole).
    pub fn restore(&self) -> Result<(ShardedScene, Vec<Channel>, Vec<u8>), SnapshotError> {
        let scene = ShardedScene::import_state(&self.state)
            .map_err(|context| SnapshotError::Corrupt { context })?;
        Ok((scene, self.channels.clone(), self.meta.clone()))
    }

    /// The canonical base encoding of the accumulated state — byte-identical
    /// to a fresh full capture of the same state.
    pub(crate) fn encode_base(&self) -> Vec<u8> {
        encode_base(&self.state, &self.channels, &self.meta)
    }

    /// Re-encodes the accumulated state as a detached single-base
    /// [`CheckpointLog`] — byte-identical to the primary compacting its
    /// own log at the same point in the stream. Promotion restores from
    /// [`Self::restore`] directly; this is the oracle the tests hold it to
    /// ("promoted == compacted primary").
    #[must_use]
    pub fn to_log(&self) -> CheckpointLog {
        CheckpointLog::from_base_bytes(self.encode_base())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtgs_math::{Quat, Vec3};
    use rtgs_render::Gaussian3d;

    fn g_at(p: Vec3) -> Gaussian3d {
        Gaussian3d::from_activated(p, Vec3::splat(0.05), Quat::IDENTITY, 0.8, Vec3::X)
    }

    fn spread_map(n: usize) -> ShardedScene {
        let mut map = ShardedScene::new(1.0);
        for i in 0..n {
            map.insert(g_at(Vec3::new(i as f32 * 1.5, 0.0, 2.0)));
        }
        map
    }

    /// Streaming a log's records through a ReplayState converges on the
    /// same state as restoring the whole log, and `to_log` re-bases it
    /// byte-identically to the primary compacting at the same point.
    #[test]
    fn replay_state_matches_log_restore_and_compaction() {
        let mut map = spread_map(6);
        let mut log = CheckpointLog::new();
        let _ = log.capture(&map, &[], b"m0").unwrap();
        let mut replay = ReplayState::from_base(log.base_bytes()).unwrap();

        for round in 0..3 {
            map.gaussian_mut(round as u32).position.y = 0.1 * (round + 1) as f32;
            map.insert(g_at(Vec3::new(30.0 + round as f32, 0.0, 2.0)));
            let _ = log
                .capture(&map, &[], format!("m{}", round + 1).as_bytes())
                .unwrap();
            replay.apply_delta(log.delta_bytes(round).unwrap()).unwrap();
        }
        assert_eq!(replay.records_applied(), 4);
        assert_eq!(replay.meta(), b"m3");

        let (from_log, _, _) = log.restore().unwrap();
        let (from_replay, _, _) = replay.restore().unwrap();
        assert_eq!(from_replay.export_state(), from_log.export_state());

        let mut compacted = log.clone();
        compacted.compact().unwrap();
        assert_eq!(replay.to_log().base_bytes(), compacted.base_bytes());
    }

    #[test]
    fn corrupt_delta_surfaces_as_typed_error() {
        let mut map = spread_map(4);
        let mut log = CheckpointLog::new();
        let _ = log.capture(&map, &[], b"").unwrap();
        let mut replay = ReplayState::from_base(log.base_bytes()).unwrap();
        map.gaussian_mut(1).position.y = 0.4;
        let _ = log.capture(&map, &[], b"").unwrap();

        let mut bad = log.delta_bytes(0).unwrap().to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0x08;
        assert!(replay.apply_delta(&bad).is_err());
    }
}
