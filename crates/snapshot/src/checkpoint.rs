//! Incremental checkpointing: a base snapshot plus changed-shard delta
//! records, with compaction folding the chain back into a single base.
//!
//! A [`CheckpointLog`] observes one [`ShardedScene`] over time. The first
//! [`CheckpointLog::capture`] writes a **base**: the canonical full scene
//! encoding, the caller's ID-keyed side [`Channel`]s (optimizer moments,
//! pruning scores, masks, …) and an opaque `meta` blob. Every later
//! capture writes a **delta** holding only the shards whose
//! [mutation version](rtgs_render::Shard::version) advanced since the
//! previous capture — each as its cell and ascending member list, plus the
//! channel rows and arena Gaussians of those members, the (small) ID
//! free-list, and a fresh copy of `meta`. Restore is base + replay;
//! [`CheckpointLog::compact`] folds the chain into a new base that is
//! **byte-identical** to a fresh full capture of the same state (the
//! canonical-form property the scene codec guarantees, property-tested in
//! `tests/roundtrip.rs`).
//!
//! # Channel contract
//!
//! A channel row may only change between captures for an ID whose Gaussian
//! was mutated in the same window (insert, tombstone or
//! [`rtgs_render::ShardedScene::gaussian_mut`]) — that is what lets deltas
//! carry only changed shards' rows. The map optimizer satisfies this by
//! construction: Adam moments move only for IDs it also steps.

use crate::error::SnapshotError;
use crate::format::{put_f32, put_len, put_str, put_u32, Cursor, SectionBuilder, Sections};
use crate::scene::{
    encode_state_into, put_gaussian, put_shard, read_gaussian, read_shard, tombstone_fill,
    GAUSSIANS_TAG, SHARD_RECORD_MIN,
};
use crate::stream::ReplayState;
use rtgs_render::{SceneState, ShardState, ShardedScene};

/// Tag of the base/delta channel section.
const CHANNELS_TAG: [u8; 4] = *b"CHAN";
/// Tag of the opaque caller-meta section.
pub(crate) const META_TAG: [u8; 4] = *b"META";
/// Tag of a delta's global header (capacity + free-list).
const DELTA_HEADER_TAG: [u8; 4] = *b"DHDR";
/// Tag of a delta's changed-shard records.
const DELTA_SHARDS_TAG: [u8; 4] = *b"DSHD";
/// Tag of the log container's base section.
const BASE_TAG: [u8; 4] = *b"BASE";
/// Tag of the log container's delta-count section.
const DELTA_COUNT_TAG: [u8; 4] = *b"NDLT";

/// One ID-keyed side array checkpointed alongside the map: `data` holds
/// `width` consecutive `f32`s per stable ID (`capacity × width` total).
///
/// Rows of tombstoned IDs are canonicalized to zero on restore — matching
/// how the stack treats them (recycling an ID re-registers and zeroes its
/// side state before any read).
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    /// Channel name (stable across captures; used to match rows on
    /// restore).
    pub name: String,
    /// Floats per ID.
    pub width: usize,
    /// Row-major data, `capacity × width` floats.
    pub data: Vec<f32>,
}

impl Channel {
    /// A zero-filled channel sized for `capacity` IDs.
    #[must_use]
    pub fn zeroed(name: impl Into<String>, width: usize, capacity: usize) -> Self {
        Self {
            name: name.into(),
            width,
            data: vec![0.0; capacity * width],
        }
    }

    fn row(&self, id: u32) -> &[f32] {
        let start = id as usize * self.width;
        &self.data[start..start + self.width]
    }

    fn row_mut(&mut self, id: u32) -> &mut [f32] {
        let start = id as usize * self.width;
        &mut self.data[start..start + self.width]
    }
}

/// What one [`CheckpointLog::capture`] call wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "inspect the stats to know whether a base or a delta was written"]
pub struct CaptureStats {
    /// `true` for the first capture (full base), `false` for a delta.
    pub is_base: bool,
    /// Shard records serialized: all shards for a base, only
    /// changed-since-last-capture shards for a delta.
    pub shards_written: usize,
    /// Total shards in the store at capture time.
    pub total_shards: usize,
    /// Encoded size of this capture in bytes.
    pub bytes: usize,
    /// Wall-clock the capture took (change scan + encode).
    pub elapsed: std::time::Duration,
}

/// A base snapshot plus an ordered chain of changed-shard deltas. See the
/// module docs.
#[derive(Debug, Clone, Default)]
pub struct CheckpointLog {
    base: Vec<u8>,
    deltas: Vec<Vec<u8>>,
    /// Per-shard mutation version at the last capture (indexed by shard;
    /// shards beyond the recorded length are new).
    seen_versions: Vec<u64>,
    /// `false` for logs decoded from bytes: their version watermarks are
    /// gone, so they can restore and compact but not capture.
    attached: bool,
}

impl CheckpointLog {
    /// An empty log; the first [`Self::capture`] writes the base.
    #[must_use]
    pub fn new() -> Self {
        Self {
            attached: true,
            ..Self::default()
        }
    }

    /// `true` before the first capture.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Number of delta records currently chained on the base.
    pub fn delta_count(&self) -> usize {
        self.deltas.len()
    }

    /// The encoded base snapshot (empty before the first capture).
    pub fn base_bytes(&self) -> &[u8] {
        &self.base
    }

    /// The encoded bytes of delta record `i` (`0..delta_count()`), in chain
    /// order. This is the unit a replication stream ships: the base once,
    /// then each delta as it is captured (see [`crate::stream`]).
    pub fn delta_bytes(&self, i: usize) -> Option<&[u8]> {
        self.deltas.get(i).map(Vec::as_slice)
    }

    /// A detached log wrapping an already-encoded base (no deltas). Used by
    /// the replication follower to turn accumulated replay state back into
    /// a restorable log.
    pub(crate) fn from_base_bytes(base: Vec<u8>) -> Self {
        Self {
            base,
            deltas: Vec::new(),
            seen_versions: Vec::new(),
            attached: false,
        }
    }

    /// Captures the current state of `scene` (plus side `channels` and an
    /// opaque `meta` blob): a full base on the first call, a
    /// changed-shards-only delta afterwards. The same `scene` instance
    /// must be observed across all captures of one log — shard mutation
    /// versions are session-local, so switching instances silently breaks
    /// delta tracking.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] on a log decoded from bytes (its
    /// version watermarks are gone; restore it and start a new log).
    ///
    /// # Panics
    ///
    /// Panics when a channel's `data` length is not
    /// `scene.capacity() × width` — that is a caller bug, not a corrupt
    /// input.
    pub fn capture(
        &mut self,
        scene: &ShardedScene,
        channels: &[Channel],
        meta: &[u8],
    ) -> Result<CaptureStats, SnapshotError> {
        if !self.attached {
            return Err(SnapshotError::Unsupported {
                context: "capture on a log decoded from bytes (restore it and begin a new log)",
            });
        }
        for ch in channels {
            assert_eq!(
                ch.data.len(),
                scene.capacity() * ch.width,
                "channel '{}' is not capacity x width",
                ch.name
            );
        }
        let capture_start = std::time::Instant::now();
        let total_shards = scene.shard_count();
        let mut stats = if self.base.is_empty() {
            let state = scene.export_state();
            self.base = encode_base(&state, channels, meta);
            CaptureStats {
                is_base: true,
                shards_written: total_shards,
                total_shards,
                bytes: self.base.len(),
                elapsed: std::time::Duration::ZERO,
            }
        } else {
            let changed: Vec<u32> = scene
                .shards()
                .iter()
                .enumerate()
                .filter(|&(i, s)| {
                    self.seen_versions
                        .get(i)
                        .map_or(true, |&seen| s.version() > seen)
                })
                .map(|(i, _)| i as u32)
                .collect();
            let delta = encode_delta(scene, &changed, channels, meta);
            let bytes = delta.len();
            self.deltas.push(delta);
            CaptureStats {
                is_base: false,
                shards_written: changed.len(),
                total_shards,
                bytes,
                elapsed: std::time::Duration::ZERO,
            }
        };
        self.seen_versions = scene.shards().iter().map(|s| s.version()).collect();
        stats.elapsed = capture_start.elapsed();
        Ok(stats)
    }

    /// Replays base + deltas into the checkpointed state: the scene, the
    /// side channels and the most recent `meta` blob.
    ///
    /// # Errors
    ///
    /// Any container/section error of the stored bytes, or
    /// [`SnapshotError::Corrupt`] when replayed state is inconsistent.
    pub fn restore(&self) -> Result<(ShardedScene, Vec<Channel>, Vec<u8>), SnapshotError> {
        self.replay()?.restore()
    }

    /// Folds the delta chain into a new base. The new base is
    /// byte-identical to a fresh full capture of the same state, so
    /// compaction never changes what a later [`Self::restore`] sees.
    ///
    /// # Errors
    ///
    /// As for [`Self::restore`].
    pub fn compact(&mut self) -> Result<(), SnapshotError> {
        if self.deltas.is_empty() {
            return Ok(());
        }
        self.base = self.replay()?.encode_base();
        self.deltas.clear();
        Ok(())
    }

    /// Serializes the whole log (base + deltas) as one container.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut builder = SectionBuilder::new();
        put_len(builder.section(DELTA_COUNT_TAG), self.deltas.len());
        builder.push_section(BASE_TAG, self.base.clone());
        for (i, delta) in self.deltas.iter().enumerate() {
            builder.push_section(delta_tag(i), delta.clone());
        }
        builder.finish()
    }

    /// Parses a container produced by [`Self::encode`]. The result can
    /// restore and compact, but not capture (see [`Self::capture`]).
    ///
    /// # Errors
    ///
    /// Container-level errors, or [`SnapshotError::MissingSection`] when a
    /// declared delta is absent.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let sections = Sections::parse(bytes)?;
        let mut count_cursor = Cursor::new(sections.get(DELTA_COUNT_TAG)?, "delta count");
        let count = count_cursor.u64()? as usize;
        count_cursor.expect_end()?;
        if count >= (1 << 16) {
            // delta_tag() addresses at most 2^16 records; a larger count
            // is corrupt, not an allocation request.
            return Err(SnapshotError::Corrupt {
                context: format!("log declares {count} deltas (max 65536)"),
            });
        }
        let base = sections.get(BASE_TAG)?.to_vec();
        // Validate the base eagerly so damage is reported at decode time.
        Sections::parse(&base)?;
        let mut deltas = Vec::with_capacity(count);
        for i in 0..count {
            let delta = sections.get(delta_tag(i))?.to_vec();
            Sections::parse(&delta)?;
            deltas.push(delta);
        }
        Ok(Self {
            base,
            deltas,
            seen_versions: Vec::new(),
            attached: false,
        })
    }

    /// Folds base + deltas through the one replay a follower also uses.
    fn replay(&self) -> Result<ReplayState, SnapshotError> {
        if self.base.is_empty() {
            return Err(SnapshotError::Unsupported {
                context: "restore from an empty log (no base captured)",
            });
        }
        let mut replay = ReplayState::from_base(&self.base)?;
        for delta in &self.deltas {
            replay.apply_delta(delta)?;
        }
        Ok(replay)
    }
}

fn delta_tag(i: usize) -> [u8; 4] {
    assert!(i < (1 << 16), "delta chain exceeds 65536 records");
    [b'D', b'L', (i >> 8) as u8, (i & 0xFF) as u8]
}

/// Canonical base encoding: scene sections + full channels + meta.
pub(crate) fn encode_base(state: &SceneState, channels: &[Channel], meta: &[u8]) -> Vec<u8> {
    let mut builder = SectionBuilder::new();
    encode_state_into(state, &mut builder);
    let live_ids: Vec<u32> = state
        .live
        .iter()
        .enumerate()
        .filter_map(|(id, &l)| if l { Some(id as u32) } else { None })
        .collect();
    let chan = builder.section(CHANNELS_TAG);
    put_len(chan, channels.len());
    for ch in channels {
        put_str(chan, &ch.name);
        put_len(chan, ch.width);
        put_len(chan, live_ids.len());
        for &id in &live_ids {
            put_u32(chan, id);
            for &v in ch.row(id) {
                put_f32(chan, v);
            }
        }
    }
    builder.section(META_TAG).extend_from_slice(meta);
    builder.finish()
}

/// Widest ID-keyed channel row a loader accepts (the pipeline's widest is
/// the 14-float Adam moments; the cap keeps a corrupt width field from
/// requesting a `capacity × width` allocation).
const MAX_CHANNEL_WIDTH: usize = 4096;

pub(crate) fn decode_channels(
    sections: &Sections<'_>,
    capacity: usize,
) -> Result<Vec<Channel>, SnapshotError> {
    let mut c = Cursor::new(sections.get(CHANNELS_TAG)?, "channel table");
    // Every channel record occupies at least its name/width/row-count
    // length prefixes.
    let count = c.len(24)?;
    let mut channels = Vec::with_capacity(count);
    for _ in 0..count {
        let name = c.str()?;
        let width = c.u64()? as usize;
        if width == 0 || width > MAX_CHANNEL_WIDTH || capacity.checked_mul(width).is_none() {
            return Err(SnapshotError::Corrupt {
                context: format!("channel '{name}' width {width} out of range"),
            });
        }
        let mut ch = Channel::zeroed(name, width, capacity);
        let rows = c.len(4 + width * 4)?;
        for _ in 0..rows {
            let id = c.u32()?;
            if id as usize >= capacity {
                return Err(SnapshotError::Corrupt {
                    context: format!("channel '{}' row for out-of-range ID {id}", ch.name),
                });
            }
            for v in ch.row_mut(id) {
                *v = c.f32()?;
            }
        }
        channels.push(ch);
    }
    c.expect_end()?;
    Ok(channels)
}

/// Delta encoding: global header + changed shard records (with their live
/// members' Gaussians) + changed channel rows + meta. Reads the store
/// directly — cost scales with the changed shards (plus the small global
/// free-list), not the map size.
fn encode_delta(
    scene: &ShardedScene,
    changed: &[u32],
    channels: &[Channel],
    meta: &[u8],
) -> Vec<u8> {
    let mut builder = SectionBuilder::new();

    let head = builder.section(DELTA_HEADER_TAG);
    put_len(head, scene.capacity());
    put_len(head, scene.free_ids().len());
    for &id in scene.free_ids() {
        put_u32(head, id);
    }

    let shd = builder.section(DELTA_SHARDS_TAG);
    put_len(shd, changed.len());
    let mut touched: Vec<u32> = Vec::new();
    for &si in changed {
        let shard = &scene.shards()[si as usize];
        put_u32(shd, si);
        put_shard(shd, shard.cell, shard.members());
        touched.extend_from_slice(shard.members());
    }
    touched.sort_unstable();

    let gaus = builder.section(GAUSSIANS_TAG);
    put_len(gaus, touched.len());
    for &id in &touched {
        put_u32(gaus, id);
        put_gaussian(gaus, scene.gaussian(id));
    }

    let chan = builder.section(CHANNELS_TAG);
    put_len(chan, channels.len());
    for ch in channels {
        put_str(chan, &ch.name);
        put_len(chan, ch.width);
        put_len(chan, touched.len());
        for &id in &touched {
            put_u32(chan, id);
            for &v in ch.row(id) {
                put_f32(chan, v);
            }
        }
    }

    builder.section(META_TAG).extend_from_slice(meta);
    builder.finish()
}

/// Applies one delta to the accumulated state; returns the delta's meta.
pub(crate) fn apply_delta(
    delta: &[u8],
    state: &mut SceneState,
    channels: &mut [Channel],
) -> Result<Vec<u8>, SnapshotError> {
    let sections = Sections::parse(delta)?;

    let mut head = Cursor::new(sections.get(DELTA_HEADER_TAG)?, "delta header");
    let new_capacity = head.u64()? as usize;
    if new_capacity < state.gaussians.len() {
        return Err(SnapshotError::Corrupt {
            context: format!(
                "delta shrinks the arena ({} -> {new_capacity})",
                state.gaussians.len()
            ),
        });
    }
    // Every ID a delta adds is live (a 4-byte member of a changed shard)
    // or dead (a 4-byte free-list entry), so growth beyond the delta's own
    // size is corrupt — this bounds the resize a damaged length field can
    // request.
    if new_capacity - state.gaussians.len() > delta.len() {
        return Err(SnapshotError::Corrupt {
            context: format!(
                "delta grows the arena by {} slots but is only {} bytes",
                new_capacity - state.gaussians.len(),
                delta.len()
            ),
        });
    }
    state.gaussians.resize(new_capacity, tombstone_fill());
    state.live.resize(new_capacity, false);
    for ch in channels.iter_mut() {
        ch.data.resize(new_capacity * ch.width, 0.0);
    }
    let free_len = head.len(4)?;
    let mut free_ids = Vec::with_capacity(free_len);
    for _ in 0..free_len {
        free_ids.push(head.u32()?);
    }
    head.expect_end()?;

    // Pass 1: unmark the previous live members of every changed shard.
    // (An ID that merely moved between two changed shards is re-marked in
    // pass 2; one that went dead stays unmarked and is canonicalized.)
    let mut shd = Cursor::new(sections.get(DELTA_SHARDS_TAG)?, "delta shard records");
    let record_count = shd.len(4 + SHARD_RECORD_MIN)?;
    let mut records: Vec<(u32, ShardState)> = Vec::with_capacity(record_count);
    let mut last_index: Option<u32> = None;
    for _ in 0..record_count {
        let si = shd.u32()?;
        if last_index.is_some_and(|last| si <= last) {
            return Err(SnapshotError::Corrupt {
                context: "delta shard records are not in ascending order".into(),
            });
        }
        last_index = Some(si);
        records.push((si, read_shard(&mut shd)?));
    }
    shd.expect_end()?;

    // (A base is decoded without import's validation, so an out-of-range
    // previous member is skipped here and left to `restore`.)
    let mut unmarked: Vec<u32> = Vec::new();
    for (si, _) in &records {
        if let Some(prev) = state.shards.get(*si as usize) {
            for &id in &prev.members {
                if let Some(live) = state.live.get_mut(id as usize) {
                    *live = false;
                    unmarked.push(id);
                }
            }
        }
    }

    // Pass 2: install the new shard states and re-mark their members. The
    // members of the changed shards, ascending, are the IDs `encode_delta`
    // writes a Gaussian and a channel row for: exactly those, in that order.
    let mut touched: Vec<u32> = Vec::new();
    for (si, shard) in records {
        let si = si as usize;
        if si > state.shards.len() {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "delta shard index {si} skips past the current {} shards",
                    state.shards.len()
                ),
            });
        }
        for &id in &shard.members {
            if id as usize >= new_capacity {
                return Err(SnapshotError::Corrupt {
                    context: format!("delta member ID {id} out of range"),
                });
            }
            state.live[id as usize] = true;
        }
        touched.extend_from_slice(&shard.members);
        if si == state.shards.len() {
            state.shards.push(shard);
        } else {
            state.shards[si] = shard;
        }
    }

    touched.sort_unstable();

    // Arena values for the touched live members.
    let mut gaus = Cursor::new(sections.get(GAUSSIANS_TAG)?, "delta gaussian records");
    expect_touched("gaussian records", gaus.len(4 + 14 * 4)?, &touched)?;
    for &member in &touched {
        expect_member("gaussian record", gaus.u32()?, member)?;
        state.gaussians[member as usize] = read_gaussian(&mut gaus)?;
    }
    gaus.expect_end()?;

    // Canonicalize every ID that went dead in this delta.
    for &id in &unmarked {
        if !state.live[id as usize] {
            state.gaussians[id as usize] = tombstone_fill();
            for ch in channels.iter_mut() {
                for v in ch.row_mut(id) {
                    *v = 0.0;
                }
            }
        }
    }
    state.free_ids = free_ids;

    // Channel rows of the touched members.
    let mut chan = Cursor::new(sections.get(CHANNELS_TAG)?, "delta channel rows");
    let channel_count = chan.len(0)?;
    if channel_count != channels.len() {
        return Err(SnapshotError::Corrupt {
            context: format!(
                "delta carries {channel_count} channels, base has {}",
                channels.len()
            ),
        });
    }
    for ch in channels.iter_mut() {
        let name = chan.str()?;
        let width = chan.len(0)?;
        if name != ch.name || width != ch.width {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "delta channel '{name}'/{width} does not match base channel '{}'/{}",
                    ch.name, ch.width
                ),
            });
        }
        expect_touched("channel rows", chan.len(4 + width * 4)?, &touched)?;
        for &member in &touched {
            expect_member("channel row", chan.u32()?, member)?;
            for v in ch.row_mut(member) {
                *v = chan.f32()?;
            }
        }
    }
    chan.expect_end()?;

    Ok(sections.get(META_TAG)?.to_vec())
}

/// A delta section must carry one record per member of the changed shards.
fn expect_touched(what: &str, count: usize, touched: &[u32]) -> Result<(), SnapshotError> {
    if count == touched.len() {
        return Ok(());
    }
    Err(SnapshotError::Corrupt {
        context: format!(
            "delta carries {count} {what} for {} changed-shard members",
            touched.len()
        ),
    })
}

/// The next record of a delta section must be for the next member.
fn expect_member(what: &str, id: u32, member: u32) -> Result<(), SnapshotError> {
    if id == member {
        return Ok(());
    }
    Err(SnapshotError::Corrupt {
        context: format!("delta {what} for ID {id} where member {member} is due"),
    })
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

    #[test]
    fn base_then_empty_delta() {
        let map = spread_map(6);
        let mut log = CheckpointLog::new();
        let base = log.capture(&map, &[], b"m0").unwrap();
        assert!(base.is_base);
        assert_eq!(base.shards_written, map.shard_count());

        // No mutation since the base: the delta carries zero shard records.
        let delta = log.capture(&map, &[], b"m1").unwrap();
        assert!(!delta.is_base);
        assert_eq!(delta.shards_written, 0);

        let (restored, _, meta) = log.restore().unwrap();
        assert_eq!(restored.export_state(), map.export_state());
        assert_eq!(meta, b"m1");
    }

    #[test]
    fn delta_carries_only_changed_shards() {
        let mut map = spread_map(8); // 8 shards, one per Gaussian
        let mut log = CheckpointLog::new();
        let _ = log.capture(&map, &[], b"").unwrap();

        map.gaussian_mut(2).position.y = 0.3; // dirties exactly one shard
        let stats = log.capture(&map, &[], b"").unwrap();
        assert_eq!(stats.shards_written, 1);
        assert_eq!(stats.total_shards, 8);

        let (restored, _, _) = log.restore().unwrap();
        assert_eq!(restored.gaussian(2).position.y, 0.3);
        assert_eq!(restored.export_state(), map.export_state());
    }

    #[test]
    fn delta_tracks_tombstone_recycle_and_growth() {
        let mut map = spread_map(5);
        let mut log = CheckpointLog::new();
        let _ = log.capture(&map, &[], b"").unwrap();

        map.tombstone(1);
        map.insert(g_at(Vec3::new(40.0, 0.0, 2.0))); // recycles ID 1, new shard
        map.insert(g_at(Vec3::new(41.5, 0.0, 2.0))); // appends ID 5, new shard
        let stats = log.capture(&map, &[], b"").unwrap();
        // Changed: ID 1's old shard (tombstone) + 2 new shards.
        assert_eq!(stats.shards_written, 3);

        let (restored, _, _) = log.restore().unwrap();
        assert_eq!(restored.export_state(), map.export_state());
        assert_eq!(restored.len(), 6);
        assert_eq!(restored.capacity(), 6);
    }

    #[test]
    fn channels_follow_the_delta() {
        let mut map = spread_map(4);
        let mut ch = Channel::zeroed("score", 2, map.capacity());
        for id in 0..4u32 {
            ch.row_mut(id)
                .copy_from_slice(&[id as f32, 10.0 + id as f32]);
        }
        let mut log = CheckpointLog::new();
        let _ = log.capture(&map, &[ch.clone()], b"").unwrap();

        map.gaussian_mut(3).position.y = 1.0;
        ch.row_mut(3).copy_from_slice(&[30.0, 31.0]);
        let _ = log.capture(&map, &[ch.clone()], b"").unwrap();

        let (_, channels, _) = log.restore().unwrap();
        assert_eq!(channels.len(), 1);
        assert_eq!(channels[0].row(3), &[30.0, 31.0]);
        assert_eq!(channels[0].row(1), &[1.0, 11.0]);
    }

    #[test]
    fn compaction_is_byte_identical_to_fresh_base() {
        let mut map = spread_map(6);
        let mut ch = Channel::zeroed("m", 1, map.capacity());
        let mut log = CheckpointLog::new();
        let _ = log.capture(&map, &[ch.clone()], b"meta-0").unwrap();

        for round in 0..4 {
            map.gaussian_mut(round as u32).position.y = round as f32 * 0.1;
            map.tombstone(((round + 1) % 6) as u32);
            let id = map.insert(g_at(Vec3::new(20.0 + round as f32 * 2.0, 0.0, 2.0)));
            ch.data.resize(map.capacity(), 0.0);
            ch.row_mut(id)[0] = 7.0 + round as f32;
            let _ = log
                .capture(&map, &[ch.clone()], format!("meta-{round}").as_bytes())
                .unwrap();
        }
        assert_eq!(log.delta_count(), 4);
        log.compact().unwrap();
        assert_eq!(log.delta_count(), 0);

        let mut fresh = CheckpointLog::new();
        let _ = fresh.capture(&map, &[ch], b"meta-3").unwrap();
        assert_eq!(log.base_bytes(), fresh.base_bytes());
    }

    #[test]
    fn encode_decode_roundtrips_and_detaches() {
        let mut map = spread_map(3);
        let mut log = CheckpointLog::new();
        let _ = log.capture(&map, &[], b"alpha").unwrap();
        map.gaussian_mut(0).position.y = 0.5;
        let _ = log.capture(&map, &[], b"beta").unwrap();

        let bytes = log.encode();
        let decoded = CheckpointLog::decode(&bytes).unwrap();
        assert_eq!(decoded.delta_count(), 1);
        let (restored, _, meta) = decoded.restore().unwrap();
        assert_eq!(restored.export_state(), map.export_state());
        assert_eq!(meta, b"beta");

        // Decoded logs cannot capture.
        let mut decoded = decoded;
        assert!(matches!(
            decoded.capture(&map, &[], b""),
            Err(SnapshotError::Unsupported { .. })
        ));
    }

    #[test]
    fn empty_log_cannot_restore() {
        let log = CheckpointLog::new();
        assert!(matches!(
            log.restore(),
            Err(SnapshotError::Unsupported { .. })
        ));
    }
}
