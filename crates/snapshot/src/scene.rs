//! Canonical binary codec for [`ShardedScene`] — full map snapshots.
//!
//! The encoding is built from [`SceneState`], the store's canonical
//! plain-data export: stable IDs, tombstoned slot layouts and both
//! free-list orders are preserved exactly, so a decoded map renders
//! bitwise-identically to the live one *and* keeps behaving identically
//! under continued densify/prune/recycle churn. Tombstoned arena slots are
//! never serialized (their contents are unobservable), which makes the
//! encoding a **canonical form**: any two stores with the same observable
//! state produce byte-identical sections — the property the delta
//! compaction test leans on.
//!
//! Three sections:
//!
//! | tag    | contents                                                    |
//! |--------|-------------------------------------------------------------|
//! | `SCNE` | cell size, capacity, packed liveness bitmap, ID free-list   |
//! | `GAUS` | live Gaussians as `(id, 14 × f32)` in ascending-ID order    |
//! | `SHRD` | per shard: grid cell, member table, slot free-list          |

use crate::error::SnapshotError;
use crate::format::{put_f32, put_i32, put_len, put_u32, Cursor, SectionBuilder, Sections};
use rtgs_math::{Quat, Vec3};
use rtgs_render::{Gaussian3d, SceneState, ShardState, ShardedScene, TOMBSTONED_SLOT};

/// Tag of the scene-header section.
pub const SCENE_TAG: [u8; 4] = *b"SCNE";
/// Tag of the live-Gaussian section.
pub const GAUSSIANS_TAG: [u8; 4] = *b"GAUS";
/// Tag of the shard-table section.
pub const SHARDS_TAG: [u8; 4] = *b"SHRD";

/// Floats per serialized Gaussian (position 3 + log-scale 3 + quaternion 4
/// + opacity 1 + color 3).
const FLOATS_PER_GAUSSIAN: usize = 14;

pub(crate) fn put_gaussian(out: &mut Vec<u8>, g: &Gaussian3d) {
    for v in [
        g.position.x,
        g.position.y,
        g.position.z,
        g.log_scale.x,
        g.log_scale.y,
        g.log_scale.z,
        g.rotation.w,
        g.rotation.x,
        g.rotation.y,
        g.rotation.z,
        g.opacity,
        g.color.x,
        g.color.y,
        g.color.z,
    ] {
        put_f32(out, v);
    }
}

pub(crate) fn read_gaussian(c: &mut Cursor<'_>) -> Result<Gaussian3d, SnapshotError> {
    let mut f = [0.0f32; FLOATS_PER_GAUSSIAN];
    for v in &mut f {
        *v = c.f32()?;
    }
    Ok(Gaussian3d {
        position: Vec3::new(f[0], f[1], f[2]),
        log_scale: Vec3::new(f[3], f[4], f[5]),
        rotation: Quat::new(f[6], f[7], f[8], f[9]),
        opacity: f[10],
        color: Vec3::new(f[11], f[12], f[13]),
    })
}

/// The canonical fill for arena slots that are tombstoned (nothing is
/// serialized for them; decoders materialize the store's own canonical
/// value — sharing the constant keeps compaction byte-identity from
/// silently diverging if the canonical form ever changes).
pub(crate) fn tombstone_fill() -> Gaussian3d {
    rtgs_render::TOMBSTONE_FILL
}

/// Encodes a [`SceneState`] into the three scene sections of `builder`.
pub(crate) fn encode_state_into(state: &SceneState, builder: &mut SectionBuilder) {
    let head = builder.section(SCENE_TAG);
    put_f32(head, state.cell_size);
    put_len(head, state.gaussians.len());
    // Liveness bitmap, packed 8 flags per byte, LSB-first.
    let mut byte = 0u8;
    for (i, &live) in state.live.iter().enumerate() {
        if live {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            head.push(byte);
            byte = 0;
        }
    }
    if state.live.len() % 8 != 0 {
        head.push(byte);
    }
    put_len(head, state.free_ids.len());
    for &id in &state.free_ids {
        put_u32(head, id);
    }

    let gaus = builder.section(GAUSSIANS_TAG);
    let live_count = state.live.iter().filter(|&&l| l).count();
    put_len(gaus, live_count);
    for (id, (g, &live)) in state.gaussians.iter().zip(state.live.iter()).enumerate() {
        if live {
            put_u32(gaus, id as u32);
            put_gaussian(gaus, g);
        }
    }

    let shrd = builder.section(SHARDS_TAG);
    put_len(shrd, state.shards.len());
    for shard in &state.shards {
        for &c in &shard.cell {
            put_i32(shrd, c);
        }
        put_len(shrd, shard.members.len());
        for &m in &shard.members {
            put_u32(shrd, m);
        }
        put_len(shrd, shard.free_slots.len());
        for &s in &shard.free_slots {
            put_u32(shrd, s);
        }
    }
}

/// Encodes a [`ShardedScene`] into the three scene sections of `builder`.
pub fn encode_scene_into(scene: &ShardedScene, builder: &mut SectionBuilder) {
    encode_state_into(&scene.export_state(), builder);
}

/// Decodes the three scene sections back into a [`SceneState`] (tombstoned
/// slots filled canonically).
pub(crate) fn decode_state(sections: &Sections<'_>) -> Result<SceneState, SnapshotError> {
    let mut head = Cursor::new(sections.get(SCENE_TAG)?, "scene header");
    let cell_size = head.f32()?;
    // The declared capacity must be backed by its liveness bitmap in the
    // remaining payload — a corrupt (but checksum-valid from a buggy
    // writer) length cannot trigger an unbounded allocation.
    let capacity = head.u64()? as usize;
    let bitmap_bytes = capacity.div_ceil(8);
    if bitmap_bytes > head.remaining() {
        return Err(SnapshotError::Truncated {
            context: "scene header",
        });
    }
    let mut live = Vec::with_capacity(capacity);
    for i in 0..bitmap_bytes {
        let byte = head.u8()?;
        for bit in 0..8 {
            if i * 8 + bit < capacity {
                live.push(byte & (1 << bit) != 0);
            }
        }
    }
    let free_len = head.len(4)?;
    let mut free_ids = Vec::with_capacity(free_len);
    for _ in 0..free_len {
        free_ids.push(head.u32()?);
    }
    head.expect_end()?;

    let mut gaussians = vec![tombstone_fill(); capacity];
    let mut gaus = Cursor::new(sections.get(GAUSSIANS_TAG)?, "gaussian table");
    let live_count = gaus.len(4 + FLOATS_PER_GAUSSIAN * 4)?;
    for _ in 0..live_count {
        let id = gaus.u32()? as usize;
        let g = read_gaussian(&mut gaus)?;
        if id >= capacity || !live[id] {
            return Err(SnapshotError::Corrupt {
                context: format!("gaussian record for non-live ID {id}"),
            });
        }
        gaussians[id] = g;
    }
    gaus.expect_end()?;

    let mut shrd = Cursor::new(sections.get(SHARDS_TAG)?, "shard table");
    let shard_count = shrd.len(3 * 4 + 16)?;
    let mut shards = Vec::with_capacity(shard_count);
    for _ in 0..shard_count {
        let cell = [shrd.i32()?, shrd.i32()?, shrd.i32()?];
        let member_len = shrd.len(4)?;
        let mut members = Vec::with_capacity(member_len);
        for _ in 0..member_len {
            members.push(shrd.u32()?);
        }
        let free_len = shrd.len(4)?;
        let mut free_slots = Vec::with_capacity(free_len);
        for _ in 0..free_len {
            free_slots.push(shrd.u32()?);
        }
        shards.push(ShardState {
            cell,
            members,
            free_slots,
        });
    }
    shrd.expect_end()?;

    Ok(SceneState {
        cell_size,
        gaussians,
        live,
        free_ids,
        shards,
    })
}

/// Decodes the three scene sections back into a [`ShardedScene`].
///
/// # Errors
///
/// Structural damage surfaces from the section layer
/// ([`SnapshotError::Truncated`], [`SnapshotError::ChecksumMismatch`], …);
/// semantic inconsistencies (dangling IDs, free-list disagreements) as
/// [`SnapshotError::Corrupt`] via [`ShardedScene::import_state`].
pub fn decode_scene_sections(sections: &Sections<'_>) -> Result<ShardedScene, SnapshotError> {
    let state = decode_state(sections)?;
    ShardedScene::import_state(&state).map_err(|context| SnapshotError::Corrupt { context })
}

/// Serializes a full map snapshot as a standalone container.
#[must_use]
pub fn encode_scene(scene: &ShardedScene) -> Vec<u8> {
    let mut builder = SectionBuilder::new();
    encode_scene_into(scene, &mut builder);
    builder.finish()
}

/// Parses a standalone container produced by [`encode_scene`].
///
/// # Errors
///
/// See [`decode_scene_sections`] plus the container-level errors of
/// [`Sections::parse`].
pub fn decode_scene(bytes: &[u8]) -> Result<ShardedScene, SnapshotError> {
    decode_scene_sections(&Sections::parse(bytes)?)
}

/// `true` when `members[slot]` marks a tombstone (re-exported sentinel
/// check used by the delta codec).
pub(crate) fn is_tombstoned(member: u32) -> bool {
    member == TOMBSTONED_SLOT
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtgs_math::{Quat, Se3, Vec3};
    use rtgs_render::FrameArena;

    fn sample_scene() -> ShardedScene {
        let mut map = ShardedScene::new(0.7);
        for i in 0..40 {
            let p = Vec3::new(
                (i % 7) as f32 * 0.9 - 3.0,
                (i % 3) as f32 * 0.5 - 0.5,
                2.0 + (i % 5) as f32 * 0.8,
            );
            map.insert(Gaussian3d::from_activated(
                p,
                Vec3::splat(0.05 + (i % 4) as f32 * 0.02),
                Quat::from_axis_angle(Vec3::Y, i as f32 * 0.1),
                0.7,
                Vec3::new(0.2, 0.5, 0.9),
            ));
        }
        for id in [3u32, 11, 19, 27] {
            map.tombstone(id);
        }
        map.insert(Gaussian3d::from_activated(
            Vec3::new(5.0, 0.0, 2.0),
            Vec3::splat(0.08),
            Quat::IDENTITY,
            0.9,
            Vec3::X,
        ));
        map
    }

    #[test]
    fn scene_roundtrip_is_bitwise() {
        let map = sample_scene();
        let bytes = encode_scene(&map);
        let restored = decode_scene(&bytes).unwrap();
        assert_eq!(restored.export_state(), map.export_state());

        // Rendering the restored map is bitwise-identical.
        let mut a = map.clone();
        let mut b = restored;
        a.refresh_bounds();
        b.refresh_bounds();
        let cam = rtgs_render::PinholeCamera::from_fov(48, 36, 1.2);
        let backend = rtgs_runtime::Serial;
        let (mut fa, mut fb) = (FrameArena::new(), FrameArena::new());
        fa.cull(&a, &Se3::IDENTITY, &cam, None, &backend);
        fb.cull(&b, &Se3::IDENTITY, &cam, None, &backend);
        assert_eq!(fa.visible().ids, fb.visible().ids);
        assert_eq!(fa.visible().scene.gaussians, fb.visible().scene.gaussians);
    }

    #[test]
    fn encoding_is_canonical() {
        // Same observable state reached through different mutation orders
        // still encodes identically once the histories converge.
        let map = sample_scene();
        let again = decode_scene(&encode_scene(&map)).unwrap();
        assert_eq!(encode_scene(&map), encode_scene(&again));
    }

    #[test]
    fn empty_scene_roundtrips() {
        let map = ShardedScene::new(1.0);
        let restored = decode_scene(&encode_scene(&map)).unwrap();
        assert!(restored.is_empty());
        assert_eq!(restored.cell_size(), 1.0);
    }

    #[test]
    fn dangling_gaussian_record_is_corrupt() {
        let map = sample_scene();
        let state = map.export_state();
        let mut builder = SectionBuilder::new();
        encode_state_into(&state, &mut builder);
        // Rewrite the first gaussian record's ID to a tombstoned slot.
        let mut builder2 = SectionBuilder::new();
        encode_state_into(&state, &mut builder2);
        let gaus = builder2.section(GAUSSIANS_TAG);
        gaus[8..12].copy_from_slice(&3u32.to_le_bytes()); // ID 3 is tombstoned
        let bytes = builder2.finish();
        assert!(matches!(
            decode_scene(&bytes),
            Err(SnapshotError::Corrupt { .. })
        ));
        let _ = builder.finish();
    }
}
