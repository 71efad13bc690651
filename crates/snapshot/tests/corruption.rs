//! Corrupted-snapshot fixtures: every class of damage must surface as a
//! clean typed [`SnapshotError`] — never a panic, never a silently wrong
//! map. CI re-runs it by name in its corrupted-snapshot fixtures step.

use rtgs_math::{Quat, Vec3};
use rtgs_render::{Gaussian3d, SceneState, ShardState, ShardedScene};
use rtgs_snapshot::format::{put_f32, put_i32, put_len, put_str, put_u32};
use rtgs_snapshot::{
    decode_scene, encode_scene, Channel, CheckpointLog, ReplayState, SectionBuilder, Sections,
    SnapshotError, FORMAT_VERSION, MAGIC,
};

fn sample_map() -> ShardedScene {
    let mut map = ShardedScene::new(0.8);
    for i in 0..25 {
        map.insert(Gaussian3d::from_activated(
            Vec3::new(
                (i % 5) as f32 * 0.9 - 2.0,
                0.1 * i as f32,
                2.0 + (i % 4) as f32,
            ),
            Vec3::splat(0.07),
            Quat::IDENTITY,
            0.8,
            Vec3::new(0.3, 0.6, 0.9),
        ));
    }
    map.tombstone(4);
    map.tombstone(13);
    map
}

/// Truncating the container at every prefix length yields a typed error —
/// exhaustively, so no prefix length panics or half-succeeds.
#[test]
fn every_truncation_is_a_typed_error() {
    let bytes = encode_scene(&sample_map());
    for cut in 0..bytes.len() {
        match decode_scene(&bytes[..cut]) {
            Err(
                SnapshotError::BadMagic
                | SnapshotError::Truncated { .. }
                | SnapshotError::ChecksumMismatch { .. }
                | SnapshotError::MissingSection { .. }
                | SnapshotError::Corrupt { .. },
            ) => {}
            Err(other) => panic!("cut at {cut}: unexpected error class {other:?}"),
            Ok(_) => panic!("cut at {cut}: truncated snapshot decoded successfully"),
        }
    }
}

/// Flipping any single payload byte is caught by the section checksum
/// (header/table flips land in the structural checks instead).
#[test]
fn bit_flips_are_detected() {
    let bytes = encode_scene(&sample_map());
    // Sample a spread of positions across the whole container.
    for i in (0..bytes.len()).step_by(37) {
        let mut bad = bytes.clone();
        bad[i] ^= 0x40;
        match decode_scene(&bad) {
            Ok(map) => {
                // A flip that decodes must be semantically identical — it
                // can only happen if it flipped a bit the checksum caught
                // being different... which cannot pass. Treat as failure.
                let _ = map;
                panic!("byte {i}: corrupted snapshot decoded successfully");
            }
            Err(e) => {
                // Must be a typed error, and payload flips specifically
                // must be checksum mismatches.
                let msg = e.to_string();
                assert!(!msg.is_empty());
            }
        }
    }
}

#[test]
fn payload_flip_is_a_checksum_mismatch() {
    let bytes = encode_scene(&sample_map());
    let mut bad = bytes.clone();
    let last = bad.len() - 1; // deep inside the final section's payload
    bad[last] ^= 0xFF;
    assert!(matches!(
        decode_scene(&bad),
        Err(SnapshotError::ChecksumMismatch { .. })
    ));
}

#[test]
fn unknown_format_version_is_rejected_loudly() {
    let mut bytes = encode_scene(&sample_map());
    bytes[8] = 0xFE; // format version field
    match decode_scene(&bytes) {
        Err(SnapshotError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, 0xFE | (u32::from(bytes[9]) << 8));
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn foreign_bytes_are_bad_magic() {
    assert!(matches!(
        decode_scene(b"definitely not a snapshot"),
        Err(SnapshotError::BadMagic)
    ));
    assert!(matches!(decode_scene(b""), Err(SnapshotError::BadMagic)));
}

#[test]
fn missing_section_is_typed() {
    // A container with valid framing but no scene sections.
    let mut builder = SectionBuilder::new();
    builder.section(*b"WHAT").extend_from_slice(&[1, 2, 3]);
    let bytes = builder.finish();
    assert_eq!(&bytes[..8], &MAGIC);
    assert!(Sections::parse(&bytes).is_ok(), "framing itself is valid");
    assert!(matches!(
        decode_scene(&bytes),
        Err(SnapshotError::MissingSection { .. })
    ));
}

/// Semantic corruption below the checksum layer (a validly-checksummed
/// container whose cross-references dangle) is caught by import
/// validation, not by a panic in the store.
#[test]
fn semantically_inconsistent_state_is_corrupt() {
    let map = sample_map();
    let state = map.export_state();

    // Re-encode with a free-list entry pointing at a live ID.
    let mut bad_state = state.clone();
    bad_state.free_ids[0] = 0; // ID 0 is live
    let mut builder = SectionBuilder::new();
    // encode via the public scene path: import is what must reject it.
    // (Encode itself is not validating — it is a plain serializer.)
    rtgs_snapshot::scene::encode_scene_into(
        &ShardedScene::import_state(&state).unwrap(),
        &mut builder,
    );
    let good_bytes = builder.finish();
    assert!(decode_scene(&good_bytes).is_ok());

    match ShardedScene::import_state(&bad_state) {
        Err(msg) => assert!(msg.contains("free-list"), "unexpected message: {msg}"),
        Ok(_) => panic!("inconsistent state imported successfully"),
    }
}

/// Damage inside a checkpoint log (base or any delta) surfaces when the
/// log is decoded, before any replay work happens.
#[test]
fn corrupted_log_members_are_detected_at_decode() {
    let mut map = sample_map();
    let mut log = CheckpointLog::new();
    let _ = log.capture(&map, &[], b"m0").unwrap();
    map.gaussian_mut(2).position.z += 0.4;
    let _ = log.capture(&map, &[], b"m1").unwrap();
    let bytes = log.encode();

    // Undamaged log restores.
    assert!(CheckpointLog::decode(&bytes).unwrap().restore().is_ok());

    // Truncations of the log container are typed errors.
    for cut in [10, bytes.len() / 2, bytes.len() - 3] {
        assert!(
            CheckpointLog::decode(&bytes[..cut]).is_err(),
            "cut at {cut} decoded"
        );
    }

    // A flipped byte anywhere in the tail (inside the nested base/delta
    // payloads) is caught by a checksum at decode time.
    let mut bad = bytes.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x10;
    assert!(CheckpointLog::decode(&bad).is_err());
}

/// Three shards of four Gaussians each, one of them tombstoned.
fn clustered_map() -> ShardedScene {
    let mut map = ShardedScene::new(1.0);
    for i in 0..12 {
        map.insert(Gaussian3d::from_activated(
            Vec3::new((i % 3) as f32 * 2.0 + 0.05 * i as f32, 0.1, 2.0),
            Vec3::splat(0.07),
            Quat::IDENTITY,
            0.8,
            Vec3::new(0.3, 0.6, 0.9),
        ));
    }
    map.tombstone(5);
    map
}

/// Rebuilds a container with `tag`'s payload replaced, every other section
/// kept in order: checksum-valid bytes that say something else.
fn with_section(bytes: &[u8], tag: [u8; 4], payload: Vec<u8>) -> Vec<u8> {
    let sections = Sections::parse(bytes).unwrap();
    let mut builder = SectionBuilder::new();
    let mut payload = Some(payload);
    for t in sections.tags().collect::<Vec<_>>() {
        let p = if t == tag {
            payload.take().unwrap()
        } else {
            sections.get(t).unwrap().to_vec()
        };
        builder.push_section(t, p);
    }
    assert!(payload.is_none(), "no {tag:?} section to replace");
    builder.finish()
}

/// One shard record as version 2 writes it: cell, then the member list.
fn put_shard(out: &mut Vec<u8>, cell: [i32; 3], members: &[u32]) {
    for c in cell {
        put_i32(out, c);
    }
    put_len(out, members.len());
    for &m in members {
        put_u32(out, m);
    }
}

/// The three shard-table damages import must reject, each applied to a
/// shard list: a shard whose members are not ascending, an ID listed in
/// two shards, and a member that is not live. `big` is a shard with two
/// or more members, `other` a different non-empty shard.
fn damaged_shards(
    state: &SceneState,
    big: usize,
    other: usize,
) -> Vec<(&'static str, Vec<ShardState>)> {
    let dead = state.free_ids[0];
    let mut cases = Vec::new();

    let mut shards = state.shards.clone();
    shards[big].members.reverse();
    cases.push(("not ascending", shards));

    let mut shards = state.shards.clone();
    let stolen = state.shards[other].members[0];
    shards[big].members.push(stolen);
    shards[big].members.sort_unstable();
    cases.push(("more than one shard", shards));

    let mut shards = state.shards.clone();
    shards[big].members.push(dead);
    shards[big].members.sort_unstable();
    cases.push(("not live", shards));
    cases
}

/// The sample map's largest shard and another non-empty one.
fn big_and_other(map: &ShardedScene) -> (usize, usize) {
    let shards = map.shards();
    let big = (0..shards.len())
        .max_by_key(|&i| shards[i].live_count())
        .unwrap();
    assert!(shards[big].live_count() >= 2);
    let other = (0..shards.len())
        .find(|&i| i != big && shards[i].live_count() > 0)
        .unwrap();
    (big, other)
}

/// Version 2's shard invariants — members ascending, each live ID in
/// exactly one shard, every member live — are checked by import, and a
/// checksum-valid full snapshot breaking one decodes to `Corrupt`.
#[test]
fn shard_member_damage_is_corrupt_on_import() {
    let map = clustered_map();
    let state = map.export_state();
    let (big, other) = big_and_other(&map);
    let good = encode_scene(&map);
    for (what, shards) in damaged_shards(&state, big, other) {
        let bad_state = SceneState {
            shards: shards.clone(),
            ..state.clone()
        };
        match ShardedScene::import_state(&bad_state) {
            Err(msg) => assert!(msg.contains(what), "{what}: {msg}"),
            Ok(_) => panic!("{what}: imported"),
        }

        let mut shrd = Vec::new();
        put_len(&mut shrd, shards.len());
        for s in &shards {
            put_shard(&mut shrd, s.cell, &s.members);
        }
        let bytes = with_section(&good, *b"SHRD", shrd);
        match decode_scene(&bytes) {
            Err(SnapshotError::Corrupt { context }) => assert!(context.contains(what), "{context}"),
            other => panic!("{what}: expected Corrupt, got {:?}", other.err()),
        }
    }
}

/// The same damage arriving as a follower would meet it: a checksum-valid
/// delta whose one shard record breaks an invariant. `apply_delta` may
/// accept the record; `restore` then fails with `Corrupt`, never a panic.
/// A delta's members define liveness, so "a member that is not live"
/// arrives as a member the delta's own free-list still holds.
#[test]
fn shard_member_damage_in_a_delta_is_corrupt_on_restore() {
    let mut map = clustered_map();
    let (big, other) = big_and_other(&map);
    let mut log = CheckpointLog::new();
    let _ = log.capture(&map, &[], b"m0").unwrap();
    let first = map.shards()[big].members()[0];
    map.gaussian_mut(first).position.y += 0.01; // changes shard `big` only
    let stats = log.capture(&map, &[], b"m1").unwrap();
    assert_eq!(stats.shards_written, 1);
    let delta = log.delta_bytes(0).unwrap();
    let state = map.export_state();

    for (what, shards) in damaged_shards(&state, big, other) {
        let mut dshd = Vec::new();
        put_len(&mut dshd, 1);
        put_u32(&mut dshd, big as u32);
        put_shard(&mut dshd, shards[big].cell, &shards[big].members);
        let bad = with_section(delta, *b"DSHD", dshd);

        let mut replay = ReplayState::from_base(log.base_bytes()).unwrap();
        let outcome = replay
            .apply_delta(&bad)
            .and_then(|()| replay.restore().map(|_| ()));
        match outcome {
            Err(SnapshotError::Corrupt { .. }) => {}
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        }
    }
}

/// A delta brings an ID to life by listing it in a changed shard, so it
/// must also carry that member's Gaussian and its channel rows — exactly
/// the ascending members of its changed shards, as `encode_delta` writes
/// them. A checksum-valid delta that revives tombstoned ID 5 without a
/// `GAUS` record, or one that drops a member's channel row, is `Corrupt`
/// through a follower's replay and through a decoded log's restore, never
/// a live `TOMBSTONE_FILL` in the map.
#[test]
fn a_delta_member_without_its_records_is_corrupt() {
    let mut map = clustered_map();
    let mut adam = Channel::zeroed("adam_m", 2, map.capacity());
    for (i, v) in adam.data.iter_mut().enumerate() {
        *v = i as f32;
    }
    let mut log = CheckpointLog::new();
    let _ = log.capture(&map, &[adam.clone()], b"m0").unwrap();
    // Tombstoned ID 5's shard: 2, 5, 8 and 11 were placed in it.
    let shard = (0..map.shard_count())
        .find(|&i| map.shards()[i].members().contains(&2))
        .unwrap();
    assert_eq!(map.shards()[shard].members(), [2, 8, 11]);
    assert_eq!(map.free_ids(), [5]);
    map.gaussian_mut(2).position.y += 0.01; // changes that shard only
    let stats = log.capture(&map, &[adam.clone()], b"m1").unwrap();
    assert_eq!(stats.shards_written, 1);
    let delta = log.delta_bytes(0).unwrap();

    // ID 5 listed in the changed shard and gone from the free-list, with
    // the `GAUS` and `CHAN` sections the honest delta carries (2, 8, 11).
    let mut dhdr = Vec::new();
    put_len(&mut dhdr, map.capacity());
    put_len(&mut dhdr, 0);
    let mut dshd = Vec::new();
    put_len(&mut dshd, 1);
    put_u32(&mut dshd, shard as u32);
    put_shard(&mut dshd, map.shards()[shard].cell, &[2, 5, 8, 11]);
    let revived = with_section(&with_section(delta, *b"DHDR", dhdr), *b"DSHD", dshd);

    // The honest delta with member 8's channel row left out.
    let mut chan = Vec::new();
    put_len(&mut chan, 1);
    put_str(&mut chan, "adam_m");
    put_len(&mut chan, 2);
    put_len(&mut chan, 2);
    for id in [2u32, 11] {
        put_u32(&mut chan, id);
        for &v in &adam.data[id as usize * 2..][..2] {
            put_f32(&mut chan, v);
        }
    }
    let rowless = with_section(delta, *b"CHAN", chan);

    for (what, bad) in [("no GAUS for ID 5", revived), ("no row for ID 8", rowless)] {
        let mut replay = ReplayState::from_base(log.base_bytes()).unwrap();
        match replay.apply_delta(&bad) {
            Err(SnapshotError::Corrupt { .. }) => {}
            other => panic!("{what}: replay expected Corrupt, got {other:?}"),
        }
        let bytes = with_section(&log.encode(), *b"DL\0\0", bad);
        match CheckpointLog::decode(&bytes).unwrap().restore() {
            Err(SnapshotError::Corrupt { .. }) => {}
            other => panic!(
                "{what}: restore expected Corrupt, got {:?}",
                other.map(|_| ())
            ),
        }
    }
}

/// A base is replayed without import's validation, so a base shard may
/// list an ID past the arena; a delta rewriting that shard must not index
/// the liveness flags with it.
#[test]
fn out_of_range_base_member_under_a_delta_is_not_a_panic() {
    let mut map = clustered_map();
    let (big, _) = big_and_other(&map);
    let mut log = CheckpointLog::new();
    let _ = log.capture(&map, &[], b"m0").unwrap();
    let first = map.shards()[big].members()[0];
    map.gaussian_mut(first).position.y += 0.01;
    let _ = log.capture(&map, &[], b"m1").unwrap();

    let mut shards = map.export_state().shards;
    shards[big].members.push(1_000_000);
    let mut shrd = Vec::new();
    put_len(&mut shrd, shards.len());
    for s in &shards {
        put_shard(&mut shrd, s.cell, &s.members);
    }
    let base = with_section(log.base_bytes(), *b"SHRD", shrd);
    let mut replay = ReplayState::from_base(&base).unwrap();
    assert!(matches!(
        replay.restore(),
        Err(SnapshotError::Corrupt { .. })
    ));
    // The delta replaces the damaged record, so the chain heals.
    replay.apply_delta(log.delta_bytes(0).unwrap()).unwrap();
    let (restored, _, _) = replay.restore().unwrap();
    assert_eq!(restored.export_state(), map.export_state());
}

/// Version 1 (shard records with tombstoned slots and a slot free-list)
/// is no longer read: its containers fail loudly, before any section is
/// interpreted.
#[test]
fn version_one_container_is_unsupported() {
    let mut bytes = encode_scene(&sample_map());
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    match decode_scene(&bytes) {
        Err(SnapshotError::UnsupportedVersion { found, supported }) => {
            assert_eq!((found, supported), (1, FORMAT_VERSION));
            assert_eq!(FORMAT_VERSION, 2);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}
