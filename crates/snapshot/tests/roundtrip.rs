//! Property tests for snapshot round-trips.
//!
//! Contracts over random maps grown through insert/tombstone/recycle churn
//! (non-contiguous stable IDs, recycled IDs — the state an evolved SLAM
//! map is in):
//!
//! 1. **save → load → render is bitwise-identical to never-saved** — the
//!    restored map produces the same visible set, image, depth and
//!    transmittance as the original at pool sizes 1–8, and *continued*
//!    churn (tombstone/insert with ID recycling) stays in lockstep.
//! 2. **base + deltas == full snapshot after compaction** — capturing a
//!    delta after every churn step and compacting yields base bytes
//!    identical to a fresh full capture of the final state, channels
//!    included. A [`ReplayState`] fed the same records (what a replication
//!    follower holds) restores to that state directly, exactly as its
//!    re-based log does.
//! 3. **the persisted format does not move** — the encoded log of a fixed
//!    churn script hashes to a pinned value.

use proptest::prelude::*;
use rtgs_math::{Quat, Se3, Vec3};
use rtgs_render::{FrameArena, Gaussian3d, PinholeCamera, ShardedScene};
use rtgs_runtime::{Backend, Parallel, Serial};
use rtgs_snapshot::{decode_scene, encode_scene, Channel, CheckpointLog, ReplayState};

fn arb_gaussian() -> impl Strategy<Value = Gaussian3d> {
    (
        (-6.0f32..6.0, -3.0f32..3.0, -4.0f32..9.0),
        (0.02f32..0.5),
        (-1.0f32..1.0, -1.0f32..1.0, -1.0f32..1.0, -2.0f32..2.0),
        0.05f32..0.98,
        (0.0f32..1.0, 0.0f32..1.0, 0.0f32..1.0),
    )
        .prop_map(|((x, y, z), s, (ax, ay, az, angle), o, (r, g, b))| {
            Gaussian3d::from_activated(
                Vec3::new(x, y, z),
                Vec3::splat(s),
                Quat::from_axis_angle(Vec3::new(ax, ay, az + 0.1), angle),
                o,
                Vec3::new(r, g, b),
            )
        })
}

/// Churn script: initial inserts, tombstones (by index modulo the live
/// range), reinserts that recycle freed slots.
fn arb_map() -> impl Strategy<Value = ShardedScene> {
    (
        prop::collection::vec(arb_gaussian(), 4..60),
        prop::collection::vec(0u16..u16::MAX, 0..12),
        prop::collection::vec(arb_gaussian(), 0..10),
        0.3f32..1.8,
    )
        .prop_map(|(initial, tombstones, reinserts, cell_size)| {
            let mut map = ShardedScene::new(cell_size);
            for g in &initial {
                map.insert(*g);
            }
            for &t in &tombstones {
                map.tombstone((t as usize % initial.len()) as u32);
            }
            for g in &reinserts {
                map.insert(*g);
            }
            map
        })
        .prop_filter("need a non-empty map", |m| !m.is_empty())
}

/// Culls and renders `map` through an arena — the production frame path.
fn render_map(
    map: &ShardedScene,
    pose: &Se3,
    cam: &PinholeCamera,
    backend: &dyn Backend,
) -> FrameArena {
    let mut arena = FrameArena::new();
    arena.cull(map, pose, cam, None, backend);
    arena.project_visible(pose, cam, backend);
    arena.assign_tiles(cam, backend);
    arena.render(cam, backend);
    arena
}

fn camera() -> PinholeCamera {
    PinholeCamera::from_fov(48, 36, 1.2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Contract 1: a restored map renders bitwise-identically to the live
    /// map at pool sizes 1–8 and stays bit-equivalent under continued
    /// tombstone/recycle churn.
    #[test]
    fn save_load_render_is_bitwise_identical(
        map in arb_map(),
        t in prop::array::uniform3(-1.5f32..1.5),
        churn in prop::collection::vec((0u16..u16::MAX, arb_gaussian()), 0..8),
    ) {
        let mut live = map;
        let bytes = encode_scene(&live);
        let mut restored = decode_scene(&bytes).expect("snapshot decodes");
        prop_assert_eq!(restored.export_state(), live.export_state());

        let cam = camera();
        let pose = Se3::from_translation(Vec3::new(t[0], t[1], t[2]));
        live.refresh_bounds();
        restored.refresh_bounds();

        for threads in 1..=8usize {
            let backend = Parallel::new(threads);
            let a = render_map(&live, &pose, &cam, &backend);
            let b = render_map(&restored, &pose, &cam, &backend);
            prop_assert_eq!(&a.visible().ids, &b.visible().ids, "{} threads: visible set", threads);
            prop_assert_eq!(&a.output().image, &b.output().image, "{} threads: image", threads);
            prop_assert_eq!(&a.output().depth, &b.output().depth, "{} threads: depth", threads);
            prop_assert_eq!(
                &a.output().final_transmittance, &b.output().final_transmittance,
                "{} threads: transmittance", threads
            );
        }

        // Continued churn stays in lockstep: the same mutation script
        // recycles the same IDs into the same shards on both maps.
        for (sel, g) in churn {
            let target = (sel as u32) % (live.capacity() as u32);
            prop_assert_eq!(live.tombstone(target), restored.tombstone(target));
            let a = live.insert(g);
            let b = restored.insert(g);
            prop_assert_eq!(a, b, "recycled IDs diverged");
        }
        prop_assert_eq!(live.export_state(), restored.export_state());
    }

    /// Contract 2: after arbitrary churn captured as a delta chain,
    /// compaction produces a base byte-identical to a fresh full snapshot
    /// of the same state — scene sections and channel rows alike.
    #[test]
    fn compacted_delta_chain_equals_fresh_full_snapshot(
        map in arb_map(),
        churn in prop::collection::vec((0u16..u16::MAX, arb_gaussian(), -1.0f32..1.0), 1..10),
    ) {
        let mut map = map;
        let mut moments = Channel::zeroed("adam.m", 3, map.capacity());
        let mut log = CheckpointLog::new();
        let _ = log.capture(&map, &[moments.clone()], b"step-0").expect("base capture");
        let mut replay = ReplayState::from_base(log.base_bytes()).expect("base replays");

        for (round, (sel, g, dv)) in churn.into_iter().enumerate() {
            // One churn step: tombstone, recycle-insert, nudge a survivor
            // and its channel row (the channel contract: rows change only
            // together with a Gaussian mutation).
            let target = (sel as u32) % (map.capacity() as u32);
            map.tombstone(target);
            let id = map.insert(g);
            moments.data.resize(map.capacity() * 3, 0.0);
            let row = id as usize * 3;
            moments.data[row..row + 3].copy_from_slice(&[dv, -dv, dv * 0.5]);
            let survivor = map.live_ids().next();
            if let Some(survivor) = survivor {
                map.gaussian_mut(survivor).opacity += dv * 0.01;
                moments.data[survivor as usize * 3] += dv;
            }
            let stats = log
                .capture(&map, &[moments.clone()], format!("step-{}", round + 1).as_bytes())
                .expect("delta capture");
            prop_assert!(!stats.is_base);
            prop_assert!(stats.shards_written <= stats.total_shards);
            replay.apply_delta(log.delta_bytes(round).expect("captured")).expect("delta replays");
        }

        // The warm replay restores directly to what its re-based log (the
        // promote oracle) and the chained log restore to.
        let direct = replay.restore().expect("direct restore");
        let rebased = replay.to_log().restore().expect("re-based restore");
        let chained = log.restore().expect("chained restore");
        for (scene, channels, meta) in [&rebased, &chained] {
            prop_assert_eq!(direct.0.export_state(), scene.export_state());
            prop_assert_eq!(&direct.1, channels);
            prop_assert_eq!(&direct.2, meta);
        }
        prop_assert_eq!(direct.0.export_state(), map.export_state());

        let deltas = log.delta_count();
        prop_assert!(deltas >= 1);
        log.compact().expect("compaction");
        prop_assert_eq!(log.delta_count(), 0);

        let mut fresh = CheckpointLog::new();
        let last_meta = format!("step-{deltas}");
        let _ = fresh
            .capture(&map, &[moments], last_meta.as_bytes())
            .expect("fresh capture");
        prop_assert_eq!(log.base_bytes(), fresh.base_bytes());

        // And the compacted log restores to the live state.
        let (restored, channels, meta) = log.restore().expect("restore");
        prop_assert_eq!(restored.export_state(), map.export_state());
        prop_assert_eq!(channels.len(), 1);
        prop_assert_eq!(meta, last_meta.into_bytes());
    }
}

/// Deterministic spot-check of the full log lifecycle through disk bytes:
/// capture, churn, capture, encode, decode, restore — matching the
/// never-saved map bitwise under the serial backend.
#[test]
fn encoded_log_roundtrips_through_bytes() {
    let mut map = ShardedScene::new(0.9);
    for i in 0..30 {
        map.insert(Gaussian3d::from_activated(
            Vec3::new((i % 6) as f32 * 0.8 - 2.0, 0.0, 2.0 + (i % 5) as f32 * 0.7),
            Vec3::splat(0.06),
            Quat::IDENTITY,
            0.75,
            Vec3::new(0.9, 0.4, 0.2),
        ));
    }
    let mut log = CheckpointLog::new();
    let _ = log.capture(&map, &[], b"a").unwrap();
    map.tombstone(7);
    map.gaussian_mut(3).position.y += 0.2;
    let _ = log.capture(&map, &[], b"b").unwrap();

    let decoded = CheckpointLog::decode(&log.encode()).unwrap();
    let (mut restored, _, meta) = decoded.restore().unwrap();
    assert_eq!(meta, b"b");
    assert_eq!(restored.export_state(), map.export_state());

    map.refresh_bounds();
    restored.refresh_bounds();
    let cam = camera();
    let pose = Se3::IDENTITY;
    let a = render_map(&map, &pose, &cam, &Serial);
    let b = render_map(&restored, &pose, &cam, &Serial);
    assert_eq!(a.output().image, b.output().image);
}

/// Contract 3: the persisted container does not move. A fixed churn script
/// (insert, tombstone, recycle, growth; one ID-keyed channel; Gaussians from
/// exact binary fractions, so no libm call shapes a byte) encodes to the
/// same bytes it always has. Length and CRC-32 were re-recorded once, for
/// format version 2, whose shard records carry only the cell and the
/// ascending live members (version 1's pin was `(4127, 0xa228_dfd7)`);
/// `crc32`'s own values are pinned in `format.rs`.
#[test]
fn persisted_log_bytes_are_pinned() {
    let g = |i: u32| Gaussian3d {
        position: Vec3::new(
            i as f32 * 0.75 - 3.0,
            (i % 3) as f32 * 0.5,
            2.0 + (i % 5) as f32,
        ),
        log_scale: Vec3::new(-2.5, -2.25, -2.0 - (i % 2) as f32 * 0.5),
        rotation: Quat::new(1.0, 0.0, 0.0, 0.0),
        opacity: 0.5 + (i % 4) as f32 * 0.125,
        color: Vec3::new(0.25, 0.5, (i % 8) as f32 * 0.125),
    };
    let mut map = ShardedScene::new(1.0);
    for i in 0..24 {
        map.insert(g(i));
    }
    let mut moments = Channel::zeroed("adam.m", 2, map.capacity());
    let touch = |moments: &mut Channel, map: &ShardedScene, id: u32, v: f32| {
        moments.data.resize(map.capacity() * 2, 0.0);
        moments.data[id as usize * 2..][..2].copy_from_slice(&[v, -v]);
    };
    let mut log = CheckpointLog::new();
    let _ = log.capture(&map, &[moments.clone()], b"frame 0").unwrap();

    // Delta 1: a nudge and two tombstones.
    map.gaussian_mut(5).position.y += 0.25;
    touch(&mut moments, &map, 5, 1.5);
    map.tombstone(3);
    map.tombstone(17);
    let _ = log.capture(&map, &[moments.clone()], b"frame 1").unwrap();

    // Delta 2: recycle both freed IDs, then grow past the old capacity.
    for i in 24..28 {
        let id = map.insert(g(i));
        touch(&mut moments, &map, id, i as f32 * 0.5);
    }
    let _ = log.capture(&map, &[moments.clone()], b"frame 2").unwrap();

    // Delta 3: nothing changed but the meta blob.
    let _ = log.capture(&map, &[moments.clone()], b"frame 3").unwrap();

    let bytes = log.encode();
    assert_eq!(
        (bytes.len(), rtgs_snapshot::crc32(&bytes)),
        (3863, 0xfdf3_d4ca),
        "persisted log bytes moved"
    );

    let (restored, channels, meta) = CheckpointLog::decode(&bytes).unwrap().restore().unwrap();
    assert_eq!(restored.export_state(), map.export_state());
    assert_eq!(channels, vec![moments]);
    assert_eq!(meta, b"frame 3");
}
