//! Satellite: property tests over seeded fault plans.
//!
//! Contract: for **any** seeded [`FaultPlan`] whose faults are lossy but
//! not total, a replicated scene converges to the primary bitwise — at
//! render-pool sizes 1–8 — or the follower surfaces a typed resync along
//! the way. Never a panic, never silent divergence. Primary-side
//! `compact()` calls interleaved anywhere in the stream must be invisible
//! to the follower. Total loss must surface a typed error, not a hang.

use proptest::prelude::*;
use rtgs_math::{Quat, Se3, Vec3};
use rtgs_render::{FrameArena, Gaussian3d, PinholeCamera, ShardedScene};
use rtgs_replicate::{
    duplex_pair, DuplexLink, FaultPlan, Follower, ReplicationError, ReplicationPolicy, Replicator,
};
use rtgs_runtime::{Backend, Parallel};

const FINGERPRINT: u64 = 0xC0FFEE;

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

fn g_at(x: f32, y: f32, z: f32) -> Gaussian3d {
    Gaussian3d::from_activated(
        Vec3::new(x, y, z),
        Vec3::splat(0.08),
        Quat::IDENTITY,
        0.8,
        Vec3::new(0.2, 0.5, 0.9),
    )
}

/// A lossy-but-recoverable plan: every fault class active, none certain.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        (0u64..1_000, 0.0f64..0.5, 0.0f64..0.4),
        (0.0f64..0.3, 0.0f64..0.3, 0.0f64..0.5, 1u32..4),
    )
        .prop_map(
            |((seed, drop, duplicate), (truncate, corrupt, delay, ticks))| {
                FaultPlan::lossless(seed)
                    .with_drop(drop)
                    .with_duplicate(duplicate)
                    .with_truncate(truncate)
                    .with_corrupt(corrupt)
                    .with_delay(delay, ticks)
            },
        )
}

/// Drives `frames` churn steps through a replicated stream under `plan`,
/// compacting the primary's log at every frame in `compact_at`.
/// Returns the primary scene and the converged follower.
fn run_stream(
    plan: FaultPlan,
    frames: u64,
    churn: &[(u8, f32)],
    compact_at: &[u64],
) -> Result<(ShardedScene, Replicator<DuplexLink>, Follower<DuplexLink>), ReplicationError> {
    let (a, b) = duplex_pair();
    // Generous retry budget: recoverable plans must converge, and the
    // bounded settle loop below turns a livelock into a loud failure.
    let policy = ReplicationPolicy::new()
        .with_retransmit_after(1)
        .with_backoff_cap(4)
        .with_max_attempts(200);
    let mut primary = Replicator::new(a, FINGERPRINT, policy, plan);
    let mut follower = Follower::new(b, FINGERPRINT);

    let mut map = ShardedScene::new(1.0);
    for i in 0..6 {
        map.insert(g_at(i as f32 * 1.4 - 4.0, 0.0, 3.0));
    }
    for frame in 0..frames {
        let (sel, nudge) = churn[frame as usize % churn.len()];
        map.gaussian_mut(u32::from(sel) % 6).position.y += nudge;
        primary.on_frame(frame, |log| log.capture(&map, &[], b"prop"))?;
        primary.pump()?;
        follower.pump()?;
        if compact_at.contains(&frame) {
            primary.compact()?;
        }
    }
    for _ in 0..20_000 {
        if primary.outstanding() == 0 {
            return Ok((map, primary, follower));
        }
        primary.pump()?;
        follower.pump()?;
    }
    panic!(
        "stream livelocked: {} outstanding under {:?}",
        primary.outstanding(),
        primary.fault_stats()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any recoverable fault plan converges bitwise (render-equivalent at
    /// pool sizes 1–8), with interleaved primary compaction.
    #[test]
    fn any_seeded_plan_converges_bitwise_or_resyncs(
        plan in arb_plan(),
        churn in prop::collection::vec((0u8..6, -0.2f32..0.2), 1..6),
        compact_at in prop::collection::vec(0u64..12, 0..3),
    ) {
        let (live, primary, follower) = run_stream(plan, 12, &churn, &compact_at)
            .expect("recoverable plans must not surface errors");

        prop_assert!(follower.is_warm());
        prop_assert_eq!(primary.stats().frames_behind, 0);

        let (mut standby, _, _) = follower.standby().unwrap().restore().unwrap();
        prop_assert_eq!(standby.export_state(), live.export_state(), "silent divergence");

        // Bitwise-identical continuation is backend-independent: the
        // standby renders exactly like the live scene at every pool size.
        let mut live = live;
        live.refresh_bounds();
        standby.refresh_bounds();
        let cam = PinholeCamera::from_fov(32, 24, 1.1);
        let pose = Se3::from_translation(Vec3::new(0.0, 0.0, -1.0));
        for threads in 1..=8usize {
            let backend = Parallel::new(threads);
            let a = render_map(&live, &pose, &cam, &backend);
            let b = render_map(&standby, &pose, &cam, &backend);
            prop_assert_eq!(&a.visible().ids, &b.visible().ids, "{} threads: visible set", threads);
            prop_assert_eq!(&a.output().image, &b.output().image, "{} threads: image", threads);
            prop_assert_eq!(&a.output().depth, &b.output().depth, "{} threads: depth", threads);
        }

        // When the stream actually lost or damaged records, recovery ran
        // through the typed machinery, not luck: something was
        // retransmitted or resynced.
        let faults = primary.fault_stats();
        if faults.dropped + faults.truncated + faults.corrupted > 0 {
            let stats = primary.stats();
            prop_assert!(
                stats.retransmits + stats.resyncs + follower.resync_requests() > 0,
                "faults injected but no recovery path ran: {faults:?} {stats:?}"
            );
        }
    }

    /// Total forward loss can never hang or panic: it surfaces the typed
    /// retries-exhausted error.
    #[test]
    fn total_loss_surfaces_typed_error(seed in 0u64..1_000) {
        let plan = FaultPlan::lossless(seed).with_drop(1.0);
        let (a, b) = duplex_pair();
        let policy = ReplicationPolicy::new()
            .with_retransmit_after(1)
            .with_backoff_cap(2)
            .with_max_attempts(4);
        let mut primary = Replicator::new(a, FINGERPRINT, policy, plan);
        let mut follower = Follower::new(b, FINGERPRINT);

        let mut map = ShardedScene::new(1.0);
        map.insert(g_at(0.0, 0.0, 3.0));
        primary.on_frame(0, |log| log.capture(&map, &[], b"")).unwrap();

        let mut seen = None;
        for _ in 0..200 {
            follower.pump().unwrap();
            if let Err(e) = primary.pump() {
                seen = Some(e);
                break;
            }
        }
        match seen {
            Some(ReplicationError::RetriesExhausted { attempts, .. }) => {
                prop_assert_eq!(attempts, 4);
            }
            other => prop_assert!(false, "expected RetriesExhausted, got {:?}", other),
        }
        prop_assert!(!follower.is_warm());
    }
}
