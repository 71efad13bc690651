//! Zero-allocation regression test for the steady-state render path.
//!
//! Installs the counting global allocator from the `alloc-counter` shim and
//! drives full tracking-style iterations — frustum cull → project → CSR
//! tile assign (per-tile depth sort) → fused forward → loss → fused
//! backward — through one reused [`FrameArena`], and whole mapping
//! iterations: a bounds refresh before them and an Adam step after. After a warm-up that establishes
//! every buffer's high-water capacity, the measured iterations must perform
//! **zero** heap allocations on the calling thread.
//!
//! The assertion uses the per-thread counter with the `Serial` backend, so
//! the whole pipeline runs on this thread and the measurement is immune to
//! allocations from the test harness's other threads. (The parallel
//! backend's dispatch allocates nothing either; its chunks run on pool
//! threads, so `zero_alloc_parallel.rs` holds it to the same bar with the
//! process-wide counter in a test binary of its own — see CONTRIBUTING.md
//! "Zero-allocation steady state".)
//!
//! The measured iterations run with **telemetry recording on**: span
//! tracing enabled, the thread ring pre-warmed, a histogram recorded and a
//! span emitted per iteration — exactly what the instrumented SLAM hot path
//! does. The flight-recorder surfaces are held to the same bar: the
//! black-box journal is enabled and pre-warmed, and every measured
//! iteration mints a [`rtgs_telemetry::TraceCtx`], records a journal event
//! and emits a flow span, as the traced ingest/track path does. So is the
//! load shedder's [`rtgs_telemetry::RecentWindow`]: every measured
//! iteration records into it and queries its p99, as `OpenLoopSession`
//! does per frame. Observability must not cost the allocation contract.

use rtgs_math::{Quat, Se3, Vec3};
use rtgs_render::reference::{backward_rewalk, RewalkScratch};
use rtgs_render::{
    FrameArena, Gaussian3d, GaussianScene, GradSet, Image, LossConfig, PinholeCamera, ShardedScene,
};
use rtgs_runtime::Serial;
use rtgs_slam::{MapLearningRates, MapOptimizer};

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

fn test_scene(n: usize) -> GaussianScene {
    // Deterministic pseudo-random layout spanning several tiles and depths.
    (0..n)
        .map(|i| {
            let fx = ((i * 37) % 23) as f32 / 23.0 - 0.5;
            let fy = ((i * 17) % 11) as f32 / 11.0 - 0.5;
            let fz = 1.2 + ((i * 29) % 19) as f32 * 0.15;
            Gaussian3d::from_activated(
                Vec3::new(fx * 1.6, fy * 1.2, fz),
                Vec3::splat(0.06 + ((i % 5) as f32) * 0.02),
                Quat::from_axis_angle(Vec3::new(0.3, 0.2, 0.9), (i % 7) as f32 * 0.4),
                0.35 + ((i % 3) as f32) * 0.2,
                Vec3::new(
                    (i % 4) as f32 * 0.25,
                    (i % 5) as f32 * 0.2,
                    (i % 6) as f32 * 0.15,
                ),
            )
        })
        .collect()
}

/// The cameras both gates run at: whole 4×4 subtiles, and the 75×42 frame
/// of a benchmark session (partial edge tiles and subtiles, so idle lanes
/// and out-of-image subtiles are on the measured path).
fn cameras() -> [PinholeCamera; 2] {
    [
        PinholeCamera::from_fov(64, 48, 1.2),
        PinholeCamera::from_fov(75, 42, 1.2),
    ]
}

/// One steady-state tracking-style iteration, entirely on arena storage.
fn iteration(
    arena: &mut FrameArena,
    map: &ShardedScene,
    mask: &[bool],
    w2c: &Se3,
    camera: &PinholeCamera,
    gt: &Image,
    cfg: &LossConfig,
) -> f32 {
    arena.cull(map, w2c, camera, Some(mask), &Serial);
    arena.project_visible(w2c, camera, &Serial);
    arena.assign_tiles(camera, &Serial);
    arena.render_fused(camera, &Serial);
    let loss = arena.compute_loss(gt, None, cfg);
    arena.backward_visible_fused(camera, w2c, &Serial);
    loss
}

#[test]
fn steady_state_iteration_performs_zero_allocations() {
    let map = ShardedScene::from_scene(&test_scene(180), 1.0);
    let mask = vec![true; map.capacity()];
    let cfg = LossConfig::default();
    // Two alternating poses: warm-up establishes the high-water capacity of
    // every buffer for both, as a real tracking loop's moving pose does.
    let pose_a = Se3::IDENTITY;
    let pose_b = Se3::from_translation(Vec3::new(0.015, 0.01, -0.005));

    // Telemetry on, like an instrumented serving run: the one-time costs
    // (ring allocation, registry handle resolution) land in warm-up, after
    // which recording must be allocation-free.
    rtgs_telemetry::set_tracing_enabled(true);
    rtgs_telemetry::warm_thread_ring();
    rtgs_telemetry::set_journal_enabled(true);
    rtgs_telemetry::warm_journal();
    let iter_hist = rtgs_telemetry::global().histogram("render.zero_alloc.iter_ns");

    for camera in cameras() {
        steady_state_at(&camera, &map, &mask, &cfg, [&pose_a, &pose_b], &iter_hist);
    }
    rtgs_telemetry::set_tracing_enabled(false);
    rtgs_telemetry::set_journal_enabled(false);
    let measured = 6 * cameras().len();
    assert_eq!(
        iter_hist.count(),
        measured as u64,
        "every iteration must be recorded"
    );
    let journaled = rtgs_telemetry::journal_events()
        .iter()
        .filter(|e| e.kind == rtgs_telemetry::EventKind::ShedDegrade && e.value == 1)
        .count();
    assert!(
        journaled >= measured,
        "every iteration's journal event must land in the black-box ring"
    );
    let recorded: usize = rtgs_telemetry::collect_spans()
        .iter()
        .map(|(_, events)| {
            events
                .iter()
                .filter(|e| e.name == "render.zero_alloc.iter")
                .count()
        })
        .sum();
    assert_eq!(
        recorded, measured,
        "every iteration span must be in the ring"
    );
}

/// Warms a fresh arena up at `camera` and asserts that six further
/// iterations, alternating between the two poses, allocate nothing.
fn steady_state_at(
    camera: &PinholeCamera,
    map: &ShardedScene,
    mask: &[bool],
    cfg: &LossConfig,
    [pose_a, pose_b]: [&Se3; 2],
    iter_hist: &rtgs_telemetry::Histogram,
) {
    // Ground truth: the scene rendered from a slightly shifted pose, so the
    // loss and its gradients are dense and non-trivial.
    let gt = FrameArena::new()
        .forward(
            map,
            &Se3::from_translation(Vec3::new(0.02, -0.01, 0.0)),
            camera,
            &Serial,
        )
        .image
        .clone();
    let mut arena = FrameArena::new();
    let warm_start = alloc_counter::thread_allocations();
    // The shedder's window: built (its two buffers allocated) in warm-up.
    let mut recent = rtgs_telemetry::RecentWindow::new(4);
    for w2c in [pose_a, pose_b, pose_a, pose_b] {
        let loss = iteration(&mut arena, map, mask, w2c, camera, &gt, cfg);
        assert!(loss.is_finite());
        recent.record(1);
        recent.p99();
    }
    let warm_allocs = alloc_counter::thread_allocations() - warm_start;
    assert!(
        warm_allocs > 0,
        "sanity: warm-up must allocate (counter must be live)"
    );
    assert!(
        arena.fragments().total_fragments() > 0,
        "sanity: the workload must be non-trivial"
    );
    assert!(
        arena.backward().stats.fragment_grad_events > 0,
        "sanity: gradients must flow"
    );

    // Steady state: zero allocations across full iterations, including the
    // pose the arena did not run last — with a span and a histogram sample
    // recorded per iteration, as the instrumented pipeline does.
    let before = alloc_counter::thread_allocations();
    for (i, w2c) in [pose_a, pose_b, pose_a, pose_b, pose_a, pose_b]
        .into_iter()
        .enumerate()
    {
        let t0 = std::time::Instant::now();
        let trace = rtgs_telemetry::TraceCtx::fresh();
        let _span = rtgs_telemetry::SpanGuard::new("render.zero_alloc.iter", "stage", 0);
        let loss = iteration(&mut arena, map, mask, w2c, camera, &gt, cfg);
        let iter_ns = t0.elapsed().as_nanos() as u64;
        iter_hist.record(iter_ns);
        // The open-loop session's per-frame shed check, on a wrapped window.
        recent.record(iter_ns.max(2));
        assert!(recent.p99() >= 1);
        // The traced hot path's per-frame flight-recorder cost: one journal
        // event and one flow span, stamped with the frame's trace context.
        rtgs_telemetry::journal_record(
            rtgs_telemetry::EventKind::ShedDegrade,
            0,
            trace.trace_id,
            i as u64,
            1,
        );
        rtgs_telemetry::emit_flow_span(
            "render.zero_alloc.flow",
            "flight",
            rtgs_telemetry::ns_since_epoch(t0),
            iter_ns,
            i as u64,
            trace.trace_id,
            0,
        );
        assert!(loss.is_finite());
    }
    let steady_allocs = alloc_counter::thread_allocations() - before;
    assert_eq!(
        steady_allocs, 0,
        "steady-state iterations at {}×{} must not allocate (counted {steady_allocs} \
         allocations over 6 iterations after warm-up, telemetry + journal + trace + \
         recent-window recording enabled)",
        camera.width, camera.height
    );
    assert!(
        recent.quantile(0.0) >= 2,
        "the measured samples slid the warm-up ones out of the window"
    );
}

/// A session under downsampled tracking or SLO shedding alternates between
/// its full resolution and a coarser one. Every tile-indexed buffer (R&B
/// records, Step-❹ partials) keeps its high-water slots while the grid is
/// small, so after one warm cycle through both resolutions nothing is
/// allocated again — the 15-tile frame does not pay for the 6-tile one.
#[test]
fn alternating_resolutions_allocate_nothing_after_one_warm_cycle() {
    let map = ShardedScene::from_scene(&test_scene(180), 1.0);
    let mask = vec![true; map.capacity()];
    let cfg = LossConfig::default();
    let poses = [
        Se3::IDENTITY,
        Se3::from_translation(Vec3::new(0.015, 0.01, -0.005)),
    ];
    // 75×42 is 5×3 tiles, its 2× downsample 3×2.
    let frames: Vec<(PinholeCamera, Image)> = [(75, 42), (38, 21)]
        .into_iter()
        .map(|(w, h)| {
            let camera = PinholeCamera::from_fov(w, h, 1.2);
            let gt = FrameArena::new()
                .forward(
                    &map,
                    &Se3::from_translation(Vec3::new(0.02, -0.01, 0.0)),
                    &camera,
                    &Serial,
                )
                .image
                .clone();
            (camera, gt)
        })
        .collect();
    let mut arena = FrameArena::new();
    let cycle = |arena: &mut FrameArena| {
        for (camera, gt) in &frames {
            for w2c in &poses {
                let loss = iteration(arena, &map, &mask, w2c, camera, gt, &cfg);
                assert!(loss.is_finite());
                assert!(arena.backward().stats.fragment_grad_events > 0);
            }
        }
    };

    let warm_start = alloc_counter::thread_allocations();
    cycle(&mut arena);
    assert!(
        alloc_counter::thread_allocations() > warm_start,
        "sanity: the warm cycle must allocate (counter must be live)"
    );
    let before = alloc_counter::thread_allocations();
    for _ in 0..3 {
        cycle(&mut arena);
    }
    let steady_allocs = alloc_counter::thread_allocations() - before;
    assert_eq!(
        steady_allocs, 0,
        "alternating 75×42 ↔ 38×21 must not allocate after one warm cycle"
    );
}

/// What a base pipeline's tracked frame runs, then a keyframe's mapping
/// iteration: pose-only iterations, a last trial that stops after its loss
/// (no backward), then a full iteration — the gradient rows the pose-only
/// passes leave empty are refilled from kept capacity, and nothing
/// allocates once one such cycle has run.
#[test]
fn pose_only_frames_and_a_backwardless_last_trial_allocate_nothing() {
    let map = ShardedScene::from_scene(&test_scene(180), 1.0);
    let mask = vec![true; map.capacity()];
    let cfg = LossConfig::default();
    let poses = [
        Se3::IDENTITY,
        Se3::from_translation(Vec3::new(0.015, 0.01, -0.005)),
        Se3::from_translation(Vec3::new(-0.01, 0.005, 0.01)),
    ];
    for camera in cameras() {
        let gt = Image::new(camera.width, camera.height);
        let mut arena = FrameArena::new();
        let forward = |arena: &mut FrameArena, w2c: &Se3| {
            arena.cull(&map, w2c, &camera, Some(&mask), &Serial);
            arena.project_visible(w2c, &camera, &Serial);
            arena.assign_tiles(&camera, &Serial);
            arena.render_fused(&camera, &Serial);
            arena.compute_loss(&gt, None, &cfg)
        };
        let cycle = |arena: &mut FrameArena| {
            let (last, trials) = poses.split_last().unwrap();
            for w2c in trials {
                assert!(forward(arena, w2c).is_finite());
                arena.backward_visible_grads(&camera, w2c, GradSet::PoseOnly, &Serial);
                assert!(arena.backward().gaussians.is_empty());
                assert!(arena.backward().stats.fragment_grad_events > 0);
            }
            assert!(forward(arena, last).is_finite());
            assert!(forward(arena, &poses[0]).is_finite());
            arena.backward_visible_fused(&camera, &poses[0], &Serial);
            assert_eq!(arena.backward().gaussians.len(), arena.visible().ids.len());
        };
        let warm_start = alloc_counter::thread_allocations();
        cycle(&mut arena);
        assert!(
            alloc_counter::thread_allocations() > warm_start,
            "sanity: the warm cycle must allocate (counter must be live)"
        );
        let before = alloc_counter::thread_allocations();
        for _ in 0..3 {
            cycle(&mut arena);
        }
        let steady_allocs = alloc_counter::thread_allocations() - before;
        assert_eq!(
            steady_allocs, 0,
            "pose-only tracking + mapping at {}×{} must not allocate after one warm cycle",
            camera.width, camera.height
        );
    }
}

/// What a tracked frame runs since trials share a scope: trials through
/// [`FrameArena::trials`] — the first gathers and keeps Step ❶'s
/// activations, the next reuse them, a mid-frame mask change (an RTGS
/// pruning point) gathers and keeps anew — then a keyframe's mapping
/// iteration outside the scope, at the session frame and at the 18×10 frame
/// of factor-4 tracking. Nothing allocates once one such cycle has run.
#[test]
fn trial_scopes_and_mask_changes_allocate_nothing() {
    let map = ShardedScene::from_scene(&test_scene(180), 1.0);
    let live = vec![true; map.capacity()];
    let pruned: Vec<bool> = (0..map.capacity()).map(|id| id % 3 != 0).collect();
    let cfg = LossConfig::default();
    let poses = [
        Se3::IDENTITY,
        Se3::from_translation(Vec3::new(0.015, 0.01, -0.005)),
        Se3::from_translation(Vec3::new(-0.01, 0.005, 0.01)),
    ];
    for camera in [cameras()[1], PinholeCamera::from_fov(18, 10, 1.2)] {
        let gt = Image::new(camera.width, camera.height);
        let mut arena = FrameArena::new();
        let cycle = |arena: &mut FrameArena| {
            {
                let mut trials = arena.trials(&map);
                for (i, w2c) in poses.iter().chain(&poses).enumerate() {
                    let mask = if i < 2 { &live } else { &pruned };
                    trials.cull(w2c, &camera, Some(mask), &Serial);
                    trials.project_visible(w2c, &camera, &Serial);
                    trials.assign_tiles(&camera, &Serial);
                    trials.render_fused(&camera, &Serial);
                    assert!(trials.compute_loss(&gt, None, &cfg).is_finite());
                    trials.backward_visible_grads(&camera, w2c, GradSet::PoseOnly, &Serial);
                }
            }
            let loss = iteration(arena, &map, &live, &poses[0], &camera, &gt, &cfg);
            assert!(loss.is_finite());
            assert!(arena.backward().stats.fragment_grad_events > 0);
        };
        let warm_start = alloc_counter::thread_allocations();
        cycle(&mut arena);
        assert!(
            alloc_counter::thread_allocations() > warm_start,
            "sanity: the warm cycle must allocate (counter must be live)"
        );
        let before = alloc_counter::thread_allocations();
        for _ in 0..3 {
            cycle(&mut arena);
        }
        let steady_allocs = alloc_counter::thread_allocations() - before;
        assert_eq!(
            steady_allocs, 0,
            "scoped trials + mapping at {}×{} must not allocate after one warm cycle",
            camera.width, camera.height
        );
    }
}

/// One whole mapping iteration, as each of a keyframe's runs it: bounds
/// refresh → cull → project → tile-bin → fused render → loss (with a depth
/// target) → `Full` backward → Adam step — at the session frame and at the
/// 18×10 frame. The refresh's stale indices, the Adam step's change flags
/// and every arena buffer are kept storage. The Adam step moves the map
/// every iteration, so a tile's fragment count can still set a new
/// high-water mark after warm-up, and the steady state is reached, not
/// counted (as the parallel gate does): within [`MAPPING_LIMIT`] iterations
/// there must be [`MAPPING_QUIET`] in a row that allocate nothing, which an
/// allocation per iteration never allows.
#[test]
fn mapping_iterations_reach_an_allocation_free_steady_state() {
    const MAPPING_QUIET: usize = 10;
    const MAPPING_LIMIT: usize = 200;
    let cfg = LossConfig::default();
    let pose = Se3::IDENTITY;
    for camera in [cameras()[1], PinholeCamera::from_fov(18, 10, 1.2)] {
        let mut map = ShardedScene::from_scene(&test_scene(180), 1.0);
        let target = FrameArena::new()
            .forward(
                &map,
                &Se3::from_translation(Vec3::new(0.02, -0.01, 0.0)),
                &camera,
                &Serial,
            )
            .clone();
        let mut optimizer = MapOptimizer::new(map.capacity(), MapLearningRates::default());
        let mut arena = FrameArena::new();
        let mut mapping = |arena: &mut FrameArena, map: &mut ShardedScene| {
            map.refresh_bounds_with(&Serial);
            arena.cull(map, &pose, &camera, None, &Serial);
            arena.project_visible(&pose, &camera, &Serial);
            arena.assign_tiles(&camera, &Serial);
            arena.render_fused(&camera, &Serial);
            let loss = arena.compute_loss_with(&target.image, Some(&target.depth), &cfg, &Serial);
            assert!(loss.is_finite());
            arena.backward_visible_fused(&camera, &pose, &Serial);
            let (ids, grads) = (&arena.visible().ids, &arena.backward().gaussians);
            assert!(
                grads.iter().any(|g| g.position != Vec3::ZERO),
                "gradients flow"
            );
            optimizer.step_visible_with(map, ids, grads, &Serial);
        };
        let (mut quiet, mut iterations) = (0, 0);
        while quiet < MAPPING_QUIET {
            assert!(
                iterations < MAPPING_LIMIT,
                "no {MAPPING_QUIET} allocation-free mapping iterations in a row within \
                 {MAPPING_LIMIT} at {}×{}: a mapping stage allocates in the steady state",
                camera.width,
                camera.height
            );
            let before = alloc_counter::thread_allocations();
            mapping(&mut arena, &mut map);
            if alloc_counter::thread_allocations() == before {
                quiet += 1;
            } else {
                quiet = 0;
            }
            iterations += 1;
        }
        assert!(
            iterations > MAPPING_QUIET,
            "sanity: warm-up must allocate (counter must be live)"
        );
    }
}

#[test]
fn steady_state_unfused_render_backward_is_allocation_free() {
    // The unfused render and the re-walk reference driver share the arena
    // contract; the re-walk's own buffers are the caller's `RewalkScratch`.
    let map = ShardedScene::from_scene(&test_scene(120), 1.0);
    let w2c = Se3::IDENTITY;
    let cfg = LossConfig::default();
    for camera in [PinholeCamera::from_fov(48, 32, 1.2), cameras()[1]] {
        let gt = Image::new(camera.width, camera.height);
        let mut arena = FrameArena::new();
        // Warm-up. The pixel-grad and gathered-scene clones are part of the
        // *test setup*, not the measured pipeline — the rewalk entry point
        // takes external gradients and the scene the projection was built
        // from, which every forward at this pose gathers anew, bit for bit.
        arena.forward(&map, &w2c, &camera, &Serial);
        arena.compute_loss(&gt, None, &cfg);
        let grads = arena.loss().pixel_grads.clone();
        let gathered = arena.visible().scene.clone();
        let mut rewalk = RewalkScratch::default();
        backward_rewalk(
            &mut arena,
            &gathered,
            &camera,
            &w2c,
            &grads,
            &Serial,
            &mut rewalk,
        );

        let before = alloc_counter::thread_allocations();
        for _ in 0..3 {
            arena.forward(&map, &w2c, &camera, &Serial);
            arena.compute_loss(&gt, None, &cfg);
            backward_rewalk(
                &mut arena,
                &gathered,
                &camera,
                &w2c,
                &grads,
                &Serial,
                &mut rewalk,
            );
        }
        let steady_allocs = alloc_counter::thread_allocations() - before;
        assert_eq!(
            steady_allocs, 0,
            "unfused steady-state iterations at {}×{} must not allocate",
            camera.width, camera.height
        );
    }
}
