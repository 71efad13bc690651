//! Zero-allocation regression test for the steady-state render path.
//!
//! Installs the counting global allocator from the `alloc-counter` shim and
//! drives full tracking-style iterations — frustum cull → project → CSR
//! tile assign (radix depth sort) → fused forward → loss → fused backward —
//! through one reused [`FrameArena`]. After a warm-up that establishes
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
//! and emits a flow span, as the traced ingest/track path does.
//! Observability must not cost the allocation contract.

use rtgs_math::{Quat, Se3, Vec3};
use rtgs_render::reference::backward_rewalk;
use rtgs_render::{
    FrameArena, Gaussian3d, GaussianScene, Image, LossConfig, PinholeCamera, ShardedScene,
};
use rtgs_runtime::Serial;

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
            &map.flatten().0,
            &Se3::from_translation(Vec3::new(0.02, -0.01, 0.0)),
            camera,
            None,
            &Serial,
        )
        .image
        .clone();
    let mut arena = FrameArena::new();
    let warm_start = alloc_counter::thread_allocations();
    for w2c in [pose_a, pose_b, pose_a, pose_b] {
        let loss = iteration(&mut arena, map, mask, w2c, camera, &gt, cfg);
        assert!(loss.is_finite());
    }
    let warm_allocs = alloc_counter::thread_allocations() - warm_start;
    assert!(
        warm_allocs > 0,
        "sanity: warm-up must allocate (counter must be live)"
    );
    assert!(
        arena.output().stats.fragments_blended > 0,
        "sanity: the workload must be non-trivial"
    );
    assert!(
        arena.backward().stats.gaussians_touched > 0,
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
         allocations over 6 iterations after warm-up, telemetry + journal + trace recording \
         enabled)",
        camera.width, camera.height
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
                    &map.flatten().0,
                    &Se3::from_translation(Vec3::new(0.02, -0.01, 0.0)),
                    &camera,
                    None,
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
                assert!(arena.backward().stats.gaussians_touched > 0);
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

#[test]
fn steady_state_unfused_render_backward_is_allocation_free() {
    // The unfused render and the re-walk reference driver share the arena
    // contract.
    let scene = test_scene(120);
    let w2c = Se3::IDENTITY;
    let cfg = LossConfig::default();
    for camera in [PinholeCamera::from_fov(48, 32, 1.2), cameras()[1]] {
        let gt = Image::new(camera.width, camera.height);
        let mut arena = FrameArena::new();
        // Warm-up. The pixel-grad clone is part of the *test setup*, not the
        // measured pipeline — the rewalk entry point takes external gradients.
        arena.forward(&scene, &w2c, &camera, None, &Serial);
        arena.compute_loss(&gt, None, &cfg);
        let grads = arena.loss().pixel_grads.clone();
        backward_rewalk(&mut arena, &scene, &camera, &w2c, &grads, &Serial);

        let before = alloc_counter::thread_allocations();
        for _ in 0..3 {
            arena.forward(&scene, &w2c, &camera, None, &Serial);
            arena.compute_loss(&gt, None, &cfg);
            backward_rewalk(&mut arena, &scene, &camera, &w2c, &grads, &Serial);
        }
        let steady_allocs = alloc_counter::thread_allocations() - before;
        assert_eq!(
            steady_allocs, 0,
            "unfused steady-state iterations at {}×{} must not allocate",
            camera.width, camera.height
        );
    }
}
