//! Zero-allocation gate for the **parallel** steady state.
//!
//! `zero_alloc.rs` holds the kernels and their buffers to zero allocations
//! on the `Serial` backend with the per-thread counter. This binary holds
//! the dispatch to the same bar: a `Parallel` iteration runs its chunks on
//! the caller *and* on pool threads, so it is asserted with the shim's
//! process-wide [`alloc_counter::total_allocations`] — which is why it is a
//! test binary of its own with a single test: no other test's thread can
//! leak into the count.
//!
//! What "steady state" means here: which of the pooled per-chunk scratch
//! values serves which tile depends on who claims which chunk, so the
//! scratch buffers reach their high-water capacities after a few
//! iterations, not after a fixed number. The test therefore waits for a
//! quiet window instead of counting warm-up iterations — a dispatch that
//! allocates per loop (one `Arc` and one `Box` per chunk, before the
//! parallel-for) never produces one. The pool's loop registry is no part
//! of the warm-up: it is sized when the pool is built for one top-level and
//! one nested loop per executor (`2 × (threads + 1)` entries — a served
//! round plus a kernel's loop under each step), so publishing never grows
//! it, here or in the first round a scheduler serves.

use rtgs_math::{Quat, Se3, Vec3};
use rtgs_render::{FrameArena, Gaussian3d, GaussianScene, LossConfig, PinholeCamera, ShardedScene};
use rtgs_runtime::{Backend, Parallel, Serial};

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

/// Consecutive allocation-free iterations that count as the steady state.
const QUIET_WINDOW: usize = 100;
/// Iterations within which the quiet window must have been seen.
const ITERATION_LIMIT: usize = 2_000;

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

#[test]
fn parallel_iterations_reach_an_allocation_free_steady_state() {
    // More than one chunk in every chunked stage: 600 Gaussians are three
    // Step ❶/❺ chunks, 75×42 is 15 tiles and as many Step ❸/❹ chunks.
    let map = ShardedScene::from_scene(&test_scene(600), 1.0);
    let mask = vec![true; map.capacity()];
    let camera = PinholeCamera::from_fov(75, 42, 1.2);
    let cfg = LossConfig::default();
    let poses = [
        Se3::IDENTITY,
        Se3::from_translation(Vec3::new(0.015, 0.01, -0.005)),
    ];
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
    let iteration = |arena: &mut FrameArena, w2c: &Se3, backend: &dyn Backend| {
        arena.cull(&map, w2c, &camera, Some(&mask), backend);
        arena.project_visible(w2c, &camera, backend);
        arena.assign_tiles(&camera, backend);
        arena.render_fused(&camera, backend);
        let loss = arena.compute_loss(&gt, None, &cfg);
        arena.backward_visible_fused(&camera, w2c, backend);
        assert!(loss.is_finite());
    };

    // Two workers beside this thread, whatever the host has.
    let backend = Parallel::new(2);
    let mut arena = FrameArena::new();
    let mut quiet = 0;
    let mut iterations = 0;
    while quiet < QUIET_WINDOW {
        assert!(
            iterations < ITERATION_LIMIT,
            "no {QUIET_WINDOW} consecutive allocation-free iterations within \
             {ITERATION_LIMIT} on the parallel backend: the dispatch (or a kernel) \
             allocates in the steady state"
        );
        let before = alloc_counter::total_allocations();
        iteration(&mut arena, &poses[iterations % 2], &backend);
        if alloc_counter::total_allocations() == before {
            quiet += 1;
        } else {
            quiet = 0;
        }
        iterations += 1;
    }
    assert!(
        iterations > QUIET_WINDOW,
        "sanity: warm-up must allocate (counter must be live)"
    );

    // The measured path is the real one: same bits as a serial arena.
    let mut serial = FrameArena::new();
    let last = &poses[(iterations - 1) % 2];
    iteration(&mut serial, last, &Serial);
    assert!(arena.output().stats.fragments_blended > 0);
    assert!(arena.backward().stats.gaussians_touched > 0);
    assert_eq!(arena.output().image, serial.output().image);
    assert_eq!(arena.backward().pose, serial.backward().pose);
    assert_eq!(arena.backward().gaussians, serial.backward().gaussians);
}
