//! Property-based tests on rasterizer invariants.

use proptest::prelude::*;
use rtgs_math::{Quat, Se3, Vec3};
use rtgs_render::{
    FrameArena, Gaussian3d, GaussianScene, Image, LossConfig, LossKind, PinholeCamera,
    ShardedScene, WorkloadTrace, DEFAULT_CELL_SIZE,
};
use rtgs_runtime::Serial;

fn arb_gaussian() -> impl Strategy<Value = Gaussian3d> {
    (
        (-0.8f32..0.8, -0.6f32..0.6, 1.0f32..4.0),
        (0.02f32..0.5),
        (-1.0f32..1.0, -1.0f32..1.0, -1.0f32..1.0, -2.0f32..2.0),
        0.1f32..0.95,
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

fn arb_scene(max: usize) -> impl Strategy<Value = GaussianScene> {
    prop::collection::vec(arb_gaussian(), 1..max).prop_map(GaussianScene::from_gaussians)
}

fn camera() -> PinholeCamera {
    PinholeCamera::from_fov(32, 24, 1.2)
}

/// The cull (under the pruning mask `active`) and Steps ❶–❸ of `scene` as
/// a map, on a fresh arena, returned for inspection.
fn rendered(
    scene: &GaussianScene,
    w2c: &Se3,
    cam: &PinholeCamera,
    active: Option<&[bool]>,
) -> FrameArena {
    let map = ShardedScene::from_scene(scene, DEFAULT_CELL_SIZE);
    let mut arena = FrameArena::new();
    arena.cull(&map, w2c, cam, active, &Serial);
    arena.project_visible(w2c, cam, &Serial);
    arena.assign_tiles(cam, &Serial);
    arena.render(cam, &Serial);
    arena
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rendering is order-independent: shuffling Gaussian insertion order
    /// (with IDs re-assigned) cannot change the image — depth sorting
    /// restores the same composite.
    #[test]
    fn render_is_insertion_order_independent(scene in arb_scene(8)) {
        let cam = camera();
        let a = rendered(&scene, &Se3::IDENTITY, &cam, None);
        let mut reversed = scene.gaussians.clone();
        reversed.reverse();
        let b = rendered(&GaussianScene::from_gaussians(reversed), &Se3::IDENTITY, &cam, None);
        for (pa, pb) in a.output().image.data().iter().zip(b.output().image.data().iter()) {
            prop_assert!((*pa - *pb).max_abs() < 2e-4, "{pa} vs {pb}");
        }
    }

    /// Pixel colors are convex-ish combinations of Gaussian colors: every
    /// channel stays within [0, max-color].
    #[test]
    fn rendered_colors_are_bounded(scene in arb_scene(10)) {
        let cam = camera();
        let max_c = scene.gaussians.iter().fold(0.0f32, |m, g| {
            m.max(g.color.x).max(g.color.y).max(g.color.z)
        });
        let ctx = rendered(&scene, &Se3::IDENTITY, &cam, None);
        for p in ctx.output().image.data() {
            prop_assert!(p.x >= -1e-6 && p.x <= max_c + 1e-4);
            prop_assert!(p.y >= -1e-6 && p.y <= max_c + 1e-4);
            prop_assert!(p.z >= -1e-6 && p.z <= max_c + 1e-4);
        }
    }

    /// Transmittance is monotone: masking a Gaussian off can only increase
    /// (or keep) every pixel's final transmittance.
    #[test]
    fn masking_increases_transmittance(scene in arb_scene(6), victim in 0usize..6) {
        let cam = camera();
        prop_assume!(victim < scene.len());
        let full = rendered(&scene, &Se3::IDENTITY, &cam, None);
        let mut mask = vec![true; scene.len()];
        mask[victim] = false;
        let masked = rendered(&scene, &Se3::IDENTITY, &cam, Some(&mask));
        for (a, b) in full
            .output()
            .final_transmittance
            .iter()
            .zip(masked.output().final_transmittance.iter())
        {
            prop_assert!(*b >= *a - 1e-5, "masking decreased transmittance: {a} -> {b}");
        }
    }

    /// The workload trace is conserved: per-pixel workloads sum to the
    /// stats' fragment count, and the subtile view preserves the total.
    #[test]
    fn trace_conservation(scene in arb_scene(10)) {
        let cam = camera();
        let mut ctx = rendered(&scene, &Se3::IDENTITY, &cam, None);
        ctx.render_fused(&cam, &Serial);
        let trace = WorkloadTrace::from_render(ctx.output(), ctx.tiles(), ctx.fragments());
        prop_assert_eq!(trace.visible_gaussians, ctx.projection().visible_count());
        prop_assert_eq!((trace.width, trace.height), (cam.width, cam.height));
        prop_assert_eq!(trace.total_fragments(), ctx.output().stats.fragments_processed);
        let subtile_total: u64 = trace
            .subtile_workloads()
            .iter()
            .flat_map(|l| l.iter())
            .map(|&w| w as u64)
            .sum();
        prop_assert_eq!(subtile_total, trace.total_fragments());
    }

    /// Backward with zero upstream gradient (the loss against the render's
    /// own image) returns exactly zero.
    #[test]
    fn zero_loss_zero_gradient(scene in arb_scene(6)) {
        let cam = camera();
        let mut arena = rendered(&scene, &Se3::IDENTITY, &cam, None);
        arena.render_fused(&cam, &Serial);
        let own = arena.output().image.clone();
        arena.compute_loss(&own, None, &LossConfig::default());
        arena.backward_visible_fused(&cam, &Se3::IDENTITY, &Serial);
        let grads = arena.backward();
        prop_assert_eq!(grads.stats.fragment_grad_events, 0);
        prop_assert_eq!(grads.pose, [0.0; 6]);
        for g in &grads.gaussians {
            prop_assert_eq!(g.position, Vec3::ZERO);
            prop_assert_eq!(g.opacity, 0.0);
        }
    }

    /// A fused backward counts one gradient event per blended fragment
    /// whose pixel carries upstream gradient, so never more events than the
    /// forward blended fragments. Against a black target every covered
    /// pixel that renders any color carries gradient; when all of them do,
    /// the two counts are equal.
    #[test]
    fn grad_events_are_bounded_by_blended_fragments(scene in arb_scene(10)) {
        let cam = camera();
        let mut arena = rendered(&scene, &Se3::IDENTITY, &cam, None);
        arena.render_fused(&cam, &Serial);
        let black = Image::new(cam.width, cam.height);
        arena.compute_loss(&black, None, &LossConfig::default());
        arena.backward_visible_fused(&cam, &Se3::IDENTITY, &Serial);
        let blended = arena.fragments().total_fragments();
        let events = arena.backward().stats.fragment_grad_events;
        prop_assert!(events <= blended, "{events} events > {blended} blended");
        let output = arena.output();
        let covered_black = output
            .image
            .data()
            .iter()
            .zip(&output.final_transmittance)
            .any(|(c, &t)| t < 1.0 && *c == Vec3::ZERO);
        if !covered_black {
            prop_assert_eq!(events, blended);
        }
    }

    /// L2 loss is symmetric in its arguments' *value*: loss(render, gt) has
    /// the same photometric value as computed from the residual directly.
    #[test]
    fn loss_is_nonnegative_and_zero_iff_match(scene in arb_scene(6)) {
        let cam = camera();
        let mut ctx = rendered(&scene, &Se3::IDENTITY, &cam, None);
        let cfg = LossConfig { lambda_pho: 1.0, kind: LossKind::L2, ..Default::default() };
        let own = ctx.output().image.clone();
        let self_loss = ctx.compute_loss(&own, None, &cfg);
        prop_assert!(self_loss.abs() < 1e-12);
        let black = Image::new(cam.width, cam.height);
        let other = ctx.compute_loss(&black, None, &cfg);
        prop_assert!(other >= 0.0);
    }

    /// Rigidly moving both the scene and the camera leaves the image
    /// unchanged (gauge invariance of the renderer).
    #[test]
    fn rigid_gauge_invariance(
        scene in arb_scene(5),
        t in prop::array::uniform3(-0.5f32..0.5),
    ) {
        let cam = camera();
        let shift = Vec3::new(t[0], t[1], t[2]);
        let a = rendered(&scene, &Se3::IDENTITY, &cam, None);
        // Move scene by +shift and camera (c2w) by +shift: w2c compensates.
        let moved: GaussianScene = scene
            .gaussians
            .iter()
            .map(|g| {
                let mut g = *g;
                g.position += shift;
                g
            })
            .collect();
        let w2c = Se3::from_translation(shift).inverse();
        let b = rendered(&moved, &w2c, &cam, None);
        for (pa, pb) in a.output().image.data().iter().zip(b.output().image.data().iter()) {
            prop_assert!((*pa - *pb).max_abs() < 5e-3, "{pa} vs {pb}");
        }
    }
}
