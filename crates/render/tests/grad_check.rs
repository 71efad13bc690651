//! Finite-difference verification of the analytic backward pass.
//!
//! These tests are the correctness anchor for the whole reproduction: the
//! SLAM optimizers, the RTGS pruning scores (Eq. 7) and the hardware
//! gradient traces all consume the gradients checked here.

use rtgs_math::{Quat, Se3, Vec3};
use rtgs_render::{
    DepthImage, FrameArena, Gaussian3d, GaussianScene, Image, LossConfig, LossKind, PinholeCamera,
};
use rtgs_runtime::Serial;

fn camera() -> PinholeCamera {
    PinholeCamera::from_fov(40, 32, 1.2)
}

fn loss_config() -> LossConfig {
    LossConfig {
        lambda_pho: 0.8,
        kind: LossKind::L2, // smooth, finite-diff friendly
        // Zero threshold keeps the depth-valid mask fixed (it then depends
        // only on the ground-truth depth), so the loss stays smooth under
        // finite perturbations.
        min_depth_coverage: 0.0,
    }
}

/// A small scene with overlapping Gaussians at different depths so the
/// blending recursion, occlusion and covariance chains are all exercised.
fn test_scene() -> GaussianScene {
    GaussianScene::from_gaussians(vec![
        Gaussian3d::from_activated(
            Vec3::new(-0.1, 0.05, 1.8),
            Vec3::new(0.25, 0.4, 0.3),
            Quat::from_axis_angle(Vec3::new(0.3, 1.0, 0.2), 0.7),
            0.55,
            Vec3::new(0.9, 0.2, 0.1),
        ),
        Gaussian3d::from_activated(
            Vec3::new(0.15, -0.1, 2.6),
            Vec3::new(0.5, 0.3, 0.35),
            Quat::from_axis_angle(Vec3::new(-0.2, 0.4, 0.9), -0.5),
            0.65,
            Vec3::new(0.1, 0.8, 0.3),
        ),
        Gaussian3d::from_activated(
            Vec3::new(0.0, 0.12, 3.4),
            Vec3::new(0.6, 0.6, 0.4),
            Quat::IDENTITY,
            0.45,
            Vec3::new(0.2, 0.3, 0.9),
        ),
    ])
}

/// Ground truth rendered from a slightly perturbed copy of the scene: the
/// residuals stay small (so f32 cancellation does not swamp the central
/// differences) and the depth map is zero outside the perturbed scene's
/// coverage, fixing the validity mask.
fn targets(cam: &PinholeCamera) -> (Image, DepthImage) {
    let mut gt_scene = test_scene();
    for (i, g) in gt_scene.gaussians.iter_mut().enumerate() {
        let s = 0.05 * (i as f32 + 1.0);
        g.position += Vec3::new(s, -s, 0.5 * s);
        g.color += Vec3::new(-0.15, 0.12, 0.1);
    }
    let mut arena = FrameArena::new();
    let out = arena.forward(&gt_scene, &Se3::IDENTITY, cam, None, &Serial);
    (out.image.clone(), out.depth.clone())
}

/// The production iteration (project → tiles → fused render → loss) on a
/// fresh arena; returns the arena for the backward pass and the loss.
fn forward_loss(
    scene: &GaussianScene,
    pose: &Se3,
    gt_img: &Image,
    gt_depth: &DepthImage,
) -> (FrameArena, f32) {
    let cam = camera();
    let mut arena = FrameArena::new();
    arena.project(scene, pose, &cam, None, &Serial);
    arena.assign_tiles(&cam, &Serial);
    arena.render_fused(&cam, &Serial);
    let loss = arena.compute_loss(gt_img, Some(gt_depth), &loss_config());
    (arena, loss)
}

fn eval_loss(scene: &GaussianScene, pose: &Se3) -> f32 {
    let (gt_img, gt_depth) = targets(&camera());
    forward_loss(scene, pose, &gt_img, &gt_depth).1
}

fn analytic_grads(scene: &GaussianScene, pose: &Se3) -> rtgs_render::BackwardOutput {
    let (gt_img, gt_depth) = targets(&camera());
    let (mut arena, _) = forward_loss(scene, pose, &gt_img, &gt_depth);
    arena.backward_fused(scene, &camera(), pose, &Serial);
    arena.backward().clone()
}

/// Relative-error comparison with an absolute floor for near-zero gradients.
///
/// The tolerance is bounded by the loss landscape itself, not the analytic
/// math: the `ALPHA_MIN` fragment cutoff and the 3σ tile-bounding radius
/// make the rendered loss piecewise-smooth with micro-steps of ~1e-7, so
/// central differences on large fuzzy splats bottom out around 10–20%%
/// relative error regardless of step size (verified by an ε sweep). The
/// zero-gradient-at-optimum and descent-direction tests below pin down
/// correctness where finite differences cannot.
fn check(analytic: f32, numeric: f32, label: &str) {
    let scale = analytic.abs().max(numeric.abs()).max(2e-4);
    let rel = (analytic - numeric).abs() / scale;
    assert!(
        rel < 0.20,
        "{label}: analytic {analytic:.6e} vs numeric {numeric:.6e} (rel {rel:.3})"
    );
}

const EPS: f32 = 2e-3;

#[test]
fn position_gradients_match_finite_differences() {
    let scene = test_scene();
    let pose = Se3::IDENTITY;
    let grads = analytic_grads(&scene, &pose);
    for gi in 0..scene.len() {
        for axis in 0..3 {
            let mut plus = scene.clone();
            let mut minus = scene.clone();
            plus.gaussians[gi].position[axis] += EPS;
            minus.gaussians[gi].position[axis] -= EPS;
            let numeric = (eval_loss(&plus, &pose) - eval_loss(&minus, &pose)) / (2.0 * EPS);
            check(
                grads.gaussians[gi].position[axis],
                numeric,
                &format!("gaussian {gi} position[{axis}]"),
            );
        }
    }
}

#[test]
fn color_gradients_match_finite_differences() {
    let scene = test_scene();
    let pose = Se3::IDENTITY;
    let grads = analytic_grads(&scene, &pose);
    for gi in 0..scene.len() {
        for axis in 0..3 {
            let mut plus = scene.clone();
            let mut minus = scene.clone();
            plus.gaussians[gi].color[axis] += EPS;
            minus.gaussians[gi].color[axis] -= EPS;
            let numeric = (eval_loss(&plus, &pose) - eval_loss(&minus, &pose)) / (2.0 * EPS);
            check(
                grads.gaussians[gi].color[axis],
                numeric,
                &format!("gaussian {gi} color[{axis}]"),
            );
        }
    }
}

#[test]
fn opacity_gradients_match_finite_differences() {
    let scene = test_scene();
    let pose = Se3::IDENTITY;
    let grads = analytic_grads(&scene, &pose);
    for gi in 0..scene.len() {
        let mut plus = scene.clone();
        let mut minus = scene.clone();
        plus.gaussians[gi].opacity += EPS;
        minus.gaussians[gi].opacity -= EPS;
        let numeric = (eval_loss(&plus, &pose) - eval_loss(&minus, &pose)) / (2.0 * EPS);
        check(
            grads.gaussians[gi].opacity,
            numeric,
            &format!("gaussian {gi} opacity"),
        );
    }
}

#[test]
fn log_scale_gradients_match_finite_differences() {
    let scene = test_scene();
    let pose = Se3::IDENTITY;
    let grads = analytic_grads(&scene, &pose);
    for gi in 0..scene.len() {
        for axis in 0..3 {
            let mut plus = scene.clone();
            let mut minus = scene.clone();
            plus.gaussians[gi].log_scale[axis] += EPS;
            minus.gaussians[gi].log_scale[axis] -= EPS;
            let numeric = (eval_loss(&plus, &pose) - eval_loss(&minus, &pose)) / (2.0 * EPS);
            check(
                grads.gaussians[gi].log_scale[axis],
                numeric,
                &format!("gaussian {gi} log_scale[{axis}]"),
            );
        }
    }
}

#[test]
fn rotation_gradients_match_finite_differences() {
    let scene = test_scene();
    let pose = Se3::IDENTITY;
    let grads = analytic_grads(&scene, &pose);
    for gi in 0..scene.len() {
        for comp in 0..4 {
            let perturb = |delta: f32| {
                let mut s = scene.clone();
                let q = &mut s.gaussians[gi].rotation;
                match comp {
                    0 => q.w += delta,
                    1 => q.x += delta,
                    2 => q.y += delta,
                    _ => q.z += delta,
                }
                s
            };
            let numeric =
                (eval_loss(&perturb(EPS), &pose) - eval_loss(&perturb(-EPS), &pose)) / (2.0 * EPS);
            check(
                grads.gaussians[gi].rotation[comp],
                numeric,
                &format!("gaussian {gi} rotation[{comp}]"),
            );
        }
    }
}

#[test]
fn pose_gradients_match_finite_differences() {
    let scene = test_scene();
    // A non-trivial pose so rotation chains are exercised.
    let pose = Se3::new(
        Quat::from_axis_angle(Vec3::new(0.1, 0.9, 0.2), 0.15),
        Vec3::new(0.05, -0.03, 0.08),
    );
    let grads = analytic_grads(&scene, &pose);
    for axis in 0..6 {
        let mut dp = [0.0f32; 6];
        dp[axis] = EPS;
        let mut dm = [0.0f32; 6];
        dm[axis] = -EPS;
        let numeric = (eval_loss(&scene, &pose.retract(dp)) - eval_loss(&scene, &pose.retract(dm)))
            / (2.0 * EPS);
        check(grads.pose[axis], numeric, &format!("pose twist[{axis}]"));
    }
}

#[test]
fn gradients_vanish_at_perfect_reconstruction() {
    // Render the scene, use its own output as ground truth: L2 loss has a
    // stationary point there.
    let scene = test_scene();
    let cam = camera();
    let pose = Se3::IDENTITY;
    let out = FrameArena::new()
        .forward(&scene, &pose, &cam, None, &Serial)
        .clone();
    // Ground-truth depth is a *surface* depth: the rendered blend divided
    // by opacity coverage (matching the dataset generator's convention).
    let mut gt_depth = out.depth.clone();
    for y in 0..cam.height {
        for x in 0..cam.width {
            let c = out.coverage(x, y);
            if c > 0.0 {
                let v = gt_depth.depth(x, y) / c;
                gt_depth.set_depth(x, y, v);
            }
        }
    }
    let (mut arena, loss) = forward_loss(&scene, &pose, &out.image, &gt_depth);
    assert!(loss < 1e-10);
    arena.backward_fused(&scene, &cam, &pose, &Serial);
    let grads = arena.backward();
    for g in &grads.gaussians {
        assert!(g.position.max_abs() < 1e-6);
        assert!(g.opacity.abs() < 1e-6);
    }
    for p in grads.pose {
        assert!(p.abs() < 1e-6);
    }
}

#[test]
fn pose_gradient_descends_loss() {
    // One small step against the gradient must not increase the loss.
    let scene = test_scene();
    let pose = Se3::new(Quat::IDENTITY, Vec3::new(0.02, 0.01, -0.01));
    let grads = analytic_grads(&scene, &pose);
    let l0 = eval_loss(&scene, &pose);
    let norm: f32 = grads.pose.iter().map(|g| g * g).sum::<f32>().sqrt();
    assert!(norm > 0.0, "pose gradient should be non-zero");
    let step = 1e-4 / norm;
    let mut delta = [0.0f32; 6];
    for (d, g) in delta.iter_mut().zip(grads.pose.iter()) {
        *d = -g * step;
    }
    let l1 = eval_loss(&scene, &pose.retract(delta));
    assert!(l1 <= l0 + 1e-9, "descent step increased loss: {l0} -> {l1}");
}
