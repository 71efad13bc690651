//! Camera tracking: per-frame pose optimization against the current map
//! (the paper's tracking stage, Sec. 2.2).
//!
//! Each iteration starts with the sharded map's frustum-cull pre-pass:
//! shard bounding boxes are tested against the current pose's frustum and
//! only the surviving shards' Gaussians are gathered (in ascending
//! stable-ID order) into the frame-local working set the render/backward
//! kernels run on — so per-iteration cost follows the frustum's contents,
//! not the total map size, while staying bitwise-identical to rendering
//! the full map.

use crate::pipeline::PipelineExtension;
use rtgs_math::Se3;
use rtgs_render::{
    BackwardOutput, FrameArena, LossConfig, PinholeCamera, ShardedScene, TileAssignment,
    WorkloadTrace,
};
use rtgs_runtime::Backend;
use rtgs_scene::RgbdFrame;
use rtgs_telemetry::{emit_span, ns_since_epoch, StageId, StageTimings};
use std::time::Instant;

/// Tracking configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackingConfig {
    /// Optimization iterations per frame (each costs one render +
    /// backward, matching the paper's per-frame iteration counts).
    pub iterations: usize,
    /// Initial trust-region step length in meters along the normalized
    /// pose-gradient direction.
    pub initial_step: f32,
    /// Relative weighting of rotational tangent coordinates versus
    /// translational ones (radians per meter of step budget).
    pub rotation_scale: f32,
    /// Step growth factor after an accepted step.
    pub step_grow: f32,
    /// Step shrink factor after a rejected step (loss increased).
    pub step_shrink: f32,
    /// Loss configuration (Eq. 6).
    pub loss: LossConfig,
    /// Early-stop when the best loss improves by less than this relative
    /// amount over a 4-iteration window (0 disables).
    pub convergence_threshold: f32,
    /// Record per-iteration workload traces (needed by the hardware model;
    /// costs memory). The pipeline's one trace switch: a `SlamPipeline`
    /// records its mapping iterations' traces under it too.
    pub record_traces: bool,
}

impl Default for TrackingConfig {
    fn default() -> Self {
        Self {
            iterations: 12,
            initial_step: 1.2e-2,
            rotation_scale: 0.6,
            step_grow: 1.3,
            step_shrink: 0.4,
            loss: LossConfig::default(),
            convergence_threshold: 5e-4,
            record_traces: false,
        }
    }
}

/// Preconditioned trust-region step from a pose gradient.
///
/// The photometric loss around an indoor pose is extremely anisotropic
/// (forward translation and pitch/yaw have orders-of-magnitude larger
/// gradients than lateral translation), so raw steepest descent stalls.
/// The direction is preconditioned by the running RMS of each coordinate's
/// gradient (RMSprop-style), then scaled to length `step` in the weighted
/// metric.
fn pose_step(grad: &[f32; 6], rms: &[f32; 6], step: f32, rotation_scale: f32) -> [f32; 6] {
    let rms_max = rms.iter().cloned().fold(0.0f32, f32::max);
    if rms_max <= 0.0 {
        return [0.0; 6];
    }
    // Floor the preconditioner so near-zero-gradient coordinates do not
    // amplify noise.
    let eps = 1e-2 * rms_max;
    let mut d = [0.0f32; 6];
    for i in 0..6 {
        d[i] = grad[i] / (rms[i] + eps);
    }
    // Metric weighting: rotations measured in `rotation_scale` rad/m.
    let h = [
        d[0],
        d[1],
        d[2],
        d[3] * rotation_scale,
        d[4] * rotation_scale,
        d[5] * rotation_scale,
    ];
    let norm = h.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm < 1e-12 {
        return [0.0; 6];
    }
    let s = -step / norm;
    [
        s * h[0],
        s * h[1],
        s * h[2],
        s * h[3] * rotation_scale,
        s * h[4] * rotation_scale,
        s * h[5] * rotation_scale,
    ]
}

/// Artifacts of one tracking iteration, passed to
/// [`PipelineExtension::after_tracking_iteration`].
#[derive(Debug)]
pub struct IterationArtifacts<'a> {
    /// Iteration index within the frame (0 on each frame's first).
    pub iteration: usize,
    /// Full backward output in the iteration's frame-local index space
    /// (per-Gaussian gradients + pose tangent): `grads.gaussians[k]` is the
    /// gradient of the Gaussian with stable ID `visible_ids[k]`.
    pub grads: &'a BackwardOutput,
    /// Frame-local index → stable map ID for this iteration's visible
    /// working set (the frustum-cull survivors).
    pub visible_ids: &'a [u32],
    /// Tile assignment of this iteration.
    pub tiles: &'a TileAssignment,
}

/// Result of tracking one frame.
#[derive(Debug, Clone)]
pub struct TrackResult {
    /// Optimized world-to-camera pose.
    pub w2c: Se3,
    /// Loss after the final iteration.
    pub final_loss: f32,
    /// Loss per iteration.
    pub losses: Vec<f32>,
    /// Per-iteration workload traces (empty unless
    /// [`TrackingConfig::record_traces`]).
    pub traces: Vec<WorkloadTrace>,
    /// Total fragments processed across iterations (forward).
    pub fragments_processed: u64,
    /// Total fragment gradient events across iterations (backward).
    pub fragment_grad_events: u64,
}

/// Accounts one measured stage interval: adds it to the accumulator and
/// emits the stage span with the *same* nanoseconds, so the span-derived
/// breakdown and the accumulator agree exactly (asserted by the
/// `span_accounting` integration test).
#[inline]
fn record_stage(timings: &mut StageTimings, stage: StageId, start_ns: u64, dur_ns: u64, arg: u64) {
    timings.add(stage, dur_ns);
    emit_span(stage.span_name(), "stage", start_ns, dur_ns, arg);
}

/// One timed render + backward iteration — the paper's five-step frame
/// pipeline over the session arena, shared by tracking and mapping:
/// frustum cull + projection (`Preprocess`) → tile assignment (`Sorting`) →
/// fused render (`Render`) → loss → fused backward (`RenderBp`,
/// `PreprocessBp`), each interval accounted through [`record_stage`].
/// Returns the loss; gradients and stage results stay in `arena`.
///
/// Masked (pruned) IDs drop out in the cull, before any math. The fused
/// render records each pixel's fragment sequence so the backward pass
/// consumes it instead of re-walking the sorted splat lists.
#[allow(clippy::too_many_arguments)]
pub(crate) fn timed_iteration(
    arena: &mut FrameArena,
    map: &ShardedScene,
    w2c: &Se3,
    camera: &PinholeCamera,
    mask: &[bool],
    frame: &RgbdFrame,
    loss_config: &LossConfig,
    timings: &mut StageTimings,
    it: u64,
    backend: &dyn Backend,
) -> f32 {
    let t0 = Instant::now();
    arena.cull(map, w2c, camera, Some(mask), backend);
    arena.project_visible(w2c, camera, backend);
    let t1 = Instant::now();
    record_stage(
        timings,
        StageId::Preprocess,
        ns_since_epoch(t0),
        (t1 - t0).as_nanos() as u64,
        it,
    );
    arena.assign_tiles(camera, backend);
    let t2 = Instant::now();
    record_stage(
        timings,
        StageId::Sorting,
        ns_since_epoch(t1),
        (t2 - t1).as_nanos() as u64,
        it,
    );
    arena.render_fused(camera, backend);
    let t3 = Instant::now();
    record_stage(
        timings,
        StageId::Render,
        ns_since_epoch(t2),
        (t3 - t2).as_nanos() as u64,
        it,
    );

    let loss = arena.compute_loss(&frame.color, frame.depth.as_ref(), loss_config);
    arena.backward_visible_fused(camera, w2c, backend);
    let t4 = Instant::now();
    // The BP stages are measured out-of-band by the backward kernel; their
    // spans tile the [t3, t4] interval in kernel order, with the
    // unattributed remainder (the loss) as "other" — durations exact,
    // offsets reconstructed.
    let t3_ns = ns_since_epoch(t3);
    let rbp = arena.backward().stats.rendering_bp_nanos;
    let pbp = arena.backward().stats.preprocessing_bp_nanos;
    record_stage(timings, StageId::RenderBp, t3_ns, rbp, it);
    record_stage(timings, StageId::PreprocessBp, t3_ns + rbp, pbp, it);
    let other_ns = ((t4 - t3).as_nanos() as u64).saturating_sub(rbp + pbp);
    record_stage(timings, StageId::Other, t3_ns + rbp + pbp, other_ns, it);
    loss
}

/// Optimizes the camera pose of `frame` against the current sharded `map`.
///
/// `mask` selects the active Gaussians by stable ID (RTGS pruning masks
/// entries off during the frame); it must be `map.capacity()` long, with
/// tombstoned IDs masked off. `camera` and the frame observations must
/// already be at the desired resolution — the dynamic-downsampling
/// extension resizes them before calling.
///
/// After every iteration `extension`'s
/// [`PipelineExtension::after_tracking_iteration`] sees the iteration's
/// [`IterationArtifacts`] and may mask Gaussians off for the iterations
/// that follow (the RTGS adaptive pruning plugs in here). Standalone
/// callers that observe nothing pass `&mut NoExtension`.
///
/// The shard cull and every render and backward inside the pose
/// optimization run through `backend` into `arena`'s reused storage — a
/// steady-state iteration performs zero heap allocations — with results
/// bitwise-identical on a fresh arena and at any pool size. Sessions keep
/// one arena alive across frames (`SlamPipeline` owns one per session);
/// one-shot callers pass `&mut FrameArena::new()` and
/// `&rtgs_runtime::Serial`.
///
/// # Panics
///
/// Panics if `mask.len() != map.capacity()`, the frame resolution differs
/// from the camera, or the map's shard bounds are stale (call
/// [`ShardedScene::refresh_bounds_with`] after mutating it).
#[allow(clippy::too_many_arguments)]
pub fn track_frame(
    map: &ShardedScene,
    init_w2c: Se3,
    frame: &RgbdFrame,
    camera: &PinholeCamera,
    config: &TrackingConfig,
    mask: &mut [bool],
    extension: &mut dyn PipelineExtension,
    timings: &mut StageTimings,
    arena: &mut FrameArena,
    backend: &dyn Backend,
) -> TrackResult {
    assert_eq!(mask.len(), map.capacity(), "mask must cover the map arena");
    assert_eq!(frame.color.width(), camera.width, "frame/camera resolution");

    let mut w2c = init_w2c;
    let mut losses = Vec::with_capacity(config.iterations);
    let mut traces = Vec::new();
    let mut fragments_processed = 0u64;
    let mut fragment_grad_events = 0u64;
    // Trust-region state: best pose seen, its loss and gradient.
    let mut best_pose = init_w2c;
    let mut best_loss = f32::INFINITY;
    let mut best_grad = [0.0f32; 6];
    let mut best_history: Vec<f32> = Vec::with_capacity(config.iterations);
    let mut step_scale = config.initial_step;
    let max_step = config.initial_step * 4.0;
    let mut rms = [0.0f32; 6];

    for iteration in 0..config.iterations {
        let loss = timed_iteration(
            arena,
            map,
            &w2c,
            camera,
            mask,
            frame,
            &config.loss,
            timings,
            iteration as u64,
            backend,
        );
        let grad_stats = arena.backward().stats;
        let grad_pose = arena.backward().pose;

        // Trust-region accept/reject: keep the best pose, adapt the step.
        for (r, g) in rms.iter_mut().zip(grad_pose.iter()) {
            let g2 = g * g;
            *r = if iteration == 0 {
                g2.sqrt()
            } else {
                (0.9 * *r * *r + 0.1 * g2).sqrt()
            };
        }
        if loss <= best_loss {
            best_pose = w2c;
            best_loss = loss;
            best_grad = grad_pose;
            step_scale = (step_scale * config.step_grow).min(max_step);
        } else {
            step_scale *= config.step_shrink;
        }
        best_history.push(best_loss);
        let delta = pose_step(&best_grad, &rms, step_scale, config.rotation_scale);
        w2c = best_pose.retract(delta);

        fragments_processed += arena.output().stats.fragments_processed;
        fragment_grad_events += grad_stats.fragment_grad_events;
        losses.push(loss);
        if config.record_traces {
            traces.push(WorkloadTrace::from_render(
                arena.output(),
                arena.tiles(),
                camera,
                grad_stats.fragment_grad_events,
                arena.projection().visible_count(),
            ));
        }

        let artifacts = IterationArtifacts {
            iteration,
            grads: arena.backward(),
            visible_ids: &arena.visible().ids,
            tiles: arena.tiles(),
        };
        extension.after_tracking_iteration(&artifacts, mask);

        // Early stop once the best loss has plateaued or the trust region
        // collapsed.
        if config.convergence_threshold > 0.0 && best_history.len() >= 8 {
            let prev = best_history[best_history.len() - 5];
            if prev > 0.0 && (prev - best_loss) / prev < config.convergence_threshold {
                break;
            }
        }
        if step_scale < 1e-6 {
            break;
        }
    }

    TrackResult {
        w2c: best_pose,
        final_loss: best_loss.min(losses.last().copied().unwrap_or(f32::INFINITY)),
        losses,
        traces,
        fragments_processed,
        fragment_grad_events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::NoExtension;
    use rtgs_runtime::Serial;
    use rtgs_scene::{DatasetProfile, SyntheticDataset};

    fn small_dataset() -> SyntheticDataset {
        SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), 2)
    }

    fn sharded(ds: &SyntheticDataset) -> ShardedScene {
        ShardedScene::from_scene(&ds.reference_scene, 1.0)
    }

    /// Tracking must reduce the pose error of a perturbed ground-truth pose.
    ///
    /// The perturbation magnitude (~1.3 cm) matches the per-frame correction
    /// tracking performs in the pipeline; larger lateral offsets are weakly
    /// observable in the photometric loss (near-flat valley) and are
    /// covered by the full-pipeline ATE tests instead.
    #[test]
    fn tracking_recovers_perturbed_pose() {
        let ds = SyntheticDataset::generate(DatasetProfile::tum_analog(), 1);
        // Use the reference scene itself as a perfect map.
        let map = sharded(&ds);
        let gt_w2c = ds.poses_c2w[0].inverse();
        let perturbed = gt_w2c.retract([0.01, -0.0075, 0.005, 0.004, -0.003, 0.002]);
        let mut mask = vec![true; map.capacity()];
        let mut timings = StageTimings::default();
        let config = TrackingConfig {
            iterations: 20,
            ..Default::default()
        };
        let before_err = perturbed.translation_distance(&gt_w2c);
        let result = track_frame(
            &map,
            perturbed,
            &ds.frames[0],
            &ds.camera,
            &config,
            &mut mask,
            &mut NoExtension,
            &mut timings,
            &mut FrameArena::new(),
            &Serial,
        );
        let after_err = result.w2c.translation_distance(&gt_w2c);
        let before_rot = perturbed.rotation_distance(&gt_w2c);
        let after_rot = result.w2c.rotation_distance(&gt_w2c);
        assert!(
            after_err < before_err,
            "translation error should shrink: {before_err} -> {after_err}"
        );
        assert!(
            after_rot < 0.75 * before_rot,
            "rotation error should shrink: {before_rot} -> {after_rot}"
        );
        assert!(result.losses.last().unwrap() < result.losses.first().unwrap());
    }

    #[test]
    fn tracking_loss_decreases() {
        let ds = small_dataset();
        let map = sharded(&ds);
        let gt_w2c = ds.poses_c2w[0].inverse();
        let perturbed = gt_w2c.retract([0.015, 0.01, -0.01, 0.0, 0.005, 0.0]);
        let mut mask = vec![true; map.capacity()];
        let mut timings = StageTimings::default();
        let result = track_frame(
            &map,
            perturbed,
            &ds.frames[0],
            &ds.camera,
            &TrackingConfig {
                iterations: 20,
                ..Default::default()
            },
            &mut mask,
            &mut NoExtension,
            &mut timings,
            &mut FrameArena::new(),
            &Serial,
        );
        assert!(result.losses.last().unwrap() < result.losses.first().unwrap());
    }

    #[test]
    fn timings_are_populated() {
        let ds = small_dataset();
        let map = sharded(&ds);
        let mut mask = vec![true; map.capacity()];
        let mut timings = StageTimings::default();
        let _ = track_frame(
            &map,
            ds.poses_c2w[0].inverse(),
            &ds.frames[0],
            &ds.camera,
            &TrackingConfig {
                iterations: 2,
                ..Default::default()
            },
            &mut mask,
            &mut NoExtension,
            &mut timings,
            &mut FrameArena::new(),
            &Serial,
        );
        assert!(timings.get(StageId::Render) > 0);
        assert!(timings.get(StageId::RenderBp) > 0);
        assert!(timings.get(StageId::Preprocess) > 0);
    }

    #[test]
    fn traces_recorded_when_requested() {
        let ds = small_dataset();
        let map = sharded(&ds);
        let mut mask = vec![true; map.capacity()];
        let mut timings = StageTimings::default();
        let result = track_frame(
            &map,
            ds.poses_c2w[0].inverse(),
            &ds.frames[0],
            &ds.camera,
            &TrackingConfig {
                iterations: 3,
                record_traces: true,
                ..Default::default()
            },
            &mut mask,
            &mut NoExtension,
            &mut timings,
            &mut FrameArena::new(),
            &Serial,
        );
        assert_eq!(result.traces.len(), 3);
        assert!(result.traces[0].is_consistent());
    }

    /// Masking Gaussians reduces the workload.
    #[test]
    fn masking_reduces_fragments() {
        let ds = small_dataset();
        let map = sharded(&ds);
        let mut full_mask = vec![true; map.capacity()];
        let mut half_mask: Vec<bool> = (0..map.capacity()).map(|i| i % 2 == 0).collect();
        let mut timings = StageTimings::default();
        let cfg = TrackingConfig {
            iterations: 2,
            ..Default::default()
        };
        let full = track_frame(
            &map,
            ds.poses_c2w[0].inverse(),
            &ds.frames[0],
            &ds.camera,
            &cfg,
            &mut full_mask,
            &mut NoExtension,
            &mut timings,
            &mut FrameArena::new(),
            &Serial,
        );
        let half = track_frame(
            &map,
            ds.poses_c2w[0].inverse(),
            &ds.frames[0],
            &ds.camera,
            &cfg,
            &mut half_mask,
            &mut NoExtension,
            &mut timings,
            &mut FrameArena::new(),
            &Serial,
        );
        assert!(half.fragments_processed < full.fragments_processed);
    }

    /// An extension can mask Gaussians mid-frame.
    #[test]
    fn observer_mask_updates_take_effect() {
        struct MaskHalf;
        impl PipelineExtension for MaskHalf {
            fn after_tracking_iteration(
                &mut self,
                artifacts: &IterationArtifacts<'_>,
                mask: &mut [bool],
            ) {
                if artifacts.iteration == 0 {
                    for (i, m) in mask.iter_mut().enumerate() {
                        *m = i % 4 == 0;
                    }
                }
            }
        }
        let ds = small_dataset();
        let map = sharded(&ds);
        let mut mask = vec![true; map.capacity()];
        let mut timings = StageTimings::default();
        let result = track_frame(
            &map,
            ds.poses_c2w[0].inverse(),
            &ds.frames[0],
            &ds.camera,
            &TrackingConfig {
                iterations: 3,
                record_traces: true,
                ..Default::default()
            },
            &mut mask,
            &mut MaskHalf,
            &mut timings,
            &mut FrameArena::new(),
            &Serial,
        );
        // Iteration 0 ran with everything; later iterations with a quarter.
        assert!(result.traces[1].visible_gaussians < result.traces[0].visible_gaussians);
        assert!(mask.iter().filter(|&&m| m).count() <= map.capacity() / 4 + 1);
    }

    /// The extension sees frame-local gradients plus the stable-ID map that
    /// relates them to its mask.
    #[test]
    fn artifacts_expose_visible_ids() {
        struct CheckIds {
            checked: bool,
        }
        impl PipelineExtension for CheckIds {
            fn after_tracking_iteration(
                &mut self,
                artifacts: &IterationArtifacts<'_>,
                mask: &mut [bool],
            ) {
                assert_eq!(
                    artifacts.grads.gaussians.len(),
                    artifacts.visible_ids.len(),
                    "one gradient per visible Gaussian"
                );
                assert!(
                    artifacts.visible_ids.windows(2).all(|w| w[0] < w[1]),
                    "ids ascending"
                );
                assert!(artifacts
                    .visible_ids
                    .iter()
                    .all(|&id| (id as usize) < mask.len()));
                self.checked = true;
            }
        }
        let ds = small_dataset();
        let map = sharded(&ds);
        let mut mask = vec![true; map.capacity()];
        let mut timings = StageTimings::default();
        let mut obs = CheckIds { checked: false };
        let _ = track_frame(
            &map,
            ds.poses_c2w[0].inverse(),
            &ds.frames[0],
            &ds.camera,
            &TrackingConfig {
                iterations: 2,
                ..Default::default()
            },
            &mut mask,
            &mut obs,
            &mut timings,
            &mut FrameArena::new(),
            &Serial,
        );
        assert!(obs.checked);
    }
}
