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
    BackwardOutput, BackwardStats, FragmentCache, FrameArena, GradSet, LossConfig, PinholeCamera,
    RenderOutput, ShardedScene, TileAssignment, Trials,
};
use rtgs_runtime::Backend;
use rtgs_scene::RgbdFrame;
use rtgs_telemetry::{emit_span, ns_since_epoch, StageId, StageTimings};
use std::time::Instant;

/// Tracking configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackingConfig {
    /// Optimization iterations (trials) per frame, at most (matching the
    /// paper's per-frame iteration counts). Each costs one render; an
    /// accepted trial after which tracking goes on also costs one
    /// backward, and so does any trial the extension asks
    /// [`GradSet::Full`] of ([`PipelineExtension::tracking_grads`]). A
    /// rejected trial and the one after which tracking stops, asked
    /// [`GradSet::PoseOnly`], run none.
    pub iterations: usize,
    /// Loss configuration (Eq. 6).
    pub loss: LossConfig,
}

impl Default for TrackingConfig {
    fn default() -> Self {
        Self {
            iterations: 12,
            loss: LossConfig::default(),
        }
    }
}

/// Initial trust-region step length in meters along the normalized
/// pose-gradient direction.
const INITIAL_STEP: f32 = 1.2e-2;
/// Relative weighting of rotational tangent coordinates versus
/// translational ones (radians per meter of step budget).
const ROTATION_SCALE: f32 = 0.6;
/// Step growth factor after an accepted step.
const STEP_GROW: f32 = 1.3;
/// Step shrink factor after a rejected step (loss increased).
const STEP_SHRINK: f32 = 0.4;
/// Early-stop when the best loss improves by less than this relative amount
/// over a 4-iteration window.
const CONVERGENCE_THRESHOLD: f32 = 5e-4;

/// Preconditioned trust-region step from a pose gradient.
///
/// The photometric loss around an indoor pose is extremely anisotropic
/// (forward translation and pitch/yaw have orders-of-magnitude larger
/// gradients than lateral translation), so raw steepest descent stalls.
/// The direction is preconditioned by the running RMS of each coordinate's
/// gradient (RMSprop-style), then scaled to length `step` in the weighted
/// metric.
fn pose_step(grad: &[f32; 6], rms: &[f32; 6], step: f32) -> [f32; 6] {
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
    // Metric weighting: rotations measured in `ROTATION_SCALE` rad/m.
    let h = [
        d[0],
        d[1],
        d[2],
        d[3] * ROTATION_SCALE,
        d[4] * ROTATION_SCALE,
        d[5] * ROTATION_SCALE,
    ];
    // Summed left to right from `+0.0` (CONTRIBUTING, "Determinism
    // contracts": no `Iterator::sum` over floats).
    let mut norm2 = 0.0f32;
    for x in h {
        norm2 += x * x;
    }
    let norm = norm2.sqrt();
    if norm < 1e-12 {
        return [0.0; 6];
    }
    let s = -step / norm;
    [
        s * h[0],
        s * h[1],
        s * h[2],
        s * h[3] * ROTATION_SCALE,
        s * h[4] * ROTATION_SCALE,
        s * h[5] * ROTATION_SCALE,
    ]
}

/// Artifacts of one tracking or mapping iteration, passed to
/// [`PipelineExtension::after_tracking_iteration`] and
/// [`PipelineExtension::after_mapping_iteration`].
#[derive(Debug)]
pub struct IterationArtifacts<'a> {
    /// Iteration index within the frame's tracking or the keyframe's
    /// mapping (0 on each one's first).
    pub iteration: usize,
    /// The iteration's backward output in frame-local index space. A
    /// mapping iteration's is always the full set; a tracking iteration's
    /// is what [`PipelineExtension::tracking_grads`] asked for it: with
    /// [`GradSet::Full`] `grads.gaussians[k]` is the gradient of the
    /// Gaussian with stable ID `visible_ids[k]`; with [`GradSet::PoseOnly`]
    /// `gaussians` is empty, and on a rejected trial or the one after
    /// which tracking stops, which then run no backward, the whole output
    /// is empty: zero pose, zero counters. Never an earlier iteration's
    /// gradients.
    pub grads: &'a BackwardOutput,
    /// Frame-local index → stable map ID for this iteration's visible
    /// working set (the frustum-cull survivors).
    pub visible_ids: &'a [u32],
    /// Tile assignment of this iteration.
    pub tiles: &'a TileAssignment,
    /// The iteration's forward output: image, depth and final
    /// transmittance, at the resolution the iteration rendered.
    pub output: &'a RenderOutput,
    /// The R&B records of the iteration's fused forward pass, from which a
    /// workload trace derives per-pixel workloads and the blended count.
    pub fragments: &'a FragmentCache,
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
    /// Total fragments processed across iterations (forward).
    pub fragments_processed: u64,
    /// Total fragment gradient events across the backward passes that ran:
    /// every accepted trial's but the stopping one's, plus each rejected or
    /// stopping trial's the extension asked [`GradSet::Full`] of. A full
    /// and a pose-only backward of one trial count the same events.
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

/// [`record_stage`] of the interval from `start` to now.
pub(crate) fn record_since(timings: &mut StageTimings, stage: StageId, start: Instant, arg: u64) {
    let dur_ns = start.elapsed().as_nanos() as u64;
    record_stage(timings, stage, ns_since_epoch(start), dur_ns, arg);
}

/// One timed render + backward iteration — the paper's five-step frame
/// pipeline over the session arena, as mapping runs it: the frustum cull
/// of every live ID and projection, [`timed_forward`], then
/// [`timed_backward`] with the full gradient set. Returns the loss;
/// gradients and stage results stay in `arena`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn timed_iteration(
    arena: &mut FrameArena,
    map: &ShardedScene,
    w2c: &Se3,
    camera: &PinholeCamera,
    frame: &RgbdFrame,
    loss_config: &LossConfig,
    timings: &mut StageTimings,
    it: u64,
    backend: &dyn Backend,
) -> f32 {
    let t0 = Instant::now();
    arena.cull(map, w2c, camera, None, backend);
    arena.project_visible(w2c, camera, backend);
    let (loss, loss_start) =
        timed_forward(arena, t0, camera, frame, loss_config, timings, it, backend);
    let full = Some(GradSet::Full);
    timed_backward(arena, w2c, camera, full, loss_start, timings, it, backend);
    loss
}

/// The forward half of an iteration after its frustum cull and projection,
/// which started at `t0` (`Preprocess`): tile assignment (`Sorting`) →
/// fused render (`Render`), each interval accounted through
/// [`record_stage`], then the loss. Returns the loss and the instant the
/// loss started, which [`timed_backward`] accounts from.
///
/// Masked (pruned) IDs drop out in the cull, before any math. The fused
/// render records each pixel's fragment sequence so the backward pass
/// consumes it instead of re-walking the sorted splat lists.
#[allow(clippy::too_many_arguments)]
fn timed_forward(
    arena: &mut FrameArena,
    t0: Instant,
    camera: &PinholeCamera,
    frame: &RgbdFrame,
    loss_config: &LossConfig,
    timings: &mut StageTimings,
    it: u64,
    backend: &dyn Backend,
) -> (f32, Instant) {
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
    let loss = arena.compute_loss_with(&frame.color, frame.depth.as_ref(), loss_config, backend);
    (loss, t3)
}

/// The backward half of an iteration: the fused backward of `grads`
/// (`RenderBp`, `PreprocessBp`), or none, then the accounting of everything
/// since `loss_start`. The BP stages are measured out-of-band by the
/// backward kernel; their spans tile the interval in kernel order, with the
/// unattributed remainder — the loss, and on a trial without a backward
/// all of it — as `Other`: durations exact, offsets reconstructed.
#[allow(clippy::too_many_arguments)]
fn timed_backward(
    arena: &mut FrameArena,
    w2c: &Se3,
    camera: &PinholeCamera,
    grads: Option<GradSet>,
    loss_start: Instant,
    timings: &mut StageTimings,
    it: u64,
    backend: &dyn Backend,
) {
    let (mut rbp, mut pbp) = (0, 0);
    if let Some(grads) = grads {
        arena.backward_visible_grads(camera, w2c, grads, backend);
        rbp = arena.backward().stats.rendering_bp_nanos;
        pbp = arena.backward().stats.preprocessing_bp_nanos;
    }
    let t4 = Instant::now();
    let t3_ns = ns_since_epoch(loss_start);
    if grads.is_some() {
        record_stage(timings, StageId::RenderBp, t3_ns, rbp, it);
        record_stage(timings, StageId::PreprocessBp, t3_ns + rbp, pbp, it);
    }
    let other_ns = ((t4 - loss_start).as_nanos() as u64).saturating_sub(rbp + pbp);
    record_stage(timings, StageId::Other, t3_ns + rbp + pbp, other_ns, it);
}

/// What [`IterationArtifacts::grads`] holds on a trial that ran no
/// backward: no Gaussians, a zero pose tangent, zero counters.
static NO_BACKWARD: BackwardOutput = BackwardOutput {
    gaussians: Vec::new(),
    pose: [0.0; 6],
    stats: BackwardStats {
        fragment_grad_events: 0,
        rendering_bp_nanos: 0,
        preprocessing_bp_nanos: 0,
    },
};

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
/// that follow (the RTGS adaptive pruning plugs in here). What each
/// iteration's backward computes follows
/// [`PipelineExtension::tracking_grads`], asked once per iteration: the
/// accept/reject decision and both stop tests read only the loss, so they
/// are made before the backward. The next pose step, its direction and
/// its RMS preconditioner alike, reads the pose gradients of accepted
/// trials only, so a rejected trial and the one after which tracking
/// stops run a backward only when the extension asks [`GradSet::Full`] of
/// them; after a rejection the next trial retries the best pose's step,
/// shrunken.
/// Standalone callers that observe nothing pass `&mut NoExtension`, which
/// reads only the pose.
///
/// The shard cull and every render and backward inside the pose
/// optimization run through `backend` into `arena`'s reused storage — a
/// steady-state iteration performs zero heap allocations — with results
/// bitwise-identical on a fresh arena and at any pool size. The trials run
/// in one [`FrameArena::trials`] scope over `map`, which the call borrows
/// throughout: a trial whose cull keeps the previous trial's surviving
/// shards and mask reuses that trial's gathered working set and Step ❶'s
/// pose-independent activations of it; a mask change (an RTGS pruning
/// point) or new survivors gather and compute anew. Nothing is carried into
/// the next call, which may see a mutated map. Sessions keep
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
    track_trials(
        &mut arena.trials(map),
        init_w2c,
        frame,
        camera,
        config,
        mask,
        extension,
        timings,
        backend,
    )
}

/// Where a frame's trials run the front of their forward pass.
trait TrialStages {
    /// Frustum-culls the map at `w2c` under `mask` and projects the
    /// survivors; returns the arena that holds the trial's stage results.
    fn preprocess(
        &mut self,
        w2c: &Se3,
        camera: &PinholeCamera,
        mask: &[bool],
        backend: &dyn Backend,
    ) -> &mut FrameArena;
}

impl TrialStages for Trials<'_> {
    fn preprocess(
        &mut self,
        w2c: &Se3,
        camera: &PinholeCamera,
        mask: &[bool],
        backend: &dyn Backend,
    ) -> &mut FrameArena {
        self.cull(w2c, camera, Some(mask), backend);
        self.project_visible(w2c, camera, backend);
        self
    }
}

/// [`track_frame`]'s trials, run through `stages`.
#[allow(clippy::too_many_arguments)]
fn track_trials(
    stages: &mut dyn TrialStages,
    init_w2c: Se3,
    frame: &RgbdFrame,
    camera: &PinholeCamera,
    config: &TrackingConfig,
    mask: &mut [bool],
    extension: &mut dyn PipelineExtension,
    timings: &mut StageTimings,
    backend: &dyn Backend,
) -> TrackResult {
    assert_eq!(frame.color.width(), camera.width, "frame/camera resolution");

    let mut w2c = init_w2c;
    let mut losses = Vec::with_capacity(config.iterations);
    let mut fragments_processed = 0u64;
    let mut fragment_grad_events = 0u64;
    // Trust-region state: best pose seen, its loss and gradient, and the
    // RMS preconditioner of the accepted trials' gradients.
    let mut best_pose = init_w2c;
    let mut best_loss = f32::INFINITY;
    let mut best_grad = [0.0f32; 6];
    let mut best_history: Vec<f32> = Vec::with_capacity(config.iterations);
    let mut step_scale = INITIAL_STEP;
    let max_step = INITIAL_STEP * 4.0;
    let mut rms = [0.0f32; 6];

    for iteration in 0..config.iterations {
        let it = iteration as u64;
        let t0 = Instant::now();
        let arena = stages.preprocess(&w2c, camera, mask, backend);
        let (loss, loss_start) =
            timed_forward(arena, t0, camera, frame, &config.loss, timings, it, backend);

        // Trust-region accept/reject on the loss alone: keep the best pose,
        // adapt the step.
        let accepted = loss <= best_loss;
        if accepted {
            best_pose = w2c;
            best_loss = loss;
            step_scale = (step_scale * STEP_GROW).min(max_step);
        } else {
            step_scale *= STEP_SHRINK;
        }
        best_history.push(best_loss);
        // Stop at the iteration cap, once the best loss has plateaued, or
        // when the trust region collapsed — all decided by losses, so before
        // the backward.
        let plateaued = best_history.len() >= 8 && {
            let prev = best_history[best_history.len() - 5];
            prev > 0.0 && (prev - best_loss) / prev < CONVERGENCE_THRESHOLD
        };
        let stop = iteration + 1 == config.iterations || plateaued || step_scale < 1e-6;

        let last = if stop {
            iteration
        } else {
            config.iterations - 1
        };
        let grads = extension.tracking_grads(iteration, last);
        // Only the next pose step reads a pose gradient, and only an
        // accepted trial's: a rejected or stopping trial needs a backward
        // only for an extension that reads its per-Gaussian ones.
        let steps_from_here = accepted && !stop;
        let ran = (steps_from_here || grads == GradSet::Full).then_some(grads);
        timed_backward(arena, &w2c, camera, ran, loss_start, timings, it, backend);
        let backward = if ran.is_some() {
            arena.backward()
        } else {
            &NO_BACKWARD
        };
        if steps_from_here {
            for (r, g) in rms.iter_mut().zip(backward.pose.iter()) {
                let g2 = g * g;
                *r = if iteration == 0 {
                    g2.sqrt()
                } else {
                    (0.9 * *r * *r + 0.1 * g2).sqrt()
                };
            }
            best_grad = backward.pose;
        }
        if !stop {
            // After a rejection: the best pose's step again, shrunken.
            let delta = pose_step(&best_grad, &rms, step_scale);
            w2c = best_pose.retract(delta);
        }

        fragments_processed += arena.output().stats.fragments_processed;
        fragment_grad_events += backward.stats.fragment_grad_events;
        losses.push(loss);

        let artifacts = IterationArtifacts {
            iteration,
            grads: backward,
            visible_ids: &arena.visible().ids,
            tiles: arena.tiles(),
            output: arena.output(),
            fragments: arena.fragments(),
        };
        extension.after_tracking_iteration(&artifacts, mask);
        if stop {
            break;
        }
    }

    TrackResult {
        w2c: best_pose,
        final_loss: best_loss.min(losses.last().copied().unwrap_or(f32::INFINITY)),
        losses,
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
        let map = &ds.reference_scene;
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
            map,
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
        let map = &ds.reference_scene;
        let gt_w2c = ds.poses_c2w[0].inverse();
        let perturbed = gt_w2c.retract([0.015, 0.01, -0.01, 0.0, 0.005, 0.0]);
        let mut mask = vec![true; map.capacity()];
        let mut timings = StageTimings::default();
        let result = track_frame(
            map,
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
        let map = &ds.reference_scene;
        let mut mask = vec![true; map.capacity()];
        let mut timings = StageTimings::default();
        let _ = track_frame(
            map,
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

    /// Masking Gaussians reduces the workload.
    #[test]
    fn masking_reduces_fragments() {
        let ds = small_dataset();
        let map = &ds.reference_scene;
        let mut full_mask = vec![true; map.capacity()];
        let mut half_mask: Vec<bool> = (0..map.capacity()).map(|i| i % 2 == 0).collect();
        let mut timings = StageTimings::default();
        let cfg = TrackingConfig {
            iterations: 2,
            ..Default::default()
        };
        let full = track_frame(
            map,
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
            map,
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
        /// Masks three quarters off after iteration 0 and records each
        /// iteration's visible count.
        struct MaskHalf {
            visible: Vec<usize>,
        }
        impl PipelineExtension for MaskHalf {
            fn after_tracking_iteration(
                &mut self,
                artifacts: &IterationArtifacts<'_>,
                mask: &mut [bool],
            ) {
                self.visible.push(artifacts.visible_ids.len());
                if artifacts.iteration == 0 {
                    for (i, m) in mask.iter_mut().enumerate() {
                        *m = i % 4 == 0;
                    }
                }
            }
        }
        let ds = small_dataset();
        let map = &ds.reference_scene;
        let mut mask = vec![true; map.capacity()];
        let mut timings = StageTimings::default();
        let mut extension = MaskHalf {
            visible: Vec::new(),
        };
        let _ = track_frame(
            map,
            ds.poses_c2w[0].inverse(),
            &ds.frames[0],
            &ds.camera,
            &TrackingConfig {
                iterations: 3,
                ..Default::default()
            },
            &mut mask,
            &mut extension,
            &mut timings,
            &mut FrameArena::new(),
            &Serial,
        );
        // Iteration 0 ran with everything; later iterations with a quarter.
        assert!(extension.visible[1] < extension.visible[0]);
        assert!(mask.iter().filter(|&&m| m).count() <= map.capacity() / 4 + 1);
    }

    /// The hook is asked once per trial, and what a trial's backward
    /// computes follows that trial's answer alone. No answer moves an
    /// output bit: the pose-only backward gives the full pass's pose, and
    /// the backwards a `PoseOnly` answer skips are those of the rejected
    /// trials and of the stopping one — at the iteration cap and at a
    /// plateau alike — whose pose gradients no step reads.
    #[test]
    fn pose_only_reader_skips_rejected_and_stopping_trials_backward() {
        /// Answers `policy(iteration, last)` and records each call's
        /// arguments and what `grads` then held: (Gaussian rows, fragment
        /// gradient events).
        struct Reader {
            policy: fn(usize, usize) -> GradSet,
            asked: std::cell::RefCell<Vec<(usize, usize)>>,
            seen: Vec<(usize, u64)>,
        }
        impl PipelineExtension for Reader {
            fn tracking_grads(&self, iteration: usize, last: usize) -> GradSet {
                self.asked.borrow_mut().push((iteration, last));
                (self.policy)(iteration, last)
            }
            fn after_tracking_iteration(&mut self, a: &IterationArtifacts<'_>, _: &mut [bool]) {
                self.seen
                    .push((a.grads.gaussians.len(), a.grads.stats.fragment_grad_events));
            }
        }
        fn reader(policy: fn(usize, usize) -> GradSet) -> Reader {
            Reader {
                policy,
                asked: Default::default(),
                seen: Vec::new(),
            }
        }
        let ds = small_dataset();
        let map = &ds.reference_scene;
        let gt_w2c = ds.poses_c2w[0].inverse();
        let start = gt_w2c.retract([0.015, 0.01, -0.01, 0.0, 0.005, 0.0]);
        let track = |config: &TrackingConfig, extension: &mut dyn PipelineExtension| {
            let mut mask = vec![true; map.capacity()];
            let result = track_frame(
                map,
                start,
                &ds.frames[0],
                &ds.camera,
                config,
                &mut mask,
                extension,
                &mut StageTimings::default(),
                &mut FrameArena::new(),
                &Serial,
            );
            let bits: Vec<u32> = result.losses.iter().map(|l| l.to_bits()).collect();
            (result, bits)
        };
        // Full on even trials and on the stopping one; Full on even trials
        // but the stopping one; pose only throughout.
        let policies: [fn(usize, usize) -> GradSet; 3] = [
            |i, last| {
                if i % 2 == 0 || i == last {
                    GradSet::Full
                } else {
                    GradSet::PoseOnly
                }
            },
            |i, last| {
                if i % 2 == 0 && i != last {
                    GradSet::Full
                } else {
                    GradSet::PoseOnly
                }
            },
            |_, _| GradSet::PoseOnly,
        ];
        // 4 and 100 iterations stop at the cap; 1000 stop early, by the
        // plateau or the collapsed trust region.
        for iterations in [4, 100, 1000] {
            let config = TrackingConfig {
                iterations,
                ..Default::default()
            };
            let (base, base_losses) = track(&config, &mut NoExtension);
            let mut full = reader(|_, _| GradSet::Full);
            let (with_full, full_losses) = track(&config, &mut full);
            let trials = base.losses.len();
            assert_eq!(trials < iterations, iterations == 1000, "{iterations}");
            assert_eq!(with_full.w2c, base.w2c);
            assert_eq!(full_losses, base_losses);
            assert_eq!(with_full.final_loss.to_bits(), base.final_loss.to_bits());
            // A trial is accepted when its loss is no worse than every
            // earlier trial's; each run rejects at least one, so the
            // skipped backwards below are not vacuous.
            let accepted: Vec<bool> = (0..trials)
                .map(|i| base.losses[..i].iter().all(|&l| base.losses[i] <= l))
                .collect();
            assert!(accepted.contains(&false), "{iterations}: no rejected trial");
            // Asked once per trial; `last` is the cap's last index until
            // the stopping trial, which names itself.
            let mut want_asked: Vec<(usize, usize)> =
                (0..trials).map(|i| (i, iterations - 1)).collect();
            want_asked[trials - 1] = (trials - 1, trials - 1);
            assert_eq!(*full.asked.borrow(), want_asked);
            assert!(full
                .seen
                .iter()
                .all(|&(rows, events)| rows > 0 && events > 0));
            let skipped: u64 = full
                .seen
                .iter()
                .enumerate()
                .filter(|&(i, _)| !accepted[i] || i + 1 == trials)
                .map(|(_, &(_, events))| events)
                .sum();
            assert_eq!(
                with_full.fragment_grad_events - base.fragment_grad_events,
                skipped
            );

            // A trial asked `Full` of shows its rows and events; a
            // `PoseOnly` one shows its events if accepted and not the
            // stopping trial, and otherwise ran no backward: an empty
            // output.
            for policy in policies {
                let mut chosen = reader(policy);
                let (with_chosen, chosen_losses) = track(&config, &mut chosen);
                assert_eq!(with_chosen.w2c, base.w2c);
                assert_eq!(chosen_losses, base_losses);
                assert_eq!(*chosen.asked.borrow(), want_asked);
                let want: Vec<(usize, u64)> = want_asked
                    .iter()
                    .zip(&full.seen)
                    .map(|(&(i, last), &(rows, events))| match policy(i, last) {
                        GradSet::Full => (rows, events),
                        GradSet::PoseOnly if i == last || !accepted[i] => (0, 0),
                        GradSet::PoseOnly => (0, events),
                    })
                    .collect();
                assert_eq!(chosen.seen, want, "{iterations}");
                let events: u64 = want.iter().map(|&(_, e)| e).sum();
                assert_eq!(with_chosen.fragment_grad_events, events);
            }
        }
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
        let map = &ds.reference_scene;
        let mut mask = vec![true; map.capacity()];
        let mut timings = StageTimings::default();
        let mut obs = CheckIds { checked: false };
        let _ = track_frame(
            map,
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

    // ---- The trial scope's reuse contract --------------------------------

    /// The reference spelling of a frame's trials: a fresh arena for every
    /// trial, so nothing computed in one trial can reach the next.
    struct FreshPerTrial<'m> {
        map: &'m ShardedScene,
        arena: FrameArena,
    }

    impl TrialStages for FreshPerTrial<'_> {
        fn preprocess(
            &mut self,
            w2c: &Se3,
            camera: &PinholeCamera,
            mask: &[bool],
            backend: &dyn Backend,
        ) -> &mut FrameArena {
            self.arena = FrameArena::new();
            self.arena.cull(self.map, w2c, camera, Some(mask), backend);
            self.arena.project_visible(w2c, camera, backend);
            &mut self.arena
        }
    }

    /// Masks a third of the Gaussians off after trial 1 and another third
    /// after trial 4, as an RTGS pruning point does mid-frame, and records
    /// every trial's bits: visible IDs, pose tangent and counters.
    #[derive(Default)]
    struct PruneMidFrame {
        seen: Vec<(Vec<u32>, [u32; 6], u64)>,
    }

    impl PipelineExtension for PruneMidFrame {
        fn tracking_grads(&self, _: usize, _: usize) -> GradSet {
            GradSet::PoseOnly
        }
        fn after_tracking_iteration(&mut self, a: &IterationArtifacts<'_>, mask: &mut [bool]) {
            let pose = a.grads.pose.map(f32::to_bits);
            let events = a.grads.stats.fragment_grad_events;
            self.seen.push((a.visible_ids.to_vec(), pose, events));
            if let Some(phase) = [1, 4].iter().position(|&i| i == a.iteration) {
                for (id, m) in mask.iter_mut().enumerate() {
                    *m &= id % 3 != phase;
                }
            }
        }
    }

    /// Every bit of a tracking result.
    fn result_bits(r: &TrackResult) -> (Vec<u32>, Vec<u32>, u32, u64, u64) {
        let (q, t) = (r.w2c.rotation, r.w2c.translation);
        let pose = [q.w, q.x, q.y, q.z, t.x, t.y, t.z];
        let losses = r.losses.iter().map(|l| l.to_bits()).collect();
        (
            pose.map(f32::to_bits).to_vec(),
            losses,
            r.final_loss.to_bits(),
            r.fragments_processed,
            r.fragment_grad_events,
        )
    }

    /// Tracks `frame` from `start` under `mask` through `track_frame` on
    /// `arena` (one trial scope) and through a fresh arena per trial, and
    /// asserts both give the same bits, trial by trial. Returns the scoped
    /// result and the mask the frame ended with.
    fn assert_scope_matches_fresh_trials(
        map: &ShardedScene,
        ds: &SyntheticDataset,
        start: Se3,
        mask: &[bool],
        arena: &mut FrameArena,
    ) -> (TrackResult, Vec<bool>) {
        // With 8 iterations the plateau test (it needs 8 best losses) can
        // fire only on the last trial, which stops anyway: every trial runs.
        let config = TrackingConfig {
            iterations: 8,
            ..Default::default()
        };
        let mut runs = Vec::new();
        for scoped in [true, false] {
            let mut mask = mask.to_vec();
            let mut extension = PruneMidFrame::default();
            let (frame, camera) = (&ds.frames[0], &ds.camera);
            let mut timings = StageTimings::default();
            let result = if scoped {
                let (ext, t) = (&mut extension, &mut timings);
                track_frame(
                    map, start, frame, camera, &config, &mut mask, ext, t, arena, &Serial,
                )
            } else {
                let mut fresh = FreshPerTrial {
                    map,
                    arena: FrameArena::new(),
                };
                let (ext, t) = (&mut extension, &mut timings);
                track_trials(
                    &mut fresh, start, frame, camera, &config, &mut mask, ext, t, &Serial,
                )
            };
            runs.push((result, extension.seen, mask));
        }
        let (fresh, scoped) = (runs.pop().unwrap(), runs.pop().unwrap());
        assert_eq!(scoped.0.losses.len(), config.iterations, "every trial ran");
        assert_eq!(
            result_bits(&scoped.0),
            result_bits(&fresh.0),
            "track result"
        );
        assert_eq!(
            scoped.1, fresh.1,
            "per-trial visible IDs, pose tangents, events"
        );
        assert_eq!(scoped.2, fresh.2, "final mask");
        (scoped.0, scoped.2)
    }

    /// A frame tracked through one trial scope — which keeps a trial's
    /// gather and Step ❶ activations while the cull's survivors and the
    /// mask stay the same — gives every bit a fresh arena per trial gives,
    /// across two mid-frame mask changes. Then the map changes (a colour, so
    /// the same shards survive): the next frame, tracked from the same pose
    /// under the mask the first one ended with, must not reuse the first
    /// frame's gather, and a mapping iteration on the session arena equals a
    /// fresh arena's.
    #[test]
    fn trial_scope_reuse_matches_a_fresh_arena_per_trial() {
        let ds = small_dataset();
        let mut map = ds.reference_scene.clone();
        let start = ds.poses_c2w[0]
            .inverse()
            .retract([0.01, -0.006, 0.004, 0.003, -0.002, 0.002]);
        let mut arena = FrameArena::new();
        let live = map.live_flags().to_vec();
        let (_, pruned) = assert_scope_matches_fresh_trials(&map, &ds, start, &live, &mut arena);
        assert!(
            pruned.iter().filter(|&&m| m).count() < live.len() / 2,
            "both mask changes landed"
        );

        let recolour = map.live_ids().step_by(2).collect::<Vec<_>>();
        for id in recolour {
            map.gaussian_mut(id).color *= 0.5;
        }
        map.refresh_bounds();
        let (tracked, _) = assert_scope_matches_fresh_trials(&map, &ds, start, &pruned, &mut arena);

        let (frame, camera, loss) = (&ds.frames[0], &ds.camera, LossConfig::default());
        let mut mapped = Vec::new();
        for arena in [&mut arena, &mut FrameArena::new()] {
            let mut timings = StageTimings::default();
            let w2c = &tracked.w2c;
            let l = timed_iteration(
                arena,
                &map,
                w2c,
                camera,
                frame,
                &loss,
                &mut timings,
                0,
                &Serial,
            );
            let back = arena.backward();
            let grads: Vec<[u32; 15]> = back
                .gaussians
                .iter()
                .map(|g| {
                    let (p, s, c, r) = (g.position, g.log_scale, g.color, g.rotation);
                    [
                        p.x,
                        p.y,
                        p.z,
                        s.x,
                        s.y,
                        s.z,
                        r[0],
                        r[1],
                        r[2],
                        r[3],
                        g.opacity,
                        c.x,
                        c.y,
                        c.z,
                        g.cov_frobenius,
                    ]
                    .map(f32::to_bits)
                })
                .collect();
            mapped.push((l.to_bits(), back.pose.map(f32::to_bits), grads));
        }
        assert_eq!(
            mapped[0], mapped[1],
            "mapping after tracking == fresh arena"
        );
    }
}
