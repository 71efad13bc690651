//! The end-to-end 3DGS-SLAM pipeline: alternating tracking and
//! keyframe-based mapping (paper Sec. 2.2, Fig. 2), with one extension seam
//! ([`PipelineExtension`]) for the RTGS redundancy-reduction techniques.

use crate::keyframe::{KeyframeContext, KeyframePolicy};
use crate::map::{densify, prune_transparent, seed_from_frame, MapConfig};
use crate::optimizer::{MapLearningRates, MapOptimizer};
use crate::tracking::{
    record_since, timed_iteration, track_frame, IterationArtifacts, TrackingConfig,
};
use rtgs_math::Se3;
use rtgs_metrics::{absolute_trajectory_error, psnr, AteResult};
use rtgs_render::{render_poses, FrameArena, GradSet, ShardedScene, DEFAULT_CELL_SIZE};
use rtgs_runtime::{Backend, BackendChoice};
use rtgs_scene::{RgbdFrame, SyntheticDataset};
use rtgs_telemetry::flight::hops;
use rtgs_telemetry::{
    emit_flow_span, ns_since_epoch, Counter, Gauge, Histogram, StageId, StageTimings, TraceCtx,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The base 3DGS-SLAM algorithms evaluated in the paper (Sec. 2.3, 6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaseAlgorithm {
    /// GS-SLAM: keyframes by pose distance, moderate budgets.
    GsSlam,
    /// MonoGS: fixed keyframe interval, large Gaussian budget, most
    /// accurate and most expensive.
    MonoGs,
    /// Photo-SLAM: photometric keyframes, cheap geometric-style tracking.
    PhotoSlam,
    /// SplaTAM: tracking *and* mapping on every frame.
    SplaTam,
}

impl BaseAlgorithm {
    /// All four algorithms in the paper's order.
    pub fn all() -> [BaseAlgorithm; 4] {
        [
            BaseAlgorithm::SplaTam,
            BaseAlgorithm::GsSlam,
            BaseAlgorithm::MonoGs,
            BaseAlgorithm::PhotoSlam,
        ]
    }

    /// The three keyframe-based algorithms used in Tab. 6 / Fig. 15.
    pub fn keyframe_based() -> [BaseAlgorithm; 3] {
        [
            BaseAlgorithm::GsSlam,
            BaseAlgorithm::MonoGs,
            BaseAlgorithm::PhotoSlam,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            BaseAlgorithm::GsSlam => "GS-SLAM",
            BaseAlgorithm::MonoGs => "MonoGS",
            BaseAlgorithm::PhotoSlam => "Photo-SLAM",
            BaseAlgorithm::SplaTam => "SplaTAM",
        }
    }

    /// Whether tracking uses classical geometric optimization instead of
    /// rendering backpropagation (Photo-SLAM). RTGS then accelerates only
    /// rendering and mapping BP (paper Sec. 6.1).
    pub fn geometric_tracking(&self) -> bool {
        matches!(self, BaseAlgorithm::PhotoSlam)
    }
}

/// Full SLAM configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlamConfig {
    /// Base algorithm preset.
    pub algorithm: BaseAlgorithm,
    /// Keyframe policy.
    pub keyframe_policy: KeyframePolicy,
    /// Tracking settings.
    pub tracking: TrackingConfig,
    /// Mapping iterations per keyframe.
    pub mapping_iterations: usize,
    /// Map management settings.
    pub map: MapConfig,
    /// Learning rates for mapping.
    pub map_lrs: MapLearningRates,
    /// Cap on frames processed (`None` = whole dataset).
    pub max_frames: Option<usize>,
    /// Execution backend for every render/backward in the pipeline. The
    /// default, `Parallel { threads: 0 }`, fans the tile/Gaussian chunks
    /// out over the machine — the pool that is serving the session, or the
    /// shared machine pool for a lone one — with results bitwise those of
    /// `Serial`.
    pub backend: BackendChoice,
}

impl SlamConfig {
    /// Preset configuration reproducing each base algorithm's
    /// distinguishing behaviour (budgets scaled to the analog datasets).
    pub fn for_algorithm(algorithm: BaseAlgorithm) -> Self {
        let base = Self {
            algorithm,
            keyframe_policy: KeyframePolicy::Interval { interval: 5 },
            tracking: TrackingConfig::default(),
            mapping_iterations: 15,
            map: MapConfig::default(),
            map_lrs: MapLearningRates::default(),
            max_frames: None,
            backend: BackendChoice::default(),
        };
        match algorithm {
            BaseAlgorithm::MonoGs => Self {
                keyframe_policy: KeyframePolicy::Interval { interval: 5 },
                tracking: TrackingConfig {
                    iterations: 15,
                    ..Default::default()
                },
                mapping_iterations: 20,
                map: MapConfig {
                    seed_stride: 2,
                    densify_error_threshold: 0.05,
                    densify_max_per_pass: 250,
                },
                ..base
            },
            BaseAlgorithm::GsSlam => Self {
                keyframe_policy: KeyframePolicy::PoseDistance {
                    translation: 0.10,
                    rotation: 0.12,
                },
                tracking: TrackingConfig {
                    iterations: 12,
                    ..Default::default()
                },
                mapping_iterations: 12,
                map: MapConfig {
                    seed_stride: 3,
                    densify_max_per_pass: 120,
                    ..Default::default()
                },
                ..base
            },
            BaseAlgorithm::PhotoSlam => Self {
                keyframe_policy: KeyframePolicy::Photometric { threshold: 0.03 },
                tracking: TrackingConfig {
                    iterations: 5,
                    ..Default::default()
                },
                mapping_iterations: 10,
                map: MapConfig {
                    seed_stride: 3,
                    densify_max_per_pass: 80,
                    ..Default::default()
                },
                ..base
            },
            BaseAlgorithm::SplaTam => Self {
                keyframe_policy: KeyframePolicy::Always,
                tracking: TrackingConfig {
                    iterations: 12,
                    ..Default::default()
                },
                mapping_iterations: 12,
                map: MapConfig {
                    seed_stride: 2,
                    densify_max_per_pass: 150,
                    ..Default::default()
                },
                ..base
            },
        }
    }

    /// Limits the number of processed frames.
    pub fn with_frames(mut self, frames: usize) -> Self {
        self.max_frames = Some(frames);
        self
    }

    /// Selects the execution backend.
    pub fn with_backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }
}

/// Per-frame directives an extension returns before the frame is processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameDirectives {
    /// Linear resolution downsample factor for tracking this frame
    /// (1 = native). Keyframes are always processed at factor 1.
    pub resolution_factor: usize,
}

impl Default for FrameDirectives {
    fn default() -> Self {
        Self {
            resolution_factor: 1,
        }
    }
}

/// The one seam between the SLAM pipeline and what plugs into it: the
/// redundancy-reduction techniques (`rtgs-core`), the pruning baselines
/// (`rtgs-baselines`), the hardware models' workload-trace recorder
/// (`rtgs-accel`) and standalone [`track_frame`] callers implement it;
/// base algorithms run with [`NoExtension`].
pub trait PipelineExtension {
    /// Called before each frame; returns directives (e.g. the dynamic
    /// downsampling factor).
    fn frame_directives(
        &mut self,
        _frame_index: usize,
        _frames_since_keyframe: usize,
    ) -> FrameDirectives {
        FrameDirectives::default()
    }

    /// Which gradients [`Self::after_tracking_iteration`] reads from
    /// tracking trial `iteration`, and so which backward that trial runs.
    /// Asked once per trial, after the trial's stop decision and before its
    /// backward: `last` is the index of the frame's last trial as far as
    /// tracking knows it: `iteration` itself on the trial after which
    /// tracking stops, otherwise the cap's last index,
    /// [`TrackingConfig::iterations`] − 1 (an upper bound, because a
    /// plateau may stop the frame sooner).
    ///
    /// [`GradSet::Full`] (the default) shows the trial's per-Gaussian
    /// gradients. [`GradSet::PoseOnly`] promises to read none of this
    /// trial's: an accepted trial then runs the pose-only backward (the
    /// same pose bits), and a rejected trial, or one with
    /// `iteration == last`, no backward at all. No answer moves an output
    /// bit: the pose step reads only accepted trials' pose gradients.
    /// Mapping always runs the full backward, whatever this returns.
    fn tracking_grads(&self, _iteration: usize, _last: usize) -> GradSet {
        GradSet::Full
    }

    /// Called after each tracking iteration — never during mapping or the
    /// first frame's initialisation — with `artifacts.iteration` restarting
    /// at 0 on every frame; may mask Gaussians off for the rest of the
    /// frame (adaptive pruning), effective from the next iteration.
    fn after_tracking_iteration(
        &mut self,
        _artifacts: &IterationArtifacts<'_>,
        _mask: &mut [bool],
    ) {
    }

    /// Called after each mapping iteration, frame 0's initial mapping
    /// included, with `artifacts.iteration` restarting at 0 on every
    /// keyframe. Mapping's backward is always the full set, and nothing
    /// here can change what mapping does.
    fn after_mapping_iteration(&mut self, _artifacts: &IterationArtifacts<'_>) {}

    /// Called at the end of each frame with the final tracking mask and the
    /// keyframe decision; returns a keep-mask (one entry per stable ID,
    /// `map.capacity()` long) for permanent Gaussian removal, or `None` to
    /// keep everything. Removal tombstones — surviving IDs never move. The
    /// paper removes Gaussians masked during tracking only on non-keyframes
    /// (keyframes skip pruning, Sec. 5.5).
    fn end_of_frame(
        &mut self,
        _map: &ShardedScene,
        _mask: &[bool],
        _is_keyframe: bool,
    ) -> Option<Vec<bool>> {
        None
    }

    /// Not called: an extension sizes its per-ID state from the mask and
    /// the map its other hooks receive. Kept only so the benchmark harness,
    /// which forwards it, compiles. It goes with the harness's next change
    /// (ROADMAP item 1a).
    fn on_scene_resized(&mut self, _new_capacity: usize) {}

    /// Extension name for reports.
    fn name(&self) -> &'static str {
        "base"
    }
}

/// The identity extension (no redundancy reduction). It reads no
/// gradients, so tracking runs the pose-only backward for it.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoExtension;

impl PipelineExtension for NoExtension {
    fn tracking_grads(&self, _iteration: usize, _last: usize) -> GradSet {
        GradSet::PoseOnly
    }
}

/// Report for one processed frame: what it computed, nothing a clock read
/// (its wall time goes to the `slam.frame_ns` histogram and the
/// `slam.frame` span), so a checkpoint persists it whole.
#[derive(Debug, Clone)]
pub struct FrameReport {
    /// Frame index.
    pub index: usize,
    /// Whether this frame was selected as a keyframe.
    pub is_keyframe: bool,
    /// Estimated camera-to-world pose.
    pub pose_c2w: Se3,
    /// Resolution factor used for tracking.
    pub resolution_factor: usize,
    /// Final tracking loss.
    pub tracking_loss: f32,
    /// Map size after this frame.
    pub gaussians: usize,
    /// Fragments processed during tracking (forward).
    pub tracking_fragments: u64,
    /// Fragment gradient events of the backward passes tracking ran (see
    /// [`TrackResult::fragment_grad_events`](crate::TrackResult)).
    pub tracking_grad_events: u64,
}

/// Aggregate report for a full run. Its outputs cover every frame of the
/// session, a restored one's included; its timings (walls, stage timings,
/// [`Self::overall_fps`]) cover the [`Self::timed_steps`] this process ran.
#[derive(Debug, Clone)]
pub struct SlamReport {
    /// Frames processed.
    pub frames_processed: usize,
    /// Steps this process ran and timed: every frame, or for a restored
    /// session the frames since the resume.
    pub timed_steps: usize,
    /// Estimated trajectory (camera-to-world).
    pub trajectory: Vec<Se3>,
    /// ATE versus ground truth.
    pub ate: AteResult,
    /// Mean PSNR of re-rendered frames versus observations.
    pub mean_psnr: f64,
    /// Peak map size (Gaussians).
    pub peak_gaussians: usize,
    /// Peak parameter memory (bytes, reference accounting).
    pub peak_param_bytes: u64,
    /// Wall time the timed steps spent tracking.
    pub tracking_wall: Duration,
    /// Wall time the timed steps spent mapping, frame 0's initial mapping
    /// included.
    pub mapping_wall: Duration,
    /// Wall time of the timed steps: the sum of each [`SlamPipeline::step`]'s
    /// wall time, frame 0's initialisation included, so at least
    /// `tracking_wall + mapping_wall`. The report's own evaluation (the
    /// PSNR re-renders) is not in it.
    pub total_wall: Duration,
    /// Per-stage timing breakdown of the timed steps (tracking + mapping).
    pub stage_timings: StageTimings,
    /// Stage timings of the timed steps' tracking.
    pub tracking_timings: StageTimings,
    /// Stage timings of the timed steps' mapping.
    pub mapping_timings: StageTimings,
    /// Number of keyframes.
    pub keyframes: usize,
    /// Per-frame reports.
    pub frames: Vec<FrameReport>,
}

impl SlamReport {
    /// End-to-end frames per second: [`Self::timed_steps`] over
    /// [`Self::total_wall`] (tracking, mapping and the rest of each step,
    /// not the report's evaluation).
    pub fn overall_fps(&self) -> f64 {
        let t = self.total_wall.as_secs_f64();
        if t <= 0.0 {
            return 0.0;
        }
        self.timed_steps as f64 / t
    }
}

/// Wall time this process spent stepping one session, as totals only: the
/// source of every [`SlamReport`] timing. Never persisted.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StepClock {
    tracking_timings: StageTimings,
    mapping_timings: StageTimings,
    tracking_wall: Duration,
    mapping_wall: Duration,
    total_wall: Duration,
    steps: usize,
}

/// Pre-resolved global-registry handles recorded once per frame. Resolving
/// by name goes through the registry mutex and allocates the key string, so
/// the pipeline does it once at construction, not on the frame path.
pub(crate) struct PipelineMetrics {
    /// Fleet-wide per-frame latency (tracking + mapping wall) histogram.
    frame_ns: Arc<Histogram>,
    /// Frames processed across all sessions in this process.
    frames: Arc<Counter>,
    /// Frustum-cull survivor count at the end of each frame.
    visible_gaussians: Arc<Histogram>,
    /// High-water mark over every session's [`FrameArena`] footprint.
    arena_high_water: Arc<Gauge>,
}

impl Default for PipelineMetrics {
    fn default() -> Self {
        let registry = rtgs_telemetry::global();
        Self {
            frame_ns: registry.histogram("slam.frame_ns"),
            frames: registry.counter("slam.frames"),
            visible_gaussians: registry.histogram("slam.visible_gaussians"),
            arena_high_water: registry.gauge("arena.high_water_bytes"),
        }
    }
}

/// The SLAM pipeline. Owns the evolving map and trajectory estimate;
/// processes a [`SyntheticDataset`] frame by frame.
pub struct SlamPipeline<'d> {
    pub(crate) config: SlamConfig,
    pub(crate) dataset: &'d SyntheticDataset,
    pub(crate) backend: Arc<dyn Backend>,
    pub(crate) extension: Box<dyn PipelineExtension + Send>,
    pub(crate) scene: ShardedScene,
    pub(crate) map_optimizer: MapOptimizer,
    /// Per-session frame arena: every tracking and mapping iteration's
    /// transient render/backward buffers live here and are reused across
    /// frames (zero steady-state allocations).
    pub(crate) arena: FrameArena,
    /// Tracking's active mask, one entry per stable ID: each frame starts
    /// it from the map's live flags, the extension masks entries off during
    /// tracking, and `end_of_frame` sees it padded to the map's capacity.
    pub(crate) mask: Vec<bool>,
    /// One pose per processed frame: its length is the next frame's index.
    pub(crate) trajectory: Vec<Se3>,
    pub(crate) keyframes: Vec<usize>,
    pub(crate) frame_reports: Vec<FrameReport>,
    /// The steps this process ran, timed.
    pub(crate) clock: StepClock,
    pub(crate) metrics: PipelineMetrics,
    pub(crate) peak_gaussians: usize,
    /// Load-shed resolution floor (1 = none): under SLO pressure the serve
    /// layer raises this so tracking runs on the downsampled path until the
    /// backlog drains. Combined with the extension's own downsampling ramp
    /// via `max`; predicted keyframes still track at full resolution.
    pub(crate) pressure_factor: usize,
    /// Trace context staged for the next [`SlamPipeline::step`] (set by the
    /// open-loop ingest path from the popped frame); consumed on step.
    pub(crate) pending_trace: TraceCtx,
    /// Trace context of the most recently stepped frame, carried onward to
    /// checkpoint capture and the replication wire.
    pub(crate) last_trace: TraceCtx,
}

impl<'d> SlamPipeline<'d> {
    /// Creates a pipeline for a dataset with no extension (base algorithm).
    pub fn new(config: SlamConfig, dataset: &'d SyntheticDataset) -> Self {
        Self::with_extension(config, dataset, Box::new(NoExtension))
    }

    /// Creates a pipeline with a redundancy-reduction extension (the RTGS
    /// algorithm wraps base pipelines through this entry point).
    pub fn with_extension(
        config: SlamConfig,
        dataset: &'d SyntheticDataset,
        extension: Box<dyn PipelineExtension + Send>,
    ) -> Self {
        Self {
            config,
            dataset,
            backend: config.backend.instantiate(),
            extension,
            scene: ShardedScene::new(DEFAULT_CELL_SIZE),
            map_optimizer: MapOptimizer::new(0, config.map_lrs),
            arena: FrameArena::new(),
            mask: Vec::new(),
            trajectory: Vec::new(),
            keyframes: Vec::new(),
            frame_reports: Vec::new(),
            clock: StepClock::default(),
            metrics: PipelineMetrics::default(),
            peak_gaussians: 0,
            pressure_factor: 1,
            pending_trace: TraceCtx::NONE,
            last_trace: TraceCtx::NONE,
        }
    }

    /// Stages the flight-recorder trace context for the next stepped frame
    /// (the open-loop ingest path forwards the popped frame's context so the
    /// tracking span joins the frame's cross-process trace).
    pub fn set_frame_trace(&mut self, trace: TraceCtx) {
        self.pending_trace = trace;
    }

    /// Trace context of the most recently stepped frame ([`TraceCtx::NONE`]
    /// before the first step). Replication forwards this onto the wire.
    pub fn last_trace(&self) -> TraceCtx {
        self.last_trace
    }

    /// Sets the load-shed resolution factor (clamped to at least 1; 1
    /// disables shedding). While above 1, tracking of non-keyframe frames
    /// runs on the downsampled path — the same degradation mechanism as the
    /// extensions' dynamic-downsampling ramp, driven by serving pressure
    /// instead of frames-since-keyframe. The effective factor is the `max`
    /// of both, still subject to the keyframe full-resolution rule and the
    /// resolution floor.
    pub fn set_pressure_factor(&mut self, factor: usize) {
        self.pressure_factor = factor.max(1);
    }

    /// Current map (sharded store; stable IDs, frustum-cullable shards).
    pub fn scene(&self) -> &ShardedScene {
        &self.scene
    }

    /// Number of frames that will be processed.
    pub fn planned_frames(&self) -> usize {
        self.config
            .max_frames
            .map_or(self.dataset.len(), |m| m.min(self.dataset.len()))
    }

    /// Whether every planned frame has been processed.
    pub fn is_complete(&self) -> bool {
        self.trajectory.len() >= self.planned_frames()
    }

    /// Processes all frames and produces the final report.
    pub fn run(&mut self) -> SlamReport {
        while self.step().is_some() {}
        self.report()
    }

    /// Processes the next frame; returns `None` when the sequence is done.
    pub fn step(&mut self) -> Option<usize> {
        if self.is_complete() {
            return None;
        }
        let step_start = Instant::now();
        let index = self.trajectory.len();
        // Adopt the staged ingest trace, or mint one so closed-loop frames
        // (no ingest front-end) still stitch through checkpoint and wire.
        self.last_trace = if self.pending_trace.is_traced() {
            std::mem::replace(&mut self.pending_trace, TraceCtx::NONE)
        } else {
            TraceCtx::fresh()
        };
        let frame = &self.dataset.frames[index];

        if index == 0 {
            let t0 = Instant::now();
            self.initialize(frame);
            self.record_frame_metrics(index, t0.elapsed(), t0);
            self.clock.total_wall += step_start.elapsed();
            self.clock.steps += 1;
            return Some(index);
        }

        // ---- Tracking -----------------------------------------------------
        let frames_since_kf = index - self.keyframes.last().copied().unwrap_or(0);
        let directives = self.extension.frame_directives(index, frames_since_kf);
        // Serving pressure combines with the extension's downsampling ramp;
        // applied before the keyframe clamp so keyframes stay full-res even
        // while shedding.
        let mut factor = directives
            .resolution_factor
            .max(self.pressure_factor)
            .max(1);
        if self
            .config
            .keyframe_policy
            .predicts_keyframe(index, self.keyframes.last().copied())
        {
            // Predictable keyframes are tracked at full resolution: their
            // poses anchor the map during mapping, so downsampling them
            // would bake the ramp's drift into the reconstruction.
            factor = 1;
        }
        if self.config.algorithm.geometric_tracking() {
            // Photo-SLAM's classical tracker works on sparse features; model
            // its cost as tracking at reduced resolution.
            factor = factor.max(2);
        }
        // Resolution floor: the paper downsamples 480p-1200p frames, which
        // never approaches degenerate sizes; our dataset analogs are already
        // ~16x smaller, so the schedule is clamped to keep enough pixels for
        // the photometric loss to stay informative.
        while factor > 1
            && (self.dataset.camera.width / factor < 16 || self.dataset.camera.height / factor < 10)
        {
            factor -= 1;
        }
        let camera = self.dataset.camera.downsampled(factor);
        let track_frame_data = RgbdFrame {
            index,
            color: frame.color.downsampled(factor),
            depth: frame.depth.as_ref().map(|d| d.downsampled(factor)),
        };

        let init = self.motion_model();
        // Mapping/pruning mutated the map since the last frame; re-validate
        // shard bounds once so every tracking iteration's frustum cull runs
        // on fresh boxes.
        self.scene.refresh_bounds_with(&*self.backend);
        // Every live ID starts the frame active; the extension may mask some
        // off during tracking.
        self.mask.clear();
        self.mask.extend_from_slice(self.scene.live_flags());
        let t0 = Instant::now();
        let result = track_frame(
            &self.scene,
            init,
            &track_frame_data,
            &camera,
            &self.config.tracking,
            &mut self.mask,
            self.extension.as_mut(),
            &mut self.clock.tracking_timings,
            &mut self.arena,
            &*self.backend,
        );
        let tracking_wall = t0.elapsed();
        let pose_c2w = result.w2c.inverse();
        self.trajectory.push(pose_c2w);

        // ---- Keyframe decision ---------------------------------------------
        let last_kf = self.keyframes.last().copied();
        let last_kf_pose = last_kf.map(|k| self.trajectory[k]);
        let is_keyframe = self.config.keyframe_policy.is_keyframe(&KeyframeContext {
            frame_index: index,
            last_keyframe_index: last_kf,
            pose: &pose_c2w,
            last_keyframe_pose: last_kf_pose.as_ref(),
            image: &frame.color,
            last_keyframe_image: last_kf.map(|k| &self.dataset.frames[k].color),
        });

        // ---- Mapping (keyframes only) ---------------------------------------
        // Mapping sees every live ID: the tracking mask's entries are the
        // extension's to act on below.
        let mut mapping_wall = Duration::ZERO;
        if is_keyframe {
            let t1 = Instant::now();
            self.map_keyframe(index);
            mapping_wall = t1.elapsed();
            self.keyframes.push(index);
        }
        self.clock.tracking_wall += tracking_wall;
        self.clock.mapping_wall += mapping_wall;

        // ---- Extension end-of-frame (permanent pruning) ----------------------
        // Mapping may have appended new IDs; they count as active.
        self.mask.resize(self.scene.capacity(), true);
        if let Some(keep) = self
            .extension
            .end_of_frame(&self.scene, &self.mask, is_keyframe)
        {
            assert_eq!(keep.len(), self.scene.capacity(), "keep mask length");
            // Tombstone instead of compacting: surviving IDs — and the
            // optimizer moments, masks and scores keyed by them — stay put.
            for (id, &k) in keep.iter().enumerate() {
                if !k && self.scene.is_live(id as u32) {
                    self.scene.tombstone(id as u32);
                }
            }
        }

        self.peak_gaussians = self.peak_gaussians.max(self.scene.len());
        self.frame_reports.push(FrameReport {
            index,
            is_keyframe,
            pose_c2w,
            resolution_factor: factor,
            tracking_loss: result.final_loss,
            gaussians: self.scene.len(),
            tracking_fragments: result.fragments_processed,
            tracking_grad_events: result.fragment_grad_events,
        });
        self.record_frame_metrics(index, tracking_wall + mapping_wall, t0);
        self.clock.total_wall += step_start.elapsed();
        self.clock.steps += 1;
        Some(index)
    }

    /// Records the frame's telemetry: latency into the fleet-wide
    /// `slam.frame_ns` histogram (the source of the serving report's
    /// percentiles), the frustum-cull survivor count, the arena's
    /// high-water footprint, and a `slam.frame` span covering the frame.
    fn record_frame_metrics(&mut self, index: usize, wall: Duration, start: Instant) {
        let wall_ns = wall.as_nanos() as u64;
        self.metrics.frame_ns.record(wall_ns);
        self.metrics.frames.incr();
        self.metrics
            .visible_gaussians
            .record(self.arena.visible().ids.len() as u64);
        self.metrics
            .arena_high_water
            .set_max(self.arena.high_water_bytes() as i64);
        emit_flow_span(
            "slam.frame",
            "frame",
            ns_since_epoch(start),
            wall_ns,
            index as u64,
            self.last_trace.trace_id,
            hops::TRACK,
        );
    }

    fn initialize(&mut self, frame: &RgbdFrame) {
        // Anchor the first pose at ground truth (standard SLAM convention).
        let pose_c2w = self.dataset.poses_c2w[0];
        self.trajectory.push(pose_c2w);
        self.scene = seed_from_frame(
            frame,
            &self.dataset.camera,
            &pose_c2w,
            &self.config.map,
            0xC0FFEE,
        );
        self.map_optimizer = MapOptimizer::new(self.scene.capacity(), self.config.map_lrs);

        // Initial mapping to settle the seeded Gaussians.
        let t0 = Instant::now();
        self.map_keyframe(0);
        self.clock.mapping_wall += t0.elapsed();
        self.keyframes.push(0);
        self.frame_reports.push(FrameReport {
            index: 0,
            is_keyframe: true,
            pose_c2w,
            resolution_factor: 1,
            tracking_loss: 0.0,
            gaussians: self.scene.len(),
            tracking_fragments: 0,
            tracking_grad_events: 0,
        });
    }

    /// Constant-velocity motion model for the tracking initialization.
    fn motion_model(&self) -> Se3 {
        let n = self.trajectory.len();
        let prev_w2c = self.trajectory[n - 1].inverse();
        if n < 2 {
            return prev_w2c;
        }
        let before_w2c = self.trajectory[n - 2].inverse();
        // delta = prev ∘ before⁻¹ in w2c space; predict delta ∘ prev.
        let delta = prev_w2c.compose(&before_w2c.inverse());
        delta.compose(&prev_w2c)
    }

    /// Runs the mapping optimization for keyframe `index`: alternates the
    /// current keyframe with random earlier keyframes (forgetting
    /// mitigation), densifies once mid-way, prunes transparent Gaussians at
    /// the end.
    ///
    /// Every interval of it is a stage: Steps ❶–❺ and the loss as
    /// [`timed_iteration`] accounts them, and the rest — each iteration's
    /// bounds refresh, then its extension hook, Adam step and densification,
    /// and the closing prune — as [`StageId::Other`], so the mapping stages
    /// cover the mapping wall time.
    fn map_keyframe(&mut self, index: usize) {
        let camera = self.dataset.camera;
        let iterations = self.config.mapping_iterations;
        let densify_at = iterations / 2;

        for iter in 0..iterations {
            // 70% current keyframe, 30% a previous keyframe.
            let target_index = if iter % 10 < 7 || self.keyframes.is_empty() {
                index
            } else {
                self.keyframes[(iter * 7919) % self.keyframes.len()]
            };
            let frame = &self.dataset.frames[target_index];
            let w2c = self.trajectory[target_index].inverse();

            // The previous iteration's optimizer step (or densification)
            // moved Gaussians; re-validate shard bounds, then cull + gather
            // the keyframe frustum's working set into the session arena.
            let start = Instant::now();
            self.scene.refresh_bounds_with(&*self.backend);
            let timings = &mut self.clock.mapping_timings;
            record_since(timings, StageId::Other, start, iter as u64);
            timed_iteration(
                &mut self.arena,
                &self.scene,
                &w2c,
                &camera,
                frame,
                &self.config.tracking.loss,
                &mut self.clock.mapping_timings,
                iter as u64,
                &*self.backend,
            );
            let start = Instant::now();
            self.extension.after_mapping_iteration(&IterationArtifacts {
                iteration: iter,
                grads: self.arena.backward(),
                visible_ids: &self.arena.visible().ids,
                tiles: self.arena.tiles(),
                output: self.arena.output(),
                fragments: self.arena.fragments(),
            });
            self.map_optimizer.step_visible_with(
                &mut self.scene,
                &self.arena.visible().ids,
                &self.arena.backward().gaussians,
                &*self.backend,
            );

            if iter == densify_at && target_index == index {
                densify(
                    &mut self.scene,
                    &mut self.map_optimizer,
                    self.arena.output(),
                    frame,
                    &camera,
                    &self.trajectory[index],
                    &self.config.map,
                    0xDE5EED ^ index as u64,
                );
            }
            let timings = &mut self.clock.mapping_timings;
            record_since(timings, StageId::Other, start, iter as u64);
        }

        // Tombstoned IDs drop out of the next cull; survivors stay exactly
        // where they were.
        let start = Instant::now();
        prune_transparent(&mut self.scene);
        let timings = &mut self.clock.mapping_timings;
        record_since(timings, StageId::Other, start, iterations as u64);
        self.peak_gaussians = self.peak_gaussians.max(self.scene.len());
    }

    /// Builds the final report. Valid after [`SlamPipeline::run`] or once
    /// stepping is complete. The PSNR re-renders run frame-parallel on the
    /// session backend ([`render_poses`]) and fold in frame order, so
    /// `mean_psnr` is bitwise a serial evaluation's.
    pub fn report(&self) -> SlamReport {
        let n = self.trajectory.len();
        let gt = &self.dataset.poses_c2w[..n.min(self.dataset.poses_c2w.len())];
        let ate = if n >= 2 {
            absolute_trajectory_error(&self.trajectory, gt)
        } else {
            AteResult {
                rmse: 0.0,
                mean: 0.0,
                max: 0.0,
            }
        };

        // Rendering fidelity: re-render each processed frame from its
        // estimated pose and compare against the observation. The last
        // frame's pruning and tombstones leave shard bounds stale, and the
        // report borrows the map, so it renders a copy with fresh bounds
        // (the report is an offline pass, not a hot path).
        let mut final_map = self.scene.clone();
        final_map.refresh_bounds_with(&*self.backend);
        let poses_w2c: Vec<Se3> = self.trajectory.iter().map(Se3::inverse).collect();
        let observed = &self.dataset.frames;
        let psnrs = render_poses(
            &final_map,
            &poses_w2c,
            &self.dataset.camera,
            &*self.backend,
            |i, rendered| psnr(&rendered.image, &observed[i].color),
        );
        let mut psnr_acc = 0.0f64;
        let mut psnr_n = 0usize;
        for p in psnrs {
            if p.is_finite() {
                psnr_acc += p;
                psnr_n += 1;
            }
        }

        let clock = &self.clock;
        let mut stage = clock.tracking_timings;
        stage.accumulate(&clock.mapping_timings);

        SlamReport {
            frames_processed: n,
            timed_steps: clock.steps,
            trajectory: self.trajectory.clone(),
            ate,
            mean_psnr: if psnr_n > 0 {
                psnr_acc / psnr_n as f64
            } else {
                0.0
            },
            peak_gaussians: self.peak_gaussians,
            peak_param_bytes: self.peak_gaussians as u64 * 59 * 4,
            tracking_wall: clock.tracking_wall,
            mapping_wall: clock.mapping_wall,
            total_wall: clock.total_wall,
            stage_timings: stage,
            tracking_timings: clock.tracking_timings,
            mapping_timings: clock.mapping_timings,
            keyframes: self.keyframes.len(),
            frames: self.frame_reports.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtgs_scene::DatasetProfile;

    fn tiny_dataset(frames: usize) -> SyntheticDataset {
        SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), frames)
    }

    #[test]
    fn pipeline_processes_all_frames() {
        let ds = tiny_dataset(4);
        let mut p = SlamPipeline::new(
            SlamConfig::for_algorithm(BaseAlgorithm::MonoGs).with_frames(4),
            &ds,
        );
        let frame_ns = rtgs_telemetry::global().histogram("slam.frame_ns");
        let recorded_before = frame_ns.count();
        let report = p.run();
        assert_eq!(report.frames_processed, 4);
        assert_eq!(report.trajectory.len(), 4);
        assert_eq!(report.frames.len(), 4);
        // One latency sample per frame (concurrent tests may add more).
        assert!(frame_ns.count() >= recorded_before + 4);
    }

    #[test]
    fn first_frame_is_keyframe_and_seeds_map() {
        let ds = tiny_dataset(2);
        let mut p = SlamPipeline::new(
            SlamConfig::for_algorithm(BaseAlgorithm::GsSlam).with_frames(2),
            &ds,
        );
        p.step();
        assert!(!p.scene().is_empty());
        let report = p.report();
        assert!(report.frames[0].is_keyframe);
    }

    #[test]
    fn splatam_maps_every_frame() {
        let ds = tiny_dataset(3);
        let mut p = SlamPipeline::new(
            SlamConfig::for_algorithm(BaseAlgorithm::SplaTam).with_frames(3),
            &ds,
        );
        let report = p.run();
        assert_eq!(report.keyframes, 3);
        assert!(report.frames.iter().all(|f| f.is_keyframe));
    }

    #[test]
    fn monogs_interval_keyframes() {
        let ds = tiny_dataset(7);
        let mut cfg = SlamConfig::for_algorithm(BaseAlgorithm::MonoGs).with_frames(7);
        cfg.tracking.iterations = 4;
        cfg.mapping_iterations = 4;
        let mut p = SlamPipeline::new(cfg, &ds);
        let report = p.run();
        // Keyframes at 0, 5 with interval 5 over 7 frames.
        assert_eq!(report.keyframes, 2);
    }

    #[test]
    fn tracking_produces_reasonable_trajectory() {
        let ds = tiny_dataset(5);
        let mut cfg = SlamConfig::for_algorithm(BaseAlgorithm::MonoGs).with_frames(5);
        cfg.tracking.iterations = 10;
        cfg.mapping_iterations = 10;
        let mut p = SlamPipeline::new(cfg, &ds);
        let report = p.run();
        // Coarse sanity: ATE under 20 cm on a tiny sequence.
        assert!(
            report.ate.rmse < 0.20,
            "ATE too large: {} m",
            report.ate.rmse
        );
        assert!(
            report.mean_psnr > 10.0,
            "PSNR too low: {}",
            report.mean_psnr
        );
    }

    #[test]
    fn report_time_accounting_consistent() {
        let ds = tiny_dataset(3);
        let mut cfg = SlamConfig::for_algorithm(BaseAlgorithm::GsSlam).with_frames(3);
        cfg.tracking.iterations = 3;
        cfg.mapping_iterations = 3;
        let mut p = SlamPipeline::new(cfg, &ds);
        let report = p.run();
        assert!(report.total_wall >= report.tracking_wall);
        assert!(report.overall_fps() > 0.0);
        assert!(report.stage_timings.total() > Duration::ZERO);
    }

    /// `total_wall` is the steps' wall time: the report's evaluation pass
    /// (a PSNR re-render per pose) adds nothing to it, however often it runs.
    #[test]
    fn total_wall_excludes_the_evaluation() {
        let ds = tiny_dataset(3);
        let mut cfg = SlamConfig::for_algorithm(BaseAlgorithm::MonoGs).with_frames(3);
        cfg.tracking.iterations = 3;
        cfg.mapping_iterations = 3;
        let mut p = SlamPipeline::new(cfg, &ds);
        let first = p.run();
        let second = p.report();
        assert_eq!(first.total_wall, second.total_wall);
        let stepped = first.tracking_wall + first.mapping_wall;
        assert!(
            first.total_wall >= stepped,
            "{:?} < {stepped:?}",
            first.total_wall
        );
    }

    /// The evaluation renders its poses frame-parallel and folds their PSNRs
    /// in frame order: on a two-worker pool, over two full claims of frames
    /// and a partial one, `mean_psnr` is bitwise a serial evaluation's, one
    /// arena rendering frame after frame. (Folded last frame first, these
    /// nine PSNRs sum to other bits.)
    #[test]
    fn report_psnr_is_a_frame_order_serial_evaluation() {
        let frames = 2 * rtgs_render::POSE_CHUNK + 1;
        let ds = tiny_dataset(frames);
        let mut cfg = SlamConfig::for_algorithm(BaseAlgorithm::MonoGs)
            .with_frames(frames)
            .with_backend(BackendChoice::Parallel { threads: 2 });
        cfg.tracking.iterations = 2;
        cfg.mapping_iterations = 2;
        let mut pipeline = SlamPipeline::new(cfg, &ds);
        let report = pipeline.run();
        let mut map = pipeline.scene().clone();
        map.refresh_bounds();
        let mut arena = FrameArena::new();
        let (mut acc, mut n) = (0.0f64, 0usize);
        for (pose, frame) in report.trajectory.iter().zip(&ds.frames) {
            let out = arena.forward(&map, &pose.inverse(), &ds.camera, &rtgs_runtime::Serial);
            let p = psnr(&out.image, &frame.color);
            if p.is_finite() {
                acc += p;
                n += 1;
            }
        }
        assert_eq!(n, frames);
        assert_eq!(report.mean_psnr.to_bits(), (acc / n as f64).to_bits());
    }

    #[test]
    fn extension_can_mask_and_prune() {
        struct HalfPruner;
        impl PipelineExtension for HalfPruner {
            fn end_of_frame(
                &mut self,
                map: &ShardedScene,
                _mask: &[bool],
                _is_keyframe: bool,
            ) -> Option<Vec<bool>> {
                // Odd IDs, and the highest live one: every frame, the last
                // included, tombstones something.
                let last = map.live_ids().last();
                Some(
                    (0..map.capacity() as u32)
                        .map(|i| i % 2 == 0 && Some(i) != last)
                        .collect(),
                )
            }
            fn name(&self) -> &'static str {
                "half-pruner"
            }
        }
        let ds = tiny_dataset(3);
        let mut cfg = SlamConfig::for_algorithm(BaseAlgorithm::GsSlam).with_frames(3);
        cfg.tracking.iterations = 2;
        cfg.mapping_iterations = 2;
        let base = SlamPipeline::new(cfg, &ds).run();
        let mut pipeline = SlamPipeline::with_extension(cfg, &ds, Box::new(HalfPruner));
        let pruned = pipeline.run();
        assert!(pruned.frames.last().unwrap().gaussians < base.frames.last().unwrap().gaussians);

        // Evaluation renders the pruned map through the cull, on bounds the
        // last frame's tombstones left stale: its PSNR is the flat AoS
        // oracle's over the flattened map, bit for bit.
        let (flat, _) = pipeline.scene().flatten();
        let (mut acc, mut n) = (0.0f64, 0usize);
        for (pose, frame) in pruned.trajectory.iter().zip(&ds.frames) {
            let (_, _, out) =
                rtgs_render::reference::render_frame_aos(&flat, &pose.inverse(), &ds.camera, None);
            let p = psnr(&out.output.image, &frame.color);
            if p.is_finite() {
                acc += p;
                n += 1;
            }
        }
        assert!(n > 0);
        assert_eq!(
            pipeline.report().mean_psnr.to_bits(),
            (acc / n as f64).to_bits()
        );
    }

    /// The per-iteration contract `rtgs-core`'s pruner relies on, seen
    /// through the pipeline: one `after_tracking_iteration` per tracking
    /// trial, `iteration` restarting at 0 on every frame, no call during
    /// mapping or frame 0's initialisation, one gradient per visible ID, and
    /// a mask edit in effect from the next iteration. Mapping iterations,
    /// frame 0's included, go to `after_mapping_iteration` instead, once
    /// each, with the full gradient set. The mask itself lives
    /// for one frame: `end_of_frame` sees the frame's edits with every ID
    /// mapping appended active, and the next frame starts again from the
    /// map's live flags, so a live ID masked the frame before is active.
    #[test]
    fn extension_sees_each_tracking_iteration_once() {
        use std::sync::Mutex;
        /// One hook call: which hook, the frame (`None` before the first
        /// `frame_directives`) and the iteration.
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Call {
            Grads(Option<usize>, usize),
            Track(Option<usize>, usize),
            Map(Option<usize>, usize),
        }
        struct Probe {
            frame: Option<usize>,
            masked: Vec<u32>,
            /// Mask length (the map's capacity) when tracking started.
            tracked_capacity: usize,
            /// The map's live flags at the previous frame's end.
            live_at_end: Option<Vec<bool>>,
            /// Every iteration hook's call, in order.
            calls: Arc<Mutex<Vec<Call>>>,
            /// IDs mapping appended, per `end_of_frame`.
            appended: Arc<Mutex<Vec<usize>>>,
        }
        impl PipelineExtension for Probe {
            fn frame_directives(&mut self, frame_index: usize, _: usize) -> FrameDirectives {
                self.frame = Some(frame_index);
                FrameDirectives::default()
            }
            fn tracking_grads(&self, iteration: usize, _last: usize) -> GradSet {
                let call = Call::Grads(self.frame, iteration);
                self.calls.lock().unwrap().push(call);
                GradSet::Full
            }
            fn after_mapping_iteration(&mut self, a: &IterationArtifacts<'_>) {
                let call = Call::Map(self.frame, a.iteration);
                self.calls.lock().unwrap().push(call);
                assert_eq!(a.grads.gaussians.len(), a.visible_ids.len());
                assert_eq!(a.tiles.slot_ids.len(), a.visible_ids.len());
            }
            fn after_tracking_iteration(&mut self, a: &IterationArtifacts<'_>, mask: &mut [bool]) {
                let frame = self.frame.expect("called before the first tracked frame");
                let call = Call::Track(self.frame, a.iteration);
                self.calls.lock().unwrap().push(call);
                assert_eq!(a.grads.gaussians.len(), a.visible_ids.len());
                // Iteration 0 masks every other visible Gaussian off; no
                // later iteration of the frame may render one of them.
                if a.iteration == 0 {
                    if let Some(live) = &self.live_at_end {
                        assert_eq!(mask, &live[..], "frame {frame} starts from the live flags");
                        assert!(
                            self.masked.iter().any(|&id| mask[id as usize]),
                            "a live ID masked in frame {} is active in frame {frame}",
                            frame - 1
                        );
                    }
                    self.tracked_capacity = mask.len();
                    self.masked = a.visible_ids.iter().copied().step_by(2).collect();
                    assert!(!self.masked.is_empty());
                    self.masked.iter().for_each(|&id| mask[id as usize] = false);
                } else {
                    assert!(a.visible_ids.iter().all(|id| !self.masked.contains(id)));
                }
            }
            fn end_of_frame(
                &mut self,
                map: &ShardedScene,
                mask: &[bool],
                _is_keyframe: bool,
            ) -> Option<Vec<bool>> {
                assert_eq!(mask.len(), map.capacity());
                assert!(self.masked.iter().all(|&id| !mask[id as usize]));
                assert!(mask[self.tracked_capacity..].iter().all(|&m| m));
                self.appended
                    .lock()
                    .unwrap()
                    .push(map.capacity() - self.tracked_capacity);
                self.live_at_end = Some(map.live_flags().to_vec());
                None
            }
        }

        // SplaTAM maps every frame: each tracked frame is followed by
        // mapping iterations, which must reach `after_mapping_iteration`
        // and never `after_tracking_iteration`.
        let ds = tiny_dataset(4);
        let mut cfg = SlamConfig::for_algorithm(BaseAlgorithm::SplaTam).with_frames(4);
        cfg.tracking.iterations = 3;
        cfg.mapping_iterations = 2;
        // Every pixel is a densification candidate: mapping appends IDs.
        cfg.map.densify_error_threshold = 0.0;
        let calls = Arc::new(Mutex::new(Vec::new()));
        let appended = Arc::new(Mutex::new(Vec::new()));
        let probe = Probe {
            frame: None,
            masked: Vec::new(),
            tracked_capacity: 0,
            live_at_end: None,
            calls: Arc::clone(&calls),
            appended: Arc::clone(&appended),
        };
        let report = SlamPipeline::with_extension(cfg, &ds, Box::new(probe)).run();

        // Frame 0 maps; every later frame asks and observes each tracking
        // trial in turn, 0.. however many ran (at least 2 here), then maps.
        let calls = calls.lock().unwrap();
        let mut expected: Vec<Call> = (0..2).map(|it| Call::Map(None, it)).collect();
        for f in &report.frames[1..] {
            let frame = Some(f.index);
            let asked = |c: &&Call| matches!(c, Call::Grads(at, _) if *at == frame);
            let trials = calls.iter().filter(asked).count();
            assert!(trials >= 2, "frame {}: {trials} trials", f.index);
            for it in 0..trials {
                expected.push(Call::Grads(frame, it));
                expected.push(Call::Track(frame, it));
            }
            expected.extend((0..2).map(|it| Call::Map(frame, it)));
        }
        assert_eq!(*calls, expected);
        let appended = appended.lock().unwrap();
        assert_eq!(appended.len(), 3, "one end_of_frame per tracked frame");
        assert!(
            appended.iter().any(|&n| n > 0),
            "mapping appended IDs: {appended:?}"
        );
    }

    #[test]
    fn peak_gaussians_reported() {
        let ds = tiny_dataset(3);
        let mut cfg = SlamConfig::for_algorithm(BaseAlgorithm::MonoGs).with_frames(3);
        cfg.tracking.iterations = 2;
        cfg.mapping_iterations = 4;
        let mut p = SlamPipeline::new(cfg, &ds);
        let report = p.run();
        assert!(report.peak_gaussians > 0);
        assert_eq!(report.peak_param_bytes, report.peak_gaussians as u64 * 236);
    }
}
