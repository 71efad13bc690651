//! The end-to-end 3DGS-SLAM pipeline: alternating tracking and
//! keyframe-based mapping (paper Sec. 2.2, Fig. 2), with extension points
//! for the RTGS redundancy-reduction techniques.

use crate::keyframe::{KeyframeContext, KeyframePolicy};
use crate::map::{densify, prune_transparent, seed_from_frame, MapConfig};
use crate::optimizer::{MapLearningRates, MapOptimizer};
use crate::profile::StageTimings;
use crate::tracking::{
    timed_iteration, track_frame, IterationArtifacts, TrackingConfig, TrackingObserver,
};
use rtgs_math::Se3;
use rtgs_metrics::{absolute_trajectory_error, psnr, AteResult};
use rtgs_render::{FrameArena, Image, ShardedScene, WorkloadTrace};
use rtgs_runtime::{Backend, BackendChoice};
use rtgs_scene::{RgbdFrame, SyntheticDataset};
use rtgs_telemetry::flight::hops;
use rtgs_telemetry::{
    emit_flow_span, ns_since_epoch, Counter, Gauge, Histogram, StageNanos, TraceCtx,
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
    /// Record per-iteration workload traces (memory-heavy; hardware
    /// modelling only).
    pub record_traces: bool,
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
            record_traces: false,
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
                    ..Default::default()
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

    /// Enables workload-trace recording.
    pub fn with_traces(mut self) -> Self {
        self.record_traces = true;
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

/// Extension points for redundancy-reduction techniques. `rtgs-core`
/// implements this trait; base algorithms run with [`NoExtension`].
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

    /// Called after each tracking iteration; may mask Gaussians off for the
    /// rest of the frame (adaptive pruning).
    fn after_tracking_iteration(
        &mut self,
        _artifacts: &IterationArtifacts<'_>,
        _mask: &mut [bool],
    ) {
    }

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

    /// Notifies the extension that the map's stable-ID capacity changed
    /// (densification appended new IDs); per-ID buffers must be
    /// re-synchronized to `new_capacity`.
    fn on_scene_resized(&mut self, _new_capacity: usize) {}

    /// Extension name for reports.
    fn name(&self) -> &'static str {
        "base"
    }
}

/// The identity extension (no redundancy reduction).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoExtension;

impl PipelineExtension for NoExtension {}

/// Report for one processed frame.
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
    /// Wall-clock spent tracking.
    pub tracking_wall: Duration,
    /// Wall-clock spent mapping (zero for non-keyframes).
    pub mapping_wall: Duration,
    /// Map size after this frame.
    pub gaussians: usize,
    /// Fragments processed during tracking (forward).
    pub tracking_fragments: u64,
    /// Fragment gradient events during tracking (backward).
    pub tracking_grad_events: u64,
    /// Workload traces from tracking iterations (if enabled).
    pub traces: Vec<WorkloadTrace>,
    /// Workload traces from mapping iterations (if enabled; keyframes only).
    pub mapping_traces: Vec<WorkloadTrace>,
}

/// Aggregate report for a full run.
#[derive(Debug, Clone)]
pub struct SlamReport {
    /// Frames processed.
    pub frames_processed: usize,
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
    /// Total wall-clock across tracking.
    pub tracking_wall: Duration,
    /// Total wall-clock across mapping.
    pub mapping_wall: Duration,
    /// Total wall-clock of the run.
    pub total_wall: Duration,
    /// Per-stage timing breakdown (tracking + mapping).
    pub stage_timings: StageTimings,
    /// Stage timings for tracking only.
    pub tracking_timings: StageTimings,
    /// Stage timings for mapping only.
    pub mapping_timings: StageTimings,
    /// Number of keyframes.
    pub keyframes: usize,
    /// Per-frame reports.
    pub frames: Vec<FrameReport>,
}

impl SlamReport {
    /// End-to-end frames per second (tracking + mapping wall-clock).
    pub fn overall_fps(&self) -> f64 {
        let t = self.total_wall.as_secs_f64();
        if t <= 0.0 {
            return 0.0;
        }
        self.frames_processed as f64 / t
    }

    /// Tracking-only frames per second.
    pub fn tracking_fps(&self) -> f64 {
        let t = self.tracking_wall.as_secs_f64();
        if t <= 0.0 {
            return 0.0;
        }
        self.frames_processed as f64 / t
    }
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

struct ExtensionObserver<'e> {
    extension: &'e mut dyn PipelineExtension,
}

impl TrackingObserver for ExtensionObserver<'_> {
    fn after_iteration(&mut self, artifacts: &IterationArtifacts<'_>, mask: &mut [bool]) {
        self.extension.after_tracking_iteration(artifacts, mask);
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
    pub(crate) mask: Vec<bool>,
    pub(crate) trajectory: Vec<Se3>,
    pub(crate) keyframes: Vec<usize>,
    pub(crate) last_keyframe_image: Option<Image>,
    pub(crate) frame_reports: Vec<FrameReport>,
    pub(crate) tracking_timings: StageNanos,
    pub(crate) mapping_timings: StageNanos,
    pub(crate) metrics: PipelineMetrics,
    pub(crate) tracking_wall: Duration,
    pub(crate) mapping_wall: Duration,
    pub(crate) peak_gaussians: usize,
    pub(crate) next_frame: usize,
    pub(crate) run_start: Option<Instant>,
    pub(crate) pending_mapping_traces: Vec<WorkloadTrace>,
    /// `true` while the session's heavy state is spilled to disk (see
    /// [`SlamPipeline::hibernate_to`]); stepping or reporting in this
    /// state is a scheduler bug and panics loudly.
    pub(crate) hibernated: bool,
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
            scene: ShardedScene::new(config.map.shard_cell_size),
            map_optimizer: MapOptimizer::new(0, config.map_lrs),
            arena: FrameArena::new(),
            mask: Vec::new(),
            trajectory: Vec::new(),
            keyframes: Vec::new(),
            last_keyframe_image: None,
            frame_reports: Vec::new(),
            tracking_timings: StageNanos::default(),
            mapping_timings: StageNanos::default(),
            metrics: PipelineMetrics::default(),
            tracking_wall: Duration::ZERO,
            mapping_wall: Duration::ZERO,
            peak_gaussians: 0,
            next_frame: 0,
            run_start: None,
            pending_mapping_traces: Vec::new(),
            hibernated: false,
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

    /// Current load-shed resolution factor (1 = no shedding).
    pub fn pressure_factor(&self) -> usize {
        self.pressure_factor
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
        self.next_frame >= self.planned_frames()
    }

    /// Processes all frames and produces the final report.
    pub fn run(&mut self) -> SlamReport {
        while self.step().is_some() {}
        self.report()
    }

    /// Processes the next frame; returns `None` when the sequence is done.
    pub fn step(&mut self) -> Option<usize> {
        assert!(
            !self.hibernated,
            "hibernated session stepped without rehydration"
        );
        if self.next_frame >= self.planned_frames() {
            return None;
        }
        if self.run_start.is_none() {
            self.run_start = Some(Instant::now());
        }
        let index = self.next_frame;
        self.next_frame += 1;
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
        let t0 = Instant::now();
        let mut tracking_cfg = self.config.tracking;
        tracking_cfg.record_traces = self.config.record_traces;
        let mut observer = ExtensionObserver {
            extension: self.extension.as_mut(),
        };
        let result = track_frame(
            &self.scene,
            init,
            &track_frame_data,
            &camera,
            &tracking_cfg,
            &mut self.mask,
            &mut observer,
            &mut self.tracking_timings,
            &mut self.arena,
            &*self.backend,
        );
        let tracking_wall = t0.elapsed();
        self.tracking_wall += tracking_wall;
        let pose_c2w = result.w2c.inverse();
        self.trajectory.push(pose_c2w);

        // The extension may have masked Gaussians off during tracking
        // (mask-prune). Capture that state for the end-of-frame decision and
        // restore full visibility (every live ID) for mapping — permanent
        // removal is the extension's call below.
        let tracking_mask = self.mask.clone();
        self.mask.copy_from_slice(self.scene.live_flags());

        // ---- Keyframe decision ---------------------------------------------
        let last_kf = self.keyframes.last().copied();
        let last_kf_pose = last_kf.map(|k| self.trajectory[k]);
        let is_keyframe = self.config.keyframe_policy.is_keyframe(&KeyframeContext {
            frame_index: index,
            last_keyframe_index: last_kf,
            pose: &pose_c2w,
            last_keyframe_pose: last_kf_pose.as_ref(),
            image: &frame.color,
            last_keyframe_image: self.last_keyframe_image.as_ref(),
        });

        // ---- Mapping (keyframes only) ---------------------------------------
        let mut mapping_wall = Duration::ZERO;
        if is_keyframe {
            let t1 = Instant::now();
            self.map_keyframe(index);
            mapping_wall = t1.elapsed();
            self.mapping_wall += mapping_wall;
            self.keyframes.push(index);
            self.last_keyframe_image = Some(frame.color.clone());
        }

        // ---- Extension end-of-frame (permanent pruning) ----------------------
        let tracking_mask = if tracking_mask.len() == self.scene.capacity() {
            tracking_mask
        } else {
            // Mapping appended new IDs; pad conservatively with "active".
            let mut m = tracking_mask;
            m.resize(self.scene.capacity(), true);
            m
        };
        if let Some(keep) = self
            .extension
            .end_of_frame(&self.scene, &tracking_mask, is_keyframe)
        {
            assert_eq!(keep.len(), self.scene.capacity(), "keep mask length");
            // Tombstone instead of compacting: surviving IDs — and the
            // optimizer moments, masks and scores keyed by them — stay put.
            for (id, &k) in keep.iter().enumerate() {
                if !k && self.scene.is_live(id as u32) {
                    self.scene.tombstone(id as u32);
                    self.mask[id] = false;
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
            tracking_wall,
            mapping_wall,
            gaussians: self.scene.len(),
            tracking_fragments: result.fragments_processed,
            tracking_grad_events: result.fragment_grad_events,
            traces: result.traces,
            mapping_traces: std::mem::take(&mut self.pending_mapping_traces),
        });
        self.record_frame_metrics(index, tracking_wall + mapping_wall, t0);
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
        self.mask = self.scene.live_flags().to_vec();
        self.extension.on_scene_resized(self.scene.capacity());

        // Initial mapping to settle the seeded Gaussians.
        let t0 = Instant::now();
        self.map_keyframe(0);
        self.mapping_wall += t0.elapsed();
        self.keyframes.push(0);
        self.last_keyframe_image = Some(frame.color.clone());
        self.peak_gaussians = self.scene.len();
        self.frame_reports.push(FrameReport {
            index: 0,
            is_keyframe: true,
            pose_c2w,
            resolution_factor: 1,
            tracking_loss: 0.0,
            tracking_wall: Duration::ZERO,
            mapping_wall: self.mapping_wall,
            gaussians: self.scene.len(),
            tracking_fragments: 0,
            tracking_grad_events: 0,
            traces: Vec::new(),
            mapping_traces: std::mem::take(&mut self.pending_mapping_traces),
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
            self.scene.refresh_bounds_with(&*self.backend);
            timed_iteration(
                &mut self.arena,
                &self.scene,
                &w2c,
                &camera,
                &self.mask,
                frame,
                &self.config.tracking.loss,
                &mut self.mapping_timings,
                iter as u64,
                &*self.backend,
            );
            let grad_stats = self.arena.backward().stats;

            if self.config.record_traces {
                self.pending_mapping_traces.push(WorkloadTrace::from_render(
                    self.arena.output(),
                    self.arena.tiles(),
                    &camera,
                    grad_stats.fragment_grad_events,
                    self.arena.projection().visible_count(),
                ));
            }
            self.map_optimizer.step_visible(
                &mut self.scene,
                &self.arena.visible().ids,
                &self.arena.backward().gaussians,
            );

            if iter == densify_at && target_index == index {
                let added = densify(
                    &mut self.scene,
                    &mut self.map_optimizer,
                    self.arena.output(),
                    frame,
                    &camera,
                    &self.trajectory[index],
                    &self.config.map,
                    0xDE5EED ^ index as u64,
                );
                if !added.is_empty() {
                    // New IDs are either appended (grow the mask) or
                    // recycled tombstones (flip their entry back on).
                    self.mask.resize(self.scene.capacity(), true);
                    for &id in &added {
                        self.mask[id as usize] = true;
                    }
                    self.extension.on_scene_resized(self.scene.capacity());
                }
            }
        }

        let removed = prune_transparent(&mut self.scene, &self.config.map);
        if removed > 0 {
            // Tombstoned IDs drop out of the active mask; survivors stay
            // exactly where they were.
            self.mask.copy_from_slice(self.scene.live_flags());
            self.extension.on_scene_resized(self.scene.capacity());
        }
        self.peak_gaussians = self.peak_gaussians.max(self.scene.len());
    }

    /// Builds the final report. Valid after [`SlamPipeline::run`] or once
    /// stepping is complete.
    pub fn report(&self) -> SlamReport {
        assert!(
            !self.hibernated,
            "hibernated session reported without rehydration"
        );
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
        // estimated pose and compare against the observation (flattened
        // once — the report is a full-scene offline pass, not a hot path).
        let (final_scene, _) = self.scene.flatten();
        let mut eval_arena = FrameArena::new();
        let mut psnr_acc = 0.0f64;
        let mut psnr_n = 0usize;
        for (i, pose) in self.trajectory.iter().enumerate() {
            let rendered = eval_arena.forward(
                &final_scene,
                &pose.inverse(),
                &self.dataset.camera,
                None,
                &*self.backend,
            );
            let p = psnr(&rendered.image, &self.dataset.frames[i].color);
            if p.is_finite() {
                psnr_acc += p;
                psnr_n += 1;
            }
        }

        // The report exposes `Duration`-typed views over the hot-path
        // nanosecond accumulators (exact conversion).
        let mut stage = self.tracking_timings;
        stage.accumulate(&self.mapping_timings);
        let total_wall = self
            .run_start
            .map(|s| s.elapsed())
            .unwrap_or(Duration::ZERO);

        SlamReport {
            frames_processed: n,
            trajectory: self.trajectory.clone(),
            ate,
            mean_psnr: if psnr_n > 0 {
                psnr_acc / psnr_n as f64
            } else {
                0.0
            },
            peak_gaussians: self.peak_gaussians,
            peak_param_bytes: self.peak_gaussians as u64 * 59 * 4,
            tracking_wall: self.tracking_wall,
            mapping_wall: self.mapping_wall,
            total_wall,
            stage_timings: StageTimings::from(&stage),
            tracking_timings: StageTimings::from(&self.tracking_timings),
            mapping_timings: StageTimings::from(&self.mapping_timings),
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
        let report = p.run();
        assert_eq!(report.frames_processed, 4);
        assert_eq!(report.trajectory.len(), 4);
        assert_eq!(report.frames.len(), 4);
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
        assert!(report.tracking_fps() >= report.overall_fps());
        assert!(report.stage_timings.total() > Duration::ZERO);
    }

    #[test]
    fn traces_recorded_when_enabled() {
        let ds = tiny_dataset(2);
        let mut cfg = SlamConfig::for_algorithm(BaseAlgorithm::MonoGs)
            .with_frames(2)
            .with_traces();
        cfg.tracking.iterations = 2;
        cfg.mapping_iterations = 2;
        let mut p = SlamPipeline::new(cfg, &ds);
        let report = p.run();
        assert_eq!(report.frames[1].traces.len(), 2);
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
                Some((0..map.capacity()).map(|i| i % 2 == 0).collect())
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
        let pruned = SlamPipeline::with_extension(cfg, &ds, Box::new(HalfPruner)).run();
        assert!(pruned.frames.last().unwrap().gaussians < base.frames.last().unwrap().gaussians);
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
