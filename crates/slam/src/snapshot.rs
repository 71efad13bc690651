//! Session persistence: checkpoint and restore for [`SlamPipeline`].
//!
//! A checkpoint covers everything a session needs to continue
//! bit-for-bit: the sharded map (through the canonical
//! [`rtgs_snapshot`] scene codec), the [`MapOptimizer`] moments and step
//! counter, the active mask, the keyframe set, the estimated trajectory,
//! the per-frame reports and wall-clock/iteration counters — all stamped
//! with a **config fingerprint** so a snapshot written under one
//! [`SlamConfig`] cannot be silently resumed under another
//! ([`SnapshotError::ConfigMismatch`] fails loudly instead).
//!
//! The map and the ID-keyed arrays ride in the [`CheckpointLog`]'s scene
//! sections and [`Channel`]s (so repeated [`SlamPipeline::checkpoint_into`]
//! calls on one log write dirty-shard deltas, not full snapshots); the
//! small session state travels as the log's opaque meta blob.
//!
//! What is *not* persisted: wall-clock origins (`total_wall` restarts at
//! resume), workload traces (checkpointing a trace-recording pipeline is
//! rejected with [`SnapshotError::Unsupported`]) and extension-internal
//! state (a restored session starts with no extension).

use crate::keyframe::KeyframePolicy;
use crate::optimizer::{MapOptimizer, PARAMS_PER_GAUSSIAN};
use crate::pipeline::{BaseAlgorithm, FrameReport, SlamConfig, SlamPipeline};
use rtgs_math::{Quat, Se3, Vec3};
use rtgs_render::{FrameArena, Image, LossKind, ShardedScene};
use rtgs_scene::SyntheticDataset;
use rtgs_snapshot::format::{put_f32, put_len, put_u64, put_u8, Cursor};
use rtgs_snapshot::{
    CaptureStats, Channel, CheckpointLog, SectionBuilder, Sections, SnapshotError,
};
use rtgs_telemetry::StageTimings;
use std::time::{Duration, Instant};

/// Channel name of the Adam first moments.
const CH_ADAM_M: &str = "adam.m";
/// Channel name of the Adam second moments.
const CH_ADAM_V: &str = "adam.v";
/// Channel name of the active mask (1.0 = active).
const CH_MASK: &str = "mask";

/// Meta-blob section: fingerprint + scalar counters.
const META_TAG: [u8; 4] = *b"SESS";
/// Meta-blob section: estimated trajectory.
const TRAJ_TAG: [u8; 4] = *b"TRAJ";
/// Meta-blob section: keyframe indices + last keyframe image.
const KEYF_TAG: [u8; 4] = *b"KEYF";
/// Meta-blob section: per-frame reports (without traces).
const FRPT_TAG: [u8; 4] = *b"FRPT";

/// FNV-1a 64-bit hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of every config field that shapes a session's results.
///
/// The execution backend is deliberately excluded: parallel execution is
/// bitwise-identical to serial by construction, so a session checkpointed
/// on one pool size may resume on another.
pub fn config_fingerprint(config: &SlamConfig) -> u64 {
    let mut b = Vec::with_capacity(128);
    put_u8(
        &mut b,
        match config.algorithm {
            BaseAlgorithm::GsSlam => 0,
            BaseAlgorithm::MonoGs => 1,
            BaseAlgorithm::PhotoSlam => 2,
            BaseAlgorithm::SplaTam => 3,
        },
    );
    match config.keyframe_policy {
        KeyframePolicy::Interval { interval } => {
            put_u8(&mut b, 1);
            put_len(&mut b, interval);
        }
        KeyframePolicy::PoseDistance {
            translation,
            rotation,
        } => {
            put_u8(&mut b, 2);
            put_f32(&mut b, translation);
            put_f32(&mut b, rotation);
        }
        KeyframePolicy::Photometric { threshold } => {
            put_u8(&mut b, 3);
            put_f32(&mut b, threshold);
        }
        KeyframePolicy::Always => put_u8(&mut b, 4),
    }
    let t = &config.tracking;
    put_len(&mut b, t.iterations);
    put_f32(&mut b, t.initial_step);
    put_f32(&mut b, t.rotation_scale);
    put_f32(&mut b, t.step_grow);
    put_f32(&mut b, t.step_shrink);
    put_f32(&mut b, t.loss.lambda_pho);
    put_u8(&mut b, matches!(t.loss.kind, LossKind::L2) as u8);
    put_f32(&mut b, t.loss.min_depth_coverage);
    put_f32(&mut b, t.convergence_threshold);
    put_u8(&mut b, t.record_traces as u8);
    put_len(&mut b, config.mapping_iterations);
    let m = &config.map;
    put_len(&mut b, m.seed_stride);
    put_f32(&mut b, m.seed_scale);
    put_f32(&mut b, m.seed_opacity);
    put_f32(&mut b, m.densify_error_threshold);
    put_len(&mut b, m.densify_max_per_pass);
    put_f32(&mut b, m.prune_opacity_threshold);
    put_len(&mut b, m.max_gaussians);
    put_f32(&mut b, m.mono_depth_prior);
    put_f32(&mut b, m.shard_cell_size);
    let l = &config.map_lrs;
    for v in [l.position, l.log_scale, l.rotation, l.opacity, l.color] {
        put_f32(&mut b, v);
    }
    match config.max_frames {
        Some(n) => {
            put_u8(&mut b, 1);
            put_len(&mut b, n);
        }
        None => put_u8(&mut b, 0),
    }
    fnv1a(&b)
}

fn put_duration(out: &mut Vec<u8>, d: Duration) {
    put_u64(out, d.as_nanos() as u64);
}

fn read_duration(c: &mut Cursor<'_>) -> Result<Duration, SnapshotError> {
    Ok(Duration::from_nanos(c.u64()?))
}

// Stage accumulators travel as six u64 nanosecond counts — the exact byte
// layout the format has always used (each stage was a `Duration` encoded
// via `put_duration`), so the nanosecond `StageTimings` changes no snapshot
// bytes.
fn put_timings(out: &mut Vec<u8>, t: &StageTimings) {
    for ns in t.nanos {
        put_u64(out, ns);
    }
}

fn read_timings(c: &mut Cursor<'_>) -> Result<StageTimings, SnapshotError> {
    let mut nanos = [0u64; rtgs_telemetry::STAGE_COUNT];
    for ns in &mut nanos {
        *ns = c.u64()?;
    }
    Ok(StageTimings { nanos })
}

fn put_pose(out: &mut Vec<u8>, pose: &Se3) {
    for v in [
        pose.rotation.w,
        pose.rotation.x,
        pose.rotation.y,
        pose.rotation.z,
        pose.translation.x,
        pose.translation.y,
        pose.translation.z,
    ] {
        put_f32(out, v);
    }
}

fn read_pose(c: &mut Cursor<'_>) -> Result<Se3, SnapshotError> {
    let mut f = [0.0f32; 7];
    for v in &mut f {
        *v = c.f32()?;
    }
    Ok(Se3 {
        rotation: Quat::new(f[0], f[1], f[2], f[3]),
        translation: Vec3::new(f[4], f[5], f[6]),
    })
}

/// Decoded meta blob: the non-map session state.
struct SessionMeta {
    fingerprint: u64,
    next_frame: usize,
    peak_gaussians: usize,
    optimizer_step: u64,
    tracking_wall: Duration,
    mapping_wall: Duration,
    tracking_timings: StageTimings,
    mapping_timings: StageTimings,
    trajectory: Vec<Se3>,
    keyframes: Vec<usize>,
    last_keyframe_image: Option<Image>,
    frame_reports: Vec<FrameReport>,
}

impl SlamPipeline<'_> {
    fn encode_session_meta(&self) -> Vec<u8> {
        let mut builder = SectionBuilder::new();

        let meta = builder.section(META_TAG);
        put_u64(meta, config_fingerprint(&self.config));
        put_len(meta, self.next_frame);
        put_len(meta, self.peak_gaussians);
        put_u64(meta, self.map_optimizer.step_count());
        put_duration(meta, self.tracking_wall);
        put_duration(meta, self.mapping_wall);
        put_timings(meta, &self.tracking_timings);
        put_timings(meta, &self.mapping_timings);

        let traj = builder.section(TRAJ_TAG);
        put_len(traj, self.trajectory.len());
        for pose in &self.trajectory {
            put_pose(traj, pose);
        }

        let keyf = builder.section(KEYF_TAG);
        put_len(keyf, self.keyframes.len());
        for &k in &self.keyframes {
            put_len(keyf, k);
        }
        match &self.last_keyframe_image {
            Some(img) => {
                put_u8(keyf, 1);
                put_len(keyf, img.width());
                put_len(keyf, img.height());
                for p in img.data() {
                    put_f32(keyf, p.x);
                    put_f32(keyf, p.y);
                    put_f32(keyf, p.z);
                }
            }
            None => put_u8(keyf, 0),
        }

        let frpt = builder.section(FRPT_TAG);
        put_len(frpt, self.frame_reports.len());
        for r in &self.frame_reports {
            put_len(frpt, r.index);
            put_u8(frpt, r.is_keyframe as u8);
            put_pose(frpt, &r.pose_c2w);
            put_len(frpt, r.resolution_factor);
            put_f32(frpt, r.tracking_loss);
            put_duration(frpt, r.tracking_wall);
            put_duration(frpt, r.mapping_wall);
            put_len(frpt, r.gaussians);
            put_u64(frpt, r.tracking_fragments);
            put_u64(frpt, r.tracking_grad_events);
        }

        builder.finish()
    }

    /// Checkpoints the session into `log`: a full base on the log's first
    /// capture, a dirty-shards-only delta afterwards. Covers the map, the
    /// optimizer moments and step counter, the active mask, keyframes,
    /// trajectory, per-frame reports and iteration counters, stamped with
    /// the config fingerprint.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] when workload-trace recording is
    /// enabled (traces are not persisted), or any capture error of the
    /// underlying [`CheckpointLog`].
    pub fn checkpoint_into(&self, log: &mut CheckpointLog) -> Result<CaptureStats, SnapshotError> {
        if self.config.tracking.record_traces {
            return Err(SnapshotError::Unsupported {
                context: "checkpointing a pipeline with workload-trace recording enabled",
            });
        }
        let capacity = self.scene.capacity();
        debug_assert!(self.map_optimizer.capacity() >= capacity);
        let mut adam_m = Channel::zeroed(CH_ADAM_M, PARAMS_PER_GAUSSIAN, capacity);
        let mut adam_v = Channel::zeroed(CH_ADAM_V, PARAMS_PER_GAUSSIAN, capacity);
        let mut mask = Channel::zeroed(CH_MASK, 1, capacity);
        for id in self.scene.live_ids() {
            let row = id as usize * PARAMS_PER_GAUSSIAN;
            adam_m.data[row..row + PARAMS_PER_GAUSSIAN]
                .copy_from_slice(self.map_optimizer.first_moment(id));
            adam_v.data[row..row + PARAMS_PER_GAUSSIAN]
                .copy_from_slice(self.map_optimizer.second_moment(id));
            mask.data[id as usize] = f32::from(self.mask[id as usize]);
        }
        let meta = self.encode_session_meta();
        let stats = log.capture(&self.scene, &[adam_m, adam_v, mask], &meta)?;
        // Delta-vs-base byte accounting: how much the incremental encoding
        // saves is a first-class serving metric.
        let registry = rtgs_telemetry::global();
        if stats.is_base {
            registry
                .counter("snapshot.base.bytes")
                .add(stats.bytes as u64);
        } else {
            registry
                .counter("snapshot.delta.bytes")
                .add(stats.bytes as u64);
        }
        registry
            .histogram("snapshot.capture_ns")
            .record(stats.elapsed.as_nanos() as u64);
        Ok(stats)
    }

    /// Checkpoints into a fresh single-capture log (a full snapshot).
    ///
    /// # Errors
    ///
    /// As for [`Self::checkpoint_into`].
    pub fn checkpoint(&self) -> Result<CheckpointLog, SnapshotError> {
        let mut log = CheckpointLog::new();
        let _ = self.checkpoint_into(&mut log)?;
        Ok(log)
    }

    /// Installs restored state — what [`CheckpointLog::restore`] or a
    /// follower's [`ReplayState::restore`](rtgs_snapshot::ReplayState::restore)
    /// returned — into this pipeline in place, keeping its extension object
    /// (which is notified of the restored capacity).
    pub(crate) fn apply_restored(
        &mut self,
        (scene, channels, meta_bytes): (ShardedScene, Vec<Channel>, Vec<u8>),
    ) -> Result<(), SnapshotError> {
        let meta = decode_session_meta(&meta_bytes)?;
        let expected = config_fingerprint(&self.config);
        if meta.fingerprint != expected {
            return Err(SnapshotError::ConfigMismatch {
                expected,
                found: meta.fingerprint,
            });
        }

        let capacity = scene.capacity();
        let channel = |name: &str, width: usize| -> Result<&Channel, SnapshotError> {
            channels
                .iter()
                .find(|c| c.name == name && c.width == width)
                .ok_or_else(|| SnapshotError::Corrupt {
                    context: format!("session snapshot is missing channel '{name}'/{width}"),
                })
        };
        let adam_m = channel(CH_ADAM_M, PARAMS_PER_GAUSSIAN)?;
        let adam_v = channel(CH_ADAM_V, PARAMS_PER_GAUSSIAN)?;
        let mask_ch = channel(CH_MASK, 1)?;
        let to_rows = |ch: &Channel| -> Vec<[f32; PARAMS_PER_GAUSSIAN]> {
            (0..capacity)
                .map(|i| {
                    let mut row = [0.0f32; PARAMS_PER_GAUSSIAN];
                    row.copy_from_slice(
                        &ch.data[i * PARAMS_PER_GAUSSIAN..(i + 1) * PARAMS_PER_GAUSSIAN],
                    );
                    row
                })
                .collect()
        };

        self.map_optimizer = MapOptimizer::from_parts(
            self.config.map_lrs,
            meta.optimizer_step,
            to_rows(adam_m),
            to_rows(adam_v),
        );
        self.mask = mask_ch.data.iter().map(|&v| v != 0.0).collect();
        self.scene = scene;
        self.arena = FrameArena::new();
        self.trajectory = meta.trajectory;
        self.keyframes = meta.keyframes;
        self.last_keyframe_image = meta.last_keyframe_image;
        self.frame_reports = meta.frame_reports;
        self.tracking_timings = meta.tracking_timings;
        self.mapping_timings = meta.mapping_timings;
        self.tracking_wall = meta.tracking_wall;
        self.mapping_wall = meta.mapping_wall;
        self.peak_gaussians = meta.peak_gaussians;
        self.next_frame = meta.next_frame;
        self.pending_mapping_traces = Vec::new();
        // Wall-clock origins do not survive a process boundary: the
        // report's total_wall counts time since the resume.
        self.run_start = if self.next_frame > 0 {
            Some(Instant::now())
        } else {
            None
        };
        self.extension.on_scene_resized(capacity);
        Ok(())
    }

    /// Rough resident-memory estimate of the session's heavy state in
    /// bytes (map arena, optimizer moments, masks, reports) — what serving
    /// reports as `health.resident_bytes`.
    pub fn resident_bytes(&self) -> usize {
        let per_id = std::mem::size_of::<rtgs_render::Gaussian3d>()
            + 2 * PARAMS_PER_GAUSSIAN * 4 // optimizer moments
            + 8 // handle
            + 2; // liveness + mask
        self.scene.capacity() * per_id
            + self.trajectory.len() * std::mem::size_of::<Se3>()
            + self.frame_reports.len() * std::mem::size_of::<FrameReport>()
            + self
                .last_keyframe_image
                .as_ref()
                .map_or(0, |img| img.data().len() * 12)
    }
}

impl<'d> SlamPipeline<'d> {
    /// Rebuilds a session from a checkpoint log with no extension
    /// attached (extension-internal state is not part of a checkpoint).
    ///
    /// # Errors
    ///
    /// Snapshot decode errors, or [`SnapshotError::ConfigMismatch`] when
    /// `config`'s fingerprint differs from the one the snapshot was
    /// written under.
    pub fn restore_from(
        config: SlamConfig,
        dataset: &'d SyntheticDataset,
        log: &CheckpointLog,
    ) -> Result<Self, SnapshotError> {
        let mut pipeline = Self::new(config, dataset);
        pipeline.apply_restored(log.restore()?)?;
        Ok(pipeline)
    }

    /// Rebuilds a session from a replication follower's accumulated
    /// [`ReplayState`](rtgs_snapshot::ReplayState) — the promote step of a
    /// failover. The standby's decoded state is installed as it stands; it
    /// equals what the primary compacting at the same stream position would
    /// restore, so the promoted pipeline continues bitwise-identically.
    ///
    /// # Errors
    ///
    /// As for [`Self::restore_from`] — including
    /// [`SnapshotError::ConfigMismatch`] when the standby `config` differs
    /// from the one the stream was captured under.
    pub fn restore_from_replay(
        config: SlamConfig,
        dataset: &'d SyntheticDataset,
        replay: &rtgs_snapshot::ReplayState,
    ) -> Result<Self, SnapshotError> {
        let mut pipeline = Self::new(config, dataset);
        pipeline.apply_restored(replay.restore()?)?;
        Ok(pipeline)
    }
}

fn decode_session_meta(bytes: &[u8]) -> Result<SessionMeta, SnapshotError> {
    let sections = Sections::parse(bytes)?;

    let mut meta = Cursor::new(sections.get(META_TAG)?, "session meta");
    let fingerprint = meta.u64()?;
    let next_frame = meta.u64()? as usize;
    let peak_gaussians = meta.u64()? as usize;
    let optimizer_step = meta.u64()?;
    let tracking_wall = read_duration(&mut meta)?;
    let mapping_wall = read_duration(&mut meta)?;
    let tracking_timings = read_timings(&mut meta)?;
    let mapping_timings = read_timings(&mut meta)?;
    meta.expect_end()?;

    let mut traj = Cursor::new(sections.get(TRAJ_TAG)?, "session trajectory");
    let n = traj.len(7 * 4)?;
    let mut trajectory = Vec::with_capacity(n);
    for _ in 0..n {
        trajectory.push(read_pose(&mut traj)?);
    }
    traj.expect_end()?;

    let mut keyf = Cursor::new(sections.get(KEYF_TAG)?, "session keyframes");
    let n = keyf.len(8)?;
    let mut keyframes = Vec::with_capacity(n);
    for _ in 0..n {
        keyframes.push(keyf.u64()? as usize);
    }
    let last_keyframe_image = if keyf.u8()? != 0 {
        let width = keyf.len(0)?;
        let height = keyf.len(0)?;
        let pixels = width.checked_mul(height).ok_or(SnapshotError::Truncated {
            context: "session keyframes",
        })?;
        if pixels > keyf.remaining() / 12 {
            return Err(SnapshotError::Truncated {
                context: "session keyframes",
            });
        }
        let mut data = Vec::with_capacity(pixels);
        for _ in 0..pixels {
            data.push(Vec3::new(keyf.f32()?, keyf.f32()?, keyf.f32()?));
        }
        Some(Image::from_data(width, height, data))
    } else {
        None
    };
    keyf.expect_end()?;

    let mut frpt = Cursor::new(sections.get(FRPT_TAG)?, "session frame reports");
    let n = frpt.len(8)?;
    let mut frame_reports = Vec::with_capacity(n);
    for _ in 0..n {
        frame_reports.push(FrameReport {
            index: frpt.u64()? as usize,
            is_keyframe: frpt.u8()? != 0,
            pose_c2w: read_pose(&mut frpt)?,
            resolution_factor: frpt.u64()? as usize,
            tracking_loss: frpt.f32()?,
            tracking_wall: read_duration(&mut frpt)?,
            mapping_wall: read_duration(&mut frpt)?,
            gaussians: frpt.u64()? as usize,
            tracking_fragments: frpt.u64()?,
            tracking_grad_events: frpt.u64()?,
            traces: Vec::new(),
            mapping_traces: Vec::new(),
        });
    }
    frpt.expect_end()?;

    if trajectory.len() != next_frame || frame_reports.len() != next_frame {
        return Err(SnapshotError::Corrupt {
            context: format!(
                "session snapshot claims {next_frame} frames but carries {} poses / {} reports",
                trajectory.len(),
                frame_reports.len()
            ),
        });
    }

    Ok(SessionMeta {
        fingerprint,
        next_frame,
        peak_gaussians,
        optimizer_step,
        tracking_wall,
        mapping_wall,
        tracking_timings,
        mapping_timings,
        trajectory,
        keyframes,
        last_keyframe_image,
        frame_reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{BaseAlgorithm, SlamConfig};
    use rtgs_scene::DatasetProfile;

    fn tiny_dataset(frames: usize) -> SyntheticDataset {
        SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), frames)
    }

    fn quick_config(frames: usize) -> SlamConfig {
        let mut cfg = SlamConfig::for_algorithm(BaseAlgorithm::GsSlam).with_frames(frames);
        cfg.tracking.iterations = 3;
        cfg.mapping_iterations = 3;
        cfg
    }

    /// The core crash/restore contract: checkpoint at frame k, rebuild a
    /// pipeline from the log (the "restart"), continue both to the end —
    /// trajectories and reports match bit for bit. Two logs survive the
    /// crash: one full checkpoint at frame k, and the incremental log a
    /// session writes with `checkpoint_into` after every frame (a base,
    /// then one delta per frame). Keyframes fall on even frames, so the
    /// incremental log holds a mapped delta that no later delta rewrites.
    #[test]
    fn restore_continues_bitwise_identically() {
        let ds = tiny_dataset(6);
        let mut cfg = quick_config(6);
        cfg.keyframe_policy = crate::keyframe::KeyframePolicy::Interval { interval: 2 };

        let mut uninterrupted = SlamPipeline::new(cfg, &ds);
        let mut crashing = SlamPipeline::new(cfg, &ds);
        let mut incremental = CheckpointLog::new();
        for frame in 0..4 {
            uninterrupted.step();
            crashing.step();
            let capture = crashing
                .checkpoint_into(&mut incremental)
                .expect("checkpoint_into");
            assert_eq!(capture.is_base, frame == 0, "frame {frame}");
            assert_eq!(capture.shards_written > 0, frame % 2 == 0, "frame {frame}");
        }
        let full = crashing.checkpoint().expect("checkpoint");
        drop(crashing); // the "crash"
        while uninterrupted.step().is_some() {}
        let a = uninterrupted.report();

        for log in [&full, &incremental] {
            let mut restored = SlamPipeline::restore_from(cfg, &ds, log).expect("restore");
            assert_eq!(
                restored.next_frame, 4,
                "restore resumes after the last capture"
            );
            while restored.step().is_some() {}
            let b = restored.report();
            assert_eq!(a.frames_processed, b.frames_processed);
            assert_eq!(a.keyframes, b.keyframes);
            for (pa, pb) in a.trajectory.iter().zip(b.trajectory.iter()) {
                assert_eq!(pa.translation, pb.translation);
                assert_eq!(pa.rotation, pb.rotation);
            }
            assert_eq!(a.ate.rmse, b.ate.rmse);
            assert_eq!(a.mean_psnr, b.mean_psnr);
            assert_eq!(a.peak_gaussians, b.peak_gaussians);
            for (fa, fb) in a.frames.iter().zip(b.frames.iter()) {
                assert_eq!(fa.tracking_loss, fb.tracking_loss);
                assert_eq!(fa.gaussians, fb.gaussians);
                assert_eq!(fa.is_keyframe, fb.is_keyframe);
                assert_eq!(fa.tracking_fragments, fb.tracking_fragments);
            }
        }
    }

    /// Incremental checkpoints into one log: a tracked non-keyframe
    /// mutates nothing, so its delta carries zero shard records; mapping
    /// frames write only the frustum's dirty shards.
    #[test]
    fn tracked_frame_delta_writes_only_dirty_shards() {
        let ds = tiny_dataset(5);
        // Pose-distance keyframes on a tiny ramp: frames 1.. are usually
        // non-keyframes, so tracking-only frames exist.
        let mut cfg = quick_config(5);
        cfg.keyframe_policy = crate::keyframe::KeyframePolicy::PoseDistance {
            translation: 1e9,
            rotation: 1e9,
        };
        let mut p = SlamPipeline::new(cfg, &ds);
        p.step(); // frame 0 seeds + maps
        let mut log = CheckpointLog::new();
        let base = p.checkpoint_into(&mut log).unwrap();
        assert!(base.is_base);

        p.step(); // frame 1: tracking only (no keyframe, no extension)
        let delta = p.checkpoint_into(&mut log).unwrap();
        assert!(!delta.is_base);
        assert_eq!(
            delta.shards_written, 0,
            "a tracked frame mutates no shard, its delta must be empty"
        );

        let restored = SlamPipeline::restore_from(cfg, &ds, &log).unwrap();
        assert_eq!(restored.next_frame, 2);
        assert_eq!(restored.trajectory.len(), p.trajectory.len());
    }

    #[test]
    fn config_mismatch_fails_loudly() {
        let ds = tiny_dataset(3);
        let cfg = quick_config(3);
        let mut p = SlamPipeline::new(cfg, &ds);
        p.step();
        let log = p.checkpoint().unwrap();

        let mut other = cfg;
        other.mapping_iterations += 1;
        match SlamPipeline::restore_from(other, &ds, &log) {
            Err(SnapshotError::ConfigMismatch { expected, found }) => {
                assert_ne!(expected, found);
            }
            other => panic!("expected ConfigMismatch, got {:?}", other.err()),
        }

        // Backend changes do NOT change the fingerprint (bitwise-identical
        // execution), so resuming on a different pool is allowed.
        let mut parallel = cfg;
        parallel.backend = rtgs_runtime::BackendChoice::Parallel { threads: 2 };
        assert!(SlamPipeline::restore_from(parallel, &ds, &log).is_ok());
    }

    #[test]
    fn record_traces_checkpoint_is_rejected() {
        let ds = tiny_dataset(2);
        let cfg = quick_config(2).with_traces();
        let mut p = SlamPipeline::new(cfg, &ds);
        p.step();
        assert!(matches!(
            p.checkpoint(),
            Err(SnapshotError::Unsupported { .. })
        ));
    }

    /// Promoting from a follower's replay state continues exactly like
    /// restoring from the primary's own log: stream base + deltas into a
    /// ReplayState, promote, and the continuation is bitwise-identical to
    /// an uninterrupted run — and to the oracle that re-bases the replay
    /// into a log (`to_log`, byte-identical to the compacted primary) and
    /// restores from that.
    #[test]
    fn restore_from_replay_matches_restore_from_log() {
        let ds = tiny_dataset(5);
        let cfg = quick_config(5);

        let mut uninterrupted = SlamPipeline::new(cfg, &ds);
        let mut primary = SlamPipeline::new(cfg, &ds);
        let mut log = CheckpointLog::new();
        let mut replay: Option<rtgs_snapshot::ReplayState> = None;
        for _ in 0..3 {
            uninterrupted.step();
            primary.step();
            let stats = primary.checkpoint_into(&mut log).unwrap();
            // What a follower would do with each shipped record.
            if stats.is_base {
                replay = Some(rtgs_snapshot::ReplayState::from_base(log.base_bytes()).unwrap());
            } else {
                let i = log.delta_count() - 1;
                replay
                    .as_mut()
                    .unwrap()
                    .apply_delta(log.delta_bytes(i).unwrap())
                    .unwrap();
            }
        }
        drop(primary); // the crash
        let replay = replay.unwrap();
        log.compact().unwrap();
        assert_eq!(replay.to_log().base_bytes(), log.base_bytes());

        let mut promoted = SlamPipeline::restore_from_replay(cfg, &ds, &replay).expect("promote");
        let mut rebased =
            SlamPipeline::restore_from(cfg, &ds, &replay.to_log()).expect("oracle restore");
        assert_eq!(promoted.scene.export_state(), rebased.scene.export_state());
        assert_eq!(promoted.mask, rebased.mask);
        while uninterrupted.step().is_some() {}
        while promoted.step().is_some() {}
        while rebased.step().is_some() {}

        let a = uninterrupted.report();
        for b in [promoted.report(), rebased.report()] {
            assert_eq!(a.frames_processed, b.frames_processed);
            for (pa, pb) in a.trajectory.iter().zip(b.trajectory.iter()) {
                assert_eq!(pa.translation, pb.translation);
                assert_eq!(pa.rotation, pb.rotation);
            }
            assert_eq!(a.mean_psnr, b.mean_psnr);
            for (fa, fb) in a.frames.iter().zip(b.frames.iter()) {
                assert_eq!(fa.tracking_loss.to_bits(), fb.tracking_loss.to_bits());
                assert_eq!(fa.gaussians, fb.gaussians);
            }
        }
    }

    #[test]
    fn fingerprint_is_stable_and_field_sensitive() {
        let a = config_fingerprint(&quick_config(4));
        let b = config_fingerprint(&quick_config(4));
        assert_eq!(a, b, "fingerprint must be deterministic");
        let mut other = quick_config(4);
        other.map_lrs.position *= 2.0;
        assert_ne!(a, config_fingerprint(&other));
        let mut other = quick_config(4);
        other.tracking.loss.kind = LossKind::L2;
        assert_ne!(a, config_fingerprint(&other));
    }
}
