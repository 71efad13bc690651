//! Session persistence: checkpoint and restore for [`SlamPipeline`].
//!
//! A checkpoint carries, once each, the facts a session needs to continue
//! bit-for-bit and cannot recompute:
//!
//! - the sharded map, through the canonical [`rtgs_snapshot`] scene codec;
//! - the [`MapOptimizer`]'s Adam moments and step counter;
//! - the peak map size;
//! - the per-frame reports.
//!
//! It is stamped with a **config fingerprint** so a snapshot written under
//! one [`SlamConfig`] cannot be silently resumed under another
//! ([`SnapshotError::ConfigMismatch`] fails loudly instead).
//!
//! A restore derives the rest. The trajectory is the reports' poses, the
//! keyframes are the indices of the keyframe reports, and the next frame
//! is the number of reports. The last keyframe's image is the dataset's
//! frame, and the active mask starts each frame from the map's live flags.
//!
//! The map and the ID-keyed arrays ride in the [`CheckpointLog`]'s scene
//! sections and [`Channel`]s (so repeated [`SlamPipeline::checkpoint_into`]
//! calls on one log write changed-shard deltas, not full snapshots); the
//! small session state travels as the log's opaque meta blob.
//!
//! The optimizer keeps its moments as the two channels `adam.m` and
//! `adam.v`, so a capture lends them to the log, not a copy, and a restore
//! moves the decoded channels back in. A tombstoned ID's moment row stays
//! as it was until [`MapOptimizer::register`] zeroes it for a recycled ID,
//! but it reaches no byte: the codec writes the rows of live IDs only, and
//! a restore leaves dead rows zero.
//!
//! What is *not* persisted: wall time, stage timings included, so a
//! checkpoint is a pure function of the session's inputs (two runs of one
//! seeded session write identical bytes, base and deltas alike) and a
//! restored session's report times only the steps it ran after the resume;
//! and extension-internal state (a restored session starts with no
//! extension).
//!
//! The session meta blob is a `SESS` section (fingerprint, peak map size,
//! optimizer step: 24 bytes) and an `FRPT` section (a report count, then
//! one 73-byte row per frame). The 0.15–0.20 layout, whose `SESS` also held
//! two stage-timing blocks (120 bytes) and whose rows held two walls,
//! restores as [`SnapshotError::Corrupt`] and is never misread.

use crate::keyframe::KeyframePolicy;
use crate::optimizer::{MapOptimizer, MOMENT_CHANNELS, PARAMS_PER_GAUSSIAN};
use crate::pipeline::{BaseAlgorithm, FrameReport, SlamConfig, SlamPipeline, StepClock};
use rtgs_math::{Quat, Se3, Vec3};
use rtgs_render::{FrameArena, LossKind, ShardedScene};
use rtgs_scene::SyntheticDataset;
use rtgs_snapshot::format::{put_f32, put_len, put_u64, put_u8, Cursor};
use rtgs_snapshot::{
    CaptureStats, Channel, CheckpointLog, SectionBuilder, Sections, SnapshotError,
};

/// Meta-blob section: fingerprint + scalar counters.
const META_TAG: [u8; 4] = *b"SESS";
/// Meta-blob section: per-frame reports.
const FRPT_TAG: [u8; 4] = *b"FRPT";
/// Bytes of one `FRPT` row: index, keyframe flag, pose (7 × f32),
/// resolution factor, tracking loss, map size, fragments, gradient events.
const FRPT_ROW_BYTES: usize = 8 + 1 + 7 * 4 + 8 + 4 + 8 + 8 + 8;

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
/// Settings that are constants of the code (the tracking trust region,
/// seeding, cleanup and the map cap) are not config fields and are not
/// hashed.
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
    put_f32(&mut b, t.loss.lambda_pho);
    put_u8(&mut b, matches!(t.loss.kind, LossKind::L2) as u8);
    put_f32(&mut b, t.loss.min_depth_coverage);
    put_len(&mut b, config.mapping_iterations);
    let m = &config.map;
    put_len(&mut b, m.seed_stride);
    put_f32(&mut b, m.densify_error_threshold);
    put_len(&mut b, m.densify_max_per_pass);
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
    peak_gaussians: usize,
    optimizer_step: u64,
    frame_reports: Vec<FrameReport>,
}

impl SlamPipeline<'_> {
    fn encode_session_meta(&self) -> Vec<u8> {
        let mut builder = SectionBuilder::new();

        let meta = builder.section(META_TAG);
        put_u64(meta, config_fingerprint(&self.config));
        put_len(meta, self.peak_gaussians);
        put_u64(meta, self.map_optimizer.step_count());

        let frpt = builder.section(FRPT_TAG);
        put_len(frpt, self.frame_reports.len());
        for r in &self.frame_reports {
            put_len(frpt, r.index);
            put_u8(frpt, r.is_keyframe as u8);
            put_pose(frpt, &r.pose_c2w);
            put_len(frpt, r.resolution_factor);
            put_f32(frpt, r.tracking_loss);
            put_len(frpt, r.gaussians);
            put_u64(frpt, r.tracking_fragments);
            put_u64(frpt, r.tracking_grad_events);
        }

        builder.finish()
    }

    /// Checkpoints the session into `log`: a full base on the log's first
    /// capture, a changed-shards-only delta afterwards. Persists the map, the
    /// optimizer moments (channels `adam.m` / `adam.v`) and step counter,
    /// the peak map size and the per-frame reports, stamped with the config
    /// fingerprint, and no wall time: two runs of one seeded session write
    /// identical records. A restore derives the trajectory, the keyframes
    /// and the next frame from the reports, the last keyframe's image from
    /// the dataset, and the active mask from the map.
    ///
    /// # Errors
    ///
    /// Any capture error of the underlying [`CheckpointLog`].
    pub fn checkpoint_into(&self, log: &mut CheckpointLog) -> Result<CaptureStats, SnapshotError> {
        let meta = self.encode_session_meta();
        let stats = log.capture(&self.scene, self.map_optimizer.moments(), &meta)?;
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
    /// returned — into this pipeline in place; the moment channels move into
    /// the optimizer as decoded.
    pub(crate) fn apply_restored(
        &mut self,
        (scene, mut channels, meta_bytes): (ShardedScene, Vec<Channel>, Vec<u8>),
    ) -> Result<(), SnapshotError> {
        let meta = decode_session_meta(&meta_bytes)?;
        let expected = config_fingerprint(&self.config);
        if meta.fingerprint != expected {
            return Err(SnapshotError::ConfigMismatch {
                expected,
                found: meta.fingerprint,
            });
        }
        // Report `i` is frame `i`, so the session must fit the dataset the
        // report pass re-renders against.
        if meta.frame_reports.len() > self.dataset.len() {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "session has {} frame reports but the dataset has {} frames",
                    meta.frame_reports.len(),
                    self.dataset.len()
                ),
            });
        }

        let mut take = |name: &str| -> Result<Channel, SnapshotError> {
            channels
                .iter()
                .position(|c| c.name == name && c.width == PARAMS_PER_GAUSSIAN)
                .map(|i| channels.swap_remove(i))
                .ok_or_else(|| SnapshotError::Corrupt {
                    context: format!(
                        "session snapshot is missing channel '{name}'/{PARAMS_PER_GAUSSIAN}"
                    ),
                })
        };
        let moments = [take(MOMENT_CHANNELS[0])?, take(MOMENT_CHANNELS[1])?];
        self.map_optimizer =
            MapOptimizer::restored(self.config.map_lrs, meta.optimizer_step, moments);
        self.scene = scene;
        self.arena = FrameArena::new();
        self.trajectory = meta.frame_reports.iter().map(|r| r.pose_c2w).collect();
        self.keyframes = meta
            .frame_reports
            .iter()
            .filter(|r| r.is_keyframe)
            .map(|r| r.index)
            .collect();
        self.frame_reports = meta.frame_reports;
        self.peak_gaussians = meta.peak_gaussians;
        // Wall time is not session state: the report times the steps this
        // process runs from here on.
        self.clock = StepClock::default();
        Ok(())
    }

    /// Rough resident-memory estimate of the session's heavy state in
    /// bytes (map arena, optimizer moments, masks, reports) — what serving
    /// reports as `health.resident_bytes`.
    pub fn resident_bytes(&self) -> usize {
        let per_id = std::mem::size_of::<rtgs_render::Gaussian3d>()
            + 2 * PARAMS_PER_GAUSSIAN * 4 // optimizer moments
            + 4 // shard index
            + 2; // liveness + mask
        self.scene.capacity() * per_id
            + self.trajectory.len() * std::mem::size_of::<Se3>()
            + self.frame_reports.len() * std::mem::size_of::<FrameReport>()
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
    let peak_gaussians = meta.u64()? as usize;
    let optimizer_step = meta.u64()?;
    meta.expect_end()?;

    let mut frpt = Cursor::new(sections.get(FRPT_TAG)?, "session frame reports");
    let n = frpt.len(FRPT_ROW_BYTES)?;
    let mut frame_reports = Vec::with_capacity(n);
    for position in 0..n {
        let index = frpt.u64()? as usize;
        // The trajectory and the keyframe indices are derived from the
        // reports, so report `i` must be frame `i`.
        if index != position {
            return Err(SnapshotError::Corrupt {
                context: format!("session frame report {position} claims frame {index}"),
            });
        }
        frame_reports.push(FrameReport {
            index,
            is_keyframe: frpt.u8()? != 0,
            pose_c2w: read_pose(&mut frpt)?,
            resolution_factor: frpt.u64()? as usize,
            tracking_loss: frpt.f32()?,
            gaussians: frpt.u64()? as usize,
            tracking_fragments: frpt.u64()?,
            tracking_grad_events: frpt.u64()?,
        });
    }
    frpt.expect_end()?;

    Ok(SessionMeta {
        fingerprint,
        peak_gaussians,
        optimizer_step,
        frame_reports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::MapLearningRates;
    use crate::pipeline::{BaseAlgorithm, SlamConfig};
    use rtgs_scene::DatasetProfile;
    use std::time::Duration;

    fn tiny_dataset(frames: usize) -> SyntheticDataset {
        SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), frames)
    }

    fn quick_config(frames: usize) -> SlamConfig {
        let mut cfg = SlamConfig::for_algorithm(BaseAlgorithm::GsSlam).with_frames(frames);
        cfg.tracking.iterations = 3;
        cfg.mapping_iterations = 3;
        cfg
    }

    /// The core crash/restore contract, for every base algorithm:
    /// checkpoint at frame k, rebuild a pipeline from the log (the
    /// "restart"), continue both to the end — trajectories and reports
    /// match bit for bit. Two logs survive the crash: one full checkpoint
    /// at frame k, and the incremental log a session writes with
    /// `checkpoint_into` after every frame (a base, then one delta per
    /// frame, which writes shards exactly when the frame was mapped). The
    /// restored session derives what the checkpoint does not carry:
    /// Photo-SLAM's photometric policy reads the last keyframe's image,
    /// GS-SLAM's pose-distance policy the last keyframe's pose, and SplaTAM
    /// maps every frame.
    ///
    /// Each restored session also re-checkpoints to the crashed session's
    /// base bytes: what a capture lends and what a restore moves back in
    /// encode alike (`dead_moment_rows_reach_no_byte` adds a dead row with
    /// momentum). Run to the end, it checkpoints to the uninterrupted
    /// session's bytes, whole: a checkpoint holds no wall time.
    ///
    /// Every session runs twice: at the default opacity learning rate,
    /// under which none tombstones, and at a steep one, under which
    /// `prune_transparent` tombstones before the crash in every session
    /// (and in SplaTAM's again after it), so the checkpoint carries dead
    /// IDs and the continuation maps over them.
    #[test]
    fn restore_continues_bitwise_identically() {
        let ds = tiny_dataset(6);
        let steep = 2.0;
        for (algorithm, opacity_lr) in BaseAlgorithm::all()
            .into_iter()
            .flat_map(|a| [(a, MapLearningRates::default().opacity), (a, steep)])
        {
            let mut cfg = SlamConfig::for_algorithm(algorithm).with_frames(6);
            cfg.tracking.iterations = 3;
            cfg.mapping_iterations = 3;
            cfg.map_lrs.opacity = opacity_lr;
            let case = format!("{algorithm:?} at opacity lr {opacity_lr}");

            let mut uninterrupted = SlamPipeline::new(cfg, &ds);
            let mut crashing = SlamPipeline::new(cfg, &ds);
            let mut incremental = CheckpointLog::new();
            for frame in 0..4 {
                uninterrupted.step();
                crashing.step();
                let capture = crashing
                    .checkpoint_into(&mut incremental)
                    .expect("checkpoint_into");
                assert_eq!(capture.is_base, frame == 0, "{case} frame {frame}");
                assert_eq!(
                    capture.shards_written > 0,
                    crashing.frame_reports[frame].is_keyframe,
                    "{case} frame {frame}"
                );
            }
            if opacity_lr == steep {
                let (live, capacity) = (crashing.scene.len(), crashing.scene.capacity());
                assert!(capacity > live, "{case}: {live}/{capacity} at the crash");
            }
            let full = crashing.checkpoint().expect("checkpoint");
            let crashed_keyframes = std::mem::take(&mut crashing.keyframes);
            drop(crashing); // the "crash"
            while uninterrupted.step().is_some() {}
            let a = uninterrupted.report();

            for log in [&full, &incremental] {
                let mut restored = SlamPipeline::restore_from(cfg, &ds, log).expect("restore");
                assert_eq!(
                    restored.checkpoint().expect("re-checkpoint").base_bytes(),
                    full.base_bytes(),
                    "{case}: a restored session re-captures the crashed one's bytes"
                );
                assert_eq!(
                    restored.trajectory.len(),
                    4,
                    "restore resumes after the last capture"
                );
                assert_eq!(restored.keyframes, crashed_keyframes, "{case}");
                while restored.step().is_some() {}
                assert_eq!(
                    restored.checkpoint().expect("checkpoint").encode(),
                    uninterrupted.checkpoint().expect("checkpoint").encode(),
                    "{case}: the continuation checkpoints like the uninterrupted session"
                );
                let b = restored.report();
                assert_eq!(a.frames_processed, b.frames_processed);
                assert_eq!(a.keyframes, b.keyframes, "{case}");
                for (pa, pb) in a.trajectory.iter().zip(b.trajectory.iter()) {
                    assert_eq!(pa.translation, pb.translation, "{case}");
                    assert_eq!(pa.rotation, pb.rotation, "{case}");
                }
                assert_eq!(a.ate.rmse.to_bits(), b.ate.rmse.to_bits());
                assert_eq!(a.mean_psnr.to_bits(), b.mean_psnr.to_bits());
                assert_eq!(a.peak_gaussians, b.peak_gaussians);
                for (fa, fb) in a.frames.iter().zip(b.frames.iter()) {
                    assert_eq!(fa.tracking_loss.to_bits(), fb.tracking_loss.to_bits());
                    assert_eq!(fa.gaussians, fb.gaussians);
                    assert_eq!(fa.is_keyframe, fb.is_keyframe, "{case}");
                    assert_eq!(fa.tracking_fragments, fb.tracking_fragments);
                }
            }
        }
    }

    /// A tombstoned ID keeps its moment row in the optimizer, which a
    /// capture lends as it stands, while a restore leaves that row zero.
    /// Both encode the same bytes, through a delta and through a base,
    /// because the codec writes the rows of live IDs only.
    #[test]
    fn dead_moment_rows_reach_no_byte() {
        let ds = tiny_dataset(3);
        let cfg = quick_config(3);
        let mut p = SlamPipeline::new(cfg, &ds);
        p.step();
        p.step();
        let mut incremental = CheckpointLog::new();
        let _ = p.checkpoint_into(&mut incremental).unwrap();
        let first_moment = |p: &SlamPipeline<'_>, id: u32| {
            let start = id as usize * PARAMS_PER_GAUSSIAN;
            p.map_optimizer.moments()[0].data[start..start + PARAMS_PER_GAUSSIAN].to_vec()
        };
        let moving = |p: &SlamPipeline<'_>, id| first_moment(p, id).iter().any(|&x| x != 0.0);
        let dead = p
            .scene
            .live_ids()
            .find(|&id| moving(&p, id))
            .expect("mapping moved some Gaussian");
        p.scene.tombstone(dead);
        let delta = p.checkpoint_into(&mut incremental).unwrap();
        assert!(!delta.is_base && delta.shards_written > 0);
        let full = p.checkpoint().unwrap();
        assert!(moving(&p, dead), "the dead row keeps its momentum");
        for log in [&incremental, &full] {
            let restored = SlamPipeline::restore_from(cfg, &ds, log).unwrap();
            assert!(!moving(&restored, dead), "a restore leaves dead rows zero");
            assert_eq!(
                restored.checkpoint().unwrap().base_bytes(),
                full.base_bytes()
            );
        }
    }

    /// Incremental checkpoints into one log: a tracked non-keyframe
    /// mutates nothing, so its delta carries zero shard records; mapping
    /// frames write only the frustum's changed shards.
    #[test]
    fn tracked_frame_delta_writes_only_changed_shards() {
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
        assert_eq!(restored.trajectory.len(), 2);
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

    /// The trajectory and the keyframe indices are derived from the frame
    /// reports, so a report that is not the frame at its position is a
    /// typed error, not a misread session.
    #[test]
    fn report_out_of_position_is_rejected() {
        let ds = tiny_dataset(3);
        let cfg = quick_config(3);
        let mut p = SlamPipeline::new(cfg, &ds);
        p.step();
        p.step();
        p.frame_reports[1].index = 7;
        match SlamPipeline::restore_from(cfg, &ds, &p.checkpoint().unwrap()) {
            Err(SnapshotError::Corrupt { context }) => {
                assert!(context.contains("report 1 claims frame 7"), "{context}")
            }
            other => panic!("expected Corrupt, got {:?}", other.err()),
        }
    }

    /// A session longer than the dataset it is restored against is a typed
    /// error at restore, through the log and through a follower's replay,
    /// not a panic in the report pass.
    #[test]
    fn session_longer_than_dataset_is_rejected() {
        let long = tiny_dataset(5);
        let short = tiny_dataset(3);
        let cfg = quick_config(5);
        let mut p = SlamPipeline::new(cfg, &long);
        while p.step().is_some() {}
        let log = p.checkpoint().unwrap();
        let replay = rtgs_snapshot::ReplayState::from_base(log.base_bytes()).unwrap();
        for restored in [
            SlamPipeline::restore_from(cfg, &short, &log),
            SlamPipeline::restore_from_replay(cfg, &short, &replay),
        ] {
            match restored {
                Err(SnapshotError::Corrupt { context }) => assert!(
                    context.contains("5 frame reports") && context.contains("3 frames"),
                    "{context}"
                ),
                other => panic!("expected Corrupt, got {:?}", other.err()),
            }
        }
        assert!(SlamPipeline::restore_from(cfg, &long, &log).is_ok());
    }

    /// A restored session's report times only the steps this process ran:
    /// MonoGS restored after 5 of 6 frames and stepped once reports all six
    /// frames but one timed step, a `total_wall` that covers that step's
    /// tracking and mapping walls, and `overall_fps` over that step alone.
    #[test]
    fn restored_report_times_only_its_own_steps() {
        let ds = tiny_dataset(6);
        let mut cfg = SlamConfig::for_algorithm(BaseAlgorithm::MonoGs).with_frames(6);
        cfg.tracking.iterations = 3;
        cfg.mapping_iterations = 3;
        let mut p = SlamPipeline::new(cfg, &ds);
        for _ in 0..5 {
            p.step();
        }
        assert_eq!(p.report().timed_steps, 5);
        let log = p.checkpoint().unwrap();
        let mut restored = SlamPipeline::restore_from(cfg, &ds, &log).unwrap();
        assert_eq!(restored.report().timed_steps, 0);
        assert_eq!(restored.report().overall_fps(), 0.0);
        assert_eq!(restored.step(), Some(5));
        assert_eq!(restored.step(), None);
        let r = restored.report();
        assert_eq!((r.frames_processed, r.timed_steps), (6, 1));
        assert!(r.frames[5].is_keyframe, "frame 5 tracks and maps");
        assert!(r.tracking_wall > Duration::ZERO && r.mapping_wall > Duration::ZERO);
        assert!(
            r.total_wall >= r.tracking_wall + r.mapping_wall,
            "{:?} < {:?} + {:?}",
            r.total_wall,
            r.tracking_wall,
            r.mapping_wall
        );
        assert_eq!(r.overall_fps(), 1.0 / r.total_wall.as_secs_f64());
    }

    /// Writes a frame-report section the way every layout before 0.21 did:
    /// each row also held the frame's tracking and mapping walls.
    fn put_walled_reports(builder: &mut SectionBuilder, reports: &[FrameReport]) {
        let frpt = builder.section(FRPT_TAG);
        put_len(frpt, reports.len());
        for r in reports {
            put_len(frpt, r.index);
            put_u8(frpt, r.is_keyframe as u8);
            put_pose(frpt, &r.pose_c2w);
            put_len(frpt, r.resolution_factor);
            put_f32(frpt, r.tracking_loss);
            put_u64(frpt, 1_500_000); // tracking wall, ns
            put_u64(frpt, 2_500_000); // mapping wall, ns
            put_len(frpt, r.gaussians);
            put_u64(frpt, r.tracking_fragments);
            put_u64(frpt, r.tracking_grad_events);
        }
        assert_eq!(frpt.len(), 8 + reports.len() * (FRPT_ROW_BYTES + 16));
    }

    /// Session checkpoints in the two earlier layouts fail to restore with
    /// a typed error, through the log and through a follower's replay, and
    /// are never misread. Both wrote two walls in every `FRPT` row. The
    /// 0.14 layout's `SESS` also carried the next frame index, two wall
    /// totals and two stage-timing blocks (144 bytes), beside `TRAJ` and
    /// `KEYF` sections and a `mask` channel. The 0.15–0.20 layout's `SESS`
    /// carried the two stage-timing blocks (120 bytes). No writer of either
    /// is left, so the test writes their bytes itself.
    #[test]
    fn previous_session_layout_is_rejected() {
        let ds = tiny_dataset(3);
        let cfg = quick_config(3);
        let mut p = SlamPipeline::new(cfg, &ds);
        p.step();
        p.step();
        // A stage-timing block is six u64 nanosecond counts.
        let put_timing_blocks = |out: &mut Vec<u8>| (0..12).for_each(|i| put_u64(out, 1_000 * i));
        let capacity = p.scene.capacity();
        let moments =
            || MOMENT_CHANNELS.map(|name| Channel::zeroed(name, PARAMS_PER_GAUSSIAN, capacity));

        let mut v14 = SectionBuilder::new();
        let meta = v14.section(META_TAG);
        put_u64(meta, config_fingerprint(&cfg));
        put_len(meta, p.trajectory.len());
        put_len(meta, p.peak_gaussians);
        put_u64(meta, p.map_optimizer.step_count());
        put_u64(meta, 3_000_000); // tracking wall total, ns
        put_u64(meta, 5_000_000); // mapping wall total, ns
        put_timing_blocks(meta);
        assert_eq!(meta.len(), 144, "the 0.14 SESS layout");
        let traj = v14.section(*b"TRAJ");
        put_len(traj, p.trajectory.len());
        p.trajectory.iter().for_each(|pose| put_pose(traj, pose));
        let keyf = v14.section(*b"KEYF");
        put_len(keyf, p.keyframes.len());
        p.keyframes.iter().for_each(|&k| put_len(keyf, k));
        put_u8(keyf, 0);
        put_walled_reports(&mut v14, &p.frame_reports);
        let mut v14_channels = moments().to_vec();
        v14_channels.push(Channel::zeroed("mask", 1, capacity));

        let mut v20 = SectionBuilder::new();
        let meta = v20.section(META_TAG);
        put_u64(meta, config_fingerprint(&cfg));
        put_len(meta, p.peak_gaussians);
        put_u64(meta, p.map_optimizer.step_count());
        put_timing_blocks(meta);
        assert_eq!(meta.len(), 120, "the 0.15–0.20 SESS layout");
        put_walled_reports(&mut v20, &p.frame_reports);

        for (layout, old_meta, channels, trailing) in [
            ("0.14", v14.finish(), v14_channels, 120),
            ("0.15–0.20", v20.finish(), moments().to_vec(), 96),
        ] {
            let mut log = CheckpointLog::new();
            assert!(log.capture(&p.scene, &channels, &old_meta).unwrap().is_base);
            let replay = rtgs_snapshot::ReplayState::from_base(log.base_bytes()).unwrap();
            for restored in [
                SlamPipeline::restore_from(cfg, &ds, &log),
                SlamPipeline::restore_from_replay(cfg, &ds, &replay),
            ] {
                match restored {
                    Err(SnapshotError::Corrupt { context }) => assert_eq!(
                        context,
                        format!("session meta has {trailing} trailing bytes"),
                        "{layout}"
                    ),
                    other => panic!("{layout}: expected Corrupt, got {:?}", other.err()),
                }
            }
        }
    }

    /// Hostile session meta: a `SESS` or an `FRPT` body cut at every byte
    /// boundary, and report counts that overstate the rows, each captured
    /// into a log the way a checkpoint is. Every one comes back from
    /// `restore_from` and from `restore_from_replay` as a typed error,
    /// never a panic and never a session.
    #[test]
    fn hostile_session_meta_is_a_typed_error() {
        let ds = tiny_dataset(3);
        let cfg = quick_config(3);
        let mut p = SlamPipeline::new(cfg, &ds);
        p.step();
        p.step();
        let meta = p.encode_session_meta();
        let sections = Sections::parse(&meta).unwrap();
        let sess = sections.get(META_TAG).unwrap();
        let frpt = sections.get(FRPT_TAG).unwrap();
        assert_eq!(sess.len(), 24);
        assert_eq!(frpt.len(), 8 + 2 * FRPT_ROW_BYTES);
        let blob = |sess: &[u8], frpt: &[u8]| {
            let mut builder = SectionBuilder::new();
            builder.section(META_TAG).extend_from_slice(sess);
            builder.section(FRPT_TAG).extend_from_slice(frpt);
            builder.finish()
        };
        assert_eq!(blob(sess, frpt), meta, "the cases rebuild the real blob");

        let mut hostile: Vec<(String, Vec<u8>)> = Vec::new();
        for cut in 0..sess.len() {
            hostile.push((format!("SESS cut to {cut} B"), blob(&sess[..cut], frpt)));
        }
        for cut in 0..frpt.len() {
            hostile.push((format!("FRPT cut to {cut} B"), blob(sess, &frpt[..cut])));
        }
        for count in [3, 1 << 40, u64::MAX] {
            let mut overstated = frpt.to_vec();
            overstated[..8].copy_from_slice(&count.to_le_bytes());
            hostile.push((
                format!("{count} reports over 2 rows"),
                blob(sess, &overstated),
            ));
        }

        for (case, meta) in hostile {
            let mut log = CheckpointLog::new();
            let _ = log
                .capture(&p.scene, p.map_optimizer.moments(), &meta)
                .unwrap();
            let replay = rtgs_snapshot::ReplayState::from_base(log.base_bytes()).unwrap();
            for restored in [
                SlamPipeline::restore_from(cfg, &ds, &log),
                SlamPipeline::restore_from_replay(cfg, &ds, &replay),
            ] {
                match restored {
                    Err(SnapshotError::Truncated { .. } | SnapshotError::Corrupt { .. }) => {}
                    other => panic!("{case}: expected a typed error, got {:?}", other.err()),
                }
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
