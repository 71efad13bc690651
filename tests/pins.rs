//! Pinned end-to-end outputs: short sessions whose trajectory, final map,
//! quality figures and checkpoint records must not move by a single bit
//! unless a change means them to (CONTRIBUTING: such a change says so in
//! its title and in its CHANGES entry). Serial and the machine's pool must
//! both hit every pin, and so must a session recording its workload traces,
//! whose traces are pinned too. A checkpoint holds no wall time, so two runs
//! of one seeded session write identical records.

use rtgs::accel::{RunWorkload, TraceRecorder};
use rtgs::core::RtgsConfig;
use rtgs::math::Se3;
use rtgs::render::FrameArena;
use rtgs::runtime::{BackendChoice, Serial};
use rtgs::scene::{DatasetProfile, SyntheticDataset};
use rtgs::slam::{
    track_frame, BaseAlgorithm, NoExtension, PipelineExtension, SlamConfig, SlamPipeline,
    StageTimings,
};
use rtgs::snapshot::{crc32, encode_scene, CheckpointLog};

/// What a session is pinned by: CRC-32s of its trajectory's bits and of
/// its final map's `encode_scene` bytes, its report's ATE RMSE and mean
/// PSNR, compared bit for bit, and CRC-32s of two checkpoint records: the
/// final session's full checkpoint (`checkpoint()?.base_bytes()`) and the
/// last delta of the log it captured after every frame.
#[derive(Debug, Clone, Copy)]
struct Pin {
    trajectory: u32,
    map: u32,
    ate_rmse: f64,
    mean_psnr: f64,
    checkpoint: u32,
    last_delta: u32,
}

impl Pin {
    fn bits(&self) -> (u32, u32, u64, u64, u32, u32) {
        let (ate, psnr) = (self.ate_rmse.to_bits(), self.mean_psnr.to_bits());
        (
            self.trajectory,
            self.map,
            ate,
            psnr,
            self.checkpoint,
            self.last_delta,
        )
    }
}

const FRAMES: usize = 3;

type Extension = Box<dyn PipelineExtension + Send>;

/// Each base algorithm, then RTGS on MonoGS.
const PINS: [(&str, Pin); 5] = [
    (
        "SplaTAM",
        Pin {
            trajectory: 4191340589,
            map: 2346940767,
            ate_rmse: 0.01738996737024054,
            mean_psnr: 31.377783077911193,
            checkpoint: 717026339,
            last_delta: 1798427327,
        },
    ),
    (
        "GS-SLAM",
        Pin {
            trajectory: 1896675130,
            map: 3098236309,
            ate_rmse: 0.024148682137800213,
            mean_psnr: 27.30839611639347,
            checkpoint: 2310631134,
            last_delta: 944198551,
        },
    ),
    (
        "MonoGS",
        Pin {
            trajectory: 3225224503,
            map: 335152191,
            ate_rmse: 0.016976648536297653,
            mean_psnr: 28.855317784395464,
            checkpoint: 1589781852,
            last_delta: 491771675,
        },
    ),
    (
        "Photo-SLAM",
        Pin {
            trajectory: 2741525873,
            map: 449858564,
            ate_rmse: 0.02329975239846739,
            mean_psnr: 27.096737472425716,
            checkpoint: 292660995,
            last_delta: 1503931376,
        },
    ),
    (
        "RTGS + MonoGS",
        Pin {
            trajectory: 2872458425,
            map: 335152191,
            ate_rmse: 0.02194648076804819,
            mean_psnr: 28.476347619824285,
            checkpoint: 1926355393,
            last_delta: 1099607538,
        },
    ),
];

/// MonoGS with its own 15-trial tracking cap. Three trials never reject
/// one on these frames, so only this pin reaches the trust region's
/// rejected-trial path.
const LONG_TRACKING: Pin = Pin {
    trajectory: 76554636,
    map: 335152191,
    ate_rmse: 0.07510715629035254,
    mean_psnr: 28.53063492883994,
    checkpoint: 4160160202,
    last_delta: 3370540947,
};

/// CRC-32s of every trace a recorder kept, one per recorded session:
/// MonoGS at 3 and at 15 trials, then RTGS on MonoGS (whose tracking
/// renders at factors 2-4). See [`trace_digest`].
const TRACES: [(&str, u32); 3] = [
    ("MonoGS, 3 trials", 3726806474),
    ("MonoGS, 15 trials", 1246881120),
    ("RTGS + MonoGS", 460788199),
];

/// Frames of the full-size session [`FULL_SIZE_RTGS`] pins.
const FULL_SIZE_FRAMES: usize = 5;

/// RTGS on MonoGS, recorded, over [`FULL_SIZE_FRAMES`] frames of the
/// full-size Replica analog (75×42), where the 16×10 px floor clamps no
/// factor: frames 1-4 track at factors 4, 3, 2 and 2. The session's pin and
/// its traces' CRC-32.
const FULL_SIZE_RTGS: (Pin, u32) = (
    Pin {
        trajectory: 1105314099,
        map: 2171581596,
        ate_rmse: 0.02026580814202358,
        mean_psnr: 26.15871628937952,
        checkpoint: 1262128187,
        last_delta: 2354303891,
    },
    2502915198,
);

/// CRC-32 over every trace of `run`, frame by frame, tracking before
/// mapping, in little-endian words: each frame's keyframe flag and trace
/// counts, then each trace's resolution, per-pixel workloads, blended
/// count and tile ID lists (each list's length first).
fn trace_digest(run: &RunWorkload) -> u32 {
    let mut bytes = Vec::new();
    let mut word = |w: u32| bytes.extend_from_slice(&w.to_le_bytes());
    for frame in &run.frames {
        word(frame.is_keyframe as u32);
        word(frame.tracking.len() as u32);
        word(frame.mapping.len() as u32);
        for trace in frame.tracking.iter().chain(&frame.mapping) {
            word(trace.width as u32);
            word(trace.height as u32);
            trace.pixel_workloads.iter().for_each(|&w| word(w));
            word(trace.fragments_blended as u32);
            word((trace.fragments_blended >> 32) as u32);
            for ids in &trace.tile_gaussian_ids {
                word(ids.len() as u32);
                ids.iter().for_each(|&id| word(id));
            }
        }
    }
    crc32(&bytes)
}

/// `frames` frames of `algorithm` with `tracking_iterations` tracking and 3
/// mapping iterations.
fn config(
    algorithm: BaseAlgorithm,
    backend: BackendChoice,
    frames: usize,
    tracking_iterations: usize,
) -> SlamConfig {
    let mut cfg = SlamConfig::for_algorithm(algorithm)
        .with_frames(frames)
        .with_backend(backend);
    cfg.tracking.iterations = tracking_iterations;
    cfg.mapping_iterations = 3;
    cfg
}

/// Each base algorithm, then RTGS on MonoGS, in [`PINS`]' order.
fn pinned_runs() -> Vec<(BaseAlgorithm, Extension)> {
    let mut runs: Vec<(BaseAlgorithm, Extension)> = BaseAlgorithm::all()
        .into_iter()
        .map(|a| (a, Box::new(NoExtension) as Extension))
        .collect();
    runs.push((BaseAlgorithm::MonoGs, RtgsConfig::full().into_extension()));
    runs
}

/// The recorded MonoGS sessions, in [`TRACES`]' order: tracking trials, the
/// extension the recorder wraps, and the pin the session must hit.
fn recorded_runs() -> [(usize, Extension, Pin); 3] {
    [
        (3, Box::new(NoExtension), PINS[2].1),
        (15, Box::new(NoExtension), LONG_TRACKING),
        (3, RtgsConfig::full().into_extension(), PINS[4].1),
    ]
}

/// Runs [`config`]'s session, capturing a checkpoint after every frame, and
/// digests the result.
fn session(
    algorithm: BaseAlgorithm,
    backend: BackendChoice,
    ds: &SyntheticDataset,
    extension: Extension,
    frames: usize,
    tracking_iterations: usize,
) -> Pin {
    let cfg = config(algorithm, backend, frames, tracking_iterations);
    let mut pipeline = SlamPipeline::with_extension(cfg, ds, extension);
    let mut log = CheckpointLog::new();
    while pipeline.step().is_some() {
        let _ = pipeline.checkpoint_into(&mut log).expect("checkpoint_into");
    }
    let last_delta = log
        .delta_bytes(frames - 2)
        .expect("one delta per later frame");
    let report = pipeline.report();
    let trajectory: Vec<u8> = report
        .trajectory
        .iter()
        .flat_map(|p| {
            let (q, t) = (p.rotation, p.translation);
            [q.w, q.x, q.y, q.z, t.x, t.y, t.z]
        })
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    Pin {
        trajectory: crc32(&trajectory),
        map: crc32(&encode_scene(pipeline.scene())),
        ate_rmse: report.ate.rmse,
        mean_psnr: report.mean_psnr,
        checkpoint: crc32(pipeline.checkpoint().expect("checkpoint").base_bytes()),
        last_delta: crc32(last_delta),
    }
}

#[test]
fn end_to_end_outputs_are_pinned() {
    let ds = SyntheticDataset::generate(DatasetProfile::replica_analog().small(), FRAMES);
    for backend in [
        BackendChoice::Serial,
        BackendChoice::Parallel { threads: 0 },
    ] {
        for ((algorithm, extension), (name, want)) in pinned_runs().into_iter().zip(PINS) {
            let got = session(algorithm, backend, &ds, extension, FRAMES, 3);
            assert_eq!(got.bits(), want.bits(), "{name} on {backend:?}: {got:?}");
        }
        let got = session(
            BaseAlgorithm::MonoGs,
            backend,
            &ds,
            Box::new(NoExtension),
            FRAMES,
            15,
        );
        let want = LONG_TRACKING;
        assert_eq!(
            got.bits(),
            want.bits(),
            "MonoGS, 15 trials, on {backend:?}: {got:?}"
        );
        // A recorded session is the unrecorded one, checkpoints included,
        // and records the pinned traces.
        for ((iterations, inner, want), (name, traces)) in recorded_runs().into_iter().zip(TRACES) {
            let (recorder, run) = TraceRecorder::new(inner);
            let got = session(
                BaseAlgorithm::MonoGs,
                backend,
                &ds,
                Box::new(recorder),
                FRAMES,
                iterations,
            );
            assert_eq!(
                got.bits(),
                want.bits(),
                "recorded {name} on {backend:?}: {got:?}"
            );
            let digest = trace_digest(&run.lock().expect("the session has ended"));
            assert_eq!(digest, traces, "{name} traces on {backend:?}");
        }
    }
}

/// The downsampling ramp's factors 4 and 3, which the small sessions above
/// never reach, pinned on a full-size recorded RTGS session.
#[test]
fn every_downsampling_factor_is_pinned() {
    let ds = SyntheticDataset::generate(DatasetProfile::replica_analog(), FULL_SIZE_FRAMES);
    for backend in [
        BackendChoice::Serial,
        BackendChoice::Parallel { threads: 0 },
    ] {
        let (recorder, run) = TraceRecorder::new(RtgsConfig::full().into_extension());
        let got = session(
            BaseAlgorithm::MonoGs,
            backend,
            &ds,
            Box::new(recorder),
            FULL_SIZE_FRAMES,
            3,
        );
        let run = run.lock().expect("the session has ended");
        let resolutions: Vec<(usize, usize)> = run
            .frames
            .iter()
            .flat_map(|frame| &frame.tracking)
            .map(|trace| (trace.width, trace.height))
            .collect();
        for factor in [4, 3, 2] {
            let camera = ds.camera.downsampled(factor);
            assert!(
                resolutions.contains(&(camera.width, camera.height)),
                "factor {factor} on {backend:?}: {resolutions:?}"
            );
        }
        let (want, traces) = FULL_SIZE_RTGS;
        assert_eq!(
            got.bits(),
            want.bits(),
            "full-size RTGS on {backend:?}: {got:?}"
        );
        assert_eq!(
            trace_digest(&run),
            traces,
            "full-size RTGS traces on {backend:?}"
        );
    }
}

/// A checkpoint is a pure function of the session's inputs: two pipelines
/// of one seeded session, stepped side by side and each capturing after
/// every frame, write byte-identical records, whole: the base, every delta
/// and the encoded log.
#[test]
fn two_runs_of_one_session_write_identical_checkpoints() {
    let ds = SyntheticDataset::generate(DatasetProfile::replica_analog().small(), FRAMES);
    let twins = pinned_runs().into_iter().zip(pinned_runs());
    for (((algorithm, first), (_, second)), (name, _)) in twins.zip(PINS) {
        let cfg = config(algorithm, BackendChoice::default(), FRAMES, 3);
        let mut pipelines =
            [first, second].map(|extension| SlamPipeline::with_extension(cfg, &ds, extension));
        let mut logs = [CheckpointLog::new(), CheckpointLog::new()];
        for frame in 0..FRAMES {
            for (pipeline, log) in pipelines.iter_mut().zip(&mut logs) {
                assert_eq!(pipeline.step(), Some(frame));
                let _ = pipeline.checkpoint_into(log).expect("checkpoint_into");
            }
            let [a, b] = &logs;
            assert_eq!(a.base_bytes(), b.base_bytes(), "{name}, frame {frame}");
            for i in 0..frame {
                let (da, db) = (a.delta_bytes(i), b.delta_bytes(i));
                assert!(da.is_some(), "{name}, frame {frame}: delta {i}");
                assert_eq!(da, db, "{name}, frame {frame}: delta {i}");
            }
        }
        assert_eq!(logs[0].encode(), logs[1].encode(), "{name}");
    }
}

/// Why [`LONG_TRACKING`] tracks worse than MonoGS's 3-trial pin: frame 1
/// tracks against frame 0's map at both caps, and on that map, mapped for
/// 3 iterations, the photometric loss is lower at the 3-trial pose than at
/// the true one, and lower still at the 15-trial pose, which lies further
/// from the truth. The tracker finds lower minima; the minimum lies off the
/// true pose. On an under-mapped session ATE does not measure the tracker.
#[test]
fn under_mapped_minimum_lies_off_the_true_pose() {
    let ds = SyntheticDataset::generate(DatasetProfile::replica_analog().small(), FRAMES);
    let [(mut map, at_3), (map_15, at_15)] = [3, 15].map(|iterations| {
        let cfg = config(
            BaseAlgorithm::MonoGs,
            BackendChoice::Serial,
            FRAMES,
            iterations,
        );
        let mut pipeline = SlamPipeline::new(cfg, &ds);
        assert_eq!(pipeline.step(), Some(0));
        let map = pipeline.scene().clone();
        assert_eq!(pipeline.step(), Some(1));
        (map, pipeline.report().trajectory[1])
    });
    assert!(encode_scene(&map) == encode_scene(&map_15), "one map");
    // As the pipeline does before tracking a frame.
    map.refresh_bounds();
    let tracking = config(BaseAlgorithm::MonoGs, BackendChoice::Serial, FRAMES, 1).tracking;
    let loss_at = |c2w: &Se3| {
        let mut mask = map.live_flags().to_vec();
        let result = track_frame(
            &map,
            c2w.inverse(),
            &ds.frames[1],
            &ds.camera,
            &tracking,
            &mut mask,
            &mut NoExtension,
            &mut StageTimings::default(),
            &mut FrameArena::new(),
            &Serial,
        );
        result.losses[0]
    };
    let truth = ds.poses_c2w[1];
    let error = |c2w: &Se3| (c2w.translation - truth.translation).norm();
    let losses = [loss_at(&truth), loss_at(&at_3), loss_at(&at_15)];
    let errors = [error(&at_3), error(&at_15)];
    assert!(
        losses[0] > losses[1] && losses[1] > losses[2],
        "loss at truth, 3 trials, 15 trials: {losses:?}"
    );
    assert!(errors[0] < errors[1], "translation error: {errors:?}");
}
