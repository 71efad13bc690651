//! Integration tests reproducing the paper's profiling observations
//! (Sec. 3) on synthetic data — the empirical premises the whole design
//! rests on.

use rtgs::metrics::ssim;
use rtgs::render::{FrameArena, ShardedScene};
use rtgs::runtime::Serial;
use rtgs::scene::{DatasetProfile, SyntheticDataset};
use rtgs::slam::{
    track_frame, IterationArtifacts, NoObserver, StageNanos, TrackingConfig, TrackingObserver,
};

/// Observation 3: the Gaussian gradient distribution during tracking is
/// highly skewed — a small fraction carries most of the mass.
#[test]
fn observation3_gradient_skew() {
    let ds = SyntheticDataset::generate(DatasetProfile::tum_analog(), 2);
    let map = ShardedScene::from_scene(&ds.reference_scene, 1.0);
    struct Collect {
        scores: Vec<f64>,
    }
    impl TrackingObserver for Collect {
        fn after_iteration(&mut self, a: &IterationArtifacts<'_>, _m: &mut [bool]) {
            for (k, g) in a.grads.gaussians.iter().enumerate() {
                self.scores[a.visible_ids[k] as usize] += g.importance_score(0.8) as f64;
            }
        }
    }
    let mut obs = Collect {
        scores: vec![0.0; map.capacity()],
    };
    let mut mask = vec![true; map.capacity()];
    let mut t = StageNanos::default();
    let _ = track_frame(
        &map,
        ds.poses_c2w[1].inverse(),
        &ds.frames[1],
        &ds.camera,
        &TrackingConfig {
            iterations: 6,
            ..Default::default()
        },
        &mut mask,
        &mut NoObserver,
        &mut t,
        &mut FrameArena::new(),
        &Serial,
    );
    // Collect over a second tracking pass with the observer.
    let _ = track_frame(
        &map,
        ds.poses_c2w[1].inverse(),
        &ds.frames[1],
        &ds.camera,
        &TrackingConfig {
            iterations: 6,
            ..Default::default()
        },
        &mut mask,
        &mut obs,
        &mut t,
        &mut FrameArena::new(),
        &Serial,
    );
    let mut sorted = obs.scores.clone();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let total: f64 = sorted.iter().sum();
    assert!(total > 0.0);
    let top14: f64 = sorted[..(sorted.len() * 14 / 100).max(1)].iter().sum();
    assert!(
        top14 / total > 0.5,
        "top 14% carry only {:.1}% of the importance mass",
        top14 / total * 100.0
    );
}

/// Observation 5: consecutive frames are highly similar, and similarity is
/// highest right after a keyframe-spaced interval.
#[test]
fn observation5_frame_similarity() {
    let ds = SyntheticDataset::generate(DatasetProfile::replica_analog().small(), 6);
    for i in 1..ds.len() {
        let s = ssim(&ds.frames[i - 1].color, &ds.frames[i].color);
        assert!(
            s > 0.6,
            "consecutive frames should be structurally similar, SSIM {s:.3} at {i}"
        );
    }
    // Far-apart frames are less similar than adjacent ones.
    let adjacent = ssim(&ds.frames[0].color, &ds.frames[1].color);
    let distant = ssim(&ds.frames[0].color, &ds.frames[5].color);
    assert!(adjacent >= distant - 0.05);
}

/// Observation 6: per-pixel workload distributions are nearly identical
/// across consecutive tracking iterations (the WSU's premise).
#[test]
fn observation6_iteration_similarity() {
    let ds = SyntheticDataset::generate(DatasetProfile::tum_analog(), 2);
    let map = ShardedScene::from_scene(&ds.reference_scene, 1.0);
    let mut mask = vec![true; map.capacity()];
    let mut t = StageNanos::default();
    let result = track_frame(
        &map,
        ds.poses_c2w[1].inverse(),
        &ds.frames[1],
        &ds.camera,
        &TrackingConfig {
            iterations: 4,
            record_traces: true,
            ..Default::default()
        },
        &mut mask,
        &mut NoObserver,
        &mut t,
        &mut FrameArena::new(),
        &Serial,
    );
    assert!(result.traces.len() >= 2);
    for pair in result.traces.windows(2) {
        let sim = pair[0].workload_similarity(&pair[1]);
        assert!(
            sim < 0.15,
            "iteration workloads should be nearly identical, diff {sim:.3}"
        );
    }
}

/// Observations 1/2: tracking + mapping are where a session's work is, and
/// within them rendering + rendering BP dominate the stage breakdown.
#[test]
fn observations12_stage_dominance() {
    use rtgs::slam::{BaseAlgorithm, SlamConfig, SlamPipeline};
    let ds = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), 4);
    let mut cfg = SlamConfig::for_algorithm(BaseAlgorithm::MonoGs).with_frames(4);
    cfg.tracking.iterations = 4;
    cfg.mapping_iterations = 5;
    let report = SlamPipeline::new(cfg, &ds).run();
    let shares = report.stage_timings.shares();
    // render + render_bp (+ preprocess_bp) carry most of the stage time.
    let render_side = shares[2] + shares[3] + shares[4];
    assert!(
        render_side > 0.5,
        "rendering + BP should dominate, got {render_side:.2}"
    );
    // Tracking + mapping are where the work is — counted, not timed (a
    // wall-clock share moves with whatever else the host is running): every
    // frame after the first went through the forward and backward kernels,
    // at least one keyframe was mapped, and the stage breakdown above is
    // exactly tracking's plus mapping's.
    for frame in report.frames.iter().filter(|f| f.index > 0) {
        assert!(frame.tracking_fragments > 0, "frame {}", frame.index);
        assert!(frame.tracking_grad_events > 0, "frame {}", frame.index);
    }
    assert!(report.keyframes >= 1);
    assert!(report.mapping_timings.total() > std::time::Duration::ZERO);
    assert_eq!(
        report.stage_timings.total(),
        report.tracking_timings.total() + report.mapping_timings.total()
    );
}
