//! Failover drill: a GS-SLAM primary replicates every frame to a warm
//! standby over a link with seeded chaos faults (drops, duplicates,
//! truncation, corruption, delays), dies mid-trajectory, and the standby is
//! promoted and runs to the end.
//!
//! Contract: promotion loses no frame the primary saw acknowledged, the
//! promoted continuation is bitwise-identical to a run that never crashed,
//! and the follower-lag gauges and the takeover histogram land in the
//! telemetry registry.
//!
//! Integration test (own process): the registry is process-global.

use rtgs_replicate::{duplex_pair, FaultPlan, Follower, ReplicationPolicy, Replicator};
use rtgs_scene::{DatasetProfile, SyntheticDataset};
use rtgs_slam::{config_fingerprint, BaseAlgorithm, SlamConfig, SlamPipeline};

const FRAMES: usize = 12;
/// The primary dies once it has processed this many frames. Under seed
/// 4242 frame 7's record is dropped, frame 8's arrives out of order, and
/// the retransmission of 7 is still held in the link at the crash: the
/// standby is two frames behind when it takes over.
const KILL_AFTER: usize = 9;

fn quick_config() -> SlamConfig {
    let mut config = SlamConfig::for_algorithm(BaseAlgorithm::GsSlam).with_frames(FRAMES);
    config.tracking.iterations = 3;
    config.mapping_iterations = 3;
    config
}

#[test]
fn failover_continuation_is_bitwise_identical() {
    let ds = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), FRAMES);
    let config = quick_config();
    let fingerprint = config_fingerprint(&config);
    let (primary_link, follower_link) = duplex_pair();
    let mut replicator = Replicator::new(
        primary_link,
        fingerprint,
        ReplicationPolicy::new().with_retransmit_after(2),
        FaultPlan::chaos(4242),
    );
    let mut follower = Follower::new(follower_link, fingerprint);

    let mut primary = SlamPipeline::new(config, &ds);
    for _ in 0..KILL_AFTER {
        let frame = primary.step().expect("the primary has frames left");
        replicator
            .on_frame(frame as u64, |log| primary.checkpoint_into(log))
            .expect("replication capture");
        replicator.pump().expect("primary pump");
        follower.pump().expect("follower pump");
    }
    let at_crash = replicator.stats();
    assert!(at_crash.frames_behind > 0, "the crash must land mid-flight");
    // The crash: the primary and its replicator vanish; only what already
    // reached the follower's side of the link survives.
    drop(primary);
    drop(replicator);
    follower.pump().expect("post-crash drain");

    let (mut promoted, _) = follower.promote(config, &ds).expect("promote the standby");
    let resumed_at = promoted.step().expect("the standby has frames left");
    let acked = KILL_AFTER - at_crash.frames_behind as usize;
    assert!(
        resumed_at >= acked,
        "promotion lost acknowledged frames: resumed at {resumed_at}, {acked} acked"
    );
    while promoted.step().is_some() {}
    let promoted = promoted.report();

    let reference = SlamPipeline::new(config, &ds).run();
    assert_eq!(reference.frames_processed, promoted.frames_processed);
    assert_eq!(reference.trajectory.len(), promoted.trajectory.len());
    for (a, b) in reference.trajectory.iter().zip(&promoted.trajectory) {
        assert_eq!(a.translation, b.translation);
        assert_eq!(a.rotation, b.rotation);
    }
    assert_eq!(
        reference.mean_psnr.to_bits(),
        promoted.mean_psnr.to_bits(),
        "mean PSNR"
    );
    assert_eq!(
        reference.ate.rmse.to_bits(),
        promoted.ate.rmse.to_bits(),
        "ATE"
    );

    let snapshot = rtgs_telemetry::global().snapshot();
    assert!(snapshot.gauge("replicate.frames_behind").is_some());
    assert!(snapshot.gauge("replicate.bytes_queued").is_some());
    let takeovers = snapshot
        .histogram("replicate.failover_ns")
        .map_or(0, |h| h.count());
    assert!(takeovers >= 1, "promotion must record its wall time");
}
