//! Satellite: `Serve` shutdown drains the replication stream.
//!
//! A fleet of replicated sessions runs to completion under the scheduler
//! with live followers pumping on their own threads. At shutdown the
//! scheduler's drain hook must flush every in-flight record, so the final
//! per-session stats satisfy the accounting identity
//!
//! ```text
//! frames_processed == frames_replicated + frames_dropped_by_policy
//! ```
//!
//! with zero frames behind — even for a stream running under an
//! aggressive fault plan (drops, duplicates, corruption, delays), and
//! even when the session replicates on a stride.

use rtgs_replicate::{
    duplex_pair, DuplexLink, FaultPlan, Follower, ReplicatedSession, ReplicationPolicy, Replicator,
};
use rtgs_runtime::Serve;
use rtgs_scene::{DatasetProfile, SyntheticDataset};
use rtgs_slam::{config_fingerprint, BaseAlgorithm, SlamConfig, SlamPipeline};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

const FRAMES: usize = 5;

fn quick_config() -> SlamConfig {
    let mut config = SlamConfig::for_algorithm(BaseAlgorithm::GsSlam).with_frames(FRAMES);
    config.tracking.iterations = 3;
    config.mapping_iterations = 3;
    config
}

struct FollowerThread {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Follower<DuplexLink>>,
}

impl FollowerThread {
    fn spawn(link: DuplexLink, fingerprint: u64) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut follower = Follower::new(link, fingerprint);
            while !thread_stop.load(Ordering::Relaxed) {
                follower.pump().expect("follower pump failed");
                std::thread::yield_now();
            }
            follower.pump().expect("final follower pump failed");
            follower
        });
        Self { stop, handle }
    }

    fn join(self) -> Follower<DuplexLink> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("follower thread panicked")
    }
}

#[test]
fn serve_shutdown_drains_every_replication_stream() {
    let config = quick_config();
    let fingerprint = config_fingerprint(&config);
    let datasets: Vec<SyntheticDataset> = (0..3)
        .map(|i| {
            SyntheticDataset::generate_scene_variant(DatasetProfile::tum_analog().tiny(), FRAMES, i)
        })
        .collect();

    // Three sessions: clean every-frame, faulty every-frame, strided.
    let setups = [
        (FaultPlan::lossless(11), 1u64),
        (FaultPlan::chaos(12), 1u64),
        (FaultPlan::lossless(13), 2u64),
    ];
    let mut sessions = Vec::new();
    let mut followers = Vec::new();
    for (dataset, (plan, every)) in datasets.iter().zip(setups) {
        let (primary_link, follower_link) = duplex_pair();
        followers.push(FollowerThread::spawn(follower_link, fingerprint));
        let replicator = Replicator::new(
            primary_link,
            fingerprint,
            ReplicationPolicy::new()
                .with_every(every)
                .with_retransmit_after(2),
            plan,
        );
        let pipeline = SlamPipeline::new(config, dataset);
        sessions.push((
            format!("session-{}", sessions.len()),
            ReplicatedSession::new(pipeline, replicator),
        ));
    }

    let outcomes = Serve::builder().threads(2).run(sessions);

    assert_eq!(outcomes.len(), 3);
    for outcome in &outcomes {
        let replication = outcome
            .stats
            .replication
            .expect("replicated sessions must surface replication stats");
        assert_eq!(
            outcome.stats.steps as u64,
            replication.frames_replicated + replication.frames_dropped_by_policy,
            "{}: frame accounting identity broken: {replication:?}",
            outcome.stats.label
        );
        assert_eq!(
            replication.frames_behind, 0,
            "{}: shutdown left frames in flight",
            outcome.stats.label
        );
        assert_eq!(
            replication.bytes_queued, 0,
            "{}: shutdown left bytes queued",
            outcome.stats.label
        );
    }
    // The strided session really did drop frames by policy (frames 1 and
    // 3 of 0..5), so the identity above is not vacuous.
    let strided = outcomes[2].stats.replication.unwrap();
    assert_eq!(strided.frames_dropped_by_policy, 2);

    // Every follower ended warm and consistent: its standby restores, and
    // it applied at least one record per replicated frame batch.
    for (thread, outcome) in followers.into_iter().zip(&outcomes) {
        let follower = thread.join();
        assert!(
            follower.is_warm(),
            "{}: follower never warmed",
            outcome.stats.label
        );
        follower
            .standby()
            .unwrap()
            .restore()
            .expect("standby state must restore cleanly");
        assert!(follower.records_applied() > 0);
    }
}
