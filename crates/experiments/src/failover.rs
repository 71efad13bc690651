//! Replication/failover experiment (not a paper artifact): kill the
//! primary mid-trajectory under injected transport faults, promote the
//! warm standby, and verify the continuation is bitwise-identical to a
//! run that never crashed.

use crate::common::{f, slam_config, Scale, Table};
use rtgs_replicate::{
    duplex_pair, FaultPlan, Follower, ReplicatedSession, ReplicationPolicy, Replicator,
};
use rtgs_runtime::Serve;
use rtgs_scene::{DatasetProfile, SyntheticDataset};
use rtgs_slam::{config_fingerprint, BaseAlgorithm, SlamPipeline};
use rtgs_telemetry as telemetry;
use std::time::Duration;

/// Live replication and crash failover: a primary streams its checkpoint
/// delta log to a warm standby over a faulty transport (seeded drops,
/// duplicates, truncation, corruption, delays), dies at the planned
/// frame, and the standby takes over — with trajectory and rendering
/// fidelity identical to an uninterrupted run. Then a replicated serving
/// fleet drains its streams on shutdown so frame accounting balances.
pub fn failover(scale: Scale) -> String {
    let ds =
        SyntheticDataset::generate(scale.profile(DatasetProfile::tum_analog()), scale.frames());
    let cfg = slam_config(BaseAlgorithm::GsSlam, scale, false);
    let fingerprint = config_fingerprint(&cfg);
    let kill_at = (scale.frames() / 2) as u64;
    let plan = FaultPlan::chaos(4242).with_kill_primary_at_frame(kill_at);

    // -- Part 1: replicate under chaos, kill the primary, promote --------
    let (primary_link, follower_link) = duplex_pair();
    let mut replicator = Replicator::new(
        primary_link,
        fingerprint,
        ReplicationPolicy::new().with_retransmit_after(2),
        plan.clone(),
    );
    let mut follower = Follower::new(follower_link, fingerprint);
    let mut doomed = SlamPipeline::new(cfg, &ds);

    let kill_frame = plan.kill_primary_at_frame.expect("drill is armed");
    while let Some(frame) = doomed.step() {
        replicator
            .on_frame(frame as u64, |log| doomed.checkpoint_into(log))
            .expect("replication capture");
        replicator.pump().expect("primary pump");
        follower.pump().expect("follower pump");
        if frame as u64 + 1 >= kill_frame {
            break;
        }
    }
    let stream = replicator.stats();
    let faults = replicator.fault_stats();
    // The crash: primary process state and its replicator vanish; only
    // what already reached the follower's side of the link survives.
    drop(doomed);
    drop(replicator);
    follower.pump().expect("post-crash drain");

    let applied = follower.records_applied();
    let lag_at_crash = stream.frames_behind;
    let (mut promoted, takeover) = follower.promote(cfg, &ds).expect("promote the standby");
    while promoted.step().is_some() {}
    let promoted_report = promoted.report();

    let reference = SlamPipeline::new(cfg, &ds).run();
    let trajectory_identical = reference.trajectory.len() == promoted_report.trajectory.len()
        && reference
            .trajectory
            .iter()
            .zip(promoted_report.trajectory.iter())
            .all(|(a, b)| a.translation == b.translation && a.rotation == b.rotation);
    let psnr_identical = reference.mean_psnr == promoted_report.mean_psnr;
    // Promotion replays one compacted base — bound it generously; the
    // point is "milliseconds, not minutes", printed exactly below.
    let takeover_bounded = takeover < Duration::from_secs(10);

    let snap = telemetry::global().snapshot();
    let failover_hist = snap.histogram("replicate.failover_ns");
    let lag_metrics_present = snap.gauge("replicate.frames_behind").is_some()
        && snap.gauge("replicate.bytes_queued").is_some()
        && failover_hist.as_ref().map_or(0, |h| h.count()) > 0;

    let mut table = Table::new(&["stream counter", "value"]);
    for (name, value) in [
        ("records sent", stream.records_sent),
        ("records acked", stream.records_acked),
        ("retransmits", stream.retransmits),
        ("resyncs (epoch bumps)", stream.resyncs),
        ("envelopes dropped", faults.dropped),
        ("envelopes duplicated", faults.duplicated),
        ("envelopes truncated", faults.truncated),
        ("envelopes corrupted", faults.corrupted),
        ("envelopes delayed", faults.delayed),
        ("records applied at standby", applied),
    ] {
        table.row(vec![name.into(), value.to_string()]);
    }

    let mut out = format!(
        "Failover drill on {} ({} frames, primary killed after {kill_frame}, \
         seeded chaos faults):\n{}\n\
         follower lag at crash: {lag_at_crash} frames\n\
         time to takeover: {} ms (promotion replay of the standby)\n\
         time-to-takeover bounded: {takeover_bounded}\n\
         trajectory identical to uninterrupted run: {trajectory_identical}\n\
         PSNR identical to uninterrupted run: {psnr_identical} ({} dB)\n\
         follower-lag metrics in telemetry snapshot: {lag_metrics_present}\n",
        ds.profile.name,
        scale.frames(),
        table.render(),
        f(takeover.as_secs_f64() * 1e3, 2),
        f(promoted_report.mean_psnr, 2),
    );

    // -- Part 2: a replicated fleet drains its streams on shutdown -------
    let algos = [BaseAlgorithm::GsSlam, BaseAlgorithm::MonoGs];
    let mut sessions = Vec::new();
    let mut standbys = Vec::new();
    let mut stops = Vec::new();
    for (i, &algo) in algos.iter().enumerate() {
        let session_cfg = slam_config(algo, scale, false);
        let session_fp = config_fingerprint(&session_cfg);
        let (p_link, f_link) = duplex_pair();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        stops.push(std::sync::Arc::clone(&stop));
        standbys.push(std::thread::spawn(move || {
            let mut follower = Follower::new(f_link, session_fp);
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                follower.pump().expect("fleet follower pump");
                std::thread::yield_now();
            }
        }));
        sessions.push((
            algo.name().to_string(),
            ReplicatedSession::new(
                SlamPipeline::new(session_cfg, &ds),
                Replicator::new(
                    p_link,
                    session_fp,
                    ReplicationPolicy::new().with_retransmit_after(2),
                    FaultPlan::chaos(100 + i as u64),
                ),
            ),
        ));
    }
    let outcomes = Serve::builder().threads(2).run(sessions);
    for stop in &stops {
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    }
    for handle in standbys {
        handle.join().expect("fleet follower thread");
    }

    let mut table = Table::new(&[
        "session",
        "frames",
        "replicated",
        "dropped by policy",
        "behind",
        "accounting balances",
    ]);
    let mut all_balance = true;
    for outcome in &outcomes {
        let r = outcome.stats.replication.expect("replication stats");
        let balances = outcome.stats.steps as u64
            == r.frames_replicated + r.frames_dropped_by_policy
            && r.frames_behind == 0;
        all_balance &= balances;
        table.row(vec![
            outcome.stats.label.clone(),
            outcome.stats.steps.to_string(),
            r.frames_replicated.to_string(),
            r.frames_dropped_by_policy.to_string(),
            r.frames_behind.to_string(),
            balances.to_string(),
        ]);
    }
    out.push_str(&format!(
        "\nReplicated fleet drain ({} sessions under chaos faults):\n{}\
         frames_processed == frames_replicated + frames_dropped_by_policy \
         across the fleet: {all_balance}\n",
        algos.len(),
        table.render()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_continuation_is_bitwise_identical() {
        let out = failover(Scale::Quick);
        assert!(out.contains("trajectory identical to uninterrupted run: true"));
        assert!(out.contains("PSNR identical to uninterrupted run: true"));
        assert!(out.contains("time-to-takeover bounded: true"));
        assert!(out.contains("follower-lag metrics in telemetry snapshot: true"));
        assert!(out.contains("across the fleet: true"));
        assert!(!out.contains("false"), "{out}");
    }
}
