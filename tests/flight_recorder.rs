//! Flight-recorder drills across the whole stack: what an operator reads
//! after a crash or an overload must reconstruct it.
//!
//! * A traced primary replicates under seeded chaos faults and dies
//!   mid-trajectory; the standby drains and promotes. The failover bundle
//!   is valid, the journal records the promotion, and the stitched
//!   two-process Chrome trace follows at least one frame through all five
//!   hops (ingest → track → checkpoint → wire → replay).
//! * Two open-loop tenants share a tight ingest hub under
//!   `Serve::builder()`, and a third is refused admission. The journal
//!   records the shed, the drops and the rejection, the swamped tenant's
//!   drop rate is past 20 %, the drop-rate bundle is valid, and the
//!   per-session health verdicts follow the load.
//!
//! Span tracing and the journal are process-global, so the drills run in
//! this binary of their own, one at a time.

use rtgs::replicate::{duplex_pair, FaultPlan, Follower, ReplicationPolicy, Replicator};
use rtgs::runtime::{HealthVerdict, IngestConfig, IngestHub, Serve};
use rtgs::scene::{DatasetProfile, SyntheticDataset};
use rtgs::slam::{
    config_fingerprint, BaseAlgorithm, OpenLoopSession, SlamConfig, SlamPipeline, SloPolicy,
};
use rtgs::telemetry::flight::hops;
use rtgs::telemetry::{self, EventKind, SpanEvent};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

const FRAMES: usize = 6;

/// Serialises the drills: each one owns the process-global tracing and
/// journal state while it runs.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A bundle directory private to this process and drill, removed on drop.
struct BundleDir(PathBuf);

impl BundleDir {
    fn new(drill: &str) -> Self {
        let name = format!("rtgs-flight-recorder-{}-{drill}", std::process::id());
        Self(std::env::temp_dir().join(name))
    }
}

impl Drop for BundleDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn quick_config() -> SlamConfig {
    let mut config = SlamConfig::for_algorithm(BaseAlgorithm::GsSlam).with_frames(FRAMES);
    config.tracking.iterations = 3;
    config.mapping_iterations = 3;
    config
}

/// Journal and span tracing on, both emptied.
fn arm_recorders() {
    telemetry::set_journal_enabled(true);
    telemetry::warm_journal();
    telemetry::clear_journal();
    telemetry::set_tracing_enabled(true);
    telemetry::clear_spans();
}

fn disarm_recorders() {
    telemetry::set_tracing_enabled(false);
    telemetry::set_journal_enabled(false);
}

fn journaled(kind: EventKind) -> usize {
    telemetry::journal_events()
        .iter()
        .filter(|e| e.kind == kind)
        .count()
}

fn bundle_file_is_valid(path: &Path) -> bool {
    std::fs::read_to_string(path).is_ok_and(|text| telemetry::bundle_is_valid(&text))
}

/// Every span recorded so far, on any thread.
fn all_spans() -> Vec<SpanEvent> {
    telemetry::collect_spans()
        .into_iter()
        .flat_map(|(_, events)| events)
        .collect()
}

/// Trace ids with a flow span at `hop`.
fn flows_at(spans: &[SpanEvent], hop: u32) -> HashSet<u64> {
    spans
        .iter()
        .filter(|s| s.flow != 0 && s.hop == hop)
        .map(|s| s.flow)
        .collect()
}

#[test]
fn blackbox_bundle_and_stitched_trace_reconstruct_the_crash() {
    let _serial = serial();
    let bundles = BundleDir::new("failover");
    let ds = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), FRAMES);
    let config = quick_config();
    let fingerprint = config_fingerprint(&config);
    arm_recorders();

    // Every ticket is minted a trace at the ingest front door.
    let hub = IngestHub::new(IngestConfig::new().with_inbox_capacity(FRAMES));
    let (tx, rx) = hub.channel::<()>().unwrap();
    for _ in 0..FRAMES {
        tx.push(());
    }
    tx.close();

    // The primary serves and replicates half the trajectory. The follower
    // does not pump until after the crash, like a standby on another
    // machine whose link buffers the stream.
    let (primary_link, follower_link) = duplex_pair();
    let mut replicator = Replicator::new(
        primary_link,
        fingerprint,
        ReplicationPolicy::new().with_retransmit_after(2),
        FaultPlan::chaos(4242),
    );
    let mut primary = SlamPipeline::new(config, &ds);
    for _ in 0..FRAMES / 2 {
        let ticket = rx.try_pop().expect("a queued ticket");
        primary.set_frame_trace(ticket.trace);
        let frame = primary.step().expect("the primary has frames left");
        replicator
            .on_frame_traced(frame as u64, primary.last_trace(), |log| {
                primary.checkpoint_into(log)
            })
            .expect("replication capture");
        replicator.pump().expect("primary pump");
        rx.frame_done(ticket, false);
    }
    let last_trace_id = primary.last_trace().trace_id;
    // The crash. The primary's rings are exported first, as their own
    // trace part: the black box recovered from the dead machine.
    let primary_part = telemetry::chrome_trace_events(1);
    let primary_spans = all_spans();
    telemetry::clear_spans();
    drop(primary);
    drop(replicator);

    let mut follower = Follower::new(follower_link, fingerprint).with_session_index(1);
    follower.pump().expect("post-crash drain");
    let (mut promoted, _) = follower.promote(config, &ds).expect("promote the standby");
    while promoted.step().is_some() {}
    let follower_part = telemetry::chrome_trace_events(2);
    let follower_spans = all_spans();
    let failover_bundle = bundles.0.join("bundle-failover-0.json");
    telemetry::write_bundle(
        &failover_bundle,
        "failover",
        1,
        last_trace_id,
        &[("config_fingerprint", fingerprint)],
    )
    .expect("write the failover bundle");
    disarm_recorders();

    assert!(bundle_file_is_valid(&failover_bundle), "failover bundle");
    assert!(
        journaled(EventKind::Promote) >= 1,
        "promotion not journaled"
    );

    let track = flows_at(&primary_spans, hops::TRACK);
    let checkpoint = flows_at(&primary_spans, hops::CHECKPOINT);
    let wire = flows_at(&primary_spans, hops::WIRE);
    let replay = flows_at(&follower_spans, hops::REPLAY);
    let full_lifecycle = flows_at(&primary_spans, hops::INGEST)
        .into_iter()
        .filter(|id| {
            track.contains(id)
                && checkpoint.contains(id)
                && wire.contains(id)
                && replay.contains(id)
        })
        .count();
    assert!(
        full_lifecycle >= 1,
        "no frame traced through ingest → track → checkpoint → wire → replay"
    );

    let stitched = telemetry::wrap_trace_events(&[primary_part, follower_part]);
    assert!(telemetry::json_balanced(&stitched), "stitched trace");
    assert!(stitched.contains("\"ph\": \"s\""), "no flow start events");
    assert!(stitched.contains("\"ph\": \"f\""), "no flow finish events");
}

#[test]
fn overload_is_journaled_bundled_and_judged_per_session() {
    let _serial = serial();
    let bundles = BundleDir::new("overload");
    let ds = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), FRAMES);
    let config = quick_config();
    arm_recorders();

    // Two tenants fit the hub; a third is refused at the door.
    let hub = IngestHub::new(
        IngestConfig::new()
            .with_inbox_capacity(2)
            .with_max_sessions(2),
    );
    let (steady_tx, steady_rx) = hub.channel::<()>().unwrap();
    let (swamped_tx, swamped_rx) = hub.channel::<()>().unwrap();
    assert!(hub.channel::<()>().is_err(), "a third tenant was admitted");
    let swamped_channel = swamped_rx.channel_id();
    // The steady tenant sends what its inbox holds. The swamped one sends
    // four times that (drop-oldest), and sheds while frames wait.
    for _ in 0..2 {
        steady_tx.push(());
    }
    for _ in 0..8 {
        swamped_tx.push(());
    }
    steady_tx.close();
    swamped_tx.close();
    let slo = SloPolicy::new(Duration::from_secs(3600)).with_depth_high(1);
    let sessions = vec![
        (
            "steady".to_string(),
            OpenLoopSession::new(SlamPipeline::new(config, &ds), steady_rx),
        ),
        (
            "swamped".to_string(),
            OpenLoopSession::new(SlamPipeline::new(config, &ds), swamped_rx).with_slo(slo),
        ),
    ];
    let outcomes = Serve::builder().threads(2).ingest(&hub).run(sessions);
    let stats = |label: &str| {
        &outcomes
            .iter()
            .find(|o| o.stats.label == label)
            .unwrap()
            .stats
    };

    let swamped = stats("swamped").ingest.as_ref().expect("ingest stats");
    assert!(
        swamped.drop_rate() > 0.2,
        "the swamped tenant dropped too little"
    );
    let drop_bundle = bundles.0.join("bundle-drop_rate_spike-0.json");
    telemetry::write_bundle(&drop_bundle, "drop_rate_spike", swamped_channel, 0, &[])
        .expect("write the drop-rate bundle");
    disarm_recorders();

    assert!(bundle_file_is_valid(&drop_bundle), "drop-rate bundle");
    for kind in [
        EventKind::AdmissionReject,
        EventKind::FrameDrop,
        EventKind::ShedDegrade,
    ] {
        assert!(journaled(kind) >= 1, "{kind:?} not journaled");
    }
    assert_eq!(stats("steady").health.verdict(), HealthVerdict::Healthy);
    assert_ne!(stats("swamped").health.verdict(), HealthVerdict::Healthy);
}
