//! Open-loop load generator (runtime subsystem, not a paper artifact):
//! tenants stream frames at *their* rate into bounded inboxes and the
//! server either keeps up, sheds, or drowns. Three parts:
//!
//! 1. **Overload**: one tenant offering ~3× the measured service rate,
//!    served once with the shed stack (bounded inbox + drop-oldest + SLO
//!    degradation) and once with no shedding (unbounded inbox, always
//!    full-res). The shed run holds p99 inside the SLO; the no-shed run
//!    blows through it — queueing delay is unbounded under overload.
//! 2. **Mixed tenants**: steady Poisson, bursty, and slow tenants sharing
//!    one core; per-tenant sojourn quantiles and drop accounting.
//! 3. **Sessions-per-core**: how many tenants a single worker thread
//!    sustains at fixed aggregate utilization before p99 leaves the SLO.
//!
//! Sojourn = queueing + tracking, measured by the inbox from producer
//! `push` to `frame_done`. Quantiles come from the log-bucketed latency
//! histogram, so values are bucket lower bounds. Arrival schedules use a
//! seeded LCG — deterministic offered traffic; wall-clock latencies still
//! vary run to run (see CONTRIBUTING on SLO-bench noise).

use crate::common::{f, Scale, Table};
use rtgs_runtime::{IngestConfig, IngestHub, IngestStats, LatePolicy, Serve};
use rtgs_scene::{DatasetProfile, SyntheticDataset};
use rtgs_slam::{BaseAlgorithm, OpenLoopSession, SlamConfig, SlamPipeline, SloPolicy};
use std::time::{Duration, Instant};

/// Deterministic LCG (Numerical Recipes constants) for arrival schedules.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Self(
            seed.wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493),
        )
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform in (0, 1].
    fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival with the given mean (Poisson process).
    fn exp(&mut self, mean: Duration) -> Duration {
        Duration::from_secs_f64(mean.as_secs_f64() * -self.next_f64().ln())
    }
}

fn loadgen_config(scale: Scale) -> SlamConfig {
    // MonoGS on the full-resolution TUM analog: the 40x30 camera is the
    // smallest that clears the resolution floor at degrade factor 2, so
    // shed mode actually cuts tracking work (keyframes stay full-res).
    let mut cfg = SlamConfig::for_algorithm(BaseAlgorithm::MonoGs);
    cfg.tracking.iterations = match scale {
        Scale::Quick => 6,
        Scale::Full => 10,
    };
    cfg.mapping_iterations = match scale {
        Scale::Quick => 4,
        Scale::Full => 8,
    };
    cfg
}

/// Median per-frame service time of the closed-loop pipeline under `cfg`.
fn calibrate_service(cfg: SlamConfig, ds: &SyntheticDataset) -> Duration {
    let mut pipeline = SlamPipeline::new(cfg, ds);
    let mut samples = Vec::new();
    while !pipeline.is_complete() {
        let t0 = Instant::now();
        if pipeline.step().is_none() {
            break;
        }
        samples.push(t0.elapsed());
    }
    samples.sort();
    samples
        .get(samples.len() / 2)
        .copied()
        .unwrap_or(Duration::from_millis(1))
}

/// One tenant's offered traffic: inter-arrival gaps, pushed by a
/// dedicated producer thread.
struct Tenant {
    label: String,
    gaps: Vec<Duration>,
}

impl Tenant {
    fn poisson(label: &str, seed: u64, mean_gap: Duration, frames: usize) -> Self {
        let mut rng = Lcg::new(seed);
        Self {
            label: label.to_string(),
            gaps: (0..frames).map(|_| rng.exp(mean_gap)).collect(),
        }
    }

    /// Bursts of `burst` back-to-back frames separated by `lull`.
    fn bursty(label: &str, burst: usize, lull: Duration, frames: usize) -> Self {
        Self {
            label: label.to_string(),
            gaps: (0..frames)
                .map(|i| if i % burst == 0 { lull } else { Duration::ZERO })
                .collect(),
        }
    }
}

/// Serves `tenants` open-loop on `threads` workers and returns per-tenant
/// ingest stats. Each tenant gets a fresh pipeline over `ds` and a
/// producer thread replaying its arrival schedule.
fn serve_tenants(
    cfg: SlamConfig,
    ds: &SyntheticDataset,
    ingest: IngestConfig,
    slo: Option<SloPolicy>,
    threads: usize,
    tenants: Vec<Tenant>,
) -> Vec<(String, IngestStats)> {
    let hub = IngestHub::new(ingest);
    let mut sessions = Vec::new();
    let mut producers = Vec::new();
    for tenant in tenants {
        let (tx, rx) = hub.channel::<()>().expect("loadgen sets no session cap");
        let mut session = OpenLoopSession::new(SlamPipeline::new(cfg, ds), rx);
        if let Some(slo) = &slo {
            session = session.with_slo(slo.clone());
        }
        sessions.push((tenant.label, session));
        producers.push(std::thread::spawn(move || {
            for gap in tenant.gaps {
                if !gap.is_zero() {
                    std::thread::sleep(gap);
                }
                // Last producer handle dropping closes the inbox.
                tx.push(());
            }
        }));
    }
    let outcomes = Serve::builder().threads(threads).ingest(&hub).run(sessions);
    for producer in producers {
        producer.join().expect("producer thread panicked");
    }
    outcomes
        .into_iter()
        .map(|o| {
            let stats = o
                .stats
                .ingest
                .expect("open-loop sessions always report ingest stats");
            (o.stats.label, stats)
        })
        .collect()
}

fn ms(ns: u64) -> String {
    f(ns as f64 / 1e6, 2)
}

/// Open-loop serving under overload: shed vs no-shed, mixed tenants, and
/// the sessions-per-core sweep. See the module docs for the scenario
/// definitions and the grep-able summary lines CI checks.
pub fn loadgen(scale: Scale) -> String {
    let frames = match scale {
        Scale::Quick => 18,
        Scale::Full => 36,
    };
    let cfg = loadgen_config(scale);
    let ds = SyntheticDataset::generate(DatasetProfile::tum_analog(), frames);
    let cal_ds = SyntheticDataset::generate(DatasetProfile::tum_analog(), 6);
    let service = calibrate_service(loadgen_config(scale).with_frames(6), &cal_ds);
    let slo_p99 = service * 6;
    let overload_gap = service / 3; // offered rate ~3x the service rate

    let slo = SloPolicy::new(slo_p99)
        .with_depth_high(2)
        .with_degrade_factor(2)
        .with_window(16);
    let mut out = format!(
        "Open-loop load generator (tum analog {}x{}, {} frames/tenant)\n\
         calibrated median service: {} ms; SLO p99 = 6x service = {} ms; \
         overload = 3x service rate\n\n",
        ds.camera.width,
        ds.camera.height,
        frames,
        f(service.as_secs_f64() * 1e3, 2),
        f(slo_p99.as_secs_f64() * 1e3, 2),
    );

    // Part 1 -- overload: shed stack vs no shedding, same Poisson trace.
    let mk_overload = || vec![Tenant::poisson("overload", 7, overload_gap, frames)];
    let shed_cfg = IngestConfig::new()
        .with_inbox_capacity(3)
        .with_late_policy(LatePolicy::DropOldest);
    let shed = &serve_tenants(cfg, &ds, shed_cfg, Some(slo.clone()), 1, mk_overload())[0].1;
    let noshed_cfg = IngestConfig::new().with_inbox_capacity(frames + 1);
    let noshed = &serve_tenants(cfg, &ds, noshed_cfg, None, 1, mk_overload())[0].1;

    let mut table = Table::new(&[
        "policy",
        "offered",
        "processed",
        "dropped",
        "drop rate",
        "degraded",
        "p50 (ms)",
        "p99 (ms)",
        "p999 (ms)",
    ]);
    for (name, s) in [("shed", shed), ("no-shed", noshed)] {
        table.row(vec![
            name.into(),
            s.offered.to_string(),
            s.processed.to_string(),
            s.dropped().to_string(),
            format!("{}%", f(s.drop_rate() * 100.0, 1)),
            s.degraded.to_string(),
            ms(s.latency.p50()),
            ms(s.latency.p99()),
            ms(s.latency.p999()),
        ]);
    }
    let slo_ns = slo_p99.as_nanos() as u64;
    out.push_str("Part 1 -- 3x overload, one tenant, one core:\n");
    out.push_str(&table.render());
    out.push_str(&format!(
        "shed holds SLO: {}\nno-shed exceeds SLO: {}\n\n",
        shed.latency.p99() <= slo_ns,
        noshed.latency.p99() > slo_ns,
    ));

    // Part 2 -- mixed tenant rates sharing one core, shed stack on.
    let mixed = serve_tenants(
        cfg,
        &ds,
        IngestConfig::new()
            .with_inbox_capacity(4)
            .with_late_policy(LatePolicy::DropOldest),
        Some(slo.clone()),
        1,
        vec![
            Tenant::poisson("steady", 11, service * 4, frames),
            Tenant::bursty("bursty", 3, service * 9, frames),
            Tenant::poisson("slow", 13, service * 6, frames / 2),
        ],
    );
    let mut table = Table::new(&[
        "tenant",
        "offered",
        "processed",
        "drop rate",
        "degraded",
        "p50 (ms)",
        "p99 (ms)",
        "p99 <= SLO",
    ]);
    let mut offered = 0u64;
    let mut dropped = 0u64;
    for (label, s) in &mixed {
        offered += s.offered;
        dropped += s.dropped();
        table.row(vec![
            label.clone(),
            s.offered.to_string(),
            s.processed.to_string(),
            format!("{}%", f(s.drop_rate() * 100.0, 1)),
            s.degraded.to_string(),
            ms(s.latency.p50()),
            ms(s.latency.p99()),
            (s.latency.p99() <= slo_ns).to_string(),
        ]);
    }
    out.push_str("Part 2 -- mixed tenants (Poisson + bursty + slow), one core:\n");
    out.push_str(&table.render());
    out.push_str(&format!(
        "drop rate: {}% ({} of {} offered)\n\n",
        f(
            if offered > 0 {
                dropped as f64 / offered as f64 * 100.0
            } else {
                0.0
            },
            1
        ),
        dropped,
        offered,
    ));

    // Part 3 -- sessions per core at ~50% aggregate utilization.
    let ks: &[usize] = match scale {
        Scale::Quick => &[1, 2, 4],
        Scale::Full => &[1, 2, 4, 8],
    };
    let mut table = Table::new(&[
        "sessions",
        "offered",
        "dropped",
        "worst p99 (ms)",
        "holds SLO",
    ]);
    let mut sustained = 0usize;
    for &k in ks {
        let per_tenant = (frames / k).max(4);
        let tenants = (0..k)
            .map(|i| {
                Tenant::poisson(
                    &format!("t{i}"),
                    17 + i as u64,
                    service * (2 * k) as u32,
                    per_tenant,
                )
            })
            .collect();
        let stats = serve_tenants(
            cfg,
            &ds,
            IngestConfig::new()
                .with_inbox_capacity(4)
                .with_late_policy(LatePolicy::DropOldest),
            Some(slo.clone()),
            1,
            tenants,
        );
        let offered: u64 = stats.iter().map(|(_, s)| s.offered).sum();
        let dropped: u64 = stats.iter().map(|(_, s)| s.dropped()).sum();
        let worst_p99 = stats
            .iter()
            .map(|(_, s)| s.latency.p99())
            .max()
            .unwrap_or(0);
        let holds = worst_p99 <= slo_ns;
        if holds && k > sustained {
            sustained = k;
        }
        table.row(vec![
            k.to_string(),
            offered.to_string(),
            dropped.to_string(),
            ms(worst_p99),
            holds.to_string(),
        ]);
    }
    out.push_str("Part 3 -- tenants multiplexed on one worker thread:\n");
    out.push_str(&table.render());
    out.push_str(&format!("sessions-per-core at SLO: {sustained}\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_is_deterministic_and_exponential_mean_is_close() {
        let mut a = Lcg::new(42);
        let mut b = Lcg::new(42);
        assert_eq!(a.next_u64(), b.next_u64());
        let mean = Duration::from_millis(10);
        let mut rng = Lcg::new(7);
        let total: Duration = (0..4000).map(|_| rng.exp(mean)).sum();
        let avg = total.as_secs_f64() / 4000.0;
        assert!((avg - 0.010).abs() < 0.001, "mean drifted: {avg}");
    }

    #[test]
    fn bursty_schedule_shapes_gaps() {
        let t = Tenant::bursty("b", 3, Duration::from_millis(5), 7);
        let zeros = t.gaps.iter().filter(|g| g.is_zero()).count();
        assert_eq!(zeros, 4); // indices 1,2,4,5 inside bursts
        assert_eq!(t.gaps[0], Duration::from_millis(5));
    }
}
