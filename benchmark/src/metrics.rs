//! The metric tables (mirrored by `BENCHMARK.json`), the per-run result and
//! its printed forms.

use crate::host::json_string;
use std::collections::BTreeMap;

/// End-to-end metrics: what a user of the system sees. The driver gates
/// every metric on every workload, so every workload reports every one of
/// them on an untraced run, each with one definition and never zero.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("frames_per_s", "1/s"),
    ("frame_p50_ms", "ms"),
    ("ate_rmse_m", "m"),
    ("psnr_db", "dB"),
    ("peak_resident_mb", "MB"),
];

/// Per-layer metrics, named `<crate>.<module>.<what>`, from the traced run.
/// A layer a workload bypasses reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // latency percentiles too unsteady on this host to gate on.
    ("latency.frame_p95_ms", "ms"),
    ("latency.sojourn_p50_ms", "ms"),
    ("latency.sojourn_p95_ms", "ms"),
    // render: one probe iteration per frame on a harness-owned arena.
    ("render.shard.cull_us", "us"),
    ("render.project.project_us", "us"),
    ("render.tiles.assign_us", "us"),
    ("render.forward.render_us", "us"),
    ("render.loss.loss_us", "us"),
    ("render.backward.backward_us", "us"),
    ("render.iter_total_us", "us"),
    ("render.forward.fragments_per_iter", "count"),
    ("render.forward.ns_per_fragment", "ns"),
    ("render.shard.visible_share", "share"),
    ("render.arena.high_water_mb", "MB"),
    // slam: the pipeline's own steps and its self-reported stage shares.
    ("slam.pipeline.step_track_ms", "ms"),
    ("slam.pipeline.step_keyframe_ms", "ms"),
    ("slam.pipeline.init_ms", "ms"),
    ("slam.pipeline.keyframe_share", "share"),
    ("slam.pipeline.residual_share", "share"),
    ("slam.optimizer.step_visible_us", "us"),
    ("slam.map.refresh_bounds_us", "us"),
    ("slam.map.live_gaussians_mean", "count"),
    ("slam.tracking.fragments_per_frame", "count"),
    ("slam.tracking.mean_resolution_factor", "ratio"),
    ("slam.report.render_share", "share"),
    ("slam.report.render_bp_share", "share"),
    ("slam.report.preprocess_share", "share"),
    ("slam.report.preprocess_bp_share", "share"),
    ("slam.report.sorting_share", "share"),
    ("slam.report.other_share", "share"),
    // core: the RTGS extension (adaptive pruning + dynamic downsampling).
    ("core.extension.after_iteration_us", "us"),
    ("core.extension.end_of_frame_us", "us"),
    ("core.extension.overhead_share", "share"),
    ("core.pruning.live_ratio", "ratio"),
    ("core.downsample.mean_factor", "ratio"),
    ("core.speedup_vs_base", "ratio"),
    // snapshot + replicate: capture, wire, standby, failover.
    ("slam.snapshot.checkpoint_into_us", "us"),
    ("snapshot.checkpoint.delta_bytes_per_frame", "B"),
    ("snapshot.checkpoint.base_bytes", "B"),
    ("snapshot.checkpoint.full_capture_ms", "ms"),
    ("snapshot.checkpoint.encode_ms", "ms"),
    ("snapshot.checkpoint.decode_restore_ms", "ms"),
    ("replicate.primary.on_frame_self_us", "us"),
    ("replicate.primary.pump_us", "us"),
    ("replicate.transport.write_us", "us"),
    ("replicate.transport.bytes_to_follower_per_frame", "B"),
    ("replicate.transport.bytes_to_primary_per_frame", "B"),
    ("replicate.follower.pump_us", "us"),
    ("replicate.follower.standby_mb", "MB"),
    ("replicate.primary.retransmits", "count"),
    ("replicate.primary.resyncs", "count"),
    ("replicate.share_of_frame", "share"),
    ("replicate.wire_bytes_per_frame", "B"),
    ("replicate.standby_lag_p50_ms", "ms"),
    ("replicate.failover_p50_ms", "ms"),
    // runtime: scheduler, pool, open-loop ingest.
    ("runtime.scheduler.executor_busy_share", "share"),
    ("runtime.scheduler.round_imbalance", "share"),
    ("runtime.scheduler.steps", "count"),
    ("runtime.scheduler.idle_rounds", "count"),
    ("runtime.scheduler.step_inflation", "ratio"),
    ("runtime.scheduler.dispatch_gap_us", "us"),
    ("runtime.pool.jobs", "count"),
    ("runtime.pool.steals", "count"),
    ("runtime.pool.parks", "count"),
    ("runtime.ingest.offered", "count"),
    ("runtime.ingest.processed", "count"),
    ("runtime.ingest.dropped_share", "share"),
    ("runtime.ingest.max_depth", "count"),
    ("runtime.ingest.queue_wait_p50_ms", "ms"),
    ("runtime.ingest.generator_late_p95_ms", "ms"),
    ("slam.ingest.degraded_share", "share"),
    // off the frame path.
    ("scene.generate_s", "s"),
    ("metrics.report_s", "s"),
    ("telemetry.harness_trace_overhead_share", "share"),
];

/// The workloads and the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "track_closed",
        "MonoGS closed loop: tracking iterations dominate, so render forward/backward do the work and core, snapshot, replicate and runtime are bypassed",
    ),
    (
        "rtgs_closed",
        "the same inputs with RtgsConfig::full(): the paper's pruning + downsampling; core works here only, quality is the price",
    ),
    (
        "map_replicated",
        "SplaTAM maps every frame and replicates every delta to a warm standby: optimizer, map mutation, snapshot, replicate and failover",
    ),
    (
        "fleet_closed",
        "8 mixed-algorithm sessions through Serve on 2 executors: scheduler rounds, pool and cross-session contention decide throughput",
    ),
    (
        "serve_open_loop",
        "steady, bursty and slow tenants arrive on a schedule: queue wait, drop-oldest and SLO shedding exist only here",
    ),
];

/// The open-loop tenants' latency objective: a frame done later than this
/// after it was due does not count towards `frames_per_s` there.
pub const LATENCY_LIMIT_MS: f64 = 250.0;

/// One output check.
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// The result of one run of one workload.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Frames offered to the system.
    pub attempted: u64,
    /// Frames that errored or went unaccounted for (policy drops miss the
    /// latency limit and are reported per layer, not here).
    pub failed: u64,
    pub checks: Vec<Check>,
    values: BTreeMap<&'static str, f64>,
    /// Count-like values that must repeat exactly for one seed.
    pub exact: Vec<(&'static str, f64)>,
}

impl RunResult {
    pub fn new(workload: &'static str, seed: u64, traced: bool) -> Self {
        Self {
            workload,
            seed,
            traced,
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            values: BTreeMap::new(),
            exact: Vec::new(),
        }
    }

    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics when `name` is in neither metric table: a harness bug.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric `{name}` is not in the metric tables"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The table this run reports: end-to-end untraced, per-layer traced.
    pub fn table(&self) -> &'static [(&'static str, &'static str)] {
        if self.traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Fills in what the run did not set and flags what it must have set:
    /// a bypassed layer reads 0, a missing, zero or non-finite end-to-end
    /// metric fails the run.
    pub fn seal(&mut self) {
        for &(name, _) in self.table() {
            let value = self.values.get(name).copied();
            let finite = value.is_none_or(f64::is_finite);
            if !finite {
                self.check(format!("{name} is finite"), false, format!("{value:?}"));
                self.values.insert(name, 0.0);
            } else if self.traced {
                self.values.entry(name).or_insert(0.0);
            } else if value.is_none_or(|v| v == 0.0) {
                self.check(format!("{name} is reported"), false, format!("{value:?}"));
                self.values.insert(name, 0.0);
            }
        }
    }

    fn metrics_json(&self) -> String {
        let entries: Vec<String> = self
            .table()
            .iter()
            .map(|&(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    self.values[name]
                )
            })
            .collect();
        format!("{{{}}}", entries.join(", "))
    }

    /// The one-line result object the driver reads.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        )
    }

    /// The result file: host stamp, run parameters, checks and metrics.
    pub fn file_json(&self, host: &str, seconds: u64) -> String {
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                    json_string(&c.name),
                    c.ok,
                    json_string(&c.detail)
                )
            })
            .collect();
        format!(
            "{{\"host\": {host},\n \"workload\": \"{}\", \"seed\": {}, \"seconds\": {seconds}, \
             \"trace\": {},\n \"correct\": {}, \"attempted\": {}, \"failed\": {},\n \
             \"checks\": [{}],\n \"metrics\": {}}}\n",
            self.workload,
            self.seed,
            self.traced,
            self.correct(),
            self.attempted,
            self.failed,
            checks.join(", "),
            self.metrics_json()
        )
    }

    /// Every metric by name with its unit, then the checks.
    pub fn print_human(&self) {
        println!(
            "== {} (seed {}, {}) ==",
            self.workload,
            self.seed,
            if self.traced {
                "traced: per-layer"
            } else {
                "untraced: end-to-end"
            }
        );
        for &(name, unit) in self.table() {
            println!("{name:<52} {:>16.6} {unit}", self.values[name]);
        }
        println!("frames attempted {} failed {}", self.attempted, self.failed);
        for c in &self.checks {
            println!(
                "check {:<58} {} {}",
                c.name,
                if c.ok { "ok  " } else { "FAIL" },
                c.detail
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// program prints. They must name the same things.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        // The text from one top-level key up to the next (or the end).
        let section = |key: &str, next: Option<&str>| {
            let from = text.find(&format!("\"{key}\"")).expect(key);
            let to = next
                .and_then(|n| text[from..].find(&format!("\"{n}\"")))
                .map_or(text.len(), |i| from + i);
            text[from..to].to_string()
        };
        let names = |s: &str| -> Vec<String> {
            s.split("\"name\":")
                .skip(1)
                .map(|rest| rest.split('"').nth(1).unwrap().to_string())
                .collect()
        };
        let table_names =
            |t: &[(&str, &str)]| -> Vec<String> { t.iter().map(|(n, _)| n.to_string()).collect() };
        assert_eq!(
            names(&section("workloads", Some("end_to_end"))),
            table_names(WORKLOADS)
        );
        assert_eq!(
            names(&section("end_to_end", Some("per_layer"))),
            table_names(END_TO_END)
        );
        assert_eq!(names(&section("per_layer", None)), table_names(PER_LAYER));
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} [{unit}] differs from BENCHMARK.json"
            );
        }
    }

    #[test]
    fn an_unset_end_to_end_metric_fails_the_run() {
        let mut r = RunResult::new("track_closed", 1, false);
        for &(name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.seal();
        assert!(r.correct());
        let mut r = RunResult::new("track_closed", 1, false);
        r.set("setup_s", 1.0);
        r.seal();
        assert!(!r.correct());
        assert!(r.result_line().starts_with("{\"correct\": false"));
    }

    #[test]
    fn a_bypassed_layer_reads_zero_on_a_traced_run() {
        let mut r = RunResult::new("track_closed", 1, true);
        r.set("render.iter_total_us", 2300.0);
        r.seal();
        assert!(r.correct());
        assert_eq!(r.get("replicate.primary.pump_us"), Some(0.0));
        assert!(r
            .result_line()
            .contains("\"render.iter_total_us\": {\"value\": 2300, \"unit\": \"us\"}"));
    }
}
