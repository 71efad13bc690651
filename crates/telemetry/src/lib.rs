//! Always-on observability for the RTGS serving stack: a lock-cheap metrics
//! registry (counters, gauges, log-scale latency histograms whose
//! p50/p99/p999 are bucket lower bounds, at most 6.25 % below the true
//! value), structured span tracing into pre-sized per-thread rings with
//! Chrome `trace_event` export, the per-stage timer behind the paper's
//! Fig. 3, and a flight recorder for post-mortem bundles.
//!
//! Design constraints, in order:
//!
//! 1. **Near-free when disabled.** The runtime enable flags
//!    ([`set_tracing_enabled`], [`set_journal_enabled`]) are the off
//!    switch: a disabled span or journal probe is one relaxed atomic load,
//!    with no clock read and nothing recorded.
//! 2. **Allocation-free when enabled.** Histograms are fixed atomic bucket
//!    arrays, span rings are pre-sized and overwrite-on-wrap, and metric
//!    handles are `Arc`s resolved once at registration — the steady-state
//!    render path stays inside the repo's counting-allocator zero-alloc
//!    gate with recording on.
//! 3. **Std-only.** No dependencies; works in the offline build environment.
//!
//! # Example
//!
//! ```
//! use rtgs_telemetry as telemetry;
//!
//! let frame_ns = telemetry::global().histogram("doc.frame_ns");
//! telemetry::set_tracing_enabled(true);
//! {
//!     let _span = telemetry::SpanGuard::new("doc.track_frame", "span", 0);
//!     frame_ns.record(1_250_000); // 1.25 ms
//! }
//! telemetry::set_tracing_enabled(false);
//! let snapshot = frame_ns.snapshot();
//! assert_eq!(snapshot.p50(), snapshot.p999()); // single observation
//! let trace = telemetry::chrome_trace_json();
//! assert!(trace.contains("doc.track_frame"));
//! ```

mod export;
pub mod flight;
mod hist;
mod recent;
mod registry;
mod ring;
mod spans;
mod stage;

pub use export::{chrome_trace_events, chrome_trace_json, wrap_trace_events};
pub use flight::{
    bundle_is_valid, clear_journal, journal_events, journal_record, json_balanced,
    set_journal_enabled, warm_journal, write_bundle, EventKind, HealthReport, HealthVerdict,
    JournalEvent, TraceCtx,
};
pub use hist::{Histogram, HistogramSnapshot};
pub use recent::RecentWindow;
pub use registry::{global, Counter, Gauge, MetricValue, Registry, RegistrySnapshot};
pub use spans::{
    clear_spans, collect_spans, dropped_spans, emit_flow_span, emit_span, ns_since_epoch,
    set_tracing_enabled, warm_thread_ring, SpanEvent, SpanGuard,
};
pub use stage::{StageId, StageTimings, STAGE_COUNT};
