//! Structured span tracing into per-thread ring buffers.
//!
//! A span is a named interval (`SpanGuard::new("serve.step", "session",
//! idx)`) recorded into the calling thread's pre-sized ring when tracing is
//! enabled. Rings never grow: once a thread's ring exists, recording a span
//! is a mutex fast-path lock plus an array write — no allocation, which
//! keeps the steady-state render path inside the zero-allocation contract.
//! When a ring wraps, the oldest events are overwritten and counted as
//! dropped.
//!
//! All rings share one monotonic clock epoch, so events from different
//! threads line up on a single timeline when exported as Chrome
//! `trace_event` JSON (see [`crate::export::chrome_trace_json`]).

use crate::ring::Ring;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Per-thread ring capacity (events). ~16k events ≈ 2.7k pipeline
/// iterations at 6 stage spans each.
const DEFAULT_RING_CAPACITY: usize = 16_384;

/// One completed span: a named interval on the shared trace timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (static so recording never allocates).
    pub name: &'static str,
    /// Category for trace viewers (e.g. `"stage"`, `"session"`, `"io"`).
    pub cat: &'static str,
    /// Start time in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// One free-form integer argument (frame index, byte count, …).
    pub arg: u64,
    /// Flow id binding this span into a cross-process frame trace
    /// (a [`crate::flight::TraceCtx`] trace id); `0` = not part of a flow.
    pub flow: u64,
    /// Hop sequence within the flow (ingest=0, track, checkpoint, wire,
    /// replay…). Meaningless when `flow == 0`.
    pub hop: u32,
}

impl SpanEvent {
    const EMPTY: SpanEvent = SpanEvent {
        name: "",
        cat: "",
        start_ns: 0,
        dur_ns: 0,
        arg: 0,
        flow: 0,
        hop: 0,
    };
}

static TRACING: AtomicBool = AtomicBool::new(false);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

type SharedRing = Arc<Mutex<Ring<SpanEvent>>>;

/// `(tid, ring)` pairs for every thread that has recorded a span.
fn rings() -> &'static Mutex<Vec<(u64, SharedRing)>> {
    static RINGS: OnceLock<Mutex<Vec<(u64, SharedRing)>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_RING: std::cell::OnceCell<SharedRing> =
        const { std::cell::OnceCell::new() };
}

fn local_ring_with<R>(f: impl FnOnce(&mut Ring<SpanEvent>) -> R) -> R {
    LOCAL_RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            static NEXT_TID: AtomicU64 = AtomicU64::new(0);
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let ring = Ring::with_capacity(DEFAULT_RING_CAPACITY, SpanEvent::EMPTY);
            let ring = Arc::new(Mutex::new(ring));
            rings().lock().unwrap().push((tid, Arc::clone(&ring)));
            ring
        });
        f(&mut ring.lock().unwrap())
    })
}

/// Globally enables or disables span recording. Disabled recording costs one
/// relaxed load per span site.
pub fn set_tracing_enabled(enabled: bool) {
    TRACING.store(enabled, Ordering::Relaxed);
    if enabled {
        // Pin the epoch before the first span so start offsets stay small.
        let _ = epoch();
    }
}

/// Whether span recording is currently enabled.
#[inline]
pub(crate) fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Nanoseconds between the trace epoch and `t` (0 if `t` predates it).
#[inline]
pub fn ns_since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Ensures the calling thread's ring exists (performing its one-time
/// allocation now rather than at the first recorded span). Call during
/// warm-up on threads that must record allocation-free afterwards.
pub fn warm_thread_ring() {
    local_ring_with(|_| {});
}

/// Records a completed span with an explicit timestamp and duration. Used
/// for intervals measured out-of-band (e.g. backward-pass nanoseconds
/// reported by a kernel) — [`SpanGuard`] covers the common RAII case.
#[inline]
pub fn emit_span(name: &'static str, cat: &'static str, start_ns: u64, dur_ns: u64, arg: u64) {
    emit_flow_span(name, cat, start_ns, dur_ns, arg, 0, 0);
}

/// Records a completed span that is one hop of a cross-process frame flow:
/// `flow` is the frame's trace id, `hop` its monotone hop sequence. The
/// Chrome exporter stitches same-`flow` spans into one arrowed flow even
/// across per-process ring exports. Allocation-free like [`emit_span`].
#[inline]
pub fn emit_flow_span(
    name: &'static str,
    cat: &'static str,
    start_ns: u64,
    dur_ns: u64,
    arg: u64,
    flow: u64,
    hop: u32,
) {
    if !tracing_enabled() {
        return;
    }
    local_ring_with(|ring| {
        ring.push(SpanEvent {
            name,
            cat,
            start_ns,
            dur_ns,
            arg,
            flow,
            hop,
        })
    });
}

/// RAII guard for a span: records the interval from construction to drop.
/// When tracing is disabled at construction the guard is inert (no clock
/// reads, nothing recorded at drop).
pub struct SpanGuard {
    name: &'static str,
    cat: &'static str,
    arg: u64,
    start: Option<Instant>,
}

impl SpanGuard {
    /// Starts a span (no-op guard if tracing is disabled).
    #[inline]
    pub fn new(name: &'static str, cat: &'static str, arg: u64) -> Self {
        let start = tracing_enabled().then(Instant::now);
        SpanGuard {
            name,
            cat,
            arg,
            start,
        }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let dur_ns = start.elapsed().as_nanos() as u64;
            emit_span(self.name, self.cat, ns_since_epoch(start), dur_ns, self.arg);
        }
    }
}

/// Copies every thread's live events, as `(tid, events)` with events oldest
/// first. Does not clear the rings.
pub fn collect_spans() -> Vec<(u64, Vec<SpanEvent>)> {
    let rings = rings().lock().unwrap();
    rings
        .iter()
        .map(|(tid, ring)| (*tid, ring.lock().unwrap().ordered()))
        .collect()
}

/// Total events overwritten across all rings since the last clear.
pub fn dropped_spans() -> u64 {
    let rings = rings().lock().unwrap();
    rings
        .iter()
        .map(|(_, ring)| ring.lock().unwrap().dropped())
        .sum()
}

/// Empties every thread's ring (capacities are kept).
pub fn clear_spans() {
    let rings = rings().lock().unwrap();
    for (_, ring) in rings.iter() {
        ring.lock().unwrap().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The span store is process-global and tests run concurrently, so every
    // test that records must serialize on this lock and filter by its own
    // span names.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        match LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn events_named(name: &str) -> Vec<SpanEvent> {
        collect_spans()
            .into_iter()
            .flat_map(|(_, events)| events)
            .filter(|e| e.name == name)
            .collect()
    }

    #[test]
    fn guard_records_a_span_with_plausible_timing() {
        let _guard = test_lock();
        clear_spans();
        set_tracing_enabled(true);
        {
            let _span = SpanGuard::new("test.guard", "test", 42);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        set_tracing_enabled(false);
        let events = events_named("test.guard");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].cat, "test");
        assert_eq!(events[0].arg, 42);
        assert!(events[0].dur_ns >= 1_000_000, "dur {}", events[0].dur_ns);
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _guard = test_lock();
        clear_spans();
        set_tracing_enabled(false);
        {
            let _span = SpanGuard::new("test.disabled", "test", 0);
        }
        emit_span("test.disabled", "test", 0, 5, 0);
        assert!(events_named("test.disabled").is_empty());
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut ring = Ring::with_capacity(4, SpanEvent::EMPTY);
        for k in 0..10u64 {
            ring.push(SpanEvent {
                name: "w",
                cat: "t",
                start_ns: k,
                dur_ns: 1,
                arg: k,
                flow: 0,
                hop: 0,
            });
        }
        assert_eq!(ring.dropped(), 6);
        let ordered = ring.ordered();
        assert_eq!(ordered.len(), 4);
        let args: Vec<u64> = ordered.iter().map(|e| e.arg).collect();
        assert_eq!(args, [6, 7, 8, 9]);
        ring.clear();
        assert_eq!(ring.dropped(), 0);
        assert!(ring.ordered().is_empty());
    }

    #[test]
    fn emit_span_records_explicit_intervals() {
        let _guard = test_lock();
        clear_spans();
        set_tracing_enabled(true);
        emit_span("test.emit", "bp", 1_000, 250, 7);
        set_tracing_enabled(false);
        let events = events_named("test.emit");
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0],
            SpanEvent {
                name: "test.emit",
                cat: "bp",
                start_ns: 1_000,
                dur_ns: 250,
                arg: 7,
                flow: 0,
                hop: 0,
            }
        );
    }

    #[test]
    fn spans_from_spawned_threads_are_collected() {
        let _guard = test_lock();
        clear_spans();
        set_tracing_enabled(true);
        std::thread::spawn(|| {
            emit_span("test.thread", "test", 10, 20, 1);
        })
        .join()
        .unwrap();
        set_tracing_enabled(false);
        assert_eq!(events_named("test.thread").len(), 1);
    }
}
