//! Flight recorder: cross-process frame tracing, a black-box event
//! journal, and triggered post-mortem bundles.
//!
//! Aggregate counters say *that* frames were shed or retransmitted; the
//! flight recorder answers *why this frame*. Three pieces:
//!
//! - **[`TraceCtx`]** — a per-frame trace id plus a monotone hop sequence,
//!   stamped at ingest admission and carried through shed decisions,
//!   pipeline spans, checkpoint capture, the replication wire and follower
//!   replay. Spans recorded with [`crate::emit_flow_span`] carry the id,
//!   and the Chrome exporter stitches same-id spans into one arrowed flow
//!   even when primary and follower rings are exported as separate
//!   processes (see [`crate::chrome_trace_events`]).
//! - **The journal** — a process-global, fixed-capacity, allocation-free
//!   ring of structured [`JournalEvent`]s (admission rejects, frame
//!   drops, shed decisions, resyncs, retransmits, epoch bumps, promote),
//!   each stamped with trace id, session and sequence. Overwrite-on-wrap
//!   like the span rings; recording is a mutex fast-path lock plus an
//!   array write.
//! - **[`FlightRecorder`]** — declarative triggers (drop-rate spike,
//!   failover) that atomically dump a post-mortem bundle — registry
//!   snapshot, journal tail, recent spans, config fingerprint and
//!   caller-provided context — via temp-file + fsync + rename,
//!   rate-limited per trigger by a hard bundle-count cap so a trigger
//!   storm cannot fill a disk.
//!
//! [`HealthReport`] is the per-session roll-up the serving layer surfaces:
//! ingest backlog, shed state, replication lag and resident bytes vs.
//! budget, folded into a three-level verdict.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::export::{
    chrome_trace_events, escape_json, wrap_trace_events, write_atomic, write_registry_json,
};
use crate::registry::global;
use crate::ring::Ring;
use crate::spans::ns_since_epoch;

// ---------------------------------------------------------------------------
// Trace context
// ---------------------------------------------------------------------------

/// Canonical hop numbers of a frame's lifecycle, shared by every crate
/// that stamps a flow span so merged traces order hops consistently.
pub mod hops {
    /// Admission into the ingest inbox.
    pub const INGEST: u32 = 0;
    /// Shed decision + tracking/mapping step.
    pub const TRACK: u32 = 1;
    /// Checkpoint capture into the delta log.
    pub const CHECKPOINT: u32 = 2;
    /// Replication wire send.
    pub const WIRE: u32 = 3;
    /// Follower-side replay.
    pub const REPLAY: u32 = 4;
}

/// Per-frame trace context: a process-unique trace id plus the monotone
/// hop sequence of the pipeline stage currently holding the frame. `Copy`
/// and two words wide so it rides inside ingest frames and wire records
/// for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Flow id; `0` means "not traced" (see [`TraceCtx::NONE`]).
    pub trace_id: u64,
    /// Monotone hop sequence (see [`hops`]).
    pub hop: u32,
}

impl TraceCtx {
    /// The untraced context: recording sites treat it as "skip".
    pub const NONE: TraceCtx = TraceCtx {
        trace_id: 0,
        hop: 0,
    };

    /// Mints a fresh trace id (hop 0). Ids are a splitmix64 finalizer over
    /// a process-global counter: well-spread for trace viewers, never zero,
    /// deterministic per process, and allocation-free.
    #[inline]
    pub fn fresh() -> TraceCtx {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let mut z = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        TraceCtx {
            trace_id: z | 1,
            hop: 0,
        }
    }

    /// Whether this context carries a live trace id.
    #[inline]
    pub fn is_traced(&self) -> bool {
        self.trace_id != 0
    }
}

// ---------------------------------------------------------------------------
// Black-box event journal
// ---------------------------------------------------------------------------

/// Journal capacity (events). Events are rare relative to frames —
/// 4k covers hours of steady serving and several seconds of pathology.
const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// What happened. The taxonomy is closed on purpose: a bounded set of
/// load-bearing control decisions, not a free-form log (see
/// CONTRIBUTING.md "Journal-event policy").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// Ingest admission refused a new session (session cap reached).
    AdmissionReject,
    /// A frame was dropped from a full inbox (drop-oldest).
    FrameDrop,
    /// SLO shedding engaged degraded processing for a frame.
    ShedDegrade,
    /// SLO shedding disengaged (back to full quality).
    ShedRestore,
    /// The primary re-based the replication stream (follower resync).
    Resync,
    /// An unacked replication record was retransmitted.
    Retransmit,
    /// The replication epoch was bumped.
    EpochBump,
    /// A standby was promoted to primary (failover).
    Promote,
}

impl EventKind {
    /// Stable lower-snake name used in bundles and docs.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::AdmissionReject => "admission_reject",
            EventKind::FrameDrop => "frame_drop",
            EventKind::ShedDegrade => "shed_degrade",
            EventKind::ShedRestore => "shed_restore",
            EventKind::Resync => "resync",
            EventKind::Retransmit => "retransmit",
            EventKind::EpochBump => "epoch_bump",
            EventKind::Promote => "promote",
        }
    }
}

/// One journal entry: an [`EventKind`] stamped with the frame's trace id,
/// the session it belongs to, a sequence number (frame or record seq) and
/// one event-specific value (inbox depth, epoch, bytes, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEvent {
    /// What happened.
    pub kind: EventKind,
    /// Session index (scheduler slot / experiment session id).
    pub session: u32,
    /// Trace id of the frame involved (0 = not frame-scoped).
    pub trace_id: u64,
    /// Frame or record sequence number.
    pub seq: u64,
    /// Event-specific payload value.
    pub value: u64,
    /// Nanoseconds since the shared trace epoch.
    pub ts_ns: u64,
}

const EMPTY_EVENT: JournalEvent = JournalEvent {
    kind: EventKind::AdmissionReject,
    session: 0,
    trace_id: 0,
    seq: 0,
    value: 0,
    ts_ns: 0,
};

static JOURNAL_ENABLED: AtomicBool = AtomicBool::new(false);

fn journal() -> &'static Mutex<Ring<JournalEvent>> {
    static JOURNAL: OnceLock<Mutex<Ring<JournalEvent>>> = OnceLock::new();
    JOURNAL.get_or_init(|| Mutex::new(Ring::with_capacity(DEFAULT_JOURNAL_CAPACITY, EMPTY_EVENT)))
}

fn journal_lock() -> std::sync::MutexGuard<'static, Ring<JournalEvent>> {
    match journal().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Globally enables or disables journal recording. Disabled recording
/// costs one relaxed load per event site.
pub fn set_journal_enabled(enabled: bool) {
    JOURNAL_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Performs the journal's one-time allocation now, so subsequent
/// [`journal_record`] calls are allocation-free (the zero-alloc gate runs
/// with the journal enabled).
pub fn warm_journal() {
    let _ = journal();
}

/// Records one black-box event. Allocation-free after [`warm_journal`]:
/// a relaxed load, a clock read, a mutex fast-path lock and an array
/// write. No-op while the journal is disabled.
#[inline]
pub fn journal_record(kind: EventKind, session: u32, trace_id: u64, seq: u64, value: u64) {
    if !JOURNAL_ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let ts_ns = ns_since_epoch(Instant::now());
    journal_lock().push(JournalEvent {
        kind,
        session,
        trace_id,
        seq,
        value,
        ts_ns,
    });
}

/// The newest `n` events, oldest first. Copies; the ring is left intact.
fn journal_tail(n: usize) -> Vec<JournalEvent> {
    let all = journal_lock().ordered();
    let skip = all.len().saturating_sub(n);
    all[skip..].to_vec()
}

/// Every live event, oldest first.
pub fn journal_events() -> Vec<JournalEvent> {
    journal_lock().ordered()
}

/// Empties the journal (capacity is kept).
pub fn clear_journal() {
    journal_lock().clear();
}

fn journal_events_json(events: &[JournalEvent], out: &mut String) {
    use std::fmt::Write as _;
    out.push('[');
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"kind\": \"{}\", \"session\": {}, \"trace_id\": {}, \"seq\": {}, \
             \"value\": {}, \"ts_ns\": {}}}",
            ev.kind.name(),
            ev.session,
            ev.trace_id,
            ev.seq,
            ev.value,
            ev.ts_ns,
        );
    }
    out.push_str("\n  ]");
}

// ---------------------------------------------------------------------------
// Trigger engine + post-mortem bundles
// ---------------------------------------------------------------------------

/// What fires a bundle dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerKind {
    /// Frame drop rate above a threshold fraction.
    DropRateSpike,
    /// A standby was promoted (failover).
    Failover,
}

impl TriggerKind {
    /// Stable lower-snake name used in bundle file names.
    fn name(&self) -> &'static str {
        match self {
            TriggerKind::DropRateSpike => "drop_rate_spike",
            TriggerKind::Failover => "failover",
        }
    }
}

/// One declarative trigger: what fires, its threshold, and the hard cap on
/// bundles it may ever write (the rate limit — a trigger storm produces at
/// most `max_bundles` dumps, the rest write nothing).
#[derive(Debug, Clone, Copy)]
pub struct TriggerSpec {
    /// What fires.
    pub kind: TriggerKind,
    /// Drop-rate fraction that fires ([`TriggerKind::DropRateSpike`]).
    pub drop_rate_threshold: f64,
    /// Hard cap on bundles this trigger writes.
    pub max_bundles: u32,
}

impl TriggerSpec {
    /// Drop-rate spike above `threshold` (fraction of offered frames).
    pub fn drop_rate(threshold: f64, max_bundles: u32) -> Self {
        TriggerSpec {
            kind: TriggerKind::DropRateSpike,
            drop_rate_threshold: threshold,
            max_bundles,
        }
    }

    /// Edge trigger with no threshold ([`TriggerKind::Failover`]).
    pub fn on(kind: TriggerKind, max_bundles: u32) -> Self {
        TriggerSpec {
            kind,
            drop_rate_threshold: 0.0,
            max_bundles,
        }
    }
}

struct TriggerState {
    spec: TriggerSpec,
    written: u32,
}

/// Journal events included per bundle.
const BUNDLE_JOURNAL_EVENTS: usize = 256;

/// The trigger engine: owns the bundle directory, the configured triggers
/// and the caller-provided context (config fingerprint, replication
/// stats), and dumps rate-limited post-mortem bundles atomically.
///
/// A bundle is one JSON file, written via temp + fsync + rename so a
/// crash mid-dump never leaves a partial bundle visible — at worst a
/// stale `.tmp` sibling no reader opens. Layout (see README):
///
/// ```json
/// {
///   "bundle":   {"trigger": "...", "session": 0, "trace_id": 0, "ts_ns": 0},
///   "context":  {"config_fingerprint": 0, ...},
///   "registry": {"metrics": {...}},
///   "journal":  [{"kind": "...", ...}, ...],
///   "spans":    {"traceEvents": [...]}
/// }
/// ```
pub struct FlightRecorder {
    dir: PathBuf,
    triggers: Vec<TriggerState>,
    context: Vec<(&'static str, u64)>,
    last_error: Option<io::Error>,
}

impl FlightRecorder {
    /// A recorder writing bundles under `dir` (created on first dump).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        FlightRecorder {
            dir: dir.into(),
            triggers: Vec::new(),
            context: Vec::new(),
            last_error: None,
        }
    }

    /// Adds a trigger.
    #[must_use]
    pub fn with_trigger(mut self, spec: TriggerSpec) -> Self {
        self.triggers.push(TriggerState { spec, written: 0 });
        self
    }

    /// Sets (or replaces) one context value embedded in every bundle —
    /// config fingerprints, replication counters, budget bytes.
    pub fn set_context(&mut self, key: &'static str, value: u64) {
        if let Some(slot) = self.context.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.context.push((key, value));
        }
    }

    /// Feeds one drop-rate observation to the drop-rate triggers.
    pub fn observe_drop_rate(
        &mut self,
        session: u32,
        dropped: u64,
        offered: u64,
    ) -> Option<PathBuf> {
        if offered == 0 {
            return None;
        }
        let rate = dropped as f64 / offered as f64;
        for i in 0..self.triggers.len() {
            if self.triggers[i].spec.kind == TriggerKind::DropRateSpike
                && rate > self.triggers[i].spec.drop_rate_threshold
            {
                return self.fire(i, session, 0);
            }
        }
        None
    }

    /// Notifies the edge triggers ([`TriggerKind::Failover`]) that their
    /// event happened.
    pub fn notify(&mut self, kind: TriggerKind, session: u32, trace_id: u64) -> Option<PathBuf> {
        for i in 0..self.triggers.len() {
            if self.triggers[i].spec.kind == kind {
                return self.fire(i, session, trace_id);
            }
        }
        None
    }

    /// The most recent bundle-write error, if any (a failed write never
    /// leaves a partial bundle — the temp sibling is removed).
    pub fn last_error(&self) -> Option<&io::Error> {
        self.last_error.as_ref()
    }

    /// Writes the trigger's next bundle unless it reached its cap.
    fn fire(&mut self, idx: usize, session: u32, trace_id: u64) -> Option<PathBuf> {
        let state = &self.triggers[idx];
        if state.written >= state.spec.max_bundles {
            return None;
        }
        let name = state.spec.kind.name();
        let path = self
            .dir
            .join(format!("bundle-{name}-{}.json", state.written));
        let body = bundle_json(
            name,
            session,
            trace_id,
            &self.context,
            BUNDLE_JOURNAL_EVENTS,
        );
        let written = std::fs::create_dir_all(&self.dir).and_then(|()| write_atomic(&path, &body));
        if let Err(e) = written {
            self.last_error = Some(e);
            return None;
        }
        self.triggers[idx].written += 1;
        Some(path)
    }
}

/// Renders a post-mortem bundle document from the live global telemetry
/// state (registry snapshot, journal tail, recent spans) plus the given
/// identity and context.
fn bundle_json(
    trigger: &str,
    session: u32,
    trace_id: u64,
    context: &[(&'static str, u64)],
    journal_tail_events: usize,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n  \"bundle\": {\"trigger\": \"");
    escape_json(trigger, &mut out);
    let _ = writeln!(
        out,
        "\", \"session\": {session}, \"trace_id\": {trace_id}, \"ts_ns\": {}}},",
        ns_since_epoch(Instant::now()),
    );
    out.push_str("  \"context\": {");
    for (i, (key, value)) in context.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push('"');
        escape_json(key, &mut out);
        let _ = write!(out, "\": {value}");
    }
    out.push_str("},\n  \"registry\": ");
    write_registry_json(&global().snapshot(), &mut out);
    out.push_str(",\n  \"journal\": ");
    journal_events_json(&journal_tail(journal_tail_events), &mut out);
    out.push_str(",\n  \"spans\": ");
    let spans = wrap_trace_events(&[chrome_trace_events(0)]);
    out.push_str(spans.trim_end());
    out.push_str("\n}\n");
    out
}

/// Structural bundle validation: the document must be one balanced JSON
/// value containing every bundle section.
pub fn bundle_is_valid(text: &str) -> bool {
    json_balanced(text)
        && text.contains("\"bundle\"")
        && text.contains("\"context\"")
        && text.contains("\"registry\"")
        && text.contains("\"journal\"")
        && text.contains("\"spans\"")
        && text.contains("\"traceEvents\"")
}

/// Whether `text` is exactly one JSON object or array: brackets outside
/// strings close in kind and order, and only whitespace follows the
/// top-level value. Structural only — catches torn, truncated or
/// interleaved output (two documents run together) without a full JSON
/// parser.
pub fn json_balanced(text: &str) -> bool {
    let body = text.trim_start();
    if !body.starts_with(['{', '[']) {
        return false;
    }
    let mut open = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    for (i, b) in body.bytes().enumerate() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => open.push(b'}'),
            b'[' => open.push(b']'),
            b'}' | b']' => {
                if open.pop() != Some(b) {
                    return false;
                }
                if open.is_empty() {
                    return body[i + 1..].trim().is_empty();
                }
            }
            _ => {}
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Health report
// ---------------------------------------------------------------------------

/// Three-level health roll-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthVerdict {
    /// No backlog, no shedding, no replication lag.
    Healthy,
    /// Serving, but shedding load, running a backlog, or behind on
    /// replication.
    Degraded,
    /// Replication failed.
    Critical,
}

/// Per-session health aggregate the serving layer computes at drain time:
/// ingest backlog, shed state, replication lag and resident bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Session label.
    pub session: String,
    /// Frames still queued in the ingest inbox.
    pub ingest_backlog: u64,
    /// Frames processed in degraded (shed) mode.
    pub degraded_frames: u64,
    /// Frames dropped from a full inbox (drop-oldest).
    pub dropped_frames: u64,
    /// Replication records captured but not yet acked, in frames.
    pub replication_lag_frames: u64,
    /// Whether replication latched a fatal error.
    pub replication_failed: bool,
    /// Resident bytes at report time (reported; nothing bounds it).
    pub resident_bytes: u64,
}

impl HealthReport {
    /// An all-clear report for `session`.
    pub fn new(session: impl Into<String>) -> Self {
        HealthReport {
            session: session.into(),
            ingest_backlog: 0,
            degraded_frames: 0,
            dropped_frames: 0,
            replication_lag_frames: 0,
            replication_failed: false,
            resident_bytes: 0,
        }
    }

    /// Folds the fields into the three-level verdict. Deterministic:
    /// replication failure ⇒ `Critical`; any backlog, shedding, drops or
    /// replication lag ⇒ `Degraded`; otherwise `Healthy`.
    pub fn verdict(&self) -> HealthVerdict {
        if self.replication_failed {
            HealthVerdict::Critical
        } else if self.ingest_backlog > 0
            || self.degraded_frames > 0
            || self.dropped_frames > 0
            || self.replication_lag_frames > 0
        {
            HealthVerdict::Degraded
        } else {
            HealthVerdict::Healthy
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Journal and registry state are process-global; tests that record
    // serialize on this lock and clear before use.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        match LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rtgs-flight-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = TraceCtx::fresh();
        let b = TraceCtx::fresh();
        assert!(a.is_traced() && b.is_traced());
        assert_ne!(a.trace_id, b.trace_id);
        assert!(!TraceCtx::NONE.is_traced());
    }

    #[test]
    fn journal_records_wraps_and_tails() {
        let _guard = test_lock();
        clear_journal();
        set_journal_enabled(true);
        for k in 0..10u64 {
            journal_record(EventKind::ShedDegrade, 1, 7, k, k * 2);
        }
        set_journal_enabled(false);
        journal_record(EventKind::Promote, 9, 9, 9, 9); // disabled: dropped
        let all = journal_events();
        assert_eq!(all.len(), 10);
        assert!(all.iter().all(|e| e.kind == EventKind::ShedDegrade));
        assert_eq!(all[9].seq, 9);
        assert!(all.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        let tail = journal_tail(3);
        let seqs: Vec<u64> = tail.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [7, 8, 9]);
        clear_journal();
        assert!(journal_events().is_empty());
    }

    #[test]
    fn journal_ring_overwrites_oldest() {
        let mut ring = Ring::with_capacity(4, EMPTY_EVENT);
        for k in 0..9u64 {
            let mut ev = EMPTY_EVENT;
            ev.seq = k;
            ring.push(ev);
        }
        assert_eq!(ring.dropped(), 5);
        let seqs: Vec<u64> = ring.ordered().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [5, 6, 7, 8]);
    }

    #[test]
    fn trigger_storm_is_rate_limited_to_max_bundles() {
        let _guard = test_lock();
        clear_journal();
        let dir = test_dir("storm");
        let mut rec =
            FlightRecorder::new(&dir).with_trigger(TriggerSpec::on(TriggerKind::Failover, 2));
        let mut written = 0;
        for _ in 0..100 {
            if rec.notify(TriggerKind::Failover, 0, 1).is_some() {
                written += 1;
            }
        }
        assert_eq!(written, 2, "storm capped at max_bundles");
        let on_disk = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with("bundle-")
            })
            .count();
        assert_eq!(on_disk, 2, "at most the configured bundle count on disk");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A stale `.tmp` from a torn previous dump must never surface as a
    /// bundle: the next dump replaces it atomically and the visible file
    /// is always complete.
    #[test]
    fn torn_temp_never_leaves_partial_bundle_visible() {
        let _guard = test_lock();
        clear_journal();
        set_journal_enabled(true);
        journal_record(EventKind::Resync, 0, 42, 1, 2);
        set_journal_enabled(false);
        let dir = test_dir("torn");
        let bundle = dir.join("bundle-failover-0.json");
        // The torn fixture: a crashed writer left garbage at the staging
        // path of the exact bundle about to be written.
        std::fs::write(
            PathBuf::from(format!("{}.tmp", bundle.display())),
            b"{\"torn\": tr",
        )
        .unwrap();
        let mut rec =
            FlightRecorder::new(&dir).with_trigger(TriggerSpec::on(TriggerKind::Failover, 1));
        let path = rec.notify(TriggerKind::Failover, 0, 42).expect("fires");
        assert_eq!(path, bundle);
        let text = std::fs::read_to_string(&bundle).unwrap();
        assert!(bundle_is_valid(&text), "visible bundle is complete: {text}");
        assert!(text.contains("\"trace_id\": 42"));
        assert!(
            !PathBuf::from(format!("{}.tmp", bundle.display())).exists(),
            "staging sibling consumed by the rename"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A failed dump (unwritable directory) leaves nothing visible,
    /// surfaces through `last_error` and does not use up the trigger's
    /// bundle budget.
    #[test]
    fn failed_dump_leaves_no_partial_bundle() {
        let _guard = test_lock();
        let dir = test_dir("fail").join("not-a-dir.txt");
        std::fs::write(&dir, b"a file where the bundle dir should be").unwrap();
        let mut rec =
            FlightRecorder::new(&dir).with_trigger(TriggerSpec::on(TriggerKind::Failover, 1));
        assert!(rec.notify(TriggerKind::Failover, 0, 0).is_none());
        assert!(rec.last_error().is_some());
        assert_eq!(rec.triggers[0].written, 0);
        assert!(!dir.join("bundle-failover-0.json").exists());
    }

    #[test]
    fn drop_rate_trigger_fires_above_threshold() {
        let _guard = test_lock();
        clear_journal();
        let dir = test_dir("droprate");
        let mut rec = FlightRecorder::new(&dir).with_trigger(TriggerSpec::drop_rate(0.2, 1));
        rec.set_context("config_fingerprint", 0xfeed);
        assert!(rec.observe_drop_rate(0, 1, 10).is_none(), "10% is fine");
        assert!(
            rec.observe_drop_rate(0, 0, 0).is_none(),
            "no frames, no rate"
        );
        let path = rec.observe_drop_rate(0, 5, 10).expect("50% fires");
        let text = std::fs::read_to_string(path).unwrap();
        assert!(bundle_is_valid(&text), "{text}");
        assert!(text.contains("\"config_fingerprint\": 65261"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn health_verdict_levels() {
        let mut report = HealthReport::new("s0");
        assert_eq!(report.verdict(), HealthVerdict::Healthy);
        report.degraded_frames = 3;
        assert_eq!(report.verdict(), HealthVerdict::Degraded);
        report.replication_failed = true;
        assert_eq!(report.verdict(), HealthVerdict::Critical);
        report.replication_failed = false;
        report.degraded_frames = 0;
        report.resident_bytes = 10;
        assert_eq!(
            report.verdict(),
            HealthVerdict::Healthy,
            "bytes are reported, not judged"
        );
    }

    #[test]
    fn event_kind_names_are_the_documented_taxonomy() {
        // Bundles write a kind by name and their consumers grep it
        // (CONTRIBUTING.md "Journal-event policy"): changing this list is a
        // deliberate format change.
        const TAXONOMY: [(EventKind, &str); 8] = [
            (EventKind::AdmissionReject, "admission_reject"),
            (EventKind::FrameDrop, "frame_drop"),
            (EventKind::ShedDegrade, "shed_degrade"),
            (EventKind::ShedRestore, "shed_restore"),
            (EventKind::Resync, "resync"),
            (EventKind::Retransmit, "retransmit"),
            (EventKind::EpochBump, "epoch_bump"),
            (EventKind::Promote, "promote"),
        ];
        // No wildcard arm: a new kind fails to compile here, which sends
        // its author to the list above.
        let _exhaustive = |kind: EventKind| match kind {
            EventKind::AdmissionReject
            | EventKind::FrameDrop
            | EventKind::ShedDegrade
            | EventKind::ShedRestore
            | EventKind::Resync
            | EventKind::Retransmit
            | EventKind::EpochBump
            | EventKind::Promote => (),
        };
        for (position, (kind, name)) in TAXONOMY.iter().enumerate() {
            assert_eq!(
                *kind as usize, position,
                "{name} is out of declaration order"
            );
            assert_eq!(kind.name(), *name);
        }
        let mut names: Vec<&str> = TAXONOMY.iter().map(|(kind, _)| kind.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TAXONOMY.len(), "duplicate names");
    }

    #[test]
    fn bundle_json_is_balanced_with_escaped_names() {
        let _guard = test_lock();
        clear_journal();
        set_journal_enabled(true);
        journal_record(EventKind::EpochBump, 2, 11, 3, 4);
        set_journal_enabled(false);
        let text = bundle_json("quote\"inside", 1, 11, &[("k", 5)], 16);
        assert!(json_balanced(&text), "{text}");
        assert!(text.contains("\"epoch_bump\""));
        assert!(text.contains("quote\\\"inside"));
    }

    #[test]
    fn json_balanced_accepts_exactly_one_value() {
        assert!(json_balanced(r#"{"a": [1, 2, {"b": "}"}]}"#));
        assert!(json_balanced("  [1, {\"x\": \"\\\"]\"}]\n"));
        assert!(json_balanced(&crate::chrome_trace_json()));
        let _guard = test_lock();
        assert!(bundle_is_valid(&bundle_json("failover", 0, 0, &[], 4)));
        for bad in [
            "",
            "   ",
            "{}{}",
            "{} []",
            "{]",
            "[}",
            "}{",
            r#"{"a": [1, 2}"#,
            r#"{"a": "unterminated}"#,
            r#"{"a": 1"#,
            "42",
        ] {
            assert!(!json_balanced(bad), "{bad:?}");
        }
    }
}
