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
//!   ring of structured [`JournalEvent`]s (admission rejects, shed
//!   decisions, evictions, hibernate/rehydrate, resyncs, retransmits,
//!   epoch bumps, promote), each stamped with trace id, session and
//!   sequence. Overwrite-on-wrap like the span rings; recording is a mutex
//!   fast-path lock plus an array write.
//! - **[`FlightRecorder`]** — declarative triggers (p99 over SLO for N
//!   consecutive windows, drop-rate spike, resync, failover, panic hook)
//!   that atomically dump a post-mortem bundle — registry snapshot,
//!   journal tail, recent spans, config fingerprint and caller-provided
//!   context — via temp-file + fsync + rename, rate-limited per trigger by
//!   a hard bundle-count cap so a trigger storm cannot fill a disk.
//!
//! [`HealthReport`] is the per-session roll-up the serving layer surfaces:
//! ingest backlog, shed state, replication lag and resident bytes vs.
//! budget, folded into a three-level verdict.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::export::{
    chrome_trace_events, escape_json, render_json, wrap_trace_events, write_atomic,
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

    /// The same trace at hop `hop` (stages hand the frame on by number so
    /// out-of-order arrival on the wire cannot scramble the sequence).
    #[inline]
    pub fn at_hop(&self, hop: u32) -> TraceCtx {
        TraceCtx {
            trace_id: self.trace_id,
            hop,
        }
    }
}

// ---------------------------------------------------------------------------
// Black-box event journal
// ---------------------------------------------------------------------------

/// Journal capacity (events). Events are rare relative to frames —
/// 4k covers hours of steady serving and several seconds of pathology.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// What happened. The taxonomy is closed on purpose: a bounded set of
/// load-bearing control decisions, not a free-form log (see
/// CONTRIBUTING.md "Journal events").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// Ingest admission refused a new session (limit or memory).
    AdmissionReject,
    /// A frame was dropped from a full inbox (late policy).
    FrameDrop,
    /// SLO shedding engaged degraded processing for a frame.
    ShedDegrade,
    /// SLO shedding disengaged (back to full quality).
    ShedRestore,
    /// The scheduler evicted a session under the memory budget.
    Evict,
    /// A session was hibernated to its spill file.
    Hibernate,
    /// A hibernated session was rehydrated.
    Rehydrate,
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
            EventKind::Evict => "evict",
            EventKind::Hibernate => "hibernate",
            EventKind::Rehydrate => "rehydrate",
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

/// Whether journal recording is currently enabled.
#[inline]
pub fn journal_enabled() -> bool {
    JOURNAL_ENABLED.load(Ordering::Relaxed)
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
    if !journal_enabled() {
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
pub fn journal_tail(n: usize) -> Vec<JournalEvent> {
    let all = journal_lock().ordered();
    let skip = all.len().saturating_sub(n);
    all[skip..].to_vec()
}

/// Every live event, oldest first.
pub fn journal_events() -> Vec<JournalEvent> {
    journal_lock().ordered()
}

/// Events overwritten since the last [`clear_journal`].
pub fn journal_dropped() -> u64 {
    journal_lock().dropped()
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
    /// Step/frame p99 above the SLO for N consecutive observation windows.
    P99OverSlo,
    /// Frame drop rate above a threshold fraction.
    DropRateSpike,
    /// A replication resync (epoch bump) happened.
    Resync,
    /// A standby was promoted (failover).
    Failover,
    /// The process panicked (see [`install_panic_hook`]).
    Panic,
}

impl TriggerKind {
    /// Stable lower-snake name used in bundle file names and docs.
    pub fn name(&self) -> &'static str {
        match self {
            TriggerKind::P99OverSlo => "p99_over_slo",
            TriggerKind::DropRateSpike => "drop_rate_spike",
            TriggerKind::Resync => "resync",
            TriggerKind::Failover => "failover",
            TriggerKind::Panic => "panic",
        }
    }
}

/// One declarative trigger: what fires, how much evidence it needs, and
/// the hard cap on bundles it may ever write (the rate limit — a trigger
/// storm produces at most `max_bundles` dumps, the rest are counted as
/// suppressed).
#[derive(Debug, Clone, Copy)]
pub struct TriggerSpec {
    /// What fires.
    pub kind: TriggerKind,
    /// Consecutive over-SLO windows required ([`TriggerKind::P99OverSlo`]).
    pub consecutive_windows: u32,
    /// Drop-rate fraction that fires ([`TriggerKind::DropRateSpike`]).
    pub drop_rate_threshold: f64,
    /// Hard cap on bundles this trigger writes.
    pub max_bundles: u32,
}

impl TriggerSpec {
    /// p99-over-SLO after `windows` consecutive bad windows.
    pub fn p99_over_slo(windows: u32, max_bundles: u32) -> Self {
        TriggerSpec {
            kind: TriggerKind::P99OverSlo,
            consecutive_windows: windows.max(1),
            drop_rate_threshold: 0.0,
            max_bundles,
        }
    }

    /// Drop-rate spike above `threshold` (fraction of offered frames).
    pub fn drop_rate(threshold: f64, max_bundles: u32) -> Self {
        TriggerSpec {
            kind: TriggerKind::DropRateSpike,
            consecutive_windows: 1,
            drop_rate_threshold: threshold,
            max_bundles,
        }
    }

    /// Edge trigger with no threshold (Resync / Failover / Panic).
    pub fn on(kind: TriggerKind, max_bundles: u32) -> Self {
        TriggerSpec {
            kind,
            consecutive_windows: 1,
            drop_rate_threshold: 0.0,
            max_bundles,
        }
    }
}

struct TriggerState {
    spec: TriggerSpec,
    streak: u32,
    written: u32,
    suppressed: u64,
}

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
    journal_tail: usize,
    last_error: Option<io::Error>,
}

impl FlightRecorder {
    /// A recorder writing bundles under `dir` (created on first dump).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        FlightRecorder {
            dir: dir.into(),
            triggers: Vec::new(),
            context: Vec::new(),
            journal_tail: 256,
            last_error: None,
        }
    }

    /// Adds a trigger.
    #[must_use]
    pub fn with_trigger(mut self, spec: TriggerSpec) -> Self {
        self.triggers.push(TriggerState {
            spec,
            streak: 0,
            written: 0,
            suppressed: 0,
        });
        self
    }

    /// Journal events included per bundle (default 256).
    #[must_use]
    pub fn with_journal_tail(mut self, events: usize) -> Self {
        self.journal_tail = events;
        self
    }

    /// Bundle directory.
    pub fn dir(&self) -> &Path {
        &self.dir
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

    /// Feeds one latency observation window to the p99-over-SLO triggers.
    /// Returns the bundle path when one fired and wrote.
    pub fn observe_window(&mut self, session: u32, p99_ns: u64, slo_ns: u64) -> Option<PathBuf> {
        for i in 0..self.triggers.len() {
            if self.triggers[i].spec.kind != TriggerKind::P99OverSlo {
                continue;
            }
            if p99_ns > slo_ns {
                self.triggers[i].streak += 1;
                if self.triggers[i].streak >= self.triggers[i].spec.consecutive_windows {
                    self.triggers[i].streak = 0;
                    return self.fire(i, session, 0);
                }
            } else {
                self.triggers[i].streak = 0;
            }
        }
        None
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

    /// Notifies the edge triggers (Resync / Failover / Panic) that their
    /// event happened.
    pub fn notify(&mut self, kind: TriggerKind, session: u32, trace_id: u64) -> Option<PathBuf> {
        for i in 0..self.triggers.len() {
            if self.triggers[i].spec.kind == kind {
                return self.fire(i, session, trace_id);
            }
        }
        None
    }

    /// Bundles written across all triggers.
    pub fn bundles_written(&self) -> u64 {
        self.triggers.iter().map(|t| u64::from(t.written)).sum()
    }

    /// Dumps suppressed by the per-trigger rate limit.
    pub fn suppressed(&self) -> u64 {
        self.triggers.iter().map(|t| t.suppressed).sum()
    }

    /// The most recent bundle-write error, if any (a failed write never
    /// leaves a partial bundle — the temp sibling is removed).
    pub fn last_error(&self) -> Option<&io::Error> {
        self.last_error.as_ref()
    }

    fn fire(&mut self, idx: usize, session: u32, trace_id: u64) -> Option<PathBuf> {
        let (name, written) = {
            let state = &mut self.triggers[idx];
            if state.written >= state.spec.max_bundles {
                state.suppressed += 1;
                return None;
            }
            (state.spec.kind.name(), state.written)
        };
        let path = self.dir.join(format!("bundle-{name}-{written}.json"));
        let body = bundle_json(name, session, trace_id, &self.context, self.journal_tail);
        if let Err(e) = std::fs::create_dir_all(&self.dir) {
            self.last_error = Some(e);
            return None;
        }
        match write_atomic(&path, &body) {
            Ok(()) => {
                self.triggers[idx].written += 1;
                Some(path)
            }
            Err(e) => {
                self.last_error = Some(e);
                None
            }
        }
    }
}

/// Renders a post-mortem bundle document from the live global telemetry
/// state (registry snapshot, journal tail, recent spans) plus the given
/// identity and context. Public so the panic hook and tests share the
/// exact writer path.
pub fn bundle_json(
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
    // render_json yields a standalone `{"metrics": {..}}` document; embed
    // it trimmed so the bundle stays one JSON value.
    let registry = render_json(&global().snapshot());
    for line in registry.trim_end().lines() {
        out.push_str(line);
        out.push('\n');
        out.push_str("  ");
    }
    // Undo the trailing indent from the loop above.
    while out.ends_with(' ') || out.ends_with('\n') {
        out.pop();
    }
    out.push_str(",\n  \"journal\": ");
    journal_events_json(&journal_tail(journal_tail_events), &mut out);
    out.push_str(",\n  \"spans\": ");
    let spans = wrap_trace_events(&[chrome_trace_events(0)]);
    out.push_str(spans.trim_end());
    out.push_str("\n}\n");
    out
}

/// Structural bundle validation shared by tests, the blackbox experiment
/// and CI: the document must be one balanced JSON value containing every
/// bundle section.
pub fn bundle_is_valid(text: &str) -> bool {
    json_balanced(text)
        && text.contains("\"bundle\"")
        && text.contains("\"context\"")
        && text.contains("\"registry\"")
        && text.contains("\"journal\"")
        && text.contains("\"spans\"")
        && text.contains("\"traceEvents\"")
}

/// Brace/bracket balance outside strings — catches torn or interleaved
/// output without a full JSON parser.
pub fn json_balanced(text: &str) -> bool {
    let mut depth = 0i64;
    let mut in_string = false;
    let mut escaped = false;
    for b in text.bytes() {
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
            b'{' | b'[' => depth += 1,
            b'}' | b']' => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            _ => {}
        }
    }
    depth == 0 && !in_string
}

// ---------------------------------------------------------------------------
// Panic hook
// ---------------------------------------------------------------------------

static PANIC_ARMED: AtomicBool = AtomicBool::new(false);

fn panic_dir() -> &'static Mutex<PathBuf> {
    static DIR: OnceLock<Mutex<PathBuf>> = OnceLock::new();
    DIR.get_or_init(|| Mutex::new(PathBuf::new()))
}

/// Arms a process-wide panic hook that dumps one `bundle-panic-0.json`
/// under `dir` on the first panic, then chains to the previous hook. The
/// dump itself is wrapped in `catch_unwind` so a poisoned lock can never
/// turn a panic into an abort. Re-calling re-arms with a new directory;
/// [`disarm_panic_hook`] disarms without uninstalling.
pub fn install_panic_hook(dir: impl Into<PathBuf>) {
    *panic_dir().lock().unwrap_or_else(|p| p.into_inner()) = dir.into();
    PANIC_ARMED.store(true, Ordering::SeqCst);
    static INSTALLED: AtomicBool = AtomicBool::new(false);
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if PANIC_ARMED.swap(false, Ordering::SeqCst) {
            let _ = std::panic::catch_unwind(|| {
                let dir = panic_dir()
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .clone();
                let body = bundle_json(TriggerKind::Panic.name(), 0, 0, &[], 256);
                let _ = std::fs::create_dir_all(&dir);
                let _ = write_atomic(&dir.join("bundle-panic-0.json"), &body);
            });
        }
        previous(info);
    }));
}

/// Disarms the panic hook (the hook stays installed but writes nothing).
pub fn disarm_panic_hook() {
    PANIC_ARMED.store(false, Ordering::SeqCst);
}

// ---------------------------------------------------------------------------
// Health report
// ---------------------------------------------------------------------------

/// Three-level health roll-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthVerdict {
    /// No backlog, no shedding, no replication lag, inside budget.
    Healthy,
    /// Serving, but shedding load, running a backlog, or behind on
    /// replication.
    Degraded,
    /// Replication failed or the session is over its memory budget.
    Critical,
}

impl HealthVerdict {
    /// Stable lower-case name.
    pub fn name(&self) -> &'static str {
        match self {
            HealthVerdict::Healthy => "healthy",
            HealthVerdict::Degraded => "degraded",
            HealthVerdict::Critical => "critical",
        }
    }
}

/// Per-session health aggregate the serving layer computes at drain time
/// (and the blackbox experiment prints): ingest backlog, shed state,
/// replication lag and resident bytes vs. budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Session label.
    pub session: String,
    /// Frames still queued in the ingest inbox.
    pub ingest_backlog: u64,
    /// Frames processed in degraded (shed) mode.
    pub degraded_frames: u64,
    /// Frames dropped by the late policy.
    pub dropped_frames: u64,
    /// Replication records captured but not yet acked, in frames.
    pub replication_lag_frames: u64,
    /// Whether replication latched a fatal error.
    pub replication_failed: bool,
    /// Resident bytes at report time.
    pub resident_bytes: u64,
    /// Memory budget (`None` = unbounded).
    pub budget_bytes: Option<u64>,
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
            budget_bytes: None,
        }
    }

    /// Folds the fields into the three-level verdict. Deterministic:
    /// failure or over-budget ⇒ `Critical`; any backlog, shedding, drops
    /// or replication lag ⇒ `Degraded`; otherwise `Healthy`.
    pub fn verdict(&self) -> HealthVerdict {
        let over_budget = self
            .budget_bytes
            .is_some_and(|budget| self.resident_bytes > budget);
        if self.replication_failed || over_budget {
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

    /// One grep-stable summary line (`health verdict: <session> <verdict>
    /// (...)`), used by the blackbox experiment and the CI smoke step.
    pub fn render(&self) -> String {
        format!(
            "health verdict: {} {} (backlog={}, degraded={}, dropped={}, lag={}, \
             resident={}B, budget={})",
            self.session,
            self.verdict().name(),
            self.ingest_backlog,
            self.degraded_frames,
            self.dropped_frames,
            self.replication_lag_frames,
            self.resident_bytes,
            self.budget_bytes
                .map_or_else(|| "unbounded".to_string(), |b| format!("{b}B")),
        )
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
        assert_eq!(a.at_hop(hops::WIRE).hop, hops::WIRE);
        assert_eq!(a.at_hop(hops::WIRE).trace_id, a.trace_id);
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
        assert_eq!(journal_dropped(), 0);
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
    fn p99_trigger_needs_consecutive_windows() {
        let _guard = test_lock();
        clear_journal();
        let dir = test_dir("p99");
        let mut rec = FlightRecorder::new(&dir).with_trigger(TriggerSpec::p99_over_slo(3, 4));
        rec.set_context("config_fingerprint", 0xfeed);
        // Two bad windows, one good one: streak resets, nothing fires.
        assert!(rec.observe_window(0, 10, 5).is_none());
        assert!(rec.observe_window(0, 10, 5).is_none());
        assert!(rec.observe_window(0, 3, 5).is_none());
        assert!(rec.observe_window(0, 10, 5).is_none());
        assert!(rec.observe_window(0, 10, 5).is_none());
        let path = rec
            .observe_window(0, 10, 5)
            .expect("third consecutive fires");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(bundle_is_valid(&text), "{text}");
        assert!(text.contains("\"config_fingerprint\": 65261"));
        assert_eq!(rec.bundles_written(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trigger_storm_is_rate_limited_to_max_bundles() {
        let _guard = test_lock();
        clear_journal();
        let dir = test_dir("storm");
        let mut rec =
            FlightRecorder::new(&dir).with_trigger(TriggerSpec::on(TriggerKind::Resync, 2));
        let mut written = 0;
        for _ in 0..100 {
            if rec.notify(TriggerKind::Resync, 0, 1).is_some() {
                written += 1;
            }
        }
        assert_eq!(written, 2, "storm capped at max_bundles");
        assert_eq!(rec.bundles_written(), 2);
        assert_eq!(rec.suppressed(), 98);
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
        let bundle = dir.join("bundle-resync-0.json");
        // The torn fixture: a crashed writer left garbage at the staging
        // path of the exact bundle about to be written.
        std::fs::write(
            PathBuf::from(format!("{}.tmp", bundle.display())),
            b"{\"torn\": tr",
        )
        .unwrap();
        let mut rec =
            FlightRecorder::new(&dir).with_trigger(TriggerSpec::on(TriggerKind::Resync, 1));
        let path = rec.notify(TriggerKind::Resync, 0, 42).expect("fires");
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

    /// A failed dump (unwritable directory) leaves nothing visible and
    /// surfaces through `last_error`.
    #[test]
    fn failed_dump_leaves_no_partial_bundle() {
        let _guard = test_lock();
        let dir = test_dir("fail").join("not-a-dir.txt");
        std::fs::write(&dir, b"a file where the bundle dir should be").unwrap();
        let mut rec =
            FlightRecorder::new(&dir).with_trigger(TriggerSpec::on(TriggerKind::Failover, 1));
        assert!(rec.notify(TriggerKind::Failover, 0, 0).is_none());
        assert!(rec.last_error().is_some());
        assert_eq!(rec.bundles_written(), 0);
    }

    #[test]
    fn drop_rate_trigger_fires_above_threshold() {
        let _guard = test_lock();
        clear_journal();
        let dir = test_dir("droprate");
        let mut rec = FlightRecorder::new(&dir).with_trigger(TriggerSpec::drop_rate(0.2, 1));
        assert!(rec.observe_drop_rate(0, 1, 10).is_none(), "10% is fine");
        assert!(
            rec.observe_drop_rate(0, 0, 0).is_none(),
            "no frames, no rate"
        );
        let path = rec.observe_drop_rate(0, 5, 10).expect("50% fires");
        assert!(bundle_is_valid(&std::fs::read_to_string(path).unwrap()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn panic_hook_dumps_one_bundle() {
        let _guard = test_lock();
        clear_journal();
        let dir = test_dir("panic");
        install_panic_hook(&dir);
        let result = std::panic::catch_unwind(|| panic!("flight recorder drill"));
        assert!(result.is_err());
        let bundle = dir.join("bundle-panic-0.json");
        let text = std::fs::read_to_string(&bundle).expect("panic bundle written");
        assert!(bundle_is_valid(&text), "{text}");
        assert!(text.contains("\"trigger\": \"panic\""));
        // Disarmed after the first dump: a second panic writes nothing new.
        std::fs::remove_file(&bundle).unwrap();
        let _ = std::panic::catch_unwind(|| panic!("second drill"));
        assert!(!bundle.exists(), "hook fires once per arm");
        disarm_panic_hook();
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
        report.budget_bytes = Some(5);
        assert_eq!(report.verdict(), HealthVerdict::Critical, "over budget");
        report.budget_bytes = Some(20);
        assert_eq!(report.verdict(), HealthVerdict::Healthy);
        let line = report.render();
        assert!(line.starts_with("health verdict: s0 healthy"), "{line}");
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
}
