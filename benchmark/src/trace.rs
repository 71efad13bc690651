//! Harness-side span tracing: every call into a layer is bracketed from
//! here, in the benchmark's own files; the program under test is untouched.
//!
//! A span is `{name, start, end, parent, (session, frame)}`. Spans are kept
//! in memory and written out when the workload ends. A layer's **self time**
//! is its span's duration minus the part of that interval its child spans
//! cover. With tracing off (`--trace 0`, the end-to-end runs) opening a span
//! is one relaxed atomic load.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the process-wide epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based identifier; `parent == 0` marks a root.
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The request the span belongs to: spans of one frame share it.
    pub session: u32,
    pub frame: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans of this thread, innermost last (parent linkage).
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    /// The (session, frame) new spans on this thread are stamped with.
    static REQUEST: Cell<(u32, u32)> = const { Cell::new((0, 0)) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds from the process-wide epoch to `at`.
pub fn ns_of(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Turns span recording on or off (off drops nothing already recorded).
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Stamps subsequent spans of this thread with a request identifier.
pub fn set_request(session: u32, frame: u32) {
    REQUEST.with(|r| r.set((session, frame)));
}

/// An open span; closing (dropping) it records the interval.
pub struct SpanGuard {
    /// `None` while tracing is off.
    open: Option<(u32, &'static str, Instant)>,
}

/// Opens a span on the calling thread, nested under its innermost open span.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    SpanGuard {
        open: Some((id, name, Instant::now())),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((id, name, start)) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        let parent = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            stack.pop();
            stack.last().copied().unwrap_or(0)
        });
        push(id, parent, name, start, end);
    }
}

/// Records an interval the caller timed itself (it needs the instants for
/// an end-to-end metric too), nested under the innermost open span.
pub fn record(name: &'static str, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    push(id, parent, name, start, end);
}

fn push(id: u32, parent: u32, name: &'static str, start: Instant, end: Instant) {
    let (session, frame) = REQUEST.with(Cell::get);
    SPANS
        .lock()
        .expect("a panicking thread held the span store")
        .push(Span {
            id,
            parent,
            name,
            start_ns: ns_of(start),
            end_ns: ns_of(end),
            session,
            frame,
        });
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("a panicking thread held the span store"),
    )
}

/// Self time of every span, in input order: its duration minus the union of
/// its children's intervals (clipped to the span).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let index_of: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index_of.get(&s.parent) {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Durations in microseconds of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// Self times in microseconds of every span called `name`.
pub fn self_us(spans: &[Span], self_ns: &[u64], name: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &ns)| ns as f64 / 1e3)
        .collect()
}

/// Serialises spans (with their self times) as one JSON document.
pub fn to_json(host: &str, workload: &str, seed: u64, spans: &[Span]) -> String {
    let self_ns = self_times_ns(spans);
    let mut out = format!(
        "{{\"host\": {host}, \"workload\": \"{workload}\", \"seed\": {seed}, \
         \"unit\": \"ns since process epoch\", \"spans\": [\n"
    );
    for (i, (s, own)) in spans.iter().zip(&self_ns).enumerate() {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\
             \"self\":{},\"session\":{},\"frame\":{}}}{}\n",
            s.id,
            s.parent,
            s.name,
            s.start_ns,
            s.end_ns,
            own,
            s.session,
            s.frame,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn closed(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            session: 0,
            frame: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            closed(1, 0, 0, 100),   // root
            closed(2, 1, 10, 40),   // child A
            closed(3, 2, 15, 25),   // grandchild: counts against A only
            closed(4, 1, 50, 70),   // sibling child B
            closed(5, 0, 200, 230), // unrelated root
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![100 - 30 - 20, 30 - 10, 10, 20, 30]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            closed(1, 0, 100, 200),
            closed(2, 1, 110, 150),
            closed(3, 1, 140, 180), // overlaps child 2 by 10
            closed(4, 1, 190, 260), // runs past the parent's end
        ];
        // Covered: [110, 180) = 70 plus [190, 200) = 10.
        assert_eq!(self_times_ns(&spans)[0], 100 - 80);
    }

    #[test]
    fn guards_link_parents_on_one_thread() {
        // The span store is process-wide: run the whole scenario on a
        // dedicated thread and look only at the names it used.
        set_enabled(true);
        std::thread::spawn(|| {
            set_request(7, 3);
            let _outer = span("test.outer");
            {
                let _inner = span("test.inner");
            }
            let now = Instant::now();
            record("test.recorded", now, now);
        })
        .join()
        .unwrap();
        let spans: Vec<Span> = take()
            .into_iter()
            .filter(|s| s.name.starts_with("test."))
            .collect();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let outer = by_name("test.outer");
        assert_eq!(outer.parent, 0);
        assert_eq!(by_name("test.inner").parent, outer.id);
        assert_eq!(by_name("test.recorded").parent, outer.id);
        assert_eq!((outer.session, outer.frame), (7, 3));
    }
}
