//! Exporters, one per format: registry snapshots as the JSON a post-mortem
//! bundle embeds, span rings as Chrome `trace_event` JSON.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use crate::registry::{MetricValue, RegistrySnapshot};
use crate::spans::collect_spans;

pub(crate) fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Writes a registry snapshot into `out` as the JSON object a post-mortem
/// bundle embeds under `"registry"` (indented for that nesting), keyed by
/// metric name. Histograms are summarized
/// (count/sum/min/max/mean/p50/p99/p999) rather than dumped
/// bucket-by-bucket.
pub(crate) fn write_registry_json(snapshot: &RegistrySnapshot, out: &mut String) {
    out.push_str("{\n    \"metrics\": {");
    for (i, (name, value)) in snapshot.entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n      \"");
        escape_json(name, out);
        out.push_str("\": ");
        match value {
            MetricValue::Counter(v) => {
                let _ = write!(out, "{{\"type\": \"counter\", \"value\": {v}}}");
            }
            MetricValue::Gauge(v) => {
                let _ = write!(out, "{{\"type\": \"gauge\", \"value\": {v}}}");
            }
            MetricValue::Histogram(h) => {
                let _ = write!(
                    out,
                    "{{\"type\": \"histogram\", \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": {:.1}, \"p50\": {}, \"p99\": {}, \"p999\": {}}}",
                    h.count(),
                    h.sum(),
                    h.min(),
                    h.max(),
                    h.mean(),
                    h.p50(),
                    h.p99(),
                    h.p999(),
                );
            }
        }
    }
    out.push_str("\n    }\n  }");
}

/// Serializes every thread's recorded spans as Chrome `trace_event` JSON
/// (complete `"ph": "X"` events, microsecond timestamps). Load the result in
/// `chrome://tracing` or <https://ui.perfetto.dev> for a flame chart of a
/// multi-session run. Rings are left intact (export is a copy).
pub fn chrome_trace_json() -> String {
    wrap_trace_events(&[chrome_trace_events(0)])
}

/// Like [`chrome_trace_json`] but returns the bare event list (no
/// `traceEvents` wrapper) with every event stamped with `pid`. One call per
/// logical process, merged with [`wrap_trace_events`], yields a single
/// cross-process trace: spans recorded with a flow id (see
/// [`crate::emit_flow_span`]) additionally emit Chrome *flow events* —
/// `"ph": "f"` binding the incoming arrow at the span's start (hops > 0)
/// and `"ph": "s"` starting the outgoing arrow at its end — all under the
/// shared `("flight", "frame")` category/name pair and `"id"` = trace id,
/// which is what makes Perfetto draw one arrowed chain per frame across
/// the processes' ring exports.
pub fn chrome_trace_events(pid: u32) -> String {
    let mut out = String::new();
    let mut first = true;
    let mut push_sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n  ");
    };
    for (tid, events) in collect_spans() {
        for event in events {
            if event.flow != 0 && event.hop > 0 {
                push_sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\": \"frame\", \"cat\": \"flight\", \"ph\": \"f\", \"bp\": \"e\", \
                     \"id\": {}, \"ts\": {:.3}, \"pid\": {pid}, \"tid\": {tid}}}",
                    event.flow,
                    event.start_ns as f64 / 1_000.0,
                );
            }
            push_sep(&mut out);
            out.push_str("{\"name\": \"");
            escape_json(event.name, &mut out);
            out.push_str("\", \"cat\": \"");
            escape_json(event.cat, &mut out);
            let _ = write!(
                out,
                "\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": {pid}, \"tid\": {tid}, \
                 \"args\": {{\"arg\": {}, \"trace_id\": {}, \"hop\": {}}}}}",
                event.start_ns as f64 / 1_000.0,
                event.dur_ns as f64 / 1_000.0,
                event.arg,
                event.flow,
                event.hop,
            );
            if event.flow != 0 {
                push_sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\": \"frame\", \"cat\": \"flight\", \"ph\": \"s\", \
                     \"id\": {}, \"ts\": {:.3}, \"pid\": {pid}, \"tid\": {tid}}}",
                    event.flow,
                    (event.start_ns + event.dur_ns) as f64 / 1_000.0,
                );
            }
        }
    }
    out
}

/// Joins per-process event lists from [`chrome_trace_events`] into one
/// Chrome `trace_event` document. Empty parts are skipped.
pub fn wrap_trace_events(parts: &[String]) -> String {
    let mut out = String::from("{\"traceEvents\": [");
    let mut first = true;
    for part in parts {
        if part.is_empty() {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(part);
    }
    out.push_str("\n]}\n");
    out
}

/// Crash-safe write: stage in a `.tmp` sibling, fsync, rename into place,
/// so a crash mid-dump never leaves a torn bundle visible. The process's
/// one file writer; a failed write removes the `.tmp` sibling.
pub(crate) fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    use std::io::Write as _;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(contents.as_bytes())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("serve.steps").add(42);
        r.gauge("arena.high_water").set(1 << 20);
        let h = r.histogram("frame.ns");
        for v in [1_000u64, 2_000, 3_000, 1_000_000] {
            h.record(v);
        }
        r
    }

    #[test]
    fn json_render_is_parseable_shape() {
        let mut json = String::new();
        write_registry_json(&sample_registry().snapshot(), &mut json);
        assert!(json.contains("\"serve.steps\": {\"type\": \"counter\", \"value\": 42}"));
        assert!(json.contains("\"type\": \"histogram\""));
        assert!(json.contains("\"p999\""));
        assert!(crate::json_balanced(&json), "{json}");
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut out = String::new();
        escape_json("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn chrome_trace_has_balanced_structure() {
        let json = chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\": ["));
        assert!(json.trim_end().ends_with("]}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
