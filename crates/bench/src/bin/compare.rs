//! Perf-regression comparator for the CI `perf-smoke` gate.
//!
//! Compares freshly produced `BENCH_RESULTS.json` files against the
//! committed baseline and fails (exit code 1) when any benchmark *group*
//! regresses beyond [`DEFAULT_MAX_REGRESSION`]. A group's metric is the
//! **sum of the min_ns of its benchmarks present in both files** — min-of-N
//! is the standard low-noise estimator for CPU microbenches (scheduler
//! preemption and cache pollution only ever add time), and summing makes the
//! gate robust to individual noisy microbenches while still catching a real
//! regression anywhere in the group. An entry without a `min_ns` is a
//! parse error: the gate never falls back to a noisier estimator.
//!
//! On top of the percentage threshold, an **absolute noise floor**
//! ([`DEFAULT_NOISE_FLOOR_NS`]) guards tiny groups: a group fails only when
//! its regression exceeds the percentage *and* grows by more than the floor
//! in absolute terms. A 3ns→4ns microbench group is +33% but pure jitter;
//! the floor keeps it from flaking the gate.
//!
//! **A baseline gates only on the host that wrote it.** The criterion shim
//! stamps every entry with a `host` string (CPU count, CPU model, `rustc
//! -V`). When the baseline's stamp and the current run's differ — or a file
//! carries none, or several — the table is still printed, the JSON report
//! says `"gated": false`, and the exit code is 0: wall-clock minima from two
//! machines measure the machines, not the change.
//!
//! ```text
//! compare <baseline.json> <current.json>... [--json <path>]
//! ```
//!
//! Several current files are several rounds of the suite on one host: each
//! benchmark is gated on its smallest minimum across them (min-of-min).
//!
//! Benchmarks present only in the current files (new benches) or only in
//! the baseline (removed benches) are reported but never fail the gate;
//! refresh the committed baseline to adopt them (see CONTRIBUTING.md).
//!
//! `--json <path>` additionally writes the per-group verdict table as
//! machine-readable JSON (groups, deltas, statuses, thresholds, whether it
//! gated, overall verdict); CI uploads it as an artifact
//! alongside `BENCH_RESULTS.json` so perf history can be mined without
//! re-parsing the human table.
//!
//! The parser is a minimal, std-only reader for the flat
//! `[{"group": .., "bench": .., "min_ns": .., "host": .., ..}, ..]` schema
//! the criterion shim writes (string and numeric values only; the fields
//! the gate does not read, such as `median_ns`, are skipped).

use std::collections::btree_map::Entry as Slot;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Failure threshold: a group regressing more than this fraction versus the
/// baseline fails the gate.
const DEFAULT_MAX_REGRESSION: f64 = 0.25;

/// Absolute noise floor in nanoseconds: a group must regress by more than
/// this much wall time (on top of the percentage threshold) to fail. 100µs
/// is far above timer/scheduler jitter but far below any regression the
/// session-size benchmarks could meaningfully suffer.
const DEFAULT_NOISE_FLOOR_NS: f64 = 100_000.0;

/// One benchmark entry from a results file.
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    group: String,
    bench: String,
    /// Minimum-of-samples: the value this entry contributes to its group's
    /// gated sum.
    min_ns: f64,
    /// Where the entry was measured, absent in files written before the
    /// shim stamped them.
    host: Option<String>,
}

fn main() -> ExitCode {
    let usage = "usage: compare <baseline.json> <current.json>... [--json <path>]";
    let mut paths = Vec::new();
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => {
                let Some(p) = args.next() else {
                    eprintln!("--json requires an output path");
                    return ExitCode::from(2);
                };
                json_path = Some(p);
            }
            "--help" | "-h" => {
                eprintln!("{usage}");
                return ExitCode::SUCCESS;
            }
            _ => paths.push(arg),
        }
    }
    if paths.len() < 2 {
        eprintln!("{usage}");
        return ExitCode::from(2);
    }

    let mut files = Vec::new();
    for path in &paths {
        let read = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| parse_entries(&text).map_err(|e| format!("cannot parse {path}: {e}")));
        match read {
            Ok(entries) => files.push(entries),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        }
    }
    let baseline = files.remove(0);
    let current = min_over(files);

    let (max_regression, noise_floor_ns) = (DEFAULT_MAX_REGRESSION, DEFAULT_NOISE_FLOOR_NS);
    let report = compare(&baseline, &current, max_regression, noise_floor_ns);
    print!("{}", report.text);
    if let Some(path) = json_path {
        let body = report.render_json(max_regression, noise_floor_ns);
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("\nJSON verdicts written to {path}");
    }
    if report.failed {
        eprintln!(
            "\nperf gate FAILED: at least one group regressed more than {:.0}% and {:.0}ns",
            max_regression * 100.0,
            noise_floor_ns
        );
        ExitCode::FAILURE
    } else if report.gated {
        println!(
            "\nperf gate passed (threshold {:.0}%, noise floor {:.0}ns)",
            max_regression * 100.0,
            noise_floor_ns
        );
        ExitCode::SUCCESS
    } else {
        println!("\nperf gate not applied: the baseline was written on another host");
        ExitCode::SUCCESS
    }
}

/// Folds several rounds of the suite into one run: each benchmark keeps its
/// smallest gated metric (min-of-min). An entry measured on different hosts
/// in different rounds loses its stamp, so the folded run never gates.
fn min_over(rounds: Vec<Vec<Entry>>) -> Vec<Entry> {
    let mut best: BTreeMap<(String, String), Entry> = BTreeMap::new();
    for e in rounds.into_iter().flatten() {
        match best.entry((e.group.clone(), e.bench.clone())) {
            Slot::Vacant(slot) => {
                slot.insert(e);
            }
            Slot::Occupied(mut slot) => {
                let same_host = slot.get().host == e.host;
                if e.min_ns < slot.get().min_ns {
                    slot.insert(e);
                }
                if !same_host {
                    slot.get_mut().host = None;
                }
            }
        }
    }
    best.into_values().collect()
}

/// The one host stamp every entry of a run carries, if there is one.
fn host_of(entries: &[Entry]) -> Option<&str> {
    let host = entries.first()?.host.as_deref()?;
    entries
        .iter()
        .all(|e| e.host.as_deref() == Some(host))
        .then_some(host)
}

/// One group's row of the verdict table, in machine-readable form.
struct GroupVerdict {
    group: String,
    /// `None` for groups absent from the baseline (informational rows).
    baseline_ns: Option<f64>,
    current_ns: f64,
    /// `None` when no baseline total exists to compare against.
    delta_pct: Option<f64>,
    status: String,
}

/// Result of one comparison run.
struct Report {
    text: String,
    /// Both runs carry one and the same host stamp.
    gated: bool,
    /// Gated, and some group regressed.
    failed: bool,
    groups: Vec<GroupVerdict>,
    /// `group/bench` names present only in the current run.
    new_benches: Vec<String>,
    /// `group/bench` names present only in the baseline.
    missing_benches: Vec<String>,
}

impl Report {
    /// Renders the verdict table as JSON for the CI artifact. Emitted with
    /// the same minimal vocabulary `parse_entries` reads (objects of
    /// string/number values), plus booleans and `null`.
    fn render_json(&self, max_regression: f64, noise_floor_ns: f64) -> String {
        let num = |v: f64| {
            if v.is_finite() {
                format!("{v:.1}")
            } else {
                "null".to_string()
            }
        };
        let opt = |v: Option<f64>| v.map_or("null".to_string(), num);
        let str_list = |names: &[String]| {
            let quoted: Vec<String> = names.iter().map(|n| format!("\"{}\"", escape(n))).collect();
            format!("[{}]", quoted.join(", "))
        };
        let mut groups = String::new();
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                groups.push_str(",\n");
            }
            groups.push_str(&format!(
                "    {{\"group\": \"{}\", \"baseline_ns\": {}, \"current_ns\": {}, \
                 \"delta_pct\": {}, \"status\": \"{}\"}}",
                escape(&g.group),
                opt(g.baseline_ns),
                num(g.current_ns),
                opt(g.delta_pct),
                escape(&g.status),
            ));
        }
        format!(
            "{{\n  \"max_regression_pct\": {},\n  \"noise_floor_ns\": {},\n  \
             \"gated\": {},\n  \"failed\": {},\n  \
             \"groups\": [\n{}\n  ],\n  \
             \"new_benches\": {},\n  \"missing_benches\": {}\n}}\n",
            num(max_regression * 100.0),
            num(noise_floor_ns),
            self.gated,
            self.failed,
            groups,
            str_list(&self.new_benches),
            str_list(&self.missing_benches),
        )
    }
}

/// Escapes a string for embedding in a JSON literal.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// A compared group's delta and status, and whether it regressed: past the
/// relative threshold *and* the absolute noise floor.
fn verdict(
    b_ns: f64,
    c_ns: f64,
    max_regression: f64,
    noise_floor_ns: f64,
    renamed: bool,
) -> (f64, String, bool) {
    let delta = if b_ns > 0.0 { c_ns / b_ns - 1.0 } else { 0.0 };
    let over = delta > max_regression;
    let regressed = over && c_ns - b_ns > noise_floor_ns;
    let (word, note) = if regressed {
        ("REGRESSED", None)
    } else if over {
        ("ok", Some("within noise floor"))
    } else if delta < -0.05 {
        ("improved", None)
    } else {
        ("ok", None)
    };
    let notes: Vec<&str> = note
        .into_iter()
        .chain(renamed.then_some("renamed benches"))
        .collect();
    let status = if notes.is_empty() {
        word.to_string()
    } else {
        format!("{word} ({})", notes.join(", "))
    };
    (delta, status, regressed)
}

/// Compares current gate metrics (min-of-N) against the
/// baseline, grouping by bench group. A group fails only when it exceeds
/// both the relative threshold and the absolute noise floor, and only when
/// both runs were measured on the same host.
fn compare(
    baseline: &[Entry],
    current: &[Entry],
    max_regression: f64,
    noise_floor_ns: f64,
) -> Report {
    let baseline_host = host_of(baseline);
    let current_host = host_of(current);
    let gated = baseline_host.is_some() && baseline_host == current_host;

    let index = |entries: &[Entry]| -> BTreeMap<(String, String), f64> {
        entries
            .iter()
            .map(|e| ((e.group.clone(), e.bench.clone()), e.min_ns))
            .collect()
    };
    let base = index(baseline);
    let cur = index(current);

    // Per group of the current run: the sums over the benches both runs
    // share, and each side's whole-group total.
    #[derive(Default)]
    struct Sums {
        shared: Option<(f64, f64)>,
        baseline: Option<f64>,
        current: f64,
    }
    let mut sums: BTreeMap<&str, Sums> = BTreeMap::new();
    for ((g, b), &c_ns) in &cur {
        let s = sums.entry(g).or_default();
        s.current += c_ns;
        if let Some(&b_ns) = base.get(&(g.clone(), b.clone())) {
            let (sb, sc) = s.shared.get_or_insert((0.0, 0.0));
            *sb += b_ns;
            *sc += c_ns;
        }
    }
    for ((g, _), &b_ns) in &base {
        if let Some(s) = sums.get_mut(g.as_str()) {
            *s.baseline.get_or_insert(0.0) += b_ns;
        }
    }

    const UNSTAMPED: &str = "(unstamped, or several hosts)";
    let mut text = format!(
        "baseline host: {}\ncurrent host:  {}\n",
        baseline_host.unwrap_or(UNSTAMPED),
        current_host.unwrap_or(UNSTAMPED)
    );
    if !gated {
        text.push_str("not gated: the host stamps differ, the table is informational\n");
    }
    text.push_str(&format!(
        "\n{:<32} {:>14} {:>14} {:>9}  {}\n",
        "group", "baseline (ns)", "current (ns)", "delta", "status"
    ));
    let mut failed = false;
    let mut verdicts = Vec::new();
    for (g, s) in sums {
        // A group that shares no bench with the baseline but exists there
        // had all its benches renamed; letting it drop out would silently
        // un-gate it, so it gates on the whole-group totals. A group absent
        // from the baseline is new and informational: its total is reported
        // so reviewers see the cost, and it starts gating once a baseline
        // refresh carries it.
        let compared = match (s.shared, s.baseline) {
            (Some((b_ns, c_ns)), _) => Some((b_ns, c_ns, false)),
            (None, Some(b_ns)) => Some((b_ns, s.current, true)),
            (None, None) => None,
        };
        let row = match compared {
            Some((b_ns, c_ns, renamed)) => {
                let (delta, status, regressed) =
                    verdict(b_ns, c_ns, max_regression, noise_floor_ns, renamed);
                failed |= gated && regressed;
                GroupVerdict {
                    group: g.to_string(),
                    baseline_ns: Some(b_ns),
                    current_ns: c_ns,
                    delta_pct: Some(delta * 100.0),
                    status,
                }
            }
            None => GroupVerdict {
                group: g.to_string(),
                baseline_ns: None,
                current_ns: s.current,
                delta_pct: None,
                status: "new (informational)".to_string(),
            },
        };
        text.push_str(&format!(
            "{:<32} {:>14} {:>14.0} {:>9}  {}\n",
            row.group,
            row.baseline_ns
                .map_or("-".to_string(), |b| format!("{b:.0}")),
            row.current_ns,
            row.delta_pct.map_or(String::new(), |d| format!("{d:+.1}%")),
            row.status
        ));
        verdicts.push(row);
    }

    // Informational: benches not shared between the files.
    let new: Vec<String> = cur
        .keys()
        .filter(|k| !base.contains_key(*k))
        .map(|(g, b)| format!("{g}/{b}"))
        .collect();
    let gone: Vec<String> = base
        .keys()
        .filter(|k| !cur.contains_key(*k))
        .map(|(g, b)| format!("{g}/{b}"))
        .collect();
    if !new.is_empty() {
        text.push_str(&format!(
            "\n{} new benchmark(s) not in baseline (not gated): {}\n",
            new.len(),
            new.join(", ")
        ));
    }
    if !gone.is_empty() {
        text.push_str(&format!(
            "\n{} baseline benchmark(s) missing from current run: {}\n",
            gone.len(),
            gone.join(", ")
        ));
    }

    Report {
        text,
        gated,
        failed,
        groups: verdicts,
        new_benches: new,
        missing_benches: gone,
    }
}

// ---------------------------------------------------------------------------
// Minimal JSON reader for `[{"key": value, ..}, ..]` with string/number
// values (the schema the criterion shim writes).
// ---------------------------------------------------------------------------

/// Parses the benchmark entries out of a results file.
fn parse_entries(text: &str) -> Result<Vec<Entry>, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'[')?;
    let mut entries = Vec::new();
    p.skip_ws();
    if p.peek() == Some(b']') {
        p.expect(b']')?;
        return Ok(entries);
    }
    loop {
        let obj = p.parse_object()?;
        let get_str = |k: &str| -> Result<String, String> {
            match obj.get(k) {
                Some(Value::Str(s)) => Ok(s.clone()),
                _ => Err(format!("entry missing string field '{k}'")),
            }
        };
        let get_num = |k: &str| -> Result<f64, String> {
            match obj.get(k) {
                Some(Value::Num(n)) => Ok(*n),
                _ => Err(format!("entry missing numeric field '{k}'")),
            }
        };
        entries.push(Entry {
            group: get_str("group")?,
            bench: get_str("bench")?,
            min_ns: get_num("min_ns")?,
            // Optional: files predating the host stamp lack it.
            host: get_str("host").ok(),
        });
        p.skip_ws();
        match p.next() {
            Some(b',') => p.skip_ws(),
            Some(b']') => break,
            other => return Err(format!("expected ',' or ']', got {other:?}")),
        }
    }
    Ok(entries)
}

/// A parsed JSON scalar.
#[derive(Debug, Clone)]
enum Value {
    Str(String),
    Num(f64),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!("expected '{}', got {other:?}", want as char)),
        }
    }

    fn parse_object(&mut self) -> Result<BTreeMap<String, Value>, String> {
        self.skip_ws();
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(map);
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = match self.peek() {
                Some(b'"') => Value::Str(self.parse_string()?),
                Some(_) => Value::Num(self.parse_number()?),
                None => return Err("unexpected end of input in object".into()),
            };
            map.insert(key, value);
            self.skip_ws();
            match self.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
        Ok(map)
    }

    /// A string literal's bytes, unescaped and decoded as UTF-8.
    fn parse_string(&mut self) -> Result<String, String> {
        let start = self.pos;
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.next() {
                Some(b'"') => {
                    return String::from_utf8(out)
                        .map_err(|e| format!("string at byte {start} is not UTF-8: {e}"))
                }
                Some(b'\\') => out.push(match self.next() {
                    Some(b'"') => b'"',
                    Some(b'\\') => b'\\',
                    Some(b'n') => b'\n',
                    Some(b't') => b'\t',
                    other => return Err(format!("unsupported escape {other:?}")),
                }),
                Some(b) => out.push(b),
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn parse_number(&mut self) -> Result<f64, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stamp the helpers put on every entry: unit tests compare runs
    /// from one host unless they say otherwise.
    const HOST: &str = "2 x Test CPU, rustc 1.0.0";

    fn entry(group: &str, bench: &str, min_ns: f64) -> Entry {
        Entry {
            group: group.into(),
            bench: bench.into(),
            min_ns,
            host: Some(HOST.into()),
        }
    }

    fn on(host: Option<&str>, e: Entry) -> Entry {
        Entry {
            host: host.map(str::to_string),
            ..e
        }
    }

    #[test]
    fn parses_shim_schema() {
        let text = r#"[
  {"group": "render_kernels", "bench": "forward_full_frame", "min_ns": 1, "median_ns": 100, "mean_ns": 110, "samples": 10, "host": "2 x Test CPU, rustc 1.0.0", "commit": "abc1234"},
  {"group": "g2", "bench": "b/param", "min_ns": 2, "median_ns": 200, "mean_ns": 210, "samples": 5, "host": "2 x Test CPU, rustc 1.0.0", "commit": "abc1234"}
]
"#;
        let entries = parse_entries(text).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(
            entries[0],
            entry("render_kernels", "forward_full_frame", 1.0)
        );
        assert_eq!(entries[1], entry("g2", "b/param", 2.0));
    }

    /// An entry without `min_ns` (a file written before the shim recorded
    /// it) is refused, never gated on its median.
    #[test]
    fn parses_entries_without_min_ns() {
        let text = r#"[{"group": "g", "bench": "b", "median_ns": 100}]"#;
        let err = parse_entries(text).unwrap_err();
        assert_eq!(err, "entry missing numeric field 'min_ns'");
    }

    #[test]
    fn parses_empty_array() {
        assert!(parse_entries("[]").unwrap().is_empty());
        assert!(parse_entries(" [ ] ").unwrap().is_empty());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_entries("not json").is_err());
        assert!(parse_entries(r#"[{"group": 3}]"#).is_err());
    }

    /// Strings are decoded as UTF-8, not byte by byte: a CPU model or a
    /// bench name may carry multi-byte characters. Bytes that are not UTF-8
    /// are an error, never mojibake.
    #[test]
    fn parses_multibyte_strings() {
        let text = r#"[{"group": "µs", "bench": "a → b", "min_ns": 1, "host": "2 × CPU™"}]"#;
        let entries = parse_entries(text).unwrap();
        assert_eq!(entries[0].group, "µs");
        assert_eq!(entries[0].bench, "a → b");
        assert_eq!(entries[0].host.as_deref(), Some("2 × CPU™"));

        let mut bad = Parser {
            bytes: b"\"\xb5s\"",
            pos: 0,
        };
        let err = bad.parse_string().unwrap_err();
        assert!(err.contains("not UTF-8"), "{err}");
    }

    #[test]
    fn within_threshold_passes() {
        let base = vec![entry("g", "a", 100.0), entry("g", "b", 100.0)];
        let cur = vec![entry("g", "a", 110.0), entry("g", "b", 110.0)];
        let r = compare(&base, &cur, 0.25, 0.0);
        assert!(!r.failed, "{}", r.text);
        assert!(r.text.contains("ok"));
    }

    #[test]
    fn group_regression_fails() {
        let base = vec![entry("g", "a", 100.0), entry("g", "b", 100.0)];
        let cur = vec![entry("g", "a", 160.0), entry("g", "b", 160.0)];
        let r = compare(&base, &cur, 0.25, 0.0);
        assert!(r.failed, "{}", r.text);
        assert!(r.text.contains("REGRESSED"));
    }

    /// Two runs stamped with one host gate exactly as before the stamp
    /// existed: a regression fails, and the JSON says it gated.
    #[test]
    fn equal_host_stamps_gate() {
        let base = vec![entry("g", "a", 100.0)];
        let cur = vec![entry("g", "a", 160.0)];
        let r = compare(&base, &cur, 0.25, 0.0);
        assert!(r.gated && r.failed, "{}", r.text);
        assert!(r.text.contains(HOST), "{}", r.text);
        assert!(r.render_json(0.25, 0.0).contains("\"gated\": true"));
    }

    /// A baseline from another host — or one with no stamp — is a table to
    /// read, not a gate: the same regression reports, but does not fail.
    #[test]
    fn different_hosts_are_reported_not_gated() {
        let base = vec![entry("g", "a", 100.0)];
        for cur_host in [Some("8 x Other CPU, rustc 1.0.0"), None] {
            let cur = vec![on(cur_host, entry("g", "a", 160.0))];
            let r = compare(&base, &cur, 0.25, 0.0);
            assert!(!r.gated && !r.failed, "{}", r.text);
            assert!(r.text.contains("REGRESSED"), "{}", r.text);
            assert!(r.text.contains("not gated"), "{}", r.text);
            let json = r.render_json(0.25, 0.0);
            assert!(json.contains("\"gated\": false"), "{json}");
            assert!(json.contains("\"failed\": false"), "{json}");
        }
        // Entries from two hosts in one run stamp it with neither.
        let mixed = vec![
            entry("g", "a", 160.0),
            on(Some("other"), entry("g", "b", 1.0)),
        ];
        assert!(!compare(&base, &mixed, 0.25, 0.0).gated);
    }

    /// Several current files are several rounds: each bench is gated on
    /// its smallest minimum across them, whichever round produced it.
    #[test]
    fn rounds_gate_on_each_benchs_smaller_minimum() {
        let base = vec![entry("g", "a", 100.0), entry("g", "b", 100.0)];
        let round1 = vec![entry("g", "a", 200.0), entry("g", "b", 100.0)];
        let round2 = vec![entry("g", "a", 105.0), entry("g", "b", 200.0)];
        let folded = min_over(vec![round1.clone(), round2]);
        assert_eq!(folded, vec![entry("g", "a", 105.0), entry("g", "b", 100.0)]);
        let r = compare(&base, &folded, 0.25, 0.0);
        assert!(r.gated && !r.failed, "{}", r.text);
        // Either round alone regresses the group by half.
        assert!(compare(&base, &round1, 0.25, 0.0).failed);
        // Rounds from two hosts fold into an unstamped run.
        let elsewhere = vec![on(Some("other"), entry("g", "a", 1.0))];
        let mixed = min_over(vec![round1, elsewhere]);
        assert!(!compare(&base, &mixed, 0.25, 0.0).gated);
    }

    /// The committed baseline is what CI gates on: few groups, one host
    /// stamp, a minimum per entry, and it passes against itself.
    #[test]
    fn committed_baseline_is_stamped_and_gates_against_itself() {
        let file = parse_entries(include_str!("../../../../BENCH_RESULTS.json")).unwrap();
        let groups: std::collections::BTreeSet<&str> =
            file.iter().map(|e| e.group.as_str()).collect();
        assert!(groups.len() <= 10, "{groups:?}");
        assert!(host_of(&file).is_some(), "one host string on every entry");
        let r = compare(&file, &file, DEFAULT_MAX_REGRESSION, DEFAULT_NOISE_FLOOR_NS);
        assert!(r.gated && !r.failed, "{}", r.text);
    }

    #[test]
    fn one_noisy_bench_is_absorbed_by_the_group_sum() {
        // One microbench doubles (noise) but the group total stays within
        // the threshold because the heavyweight bench dominates the sum.
        let base = vec![entry("g", "micro", 10.0), entry("g", "heavy", 1000.0)];
        let cur = vec![entry("g", "micro", 20.0), entry("g", "heavy", 1000.0)];
        let r = compare(&base, &cur, 0.25, 0.0);
        assert!(!r.failed, "{}", r.text);
    }

    #[test]
    fn improvement_reported() {
        let base = vec![entry("g", "a", 1000.0)];
        let cur = vec![entry("g", "a", 500.0)];
        let r = compare(&base, &cur, 0.25, 0.0);
        assert!(!r.failed);
        assert!(r.text.contains("improved"));
    }

    #[test]
    fn new_and_missing_benches_do_not_gate() {
        let base = vec![entry("g", "a", 100.0), entry("old", "gone", 50.0)];
        let cur = vec![entry("g", "a", 100.0), entry("new", "fresh", 9999.0)];
        let r = compare(&base, &cur, 0.25, 0.0);
        assert!(!r.failed, "{}", r.text);
        assert!(r.text.contains("new/fresh"));
        assert!(r.text.contains("old/gone"));
    }

    /// A bench group that exists only in the current run (its baseline
    /// lands in the same PR) is reported with its total, marked
    /// informational, and never fails the gate — however heavy it is.
    #[test]
    fn new_group_is_informational_not_gated() {
        let base = vec![entry("g", "a", 100.0)];
        let cur = vec![
            entry("g", "a", 100.0),
            entry("large_scene_scaling", "sharded/60000", 5.0e6),
            entry("large_scene_scaling", "sharded/500000", 9.0e6),
        ];
        let r = compare(&base, &cur, 0.25, 0.0);
        assert!(!r.failed, "{}", r.text);
        assert!(
            r.text.contains("new (informational)"),
            "missing informational marker:\n{}",
            r.text
        );
        // The group's summed total appears in the table.
        assert!(r.text.contains("large_scene_scaling"));
        assert!(r.text.contains("14000000"), "summed total:\n{}", r.text);
        // Existing groups still gate as usual alongside a new group.
        let regressed = vec![entry("g", "a", 200.0), entry("new_grp", "x", 1.0)];
        let r2 = compare(&base, &regressed, 0.25, 0.0);
        assert!(r2.failed, "{}", r2.text);
    }

    /// The informational → gated lifecycle of a new bench group: in the PR
    /// that introduces it the group is absent from the committed baseline
    /// and only reported; as soon as a baseline refresh carries it (the PR
    /// 4 `tile_sort`/`tracking_iteration_steady_state` situation, flipped
    /// to gated in PR 5), the very same group fails the gate on a
    /// regression — no code change involved, the presence of baseline
    /// entries is the switch.
    #[test]
    fn new_group_transitions_from_informational_to_gated_once_baseline_exists() {
        let old_baseline = vec![entry("render_kernels", "forward", 100.0)];
        let first_run = vec![
            entry("render_kernels", "forward", 100.0),
            entry("tile_sort", "radix/dense", 500.0),
            entry("tracking_iteration_steady_state", "warm_arena", 900.0),
        ];
        // Introduction PR: the new groups are informational, never gated —
        // even at absurd cost.
        let r = compare(&old_baseline, &first_run, 0.25, 0.0);
        assert!(!r.failed, "{}", r.text);
        assert_eq!(r.text.matches("new (informational)").count(), 2);

        // The baseline refresh adopts the first run; the next cycle gates
        // the same groups: within threshold passes...
        let refreshed_baseline = first_run.clone();
        let ok_run = vec![
            entry("render_kernels", "forward", 100.0),
            entry("tile_sort", "radix/dense", 550.0),
            entry("tracking_iteration_steady_state", "warm_arena", 950.0),
        ];
        let r2 = compare(&refreshed_baseline, &ok_run, 0.25, 0.0);
        assert!(!r2.failed, "{}", r2.text);
        assert!(!r2.text.contains("new (informational)"), "{}", r2.text);

        // ...and a >25% regression in a freshly-adopted group now fails.
        let regressed_run = vec![
            entry("render_kernels", "forward", 100.0),
            entry("tile_sort", "radix/dense", 700.0),
            entry("tracking_iteration_steady_state", "warm_arena", 900.0),
        ];
        let r3 = compare(&refreshed_baseline, &regressed_run, 0.25, 0.0);
        assert!(r3.failed, "{}", r3.text);
        assert!(r3.text.contains("REGRESSED"), "{}", r3.text);
    }

    /// Renaming every bench inside an existing group must not let it slip
    /// out of the gate as "new": it gates on the whole-group totals.
    #[test]
    fn fully_renamed_group_still_gates() {
        let base = vec![
            entry("g", "size/1000", 100.0),
            entry("g", "size/2000", 100.0),
        ];
        // Renamed params and regressed 10x: must fail.
        let cur = vec![
            entry("g", "size/1024", 1000.0),
            entry("g", "size/2048", 1000.0),
        ];
        let r = compare(&base, &cur, 0.25, 0.0);
        assert!(r.failed, "{}", r.text);
        assert!(r.text.contains("renamed benches"), "{}", r.text);
        // Renamed but within threshold: passes, still labeled.
        let ok = vec![
            entry("g", "size/1024", 110.0),
            entry("g", "size/2048", 110.0),
        ];
        let r2 = compare(&base, &ok, 0.25, 0.0);
        assert!(!r2.failed, "{}", r2.text);
        assert!(r2.text.contains("ok (renamed benches)"), "{}", r2.text);
    }

    #[test]
    fn empty_baseline_passes() {
        let r = compare(&[], &[entry("g", "a", 1.0)], 0.25, 0.0);
        assert!(!r.failed);
    }

    /// min-of-N is the gated metric, read from the shim's schema beside a
    /// median it ignores: a doubled median with a stable minimum is
    /// scheduler noise, not a regression — and the converse (stable median,
    /// regressed minimum) is a real slowdown.
    #[test]
    fn min_of_n_is_gated_not_median() {
        let run = |median: u32, min: u32| {
            let text = format!(
                r#"[{{"group": "g", "bench": "a", "median_ns": {median}, "min_ns": {min}, "host": "{HOST}"}}]"#
            );
            parse_entries(&text).unwrap()
        };
        let base = run(100, 90);
        // Median doubled (noisy run) but min within threshold: passes.
        let r = compare(&base, &run(200, 95), 0.25, 0.0);
        assert!(!r.failed, "{}", r.text);
        // Median flat but min regressed 2x: fails.
        let r2 = compare(&base, &run(100, 180), 0.25, 0.0);
        assert!(r2.failed, "{}", r2.text);
    }

    /// The absolute noise floor keeps tiny groups from flaking the gate:
    /// +60% on a 100ns group is jitter, +60% on a millisecond group is a
    /// regression — same percentage, different verdicts.
    #[test]
    fn noise_floor_absorbs_small_absolute_regressions() {
        let base = vec![entry("tiny", "a", 100.0), entry("big", "a", 1.0e6)];
        let cur = vec![entry("tiny", "a", 160.0), entry("big", "a", 1.0e6)];
        let r = compare(&base, &cur, 0.25, 100_000.0);
        assert!(!r.failed, "{}", r.text);
        assert!(r.text.contains("ok (within noise floor)"), "{}", r.text);

        // The same +60% on the big group exceeds the floor and fails.
        let cur2 = vec![entry("tiny", "a", 100.0), entry("big", "a", 1.6e6)];
        let r2 = compare(&base, &cur2, 0.25, 100_000.0);
        assert!(r2.failed, "{}", r2.text);
        assert!(r2.text.contains("REGRESSED"), "{}", r2.text);
    }

    /// `--json` emits the same verdict table machine-readably: one object
    /// per group with baseline/current/delta/status, the not-gated bench
    /// lists, the thresholds, whether it gated and the overall verdict — parseable
    /// by the same minimal reader vocabulary the comparator consumes.
    #[test]
    fn json_report_carries_the_full_verdict_table() {
        let base = vec![entry("g", "a", 100.0), entry("old", "gone", 50.0)];
        let cur = vec![
            entry("g", "a", 160.0),
            entry("fresh_group", "b", 999.0),
            entry("g", "new_bench", 1.0),
        ];
        let r = compare(&base, &cur, 0.25, 0.0);
        assert!(r.failed, "{}", r.text);
        let json = r.render_json(0.25, 0.0);
        for needle in [
            "\"max_regression_pct\": 25.0",
            "\"noise_floor_ns\": 0.0",
            "\"gated\": true",
            "\"failed\": true",
            "\"group\": \"g\"",
            "\"status\": \"REGRESSED\"",
            "\"group\": \"fresh_group\"",
            "\"baseline_ns\": null",
            "\"status\": \"new (informational)\"",
            "\"new_benches\": [\"fresh_group/b\", \"g/new_bench\"]",
            "\"missing_benches\": [\"old/gone\"]",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Structurally balanced (no raw-string escapes to trip on here).
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}') && balance('[', ']'), "{json}");
    }

    /// The floor also applies to the renamed-benches whole-group path.
    #[test]
    fn noise_floor_applies_to_renamed_groups() {
        let base = vec![entry("g", "size/1000", 100.0)];
        let cur = vec![entry("g", "size/1024", 160.0)];
        let r = compare(&base, &cur, 0.25, 100_000.0);
        assert!(!r.failed, "{}", r.text);
        assert!(
            r.text.contains("ok (within noise floor, renamed benches)"),
            "{}",
            r.text
        );
    }
}
