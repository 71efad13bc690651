//! Host stamp carried by every result and trace file, so numbers from
//! different machines are never compared by accident.

use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_string()
    })
}

fn cpuinfo() -> (usize, String) {
    let text = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cores = text.lines().filter(|l| l.starts_with("processor")).count();
    let model = text
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim)
        .to_string();
    (cores, model)
}

/// Escapes a string for a JSON document.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host stamp as a JSON object: core counts, CPU model, compiler,
/// commit (`unknown` outside a git checkout) and build profile.
pub fn stamp_json() -> String {
    let (nproc, cpu) = cpuinfo();
    let parallelism = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\": {nproc}, \"available_parallelism\": {parallelism}, \"cpu\": {}, \
         \"rustc\": {}, \"commit\": {}, \"profile\": \"{profile}\"}}",
        json_string(&cpu),
        json_string(&rustc),
        json_string(&commit),
    )
}
