//! Host-side measurements: process CPU time and peak memory from
//! `/proc`, a fixed reference kernel that shows slow host phases, and the
//! host facts recorded with every result.

use std::hint::black_box;
use std::time::Instant;

use crate::json::Json;
use crate::stats::median;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, 100
/// on every Linux ABI this runs on).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process (all threads, live and
/// exited), or 0 where `/proc` is unavailable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name, which may hold spaces:
    // state is field 3, utime 14 and stime 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set (`VmHWM`) of this process in MiB, or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Milliseconds for a fixed CPU + memory kernel (a dependent walk over a
/// 16 MiB table), median of three. It does the same work on every run,
/// so a slow host phase shows as a higher value next to the results.
pub fn ref_ms() -> f64 {
    const WORDS: usize = 1 << 21;
    let mut table: Vec<u64> = Vec::with_capacity(WORDS);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..WORDS {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        table.push(x >> 11);
    }
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut i = 0usize;
            let mut acc = 0u64;
            for _ in 0..400_000 {
                let v = table[i];
                acc = acc.wrapping_add(v).rotate_left(7);
                i = (v ^ acc) as usize % WORDS;
            }
            black_box(acc);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path).map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
}

/// The checkout's git revision, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn git_rev() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let head = read_trimmed(&format!("{git}/HEAD"));
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    let loose = read_trimmed(&format!("{git}/{reference}"));
    if loose != "unknown" {
        return loose;
    }
    std::fs::read_to_string(format!("{git}/packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host facts recorded with every result.
pub fn facts(workers: usize, ref_ms: f64) -> Json {
    Json::obj([
        ("ref_ms", Json::from(ref_ms)),
        ("workers", Json::from(workers)),
        ("nproc", Json::from(bench::hardware_threads())),
        (
            "kernel",
            Json::from(read_trimmed("/proc/sys/kernel/osrelease")),
        ),
        (
            "overcommit_memory",
            Json::from(read_trimmed("/proc/sys/vm/overcommit_memory")),
        ),
        ("git_rev", Json::from(git_rev())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let t = Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() >= before);
        assert!(peak_rss_mib() > 0.0);
        assert!(ref_ms() > 0.0);
        let facts = facts(2, 1.0);
        assert!(facts.get("git_rev").and_then(Json::as_str).is_some());
    }
}
