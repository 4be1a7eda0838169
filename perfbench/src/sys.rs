//! Process-level measurements: the wall clock (read through
//! `secmed-obs`, the crate the determinism lint sanctions for clock
//! reads), process CPU time, and peak resident memory from `/proc`.

use std::fs;

/// Monotonic nanoseconds (the trace clock of `secmed-obs`).
pub fn now_ns() -> u64 {
    secmed_obs::trace::now_ns()
}

/// Milliseconds elapsed since `start_ns`.
pub fn ms_since(start_ns: u64) -> f64 {
    now_ns().saturating_sub(start_ns) as f64 / 1e6
}

/// Linux reports `/proc/<pid>/stat` times in `USER_HZ` ticks, which the
/// kernel fixes at 100 per second on every mainstream architecture.
const USER_HZ: u64 = 100;

/// User plus system CPU time of the whole process, threads that have
/// already exited included, in nanoseconds (10 ms resolution).
pub fn process_cpu_ns() -> u64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are space-separated.  utime and stime are
    // fields 14 and 15, i.e. the 12th and 13th after the parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) * (1_000_000_000 / USER_HZ),
        _ => 0,
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Logical CPUs the host reports (`/proc/cpuinfo`; 0 if unreadable),
/// printed with every run because the pool-parallel workloads depend on
/// it.
pub fn host_cpus() -> usize {
    fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q`-quantile of `v` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}
