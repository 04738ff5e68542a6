//! `/proc` readers for the cost metrics the benchmark takes from the
//! operating system: process CPU time, peak resident set, scheduler
//! run-queue delay of the generator thread, and the load average.
//!
//! Each reader is a thin wrapper over a pure parser so the parsers are
//! unit-tested on captured text.

use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. `USER_HZ`
/// is 100 on every Linux ABI; there is no libc here to ask `sysconf`.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    // The command name (field 2) is parenthesised and may itself contain
    // spaces or parentheses; everything after the *last* ')' is regular.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

/// Peak resident set in MB from the text of `/proc/<pid>/status`.
pub fn parse_status_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Nanoseconds a thread spent runnable but waiting for a CPU, the second
/// field of `/proc/thread-self/schedstat`.
pub fn parse_schedstat_wait_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().nth(1)?.parse().ok()
}

/// One-minute load average from the text of `/proc/loadavg`.
pub fn parse_loadavg_1m(loadavg: &str) -> Option<f64> {
    loadavg.split_whitespace().next()?.parse().ok()
}

/// `(stolen, total)` CPU ticks of the whole machine from the text of
/// `/proc/stat`: time the hypervisor ran something else while this
/// guest had runnable work, and all accounted time.
pub fn parse_stat_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // user nice system idle iowait irq softirq steal (guest times are
    // already included in user).
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

/// User + system CPU seconds consumed by this process so far.
pub fn process_cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_seconds(&s))
        .unwrap_or(0.0)
}

/// Peak resident set of this process, MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_vm_hwm_mb(&s))
        .unwrap_or(0.0)
}

/// Run-queue delay of the calling thread so far, nanoseconds.
pub fn thread_runqueue_wait_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| parse_schedstat_wait_ns(&s))
        .unwrap_or(0)
}

/// `(stolen, total)` machine CPU ticks so far; zeros when unreadable.
pub fn machine_steal_ticks() -> (u64, u64) {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_stat_steal(&s))
        .unwrap_or((0, 0))
}

/// One-minute load average of the machine.
pub fn loadavg_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| parse_loadavg_1m(&s))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_survives_hostile_command_names() {
        let stat = "4242 (bench (v2) x) S 1 4242 4242 0 -1 4194304 1200 0 0 0 \
                    1523 277 0 0 20 0 5 0 99999 123456789 2000 18446744073709551615";
        assert_eq!(parse_stat_cpu_seconds(stat), Some(18.0));
        assert_eq!(parse_stat_cpu_seconds("garbage"), None);
        assert_eq!(parse_stat_cpu_seconds("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_vm_hwm() {
        let status = "Name:\tbench\nVmPeak:\t  900000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_status_vm_hwm_mb(status), Some(200.0));
        assert_eq!(parse_status_vm_hwm_mb("Name:\tbench\n"), None);
    }

    #[test]
    fn schedstat_and_loadavg() {
        assert_eq!(parse_schedstat_wait_ns("123456 7890 42\n"), Some(7890));
        assert_eq!(parse_schedstat_wait_ns(""), None);
        assert_eq!(parse_loadavg_1m("0.52 0.40 0.31 2/345 6789\n"), Some(0.52));
        assert_eq!(parse_loadavg_1m("x"), None);
    }

    #[test]
    fn machine_steal() {
        let stat = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 50 0 25 400 5 0 2 17 0 0\n";
        assert_eq!(parse_stat_steal(stat), Some((35, 1000)));
        assert_eq!(parse_stat_steal("cpu  1 2 3\n"), None);
        assert_eq!(parse_stat_steal("intr 5\n"), None);
    }

    #[test]
    fn live_readers_return_something_on_linux() {
        assert!(peak_rss_mb() > 0.0);
        assert!(loadavg_1m() >= 0.0);
        let _ = (process_cpu_seconds(), thread_runqueue_wait_ns());
    }
}
