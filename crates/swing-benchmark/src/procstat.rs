//! Process CPU time and peak memory, read from `/proc/self`.

use std::time::Duration;

/// Kernel clock ticks per second. `/proc/self/stat` reports in
/// `USER_HZ`, which Linux fixes at 100 for every architecture's ABI.
const USER_HZ: u64 = 100;

/// utime + stime of this process so far.
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_cpu_ticks(&stat).map_or(Duration::ZERO, |t| {
        Duration::from_micros(t * 1_000_000 / USER_HZ)
    })
}

/// utime + stime in ticks from a `/proc/<pid>/stat` line. The command
/// name (field 2) may itself contain spaces and parentheses, so fields
/// are counted from the last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_hostile_command_name() {
        let line = "1234 (swing ) bench) S 1 1 1 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 9 0 1 2 3";
        assert_eq!(parse_cpu_ticks(line), Some(300));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn parses_vm_hwm() {
        assert_eq!(
            parse_vm_hwm_kb("Name:\tx\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n"),
            Some(20480)
        );
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mb() > 0.5);
        let a = cpu_time();
        let t0 = std::time::Instant::now();
        let mut x = 0u64;
        while t0.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_time() >= a + Duration::from_millis(30));
    }
}
