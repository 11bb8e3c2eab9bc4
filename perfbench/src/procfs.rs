//! Resource counters of a child process, read from `/proc/<pid>/`.

use std::io;

/// Kernel ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed at 100
/// by the Linux user ABI).
const USER_HZ: f64 = 100.0;

/// One reading of a process's counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcSample {
    /// User plus system CPU time, seconds.
    pub cpu_s: f64,
    /// Bytes passed to `write`-family syscalls (files and sockets).
    pub wchar: u64,
    /// Peak resident set size (`VmHWM`), KiB.
    pub hwm_kb: u64,
}

/// Read `pid`'s counters.
pub fn sample(pid: u32) -> io::Result<ProcSample> {
    let read = |file: &str| std::fs::read_to_string(format!("/proc/{pid}/{file}"));
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("{what} of {pid}"));
    let (utime, stime) = parse_stat_cpu(&read("stat")?).ok_or_else(|| bad("stat"))?;
    Ok(ProcSample {
        cpu_s: (utime + stime) as f64 / USER_HZ,
        wchar: parse_io_wchar(&read("io")?).ok_or_else(|| bad("io"))?,
        hwm_kb: parse_status_kb(&read("status")?, "VmHWM").ok_or_else(|| bad("status"))?,
    })
}

/// `(utime, stime)` in ticks from a `/proc/<pid>/stat` line. The command
/// name may contain spaces and parentheses, so fields are counted from
/// the last `)`: the state is field 3, utime field 14, stime field 15.
pub fn parse_stat_cpu(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// The `wchar:` counter of `/proc/<pid>/io`.
pub fn parse_io_wchar(io: &str) -> Option<u64> {
    io.lines()
        .find_map(|l| l.strip_prefix("wchar:"))
        .and_then(|v| v.trim().parse().ok())
}

/// A `Key:   <n> kB` entry of `/proc/<pid>/status`, in KiB.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|l| {
        let v = l.strip_prefix(key)?.strip_prefix(':')?;
        v.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_counts_fields_after_the_last_paren() {
        let stat = "4242 (srbsg (x) srv) S 1 4242 4242 0 -1 4194560 512 0 0 0 \
                    731 268 0 0 20 0 6 0 1000 123456 789 18446744073709551615";
        assert_eq!(parse_stat_cpu(stat), Some((731, 268)));
        assert_eq!(parse_stat_cpu("4242 (x) S 1"), None);
    }

    #[test]
    fn io_wchar() {
        let io = "rchar: 12\nwchar: 1048576\nsyscr: 1\nsyscw: 2\n";
        assert_eq!(parse_io_wchar(io), Some(1_048_576));
        assert_eq!(parse_io_wchar("rchar: 12\n"), None);
    }

    #[test]
    fn status_vmhwm_not_vmrss() {
        let status =
            "Name:\tsrbsg-server\nVmPeak:\t  90000 kB\nVmHWM:\t   15360 kB\nVmRSS:\t   9000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(15_360));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(9_000));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn sample_reads_this_process() {
        let s = sample(std::process::id()).expect("own /proc entry");
        assert!(s.hwm_kb > 0);
    }
}
