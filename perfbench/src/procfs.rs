//! Readers for the kernel's per-process and per-thread counters.
//!
//! CPU time comes from `stat` (user and system time in clock ticks)
//! and context switches from `status`. Socket syscalls are not read
//! from `/proc/self/io`: its `syscr`/`syscw` count `read`/`write`
//! only, and std's sockets call `recv`/`send`.

use std::collections::BTreeMap;
use std::fs;

/// Clock ticks per second of `stat`'s time fields (`USER_HZ`, 100 on
/// every Linux architecture std supports).
pub const TICKS_PER_S: f64 = 100.0;

/// User and system ticks from a `stat` line, whose second field (the
/// thread name) may itself hold spaces or parentheses.
fn parse_stat(line: &str) -> Option<(String, u64, u64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let name = line.get(open + 1..close)?.to_string();
    // Fields after the name start at field 3 (state); utime and stime
    // are fields 14 and 15.
    let mut rest = line.get(close + 1..)?.split_whitespace().skip(11);
    let utime = rest.next()?.parse().ok()?;
    let stime = rest.next()?.parse().ok()?;
    Some((name, utime, stime))
}

/// Process-wide user + system ticks, all threads included.
pub fn process_ticks() -> u64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .map_or(0, |(_, u, s)| u + s)
}

/// One thread's counters.
#[derive(Clone, Debug, Default)]
pub struct ThreadStat {
    pub name: String,
    pub utime: u64,
    pub stime: u64,
    pub ctx_switches: u64,
}

/// Every live thread of this process, by thread id.
pub fn threads() -> BTreeMap<u32, ThreadStat> {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        let Some((name, utime, stime)) = fs::read_to_string(path.join("stat"))
            .ok()
            .and_then(|s| parse_stat(&s))
        else {
            continue;
        };
        let ctx_switches = fs::read_to_string(path.join("status"))
            .map(|s| {
                s.lines()
                    .filter(|l| l.contains("ctxt_switches:"))
                    .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
                    .sum()
            })
            .unwrap_or(0);
        out.insert(
            tid,
            ThreadStat {
                name,
                utime,
                stime,
                ctx_switches,
            },
        );
    }
    out
}

/// Counters gained between two snapshots, summed over the threads
/// that `pick` selects. A thread born in between counts from zero; one
/// that ended in between is lost.
pub fn thread_delta(
    before: &BTreeMap<u32, ThreadStat>,
    after: &BTreeMap<u32, ThreadStat>,
    pick: impl Fn(u32, &ThreadStat) -> bool,
) -> ThreadStat {
    let mut sum = ThreadStat::default();
    for (tid, a) in after.iter().filter(|(tid, a)| pick(**tid, a)) {
        let b = before.get(tid).cloned().unwrap_or_default();
        sum.utime += a.utime.saturating_sub(b.utime);
        sum.stime += a.stime.saturating_sub(b.stime);
        sum.ctx_switches += a.ctx_switches.saturating_sub(b.ctx_switches);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_in_name() {
        let line = "42 (a (b) c) S 1 2 3 4 5 6 7 8 9 10 111 222 0 0 20";
        assert_eq!(parse_stat(line), Some(("a (b) c".into(), 111, 222)));
    }
}
