//! Process-level measurements read from the operating system: CPU time,
//! peak resident memory, and the child processes a job left behind.

use std::fs;
use std::path::Path;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads /proc and getrusage(2) and runs on 64-bit Linux only");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn rusage_seconds(who: i32) -> f64 {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable value laid out as the 64-bit
    // Linux `struct rusage`, the only memory getrusage writes.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage rejects only an invalid `who`");
    let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    tv(&usage.utime) + tv(&usage.stime)
}

/// User plus system CPU seconds of this process and of every child it has
/// reaped (the forked workers of the process backend). The same sum as
/// utime+stime+cutime+cstime in `/proc/self/stat`, at microsecond rather
/// than clock-tick resolution, which a 70 ms job needs.
pub fn cpu_seconds() -> f64 {
    rusage_seconds(RUSAGE_SELF) + rusage_seconds(RUSAGE_CHILDREN)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kib / 1024.0
}

/// Child processes of this process that still exist: running workers and
/// unreaped zombies alike. Either after a job means it leaked a worker.
pub fn child_processes() -> usize {
    let me = std::process::id().to_string();
    let Ok(entries) = fs::read_dir("/proc") else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| {
            e.file_name()
                .to_string_lossy()
                .bytes()
                .all(|b| b.is_ascii_digit())
        })
        .filter_map(|e| fs::read_to_string(e.path().join("stat")).ok())
        .filter(|stat| parent_pid(stat) == Some(me.as_str()))
        .count()
}

/// The parent pid field of a `/proc/<pid>/stat` line. The command name
/// sits in parentheses and may itself contain spaces or parentheses, so
/// fields are counted from the last `)`.
fn parent_pid(stat: &str) -> Option<&str> {
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(1)
}

/// Ticks the hypervisor gave to other guests while this machine's CPUs
/// wanted to run (`steal` in `/proc/stat`), and all CPU ticks, since boot.
pub fn steal_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Entries in `dir` (0 when it does not exist).
pub fn dir_entries(dir: &Path) -> usize {
    fs::read_dir(dir).map(|d| d.count()).unwrap_or(0)
}

/// Usable CPU count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the working tree was checked out at, read from `.git`
/// without running git. A plain source checkout has no `.git`.
pub fn git_rev() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (no .git in the working directory)".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference} unresolved)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parent_pid_skips_command_names_with_spaces_and_parens() {
        assert_eq!(parent_pid("12 (a b) c) S 7 12 12 0"), Some("7"));
        assert_eq!(parent_pid("12 (worker) Z 40 1"), Some("40"));
        assert_eq!(parent_pid("garbage"), None);
    }

    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
