//! Process accounting from the operating system: CPU time and peak memory
//! via `getrusage(2)`, I/O counters from `/proc/self/io`, and the host
//! facts the report stamps (CPU count, filesystem type).

use std::path::Path;

/// `struct rusage` as laid out by Linux on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;
const RUSAGE_THREAD: i32 = 1;

fn rusage(who: i32) -> RUsage {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a live, writable value with the layout of the
    // platform's `struct rusage`, and `who` is one of the three selectors
    // getrusage accepts; the call writes only into `usage`.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    usage
}

fn cpu_ms(u: &RUsage) -> f64 {
    let us = (u.utime[0] + u.stime[0]) as f64 * 1e6 + (u.utime[1] + u.stime[1]) as f64;
    us / 1e3
}

/// CPU time of every thread of this process, ms.
pub fn process_cpu_ms() -> f64 {
    cpu_ms(&rusage(RUSAGE_SELF))
}

/// CPU time of the calling thread, ms.
pub fn thread_cpu_ms() -> f64 {
    cpu_ms(&rusage(RUSAGE_THREAD))
}

/// CPU time of every child this process has waited for, ms.
pub fn children_cpu_ms() -> f64 {
    cpu_ms(&rusage(RUSAGE_CHILDREN))
}

/// Peak resident set of the largest child waited for so far, MB.
pub fn children_peak_rss_mb() -> f64 {
    rusage(RUSAGE_CHILDREN).maxrss_kb as f64 / 1024.0
}

/// This process's peak resident set (`VmHWM`), MB.
pub fn self_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `/proc/self/io` counters the store workload reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct Io {
    /// Bytes passed to `read`-family calls.
    pub rchar: u64,
    /// Bytes passed to `write`-family calls.
    pub wchar: u64,
    /// Number of `write`-family calls.
    pub syscw: u64,
}

pub fn io() -> Io {
    let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    let field = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    };
    Io {
        rchar: field("rchar:"),
        wchar: field("wchar:"),
        syscw: field("syscw:"),
    }
}

impl std::ops::Sub for Io {
    type Output = Io;
    fn sub(self, rhs: Io) -> Io {
        Io {
            rchar: self.rchar.saturating_sub(rhs.rchar),
            wchar: self.wchar.saturating_sub(rhs.wchar),
            syscw: self.syscw.saturating_sub(rhs.syscw),
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Filesystem type of the mount holding `dir` (longest matching mount
/// point in `/proc/mounts`).
pub fn fs_type(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// FNV-1a digest of the source tree the benchmark measures: the manifests
/// and every file under `src/`, `crates/` and `perfbench/src/`, in path
/// order. Stands in for a commit id, since a checkout may not be a git
/// repository.
pub fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![
        "Cargo.toml".into(),
        "Cargo.lock".into(),
        "perfbench/Cargo.toml".into(),
    ];
    for dir in ["src", "crates", "perfbench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("fnv1a:{h:016x}")
}
