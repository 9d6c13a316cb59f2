//! Facts about the host and the build, printed with every run.

use std::fs;
use std::path::Path;

/// `rustc --version` of the compiler that built the benchmark.
pub const RUSTC: &str = env!("PERFBENCH_RUSTC");

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the benchmark was built from, or `none` when the sources
/// are not a git work tree.
pub fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&git.join("HEAD")) else {
        return "none".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "none".to_string())
}

/// Moves the calling thread round-robin over the CPUs it may run on.
///
/// A shared host loads its cores unequally: on a two-core guest one core
/// measured 50 % slower than the other for seconds at a time. Left to the
/// scheduler, a whole run can land on the slow core. Spreading the
/// repetitions over every allowed core, one at a time, lets the fastest
/// repetition come from the least-loaded core on every run. The work
/// stays on one thread. The original CPU set is restored on drop.
#[derive(Debug)]
pub struct Cpus {
    allowed: Vec<usize>,
    next: usize,
}

impl Cpus {
    /// The CPUs the calling thread may run on now.
    pub fn new() -> Cpus {
        Cpus {
            allowed: affinity::allowed(),
            next: 0,
        }
    }

    /// The allowed CPUs, in order.
    pub fn allowed(&self) -> &[usize] {
        &self.allowed
    }

    /// Pins the calling thread to the next allowed CPU in turn.
    pub fn rotate(&mut self) {
        if self.allowed.len() > 1 {
            affinity::set(&[self.allowed[self.next % self.allowed.len()]]);
            self.next += 1;
        }
    }
}

impl Default for Cpus {
    fn default() -> Self {
        Cpus::new()
    }
}

impl Drop for Cpus {
    fn drop(&mut self) {
        if self.allowed.len() > 1 {
            affinity::set(&self.allowed);
        }
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    /// Words in glibc's `cpu_set_t` (1024 CPUs).
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
            .collect()
    }

    /// Best effort: a CPU that refuses the thread leaves it where it was.
    pub fn set(cpus: &[usize]) {
        let mut mask = [0u64; WORDS];
        for &c in cpus.iter().filter(|&&c| c < WORDS * 64) {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `mask` is a readable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn set(_: &[usize]) {}
}

/// Peak resident set size of this process so far, MB, from the kernel's
/// per-process `VmHWM` (0 where the platform does not report it).
/// `getrusage` is no substitute: on Linux its peak survives `exec`, so it
/// would report the launching process (`cargo run`) when that is larger.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
