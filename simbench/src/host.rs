//! What the host says about the process, and the stamp every result
//! carries so that numbers from different hosts, budgets or revisions are
//! never compared by mistake.

use std::path::Path;

/// The repository the benchmark was built from.
const REPO: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

/// Process user+system CPU seconds so far, all threads included; zero off
/// 64-bit Linux.
pub fn process_cpu_s() -> f64 {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// The calling thread's user+system CPU seconds so far; zero off 64-bit
/// Linux.
pub fn thread_cpu_s() -> f64 {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_clock(id: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(id: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec; the C library the
    // standard library links on Linux provides `clock_gettime`.
    if unsafe { clock_gettime(id, &mut ts) } != 0 {
        return 0.0;
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_clock(_id: i32) -> f64 {
    0.0
}

/// Peak resident memory of the process in MB (`VmHWM`); zero off Linux.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads a parallel workload uses: the host's core count.
pub fn nproc() -> usize {
    burst_sim::default_jobs()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` without running git; `none`
/// in a tree that is not a git checkout.
fn git_rev() -> String {
    let git = Path::new(REPO).join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let rev = read(&git.join("HEAD")).and_then(|head| match head.strip_prefix("ref: ") {
        None => Some(head),
        Some(r) => read(&git.join(r)).or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(r).map(|h| h.trim().to_string()))
        }),
    });
    rev.unwrap_or_else(|| "none".to_string())
}

/// The stamp line: host, parallelism, budget, seed and revision.
pub fn stamp(workload: &str, jobs: usize, instructions: u64, seed: u64, trace: bool) -> String {
    format!(
        "stamp workload={workload} cpu_model=\"{}\" nproc={} jobs={jobs} instructions={instructions} \
         seed={seed} trace={} git_rev={}",
        cpu_model(),
        nproc(),
        u8::from(trace),
        git_rev()
    )
}
