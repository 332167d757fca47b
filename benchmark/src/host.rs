//! What the benchmark reads from the host: core count, CPU and cache
//! description, peak RSS, and a copy-bandwidth measurement.

use crate::json::Json;
use crate::stats::median;
use std::process::Command;
use std::time::Instant;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process in MB (decimal), from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Each array of the copy measurement: 16x the 4 MiB per-core L2. The
/// 260 MiB L3 of this host is shared with other guests and cannot be
/// exceeded four-fold within the run-time budget, so the figure is
/// "L2-exceeding copy bandwidth", stated with both sizes in the README.
pub const COPY_BYTES: usize = 64 << 20;

/// Single-threaded copy bandwidth in GB/s (bytes read + bytes written per
/// second), median of `reps` copies between two [`COPY_BYTES`] arrays.
pub fn copy_gb_s(reps: usize) -> f64 {
    let n = COPY_BYTES / 8;
    let src = vec![1.0f64; n];
    let mut dst = vec![0.0f64; n];
    let mut rates = Vec::with_capacity(reps);
    // One untimed copy faults the destination pages in.
    for timed in std::iter::once(false).chain(std::iter::repeat_n(true, reps)) {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        if timed {
            rates.push(2.0 * COPY_BYTES as f64 / t.elapsed().as_secs_f64() / 1e9);
        }
    }
    median(&rates)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cache_size(index: usize) -> Option<String> {
    let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
    let level = std::fs::read_to_string(format!("{dir}/level")).ok()?;
    let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
    Some(format!("L{} {}", level.trim(), size.trim()))
}

/// Where the numbers came from.
pub fn provenance() -> Vec<(String, Json)> {
    let unknown = || "unknown".to_string();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let caches: Vec<String> = (0..6).filter_map(cache_size).collect();
    vec![
        (
            "git_commit".into(),
            command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(unknown)
                .into(),
        ),
        (
            "rustc".into(),
            command_line("rustc", &["--version"])
                .unwrap_or_else(unknown)
                .into(),
        ),
        ("nproc".into(), Json::Num(nproc() as f64)),
        ("cpu_model".into(), cpu.into()),
        ("caches".into(), caches.join(", ").into()),
        ("copy_array_bytes".into(), Json::Num(COPY_BYTES as f64)),
    ]
}

/// Thread id of the calling thread, from `/proc/thread-self`.
fn current_tid() -> Option<String> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    Some(link.file_name()?.to_str()?.to_string())
}

/// Threads of this process whose name starts with `prefix`, as
/// `(name, tid)`.
fn threads_named(prefix: &str) -> Vec<(String, String)> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter_map(|t| {
            let name = std::fs::read_to_string(t.path().join("comm")).ok()?;
            let name = name.trim();
            name.starts_with(prefix).then(|| {
                (
                    name.to_string(),
                    t.file_name().to_string_lossy().into_owned(),
                )
            })
        })
        .collect()
}

fn pin_tid(tid: &str, cpu: usize) -> bool {
    Command::new("taskset")
        .args(["-p", "-c", &cpu.to_string(), tid])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Pin the calling thread to `cpu`. The workloads run exactly one
/// software thread per core; left to the scheduler, two threads that
/// wake each other are at times stacked on one core, which on this host
/// moves an iteration of `mgcfd-threads` between 35 ms and 120 ms.
pub fn pin_current_thread(cpu: usize) -> bool {
    current_tid().is_some_and(|tid| pin_tid(&tid, cpu % nproc()))
}

/// Pin the runtime's pool workers (threads named `op2-worker-<w>`) to
/// core `w` each; returns how many were pinned.
pub fn pin_pool_workers() -> usize {
    threads_named("op2-worker-")
        .iter()
        .filter(|(name, tid)| {
            name["op2-worker-".len()..]
                .parse::<usize>()
                .is_ok_and(|w| pin_tid(tid, w % nproc()))
        })
        .count()
}
