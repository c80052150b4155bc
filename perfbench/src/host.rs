//! Process and host counters read from procfs: CPU time, minor faults,
//! run-queue wait, host steal, and peak resident set size.
//!
//! These are the noise diagnostics printed with every run: a run slowed
//! by contention shows CPU time close to wall time with a slower result,
//! a run slowed by scheduling shows run-queue wait, and a regression in
//! the program shows neither.

use std::collections::BTreeMap;
use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Clock ticks per second of the `/proc/*/stat` time fields (`USER_HZ`,
/// 100 on every Linux ABI).
const TICKS_PER_S: f64 = 100.0;

/// Process-wide counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcCounters {
    /// User + system CPU ticks of every thread, live or exited.
    cpu_ticks: u64,
    /// Minor page faults of every thread, live or exited.
    minor_faults: u64,
    /// Host-wide steal ticks from `/proc/stat`.
    steal_ticks: u64,
}

impl ProcCounters {
    /// Read the counters now; zeros where procfs is unavailable.
    pub fn now() -> Self {
        let (cpu_ticks, minor_faults) = self_stat().unwrap_or((0, 0));
        Self {
            cpu_ticks,
            minor_faults,
            steal_ticks: host_steal().unwrap_or(0),
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &ProcCounters) -> ProcDelta {
        ProcDelta {
            cpu_s: self.cpu_ticks.saturating_sub(earlier.cpu_ticks) as f64 / TICKS_PER_S,
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
            steal_ticks: self.steal_ticks.saturating_sub(earlier.steal_ticks),
        }
    }
}

/// Counter differences over a measured interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcDelta {
    /// CPU seconds used by the process.
    pub cpu_s: f64,
    /// Minor page faults taken by the process.
    pub minor_faults: u64,
    /// Host steal, in clock ticks of 10 ms.
    pub steal_ticks: u64,
}

/// `(utime + stime, minflt)` of this process from `/proc/self/stat`.
fn self_stat() -> Option<(u64, u64)> {
    let text = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &text[text.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state): minflt is field 10, utime 14,
    // stime 15 (proc(5)).
    let field = |n: usize| f.get(n - 3)?.parse::<u64>().ok();
    Some((field(14)? + field(15)?, field(10)?))
}

/// Host steal ticks: the eighth value of the aggregate `cpu` line.
fn host_steal() -> Option<u64> {
    let text = fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().next()?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run-queue wait of one thread in nanoseconds, the second field of its
/// `schedstat`.
fn task_wait_ns(path: &std::path::Path) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    text.split_whitespace().nth(1)?.parse().ok()
}

/// Latest run-queue wait seen per thread id.
type WaitTable = BTreeMap<String, u64>;

fn sample_tasks(table: &Mutex<WaitTable>) {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return;
    };
    let mut t = table.lock().unwrap_or_else(|e| e.into_inner());
    for entry in dir.flatten() {
        if let Some(ns) = task_wait_ns(&entry.path().join("schedstat")) {
            t.insert(entry.file_name().to_string_lossy().into_owned(), ns);
        }
    }
}

/// Sums the run-queue wait of every thread the process runs, including
/// the short-lived pool threads a batch starts and joins: a background
/// thread samples `/proc/self/task/*/schedstat` every 20 ms and
/// keeps each thread's latest value. A thread's last < 20 ms before it
/// exits are missed.
pub struct RunqSampler {
    table: Arc<Mutex<WaitTable>>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl RunqSampler {
    /// Start sampling.
    pub fn start() -> Self {
        let table = Arc::new(Mutex::new(WaitTable::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let (table, stop) = (table.clone(), stop.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    sample_tasks(&table);
                    std::thread::sleep(Duration::from_millis(20));
                }
            })
        };
        Self {
            table,
            stop,
            handle: Some(handle),
        }
    }

    /// Stop sampling, join the sampler, and return the summed run-queue
    /// wait in seconds (the sampler's own wait included).
    pub fn finish(mut self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            if h.join().is_err() {
                eprintln!("perfbench: run-queue sampler panicked; its last samples are missing");
            }
        }
        sample_tasks(&self.table);
        let t = self.table.lock().unwrap_or_else(|e| e.into_inner());
        t.values().sum::<u64>() as f64 / 1e9
    }
}
