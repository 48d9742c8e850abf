//! What every run is stamped with, and the process's own peak memory.

use serde::Serialize;
use trq_core::arch::{resolve_kernel, KernelSelect, KERNEL_ENV};

/// Host and configuration facts a run's numbers depend on.
#[derive(Debug, Clone, Serialize)]
pub struct Stamp {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// The kernel tier `KernelSelect::Auto` resolves to (after `TRQ_KERNEL`).
    pub kernel_tier: String,
    /// `TRQ_KERNEL`, if set.
    pub trq_kernel: Option<String>,
    /// `TRQ_THREADS`, if set (the benchmark itself does not read it).
    pub trq_threads: Option<String>,
    /// Worker threads of the workload's PIM engines.
    pub engine_threads: usize,
    /// Threads the workload keeps busy at once (never above `nproc`).
    pub busy_threads: usize,
}

impl Stamp {
    /// Captures the stamp for a workload running `engine_threads` engine
    /// threads and keeping `busy_threads` threads busy.
    pub fn capture(engine_threads: usize, busy_threads: usize) -> Self {
        let kernel_tier = match resolve_kernel(KernelSelect::Auto) {
            Ok(tier) => tier.name().to_string(),
            Err(e) => format!("unresolvable: {e}"),
        };
        Stamp {
            nproc: nproc(),
            kernel_tier,
            trq_kernel: std::env::var(KERNEL_ENV).ok(),
            trq_threads: std::env::var("TRQ_THREADS").ok(),
            engine_threads,
            busy_threads,
        }
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// This process's peak resident set (`VmHWM`) in MB, or `NaN` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
