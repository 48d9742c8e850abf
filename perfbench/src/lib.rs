//! End-to-end and per-layer benchmark of the TRQ reproduction.
//!
//! Three workloads, each putting nearly all of its time into one layer:
//! `bringup` (calibration), `infer` (the PIM engine) and `serve` (the
//! micro-batching server). Every workload runs in its own process; the
//! launcher (`run.py`) starts several of them per run and reports medians
//! across them. See `README.md` for the metric table.

pub mod bringup;
pub mod host;
pub mod infer;
pub mod layers;
pub mod outcome;
pub mod serve;
pub mod stats;
pub mod trace;

/// A deterministic 64-bit generator (splitmix64), used for every seeded
/// choice the benchmark makes so that a seed fixes its inputs exactly.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, decorrelated by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Set-ups per worker process of `bringup` and `serve`; their `setup_s`
/// is the median. (`infer` sets up once per process: its set-up takes
/// seconds and is steady.)
pub const SETUPS: usize = 3;

/// Runs `build` [`SETUPS`] times, one product alive at a time, and
/// returns the last product with the median seconds of one build.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let t = std::time::Instant::now();
    let mut product = build();
    let mut times = vec![t.elapsed().as_secs_f64()];
    while times.len() < SETUPS {
        drop(product);
        let t = std::time::Instant::now();
        product = build();
        times.push(t.elapsed().as_secs_f64());
    }
    (product, stats::median(&times))
}

/// How a worker process was asked to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload seed: fixes every generated input of the run.
    pub seed: u64,
    /// Seconds of timed work this process should measure.
    pub seconds: f64,
    /// Run the traced variant (per-layer metrics) instead of the plain one.
    pub trace: bool,
    /// Index of this process among the run's processes; process 0 also
    /// runs the expensive correctness checks.
    pub proc_index: usize,
    /// Work directory inside the checkout for snapshots and traces.
    pub work_dir: std::path::PathBuf,
}

impl RunArgs {
    /// Whether this process runs the checks that are made once per run.
    pub fn is_lead(&self) -> bool {
        self.proc_index == 0
    }
}

/// Whether two batch results carry bit-identical outputs and ledgers.
pub fn identical(
    a: &(Vec<trq_tensor::Tensor>, trq_core::pim::PimStats),
    b: &(Vec<trq_tensor::Tensor>, trq_core::pim::PimStats),
) -> bool {
    a.1 == b.1 && a.0.len() == b.0.len() && a.0.iter().zip(&b.0).all(|(x, y)| x.data() == y.data())
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
