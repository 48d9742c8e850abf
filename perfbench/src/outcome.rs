//! What one worker process reports back to `run.py`.

use crate::host::Stamp;
use serde::Serialize;
use std::collections::BTreeMap;

/// One correctness check made outside the timed region.
#[derive(Debug, Clone, Serialize)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Detail for the log when it did not.
    pub detail: String,
}

/// Metrics, operation counts and checks of one worker process; printed
/// as one line of JSON for `run.py`.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Outcome {
    /// Metric name → value (`None` when it could not be measured, e.g. a
    /// non-finite median). Untraced runs carry the end-to-end metrics,
    /// traced runs the per-layer ones.
    pub metrics: BTreeMap<String, Option<f64>>,
    /// Operations attempted (timed operations plus checks).
    pub attempted: u64,
    /// Operations that failed, each failed check counting as one.
    pub failed: u64,
    /// Every check made, passed or not.
    pub checks: Vec<Check>,
    /// The run's stamp.
    pub stamp: Option<Stamp>,
}

impl Outcome {
    /// Records a metric; a non-finite value is recorded as missing.
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value.is_finite().then_some(value));
    }

    /// A recorded metric, `NaN` when missing.
    pub fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().flatten().unwrap_or(f64::NAN)
    }

    /// Records one timed operation and whether it succeeded.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a check; a failing check counts as a failed operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.op(ok);
        let detail = if ok { String::new() } else { detail.into() };
        self.checks.push(Check { name: name.into(), ok, detail });
    }

    /// True when no operation failed (every failed check is one).
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}
