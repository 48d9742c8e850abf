//! Algorithm 1 — the algorithm/hardware co-optimisation parameter search
//! (Section IV of the paper).
//!
//! Per layer: judge the BL distribution type, sweep `Vgrid` candidates in
//! `[α·ymax/(2^RADC−1), β·ymax/(2^RADC−1)]`, pick the TRQ parameters that
//! minimise the A/D-operation cost (Eq. 9) at each grid, select the grid
//! by quantization MSE (Eq. 10), and finally compare against a uniform
//! quantizer at the same payload width (Algorithm 1 line 23). End-to-end,
//! `Nmax` (the allowed code length) descends until the network metric
//! drops more than `θ` below the lossless-ADC reference.

mod evaluate;
mod layer_search;

pub use evaluate::{collect_bl_samples, evaluate_plan, evaluate_plan_noisy, EvalMetric, PlanEval};
pub(crate) use layer_search::best_uniform;
pub use layer_search::{plan_layer, plan_network, CalibSettings, LayerPlan};

use crate::arch::ArchConfig;
use crate::pim::{AdcScheme, LayerSamples};
use serde::{Deserialize, Serialize};
use trq_nn::{NnError, QuantizedNetwork};

/// A calibration or evaluation forward pass failed.
///
/// Calibration runs whole batches through pool-session engines; a failure
/// used to `panic!` mid-session, which is exactly the wrong failure mode
/// for a long-running process — these variants carry the phase that broke
/// so callers can report (or retry) instead of dying.
#[derive(Debug, Clone, PartialEq)]
pub enum CalibError {
    /// The BL-sample collection forward pass failed.
    Collection(NnError),
    /// A plan-evaluation forward pass failed on the quantized datapath.
    Evaluation(NnError),
    /// The FP32 reference forward failed while scoring fidelity.
    Reference(NnError),
}

impl std::fmt::Display for CalibError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalibError::Collection(e) => write!(f, "BL-sample collection failed: {e}"),
            CalibError::Evaluation(e) => write!(f, "plan evaluation failed: {e}"),
            CalibError::Reference(e) => write!(f, "FP32 reference forward failed: {e}"),
        }
    }
}

impl std::error::Error for CalibError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CalibError::Collection(e) | CalibError::Evaluation(e) | CalibError::Reference(e) => {
                Some(e)
            }
        }
    }
}

/// Result of the full Algorithm 1 run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Algorithm1Result {
    /// Chosen per-layer plans.
    pub plans: Vec<LayerPlan>,
    /// Chosen per-layer schemes (convenience projection of `plans`).
    pub schemes: Vec<AdcScheme>,
    /// The `Nmax` (upper bound on `NR1`/`NR2`) of the accepted plan.
    pub nmax: u32,
    /// Metric achieved by the accepted plan.
    pub score: f64,
    /// Metric of the lossless-ADC quantized reference (the paper's "8/f"
    /// anchor).
    pub reference_score: f64,
    /// Every `(nmax, score)` pair visited during the descent.
    pub visited: Vec<(u32, f64)>,
}

/// Runs the full Algorithm 1: layer-wise search with a descending `Nmax`
/// loop guarded by the end-to-end accuracy threshold `θ`.
///
/// `samples` must come from [`collect_bl_samples`] on the same quantized
/// network.
///
/// # Errors
///
/// Propagates [`CalibError`] from any evaluation forward pass.
pub fn algorithm1(
    qnet: &QuantizedNetwork,
    arch: &ArchConfig,
    samples: &[LayerSamples],
    metric: &EvalMetric<'_>,
    settings: &CalibSettings,
) -> Result<Algorithm1Result, CalibError> {
    let reference =
        evaluate_plan(qnet, arch, &vec![AdcScheme::Ideal; qnet.layers().len()], metric)?;
    let mut visited = Vec::new();
    let mut accepted: Option<(Vec<LayerPlan>, u32, f64)> = None;
    let mut nmax = arch.adc_bits.saturating_sub(1).max(1);
    loop {
        let plans = plan_network(samples, arch, nmax, settings);
        let schemes: Vec<AdcScheme> = plans.iter().map(|p| p.scheme).collect();
        let eval = evaluate_plan(qnet, arch, &schemes, metric)?;
        visited.push((nmax, eval.score));
        if reference.score - eval.score > settings.theta {
            break;
        }
        accepted = Some((plans, nmax, eval.score));
        if nmax == 1 {
            break;
        }
        nmax -= 1;
    }
    let (plans, nmax, score) = accepted.unwrap_or_else(|| {
        // even the widest setting failed the threshold: fall back to the
        // first visited plan so callers always get a runnable configuration
        let nmax = arch.adc_bits.saturating_sub(1).max(1);
        let plans = plan_network(samples, arch, nmax, settings);
        let score = visited.first().map(|v| v.1).unwrap_or(0.0);
        (plans, nmax, score)
    });
    let schemes = plans.iter().map(|p| p.scheme).collect();
    Ok(Algorithm1Result { plans, schemes, nmax, score, reference_score: reference.score, visited })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pim::CollectorConfig;
    use trq_nn::{data, models};
    use trq_tensor::Tensor;

    #[test]
    fn algorithm1_on_mlp_keeps_accuracy_and_saves_ops() {
        let mut net = models::mlp(28 * 28, 24, 10, 3).unwrap();
        let train = data::synthetic_digits(150, 8);
        let cfg = trq_nn::TrainConfig { epochs: 18, lr: 0.02, momentum: 0.9, batch: 12, seed: 1 };
        let report = trq_nn::sgd_train(&mut net, &train, &cfg).unwrap();
        assert!(report.final_train_accuracy > 0.85, "{report:?}");

        let eval_ds = data::synthetic_digits(40, 99);
        let cal: Vec<Tensor> = train.iter().take(8).map(|s| s.image.clone()).collect();
        let qnet = QuantizedNetwork::quantize(&net, &cal).unwrap();
        let arch = ArchConfig::default();
        let samples =
            collect_bl_samples(&qnet, &arch, &cal[..4], CollectorConfig::default()).unwrap();
        assert_eq!(samples.len(), qnet.layers().len());

        let labeled: Vec<(Tensor, usize)> =
            eval_ds.iter().map(|s| (s.image.clone(), s.label)).collect();
        let metric = EvalMetric::Labeled(&labeled);
        let settings = CalibSettings { candidates: 12, theta: 0.05, ..Default::default() };
        let result = algorithm1(&qnet, &arch, &samples, &metric, &settings).unwrap();

        assert!(
            result.reference_score - result.score <= settings.theta + 1e-9,
            "accepted plan must respect θ: ref {} got {}",
            result.reference_score,
            result.score
        );
        // the accepted plan must actually save A/D operations
        let eval = evaluate_plan(&qnet, &arch, &result.schemes, &metric).unwrap();
        let ratio = eval.stats.remaining_ops_ratio();
        assert!(ratio < 0.9, "calibrated plan should cut ops: ratio {ratio}");
        assert!(result.nmax <= 7);
        assert!(!result.visited.is_empty());
    }
}
