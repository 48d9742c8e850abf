//! Per-layer TRQ parameter search (Algorithm 1 lines 4–17, 23).

use crate::arch::ArchConfig;
use crate::pim::{AdcScheme, CountDist, LayerSamples};
use serde::{Deserialize, Serialize};
use trq_quant::{
    ClassifierConfig, DistributionClass, TrqParams, TwinRangeQuantizer, UniformQuantizer,
};

/// Tunables of the search (paper defaults in Section V-A).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CalibSettings {
    /// Lower factor of the `Vgrid` interval (α = 0.1).
    pub alpha: f64,
    /// Upper factor of the `Vgrid` interval (β = 1.2).
    pub beta: f64,
    /// Number of `Vgrid` candidates (C = 50).
    pub candidates: usize,
    /// Maximum non-uniformity degree (`m ∈ [0, 7]`).
    pub m_max: u32,
    /// End-to-end accuracy-drop threshold θ.
    pub theta: f64,
    /// Distribution classifier thresholds.
    pub classifier: ClassifierConfig,
    /// Accept the uniform fallback only if its MSE is within this factor
    /// of the TRQ candidate's (guards Eq. 9 cost comparisons against
    /// trading accuracy for energy invisibly).
    pub mse_guard: f64,
}

impl Default for CalibSettings {
    fn default() -> Self {
        CalibSettings {
            alpha: 0.1,
            beta: 1.2,
            candidates: 50,
            m_max: 7,
            theta: 0.01,
            classifier: ClassifierConfig::default(),
            mse_guard: 2.0,
        }
    }
}

/// The outcome of the per-layer search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerPlan {
    /// Layer position among MVM layers.
    pub mvm_index: usize,
    /// Layer label.
    pub label: String,
    /// Chosen ADC scheme.
    pub scheme: AdcScheme,
    /// Judged distribution type (Algorithm 1 line 5).
    pub class: DistributionClass,
    /// Expected A/D operations per conversion on the calibration
    /// distribution (Eq. 9 normalised by sample count).
    pub mean_ops: f64,
    /// Quantization MSE on the calibration samples (Eq. 10).
    pub mse: f64,
    /// `Rideal = ceil(log2(ymax − ymin + 1))` (Algorithm 1 line 7).
    pub rideal: u32,
}

/// Eq. 9 cost in A/D operations over the whole distribution, with two
/// binary searches (the window membership count) instead of a full pass.
fn trq_ops_cost(dist: &CountDist, params: &TrqParams) -> f64 {
    let n = dist.total() as f64;
    let lo = dist.below(params.theta_lo()) as f64;
    let hi = dist.below(params.theta_hi()) as f64;
    let in_r1 = hi - lo;
    params.nu() as f64 * n + in_r1 * params.n_r1() as f64 + (n - in_r1) * params.n_r2() as f64
}

fn trq_mse(dist: &CountDist, params: &TrqParams) -> f64 {
    let q = TwinRangeQuantizer::new(*params);
    dist.mse(|x| q.quantize(x).value)
}

/// Algorithm 1's `Vgrid` candidates for a layer whose largest count is
/// `ymax`: `C` points spanning `[α·ymax, β·ymax] / (2^RADC − 1)`.
fn vgrid_candidates(ymax: f64, arch: &ArchConfig, s: &CalibSettings) -> impl Iterator<Item = f64> {
    let full_codes = ((1u64 << arch.adc_bits) - 1) as f64;
    let lo = (s.alpha * ymax / full_codes).max(1e-6);
    let hi = (s.beta * ymax / full_codes).max(lo * 1.0001);
    let steps = s.candidates.max(2);
    (0..steps).map(move |k| lo + (hi - lo) * k as f64 / (steps - 1) as f64)
}

/// The lowest-MSE uniform quantizer at `bits` among the `Vgrid`
/// candidates, as `(vgrid, mse)`: Algorithm 1 line 23's comparison point
/// and the Fig. 6a baseline. `ymax` must be positive.
pub(crate) fn best_uniform(
    dist: &CountDist,
    ymax: f64,
    bits: u32,
    arch: &ArchConfig,
    s: &CalibSettings,
) -> (f64, f64) {
    let mut best = (f64::NAN, f64::INFINITY);
    for vgrid in vgrid_candidates(ymax, arch, s) {
        // lint: allow(unwrap): callers pass 1..=16 bits; vgrid >= 1e-6
        let q = UniformQuantizer::new(bits, vgrid).expect("validated bits/step");
        let mse = dist.mse(|x| q.quantize(x));
        if mse < best.1 {
            best = (vgrid, mse);
        }
    }
    best
}

struct Candidate {
    params: TrqParams,
    cost: f64,
    mse: f64,
}

/// Searches one layer at a given `Nmax` bound.
pub fn plan_layer(
    samples: &LayerSamples,
    arch: &ArchConfig,
    nmax: u32,
    s: &CalibSettings,
) -> LayerPlan {
    let dist = samples.distribution();
    let n = dist.total().max(1) as f64;
    let ymax = samples.hist.sample_max().max(0.0);
    let ymin = samples.hist.sample_min().max(0.0);
    let class = DistributionClass::classify(&samples.hist, &s.classifier);

    // degenerate layer: all counts zero → cheapest possible uniform read
    if ymax <= 0.0 {
        return LayerPlan {
            mvm_index: samples.mvm_index,
            label: samples.label.clone(),
            scheme: AdcScheme::uniform(1, 1.0),
            class,
            mean_ops: 1.0,
            mse: 0.0,
            rideal: 1,
        };
    }

    let rideal = ((ymax - ymin + 1.0).log2().ceil() as u32).clamp(1, 16);
    let n_r2 = nmax.min(rideal).max(1);

    let mut per_grid_best: Vec<Candidate> = Vec::new();
    for vgrid in vgrid_candidates(ymax, arch, s) {
        // the full-precision code range this grid implies
        let rfull = ((ymax / vgrid + 1.0).log2().ceil() as u32).clamp(n_r2, 16);
        let mut best: Option<Candidate> = None;
        if class.has_sweet_spot() {
            // Eq. 11 regime: ΔR1 = Vgrid, M covers the range, search NR1
            // (and bias for the normal-like case) minimising Eq. 9
            let m = (rfull - n_r2).min(s.m_max);
            for n_r1 in 1..=n_r2 {
                let biases: Vec<u32> = match class {
                    DistributionClass::IdealSkewed => vec![0],
                    // windows of width 2^NR1·Δ tile the covered range; cap
                    // the sweep so pathological grids stay cheap
                    _ => (0..(1u32 << rfull.saturating_sub(n_r1).min(8))).collect(),
                };
                for bias in biases {
                    let Ok(params) = TrqParams::new(n_r1, n_r2, m, vgrid, bias) else {
                        continue;
                    };
                    let cost = trq_ops_cost(&dist, &params);
                    if best.as_ref().is_none_or(|b| cost < b.cost) {
                        best = Some(Candidate { params, cost, mse: f64::NAN });
                    }
                }
            }
        } else {
            // "other" distributions: NR1 = NR2, early stopping in both
            // ranges; search M by MSE (cost is bias/M-invariant here)
            for m in 0..=s.m_max.min(16 - n_r2) {
                let exp = rfull.saturating_sub(n_r2 + m);
                let delta_r1 = vgrid * (1u64 << exp) as f64;
                let Ok(params) = TrqParams::new(n_r2, n_r2, m, delta_r1, 0) else {
                    continue;
                };
                let mse = trq_mse(&dist, &params);
                let cost = trq_ops_cost(&dist, &params);
                if best.as_ref().is_none_or(|b| mse < b.mse) {
                    best = Some(Candidate { params, cost, mse });
                }
            }
        }
        if let Some(mut cand) = best {
            if cand.mse.is_nan() {
                cand.mse = trq_mse(&dist, &cand.params);
            }
            per_grid_best.push(cand);
        }
    }

    // Algorithm 1 line 17 selects the grid by Eq. 10; taken literally that
    // always prefers the finest grid and Eq. 9 never saves anything, so the
    // reproduction reads the two objectives together: among grids whose
    // reconstruction error is within `mse_guard` of the best achievable,
    // take the one with the lowest A/D-operation cost.
    let min_mse =
        per_grid_best.iter().map(|c| c.mse).fold(f64::INFINITY, f64::min).max(f64::MIN_POSITIVE);
    let trq_best = per_grid_best
        .into_iter()
        .filter(|c| c.mse <= min_mse * s.mse_guard)
        .min_by(|a, b| a.cost.total_cmp(&b.cost).then(a.mse.total_cmp(&b.mse)))
        // lint: allow(unwrap): the filter keeps at least the min-MSE candidate
        .expect("guard band always contains the min-MSE candidate");

    // line 23: compare with uniform quantization at NR2 bits
    let (uni_vgrid, uni_mse) = best_uniform(&dist, ymax, n_r2, arch, s);
    let trq_mean_ops = trq_best.cost / n;
    let uni_mean_ops = n_r2 as f64;

    // choose by Eq. 9 cost, guarded so a cheaper scheme cannot smuggle in
    // a much worse reconstruction
    let take_uniform = uni_mean_ops < trq_mean_ops && uni_mse <= trq_best.mse * s.mse_guard
        || trq_best.mse > uni_mse * s.mse_guard && uni_mean_ops <= trq_mean_ops * 1.25;

    let (scheme, mean_ops, mse) = if take_uniform {
        (AdcScheme::uniform(n_r2, uni_vgrid), uni_mean_ops, uni_mse)
    } else {
        (AdcScheme::Trq(trq_best.params), trq_mean_ops, trq_best.mse)
    };
    let (mvm_index, label) = (samples.mvm_index, samples.label.clone());
    LayerPlan { mvm_index, label, scheme, class, mean_ops, mse, rideal }
}

/// Searches every layer at one `Nmax`, in layer order. On the exact
/// histogram a layer's search takes well under a millisecond, so the
/// whole network is searched on the calling thread.
pub fn plan_network(
    samples: &[LayerSamples],
    arch: &ArchConfig,
    nmax: u32,
    settings: &CalibSettings,
) -> Vec<LayerPlan> {
    samples.iter().map(|smp| plan_layer(smp, arch, nmax, settings)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trq_quant::{quantizer_mse, Histogram};

    fn samples_from(values: Vec<f64>) -> LayerSamples {
        let mut hist = Histogram::new(0.0, 129.0, 129).unwrap();
        hist.extend(values.iter().copied());
        LayerSamples { mvm_index: 0, label: "l0".into(), seen: values.len() as u64, hist }
    }

    fn skewed_values() -> Vec<f64> {
        // 90% of mass in [0, 6], tail to 100 — the Fig. 3a shape
        let mut v = Vec::new();
        for i in 0..2000 {
            if i % 10 == 0 {
                v.push((20.0 + (i % 800) as f64 / 10.0).floor());
            } else {
                v.push((i % 7) as f64);
            }
        }
        v
    }

    #[test]
    fn skewed_layer_gets_cheap_trq() {
        let samples = samples_from(skewed_values());
        let plan = plan_layer(&samples, &ArchConfig::default(), 7, &CalibSettings::default());
        assert_eq!(plan.class, DistributionClass::IdealSkewed);
        let AdcScheme::Trq(params) = plan.scheme else {
            panic!("skewed distribution should choose TRQ, got {:?}", plan.scheme);
        };
        assert!(params.bias() == 0);
        // most conversions early-bird → mean ops below the 8-op baseline
        assert!(plan.mean_ops < 6.5, "mean ops {}", plan.mean_ops);
        assert!(params.n_r1() <= params.n_r2());
    }

    #[test]
    fn nmax_descent_traces_fig6c_band() {
        // realistic BL statistics: exponential-ish counts, most at 0-3.
        // Fig. 6c reports 42–62% of baseline ops as Nmax descends 8→4;
        // mean_ops/8 must fall into that region by Nmax = 4.
        let mut values = Vec::new();
        for i in 0..4000u64 {
            let u = (i as f64 + 0.5) / 4000.0;
            values.push((-6.0 * (1.0 - u).ln()).min(90.0).floor());
        }
        let samples = samples_from(values);
        let arch = ArchConfig::default();
        let settings = CalibSettings::default();
        let mut prev = f64::INFINITY;
        for nmax in (4..=7).rev() {
            let plan = plan_layer(&samples, &arch, nmax, &settings);
            assert!(
                plan.mean_ops <= prev + 1e-9,
                "tightening Nmax must not increase ops: {} at {nmax} (prev {prev})",
                plan.mean_ops
            );
            prev = plan.mean_ops;
        }
        let at4 = plan_layer(&samples, &arch, 4, &settings);
        let remaining = at4.mean_ops / arch.adc_bits as f64;
        assert!(
            remaining < 0.65,
            "Nmax = 4 should land in the paper's 42-62% band: {remaining:.3} ({:?})",
            at4.scheme
        );
    }

    #[test]
    fn ops_cost_matches_direct_computation() {
        let values = skewed_values();
        let params = TrqParams::new(3, 7, 2, 1.0, 0).unwrap();
        let fast = trq_ops_cost(&samples_from(values.clone()).distribution(), &params);
        let q = TwinRangeQuantizer::new(params);
        let direct: f64 = values.iter().map(|&v| q.ops_for(v) as f64).sum();
        assert_eq!(fast, direct);
    }

    #[test]
    fn tight_nmax_reduces_payload_bits() {
        let samples = samples_from(skewed_values());
        let arch = ArchConfig::default();
        let p7 = plan_layer(&samples, &arch, 7, &CalibSettings::default());
        let p3 = plan_layer(&samples, &arch, 3, &CalibSettings::default());
        let bits = |p: &LayerPlan| match p.scheme {
            AdcScheme::Trq(t) => t.n_r2(),
            AdcScheme::Uniform { bits, .. } => bits,
            AdcScheme::Ideal => 8,
        };
        assert!(bits(&p3) <= 3);
        assert!(bits(&p7) <= 7);
        assert!(p3.mse >= p7.mse, "fewer bits cannot improve MSE");
    }

    #[test]
    fn flat_distribution_does_not_fake_a_sweet_spot() {
        let values: Vec<f64> = (0..2000).map(|i| (i % 120) as f64).collect();
        let samples = samples_from(values);
        let plan = plan_layer(&samples, &ArchConfig::default(), 7, &CalibSettings::default());
        assert_eq!(plan.class, DistributionClass::Other);
        // either uniform, or TRQ with equal widths (early stop both ranges)
        if let AdcScheme::Trq(p) = plan.scheme {
            assert_eq!(p.n_r1(), p.n_r2());
        }
    }

    #[test]
    fn normal_like_distribution_uses_bias_window() {
        // tight cluster around 64 — the "case N" of Section IV-B
        let mut values = Vec::new();
        for i in 0..4000u32 {
            let mut s = 0.0;
            let mut state = i as u64 * 2654435761 + 17;
            for _ in 0..12 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                s += (state >> 11) as f64 / (1u64 << 53) as f64;
            }
            values.push((64.0 + (s - 6.0) * 3.0).clamp(0.0, 128.0).floor());
        }
        values.push(0.0);
        values.push(128.0);
        let samples = samples_from(values);
        let plan = plan_layer(&samples, &ArchConfig::default(), 7, &CalibSettings::default());
        if let AdcScheme::Trq(p) = plan.scheme {
            // the window should sit on the cluster, not at zero
            assert!(
                p.bias() > 0 || p.n_r1() == p.n_r2(),
                "normal-like cluster away from zero should float the window: {p:?}"
            );
            assert!(plan.mean_ops <= 8.0);
        }
    }

    #[test]
    fn all_zero_layer_degenerates_gracefully() {
        let samples = samples_from(vec![0.0; 100]);
        let plan = plan_layer(&samples, &ArchConfig::default(), 7, &CalibSettings::default());
        assert_eq!(plan.scheme, AdcScheme::uniform(1, 1.0));
        assert_eq!(plan.mse, 0.0);
    }

    /// The search as it ran before plans were made on the histogram, kept
    /// as a test oracle: the same Algorithm 1 steps over the expanded,
    /// sorted sample list, with `quantizer_mse` per candidate and window
    /// counts by `partition_point` on the samples. Returns (scheme, mse).
    fn sorted_sample_reference(
        values: &[f64],
        arch: &ArchConfig,
        nmax: u32,
        s: &CalibSettings,
    ) -> (AdcScheme, f64) {
        let hist = samples_from(values.to_vec()).hist;
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len() as f64;
        let cost = |p: &TrqParams| {
            let lo = sorted.partition_point(|&v| v < p.theta_lo()) as f64;
            let in_r1 = sorted.partition_point(|&v| v < p.theta_hi()) as f64 - lo;
            p.nu() as f64 * n + in_r1 * p.n_r1() as f64 + (n - in_r1) * p.n_r2() as f64
        };
        let mse = |p: &TrqParams| {
            let q = TwinRangeQuantizer::new(*p);
            quantizer_mse(&sorted, |x| q.quantize(x).value)
        };
        let (ymax, ymin) = (hist.sample_max().max(0.0), hist.sample_min().max(0.0));
        let class = DistributionClass::classify(&hist, &s.classifier);
        let rideal = ((ymax - ymin + 1.0).log2().ceil() as u32).clamp(1, 16);
        let n_r2 = nmax.min(rideal).max(1);
        let full_codes = ((1u64 << arch.adc_bits) - 1) as f64;
        let grid_lo = (s.alpha * ymax / full_codes).max(1e-6);
        let grid_hi = (s.beta * ymax / full_codes).max(grid_lo * 1.0001);
        let steps = s.candidates.max(2);
        let grid = |k: usize| grid_lo + (grid_hi - grid_lo) * k as f64 / (steps - 1) as f64;
        let mut per_grid = Vec::new(); // (params, cost, mse)
        for k in 0..steps {
            let rfull = ((ymax / grid(k) + 1.0).log2().ceil() as u32).clamp(n_r2, 16);
            let mut best: Option<(TrqParams, f64, f64)> = None;
            if class.has_sweet_spot() {
                let m = (rfull - n_r2).min(s.m_max);
                for n_r1 in 1..=n_r2 {
                    let biases = match class {
                        DistributionClass::IdealSkewed => 1,
                        _ => 1u32 << rfull.saturating_sub(n_r1).min(8),
                    };
                    for bias in 0..biases {
                        let Ok(p) = TrqParams::new(n_r1, n_r2, m, grid(k), bias) else { continue };
                        if best.is_none_or(|b| cost(&p) < b.1) {
                            best = Some((p, cost(&p), f64::NAN));
                        }
                    }
                }
                best = best.map(|(p, c, _)| (p, c, mse(&p)));
            } else {
                for m in 0..=s.m_max.min(16 - n_r2) {
                    let delta = grid(k) * (1u64 << rfull.saturating_sub(n_r2 + m)) as f64;
                    let Ok(p) = TrqParams::new(n_r2, n_r2, m, delta, 0) else { continue };
                    if best.is_none_or(|b| mse(&p) < b.2) {
                        best = Some((p, cost(&p), mse(&p)));
                    }
                }
            }
            per_grid.extend(best);
        }
        let min_mse = per_grid.iter().map(|c| c.2).fold(f64::INFINITY, f64::min);
        let (trq, trq_cost, trq_mse) = per_grid
            .into_iter()
            .filter(|c| c.2 <= min_mse.max(f64::MIN_POSITIVE) * s.mse_guard)
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.2.total_cmp(&b.2)))
            .unwrap();
        let (uni_vgrid, uni_mse) = (0..steps)
            .map(|k| {
                let q = UniformQuantizer::new(n_r2, grid(k)).unwrap();
                (grid(k), quantizer_mse(&sorted, |x| q.quantize(x)))
            })
            .fold((0.0, f64::INFINITY), |b, c| if c.1 < b.1 { c } else { b });
        let (trq_ops, uni_ops) = (trq_cost / n, n_r2 as f64);
        if uni_ops < trq_ops && uni_mse <= trq_mse * s.mse_guard
            || trq_mse > uni_mse * s.mse_guard && uni_ops <= trq_ops * 1.25
        {
            (AdcScheme::uniform(n_r2, uni_vgrid), uni_mse)
        } else {
            (AdcScheme::Trq(trq), trq_mse)
        }
    }

    #[test]
    fn plan_on_histogram_matches_sorted_sample_reference() {
        let exponential: Vec<f64> = (0..3000u64)
            .map(|i| (-6.0 * (1.0 - (i as f64 + 0.5) / 3000.0).ln()).min(90.0).floor())
            .collect();
        let flat: Vec<f64> = (0..2000).map(|i| (i % 120) as f64).collect();
        let clustered: Vec<f64> =
            (0..2000u64).map(|i| (60 + (i * i) % 9 + (i % 5)) as f64).chain([0.0, 128.0]).collect();
        let arch = ArchConfig::default();
        let settings = CalibSettings::default();
        for (name, values) in [
            ("skewed", skewed_values()),
            ("exp", exponential),
            ("flat", flat),
            ("cluster", clustered),
        ] {
            let samples = samples_from(values.clone());
            for nmax in [3, 5, 7] {
                let plan = plan_layer(&samples, &arch, nmax, &settings);
                let (scheme, mse) = sorted_sample_reference(&values, &arch, nmax, &settings);
                assert_eq!(plan.scheme, scheme, "{name} at Nmax {nmax}");
                assert!(
                    (plan.mse - mse).abs() <= 1e-12 * mse.abs(),
                    "{name} at Nmax {nmax}: mse {} vs reference {mse}",
                    plan.mse
                );
            }
        }
    }

    #[test]
    fn plan_network_parallel_matches_sequential() {
        let layer_samples: Vec<LayerSamples> = (0..5)
            .map(|i| {
                let mut s = samples_from(skewed_values());
                s.mvm_index = i;
                s
            })
            .collect();
        let arch = ArchConfig::default();
        let settings = CalibSettings { candidates: 10, ..Default::default() };
        let par = plan_network(&layer_samples, &arch, 6, &settings);
        let seq: Vec<LayerPlan> =
            layer_samples.iter().map(|s| plan_layer(s, &arch, 6, &settings)).collect();
        assert_eq!(par, seq);
    }
}
