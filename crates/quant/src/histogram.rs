//! Histograms and moment statistics of bit-line sample populations.
//!
//! Algorithm 1 needs, per layer: the sample extrema (for `Rideal` and the
//! `Vgrid` search interval), moments (for distribution typing), and the
//! empirical CDF (for reasoning about range occupancy). [`Histogram`]
//! collects all of these in one pass-friendly structure.

use crate::QuantError;
use serde::{Deserialize, Serialize};

/// A fixed-range histogram with summary statistics over the raw samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    n: u64,
    sum: f64,
    sum_sq: f64,
    sum_cu: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates an empty histogram over `[lo, hi]` with `bins` buckets.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::BadHistogram`] when `bins == 0`, the range is
    /// empty, or a bound is non-finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Result<Self, QuantError> {
        if bins == 0 {
            return Err(QuantError::BadHistogram { reason: "zero bins".into() });
        }
        if !lo.is_finite() || !hi.is_finite() || lo >= hi {
            return Err(QuantError::BadHistogram { reason: format!("empty range [{lo}, {hi}]") });
        }
        Ok(Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            n: 0,
            sum: 0.0,
            sum_sq: 0.0,
            sum_cu: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        })
    }

    /// Builds a histogram directly from samples, spanning their range.
    ///
    /// # Errors
    ///
    /// Returns an error for empty samples or degenerate ranges (all samples
    /// identical are handled by widening the range by one ULP-ish epsilon).
    pub fn from_samples(samples: &[f64], bins: usize) -> Result<Self, QuantError> {
        if samples.is_empty() {
            return Err(QuantError::BadHistogram { reason: "no samples".into() });
        }
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (lo, hi) = if lo == hi { (lo, hi + 1.0) } else { (lo, hi) };
        let mut h = Histogram::new(lo, hi, bins)?;
        h.extend(samples.iter().copied());
        Ok(h)
    }

    /// Records a sample; values outside the range clamp to the edge bins.
    pub fn record(&mut self, x: f64) {
        self.record_n(x, 1);
    }

    /// Records `k` copies of `x` at once. Equal to `k` calls of
    /// [`Histogram::record`] whenever the moment sums are exact, as they
    /// are for integer samples (BL counts) with sums below 2^53.
    pub fn record_n(&mut self, x: f64, k: u64) {
        if !x.is_finite() || k == 0 {
            return;
        }
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let idx = ((x - self.lo) / width).floor();
        let idx = if idx < 0.0 {
            0
        } else if idx as usize >= self.counts.len() {
            self.counts.len() - 1
        } else {
            idx as usize
        };
        let kf = k as f64;
        self.counts[idx] += k;
        self.n += k;
        self.sum += kf * x;
        self.sum_sq += kf * x * x;
        self.sum_cu += kf * x * x * x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Records every sample from an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.record(x);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Lower edge of the histogram range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper edge of the histogram range.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Smallest recorded sample (`+inf` when empty).
    pub fn sample_min(&self) -> f64 {
        self.min
    }

    /// Largest recorded sample (`-inf` when empty).
    pub fn sample_max(&self) -> f64 {
        self.max
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Population standard deviation (0 when empty).
    pub fn std(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let mean = self.mean();
        (self.sum_sq / self.n as f64 - mean * mean).max(0.0).sqrt()
    }

    /// Fisher skewness `g1` (0 for degenerate distributions).
    pub fn skewness(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let n = self.n as f64;
        let mean = self.mean();
        let std = self.std();
        if std == 0.0 {
            return 0.0;
        }
        let m3 = self.sum_cu / n - 3.0 * mean * self.sum_sq / n + 2.0 * mean * mean * mean;
        m3 / (std * std * std)
    }

    /// Fraction of samples at or below `x` (empirical CDF on bin edges).
    pub fn cdf(&self, x: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        if x >= self.hi {
            return 1.0;
        }
        if x < self.lo {
            return 0.0;
        }
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let full_bins = ((x - self.lo) / width).floor() as usize;
        let below: u64 = self.counts[..full_bins.min(self.counts.len())].iter().sum();
        // linear interpolation inside the partial bin
        let frac_bin = if full_bins < self.counts.len() {
            let frac = ((x - self.lo) - full_bins as f64 * width) / width;
            self.counts[full_bins] as f64 * frac
        } else {
            0.0
        };
        (below as f64 + frac_bin) / self.n as f64
    }

    /// Approximate `p`-quantile (`0 <= p <= 1`) from the binned data.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `[0, 1]` or the histogram is empty.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile p must be in [0,1]");
        assert!(self.n > 0, "quantile of empty histogram");
        let target = p * self.n as f64;
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        let mut acc = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = acc + c as f64;
            if next >= target {
                let frac = if c == 0 { 0.0 } else { (target - acc) / c as f64 };
                return self.lo + (i as f64 + frac) * width;
            }
            acc = next;
        }
        self.hi
    }

    /// Folds another histogram's content into this one. Both histograms
    /// must share the same range and bin count.
    ///
    /// # Panics
    ///
    /// Panics when the configurations differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            (self.lo, self.hi, self.counts.len()),
            (other.lo, other.hi, other.counts.len()),
            "merging histograms with different configurations"
        );
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.sum_cu += other.sum_cu;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Indices of local maxima of the (lightly smoothed) bin counts that
    /// rise above `min_prominence` of the tallest peak — a cheap mode
    /// counter for unimodality checks.
    pub fn peak_bins(&self, min_prominence: f64) -> Vec<usize> {
        let smoothed: Vec<f64> = (0..self.counts.len())
            .map(|i| {
                let l = if i == 0 { 0 } else { self.counts[i - 1] };
                let r = if i + 1 == self.counts.len() { 0 } else { self.counts[i + 1] };
                (l as f64 + 2.0 * self.counts[i] as f64 + r as f64) / 4.0
            })
            .collect();
        let tallest = smoothed.iter().copied().fold(0.0f64, f64::max);
        if tallest == 0.0 {
            return Vec::new();
        }
        let threshold = tallest * min_prominence;
        let mut peaks = Vec::new();
        for i in 0..smoothed.len() {
            let l = if i == 0 { -1.0 } else { smoothed[i - 1] };
            let r = if i + 1 == smoothed.len() { -1.0 } else { smoothed[i + 1] };
            if smoothed[i] >= threshold && smoothed[i] > l && smoothed[i] >= r {
                peaks.push(i);
            }
        }
        peaks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
        assert!(Histogram::new(1.0, 1.0, 4).is_err());
        assert!(Histogram::new(f64::NAN, 1.0, 4).is_err());
        assert!(Histogram::new(0.0, 1.0, 4).is_ok());
    }

    #[test]
    fn records_and_clamps() {
        let mut h = Histogram::new(0.0, 10.0, 10).unwrap();
        h.extend([0.5, 5.5, 9.5, -3.0, 42.0]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.counts()[0], 2); // 0.5 and clamped -3.0
        assert_eq!(h.counts()[9], 2); // 9.5 and clamped 42.0
        assert_eq!(h.counts()[5], 1);
    }

    #[test]
    fn nan_is_ignored() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.record(f64::NAN);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut one_by_one = Histogram::new(0.0, 129.0, 129).unwrap();
        let mut batched = one_by_one.clone();
        for (x, k) in [(0.0, 5u64), (3.0, 1000), (128.0, 7), (17.0, 0)] {
            for _ in 0..k {
                one_by_one.record(x);
            }
            batched.record_n(x, k);
        }
        assert_eq!(batched, one_by_one);
    }

    #[test]
    fn moments_match_direct_computation() {
        let samples = [1.0, 2.0, 2.0, 3.0, 10.0];
        let h = Histogram::from_samples(&samples, 20).unwrap();
        let mean = samples.iter().sum::<f64>() / 5.0;
        assert!((h.mean() - mean).abs() < 1e-12);
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / 5.0;
        assert!((h.std() - var.sqrt()).abs() < 1e-12);
        assert!(h.skewness() > 0.5, "right-tailed sample must be right-skewed");
    }

    #[test]
    fn cdf_monotone_and_normalised() {
        let samples: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let h = Histogram::from_samples(&samples, 10).unwrap();
        assert_eq!(h.cdf(-1.0), 0.0);
        assert_eq!(h.cdf(1e9), 1.0);
        let mut prev = 0.0;
        for i in 0..20 {
            let c = h.cdf(i as f64 * 5.0);
            assert!(c >= prev);
            prev = c;
        }
        assert!((h.cdf(49.5) - 0.5).abs() < 0.06);
    }

    #[test]
    fn quantile_is_cdf_inverse_approximately() {
        let samples: Vec<f64> = (0..1000).map(|i| (i as f64).sqrt()).collect();
        let h = Histogram::from_samples(&samples, 100).unwrap();
        for &p in &[0.1, 0.5, 0.9] {
            let q = h.quantile(p);
            assert!((h.cdf(q) - p).abs() < 0.03, "p={p} q={q} cdf={}", h.cdf(q));
        }
    }

    #[test]
    fn unimodal_has_one_peak_bimodal_two() {
        let mut uni: Vec<f64> = Vec::new();
        let mut bi: Vec<f64> = Vec::new();
        for i in 0..2000 {
            let t = (i % 100) as f64 / 100.0;
            let u = ((i * 37) % 100) as f64 / 100.0;
            // sum of two uniforms has a triangular (unimodal) density on [0, 2)
            uni.push(t + u);
            bi.push(if i % 2 == 0 { 0.2 + 0.02 * t } else { 0.8 + 0.02 * t });
        }
        let hu = Histogram::from_samples(&uni, 20).unwrap();
        let hb = Histogram::from_samples(&bi, 20).unwrap();
        assert_eq!(hu.peak_bins(0.25).len(), 1, "{:?}", hu.counts());
        assert_eq!(hb.peak_bins(0.25).len(), 2, "{:?}", hb.counts());
    }

    #[test]
    fn merge_equals_joint_construction() {
        let a_samples = [1.0, 2.0, 3.0];
        let b_samples = [4.0, 5.0, 9.0];
        let mut a = Histogram::new(0.0, 10.0, 10).unwrap();
        a.extend(a_samples);
        let mut b = Histogram::new(0.0, 10.0, 10).unwrap();
        b.extend(b_samples);
        a.merge(&b);
        let mut joint = Histogram::new(0.0, 10.0, 10).unwrap();
        joint.extend(a_samples.iter().chain(b_samples.iter()).copied());
        assert_eq!(a, joint);
    }

    #[test]
    #[should_panic(expected = "different configurations")]
    fn merge_rejects_mismatched() {
        let mut a = Histogram::new(0.0, 10.0, 10).unwrap();
        let b = Histogram::new(0.0, 10.0, 20).unwrap();
        a.merge(&b);
    }

    #[test]
    fn degenerate_samples_widen_range() {
        let h = Histogram::from_samples(&[3.0, 3.0, 3.0], 4).unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.sample_min(), 3.0);
        assert_eq!(h.sample_max(), 3.0);
    }
}
