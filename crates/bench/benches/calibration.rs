//! Algorithm 1 per-layer search cost on a realistic BL count histogram.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use trq_core::arch::ArchConfig;
use trq_core::calib::{plan_layer, CalibSettings};
use trq_core::pim::LayerSamples;
use trq_quant::Histogram;

fn samples() -> LayerSamples {
    let mut values = Vec::new();
    for i in 0..4096u64 {
        let u = (i as f64 + 0.5) / 4096.0;
        values.push((-5.0 * (1.0 - u).ln()).min(120.0).floor());
    }
    let mut hist = Histogram::new(0.0, 129.0, 129).unwrap();
    hist.extend(values.iter().copied());
    LayerSamples { mvm_index: 0, label: "bench".into(), seen: values.len() as u64, hist }
}

fn bench_calibration(c: &mut Criterion) {
    let mut group = c.benchmark_group("calibration");
    group.sample_size(20);
    let s = samples();
    let arch = ArchConfig::default();
    let settings = CalibSettings::default();
    group.bench_function("plan_layer_c50", |b| {
        b.iter(|| black_box(plan_layer(black_box(&s), &arch, 4, &settings)))
    });
    group.finish();
}

criterion_group!(benches, bench_calibration);
criterion_main!(benches);
