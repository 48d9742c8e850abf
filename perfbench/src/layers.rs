//! What the three workloads share: timed calls into each layer's public
//! functions and the per-layer report of a traced run.
//!
//! Every workload reports every per-layer metric, each measured on that
//! workload's own model: every workload calibrates, programs, saves,
//! loads, runs forward batches and serves requests, only in different
//! proportions. The timed body of a workload is one of these paths; the
//! rest run in set-up or, in a traced run, after the timed body. The
//! spans carry fixed names, so one report reads them all:
//!
//! - `calib.calibrate`, with children `nn.quantize`, `calib.collect`,
//!   `calib.plan` and `calib.eval`; `calib.plan_layer.<label>` apart;
//! - `pim.program`;
//! - `store.encode`, and `store.load` with children `store.read`,
//!   `store.decode` and `store.restore`;
//! - `nn.forward_batch`, with one `pim.mvm.<label>` child per layer;
//! - `serve.*` spans of served requests (see [`crate::serve`]).

use crate::outcome::Outcome;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use std::path::Path;
use std::time::{Duration, Instant};
use trq_core::arch::ArchConfig;
use trq_core::calib::{
    collect_bl_samples, evaluate_plan, plan_layer, plan_network, CalibSettings, EvalMetric,
    LayerPlan, PlanEval,
};
use trq_core::energy::{breakdown_from_stats, EnergyParams};
use trq_core::pim::{AdcScheme, CollectorConfig, LayerSamples, PimMvm, PimStats};
use trq_nn::{MvmEngine, MvmLayerInfo, Network, QuantizedNetwork};
use trq_serve::Model;
use trq_tensor::Tensor;

/// The exact metrics of a plan scored on a fixed evaluation set: the
/// score, the remaining A/D-operation ratio (Fig. 6c) and modelled ADC
/// energy per image.
pub fn exact_metrics(eval: &PlanEval, images: usize) -> [(&'static str, f64); 3] {
    let adc_pj = breakdown_from_stats(&eval.stats, &EnergyParams::default()).adc_pj;
    [
        ("score", eval.score),
        ("adc_ops_ratio", eval.stats.remaining_ops_ratio()),
        ("adc_pj_per_image", adc_pj / images as f64),
    ]
}

/// A calibration at one fixed `Nmax` (no descent), as `infer` and
/// `serve` run it in set-up.
pub struct FixedCalibration {
    /// The quantized network.
    pub qnet: QuantizedNetwork,
    /// The collected BL samples.
    pub samples: Vec<LayerSamples>,
    /// The plan `plan_network` chose.
    pub plans: Vec<LayerPlan>,
    /// The plan scored by `evaluate_plan` (top-1 agreement with the
    /// float network) on the fixed evaluation images.
    pub eval: PlanEval,
}

impl FixedCalibration {
    /// The chosen ADC scheme per MVM layer.
    pub fn schemes(&self) -> Vec<AdcScheme> {
        self.plans.iter().map(|p| p.scheme).collect()
    }
}

/// Quantizes `net` on `cal`, collects BL samples on the first
/// `collect_images` of them, plans every layer at `nmax` and scores the
/// plan on `eval_images`, all inside one `calib.calibrate` span.
///
/// # Errors
///
/// Propagates quantization, collection and evaluation failures as text.
pub fn calibrate_fixed(
    net: &Network,
    cal: &[Tensor],
    collect_images: usize,
    arch: &ArchConfig,
    nmax: u32,
    eval_images: &[Tensor],
    tracer: &Tracer,
) -> Result<FixedCalibration, String> {
    let root = tracer.open("calib.calibrate", None);
    let result = (|| {
        let qnet = tracer
            .time("nn.quantize", Some(root), || QuantizedNetwork::quantize(net, cal))
            .map_err(|e| e.to_string())?;
        let collect = &cal[..collect_images.min(cal.len())];
        let samples = tracer
            .time("calib.collect", Some(root), || {
                collect_bl_samples(&qnet, arch, collect, CollectorConfig::default())
            })
            .map_err(|e| e.to_string())?;
        let plans = tracer.time("calib.plan", Some(root), || {
            plan_network(&samples, arch, nmax, &CalibSettings::default())
        });
        let schemes: Vec<AdcScheme> = plans.iter().map(|p| p.scheme).collect();
        let eval = tracer
            .time("calib.eval", Some(root), || {
                evaluate_plan(&qnet, arch, &schemes, &EvalMetric::Fidelity(eval_images))
            })
            .map_err(|e| e.to_string())?;
        Ok(FixedCalibration { qnet, samples, plans, eval })
    })();
    tracer.close(root);
    result
}

/// Runs `plan_layer` on each layer's samples at `nmax`, one span each,
/// and checks that every layer's plan equals the one `plan_network`
/// chose. Reports the slowest layer's search and the sum over layers.
pub fn plan_layers(
    out: &mut Outcome,
    tracer: &Tracer,
    samples: &[LayerSamples],
    arch: &ArchConfig,
    nmax: u32,
    settings: &CalibSettings,
    plans: &[LayerPlan],
) {
    let mut times = Vec::new();
    for layer in samples {
        let t = Instant::now();
        let plan = tracer.time(&format!("calib.plan_layer.{}", layer.label), None, || {
            plan_layer(layer, arch, nmax, settings)
        });
        times.push(crate::ms_since(t));
        out.check(
            format!("plan_layer {} matches plan_network", layer.label),
            plans.get(layer.mvm_index) == Some(&plan),
            "plan mismatch",
        );
    }
    out.metric("calib.plan_layer_max_ms", times.iter().copied().fold(f64::NAN, f64::max));
    out.metric("calib.plan_layer_sum_ms", times.iter().sum());
}

/// Saves `model` as the next generation in `dir`, with the encode step
/// in a `store.encode` span; returns the encoded size in bytes.
///
/// # Errors
///
/// Propagates snapshot, encode and write failures as text.
pub fn save(model: &Model, dir: &Path, tracer: &Tracer) -> Result<usize, String> {
    if !tracer.is_on() {
        return model.save_generation(dir).map(|_| 0).map_err(|e| e.to_string());
    }
    let snapshot = model.snapshot().map_err(|e| e.to_string())?;
    let bytes = tracer.time("store.encode", None, || trq_store::encode_snapshot(&snapshot));
    let size = bytes.map_err(|e| e.to_string())?.len();
    trq_store::save_generation(dir, &snapshot).map_err(|e| e.to_string())?;
    Ok(size)
}

/// Loads the newest generation in `dir`. Untraced, this is
/// `Model::load_latest`; traced, the same steps split into read, decode
/// and restore spans under one `store.load` span.
///
/// # Errors
///
/// Propagates read, decode and restore failures as text.
pub fn load(dir: &Path, tracer: &Tracer) -> Result<Model, String> {
    if !tracer.is_on() {
        return Model::load_latest(dir).map(|(_, m)| m).map_err(|e| e.to_string());
    }
    let root = tracer.open("store.load", None);
    let result = (|| {
        let (_, path) = trq_store::latest_generation(dir)
            .map_err(|e| e.to_string())?
            .ok_or("no snapshot generation")?;
        let bytes = tracer
            .time("store.read", Some(root), || std::fs::read(&path))
            .map_err(|e| e.to_string())?;
        let snapshot = tracer
            .time("store.decode", Some(root), || trq_store::decode_snapshot(&bytes))
            .map_err(|e| e.to_string())?;
        tracer
            .time("store.restore", Some(root), || Model::from_snapshot(&snapshot))
            .map_err(|e| e.to_string())
    })();
    tracer.close(root);
    result
}

/// Loads the newest generation in `dir` until `budget` has passed (at
/// least `min` times), one loaded model alive at a time; returns the
/// load times in ms and the last model loaded.
pub fn repeat_loads(
    out: &mut Outcome,
    dir: &Path,
    tracer: &Tracer,
    budget: Duration,
    min: usize,
) -> (Vec<f64>, Option<Model>) {
    let mut times = Vec::new();
    let mut loaded = None;
    let t0 = Instant::now();
    while times.len() < min || t0.elapsed() < budget {
        drop(loaded.take());
        let t = Instant::now();
        let got = load(dir, tracer);
        times.push(crate::ms_since(t));
        out.op(got.is_ok());
        loaded = got.ok();
    }
    (times, loaded)
}

/// Times each `mvm_into` call of the wrapped engine as a span named
/// `pim.mvm.<layer label>` under the current `forward_batch` span.
pub struct TimedEngine<'a> {
    /// The engine doing the work.
    pub inner: &'a mut PimMvm,
    /// Where spans go.
    pub tracer: &'a Tracer,
    /// The enclosing `nn.forward_batch` span.
    pub parent: Option<SpanId>,
}

impl MvmEngine for TimedEngine<'_> {
    fn mvm_into(
        &mut self,
        info: &MvmLayerInfo,
        weights_q: &[i32],
        cols: &[u8],
        n: usize,
        out: &mut [f64],
    ) {
        let t = Instant::now();
        self.inner.mvm_into(info, weights_q, cols, n, out);
        self.tracer.record(format!("pim.mvm.{}", info.label), t, Instant::now(), self.parent, None);
    }

    fn begin_session(&mut self) {
        self.inner.begin_session();
    }

    fn end_session(&mut self) {
        self.inner.end_session();
    }
}

/// What [`profile_forward`] measured.
#[derive(Debug, Clone, Default)]
pub struct ForwardProfile {
    /// Images per batch.
    pub images: usize,
    /// The ledger of one traced batch.
    pub ledger: PimStats,
    /// Images per second of each untraced batch.
    pub plain_ips: Vec<f64>,
    /// Images per second of each traced batch.
    pub traced_ips: Vec<f64>,
}

/// Runs `forward_batch` of `batch` through an engine programmed like
/// `model`'s until `budget` has passed (at least three pairs), traced and
/// untraced batches alternating, each going first in every other pair,
/// so that their difference is the cost of tracing and not of the order.
/// Checks that the traced ledgers repeat batch to batch.
pub fn profile_forward(
    out: &mut Outcome,
    model: &Model,
    batch: &[Tensor],
    budget: Duration,
    tracer: &Tracer,
) -> ForwardProfile {
    let qnet = model.qnet();
    let mut engine = PimMvm::new(*model.arch(), model.plan().to_vec());
    for layer in qnet.layers() {
        engine.program_layer(&layer.info, &layer.weights_q);
    }
    let _ = qnet.forward_batch(batch, &mut engine); // warm scratch arenas and the pool

    let mut profile = ForwardProfile { images: batch.len(), ..ForwardProfile::default() };
    let mut ledgers: Vec<PimStats> = Vec::new();
    let t_body = Instant::now();
    while profile.traced_ips.len() < 3 || t_body.elapsed() < budget {
        let traced_first = profile.traced_ips.len().is_multiple_of(2);
        for traced in [traced_first, !traced_first] {
            engine.reset_stats();
            let t = Instant::now();
            let ok = if traced {
                let root = tracer.open("nn.forward_batch", None);
                let timed = &mut TimedEngine { inner: &mut engine, tracer, parent: Some(root) };
                let ok = qnet.forward_batch(batch, timed).is_ok();
                tracer.close(root);
                ok
            } else {
                qnet.forward_batch(batch, &mut engine).is_ok()
            };
            let ips = batch.len() as f64 / t.elapsed().as_secs_f64();
            out.op(ok);
            if traced {
                profile.traced_ips.push(ips);
                ledgers.push(engine.stats().clone());
            } else {
                profile.plain_ips.push(ips);
            }
        }
    }
    out.check(
        "traced ledgers repeat batch to batch",
        ledgers.windows(2).all(|w| w[0] == w[1]),
        "ledger changed",
    );
    profile.ledger = ledgers.pop().unwrap_or_default();
    profile
}

/// Facts of a traced run that are not span durations.
#[derive(Debug, Clone, Default)]
pub struct Facts {
    /// BL samples seen by each calibration's collector.
    pub collect_samples: Vec<f64>,
    /// Size of the encoded snapshot, bytes.
    pub store_bytes: f64,
    /// The forward profile.
    pub forward: ForwardProfile,
}

/// Reports the calibration, engine, ledger and store metrics of a traced
/// run from its spans, and checks that the children of every
/// calibration, forward batch and load fit inside it. Timings are
/// medians per call; counts are per calibration or per image.
pub fn report(out: &mut Outcome, tracer: &Tracer, facts: &Facts) {
    let spans = tracer.spans();
    let med = |name: &str| median(&tracer.durations(name));
    let calibrations = tracer.durations("calib.calibrate").len().max(1) as f64;
    out.metric("calib.calibrate_ms", med("calib.calibrate"));
    out.metric("nn.quantize_ms", med("nn.quantize"));
    out.metric("calib.collect_ms", med("calib.collect"));
    out.metric("calib.collect_samples", median(&facts.collect_samples));
    out.metric("calib.plan_ms", med("calib.plan"));
    out.metric("calib.plan_calls", tracer.durations("calib.plan").len() as f64 / calibrations);
    out.metric("calib.eval_ms", med("calib.eval"));
    out.metric("calib.eval_calls", tracer.durations("calib.eval").len() as f64 / calibrations);
    out.metric("pim.program_ms", med("pim.program"));
    for step in ["encode", "read", "decode", "restore", "load"] {
        out.metric(format!("store.{step}_ms"), med(&format!("store.{step}")));
    }
    out.metric("store.bytes", facts.store_bytes);

    // forward batches: the MVM calls inside each, and the rest
    let self_ns = crate::trace::self_times(&spans);
    let (mut mvm, mut slowest, mut own) = (Vec::new(), Vec::new(), Vec::new());
    for (root, _) in spans.iter().enumerate().filter(|(_, s)| s.name == "nn.forward_batch") {
        let kids: Vec<f64> =
            spans.iter().filter(|s| s.parent == Some(root)).map(|s| s.ms()).collect();
        mvm.push(kids.iter().sum::<f64>());
        slowest.push(kids.iter().copied().fold(0.0, f64::max));
        own.push(self_ns[root] as f64 / 1e6);
    }
    let fwd = &facts.forward;
    let per_image = fwd.images.max(1) as f64;
    let windows: u64 = fwd.ledger.layers.iter().map(|l| l.windows).sum();
    out.metric("nn.forward_ms", med("nn.forward_batch"));
    out.metric("nn.self_ms", median(&own));
    out.metric("pim.mvm_ms", median(&mvm));
    out.metric("pim.mvm_layer_max_ms", median(&slowest));
    out.metric("pim.windows_per_s", windows as f64 / (median(&mvm) / 1e3));
    out.metric("adc.ops", fwd.ledger.ops() as f64 / per_image);
    out.metric("adc.conversions", fwd.ledger.conversions() as f64 / per_image);
    out.metric("trace.overhead_frac", 1.0 - median(&fwd.traced_ips) / median(&fwd.plain_ips));

    for parent in ["calib.calibrate", "nn.forward_batch", "store.load"] {
        span_sums(out, &spans, parent);
    }
}

/// Checks that, for every span named `parent`, its direct children add
/// up to no more than the span itself.
pub fn span_sums(out: &mut Outcome, spans: &[crate::trace::Span], parent: &str) {
    let mut worst = 0.0f64;
    let mut ok = true;
    let mut seen = 0;
    for (id, span) in spans.iter().enumerate().filter(|(_, s)| s.name == parent) {
        let children: u64 = spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns.saturating_sub(c.start_ns))
            .sum();
        let own = span.end_ns.saturating_sub(span.start_ns);
        worst = worst.max(children as f64 / own.max(1) as f64);
        ok &= children <= own;
        seen += 1;
    }
    out.check(
        format!("children of {parent} fit inside it"),
        ok && seen > 0,
        format!("{seen} spans, largest children/parent ratio {worst:.4}"),
    );
}
