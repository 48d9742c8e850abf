//! `bringup`: from a float network to a served model on disk and back.
//!
//! LeNet-5 is trained on synthetic digits during set-up. The timed body
//! repeats the full calibration (`QuantizedNetwork::quantize`, then
//! `collect_bl_samples`, then `algorithm1`), then programs the model,
//! saves a snapshot generation and loads it back several times. Nearly
//! all of the time goes to plan search in the calibration layer. A traced
//! run also runs and serves the calibrated model, so that every layer is
//! measured on it.
//!
//! The training set, calibration images and labelled evaluation set are
//! fixed, so the accepted plan — and with it `score`, `adc_ops_ratio` and
//! `adc_pj_per_image` — is the same for every seed. The seed permutes the
//! order of the evaluation set and draws the probe images that check the
//! loaded snapshot.

use crate::host::{nproc, peak_rss_mb, Stamp};
use crate::layers::{self, Facts};
use crate::outcome::Outcome;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::{identical, ms_since, serve, timed_setup, RunArgs, SplitMix};
use std::time::{Duration, Instant};
use trq_core::arch::ArchConfig;
use trq_core::calib::{
    algorithm1, collect_bl_samples, evaluate_plan, plan_network, Algorithm1Result, CalibError,
    CalibSettings, EvalMetric, LayerPlan,
};
use trq_core::pim::{AdcScheme, CollectorConfig, LayerSamples};
use trq_nn::{data, models, sgd_train, Network, QuantizedNetwork, TrainConfig};
use trq_serve::Model;
use trq_tensor::Tensor;

/// Fixed seed of the training set, the calibration images and the model.
const DATA_SEED: u64 = 20_240_308;
/// Fixed seed of the labelled evaluation set.
const EVAL_SEED: u64 = 20_240_309;
/// Share of the timed budget a traced run spends on forward batches of
/// the calibrated model, and again on serving it.
const TRACE_EXTRA_SHARE: f64 = 0.15;

/// Sizes of the workload.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Synthetic digits LeNet-5 trains on.
    pub train_images: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Images `quantize` takes activation scales from.
    pub cal_images: usize,
    /// Images the BL-sample collector runs.
    pub collect_images: usize,
    /// Labelled images Algorithm 1 scores plans on.
    pub eval_images: usize,
    /// Plan-search settings.
    pub settings: CalibSettings,
    /// Snapshot loads after each calibration.
    pub loads_per_rep: usize,
    /// Probe images the loaded snapshot must reproduce.
    pub probe_images: usize,
}

impl Config {
    /// The benchmark's configuration.
    pub fn full() -> Self {
        Config {
            train_images: 200,
            epochs: 8,
            cal_images: 32,
            collect_images: 4,
            eval_images: 64,
            settings: CalibSettings::default(),
            loads_per_rep: 40,
            probe_images: 8,
        }
    }

    /// A seconds-scale configuration for the benchmark's own tests.
    pub fn tiny() -> Self {
        Config {
            train_images: 60,
            epochs: 4,
            cal_images: 8,
            collect_images: 2,
            eval_images: 16,
            settings: CalibSettings { candidates: 6, theta: 0.1, ..CalibSettings::default() },
            loads_per_rep: 2,
            probe_images: 2,
        }
    }
}

/// Everything set-up produces.
pub struct Fixture {
    /// The trained float network.
    pub net: Network,
    /// Calibration images.
    pub cal: Vec<Tensor>,
    /// Labelled evaluation set, in seed-permuted order.
    pub eval: Vec<(Tensor, usize)>,
    /// Seeded probe images for the snapshot check.
    pub probes: Vec<Tensor>,
}

impl Fixture {
    /// Trains LeNet-5 and generates the data sets for `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the fixed LeNet-5 topology fails to build or train.
    pub fn build(cfg: &Config, seed: u64) -> Fixture {
        let mut net = models::lenet5(DATA_SEED).expect("static topology");
        let train = data::synthetic_digits(cfg.train_images, DATA_SEED);
        let tc =
            TrainConfig { epochs: cfg.epochs, lr: 0.02, momentum: 0.9, batch: 16, seed: DATA_SEED };
        sgd_train(&mut net, &train, &tc).expect("lenet5 is a chain network");
        let cal = train.iter().take(cfg.cal_images).map(|s| s.image.clone()).collect();
        let mut eval: Vec<(Tensor, usize)> = data::synthetic_digits(cfg.eval_images, EVAL_SEED)
            .into_iter()
            .map(|s| (s.image, s.label))
            .collect();
        SplitMix::new(seed, 1).shuffle(&mut eval);
        let probes =
            data::synthetic_digits(cfg.probe_images, seed).into_iter().map(|s| s.image).collect();
        Fixture { net, cal, eval, probes }
    }
}

/// One calibration's products.
pub struct Calibrated {
    /// The quantized network.
    pub qnet: QuantizedNetwork,
    /// The collected BL samples.
    pub samples: Vec<LayerSamples>,
    /// Algorithm 1's accepted plan and descent.
    pub result: Algorithm1Result,
}

/// The full calibration from float network to accepted plan — the unit
/// of work `throughput` counts.
///
/// # Errors
///
/// Propagates quantization and calibration failures as text.
pub fn calibrate(fx: &Fixture, cfg: &Config, arch: &ArchConfig) -> Result<Calibrated, String> {
    let qnet = QuantizedNetwork::quantize(&fx.net, &fx.cal).map_err(|e| e.to_string())?;
    let collect = &fx.cal[..cfg.collect_images.min(fx.cal.len())];
    let samples = collect_bl_samples(&qnet, arch, collect, CollectorConfig::default())
        .map_err(|e| e.to_string())?;
    let result = algorithm1(&qnet, arch, &samples, &EvalMetric::Labeled(&fx.eval), &cfg.settings)
        .map_err(|e| e.to_string())?;
    Ok(Calibrated { qnet, samples, result })
}

/// The `Nmax` descent of Algorithm 1 replayed through the public
/// `plan_network` / `evaluate_plan` calls, each inside its own span.
pub struct Replay {
    /// Every `(nmax, score)` visited, as `algorithm1` reports them.
    pub visited: Vec<(u32, f64)>,
    /// The accepted `Nmax` and plans — the widest setting's plans when
    /// no `Nmax` met θ, as `algorithm1` falls back.
    pub accepted: (u32, Vec<LayerPlan>),
    /// The score of the accepted plans.
    pub score: f64,
    /// The lossless-ADC reference score.
    pub reference_score: f64,
}

/// Replays the descent; spans go to `tracer` under `parent`.
///
/// # Errors
///
/// Propagates evaluation failures.
pub fn replay_descent(
    qnet: &QuantizedNetwork,
    arch: &ArchConfig,
    samples: &[LayerSamples],
    metric: &EvalMetric<'_>,
    settings: &CalibSettings,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Result<Replay, CalibError> {
    let ideal = vec![AdcScheme::Ideal; qnet.layers().len()];
    let reference =
        tracer.time("calib.eval", parent, || evaluate_plan(qnet, arch, &ideal, metric))?;
    let mut visited = Vec::new();
    let mut accepted = None;
    let widest = arch.adc_bits.saturating_sub(1).max(1);
    let mut nmax = widest;
    loop {
        let plans =
            tracer.time("calib.plan", parent, || plan_network(samples, arch, nmax, settings));
        let schemes: Vec<AdcScheme> = plans.iter().map(|p| p.scheme).collect();
        let eval =
            tracer.time("calib.eval", parent, || evaluate_plan(qnet, arch, &schemes, metric))?;
        visited.push((nmax, eval.score));
        if reference.score - eval.score > settings.theta {
            break;
        }
        accepted = Some((nmax, plans, eval.score));
        if nmax == 1 {
            break;
        }
        nmax -= 1;
    }
    let (nmax, plans, score) = match accepted {
        Some(a) => a,
        None => {
            let plans =
                tracer.time("calib.plan", parent, || plan_network(samples, arch, widest, settings));
            (widest, plans, visited.first().map_or(0.0, |v| v.1))
        }
    };
    Ok(Replay { visited, accepted: (nmax, plans), score, reference_score: reference.score })
}

/// Runs the workload in this process.
///
/// # Panics
///
/// Panics when set-up fails (a fixed, known-good configuration).
pub fn run(cfg: &Config, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let (fx, setup_s) = timed_setup(|| Fixture::build(cfg, args.seed));

    // calibration shards evaluation images and plan layers over the
    // persistent pool (nproc participants); each shard's engine runs
    // its tiles inline
    let arch = ArchConfig::default();
    out.stamp = Some(Stamp::capture(arch.exec.effective_threads(), nproc()));
    let dir = args.work_dir.join(format!("bringup-{}", args.proc_index));
    let _ = std::fs::remove_dir_all(&dir);
    let tracer = Tracer::when(args.trace);

    let mut per_s = Vec::new();
    let mut load_ms = Vec::new();
    let mut store_bytes = 0;
    let mut last: Option<(Calibrated, Model, Option<Model>)> = None;
    let t_body = Instant::now();
    while last.is_none() || t_body.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let cal = if args.trace {
            let root = tracer.open("calib.calibrate", None);
            let cal = traced_calibrate(&fx, cfg, &arch, &tracer, Some(root));
            tracer.close(root);
            cal
        } else {
            calibrate(&fx, cfg, &arch)
        };
        per_s.push(1.0 / t.elapsed().as_secs_f64());
        let cal = match cal {
            Ok(cal) => cal,
            Err(e) => {
                out.op(false);
                eprintln!("bringup: calibration failed: {e}");
                break;
            }
        };
        out.op(true);

        let schemes = cal.result.schemes.clone();
        let model = tracer.time("pim.program", None, || {
            Model::program("lenet5", cal.qnet.clone(), arch, schemes)
        });
        let saved = layers::save(&model, &dir, &tracer);
        out.op(saved.is_ok());
        store_bytes = saved.unwrap_or(0);
        let mut loaded = None;
        for _ in 0..cfg.loads_per_rep {
            drop(loaded.take()); // one loaded model alive at a time
            let t = Instant::now();
            let got = layers::load(&dir, &tracer);
            load_ms.push(ms_since(t));
            out.op(got.is_ok());
            loaded = got.ok();
        }
        last = Some((cal, model, loaded));
    }

    let Some((cal, mut model, loaded)) = last else {
        out.check("calibration completed", false, "no calibration finished");
        return out;
    };
    check(&mut out, cfg, args, &fx, &arch, &cal, &mut model, loaded);

    if args.trace {
        layers::plan_layers(
            &mut out,
            &tracer,
            &cal.samples,
            &arch,
            cal.result.nmax,
            &cfg.settings,
            &cal.result.plans,
        );
        let extra = args.seconds * TRACE_EXTRA_SHARE;
        let images: Vec<_> = fx.eval.iter().map(|(x, _)| x.clone()).collect();
        let forward = layers::profile_forward(
            &mut out,
            &model,
            &images,
            Duration::from_secs_f64(extra),
            &tracer,
        );
        let (rate, length) = serve::probe_traffic(median(&forward.plain_ips), extra);
        serve::probe(
            &mut out,
            vec![model],
            std::slice::from_ref(&fx.probes),
            rate,
            length,
            args.seed,
            &tracer,
        );
        let facts = Facts {
            collect_samples: vec![cal.samples.iter().map(|s| s.seen as f64).sum()],
            store_bytes: store_bytes as f64,
            forward,
        };
        layers::report(&mut out, &tracer, &facts);
        let _ = tracer
            .write_json(&args.work_dir.join(format!("trace-bringup-{}.json", args.proc_index)));
    } else {
        out.metric("setup_s", setup_s);
        out.metric("throughput", median(&per_s));
        out.metric("load_ms", median(&load_ms));
        out.metric("peak_rss_mb", peak_rss_mb());
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn traced_calibrate(
    fx: &Fixture,
    cfg: &Config,
    arch: &ArchConfig,
    tracer: &Tracer,
    root: Option<SpanId>,
) -> Result<Calibrated, String> {
    let qnet = tracer
        .time("nn.quantize", root, || QuantizedNetwork::quantize(&fx.net, &fx.cal))
        .map_err(|e| e.to_string())?;
    let collect = &fx.cal[..cfg.collect_images.min(fx.cal.len())];
    let samples = tracer
        .time("calib.collect", root, || {
            collect_bl_samples(&qnet, arch, collect, CollectorConfig::default())
        })
        .map_err(|e| e.to_string())?;
    let metric = EvalMetric::Labeled(&fx.eval);
    let replay = replay_descent(&qnet, arch, &samples, &metric, &cfg.settings, tracer, root)
        .map_err(|e| e.to_string())?;
    let (nmax, plans) = replay.accepted;
    let schemes = plans.iter().map(|p| p.scheme).collect();
    let result = Algorithm1Result {
        plans,
        schemes,
        nmax,
        score: replay.score,
        reference_score: replay.reference_score,
        visited: replay.visited,
    };
    Ok(Calibrated { qnet, samples, result })
}

#[allow(clippy::too_many_arguments)]
fn check(
    out: &mut Outcome,
    cfg: &Config,
    args: &RunArgs,
    fx: &Fixture,
    arch: &ArchConfig,
    cal: &Calibrated,
    model: &mut Model,
    loaded: Option<Model>,
) {
    let metric = EvalMetric::Labeled(&fx.eval);
    let result = &cal.result;

    // the exact metrics, from the accepted plan on the evaluation set
    match evaluate_plan(&cal.qnet, arch, &result.schemes, &metric) {
        Ok(eval) => {
            out.check(
                "accepted plan re-scores identically",
                eval.score == result.score,
                format!("evaluate_plan {} vs algorithm1 {}", eval.score, result.score),
            );
            if !args.trace {
                for (name, value) in layers::exact_metrics(&eval, fx.eval.len()) {
                    out.metric(name, value);
                }
            }
        }
        Err(e) => out.check("accepted plan evaluates", false, e.to_string()),
    }

    // the accepted plan respects θ, and the public-call replay of the
    // descent reproduces algorithm1's trace (in traced runs the timed
    // body *is* the replay, so compare against algorithm1 instead)
    if args.is_lead() {
        let untraced = Tracer::off();
        let (label, visited, reference, plans) = if args.trace {
            match algorithm1(&cal.qnet, arch, &cal.samples, &metric, &cfg.settings) {
                Ok(r) => ("algorithm1", r.visited, r.reference_score, (r.nmax, r.plans)),
                Err(e) => return out.check("algorithm1 runs", false, e.to_string()),
            }
        } else {
            match replay_descent(
                &cal.qnet,
                arch,
                &cal.samples,
                &metric,
                &cfg.settings,
                &untraced,
                None,
            ) {
                Ok(r) => ("replay", r.visited, r.reference_score, r.accepted),
                Err(e) => return out.check("descent replay runs", false, e.to_string()),
            }
        };
        out.check(
            "Nmax descent replay matches algorithm1",
            visited == result.visited,
            format!("{label} {visited:?} vs {:?}", result.visited),
        );
        out.check(
            "replayed plans match the accepted plans",
            plans.0 == result.nmax && plans.1 == result.plans,
            "plan mismatch",
        );
        out.check(
            "accepted plan respects theta",
            reference - result.score <= cfg.settings.theta,
            format!("reference {reference} accepted {}", result.score),
        );
    }

    // a loaded snapshot reproduces the programmed model's outputs and ledger
    match loaded {
        Some(mut loaded) => {
            let same = match (model.run_batch(&fx.probes), loaded.run_batch(&fx.probes)) {
                (Ok(want), Ok(got)) => identical(&want, &got),
                _ => false,
            };
            out.check("loaded snapshot reproduces outputs and ledger", same, "mismatch");
        }
        None => out.check("snapshot loads", false, "no load succeeded"),
    }
}
