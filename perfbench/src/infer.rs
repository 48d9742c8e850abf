//! `infer`: images to logits through the PIM engine.
//!
//! ResNet-20 (CIFAR-shaped, 22 MVM layers) runs under a TRQ plan that
//! set-up fixes with one `plan_network` call at a fixed `Nmax`. The timed
//! body repeats `forward_batch` of a fixed batch through `PimMvm` with
//! `nproc` engine threads, interleaved with snapshot loads of the model.
//! Calibration and serving do no timed work here; a traced run also
//! serves the model briefly so that every layer is measured on it.
//!
//! The model, its calibration images and the evaluation images are
//! fixed, so `score`, `adc_ops_ratio` and `adc_pj_per_image` are the same
//! for every seed; the seed draws the timed batch.

use crate::host::{nproc, peak_rss_mb, Stamp};
use crate::layers::{self, Facts, FixedCalibration};
use crate::outcome::Outcome;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{identical, ms_since, serve, RunArgs};
use std::path::Path;
use std::time::{Duration, Instant};
use trq_core::arch::{ArchConfig, ExecConfig, KernelSelect};
use trq_core::calib::CalibSettings;
use trq_core::pim::PimStats;
use trq_nn::{data, models, Network};
use trq_serve::Model;
use trq_tensor::Tensor;

/// Fixed seed of the ResNet-20 weights.
const MODEL_SEED: u64 = 20_240_308;
/// Fixed seed of the calibration images.
const CAL_SEED: u64 = 20_240_310;
/// Fixed seed of the evaluation images the exact metrics are taken on.
const EVAL_SEED: u64 = 20_240_311;
/// Images `quantize` takes activation scales from.
const CAL_IMAGES: usize = 8;
/// Images the fixed plan is scored on.
const EVAL_IMAGES: usize = 8;
/// The `Nmax` the plan is searched at.
const NMAX: u32 = 5;
/// Images per timed `forward_batch`.
const BATCH: usize = 4;
/// Share of the timed budget spent on batches (the rest loads).
const BATCH_SHARE: f64 = 0.7;

/// Sizes of the workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// The float network.
    pub model: fn() -> Network,
    /// Input generator: `(count, seed)` to images.
    pub images: fn(usize, u64) -> Vec<Tensor>,
    /// Images the BL-sample collector runs.
    pub collect_images: usize,
    /// Engine worker threads (`0` = one per hardware thread).
    pub threads: usize,
}

fn resnet20() -> Network {
    models::resnet20(MODEL_SEED).expect("static topology")
}

fn cifar(n: usize, seed: u64) -> Vec<Tensor> {
    data::synthetic_cifar(n, seed).into_iter().map(|s| s.image).collect()
}

fn small_mlp() -> Network {
    models::mlp(28 * 28, 16, 10, MODEL_SEED).expect("static topology")
}

fn digits(n: usize, seed: u64) -> Vec<Tensor> {
    data::synthetic_digits(n, seed).into_iter().map(|s| s.image).collect()
}

impl Config {
    /// The benchmark's configuration.
    pub fn full() -> Self {
        Config { model: resnet20, images: cifar, collect_images: 1, threads: 0 }
    }

    /// A seconds-scale configuration for the benchmark's own tests: the
    /// same code paths on a small MLP.
    pub fn tiny() -> Self {
        Config { model: small_mlp, images: digits, collect_images: 2, threads: 0 }
    }

    fn arch(&self, threads: usize) -> ArchConfig {
        ArchConfig::default().with_exec(ExecConfig::serial().with_threads(threads))
    }

    /// Engine threads after resolving `0` to the host's thread count.
    pub fn engine_threads(&self) -> usize {
        if self.threads == 0 {
            nproc()
        } else {
            self.threads
        }
    }
}

/// Everything set-up produces.
pub struct Fixture {
    /// The calibration at [`NMAX`], with the plan's score.
    pub calibration: FixedCalibration,
    /// The programmed model.
    pub model: Model,
    /// Encoded snapshot size in bytes (traced set-ups only; `0`
    /// otherwise).
    pub snapshot_bytes: usize,
}

impl Fixture {
    /// Calibrates the network at [`NMAX`] (one-thread engines), programs
    /// the model with `threads` engine threads and saves it to `dir`.
    ///
    /// # Errors
    ///
    /// Propagates calibration and save failures as text.
    pub fn build(
        cfg: &Config,
        threads: usize,
        dir: &Path,
        tracer: &Tracer,
    ) -> Result<Fixture, String> {
        let net = (cfg.model)();
        let cal = (cfg.images)(CAL_IMAGES, CAL_SEED);
        let eval = (cfg.images)(EVAL_IMAGES, EVAL_SEED);
        let calibration = layers::calibrate_fixed(
            &net,
            &cal,
            cfg.collect_images,
            &cfg.arch(1),
            NMAX,
            &eval,
            tracer,
        )?;
        let (qnet, schemes) = (calibration.qnet.clone(), calibration.schemes());
        let model = tracer.time("pim.program", None, || {
            Model::program("resnet20", qnet, cfg.arch(threads), schemes)
        });
        let snapshot_bytes = layers::save(&model, dir, tracer)?;
        Ok(Fixture { calibration, model, snapshot_bytes })
    }

    /// The exact metrics: the fixed plan scored on the evaluation images
    /// (top-1 agreement with the float network), the remaining
    /// A/D-operation ratio and modelled ADC energy per image.
    pub fn exact_metrics(&self) -> [(&'static str, f64); 3] {
        layers::exact_metrics(&self.calibration.eval, EVAL_IMAGES)
    }
}

/// The timed batch for `seed`.
pub fn timed_batch(cfg: &Config, seed: u64) -> Vec<Tensor> {
    (cfg.images)(BATCH, seed)
}

/// Runs the workload in this process.
///
/// # Panics
///
/// Panics when set-up fails (a fixed, known-good configuration).
pub fn run(cfg: &Config, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let threads = cfg.engine_threads();
    out.stamp = Some(Stamp::capture(threads, threads));
    let tracer = Tracer::when(args.trace);
    let dir = args.work_dir.join(format!("infer-{}", args.proc_index));
    let _ = std::fs::remove_dir_all(&dir);

    let t = Instant::now();
    let fx = Fixture::build(cfg, threads, &dir, &tracer).expect("set-up succeeds");
    let setup_s = t.elapsed().as_secs_f64();
    let exact = fx.exact_metrics();
    let Fixture { calibration: cal, mut model, snapshot_bytes } = fx;

    let batch = timed_batch(cfg, args.seed);
    // warm the pool and the engine's scratch arenas before timing
    let warm = model.run_batch(&batch);
    out.op(warm.is_ok());

    let mut loaded = None;
    let mut last = None;
    let mut profile = None;
    if args.trace {
        let budget = Duration::from_secs_f64(args.seconds * BATCH_SHARE);
        profile = Some(layers::profile_forward(&mut out, &model, &batch, budget, &tracer));
        let budget = Duration::from_secs_f64(args.seconds * (1.0 - BATCH_SHARE) / 2.0);
        loaded = layers::repeat_loads(&mut out, &dir, &tracer, budget, 3).1;
    } else {
        // batches and loads interleave, so both sample the whole timed
        // window; loads get `1 - BATCH_SHARE` of the time
        let mut images_per_s = Vec::new();
        let mut load_ms = Vec::new();
        let (mut batch_s, mut load_s) = (0.0, 0.0);
        let load_ratio = (1.0 - BATCH_SHARE) / BATCH_SHARE;
        let t_body = Instant::now();
        while images_per_s.len() < 3 || t_body.elapsed().as_secs_f64() < args.seconds {
            let t = Instant::now();
            let result = model.run_batch(&batch);
            let took = t.elapsed().as_secs_f64();
            batch_s += took;
            images_per_s.push(batch.len() as f64 / took);
            out.op(result.is_ok());
            last = result.ok();
            while load_s < batch_s * load_ratio {
                drop(loaded.take()); // one loaded model alive at a time
                let t = Instant::now();
                let got = layers::load(&dir, &tracer);
                load_s += t.elapsed().as_secs_f64();
                load_ms.push(ms_since(t));
                out.op(got.is_ok());
                loaded = got.ok();
            }
        }
        out.metric("setup_s", setup_s);
        out.metric("throughput", median(&images_per_s));
        out.metric("load_ms", median(&load_ms));
        out.metric("peak_rss_mb", peak_rss_mb());
        for (name, value) in exact {
            out.metric(name, value);
        }
    }

    check(&mut out, args, &cal, &batch, warm, last, loaded);
    if let Some(forward) = profile {
        let arch = cfg.arch(1);
        layers::plan_layers(
            &mut out,
            &tracer,
            &cal.samples,
            &arch,
            NMAX,
            &CalibSettings::default(),
            &cal.plans,
        );
        let (rate, length) = serve::probe_traffic(
            median(&forward.plain_ips),
            args.seconds * (1.0 - BATCH_SHARE) / 2.0,
        );
        serve::probe(&mut out, vec![model], &[batch], rate, length, args.seed, &tracer);
        let facts = Facts {
            collect_samples: vec![cal.samples.iter().map(|s| s.seen as f64).sum()],
            store_bytes: snapshot_bytes as f64,
            forward,
        };
        layers::report(&mut out, &tracer, &facts);
        let _ =
            tracer.write_json(&args.work_dir.join(format!("trace-infer-{}.json", args.proc_index)));
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn check(
    out: &mut Outcome,
    args: &RunArgs,
    cal: &FixedCalibration,
    batch: &[Tensor],
    warm: Result<(Vec<Tensor>, PimStats), trq_nn::NnError>,
    last: Option<(Vec<Tensor>, PimStats)>,
    loaded: Option<Model>,
) {
    let Ok(want) = warm else {
        return out.check("timed batch runs", false, "forward failed");
    };
    if let Some(last) = last {
        out.check(
            "repeated batches are bit-identical",
            identical(&last, &want),
            "outputs or ledger changed between batches",
        );
    }

    // outputs and ledger at nproc engine threads on the resolved kernel
    // tier equal those of one thread on the scalar kernel, the pinned
    // reference every tier must match bit for bit (`TRQ_KERNEL`, when
    // set, overrides both and is in the stamp)
    if args.is_lead() {
        let reference =
            ArchConfig::default().with_exec(ExecConfig::serial().with_kernel(KernelSelect::Scalar));
        let mut serial = Model::program("resnet20", cal.qnet.clone(), reference, cal.schemes());
        out.check(
            "nproc-thread batch equals the 1-thread scalar-kernel batch",
            serial.run_batch(batch).is_ok_and(|s| identical(&s, &want)),
            "outputs or ledger differ from the scalar 1-thread reference",
        );
    }

    // a loaded snapshot reproduces the programmed model
    match loaded {
        Some(mut loaded) => out.check(
            "loaded snapshot reproduces outputs and ledger",
            loaded.run_batch(batch).is_ok_and(|l| identical(&l, &want)),
            "mismatch",
        ),
        None => out.check("snapshot loads", false, "no load succeeded"),
    }
}
