//! `serve`: request to response through the micro-batching server.
//!
//! Two resident MLPs (784×32×10 and 784×24×10) run behind
//! `Server::start` with one engine thread. One client thread sends an
//! open loop: seeded Poisson arrival times, a seeded 3:1 model mix and
//! seeded images, paced by sleeping so that client and batcher fit in two
//! cores. Each request is timed from when it was due, so a stall counts
//! against every request it delays. With models this small, queueing,
//! batch formation and ticket completion are a large share of a request.
//!
//! An untraced run loads the two models' snapshots, then climbs the
//! offered rate, first in coarse steps and then in fine steps from the
//! highest coarse pass, each climb ending when two rates in a row fail;
//! `throughput` is the highest rate that passed. A rate passes when one
//! of two steps at it passes. A step passes when every request is served
//! bit-identically to the serial reference, its p99 latency from due
//! stays under the limit, and the queue is not growing when the step
//! ends. A traced run instead sends one base step at a fixed rate
//! through [`probe`], which `bringup` and `infer` also use to serve their
//! own models, and breaks its requests down by layer.

use crate::host::{peak_rss_mb, Stamp};
use crate::layers::{self, Facts, FixedCalibration};
use crate::outcome::Outcome;
use crate::stats::{mean, median, quantile};
use crate::trace::Tracer;
use crate::{identical, timed_setup, RunArgs, SplitMix};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trq_core::arch::{ArchConfig, ExecConfig};
use trq_core::calib::{CalibSettings, PlanEval};
use trq_core::pim::PimStats;
use trq_nn::{data, models, NnError};
use trq_serve::{
    BatchBackend, BatchPolicy, Model, ModelId, Registry, RegistryBackend, ServeError, ServeReport,
    Server, Ticket,
};
use trq_tensor::Tensor;

/// Fixed seed of the two models and their calibration images.
const MODEL_SEED: u64 = 20_240_308;
/// Fixed seed of the evaluation images the exact metrics are taken on.
const EVAL_SEED: u64 = 20_240_312;
/// Evaluation images per model.
const EVAL_IMAGES: usize = 64;
/// Hidden widths of the two MLPs.
const HIDDEN: [usize; 2] = [32, 24];
/// The `Nmax` both plans are searched at.
const NMAX: u32 = 5;
/// Share of requests that go to the first model.
const FIRST_SHARE: f64 = 0.75;
/// p99 latency-from-due limit a step must stay under (ms): well above
/// the p99 of a host stall at a sustainable rate, so that overload and
/// not jitter fails a step.
const LIMIT_MS: f64 = 60.0;
/// Requests (four full batches) that may still be queued when a step has
/// been sent: a stall of a few ms at the end of a step queues 20–60,
/// while 5% of overload for one step queues about 70 more.
const BACKLOG: usize = 64;
/// Rate ratio between steps of the coarse climb, which finds the knee.
const COARSE_STEP: f64 = 1.10;
/// Rate ratio between steps of the fine climb, which resolves it.
const FINE_STEP: f64 = 1.025;

/// Share of the timed budget spent loading snapshots.
const LOAD_SHARE: f64 = 0.15;
/// Offered load of a probe of another workload's model, as a share of
/// the model's measured batch throughput: served batches are smaller
/// than the measured ones, so this keeps the probe below saturation.
const PROBE_LOAD: f64 = 0.3;
/// Requests a probe of another workload's model sends at least.
const PROBE_REQUESTS: f64 = 24.0;

/// Sizes and traffic of the workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// Distinct images per model the client draws from.
    pub pool: usize,
    /// Rate of the traced run's base step (requests/s).
    pub base_rate: f64,
    /// First offered rate of the climb (requests/s).
    pub start_rate: f64,
    /// No step offers more than this (requests/s).
    pub top_rate: f64,
    /// Length of one step of the climb.
    pub step: Duration,
}

impl Config {
    /// The benchmark's configuration.
    pub fn full() -> Self {
        Config {
            pool: 64,
            base_rate: 1000.0,
            start_rate: 1500.0,
            top_rate: 30_000.0,
            step: Duration::from_millis(400),
        }
    }

    /// A seconds-scale configuration for the benchmark's own tests.
    pub fn tiny() -> Self {
        Config {
            start_rate: 500.0,
            top_rate: 1000.0,
            base_rate: 500.0,
            step: Duration::from_millis(100),
            pool: 8,
        }
    }
}

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Due time, from the start of its step.
    pub offset: Duration,
    /// Which model (index into the served models).
    pub model: usize,
    /// Which image of that model's pool.
    pub image: usize,
}

/// The seeded arrivals of one step: Poisson at `rate` for `length`, each
/// request drawing one of `pool` images. With two models, a share
/// [`FIRST_SHARE`] of the requests goes to the first.
pub fn arrivals(
    seed: u64,
    step: u64,
    rate: f64,
    length: Duration,
    pool: usize,
    models: usize,
) -> Vec<Arrival> {
    let mut rng = SplitMix::new(seed, 100 + step);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= length.as_secs_f64() {
            return out;
        }
        let model = usize::from(rng.next_f64() >= FIRST_SHARE).min(models.saturating_sub(1));
        out.push(Arrival { offset: Duration::from_secs_f64(t), model, image: rng.below(pool) });
    }
}

/// The two models, their image pools and what set-up measured of them.
pub struct Fixture {
    /// Programmed single-thread models, in registry order.
    pub models: Vec<Model>,
    /// Per model: the images the client sends.
    pub pools: Vec<Vec<Tensor>>,
    /// Per model: its calibration at [`NMAX`].
    pub calibrations: Vec<FixedCalibration>,
    /// Encoded size of the first model's snapshot in bytes (traced
    /// set-ups only; `0` otherwise).
    pub snapshot_bytes: usize,
}

impl Fixture {
    /// Calibrates (plan searched at [`NMAX`], scored on fixed images),
    /// programs and saves both MLPs — each into its own directory under
    /// `dir` — and draws the image pools for `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the fixed models fail to build, calibrate or save.
    pub fn build(cfg: &Config, seed: u64, dir: &Path, tracer: &Tracer) -> Fixture {
        let cal: Vec<Tensor> =
            data::synthetic_digits(16, MODEL_SEED).into_iter().map(|s| s.image).collect();
        let eval: Vec<Tensor> =
            data::synthetic_digits(EVAL_IMAGES, EVAL_SEED).into_iter().map(|s| s.image).collect();
        let arch = ArchConfig::default().with_exec(ExecConfig::serial());
        let mut models = Vec::new();
        let mut calibrations = Vec::new();
        let mut snapshot_bytes = Vec::new();
        for (i, &hidden) in HIDDEN.iter().enumerate() {
            let net =
                models::mlp(28 * 28, hidden, 10, MODEL_SEED + i as u64).expect("static topology");
            let calibration = layers::calibrate_fixed(&net, &cal, 4, &arch, NMAX, &eval, tracer)
                .expect("calibration succeeds");
            let (qnet, schemes) = (calibration.qnet.clone(), calibration.schemes());
            let name = format!("mlp{hidden}");
            let model =
                tracer.time("pim.program", None, || Model::program(&name, qnet, arch, schemes));
            snapshot_bytes
                .push(layers::save(&model, &dir.join(&name), tracer).expect("snapshot saves"));
            models.push(model);
            calibrations.push(calibration);
        }
        let pools = (0..HIDDEN.len())
            .map(|i| {
                data::synthetic_digits(cfg.pool, seed.wrapping_add(i as u64 * 7919))
                    .into_iter()
                    .map(|s| s.image)
                    .collect()
            })
            .collect();
        Fixture { models, pools, calibrations, snapshot_bytes: snapshot_bytes[0] }
    }

    /// Both models' evaluations as one: the mean score and the merged
    /// ledger, over `2 × EVAL_IMAGES` images.
    pub fn eval(&self) -> (PlanEval, usize) {
        let mut stats = PimStats::default();
        for c in &self.calibrations {
            stats.merge(&c.eval.stats);
        }
        let score = mean(&self.calibrations.iter().map(|c| c.eval.score).collect::<Vec<_>>());
        (PlanEval { score, stats }, self.calibrations.len() * EVAL_IMAGES)
    }
}

/// Each pool image's output from its model's serial per-image `forward`
/// — what every served response must equal.
///
/// # Errors
///
/// Propagates forward failures.
pub fn reference(
    models: &mut [Model],
    pools: &[Vec<Tensor>],
) -> Result<Vec<Vec<Vec<f32>>>, NnError> {
    models
        .iter_mut()
        .zip(pools)
        .map(|(model, pool)| {
            pool.iter().map(|x| model.forward(x).map(|y| y.data().to_vec())).collect()
        })
        .collect()
}

/// One batch as the timing backend saw it.
#[derive(Debug, Clone, Copy)]
pub struct BatchRecord {
    /// When the engine started the batch.
    pub start: Instant,
    /// When it finished.
    pub end: Instant,
    /// Which model ran.
    pub model: ModelId,
    /// Requests in the batch.
    pub size: usize,
}

/// Wraps the registry backend, recording every batch's engine interval.
pub struct TimedBackend {
    inner: RegistryBackend,
    batches: Arc<Mutex<Vec<BatchRecord>>>,
}

impl BatchBackend for TimedBackend {
    fn run_batch(
        &mut self,
        model: ModelId,
        images: &[Tensor],
    ) -> Result<(Vec<Tensor>, PimStats), NnError> {
        let start = Instant::now();
        let out = self.inner.run_batch(model, images);
        let record = BatchRecord { start, end: Instant::now(), model, size: images.len() };
        self.batches.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(record);
        out
    }

    fn recover(&mut self, model: ModelId) -> Result<(), ServeError> {
        self.inner.recover(model)
    }
}

/// What the client saw of one request.
#[derive(Debug, Clone)]
pub struct Served {
    /// Request number within the run.
    pub id: u64,
    /// When it was due.
    pub due: Instant,
    /// When `submit` returned.
    pub submitted: Instant,
    /// How long the `submit` call took.
    pub submit: Duration,
    /// When the server completed it: the instant `submit` was called plus
    /// `Response::latency`. The server starts that latency when it
    /// enqueues the request, inside `submit`, so this reads early by the
    /// part of `submit` before the enqueue (at most `submit`), never late.
    pub completed: Instant,
    /// Whether it was served with the reference output.
    pub ok: bool,
}

impl Served {
    /// Latency from due to completion, in ms.
    pub fn latency_ms(&self) -> f64 {
        self.completed.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }

    /// How late the client submitted it, in ms.
    pub fn late_ms(&self) -> f64 {
        self.submitted.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// The outcome of one step.
#[derive(Debug, Clone)]
pub struct Step {
    /// Every request of the step.
    pub requests: Vec<Served>,
    /// Queue length when the last request had been submitted.
    pub queue_at_end: usize,
}

impl Step {
    /// Latencies from due, ms.
    pub fn latencies(&self) -> Vec<f64> {
        self.requests.iter().map(Served::latency_ms).collect()
    }

    /// Requests served with the reference output.
    pub fn served(&self) -> usize {
        self.requests.iter().filter(|r| r.ok).count()
    }
}

/// A request sent and not yet seen completed.
struct Pending {
    id: u64,
    arrival: Arrival,
    due: Instant,
    submitted: Instant,
    submit: Duration,
    ticket: Result<Ticket, ServeError>,
}

impl Pending {
    fn finish(
        self,
        reference: &[Vec<Vec<f32>>],
        response: Result<trq_serve::Response, ServeError>,
    ) -> Served {
        let Pending { id, arrival: a, due, submitted, submit, .. } = self;
        let called = submitted - submit;
        let (ok, completed) = match response {
            Ok(r) => {
                (r.output.data() == reference[a.model][a.image].as_slice(), called + r.latency)
            }
            Err(_) => (false, Instant::now()),
        };
        Served { id, due, submitted, submit, completed, ok }
    }
}

/// Sends `plan` to `server` as an open loop from the calling thread and
/// collects every response. Completion times come from the server's own
/// latency stamp, so the client only polls finished tickets between
/// sends and needs no second thread.
pub fn run_step(
    server: &Server,
    ids: &[ModelId],
    pools: &[Vec<Tensor>],
    reference: &[Vec<Vec<f32>>],
    plan: &[Arrival],
    first_id: u64,
) -> Step {
    let mut pending: std::collections::VecDeque<Pending> = std::collections::VecDeque::new();
    let mut requests = Vec::with_capacity(plan.len());
    let t0 = Instant::now() + Duration::from_millis(2);
    for (i, a) in plan.iter().enumerate() {
        let due = t0 + a.offset;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let t = Instant::now();
        let ticket = server.submit(ids[a.model], pools[a.model][a.image].clone());
        let submitted = Instant::now();
        let id = first_id + i as u64;
        pending.push_back(Pending {
            id,
            arrival: *a,
            due,
            submitted,
            submit: submitted - t,
            ticket,
        });
        // batches complete in arrival order: harvest finished heads
        while let Some(head) = pending.front() {
            let done = match &head.ticket {
                Ok(ticket) => ticket.poll(),
                Err(e) => Some(Err(e.clone())),
            };
            let Some(response) = done else { break };
            if let Some(head) = pending.pop_front() {
                requests.push(head.finish(reference, response));
            }
        }
    }
    let queue_at_end = server.queue_len();
    for mut p in pending {
        let ticket = std::mem::replace(&mut p.ticket, Err(ServeError::ShuttingDown));
        let response = ticket.and_then(Ticket::wait);
        requests.push(p.finish(reference, response));
    }
    Step { requests, queue_at_end }
}

/// Whether a step meets the latency limit with no growing backlog.
pub fn step_passes(step: &Step) -> bool {
    step.served() == step.requests.len()
        && !step.requests.is_empty()
        && quantile(&step.latencies(), 0.99) < LIMIT_MS
        && step.queue_at_end <= BACKLOG
}

/// Climbs the offered rate from `cfg.start_rate` and returns the highest
/// rate that passed, or 0 if none did. `step(k, rate)` runs the `k`-th
/// step (counting from 1) and says whether it passed; a rate passes when
/// one of at most two steps at it does. A coarse climb in steps of
/// [`COARSE_STEP`] ends after two failed rates in a row; a fine climb in
/// steps of [`FINE_STEP`] then starts just above the highest pass and
/// ends the same way. No step goes above `cfg.top_rate`.
pub fn climb(cfg: &Config, mut step: impl FnMut(u64, f64) -> bool) -> f64 {
    let mut max_rps = 0.0;
    let mut k = 0;
    for ratio in [COARSE_STEP, FINE_STEP] {
        let mut rate = if max_rps > 0.0 { (max_rps * ratio).round() } else { cfg.start_rate };
        let mut fails = 0;
        while fails < 2 && rate <= cfg.top_rate {
            // a rate passes when either of two tries does: a host stall
            // can fail one step by itself, an overload fails both
            let mut try_step = || {
                k += 1;
                step(k, rate)
            };
            if try_step() || try_step() {
                max_rps = rate;
                fails = 0;
            } else {
                fails += 1;
            }
            rate = (rate * ratio).round();
        }
    }
    max_rps
}

/// The traffic of a probe of a model that serves `images_per_s` in
/// batches: its rate, and a length of at least `seconds` and long enough
/// for [`PROBE_REQUESTS`] requests.
pub fn probe_traffic(images_per_s: f64, seconds: f64) -> (f64, Duration) {
    let rate = PROBE_LOAD * images_per_s;
    (rate, Duration::from_secs_f64(seconds.max(PROBE_REQUESTS / rate)))
}

/// A server over `models` — traced, through `Server::with_worker` with a
/// [`TimedBackend`] around the registry backend; untraced, through
/// `Server::start` — with its model ids and the batch records the timing
/// backend fills.
fn start(models: Vec<Model>, traced: bool) -> (Server, Vec<ModelId>, Arc<Mutex<Vec<BatchRecord>>>) {
    let mut registry = Registry::new();
    let ids: Vec<ModelId> = models.into_iter().map(|m| registry.insert(m)).collect();
    let batches = Arc::new(Mutex::new(Vec::new()));
    let server = if traced {
        let backend =
            TimedBackend { inner: RegistryBackend::new(registry), batches: Arc::clone(&batches) };
        Server::with_worker(BatchPolicy::default(), move |source| source.serve(backend))
    } else {
        Server::start(registry, BatchPolicy::default())
    };
    (server, ids, batches)
}

/// Sends one warm-up request per model, untimed; returns how many failed.
fn warm_up(server: &Server, ids: &[ModelId], pools: &[Vec<Tensor>]) -> usize {
    ids.iter()
        .zip(pools)
        .filter(|(&id, pool)| server.submit(id, pool[0].clone()).and_then(Ticket::wait).is_err())
        .count()
}

/// Checks that all `sent` requests were `served` correctly and that the
/// server's report accounts for each (plus the `warm` warm-up requests).
fn check_served(out: &mut Outcome, sent: usize, served: usize, report: &ServeReport, warm: usize) {
    out.check(
        "served outputs equal each model's serial per-image forward",
        served == sent,
        format!("{} of {sent} requests wrong or failed", sent - served),
    );
    out.check(
        "server report counts every request",
        report.failed == 0 && report.requests as usize == sent + warm,
        format!("report {} served, {} failed; client sent {sent}", report.requests, report.failed),
    );
}

/// Serves `models` through a traced server: one step of seeded open-loop
/// traffic at `rate` for `length` over the image `pools`, checked against
/// each model's serial per-image `forward`. Reports the `serve.*` and
/// `client.*` per-layer metrics and records every request's spans in
/// `tracer`.
pub fn probe(
    out: &mut Outcome,
    mut models: Vec<Model>,
    pools: &[Vec<Tensor>],
    rate: f64,
    length: Duration,
    seed: u64,
    tracer: &Tracer,
) {
    let reference = match reference(&mut models, pools) {
        Ok(r) => r,
        Err(e) => return out.check("serial reference runs", false, e.to_string()),
    };
    let (server, ids, batches) = start(models, true);
    let warm = ids.len();
    let cold = warm_up(&server, &ids, pools);
    out.check("warm-up requests are served", cold == 0, format!("{cold} failed"));
    batches.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clear();

    let pool = pools.iter().map(Vec::len).min().unwrap_or(1);
    let plan = arrivals(seed, 0, rate, length, pool, ids.len());
    let t = Instant::now();
    let step = run_step(&server, &ids, pools, &reference, &plan, 0);
    let wall = t.elapsed();
    let report = server.shutdown();
    let served = step.served();
    out.attempted += step.requests.len() as u64;
    out.failed += (step.requests.len() - served) as u64;
    check_served(out, step.requests.len(), served, &report, warm);

    let batches = batches.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone();
    per_layer(out, &step, wall, &batches, &report);
    trace_requests(tracer, &step, &batches);
}

/// Runs the workload in this process.
///
/// # Panics
///
/// Panics when set-up fails (a fixed, known-good configuration).
pub fn run(cfg: &Config, args: &RunArgs) -> Outcome {
    // the batcher runs the engine inline; the client waits on tickets or
    // sleeps
    let mut out = Outcome { stamp: Some(Stamp::capture(1, 2)), ..Outcome::default() };
    let dir = args.work_dir.join(format!("serve-{}", args.proc_index));
    let tracer = Tracer::when(args.trace);
    // set-up saves a new generation each time; only the last set-up's
    // spans are kept
    let (mut fx, setup_s) = timed_setup(|| {
        let _ = std::fs::remove_dir_all(&dir);
        tracer.clear();
        Fixture::build(cfg, args.seed, &dir, &tracer)
    });
    let (eval, images) = fx.eval();
    for (name, value) in layers::exact_metrics(&eval, images) {
        if !args.trace {
            out.metric(name, value);
        }
    }

    // snapshot loads of both models, alternating, one model alive at a
    // time; each loaded model must reproduce its programmed original
    let budget = Duration::from_secs_f64(args.seconds * LOAD_SHARE / fx.models.len() as f64);
    let mut load_ms = Vec::new();
    for _ in 0..2 {
        for (model, pool) in fx.models.iter_mut().zip(&fx.pools) {
            let (times, loaded) =
                layers::repeat_loads(&mut out, &dir.join(model.name()), &tracer, budget / 2, 2);
            load_ms.extend(times);
            let same = match (loaded, model.run_batch(pool)) {
                (Some(mut loaded), Ok(want)) => {
                    loaded.run_batch(pool).is_ok_and(|g| identical(&g, &want))
                }
                _ => false,
            };
            out.check(
                format!("loaded {} reproduces outputs and ledger", model.name()),
                same,
                "mismatch",
            );
        }
    }

    if args.trace {
        let mut facts = Facts {
            collect_samples: fx
                .calibrations
                .iter()
                .map(|c| c.samples.iter().map(|s| s.seen as f64).sum())
                .collect(),
            store_bytes: fx.snapshot_bytes as f64,
            ..Facts::default()
        };
        let first = &fx.calibrations[0];
        layers::plan_layers(
            &mut out,
            &tracer,
            &first.samples,
            fx.models[0].arch(),
            NMAX,
            &CalibSettings::default(),
            &first.plans,
        );
        let budget = Duration::from_secs_f64(args.seconds * LOAD_SHARE);
        facts.forward =
            layers::profile_forward(&mut out, &fx.models[0], &fx.pools[0], budget, &tracer);
        let length = Duration::from_secs_f64(args.seconds * (1.0 - 2.0 * LOAD_SHARE));
        probe(
            &mut out,
            std::mem::take(&mut fx.models),
            &fx.pools,
            cfg.base_rate,
            length,
            args.seed,
            &tracer,
        );
        layers::report(&mut out, &tracer, &facts);
        let _ =
            tracer.write_json(&args.work_dir.join(format!("trace-serve-{}.json", args.proc_index)));
    } else {
        let reference = match reference(&mut fx.models, &fx.pools) {
            Ok(r) => r,
            Err(e) => {
                out.check("serial reference runs", false, e.to_string());
                return out;
            }
        };
        let (server, ids, _) = start(std::mem::take(&mut fx.models), false);
        let cold = warm_up(&server, &ids, &fx.pools);
        out.check("warm-up requests are served", cold == 0, format!("{cold} failed"));
        let (mut sent, mut served, mut first_id) = (0, 0, 0);
        let max_rps = climb(cfg, |k, rate| {
            let plan = arrivals(args.seed, k, rate, cfg.step, cfg.pool, ids.len());
            let step = run_step(&server, &ids, &fx.pools, &reference, &plan, first_id);
            first_id += plan.len() as u64;
            sent += step.requests.len();
            served += step.served();
            step_passes(&step)
        });
        let report = server.shutdown();
        out.attempted += sent as u64;
        out.failed += (sent - served) as u64;
        check_served(&mut out, sent, served, &report, ids.len());
        out.metric("setup_s", setup_s);
        out.metric("throughput", max_rps);
        out.metric("load_ms", median(&load_ms));
        out.metric("peak_rss_mb", peak_rss_mb());
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// The batch that completed `request`: the last one ending at or before
/// its completion.
fn batch_of<'b>(batches: &'b [BatchRecord], request: &Served) -> Option<&'b BatchRecord> {
    let slack = Duration::from_micros(200);
    let i = batches.partition_point(|b| b.end <= request.completed + slack);
    i.checked_sub(1).map(|i| &batches[i])
}

fn per_layer(
    out: &mut Outcome,
    base: &Step,
    wall: Duration,
    batches: &[BatchRecord],
    report: &ServeReport,
) {
    let engine_ms: Vec<f64> =
        batches.iter().map(|b| b.end.duration_since(b.start).as_secs_f64() * 1e3).collect();
    let queue_wait_ms: Vec<f64> = base
        .requests
        .iter()
        .filter_map(|r| {
            batch_of(batches, r)
                .map(|b| b.start.saturating_duration_since(r.submitted).as_secs_f64() * 1e3)
        })
        .collect();
    let switches = batches.windows(2).filter(|w| w[0].model != w[1].model).count();
    let latencies = base.latencies();
    out.metric("serve.engine_ms", median(&engine_ms));
    out.metric(
        "serve.engine_busy_frac",
        engine_ms.iter().sum::<f64>() / (wall.as_secs_f64() * 1e3),
    );
    out.metric("serve.queue_wait_ms", median(&queue_wait_ms));
    out.metric(
        "serve.batch_size_mean",
        mean(&batches.iter().map(|b| b.size as f64).collect::<Vec<_>>()),
    );
    out.metric("serve.batches", batches.len() as f64);
    out.metric("serve.model_switches", switches as f64);
    out.metric(
        "serve.submit_us",
        median(&base.requests.iter().map(|r| r.submit.as_secs_f64() * 1e6).collect::<Vec<_>>()),
    );
    out.metric("serve.shed", report.shed as f64);
    out.metric("serve.expired", report.deadline_expired as f64);
    out.metric("serve.failed", report.failed as f64);
    out.metric(
        "client.late_ms",
        median(&base.requests.iter().map(Served::late_ms).collect::<Vec<_>>()),
    );
    out.metric("client.p50_ms", median(&latencies));
    out.metric("client.p99_ms", quantile(&latencies, 0.99));
    out.metric("client.p99_samples", latencies.len() as f64);
}

/// Records the spans of a served step in `tracer`: one `serve.request`
/// per request (from due to completion) with its `serve.submit` and
/// `serve.queue` children, and one `serve.engine` span per batch.
fn trace_requests(tracer: &Tracer, base: &Step, batches: &[BatchRecord]) {
    for b in batches {
        tracer.record("serve.engine", b.start, b.end, None, None);
    }
    for r in &base.requests {
        let root = tracer.record("serve.request", r.due, r.completed, None, Some(r.id));
        tracer.record("serve.submit", r.submitted - r.submit, r.submitted, Some(root), Some(r.id));
        if let Some(b) = batch_of(batches, r) {
            tracer.record(
                "serve.queue",
                r.submitted,
                b.start.max(r.submitted),
                Some(root),
                Some(r.id),
            );
        }
    }
}
