//! The benchmark's own tests, on seconds-scale configurations of the
//! three workloads. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::outcome::Outcome;
use perfbench::trace::Tracer;
use perfbench::{bringup, infer, layers, serve, RunArgs};
use trq_core::arch::ArchConfig;
use trq_core::calib::{evaluate_plan, EvalMetric};

fn args(seed: u64, trace: bool, tag: &str) -> RunArgs {
    let work_dir =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    RunArgs { seed, seconds: 0.2, trace, proc_index: 0, work_dir }
}

fn assert_checks_pass(out: &Outcome) {
    for c in &out.checks {
        assert!(c.ok, "check failed: {}: {}", c.name, c.detail);
    }
    assert!(out.correct() && out.attempted > 0 && out.failed == 0, "{out:?}");
}

fn bits(out: &Outcome, names: &[&str]) -> Vec<u64> {
    names.iter().map(|n| out.value(n).to_bits()).collect()
}

const EXACT: [&str; 3] = ["score", "adc_ops_ratio", "adc_pj_per_image"];

/// The metric lists of `BENCHMARK.json`.
#[derive(serde::Deserialize)]
struct Manifest {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

#[derive(serde::Deserialize)]
struct Metric {
    name: String,
}

/// The names of one metric list of `BENCHMARK.json`.
fn manifest(list: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let manifest: Manifest = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let metrics = if list == "per_layer" { manifest.per_layer } else { manifest.end_to_end };
    metrics.into_iter().map(|m| m.name).collect()
}

/// Every workload reports every metric of the list its run mode prints,
/// and nothing else.
fn assert_reports_exactly(out: &Outcome, list: &str) {
    let mut want = manifest(list);
    want.sort();
    let got: Vec<String> = out.metrics.keys().cloned().collect();
    assert_eq!(got, want, "{list} metrics");
    for (name, value) in &out.metrics {
        assert!(value.is_some(), "{name} is not finite");
    }
}

#[test]
fn infer_exact_metrics_repeat_across_runs_threads_and_seeds() {
    let mut one = infer::Config::tiny();
    one.threads = 1;
    let mut two = infer::Config::tiny();
    two.threads = 2;
    let mut exact = Vec::new();
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-infer-exact");
    for cfg in [&one, &two, &one] {
        let fx = infer::Fixture::build(cfg, cfg.engine_threads(), &dir, &Tracer::off()).unwrap();
        exact.push(fx.exact_metrics().map(|(_, v)| v.to_bits()));
    }
    assert_eq!(exact[0], exact[1], "1 vs 2 engine threads");
    assert_eq!(exact[0], exact[2], "repeat run");

    // whole runs: exact metrics identical for another seed too
    let a = infer::run(&one, &args(1, false, "infer-a"));
    let b = infer::run(&two, &args(2, false, "infer-b"));
    assert_checks_pass(&a);
    assert_checks_pass(&b);
    assert_reports_exactly(&a, "end_to_end");
    assert_eq!(bits(&a, &EXACT), bits(&b, &EXACT));
}

#[test]
fn bringup_exact_metrics_repeat_across_runs_threads_and_seeds() {
    let cfg = bringup::Config::tiny();
    let mut exact = Vec::new();
    for (seed, threads) in [(1, 1), (1, 2), (2, 1)] {
        let fx = bringup::Fixture::build(&cfg, seed);
        let arch = ArchConfig::default()
            .with_exec(trq_core::arch::ExecConfig::serial().with_threads(threads));
        let cal = bringup::calibrate(&fx, &cfg, &arch).unwrap();
        let eval =
            evaluate_plan(&cal.qnet, &arch, &cal.result.schemes, &EvalMetric::Labeled(&fx.eval))
                .unwrap();
        let metrics = layers::exact_metrics(&eval, fx.eval.len()).map(|(_, v)| v.to_bits());
        exact.push((cal.result.visited.clone(), cal.result.schemes.clone(), metrics));
    }
    assert_eq!(exact[0], exact[1], "1 vs 2 engine threads");
    assert_eq!(exact[0], exact[2], "another seed");
}

#[test]
fn a_different_seed_changes_the_inputs() {
    let data =
        |xs: Vec<trq_tensor::Tensor>| xs.iter().map(|x| x.data().to_vec()).collect::<Vec<_>>();
    let cfg = infer::Config::tiny();
    assert_eq!(data(infer::timed_batch(&cfg, 1)), data(infer::timed_batch(&cfg, 1)));
    assert_ne!(data(infer::timed_batch(&cfg, 1)), data(infer::timed_batch(&cfg, 2)));

    let cfg = bringup::Config::tiny();
    let (a, b) = (bringup::Fixture::build(&cfg, 1), bringup::Fixture::build(&cfg, 2));
    assert_ne!(data(a.probes.clone()), data(b.probes.clone()));
    let labels = |f: &bringup::Fixture| f.eval.iter().map(|e| e.1).collect::<Vec<_>>();
    assert_ne!(labels(&a), labels(&b), "the evaluation order follows the seed");

    let cfg = serve::Config::tiny();
    let plan = |seed| {
        serve::arrivals(seed, 0, 1000.0, std::time::Duration::from_millis(200), cfg.pool, 2)
            .iter()
            .map(|a| (a.offset, a.model, a.image))
            .collect::<Vec<_>>()
    };
    assert_eq!(plan(1), plan(1));
    assert_ne!(plan(1), plan(2));
    let mix = plan(3).iter().filter(|a| a.1 == 0).count() as f64 / plan(3).len() as f64;
    assert!((0.6..0.9).contains(&mix), "3:1 model mix, got {mix}");
}

fn assert_span_checks(out: &Outcome, parents: &[&str]) {
    for parent in parents {
        let name = format!("children of {parent} fit inside it");
        assert!(out.checks.iter().any(|c| c.name == name && c.ok), "missing or failed: {name}");
    }
}

/// The span checks every traced run makes.
const SPAN_PARENTS: [&str; 3] = ["calib.calibrate", "nn.forward_batch", "store.load"];

#[test]
fn traced_infer_sums_fit_their_spans_and_report_every_layer() {
    let cfg = infer::Config::tiny();
    let out = infer::run(&cfg, &args(5, true, "infer-trace"));
    assert_checks_pass(&out);
    assert_span_checks(&out, &SPAN_PARENTS);
    assert_reports_exactly(&out, "per_layer");
    let m = |name: &str| out.value(name);
    for name in ["pim.mvm_ms", "pim.windows_per_s", "adc.ops", "adc.conversions", "store.decode_ms"]
    {
        assert!(m(name) > 0.0, "{name}");
    }
    assert!(m("pim.mvm_layer_max_ms") <= m("pim.mvm_ms") && m("nn.self_ms") >= 0.0);
    assert_eq!((m("calib.plan_calls"), m("calib.eval_calls")), (1.0, 1.0));
}

#[test]
fn traced_bringup_sums_fit_their_spans_and_report_every_layer() {
    let cfg = bringup::Config::tiny();
    let out = bringup::run(&cfg, &args(5, true, "bringup-trace"));
    assert_checks_pass(&out);
    assert_span_checks(&out, &SPAN_PARENTS);
    assert_reports_exactly(&out, "per_layer");
    let m = |name: &str| out.value(name);
    assert!(m("calib.plan_calls") >= 1.0 && m("calib.eval_calls") == m("calib.plan_calls") + 1.0);
    assert!(m("calib.plan_layer_max_ms") <= m("calib.plan_layer_sum_ms"));
    assert!(
        m("store.read_ms") + m("store.decode_ms") + m("store.restore_ms")
            <= m("store.load_ms") * 1.05
    );
    assert!(m("client.p99_samples") > 0.0 && m("serve.model_switches") == 0.0);
}

#[test]
fn serve_runs_untraced_and_traced() {
    let cfg = serve::Config::tiny();
    let plain = serve::run(&cfg, &args(7, false, "serve"));
    assert_checks_pass(&plain);
    assert_reports_exactly(&plain, "end_to_end");
    assert!(plain.value("throughput") >= cfg.start_rate);
    assert!(plain.value("load_ms") > 0.0 && plain.value("score") > 0.0);

    let traced = serve::run(&cfg, &args(7, true, "serve-trace"));
    assert_checks_pass(&traced);
    assert_span_checks(&traced, &SPAN_PARENTS);
    assert_reports_exactly(&traced, "per_layer");
    let m = |name: &str| traced.value(name);
    assert!(m("serve.batches") >= 1.0 && m("serve.batch_size_mean") >= 1.0);
    assert!(m("serve.model_switches") < m("serve.batches"));
    assert!((0.0..=1.0).contains(&m("serve.engine_busy_frac")));
    assert!(m("client.p99_samples") > 0.0 && m("client.p50_ms") > 0.0);
}

#[test]
fn the_climb_resolves_the_knee_in_fine_steps() {
    let cfg = serve::Config::full();
    // coarse: 1500 1650 1815 1997 2197 2417 2659 2925 pass, 3218 3540
    // fail twice each; fine: 2998 passes, 3073 and 3150 fail twice each
    let mut rates = Vec::new();
    let knee = serve::climb(&cfg, |_, rate| {
        rates.push(rate);
        rate <= 3000.0
    });
    assert_eq!(knee, 2998.0);
    assert_eq!(rates.len(), 17);

    // a failed step is retried, and one failed rate alone does not end
    // a climb
    assert_eq!(serve::climb(&cfg, |k, rate| k != 3 && rate <= 3000.0), 2998.0);
    assert_eq!(serve::climb(&cfg, |_, rate| rate != 1815.0 && rate <= 3000.0), 2998.0);
    // no pass at all: 0, after both climbs fail two rates at the start
    let mut steps = 0;
    assert_eq!(
        serve::climb(&cfg, |_, _| {
            steps += 1;
            false
        }),
        0.0
    );
    assert_eq!(steps, 8);
}
