//! One worker process of the benchmark: runs one workload and prints its
//! outcome as one line of JSON. `run.py` starts these and aggregates.
//!
//! Usage: `perfbench <bringup|infer|serve> --seed N --seconds S
//! --trace 0|1 --proc I --work DIR`

use perfbench::{bringup, infer, serve, RunArgs};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(workload) = argv.first().cloned() else {
        eprintln!("usage: perfbench <bringup|infer|serve> --seed N --seconds S --trace 0|1 --proc I --work DIR");
        std::process::exit(2);
    };
    let flag = |name: &str| {
        argv.windows(2).find(|w| w[0] == name).map(|w| w[1].clone()).unwrap_or_else(|| {
            eprintln!("perfbench: missing {name}");
            std::process::exit(2)
        })
    };
    let number = |name: &str| {
        flag(name).parse::<f64>().unwrap_or_else(|_| {
            eprintln!("perfbench: {name} must be a number");
            std::process::exit(2)
        })
    };
    let args = RunArgs {
        seed: number("--seed") as u64,
        seconds: number("--seconds"),
        trace: flag("--trace") == "1",
        proc_index: number("--proc") as usize,
        work_dir: flag("--work").into(),
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    let outcome = match workload.as_str() {
        "bringup" => bringup::run(&bringup::Config::full(), &args),
        "infer" => infer::run(&infer::Config::full(), &args),
        "serve" => serve::run(&serve::Config::full(), &args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    for c in outcome.checks.iter().filter(|c| !c.ok) {
        eprintln!("perfbench: check failed: {}: {}", c.name, c.detail);
    }
    match serde_json::to_string(&outcome) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: cannot encode the outcome: {e}");
            std::process::exit(1);
        }
    }
}
