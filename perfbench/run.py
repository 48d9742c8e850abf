#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <bringup|infer|serve> --seed N \
        --seconds S --trace <0|1>

Builds the `perfbench` worker (release, into $CARGO_TARGET_DIR or
`.bench_build`), then starts the workload's worker processes one after
another. Each process sets up once and measures its share of the timed
budget; every metric is the median across processes, so both set-up and
process-to-process effects (heap layout, page faults) are sampled rather
than frozen into one number. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are every end-to-end metric of BENCHMARK.json, with --trace 1
every per-layer metric: each workload reports all of them, measured on
its own model. Traces of the traced runs are kept in `.bench_out/`.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Worker processes per run. More processes sample set-up and
# process-level noise more often; each costs one set-up.
PROCS = 3

WORKLOADS = ("bringup", "infer", "serve")
# These must repeat bit-for-bit in every process of every run.
EXACT = ("score", "adc_ops_ratio", "adc_pj_per_image")


def units(root, trace):
    """Metric name -> unit of every metric a run reports, from BENCHMARK.json."""
    bench = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return None
    binary = target_dir / "release" / "perfbench"
    if done.returncode != 0 or not binary.is_file():
        print("run.py: build failed", file=sys.stderr)
        return None
    return binary


def run_worker(binary, args, proc, seconds, work, timeout):
    cmd = [str(binary), args.workload, "--seed", str(args.seed), "--seconds", repr(seconds),
           "--trace", str(args.trace), "--proc", str(proc), "--work", str(work)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: worker {proc} did not finish: {e}", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"run.py: worker {proc} exited with {done.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"run.py: worker {proc} printed no result", file=sys.stderr)
        return None


def aggregate(workload, unit_of, outcomes):
    """Medians across processes, plus the cross-process exactness check."""
    correct = all(o["failed"] == 0 for o in outcomes)
    attempted = sum(o["attempted"] for o in outcomes)
    failed = sum(o["failed"] for o in outcomes)
    names = sorted(set().union(*(o["metrics"].keys() for o in outcomes)))
    metrics = {}
    for name in names:
        values = [o["metrics"].get(name) for o in outcomes]
        if any(v is None for v in values):
            print(f"run.py: {name} missing or not finite in some process", file=sys.stderr)
            correct = False
            failed += 1
            continue
        if name in EXACT:
            attempted += 1
            if len({repr(v) for v in values}) != 1:
                print(f"run.py: exact metric {name} differs across processes: {values}",
                      file=sys.stderr)
                correct = False
                failed += 1
        if name not in unit_of:
            print(f"run.py: {name} is not in BENCHMARK.json", file=sys.stderr)
            correct = False
            failed += 1
            continue
        metrics[name] = {"value": statistics.median(values), "unit": unit_of[name]}
    missing = sorted(set(unit_of) - set(metrics))
    if missing:
        print(f"run.py: {workload} did not report {missing}", file=sys.stderr)
        correct = False
        failed += 1
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = root / target_dir
    binary = build(target_dir)
    if binary is None:
        return 2

    out_dir = root / ".bench_out"
    work = out_dir / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    outcomes = []
    # every run ends within 170 s of the build, whatever its workers do
    deadline = time.monotonic() + 170
    try:
        for proc in range(PROCS):
            timeout = max(1.0, deadline - time.monotonic())
            outcome = run_worker(binary, args, proc, args.seconds / PROCS, work, timeout)
            if outcome is None:
                return 3
            outcomes.append(outcome)
            for check in outcome["checks"]:
                if not check["ok"]:
                    print(f"run.py: check failed in worker {proc}: {check['name']}: "
                          f"{check['detail']}", file=sys.stderr)
        for trace in work.glob("trace-*.json"):
            shutil.move(str(trace), str(out_dir / trace.name))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = aggregate(args.workload, units(root, args.trace), outcomes)
    stamp = outcomes[0]["stamp"] or {}
    stamp["procs"] = str(PROCS)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in stamp.items()))
    for name, m in result["metrics"].items():
        per_proc = " ".join(f"{o['metrics'][name]:.6g}" for o in outcomes)
        print(f"# {name:<40} {m['value']:>16.6g} {m['unit']:<8} [{per_proc}]")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
