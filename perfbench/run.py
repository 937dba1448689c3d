#!/usr/bin/env python3
"""Layered benchmark of qfde: end-to-end figures per workload, per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; the package is imported from src/.
Workloads (see workloads.py and BENCHMARK.json for why each exists):

    cold-converge  `qfde converge` studies on example2, a fresh b per call
    warm-ensemble  solve_ivp over a seeded ensemble on one warm mesh
    lattice-ops    Caputo derivative and fractional integral at mesh nodes

With --trace 0 the run starts fresh processes one after another; each
imports qfde, builds the seed's inputs and warms up, and its set-up time
is taken.  One of them then runs the timed phase for S seconds; the
others only set up, before and after it, and setup_s is the median.
With --trace 1 one process runs with spans around the calls into each
layer, then without them, and reports the per-layer figures and the
tracing overhead.  Every process is single-threaded (BLAS pinned to 1).

The printed lines give the environment, each correctness check, and
every figure with its unit; the last line is one JSON object with the
keys correct, attempted, failed and metrics.  `failed` counts items that
raised or missed their check; threshold-crossing studies rejected with a
clean error (ROADMAP 4(a)) count in failed_frac, not in `failed`.
--smoke runs each workload at its smallest size (used by test_smoke.py).
Results and spans are also written to .perfbench/ in the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("cold-converge", "warm-ensemble", "lattice-ops")
# Set-up processes run before and after the timed phase, on each side until
# they have taken this long (at least one), so the median of set-up times
# spans the whole run, not one moment of a busy machine.
SETUP_SIDE_S = 1.0
WORKER_TIMEOUT_S = 170

# (name, unit) of the end-to-end figures in the JSON line, as BENCHMARK.json lists them
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("items_per_s", "1/s"),
              ("item_p50_s", "s"), ("peak_rss_mb", "MB"))


def layer_unit(name: str) -> str:
    if name.endswith((".calls", "_calls", "picard_updates", ".spans")):
        return "count/round"
    if name.endswith("per_step"):
        return "count/step"
    if name.startswith("setup."):
        return "s"
    if name.endswith(("_s", ".s")):
        return "s/round"
    if name == "check.max_abs_err":
        return "abs"
    return "ratio"


def run_worker(args, mode: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           str(args.seconds), mode] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def sample_setups(args) -> list:
    samples = []
    while not samples or sum(samples) < SETUP_SIDE_S:
        samples.append(run_worker(args, "setup")["setup_s"])
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "qfde" / "__init__.py").is_file():
        print(f"error: no qfde sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            result = run_worker(args, "traced")
            metrics = {name: (value, layer_unit(name))
                       for name, value in result["layers"].items()}
        else:
            setups = sample_setups(args)
            result = run_worker(args, "timed")
            setups += [result["setup_s"]] + sample_setups(args)
            result["setup_s"] = statistics.median(setups)
            result["setup_samples_s"] = setups
            metrics = {name: (result[name], unit) for name, unit in END_TO_END}
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    print("env: " + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    if not args.trace:
        attempted = result["attempted"]
        print(f"items: {attempted} in {len(result['round_s'])} rounds, "
              f"{result['failed']} failed their check, "
              f"{result['rejected']} rejected at the 4(a) threshold")
        print(f"failed_frac = {(result['failed'] + result['rejected']) / attempted:.4f} ratio")
        p90 = result["item_p90_s"]
        print(f"item_p90_s = {p90:.6g} s ({attempted} samples)" if p90 is not None
              else f"item_p90_s = n/a ({attempted} samples < 100)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
