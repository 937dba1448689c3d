"""One process of the benchmark: set-up, then the timed closed loop.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE [--smoke]

MODE is ``setup`` (set up and exit), ``timed`` (set up, then run rounds
untraced for SECONDS) or ``traced`` (set up and run rounds with spans
around every layer for SECONDS/2, then untraced for SECONDS/2 to measure
the tracing overhead).  run.py starts it with src/ on PYTHONPATH and BLAS
pinned to one thread.  Check results print as they happen; the last line
of standard output is one JSON object with the process's results.

Rounds run back to back, each item starting when the previous one has
finished (a closed loop with one client).  A new round starts only if
it is expected to end within the time budget, judged by the last round;
there is always at least one.
"""

import time

# Set-up time starts here, so that it covers importing numpy and qfde.
T0 = time.perf_counter()

import json
import os
import resource
import statistics
import sys
from pathlib import Path

import mpmath
import numpy as np
import qfde

import workloads
from tracing import NO_ITEM, Tracer

OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench"
PRINT_ITEMS_UP_TO = 8       # rounds this small print one line per item


def environment(seed: int) -> dict:
    backend = getattr(qfde, "kernel_backend", None)
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "mpmath": mpmath.__version__, "nproc": len(os.sched_getaffinity(0)),
            "seed": seed, "kernel_backend": backend() if backend else None}


def _print_check(prefix: str, label: str, outcome) -> None:
    if outcome.rejected:
        status = "rejected (counts as failed, ROADMAP 4(a))"
    elif outcome.ok:
        status = "ok"
    else:
        status = "FAILED"
    detail = f" err={outcome.err:.3e} tol={outcome.tol:.1e}" if outcome.tol else ""
    note = f" {outcome.note}" if outcome.note else ""
    print(f"check {prefix} {label}: {status}{detail}{note}", flush=True)


def _tol_share(outcome) -> float:
    return outcome.err / outcome.tol if outcome.tol else 0.0


def run_rounds(wl, first_round: int, seconds: float, tracer=None):
    """Run whole rounds for about `seconds`; returns (records, round seconds, next round).

    Each record is (round, label, seconds, outcome).  Only the items are
    timed: preparing a round and checking results are outside the clock.
    """
    records, round_s = [], []
    start = time.perf_counter()
    r = first_round
    while True:
        r_start = time.perf_counter()
        items = wl.round(r)
        busy = 0.0
        for item in items:
            if tracer is not None:
                tracer.item = len(records)
            t0 = time.perf_counter()
            try:
                result = item.call()
            except Exception as exc:  # a raising item is a failed item, not a crash
                dt = time.perf_counter() - t0
                outcome = workloads.Outcome(ok=False, note=f"raised {exc!r}")
            else:
                dt = time.perf_counter() - t0
                outcome = item.check(result)
            if tracer is not None:
                tracer.item = NO_ITEM
            busy += dt
            records.append((r, item.label, dt, outcome))
            if len(items) <= PRINT_ITEMS_UP_TO or outcome.rejected or not outcome.ok:
                _print_check(f"{wl.name} round {r}", item.label, outcome)
        if len(items) > PRINT_ITEMS_UP_TO:
            done = records[-len(items):]
            worst = max(done, key=lambda rec: _tol_share(rec[3]))
            ok = sum(rec[3].ok for rec in done)
            print(f"check {wl.name} round {r}: {ok}/{len(done)} ok; worst "
                  f"err/tol={_tol_share(worst[3]):.3g} ({worst[1]})", flush=True)
        round_s.append(busy)
        r += 1
        now = time.perf_counter()
        if now - start + (now - r_start) > seconds:
            return records, round_s, r


def summarize(records, round_s) -> dict:
    """The end-to-end figures of one untraced phase."""
    times = [rec[2] for rec in records]
    out = {"attempted": len(records),
           "failed": sum(not rec[3].ok for rec in records),
           "rejected": sum(rec[3].rejected for rec in records),
           "round_s": round_s,
           # The mean, not the median: the machine's speed drifts over
           # seconds, and the mean weighs each stretch by its length.
           "wall_s": statistics.mean(round_s),
           "items_per_s": len(times) / sum(times),
           "item_p50_s": statistics.median(times),
           "item_p90_s": None}
    if len(times) >= 100:
        out["item_p90_s"] = statistics.quantiles(times, n=10)[8]
    return out


def layer_metrics(tracer: Tracer, traced, untraced) -> dict:
    """Per-layer figures of the traced phase, per round of the workload."""
    (records, round_s, _), (_, plain_round_s, _) = traced, untraced
    totals = tracer.layer_totals()
    timed = totals["timed"]
    rounds = len(round_s)
    busy = sum(rec[2] for rec in records)

    def calls(name):
        return timed[name][0] / rounds

    def secs(name):
        return timed[name][1] / rounds

    m = {}
    for name in ("l1q.coefficients", "kernels.b1_weight", "qcore.shifted_factorial_real",
                 "solver.solve_ivp", "qfrac.caputo_q_derivative", "qfrac.frac_q_integral",
                 "qcore.q_integral_zero", "qcore.q_gamma", "cli.run_solve",
                 "problems.make_problem"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = secs(name)
    for name in ("l1q.build_mesh", "cli.main", "cli.emit_convergence", "solver.f"):
        m[f"{name}.s"] = secs(name)
    m["solver.solve_ivp.self_s"] = timed["solver.solve_ivp"][2] / rounds
    m["solver.f_calls"] = calls("solver.f")
    m["solver.picard_updates"] = tracer.picard_updates / rounds
    m["solver.updates_per_step"] = tracer.picard_updates / max(tracer.steps, 1)
    coeff_calls = timed["l1q.coefficients"][0]
    m["l1q.weight_cache_hit_ratio"] = (
        1.0 - timed["kernels.b1_weight"][0] / coeff_calls if coeff_calls else 0.0)
    m["setup.l1q.coefficients.s"] = totals["setup"]["l1q.coefficients"][1]
    m["split.weights_frac"] = timed["l1q.coefficients"][1] / busy
    m["split.solve_self_frac"] = timed["solver.solve_ivp"][2] / busy
    m["items.failed_frac"] = (sum(not rec[3].ok or rec[3].rejected for rec in records)
                            / len(records))
    m["check.max_abs_err"] = max(rec[3].err for rec in records)
    m["trace.spans"] = sum(c for c, _, _ in timed.values()) / rounds
    m["trace.overhead_frac"] = (statistics.mean(round_s)
                                / statistics.mean(plain_round_s) - 1.0)
    return m


def main(argv) -> int:
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    smoke = "--smoke" in argv[4:]
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[name](seed, smoke)
    result = {"setup_s": time.perf_counter() - T0, "env": environment(seed)}
    if mode == "timed":
        records, round_s, _ = run_rounds(wl, 0, seconds)
        result.update(summarize(records, round_s))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elif mode == "traced":
        traced = run_rounds(wl, 0, seconds / 2, tracer)
        tracer.uninstall()
        untraced = run_rounds(wl, traced[2], seconds / 2)
        records = traced[0] + untraced[0]
        result["attempted"] = len(records)
        result["failed"] = sum(not rec[3].ok for rec in records)
        result["layers"] = layer_metrics(tracer, traced, untraced)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{name}-seed{seed}.npz")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
