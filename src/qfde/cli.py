"""Command-line harness: solve runs, convergence studies, bound checks.

Subcommands
    qfde solve    --problem NAME --q Q --N N [...]   one solve, CSV or table
    qfde converge --problem NAME --q Q --N-list a,b,c --delta D [...]
    qfde bounds   --problem NAME --q Q --N N [...]

``main`` resolves the problem and the scale once, and each run takes what
``solve_ivp`` takes: ``run_solve(problem, scale, N) -> (rows, failure)``,
``run_convergence(problem, scale, N_list, delta)`` and
``run_bounds(problem, scale, N, m2=None)``, which hands the problem and
its mesh to the bounds of :mod:`qfde.solver`.  Each compares component 0
of the solve with the problem's exact solution (every registry problem
has one), node by node; rows are (t, x_num, x_exact, abs_err, fp_iters).

Exit codes: 0 success, 1 numerical failure (solver non-convergence and
every other :class:`~qfde.errors.QCalculusError`), 2 bound violation,
3 invalid arguments, an ``--out`` that cannot be written among them.  A
reader closing stdout early (``| head``) is no failure: the run stops
writing and keeps its own exit code.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys
import time
from fractions import Fraction
from typing import Optional

import numpy as np

from . import solver
from .errors import FixedPointError, QCalculusError
from .l1q import QMesh, build_mesh
from .problems import make_problem, problem_names
from .qcore import QScale, q_derivative_n
from .solver import (
    IVProblem,
    SolveTrace,
    contraction_constant,
    error_bound,
    rate_constants,
    solve_ivp,
    stability_bound,
)

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_BOUND = 2
EXIT_ARGS = 3


def _exact_and_error(trace: SolveTrace, problem: IVProblem):
    """x(t_n) and |x(t_n) - x^n| of component 0 at the solved nodes, by one exact call."""
    solved = trace.states.shape[0] - 1
    exact = np.asarray(problem.exact(trace.mesh.nodes[1:solved + 1]), dtype=float)
    return exact, np.abs(exact - trace.states[1:, 0])


def run_solve(problem: IVProblem, scale: QScale, N: int):
    """Execute one solve; return (rows, failure), rows ordered by ascending t_n.

    failure is the :class:`FixedPointError` of the step that did not solve,
    None when every step solved; the rows are those of the nodes before it.
    """
    try:
        trace, failure = solve_ivp(problem, scale, N), None
    except FixedPointError as err:
        trace, failure = err.trace, err
    exact, abs_err = _exact_and_error(trace, problem)
    rows = list(zip(trace.mesh.nodes[1:].tolist(),
                    trace.states[1:, 0].tolist(), exact.tolist(), abs_err.tolist(),
                    trace.fp_iterations.tolist()))
    return rows, failure


# ---------------------------------------------------------------------------
# output formats

CSV_HEADER = ("t", "x_num", "x_exact", "abs_err", "fp_iters")


def emit_csv(rows, stream) -> None:
    """CSV with header t,x_num,x_exact,abs_err,fp_iters; 17 significant digits."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for *values, fp in rows:
        writer.writerow([*(f"{v:.16e}" for v in values), fp])


def parse_csv(stream) -> list:
    """Read back an emitted CSV into its rows (exact float round trip)."""
    reader = csv.reader(stream)
    header = next(reader)
    if tuple(header) != CSV_HEADER:
        raise ValueError(f"unrecognized CSV header: {header}")
    return [(*map(float, line[:4]), int(line[4])) for line in reader]


def emit_table(rows, stream) -> None:
    stream.write(f"{'t_n':>24} {'x_num':>24} {'x_exact':>24} {'abs_err':>13} {'fp':>4}\n")
    for t, x, xe, err, fp in rows:
        stream.write(f"{t:>24.16e} {x:>24.16e} {xe:>24.16e} {err:>13.5e} {fp:>4d}\n")


def _write_output(out: Optional[str], emit) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            emit(fh)
        return
    try:
        emit(sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early (``| head``); fd 1 now points at devnull,
        # so the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# ---------------------------------------------------------------------------
# convergence study

def run_convergence(problem: IVProblem, scale: QScale, N_list: list, delta: float):
    """Solve at each N; summarize the error decay over nodes n <= (1-delta)N.

    Returns the summary, which carries the fitted log-error slope per
    unit N and the reference value 2*delta*ln(1/q).  That value
    is the decay rate of the a-priori bound |e_n| <= C q^(2(N-n)) over
    the nodes n <= (1-delta)N, so it is a lower bound on the observed
    decay, not a prediction of it.  A repeated N, or a delta that leaves
    some N no such node, raises ValueError before any solve; a max error
    of 0 leaves no fit.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not N_list:
        raise ValueError("convergence study needs a nonempty N list")
    for k, N in enumerate(N_list):
        if N in N_list[:k]:    # a decay fit needs distinct N
            raise ValueError(f"N={N} is repeated in the N list")
    cuts = [int((1.0 - delta) * N) for N in N_list]
    if min(cuts) < 1:    # the cut grows with N
        raise ValueError(f"delta={delta:g} leaves N={min(N_list)} no node n <= (1-delta)N")
    max_errs, rate_consts = [], []
    for N, n_cut in zip(N_list, cuts):
        _, errs = _exact_and_error(solve_ivp(problem, scale, N), problem)
        max_errs.append(float(np.max(errs[:n_cut])))
        rate_consts.append(float(np.max(rate_constants(errs, scale.q))))

    summary = {"N_list": list(N_list), "max_err": max_errs,
               "rate_constants": rate_consts, "delta": delta,
               "target_decay": 2.0 * delta * math.log(1.0 / scale.q),
               "all_exact": all(e == 0.0 for e in max_errs), "fitted_decay": None}
    if summary["all_exact"]:
        summary["warning"] = "errors are exactly zero; no fit"
    elif 0.0 in max_errs:
        summary["warning"] = "a max error is exactly zero; no fit"
    elif len(N_list) < 2:
        summary["warning"] = "single N gives no decay fit"
    else:
        slope = np.polyfit(np.asarray(N_list, float), np.log(max_errs), 1)[0]
        summary["fitted_decay"] = -float(slope)
    return summary


def emit_convergence(summary, stream) -> None:
    stream.write(f"{'N':>5} {'max err (n <= (1-delta)N)':>28} {'max |e_n|/q^2(N-n)':>20}\n")
    for N, err, rc in zip(summary["N_list"], summary["max_err"],
                          summary["rate_constants"]):
        stream.write(f"{N:>5d} {err:>28.10e} {rc:>20.10e}\n")
    if summary.get("warning"):
        stream.write(f"warning: {summary['warning']}\n")
    if summary["fitted_decay"] is not None:
        fit, ref = summary["fitted_decay"], summary["target_decay"]
        stream.write(f"fitted log-error decay per unit N: {fit:.6f}\n")
        stream.write(f"reference 2*delta*ln(1/q):         {ref:.6f}\n")
        stream.write(f"fitted/reference ratio:            {fit / ref:.4f}\n")


# ---------------------------------------------------------------------------
# bound checks

def estimate_m2(problem: IVProblem, mesh: QMesh) -> float:
    """Max of |D_q^2 exact| sampled over the positive mesh nodes."""
    d2 = (q_derivative_n(problem.exact, float(t), mesh.scale.q, 2) for t in mesh.nodes[1:])
    return float(np.max([np.max(np.abs(v)) for v in d2]))


def run_bounds(problem: IVProblem, scale: QScale, N: int, m2: Optional[float] = None):
    """Check observed errors against the a-priori bound, node by node.

    Returns (report dict, ok flag); ok is False when any ratio exceeds 1
    or the stability bound is violated.  Errors at float-noise level
    (1e-12 absolute) pass regardless of the bound, so exactly-reproduced
    solutions do not trip on a zero bound.  A problem without a Lipschitz
    constant, an L1 >= 1, a NaN, negative or infinite m2, or an m2
    estimate at a node whose t^2 underflows raises ValueError before the
    solve.
    """
    L1 = contraction_constant(problem, scale)
    mesh = build_mesh(scale, N)
    if m2 is None:
        m2 = estimate_m2(problem, mesh)
    bound = error_bound(problem, mesh, m2)
    sbound = stability_bound(problem, mesh)
    trace = solve_ivp(problem, scale, N)
    _, abs_err = _exact_and_error(trace, problem)

    ratios = np.array([e / b if b else (math.inf if e else 0.0) for e, b in
                       zip(abs_err.tolist(), bound.tolist())])
    observed_max = float(np.max(np.abs(trace.states)))
    stab_ok = observed_max <= sbound * (1.0 + 1e-12)
    report = {"nodes": mesh.nodes[1:], "abs_err": abs_err, "bound": bound,
              "ratio": ratios, "m2": m2, "L1": L1, "stability_bound": sbound,
              "observed_max": observed_max, "stability_ok": stab_ok}
    within = (abs_err <= bound) | (abs_err <= 1e-12)
    ok = stab_ok and bool(np.all(within))
    return report, ok


def emit_bounds(report, stream) -> None:
    stream.write(f"# m2={report['m2']:.6g} L1={report['L1']:.6g}\n")
    stream.write(f"{'t_n':>24} {'abs_err':>13} {'bound':>13} {'ratio':>10}\n")
    for t, err, bnd, ratio in zip(report["nodes"], report["abs_err"],
                                  report["bound"], report["ratio"]):
        stream.write(f"{t:>24.16e} {err:>13.5e} {bnd:>13.5e} {ratio:>10.4f}\n")
    stream.write(
        f"stability: max_n |x^n| = {report['observed_max']:.10e} "
        f"<= bound {report['stability_bound']:.10e}: "
        f"{'ok' if report['stability_ok'] else 'VIOLATED'}\n")


# ---------------------------------------------------------------------------
# argument handling

def parse_rational(text: str) -> float:
    """Parse '2/3' exactly as a fraction before conversion to double.

    A zero denominator or a fraction past the double range is a usage error.
    """
    try:
        return float(Fraction(text)) if "/" in text else float(text)
    except ArithmeticError as err:
        raise ValueError(f"{text!r}: {err}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_ARGS)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="qfde",
                     description="q-fractional differential equation solver "
                                 "on geometric time scales")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--problem", required=True, choices=problem_names())
        p.add_argument("--q", required=True, type=parse_rational,
                       help="scale index in (0,1); fractions like 2/3 accepted")
        p.add_argument("--alpha", type=parse_rational, default=None,
                       help="fractional order (problem default if omitted); "
                            "fractions accepted")
        p.add_argument("--b", type=float, default=1.0, help="horizon (default 1)")
        p.add_argument("--out", default=None)

    p_solve = sub.add_parser("solve", help="run the implicit scheme once")
    common(p_solve)
    p_solve.add_argument("--N", required=True, type=int)
    p_solve.add_argument("--format", choices=("csv", "table"), default="table")

    p_conv = sub.add_parser("converge", help="error decay across mesh sizes")
    common(p_conv)
    p_conv.add_argument("--N-list", required=True,
                        help="comma-separated mesh sizes, e.g. 6,8,10,12")
    p_conv.add_argument("--delta", required=True, type=float)

    p_bounds = sub.add_parser("bounds", help="check error and stability bounds")
    common(p_bounds)
    p_bounds.add_argument("--N", required=True, type=int)
    p_bounds.add_argument("--m2", type=float, default=None,
                          help="bound on |D_q^2 x|; sampled from the exact "
                               "solution if omitted")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        problem = make_problem(args.problem, args.q, args.b, args.alpha)
        scale = QScale(args.q, args.b)
        if args.command == "solve":
            start = time.perf_counter()
            rows, failure = run_solve(problem, scale, args.N)
            wall = time.perf_counter() - start

            def emit(fh):
                if args.format == "csv":
                    emit_csv(rows, fh)
                else:
                    fh.write(f"# problem={args.problem} q={args.q:.12g} "
                             f"alpha={problem.alpha:.12g} N={args.N} b={args.b:.12g} "
                             f"fp_tol={solver.FP_TOL:g} max_iters={solver.MAX_FP_ITERS} "
                             f"perturb={solver.START_PERTURBATION:g} wall={wall:.3g}s\n")
                    emit_table(rows, fh)

            _write_output(args.out, emit)
            if failure is not None:
                sys.stderr.write(f"error: {failure}\n")
                return EXIT_SOLVER
            return EXIT_OK

        if args.command == "converge":
            try:
                N_list = [int(part) for part in args.N_list.split(",") if part]
            except ValueError:
                raise ValueError(f"bad --N-list {args.N_list!r}") from None
            summary = run_convergence(problem, scale, N_list, args.delta)
            _write_output(args.out, lambda fh: emit_convergence(summary, fh))
            return EXIT_OK

        if args.command == "bounds":
            report, ok = run_bounds(problem, scale, args.N, m2=args.m2)
            _write_output(args.out, lambda fh: emit_bounds(report, fh))
            return EXIT_OK if ok else EXIT_BOUND

    except QCalculusError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_SOLVER
    except (ValueError, OSError) as err:    # OSError: --out cannot be written
        sys.stderr.write(f"error: {err}\n")
        return EXIT_ARGS
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
