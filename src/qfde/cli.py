"""Command-line harness: solve runs, convergence studies, bound checks.

Subcommands
    qfde solve    --problem NAME --q Q --N N [...]   one solve, CSV or table
    qfde converge --problem NAME --q Q --N-list a,b,c --delta D [...]
    qfde bounds   --problem NAME --q Q --N N [...]

Exit codes: 0 success, 1 numerical failure (solver non-convergence and
every other :class:`~qfde.errors.QCalculusError`), 2 bound violation,
3 invalid arguments.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import FixedPointError, QCalculusError
from .problems import default_alpha, make_problem, problem_names
from .qcore import QScale, SeriesControl, q_derivative_n
from .solver import (
    IVProblem,
    SolveTrace,
    SolverConfig,
    error_report,
    rate_constants,
    solve_ivp,
    stability_bound,
)

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_BOUND = 2
EXIT_ARGS = 3


@dataclass
class ProblemSpec:
    """One resolved run request."""

    name: str
    q: float
    b: float = 1.0
    N: int = 10
    alpha: Optional[float] = None
    fp_tol: float = 1e-13
    max_iters: int = 200
    perturb: float = 1e-8
    fmt: str = "table"
    out: Optional[str] = None

    def __post_init__(self):
        if self.alpha is None:
            self.alpha = default_alpha(self.name)
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")

    def scale(self) -> QScale:
        return QScale(q=self.q, b=self.b)

    def config(self) -> SolverConfig:
        return SolverConfig(fp_tol=self.fp_tol, max_fp_iters=self.max_iters,
                            start_perturbation=self.perturb)

    def problem(self) -> IVProblem:
        return make_problem(self.name, self.q, self.b, self.alpha)


@dataclass
class RunRecord:
    """Table rows plus run metadata for one solve."""

    rows: list = field(default_factory=list)   # (t, x_num, x_exact|None, abs_err|None, fp_iters)
    metadata: dict = field(default_factory=dict)

    @property
    def has_exact(self) -> bool:
        return bool(self.rows) and self.rows[0][2] is not None


def _config_hash(spec: ProblemSpec) -> str:
    text = repr((spec.name, spec.q, spec.b, spec.N, spec.alpha,
                 spec.fp_tol, spec.max_iters, spec.perturb))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _record_from_trace(spec: ProblemSpec, trace: SolveTrace,
                       problem: IVProblem, wall: float) -> RunRecord:
    rows = []
    solved = trace.states.shape[0] - 1
    for n in range(1, solved + 1):
        t_n = float(trace.mesh.nodes[n])
        x_num = float(trace.states[n][0])
        x_exact = abs_err = None
        if problem.exact is not None:
            x_exact = float(np.atleast_1d(problem.exact(t_n))[0])
            abs_err = abs(x_exact - x_num)
        fp = int(trace.fp_iterations[n - 1]) if n - 1 < len(trace.fp_iterations) else 0
        rows.append((t_n, x_num, x_exact, abs_err, fp))
    meta = {"problem": spec.name, "q": spec.q, "alpha": spec.alpha,
            "N": spec.N, "b": spec.b, "config": _config_hash(spec),
            "wall_time_s": wall}
    return RunRecord(rows=rows, metadata=meta)


def run_solve(spec: ProblemSpec) -> RunRecord:
    """Execute one solve; rows ordered by ascending t_n.

    On fixed-point failure the raised error carries a partial RunRecord
    in ``error.record``.
    """
    problem = spec.problem()
    start = time.perf_counter()
    try:
        trace = solve_ivp(problem, spec.scale(), spec.N, spec.config())
    except FixedPointError as err:
        err.record = _record_from_trace(spec, err.trace, problem,
                                        time.perf_counter() - start)
        raise
    return _record_from_trace(spec, trace, problem, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# output formats

def _fmt_float(v: float) -> str:
    return f"{v:.16e}"


def emit_csv(record: RunRecord, stream) -> None:
    """CSV with header t,x_num[,x_exact,abs_err],fp_iters; 17 significant digits."""
    writer = csv.writer(stream, lineterminator="\n")
    if record.has_exact:
        writer.writerow(["t", "x_num", "x_exact", "abs_err", "fp_iters"])
        for t, x, xe, err, fp in record.rows:
            writer.writerow([_fmt_float(t), _fmt_float(x), _fmt_float(xe),
                             _fmt_float(err), fp])
    else:
        writer.writerow(["t", "x_num", "fp_iters"])
        for t, x, _, _, fp in record.rows:
            writer.writerow([_fmt_float(t), _fmt_float(x), fp])


def parse_csv(stream) -> RunRecord:
    """Read back an emitted CSV into a RunRecord (exact float round trip)."""
    reader = csv.reader(stream)
    header = next(reader)
    rows = []
    for line in reader:
        if header == ["t", "x_num", "x_exact", "abs_err", "fp_iters"]:
            rows.append((float(line[0]), float(line[1]), float(line[2]),
                         float(line[3]), int(line[4])))
        elif header == ["t", "x_num", "fp_iters"]:
            rows.append((float(line[0]), float(line[1]), None, None, int(line[2])))
        else:
            raise ValueError(f"unrecognized CSV header: {header}")
    return RunRecord(rows=rows)


def emit_table(record: RunRecord, stream) -> None:
    meta = record.metadata
    if meta:
        stream.write(
            f"# problem={meta['problem']} q={meta['q']:.12g} "
            f"alpha={meta['alpha']:.12g} N={meta['N']} b={meta['b']:.12g} "
            f"config={meta['config']} wall={meta['wall_time_s']:.3g}s\n")
    if record.has_exact:
        stream.write(f"{'t_n':>24} {'x_num':>24} {'x_exact':>24} {'abs_err':>13} {'fp':>4}\n")
        for t, x, xe, err, fp in record.rows:
            stream.write(f"{t:>24.16e} {x:>24.16e} {xe:>24.16e} {err:>13.5e} {fp:>4d}\n")
    else:
        stream.write(f"{'t_n':>24} {'x_num':>24} {'fp':>4}\n")
        for t, x, _, _, fp in record.rows:
            stream.write(f"{t:>24.16e} {x:>24.16e} {fp:>4d}\n")


def _write_output(spec_out: Optional[str], emit) -> None:
    if spec_out:
        with open(spec_out, "w", encoding="utf-8", newline="") as fh:
            emit(fh)
    else:
        emit(sys.stdout)


# ---------------------------------------------------------------------------
# convergence study

def run_convergence(spec: ProblemSpec, N_list: list, delta: float):
    """Solve at each N; summarize the error decay over nodes n <= (1-delta)N.

    Returns (records, summary).  The summary carries the fitted log-error
    slope per unit N and the reference value 2*delta*ln(1/q).  That value
    is the decay rate of the a-priori bound |e_n| <= C q^(2(N-n)) over
    the nodes n <= (1-delta)N, so it is a lower bound on the observed
    decay, not a prediction of it.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not N_list or any(N < 2 for N in N_list):
        raise ValueError("convergence study needs a nonempty N list, every N >= 2")
    problem = spec.problem()
    if problem.exact is None:
        raise ValueError(f"problem {spec.name!r} has no exact solution")

    records = []
    max_errs = []
    rate_consts = []
    for N in N_list:
        run = ProblemSpec(name=spec.name, q=spec.q, b=spec.b, N=N,
                          alpha=spec.alpha, fp_tol=spec.fp_tol,
                          max_iters=spec.max_iters, perturb=spec.perturb)
        record = run_solve(run)
        records.append(record)
        errs = np.array([row[3] for row in record.rows])
        n_cut = int((1.0 - delta) * N)
        max_errs.append(float(np.max(errs[:n_cut])) if n_cut >= 1 else float("nan"))
        rate_consts.append(float(np.max(rate_constants(errs, spec.q))))

    summary = {"N_list": list(N_list), "max_err": max_errs,
               "rate_constants": rate_consts, "delta": delta,
               "target_decay": 2.0 * delta * math.log(1.0 / spec.q),
               "all_exact": all(e == 0.0 for e in max_errs)}
    if len(N_list) < 2 or summary["all_exact"]:
        summary["fitted_decay"] = None
        summary["warning"] = ("errors are exactly zero; no fit"
                              if summary["all_exact"]
                              else "single N gives no decay fit")
    else:
        slope = np.polyfit(np.asarray(N_list, float), np.log(max_errs), 1)[0]
        summary["fitted_decay"] = -float(slope)
    return records, summary


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

def estimate_m2(problem: IVProblem, mesh_nodes: np.ndarray, q: float,
                ctl: SeriesControl = SeriesControl()) -> float:
    """Max of |D_q^2 exact| sampled over the positive mesh nodes."""
    worst = 0.0
    for t in mesh_nodes[1:]:
        d2 = q_derivative_n(problem.exact, float(t), q, 2, ctl)
        worst = max(worst, float(np.max(np.abs(d2))))
    return worst


def run_bounds(spec: ProblemSpec, m2: Optional[float] = None):
    """Check observed errors against the a-priori bound, node by node.

    Returns (report dict, ok flag); ok is False when any ratio exceeds 1
    or the stability bound is violated.  Errors at float-noise level
    (1e-12 absolute) pass regardless of the bound, so exactly-reproduced
    solutions do not trip on a zero bound.
    """
    problem = spec.problem()
    if problem.exact is None:
        raise ValueError(f"problem {spec.name!r} has no exact solution")
    scale = spec.scale()
    trace = solve_ivp(problem, scale, spec.N, spec.config())
    if m2 is None:
        m2 = estimate_m2(problem, trace.mesh.nodes, spec.q)
    L1 = trace.contraction_L1 if trace.contraction_L1 is not None else 0.0

    report_data = error_report(trace, problem, m2=m2, L1=L1)
    ratios = report_data.abs_err / np.maximum(report_data.bound, 1e-300)
    fmax = max(float(np.max(np.abs(problem.f(float(t), np.zeros(problem.d)))))
               for t in trace.mesh.nodes[1:])
    sbound = stability_bound(problem.x0, fmax, float(trace.mesh.nodes[-1]),
                             spec.alpha, spec.q, L1)
    observed_max = float(np.max(np.abs(trace.states)))
    stab_ok = observed_max <= sbound * (1.0 + 1e-12)
    report = {"nodes": trace.mesh.nodes[1:], "abs_err": report_data.abs_err,
              "bound": report_data.bound, "ratio": ratios, "m2": m2, "L1": L1,
              "stability_bound": sbound, "observed_max": observed_max,
              "stability_ok": stab_ok}
    within = (report_data.abs_err <= report_data.bound) | (report_data.abs_err <= 1e-12)
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
    """Parse '2/3' exactly as a fraction before conversion to double."""
    if "/" in text:
        return float(Fraction(text))
    return float(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_ARGS)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qfde",
                     description="q-fractional differential equation solver "
                                 "on geometric time scales")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--problem", required=True, choices=problem_names())
        p.add_argument("--q", required=True, type=parse_rational,
                       help="scale index in (0,1); fractions like 2/3 accepted")
        p.add_argument("--alpha", type=float, default=None,
                       help="fractional order (problem default if omitted)")
        p.add_argument("--b", type=float, default=1.0, help="horizon (default 1)")
        p.add_argument("--fp-tol", type=float, default=1e-13)
        p.add_argument("--max-iters", type=int, default=200)
        p.add_argument("--perturb", type=float, default=1e-8)
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


def _spec_from_args(args, N: int) -> ProblemSpec:
    return ProblemSpec(name=args.problem, q=args.q, b=args.b, N=N,
                       alpha=args.alpha, fp_tol=args.fp_tol,
                       max_iters=args.max_iters, perturb=args.perturb,
                       out=args.out)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            spec = _spec_from_args(args, args.N)
            spec.fmt = args.format
            emit = emit_csv if spec.fmt == "csv" else emit_table
            try:
                record = run_solve(spec)
            except FixedPointError as err:
                _write_output(spec.out, lambda fh: emit(err.record, fh))
                sys.stderr.write(f"error: {err}\n")
                return EXIT_SOLVER
            _write_output(spec.out, lambda fh: emit(record, fh))
            return EXIT_OK

        if args.command == "converge":
            try:
                N_list = [int(part) for part in args.N_list.split(",") if part]
            except ValueError:
                raise ValueError(f"bad --N-list {args.N_list!r}") from None
            spec = _spec_from_args(args, max(N_list, default=2))
            _, summary = run_convergence(spec, N_list, args.delta)
            _write_output(args.out, lambda fh: emit_convergence(summary, fh))
            return EXIT_OK

        if args.command == "bounds":
            spec = _spec_from_args(args, args.N)
            report, ok = run_bounds(spec, m2=args.m2)
            _write_output(args.out, lambda fh: emit_bounds(report, fh))
            return EXIT_OK if ok else EXIT_BOUND

    except QCalculusError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_SOLVER
    except (ValueError, KeyError, NotImplementedError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_ARGS
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
