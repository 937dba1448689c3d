"""The three workloads of the layered benchmark.

Each workload builds its inputs from the seed alone, in rounds: round r
draws from ``numpy.random.default_rng([seed, workload id, r])``, so two
runs with one seed do identical work and a new seed gives work of the
same shape.  ``round(r)`` returns the items of round r; preparing them
(drawing inputs, computing the reference values) happens before any
item is timed, and checking a result happens after its item is timed.

Importing this module imports ``qfde``; the worker times that import as
part of set-up.  Calls into the package go through module attributes
(``cli.main``, ``solver.solve_ivp``, ...), so the wrappers that the traced
run installs at those names see them.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
from dataclasses import dataclass
from typing import Callable

import mpmath
import numpy as np

from qfde import cli, problems, qfrac, solver
from qfde.l1q import build_mesh
from qfde.qcore import QScale

EPS = sys.float_info.epsilon


@dataclass
class Outcome:
    """Result of one item's correctness check.

    ``rejected`` marks a known rejection: a threshold-crossing study that
    exits nonzero with a clean error message (ROADMAP 4(a)).  It counts
    in ``failed_frac`` but is not a wrong answer.
    """

    ok: bool
    err: float = 0.0
    tol: float = 0.0
    rejected: bool = False
    note: str = ""


@dataclass
class Item:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


def _rng(seed: int, workload: int, r: int) -> np.random.Generator:
    """Stream of round r of a workload (ids 1-3; id 0 draws warm-up inputs)."""
    return np.random.default_rng([seed, workload, r])


def _within(err: float, tol: float) -> Outcome:
    return Outcome(ok=bool(err <= tol), err=err, tol=tol)


# ---------------------------------------------------------------------------
# cold-converge: the paper's convergence studies through the CLI, no weight reuse

# (q, N-list, crosses the ROADMAP 4(a) MonotonicityError threshold)
STUDIES = (
    ("1/4", (10, 15, 20, 25), False),
    ("2/3", (20, 30, 40, 50, 60, 70), False),
    ("0.9", (40, 60, 80, 100), False),
    ("1/4", (10, 15, 20, 25, 32), True),
    ("2/3", (20, 30, 40, 50, 60, 70, 85), True),
)
SMOKE_STUDIES = (
    ("1/4", (10, 15), False),
    ("2/3", (20, 30), False),
    ("0.9", (40,), False),
    ("1/4", (10, 32), True),
    ("2/3", (20, 85), True),
)
# Largest error over nodes n <= N/2 in any study, set from the errors
# measured over b in [0.8, 1.25]: 5e-11 (q=1/4), 5.6e-6 (q=2/3), 3.6e-3 (q=0.9).
CONVERGE_TOL = {"1/4": 2e-10, "2/3": 2.5e-5, "0.9": 2e-2}
DELTA = 0.5


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_study(q: str, N_list, crosses: bool, result) -> Outcome:
    code, out, err = result
    if code != 0:
        message = err.strip().splitlines()[-1] if err.strip() else ""
        clean = code in (cli.EXIT_SOLVER, cli.EXIT_ARGS) and message.startswith("error:")
        if crosses and clean:
            return Outcome(ok=True, rejected=True, note=f"exit {code}: {message}")
        return Outcome(ok=False, note=f"exit {code}: {message}")
    rows = [line.split() for line in out.splitlines()]
    table = [(int(r[0]), float(r[1])) for r in rows if r and r[0].isdigit()]
    if [N for N, _ in table] != list(N_list):
        return Outcome(ok=False, note=f"table lists N={[N for N, _ in table]}")
    worst = max(e for _, e in table)
    if not math.isfinite(worst):
        return Outcome(ok=False, note="non-finite error")
    return _within(worst, CONVERGE_TOL[q])


class ColdConverge:
    """One round runs each study of STUDIES once, each with a fresh b."""

    name = "cold-converge"

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.studies = SMOKE_STUDIES if smoke else STUDIES
        # Warm-up: the parser and the lazily built paths, on a b of its own.
        b = _rng(seed, 0, 1).uniform(0.8, 1.25)
        _run_cli(["converge", "--problem", "example2", "--q", "1/2",
                  "--N-list", "4,6", "--delta", "0.5", "--b", repr(b)])

    def round(self, r: int) -> list:
        rng = _rng(self.seed, 1, r)
        items = []
        for q, N_list, crosses in self.studies:
            # A fresh b per call: the weight cache is keyed on b, so no
            # weight is reused within or across runs.
            b = float(rng.uniform(0.8, 1.25))
            argv = ["converge", "--problem", "example2", "--q", q,
                    "--N-list", ",".join(map(str, N_list)),
                    "--delta", str(DELTA), "--b", repr(b)]
            label = (f"q={q} N={N_list[0]}..{N_list[-1]} b={b:.6f}"
                     + (" (crosses 4(a) threshold)" if crosses else ""))
            items.append(Item(
                label=label,
                call=lambda argv=argv: _run_cli(argv),
                check=lambda res, q=q, N_list=N_list, crosses=crosses:
                    _check_study(q, N_list, crosses, res)))
        return items


# ---------------------------------------------------------------------------
# warm-ensemble: many solves on one mesh whose weights set-up has filled

ENSEMBLE_PROBLEMS = ("example2", "manufactured-quadratic")
ENSEMBLE_DIMS = (1, 8)
ENSEMBLE_DRAWS = 2          # solves per (problem, d) per round
# Max-norm error over all nodes, by N, set from the measured errors at
# q=0.9: N=260 gives 3.1e-7 (example2) and 2.6e-14 (manufactured-quadratic);
# the smoke size N=40 gives 1.8e-2 and 1.2e-4.
ENSEMBLE_TOL = {260: {"example2": 2e-6, "manufactured-quadratic": 2e-13},
                40: {"example2": 5e-2, "manufactured-quadratic": 5e-4}}


def _damped(base, lam: np.ndarray):
    """f(t, x) - lam (x - x_exact(t)): same exact solution, new dynamics."""
    f, exact = base.f, base.exact

    def rhs(t, x):
        return f(t, x) - lam * (x - exact(t))

    return rhs


class WarmEnsemble:
    """Solves on the fixed mesh q=0.9, b=1, N=260, alpha=2/3."""

    name = "warm-ensemble"

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.N = 40 if smoke else 260
        self.alpha = 2.0 / 3.0
        self.scale = QScale(q=0.9, b=1.0)
        self.base = {name: problems.make_problem(name, self.scale.q, self.scale.b,
                                                 self.alpha)
                     for name in ENSEMBLE_PROBLEMS}
        self.nodes = build_mesh(self.scale, self.N).nodes
        # Warm-up: one untimed solve fills the weights for every node.
        solver.solve_ivp(self.base["manufactured-quadratic"], self.scale, self.N)

    def _check(self, name: str, trace) -> Outcome:
        exact = np.array([np.atleast_1d(self.base[name].exact(t))
                          for t in self.nodes])
        err = float(np.max(np.abs(trace.states - exact)))
        return _within(err, ENSEMBLE_TOL[self.N][name])

    def round(self, r: int) -> list:
        rng = _rng(self.seed, 2, r)
        items = []
        for name in ENSEMBLE_PROBLEMS:
            for d in ENSEMBLE_DIMS:
                for _ in range(ENSEMBLE_DRAWS):
                    lam = rng.random(d)
                    problem = solver.IVProblem(
                        f=_damped(self.base[name], lam), alpha=self.alpha,
                        x0=np.ones(d), exact=self.base[name].exact)
                    items.append(Item(
                        label=f"{name} d={d} lambda_max={lam.max():.4f}",
                        call=lambda p=problem: solver.solve_ivp(p, self.scale, self.N),
                        check=lambda tr, name=name: self._check(name, tr)))
        return items


# ---------------------------------------------------------------------------
# lattice-ops: Caputo derivative and fractional integral at every mesh node

LATTICE_QS = (0.25, 2.0 / 3.0, 0.9)
# Relative error allowed beyond the cancellation of D_q f at tiny t (see
# _caputo_tol); set from measured errors of at most 8e-14.
LATTICE_REL_TOL = 1e-12


def _poly(c):
    def f(s):
        acc = 0.0
        for a in reversed(c):
            acc = acc * s + a
        return acc
    return f


def _caputo_tol(c, alpha: float, q: float, t: float, ref: float) -> float:
    """Tolerance for the Caputo derivative of a polynomial at t.

    The difference quotient D_q f(s) = (f(qs) - f(s))/((q-1)s) loses
    about eps |f| / ((1-q) s) near s = 0, and the kernel carries that to
    roughly eps |f| t^(-alpha) / (1-q) in the result: up to 2e-6 at
    q=1/4, t=q^19 (measured).  The factor 16 covers the measured worst case.
    """
    scale = sum(abs(a) for a in c) * t ** (-alpha) / (1.0 - q)
    return LATTICE_REL_TOL * max(1.0, abs(ref)) + 16.0 * EPS * scale


class LatticeOps:
    """One round: per q, a fresh alpha and polynomial, both operators at each node."""

    name = "lattice-ops"

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.N = 4 if smoke else 20
        self.nodes = {q: build_mesh(QScale(q=q), self.N).nodes[1:] for q in LATTICE_QS}
        mpmath.mp.dps = 30
        # Warm-up: one evaluation of each operator.
        f = _poly([1.0, 1.0])
        qfrac.caputo_q_derivative(f, 0.5, 1.0, 0.5)
        qfrac.frac_q_integral(f, 0.5, 1.0, 0.5)

    def round(self, r: int) -> list:
        rng = _rng(self.seed, 3, r)
        items = []
        for q in LATTICE_QS:
            alpha = float(rng.uniform(0.05, 0.95))
            degree = int(rng.integers(1, 4))
            c = [float(a) for a in rng.uniform(-1.0, 1.0, degree + 1)]
            f = _poly(c)

            def gq(x, q=q):
                return mpmath.qgamma(x, q)

            # Power rule D^a t^j = G(j+1)/G(j+1-a) t^(j-a), I^a t^j = G(j+1)/G(j+1+a) t^(j+a).
            dcoef = [float(c[j] * gq(j + 1) / gq(j + 1 - alpha)) for j in range(1, degree + 1)]
            icoef = [float(c[j] * gq(j + 1) / gq(j + 1 + alpha)) for j in range(degree + 1)]
            for t in self.nodes[q]:
                t = float(t)
                dref = sum(a * t ** (j + 1 - alpha) for j, a in enumerate(dcoef))
                iref = sum(a * t ** (j + alpha) for j, a in enumerate(icoef))
                tag = f"q={q:.4g} alpha={alpha:.4f} deg={degree} t={t:.3e}"
                items.append(Item(
                    label="caputo " + tag,
                    call=lambda f=f, a=alpha, t=t, q=q: qfrac.caputo_q_derivative(f, a, t, q),
                    check=lambda v, ref=dref, tol=_caputo_tol(c, alpha, q, t, dref):
                        _within(abs(v - ref), tol)))
                items.append(Item(
                    label="integral " + tag,
                    call=lambda f=f, a=alpha, t=t, q=q: qfrac.frac_q_integral(f, a, t, q),
                    check=lambda v, ref=iref:
                        _within(abs(v - ref), LATTICE_REL_TOL * max(1.0, abs(ref)))))
        return items


WORKLOADS = {w.name: w for w in (ColdConverge, WarmEnsemble, LatticeOps)}
