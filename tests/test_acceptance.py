"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see every line.

Criteria 1 and 2 check the two benchmark problems against a 40-digit
march of the same scheme (``oracles.mp_l1q_march``, which shares no code
with the package); criterion 7 checks the convergence rate against the
rate the a-priori error bound promises.  Each once asserted values that
the scheme cannot produce:

* criterion 1 pinned a recorded error column for the nonlinear benchmark.
  Its first step has the closed form x^1 - 1 = ((1+q)/[4/3]_q)^3 t_1^2
  (from b_1(n=1) = t_1^(-alpha)/[1-alpha]_q and the q-power rule of the
  shifted factorial), an error of 1.3543 t_1^2 = 9.1637e-4, which the
  program and the march both give; the recorded 2.0209e-4 needs a b_1
  1.22x or 1.50x the one that identity fixes;
* criterion 2 pinned a recorded error column for the linear benchmark
  that was computed with the uncorrected forcing coefficient
  (1+q)/Gamma_q(3/2) and the invalid closed-form first weight
  (t_n - q t_1)^(-alpha); a march with both defects reproduces its rows
  1-8, which criterion 2 checks, while the quadrature-confirmed forcing
  solves the problem to ~1e-12;
* criterion 7 asserted a two-sided window around 2*delta*ln(1/q), the
  decay rate of the a-priori bound |e_n| <= C q^(2(N-n)); a bound's rate
  is a floor for the observed decay, not a prediction of it.
"""

import io
import time

import mpmath as mp
import numpy as np
import pytest

from qfde import (
    QScale,
    build_mesh,
    caputo_q_derivative,
    coefficients,
    l1q_apply,
    make_problem,
    q_bracket,
    q_derivative,
    q_gamma,
    q_integral_zero,
    shifted_factorial_real,
    solve_ivp,
    solve_linear_history,
    truncation_bound,
)
from qfde.cli import emit_csv, parse_csv, run_convergence, run_solve

from oracles import mp_caputo, mp_closed_b1, mp_l1q_march, mp_qbeta, mp_qgamma

GRID_Q = (0.3, 0.5, 2.0 / 3.0)
GRID_ALPHA = (0.25, 0.5, 0.75)

# Error columns recorded by an earlier reference computation, ascending
# t_n (n = 1..10).  Neither is produced by the scheme.  TABLE2 (example2)
# is kept as a record only: its first row, 2.0209e-4, contradicts the
# closed-form first step checked in criterion 1 (9.1637e-4), and no
# variant tried -- forcing Gamma_q(7/3) or Gamma_q(4/3), crossed with a
# series or closed-form b_1 -- reproduces the column.  TABLE1 (example1)
# is checked in criterion 2 against the defective run that made it.
TABLE2_ABS_ERR = [2.0209e-4, 1.6013e-4, 1.3277e-4, 1.1208e-4, 9.4942e-5,
                  7.9273e-5, 6.2639e-5, 4.0754e-5, 4.6923e-6, 6.5151e-5]
TABLE1_ABS_ERR = [3.2911e-7, 1.5456e-7, 7.5569e-8, 2.8026e-8, 1.3998e-7,
                  2.5337e-6, 4.0685e-5, 6.5104e-4, 1.4035e-4, 2.1218e-4]


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} -- {detail}")


def test_criterion_1_table2_reproduction():
    """Nonlinear benchmark, q=2/3, alpha=2/3, N=10: all ten errors match a
    40-digit march of the scheme to relative 1e-8, the first also its
    closed form (((1+q)/[4/3]_q)^3 - 1) t_1^2; runtime < 1 s."""
    q, alpha, N = 2.0 / 3.0, 2.0 / 3.0, 10
    start = time.perf_counter()
    rows, failure = run_solve(make_problem("example2", q, 1.0, alpha), QScale(q), N)
    assert failure is None
    wall = time.perf_counter() - start
    errs = [row[3] for row in rows]

    mq = mp.mpf(q)
    c = (1 + mq) / mp_qgamma(mp.mpf(7) / 3, mq)
    t, xs = mp_l1q_march(q, alpha, N, lambda s, x: c * mp.cbrt(x - 1) ** 2,
                         1, 1e-8)
    ref = [abs(t[n] ** 2 + 1 - xs[n]) for n in range(1, N + 1)]
    devs = [float(abs(e - r) / r) for e, r in zip(errs, ref)]
    bracket = (1 - mq ** (mp.mpf(4) / 3)) / (1 - mq)
    first = (((1 + mq) / bracket) ** 3 - 1) * t[1] ** 2
    first_dev = float(abs(errs[0] - first) / first)
    ok = max(devs) <= 1e-8 and first_dev <= 1e-8 and wall < 1.0
    _report(1, ok, f"max rel deviation from the 40-digit march {max(devs):.3g} "
                   f"(tol 1e-8); first error {errs[0]:.5e} vs closed form "
                   f"{float(first):.5e} (rel {first_dev:.2g}); errors "
                   f"{errs[0]:.4e}..{errs[-1]:.4e}; runtime {wall:.3f}s")
    assert wall < 1.0
    assert first_dev <= 1e-8
    assert max(devs) <= 1e-8


def test_criterion_2_table1_reproduction_conditional():
    """Linear benchmark at q=1/4, alpha=1/2, N=10 with the oracle-resolved
    forcing: states and errors match a 40-digit march of the scheme to
    absolute 1e-13, runtime < 1 s; the recorded column's rows 1-8 match
    the march with the literal coefficient and closed-form b_1 (rel 1e-3)."""
    # resolve the forcing coefficient by independent quadrature first
    q, t = 0.25, 0.7
    oracle = float(mp_caputo(lambda s: s * s, 0.5, t, q))
    corrected = (1.0 + q) / q_gamma(2.5, q) * t ** 1.5
    literal = (1.0 + q) / q_gamma(1.5, q) * t ** 1.5
    use_corrected = abs(oracle - corrected) < abs(oracle - literal)
    assert abs(oracle - corrected) <= 1e-10 * abs(corrected), \
        "quadrature does not confirm either forcing candidate"
    # the registry problem must implement whichever form the oracle confirms
    problem = make_problem("example1", q=q)
    got = float(problem.f(t, problem.x0)[0])
    want = (corrected if use_corrected else literal) + 1.0 / q_gamma(1.5, q) * t ** 0.5
    assert got == pytest.approx(want, rel=1e-12)

    start = time.perf_counter()
    rows, failure = run_solve(make_problem("example1", q, 1.0, 0.5), QScale(q), 10)
    assert failure is None
    wall = time.perf_counter() - start
    states = [row[1] for row in rows]
    errs = [row[3] for row in rows]

    mq = mp.mpf(q)
    c1 = 1 / mp_qgamma(1.5, mq)

    def forcing(c2):
        return lambda s, x: c2 * s ** 1.5 + c1 * mp.sqrt(s)

    nodes, xs = mp_l1q_march(q, 0.5, 10, forcing((1 + mq) / mp_qgamma(2.5, mq)),
                             1, 1e-8)

    def march_errors(xs):
        return [abs(tn * tn + tn + 1 - x) for tn, x in zip(nodes[1:], xs[1:])]

    state_dev = float(max(abs(s - x) for s, x in zip(states, xs[1:])))
    err_dev = float(max(abs(e - r) for e, r in zip(errs, march_errors(xs))))

    # The recorded column comes from a run with the literal coefficient
    # (1+q)/Gamma_q(3/2) and the closed-form first weight.  That run gives
    # rows 1-8; its rows 9-10 are 1.0417e-2 and 1.6667e-1, and rows 9-10
    # of the table match no variant tried.
    _, xs_lit = mp_l1q_march(q, 0.5, 10, forcing((1 + mq) / mp_qgamma(1.5, mq)),
                             1, 1e-8, b1=mp_closed_b1)
    table_dev = float(max(abs(r - ref) / ref for r, ref in
                          zip(march_errors(xs_lit)[:8], TABLE1_ABS_ERR[:8])))

    ok = (state_dev <= 1e-13 and err_dev <= 1e-13 and table_dev <= 1e-3
          and wall < 1.0)
    _report(2, ok, f"forcing resolved to the corrected coefficient; max abs "
                   f"deviation from the 40-digit march: states {state_dev:.2g}, "
                   f"errors {err_dev:.2g} (tol 1e-13); errors {errs[0]:.2e}.."
                   f"{errs[-1]:.2e}; recorded rows 1-8 vs the defective march "
                   f"{table_dev:.2g} (tol 1e-3); runtime {wall:.3f}s")
    assert wall < 1.0
    assert state_dev <= 1e-13
    assert err_dev <= 1e-13
    assert table_dev <= 1e-3


def test_criterion_3_coefficient_identities():
    """Closed-form weights agree with the defining quadrature (rel 1e-9)
    and the monotone chain is strict, across the (q, alpha) grid; < 5 s."""
    start = time.perf_counter()
    worst = 0.0
    chain_ok = True
    for q in GRID_Q:
        mesh = build_mesh(QScale(q, 1.0), 8)
        t = mesh.nodes
        for alpha in GRID_ALPHA:
            for n in range(1, 9):
                c = coefficients(mesh, n, alpha)
                floor = t[n] ** (-alpha)
                chain_ok &= floor < c[0]
                chain_ok &= bool(np.all(np.diff(c) > 0.0))
                kern = lambda s: shifted_factorial_real(t[n], q * s, -alpha, q)
                for k in range(2, n + 1):
                    quad = ((q_integral_zero(kern, float(t[k]), q)
                             - q_integral_zero(kern, float(t[k - 1]), q))
                            / mesh.steps[k - 1])
                    worst = max(worst, abs(c[k - 1] - quad) / quad)
    wall = time.perf_counter() - start
    ok = worst <= 1e-9 and chain_ok and wall < 5.0
    _report(3, ok, f"worst closed-vs-quadrature rel diff {worst:.3g} "
                   f"(tol 1e-9); chain strict: {chain_ok}; runtime {wall:.2f}s")
    assert chain_ok
    assert worst <= 1e-9
    assert wall < 5.0


def test_criterion_4_truncation_dominance():
    """|L1q - Caputo| for x = t^2 + 1 never exceeds the remainder bound
    with m2 = 1 + q, across the grid and N in 4..12; < 30 s."""
    start = time.perf_counter()
    worst = 0.0
    for q in GRID_Q:
        for alpha in GRID_ALPHA:
            for N in range(4, 13):
                mesh = build_mesh(QScale(q, 1.0), N)
                x = mesh.nodes ** 2 + 1.0
                for n in range(1, N + 1):
                    got = l1q_apply(x[:n + 1], mesh, alpha)
                    exact = caputo_q_derivative(lambda u: u * u + 1.0, alpha,
                                                float(mesh.nodes[n]), q)
                    bound = truncation_bound(mesh, n, alpha, m2=1.0 + q)
                    worst = max(worst, abs(got - exact) / bound)
    wall = time.perf_counter() - start
    ok = worst <= 1.0 and wall < 30.0
    _report(4, ok, f"worst |observed|/bound ratio {worst:.4f} (must be <= 1); "
                   f"runtime {wall:.2f}s")
    assert worst <= 1.0
    assert wall < 30.0


def test_criterion_5_unconditional_stability():
    """50 randomized bounded-forcing linear-history solves satisfy the
    stability estimate at every node (slack 1 + 1e-12); < 5 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        q = rng.uniform(0.15, 0.9)
        alpha = rng.uniform(0.05, 0.95)
        N = int(rng.integers(2, 12))
        x0 = rng.uniform(-5.0, 5.0)
        fs = rng.uniform(-4.0, 4.0, N)
        trace = solve_linear_history(fs, x0, alpha, QScale(q, 1.0))
        gamma = q_gamma(1.0 - alpha, q)
        for n in range(1, N + 1):
            cap = (abs(x0) + gamma * trace.mesh.nodes[n] ** alpha
                   * np.max(np.abs(fs[:n])))
            worst = max(worst, abs(trace.states[n, 0]) / cap)
    wall = time.perf_counter() - start
    ok = worst <= 1.0 + 1e-12 and wall < 5.0
    _report(5, ok, f"worst |x^n|/bound ratio {worst:.6f} "
                   f"(slack 1+1e-12); runtime {wall:.2f}s")
    assert worst <= 1.0 + 1e-12
    assert wall < 5.0


def test_criterion_6_special_function_suite():
    """Gamma recurrence (200 points, rel 1e-10), beta/gamma identity
    against the 40-digit Jackson sum of B_q (rel 1e-12), both
    integration-by-parts identities (rel 1e-8), kernel derivative identity
    (rel 1e-9) and kernel bound; < 10 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)

    worst_rec = 0.0
    for _ in range(200):
        alpha = rng.uniform(0.1, 5.0)
        q = rng.uniform(0.1, 0.9)
        lhs = q_gamma(alpha + 1.0, q)
        rhs = q_bracket(alpha, q) * q_gamma(alpha, q)
        worst_rec = max(worst_rec, abs(lhs - rhs) / abs(lhs))

    worst_beta = 0.0
    for q in (0.3, 0.5, 0.8):
        for a in (0.5, 1.0, 1.5, 2.5):
            for b in (0.5, 1.0, 1.5, 2.5):
                ref = float(mp_qbeta(a, b, q))
                got = q_gamma(a, q) * q_gamma(b, q) / q_gamma(a + b, q)
                worst_beta = max(worst_beta, abs(got - ref) / ref)

    worst_parts = 0.0
    for q in (0.4, 0.7):
        for _ in range(4):
            cf = rng.uniform(-1, 1, 5)
            cg = rng.uniform(-1, 1, 5)
            f = lambda t, c=cf: sum(ci * t ** i for i, ci in enumerate(c))
            g = lambda t, c=cg: sum(ci * t ** i for i, ci in enumerate(c))
            dqf = lambda t: q_derivative(f, t, q)
            dqg = lambda t: q_derivative(g, t, q)
            a, b = 0.2, 1.0
            over_ab = lambda h: q_integral_zero(h, b, q) - q_integral_zero(h, a, q)
            boundary = f(b) * g(b) - f(a) * g(a)
            lhs = over_ab(lambda t: g(t) * dqf(t))
            rhs = boundary - over_ab(lambda t: f(q * t) * dqg(t))
            worst_parts = max(worst_parts, abs(lhs - rhs) / (1.0 + abs(rhs)))
            lhs = over_ab(lambda t: g(q * t) * dqf(t))
            rhs = boundary - over_ab(lambda t: f(t) * dqg(t))
            worst_parts = max(worst_parts, abs(lhs - rhs) / (1.0 + abs(rhs)))

    worst_kernel = 0.0
    bound_ok = True
    t = 1.0
    for q in (0.4, 0.6):
        for alpha in GRID_ALPHA:
            cap = t ** (-alpha - 1.0) / ((1.0 - q ** alpha)
                                         * (1.0 - q ** (1.0 - alpha)))
            for j in range(31):
                s = t * q ** j
                kernel_val = shifted_factorial_real(t, q * s, -alpha - 1.0, q)
                bound_ok &= abs(kernel_val) <= cap * (1.0 + 1e-12)
                if j > 12:
                    # the difference quotient below loses ~q^-j of its
                    # precision to cancellation as s -> 0; past j ~ 12 it
                    # measures the test's arithmetic, not the kernel
                    continue
                F = lambda u: shifted_factorial_real(t, u, -alpha, q)
                lhs = (F(q * s) - F(s)) / ((q - 1.0) * s)
                rhs = -q_bracket(-alpha, q) * kernel_val
                worst_kernel = max(worst_kernel, abs(lhs - rhs) / (1.0 + abs(rhs)))

    wall = time.perf_counter() - start
    ok = (worst_rec <= 1e-10 and worst_beta <= 1e-12 and worst_parts <= 1e-8
          and worst_kernel <= 1e-9 and bound_ok and wall < 10.0)
    _report(6, ok, f"gamma recurrence {worst_rec:.2g} (1e-10), beta/gamma "
                   f"{worst_beta:.2g} (1e-12), int-by-parts {worst_parts:.2g} "
                   f"(1e-8), kernel identity {worst_kernel:.2g} (1e-9), "
                   f"kernel bound {bound_ok}; runtime {wall:.2f}s")
    assert worst_rec <= 1e-10
    assert worst_beta <= 1e-12
    assert worst_parts <= 1e-8
    assert worst_kernel <= 1e-9
    assert bound_ok
    assert wall < 10.0


def test_criterion_7_convergence_scaling():
    """Nonlinear benchmark over N in {6,8,10,12}, delta = 0.5: fitted decay
    at least 0.75 * 2*delta*ln(1/q), rate constants within a factor 5,
    runtime < 10 s.

    2*delta*ln(1/q) = 0.4055 is the decay of the a-priori bound
    |e_n| <= C q^(2(N-n)) over the nodes n <= (1-delta)N, so it bounds the
    observed decay from below and the 25% window is kept on that side
    only.  The observed decay is 0.665, 1.64x that value: the first-step
    error C t_1^2 is carried along by the linearised error mode t^beta,
    where beta = 0.7562 solves
    Gamma_q(beta+1)/Gamma_q(beta+1/3) = (2/3) Gamma_q(3)/Gamma_q(7/3),
    which predicts a decay of (2 - beta/2) ln(1/q) = 0.6576.  Every rate
    constant equals ((1+q)/[4/3]_q)^3 - 1 = 1.3543, so their spread is 1."""
    start = time.perf_counter()
    summary = run_convergence(make_problem("example2", 2.0 / 3.0, 1.0, 2.0 / 3.0),
                              QScale(2.0 / 3.0), [6, 8, 10, 12], delta=0.5)
    wall = time.perf_counter() - start
    fit, target = summary["fitted_decay"], summary["target_decay"]
    spread = max(summary["rate_constants"]) / min(summary["rate_constants"])
    fit_ok = fit >= 0.75 * target
    spread_ok = spread <= 5.0
    ok = fit_ok and spread_ok and wall < 10.0
    _report(7, ok, f"fitted decay {fit:.4f} vs bound rate {target:.4f} "
                   f"(ratio {fit / target:.3f}, must be >= 0.75): "
                   f"{'ok' if fit_ok else 'BELOW'}; rate-constant spread "
                   f"{spread:.3f} (<= 5): {'ok' if spread_ok else 'OUTSIDE'}; "
                   f"runtime {wall:.2f}s")
    assert spread_ok
    assert wall < 10.0
    assert fit_ok


def test_criterion_8_determinism_and_csv_round_trip():
    """Identical configs give bit-identical traces; CSV parses back to the
    exact in-memory rows."""
    problem = make_problem("example2", q=2.0 / 3.0)
    scale = QScale(2.0 / 3.0, 1.0)
    a = solve_ivp(problem, scale, 10)
    b = solve_ivp(problem, scale, 10)
    identical = (np.array_equal(a.states, b.states)
                 and np.array_equal(a.fp_iterations, b.fp_iterations)
                 and np.array_equal(a.residuals, b.residuals))

    rows, failure = run_solve(problem, scale, 10)
    assert failure is None
    buf = io.StringIO()
    emit_csv(rows, buf)
    round_trip = parse_csv(io.StringIO(buf.getvalue())) == rows

    ok = identical and round_trip
    _report(8, ok, f"bit-identical traces: {identical}; exact CSV round "
                   f"trip: {round_trip}")
    assert identical
    assert round_trip
