"""CLI harness: runs, formats, round trips, exit codes."""

import io
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from qfde import (
    FixedPointError,
    IVProblem,
    MonotonicityError,
    NonConvergenceError,
    QScale,
    build_mesh,
    cli,
    make_problem,
    solver,
)
from qfde.cli import (
    EXIT_ARGS,
    EXIT_BOUND,
    EXIT_OK,
    EXIT_SOLVER,
    emit_csv,
    main,
    parse_csv,
    parse_rational,
    run_bounds,
    run_convergence,
    run_solve,
)


def test_parse_rational():
    assert parse_rational("2/3") == 2.0 / 3.0
    assert parse_rational("1/4") == 0.25
    assert parse_rational("0.5") == 0.5
    with pytest.raises(ValueError):
        parse_rational("x/y")
    # Fraction raises ZeroDivisionError and float OverflowError, which
    # argparse would not turn into a usage error
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("1" + "0" * 400 + "/3")


@pytest.mark.parametrize("argv", [["--q", "1/0"], ["--q", "1/4", "--alpha", "1/0"]])
def test_main_zero_denominator_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--problem", "example1", "--N", "10"] + argv)
    assert info.value.code == EXIT_ARGS
    err = capsys.readouterr().err
    assert "invalid parse_rational value: '1/0'" in err and "Traceback" not in err


def test_run_solve_constant_rows():
    rows, failure = run_solve(make_problem("constant", 0.5, 1.0, 0.5), QScale(0.5), 4)
    assert failure is None
    assert len(rows) == 4
    for t, x, xe, err, fp in rows:
        assert x == 1.0 and xe == 1.0 and err == 0.0
    assert [r[0] for r in rows] == sorted(r[0] for r in rows)


def test_run_solve_rows_before_a_failed_step():
    # f is finite before node t_k and infinite from t_k on: steps 1..k-1
    # solve, step k fails, and the rows are those of the k-1 solved nodes
    scale, N, k = QScale(0.5), 8, 5
    nodes = build_mesh(scale, N).nodes
    t_k = float(nodes[k])
    problem = IVProblem(f=lambda t, x: np.array([0.0 if t < t_k else math.inf]),
                        alpha=0.5, x0=np.array([1.0]), lipschitz_L=0.0,
                        exact=lambda t: 1.0 + 0.0 * np.asarray(t))
    rows, failure = run_solve(problem, scale, N)
    assert isinstance(failure, FixedPointError)
    assert failure.step == k
    assert len(rows) == k - 1
    assert all(x == 1.0 and err == 0.0 for _, x, _, err, _ in rows)
    assert [row[0] for row in rows] == nodes[1:k].tolist()


def test_csv_round_trip_exact():
    problem = make_problem("manufactured-quadratic", 2.0 / 3.0, 1.0, 2.0 / 3.0)
    rows, failure = run_solve(problem, QScale(2.0 / 3.0), 8)
    assert failure is None
    buf = io.StringIO()
    emit_csv(rows, buf)
    back = parse_csv(io.StringIO(buf.getvalue()))
    assert back == rows  # bitwise float equality via 17 digits


def test_csv_format_contract():
    problem = make_problem("manufactured-linear", 0.5, 1.0, 0.5)
    rows, failure = run_solve(problem, QScale(0.5), 3)
    assert failure is None
    buf = io.StringIO()
    emit_csv(rows, buf)
    text = buf.getvalue()
    lines = text.split("\n")
    assert lines[0] == "t,x_num,x_exact,abs_err,fp_iters"
    assert len(lines) == 3 + 2  # header + N rows + trailing newline
    assert "\r" not in text
    float_re = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,}$")
    for line in lines[1:-1]:
        parts = line.split(",")
        assert len(parts) == 5
        for cell in parts[:4]:
            assert float_re.match(cell), cell
        assert parts[4].isdigit()


def test_main_solve_ok(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["solve", "--problem", "example2", "--q", "2/3", "--N", "10",
                 "--format", "csv", "--out", str(out)])
    assert code == EXIT_OK
    rows = parse_csv(out.open())
    assert len(rows) == 10
    assert rows[-1][0] == 1.0


def test_main_solve_table_stdout(capsys):
    code = main(["solve", "--problem", "constant", "--q", "0.5", "--N", "3"])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "t_n" in text and text.count("\n") == 5  # header line, column names, 3 rows
    # the header names the run and shows every solver setting, not a
    # fingerprint of them; alpha is the problem's default
    header, wall = text.split("\n")[0].split("wall=")
    assert header == ("# problem=constant q=0.5 alpha=0.5 N=3 b=1 fp_tol=1e-13 "
                      "max_iters=200 perturb=1e-08 ")
    assert re.fullmatch(r"\S+s", wall)


def test_main_invalid_arguments(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--problem", "nosuch", "--q", "0.5", "--N", "3"])
    assert info.value.code == EXIT_ARGS
    # q outside (0,1) surfaces as a validation failure
    assert main(["solve", "--problem", "constant", "--q", "1.5",
                 "--N", "3"]) == EXIT_ARGS
    # alpha incompatible with the registry problem
    assert main(["solve", "--problem", "example1", "--q", "0.25",
                 "--alpha", "0.7", "--N", "3"]) == EXIT_ARGS
    assert main(["converge", "--problem", "example2", "--q", "2/3",
                 "--N-list", "6,x", "--delta", "0.5"]) == EXIT_ARGS
    # N is checked by the mesh, alpha by the registry factory and IVProblem,
    # before Gamma_q(3 - alpha) meets its pole at 3 or Gamma_q(2 - alpha)
    # overflows at 2000.5
    capsys.readouterr()
    for argv in (["solve", "--problem", "example1", "--q", "1/4", "--N", "0"],
                 ["solve", "--problem", "manufactured-quadratic", "--q", "1/4",
                  "--N", "3", "--alpha", "1.5"],
                 ["converge", "--problem", "example2", "--q", "2/3",
                  "--N-list", "6,8", "--delta", "0.5", "--alpha", "0"],
                 ["solve", "--problem", "manufactured-quadratic", "--q", "1/4",
                  "--N", "3", "--alpha", "3"],
                 ["solve", "--problem", "manufactured-linear", "--q", "1/4",
                  "--N", "3", "--alpha", "2000.5"],
                 ["solve", "--problem", "example1", "--q", "1/4", "--N", "3",
                  "--alpha", "nan"],
                 # a negative m2 would make every bound negative, every
                 # node a violation
                 ["bounds", "--problem", "example1", "--q", "1/4", "--N", "4",
                  "--m2", "-1"]):
        assert main(argv) == EXIT_ARGS, argv
        assert capsys.readouterr().err.startswith("error: "), argv


@pytest.mark.parametrize("argv, message", [
    pytest.param(["bounds", "--m2", "nan"], "m2 must not be NaN", id="m2-nan"),
    pytest.param(["bounds", "--m2", "inf"], "m2 must be finite", id="m2-inf"),
    pytest.param(["solve", "--b", "inf"], "horizon b must be positive and finite",
                 id="b-inf"),
])
def test_main_non_finite_flags_exit_at_once(argv, message, capsys):
    # each is refused as an invalid argument before any step is solved
    code = main(argv[:1] + ["--problem", "example1", "--q", "1/4", "--N", "10"]
                + argv[1:])
    out, err = capsys.readouterr()
    assert code == EXIT_ARGS
    assert out == "" and err.startswith("error: ") and message in err


@pytest.mark.parametrize("m2", ["-1", "nan"])
def test_main_bounds_refuses_a_bad_m2_before_the_solve(m2, monkeypatch, capsys):
    calls = []
    solve = cli.solve_ivp
    monkeypatch.setattr(cli, "solve_ivp", lambda *args: calls.append(args) or solve(*args))
    code = main(["bounds", "--problem", "example1", "--q", "0.9", "--N", "300",
                 "--m2", m2])
    assert code == EXIT_ARGS
    assert "m2 must not be NaN or negative" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("flag", [["--fp-tol", "1e-10"], ["--max-iters", "3"],
                                  ["--perturb", "1e-7"]])
def test_main_has_no_solver_setting_flags(flag, monkeypatch, capsys):
    # the fixed-point settings are module constants of qfde.solver
    calls = []
    monkeypatch.setattr(cli, "solve_ivp", lambda *args: calls.append(args))
    with pytest.raises(SystemExit) as info:
        main(["solve", "--problem", "example1", "--q", "1/4", "--N", "10"] + flag)
    assert info.value.code == EXIT_ARGS
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert calls == []


def test_parser_built_once_and_left_unchanged(capsys):
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    with pytest.raises(SystemExit) as info:
        main(["solve", "--problem", "nosuch", "--q", "0.5", "--N", "3"])
    assert info.value.code == EXIT_ARGS
    assert capsys.readouterr().err.startswith("usage: qfde solve")
    # no value of one parse leaks into the next
    first = parser.parse_args(["solve", "--problem", "example1", "--q", "1/4",
                               "--alpha", "0.5", "--N", "3", "--format", "csv"])
    second = parser.parse_args(["solve", "--problem", "example1", "--q", "1/4",
                                "--N", "3"])
    assert (first.alpha, first.format) == (0.5, "csv")
    assert (second.alpha, second.format) == (None, "table")


def test_main_solver_failure_writes_partial(tmp_path, monkeypatch, capsys):
    out = tmp_path / "partial.csv"
    monkeypatch.setattr(solver, "MAX_FP_ITERS", 3)
    code = main(["solve", "--problem", "example2", "--q", "2/3", "--N", "5",
                 "--format", "csv", "--out", str(out)])
    assert code == EXIT_SOLVER
    assert parse_csv(out.open()) == []  # step 1 failed, header only
    assert "did not converge" in capsys.readouterr().err


def test_main_numerical_failure_exit_code(monkeypatch, capsys):
    # numerical failures exit 1; invalid arguments, such as a mesh past
    # the underflow limit, exit 3
    def failing_solve(*args, **kwargs):
        raise MonotonicityError("weight chain violated (test double)")

    monkeypatch.setattr(cli, "solve_ivp", failing_solve)
    assert main(["solve", "--problem", "example2", "--q", "2/3",
                 "--N", "10"]) == EXIT_SOLVER
    assert main(["converge", "--problem", "example2", "--q", "2/3",
                 "--N-list", "6,8", "--delta", "0.5"]) == EXIT_SOLVER
    assert main(["bounds", "--problem", "example1", "--q", "1/4",
                 "--N", "6"]) == EXIT_SOLVER
    assert "weight chain violated" in capsys.readouterr().err

    def nonconvergent_solve(*args, **kwargs):
        raise NonConvergenceError("series did not settle (test double)")

    monkeypatch.setattr(cli, "solve_ivp", nonconvergent_solve)
    assert main(["solve", "--problem", "example2", "--q", "2/3",
                 "--N", "10"]) == EXIT_SOLVER
    monkeypatch.undo()
    assert main(["solve", "--problem", "manufactured-quadratic", "--q", "1/4",
                 "--N", "539"]) == EXIT_ARGS
    assert "exceeds the limit N <= 538" in capsys.readouterr().err


def test_main_solve_past_old_rejection(capsys):
    # example2 at q=2/3, N=100 was once rejected as a numerical failure
    assert main(["solve", "--problem", "example2", "--q", "2/3",
                 "--N", "100"]) == EXIT_OK
    assert capsys.readouterr().out.count("\n") == 102  # metadata, header, 100 rows


def _study(name, q, alpha, N_list, delta):
    return run_convergence(make_problem(name, q, 1.0, alpha), QScale(q), N_list, delta)


def test_run_convergence_summary():
    summary = _study("example2", 2.0 / 3.0, 2.0 / 3.0, [6, 8, 10], delta=0.5)
    assert len(summary["max_err"]) == 3 and all(e > 0.0 for e in summary["max_err"])
    assert summary["fitted_decay"] is not None
    assert summary["target_decay"] == pytest.approx(np.log(1.5), rel=1e-12)
    # errors shrink monotonically with N on the protected node range
    assert summary["max_err"][0] > summary["max_err"][1] > summary["max_err"][2]


def test_run_convergence_degenerate_cases():
    summary = _study("example2", 2.0 / 3.0, 2.0 / 3.0, [8], delta=0.5)
    assert summary["fitted_decay"] is None
    assert "single N" in summary["warning"]
    summary = _study("constant", 0.5, 0.5, [4, 6], delta=0.5)
    assert summary["all_exact"]
    assert summary["fitted_decay"] is None
    # q^(2(N-n)) underflows at q = 1/8, N = 181; exact-zero errors give
    # rate constant 0, not 0/0
    summary = _study("manufactured-quadratic", 0.125, 0.5, [150, 181], delta=0.5)
    assert summary["all_exact"]
    assert np.all(np.isfinite(summary["rate_constants"]))
    with pytest.raises(ValueError):
        _study("manufactured-quadratic", 0.125, 0.5, [1, 4], delta=0.5)
    with pytest.raises(ValueError):
        _study("manufactured-quadratic", 0.125, 0.5, [4, 6], delta=1.5)


def test_converge_refuses_a_delta_that_leaves_an_N_no_node(monkeypatch, capsys):
    # int((1 - 0.9) N) = 0 at N = 2 and 4: no node n <= (1-delta)N is left,
    # and the study stops before any solve instead of printing nan errors
    calls = []
    solve = cli.solve_ivp
    monkeypatch.setattr(cli, "solve_ivp", lambda *args: calls.append(args) or solve(*args))
    with pytest.raises(ValueError, match=r"^delta=0.9 leaves N=2 no node n <= \(1-delta\)N$"):
        _study("example2", 2.0 / 3.0, 2.0 / 3.0, [2, 4], delta=0.9)
    assert main(["converge", "--problem", "example2", "--q", "2/3",
                 "--N-list", "2,4", "--delta", "0.9"]) == EXIT_ARGS
    out, err = capsys.readouterr()
    assert out == "" and err == "error: delta=0.9 leaves N=2 no node n <= (1-delta)N\n"
    # N = 1 never has such a node
    assert main(["converge", "--problem", "example2", "--q", "2/3",
                 "--N-list", "1,4", "--delta", "0.5"]) == EXIT_ARGS
    assert "leaves N=1 no node" in capsys.readouterr().err
    assert calls == []


def test_converge_refuses_a_repeated_N(monkeypatch, capsys):
    # a fit through repeated N is rank-deficient: polyfit returned a
    # least-norm slope, 0.295361 here, and the study exited 0
    calls = []
    solve = cli.solve_ivp
    monkeypatch.setattr(cli, "solve_ivp", lambda *args: calls.append(args) or solve(*args))
    with pytest.raises(ValueError, match=r"^N=10 is repeated in the N list$"):
        _study("example2", 2.0 / 3.0, 2.0 / 3.0, [10, 20, 10], delta=0.5)
    assert main(["converge", "--problem", "example2", "--q", "2/3",
                 "--N-list", "10,10", "--delta", "0.5"]) == EXIT_ARGS
    out, err = capsys.readouterr()
    assert out == "" and err == "error: N=10 is repeated in the N list\n"
    assert calls == []
    # distinct N in any order still fit
    summary = _study("example2", 2.0 / 3.0, 2.0 / 3.0, [20, 10], delta=0.5)
    assert summary["fitted_decay"] is not None


def test_converge_fits_no_decay_through_a_zero_error(capsys):
    # at q = 1/4, N = 20 every error on n <= 10 is exactly 0, whose log is
    # -inf: the study says so and fits nothing
    summary = _study("example1", 0.25, 0.5, [10, 20], delta=0.5)
    assert summary["max_err"][0] > 0.0 and summary["max_err"][1] == 0.0
    assert not summary["all_exact"]
    assert summary["fitted_decay"] is None
    assert summary["warning"] == "a max error is exactly zero; no fit"
    assert main(["converge", "--problem", "example1", "--q", "1/4",
                 "--N-list", "10,20", "--delta", "0.5"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[-1] == "warning: a max error is exactly zero; no fit"
    assert "fitted" not in out


def test_main_converge_ok(tmp_path):
    out = tmp_path / "conv.txt"
    code = main(["converge", "--problem", "example2", "--q", "2/3",
                 "--N-list", "6,8", "--delta", "0.5", "--out", str(out)])
    assert code == EXIT_OK
    assert "fitted log-error decay" in out.read_text()


@pytest.mark.parametrize("argv, target, message", [
    pytest.param(["solve", "--problem", "example1", "--q", "1/2", "--N", "5"],
                 "missing/x.csv", "No such file or directory", id="solve"),
    pytest.param(["converge", "--problem", "example2", "--q", "2/3",
                  "--N-list", "6,8", "--delta", "0.5"], ".", "Is a directory", id="converge"),
])
def test_an_out_that_cannot_be_written_is_an_invalid_argument(argv, target, message,
                                                              tmp_path, capsys):
    # a file in a missing directory, or a directory: one error line and
    # exit 3, not a traceback with the exit code of a numerical failure
    assert main(argv + ["--out", str(tmp_path / target)]) == EXIT_ARGS
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err
    assert err.count("\n") == 1


def _bounds(name, q, alpha, N, m2=None):
    return run_bounds(make_problem(name, q, 1.0, alpha), QScale(q), N, m2=m2)


def test_run_bounds_ok_and_violation_exit():
    report, ok = _bounds("manufactured-quadratic", 2.0 / 3.0, 2.0 / 3.0, 8)
    assert ok
    assert np.all(report["ratio"] <= 1.0)
    assert report["m2"] == pytest.approx(1.0 + 2.0 / 3.0, rel=1e-9)
    assert report["stability_ok"]
    # an artificially tiny m2 forces a reported violation
    code = main(["bounds", "--problem", "manufactured-quadratic", "--q", "2/3",
                 "--N", "8", "--m2", "1e-12"])
    assert code == EXIT_BOUND


def test_run_bounds_affine_exact():
    report, ok = _bounds("manufactured-linear", 0.5, 0.5, 6)
    assert ok
    assert np.all(report["abs_err"] <= 1e-10)
    assert np.all(report["bound"] <= 1e-6)


def test_bounds_ratio_of_a_zero_bound(capsys):
    # m2 = 0 bounds no error: the ratio is inf where the error is not 0, and
    # 0 where it is 0 too; it once printed err/1e-300 as a 290-digit number
    assert main(["bounds", "--problem", "example1", "--q", "1/4", "--N", "10",
                 "--m2", "0"]) == EXIT_BOUND
    rows = capsys.readouterr().out.splitlines()[2:12]
    assert all(row.split()[3] == "inf" and len(row) == 63 for row in rows)
    report, ok = _bounds("constant", 0.25, 0.5, 10, m2=0.0)
    assert ok and np.all(report["bound"] == 0.0) and np.all(report["abs_err"] == 0.0)
    assert report["ratio"].tolist() == [0.0] * 10
    # a positive bound keeps the plain quotient
    report, _ = _bounds("example1", 0.25, 0.5, 10, m2=1.0)
    assert np.all(report["bound"] > 0.0)
    assert np.array_equal(report["ratio"], report["abs_err"] / report["bound"])


def test_main_bounds_ok():
    assert main(["bounds", "--problem", "manufactured-quadratic", "--q", "1/2",
                 "--N", "6"]) == EXIT_OK


def test_bounds_refuse_a_problem_without_a_lipschitz_constant(monkeypatch, capsys):
    # example2's right-hand side c (x-1)^(2/3) has no Lipschitz constant, so
    # no theorem bounds its error; it is refused before any step is solved
    calls = []
    solve = cli.solve_ivp
    monkeypatch.setattr(cli, "solve_ivp", lambda *args: calls.append(args) or solve(*args))
    message = "the problem has no Lipschitz constant; the bounds need one"
    with pytest.raises(ValueError, match=f"^{message}$"):
        _bounds("example2", 0.9, 2.0 / 3.0, 60)
    assert main(["bounds", "--problem", "example2", "--q", "0.9", "--N", "60"]) == EXIT_ARGS
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    assert calls == []


@pytest.mark.parametrize("argv, message", [
    pytest.param(["--problem", "example1", "--q", "1/4", "--N", "10", "--m2", "inf"],
                 "m2 must be finite, got inf", id="m2-inf"),
    # t_1 = 4^-299, whose square underflows to 0 in the m2 estimate
    pytest.param(["--problem", "manufactured-quadratic", "--q", "1/4", "--N", "300"],
                 "t^2 is subnormal or 0", id="m2-estimate-underflow"),
    # t_1 = 4^-268, whose square 2e-323 is subnormal: it once ran to "ok" with
    # m2 = 4.5e307 and a bound of 2.7e307 at t = 1
    pytest.param(["--problem", "manufactured-quadratic", "--q", "1/4", "--N", "269"],
                 "t^2 is subnormal or 0", id="m2-estimate-subnormal"),
])
def test_bounds_refuse_a_non_finite_m2_in_a_fresh_process(argv, message):
    # each once ran to "ok": inf bounds, or inf x 0 = NaN bounds after a
    # division by 0 that is a traceback under -W error
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run([sys.executable, "-W", "error", "-m", "qfde.cli", "bounds",
                           *argv], capture_output=True, text=True, env=env)
    assert done.returncode == EXIT_ARGS
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert message in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize("nan_at", [lambda t: t > 0.5, lambda t: t < 0.2],
                         ids=["last-node", "first-nodes"])
def test_estimate_m2_refuses_a_nan_at_any_node(nan_at):
    # x = t^2 + 1 has D_q^2 x = 1 + q = 1.5 at q = 1/2; an exact solution
    # that is NaN at some node gives a NaN m2, which the bounds refuse
    problem = make_problem("manufactured-quadratic", 0.5)
    mesh = build_mesh(QScale(0.5), 4)
    assert cli.estimate_m2(problem, mesh) == pytest.approx(1.5, rel=1e-12)
    exact = problem.exact
    problem.exact = lambda t: math.nan if nan_at(t) else exact(t)
    assert math.isnan(cli.estimate_m2(problem, mesh))
    with pytest.raises(ValueError, match="m2 must not be NaN or negative"):
        run_bounds(problem, QScale(0.5), 4)


@pytest.mark.parametrize("m2, calls", [(None, 3 * 12 + 1), (2.0, 1)])
def test_run_bounds_exact_calls(m2, calls):
    # three per node to estimate m2, one vectorized call for the node errors
    counted = []
    problem = make_problem("manufactured-quadratic", 0.5, 1.0, 0.5)
    exact = problem.exact
    problem.exact = lambda t: counted.append(t) or exact(t)
    run_bounds(problem, QScale(0.5), 12, m2=m2)
    assert len(counted) == calls


def test_alpha_accepts_fractions(capsys):
    def stdout(alpha):
        assert main(["solve", "--problem", "example2", "--q", "2/3", "--N", "10",
                     "--alpha", alpha]) == EXIT_OK
        return re.sub(r"wall=\S+", "wall=", capsys.readouterr().out)

    assert stdout("2/3") == stdout("0.6666666666666666")


def test_main_solve_near_q_one(tmp_path):
    # T(0.999) = 32,221 entries in each weight table, over the 10,000 floor
    # of the series budget
    out = tmp_path / "out.csv"
    assert main(["solve", "--problem", "manufactured-quadratic", "--q", "0.999",
                 "--N", "2000", "--format", "csv", "--out", str(out)]) == EXIT_OK
    with open(out, encoding="utf-8") as fh:
        rows = parse_csv(fh)
    assert len(rows) == 2000
    assert all(math.isfinite(row[1]) for row in rows)


def test_main_q_past_the_tail_limit_fails_at_once(capsys):
    start = time.perf_counter()
    code = main(["solve", "--problem", "manufactured-quadratic",
                 "--q", "0.999999", "--N", "20"])
    assert time.perf_counter() - start < 0.1
    assert code == EXIT_SOLVER
    assert "over the limit" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, lines", [
    pytest.param(["solve", "--problem", "example2", "--q", "0.9", "--N", "2000"],
                 EXIT_OK, 1, id="solve-head-1"),
    pytest.param(["bounds", "--problem", "example1", "--q", "1/4", "--N", "10",
                  "--m2", "0"], EXIT_BOUND, 0, id="bounds-closed-at-once"),
])
def test_closed_stdout_ends_the_run_quietly(argv, code, lines):
    # a reader that closes the pipe early (``| head -1``, or before any read)
    # is not a failure: no traceback, and the run keeps its own exit code
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    with subprocess.Popen([sys.executable, "-W", "error", "-m", "qfde.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        for _ in range(lines):
            proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == code
    assert err == b""
