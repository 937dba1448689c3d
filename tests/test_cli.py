"""CLI harness: runs, formats, round trips, exit codes."""

import io
import re

import numpy as np
import pytest

from qfde import MonotonicityError, NonConvergenceError, cli
from qfde.cli import (
    EXIT_ARGS,
    EXIT_BOUND,
    EXIT_OK,
    EXIT_SOLVER,
    ProblemSpec,
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


def test_run_solve_constant_rows():
    record = run_solve(ProblemSpec(name="constant", q=0.5, N=4, alpha=0.5))
    assert len(record.rows) == 4
    for t, x, xe, err, fp in record.rows:
        assert x == 1.0 and xe == 1.0 and err == 0.0
    assert record.metadata["N"] == 4
    assert [r[0] for r in record.rows] == sorted(r[0] for r in record.rows)


def test_csv_round_trip_exact():
    record = run_solve(ProblemSpec(name="manufactured-quadratic", q=2.0 / 3.0,
                                   N=8, alpha=2.0 / 3.0))
    buf = io.StringIO()
    emit_csv(record, buf)
    back = parse_csv(io.StringIO(buf.getvalue()))
    assert back.rows == record.rows  # bitwise float equality via 17 digits


def test_csv_format_contract():
    record = run_solve(ProblemSpec(name="manufactured-linear", q=0.5, N=3,
                                   alpha=0.5))
    buf = io.StringIO()
    emit_csv(record, buf)
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


def test_csv_without_exact_solution():
    import qfde

    spec = ProblemSpec(name="constant", q=0.5, N=2, alpha=0.5)
    problem = spec.problem()
    problem.exact = None
    trace = qfde.solve_ivp(problem, spec.scale(), spec.N, spec.config())
    from qfde.cli import _record_from_trace

    record = _record_from_trace(spec, trace, problem, 0.0)
    buf = io.StringIO()
    emit_csv(record, buf)
    assert buf.getvalue().split("\n")[0] == "t,x_num,fp_iters"
    back = parse_csv(io.StringIO(buf.getvalue()))
    assert back.rows == record.rows


def test_main_solve_ok(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(["solve", "--problem", "example2", "--q", "2/3", "--N", "10",
                 "--format", "csv", "--out", str(out)])
    assert code == EXIT_OK
    rows = parse_csv(out.open()).rows
    assert len(rows) == 10
    assert rows[-1][0] == 1.0


def test_main_solve_table_stdout(capsys):
    code = main(["solve", "--problem", "constant", "--q", "0.5", "--N", "3"])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "t_n" in text and text.count("\n") >= 4


def test_main_invalid_arguments():
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


def test_main_solver_failure_writes_partial(tmp_path, capsys):
    out = tmp_path / "partial.csv"
    code = main(["solve", "--problem", "example2", "--q", "2/3", "--N", "5",
                 "--max-iters", "3", "--format", "csv", "--out", str(out)])
    assert code == EXIT_SOLVER
    assert parse_csv(out.open()).rows == []  # step 1 failed, header only
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


def test_run_convergence_summary():
    spec = ProblemSpec(name="example2", q=2.0 / 3.0, N=10, alpha=2.0 / 3.0)
    records, summary = run_convergence(spec, [6, 8, 10], delta=0.5)
    assert len(records) == 3
    assert summary["fitted_decay"] is not None
    assert summary["target_decay"] == pytest.approx(np.log(1.5), rel=1e-12)
    # errors shrink monotonically with N on the protected node range
    assert summary["max_err"][0] > summary["max_err"][1] > summary["max_err"][2]


def test_run_convergence_degenerate_cases():
    spec = ProblemSpec(name="example2", q=2.0 / 3.0, N=10, alpha=2.0 / 3.0)
    _, summary = run_convergence(spec, [8], delta=0.5)
    assert summary["fitted_decay"] is None
    assert "single N" in summary["warning"]
    spec = ProblemSpec(name="constant", q=0.5, N=6, alpha=0.5)
    _, summary = run_convergence(spec, [4, 6], delta=0.5)
    assert summary["all_exact"]
    assert summary["fitted_decay"] is None
    # q^(2(N-n)) underflows at q = 1/8, N = 181; exact-zero errors give
    # rate constant 0, not 0/0
    spec = ProblemSpec(name="manufactured-quadratic", q=0.125, N=181, alpha=0.5)
    _, summary = run_convergence(spec, [150, 181], delta=0.5)
    assert summary["all_exact"]
    assert np.all(np.isfinite(summary["rate_constants"]))
    with pytest.raises(ValueError):
        run_convergence(spec, [1, 4], delta=0.5)
    with pytest.raises(ValueError):
        run_convergence(spec, [4, 6], delta=1.5)


def test_main_converge_ok(tmp_path):
    out = tmp_path / "conv.txt"
    code = main(["converge", "--problem", "example2", "--q", "2/3",
                 "--N-list", "6,8", "--delta", "0.5", "--out", str(out)])
    assert code == EXIT_OK
    assert "fitted log-error decay" in out.read_text()


def test_run_bounds_ok_and_violation_exit():
    spec = ProblemSpec(name="manufactured-quadratic", q=2.0 / 3.0, N=8,
                       alpha=2.0 / 3.0)
    report, ok = run_bounds(spec)
    assert ok
    assert np.all(report["ratio"] <= 1.0)
    assert report["m2"] == pytest.approx(1.0 + 2.0 / 3.0, rel=1e-9)
    assert report["stability_ok"]
    # an artificially tiny m2 forces a reported violation
    code = main(["bounds", "--problem", "manufactured-quadratic", "--q", "2/3",
                 "--N", "8", "--m2", "1e-12"])
    assert code == EXIT_BOUND


def test_run_bounds_affine_exact():
    spec = ProblemSpec(name="manufactured-linear", q=0.5, N=6, alpha=0.5)
    report, ok = run_bounds(spec)
    assert ok
    assert np.all(report["abs_err"] <= 1e-10)
    assert np.all(report["bound"] <= 1e-6)


def test_main_bounds_ok():
    assert main(["bounds", "--problem", "manufactured-quadratic", "--q", "1/2",
                 "--N", "6"]) == EXIT_OK


def test_missing_exact_solution_rejected(monkeypatch):
    import qfde.problems as problems_mod
    from qfde import IVProblem

    def no_exact(q, b, alpha, ctl):
        return IVProblem(f=lambda t, x: np.zeros(1), alpha=alpha,
                         x0=np.array([1.0]), lipschitz_L=0.0)

    monkeypatch.setitem(problems_mod._REGISTRY, "no-exact", no_exact)
    spec = ProblemSpec(name="no-exact", q=0.5, N=4, alpha=0.5)
    with pytest.raises(ValueError):
        run_convergence(spec, [4, 6], 0.5)
    with pytest.raises(ValueError):
        run_bounds(spec)
