"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest bench/selftest.py -q

They check that the oracles are right, that traced work counts repeat
exactly for a seed, that the seed changes the inputs, that every layer reads
zero where its workload does not reach it, and that the runner refuses to
run without the program's sources.
"""

from __future__ import annotations

import math
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from stepcalc import cli  # noqa: E402

REPEATED_COUNTS = ("solver.steps", "solver.rhs_evals", "solver.bisect_iters",
                   "expr.evaluate.nodes", "nonarch.poly_mul.count", "series.terms")

# The full-quadrant quadratures take ~1 s each; the remaining kinds of a
# builtin_defaults block reach the same layers.
SLOW_KINDS = {"ellipk_k", "ellipk_phi", "pendulum_elliptic", "table"}


def _requests(workload: str, seed: int, tmp_path) -> list[workloads.Request]:
    reqs = run.first_blocks(workload, seed, 1, str(tmp_path))
    return [r for r in reqs if r.kind not in SLOW_KINDS]


def _traced(workload: str, seed: int, tmp_path):
    outcome, tr = run.trace_requests(cli, _requests(workload, seed, tmp_path), run.Speed())
    assert not outcome.failures, outcome.failures
    return tracer.layer_values(tr)


# -- oracles ---------------------------------------------------------------

def test_elliptic_oracles_agree():
    for k in (0.0, 0.3, 0.8, 0.95):
        assert math.isclose(checks.elliptic_f(math.pi / 2, k), checks.elliptic_k(k), rel_tol=1e-14)
    assert math.isclose(checks.elliptic_k(0.0), math.pi / 2, rel_tol=1e-15)
    # F(phi, 0) = phi
    assert math.isclose(checks.elliptic_f(1.1, 0.0), 1.1, rel_tol=1e-15)


def test_jacobi_oracle():
    k = 0.7
    for u in (-2.3, 0.4, 1.9):
        sn, cn, dn = checks.jacobi(u, k)
        assert math.isclose(sn * sn + cn * cn, 1.0, rel_tol=1e-14)
        assert math.isclose(dn * dn + k * k * sn * sn, 1.0, rel_tol=1e-14)
    # sn reaches 1 at the quarter period K(k)
    assert math.isclose(checks.jacobi(checks.elliptic_k(k), k)[0], 1.0, rel_tol=1e-12)
    assert math.isclose(checks.jacobi(0.5, 1e-9)[0], math.sin(0.5), rel_tol=1e-12)


def test_factored_deriv():
    x = Fraction(3, 7)
    # (x - 1/2)^3 / (x + 2)^2 by the quotient rule
    f = [(Fraction(1, 2), 3), (Fraction(-2), -2)]
    u, v = (x - Fraction(1, 2)) ** 3, (x + 2) ** 2
    du, dv = 3 * (x - Fraction(1, 2)) ** 2, 2 * (x + 2)
    assert checks.factored_deriv(Fraction(1), f, x) == (du * v - u * dv) / v ** 2
    # on a simple root the derivative is the cofactor; on a double root, 0
    assert checks.factored_deriv(Fraction(2), [(x, 1), (Fraction(1), 2)], x) == 2 * (x - 1) ** 2
    assert checks.factored_deriv(Fraction(1), [(x, 2)], x) == 0
    with pytest.raises(ZeroDivisionError):
        checks.factored_deriv(Fraction(1), [(x, -1)], x)


def test_check_flags_invgd_near_the_pole(tmp_path, monkeypatch):
    """The known defect stays visible: at |x| = 1.5707 the default step
    misses ln tan(pi/4 + x/2) by 3 %, and the check fails it."""
    monkeypatch.setitem(workloads.FN_RANGES, "invgd", (0.05, 1.5707))
    req = workloads._req_fn(workloads.Draw(random.Random(0)), "invgd", edge=True)
    outcome = run.Outcome()
    run.run_request(cli, req, outcome, run.Speed())
    assert len(outcome.failures) == 1
    assert "exceeds tolerance" in outcome.failures[0]["reason"]


def test_traceback_is_a_failed_request(tmp_path):
    req = workloads.Request("fn", ["fn", "exp", "1"], lambda out, files: 0.0)
    broken = type("Broken", (), {"main": staticmethod(lambda argv: 1 / 0)})
    outcome = run.Outcome()
    run.run_request(broken, req, outcome, run.Speed())
    assert outcome.failures[0]["reason"].startswith("CheckFailed: exit code None")


# -- workloads ---------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_seed_fixes_inputs(workload, tmp_path):
    def argvs(seed):
        return [r.argv for r in run.first_blocks(workload, seed, 2, str(tmp_path))]

    assert argvs(1) == argvs(1)
    assert argvs(1) != argvs(2)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_block_mix_is_fixed(workload, tmp_path):
    from collections import Counter

    mixes = {frozenset(Counter(r.kind for r in run.first_blocks(workload, seed, 1, str(tmp_path))
                               ).items()) for seed in (1, 2, 3)}
    assert len(mixes) == 1


# -- tracing -----------------------------------------------------------------

def test_work_counts_repeat(tmp_path):
    for workload in sorted(run.WORKLOADS):
        first = _traced(workload, 7, tmp_path)
        second = _traced(workload, 7, tmp_path)
        for name in REPEATED_COUNTS:
            assert first[name] == second[name], (workload, name)


def test_layers_read_zero_where_unused(tmp_path):
    values = {w: _traced(w, 3, tmp_path) for w in run.WORKLOADS}
    layer_names = [name for name, _, _ in tracer.LAYER_METRICS]
    for name in layer_names:
        if name.startswith("expr.evaluate."):
            assert values["builtin_defaults"][name] == 0, name
        if name.startswith("nonarch."):
            assert values["builtin_defaults"][name] == 0, name
            assert values["expr_float"][name] == 0, name
            assert values["exact_deriv"][name] > 0, name
        if name.startswith("solver."):
            assert values["exact_deriv"][name] == 0, name
    for name in ("solver.steps", "solver.bisect_iters", "series.terms"):
        assert values["builtin_defaults"][name] > 0, name
    for name in ("expr.evaluate.nodes", "solver.to_csv.ms", "svgplot.line_plot.ms"):
        assert values["expr_float"][name] > 0, name
    assert values["expr_float"]["expr.evaluate.nodes"] > values["expr_float"]["expr.evaluate.calls"]


def test_tracer_restores_the_program(tmp_path):
    from stepcalc import expr, nonarch, solver

    originals = (cli.main, expr.evaluate, solver.integrate, nonarch.Poly.__mul__)
    _traced("exact_deriv", 1, tmp_path)
    assert (cli.main, expr.evaluate, solver.integrate, nonarch.Poly.__mul__) == originals


def test_self_time_excludes_children():
    tr = tracer.Tracer()
    outer = tr.timed("outer", lambda: inner())
    inner = tr.timed("inner", lambda: sum(range(20000)))
    outer()
    total, selfs = tr.totals()
    assert math.isclose(selfs["outer"], total["outer"] - total["inner"], rel_tol=1e-9, abs_tol=1e-9)
    assert list(tr.span_parent) == [-1, 0]


# -- runner ------------------------------------------------------------------

def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact_deriv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
