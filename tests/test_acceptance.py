"""Acceptance suite: one criterion per test, one PASS/FAIL line per test.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
Each test pins the tolerance it must meet; helpers print the verdict before
letting pytest record the assertion outcome.
"""

import math
import random
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from fractions import Fraction

import pytest

import oracles
from stepcalc import applications, series, tables
from stepcalc.cli import main
from stepcalc.functions import make_exp, make_jacobi
from stepcalc.nonarch import EPSILON, Poly, RatFunc, compare, deriv_at
from stepcalc.solver import IVP, StepPlan, find_zero_crossings, integrate, integrate_final
from test_nonarch import random_poly, random_ratfunc


@contextmanager
def verdict(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number:2d}: {title}")
        raise
    print(f"PASS  criterion {number:2d}: {title}")


def test_criterion_01_nine_decimal_sine_table():
    with verdict(1, "24-entry R-sine table accurate to 9 decimals"):
        table = tables.generate_sine_table(1e7, "rk4", 1e-5)
        for k, v in enumerate(table.values, start=1):
            theta = oracles.PI_DECIMAL * k * 225 / (180 * 60)
            assert abs(v / 1e7 - float(oracles.sin_taylor(theta))) < 5e-10


def test_criterion_02_limit_free_exactness():
    with verdict(2, "deriv_at equals the coefficient rule on 500 random polynomials"):
        rng = random.Random(101)
        for _ in range(500):
            p = random_poly(rng, max_degree=8)
            x0 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            expected = sum(
                k * c * x0 ** (k - 1) for k, c in enumerate(p.coeffs) if k >= 1
            )
            got = deriv_at(RatFunc(p), x0)
            assert got == Fraction(expected)  # exact, zero tolerance


def test_criterion_03_non_archimedean_order():
    with verdict(3, "field axioms, order compatibility, and n*eps < 1 up to 10^6"):
        rng = random.Random(202)
        one = RatFunc.from_fraction(Fraction(1))
        zero = RatFunc.from_fraction(Fraction(0))
        for _ in range(1000):
            a, b, c = (random_ratfunc(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a + zero == a and a * one == a
            if a != zero:
                assert a * (one / a) == one
            # order compatibility
            if compare(a, b) < 0:
                assert compare(a + c, b + c) < 0
                if compare(c, zero) > 0:
                    assert compare(a * c, b * c) < 0
        n = 1
        while n <= 10**6:
            assert RatFunc.from_fraction(Fraction(n)) * EPSILON < one
            n *= 10


def test_criterion_04_ode_defined_exp():
    with verdict(4, "exp(1) from y' = y within 1e-9; Euler 1st / RK4 4th order"):
        assert abs(make_exp()(1.0, method="rk4", h=1e-3) - oracles.E) < 1e-9
        ivp = IVP(lambda t, y: (y[0],), 0.0, (1.0,))

        def err(method, h):
            return abs(integrate_final(ivp, StepPlan(h, 1.0), method)[1][0] - oracles.E)

        assert 1.8 <= err("euler", 0.01) / err("euler", 0.005) <= 2.2
        assert 12 <= err("rk4", 0.1) / err("rk4", 0.05) <= 20


def test_criterion_05_jacobi_elliptic_consistency():
    with verdict(5, "sn degenerations, identities, first maximum at K(k)"):
        sn0, _, _ = make_jacobi(0.0)
        sn1, _, _ = make_jacobi(1.0)
        for u in (0.4, 1.1, 2.0):
            assert abs(sn0(u, h=1e-4) - math.sin(u)) < 1e-8
            assert abs(sn1(u, h=1e-4) - math.tanh(u)) < 1e-8
        k = 0.6
        sn, _, _ = make_jacobi(k)
        traj = sn.trajectory(2.5, h=1e-4)
        for s, c, d in traj.states:
            assert abs(s * s + c * c - 1.0) < 1e-9
            assert abs(d * d + k * k * s * s - 1.0) < 1e-9
        quarter = oracles.elliptic_K_agm(k)
        assert abs(find_zero_crossings(traj, 1, sn.ivp)[0] - quarter) < 1e-6


def test_criterion_06_pendulum_amplitude_dependence():
    with verdict(6, "ODE period vs elliptic form over six amplitudes; ratio 1.1803"):
        for theta0 in (0.25, 0.75, 1.25, 1.75, 2.25, 2.75):
            spec = applications.PendulumSpec(1.0, theta0=theta0)
            t_ode = applications.pendulum_period_ode(spec)
            t_ell = applications.pendulum_period_elliptic(spec)
            assert abs(t_ode - t_ell) / t_ell < 1e-6
        spec = applications.PendulumSpec(1.0, theta0=math.pi / 2)
        ratio = applications.pendulum_period_elliptic(spec) / spec.small_angle_period()
        oracle = 2.0 * oracles.elliptic_K_agm(math.sin(math.pi / 4)) / oracles.PI
        assert f"{ratio:.4f}" == f"{oracle:.4f}" == "1.1803"


def test_criterion_07_heavier_ball_monotonicity():
    with verdict(7, "range grows with mass; drag < vacuum; energy non-increasing"):
        drag, v0, alpha = 0.005, 40.0, math.radians(40)
        ranges = [
            applications.ballistics_range(
                applications.BallisticsSpec(m, drag, v0, alpha)
            )
            for m in (0.06, 0.16, 0.5, 1.0)
        ]
        assert all(a < b for a, b in zip(ranges, ranges[1:]))
        vacuum = applications.vacuum_range(
            applications.BallisticsSpec(0.16, 0.0, v0, alpha)
        )
        assert all(r < vacuum for r in ranges)
        for m in (0.06, 0.16, 0.5, 1.0):
            spec = applications.BallisticsSpec(m, drag, v0, alpha)
            traj, _ = applications.ballistics_trajectory(spec, h=1e-3)
            energies = [applications.mechanical_energy(spec, s) for s in traj.states]
            for before, after in zip(energies, energies[1:]):
                assert after <= before + 1e-9 * energies[0]


def test_criterion_08_leibniz_raw_error_and_discard_bound():
    with verdict(8, "Leibniz raw error at 10^6 terms; discard bound dominates"):
        assert abs(series.leibniz_pi(10**6) - oracles.PI) < 1e-6
        geometric = series.SeriesSpec(lambda n: (-0.5) ** n, alternating=True)
        for spec, limit in ((series.LEIBNIZ, oracles.PI), (geometric, 2.0 / 3.0)):
            for delta in (1e-2, 1e-3, 1e-4):
                result = series.sum_until_discardable(
                    spec, series.DiscardPolicy("absolute", delta)
                )
                assert abs(result.value - limit) <= result.discarded_bound


def test_criterion_08_leibniz_corrected_error():
    # Madhava's end correction replaces the neglected tail up to an error of
    # order 1/N^7, far inside 3e-7 at N = 1000; averaging consecutive partial
    # sums (half the next term) would leave 1/(2N^2) = 5.0e-7 and fail here.
    with verdict(8, "Leibniz corrected error at 10^3 terms below 3e-7"):
        assert abs(series.leibniz_pi(1000, corrected=True) - oracles.PI) < 3e-7


def test_criterion_09_rectification():
    with verdict(9, "inscribed polygons: exact small cases, monotone, -> 2*pi"):
        circle = applications.unit_circle
        two_pi = 2 * oracles.PI
        assert abs(applications.rectify(circle, 0.0, two_pi, 4) - 4 * math.sqrt(2)) < 1e-9
        assert abs(applications.rectify(circle, 0.0, two_pi, 6) - 6.0) < 1e-9
        previous = 0.0
        for p in range(2, 21):
            length = applications.rectify(circle, 0.0, two_pi, 2**p)
            assert length > previous
            previous = length
        assert abs(previous - two_pi) < 1e-8


def test_criterion_10_loxodrome_meridional_parts():
    with verdict(10, "meridional parts vs ln tan; closed sailing cases; swap"):
        phi = 0.1
        while phi < 1.3:
            expected = math.log(math.tan(math.pi / 4 + phi / 2))
            assert abs(applications.meridional_parts(phi, h=1e-5) - expected) < 1e-8
            phi += 0.1
        # meridian sailing
        bearing, distance = applications.loxodrome(
            applications.GeoPoint(0.0, 0.0),
            applications.GeoPoint(math.radians(30), 0.0),
            radius=1.0,
        )
        assert bearing == 0.0
        assert abs(distance - math.radians(30)) <= 1e-10 * distance
        # parallel sailing
        lat = math.radians(45)
        bearing, distance = applications.loxodrome(
            applications.GeoPoint(lat, 0.0),
            applications.GeoPoint(lat, math.radians(20)),
            radius=1.0,
        )
        expected = math.radians(20) * math.cos(lat)
        assert bearing == math.pi / 2
        assert abs(distance - expected) <= 1e-10 * distance
        # bearing antisymmetry under endpoint swap
        p1 = applications.GeoPoint(math.radians(12), math.radians(-40))
        p2 = applications.GeoPoint(math.radians(51), math.radians(13))
        b12, _ = applications.loxodrome(p1, p2)
        b21, _ = applications.loxodrome(p2, p1)
        assert abs((b21 - b12) % (2 * math.pi) - math.pi) < 1e-9


def test_criterion_11_brahmagupta_interpolation():
    with verdict(11, "quadratic interpolation exact on quadratics, 10x over linear"):
        # table node 0 is pinned at zero, so the quadratic passes the origin
        synthetic = tables.synthetic_table(lambda x: 3 * x * x - 2 * x)
        rng = random.Random(303)
        for _ in range(200):
            theta = rng.uniform(tables.STEP_DEG, (tables.ENTRY_COUNT - 1) * tables.STEP_DEG)
            expected = 3 * theta * theta - 2 * theta
            assert abs(tables.quadratic_interp(synthetic, theta) - expected) < 1e-8
        table = tables.generate_sine_table(1e7, "rk4", 1e-5)
        max_quad = max_lin = 0.0
        steps = int(round((86.0 - 4.0) / 1e-3))
        for i in range(steps + 1):
            theta = 4.0 + i * 1e-3
            true = 1e7 * math.sin(math.radians(theta))
            max_quad = max(max_quad, abs(tables.quadratic_interp(table, theta) - true))
            max_lin = max(max_lin, abs(tables.linear_interp(table, theta) - true))
        assert max_lin >= 10.0 * max_quad


def test_criterion_12_cli_contract(tmp_path, capsys):
    with verdict(12, "CLI determinism, exit codes, CSV round-trip, valid SVG"):
        spec = tmp_path / "exp.ivp"
        spec.write_text(
            "dim = 1\nrhs_1 = y1\nt0 = 0\ny0 = 1\nt_end = 1\nh = 0.001\nmethod = rk4\n"
        )

        def run(*argv):
            code = main(list(argv))
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        first = run("solve", str(spec))
        second = run("solve", str(spec))
        assert first == second and first[0] == 0
        # CSV round-trips through float parsing
        lines = first[1].strip().split("\n")
        assert lines[0] == "t,y1"
        t, y = (float(p) for p in lines[-1].split(","))
        assert t == 1.0 and abs(y - oracles.E) < 1e-9
        # exit-code discipline
        assert run("deriv", "x^2", "--at", "3")[0] == 0
        assert run("deriv", "1/x", "--at", "0")[0] == 1
        assert run("deriv", "x +", "--at", "1")[0] == 2
        assert run("frobnicate")[0] == 2
        # SVG
        svg = tmp_path / "plot.svg"
        code, _, _ = run("solve", str(spec), "--out", str(tmp_path / "o.csv"),
                         "--svg", str(svg))
        assert code == 0
        root = ET.fromstring(svg.read_text())
        assert root.tag.endswith("svg")
