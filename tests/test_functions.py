import math
import random

import pytest

import oracles
from stepcalc.functions import (
    by_name,
    make_exp,
    make_inv_gudermannian,
    make_jacobi,
    make_sincos,
)
from stepcalc.solver import StepPlan, find_zero_crossings, integrate


class TestExp:
    def test_at_origin_no_integration(self):
        assert make_exp()(0.0) == 1.0

    def test_at_one(self):
        assert abs(make_exp()(1.0) - oracles.E) < 1e-9

    def test_at_minus_one_integrates_backward(self):
        assert abs(make_exp()(-1.0) - 1.0 / oracles.E) < 1e-9

    def test_functional_equation(self):
        f = make_exp()
        rng = random.Random(20260823)
        for _ in range(3):
            a = rng.uniform(-2.0, 2.0)
            b = rng.uniform(-2.0, 2.0)
            lhs = f(a + b, h=1e-4)
            rhs = f(a, h=1e-4) * f(b, h=1e-4)
            assert abs(lhs - rhs) < 1e-8

    def test_defining_equation_by_finite_difference(self):
        f = make_exp()
        delta = 1e-5
        for x in (0.0, 1.0):
            slope = (f(x + delta) - f(x - delta)) / (2 * delta)
            assert abs(slope - f(x)) < 1e-5


class TestSinCos:
    def test_initial_values(self):
        sin_fn, cos_fn = make_sincos()
        assert sin_fn(0.0) == 0.0
        assert cos_fn(0.0) == 1.0

    def test_sin_at_pi_over_six(self):
        sin_fn, _ = make_sincos()
        assert abs(sin_fn(oracles.PI / 6, h=1e-4) - 0.5) < 1e-9

    def test_pythagorean_identity(self):
        sin_fn, cos_fn = make_sincos()
        s = sin_fn(2.7, h=1e-4)
        c = cos_fn(2.7, h=1e-4)
        assert abs(s * s + c * c - 1.0) < 1e-9

    def test_zero_crossing_at_pi(self):
        sin_fn, _ = make_sincos()
        traj = integrate(sin_fn.ivp, StepPlan(1e-4, 4.0))
        crossings = [t for t in find_zero_crossings(traj, 0, sin_fn.ivp) if t > 0]
        assert len(crossings) == 1
        assert abs(crossings[0] - oracles.PI) < 1e-7


class TestJacobi:
    def test_degenerates_to_sin_at_k0(self):
        sn, _, _ = make_jacobi(0.0)
        for u in (0.3, 1.0, 2.0):
            assert abs(sn(u, h=1e-4) - math.sin(u)) < 1e-8

    def test_degenerates_to_tanh_at_k1(self):
        sn, _, _ = make_jacobi(1.0)
        for u in (0.5, 1.5):
            assert abs(sn(u, h=1e-4) - math.tanh(u)) < 1e-8

    def test_defining_identities_along_trajectory(self):
        sn, _, _ = make_jacobi(0.6)
        traj = sn.trajectory(1.2, h=1e-4)
        for s, c, d in traj.states:
            assert abs(s * s + c * c - 1.0) < 1e-9
            assert abs(d * d + 0.36 * s * s - 1.0) < 1e-9

    def test_first_maximum_at_quarter_period(self):
        # sn' = cn dn, so the first maximum sits at the first zero of cn
        k = 0.6
        sn, _, _ = make_jacobi(k)
        quarter = oracles.elliptic_K_agm(k)
        traj = integrate(sn.ivp, StepPlan(1e-4, quarter + 0.5))
        crossings = [t for t in find_zero_crossings(traj, 1, sn.ivp) if t > 0]
        assert abs(crossings[0] - quarter) < 1e-6

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            make_jacobi(1.5)
        with pytest.raises(ValueError):
            make_jacobi(-0.1)


class TestInvGudermannian:
    def test_at_zero(self):
        assert make_inv_gudermannian()(0.0) == 0.0

    def test_closed_form(self):
        f = make_inv_gudermannian()
        phi = oracles.PI / 3
        expected = math.log(math.tan(oracles.PI / 4 + phi / 2))
        assert abs(f(phi, h=1e-5) - expected) < 1e-8

    def test_oddness(self):
        f = make_inv_gudermannian()
        assert abs(f(-0.7, h=1e-4) + f(0.7, h=1e-4)) < 1e-9

    def test_domain_error_at_pole(self):
        f = make_inv_gudermannian()
        with pytest.raises(ValueError):
            f(math.pi / 2)


class TestRegistry:
    def test_lookup(self):
        assert by_name("exp").name == "exp"
        assert by_name("dn", k=0.3).name == "dn"
        with pytest.raises(ValueError):
            by_name("gamma")
