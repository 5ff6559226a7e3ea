import math
import random

import pytest

import oracles
from stepcalc.functions import (
    DEFAULT_H,
    POLE_STEPS,
    TAYLOR_H,
    by_name,
    make_exp,
    make_inv_gudermannian,
    make_jacobi,
    make_sincos,
)
from stepcalc.solver import StepPlan, find_zero_crossings, integrate, integrate_final


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
        t, _ = find_zero_crossings(traj, 0, sin_fn.ivp)
        assert abs(t - oracles.PI) < 1e-7
        # the only zero in (0, 4]: every node after it is negative
        assert all(state[0] < 0.0 for node_t, state in zip(traj.times, traj.states) if node_t > t)


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
        t, _ = find_zero_crossings(traj, 1, sn.ivp)
        assert abs(t - quarter) < 1e-6

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            make_jacobi(1.5)
        with pytest.raises(ValueError):
            make_jacobi(-0.1)


class TestTaylorDefault:
    """exp, sin, cos, sn, cn and dn default to Taylor steps of TAYLOR_H, which
    keep them within 1e-13 of the oracles over the benchmark's fn ranges."""

    RANGES = {"exp": (0.2, 4.0), "circle": (0.2, 6.0), "jacobi": (0.2, 4.0)}

    @classmethod
    def points(cls, kind, n=24):
        lo, hi = cls.RANGES[kind]
        return [sign * (lo + (hi - lo) * i / (n - 1)) for i in range(n) for sign in (1.0, -1.0)]

    def test_exp_relative_error(self):
        f = make_exp()
        for x in self.points("exp") + [700.0, -700.0]:
            assert abs(f(x) - math.exp(x)) <= 1e-13 * math.exp(x), x

    def test_circle_absolute_error(self):
        for f, ref in zip(make_sincos(), (math.sin, math.cos)):
            for x in self.points("circle"):
                assert abs(f(x) - ref(x)) <= 1e-13, (f.name, x)

    @pytest.mark.parametrize("k", [0.0, 0.1, 0.5, 0.9, 1.0])
    def test_jacobi_absolute_error(self, k):
        triple = make_jacobi(k)
        for x in self.points("jacobi"):
            for f, ref in zip(triple, oracles.jacobi(x, k)):
                assert abs(f(x) - ref) <= 1e-13, (f.name, k, x)

    def test_defaults_resolve_by_the_declared_series(self):
        exp_fn, invgd = make_exp(), make_inv_gudermannian()
        assert exp_fn(1.3) == integrate_final(exp_fn.ivp, StepPlan(TAYLOR_H, 1.3), "taylor")[1][0]
        assert exp_fn(1.3, method="rk4") == integrate_final(exp_fn.ivp, StepPlan(DEFAULT_H, 1.3))[1][0]
        assert exp_fn(1.3, h=0.1) == integrate_final(exp_fn.ivp, StepPlan(0.1, 1.3), "taylor")[1][0]
        assert invgd(0.7) == integrate_final(invgd.ivp, StepPlan(DEFAULT_H, 0.7), "rk4")[1][0]
        with pytest.raises(ValueError, match="declares a series"):
            invgd(0.7, method="taylor")

    def test_trajectory_refuses_a_subnormal_value(self):
        # e^-720 = 2.0e-313, refused by the recorded run as by the streaming one
        exp_fn = make_exp()
        for run in (exp_fn, exp_fn.trajectory):
            with pytest.raises(ArithmeticError, match=r"exp\(-720\) = .* is subnormal"):
                run(-720)

    def test_trajectory_takes_the_same_steps(self):
        sn = make_jacobi(0.7)[0]
        traj = sn.trajectory(-2.2)
        assert traj.times == (0.0, -0.5, -1.0, -1.5, -2.0, -2.2)
        assert traj.final_state()[0] == sn(-2.2)


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

    def test_refused_within_pole_steps_of_the_pole(self):
        # RK4 at h = 1e-3 errs by 5.9e-9 relative POLE_STEPS steps from the pole
        f = make_inv_gudermannian()
        for h in (1e-3, 1e-4):
            inside = math.pi / 2 - (POLE_STEPS + 0.5) * h
            for x in (inside, -inside):
                assert abs(f(x, h=h) - oracles.inv_gudermannian(x)) <= 1e-8 * abs(f(x, h=h)), (x, h)
            outside = math.pi / 2 - (POLE_STEPS - 0.5) * h
            for x in (outside, -outside, 1.5707):
                with pytest.raises(ValueError, match=rf"x={x!r} lies closer than 16 steps of h={h!r}"):
                    f(x, h=h)


    def test_start_within_pole_steps_of_the_pole_is_refused(self):
        # both ends are checked, the start first, and the message names the one refused
        h = 1e-4
        outside = math.pi / 2 - (POLE_STEPS - 0.5) * h
        for start in (outside, -outside):
            for x in (0.3, -1.2, start / 2):
                with pytest.raises(ValueError, match=rf"x={start!r} lies closer than 16 steps of h={h!r}"):
                    make_inv_gudermannian(start)(x, h=h)
            with pytest.raises(ValueError, match=rf"x={-start!r} lies closer"):
                make_inv_gudermannian(0.3)(-start, h=h)

    def test_from_a_start_is_the_difference_of_the_closed_forms(self):
        h = 1e-4
        for start, x in ((0.2, 0.9), (0.9, 0.2), (-1.3, 1.1), (1.4, 1.5)):
            expected = oracles.inv_gudermannian(x) - oracles.inv_gudermannian(start)
            assert abs(make_inv_gudermannian(start)(x, h=h) - expected) <= 1e-12 * abs(expected), (start, x)


class TestRegistry:
    def test_lookup(self):
        assert by_name("exp").name == "exp"
        assert by_name("dn", k=0.3).name == "dn"
        with pytest.raises(ValueError):
            by_name("gamma")
