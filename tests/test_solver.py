import itertools
import math
import random

import pytest

import integrate_reference
import oracles
from integrate_reference import reference_step
from stepcalc import applications, cli, expr, functions, solver
from stepcalc.solver import (
    IVP,
    MAX_STEPS,
    IntegrationError,
    StepPlan,
    Trajectory,
    find_zero_crossings,
    integrate,
    integrate_final,
)
from test_expr import TestEmitFloat, outcome, random_float_tree

EXP_IVP = IVP(lambda t, y: (y[0],), 0.0, (1.0,))


class TestEuler:
    def test_exponential_matches_closed_form_recurrence(self):
        traj = integrate(EXP_IVP, StepPlan(0.1, 1.0), "euler")
        # the Euler recurrence on y' = y has the closed form (1+h)^N
        expected = 1.0
        for _ in range(10):
            expected *= 1.1
        assert traj.times[-1] == 1.0
        assert abs(traj.final_state()[0] - expected) < 1e-12
        assert len(traj.times) == 11

    def test_zero_rhs_stays_constant(self):
        ivp = IVP(lambda t, y: (0.0,), 0.0, (4.25,))
        traj = integrate(ivp, StepPlan(0.07, 2.0), "euler")
        assert all(s[0] == 4.25 for s in traj.states)

    def test_unit_rhs_tracks_time(self):
        ivp = IVP(lambda t, y: (1.0,), 0.0, (0.0,))
        traj = integrate(ivp, StepPlan(0.013, 3.0), "euler")
        for t, s in zip(traj.times, traj.states):
            assert abs(s[0] - t) <= 1e-12 * max(1.0, t)


class TestRK4:
    def test_exponential(self):
        traj = integrate(EXP_IVP, StepPlan(0.1, 1.0), "rk4")
        assert abs(traj.final_state()[0] - oracles.E) < 1e-5

    def test_riccati_closed_form(self):
        ivp = IVP(lambda t, y: (-y[0] * y[0],), 0.0, (1.0,))
        traj = integrate(ivp, StepPlan(1e-3, 1.0), "rk4")
        assert abs(traj.final_state()[0] - 0.5) < 1e-9  # 1/(1+t)

    def test_cosine_quadrature(self):
        ivp = IVP(lambda t, y: (math.cos(t),), 0.0, (0.0,))
        traj = integrate(ivp, StepPlan(1e-3, oracles.PI), "rk4")
        assert abs(traj.final_state()[0]) < 1e-9  # sin(pi)


class TestConvergenceOrder:
    def err(self, method, h):
        return abs(integrate_final(EXP_IVP, StepPlan(h, 1.0), method)[1][0] - oracles.E)

    def test_euler_is_first_order(self):
        for h in (0.01, 0.005):
            assert 1.8 <= self.err("euler", h) / self.err("euler", h / 2) <= 2.2

    def test_rk4_is_fourth_order(self):
        for h in (0.1, 0.05):
            assert 12 <= self.err("rk4", h) / self.err("rk4", h / 2) <= 20


class TestGridAndDirection:
    def test_last_time_is_exact(self):
        # 0.3/0.07 is not an integer, so the final step is shortened
        traj = integrate(EXP_IVP, StepPlan(0.07, 0.3), "rk4")
        assert traj.times[-1] == 0.3

    def test_backward_consistency(self):
        _, y1 = integrate_final(EXP_IVP, StepPlan(1e-3, 1.0))
        back = IVP(EXP_IVP.rhs, 1.0, y1)
        _, y0 = integrate_final(back, StepPlan(1e-3, 0.0))
        assert abs(y0[0] - 1.0) < 1e-8

    def test_backward_times_decrease(self):
        back = IVP(EXP_IVP.rhs, 1.0, (math.e,))
        traj = integrate(back, StepPlan(0.1, 0.0), "rk4")
        assert all(b < a for a, b in zip(traj.times, traj.times[1:]))
        assert traj.times[-1] == 0.0

    def test_degenerate_interval(self):
        traj = integrate(EXP_IVP, StepPlan(0.1, 0.0), "rk4")
        assert traj.times == (0.0,)
        assert traj.states == ((1.0,),)


class TestEqualDivision:
    def test_divided_plan_splits_the_span_evenly(self):
        plan = StepPlan.divided(0.0, 0.3, 0.07)  # ceil(0.3/0.07) = 5 steps
        assert (plan.steps, plan.h, plan.t_end) == (5, 0.3 / 5, 0.3)
        traj = integrate(EXP_IVP, plan, "euler")
        assert traj.times == (0.0, *(k * (0.3 / 5) for k in range(1, 5)), 0.3)
        factor = 1.0 + 0.3 / 5
        assert traj.states[-1][0] == pytest.approx(factor**5, rel=1e-14)

    def test_backward_division(self):
        back = IVP(EXP_IVP.rhs, 1.0, (math.e,))
        traj = integrate(back, StepPlan.divided(1.0, 0.0, 0.3), "rk4")
        assert traj.times == (1.0, 0.75, 0.5, 0.25, 0.0)

    def test_rk4_on_a_quadrature_is_composite_simpson(self):
        # for y' = f(t), one RK4 step is Simpson's rule on the step
        f = math.cos
        n = 6
        got = integrate_final(IVP(lambda t, y: (f(t),), 0.0, (0.0,)),
                              StepPlan(1.0 / n, 1.0, n))[1][0]
        h = 1.0 / n
        simpson = sum(h / 6 * (f(k * h) + 4 * f((k + 0.5) * h) + f((k + 1) * h)) for k in range(n))
        assert got == pytest.approx(simpson, rel=1e-15)


def quadrature(f):
    """y' = f(t), y(0) = 0, once with f declared as its integrand and once
    with the matching right-hand side only."""
    with_f = IVP(lambda t, y: (f(t),), 0.0, (0.0,), f)
    return with_f, with_f.replace(integrand=None)


def run_both(f, plan, record=True):
    """Both routes' trajectories, or both routes' IntegrationError (t, message)."""
    outcomes = []
    for ivp in quadrature(f):
        try:
            outcomes.append(repr(integrate(ivp, plan, record=record)))
        except IntegrationError as exc:
            outcomes.append((exc.t, str(exc)))
    return outcomes


INTEGRANDS = {
    "cos": math.cos,
    "sec": lambda t: 1.0 / math.cos(t),
    "elliptic": lambda t: 1.0 / math.sqrt(1.0 - 0.99 * math.sin(t) ** 2),
    "exp": math.exp,
}


class TestIntegrandRule:
    """RK4 on a declared integrand evaluates it twice per step and gives
    plain RK4's times and states bit for bit (``repr`` round-trips floats)."""

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("plan", [
        StepPlan(1e-3, 1.2),  # last step shortened
        StepPlan(0.013, -1.5),  # backward
        StepPlan.divided(0.0, 1.3, 0.01),
        StepPlan.divided(0.0, -0.9, 0.07),
        StepPlan(0.5, 0.5),  # one step
        StepPlan(2.0, 0.3),  # h larger than the span
        StepPlan(0.3, -0.1),
    ], ids=repr)
    def test_matches_rk4_bitwise(self, plan, record):
        for name, f in INTEGRANDS.items():
            integrand, plain = run_both(f, plan, record)
            assert integrand == plain, name

    def test_matches_rk4_on_random_grids(self):
        rng = random.Random(15)
        for _ in range(300):
            t_end = rng.choice([-1, 1]) * rng.uniform(1e-6, 1.55) * rng.choice([1.0, 1e-3])
            h = abs(t_end) / rng.uniform(0.5, 400.0)
            plan = StepPlan.divided(0.0, t_end, h) if rng.random() < 0.5 else StepPlan(h, t_end)
            integrand, plain = run_both(INTEGRANDS["sec"], plan, rng.random() < 0.5)
            assert integrand == plain, plan

    @pytest.mark.parametrize("at", [0.0, 0.05, 0.1, 0.35, 0.999, 1.0])
    def test_a_failing_integrand_fails_alike(self, at):
        # 0.05 and 0.35 are midpoints, 0.1 and 1.0 nodes, 0.0 the start
        def raising(t):
            if t >= at:
                raise ValueError(f"no value at {t!r}")
            return math.cos(t)

        def infinite(t):
            return math.inf if t >= at else math.cos(t)

        for f in (raising, infinite):
            for plan in (StepPlan(0.1, 1.0), StepPlan.divided(0.0, 1.0, 0.1)):
                integrand, plain = run_both(f, plan)
                assert isinstance(plain, tuple) and integrand == plain, (f.__name__, plan)

    def test_integrand_evaluations(self, monkeypatch):
        # n steps evaluate the integrand 2n + 1 times, where RK4 calls the rhs 4n times
        calls = {"integrand": 0, "rhs": 0}
        make = functions.make_inv_gudermannian

        def counted():
            fn = make()
            sec = fn.ivp.integrand

            def integrand(t):
                calls["integrand"] += 1
                return sec(t)

            def rhs(t, y):
                calls["rhs"] += 1
                return fn.ivp.rhs(t, y)

            ivp = IVP(rhs, 0.0, (0.0,), integrand)
            return fn.replace(ivp=ivp)

        monkeypatch.setattr(applications, "make_inv_gudermannian", counted)
        value = applications.meridional_parts(1.0)
        n = math.ceil(1.0 / applications.MERIDIONAL_H)
        assert calls == {"integrand": 2 * n + 1, "rhs": 0}
        plain = make().ivp.replace(integrand=None)
        assert integrate_final(plain, StepPlan(applications.MERIDIONAL_H, 1.0))[1][0] == value

    def test_euler_calls_the_rhs(self):
        def unused(t):
            raise AssertionError("the integrand is for RK4 only")

        ivp = IVP(lambda t, y: (math.cos(t),), 0.0, (0.0,), unused)
        euler = integrate(ivp, StepPlan(0.1, 1.0), "euler")
        assert euler == integrate(ivp.replace(integrand=None), StepPlan(0.1, 1.0), "euler")

    def test_an_integrand_alone_serves_rk4_and_not_euler(self):
        ivp = IVP(None, 0.0, (0.0,), math.cos)
        with_rhs = ivp.replace(rhs=lambda t, y: (math.cos(t),))
        assert integrate(ivp, StepPlan(0.1, 1.0), "rk4") == integrate(with_rhs, StepPlan(0.1, 1.0), "rk4")
        with pytest.raises(ValueError) as err:
            integrate(ivp, StepPlan(0.1, 1.0), "euler")
        assert str(err.value) == "method 'euler' needs an IVP that declares a right-hand side"

    def test_integrand_needs_dimension_one(self):
        with pytest.raises(ValueError, match="dim 1"):
            IVP(lambda t, y: (1.0, 1.0), 0.0, (0.0, 0.0), math.cos)


EXP_SERIES = IVP(lambda t, y: (y[0],), 0.0, (1.0,), series=lambda cols, k: (cols[k][0] / (k + 1),))


class TestTaylor:
    def test_each_method_calls_only_its_own_function(self):
        calls = {"rhs": 0, "series": 0}

        def rhs(t, y):
            calls["rhs"] += 1
            return (y[0],)

        def series(cols, k):
            calls["series"] += 1
            return (cols[k][0] / (k + 1),)

        ivp = IVP(rhs, 0.0, (1.0,), series=series)
        value = integrate_final(ivp, StepPlan(0.5, 2.0), "taylor")[1][0]
        assert calls["rhs"] == 0 and calls["series"] > 0
        assert abs(value - math.exp(2.0)) <= 1e-15 * math.exp(2.0)
        calls["series"] = 0
        for method in ("rk4", "euler"):
            integrate_final(ivp, StepPlan(0.5, 2.0), method)
        assert calls["series"] == 0 and calls["rhs"] == 4 * 4 + 4

    def test_a_zero_term_does_not_end_the_step(self):
        # (t, y) with y' = 2ty, y = exp(t^2): at t = 0 every odd-order term is zero
        def series(cols, k):
            ty = sum(a[0] * b[1] for a, b in zip(cols, reversed(cols)))
            return (1.0 if k == 0 else 0.0, 2.0 * ty / (k + 1))

        ivp = IVP(lambda t, y: (1.0, 2.0 * y[0] * y[1]), 0.0, (0.0, 1.0), series=series)
        for x in (0.5, 1.5):
            value = integrate_final(ivp, StepPlan(0.5, x), "taylor")[1][1]
            assert abs(value - math.exp(x * x)) <= 1e-14 * math.exp(x * x), x

    def test_taylor_needs_a_series(self):
        with pytest.raises(ValueError, match="declares a series"):
            integrate(EXP_IVP, StepPlan(0.5, 1.0), "taylor")

    def test_a_series_that_keeps_growing_is_refused_naming_the_step(self):
        # the terms of exp at h = 1 fall off well before TAYLOR_MAX_ORDER.  At
        # h = 100 they peak near order 100, past it: the step is split, to 16
        # steps of 6.25, and answered.  At h = 1e300 they overflow, also after
        # the 128 halvings the TAYLOR_SPLIT_STEPS attempts fund, and the step is refused
        value = integrate_final(EXP_SERIES, StepPlan(1.0, 100.0), "taylor")[1][0]
        assert abs(value - math.exp(100.0)) <= 1e-13 * math.exp(100.0)
        value = integrate_final(EXP_SERIES, StepPlan(100.0, 200.0), "taylor")[1][0]
        assert abs(value - math.exp(200.0)) <= 1e-13 * math.exp(200.0)
        with pytest.raises(IntegrationError, match=r"step h=1e\+300 .* order 60 after 128 halvings") as info:
            integrate(EXP_SERIES, StepPlan(1e300, 2e300), "taylor")
        assert info.value.t == 0.0

    @pytest.fixture
    def attempts(self, monkeypatch):
        """The step size of each Taylor attempt, split halves included."""
        sizes = []
        step = solver._taylor_step
        monkeypatch.setattr(solver, "_taylor_step", lambda *args: sizes.append(args[2]) or step(*args))
        return sizes

    def test_a_refused_step_is_split_into_halves(self, attempts):
        # per step of 100: 100, 50, 25 and 12.5 are refused after all 60 orders,
        # 15 attempts, and 16 halves of 6.25 are taken; the nodes stay on the
        # grid.  A first half takes the coefficients its parent computed at the
        # same node, so only the 16 attempts at a new node call the series, each
        # from order 0 up, and 8 of them (100 and 7 second halves) are refused
        calls = []

        def series(cols, k):
            calls.append(k)
            return (cols[k][0] / (k + 1),)

        ivp = EXP_SERIES.replace(series=series)
        traj = integrate(ivp, StepPlan(100.0, 200.0), "taylor")
        assert traj.times == (0.0, 100.0, 200.0)
        assert len(attempts) == 2 * (15 + 16) and attempts.count(6.25) == 2 * 16
        starts = [i for i, k in enumerate(calls) if k == 0]
        fresh = [calls[i:j] for i, j in zip(starts, starts[1:] + [len(calls)])]
        assert all(orders == list(range(len(orders))) for orders in fresh)
        assert [len(orders) == 60 for orders in fresh].count(True) == 2 * 8
        assert len(fresh) == 2 * 16

    def test_a_split_stays_within_its_attempts(self, monkeypatch, attempts):
        # a step of 100 on exp takes 31 attempts, 16 of them at a new node
        # (test above).  With a run budget of 40 and two steps, 38 attempts are
        # spare: the first step spends 30 of them, and the second, left 8,
        # halves 4 levels deep and is refused at its seventh attempt, a half of
        # 12.5 and the third of its attempts at a new node
        calls = []

        def series(cols, k):
            calls.append(k)
            return (cols[k][0] / (k + 1),)

        monkeypatch.setattr(solver, "MAX_STEPS", 40)
        ivp = EXP_SERIES.replace(series=series)
        with pytest.raises(IntegrationError, match=r"step h=100\.0 .* after 3 halvings") as info:
            integrate(ivp, StepPlan(100.0, 200.0), "taylor")
        assert info.value.t == 100.0 and len(attempts) == 31 + 7 and calls.count(0) == 16 + 3
        # a run of as many steps as the budget holds splits none
        calls.clear()
        attempts.clear()
        with pytest.raises(IntegrationError, match=r"step h=100\.0 .* after 0 halvings"):
            integrate(ivp, StepPlan(100.0, 4000.0), "taylor")
        assert len(attempts) == calls.count(0) == 1

    def test_a_step_too_long_everywhere_is_refused_within_the_split_attempts(self, attempts):
        # sin and cos at h = 1e5 need 2^13 halves: the split is refused within
        # the TAYLOR_SPLIT_STEPS attempts it may add, two funded by each halving
        # (249 made, as the refusal leaves some funded halves untried; 121 of
        # them at a new node, as a first half takes its parent's coefficients)
        calls = []
        circle = functions.make_sincos()[0].ivp

        def series(cols, k):
            calls.append(k)
            return circle.series(cols, k)

        ivp = IVP(circle.rhs, 0.0, (0.0, 1.0), series=series)
        with pytest.raises(IntegrationError, match=r"step h=100000\.0 "):
            integrate(ivp, StepPlan(1e5, 1e5), "taylor")
        assert len(attempts) == 249 <= 1 + solver.TAYLOR_SPLIT_STEPS and calls.count(0) == 121

    def test_a_shorter_step_stops_within_the_orders_of_a_longer_one(self):
        # take s < h.  Each component's discard size at s is at least s/h of its
        # size at h, and a term's weight |c_k| s^k at most s/h of |c_k| h^k
        # (k >= 1): a term small at h is small at s, so a step of s from a node
        # stops at or before the order where an accepted step of h stopped, and
        # gives the bits of a fresh step on the coefficients the h step computed
        def recording(series):
            computed = []

            def recorded(cols, k):
                computed.append(series(cols, k))
                return computed[-1]
            return recorded, computed

        problems = [functions.make_exp().ivp, functions.make_sincos()[0].ivp,
                    functions.make_jacobi(0.5)[0].ivp, functions.make_jacobi(1.0)[0].ivp,
                    applications.pendulum_ivp(applications.PendulumSpec(1.0, theta0=2.5)),
                    applications.ballistics_ivp(applications.BallisticsSpec(0.16, 0.005, 40.0, math.radians(89.999)))]
        cases = 0
        for ivp in problems:
            for y in integrate(ivp, StepPlan(0.5, 2.0), "taylor").states:
                for h in (0.5, 0.1, 0.01):
                    series, computed = recording(ivp.series)
                    try:
                        solver._taylor_step(series, y, h, 0)
                    except ArithmeticError:
                        continue  # refused unsplit: no accepted step of h here
                    for s in (h * 0.999, h * 0.5, h * 0.1, h * 1e-3):
                        series, fresh_orders = recording(ivp.series)
                        fresh = solver._taylor_step(series, y, s, 0)
                        assert len(fresh_orders) <= len(computed), (ivp.y0, y, h, s)
                        assert solver._taylor_step(ivp.series, y, s, 0, given=[y, *computed]) == fresh, (y, h, s)
                        cases += 1
        assert cases == 324

    def test_a_nan_term_is_not_small(self):
        # max(map(abs, c)) skips a nan after the first component: terms that
        # overflow into nan there (as the speed's do under heavy drag) were taken
        # for small ones, and the step summed them into the state
        def series(cols, k):
            return (0.0, math.nan if k else 0.0)

        ivp = IVP(lambda t, y: (0.0, 0.0), 0.0, (1.0, 1.0), series=series)
        with pytest.raises(IntegrationError, match="terms above the discard size"):
            integrate(ivp, StepPlan(1.0, 1.0), "taylor")

    def test_a_small_component_is_judged_against_its_own_size(self):
        # y2' = 2 y2 from 1e-12 beside a constant 1: judged against max|y| = 1,
        # y2's terms were discarded below 2^-53, 1.1e-4 of y2, and the steps
        # ended 2.2e-7 and 2.4e-7 off
        ivp = IVP(None, 0.0, (1.0, 1e-12), series=lambda cols, k: (0.0, 2.0 * cols[k][1] / (k + 1)))
        exact = 1e-12 * math.exp(2.0)
        for h in (0.5, 0.1):
            value = integrate_final(ivp, StepPlan(h, 1.0), "taylor")[1]
            assert value[0] == 1.0 and abs(value[1] - exact) <= 1e-14 * exact, h

    def test_a_component_at_rest_is_judged_against_the_state(self):
        # u = 1 - cos t with u(0) = u'(0) = 0 beside (sin t, cos t): a size of
        # 0 would discard only exact zeros, and the step from t = 0 would be
        # split 13 times, until its terms underflow by order 60
        orders = []

        def series(cols, k):
            orders.append(k)
            return (cols[k][1] / (k + 1), -cols[k][0] / (k + 1), cols[k][0] / (k + 1))

        value = integrate_final(IVP(None, 0.0, (0.0, 1.0, 0.0), series=series), StepPlan(0.5, 1.0), "taylor")[1]
        assert orders.count(0) == 2  # one attempt a step
        assert abs(value[2] - (1.0 - math.cos(1.0))) <= 1e-15

    def test_a_failing_series_fails_like_a_failing_rhs(self):
        def series(cols, k):
            if k == 3:
                raise ZeroDivisionError("boom")
            return (cols[k][0] / (k + 1),)

        ivp = EXP_SERIES.replace(series=series)
        with pytest.raises(IntegrationError, match="boom") as info:
            integrate(ivp, StepPlan(0.5, 1.0), "taylor")
        assert info.value.t == 0.0


def hand_taylor_step(series, y, h, spare, depth=0, given=()):
    """The Taylor step as the loop it was before it was generated per dimension,
    kept as the reference of the generated one."""
    if not all(map(math.isfinite, y)):
        raise ArithmeticError(f"state is not finite: {y!r}")
    cols, sizes = [y], None
    discard = solver.TAYLOR_DISCARD * (top := max(map(abs, y)))
    hk, below = 1.0, False
    for k in range(solver.TAYLOR_MAX_ORDER):
        c = given[k + 1] if given else series(cols, k)
        cols.append(c)
        hk *= abs(h)
        small = (largest := max(map(abs, c)) * hk) <= discard and math.isfinite(sum(c))
        if small and largest:
            sizes = sizes or [solver.TAYLOR_DISCARD * (min(max(abs(v), abs(h * d)), top) or top)
                              for v, d in zip(y, cols[1])]
            small = all(abs(ci) * hk <= size for ci, size in zip(c, sizes))
        if small and below:
            break
        below = small
    else:
        if spare >= 2:
            y, spare = hand_taylor_step(series, y, h / 2, spare - 2, depth + 1, cols)
            return hand_taylor_step(series, y, h / 2, spare, depth + 1)
        raise ArithmeticError(f"Taylor series at step h={h * 2**depth!r} has terms above the discard size at order "
                              f"{solver.TAYLOR_MAX_ORDER} after {depth} halvings, all its budget allows; "
                              "take a smaller step")
    total = cols.pop()
    for c in reversed(cols):
        total = [ci + h * ti for ci, ti in zip(c, total, strict=True)]
    return tuple(total), spare


def step_outcome(step, series, *args, **kwargs):
    """The bits of a Taylor step's state and its attempts left, or its refusal,
    with the orders it asked of ``series``."""
    orders = []

    def counted(cols, k):
        orders.append(k)
        return series(cols, k)

    try:
        y, spare = step(counted, *args, **kwargs)
    except ArithmeticError as exc:
        return type(exc), str(exc), orders
    return [v.hex() for v in y], spare, orders


def random_system(rng, dim):
    """A random polynomial system of ``dim`` components: c y_j or c y_j y_l, c = +-1 or drawn."""
    def c():
        return rng.choice([1, -1, rng.uniform(-4.0, 4.0)])
    return [(c(), *(rng.randrange(dim) for _ in range(rng.randint(1, 2)))) for _ in range(dim)]


class TestGeneratedTaylorStep:
    """The Taylor step generated per dimension gives the reference loop's bits."""

    def test_random_systems_at_random_states(self):
        rng = random.Random(38)
        cases = {"ok": 0, "split": 0, "refused": 0}
        for dim in range(1, 7):
            for _ in range(40):
                ivp = solver.polynomial_ivp(0.0, (0.0,) * dim, random_system(rng, dim))
                y = tuple(rng.choice([0.0, -0.0, rng.uniform(-2.0, 2.0), rng.uniform(-1e-9, 1e-9)]) for _ in range(dim))
                for h in (0.5, 0.05, 1.5, 3.0):
                    for spare in (0, 6):
                        got = step_outcome(solver._taylor_step, ivp.series, y, h, spare)
                        assert got == step_outcome(hand_taylor_step, ivp.series, y, h, spare), (dim, y, h)
                        key = "refused" if got[0] is ArithmeticError else "split" if got[1] < spare else "ok"
                        cases[key] += 1
        assert all(count >= 20 for count in cases.values()), cases

    @pytest.mark.parametrize("y", [(0.0,), (-0.0, 0.0), (0.0, 0.0, 0.0), (1.0, -1.0, 0.5), (-3.0, 0.0, 2e-300),
                                   (0.0, 3.0, 0.0), (-0.0, -3.0, -0.0), (2.0, -0.5, 0.0)])
    def test_zero_and_mixed_sign_states(self, y):
        # (sin, cos, 1 - cos) scaled: from (0, 3, 0) the last component's size is
        # 0 and stands in for max|y| = 3; and a cycle y_i' = -y_(i+1)
        circle = solver.polynomial_ivp(0.0, (0.0, 1.0, 0.0), [(1, 1), (-1, 0), (1, 0)])
        cycle = solver.polynomial_ivp(0.0, y, [(-1, (i + 1) % len(y)) for i in range(len(y))])
        for ivp in (circle, cycle) if len(y) == 3 else (cycle,):
            for h in (*(0.05 * i for i in range(-20, 21) if i), 1e-3, 20.0):
                assert step_outcome(solver._taylor_step, ivp.series, y, h, 8) == \
                    step_outcome(hand_taylor_step, ivp.series, y, h, 8), (y, h)

    def test_a_term_at_its_discard_size_is_small(self):
        # from y = 1 at h = 1 with c_1 = 1: every later term is 2^-53, the discard
        # size, so orders 2 and 3 end the step; judged by < it would be refused at 60
        def series(cols, k):
            orders.append(k)
            return (1.0 if k == 0 else solver.TAYLOR_DISCARD,)

        for step in (solver._taylor_step, hand_taylor_step):
            orders = []
            assert step(series, (1.0,), 1.0, 0) == ((1.0 + (1.0 + (2**-53 + 2**-53)),), 0), step
            assert orders == [0, 1, 2], step

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("order", [0, 1, 2, 4, 15])
    @pytest.mark.parametrize("at", [0, 1])
    @pytest.mark.parametrize("beside", [None, 0.0])
    def test_a_nan_or_an_inf_term(self, bad, order, at, beside):
        # beside a zero term, max(map(abs, c)) skips a nan after the first component
        circle = functions.make_sincos()[0].ivp

        def series(cols, k):
            c = list(circle.series(cols, k))
            if k == order:
                c[at], c[1 - at] = bad, c[1 - at] if beside is None else beside
            return tuple(c)

        for h, spare in itertools.product((0.5, 1e-9), (0, 4)):  # at 1e-9 the third order ends the step
            got = step_outcome(solver._taylor_step, series, (0.3, 0.9), h, spare)
            assert got == step_outcome(hand_taylor_step, series, (0.3, 0.9), h, spare), (h, spare)

    def test_given_coefficients(self):
        problems = [functions.make_exp().ivp, functions.make_sincos()[0].ivp, functions.make_jacobi(0.7)[0].ivp,
                    applications.pendulum_ivp(applications.PendulumSpec(1.0, theta0=3.0))]
        for ivp in problems:
            cols = coefficients(ivp.series, ivp.y0, solver.TAYLOR_MAX_ORDER)
            for h in (0.5, 2.0, 1e-4, 40.0):
                for spare in (0, 10):
                    assert step_outcome(solver._taylor_step, ivp.series, ivp.y0, h, spare, given=cols) == \
                        step_outcome(hand_taylor_step, ivp.series, ivp.y0, h, spare, given=cols), (ivp.y0, h)

    def test_split_steps(self):
        # exp at h = 100 takes 31 attempts (TestTaylor); sn at k = 1 and sin at h = 1e5 run out of attempts
        problems = [(EXP_SERIES, 100.0), (functions.make_jacobi(1.0)[0].ivp, 12.0),
                    (functions.make_sincos()[0].ivp, 40.0), (functions.make_sincos()[0].ivp, 1e5)]
        for ivp, h in problems:
            for spare in (0, 2, 30, solver.TAYLOR_SPLIT_STEPS):
                assert step_outcome(solver._taylor_step, ivp.series, ivp.y0, h, spare) == \
                    step_outcome(hand_taylor_step, ivp.series, ivp.y0, h, spare), (ivp.y0, h, spare)

    @pytest.mark.parametrize("wrong", [(1.0,), (1.0, 1.0, 1.0)])
    def test_a_series_of_the_wrong_length_fails_at_its_step(self, wrong):
        # right at the start node, wrong from the next: the second step fails at its t
        circle = functions.make_sincos()[0].ivp

        def series(cols, k):
            return circle.series(cols, k) if cols[0] == circle.y0 else wrong

        with pytest.raises(IntegrationError) as info:
            integrate(circle.replace(series=series), StepPlan(0.5, 2.0), "taylor")
        assert info.value.t == 0.5 and isinstance(info.value.cause, ValueError)

    def test_a_wide_system_compiles_and_steps(self):
        # 1000 pairs (sin t, cos t): one flat discard test and one Horner statement a
        # component, which compile at any width, each pair taking the bits of sin and cos alone
        dim = 2000
        ivp = solver.polynomial_ivp(0.0, (0.0, 1.0) * (dim // 2),
                                    [(1, i + 1) if i % 2 == 0 else (-1, i - 1) for i in range(dim)])
        final = integrate_final(ivp, StepPlan(0.5, 2.0), "taylor")[1]
        assert final == integrate_final(functions.make_sincos()[0].ivp, StepPlan(0.5, 2.0), "taylor")[1] * (dim // 2)


def hand_systems(k2, ratio):
    """The hand right-hand sides and Taylor recurrences that exp, sin/cos, sn/cn/dn
    (k2 = k^2) and the pendulum (ratio = g/L) wrote before they were declared as
    polynomial systems, kept as the reference of the generated ones."""
    def jacobi_rhs(t, y):
        sn, cn, dn = y
        return (cn * dn, -sn * dn, -k2 * sn * cn)

    def jacobi_series(cols, k):
        cd = sd = sc = 0.0
        for (s, c, _), (s2, c2, d2) in zip(cols, reversed(cols)):
            cd += c * d2
            sd += s * d2
            sc += s * c2
        return (cd / (k + 1), -sd / (k + 1), -k2 * sc / (k + 1))

    def pendulum_rhs(t, y):
        _, w, s, c = y
        return (w, -ratio * s, c * w, -s * w)

    def pendulum_series(cols, k):
        cw = sw = 0.0
        for (_, _, s, c), (_, w, _, _) in zip(cols, reversed(cols)):
            cw += c * w
            sw += s * w
        return (cols[k][1] / (k + 1), -ratio * cols[k][2] / (k + 1), cw / (k + 1), -sw / (k + 1))

    return {
        "exp": (lambda t, y: (y[0],), lambda cols, k: (cols[k][0] / (k + 1),)),
        "sincos": (lambda t, y: (y[1], -y[0]), lambda cols, k: (cols[k][1] / (k + 1), -cols[k][0] / (k + 1))),
        "jacobi": (jacobi_rhs, jacobi_series),
        "pendulum": (pendulum_rhs, pendulum_series),
    }


def coefficients(series, y0, orders=40):
    cols = [y0]
    for k in range(orders):
        cols.append(series(cols, k))
    return cols


class TestPolynomialIvp:
    @pytest.mark.parametrize("k, length", [(0.0, 1.0), (0.3, 0.5), (0.6, 2.0), (1.0, 1.0)])
    def test_generated_code_gives_the_bits_of_the_hand_recurrences(self, k, length):
        # random states, not only those on a solution, and 40 orders from each
        spec = applications.PendulumSpec(length, theta0=1.0)
        hand = hand_systems(k * k, spec.gravity / spec.length)
        generated = {"exp": functions.make_exp().ivp, "sincos": functions.make_sincos()[0].ivp,
                     "jacobi": functions.make_jacobi(k)[0].ivp, "pendulum": applications.pendulum_ivp(spec)}
        rng = random.Random(36)
        for name, ivp in generated.items():
            rhs, series = hand[name]
            for _ in range(50):
                y = tuple(rng.uniform(-3.0, 3.0) for _ in ivp.y0)
                assert ivp.rhs(0.0, y) == rhs(0.0, y), (name, y)
                assert coefficients(ivp.series, y) == coefficients(series, y), (name, y)

    def test_a_square(self):
        # y' = y^2 from 1 is 1/(1 - t): every coefficient is exactly 1
        ivp = solver.polynomial_ivp(0.0, (1.0,), [(1, 0, 0)])
        assert coefficients(ivp.series, ivp.y0) == [(1.0,)] * 41
        assert ivp.rhs(0.0, (3.0,)) == (9.0,)

    def test_a_constant_on_a_linear_term(self):
        # y' = 3 y from 1 is exp(3 t): coefficients 3^n / n!
        ivp = solver.polynomial_ivp(0.0, (1.0,), [(3.0, 0)])
        assert ivp.rhs(0.0, (2.0,)) == (6.0,)
        for n, (c,) in enumerate(coefficients(ivp.series, ivp.y0)):
            assert abs(c - 3**n / math.factorial(n)) <= 1e-15 * c, n

    def test_moduli_share_one_compiled_shape(self):
        functions.make_jacobi.cache_clear()  # built once per modulus: build these two anew
        before = solver._polynomial_factory.cache_info()
        sn3, sn6 = functions.make_jacobi(0.3)[0].ivp, functions.make_jacobi(0.6)[0].ivp
        after = solver._polynomial_factory.cache_info()
        assert after.misses - before.misses <= 1 and after.hits - before.hits >= 1
        assert coefficients(sn3.series, sn3.y0, 4) != coefficients(sn6.series, sn6.y0, 4)


class TestStepBudget:
    def test_too_many_steps_rejected_before_the_loop(self):
        calls = []
        ivp = IVP(lambda t, y: calls.append(t) or (y[0],), 0.0, (1.0,))
        for plan in (StepPlan(1e-300, 1.0), StepPlan(5e-324, 1e308)):
            with pytest.raises(ValueError, match=r"step size h=.* needs more than"):
                integrate(ivp, plan)
        assert calls == []
        with pytest.raises(ValueError, match="step size h=1e-300"):
            StepPlan.divided(0.0, 1.0, 1e-300)
        with pytest.raises(ValueError, match="step count"):
            StepPlan(1.0, 1.0, MAX_STEPS + 1)

    def test_budget_is_inclusive(self):
        # exactly MAX_STEPS steps is a valid plan; only the count is checked here
        assert StepPlan.divided(0.0, float(MAX_STEPS), 1.0).steps == MAX_STEPS


class TestErrors:
    def test_rhs_failure_carries_time(self):
        def rhs(t, y):
            if t > 0.5:
                raise ValueError("boom")
            return (1.0,)

        ivp = IVP(rhs, 0.0, (0.0,))
        with pytest.raises(IntegrationError) as err:
            integrate(ivp, StepPlan(0.1, 1.0), "rk4")
        assert 0.4 <= err.value.t <= 0.7

    def test_dimension_mismatch_detected(self):
        ivp = IVP(lambda t, y: (1.0,), 0.0, (0.0, 0.0))
        with pytest.raises(IntegrationError):
            integrate(ivp, StepPlan(0.1, 1.0), "rk4")

    def test_late_wrong_length_detected(self):
        # the RHS turns short only after the midpoint, at a later stage and step
        ivp = IVP(lambda t, y: (1.0, 1.0) if t <= 0.5 else (1.0,), 0.0, (0.0, 0.0))
        for method in ("euler", "rk4"):
            with pytest.raises(IntegrationError) as err:
                integrate(ivp, StepPlan(0.1, 1.0), method)
            assert 0.4 <= err.value.t <= 0.7

    def test_non_finite_final_state(self):
        # y' = y^2, y(0) = 1 blows up at t = 1
        ivp = IVP(lambda t, y: (y[0] * y[0],), 0.0, (1.0,))
        for method in ("euler", "rk4"):
            with pytest.raises(IntegrationError) as err:
                integrate_final(ivp, StepPlan(0.01, 3.0), method)
            assert err.value.t == 3.0

    def test_non_finite_state_stops_the_run(self):
        # the same blow-up with t_end = 1000 would take 10^6 steps; the run
        # stops at the first check after t = 1
        calls = 0

        def rhs(t, y):
            nonlocal calls
            calls += 1
            return (y[0] * y[0],)

        for method in ("euler", "rk4"):
            calls = 0
            with pytest.raises(IntegrationError, match="state is not finite") as err:
                integrate(IVP(rhs, 0.0, (1.0,)), StepPlan(1e-3, 1000.0), method)
            assert calls < 10_000, method
            assert 1.0 < err.value.t <= 1.0 + 2e-3 * solver.FINITE_CHECK_STEPS, method

    def test_non_finite_inputs_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="t0"):
                IVP(EXP_IVP.rhs, bad, (1.0,))
            with pytest.raises(ValueError, match="y0"):
                IVP(EXP_IVP.rhs, 0.0, (1.0, bad))
            with pytest.raises(ValueError, match="t_end"):
                StepPlan(0.1, bad)
            with pytest.raises(ValueError, match="step size h"):
                StepPlan(bad, 1.0)

    @pytest.mark.parametrize("call, message", [
        (lambda: IVP(EXP_IVP.rhs, 0.0, ()), "initial state y0 must not be empty"),
        (lambda: find_zero_crossings(Trajectory((0.0, 1.0), 1), 1, EXP_IVP), "component 1 out of range for dim 1"),
        (lambda: find_zero_crossings(Trajectory((0.0, 1.0), 1), -1, EXP_IVP),
         "component -1 out of range for dim 1"),
    ], ids=["dim 0", "component 1", "component -1"])
    def test_bad_arguments_are_refused(self, call, message):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            integrate(EXP_IVP, StepPlan(0.1, 1.0), method="rk5")

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            StepPlan(0.0, 1.0)


class TestZeroCrossings:
    def test_sine_crossing_near_pi(self):
        # the initial node is an exact zero: the initial condition, not a crossing
        ivp = IVP(lambda t, y: (math.cos(t),), 0.0, (0.0,))
        traj = integrate(ivp, StepPlan(1e-3, 4.0), "rk4")
        t, _ = find_zero_crossings(traj, 0, ivp)
        assert abs(t - oracles.PI) < 1e-8

    def test_constant_positive_has_no_crossings(self):
        ivp = IVP(lambda t, y: (0.0,), 0.0, (1.0,))
        traj = integrate(ivp, StepPlan(0.1, 1.0), "rk4")
        assert find_zero_crossings(traj, 0, ivp) is None

    def test_zero_only_at_the_start_is_no_crossing(self):
        ivp = IVP(lambda t, y: (1.0,), 0.0, (0.0,))
        traj = integrate(ivp, StepPlan(0.1, 1.0), "rk4")
        assert find_zero_crossings(traj, 0, ivp) is None

    def test_exact_zero_node_counts_once(self):
        # y = 1 - t with h chosen so a node lands exactly on the zero: that
        # node and its own state, not a bracket on either side of it
        ivp = IVP(lambda t, y: (-1.0,), 0.0, (1.0,))
        traj = integrate(ivp, StepPlan(0.25, 2.0), "rk4")
        t, state = find_zero_crossings(traj, 0, ivp)
        assert (t, state) == (1.0, (0.0,))
        assert [v.hex() for v in state] == [v.hex() for v in traj.states[4]]

    def test_trailing_zero_node_counts(self):
        # y = 1 - t ending on its zero: the last node is the crossing
        ivp = IVP(lambda t, y: (-1.0,), 0.0, (1.0,))
        traj = integrate(ivp, StepPlan(0.25, 1.0), "rk4")
        assert traj.states[-1] == (0.0,)
        assert find_zero_crossings(traj, 0, ivp) == (1.0, (0.0,))


class TestStop:
    def test_run_ends_at_the_first_negative_node(self):
        # y = (cos t, -sin t): nodes of 0.1 cross pi/2 between 1.5 and 1.6
        sin_fn, _ = functions.make_sincos()
        ivp = sin_fn.ivp.replace(y0=(1.0, 0.0))
        full = integrate(ivp, StepPlan(0.1, 10.0))
        stopped = integrate(ivp, StepPlan(0.1, 10.0), stop=0)
        assert stopped == Trajectory(full.nodes[:17 * 3], 2)
        assert stopped.states[-1][0] < 0.0 < stopped.states[-2][0]
        streamed = integrate(ivp, StepPlan(0.1, 10.0), record=False, stop=0)
        assert streamed == Trajectory((0.0, *ivp.y0, *full.nodes[16 * 3:17 * 3]), 2)

    def test_a_zero_node_does_not_stop_the_run(self):
        ivp = IVP(lambda t, y: (-1.0,), 0.0, (1.0,))
        traj = integrate(ivp, StepPlan(0.25, 2.0), "rk4", stop=0)
        assert traj.times == (0.0, 0.25, 0.5, 0.75, 1.0, 1.25)
        assert traj.states[4] == (0.0,)


class TestCrossingLocator:
    """The Illinois iteration on one step of the run's method from the bracketing node."""

    @pytest.fixture
    def iterates(self, monkeypatch):
        """The end time of every one-step evaluation the locator makes."""
        seen = []
        integrate_final = solver.integrate_final

        def recording(ivp, plan, *args, **kwargs):
            seen.append(plan.t_end)
            return integrate_final(ivp, plan, *args, **kwargs)

        monkeypatch.setattr(solver, "integrate_final", recording)
        return seen

    def test_sine_crossing_to_the_local_error(self, iterates):
        ivp = IVP(lambda t, y: (math.cos(t),), 0.0, (0.0,))
        traj = integrate(ivp, StepPlan(1e-3, 4.0), "rk4")
        t, _ = find_zero_crossings(traj, 0, ivp)
        assert abs(t - oracles.PI) < 1e-13
        assert len(iterates) <= 4  # bisection to 1e-10 took 24

    def test_state_is_one_step_from_the_bracketing_node(self):
        sin_fn, _ = functions.make_sincos()
        ivp = sin_fn.ivp
        traj = integrate(ivp, StepPlan(1e-3, 4.0), "rk4")
        t, state = find_zero_crossings(traj, 0, ivp)
        i = max(k for k, node_t in enumerate(traj.times) if node_t < t)
        assert traj.states[i][0] > 0.0 > traj.states[i + 1][0]
        node = IVP(ivp.rhs, traj.times[i], traj.states[i])
        assert integrate_final(node, StepPlan(t - traj.times[i], t)) == (t, state)

    def test_refines_on_a_step_of_the_given_method(self):
        sin_fn, _ = functions.make_sincos()
        ivp = sin_fn.ivp
        traj = integrate(ivp, StepPlan(0.5, 4.0), "taylor")
        t, state = find_zero_crossings(traj, 0, ivp, "taylor")
        assert abs(t - oracles.PI) <= 4.5e-16
        node = IVP(ivp.rhs, traj.times[6], traj.states[6], series=ivp.series)
        assert integrate_final(node, StepPlan(t - 3.0, t), "taylor") == (t, state)
        # RK4 steps of up to 0.5 from the same node miss the zero by 4.7e-7
        assert 1e-7 < abs(find_zero_crossings(traj, 0, ivp)[0] - oracles.PI) < 1e-6

    def test_linear_converges_in_one_iteration(self, iterates):
        # y = 1 - t: nodes 1, 0.25, -0.5 bracket the zero, and the secant
        # through them lands on it
        ivp = IVP(lambda t, y: (-1.0,), 0.0, (1.0,))
        traj = integrate(ivp, StepPlan(0.75, 1.5), "rk4")
        assert find_zero_crossings(traj, 0, ivp) == (1.0, (0.0,))
        assert iterates == [1.0]

    def test_no_accepted_iterate_gives_the_nearer_node(self, iterates):
        # y = 1 - t by Euler steps of 1/3: the nodes at 1.0 and 4/3 hold 5.6e-17
        # and -1/3, and the secant through them lands on 1.0, not strictly inside
        # the bracket.  The crossing is the nearer node, not the one a step late
        ivp = IVP(lambda t, y: (-1.0,), 0.0, (1.0,))
        traj = integrate(ivp, StepPlan(1 / 3, 2.0), "euler", stop=0)
        assert find_zero_crossings(traj, 0, ivp, "euler") == (1.0, (5.551115123125783e-17,))
        assert iterates == []

    def test_non_finite_step_values_end_inside_the_bracket(self, iterates):
        # finite at the stages of the full step from 0 to 1e300, overflowing
        # anywhere else: the first iterate's one-step value is non-finite,
        # and its step fails as any other step does
        def rhs(t, y):
            return (-1.0 if t in (0.0, 5e299, 1e300) else -math.inf,)

        ivp = IVP(rhs, 0.0, (0.5e300,))
        traj = integrate(ivp, StepPlan(1e300, 1e300), "rk4")
        assert traj.states[-1][0] < 0.0
        with pytest.raises(IntegrationError, match="not finite") as failure:
            find_zero_crossings(traj, 0, ivp)
        assert iterates == [failure.value.t]
        assert 0.0 < failure.value.t < 1e300


class TestCsv:
    def test_round_trip(self):
        traj = integrate(EXP_IVP, StepPlan(0.1, 1.0), "rk4")
        lines = traj.to_csv().strip().split("\n")
        assert lines[0] == "t,y1"
        for line, t, state in zip(lines[1:], traj.times, traj.states):
            parts = [float(p) for p in line.split(",")]
            assert parts[0] == t
            assert tuple(parts[1:]) == state

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_rows_format_each_value_as_17_significant_digits(self, dim):
        values = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 1 / 3, 0.1, -2.5e-300]
        rows = [values[i:i + dim + 1] for i in range(len(values) - dim)]
        traj = Trajectory(tuple(v for row in rows for v in row), dim)
        expected = [",".join(f"{v:.17g}" for v in row) for row in rows]
        assert traj.to_csv().split("\n")[1:] == [*expected, ""]


def spec_ivp(tmp_path, sources, method, t0=0.0, y0=None, t_end=1.0, h=0.1):
    """The IVP, with its generated step, of a spec file with these right-hand sides."""
    y0 = y0 or [1.0] * len(sources)
    lines = [f"dim = {len(sources)}", *(f"rhs_{i} = {s}" for i, s in enumerate(sources, 1)),
             f"t0 = {t0!r}", f"y0 = {', '.join(map(repr, y0))}", f"t_end = {t_end!r}", f"h = {h!r}",
             f"method = {method}"]
    path = tmp_path / "step.ivp"
    path.write_text("\n".join(lines) + "\n")
    return cli.load_spec_file(str(path))[0]


def walker_rhs(sources, calls=None):
    """The right-hand side by ``expr.evaluate``; appends each call's t to ``calls``."""
    trees = [expr.parse(source) for source in sources]

    def rhs(t, y):
        if calls is not None:
            calls.append(t)
        env = {"t": t, **{f"y{i}": v for i, v in enumerate(y, 1)}}
        return [expr.evaluate(tree, env) for tree in trees]

    return rhs


def loop_step(stage, method, rhs, t, t_next, y):
    """The state one step of the run loop around ``stage`` takes from (t, y) to ``t_next``; a failure raises the
    cause of the loop's ``IntegrationError``, which names t."""
    try:
        return solver._run_loop(method, stage, len(y), False, None)(rhs, t, y, 0.0, 1, t_next, 0, None)[1]
    except IntegrationError as exc:
        assert exc.t == t
        raise exc.cause


class TestGeneratedStep:
    """A spec file's run loop, generated with its right-hand sides inlined, and
    the loop generated around a Python right-hand side, one step at a time against
    the textbook step on the walker: the same bits, or the same exception and message."""

    VALUES = TestEmitFloat.VALUES

    def random_sources(self, rng, dim):
        allowed = {"t"} | {f"y{i}" for i in range(1, dim + 1)}
        sources = []
        while len(sources) < dim:
            tree = expr.parse(expr.to_source(random_float_tree(rng, 4)))
            if expr.variables(tree) <= allowed:
                sources.append(expr.to_source(tree))
        return sources

    def test_matches_the_reference_on_random_trees(self, tmp_path):
        rng = random.Random(20261019)
        failures = successes = 0
        for _ in range(120):
            dim, method = rng.randint(1, 4), rng.choice(["euler", "rk4"])
            sources = self.random_sources(rng, dim)
            ivp = spec_ivp(tmp_path, sources, method)
            assert ivp.stage is not None
            rhs = walker_rhs(sources)
            for _ in range(5):
                t, h = rng.choice(self.VALUES), rng.choice([0.1, -0.1, 0.5, -2.0, 1e-3])
                y = tuple(rng.choice(self.VALUES) for _ in range(dim))
                want = outcome(reference_step, rhs, method, t, (t + h) - t, y)
                assert outcome(loop_step, ivp.stage, method, ivp.rhs, t, t + h, y) == want, (sources, t, h, y)
                assert outcome(loop_step, solver._call_rhs, method, rhs, t, t + h, y) == want, (sources, t, h, y)
                if isinstance(want[0], type):
                    failures += 1
                else:
                    successes += 1
        assert failures > 100 and successes > 100

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("t_end", [1.0, -1.0])
    def test_runs_match_the_reference_on_their_grid(self, tmp_path, method, dim, t_end):
        sources = ["y2", "-y1 + cos(t)", "t * y3 - sin(t)^2", "exp(-t) / (1 + y4^2)"][:dim]
        sources[-1] = sources[-1].replace(f"y{dim + 1}", "y1")
        ivp = spec_ivp(tmp_path, sources, method, t0=0.25, y0=[0.5 + i for i in range(dim)])
        traj = integrate(ivp, StepPlan(0.3, t_end), method)
        assert 0 < abs(traj.times[-1] - traj.times[-2]) < 0.3  # the last step is shortened
        rhs = walker_rhs(sources)
        y = ivp.y0
        for t, t_next, state in zip(traj.times, traj.times[1:], traj.states[1:]):
            y = reference_step(rhs, method, t, t_next - t, y)
            assert [v.hex() for v in state] == [v.hex() for v in y]

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_a_long_rhs_is_inlined(self, tmp_path, method, monkeypatch):
        # 482 nodes: a spec of any size declares its stages, and its run loop walks no tree
        sources = [" + ".join(f"{k}e-3 * sin(t * y1)" for k in range(1, 70))]
        ivp = spec_ivp(tmp_path, sources, method)
        assert ivp.stage is not None
        walked = []
        evaluate = expr.evaluate
        monkeypatch.setattr(expr, "evaluate", lambda *args: walked.append(args) or evaluate(*args))
        traj = integrate(ivp, StepPlan(0.3, 1.0), method)
        assert walked == []
        monkeypatch.undo()
        rhs = walker_rhs(sources)
        for t, t_next, y, state in zip(traj.times, traj.times[1:], traj.states, traj.states[1:]):
            assert [v.hex() for v in state] == [v.hex() for v in reference_step(rhs, method, t, t_next - t, y)]

    @pytest.mark.parametrize("declared, method", [("euler", "rk4"), ("rk4", "euler")])
    def test_a_spec_run_under_its_other_method_is_inlined(self, tmp_path, declared, method, monkeypatch):
        # a spec declares one stage, which Euler and RK4 alike inline: a run under either walks no tree
        ivp = spec_ivp(tmp_path, ["y2", "-9.8 * sin(y1) - 0.1 * y2"], declared, y0=[1.0, 0.0])
        plan = StepPlan(0.01, 1.0)
        walked = []
        evaluate = expr.evaluate
        monkeypatch.setattr(expr, "evaluate", lambda *args: walked.append(args) or evaluate(*args))
        traj = integrate(ivp, plan, method)
        assert walked == []
        monkeypatch.undo()
        times, states = integrate_reference.integrate(ivp, plan, method)
        assert [v.hex() for v in traj.nodes] == [v.hex() for t, y in zip(times, states) for v in (t, *y)]

    @pytest.mark.parametrize("source, stage", [
        ("sqrt(0.01 - t)", 2),  # t + h / 2 is the first time past 0.01
        ("sqrt(0.001 - y1)", 3),  # y1 is 0 at k1 and k2, h^2 / 4 at k3
        ("sqrt(0.004 - y1)", 4),  # and h^2 / 2 at k4
    ])
    def test_a_failing_stage_gives_the_walkers_error(self, tmp_path, source, stage):
        # y1' = y2, y2' = 1 + 0 * (a term that fails at one stage)
        sources = ["y2", f"1 + 0 * {source}"]
        calls = []
        with pytest.raises(ValueError) as want:
            reference_step(walker_rhs(sources, calls), "rk4", 0.0, 0.1, (0.0, 0.0))
        assert len(calls) == stage
        ivp = spec_ivp(tmp_path, sources, "rk4", y0=[0.0, 0.0])
        with pytest.raises(IntegrationError) as err:
            integrate(ivp, StepPlan(0.1, 1.0), "rk4")
        assert (err.value.t, str(err.value)) == (0.0, f"integration failed at t=0.0: {want.value}")
        assert isinstance(err.value.cause, expr.ExprEvalError)

    def test_crossing_search_keeps_the_declared_integrand(self):
        # the local IVP of the search carries every field, so RK4 there is Simpson's rule on f
        calls = []
        ivp = IVP(lambda t, y: calls.append(t) or (math.cos(t),), 0.0, (0.5,), math.cos)
        traj = integrate(ivp, StepPlan(0.1, 5.0), "rk4")
        t, _ = find_zero_crossings(traj, 0, ivp)  # 0.5 + sin t = 0
        assert abs(t - 7 * oracles.PI / 6) < 1e-6
        assert calls == []


class TestRunLoop:
    """``integrate``'s generated run loops against the Python loop they replaced (``integrate_reference``) on
    seeded problems of every variant: the same nodes bit for bit, or the same failure, at the same t."""

    @staticmethod
    def outcome(run, ivp, plan, method, record, stop):
        try:
            result = run(ivp, plan, method, record, stop)
        except IntegrationError as exc:
            return exc.t.hex(), type(exc.cause), str(exc.cause)
        if isinstance(result, Trajectory):
            return [v.hex() for v in result.nodes]
        times, states = result
        return [v.hex() for t, state in zip(times, states) for v in (t, *state)]

    @staticmethod
    def problem(rng, tmp_path):
        """An IVP and a method: a spec file's, inlined or called, an integrand or a Taylor series."""
        kind = rng.choice(["inlined", "called", "integrand", "taylor"])
        if kind == "integrand":
            tree = random_float_tree(rng, 3)
            while expr.variables(tree) - {"t"}:
                tree = random_float_tree(rng, 3)
            sources = ["cos(t)", "1 / (1 + t^2)", "sqrt(1 - t)", "ln(t + 2)", "exp(t) * sin(3 * t)"]
            walk = expr.walker([rng.choice([tree, *map(expr.parse, sources)])], ["t"])
            return IVP(None, 0.0, (rng.uniform(-1.0, 1.0),), integrand=lambda t: walk(t)[0]), "rk4"
        if kind == "taylor":
            ivp = rng.choice([EXP_SERIES, functions.make_sincos()[0].ivp, functions.make_jacobi(0.6)[0].ivp,
                              applications.pendulum_ivp(applications.PendulumSpec(1.0, theta0=2.0))])
            return ivp, "taylor"
        dim, method = rng.randint(1, 4), rng.choice(["euler", "rk4"])
        family = rng.choice(["random", "random", "smooth", "overflowing", "linear"])
        if family == "random":
            sources = TestGeneratedStep().random_sources(rng, dim)
        elif family == "smooth":
            sources = ["y2", "-y1 + cos(t)", "t * y3 - sin(t)^2", "exp(-t) / (1 + y4^2)"][:dim]
            sources[-1] = sources[-1].replace(f"y{dim + 1}", "y1")
        else:  # infinite within a step from 1; or 0 on a node, from 1 at t = 0 by steps of 0.25
            sources = ["1e300 * y1 * y1" if family == "overflowing" else "-1"] * dim
        ivp = spec_ivp(tmp_path, sources, method, y0=[rng.choice([1.0, rng.uniform(-2.0, 2.0)]) for _ in range(dim)])
        return (ivp if kind == "inlined" else ivp.replace(stage=None)), method

    def test_matches_the_python_loop(self, tmp_path):
        rng = random.Random(20261022)
        failures = successes = 0
        for _ in range(300):
            ivp, method = self.problem(rng, tmp_path)
            t0 = rng.choice([0.0, rng.uniform(-2.0, 2.0)])
            ivp = ivp.replace(t0=t0)
            h = rng.choice([0.05, 0.1, 0.25, 0.3] if method != "taylor" else [0.5, 2.0, 100.0, 1e300])
            t_end = t0 + rng.choice([0.0, 1.0, -1.0]) * rng.uniform(0.2, 3.0) * (1.0 if h < 100.0 else h)
            plan = StepPlan.divided(t0, t_end, h) if t_end != t0 and rng.random() < 0.3 else StepPlan(h, t_end)
            record, stop = rng.random() < 0.5, rng.choice([None, rng.randrange(len(ivp.y0))])
            want = self.outcome(integrate_reference.integrate, ivp, plan, method, record, stop)
            assert self.outcome(integrate, ivp, plan, method, record, stop) == want, (ivp, plan, method, record, stop)
            if isinstance(want, tuple):
                failures += 1
            else:
                successes += 1
        assert failures > 30 and successes > 150
