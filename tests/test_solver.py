import dataclasses
import math
import random

import pytest

import oracles
from stepcalc import applications, functions, solver
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

EXP_IVP = IVP(1, lambda t, y: (y[0],), 0.0, (1.0,))


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
        ivp = IVP(1, lambda t, y: (0.0,), 0.0, (4.25,))
        traj = integrate(ivp, StepPlan(0.07, 2.0), "euler")
        assert all(s[0] == 4.25 for s in traj.states)

    def test_unit_rhs_tracks_time(self):
        ivp = IVP(1, lambda t, y: (1.0,), 0.0, (0.0,))
        traj = integrate(ivp, StepPlan(0.013, 3.0), "euler")
        for t, s in zip(traj.times, traj.states):
            assert abs(s[0] - t) <= 1e-12 * max(1.0, t)


class TestRK4:
    def test_exponential(self):
        traj = integrate(EXP_IVP, StepPlan(0.1, 1.0), "rk4")
        assert abs(traj.final_state()[0] - oracles.E) < 1e-5

    def test_riccati_closed_form(self):
        ivp = IVP(1, lambda t, y: (-y[0] * y[0],), 0.0, (1.0,))
        traj = integrate(ivp, StepPlan(1e-3, 1.0), "rk4")
        assert abs(traj.final_state()[0] - 0.5) < 1e-9  # 1/(1+t)

    def test_cosine_quadrature(self):
        ivp = IVP(1, lambda t, y: (math.cos(t),), 0.0, (0.0,))
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
        back = IVP(1, EXP_IVP.rhs, 1.0, y1)
        _, y0 = integrate_final(back, StepPlan(1e-3, 0.0))
        assert abs(y0[0] - 1.0) < 1e-8

    def test_backward_times_decrease(self):
        back = IVP(1, EXP_IVP.rhs, 1.0, (math.e,))
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
        back = IVP(1, EXP_IVP.rhs, 1.0, (math.e,))
        traj = integrate(back, StepPlan.divided(1.0, 0.0, 0.3), "rk4")
        assert traj.times == (1.0, 0.75, 0.5, 0.25, 0.0)

    def test_rk4_on_a_quadrature_is_composite_simpson(self):
        # for y' = f(t), one RK4 step is Simpson's rule on the step
        f = math.cos
        n = 6
        got = integrate_final(IVP(1, lambda t, y: (f(t),), 0.0, (0.0,)),
                              StepPlan(1.0 / n, 1.0, n))[1][0]
        h = 1.0 / n
        simpson = sum(h / 6 * (f(k * h) + 4 * f((k + 0.5) * h) + f((k + 1) * h)) for k in range(n))
        assert got == pytest.approx(simpson, rel=1e-15)


def quadrature(f):
    """y' = f(t), y(0) = 0, once with f declared as its integrand and once
    with the matching right-hand side only."""
    with_f = IVP(1, lambda t, y: (f(t),), 0.0, (0.0,), f)
    return with_f, dataclasses.replace(with_f, integrand=None)


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

            ivp = IVP(1, rhs, 0.0, (0.0,), integrand)
            return dataclasses.replace(fn, ivp=ivp)

        monkeypatch.setattr(applications, "make_inv_gudermannian", counted)
        value = applications.meridional_parts(1.0)
        n = math.ceil(1.0 / applications.MERIDIONAL_H)
        assert calls == {"integrand": 2 * n + 1, "rhs": 0}
        plain = dataclasses.replace(make().ivp, integrand=None)
        assert integrate_final(plain, StepPlan(applications.MERIDIONAL_H, 1.0))[1][0] == value

    def test_euler_calls_the_rhs(self):
        def unused(t):
            raise AssertionError("the integrand is for RK4 only")

        ivp = IVP(1, lambda t, y: (math.cos(t),), 0.0, (0.0,), unused)
        euler = integrate(ivp, StepPlan(0.1, 1.0), "euler")
        assert euler == integrate(dataclasses.replace(ivp, integrand=None), StepPlan(0.1, 1.0), "euler")

    def test_integrand_needs_dimension_one(self):
        with pytest.raises(ValueError, match="dim 1"):
            IVP(2, lambda t, y: (1.0, 1.0), 0.0, (0.0, 0.0), math.cos)


EXP_SERIES = IVP(1, lambda t, y: (y[0],), 0.0, (1.0,), series=lambda cols, k: (cols[k][0] / (k + 1),))


class TestTaylor:
    def test_each_method_calls_only_its_own_function(self):
        calls = {"rhs": 0, "series": 0}

        def rhs(t, y):
            calls["rhs"] += 1
            return (y[0],)

        def series(cols, k):
            calls["series"] += 1
            return (cols[k][0] / (k + 1),)

        ivp = IVP(1, rhs, 0.0, (1.0,), series=series)
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

        ivp = IVP(2, lambda t, y: (1.0, 2.0 * y[0] * y[1]), 0.0, (0.0, 1.0), series=series)
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

    def test_a_refused_step_is_split_into_halves(self):
        # per step of 100: 100, 50, 25 and 12.5 are refused after all 60 orders,
        # 15 attempts, and 16 halves of 6.25 are taken.  Each attempt calls the
        # series from order 0 up, and the nodes stay on the grid
        calls = []

        def series(cols, k):
            calls.append(k)
            return (cols[k][0] / (k + 1),)

        ivp = dataclasses.replace(EXP_SERIES, series=series)
        traj = integrate(ivp, StepPlan(100.0, 200.0), "taylor")
        assert traj.times == (0.0, 100.0, 200.0)
        starts = [i for i, k in enumerate(calls) if k == 0]
        attempts = [calls[i:j] for i, j in zip(starts, starts[1:] + [len(calls)])]
        assert all(orders == list(range(len(orders))) for orders in attempts)
        assert [len(orders) == 60 for orders in attempts].count(True) == 2 * 15
        assert len(attempts) == 2 * (15 + 16)

    def test_a_split_stays_within_its_attempts(self, monkeypatch):
        # a step of 100 on exp takes 31 attempts (test above).  With a run
        # budget of 40 and two steps, 38 attempts are spare: the first step
        # spends 30 of them, and the second, left 8, halves 4 levels deep and
        # is refused at its seventh attempt, a half of 12.5
        calls = []

        def series(cols, k):
            calls.append(k)
            return (cols[k][0] / (k + 1),)

        monkeypatch.setattr(solver, "MAX_STEPS", 40)
        ivp = dataclasses.replace(EXP_SERIES, series=series)
        with pytest.raises(IntegrationError, match=r"step h=100\.0 .* after 3 halvings") as info:
            integrate(ivp, StepPlan(100.0, 200.0), "taylor")
        assert info.value.t == 100.0 and calls.count(0) == 31 + 7
        # a run of as many steps as the budget holds splits none
        calls.clear()
        with pytest.raises(IntegrationError, match=r"step h=100\.0 .* after 0 halvings"):
            integrate(ivp, StepPlan(100.0, 4000.0), "taylor")
        assert calls.count(0) == 1

    def test_a_step_too_long_everywhere_is_refused_within_the_split_attempts(self):
        # sin and cos at h = 1e5 need 2^13 halves: the split is refused within
        # the TAYLOR_SPLIT_STEPS attempts it may add, two funded by each halving
        # (249 made, as the refusal leaves some funded halves untried)
        calls = []

        def series(cols, k):
            calls.append(k)
            return functions.circle_series(cols, k)

        ivp = IVP(2, functions.circle_rhs, 0.0, (0.0, 1.0), series=series)
        with pytest.raises(IntegrationError, match=r"step h=100000\.0 "):
            integrate(ivp, StepPlan(1e5, 1e5), "taylor")
        assert calls.count(0) == 249 <= 1 + solver.TAYLOR_SPLIT_STEPS

    def test_a_nan_term_is_not_small(self):
        # max(map(abs, c)) skips a nan after the first component: terms that
        # overflow into nan there (as the speed's do under heavy drag) were taken
        # for small ones, and the step summed them into the state
        def series(cols, k):
            return (0.0, math.nan if k else 0.0)

        ivp = IVP(2, lambda t, y: (0.0, 0.0), 0.0, (1.0, 1.0), series=series)
        with pytest.raises(IntegrationError, match="terms above the discard size"):
            integrate(ivp, StepPlan(1.0, 1.0), "taylor")

    def test_a_failing_series_fails_like_a_failing_rhs(self):
        def series(cols, k):
            if k == 3:
                raise ZeroDivisionError("boom")
            return (cols[k][0] / (k + 1),)

        ivp = dataclasses.replace(EXP_SERIES, series=series)
        with pytest.raises(IntegrationError, match="boom") as info:
            integrate(ivp, StepPlan(0.5, 1.0), "taylor")
        assert info.value.t == 0.0


class TestStepBudget:
    def test_too_many_steps_rejected_before_the_loop(self):
        calls = []
        ivp = IVP(1, lambda t, y: calls.append(t) or (y[0],), 0.0, (1.0,))
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

        ivp = IVP(1, rhs, 0.0, (0.0,))
        with pytest.raises(IntegrationError) as err:
            integrate(ivp, StepPlan(0.1, 1.0), "rk4")
        assert 0.4 <= err.value.t <= 0.7

    def test_dimension_mismatch_detected(self):
        ivp = IVP(2, lambda t, y: (1.0,), 0.0, (0.0, 0.0))
        with pytest.raises(IntegrationError):
            integrate(ivp, StepPlan(0.1, 1.0), "rk4")

    def test_late_wrong_length_detected(self):
        # the RHS turns short only after the midpoint, at a later stage and step
        ivp = IVP(2, lambda t, y: (1.0, 1.0) if t <= 0.5 else (1.0,), 0.0, (0.0, 0.0))
        for method in ("euler", "rk4"):
            with pytest.raises(IntegrationError) as err:
                integrate(ivp, StepPlan(0.1, 1.0), method)
            assert 0.4 <= err.value.t <= 0.7

    def test_non_finite_final_state(self):
        # y' = y^2, y(0) = 1 blows up at t = 1
        ivp = IVP(1, lambda t, y: (y[0] * y[0],), 0.0, (1.0,))
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
                integrate(IVP(1, rhs, 0.0, (1.0,)), StepPlan(1e-3, 1000.0), method)
            assert calls < 10_000, method
            assert 1.0 < err.value.t <= 1.0 + 2e-3 * solver.FINITE_CHECK_STEPS, method

    def test_non_finite_inputs_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="t0"):
                IVP(1, EXP_IVP.rhs, bad, (1.0,))
            with pytest.raises(ValueError, match="y0"):
                IVP(2, EXP_IVP.rhs, 0.0, (1.0, bad))
            with pytest.raises(ValueError, match="t_end"):
                StepPlan(0.1, bad)
            with pytest.raises(ValueError, match="step size h"):
                StepPlan(bad, 1.0)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            integrate(EXP_IVP, StepPlan(0.1, 1.0), method="rk5")

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            StepPlan(0.0, 1.0)


class TestZeroCrossings:
    def test_sine_crossing_near_pi(self):
        # the initial node is an exact zero: the initial condition, not a crossing
        ivp = IVP(1, lambda t, y: (math.cos(t),), 0.0, (0.0,))
        traj = integrate(ivp, StepPlan(1e-3, 4.0), "rk4")
        t, _ = find_zero_crossings(traj, 0, ivp)
        assert abs(t - oracles.PI) < 1e-8

    def test_constant_positive_has_no_crossings(self):
        ivp = IVP(1, lambda t, y: (0.0,), 0.0, (1.0,))
        traj = integrate(ivp, StepPlan(0.1, 1.0), "rk4")
        assert find_zero_crossings(traj, 0, ivp) is None

    def test_zero_only_at_the_start_is_no_crossing(self):
        ivp = IVP(1, lambda t, y: (1.0,), 0.0, (0.0,))
        traj = integrate(ivp, StepPlan(0.1, 1.0), "rk4")
        assert find_zero_crossings(traj, 0, ivp) is None

    def test_exact_zero_node_counts_once(self):
        # y = 1 - t with h chosen so a node lands exactly on the zero: that
        # node and its own state, not a bracket on either side of it
        ivp = IVP(1, lambda t, y: (-1.0,), 0.0, (1.0,))
        traj = integrate(ivp, StepPlan(0.25, 2.0), "rk4")
        t, state = find_zero_crossings(traj, 0, ivp)
        assert (t, state) == (1.0, (0.0,))
        assert state is traj.states[4]

    def test_trailing_zero_node_counts(self):
        # y = 1 - t ending on its zero: the last node is the crossing
        ivp = IVP(1, lambda t, y: (-1.0,), 0.0, (1.0,))
        traj = integrate(ivp, StepPlan(0.25, 1.0), "rk4")
        assert traj.states[-1] == (0.0,)
        assert find_zero_crossings(traj, 0, ivp) == (1.0, (0.0,))


class TestStop:
    def test_run_ends_at_the_first_negative_node(self):
        # y = (cos t, -sin t): nodes of 0.1 cross pi/2 between 1.5 and 1.6
        sin_fn, _ = functions.make_sincos()
        ivp = dataclasses.replace(sin_fn.ivp, y0=(1.0, 0.0))
        full = integrate(ivp, StepPlan(0.1, 10.0))
        stopped = integrate(ivp, StepPlan(0.1, 10.0), stop=0)
        assert stopped == Trajectory(full.times[:17], full.states[:17])
        assert stopped.states[-1][0] < 0.0 < stopped.states[-2][0]
        streamed = integrate(ivp, StepPlan(0.1, 10.0), record=False, stop=0)
        assert streamed == Trajectory((0.0, full.times[16]), (ivp.y0, full.states[16]))

    def test_a_zero_node_does_not_stop_the_run(self):
        ivp = IVP(1, lambda t, y: (-1.0,), 0.0, (1.0,))
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
        ivp = IVP(1, lambda t, y: (math.cos(t),), 0.0, (0.0,))
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
        node = IVP(ivp.dim, ivp.rhs, traj.times[i], traj.states[i])
        assert integrate_final(node, StepPlan(t - traj.times[i], t)) == (t, state)

    def test_refines_on_a_step_of_the_given_method(self):
        sin_fn, _ = functions.make_sincos()
        ivp = sin_fn.ivp
        traj = integrate(ivp, StepPlan(0.5, 4.0), "taylor")
        t, state = find_zero_crossings(traj, 0, ivp, "taylor")
        assert abs(t - oracles.PI) <= 4.5e-16
        node = IVP(ivp.dim, ivp.rhs, traj.times[6], traj.states[6], series=ivp.series)
        assert integrate_final(node, StepPlan(t - 3.0, t), "taylor") == (t, state)
        # RK4 steps of up to 0.5 from the same node miss the zero by 4.7e-7
        assert 1e-7 < abs(find_zero_crossings(traj, 0, ivp)[0] - oracles.PI) < 1e-6

    def test_linear_converges_in_one_iteration(self, iterates):
        # y = 1 - t: nodes 1, 0.25, -0.5 bracket the zero, and the secant
        # through them lands on it
        ivp = IVP(1, lambda t, y: (-1.0,), 0.0, (1.0,))
        traj = integrate(ivp, StepPlan(0.75, 1.5), "rk4")
        assert find_zero_crossings(traj, 0, ivp) == (1.0, (0.0,))
        assert iterates == [1.0]

    def test_no_accepted_iterate_gives_the_nearer_node(self, iterates):
        # y = 1 - t by Euler steps of 1/3: the nodes at 1.0 and 4/3 hold 5.6e-17
        # and -1/3, and the secant through them lands on 1.0, not strictly inside
        # the bracket.  The crossing is the nearer node, not the one a step late
        ivp = IVP(1, lambda t, y: (-1.0,), 0.0, (1.0,))
        traj = integrate(ivp, StepPlan(1 / 3, 2.0), "euler", stop=0)
        assert find_zero_crossings(traj, 0, ivp, "euler") == (1.0, (5.551115123125783e-17,))
        assert iterates == []

    def test_non_finite_step_values_end_inside_the_bracket(self, iterates):
        # finite at the stages of the full step from 0 to 1e300, overflowing
        # anywhere else: the first iterate's one-step value is non-finite,
        # and its step fails as any other step does
        def rhs(t, y):
            return (-1.0 if t in (0.0, 5e299, 1e300) else -math.inf,)

        ivp = IVP(1, rhs, 0.0, (0.5e300,))
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
        traj = Trajectory(tuple(r[0] for r in rows), tuple(tuple(r[1:]) for r in rows))
        expected = [",".join(f"{v:.17g}" for v in row) for row in rows]
        assert traj.to_csv().split("\n")[1:] == [*expected, ""]
