import math

import pytest

import oracles
from stepcalc.solver import (
    IVP,
    IntegrationError,
    StepPlan,
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
        ivp = IVP(1, lambda t, y: (math.cos(t),), 0.0, (0.0,))
        traj = integrate(ivp, StepPlan(1e-3, 4.0), "rk4")
        crossings = find_zero_crossings(traj, 0, ivp, h=1e-3)
        # the initial node is an exact zero and counts once
        assert crossings[0] == 0.0
        assert len(crossings) == 2
        assert abs(crossings[1] - oracles.PI) < 1e-8

    def test_constant_positive_has_no_crossings(self):
        ivp = IVP(1, lambda t, y: (0.0,), 0.0, (1.0,))
        traj = integrate(ivp, StepPlan(0.1, 1.0), "rk4")
        assert find_zero_crossings(traj, 0, ivp) == []

    def test_exact_zero_node_counts_once(self):
        # y = 1 - t with h chosen so a node lands exactly on the zero
        ivp = IVP(1, lambda t, y: (-1.0,), 0.0, (1.0,))
        traj = integrate(ivp, StepPlan(0.25, 2.0), "rk4")
        crossings = find_zero_crossings(traj, 0, ivp, h=0.25)
        assert crossings == [1.0]


class TestCsv:
    def test_round_trip(self):
        traj = integrate(EXP_IVP, StepPlan(0.1, 1.0), "rk4")
        lines = traj.to_csv().strip().split("\n")
        assert lines[0] == "t,y1"
        for line, t, state in zip(lines[1:], traj.times, traj.states):
            parts = [float(p) for p in line.split(",")]
            assert parts[0] == t
            assert tuple(parts[1:]) == state
