import bisect
import math
import random
import re

import pytest

import oracles
from stepcalc import applications, functions, solver
from stepcalc.applications import (
    BALLISTICS_H,
    PENDULUM_H,
    BallisticsSpec,
    GeoPoint,
    PendulumSpec,
    ballistics_ivp,
    ballistics_range,
    ballistics_trajectory,
    elliptic_F,
    elliptic_K,
    loxodrome,
    mechanical_energy,
    meridional_parts,
    pendulum_ivp,
    pendulum_period_elliptic,
    pendulum_period_ode,
    rectify,
    unit_circle,
    vacuum_range,
)
from stepcalc.solver import IVP, IntegrationError, StepPlan, Trajectory, find_zero_crossings, integrate_final


@pytest.fixture
def plans(monkeypatch):
    """The start time and plan of every solver.integrate call, through
    either module's binding, recorded by a wrapper."""
    seen = []
    integrate = solver.integrate

    def recording(ivp, plan, *args, **kwargs):
        seen.append((ivp.t0, plan))
        return integrate(ivp, plan, *args, **kwargs)

    for module in (solver, applications):
        monkeypatch.setattr(module, "integrate", recording)
    return seen


@pytest.fixture
def series_calls(monkeypatch):
    """Taylor-coefficient evaluations (``series`` calls) of the pendulum and
    ballistics problems."""
    count = [0]

    def counted(make_ivp):
        def make(spec):
            ivp = make_ivp(spec)

            def series(cols, k):
                count[0] += 1
                return ivp.series(cols, k)

            return IVP(None, ivp.t0, ivp.y0, series=series)
        return make

    for name in ("pendulum_ivp", "ballistics_ivp"):
        monkeypatch.setattr(applications, name, counted(getattr(applications, name)))
    return count


def _step_to_landing(spec, traj, t_land):
    """One Taylor step to t_land from the last node of ``traj`` before it."""
    i = bisect.bisect_left(traj.times, t_land) - 1
    ivp = ballistics_ivp(spec)
    node = IVP(ivp.rhs, traj.times[i], traj.states[i], series=ivp.series)
    return integrate_final(node, StepPlan(t_land - traj.times[i], t_land), "taylor")


class TestPendulum:
    def test_rk4_and_euler_are_refused(self):
        # the ballistics IVP declares only its series, for Taylor steps
        ivp = ballistics_ivp(BallisticsSpec(1.0, 0.1, 10.0, 0.5))
        for method in ("rk4", "euler"):
            with pytest.raises(ValueError, match=f"method '{method}' needs an IVP that declares a right-hand side"):
                solver.integrate(ivp, StepPlan(0.1, 1.0), method)

    def test_rk4_on_the_declared_system_matches_taylor_steps(self):
        # the pendulum's polynomial system writes its right-hand side too: RK4
        # steps of 1e-3 agree with Taylor steps to 3.8e-11 at t = 1
        ivp = pendulum_ivp(PendulumSpec(1.0, theta0=2.5))
        rk4 = integrate_final(ivp, StepPlan(1e-3, 1.0), "rk4")[1]
        taylor = integrate_final(ivp, StepPlan(PENDULUM_H, 1.0), "taylor")[1]
        assert max(abs(a - b) for a, b in zip(rk4, taylor, strict=True)) <= 1e-10

    def test_small_angle_limit(self):
        spec = PendulumSpec(1.0, theta0=0.01)
        period = pendulum_period_ode(spec)
        small = spec.small_angle_period()
        assert abs(period - small) / small < 1e-4

    def test_ode_matches_elliptic_route(self):
        for theta0 in (0.5, 1.0, 2.0):
            spec = PendulumSpec(1.0, theta0=theta0)
            t_ode = pendulum_period_ode(spec)
            t_ell = pendulum_period_elliptic(spec)
            assert abs(t_ode - t_ell) / t_ell < 1e-6

    def test_period_grows_with_amplitude(self):
        periods = [
            pendulum_period_ode(PendulumSpec(1.0, theta0=a), h=1e-3)
            for a in (0.5, 1.0, 2.0)
        ]
        assert periods[0] < periods[1] < periods[2]

    def test_elliptic_route_refuses_where_the_modulus_rounds_to_one(self):
        # sin(theta0/2) is 1.0 from theta0 = 3.141592632516369 on; K is integrated
        # on cos^2(theta0/2), so the refusal there is the quadrature's, as it is
        # at 3.1415926325163686, where it is not 1.0
        assert math.sin(3.1415926325163686 / 2.0) < 1.0 == math.sin(3.141592632516369 / 2.0)
        for theta0 in (3.1415926325163686, 3.141592632516369, math.pi - 1e-15):
            match = rf"within 262144 steps at theta0={re.escape(repr(theta0))}, too close to pi; use --method ode$"
            with pytest.raises(ArithmeticError, match=match):
                pendulum_period_elliptic(PendulumSpec(1.0, theta0=theta0))

    @pytest.mark.parametrize("theta0", [3.14, 3.14085, 3.14086, 3.1409, 3.14127, 3.1414,
                                        3.14142, 3.1415, 3.14159265, math.nextafter(math.pi, 0.0)])
    def test_elliptic_route_near_pi_answers_or_gives_the_one_refusal(self, theta0):
        # K on k'^2 = cos^2(theta0/2): up to 3.1414 within 1e-13 of the AGM period
        # (on sin(theta0/2) it was 3.4e-12 off at 3.14 and 2.1e-10 at 3.14127, and
        # refused at 3.1409 and 3.1414); from 3.14142 on the quadrature's one refusal,
        # which names the amplitude given
        spec = PendulumSpec(1.0, theta0=theta0)
        if theta0 < 3.14142:
            exact = oracles.pendulum_period(theta0)
            assert abs(pendulum_period_elliptic(spec) - exact) <= 1e-13 * exact
        else:
            message = (f"elliptic integral did not converge to 1e-12 within 262144 steps at theta0={theta0!r}, "
                       "too close to pi; use --method ode")
            with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
                pendulum_period_elliptic(spec)

    def test_right_angle_ratio_matches_agm_oracle(self):
        spec = PendulumSpec(1.0, theta0=math.pi / 2)
        ratio = pendulum_period_elliptic(spec) / spec.small_angle_period()
        expected = 2.0 * oracles.elliptic_K_agm(math.sin(math.pi / 4)) / oracles.PI
        assert abs(ratio - expected) < 5e-5  # 4 significant figures
        assert f"{ratio:.4f}" == "1.1803"

    def test_ode_period_bits_of_the_quarter_period(self):
        # four times the first zero of theta, by Taylor steps; against
        # oracles.pendulum_period these are 2.2e-16, 2.1e-16, 0 and 5.3e-16 off
        # (RK4 at 5e-4, and at 1e-2 for 3.1, gave 5.0e-14, 3.4e-14, 2.8e-14 and 6.4e-9;
        # the host sine of theta at each node gave 3.2964951518018144, 1.3e-16 off, at 2.5)
        cases = [
            (0.25, PENDULUM_H, "2.014275008457609"),
            (1.0, PENDULUM_H, "2.1395029393375617"),
            (2.5, PENDULUM_H, "3.296495151801815"),
            (3.1, 1e-2, "6.718454384594633"),
        ]
        for theta0, h, expected in cases:
            assert repr(pendulum_period_ode(PendulumSpec(1.0, theta0=theta0), h=h)) == expected

    def test_default_step_error_budget(self):
        # the budget: no worse than the 1.4e-8 that an earlier route reached
        # (turning points at h = 1e-4, bisected to 1e-10 s), and at most 2e-12
        # up to theta0 = 3.1 (that route: 5.3e-11 there); at h = 1e-3
        # theta0 = 3.141 gives 4.9e-8
        worst = worst_to_3_1 = 0.0
        for theta0 in (0.01, 0.05, 0.5, 1.0, 2.0, 2.5, 2.8, 3.0, 3.05, 3.1,
                       3.12, 3.13, 3.135, 3.14, 3.141):
            for length in (0.5, 1.0, 2.0):
                spec = PendulumSpec(length, theta0=theta0)
                k = oracles.elliptic_K_agm(math.sin(theta0 / 2.0))
                exact = 4.0 * math.sqrt(length / spec.gravity) * k
                err = abs(pendulum_period_ode(spec) - exact) / exact
                worst = max(worst, err)
                if theta0 <= 3.1:
                    worst_to_3_1 = max(worst_to_3_1, err)
        assert worst_to_3_1 <= 2e-12
        assert worst <= 1.4e-8

    def test_near_pi_error_budget(self):
        # a quarter period builds up less error than the whole period, which
        # the turning-point route integrated (2.1e-9 at theta0 = 3.141)
        for theta0 in (3.13, 3.14, 3.141):
            for length in (0.5, 1.0, 2.0):
                spec = PendulumSpec(length, theta0=theta0)
                k = oracles.elliptic_K_agm(math.sin(theta0 / 2.0))
                exact = 4.0 * math.sqrt(length / spec.gravity) * k
                assert abs(pendulum_period_ode(spec) - exact) <= 5e-11 * exact, (theta0, length)

    def test_period_near_pi_at_the_default_step(self):
        # sin theta and cos theta are integrated with theta, so no host sine of
        # a node's theta, rounded to 4.4e-16 beside a sine of about pi - theta,
        # sets the error: the host sine gave 1.6e-13, 1.3e-12, 2.1e-11,
        # 2.4e-10, 4.0e-10 and 1.8e-9 here
        for theta0 in (3.1415, 3.14159, 3.141592, 3.1415926, 3.14159265, 3.141592653):
            exact = oracles.pendulum_period(theta0)
            assert abs(pendulum_period_ode(PendulumSpec(1.0, theta0=theta0)) - exact) <= 1e-15 * exact, theta0

    @pytest.mark.parametrize("make", [
        lambda: functions.make_exp().ivp,
        lambda: functions.make_sincos()[0].ivp,
        lambda: functions.make_jacobi(0.6)[0].ivp,
        lambda: pendulum_ivp(PendulumSpec(1.0, theta0=2.5)),
    ], ids=["exp", "sincos", "jacobi", "pendulum"])
    def test_series_keeps_nothing_between_calls(self, make):
        # every generated series: each order comes from the columns alone, so
        # asked in any order, or again, it gives the coefficients of the in-order calls
        ivp = make()
        series, cols = ivp.series, [ivp.y0]
        for k in range(12):
            cols.append(series(cols, k))
        for k in (11, 3, 0, 7, 3):
            assert series(cols[:k + 1], k) == cols[k + 1], k

    def test_the_only_host_sine_is_that_of_the_release_state(self, monkeypatch):
        calls = []
        sin = math.sin
        monkeypatch.setattr(math, "sin", lambda x: calls.append(x) or sin(x))
        pendulum_period_ode(PendulumSpec(1.0, theta0=2.5))
        assert calls == [2.5]

    def test_default_rhs_evaluations(self, series_calls):
        # 186 series calls: 6 Taylor steps up to the first node past the zero of
        # theta and the locator's steps (175 with the host sine of theta, whose
        # two components alone judged the terms).  RK4 at 5e-4 evaluated the
        # right-hand side 4296 times, and the turning-point routes over a whole
        # period 85 752 (h = 1e-4, bisection to 1e-10 s) and 17 152 (h = 5e-4)
        pendulum_period_ode(PendulumSpec(1.0, theta0=1.0))
        assert series_calls[0] == 186

    # All but (1.5, 2.0) were refused under RK4, the first four with a period
    # outside the bracket (2.5, 0.4 and 2.385, 1.15 gave 2.9975 for 3.2965 and
    # 7.344 for 3.1077 on the turning-point route), the last with no zero of
    # theta in the window.  A Taylor step is as accurate at any of these steps,
    # split where its series needs it, so a step that passes only the first
    # zero of theta is answered.  The step of 2.0 passes the first two zeros
    # (0.58 and 1.75 s) and finds the third, at 2.9 s: a period outside the bracket.
    @pytest.mark.parametrize("theta0, h", [(2.5, 1.0), (1.5, 2.0), (2.5, 0.4), (2.385, 1.15), (0.1, 1.5)])
    def test_coarse_step_is_refused_after_one_integration(self, plans, theta0, h):
        # the locator's one-step integrations also start at t = 0 when the zero
        # lies in the first step, so count the window only: start 0, step h
        spec = PendulumSpec(1.0, theta0=theta0)
        if h == 2.0:
            with pytest.raises(RuntimeError, match=re.escape(f"with step h={h!r}")):
                pendulum_period_ode(spec, h=h)
        else:
            exact = oracles.pendulum_period(theta0)
            assert abs(pendulum_period_ode(spec, h=h) - exact) <= 1e-15 * exact
        assert [(t0, plan.h) for t0, plan in plans].count((0.0, h)) == 1

    def test_step_that_splitting_cannot_rescue_is_refused(self, series_calls):
        # the series of theta at 2.5 converges within about 0.5 s of a node: a
        # step of 1000 s would need some 2^11 halves, more than the
        # TAYLOR_SPLIT_STEPS attempts a split may add, and is refused within them
        with pytest.raises(IntegrationError, match=r"step h=1000\.0 .* all its budget allows"):
            pendulum_period_ode(PendulumSpec(1.0, theta0=2.5), h=1000.0)
        assert series_calls[0] <= (1 + solver.TAYLOR_SPLIT_STEPS) * solver.TAYLOR_MAX_ORDER

    def test_period_against_the_complementary_modulus_oracle(self):
        # oracles.pendulum_period takes AGM(1, cos(theta0/2)), which holds near pi.
        # The near cases are within 4.4e-16; with the host sine of each node's
        # theta, whose ulp of 4.4e-16 is 4.4e-7 of pi - theta0 = 1e-9, they were
        # up to 9.4e-9 off
        rng = random.Random(22)
        near = [3.14, 3.141, 3.1415926, math.pi - 1e-9] + [rng.uniform(3.14, math.pi - 1e-9) for _ in range(12)]
        cases = [(rng.uniform(1e-3, 3.1), 1e-13) for _ in range(40)] + [(3.1, 1e-13)]
        cases += [(theta0, 3e-8) for theta0 in near]
        for theta0, budget in cases:
            length = rng.uniform(0.5, 2.0)
            exact = oracles.pendulum_period(theta0, length)
            assert abs(pendulum_period_ode(PendulumSpec(length, theta0=theta0)) - exact) <= budget * exact, theta0

    def test_bracket_admits_tiny_amplitudes(self):
        # near theta0 = 0 the period meets the bracket's upper end: Taylor steps
        # land 2.2e-16 below it at 1e-12, and RK4 at 5e-4 landed 5e-14 above it,
        # which the slack admits
        for theta0 in (1e-6, 1e-12, 1e-300):
            spec = PendulumSpec(1.0, theta0=theta0)
            assert pendulum_period_ode(spec) == pytest.approx(spec.small_angle_period(), rel=1e-12)
        # below the smallest normal float sin(theta0) loses precision: at 5e-324 the
        # force underflows, and 1e-315 was answered 1e-9 off; both are refused by theta0
        for theta0 in (5e-324, 1e-315):
            with pytest.raises(ValueError, match=f"theta0={theta0!r} is subnormal"):
                pendulum_period_ode(PendulumSpec(1.0, theta0=theta0))

    def test_window_bound_is_a_tight_upper_bound(self):
        for theta0 in (1e-3, 0.5, 2.5, 3.0, 3.14159, math.pi - 1e-12):
            spec = PendulumSpec(1.0, theta0=theta0)
            period = spec.small_angle_period() / oracles.agm(1.0, math.cos(theta0 / 2.0))
            bound = applications._pendulum_period_bound(spec)
            assert period <= bound <= 1.001 * period, theta0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PendulumSpec(0.0)
        with pytest.raises(ValueError):
            PendulumSpec(1.0, theta0=math.pi)


class TestEllipticIntegrals:
    def test_complete_at_zero_modulus(self):
        assert abs(elliptic_K(0.0) - oracles.PI / 2) < 1e-9

    def test_complete_is_incomplete_at_right_angle(self):
        k = 0.6
        assert abs(elliptic_F(math.pi / 2, k) - elliptic_K(k)) < 1e-9

    def test_against_agm_oracle(self):
        assert abs(elliptic_K(0.8) - oracles.elliptic_K_agm(0.8)) < 1e-8

    def test_default_doubling_against_agm_with_few_steps(self, plans):
        old_steps = 157080  # one pass at the former default h = 1e-5
        for k in (0.0, 0.5, 0.8, 0.95, 0.98, 0.9975, 0.999, 0.9999):
            plans.clear()
            assert abs(elliptic_K(k) - oracles.elliptic_K_agm(k)) <= 1e-13, k
            steps = [p.steps for _, p in plans]
            assert steps == [8 * 2**i for i in range(len(steps))], k
            assert sum(steps) <= old_steps / (100 if k <= 0.98 else 10), k

    def test_explicit_step_is_one_equal_division_pass(self, plans):
        value = elliptic_F(1.0, 0.5, h=0.3)
        assert [(p.steps, p.h, p.t_end) for _, p in plans] == [(4, 0.25, 1.0)]
        assert abs(value - elliptic_F(1.0, 0.5)) < 1e-4

    def test_domain(self):
        with pytest.raises(ValueError):
            elliptic_K(1.0)
        with pytest.raises(ValueError):
            elliptic_F(2.0, 0.5)


class TestBallistics:
    def test_vacuum_closed_form(self):
        spec = BallisticsSpec(0.16, 0.0, 30.0, 0.7)
        expected = vacuum_range(spec)
        assert abs(ballistics_range(spec) - expected) / expected < 1e-6

    def test_drag_shortens_the_throw(self):
        vac = BallisticsSpec(0.16, 0.0, 40.0, math.radians(40))
        drag = BallisticsSpec(0.16, 0.005, 40.0, math.radians(40))
        assert ballistics_range(drag) < vacuum_range(vac)

    def test_heavier_ball_flies_further(self):
        ranges = [
            ballistics_range(BallisticsSpec(m, 0.005, 40.0, math.radians(40)))
            for m in (0.06, 0.16, 0.5, 1.0)
        ]
        assert all(a < b for a, b in zip(ranges, ranges[1:]))

    def test_energy_never_increases_under_drag(self):
        spec = BallisticsSpec(0.16, 0.005, 40.0, math.radians(40))
        traj, _ = ballistics_trajectory(spec, h=1e-3)
        energies = [mechanical_energy(spec, s) for s in traj.states]
        for before, after in zip(energies, energies[1:]):
            assert after <= before + 1e-9 * energies[0]

    def test_vacuum_default_step_error_budget(self):
        for v0, alpha in ((40.0, 40), (10.0, 20), (60.0, 75), (5.0, 80)):
            spec = BallisticsSpec(0.16, 0.0, v0, math.radians(alpha))
            expected = vacuum_range(spec)
            assert abs(ballistics_range(spec) - expected) / expected <= 1e-12, (v0, alpha)

    def test_drag_default_step_error_budget(self):
        # references: the range at h = 1e-5, which agrees with h = 2e-5 to
        # 1.2e-14; each budget sits just under the error that h = 1e-3 gave
        # when the landing time was bisected to 1e-10 s (5.4e-13 and 8.3e-11)
        for drag, reference, budget in ((0.005, 42.409292735704476, 5.3e-13),
                                        (0.05, 7.718306150149042, 8.2e-11)):
            spec = BallisticsSpec(0.16, drag, 40.0, math.radians(40))
            assert abs(ballistics_range(spec) - reference) / reference <= budget, drag

    def test_range_against_the_drag_oracle(self):
        # oracles.drag_range integrates on its own, by RK4 in a rescaled time, and
        # agrees with its own step of a quarter to 1.5e-12; the budget leaves room
        # for that.  RK4 at the old default step of 1e-3 was up to 5.8 % off on
        # these specs, and more than 1e-9 off on seven of them
        rng = random.Random(2210)
        specs = [BallisticsSpec(1.0, 10000.0, 0.1, math.radians(10))]
        for _ in range(15):
            mass, v0 = 10 ** rng.uniform(-2, 1), 10 ** rng.uniform(-1, 2)
            drag = 10 ** rng.uniform(-3, 3) * mass / v0  # drag/mass * v0 from 1e-3 to 1e3
            specs.append(BallisticsSpec(mass, drag, v0, math.radians(rng.uniform(1, 89))))
        specs.append(BallisticsSpec(0.05, 1000.0 * 0.05 / 20.0, 20.0, math.radians(60)))
        for spec in specs:
            exact = oracles.drag_range(spec.mass, spec.drag, spec.v0, spec.alpha)
            assert abs(ballistics_range(spec) - exact) <= 1e-11 * exact, spec

    def test_near_vertical_range_against_the_drag_oracle(self):
        # the speed's branch points lie vx/g off the apex, 2.9e-5 s at 89.999
        # degrees below, so near the apex the terms of the small vx fall off
        # slowly.  Judged against max|y|, its tail was discarded unconverged: a
        # step across the apex summed the branch that does not turn (3e-5 off
        # at 89.9999), and Newton steps onto the apex left 7.8e-12 here.
        # Judged against vx's own size, the steps and the apex locator leave
        # 5.5e-15 of the oracle at ds = 0.005 (1.3e-14 over 40 specs drawn
        # alike from another seed); the bound stays as it was.  RK4 at the old
        # default step of 1e-3 was up to 6.2e-7 off on these specs
        rng = random.Random(2211)
        specs = [BallisticsSpec(0.16, 0.005, 40.0, math.radians(alpha)) for alpha in (89.999, 89.9999)]
        for _ in range(10):
            mass, v0 = 10 ** rng.uniform(-2, 1), 10 ** rng.uniform(-1, 2)
            drag = 10 ** rng.uniform(-3, 0) * mass / v0  # drag/mass * v0 from 1e-3 to 1
            specs.append(BallisticsSpec(mass, drag, v0, math.radians(90.0 - 10 ** rng.uniform(-4, -1))))
        for spec in specs:
            exact = oracles.drag_range(spec.mass, spec.drag, spec.v0, spec.alpha)
            assert abs(ballistics_range(spec) - exact) <= 5e-11 * exact, spec

    @pytest.mark.parametrize("alpha", [89.9999, 89.9999999, 89.99999999999])
    @pytest.mark.parametrize("mass, drag, v0", [(0.16, 0.005, 40.0), (0.01, 1e-4, 1.0), (1.0, 0.01, 40.0),
                                                (1.0, 10.0, 1.0)])
    def test_near_vertical_shots_against_the_fine_drag_oracle(self, mass, drag, v0, alpha):
        # the shots of the CLI's near-vertical test.  With each Taylor term
        # judged against the whole state, and Newton steps onto the apex, these
        # were up to 2.0e-7 off (at 0.16, 0.005, 40 and 89.99999999999 degrees)
        spec = BallisticsSpec(mass, drag, v0, math.radians(alpha))
        exact = oracles.drag_range(mass, drag, v0, spec.alpha, ds=0.005)
        assert abs(ballistics_range(spec) - exact) <= 1e-12 * exact

    def test_default_rhs_evaluations(self, series_calls):
        # 240 series calls: Taylor steps to the first node past the apex (108),
        # the apex locator's one step from the node before (4), the steps on to
        # the first node below ground (108) and the landing locator's (20).  Newton
        # steps onto the apex took 242.  RK4 at 1e-3 evaluated the right-hand side
        # 21 000 times over a window two steps past the vacuum flight; a window
        # to 1.5x the vacuum time plus 1 s with bisection to 1e-10 s and a second
        # integration from launch took 56 536
        ballistics_range(BallisticsSpec(0.16, 0.0, 40.0, math.radians(40)))
        assert series_calls[0] == 240

    def test_range_integrates_once_from_launch(self, plans):
        spec = BallisticsSpec(0.16, 0.005, 40.0, math.radians(40))
        ballistics_range(spec)
        starts = [t0 for t0, _ in plans]
        assert starts.count(0.0) == 1
        assert len(starts) > 1  # the locator's steps start at grid nodes

    def test_landing_state_is_one_step_from_the_node_before(self):
        spec = BallisticsSpec(0.16, 0.05, 40.0, math.radians(40))
        traj, state = ballistics_trajectory(spec)
        t, located = find_zero_crossings(traj, 1, ballistics_ivp(spec), "taylor")
        assert located == state
        assert abs(state[1]) < 1e-12  # the height at the landing
        assert _step_to_landing(spec, traj, t) == (t, state)

    def test_range_matches_a_step_to_the_landing_time(self):
        # the range is x of the locator's state, bit for bit what one more
        # Taylor step from the node before the landing time gives (RK4 steps of
        # 0.5 overflowed under heavy drag here; Taylor steps answer every spec)
        rng = random.Random(19)
        for _ in range(40):
            spec = BallisticsSpec(10 ** rng.uniform(-1, 1), rng.choice([0.0, 0.005, 0.05, 1.0]),
                                  10 ** rng.uniform(-1, 2), math.radians(rng.uniform(1, 89)))
            h = rng.choice([BALLISTICS_H, 0.01, 0.1, 0.5])
            traj, _ = ballistics_trajectory(spec, h)
            t_land = find_zero_crossings(traj, 1, ballistics_ivp(spec), "taylor")[0]
            assert ballistics_range(spec, h) == _step_to_landing(spec, traj, t_land)[1][0], (spec, h)

    def test_landing_on_a_node_is_that_node(self):
        # sin(alpha) = 0.5 and g = 8: every height is exact, 0 at t = 1
        spec = BallisticsSpec(1.0, 0.0, 8.0, math.asin(0.5), gravity=8.0)
        traj, state = ballistics_trajectory(spec, 0.25)
        assert traj.times[4] == 1.0 and traj.states[4][1] == 0.0
        assert [v.hex() for v in state] == [v.hex() for v in traj.states[4]]
        assert ballistics_range(spec, 0.25) == state[0]

    def test_window_ends_two_steps_past_the_vacuum_flight(self):
        # the window is an upper bound: the run stops at the first node below ground
        for drag in (0.0, 0.005):
            spec = BallisticsSpec(0.16, drag, 40.0, math.radians(40))
            traj, _ = ballistics_trajectory(spec)
            vacuum_time = 2.0 * spec.v0 * math.sin(spec.alpha) / spec.gravity
            assert traj.times[-1] < vacuum_time + 2.0 * BALLISTICS_H
            assert traj.states[-1][1] < 0.0 < min(state[1] for state in traj.states[1:-1])

    def test_a_fall_that_never_lands_is_refused(self, monkeypatch):
        # drag only shortens the flight, so no run the package makes ends above
        # ground; a fall run whose nodes below ground are dropped stands in for one
        def airborne(ivp, plan, method, stop=None):
            traj = solver.integrate(ivp, plan, method, stop=stop)
            if stop != 1:
                return traj
            kept = [(t, *state) for t, state in zip(traj.times, traj.states) if state[1] >= 0.0]
            return Trajectory(sum(kept, ()), traj.dim)

        monkeypatch.setattr(applications, "integrate", airborne)
        with pytest.raises(RuntimeError, match="projectile never landed within the window"):
            ballistics_trajectory(BallisticsSpec(0.16, 0.005, 40.0, math.radians(40)))

    @pytest.mark.parametrize("v0", [1e-2, 1e-3, 1e-5, 1e-150])
    def test_flight_shorter_than_one_step_lands(self, v0):
        # RK4 is exact on the vacuum parabola
        spec = BallisticsSpec(1.0, 0.0, v0, math.radians(40))
        expected = vacuum_range(spec)
        assert abs(ballistics_range(spec) - expected) <= 1e-12 * expected

    def test_range_that_underflows_is_refused(self):
        spec = BallisticsSpec(1.0, 0.0, 1e-300, math.radians(40))
        assert vacuum_range(spec) == 0.0
        with pytest.raises(RuntimeError, match="the vacuum range is 0.0"):
            ballistics_range(spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BallisticsSpec(-1.0, 0.0, 10.0, 0.5)
        with pytest.raises(ValueError):
            BallisticsSpec(1.0, 0.0, 10.0, 2.0)


class TestRectification:
    def test_inscribed_square(self):
        assert abs(rectify(unit_circle, 0.0, 2 * math.pi, 4) - 4 * math.sqrt(2)) < 1e-9

    def test_inscribed_hexagon(self):
        assert abs(rectify(unit_circle, 0.0, 2 * math.pi, 6) - 6.0) < 1e-9

    def test_dyadic_refinement_is_monotone_to_two_pi(self):
        previous = 0.0
        for p in range(4, 21):
            length = rectify(unit_circle, 0.0, 2 * math.pi, 2**p)
            assert length > previous
            previous = length
        assert abs(previous - 2 * oracles.PI) < 1e-8

    def test_segment_count_validated(self):
        with pytest.raises(ValueError):
            rectify(unit_circle, 0.0, 1.0, 0)


class TestLoxodrome:
    def test_meridian_sailing(self):
        p1 = GeoPoint(0.0, 0.0)
        p2 = GeoPoint(math.radians(10), 0.0)
        bearing, distance = loxodrome(p1, p2, radius=1.0)
        assert bearing == 0.0
        assert abs(distance - math.radians(10)) < 1e-10 * distance

    def test_parallel_sailing(self):
        lat = math.radians(60)
        p1 = GeoPoint(lat, 0.0)
        p2 = GeoPoint(lat, math.radians(10))
        bearing, distance = loxodrome(p1, p2, radius=1.0)
        assert bearing == math.pi / 2
        assert abs(distance - math.radians(10) / 2) < 1e-10 * distance

    def test_diagonal_bearing_against_closed_form(self):
        p1 = GeoPoint(0.0, 0.0)
        p2 = GeoPoint(math.radians(45), math.radians(45))
        bearing, _ = loxodrome(p1, p2)
        expected = math.atan2(math.pi / 4, math.log(math.tan(3 * math.pi / 8)))
        assert abs(bearing - expected) < 1e-9

    def test_swap_reverses_bearing_and_keeps_distance(self):
        p1 = GeoPoint(math.radians(10), math.radians(-30))
        p2 = GeoPoint(math.radians(55), math.radians(20))
        b12, d12 = loxodrome(p1, p2)
        b21, d21 = loxodrome(p2, p1)
        diff = (b21 - b12) % (2 * math.pi)
        assert abs(diff - math.pi) < 1e-9
        assert abs(d12 - d21) <= 1e-10 * d12

    def test_meridional_parts_match_closed_form(self):
        for phi in (0.2, 0.5, 0.9, 1.2):
            expected = math.log(math.tan(math.pi / 4 + phi / 2))
            assert abs(meridional_parts(phi, h=1e-5) - expected) < 1e-8

    def test_poles_rejected(self):
        with pytest.raises(ValueError):
            GeoPoint(math.pi / 2, 0.0)

    def test_half_turn_west_is_a_half_turn_east(self):
        # a longitude difference of exactly -pi wraps to +pi
        west, east = GeoPoint(0.2, math.pi), GeoPoint(0.2, -math.pi)
        for p2 in (GeoPoint(0.3, 0.0), GeoPoint(0.2, 0.0)):
            assert loxodrome(west, p2) == loxodrome(east, p2)
            assert loxodrome(west, p2)[0] > 0.0
        assert loxodrome(west, GeoPoint(0.2, 0.0))[0] == math.pi / 2

    def test_coincident_points(self):
        p = GeoPoint(0.3, 0.4)
        assert loxodrome(p, p) == (0.0, 0.0)

    def test_nearly_equal_latitudes_against_the_atanh_oracle(self):
        # from adjacent doubles up to 0.1 degree apart, where two meridional
        # parts cancel and the cosine of a bearing near pi/2 has no digits
        rng = random.Random(19)
        for i in range(40):
            lat1 = math.radians(rng.uniform(-79.9, 79.9))
            delta = math.radians(rng.choice([-1, 1]) * 10 ** rng.uniform(-13, -1))
            lat2 = math.nextafter(lat1, lat1 + delta) if i % 8 == 0 else lat1 + delta
            dlon = math.radians(rng.uniform(-179, 179))
            bearing, distance = loxodrome(GeoPoint(lat1, 0.0), GeoPoint(lat2, dlon), radius=1.0)
            expected_bearing, expected_distance = oracles.loxodrome(lat1, lat2, dlon)
            assert abs(bearing - expected_bearing) <= 1e-10 * abs(expected_bearing), (lat1, lat2, dlon)
            assert abs(distance - expected_distance) <= 1e-10 * expected_distance, (lat1, lat2, dlon)

    def test_one_integration_within_1e_13_of_the_atanh_oracle(self):
        # a third of the pairs lie 1e-13 to 0.1 degree apart, a third in the band
        # 1.6e-6..6.3e-6 rad around the retired switch at 3e-6 rad, where the
        # difference of two integrated meridional parts was 2.4e-11 off, and a third wide
        rng = random.Random(20)
        for i in range(600):
            lat1 = math.radians(rng.uniform(-80.0, 80.0))
            sign = rng.choice([-1, 1])
            delta = (math.radians(sign * 10 ** rng.uniform(-13, -1)), sign * rng.uniform(1.6e-6, 6.3e-6),
                     math.radians(rng.uniform(-80.0, 80.0)) - lat1)[i % 3]
            lat2 = lat1 + delta if abs(lat1 + delta) <= math.radians(80.0) else lat1 - delta
            dlon = math.radians(rng.uniform(-179.0, 179.0))
            bearing, distance = loxodrome(GeoPoint(lat1, 0.0), GeoPoint(lat2, dlon), radius=1.0)
            expected_bearing, expected_distance = oracles.loxodrome(lat1, lat2, dlon)
            assert abs(bearing - expected_bearing) <= 1e-13 * abs(expected_bearing), (lat1, lat2, dlon)
            assert abs(distance - expected_distance) <= 1e-13 * expected_distance, (lat1, lat2, dlon)

    def test_integrates_once_between_the_latitudes(self, monkeypatch):
        runs = []
        integrate = functions.integrate

        def recording(ivp, plan, *args, **kwargs):
            runs.append((ivp.t0, plan.t_end, plan.h))
            return integrate(ivp, plan, *args, **kwargs)

        monkeypatch.setattr(functions, "integrate", recording)
        for lat1, lat2 in ((0.3, 0.3 + 2e-6), (0.3, 0.9), (0.9, -0.4)):
            runs.clear()
            loxodrome(GeoPoint(lat1, 0.0), GeoPoint(lat2, 1.0), h=1e-3)
            assert runs == [(lat1, lat2, 1e-3)], (lat1, lat2)

    @pytest.mark.parametrize("far", [1.5707, -1.5707])
    def test_latitude_near_a_pole_is_refused_at_either_end(self, far):
        # 1.5707 rad is 0.96 steps of MERIDIONAL_H from the pole; the message names it
        for p1, p2 in ((GeoPoint(far, 0.0), GeoPoint(0.2, 1.0)), (GeoPoint(0.2, 0.0), GeoPoint(far, 1.0))):
            with pytest.raises(ValueError, match=rf"x={far!r} lies closer than 16 steps of h=0.0001"):
                loxodrome(p1, p2)

    def test_subnormal_meridional_parts_difference_is_refused(self):
        for lat1, lat2 in ((0.0, 1e-309), (3e-308, 3.001e-308), (1e-309, 0.0)):
            with pytest.raises(ArithmeticError, match="subnormal"):
                loxodrome(GeoPoint(lat1, 0.0), GeoPoint(lat2, 1.0))


def test_subnormal_answers_are_refused_and_zero_is_an_answer():
    # printed before: F = -1.2e-322 (the nodes overshot phi), a range 0.3 % above v0^2/g and a distance 2.3 % below
    # R |dlon| cos(lat)
    with pytest.raises(ArithmeticError, match=r"^F\(1e-320, k=0\.5\) = .* is subnormal"):
        elliptic_F(1e-320, 0.5)
    with pytest.raises(ArithmeticError, match=r"^landing x = .* is subnormal"):
        ballistics_trajectory(BallisticsSpec(1.0, 0.0, 1e-160, math.pi / 4))
    here = GeoPoint(math.radians(10.0), 0.0)
    with pytest.raises(ArithmeticError, match=r"^distance = .* is subnormal"):
        loxodrome(here, GeoPoint(here.lat, math.radians(1e-320)), 1.0)
    assert elliptic_F(0.0, 0.5) == 0.0 and loxodrome(here, here) == (0.0, 0.0)
