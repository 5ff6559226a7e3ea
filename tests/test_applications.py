import math
import re

import pytest

import oracles
from stepcalc import applications, solver
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
    pendulum_period_elliptic,
    pendulum_period_ode,
    rectify,
    unit_circle,
    vacuum_range,
)
from stepcalc.solver import IVP


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
def rhs_evals(monkeypatch):
    """Right-hand-side evaluations of the pendulum and ballistics problems."""
    count = [0]

    def counted(make_ivp):
        def make(spec):
            ivp = make_ivp(spec)

            def rhs(t, y):
                count[0] += 1
                return ivp.rhs(t, y)

            return IVP(ivp.dim, rhs, ivp.t0, ivp.y0)
        return make

    for name in ("pendulum_ivp", "ballistics_ivp"):
        monkeypatch.setattr(applications, name, counted(getattr(applications, name)))
    return count


class TestPendulum:
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

    def test_right_angle_ratio_matches_agm_oracle(self):
        spec = PendulumSpec(1.0, theta0=math.pi / 2)
        ratio = pendulum_period_elliptic(spec) / spec.small_angle_period()
        expected = 2.0 * oracles.elliptic_K_agm(math.sin(math.pi / 4)) / oracles.PI
        assert abs(ratio - expected) < 5e-5  # 4 significant figures
        assert f"{ratio:.4f}" == "1.1803"

    def test_ode_period_bits_unchanged_by_the_window(self):
        # values of the fixed 3*T0 window that was widened by doubling; the
        # window now ends just past an upper bound on the period, and the
        # grid nodes before its end are the same
        cases = [
            (0.25, PENDULUM_H, "2.0142750084577066"),
            (1.0, PENDULUM_H, "2.139502939337634"),
            (2.5, PENDULUM_H, "3.296495151801897"),
            (3.1, 1e-2, "6.718452346970902"),  # beyond 3*T0
        ]
        for theta0, h, expected in cases:
            assert repr(pendulum_period_ode(PendulumSpec(1.0, theta0=theta0), h=h)) == expected

    def test_default_step_error_budget(self):
        # the budget: no worse than the 1.4e-8 of h = 1e-4 with turning points
        # bisected to 1e-10 s, and at most 2e-12 up to theta0 = 3.1 (5.3e-11
        # there at h = 1e-4); at h = 1e-3 theta0 = 3.141 gives 4.9e-8
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

    def test_default_rhs_evaluations(self, rhs_evals):
        # 85 752 at h = 1e-4 with bisection to 1e-10 s
        pendulum_period_ode(PendulumSpec(1.0, theta0=1.0))
        assert rhs_evals[0] == 17152

    @pytest.mark.parametrize("theta0, h", [(2.5, 1.0), (1.5, 2.0)])
    def test_coarse_step_is_refused_after_one_integration(self, plans, theta0, h):
        # too coarse for the period: fewer than two turning points in the window
        with pytest.raises(RuntimeError, match=re.escape(f"with step h={h!r}")):
            pendulum_period_ode(PendulumSpec(1.0, theta0=theta0), h=h)
        assert [t0 for t0, _ in plans].count(0.0) == 1

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
        traj = ballistics_trajectory(spec, h=1e-3)
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
        # 1.2e-14; each budget sits just under the error of h = 1e-3 with the
        # landing time bisected to 1e-10 s (5.4e-13 and 8.3e-11)
        for drag, reference, budget in ((0.005, 42.409292735704476, 5.3e-13),
                                        (0.05, 7.718306150149042, 8.2e-11)):
            spec = BallisticsSpec(0.16, drag, 40.0, math.radians(40))
            assert abs(ballistics_range(spec) - reference) / reference <= budget, drag

    def test_default_rhs_evaluations(self, rhs_evals):
        # 56 536 with a window to 1.5x the vacuum time plus 1 s, bisection to
        # 1e-10 s and a second integration from launch to the landing time
        ballistics_range(BallisticsSpec(0.16, 0.0, 40.0, math.radians(40)))
        assert rhs_evals[0] == 21004

    def test_range_integrates_once_from_launch(self, plans):
        spec = BallisticsSpec(0.16, 0.005, 40.0, math.radians(40))
        ballistics_range(spec)
        starts = [t0 for t0, _ in plans]
        assert starts.count(0.0) == 1
        assert len(starts) > 1  # the locator's steps start at grid nodes

    def test_window_ends_two_steps_past_the_vacuum_flight(self):
        spec = BallisticsSpec(0.16, 0.0, 40.0, math.radians(40))
        traj = ballistics_trajectory(spec)
        vacuum_time = 2.0 * spec.v0 * math.sin(spec.alpha) / spec.gravity
        assert traj.times[-1] == vacuum_time + 2.0 * BALLISTICS_H
        assert traj.states[-1][1] < 0.0 < traj.states[-4][1]

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
