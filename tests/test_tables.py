import math
import random
from decimal import Decimal

import pytest

import oracles
from stepcalc import tables
from stepcalc.tables import (
    DEFAULT_H,
    ENTRY_COUNT,
    STEP_DEG,
    SineTable,
    generate_sine_table,
    linear_interp,
    quadratic_interp,
    synthetic_table,
)

RADIUS = 1e7


@pytest.fixture(scope="module")
def table():
    return generate_sine_table(RADIUS, "rk4", 1e-5)


def sine_oracle_deg(theta_deg: float) -> float:
    """High-precision Taylor sine of an angle given in degrees."""
    x = Decimal(theta_deg) * oracles.PI_DECIMAL / 180
    return float(oracles.sin_taylor(x))


class TestGeneration:
    def test_last_entry_is_the_radius(self, table):
        assert abs(table.values[-1] - RADIUS) < 5e-3

    def test_entry_six_matches_half_angle_surd(self, table):
        # sin 22.5 deg = sqrt(2 - sqrt 2)/2
        surd = oracles.sqrt_decimal(2 - oracles.sqrt_decimal(Decimal(2))) / 2
        assert abs(table.values[5] - RADIUS * float(surd)) < 5e-3

    def test_nine_decimal_places_against_series_oracle(self, table):
        for k, v in enumerate(table.values, start=1):
            assert abs(v / RADIUS - sine_oracle_deg(k * STEP_DEG)) < 5e-10

    def test_monotone_concave_difference_columns(self, table):
        d1 = table.first_diffs
        d2 = table.second_diffs
        assert all(d > 0 for d in d1)
        assert all(a > b for a, b in zip(d1, d1[1:]))
        assert all(d < 0 for d in d2)
        assert all(abs(b) > abs(a) for a, b in zip(d2, d2[1:]))

    def test_step_size_robustness(self):
        coarse = generate_sine_table(RADIUS, "rk4", 1e-4)
        fine = generate_sine_table(RADIUS, "rk4", 5e-5)
        for a, b in zip(coarse.values, fine.values):
            assert abs(a - b) < 1e-4

    def test_default_step_is_the_largest_within_the_error_budget(self):
        # budget: 1e-14 relative to R*sin; the next larger candidate step fails it
        def worst(h):
            tab = generate_sine_table(RADIUS, "rk4", h)
            return max(abs(v / RADIUS - s) / s for v, s in
                       zip(tab.values, (sine_oracle_deg(k * STEP_DEG) for k in range(1, 25))))

        assert worst(DEFAULT_H) <= 1e-14
        assert worst(1.25 * DEFAULT_H) > 1e-14

    def test_default_is_one_taylor_step_per_segment(self, monkeypatch):
        # within 4.4e-16 of R*sin; the RK4 default gives 8.7e-15
        plans = []
        integrate_final = tables.integrate_final

        def recording(ivp, plan, method):
            plans.append((plan.steps, method))
            return integrate_final(ivp, plan, method)

        monkeypatch.setattr(tables, "integrate_final", recording)
        tab = generate_sine_table(RADIUS)
        assert plans == [(1, "taylor")] * ENTRY_COUNT
        for k, v in enumerate(tab.values, start=1):
            s = sine_oracle_deg(k * STEP_DEG)
            assert abs(v / RADIUS - s) <= 1e-15 * s, k

    def test_invalid_radius(self):
        for radius in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                generate_sine_table(radius)

    def test_step_budget_covers_the_whole_quadrant(self, monkeypatch):
        # each of the 24 segments at h = 1e-8 fits MAX_STEPS, the quadrant does not:
        # refused before any segment is integrated
        def unused(*args, **kwargs):
            raise AssertionError("integrated before the step budget was checked")

        monkeypatch.setattr(tables, "integrate_final", unused)
        with pytest.raises(ValueError, match=r"step size h=1e-08 needs more than 10000000 steps"):
            generate_sine_table(RADIUS, "rk4", 1e-8)

    def test_csv_shape(self, table):
        lines = table.to_csv().strip().split("\n")
        assert lines[0] == "k,arcmin,value,diff1,diff2"
        assert len(lines) == 1 + ENTRY_COUNT
        assert lines[1].startswith("1,225,")
        assert lines[-1].endswith(",")  # no second difference on the last row


class TestQuadraticInterp:
    def test_grid_nodes_are_bit_exact(self, table):
        for k in range(1, ENTRY_COUNT + 1):
            assert quadratic_interp(table, k * STEP_DEG) == table.values[k - 1]

    def test_exact_on_quadratic_synthetic_table(self):
        tab = synthetic_table(lambda x: x * x)
        rng = random.Random(20260823)
        for _ in range(200):
            # interior intervals: the end intervals fall back to linear
            theta = rng.uniform(STEP_DEG, (ENTRY_COUNT - 1) * STEP_DEG)
            assert abs(quadratic_interp(tab, theta) - theta * theta) < 1e-9

    def test_beats_linear_by_a_decade(self, table):
        max_quad = 0.0
        max_lin = 0.0
        steps = int(round((86.0 - 4.0) / 1e-3))
        for i in range(steps + 1):
            theta = 4.0 + i * 1e-3
            true = RADIUS * math.sin(math.radians(theta))
            max_quad = max(max_quad, abs(quadratic_interp(table, theta) - true))
            max_lin = max(max_lin, abs(linear_interp(table, theta) - true))
        assert max_lin >= 10.0 * max_quad

    def test_continuous_across_interior_nodes(self, table):
        tiny = 1e-9
        for k in range(2, ENTRY_COUNT - 1):
            node = k * STEP_DEG
            v = table.values[k - 1]
            assert abs(quadratic_interp(table, node - tiny) - v) < 1e-9 * RADIUS
            assert abs(quadratic_interp(table, node + tiny) - v) < 1e-9 * RADIUS

    def test_domain(self, table):
        with pytest.raises(ValueError):
            quadratic_interp(table, -0.1)
        with pytest.raises(ValueError):
            quadratic_interp(table, 90.1)


class TestLinearInterp:
    def test_grid_nodes(self, table):
        for k in range(1, ENTRY_COUNT + 1):
            assert linear_interp(table, k * STEP_DEG) == table.values[k - 1]

    def test_chord_below_concave_function(self, table):
        theta = 0.0
        while theta <= 90.0:
            true = RADIUS * math.sin(math.radians(theta))
            assert linear_interp(table, theta) <= true + 1e-6
            theta += 0.1

    def test_exact_on_linear_synthetic_table(self):
        tab = synthetic_table(lambda x: x)
        rng = random.Random(5)
        for _ in range(100):
            theta = rng.uniform(0.0, 90.0)
            assert abs(linear_interp(tab, theta) - theta) < 1e-12


class TestEndIntervals:
    @pytest.mark.parametrize("interp", [quadratic_interp, linear_interp])
    def test_chords_in_the_end_intervals_and_the_last_node_at_90(self, table, interp):
        # midpoints (t = 0.5) of the first and the last interval, then 90 deg itself
        d = table.first_diffs
        assert interp(table, STEP_DEG / 2) == 0.5 * d[0]
        assert interp(table, 90.0 - STEP_DEG / 2) == table.values[-2] + 0.5 * d[-1]
        assert interp(table, 90.0) == table.values[-1]


class TestSineTableType:
    def test_value_at_node_zero_convention(self, table):
        assert table.value_at_node(0) == 0.0
        assert table.value_at_node(1) == table.values[0]

    @pytest.mark.parametrize("k", [-1, 25])
    def test_value_at_node_out_of_range(self, table, k):
        with pytest.raises(ValueError) as err:
            table.value_at_node(k)
        assert str(err.value) == f"node index {k} out of range"

    def test_entry_count_enforced(self):
        with pytest.raises(ValueError):
            SineTable(1.0, (1.0, 2.0))
