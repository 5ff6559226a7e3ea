import re

import pytest

import oracles
from stepcalc.series import (
    LEIBNIZ,
    AlternationError,
    DiscardPolicy,
    SeriesSpec,
    leibniz_pi,
    leibniz_term,
    partial_sum,
    sum_until_discardable,
)

GEOMETRIC = SeriesSpec(lambda n: (-0.5) ** n, alternating=True)


class TestPartialSum:
    def test_leibniz_first_terms(self):
        assert partial_sum(LEIBNIZ, 1) == 4.0
        assert abs(partial_sum(LEIBNIZ, 2) - 8.0 / 3.0) < 1e-15

    def test_zero_series(self):
        spec = SeriesSpec(lambda n: 0.0)
        assert partial_sum(spec, 10**6) == 0.0

    def test_compensation_controls_rounding(self):
        # ten million terms: naive and compensated must agree closely,
        # showing rounding is controlled (not that they differ)
        naive = 0.0
        for k in range(10**7):
            naive += LEIBNIZ.term(k)
        kahan = partial_sum(LEIBNIZ, 10**7)
        assert abs(naive - kahan) < 1e-10


class TestDiscardPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscardPolicy("sideways", 1e-3)
        with pytest.raises(ValueError):
            DiscardPolicy("absolute", 0.0)
        with pytest.raises(ValueError):
            DiscardPolicy("absolute", 1e-3, max_terms=0)

    def test_leibniz_absolute_threshold(self):
        result = sum_until_discardable(LEIBNIZ, DiscardPolicy("absolute", 1e-4))
        # |term(n)| = 4/(2n+1) first drops below 1e-4 at n = 20000
        assert abs(result.terms_used - 20000) <= 1
        assert abs(result.value - oracles.PI) < 1e-4
        assert not result.hit_cap

    def test_geometric_absolute_threshold(self):
        result = sum_until_discardable(GEOMETRIC, DiscardPolicy("absolute", 1e-3))
        # 2^-n < 1e-3 first at n = 10, so terms 0..9 are summed and term 10
        # is the reported discard bound (the stated stopping rule; one less
        # than the worked example in the source material, which contradicts
        # its own rule)
        assert result.terms_used == 10
        assert result.discarded_bound == 2.0**-10
        assert abs(result.value - 2.0 / 3.0) < 1e-3

    def test_degenerate_threshold_sums_nothing(self):
        result = sum_until_discardable(LEIBNIZ, DiscardPolicy("absolute", 5.0))
        assert result.terms_used == 0
        assert result.value == 0.0
        assert result.discarded_bound == 4.0

    def test_relative_mode(self):
        result = sum_until_discardable(LEIBNIZ, DiscardPolicy("relative", 1e-5))
        assert abs(result.value - oracles.PI) < 1e-4
        assert result.discarded_bound < 1e-5 * abs(result.value)

    def test_max_terms_cap_reported_not_raised(self):
        result = sum_until_discardable(LEIBNIZ, DiscardPolicy("absolute", 1e-12, max_terms=100))
        assert result.hit_cap
        assert result.terms_used == 100

    def test_reported_bound_dominates_true_discrepancy(self):
        for spec, limit in ((LEIBNIZ, oracles.PI), (GEOMETRIC, 2.0 / 3.0)):
            for delta in (1e-2, 1e-3, 1e-4):
                result = sum_until_discardable(spec, DiscardPolicy("absolute", delta))
                assert abs(result.value - limit) <= result.discarded_bound

    def test_alternation_violation_detected(self):
        bogus = SeriesSpec(lambda n: 1.0 / (n + 1), alternating=True)
        with pytest.raises(AlternationError):
            sum_until_discardable(bogus, DiscardPolicy("absolute", 1e-6))

    def test_growing_term_detected(self):
        growing = SeriesSpec(lambda n: (-1.0) ** n * (n + 1), alternating=True)
        with pytest.raises(AlternationError, match=re.escape("|term(1)| exceeds |term(0)|")):
            sum_until_discardable(growing, DiscardPolicy("absolute", 1e-6))

    def test_non_alternating_series_rejected(self):
        spec = SeriesSpec(lambda n: 1.0 / (n + 1) ** 2)
        with pytest.raises(ValueError):
            sum_until_discardable(spec, DiscardPolicy("absolute", 1e-6))


class TestLeibnizPi:
    def test_single_term(self):
        assert leibniz_pi(1) == 4.0

    def test_million_terms_raw(self):
        err = abs(leibniz_pi(10**6) - oracles.PI)
        assert err < 1e-6
        assert err > 1e-7  # the error really is ~1/(2N)

    def test_corrected_thousand_terms(self):
        # Madhava's end correction leaves an error of order 1/N^7 (~4e-16 at
        # N = 1000), well inside both bounds
        err = abs(leibniz_pi(1000, corrected=True) - oracles.PI)
        assert err < 5.1e-7
        assert err < abs(leibniz_pi(10**6) - oracles.PI) * 0.6

    def test_corrected_error_is_seventh_order(self):
        # the sign of the correction follows the first omitted term, so odd and
        # even N both land within 1/N^7; the half-term correction misses this
        # bound from N = 2 on (its error is about 1/(2N^2))
        for n in range(1, 101):
            err = abs(leibniz_pi(n, corrected=True) - oracles.PI)
            assert err < 1 / n**7 + 1e-15, n

    def test_bracketing_by_consecutive_partial_sums(self):
        s = 0.0
        for n in range(1, 10**4 + 1):
            prev = s
            s += leibniz_term(n - 1)
            if n >= 2:
                lo, hi = min(prev, s), max(prev, s)
                assert lo <= oracles.PI <= hi

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            leibniz_pi(0)
