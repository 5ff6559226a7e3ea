"""Infinite series as explicit partial sums with a context-supplied discard rule.

Stopping a sum means neglecting a small tail; here the neglect is explicit:
a discard policy names the threshold, and the result reports exactly how
much was discarded.  For alternating series with shrinking terms the first
omitted term bounds the whole tail, so the reported bound is honest.
"""

from __future__ import annotations

import math

from . import DEFAULT_MAX_TERMS, Record


class AlternationError(ValueError):
    """The series violated its asserted alternating/shrinking structure."""


class SeriesSpec(Record):
    """A series given by its term function; ``alternating`` is asserted by the
    caller and checked at every term during summation."""

    __slots__ = ("term", "alternating")
    _defaults = {"alternating": False}


class DiscardPolicy(Record):
    """When a term is small enough to neglect: an absolute or relative
    threshold, plus a hard cap on the number of terms."""

    __slots__ = ("mode", "threshold", "max_terms")
    _defaults = {"max_terms": DEFAULT_MAX_TERMS}

    def _check(self):
        if self.mode not in ("absolute", "relative"):
            raise ValueError(f"mode must be 'absolute' or 'relative', got {self.mode!r}")
        if not self.threshold > 0:
            raise ValueError("threshold must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


class DiscardSum(Record):
    """What ``sum_until_discardable`` returns: the sum of ``terms_used`` terms,
    the magnitude of the first term left out (which bounds the discarded tail of
    an alternating series), and whether ``max_terms`` stopped the sum."""

    __slots__ = ("value", "terms_used", "discarded_bound", "hit_cap")
    _defaults = {"hit_cap": False}


def partial_sum(spec: SeriesSpec, n: int) -> float:
    """Sum of the first ``n`` terms, correctly rounded by ``math.fsum``, so
    multi-million-term sums are not polluted by rounding."""
    return math.fsum(map(spec.term, range(n)))


def sum_until_discardable(spec: SeriesSpec, policy: DiscardPolicy) -> DiscardSum:
    """Sum until the next term falls below the discard threshold.

    Stops before adding the first term whose magnitude is below the threshold
    (absolute, or relative to the running sum); that magnitude bounds the
    discarded tail for an alternating series with shrinking terms.  The kept
    terms are summed by ``math.fsum``.  Hitting ``max_terms`` first is
    reported, not raised.
    """
    if not spec.alternating:
        raise ValueError("sum_until_discardable requires an alternating series "
                         "(the first omitted term must bound the tail)")
    term, threshold, relative = spec.term, policy.threshold, policy.mode == "relative"
    n, a, hit_cap = 0, 0.0, False

    def kept():
        """The terms before the first one left out, each checked against the one before it."""
        nonlocal n, a, hit_cap
        s = prev = 0.0  # s: the plain running sum, read by the relative cutoff alone
        while True:
            a = term(n)
            if abs(a) < (threshold * abs(s) if relative else threshold):
                return
            if n >= policy.max_terms:
                hit_cap = True
                return
            if n:
                if a * prev > 0.0:
                    raise AlternationError(f"terms {n - 1} and {n} have the same sign")
                if abs(a) > abs(prev):
                    raise AlternationError(f"|term({n})| exceeds |term({n - 1})|")
            yield a
            s += a
            prev = a
            n += 1

    value = math.fsum(kept())
    return DiscardSum(value, n, abs(a), hit_cap)


def leibniz_term(n: int) -> float:
    """n-th term of the alternating quarter-circle series, scaled by 4."""
    return (4.0 if n % 2 == 0 else -4.0) / (2 * n + 1)


LEIBNIZ = SeriesSpec(leibniz_term, alternating=True)


def leibniz_pi(n: int, corrected: bool = False) -> float:
    """Approximate pi by the alternating series 4(1 - 1/3 + 1/5 - ...).

    With ``corrected=True``, the sum of the first n terms gets Madhava's
    third-order end correction (Yuktibhasa): it adds +-f3(n), where, in the
    series' x4 scaling, f3(n) = 4(n^2 + 1) / (4n^3 + 5n) and the sign is
    that of the first omitted term, ``leibniz_term(n)``.  The stated
    correction replaces the neglected tail up to an error of order 1/n^7
    (about 4e-16 at n = 1000, where the raw sum is off by 1e-3).
    """
    if n < 1:
        raise ValueError("n must be positive")
    s = partial_sum(LEIBNIZ, n)
    if corrected:
        s += math.copysign(4 * (n * n + 1) / (4 * n**3 + 5 * n), leibniz_term(n))
    return s
