"""Infinite series as explicit partial sums with a context-supplied discard rule.

Stopping a sum means neglecting a small tail; here the neglect is explicit:
a discard policy names the threshold, and the result reports exactly how
much was discarded.  For alternating series with shrinking terms the first
omitted term bounds the whole tail, so the reported bound is honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

DEFAULT_MAX_TERMS = 10**8  # cap on the terms a discard policy sums


class AlternationError(ValueError):
    """The series violated its asserted alternating/shrinking structure."""


@dataclass(frozen=True)
class SeriesSpec:
    """A series given by its term function; ``alternating`` is asserted by the
    caller and spot-checked during summation."""

    term: Callable[[int], float]
    alternating: bool = False


@dataclass(frozen=True)
class DiscardPolicy:
    """When a term is small enough to neglect: an absolute or relative
    threshold, plus a hard cap on the number of terms."""

    mode: str  # "absolute" or "relative"
    threshold: float
    max_terms: int = DEFAULT_MAX_TERMS

    def __post_init__(self):
        if self.mode not in ("absolute", "relative"):
            raise ValueError(f"mode must be 'absolute' or 'relative', got {self.mode!r}")
        if not self.threshold > 0:
            raise ValueError("threshold must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


@dataclass(frozen=True)
class DiscardSum:
    value: float
    terms_used: int
    discarded_bound: float
    hit_cap: bool = False


def partial_sum(spec: SeriesSpec, n: int, compensated: bool = True) -> float:
    """Sum of the first ``n`` terms, left to right.

    Compensated (Kahan) accumulation by default, so multi-million-term sums
    are not polluted by rounding; ``compensated=False`` is the naive loop.
    """
    term = spec.term
    if not compensated:
        s = 0.0
        for k in range(n):
            s += term(k)
        return s
    s = 0.0
    c = 0.0
    for k in range(n):
        y = term(k) - c
        t = s + y
        c = (t - s) - y
        s = t
    return s


def sum_until_discardable(spec: SeriesSpec, policy: DiscardPolicy) -> DiscardSum:
    """Sum until the next term falls below the discard threshold.

    Stops before adding the first term whose magnitude is below the threshold
    (absolute, or relative to the running sum); that magnitude bounds the
    discarded tail for an alternating series with shrinking terms.  Hitting
    ``max_terms`` first is reported in the result, not raised.
    """
    if not spec.alternating:
        raise ValueError("sum_until_discardable requires an alternating series "
                         "(the first omitted term must bound the tail)")
    term = spec.term
    s = 0.0
    c = 0.0
    prev: float | None = None
    n = 0
    while True:
        a = term(n)
        cutoff = policy.threshold if policy.mode == "absolute" else policy.threshold * abs(s)
        if abs(a) < cutoff:
            return DiscardSum(s, n, abs(a))
        if n >= policy.max_terms:
            return DiscardSum(s, n, abs(a), hit_cap=True)
        if prev is not None:
            if a * prev > 0.0:
                raise AlternationError(f"terms {n - 1} and {n} have the same sign")
            if abs(a) > abs(prev):
                raise AlternationError(f"|term({n})| exceeds |term({n - 1})|")
        y = a - c
        t = s + y
        c = (t - s) - y
        s = t
        prev = a
        n += 1


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
