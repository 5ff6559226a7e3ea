"""R-sine tables on the historical 3 deg 45 min grid, with difference columns.

Entries are R*sin at multiples of 225 arcminutes, generated by integrating
the sin/cos ODE system across the quadrant (never by calling a host sine).
Quadratic interpolation between nodes uses the average and the difference of
the two adjacent tabular differences; a plain linear interpolation is kept
as the comparison baseline.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from . import TABLE_H as DEFAULT_H, TABLE_RADIUS as DEFAULT_RADIUS, TAYLOR_H, Record
from .solver import StepPlan, integrate_final
from .functions import make_sincos

#: Grid step in arcminutes (3 degrees 45 minutes) and in degrees.
STEP_ARCMIN = 225.0
STEP_DEG = STEP_ARCMIN / 60.0
ENTRY_COUNT = 24


class SineTable(Record):
    """24 tabulated values v_k = R*sin(k * 225'), with difference columns."""

    __slots__ = ("radius", "values")

    def _check(self):
        if len(self.values) != ENTRY_COUNT:
            raise ValueError(f"expected {ENTRY_COUNT} entries, got {len(self.values)}")

    def value_at_node(self, k: int) -> float:
        """v_k with the v_0 = 0 convention; k in 0..24."""
        if not 0 <= k <= ENTRY_COUNT:
            raise ValueError(f"node index {k} out of range")
        return 0.0 if k == 0 else self.values[k - 1]

    @property
    def first_diffs(self) -> tuple[float, ...]:
        """first_diffs[i] = v_{i+1} - v_i (the difference over interval i)."""
        prev = 0.0
        out = []
        for v in self.values:
            out.append(v - prev)
            prev = v
        return tuple(out)

    @property
    def second_diffs(self) -> tuple[float, ...]:
        """second_diffs[i] = first_diffs[i+1] - first_diffs[i], i in 0..22."""
        d = self.first_diffs
        return tuple(d[i + 1] - d[i] for i in range(len(d) - 1))

    def to_csv(self) -> str:
        """Rows "k,arcmin,value,diff1,diff2", 6 decimal places in table units."""
        d1 = self.first_diffs
        d2 = self.second_diffs
        lines = ["k,arcmin,value,diff1,diff2"]
        for k in range(1, ENTRY_COUNT + 1):
            second = f"{d2[k - 1]:.6f}" if k - 1 < len(d2) else ""
            lines.append(
                f"{k},{k * STEP_ARCMIN:.0f},{self.values[k - 1]:.6f},{d1[k - 1]:.6f},{second}"
            )
        return "\n".join(lines) + "\n"


def generate_sine_table(
    radius: float = DEFAULT_RADIUS, method: str = "taylor", h: float | None = None
) -> SineTable:
    """Tabulate R*sin by one pass of ODE integration across the quadrant.

    The sine IVP of ``make_sincos`` is segmented at the 24 grid angles, each
    segment in equal steps of at most ``h``, so every sample lands on its node
    exactly; the state carries over between segments.  ``h`` defaults by method.
    """
    h = (TAYLOR_H if method == "taylor" else DEFAULT_H) if h is None else h
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be finite and positive, got {radius!r}")
    StepPlan.divided(0.0, math.pi / 2.0, h)  # one step budget for the quadrant, before any segment
    sine = make_sincos()[0].ivp
    t, state = sine.t0, sine.y0
    values = []
    for k in range(1, ENTRY_COUNT + 1):
        target = k * math.pi / 48.0  # k * 225 arcmin in radians
        t, state = integrate_final(sine.replace(t0=t, y0=state), StepPlan.divided(t, target, h), method)
        values.append(radius * state[0])
    return SineTable(radius, tuple(values))


def synthetic_table(f: Callable[[float], float]) -> SineTable:
    """Tabulate an arbitrary function of the angle in degrees on the same grid."""
    return SineTable(1.0, tuple(f(k * STEP_DEG) for k in range(1, ENTRY_COUNT + 1)))


def _locate(theta_deg: float) -> tuple[int, float]:
    if not 0.0 <= theta_deg <= 90.0:
        raise ValueError(f"angle {theta_deg!r} outside [0, 90] degrees")
    j = int(theta_deg // STEP_DEG)
    return j, (theta_deg - j * STEP_DEG) / STEP_DEG


def quadratic_interp(table: SineTable, theta_deg: float) -> float:
    """Second-difference (quadratic) interpolation at an angle in degrees.

    With t the fraction into the interval starting at node j, dp the tabular
    difference ending at node j and dn the one starting there:

        v(j) + t * (dp + dn)/2 + t^2 * (dn - dp)/2

    Exact for quadratics.  The first interval has no preceding difference and
    the last interval falls back to linear, both by the stated end policy.
    """
    j, t = _locate(theta_deg)
    diffs = table.first_diffs
    base = table.value_at_node(j)
    if t == 0.0:
        return base
    dn = diffs[j]
    if j == 0 or j == ENTRY_COUNT - 1:
        return base + t * dn
    dp = diffs[j - 1]
    return base + t * (dp + dn) / 2.0 + t * t * (dn - dp) / 2.0


def linear_interp(table: SineTable, theta_deg: float) -> float:
    """Chordal interpolation at an angle in degrees (the comparison baseline)."""
    j, t = _locate(theta_deg)
    if t == 0.0:
        return table.value_at_node(j)
    return table.value_at_node(j) + t * table.first_diffs[j]
