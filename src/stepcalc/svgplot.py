"""Minimal static SVG line plots, no plotting dependency.

One polyline per series, axes with linear ticks, deterministic output.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence

from . import DEFAULT_HEIGHT, DEFAULT_WIDTH, Record

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_MARGIN_LEFT = 60
_MARGIN_RIGHT = 20
_MARGIN_TOP = 20
_MARGIN_BOTTOM = 45
_TICKS = 5


class Series(Record):
    """One named polyline of ``line_plot``."""

    __slots__ = ("name", "xs", "ys")


def _bounds(values) -> tuple[float, float, float]:
    """The low end and the span of the axis range of ``values``, at the scale they are plotted at, and that scale:
    1, or 1/2 where the span overflows (the range's ends are then far from 0 and halve exactly).  A constant
    range is widened by 1 on either side, or by an ulp where 1 is lost (|value| >= 2^53), within the doubles."""
    lo = min(values)
    hi = max(values)
    if lo == hi:
        width = max(1.0, math.ulp(lo))
        lo, hi = max(lo - width, -sys.float_info.max), min(hi + width, sys.float_info.max)
    scale = 1.0 if math.isfinite(hi - lo) else 0.5
    return lo * scale, hi * scale - lo * scale, scale


def check_size(width: int, height: int) -> None:
    """``ValueError`` for a plot size that leaves a plot area under 1 px once the margins are taken."""
    min_width, min_height = _MARGIN_LEFT + _MARGIN_RIGHT + 1, _MARGIN_TOP + _MARGIN_BOTTOM + 1
    if width < min_width or height < min_height:
        raise ValueError(f"SVG size {width}x{height} leaves no plot area; "
                         f"width must be at least {min_width} and height at least {min_height}")


def line_plot(series: Sequence[Series], width: int = DEFAULT_WIDTH,
              height: int = DEFAULT_HEIGHT) -> str:
    """Render series as an SVG 1.1 document string."""
    check_size(width, height)
    if not series:
        raise ValueError("at least one series is required")
    for s in series:
        if len(s.xs) != len(s.ys) or not s.xs:
            raise ValueError(f"series {s.name!r} needs equally many xs and ys")
    x_lo, x_span, x_scale = _bounds([x for s in series for x in s.xs])
    y_lo, y_span, y_scale = _bounds([y for s in series for y in s.ys])
    plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = height - _MARGIN_TOP - _MARGIN_BOTTOM
    axis_y = _MARGIN_TOP + plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{axis_y}" x2="{_MARGIN_LEFT + plot_w}" '
        f'y2="{axis_y}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" '
        f'y2="{axis_y}" stroke="black"/>'
    )
    for i in range(_TICKS):
        frac = i / (_TICKS - 1)
        xv = x_lo + frac * x_span
        xp = _MARGIN_LEFT + (xv - x_lo) / x_span * plot_w
        parts.append(f'<line x1="{xp:.2f}" y1="{axis_y}" x2="{xp:.2f}" y2="{axis_y + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{xp:.2f}" y="{axis_y + 18}" font-size="11" '
            f'text-anchor="middle">{xv / x_scale:.4g}</text>'
        )
        yv = y_lo + frac * y_span
        yp = axis_y - (yv - y_lo) / y_span * plot_h
        parts.append(f'<line x1="{_MARGIN_LEFT - 5}" y1="{yp:.2f}" x2="{_MARGIN_LEFT}" y2="{yp:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{yp + 4:.2f}" font-size="11" '
            f'text-anchor="end">{yv / y_scale:.4g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.2f}" y="{height - 8}" font-size="12" '
        'text-anchor="middle">t</text>'
    )
    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        xs = s.xs if x_scale == 1.0 else [x * x_scale for x in s.xs]
        ys = s.ys if y_scale == 1.0 else [y * y_scale for y in s.ys]
        xy = [0.0] * (2 * len(xs))  # px, py of each point in turn, for one %
        xy[::2] = [_MARGIN_LEFT + (x - x_lo) / x_span * plot_w for x in xs]
        xy[1::2] = [axis_y - (y - y_lo) / y_span * plot_h for y in ys]
        points = ("%.2f,%.2f " * len(xs))[:-1] % tuple(xy)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT + plot_w - 6}" y="{_MARGIN_TOP + 14 + 14 * idx}" '
            f'font-size="11" text-anchor="end" fill="{color}">{s.name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
