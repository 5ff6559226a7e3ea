"""Minimal static SVG line plots, no plotting dependency.

One polyline per series, axes with linear ticks, deterministic output.
"""

from __future__ import annotations

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


def _bounds(values) -> tuple[float, float]:
    lo = min(values)
    hi = max(values)
    if lo == hi:
        lo -= 1.0
        hi += 1.0
    return lo, hi


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
    x_lo, x_hi = _bounds([x for s in series for x in s.xs])
    y_lo, y_hi = _bounds([y for s in series for y in s.ys])
    plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = height - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    axis_y = _MARGIN_TOP + plot_h
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
        xv = x_lo + frac * (x_hi - x_lo)
        xp = px(xv)
        parts.append(f'<line x1="{xp:.2f}" y1="{axis_y}" x2="{xp:.2f}" y2="{axis_y + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{xp:.2f}" y="{axis_y + 18}" font-size="11" '
            f'text-anchor="middle">{xv:.4g}</text>'
        )
        yv = y_lo + frac * (y_hi - y_lo)
        yp = py(yv)
        parts.append(f'<line x1="{_MARGIN_LEFT - 5}" y1="{yp:.2f}" x2="{_MARGIN_LEFT}" y2="{yp:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{yp + 4:.2f}" font-size="11" '
            f'text-anchor="end">{yv:.4g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.2f}" y="{height - 8}" font-size="12" '
        'text-anchor="middle">t</text>'
    )
    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(s.xs, s.ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT + plot_w - 6}" y="{_MARGIN_TOP + 14 + 14 * idx}" '
            f'font-size="11" text-anchor="end" fill="{color}">{s.name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
