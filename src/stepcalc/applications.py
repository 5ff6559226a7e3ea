"""Showcase computations built on the integrator.

Pendulum period versus amplitude (measured two independent ways), ballistics
with quadratic air drag, elliptic integrals by direct quadrature, circle
rectification by inscribed chords, and rhumb-line navigation on the sphere.
"""

from __future__ import annotations

import functools
import math
import sys
from collections.abc import Callable, Sequence

from . import (BALLISTICS_H, EARTH_RADIUS, ELLIPTIC_TOL, MERIDIONAL_H, PENDULUM_H, STANDARD_GRAVITY, Record, generated,
               refuse_subnormal)
from .functions import make_inv_gudermannian
from .solver import IVP, StepPlan, Trajectory, Vector, find_zero_crossings, integrate, integrate_final, polynomial_ivp

ELLIPTIC_MAX_STEPS = 2**18  # step budget of all passes of elliptic_F's step doubling together


class PendulumSpec(Record):
    """A simple pendulum of ``length`` (m) released from rest at amplitude
    ``theta0`` (radians) under ``gravity`` (m/s^2)."""

    __slots__ = ("length", "gravity", "theta0")
    _defaults = {"gravity": STANDARD_GRAVITY, "theta0": 0.5}

    def _check(self):
        if not 0.0 < self.length < math.inf:
            raise ValueError(f"length must be finite and positive, got {self.length!r}")
        if not 0.0 < self.gravity < math.inf:
            raise ValueError(f"gravity must be finite and positive, got {self.gravity!r}")
        if not 0.0 < self.theta0 < math.pi:
            raise ValueError("amplitude must lie in (0, pi)")
        if not 0.0 < self.small_angle_period() < math.inf:
            raise ValueError("small-angle period must be finite and positive, "
                             f"got {self.small_angle_period()!r}")

    def small_angle_period(self) -> float:
        return 2.0 * math.pi * math.sqrt(self.length / self.gravity)


class BallisticsSpec(Record):
    """A projectile of ``mass`` (kg) launched at ``v0`` (m/s) and angle ``alpha``
    (radians) under ``gravity``, against quadratic drag of coefficient ``drag``
    (kg/m; 0 means vacuum)."""

    __slots__ = ("mass", "drag", "v0", "alpha", "gravity")
    _defaults = {"gravity": STANDARD_GRAVITY}

    def _check(self):
        if not 0.0 < self.mass < math.inf:
            raise ValueError(f"mass must be finite and positive, got {self.mass!r}")
        if not 0.0 <= self.drag < math.inf:
            raise ValueError(f"drag coefficient must be finite and non-negative, got {self.drag!r}")
        if not 0.0 < self.v0 < math.inf:
            raise ValueError(f"launch speed must be finite and positive, got {self.v0!r}")
        if not 0.0 < self.alpha < math.pi / 2:
            raise ValueError("launch angle must lie in (0, pi/2)")
        if not 0.0 < self.gravity < math.inf:
            raise ValueError(f"gravity must be finite and positive, got {self.gravity!r}")
        if not self.drag / self.mass < math.inf:
            raise ValueError(f"drag/mass ratio must be finite, got {self.drag / self.mass!r}")


class GeoPoint(Record):
    """Latitude/longitude in radians; the poles are excluded because the
    meridional parts diverge there."""

    __slots__ = ("lat", "lon")

    def _check(self):
        if not abs(self.lat) < math.pi / 2:
            raise ValueError("latitude must lie strictly between the poles")
        if not math.isfinite(self.lon):
            raise ValueError(f"longitude must be finite, got {self.lon!r}")


# ---------------------------------------------------------------------------
# Pendulum

def pendulum_ivp(spec: PendulumSpec) -> IVP:
    """theta'' = -(g/L) sin theta, released from rest, declared as the polynomial system (theta, omega, s, c)' =
    (omega, -(g/L) s, c omega, -s omega) from (theta0, 0, sin theta0, cos theta0), s and c being sin and
    cos of theta."""
    system = [(1, 1), (-(spec.gravity / spec.length), 2), (1, 3, 1), (-1, 2, 1)]
    return polynomial_ivp(0.0, (spec.theta0, 0.0, math.sin(spec.theta0), math.cos(spec.theta0)), system)


def pendulum_period_ode(spec: PendulumSpec, h: float = PENDULUM_H) -> float:
    """Measure the full period by integrating the motion in Taylor steps.

    Released from rest, the pendulum first passes theta = 0 a quarter period
    later: the period is four times the first zero of theta, where the run
    stops, at the latest two steps past a quarter of an upper bound on the
    period.  No zero, or a period outside the bound's bracket (see
    ``_pendulum_period_bound``) widened by 1e-6 relative, means a step that
    passed more than one zero and is refused, as is an amplitude below the
    smallest normal float, where sin(theta) loses its precision.
    """
    if spec.theta0 < sys.float_info.min:
        raise ValueError(f"amplitude theta0={spec.theta0!r} is subnormal: the restoring force loses its precision")
    ivp = pendulum_ivp(spec)
    bound = _pendulum_period_bound(spec)
    traj = integrate(ivp, StepPlan(h, bound / 4.0 + 2.0 * h), "taylor", stop=0)
    crossing = find_zero_crossings(traj, 0, ivp, "taylor")
    period = 4.0 * crossing[0] if crossing else math.inf  # none in the window: longer than the bracket
    if not bound / 1.001 * (1.0 - 1e-6) <= period <= bound * (1.0 + 1e-6):
        raise RuntimeError(f"period {period!r} with step h={h!r} lies outside the bracket "
                           f"[{bound / 1.001!r}, {bound!r}]; the step is too coarse for the period")
    return period


def _pendulum_period_bound(spec: PendulumSpec) -> float:
    """An upper bound on the period, from T = T0 / AGM(1, k'), k' = cos(theta0/2).

    Every geometric mean b of the AGM iteration is at most the AGM, so T0/b
    bounds T: b = sqrt(k') gives T0/sqrt(k'), one step more gives 1.646 T0
    at theta0 = 2.5, where T = 1.643 T0.  Iterating until the two means agree
    to 0.1 % keeps the overshoot below that, also near theta0 = pi, and as
    the arithmetic mean a bounds the AGM from above, bound / 1.001 <= T0/a <= T.
    """
    a, b = 1.0, math.cos(spec.theta0 / 2.0)
    while a - b > 1e-3 * b:
        a, b = (a + b) / 2.0, math.sqrt(a * b)
    return spec.small_angle_period() / b


def elliptic_F(phi: float, k: float, h: float | None = None) -> float:
    """Incomplete elliptic integral of the first kind, by the quadrature of ``_elliptic_quadrature`` on
    k^2 and k'^2 = (1 - k)(1 + k); a subnormal value is refused (``refuse_subnormal``)."""
    if not 0.0 <= k < 1.0:
        raise ValueError(f"modulus k must lie in [0, 1), got {k!r}")
    if not 0.0 <= phi <= math.pi / 2:
        raise ValueError(f"amplitude must lie in [0, pi/2], got {phi!r}")
    value = _elliptic_quadrature(phi, k * k, (1.0 - k) * (1.0 + k), h, f"k={k!r}")
    return refuse_subnormal(value, f"F({phi!r}, k={k!r})")


def _elliptic_quadrature(phi: float, k2: float, kc2: float, h: float | None, at: str) -> float:
    """The integral of 1/sqrt(kc2 + k2 cos^2 t) from 0 to phi: Carlson's form on the complementary modulus
    kc2 = k'^2 (DLMF 19.25(i)), where no 1 - k^2 sin^2 t cancels near k = 1.  It is integrated as an ODE by
    RK4 (composite Simpson here, two evaluations a step) in equal steps; no transformation tricks on the
    product path.  With ``h``, one pass of ceil(phi/h) steps.  Without, the step count doubles from 8
    until two passes agree to ``ELLIPTIC_TOL``, or past ``ELLIPTIC_MAX_STEPS`` (kc2 near 0) raises
    ``ArithmeticError`` naming the request by ``at``.  The complete integral converges geometrically, its
    integrand being even and pi-periodic.
    """
    if phi == 0.0:
        return 0.0

    def integrand(t):
        return 1.0 / math.sqrt(kc2 + k2 * math.cos(t) ** 2)

    ivp = IVP(None, 0.0, (0.0,), integrand)
    if h is not None:
        return integrate_final(ivp, StepPlan.divided(0.0, phi, h))[1][0]
    n, used = 8, 8
    previous = integrate_final(ivp, StepPlan(phi / n, phi, n))[1][0]
    while used + 2 * n <= ELLIPTIC_MAX_STEPS:
        n *= 2
        used += n
        value = integrate_final(ivp, StepPlan(phi / n, phi, n))[1][0]
        if abs(value - previous) <= ELLIPTIC_TOL * abs(value):
            return value
        previous = value
    raise ArithmeticError(f"elliptic integral did not converge to {ELLIPTIC_TOL:g} "
                          f"within {ELLIPTIC_MAX_STEPS} steps at {at}")


def elliptic_K(k: float) -> float:
    """Complete elliptic integral of the first kind."""
    return elliptic_F(math.pi / 2, k)


def pendulum_period_elliptic(spec: PendulumSpec) -> float:
    """Exact-period route: T = 4 sqrt(L/g) K(sin(theta0/2)), K integrated on k^2 = sin^2(theta0/2) and
    k'^2 = cos^2(theta0/2) directly, so no complement rounds away near pi.  Where the quadrature does not
    converge within its budget (from theta0 = 3.14142 on) it is refused in theta0's terms."""
    half = spec.theta0 / 2.0
    quarter = _elliptic_quadrature(math.pi / 2, math.sin(half) ** 2, math.cos(half) ** 2, None,
                                   f"theta0={spec.theta0!r}, too close to pi; use --method ode")
    return 4.0 * math.sqrt(spec.length / spec.gravity) * quarter


# ---------------------------------------------------------------------------
# Ballistics

def ballistics_ivp(spec: BallisticsSpec) -> IVP:
    """(x, y, vx, vy)' = (vx, vy, -cm v vx, -g - cm v vy), cm = drag/mass, v the
    speed.  The Taylor recurrence takes v from v_k = (q_k - sum v_j v_(k-j)) / (2 v_0),
    j = 1..k-1, q = vx^2 + vy^2, kept from one order to the next; without drag it has no v."""
    cm = spec.drag / spec.mass
    g = spec.gravity
    speed = []

    def series(cols, k):
        _, _, vx, vy = cols[k]
        ax = ay = 0.0  # order k of v vx and v vy
        if cm:
            if k == 0:
                speed[:] = [math.hypot(vx, vy)]
            else:
                q = 0.0
                for (_, _, a, b), (_, _, c, d) in zip(cols, reversed(cols)):
                    q += a * c + b * d
                for v, w in zip(speed[1:], reversed(speed[1:])):
                    q -= v * w
                speed.append(q / (2.0 * speed[0]))
            for v, (_, _, a, b) in zip(speed, reversed(cols)):
                ax += v * a
                ay += v * b
        return (vx / (k + 1), vy / (k + 1), -cm * ax / (k + 1), ((-g if k == 0 else 0.0) - cm * ay) / (k + 1))

    y0 = (0.0, 0.0, spec.v0 * math.cos(spec.alpha), spec.v0 * math.sin(spec.alpha))
    return IVP(None, 0.0, y0, series=series)


def ballistics_trajectory(spec: BallisticsSpec, h: float = BALLISTICS_H) -> tuple[Trajectory, Vector]:
    """Flight trajectory in Taylor steps, up to the first node below ground, and its landing state.

    A run stops at the first node past the apex, the crossing locator finds
    the apex (vy = 0) from the node before, and a run goes on from there;
    the locator finds the landing (y = 0) on the same IVP.  Drag only
    shortens ascent and flight: the runs end two steps past their vacuum
    times.  The step is at most 4/3 of the shortest ascent drag allows
    (ln(1 + u)/u vy0/g, u = cm v0 vy0/g), so heavy drag splits few steps.
    A landing x that is subnormal is refused (``refuse_subnormal``).
    """
    vacuum_time = 2.0 * spec.v0 * math.sin(spec.alpha) / spec.gravity
    u = spec.drag / spec.mass * spec.v0 * vacuum_time / 2.0
    h = min(h, vacuum_time / 1.5 * (math.log1p(u) / u if u else 1.0))
    ivp = ballistics_ivp(spec)
    rise = integrate(ivp, StepPlan(h, vacuum_time / 2.0 + 2.0 * h), "taylor", stop=3)
    apex = find_zero_crossings(rise, 3, ivp, "taylor")
    if not (apex and apex[1][1] > 0.0):
        raise RuntimeError(f"the apex is not above ground; the vacuum range is {vacuum_range(spec)!r}")
    t, y = apex
    n = sum(s < t for s in rise.times)  # the nodes before the apex
    fall = integrate(ivp.replace(t0=t, y0=y), StepPlan(h, vacuum_time + 2.0 * h), "taylor", stop=1)
    traj = Trajectory(rise.nodes[:n * (rise.dim + 1)] + fall.nodes, rise.dim)
    if not traj.final_state()[1] < 0.0:
        raise RuntimeError(f"projectile never landed within the window; the vacuum range is {vacuum_range(spec)!r}")
    landing = find_zero_crossings(traj, 1, ivp, "taylor")[1]  # apex above ground, last node below
    refuse_subnormal(landing[0], "landing x")
    return traj, landing


def ballistics_range(spec: BallisticsSpec, h: float = BALLISTICS_H) -> float:
    """Horizontal distance to the landing point: x of the landing state that ``ballistics_trajectory`` locates."""
    return ballistics_trajectory(spec, h)[1][0]


def vacuum_range(spec: BallisticsSpec) -> float:
    """Closed-form drag-free range, for comparison."""
    return spec.v0 ** 2 * math.sin(2.0 * spec.alpha) / spec.gravity


def mechanical_energy(spec: BallisticsSpec, state) -> float:
    _, y, vx, vy = state
    return 0.5 * spec.mass * (vx * vx + vy * vy) + spec.mass * spec.gravity * y


# ---------------------------------------------------------------------------
# Rectification

#: What the code of ``polyline_lines`` reads besides its arguments.
POLYLINE_NAMES = {"_float": float, "_range": range, "_hypot": math.hypot}


def polyline_lines(point: Callable[[list[str], str], Sequence[str]]) -> list[str]:
    """The body of ``length(curve, t_start, span, segments)``, ``rectify``'s loop, ending in
    ``return``.  ``point(lines, t)`` appends the curve at the time coded ``t`` and returns
    the code of x and y, in locals other than the loop's ``_n _total _px _py _i _t``.
    Each point is taken at ``_t``, the node, set before anything else can fail."""
    lines = ["_t = t_start", "_n = _float(segments)", "_total = 0.0"]
    x, y = point(lines, "_t")
    lines += [f"_px = {x}", f"_py = {y}", "for _i in _range(1, segments + 1):", "_t = t_start + span * _i / _n"]
    body = len(lines) - 1
    x, y = point(lines, "_t")
    lines += [f"_total += _hypot({x} - _px, {y} - _py)", f"_px = {x}", f"_py = {y}"]
    lines[body:] = [f"    {line}" for line in lines[body:]]
    return [*lines, "return _total"]


@functools.cache
def curve_polyline() -> Callable[..., float]:
    """``length(curve, t_start, span, segments)`` of ``polyline_lines`` that calls
    ``curve`` at each node; the code is generated once per process."""
    def point(lines: list[str], t: str) -> tuple[str, str]:
        lines.append(f"_x, _y = curve({t})")  # unpacking a value of the wrong length raises ValueError
        return "_x", "_y"

    return generated("applications.rectify", ["curve", "t_start", "span", "segments"], polyline_lines(point),
                     POLYLINE_NAMES)


def rectify(curve: Callable[[float], tuple[float, float]], t_start: float, t_end: float, segments: int,
            length: Callable[..., float] | None = None) -> float:
    """Length of the polyline inscribed in ``curve`` on the nodes t_start + span * i / n, i = 0 .. n,
    with span = t_end - t_start and n = ``float(segments)``: the chords' ``math.hypot`` lengths summed
    left to right by ``length(curve, t_start, span, segments)``, ``curve_polyline`` by default."""
    if segments < 1:
        raise ValueError("need at least one segment")
    span = t_end - t_start
    # an infinite or nan end makes span non-finite too; with span * segments
    # finite, no node's span * i overflows
    if not math.isfinite(span * segments):
        raise ValueError(f"cannot step t0={t_start!r} to t1={t_end!r} in n={segments} segments: "
                         "(t1 - t0) * n is not finite")
    total = (length or curve_polyline())(curve, t_start, span, segments)
    if not math.isfinite(total):
        raise ValueError(f"polyline length is not finite: {total!r}")
    return total


def unit_circle(t: float) -> tuple[float, float]:
    return (math.cos(t), math.sin(t))


# ---------------------------------------------------------------------------
# Loxodromes

def _wrap_longitude(dl: float) -> float:
    """Wrap a longitude difference to (-pi, pi]."""
    wrapped = math.remainder(dl, 2.0 * math.pi)
    if wrapped == -math.pi:
        wrapped = math.pi
    return wrapped


def meridional_parts(lat: float, h: float = MERIDIONAL_H) -> float:
    """Mercator vertical coordinate of a latitude, by ODE integration."""
    return make_inv_gudermannian()(lat, h=h)


def loxodrome(p1: GeoPoint, p2: GeoPoint, radius: float = EARTH_RADIUS,
              h: float = MERIDIONAL_H) -> tuple[float, float]:
    """Constant-bearing course and distance between two points on a sphere.

    The meridional-parts difference dm is one integration of sec t, from the first
    latitude to the second.  The bearing is atan2 of the wrapped longitude difference
    against dm; the run along the course is R |dlat| hypot(dlon, dm) / |dm|, free of the
    cosine of an atan2 near pi/2.  Equal latitudes are parallel sailing (0/0 there).  A subnormal
    distance is refused (``refuse_subnormal``).
    """
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be finite and positive, got {radius!r}")
    dlon = _wrap_longitude(p2.lon - p1.lon)
    dlat = p2.lat - p1.lat
    if dlat == 0.0:
        if dlon == 0.0:
            return 0.0, 0.0
        bearing, distance = math.copysign(math.pi / 2.0, dlon), radius * abs(dlon) * math.cos(p1.lat)
    else:
        dm = make_inv_gudermannian(p1.lat)(p2.lat, h=h)
        if not min(abs(dlat), abs(dm)) >= sys.float_info.min:
            raise ValueError(f"latitude difference {dlat!r} rad or meridional parts difference {dm!r} is subnormal")
        bearing, distance = math.atan2(dlon, dm), radius * abs(dlat) * math.hypot(dlon, dm) / abs(dm)
    return bearing, refuse_subnormal(distance, "distance")
