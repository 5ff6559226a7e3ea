"""Showcase computations built on the integrator.

Pendulum period versus amplitude (measured two independent ways), ballistics
with quadratic air drag, elliptic integrals by direct quadrature, circle
rectification by inscribed chords, and rhumb-line navigation on the sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .functions import make_inv_gudermannian
from .solver import IVP, StepPlan, Trajectory, find_zero_crossings, integrate, integrate_final

STANDARD_GRAVITY = 9.80665
EARTH_RADIUS = 6371000.0

#: Default step sizes, read by the library and by the CLI.
PENDULUM_H = 1e-4
ELLIPTIC_H = 1e-5
BALLISTICS_H = 1e-3
MERIDIONAL_H = 1e-4


@dataclass(frozen=True)
class PendulumSpec:
    length: float
    gravity: float = STANDARD_GRAVITY
    theta0: float = 0.5  # amplitude, radians

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError("length must be positive")
        if not self.gravity > 0:
            raise ValueError("gravity must be positive")
        if not 0.0 < self.theta0 < math.pi:
            raise ValueError("amplitude must lie in (0, pi)")

    def small_angle_period(self) -> float:
        return 2.0 * math.pi * math.sqrt(self.length / self.gravity)


@dataclass(frozen=True)
class BallisticsSpec:
    mass: float
    drag: float  # quadratic drag coefficient, kg/m; 0 means vacuum
    v0: float
    alpha: float  # launch angle, radians
    gravity: float = STANDARD_GRAVITY

    def __post_init__(self):
        if not self.mass > 0:
            raise ValueError("mass must be positive")
        if self.drag < 0:
            raise ValueError("drag coefficient must be non-negative")
        if not self.v0 > 0:
            raise ValueError("launch speed must be positive")
        if not 0.0 < self.alpha < math.pi / 2:
            raise ValueError("launch angle must lie in (0, pi/2)")
        if not self.gravity > 0:
            raise ValueError("gravity must be positive")


@dataclass(frozen=True)
class GeoPoint:
    """Latitude/longitude in radians; the poles are excluded because the
    meridional parts diverge there."""

    lat: float
    lon: float

    def __post_init__(self):
        if not abs(self.lat) < math.pi / 2:
            raise ValueError("latitude must lie strictly between the poles")


# ---------------------------------------------------------------------------
# Pendulum

def pendulum_ivp(spec: PendulumSpec) -> IVP:
    ratio = spec.gravity / spec.length

    def rhs(t, y):
        return (y[1], -ratio * math.sin(y[0]))

    return IVP(2, rhs, 0.0, (spec.theta0, 0.0))


def pendulum_period_ode(spec: PendulumSpec, h: float = PENDULUM_H) -> float:
    """Measure the full period by integrating the motion.

    The angular velocity starts at zero (release from rest) and vanishes
    again at each turning point, one half-period apart; the period is twice
    the gap between the first two turning points after release.  The
    integration window is widened until both are seen.
    """
    ivp = pendulum_ivp(spec)
    t_end = 3.0 * spec.small_angle_period()
    for _ in range(8):
        traj = integrate(ivp, StepPlan(h, t_end))
        crossings = [t for t in find_zero_crossings(traj, 1, ivp, h=h) if t > ivp.t0]
        if len(crossings) >= 2:
            return 2.0 * (crossings[1] - crossings[0])
        t_end *= 2.0
    raise RuntimeError(f"no turning points found up to t={t_end}; amplitude {spec.theta0}")


def elliptic_F(phi: float, k: float, h: float = ELLIPTIC_H) -> float:
    """Incomplete elliptic integral of the first kind, by direct quadrature.

    The integrand 1/sqrt(1 - k^2 sin^2 t) is integrated as an ODE from 0 to
    phi; no transformation tricks on the product path.
    """
    if not 0.0 <= k < 1.0:
        raise ValueError(f"modulus k must lie in [0, 1), got {k!r}")
    if not 0.0 <= phi <= math.pi / 2:
        raise ValueError(f"amplitude must lie in [0, pi/2], got {phi!r}")
    if phi == 0.0:
        return 0.0
    k2 = k * k

    def rhs(t, y):
        return (1.0 / math.sqrt(1.0 - k2 * math.sin(t) ** 2),)

    ivp = IVP(1, rhs, 0.0, (0.0,))
    return integrate_final(ivp, StepPlan(h, phi))[1][0]


def elliptic_K(k: float, h: float = ELLIPTIC_H) -> float:
    """Complete elliptic integral of the first kind."""
    return elliptic_F(math.pi / 2, k, h)


def pendulum_period_elliptic(spec: PendulumSpec) -> float:
    """Exact-period route: T = 4 sqrt(L/g) K(sin(theta0/2))."""
    k = math.sin(spec.theta0 / 2.0)
    return 4.0 * math.sqrt(spec.length / spec.gravity) * elliptic_K(k)


# ---------------------------------------------------------------------------
# Ballistics

def ballistics_ivp(spec: BallisticsSpec) -> IVP:
    cm = spec.drag / spec.mass
    g = spec.gravity

    def rhs(t, y):
        _, _, vx, vy = y
        speed = math.hypot(vx, vy)
        return (vx, vy, -cm * speed * vx, -g - cm * speed * vy)

    y0 = (0.0, 0.0, spec.v0 * math.cos(spec.alpha), spec.v0 * math.sin(spec.alpha))
    return IVP(4, rhs, 0.0, y0)


def ballistics_trajectory(spec: BallisticsSpec, h: float = BALLISTICS_H) -> Trajectory:
    """Flight trajectory over a window sure to contain the landing.

    Drag never extends the vacuum flight time, so 1.5x the vacuum time plus
    margin suffices; the window is widened if the landing is not seen.
    """
    vacuum_time = 2.0 * spec.v0 * math.sin(spec.alpha) / spec.gravity
    t_end = 1.5 * vacuum_time + 1.0
    ivp = ballistics_ivp(spec)
    for _ in range(6):
        traj = integrate(ivp, StepPlan(h, t_end))
        if traj.states[-1][1] < 0.0:
            return traj
        t_end *= 2.0
    raise RuntimeError("projectile never landed within the integration window")


def ballistics_range(spec: BallisticsSpec, h: float = BALLISTICS_H) -> float:
    """Horizontal distance to the landing point (descending zero of height)."""
    traj = ballistics_trajectory(spec, h)
    ivp = ballistics_ivp(spec)
    crossings = [t for t in find_zero_crossings(traj, 1, ivp, h=h) if t > 0.0]
    if not crossings:
        raise RuntimeError("no landing detected")
    t_land = crossings[0]
    _, state = integrate_final(ivp, StepPlan(h, t_land))
    return state[0]


def vacuum_range(spec: BallisticsSpec) -> float:
    """Closed-form drag-free range, for comparison."""
    return spec.v0 ** 2 * math.sin(2.0 * spec.alpha) / spec.gravity


def mechanical_energy(spec: BallisticsSpec, state) -> float:
    _, y, vx, vy = state
    return 0.5 * spec.mass * (vx * vx + vy * vy) + spec.mass * spec.gravity * y


# ---------------------------------------------------------------------------
# Rectification

def rectify(curve: Callable[[float], tuple[float, float]],
            t_start: float, t_end: float, segments: int) -> float:
    """Total length of the inscribed polyline on a uniform parameter grid."""
    if segments < 1:
        raise ValueError("need at least one segment")
    total = 0.0
    px, py = curve(t_start)
    span = t_end - t_start
    for i in range(1, segments + 1):
        x, y = curve(t_start + span * i / segments)
        total += math.hypot(x - px, y - py)
        px, py = x, y
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

    The bearing is atan2 of the wrapped longitude difference against the
    meridional-parts difference; the run along the course follows from the
    latitude difference.  Equal latitudes degenerate to parallel sailing and
    are special-cased (the general formula is 0/0 there).
    """
    dlon = _wrap_longitude(p2.lon - p1.lon)
    dlat = p2.lat - p1.lat
    if dlat == 0.0:
        if dlon == 0.0:
            return 0.0, 0.0
        bearing = math.copysign(math.pi / 2.0, dlon)
        return bearing, radius * abs(dlon) * math.cos(p1.lat)
    dm = meridional_parts(p2.lat, h) - meridional_parts(p1.lat, h)
    bearing = math.atan2(dlon, dm)
    distance = radius * abs(dlat / math.cos(bearing))
    return bearing, distance
