"""Functions defined as ODE solutions, evaluated by integration.

Each entry couples an initial-value problem with an output component: the
value at ``x`` is obtained by integrating from the initial time to ``x``
(backward when ``x`` lies before it).  No closed forms, no host special
functions on the product path; plain integration is the point.  All but
invgd, whose integrand has poles on the real axis, declare a polynomial
system (``solver.polynomial_ivp``) and take Taylor steps by default.
"""

from __future__ import annotations

import math
import sys

from . import Record
from .solver import IVP, StepPlan, Trajectory, integrate, polynomial_ivp

DEFAULT_H = 1e-3  # RK4 step size of every ODE-defined function
TAYLOR_H = 0.5  # Taylor step size of the functions that declare a series
POLE_STEPS = 16  # closest approach to a pole of the integrand, in steps
DEFAULT_K = 0.5  # Jacobi modulus of sn, cn and dn when none is given


class OdeFunction(Record):
    """A named, ODE-backed real function of one real argument: by default by Taylor
    steps of ``TAYLOR_H`` where the IVP declares a series, else by RK4 steps of
    ``DEFAULT_H``.  An explicit small ``h`` keeps Taylor steps, at about 10 times
    the cost of RK4 steps of it.  ``trajectory`` is the run from the start to x, and
    ``__call__`` its streaming form; both refuse a start or x within ``POLE_STEPS``
    steps of +-``pole``, and a subnormal value (no double holds it to the budget)."""

    __slots__ = ("name", "ivp", "output", "pole")
    _defaults = {"pole": None}

    def __call__(self, x: float, method: str | None = None, h: float | None = None) -> float:
        return self.trajectory(x, method, h, record=False).final_state()[self.output]

    def trajectory(self, x: float, method: str | None = None, h: float | None = None,
                   record: bool = True) -> Trajectory:
        if method is None:
            method = "taylor" if self.ivp.series else "rk4"
        if h is None:
            h = TAYLOR_H if method == "taylor" and self.ivp.series else DEFAULT_H
        plan = StepPlan(h, x)
        for end in (self.ivp.t0, x):  # the one farther from 0 comes closest to the pole
            if self.pole is not None and not self.pole - abs(end) >= POLE_STEPS * h:
                raise ValueError(f"{self.name}: x={end!r} lies closer than {POLE_STEPS} steps of h={h!r} "
                                 f"to the pole at +-{self.pole!r}")
        traj = integrate(self.ivp, plan, method, record)
        value = traj.final_state()[self.output]
        if 0.0 < abs(value) < sys.float_info.min:
            raise ArithmeticError(f"{self.name}({x!r}) = {value!r} is subnormal: no double holds it to the budget")
        return traj


def make_exp() -> OdeFunction:
    """exp as the solution of y' = y, y(0) = 1."""
    return OdeFunction("exp", polynomial_ivp(0.0, (1.0,), [(1, 0)]), 0)


def make_sincos() -> tuple[OdeFunction, OdeFunction]:
    """sin and cos as the solution pair of y1' = y2, y2' = -y1, y(0) = (0, 1)."""
    ivp = polynomial_ivp(0.0, (0.0, 1.0), [(1, 1), (-1, 0)])
    return OdeFunction("sin", ivp, 0), OdeFunction("cos", ivp, 1)


def make_jacobi(k: float) -> tuple[OdeFunction, OdeFunction, OdeFunction]:
    """Jacobi elliptic sn, cn, dn with modulus k as the polynomial system
    sn' = cn dn, cn' = -sn dn, dn' = -k^2 sn cn from (0, 1, 1)."""
    if not 0.0 <= k <= 1.0:
        raise ValueError(f"modulus k must lie in [0, 1], got {k!r}")
    ivp = polynomial_ivp(0.0, (0.0, 1.0, 1.0), [(1, 1, 2), (-1, 0, 2), (-(k * k), 0, 1)])
    return (
        OdeFunction("sn", ivp, 0),
        OdeFunction("cn", ivp, 1),
        OdeFunction("dn", ivp, 2),
    )


def make_inv_gudermannian(start: float = 0.0) -> OdeFunction:
    """Meridional parts counted from ``start``: y' = 1/cos(t), y(start) = 0.

    From 0 it is ln tan(pi/4 + x/2).  Both ends must lie within pi/2 - ``POLE_STEPS`` h,
    where the RK4 error near the integrand's poles is at most 6e-9 relative at h = 1e-3.
    """
    def sec(t):
        return 1.0 / math.cos(t)

    ivp = IVP(lambda t, y: (sec(t),), start, (0.0,), sec)
    return OdeFunction("invgd", ivp, 0, pole=math.pi / 2)


def by_name(name: str, k: float = DEFAULT_K) -> OdeFunction:
    """Look up an ODE-defined function for the CLI; ``k`` applies to sn/cn/dn."""
    if name == "exp":
        return make_exp()
    if name in ("sin", "cos"):
        sin_fn, cos_fn = make_sincos()
        return sin_fn if name == "sin" else cos_fn
    if name in ("sn", "cn", "dn"):
        triple = make_jacobi(k)
        return triple[("sn", "cn", "dn").index(name)]
    if name == "invgd":
        return make_inv_gudermannian()
    raise ValueError(f"unknown function {name!r} (choose from exp, sin, cos, sn, cn, dn, invgd)")
