"""Functions defined as ODE solutions, evaluated by integration.

Each entry couples an initial-value problem with an output component: the
value at ``x`` is obtained by integrating from the initial time to ``x``
(backward when ``x`` lies before it).  No closed forms, no host special
functions on the product path; plain integration is the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .solver import IVP, StepPlan, Trajectory, integrate, integrate_final

DEFAULT_H = 1e-3  # step size of every ODE-defined function
DEFAULT_K = 0.5  # Jacobi modulus of sn, cn and dn when none is given


@dataclass(frozen=True)
class OdeFunction:
    """A named, ODE-backed real function of one real argument."""

    name: str
    ivp: IVP
    output: int
    domain: Callable[[float], bool] | None = None
    domain_message: str = ""

    def _check(self, x: float) -> None:
        if self.domain is not None and not self.domain(x):
            raise ValueError(f"{self.name}: {self.domain_message or 'argument outside domain'}: {x!r}")

    def __call__(self, x: float, method: str = "rk4", h: float = DEFAULT_H) -> float:
        self._check(x)
        _, state = integrate_final(self.ivp, StepPlan(h, x), method)
        return state[self.output]

    def trajectory(self, x: float, method: str = "rk4", h: float = DEFAULT_H) -> Trajectory:
        self._check(x)
        return integrate(self.ivp, StepPlan(h, x), method)


def make_exp() -> OdeFunction:
    """exp as the solution of y' = y, y(0) = 1."""
    ivp = IVP(1, lambda t, y: (y[0],), 0.0, (1.0,))
    return OdeFunction("exp", ivp, 0)


def circle_rhs(t, y):
    return (y[1], -y[0])


def make_sincos() -> tuple[OdeFunction, OdeFunction]:
    """sin and cos as the solution pair of y1' = y2, y2' = -y1, y(0) = (0, 1)."""
    ivp = IVP(2, circle_rhs, 0.0, (0.0, 1.0))
    return OdeFunction("sin", ivp, 0), OdeFunction("cos", ivp, 1)


def make_jacobi(k: float) -> tuple[OdeFunction, OdeFunction, OdeFunction]:
    """Jacobi elliptic sn, cn, dn with modulus k from their coupled system.

    sn' = cn dn, cn' = -sn dn, dn' = -k^2 sn cn, starting at (0, 1, 1).
    """
    if not 0.0 <= k <= 1.0:
        raise ValueError(f"modulus k must lie in [0, 1], got {k!r}")
    k2 = k * k

    def rhs(t, y):
        sn, cn, dn = y
        return (cn * dn, -sn * dn, -k2 * sn * cn)

    ivp = IVP(3, rhs, 0.0, (0.0, 1.0, 1.0))
    return (
        OdeFunction("sn", ivp, 0),
        OdeFunction("cn", ivp, 1),
        OdeFunction("dn", ivp, 2),
    )


def make_inv_gudermannian() -> OdeFunction:
    """Meridional-parts integrand antiderivative: y' = 1/cos(t), y(0) = 0.

    Equals ln tan(pi/4 + x/2) on (-pi/2, pi/2); the integrand pole bounds the
    domain.
    """
    def sec(t):
        return 1.0 / math.cos(t)

    ivp = IVP(1, lambda t, y: (sec(t),), 0.0, (0.0,), sec)
    return OdeFunction(
        "invgd",
        ivp,
        0,
        domain=lambda x: abs(x) < math.pi / 2,
        domain_message="argument must satisfy |x| < pi/2",
    )


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
