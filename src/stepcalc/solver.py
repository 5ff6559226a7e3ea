"""Fixed-step initial-value-problem integration.

Two methods: the plain first-order step-by-step recurrence (Euler) and the
classical fourth-order Runge-Kutta update.  Steps are laid out on a uniform
grid from ``t0`` toward ``t_end``; the final step is shortened so the last
node lands on ``t_end`` bit-exactly.  Backward integration (``t_end < t0``)
uses the same machinery with a negated step.

Failures: ``IVP`` and ``StepPlan`` reject non-finite times, states and step
sizes and a step size that is not positive with ``ValueError``.  During
integration, an ``ArithmeticError`` or ``ValueError`` from the right-hand
side (expression errors included), a right-hand side of the wrong length,
and a non-finite final state each raise ``IntegrationError``; any other
exception propagates unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

Vector = tuple[float, ...]
RHS = Callable[[float, Sequence[float]], Sequence[float]]

CROSSING_TOL = 1e-10  # zero-crossing bisection stops at this width in t
CROSSING_MAX_ITER = 60  # or after this many bisections


class IntegrationError(RuntimeError):
    """An integration failed; carries the start time of the failing step
    (the final time when the final state is non-finite)."""

    def __init__(self, t: float, cause: Exception):
        super().__init__(f"integration failed at t={t!r}: {cause}")
        self.t = t
        self.cause = cause


@dataclass(frozen=True)
class IVP:
    """An initial-value problem y' = rhs(t, y), y(t0) = y0."""

    dim: int
    rhs: RHS
    t0: float
    y0: Vector

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if len(self.y0) != self.dim:
            raise ValueError(f"y0 has length {len(self.y0)}, expected {self.dim}")
        y0 = tuple(float(v) for v in self.y0)
        if not math.isfinite(self.t0):
            raise ValueError(f"initial time t0 must be finite, got {self.t0!r}")
        if not all(map(math.isfinite, y0)):
            raise ValueError(f"initial state y0 must be finite, got {y0!r}")
        object.__setattr__(self, "y0", y0)


@dataclass(frozen=True)
class StepPlan:
    """Step size and target time for one integration run."""

    h: float
    t_end: float

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("step size h must be positive")
        if not math.isfinite(self.h):
            raise ValueError(f"step size h must be finite, got {self.h!r}")
        if not math.isfinite(self.t_end):
            raise ValueError(f"end time t_end must be finite, got {self.t_end!r}")


@dataclass(frozen=True)
class Trajectory:
    """Node times and states recorded by an integrator."""

    times: tuple[float, ...]
    states: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.states[0])

    def final_state(self) -> Vector:
        return self.states[-1]

    def component(self, i: int) -> list[float]:
        return [s[i] for s in self.states]

    def to_csv(self) -> str:
        """Render as CSV with round-trippable 17-significant-digit doubles."""
        dim = self.dim
        lines = ["t," + ",".join(f"y{i + 1}" for i in range(dim))]
        for t, state in zip(self.times, self.states):
            lines.append(",".join(f"{v:.17g}" for v in (t, *state)))
        return "\n".join(lines) + "\n"


def integrate(ivp: IVP, plan: StepPlan, method: str = "rk4", record: bool = True) -> Trajectory:
    """Integrate from t0 to t_end on a uniform grid.

    With ``record=False`` only the first and last nodes are kept (streaming
    mode for long integrations).
    """
    if method not in ("euler", "rk4"):
        raise ValueError(f"unknown method {method!r}")
    rhs = ivp.rhs
    t0, t_end = ivp.t0, plan.t_end
    t, y = t0, ivp.y0
    if t_end == t0:
        return Trajectory((t0,), (y,))
    span = t_end - t0
    n = max(1, math.ceil(abs(span) / plan.h))
    hs = math.copysign(plan.h, span)
    times = [t0]
    states = [y]
    try:
        for k in range(n):
            t_next = t_end if k == n - 1 else t0 + (k + 1) * hs
            h = t_next - t
            k1 = rhs(t, y)
            if method == "euler":
                y = tuple([yi + h * a for yi, a in zip(y, k1, strict=True)])
            else:
                k2 = rhs(t + h / 2, [yi + h / 2 * a for yi, a in zip(y, k1, strict=True)])
                k3 = rhs(t + h / 2, [yi + h / 2 * b for yi, b in zip(y, k2, strict=True)])
                k4 = rhs(t + h, [yi + h * c for yi, c in zip(y, k3, strict=True)])
                y = tuple([
                    yi + h / 6 * (a + 2 * b + 2 * c + d)
                    for yi, a, b, c, d in zip(y, k1, k2, k3, k4, strict=True)
                ])
            t = t_next
            if record:
                times.append(t)
                states.append(y)
    except (ArithmeticError, ValueError) as exc:
        raise IntegrationError(t, exc) from exc
    if not all(map(math.isfinite, y)):
        raise IntegrationError(t, ArithmeticError(f"state is not finite: {y!r}"))
    if not record:
        times.append(t)
        states.append(y)
    return Trajectory(tuple(times), tuple(states))


def integrate_final(ivp: IVP, plan: StepPlan, method: str = "rk4") -> tuple[float, Vector]:
    """Final node only; O(1) memory."""
    traj = integrate(ivp, plan, method, record=False)
    return traj.times[-1], traj.states[-1]


def find_zero_crossings(
    traj: Trajectory,
    component: int,
    ivp: IVP,
    h: float | None = None,
) -> list[float]:
    """Refined times where a state component crosses zero.

    A node holding an exact zero counts as one crossing (it terminates the
    previous sign run); sign changes between adjacent nodes are refined by
    bisection on RK4 re-integration from the bracketing node, to
    ``CROSSING_TOL`` in t or ``CROSSING_MAX_ITER`` bisections.
    """
    if not 0 <= component < traj.dim:
        raise ValueError(f"component {component} out of range for dim {traj.dim}")
    if h is None:
        h = abs(traj.times[-1] - traj.times[0]) / max(1, len(traj.times) - 1)
    values = traj.component(component)
    crossings: list[float] = []
    for i in range(len(values) - 1):
        a, b = values[i], values[i + 1]
        if a == 0.0:
            crossings.append(traj.times[i])
            continue
        if b == 0.0 or (a < 0.0) == (b < 0.0):
            continue
        crossings.append(
            _refine_crossing(
                ivp, h, component,
                traj.times[i], traj.states[i], traj.times[i + 1], a,
            )
        )
    if values and values[-1] == 0.0:
        crossings.append(traj.times[-1])
    return crossings


def _refine_crossing(
    ivp: IVP,
    h: float,
    component: int,
    t_lo: float,
    y_lo: Vector,
    t_hi: float,
    f_lo: float,
) -> float:
    local = IVP(ivp.dim, ivp.rhs, t_lo, y_lo)
    lo, hi = t_lo, t_hi
    lo_negative = f_lo < 0.0
    for _ in range(CROSSING_MAX_ITER):
        if abs(hi - lo) <= CROSSING_TOL:
            break
        mid = 0.5 * (lo + hi)
        step = min(h, abs(mid - t_lo)) or h
        value = integrate_final(local, StepPlan(step, mid))[1][component]
        if value == 0.0:
            return mid
        if (value < 0.0) == lo_negative:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
