"""Fixed-step initial-value-problem integration.

Two methods: the plain first-order step-by-step recurrence (Euler) and the
classical fourth-order Runge-Kutta update.  Steps are laid out on a uniform
grid from ``t0`` toward ``t_end``; the final step is shortened so the last
node lands on ``t_end`` bit-exactly.  A plan with a step count instead
divides the span into that many equal steps (``StepPlan.divided``); the
fixed-interval quadratures use it, because for a periodic integrand the
equal-division grid converges geometrically where a shortened last step
falls back to the method's order.  Backward integration (``t_end < t0``)
uses the same machinery with a negated step.

Zero crossings of a state component are located by a bracketed secant
(Illinois) iteration on one RK4 step from the node before them: to the
step's local error in a few steps, not to a fixed width in t (Hairer,
Norsett and Wanner, *Solving ODEs I*, II.6).

Failures: ``IVP`` and ``StepPlan`` reject non-finite times, states and step
sizes and a step size that is not positive with ``ValueError``, and so does
``integrate`` for a plan of more than ``MAX_STEPS`` steps.  During
integration, an ``ArithmeticError`` or ``ValueError`` from the right-hand
side (expression errors included), a right-hand side of the wrong length,
and a non-finite state each raise ``IntegrationError``; any other exception
propagates unchanged.  The state is checked every ``FINITE_CHECK_STEPS``
steps and at the end, so a run that overflows stops soon after, not at
``t_end``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

Vector = tuple[float, ...]
RHS = Callable[[float, Sequence[float]], Sequence[float]]

CROSSING_MAX_ITER = 60  # iterates of one zero-crossing search at most
MAX_STEPS = 10**7  # step budget of one integration run
FINITE_CHECK_STEPS = 1024  # steps between checks that the state is finite


class IntegrationError(RuntimeError):
    """An integration failed; carries the start time of the failing step
    (the time of the checked node when its state is non-finite)."""

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
    """Step size and target time for one integration run.

    Without ``steps``, steps of ``h`` run from t0 and the last one is
    shortened to land on ``t_end``.  With ``steps``, the span is divided
    into that many equal steps, and ``h`` is their size.
    """

    h: float
    t_end: float
    steps: int | None = None

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("step size h must be positive")
        if not math.isfinite(self.h):
            raise ValueError(f"step size h must be finite, got {self.h!r}")
        if not math.isfinite(self.t_end):
            raise ValueError(f"end time t_end must be finite, got {self.t_end!r}")
        if self.steps is not None and not 1 <= self.steps <= MAX_STEPS:
            raise ValueError(f"step count must lie in [1, {MAX_STEPS}], got {self.steps!r}")

    @classmethod
    def divided(cls, t0: float, t_end: float, h: float) -> "StepPlan":
        """Equal steps over [t0, t_end], as many as steps of at most ``h`` need."""
        cls(h, t_end)  # rejects a bad h or t_end before it is used
        span = abs(t_end - t0)
        n = _step_count(span, h)
        return cls(span / n, t_end, n)


def _step_count(span: float, h: float) -> int:
    """Steps of at most ``h`` that cover ``span``; at least one, at most
    ``MAX_STEPS``."""
    if span / h > MAX_STEPS:
        raise ValueError(f"step size h={h!r} needs more than {MAX_STEPS} steps over a span of {span!r}")
    return max(1, math.ceil(span / h))


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
    """Integrate from t0 to t_end on the plan's grid.

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
    if plan.steps is None:
        n = _step_count(abs(span), plan.h)
        hs = math.copysign(plan.h, span)
    else:
        n = plan.steps
        hs = span / n
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
            if k % FINITE_CHECK_STEPS == 0 and not all(map(math.isfinite, y)):
                break
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


def find_zero_crossings(traj: Trajectory, component: int, ivp: IVP) -> list[float]:
    """Refined times where a state component crosses zero.

    A node holding an exact zero counts as one crossing (it terminates the
    previous sign run).  A sign change between adjacent nodes is located on
    g(t), the component after one RK4 step from the earlier node to t, by
    Illinois regula falsi: secant iterates inside the bracket, the value of
    an end kept twice in a row halved.  It stops when g is exactly zero,
    when an iterate does not fall strictly inside the bracket or cannot be
    computed (a right-hand-side error or a non-finite state), or after
    ``CROSSING_MAX_ITER`` iterates, and returns the last iterate.
    """
    if not 0 <= component < traj.dim:
        raise ValueError(f"component {component} out of range for dim {traj.dim}")
    values = traj.component(component)
    crossings: list[float] = []
    for i in range(len(values) - 1):
        a, b = values[i], values[i + 1]
        if a == 0.0:
            crossings.append(traj.times[i])
            continue
        if b == 0.0 or (a < 0.0) == (b < 0.0):
            continue
        local = IVP(ivp.dim, ivp.rhs, traj.times[i], traj.states[i])
        crossings.append(_refine_crossing(local, component, traj.times[i + 1], b))
    if values and values[-1] == 0.0:
        crossings.append(traj.times[-1])
    return crossings


def _refine_crossing(local: IVP, component: int, t_next: float, g_next: float) -> float:
    """Illinois iteration on one RK4 step from ``local``'s start, which
    brackets a zero with the next node ``t_next``."""
    t_lo = local.t0
    kept, g_kept = t_lo, local.y0[component]
    t, g = t_next, g_next
    for _ in range(CROSSING_MAX_ITER):
        t_new = t - (t - kept) * (g / (g - g_kept))  # a ratio in [0, 1]: no overflow
        if not min(kept, t) < t_new < max(kept, t):
            break
        try:
            g_new = integrate_final(local, StepPlan(abs(t_new - t_lo), t_new))[1][component]
        except IntegrationError:
            return t_new
        if g_new == 0.0:
            return t_new
        if (g_new < 0.0) == (g < 0.0):
            g_kept /= 2.0
        else:
            kept, g_kept = t, g
        t, g = t_new, g_new
    return t
