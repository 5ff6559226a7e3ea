"""Fixed-step initial-value-problem integration.

Three methods: the plain first-order step-by-step recurrence (Euler), the
classical fourth-order Runge-Kutta update, and a Taylor-series step.  Steps
are laid out on a uniform grid from ``t0`` toward ``t_end``; the final step
is shortened so the last node lands on ``t_end`` bit-exactly.  A plan with a
step count instead divides the span into that many equal steps
(``StepPlan.divided``); the fixed-interval quadratures use it, because for a
periodic integrand the equal-division grid converges geometrically where a
shortened last step falls back to the method's order.  Backward
integration (``t_end < t0``) uses the same machinery with a negated step.
For an IVP that declares its right-hand side an integrand f(t), the RK4 route
is Simpson's rule on the grid's nodes: f at each step's midpoint and at the
next node, where the next step starts, so f is evaluated twice per step.  It
is RK4's sum bit for bit only where t + h is the next node, as on a grid from
t0 = 0, where each step t_next - t is exact (Sterbenz).

A Taylor step (Moore, *Interval Analysis*, 1966, ch. 11) adds the
coefficients c_k of y(t + s) = sum c_k s^k from the IVP's ``series`` until
two consecutive terms satisfy max_i |c_k,i| |h|^k <= 2^-53 max_i |y_i|, and
sums them by Horner's rule.  A step whose series has not got there by order
``TAYLOR_MAX_ORDER`` is split into halves, each taken the same way, in at most
``TAYLOR_SPLIT_STEPS`` more attempts (two a halving, so at most 128 levels
deep), all within ``MAX_STEPS`` attempts a run, one kept for each step; past
that it is refused.  The grid nodes stay at multiples of h.

A run may stop at the first node where a named state component is negative
(``integrate(..., stop=i)``), as at a projectile's landing.  The first zero
crossing of a state component after the start is located, with its state,
by a bracketed secant (Illinois) iteration on one step of the run's method
from the node before it: to the step's local error in a few steps, not to a
fixed width in t (Hairer, Norsett and Wanner, *Solving ODEs I*, II.6).

Failures: ``IVP`` and ``StepPlan`` reject non-finite times, states and step
sizes and a step size that is not positive with ``ValueError``, and so does
``integrate`` for a plan of more than ``MAX_STEPS`` steps and for a method
whose function the IVP does not declare.  During integration, an
``ArithmeticError`` or ``ValueError`` from the right-hand side or ``series``
(expression errors included), a right-hand side of the wrong length, a
refused Taylor step and a non-finite state each raise ``IntegrationError``;
any other exception propagates unchanged.  The state is checked every
``FINITE_CHECK_STEPS`` steps and at the end, so a run that overflows stops
soon after, not at ``t_end``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

Vector = tuple[float, ...]
RHS = Callable[[float, Sequence[float]], Sequence[float]]
Series = Callable[[list[Vector], int], Vector]

CROSSING_MAX_ITER = 60  # iterates of one zero-crossing search at most
MAX_STEPS = 10**7  # step budget of one integration run
FINITE_CHECK_STEPS = 1024  # steps between checks that the state is finite
TAYLOR_MAX_ORDER = 60  # highest order of one Taylor step
TAYLOR_SPLIT_STEPS = 256  # attempts a split Taylor step may add at most
TAYLOR_DISCARD = 2.0**-53  # a Taylor term below this times max|y| is discarded


class IntegrationError(RuntimeError):
    """An integration failed; carries the start time of the failing step
    (the time of the checked node when its state is non-finite)."""

    def __init__(self, t: float, cause: Exception):
        super().__init__(f"integration failed at t={t!r}: {cause}")
        self.t = t
        self.cause = cause


@dataclass(frozen=True)
class IVP:
    """An initial-value problem y' = rhs(t, y), y(t0) = y0.

    It declares ``rhs`` (for Euler and RK4), a ``series`` (for Taylor steps),
    or both.  ``integrand`` is f where rhs(t, y) is (f(t),).  ``series(cols, k)``
    is the Taylor coefficient vector of order k + 1 at a node, from those of
    orders 0..k in ``cols``; ``cols[0]`` is the state there.  A Taylor step calls
    it with k = 0, 1, 2, ... in order, so a series may keep the coefficients of
    its intermediates (a sine, a speed) from call to call, anew at k = 0.
    """

    dim: int
    rhs: RHS | None
    t0: float
    y0: Vector
    integrand: Callable[[float], float] | None = None
    series: Series | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.integrand is not None and self.dim != 1:
            raise ValueError(f"an integrand needs dim 1, got dim {self.dim}")
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
        row = ",".join(["%.17g"] * (dim + 1))
        lines = ["t," + ",".join(f"y{i + 1}" for i in range(dim))]
        lines += [row % (t, *state) for t, state in zip(self.times, self.states)]
        return "\n".join(lines) + "\n"


def integrate(ivp: IVP, plan: StepPlan, method: str = "rk4", record: bool = True,
              stop: int | None = None) -> Trajectory:
    """Integrate from t0 to t_end on the plan's grid.

    With ``record=False`` only the first and last nodes are kept (streaming
    mode for long integrations).  With ``stop=i`` the run ends at the first
    node whose component i is negative.  RK4 on an IVP with an ``integrand`` is
    Simpson's rule on the grid's nodes, RK4's sum bit for bit only where t + h
    is the next node (see the module docstring).  Euler calls ``rhs``, and
    ``taylor`` only ``series`` (``ValueError`` if the IVP does not declare it).
    """
    if method not in ("euler", "rk4", "taylor"):
        raise ValueError(f"unknown method {method!r}")
    rhs = ivp.rhs
    f = ivp.integrand if method == "rk4" else None
    series = ivp.series if method == "taylor" else None
    if (series if method == "taylor" else rhs) is None:
        needs = "a series" if method == "taylor" else "a right-hand side"
        raise ValueError(f"method {method!r} needs an IVP that declares {needs}")
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
    spare = MAX_STEPS - n  # attempts the run's split steps may add
    try:
        d = f(t0) if f else None
        for k in range(n):
            t_next = t_end if k == n - 1 else t0 + (k + 1) * hs
            h = t_next - t
            if f:
                a, b, d = d, f(t + h / 2), f(t_next)
                y = (y[0] + h / 6 * (a + 2 * b + 2 * b + d),)
            elif method == "euler":
                y = tuple([yi + h * a for yi, a in zip(y, rhs(t, y), strict=True)])
            elif series:
                y, left = _taylor_step(series, y, h, min(spare, TAYLOR_SPLIT_STEPS))
                spare -= min(spare, TAYLOR_SPLIT_STEPS) - left
            else:
                k1 = rhs(t, y)
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
            if stop is not None and y[stop] < 0.0:
                break
    except (ArithmeticError, ValueError) as exc:
        raise IntegrationError(t, exc) from exc
    if not all(map(math.isfinite, y)):
        raise IntegrationError(t, ArithmeticError(f"state is not finite: {y!r}"))
    if not record:
        times.append(t)
        states.append(y)
    return Trajectory(tuple(times), tuple(states))


def _taylor_step(series: Series, y: Vector, h: float, spare: int, depth: int = 0) -> tuple[Vector, int]:
    """(y(t + h), attempts left of ``spare``) by a Taylor step ``depth`` halvings deep (see the module docstring)."""
    cols = [y]
    discard = TAYLOR_DISCARD * max(map(abs, y))
    hk, below = 1.0, False  # |h|^k, and whether the last term was below the discard size
    for k in range(TAYLOR_MAX_ORDER):
        c = series(cols, k)
        cols.append(c)
        hk *= abs(h)
        small = max(map(abs, c)) * hk <= discard and math.isfinite(sum(c))  # max skips a nan after the first
        if small and below:
            break
        below = small
    else:
        if spare >= 2:
            y, spare = _taylor_step(series, y, h / 2, spare - 2, depth + 1)
            return _taylor_step(series, y, h / 2, spare, depth + 1)
        raise ArithmeticError(f"Taylor series at step h={h * 2**depth!r} has terms above the discard size at order "
                              f"{TAYLOR_MAX_ORDER} after {depth} halvings, all its budget allows; take a smaller step")
    total = cols.pop()
    for c in reversed(cols):
        total = [ci + h * ti for ci, ti in zip(c, total, strict=True)]
    return tuple(total), spare


def integrate_final(ivp: IVP, plan: StepPlan, method: str = "rk4") -> tuple[float, Vector]:
    """Final node only; O(1) memory."""
    traj = integrate(ivp, plan, method, record=False)
    return traj.times[-1], traj.states[-1]


def find_zero_crossings(traj: Trajectory, component: int, ivp: IVP, method: str = "rk4") -> tuple[float, Vector] | None:
    """The first zero of a state component after the start node as (t, state),
    or None; the name stays plural because the benchmark's tracer binds it.

    A later node holding an exact zero is a crossing with its own state (a
    zero at the start node is the initial condition).  A sign change from a
    nonzero node value to the next is located on g(t), the component after
    one step of ``method`` from the earlier node to t, by Illinois regula falsi: secant
    iterates inside the bracket, an end kept twice in a row having its value
    halved, until g is exactly zero, an iterate is not strictly inside the
    bracket or ``CROSSING_MAX_ITER`` iterates are done.  The crossing is the
    last accepted iterate with its step's state, else whichever bracket node
    holds the smaller |value|; a step that fails raises ``IntegrationError``.
    """
    if not 0 <= component < traj.dim:
        raise ValueError(f"component {component} out of range for dim {traj.dim}")
    states = traj.states
    for i in range(1, len(states)):
        a, b = states[i - 1][component], states[i][component]
        if b == 0.0:
            return traj.times[i], states[i]
        if a != 0.0 and (a < 0.0) != (b < 0.0):
            local = IVP(ivp.dim, ivp.rhs, traj.times[i - 1], states[i - 1], series=ivp.series)
            return _refine_crossing(local, component, traj.times[i], states[i], method)
    return None


def _refine_crossing(local: IVP, component: int, t_next: float, y_next: Vector, method: str) -> tuple[float, Vector]:
    """Illinois iteration on one step of ``method`` from ``local``'s start, which
    brackets a zero with the next node (``t_next``, ``y_next``)."""
    t_lo = local.t0
    kept, g_kept = t_lo, local.y0[component]
    t, y, g = t_next, y_next, y_next[component]
    for _ in range(CROSSING_MAX_ITER):
        t_new = t - (t - kept) * (g / (g - g_kept))  # a ratio in [0, 1]: no overflow
        if not min(kept, t) < t_new < max(kept, t):
            break
        y_new = integrate_final(local, StepPlan(abs(t_new - t_lo), t_new), method)[1]
        g_new = y_new[component]
        if g_new == 0.0:
            return t_new, y_new
        if (g_new < 0.0) == (g < 0.0):
            g_kept /= 2.0
        else:
            kept, g_kept = t, g
        t, y, g = t_new, y_new, g_new
    return (t_lo, local.y0) if t == t_next and abs(local.y0[component]) < abs(g) else (t, y)  # none accepted
