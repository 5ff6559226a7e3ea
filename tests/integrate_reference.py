"""``solver.integrate`` as it stood before its steps ran in one generated loop, kept as the reference of
``test_solver.TestRunLoop``'s differential test (as ``argparse_reference`` is the parser's).  It is that Python
loop, which tests the integrand, the step, the series, ``record``, the finite check and ``stop`` on every step
and keeps each node as its own tuple.  Its Euler and RK4 steps are the textbook formulas on ``ivp.rhs``, whose
bits the generated steps give (``TestGeneratedStep``), so a spec file's errors are its walker's."""

import math

from stepcalc import solver
from stepcalc.solver import FINITE_CHECK_STEPS, TAYLOR_SPLIT_STEPS, IntegrationError, _step_count, _taylor_step


def reference_step(rhs, method, t, h, y):
    """Euler's and RK4's textbook formulas."""
    k1 = rhs(t, y)
    if method == "euler":
        return tuple(yi + h * a for yi, a in zip(y, k1))
    k2 = rhs(t + h / 2, [yi + h / 2 * a for yi, a in zip(y, k1)])
    k3 = rhs(t + h / 2, [yi + h / 2 * b for yi, b in zip(y, k2)])
    k4 = rhs(t + h, [yi + h * c for yi, c in zip(y, k3)])
    return tuple(yi + h / 6 * (a + 2 * b + 2 * c + d) for yi, a, b, c, d in zip(y, k1, k2, k3, k4))


def integrate(ivp, plan, method="rk4", record=True, stop=None):
    """The nodes' times and states, as two tuples; a failure raises as ``solver.integrate`` does."""
    if method not in ("euler", "rk4", "taylor"):
        raise ValueError(f"unknown method {method!r}")
    f = ivp.integrand if method == "rk4" else None
    series = ivp.series if method == "taylor" else None
    if (series if method == "taylor" else f or ivp.rhs) is None:
        needs = "a series" if method == "taylor" else "a right-hand side"
        raise ValueError(f"method {method!r} needs an IVP that declares {needs}")
    t0, t_end = ivp.t0, plan.t_end
    t, y = t0, ivp.y0
    if t_end == t0:
        return (t0,), (y,)
    span = t_end - t0
    if plan.steps is None:
        n = _step_count(abs(span), plan.h)
        hs = math.copysign(plan.h, span)
    else:
        n = plan.steps
        hs = span / n
    times = [t0]
    states = [y]
    spare = solver.MAX_STEPS - n  # attempts the run's split steps may add
    try:
        d = f(t0) if f else None
        for k in range(n):
            t_next = t_end if k == n - 1 else t0 + (k + 1) * hs
            h = t_next - t
            if f:
                a, b, d = d, f(t + h / 2), f(t_next)
                y = (y[0] + h / 6 * (a + 2 * b + 2 * b + d),)
            elif not series:
                y = reference_step(ivp.rhs, method, t, h, y)
            else:
                y, left = _taylor_step(series, y, h, min(spare, TAYLOR_SPLIT_STEPS))
                spare -= min(spare, TAYLOR_SPLIT_STEPS) - left
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
    return tuple(times), tuple(states)
