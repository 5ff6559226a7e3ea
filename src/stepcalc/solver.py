"""Fixed-step initial-value-problem integration.

Three methods: the plain first-order step-by-step recurrence (Euler), the
classical fourth-order Runge-Kutta update, and a Taylor-series step.  A run
is one generated loop, compiled once for each variant of its step, dimension,
sink (every node, or the last) and stop test.  An Euler or RK4 step in it is
``step_lines``' straight-line Python around a stage emitter, which either
calls the right-hand side or, for an IVP that declares its own ``stage``,
inlines it under either method; such a loop compiles through
``expr.compile_guarded``, which takes a failing step again by calling the
right-hand side, a spec file's tree walker.  The other loops compile through
``stepcalc.generated``, as do the code that ``polynomial_ivp`` writes for a
polynomial system and the Taylor step's loop, straight-line per component and
compiled once per dimension.  A run's nodes are one flat record, t, y1 .. ydim
of each node in turn (``Trajectory``).  Steps are laid out on a uniform grid
from ``t0`` toward ``t_end``; the final step is shortened so the last node
lands on ``t_end`` bit-exactly.  A plan with a
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
two consecutive terms satisfy |c_k,i| |h|^k <= 2^-53 s_i in each component,
s_i = max(|y_i|, |h c_1,i|) at most max|y|, or max|y| where that is 0 (Jorba
and Zou, *Experimental Math.* 14, 2005), and sums them by Horner's rule; a
step from a state that is not finite is refused.  A step whose series has
not got there by order ``TAYLOR_MAX_ORDER`` is split into halves, each taken
the same way (the first on the coefficients its node already has), in at most
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

import functools
import math
from collections.abc import Callable, Sequence

from . import MAX_STEPS, Record, generated

Vector = tuple[float, ...]
RHS = Callable[[float, Sequence[float]], Sequence[float]]
Series = Callable[[list[Vector], int], Vector]
Stage = Callable[[list[str], str, list[str], dict[str, str]], list[str]]

CROSSING_MAX_ITER = 60  # iterates of one zero-crossing search at most
FINITE_CHECK_STEPS = 1024  # steps between checks that the state is finite
TAYLOR_MAX_ORDER = 60  # highest order of one Taylor step
TAYLOR_SPLIT_STEPS = 256  # attempts a split Taylor step may add at most
TAYLOR_DISCARD = 2.0**-53  # a Taylor term below this times its component's size is discarded


class IntegrationError(RuntimeError):
    """An integration failed; carries the start time of the failing step
    (the time of the checked node when its state is non-finite)."""

    def __init__(self, t: float, cause: Exception):
        super().__init__(f"integration failed at t={t!r}: {cause}")
        self.t = t
        self.cause = cause


class IVP(Record, uncompared=("stage",)):
    """An initial-value problem y' = rhs(t, y), y(t0) = y0.

    It declares ``rhs`` (for Euler and RK4), a ``series`` (for Taylor steps),
    or both.  ``integrand`` is f where y' = f(t), enough for RK4 without ``rhs``.
    ``series(cols, k)`` is the Taylor coefficient vector of order k + 1 at a node,
    from those of orders 0..k in ``cols``; ``cols[0]`` is the state there.  A Taylor
    step calls it with k = 0, 1, 2, ... in order, so a series may keep the coefficients
    of an intermediate (ballistics' speed) from call to call, anew at k = 0.
    ``stage`` is a stage emitter (see ``step_lines``) that writes ``rhs``
    inlined as ``expr.emit_float`` code computing what ``rhs`` does, bit for
    bit; Euler and RK4 alike run in a loop compiled around it once for the
    IVP, and a step that fails there is taken again by calling ``rhs``.  It
    is ``rhs`` in another form, so ``==`` and ``hash`` leave it out.  ``y0``
    is kept as a tuple of floats, and its length is the dimension.
    ``replace(t0=..., y0=...)`` restarts the problem from another node.
    """

    __slots__ = ("rhs", "t0", "y0", "integrand", "series", "stage")
    _defaults = {"integrand": None, "series": None, "stage": None}

    def _check(self):
        if not self.y0:
            raise ValueError("initial state y0 must not be empty")
        if self.integrand is not None and len(self.y0) != 1:
            raise ValueError(f"an integrand needs dim 1, got dim {len(self.y0)}")
        object.__setattr__(self, "y0", y0 := tuple(map(float, self.y0)))
        if not math.isfinite(self.t0):
            raise ValueError(f"initial time t0 must be finite, got {self.t0!r}")
        if not all(map(math.isfinite, y0)):
            raise ValueError(f"initial state y0 must be finite, got {y0!r}")


class StepPlan(Record):
    """Step size and target time for one integration run.

    Without ``steps``, steps of ``h`` run from t0 and the last one is
    shortened to land on ``t_end``.  With ``steps``, the span is divided
    into that many equal steps, and ``h`` is their size.
    """

    __slots__ = ("h", "t_end", "steps")
    _defaults = {"steps": None}

    def _check(self):
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


class Trajectory(Record):
    """Nodes recorded by an integrator, as one flat record: ``nodes`` holds t, y1 .. y``dim`` of each node in
    turn, as ``integrate``'s run loop writes them."""

    __slots__ = ("nodes", "dim")

    @property
    def times(self) -> tuple[float, ...]:
        return self.nodes[::self.dim + 1]

    @property
    def states(self) -> tuple[Vector, ...]:
        width = self.dim + 1
        return tuple(zip(*[self.nodes[i::width] for i in range(1, width)]))

    def final_state(self) -> Vector:
        return self.nodes[-self.dim:]

    def component(self, i: int) -> tuple[float, ...]:
        return self.nodes[i + 1::self.dim + 1]

    def to_csv(self) -> str:
        """Render as CSV with round-trippable 17-significant-digit doubles: the header, then one ``%`` over the
        record."""
        width = self.dim + 1
        header = "t," + ",".join(f"y{i}" for i in range(1, width)) + "\n"
        row = ",".join(["%.17g"] * width) + "\n"
        return header + (row * (len(self.nodes) // width)) % self.nodes


def integrate(ivp: IVP, plan: StepPlan, method: str = "rk4", record: bool = True,
              stop: int | None = None) -> Trajectory:
    """Integrate from t0 to t_end on the plan's grid.

    With ``record=False`` only the first and last nodes are kept (streaming
    mode for long integrations).  With ``stop=i`` the run ends at the first
    node whose component i is negative.  RK4 on an IVP with an ``integrand`` is
    Simpson's rule on the grid's nodes, RK4's sum bit for bit only where t + h
    is the next node (see the module docstring).  Euler calls ``rhs``, and
    ``taylor`` only ``series`` (``ValueError`` if the IVP does not declare it).

    The steps run in one generated loop (``_run_loop``), chosen once a call by its step, dimension, sink and
    stop test and compiled once for each such variant, so no step tests which of them applies.
    """
    if method not in ("euler", "rk4", "taylor"):
        raise ValueError(f"unknown method {method!r}")
    if method == "taylor":
        kind, stage, fn = method, None, ivp.series
    elif method == "rk4" and ivp.integrand:
        kind, stage, fn = "simpson", None, ivp.integrand
    else:
        kind, stage, fn = method, ivp.stage or _call_rhs, ivp.rhs
    if fn is None:
        needs = "a series" if method == "taylor" else "a right-hand side"
        raise ValueError(f"method {method!r} needs an IVP that declares {needs}")
    if kind == "taylor":
        fn = functools.partial(_taylor_step, fn)
    t0, t_end, y = ivp.t0, plan.t_end, ivp.y0
    nodes = [t0, *y]
    if t_end == t0:
        return Trajectory(tuple(nodes), len(y))
    span = t_end - t0
    if plan.steps is None:
        n = _step_count(abs(span), plan.h)
        hs = math.copysign(plan.h, span)
    else:
        n = plan.steps
        hs = span / n
    loop = (_run_loop if stage in (None, _call_rhs) else _inlined_loop)(kind, stage, len(y), record, stop)
    t, y = loop(fn, t0, y, hs, n, t_end, MAX_STEPS - n, nodes)  # spare: the attempts split Taylor steps may add
    if not all(map(math.isfinite, y)):
        raise IntegrationError(t, ArithmeticError(f"state is not finite: {y!r}"))
    if not record:
        nodes.append(t)
        nodes += y
    return Trajectory(tuple(nodes), len(y))


@functools.lru_cache(maxsize=64)
def _run_loop(kind: str, stage: Stage | None, dim: int, record: bool, stop: int | None) -> Callable:
    """``run(fn, t0, y, hs, n, t_end, spare, nodes) -> (t, y)``: the n steps of ``integrate`` from (t0, y), ``fn``
    being the right-hand side, the integrand or ``_taylor_step`` on the series.  ``kind`` is "euler" or "rk4"
    (``step_lines`` around ``stage``), "simpson" or "taylor" (within ``spare`` split attempts).  With ``record`` each
    node is appended to ``nodes`` as t, y1 .. ydim.  A failing step of a ``stage`` other than ``_call_rhs`` is taken
    again by the loop that calls ``fn``, so its errors are the right-hand side's.  An ``ArithmeticError`` or
    ``ValueError`` raises ``IntegrationError`` at the failing step's start."""
    names = {"_range": range, "_all": all, "_map": map, "_isfinite": math.isfinite, "_Error": IntegrationError,
             "_ArithmeticError": ArithmeticError, "_ValueError": ValueError}
    if kind == "taylor":
        fn, step = "_step", ["y, left = _step(y, h, _min(spare, _SPLIT))", "spare -= _min(spare, _SPLIT) - left"]
        names.update(_min=min, _SPLIT=TAYLOR_SPLIT_STEPS)
    elif kind == "simpson":
        fn, step = "_f", ["a, b, d = d, _f(t + h / 2), _f(t_next)", "y = (y[0] + h / 6 * (a + 2 * b + 2 * b + d),)"]
    else:
        fn, step = "_rhs", step_lines(kind, dim, stage)
    loop = ["for k in _range(n):",
            "    t_next = t_end if k == n - 1 else t0 + (k + 1) * hs",
            "    h = t_next - t",
            *(f"    {line}" for line in step),
            "    t = t_next",
            *(["    nodes.append(t)", "    nodes += y"] if record else []),
            f"    if k % {FINITE_CHECK_STEPS} == 0 and not _all(_map(_isfinite, y)):",
            "        break",
            *([f"    if y[{stop}] < 0.0:", "        break"] if stop is not None else [])]
    if kind == "simpson":
        loop.insert(0, "d = _f(t)")
    lines = ["t = t0", "try:", *(f"    {line}" for line in loop),
             "except (_ArithmeticError, _ValueError) as exc:", "    raise _Error(t, exc) from exc", "return t, y"]
    label, params = f"solver.run_loop {kind} {dim}", [fn, "t0", "y", "hs", "n", "t_end", "spare", "nodes"]
    if stage in (None, _call_rhs):
        return generated(label, params, lines, names)
    from . import expr  # the step of an inlined right-hand side that fails is taken again by calling it
    walk = f"_loop({kind!r}, _call_rhs, {dim}, False, None)(_rhs, t, y, 0.0, 1, t_next, 0, None)"
    return expr.compile_guarded(label, params, lines, walk, {**names, "_loop": _run_loop, "_call_rhs": _call_rhs})


#: The loops around the stages that IVPs declare, one per spec file: each is compiled once, and only the last few are
#: kept, as each holds its spec's code.
_inlined_loop = functools.lru_cache(maxsize=4)(_run_loop.__wrapped__)


def step_lines(method: str, dim: int, stage: Stage) -> list[str]:
    """The statements of one Euler or RK4 step from (t, y) by h, a tuple ``y`` unpacked at the start and
    assigned the next state at the end.  ``stage(lines, t, y, known)`` appends one right-hand side evaluation at
    the time and state named by the codes it is given and returns the code of each component; ``known`` is one
    dict for all the stages of the step, which the stage may keep for itself.  The float operations and their
    order are the textbook formulas', so every stage emitter gives the same bits.  The step's own locals are
    ``_y<i> _b<i> _c<i> _d<i> _t2 _t1 _h2 _h6``; a stage names its locals otherwise."""
    y = [f"_y{i}" for i in range(dim)]
    lines = [f"{''.join(f'{yi}, ' for yi in y)}= y"]
    known: dict[str, str] = {}

    def at(t: str, factor: str, k: list[str], name: str) -> list[str]:
        state = [f"_{name}{i}" for i in range(dim)]
        lines.extend(f"{si} = {yi} + {factor} * {ki}" for si, yi, ki in zip(state, y, k))
        return stage(lines, t, state, known)

    a = stage(lines, "t", y, known)
    if method == "euler":
        new = [f"{yi} + h * {ai}" for yi, ai in zip(y, a)]
    else:
        lines += ["_h2 = h / 2", "_t2 = t + _h2"]
        b = at("_t2", "_h2", a, "b")
        c = at("_t2", "_h2", b, "c")
        lines.append("_t1 = t + h")
        d = at("_t1", "h", c, "d")
        lines.append("_h6 = h / 6")
        new = [f"{yi} + _h6 * ({ai} + 2 * {bi} + 2 * {ci} + {di})" for yi, ai, bi, ci, di in zip(y, a, b, c, d)]
    lines.append(f"y = ({''.join(f'{v}, ' for v in new)})")
    return lines


def _call_rhs(lines: list[str], t: str, y: list[str], known: dict[str, str]) -> list[str]:
    # unpacking a value of the wrong length raises ValueError
    k = [f"_k{len(lines)}_{i}" for i in range(len(y))]
    lines.append(f"{''.join(f'{ki}, ' for ki in k)}= _rhs({t}, ({''.join(f'{yi}, ' for yi in y)}))")
    return k


def polynomial_ivp(t0: float, y0: Vector, system: Sequence[tuple]) -> IVP:
    """The IVP y_i' = c y_j or c y_j y_l, declared by one ``(c, j)`` or ``(c, j, l)`` per component i, with its
    ``rhs``, c y_j y_l left to right, and its ``series``: order k + 1 of c y_j y_l is c sum y_j,m y_l,(k-m) / (k + 1),
    m = 0..k, one accumulator per distinct (j, l) in one loop over the columns (Parker and Sochacki, 1996).  A c
    of +-1 is written as a sign and any other c passed in, so the code compiles once per shape."""
    signs = [{1: "", -1: "-"}.get(c) for c, *_ in system]
    shape = tuple((sign, *factors) for sign, (_, *factors) in zip(signs, system))
    rhs, series = _polynomial_factory(shape)(*(c for sign, (c, *_) in zip(signs, system) if sign is None))
    return IVP(rhs, t0, y0, series=series)


@functools.lru_cache(maxsize=64)
def _polynomial_factory(shape: tuple) -> Callable[..., tuple[RHS, Series]]:
    a, b = ("".join(f"_{x}{i}, " for i in range(len(shape))) for x in "ab")  # a state's names, as tuple items
    products = list(dict.fromkeys(tuple(factors) for _, *factors in shape if factors[1:]))
    params, rhs, series = [], "", ""
    for i, (sign, *factors) in enumerate(shape):
        params += [f"_c{i}"] if sign is None else []
        c = f"_c{i} * " if sign is None else sign
        term = f"_p{products.index(tuple(factors))}" if factors[1:] else f"cols[k][{factors[0]}]"
        rhs += c + " * ".join(f"_a{j}" for j in factors) + ", "
        series += f"{c}{term} / (k + 1), "
    lines = ["def _rhs(t, y):", f"    {a}= y", f"    return ({rhs})", "def _series(cols, k):",
             *(f"    _p{n} = 0.0" for n in range(len(products)))]
    if products:
        lines.append(f"    for ({a}), ({b}) in zip(cols, reversed(cols)):")
        lines += [f"        _p{n} += _a{j} * _b{l}" for n, (j, l) in enumerate(products)]
    lines += [f"    return ({series})", "return _rhs, _series"]
    return generated(f"solver.polynomial_ivp {shape}", params, lines, {"zip": zip, "reversed": reversed})


def _taylor_step(series: Series, y: Vector, h: float, spare: int, depth: int = 0,
                 given: Sequence[Vector] = ()) -> tuple[Vector, int]:
    """(y(t + h), attempts left of ``spare``) by a Taylor step ``depth`` halvings deep (see the module docstring),
    on the coefficients at y of an attempt refused there, all ``TAYLOR_MAX_ORDER`` of them, if ``given``; ``given``
    may also be the orders that an accepted longer step from y computed, as a term small there is small here."""
    if not all(map(math.isfinite, y)):
        raise ArithmeticError(f"state is not finite: {y!r}")
    total = _taylor_factory(len(y))(series, cols := [y], h, given)  # cols: y and every order the step asked for
    if total is not None:
        return total, spare
    if spare >= 2:
        y, spare = _taylor_step(series, y, h / 2, spare - 2, depth + 1, cols)
        return _taylor_step(series, y, h / 2, spare, depth + 1)
    raise ArithmeticError(f"Taylor series at step h={h * 2**depth!r} has terms above the discard size at order "
                          f"{TAYLOR_MAX_ORDER} after {depth} halvings, all its budget allows; take a smaller step")


@functools.lru_cache(maxsize=64)
def _taylor_factory(dim: int) -> Callable[[Series, list[Vector], float, Sequence[Vector]], Vector | None]:
    """``step(series, cols, h, given)``: y(t + h) by one Taylor step from ``cols == [y]``, or None, ``cols`` then
    holding every order, where its terms are not small by ``TAYLOR_MAX_ORDER``.  Each order is unpacked into locals
    (a wrong length raises ``ValueError``), judged by one ``and`` chain on the components' sizes ``_s<i>`` and
    summed by Horner's rule one statement a component; ``max`` skips a nan after the first component, ``sum`` not."""
    y, c, d, t = ("".join(f"_{x}{i}, " for i in range(dim)) for x in "ycdt")  # each kind of local, as tuple items
    ymax, cmax = (f"_max({', '.join(f'_abs(_{x}{i})' for i in range(dim))})" if dim > 1 else f"_abs(_{x}0)"
                  for x in "yc")  # max(map(abs, v)) on the locals: max's comparisons, in its order
    lines = [f"{y}= cols[0]", f"discard = _D * (top := {ymax})",
             "hk, below, sized, ah = 1.0, False, False, _abs(h)",  # |h|^k, and whether the last term was small
             "for k in range(_ORDER):",
             "    c = given[k + 1] if given else series(cols, k)", f"    {c}= c", "    cols.append(c)", "    hk *= ah",
             f"    small = (largest := {cmax} * hk) <= discard and _isfinite(_sum(c))",
             "    if small and largest:",
             "        if not sized:",  # 2^-53 times each component's size, once a term is below 2^-53 max|y|
             f"            {d}= cols[1]", "            sized = True",
             *(f"            _s{i} = _D * (_min(_max(_abs(_y{i}), _abs(h * _d{i})), top) or top)" for i in range(dim)),
             f"        small = {' and '.join(f'_abs(_c{i}) * hk <= _s{i}' for i in range(dim))}",
             "    if small and below:", "        break", "    below = small",
             "else:", "    return None",
             f"{t}= cols.pop()", f"for {c}in reversed(cols):", *(f"    _t{i} = _c{i} + h * _t{i}" for i in range(dim)),
             f"return ({t})"]
    return generated(f"solver.taylor_step {dim}", ["series", "cols", "h", "given"], lines,
                     {"_D": TAYLOR_DISCARD, "_ORDER": TAYLOR_MAX_ORDER, "_max": max, "_min": min,
                      "_abs": abs, "_sum": sum, "_isfinite": math.isfinite, "range": range, "reversed": reversed})


def integrate_final(ivp: IVP, plan: StepPlan, method: str = "rk4") -> tuple[float, Vector]:
    """Final node only; O(1) memory."""
    traj = integrate(ivp, plan, method, record=False)
    return traj.nodes[-traj.dim - 1], traj.final_state()


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
    nodes, width = traj.nodes, traj.dim + 1
    values = traj.component(component)
    for i in range(1, len(values)):
        a, b = values[i - 1], values[i]
        at = i * width
        if b == 0.0:
            return nodes[at], nodes[at + 1:at + width]
        if a != 0.0 and (a < 0.0) != (b < 0.0):
            local = ivp.replace(t0=nodes[at - width], y0=nodes[at - width + 1:at])
            return _refine_crossing(local, component, nodes[at], nodes[at + 1:at + width], method)
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
