"""Per-layer tracing of stepcalc from outside the program.

``Tracer.install`` replaces public functions of each stepcalc module, the
names other modules bound with ``from .x import y``, and a few class
attributes, with wrappers that record spans and counts; ``uninstall`` puts
the originals back.  Nothing in ``src/`` knows about it.

A span is (name, start, end, parent), kept in flat arrays in memory and
written out when the run ends.  Self time is a span's duration minus the
time its child spans cover.  Counts that the program does not expose
(integration steps, RHS evaluations, series terms) are computed from the
wrapped call's arguments or result and are marked "computed" in the report.
"""

from __future__ import annotations

import gzip
import math
from array import array
from collections import Counter
from time import perf_counter

# Integration stages per step.
_STAGES = {"euler": 1, "rk4": 4}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_factor = array("d")  # speed scale factor of the span's request
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._depth: Counter = Counter()  # calls under way, for guarded names
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _begin(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self.span_end.append(0.0)
        self._open.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _end(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._open.pop()

    def timed(self, name: str, fn, before=None, after=None, track_depth=False):
        """Wrap ``fn`` in a span; ``before(args, kwargs)`` and
        ``after(args, kwargs, result)`` update counts.  With ``track_depth``,
        ``self._depth[name]`` counts the calls under way."""
        name_id = self._name_id(name)
        calls = name + ".calls"
        depth = self._depth

        def wrapper(*args, **kwargs):
            self.counts[calls] += 1
            if before is not None:
                before(args, kwargs)
            idx = self._begin(name_id)
            if track_depth:
                depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
                if track_depth:
                    depth[name] -= 1
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def recursive(self, name: str, fn):
        """Wrap a recursive tree walker: count every node, time the
        outermost call only."""
        name_id = self._name_id(name)
        calls, nodes = name + ".calls", name + ".nodes"
        depth = self._depth

        def wrapper(*args, **kwargs):
            self.counts[nodes] += 1
            if depth[name]:
                return fn(*args, **kwargs)
            self.counts[calls] += 1
            depth[name] = 1
            idx = self._begin(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(idx)
                depth[name] = 0

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, bump):
        """Wrap without a span; ``bump(args)`` updates counts."""

        def wrapper(*args, **kwargs):
            bump(args)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing --------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _replace_everywhere(self, modules, attr: str, wrapper) -> None:
        """Replace ``attr`` in every module that binds the same object."""
        original = wrapper.__wrapped__
        for mod in modules:
            if mod.__dict__.get(attr) is original:
                self._replace(mod, attr, wrapper)

    def install(self) -> None:
        from stepcalc import (applications, cli, expr, functions, nonarch, series,
                              solver, svgplot, tables)

        modules = (applications, cli, expr, functions, nonarch, series, solver, svgplot, tables)
        counts = self.counts
        in_crossings = self._depth
        crossings_name = "solver.find_zero_crossings"

        def integrate_steps(args, kwargs):
            ivp, plan = args[0], args[1]
            method = args[2] if len(args) > 2 else kwargs.get("method", "rk4")
            span = plan.t_end - ivp.t0
            steps = max(1, math.ceil(abs(span) / plan.h)) if span else 0
            counts["solver.steps"] += steps
            counts["solver.rhs_evals"] += steps * _STAGES.get(method, 0)
            if in_crossings[crossings_name]:
                counts["solver.bisect_steps"] += steps

        def bisect_iter(args, kwargs):
            if in_crossings[crossings_name]:
                counts["solver.bisect_iters"] += 1

        def partial_sum_terms(args, kwargs):
            counts["series.terms"] += args[1] if len(args) > 1 else kwargs["n"]

        def discard_sum_terms(args, kwargs, result):
            # the first omitted term is evaluated too
            counts["series.terms"] += result.terms_used + 1

        def rectify_segments(args, kwargs):
            counts["applications.rectify.segments"] += args[3] if len(args) > 3 else kwargs["segments"]

        def poly_mul(args):
            a, b = args
            counts["nonarch.poly_mul.count"] += 1
            counts["nonarch.poly_mul.coeff_products"] += len(a.coeffs) * len(b.coeffs)

        def poly_divmod(args):
            counts["nonarch.poly_divmod.count"] += 1

        def ratfunc_init(args):
            counts["nonarch.ratfunc_init.count"] += 1

        plain = [
            (cli, "main", "cli.main"),
            (cli, "build_parser", "cli.build_parser"),
            (cli, "load_spec_file", "cli.load_spec_file"),
            (expr, "parse", "expr.parse"),
            (nonarch, "deriv_at", "nonarch.deriv_at"),
            (solver, "integrate_final", "solver.integrate_final"),
            (tables, "generate_sine_table", "tables.generate_sine_table"),
            (series, "sum_until_discardable", "series.sum_until_discardable"),
            (applications, "elliptic_F", "applications.elliptic_F"),
            (applications, "pendulum_period_ode", "applications.pendulum_period_ode"),
            (applications, "ballistics_range", "applications.ballistics_range"),
            (applications, "loxodrome", "applications.loxodrome"),
            (svgplot, "line_plot", "svgplot.line_plot"),
        ]
        hooks = {
            "solver.integrate_final": (bisect_iter, None),
            "series.sum_until_discardable": (None, discard_sum_terms),
        }
        for mod, attr, name in plain:
            before, after = hooks.get(name, (None, None))
            self._replace_everywhere(modules, attr, self.timed(name, getattr(mod, attr), before, after))
        self._replace_everywhere(modules, "integrate",
                                 self.timed("solver.integrate", solver.integrate, integrate_steps))
        self._replace_everywhere(modules, "find_zero_crossings",
                                 self.timed(crossings_name, solver.find_zero_crossings,
                                            track_depth=True))
        self._replace_everywhere(modules, "partial_sum",
                                 self.timed("series.partial_sum", series.partial_sum, partial_sum_terms))
        self._replace_everywhere(modules, "rectify",
                                 self.timed("applications.rectify", applications.rectify, rectify_segments))
        self._replace_everywhere(modules, "evaluate", self.recursive("expr.evaluate", expr.evaluate))
        self._replace_everywhere(modules, "evaluate_exact",
                                 self.recursive("expr.evaluate_exact", expr.evaluate_exact))
        self._replace(functions.OdeFunction, "__call__",
                      self.timed("functions.ode_function", functions.OdeFunction.__call__))
        self._replace(solver.Trajectory, "to_csv", self.timed("solver.to_csv", solver.Trajectory.to_csv))
        self._replace(nonarch.Poly, "__mul__", self.counted(nonarch.Poly.__mul__, poly_mul))
        self._replace(nonarch.Poly, "__divmod__", self.counted(nonarch.Poly.__divmod__, poly_divmod))
        self._replace(nonarch.RatFunc, "__init__", self.counted(nonarch.RatFunc.__init__, ratfunc_init))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def close_request(self, factor: float) -> None:
        """Give the spans recorded since the last call the speed scale
        factor of the request that made them."""
        self.span_factor.extend([factor] * (len(self.span_name) - len(self.span_factor)))

    # -- reporting ---------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self milliseconds per span name, scaled to the
        reference speed where a request's factor is known."""
        n = len(self.span_name)
        self.close_request(1.0)
        dur = [(self.span_end[i] - self.span_start[i]) * self.span_factor[i] for i in range(n)]
        own = list(dur)
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                own[p] -= dur[i]
        total: Counter = Counter()
        selfs: Counter = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            total[name] += dur[i] * 1e3
            selfs[name] += own[i] * 1e3
        return dict(total), dict(selfs)

    def write_spans(self, path: str) -> None:
        """One line per span: index, name, start and end in seconds as
        timed, parent, and the speed scale factor of its request."""
        self.close_request(1.0)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start_s,end_s,parent,speed_factor\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i},{self.names[self.span_name[i]]},{self.span_start[i]:.9f},"
                         f"{self.span_end[i]:.9f},{self.span_parent[i]},"
                         f"{self.span_factor[i]:.6f}\n")


#: Per-layer metrics reported by a traced run: (name, unit, source), where
#: source is "total", "self" or "count".  Counts marked computed in
#: COMPUTED are derived from call arguments, not observed inside the program.
LAYER_METRICS = [
    ("cli.build_parser.ms", "ms", "total"),
    ("cli.main.self_ms", "ms", "self"),
    ("cli.load_spec_file.ms", "ms", "total"),
    ("expr.parse.calls", "count", "count"),
    ("expr.parse.ms", "ms", "total"),
    ("expr.evaluate.calls", "count", "count"),
    ("expr.evaluate.nodes", "count", "count"),
    ("expr.evaluate.ms", "ms", "total"),
    ("expr.evaluate_exact.nodes", "count", "count"),
    ("expr.evaluate_exact.ms", "ms", "total"),
    ("nonarch.deriv_at.calls", "count", "count"),
    ("nonarch.deriv_at.ms", "ms", "total"),
    ("nonarch.poly_mul.count", "count", "count"),
    ("nonarch.poly_mul.coeff_products", "count", "count"),
    ("nonarch.poly_divmod.count", "count", "count"),
    ("nonarch.ratfunc_init.count", "count", "count"),
    ("solver.integrate.calls", "count", "count"),
    ("solver.integrate.self_ms", "ms", "self"),
    ("solver.steps", "count", "count"),
    ("solver.rhs_evals", "count", "count"),
    ("solver.find_zero_crossings.ms", "ms", "total"),
    ("solver.bisect_iters", "count", "count"),
    ("solver.bisect_steps", "count", "count"),
    ("solver.to_csv.ms", "ms", "total"),
    ("functions.ode_function.calls", "count", "count"),
    ("functions.ode_function.ms", "ms", "total"),
    ("tables.generate_sine_table.ms", "ms", "total"),
    ("series.partial_sum.ms", "ms", "total"),
    ("series.sum_until_discardable.ms", "ms", "total"),
    ("series.terms", "count", "count"),
    ("applications.elliptic_F.ms", "ms", "total"),
    ("applications.pendulum_period_ode.ms", "ms", "total"),
    ("applications.ballistics_range.ms", "ms", "total"),
    ("applications.loxodrome.ms", "ms", "total"),
    ("applications.rectify.ms", "ms", "total"),
    ("applications.rectify.segments", "count", "count"),
    ("svgplot.line_plot.ms", "ms", "total"),
]

COMPUTED = {"solver.steps", "solver.rhs_evals", "solver.bisect_steps", "series.terms",
            "applications.rectify.segments"}


def layer_values(tracer: Tracer) -> dict[str, float]:
    total, selfs = tracer.totals()
    out = {}
    for name, _unit, source in LAYER_METRICS:
        if source == "count":
            out[name] = tracer.counts.get(name, 0)
        else:
            span = name.rsplit(".", 1)[0]
            out[name] = (total if source == "total" else selfs).get(span, 0.0)
    return out
