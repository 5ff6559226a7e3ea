"""Command-line interface.

Subcommands: solve (spec-file IVP integration with CSV/SVG output), deriv
(exact rational derivative), fn (ODE-defined function values), table (R-sine
table), pi (series summation), pendulum, ballistics, lox, ellipk, rectify.

A request builds only the subparser it names and imports only the modules
that subparser and its handler use; any other argument list builds them all.
A parser is built once per process for each tuple of names, from the library
constants as they are at its first use, and is shared by every later request
that names the same subcommand; callers must not add arguments or defaults
to it.

Exit codes: 0 success, 1 runtime/domain error, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from typing import Sequence

    from .solver import IVP, StepPlan

# the subcommands, in the order build_parser adds them and --help lists them
COMMANDS = ("solve", "deriv", "fn", "table", "pi", "pendulum", "ballistics", "lox", "ellipk", "rectify")
MAX_SWEEP_POINTS = 10**4  # pendulum --sweep-points; each point is one elliptic_K quadrature


def _fmt(x: float) -> str:
    return f"{x:.17g}"


class SpecFileError(Exception):
    """A spec-file problem; carries the 1-based line number (0 = whole file)."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(message)
        self.line = line


def load_spec_file(path: str) -> tuple[IVP, StepPlan, str]:
    """Parse a line-oriented "key = value" IVP description.

    Required keys: dim, rhs_1 .. rhs_dim, t0, y0, t_end, h, method.  Each
    must appear exactly once; rhs expressions may use t and y1 .. ydim.
    """
    from . import expr, solver
    entries: dict[str, tuple[str, int]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SpecFileError(f"expected 'key = value', got {line!r}", lineno)
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key in entries:
                raise SpecFileError(f"duplicate key {key!r}", lineno)
            entries[key] = (value, lineno)

    def take(key: str) -> tuple[str, int]:
        if key not in entries:
            raise SpecFileError(f"missing required key {key!r}")
        return entries.pop(key)

    def take_float(key: str) -> tuple[float, int]:
        value, lineno = take(key)
        try:
            number = float(value)
        except ValueError:
            raise SpecFileError(f"{key}: not a number: {value!r}", lineno) from None
        if not math.isfinite(number):
            raise SpecFileError(f"{key} must be finite, got {number!r}", lineno)
        return number, lineno

    value, lineno = take("dim")
    try:
        dim = int(value)
    except ValueError:
        raise SpecFileError(f"dim: not an integer: {value!r}", lineno) from None
    if dim < 1:
        raise SpecFileError("dim must be positive", lineno)

    names = ["t"] + [f"y{i}" for i in range(1, dim + 1)]
    allowed = set(names)
    rhs_exprs: list[expr.Expr] = []
    for i in range(1, dim + 1):
        source, lineno = take(f"rhs_{i}")
        try:
            tree = expr.parse(source)
        except expr.ExprSyntaxError as exc:
            raise SpecFileError(f"rhs_{i}: {exc}", lineno) from None
        unknown = expr.variables(tree) - allowed
        if unknown:
            raise SpecFileError(f"rhs_{i}: unknown variable(s) {sorted(unknown)}; allowed: t, y1..y{dim}",
                                lineno)
        rhs_exprs.append(tree)

    t0, _ = take_float("t0")
    t_end, _ = take_float("t_end")
    h, h_line = take_float("h")
    if not h > 0:
        raise SpecFileError("h must be positive", h_line)

    value, lineno = take("y0")
    try:
        y0 = tuple(float(part) for part in value.split(","))
    except ValueError:
        raise SpecFileError(f"y0: not a comma-separated list of numbers: {value!r}", lineno) from None
    if len(y0) != dim:
        raise SpecFileError(f"y0 has {len(y0)} components, expected dim = {dim}", lineno)
    if not all(map(math.isfinite, y0)):
        raise SpecFileError(f"y0 must be finite, got {y0!r}", lineno)

    method, lineno = take("method")
    if method not in ("euler", "rk4"):
        raise SpecFileError(f"method must be 'euler' or 'rk4', got {method!r}", lineno)

    if entries:
        key = sorted(entries)[0]
        raise SpecFileError(f"unknown key {key!r}", entries[key][1])

    plan = solver.StepPlan(h, t_end)
    known: dict[str, str] = {}  # shared by the stages, so a subtree on the same operands is computed once a step

    def stage(lines: list[str], t: str, y: list[str]) -> list[str]:
        return expr.emit_float(rhs_exprs, dict(zip(names, [t, *y])), lines, known)

    walk = expr.walker(rhs_exprs, names)

    def rhs(t: float, y: Sequence[float]) -> tuple[float, ...]:
        return walk(t, *y)

    # on any failure the step is taken again on the walker, which raises the positioned error
    step = expr.compile_guarded(f"cli.load_spec_file {method}", ["t", "h", "y"],
                                solver.step_lines(method, dim, stage), solver.rhs_step(method, dim, rhs))
    return solver.IVP(dim, rhs, t0, y0, steps={method: step}), plan, method


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def integer_list(text: str) -> list[int]:
    """The ``--components`` type: comma-separated integers, none for empty text."""
    return [int(part) for part in text.split(",")] if text else []


def _plot_components(chosen: list[int] | None, dim: int) -> list[int]:
    """0-based indices of the 1-based ``chosen`` components; none chosen is all."""
    chosen = chosen or range(1, dim + 1)
    for i in chosen:
        if not 1 <= i <= dim:
            raise ValueError(f"component {i} out of range 1..{dim}")
    return [i - 1 for i in chosen]


# ---------------------------------------------------------------------------
# Subcommand handlers

def cmd_solve(args) -> int:
    from .solver import integrate
    ivp, plan, method = load_spec_file(args.spec)
    components = _plot_components(args.components, ivp.dim)
    traj = integrate(ivp, plan, method)
    _write_text(args.out, traj.to_csv())
    if args.svg:
        from .svgplot import Series, line_plot
        curves = [Series(f"y{i + 1}", traj.times, traj.component(i)) for i in components]
        _write_text(args.svg, line_plot(curves, width=args.width, height=args.height))
    return 0


def cmd_deriv(args) -> int:
    from . import expr, nonarch
    tree = expr.parse(args.expr)
    names = expr.variables(tree)
    if len(names) != 1:
        raise ValueError(f"expression must contain exactly one variable, found {sorted(names)}")
    name = names.pop()
    result = nonarch.deriv_by_series(lambda x: expr.evaluate_exact(tree, {name: x}, nonarch.Jet), args.at)
    try:
        text = str(result)
    except ValueError:  # an integer over Python's limit on digits converted to text
        raise ValueError("exact result has too many digits to print") from None
    print(text)
    return 0


def cmd_fn(args) -> int:
    from . import functions
    f = functions.by_name(args.name, k=args.k)
    traj = f.trajectory(args.x, method=args.method, h=args.h, record=bool(args.out))
    print(_fmt(traj.final_state()[f.output]))
    if args.out:
        _write_text(args.out, traj.to_csv())
    return 0


def cmd_table(args) -> int:
    from . import tables
    _write_text(args.out, tables.generate_sine_table(args.radius, args.method, args.h).to_csv())
    return 0


def cmd_pi(args) -> int:
    from . import series
    if args.discard is not None:
        policy = series.DiscardPolicy(args.mode, args.discard, args.max_terms)
        result = series.sum_until_discardable(series.LEIBNIZ, policy)
        cap = " (term cap reached)" if result.hit_cap else ""
        print(f"value={_fmt(result.value)} terms_used={result.terms_used} "
              f"discarded_bound={_fmt(result.discarded_bound)}{cap}")
    else:
        # --corrected averages consecutive partial sums (half the next term),
        # not leibniz_pi's Madhava correction, so the printed value is unchanged
        value = series.leibniz_pi(args.terms)
        if args.corrected:
            value += series.leibniz_term(args.terms) / 2.0
        print(_fmt(value))
    return 0


def cmd_pendulum(args) -> int:
    from . import applications
    spec = applications.PendulumSpec(args.length, args.g, args.theta0)
    if args.sweep:
        t_small = spec.small_angle_period()
        lines = ["theta0,period,ratio_to_small_angle"]
        for i in range(1, args.sweep_points + 1):
            theta = args.theta0 * i / args.sweep_points
            point = applications.PendulumSpec(args.length, args.g, theta)
            period = applications.pendulum_period_elliptic(point)
            lines.append(f"{_fmt(theta)},{_fmt(period)},{_fmt(period / t_small)}")
        _write_text(args.out, "\n".join(lines) + "\n")
        return 0
    if args.method == "ode":
        period = applications.pendulum_period_ode(spec, h=args.h)
    else:
        period = applications.pendulum_period_elliptic(spec)
    print(_fmt(period))
    return 0


def cmd_ballistics(args) -> int:
    from . import applications
    spec = applications.BallisticsSpec(args.mass, args.drag, args.v0, math.radians(args.alpha), args.g)
    traj = applications.ballistics_trajectory(spec, h=args.h)
    print(_fmt(applications.landing_range(spec, traj)))
    if args.out:
        _write_text(args.out, traj.to_csv())
    return 0


def cmd_lox(args) -> int:
    from . import applications
    p1 = applications.GeoPoint(math.radians(args.lat1), math.radians(args.lon1))
    p2 = applications.GeoPoint(math.radians(args.lat2), math.radians(args.lon2))
    bearing, distance = applications.loxodrome(p1, p2, args.radius, h=args.h)
    print(f"bearing_rad={_fmt(bearing)} distance_m={_fmt(distance)}")
    return 0


def cmd_ellipk(args) -> int:
    from . import applications
    print(_fmt(applications.elliptic_F(args.phi, args.k, h=args.h)))
    return 0


def cmd_rectify(args) -> int:
    from . import applications, expr
    if args.x_expr or args.y_expr:
        if not (args.x_expr and args.y_expr):
            raise ValueError("provide both --x-expr and --y-expr, or neither")
        curve = expr.compile_float([expr.parse(args.x_expr), expr.parse(args.y_expr)], ["t"])
        t_start, t_end = args.t0, args.t1
    else:
        curve = applications.unit_circle
        t_start = 0.0 if args.t0 is None else args.t0
        t_end = 2.0 * math.pi if args.t1 is None else args.t1
    if t_start is None or t_end is None:
        raise ValueError("explicit curves need --t0 and --t1")
    print(_fmt(applications.rectify(curve, t_start, t_end, args.segments)))
    return 0


# ---------------------------------------------------------------------------
# Parser

def _option_type(convert, positive=False, at_most=None):
    """An argparse ``type=``: a bad value is a usage error naming the option."""
    def parse(text: str):
        try:
            value = convert(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {text!r}") from None
        if positive and not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
        if at_most is not None and value > at_most:
            raise argparse.ArgumentTypeError(f"must be at most {at_most}, got {text!r}")
        return value
    return parse


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line and exits 2; subparsers
    inherit the class."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: usage error: {message}\n")


@functools.cache
def build_parser(names=COMMANDS) -> argparse.ArgumentParser:
    """The parser with a subparser for each subcommand in ``names`` (a tuple).

    It is built once per process for each ``names``, with the defaults the
    library constants have at that first call, and every later call returns
    the same shared parser: add no arguments or defaults to it.
    """
    parser = _Parser(
        prog="stepcalc",
        description="Limit-free calculus toolkit: ODE-defined functions, exact "
                    "infinitesimal derivatives, sine tables, series, and "
                    "navigation computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name, handler, help_text):
        """The subparser for ``name`` when ``names`` holds it, else None."""
        if name in names:
            p = sub.add_parser(name, help=help_text)
            p.set_defaults(handler=handler)
            return p

    if p := command("solve", cmd_solve, "integrate an IVP described by a spec file"):
        from .svgplot import DEFAULT_HEIGHT, DEFAULT_WIDTH
        p.add_argument("spec", help="path to a key = value spec file")
        p.add_argument("--out", help="write CSV here instead of stdout")
        p.add_argument("--svg", help="also write a static SVG line plot to this path")
        p.add_argument("--components", type=integer_list, help="1-based components to plot, e.g. 1,3")
        p.add_argument("--width", type=int, default=DEFAULT_WIDTH)
        p.add_argument("--height", type=int, default=DEFAULT_HEIGHT)

    if p := command("deriv", cmd_deriv, "exact derivative of a rational expression"):
        p.add_argument("expr", help="rational expression in one variable, e.g. 'x^2'")
        p.add_argument("--at", required=True, type=_option_type(Fraction),
                       help="evaluation point, integer or p/q")

    if p := command("fn", cmd_fn, "evaluate an ODE-defined function"):
        from . import functions
        p.add_argument("name", help="exp, sin, cos, sn, cn, dn or invgd")
        p.add_argument("x", type=float)
        p.add_argument("--k", type=float, default=functions.DEFAULT_K, help="elliptic modulus for sn/cn/dn")
        p.add_argument("--method", choices=("euler", "rk4", "taylor"), help="default: taylor, rk4 for invgd")
        p.add_argument("--h", type=float,
                       help=f"step size; default {functions.TAYLOR_H:g} for taylor, else {functions.DEFAULT_H:g}")
        p.add_argument("--out", help="write the CSV trajectory here")

    if p := command("table", cmd_table, "generate the 24-entry R-sine table as CSV"):
        from . import tables
        p.add_argument("--radius", type=float, default=tables.DEFAULT_RADIUS)
        p.add_argument("--method", choices=("euler", "rk4", "taylor"), default="taylor")
        p.add_argument("--h", type=float, help=f"step, radians (taylor {tables.TAYLOR_H:g}, else {tables.DEFAULT_H:g})")
        p.add_argument("--out", help="write CSV here instead of stdout")

    if p := command("pi", cmd_pi, "sum the alternating series for pi"):
        from .series import DEFAULT_MAX_TERMS
        count = _option_type(int, positive=True, at_most=DEFAULT_MAX_TERMS)
        p.add_argument("--terms", type=count, default=1000, help="number of terms")
        p.add_argument("--corrected", action="store_true",
                       help="average consecutive partial sums (end correction)")
        p.add_argument("--discard", type=_option_type(float, positive=True), default=None,
                       help="discard threshold; sum until the next term is below it")
        p.add_argument("--mode", choices=("absolute", "relative"), default="absolute")
        p.add_argument("--max-terms", type=count, default=DEFAULT_MAX_TERMS)

    if p := command("pendulum", cmd_pendulum, "pendulum period versus amplitude"):
        from . import applications
        p.add_argument("--theta0", type=float, required=True, help="amplitude, radians")
        p.add_argument("--length", type=float, default=1.0, help="length, meters")
        p.add_argument("--g", type=float, default=applications.STANDARD_GRAVITY)
        p.add_argument("--method", choices=("ode", "elliptic"), default="elliptic")
        p.add_argument("--h", type=float, default=applications.PENDULUM_H,
                       help="step size for the ode method")
        p.add_argument("--sweep", action="store_true",
                       help="emit a theta0,period,ratio_to_small_angle CSV up to --theta0")
        p.add_argument("--sweep-points", type=_option_type(int, positive=True, at_most=MAX_SWEEP_POINTS),
                       default=20)
        p.add_argument("--out", help="write sweep CSV here instead of stdout")

    if p := command("ballistics", cmd_ballistics, "range of a projectile with quadratic drag"):
        from . import applications
        p.add_argument("--mass", type=float, required=True, help="kg")
        p.add_argument("--drag", type=float, default=0.0, help="quadratic drag coefficient, kg/m")
        p.add_argument("--v0", type=float, required=True, help="launch speed, m/s")
        p.add_argument("--alpha", type=float, required=True, help="launch angle, degrees")
        p.add_argument("--g", type=float, default=applications.STANDARD_GRAVITY)
        p.add_argument("--h", type=float, default=applications.BALLISTICS_H, help="step size, seconds")
        p.add_argument("--out", help="write the CSV trajectory here")

    if p := command("lox", cmd_lox, "rhumb-line bearing and distance on the sphere"):
        from . import applications
        for option in ("--lat1", "--lon1", "--lat2", "--lon2"):
            p.add_argument(option, type=float, required=True, help="degrees")
        p.add_argument("--radius", type=float, default=applications.EARTH_RADIUS)
        p.add_argument("--h", type=float, default=applications.MERIDIONAL_H,
                       help="step size for the meridional-parts integration")

    if p := command("ellipk", cmd_ellipk, "complete/incomplete elliptic integral, first kind"):
        from .applications import ELLIPTIC_TOL
        p.add_argument("--k", type=float, required=True, help="modulus in [0, 1)")
        p.add_argument("--phi", type=float, default=math.pi / 2,
                       help="amplitude in [0, pi/2]; omit for the complete integral")
        p.add_argument("--h", type=float, default=None,
                       help="one pass of equal steps of at most this size; by default the step "
                            f"count doubles until two passes agree to {ELLIPTIC_TOL:g}")

    if p := command("rectify", cmd_rectify, "polyline length of a parametric curve"):
        from .solver import MAX_STEPS
        p.add_argument("--segments", "-n", type=_option_type(int, positive=True, at_most=MAX_STEPS),
                       default=1024)
        p.add_argument("--x-expr", help="x(t) expression; default is the unit circle")
        p.add_argument("--y-expr", help="y(t) expression")
        p.add_argument("--t0", type=float, default=None)
        p.add_argument("--t1", type=float, default=None)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(tuple(argv[:1]) if argv and argv[0] in COMMANDS else COMMANDS)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except SpecFileError as exc:
        where = f"{args.spec}:{exc.line}: " if exc.line else f"{args.spec}: "
        print(f"stepcalc: {where}{exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        from .expr import ExprSyntaxError  # imported here: most requests parse no expression
        print(f"stepcalc: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ExprSyntaxError) else 1


if __name__ == "__main__":
    sys.exit(main())
