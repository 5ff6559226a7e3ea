"""Command-line interface.

Subcommands: solve (spec-file IVP integration with CSV/SVG output), deriv
(exact rational derivative), fn (ODE-defined function values), table (R-sine
table), pi (series summation), pendulum, ballistics, lox, ellipk, rectify.

The parser is one table of subcommands and their options, built once per
process at its first use from the package's defaults (``stepcalc.MAX_STEPS``,
``stepcalc.TAYLOR_H``, ...), so that it imports no integration module; a
request imports only the modules its handler uses.  Every later request shares
the table, and callers must not change it.  Arguments are read left to right:

- an option is named in full (``--theta0``; ``--the`` names no option) and
  takes its value from the next word or after ``=`` (``--at=3``, ``-n=4``; a
  short option takes no attached value, so ``-n4`` names no option);
- a word led by ``-`` that names no option is a value when it contains a space
  or ``float`` reads it (``-1``, ``-1.5``, ``-1e-05``, ``-(x + 1)``), and
  otherwise an unrecognized argument;
- ``--`` ends the options: every later word, a later ``--`` too, is a value;
- a repeated option takes its last value, and a flag given ``=value`` is a
  usage error;
- ``-h``/``--help`` writes the help of the command it follows when it is read,
  unless a word before it was refused.

Help is laid out for 80 columns on any terminal and any Python version.

Exit codes: 0 success, 1 runtime/domain error, 2 usage/parse error.
"""

from __future__ import annotations

import functools
import math
import sys
from types import SimpleNamespace

from . import (BALLISTICS_H, DEFAULT_HEIGHT, DEFAULT_K, DEFAULT_MAX_TERMS, DEFAULT_WIDTH, EARTH_RADIUS, ELLIPTIC_TOL,
               FUNCTION_H, MAX_STEPS, MERIDIONAL_H, PENDULUM_H, STANDARD_GRAVITY, TABLE_H, TABLE_RADIUS, TAYLOR_H,
               exact_decimal)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from typing import Any, Callable, Sequence

    from .solver import IVP, StepPlan

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

    def take(key: str, convert: Callable[[str], Any] = str, what: str = "") -> tuple[Any, int]:
        """The value of ``key`` as ``convert`` gives it, refused as not ``what``, and its line."""
        if key not in entries:
            raise SpecFileError(f"missing required key {key!r}")
        value, lineno = entries.pop(key)
        try:
            return convert(value), lineno
        except ValueError:
            raise SpecFileError(f"{key}: not {what}: {value!r}", lineno) from None

    def take_float(key: str) -> tuple[float, int]:
        number, lineno = take(key, float, "a number")
        if not math.isfinite(number):
            raise SpecFileError(f"{key} must be finite, got {number!r}", lineno)
        return number, lineno

    dim, lineno = take("dim", int, "an integer")
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

    y0, lineno = take("y0", lambda value: tuple(map(float, value.split(","))), "a comma-separated list of numbers")
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

    def stage(lines: list[str], t: str, y: list[str], known: dict[str, str]) -> list[str]:
        return expr.emit_float(rhs_exprs, dict(zip(names, [t, *y])), lines, known)

    walk = expr.walker(rhs_exprs, names)

    def rhs(t: float, y: Sequence[float]) -> tuple[float, ...]:
        return walk(t, *y)

    return solver.IVP(rhs, t0, y0, stage=stage), plan, method


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
    components = _plot_components(args.components, len(ivp.y0))
    if args.svg:
        from . import svgplot
        svgplot.check_size(args.width, args.height)
    traj = integrate(ivp, plan, method)
    _write_text(args.out, traj.to_csv())
    if args.svg:
        curves = [svgplot.Series(f"y{i + 1}", traj.times, traj.component(i)) for i in components]
        _write_text(args.svg, svgplot.line_plot(curves, width=args.width, height=args.height))
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
    traj, landing = applications.ballistics_trajectory(spec, h=args.h)
    print(_fmt(landing[0]))
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


def _polyline(x_source: str, y_source: str) -> tuple[Callable[[float], tuple[float, ...]], Callable[..., float]]:
    """``applications.rectify``'s curve and length for x(t), y(t): the polyline loop with both trees inlined.
    The curve is the walker, which the loop calls only on a failure, at the failing node: errors and their
    positions are the walker's, and no other node is walked."""
    from . import applications, expr
    trees = [expr.parse(x_source), expr.parse(y_source)]

    def point(lines: list[str], t: str) -> list[str]:
        return expr.emit_float(trees, {"t": t}, lines, {})

    length = expr.compile_guarded("cli.rectify", ["curve", "t_start", "span", "segments"],
                                  applications.polyline_lines(point), "curve(_t)", applications.POLYLINE_NAMES)
    return expr.walker(trees, ["t"]), length


_circle = functools.cache(lambda: _polyline("cos(t)", "sin(t)"))  # its code never changes


def cmd_rectify(args) -> int:
    from . import applications
    if args.x_expr or args.y_expr:
        if not (args.x_expr and args.y_expr):
            raise ValueError("provide both --x-expr and --y-expr, or neither")
        curve, length = _polyline(args.x_expr, args.y_expr)
        t_start, t_end = args.t0, args.t1
    else:
        curve, length = _circle()
        t_start = 0.0 if args.t0 is None else args.t0
        t_end = 2.0 * math.pi if args.t1 is None else args.t1
    if t_start is None or t_end is None:
        raise ValueError("explicit curves need --t0 and --t1")
    print(_fmt(applications.rectify(curve, t_start, t_end, args.segments, length)))
    return 0


# ---------------------------------------------------------------------------
# Parser

def _wrap(first: str, words: list[str], indent: int) -> list[str]:
    """``first`` then ``words``, joined by spaces in lines of at most 80 columns; later lines are indented."""
    lines = [first]
    for word in words:
        if len(lines[-1]) + len(word) > 80 and lines[-1].strip():
            lines.append(" " * indent)
        lines[-1] += word + " "
    return [line.rstrip() for line in lines]


class _Option:
    """A row of a parser's table.  ``names`` is "--name", "--name/-n" or a positional's name; ``convert`` reads the
    value's text (None for a flag, which is False unless given), and a ``bound`` asks for a value in (0, bound]."""

    __slots__ = ("names", "label", "dest", "convert", "default", "required", "choices", "bound", "help")

    def __init__(self, names, convert=str, default=None, required=False, choices=(), bound=None, help=""):
        self.names, self.label = names.split("/"), names
        self.dest = self.names[0].lstrip("-").replace("-", "_").lower()
        self.convert, self.choices, self.bound, self.help = convert, choices, bound, help
        self.default = False if convert is None else default
        self.required = required or names[0] != "-"

    def read(self, text: str):
        """The value that ``text`` gives; ``ValueError`` carries the usage error for one this option refuses."""
        try:
            value = self.convert(text)
        except OverflowError as exc:  # exact_decimal's exponent bound
            raise ValueError(f"{exc}, got {text!r}") from None
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"invalid {self.convert.__name__} value: {text!r}") from None
        if self.choices and value not in self.choices:
            raise ValueError(f"invalid choice: {value!r} (choose from {', '.join(map(repr, self.choices))})")
        if self.bound is not None and not 0 < value <= self.bound:
            raise ValueError(f"must be at most {self.bound}, got {text!r}" if value > 0 else
                             f"must be positive, got {text!r}")
        return value

    def spelled(self, name: str) -> str:
        """``name`` as help shows it, with a placeholder for the value."""
        if name[0] != "-" or self.convert is None:
            return name
        return f"{name} {'{' + ','.join(self.choices) + '}' if self.choices else self.dest.upper()}"


_HELP = _Option("-h/--help", None, help="show this help message and exit")


class _Command:
    """A parser: the table of one subcommand, or the top level's, whose one positional names the subcommand that
    reads the words after it.  Its arguments are read as the module's docstring says."""

    def __init__(self, prog, help, options, handler=None, commands=None):
        self.prog, self.help, self.handler, self.commands = prog, help, handler, commands
        self.options = [_HELP, *options]
        self.named = {name: option for option in self.options for name in option.names if name[0] == "-"}
        self.positionals = [option for option in options if option.names[0][0] != "-"]
        self.defaults = {option.dest: option.default for option in options if not option.required}

    def fail(self, message: str):
        sys.stderr.write(f"{self.prog}: usage error: {message}\n")
        raise SystemExit(2)

    def _kind(self, word: str):
        """The option that ``word`` names, None if it is a value, or False if it is neither."""
        if word[:1] != "-" or word == "-":
            return None
        option = self.named.get(word.partition("=")[0])
        if option is None and " " not in word:
            try:
                float(word)
            except ValueError:
                return False
        return option

    def parse_args(self, argv=None) -> SimpleNamespace:
        """The values of ``argv`` (``sys.argv[1:]`` by default) by name; help and usage errors raise ``SystemExit``."""
        values, extras = self._read(iter(sys.argv[1:] if argv is None else argv))
        if extras:
            self.fail(f"unrecognized arguments: {' '.join(extras)}")
        return SimpleNamespace(**values)

    def _read(self, words) -> tuple[dict, list[str]]:
        """The values that ``words``, an iterator, give by name, and the words that none of them takes."""
        values, extras, positionals, options_end = dict(self.defaults), [], iter(self.positionals), False
        for word in words:
            if word == "--" and not options_end:
                options_end = True
                continue
            option = None if options_end else self._kind(word)
            if option is None:  # a value: the next positional's
                option, text = next(positionals, None), word
            elif option:
                _, attached, text = word.partition("=")
                if option.convert is None:  # a flag
                    if attached:
                        self.fail(f"argument {option.label}: ignored explicit argument {text!r}")
                    if option is _HELP:
                        sys.stdout.write(self.format_help())
                        raise SystemExit(0)
                    values[option.dest] = True
                    continue
                if not attached:
                    text = next(words, None)
                    if text is None or self._kind(text) is not None:
                        self.fail(f"argument {option.label}: expected one argument")
            if not option:
                extras.append(word)
                continue
            try:
                values[option.dest] = option.read(text)
            except ValueError as exc:
                self.fail(f"argument {option.label}: {exc}")
            if self.commands:  # the top level's positional: its subcommand reads the words after it
                command = self.commands[text]
                more, more_extras = command._read(words)
                values.update(more, handler=command.handler)
                extras += more_extras
        missing = [option.label for option in self.options if option.required and option.dest not in values]
        if missing:
            self.fail(f"the following arguments are required: {', '.join(missing)}")
        return values, extras

    def format_help(self) -> str:
        """The help, laid out for 80 columns whatever the terminal's width."""
        options = [option for option in self.options if option.names[0][0] == "-"]
        usage = [option.spelled(option.names[0]) if option.required else f"[{option.spelled(option.names[0])}]"
                 for option in options] + [option.label for option in self.positionals]
        sections = [("positional arguments", [(f"  {option.label}", option.help) for option in self.positionals])]
        if self.commands:
            usage.append("...")
            sections = [("commands", [(f"    {name}", command.help) for name, command in self.commands.items()])]
        sections.append(("options", [("  " + ", ".join(map(option.spelled, option.names)), option.help)
                                     for option in options]))
        column = min(24, 2 + max(len(invocation) for _, rows in sections for invocation, _ in rows))
        head = f"usage: {self.prog} "
        lines = [*_wrap(head, usage, len(head)), "", *_wrap("", self.help.split(), 0), ""]
        for title, rows in sections:
            if rows:
                lines.append(f"{title}:")
                for invocation, text in rows:
                    if len(invocation) + 2 > column and text:
                        lines.append(invocation)
                        invocation = ""
                    lines += _wrap(invocation.ljust(column), text.split(), column)
                lines.append("")
        return "\n".join(lines)


@functools.cache
def build_parser() -> _Command:
    """The parser: the top level's table, which holds each subcommand's, built once per process with the defaults
    the package's constants have at that first call; it imports no other module of the package.  Every later call
    returns the same shared parser: change nothing in it."""
    commands = {}

    def command(name, handler, help_text, *options):
        commands[name] = _Command(f"stepcalc {name}", help_text, options, handler)

    methods = ("euler", "rk4", "taylor")
    command("solve", cmd_solve, "integrate an IVP described by a spec file",
            _Option("spec", help="path to a key = value spec file"),
            _Option("--out", help="write CSV here instead of stdout"),
            _Option("--svg", help="also write a static SVG line plot to this path"),
            _Option("--components", integer_list, help="1-based components to plot, e.g. 1,3"),
            _Option("--width", int, DEFAULT_WIDTH),
            _Option("--height", int, DEFAULT_HEIGHT))
    command("deriv", cmd_deriv, "exact derivative of a rational expression",
            _Option("expr", help="rational expression in one variable, e.g. 'x^2'"),
            _Option("--at", exact_decimal, required=True, help="evaluation point, integer or p/q"))
    command("fn", cmd_fn, "evaluate an ODE-defined function",
            _Option("name", help="exp, sin, cos, sn, cn, dn or invgd"),
            _Option("x", float),
            _Option("--k", float, DEFAULT_K, help="elliptic modulus for sn/cn/dn"),
            _Option("--method", choices=methods, help="default: taylor, rk4 for invgd"),
            _Option("--h", float, help=f"step size; default {TAYLOR_H:g} for taylor, else {FUNCTION_H:g}"),
            _Option("--out", help="write the CSV trajectory here"))
    command("table", cmd_table, "generate the 24-entry R-sine table as CSV",
            _Option("--radius", float, TABLE_RADIUS),
            _Option("--method", default="taylor", choices=methods),
            _Option("--h", float, help=f"step, radians (taylor {TAYLOR_H:g}, else {TABLE_H:g})"),
            _Option("--out", help="write CSV here instead of stdout"))
    command("pi", cmd_pi, "sum the alternating series for pi",
            _Option("--terms", int, 1000, bound=DEFAULT_MAX_TERMS, help="number of terms"),
            _Option("--corrected", None, help="average consecutive partial sums (end correction)"),
            _Option("--discard", float, bound=math.inf, help="discard threshold; sum until the next term is below it"),
            _Option("--mode", default="absolute", choices=("absolute", "relative")),
            _Option("--max-terms", int, DEFAULT_MAX_TERMS, bound=DEFAULT_MAX_TERMS))
    command("pendulum", cmd_pendulum, "pendulum period versus amplitude",
            _Option("--theta0", float, required=True, help="amplitude, radians"),
            _Option("--length", float, 1.0, help="length, meters"),
            _Option("--g", float, STANDARD_GRAVITY),
            _Option("--method", default="elliptic", choices=("ode", "elliptic")),
            _Option("--h", float, PENDULUM_H, help="step size for the ode method"),
            _Option("--sweep", None, help="emit a theta0,period,ratio_to_small_angle CSV up to --theta0"),
            _Option("--sweep-points", int, 20, bound=MAX_SWEEP_POINTS),
            _Option("--out", help="write sweep CSV here instead of stdout"))
    command("ballistics", cmd_ballistics, "range of a projectile with quadratic drag",
            _Option("--mass", float, required=True, help="kg"),
            _Option("--drag", float, 0.0, help="quadratic drag coefficient, kg/m"),
            _Option("--v0", float, required=True, help="launch speed, m/s"),
            _Option("--alpha", float, required=True, help="launch angle, degrees"),
            _Option("--g", float, STANDARD_GRAVITY),
            _Option("--h", float, BALLISTICS_H, help="step size, seconds"),
            _Option("--out", help="write the CSV trajectory here"))
    command("lox", cmd_lox, "rhumb-line bearing and distance on the sphere",
            *(_Option(f"--{name}", float, required=True, help="degrees") for name in ("lat1", "lon1", "lat2", "lon2")),
            _Option("--radius", float, EARTH_RADIUS),
            _Option("--h", float, MERIDIONAL_H, help="step size for the meridional-parts integration"))
    command("ellipk", cmd_ellipk, "complete/incomplete elliptic integral, first kind",
            _Option("--k", float, required=True, help="modulus in [0, 1)"),
            _Option("--phi", float, math.pi / 2, help="amplitude in [0, pi/2]; omit for the complete integral"),
            _Option("--h", float, help="one pass of equal steps of at most this size; by default the step count "
                                       f"doubles until two passes agree to {ELLIPTIC_TOL:g}"))
    command("rectify", cmd_rectify, "polyline length of a parametric curve",
            _Option("--segments/-n", int, 1024, bound=MAX_STEPS),
            _Option("--x-expr", help="x(t) expression; default is the unit circle"),
            _Option("--y-expr", help="y(t) expression"),
            _Option("--t0", float),
            _Option("--t1", float))
    return _Command("stepcalc", "Limit-free calculus toolkit: ODE-defined functions, exact infinitesimal derivatives, "
                    "sine tables, series, and navigation computations.",
                    [_Option("COMMAND", choices=tuple(commands))], commands=commands)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
