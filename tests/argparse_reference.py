"""The argparse parser that ``stepcalc.cli`` used before it read its arguments from a table, kept as the
reference of ``test_parser.py``'s differential test (as ``TestPolynomialIvp`` keeps the hand recurrences).
It is ``cli.build_parser`` as it stood then, with the handlers and defaults of today's package."""

import argparse
import functools
import math

from stepcalc import (BALLISTICS_H, DEFAULT_HEIGHT, DEFAULT_K, DEFAULT_MAX_TERMS, DEFAULT_WIDTH, EARTH_RADIUS,
                      ELLIPTIC_TOL, FUNCTION_H, MAX_STEPS, MERIDIONAL_H, PENDULUM_H, STANDARD_GRAVITY, TABLE_H,
                      TABLE_RADIUS, TAYLOR_H, exact_decimal)
from stepcalc.cli import (MAX_SWEEP_POINTS, cmd_ballistics, cmd_deriv, cmd_ellipk, cmd_fn, cmd_lox, cmd_pendulum,
                          cmd_pi, cmd_rectify, cmd_solve, cmd_table, integer_list)


def _option_type(convert, positive=False, at_most=None):
    """An argparse ``type=``: a bad value is a usage error naming the option."""
    def parse(text: str):
        try:
            value = convert(text)
        except OverflowError as exc:  # exact_decimal's exponent bound
            raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from None
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {text!r}") from None
        if positive and not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
        if at_most is not None and value > at_most:
            raise argparse.ArgumentTypeError(f"must be at most {at_most}, got {text!r}")
        return value
    return parse


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line and exits 2, and wraps help at
    80 columns; subparsers inherit the class and its formatter."""

    def __init__(self, **kwargs):  # argparse's width on an 80-column terminal; asking the terminal imports shutil
        super().__init__(formatter_class=lambda prog: argparse.HelpFormatter(prog, width=78), **kwargs)

    def error(self, message: str):
        self.exit(2, f"{self.prog}: usage error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser with a subparser for each subcommand, built once per process."""
    parser = _Parser(
        prog="stepcalc",
        description="Limit-free calculus toolkit: ODE-defined functions, exact "
                    "infinitesimal derivatives, sine tables, series, and "
                    "navigation computations.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = command("solve", cmd_solve, "integrate an IVP described by a spec file")
    p.add_argument("spec", help="path to a key = value spec file")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.add_argument("--svg", help="also write a static SVG line plot to this path")
    p.add_argument("--components", type=integer_list, help="1-based components to plot, e.g. 1,3")
    p.add_argument("--width", type=int, default=DEFAULT_WIDTH)
    p.add_argument("--height", type=int, default=DEFAULT_HEIGHT)

    p = command("deriv", cmd_deriv, "exact derivative of a rational expression")
    p.add_argument("expr", help="rational expression in one variable, e.g. 'x^2'")
    p.add_argument("--at", required=True, type=_option_type(exact_decimal),
                   help="evaluation point, integer or p/q")

    p = command("fn", cmd_fn, "evaluate an ODE-defined function")
    p.add_argument("name", help="exp, sin, cos, sn, cn, dn or invgd")
    p.add_argument("x", type=float)
    p.add_argument("--k", type=float, default=DEFAULT_K, help="elliptic modulus for sn/cn/dn")
    p.add_argument("--method", choices=("euler", "rk4", "taylor"), help="default: taylor, rk4 for invgd")
    p.add_argument("--h", type=float,
                   help=f"step size; default {TAYLOR_H:g} for taylor, else {FUNCTION_H:g}")
    p.add_argument("--out", help="write the CSV trajectory here")

    p = command("table", cmd_table, "generate the 24-entry R-sine table as CSV")
    p.add_argument("--radius", type=float, default=TABLE_RADIUS)
    p.add_argument("--method", choices=("euler", "rk4", "taylor"), default="taylor")
    p.add_argument("--h", type=float, help=f"step, radians (taylor {TAYLOR_H:g}, else {TABLE_H:g})")
    p.add_argument("--out", help="write CSV here instead of stdout")

    p = command("pi", cmd_pi, "sum the alternating series for pi")
    count = _option_type(int, positive=True, at_most=DEFAULT_MAX_TERMS)
    p.add_argument("--terms", type=count, default=1000, help="number of terms")
    p.add_argument("--corrected", action="store_true",
                   help="average consecutive partial sums (end correction)")
    p.add_argument("--discard", type=_option_type(float, positive=True), default=None,
                   help="discard threshold; sum until the next term is below it")
    p.add_argument("--mode", choices=("absolute", "relative"), default="absolute")
    p.add_argument("--max-terms", type=count, default=DEFAULT_MAX_TERMS)

    p = command("pendulum", cmd_pendulum, "pendulum period versus amplitude")
    p.add_argument("--theta0", type=float, required=True, help="amplitude, radians")
    p.add_argument("--length", type=float, default=1.0, help="length, meters")
    p.add_argument("--g", type=float, default=STANDARD_GRAVITY)
    p.add_argument("--method", choices=("ode", "elliptic"), default="elliptic")
    p.add_argument("--h", type=float, default=PENDULUM_H,
                   help="step size for the ode method")
    p.add_argument("--sweep", action="store_true",
                   help="emit a theta0,period,ratio_to_small_angle CSV up to --theta0")
    p.add_argument("--sweep-points", type=_option_type(int, positive=True, at_most=MAX_SWEEP_POINTS),
                   default=20)
    p.add_argument("--out", help="write sweep CSV here instead of stdout")

    p = command("ballistics", cmd_ballistics, "range of a projectile with quadratic drag")
    p.add_argument("--mass", type=float, required=True, help="kg")
    p.add_argument("--drag", type=float, default=0.0, help="quadratic drag coefficient, kg/m")
    p.add_argument("--v0", type=float, required=True, help="launch speed, m/s")
    p.add_argument("--alpha", type=float, required=True, help="launch angle, degrees")
    p.add_argument("--g", type=float, default=STANDARD_GRAVITY)
    p.add_argument("--h", type=float, default=BALLISTICS_H, help="step size, seconds")
    p.add_argument("--out", help="write the CSV trajectory here")

    p = command("lox", cmd_lox, "rhumb-line bearing and distance on the sphere")
    for option in ("--lat1", "--lon1", "--lat2", "--lon2"):
        p.add_argument(option, type=float, required=True, help="degrees")
    p.add_argument("--radius", type=float, default=EARTH_RADIUS)
    p.add_argument("--h", type=float, default=MERIDIONAL_H,
                   help="step size for the meridional-parts integration")

    p = command("ellipk", cmd_ellipk, "complete/incomplete elliptic integral, first kind")
    p.add_argument("--k", type=float, required=True, help="modulus in [0, 1)")
    p.add_argument("--phi", type=float, default=math.pi / 2,
                   help="amplitude in [0, pi/2]; omit for the complete integral")
    p.add_argument("--h", type=float, default=None,
                   help="one pass of equal steps of at most this size; by default the step "
                        f"count doubles until two passes agree to {ELLIPTIC_TOL:g}")

    p = command("rectify", cmd_rectify, "polyline length of a parametric curve")
    p.add_argument("--segments", "-n", type=_option_type(int, positive=True, at_most=MAX_STEPS),
                   default=1024)
    p.add_argument("--x-expr", help="x(t) expression; default is the unit circle")
    p.add_argument("--y-expr", help="y(t) expression")
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--t1", type=float, default=None)

    return parser
