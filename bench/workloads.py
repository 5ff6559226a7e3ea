"""Seeded request generators for the three workloads.

A workload is an endless sequence of blocks.  Every block holds the same
number of requests of each kind, in a seeded random order, with seeded
random arguments; only the arguments and the order depend on the seed.  The
fixed per-block mix keeps throughput and the latency percentiles comparable
between seeds, and the runner always measures whole blocks.

A request is a CLI argument vector plus the files it reads, the files it
writes, and a check that compares its output with an independent answer
(see ``checks``).  The program sees nothing but the argument vector and the
generated files.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import checks
from checks import CheckFailed, parse_float, rel_err, within

# A check takes (stdout, {output path: text}) and returns the relative error
# of a float answer, or None for an exact answer; it raises CheckFailed.
Check = Callable[[str, dict], "float | None"]


@dataclass
class Request:
    kind: str
    argv: list[str]
    check: Check
    files: dict[str, str] = field(default_factory=dict)  # path -> text, written before the call
    outputs: list[str] = field(default_factory=list)  # paths the call writes


def _fmt(x: float) -> str:
    # repr round-trips exactly.  A value that may be negative follows its
    # option as --opt=value, because argparse reads "-1e-05" as an option.
    return repr(float(x))


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


class Draw:
    """Seeded draws.  Sizes (arguments that set a request's cost) come from
    stratified streams, one per key: the k-th draw of a key falls in the
    eighth of its range given by STRATA_ORDER[k % 8], at a seeded offset.
    The bit-reversed order spreads every prefix evenly over the range, so a
    run sees nearly the same spread of sizes whatever the seed and however
    many blocks it measures; the seed moves each value within its eighth."""

    STRATA_ORDER = (0, 4, 2, 6, 1, 5, 3, 7)

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._drawn: dict[str, int] = {}

    def _unit(self, key: str) -> float:
        k = self._drawn.get(key, 0)
        self._drawn[key] = k + 1
        strata = len(self.STRATA_ORDER)
        return (self.STRATA_ORDER[k % strata] + self.rng.random()) / strata

    def uniform(self, key: str, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self._unit(key)

    def log_uniform(self, key: str, lo: float, hi: float) -> float:
        return math.exp(self.uniform(key, math.log(lo), math.log(hi)))


def _single_float(stdout: str) -> float:
    lines = stdout.split()
    if len(lines) != 1:
        raise CheckFailed(f"expected one number, got {stdout[:80]!r}")
    return parse_float(lines[0])


# ---------------------------------------------------------------------------
# Tolerances, fixed once.  Each sits above the largest error seen over 10
# seeds of its workload (in brackets) and far below what a wrong formula, a
# wrong step count or a lost step gives.

TOL_FN = 1e-8  # RK4 at h = 1e-3; the invgd range edge sets the largest [2.4e-9]
TOL_QUAD = 1e-9  # K, F and the elliptic period by RK4 quadrature at h = 1e-5 [3.2e-14]
TOL_PERIOD_ODE = 1e-8  # turning points bisected to 1e-10 s on periods of 1.4-4.8 s [4.4e-11]
TOL_RANGE = 1e-8  # landing time bisected to 1e-10 s; vacuum flight is exact under RK4 [2.5e-11]
TOL_LOX = 1e-9  # meridional parts by RK4 at h = 1e-4 [8.6e-15]
TOL_TABLE = 1e-11  # 6-decimal output at R = 1e7 rounds by <= 7.6e-13 relative [6.6e-13]
TOL_SUM = 1e-13  # Kahan-compensated sums against math.fsum of the same terms [0]
TOL_POLYLINE = 1e-9  # sums of up to 1e5 chords, each exact to a few ulps [1.4e-12]
TOL_RK4 = 1e-6  # pinned h <= 0.01 over <= 1500 steps: C h^4 T [5.5e-8]
TOL_EULER = 3e-2  # pinned h <= 2e-3 over <= 1500 steps: the corner solve gives 1.16e-2

# fn arguments: |x| ranges a user types at the default step 1e-3.  invgd stops
# at 1.55, where the default step still meets TOL_FN; closer to the pole the
# fixed step misses the answer (see README, "Out of range").  The error grows
# steeply toward that edge, so every block also evaluates invgd at the edge
# itself: the largest error of a run is then measured, not approached by
# chance, and worst_rel_err reads the same for every seed.
INVGD_EDGE = 1.55
FN_COPIES = 2  # fn requests per function per block
FN_RANGES = {
    "exp": (0.2, 4.0),
    "sin": (0.2, 6.0),
    "cos": (0.2, 6.0),
    "sn": (0.2, 4.0),
    "cn": (0.2, 4.0),
    "dn": (0.2, 4.0),
    "invgd": (0.05, INVGD_EDGE),
}


# ---------------------------------------------------------------------------
# builtin_defaults

def _req_fn(d: Draw, name: str, edge: bool = False) -> Request:
    """fn at a random in-range |x| of either sign, or at the range's upper
    edge with ``edge``."""
    lo, hi = FN_RANGES[name]
    x = d.rng.choice((-1.0, 1.0)) * (hi if edge else d.uniform(f"fn {name}", lo, hi))
    argv = ["fn", name, _fmt(x)]
    if name in ("sn", "cn", "dn"):
        k = d.rng.uniform(0.1, 0.9)
        argv += ["--k", _fmt(k)]
        ref = checks.jacobi(x, k)[("sn", "cn", "dn").index(name)]
        scale = 1.0
    elif name == "exp":
        ref, scale = math.exp(x), 0.0
    elif name in ("sin", "cos"):
        ref, scale = getattr(math, name)(x), 1.0
    else:
        ref, scale = checks.inv_gudermannian(x), 0.0

    def check(out, _files):
        return within(rel_err(_single_float(out), ref, scale), TOL_FN, f"fn {name}")

    return Request("fn", argv, check)


def _req_ellipk(d: Draw, incomplete: bool) -> Request:
    k = d.rng.uniform(0.05, 0.95)
    argv = ["ellipk", "--k", _fmt(k)]
    if incomplete:
        phi = d.uniform("ellipk phi", 0.1, math.pi / 2)
        argv += ["--phi", _fmt(phi)]
        ref = checks.elliptic_f(phi, k)
    else:
        ref = checks.elliptic_k(k)

    def check(out, _files):
        return within(rel_err(_single_float(out), ref), TOL_QUAD, "ellipk")

    return Request("ellipk_phi" if incomplete else "ellipk_k", argv, check)


def _req_pendulum(d: Draw, ode: bool) -> Request:
    theta0 = d.uniform(f"pendulum theta0 {ode}", 0.05, 2.5 if ode else 3.0)
    length = d.uniform(f"pendulum length {ode}", 0.5, 2.0)
    argv = ["pendulum", "--theta0", _fmt(theta0), "--length", _fmt(length)]
    if ode:
        argv += ["--method", "ode"]
    g = 9.80665
    ref = 4.0 * math.sqrt(length / g) * checks.elliptic_k(math.sin(theta0 / 2.0))
    tol = TOL_PERIOD_ODE if ode else TOL_QUAD

    def check(out, _files):
        return within(rel_err(_single_float(out), ref), tol, "pendulum")

    return Request("pendulum_ode" if ode else "pendulum_elliptic", argv, check)


def _req_ballistics(d: Draw) -> Request:
    # drag 0 is the CLI default and has the closed-form range; the integrator
    # does the same work per step as with drag.
    mass, alpha = d.rng.uniform(0.05, 5.0), d.rng.uniform(10.0, 80.0)
    v0 = d.uniform("ballistics v0", 5.0, 60.0)
    argv = ["ballistics", "--mass", _fmt(mass), "--v0", _fmt(v0), "--alpha", _fmt(alpha)]
    ref = v0 * v0 * math.sin(2.0 * math.radians(alpha)) / 9.80665

    def check(out, _files):
        return within(rel_err(_single_float(out), ref), TOL_RANGE, "ballistics")

    return Request("ballistics", argv, check)


def _req_lox(d: Draw) -> Request:
    lat1, lat2 = d.uniform("lox lat1", -70.0, 70.0), d.uniform("lox lat2", -70.0, 70.0)
    lon1, lon2 = d.rng.uniform(-180.0, 180.0), d.rng.uniform(-180.0, 180.0)
    argv = ["lox", f"--lat1={_fmt(lat1)}", f"--lon1={_fmt(lon1)}",
            f"--lat2={_fmt(lat2)}", f"--lon2={_fmt(lon2)}"]
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dlon = math.remainder(math.radians(lon2) - math.radians(lon1), 2.0 * math.pi)
    dm = checks.inv_gudermannian(p2) - checks.inv_gudermannian(p1)
    bearing = math.atan2(dlon, dm)
    distance = 6371000.0 * abs((p2 - p1) / math.cos(bearing))

    def check(out, _files):
        fields = checks.parse_fields(out)
        try:
            got_b, got_d = parse_float(fields["bearing_rad"]), parse_float(fields["distance_m"])
        except KeyError:
            raise CheckFailed(f"missing field in {out[:80]!r}") from None
        err = max(rel_err(got_b, bearing, 1.0), rel_err(got_d, distance))
        return within(err, TOL_LOX, "lox")

    return Request("lox", argv, check)


def _req_table() -> Request:
    # the default radius: at a smaller one the 6-decimal output format, not
    # the integration, would set the error
    radius = 1e7
    argv = ["table"]

    def check(out, _files):
        rows = out.strip().split("\n")
        if rows[0] != "k,arcmin,value,diff1,diff2" or len(rows) != 25:
            raise CheckFailed("bad table header or row count")
        err = 0.0
        for k, row in enumerate(rows[1:], start=1):
            cells = row.split(",")
            if int(cells[0]) != k or float(cells[1]) != 225.0 * k:
                raise CheckFailed(f"bad grid in row {k}")
            err = max(err, rel_err(parse_float(cells[2]), radius * math.sin(k * math.pi / 48.0)))
        return within(err, TOL_TABLE, "table")

    return Request("table", argv, check)


def _leibniz_terms(n: int) -> list[float]:
    return [(4.0 if k % 2 == 0 else -4.0) / (2 * k + 1) for k in range(n)]


def _req_pi_terms(d: Draw) -> Request:
    n = int(d.log_uniform("pi terms", 100, 20000))
    corrected = d.rng.random() < 0.5
    argv = ["pi", "--terms", str(n)] + (["--corrected"] if corrected else [])

    def check(out, _files):
        terms = _leibniz_terms(n + 1)
        ref = math.fsum(terms[:n]) + (terms[n] / 2.0 if corrected else 0.0)
        return within(rel_err(_single_float(out), ref), TOL_SUM, "pi --terms")

    return Request("pi_terms", argv, check)


def _req_pi_discard(d: Draw) -> Request:
    threshold = d.log_uniform("pi discard", 2e-5, 1e-2)
    argv = ["pi", "--discard", _fmt(threshold)]

    def check(out, _files):
        n = 0
        while 4.0 / (2 * n + 1) >= threshold:
            n += 1
        fields = checks.parse_fields(out)
        if fields.get("terms_used") != str(n):
            raise CheckFailed(f"terms_used {fields.get('terms_used')!r}, expected {n}")
        err = max(rel_err(parse_float(fields["value"]), math.fsum(_leibniz_terms(n))),
                  rel_err(parse_float(fields["discarded_bound"]), 4.0 / (2 * n + 1)))
        return within(err, TOL_SUM, "pi --discard")

    return Request("pi_discard", argv, check)


def _req_rectify_circle(d: Draw) -> Request:
    n = int(d.log_uniform("rectify n", 1000, 100000))
    argv = ["rectify", "-n", str(n)]
    ref = 2.0 * n * math.sin(math.pi / n)

    def check(out, _files):
        return within(rel_err(_single_float(out), ref), TOL_POLYLINE, "rectify")

    return Request("rectify_circle", argv, check)


def builtin_defaults_block(d: Draw, tmpdir: str, index: int) -> list[Request]:
    """27 requests: 15 fn (two per function, plus invgd at its range edge),
    4 full-quadrant quadratures of about equal cost (15 % of the block, so p90
    falls inside that group), and one or two of each other subcommand.  The
    fn requests fill the middle of the latency distribution, so p50 is one
    of them."""
    reqs = [_req_fn(d, name) for name in FN_RANGES for _ in range(FN_COPIES)]
    reqs.append(_req_fn(d, "invgd", edge=True))
    reqs += [_req_ellipk(d, False), _req_ellipk(d, False), _req_ellipk(d, True)]
    reqs += [_req_pendulum(d, False), _req_pendulum(d, True)]
    reqs += [_req_ballistics(d), _req_lox(d), _req_table()]
    reqs += [_req_pi_terms(d), _req_pi_discard(d)]
    reqs += [_req_rectify_circle(d), _req_rectify_circle(d)]
    d.rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# expr_float: spec-file systems with closed-form solutions, and expression
# curves for rectify.  Identities that are exact in floating point (or, for
# sin^2 + cos^2, exact to an ulp) pad the trees to sizes of about 1-30 nodes.

_PADS = (
    (2, "({}) * 1"),
    (2, "({}) + 0"),
    (2, "1 * ({})"),
    (2, "({}) / 1"),
    (2, "-(-({}))"),
    (4, "({}) - (t - t)"),
    (8, "({}) * (sin(t)^2 + cos(t)^2)"),
)


def _pad(rng: random.Random, source: str, nodes: int, target: int) -> str:
    while nodes < target:
        extra, template = rng.choice(_PADS)
        source = template.format(source)
        nodes += extra
    return source


@dataclass
class _Family:
    """A block of 1 or 2 components with a closed-form solution.

    ``rhs`` holds (source, node count) per component, with {0}, {1} standing
    for the block's own state names; ``solve(t0, y0, t)`` is the exact state.
    """

    rhs: list[tuple[str, int]]
    y0: tuple[float, ...]
    solve: Callable[[float, tuple, float], tuple]


def _family(rng: random.Random) -> _Family:
    kind = rng.choice(("growth", "cosgrow", "arctan", "oscillator", "jordan"))
    if kind == "growth":
        a = rng.uniform(-1.0, 0.5)
        return _Family([(f"{_fmt(a)} * {{0}}", 3)], (_signed(rng, 0.5, 2.0),),
                       lambda t0, y, t: (y[0] * math.exp(a * (t - t0)),))
    if kind == "cosgrow":
        return _Family([("cos(t) * {0}", 4)], (_signed(rng, 0.5, 2.0),),
                       lambda t0, y, t: (y[0] * math.exp(math.sin(t) - math.sin(t0)),))
    if kind == "arctan":
        return _Family([("1 / (1 + t^2)", 7)], (_signed(rng, 4.0, 8.0),),
                       lambda t0, y, t: (y[0] + math.atan(t) - math.atan(t0),))
    if kind == "oscillator":
        w = rng.uniform(0.5, 2.0)
        w2 = w * w

        def solve(t0, y, t):
            s = t - t0
            c, d = math.cos(w * s), math.sin(w * s)
            return (y[0] * c + y[1] / w * d, -y[0] * w * d + y[1] * c)

        return _Family([("{1}", 1), (f"-{_fmt(w2)} * {{0}}", 4)],
                       (_signed(rng, 0.5, 2.0), _signed(rng, 0.5, 2.0)), solve)
    a = rng.uniform(0.1, 1.0)

    def solve(t0, y, t):
        s = t - t0
        e = math.exp(-a * s)
        return (y[0] * e, (y[1] + y[0] * s) * e)

    return _Family([(f"-{_fmt(a)} * {{0}}", 4), (f"{{0}} - {_fmt(a)} * {{1}}", 5)],
                   (_signed(rng, 0.5, 2.0), _signed(rng, 0.5, 2.0)), solve)


def _trajectory_check(families, t0, y0, t_end, h, tol, csv_path, svg_path, dim):
    n_steps = max(1, math.ceil(abs(t_end - t0) / h))

    def check(out, files):
        text = files[csv_path] if csv_path else out
        rows = text.strip().split("\n")
        if rows[0] != "t," + ",".join(f"y{i}" for i in range(1, dim + 1)):
            raise CheckFailed(f"bad CSV header {rows[0]!r}")
        if len(rows) != n_steps + 2:
            raise CheckFailed(f"{len(rows) - 1} rows, expected {n_steps + 1}")
        err = 0.0
        for k, row in enumerate(rows[1:]):
            vals = [float(v) for v in row.split(",")]
            t = vals[0]
            t_ref = t_end if k == n_steps else t0 + k * math.copysign(h, t_end - t0)
            if abs(t - t_ref) > 1e-12 * max(1.0, abs(t_ref)):
                raise CheckFailed(f"row {k}: t = {t!r}, expected {t_ref!r}")
            ref, i = [], 0
            for fam in families:
                m = len(fam.y0)
                ref += fam.solve(t0, y0[i:i + m], t)
                i += m
            scale = max(1.0, max(abs(r) for r in ref))
            err = max(err, max(abs(v - r) for v, r in zip(vals[1:], ref)) / scale)
        if svg_path:
            import xml.etree.ElementTree as ET
            try:
                root = ET.fromstring(files[svg_path])
            except ET.ParseError as exc:
                raise CheckFailed(f"SVG is not well-formed: {exc}") from None
            if len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) != dim:
                raise CheckFailed("SVG polyline count differs from dim")
        return within(err, tol, "solve")

    return check


def _req_solve(d: Draw, tmpdir: str, name: str, method: str = "euler", target_dim: int = 2,
               corner: bool = False) -> Request:
    """A spec file of dim 1-4.  With ``corner``, the Euler request at the
    largest error the ranges allow: the oscillator at w = 2, the largest h
    and the longest span."""
    rng = d.rng
    if corner:
        method, h, n = "euler", 2e-3, 1500
        families = [_Family([("{1}", 1), (f"-{_fmt(4.0)} * {{0}}", 4)], (1.0, 0.0),
                            lambda t0, y, t: (y[0] * math.cos(2.0 * (t - t0)),
                                              -2.0 * y[0] * math.sin(2.0 * (t - t0))))]
    else:
        h = rng.choice((1e-3, 2e-3)) if method == "euler" else rng.choice((5e-3, 1e-2))
        n = round(d.uniform(f"solve steps {method}", 300, 1500))
        families, dim = [], 0
        while dim < target_dim:
            fam = _family(rng)
            if dim + len(fam.y0) > 4:
                continue
            families.append(fam)
            dim += len(fam.y0)
    names, y0, lines = [], [], []
    for fam in families:
        base = len(names)
        local = [f"y{base + j + 1}" for j in range(len(fam.y0))]
        names += local
        y0 += fam.y0
        for source, nodes in fam.rhs:
            lines.append((source.format(*local), nodes))
    dim = len(names)
    t0 = rng.uniform(-2.0, 2.0)
    direction = -1.0 if (rng.random() < 0.2 and not corner) else 1.0
    t_end = t0 + direction * n * h
    spec = [f"dim = {dim}"]
    for i, (source, nodes) in enumerate(lines, start=1):
        target = round(d.uniform("rhs nodes", nodes, 30))
        spec.append(f"rhs_{i} = {_pad(rng, source, nodes, target)}")
    spec += [f"t0 = {_fmt(t0)}", "y0 = " + ", ".join(_fmt(v) for v in y0),
             f"t_end = {_fmt(t_end)}", f"h = {_fmt(h)}", f"method = {method}"]
    path = os.path.join(tmpdir, f"{name}.ivp")
    argv, outputs = ["solve", path], []
    csv_path = svg_path = None
    if rng.random() < 0.25:
        csv_path, svg_path = path + ".csv", path + ".svg"
        argv += ["--out", csv_path, "--svg", svg_path]
        outputs += [csv_path, svg_path]
    tol = TOL_EULER if method == "euler" else TOL_RK4
    check = _trajectory_check(families, t0, tuple(y0), t_end, h, tol, csv_path, svg_path, dim)
    return Request(f"solve_{method}", argv, check, {path: "\n".join(spec) + "\n"}, outputs)


def _req_rectify_expr(d: Draw) -> Request:
    rng = d.rng
    n = int(d.log_uniform("rectify n", 2000, 20000))
    t0 = rng.uniform(-1.0, 1.0)
    t1 = t0 + rng.uniform(0.5, 6.0)
    if rng.random() < 0.5:
        r, w, p = rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
        cx, cy = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        x_src = f"{_fmt(cx)} + {_fmt(r)} * cos({_fmt(w)} * t + {_fmt(p)})"
        y_src = f"{_fmt(cy)} + {_fmt(r)} * sin({_fmt(w)} * t + {_fmt(p)})"
        nodes = 9
        ref = n * 2.0 * r * abs(math.sin(w * (t1 - t0) / n / 2.0))
    else:
        ax, bx, ay, by = (rng.uniform(-2.0, 2.0) for _ in range(4))
        x_src, y_src = f"{_fmt(ax)} + {_fmt(bx)} * t", f"{_fmt(ay)} + {_fmt(by)} * t"
        nodes = 5
        ref = math.hypot(bx, by) * (t1 - t0)
    x_src = _pad(rng, x_src, nodes, round(d.uniform("curve nodes", nodes, 30)))
    y_src = _pad(rng, y_src, nodes, round(d.uniform("curve nodes", nodes, 30)))
    argv = ["rectify", "--x-expr", x_src, "--y-expr", y_src,
            f"--t0={_fmt(t0)}", f"--t1={_fmt(t1)}", "-n", str(n)]

    def check(out, _files):
        return within(rel_err(_single_float(out), ref), TOL_POLYLINE, "rectify")

    return Request("rectify_expr", argv, check)


def expr_float_block(d: Draw, tmpdir: str, index: int) -> list[Request]:
    """12 requests: 8 random solves (5 RK4, 3 Euler; dims 1-4 twice each),
    the Euler corner solve, and 3 expression curves."""
    dims = [1, 2, 3, 4] * 2
    d.rng.shuffle(dims)
    methods = ["rk4"] * 5 + ["euler"] * 3
    reqs = [_req_solve(d, tmpdir, f"b{index}-{i}", method, dim)
            for i, (method, dim) in enumerate(zip(methods, dims))]
    reqs.append(_req_solve(d, tmpdir, f"b{index}-corner", corner=True))
    reqs += [_req_rectify_expr(d) for _ in range(3)]
    d.rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# exact_deriv: one-variable rational expressions kept in factored form
# c * prod (x - r)^e, so the oracle can differentiate them exactly.

DERIV_MAX_DEGREE = 256
DERIV_STRATA = 16  # log-degree strata per block: one request in each
# The denominator of a quotient stays at degree <= 8 (+3 for a shared
# factor).  Euclid's gcd over Q, which normalises every RatFunc, grows its
# coefficients exponentially in the smaller degree: a degree-189 numerator
# over (x - 1/2)^8 (x - 1/3)^8 takes 11.8 s (0.9 s over degree 8), 32 over
# 32 takes 3.4 s, and 64 over 49 does not finish in a run (see README,
# "Out of range").
DERIV_MAX_DEN_DEGREE = 8


def _rational(rng: random.Random, top: int, max_den: int) -> Fraction:
    return Fraction(rng.randint(-top, top), rng.randint(1, max_den))


def _term_source(r: Fraction, e: int) -> str:
    base = "x" if r == 0 else f"(x {'-' if r > 0 else '+'} {abs(r)})"
    return base if e == 1 else f"{base}^{e}"


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    parts = max(1, min(parts, total))
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _distinct_roots(rng: random.Random, count: int) -> list[Fraction]:
    roots: list[Fraction] = []
    while len(roots) < count:
        r = _rational(rng, 9, 6)
        if r not in roots:
            roots.append(r)
    return roots


def _product(rng: random.Random, degree: int, shared: bool):
    """Source and net factors of a product/quotient of binomial powers.

    With ``shared``, one factor appears in both numerator and denominator, so
    it cancels in part or in full and x0 may sit on it.
    """
    exps = _split(rng, degree, rng.randint(1, 4))
    roots = _distinct_roots(rng, len(exps) + 1)
    num, den, net = [], [], {}
    den_degree = 0
    for r, e in zip(roots, exps):
        in_num = rng.random() < 0.7 or den_degree + e > DERIV_MAX_DEN_DEGREE
        den_degree += 0 if in_num else e
        (num if in_num else den).append((r, e))
        net[r] = e if in_num else -e
    if shared:
        r = roots[-1]
        a = rng.randint(1, 3)
        b = rng.choice((a, a, rng.randint(1, 3)))
        num.append((r, a))
        den.append((r, b))
        net[r] = a - b
    source = " * ".join(_term_source(r, e) for r, e in num) or "1"
    if den:
        source = f"({source}) / ({' * '.join(_term_source(r, e) for r, e in den)})"
    return source, [(r, e) for r, e in net.items() if e], roots[-1]


def _nested_sum(rng: random.Random, degree: int):
    """Sum of 2-4 scaled binomial-power products, randomly parenthesised."""
    degrees = _split(rng, degree, rng.randint(2, 4)) if degree >= 2 else [degree]
    terms = []
    for d in degrees:
        coeff = _rational(rng, 9, 5) or Fraction(1)
        parts = _split(rng, d, rng.randint(1, 2))
        factors = list(zip(_distinct_roots(rng, len(parts)), parts))
        source = f"{abs(coeff)} * " + " * ".join(_term_source(r, e) for r, e in factors)
        terms.append((coeff, factors, source))
    source = terms[0][2] if terms[0][0] > 0 else f"-({terms[0][2]})"
    for coeff, _, term in terms[1:]:
        op = "+" if coeff > 0 else "-"
        source = f"({source}) {op} {term}" if rng.random() < 0.5 else f"{source} {op} ({term})"
    return source, [(coeff, factors) for coeff, factors, _ in terms]


def _req_deriv(rng: random.Random, shape: str, degree: int) -> Request:
    x0 = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
    if shape == "power":
        source, terms = f"x^{degree}", [(Fraction(1), [(Fraction(0), degree)])]
    elif shape == "nested_sum":
        source, terms = _nested_sum(rng, degree)
    else:
        source, factors, shared_root = _product(rng, degree, shape == "shared_factor")
        if shape == "shared_factor" and rng.random() < 0.5:
            x0 = shared_root
        terms = [(Fraction(1), factors)]
    # keep x0 off the poles: the workload holds no failing request
    while any(r == x0 and e < 0 for _, factors in terms for r, e in factors):
        x0 += Fraction(1, 7)
    ref = sum((checks.factored_deriv(c, f, x0) for c, f in terms), Fraction(0))
    argv = ["deriv", source, f"--at={x0}"]

    def check(out, _files):
        try:
            got = Fraction(out.strip())
        except ValueError:
            raise CheckFailed(f"not a fraction: {out[:80]!r}") from None
        if got != ref:
            raise CheckFailed(f"deriv: got {got}, expected {ref}")
        return None

    return Request(f"deriv_{shape}", argv, check)


DERIV_SHAPES = ("power", "product", "shared_factor", "nested_sum")


def exact_deriv_block(d: Draw, tmpdir: str, index: int) -> list[Request]:
    """16 requests, one per log-degree stratum of [1, DERIV_MAX_DEGREE],
    4 of each shape.  The shapes rotate over the strata from block to block,
    so every 4 blocks each stratum sees each shape once, and each stratum's
    degree is itself a stratified draw.  This keeps the work of a run, which
    the largest degrees dominate, and its p90 nearly the same for every
    seed."""
    rng = d.rng
    top = math.log(DERIV_MAX_DEGREE)
    reqs = []
    for i in range(DERIV_STRATA):
        shape = DERIV_SHAPES[(i + index) % len(DERIV_SHAPES)]
        degree = max(1, round(math.exp(top * d.uniform(f"deriv stratum {i}", i, i + 1)
                                       / DERIV_STRATA)))
        reqs.append(_req_deriv(rng, shape, degree))
    rng.shuffle(reqs)
    return reqs
