import gc
import math
import os
import random
import re
import resource
import subprocess
import sys
import time
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import oracles
import stepcalc
from stepcalc import applications, cli, expr, functions, series, solver, svgplot, tables
from stepcalc.cli import MAX_SWEEP_POINTS, build_parser, main
from stepcalc.expr import MAX_EXACT_BITS, MAX_EXACT_DEGREE
from stepcalc.nonarch import EPSILON, RatFunc
from stepcalc.series import LEIBNIZ, leibniz_term, partial_sum
from stepcalc.solver import MAX_STEPS, StepPlan, Trajectory, find_zero_crossings, integrate_final

# the subcommands, in the order --help lists them
COMMANDS = tuple(re.findall(r"^    (\S+)", build_parser().format_help(), re.MULTILINE))

EXP_SPEC = """\
# exponential growth
dim = 1
rhs_1 = y1
t0 = 0
y0 = 1
t_end = 1
h = 0.001
method = rk4
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """The environment of a child interpreter that imports this stepcalc."""
    src = str(Path(stepcalc.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


@pytest.fixture
def starts(monkeypatch):
    """The start time of every solver.integrate run, through any module's binding."""
    seen = []
    integrate = solver.integrate

    def recording(ivp, plan, *args, **kwargs):
        seen.append(ivp.t0)
        return integrate(ivp, plan, *args, **kwargs)

    for module in (solver, functions, applications):
        monkeypatch.setattr(module, "integrate", recording)
    return seen


@pytest.fixture
def exp_spec(tmp_path):
    path = tmp_path / "exp.ivp"
    path.write_text(EXP_SPEC)
    return str(path)


class TestSolve:
    def test_csv_to_stdout(self, capsys, exp_spec):
        code, out, err = run(capsys, "solve", exp_spec)
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        assert lines[0] == "t,y1"
        last_t, last_y = (float(p) for p in lines[-1].split(","))
        assert last_t == 1.0
        assert abs(last_y - oracles.E) < 1e-9

    def test_deterministic_across_runs(self, capsys, exp_spec):
        first = run(capsys, "solve", exp_spec)
        second = run(capsys, "solve", exp_spec)
        assert first == second

    def test_svg_output(self, capsys, exp_spec, tmp_path):
        svg_path = tmp_path / "plot.svg"
        code, _, _ = run(capsys, "solve", exp_spec, "--out", str(tmp_path / "o.csv"),
                         "--svg", str(svg_path))
        assert code == 0
        text = svg_path.read_text()
        assert text.startswith("<svg")
        root = ET.fromstring(text)  # well-formed XML
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 1

    def test_svg_of_a_constant_series_is_centred(self):
        # equal bounds widen by 1 each way, so the line runs at mid-height
        text = svgplot.line_plot([svgplot.Series("y1", [0.0, 1.0, 2.0], [5.0, 5.0, 5.0])])
        polyline = ET.fromstring(text).find(".//{http://www.w3.org/2000/svg}polyline")
        middle = svgplot._MARGIN_TOP + (svgplot.DEFAULT_HEIGHT - svgplot._MARGIN_TOP - svgplot._MARGIN_BOTTOM) / 2
        assert {point.split(",")[1] for point in polyline.get("points").split()} == {f"{middle:.2f}"}
        assert ">4<" in text and ">6<" in text  # the lowest and highest y tick labels

    @pytest.mark.parametrize("y0", ["1e17", "-1.7976931348623157e308", "1.7976931348623157e308"])
    def test_svg_of_a_constant_series_beyond_2_53(self, capsys, tmp_path, y0):
        # 1 is lost at |y| >= 2^53, where the range is widened by an ulp instead; the largest double's stays finite
        spec = tmp_path / "big.ivp"
        spec.write_text(f"dim = 1\nrhs_1 = 0\nt0 = 0\ny0 = {y0}\nt_end = 1\nh = 0.25\nmethod = euler\n")
        svg = tmp_path / "big.svg"
        assert run(capsys, "solve", str(spec), "--out", str(tmp_path / "big.csv"), "--svg", str(svg)) == (0, "", "")
        points = ET.fromstring(svg.read_text()).find(".//{http://www.w3.org/2000/svg}polyline").get("points")
        assert all(math.isfinite(float(v)) for point in points.split() for v in point.split(","))
        assert len(points.split()) == 5

    def test_svg_of_a_range_whose_span_overflows(self, capsys, tmp_path):
        # 1.7e308 - -1.7e308 overflows: the range is plotted at half scale, its ends on the plot's edges
        spec = tmp_path / "wide.ivp"
        spec.write_text("dim = 2\nrhs_1 = 0\nrhs_2 = 0\nt0 = 0\ny0 = 1.7e308, -1.7e308\nt_end = 1\nh = 0.25\n"
                        "method = euler\n")
        svg = tmp_path / "wide.svg"
        assert run(capsys, "solve", str(spec), "--out", str(tmp_path / "wide.csv"), "--svg", str(svg)) == (0, "", "")
        root = ET.fromstring(svg.read_text())
        points = [line.get("points") for line in root.findall(".//{http://www.w3.org/2000/svg}polyline")]
        xs = ["60.00", "200.00", "340.00", "480.00", "620.00"]
        assert points == [" ".join(f"{x},{y}" for x in xs) for y in ("20.00", "435.00")]
        labels = [text.text for text in root.findall(".//{http://www.w3.org/2000/svg}text")]
        assert labels[1:10:2] == ["-1.7e+308", "-8.5e+307", "0", "8.5e+307", "1.7e+308"]

    def test_svg_points_are_the_per_point_format(self):
        # one % over every point formats each value as f"{value:.2f}" did, overflow and rounding ties included
        rng = random.Random(20261022)
        for _ in range(50):
            n = rng.randint(1, 40)
            xs = sorted(rng.uniform(-10.0, 10.0) for _ in range(n))
            ys = [rng.choice([0.0, -0.0, 1e-300, 1.0 / 3.0, 2.5, -1e300, 1e300, rng.gauss(0.0, 1e3)]) for _ in range(n)]
            text = svgplot.line_plot([svgplot.Series("y1", xs, ys)])
            (x_lo, x_hi), (y_lo, y_hi) = ((min(v), max(v)) if min(v) < max(v) else (min(v) - 1.0, max(v) + 1.0)
                                          for v in (xs, ys))
            points = " ".join(f"{60 + (x - x_lo) / (x_hi - x_lo) * 560:.2f},{435 - (y - y_lo) / (y_hi - y_lo) * 415:.2f}"
                              for x, y in zip(xs, ys))
            assert f'points="{points}"' in text

    @pytest.mark.parametrize("curves, message", [
        ([], "at least one series is required"),
        ([svgplot.Series("y1", [0.0, 1.0], [0.0])], "series 'y1' needs equally many xs and ys"),
        ([svgplot.Series("y1", [0.0], [0.0]), svgplot.Series("y2", [], [])], "series 'y2' needs equally many xs and ys"),
    ])
    def test_svg_refuses_series_it_cannot_draw(self, curves, message):
        with pytest.raises(ValueError) as err:
            svgplot.line_plot(curves)
        assert str(err.value) == message

    @pytest.mark.parametrize("width, height", [(80, 480), (640, 65), (0, 480), (-5, 480), (640, 1), (-1, -1)])
    def test_svg_refuses_a_size_without_plot_area(self, capsys, exp_spec, tmp_path, width, height):
        # the margins take 80 px across and 65 down; less than 1 px left is refused before any file is written
        message = f"SVG size {width}x{height} leaves no plot area; width must be at least 81 and height at least 66"
        with pytest.raises(ValueError) as err:
            svgplot.line_plot([svgplot.Series("y1", [0.0, 1.0], [0.0, 1.0])], width=width, height=height)
        assert str(err.value) == message
        out, svg = tmp_path / "o.csv", tmp_path / "p.svg"
        argv = ("solve", exp_spec, "--out", str(out), "--svg", str(svg), "--width", str(width), "--height", str(height))
        assert run(capsys, *argv) == (1, "", f"stepcalc: {message}\n")
        assert not out.exists() and not svg.exists()

    def test_svg_of_the_smallest_size_has_a_one_pixel_plot_area(self):
        text = svgplot.line_plot([svgplot.Series("y1", [0.0, 1.0], [0.0, 1.0])], width=81, height=66)
        assert ET.fromstring(text).find(".//{http://www.w3.org/2000/svg}polyline").get("points") == "60.00,21.00 61.00,20.00"

    @pytest.mark.parametrize("old, new, where, message", [
        ("dim = 1", "dim 1", ":2: ", "expected 'key = value', got 'dim 1'"),
        ("h = 0.001", "h = 0.001\nt0 = 1", ":8: ", "duplicate key 't0'"),
        ("method = rk4\n", "", ": ", "missing required key 'method'"),
        ("dim = 1", "dim = one", ":2: ", "dim: not an integer: 'one'"),
        ("dim = 1", "dim = 0", ":2: ", "dim must be positive"),
        ("rhs_1 = y1", "rhs_1 = y1 +", ":3: ", "rhs_1: "),
        ("y0 = 1", "y0 = one", ":5: ", "y0: not a comma-separated list of numbers: 'one'"),
        ("method = rk4", "method = rk5", ":8: ", "method must be 'euler' or 'rk4', got 'rk5'"),
        ("h = 0.001", "h = 0.001\nstep = 2", ":8: ", "unknown key 'step'"),
    ])
    def test_spec_refusals_name_the_file_and_line(self, capsys, tmp_path, old, new, where, message):
        path = tmp_path / "bad.ivp"
        path.write_text(EXP_SPEC.replace(old, new))
        code, out, err = run(capsys, "solve", str(path))
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert err.startswith(f"stepcalc: {path}{where}{message}")

    def test_a_wide_spec_loads_and_solves_in_linear_time(self, capsys, tmp_path):
        # rhs_i = y<i> for 16 000 components: loading is linear in dim, not quadratic
        dim = 16_000
        path = tmp_path / "wide.ivp"
        path.write_text(f"dim = {dim}\n" + "".join(f"rhs_{i} = y{i}\n" for i in range(1, dim + 1))
                        + f"t0 = 0\ny0 = {', '.join(['1'] * dim)}\nt_end = 1\nh = 0.5\nmethod = euler\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "solve", str(path))
        assert time.perf_counter() - start < 5.0
        assert (code, err) == (0, "")
        assert out.split("\n")[-2] == "1" + ",2.25" * dim

    def test_missing_file_is_runtime_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", str(tmp_path / "nope.ivp"))
        assert code == 1
        assert err.startswith("stepcalc:")

    def test_bad_spec_names_the_key_and_line(self, capsys, tmp_path):
        path = tmp_path / "bad.ivp"
        path.write_text(EXP_SPEC.replace("y0 = 1", "y0 = 1, 2"))
        code, _, err = run(capsys, "solve", str(path))
        assert code == 2
        assert "y0" in err and ":5:" in err

    def test_unknown_variable_in_rhs(self, capsys, tmp_path):
        path = tmp_path / "bad.ivp"
        path.write_text(EXP_SPEC.replace("rhs_1 = y1", "rhs_1 = y2"))
        code, _, err = run(capsys, "solve", str(path))
        assert code == 2
        assert "y2" in err

    def test_expression_error_in_rhs_is_integration_failure(self, capsys, tmp_path):
        path = tmp_path / "pole.ivp"
        path.write_text(EXP_SPEC.replace("rhs_1 = y1", "rhs_1 = 1/(t - 0.5)")
                        .replace("h = 0.001", "h = 0.25"))
        code, out, err = run(capsys, "solve", str(path))
        assert code == 1 and out == ""
        assert "integration failed" in err


class TestDeriv:
    def test_square(self, capsys):
        code, out, _ = run(capsys, "deriv", "x^2", "--at", "3")
        assert code == 0 and out.strip() == "6"

    def test_reciprocal_is_exact_fraction(self, capsys):
        code, out, _ = run(capsys, "deriv", "1/x", "--at", "2")
        assert code == 0 and out.strip() == "-1/4"

    def test_rational_point(self, capsys):
        code, out, _ = run(capsys, "deriv", "x^3", "--at", "1/2")
        assert code == 0 and out.strip() == "3/4"

    def test_transcendental_rejected(self, capsys):
        code, _, err = run(capsys, "deriv", "sin(x)", "--at", "0")
        assert code == 1
        assert "rational" in err

    def test_pole_rejected(self, capsys):
        code, _, err = run(capsys, "deriv", "1/x", "--at", "0")
        assert code == 1

    def test_syntax_error_is_usage_error(self, capsys):
        code, _, err = run(capsys, "deriv", "x +", "--at", "1")
        assert code == 2

    def test_large_powers(self, capsys):
        for n in (2000, 400):
            start = time.perf_counter()
            code, out, _ = run(capsys, "deriv", f"x^{n}", "--at", "2")
            assert time.perf_counter() - start < 5.0
            assert code == 0 and out == f"{n * 2 ** (n - 1)}\n"

    def test_vanishing_divisor_is_decided_quickly(self, capsys):
        # its series vanishes in every kept term, so the zero test replays it
        # at integer points; expanding this one in full would take only a
        # few ms, and what is slow to expand is a dense product such as
        # (x+1)^1024*(x+2)^1024-(x+2)^1024*(x+1)^1024 (over 9 s)
        start = time.perf_counter()
        result = run(capsys, "deriv", "1/((x-1)^1000-(x-1)^1000)", "--at", "2/3")
        assert time.perf_counter() - start < 2.0
        assert result == (1, "", "stepcalc: division by zero (at position 1)\n")

    def test_degree_limit_refuses_before_computing(self, capsys):
        for source in ("x^1000000000", "x^1e300"):
            start = time.perf_counter()
            result = run(capsys, "deriv", source, "--at", "2")
            assert time.perf_counter() - start < 0.1
            assert result == (1, "", f"stepcalc: degree above the exact limit of {MAX_EXACT_DEGREE}"
                                     " (at position 1)\n")

    def test_bit_limit_refuses_before_computing(self, capsys):
        start = time.perf_counter()
        result = run(capsys, "deriv", "x*2^100000000", "--at", "1")
        assert time.perf_counter() - start < 0.1
        assert result == (1, "", f"stepcalc: power above the exact limit of {MAX_EXACT_BITS} bits"
                                 " (at position 3)\n")

    def test_bit_limit_ignores_the_point(self, capsys):
        assert run(capsys, "deriv", "x^70/x^69", "--at", "1e-300") == (0, "1\n", "")

    def test_huge_constant_powers_end_at_once(self):
        # 2^1e10 would take more than a gigabyte: run in a child process
        # whose address space is capped, so a regression fails, not the host
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        for source, message in (("2^1e10", "stepcalc: expression must contain exactly one variable"),
                                ("x*2^1e10", "stepcalc: power above the exact limit")):
            proc = subprocess.run([sys.executable, "-m", "stepcalc.cli", "deriv", source, "--at", "1"],
                                  capture_output=True, text=True, timeout=10, env=child_env(),
                                  preexec_fn=cap_memory)
            assert proc.returncode == 1 and proc.stdout == "", source
            assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1, proc.stderr

    @pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 6000,
                        reason="this interpreter prints integers of any length")
    def test_result_over_the_digit_limit(self, capsys):
        # 2^20000 has 6021 digits: within the exact bit limit, past Python's
        # limit on converting an integer to text
        assert run(capsys, "deriv", "x*2^20000", "--at", "1") == (
            1, "", "stepcalc: exact result has too many digits to print\n")

    @pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 6000,
                        reason="this interpreter prints integers of any length")
    def test_literal_over_the_digit_limit(self, capsys):
        # refused where it stands, as any other exact evaluation error
        zeros = "0" * 6000
        for source in (f"x^{zeros}2", f"x*0.{zeros}1"):
            assert run(capsys, "deriv", source, "--at", "3") == (
                1, "", "stepcalc: number has too many digits to read exactly (at position 2)\n")

    def test_builds_no_ratfunc(self, capsys, monkeypatch):
        built = []
        init = RatFunc.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(RatFunc, "__init__", counted)
        requests = [  # one of each exact_deriv shape
            ("x^200", "5/3"),
            ("(x - 1/5)^3 * (x + 2/7)^2 / ((x - 1/2)^2 * (x - 1/3))", "3/7"),
            ("((x - 1/2)^3 * (x + 1)) / ((x - 1/2)^2)", "1/2"),
            ("3/2 * (x - 1)^4 * (x + 2) - (x - 1/3)^2", "-2"),
        ]
        for source, point in requests:
            code, out, err = run(capsys, "deriv", source, "--at", point)
            assert code == 0 and err == "", source
        assert built == []
        EPSILON * EPSILON
        assert built  # the counter sees the reference path

    def test_bad_point_is_usage_error(self, capsys):
        for point in ("abc", "nan", "1/0"):
            code, _, err = run(capsys, "deriv", "x^2", f"--at={point}")
            assert code == 2
            assert "--at" in err


class TestFn:
    def test_exp_one(self, capsys):
        code, out, _ = run(capsys, "fn", "exp", "1")
        assert code == 0
        assert abs(float(out) - oracles.E) < 1e-9

    def test_csv_ends_at_the_printed_value(self, capsys, tmp_path):
        path = tmp_path / "exp.csv"
        code, out, _ = run(capsys, "fn", "exp", "1", "--out", str(path))
        assert code == 0
        assert path.read_text().splitlines()[-1] == f"1,{out.strip()}"

    @pytest.mark.parametrize("argv", [("exp", "-1.5"), ("sin", "2.5"), ("cos", "-0.7"),
                                      ("sn", "1.2", "--k", "0.6"), ("cn", "3"), ("dn", "-2", "--method", "rk4"),
                                      ("invgd", "1.2"), ("sin", "0.9", "--method", "euler", "--h", "0.01")])
    def test_out_prints_and_writes_one_run(self, capsys, tmp_path, starts, argv):
        path = tmp_path / "fn.csv"
        code, out, err = run(capsys, "fn", *argv, "--out", str(path))
        assert (code, err, starts) == (0, "", [0.0])
        assert run(capsys, "fn", *argv) == (0, out, "")
        output = functions.by_name(argv[0]).output
        assert path.read_text().splitlines()[-1].split(",")[1 + output] == out.strip()

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "fn", "gamma", "1")
        assert code == 1

    def test_invgd_pole(self, capsys):
        code, _, _ = run(capsys, "fn", "invgd", str(math.pi / 2))
        assert code == 1

    def test_invgd_near_the_pole(self, capsys):
        # 1.5707 is 0.08 steps from the pole; RK4 printed 10.2349 for 9.9409
        code, out, err = run(capsys, "fn", "invgd", "1.5707")
        assert (code, out) == (1, "")
        assert "x=1.5707" in err and "h=0.001" in err
        code, out, _ = run(capsys, "fn", "invgd", "1.55")
        assert code == 0 and abs(float(out) / oracles.inv_gudermannian(1.55) - 1.0) < 1e-8
        # 89.9 degrees is 17.5 steps of MERIDIONAL_H from the pole
        code, out, _ = run(capsys, "lox", "--lat1", "0", "--lon1", "0", "--lat2", "89.9", "--lon2", "10")
        assert code == 0 and out.startswith("bearing_rad=")

    def test_subnormal_result_is_refused(self, capsys):
        # e^-800 rounds to 0, but each Taylor step rounded the state back up to
        # 5e-324, and RK4 held 2.47e-321 (2.47e-322 at h = 0.01, a tenth of the
        # steps); e^-720 = 2.0e-313 is subnormal too
        for argv in (("-800",), ("-800", "--method", "rk4", "--h", "0.01"), ("-720",)):
            code, out, err = run(capsys, "fn", "exp", *argv)
            assert (code, out, err.count("\n")) == (1, "", 1)
            assert "exp(" in err and "subnormal" in err
        code, out, _ = run(capsys, "fn", "exp", "-700")
        assert code == 0 and abs(float(out) - math.exp(-700.0)) <= 1e-13 * math.exp(-700.0)

    def test_taylor_step_too_long_is_refused(self, capsys):
        # the poles of sn at k = 1 (tanh) lie pi/2 off the real axis: a step of 2
        # cannot converge, and is split into two of 1, which do; a step of 3000
        # would need some 2^12 halves, more than a split may add, and is refused
        code, out, err = run(capsys, "fn", "sn", "2", "--k", "1", "--h", "2")
        assert (code, err) == (0, "") and abs(float(out) - math.tanh(2.0)) <= 1e-14
        code, out, err = run(capsys, "fn", "sn", "3000", "--k", "1", "--h", "3000")
        assert (code, out) == (1, "")
        assert "h=3000.0" in err and "all its budget allows" in err and err.count("\n") == 1

    @pytest.mark.parametrize("method", ["rk4", "euler"])
    def test_explicit_method_is_the_plain_run(self, capsys, method):
        for name, x in (("sin", "2.5"), ("dn", "-1.7"), ("exp", "3")):
            f = functions.by_name(name)
            _, state = integrate_final(f.ivp, StepPlan(functions.DEFAULT_H, float(x)), method)
            assert run(capsys, "fn", name, x, "--method", method) == (0, f"{state[f.output]:.17g}\n", "")


class TestTable:
    def test_step_defaults_by_method(self, capsys):
        # as for fn: Taylor steps by default, one per 225' segment; RK4 and Euler at DEFAULT_H
        assert run(capsys, "table") == (0, tables.generate_sine_table(1e7, "taylor", tables.TAYLOR_H).to_csv(), "")
        for method in ("rk4", "euler"):
            expected = tables.generate_sine_table(1e7, method, tables.DEFAULT_H).to_csv()
            assert run(capsys, "table", "--method", method) == (0, expected, ""), method

    def test_shape_and_final_value(self, capsys):
        code, out, _ = run(capsys, "table", "--h", "1e-4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,arcmin,value,diff1,diff2"
        assert len(lines) == 25
        final = float(lines[-1].split(",")[2])
        assert abs(final - 1e7) < 0.1


class TestPi:
    def test_corrected_terms(self, capsys):
        code, out, _ = run(capsys, "pi", "--terms", "1000", "--corrected")
        assert code == 0
        assert abs(float(out) - oracles.PI) < 1e-6

    def test_corrected_prints_averaged_partial_sums(self, capsys):
        # the CLI's --corrected adds half the next term, byte for byte
        for n in (7, 1000):
            code, out, _ = run(capsys, "pi", "--terms", str(n), "--corrected")
            assert code == 0
            assert out == f"{partial_sum(LEIBNIZ, n) + leibniz_term(n) / 2.0:.17g}\n"

    def test_discard_reports_bookkeeping(self, capsys):
        code, out, _ = run(capsys, "pi", "--discard", "1e-4")
        assert code == 0
        fields = dict(part.split("=") for part in out.split())
        assert int(fields["terms_used"]) == 20000
        assert float(fields["discarded_bound"]) < 1e-4
        assert abs(float(fields["value"]) - oracles.PI) < 1e-4

    def test_terms_bounded(self, capsys):
        limit = series.DEFAULT_MAX_TERMS
        assert build_parser().parse_args(["pi", "--terms", str(limit)]).terms == limit
        # refused while parsing arguments, so no summing starts
        code, out, err = run(capsys, "pi", "--terms", str(limit + 1))
        assert (code, out) == (2, "") and "argument --terms" in err
        code, out, err = run(capsys, "pi", "--discard", "1e-300", "--max-terms", str(limit + 1))
        assert (code, out) == (2, "") and "argument --max-terms" in err

    def test_default_term_cap_ends_quickly(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "pi", "--discard", "1e-300")
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert "terms_used=1000000 " in out and out.endswith("(term cap reached)\n")

    def test_nonpositive_counts_are_usage_errors(self, capsys):
        for argv in (("--terms", "0"), ("--terms", "-3"), ("--discard", "1e-3", "--max-terms", "0"),
                     ("--discard", "0")):
            code, _, err = run(capsys, "pi", *argv)
            assert code == 2
            assert f"argument {argv[-2]}" in err


class TestPendulum:
    def test_sweep_last_row_ratio(self, capsys):
        code, out, _ = run(capsys, "pendulum", "--theta0", str(math.pi / 2), "--sweep")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "theta0,period,ratio_to_small_angle"
        assert len(lines) == 21
        ratio = float(lines[-1].split(",")[2])
        assert f"{ratio:.4f}" == "1.1803"

    def test_sweep_under_one_second(self, capsys):
        start = time.perf_counter()
        code, _, _ = run(capsys, "pendulum", "--theta0", str(math.pi / 2), "--sweep")
        assert code == 0 and time.perf_counter() - start < 1.0

    def test_sweep_points_bound_is_inclusive(self):
        # MAX_SWEEP_POINTS + 1 is a usage error (TestErrorContract); no point runs here
        argv = ["pendulum", "--theta0", "1", "--sweep", "--sweep-points", str(MAX_SWEEP_POINTS)]
        assert build_parser().parse_args(argv).sweep_points == MAX_SWEEP_POINTS

    def test_methods_agree(self, capsys):
        args = ("pendulum", "--theta0", "1.0")
        _, out_e, _ = run(capsys, *args)
        _, out_o, _ = run(capsys, *args, "--method", "ode")
        assert abs(float(out_e) - float(out_o)) / float(out_e) < 1e-6

    # RK4 found a period outside the AGM bracket at each of these steps.  Taylor
    # steps answer all but the step of 2, which passes the second zero of theta too
    @pytest.mark.parametrize("theta0, h", [("2.5", "1"), ("1.5", "2"), ("2.5", "0.4"), ("2.385", "1.15")])
    def test_coarse_step_is_refused_after_one_integration(self, capsys, monkeypatch, theta0, h):
        windows = []
        integrate = applications.integrate

        def recording(ivp, plan, *args, **kwargs):
            windows.append(plan)
            return integrate(ivp, plan, *args, **kwargs)

        monkeypatch.setattr(applications, "integrate", recording)
        code, out, err = run(capsys, "pendulum", "--theta0", theta0, "--method", "ode", "--h", h)
        assert len(windows) == 1
        if h == "2":
            assert (code, out, err.count("\n")) == (1, "", 1)
            assert f"step h={float(h)!r}" in err and "too coarse for the period" in err
        else:
            exact = oracles.pendulum_period(float(theta0))
            assert (code, err) == (0, "") and abs(float(out) - exact) <= 1e-15 * exact

    def test_bad_amplitude(self, capsys):
        code, _, _ = run(capsys, "pendulum", "--theta0", "4.0")
        assert code == 1


class TestBallistics:
    def test_vacuum_closed_form(self, capsys):
        code, out, _ = run(capsys, "ballistics", "--mass", "0.16",
                           "--v0", "30", "--alpha", "40")
        assert code == 0
        g = 9.80665
        expected = 30.0**2 * math.sin(2 * math.radians(40)) / g
        assert abs(float(out) - expected) / expected < 1e-5


    def test_csv_runs_past_the_printed_landing(self, capsys, tmp_path):
        path = tmp_path / "flight.csv"
        code, out, _ = run(capsys, "ballistics", "--mass", "0.16", "--v0", "30", "--alpha", "40",
                           "--drag", "0.005", "--out", str(path))
        assert code == 0
        rows = [[float(v) for v in line.split(",")] for line in path.read_text().splitlines()[1:]]
        last_up = max(i for i, row in enumerate(rows) if row[2] >= 0.0)
        assert rows[last_up][1] < float(out) < rows[last_up + 1][1]
        assert rows[-1][2] < 0.0

    @pytest.mark.parametrize("extra", [(), ("--drag", "0.005"), ("--drag", "0.02", "--h", "0.05"),
                                       ("--v0", "1e-3")])
    def test_out_reads_the_range_from_the_written_trajectory(self, capsys, tmp_path, starts, extra):
        path = tmp_path / "flight.csv"
        shot = ("ballistics", "--mass", "0.16", "--v0", "40", "--alpha", "40", *extra)
        code, out, err = run(capsys, *shot, "--out", str(path))
        assert (code, err) == (0, "")
        # the run to the apex starts at launch, and so, when the apex lies in the
        # first step, does the apex locator's one step onto it (exact in a
        # vacuum); the landing locator's steps start at the node before landing
        launch = starts.count(0.0)
        assert starts[:launch] == [0.0] * launch and launch == (2 if extra == ("--v0", "1e-3") else 1)
        assert run(capsys, *shot) == (0, out, "")
        rows = [tuple(map(float, line.split(","))) for line in path.read_text().splitlines()[1:]]
        traj = Trajectory(sum(rows, ()), 4)
        args = cli.build_parser().parse_args(shot)
        spec = applications.BallisticsSpec(args.mass, args.drag, args.v0, math.radians(args.alpha), args.g)
        landing = find_zero_crossings(traj, 1, applications.ballistics_ivp(spec), "taylor")[1]
        assert f"{landing[0]:.17g}\n" == out

    def test_flight_shorter_than_one_step(self, capsys):
        code, out, err = run(capsys, "ballistics", "--mass", "1", "--alpha", "40", "--v0", "1e-3")
        expected = 1e-3**2 * math.sin(2 * math.radians(40)) / 9.80665
        assert (code, err) == (0, "")
        assert abs(float(out) - expected) <= 1e-12 * expected

    def test_landing_within_the_first_step(self, capsys):
        # the 3.5 ms vacuum flight capped the step at 2.36 ms, and under RK4 drag
        # ended the flight inside it, below the first node (exit 1 at --h 0.01,
        # 0.000124682967607 at --h 1e-4, 0.0001174 at the default).  A cap from
        # the shortest ascent that drag allows, 1.36 ms, keeps a node above
        # ground, and Taylor steps give the drag oracle's range at any step
        heavy = ("ballistics", "--mass", "1", "--drag", "10000", "--v0", "0.1", "--alpha", "10")
        exact = oracles.drag_range(1.0, 10000.0, 0.1, math.radians(10))
        for extra in (("--h", "0.01"), ("--h", "1e-4"), ()):
            code, out, err = run(capsys, *heavy, *extra)
            assert (code, err) == (0, "") and abs(float(out) - exact) <= 1e-11 * exact, extra

    def test_drag_grid_is_answered_or_refused_naming_h(self, capsys):
        # 640 requests.  Heavy drag caps the step by the shortest ascent it
        # allows, and the 4 refused ones would need more than MAX_STEPS of it over
        # their window (two steps past the vacuum flight); these and 81 more were
        # refused under RK4, mostly with a state that was not finite.  The slowest
        # answer takes about 0.2 s
        refused = []
        for mass in ("0.01", "0.1", "1", "10"):
            for drag in ("0", "1e-4", "1e-3", "0.01", "0.1", "1", "10", "1e4"):
                for v0 in ("0.1", "1", "10", "100"):
                    for alpha in ("1", "10", "45", "80", "89"):
                        argv = ("ballistics", "--mass", mass, "--drag", drag, "--v0", v0, "--alpha", alpha)
                        start = time.perf_counter()
                        code, out, err = run(capsys, *argv)
                        assert time.perf_counter() - start < 1.0, argv
                        if code:
                            assert (code, out, err.count("\n")) == (1, "", 1) and "step size h=" in err, argv
                            refused.append(argv)
                        else:
                            assert err == "" and 0.0 < float(out) < math.inf, argv
        assert refused == [("ballistics", "--mass", "0.01", "--drag", "1e4", "--v0", "100", "--alpha", alpha)
                           for alpha in ("10", "45", "80", "89")]


    def test_near_vertical_shots_are_answered(self, capsys):
        # the speed's branch points lie vx/g off the apex, 1.7e-9 s at 89.9999999
        # degrees and v0 = 1; the parent's RK4 answered all of these, and
        # Taylor steps across the apex refused each at 89.999
        for mass, drag, v0 in (("0.16", "0.005", "40"), ("0.01", "1e-4", "1"), ("1", "0.01", "40"), ("1", "10", "1")):
            for alpha in ("89.9", "89.999", "89.9999", "89.9999999"):
                argv = ("ballistics", "--mass", mass, "--drag", drag, "--v0", v0, "--alpha", alpha)
                start = time.perf_counter()
                code, out, err = run(capsys, *argv)
                assert time.perf_counter() - start < 1.0, argv
                vacuum = float(v0) ** 2 * math.sin(2.0 * math.radians(float(alpha))) / 9.80665
                assert (code, err) == (0, "") and 0.0 < float(out) < vacuum, argv


class TestLox:
    def test_meridian(self, capsys):
        code, out, _ = run(capsys, "lox", "--lat1", "0", "--lon1", "0",
                           "--lat2", "10", "--lon2", "0")
        assert code == 0
        fields = dict(part.split("=") for part in out.split())
        assert float(fields["bearing_rad"]) == 0.0
        expected = 6371000.0 * math.radians(10)
        assert abs(float(fields["distance_m"]) - expected) < 1.0

    def test_half_turn_west_is_a_half_turn_east(self, capsys):
        # a longitude difference of exactly -180 deg is taken as +180 deg
        west = run(capsys, "lox", "--lat1", "10", "--lon1", "180", "--lat2", "20", "--lon2", "0")
        east = run(capsys, "lox", "--lat1", "10", "--lon1", "-180", "--lat2", "20", "--lon2", "0")
        assert west == east and west[0] == 0
        assert float(dict(part.split("=") for part in west[1].split())["bearing_rad"]) > 0.0

    def test_pole_rejected(self, capsys):
        code, _, _ = run(capsys, "lox", "--lat1", "90", "--lon1", "0",
                         "--lat2", "0", "--lon2", "0")
        assert code == 1

    @pytest.mark.parametrize("lat1, lat2, lon2", [("0", "1e-20", "1"), ("10", "10.000000000000002", "50"),
                                                  ("10", "10.000000001", "50"), ("10", "10.0002", "50")])
    def test_nearly_equal_latitudes(self, capsys, lat1, lat2, lon2):
        # 18.16 m, 2887865.67 m and 2.2e-6 off when the distance was
        # R |dlat / cos(bearing)| with the bearing rounded near pi/2; 10.0002 was
        # 3.4e-12 off as the difference of two meridional parts from the equator
        code, out, _ = run(capsys, "lox", "--lat1", lat1, "--lon1", "0", "--lat2", lat2, "--lon2", lon2)
        assert code == 0
        fields = dict(part.split("=") for part in out.split())
        bearing, distance = oracles.loxodrome(math.radians(float(lat1)), math.radians(float(lat2)),
                                              math.radians(float(lon2)), 6371000.0)
        assert abs(float(fields["bearing_rad"]) - bearing) <= 1e-13 * bearing
        assert abs(float(fields["distance_m"]) - distance) <= 1e-13 * distance


class TestEllipk:
    def test_complete(self, capsys):
        code, out, _ = run(capsys, "ellipk", "--k", "0.8")
        assert code == 0
        assert abs(float(out) - oracles.elliptic_K_agm(0.8)) < 1e-8

    def test_zero_amplitude(self, capsys):
        assert run(capsys, "ellipk", "--k", "0.5", "--phi", "0") == (0, "0\n", "")

    @pytest.mark.parametrize("k", ["0.9999", "0.999999", "0.9999999"])
    def test_near_unit_modulus(self, capsys, k):
        # K integrated on k'^2 = (1 - k)(1 + k): on 1 - k^2 sin^2 t these were
        # 3.3e-14, 4.1e-13 and 2.4e-12 off a 50-digit AGM
        code, out, _ = run(capsys, "ellipk", "--k", k)
        assert code == 0
        exact = oracles.elliptic_K_agm(float(k))
        assert abs(float(out) - exact) <= 1e-13 * exact

    def test_refuses_near_unit_modulus(self, capsys):
        # step doubling converges ever slower as k -> 1; past its step budget
        # the answer is refused rather than printed with unknown error
        assert run(capsys, "ellipk", "--k", "0.999999999999") == (1, "", (
            "stepcalc: elliptic integral did not converge to 1e-12 within 262144 steps at k=0.999999999999\n"))


class TestRectify:
    def test_default_unit_circle(self, capsys):
        code, out, _ = run(capsys, "rectify", "-n", "6")
        assert code == 0
        assert abs(float(out) - 6.0) < 1e-12

    def test_explicit_curve(self, capsys):
        code, out, _ = run(capsys, "rectify", "--x-expr", "t", "--y-expr", "2*t",
                           "--t0", "0", "--t1", "1", "-n", "16")
        assert code == 0
        assert abs(float(out) - math.sqrt(5)) < 1e-12

    def test_half_specified_curve(self, capsys):
        code, _, _ = run(capsys, "rectify", "--x-expr", "t")
        assert code == 1

    def test_segment_bounds_are_inclusive(self, capsys):
        # 0, negative counts and MAX_STEPS + 1 are usage errors (TestErrorContract)
        assert run(capsys, "rectify", "-n", "1")[0] == 0
        assert build_parser().parse_args(["rectify", "-n", str(MAX_STEPS)]).segments == MAX_STEPS

    def test_long_expression_chain(self, capsys):
        # operator chains have no length bound; only nesting does (TestErrorContract)
        for n in (300, 3000):
            code, out, _ = run(capsys, "rectify", "--x-expr", "+".join(["t"] * n), "--y-expr", "0",
                               "--t0", "0", "--t1", "1", "-n", "4")
            assert (code, out) == (0, f"{n}\n")


def plain_rectify(curve, t_start, t_end, segments):
    """``applications.rectify`` as a plain Python loop, before its loop was
    generated: the oracle of the bits."""
    if segments < 1:
        raise ValueError("need at least one segment")
    span = t_end - t_start
    if not math.isfinite(span * segments):
        raise ValueError(f"cannot step t0={t_start!r} to t1={t_end!r} in n={segments} segments: "
                         "(t1 - t0) * n is not finite")
    total = 0.0
    px, py = curve(t_start)
    for i in range(1, segments + 1):
        x, y = curve(t_start + span * i / segments)
        total += math.hypot(x - px, y - py)
        px, py = x, y
    if not math.isfinite(total):
        raise ValueError(f"polyline length is not finite: {total!r}")
    return total


# identities exact in floating point (sin^2 + cos^2 to an ulp), with the nodes each adds
RECTIFY_PADS = ((2, "({}) * 1"), (2, "({}) + 0"), (2, "1 * ({})"), (2, "({}) / 1"), (2, "-(-({}))"),
                (4, "({}) - (t - t)"), (8, "({}) * (sin(t)^2 + cos(t)^2)"))


def padded_curve(rng):
    """x and y sources of a line or a circle of 1 to 30 nodes each, and a t0 and t1."""
    t0 = rng.uniform(-1.0, 1.0)
    shape = rng.choice(["t", "line", "circle"])
    if shape == "t":
        sources, nodes = ["t", "t"], 1
    elif shape == "line":
        a, b, c, d = (repr(rng.uniform(-2.0, 2.0)) for _ in range(4))
        sources, nodes = [f"{a} + {b} * t", f"{c} + {d} * t"], 5
    else:
        r, w, p, cx, cy = (repr(rng.uniform(0.5, 2.0)) for _ in range(5))
        sources, nodes = [f"{cx} + {r} * cos({w} * t + {p})", f"{cy} + {r} * sin({w} * t + {p})"], 9
    padded = []
    for source in sources:
        size, target = nodes, rng.randint(nodes, 30)
        while size < target:
            extra, template = rng.choice(RECTIFY_PADS)
            source, size = template.format(source), size + extra
        padded.append(source)
    return padded, t0, t0 + rng.uniform(0.5, 6.0)


class TestRectifyLoop:
    """``rectify``'s loop is generated: around a call to the curve in the
    library, with the curve's trees inlined in the CLI.  Either way it gives
    the plain loop's bits, and the CLI's fails as the walker does."""

    @staticmethod
    def walked(sources):
        trees = [expr.parse(source) for source in sources]
        return lambda t: tuple(expr.evaluate(tree, {"t": t}) for tree in trees)

    def same_bits(self, capsys, curve, t_start, t_end, n, argv):
        want = f"{plain_rectify(curve, t_start, t_end, n):.17g}"
        assert f"{applications.rectify(curve, t_start, t_end, n):.17g}" == want
        assert run(capsys, "rectify", *argv, "-n", str(n)) == (0, want + "\n", "")

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 1023, 4096])
    def test_the_circle(self, capsys, n):
        self.same_bits(capsys, applications.unit_circle, 0.0, 2.0 * math.pi, n, [])

    def test_a_backward_span_and_a_negative_zero_start(self, capsys):
        assert run(capsys, "rectify", "-n", "7", "--t0", "5", "--t1", "-2") == (0, "6.7119575404588421\n", "")
        self.same_bits(capsys, applications.unit_circle, 5.0, -2.0, 7, ["--t0", "5", "--t1", "-2"])
        self.same_bits(capsys, applications.unit_circle, -0.0, 2.0 * math.pi, 5, ["--t0=-0.0"])

    def test_padded_expression_curves(self, capsys):
        rng = random.Random(20261020)
        for _ in range(60):
            sources, t0, t1 = padded_curve(rng)
            argv = [f"--x-expr={sources[0]}", f"--y-expr={sources[1]}", f"--t0={t0!r}", f"--t1={t1!r}"]
            self.same_bits(capsys, self.walked(sources), t0, t1, rng.randint(1, 300), argv)

    def test_a_long_chain(self, capsys):
        sources = ["+".join(["t"] * 3000), "t"]
        self.same_bits(capsys, self.walked(sources), 0.0, 1.0, 7,
                       ["--x-expr", sources[0], "--y-expr", "t", "--t0", "0", "--t1", "1"])

    @pytest.mark.parametrize("argv, message", [
        (["ln(t)", "t", "1", "-1", "10"], "ln: ln of a non-positive number (at position 0)"),
        (["1/(t-0.5)", "t", "0", "1", "2"], "division by zero (at position 1)"),
        (["ln(t)", "t", "0", "1", "4"], "ln: ln of a non-positive number (at position 0)"),  # the start node
        (["ln(t)", "t", "1", "0", "10"], "ln: ln of a non-positive number (at position 0)"),  # the last node
    ])
    def test_an_interior_failure_is_the_walkers(self, capsys, monkeypatch, argv, message):
        x, y, t0, t1, n = argv
        with pytest.raises(expr.ExprEvalError) as err:
            plain_rectify(self.walked([x, y]), float(t0), float(t1), int(n))
        assert str(err.value) == message
        calls, compiled = [], []
        walk, compile_guarded = expr.evaluate, expr.compile_guarded
        monkeypatch.setattr(expr, "evaluate", lambda tree, env: calls.append(env["t"]) or walk(tree, env))
        monkeypatch.setattr(expr, "compile_guarded", lambda *args: compiled.append(args) or compile_guarded(*args))
        monkeypatch.setattr(applications, "curve_polyline", lambda: pytest.fail("a second loop ran"))
        assert run(capsys, "rectify", "--x-expr", x, "--y-expr", y, "--t0", t0, "--t1", t1, "-n", n) == (
            1, "", f"stepcalc: {message}\n")
        assert len(set(calls)) == 1  # the walker ran at the failing node alone
        assert len(compiled) == 1  # and the loop was compiled once

    def test_a_success_walks_no_tree(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(expr, "evaluate", lambda tree, env: calls.append(tree))
        assert run(capsys, "rectify", "--x-expr", "t", "--y-expr", "t^2", "--t0", "0", "--t1", "1") == (
            0, "1.4789427864619091\n", "")
        assert run(capsys, "rectify", "-n", "3")[0] == 0
        assert calls == []  # the start point too comes from generated code

    def test_the_circle_compiles_once_and_curves_are_not_kept(self, capsys, monkeypatch):
        compiled = []
        compile_guarded = expr.compile_guarded

        def counted(*args):
            length = compile_guarded(*args)
            compiled.append(weakref.ref(length))
            return length

        monkeypatch.setattr(expr, "compile_guarded", counted)
        cli._circle.cache_clear()
        for n in ("5", "6"):
            run(capsys, "rectify", "-n", n)
        assert len(compiled) == 1
        for x in ("t", "2*t"):
            assert run(capsys, "rectify", "--x-expr", x, "--y-expr", "0", "--t0", "0", "--t1", "1")[0] == 0
        assert len(compiled) == 3
        gc.collect()
        assert compiled[0]() is not None and compiled[1]() is None and compiled[2]() is None

    def test_globals_hold_no_builtins(self, tmp_path):
        # every generated function: the loops of rectify, and the run loops of solve around a call and inlined
        path = tmp_path / "pendulum.ivp"
        path.write_text("dim = 2\nrhs_1 = y2\nrhs_2 = -sin(y1)\nt0 = 0\ny0 = 1, 0\nt_end = 1\nh = 0.1\nmethod = rk4\n")
        ivp, _, method = cli.load_spec_file(str(path))
        loops = [solver._run_loop(method, stage, 2, True, None) for stage in (solver._call_rhs, ivp.stage)]
        for code in (cli._circle()[1], applications.curve_polyline(), *loops):
            namespace = code.__globals__
            assert namespace["__builtins__"] == {}
            assert all(name.startswith("_") for name in namespace)


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2
        assert "usage" in err.lower()

    def test_no_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2


class TestParser:
    """One parser serves every request; usage errors exit 2 with one stderr
    line, and help is laid out for 80 columns whatever the terminal."""

    BAD_VALUE = {"solve": ["x.ivp", "--width", "w"], "deriv": ["x", "--at", "a"], "fn": ["exp", "x"],
                 "table": ["--h", "h"], "pi": ["--terms", "t"], "pendulum": ["--theta0", "t"],
                 "ballistics": ["--mass", "m"], "lox": ["--lat1", "l"], "ellipk": ["--k", "k"],
                 "rectify": ["-n", "n"]}

    @pytest.mark.parametrize("name", COMMANDS)
    def test_subcommand_outcomes(self, capsys, name):
        for rest in (["--help"], [], ["--bogus"], self.BAD_VALUE[name], ["a", "b", "c", "d"]):
            code, _, err = run(capsys, name, *rest)
            assert code in (0, 2) and (code == 0) == (err == ""), rest

    @pytest.mark.parametrize("argv", [["--help"], [], ["frobnicate"], ["--bogus", "deriv"], ["de", "x"]])
    def test_requests_naming_no_subcommand(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        if argv == ["--help"]:
            assert code == 0 and all(name in out for name in COMMANDS)
        else:
            assert code == 2 and "usage error: " in err

    def test_shared_parsers_give_the_outcomes_of_fresh_ones(self, capsys, monkeypatch):
        sequence = [["pi", "--terms", "10", "--corrected"], ["pi", "--terms", "10"],
                    ["fn", "sin", "1", "--h", "0.25"], ["fn", "sin", "1"],
                    ["fn", "sin", "x"], ["fn", "--help"], ["rectify", "--t1", "inf"], ["frobnicate"]]
        shared = [run(capsys, *argv) for argv in sequence * 2]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [run(capsys, *argv) for argv in sequence * 2]
        assert shared == fresh
        assert [code for code, _, _ in shared[:len(sequence)]] == [0, 0, 0, 0, 2, 0, 1, 2]
        assert shared[:len(sequence)] == shared[len(sequence):]
        monkeypatch.undo()
        assert build_parser() is build_parser()

    def test_help_lists_the_subcommands_in_order(self):
        assert COMMANDS == ("solve", "deriv", "fn", "table", "pi", "pendulum", "ballistics", "lox", "ellipk",
                            "rectify")

    @pytest.mark.parametrize("argv", [["--help"], *([name, "--help"] for name in COMMANDS)], ids=" ".join)
    def test_help_is_laid_out_for_80_columns_on_any_terminal(self, capsys, monkeypatch, argv):
        helps = []
        for columns in ("40", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            code, out, err = run(capsys, *argv)
            assert code == 0 and err == ""
            helps.append(out)
        assert helps[0] == helps[1]
        assert max(map(len, helps[0].splitlines())) <= 80


class TestImports:
    """A request imports only the library modules it uses."""

    @pytest.mark.parametrize("argv, absent", [
        (["deriv", "x^2", "--at", "1"], {"stepcalc.solver", "stepcalc.applications", "stepcalc.svgplot"}),
        (["pi"], {"stepcalc.expr", "stepcalc.nonarch", "stepcalc.solver"}),
        (["table"], {"stepcalc.expr", "stepcalc.nonarch", "stepcalc.applications"}),
    ])
    def test_request_leaves_unused_modules_unimported(self, argv, absent):
        code = ("import sys; from stepcalc import cli; "
                f"code = cli.main({argv!r}); "
                "print(code, *sorted(m for m in sys.modules if m.startswith('stepcalc')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                              env=child_env())
        assert proc.returncode == 0, proc.stderr
        code, *loaded = proc.stdout.splitlines()[-1].split()
        assert code == "0" and "stepcalc.cli" in loaded
        assert absent.isdisjoint(loaded), loaded


class TestErrorContract:
    def test_failures_are_one_stderr_line(self, capsys, tmp_path):
        nan_spec = tmp_path / "nan.ivp"
        nan_spec.write_text(EXP_SPEC.replace("y0 = 1", "y0 = nan"))
        inf_h_spec = tmp_path / "inf_h.ivp"
        inf_h_spec.write_text(EXP_SPEC.replace("h = 0.001", "h = inf"))
        inf_t0_spec = tmp_path / "inf_t0.ivp"
        inf_t0_spec.write_text(EXP_SPEC.replace("t0 = 0", "t0 = inf"))
        inf_t_end_spec = tmp_path / "inf_t_end.ivp"
        inf_t_end_spec.write_text(EXP_SPEC.replace("t_end = 1", "t_end = -inf"))
        two_spec = tmp_path / "two.ivp"
        two_spec.write_text(EXP_SPEC.replace("dim = 1", "dim = 2").replace("y0 = 1", "y0 = 1, 1")
                            .replace("rhs_1 = y1", "rhs_1 = y1\nrhs_2 = y2"))
        inf_y0_spec = tmp_path / "inf_y0.ivp"
        inf_y0_spec.write_text(two_spec.read_text().replace("y0 = 1, 1", "y0 = 1, 1e400"))
        plot = ("solve", str(two_spec), "--svg", str(tmp_path / "two.svg"), "--components")
        curve = ("--y-expr", "t", "--t0", "0", "--t1", "10", "-n", "4")
        # fail at an interior node of the generated loop
        interior_ln = ("rectify", "--x-expr", "ln(t)", "--y-expr", "t", "--t0", "1", "--t1", "-1", "-n", "10")
        interior_division = ("rectify", "--x-expr", "1/(t-0.5)", "--y-expr", "t", "--t0", "0", "--t1", "1", "-n", "2")
        lox = ("lox", "--lat1", "10", "--lon1", "0", "--lat2", "20")
        # latitudes 1e-323 rad apart, a subnormal difference
        subnormal_lox = ("lox", "--lat1", "1.2748734119735194e-306", "--lon1", "0",
                         "--lat2", "1.27487341197352e-306", "--lon2", "1")
        shot = ("ballistics", "--mass", "1", "--v0", "40", "--alpha", "40")
        ballistics_refusals = {
            ("--drag", "nan"): "drag coefficient must be finite and non-negative, got nan",
            ("--g", "inf"): "gravity must be finite and positive, got inf",
            ("--v0", "inf"): "launch speed must be finite and positive, got inf",
            ("--mass", "inf", "--drag", "0.01"): "mass must be finite and positive, got inf",
            ("--mass", "nan"): "mass must be finite and positive, got nan",
            ("--mass", "1e-320", "--drag", "0.01"): "drag/mass ratio must be finite, got inf",
        }
        cases = [
            (1, ("fn", "exp", "nan")),
            (1, ("fn", "exp", "inf")),
            (1, ("fn", "exp", "1000", "--h", "0.1")),  # overflows to inf
            (1, ("fn", "exp", "711")),
            (1, ("fn", "exp", "0.5", "--h", "0")),
            (2, ("solve", str(nan_spec))),
            (2, ("solve", str(inf_y0_spec))),
            (1, ("ellipk", "--k", "0.5", "--h", "inf")),
            (1, ("fn", "exp", "1", "--h", "inf")),
            (1, ("fn", "exp", "1", "--h", "1e-300")),  # beyond the step budget
            (1, ("table", "--radius", "inf")),
            (1, ("table", "--h", "1e-8")),  # the quadrant is beyond the step budget
            (1, ("rectify", "--x-expr", "1e308*t", *curve)),  # overflows to nan
            (2, ("rectify", "--x-expr", "1e999", *curve)),  # overflowing literal
            (2, ("rectify", "--x-expr", "1e999*0+t", *curve)),
            (2, ("rectify", "--x-expr", "(" * 3000 + "t" + ")" * 3000, *curve)),
            (2, ("solve", str(inf_h_spec))),
            (2, ("solve", str(inf_t0_spec))),
            (2, ("solve", str(inf_t_end_spec))),
            (2, ("deriv", "²", "--at", "1")),
            (2, ("deriv", "x²", "--at", "1")),
            # decimal exponents past the exact limit, refused before their power of ten is built
            (1, ("deriv", "x*0e9999999", "--at", "1")),
            (1, ("deriv", "x+1e-9999999", "--at", "1")),
            (2, ("deriv", "x", "--at", "1e9999999")),
            (2, ("deriv", "x", "--at", "0e9999999")),
            (2, ("pi", "--terms", "0")),
            (2, ("frobnicate",)),
            (1, ("rectify", "--x-expr", "t", "--y-expr", "y", "--t0", "0", "--t1", "1")),
            (1, ("rectify", "--x-expr", "abs((0-1)^0.5)", *curve)),
            (1, interior_ln),
            (1, interior_division),
            (1, ("rectify", "--t1", "1e308", "-n", "3")),  # finite ends, but (t1 - t0) * n overflows
            (1, ("rectify", "--t1", "inf")),
            (1, ("rectify", "--x-expr", "t", "--y-expr", "t", "--t0", "0", "--t1", "inf")),
            (2, ("pendulum", "--theta0", "1", "--sweep", "--sweep-points", "0")),
            (2, ("pendulum", "--theta0", "1", "--sweep", "--sweep-points", "-2")),
            (2, ("rectify", "-n", "0")),
            (2, ("rectify", "-n", "-3")),
            (2, ("rectify", "-n", str(MAX_STEPS + 1))),
            (2, ("pi", "--terms", "100000000000")),  # refused before any summing
            (2, ("pendulum", "--theta0", "1", "--sweep", "--sweep-points", str(MAX_SWEEP_POINTS + 1))),
            (1, (*lox, "--lon2", "nan")),
            (1, (*lox, "--lon2", "inf")),
            (1, (*lox, "--lon2", "30", "--radius", "inf")),
            (1, (*lox, "--lon2", "30", "--radius", "nan")),
            (1, (*lox, "--lon2", "30", "--radius", "-1")),
            (1, (*lox, "--lon2", "30", "--radius", "0")),
            (1, ("lox", "--lat1", "10", "--lon1", "0", "--lat2", "10", "--lon2", "30", "--radius", "-1")),
            (1, subnormal_lox),
            (1, ("pendulum", "--theta0", "1", "--length", "inf")),
            (1, ("pendulum", "--theta0", "1", "--length", "nan")),
            (1, ("pendulum", "--theta0", "1", "--g", "inf")),
            (1, ("pendulum", "--theta0", "1", "--length", "1e300", "--g", "1e-300")),  # period overflows
            (1, ("pendulum", "--theta0", "1", "--length", "1e-300", "--g", "1e300")),  # period underflows
            (1, ("pendulum", "--theta0", "1", "--method", "ode", "--g", "inf")),
            (1, ("pendulum", "--theta0", "3.14159265")),  # the elliptic route, where sin(theta0/2) rounds to 1,
            (1, ("pendulum", "--theta0", "3.1415")),  # and before: its quadrature does not converge
            *((1, (*shot, *extra)) for extra in ballistics_refusals),
            (1, ("ballistics", "--mass", "1", "--alpha", "40", "--v0", "1e-300")),  # range underflows
            # subnormal answers: a negative F past overshooting nodes, a range 0.3 % high, a distance 2.3 % low
            (1, ("ellipk", "--k", "0.5", "--phi", "1e-320")),
            (1, ("ballistics", "--mass", "1", "--v0", "1e-160", "--alpha", "45")),
            (1, ("lox", "--lat1", "10", "--lon1", "0", "--lat2", "10", "--lon2", "1e-320", "--radius", "1")),
            (1, ("fn", "sin", "1e9", "--h", "100")),  # 10^7 steps, each split, are beyond the step budget
            (1, (*plot, "3")),
            (1, (*plot, "1,0")),
            (2, (*plot, "a")),
            (2, (*plot, "1.5")),
        ]
        for expected, argv in cases:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (expected, ""), argv
            assert err.startswith("stepcalc") and err.count("\n") == 1, argv
        assert f"{inf_h_spec}:7:" in run(capsys, "solve", str(inf_h_spec))[2]
        assert f"{inf_t0_spec}:4:" in run(capsys, "solve", str(inf_t0_spec))[2]
        assert f"{inf_t_end_spec}:6:" in run(capsys, "solve", str(inf_t_end_spec))[2]
        assert f"{nan_spec}:5: y0 must be finite, got (nan,)" in run(capsys, "solve", str(nan_spec))[2]
        assert f"{inf_y0_spec}:6: y0 must be finite, got (1.0, inf)" in run(capsys, "solve", str(inf_y0_spec))[2]
        assert "h=1e-300" in run(capsys, "fn", "exp", "1", "--h", "1e-300")[2]
        # refused at the first node that overflowed, not split 128 times from it
        assert run(capsys, "fn", "exp", "711")[2] == (
            "stepcalc: integration failed at t=710.0: state is not finite: (inf,)\n")
        assert run(capsys, "fn", "exp", "1000", "--h", "0.1")[2] == (
            "stepcalc: integration failed at t=709.8000000000001: state is not finite: (inf,)\n")
        assert "h=1e-08" in run(capsys, "table", "--h", "1e-8")[2]
        assert "100 levels" in run(capsys, "deriv", "(" * 3000 + "x" + ")" * 3000, "--at", "1")[2]
        assert "unexpected character" in run(capsys, "deriv", "x²", "--at", "1")[2]
        assert run(capsys, "deriv", "x*0e9999999", "--at", "1")[2] == (
            "stepcalc: decimal exponent above the exact limit of 19728 (at position 2)\n")
        assert run(capsys, "deriv", "x", "--at", "1e9999999")[2] == (
            "stepcalc deriv: usage error: argument --at: decimal exponent above the exact limit of 19728, "
            "got '1e9999999'\n")
        assert run(capsys, "pendulum", "--theta0", "3.14159265")[2] == (
            "stepcalc: elliptic integral did not converge to 1e-12 within 262144 steps at theta0=3.14159265, "
            "too close to pi; use --method ode\n")
        assert run(capsys, "pendulum", "--theta0", "3.1415")[2] == (
            "stepcalc: elliptic integral did not converge to 1e-12 within 262144 steps at theta0=3.1415, "
            "too close to pi; use --method ode\n")
        assert run(capsys, "rectify", "--x-expr", "t", "--y-expr", "y", "--t0", "0", "--t1", "1")[2] == (
            "stepcalc: unbound variable 'y' (at position 0)\n")
        assert run(capsys, "rectify", "--x-expr", "abs((0-1)^0.5)", *curve)[2] == (
            "stepcalc: power with a complex result (at position 9)\n")
        assert run(capsys, *interior_ln)[2] == "stepcalc: ln: ln of a non-positive number (at position 0)\n"
        assert run(capsys, *interior_division)[2] == "stepcalc: division by zero (at position 1)\n"
        assert run(capsys, "rectify", "--t1", "1e308", "-n", "3")[2] == (
            "stepcalc: cannot step t0=0.0 to t1=1e+308 in n=3 segments: (t1 - t0) * n is not finite\n")
        assert "t0=0.0 to t1=inf in n=1024 segments" in run(capsys, "rectify", "--t1", "inf")[2]
        # only nesting is bounded: a chain of any length is no error
        assert run(capsys, "deriv", "+".join(["x"] * 3000), "--at", "1") == (0, "3000\n", "")
        assert "argument --sweep-points" in run(capsys, "pendulum", "--theta0", "1", "--sweep",
                                                "--sweep-points", "0")[2]
        assert "argument --segments/-n" in run(capsys, "rectify", "-n", "0")[2]
        assert "argument --segments/-n" in run(capsys, "rectify", "-n", str(MAX_STEPS + 1))[2]
        assert "argument --terms" in run(capsys, "pi", "--terms", "100000000000")[2]
        assert "longitude must be finite" in run(capsys, *lox, "--lon2", "nan")[2]
        assert "latitude difference 1e-323 rad" in run(capsys, *subnormal_lox)[2]
        assert "radius must be finite and positive" in run(capsys, *lox, "--lon2", "30", "--radius", "inf")[2]
        assert "length must be finite" in run(capsys, "pendulum", "--theta0", "1", "--length", "inf")[2]
        assert "gravity must be finite" in run(capsys, "pendulum", "--theta0", "1", "--g", "inf")[2]
        assert "period must be finite" in run(capsys, "pendulum", "--theta0", "1", "--length", "1e300",
                                              "--g", "1e-300")[2]
        assert "the vacuum range is 0.0" in run(capsys, "ballistics", "--mass", "1", "--alpha", "40",
                                                 "--v0", "1e-300")[2]
        assert run(capsys, *plot, "3")[2] == "stepcalc: component 3 out of range 1..2\n"
        assert "argument --components" in run(capsys, *plot, "a")[2]
        assert not (tmp_path / "two.svg").exists()  # checked before anything is written
        for extra, message in ballistics_refusals.items():
            assert run(capsys, *shot, *extra)[2] == f"stepcalc: {message}\n", extra


class TestDefaults:
    def test_cli_defaults_are_the_library_constants(self):
        parser = build_parser()
        expected = [
            (("solve", "x.ivp"), {"width": svgplot.DEFAULT_WIDTH, "height": svgplot.DEFAULT_HEIGHT}),
            (("fn", "exp", "1"), {"h": None, "method": None}),
            (("table",), {"h": None, "method": "taylor"}),
            (("pi",), {"max_terms": series.DEFAULT_MAX_TERMS}),
            (("pendulum", "--theta0", "1"), {"h": applications.PENDULUM_H}),
            (("ballistics", "--mass", "1", "--v0", "1", "--alpha", "1"),
             {"h": applications.BALLISTICS_H}),
            (("lox", "--lat1", "0", "--lon1", "0", "--lat2", "1", "--lon2", "1"),
             {"h": applications.MERIDIONAL_H}),
            (("ellipk", "--k", "0.5"), {"h": None}),
            (("fn", "sn", "1"), {"k": functions.DEFAULT_K}),
        ]
        for argv, defaults in expected:
            args = vars(parser.parse_args(argv))
            assert {key: args[key] for key in defaults} == defaults, argv


    def test_help_lines_quote_the_library_constants(self, capsys):
        quoted = {
            ("fn", "--help"): f"step size; default {functions.TAYLOR_H:g} for taylor, else {functions.DEFAULT_H:g}",
            ("table", "--help"): f"step, radians (taylor {tables.TAYLOR_H:g}, else {tables.DEFAULT_H:g})",
            ("ellipk", "--help"): f"until two passes agree to {applications.ELLIPTIC_TOL:g}",
        }
        for argv, text in quoted.items():
            code, out, _ = run(capsys, *argv)
            assert code == 0 and text in " ".join(out.split()), argv


class TestFuzz:
    """Seeded random argument vectors over every subcommand.  Each ends
    within a time cap with exit 0, 1 or 2; a failure prints one stderr line
    and nothing on stdout, and a success prints only finite numbers."""

    EDGES = ["0", "-1", "1e300", "-1e300", "1e-300", "inf", "-inf", "nan", "abc"]
    COMMANDS = COMMANDS
    NON_FINITE = re.compile(r"(?<![A-Za-z_])[-+]?(inf|infinity|nan)(?![A-Za-z_])", re.IGNORECASE)

    @classmethod
    def draw(cls, rng, command, spec_path):
        def value(*typical):
            return rng.choice(typical) if rng.random() < 0.75 else rng.choice(cls.EDGES)

        def chain(names, ops="+-"):
            n = rng.choice([1, 2, 3, 30, 300, 3000])
            terms = [rng.choice(names) for _ in range(n)]
            return terms[0] + "".join(rng.choice(ops) + term for term in terms[1:])

        def options(*pairs, keep=0.8):
            argv = []
            for option, text in pairs:
                if rng.random() < keep:
                    argv += [option, text] if text is not None else [option]
            return argv

        step = ("--h", value("0.01"))  # coarse, so a run of typical values stays short
        if command == "solve":
            dim = rng.choice([1, 2])
            names = ["t"] + [f"y{i}" for i in range(1, dim + 1)]
            lines = [f"dim = {dim}", f"t0 = {value('0', '0.5')}", f"t_end = {value('1', '2')}",
                     f"h = {value('0.01')}", f"method = {rng.choice(['rk4', 'euler'])}",
                     "y0 = " + ",".join(value("1", "0.5") for _ in range(dim))]
            lines += [f"rhs_{i} = {chain(names)}" for i in range(1, dim + 1)]
            spec_path.write_text("\n".join(lines) + "\n")
            return ["solve", str(spec_path)]
        if command == "deriv":
            k = MAX_EXACT_DEGREE + rng.choice([-1, 0, 1])  # either side of the degree limit
            names = ["x", "x", "2", "x*x", "x^(x-x+2)", "(x+1)^(2*x/x)", f"x^{k}", f"x^(0-{k})"]
            return ["deriv", chain(names, "+-/"),
                    *options(("--at", value("1", "1/2", "-3")), keep=0.95)]
        if command == "fn":
            name = rng.choice(["exp", "sin", "cos", "sn", "cn", "dn", "invgd", "bogus"])
            return ["fn", name, value("1", "0.5", "-2"), *step,
                    *options(("--k", value("0.5")), ("--method", rng.choice(["rk4", "euler", "taylor"])))]
        if command == "table":
            return ["table", *step, *options(("--radius", value("1", "1e7")),
                                             ("--method", rng.choice(["rk4", "euler"])))]
        if command == "pi":
            argv = ["pi", *options(("--terms", value("10", "1000")), ("--corrected", None))]
            if rng.random() < 0.5:
                argv += ["--discard", value("0.01", "1e-3"), *options(
                    ("--max-terms", value("10", "1000")), ("--mode", rng.choice(["absolute", "relative"])))]
            return argv
        if command == "pendulum":
            return ["pendulum", *step, *options(
                ("--theta0", value("1", "0.5", "3")), ("--length", value("1", "2.5")),
                ("--g", value("9.8", "1")), ("--method", rng.choice(["ode", "elliptic"])),
                ("--sweep", None), ("--sweep-points", value("1", "5", "20")))]
        if command == "ballistics":
            return ["ballistics", *step, *options(
                ("--mass", value("1", "10")), ("--drag", value("0", "0.1")), ("--v0", value("10", "100")),
                ("--alpha", value("45", "30")), ("--g", value("9.8")), keep=0.9)]
        if command == "lox":
            return ["lox", *step, *options(
                ("--lat1", value("10", "45", "-30")), ("--lon1", value("0", "30", "-170")),
                ("--lat2", value("10", "60", "-80")), ("--lon2", value("0", "30", "170")),
                ("--radius", value("1", "6371000")), keep=0.9)]
        if command == "ellipk":
            return ["ellipk", *options(("--k", value("0.5", "0.9")), keep=0.95),
                    *options(("--phi", value("1", "0.5")), step, keep=0.5)]
        return ["rectify", *options(
            ("-n", value("4", "16", "1024")), ("--x-expr", chain(["t", "t", "2", "t*t"])),
            ("--y-expr", chain(["t", "1"])), ("--t0", value("0", "1")), ("--t1", value("1", "10")))]

    def test_every_run_ends_in_a_contracted_outcome(self, capsys, tmp_path):
        rng = random.Random(20261018)
        codes = set()
        for i in range(300):
            argv = self.draw(rng, self.COMMANDS[i % len(self.COMMANDS)], tmp_path / f"{i}.ivp")
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - start < 5.0, argv
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err, argv
            if code:
                assert out == "" and err.count("\n") == 1 and err.endswith("\n"), argv
            else:
                assert not self.NON_FINITE.search(out), (argv, out[:200])
            codes.add(code)
        assert codes == {0, 1, 2}
