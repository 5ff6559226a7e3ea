import math
import time
import xml.etree.ElementTree as ET

import pytest

import oracles
from stepcalc import applications, functions, series, svgplot, tables
from stepcalc.cli import build_parser, main
from stepcalc.series import LEIBNIZ, leibniz_term, partial_sum

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

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "fn", "gamma", "1")
        assert code == 1

    def test_invgd_pole(self, capsys):
        code, _, _ = run(capsys, "fn", "invgd", str(math.pi / 2))
        assert code == 1


class TestTable:
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

    def test_methods_agree(self, capsys):
        args = ("pendulum", "--theta0", "1.0")
        _, out_e, _ = run(capsys, *args)
        _, out_o, _ = run(capsys, *args, "--method", "ode")
        assert abs(float(out_e) - float(out_o)) / float(out_e) < 1e-6

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


class TestLox:
    def test_meridian(self, capsys):
        code, out, _ = run(capsys, "lox", "--lat1", "0", "--lon1", "0",
                           "--lat2", "10", "--lon2", "0")
        assert code == 0
        fields = dict(part.split("=") for part in out.split())
        assert float(fields["bearing_rad"]) == 0.0
        expected = 6371000.0 * math.radians(10)
        assert abs(float(fields["distance_m"]) - expected) < 1.0

    def test_pole_rejected(self, capsys):
        code, _, _ = run(capsys, "lox", "--lat1", "90", "--lon1", "0",
                         "--lat2", "0", "--lon2", "0")
        assert code == 1


class TestEllipk:
    def test_complete(self, capsys):
        code, out, _ = run(capsys, "ellipk", "--k", "0.8")
        assert code == 0
        assert abs(float(out) - oracles.elliptic_K_agm(0.8)) < 1e-8


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


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2
        assert "usage" in err.lower()

    def test_no_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2


class TestErrorContract:
    def test_failures_are_one_stderr_line(self, capsys, tmp_path):
        nan_spec = tmp_path / "nan.ivp"
        nan_spec.write_text(EXP_SPEC.replace("y0 = 1", "y0 = nan"))
        inf_h_spec = tmp_path / "inf_h.ivp"
        inf_h_spec.write_text(EXP_SPEC.replace("h = 0.001", "h = inf"))
        curve = ("--y-expr", "t", "--t0", "0", "--t1", "10", "-n", "4")
        cases = [
            (1, ("fn", "exp", "nan")),
            (1, ("fn", "exp", "inf")),
            (1, ("fn", "exp", "1000", "--h", "0.1")),  # overflows to inf
            (1, ("fn", "exp", "0.5", "--h", "0")),
            (1, ("solve", str(nan_spec))),
            (1, ("ellipk", "--k", "0.5", "--h", "inf")),
            (1, ("fn", "exp", "1", "--h", "inf")),
            (1, ("table", "--radius", "inf")),
            (1, ("rectify", "--x-expr", "1e308*t", *curve)),  # overflows to nan
            (1, ("rectify", "--x-expr", "1e999", *curve)),
            (2, ("solve", str(inf_h_spec))),
            (2, ("deriv", "²", "--at", "1")),
            (2, ("deriv", "x²", "--at", "1")),
            (2, ("pi", "--terms", "0")),
            (2, ("frobnicate",)),
        ]
        for expected, argv in cases:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (expected, ""), argv
            assert err.startswith("stepcalc") and err.count("\n") == 1, argv
        assert f"{inf_h_spec}:7:" in run(capsys, "solve", str(inf_h_spec))[2]
        assert "unexpected character" in run(capsys, "deriv", "x²", "--at", "1")[2]


class TestDefaults:
    def test_cli_defaults_are_the_library_constants(self):
        parser = build_parser()
        expected = [
            (("solve", "x.ivp"), {"width": svgplot.DEFAULT_WIDTH, "height": svgplot.DEFAULT_HEIGHT}),
            (("fn", "exp", "1"), {"h": functions.DEFAULT_H}),
            (("table",), {"h": tables.DEFAULT_H}),
            (("pi",), {"max_terms": series.DEFAULT_MAX_TERMS}),
            (("pendulum", "--theta0", "1"), {"h": applications.PENDULUM_H}),
            (("ballistics", "--mass", "1", "--v0", "1", "--alpha", "1"),
             {"h": applications.BALLISTICS_H}),
            (("lox", "--lat1", "0", "--lon1", "0", "--lat2", "1", "--lon2", "1"),
             {"h": applications.MERIDIONAL_H}),
            (("ellipk", "--k", "0.5"), {"h": applications.ELLIPTIC_H}),
        ]
        for argv, defaults in expected:
            args = vars(parser.parse_args(argv))
            assert {key: args[key] for key in defaults} == defaults, argv
