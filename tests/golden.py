"""The golden corpus: CLI argument vectors and what each one gives.

Run:  python3 tests/golden.py

It runs every vector of ``VECTORS`` in process through ``cli.main``, in a
scratch directory that holds a copy of ``golden/specs``, and rewrites
``golden/corpus.json`` with each vector's exit code, stdout and stderr
verbatim and the sha256 of each file it wrote.  ``test_golden.py`` replays
the vectors and compares, so a change that moves an output, a message or an
exit code fails there.  A change that moves bits by design rewrites the
corpus and names the entries that moved.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "golden" / "corpus.json"
SPECS = HERE / "golden" / "specs"

MAX_STEPS = 10**7  # solver.MAX_STEPS, written out so that this list reads no module
CURVE = ("--y-expr", "t", "--t0", "0", "--t1", "10", "-n", "4")
LOX = ("lox", "--lat1", "10", "--lon1", "0", "--lat2", "20")
SHOT = ("ballistics", "--mass", "1", "--v0", "40", "--alpha", "40")
PLOT = ("solve", "specs/two.ivp", "--svg", "two.svg", "--components")

VECTORS = [
    # solve: every spec key, both methods, CSV and SVG to stdout and to files
    ("solve", "specs/exp.ivp"),
    ("solve", "specs/exp_euler.ivp"),
    ("solve", "specs/two.ivp"),
    ("solve", "specs/exp.ivp", "--out", "-"),
    ("solve", "specs/pendulum.ivp", "--out", "traj.csv", "--svg", "traj.svg"),
    ("solve", "specs/two.ivp", "--svg", "two.svg", "--components", "2", "--width", "320", "--height", "200"),
    ("solve", "specs/two.ivp", "--out", "two.csv", "--svg", "-", "--components", "1,2"),
    ("solve", "specs/two.ivp", "--svg", "two.svg", "--components", ""),
    ("solve", "specs/long.ivp", "--out", "long.csv"),
    ("solve", "specs/long_euler.ivp", "--out", "long.csv"),
    ("solve", "specs/midpoint.ivp"),
    ("solve", "specs/pole.ivp"),
    ("solve", "specs/missing.ivp"),
    ("solve", "specs/nan.ivp"),
    ("solve", "specs/inf_y0.ivp"),
    ("solve", "specs/inf_h.ivp"),
    ("solve", "specs/inf_t0.ivp"),
    ("solve", "specs/inf_t_end.ivp"),
    ("solve", "specs/y0_count.ivp"),
    ("solve", "specs/unknown_var.ivp"),
    ("solve", "specs/no_equals.ivp"),
    ("solve", "specs/duplicate.ivp"),
    ("solve", "specs/no_method.ivp"),
    ("solve", "specs/dim_word.ivp"),
    ("solve", "specs/dim_zero.ivp"),
    ("solve", "specs/rhs_syntax.ivp"),
    ("solve", "specs/y0_word.ivp"),
    ("solve", "specs/rk5.ivp"),
    ("solve", "specs/unknown_key.ivp"),
    (*PLOT, "3"),
    (*PLOT, "1,0"),
    (*PLOT, "a"),
    (*PLOT, "1.5"),
    ("solve",),
    # deriv: exact answers, large degrees and every refusal
    ("deriv", "x^2", "--at", "3"),
    ("deriv", "1/x", "--at", "2"),
    ("deriv", "x^3", "--at", "1/2"),
    ("deriv", "x^3", "--at=-3"),
    ("deriv", "12345678901234567891*x^2 + 0.1*x", "--at", "1"),
    ("deriv", "(x^2-1)/(x-1) + 3*x^5 - 2/(x+7)", "--at", "0.25"),
    ("deriv", "x^200", "--at", "5/3"),
    ("deriv", "(x - 1/5)^3 * (x + 2/7)^2 / ((x - 1/2)^2 * (x - 1/3))", "--at", "3/7"),
    ("deriv", "((x - 1/2)^3 * (x + 1)) / ((x - 1/2)^2)", "--at", "1/2"),
    ("deriv", "3/2 * (x - 1)^4 * (x + 2) - (x - 1/3)^2", "--at", "-2"),
    ("deriv", "x^400", "--at", "2"),
    ("deriv", "x^2000", "--at", "2"),
    ("deriv", "x^2048", "--at", "1/3"),
    ("deriv", "x^(0-2048)", "--at", "3/2"),
    ("deriv", "x^2049", "--at", "2"),
    ("deriv", "x^70/x^69", "--at", "1e-300"),
    ("deriv", "+".join(["x"] * 3000), "--at", "1"),
    ("deriv", "sin(x)", "--at", "0"),
    ("deriv", "1/x", "--at", "0"),
    ("deriv", "1/((x-1)^1000-(x-1)^1000)", "--at", "2/3"),
    ("deriv", "x +", "--at", "1"),
    ("deriv", "x*y", "--at", "1"),
    ("deriv", "x^1000000000", "--at", "2"),
    ("deriv", "x^1e300", "--at", "2"),
    ("deriv", "x*2^100000000", "--at", "1"),
    ("deriv", "(" * 3000 + "x" + ")" * 3000, "--at", "1"),
    ("deriv", "²", "--at", "1"),
    ("deriv", "x²", "--at", "1"),
    ("deriv", "x*0e9999999", "--at", "1"),
    ("deriv", "x+1e-9999999", "--at", "1"),
    ("deriv", "x", "--at", "1e9999999"),
    ("deriv", "x", "--at", "0e9999999"),
    ("deriv", "x^2", "--at=abc"),
    ("deriv", "x^2", "--at=nan"),
    ("deriv", "x^2", "--at=1/0"),
    ("deriv", "x^2"),
    # fn: each function, method and step, with and without --out, and the refusals
    ("fn", "exp", "1"),
    ("fn", "exp", "-1.5", "--out", "fn.csv"),
    ("fn", "sin", "2.5"),
    ("fn", "cos", "-0.7"),
    ("fn", "sn", "1.2", "--k", "0.6"),
    ("fn", "cn", "3"),
    ("fn", "dn", "-2", "--method", "rk4"),
    ("fn", "invgd", "1.2"),
    ("fn", "invgd", "1.55"),
    ("fn", "sin", "0.9", "--method", "euler", "--h", "0.01", "--out", "fn.csv"),
    ("fn", "exp", "3", "--method", "rk4"),
    ("fn", "dn", "-1.7", "--method", "euler"),
    ("fn", "cos", "2", "--method", "taylor", "--h", "0.05", "--out", "fn.csv"),
    ("fn", "exp", "-700"),
    ("fn", "sn", "2", "--k", "1", "--h", "2"),
    ("fn", "sn", "1.5", "--k", "1", "--method", "rk4"),
    ("fn", "cn", "2", "--k", "0", "--method", "euler"),
    ("fn", "sin", "2", "--method", "rk4"),
    ("fn", "exp", "1", "--method", "euler"),
    ("fn", "gamma", "1"),
    ("fn", "invgd", "1.5707963267948966"),
    ("fn", "invgd", "1.5707"),
    ("fn", "exp", "-800"),
    ("fn", "exp", "-800", "--method", "rk4", "--h", "0.01"),
    ("fn", "exp", "-720"),
    ("fn", "sn", "3000", "--k", "1", "--h", "3000"),
    ("fn", "exp", "nan"),
    ("fn", "exp", "inf"),
    ("fn", "exp", "1000", "--h", "0.1"),
    ("fn", "exp", "711"),
    ("fn", "exp", "0.5", "--h", "0"),
    ("fn", "exp", "1", "--h", "inf"),
    ("fn", "exp", "1", "--h", "1e-300"),
    ("fn", "sin", "1e9", "--h", "100"),
    ("fn", "sin", "x"),
    ("fn", "sin", "1", "--method", "rk5"),
    # table
    ("table",),
    ("table", "--method", "rk4"),
    ("table", "--method", "euler", "--radius", "1", "--h", "0.01"),
    ("table", "--h", "1e-3"),
    ("table", "--radius", "60", "--out", "table.csv"),
    ("table", "--radius", "inf"),
    ("table", "--radius", "nan"),
    ("table", "--h", "1e-8"),
    # pi
    ("pi",),
    ("pi", "--terms", "7", "--corrected"),
    ("pi", "--terms", "1000", "--corrected"),
    ("pi", "--discard", "1e-4"),
    ("pi", "--discard", "1e-3", "--mode", "relative"),
    ("pi", "--discard", "1e-300", "--max-terms", "1000"),
    ("pi", "--discard", "0.01", "--corrected", "--terms", "3"),
    ("pi", "--terms", "0"),
    ("pi", "--terms", "-3"),
    ("pi", "--terms", "100000000000"),
    ("pi", "--discard", "0"),
    ("pi", "--discard", "1e-3", "--max-terms", "0"),
    ("pi", "--discard", "1e-300", "--max-terms", "1000001"),
    ("pi", "--mode", "bogus"),
    # pendulum: both routes, the sweep, near pi and the refusals
    ("pendulum", "--theta0", "1"),
    ("pendulum", "--theta0", "1", "--method", "ode"),
    ("pendulum", "--theta0", "0.25", "--method", "ode"),
    ("pendulum", "--theta0", "2.5", "--method", "ode"),
    ("pendulum", "--theta0", "2.5", "--method", "ode", "--h", "1"),
    ("pendulum", "--theta0", "3.1", "--method", "ode", "--h", "1e-2"),
    ("pendulum", "--theta0", "3.141", "--method", "ode"),
    ("pendulum", "--theta0", "3.1415", "--method", "ode"),
    ("pendulum", "--theta0", "3.14159265", "--method", "ode"),
    ("pendulum", "--theta0", "3.141592653", "--method", "ode"),
    ("pendulum", "--theta0", "2", "--length", "2.5", "--g", "1"),
    ("pendulum", "--theta0", "2", "--length", "2.5", "--g", "1", "--method", "ode"),
    ("pendulum", "--theta0", "1.5707963267948966", "--sweep"),
    ("pendulum", "--theta0", "3", "--sweep", "--sweep-points", "5", "--out", "sweep.csv"),
    ("pendulum", "--theta0", "3.1414"),
    ("pendulum", "--theta0", "3.1415"),
    ("pendulum", "--theta0", "3.1415", "--sweep", "--sweep-points", "2"),
    ("pendulum", "--theta0", "3.14159265"),
    ("pendulum", "--theta0", "1.5", "--method", "ode", "--h", "2"),
    ("pendulum", "--theta0", "1e-315", "--method", "ode"),
    ("pendulum", "--theta0", "4.0"),
    ("pendulum", "--theta0", "1", "--sweep", "--sweep-points", "0"),
    ("pendulum", "--theta0", "1", "--sweep", "--sweep-points", "-2"),
    ("pendulum", "--theta0", "1", "--sweep", "--sweep-points", "10001"),
    ("pendulum", "--theta0", "1", "--length", "inf"),
    ("pendulum", "--theta0", "1", "--length", "nan"),
    ("pendulum", "--theta0", "1", "--g", "inf"),
    ("pendulum", "--theta0", "1", "--length", "1e300", "--g", "1e-300"),
    ("pendulum", "--theta0", "1", "--length", "1e-300", "--g", "1e300"),
    ("pendulum", "--theta0", "1", "--method", "ode", "--g", "inf"),
    ("pendulum", "--length", "1"),
    # ballistics: vacuum, drag, near-vertical and heavy-drag shots, --out, the refusals
    ("ballistics", "--mass", "0.16", "--v0", "30", "--alpha", "40"),
    ("ballistics", "--mass", "0.16", "--v0", "30", "--alpha", "40", "--drag", "0.005", "--out", "flight.csv"),
    ("ballistics", "--mass", "0.16", "--drag", "0.005", "--v0", "40", "--alpha", "40"),
    ("ballistics", "--mass", "0.16", "--drag", "0.02", "--v0", "40", "--alpha", "40", "--h", "0.05"),
    ("ballistics", "--mass", "0.16", "--drag", "0.005", "--v0", "40", "--alpha", "89.999"),
    ("ballistics", "--mass", "0.16", "--drag", "0.005", "--v0", "40", "--alpha", "89.999", "--out", "flight.csv"),
    ("ballistics", "--mass", "0.16", "--drag", "0.005", "--v0", "40", "--alpha", "89.99999999999"),
    ("ballistics", "--mass", "1", "--drag", "10", "--v0", "1", "--alpha", "89.9999999"),
    ("ballistics", "--mass", "0.01", "--drag", "0.1", "--v0", "0.1", "--alpha", "89"),
    ("ballistics", "--mass", "1", "--drag", "10000", "--v0", "0.1", "--alpha", "10", "--h", "0.01"),
    ("ballistics", "--mass", "1", "--drag", "10000", "--v0", "0.1", "--alpha", "10"),
    ("ballistics", "--mass", "1", "--alpha", "40", "--v0", "1e-3"),
    ("ballistics", "--mass", "10", "--drag", "1", "--v0", "100", "--alpha", "1", "--g", "1.62"),
    ("ballistics", "--mass", "0.01", "--drag", "1e4", "--v0", "100", "--alpha", "45"),
    ("ballistics", "--mass", "1", "--alpha", "40", "--v0", "1e-300"),
    (*SHOT, "--drag", "nan"),
    (*SHOT, "--g", "inf"),
    (*SHOT, "--v0", "inf"),
    (*SHOT, "--mass", "inf", "--drag", "0.01"),
    (*SHOT, "--mass", "nan"),
    (*SHOT, "--mass", "1e-320", "--drag", "0.01"),
    (*SHOT, "--alpha", "90"),
    (*SHOT, "--drag", "-1"),
    # lox: meridian, half turns, near the pole and nearly equal latitudes
    ("lox", "--lat1", "0", "--lon1", "0", "--lat2", "10", "--lon2", "0"),
    ("lox", "--lat1", "10", "--lon1", "180", "--lat2", "20", "--lon2", "0"),
    ("lox", "--lat1", "10", "--lon1", "-180", "--lat2", "20", "--lon2", "0"),
    ("lox", "--lat1", "0", "--lon1", "0", "--lat2", "89.9", "--lon2", "10"),
    ("lox", "--lat1", "-89.9", "--lon1", "0", "--lat2", "89.9", "--lon2", "-170"),
    ("lox", "--lat1", "0", "--lon1", "0", "--lat2", "1e-20", "--lon2", "1"),
    ("lox", "--lat1", "10", "--lon1", "0", "--lat2", "10.000000000000002", "--lon2", "50"),
    ("lox", "--lat1", "10", "--lon1", "0", "--lat2", "10.000000001", "--lon2", "50"),
    ("lox", "--lat1", "10", "--lon1", "0", "--lat2", "10.0002", "--lon2", "50"),
    ("lox", "--lat1", "45", "--lon1", "30", "--lat2", "-30", "--lon2", "170", "--radius", "1", "--h", "1e-3"),
    ("lox", "--lat1", "90", "--lon1", "0", "--lat2", "0", "--lon2", "0"),
    ("lox", "--lat1", "0", "--lon1", "0", "--lat2", "89.99", "--lon2", "10"),
    (*LOX, "--lon2", "nan"),
    (*LOX, "--lon2", "inf"),
    (*LOX, "--lon2", "30", "--radius", "inf"),
    (*LOX, "--lon2", "30", "--radius", "nan"),
    (*LOX, "--lon2", "30", "--radius", "-1"),
    (*LOX, "--lon2", "30", "--radius", "0"),
    ("lox", "--lat1", "10", "--lon1", "0", "--lat2", "10", "--lon2", "30", "--radius", "-1"),
    ("lox", "--lat1", "1.2748734119735194e-306", "--lon1", "0", "--lat2", "1.27487341197352e-306", "--lon2", "1"),
    LOX,
    # ellipk: complete and incomplete, a given step, near k = 1 and the refusals
    ("ellipk", "--k", "0.8"),
    ("ellipk", "--k", "0"),
    ("ellipk", "--k", "0.5", "--phi", "0"),
    ("ellipk", "--k", "0.5", "--phi", "1"),
    ("ellipk", "--k", "0.5", "--h", "0.01"),
    ("ellipk", "--k", "0.99"),
    ("ellipk", "--k", "0.9999"),
    ("ellipk", "--k", "0.9999999"),
    ("ellipk", "--k", "0.999999999999"),
    ("ellipk", "--k", "1"),
    ("ellipk", "--k", "0.5", "--phi", "2"),
    ("ellipk", "--k", "0.5", "--h", "inf"),
    # rectify: the circle, explicit curves and every refusal
    ("rectify",),
    ("rectify", "-n", "6"),
    ("rectify", "-n", "1"),
    ("rectify", "--t0", "-0.0", "--t1", "-3", "--segments", "7"),
    ("rectify", "--x-expr", "t", "--y-expr", "2*t", "--t0", "0", "--t1", "1", "-n", "16"),
    ("rectify", "--x-expr", "t", "--y-expr", "t^2", "--t0", "0", "--t1", "1"),
    ("rectify", "--x-expr", "+".join(["t"] * 3000), "--y-expr", "0", "--t0", "0", "--t1", "1", "-n", "4"),
    ("rectify", "--x-expr", "t"),
    ("rectify", "--x-expr", "t", "--y-expr", "t"),
    ("rectify", "--x-expr", "1e308*t", *CURVE),
    ("rectify", "--x-expr", "1e999", *CURVE),
    ("rectify", "--x-expr", "1e999*0+t", *CURVE),
    ("rectify", "--x-expr", "(" * 3000 + "t" + ")" * 3000, *CURVE),
    ("rectify", "--x-expr", "t", "--y-expr", "y", "--t0", "0", "--t1", "1"),
    ("rectify", "--x-expr", "abs((0-1)^0.5)", *CURVE),
    ("rectify", "--x-expr", "ln(t)", "--y-expr", "t", "--t0", "1", "--t1", "-1", "-n", "10"),
    ("rectify", "--x-expr", "1/(t-0.5)", "--y-expr", "t", "--t0", "0", "--t1", "1", "-n", "2"),
    ("rectify", "--t1", "1e308", "-n", "3"),
    ("rectify", "--t1", "inf"),
    ("rectify", "--x-expr", "t", "--y-expr", "t", "--t0", "0", "--t1", "inf"),
    ("rectify", "-n", "0"),
    ("rectify", "-n", "-3"),
    ("rectify", "-n", str(MAX_STEPS + 1)),
    # no or an unknown subcommand
    (),
    ("frobnicate",),
]


def outcome(argv: tuple[str, ...], work: Path) -> dict:
    """What ``cli.main(argv)`` gives when run in ``work``; the files it writes there are hashed and removed."""
    from stepcalc import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    files = {}
    for path in sorted(work.iterdir()):
        if path.name != "specs":
            files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
            path.unlink()
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def replay(vectors) -> list[dict]:
    """The outcome of each vector, in order, each run in one scratch directory beside a copy of the specs."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        shutil.copytree(SPECS, work / "specs")
        os.chdir(work)
        try:
            return [outcome(argv, work) for argv in vectors]
        finally:
            os.chdir(cwd)


def load() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    CORPUS.write_text(json.dumps(replay(VECTORS), indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(VECTORS)} outcomes to {CORPUS}")
