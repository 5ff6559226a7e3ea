"""The package's records: immutable, constructed by position or keyword alike,
and compared, hashed, shown and copied field by field."""

import copy
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stepcalc
from stepcalc import Record, applications, expr, functions, series, svgplot, tables
from stepcalc.solver import IVP, StepPlan, Trajectory, integrate


def rhs(t, y):
    return (y[0],)


EXP = IVP(rhs, 0.0, (1.0,))
X = expr.Var("x")

# each record class with one construction by position, defaults left out
# where it has them, and the same one by keyword with every field named
CASES = [
    (IVP, (rhs, 0.0, (1.0,)),
     dict(rhs=rhs, t0=0.0, y0=(1.0,), integrand=None, series=None, stage=None)),
    (StepPlan, (0.1, 1.0), dict(h=0.1, t_end=1.0, steps=None)),
    (Trajectory, ((0.0, 1.0, 1.0, 2.0), 1), dict(nodes=(0.0, 1.0, 1.0, 2.0), dim=1)),
    (functions.OdeFunction, ("exp", EXP, 0), dict(name="exp", ivp=EXP, output=0, pole=None)),
    (applications.PendulumSpec, (1.0,),
     dict(length=1.0, gravity=applications.STANDARD_GRAVITY, theta0=0.5)),
    (applications.BallisticsSpec, (0.16, 0.005, 40.0, 0.7),
     dict(mass=0.16, drag=0.005, v0=40.0, alpha=0.7, gravity=applications.STANDARD_GRAVITY)),
    (applications.GeoPoint, (0.1, 0.2), dict(lat=0.1, lon=0.2)),
    (series.SeriesSpec, (series.leibniz_term,), dict(term=series.leibniz_term, alternating=False)),
    (series.DiscardPolicy, ("absolute", 1e-6),
     dict(mode="absolute", threshold=1e-6, max_terms=series.DEFAULT_MAX_TERMS)),
    (series.DiscardSum, (3.14, 10, 1e-3), dict(value=3.14, terms_used=10, discarded_bound=1e-3, hit_cap=False)),
    (svgplot.Series, ("y", (0.0, 1.0), (1.0, 2.0)), dict(name="y", xs=(0.0, 1.0), ys=(1.0, 2.0))),
    (tables.SineTable, (1e7, (1.0,) * tables.ENTRY_COUNT), dict(radius=1e7, values=(1.0,) * tables.ENTRY_COUNT)),
    (expr.Num, (1.5, "1.5"), dict(value=1.5, text="1.5", pos=0)),
    (expr.Var, ("x",), dict(name="x", pos=0)),
    (expr.Neg, (X,), dict(operand=X, pos=0)),
    (expr.BinOp, ("+", X, X, 2), dict(op="+", left=X, right=X, pos=2)),
    (expr.Call, ("sin", X), dict(name="sin", arg=X, pos=0)),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


# each record class's constructor parameters in order, with a default where one is given:
# the public signatures, which a constructor generated from the slots keeps
SIGNATURES = {
    IVP: ["rhs", "t0", "y0", ("integrand", None), ("series", None), ("stage", None)],
    StepPlan: ["h", "t_end", ("steps", None)],
    Trajectory: ["nodes", "dim"],
    functions.OdeFunction: ["name", "ivp", "output", ("pole", None)],
    applications.PendulumSpec: ["length", ("gravity", 9.80665), ("theta0", 0.5)],
    applications.BallisticsSpec: ["mass", "drag", "v0", "alpha", ("gravity", 9.80665)],
    applications.GeoPoint: ["lat", "lon"],
    series.SeriesSpec: ["term", ("alternating", False)],
    series.DiscardPolicy: ["mode", "threshold", ("max_terms", 1000000)],
    series.DiscardSum: ["value", "terms_used", "discarded_bound", ("hit_cap", False)],
    svgplot.Series: ["name", "xs", "ys"],
    tables.SineTable: ["radius", "values"],
    expr.Num: ["value", "text", ("pos", 0)],
    expr.Var: ["name", ("pos", 0)],
    expr.Neg: ["operand", ("pos", 0)],
    expr.BinOp: ["op", "left", "right", ("pos", 0)],
    expr.Call: ["name", "arg", ("pos", 0)],
}


def test_every_record_class_is_covered():
    assert {cls for cls, _, _ in CASES} == set(Record.__subclasses__())


@pytest.mark.parametrize("cls, args, kwargs", CASES, ids=IDS)
class TestRecord:
    def test_fields_cannot_be_assigned_or_deleted(self, cls, args, kwargs):
        record = cls(*args)
        for name in kwargs:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_positional_and_keyword_construction_agree(self, cls, args, kwargs):
        a, b = cls(*args), cls(**kwargs)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert repr(a).startswith(f"{cls.__name__}({next(iter(kwargs))}=")
        assert [getattr(a, name) for name in kwargs] == list(kwargs.values())

    def test_copies_and_unchanged_replacements_are_equal(self, cls, args, kwargs):
        record = cls(**kwargs)
        assert copy.copy(record) == record == record.replace()
        assert record != (*args,)


def test_replace_validates_the_new_record():
    assert EXP.replace(t0=2.0, y0=(3,)) == IVP(rhs, 2.0, (3.0,))
    with pytest.raises(ValueError, match=r"^initial time t0 must be finite, got inf$"):
        EXP.replace(t0=math.inf)
    with pytest.raises(TypeError, match="'t_end'"):
        EXP.replace(t_end=1.0)


def test_replace_sets_the_named_fields_and_keeps_the_rest():
    plan = StepPlan(0.1, 1.0)
    assert plan.replace(t_end=2.0) == StepPlan(0.1, 2.0)
    assert plan.replace(steps=4, h=0.5) == StepPlan(0.5, 1.0, 4)
    assert plan.replace(steps=4).replace(steps=None) == plan  # None is a value like any other
    series = object()
    changed = EXP.replace(series=series, y0=(2,))
    assert (changed.rhs, changed.t0, changed.y0, changed.series) == (rhs, 0.0, (2.0,), series)
    with pytest.raises(TypeError):
        EXP.replace(rhs, 1.0)  # fields are named
    with pytest.raises(TypeError, match="'spare'"):
        EXP.replace(t0=1.0, spare=2)


def test_uncompared_fields_are_left_out_of_equality():
    assert expr.parse("1 + x") == expr.parse("1+x")
    assert hash(expr.parse("1 + x")) == hash(expr.parse("1+x"))
    assert repr(expr.parse("1 + x")) != repr(expr.parse("1+x"))
    assert expr.Num(1.0, "1.0", 3) == expr.Num(1.0, "1e0", 7) != expr.Num(2.0, "1.0", 3)
    assert IVP(rhs, 0.0, (1.0,), stage=rhs) == EXP
    assert expr.Var("x") != expr.Call("x", X) and expr.Var("x") != "x"


def test_repeated_runs_give_equal_trajectories():
    plan = StepPlan(0.1, 1.0)
    a, b = integrate(EXP, plan), integrate(EXP, plan)
    assert a is not b and a == b and repr(a) == repr(b)
    assert a != integrate(EXP, StepPlan(0.2, 1.0))


@pytest.mark.parametrize("cls", Record.__subclasses__(), ids=lambda cls: cls.__name__)
def test_constructor_parameters_and_defaults_stay(cls):
    parameters = inspect.signature(cls).parameters.values()
    assert [p.name if p.default is p.empty else (p.name, p.default) for p in parameters] == SIGNATURES[cls]
    assert {p.kind for p in parameters} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}


def test_constructors_are_compiled_at_first_construction():
    # a fresh interpreter, in which stepcalc.generated records the label of everything it compiles
    code = ("import stepcalc; compiled = []; generated = stepcalc.generated\n"
            "def recording(label, *args):\n    compiled.append(label)\n    return generated(label, *args)\n"
            "stepcalc.generated = recording\n"
            "from stepcalc import cli; cli.main(['pendulum', '--theta0', '1']); print(*compiled)")
    env = {**os.environ, "PYTHONPATH": str(Path(stepcalc.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    compiled = proc.stdout.splitlines()[-1].split()
    assert "PendulumSpec.__init__" in compiled
    assert not {"BallisticsSpec.__init__", "GeoPoint.__init__", "OdeFunction.__init__"} & set(compiled)
