"""stepcalc: a limit-free numerical calculus toolkit.

Functions are defined as solutions of initial-value problems and evaluated
by explicit fixed-step integration; derivatives of rational expressions are
computed exactly in a non-Archimedean field of rational functions by
discarding infinitesimals.

The defaults that the CLI's options and help lines quote are stated here, each once, and each module imports
its own: the parser then reads them without importing an integration module.
"""

import math
import sys

__version__ = "0.1.0"

#: Largest |k| * bits of a constant base that an exact power k builds, ``bits`` being the bit length
#: of the base's reduced numerator or denominator, and about that of the power's.  2^16 bits is about
#: 19 700 digits, over four times the 4300 that Python prints of an integer; 10^19728 has just under
#: 2^16 bits.  A power of a non-constant base is bounded by ``expr.MAX_EXACT_DEGREE`` alone.
MAX_EXACT_BITS = 2**16
MAX_EXACT_EXPONENT = int(MAX_EXACT_BITS * math.log10(2))  # the largest |exponent| exact_decimal reads

# The library's defaults, as the modules name them (solver.MAX_STEPS, functions.DEFAULT_H, ...).
MAX_STEPS = 10**7  # step budget of one integration run (solver)
FUNCTION_H = 1e-3  # RK4 step size of every ODE-defined function (functions.DEFAULT_H)
TAYLOR_H = 0.5  # Taylor step size of the functions that declare a series
DEFAULT_K = 0.5  # Jacobi modulus of sn, cn and dn when none is given
TABLE_RADIUS = 1e7  # historical radius anchor of the R-sine table (tables.DEFAULT_RADIUS)
#: RK4 and Euler step of the R-sine table, radians (tables.DEFAULT_H): the largest h of 1, 1.25, 1.5, 2, 2.5,
#: 5 x 10^-3 whose RK4 table stays within 1e-14 relative of R*sin (8.7e-15; 1.25e-3 gives 2.0e-14).  Taylor
#: steps default to ``TAYLOR_H``, longer than a segment: one step per segment, within 4.4e-16.
TABLE_H = 1e-3
STANDARD_GRAVITY = 9.80665
EARTH_RADIUS = 6371000.0
#: Default step sizes of the applications (Taylor steps for the pendulum and ballistics).
PENDULUM_H = 0.1
BALLISTICS_H = 0.1
MERIDIONAL_H = 1e-4
ELLIPTIC_TOL = 1e-12  # relative agreement of two passes of elliptic_F's step doubling
DEFAULT_MAX_TERMS = 10**6  # cap on the terms a series discard policy sums
DEFAULT_WIDTH = 640  # SVG plot size, px
DEFAULT_HEIGHT = 480


def exact_decimal(text: str):
    """``text`` in ``Fraction``'s syntax, exactly: an int where it is all digits (``int`` is much faster), else a
    ``Fraction``.  ``OverflowError`` for an exponent above ``MAX_EXACT_EXPONENT``, before 10^|exponent| is built."""
    if text.isdigit():
        return int(text)
    _, e, exponent = text.lower().rpartition("e")
    if e and abs(int(exponent)) > MAX_EXACT_EXPONENT:
        raise OverflowError(f"decimal exponent above the exact limit of {MAX_EXACT_EXPONENT}")
    from fractions import Fraction  # imported on use: most requests read no exact number
    return Fraction(text)


def refuse_subnormal(value: float, what: str) -> float:
    """``value``, or ``ArithmeticError`` naming it as ``what`` where it is subnormal: so few bits hold it that
    no double is within the budget of the answer.  0 is an answer."""
    if 0.0 < abs(value) < sys.float_info.min:
        raise ArithmeticError(f"{what} = {value!r} is subnormal: no double holds it to the budget")
    return value


def generated(label: str, params: list[str], lines: list[str], names: dict):
    """``_generated(*params)``: ``lines``, a function body, compiled as ``<stepcalc label>`` in a
    namespace of ``names`` alone, with no builtins.  The package's one ``exec``: the records' constructors and
    ``replace``, the run loops of ``solver.integrate`` and its Taylor steps, the polynomial systems of
    ``solver.polynomial_ivp`` and ``rectify``'s polyline loops."""
    source = "".join([f"def _generated({', '.join(params)}):\n", *(f"    {line}\n" for line in lines)])
    namespace = {**names, "__builtins__": {}}
    exec(compile(source, f"<stepcalc {label}>", "exec"), namespace)
    return namespace["_generated"]


class _SlotConstructor:
    """A record class's ``__init__`` until its first use: looking it up, to construct a record or to read the
    constructor's signature, compiles the constructor from the class's slots, which takes this stub's place."""

    __slots__ = ("cls",)

    def __init__(self, cls):
        self.cls = cls

    def __get__(self, instance, owner=None):
        cls = self.cls
        defaults = getattr(cls, "_defaults", {})  # a default is read by its field's name in the namespace
        params = [f"{name}={name}" if name in defaults else name for name in cls.__slots__]
        lines = [f"_set(self, {name!r}, {name})" for name in cls.__slots__]
        lines += ["self._check()"] if hasattr(cls, "_check") else []
        cls.__init__ = init = generated(f"{cls.__qualname__}.__init__", ["self", *params], lines,
                                        {**defaults, "_set": object.__setattr__})
        return init.__get__(instance, owner)


class Record:
    """Base of the package's immutable records: plain classes, not dataclasses.

    A record's fields are its class's ``__slots__``, in constructor order.
    Each class's constructor is generated from its slots, once, at its first
    use: its parameters are the slots, with defaults from the class's
    ``_defaults`` mapping, and it sets each field once by
    ``object.__setattr__``, then calls the class's ``_check`` if it has one,
    which may refuse the values or store a field in a canonical form.
    Setting or deleting a field later raises ``AttributeError``.  ``==`` and
    ``hash`` hold between records of one class and use every field but those
    the class names in its ``uncompared`` keyword; ``repr`` shows them all.
    """

    __slots__ = ()

    def __init_subclass__(cls, uncompared: tuple[str, ...] = (), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._compared = tuple(name for name in cls.__slots__ if name not in uncompared)
        cls.__init__ = _SlotConstructor(cls)

    def replace(self, **changes):
        """A record of this class with the named fields changed (``TypeError`` for a name that is not a field), built
        anew by its constructor on the slots in order, in code generated for the class at its first call."""
        cls, args = type(self), "".join(f"self.{n} if {n} is _keep else {n}, " for n in self.__slots__)
        cls.replace = generated(f"{cls.__qualname__}.replace", ["self", "*", *(f"{n}=_keep" for n in cls.__slots__)],
                                [f"return _cls({args})"], {"_cls": cls, "_keep": object()})
        return cls.replace(self, **changes)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__, not by setting slots
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
