"""Coefficient atoms: opaque function symbols with derivative descendants,
and formal log / power / inverse of even ghost-0 polynomial arguments.

Atoms are even and ghost 0, so they commute with everything and never
enter Koszul signs.  power(E, r) exponents are exact rationals or
rational-affine functions of a flow parameter; inverse(E) is power(E, -1).

Every exact rational the engine stores (term coefficients, exponent
offsets and slopes) is in one canonical form: an `int` when it is
integral, else a `Fraction` whose denominator is not 1.  Integer
arithmetic then never allocates a `Fraction`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .symbols import GradedSymbol

Rat = Union[Fraction, int]


def rational(q) -> Rat:
    """q in canonical form: an int when integral, else a Fraction with a
    denominator other than 1.  Anything but an int or a Fraction (a float
    above all) is refused: coefficients are exact."""
    if q.__class__ is int:
        return q
    if isinstance(q, Fraction):
        return q.numerator if q.denominator == 1 else q
    if isinstance(q, int):          # bool and other int subclasses
        return int(q)
    raise TypeError(f"not an exact rational: {q!r}")


def quotient(a: Rat, b: Rat) -> Rat:
    """The exact quotient a / b in canonical form (`/` on two ints would
    give a float)."""
    return rational(Fraction(a, b))


@dataclass(frozen=True)
class AffineExponent:
    """slope*param + offset with exact rational slope/offset, both kept in
    canonical form."""

    offset: Rat
    slope: Rat = 0
    param: Optional[GradedSymbol] = None

    def __post_init__(self):
        if self.offset.__class__ is not int:
            object.__setattr__(self, "offset", rational(self.offset))
        if self.slope.__class__ is not int:
            object.__setattr__(self, "slope", rational(self.slope))
        if self.slope == 0 and self.param is not None:
            object.__setattr__(self, "param", None)

    @staticmethod
    def const(r: Rat) -> "AffineExponent":
        return AffineExponent(r)

    @staticmethod
    def of(r: "ExponentLike") -> "AffineExponent":
        if isinstance(r, AffineExponent):
            return r
        return AffineExponent.const(r)

    @property
    def is_constant(self) -> bool:
        return self.slope == 0

    def constant_value(self) -> Rat:
        if not self.is_constant:
            raise ValueError("exponent is parameter-dependent")
        return self.offset

    def __add__(self, other: "ExponentLike") -> "AffineExponent":
        other = AffineExponent.of(other)
        if self.param is not None and other.param is not None and self.param is not other.param:
            raise ValueError("mixed flow parameters in one exponent")
        return AffineExponent(self.offset + other.offset, self.slope + other.slope,
                              self.param or other.param)

    def __sub__(self, other: "ExponentLike") -> "AffineExponent":
        o = AffineExponent.of(other)
        return self + AffineExponent(-o.offset, -o.slope, o.param)

    def substitute(self, value: Rat) -> "AffineExponent":
        return AffineExponent(self.offset + self.slope * rational(value))

    def key(self) -> tuple:
        return (self.offset, self.slope, self.param.name if self.param else "")

    def __str__(self) -> str:
        if self.is_constant:
            return str(self.offset)
        parts = []
        if self.slope == 1:
            parts.append(self.param.name)
        elif self.slope == -1:
            parts.append(f"-{self.param.name}")
        else:
            parts.append(f"{self.slope}*{self.param.name}")
        if self.offset > 0:
            parts.append(f"+ {self.offset}")
        elif self.offset < 0:
            parts.append(f"- {-self.offset}")
        return " ".join(parts)


ExponentLike = Union[AffineExponent, Fraction, int]


@dataclass(frozen=True)
class FuncAtom:
    """Derivative descendant of an opaque function symbol: d_I F, with the
    multi-index I sorted (mixed partials commute: arguments are even)."""

    func: str
    deriv: tuple[str, ...] = ()    # sorted argument names

    def differentiated(self, arg: str) -> "FuncAtom":
        return FuncAtom(self.func, tuple(sorted(self.deriv + (arg,))))

    def key(self) -> tuple:
        return (0, self.func, self.deriv)

    def __str__(self) -> str:
        if not self.deriv:
            return self.func
        return f"D[{','.join(self.deriv)}]({self.func})"


@dataclass(frozen=True)
class LogAtom:
    """log(base); base is an interned even ghost-0 polynomial expression."""

    base_key: str

    def key(self) -> tuple:
        return (1, self.base_key)

    def __str__(self) -> str:
        return f"log({self.base_key})"


@dataclass(frozen=True)
class PowerAtom:
    """pow(base, exponent); exponent rational or affine in a flow parameter."""

    base_key: str
    exponent: AffineExponent

    def key(self) -> tuple:
        return (2, self.base_key, self.exponent.key())

    def __str__(self) -> str:
        return f"pow({self.base_key}, {self.exponent})"


Atom = Union[FuncAtom, LogAtom, PowerAtom]
