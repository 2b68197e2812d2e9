"""Exact scalars: rationals and quadratic-field elements a + b*sqrt(d).

Rationals are `fractions.Fraction` throughout the package (arbitrary
precision, always reduced, positive denominator).  `QuadElem` adds a single
square root of a squarefree integer d (d != 0, 1; d may be positive or
negative).  Elements of different field contexts never mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DecideError, FieldMismatchError, PrecisionExceeded
from .numutil import is_squarefree

def parse_rat(text: str) -> Fraction:
    """Parse 'a/b' or 'a' into a Fraction."""
    return Fraction(text.strip())


def format_rat(q: Fraction) -> str:
    """'a/b' or 'a'; a resource error past the interpreter's limit on
    integer string conversion (`sys.get_int_max_str_digits`)."""
    try:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError:
        bits = max(q.numerator.bit_length(), q.denominator.bit_length())
        raise PrecisionExceeded(f"a {bits}-bit rational is too long to print") from None


def is_half_integer(q: Fraction) -> bool:
    """q in (1/2)Z."""
    return (2 * q).denominator == 1


@dataclass(frozen=True)
class QuadElem:
    """a + b*sqrt(d) with a, b rational and d a squarefree integer != 0, 1.

    Immutable; ring arithmetic (+, -, *) via the usual operators.  Mixing two
    elements requires equal d; plain ints/Fractions coerce freely.
    """

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.d in (0, 1):
            raise DecideError(f"invalid field context d={self.d}")
        if not is_squarefree(self.d):
            raise DecideError(f"d={self.d} is not squarefree")

    @classmethod
    def rational(cls, a, d: int) -> "QuadElem":
        return cls(Fraction(a), Fraction(0), d)

    # -- structure ---------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_rational(self) -> Fraction:
        if self.b != 0:
            raise DecideError(f"{self} is irrational")
        return self.a

    def conjugate(self) -> "QuadElem":
        return QuadElem(self.a, -self.b, self.d)

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "QuadElem":
        if isinstance(other, QuadElem):
            if other.d != self.d:
                raise FieldMismatchError(f"sqrt({self.d}) vs sqrt({other.d})")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElem.rational(other, self.d)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadElem(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadElem(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadElem(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadElem(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadElem):
            return self.d == other.d and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.d}))"
