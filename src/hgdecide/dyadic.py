"""Dyadic interval arithmetic on plain Python integers.

A dyadic number is man * 2**exp.  An interval stores two dyadics lo <= hi
and every operation rounds outward, so the exact image is always enclosed.
Binary endpoints keep precision escalation predictable: re-running at a
higher working precision tightens, never widens, the usual ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DecideError, IntervalStraddlesZero

# Exponent gap beyond which an addend is absorbed into a one-ulp bump.
_MAX_ALIGN = 1 << 20


def _round_down(man: int, exp: int, prec: int) -> tuple[int, int]:
    """Largest dyadic with <= prec mantissa bits that is <= man*2**exp."""
    extra = man.bit_length() - prec
    if extra <= 0 or man == 0:
        return man, exp
    return man >> extra, exp + extra  # >> floors toward -inf


def _round_up(man: int, exp: int, prec: int) -> tuple[int, int]:
    extra = man.bit_length() - prec
    if extra <= 0 or man == 0:
        return man, exp
    return -((-man) >> extra), exp + extra


def _add(m1: int, e1: int, m2: int, e2: int) -> tuple[int, int]:
    if m1 == 0:
        return m2, e2
    if m2 == 0:
        return m1, e1
    if e1 < e2:
        if e2 - e1 > _MAX_ALIGN:
            raise DecideError("dyadic alignment overflow")
        return m1 + (m2 << (e2 - e1)), e1
    if e1 - e2 > _MAX_ALIGN:
        raise DecideError("dyadic alignment overflow")
    return (m1 << (e1 - e2)) + m2, e2


def _cmp(m1: int, e1: int, m2: int, e2: int) -> int:
    m, _ = _add(m1, e1, -m2, e2)
    return (m > 0) - (m < 0)


def _div_down(m1: int, e1: int, m2: int, e2: int, prec: int) -> tuple[int, int]:
    """Dyadic <= exact quotient, with ~prec significant bits."""
    if m2 == 0:
        raise ZeroDivisionError("dyadic division by zero")
    shift = prec + max(0, m2.bit_length() - m1.bit_length()) + 8
    q = (m1 << shift) // m2  # floor for any sign combination
    return q, e1 - e2 - shift


def _div_up(m1: int, e1: int, m2: int, e2: int, prec: int) -> tuple[int, int]:
    if m2 == 0:
        raise ZeroDivisionError("dyadic division by zero")
    shift = prec + max(0, m2.bit_length() - m1.bit_length()) + 8
    q = -((-(m1 << shift)) // m2)
    return q, e1 - e2 - shift


@dataclass(frozen=True)
class DyadicInterval:
    """[lo_man*2**lo_exp, hi_man*2**hi_exp], both endpoints finite, lo <= hi."""

    lo_man: int
    lo_exp: int
    hi_man: int
    hi_exp: int

    def __post_init__(self):
        if _cmp(self.lo_man, self.lo_exp, self.hi_man, self.hi_exp) > 0:
            raise DecideError("inverted interval")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "DyadicInterval":
        return cls(n, 0, n, 0)

    @classmethod
    def from_fraction(cls, q: Fraction, prec: int) -> "DyadicInterval":
        num, den = q.numerator, q.denominator
        if den == 1:
            return cls(num, 0, num, 0)
        lo = (num << prec) // den
        exact = lo * den == (num << prec)
        return cls(lo, -prec, lo if exact else lo + 1, -prec)

    @classmethod
    def point(cls, man: int, exp: int) -> "DyadicInterval":
        return cls(man, exp, man, exp)

    @classmethod
    def bounds(cls, lo: "tuple[int, int]", hi: "tuple[int, int]") -> "DyadicInterval":
        return cls(lo[0], lo[1], hi[0], hi[1])

    # -- views -------------------------------------------------------------

    @property
    def lo(self) -> Fraction:
        m, e = self.lo_man, self.lo_exp
        return Fraction(m) * Fraction(2) ** e

    @property
    def hi(self) -> Fraction:
        m, e = self.hi_man, self.hi_exp
        return Fraction(m) * Fraction(2) ** e

    def width(self) -> Fraction:
        return self.hi - self.lo

    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def mag(self) -> Fraction:
        """max(|x|) over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def __contains__(self, q) -> bool:
        q = Fraction(q)
        return self.lo <= q <= self.hi

    def contains_zero(self) -> bool:
        return self.lo_man <= 0 <= self.hi_man

    def is_positive(self) -> bool:
        return self.lo_man > 0

    def is_negative(self) -> bool:
        return self.hi_man < 0

    def sign(self) -> int | None:
        """Definite sign of every point, or None if 0 is inside."""
        if self.is_positive():
            return 1
        if self.is_negative():
            return -1
        if self.lo_man == 0 and self.hi_man == 0:
            return 0
        return None

    def __repr__(self):
        return f"DyadicInterval({float(self.lo)!r}, {float(self.hi)!r})"

    # -- arithmetic (outward-rounded at prec) ------------------------------

    def round(self, prec: int) -> "DyadicInterval":
        return DyadicInterval(
            *_round_down(self.lo_man, self.lo_exp, prec),
            *_round_up(self.hi_man, self.hi_exp, prec),
        )

    def add(self, other: "DyadicInterval", prec: int) -> "DyadicInterval":
        return DyadicInterval(
            *_round_down(*_add(self.lo_man, self.lo_exp, other.lo_man, other.lo_exp), prec),
            *_round_up(*_add(self.hi_man, self.hi_exp, other.hi_man, other.hi_exp), prec),
        )

    def neg(self) -> "DyadicInterval":
        return DyadicInterval(-self.hi_man, self.hi_exp, -self.lo_man, self.lo_exp)

    def sub(self, other: "DyadicInterval", prec: int) -> "DyadicInterval":
        return self.add(other.neg(), prec)

    def mul(self, other: "DyadicInterval", prec: int) -> "DyadicInterval":
        cands = [
            (self.lo_man * other.lo_man, self.lo_exp + other.lo_exp),
            (self.lo_man * other.hi_man, self.lo_exp + other.hi_exp),
            (self.hi_man * other.lo_man, self.hi_exp + other.lo_exp),
            (self.hi_man * other.hi_man, self.hi_exp + other.hi_exp),
        ]
        # exact comparison of the four candidate corners
        lo = cands[0]
        hi = cands[0]
        for c in cands[1:]:
            if _cmp(c[0], c[1], lo[0], lo[1]) < 0:
                lo = c
            if _cmp(c[0], c[1], hi[0], hi[1]) > 0:
                hi = c
        return DyadicInterval(*_round_down(*lo, prec), *_round_up(*hi, prec))

    def scale(self, q: Fraction, prec: int) -> "DyadicInterval":
        """Multiply by an exact rational."""
        return self.mul(DyadicInterval.from_fraction(Fraction(q), prec + 8), prec)

    def inv(self, prec: int) -> "DyadicInterval":
        if self.contains_zero():
            raise IntervalStraddlesZero("interval reciprocal across zero")
        lo = _div_down(1, 0, self.hi_man, self.hi_exp, prec)
        hi = _div_up(1, 0, self.lo_man, self.lo_exp, prec)
        return DyadicInterval(*lo, *hi)

    def div(self, other: "DyadicInterval", prec: int) -> "DyadicInterval":
        return self.mul(other.inv(prec + 8), prec)

    def pow_int(self, k: int, prec: int) -> "DyadicInterval":
        if k == 0:
            return DyadicInterval.from_int(1)
        base = self if k > 0 else self.inv(prec + 8)
        out = DyadicInterval.from_int(1)
        for _ in range(abs(k)):
            out = out.mul(base, prec + 8)
        return out.round(prec)

    def intersect(self, other: "DyadicInterval") -> "DyadicInterval":
        lo = (self.lo_man, self.lo_exp)
        if _cmp(other.lo_man, other.lo_exp, *lo) > 0:
            lo = (other.lo_man, other.lo_exp)
        hi = (self.hi_man, self.hi_exp)
        if _cmp(other.hi_man, other.hi_exp, *hi) < 0:
            hi = (other.hi_man, other.hi_exp)
        return DyadicInterval(*lo, *hi)

    def contains_interval(self, other: "DyadicInterval") -> bool:
        return (
            _cmp(self.lo_man, self.lo_exp, other.lo_man, other.lo_exp) <= 0
            and _cmp(self.hi_man, self.hi_exp, other.hi_man, other.hi_exp) >= 0
        )

    def overlaps(self, other: "DyadicInterval") -> bool:
        return (
            _cmp(self.lo_man, self.lo_exp, other.hi_man, other.hi_exp) <= 0
            and _cmp(other.lo_man, other.lo_exp, self.hi_man, self.hi_exp) <= 0
        )

    def compare_fraction(self, q: Fraction) -> int | None:
        """-1 if the whole interval is < q, +1 if > q, None if q is inside."""
        if self.hi < q:
            return -1
        if self.lo > q:
            return 1
        return None


ZERO = DyadicInterval.from_int(0)
ONE = DyadicInterval.from_int(1)


@dataclass(frozen=True)
class ComplexInterval:
    """Rectangular complex enclosure: re + i*im, both dyadic intervals."""

    re: DyadicInterval
    im: DyadicInterval

    @classmethod
    def from_real(cls, x: DyadicInterval) -> "ComplexInterval":
        return cls(x, ZERO)

    def add(self, other: "ComplexInterval", prec: int) -> "ComplexInterval":
        return ComplexInterval(self.re.add(other.re, prec), self.im.add(other.im, prec))

    def sub(self, other: "ComplexInterval", prec: int) -> "ComplexInterval":
        return ComplexInterval(self.re.sub(other.re, prec), self.im.sub(other.im, prec))

    def neg(self) -> "ComplexInterval":
        return ComplexInterval(self.re.neg(), self.im.neg())

    def conj(self) -> "ComplexInterval":
        return ComplexInterval(self.re, self.im.neg())

    def mul(self, other: "ComplexInterval", prec: int) -> "ComplexInterval":
        re = self.re.mul(other.re, prec).sub(self.im.mul(other.im, prec), prec)
        im = self.re.mul(other.im, prec).add(self.im.mul(other.re, prec), prec)
        return ComplexInterval(re, im)

    def abs2(self, prec: int) -> DyadicInterval:
        def square(iv: DyadicInterval) -> DyadicInterval:
            s = iv.mul(iv, prec)
            if s.lo_man < 0:
                # a square is nonnegative; the corner product can dip below
                return DyadicInterval(0, 0, s.hi_man, s.hi_exp)
            return s

        return square(self.re).add(square(self.im), prec)

    def inv(self, prec: int) -> "ComplexInterval":
        d = self.abs2(prec + 8)
        if d.contains_zero():
            raise IntervalStraddlesZero("complex interval reciprocal across zero")
        c = self.conj()
        return ComplexInterval(c.re.div(d, prec), c.im.div(d, prec))

    def div(self, other: "ComplexInterval", prec: int) -> "ComplexInterval":
        return self.mul(other.inv(prec + 8), prec)

    def scale(self, q: Fraction, prec: int) -> "ComplexInterval":
        return ComplexInterval(self.re.scale(q, prec), self.im.scale(q, prec))

    def pow_int(self, k: int, prec: int) -> "ComplexInterval":
        if k == 0:
            return ComplexInterval.from_real(ONE)
        base = self if k > 0 else self.inv(prec + 8)
        out = ComplexInterval.from_real(ONE)
        for _ in range(abs(k)):
            out = out.mul(base, prec + 8)
        return out

    def contains_zero(self) -> bool:
        return self.re.contains_zero() and self.im.contains_zero()
