"""Dyadic interval arithmetic on plain Python integers.

A dyadic number is man * 2**exp.  An interval stores two dyadics lo <= hi
and every operation rounds outward, so the exact image is always enclosed.
Binary endpoints keep precision escalation predictable: re-running at a
higher working precision tightens, never widens, the usual ladder.

Intervals are immutable tuples of their four integers.  The public
constructor `DyadicInterval(lo_man, lo_exp, hi_man, hi_exp)` is the one
checked constructor: it refuses lo > hi.  Every other result is built
unchecked, because it is ordered by construction: `add`, `sub`, `mul` and
`round` go through `_outward`, which floors the lower end and ceils the
upper end of an exact ordered pair; `neg` swaps and negates an ordered
pair; `inv` divides 1 by the ends of a one-signed interval in reverse
order, rounding the lower quotient down and the upper one up; and
`from_int` and `from_fraction` bracket a rational.  `value_type` keeps the
tuples values: equal only to their own type, with no sequence operators.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import DecideError, IntervalStraddlesZero, PrecisionExceeded

# Exponent gap past which an exact sum is refused as a resource error: the
# aligned mantissa would pass a million bits.
_MAX_ALIGN = 1 << 20

_new = tuple.__new__  # the unchecked constructor of every tuple-backed value


def _refuse(self, *_):
    raise TypeError(f"{type(self).__name__} is a value, not a sequence")


def value_type(cls):
    """Give a tuple-backed class value semantics: equal (and hashed) by its
    fields, but only to its own type; and no tuple concatenation,
    repetition, lexicographic order or component membership, except where
    the class defines them itself."""

    def eq(self, other):
        return type(other) is cls and tuple.__eq__(self, other)

    def ne(self, other):
        return not eq(self, other)

    cls.__eq__, cls.__ne__, cls.__hash__ = eq, ne, tuple.__hash__
    for name in ("__add__", "__mul__", "__rmul__", "__lt__", "__le__", "__gt__", "__ge__", "__contains__"):
        if name not in vars(cls):
            setattr(cls, name, _refuse)
    return cls


def _add(m1: int, e1: int, m2: int, e2: int) -> tuple[int, int]:
    if m1 == 0:
        return m2, e2
    if m2 == 0:
        return m1, e1
    if abs(e1 - e2) > _MAX_ALIGN:
        raise PrecisionExceeded(f"dyadic alignment overflow: exponent gap {abs(e1 - e2)}")
    if e1 < e2:
        return m1 + (m2 << (e2 - e1)), e1
    return (m1 << (e1 - e2)) + m2, e2


def _cmp(m1: int, e1: int, m2: int, e2: int) -> int:
    # equal exponents, and mantissas of different signs (zero counts as a
    # sign), are ordered by the mantissas alone; only two nonzero mantissas
    # of one sign at different exponents need aligning
    if e1 == e2 or (m1 > 0) != (m2 > 0) or (m1 < 0) != (m2 < 0):
        return (m1 > m2) - (m1 < m2)
    m, _ = _add(m1, e1, -m2, e2)
    return (m > 0) - (m < 0)


def _cmp_ratio(m: int, e: int, num: int, den: int) -> int:
    """Sign of m*2**e - num/den (den > 0), by cross-multiplication."""
    lhs = m * den
    if e >= 0:
        lhs <<= e
    else:
        num <<= -e
    return (lhs > num) - (lhs < num)


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


def _outward(lo_man: int, lo_exp: int, hi_man: int, hi_exp: int, prec: int) -> "DyadicInterval":
    """The exact ordered pair lo <= hi, lo rounded down and hi rounded up
    to prec mantissa bits, built unchecked: round_down(lo) <= lo <= hi <=
    round_up(hi), so the constructor's order check would prove nothing."""
    extra = lo_man.bit_length() - prec
    if extra > 0:
        lo_man >>= extra  # >> floors toward -inf
        lo_exp += extra
    extra = hi_man.bit_length() - prec
    if extra > 0:
        hi_man = -(-hi_man >> extra)
        hi_exp += extra
    return _new(DyadicInterval, (lo_man, lo_exp, hi_man, hi_exp))


class _Ends(NamedTuple):
    lo_man: int
    lo_exp: int
    hi_man: int
    hi_exp: int


@value_type
class DyadicInterval(_Ends):
    """[lo_man*2**lo_exp, hi_man*2**hi_exp], both endpoints finite, lo <= hi."""

    __slots__ = ()

    def __new__(cls, lo_man: int, lo_exp: int, hi_man: int, hi_exp: int):
        if _cmp(lo_man, lo_exp, hi_man, hi_exp) > 0:
            raise DecideError("inverted interval")
        return _new(cls, (lo_man, lo_exp, hi_man, hi_exp))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "DyadicInterval":
        return _new(cls, (n, 0, n, 0))

    @classmethod
    def from_fraction(cls, q: Fraction | int, prec: int) -> "DyadicInterval":
        num, den = q.numerator, q.denominator
        if den == 1:
            return _new(cls, (num, 0, num, 0))
        lo = (num << prec) // den
        exact = lo * den == (num << prec)
        return _new(cls, (lo, -prec, lo if exact else lo + 1, -prec))

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

    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __contains__(self, q) -> bool:
        q = Fraction(q)
        return self.lo <= q <= self.hi

    def contains_zero(self) -> bool:
        return self.lo_man <= 0 <= self.hi_man

    def __repr__(self):
        return f"DyadicInterval({float(self.lo)!r}, {float(self.hi)!r})"

    # -- arithmetic (outward-rounded at prec) ------------------------------

    def round(self, prec: int) -> "DyadicInterval":
        return _outward(*self, prec)

    def add(self, other: "DyadicInterval", prec: int) -> "DyadicInterval":
        al, ale, ah, ahe = self
        bl, ble, bh, bhe = other
        return _outward(*_add(al, ale, bl, ble), *_add(ah, ahe, bh, bhe), prec)

    def neg(self) -> "DyadicInterval":
        lm, le, hm, he = self
        return _new(DyadicInterval, (-hm, he, -lm, le))

    def sub(self, other: "DyadicInterval", prec: int) -> "DyadicInterval":
        al, ale, ah, ahe = self
        bl, ble, bh, bhe = other
        return _outward(*_add(al, ale, -bh, bhe), *_add(ah, ahe, -bl, ble), prec)

    def mul(self, other: "DyadicInterval", prec: int) -> "DyadicInterval":
        """Product, endpoints from Moore's sign table (Interval Analysis, 1966).

        Each factor is nonnegative (lo >= 0), nonpositive (hi <= 0) or
        straddles zero.  Eight of the nine sign cases name the corner that
        is the lower and the one that is the upper endpoint, so they take
        two products and no comparison; only two straddling factors need
        all four corners and two comparisons:

            a          b >= 0         b <= 0         b straddles
            a >= 0     [al*bl, ah*bh] [ah*bl, al*bh] [ah*bl, ah*bh]
            a <= 0     [al*bh, ah*bl] [ah*bh, al*bl] [al*bh, al*bl]
            straddles  [al*bh, ah*bh] [ah*bl, al*bl] [min(al*bh, ah*bl),
                                                      max(al*bl, ah*bh)]

        where a = [al, ah] is self and b = [bl, bh] is other.
        """
        al, ale, ah, ahe = self
        bl, ble, bh, bhe = other
        if al >= 0:
            if bl >= 0:
                return _outward(al * bl, ale + ble, ah * bh, ahe + bhe, prec)
            if bh <= 0:
                return _outward(ah * bl, ahe + ble, al * bh, ale + bhe, prec)
            return _outward(ah * bl, ahe + ble, ah * bh, ahe + bhe, prec)
        if ah <= 0:
            if bl >= 0:
                return _outward(al * bh, ale + bhe, ah * bl, ahe + ble, prec)
            if bh <= 0:
                return _outward(ah * bh, ahe + bhe, al * bl, ale + ble, prec)
            return _outward(al * bh, ale + bhe, al * bl, ale + ble, prec)
        if bl >= 0:
            return _outward(al * bh, ale + bhe, ah * bh, ahe + bhe, prec)
        if bh <= 0:
            return _outward(ah * bl, ahe + ble, al * bl, ale + ble, prec)
        lo, alt = (al * bh, ale + bhe), (ah * bl, ahe + ble)
        if _cmp(*alt, *lo) < 0:
            lo = alt
        hi, alt = (al * bl, ale + ble), (ah * bh, ahe + bhe)
        if _cmp(*alt, *hi) > 0:
            hi = alt
        return _outward(*lo, *hi, prec)

    def scale(self, q: Fraction | int, prec: int) -> "DyadicInterval":
        """Multiply by an exact rational."""
        return self.mul(DyadicInterval.from_fraction(q, prec + 8), prec)

    def inv(self, prec: int) -> "DyadicInterval":
        if self.contains_zero():
            raise IntervalStraddlesZero("interval reciprocal across zero")
        lm, le, hm, he = self
        return _new(DyadicInterval, (*_div_down(1, 0, hm, he, prec), *_div_up(1, 0, lm, le, prec)))

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

    def compare_fraction(self, q: Fraction) -> int | None:
        """-1 if the whole interval is < q, +1 if > q, None if q is inside."""
        num, den = q.numerator, q.denominator
        if _cmp_ratio(self.hi_man, self.hi_exp, num, den) < 0:
            return -1
        if _cmp_ratio(self.lo_man, self.lo_exp, num, den) > 0:
            return 1
        return None


ZERO = DyadicInterval.from_int(0)
ONE = DyadicInterval.from_int(1)


@value_type
class ComplexInterval(NamedTuple):
    """Rectangular complex enclosure: re + i*im, both dyadic intervals."""

    re: DyadicInterval
    im: DyadicInterval

    @classmethod
    def from_real(cls, x: DyadicInterval) -> "ComplexInterval":
        return _new(cls, (x, ZERO))

    def add(self, other: "ComplexInterval", prec: int) -> "ComplexInterval":
        return _new(ComplexInterval, (self.re.add(other.re, prec), self.im.add(other.im, prec)))

    def sub(self, other: "ComplexInterval", prec: int) -> "ComplexInterval":
        return _new(ComplexInterval, (self.re.sub(other.re, prec), self.im.sub(other.im, prec)))

    def mul(self, other: "ComplexInterval", prec: int) -> "ComplexInterval":
        a, b = self
        c, d = other
        re = a.mul(c, prec).sub(b.mul(d, prec), prec)
        im = a.mul(d, prec).add(b.mul(c, prec), prec)
        return _new(ComplexInterval, (re, im))

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
        r = d.inv(prec + 8)  # 1/z = conj(z) * (1/|z|^2)
        return _new(ComplexInterval, (self.re.mul(r, prec), self.im.neg().mul(r, prec)))

    def div(self, other: "ComplexInterval", prec: int) -> "ComplexInterval":
        return self.mul(other.inv(prec + 8), prec)

    def scale(self, q: Fraction | int, prec: int) -> "ComplexInterval":
        f = DyadicInterval.from_fraction(q, prec + 8)
        return _new(ComplexInterval, (self.re.mul(f, prec), self.im.mul(f, prec)))

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
