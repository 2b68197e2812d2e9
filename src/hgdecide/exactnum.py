"""Exact rationals: parsing, printing and the half-integer test.

Rationals are `fractions.Fraction` throughout the package (arbitrary
precision, always reduced, positive denominator).  The irrational roots
the engine computes with are `towers` elements.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import PrecisionExceeded

_RAT = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def parse_rat(text: str) -> Fraction:
    """Parse 'a/b' or 'a' (ASCII digits) into a Fraction; anything else is a
    ValueError, so a short text cannot stand for a huge number ("1e10000000")."""
    m = _RAT.fullmatch(text)
    if m is None:
        raise ValueError(f"not 'a' or 'a/b': {text!r}")
    return Fraction(int(m[1]), int(m[2] or 1))


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
