"""Closed forms of gamma-pair values and partial-product tails that only
the tests need: independent references for the canonical constant."""

import math
from fractions import Fraction

from hgdecide.enclosure import Exp, Expr, Pi, Rc, Sqrt
from hgdecide.errors import DecideError
from hgdecide.gammacanon import PairForm, PairKind
from hgdecide.polys import IntPoly
from hgdecide.sequence import classify


def pair_value_expr(form: PairForm) -> Expr:
    """Enclosure expression of the pair value."""
    root = Pi() * Sqrt(form.m) * Rc(form.b)
    y = Exp(root)
    if form.kind == PairKind.INTEGER_RHO:
        core = (2 * y) / (Rc(form.b) * Sqrt(form.m) * (y * y - 1))
    else:
        core = (2 * y) / (y * y + 1)
    return Rc(form.prefactor) * Pi() * core


def tail_log_bound(p: IntPoly, q: IntPoly, k: int) -> Fraction:
    """Bound on |log prod_{j>k} r(j)| for a balanced quotient.

    With h = q - p (degree <= deg p - 2 in the balanced case) and
    H = sum |h_i|, P = sum of |subleading p_i|:

        |p(j)| >= j^deg/2        for j >= 2P,
        |h(j)| <= H j^(deg-2)    for j >= 1,

    so |r(j) - 1| <= 2H/j^2 and |log r(j)| <= 4H/j^2 once 2H/j^2 <= 1/2.
    Summing, |log tail| <= 4H/k for k >= max(2P, 2*sqrt(H), 1).
    """
    if not classify(p, q).is_balanced:
        raise DecideError("tail bound requires the balanced class")
    h = q - p
    big_h = sum(abs(c) for c in h.coeffs)
    if big_h == 0:
        return Fraction(0)
    big_p = sum(abs(c) for c in p.coeffs[:-1])
    threshold = max(1, 2 * big_p, math.isqrt(4 * big_h) + 1)
    if k < threshold:
        raise DecideError(f"tail bound valid only for k >= {threshold}")
    return Fraction(4 * big_h, k)
