"""Closed forms of gamma-pair values and partial-product tails that only
the tests need: independent references for the canonical constant."""

import math
from fractions import Fraction

from hgdecide.dyadic import DyadicInterval
from hgdecide.enclosure import exp_interval, pi_interval, sqrt_int_interval
from hgdecide.errors import DecideError
from hgdecide.gammacanon import PairForm, PairKind
from hgdecide.polys import IntPoly
from hgdecide.sequence import classify


def pair_value_enclosure(form: PairForm, prec: int) -> DyadicInterval:
    """Enclosure of the pair value from the kernels, worked at prec + 32
    bits: prefactor * pi * 2y / (b sqrt(m) (y^2 - 1)) for integer rho and
    prefactor * pi * 2y / (y^2 + 1) for half-integer rho, with
    y = exp(pi b sqrt(m))."""
    w = prec + 32
    pi = pi_interval(w)
    sqrt_m = sqrt_int_interval(form.m, w)
    y = exp_interval(pi.mul(sqrt_m, w).scale(form.b, w), w)
    y2 = y.mul(y, w)
    one = DyadicInterval.from_int(1)
    if form.kind == PairKind.INTEGER_RHO:
        den = sqrt_m.scale(form.b, w).mul(y2.sub(one, w), w)
    else:
        den = y2.add(one, w)
    return pi.scale(2 * form.prefactor, w).mul(y, w).div(den, w)


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
