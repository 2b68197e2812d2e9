"""Closed forms of gamma-pair values and partial-product tails, and
mpmath gamma-ratio limits, that only the tests need: independent
references for the canonical constant and the conditional oracle."""

import math
from fractions import Fraction

from hgdecide.dyadic import DyadicInterval
from hgdecide.enclosure import exp_interval, pi_interval, root_int_interval
from hgdecide.errors import DecideError
from hgdecide.polys import IntPoly
from hgdecide.sequence import classify


def pair_value_enclosure(rho: Fraction, b: Fraction, m: int, prefactor: Fraction, prec: int) -> DyadicInterval:
    """Enclosure of Gamma(rho + w)Gamma(rho - w), w = b*sqrt(-m), from the
    kernels, worked at prec + 32 bits: prefactor * pi * 2y / (b sqrt(m)
    (y^2 - 1)) for integer rho and prefactor * pi * 2y / (y^2 + 1) for
    half-integer rho, with y = exp(pi b sqrt(m))."""
    w = prec + 32
    pi = pi_interval(w)
    sqrt_m = root_int_interval(m, 2, w)
    y = exp_interval(pi.mul(sqrt_m, w).scale(b, w), w)
    y2 = y.mul(y, w)
    one = DyadicInterval.from_int(1)
    if Fraction(rho).denominator == 1:
        den = sqrt_m.scale(b, w).mul(y2.sub(one, w), w)
    else:
        den = y2.add(one, w)
    return pi.scale(2 * prefactor, w).mul(y, w).div(den, w)


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


def mpf_fraction(x) -> Fraction:
    """An mpmath mpf as the exact Fraction it stores."""
    man, exp = x.man_exp  # man is |mantissa|: a real pair may be negative
    return (-1 if x < 0 else 1) * Fraction(man) * Fraction(2) ** exp


def gamma_ratio_limit(u0: Fraction, p_factors, q_factors, prec: int) -> Fraction:
    """u0 * prod_{k>=0} q(k)/p(k) as a gamma ratio in mpmath at 2 * prec
    bits, for p and q given as products of monic factors: Gamma at the
    negated roots of p over Gamma at those of q.  Linear and quadratic
    factors take their roots in closed form, higher degrees from
    `mpmath.polyroots`."""
    import mpmath

    with mpmath.workprec(2 * prec):
        value = mpmath.mpf(u0.numerator) / u0.denominator
        for factors, power in ((p_factors, 1), (q_factors, -1)):
            for poly in factors:
                if poly.degree == 1:  # x + c: Gamma(c)
                    value *= mpmath.gamma(poly.coeffs[0]) ** power
                    continue
                if poly.degree > 2:  # conjugate-closed roots: a real product
                    roots = mpmath.polyroots(poly.coeffs[::-1], maxsteps=200, extraprec=2 * prec)
                    value *= mpmath.fprod(mpmath.gamma(-r) for r in roots).real ** power
                    continue
                c, b = poly.coeffs[0], poly.coeffs[1]  # x^2 + b x + c
                # roots -b/2 +- sqrt(b^2/4 - c); Gamma at both negated roots,
                # real when the discriminant is positive
                disc = mpmath.mpf(b * b) / 4 - c
                root = mpmath.sqrt(disc) if disc > 0 else mpmath.mpc(0, mpmath.sqrt(-disc))
                z, z_bar = mpmath.mpf(b) / 2 + root, mpmath.mpf(b) / 2 - root
                value *= (mpmath.gamma(z) * mpmath.gamma(z_bar)).real ** power
        return mpf_fraction(value)

