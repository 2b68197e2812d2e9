"""Rigorous enclosures of constants, and the precision ladder.

The kernels return dyadic intervals guaranteed to contain the exact value:
pi, sqrt(n), and exp, sin and cos over a dyadic interval.  `gammacanon`
and `schanuel` build each limit's enclosure from them directly, and
`towers` calls sin and cos for complex values.  Every constant is summed
on plain integers scaled by 2**w (Brent 1976, "Fast multiple-precision
evaluation of elementary functions"): pi by Machin's formula, exp, sin and
cos by one Taylor kernel after halving the argument below 2**-8, then
squaring or angle doubling back.  Each kernel counts its error in ulps of
2**-w (per-term floors, the dropped tail, the rounded input and the growth
under squaring or doubling) and folds the count into the interval; there
is no heuristic rounding anywhere.

An order test climbs the ladder 64, 128, 256, ... bits.  `eval_enclosure`
is one rung: it asks the limit for its enclosure at that many bits, once.
A rung whose enclosure divides by an interval straddling zero answers
nothing, and the ladder goes on to the next.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .config import DEFAULT_CONFIG, EngineConfig
from .dyadic import DyadicInterval
from .errors import IntervalStraddlesZero, PrecisionExceeded

# ---------------------------------------------------------------------------
# Constants with explicit error terms
# ---------------------------------------------------------------------------


def _atan_inv_scaled(x: int, shift: int) -> tuple[int, int]:
    """(scaled value, error bound) for atan(1/x) * 2**shift, x >= 2.

    Alternating series; per-term floor error <= 1 and the truncation error
    is below the first dropped term.
    """
    total = 0
    err = 1
    k = 0
    xsq = x * x
    denom_pow = x
    while True:
        term = (1 << shift) // ((2 * k + 1) * denom_pow)
        if term == 0:
            err += 1
            break
        total += -term if k % 2 else term
        err += 1
        denom_pow *= xsq
        k += 1
    return total, err


# Bound on each enclosure cache: one decision asks for a few dozen distinct
# entries, so this holds every live one and still caps memory.
_CACHE_MAXSIZE = 256


@lru_cache(maxsize=_CACHE_MAXSIZE)
def pi_interval(prec: int) -> DyadicInterval:
    """Machin: pi = 16*atan(1/5) - 4*atan(1/239)."""
    shift = prec + 16
    a5, e5 = _atan_inv_scaled(5, shift)
    a239, e239 = _atan_inv_scaled(239, shift)
    man = 16 * a5 - 4 * a239
    err = 16 * e5 + 4 * e239
    return DyadicInterval(man - err, -shift, man + err, -shift).round(prec + 8)


@lru_cache(maxsize=_CACHE_MAXSIZE)
def sqrt_int_interval(n: int, prec: int) -> DyadicInterval:
    m = math.isqrt(n << (2 * prec))
    exact = m * m == n << (2 * prec)
    return DyadicInterval(m, -prec, m if exact else m + 1, -prec)


# ---------------------------------------------------------------------------
# Fixed-point series kernel for exp, sin and cos
#
# A kernel value is an integer V standing for V * 2**-w (w-bit fixed point,
# one ulp = 2**-w) with an error bound E counted in ulps: the exact value
# lies in [(V - E) * 2**-w, (V + E) * 2**-w].  The argument x = man * 2**exp
# is halved s times so that |r| = |x| / 2**s < 2**-8, the Taylor series of r
# is summed in fixed point, and the result is squared (exp) or doubled as
# (C + iS)**2 (sin, cos) s times.
# ---------------------------------------------------------------------------

# series arguments satisfy |r| < 2**-_REDUCED_BITS
_REDUCED_BITS = 8


def _aligned(x: DyadicInterval) -> tuple[int, int, int]:
    """(a, b, e) with x = [a * 2**e, b * 2**e]."""
    e = min(x.lo_exp, x.hi_exp)
    return x.lo_man << (x.lo_exp - e), x.hi_man << (x.hi_exp - e), e


def _halvings(man: int, exp: int) -> int:
    """A number s >= 0 of halvings that takes |man * 2**exp| below 2**-8."""
    if man == 0:
        return 0
    return max(0, abs(man).bit_length() + exp + _REDUCED_BITS)


def _to_fixed(man: int, exp: int, w: int) -> int:
    """floor(man * 2**(exp + w)): at most one ulp below the exact value."""
    shift = exp + w
    return man << shift if shift >= 0 else man >> -shift


def _taylor_terms(a: int, w: int) -> list[int]:
    """Fixed-point terms a**j / j! (a >= 0 is r in w-bit fixed point).

    Term j is floor(term(j-1) * a / (j * 2**w)), so its error e_j obeys
    |e_j| <= |e_(j-1)| * 2**-8 / j + 1 < 1 / (1 - 2**-8) < 2 ulps.  The list
    stops before the first term that floors to zero; that term's exact
    value is below 2 ulps and the dropped tail, a geometric series of
    ratio 2**-8 from there, below 2 * 2**8 / 255 < 3 ulps.
    """
    terms = []
    t = 1 << w
    j = 0
    while t:
        terms.append(t)
        j += 1
        t = (t * a >> w) // j
    return terms


def _series_err(terms: list[int]) -> int:
    """Ulp error of a signed sum of `terms` from a rounded argument.

    2 ulps per computed term, 3 for the dropped tail, and 2 for the input:
    r is floored to within one ulp, and both exp' = e**r < 1.004 and
    |sin'|, |cos'| <= 1 on |r| < 2**-8 turn that into at most 2 ulps.
    """
    return 2 * len(terms) + 5


def _exp_point(man: int, exp: int, prec: int) -> tuple[int, int, int]:
    """(lo, hi, e) with lo * 2**e <= exp(man * 2**exp) <= hi * 2**e.

    The series sum V +- E (see `_series_err`) is turned into the pair
    lo = V - E, hi = V + E, and each of the s squarings floors lo and
    ceils hi after dropping low bits, so the pair stays an enclosure with
    no further ulp accounting.  Its relative width starts at 2E * 2**-w,
    doubles at each squaring and gains at most 2**-(w+1) per rounding, so
    w = prec + s + bits(prec) + 16 guard bits leave it below 2**-(prec+8)
    (E < w/4 + 7 since each term is at least 2**8 times smaller than the
    last).
    """
    s = _halvings(man, exp)
    w = prec + s + prec.bit_length() + 16
    r = _to_fixed(man, exp - s, w)
    terms = _taylor_terms(abs(r), w)
    v = sum(terms) if r >= 0 else sum(terms[0::2]) - sum(terms[1::2])
    err = _series_err(terms)
    lo, hi, e = v - err, v + err, -w
    for _ in range(s):
        lo, hi, e = lo * lo, hi * hi, 2 * e
        drop = hi.bit_length() - (w + 2)
        if drop > 0:
            lo >>= drop
            hi = -((-hi) >> drop)
            e += drop
    return lo, hi, e


def exp_interval(x: DyadicInterval, prec: int) -> DyadicInterval:
    """Enclosure of exp over x, rounded outward to prec mantissa bits.

    exp is increasing, so the lower endpoint comes from `_exp_point` at
    x.lo and the upper one at x.hi; each is within 2**-(prec+8) relative
    before the final rounding, which adds at most one ulp at prec bits.
    """
    lo, hi, lo_e = _exp_point(x.lo_man, x.lo_exp, prec)
    hi_e = lo_e
    if (x.hi_man, x.hi_exp) != (x.lo_man, x.lo_exp):
        _, hi, hi_e = _exp_point(x.hi_man, x.hi_exp, prec)
    return DyadicInterval(lo, lo_e, hi, hi_e).round(prec)


@lru_cache(maxsize=_CACHE_MAXSIZE)  # sin and cos of one angle share it
def _cos_sin_point(man: int, exp: int, prec: int) -> tuple[int, int, int, int]:
    """(C, S, E, w): cos and sin of man * 2**exp are C, S +- E ulps of 2**-w.

    The series of cos r and sin r share the terms of `_taylor_terms` and
    both start within E0 = `_series_err` ulps.  Each doubling
    C' = floor((C**2 - S**2) / 2**w), S' = floor(2CS / 2**w) moves the
    error to E' = E(2|C| + 2|S| + 2E) / 2**w + 1 (|C**2 - c**2| <=
    E(2|C| + E), the same for S, and |2CS - 2cs| <= 2E(|C| + |S| + E)),
    which is computed exactly, rounded up, after every step.  Since
    |C| + |S| <= sqrt(2) * 2**w, E grows by about 2*sqrt(2) < 4 per
    doubling, so w = prec + 2s + bits(prec) + 16 guard bits leave
    E * 2**-w below 2**-(prec+8).
    """
    s = _halvings(man, exp)
    w = prec + 2 * s + prec.bit_length() + 16
    r = _to_fixed(man, exp - s, w)
    terms = _taylor_terms(abs(r), w)
    c = sum(terms[0::4]) - sum(terms[2::4])
    sn = sum(terms[1::4]) - sum(terms[3::4])
    if r < 0:
        sn = -sn
    err = _series_err(terms)
    for _ in range(s):
        err = ((err * (2 * (abs(c) + abs(sn)) + 2 * err)) >> w) + 2
        c, sn = (c * c - sn * sn) >> w, (c * sn) >> (w - 1)
    return c, sn, err, w


def _reduce_angle(x: DyadicInterval, prec: int) -> DyadicInterval:
    """x - 2*k*pi with k = round(mid(x) / (2*pi)); result near [-pi, pi].

    pi is taken to bits(x) more bits than the result needs and 2*k*pi is
    exact in it, so the reduction adds about 2**-(prec+6), the rounding of
    the difference, whatever the size of x.
    """
    a, b, e = _aligned(x)
    twice_mid = a + b
    pi_iv = pi_interval(prec + 16 + max(0, twice_mid.bit_length() + e))
    # mid(x) / (2*pi) = twice_mid * 2**e / (4 * pi), with pi ~ lo_man * 2**lo_exp
    num, den = twice_mid, pi_iv.lo_man
    shift = e - pi_iv.lo_exp - 2
    if shift >= 0:
        num <<= shift
    else:
        den <<= -shift
    k = (2 * num + den) // (2 * den)
    if k == 0:
        return x
    lo = (2 * k * pi_iv.lo_man, pi_iv.lo_exp)
    hi = (2 * k * pi_iv.hi_man, pi_iv.hi_exp)
    two_k_pi = DyadicInterval.bounds(lo, hi) if k > 0 else DyadicInterval.bounds(hi, lo)
    return x.sub(two_k_pi, prec + 8)


def _sin_or_cos(x: DyadicInterval, prec: int, want_sin: bool) -> DyadicInterval:
    """Kernel value at the midpoint of the reduced angle, widened by its
    radius (|sin'|, |cos'| <= 1) and rounded outward to 2**-(prec+8)."""
    a, b, e = _aligned(_reduce_angle(x, prec))
    c, sn, err, w = _cos_sin_point(a + b, e - 1, prec)
    v = sn if want_sin else c
    err -= _to_fixed(a - b, e - 1, w)  # the radius (b - a) * 2**(e-1), rounded up
    drop = w - (prec + 8)
    return DyadicInterval((v - err) >> drop, -(prec + 8), -((-v - err) >> drop), -(prec + 8))


def sin_interval(x: DyadicInterval, prec: int) -> DyadicInterval:
    return _sin_or_cos(x, prec, True)


def cos_interval(x: DyadicInterval, prec: int) -> DyadicInterval:
    return _sin_or_cos(x, prec, False)


# ---------------------------------------------------------------------------
# Rungs of the precision ladder
# ---------------------------------------------------------------------------


def eval_enclosure(value, precision_bits: int, config: EngineConfig = DEFAULT_CONFIG) -> DyadicInterval:
    """Interval certain to contain `value` at one rung of the ladder.

    `value` is a limit that encloses itself, the `CanonicalConstant` or the
    `ConditionalLimitOracle` that `equality.limit_oracle` built; this
    returns `value.limit_enclosure(bits)`.
    Raises PrecisionExceeded when `precision_bits` breaches the configured
    cap, and IntervalStraddlesZero when the value divides by an interval
    that contains zero at this rung.
    """
    if precision_bits > config.precision_cap_bits:
        raise PrecisionExceeded(
            f"requested {precision_bits} bits exceeds cap {config.precision_cap_bits}"
        )
    return value.limit_enclosure(precision_bits)


# the first rung of every order comparison
COMPARE_START_BITS = 64


def precision_ladder(probe, start_bits: int, config: EngineConfig = DEFAULT_CONFIG):
    """(probe(bits), bits) for the first bits in start_bits, 2*start_bits,
    ... (every rung, the first too, capped at config.precision_cap_bits)
    where probe answers, i.e. returns anything but None; an
    IntervalStraddlesZero counts as no answer.  Raises PrecisionExceeded
    when the cap gives none.

    The ladder calls probe once per rung, in rising order."""
    bits = min(start_bits, config.precision_cap_bits)
    while True:
        try:
            answer = probe(bits)
        except IntervalStraddlesZero:
            answer = None
        if answer is not None:
            return answer, bits
        if bits >= config.precision_cap_bits:
            raise PrecisionExceeded(f"no separation at {bits} bits (cap {config.precision_cap_bits})")
        bits = min(2 * bits, config.precision_cap_bits)
