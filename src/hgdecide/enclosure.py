"""Rigorous enclosures of constants, and the precision ladder.

The kernels return dyadic intervals guaranteed to contain the exact value:
pi, integer roots a**(1/k), and exp, sin and cos over a dyadic interval.
`gammacanon` and `schanuel` build each limit's enclosure from them
directly, and `towers` calls them to embed its bases.  Every series is
summed by one fixed-point term loop on plain integers scaled by 2**w
(Brent 1976, "Fast multiple-precision evaluation of elementary
functions"): pi from the powers of Machin's formula, exp, sin and cos from
the Taylor terms of an argument halved below 2**-R, then squared or
angle-doubled back.  R grows with the precision.  Each kernel counts its
error in ulps of 2**-w (per-term floors, the dropped tail, the rounded
input and the growth under squaring or doubling) and folds the count into
the interval; there is no heuristic rounding anywhere.

The order test of both limit oracles, `compare`, climbs the ladder 64,
128, 256, ... bits.  `eval_enclosure` is one rung: it asks the limit for
its enclosure at that many bits, once.  A rung whose enclosure divides by
an interval straddling zero answers nothing, and the ladder goes on to the
next.  Order is the recursively enumerable side: `compare` runs only with
a NotEqual proof in hand, so some rung separates the limit from t and the
climb terminates.  It returns the separating rung's enclosure with the
sign and the bits, and the balanced verdict asks that same enclosure
whether the tail's crossing of t lies past the scan cap, before any scan
looks for it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .config import DEFAULT_CONFIG, EngineConfig
from .dyadic import DyadicInterval
from .errors import IntervalStraddlesZero, PrecisionExceeded
from .numutil import int_nthroot_floor

# ---------------------------------------------------------------------------
# One fixed-point series loop for pi, exp, sin and cos
#
# A kernel value is an integer V standing for V * 2**-w (w-bit fixed point,
# one ulp = 2**-w) with an error bound E counted in ulps: the exact value
# lies in [(V - E) * 2**-w, (V + E) * 2**-w].  Every kernel sums its terms
# from `_series` at w = `_guarded(prec)` bits plus the growth below, and
# counts the sum's error with `_series_err`.  pi sums Machin's arctangents.
# exp, sin and cos halve the argument x = man * 2**exp s times so that
# |r| = |x| / 2**s < 2**-R (`_halvings`), sum the Taylor series of r, and
# square (exp) or double as (C + iS)**2 (sin, cos) s times.
# ---------------------------------------------------------------------------

# Bound on each enclosure cache: one decision asks for a few dozen distinct
# entries, so this holds every live one and still caps memory.
_CACHE_MAXSIZE = 256


def _series(t: int, num: int, shift: int, den: int, step: int) -> list[int]:
    """t_0 = t and t_j = floor(t_(j-1) * num / (2**shift * d_j)) with
    d_j = den + (j - 1) * step, up to the first term that floors to zero.

    (2**w, a, w, 1, 1) gives the Taylor terms a**j / j! of r = a * 2**-w,
    and (2**w // x, 1, 0, x*x, 0) Machin's powers floor(2**w / x**(2k+1)):
    nested floors of exact quotients floor the whole quotient once.
    """
    terms = []
    while t:
        terms.append(t)
        t = (t * num >> shift) // den
        den += step
    return terms


def _series_err(terms: list[int]) -> int:
    """Ulp error of a kernel's signed sum over `terms`: 2 ulps per computed
    term, 3 for the dropped tail and 2 for the input.

    Taylor (a >= 0 is |r| < 2**-R <= 2**-8, floored to one ulp): term j is
    off by e_j with |e_j| <= |e_(j-1)| * 2**-8 / j + 1 < 1 / (1 - 2**-8)
    < 2 ulps.  The first term that floors to zero is below 2 ulps, so the
    dropped tail, a geometric series of ratio 2**-8 from there, is below
    2 * 2**8 / 255 < 3 ulps.  exp' = e**r < 1.004 and |sin'|, |cos'| <= 1
    on |r| < 2**-8 turn the rounded input into at most 2 ulps.

    Machin: each power is within one ulp and its division by 2k + 1
    floors once more, under 2 ulps per term.  The powers fall, so the
    alternating tail is below the first dropped term, under one ulp; the
    input 1/x is exact.
    """
    return 2 * len(terms) + 5


def _guarded(prec: int) -> int:
    """Width w of a series sum whose ulp count, below 8w + 200 for Machin
    and w/4 + 7 for Taylor (each term is 2**8 times below the last),
    stays below 2**-(prec+8) of the value."""
    return prec + prec.bit_length() + 16


def _pi_point(prec: int) -> tuple[int, int, int]:
    """(V, E, w): pi is V +- E ulps of 2**-w, by Machin's formula
    pi = 16 atan(1/5) - 4 atan(1/239), where atan(1/x) is the alternating
    sum of x**-(2k+1) / (2k+1): each power from `_series` is divided by
    2k + 1 while summing."""
    w = _guarded(prec)
    v = err = 0
    for x, c in ((5, 16), (239, -4)):
        terms = _series((1 << w) // x, 1, 0, x * x, 0)
        odd = [t // (2 * k + 1) for k, t in enumerate(terms)]
        v += c * (sum(odd[0::2]) - sum(odd[1::2]))
        err += abs(c) * _series_err(terms)
    return v, err, w


@lru_cache(maxsize=_CACHE_MAXSIZE)
def pi_interval(prec: int) -> DyadicInterval:
    v, err, w = _pi_point(prec)
    return DyadicInterval(v - err, -w, v + err, -w).round(prec + 8)


@lru_cache(maxsize=_CACHE_MAXSIZE)
def root_int_interval(a: int, k: int, prec: int) -> DyadicInterval:
    """a**(1/k) for integers a >= 0, k >= 1: [m, m + 1] * 2**-prec with
    m = floor(a**(1/k) * 2**prec), the point m when that is exact."""
    scaled = a << (k * prec)
    m = int_nthroot_floor(scaled, k)
    return DyadicInterval(m, -prec, m if m**k == scaled else m + 1, -prec)


def _aligned(x: DyadicInterval) -> tuple[int, int, int]:
    """(a, b, e) with x = [a * 2**e, b * 2**e]."""
    e = min(x.lo_exp, x.hi_exp)
    return x.lo_man << (x.lo_exp - e), x.hi_man << (x.hi_exp - e), e


def _halvings(man: int, exp: int, prec: int) -> int:
    """Halvings s >= 0 that take |man * 2**exp| below 2**-R, where
    R = max(8, isqrt(prec) // 2), 8 below 324 bits, trades series terms
    against squarings or doublings near the least cost found by a sweep
    over 256-16384 bits."""
    if man == 0:
        return 0
    return max(0, abs(man).bit_length() + exp + max(8, math.isqrt(prec) // 2))


def _to_fixed(man: int, exp: int, w: int) -> int:
    """floor(man * 2**(exp + w)): at most one ulp below the exact value."""
    shift = exp + w
    return man << shift if shift >= 0 else man >> -shift


def _exp_point(man: int, exp: int, prec: int) -> tuple[int, int, int]:
    """(lo, hi, e) with lo * 2**e <= exp(man * 2**exp) <= hi * 2**e.

    The series sum V +- E (see `_series_err`) is turned into the pair
    lo = V - E, hi = V + E, and each of the s squarings floors lo and
    ceils hi after dropping low bits, so the pair stays an enclosure with
    no further ulp accounting.  Its relative width starts at 2E * 2**-w,
    doubles at each squaring and gains at most 2**-(w+1) per rounding, so
    w = `_guarded(prec)` + s leaves it below 2**-(prec+8).
    """
    s = _halvings(man, exp, prec)
    w = _guarded(prec) + s
    r = _to_fixed(man, exp - s, w)
    terms = _series(1 << w, abs(r), w, 1, 1)
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

    The series of cos r and sin r share the Taylor terms of `_series`
    and both start within E0 = `_series_err` ulps.  Each doubling
    C' = floor((C**2 - S**2) / 2**w), S' = floor(2CS / 2**w) moves the
    error to E' = E(2|C| + 2|S| + 2E) / 2**w + 1 (|C**2 - c**2| <=
    E(2|C| + E), the same for S, and |2CS - 2cs| <= 2E(|C| + |S| + E)),
    which is computed exactly, rounded up, after every step.  Since
    |C| + |S| <= sqrt(2) * 2**w, E grows by about 2*sqrt(2) < 4 per
    doubling, so w = `_guarded(prec)` + 2s leaves E * 2**-w below
    2**-(prec+8).
    """
    s = _halvings(man, exp, prec)
    w = _guarded(prec) + 2 * s
    r = _to_fixed(man, exp - s, w)
    terms = _series(1 << w, abs(r), w, 1, 1)
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


def compare(
    value, t: Fraction, config: EngineConfig = DEFAULT_CONFIG
) -> tuple[int, int, DyadicInterval]:
    """Sign of (value - t) by interval refinement; returns (sign, bits,
    enclosure), the enclosure the rung at `bits` gave, which lies wholly
    on side `sign` of t.

    The one order test of both limit oracles: `value` is a
    `CanonicalConstant` or a `ConditionalLimitOracle`, and the ladder asks
    for its enclosure at 64, 128, ... bits, once per rung, until t lies
    outside it.  Callers must hold a NotEqual decision, which guarantees
    termination; the precision cap turns pathological closeness into a
    resource error, never a wrong answer.
    """
    t = Fraction(t)

    def probe(bits):
        enc = eval_enclosure(value, bits, config)
        sign = enc.compare_fraction(t)
        return None if sign is None else (sign, enc)

    (sign, enc), bits = precision_ladder(probe, COMPARE_START_BITS, config)
    return sign, bits, enc
