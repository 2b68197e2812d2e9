"""Rigorous enclosures of constant expressions.

Expression trees over {rationals, sqrt(n), pi, exp, sin, cos} evaluate to
dyadic intervals guaranteed to contain the exact value.  Every constant is
summed on plain integers scaled by 2**w (Brent 1976, "Fast multiple-
precision evaluation of elementary functions"): pi by Machin's formula,
exp, sin and cos by one Taylor kernel after halving the argument below
2**-8, then squaring or angle doubling back.  Each kernel counts its error
in ulps of 2**-w (per-term floors, the dropped tail, the rounded input and
the growth under squaring or doubling) and folds the count into the
interval; there is no heuristic rounding anywhere.

Refinement is monotone by construction: `eval_enclosure` walks the standard
precision ladder 64, 128, 256, ... intersecting as it goes, so a result at
higher requested precision is always nested inside the lower-precision one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .config import DEFAULT_CONFIG, EngineConfig
from .dyadic import DyadicInterval
from .errors import DecideError, IntervalStraddlesZero, PrecisionExceeded

# Instrumented counter: number of top-level enclosure evaluations.  Test
# hooks use this to prove the symbolic equality path never touches numerics.
_evals_done = 0


def evaluation_count() -> int:
    return _evals_done


# ---------------------------------------------------------------------------
# Expression nodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    def __add__(self, other):
        return Add((self, _coerce(other)))

    def __radd__(self, other):
        return Add((_coerce(other), self))

    def __sub__(self, other):
        return Add((self, Neg(_coerce(other))))

    def __rsub__(self, other):
        return Add((_coerce(other), Neg(self)))

    def __mul__(self, other):
        return Mul((self, _coerce(other)))

    def __rmul__(self, other):
        return Mul((_coerce(other), self))

    def __truediv__(self, other):
        return Div(self, _coerce(other))

    def __rtruediv__(self, other):
        return Div(_coerce(other), self)

    def __neg__(self):
        return Neg(self)

    def __pow__(self, k: int):
        return Pow(self, k)


@dataclass(frozen=True)
class Rc(Expr):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Sqrt(Expr):
    n: int  # positive integer radicand

    def __post_init__(self):
        if self.n <= 0:
            raise DecideError("Sqrt expects a positive integer")


@dataclass(frozen=True)
class Pi(Expr):
    pass


@dataclass(frozen=True)
class Add(Expr):
    args: tuple


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Mul(Expr):
    args: tuple


@dataclass(frozen=True)
class Div(Expr):
    num: Expr
    den: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    k: int


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr


@dataclass(frozen=True)
class Sin(Expr):
    arg: Expr


@dataclass(frozen=True)
class Cos(Expr):
    arg: Expr


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Rc(Fraction(x))
    raise TypeError(f"cannot use {x!r} in a constant expression")


def sinh(x: Expr) -> Expr:
    return (Exp(x) - Exp(Neg(x))) * Fraction(1, 2)


def cosh(x: Expr) -> Expr:
    return (Exp(x) + Exp(Neg(x))) * Fraction(1, 2)


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
# Evaluator
# ---------------------------------------------------------------------------


def _eval(expr: Expr, prec: int, cache: dict) -> DyadicInterval:
    # keyed by identity: the cache lives for one walk of one tree, whose
    # nodes all stay alive under the root, so no id is reused meanwhile,
    # and hashing a frozen dataclass would re-walk its whole subtree
    hit = cache.get(id(expr))
    if hit is not None:
        return hit
    if isinstance(expr, Rc):
        out = DyadicInterval.from_fraction(expr.value, prec)
    elif isinstance(expr, Sqrt):
        out = sqrt_int_interval(expr.n, prec)
    elif isinstance(expr, Pi):
        out = pi_interval(prec)
    elif isinstance(expr, Add):
        out = DyadicInterval.from_int(0)
        for a in expr.args:
            out = out.add(_eval(a, prec, cache), prec)
    elif isinstance(expr, Neg):
        out = _eval(expr.arg, prec, cache).neg()
    elif isinstance(expr, Mul):
        out = DyadicInterval.from_int(1)
        for a in expr.args:
            out = out.mul(_eval(a, prec, cache), prec)
    elif isinstance(expr, Div):
        out = _eval(expr.num, prec, cache).div(_eval(expr.den, prec, cache), prec)
    elif isinstance(expr, Pow):
        out = _eval(expr.base, prec, cache).pow_int(expr.k, prec)
    elif isinstance(expr, Exp):
        out = exp_interval(_eval(expr.arg, prec, cache), prec)
    elif isinstance(expr, Sin):
        out = sin_interval(_eval(expr.arg, prec, cache), prec)
    elif isinstance(expr, Cos):
        out = cos_interval(_eval(expr.arg, prec, cache), prec)
    else:
        raise DecideError(f"unknown expression node {type(expr).__name__}")
    cache[id(expr)] = out
    return out


def eval_enclosure(
    expr: Expr,
    precision_bits: int,
    config: EngineConfig = DEFAULT_CONFIG,
) -> DyadicInterval:
    """Interval certain to contain the exact value of `expr`.

    Walks the precision ladder 64, 128, ... up to `precision_bits`,
    intersecting successive results, which makes refinement nested.  Raises
    PrecisionExceeded when `precision_bits` breaches the configured cap.
    """
    global _evals_done
    if precision_bits > config.precision_cap_bits:
        raise PrecisionExceeded(
            f"requested {precision_bits} bits exceeds cap {config.precision_cap_bits}"
        )
    _evals_done += 1
    result: DyadicInterval | None = None
    p = 64
    while True:
        step = _eval(expr, p + 32, {})
        result = step if result is None else result.intersect(step)
        if p >= precision_bits:
            return result
        p *= 2


def precision_ladder(probe, start_bits: int, config: EngineConfig = DEFAULT_CONFIG):
    """(probe(bits), bits) for the first bits in start_bits, 2*start_bits,
    ... (capped at config.precision_cap_bits) where probe answers, i.e.
    returns anything but None; an IntervalStraddlesZero counts as no
    answer.  Raises PrecisionExceeded when the cap gives none."""
    bits = start_bits
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
