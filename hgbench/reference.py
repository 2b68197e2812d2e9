"""Independent reference verdicts for the benchmark's correctness check.

Nothing here imports hgdecide.  Terms are plain `Fraction` products (no
float filter), tail behaviour is argued from a Cauchy root bound, and
balanced limits are gamma products: exact factorials when every root is an
integer, otherwise mpmath at twice the requested precision inside
`mpmath.workprec`, so the engine's global `mp.dps` setting never leaks in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

# longest plain-Fraction scan the reference will make hunting an index
SCAN_LIMIT = 20000


class Undetermined(Exception):
    """The reference cannot settle this instance within its own limits."""


@dataclass(frozen=True)
class Expected:
    result: bool  # member / holds
    index: int | None = None  # least witness or first violation, when known


def peval(coeffs, k):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * k + c
    return acc


def _trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def _combine(p, q, sign):
    n = max(len(p), len(q))
    return _trim([(q[i] if i < len(q) else 0) + sign * (p[i] if i < len(p) else 0) for i in range(n)])


def _cauchy(coeffs) -> Fraction:
    lead = abs(coeffs[-1])
    return 1 + max(Fraction(abs(c), lead) for c in coeffs[:-1])


def tail_index(p, q) -> int:
    """K past every real root of p, q, q - p and q + p: none of them changes
    sign for k >= K, so the ratio q/p keeps its sign and its side of +-1."""
    bound = Fraction(0)
    for f in (p, q, _combine(p, q, -1), _combine(p, q, 1)):
        if len(f) >= 2:
            bound = max(bound, _cauchy(f))
    return 1 + math.ceil(bound)


def _integer_roots(coeffs):
    """Integer roots with multiplicity, or None if f does not split over Z."""
    f = _trim(coeffs)
    roots = []
    while len(f) > 1 and f[0] == 0:
        roots.append(0)
        f = f[1:]
    while len(f) > 1:
        c0 = abs(f[0])
        found = None
        for d in range(1, math.isqrt(c0) + 1):
            if c0 % d:
                continue
            for r in (d, -d, c0 // d, -(c0 // d)):
                if peval(f, r) == 0:
                    found = r
                    break
            if found is not None:
                break
        if found is None:
            return None
        # synthetic division by (x - found)
        out = [0] * (len(f) - 1)
        acc = 0
        for i in range(len(f) - 1, 0, -1):
            acc = acc * found + f[i]
            out[i - 1] = acc
        f = out
        roots.append(found)
    return roots if len(f) == 1 and abs(f[0]) == 1 else None


def _mp_roots(coeffs):
    desc = [mpmath.mpf(c) for c in reversed(coeffs)]
    return mpmath.polyroots(desc, maxsteps=400, extraprec=2 * mpmath.mp.prec)


def limit_value(p, q, u0: Fraction, bits: int):
    """lim u_n = u0 * prod Gamma(-alpha) / prod Gamma(-beta) over the roots
    alpha of p and beta of q (balanced, monic).  A Fraction when all roots
    are integers, else an mpf good to well over `bits` bits."""
    rp, rq = _integer_roots(p), _integer_roots(q)
    if rp is not None and rq is not None:
        value = Fraction(u0)
        for a in rp:
            value *= math.factorial(-a - 1)
        for b in rq:
            value /= math.factorial(-b - 1)
        return value
    with mpmath.workprec(2 * bits + 64):
        value = mpmath.mpf(u0.numerator) / u0.denominator
        for a in _mp_roots(p):
            value *= mpmath.gamma(-a)
        for b in _mp_roots(q):
            value /= mpmath.gamma(-b)
        return +mpmath.re(value)


def limit_side(limit, t: Fraction, bits: int) -> int:
    """sign(limit - t); 0 when they agree to 2*bits bits (exactly, for
    rational limits)."""
    if isinstance(limit, Fraction):
        return (limit > t) - (limit < t)
    with mpmath.workprec(2 * bits + 64):
        diff = limit - mpmath.mpf(t.numerator) / t.denominator
        scale = max(mpmath.mpf(1), abs(limit))
        if abs(diff) <= scale * mpmath.ldexp(1, -2 * bits):
            return 0
        return 1 if diff > 0 else -1


def expected_verdict(doc: dict, bits: int = 128, hunt: bool = True) -> Expected:
    """The verdict for an instance document, with the least witness or first
    violation where the scan reaches it.  Limits are compared at 2*bits
    bits; `hunt=False` skips the search for a first violation that lies
    beyond any scan (far-side near ties)."""
    p, q = _trim(doc["p"]), _trim(doc["q"])
    u0, t = Fraction(doc["u0"]), Fraction(doc["t"])
    member = doc["problem"] == "membership"

    def hit(u):
        return (u == t) if member else (u < t)

    if u0 == 0:
        if member:
            return Expected(t == 0, 0 if t == 0 else None)
        return Expected(t <= 0, None if t <= 0 else 0)

    # zero tail: q vanishes at a nonnegative integer k0, so u_n = 0 for n > k0
    zero_at = None
    if len(q) >= 2:
        zero_at = next((k for k in range(math.ceil(_cauchy(q)) + 1) if peval(q, k) == 0), None)
    if zero_at is not None:
        u = u0
        for n in range(zero_at + 1):
            if hit(u):
                return Expected(member, n)
            u *= Fraction(peval(q, n), peval(p, n))
        if member:
            return Expected(t == 0, zero_at + 1 if t == 0 else None)
        return Expected(t <= 0, None if t <= 0 else zero_at + 1)
    if t == 0:
        raise Undetermined("zero target on a nonvanishing sequence")

    if p == q:
        ok = (u0 == t) if member else (u0 >= t)
        return Expected(ok, 0 if ok == member else None)

    dp, dq = len(p) - 1, len(q) - 1
    if dq > dp:
        regime = "grows"
    elif dq < dp:
        regime = "shrinks"
    else:
        c = Fraction(q[-1], p[-1])
        if c == -1 or dp == 0 and c == 1:
            raise Undetermined("ratio limit -1 or constant ratio 1")
        if abs(c) != 1:
            regime = "grows" if abs(c) > 1 else "shrinks"
        else:
            a = Fraction(q[-2] - p[-2], p[-1])
            regime = "grows" if a > 0 else "shrinks" if a < 0 else "balanced"

    k_tail = tail_index(p, q)
    u, n = u0, 0

    def step():
        nonlocal u, n
        u *= Fraction(peval(q, n), peval(p, n))
        n += 1

    if regime in ("grows", "shrinks"):
        grows = regime == "grows"
        while True:
            if hit(u):
                return Expected(member, n)
            if n >= k_tail and ((abs(u) > abs(t)) if grows else (abs(u) < abs(t))):
                break
            if n >= SCAN_LIMIT:
                raise Undetermined("bound deeper than the reference scan limit")
            step()
        qn, pn = peval(q, n), peval(p, n)
        if (abs(qn) > abs(pn)) != grows:
            raise Undetermined("tail ratio on the wrong side of 1 past the root bound")
        # |u_m| moves monotonically away from |t| for m >= n
        if member:
            return Expected(False)
        if not grows:
            return Expected(True)  # t < 0 here, else u_n < |t| = t was a hit
        if qn * pn > 0:
            return Expected(True)
        return Expected(False, n + 1)  # alternating: u_{n+1} < -|t| <= t

    # balanced: past k_tail the terms are strictly monotone toward the limit
    if p[-1] != 1 or q[-1] != 1:
        raise Undetermined("balanced instance with non-monic coefficients")
    while n < k_tail:
        if hit(u):
            return Expected(member, n)
        step()
    if hit(u):
        return Expected(member, n)
    limit = limit_value(p, q, u0, bits)
    side = limit_side(limit, t, bits)
    rising = (u * (peval(q, n) - peval(p, n)) * peval(p, n)) > 0
    if member:
        # the tail runs from u_K toward the limit without reaching it; it can
        # meet t only if t lies strictly between them
        if side == 0 or (side > 0) != rising or not ((u < t) if rising else (u > t)):
            return Expected(False)
        while (u < t) if rising else (u > t):
            if n >= SCAN_LIMIT:
                raise Undetermined("tail crossing deeper than the reference scan limit")
            step()
        return Expected(True, n) if u == t else Expected(False)
    if rising or side >= 0:
        return Expected(True)
    # decreasing tail with limit below t: it fails; find the first violation
    # only if asked and it lies within reach
    while hunt and n < SCAN_LIMIT:
        step()
        if u < t:
            return Expected(False, n)
    return Expected(False)


def product_range(f, lo: int, hi: int) -> int:
    """prod_{k=lo}^{hi-1} f(k) by a balanced product tree."""
    if hi - lo <= 8:
        out = 1
        for k in range(lo, hi):
            out *= peval(f, k)
        return out
    mid = (lo + hi) // 2
    return product_range(f, lo, mid) * product_range(f, mid, hi)


def exact_term(p, q, u0: Fraction, n: int) -> Fraction:
    """u_n by product trees, independent of the engine's sequential scan."""
    return u0 * Fraction(product_range(q, 0, n), product_range(p, 0, n))
