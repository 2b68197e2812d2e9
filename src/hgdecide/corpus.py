"""Deterministic pseudo-random instance corpus.

Families mirror the supported input classes: purely rational roots,
Gaussian integers, the class-number-one style imaginary quadratic fields
d in {-2, -3, -7, -11}, real quadratic (symmetric-matching) pairs, and
rational/imaginary mixes.  A fixed seed reproduces the corpus exactly.

Instances are admitted only if a cheap float probe shows the deciders'
exact scans stay at desk depth (a few thousand terms); candidates whose
search bounds would land near the scan cap are regenerated
deterministically.  The engine itself accepts any instance and reports a
resource error at its caps; this filter is about corpus ergonomics.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .exactnum import format_rat
from .polys import IntPoly
from .sequence import HGInstance, Problem, classify, monotonicity_index, term

_PROBE_LIMIT = 24000
_ADMIT_DEPTH = 8000

FAMILIES = ("rational", "gaussian", "quadratic-imaginary", "real-quadratic", "mixed")

_IMAG_DS = (-2, -3, -7, -11)


def _quad_coords(rng: random.Random, d: int) -> tuple[Fraction, Fraction]:
    if d % 4 == 1 and rng.random() < 0.5:
        a = Fraction(2 * rng.randint(-2, 2) + 1, 2)
        b = Fraction(2 * rng.randint(0, 1) + 1, 2)
    else:
        a = Fraction(rng.randint(-3, 3))
        b = Fraction(rng.randint(1, 3))
    return a, b


def _quad_poly(a: Fraction, b: Fraction, d: int) -> IntPoly:
    """Monic integer quadratic with roots a +- b*sqrt(d)."""
    const = a * a - b * b * d
    return IntPoly.of(int(const), int(-2 * a), 1)


def _quad_factor(rng: random.Random, d: int) -> IntPoly:
    a, b = _quad_coords(rng, d)
    return _quad_poly(a, b, d)


def _real_quad_factor(rng: random.Random, center2: int) -> IntPoly:
    """x^2 - center2*x + c, irreducible with irrational real roots.

    center2 = twice the root center, so odd values exercise the
    half-integer lattice (roots like (1 +- sqrt(5))/2).
    """
    import math

    while True:
        c = rng.randint(-6, max(center2 * center2 // 4 - 1, -1))
        disc = center2 * center2 - 4 * c
        if disc <= 0:
            continue
        root = math.isqrt(disc)
        if root * root == disc:
            continue
        # irreducible (nonsquare discriminant), so no integer roots
        return IntPoly.of(c, -center2, 1)


def _rational_factor(rng: random.Random) -> IntPoly:
    return IntPoly.of(rng.randint(1, 6), 1)  # root in [-6, -1]


def _build_polys(rng: random.Random, family: str) -> tuple[IntPoly, IntPoly]:
    balanced = rng.random() < 0.7
    if family == "rational":
        if balanced:
            a, b = rng.randint(1, 4), rng.randint(1, 4)
            shift = rng.randint(0, 2)
            p = _compose([IntPoly.of(a, 1), IntPoly.of(b + shift, 1)])
            q = _compose([IntPoly.of(a + shift, 1), IntPoly.of(b, 1)])
        else:
            p = _compose([_rational_factor(rng) for _ in range(rng.randint(1, 2))])
            q = _compose([_rational_factor(rng) for _ in range(rng.randint(1, 2))])
        return p, q
    if family in ("gaussian", "quadratic-imaginary"):
        d = -1 if family == "gaussian" else rng.choice(_IMAG_DS)
        a, b1 = _quad_coords(rng, d)
        if balanced:
            # same field, same center: balanced pair in one imaginary field
            b2 = b1 + rng.randint(1, 2)
            return _quad_poly(a, b1, d), _quad_poly(a, b2, d)
        return _quad_poly(a, b1, d), _quad_factor(rng, d)
    if family == "real-quadratic":
        center2 = rng.randint(1, 6)  # odd values give half-integer centers
        f1 = _real_quad_factor(rng, center2)
        f2 = _real_quad_factor(rng, center2)
        if rng.random() < 0.2:
            f2 = f1  # shared factor: cancellation cases
        if balanced:
            return f1, f2
        return f1, _compose([f2, _rational_factor(rng)])
    if family == "mixed":
        d = rng.choice((-1,) + _IMAG_DS)
        a, b1 = _quad_coords(rng, d)
        lin_a = rng.randint(1, 5)
        if balanced:
            # p = quad*(x+l), q = quad'*(x+l): same field and same center
            p = _compose([_quad_poly(a, b1, d), IntPoly.of(lin_a, 1)])
            q = _compose([_quad_poly(a, b1 + 1, d), IntPoly.of(lin_a, 1)])
            return p, q
        return _compose([_quad_poly(a, b1, d), IntPoly.of(lin_a, 1)]), _quad_factor(rng, d)
    raise ValueError(f"unknown family {family!r}")


def _compose(factors: list[IntPoly]) -> IntPoly:
    out = IntPoly.of(1)
    for f in factors:
        out = out * f
    return out


def _pick_target(rng: random.Random, inst_wo_t: HGInstance) -> Fraction:
    style = rng.random()
    if style < 0.35:
        # exact term: creates positive membership / tight threshold cases
        k = rng.randint(0, 8)
        value = term(inst_wo_t, k)
        if value != 0:
            return value
    if style < 0.45:
        num = rng.randint(-40, 40)
        return Fraction(num if num else 1, rng.randint(1, 12))
    num = rng.randint(-10**5, 10**5)
    return Fraction(num if num else 7, rng.randint(1, 10**5))


def _scan_depth_ok(p: IntPoly, q: IntPoly, u0: Fraction, t: Fraction) -> bool:
    """Float probe: would the exact bound/crossing scans stay shallow?"""
    if u0 == 0 or t == 0:
        return True
    cls = classify(p, q)
    k1 = monotonicity_index(p, q)
    lt = math.log(abs(t))
    lu = math.log(abs(u0))
    if cls.grows or cls.shrinks:
        for k in range(_PROBE_LIMIT):
            qk, pk = q(k), p(k)
            if qk == 0:
                return True  # zero tail: trivially cheap
            lu += math.log(abs(qk)) - math.log(abs(pk))
            if k >= k1:
                if cls.grows and lu > lt + 0.1:
                    return k < _ADMIT_DEPTH
                if cls.shrinks and lu < lt - 0.1:
                    return k < _ADMIT_DEPTH
        return False
    if cls.is_balanced and p != q:
        # crossing scans run while the monotone tail is between t and the
        # limit; reject targets too close to the estimated limit
        probe_terms = 4000
        for k in range(probe_terms):
            qk, pk = q(k), p(k)
            if qk == 0:
                return True
            lu += math.log(abs(qk)) - math.log(abs(pk))
        big_h = sum(abs(c) for c in (q - p).coeffs)
        slack = 4.0 * big_h / probe_terms + 4.0 * big_h / _ADMIT_DEPTH + 1e-6
        return abs(lu - lt) > slack
    return True


def generate_documents(seed: int, count: int, family: str) -> list[dict]:
    """Deterministic instance documents for one family (or 'all' mix)."""
    if family != "all" and family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES + ('all',)}")
    docs = []
    for i in range(count):
        fam = family if family != "all" else FAMILIES[i % len(FAMILIES)]
        for attempt in range(64):
            rng = random.Random(f"{seed}:{family}:{i}:{attempt}")
            p, q = _build_polys(rng, fam)
            u0 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            if u0 == 0 and rng.random() < 0.8:
                u0 = Fraction(1)
            problem = Problem.MEMBERSHIP if rng.random() < 0.5 else Problem.THRESHOLD
            probe = HGInstance(p, q, u0, Fraction(1), problem)
            t = _pick_target(rng, probe)
            if t == 0:
                t = Fraction(1, 7)
            if _scan_depth_ok(p, q, u0, t):
                break
        docs.append(
            {
                "p": list(p.coeffs),
                "q": list(q.coeffs),
                "u0": format_rat(u0),
                "t": format_rat(t),
                "problem": problem.value,
                "mode": "auto",
                "family": fam,
                "seed": f"{seed}:{fam}:{i}:{attempt}",
            }
        )
    return docs
