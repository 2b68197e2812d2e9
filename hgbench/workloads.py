"""Seeded instance plans for the four benchmark workloads.

A plan is a list of `Item`s: an instance document for the engine plus what
the correctness check needs.  Plan size follows `--seconds`; the
composition of each round of a plan is fixed, so the cost of a run depends
on the seed only through the instances drawn inside each stratum.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

import mpmath

import reference

WORKLOADS = ("corpus-unconditional", "corpus-conditional", "near-tie", "deep-scan")

UNCONDITIONAL_FAMILIES = ("rational", "gaussian", "quadratic-imaginary", "mixed")

# plan rounds per 20 s of --seconds, sized so that a whole run, set-up,
# plan, reference checks and every instance decided and verified REPEATS
# times, takes about 20 s on a 2-core x86 host with the engine as it was
# when this benchmark was added
ROUNDS_PER_20S = {
    "corpus-unconditional": 30,
    "corpus-conditional": 5,
    "near-tie": 5,
    "deep-scan": 1,
}

# rounds over the plan; each instance's time is the mean of its rounds,
# which, like the pace kernel's mean (pace.py), mixes the host's fast and
# slow phases in the share they had over the run.  Where generating
# instances costs more than deciding them, the plan is smaller and decided
# more often; elsewhere more distinct instances, decided once, narrow the
# spread between seeds.
REPEATS = {
    "corpus-unconditional": 6,
    "corpus-conditional": 2,
    "near-tie": 1,
    "deep-scan": 1,
}

# verifications of each certificate per round, back to back; where a
# replay takes a millisecond or less, one would time the host's flicker
VERIFY_REPEATS = {
    "corpus-unconditional": 1,
    "corpus-conditional": 5,
    "near-tie": 5,
    "deep-scan": 1,
}

# how strongly the host's slow phase moves each workload's times, as a
# power of the pace kernel's slowdown (pace.py); measured as the slope of
# ln(decide time) on ln(kernel time), over six runs of one seed and over
# 150 s of decisions interleaved with kernel samples
PACE_EXPONENT = {
    "corpus-unconditional": 1.0,
    "corpus-conditional": 0.6,
    "near-tie": 0.6,
    "deep-scan": 1.1,
}

# per-instance SIGALRM budget for decide and for verify, seconds
BUDGET_SECONDS = {
    "corpus-unconditional": 10.0,
    "corpus-conditional": 20.0,
    "near-tie": 30.0,
    "deep-scan": 30.0,
}

# engine scan cap for near-tie: far-side tail hunts end there
NEAR_TIE_SCAN_CAP = 4000


@dataclass
class Item:
    doc: dict
    label: str
    bits: int = 128  # reference precision is twice this
    hunt: bool = True  # reference may scan for a first violation
    expect: reference.Expected | None = None  # set by construction
    bound: int | None = None  # search bound the construction fixes


def _doc(p, q, u0, t, problem) -> dict:
    return {
        "p": list(p),
        "q": list(q),
        "u0": str(Fraction(u0)),
        "t": str(Fraction(t)),
        "problem": problem,
        "mode": "auto",
    }


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / 20.0 * ROUNDS_PER_20S[workload]))


def build_plan(workload: str, seed: int, seconds: float, corpus_module, smoke: bool = False):
    """Smoke plans are tiny but still hold the 20 samples the tail needs."""
    rounds = rounds_for(workload, seconds)
    if workload == "corpus-unconditional":
        return _corpus_unconditional(seed, 2 if smoke else rounds, corpus_module)
    if workload == "corpus-conditional":
        return _corpus_conditional(seed, 1 if smoke else rounds, corpus_module)
    if workload == "near-tie":
        return _near_tie(seed, rounds, smoke)
    if workload == "deep-scan":
        return _deep_scan(seed, smoke)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# corpus families
# ---------------------------------------------------------------------------

_ENGINE_KEYS = ("p", "q", "u0", "t", "problem", "mode")


def _engine_doc(doc: dict) -> dict:
    return {k: doc[k] for k in _ENGINE_KEYS}


# corpus-unconditional holds the typical short requests, whose scans stay
# shallow: a document whose search bound lies deeper than this many terms
# is left out.  About 1.5% of the non-rational documents are; they cost
# 5-160 ms where the rest cost 0.1-9 ms, and one or none of them in a plan
# would move the run's total by a quarter.  The deep-scan workload decides
# such bounds (grow-threshold is the same shape: violated at 0, bound deep).
SHALLOW_DEPTH = 1000


def _corpus_unconditional(seed, rounds, corpus_module):
    # per round: 4 rational documents and, from each other family, 4 whose
    # balanced limit gets canonicalized plus 1 that is scanned only (the
    # families' natural mix is near 50:50, which would put the median
    # latency on the boundary between the two costs)
    plan = []
    for fam in UNCONDITIONAL_FAMILIES:
        if fam == "rational":
            quotas = {"shallow": 4 * rounds, "deep": 0}
            picked = _pick_strata(corpus_module, seed, fam, quotas, lambda d: "deep" if _deep_bound(d) else "shallow")
        else:
            quotas = {"identity": 4 * rounds, "scan": rounds, "deep": 0}
            picked = _pick_strata(corpus_module, seed, fam, quotas, _unconditional_stratum)
        plan.append([Item(_engine_doc(d), fam) for d in picked])
    return [item for group in zip_longest(*plan) for item in group if item is not None]


def _identity_class(doc) -> bool:
    """Balanced pair of distinct polynomials: the decision canonicalizes
    the limit or builds a symbolic identity for it."""
    p, q = doc["p"], doc["q"]
    return len(p) == len(q) and p[-1] == q[-1] and p[-2] == q[-2] and p != q


def _unconditional_stratum(doc) -> str:
    if _deep_bound(doc):
        return "deep"
    return "identity" if _identity_class(doc) else "scan"


def _deep_bound(doc) -> bool:
    """Whether the search bound of a growing or shrinking document lies
    deeper than SHALLOW_DEPTH terms: the first index past the root bound
    where |u_n| has passed |t|, found by a plain Fraction scan."""
    p, q = reference._trim(doc["p"]), reference._trim(doc["q"])
    if len(p) != len(q) or p[-1] != q[-1] or len(p) < 2 or p[-2] == q[-2]:
        return False  # geometric or factorial terms, or a balanced pair
    grows = q[-2] > p[-2]
    u, t = Fraction(doc["u0"]), abs(Fraction(doc["t"]))
    k = reference.tail_index(p, q)
    for n in range(SHALLOW_DEPTH + 1):
        if n >= k and ((abs(u) > t) if grows else (abs(u) < t)):
            return False
        pn, qn = reference.peval(p, n), reference.peval(q, n)
        if pn == 0 or qn == 0:
            return False
        u *= Fraction(qn, pn)
    return True


def _pick_strata(corpus_module, seed, family, quotas, key):
    """The first documents of each stratum, in generator order, up to its
    quota; the interleaved order keeps the strata mixed over the run."""
    pools = {k: [] for k in quotas}
    chunk = 0
    while any(len(pools[k]) < n for k, n in quotas.items()):
        need = sum(max(0, n - len(pools[k])) for k, n in quotas.items())
        for doc in corpus_module.generate_documents(seed * 1000 + chunk, 2 * need + 8, family):
            pools[key(doc)].append(doc)
        chunk += 1
    picked = []
    for i in range(max(quotas.values())):
        for k, n in quotas.items():
            if i < n:
                picked.append(pools[k][i])
    return picked


def _corpus_conditional(seed, rounds, corpus_module):
    # identity-class instances (about 43% of the family) are fixed at 15 of
    # 20 per round: the run's cost then does not ride on a binomial draw,
    # and the median latency falls a third of the way into the class that
    # loads schanuel, where its instances lie dense (50-130 ms each)
    quotas = {True: 15 * rounds, False: 5 * rounds}
    picked = _pick_strata(corpus_module, seed, "real-quadratic", quotas, _identity_class)
    return [Item(_engine_doc(d), "identity" if _identity_class(d) else "other") for d in picked]


# ---------------------------------------------------------------------------
# near ties
# ---------------------------------------------------------------------------

# monic quadratics x^2 - 2a x + (a^2 - b^2 d) with roots a +- b sqrt(d)
_IMAG_DS = (-1, -2, -3, -7, -11)

# matched real-quadratic pairs x^2 - c2 x + c, same root center c2/2,
# nonsquare discriminants; each decides at 256 bits in well under a second
_REAL_PAIRS = (
    (1, -1, -3), (1, -1, -5), (1, -3, -5), (1, -1, -7),
    (3, 1, -1), (3, -1, -3), (2, -1, -2), (2, -2, -4),
)


def _imag_pair(rng: random.Random):
    d = rng.choice(_IMAG_DS)
    a = rng.randint(-3, 3)
    b1 = rng.randint(1, 3)
    b2 = b1 + rng.randint(1, 2)
    # p has the farther roots, so p(k) > q(k) and u_n falls toward the limit
    p = [a * a - b2 * b2 * d, -2 * a, 1]
    q = [a * a - b1 * b1 * d, -2 * a, 1]
    return p, q


def _real_pair(rng: random.Random):
    c2, c1, c0 = rng.choice(_REAL_PAIRS)
    p, q = [c1, -c2, 1], [c0, -c2, 1]
    return (p, q) if rng.random() < 0.5 else (q, p)


def _tie_target(limit, rel_bits: int, above: bool) -> Fraction:
    """A dyadic rational t with |t/limit - 1| about 2^-rel_bits, on the
    chosen side of the limit."""
    with mpmath.workprec(2 * rel_bits + 128):
        eps = mpmath.ldexp(1, -rel_bits)
        x = limit * (1 + eps if (limit > 0) == above else 1 - eps)
        _, e = mpmath.frexp(x)
        scale = rel_bits + 48 - int(e)
        num = int(mpmath.floor(mpmath.ldexp(x, scale)))
    return Fraction(num, 2 ** scale) if scale >= 0 else Fraction(num * 2 ** -scale)


def _tail_falls(p, q, u0: Fraction) -> bool:
    k = reference.tail_index(p, q)
    u = reference.exact_term(p, q, u0, k)
    return u * (reference.peval(q, k) - reference.peval(p, k)) * reference.peval(p, k) < 0


def _tie_item(p, q, u0, rel_bits, problem, near, label) -> Item:
    """Near side: t lies beyond the limit as seen from the tail, so the
    decision ends after the prefix scan and one order comparison.  Far side:
    t lies between the tail and the limit; threshold hunts then run into
    the scan cap."""
    falls = _tail_falls(p, q, u0)
    limit = reference.limit_value(p, q, u0, rel_bits)
    above = (not falls) if near else falls
    t = _tie_target(limit, rel_bits - 24, above)
    doc = _doc(p, q, u0, t, problem)
    return Item(doc, label, bits=rel_bits, hunt=near)


def _imag_tie(rng, bits, near, label, problem=None) -> Item:
    p, q = _imag_pair(rng)
    u0 = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    problem = problem or rng.choice(("membership", "threshold"))
    if problem == "membership" and rng.random() < 0.5:
        p, q = q, p  # rising tail; the near side is then above the limit
    return _tie_item(p, q, u0, bits, problem, near, label)


def _near_tie(seed, rounds, smoke):
    rng = random.Random(f"near-tie:{seed}")
    plan = []
    if not smoke:
        # one 1024-bit tie per run, the same in every run (the fixed
        # Gaussian example p = x^2-4x+13, q = x^2-4x+5), so its
        # multi-second cost does not vary with the seed
        plan.append(_tie_item([13, -4, 1], [5, -4, 1], Fraction(3, 2), 1024, "threshold", True, "uncond-1024"))
    # 19 ties per round, and per two rounds one 384-bit unconditional and
    # one 160-bit conditional tie, so that both reported percentiles fall
    # inside a class, not on the boundary between two: the median inside
    # the 50-70 ms ties (192- and 256-bit, far unconditional: 16-58% of a
    # round), and the tail (p90 of 100 at the usual plan size, the 10th
    # decision from the top) inside the ten far conditional ties that follow
    # the five largest (1024, 384 and 160 bits)
    unc_bits = (128,) if smoke else (128,) * 3 + (192,) * 4 + (256,) * 4
    cond_bits = (128,) if smoke else (128,) * 4
    far = 1 if smoke else 2
    for r in range(5 if smoke else rounds):
        plan += [_imag_tie(rng, bits, True, f"uncond-{bits}") for bits in unc_bits]
        plan += [_conditional_tie(rng, bits, True, f"cond-{bits}") for bits in cond_bits]
        plan += [_imag_tie(rng, 128, False, "far-uncond", "threshold") for _ in range(far)]
        plan += [_conditional_tie(rng, 128, False, "far-cond") for _ in range(far)]
        if r % 2 == 1 and not smoke:
            plan.append(_imag_tie(rng, 384, True, "uncond-384"))
            plan.append(_conditional_tie(rng, 160, True, "cond-160"))
    return plan


def _conditional_tie(rng, bits, near, label) -> Item:
    """A threshold tie when every prefix term stays at or above t, so the
    decision reaches the order comparison; otherwise a near-side tie turns
    into membership and a far-side one is drawn again."""
    for _ in range(500):
        p, q = _real_pair(rng)
        u0 = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
        falls = _tail_falls(p, q, u0)
        if not near and not falls:
            continue
        item = _tie_item(p, q, u0, bits, "threshold", near, label)
        k = reference.tail_index(p, q)
        t = Fraction(item.doc["t"])
        clean = falls and all(
            reference.exact_term(p, q, u0, n) >= t for n in range(k + 1)
        )
        if clean:
            return item
        if near:
            item.doc["problem"] = "membership"
            return item
    raise RuntimeError("no clean far-side conditional tie in 500 draws")


# ---------------------------------------------------------------------------
# deep scans
# ---------------------------------------------------------------------------


def _first_passing(p, q, u0: Fraction, t: Fraction, grows: bool, guess: int) -> int:
    """Least n with |u_n| > |t| (grows) or |u_n| < |t| (shrinks) for a
    sequence that is monotone in |u| from n = 0, located from a float guess
    and confirmed on exact product-tree terms."""

    def past(n):
        u = abs(reference.exact_term(p, q, u0, n))
        return u > abs(t) if grows else u < abs(t)

    n = max(0, guess)
    while n > 0 and past(n):
        n -= 1
    while not past(n):
        n += 1
    return n


def _log_ratio_term(c_num: Fraction, c_den: Fraction, n: int) -> float:
    """log prod_{k<n} (k + c_num)/(k + c_den)."""
    return (
        math.lgamma(n + c_num) - math.lgamma(c_num)
        - math.lgamma(n + c_den) + math.lgamma(c_den)
    )


def _deep_item(kind: str, depth: int, rng: random.Random) -> Item:
    a = rng.randint(1, 5)
    u0 = Fraction(rng.randint(1, 6), rng.randint(1, 3))
    if kind == "grow-member":
        # u_n = u0 (n + a)/a, member at `depth`
        p, q = [a, 1], [a + 1, 1]
        t = u0 * Fraction(depth + a, a)
        doc = _doc(p, q, u0, t, "membership")
        return Item(doc, kind, expect=reference.Expected(True, depth), bound=depth + 1)
    if kind == "grow-threshold":
        # violated at 0, but the divergence bound still lies at depth + 1
        p, q = [a, 1], [a + 1, 1]
        t = u0 * Fraction(2 * (depth + a) + 1, 2 * a)
        doc = _doc(p, q, u0, t, "threshold")
        return Item(doc, kind, expect=reference.Expected(False, 0), bound=depth + 1)
    if kind == "shrink-member":
        # u_n = u0 a/(n + a), member at `depth`
        p, q = [a + 1, 1], [a, 1]
        t = u0 * Fraction(a, depth + a)
        doc = _doc(p, q, u0, t, "membership")
        return Item(doc, kind, expect=reference.Expected(True, depth), bound=depth + 1)
    if kind in ("grow-half", "shrink-half"):
        # non-monic 2x + c against 2x + c + 1: |u_n| ~ n^(+-1/2)
        c = 2 * rng.randint(0, 2) + 1
        grows = kind == "grow-half"
        p, q = ([c, 2], [c + 1, 2]) if grows else ([c + 1, 2], [c, 2])
        num, den = (Fraction(c + 1, 2), Fraction(c, 2)) if grows else (Fraction(c, 2), Fraction(c + 1, 2))
        log_u = math.log(u0) + _log_ratio_term(num, den, depth) + (0.25 if grows else -0.25) / depth
        t = Fraction(round(math.exp(log_u) * 2**40), 2**40)
        n = _first_passing(p, q, u0, t, grows, depth)
        doc = _doc(p, q, u0, t, "membership")
        # strictly monotone and t is no term: never a member
        return Item(doc, kind, expect=reference.Expected(False), bound=n)
    if kind == "balanced-threshold":
        # p = (x+a+1)(x+b), q = (x+a)(x+b+1), b > a:
        # u_n = u0 a (n+b) / (b (n+a)) falls to L = u0 a/b, and t = L + delta
        # is first undercut at n = depth + 1
        b = a + rng.randint(1, 4)
        p = [(a + 1) * b, a + 1 + b, 1]
        q = [a * (b + 1), a + b + 1, 1]
        delta = u0 * a * (b - a) / (b * (depth + a + Fraction(1, 2)))
        t = u0 * Fraction(a, b) + delta
        doc = _doc(p, q, u0, t, "threshold")
        return Item(doc, kind, expect=reference.Expected(False, depth + 1))
    raise ValueError(kind)


DEEP_KINDS = ("grow-member", "grow-threshold", "shrink-member", "grow-half", "shrink-half", "balanced-threshold")


def _deep_scan(seed, smoke):
    rng = random.Random(f"deep-scan:{seed}")
    # 30 instances at 10^4 terms and one at 4 * 10^4: the median and the
    # tail (p65 of 31) both fall inside the 16 member instances, which cost
    # alike, not on a boundary between kinds
    middle = ("grow-member", "shrink-member") * 8
    others = ("grow-threshold", "shrink-half") * 4 + ("balanced-threshold", "grow-half") * 3
    strata = ((300, DEEP_KINDS * 2), (500, DEEP_KINDS * 2)) if smoke else (
        (10000, tuple(k for pair in zip_longest(middle, others) for k in pair if k)),
        (40000, ("grow-threshold",)),
    )
    return [
        _deep_item(kind, depth + rng.randint(0, depth // 50), rng)
        for depth, kinds in strata
        for kind in kinds
    ]
