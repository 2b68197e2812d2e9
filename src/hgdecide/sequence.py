"""Hypergeometric sequence evaluation, classification, and search bounds.

The sequence satisfies p(n) * u_{n+1} = q(n) * u_n, so
u_n = u0 * prod_{k=0}^{n-1} q(k)/p(k).  ExactScan walks the sequence
lazily: each step updates only the sign, a float log|u_n| and a counted
bound on that float's error (derived in the class docstring).  An order
or equality test against a target is settled by the floats when the logs
differ by more than the bound; otherwise the exact unreduced
numerator/denominator pair is brought up to n by one balanced product
tree of the pending q(k) and p(k) and the test is an exact
cross-multiplied integer comparison.  The scan owns the scan cap and the
witness test (u_n = t for Membership, u_n < t for Threshold): hit() and
first_hit() are the prefix search of every decision and replay.
divergence_bound and shrink_bound find the search bound N and the least
witness in the same single scan.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .config import DEFAULT_CONFIG, EngineConfig
from .errors import DecideError, ScanCapExceeded
from .polys import IntPoly, integer_roots


class Problem(enum.Enum):
    MEMBERSHIP = "membership"
    THRESHOLD = "threshold"


def nonneg_integer_roots(f: IntPoly) -> list[int]:
    """Sorted nonnegative integer roots of f (f nonzero)."""
    return [r for r in integer_roots(f) if r >= 0]


@dataclass(frozen=True)
class HGInstance:
    p: IntPoly
    q: IntPoly
    u0: Fraction
    t: Fraction
    problem: Problem

    def __post_init__(self):
        object.__setattr__(self, "u0", Fraction(self.u0))
        object.__setattr__(self, "t", Fraction(self.t))
        if self.p.is_zero or self.q.is_zero:
            raise DecideError("p and q must be nonzero")
        self.p.check_caps()
        self.q.check_caps()
        bad = nonneg_integer_roots(self.p)
        if bad:
            raise DecideError(f"p vanishes at nonnegative integer {bad[0]}")

    @property
    def is_monic_pair(self) -> bool:
        return self.p.is_monic and self.q.is_monic

    def ratio(self, k: int) -> Fraction:
        return Fraction(self.q(k), self.p(k))


class Variant(enum.Enum):
    DIVERGES_TO_INFINITY = "diverges_to_infinity"
    CONVERGES_TO_ZERO_RATIO = "converges_to_zero_ratio"
    CONVERGES_TO = "converges_to"
    RATIO_LIMIT_ONE = "ratio_limit_one"
    RATIO_LIMIT_MINUS_ONE = "ratio_limit_minus_one"


@dataclass(frozen=True)
class AsymptoticClass:
    """Limit behavior of the shift quotient r(k) = q(k)/p(k).

    Determined solely by degrees and the top two coefficients.  For
    RATIO_LIMIT_ONE, `exponent` is the partial-product growth exponent
    A = (sum of roots of p) - (sum of roots of q), read off the subleading
    coefficients by Vieta; the partial products behave like n**A, so A = 0
    is exactly the balanced (convergent-product) case.
    """

    variant: Variant
    ratio_limit: Fraction | None = None
    exponent: Fraction | None = None

    @property
    def is_balanced(self) -> bool:
        return self.variant is Variant.RATIO_LIMIT_ONE and self.exponent == 0

    @property
    def grows(self) -> bool:
        if self.variant is Variant.DIVERGES_TO_INFINITY:
            return True
        if self.variant is Variant.CONVERGES_TO and abs(self.ratio_limit) > 1:
            return True
        return self.variant is Variant.RATIO_LIMIT_ONE and self.exponent > 0

    @property
    def shrinks(self) -> bool:
        if self.variant is Variant.CONVERGES_TO_ZERO_RATIO:
            return True
        if self.variant is Variant.CONVERGES_TO and abs(self.ratio_limit) < 1:
            return True
        return self.variant is Variant.RATIO_LIMIT_ONE and self.exponent < 0


def classify(p: IntPoly, q: IntPoly) -> AsymptoticClass:
    if p.is_zero or q.is_zero:
        raise DecideError("classify expects nonzero polynomials")
    dp, dq = p.degree, q.degree
    if dq > dp:
        return AsymptoticClass(Variant.DIVERGES_TO_INFINITY)
    if dq < dp:
        return AsymptoticClass(Variant.CONVERGES_TO_ZERO_RATIO)
    c = Fraction(q.lead, p.lead)
    if c == 1:
        if dp == 0:
            return AsymptoticClass(Variant.RATIO_LIMIT_ONE, exponent=Fraction(0))
        a = Fraction(q.coeffs[dp - 1] - p.coeffs[dp - 1], p.lead)
        return AsymptoticClass(Variant.RATIO_LIMIT_ONE, exponent=a)
    if c == -1:
        return AsymptoticClass(Variant.RATIO_LIMIT_MINUS_ONE)
    return AsymptoticClass(Variant.CONVERGES_TO, ratio_limit=c)


# ---------------------------------------------------------------------------
# Exact scanning
# ---------------------------------------------------------------------------

# unit roundoff of IEEE-754 double arithmetic
_U = 2.0**-53
# the float filter is trusted only this many steps past the exact anchor;
# _SAFETY then covers the roundings of err's own running sum
_MAX_PENDING = 2**30
_SAFETY = 1.0 + 2.0**-20
# product-tree ranges this short are multiplied left to right
_LEAF = 16


def _log_ratio(a: int, b: int) -> tuple[float, float]:
    """(d, e): d = math.log|a| - math.log|b| for nonzero ints, and a bound e
    on |d - log|a/b||.  See ExactScan for the derivation."""
    la = math.log(abs(a))
    lb = math.log(abs(b))
    d = la - lb
    return d, (12.0 + 6.0 * (la + lb) + abs(d)) * _U


def _factor_products(inst: HGInstance, lo: int, hi: int) -> tuple[int, int]:
    """(prod q(k), prod p(k)) over lo <= k < hi by a balanced product tree."""
    if hi - lo <= _LEAF:
        qs = ps = 1
        for k in range(lo, hi):
            qs *= inst.q(k)
            ps *= inst.p(k)
        return qs, ps
    mid = (lo + hi) // 2
    q1, p1 = _factor_products(inst, lo, mid)
    q2, p2 = _factor_products(inst, mid, hi)
    return q1 * q2, p1 * p2


class ExactScan:
    """Forward scan of u_n: float log-magnitude per step, exact on demand.

    step() does no big-integer work.  It tracks the sign of u_n, the float
    `logabs` ~ log|u_n| and a bound `err` >= |logabs - log|u_n||.  The exact
    pair (num, den), unreduced, is kept only at the last anchor index and
    is brought up to n by one balanced product tree of q(k) and p(k) when
    a comparison falls inside the error bound, or when a caller asks for
    fraction(), num or den; logabs and err are then re-anchored on it.
    `steps` counts the indices the scan has moved past, by step() or jump().
    The scan never goes past index `cap`: step() raises ScanCapExceeded on
    moving to cap + 1, and jump(n) raises before any work when n > cap.

    Error bound.  Assume math.log is within 1 ulp (2u relative, u = 2^-53)
    on doubles.  For a positive int x, math.log(x) = y obeys
    |y - log x| <= 6u(1 + |y|):
      * x < 2^1024: float(x) is correctly rounded (relative u, so log
        moves by <= 1.01u), then log adds 2u|y|;
      * x >= 2^1024: y = log(m) + log(2)*e with m the correctly rounded
        frexp mantissa in [1/2, 1]: 1.01u for m, 1.4u for log(m), 3.01u*e*log 2
        for the rounded log(2) times e, u|y| for the sum; with
        e*log 2 <= |y| + 0.71 this is below 4.6u + 4.01u|y|.
    So d = log|a| - log|b| (a, b nonzero ints, la, lb >= 0 their logs) is
    off by at most (12 + 6(la + lb) + |d|)u, the last term for the
    rounding of the subtraction (`_log_ratio`).  Each step adds that for
    a = q(k), b = p(k), plus u|logabs| for the rounding of the running sum.
    err itself is a float sum of nonnegative terms, each a few roundings,
    so with fewer than 2^30 steps since the anchor the true bound is below
    err * (1 + 2^-21); _SAFETY = 1 + 2^-20 also absorbs the roundings of
    the final comparison.  A comparison with a target t is settled by
    floats only when |logabs - log|t|| > (err + err_t) * _SAFETY, err_t
    the same bound for log|t|; otherwise it is exact.
    """

    __slots__ = (
        "inst", "cap", "n", "logabs", "err", "steps", "materialized", "zero_since",
        "_sign", "_num", "_den", "_at", "_t", "_tlog", "_terr",
    )

    def __init__(self, inst: HGInstance, cap: int = DEFAULT_CONFIG.scan_cap):
        self.inst = inst
        self.cap = cap
        self.n = 0
        self.steps = 0
        self.materialized = 0
        self._num = inst.u0.numerator
        self._den = inst.u0.denominator
        self._at = 0
        self._sign = (self._num > 0) - (self._num < 0)
        self.zero_since: int | None = 0 if self._num == 0 else None
        self.logabs, self.err = _log_ratio(self._num, self._den) if self._num else (0.0, 0.0)
        self._t = None

    def step(self):
        k = self.n
        self.n = k + 1
        self.steps += 1
        if k >= self.cap:
            raise ScanCapExceeded(f"scan index {k + 1} exceeds cap {self.cap}")
        if self.zero_since is not None:
            return
        # p has no nonnegative integer roots (validated); q may hit zero
        qk = self.inst.q(k)
        if qk == 0:
            self.zero_since = k + 1
            return
        pk = self.inst.p(k)
        if (qk < 0) != (pk < 0):
            self._sign = -self._sign
        d, e = _log_ratio(qk, pk)
        self.logabs += d
        self.err += e + abs(self.logabs) * _U

    def jump(self, n: int):
        """Go straight to index n >= self.n with one product tree."""
        if n > self.cap:
            raise ScanCapExceeded(f"scan index {n} exceeds cap {self.cap}")
        if n < self.n:
            raise DecideError("ExactScan.jump cannot go back")
        if n == self.n:
            return
        self.steps += n - self.n
        self.n = n
        self._materialize()

    def _witness_test(self):
        """(comparison, result): u_n is a witness exactly when
        comparison(t) == result, i.e. u_n = t for Membership and u_n < t
        for Threshold."""
        if self.inst.problem is Problem.MEMBERSHIP:
            return self.equals, True
        return self.cmp, -1

    def hit(self) -> bool:
        """Whether u_n is a witness for inst.problem and inst.t."""
        comparison, result = self._witness_test()
        return comparison(self.inst.t) == result

    def first_hit(self, stop: int | None = None) -> int | None:
        """Least n in [self.n, stop) with a witness u_n, the scan left there;
        None with the scan at stop if there is none.  Without stop the
        search ends only at a witness or at the cap (ScanCapExceeded)."""
        comparison, result = self._witness_test()
        t = self.inst.t
        step = self.step
        end = self.cap + 1 if stop is None else stop
        while self.n < end:
            if comparison(t) == result:
                return self.n
            step()
        return None

    def _materialize(self):
        """Bring the exact pair from the anchor up to n and re-anchor there."""
        lo, hi = self._at, self.n
        if lo == hi:
            return
        self._at = hi
        self.materialized += 1
        if self.zero_since is not None:
            self._num, self._den = 0, 1
            return
        qs, ps = _factor_products(self.inst, lo, hi)
        if qs == 0:
            self.zero_since = 1 + next(k for k in range(lo, hi) if self.inst.q(k) == 0)
            self._num, self._den, self._sign = 0, 1, 0
            return
        self._num *= qs
        self._den *= ps
        self._sign = 1 if (self._num > 0) == (self._den > 0) else -1
        self.logabs, self.err = _log_ratio(self._num, self._den)

    @property
    def num(self) -> int:
        self._materialize()
        return self._num

    @property
    def den(self) -> int:
        self._materialize()
        return self._den

    def fraction(self) -> Fraction:
        self._materialize()
        return Fraction(self._num, self._den)

    def is_zero(self) -> bool:
        return self.zero_since is not None

    def sign(self) -> int:
        return 0 if self.zero_since is not None else self._sign

    def _far(self, t: Fraction) -> bool:
        """Whether the floats alone settle |u_n| against |t| (both nonzero)."""
        if t is not self._t:
            self._t = t
            self._tlog, self._terr = _log_ratio(t.numerator, t.denominator)
        return (
            self.n - self._at < _MAX_PENDING
            and abs(self.logabs - self._tlog) > (self.err + self._terr) * _SAFETY
        )

    def equals(self, t: Fraction) -> bool:
        if self.zero_since is not None:
            return t.numerator == 0
        if t.numerator == 0 or (self._sign > 0) != (t.numerator > 0):
            return False
        if self._far(t):
            return False
        self._materialize()
        return self._num * t.denominator == t.numerator * self._den

    def cmp(self, t: Fraction) -> int:
        """sign(u_n - t), exact."""
        if self.zero_since is not None:
            return (t.numerator < 0) - (t.numerator > 0)
        s = self._sign
        if t.numerator == 0 or (t.numerator > 0) != (s > 0):
            return s
        if self._far(t):
            return s if self.logabs > self._tlog else -s
        self._materialize()
        diff = self._num * t.denominator - t.numerator * self._den
        return ((diff > 0) - (diff < 0)) * (1 if self._den > 0 else -1)

    def abs_cmp(self, t: Fraction) -> int:
        """sign(|u_n| - |t|), exact."""
        if self.zero_since is not None:
            return -1 if t.numerator else 0
        if t.numerator == 0:
            return 1
        if self._far(t):
            return 1 if self.logabs > self._tlog else -1
        self._materialize()
        diff = abs(self._num) * t.denominator - abs(t.numerator) * abs(self._den)
        return (diff > 0) - (diff < 0)


def term(inst: HGInstance, n: int, config: EngineConfig = DEFAULT_CONFIG) -> Fraction:
    """Exact n-th term; term(inst, 0) == u0."""
    if n < 0:
        raise DecideError("negative index")
    scan = ExactScan(inst, config.scan_cap)
    scan.jump(n)
    return scan.fraction()


def terms(inst: HGInstance, count: int, config: EngineConfig = DEFAULT_CONFIG):
    """First `count` terms as exact Fractions."""
    if count > config.scan_cap:
        raise ScanCapExceeded(f"{count} terms exceed cap {config.scan_cap}")
    scan = ExactScan(inst, config.scan_cap)
    for _ in range(count):
        yield scan.fraction()
        scan.step()


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchBound:
    """Index N with a re-checkable guarantee for all n >= N.

    `first_hit` is the least n <= N with u_n = t (Membership) or u_n < t
    (Threshold), found by the bound search on the same scan, or None.  It
    is not part of the guarantee and is ignored by equality.
    """

    n: int
    justification: str  # ratio_exceeds_target | tail_below_target | product_monotone_beyond
    first_hit: int | None = field(default=None, compare=False)


def monotonicity_index(p: IntPoly, q: IntPoly) -> int:
    """Index beyond which r(k) > 0 has constant sign and r(k) - 1 does too.

    Uses the Cauchy root bound of p, q, q-p and q+p: past every real root
    of those, none of them changes sign.  Not minimal; soundness only.
    """
    cands = [p, q, q - p, q + p]
    bound = Fraction(0)
    for f in cands:
        if not f.is_zero and f.degree >= 1:
            bound = max(bound, f.cauchy_bound())
    return 1 + math.ceil(bound)


def divergence_bound(
    inst: HGInstance,
    cls: AsymptoticClass | None = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> SearchBound:
    """N with |u_n| > |t| and |r(n)| > 1 for all n >= N (growing classes)."""
    cls = cls or classify(inst.p, inst.q)
    if not cls.grows:
        raise DecideError("divergence_bound needs a growing class")
    if inst.t == 0:
        raise DecideError("target must be nonzero")
    if inst.u0 == 0:
        raise DecideError("zero initial value never grows")
    k1 = monotonicity_index(inst.p, inst.q)
    qq_pp = inst.q * inst.q - inst.p * inst.p
    if qq_pp(k1) <= 0:
        raise DecideError("internal: |r| not above 1 past the root bound")
    return _bound_scan(
        inst, k1, lambda s: s.abs_cmp(inst.t) > 0, "ratio_exceeds_target", config
    )


def shrink_bound(
    inst: HGInstance,
    cls: AsymptoticClass | None = None,
    config: EngineConfig = DEFAULT_CONFIG,
) -> SearchBound:
    """N with |u_n| < |t| and |r(n)| < 1 for all n >= N (shrinking classes)."""
    cls = cls or classify(inst.p, inst.q)
    if not cls.shrinks:
        raise DecideError("shrink_bound needs a shrinking class")
    if inst.t == 0:
        raise DecideError("target must be nonzero")
    k1 = monotonicity_index(inst.p, inst.q)
    qq_pp = inst.q * inst.q - inst.p * inst.p
    if qq_pp(k1) >= 0:
        raise DecideError("internal: |r| not below 1 past the root bound")
    return _bound_scan(
        inst, k1, lambda s: s.is_zero() or s.abs_cmp(inst.t) < 0, "tail_below_target", config
    )


def _bound_scan(inst, k1, past, justification, config) -> SearchBound:
    """First N >= k1 with past(scan), and the least witness n <= N on the way."""
    scan = ExactScan(inst, config.scan_cap)
    hit = None
    while True:
        if hit is None and scan.hit():
            hit = scan.n
        if scan.n >= k1 and past(scan):
            return SearchBound(scan.n, justification, first_hit=hit)
        scan.step()


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


class BruteKind(enum.Enum):
    FOUND_MEMBERSHIP = "found_membership"
    NONE_UP_TO = "none_up_to"
    THRESHOLD_VIOLATION = "threshold_violation"
    THRESHOLD_HOLDS_UP_TO = "threshold_holds_up_to"


@dataclass(frozen=True)
class BruteResult:
    kind: BruteKind
    index: int | None = None
    up_to: int | None = None


def brute_force(
    inst: HGInstance,
    up_to: int,
    config: EngineConfig = DEFAULT_CONFIG,
) -> BruteResult:
    """Exhaustive exact scan of u_0 .. u_{up_to - 1}.

    The reference the deciders are checked against (the test suite,
    scripts/run_corpus.py and `hgdecide oracle`); no decider calls it.
    Membership reports the least witness.
    """
    if up_to > config.scan_cap:
        raise ScanCapExceeded(f"{up_to} exceeds scan cap {config.scan_cap}")
    scan = ExactScan(inst, config.scan_cap)
    membership = inst.problem is Problem.MEMBERSHIP
    for n in range(up_to):
        if membership:
            if scan.equals(inst.t):
                return BruteResult(BruteKind.FOUND_MEMBERSHIP, index=n)
        else:
            if scan.cmp(inst.t) < 0:
                return BruteResult(BruteKind.THRESHOLD_VIOLATION, index=n)
        scan.step()
    kind = BruteKind.NONE_UP_TO if membership else BruteKind.THRESHOLD_HOLDS_UP_TO
    return BruteResult(kind, up_to=up_to)
