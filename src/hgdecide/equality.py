"""The decision core: `decide`, the one decider of both results, and its
limit oracles.  `limit_oracle` alone picks the equality test on the limit:
the canonical oracle below (unconditional) or, when `conditional`, the
schanuel module's identity oracle.

decide_equal is purely symbolic.  The canonical value is
theta * pi**ell * f(x)/g(x) with x = exp(pi*sqrt(m)/D) transcendental
(Gelfond-Schneider via x**D) and, when ell != 0, (pi, x) algebraically
independent (Nesterenko, carried through the D-th power substitution:
Q(pi, x) contains Q(pi, x**D), so a nontrivial relation would cap the
transcendence degree below 2).  The case split:

  * f = g = 1 (or trivial base), ell = 0: exact identity theta == t;
  * f = g = 1, ell != 0: pi**ell = t/theta would make pi algebraic;
  * f != g: theta*f - t*g is a nonzero polynomial with algebraic
    coefficients, so it cannot vanish at the transcendental x (ell = 0),
    and with ell != 0 a relation would contradict Nesterenko.

Both oracles order the limit with one test, `enclosure.compare`.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from .config import DEFAULT_CONFIG, EngineConfig
from .dyadic import DyadicInterval
from .enclosure import compare
from .errors import DecideError, ScanCapExceeded, UnsupportedInstance
from .gammacanon import CanonicalConstant, canonicalize, limit_as_gamma
from .polys import roots_quadratic
from .schanuel import ConditionalLimitOracle
from .sequence import (
    AsymptoticClass,
    ExactScan,
    HGInstance,
    Problem,
    SearchBound,
    divergence_bound,
    shrink_bound,
)
from .verdicts import Conditionality, EqualityDecision, Rationale, Verdict


def decide_equal(c: CanonicalConstant, t: Fraction) -> EqualityDecision:
    """Symbolic equality test of the canonical value against rational t.

    Deterministic and numerics-free; no interval evaluation happens here.
    """
    t = Fraction(t)
    if t == 0:
        raise DecideError("decide_equal expects a nonzero target")
    trivial_ratio = c.base_trivial or c.f == c.g
    if trivial_ratio:
        if c.ell != 0:
            return EqualityDecision(False, Rationale.PI_POWER_OBSTRUCTION)
        if c.theta_b == 0 and c.theta_a == t:
            return EqualityDecision(True, Rationale.RATIONAL_IDENTITY)
        return EqualityDecision(False, Rationale.RATIONAL_IDENTITY)
    # f and g are coprime and distinct: theta*f(X) - t*g(X) is nonzero,
    # coefficient-wise in Q(sqrt(m)) (both coordinates would have to vanish)
    return EqualityDecision(False, Rationale.TRANSCENDENCE_OBSTRUCTION)


# ---------------------------------------------------------------------------
# Limit oracles
# ---------------------------------------------------------------------------


class CanonicalLimitOracle:
    """Equality/order oracle backed by the canonical constant (unconditional);
    raises UnsupportedInstance outside the rational / single imaginary quadratic class."""

    def __init__(self, inst: HGInstance, config: EngineConfig):
        roots = roots_quadratic(inst.p), roots_quadratic(inst.q)
        self.constant = canonicalize(limit_as_gamma(inst.p, inst.q, *roots)).scale(inst.u0)
        self.config = config

    def decide_equal(self, t: Fraction) -> EqualityDecision:
        return replace(decide_equal(self.constant, t), canonical=self.constant.describe())

    def compare(self, t: Fraction) -> tuple[int, int, DyadicInterval]:
        return compare(self.constant, t, self.config)


def limit_oracle(inst: HGInstance, config: EngineConfig, conditional: bool):
    """The one place a limit oracle is chosen: the canonical oracle where it
    applies, else, when `conditional`, the symbolic-identity oracle of the
    schanuel module.  Raises UnsupportedInstance for a non-monic pair and
    for a limit outside the allowed oracles' class."""
    if not inst.is_monic_pair:
        raise UnsupportedInstance("balanced instances need monic coefficients")
    try:
        return CanonicalLimitOracle(inst, config)
    except UnsupportedInstance:
        if not conditional:
            raise
    return ConditionalLimitOracle(inst, config)


# ---------------------------------------------------------------------------
# Decision pipeline
# ---------------------------------------------------------------------------


def decide(inst: HGInstance, config: EngineConfig = DEFAULT_CONFIG, conditional: bool = True) -> Verdict:
    """Full decision pipeline, the only decider.

    The bounded regimes (zero tails, divergence, shrinkage) are decided for
    arbitrary nonzero coefficients; a zero tail is tested before t = 0, so
    every instance whose terms vanish, t = 0 included, is one prefix scan.
    The balanced branch scans first and builds the limit oracle only for a
    verdict that reads the limit; that build needs monic p and q and the
    gamma-product machinery, so only such verdicts can end as
    unsupported.  `conditional` lets that build fall back to the
    Schanuel-conditional oracle (`limit_oracle`); everything else is
    shared.
    """
    if inst.u0 == 0:
        return _constant_verdict(inst, "zero_sequence", None)
    ztail = inst.first_zero_of_q
    if ztail is not None:
        return _zero_tail_verdict(inst, ztail, config)
    if inst.t == 0:
        return _zero_target_verdict(inst, config)

    cls = inst.asymptotic
    if cls.grows:
        return _bounded_verdict(inst, divergence_bound(inst, config), "divergence_bound")
    if cls.shrinks:
        return _bounded_verdict(inst, shrink_bound(inst, config), "shrink_bound")
    if not cls.is_balanced:
        raise UnsupportedInstance(f"unsupported asymptotic class {cls.variant.value}")
    if inst.p == inst.q:
        return _constant_verdict(inst, "constant_sequence", cls)
    return _balanced_verdict(inst, config, conditional)


# -- easy regimes ------------------------------------------------------------


def _zero_target_verdict(inst: HGInstance, config: EngineConfig) -> Verdict:
    """t = 0 and q has no nonnegative integer root, so no term vanishes:
    membership fails, and threshold is sign analysis."""
    if inst.problem is Problem.MEMBERSHIP:
        return Verdict(
            inst.problem, False, Conditionality.UNCONDITIONAL,
            "terms_never_zero",
        )
    k1 = inst.monotonicity_index
    scan = ExactScan(inst, config.scan_cap)
    n = scan.first_hit(k1 + 1)  # t = 0: the first negative term
    if n is not None:
        return Verdict(
            inst.problem, False, Conditionality.UNCONDITIONAL, "sign_analysis",
            witness=n, scanned_up_to=n,
        )
    # u_{k1-1}, u_{k1} > 0, and every real root of p and q lies below
    # k1 - 1 (Cauchy), so r > 0 from k1 - 1 on: the tail stays positive
    return Verdict(
        inst.problem, True, Conditionality.UNCONDITIONAL, "sign_analysis",
        scanned_up_to=k1, bound=SearchBound(k1, "product_monotone_beyond"),
    )


def _zero_tail_verdict(inst: HGInstance, first_q_root: int, config: EngineConfig) -> Verdict:
    """q(k0) = 0: u_n = 0 for every n > k0, so the prefix through
    u_{k0+1} = 0 holds every answer.  A Membership t = 0 first meets
    u_{k0+1}, and a Threshold t > 0 meets it at the latest; past it the
    zeros equal no other t and fall below no t <= 0."""
    last = first_q_root + 1
    n = ExactScan(inst, config.scan_cap).first_hit(last + 1)
    return Verdict(
        inst.problem, (n is not None) == (inst.problem is Problem.MEMBERSHIP),
        Conditionality.UNCONDITIONAL, "zero_tail",
        witness=n, scanned_up_to=last if n is None else n,
    )


def _bounded_verdict(inst: HGInstance, bound: SearchBound, reason: str) -> Verdict:
    """Verdict from a divergence or shrink bound N whose scan looked for a
    witness at every n <= N (u_N itself is never a member: |u_N| != |t|)."""
    cls = inst.asymptotic
    common = dict(bound=bound, asymptotic=cls, scanned_up_to=bound.n)
    witness = bound.first_hit
    if inst.problem is Problem.MEMBERSHIP:
        return Verdict(
            inst.problem, witness is not None, Conditionality.UNCONDITIONAL, reason,
            witness=witness, **common,
        )
    if witness is None and cls.grows and inst.tail_signs[0] < 0:
        # clean prefix forces u_N > |t| (a negative u_N would already
        # violate); an alternating growing tail puts u_{N+1} below -|t| < t
        witness = bound.n + 1
    if witness is None and cls.shrinks and inst.t > 0:
        # the tail satisfies |u_n| < |t|; with a clean prefix this forces t < 0
        raise DecideError("internal: shrink tail below a positive target escaped the scan")
    return Verdict(
        inst.problem, witness is None, Conditionality.UNCONDITIONAL, reason,
        witness=witness, **common,
    )


def _constant_verdict(inst: HGInstance, reason: str, asymptotic: AsymptoticClass | None) -> Verdict:
    """u_n = u0 for every n: p = q, or u0 = 0 (the zero sequence)."""
    membership = inst.problem is Problem.MEMBERSHIP
    ok = inst.u0 == inst.t if membership else inst.u0 >= inst.t
    return Verdict(
        inst.problem, ok, Conditionality.UNCONDITIONAL, reason,
        witness=0 if ok == membership else None, asymptotic=asymptotic,
    )


# -- balanced branch ---------------------------------------------------------


def _balanced_verdict(inst: HGInstance, config: EngineConfig, conditional: bool) -> Verdict:
    """Balanced pair: u_n tends to the limit L = u0 * prod q(k)/p(k).

    Past the certified index k0 = inst.monotonicity_index the tail is
    strictly monotone towards L, so the prefix u_0 .. u_{k0+1} is scanned
    first (per index only below the scan's skip index, in blocks from
    there).  These verdicts do not depend on L and build no oracle: a
    prefix witness or violation, and every tail that scan.tail_misses()
    shows to miss t from u_{k0+2} on.  The bound replay accepts their
    bounds with that same test, without an order claim.  The tail's
    direction, scan.tail_direction(), names the reason: an increasing
    Threshold tail (its minimum u_{k0+1} lies in the prefix), a decreasing
    positive Threshold tail over a negative t, and a Membership tail that
    never has t's sign or that u_{k0+2} has already carried past t,
    moving away from it.  Only a tail that moves towards t, and a
    decreasing Threshold tail that can reach t, build the limit oracle
    (`limit_oracle`, once) for the equality and order tests, which need
    the limit's closed form; every verdict after that carries the
    oracle's certificate fields.  The Membership crossing then searches
    with scan.first_past, which stops where the tail has passed t.

    Crossing past the cap.  Where the order test puts L on the side of t
    the tail moves towards (side == direction), the tail still has to
    cross t: a Threshold tail's first violation, a Membership tail's
    crossing.  Before that scan, with C = config.scan_cap and the
    enclosure enc of L from the rung that separated L from t: if enc lies
    wholly on side -direction of t * r(C), r(k) = q(k)/p(k), the crossing
    lies past C and ScanCapExceeded is raised with no scan.  The scan is
    at k0 + 2 <= C here (the prefix scan got there below the cap).  Past
    k0, r(k) > 0 and every r(j) lies strictly on one side of 1, the side
    the tail's magnitude moves to, so L/u_C = prod_{j >= C} r(j) lies
    strictly beyond r(C) as seen from 1, and u_C strictly beyond
    L/r(C) as seen from L, on side -direction.  L/r(C) lies on side
    -direction of t (r(C) > 0), so u_C has not reached t, and by
    monotonicity no u_n with k0 + 2 <= n <= C has: none is a witness and
    none has passed t.  The prefix below k0 + 2 is already scanned, so the
    scan would end exactly where this does, at the cap.  The test reaches
    only ties with |L/t - 1| below about |r(C) - 1|, which falls like
    1/C^2: a crossing between C and about C^2 is still left to the scan.
    """
    cls = inst.asymptotic
    k0 = inst.monotonicity_index
    scan = ExactScan(inst, config.scan_cap)
    n = scan.first_hit(k0 + 2)
    membership = inst.problem is Problem.MEMBERSHIP
    if n is not None:
        if membership:
            return Verdict(
                inst.problem, True, Conditionality.UNCONDITIONAL, "prefix_witness",
                witness=n, asymptotic=cls, scanned_up_to=n,
            )
        return Verdict(
            inst.problem, False, Conditionality.UNCONDITIONAL, "prefix_violation",
            witness=n, asymptotic=cls, scanned_up_to=n,
        )
    direction = scan.tail_direction()
    if direction == 0:
        raise DecideError("internal: degenerate tail in balanced branch")
    if scan.tail_misses():
        if membership:
            reason, at = "monotone_tail_excludes_target", k0 + 2
        elif direction > 0:
            reason, at = "increasing_tail", k0 + 1
        else:  # a positive tail stays above its limit L >= 0 > t
            reason, at = "decreasing_tail_above_target", k0 + 2
        return Verdict(
            inst.problem, not membership, Conditionality.UNCONDITIONAL, reason,
            asymptotic=cls, scanned_up_to=k0 + 1,
            bound=SearchBound(at, "product_monotone_beyond"),
        )

    oracle = limit_oracle(inst, config, conditional)
    eq = oracle.decide_equal(inst.t)
    fields = dict(asymptotic=cls, equality_rationale=eq.rationale, canonical=eq.canonical,
                  matching=eq.matching, identity=eq.identity)
    conjectural = eq.rationale is Rationale.IDENTITY_NONZERO
    cond = Conditionality.CONDITIONAL_ON_SCHANUEL if conjectural else Conditionality.UNCONDITIONAL
    if eq.equal:
        if membership:  # a strictly monotone tail never attains its limit
            return Verdict(
                inst.problem, False, cond, "limit_equals_target_not_attained",
                scanned_up_to=k0 + 1, **fields,
            )
        # threshold, decreasing tail with infimum L = t
        return Verdict(
            inst.problem, True, Conditionality.UNCONDITIONAL,
            "decreasing_tail_limit_equals_target", scanned_up_to=k0 + 1, **fields,
        )
    side, bits, enc = oracle.compare(inst.t)
    fields.update(compare_relation="less" if side < 0 else "greater", compare_precision_bits=bits)
    cap = config.scan_cap
    if side == direction and enc.compare_fraction(inst.t * Fraction(inst.q(cap), inst.p(cap))) == -direction:
        raise ScanCapExceeded(
            f"scan index {cap + 1} exceeds cap {cap}: the limit puts the crossing of t past the cap"
        )
    if membership:
        if side == direction:
            # the monotone tail, of t's sign, is on the far side of t from
            # the limit: a tail witness is possible until the tail passes
            # t, where direction * (u_n - t) > 0, i.e. |u_n| - |t| has the
            # sign of direction * u_n, the second of inst.tail_signs
            n = scan.first_past()
        if n is not None:
            return Verdict(
                inst.problem, True, Conditionality.UNCONDITIONAL, "prefix_witness",
                witness=n, scanned_up_to=n, **fields,
            )
        return Verdict(
            inst.problem, False, cond, "monotone_tail_excludes_target",
            scanned_up_to=scan.n - 1, bound=SearchBound(scan.n, "product_monotone_beyond"), **fields,
        )

    # threshold, decreasing tail with infimum L != t: holds iff L > t
    if side > 0:
        return Verdict(
            inst.problem, True, cond, "decreasing_tail_above_target",
            scanned_up_to=k0 + 1, **fields,
        )
    n = scan.first_hit()
    return Verdict(
        inst.problem, False, cond, "decreasing_tail_below_target",
        witness=n, scanned_up_to=n, **fields,
    )
