"""The decision core: `decide`, the one decider of both results, and its
limit oracles.  `limit_oracle` alone picks the equality test on the limit:
the canonical oracle below (unconditional) or, when `conditional`, the
schanuel module's identity oracle.  The limit is u0 times a closed form of
p and q alone, so each pair's oracle is built once, at u0 = 1, for both
`decide` and the certificate replay, and handed out scaled by u0.

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

from fractions import Fraction
from functools import lru_cache

from .config import DEFAULT_CONFIG, EngineConfig
from .dyadic import DyadicInterval
from .enclosure import compare
from .errors import DecideError, ScanCapExceeded, UnsupportedInstance
from .gammacanon import CanonicalConstant, canonicalize, limit_as_gamma
from .polys import IntPoly, roots_quadratic
from .schanuel import ConditionalLimitOracle
from .sequence import (
    ExactScan,
    HGInstance,
    Problem,
    divergence_bound,
    shrink_bound,
)
from .verdicts import EqualityDecision, Rationale, Reason, Verdict


def decide_equal(c: CanonicalConstant, t: Fraction) -> EqualityDecision:
    """Symbolic equality test of the canonical value against rational t,
    with the canonical record it rests on.

    Deterministic and numerics-free; no interval evaluation happens here.
    """
    t = Fraction(t)
    if t == 0:
        raise DecideError("decide_equal expects a nonzero target")
    canonical = c.describe()
    trivial_ratio = c.base_trivial or c.f == c.g
    if trivial_ratio:
        if c.ell != 0:
            return EqualityDecision(False, Rationale.PI_POWER_OBSTRUCTION, canonical)
        equal = c.theta_b == 0 and c.theta_a == t
        return EqualityDecision(equal, Rationale.RATIONAL_IDENTITY, canonical)
    # f and g are coprime and distinct: theta*f(X) - t*g(X) is nonzero,
    # coefficient-wise in Q(sqrt(m)) (both coordinates would have to vanish)
    return EqualityDecision(False, Rationale.TRANSCENDENCE_OBSTRUCTION, canonical)


# ---------------------------------------------------------------------------
# Limit oracles
# ---------------------------------------------------------------------------


class CanonicalLimitOracle:
    """Equality/order oracle backed by the canonical constant (unconditional)."""

    def __init__(self, constant: CanonicalConstant, config: EngineConfig):
        self.constant = constant
        self.config = config

    def scale(self, u0: Fraction, config: EngineConfig) -> CanonicalLimitOracle:
        """The oracle of u0 times this limit, under `config`; DecideError at u0 = 0."""
        return CanonicalLimitOracle(self.constant.scale(u0), config)

    def decide_equal(self, t: Fraction) -> EqualityDecision:
        return decide_equal(self.constant, t)

    def compare(self, t: Fraction) -> tuple[int, int, DyadicInterval]:
        return compare(self.constant, t, self.config)


@lru_cache(maxsize=256)
def _pair_oracle(p: IntPoly, q: IntPoly, conditional: bool) -> CanonicalLimitOracle | ConditionalLimitOracle | str:
    """The pair's canonical oracle, or with `conditional` its conditional
    one, at u0 = 1.  A refusal is returned as its message, so that it is
    cached too."""
    try:
        if conditional:
            return ConditionalLimitOracle(p, q)
        constant = canonicalize(limit_as_gamma(p, q, roots_quadratic(p), roots_quadratic(q)))
        return CanonicalLimitOracle(constant, DEFAULT_CONFIG)
    except UnsupportedInstance as e:
        return str(e)


def limit_oracle(inst: HGInstance, config: EngineConfig, conditional: bool):
    """The one place a limit oracle is chosen: the canonical oracle where it
    applies, else, when `conditional`, the symbolic-identity oracle of the
    schanuel module.  Each is built once per pair (`_pair_oracle`) and
    handed out scaled by u0.  Raises UnsupportedInstance for a non-monic
    pair and for a limit outside the allowed oracles' class, DecideError
    at u0 = 0."""
    if not inst.recurrence.is_monic_pair:
        raise UnsupportedInstance("balanced instances need monic coefficients")
    oracle = _pair_oracle(inst.p, inst.q, False)
    if isinstance(oracle, str) and conditional:
        oracle = _pair_oracle(inst.p, inst.q, True)
    if isinstance(oracle, str):
        raise UnsupportedInstance(oracle)
    return oracle.scale(inst.u0, config)


# ---------------------------------------------------------------------------
# Decision pipeline
# ---------------------------------------------------------------------------


def instance_case(inst: HGInstance) -> Reason | None:
    """The reason the instance alone gives, tested in `decide`'s order:
    u0 = 0, a nonnegative integer root of q, t = 0, p = q; None for every
    other instance.  The certificate replay recomputes it."""
    if inst.u0 == 0:
        return Reason.ZERO_SEQUENCE
    if inst.recurrence.first_zero_of_q is not None:
        return Reason.ZERO_TAIL
    if inst.t == 0:
        return Reason.TERMS_NEVER_ZERO if inst.problem is Problem.MEMBERSHIP else Reason.SIGN_ANALYSIS
    return Reason.CONSTANT_SEQUENCE if inst.p == inst.q else None


def case_prefix_end(inst: HGInstance) -> int | None:
    """The end of the prefix u_0 .. u_{end-1} that holds the answer of a
    zero tail or a Threshold t = 0, None for every other case: `decide`
    scans to it, and the replay scans a witness-less verdict to it.  With
    rec = inst.recurrence, a zero tail, q(k0) = 0 (k0 =
    rec.first_zero_of_q), ends at k0 + 2: a Membership t = 0 first meets
    u_{k0+1} = 0, a Threshold t > 0 meets it at the latest, and the zeros
    past it equal no other t and fall below no t <= 0.  A t = 0 ends at
    k1 + 1 (k1 = rec.monotonicity_index): every real root of p and q lies
    below k1 - 1 (Cauchy), so with u_{k1-1}, u_{k1} > 0 the tail stays
    positive."""
    case = instance_case(inst)
    if case is Reason.ZERO_TAIL:
        return inst.recurrence.first_zero_of_q + 2
    return inst.recurrence.monotonicity_index + 1 if case is Reason.SIGN_ANALYSIS else None


def constant_result(inst: HGInstance) -> bool:
    """The result when u_n = u0 for every n: u0 = t for Membership,
    u0 >= t for Threshold.  The certificate replay recomputes it."""
    return inst.u0 == inst.t if inst.problem is Problem.MEMBERSHIP else inst.u0 >= inst.t


def decide(inst: HGInstance, config: EngineConfig = DEFAULT_CONFIG, conditional: bool = True) -> Verdict:
    """Full decision pipeline, the only decider.

    The instance's case (`instance_case`) is decided first.  The bounded
    regimes (zero tails, divergence, shrinkage) are decided for arbitrary
    nonzero coefficients; a zero tail is tested before t = 0, so every
    instance whose terms vanish, t = 0 included, is one prefix scan.  p = q
    is a balanced pair, so testing it before the class changes nothing.
    The balanced branch scans first and builds the limit oracle only for a
    verdict that reads the limit; that build needs monic p and q and the
    gamma-product machinery, so only such verdicts can end as
    unsupported.  `conditional` lets that build fall back to the
    Schanuel-conditional oracle (`limit_oracle`); everything else is
    shared.
    """
    case = instance_case(inst)
    if case is Reason.ZERO_SEQUENCE or case is Reason.CONSTANT_SEQUENCE:  # u_n = u0 for every n
        ok = constant_result(inst)
        witness = 0 if ok == (inst.problem is Problem.MEMBERSHIP) else None
        return Verdict(inst.problem, ok, case, witness=witness)
    if case is Reason.TERMS_NEVER_ZERO:  # t = 0 and no term vanishes
        return Verdict(inst.problem, False, case)
    if case is not None:  # a zero tail or a Threshold t = 0: the prefix holds the answer
        end = case_prefix_end(inst)
        n = ExactScan(inst, config.scan_cap).first_hit(end)
        bound = end - 1 if case is Reason.SIGN_ANALYSIS and n is None else None
        return Verdict(
            inst.problem, (n is not None) == (inst.problem is Problem.MEMBERSHIP), case,
            witness=n, bound=bound, scanned_up_to=end - 1 if n is None else n,
        )

    cls = inst.recurrence.asymptotic
    if cls.is_balanced:
        return _balanced_verdict(inst, config, conditional)
    if not cls.is_bounded:
        raise UnsupportedInstance(f"unsupported asymptotic class {cls.variant.value}")
    if inst.recurrence.tail_signs[1] > 0:
        return _bounded_verdict(inst, Reason.DIVERGENCE_BOUND, *divergence_bound(inst, config))
    return _bounded_verdict(inst, Reason.SHRINK_BOUND, *shrink_bound(inst, config))


# -- easy regimes ------------------------------------------------------------


def _bounded_verdict(inst: HGInstance, reason: Reason, bound: int, witness: int | None) -> Verdict:
    """Verdict from a divergence or shrink bound N and the least witness
    n <= N its scan found (u_N itself is never a member: |u_N| != |t|)."""
    grows = reason is Reason.DIVERGENCE_BOUND
    membership = inst.problem is Problem.MEMBERSHIP
    if not membership and witness is None and grows and inst.recurrence.tail_signs[0] < 0:
        # clean prefix forces u_N > |t| (a negative u_N would already
        # violate); an alternating growing tail puts u_{N+1} below -|t| < t
        witness = bound + 1
    if not membership and witness is None and not grows and inst.t > 0:
        # the tail satisfies |u_n| < |t|; with a clean prefix this forces t < 0
        raise DecideError("internal: shrink tail below a positive target escaped the scan")
    return Verdict(
        inst.problem, (witness is not None) == membership, reason,
        witness=witness, bound=bound, scanned_up_to=bound,
    )


# -- balanced branch ---------------------------------------------------------


def _balanced_verdict(inst: HGInstance, config: EngineConfig, conditional: bool) -> Verdict:
    """Balanced pair: u_n tends to the limit L = u0 * prod q(k)/p(k).

    Past the certified index k0 = inst.recurrence.monotonicity_index the
    tail is strictly monotone towards L, so the prefix u_0 .. u_{k0+1} is
    scanned first (per index only below the scan's skip index, in blocks
    from there).  These verdicts do not depend on L and build no oracle: a
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
    k0 = inst.recurrence.monotonicity_index
    scan = ExactScan(inst, config.scan_cap)
    n = scan.first_hit(k0 + 2)
    membership = inst.problem is Problem.MEMBERSHIP
    if n is not None:
        reason = Reason.PREFIX_WITNESS if membership else Reason.PREFIX_VIOLATION
        return Verdict(inst.problem, membership, reason, witness=n, scanned_up_to=n)
    direction = scan.tail_direction()
    if direction == 0:
        raise DecideError("internal: degenerate tail in balanced branch")
    if scan.tail_misses():
        if membership:
            reason, at = Reason.MONOTONE_TAIL_EXCLUDES_TARGET, k0 + 2
        elif direction > 0:
            reason, at = Reason.INCREASING_TAIL, k0 + 1
        else:  # a positive tail stays above its limit L >= 0 > t
            reason, at = Reason.DECREASING_TAIL_ABOVE_TARGET, k0 + 2
        return Verdict(inst.problem, not membership, reason, scanned_up_to=k0 + 1, bound=at)

    oracle = limit_oracle(inst, config, conditional)
    eq = oracle.decide_equal(inst.t)
    if eq.equal:
        # a strictly monotone tail never attains its limit; a decreasing
        # Threshold tail has the infimum L = t
        reason = (Reason.LIMIT_EQUALS_TARGET_NOT_ATTAINED if membership
                  else Reason.DECREASING_TAIL_LIMIT_EQUALS_TARGET)
        return Verdict(inst.problem, not membership, reason, scanned_up_to=k0 + 1, equality=eq)
    side, bits, enc = oracle.compare(inst.t)
    relation = "less" if side < 0 else "greater"
    fields = dict(equality=eq, compare={"relation": relation, "precision_bits": bits})
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
            # sign of direction * u_n, the second of the tail signs
            n = scan.first_past()
        if n is not None:
            return Verdict(
                inst.problem, True, Reason.PREFIX_WITNESS, witness=n, scanned_up_to=n, **fields,
            )
        return Verdict(
            inst.problem, False, Reason.MONOTONE_TAIL_EXCLUDES_TARGET,
            scanned_up_to=scan.n - 1, bound=scan.n, **fields,
        )

    # threshold, decreasing tail with infimum L != t: holds iff L > t
    if side > 0:
        return Verdict(
            inst.problem, True, Reason.DECREASING_TAIL_ABOVE_TARGET, scanned_up_to=k0 + 1, **fields,
        )
    n = scan.first_hit()
    return Verdict(
        inst.problem, False, Reason.DECREASING_TAIL_BELOW_TARGET, witness=n, scanned_up_to=n, **fields,
    )
