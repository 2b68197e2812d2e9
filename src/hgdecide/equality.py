"""Unconditional equality and order decisions, and the decision pipeline.

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

Order (`compare`) is the recursively enumerable side: interval refinement
with doubling precision, run only with a NotEqual proof in hand so
termination is guaranteed.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from .config import DEFAULT_CONFIG, EngineConfig
from .enclosure import Expr, Rc, eval_enclosure, precision_ladder
from .errors import DecideError, UnsupportedInstance
from .gammacanon import CanonicalConstant, canonicalize, limit_as_gamma
from .polys import NotSplitting, roots_quadratic
from .sequence import (
    AsymptoticClass,
    ExactScan,
    HGInstance,
    Problem,
    SearchBound,
    classify,
    divergence_bound,
    monotonicity_index,
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


def compare(
    c: CanonicalConstant,
    t: Fraction,
    config: EngineConfig = DEFAULT_CONFIG,
) -> tuple[int, int]:
    """Sign of (value - t) by interval refinement; returns (sign, bits).

    Callers must hold a NotEqual decision, which guarantees termination;
    the precision cap turns pathological closeness into a resource error,
    never a wrong answer.
    """
    expr = c.value_expr() - Rc(Fraction(t))
    return compare_expr_zero(expr, config)


def compare_expr_zero(expr: Expr, config: EngineConfig = DEFAULT_CONFIG) -> tuple[int, int]:
    return precision_ladder(
        lambda bits: eval_enclosure(expr, bits, config).sign() or None,
        config.compare_start_bits, config,
    )


# ---------------------------------------------------------------------------
# Limit oracles
# ---------------------------------------------------------------------------


class CanonicalLimitOracle:
    """Equality/order oracle backed by the canonical constant (unconditional)."""

    def __init__(self, constant: CanonicalConstant, config: EngineConfig):
        self.constant = constant
        self.config = config

    def decide_equal(self, t: Fraction) -> EqualityDecision:
        return decide_equal(self.constant, t)

    def compare(self, t: Fraction) -> tuple[int, int]:
        return compare(self.constant, t, self.config)

    def verdict_extras(self) -> dict:
        return {"canonical": self.constant.describe()}


def _unconditional_oracle(inst: HGInstance, config: EngineConfig) -> CanonicalLimitOracle:
    """Build the canonical oracle; raises UnsupportedInstance outside the
    rational / single imaginary quadratic class."""
    rp = roots_quadratic(inst.p)
    if isinstance(rp, NotSplitting):
        raise UnsupportedInstance(
            f"p has an irreducible factor of degree {rp.blocker.degree}", rp
        )
    rq = roots_quadratic(inst.q)
    if isinstance(rq, NotSplitting):
        raise UnsupportedInstance(
            f"q has an irreducible factor of degree {rq.blocker.degree}", rq
        )
    fields = rp.fields() | rq.fields()
    if len(fields) > 1:
        raise UnsupportedInstance(f"roots span several quadratic fields {sorted(fields)}")
    if fields and next(iter(fields)) > 0:
        raise UnsupportedInstance("roots lie in a real quadratic field")
    limit = canonicalize(limit_as_gamma(inst.p, inst.q, rp, rq))
    return CanonicalLimitOracle(limit.scale(inst.u0), config)


# ---------------------------------------------------------------------------
# Decision pipeline
# ---------------------------------------------------------------------------


def decide_membership(inst: HGInstance, config: EngineConfig = DEFAULT_CONFIG) -> Verdict:
    return decide(dataclasses.replace(inst, problem=Problem.MEMBERSHIP), config)


def decide_threshold(inst: HGInstance, config: EngineConfig = DEFAULT_CONFIG) -> Verdict:
    return decide(dataclasses.replace(inst, problem=Problem.THRESHOLD), config)


def decide(
    inst: HGInstance,
    config: EngineConfig = DEFAULT_CONFIG,
    oracle_builder=None,
) -> Verdict:
    """Full decision pipeline.

    The bounded regimes (zero tails, divergence, shrinkage) are decided for
    arbitrary nonzero coefficients; the balanced branch, which needs the
    gamma-product machinery, requires monic p and q.  oracle_builder lets
    the conditional module substitute its own equality oracle for that
    branch; everything else is shared.
    """
    builder = oracle_builder or _unconditional_oracle

    if inst.u0 == 0:
        return _zero_sequence_verdict(inst)
    if inst.t == 0:
        return _zero_target_verdict(inst, config)
    ztail = inst.first_zero_of_q
    if ztail is not None:
        return _zero_tail_verdict(inst, ztail, config)

    cls = classify(inst.p, inst.q)
    if cls.grows:
        return _growing_verdict(inst, cls, config)
    if cls.shrinks:
        return _shrinking_verdict(inst, cls, config)
    if not cls.is_balanced:
        raise UnsupportedInstance(f"unsupported asymptotic class {cls.variant.value}")
    if inst.p == inst.q:
        return _constant_sequence_verdict(inst, cls)
    if not inst.is_monic_pair:
        raise UnsupportedInstance("balanced instances need monic coefficients")
    oracle = builder(inst, config)
    return _balanced_verdict(inst, cls, oracle, config)


# -- easy regimes ------------------------------------------------------------


def _zero_sequence_verdict(inst: HGInstance) -> Verdict:
    if inst.problem is Problem.MEMBERSHIP:
        ok = inst.t == 0
        return Verdict(
            inst.problem, ok, Conditionality.UNCONDITIONAL, "zero_sequence",
            witness=0 if ok else None,
        )
    return Verdict(
        inst.problem, inst.t <= 0, Conditionality.UNCONDITIONAL, "zero_sequence",
        witness=None if inst.t <= 0 else 0,
    )


def _zero_target_verdict(inst: HGInstance, config: EngineConfig) -> Verdict:
    """t = 0: membership is zero-production; threshold is sign analysis."""
    if inst.problem is Problem.MEMBERSHIP:
        root = inst.first_zero_of_q
        if root is not None:
            return Verdict(
                inst.problem, True, Conditionality.UNCONDITIONAL, "zero_tail_membership",
                witness=root + 1,
            )
        return Verdict(
            inst.problem, False, Conditionality.UNCONDITIONAL,
            "terms_never_zero",
        )
    k1 = monotonicity_index(inst.p, inst.q)
    scan = ExactScan(inst, config.scan_cap)
    n = scan.first_hit(k1 + 1)  # t = 0: the first negative term
    if n is not None:
        return Verdict(
            inst.problem, False, Conditionality.UNCONDITIONAL, "sign_analysis",
            witness=n, scanned_up_to=n,
        )
    # beyond k1 the ratio keeps one sign, so term signs are frozen or flip
    if scan.is_zero():
        return Verdict(
            inst.problem, True, Conditionality.UNCONDITIONAL, "sign_analysis",
            scanned_up_to=k1, notes=("tail identically zero",),
        )
    if inst.q(k1) * inst.p(k1) > 0:
        return Verdict(
            inst.problem, True, Conditionality.UNCONDITIONAL, "sign_analysis",
            scanned_up_to=k1, bound=SearchBound(k1, "product_monotone_beyond"),
        )
    # alternating nonzero tail: u_{k1} > 0 flips negative one step later
    return Verdict(
        inst.problem, False, Conditionality.UNCONDITIONAL, "sign_analysis",
        witness=k1 + 1, scanned_up_to=k1,
    )


def _zero_tail_verdict(inst: HGInstance, first_q_root: int, config: EngineConfig) -> Verdict:
    """q(k0) = 0: terms vanish for n > k0 and t != 0 lives in the prefix."""
    last = first_q_root + 1
    n = ExactScan(inst, config.scan_cap).first_hit(last + 1)
    if inst.problem is Problem.MEMBERSHIP:
        return Verdict(
            inst.problem, n is not None, Conditionality.UNCONDITIONAL, "zero_tail",
            witness=n, scanned_up_to=last,
        )
    if n is None and inst.t > 0:
        n = last + 1  # the zero tail lies below t
    return Verdict(
        inst.problem, n is None, Conditionality.UNCONDITIONAL, "zero_tail",
        witness=n, scanned_up_to=last,
    )


def _growing_verdict(inst: HGInstance, cls: AsymptoticClass, config: EngineConfig) -> Verdict:
    bound = divergence_bound(inst, cls, config)
    return _bounded_verdict(inst, cls, bound, "divergence_bound")


def _shrinking_verdict(inst: HGInstance, cls: AsymptoticClass, config: EngineConfig) -> Verdict:
    bound = shrink_bound(inst, cls, config)
    return _bounded_verdict(inst, cls, bound, "shrink_bound")


def _bounded_verdict(inst: HGInstance, cls: AsymptoticClass, bound: SearchBound, reason: str) -> Verdict:
    """Verdict from a divergence or shrink bound N whose scan looked for a
    witness at every n <= N (u_N itself is never a member: |u_N| != |t|)."""
    common = dict(bound=bound, asymptotic=cls, scanned_up_to=bound.n)
    witness = bound.first_hit
    if inst.problem is Problem.MEMBERSHIP:
        return Verdict(
            inst.problem, witness is not None, Conditionality.UNCONDITIONAL, reason,
            witness=witness, **common,
        )
    if witness is None and cls.grows and inst.q(bound.n) * inst.p(bound.n) < 0:
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


def _constant_sequence_verdict(inst: HGInstance, cls: AsymptoticClass) -> Verdict:
    if inst.problem is Problem.MEMBERSHIP:
        ok = inst.u0 == inst.t
        return Verdict(
            inst.problem, ok, Conditionality.UNCONDITIONAL, "constant_sequence",
            witness=0 if ok else None, asymptotic=cls,
        )
    ok = inst.u0 >= inst.t
    return Verdict(
        inst.problem, ok, Conditionality.UNCONDITIONAL, "constant_sequence",
        witness=None if ok else 0, asymptotic=cls,
    )


# -- balanced branch ---------------------------------------------------------


def _tail_direction(inst: HGInstance, k0: int, config: EngineConfig) -> int:
    """+1 if u_n strictly increases for n > k0, -1 if it decreases."""
    scan = ExactScan(inst, config.scan_cap)
    scan.jump(k0 + 1)
    s_u = scan.sign()
    s_diff = (inst.q - inst.p)(k0 + 1)
    if s_u == 0 or s_diff == 0:
        raise DecideError("internal: degenerate tail in balanced branch")
    return 1 if (s_u > 0) == (s_diff > 0) else -1


def _balanced_verdict(
    inst: HGInstance,
    cls: AsymptoticClass,
    oracle,
    config: EngineConfig,
) -> Verdict:
    k0 = monotonicity_index(inst.p, inst.q)
    direction = _tail_direction(inst, k0, config)
    eq = oracle.decide_equal(inst.t)
    # captured after the equality decision so oracle traces are complete
    extras = oracle.verdict_extras()
    cond = Conditionality.CONDITIONAL_ON_SCHANUEL if eq.conditional else Conditionality.UNCONDITIONAL
    scan = ExactScan(inst, config.scan_cap)
    n = scan.first_hit(k0 + 2)

    if inst.problem is Problem.MEMBERSHIP:
        if eq.equal:
            # the limit equals the target; a strictly monotone tail never
            # attains its limit, so witnesses live in the prefix only
            if n is not None:
                return Verdict(
                    inst.problem, True, Conditionality.UNCONDITIONAL,
                    "prefix_witness", witness=n, asymptotic=cls,
                    scanned_up_to=k0 + 1, equality_rationale=eq.rationale, **extras,
                )
            return Verdict(
                inst.problem, False, cond, "limit_equals_target_not_attained",
                asymptotic=cls, scanned_up_to=k0 + 1,
                equality_rationale=eq.rationale, **extras,
            )
        side, bits = oracle.compare(inst.t)
        relation = "less" if side < 0 else "greater"
        if n is None and side == direction and scan.sign() * inst.t > 0:
            # the monotone tail is on the far side of t from the limit: a
            # tail witness is possible until the tail passes t, where
            # direction * (u_n - t) > 0, i.e. |u_n| - |t| has the sign of
            # direction * u_n (a tail of the other sign has passed t)
            n = scan.first_hit(past=direction * scan.sign())
        if n is not None:
            return Verdict(
                inst.problem, True, Conditionality.UNCONDITIONAL, "prefix_witness",
                witness=n, asymptotic=cls, scanned_up_to=n,
                equality_rationale=eq.rationale, compare_relation=relation,
                compare_precision_bits=bits, **extras,
            )
        return Verdict(
            inst.problem, False, cond, "monotone_tail_excludes_target",
            asymptotic=cls, scanned_up_to=scan.n - 1,
            bound=SearchBound(scan.n, "product_monotone_beyond"),
            equality_rationale=eq.rationale, compare_relation=relation,
            compare_precision_bits=bits, **extras,
        )

    # threshold
    if n is not None:
        return Verdict(
            inst.problem, False, Conditionality.UNCONDITIONAL, "prefix_violation",
            witness=n, asymptotic=cls, scanned_up_to=k0 + 1, **extras,
        )
    if direction > 0:
        # increasing tail: its minimum u_{k0+1} was checked in the prefix
        return Verdict(
            inst.problem, True, Conditionality.UNCONDITIONAL, "increasing_tail",
            asymptotic=cls, scanned_up_to=k0 + 1,
            bound=SearchBound(k0 + 1, "product_monotone_beyond"), **extras,
        )
    # decreasing tail with infimum equal to the limit: holds iff limit >= t
    if eq.equal:
        return Verdict(
            inst.problem, True, Conditionality.UNCONDITIONAL,
            "decreasing_tail_limit_equals_target", asymptotic=cls,
            scanned_up_to=k0 + 1, equality_rationale=eq.rationale, **extras,
        )
    side, bits = oracle.compare(inst.t)
    if side > 0:
        return Verdict(
            inst.problem, True, cond, "decreasing_tail_above_target",
            asymptotic=cls, scanned_up_to=k0 + 1, equality_rationale=eq.rationale,
            compare_relation="greater", compare_precision_bits=bits, **extras,
        )
    n = scan.first_hit()
    return Verdict(
        inst.problem, False, cond, "decreasing_tail_below_target",
        witness=n, asymptotic=cls, scanned_up_to=n,
        equality_rationale=eq.rationale, compare_relation="less",
        compare_precision_bits=bits, **extras,
    )
