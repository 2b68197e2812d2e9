import math
import random
from fractions import Fraction as F

import pytest

from hgdecide.config import DEFAULT_CONFIG
from hgdecide.equality import decide
from hgdecide.errors import UnsupportedInstance
from hgdecide.polys import IntPoly
from hgdecide.schanuel import (
    CElem,
    ConditionalLimitOracle,
    GammaPair,
    build_basis,
    build_identity,
    decide_conditional,
    decide_identity,
    evaluate_identity,
    identity_norm,
)
from hgdecide.sequence import BruteKind, HGInstance, Problem, brute_force
from hgdecide.towers import MultiquadraticTower
from hgdecide.verdicts import Conditionality, Rationale


def inst(p, q, u0, t, problem=Problem.MEMBERSHIP):
    return HGInstance(IntPoly(tuple(p)), IntPoly(tuple(q)), F(u0), F(t), problem)


def assert_within_envelope(prod, limit, envelope):
    # prod is a partial product whose remaining factors are all positive, so
    # the limit has the sign of prod and |limit| / |prod| lies in
    # [1/envelope, envelope]; comparing magnitudes keeps the bounds in order
    # when the product is negative
    assert prod != 0 and limit != 0 and (prod > 0) == (limit > 0)
    assert abs(prod) / envelope <= abs(limit) <= abs(prod) * envelope


class TestBuildBasis:
    def test_gaussian_degeneration(self):
        t = MultiquadraticTower((-1,))
        i_el = t.i_element()
        b = build_basis([i_el * 3, i_el], t)
        assert len(b.s) == 0 and b.i_part == (3, 1) and b.one_part == (F(0), F(0))

    def test_independent_pair(self):
        t = MultiquadraticTower((-2, -3))
        b = build_basis([t.sqrt_elem(-2), t.sqrt_elem(-3)], t)
        assert len(b.s) == 2 and b.coeffs == ((1, 0), (0, 1))

    def test_lcm_normalization(self):
        t = MultiquadraticTower((-3,))
        w = t.sqrt_elem(-3)
        b = build_basis([w * F(3, 2), w * F(1, 2)], t)
        assert b.lcms == (3,)
        assert b.s[0] == w * F(1, 2)
        assert b.coeffs == ((3,), (1,))

    def test_reconstruction_exact(self):
        t = MultiquadraticTower((2, 5))
        ws = [t.sqrt_elem(2) * F(2, 3) + 1, t.sqrt_elem(5), t.sqrt_elem(10) * F(1, 2)]
        b = build_basis(ws, t)
        for k, w in enumerate(ws):
            recon = t.rational(b.one_part[k])
            for j, c in enumerate(b.coeffs[k]):
                recon = recon + b.s[j] * c
            assert recon == w

    def test_maximality(self):
        from hgdecide.linalg import Eliminator

        t = MultiquadraticTower((2, 5))
        ws = [t.sqrt_elem(2), t.sqrt_elem(5), t.sqrt_elem(2) * 2 + t.sqrt_elem(5)]
        b = build_basis(ws, t)
        assert len(b.s) == 2
        elim = Eliminator(t.degree)
        elim.try_add(list(t.one().coords))
        for sp in b.sprime:
            assert elim.try_add(list(sp.coords))
        for w in ws:
            assert elim.express(list(w.coords)) is not None


class TestIdentity:
    def test_empty_identity_for_equal_multisets(self):
        t = MultiquadraticTower((2, -1))
        w = t.sqrt_elem(2)
        basis = build_basis([w, w], t)
        pair_n = GammaPair(F(1), w, 0)
        pair_d = GammaPair(F(1), w, 1)
        ident = build_identity([pair_n], [pair_d], F(1), F(1), basis)
        assert ident.is_zero
        assert decide_identity(ident).holds

    def test_nonzero_identity_distinct_radicals(self):
        t = MultiquadraticTower((2, -1))
        w1 = t.sqrt_elem(2)
        w2 = t.sqrt_elem(2) * 2
        basis = build_basis([w1, w2], t)
        ident = build_identity(
            [GammaPair(F(0), w1, 0)], [GammaPair(F(0), w2, 1)], F(1), F(3, 7), basis
        )
        assert not ident.is_zero
        v = decide_identity(ident)
        assert not v.holds and v.unconditional_reason is None
        assert "Y1" in ident.symbols_used()

    def test_pi_only_fast_path(self):
        t = MultiquadraticTower((-1,))
        basis = build_basis([], t)
        ident = build_identity([], [], F(1), F(22, 7), basis)
        # 1 - 22/7 as a constant: nonzero, no symbols at all
        assert not decide_identity(ident).holds

    def test_identity_value_matches_gamma_product(self, mp, mpref):
        # worked Gaussian example assembled through the identity machinery
        t = MultiquadraticTower((-1,))
        i_el = t.i_element()
        ws = [i_el * 3, i_el]
        basis = build_basis(ws, t)
        num = [GammaPair(F(-2), ws[0], 0)]
        den = [GammaPair(F(-2), ws[1], 1)]
        ident = build_identity(num, den, F(1), F(1, 13), basis)
        assert not ident.is_zero
        # enclosure of the identity value must differ from zero
        iv = evaluate_identity(ident, 128)
        assert not iv.contains_zero()

    def test_identity_norm_is_rational(self):
        t = MultiquadraticTower((2, -1))
        w1, w2 = t.sqrt_elem(2), t.sqrt_elem(2) * 2
        basis = build_basis([w1, w2], t)
        ident = build_identity(
            [GammaPair(F(0), w1, 0)], [GammaPair(F(0), w2, 1)], F(1), F(3, 7), basis
        )
        norm = identity_norm(ident)
        assert norm and all(isinstance(c, F) for c in norm.values())


class TestCElem:
    def test_fold_when_i_present(self):
        t = MultiquadraticTower((-1,))
        x = CElem.make(t, t.one(), t.one())  # 1 + i*1
        assert x.im.is_zero
        y = x.mul(CElem.make(t, t.one(), -t.one()))  # (1+i)(1-i) = 2
        assert y.re.as_rational() == 2

    def test_formal_i_when_absent(self):
        t = MultiquadraticTower((2,))
        x = CElem.make(t, t.one(), t.one())
        assert not x.im.is_zero
        sq = x.mul(x)  # (1+i)^2 = 2i
        assert sq.re.is_zero and sq.im.as_rational() == 2
        rot = x.mul_i_power(2)
        assert rot.re.as_rational() == -1


class TestConditionalDecider:
    def test_gaussian_instances_route_unconditional(self, sinh_ratio_instance):
        v = decide_conditional(sinh_ratio_instance(F(1, 13)))
        assert v.result and v.witness == 2 and v.conditionality is Conditionality.UNCONDITIONAL
        v2 = decide_conditional(sinh_ratio_instance(F(1, 7)))
        assert not v2.result and v2.conditionality is Conditionality.UNCONDITIONAL

    def test_real_quadratic_not_member_is_conditional(self):
        i = inst([-1, -2, 1], [-4, -2, 1], 1, F(3, 7))
        v = decide_conditional(i)
        assert not v.result
        assert v.conditionality is Conditionality.CONDITIONAL_ON_SCHANUEL
        assert v.equality_rationale is Rationale.IDENTITY_NONZERO
        assert v.identity["stress_separated"] is True
        assert brute_force(i, 5000).kind is BruteKind.NONE_UP_TO

    def test_decide_leaves_mpmath_precision_alone(self):
        # a fresh interpreter, so no cache hides the numeric root finder
        import os
        import subprocess
        import sys

        import hgdecide

        script = (
            "import mpmath\n"
            "from fractions import Fraction as F\n"
            "from hgdecide.polys import IntPoly, numeric_roots\n"
            "from hgdecide.schanuel import decide_conditional\n"
            "from hgdecide.sequence import HGInstance, Problem\n"
            "mpmath.mp.dps = 23\n"
            "i = HGInstance(IntPoly((-1, -2, 1)), IntPoly((-4, -2, 1)), F(1), F(3, 7),"
            " Problem.MEMBERSHIP)\n"
            "v = decide_conditional(i)\n"
            "print(mpmath.mp.dps, numeric_roots.cache_info().misses, v.conditionality.value)\n"
        )
        src = os.path.dirname(os.path.dirname(hgdecide.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout.split()
        assert out[0] == "23"
        assert int(out[1]) > 0  # the root finder ran
        assert out[2] == Conditionality.CONDITIONAL_ON_SCHANUEL.value

    def test_real_quadratic_witness_is_unconditional(self):
        i = inst([-1, -2, 1], [-4, -2, 1], 1, 4)  # u_1 = q(0)/p(0) = 4
        v = decide_conditional(i)
        assert v.result and v.witness == 1
        assert v.conditionality is Conditionality.UNCONDITIONAL

    def test_equal_branch_syntactic_cancellation(self):
        f = IntPoly.of(-1, -2, 1)
        p = f * IntPoly.of(1, 1) * IntPoly.of(4, 1)
        q = f * IntPoly.of(2, 1) * IntPoly.of(3, 1)
        i = HGInstance(p, q, F(2), F(6), Problem.MEMBERSHIP)
        v = decide_conditional(i)
        assert not v.result and v.reason == "limit_equals_target_not_attained"
        assert v.conditionality is Conditionality.UNCONDITIONAL
        assert v.equality_rationale is Rationale.IDENTITY_CANCELLATION

    def test_matching_failure_reported_with_evidence(self):
        # x^4-4x^2-8x+2 has no matching: conditional decider refuses
        p = IntPoly((2, -8, -4, 0, 1))
        q = IntPoly((6, -8, -4, 0, 1))
        i = HGInstance(p, q, F(1), F(1, 2), Problem.MEMBERSHIP)
        with pytest.raises(UnsupportedInstance) as exc:
            decide_conditional(i)
        assert "matching" in str(exc.value)

    def test_degeneration_consistency_random(self):
        rng = random.Random(23)
        agreements = 0
        for _ in range(30):
            a = rng.randint(-2, 2)
            d = rng.choice([-1, -2, -3, -7, -11])
            b1 = rng.randint(1, 3)
            b2 = b1 + rng.randint(1, 2)
            u0 = F(rng.randint(1, 3))
            t = F(rng.randint(-20, 20) or 3, rng.randint(1, 20))
            problem = rng.choice([Problem.MEMBERSHIP, Problem.THRESHOLD])
            i = inst(
                [a * a - b1 * b1 * d, -2 * a, 1],
                [a * a - b2 * b2 * d, -2 * a, 1],
                u0, t, problem,
            )
            v_uncond = decide(i)
            v_cond = decide_conditional(i)
            assert v_uncond.result == v_cond.result
            assert v_uncond.witness == v_cond.witness
            assert v_uncond.conditionality == v_cond.conditionality
            agreements += 1
        assert agreements == 30

    def test_cyclotomic_tower_instance(self):
        # p = Phi_12, q = (x^2+1)^2: both symmetric, same degree, balanced
        p = IntPoly.of(1, 0, -1, 0, 1)
        q = IntPoly.of(1, 0, 1) * IntPoly.of(1, 0, 1)
        i = HGInstance(p, q, F(1), F(1), Problem.MEMBERSHIP)
        v = decide_conditional(i)
        assert v.result and v.witness == 0  # u_0 = 1 = t short-circuits

    def test_half_integer_center_identity_path(self):
        # p = x^2 - x - 1 (roots (1 +- sqrt(5))/2), q = x^2 - x - 3: the
        # gamma-pair centers are half-integers, exercising the cosine form.
        # The limit is negative: the factor at k = 2 is q(2)/p(2) = -1/1, and
        # every factor from k = 3 on is positive, so the envelope check below
        # compares signs and magnitudes separately
        i = inst([-1, -1, 1], [-3, -1, 1], 1, F(5, 3))
        v = decide_conditional(i)
        assert not v.result
        assert v.conditionality is Conditionality.CONDITIONAL_ON_SCHANUEL
        assert v.identity["stress_separated"] is True
        assert brute_force(i, 3000).kind is BruteKind.NONE_UP_TO
        orc = ConditionalLimitOracle(i, DEFAULT_CONFIG)
        iv = orc.limit_enclosure(96)
        prod = 1.0
        terms = 20000
        for k in range(terms):
            prod *= (k * k - k - 3) / (k * k - k - 1)
        envelope = math.exp(4 * 2 / terms)
        assert_within_envelope(prod, float(iv.mid()), envelope)

    def test_zero_tail_shortcircuits_before_oracle(self):
        # q = (x^2-1)^2 has the nonnegative root 1: the zero-tail branch
        # answers t = u0 at index 0 without any matching machinery
        p = IntPoly.of(1, 0, -1, 0, 1)
        q = IntPoly.of(-1, 0, 1) * IntPoly.of(-1, 0, 1)
        v = decide_conditional(HGInstance(p, q, F(1), F(1), Problem.MEMBERSHIP))
        assert v.result and v.witness == 0
        assert v.conditionality is Conditionality.UNCONDITIONAL

    def test_cyclotomic_identity_path(self):
        # same pair but a target the sequence never attains: the equality
        # step runs through the cyclotomic tower with i and sqrt(-1) mixed in
        p = IntPoly.of(1, 0, -1, 0, 1)
        q = IntPoly.of(1, 0, 1) * IntPoly.of(1, 0, 1)
        i = HGInstance(p, q, F(1), F(22, 7), Problem.MEMBERSHIP)
        v = decide_conditional(i)
        assert not v.result
        assert v.conditionality is Conditionality.CONDITIONAL_ON_SCHANUEL
        assert v.identity["stress_separated"] is True
        assert brute_force(i, 2000).kind is BruteKind.NONE_UP_TO
        # limit enclosure must match a partial product
        orc = ConditionalLimitOracle(i, DEFAULT_CONFIG)
        iv = orc.limit_enclosure(96)
        prod = 1.0
        terms = 20000
        for k in range(terms):
            prod *= (k * k + 1) ** 2 / float(k**4 - k * k + 1)
        # tail envelope: |log tail| <= 4*sum|q-p| / terms
        envelope = math.exp(4 * 3 / terms)
        assert_within_envelope(prod, float(iv.mid()), envelope)
