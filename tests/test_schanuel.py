import functools
import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgdecide.config import DEFAULT_CONFIG, EngineConfig
from hgdecide.equality import CanonicalLimitOracle, decide
from hgdecide.errors import PrecisionExceeded, UnsupportedInstance
from hgdecide.polys import IntPoly
from hgdecide.schanuel import (
    ConditionalLimitOracle,
    GammaPair,
    build_basis,
    build_identity,
    decide_identity,
    evaluate_identity,
)
from hgdecide.sequence import BruteKind, HGInstance, Problem, brute_force, term
from hgdecide.towers import CyclotomicTower, MultiquadraticTower, TowerElem
from hgdecide.verdicts import Conditionality, Rationale

from gammaforms import gamma_ratio_limit, mpf_fraction
from intervals import overlaps


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
        t = MultiquadraticTower((-2, -3, -1))
        b = build_basis([t.sqrt_elem(-2), t.sqrt_elem(-3)], t)
        assert len(b.s) == 2 and b.coeffs == ((1, 0), (0, 1))

    def test_lcm_normalization(self):
        t = MultiquadraticTower((-3, -1))
        w = t.sqrt_elem(-3)
        b = build_basis([w * F(3, 2), w * F(1, 2)], t)
        assert b.lcms == (3,)
        assert b.s[0] == w * F(1, 2)
        assert b.coeffs == ((3,), (1,))

    def test_reconstruction_exact(self):
        t = MultiquadraticTower((2, 5, -1))
        ws = [t.sqrt_elem(2) * F(2, 3) + 1, t.sqrt_elem(5), t.sqrt_elem(10) * F(1, 2)]
        b = build_basis(ws, t)
        for k, w in enumerate(ws):
            recon = t.rational(b.one_part[k])
            for j, c in enumerate(b.coeffs[k]):
                recon = recon + b.s[j] * c
            assert recon == w

    def test_maximality(self):
        from hgdecide.linalg import Eliminator

        t = MultiquadraticTower((2, 5, -1))
        ws = [t.sqrt_elem(2), t.sqrt_elem(5), t.sqrt_elem(2) * 2 + t.sqrt_elem(5)]
        b = build_basis(ws, t)
        assert len(b.s) == 2
        elim = Eliminator(t.degree)
        elim.try_add(t.one().nums)
        for s in b.s:
            assert elim.try_add(s.nums, s.den)
        for w in ws:
            assert elim.express(w.nums, w.den) is not None


class TestIdentity:
    def test_empty_identity_for_equal_multisets(self):
        t = MultiquadraticTower((2, -1))
        w = t.sqrt_elem(2)
        basis = build_basis([w, w], t)
        pair_n = GammaPair(F(1), w, 0)
        pair_d = GammaPair(F(1), w, 1)
        ident = build_identity([pair_n], [pair_d], F(1), F(1), basis)
        assert ident.is_zero
        assert decide_identity(ident) is True

    def test_nonzero_identity_distinct_radicals(self):
        t = MultiquadraticTower((2, -1))
        w1 = t.sqrt_elem(2)
        w2 = t.sqrt_elem(2) * 2
        basis = build_basis([w1, w2], t)
        ident = build_identity(
            [GammaPair(F(0), w1, 0)], [GammaPair(F(0), w2, 1)], F(1), F(3, 7), basis
        )
        assert not ident.is_zero
        assert decide_identity(ident) is False
        assert "Y1" in ident.symbols_used()

    @pytest.mark.parametrize(
        "rho_num, rho_den, t_equal",
        [
            # Gamma(-1+w)Gamma(-1-w) / Gamma(w)Gamma(-w) = 1/(1 - w^2) = -1
            (F(-1), F(0), F(-1)),
            # Gamma(-1/2+w)Gamma(-1/2-w) / Gamma(1/2+w)Gamma(1/2-w) = 1/(1/4 - w^2)
            (F(-1, 2), F(1, 2), F(-4, 7)),
        ],
    )
    def test_falling_translation_moves_across(self, rho_num, rho_den, t_equal):
        # the numerator pair's translation factor divides its value, so the
        # build multiplies it into the other side of the identity instead
        t = MultiquadraticTower((2, -1))
        w = t.sqrt_elem(2)
        basis = build_basis([w, w], t)
        num, den = [GammaPair(rho_num, w, 0)], [GammaPair(rho_den, w, 1)]
        equal = build_identity(num, den, F(1), t_equal, basis)
        assert equal.is_zero and decide_identity(equal) is True
        unequal = build_identity(num, den, F(1), F(1), basis)
        assert not unequal.is_zero and decide_identity(unequal) is False
        assert not evaluate_identity(unequal, 128).contains_zero()
        # the same pairs with the sides swapped put the factor on the left
        swapped = build_identity(den, num, F(1), 1 / t_equal, basis)
        assert swapped.is_zero

    def test_pi_only_fast_path(self):
        t = MultiquadraticTower((-1,))
        basis = build_basis([], t)
        ident = build_identity([], [], F(1), F(22, 7), basis)
        # 1 - 22/7 as a constant: nonzero, no symbols at all
        assert decide_identity(ident) is False

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


class TestCElem:
    """The identity's complex coefficients are tower elements: i folds into
    a tower that holds it and is adjoined to one that lacks it."""

    def test_fold_when_i_present(self):
        t = MultiquadraticTower((-1,))
        i = t.i_element()
        assert i == t.sqrt_elem(-1)
        y = (t.one() + i) * (t.one() - i)  # (1+i)(1-i) = 2
        assert y.as_rational() == 2

    def test_formal_i_when_absent(self):
        from hgdecide.towers import IAdjoinedTower

        base = MultiquadraticTower((2,))
        assert base.i_element() is None
        t = IAdjoinedTower(base)
        i = t.i_element()
        x = t.one() + i
        assert x * x == i * 2  # (1+i)^2 = 2i
        assert x * i**2 == t.rational(-1) - i


class TestConditionalDecider:
    def test_gaussian_instances_route_unconditional(self, sinh_ratio_instance):
        v = decide(sinh_ratio_instance(F(1, 13)))
        assert v.result and v.witness == 2 and v.conditionality is Conditionality.UNCONDITIONAL
        v2 = decide(sinh_ratio_instance(F(1, 7)))
        assert not v2.result and v2.conditionality is Conditionality.UNCONDITIONAL

    def test_real_quadratic_not_member_is_conditional(self):
        # the negative tail rises to L ~ -4.43, so t = -3 is never reached
        # only because L < t: the verdict reads the limit
        i = inst([-1, -2, 1], [-4, -2, 1], 1, F(-3))
        v = decide(i)
        assert not v.result
        assert v.conditionality is Conditionality.CONDITIONAL_ON_SCHANUEL
        assert v.equality_rationale is Rationale.IDENTITY_NONZERO
        assert v.identity["stress_separated"] is True
        assert brute_force(i, 5000).kind is BruteKind.NONE_UP_TO

    def test_precision_cap_limits_the_first_rung(self, monkeypatch):
        # the stress check starts its ladder at 256 bits; under a 128-bit
        # cap no rung, the first included, asks for more
        from hgdecide import schanuel
        from hgdecide.config import EngineConfig

        rungs = []
        evaluate = schanuel.evaluate_identity

        def recording(ident, prec):
            rungs.append(prec)
            return evaluate(ident, prec)

        monkeypatch.setattr(schanuel, "evaluate_identity", recording)
        v = decide(inst([-1, -2, 1], [-4, -2, 1], 1, F(-3)), EngineConfig(precision_cap_bits=128))
        assert v.conditionality is Conditionality.CONDITIONAL_ON_SCHANUEL
        assert rungs and max(rungs) <= 128

    def test_real_quadratic_witness_is_unconditional(self):
        i = inst([-1, -2, 1], [-4, -2, 1], 1, 4)  # u_1 = q(0)/p(0) = 4
        v = decide(i)
        assert v.result and v.witness == 1
        assert v.conditionality is Conditionality.UNCONDITIONAL

    def test_equal_branch_syntactic_cancellation(self):
        f = IntPoly.of(-1, -2, 1)
        p = f * IntPoly.of(1, 1) * IntPoly.of(4, 1)
        q = f * IntPoly.of(2, 1) * IntPoly.of(3, 1)
        i = HGInstance(p, q, F(2), F(6), Problem.MEMBERSHIP)
        v = decide(i)
        assert not v.result and v.reason == "limit_equals_target_not_attained"
        assert v.conditionality is Conditionality.UNCONDITIONAL
        assert v.equality_rationale is Rationale.IDENTITY_CANCELLATION

    def test_identity_is_built_once(self, monkeypatch):
        # the cancelling pair above and the nonzero t = -3 pair each build
        # one identity: an Equal is not rebuilt to be trusted
        from hgdecide import schanuel

        calls = []
        build = schanuel.build_identity
        monkeypatch.setattr(schanuel, "build_identity", lambda *args: calls.append(args) or build(*args))
        f = IntPoly.of(-1, -2, 1)
        p, q = f * IntPoly.of(1, 1) * IntPoly.of(4, 1), f * IntPoly.of(2, 1) * IntPoly.of(3, 1)
        v = decide(HGInstance(p, q, F(2), F(6), Problem.MEMBERSHIP))
        assert v.equality_rationale is Rationale.IDENTITY_CANCELLATION and len(calls) == 1
        v = decide(inst([-1, -2, 1], [-4, -2, 1], 1, F(-3)))
        assert v.equality_rationale is Rationale.IDENTITY_NONZERO and len(calls) == 2

    def test_matching_failure_reported_with_evidence(self):
        # x^4-4x^2-8x+2 has no matching: conditional decider refuses.  The
        # tail rises to L ~ 1.4565, so t = 3/2 needs the limit
        p = IntPoly((2, -8, -4, 0, 1))
        q = IntPoly((6, -8, -4, 0, 1))
        i = HGInstance(p, q, F(1), F(3, 2), Problem.MEMBERSHIP)
        with pytest.raises(UnsupportedInstance) as exc:
            decide(i)
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
            v_uncond = decide(i, conditional=False)
            v_cond = decide(i)
            assert v_uncond.result == v_cond.result
            assert v_uncond.witness == v_cond.witness
            assert v_uncond.conditionality == v_cond.conditionality
            agreements += 1
        assert agreements == 30

    def test_engines_agree_on_imaginary_quadratic_pairs(self):
        # decide routes these instances to the canonical oracle,
        # so both oracles are built directly.  Pair centers run over both
        # signs, so translation factors multiply and divide; half-integer
        # centers need d = 1 mod 4 and half-odd offsets
        rng = random.Random(29)
        outcomes = set()
        for k in range(80):
            half = k % 2 == 1
            d = rng.choice([-3, -7, -11] if half else [-1, -2, -3, -5])
            shift = F(1, 2) if half else F(0)

            def pair(rho, b):
                # x^2 - 2 rho x + rho^2 - b^2 d: roots rho +- b sqrt(d)
                return IntPoly((int(rho * rho - b * b * d), int(-2 * rho), 1))

            def center():
                return rng.randint(-3, 3) + shift

            def offset():
                return rng.randint(1, 3) - shift

            rho1, rho2, s = center(), center(), rng.randint(-2, 2)
            irr_p, irr_q = pair(rho1, offset()), pair(rho1, offset())
            if k % 3 == 0:
                irr_p = irr_p * pair(rho2, offset())
                irr_q = pair(rho1 - s, offset()) * pair(rho2 + s, offset())
            if k % 8 == 0:
                irr_q = irr_p  # the limit is the rational gamma ratio alone
            a1, a2 = rng.randint(1, 4), rng.randint(2, 4)
            lin_p = lin_q = IntPoly.of(1)
            if k % 4 == 0:
                lin_p = IntPoly.of(a1, 1) * IntPoly.of(a2, 1)
                lin_q = IntPoly.of(a1 + 1, 1) * IntPoly.of(a2 - 1, 1)
            u0 = F(rng.randint(1, 3))
            i = inst((irr_p * lin_p).coeffs, (irr_q * lin_q).coeffs, u0, 1)
            canon = CanonicalLimitOracle(i, DEFAULT_CONFIG)
            ident = ConditionalLimitOracle(i, DEFAULT_CONFIG)
            iv = ident.limit_enclosure(96)
            assert overlaps(canon.constant.limit_enclosure(96), iv)
            targets = [
                F(rng.randint(1, 40), rng.randint(1, 40)),
                F(f"{float(iv.mid()):.6g}"),  # near the limit
            ]
            if k % 8 == 0:
                # Gamma(a1)Gamma(a2) / (Gamma(a1 + 1)Gamma(a2 - 1))
                targets.append(u0 * F(a2 - 1, a1))
            for t in targets:
                eq = canon.decide_equal(t)
                assert eq.equal == ident.decide_equal(t).equal
                outcomes.add(eq.equal)
                if not eq.equal:
                    assert canon.compare(t)[0] == ident.compare(t)[0]
        assert outcomes == {True, False}

    def test_cyclotomic_tower_instance(self):
        # p = Phi_12, q = (x^2+1)^2: both symmetric, same degree, balanced
        p = IntPoly.of(1, 0, -1, 0, 1)
        q = IntPoly.of(1, 0, 1) * IntPoly.of(1, 0, 1)
        i = HGInstance(p, q, F(1), F(1), Problem.MEMBERSHIP)
        v = decide(i)
        assert v.result and v.witness == 0  # u_0 = 1 = t short-circuits

    def test_half_integer_center_identity_path(self):
        # p = x^2 - x - 1 (roots (1 +- sqrt(5))/2), q = x^2 - x - 3: the
        # gamma-pair centers are half-integers, exercising the cosine form.
        # The limit is negative: the factor at k = 2 is q(2)/p(2) = -1/1, and
        # every factor from k = 3 on is positive, so the envelope check below
        # compares signs and magnitudes separately.  The tail rises to
        # L ~ -2.62, so t = -5/3 above it needs the limit
        i = inst([-1, -1, 1], [-3, -1, 1], 1, F(-5, 3))
        v = decide(i)
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
        v = decide(HGInstance(p, q, F(1), F(1), Problem.MEMBERSHIP))
        assert v.result and v.witness == 0
        assert v.conditionality is Conditionality.UNCONDITIONAL

    def test_cyclotomic_identity_path(self):
        # same pair but a target the sequence never attains: the equality
        # step runs through the cyclotomic tower with i and sqrt(-1) mixed in.
        # The tail rises to L ~ 24.41, so t = 25 above it needs the limit
        p = IntPoly.of(1, 0, -1, 0, 1)
        q = IntPoly.of(1, 0, 1) * IntPoly.of(1, 0, 1)
        i = HGInstance(p, q, F(1), F(25), Problem.MEMBERSHIP)
        v = decide(i)
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

    def test_real_quadratic_lifted_into_cyclotomic_tower(self):
        # p = Phi_12(x)(x^2 + 3), q = (x^2 + 1)^2 (x^2 - 3): the offsets i,
        # sqrt(-3) and sqrt(3) meet in Q(zeta_12), and sqrt(3) takes the
        # positive real branch there
        p = IntPoly.of(3, 0, -2, 0, 2, 0, 1)
        q = IntPoly.of(-3, 0, -5, 0, -1, 0, 1)
        i = HGInstance(p, q, F(1), F(1, 5), Problem.MEMBERSHIP)
        orc = ConditionalLimitOracle(i, DEFAULT_CONFIG)
        assert orc.tower == CyclotomicTower(12)
        iv = orc.limit_enclosure(96)
        prod = 1.0
        terms = 20000
        for k in range(terms):
            prod *= q(k) / p(k)
        assert_within_envelope(prod, float(iv.mid()), math.exp(4 * 12 / terms))
        v = decide(i)
        assert not v.result and v.reason == "monotone_tail_excludes_target"
        assert v.conditionality is Conditionality.CONDITIONAL_ON_SCHANUEL
        assert brute_force(i, 2000).kind is BruteKind.NONE_UP_TO

    @staticmethod
    def _cancelling(f: IntPoly, t: F, problem=Problem.MEMBERSHIP) -> HGInstance:
        """p = f (x + 2)(x + 3), q = f (x + 1)(x + 4): f cancels, so u_n =
        (n + 3)/(3(n + 1)) falls to L = 1/3, but the matching and the
        identity still run in the tower of f."""
        p, q = f * IntPoly.of(2, 1) * IntPoly.of(3, 1), f * IntPoly.of(1, 1) * IntPoly.of(4, 1)
        return HGInstance(p, q, F(1), t, problem)

    # the radical tower of f holds i for x^4 - 2; for x^6 - 3 the oracle
    # adjoins i to it
    @pytest.mark.parametrize("f,has_i", [((-2, 0, 0, 0, 1), True), ((-3, 0, 0, 0, 0, 0, 1), False)])
    def test_radical_tower_decisions(self, f, has_i):
        from hgdecide.certs import InstanceDocument, certificate_dict, verify_certificate
        from hgdecide.towers import IAdjoinedTower, RadicalTower

        f = IntPoly(f)
        tower = ConditionalLimitOracle(self._cancelling(f, F(1, 3)), DEFAULT_CONFIG).tower
        assert tower == (RadicalTower(4, 2) if has_i else IAdjoinedTower(RadicalTower(6, 3)))
        assert tower.i_element() is not None
        for t, problem, exit_code, relation in [
            (F(1, 3), Problem.MEMBERSHIP, 1, None),
            (F(1, 3) - F(1, 1000), Problem.THRESHOLD, 10, "greater"),
            (F(1, 3) + F(1, 1000), Problem.THRESHOLD, 11, "less"),
        ]:
            i = self._cancelling(f, t, problem)
            v = decide(i)
            assert v.exit_code == exit_code, t
            if relation is None:
                assert v.equality_rationale is Rationale.IDENTITY_CANCELLATION
            else:
                assert (v.compare_relation, v.compare_precision_bits) == (relation, 64), t
            assert verify_certificate(certificate_dict(InstanceDocument(i, "auto"), v)) == [], t

    def test_towers_without_i_keep_their_certificates(self):
        # the same instances over the towers that lack i: Q(zeta_5) with
        # sqrt(5) lifted into it, the sixth root of 3 and Q(zeta_5) alone;
        # the nine certificates are pinned and all verify
        import hashlib

        from hgdecide.certs import InstanceDocument, certificate_dict, serialize_certificate, verify_certificate

        phi5_phi10 = IntPoly.of(1, 0, 1, 0, 1, 0, 1, 0, 1)
        digest = hashlib.sha256()
        for f in (phi5_phi10 * IntPoly.of(-5, 0, 1), IntPoly.of(-3, 0, 0, 0, 0, 0, 1), phi5_phi10):
            for t, problem in [
                (F(1, 3), Problem.MEMBERSHIP),
                (F(1, 3) - F(1, 1000), Problem.THRESHOLD),
                (F(1, 3) + F(1, 1000), Problem.THRESHOLD),
            ]:
                i = self._cancelling(f, t, problem)
                cert = certificate_dict(InstanceDocument(i, "auto"), decide(i))
                assert verify_certificate(cert) == [], (f, t)
                digest.update(serialize_certificate(cert).encode())
        assert digest.hexdigest() == "9c0bb7388d0d9091f895d8d845c3a1e10942d21f2a74dafd916130418a52598e"

    @pytest.mark.parametrize(
        "f, message",
        [
            # Phi_8 (x^4 - 2): Q(zeta_8) and the fourth root of 2
            ((-2, 0, 0, 0, -1, 0, 0, 0, 1), "pair offsets span several towers"),
            # (x^2 - 2)(x^4 - 2): sqrt(2) beside a radical tower
            ((4, 0, -2, 0, -2, 0, 1), "quadratic offsets mix only into cyclotomic towers"),
            # Phi_5 Phi_10 (x^2 - 3): sqrt(3) is not in Q(zeta_5)
            ((-3, 0, -2, 0, -2, 0, -2, 0, -2, 0, 1), "sqrt\\(3\\) does not embed in the conductor-5 tower"),
        ],
    )
    def test_common_tower_refusals(self, f, message, tmp_path, capsys):
        import json

        from hgdecide.cli import main

        i = self._cancelling(IntPoly(f), F(1, 3))
        with pytest.raises(UnsupportedInstance, match=message):
            ConditionalLimitOracle(i, DEFAULT_CONFIG)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({
            "p": list(i.p.coeffs), "q": list(i.q.coeffs), "u0": "1", "t": "1/3", "problem": "membership",
        }))
        assert main(["decide", str(path)]) == 2
        capsys.readouterr()

    def test_building_the_oracle_embeds_nothing(self, monkeypatch):
        # the lifted sqrt(3) takes Gauss's branch and the translation factors
        # are exact, so the build needs no enclosure of any tower element
        calls = []
        embed = TowerElem.embed
        monkeypatch.setattr(TowerElem, "embed", lambda self, prec: calls.append(prec) or embed(self, prec))
        p = IntPoly.of(3, 0, -2, 0, 2, 0, 1)
        q = IntPoly.of(-3, 0, -5, 0, -1, 0, 1)
        orc = ConditionalLimitOracle(HGInstance(p, q, F(1), F(1, 5), Problem.MEMBERSHIP), DEFAULT_CONFIG)
        assert orc.tower == CyclotomicTower(12)
        assert calls == []


def _conjugate_pair_instance(draw, whole_ds, half_ds) -> HGInstance:
    """p and q each a conjugate root pair rho +- b sqrt(d) about one center
    rho, so the pair is balanced.  A half-integer rho takes d = 1 (mod 4)
    from half_ds and a half-integral b, so that rho^2 - b^2 d stays an
    integer."""
    half = draw(st.booleans())
    d = draw(st.sampled_from(half_ds if half else whole_ds))
    shift = F(1, 2) if half else F(0)
    rho = draw(st.integers(-3, 3)) + shift
    b_p, b_q = (b - shift for b in draw(st.lists(st.integers(1, 3), min_size=2, max_size=2, unique=True)))
    u0 = F(draw(st.integers(1, 9)), draw(st.integers(1, 4)))

    def pair(b):
        return [int(rho * rho - b * b * d), int(-2 * rho), 1]

    return inst(pair(b_p), pair(b_q), u0, 1)


@st.composite
def imaginary_quadratic_pairs(draw):
    """(instance, prec) with d < 0: the limit is
    u0 |Gamma(-rho + i b_p sqrt|d|)|^2 / |Gamma(-rho + i b_q sqrt|d|)|^2."""
    return _conjugate_pair_instance(draw, [-1, -2, -3, -5], [-3, -7, -11]), draw(st.sampled_from([64, 128, 256]))


@st.composite
def real_quadratic_pairs(draw):
    """An instance with d > 0: the corpus-conditional shape."""
    return _conjugate_pair_instance(draw, [2, 3, 5, 6, 7], [5, 13, 17])


both_quadratic_pairs = st.one_of(imaginary_quadratic_pairs().map(lambda drawn: drawn[0]), real_quadratic_pairs())


class TestOnePairFormula:
    """Gamma(rho+w)Gamma(rho-w) in M = exp(i*pi*w), numeric and symbolic,
    pair by pair against mpmath's gamma function."""

    @settings(max_examples=30, deadline=None)
    @given(both_quadratic_pairs)
    def test_pair_values_contain_the_gamma_products(self, i):
        import mpmath

        orc = ConditionalLimitOracle(i, DEFAULT_CONFIG)
        for pair in orc.num_pairs + orc.den_pairs:
            w = pair.w.embed(600)
            with mpmath.workprec(512):
                wm = mpmath.mpc(*(mpmath.mpf(x.numerator) / x.denominator for x in (w.re.mid(), w.im.mid())))
                rho = mpmath.mpf(pair.rho.numerator) / pair.rho.denominator
                value = mpmath.gamma(rho + wm) * mpmath.gamma(rho - wm)
            re, im = mpf_fraction(value.real), mpf_fraction(value.imag)
            box = orc._pair_value(pair, 128)
            assert re in box.re and im in box.im
            # the identity for "pair value == t" is N - t * D, so the value
            # N / D is I(0) / (I(0) - I(1))
            i0, i1 = (
                evaluate_identity(build_identity([pair], [], F(1), t, orc.basis), 256) for t in (F(0), F(1))
            )
            assert re in i0.div(i0.sub(i1, 256), 256).re


class TestStatelessOracles:
    """An oracle is a function of its instance: decide_equal, compare and
    the limit enclosure answer the same whatever was asked before, on the
    same oracle or on a fresh one."""

    @staticmethod
    def _conditional_equal_instance():
        # L = 6 exactly: the identity cancels for t = 6
        f = IntPoly.of(-1, -2, 1)
        p = f * IntPoly.of(1, 1) * IntPoly.of(4, 1)
        q = f * IntPoly.of(2, 1) * IntPoly.of(3, 1)
        return HGInstance(p, q, F(2), F(6), Problem.MEMBERSHIP)

    @staticmethod
    def _answer(oracle, call):
        kind, arg = call
        if kind == "equal":
            return oracle.decide_equal(arg)
        if kind == "compare":
            return oracle.compare(arg)
        limit = getattr(oracle, "limit_enclosure", None) or oracle.constant.limit_enclosure
        return limit(arg)

    @pytest.mark.parametrize(
        "build, targets",
        [
            (lambda: ConditionalLimitOracle(TestStatelessOracles._conditional_equal_instance(), DEFAULT_CONFIG),
             [F(6), F(5), F(61, 10)]),
            (lambda: ConditionalLimitOracle(inst([-1, -1, 1], [-3, -1, 1], 1, 1), DEFAULT_CONFIG),
             [F(-5, 3), F(-3), F(-262, 100)]),
            (lambda: ConditionalLimitOracle(
                inst([3, 0, -2, 0, 2, 0, 1], [-3, 0, -5, 0, -1, 0, 1], 1, 1), DEFAULT_CONFIG),
             [F(1, 5), F(1, 7), F(158, 1000)]),
            (lambda: CanonicalLimitOracle(inst([13, -4, 1], [5, -4, 1], 1, 1), DEFAULT_CONFIG),
             [F(1, 13), F(1, 7), F(1, 10**6)]),
        ],
    )
    def test_answers_do_not_depend_on_call_order(self, build, targets):
        first = build()
        calls = [("equal", t) for t in targets]
        calls += [("compare", t) for t in targets if not first.decide_equal(t).equal]
        calls += [("enclosure", bits) for bits in (64, 256)]
        reference = {call: self._answer(build(), call) for call in calls}
        rng = random.Random(len(targets))
        for oracle in (first, first, build()):
            order = calls[:]
            rng.shuffle(order)
            assert {call: self._answer(oracle, call) for call in order} == reference

    def test_decisions_carry_their_certificate_fields(self):
        orc = ConditionalLimitOracle(self._conditional_equal_instance(), DEFAULT_CONFIG)
        equal, unequal = orc.decide_equal(F(6)), orc.decide_equal(F(5))
        assert equal.equal and not unequal.equal
        for eq in (equal, unequal):
            assert set(eq.matching) == {"p", "q"} and eq.canonical is None
        assert "stress_separated" not in equal.identity
        assert unequal.identity["stress_separated"] is True
        canon = CanonicalLimitOracle(inst([13, -4, 1], [5, -4, 1], 1, 1), DEFAULT_CONFIG)
        eq = canon.decide_equal(F(1, 13))
        assert eq.canonical == canon.constant.describe()
        assert eq.matching is None and eq.identity is None


class TestOneOrderTest:
    @settings(max_examples=30, deadline=None)
    @given(imaginary_quadratic_pairs(), st.fractions(min_value=-50, max_value=50, max_denominator=50))
    def test_limit_enclosures_contain_the_gamma_ratio_and_compares_agree(self, drawn, t):
        i, prec = drawn
        canon = CanonicalLimitOracle(i, DEFAULT_CONFIG)
        ident = ConditionalLimitOracle(i, DEFAULT_CONFIG)
        limit = gamma_ratio_limit(i.u0, [i.p], [i.q], prec)
        assert limit in canon.constant.limit_enclosure(prec)
        assert limit in ident.limit_enclosure(prec)
        for target in (t, F(f"{float(limit):.12g}")):
            if target == 0 or canon.decide_equal(target).equal:
                continue
            assert canon.compare(target)[0] == ident.compare(target)[0] == (1 if limit > target else -1)

    @settings(max_examples=30, deadline=None)
    @given(real_quadratic_pairs(), st.fractions(min_value=-50, max_value=50, max_denominator=50))
    def test_real_quadratic_enclosures_contain_the_gamma_ratio_and_compares_agree(self, i, t):
        """The conditional oracle's own traffic: no canonical form exists
        for d > 0, so mpmath's gamma ratio is the only reference."""
        ident = ConditionalLimitOracle(i, DEFAULT_CONFIG)
        limit = gamma_ratio_limit(i.u0, [i.p], [i.q], 256)
        for bits in (64, 128, 256):
            assert limit in ident.limit_enclosure(bits)
        for target in (t, F(f"{float(limit):.12g}")):
            if target == 0 or ident.decide_equal(target).equal:
                continue
            assert ident.compare(target)[0] == (1 if limit > target else -1)


# (p factors, q factors) of in-class pairs whose verdicts read the limit:
# three real-quadratic pairs (integer and half-integer centers, a falling
# translation factor) and the pair whose offsets meet in Q(zeta_12)
CONDITIONAL_PAIRS = {
    "neg-center": ([(7, 6, 1)], [(4, 6, 1)]),
    "golden": ([(-1, -1, 1)], [(-3, -1, 1)]),
    "half-center": ([(1, 5, 1)], [(-1, 5, 1)]),
    "phi12": ([(1, 0, -1, 0, 1), (3, 0, 1)], [(1, 0, 1), (1, 0, 1), (-3, 0, 1)]),
}
_M, _T = Problem.MEMBERSHIP, Problem.THRESHOLD
# (pair, problem, k, sign of the 2^-k offset): (result, reason, relation, bits).
# Each target lies 2^-k from L (relatively) on the side where no scan to
# the cap follows, except at k = 6, where both sides end.  k stays a few
# bits inside a rung (k = 40 at 64 bits, 100 or 120 at 128, 250 at 256);
# right at a rung's edge the rung follows the enclosure's last few bits
CONDITIONAL_RUNGS = [
    ("neg-center", _T, 6, 1, (False, "decreasing_tail_below_target", "less", 64)),
    ("neg-center", _T, 6, -1, (True, "decreasing_tail_above_target", "greater", 64)),
    ("neg-center", _T, 40, -1, (True, "decreasing_tail_above_target", "greater", 64)),
    ("neg-center", _T, 100, -1, (True, "decreasing_tail_above_target", "greater", 128)),
    ("neg-center", _T, 250, -1, (True, "decreasing_tail_above_target", "greater", 256)),
    ("neg-center", _M, 6, 1, (False, "monotone_tail_excludes_target", "less", 64)),
    ("neg-center", _M, 120, -1, (False, "monotone_tail_excludes_target", "greater", 128)),
    ("golden", _M, 6, 1, (False, "monotone_tail_excludes_target", "greater", 64)),
    ("golden", _M, 6, -1, (False, "monotone_tail_excludes_target", "less", 64)),
    ("golden", _M, 40, -1, (False, "monotone_tail_excludes_target", "less", 64)),
    ("golden", _M, 100, -1, (False, "monotone_tail_excludes_target", "less", 128)),
    ("golden", _M, 250, -1, (False, "monotone_tail_excludes_target", "less", 256)),
    ("half-center", _M, 6, 1, (False, "monotone_tail_excludes_target", "greater", 64)),
    ("half-center", _M, 120, -1, (False, "monotone_tail_excludes_target", "less", 128)),
    ("half-center", _M, 250, -1, (False, "monotone_tail_excludes_target", "less", 256)),
    ("phi12", _M, 6, 1, (False, "monotone_tail_excludes_target", "less", 64)),
    ("phi12", _M, 6, -1, (False, "monotone_tail_excludes_target", "greater", 64)),
    ("phi12", _M, 60, -1, (False, "monotone_tail_excludes_target", "greater", 128)),
    ("phi12", _M, 120, -1, (False, "monotone_tail_excludes_target", "greater", 128)),
    ("phi12", _M, 250, -1, (False, "monotone_tail_excludes_target", "greater", 256)),
]


@functools.lru_cache(maxsize=None)
def _conditional_limit(name):
    p_factors, q_factors = ([IntPoly(c) for c in fs] for fs in CONDITIONAL_PAIRS[name])
    return math.prod(p_factors, start=IntPoly.of(1)), math.prod(q_factors, start=IntPoly.of(1)), gamma_ratio_limit(
        F(1), p_factors, q_factors, 400
    )


class TestConditionalRungs:
    """Conditional verdicts at targets L(1 +- 2^-k): the compare rung
    grows with k, past the 64 bits that corpus documents reach."""

    @pytest.mark.parametrize("name, problem, k, sign, expected", CONDITIONAL_RUNGS)
    def test_verdict_relation_and_rung(self, name, problem, k, sign, expected):
        p, q, limit = _conditional_limit(name)
        v = decide(HGInstance(p, q, F(1), limit * (1 + F(sign, 2**k)), problem))
        assert (v.result, v.reason, v.compare_relation, v.compare_precision_bits) == expected
        assert v.conditionality is Conditionality.CONDITIONAL_ON_SCHANUEL
        assert v.equality_rationale is Rationale.IDENTITY_NONZERO
        assert v.identity["stress_separated"] is True


def test_unprintable_target_is_a_resource_error():
    # the identity certificate names t; past the interpreter's limit on
    # integer string conversion that is a resource error, not a crash
    i = inst([-2, 0, 1], [-8, 0, 1], 1, 1)
    t = term(i, 3000, EngineConfig(scan_cap=3000))
    assert t.numerator.bit_length() > 14_300  # over 4300 decimal digits
    with pytest.raises(PrecisionExceeded, match="too long to print"):
        decide(replace(i, t=t), EngineConfig(scan_cap=2000))
