import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgdecide.certs import InstanceDocument, certificate_dict, verify_certificate
from hgdecide.config import DEFAULT_CONFIG, EngineConfig
from hgdecide.corpus import cross_check
from hgdecide import equality, schanuel
from hgdecide.equality import (
    compare,
    decide,
    decide_equal,
    limit_oracle,
)
from hgdecide.errors import PrecisionExceeded, ScanCapExceeded, UnsupportedInstance
from hgdecide.gammacanon import CanonicalConstant
from hgdecide.polys import IntPoly, integer_roots
from hgdecide.sequence import (
    BruteKind,
    ExactScan,
    HGInstance,
    Problem,
    Variant,
    brute_force,
    term,
)
from hgdecide.verdicts import Conditionality, Rationale
from gammaforms import gamma_ratio_limit
from intervals import record_enclosures
from test_schanuel import both_quadratic_pairs, cert_conditionality


def inst(p, q, u0, t, problem=Problem.MEMBERSHIP):
    return HGInstance(IntPoly(tuple(p)), IntPoly(tuple(q)), F(u0), F(t), problem)


def trivial_const(theta, ell=0):
    return CanonicalConstant(F(theta), F(0), ell, IntPoly.of(1), IntPoly.of(1), 1, 1, True)


class TestDecideEqual:
    def test_worked_example_never_rational(self, sinh_ratio_instance):
        oracle = limit_oracle(sinh_ratio_instance(F(1, 13)), DEFAULT_CONFIG, False)
        for t in (F(1, 13), F(22, 7), F(-3), F(10**6, 999983)):
            r = oracle.decide_equal(t)
            assert not r.equal and r.rationale is Rationale.TRANSCENDENCE_OBSTRUCTION

    def test_rational_identity(self):
        assert decide_equal(trivial_const(F(3, 2)), F(3, 2)).equal
        r = decide_equal(trivial_const(F(3, 2)), F(5, 2))
        assert not r.equal and r.rationale is Rationale.RATIONAL_IDENTITY

    def test_pi_power_obstruction(self):
        r = decide_equal(trivial_const(1, ell=1), F(22, 7))
        assert not r.equal and r.rationale is Rationale.PI_POWER_OBSTRUCTION

    def test_no_interval_evaluations(self, sinh_ratio_instance, monkeypatch):
        oracle = limit_oracle(sinh_ratio_instance(F(1, 13)), DEFAULT_CONFIG, False)
        rng = random.Random(11)
        calls = record_enclosures(monkeypatch)
        for _ in range(300):
            t = F(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6))
            oracle.decide_equal(t)
        assert calls == []
        oracle.compare(F(1, 26))  # the probe sees an order test
        assert "limit_enclosure" in calls and "exp_interval" in calls

    def test_deterministic(self, sinh_ratio_instance):
        oracle = limit_oracle(sinh_ratio_instance(F(1, 13)), DEFAULT_CONFIG, False)
        a = [oracle.decide_equal(F(5, 7)) for _ in range(3)]
        assert all(x == a[0] for x in a)

    def test_irrational_theta_never_equals_rational(self):
        c = CanonicalConstant(F(0), F(2, 3), 0, IntPoly.of(1), IntPoly.of(1), 2, 1, False)
        r = decide_equal(c, F(7))
        assert not r.equal and r.rationale is Rationale.RATIONAL_IDENTITY


class TestCompare:
    def test_worked_example_sides(self, sinh_ratio_instance):
        oracle = limit_oracle(sinh_ratio_instance(F(1, 13)), DEFAULT_CONFIG, False)
        assert oracle.compare(F(1, 26))[0] < 0  # limit ~ 4.78e-5 < 1/26
        assert oracle.compare(F(1, 10**5))[0] > 0

    def test_pi_vs_22_7(self):
        sign, bits, enc = compare(trivial_const(1, ell=1), F(22, 7))
        assert sign < 0 and bits == 64 and enc.compare_fraction(F(22, 7)) == sign

    def test_cap_is_resource_error(self):
        cfg = EngineConfig(precision_cap_bits=64)
        # 1/3 vs a rational insanely close to it cannot separate at 64 bits
        close = F(1, 3) + F(1, 2**200)
        with pytest.raises(PrecisionExceeded):
            compare(trivial_const(F(1, 3)), close, cfg)


class TestMembershipPipeline:
    def test_worked_example_members(self, sinh_ratio_instance):
        i = sinh_ratio_instance(F(1, 13))
        v = decide(i)
        assert v.result and v.witness == 2 and cert_conditionality(i, v) is Conditionality.UNCONDITIONAL
        v2 = decide(sinh_ratio_instance(F(5, 13)))
        assert v2.result and v2.witness == 1

    def test_worked_example_not_member(self, sinh_ratio_instance):
        i = sinh_ratio_instance(F(1, 7))
        v = decide(i)
        assert not v.result and cert_conditionality(i, v) is Conditionality.UNCONDITIONAL

    def test_powers_of_two(self):
        v = decide(inst([1], [2], 3, 48))
        assert v.result and v.witness == 4

    def test_least_witness(self):
        # constant-ratio sequence hitting t twice is impossible; check least
        # witness on a shrink instance where u_1 == u_0 * 1/2 etc.
        i = inst([2, 1], [1, 1], 1, F(1, 5))
        v = decide(i)
        assert v.result and v.witness == 4 and term(i, 4) == F(1, 5)

    def test_limit_equal_target_never_attained(self):
        p = IntPoly.of(4, 5, 1)
        q = IntPoly.of(6, 5, 1)
        i = HGInstance(p, q, F(3), F(9), Problem.MEMBERSHIP)  # limit = 3*u0 = 9
        v = decide(i)
        assert not v.result and v.reason == "limit_equals_target_not_attained"
        assert v.equality.rationale is Rationale.RATIONAL_IDENTITY

    def test_non_monic_tail_moving_away_decides(self, no_oracle):
        # u_n rises from u_0 = 1 to L ~ 7.52: t = 1/2 lies behind the tail,
        # so the verdict needs no limit and no monic pair
        i = inst([1, 1, 2], [3, 1, 2], 1, F(1, 2))
        v = decide(i)
        assert not v.result and v.reason == "monotone_tail_excludes_target"
        assert cert_conditionality(i, v) is Conditionality.UNCONDITIONAL
        assert v.equality is None and v.compare is None
        cert = certificate_dict(InstanceDocument(i, "unconditional"), v)
        assert verify_certificate(cert) == []

    def test_non_monic_tail_moving_towards_target_unsupported(self):
        # t = 8 lies beyond L ~ 7.52: only the limit keeps the tail off t
        with pytest.raises(UnsupportedInstance):
            decide(inst([1, 1, 2], [3, 1, 2], 1, 8))

    def test_non_monic_bounded_regimes_still_decide(self):
        # u_n telescopes to 2n+1, so 7 is reached at n = 3
        v = decide(inst([1, 2], [3, 2], 1, 7))
        assert v.result and v.witness == 3

    def test_ratio_minus_one_unsupported(self):
        with pytest.raises(UnsupportedInstance):
            decide(inst([1, 1], [-1, -1], 1, 5))

    def test_alternating_unit_ratio_growth_decides(self):
        # r(k) = -(k + 2)/(k + 1): u_n = (-1)^n (n + 1), |u_n| grows like n
        i = inst([1, 1], [-2, -1], 1, 101)
        v = decide(i)
        assert (v.result, v.reason, v.witness) == (True, "divergence_bound", 100)
        assert v.reason.asymptotic(i).exponent == 1

    def test_ratio_minus_one_census(self):
        # random pairs with q/p -> -1, degree 1-3: every one with a nonzero
        # magnitude exponent A decides (or meets the scan cap), agrees with
        # brute force and verifies; A = 0 stays unsupported
        config = EngineConfig(scan_cap=2 * 10**4)
        rng = random.Random(5)
        outcomes = {"decided": 0, "unsupported": 0, "cap": 0}
        count = 0
        while count < 499:
            d = rng.randint(1, 3)
            lead = rng.choice([1, 1, 2, 3])
            p = IntPoly(tuple(rng.randint(-9, 9) for _ in range(d)) + (lead,))
            q = IntPoly(tuple(rng.randint(-9, 9) for _ in range(d)) + (-lead,))
            u0 = F(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 4))
            problem = rng.choice(list(Problem))
            if any(r >= 0 for r in integer_roots(p)):
                continue
            count += 1
            probe = HGInstance(p, q, u0, F(1), problem)
            if rng.random() < 0.4:
                t = term(probe, rng.randint(0, 30)) or F(1, 7)
            else:
                t = F(rng.randint(-1000, 1000) or 7, rng.randint(1, 100))
            i = replace(probe, t=t)
            assert i.recurrence.asymptotic.variant is Variant.RATIO_LIMIT_MINUS_ONE
            try:
                v = decide(i, config)
            except UnsupportedInstance:
                assert i.recurrence.asymptotic.exponent == 0
                outcomes["unsupported"] += 1
                continue
            except ScanCapExceeded:
                outcomes["cap"] += 1
                continue
            outcomes["decided"] += 1
            assert cross_check(i, v.result, v.witness, 3000, config) is None, i
            assert verify_certificate(certificate_dict(InstanceDocument(i, "auto"), v), config) == [], i
        # one instance, A = -1/2, shrinks too slowly for the cap
        assert outcomes["unsupported"] == 22 and outcomes["cap"] <= 1


class TestThresholdPipeline:
    def test_worked_example_fails_at_three(self, sinh_ratio_instance):
        v = decide(sinh_ratio_instance(F(1, 26), Problem.THRESHOLD))
        assert not v.result and v.witness == 3

    def test_zero_threshold_holds(self, sinh_ratio_instance):
        v = decide(sinh_ratio_instance(F(0), Problem.THRESHOLD))
        assert v.result

    def test_powers_hold(self):
        assert decide(inst([1], [2], 1, 1, Problem.THRESHOLD)).result

    def test_decreasing_to_limit(self):
        p, q = IntPoly.of(6, 5, 1), IntPoly.of(4, 5, 1)
        mk = lambda t: HGInstance(p, q, F(3), F(t), Problem.THRESHOLD)
        assert decide(mk(1)).result  # limit exactly 1, approached from above
        assert decide(mk(F(99, 100))).result
        v = decide(mk(F(101, 100)))
        assert not v.result and term(HGInstance(p, q, F(3), F(0), Problem.THRESHOLD), v.witness) < F(101, 100)


# p = x^3 + 1, q = x^3 + 1 + 10^6 (1055 - x): q is an irreducible cubic,
# so the limit lies outside both engines' class; k0 is about 10^9
CUBIC = ([1, 0, 0, 1], [1 + 1055 * 10**6, -(10**6), 0, 1])
# p = (6x + 1)(6x + 5), q = (6x + 2)(6x + 4): balanced but not monic
SIXTHS = ([5, 36, 36], [8, 36, 36])
EXCLUDED = "monotone_tail_excludes_target"
FALLING_ABOVE = "decreasing_tail_above_target"


class OracleBuilt(Exception):
    pass


@pytest.fixture
def no_oracle(monkeypatch):
    def build(inst, config, conditional):
        raise OracleBuilt()

    monkeypatch.setattr(equality, "limit_oracle", build)


class TestScanFirst:
    """The balanced branch builds the limit oracle only for verdicts that
    read the limit."""

    @pytest.mark.parametrize(
        "p,q,u0,t,problem,reason,witness",
        [
            (*CUBIC, 1, None, Problem.MEMBERSHIP, "prefix_witness", 300),
            ([13, -4, 1], [5, -4, 1], 1, F(1, 13), Problem.MEMBERSHIP, "prefix_witness", 2),
            ([13, -4, 1], [5, -4, 1], 1, F(1, 26), Problem.THRESHOLD, "prefix_violation", 3),
            ([4, 5, 1], [6, 5, 1], 1, 1, Problem.THRESHOLD, "increasing_tail", None),
            (*SIXTHS, 1, 3, Problem.THRESHOLD, "prefix_violation", 0),
            (*SIXTHS, 1, F(1, 2), Problem.THRESHOLD, "increasing_tail", None),
            # negative leads: q(k) - p(k) = -2 < 0, yet
            # q(k)/p(k) = (k + 2)(k + 3)/((k + 1)(k + 4)) > 1
            ([-4, -5, -1], [-6, -5, -1], 1, F(1, 2), Problem.THRESHOLD, "increasing_tail", None),
            # Membership tails moving away from t (the worked pair falls
            # from u_17 ~ 8.3e-5, below t = 10^-4; SIXTHS rises from above
            # t = 1/2), and tails of the other sign than t (the worked pair
            # with t = -1; the negative tail of x^2 - 2x - 1, x^2 - 2x - 4,
            # a real quadratic pair, with t = 2)
            ([13, -4, 1], [5, -4, 1], 1, F(1, 10**4), Problem.MEMBERSHIP, EXCLUDED, None),
            (*SIXTHS, 1, F(1, 2), Problem.MEMBERSHIP, EXCLUDED, None),
            ([13, -4, 1], [5, -4, 1], 1, -1, Problem.MEMBERSHIP, EXCLUDED, None),
            ([-1, -2, 1], [-4, -2, 1], 1, 2, Problem.MEMBERSHIP, EXCLUDED, None),
            # positive Threshold tails falling to L >= 0 over t < 0: the
            # worked pair, a non-monic pair, a real quadratic pair
            ([13, -4, 1], [5, -4, 1], 1, -1, Problem.THRESHOLD, FALLING_ABOVE, None),
            ([3, 1, 2], [1, 1, 2], 1, F(-1, 2), Problem.THRESHOLD, FALLING_ABOVE, None),
            ([-1, -3, 1], [-3, -3, 1], 4, -1, Problem.THRESHOLD, FALLING_ABOVE, None),
        ],
    )
    def test_limit_free_verdicts_never_build_the_oracle(self, no_oracle, p, q, u0, t, problem, reason, witness):
        if t is None:
            t = term(inst(p, q, u0, 0), witness)
        i = inst(p, q, u0, t, problem)
        v = decide(i)
        assert (v.reason, v.witness) == (reason, witness)
        assert v.result == (reason not in ("prefix_violation", EXCLUDED))
        assert cert_conditionality(i, v) is Conditionality.UNCONDITIONAL

    def test_prefix_violation_scans_to_the_violation(self, no_oracle):
        # u_1 = 11701 / (2^20 * 11701) = 2^-20 < 1/2, while k0 + 1 is past
        # the scan cap: the certificate claims the scan up to the witness
        i = inst([2**20 * 11701, 0, 1], [11701, 0, 1], 1, F(1, 2), Problem.THRESHOLD)
        v = decide(i)
        assert (v.reason, v.witness, v.scanned_up_to) == ("prefix_violation", 1, 1)
        assert verify_certificate(certificate_dict(InstanceDocument(i, "unconditional"), v)) == []

    def test_limit_reading_verdicts_build_the_oracle(self, no_oracle, monkeypatch):
        # the worked pair falls to L ~ 4.78e-5: t = 10^-5 lies beyond it
        for t, problem in [(F(1, 10**5), Problem.MEMBERSHIP), (F(1, 10**5), Problem.THRESHOLD)]:
            with pytest.raises(OracleBuilt):
                decide(inst([13, -4, 1], [5, -4, 1], 1, t, problem))
        # the build needs a monic pair; SIXTHS rises to L = sqrt(3) < 2
        monkeypatch.undo()
        with pytest.raises(UnsupportedInstance):
            decide(inst(*SIXTHS, 1, 2))

    def test_tail_moving_away_is_bounded_past_the_prefix(self, no_oracle):
        # the worked pair falls past t between u_{k0+1} and u_{k0+2}: the
        # tail moves away from t only from k0 + 2 on, where the bound lies
        p, q = [13, -4, 1], [5, -4, 1]
        k0 = inst(p, q, 1, 0).recurrence.monotonicity_index
        t = (term(inst(p, q, 1, 0), k0 + 1) + term(inst(p, q, 1, 0), k0 + 2)) / 2
        v = decide(inst(p, q, 1, t))
        assert (v.reason, v.scanned_up_to, v.bound) == (EXCLUDED, k0 + 1, k0 + 2)
        cert = certificate_dict(InstanceDocument(inst(p, q, 1, t), "unconditional"), v)
        assert verify_certificate(cert) == []
        cert["bound"]["n"] = k0 + 1  # u_{k0+1} is above t: the tail moves towards it
        assert verify_certificate(cert)


    def test_positive_tail_over_negative_target_is_bounded(self, no_oracle):
        # u_n > L >= 0 > t from k0 + 2 on: the bound replay proves it
        p, q = [13, -4, 1], [5, -4, 1]
        i = inst(p, q, 1, -1, Problem.THRESHOLD)
        k0 = i.recurrence.monotonicity_index
        v = decide(i)
        assert (v.reason, v.scanned_up_to, v.bound) == (FALLING_ABOVE, k0 + 1, k0 + 2)
        assert v.equality is None and v.compare is None
        cert = certificate_dict(InstanceDocument(i, "unconditional"), v)
        assert verify_certificate(cert) == []
        cert["instance"]["t"] = "1/100000"  # beyond L ~ 4.78e-5: the tail reaches it
        assert any("the tail falls" in f for f in verify_certificate(cert))

    def test_real_quadratic_positive_tail_over_negative_target_is_unconditional(self):
        i = inst([-1, -3, 1], [-3, -3, 1], 4, -1, Problem.THRESHOLD)
        v = decide(i)
        assert v.result and v.reason == FALLING_ABOVE
        assert cert_conditionality(i, v) is Conditionality.UNCONDITIONAL and v.equality is None


class TestVerdictOracleConsistency:
    def test_small_random_sweep(self):
        rng = random.Random(5)
        checked = 0
        for _ in range(60):
            a = rng.randint(-3, 3)
            d = rng.choice([-1, -2, -3, -7])
            b1, b2 = rng.randint(1, 3), rng.randint(1, 3)
            i = inst(
                [a * a - b1 * b1 * d, -2 * a, 1], [a * a - b2 * b2 * d, -2 * a, 1],
                F(rng.randint(1, 4)),
                F(rng.randint(-30, 30) or 1, rng.randint(1, 30)),
                rng.choice([Problem.MEMBERSHIP, Problem.THRESHOLD]),
            )
            v = decide(i)
            bf = brute_force(i, 3000)
            if i.problem is Problem.MEMBERSHIP:
                if v.result:
                    assert bf.kind is BruteKind.FOUND_MEMBERSHIP and bf.index == v.witness
                else:
                    assert bf.kind is BruteKind.NONE_UP_TO
            else:
                if v.result:
                    assert bf.kind is BruteKind.THRESHOLD_HOLDS_UP_TO
                else:
                    assert bf.kind is BruteKind.THRESHOLD_VIOLATION and bf.index == v.witness
            checked += 1
        assert checked >= 20


class TestSpecialRegimes:
    def test_zero_initial_value(self):
        assert decide(inst([1, 1], [2, 1], 0, 0)).result
        assert not decide(inst([1, 1], [2, 1], 0, 1)).result
        assert decide(inst([1, 1], [2, 1], 0, -1, Problem.THRESHOLD)).result
        assert not decide(inst([1, 1], [2, 1], 0, 1, Problem.THRESHOLD)).result

    def test_zero_target_membership(self):
        assert decide(inst([1, 1], [-3, 1], 2, 0)).witness == 4
        assert not decide(inst([1, 1], [2, 1], 1, 0)).result

    def test_zero_tail_membership_and_threshold(self):
        v = decide(inst([1, 1], [-3, 1], 2, -6))
        assert v.result and v.witness == 1
        v2 = decide(inst([1, 1], [-3, 1], 2, -7, Problem.THRESHOLD))
        assert v2.result  # min value -6 >= -7, tail zero
        v3 = decide(inst([1, 1], [-3, 1], 2, F(1, 10), Problem.THRESHOLD))
        assert not v3.result  # tail of zeros < 1/10

    def test_zero_target_on_a_zero_tail_past_the_cap_is_a_resource_error(self):
        # u_n vanishes from n = 2*10^6 + 1 on: t = 0 is a member there, but
        # no scan within the cap reaches it, and a witness verify cannot
        # replay is no verdict
        with pytest.raises(ScanCapExceeded):
            decide(inst([1, 1], [-2 * 10**6, 1], 1, 0), EngineConfig(scan_cap=1000))

    def test_zero_tail_under_a_zero_threshold_claims_its_scan(self):
        # u_n = 1, 2, 1, 0, 0, ...: q = 2 - x vanishes at 2, so u_3 = 0 >= 0
        # closes the prefix and the zeros after it hold too
        i = inst([1, 1], [2, -1], 1, 0, Problem.THRESHOLD)
        cert = certificate_dict(InstanceDocument(i, "auto"), decide(i))
        assert (cert["verdict"], cert["reason"], cert["scanned_up_to"]) == ("holds", "zero_tail", 3)
        assert "notes" not in cert and "witness" not in cert and "bound" not in cert
        assert verify_certificate(cert) == []

    def test_zero_tail_witness_claims_the_scan_up_to_it(self):
        # u_n = 1, -5, 10, -10, 5, -1, then 0 from q(5) = 0: t = u_2
        v = decide(inst([1, 1], [-5, 1], 1, 10))
        assert (v.result, v.reason, v.witness, v.scanned_up_to) == (True, "zero_tail", 2, 2)

    @pytest.mark.parametrize("problem", list(Problem))
    def test_zero_tail_verdicts_agree_with_brute_force_and_verify(self, problem):
        # q has a first nonnegative root k0 in 0..4; the targets include 0,
        # every term of the prefix and values the terms never take
        rng = random.Random(39)
        for k0 in range(5):
            for _ in range(6):
                p = [rng.randint(1, 6), rng.choice([1, 2])]
                q = [-k0 * (c := rng.choice([1, -1, 2])), c]
                i = inst(p, q, F(rng.randint(-5, 5) or 1, rng.randint(1, 3)), 1, problem)
                prefix = [term(i, n) for n in range(k0 + 2)]
                assert prefix[-1] == 0 and 0 not in prefix[:-1]
                for t in [F(0), F(1, 7), F(-1, 7), *prefix, prefix[0] + 1, prefix[-2] - 1]:
                    i = replace(i, t=t)
                    v = decide(i)
                    assert v.reason == "zero_tail"
                    last = k0 + 1
                    assert v.scanned_up_to == (last if v.witness is None else v.witness)
                    names_witness = v.result == (problem is Problem.MEMBERSHIP)
                    assert (v.witness is not None) == names_witness
                    assert brute_force(i, last + 5).index == v.witness
                    cert = certificate_dict(InstanceDocument(i, "auto"), v)
                    assert verify_certificate(cert) == [], cert

    @pytest.mark.parametrize(
        "p,q,u0,t,result,witness,reason",
        [
            # t = 0: u_1 = 2 * 5 / (-2) < 0
            ([-2, 2, 1], [5, 1, 3], 2, 0, False, 1, "sign_analysis"),
            # t = 0: u_n = 4/3, 1, 2/5, 1/15, then 0 from q(3) = 0 on
            ([-4, -1], [-3, 1], F(4, 3), 0, True, None, "zero_tail"),
            # r(k) = -(2k + 2)/(k + 3) -> -2: the negative u_6 = -64/21 is the
            # first below t = -2, one past the divergence bound N = 5
            ([-3, -1], [2, 2], F(-4, 3), -2, False, 6, "divergence_bound"),
        ],
    )
    def test_threshold_regimes_agree_with_brute_force(self, p, q, u0, t, result, witness, reason):
        i = inst(p, q, u0, t, Problem.THRESHOLD)
        v = decide(i)
        assert (v.result, v.witness, v.reason) == (result, witness, reason)
        bf = brute_force(i, 200)
        if result:
            assert bf.kind is BruteKind.THRESHOLD_HOLDS_UP_TO
        else:
            assert (bf.kind, bf.index) == (BruteKind.THRESHOLD_VIOLATION, witness)
        assert verify_certificate(certificate_dict(InstanceDocument(i, "unconditional"), v)) == []

    def test_constant_sequence(self):
        assert decide(inst([5, 1], [5, 1], 7, 7)).witness == 0
        assert not decide(inst([5, 1], [5, 1], 7, 8)).result
        assert decide(inst([5, 1], [5, 1], 7, 7, Problem.THRESHOLD)).result
        assert not decide(inst([5, 1], [5, 1], 7, 8, Problem.THRESHOLD)).result

    def test_alternating_growth(self):
        v = decide(inst([1], [-2], 1, 16))
        assert v.result and v.witness == 4
        assert not decide(inst([1], [-2], 1, 32)).result
        assert not decide(inst([1], [-2], 1, -100, Problem.THRESHOLD)).result


class _Blind:
    """An enclosure that settles no comparison."""

    def compare_fraction(self, q):
        return None


def _outcome(i, config, shortcut=True):
    """(outcome, reach, orders): decide's verdict, "cap" for
    ScanCapExceeded or "precision" for PrecisionExceeded (a target too
    long to print in the conditional oracle's certificate); the index of
    the scan that went furthest; and each (sign, bits, enclosure) the
    order test returned.  Without `shortcut` the order test hands decide
    an enclosure that proves nothing about where the tail crosses t, so
    every crossing is searched for."""
    scans, orders = [], []
    init = ExactScan.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        scans.append(self)

    def recording_compare(value, t, config=DEFAULT_CONFIG):
        sign, bits, enc = compare(value, t, config)
        orders.append((sign, bits, enc))
        return sign, bits, enc if shortcut else _Blind()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExactScan, "__init__", recording_init)
        mp.setattr(equality, "compare", recording_compare)
        mp.setattr(schanuel, "compare", recording_compare)
        try:
            out = decide(i, config)
        except ScanCapExceeded:
            out = "cap"
        except PrecisionExceeded:
            out = "precision"
    return out, max((s.n for s in scans), default=0), orders


@st.composite
def crossing_cases(draw):
    """(instance, cap, k): an in-class balanced pair (imaginary or real
    quadratic), either problem, u0 of either sign, and a cap C in
    50..3000.  k = 0: t lies at or between exact terms so that the tail
    crosses it at C - 2 .. C + 2.  k > 0: t = L(1 +- 2^-k), two times in
    three on the side the tail comes from."""
    i = draw(both_quadratic_pairs)
    u0 = i.u0 * draw(st.sampled_from([1, -1]))
    i = replace(i, u0=u0, problem=draw(st.sampled_from([Problem.MEMBERSHIP, Problem.THRESHOLD])))
    cap = draw(st.integers(50, 3000))
    if draw(st.booleans()):
        m = cap + draw(st.integers(-2, 2))
        config = EngineConfig(scan_cap=m)
        lo, hi = term(i, m - 1, config), term(i, m, config)
        # u_m itself, or a short rational strictly between u_{m-1} and u_m
        if draw(st.booleans()):
            return replace(i, t=hi), cap, 0
        t = ((lo + hi) / 2).limit_denominator(10**40)
        assert min(lo, hi) < t < max(lo, hi)
        return replace(i, t=t), cap, 0
    k = draw(st.one_of(st.integers(4, 39), st.integers(40, 120)))
    limit = gamma_ratio_limit(u0, [i.p], [i.q], k + 64)
    k0 = i.recurrence.monotonicity_index
    scan = ExactScan(i, k0 + 2)
    scan.jump(k0 + 2)
    # mostly on the side the tail comes from, where it must cross t
    towards = -scan.tail_direction() * (1 if limit > 0 else -1)
    s = draw(st.sampled_from([towards, towards, -towards]))
    return replace(i, t=limit * (1 + s * F(1, 2**k))), cap, k


class TestCrossingPastCap:
    """A balanced tail that must still cross t exits at the cap without a
    scan when the limit's enclosure puts the crossing past it, with the
    outcome a scan to the cap reaches."""

    @settings(max_examples=100, deadline=None)
    @given(crossing_cases())
    def test_outcome_is_the_scans(self, case):
        i, cap, k = case
        config = EngineConfig(scan_cap=cap)
        out, reached, orders = _outcome(i, config)
        assert out == _outcome(i, config, shortcut=False)[0]
        if out == "cap":
            assert brute_force(i, cap + 1, EngineConfig(scan_cap=cap + 1)).index is None
        for sign, bits, enc in orders:
            assert gamma_ratio_limit(i.u0, [i.p], [i.q], bits + 64) in enc
            assert enc.compare_fraction(i.t) == sign
        # |r(C) - 1| >= 2/C^2 > 2^-23 here, so t within 2^-40 of L, on the
        # side the tail comes from, is proven out of reach without a scan
        if k >= 40 and out == "cap" and i.recurrence.monotonicity_index + 2 <= cap:
            assert reached <= i.recurrence.monotonicity_index + 2
