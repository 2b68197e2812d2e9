import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hgdecide import polys
from hgdecide.certs import InstanceDocument, parse_instance, verify_certificate
from hgdecide.cli import decide_document
from hgdecide.config import DEFAULT_CONFIG, EngineConfig
from hgdecide.corpus import FAMILIES, generate_documents
from hgdecide.errors import DecideError, ScanCapExceeded, UnsupportedInstance
from hgdecide.polys import IntPoly, integer_roots
from hgdecide.sequence import (
    BruteKind,
    ExactScan,
    HGInstance,
    Problem,
    Variant,
    brute_force,
    classify,
    divergence_bound,
    recurrence,
    shrink_bound,
    term,
    terms,
)


def inst(p, q, u0, t, problem=Problem.MEMBERSHIP):
    return HGInstance(IntPoly(tuple(p)), IntPoly(tuple(q)), F(u0), F(t), problem)


class TestTerm:
    def test_worked_example_terms(self, sinh_ratio_instance):
        i = sinh_ratio_instance(F(1, 13))
        assert [term(i, n) for n in range(4)] == [1, F(5, 13), F(1, 13), F(1, 117)]

    def test_base_case(self):
        assert term(inst([2, 1], [1, 1], F(7, 3), 0), 0) == F(7, 3)

    def test_cap(self):
        from hgdecide.config import EngineConfig

        with pytest.raises(ScanCapExceeded):
            term(inst([1, 1], [2, 1], 1, 0), 50, EngineConfig(scan_cap=10))

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=2),
        st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=2),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
    )
    def test_recurrence_identity(self, proots, qcoeffs, u0):
        p = IntPoly.of(1)
        for r in proots:
            p = p * IntPoly.of(r, 1)  # roots at -r < 0
        q = IntPoly(tuple(qcoeffs) + (1,))
        i = inst(p.coeffs, q.coeffs, u0, 0)
        vals = list(terms(i, 30))
        for n in range(29):
            assert p(n) * vals[n + 1] == q(n) * vals[n]


class TestClassify:
    def test_balanced_worked_example(self):
        c = classify(IntPoly.of(13, -4, 1), IntPoly.of(5, -4, 1))
        assert c.variant is Variant.RATIO_LIMIT_ONE and c.exponent == 0 and c.is_balanced

    def test_product_to_zero(self):
        rec = recurrence(IntPoly.of(2, 1), IntPoly.of(1, 1))
        c = rec.asymptotic
        assert c.variant is Variant.RATIO_LIMIT_ONE and c.exponent == -1 and c.is_bounded
        assert rec.tail_signs == (1, -1)  # |u_n| falls

    def test_constant_ratio(self):
        rec = recurrence(IntPoly.of(1, 1), IntPoly.of(2, 2))
        c = rec.asymptotic
        assert c.variant is Variant.CONVERGES_TO and c.ratio_limit == 2 and c.is_bounded
        assert rec.tail_signs == (1, 1)  # |u_n| rises

    def test_minus_one(self):
        assert classify(IntPoly.of(1, 1), IntPoly.of(1, -1)).variant is Variant.RATIO_LIMIT_MINUS_ONE

    def test_degree_mismatch(self):
        assert classify(IntPoly.of(1, 1), IntPoly.of(1, 1, 1)).variant is Variant.DIVERGES_TO_INFINITY
        assert classify(IntPoly.of(1, 1, 1), IntPoly.of(1, 1)).variant is Variant.CONVERGES_TO_ZERO_RATIO

    def test_vieta_equivalence_with_root_sums(self):
        # balanced iff the root sums agree (monic, equal degree)
        from hgdecide.polys import roots_quadratic

        p = IntPoly.of(13, -4, 1)
        q = IntPoly.of(5, -4, 1)
        rp, rq = roots_quadratic(p), roots_quadratic(q)
        sum_p = sum((e.root.a for e in rp), F(0))
        sum_q = sum((e.root.a for e in rq), F(0))
        assert sum_p == sum_q and classify(p, q).is_balanced


def direction_by_leads(p: IntPoly, q: IntPoly) -> int:
    """The leading-coefficient rule: 1 when |u_n| grows, -1 when it
    shrinks, 0 for r -> +-1 with exponent A = 0 (no bound settles it), read
    off the degrees, the leads and, at |lead q| = |lead p|, the sign of
    A = (s q_{d-1} - p_{d-1}) / lead p with s = lead q / lead p."""
    if q.degree != p.degree:
        return 1 if q.degree > p.degree else -1
    if abs(q.lead) != abs(p.lead):
        return 1 if abs(q.lead) > abs(p.lead) else -1
    d = p.degree
    if d == 0:
        return 0
    s = 1 if q.lead == p.lead else -1
    a = F(s * q.coeffs[d - 1] - p.coeffs[d - 1], p.lead)
    return (a > 0) - (a < 0)


leads = st.sampled_from([1, -1, 2, -2, 3, -3])


class TestTailDirection:
    # pairs of degree 0 to 4 with non-monic leads; `lead` gives q the degree
    # of p and p's lead times +-1, and `sub` then also p's subleading
    # coefficient (times that sign) plus sub, so that A is small or 0
    @settings(max_examples=400, deadline=None)
    @given(p_low=st.lists(st.integers(-3, 3), max_size=4), p_lead=leads,
           q_low=st.lists(st.integers(-3, 3), max_size=4), q_lead=leads,
           lead=st.sampled_from([None, 1, -1]), sub=st.none() | st.integers(-2, 2))
    @example(p_low=[1], p_lead=1, q_low=[5], q_lead=1, lead=1, sub=0)  # q = p: balanced
    @example(p_low=[0, 3], p_lead=2, q_low=[1, -3], q_lead=-2, lead=-1, sub=0)  # r -> -1, A = 0
    @example(p_low=[0, 3], p_lead=2, q_low=[1, -2], q_lead=-2, lead=-1, sub=1)  # r -> -1, A = -1/2
    def test_record_direction_is_the_leading_coefficient_rule(self, p_low, p_lead, q_low, q_lead, lead, sub):
        if lead is not None:
            q_low = (q_low + [0] * len(p_low))[:len(p_low)]
            q_lead = lead * p_lead
            if sub is not None and p_low:
                q_low[-1] = lead * p_low[-1] + sub
        p, q = IntPoly(tuple(p_low) + (p_lead,)), IntPoly(tuple(q_low) + (q_lead,))
        rec = recurrence(p, q)
        want = direction_by_leads(p, q)
        assert rec.asymptotic.is_bounded == (want != 0)
        if want:
            assert rec.tail_signs[1] == want


class TestBounds:
    def test_divergence_examples(self):
        b, _ = divergence_bound(inst([1, 1], [3, 1], 1, 7))
        i = inst([1, 1], [3, 1], 1, 7)
        for n in range(b, b + 51):
            assert abs(term(i, n)) > 7
            assert abs(F(i.q(n), i.p(n))) > 1
        b2, _ = divergence_bound(inst([1], [2], 1, 1000))
        assert 2**b2 > 1000

    def test_inverted_roles(self):
        i = inst([1, 1], [2, 1], 1, 100)  # u_n = (n+2)/2... diverges
        b, _ = divergence_bound(i)
        for n in range(b, b + 51):
            assert abs(term(i, n)) > 100

    def test_shrink_examples(self):
        i = inst([2, 1], [1, 1], 1, F(1, 10))  # u_n = 1/(n+1)
        b, _ = shrink_bound(i)
        for n in range(b, b + 51):
            assert abs(term(i, n)) < F(1, 10)
            assert abs(F(i.q(n), i.p(n))) < 1
        b2, _ = shrink_bound(inst([2], [1], 1, F(1, 100)))
        assert F(1, 2**b2) < F(1, 100)
        i3 = inst([3, 1], [1, 1], 4, F(1, 5))
        b3, _ = shrink_bound(i3)
        assert abs(term(i3, b3)) < F(1, 5)

    def test_first_hit_is_the_least_witness(self):
        threshold = Problem.THRESHOLD
        assert divergence_bound(inst([1], [2], 3, 48))[1] == 4  # u_n = 3 * 2^n
        assert divergence_bound(inst([1], [2], 3, 50))[1] is None
        assert divergence_bound(inst([1], [2], 3, 10, threshold))[1] == 0
        assert shrink_bound(inst([2, 1], [1, 1], 1, F(1, 5)))[1] == 4  # u_n = 1/(n+1)
        assert shrink_bound(inst([2, 1], [1, 1], 1, F(1, 10), threshold))[1] == 10

    def test_wrong_class_rejected(self):
        with pytest.raises(DecideError):
            divergence_bound(inst([2, 1], [1, 1], 1, 5))
        with pytest.raises(DecideError):
            shrink_bound(inst([1, 1], [2, 1], 1, 5))


class TestMonotonicityIndex:
    def test_worked_example(self):
        i = inst([13, -4, 1], [5, -4, 1], 1, 0)
        k0 = i.recurrence.monotonicity_index
        assert k0 >= 14
        # beyond k0: r > 0 and r < 1 (q - p = -8 < 0, both quadratics positive)
        for k in range(k0, k0 + 20):
            assert 0 < F(i.q(k), i.p(k)) < 1

    def test_sign_change_case(self):
        p, q = IntPoly.of(1, 0, 1), IntPoly.of(7, -5, 1)
        i = inst(p.coeffs, q.coeffs, 1, 0)
        k0 = i.recurrence.monotonicity_index
        sign = F(i.q(k0), i.p(k0)) < 1
        for k in range(k0, k0 + 20):
            assert (F(i.q(k), i.p(k)) < 1) == sign

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.one_of(st.integers(-12, 12), st.integers(-(2**70), 2**70)), min_size=1, max_size=6),
        st.lists(st.one_of(st.integers(-12, 12), st.integers(-(2**70), 2**70)), min_size=1, max_size=6),
    )
    def test_integer_ceiling_matches_fraction_formula(self, p, q):
        # 1 + ceil of the largest Cauchy bound 1 + max |c_i|/|lead| among
        # p, q, q - p and q + p of degree >= 1, in Fractions
        p[-1] = p[-1] or 1
        q[-1] = q[-1] or 1
        p, q = IntPoly(tuple(p)), IntPoly(tuple(q))
        assume(all(r < 0 for r in integer_roots(p)))
        bound = F(0)
        for f in (p, q, q - p, q + p):
            if not f.is_zero and f.degree >= 1:
                bound = max(bound, 1 + max(F(abs(c), abs(f.lead)) for c in f.coeffs[:-1]))
        assert inst(p.coeffs, q.coeffs, 1, 0).recurrence.monotonicity_index == 1 + math.ceil(bound)


def _coefficient_lists():
    """Degree <= 6, coefficients up to 2^70, leads of either sign."""
    return st.lists(
        st.one_of(st.integers(-12, 12), st.integers(-(2**70), 2**70)), min_size=1, max_size=7
    )


class TestSkipIndex:
    def test_worked_pair(self):
        # Cauchy: 1 + 284 for q; Cauchy's rule: 6 for p, q and q + p
        i = inst([108, -6, 1], [284, -6, 1], 1, 0)
        assert (i.recurrence.monotonicity_index, i.recurrence.skip_index) == (286, 7)

    def test_no_sign_variation_is_one(self):
        # no coefficient of p, q, q - p = 1 or q + p opposes its lead
        assert inst([1, 2, 1], [2, 2, 1], 1, 0).recurrence.skip_index == 1
        assert inst([1, 1], [1, 1], 1, 0).recurrence.skip_index == 1  # q - p = 0

    # no real root at or above the skip index, counted by Sturm's theorem:
    # sympy.real_roots factors the integer coefficients and, under sympy
    # 1.14.0, raised ValueError on its first call in a process for the
    # pinned q = 6x^2 + 227201541366600x + 6
    @settings(max_examples=150, deadline=None)
    @given(_coefficient_lists(), _coefficient_lists())
    @example([-62], [6, 227201541366600, 6])
    def test_past_every_positive_root(self, p, q):
        import sympy

        p[-1] = p[-1] or 1
        q[-1] = q[-1] or -1
        p, q = IntPoly(tuple(p)), IntPoly(tuple(q))
        assume(all(r < 0 for r in integer_roots(p)))
        i = inst(p.coeffs, q.coeffs, 1, 0)
        skip = i.recurrence.skip_index
        assert 1 <= skip <= i.recurrence.monotonicity_index
        x = sympy.Symbol("x")
        for f in (p, q, q - p, q + p):
            if f.degree < 1:
                continue
            assert sympy.Poly(list(reversed(f.coeffs)), x).count_roots(skip, None) == 0, (f, skip)
            for k in range(skip, skip + 65):
                assert (f(k) > 0) == (f.lead > 0), (f, k)


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


class TestTailRecord:
    """A pair's record works out its class and the two signs of its tail
    once; the scan, the decisions and the bound replay read that record."""

    @settings(max_examples=150, deadline=None)
    @given(_coefficient_lists(), _coefficient_lists())
    def test_signs_hold_from_the_skip_index(self, p, q):
        p[-1] = p[-1] or 1
        q[-1] = q[-1] or -1
        p, q = IntPoly(tuple(p)), IntPoly(tuple(q))
        assume(all(r < 0 for r in integer_roots(p)))
        i = inst(p.coeffs, q.coeffs, 1, 0)
        assert i.recurrence.asymptotic == classify(p, q)
        skip, k1 = i.recurrence.skip_index, i.recurrence.monotonicity_index
        for k in [k1, *range(skip, skip + 65)]:
            qk, pk = q(k), p(k)
            assert i.recurrence.tail_signs == (_sgn(qk * pk), _sgn(abs(qk) - abs(pk))), (p, q, k)

    @settings(max_examples=150, deadline=None)
    @given(_coefficient_lists(), _coefficient_lists())
    def test_real_roots_lie_below_the_index_less_one(self, p, q):
        # so r(k1 - 1) has the sign of r(k1), the first of tail_signs (the
        # zero-target verdict reads it there): Sturm counts as many real
        # roots of p and q below k1 - 1 as below 1 + sum |c_i| / |lead|,
        # which lies above every root
        p[-1] = p[-1] or 1
        q[-1] = q[-1] or -1
        p, q = IntPoly(tuple(p)), IntPoly(tuple(q))
        assume(all(r < 0 for r in integer_roots(p)))
        k1 = inst(p.coeffs, q.coeffs, 1, 0).recurrence.monotonicity_index
        for f in (p, q):
            if f.degree < 1:
                continue
            above = 1 + F(sum(map(abs, f.coeffs[:-1])), abs(f.lead))
            below = polys.count_real_roots_below(f.to_q(), F(k1 - 1))
            assert below == polys.count_real_roots_below(f.to_q(), above), (f, k1)

    @pytest.mark.parametrize("problem", list(Problem))
    def test_worked_pair_builds_no_difference_polynomial(self, sinh_ratio_instance, problem, monkeypatch):
        # the balanced tail's direction comes from the record, not from a
        # fresh q - p, in the decision and in its replay
        calls = []
        sub = polys._Poly.__sub__

        def counted(self, other):
            calls.append((self, other))
            return sub(self, other)

        monkeypatch.setattr(polys._Poly, "__sub__", counted)
        docin = InstanceDocument(sinh_ratio_instance(F(1, 100000), problem), "auto")
        cert = decide_document(docin, DEFAULT_CONFIG)
        assert cert["reason"] in ("monotone_tail_excludes_target", "decreasing_tail_above_target")
        assert verify_certificate(cert) == []
        assert calls == []


@st.composite
def _balanced_pairs(draw):
    """Monic p, q of degree 2 or 3 with the same top two coefficients (a
    balanced pair), p without nonnegative integer roots."""
    d = draw(st.integers(2, 3))
    top = draw(st.integers(-6, 6))
    low = st.lists(st.integers(-12, 12), min_size=d - 1, max_size=d - 1)
    p, q = (IntPoly((*draw(low), top, 1)) for _ in range(2))
    assume(all(r < 0 for r in integer_roots(p)))
    return p, q


class TestTailMisses:
    """The one monotone-tail test of the balanced verdicts and the bound
    replay, against a plain Fraction scan of the terms after it."""

    @settings(max_examples=150, deadline=None)
    @given(
        _balanced_pairs(),
        st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(bool),
        st.sampled_from(list(Problem)),
        st.data(),
    )
    def test_no_witness_after_a_missing_tail(self, pq, u0, problem, data):
        p, q = pq
        k0 = HGInstance(p, q, u0, F(1), problem).recurrence.monotonicity_index
        us = [u0]
        for k in range(k0 + 201):
            us.append(us[-1] * F(q(k), p(k)))
        # a later term (a tail moving towards it meets it), a near one, or any
        kind = data.draw(st.sampled_from(["term", "near", "any"]), label="kind")
        if kind == "any":
            t = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=50), label="t")
        else:
            t = us[data.draw(st.integers(k0 + 2, k0 + 201), label="m")]
            t = t if kind == "term" else t * (1 + data.draw(st.sampled_from([F(1, 10**6), F(-1, 10**6)])))
        i = HGInstance(p, q, u0, t, problem)
        assert i.recurrence.asymptotic.is_balanced and i.recurrence.tail_signs[0] > 0
        scan = ExactScan(i)
        if scan.first_hit(k0 + 2) is not None or scan.hit() or not scan.tail_misses():
            return
        if problem is Problem.MEMBERSHIP:
            hits = [n for n in range(k0 + 2, k0 + 202) if us[n] == t]
        else:
            hits = [n for n in range(k0 + 2, k0 + 202) if us[n] < t]
        assert hits == [], (p, q, u0, t, problem)


class TestBruteForce:
    def test_membership_found(self, sinh_ratio_instance):
        r = brute_force(sinh_ratio_instance(F(1, 13)), 10)
        assert r.kind is BruteKind.FOUND_MEMBERSHIP and r.index == 2

    def test_threshold_violation(self, sinh_ratio_instance):
        r = brute_force(sinh_ratio_instance(F(1, 26), Problem.THRESHOLD), 10)
        assert r.kind is BruteKind.THRESHOLD_VIOLATION and r.index == 3

    def test_immediate_witness(self, sinh_ratio_instance):
        r = brute_force(sinh_ratio_instance(F(1)), 1)
        assert r.kind is BruteKind.FOUND_MEMBERSHIP and r.index == 0

    def test_none_up_to(self, sinh_ratio_instance):
        r = brute_force(sinh_ratio_instance(F(22, 7)), 200)
        assert r.kind is BruteKind.NONE_UP_TO and r.up_to == 200


class TestZeroTail:
    def test_roots_detected(self):
        assert inst([1, 1], [-3, 1], 2, 0).recurrence.first_zero_of_q == 3
        assert inst([1, 1], [0, 1], 2, 0).recurrence.first_zero_of_q == 0
        assert inst([1, 1], [1, 1], 2, 0).recurrence.first_zero_of_q is None
        assert inst([1, 1], [6, -7, 0, 1], 2, 0).recurrence.q_roots == (-3, 1, 2)
        assert inst([6, 5, 1], [1], 2, 0).recurrence.p_roots == (-3, -2)

    def test_tail_is_zero_after_root(self):
        i = inst([1, 1], [-3, 1], 2, 0)
        vals = list(terms(i, 8))
        assert vals[4] == 0 and all(v == 0 for v in vals[5:])
        assert all(v != 0 for v in vals[:4])

    def test_p_validation(self):
        with pytest.raises(DecideError):
            inst([-3, 1], [1, 1], 1, 0)


def _facts(rec) -> tuple:
    return (
        rec.p_roots, rec.q_roots, rec.first_zero_of_q, rec.shift_form, rec.is_monic_pair,
        rec.asymptotic, rec.monotonicity_index, rec.skip_index, rec.tail_signs,
    )


class TestRecurrence:
    """What p and q alone decide is one record per pair, cached and shared
    by every instance on the pair."""

    # the pairs the sequence docstrings cite, with (k1, skip index, tail
    # signs): k1 past every scan cap, k1 far past the skip index, and the
    # cubic pair whose tail exit ends a prefix scan at once
    CITED = [
        ([2**250, 0, 1], [2**252, 0, 1], (2**252 + 2, 1, (1, 1))),
        ([108, -6, 1], [284, -6, 1], (286, 7, (1, 1))),
        ([412, 87, 0, 1], [720, 164, 0, 1], (722, 1, (1, 1))),
    ]

    def test_instances_on_one_pair_share_one_record(self):
        a = inst([108, -6, 1], [284, -6, 1], 1, F(1, 2))
        b = inst([108, -6, 1], [284, -6, 1], F(-3, 7), 5, Problem.THRESHOLD)
        assert a.recurrence is b.recurrence is recurrence(a.p, a.q)
        assert inst([108, -6, 1], [285, -6, 1], 1, 0).recurrence is not a.recurrence

    def test_cached_facts_equal_a_fresh_analysis(self):
        # the seed-7 corpus, decided first so that its instances share the
        # records the decisions filled, and the cited pairs: every fact of
        # a cached record equals the one a record built after the cache is
        # cleared works out
        config = EngineConfig(scan_cap=2 * 10**4)
        cached = []
        for family in FAMILIES:
            for d in generate_documents(7, 30, family):
                docin = parse_instance(d)
                try:
                    decide_document(docin, config)
                except DecideError:
                    pass
                cached.append(docin.inst)
        cached += [inst(p, q, 1, F(1, 2)) for p, q, _ in self.CITED]
        want = [_facts(i.recurrence) for i in cached]
        recurrence.cache_clear()
        for i, facts in zip(cached, want):
            fresh = HGInstance(i.p, i.q, i.u0, i.t, i.problem).recurrence
            assert fresh is not i.recurrence and _facts(fresh) == facts, (i.p, i.q)
        for p, q, tail in self.CITED:
            rec = inst(p, q, 1, 0).recurrence
            assert (rec.monotonicity_index, rec.skip_index, rec.tail_signs) == tail

    def test_p_with_a_nonnegative_root_is_refused_on_every_construction(self):
        # the record holds the roots; each instance checks them, also when
        # the record comes from the cache
        p, q = IntPoly.of(-3, 1), IntPoly.of(1, 1)
        rec = recurrence(p, q)
        for _ in range(2):
            with pytest.raises(DecideError, match="nonnegative integer 3"):
                HGInstance(p, q, F(1), F(0), Problem.MEMBERSHIP)
        assert recurrence(p, q) is rec and rec.p_roots == (3,)

    def test_a_refused_pair_is_refused_again(self):
        # a zero or over-cap polynomial fails the record's build, which is
        # not cached, so the second construction fails the same way
        for _ in range(2):
            with pytest.raises(DecideError, match="nonzero"):
                inst([], [1, 1], 1, 0)
            with pytest.raises(UnsupportedInstance, match="256 bits"):
                inst([1, 1], [2**300, 1], 1, 0)
