from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgdecide.errors import DecideError, ScanCapExceeded
from hgdecide.polys import IntPoly
from hgdecide.sequence import (
    BruteKind,
    HGInstance,
    Problem,
    Variant,
    brute_force,
    classify,
    divergence_bound,
    monotonicity_index,
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
        c = classify(IntPoly.of(2, 1), IntPoly.of(1, 1))
        assert c.variant is Variant.RATIO_LIMIT_ONE and c.exponent == -1 and c.shrinks

    def test_constant_ratio(self):
        c = classify(IntPoly.of(1, 1), IntPoly.of(2, 2))
        assert c.variant is Variant.CONVERGES_TO and c.ratio_limit == 2 and c.grows

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
        sum_p = sum((e.root.a for e in rp.entries), F(0))
        sum_q = sum((e.root.a for e in rq.entries), F(0))
        assert sum_p == sum_q and classify(p, q).is_balanced


class TestBounds:
    def test_divergence_examples(self):
        b = divergence_bound(inst([1, 1], [3, 1], 1, 7))
        i = inst([1, 1], [3, 1], 1, 7)
        for n in range(b.n, b.n + 51):
            assert abs(term(i, n)) > 7
            assert abs(i.ratio(n)) > 1
        b2 = divergence_bound(inst([1], [2], 1, 1000))
        assert 2**b2.n > 1000

    def test_inverted_roles(self):
        i = inst([1, 1], [2, 1], 1, 100)  # u_n = (n+2)/2... diverges
        b = divergence_bound(i)
        for n in range(b.n, b.n + 51):
            assert abs(term(i, n)) > 100

    def test_shrink_examples(self):
        i = inst([2, 1], [1, 1], 1, F(1, 10))  # u_n = 1/(n+1)
        b = shrink_bound(i)
        for n in range(b.n, b.n + 51):
            assert abs(term(i, n)) < F(1, 10)
            assert abs(i.ratio(n)) < 1
        b2 = shrink_bound(inst([2], [1], 1, F(1, 100)))
        assert F(1, 2**b2.n) < F(1, 100)
        i3 = inst([3, 1], [1, 1], 4, F(1, 5))
        b3 = shrink_bound(i3)
        assert abs(term(i3, b3.n)) < F(1, 5)

    def test_first_hit_is_the_least_witness(self):
        threshold = Problem.THRESHOLD
        assert divergence_bound(inst([1], [2], 3, 48)).first_hit == 4  # u_n = 3 * 2^n
        assert divergence_bound(inst([1], [2], 3, 50)).first_hit is None
        assert divergence_bound(inst([1], [2], 3, 10, threshold)).first_hit == 0
        assert shrink_bound(inst([2, 1], [1, 1], 1, F(1, 5))).first_hit == 4  # u_n = 1/(n+1)
        assert shrink_bound(inst([2, 1], [1, 1], 1, F(1, 10), threshold)).first_hit == 10

    def test_wrong_class_rejected(self):
        with pytest.raises(DecideError):
            divergence_bound(inst([2, 1], [1, 1], 1, 5))
        with pytest.raises(DecideError):
            shrink_bound(inst([1, 1], [2, 1], 1, 5))


class TestMonotonicityIndex:
    def test_worked_example(self):
        k0 = monotonicity_index(IntPoly.of(13, -4, 1), IntPoly.of(5, -4, 1))
        assert k0 >= 14
        # beyond k0: r > 0 and r < 1 (q - p = -8 < 0, both quadratics positive)
        i = inst([13, -4, 1], [5, -4, 1], 1, 0)
        for k in range(k0, k0 + 20):
            assert 0 < i.ratio(k) < 1

    def test_sign_change_case(self):
        p, q = IntPoly.of(1, 0, 1), IntPoly.of(7, -5, 1)
        k0 = monotonicity_index(p, q)
        i = inst(p.coeffs, q.coeffs, 1, 0)
        sign = i.ratio(k0) < 1
        for k in range(k0, k0 + 20):
            assert (i.ratio(k) < 1) == sign


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
        assert inst([1, 1], [-3, 1], 2, 0).first_zero_of_q == 3
        assert inst([1, 1], [0, 1], 2, 0).first_zero_of_q == 0
        assert inst([1, 1], [1, 1], 2, 0).first_zero_of_q is None
        assert inst([1, 1], [6, -7, 0, 1], 2, 0).q_roots == (-3, 1, 2)
        assert inst([6, 5, 1], [1], 2, 0).p_roots == (-3, -2)

    def test_tail_is_zero_after_root(self):
        i = inst([1, 1], [-3, 1], 2, 0)
        vals = list(terms(i, 8))
        assert vals[4] == 0 and all(v == 0 for v in vals[5:])
        assert all(v != 0 for v in vals[:4])

    def test_p_validation(self):
        with pytest.raises(DecideError):
            inst([-3, 1], [1, 1], 1, 0)
