"""The dyadic kernel against exact Fraction references."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgdecide.dyadic import ComplexInterval, DyadicInterval, _cmp
from hgdecide.errors import DecideError, IntervalStraddlesZero

from intervals import (
    corner_complex_div,
    corner_product,
    corner_products,
    reference_add,
    reference_inv,
    reference_neg,
    reference_round,
    reference_sub,
)


def value(man, exp) -> F:
    return F(man) * F(2) ** exp


# mantissas around zero and a few wide ones; exponents of either sign
mantissas = st.one_of(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-(1 << 200), max_value=1 << 200),
)
exponents = st.integers(min_value=-300, max_value=300)
dyadics = st.tuples(mantissas, exponents)


@st.composite
def intervals(draw):
    """Point, zero-ended, one-signed and straddling intervals."""
    a = draw(dyadics)
    kind = draw(st.sampled_from(["point", "zero_lo", "zero_hi", "any"]))
    if kind == "point":
        # the same value, possibly written with another exponent
        shift = draw(st.integers(min_value=0, max_value=5))
        return DyadicInterval(a[0], a[1], a[0] << shift, a[1] - shift)
    if kind == "zero_lo":
        return DyadicInterval(0, draw(exponents), abs(a[0]), a[1])
    if kind == "zero_hi":
        return DyadicInterval(-abs(a[0]), a[1], 0, draw(exponents))
    b = draw(dyadics)
    lo, hi = sorted((a, b), key=lambda d: value(*d))
    return DyadicInterval(*lo, *hi)


precisions = st.integers(min_value=2, max_value=300)


def values(iv):
    return iv.lo, iv.hi


class TestProduct:
    @settings(max_examples=500, deadline=None)
    @given(intervals(), intervals(), precisions)
    def test_sign_cases_match_the_four_corners(self, a, b, prec):
        assert values(a.mul(b, prec)) == values(corner_product(a, b, prec))

    @pytest.mark.parametrize(
        "a,b",
        [
            ((0, 0, 0, 0), (-3, 0, 5, 0)),  # zero times a straddling factor
            ((0, -7, 2, 0), (-1, 3, 0, 9)),  # zero endpoints, other exponents
            ((-2, 0, 3, 0), (-5, 0, 1, 0)),  # two straddling factors
            ((-3, -1, 3, -1), (-3, -1, 3, -1)),  # a square of a straddle
            ((1, 0, 2, -1), (4, 2, 4, 2)),  # a point written two ways
            ((-9, 5, -1, -5), (3, -4, 7, 8)),  # negative times positive
        ],
    )
    def test_hand_picked(self, a, b):
        a, b = DyadicInterval(*a), DyadicInterval(*b)
        for prec in (2, 64):
            assert values(a.mul(b, prec)) == values(corner_product(a, b, prec))


class TestCompare:
    @settings(max_examples=500, deadline=None)
    @given(dyadics, dyadics)
    def test_cmp_agrees_with_fractions(self, x, y):
        vx, vy = value(*x), value(*y)
        assert _cmp(*x, *y) == (vx > vy) - (vx < vy)

    @given(dyadics, st.integers(min_value=0, max_value=8))
    def test_cmp_of_one_value_written_two_ways(self, x, shift):
        assert _cmp(x[0] << shift, x[1] - shift, *x) == 0

    def test_inverted_interval_rejected(self):
        with pytest.raises(DecideError):
            DyadicInterval(3, 0, 1, 1)  # 3 > 2
        with pytest.raises(DecideError):
            DyadicInterval(1, 0, -1, -200)
        DyadicInterval(4, 0, 2, 1)  # equal values are a point

    @settings(max_examples=500, deadline=None)
    @given(
        intervals(),
        st.one_of(
            st.fractions(max_denominator=10**6),
            st.fractions(min_value=-4, max_value=4, max_denominator=1 << 100),
        ),
    )
    def test_compare_fraction_agrees_with_fractions(self, iv, q):
        want = -1 if iv.hi < q else 1 if iv.lo > q else None
        assert iv.compare_fraction(q) == want

    @given(intervals())
    def test_compare_fraction_at_the_endpoints(self, iv):
        assert iv.compare_fraction(iv.lo) is None and iv.compare_fraction(iv.hi) is None


def ends(iv):
    """The four integers, as bits: mantissas and exponents, not values."""
    return iv.lo_man, iv.lo_exp, iv.hi_man, iv.hi_exp


def encloses(iv, exact):
    return iv.lo <= min(exact) and max(exact) <= iv.hi


def nonzero(iv):
    return not iv.contains_zero()


class TestKernelsMatchReference:
    """Every kernel gives the endpoints of the checked reference formulas
    in `intervals`, bit for bit, and encloses the exact image.  A product
    may take any least and any greatest corner (`corner_products`)."""

    @settings(max_examples=300, deadline=None)
    @given(intervals(), intervals(), precisions)
    def test_add_and_sub(self, a, b, prec):
        assert ends(a.add(b, prec)) == ends(reference_add(a, b, prec))
        assert ends(a.sub(b, prec)) == ends(reference_sub(a, b, prec))
        assert encloses(a.add(b, prec), [a.lo + b.lo, a.hi + b.hi])
        assert encloses(a.sub(b, prec), [a.lo - b.hi, a.hi - b.lo])

    @settings(max_examples=300, deadline=None)
    @given(intervals(), intervals(), precisions)
    def test_mul(self, a, b, prec):
        got = a.mul(b, prec)
        assert ends(got) in corner_products(a, b, prec)
        assert encloses(got, [x * y for x in values(a) for y in values(b)])

    @settings(max_examples=300, deadline=None)
    @given(intervals(), precisions)
    def test_neg_and_round(self, a, prec):
        assert ends(a.neg()) == ends(reference_neg(a))
        assert values(a.neg()) == (-a.hi, -a.lo)
        assert ends(a.round(prec)) == ends(reference_round(a, prec))
        assert encloses(a.round(prec), values(a))

    @settings(max_examples=300, deadline=None)
    @given(intervals().filter(nonzero), precisions)
    def test_inv(self, a, prec):
        got = a.inv(prec)
        assert ends(got) == ends(reference_inv(a, prec))
        assert encloses(got, [1 / a.lo, 1 / a.hi])

    @settings(max_examples=300, deadline=None)
    @given(intervals(), intervals().filter(nonzero), precisions)
    def test_div(self, a, b, prec):
        got = a.div(b, prec)
        assert ends(got) in corner_products(a, reference_inv(b, prec + 8), prec)
        assert encloses(got, [x / y for x in values(a) for y in values(b)])

    @given(intervals().filter(lambda iv: iv.contains_zero()), precisions)
    def test_inv_across_zero_raises(self, a, prec):
        with pytest.raises(IntervalStraddlesZero):
            a.inv(prec)


class TestValueSemantics:
    """Intervals are tuples underneath; they must still behave as values."""

    def test_membership_is_containment(self):
        iv = DyadicInterval(3, 0, 5, 0)
        # as a plain tuple, 0 would be "in" it: it is an exponent
        assert 0 not in iv
        assert 3 in iv and 4 in iv and F(9, 2) in iv and 5 in iv
        assert F(11, 2) not in iv and -3 not in iv

    def test_complex_interval_has_no_membership(self):
        z = ComplexInterval.from_real(DyadicInterval(3, 0, 5, 0))
        with pytest.raises(TypeError):
            z.re in z

    def test_equality_and_hash_are_by_fields_and_type(self):
        iv = DyadicInterval(3, 0, 5, 0)
        assert iv == DyadicInterval(3, 0, 5, 0) and hash(iv) == hash(DyadicInterval(3, 0, 5, 0))
        assert not iv != DyadicInterval(3, 0, 5, 0)
        # the same values written with other exponents are other fields
        assert iv != DyadicInterval(6, -1, 5, 0)
        # neither the bare tuple nor a complex interval equals an interval
        assert iv != (3, 0, 5, 0) and (3, 0, 5, 0) != iv
        z = ComplexInterval(iv, iv)
        assert z == ComplexInterval(iv, iv) and hash(z) == hash(ComplexInterval(iv, iv))
        assert z != (iv, iv) and z != ComplexInterval(iv, iv.neg())
        assert len({iv, DyadicInterval(3, 0, 5, 0), iv.neg()}) == 2

    def test_repr(self):
        iv = DyadicInterval(3, 0, 5, 0)
        assert repr(iv) == "DyadicInterval(3.0, 5.0)"
        assert repr(ComplexInterval.from_real(iv)) == (
            "ComplexInterval(re=DyadicInterval(3.0, 5.0), im=DyadicInterval(0.0, 0.0))"
        )

    @pytest.mark.parametrize(
        "op",
        [
            lambda a, b: a + b,
            lambda a, b: a * 2,
            lambda a, b: 2 * a,
            lambda a, b: a < b,
            lambda a, b: a >= b,
        ],
    )
    def test_no_sequence_operators(self, op):
        a, b = DyadicInterval(1, 0, 2, 0), DyadicInterval(3, 0, 4, 0)
        with pytest.raises(TypeError):
            op(a, b)
        with pytest.raises(TypeError):
            op(ComplexInterval.from_real(a), ComplexInterval.from_real(b))

    def test_arithmetic_results_are_intervals(self):
        a, b = DyadicInterval(-3, 0, 5, 0), DyadicInterval(1, -1, 7, 2)
        for got in (a.add(b, 8), a.sub(b, 8), a.mul(b, 8), a.neg(), a.round(2), b.inv(8), a.div(b, 8)):
            assert type(got) is DyadicInterval


# small rectangles, so that |w|^2 is bounded away from zero often enough
small = st.tuples(st.integers(min_value=-64, max_value=64), st.integers(min_value=-8, max_value=4))


@st.composite
def rectangles(draw):
    parts = []
    for _ in range(2):
        a, b = draw(small), draw(small)
        lo, hi = sorted((a, b), key=lambda d: value(*d))
        parts.append(DyadicInterval(*lo, *hi))
    return ComplexInterval(*parts)


class TestComplexDivision:
    @settings(max_examples=300, deadline=None)
    @given(rectangles(), rectangles(), st.integers(min_value=8, max_value=200))
    def test_matches_the_four_corner_kernel(self, z, w, prec):
        try:
            want = corner_complex_div(z, w, prec)
        except IntervalStraddlesZero:
            with pytest.raises(IntervalStraddlesZero):
                z.div(w, prec)
            return
        got = z.div(w, prec)
        assert values(got.re) == values(want.re) and values(got.im) == values(want.im)
