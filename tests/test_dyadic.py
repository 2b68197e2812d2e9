"""The dyadic kernel against exact Fraction references."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgdecide.dyadic import ComplexInterval, DyadicInterval, _cmp
from hgdecide.errors import DecideError, IntervalStraddlesZero

from intervals import corner_complex_div, corner_product


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
