from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hgdecide.errors import DecideError, FieldMismatchError
from hgdecide.exactnum import QuadElem, is_half_integer, parse_rat


def q(a, b, d):
    return QuadElem(F(a), F(b), d)


class TestQuadArith:
    def test_norm_of_one_plus_i(self):
        assert q(1, 1, -1) * q(1, -1, -1) == 2

    def test_i_squared(self):
        assert q(0, 1, -1) * q(0, 1, -1) == -1

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            q(1, 1, -1) + q(1, 1, -2)

    def test_d_must_be_squarefree_and_not_unit(self):
        with pytest.raises(DecideError):
            QuadElem(F(1), F(1), 4)
        with pytest.raises(DecideError):
            QuadElem(F(1), F(1), 1)
        with pytest.raises(DecideError):
            QuadElem(F(1), F(1), 0)


class TestConjugate:
    def test_worked_pair(self):
        assert q(-2, 3, -1).conjugate() == q(-2, -3, -1)

    def test_rational_fixed_point(self):
        assert q(5, 0, -7).conjugate() == q(5, 0, -7)

    def test_half_integer_flip(self):
        assert q(F(1, 2), F(3, 2), -3).conjugate() == q(F(1, 2), F(-3, 2), -3)

    def test_involution(self):
        x = q(F(2, 3), F(-5, 7), -11)
        assert x.conjugate().conjugate() == x


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
ds = st.sampled_from([-1, -2, -3, -7, 2, 5])


@st.composite
def quads(draw, d=None):
    dd = d if d is not None else draw(ds)
    return QuadElem(draw(rationals), draw(rationals), dd)


class TestFieldAxioms:
    @given(st.data())
    def test_associativity_and_distributivity(self, data):
        d = data.draw(ds)
        x, y, z = (data.draw(quads(d=d)) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(st.data())
    def test_norm_is_rational(self, data):
        x = data.draw(quads())
        prod = x * x.conjugate()
        assert prod.b == 0
        assert prod.a == x.a * x.a - x.b * x.b * x.d


def test_parse_and_half_integers():
    assert parse_rat("3/4") == F(3, 4)
    assert parse_rat("-2") == -2
    assert is_half_integer(F(7, 2)) and is_half_integer(F(3)) and not is_half_integer(F(1, 3))
