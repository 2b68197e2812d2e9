import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgdecide.errors import DecideError, FieldMismatchError, UnsupportedInstance
from hgdecide.numutil import squarefree_decompose
from hgdecide.polys import QPoly, cyclotomic
from hgdecide.towers import (
    CyclotomicTower,
    IAdjoinedTower,
    MultiquadraticTower,
    RadicalTower,
)

from intervals import overlaps


class TestMultiquadratic:
    def test_basis_closure(self):
        t = MultiquadraticTower((2, 5))
        assert t.radicands == (1, 2, 5, 10)
        assert t.sqrt_elem(2) * t.sqrt_elem(5) == t.sqrt_elem(10)
        assert (t.sqrt_elem(10) * t.sqrt_elem(2)).coords[t.index[5]] == 2

    def test_negative_radicands(self):
        t = MultiquadraticTower((-1, -2))
        i_el = t.i_element()
        assert (i_el * i_el).as_rational() == -1
        # sqrt(-2)*sqrt(-1) = -sqrt(2)
        prod = t.sqrt_elem(-2) * t.sqrt_elem(-1)
        assert prod == t.sqrt_elem(2) * F(-1)

    def test_generator_cap(self):
        with pytest.raises(UnsupportedInstance):
            MultiquadraticTower((2, 3, 5, 7, 11))

    def test_radicand_must_be_squarefree_and_not_unit(self):
        for d in (4, 1, 0):
            with pytest.raises(DecideError):
                MultiquadraticTower((d,))

    def test_embedding_agreement(self, mp, mpref):
        t = MultiquadraticTower((2, -3))
        rng = random.Random(3)
        for _ in range(10):
            coords = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(t.degree)]
            x = t.element(coords)
            y = t.element([F(rng.randint(-3, 3)) for _ in range(t.degree)])
            left = (x * y).embed(96)
            xe, ye = x.embed(96), y.embed(96)
            right = xe.mul(ye, 96)
            # enclosures of the same number must overlap
            assert overlaps(left.re, right.re) and overlaps(left.im, right.im)


class TestCyclotomic:
    def test_root_relations(self):
        t = CyclotomicTower(12)
        z = t.root_of_unity(1)
        assert (z**12).as_rational() == 1
        assert (z**6).as_rational() == -1
        assert (t.i_element() ** 2).as_rational() == -1

    def test_embedding(self, mp, mpref):
        t = CyclotomicTower(16)
        z = t.root_of_unity(3)
        emb = z.embed(96)
        assert mpref(mp.cos(2 * mp.pi * 3 / 16)) in emb.re
        assert mpref(mp.sin(2 * mp.pi * 3 / 16)) in emb.im

    def test_conductor_cap(self):
        with pytest.raises(UnsupportedInstance):
            CyclotomicTower(36)

    def test_power_table_matches_polynomial_division(self):
        # zeta^e is x^e mod Phi_n, read off the integer shift-and-reduce table
        for n in range(3, 25):
            t = CyclotomicTower(n)
            phi_n = cyclotomic(n).to_q()
            for e in range(2 * n):
                rem = QPoly(tuple([F(0)] * e + [F(1)])).divrem(phi_n)[1].coeffs
                want = tuple(rem) + (F(0),) * (t.degree - len(rem))
                got = t.root_of_unity(e)
                assert got.den == 1 and got.coords == want, (n, e)

    def test_sqrt_takes_the_principal_branch(self):
        # the branch comes from Gauss's signs of the quadratic Gauss sums,
        # with no numerics: sqrt(d) > 0 for d > 0 and i*sqrt(|d|) for d < 0,
        # checked here against the embedding for every squarefree |d| <= 100
        # whose conductor divides a conductor n <= 24
        cases = 0
        for n in range(3, 25):
            t = CyclotomicTower(n)
            for d in (sign * a for a in range(1, 101) for sign in (1, -1)):
                if d == 1 or squarefree_decompose(d)[0] != 1:
                    continue
                root = t.sqrt_of(d)
                if root is None:
                    continue
                cases += 1
                emb = root.embed(64)
                along, across = (emb.re, emb.im) if d > 0 else (emb.im, emb.re)
                assert along.lo_man > 0 and across.contains_zero(), (n, d)
                low = F(math.isqrt(abs(d) << 120), 1 << 60)
                assert along.lo <= low + F(1, 1 << 60) and low <= along.hi, (n, d)
        assert cases == 40


class TestRadical:
    def test_fourth_root_of_two(self):
        t = RadicalTower(4, 2)
        y = t.radical_root(0)
        assert (y**4).as_rational() == 2
        assert (t.radical_root(1) ** 2 + y**2).is_zero

    def test_sixth_root_of_three(self, mp, mpref):
        t = RadicalTower(6, 3)
        r = t.radical_root(0)
        assert (r**6).as_rational() == 3
        emb = r.embed(96)
        assert mpref(mp.root(3, 6)) in emb.re

    def test_negative_radicand_takes_the_rotated_root(self, mp, mpref):
        # Y = 2^(1/3) * exp(i*pi/3) for x^3 + 2, the same rule as for even n
        r = RadicalTower(3, -2).radical_root(0)
        assert (r**3).as_rational() == -2
        emb = r.embed(96)
        want = mp.root(2, 3) * mp.exp(1j * mp.pi / 3)
        assert mpref(want.real) in emb.re and mpref(want.imag) in emb.im

    def test_index_cap(self):
        with pytest.raises(UnsupportedInstance):
            RadicalTower(9, 2)

    @pytest.mark.parametrize("n", [1, 2])
    def test_index_below_three_rejected(self, n):
        # square roots live in multiquadratic towers
        with pytest.raises(DecideError):
            RadicalTower(n, 3)

    @pytest.mark.parametrize(
        "n, a",
        [
            (8, 2),  # sqrt(2) lies in Q(zeta_8)
            (6, 8),  # 8 is a cube
            (4, -4),  # x^4 + 4 = (x^2 + 2x + 2)(x^2 - 2x + 2)
        ],
    )
    def test_reducible_kummer_rejected(self, n, a):
        with pytest.raises(UnsupportedInstance):
            RadicalTower(n, a)

    def test_negative_power_raises(self):
        with pytest.raises(ValueError):
            RadicalTower(4, 2).radical_root(0) ** -1


class TestIAdjoined:
    def test_i_over_a_real_field(self):
        t = IAdjoinedTower(MultiquadraticTower((2,)))
        i, one, r2 = t.i_element(), t.one(), t.lift(t.base.sqrt_elem(2))
        assert i * i == t.rational(-1)
        assert (one + i) * (one + i) == i * 2
        assert (one + i) * (one - i) == t.rational(2)
        assert (r2 + i) ** 2 == one + i * r2 * 2
        # the distinguished embedding sends i to +i, the i of exp(i*pi*w)
        emb = i.embed(64)
        assert emb.re.contains_zero() and emb.im.lo == emb.im.hi == 1

    def test_towers_with_i_are_refused(self):
        with pytest.raises(DecideError):
            IAdjoinedTower(CyclotomicTower(12))

    @pytest.mark.parametrize("base", [CyclotomicTower(5), RadicalTower(3, 2)])
    def test_lift_keeps_coordinates_and_embedding(self, base):
        t = IAdjoinedTower(base)
        rng = random.Random(5)
        for _ in range(5):
            x = base.element([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(base.degree)])
            y = t.lift(x)
            assert y.tower is t and y.nums == x.nums + (0,) * base.degree and y.den == x.den
            for prec in (64, 256):
                assert y.embed(prec) == x.embed(prec)
        with pytest.raises(FieldMismatchError):
            t.lift(MultiquadraticTower((2,)).one())


def _plain_mul(tower, x, y):
    """Reference product: a triple loop over basis_product, no table."""
    out = [F(0)] * tower.degree
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            for k, c in tower.basis_product(i, j).items():
                out[k] += a * b * c
    return tuple(out)


FIELDS = [
    MultiquadraticTower((2, 3, -1)),
    # the towers of quadratic roots, as `recognize` builds them
    MultiquadraticTower((-3,)),
    MultiquadraticTower((5,)),
    CyclotomicTower(12),
    RadicalTower(4, 2),
    RadicalTower(3, 2),
    IAdjoinedTower(MultiquadraticTower((2,))),
    IAdjoinedTower(CyclotomicTower(5)),
]


def _lowest_terms(e) -> bool:
    return e.den > 0 and math.gcd(e.den, *e.nums) == 1


class TestElementArithmetic:
    """Integer numerators over one denominator, against plain Fraction
    coordinate arithmetic."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_ring_operations_match_fraction_coordinates(self, data):
        tower = data.draw(st.sampled_from(FIELDS))
        x = data.draw(TestFieldArithmetic.elements(tower))
        y = data.draw(TestFieldArithmetic.elements(tower))
        k = data.draw(st.integers(min_value=0, max_value=4))
        power = (F(1),) + (F(0),) * (tower.degree - 1)
        for _ in range(k):
            power = _plain_mul(tower, power, x.coords)
        cases = [
            (x + y, tuple(a + b for a, b in zip(x.coords, y.coords))),
            (x - y, tuple(a - b for a, b in zip(x.coords, y.coords))),
            (-x, tuple(-a for a in x.coords)),
            (x * y, _plain_mul(tower, x.coords, y.coords)),
            (x**k, power),
        ]
        for got, want in cases:
            assert got.coords == want
            assert _lowest_terms(got)
            assert got == tower.element(want) and hash(got) == hash(tower.element(want))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_rational_operands_coerce(self, data):
        tower = data.draw(st.sampled_from(FIELDS))
        x = data.draw(TestFieldArithmetic.elements(tower))
        q = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))
        assert (x * q).coords == tuple(a * q for a in x.coords) == (q * x).coords
        assert (x + q) == x + tower.rational(q) == q + x
        assert (q - x) == tower.rational(q) - x
        assert _lowest_terms(x * q) and _lowest_terms(x + q)

    def test_equal_elements_have_equal_fields(self):
        t = MultiquadraticTower((2, 3, -1))
        half = t.element([F(1, 2)] + [F(0)] * (t.degree - 1))
        # 1/2 reached two ways, and a sum that cancels to zero
        assert half + half * 0 == t.one() * F(1, 2) == half
        assert (half + half) == t.one() and (half + half).den == 1
        zero = t.sqrt_elem(2) * F(1, 3) - t.sqrt_elem(2) * F(1, 3)
        assert zero == t.zero() and zero.den == 1 and zero.is_zero
        assert len({half, t.rational(F(1, 2)), t.one()}) == 2

    def test_value_semantics(self):
        t = MultiquadraticTower((2,))
        x = t.element((F(1, 2), F(-3, 4)))
        assert (x.nums, x.den) == ((2, -3), 4)
        assert repr(x) == "TowerElem(Fraction(1, 2), Fraction(-3, 4))"
        # not a tuple to the outside: no equality with its fields, no
        # membership of a field, no order
        assert x != (t, (2, -3), 4) and x != t.element((F(1, 2), F(3, 4)))
        with pytest.raises(TypeError):
            4 in x
        with pytest.raises(TypeError):
            x < x
        # the same field in another tower object is the same element
        assert x == MultiquadraticTower((2,)).element((F(1, 2), F(-3, 4)))

    @pytest.mark.parametrize("tower", [MultiquadraticTower((2, 3, -1)), CyclotomicTower(12)])
    def test_i_element_is_built_once(self, tower):
        i = tower.i_element()
        assert tower.i_element() is i
        assert i * i == tower.rational(-1)

    @pytest.mark.parametrize("tower", [MultiquadraticTower((2, 3)), CyclotomicTower(5)])
    def test_no_i_element_without_i(self, tower):
        assert tower.i_element() is None

    def test_elements_of_other_towers_do_not_mix(self):
        a, b = MultiquadraticTower((2,)).one(), MultiquadraticTower((3,)).one()
        with pytest.raises(FieldMismatchError):
            a + b
        with pytest.raises(FieldMismatchError):
            a * b


class TestFieldArithmetic:
    """Identity building never divides, so products of nonzero elements
    must stay nonzero: every tower the engine builds is a field."""

    @staticmethod
    def elements(tower):
        coord = st.fractions(min_value=-5, max_value=5, max_denominator=4)
        sparse = st.lists(
            st.one_of(st.just(F(0)), coord), min_size=tower.degree, max_size=tower.degree
        )
        return sparse.map(tower.element)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_table_product_matches_plain_product(self, data):
        tower = data.draw(st.sampled_from(FIELDS))
        x = data.draw(self.elements(tower))
        y = data.draw(self.elements(tower))
        assert (x * y).coords == _plain_mul(tower, x.coords, y.coords)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_no_zero_divisors(self, data):
        tower = data.draw(st.sampled_from(FIELDS))
        x = data.draw(self.elements(tower).filter(lambda e: not e.is_zero))
        y = data.draw(self.elements(tower).filter(lambda e: not e.is_zero))
        assert not (x * y).is_zero

