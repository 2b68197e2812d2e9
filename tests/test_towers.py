import random
from fractions import Fraction as F

import pytest

from hgdecide.errors import UnsupportedInstance
from hgdecide.exactnum import QuadElem
from hgdecide.towers import (
    CyclotomicTower,
    MPoly,
    MultiquadraticTower,
    RadicalTower,
    galois_norm_poly,
)


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

    def test_inverse(self):
        t = MultiquadraticTower((2, 5))
        x = t.rational(F(1, 2)) + t.sqrt_elem(2) - t.sqrt_elem(10) * F(2, 3)
        assert (x * x.inverse()).as_rational() == 1

    def test_generator_cap(self):
        with pytest.raises(UnsupportedInstance):
            MultiquadraticTower((2, 3, 5, 7, 11))

    def test_from_quad(self):
        t = MultiquadraticTower((-3,))
        x = t.from_quad(QuadElem(F(1, 2), F(3, 2), -3))
        assert x.coords[0] == F(1, 2)

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
            assert left.re.overlaps(right.re) and left.im.overlaps(right.im)


class TestCyclotomic:
    def test_root_relations(self):
        t = CyclotomicTower(12)
        z = t.root_of_unity(1)
        assert (z**12).as_rational() == 1
        assert (z**6).as_rational() == -1
        assert (t.i_element() ** 2).as_rational() == -1

    def test_automorphisms_are_homomorphisms(self):
        t = CyclotomicTower(12)
        z = t.root_of_unity(1)
        x = z**2 + z * 3 - 1
        y = z**3 - z
        for amap in t.automorphism_maps():
            assert (x * y).apply(amap) == x.apply(amap) * y.apply(amap)

    def test_embedding(self, mp, mpref):
        t = CyclotomicTower(16)
        z = t.root_of_unity(3)
        emb = z.embed(96)
        assert mpref(mp.cos(2 * mp.pi * 3 / 16)) in emb.re
        assert mpref(mp.sin(2 * mp.pi * 3 / 16)) in emb.im

    def test_conductor_cap(self):
        with pytest.raises(UnsupportedInstance):
            CyclotomicTower(36)


class TestRadical:
    def test_fourth_root_of_two(self):
        t = RadicalTower(4, 2)
        y = t.radical_root(0)
        assert (y**4).as_rational() == 2
        assert (t.radical_root(1) ** 2 + y**2).is_zero
        assert (y * y.inverse()).as_rational() == 1

    def test_sixth_root_of_three(self, mp, mpref):
        t = RadicalTower(6, 3)
        r = t.radical_root(0)
        assert (r**6).as_rational() == 3
        emb = r.embed(96)
        assert mpref(mp.root(3, 6)) in emb.re

    def test_automorphism_count_and_homomorphism(self):
        t = RadicalTower(4, 2)
        maps = t.automorphism_maps()
        assert len(maps) == 8
        x = t.radical_root(0) + 1
        y = t.radical_root(1) * 2
        for amap in maps:
            assert (x * y).apply(amap) == x.apply(amap) * y.apply(amap)

    def test_index_cap(self):
        with pytest.raises(UnsupportedInstance):
            RadicalTower(9, 2)


class TestGaloisNorm:
    def test_sqrt2_linear(self):
        t = MultiquadraticTower((2,))
        p = MPoly.monomial(t, 1, (1,), t.one()) - MPoly.constant(t, 1, t.sqrt_elem(2))
        assert galois_norm_poly(p) == {(2,): F(1), (0,): F(-2)}

    def test_rational_input_squares(self):
        t = MultiquadraticTower((-1,))
        p = MPoly.monomial(t, 1, (1,), t.one()) + MPoly.constant(t, 1, t.one())
        assert galois_norm_poly(p) == {(2,): F(1), (1,): F(2), (0,): F(1)}

    def test_golden_ratio(self):
        t = MultiquadraticTower((5,))
        phi = t.rational(F(1, 2)) + t.sqrt_elem(5) * F(1, 2)
        p = MPoly.monomial(t, 1, (1,), t.one()) - MPoly.constant(t, 1, phi)
        assert galois_norm_poly(p) == {(2,): F(1), (1,): F(-1), (0,): F(-1)}

    def test_vanishes_where_conjugate_does(self):
        # norm of (X - sqrt2) vanishes at -sqrt2 as well: X^2 - 2 does
        t = MultiquadraticTower((2,))
        p = MPoly.monomial(t, 1, (1,), t.one()) - MPoly.constant(t, 1, t.sqrt_elem(2))
        norm = galois_norm_poly(p)
        # evaluate the norm at both embeddings of sqrt(2) numerically
        import math

        for root in (math.sqrt(2), -math.sqrt(2)):
            total = sum(float(c) * root ** e[0] for e, c in norm.items())
            assert abs(total) < 1e-9

    def test_invariance_under_generators(self):
        t = MultiquadraticTower((2, 5))
        x = t.sqrt_elem(2) + t.sqrt_elem(5) * 2 - 3
        p = MPoly.monomial(t, 2, (1, 0), t.one()) + MPoly.monomial(t, 2, (0, 1), x)
        norm = galois_norm_poly(p)
        # rationality of every coefficient is the invariance statement
        assert all(isinstance(c, F) for c in norm.values())

    def test_cyclotomic_norm_degree(self):
        t = CyclotomicTower(5)
        z = t.root_of_unity(1)
        p = MPoly.monomial(t, 1, (1,), t.one()) - MPoly.constant(t, 1, z)
        norm = galois_norm_poly(p)
        # prod over 4 conjugates of (X - zeta^k) = Phi_5(X)
        assert norm == {(4,): F(1), (3,): F(1), (2,): F(1), (1,): F(1), (0,): F(1)}
