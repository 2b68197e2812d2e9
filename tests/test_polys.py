from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgdecide.errors import DecideError
from hgdecide.exactnum import QuadElem
from hgdecide.numutil import perfect_power_root
from hgdecide.polys import (
    IntPoly,
    NotSplitting,
    QPoly,
    count_real_roots_below,
    cyclotomic,
    coprime,
    cyclotomic_index,
    factor_monic,
    has_negative_real_root,
    poly_gcd,
    roots_quadratic,
)


class TestPolyOps:
    def test_gcd_common_factor(self):
        assert poly_gcd(IntPoly.of(-1, 0, 1), IntPoly.of(-1, 0, 0, 1)) == IntPoly.of(-1, 1)

    def test_shift_binomial(self):
        assert IntPoly.of(0, 0, 1).to_q().compose_linear(F(-1), F(1)) == QPoly.of(1, -2, 1)

    def test_divrem_reconstructs(self):
        a = IntPoly((-1, 0, 0, 0, 0, 0, 1))
        b = IntPoly.of(-1, 0, 1)
        quo, rem = a.to_q().divrem(b.to_q())
        assert rem.is_zero and quo == QPoly.of(1, 0, 1, 0, 1)
        assert quo * b.to_q() == a.to_q()

    def test_division_by_zero_poly(self):
        with pytest.raises(DecideError):
            IntPoly.of(1, 1).to_q().divrem(IntPoly(()).to_q())

    def test_mirror_and_cauchy(self):
        f = IntPoly.of(13, -4, 1)
        assert f.mirror(4) == f.to_q()
        assert f.cauchy_bound() == 14


MERSENNE_61 = 2**61 - 1

small_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=5).map(lambda c: IntPoly(tuple(c)))


def with_lead_multiple_of_p(f: IntPoly, k: int) -> IntPoly:
    """f plus k*P*x^(deg f + 1): a leading coefficient divisible by P = 2^61 - 1."""
    return f + IntPoly.x_power(max(f.degree, 0) + 1) * (k * MERSENNE_61)


def rational_exact_div(n: IntPoly, d: IntPoly) -> IntPoly:
    """Quotient by division over Q; raises unless it is exact and integral."""
    quo, rem = n.to_q().divrem(d.to_q())
    if not rem.is_zero:
        raise DecideError("inexact polynomial division")
    if any(c.denominator != 1 for c in quo.coeffs):
        raise DecideError("quotient not integral")
    return IntPoly(tuple(c.numerator for c in quo.coeffs))


def outcome(fn, *args):
    try:
        return fn(*args)
    except DecideError:
        return "raises"


class TestIntegerKernels:
    @settings(max_examples=150, deadline=None)
    @given(a=small_polys, b=small_polys, common=small_polys,
           p_lead=st.sampled_from([None, (0, 1), (1, 1), (0, -3), (1, 2)]))
    def test_coprime_matches_exact_gcd(self, a, b, common, p_lead):
        # a planted common factor (when `common` has degree >= 1), and
        # sometimes a leading coefficient divisible by P, which skips the
        # modular test
        a, b = a * common, b * common
        if p_lead is not None:
            side, k = p_lead
            if side == 0:
                a = with_lead_multiple_of_p(a, k)
            else:
                b = with_lead_multiple_of_p(b, k)
        assert coprime(a, b) == (poly_gcd(a, b).degree < 1)

    @pytest.mark.parametrize(
        "a,b,want",
        [
            # gcd x mod P, coprime over Q: the exact fallback decides
            (IntPoly.of(0, 1), IntPoly.of(MERSENNE_61, 1), True),
            (IntPoly.of(-1, 0, 1), IntPoly.of(1 + MERSENNE_61, 1), True),
            (IntPoly.of(-1, 0, 1), IntPoly.of(1, 1), False),
            (IntPoly.of(1, MERSENNE_61), IntPoly.of(1, MERSENNE_61) * IntPoly.of(2, 1), False),
            (IntPoly.of(1, MERSENNE_61), IntPoly.of(2, 1), True),
            (IntPoly(()), IntPoly.of(3), True),
            (IntPoly(()), IntPoly.of(1, 1), False),
        ],
    )
    def test_coprime_cases(self, a, b, want):
        assert coprime(a, b) is want is (poly_gcd(a, b).degree < 1)

    @settings(max_examples=200, deadline=None)
    @given(a=small_polys, d=small_polys, r=small_polys, lead=st.sampled_from([1, -1, 2, -3, 6]),
           form=st.sampled_from(["exact", "remainder", "scaled"]))
    def test_exact_div_matches_rational_division(self, a, d, r, lead, form):
        # "scaled" divides a*d by 2*d: exact over Q, integral only when 2 | a
        d = d + IntPoly.x_power(max(d.degree, 0) + 1) * lead
        n = a * d + r if form == "remainder" else a * d
        if form == "scaled":
            d = d * 2
        assert outcome(n.exact_div, d) == outcome(rational_exact_div, n, d)

    def test_exact_div_by_zero_raises(self):
        with pytest.raises(DecideError):
            IntPoly.of(1, 1).exact_div(IntPoly(()))


class TestCyclotomic:
    @pytest.mark.parametrize(
        "n,coeffs",
        [(1, (-1, 1)), (12, (1, 0, -1, 0, 1)), (18, (1, 0, 0, -1, 0, 0, 1))],
    )
    def test_values(self, n, coeffs):
        assert cyclotomic(n) == IntPoly(coeffs)

    @pytest.mark.parametrize("n", [2, 6, 12, 30, 48, 64])
    def test_product_over_divisors(self, n):
        prod = IntPoly.of(1)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == IntPoly((-1,) + (0,) * (n - 1) + (1,))

    @pytest.mark.parametrize("n", [4, 9, 16, 21])
    def test_divides_xn_minus_one(self, n):
        xn1 = IntPoly((-1,) + (0,) * (n - 1) + (1,))
        assert cyclotomic(n).divides(xn1)

    def test_index_lookup(self):
        assert cyclotomic_index(cyclotomic(18)) == 18
        assert cyclotomic_index(IntPoly.of(2, 0, 1)) is None


class TestFactor:
    def test_irreducible_quadratics_and_quartics(self):
        for coeffs in [(13, -4, 1), (2, -8, -4, 0, 1), (1044, 120, -71, -5, 1),
                       (-17, 37, -16, -1, 1)]:
            f = IntPoly(coeffs)
            assert factor_monic(f) == [(f, 1)]

    def test_mixed_product_with_multiplicity(self):
        f = cyclotomic(12) * IntPoly.of(13, -4, 1) * IntPoly.of(13, -4, 1) * IntPoly.of(3, 1)
        fac = dict((g.coeffs, m) for g, m in factor_monic(f))
        assert fac == {(3, 1): 1, (13, -4, 1): 2, (1, 0, -1, 0, 1): 1}

    def test_mirrored_cubics(self):
        c1, c2 = IntPoly.of(-2, 0, 0, 1), IntPoly.of(2, 0, 0, 1)
        assert factor_monic(c1 * c2) == [(c1, 1), (c2, 1)]

    def test_x6_minus_large_cube(self):
        # b^3 is a perfect cube far beyond float precision, so x^6 - b^3 is
        # not of the irreducible x^d - a shape
        b = 3 * 2**56 + 1
        assert factor_monic(IntPoly.of(-(b**3), 0, 0, 0, 0, 0, 1)) == [
            (IntPoly.of(-b, 0, 1), 1),
            (IntPoly.of(b * b, 0, b, 0, 1), 1),
        ]

    def test_non_monic_rejected(self):
        with pytest.raises(DecideError):
            factor_monic(IntPoly.of(1, 2))


class TestPerfectPowerRoot:
    def test_large_square(self):
        r = 2**100 + 7
        assert perfect_power_root(r**2, 2) == r
        assert perfect_power_root(r**2 + 1, 2) is None

    def test_large_cube(self):
        r = 2**60 + 1
        assert perfect_power_root(r**3, 3) == r
        assert perfect_power_root(-(r**3), 3) == -r
        assert perfect_power_root(r**3 - 1, 3) is None


class TestRootsQuadratic:
    def test_worked_example_roots(self):
        rm = roots_quadratic(IntPoly.of(13, -4, 1))
        roots = sorted((e.root.a, e.root.b, e.root.d) for e in rm.entries)
        assert roots == [(F(2), F(-3), -1), (F(2), F(3), -1)]

    def test_half_integer_case(self):
        rm = roots_quadratic(IntPoly.of(1, -1, 1))
        roots = sorted((e.root.a, e.root.b, e.root.d) for e in rm.entries)
        assert roots == [(F(1, 2), F(-1, 2), -3), (F(1, 2), F(1, 2), -3)]

    def test_not_splitting(self):
        assert isinstance(roots_quadratic(IntPoly.of(-2, 0, 0, 1)), NotSplitting)

    def test_round_trip_product(self):
        f = IntPoly.of(-1, -2, 1) * IntPoly.of(6, -5, 1) * IntPoly.of(13, -4, 1)
        rm = roots_quadratic(f)
        # expand prod (x - root) exactly: pair conjugate quadratic roots
        prod = QPoly.of(1)
        pool = []
        for e in rm.entries:
            for _ in range(e.mult):
                if isinstance(e.root, QuadElem):
                    pool.append(e.root)
                else:
                    prod = prod * QPoly.of(-e.root, 1)
        while pool:
            r = pool.pop()
            pool.remove(r.conjugate())
            prod = prod * QPoly.of(r.norm(), -2 * r.a, 1)
        assert prod == f.to_q()

    def test_conjugate_closure(self):
        f = IntPoly.of(13, -4, 1) * IntPoly.of(1, -1, 1)
        rm = roots_quadratic(f)
        quads = [e.root for e in rm.entries if isinstance(e.root, QuadElem)]
        for r in quads:
            assert any(s == r.conjugate() for s in quads)


coef = st.integers(min_value=-9, max_value=9)


class TestRootsProperty:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=2),
           st.lists(st.tuples(coef, coef), min_size=0, max_size=1))
    def test_reported_roots_satisfy_poly(self, lin_roots, quad_parts):
        f = IntPoly.of(1)
        for r in lin_roots:
            f = f * IntPoly.of(-r, 1)
        for b, c in quad_parts:
            g = IntPoly.of(c, b, 1)
            disc = b * b - 4 * c
            import math

            s = math.isqrt(abs(disc))
            if disc == 0 or (disc > 0 and s * s == disc):
                continue
            f = f * g
        rm = roots_quadratic(f)
        if isinstance(rm, NotSplitting):
            return
        assert rm.total == f.degree
        for e in rm.entries:
            r = e.root
            if isinstance(r, F):
                assert f(r) == 0
            else:
                # evaluate f at a + b sqrt(d) exactly
                acc = QuadElem.rational(0, r.d)
                for cc in reversed(f.coeffs):
                    acc = acc * r + cc
                assert not acc


class TestSturm:
    def test_counts(self):
        assert count_real_roots_below(QPoly.of(-2, 0, 1), F(0)) == 1
        assert has_negative_real_root(QPoly.of(-1, -2, 1))  # roots 1 +- sqrt(2)
        assert not has_negative_real_root(QPoly.of(1, 0, 1))  # roots +-i
        assert has_negative_real_root(QPoly.of(9, 1))  # root -9
        assert not has_negative_real_root(QPoly.of(-9, 1))  # root 9
