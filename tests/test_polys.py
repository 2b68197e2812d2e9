import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgdecide import polys
from hgdecide.errors import DecideError, PrecisionExceeded, UnsupportedInstance
from hgdecide.numutil import factorize, is_probable_prime, perfect_power_root
from hgdecide.polys import (
    COEFF_BIT_CAP,
    IntPoly,
    QPoly,
    QuadRoot,
    count_real_roots_below,
    cyclotomic,
    coprime,
    cyclotomic_index,
    factor_monic,
    has_negative_real_root,
    integer_roots,
    poly_gcd,
    roots_quadratic,
)
from hgdecide.towers import MultiquadraticTower


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

    def test_shared_arithmetic_keeps_each_ring(self):
        f, g = IntPoly.of(1, 2, 3), QPoly.of(F(1, 2), 1)
        for a in (f, g):
            for r in (a + a, a - a, -a, a * a, 2 * a, a * 2, a.derivative()):
                assert type(r) is type(a)
        assert g * F(1, 3) == F(1, 3) * g == QPoly.of(F(1, 6), F(1, 3))
        assert f(2) == 17 and g(F(1, 2)) == 1
        # an IntPoly takes no rational scalar: no silent truncation
        with pytest.raises(TypeError):
            f * F(1, 2)
        with pytest.raises(TypeError):
            F(1, 2) * f

    def test_mirror_and_cauchy(self):
        f = IntPoly.of(13, -4, 1)
        assert f.compose_linear(4, -1) == f

    def test_compose_linear_keeps_each_ring(self):
        f = IntPoly.of(1, 2, 3)
        assert f.compose_linear(2, 3) == IntPoly.of(17, 42, 27)
        assert f.to_q().compose_linear(F(1, 2), 1) == QPoly.of(F(11, 4), 5, 3)
        assert IntPoly(()).compose_linear(5, 1).is_zero
        # an IntPoly substitutes integers only: no silent truncation
        with pytest.raises(TypeError):
            f.compose_linear(F(1, 2), 1)

    @given(
        st.lists(st.integers(-50, 50), max_size=7).map(lambda c: IntPoly(tuple(c))),
        st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
    )
    def test_compose_linear_evaluates_the_substitution(self, f, alpha, beta, x):
        assert f.compose_linear(alpha, beta)(x) == f(alpha + beta * x)


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

    def test_degree_past_the_search_limit_is_unsupported(self):
        with pytest.raises(UnsupportedInstance, match="up to degree 16; got 17"):
            factor_monic(IntPoly.of(7, *[0] * 16, 1))


# the product of the first 40 primes, with 2^40 divisors
C40 = math.prod(p for p in range(2, 174) if all(p % d for d in range(2, p)))
# primes near 2^100: Pollard rho finds no factor of P100 * Q100 in its budget
P100, Q100 = 2**100 + 277, 2**100 + 331
X8_MINUS_2 = IntPoly((-2,) + (0,) * 7 + (1,))


def sympy_factors(f: IntPoly) -> list[tuple[IntPoly, int]]:
    """sympy's factorization over Z of f (content dropped), as factor_monic
    sorts it."""
    import sympy

    x = sympy.Symbol("x")
    _, factors = sympy.factor_list(sympy.Poly(list(reversed(f.coeffs)), x))
    out = [(IntPoly(tuple(int(c) for c in reversed(g.all_coeffs()))), m) for g, m in factors]
    return sorted(out, key=lambda t: (t[0].degree, t[0].coeffs))


def within_caps(factors: list[IntPoly]) -> IntPoly:
    """The product of the longest prefix of factors within the coefficient cap."""
    out = IntPoly.of(1)
    for g in factors:
        if any(abs(c).bit_length() > COEFF_BIT_CAP for c in (out * g).coeffs):
            break
        out = out * g
    return out


@st.composite
def monic_products(draw):
    """Monic products of degree <= 16, factor coefficients up to 2^64, some
    factors repeated."""
    factors, degree = [], 0
    while degree < 16 and (not factors or draw(st.booleans())):
        d = draw(st.integers(1, min(8, 16 - degree)))
        bound = 2 ** draw(st.sampled_from([1, 4, 16, 64]))
        g = IntPoly(tuple(draw(st.integers(-bound, bound)) for _ in range(d)) + (1,))
        factors += [g] * (2 if degree + 2 * d <= 16 and draw(st.booleans()) else 1)
        degree = sum(h.degree for h in factors)
    return within_caps(factors)


@st.composite
def nonmonic_with_roots(draw):
    """Non-monic polynomials of degree <= 32: linear factors a*x - b (b up
    to 2^100, a | b or not), some repeated, times a random cofactor."""
    factors = []
    for _ in range(draw(st.integers(1, 8))):
        a, b = draw(st.integers(1, 6)), draw(st.integers(-(2**100), 2**100))
        b = b * a if draw(st.booleans()) else b
        factors += [IntPoly.of(-b, a)] * draw(st.integers(1, 3))
    cofactor = [draw(st.integers(-1000, 1000)) for _ in range(draw(st.integers(1, 13)))]
    factors.append(IntPoly(tuple(cofactor) + (draw(st.integers(-9, 9)) or 1,)))
    while sum(g.degree for g in factors) > 32:
        factors.pop(0)
    return within_caps(draw(st.permutations(factors)))


class TestModularKernel:
    @settings(max_examples=25, deadline=None)
    @given(monic_products())
    def test_factor_monic_matches_sympy(self, f):
        assert factor_monic(f) == sympy_factors(f)

    @settings(max_examples=25, deadline=None)
    @given(nonmonic_with_roots())
    def test_integer_roots_match_sympy(self, f):
        want = {-g.coeffs[0] // g.coeffs[1] for g, _ in sympy_factors(f)
                if g.degree == 1 and g.coeffs[0] % g.coeffs[1] == 0}
        assert integer_roots(f) == tuple(sorted(want))

    def test_root_of_many_divisors(self):
        assert integer_roots(IntPoly.of(-C40, 1)) == (C40,)

    def test_root_of_a_large_semiprime(self):
        assert integer_roots(IntPoly.of(-P100 * Q100, 1)) == (P100 * Q100,)
        assert integer_roots(IntPoly.of(3, 1) * IntPoly.of(P100 * Q100, 1)) == (-P100 * Q100, -3)

    def test_integer_roots_is_a_tuple_with_zero_and_repeats(self):
        f = IntPoly.of(0, 0, 1) * IntPoly.of(-4, 2) * IntPoly.of(-4, 2) * IntPoly.of(3, 2)
        assert integer_roots(f) == (0, 2)

    @pytest.mark.parametrize(
        "f",
        [
            cyclotomic(15) * cyclotomic(30),
            X8_MINUS_2 * X8_MINUS_2.compose_linear(1, -1),
            cyclotomic(16) * cyclotomic(16).compose_linear(1, -1),
            cyclotomic(20) * cyclotomic(20).compose_linear(1, -1),
        ],
        ids=["phi15*phi30", "(x^8-2)((1-x)^8-2)", "phi16(x)phi16(1-x)", "phi20(x)phi20(1-x)"],
    )
    def test_two_irreducible_octics(self, f):
        factors = factor_monic(f)
        assert [(g.degree, m) for g, m in factors] == [(8, 1), (8, 1)]
        assert factors[0][0] * factors[1][0] == f


    @pytest.mark.parametrize(
        "f",
        [X8_MINUS_2 * X8_MINUS_2.compose_linear(1, -1), cyclotomic(5) * cyclotomic(7) * cyclotomic(9)],
        ids=["(x^8-2)((1-x)^8-2)", "phi5*phi7*phi9"],
    )
    def test_lift_modulus_passes_twice_the_mignotte_bound(self, monkeypatch, f):
        # a monic factor of a degree-n f has coefficients below 2^n ||f||_2
        # (Mignotte), so the lifts must reach a modulus M > 2^(n+1) ||f||_2
        # to read each factor off its symmetric residues.  Squaring the
        # modulus overshoots, so factoring the same with a smaller bound
        # does not show a missing 2^n; the moduli passed to _hensel do
        moduli = []
        hensel = polys._hensel

        def recording(coeffs, g, l, M):
            moduli.append((coeffs, M))
            return hensel(coeffs, g, l, M)

        monkeypatch.setattr(polys, "_hensel", recording)
        for cached in (factor_monic, integer_roots, polys._squarefree_part):
            cached.cache_clear()
        product = IntPoly.of(1)
        for g, m in factor_monic(f):
            for _ in range(m):
                product = product * g
        assert product == f and len(moduli) >= 2
        for coeffs, M in moduli:
            n = len(coeffs) - 1
            assert M * M > sum(c * c for c in coeffs) << (2 * (n + 1)), (n, M)


class TestPollardRhoBudget:
    def test_semiprime_discriminant_is_a_resource_error(self):
        # x^2 + x + (PQ + 1)/4 is irreducible with discriminant -PQ, whose
        # squarefree part needs the factors of PQ
        with pytest.raises(PrecisionExceeded):
            roots_quadratic(IntPoly.of((P100 * Q100 + 1) // 4, 1, 1))

    def test_primes_near_2_to_31_still_factor(self):
        a, b = 2147483659, 2147484679
        assert factorize(a * b) == {a: 1, b: 1}

    def test_squares_and_closed_cycles_factor(self):
        # 41^2 is split as a perfect square; on 41 * 131 the cycle of
        # x^2 + 1 closes on n itself, and x^2 + 2 finds 41
        assert factorize(1681) == {41: 2}
        assert factorize(5371) == {41: 1, 131: 1}

    def test_products_of_primes_past_the_trial_divisors_agree_with_sympy(self):
        # primes from 41 on, past the trial divisors, so every factor comes
        # from the square test or Pollard rho; squares and cubes included
        import sympy

        rng = random.Random(43)
        primes = list(sympy.primerange(41, 3000)) + [sympy.prevprime(2**k) for k in range(12, 31)]
        for _ in range(1500):
            n = 1
            for p in rng.sample(primes, rng.randint(1, 3)):
                n *= p ** rng.choice((1, 1, 2, 3))
            assert factorize(n) == sympy.factorint(n), n


class TestMillerRabin:
    # the least strong pseudoprime to the first 12 prime bases
    PSI_12 = 318665857834031151167461

    def test_psi_12_is_composite(self):
        assert 399165290221 * 798330580441 == self.PSI_12
        assert not is_probable_prime(self.PSI_12)

    def test_factorize_never_calls_psi_12_prime(self):
        # its factors lie past the rho budget: a resource error, not {psi_12: 1}
        with pytest.raises(PrecisionExceeded):
            factorize(self.PSI_12)

    def test_agrees_with_sympy(self):
        import sympy

        rng = random.Random(41)
        draws = list(range(2000)) + [rng.randrange(2**80) | 1 for _ in range(300)]
        for n in draws:
            assert is_probable_prime(n) == sympy.isprime(n), n


class TestBailliePSW:
    # the least strong pseudoprime to the first 13 prime bases, where the
    # Miller-Rabin bases stop being a proof
    PSI_13 = 3317044064679887385961981

    def test_psi_13_is_composite(self):
        assert 1287836182261 * 2575672364521 == self.PSI_13
        assert not is_probable_prime(self.PSI_13)

    def test_factorize_never_calls_psi_13_prime(self):
        with pytest.raises(PrecisionExceeded):
            factorize(self.PSI_13)

    def test_strong_lucas_pseudoprimes_below_20000(self):
        # the strong Lucas test alone passes exactly the primes and the
        # five strong Lucas pseudoprimes below 20000 (OEIS A217255)
        import sympy

        from hgdecide.numutil import _strong_lucas

        pseudoprimes = {5459, 5777, 10877, 16109, 18971}
        for n in range(43, 20000, 2):
            if math.gcd(n, math.prod(range(3, 42, 2))) == 1:
                assert _strong_lucas(n) == (sympy.isprime(n) or n in pseudoprimes), n

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=80, max_value=256).flatmap(lambda b: st.integers(2 ** (b - 1), 2**b)))
    def test_agrees_with_sympy(self, n):
        import sympy

        # odd draws, their next primes, and products of two such primes
        p = sympy.nextprime(n >> (n.bit_length() // 2))
        q = sympy.nextprime(p + (n & 0xFFFF))
        for m in (n | 1, sympy.nextprime(n), p * q):
            assert is_probable_prime(m) == sympy.isprime(m), m


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


def tower_elem(r: QuadRoot):
    """a + b*sqrt(d) as an element of Q(sqrt(d))."""
    return MultiquadraticTower((r.d,)).element((r.a, r.b))


class TestRootsQuadratic:
    def test_worked_example_roots(self):
        roots = sorted((e.root.a, e.root.b, e.root.d) for e in roots_quadratic(IntPoly.of(13, -4, 1)))
        assert roots == [(F(2), F(-3), -1), (F(2), F(3), -1)]

    def test_half_integer_case(self):
        roots = sorted((e.root.a, e.root.b, e.root.d) for e in roots_quadratic(IntPoly.of(1, -1, 1)))
        assert roots == [(F(1, 2), F(-1, 2), -3), (F(1, 2), F(1, 2), -3)]

    def test_not_splitting(self):
        with pytest.raises(UnsupportedInstance, match="irreducible factor of degree 3"):
            roots_quadratic(IntPoly.of(-2, 0, 0, 1))

    def test_round_trip_product(self):
        f = IntPoly.of(-1, -2, 1) * IntPoly.of(6, -5, 1) * IntPoly.of(13, -4, 1)
        # expand prod (x - root) exactly: pair conjugate quadratic roots
        prod = QPoly.of(1)
        pool = []
        for e in roots_quadratic(f):
            for _ in range(e.mult):
                if isinstance(e.root, QuadRoot):
                    pool.append(e.root)
                else:
                    prod = prod * QPoly.of(-e.root, 1)
        while pool:
            r = pool.pop()
            pool.remove(r._replace(b=-r.b))
            x, xbar = tower_elem(r), tower_elem(r._replace(b=-r.b))
            prod = prod * QPoly.of((x * xbar).as_rational(), -(x + xbar).as_rational(), 1)
        assert prod == f.to_q()

    def test_conjugate_closure(self):
        f = IntPoly.of(13, -4, 1) * IntPoly.of(1, -1, 1)
        quads = [tower_elem(e.root) for e in roots_quadratic(f) if isinstance(e.root, QuadRoot)]
        # y != x in the same field with x + y and x * y rational is the
        # conjugate of x
        for x in quads:
            assert any(
                y.tower == x.tower and y != x and (x + y).is_rational and (x * y).is_rational
                for y in quads
            )


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
        roots = roots_quadratic(f)
        assert sum(e.mult for e in roots) == f.degree
        for e in roots:
            r = e.root
            if isinstance(r, F):
                assert f(r) == 0
            else:
                # evaluate f at a + b sqrt(d) exactly, by Horner's rule
                x = tower_elem(r)
                acc = x.tower.zero()
                for cc in reversed(f.coeffs):
                    acc = acc * x + cc
                assert acc.is_zero


class TestSturm:
    def test_counts(self):
        assert count_real_roots_below(QPoly.of(-2, 0, 1), F(0)) == 1
        assert has_negative_real_root(QPoly.of(-1, -2, 1))  # roots 1 +- sqrt(2)
        assert not has_negative_real_root(QPoly.of(1, 0, 1))  # roots +-i
        assert has_negative_real_root(QPoly.of(9, 1))  # root -9
        assert not has_negative_real_root(QPoly.of(-9, 1))  # root 9

    def test_a_root_at_zero_is_not_negative(self):
        assert has_negative_real_root(QPoly.of(0, 1, 1))  # roots 0 and -1
        assert not has_negative_real_root(QPoly.of(0, -1, 1))  # roots 0 and 1
