import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hgdecide.errors import DecideError, PrecisionExceeded, UnsupportedInstance
from hgdecide.gammacanon import (
    X_POWER_CAP,
    CanonicalConstant,
    GammaProduct,
    canonicalize,
    integer_gamma_ratio,
    limit_as_gamma,
    translation_squares,
)
from hgdecide.polys import IntPoly, poly_gcd, roots_quadratic
from hgdecide.towers import MultiquadraticTower

from gammaforms import gamma_ratio_limit, pair_value_enclosure, tail_log_bound


def canon_of(p, q, u0=F(1)):
    rp, rq = roots_quadratic(p), roots_quadratic(q)
    return canonicalize(limit_as_gamma(p, q, rp, rq)).scale(u0)


class TestLimitAsGamma:
    def test_worked_example_arguments(self):
        p, q = IntPoly.of(13, -4, 1), IntPoly.of(5, -4, 1)
        gp = limit_as_gamma(p, q, roots_quadratic(p), roots_quadratic(q))
        assert gp.num_pairs == ((F(-2), F(3), -1),) and gp.den_pairs == ((F(-2), F(1), -1),)
        assert gp.num_rat == gp.den_rat == ()

    def test_pairs_repeat_with_multiplicity(self):
        p = IntPoly.of(1, 0, 1) * IntPoly.of(1, 0, 1) * IntPoly.of(3, 1)  # (x^2+1)^2 (x+3)
        q = IntPoly.of(4, 0, 1) * IntPoly.of(1, 3, 3, 1)  # (x^2+4) (x+1)^3
        gp = limit_as_gamma(p, q, roots_quadratic(p), roots_quadratic(q))
        assert gp.num_pairs == ((F(0), F(1), -1),) * 2 and gp.num_rat == (F(3),)
        assert gp.den_pairs == ((F(0), F(2), -1),) and gp.den_rat == (F(1),) * 3

    def test_rational_arguments(self):
        p = IntPoly.of(2, 1) * IntPoly.of(2, 1)  # (x+2)^2: roots -2,-2
        q = IntPoly.of(1, 1) * IntPoly.of(3, 1)
        gp = limit_as_gamma(p, q, roots_quadratic(p), roots_quadratic(q))
        assert sorted(gp.num_rat) == [2, 2] and sorted(gp.den_rat) == [1, 3]
        assert gp.num_pairs == gp.den_pairs == ()

    def test_unbalanced_rejected(self):
        p, q = IntPoly.of(1, 1), IntPoly.of(2, 1)
        with pytest.raises(DecideError):
            limit_as_gamma(p, q, roots_quadratic(p), roots_quadratic(q))


def pair_prefactor(rho: F, b: F, m: int) -> F:
    """The norm A * conj(A) of the translation factor A in
    Gamma(rho + w) = A * Gamma(rho0 + w), w = b*sqrt(-m), rho0 in {0, 1/2}:
    Gamma(rho + w)Gamma(rho - w) is prefactor * pi times the sinh or cosh
    core of its base pair."""
    squares, rising = translation_squares(rho)
    return math.prod((c + b * b * m for c in squares), start=F(1)) ** (1 if rising else -1)


class TestPairProduct:
    def test_value_pi_over_390_sinh3pi(self, mp, mpref):
        pref = pair_prefactor(F(-2), F(3), 1)
        assert pref == F(1, 130)
        iv = pair_value_enclosure(F(-2), F(3), 1, pref, 96)
        assert mpref(mp.pi / (390 * mp.sinh(3 * mp.pi))) in iv

    def test_value_pi_over_10_sinhpi(self, mp, mpref):
        iv = pair_value_enclosure(F(-2), F(1), 1, pair_prefactor(F(-2), F(1), 1), 96)
        assert mpref(mp.pi / (10 * mp.sinh(mp.pi))) in iv

    def test_half_integer_cosh_form(self, mp, mpref):
        iv = pair_value_enclosure(F(1, 2), F(1, 2), 3, pair_prefactor(F(1, 2), F(1, 2), 3), 96)
        ref = mpref(2 * mp.pi / (mp.exp(mp.pi * mp.sqrt(3) / 2) + mp.exp(-mp.pi * mp.sqrt(3) / 2)))
        assert ref in iv

    # the prefactor against the norm of A computed in Q(sqrt(-m))
    @staticmethod
    def norm(x):
        """x times its conjugate, for x in Q(sqrt(d))."""
        return (x * x.tower.element((x.coords[0], -x.coords[1]))).as_rational()

    def test_two_falling_steps(self):
        t = MultiquadraticTower((-1,))
        b = t.element((F(-1), F(3))) * t.element((F(-2), F(3)))  # A = 1/b
        assert pair_prefactor(F(-2), F(3), 1) == 1 / self.norm(b)

    def test_one_rising_step_half(self):
        a = MultiquadraticTower((-3,)).element((F(1, 2), F(1, 2)))
        assert pair_prefactor(F(3, 2), F(1, 2), 3) == self.norm(a)

    def test_non_half_integer_rejected(self):
        with pytest.raises(DecideError):
            translation_squares(F(1, 3))


class TestCanonicalize:
    def test_worked_example_tuple(self, sinh_ratio_instance):
        c = canon_of(IntPoly.of(13, -4, 1), IntPoly.of(5, -4, 1))
        assert (c.theta_a, c.theta_b, c.ell) == (F(1, 39), 0, 0)
        assert c.f == IntPoly.of(0, 0, 1) and c.g == IntPoly.of(1, 0, 1, 0, 1)
        assert (c.m, c.D, c.base_trivial) == (1, 1, False)

    def test_worked_example_value(self, mp, mpref):
        c = canon_of(IntPoly.of(13, -4, 1), IntPoly.of(5, -4, 1))
        iv = c.limit_enclosure(128)
        assert mpref(mp.sinh(mp.pi) / (39 * mp.sinh(3 * mp.pi))) in iv

    def test_all_rational_trivial_base(self):
        p = IntPoly.of(2, 1) * IntPoly.of(2, 1)
        q = IntPoly.of(1, 1) * IntPoly.of(3, 1)
        c = canon_of(p, q)
        assert c.base_trivial and c.theta_a == F(1, 2) and c.ell == 0

    def test_single_pair_reflection_value(self, mp, mpref):
        # Gamma(i)Gamma(-i)Gamma(3) / (Gamma(1)^3) = 2 pi/sinh(pi), balanced
        gp = GammaProduct((F(3),), (F(1), F(1), F(1)), ((F(0), F(1), -1),), ())
        c = canonicalize(gp)
        iv = c.limit_enclosure(96)
        assert mpref(2 * mp.pi / mp.sinh(mp.pi)) in iv
        assert c.ell == 1 and c.f == IntPoly.of(0, 1) and c.g == IntPoly.of(-1, 0, 1)

    def test_mixed_fields_rejected(self):
        p, q = IntPoly.of(1, -1, 1), IntPoly.of(3, -1, 1)
        with pytest.raises(UnsupportedInstance):
            canon_of(p, q)

    def test_real_quadratic_rejected(self):
        p, q = IntPoly.of(-1, -2, 1), IntPoly.of(-4, -2, 1)
        with pytest.raises(UnsupportedInstance):
            canon_of(p, q)

    def test_half_integer_base(self, mp, mpref):
        c = canon_of(IntPoly.of(1, -1, 1), IntPoly.of(7, -1, 1))
        assert c.m == 3 and c.D == 2
        iv = c.limit_enclosure(160)
        prod = mp.mpf(1)
        for k in range(3000):
            prod *= mp.mpf(k * k - k + 7) / (k * k - k + 1)
        tb = tail_log_bound(IntPoly.of(1, -1, 1), IntPoly.of(7, -1, 1), 3000)
        lo = mpref(prod * mp.exp(-mp.mpf(float(tb))))
        hi = mpref(prod * mp.exp(mp.mpf(float(tb))))
        assert not (iv.hi < lo or hi < iv.lo)

    def test_invariants_coprime_primitive_positive(self):
        for p, q in [
            (IntPoly.of(13, -4, 1), IntPoly.of(5, -4, 1)),
            (IntPoly.of(1, -1, 1), IntPoly.of(7, -1, 1)),
            (IntPoly.of(2, 0, 1), IntPoly.of(8, 0, 1)),
            (IntPoly.of(2, 0, 1) * IntPoly.of(1, 1), IntPoly.of(8, 0, 1) * IntPoly.of(1, 1)),
        ]:
            c = canon_of(p, q)
            if c.base_trivial:
                continue
            assert c.f.lead > 0 and c.g.lead > 0
            assert c.f.content() == 1 and c.g.content() == 1
            assert poly_gcd(c.f, c.g).degree < 1
            assert c.theta_a != 0 or c.theta_b != 0

    def test_even_pair_counts_keep_theta_rational(self, mp, mpref):
        c = canon_of(IntPoly.of(2, 0, 1), IntPoly.of(8, 0, 1))
        assert c.m == 2 and c.theta_b == 0
        iv = c.limit_enclosure(128)
        prod = mp.mpf(1)
        for k in range(4000):
            prod *= mp.mpf(k * k + 8) / (k * k + 2)
        assert abs(float(iv.mid()) / float(prod) - 1) < 0.01

    def test_odd_pair_imbalance_gives_sqrt_part_but_real_theta(self, mp):
        # three integer-rho pairs in total (two in p, one in q): theta lands
        # in Q(sqrt(2)) proper, still real by construction
        p = IntPoly.of(2, 0, 1) * IntPoly.of(8, 0, 1)
        q = IntPoly.of(3, -2, 1) * IntPoly.of(1, 1) * IntPoly.of(1, 1)
        c = canon_of(p, q)
        assert c.m == 2 and c.theta_b != 0
        iv = c.limit_enclosure(128)
        prod = mp.mpf(1)
        for k in range(4000):
            prod *= mp.mpf((k * k - 2 * k + 3) * (k + 1) * (k + 1))
            prod /= mp.mpf((k * k + 2) * (k * k + 8))
        assert abs(float(iv.mid()) / float(prod) - 1) < 0.01

    def test_tail_bound_validity_threshold(self):
        with pytest.raises(DecideError):
            tail_log_bound(IntPoly.of(13, -4, 1), IntPoly.of(5, -4, 1), 3)


class _Theta:
    """Accumulator for theta = a + b*sqrt(m) in Q(sqrt(m)); folds sqrt(1)
    immediately."""

    def __init__(self, m: int):
        self.m = m
        self.a = F(1)
        self.b = F(0)

    def mul(self, x: F, y: F = F(0)):
        """theta *= x + y*sqrt(m)."""
        if self.m == 1:
            x = x + y
            y = F(0)
        a = self.a * x + self.b * y * self.m
        b = self.a * y + self.b * x
        self.a, self.b = a, b

    def div(self, x: F, y: F = F(0)):
        if self.m == 1:
            x = x + y
            y = F(0)
        norm = x * x - y * y * self.m
        self.mul(x / norm, -y / norm)


def dense_canonicalize(gp: GammaProduct) -> CanonicalConstant:
    """Reference: multiply every pair's x^e and x^2e -+ 1 out densely,
    accumulate theta in Q(sqrt(m)), cancel by poly_gcd over Q and
    normalise content and sign into theta (the route canonicalize took
    before it kept f/g factored)."""
    pairs = gp.num_pairs + gp.den_pairs
    m = -pairs[0][2]
    D = 2 if any(b.denominator == 2 for _, b, _ in pairs) else 1
    theta = _Theta(m)
    theta.mul(integer_gamma_ratio(gp.num_rat, gp.den_rat))
    ell = 0
    f = g = IntPoly.of(1)
    for side_pairs, up in ((gp.num_pairs, True), (gp.den_pairs, False)):
        for rho, b, _ in side_pairs:
            e = int(b * D)
            top = IntPoly.x_power(e)
            prefactor = pair_prefactor(rho, b, m)
            if rho.denominator == 1:
                coef = (F(0), prefactor * 2 / (b * m))
                bottom = IntPoly.x_power(2 * e) - IntPoly.of(1)
            else:
                coef = (prefactor * 2, F(0))
                bottom = IntPoly.x_power(2 * e) + IntPoly.of(1)
            if up:
                ell += 1
                theta.mul(*coef)
                f, g = f * top, g * bottom
            else:
                ell -= 1
                theta.div(*coef)
                f, g = f * bottom, g * top
    common = poly_gcd(f, g)
    if common.degree >= 1:
        f, g = f.exact_div(common), g.exact_div(common)
    fc = f.content() * (1 if f.lead > 0 else -1)
    gc = g.content() * (1 if g.lead > 0 else -1)
    f = IntPoly(tuple(c // fc for c in f.coeffs))
    g = IntPoly(tuple(c // gc for c in g.coeffs))
    theta.mul(F(fc, gc))
    return CanonicalConstant(theta.a, theta.b, ell, f, g, m, D, False)


def balanced_product(num_pairs, den_pairs, m) -> GammaProduct:
    """Conjugate pairs (rho, b) on each side, padded with positive integer
    arguments to equal counts and equal argument sums."""
    num_rat = [F(1)] * (2 * len(den_pairs) + 1)
    den_rat = [F(1)] * (2 * len(num_pairs) + 1)
    diff = 2 * sum(rho for rho, _ in num_pairs) + len(num_rat) - 2 * sum(rho for rho, _ in den_pairs) - len(den_rat)
    if diff >= 0:
        den_rat[0] += diff
    else:
        num_rat[0] -= diff
    return GammaProduct(
        tuple(num_rat), tuple(den_rat),
        tuple((rho, b, -m) for rho, b in num_pairs), tuple((rho, b, -m) for rho, b in den_pairs),
    )


# (rho, b): rho in (1/2)Z, b a positive half-integer, so e = b*D <= 64
pair_specs = st.tuples(
    st.integers(-6, 6).map(lambda n: F(n, 2)), st.integers(1, 64).map(lambda n: F(n, 2))
)


class TestFactoredCanonicalize:
    @settings(max_examples=100, deadline=None)
    @given(
        num_pairs=st.lists(pair_specs, min_size=0, max_size=2),
        den_pairs=st.lists(pair_specs, min_size=0, max_size=2),
        m=st.sampled_from([1, 2, 3, 7, 11]),
    )
    def test_matches_dense_gcd_route(self, num_pairs, den_pairs, m):
        assume(num_pairs or den_pairs)
        gp = balanced_product(num_pairs, den_pairs, m)
        assert canonicalize(gp).describe() == dense_canonicalize(gp).describe()

    @pytest.mark.parametrize(
        "num_pairs,den_pairs,m",
        [
            ([(F(0), F(X_POWER_CAP - 1))], [(F(0), F(3))], 1),
            ([(F(1, 2), F(X_POWER_CAP - 1, 2))], [(F(3, 2), F(5, 2)), (F(1, 2), F(1, 2))], 3),
        ],
    )
    def test_matches_dense_gcd_route_near_cap(self, num_pairs, den_pairs, m):
        gp = balanced_product(num_pairs, den_pairs, m)
        assert canonicalize(gp).describe() == dense_canonicalize(gp).describe()


@st.composite
def pair_count_imbalances(draw):
    """(p factors, q factors, prec): conjugate-pair factors in one imaginary
    quadratic field, a different number on each side, with integer and
    half-integer rho mixed where d = 1 mod 4, padded with linear factors
    x + c (c >= 1) to equal degrees and equal root sums."""
    d = draw(st.sampled_from([-1, -2, -3, -7, -11]))
    counts = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True))

    def pair_factor():
        # roots -(rho +- b sqrt(d)): x^2 + 2 rho x + rho^2 - b^2 d
        shift = F(1, 2) if d % 4 == 1 and draw(st.booleans()) else F(0)
        rho = draw(st.integers(-3, 3)) + shift
        b = draw(st.integers(1, 3)) - shift
        return rho, IntPoly.of(int(rho * rho - b * b * d), int(2 * rho), 1)

    (num, den) = ([pair_factor() for _ in range(n)] for n in counts)
    num_lin = [1] * (2 * len(den) + 1)
    den_lin = [1] * (2 * len(num) + 1)
    diff = 2 * sum(rho for rho, _ in num) + len(num_lin) - 2 * sum(rho for rho, _ in den) - len(den_lin)
    if diff >= 0:
        den_lin[0] += int(diff)
    else:
        num_lin[0] -= int(diff)

    def factors(pairs, lin):
        return [f for _, f in pairs] + [IntPoly.of(c, 1) for c in lin]

    return factors(num, num_lin), factors(den, den_lin), draw(st.sampled_from([64, 128]))


class TestThetaAgainstGammaRatio:
    @settings(max_examples=40, deadline=None)
    @given(pair_count_imbalances())
    def test_limit_enclosure_contains_the_gamma_ratio(self, drawn):
        """An odd net count of integer-rho pairs puts theta in sqrt(m)*Q;
        mpmath's gamma ratio at 2 * prec bits checks both parts."""
        p_factors, q_factors, prec = drawn
        p, q = (math.prod(fs, start=IntPoly.of(1)) for fs in (p_factors, q_factors))
        c = canonicalize(limit_as_gamma(p, q, roots_quadratic(p), roots_quadratic(q)))
        assert gamma_ratio_limit(F(1), p_factors, q_factors, prec) in c.limit_enclosure(prec)


class TestIntegerGammaRatio:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 200), max_size=5), st.lists(st.integers(1, 200), max_size=5))
    def test_rising_products_are_the_factorial_ratio(self, num, den):
        want = F(
            math.prod(math.factorial(a - 1) for a in num),
            math.prod(math.factorial(b - 1) for b in den),
        )
        assert integer_gamma_ratio(num, den) == want

    def test_each_side_is_bounded_at_2_to_the_18_bits(self):
        # (a - 1)! is bounded by (a - 1) * bit_length(a) bits: 16999 * 15
        # = 254985 is under 2^18 = 262144, and 17999 * 15 = 269985 over it
        assert integer_gamma_ratio([17000], [1]) == math.factorial(16999)
        for num, den in (([18000], [1]), ([2], [18000])):
            with pytest.raises(PrecisionExceeded):
                integer_gamma_ratio(num, den)

    @pytest.mark.parametrize("n", [10**6, 2**100], ids=["1e6", "2^100"])
    def test_far_apart_arguments_are_a_resource_error(self, n):
        # p = (x + 1)(x + 2n), q = (x + n)(x + n + 1): theta is
        # Gamma(1) Gamma(2n) / (Gamma(n) Gamma(n + 1)), about 2^(2n) at n = 10^6
        p, q = IntPoly.of(2 * n, 2 * n + 1, 1), IntPoly.of(n * (n + 1), 2 * n + 1, 1)
        with pytest.raises(PrecisionExceeded, match="gamma ratio"):
            canon_of(p, q)

    def test_ten_thousand_apart_still_multiplies(self):
        # the canon-resource-theta-too-long-to-print instance: each side
        # is under the bound, and theta comes out at about 2^19992
        p, q = IntPoly.of(20000, 20001, 1), IntPoly.of(100010000, 20001, 1)
        assert canon_of(p, q).theta_a.numerator.bit_length() > 19000
