from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hgdecide.enclosure import eval_enclosure
from hgdecide.errors import DecideError, FieldMismatchError
from hgdecide.exactnum import QuadElem
from hgdecide.gammacanon import (
    X_POWER_CAP,
    CanonicalConstant,
    GammaProduct,
    PairKind,
    _conjugate_pairs,
    _split_args,
    _Theta,
    canonicalize,
    integer_gamma_ratio,
    limit_as_gamma,
    pair_product,
)
from hgdecide.polys import IntPoly, poly_gcd, roots_quadratic

from gammaforms import pair_value_expr, tail_log_bound


def canon_of(p, q, u0=F(1)):
    rp, rq = roots_quadratic(p), roots_quadratic(q)
    return canonicalize(limit_as_gamma(p, q, rp, rq)).scale(u0)


class TestLimitAsGamma:
    def test_worked_example_arguments(self):
        p, q = IntPoly.of(13, -4, 1), IntPoly.of(5, -4, 1)
        gp = limit_as_gamma(p, q, roots_quadratic(p), roots_quadratic(q))
        num = sorted((a.a, a.b) for a in gp.num_args)
        den = sorted((a.a, a.b) for a in gp.den_args)
        assert num == [(F(-2), F(-3)), (F(-2), F(3))]
        assert den == [(F(-2), F(-1)), (F(-2), F(1))]

    def test_rational_arguments(self):
        p = IntPoly.of(2, 1) * IntPoly.of(2, 1)  # (x+2)^2: roots -2,-2
        q = IntPoly.of(1, 1) * IntPoly.of(3, 1)
        gp = limit_as_gamma(p, q, roots_quadratic(p), roots_quadratic(q))
        assert sorted(gp.num_args) == [2, 2] and sorted(gp.den_args) == [1, 3]

    def test_unbalanced_rejected(self):
        p, q = IntPoly.of(1, 1), IntPoly.of(2, 1)
        with pytest.raises(DecideError):
            limit_as_gamma(p, q, roots_quadratic(p), roots_quadratic(q))


class TestPairProduct:
    def test_value_pi_over_390_sinh3pi(self, mp, mpref):
        form = pair_product(F(-2), QuadElem(0, 3, -1))
        assert form.prefactor == F(1, 130) and form.kind == PairKind.INTEGER_RHO
        iv = eval_enclosure(pair_value_expr(form), 96)
        assert mpref(mp.pi / (390 * mp.sinh(3 * mp.pi))) in iv

    def test_value_pi_over_10_sinhpi(self, mp, mpref):
        form = pair_product(F(-2), QuadElem(0, 1, -1))
        iv = eval_enclosure(pair_value_expr(form), 96)
        assert mpref(mp.pi / (10 * mp.sinh(mp.pi))) in iv

    def test_half_integer_cosh_form(self, mp, mpref):
        form = pair_product(F(1, 2), QuadElem(0, F(1, 2), -3))
        assert form.kind == PairKind.HALF_INTEGER_RHO
        iv = eval_enclosure(pair_value_expr(form), 96)
        ref = mpref(2 * mp.pi / (mp.exp(mp.pi * mp.sqrt(3) / 2) + mp.exp(-mp.pi * mp.sqrt(3) / 2)))
        assert ref in iv

    # the prefactor is the norm of the translation factor A in
    # Gamma(rho + w) = A * Gamma(rho0 + w), rho0 in {0, 1/2}
    def test_two_falling_steps(self):
        form = pair_product(F(-2), QuadElem(0, 3, -1))
        a = 1 / (QuadElem(F(-1), F(3), -1) * QuadElem(F(-2), F(3), -1))
        assert form.kind == PairKind.INTEGER_RHO and form.prefactor == a.norm()

    def test_one_rising_step_half(self):
        form = pair_product(F(3, 2), QuadElem(0, F(1, 2), -3))
        a = QuadElem(F(1, 2), F(1, 2), -3)
        assert form.kind == PairKind.HALF_INTEGER_RHO and form.prefactor == a.norm()

    def test_non_half_integer_rejected(self):
        with pytest.raises(DecideError):
            pair_product(F(1, 3), QuadElem(0, 1, -1))

    def test_rejects_half_integer_w(self):
        with pytest.raises(DecideError):
            pair_product(F(1), QuadElem(F(1, 2), F(0), -1))


class TestCanonicalize:
    def test_worked_example_tuple(self, sinh_ratio_instance):
        c = canon_of(IntPoly.of(13, -4, 1), IntPoly.of(5, -4, 1))
        assert (c.theta_a, c.theta_b, c.ell) == (F(1, 39), 0, 0)
        assert c.f == IntPoly.of(0, 0, 1) and c.g == IntPoly.of(1, 0, 1, 0, 1)
        assert (c.m, c.D, c.base_trivial) == (1, 1, False)

    def test_worked_example_value(self, mp, mpref):
        c = canon_of(IntPoly.of(13, -4, 1), IntPoly.of(5, -4, 1))
        iv = eval_enclosure(c.value_expr(), 128)
        assert mpref(mp.sinh(mp.pi) / (39 * mp.sinh(3 * mp.pi))) in iv

    def test_all_rational_trivial_base(self):
        p = IntPoly.of(2, 1) * IntPoly.of(2, 1)
        q = IntPoly.of(1, 1) * IntPoly.of(3, 1)
        c = canon_of(p, q)
        assert c.base_trivial and c.theta_a == F(1, 2) and c.ell == 0

    def test_single_pair_reflection_value(self, mp, mpref):
        # Gamma(i)Gamma(-i)Gamma(3) / (Gamma(1)^3) = 2 pi/sinh(pi), balanced
        gp = GammaProduct(
            (QuadElem(0, 1, -1), QuadElem(0, -1, -1), F(3)),
            (F(1), F(1), F(1)),
        )
        c = canonicalize(gp)
        iv = eval_enclosure(c.value_expr(), 96)
        assert mpref(2 * mp.pi / mp.sinh(mp.pi)) in iv
        assert c.ell == 1 and c.f == IntPoly.of(0, 1) and c.g == IntPoly.of(-1, 0, 1)

    def test_mixed_fields_rejected(self):
        p, q = IntPoly.of(1, -1, 1), IntPoly.of(3, -1, 1)
        with pytest.raises(FieldMismatchError):
            canon_of(p, q)

    def test_real_quadratic_rejected(self):
        p, q = IntPoly.of(-1, -2, 1), IntPoly.of(-4, -2, 1)
        with pytest.raises(FieldMismatchError):
            canon_of(p, q)

    def test_half_integer_base(self, mp, mpref):
        c = canon_of(IntPoly.of(1, -1, 1), IntPoly.of(7, -1, 1))
        assert c.m == 3 and c.D == 2
        iv = eval_enclosure(c.value_expr(), 160)
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
        iv = eval_enclosure(c.value_expr(), 128)
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
        iv = eval_enclosure(c.value_expr(), 128)
        prod = mp.mpf(1)
        for k in range(4000):
            prod *= mp.mpf((k * k - 2 * k + 3) * (k + 1) * (k + 1))
            prod /= mp.mpf((k * k + 2) * (k * k + 8))
        assert abs(float(iv.mid()) / float(prod) - 1) < 0.01

    def test_tail_bound_validity_threshold(self):
        with pytest.raises(DecideError):
            tail_log_bound(IntPoly.of(13, -4, 1), IntPoly.of(5, -4, 1), 3)


def dense_canonicalize(gp: GammaProduct) -> CanonicalConstant:
    """Reference: multiply every pair's x^e and x^2e -+ 1 out densely,
    cancel by poly_gcd over Q and normalise content and sign into theta
    (the route canonicalize took before it kept f/g factored)."""
    num_rat, num_quad = _split_args(gp.num_args)
    den_rat, den_quad = _split_args(gp.den_args)
    m = -(num_quad + den_quad)[0].d
    num_pairs = [pair_product(rho, w) for rho, w in _conjugate_pairs(num_quad)]
    den_pairs = [pair_product(rho, w) for rho, w in _conjugate_pairs(den_quad)]
    D = 2 if any(p.b.denominator == 2 for p in num_pairs + den_pairs) else 1
    theta = _Theta(m)
    theta.mul(gp.prefactor * integer_gamma_ratio(num_rat, den_rat))
    ell = 0
    f = g = IntPoly.of(1)
    for forms, up in ((num_pairs, True), (den_pairs, False)):
        for form in forms:
            e = int(form.b * D)
            top = IntPoly.x_power(e)
            if form.kind == PairKind.INTEGER_RHO:
                coef = (F(0), form.prefactor * 2 / (form.b * m))
                bottom = IntPoly.x_power(2 * e) - IntPoly.of(1)
            else:
                coef = (form.prefactor * 2, F(0))
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

    def expand(pairs):
        return [QuadElem(rho, s * b, -m) for rho, b in pairs for s in (1, -1)]

    num, den = expand(num_pairs), expand(den_pairs)
    num_rat = [F(1)] * (len(den) + 1)
    den_rat = [F(1)] * (len(num) + 1)
    diff = sum(a.a for a in num) + len(num_rat) - sum(a.a for a in den) - len(den_rat)
    if diff >= 0:
        den_rat[0] += diff
    else:
        num_rat[0] -= diff
    return GammaProduct(tuple(num + num_rat), tuple(den + den_rat))


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

    def test_constant_rejects_common_factor(self):
        # the second pair has a leading coefficient divisible by 2^61 - 1,
        # so the coprimality check falls back to the exact gcd
        p61 = 2**61 - 1
        for f, g in [
            (IntPoly.of(-1, 0, 1), IntPoly.of(1, 1)),
            (IntPoly.of(1, p61), IntPoly.of(1, p61) * IntPoly.of(2, 1)),
        ]:
            with pytest.raises(DecideError, match="coprime"):
                CanonicalConstant(F(1), F(0), 0, f, g, 1, 1, False)
        CanonicalConstant(F(1), F(0), 0, IntPoly.of(1, p61), IntPoly.of(2, 1), 1, 1, False)
