import random
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgdecide import enclosure, equality
from hgdecide.config import EngineConfig
from hgdecide.dyadic import DyadicInterval
from hgdecide.enclosure import (
    _cos_sin_point,
    _exp_point,
    _pi_point,
    cos_interval,
    eval_enclosure,
    exp_interval,
    pi_interval,
    root_int_interval,
    sin_interval,
)
from hgdecide.errors import IntervalStraddlesZero, PrecisionExceeded
from hgdecide.gammacanon import CanonicalConstant
from hgdecide.polys import IntPoly
from hgdecide.sequence import HGInstance, Problem


def as_fraction(x) -> F:
    man, exp = x.man_exp  # man is |mantissa|
    return (-1 if x < 0 else 1) * F(man) * F(2) ** exp


class Value:
    """A test-local limit: `fn(bits)` at every rung, with each request
    recorded."""

    def __init__(self, fn):
        self.fn = fn
        self.asked = []

    def limit_enclosure(self, prec: int) -> DyadicInterval:
        self.asked.append(prec)
        return self.fn(prec + 32)


# the worked example's limit sinh(pi) / (39 sinh(3 pi)), canonically
# (1/39) x^2 / (x^4 + x^2 + 1) with x = exp(pi)
SINH_RATIO = CanonicalConstant(F(1, 39), F(0), 0, IntPoly.of(0, 0, 1), IntPoly.of(1, 0, 1, 0, 1), 1, 1, False)


def pi_sqrt(n: int, prec: int) -> DyadicInterval:
    return pi_interval(prec).mul(root_int_interval(n, 2, prec), prec)


class TestKnownConstants:
    def test_pi(self):
        for prec in (64, 256, 1024, 4096, 16384):
            iv = pi_interval(prec)
            with mpmath.workprec(2 * prec):
                ref = as_fraction(mpmath.pi)
            assert ref in iv, prec
            # within 2**-(prec+8) relative, then rounded outward to prec + 8 bits
            assert (iv.hi - iv.lo) <= F(1, 2 ** (prec + 4)), prec

    def test_exp_pi(self, mp, mpref):
        iv = exp_interval(pi_interval(128), 128)
        assert mpref(mp.exp(mp.pi)) in iv

    def test_x_minus_x_contains_zero(self):
        x = exp_interval(pi_interval(32), 32)
        assert x.sub(x, 32).contains_zero()

    def test_sinh_ratio(self, mp, mpref):
        iv = eval_enclosure(SINH_RATIO, 128)
        assert mpref(mp.sinh(mp.pi) / (39 * mp.sinh(3 * mp.pi))) in iv
        assert abs(float(iv.mid()) - 4.779e-5) < 1e-7

    def test_exp_3pi_at_4096_bits(self):
        iv = exp_interval(pi_interval(4096).scale(3, 4096), 4096)
        with mpmath.workprec(2 * 4096):
            ref = as_fraction(mpmath.exp(3 * mpmath.pi))
        assert ref in iv
        assert (iv.hi - iv.lo) <= F(1, 2 ** (4096 - 8)) * ref

    def test_sin_cos_sqrt(self, mp, mpref):
        assert mpref(mp.sin(mp.pi * mp.sqrt(2))) in sin_interval(pi_sqrt(2, 128), 96)
        assert mpref(mp.cos(mp.pi * mp.sqrt(3) / 2)) in cos_interval(
            pi_sqrt(3, 128).scale(F(1, 2), 128), 96
        )
        x = exp_interval(pi_interval(128), 128)
        cosh = x.add(x.inv(128), 128).scale(F(1, 2), 128)
        assert mpref(mp.cosh(mp.pi)) in cosh


class TestRefinement:
    def test_precision_cap(self):
        cfg = EngineConfig(precision_cap_bits=128)
        with pytest.raises(PrecisionExceeded):
            eval_enclosure(SINH_RATIO, 256, cfg)


def pi_below(bits: int) -> F:
    """The largest multiple of 2**-bits below pi."""
    with mpmath.workprec(2 * bits + 64):
        return F(int(mpmath.floor(mpmath.pi * 2**bits)), 2**bits)


class TestLadder:
    def test_straddling_rung_does_not_block_higher_rungs(self):
        # the denominator pi - q < 2**-140 contains zero at the 64-bit rung
        q = pi_below(140)

        def fn(w):
            return pi_interval(w).sub(DyadicInterval.from_fraction(q, w), w).inv(w)

        value = Value(fn)
        with pytest.raises(IntervalStraddlesZero):
            eval_enclosure(value, 64)
        with mpmath.workprec(1024):
            ref = as_fraction(1 / (mpmath.pi - mpmath.mpf(q.numerator) / q.denominator))
        for bits in (128, 256, 512):
            assert ref in eval_enclosure(value, bits)
        value.asked.clear()
        sign, bits, enc = equality.compare(value, 0)
        assert (sign, bits) == (1, 128)
        assert value.asked == [64, 128]  # the rung that raised is not asked again
        assert enc == eval_enclosure(value, 128)

    def test_compare_walks_each_rung_once(self, monkeypatch):
        # pi - q < 2**-1000 first separates from zero at the 1024-bit rung
        q = pi_below(1000)
        value = Value(pi_interval)
        calls = []

        def recording_eval(*args):
            out = eval_enclosure(*args)
            calls.append((args[1], out))
            return out

        monkeypatch.setattr(enclosure, "eval_enclosure", recording_eval)
        sign, bits, enc = equality.compare(value, q)
        assert (sign, bits) == (1, 1024)
        assert value.asked == [64, 128, 256, 512, 1024]
        monkeypatch.undo()
        assert [bits for bits, _ in calls] == [64, 128, 256, 512, 1024]
        for bits, out in calls:
            assert out == eval_enclosure(value, bits)
        assert enc is calls[-1][1]  # the separating rung's enclosure, not a new one


rational = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)


@st.composite
def rational_exprs(draw, depth=0):
    """(evaluate, value): evaluate(bits) encloses the rational value by
    the DyadicInterval operations the limit enclosures use."""
    if depth >= 3 or draw(st.booleans()):
        val = draw(rational)
        return (lambda bits: DyadicInterval.from_fraction(val, bits)), val
    op = draw(st.sampled_from(["add", "sub", "mul", "div"]))
    e1, v1 = draw(rational_exprs(depth=depth + 1))
    e2, v2 = draw(rational_exprs(depth=depth + 1))
    if op == "add":
        return (lambda bits: e1(bits).add(e2(bits), bits)), v1 + v2
    if op == "sub":
        return (lambda bits: e1(bits).sub(e2(bits), bits)), v1 - v2
    if op == "mul":
        return (lambda bits: e1(bits).mul(e2(bits), bits)), v1 * v2
    if v2 == 0:
        return e1, v1
    return (lambda bits: e1(bits).div(e2(bits), bits)), v1 / v2


class TestIntervalSoundness:
    @given(rational_exprs())
    def test_rational_value_always_enclosed(self, pair):
        evaluate, value = pair
        for bits in (64, 128):
            assert value in evaluate(bits + 32)

    @given(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6))
    def test_from_fraction_round_trip(self, v):
        iv = DyadicInterval.from_fraction(v, 80)
        assert v in iv
        assert (iv.hi - iv.lo) <= F(1, 2**80)


@st.composite
def dyadic_arguments(draw):
    """(interval, prec): |endpoints| <= 2**8, point or wide, 64..4096 bits."""
    prec = draw(st.integers(min_value=64, max_value=4096))
    e = draw(st.integers(min_value=-(prec + 16), max_value=-1))
    lim = 1 << (8 - e)
    m = draw(st.integers(min_value=-lim, max_value=lim))
    width = draw(st.one_of(st.just(0), st.integers(min_value=1, max_value=1 << 24)))
    return DyadicInterval(m, e, min(m + width, lim), e), prec


def assert_kernels_enclose(x: DyadicInterval, prec: int):
    """exp, sin and cos over x contain mpmath's values at both ends, at
    twice the precision, and are no wider than 2**-(prec-8) relative plus
    the width of x times the slope."""
    for kernel, ref_fn, slope in (
        (exp_interval, mpmath.exp, None),
        (sin_interval, mpmath.sin, 1),
        (cos_interval, mpmath.cos, 1),
    ):
        iv = kernel(x, prec)
        with mpmath.workprec(2 * prec):
            refs = [
                as_fraction(ref_fn(mpmath.ldexp(man, exp)))
                for man, exp in ((x.lo_man, x.lo_exp), (x.hi_man, x.hi_exp))
            ]
        for ref in refs:
            assert ref in iv, kernel.__name__
        # exp is increasing, so its derivative on x is at most exp(x.hi)
        derivative = refs[1] if slope is None else slope
        size = max(1, *(abs(r) for r in refs))
        limit = F(1, 2 ** (prec - 8)) * size + (x.hi - x.lo) * derivative
        assert (iv.hi - iv.lo) <= limit, kernel.__name__


def assert_points_meet_their_ulp_bounds(man: int, exp: int, prec: int):
    """The kernels before the final outward rounding, whose slack would
    hide an error count that is too small."""
    c, s, err, w = _cos_sin_point(man, exp, prec)
    lo, hi, e = _exp_point(man, exp, prec)
    with mpmath.workprec(2 * w):
        arg_mp = mpmath.ldexp(man, exp)
        cos_ref = as_fraction(mpmath.ldexp(mpmath.cos(arg_mp), w))
        sin_ref = as_fraction(mpmath.ldexp(mpmath.sin(arg_mp), w))
        exp_ref = as_fraction(mpmath.exp(arg_mp))
    assert abs(c - cos_ref) <= err and abs(s - sin_ref) <= err
    assert F(lo) * F(2) ** e <= exp_ref <= F(hi) * F(2) ** e


class TestSeriesKernels:
    """The series kernels against mpmath at twice the precision."""

    @pytest.mark.parametrize("prec", [64, 100, 256, 1000, 4096, 16384])
    def test_machin_sum_meets_its_ulp_bound(self, prec):
        v, err, w = _pi_point(prec)
        with mpmath.workprec(2 * w):
            ref = as_fraction(mpmath.ldexp(mpmath.pi, w))
        assert abs(v - ref) <= err

    @settings(max_examples=100, deadline=None)
    @given(dyadic_arguments())
    def test_contains_reference_and_is_tight(self, arg):
        assert_kernels_enclose(*arg)

    @settings(max_examples=100, deadline=None)
    @given(dyadic_arguments())
    def test_point_kernels_meet_their_ulp_bounds(self, arg):
        x, prec = arg
        assert_points_meet_their_ulp_bounds(x.lo_man, x.lo_exp, prec)

    @pytest.mark.parametrize("prec", [8192, 16384])
    def test_deep_halvings(self, prec):
        # past `dyadic_arguments`: arguments are halved below 2**-45 at
        # 8192 bits and below 2**-64 at 16384
        rng = random.Random(prec)
        m = rng.randrange(-(1 << (prec + 8)), 1 << (prec + 8))
        for x in (DyadicInterval.from_fraction(F(1065, 113), prec), DyadicInterval(m, -prec, m + 1, -prec)):
            assert_kernels_enclose(x, prec)
            assert_points_meet_their_ulp_bounds(x.lo_man, x.lo_exp, prec)


def test_worked_pair_decides_at_32768_bits():
    # t = L - 2**-30000 below the limit L = sinh(pi) / (39 sinh(3 pi)):
    # the compare ladder separates them at the 32768-bit rung
    with mpmath.workprec(30200):
        limit = as_fraction(mpmath.sinh(mpmath.pi) / (39 * mpmath.sinh(3 * mpmath.pi)))
    t = limit - F(1, 2**30000)
    inst = HGInstance(IntPoly.of(13, -4, 1), IntPoly.of(5, -4, 1), F(1), t, Problem.THRESHOLD)
    v = equality.decide(inst)
    assert (v.result, v.reason, v.compare["precision_bits"]) == (True, "decreasing_tail_above_target", 32768)
