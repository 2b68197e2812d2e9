from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgdecide import equality
from hgdecide.config import EngineConfig
from hgdecide.dyadic import DyadicInterval
from hgdecide.enclosure import (
    Div,
    Exp,
    Pi,
    Rc,
    Sqrt,
    _cos_sin_point,
    _exp_point,
    cos_interval,
    eval_enclosure,
    exp_interval,
    sin_interval,
)
from hgdecide.equality import compare_expr_zero
from hgdecide.errors import DecideError, IntervalStraddlesZero, PrecisionExceeded

from intervals import contains_interval, record_root_walks


def sinh(x):
    return (Exp(x) - Exp(-x)) * F(1, 2)


def cosh(x):
    return (Exp(x) + Exp(-x)) * F(1, 2)


def as_fraction(x) -> F:
    man, exp = x.man_exp  # man is |mantissa|
    return (-1 if x < 0 else 1) * F(man) * F(2) ** exp


class TestKnownConstants:
    def test_pi(self, mp, mpref):
        iv = eval_enclosure(Pi(), 64)
        assert mpref(mp.pi) in iv
        assert (iv.hi - iv.lo) <= F(1, 2 ** (64 - 4))

    def test_exp_pi(self, mp, mpref):
        iv = eval_enclosure(Exp(Pi()), 128)
        assert mpref(mp.exp(mp.pi)) in iv

    def test_x_minus_x_contains_zero(self):
        iv = eval_enclosure(Exp(Pi()) - Exp(Pi()), 32)
        assert iv.contains_zero()

    def test_sinh_ratio(self, mp, mpref):
        expr = sinh(Pi()) / (39 * sinh(3 * Pi()))
        iv = eval_enclosure(expr, 128)
        assert mpref(mp.sinh(mp.pi) / (39 * mp.sinh(3 * mp.pi))) in iv
        assert abs(float(iv.mid()) - 4.779e-5) < 1e-7

    def test_exp_3pi_at_4096_bits(self):
        iv = eval_enclosure(Exp(3 * Pi()), 4096)
        with mpmath.workprec(2 * 4096):
            ref = as_fraction(mpmath.exp(3 * mpmath.pi))
        assert ref in iv
        assert (iv.hi - iv.lo) <= F(1, 2 ** (4096 - 8)) * ref

    def test_sin_cos_sqrt(self, mp, mpref):
        assert mpref(mp.sin(mp.pi * mp.sqrt(2))) in sin_interval(
            eval_enclosure(Pi() * Sqrt(2), 96), 96
        )
        assert mpref(mp.cos(mp.pi * mp.sqrt(3) / 2)) in cos_interval(
            eval_enclosure(Pi() * Sqrt(3) * F(1, 2), 96), 96
        )
        assert mpref(mp.cosh(mp.pi)) in eval_enclosure(cosh(Pi()), 96)


class TestRefinement:
    def test_monotone_nested(self):
        expr = sinh(Pi()) / (39 * sinh(3 * Pi()))
        prev = eval_enclosure(expr, 64)
        for bits in (128, 256, 512):
            cur = eval_enclosure(expr, bits)
            assert contains_interval(prev, cur)
            prev = cur

    def test_precision_cap(self):
        cfg = EngineConfig(precision_cap_bits=128)
        with pytest.raises(PrecisionExceeded):
            eval_enclosure(Pi(), 256, cfg)

    @pytest.mark.parametrize("bits", [64, 256, 1024])
    def test_shared_and_distinct_nodes_give_equal_intervals(self, bits):
        # the evaluator memoises by node identity: a tree that reuses one
        # x node and a structurally equal tree of fresh nodes must agree
        def x():
            return Exp(Pi() * Sqrt(3) * Rc(F(1, 2)))

        def value(x1, x2, x3):
            return (Rc(F(2)) * x1 + x2**3) / (x3**2 + Rc(F(1)))

        shared = x()
        a = value(shared, shared, shared)
        b = value(x(), x(), x())
        assert a == b and a is not b
        assert eval_enclosure(a, bits) == eval_enclosure(b, bits)


def pi_below(bits: int) -> F:
    """The largest multiple of 2**-bits below pi."""
    with mpmath.workprec(2 * bits + 64):
        return F(int(mpmath.floor(mpmath.pi * 2**bits)), 2**bits)


class TestLadder:
    def test_straddling_rung_does_not_block_higher_rungs(self, monkeypatch):
        # the denominator pi - q < 2**-140 contains zero at the 64-bit rung
        q = pi_below(140)
        expr = Div(Rc(1), Pi() - Rc(q))
        with pytest.raises(IntervalStraddlesZero):
            eval_enclosure(expr, 64)
        with mpmath.workprec(1024):
            ref = as_fraction(1 / (mpmath.pi - mpmath.mpf(q.numerator) / q.denominator))
        for bits in (128, 256, 512):
            assert ref in eval_enclosure(expr, bits)
        walks = record_root_walks(monkeypatch)
        assert compare_expr_zero(expr) == (1, 128)
        assert walks == [96, 160]  # the rung that raised is not walked again

    def test_compare_walks_each_rung_once(self, monkeypatch):
        # pi - q < 2**-1000 first separates from zero at the 1024-bit rung
        expr = Pi() - Rc(pi_below(1000))
        walks = record_root_walks(monkeypatch)
        calls = []

        def recording_eval(*args):
            out = eval_enclosure(*args)
            calls.append((args[1], out))
            return out

        monkeypatch.setattr(equality, "eval_enclosure", recording_eval)
        assert compare_expr_zero(expr) == (1, 1024)
        # one root walk per rung, at the rung plus 32 guard bits; walking
        # the ladder afresh at every rung takes 1 + 2 + 3 + 4 + 5 = 15
        assert walks == [96, 160, 288, 544, 1056]
        monkeypatch.undo()
        assert [bits for bits, _ in calls] == [64, 128, 256, 512, 1024]
        for bits, out in calls:
            assert out == eval_enclosure(expr, bits)

    def test_prior_is_threaded_or_refused(self):
        expr = Exp(Pi() * Sqrt(2))
        low = eval_enclosure(expr, 100)  # rungs 64 and 128
        assert eval_enclosure(expr, 512, prior=(100, low)) == eval_enclosure(expr, 512)
        assert eval_enclosure(expr, 128, prior=(100, low)) == low
        with pytest.raises(DecideError):
            eval_enclosure(expr, 64, prior=(100, low))


rational = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)


@st.composite
def rational_exprs(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        val = draw(rational)
        return Rc(val), val
    op = draw(st.sampled_from(["add", "sub", "mul", "div"]))
    e1, v1 = draw(rational_exprs(depth=depth + 1))
    e2, v2 = draw(rational_exprs(depth=depth + 1))
    if op == "add":
        return e1 + e2, v1 + v2
    if op == "sub":
        return e1 - e2, v1 - v2
    if op == "mul":
        return e1 * e2, v1 * v2
    if v2 == 0:
        return e1, v1
    return e1 / e2, v1 / v2


class TestIntervalSoundness:
    @given(rational_exprs())
    def test_rational_value_always_enclosed(self, pair):
        expr, value = pair
        for bits in (64, 128):
            assert value in eval_enclosure(expr, bits)

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


class TestSeriesKernels:
    """exp, sin and cos enclosures against mpmath at twice the precision."""

    @settings(max_examples=100, deadline=None)
    @given(dyadic_arguments())
    def test_contains_reference_and_is_tight(self, arg):
        x, prec = arg
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

    @settings(max_examples=100, deadline=None)
    @given(dyadic_arguments())
    def test_point_kernels_meet_their_ulp_bounds(self, arg):
        # the kernels before the final outward rounding, whose slack would
        # hide an error count that is too small
        x, prec = arg
        man, exp = x.lo_man, x.lo_exp
        c, s, err, w = _cos_sin_point(man, exp, prec)
        lo, hi, e = _exp_point(man, exp, prec)
        with mpmath.workprec(2 * w):
            arg_mp = mpmath.ldexp(man, exp)
            cos_ref = as_fraction(mpmath.ldexp(mpmath.cos(arg_mp), w))
            sin_ref = as_fraction(mpmath.ldexp(mpmath.sin(arg_mp), w))
            exp_ref = as_fraction(mpmath.exp(arg_mp))
        assert abs(c - cos_ref) <= err and abs(s - sin_ref) <= err
        assert F(lo) * F(2) ** e <= exp_ref <= F(hi) * F(2) ** e
