"""ExactScan against an independent plain-integer reference scan.

The reference below uses no floats and no hgdecide code: it evaluates the
coefficient lists itself, multiplies every factor into one integer pair
and compares by exact cross-multiplication.  ExactScan's float filter
(log-magnitude plus a counted error bound) must agree with it at every
index, including targets a few ulps away from a term.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgdecide.config import EngineConfig
from hgdecide.equality import decide
from hgdecide.errors import ScanCapExceeded
from hgdecide.polys import IntPoly
from hgdecide.sequence import ExactScan, HGInstance, Problem

DEPTH = 300


def _horner(coeffs, x):
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def reference_pairs(p, q, u0, count):
    """Unreduced (num, den) of u_0 .. u_{count-1}, one integer product each."""
    num, den = u0.numerator, u0.denominator
    for k in range(count):
        yield num, den
        num *= _horner(q, k)
        den *= _horner(p, k)


def _sgn(x):
    return (x > 0) - (x < 0)


def ref_cmp(num, den, t):
    """sign(num/den - t)."""
    return _sgn(num * t.denominator - t.numerator * den) * _sgn(den)


def ref_abs_cmp(num, den, t):
    """sign(|num/den| - |t|)."""
    return _sgn(abs(num) * t.denominator - abs(t.numerator) * abs(den))


def _p_coeffs(roots, lead):
    """lead * prod (x + r), r >= 1: no nonnegative integer roots."""
    poly = IntPoly.of(lead)
    for r in roots:
        poly = poly * IntPoly.of(r, 1)
    return list(poly.coeffs)


@st.composite
def instances(draw):
    """(p, q) coefficient lists: random q, q with a nonnegative integer
    root, and a degree-3 q over a constant p (|log u_n| in the thousands)."""
    kind = draw(st.sampled_from(["random", "zero_root", "cubic"]))
    lead = draw(st.sampled_from([1, 1, 2, -3]))
    if kind == "cubic":
        p = [draw(st.integers(1, 9)) * lead]
        q = [draw(st.integers(-9, 9)) for _ in range(3)] + [draw(st.sampled_from([1, -2, 5]))]
        return p, q
    p = _p_coeffs(draw(st.lists(st.integers(1, 9), min_size=1, max_size=3)), lead)
    if kind == "zero_root":
        root = draw(st.integers(0, DEPTH + 5))
        other = IntPoly(tuple(draw(st.lists(st.integers(-9, 9), min_size=1, max_size=2))) + (1,))
        q = list((IntPoly.of(-root, 1) * other).coeffs)
    else:
        degree = draw(st.integers(len(p) - 2, len(p) - 1))
        q = [draw(st.integers(-20, 20)) for _ in range(degree)] + [draw(st.sampled_from([1, -1, 2, lead]))]
    return p, q


def _targets(draw, pairs):
    """A term, that term times (1 +- 2^-k), and random rationals."""
    num, den = pairs[draw(st.integers(0, len(pairs) - 1))]
    term = F(num, den)
    out = [term]
    for k in (20, 40, 52, 60, 90):
        out.append(term * (1 + F(draw(st.sampled_from([1, -1])), 2**k)))
    out.append(draw(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)))
    out.append(F(draw(st.integers(-10**30, 10**30)), draw(st.integers(1, 10**8))))
    return out


class TestOracle:
    @settings(max_examples=60, deadline=None)
    @given(instances(), st.fractions(min_value=-50, max_value=50, max_denominator=50), st.data())
    def test_comparisons_agree_with_reference(self, pq, u0, data):
        p, q = pq
        pairs = list(reference_pairs(p, q, u0, DEPTH + 1))
        targets = _targets(data.draw, pairs)
        inst = HGInstance(IntPoly(tuple(p)), IntPoly(tuple(q)), u0, F(0), Problem.MEMBERSHIP)
        scan = ExactScan(inst)
        for n, (num, den) in enumerate(pairs):
            assert scan.n == n
            assert scan.sign() == _sgn(num) * _sgn(den)
            assert scan.is_zero() == (num == 0)
            for t in targets:
                assert scan.equals(t) == (num * t.denominator == t.numerator * den), (n, t)
                assert scan.cmp(t) == ref_cmp(num, den, t), (n, t)
                assert scan.abs_cmp(t) == ref_abs_cmp(num, den, t), (n, t)
            scan.step()

    @settings(max_examples=60, deadline=None)
    @given(instances(), st.fractions(min_value=-50, max_value=50, max_denominator=50), st.integers(0, DEPTH))
    def test_jump_matches_steps(self, pq, u0, n):
        p, q = pq
        inst = HGInstance(IntPoly(tuple(p)), IntPoly(tuple(q)), u0, F(0), Problem.MEMBERSHIP)
        stepped, jumped = ExactScan(inst), ExactScan(inst)
        for _ in range(n):
            stepped.step()
        jumped.jump(n)
        num, den = list(reference_pairs(p, q, u0, n + 1))[n]
        assert jumped.n == stepped.n == jumped.steps == stepped.steps == n
        assert jumped.fraction() == stepped.fraction() == F(num, den)
        assert jumped.sign() == stepped.sign() == _sgn(num) * _sgn(den)
        assert jumped.zero_since == stepped.zero_since

    def test_jump_from_midway_finds_the_first_zero(self):
        # q = (x - 7)(x - 9): u_8 onwards is zero
        inst = HGInstance(IntPoly.of(1, 1), IntPoly.of(63, -16, 1), F(3), F(0), Problem.MEMBERSHIP)
        scan = ExactScan(inst)
        for _ in range(3):
            scan.step()
        scan.jump(40)
        assert scan.zero_since == 8 and scan.is_zero() and scan.fraction() == 0 and scan.sign() == 0


class TestFirstHit:
    @settings(max_examples=60, deadline=None)
    @given(
        instances(),
        st.fractions(min_value=-50, max_value=50, max_denominator=50),
        st.sampled_from(list(Problem)),
        st.integers(0, DEPTH),
        st.data(),
    )
    def test_first_hit_is_the_least_reference_hit(self, pq, u0, problem, stop, data):
        p, q = pq
        pairs = list(reference_pairs(p, q, u0, DEPTH + 1))
        t = data.draw(st.sampled_from(_targets(data.draw, pairs)))
        start = data.draw(st.integers(0, stop))
        inst = HGInstance(IntPoly(tuple(p)), IntPoly(tuple(q)), u0, t, problem)

        def is_hit(num, den):
            if problem is Problem.MEMBERSHIP:
                return num * t.denominator == t.numerator * den
            return ref_cmp(num, den, t) < 0

        want = next((n for n in range(start, stop) if is_hit(*pairs[n])), None)
        scan = ExactScan(inst)
        for _ in range(start):
            scan.step()
        assert scan.first_hit(stop) == want
        assert scan.n == (stop if want is None else want)
        assert scan.hit() == is_hit(*pairs[scan.n])

    def test_search_without_stop_ends_at_the_cap(self):
        # u_n = n + 1 never equals 1/2
        inst = HGInstance(IntPoly.of(1, 1), IntPoly.of(2, 1), F(1), F(1, 2), Problem.MEMBERSHIP)
        scan = ExactScan(inst, cap=50)
        with pytest.raises(ScanCapExceeded):
            scan.first_hit()
        assert scan.n == 51
        with pytest.raises(ScanCapExceeded, match="exceeds cap"):
            ExactScan(inst, cap=50).jump(51)


class TestScanCapReachable:
    def test_far_side_near_tie_ends_at_scan_cap(self, monkeypatch):
        # worked example, t = L(1 + 2^-60) (see test_certs_cli): the
        # decreasing tail needs about 2^60 terms to drop below t, so the
        # threshold hunt runs to the cap.  The gap |u_n - t| stays far
        # above the float error bound, so the scan must not fall back to
        # exact arithmetic on the way: a handful of materializations, not
        # one per term.
        t = F(66614734727671937059123508434769531341, 1393796574908163946345982392040522594123776)
        inst = HGInstance(IntPoly.of(13, -4, 1), IntPoly.of(5, -4, 1), F(1), t, Problem.THRESHOLD)
        scans = []
        init = ExactScan.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            scans.append(self)

        monkeypatch.setattr(ExactScan, "__init__", recording_init)
        with pytest.raises(ScanCapExceeded):
            decide(inst, EngineConfig(scan_cap=10**5))
        assert max(s.n for s in scans) > 10**5
        assert sum(s.materialized for s in scans) <= 4

    @pytest.mark.parametrize(
        "q,t,problem",
        [
            ([-10**6, 1], F(1, 3), Problem.MEMBERSHIP),  # zero tail past 10^6
            ([10**6, -1], F(-1), Problem.THRESHOLD),  # positive prefix, zero tail past 10^6
            ([10**6, -1], F(0), Problem.THRESHOLD),  # zero target, sign scan to the root bound
        ],
    )
    def test_far_zero_of_q_ends_at_scan_cap(self, q, t, problem):
        inst = HGInstance(IntPoly.of(1), IntPoly(tuple(q)), F(1), t, problem)
        with pytest.raises(ScanCapExceeded):
            decide(inst, EngineConfig(scan_cap=1000))

    def test_far_balanced_tail_ends_at_scan_cap(self):
        # monotonicity index about 2^18: the tail direction lies past the cap
        inst = HGInstance(
            IntPoly.of(2**16, 0, 1), IntPoly.of(2**18, 0, 1), F(1), F(1, 10**6), Problem.THRESHOLD
        )
        with pytest.raises(ScanCapExceeded):
            decide(inst, EngineConfig(scan_cap=1000))
