"""ExactScan against an independent plain-integer reference scan.

The reference below uses no floats and no hgdecide code: it evaluates the
coefficient lists itself, multiplies every factor into one integer pair
and compares by exact cross-multiplication.  ExactScan's float filter
(log-magnitude plus a counted error bound) must agree with it at every
index, including targets a few ulps away from a term.  The deep tests run
the searches about 3000 terms into monotone tails, which the scan skips
in blocks of 64, with crossings placed at and next to block boundaries.
Instances whose q is p shifted by an integer, up to cofactors, exercise
the telescoped exact products, including shifts longer than a block and
than the span of a product.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgdecide import sequence
from hgdecide.certs import BOUND_RECHECK_SPAN, InstanceDocument, verify_certificate
from hgdecide.cli import decide_document
from hgdecide.config import EngineConfig
from hgdecide.equality import decide
from hgdecide.errors import ScanCapExceeded
from hgdecide.polys import IntPoly
from hgdecide.sequence import (
    ExactScan,
    HGInstance,
    Problem,
    classify,
    divergence_bound,
    monotonicity_index,
    shrink_bound,
)

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


def _shift(f, h):
    """f(x + h)."""
    out = IntPoly.of(0)
    for c in reversed(f.coeffs):
        out = out * IntPoly.of(h, 1) + IntPoly.of(c)
    return out


def shifts(top):
    """Nonzero shifts of at most top, some beyond a 64-term block."""
    return st.builds(
        lambda m, sign: m * sign,
        st.one_of(st.integers(1, 3), st.integers(62, top), st.integers(1, top)),
        st.sampled_from([1, -1]),
    )


@st.composite
def shifted_pair(draw, top=70):
    """(p, q) with q's linear factors those of p shifted by shifts(top)
    (roots may repeat, and q may vanish at a nonnegative index),
    optionally a quadratic g in p with g(x + h) in q, and optionally one
    more factor of p or of q that the construction pairs with nothing."""
    lead = draw(st.sampled_from([1, 1, 2, -3]))
    p, q = IntPoly.of(lead), IntPoly.of(draw(st.sampled_from([1, -1, 2, lead])))
    roots = draw(st.lists(st.integers(1, 90), min_size=0, max_size=3))
    if roots and draw(st.booleans()):
        roots.append(roots[0])
    for r in roots:
        p = p * IntPoly.of(r, 1)
        q = q * IntPoly.of(r + draw(shifts(top)), 1)
    if not roots or draw(st.booleans()):
        # positive coefficients: g has no nonnegative root
        g = IntPoly.of(draw(st.integers(1, 9)), draw(st.integers(0, 5)), 1)
        p, q = p * g, q * _shift(g, draw(shifts(top)))
    extra = draw(st.sampled_from(["none", "p", "q"]))
    if extra == "p":
        p = p * IntPoly.of(draw(st.integers(1, 9)), 0, 1)
    elif extra == "q":
        q = q * IntPoly.of(draw(st.integers(-20, 20)), 1)
    return list(p.coeffs), list(q.coeffs)


@st.composite
def instances(draw):
    """(p, q) coefficient lists: random q, q with a nonnegative integer
    root, a degree-3 q over a constant p (|log u_n| in the thousands), and
    q a shift of p up to cofactors (shifted_pair)."""
    kind = draw(st.sampled_from(["random", "zero_root", "cubic", "shifted"]))
    lead = draw(st.sampled_from([1, 1, 2, -3]))
    if kind == "shifted":
        return draw(shifted_pair())
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


class TestShiftForm:
    @pytest.mark.parametrize(
        "p,q,pairs,rest",
        [
            ([3, 1], [4, 1], [([3, 1], 1)], ([1], [1])),  # u_n = u0 (n + 3)/3
            ([4, 1], [3, 1], [([4, 1], -1)], ([1], [1])),
            ([9, 6, 1], [16, 8, 1], [([3, 1], 1), ([3, 1], 1)], ([1], [1])),  # repeated root
            ([12, 7, 1], [15, 8, 1], [([4, 1], 1)], ([1], [1])),  # common root x + 3
            ([6, 2], [-15, -5], [], ([2], [-5])),  # only the constant -5/2
            ([3, 1, 1], [5, 3, 1], [([3, 1, 1], 1)], ([1], [1])),  # q = p(x + 1)
            ([6, 2, 2], [-10, -6, -2], [([6, 2, 2], 1)], ([2], [-2])),  # q = -p(x + 1)
            ([3, 2], [4, 2], [], ([3, 2], [4, 2])),  # q = p(x + 1/2): no pair
            ([1, 0, 1], [2, 3, 1], [], ([1, 0, 1], [2, 3, 1])),  # p has no integer root
            ([2, 1], [-5, 1], [([2, 1], -7)], ([1], [1])),  # q vanishes at 5
        ],
    )
    def test_pairs(self, p, q, pairs, rest):
        inst = HGInstance(IntPoly(tuple(p)), IntPoly(tuple(q)), F(1), F(0), Problem.MEMBERSHIP)
        got, p1, q1 = inst.shift_form
        assert [(list(g.coeffs), h) for g, h in got] == pairs
        assert (list(p1.coeffs), list(q1.coeffs)) == rest

    @settings(max_examples=80, deadline=None)
    @given(shifted_pair(top=200), st.integers(0, 150), st.integers(1, 260))
    def test_products_are_the_ratio(self, pq, lo, span):
        # telescoped from 64 terms up, and spans shorter and longer than
        # each |h| <= 200
        p, q = pq
        inst = HGInstance(IntPoly(tuple(p)), IntPoly(tuple(q)), F(1), F(0), Problem.MEMBERSHIP)
        qs, ps = sequence._factor_products(inst, lo, lo + span)
        values = [(_horner(q, k), _horner(p, k)) for k in range(lo, lo + span)]
        assert ps != 0
        if any(qk == 0 for qk, _ in values):
            assert qs == 0
        else:
            want = F(1)
            for qk, pk in values:
                want *= F(qk, pk)
            assert F(qs, ps) == want


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


class TestValues:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-(2**256), 2**256), min_size=1, max_size=33),
        st.integers(-200, 200),
        st.integers(0, 80),
    )
    def test_values_match_horner(self, coeffs, lo, length):
        coeffs[-1] = coeffs[-1] or 1
        f = IntPoly(tuple(coeffs))
        assert list(sequence._values(f, lo, lo + length)) == [
            _horner(coeffs, k) for k in range(lo, lo + length)
        ]


DEEP = 3000
# crossings at, just before and just after block boundaries 64j
CROSSINGS = [64 * j + e for j in (20, 41) for e in (-1, 0, 1)]
# (p, q, u0): |u_n| monotone from the start, growing or shrinking, with a
# constant or an alternating sign (r(k) < 0)
DEEP_FAMILIES = {
    "grow": ([3, 1], [4, 1], F(5, 3)),  # u_n = u0 (n + 3)/3
    "grow-alt": ([3, 1], [-4, -1], F(-5, 3)),
    "grow-half": ([3, 2], [4, 2], F(7, 2)),  # |u_n| ~ n^(1/2), non-monic
    "grow-geo-alt": ([2, 1], [-5, -2], F(1, 7)),  # r -> -2
    "shrink": ([4, 1], [3, 1], F(2)),  # u_n = u0 3/(n + 3)
    "shrink-alt": ([2, 1], [-1, -1], F(-3, 2)),
    "shrink-half": ([5, 2], [4, 2], F(9, 4)),
    "shrink-geo-alt": ([3, 2], [-1, -1], F(11)),  # r -> -1/2
}
_DEEP_PAIRS = {}


def _deep_pairs(family):
    if family not in _DEEP_PAIRS:
        p, q, u0 = DEEP_FAMILIES[family]
        _DEEP_PAIRS[family] = list(reference_pairs(p, q, u0, DEEP + 1))
    return _DEEP_PAIRS[family]


def _deep_targets(pairs, c):
    """u_c (|u| meets |t| at c) and a 64-bit dyadic between |u_{c-1}| and
    |u_c| (|u| passes |t| between c - 1 and c), both positive."""
    here, before = abs(F(*pairs[c])), abs(F(*pairs[c - 1]))
    mid = (before + here) / 2
    scale = F(2) ** (64 - (mid.numerator.bit_length() - mid.denominator.bit_length()))
    mid = round(mid * scale) / scale
    assert min(before, here) < mid < max(before, here)
    return [here, mid]


def _abs_cmp_fast(num, den, t):
    """ref_abs_cmp, settled by bit lengths when the products differ in
    length by two bits or more (|x| < 2^len(x) <= 2|x|)."""
    a = abs(num).bit_length() + t.denominator.bit_length()
    b = abs(t.numerator).bit_length() + abs(den).bit_length()
    if a + 1 < b:
        return -1
    if b + 1 < a:
        return 1
    return ref_abs_cmp(num, den, t)


def _is_hit(problem, sign, side, t):
    """The witness test from sign(u_n) and sign(|u_n| - |t|), t nonzero."""
    if problem is Problem.MEMBERSHIP:
        return side == 0 and sign == _sgn(t)
    if sign != _sgn(t):
        return sign < _sgn(t)
    return sign * side < 0


class TestDeepScan:
    @pytest.mark.parametrize("c", CROSSINGS)
    @pytest.mark.parametrize("family", sorted(DEEP_FAMILIES))
    def test_searches_agree_with_reference(self, family, c):
        p, q, u0 = DEEP_FAMILIES[family]
        pairs = _deep_pairs(family)
        signs = [_sgn(num) * _sgn(den) for num, den in pairs]
        k1 = monotonicity_index(IntPoly(tuple(p)), IntPoly(tuple(q)))
        cls = classify(IntPoly(tuple(p)), IntPoly(tuple(q)))
        grows = family.startswith("grow")
        side = 1 if grows else -1
        for size in _deep_targets(pairs, c):
            sides = [_abs_cmp_fast(num, den, size) for num, den in pairs]
            bound = next(n for n in range(k1, DEEP + 1) if sides[n] == side)
            for t in (size, -size):
                for problem in Problem:
                    inst = HGInstance(IntPoly(tuple(p)), IntPoly(tuple(q)), u0, t, problem)
                    hits = [n for n in range(DEEP + 1) if _is_hit(problem, signs[n], sides[n], t)]
                    where = (family, c, t, problem)

                    want = next((n for n in hits if n < DEEP), None)
                    scan = ExactScan(inst)
                    assert scan.first_hit(DEEP) == want, where
                    assert scan.n == (DEEP if want is None else want), where
                    assert scan.steps == scan.n, where

                    want = next((n for n in hits if n <= bound), None)
                    scan = ExactScan(inst)
                    assert scan.first_past(k1, side) == want, where
                    assert scan.n == scan.steps == bound, where
                    if cls.grows or cls.shrinks:  # not for r -> -1
                        found = (divergence_bound if grows else shrink_bound)(inst)
                        assert (found.n, found.first_hit) == (bound, want), where

    @pytest.mark.parametrize("c", CROSSINGS)
    def test_balanced_membership_crossing(self, c):
        # p = (x + 2)(x + 4), q = (x + 1)(x + 5): u_n = u0 (n + 4)/(4(n + 1))
        # falls to L = u0/4, so a target above L is met or passed at c
        p, q, u0 = [8, 6, 1], [5, 6, 1], F(3)
        pairs = list(reference_pairs(p, q, u0, c + 2))
        here, after = F(*pairs[c]), F(*pairs[c + 1])
        for t, problem, witness in (
            (here, Problem.MEMBERSHIP, c),
            ((here + after) / 2, Problem.MEMBERSHIP, None),
            (-here, Problem.MEMBERSHIP, None),
            ((here + after) / 2, Problem.THRESHOLD, c + 1),
        ):
            docin = InstanceDocument(
                HGInstance(IntPoly(tuple(p)), IntPoly(tuple(q)), u0, t, problem), "unconditional"
            )
            cert = decide_document(docin, EngineConfig())
            assert cert["witness"] == witness, (t, problem)
            if witness is None and t > 0:
                assert cert["reason"] == "monotone_tail_excludes_target"
                assert cert["bound"]["n"] == c + 1 and cert["scanned_up_to"] == c
            assert verify_certificate(cert) == []

    def test_tail_is_skipped_in_blocks(self, monkeypatch):
        # u_n = n + 1 never equals 1/2: 10^5 indices, about one float log
        # per block of 64 past the monotonicity index
        logs = []
        log_ratio = sequence._log_ratio

        def counted(a, b):
            logs.append(1)
            return log_ratio(a, b)

        monkeypatch.setattr(sequence, "_log_ratio", counted)
        inst = HGInstance(IntPoly.of(1, 1), IntPoly.of(2, 1), F(1), F(1, 2), Problem.MEMBERSHIP)
        scan = ExactScan(inst, cap=10**5)
        with pytest.raises(ScanCapExceeded):
            scan.first_hit()
        assert scan.n == 10**5 + 1 and scan.materialized == 0
        assert len(logs) < 10**5 // 64 + 10

    def test_error_bound_covers_block_logs(self):
        # |u_n| stays 1: each float update of logabs is charged the 12u of
        # its two logs, so err keeps at least 12u per block moved past
        inst = HGInstance(IntPoly.of(1), IntPoly.of(-1), F(1), F(1, 2), Problem.MEMBERSHIP)
        scan = ExactScan(inst)
        assert scan.first_hit(64 * 50) is None
        assert scan.n == 64 * 50 and scan.logabs == 0.0
        assert scan.err >= 12 * 2.0**-53 * 50

    @pytest.mark.parametrize("family", sorted(DEEP_FAMILIES))
    def test_float_state_within_its_bound(self, family, mp):
        p, q, u0 = DEEP_FAMILIES[family]
        pairs = _deep_pairs(family)
        t = -abs(F(*pairs[DEEP])) if family.startswith("grow") else F(10**9)
        inst = HGInstance(IntPoly(tuple(p)), IntPoly(tuple(q)), u0, t, Problem.MEMBERSHIP)
        scan = ExactScan(inst)
        for stop in (DEEP // 3, DEEP):
            assert scan.first_hit(stop) is None
            num, den = pairs[stop]
            exact = mp.log(abs(mp.mpf(num))) - mp.log(abs(mp.mpf(den)))
            assert abs(scan.logabs - exact) <= scan.err
            assert scan.sign() == _sgn(num) * _sgn(den)
        assert scan.materialized == 0


class TestSharedReplay:
    def test_member_certificate_replays_on_one_scan(self, monkeypatch):
        # witness 3000, bound 3001: the bound replay carries on from the
        # witness scan and its exact anchor, one exact term in all
        docin = InstanceDocument(
            HGInstance(IntPoly.of(3, 1), IntPoly.of(4, 1), F(2), F(2 * 3003, 3), Problem.MEMBERSHIP),
            "unconditional",
        )
        cert = decide_document(docin, EngineConfig())
        assert (cert["witness"], cert["bound"]["n"]) == (3000, 3001)
        scans = []
        init = ExactScan.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            scans.append(self)

        monkeypatch.setattr(ExactScan, "__init__", recording_init)
        assert verify_certificate(cert) == []
        assert len(scans) == 1
        assert scans[0].materialized == 1
        assert scans[0].steps == 3001 + BOUND_RECHECK_SPAN

    def test_witness_pair_is_telescoped(self):
        # u_n = 2 (n + 3)/3 meets t at 2 * 10^5: the exact pair there is
        # 2 (2*10^5 + 3) over 3, not products of 2 * 10^5 factors each
        witness = 2 * 10**5
        inst = HGInstance(
            IntPoly.of(3, 1), IntPoly.of(4, 1), F(2), F(2 * (witness + 3), 3), Problem.MEMBERSHIP
        )
        config = EngineConfig(scan_cap=3 * 10**5)
        cert = decide_document(InstanceDocument(inst, "unconditional"), config)
        assert cert["witness"] == witness
        assert verify_certificate(cert, config) == []
        scan = ExactScan(inst, config.scan_cap)
        assert scan.first_hit() == witness
        assert scan.materialized >= 1
        assert scan.num.bit_length() < 128 and scan.den.bit_length() < 128
