"""ExactScan against an independent plain-integer reference scan.

The reference below uses no floats and no hgdecide code: it evaluates the
coefficient lists itself, multiplies every factor into one integer pair
and compares by exact cross-multiplication.  ExactScan's float filter
(log-magnitude plus a counted error bound) must agree with it at every
index, including targets a few ulps away from a term.  The deep tests run
the searches about 3000 terms into monotone tails, which the scan skips
in galloping blocks, with crossings placed at and next to block
boundaries, or leaves through its tail exit once |u_n| moves away from
|t|.  Instances whose q is p shifted by an integer, up to
cofactors, exercise the telescoped exact products, including shifts
longer than a block and than the span of a product.
"""

import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hgdecide import sequence
from hgdecide.certs import InstanceDocument, verify_certificate
from hgdecide.cli import decide_document, main
from hgdecide.config import EngineConfig
from hgdecide.equality import decide
from hgdecide.errors import ScanCapExceeded
from hgdecide.polys import IntPoly
from hgdecide.sequence import (
    ExactScan,
    HGInstance,
    Problem,
    Recurrence,
    classify,
    divergence_bound,
    shrink_bound,
)

DEPTH = 300


@pytest.fixture
def log_calls(monkeypatch):
    """One entry per float log ratio (`sequence._log_ratio`) from now on."""
    calls = []
    log_ratio = sequence._log_ratio

    def counted(a, b):
        calls.append((a, b))
        return log_ratio(a, b)

    monkeypatch.setattr(sequence, "_log_ratio", counted)
    return calls


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
            assert (scan.sign() == 0) == (num == 0)
            for t in targets:
                assert (scan.cmp(t) == 0) == (num * t.denominator == t.numerator * den), (n, t)
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
        assert scan.zero_since == 8 and scan.fraction() == 0 and scan.sign() == 0


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
            ([6, 2, 2], [-10, -6, -2], [([6, 2, 2], 1)], ([1], [-1])),  # q = -p(x + 1)
            ([3, 2], [4, 2], [], ([3, 2], [4, 2])),  # q = p(x + 1/2): no pair
            ([1, 0, 1], [2, 3, 1], [], ([1, 0, 1], [2, 3, 1])),  # p has no integer root
            ([2, 1], [-5, 1], [([2, 1], -7)], ([1], [1])),  # q vanishes at 5
        ],
    )
    def test_pairs(self, p, q, pairs, rest):
        inst = HGInstance(IntPoly(tuple(p)), IntPoly(tuple(q)), F(1), F(0), Problem.MEMBERSHIP)
        got, p1, q1 = inst.recurrence.shift_form
        assert [(list(g.coeffs), h) for g, h in got] == pairs
        assert (list(p1.coeffs), list(q1.coeffs)) == rest

    @settings(max_examples=80, deadline=None)
    @given(shifted_pair(top=200), st.integers(0, 150), st.integers(1, 260))
    def test_products_are_the_ratio(self, pq, lo, span):
        # telescoped from 64 terms up, and spans shorter and longer than
        # each |h| <= 200
        p, q = pq
        inst = HGInstance(IntPoly(tuple(p)), IntPoly(tuple(q)), F(1), F(0), Problem.MEMBERSHIP)
        qs, ps = sequence._factor_products(inst.recurrence, lo, lo + span)
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


def _three_searches(inst, cap, stop):
    """(result, n, sign, fraction) after first_hit(stop), first_hit() and
    first_past(), each on a fresh scan; a search that reaches the cap
    gives ScanCapExceeded as its result."""
    out = []
    for search in (
        lambda scan: scan.first_hit(stop),
        lambda scan: scan.first_hit(),
        lambda scan: scan.first_past(),
    ):
        scan = ExactScan(inst, cap)
        try:
            got = search(scan)
        except ScanCapExceeded:
            got = ScanCapExceeded
        out.append((got, scan.n, scan.sign(), scan.fraction()))
    return out


class TestSkipIndex:
    """Blocks start at the skip index, the certified index k1 stays where
    the past exit fires: moving the skip index up to k1 changes nothing a
    search returns or leaves behind."""

    @settings(max_examples=60, deadline=None)
    @given(
        instances(),
        st.fractions(min_value=-50, max_value=50, max_denominator=50),
        st.sampled_from(list(Problem)),
        st.integers(0, DEPTH),
        st.data(),
    )
    def test_searches_as_from_the_certified_index(self, pq, u0, problem, stop, data):
        p, q = pq
        pairs = list(reference_pairs(p, q, u0, DEPTH + 1))
        t = data.draw(st.sampled_from(_targets(data.draw, pairs)))
        assume(t != 0)
        fields = (IntPoly(tuple(p)), IntPoly(tuple(q)), u0, t, problem)
        got = _three_searches(HGInstance(*fields), DEPTH, stop)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(Recurrence, "skip_index", property(lambda rec: rec.monotonicity_index))
            want = _three_searches(HGInstance(*fields), DEPTH, stop)
        assert got == want

    def test_prefix_skips_from_the_sharp_index(self, monkeypatch):
        # k1 = 286 and skip index 7: u_n rises from u_0 = 1 towards its
        # limit, and the prefix to k1 + 2 is mostly committed blocks
        p, q = [108, -6, 1], [284, -6, 1]
        pairs = list(reference_pairs(p, q, F(1), 289))
        steps = record_steps(monkeypatch)
        for t, problem in (
            (F(1, 2), Problem.MEMBERSHIP),
            (F(*pairs[150]), Problem.MEMBERSHIP),
            (F(1), Problem.THRESHOLD),
            ((F(*pairs[200]) + F(*pairs[201])) / 2, Problem.THRESHOLD),
        ):
            inst = HGInstance(IntPoly(tuple(p)), IntPoly(tuple(q)), F(1), t, problem)
            assert (inst.recurrence.monotonicity_index, inst.recurrence.skip_index) == (286, 7)
            if problem is Problem.MEMBERSHIP:
                want = next((n for n, (a, b) in enumerate(pairs[:288]) if F(a, b) == t), None)
            else:
                want = next((n for n, (a, b) in enumerate(pairs[:288]) if F(a, b) < t), None)
            steps.clear()
            scan = ExactScan(inst)
            assert scan.first_hit(288) == want, t
            assert scan.fraction() == F(*pairs[scan.n])
            assert len(steps) < 40, (t, len(steps))

    def test_certified_index_past_the_cap_steps(self, monkeypatch):
        # k1 = 2^252 + 2 and skip index 1: the search can only end at the
        # cap.  u_n rises from u_0 = 1 > t, so two misses above |t| at 1
        # and 2 prove there is no witness: the tail exit goes to the cap
        # with no product, and the step there raises
        inst = HGInstance(
            IntPoly.of(2**250, 0, 1), IntPoly.of(2**252, 0, 1), F(1), F(1, 10**6), Problem.THRESHOLD
        )
        steps = record_steps(monkeypatch)
        spans = record_products(monkeypatch)
        scan = ExactScan(inst, cap=300)
        with pytest.raises(ScanCapExceeded):
            scan.first_hit(inst.recurrence.monotonicity_index + 2)
        assert steps == [0, 1, 300] and spans == [] and inst.recurrence.skip_index == 1
        assert scan.n == scan.steps == 301


def _linear_product(*shifts):
    """prod (x + s) over the shifts."""
    poly = IntPoly.of(1)
    for c in shifts:
        poly = poly * IntPoly.of(c, 1)
    return poly


# balanced pairs whose certified index k1 lies past the default 10^6 cap
# and whose |u_n| moves away from |t| from the start (u0 = 1)
PAST_THE_CAP = [
    # no real root of p, q, q - p or q + p above -1, yet k1 = 5 010 007;
    # every term is positive
    pytest.param(
        _linear_product(1, 2001) * IntPoly.of(13, -4, 1),
        _linear_product(1001, 1001) * IntPoly.of(5, -4, 1),
        F(-1), Problem.THRESHOLD, id="k1-5010007-threshold",
    ),
    # k1 = 2^252 + 2; none of the four polynomials has a real root
    pytest.param(
        IntPoly.of(2**250, 0, 1), IntPoly.of(2**252, 0, 1), F(1, 10**6), Problem.THRESHOLD,
        id="k1-2-to-252-threshold",
    ),
    # p = (x + 1)(x + 2N), q = (x + N)(x + N + 1): k1 is about N^2
    *(
        pytest.param(
            _linear_product(1, 2 * n), _linear_product(n, n + 1), t, problem,
            id=f"gamma-ratio-{label}-{problem.value}",
        )
        for n, label in ((10**4, "1e4"), (10**5, "1e5"), (10**6, "1e6"))
        for t, problem in ((F(1, 2), Problem.THRESHOLD), (F(3), Problem.MEMBERSHIP))
    ),
]


# the worked example's limit sinh(pi) / (39 sinh(3 pi)) times 1 + 2^-60,
# rounded down to a multiple of 2^-140 (see test_certs_cli)
NEAR_TIE = F(66614734727671937059123508434769531341, 1393796574908163946345982392040522594123776)


class TestScanCapReachable:
    def test_far_side_near_tie_ends_at_scan_cap(self, monkeypatch):
        # worked example, t = L(1 + 2^-60) (see test_certs_cli): the
        # decreasing tail needs about 2^60 terms to drop below t, and the
        # limit's enclosure proves the drop lies past the cap, so the
        # decision exits at the cap with the scan still at k0 + 2.
        inst = HGInstance(IntPoly.of(13, -4, 1), IntPoly.of(5, -4, 1), F(1), NEAR_TIE, Problem.THRESHOLD)
        scans = []
        init = ExactScan.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            scans.append(self)

        monkeypatch.setattr(ExactScan, "__init__", recording_init)
        with pytest.raises(ScanCapExceeded):
            decide(inst, EngineConfig(scan_cap=10**5))
        assert len(scans) == 1 and scans[0].n <= inst.recurrence.monotonicity_index + 2
        # the threshold hunt itself runs to the cap.  The gap |u_n - t|
        # stays far above the float error bound, so the scan must not fall
        # back to exact arithmetic on the way: a handful of
        # materializations, not one per term.
        monkeypatch.undo()
        scan = ExactScan(inst, 10**5)
        with pytest.raises(ScanCapExceeded):
            scan.first_hit()
        assert scan.n > 10**5
        assert scan.materialized <= 4

    @pytest.mark.parametrize(
        "u0,t,problem",
        [
            (1, NEAR_TIE, Problem.THRESHOLD),  # falling tail, drop below t past the cap
            (-1, -NEAR_TIE, Problem.MEMBERSHIP),  # rising tail, crossing of t past the cap
        ],
    )
    def test_far_crossing_exits_at_default_cap_without_a_scan(
        self, monkeypatch, tmp_path, capsys, u0, t, problem
    ):
        # the worked pair with t about L(1 + 2^-60): the order test's
        # enclosure puts the crossing past 10^6, so nothing is scanned past
        # the prefix u_0 .. u_{k0+1}
        inst = HGInstance(IntPoly.of(13, -4, 1), IntPoly.of(5, -4, 1), F(u0), t, problem)
        k0 = inst.recurrence.monotonicity_index
        blocks, steps = record_products(monkeypatch), record_steps(monkeypatch)
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(InstanceDocument(inst, "auto").to_dict()))
        assert main(["decide", str(f)]) == 4
        err = capsys.readouterr().err
        assert "resource limit" in err and "the limit puts the crossing of t past the cap" in err
        assert all(hi <= k0 + 2 for _, _, hi in blocks) and max(steps) < k0 + 2

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

    @pytest.mark.parametrize("p,q,t,problem", PAST_THE_CAP)
    def test_certified_index_past_the_cap_ends_at_once(
        self, monkeypatch, tmp_path, capsys, p, q, t, problem
    ):
        # two misses past the skip index, on the side of |t| that |u_n|
        # moves away from, prove there is no witness: the prefix scan goes
        # straight to the cap with no block product, and exits 4 there
        inst = HGInstance(p, q, F(1), t, problem)
        assert inst.recurrence.monotonicity_index > EngineConfig().scan_cap
        steps, spans = record_steps(monkeypatch), record_products(monkeypatch)
        with pytest.raises(ScanCapExceeded):
            decide(inst, EngineConfig())
        assert spans == [] and len(steps) < inst.recurrence.skip_index + 10
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(InstanceDocument(inst, "auto").to_dict()))
        assert main(["decide", str(f)]) == 4
        assert "resource limit" in capsys.readouterr().err


def _horner_product(coeffs, lo, hi):
    return math.prod(_horner(coeffs, k) for k in range(lo, hi))


# spans below, at and past one leaf of the product tree, and a deep tree
KERNEL_SPANS = (0, 1, 63, 64, 65, 300)


class TestValues:
    """`_values`, `_product` and `_factor_products` against Horner values."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.lists(st.integers(-(2**256), 2**256), min_size=1, max_size=33),
            # linear factors, which `_product` reads as arithmetic progressions
            st.lists(st.integers(-(2**64), 2**64), min_size=2, max_size=2),
        ),
        st.integers(-200, 200),
        st.integers(0, 80),
    )
    def test_values_match_horner(self, coeffs, lo, length):
        coeffs[-1] = coeffs[-1] or 1
        f = IntPoly(tuple(coeffs))
        assert list(sequence._values(f, lo, lo + length)) == [
            _horner(coeffs, k) for k in range(lo, lo + length)
        ]
        assert sequence._product(f, lo, lo + length) == _horner_product(coeffs, lo, lo + length)

    @pytest.mark.parametrize("span", KERNEL_SPANS)
    @pytest.mark.parametrize(
        "coeffs, lo",
        [
            ([3, 2], 10**5),  # 2x + 3 deep in a tail
            ([7, -3], 40),  # negative slope
            ([-150, 3], 10),  # a zero at x = 50, inside the longer spans
            ([5, 2], -170),  # lo < 0, values change sign with no zero
            ([-7, -1], -40),  # negative slope and lo < 0, a zero at -7
            ([-6], 3),  # constant
            ([2, -3, 1], -20),  # quadratic (x - 1)(x - 2)
            ([1, 0, 1], 10**4),  # quadratic with no root
        ],
    )
    def test_product_matches_horner(self, coeffs, lo, span):
        f = IntPoly(tuple(coeffs))
        assert sequence._product(f, lo, lo + span) == _horner_product(coeffs, lo, lo + span)

    @pytest.mark.parametrize("span", (1, 63, 64, 65, 300))
    @pytest.mark.parametrize("p, q", [([3, 2], [4, 2]), ([1, 0, 1], [2, 0, 1])])
    def test_no_pair_products_are_direct(self, p, q, span):
        # with no shift pair nothing telescopes: the products are those of
        # q(k) and p(k) themselves, not only a pair with their ratio
        inst = HGInstance(IntPoly(tuple(p)), IntPoly(tuple(q)), F(1), F(0), Problem.MEMBERSHIP)
        assert inst.recurrence.shift_form == ((), inst.p, inst.q)
        lo = 1000
        assert sequence._factor_products(inst.recurrence, lo, lo + span) == (
            _horner_product(q, lo, lo + span),
            _horner_product(p, lo, lo + span),
        )


@st.composite
def float_blocks(draw):
    """(p, q, lo, hi): p with positive coefficients, so no root at k >= 0,
    and q of degree 1-8, a few of degree 32 with 256-bit coefficients, in
    some draws with a root inside the block; a block of 1-2048 indices
    starting anywhere up to 10^6."""
    degree, bits = draw(st.one_of(
        st.tuples(st.integers(1, 8), st.sampled_from([3, 16, 64])),
        st.just((32, 256)),
    ))
    lo = draw(st.integers(0, 10**6))
    hi = lo + draw(st.integers(1, 2048))
    root = draw(st.one_of(st.none(), st.integers(lo, hi - 1)))
    # the cofactor of x - root keeps q within the 256-bit cap
    top = 2 ** (bits if root is None else min(bits, 230)) - 1
    p = [draw(st.integers(1, top)) for _ in range(draw(st.integers(1, degree)) + 1)]
    q = [draw(st.integers(-top, top)) for _ in range(degree)] + [draw(st.integers(1, top))]
    if root is not None:
        q = list((IntPoly.of(-root, 1) * IntPoly(tuple(q[1:]))).coeffs)
    return p, q, lo, hi


def _documented_bound(f, lo, hi):
    """The error bound `_log_product` documents for log|prod f(k)| over
    lo <= k < hi, recomputed from the values: with every |f(k)| below
    2^top, (2(hi - lo) + sum(2y + S)) u over chunks of m = 1023 // top
    values, y the log of a chunk's double product and S the running sum
    of the y through it, and past top = 1023, where m = 0,
    (6(hi - lo) + sum(6y + S)) u with y the log of each value."""
    values = [abs(f(k)) for k in range(lo, hi)]
    if f.degree == 1:
        top = max(values[0], values[-1], 1).bit_length()
    else:
        k = max(abs(lo), abs(hi - 1)).bit_length()
        top = len(f.coeffs).bit_length() + max(c.bit_length() + i * k for i, c in enumerate(f.coeffs))
    assert max(values) < 2**top
    m = 1023 // top
    if m:
        per, chunks = 2, [math.prod(values[a:a + m], start=1.0) for a in range(0, hi - lo, m)]
    else:
        per, chunks = 6, values
    s = e = 0.0
    for x in chunks:
        y = math.log(x)
        s += y
        e += per * y + s
    return (per * (hi - lo) + e) * sequence._U


class TestFloatBlocks:
    """`_float_products` against the exact block products: the float log
    of |Q/P| within its bound, the sign of Q/P, and a zero of q reported;
    `_log_product`'s bound against its documented form."""

    @settings(max_examples=60, deadline=None)
    @given(float_blocks())
    def test_log_within_its_bound(self, mp, block):
        p, q, lo, hi = block
        inst = HGInstance(IntPoly(tuple(p)), IntPoly(tuple(q)), F(1), F(0), Problem.MEMBERSHIP)
        qs, ps = sequence._factor_products(inst.recurrence, lo, hi)
        d, e, sign = sequence._float_products(inst.recurrence, lo, hi)
        assert sign == _sgn(qs) * _sgn(ps)
        if qs:
            exact = mp.log(abs(mp.mpf(qs))) - mp.log(abs(mp.mpf(ps)))
            assert abs(mp.mpf(d) - exact) <= e

    def test_values_past_the_double_range_take_integer_logs(self, mp):
        # degree 32, 256-bit coefficients: near k = 2^40 every value is
        # about 2^1570, which no double holds
        p = IntPoly((2**255 + 1,) * 33)
        q = IntPoly((-(2**255) + 7,) * 32 + (2**256 - 1,))
        inst = HGInstance(p, q, F(1), F(0), Problem.MEMBERSHIP)
        lo, hi = 2**40, 2**40 + 40
        assert q(lo).bit_length() > 1024
        qs, ps = sequence._factor_products(inst.recurrence, lo, hi)
        d, e, sign = sequence._float_products(inst.recurrence, lo, hi)
        exact = mp.log(abs(mp.mpf(qs))) - mp.log(abs(mp.mpf(ps)))
        assert sign == _sgn(qs) * _sgn(ps) == 1 and abs(mp.mpf(d) - exact) <= e
        # a root at lo + 5 inside such a block
        q0 = IntPoly.of(-(lo + 5), 1) * IntPoly((2**200 + 3,) * 32)
        inst = HGInstance(p, q0, F(1), F(0), Problem.MEMBERSHIP)
        assert sequence._float_products(inst.recurrence, lo, hi)[2] == 0

    @settings(max_examples=60, deadline=None)
    @given(float_blocks())
    def test_bound_counts_every_chunk_rounding(self, block):
        # soundness alone passes a bound that drops a term: each factor's
        # bound must be at least the one documented
        p, q, lo, hi = block
        for f in (IntPoly(tuple(p)), IntPoly(tuple(q))):
            s, e, sign = sequence._log_product(f, lo, hi)
            if sign:
                assert e >= _documented_bound(f, lo, hi), (f, lo, hi)

    def test_bound_counts_every_integer_log_rounding(self):
        # values near 2^1570 (top > 1023): one integer log per value
        lo, hi = 2**40, 2**40 + 40
        for f in (IntPoly((2**255 + 1,) * 33), IntPoly((-(2**255) + 7,) * 32 + (2**256 - 1,))):
            s, e, sign = sequence._log_product(f, lo, hi)
            assert sign == 1 and e >= _documented_bound(f, lo, hi)


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
        probe = HGInstance(IntPoly(tuple(p)), IntPoly(tuple(q)), u0, F(1), Problem.MEMBERSHIP)
        k1 = probe.recurrence.monotonicity_index
        cls = classify(IntPoly(tuple(p)), IntPoly(tuple(q)))
        grows = family.startswith("grow")
        side = 1 if grows else -1
        assert cls.is_bounded and probe.recurrence.tail_signs[1] == side
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
                    assert scan.first_past() == want, where
                    assert scan.n == scan.steps == bound, where
                    found = (divergence_bound if grows else shrink_bound)(inst)
                    assert found == (bound, want), where

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
            assert cert.get("witness") == witness, (t, problem)
            if witness is None and t > 0:
                assert cert["reason"] == "monotone_tail_excludes_target"
                assert cert["bound"]["n"] == c + 1 and cert["scanned_up_to"] == c
            assert verify_certificate(cert) == []

    def test_tail_is_skipped_in_blocks(self, log_calls):
        # u_n = n + 1 never equals 1/2: 10^5 indices, at most one float log
        # per block of 64 past the monotonicity index
        inst = HGInstance(IntPoly.of(1, 1), IntPoly.of(2, 1), F(1), F(1, 2), Problem.MEMBERSHIP)
        scan = ExactScan(inst, cap=10**5)
        with pytest.raises(ScanCapExceeded):
            scan.first_hit()
        assert scan.n == 10**5 + 1 and scan.materialized == 0
        assert len(log_calls) < 10**5 // 64 + 10

    def test_error_bound_covers_block_logs(self, log_calls):
        # |u_n| stays 1: the residuals -1, 1 telescope, so the tail is
        # searched by exact terms and the float pair re-anchored once, on
        # the exact pair at the search's end, whose log is the last one
        # taken and is charged its 12u; the one log of the target is
        # charged to the target's own bound
        inst = HGInstance(IntPoly.of(1), IntPoly.of(-1), F(1), F(1, 2), Problem.MEMBERSHIP)
        scan = ExactScan(inst)
        assert scan.first_hit(64 * 50) is None
        assert scan.n == 64 * 50 and scan.logabs == 0.0
        assert log_calls.count((1, 2)) == 1 and scan.materialized == 1
        assert log_calls[-1] == (1, 1)
        assert scan.err >= 12 * 2.0**-53

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
        # the telescoped families search their tails by exact terms, one
        # exact anchor per search; the others move by float blocks only
        assert scan.materialized == (2 if family in ("grow", "grow-alt") else 0)


@st.composite
def gallop_family(draw):
    """(p, q, grows): q's linear factors are p's shifted by h, 1 <= |h| <=
    70, all of one sign, so |u_n| grows or shrinks like n^(sum h) (with
    the sign of u_n fixed or alternating); with a lead 2, or with x^2 + a
    in p and x^2 + b in q, a != b, the shift form leaves a residual other
    than +-1."""
    sign = draw(st.sampled_from([1, -1]))
    lead = draw(st.sampled_from([1, 1, 2]))
    p, q = IntPoly.of(lead), IntPoly.of(lead * draw(st.sampled_from([1, -1])))
    for top in (70, 8)[: draw(st.integers(1, 2))]:
        h = sign * draw(st.integers(1, top))
        r = max(1, 1 - h) + draw(st.integers(0, 9))
        p, q = p * IntPoly.of(r, 1), q * IntPoly.of(r + h, 1)
    if draw(st.booleans()):
        a = draw(st.integers(1, 9))
        b = draw(st.integers(1, 12).filter(lambda b: b != a))
        p, q = p * IntPoly.of(a, 0, 1), q * IntPoly.of(b, 0, 1)
    return p, q, sign > 0


def _outcome(search):
    """What search() returns, or ScanCapExceeded if it raises that."""
    try:
        return search()
    except ScanCapExceeded:
        return ScanCapExceeded


def _stepping_search(scan, stop, k1, past):
    """first_hit(stop), or with past = inst.recurrence.tail_signs[1] first_past()
    (stop the cap plus one), by a scan that steps index by index and tests
    every index exactly as the search docstrings state."""
    t, hit = scan.inst.t, None
    while scan.n < stop:
        if hit is None and scan.hit():
            if not past:
                return scan.n
            hit = scan.n
        if past and scan.n >= k1 and scan.abs_cmp(t) == past:
            return hit
        if hit is not None and scan.n == scan.cap:
            return hit
        scan.step()
    return hit


def record_steps(monkeypatch) -> list[int]:
    """The index of every ExactScan.step call from now on."""
    steps = []
    step = ExactScan.step

    def counted(self):
        steps.append(self.n)
        step(self)

    monkeypatch.setattr(ExactScan, "step", counted)
    return steps


def record_advances(monkeypatch) -> list[int]:
    """The end index of every float block move (`ExactScan._advance`)
    from now on."""
    ends = []
    advance = ExactScan._advance

    def counted(self, hi, side=0):
        ends.append(hi)
        return advance(self, hi, side)

    monkeypatch.setattr(ExactScan, "_advance", counted)
    return ends


def record_windows(monkeypatch) -> list[int]:
    """The index of every shift-form window evaluation from now on."""
    at = []
    windows = sequence._windows

    def recording(pairs, m):
        at.append(m)
        return windows(pairs, m)

    monkeypatch.setattr(sequence, "_windows", recording)
    return at


def record_products(monkeypatch) -> list[tuple[str, int, int]]:
    """(kernel, lo, hi) of every block product from now on, exact
    (`_factor_products`) or float (`_float_products`)."""
    blocks = []
    for kernel, name in (("exact", "_factor_products"), ("float", "_float_products")):
        product = getattr(sequence, name)

        def recording(rec, lo, hi, kernel=kernel, product=product):
            blocks.append((kernel, lo, hi))
            return product(rec, lo, hi)

        monkeypatch.setattr(sequence, name, recording)
    return blocks


class TestGallop:
    """The tail search doubles its block span after each committed block
    and halves it after a refused one, up to 256 indices; an exact product
    spans 64 or more only where the shift form leaves the residuals +-1."""

    @settings(max_examples=25, deadline=None)
    @given(
        gallop_family(),
        st.sampled_from(
            [("k1", 2**j + e) for j in range(5, 11) for e in (-1, 0, 1)] + [("cap", -1), ("cap", 0)]
        ),
        st.sampled_from([F(1), F(-2), F(5, 3), F(-7, 11)]),
    )
    def test_searches_agree_with_reference(self, family, where, u0):
        # crossings at and next to k1 + 2^j, where the doubling blocks
        # started at the monotonicity index k1 end, and next to the cap
        p, q, grows = family
        k1 = HGInstance(p, q, u0, F(1), Problem.MEMBERSHIP).recurrence.monotonicity_index
        assume(k1 <= 800)
        cap = k1 + 2**10 + 40
        c = (k1 if where[0] == "k1" else cap) + where[1]
        pairs = list(reference_pairs(p.coeffs, q.coeffs, u0, cap + 1))
        assume(abs(F(*pairs[c])) != abs(F(*pairs[c - 1])))
        signs = [_sgn(num) * _sgn(den) for num, den in pairs]
        side = 1 if grows else -1
        alternates = q.lead < 0
        for size in _deep_targets(pairs, c):
            sides = [_abs_cmp_fast(num, den, size) for num, den in pairs]
            bound = next((n for n in range(k1, cap + 1) if sides[n] == side), None)
            for t in (size, -size):
                for problem in Problem:
                    inst = HGInstance(p, q, u0, t, problem)
                    hits = [n for n in range(cap + 1) if _is_hit(problem, signs[n], sides[n], t)]
                    here = (c, t, problem)

                    scan = ExactScan(inst, cap)
                    if hits:
                        assert scan.first_hit() == hits[0], here
                    else:
                        with pytest.raises(ScanCapExceeded):
                            scan.first_hit()
                    assert scan.n == scan.steps == (hits[0] if hits else cap + 1), here

                    scan = ExactScan(inst, cap)
                    want = next((n for n in hits if bound is None or n <= bound), None)
                    if bound is None and want is None:
                        with pytest.raises(ScanCapExceeded):
                            scan.first_past()
                    else:  # the cap ends the search too once it has a witness
                        assert scan.first_past() == want, here
                        assert scan.n == scan.steps == (cap if bound is None else bound), here
                    if alternates:  # r -> -1: no bound search of its own
                        continue
                    find = divergence_bound if grows else shrink_bound
                    config = EngineConfig(scan_cap=cap)
                    if bound is None:
                        with pytest.raises(ScanCapExceeded):
                            find(inst, config=config)
                    else:
                        found = find(inst, config=config)
                        assert found == (bound, want), here
            for start, stop in ((0, c), (k1, cap), (c - 1, cap)):
                scan = ExactScan(HGInstance(p, q, u0, size, Problem.MEMBERSHIP), cap)
                for _ in range(start):
                    scan.step()
                scan.jump(stop)
                assert scan.n == scan.steps == stop
                assert scan.fraction() == F(*pairs[stop])
                assert scan.sign() == signs[stop]

    @settings(max_examples=60, deadline=None)
    @given(
        gallop_family(),
        st.sampled_from([F(1), F(-2), F(5, 3), F(-7, 11)]),
        st.sampled_from(list(Problem)),
        st.data(),
    )
    def test_tail_exit_leaves_a_stepping_scans_state(self, mp, family, u0, problem, data):
        # a search that leaves the tail through the exit (no product, the
        # float pair left behind) ends where a scan that steps index by
        # index ends, and every reader sees the same term there: the lazy
        # answers against the search target, a second target and the float
        # pair, each caught up on first read
        p, q, grows = family
        k1 = HGInstance(p, q, u0, F(1), Problem.MEMBERSHIP).recurrence.monotonicity_index
        assume(k1 <= 400)
        cap = k1 + 200
        pairs = list(reference_pairs(p.coeffs, q.coeffs, u0, cap + 1))
        c = data.draw(st.integers(1, cap), label="crossing")
        assume(abs(F(*pairs[c])) != abs(F(*pairs[c - 1])))
        sizes = _deep_targets(pairs, c)
        t = data.draw(st.sampled_from(sizes + [-size for size in sizes]), label="t")
        t2 = data.draw(st.sampled_from([-t, 2 * t, t / 3] + sizes), label="t2")
        stop, past = data.draw(
            st.sampled_from([(stop, 0) for stop in (c, c + 1, cap, cap + 1)] + [(cap + 1, 1)]),
            label="search",
        )
        floats_first = data.draw(st.booleans(), label="floats_first")
        inst = HGInstance(p, q, u0, t, problem)
        past = past and inst.recurrence.tail_signs[1]
        scan, stepped = ExactScan(inst, cap), ExactScan(inst, cap)
        if past:
            got = _outcome(lambda: scan.first_past())
        else:
            got = _outcome(lambda: scan.first_hit(stop))
        want = _outcome(lambda: _stepping_search(stepped, stop, k1, past))
        here = (c, t, problem, stop, past)
        assert (got, scan.n, scan.steps) == (want, stepped.n, stepped.steps), here
        if scan.n > cap:
            return
        num, den = pairs[scan.n]
        assert scan.sign() == stepped.sign() == _sgn(num) * _sgn(den), here
        assert scan.hit() == stepped.hit(), here
        assert scan.cmp(t) == stepped.cmp(t) == ref_cmp(num, den, t), here
        assert scan.abs_cmp(t) == stepped.abs_cmp(t) == ref_abs_cmp(num, den, t), here
        for read_floats in (floats_first, not floats_first):
            if read_floats and num:
                exact = mp.log(abs(mp.mpf(num))) - mp.log(abs(mp.mpf(den)))
                assert abs(scan.logabs - exact) <= scan.err, here
            elif not read_floats:
                assert scan.cmp(t2) == stepped.cmp(t2) == ref_cmp(num, den, t2), here
                assert scan.abs_cmp(t2) == ref_abs_cmp(num, den, t2), here
        assert scan.fraction() == stepped.fraction() == F(num, den), here

    def test_tail_exit_takes_no_product(self, monkeypatch):
        # k1 = 722 and skip index 1: u_n rises from u_0 = 1 > t = 1/2, so the
        # misses at 1 and 2 prove the prefix to k1 + 2 clean, and the search
        # goes there without the 16 block products over 721 indices that
        # galloping takes
        inst = HGInstance(
            IntPoly.of(412, 87, 0, 1), IntPoly.of(720, 164, 0, 1), F(1), F(1, 2), Problem.THRESHOLD
        )
        assert (inst.recurrence.monotonicity_index, inst.recurrence.skip_index) == (722, 1)
        spans, steps = record_products(monkeypatch), record_steps(monkeypatch)
        scan = ExactScan(inst)
        assert scan.first_hit(inst.recurrence.monotonicity_index + 2) is None
        assert scan.n == scan.steps == 724 and spans == [] and steps == [0, 1]
        assert scan.sign() == 1 and scan.cmp(inst.t) == 1 and spans == []

    def test_readers_after_a_tail_exit_catch_the_floats_up(self, mp):
        # the tail exit leaves the float pair at 2 and the scan at 724; the
        # err property, and a step, each bring it up to n first
        inst = HGInstance(
            IntPoly.of(412, 87, 0, 1), IntPoly.of(720, 164, 0, 1), F(1), F(1, 2), Problem.THRESHOLD
        )
        stop = inst.recurrence.monotonicity_index + 2

        def exact_log(n):
            fresh = ExactScan(inst)
            fresh.jump(n)
            u = fresh.fraction()
            return fresh.sign(), u, mp.log(abs(mp.mpf(u.numerator))) - mp.log(mp.mpf(u.denominator))

        read = ExactScan(inst)
        assert read.first_hit(stop) is None
        assert (read.n, read._lag, read.materialized) == (724, 2, 0)
        err = read.err  # read first: the catch-up runs here
        assert read._lag is None
        assert abs(read.logabs - exact_log(724)[2]) <= err

        stepped = ExactScan(inst)
        assert stepped.first_hit(stop) is None and stepped._lag == 2
        stepped.step()  # the catch-up runs in the step
        stepped.step()
        assert stepped.n == 726 and stepped._lag is None
        sign, u, log_u = exact_log(726)
        assert abs(stepped.logabs - log_u) <= stepped.err
        assert stepped.sign() == sign and stepped.fraction() == u

    def test_search_to_the_cap_takes_few_logs(self, log_calls):
        # u_n = n + 1 never equals 1/2: the span doubles up to the cap
        inst = HGInstance(IntPoly.of(1, 1), IntPoly.of(2, 1), F(1), F(1, 2), Problem.MEMBERSHIP)
        scan = ExactScan(inst, cap=10**6)
        with pytest.raises(ScanCapExceeded):
            scan.first_hit()
        assert scan.n == scan.steps == 10**6 + 1 and scan.materialized == 0
        assert len(log_calls) <= 4 * math.log2(10**6)

    def test_far_member_witness_takes_few_logs(self, log_calls):
        # u_n = (n + 3)/3 meets t at 999 999: the span doubles towards the
        # witness, then halves at each refused block down to it
        witness = 999_999
        inst = HGInstance(IntPoly.of(3, 1), IntPoly.of(4, 1), F(1), F(witness + 3, 3), Problem.MEMBERSHIP)
        scan = ExactScan(inst, cap=10**6)
        assert scan.first_hit() == witness
        assert scan.n == scan.steps == witness
        assert len(log_calls) <= 4 * math.log2(10**6)

    @pytest.mark.parametrize("p,q", [([3, 1], [4, 1]), ([6, 2], [8, 2])])
    def test_shift_pair_search_to_the_cap_takes_few_logs(self, log_calls, p, q):
        # u_n = (n + 3)/3 never equals 1/2; 2x + 6, 2x + 8 leaves the
        # residuals 2, 2, divided down to 1, 1, and gallops as x + 3, x + 4
        inst = HGInstance(IntPoly(tuple(p)), IntPoly(tuple(q)), F(1), F(1, 2), Problem.MEMBERSHIP)
        scan = ExactScan(inst, cap=10**6)
        with pytest.raises(ScanCapExceeded):
            scan.first_hit()
        assert scan.n == scan.steps == 10**6 + 1
        assert len(log_calls) <= 4 * math.log2(10**6)

    def test_unit_residual_jump_is_one_product(self, monkeypatch):
        spans = record_products(monkeypatch)
        inst = HGInstance(IntPoly.of(3, 1), IntPoly.of(4, 1), F(1), F(0), Problem.MEMBERSHIP)
        scan = ExactScan(inst)
        scan.jump(10**6)
        assert spans == [("exact", 0, 10**6)]
        assert scan.fraction() == F(10**6 + 3, 3)

    def test_other_residual_gallops_in_float_blocks(self, monkeypatch):
        # p = 2x + 3, q = 2x + 4 does not telescope: blocks under 64
        # indices multiply exactly, longer ones take double chunk products,
        # and the span doubles up to 256 on the way to the witness at 5000,
        # where the one exact product over 64 indices brings the exact
        # pair from u_0 to u_5000
        inst = HGInstance(IntPoly.of(3, 2), IntPoly.of(4, 2), F(1), F(0), Problem.MEMBERSHIP)
        inst = HGInstance(inst.p, inst.q, F(1), sequence.term(inst, 5000), Problem.MEMBERSHIP)
        spans = record_products(monkeypatch)
        assert ExactScan(inst).first_hit() == 5000
        *blocks, last = spans
        assert last == ("exact", 0, 5000)
        assert all((kind == "exact") == (hi - lo < 64) for kind, lo, hi in blocks)
        assert max(hi - lo for _, lo, hi in blocks) == sequence._SPAN == 256

    @pytest.mark.parametrize(
        "p,q",
        [
            ([1, 0, 1], [3, 2, 1]),  # no shift pair: the residual is p, q
            ([6, 2], [12, 3]),  # the pair x + 3, h = 1, leaves p1, q1 = 2, 3
        ],
    )
    def test_other_residual_jump_is_one_float_product(self, monkeypatch, p, q):
        # |u_n| grows like n^2 or (3/2)^n n and is above |t| = 1 past u_0.
        # k1 is 5 or 8, within 64 of the start, so sides are read from k1 on
        # (the skip index is not computed): the misses at k1 and k1 + 1
        # prove there is no witness, the search exits there with no
        # product, and the float pair stays at k1 + 1.  jump catches it up
        # and then moves it, each in one float product and no exact one
        spans = record_products(monkeypatch)
        inst = HGInstance(IntPoly(tuple(p)), IntPoly(tuple(q)), F(1), F(-1), Problem.MEMBERSHIP)
        lag = inst.recurrence.monotonicity_index + 1
        scan = ExactScan(inst)
        assert scan.first_hit(20000) is None
        assert scan.n == scan.steps == 20000 and scan.materialized == 0
        assert spans == []
        scan.jump(30000)
        assert spans == [("float", lag, 20000), ("float", 20000, 30000)]
        assert scan.n == scan.steps == 30000 and scan.materialized == 0


class TestExactTail:
    """A telescoped tail past 64 indices is searched by exact terms: an
    exponential search from the current span, then bisection, for the last
    index on the side of |t| where the tail starts."""

    @pytest.mark.parametrize(
        "p,q,u0",
        [
            ([3, 1], [4, 1], F(5, 3)),  # u_n = u0 (n + 3)/3
            ([3, 1], [-4, -1], F(-5, 3)),  # the same, alternating
            ([4, 1], [3, 1], F(2)),  # u_n = u0 3/(n + 3)
            ([8, 6, 1], [15, 8, 1], F(1)),  # two pairs with h = 1
            ([3, 4, 1], [12, 8, 1], F(1)),  # h = -1 and h = 5
            ([12, 8, 1], [3, 4, 1], F(1)),  # h = 1 and h = -5
        ],
    )
    @pytest.mark.parametrize("witness", [70, 4097, 99_999])
    def test_search_takes_logarithmically_many_probes(self, monkeypatch, p, q, u0, witness):
        # the first_hit search and the first_past search, which runs on to
        # the first index past t
        inst = HGInstance(IntPoly(tuple(p)), IntPoly(tuple(q)), u0, F(0), Problem.MEMBERSHIP)
        t = sequence.term(inst, witness)
        inst = HGInstance(inst.p, inst.q, u0, t, Problem.MEMBERSHIP)
        probes, blocks = record_windows(monkeypatch), record_advances(monkeypatch)
        for past in (0, 1):
            probes.clear()
            blocks.clear()
            scan = ExactScan(inst, 10**5)
            assert (scan.first_past() if past else scan.first_hit()) == witness
            # the anchor's windows, then one evaluation per exact term
            assert len(probes) - 1 <= 2 * math.ceil(math.log2(witness)) + 2, past
            assert blocks == []
            assert scan.n == scan.steps == witness + past
            assert scan.fraction() == sequence.term(inst, witness + past)

    def test_far_member_exits_at_the_cap_after_few_probes(self, monkeypatch, tmp_path, capsys):
        # u_n = (n + 3)/3 meets t at 10^12, far past the 10^6 cap: every
        # exact term up to the cap lies below |t|, so the bound search
        # moves to the cap in O(log cap) exact terms and exits 4 there
        inst = HGInstance(
            IntPoly.of(3, 1), IntPoly.of(4, 1), F(1), F(10**12 + 3, 3), Problem.MEMBERSHIP
        )
        probes, blocks = record_windows(monkeypatch), record_advances(monkeypatch)
        with pytest.raises(ScanCapExceeded):
            decide(inst, EngineConfig())
        assert len(probes) - 1 <= 2 * math.ceil(math.log2(10**6)) + 2 and blocks == []
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(InstanceDocument(inst, "auto").to_dict()))
        assert main(["decide", str(f)]) == 4
        assert "resource limit" in capsys.readouterr().err


class TestSharedReplay:
    def test_member_certificate_replays_on_one_scan(self, monkeypatch):
        # witness 3000, bound 3001: the bound replay carries on from the
        # witness scan and its exact anchor; two exact terms in all, the
        # exact tail search's last term below t, u_2999, and the witness
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
        assert scans[0].materialized == 2
        assert scans[0].steps == 3001

    def test_witness_replay_takes_no_more_blocks_than_the_decision(self, monkeypatch):
        # p = 2x + 3, q = 2x + 4 does not telescope, so both searches
        # gallop in float blocks; the replay stops at the witness and tests
        # it once, so its last block is not refused and halved across it
        inst = HGInstance(IntPoly.of(3, 2), IntPoly.of(4, 2), F(1), F(0), Problem.MEMBERSHIP)
        inst = HGInstance(inst.p, inst.q, inst.u0, sequence.term(inst, 3000), Problem.MEMBERSHIP)
        blocks = record_advances(monkeypatch)
        cert = decide_document(InstanceDocument(inst, "unconditional"), EngineConfig())
        assert cert["witness"] == 3000 and cert["bound"]["n"] == 3001
        decided = len(blocks)
        blocks.clear()
        assert verify_certificate(cert) == []
        assert 0 < len(blocks) <= decided

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
        assert scan.fraction() == inst.t
        # the unreduced pair that fraction() materialized
        assert scan._num.bit_length() < 128 and scan._den.bit_length() < 128
