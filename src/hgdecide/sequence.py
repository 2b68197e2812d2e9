"""Hypergeometric sequence evaluation, classification, and search bounds.

The sequence satisfies p(n) * u_{n+1} = q(n) * u_n, so
u_n = u0 * prod_{k=0}^{n-1} q(k)/p(k).  ExactScan walks the sequence
lazily: each step updates only the sign, a float log|u_n| and a counted
bound on that float's error (derived in the class docstring).  An order
or equality test against a target is settled by the floats when the logs
differ by more than the bound; otherwise the exact unreduced
numerator/denominator pair is brought up to n by one telescoped product
of the pending q(k) and p(k) and the test is an exact cross-multiplied
integer comparison.  Telescoped: the pair's record holds a shift form
(`Recurrence.shift_form`) that pairs a factor g of p with a factor
g(x + h) of q, h an integer, so that the product of g(k + h)/g(k) over a
range leaves only |h| values of g at each end; the rest of q and p goes
through a balanced product tree.  Ranges shorter than _LEAF, which cost
about as much as building the shift form, are multiplied directly.  For
p = x + 3, q = x + 4 the pair brought from 0 to n is
(n + 3) * u0.numerator over 3 * u0.denominator, not two products of n
factors.  The scan owns the scan cap and the witness test (u_n = t for
Membership, u_n < t for Threshold), and searches in two modes: first_hit
returns at the first witness, the prefix search of every decision and
replay; first_past records it and runs on to the past exit, so the bound
searches and the balanced Membership crossing find N and the least
witness in one scan.

Every fact that p and q alone decide lives in one record,
`Recurrence`: the integer roots, the shift form, the monic test, the
asymptotic class, the tail analysis (k1 and the tail's signs) and the
skip index.  `recurrence(p, q)` caches it for the last 1024 pairs, so
the instances, decisions and certificate replays on one pair in a
process share one analysis, and an instance reads it as
`inst.recurrence`.

The scan reads two indices of the record.  The certified index k1 =
`Recurrence.monotonicity_index` is the Cauchy bound that certificates,
bounds and replay use: a bound search ends at some N >= k1, and a balanced
verdict scans its prefix to k1 + 2.  The skip index
(`Recurrence.skip_index`, at most k1) is Cauchy's rule for positive roots,
past every nonnegative root of p, q, q - p and q + p; only the scan reads
it.  Past the skip index the tail is monotone: |r(k)| - 1 and sign r(k)
are constant, so |u_n| is monotone and the signs of u_n are constant or
alternate.  The search therefore skips the tail from there and steps only
over the index where |u_n| crosses |t|.  Where the shift form leaves the
residuals p1, q1 = +-1, an exact term at any index is the anchor pair
times a few values of g at each end (`_windows`), and the search finds
the crossing by exact terms, an exponential search and then bisection
(`ExactScan._last_on`).  Elsewhere it gallops (Bentley and Yao, IPL 5(3),
1976) in float blocks: a block moves the log-magnitude to its end by the
float log of prod q(k)/p(k) over it, and a block whose ends are
float-settled on one side of |t| is committed without an exact term.
Blocks of at least _LEAF indices take that log from double products of
chunks of values (`_float_products`: a linear factor's values are an
arithmetic progression, multiplied as a range, others come by forward
differences in `_values`), one math.log per chunk, at a cost linear in
the span.  Shorter blocks, whose fixed cost is lower exact, and every
block of a telescoped instance, which costs the same at any length, take
it from the exact products (`_factor_products`).  An exact product over a
residual other than +-1 costs more per index the longer the span (of
2x + 3 and 2x + 4 near 10^4, with its log, on a 2-core x86 host: 1.6 us
at span 4, then 145 ns per index at span 64, 195 ns at 256, 290 ns at
1024 and 550 ns at 4096, against 4.1 us, then 105, 70, 60 and 60 ns, for
the double products), so float blocks gallop up to _SPAN indices.

Skips are needed only while |u_n| moves towards |t|.  Which way |u_n|
moves, and whether its sign alternates, is one fact of the record,
`Recurrence.tail_signs`, read once at k1 and shared by the scan, the
decisions and the bound replay, which share one test on it,
ExactScan.tail_misses().  Once |u_n| lies on one side of |t| and
the record says it moves away from it, monotonicity alone says that no
later index is a witness and where the past exit fires, so the search
takes its tail exit: it moves n to where it would end (the search end,
the cap, or k1 when the pending past exit is on that side) with no
product at all, and the sign by the stretch's parity.  The float pair is
left at the exit's index: readers against the same target answer from
the side it proved, and any other reader (a step, a jump, a new target,
logabs or err) first catches it up with jump's products.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .config import DEFAULT_CONFIG, EngineConfig
from .errors import DecideError, ScanCapExceeded
from .numutil import int_nthroot_floor
from .polys import IntPoly, integer_roots


class Problem(enum.Enum):
    MEMBERSHIP = "membership"
    THRESHOLD = "threshold"


@dataclass(frozen=True, eq=False)
class Recurrence:
    """The facts of p(n) u_{n+1} = q(n) u_n that u0 and t do not enter:
    the integer roots, the shift form, the monic test, the asymptotic class,
    the tail analysis (k1 and the tail's signs) and the skip index.  Each
    is worked out on first use.  `recurrence(p, q)` hands out one record
    per pair from a bounded cache, so every instance, decision and
    certificate replay on that pair in a process shares one analysis.
    Building a record checks that p and q are nonzero and within the caps;
    an instance also needs p to have no nonnegative integer root, which it
    checks on every construction against `p_roots`."""

    p: IntPoly
    q: IntPoly

    def __post_init__(self):
        if self.p.is_zero or self.q.is_zero:
            raise DecideError("p and q must be nonzero")
        self.p.check_caps()
        self.q.check_caps()

    @functools.cached_property
    def p_roots(self) -> tuple[int, ...]:
        """Sorted distinct integer roots of p."""
        return integer_roots(self.p)

    @functools.cached_property
    def q_roots(self) -> tuple[int, ...]:
        """Sorted distinct integer roots of q, searched on first use."""
        return integer_roots(self.q)

    @property
    def first_zero_of_q(self) -> int | None:
        """Least k >= 0 with q(k) = 0 (u_n = 0 for every n > k), or None."""
        return next((r for r in self.q_roots if r >= 0), None)

    @functools.cached_property
    def shift_form(self) -> tuple:
        """(pairs, p1, q1): q(x)/p(x) = q1(x)/p1(x) * prod g(x + h)/g(x)
        over the pairs (g, h), g dividing p, g(x + h) dividing q, h a
        nonzero integer.  Over lo <= k < hi each pair telescopes
        (`_factor_products`, which builds this on its first product over
        at least _LEAF indices): the shift reduction of Gosper's algorithm
        (PNAS 75(1), 1978; Petkovsek-Wilf-Zeilberger, A = B, ch. 5).

        First pairs x - r, x - s of linear factors, r and s integer roots
        of p and q matched closest first and counting multiplicity; then
        one pair q1 = c * p1(x + h) from what is left, h read off the top
        two coefficients, which leaves the constants q1/p1 = c.  Constant
        residuals are divided by their positive gcd, so 2x + 6, 2x + 8
        leaves 1, 1 as x + 3, x + 4 does.  Factors nothing beyond the two
        root lists, and searches q's only when p has integer roots.
        """
        p, q = self.p, self.q
        pairs = []
        while True:
            # q's roots are searched only once some root of p is left
            rs = [
                (abs(r - s), r, s)
                for r in self.p_roots if p(r) == 0
                for s in self.q_roots if q(s) == 0
            ]
            if not rs:
                break
            _, r, s = min(rs)
            lin = IntPoly.of(-r, 1)
            p, q = p.exact_div(lin), q.exact_div(IntPoly.of(-s, 1))
            if r != s:
                pairs.append((lin, r - s))
        d, pd, qd = p.degree, p.coeffs[-1], q.coeffs[-1]
        if d == q.degree and d > 0:
            # q = c p(x + h) has c = q_d/p_d and, at x^(d-1),
            # q_{d-1} = c (p_{d-1} + d h p_d)
            h, rem = divmod(q.coeffs[d - 1] * pd - p.coeffs[d - 1] * qd, d * pd * qd)
            if not rem and q * pd == p.compose_linear(h, 1) * qd:
                if h:
                    pairs.append((p, h))
                p, q = IntPoly.of(pd), IntPoly.of(qd)
        if p.degree == q.degree == 0:
            g = math.gcd(p.lead, q.lead)
            p, q = IntPoly.of(p.lead // g), IntPoly.of(q.lead // g)
        return tuple(pairs), p, q

    @property
    def is_monic_pair(self) -> bool:
        return self.p.is_monic and self.q.is_monic

    @functools.cached_property
    def asymptotic(self) -> AsymptoticClass:
        """classify(p, q)."""
        return classify(self.p, self.q)

    @functools.cached_property
    def _tail(self) -> tuple[int, tuple[int, int], tuple[tuple[int, ...], ...]]:
        """(k1, tail signs, tails), the certified tail analysis, in one pass
        over `tails`, the coefficients of p, q, q - p and q + p: past their
        real roots r(k) and |r(k)| - 1 keep their signs.  k1 is 1 + the
        largest Cauchy bound 1 + max |c_i|/|lead| of those of degree >= 1,
        rounded up in integers, which lies past every real root of them;
        the signs are read at k1, where q(k1) and p(k1) are nonzero."""
        pc, qc = self.p.coeffs, self.q.coeffs
        tails = [pc, qc]
        for sign in (-1, 1):
            c = [b + sign * a for a, b in itertools.zip_longest(pc, qc, fillvalue=0)]
            while c and not c[-1]:
                c.pop()
            tails.append(tuple(c))
        bound = 0
        for c in tails:
            if len(c) >= 2:
                top = max(map(abs, c[:-1]))
                bound = max(bound, 1 - (-top // abs(c[-1])))
        k1 = 1 + bound
        qk, pk = self.q(k1), self.p(k1)
        signs = (1 if (qk > 0) == (pk > 0) else -1), (abs(qk) > abs(pk)) - (abs(qk) < abs(pk))
        return k1, signs, tuple(tails)

    @property
    def monotonicity_index(self) -> int:
        """The certified index k1 past which r(k) has constant sign and
        |r(k)| - 1 does too (`_tail`).  Not minimal; soundness only."""
        return self._tail[0]

    @property
    def tail_signs(self) -> tuple[int, int]:
        """(sign r(k), sign(|r(k)| - 1)), the same for every k >= skip_index:
        past it none of p, q, q - p and q + p changes sign.  From the skip
        index on, sign(u_n) is constant or alternates and |u_n| rises,
        falls or stays put.  The scan, the decisions and the bound replay
        all read this one record."""
        return self._tail[1]

    @functools.cached_property
    def skip_index(self) -> int:
        """1 + the largest Cauchy's-rule bound (`_positive_root_bound`) of
        p, q, q - p and q + p, capped at k1: past it the tail is monotone.
        Only ExactScan reads it, and only for a search longer than _BLOCK,
        so it is worked out on first use, from the coefficients `_tail`
        kept; certificates use k1."""
        k1, _, tails = self._tail
        return min(1 + max(_positive_root_bound(c) for c in tails), k1)


@functools.lru_cache(maxsize=1024)
def recurrence(p: IntPoly, q: IntPoly) -> Recurrence:
    """The one record of the pair (p, q), cached for 1024 pairs, the size of
    `integer_roots`' cache.  A pair that fails the checks is refused on
    every call: a raising build is not cached."""
    return Recurrence(p, q)


@dataclass(frozen=True)
class HGInstance:
    """A question on the sequence: p, q, u0, t and the problem.  What p and
    q alone decide is read from `recurrence`, the pair's shared record."""

    p: IntPoly
    q: IntPoly
    u0: Fraction
    t: Fraction
    problem: Problem
    recurrence: Recurrence = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a Fraction passed in is kept, so a parsed instance builds each rational once
        object.__setattr__(self, "u0", self.u0 if type(self.u0) is Fraction else Fraction(self.u0))
        object.__setattr__(self, "t", self.t if type(self.t) is Fraction else Fraction(self.t))
        rec = recurrence(self.p, self.q)
        roots = rec.p_roots  # sorted: some root is nonnegative iff the last one is
        if roots and roots[-1] >= 0:
            raise DecideError(f"p vanishes at nonnegative integer {next(r for r in roots if r >= 0)}")
        object.__setattr__(self, "recurrence", rec)


class Variant(enum.Enum):
    DIVERGES_TO_INFINITY = "diverges_to_infinity"
    CONVERGES_TO_ZERO_RATIO = "converges_to_zero_ratio"
    CONVERGES_TO = "converges_to"
    RATIO_LIMIT_ONE = "ratio_limit_one"
    RATIO_LIMIT_MINUS_ONE = "ratio_limit_minus_one"


@dataclass(frozen=True)
class AsymptoticClass:
    """Limit behavior of the shift quotient r(k) = q(k)/p(k), the
    certificate's asymptotic record.

    Determined solely by degrees and the top two coefficients.  For
    RATIO_LIMIT_ONE, `exponent` is the partial-product growth exponent
    A = (sum of roots of p) - (sum of roots of q), read off the subleading
    coefficients by Vieta; the partial products behave like n**A, so A = 0
    is exactly the balanced (convergent-product) case.  For
    RATIO_LIMIT_MINUS_ONE it is the same exponent of |r(k)| = -r(k), so
    |u_n| behaves like n**A while the signs alternate; there A = 0 (p = -q
    among others) is neither growth nor shrinkage, and stays unsupported.
    Which way a bounded tail moves is not read here but from the pair's
    record, `Recurrence.tail_signs`.
    """

    variant: Variant
    ratio_limit: Fraction | None = None
    exponent: Fraction | None = None

    @property
    def is_balanced(self) -> bool:
        return self.variant is Variant.RATIO_LIMIT_ONE and self.exponent == 0

    @property
    def is_bounded(self) -> bool:
        """Whether a divergence or shrink bound settles the tail: the
        exponent is absent or nonzero.  Past k1 the sign of q^2 - p^2 is
        then that of its leading term, so |r(k)| stays on the side of 1
        the class grows or shrinks to, the second of the record's
        tail_signs."""
        return self.exponent is None or self.exponent != 0


def classify(p: IntPoly, q: IntPoly) -> AsymptoticClass:
    if p.is_zero or q.is_zero:
        raise DecideError("classify expects nonzero polynomials")
    dp, dq = p.degree, q.degree
    if dq > dp:
        return AsymptoticClass(Variant.DIVERGES_TO_INFINITY)
    if dq < dp:
        return AsymptoticClass(Variant.CONVERGES_TO_ZERO_RATIO)
    if abs(q.lead) == abs(p.lead):
        # |r(k)| = 1 + A/k + O(1/k^2), A from the subleading coefficients
        s = 1 if q.lead == p.lead else -1
        a = Fraction(s * q.coeffs[dp - 1] - p.coeffs[dp - 1], p.lead) if dp else Fraction(0)
        variant = Variant.RATIO_LIMIT_ONE if s == 1 else Variant.RATIO_LIMIT_MINUS_ONE
        return AsymptoticClass(variant, exponent=a)
    return AsymptoticClass(Variant.CONVERGES_TO, ratio_limit=Fraction(q.lead, p.lead))


# ---------------------------------------------------------------------------
# Exact scanning
# ---------------------------------------------------------------------------

# unit roundoff of IEEE-754 double arithmetic
_U = 2.0**-53
# the float filter is trusted only this many steps past the exact anchor;
# _SAFETY then covers the roundings of err's own running sum
_MAX_PENDING = 2**30
_SAFETY = 1.0 + 2.0**-20
# product-tree ranges this short are multiplied left to right
_LEAF = 64
# a search stretch this short steps throughout; a longer one is searched
# by exact terms when the shift form's residuals are in _UNITS
_BLOCK = 64
_UNITS = ((1,), (-1,))
# the longest float block of a galloping tail search
_SPAN = 256


def _log_ratio(a: int, b: int) -> tuple[float, float]:
    """(d, e): d = math.log|a| - math.log|b| for nonzero ints, and a bound e
    on |d - log|a/b||.  See ExactScan for the derivation."""
    la = math.log(abs(a))
    lb = math.log(abs(b))
    d = la - lb
    return d, (12.0 + 6.0 * (la + lb) + abs(d)) * _U


def _values(f: IntPoly, lo: int, hi: int):
    """f(lo), ..., f(hi - 1) exactly, as an iterable.

    Forward differences (Knuth, TAOCP vol. 2, 4.6.4): the differences
    D^j f(lo), j <= d = deg f, come from d + 1 Horner values; D^d f is
    constant, and each lower row is the running sum of the row above
    started at D^j f(lo), so d nested accumulate passes give the values
    with one big-integer addition per value and degree.  Ranges of at
    most d + 1 values are evaluated by Horner directly.  A linear factor's
    values are an arithmetic progression, which `_product` reads off the
    coefficients as a range instead.
    """
    d = f.degree
    if hi - lo <= d + 1:
        return [f(k) for k in range(lo, hi)]
    row = [f(k) for k in range(lo, lo + d + 1)]
    heads = []
    for _ in range(d + 1):
        heads.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    # row j of the table has one value more than row j + 1
    vals = itertools.repeat(heads[d], hi - lo - d)
    for head in reversed(heads[:d]):
        vals = itertools.accumulate(vals, initial=head)
    return vals


def _product(f: IntPoly, lo: int, hi: int) -> int:
    """prod f(k) over lo <= k < hi by a balanced product tree.  A linear
    factor c0 + c1 x takes the values of an arithmetic progression, so a
    leaf multiplies range(c0 + c1 lo, c0 + c1 hi, c1), read off the
    coefficients; other leaves multiply `_values`."""
    d = f.degree
    if d == 0:
        return f.lead ** (hi - lo)
    if hi - lo <= _LEAF:
        if d == 1:
            c0, c1 = f.coeffs
            return math.prod(range(c0 + c1 * lo, c0 + c1 * hi, c1))
        return math.prod(_values(f, lo, hi))
    mid = (lo + hi) // 2
    return _product(f, lo, mid) * _product(f, mid, hi)


def _log_product(f: IntPoly, lo: int, hi: int) -> tuple[float, float, int]:
    """(s, e, sign): s ~ log|prod f(k)| over lo <= k < hi, a bound e on
    |s - log|prod f(k)||, and the product's sign; sign 0 when some f(k) is
    0, s and e then meaningless.

    Each value is below 2^top, top read off the coefficients (exactly for
    a linear factor, whose |f| peaks at an end), so chunks of
    m = 1023 // top values multiply to a finite double: as
    `math.prod(range(...), start=1.0)` for a linear factor, else over
    `_values`, with one math.log per chunk.  Past top = 1023 the values
    may leave the double range, and each takes its log by math.log on the
    integer.  The bound is derived in ExactScan."""
    if f.degree == 1:
        c0, c1 = f.coeffs
        top = max(abs(c0 + c1 * lo), abs(c0 + c1 * (hi - 1)), 1).bit_length()
    else:
        k = max(abs(lo), abs(hi - 1)).bit_length()
        top = len(f.coeffs).bit_length() + max(c.bit_length() + i * k for i, c in enumerate(f.coeffs))
    m = 1023 // top
    s = e = 0.0
    sign = 1
    if not m:
        for v in _values(f, lo, hi):
            if v < 0:
                v, sign = -v, -sign
            elif not v:
                return 0.0, 0.0, 0
            y = math.log(v)
            s += y
            e += 6.0 * y + s
        return s, (6 * (hi - lo) + e) * _U, sign
    if f.degree == 1:
        chunks = (range(c0 + c1 * a, c0 + c1 * min(a + m, hi), c1) for a in range(lo, hi, m))
    else:
        vals = iter(_values(f, lo, hi))
        chunks = (itertools.islice(vals, m) for _ in range(lo, hi, m))
    for chunk in chunks:
        x = math.prod(chunk, start=1.0)
        if x < 0:
            x, sign = -x, -sign
        elif not x:
            return 0.0, 0.0, 0
        y = math.log(x)
        s += y
        e += 2.0 * y + s
    return s, (2 * (hi - lo) + e) * _U, sign


def _float_products(rec: Recurrence, lo: int, hi: int) -> tuple[float, float, int]:
    """(d, e, sign), the float counterpart of `_factor_products`: d ~ the
    log of |prod q(k)/p(k)| over lo <= k < hi, e a bound on its error and
    sign the ratio's sign, 0 when some q(k) is 0 (`_log_product` on q, and
    on p, which has no zero at k >= 0)."""
    sq, eq, sign = _log_product(rec.q, lo, hi)
    if not sign:
        return 0.0, 0.0, 0
    sp, ep, sign_p = _log_product(rec.p, lo, hi)
    d = sq - sp
    return d, eq + ep + abs(d) * _U, sign * sign_p


def _windows(pairs, m: int) -> tuple[int, int]:
    """(A, B), the shift-form windows at m: A is the product over the pairs
    (g, h) with h > 0 of g(k), m <= k < m + h, and B the same over h < 0
    with m + h <= k < m.  Over lo <= k < hi a pair's g(k + h)/g(k)
    telescopes to its window at hi over its window at lo (h > 0), or the
    reverse (h < 0), so the pairs give A(hi) B(lo) / (A(lo) B(hi))."""
    a = b = 1
    for g, h in pairs:
        if h > 0:
            a *= _product(g, m, m + h)
        else:
            b *= _product(g, m + h, m)
    return a, b


def _factor_products(rec: Recurrence, lo: int, hi: int) -> tuple[int, int]:
    """(Q, P) with Q/P = prod q(k)/p(k) over lo <= k < hi, telescoped by
    Recurrence.shift_form: Q = q1^(hi - lo) A(hi) B(lo) and
    P = p1^(hi - lo) A(lo) B(hi) (`_windows`), the residuals q1, p1 by
    product trees.

    With every |h| at most hi - lo, each value g(k) in P, and each one
    that cancels, has lo <= k < hi, k >= 0, where g, a factor of p, has no
    root; each g(k) in Q is g(j + h) for some lo <= j < hi, a factor of
    q(j).  So P is nonzero and Q is zero exactly when some q(k) is.  A
    shift longer than the range cancels nothing, and ranges shorter than
    _LEAF, which cost about as much as building the shift form, are
    multiplied directly: an instance whose products are all short never
    builds it.  A shift form with no pairs has no windows to multiply in.
    """
    if hi - lo >= _LEAF:
        pairs, p1, q1 = rec.shift_form
        if not pairs:
            return _product(q1, lo, hi), _product(p1, lo, hi)
        if all(abs(h) <= hi - lo for _, h in pairs):
            a_lo, b_lo = _windows(pairs, lo)
            a_hi, b_hi = _windows(pairs, hi)
            return _product(q1, lo, hi) * a_hi * b_lo, _product(p1, lo, hi) * a_lo * b_hi
    return _product(rec.q, lo, hi), _product(rec.p, lo, hi)


class ExactScan:
    """Forward scan of u_n: float log-magnitude per step, exact on demand.

    step() does no big-integer work.  It tracks the sign of u_n, the float
    `logabs` ~ log|u_n| and a bound `err` >= |logabs - log|u_n||.  The exact
    pair (num, den), unreduced, is kept only at the last anchor index and
    is brought up to n by one telescoped product (`_factor_products`: the
    shift-form pairs cancel, the residual goes through a balanced product
    tree) when a comparison falls inside the error bound, or when a
    caller asks for fraction(); logabs and err are then re-anchored on it.
    The exact tail search re-anchors both pairs the same way (`_anchor`).
    `steps` counts the indices the scan has moved past, by step() or jump().
    The scan never goes past index `cap`: step() raises ScanCapExceeded on
    moving to cap + 1, and jump(n) raises before any work when n > cap.

    Error bound.  Assume math.log is within 1 ulp (2u relative, u = 2^-53)
    on doubles.  For a positive int x, math.log(x) = y obeys
    |y - log x| <= 6u(1 + |y|):
      * x < 2^1024: float(x) is correctly rounded (relative u, so log
        moves by <= 1.01u), then log adds 2u|y|;
      * x >= 2^1024: y = log(m) + log(2)*e with m the correctly rounded
        frexp mantissa in [1/2, 1]: 1.01u for m, 1.4u for log(m), 3.01u*e*log 2
        for the rounded log(2) times e, u|y| for the sum; with
        e*log 2 <= |y| + 0.71 this is below 4.6u + 4.01u|y|.
    So d = log|a| - log|b| (a, b nonzero ints, la, lb >= 0 their logs) is
    off by at most (12 + 6(la + lb) + |d|)u, the last term for the
    rounding of the subtraction (`_log_ratio`).  Nothing here uses how a
    and b were formed: the bound holds for any nonzero integer pair whose
    ratio is the one wanted, so a telescoped (Q, P) is charged the same
    way as the direct products, only less.  Each step adds that for
    a = q(k), b = p(k), plus u|logabs| for the rounding of the running sum.

    A float block (`_log_product`, on q and on p) multiplies chunks of m
    nonzero integer values in doubles.  A chunk product F that is finite
    never underflowed, as every partial product is at least 1 in
    magnitude, and it rounded at most 2m times, once per conversion of a
    value above 2^53 and once per multiplication, each by a relative u:
    |log|F| - log|X|| <= 2m u(1 + u) for the exact product X.  F is
    finite: every value lies below 2^top, top read off the coefficients,
    and m = 1023 // top values multiply to below 2^1023, which 2m
    roundings cannot carry past the largest double.  math.log(F) = y >= 0
    adds 2u y, and each addition to the running sum S of the chunk logs
    adds u S, so log|prod f(k)| over [lo, hi) is off by at most
    (2(hi - lo) + sum of (2y + S)) u; the factor 1 + u of the first term is
    one more rounding of the kind _SAFETY absorbs.  A chunk product of 0.0
    means some f(k) = 0: only q has zeros at k >= 0, and the block records
    zero_since as an exact product of 0 does.  Where top > 1023 the values
    may lie outside the double range (a degree-32 q with 256-bit
    coefficients near k = 2^40), and each takes its log by math.log on the
    integer, off by at most 6u(1 + y) as above, plus u S for the sum.
    d = S_q - S_p adds u|d| for the subtraction (`_float_products`).

    err itself is a float sum of nonnegative terms, each a few roundings: a
    step adds two to it, and a block two after its own chunk sums, which
    hold fewer terms than the block has indices.  So with fewer than 2^30
    indices since the anchor each term passes fewer than 2^32 roundings,
    and the true bound is below err * (1 + 2^-21); _SAFETY = 1 + 2^-20
    also absorbs the roundings of the final comparison.  A comparison with
    a target t is settled by floats only when
    |logabs - log|t|| > (err + err_t) * _SAFETY, err_t the same bound for
    log|t|; otherwise it is exact.

    Monotone tail.  Two indices of the pair's record rec = inst.recurrence
    bound the prefix, both read off the coefficients of its tail analysis
    (`Recurrence._tail`).  The certified index k1 = rec.monotonicity_index
    (the Cauchy bound 1 + max|c_i|/|lead| of p, q, q - p and q + p) is the
    one certificates and replay use: the past exit of a search fires only
    at n >= k1.  The skip index rec.skip_index <= k1 (Cauchy's rule for
    positive roots, `_positive_root_bound`) lies past every nonnegative
    root of the same four polynomials; the scan reads it only to start
    skipping.  Past the skip index q(k), p(k)
    and q(k)^2 - p(k)^2 keep their signs, so |u_n| is monotone and
    sign(u_n) is constant or alternates (on p = x^2 - 6x + 108,
    q = x^2 - 6x + 284, k1 is 286 and the skip index 7).  The witness
    test then depends only on sign(u_n) and on the side of |t| that |u_n|
    lies on: two consecutive misses on one side cover both signs of the
    pattern, so no index on that side is a witness.  From there a
    telescoped instance (`_telescoped`: the shift form leaves the
    residuals +-1) whose search has more than _BLOCK indices left before
    its limit (the search end, the cap, or k1 while the past exit is
    pending) is searched exactly (`_last_on`).  With (num, den) the
    exact pair at the anchor a, the term at m is num A(m) B(a) over
    den A(a) B(m) (`_windows`) up to the residuals' sign, which
    |u_m| - |t| ignores.  No window value is zero: those in A lie at
    k >= 0, where g, a factor of p, has none, and a zero g(k) in B(m) or
    B(a) would be a zero of q at k - h >= a, which neither the prefix
    (zero_since is None) nor the tail past the skip index holds.  Exact
    terms at n + span, n + 2 span, ... run until one is off the side or
    the limit is reached, then bisection between the last term on the side
    and the first off it finds the last index m on the side, in at most
    2 ceil(log2 d) + 2 terms over d indices.  The scan commits to m in one
    move (n and steps move by m - n), re-anchors the exact pair there with
    one float log, and steps across the crossing; every index in between
    is on the side (monotone |u|), so none is a witness and none passes a
    bound.  Any other tail, and a telescoped one within _BLOCK of its
    limit, is skipped in float blocks: the search tries a block [n, hi),
    hi = n + span or the limit, and logabs moves by the block's float d of
    log|prod q(k)/p(k)| and err by d's bound plus u|logabs| for the running
    sum (`_advance`).  A block of at least _LEAF indices on an instance
    that does not telescope takes d from double chunk products, as above.
    Any other block takes the d of _log_ratio(Q, P), with (Q, P) the
    telescoped pair of the block, Q/P = prod q(k)/p(k), P nonzero and Q
    zero only at a zero of q, and its bound (12 + 6(log|Q| + log|P|) + |d|)u,
    the same derivation with a = Q, b = P, so the 12u is paid once per
    block, not per index.  If the block's end is float-settled on the side
    its start is on, every index in between is on that side too (monotone
    |u|), so none is a witness and none passes a bound: the block is
    committed (n and steps move by hi - n, the sign flips when the block's
    ratio is negative) and never materializes, and the span doubles, up to
    _SPAN.
    Otherwise the span halves and the block is tried again at n; at span
    one the scan steps instead, and the span is two again after the step.
    A search with at most _BLOCK indices left never builds the shift form
    (spans start at one and `_factor_products` multiplies short ranges
    directly).  A first_past search that has recorded its witness needs
    only the magnitude, so it skips without waiting for two misses.
    jump(n) moves the float state, unchecked, by one block (`_advance`),
    which builds no exact product when it spans at least _LEAF indices of
    an instance that does not telescope.

    Tail exit.  Where a skip would be tried and sign(|r(k)| - 1), the
    second of rec.tail_signs and the same at every k past the skip index,
    is the side |u_n| is on, |u_m| stays strictly on that side for every
    m >= n.  No later index is a witness, and the past exit fires at k1 if
    it is on that side and never otherwise; so the search moves n, with
    `steps`, straight to the search end, the cap or k1, builds no product,
    and flips the sign when r(k) < 0 (the first of rec.tail_signs) and
    the stretch is odd.  The float pair stays at the exit's index (`_lag`)
    and proves the side for its target `_t`: cmp, abs_cmp and _side
    against that target read the same settled logs as at the exit.  step,
    jump, a new target in _far, and the logabs and err properties first
    catch the pair up (`_catch_up`, jump's products); _materialize needs
    no catch-up, as the exact pair re-anchors the float pair.  On
    p = x^3 + 87x + 412, q = x^3 + 164x + 720, u0 = 1 and Threshold
    t = 1/2, first_hit(k1 + 2) steps at 0 and 1 and exits, where galloping
    took 16 products over 721 indices.  Outside a search, tail_misses()
    asks the same of one term: whether it settles every later index.
    """

    __slots__ = (
        "inst", "rec", "cap", "n", "steps", "materialized", "zero_since",
        "_logabs", "_err", "_lag", "_sign", "_num", "_den", "_at", "_t", "_tlog", "_terr",
    )

    def __init__(self, inst: HGInstance, cap: int = DEFAULT_CONFIG.scan_cap):
        self.inst = inst
        self.rec = inst.recurrence
        self.cap = cap
        self.n = 0
        self.steps = 0
        self.materialized = 0
        self._num = inst.u0.numerator
        self._den = inst.u0.denominator
        self._at = 0
        self._sign = (self._num > 0) - (self._num < 0)
        self.zero_since: int | None = 0 if self._num == 0 else None
        self._logabs, self._err = _log_ratio(self._num, self._den) if self._num else (0.0, 0.0)
        self._lag: int | None = None
        self._t = None

    @property
    def logabs(self) -> float:
        """The float log|u_n|, caught up first if a tail exit left it behind."""
        if self._lag is not None:
            self._catch_up()
        return self._logabs

    @property
    def err(self) -> float:
        """The bound on |logabs - log|u_n||, caught up first like logabs."""
        if self._lag is not None:
            self._catch_up()
        return self._err

    def step(self):
        k = self.n
        if k >= self.cap:
            self.n, self.steps = k + 1, self.steps + 1
            raise ScanCapExceeded(f"scan index {k + 1} exceeds cap {self.cap}")
        if self._lag is not None:
            self._catch_up()
        self.n = k + 1
        self.steps += 1
        if self.zero_since is not None:
            return
        # p has no nonnegative integer roots (validated); q may hit zero
        qk = self.inst.q(k)
        if qk == 0:
            self.zero_since = k + 1
            return
        pk = self.inst.p(k)
        if (qk < 0) != (pk < 0):
            self._sign = -self._sign
        d, e = _log_ratio(qk, pk)
        self._logabs += d
        self._err += e + abs(self._logabs) * _U

    def jump(self, n: int):
        """Go straight to index n >= self.n.  The float state moves by one
        block (`_advance`); no exact term is built."""
        if n > self.cap:
            raise ScanCapExceeded(f"scan index {n} exceeds cap {self.cap}")
        if n < self.n:
            raise DecideError("ExactScan.jump cannot go back")
        if self._lag is not None:
            self._catch_up()
        self.steps += n - self.n
        self._floats_to(n)

    def _floats_to(self, n: int):
        """jump's float move from self.n to n; `steps` is the caller's."""
        if self.n < n and self.zero_since is None:
            self._advance(n)
        self.n = n

    def _catch_up(self):
        """Bring the float pair from index _lag, where a tail exit left it,
        up to n by jump's products.  The sign is n's already: the exit
        moved it by parity."""
        n, sign = self.n, self._sign
        self.n, self._lag = self._lag, None
        self._floats_to(n)
        self._sign = sign

    def _telescoped(self) -> bool:
        """Whether the shift form leaves the residuals p1, q1 = +-1, so that
        a product, and an exact term, costs the same at any length.  Read
        only where a search has more than _BLOCK indices to skip, or a
        block spans at least _LEAF, which builds the shift form if no
        product has."""
        _, p1, q1 = self.rec.shift_form
        return p1.coeffs in _UNITS and q1.coeffs in _UNITS

    def _witness_test(self) -> int:
        """u_n is a witness exactly when cmp(t) is this: 0 for Membership
        (u_n = t), -1 for Threshold (u_n < t)."""
        return 0 if self.inst.problem is Problem.MEMBERSHIP else -1

    def hit(self) -> bool:
        """Whether u_n is a witness for inst.problem and inst.t."""
        return self.cmp(self.inst.t) == self._witness_test()

    def first_hit(self, stop: int | None = None) -> int | None:
        """Least n in [self.n, stop) with a witness u_n, the scan left there;
        None with the scan at stop if there is none.  Without stop the
        search ends only at a witness or at the cap (ScanCapExceeded).
        Blocks may start below k1 = rec.monotonicity_index, at the skip
        index rec.skip_index (`_search`); where they start moves only the
        work, never the result or where the scan is left.
        """
        return self._search(self.cap + 1 if stop is None else stop, 0)

    def first_past(self) -> int | None:
        """Move to the first N >= k1 = rec.monotonicity_index, the
        certified index, where |u_N| has passed |t| (t nonzero) the way the
        tail moves: sign(|u_N| - |t|) = the second of rec.tail_signs.
        Return the least witness n <= N met on the way, or None; at the cap
        a recorded witness ends the search, else ScanCapExceeded.  Blocks
        may start below k1, as in first_hit."""
        return self._search(self.cap + 1, self.rec.tail_signs[1])

    def tail_direction(self) -> int:
        """sign(u_{m+1} - u_m) for every m >= n, for n past the skip index
        and r(k) > 0 there: u_{m+1} - u_m = u_m (r(m) - 1) has the sign of
        u_n times the second of rec.tail_signs (0: the terms stay put)."""
        return self.sign() * self.rec.tail_signs[1]

    def tail_misses(self) -> bool:
        """Whether monotonicity alone rules out a witness after n, for n
        past the skip index, r(k) > 0 there and u_n no witness (the
        balanced verdicts and the bound replay check these first).  The
        terms keep the sign s of u_n and move in tail_direction().  A
        Threshold tail misses t if it does not fall, or stays nonnegative
        over t <= 0; a Membership tail if it stays put, never has t's
        sign, or has passed t already."""
        s, t, direction = self.sign(), self.inst.t, self.tail_direction()
        if self.inst.problem is Problem.THRESHOLD:
            return direction >= 0 or (s >= 0 and t <= 0)
        return direction == 0 or s * t <= 0 or self.cmp(t) == direction

    def _search(self, end: int, past: int) -> int | None:
        """The search loop of first_hit (past = 0: it returns at the first
        witness) and first_past (past = the tail's side: it records the
        first witness and runs on to the past exit, or to the cap, where a
        recorded witness ends it too): per index below the skip index,
        from there skipping to the last index on one side of |t| by exact
        terms (a telescoped instance with more than _BLOCK indices left)
        or by committed float blocks, or the whole rest of the search at
        the tail exit (class docstring).  With a past exit,
        k1 = rec.monotonicity_index is read first; it fires only at
        n >= k1, and while it is pending no skip and no tail exit crosses
        k1, so the exit index is the one a per-index scan finds.
        Stretches of at most _BLOCK indices are too short to pay for what
        a skip costs: a search that short with no past exit steps
        throughout and reads no tail fact, so a short witness replay on a
        new pair runs no tail analysis, and one whose certified index
        rec.monotonicity_index is that close reads sides from there, never
        computing the skip index.  A search whose k1 lies past the cap
        reads sides from the skip index, so the tail exit can take
        it to the cap, and skips from there like any other search.  Such a
        k1 comes from coefficients that are huge next to the lead, whose
        wide values float blocks take in short chunks (p = x^2 + 2^250,
        q = x^2 + 2^252, u0 = 1 and Membership t = 2^60000 galloped from
        skip index 1 to a 2 * 10^4 cap in 11 ms, against 68 ms stepping,
        on a 2-core x86 host; with Threshold t = 10^-6 the tail exit takes
        it there after steps at 0 and 1)."""
        rec = self.rec
        result = self._witness_test()
        t = self.inst.t
        cmp, step = self.cmp, self.step
        k1 = rec.monotonicity_index if past else 0
        hit = None
        low = end
        if past or (t and end - self.n > _BLOCK):
            low = min(end, rec.monotonicity_index)
            if low - self.n > _BLOCK:
                low = min(end, rec.skip_index)
        prev = 0  # side of the last index when it was a float-settled miss
        span = 1  # length of the next block tried
        while self.n < end:
            n = self.n
            if hit is None and cmp(t) == result:
                if not past:
                    return n
                hit = n
            side = self._side(t) if n >= low else 0  # below low: per index
            if past and n >= k1 and (side or self.abs_cmp(t)) == past:
                return hit
            if hit is not None and n == self.cap:  # the cap ends a past search too
                return hit
            if side and (side == prev or hit is not None):
                # once a witness is recorded only the magnitude matters
                ratio, away = rec.tail_signs
                # the tail exit: |u_n| moves away from |t|, so there is no
                # witness from here on, and the past exit fires at k1 if
                # it is on this side, else never
                stop = min(end, self.cap, k1) if past == side else min(end, self.cap)
                if side == away and stop > n:
                    if ratio < 0 and (stop - n) % 2:
                        self._sign = -self._sign
                    if self._lag is None:
                        self._lag = n
                    self.steps += stop - n
                    self.n = stop
                    continue
                top = min(end, self.cap) if n >= k1 else min(end, self.cap, k1)
                if span > 1 and top - n > _BLOCK and self._telescoped():
                    # exact terms cost the same at any index: move to the
                    # last one on this side, then step across
                    self._last_on(t, side, top, span)
                    self.steps += self.n - n
                    if self.n == top:
                        continue
                    span = 1
                # a refused block is retried here at half the span, and a
                # block of one index is the step below
                while span > 1:
                    hi = min(n + span, top)
                    if hi > n + 1 and self._advance(hi, side):
                        break
                    span //= 2
                if span > 1:
                    self.steps += hi - n
                    span = min(2 * (hi - n), _SPAN)
                    continue
                span = 2
            prev = side
            step()
        return hit

    def _side(self, t: Fraction) -> int:
        """sign(|u_n| - |t|) when the floats settle it, else 0."""
        if self.zero_since is not None or not t or not self._far(t):
            return 0
        return 1 if self._logabs > self._tlog else -1

    def _advance(self, hi: int, side: int = 0) -> bool:
        """Move the float state from n to hi by the float log of
        prod q(k)/p(k) over [n, hi): from double chunk products
        (`_float_products`) over at least _LEAF indices of an instance that
        does not telescope, else from the exact telescoped products
        (`_factor_products`); with side != 0 only if |u_hi| is then
        float-settled on that side of |t| (class docstring).  Returns whether it moved; `steps` is the caller's.
        Never called while the float pair lags: jump catches it up first,
        and a search tries no block where its tail exit has nowhere left
        to go."""
        lo = self.n
        if hi - lo < _LEAF or self._telescoped():
            qs, ps = _factor_products(self.rec, lo, hi)
            sign = ((qs > 0) - (qs < 0)) * (1 if ps > 0 else -1)
            d, e = _log_ratio(qs, ps) if sign else (0.0, 0.0)
        else:
            d, e, sign = _float_products(self.rec, lo, hi)
        if not sign:  # a jump over a zero of q; past k1 q has none
            # no zero lies below lo: every move past one records it
            self.zero_since = 1 + self.rec.first_zero_of_q
            self.n = hi
            return True
        logabs = self._logabs + d
        err = self._err + e + abs(logabs) * _U
        if side:
            gap = logabs - self._tlog
            if (
                (gap > 0) != (side > 0)
                or abs(gap) <= (err + self._terr) * _SAFETY
                or hi - self._at >= _MAX_PENDING
            ):
                return False
        self.n = hi
        self._logabs, self._err = logabs, err
        if sign < 0:
            self._sign = -self._sign
        return True

    def _last_on(self, t: Fraction, side: int, top: int, span: int):
        """Move to the last m <= top with sign(|u_m| - |t|) = side, u_n on
        that side past the skip index of a telescoped instance: exact
        terms at n + span, n + 2 span, ... until one is off the side or
        top is reached, then bisection (class docstring).  Each term is the
        anchor pair times the windows at m; the exact and float pairs are
        re-anchored on the last term on the side.  `steps` is the caller's."""
        n, lo = self.n, self._at
        pairs, p1, q1 = self.rec.shift_form
        a, b = _windows(pairs, lo)
        num, den = self._num * b, self._den * a
        good, bad, width, pair = n, top + 1, span, None
        while bad - good > 1:
            m = min(n + width, top) if bad > top else (good + bad) // 2
            a, b = _windows(pairs, m)
            a, b = num * a, den * b
            if _abs_side(a, b, t) == side:
                good, pair = m, (a, b)
                width *= 2
            else:
                bad = m
        if pair is not None:
            # the residuals +-1 give only the sign
            a, b = pair
            self._anchor(good, a * _product(q1, lo, good), b * _product(p1, lo, good))

    def _anchor(self, n: int, num: int, den: int):
        """Make num/den = u_n the exact pair at n, and re-anchor the float
        pair on it."""
        self.n = self._at = n
        self._lag = None
        self.materialized += 1
        self._num, self._den = num, den
        self._sign = 1 if (num > 0) == (den > 0) else -1
        self._logabs, self._err = _log_ratio(num, den)

    def _materialize(self):
        """Bring the exact pair from the anchor up to n and re-anchor there."""
        lo, hi = self._at, self.n
        if lo == hi:
            return
        if self.zero_since is not None:
            self._at, self._lag = hi, None
            self.materialized += 1
            self._num, self._den = 0, 1
            return
        # q has no zero in [lo, hi), so qs != 0: a step, a block, a jump and
        # a catch-up each record a zero they move past, and the tail exit
        # starts past the skip index, beyond every root of q
        qs, ps = _factor_products(self.rec, lo, hi)
        self._anchor(hi, self._num * qs, self._den * ps)

    def fraction(self) -> Fraction:
        self._materialize()
        return Fraction(self._num, self._den)

    def sign(self) -> int:
        return 0 if self.zero_since is not None else self._sign

    def _far(self, t: Fraction) -> bool:
        """Whether the floats alone settle |u_n| against |t| (both nonzero)."""
        if t is not self._t:
            if self._lag is not None:
                self._catch_up()
            self._t = t
            self._tlog, self._terr = _log_ratio(t.numerator, t.denominator)
        return (
            self.n - self._at < _MAX_PENDING
            and abs(self._logabs - self._tlog) > (self._err + self._terr) * _SAFETY
        )

    def cmp(self, t: Fraction) -> int:
        """sign(u_n - t), exact: the signs, else sign(u_n) * abs_cmp(t)."""
        s = 0 if self.zero_since is not None else self._sign
        num = t.numerator
        ts = (num > 0) - (num < 0)
        if s != ts:
            return 1 if s > ts else -1
        return s * self.abs_cmp(t)

    def abs_cmp(self, t: Fraction) -> int:
        """sign(|u_n| - |t|), exact."""
        if self.zero_since is not None:
            return -1 if t.numerator else 0
        if t.numerator == 0:
            return 1
        if self._far(t):
            return 1 if self._logabs > self._tlog else -1
        self._materialize()
        return _abs_side(self._num, self._den, t)


def _abs_side(num: int, den: int, t: Fraction) -> int:
    """sign(|num/den| - |t|), by cross-multiplication."""
    diff = abs(num) * t.denominator - abs(t.numerator) * abs(den)
    return (diff > 0) - (diff < 0)


def term(inst: HGInstance, n: int, config: EngineConfig = DEFAULT_CONFIG) -> Fraction:
    """Exact n-th term; term(inst, 0) == u0."""
    if n < 0:
        raise DecideError("negative index")
    scan = ExactScan(inst, config.scan_cap)
    scan.jump(n)
    return scan.fraction()


def terms(inst: HGInstance, count: int, config: EngineConfig = DEFAULT_CONFIG):
    """First `count` terms as exact Fractions."""
    if count > config.scan_cap:
        raise ScanCapExceeded(f"{count} terms exceed cap {config.scan_cap}")
    scan = ExactScan(inst, config.scan_cap)
    for _ in range(count):
        yield scan.fraction()
        scan.step()


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------


def _positive_root_bound(c: tuple[int, ...]) -> int:
    """floor(B) for Cauchy's rule bound B on the positive roots of f
    (Akritas, Strzebonski and Vigklas, Nonlinear Analysis: Modelling and
    Control 13(3), 2008).  With the lead a_n made positive and lam
    coefficients a_i < 0 below it, B is the largest
    (lam |a_i| / a_n)^(1/(n - i)), 0 when lam = 0: past B each
    a_n x^n / lam exceeds its |a_i| x^i, so f has its lead's sign at every
    integer above floor(B).  Exact, as floor(floor(y)^(1/k)) is
    floor(y^(1/k)).  c is the coefficient tuple of f, lowest first."""
    if len(c) < 2:
        return 0
    if c[-1] < 0:
        c = [-a for a in c]
    n, lead = len(c) - 1, c[-1]
    negative = [(i, -a) for i, a in enumerate(c) if a < 0]
    lam = len(negative)
    return max((int_nthroot_floor(lam * a // lead, n - i) for i, a in negative), default=0)


def divergence_bound(inst: HGInstance, config: EngineConfig = DEFAULT_CONFIG) -> tuple[int, int | None]:
    """(N, first witness): |u_n| > |t| and |r(n)| > 1 for all n >= N, for a
    bounded class whose record's tail_signs[1] is 1 (|u_n| rises)."""
    return _bound_scan(inst, 1, config)


def shrink_bound(inst: HGInstance, config: EngineConfig = DEFAULT_CONFIG) -> tuple[int, int | None]:
    """(N, first witness): |u_n| < |t| and |r(n)| < 1 for all n >= N, for a
    bounded class whose record's tail_signs[1] is -1 (|u_n| falls)."""
    return _bound_scan(inst, -1, config)


def _bound_scan(inst, side, config) -> tuple[int, int | None]:
    """first_past() for a tail moving to `side` of |t|: the first N >= k1
    with sign(|u_N| - |t|) = side (a zero term counts as below) and the
    least witness n <= N, u_n = t (Membership) or u_n < t (Threshold), or
    None; ScanCapExceeded if the cap comes first, even after a witness
    (first_past returns below the cap only at N)."""
    rec = inst.recurrence
    if not rec.asymptotic.is_bounded or rec.tail_signs[1] != side:
        name, kind = ("divergence", "growing") if side > 0 else ("shrink", "shrinking")
        raise DecideError(f"{name}_bound needs a {kind} class")
    if side > 0 and inst.u0 == 0:
        raise DecideError("zero initial value never grows")
    if inst.t == 0:
        raise DecideError("target must be nonzero")
    scan = ExactScan(inst, config.scan_cap)
    hit = scan.first_past()
    if scan.n == scan.cap and (scan.cap < rec.monotonicity_index or scan.abs_cmp(inst.t) != side):
        raise ScanCapExceeded(f"scan index {scan.cap + 1} exceeds cap {scan.cap}")
    return scan.n, hit


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


class BruteKind(enum.Enum):
    FOUND_MEMBERSHIP = "found_membership"
    NONE_UP_TO = "none_up_to"
    THRESHOLD_VIOLATION = "threshold_violation"
    THRESHOLD_HOLDS_UP_TO = "threshold_holds_up_to"


@dataclass(frozen=True)
class BruteResult:
    kind: BruteKind
    index: int | None = None
    up_to: int | None = None


def brute_force(
    inst: HGInstance,
    up_to: int,
    config: EngineConfig = DEFAULT_CONFIG,
) -> BruteResult:
    """Exhaustive exact scan of u_0 .. u_{up_to - 1}.

    The reference the deciders are checked against (`corpus.cross_check`,
    the test suite and `hgdecide oracle`); no decider calls it.
    Membership reports the least witness.
    """
    if up_to > config.scan_cap:
        raise ScanCapExceeded(f"{up_to} exceeds scan cap {config.scan_cap}")
    scan = ExactScan(inst, config.scan_cap)
    membership = inst.problem is Problem.MEMBERSHIP
    for n in range(up_to):
        if scan.hit():
            kind = BruteKind.FOUND_MEMBERSHIP if membership else BruteKind.THRESHOLD_VIOLATION
            return BruteResult(kind, index=n)
        scan.step()
    kind = BruteKind.NONE_UP_TO if membership else BruteKind.THRESHOLD_HOLDS_UP_TO
    return BruteResult(kind, up_to=up_to)
